import itertools
from fractions import Fraction
from math import comb, gcd

import pytest

from qzeta import (
    BraidedSet,
    BudgetExceeded,
    QLaurent,
    check_braid_relation,
    fk_reference_series,
    flip_set,
    from_conjugacy_class,
    hilbert_dims,
    hilbert_dims_quadratic,
    invariant_dims,
    symmetrizer_rank,
    transposition_class,
)
from qzeta import braided
from qzeta.braided import (
    GradedDims,
    SymmetrizerLadder,
    _compose,
    _inverse,
    _ker_s2_basis,
    _pair_map,
    _ProductBlocks,
    _reduced_word,
    symmetrizer_matrix_bruteforce,
    symmetrizer_matrix_recursive,
)
from qzeta.linalg import _intersect_step, _relabel, sparse_int_rank
from qzeta.qcombinat import t_bracket
from qzeta.verify import _property_pool
from test_linalg import _rank_bareiss


def test_conjugacy_class_sizes():
    assert transposition_class(3).size == 3
    assert transposition_class(4).size == comb(4, 2)
    assert transposition_class(5).size == comb(5, 2)


def test_flip_set_involutive():
    f = flip_set(3)
    assert f.is_involutive()
    assert f.sign == 1
    for x in range(3):
        for y in range(3):
            assert f.apply(x, y) == (y, x)


def test_transposition_class_not_involutive():
    assert not transposition_class(3).is_involutive()
    assert transposition_class(3).sign == -1


def test_check_braid_relation():
    x3 = transposition_class(3)
    assert check_braid_relation((x3.left, x3.right))
    f = flip_set(2)
    assert check_braid_relation((f.left, f.right))
    # non-bijective table: send both (0,1) and (1,1) to (1,1)
    left = [[0, 1], [1, 1]]
    right = [[0, 1], [1, 1]]
    assert not check_braid_relation((left, right))
    # bijective but not braided: Psi(x, y) = (x, x xor y) on two points
    xor_left, xor_right = [[0, 0], [1, 1]], [[0, 1], [1, 0]]
    assert not check_braid_relation((xor_left, xor_right))
    with pytest.raises(ValueError, match="braid relation"):
        BraidedSet(xor_left, xor_right)
    malformed = [
        (left, right),
        ([[0, 1]], [[0, 0]]),            # ragged: one row of length 2
        ([[1]], [[0]]),                  # entry outside range(1)
        ([[-2, -1], [-2, -1]], [[-2, -2], [-1, -1]]),  # flip on 2 points, indexes -2 and -1
        ([[0.0]], [[0]]),                # not an integer index
        ([[0], [0]], [[0], [0]]),        # two rows of length 1
    ]
    for bad_left, bad_right in malformed:
        with pytest.raises(ValueError):
            BraidedSet(bad_left, bad_right)
    with pytest.raises(ValueError):
        BraidedSet(f.left, f.right, sign=1.0)   # passed at == 1, then broke repr


def test_symmetrizer_rank_examples():
    assert symmetrizer_rank(flip_set(2), 2) == 3
    assert symmetrizer_rank(transposition_class(3), 2) == 4
    assert symmetrizer_rank(transposition_class(4), 2) == 19


def test_hilbert_dims_x2_x3_x5():
    assert list(hilbert_dims(transposition_class(2), 3)) == [1, 1, 0, 0]
    assert list(hilbert_dims(transposition_class(3), 4)) == [1, 3, 4, 3, 1]
    assert list(hilbert_dims(transposition_class(5), 3)) == [1, 10, 55, 220]


def test_invariant_dims():
    for n in (2, 3):
        f = flip_set(n)
        for j in range(5):
            assert invariant_dims(f, j) == comb(n + j - 1, j)
    x = transposition_class(3)
    assert invariant_dims(x, 1) == 3
    assert invariant_dims(x, 0) == 1


def test_criterion_13_builds_each_level_once(monkeypatch):
    # one flip set is one block: one _intersect_step per level j = 2..5 for each n = 1..4, 16 in
    # all, where one invariant_dims call per j rebuilt levels 2..j, 40 in all
    from qzeta.verify import crit_13_flip_consistency

    real, built = braided._intersect_step, []
    monkeypatch.setattr(braided, "_intersect_step", lambda *args: built.append(1) or real(*args))
    crit_13_flip_consistency()
    assert len(built) == 4 * 4


def test_flip_symmetrizer_equals_invariants():
    for n in (2, 3):
        f = flip_set(n)
        for j in range(5):
            assert symmetrizer_rank(f, j) == invariant_dims(f, j)


def test_budget_and_partial_results():
    x5 = transposition_class(5)
    with pytest.raises(BudgetExceeded):
        symmetrizer_rank(x5, 3, budget=50)
    partial = hilbert_dims(x5, 6, budget=1100)
    assert not partial.complete
    assert partial.achieved_degree == 3
    assert list(partial) == [1, 10, 55, 220]
    with pytest.raises(BudgetExceeded):
        invariant_dims(x5, 3, budget=50)


def test_quadratic_variant_refuses_degree_2_over_budget():
    # degree 2 used to be computed whatever the budget, giving [1, 6, 19]
    x4 = transposition_class(4)
    partial = hilbert_dims_quadratic(x4, 3, budget=1)
    assert list(partial) == list(hilbert_dims(x4, 3, budget=1)) == [1, 6]
    assert not partial.complete
    with pytest.raises(BudgetExceeded):
        invariant_dims(x4, 2, budget=1)


@pytest.mark.parametrize("x", [transposition_class(3), transposition_class(4), flip_set(3)], ids=["X_3", "X_4", "flip_3"])
def test_every_braided_route_stops_at_the_first_level_past_the_budget(x):
    # the budget bounds n^j from degree 2 on; n^j equal to the budget is still computed
    n = x.size
    for budget in (1, n, n ** 2, n ** 3 - 1, n ** 3):
        first = next(j for j in itertools.count(2) if n ** j > budget)
        quadratic, ladder = hilbert_dims_quadratic(x, 5, budget=budget), hilbert_dims(x, 5, budget=budget)
        assert quadratic.achieved_degree == ladder.achieved_degree == first - 1, budget
        assert list(quadratic) == list(hilbert_dims_quadratic(x, first - 1)), budget
        assert invariant_dims(x, first - 1, budget=budget) == invariant_dims(x, first - 1), budget
        for j in (first, 5):
            with pytest.raises(BudgetExceeded) as raised:
                invariant_dims(x, j, budget=budget)
            with pytest.raises(BudgetExceeded) as ladder_raised:
                symmetrizer_rank(x, j, budget=budget)
            message = f"n^j = {n}^{first} = {n ** first} exceeds budget {budget}"
            assert str(raised.value) == str(ladder_raised.value) == message, (budget, j)


def test_recursion_equals_bruteforce():
    pool = [flip_set(2), flip_set(3), transposition_class(3),
            from_conjugacy_class(3, (2, 3, 1)), from_conjugacy_class(4, (2, 1, 4, 3))]
    for x in pool:
        for j in (0, 1, 2, 3):
            assert symmetrizer_matrix_recursive(x, j) == symmetrizer_matrix_bruteforce(x, j)
    for fn in (symmetrizer_matrix_recursive, symmetrizer_matrix_bruteforce):
        with pytest.raises(ValueError):
            fn(flip_set(2), -1)


def _apply_word(x, word, tup):
    """The tuple tup braided at the positions of word, last position first."""
    digits = list(tup)
    for pos in reversed(word):
        a, b = digits[pos], digits[pos + 1]
        digits[pos], digits[pos + 1] = x.left[a][b], x.right[a][b]
    return tuple(digits)


def _symmetrizer_by_tuples(x, j):
    """Oracle: S_j as {(row, col): int}, each reduced word applied to each tuple on its own."""
    tuples = list(itertools.product(range(x.size), repeat=j))
    index = {t: i for i, t in enumerate(tuples)}
    out = {}
    for perm in itertools.permutations(range(j)):
        word = _reduced_word(perm)
        sgn = x.sign ** len(word)
        for c, tup in enumerate(tuples):
            r = index[_apply_word(x, word, tup)]
            out[(r, c)] = out.get((r, c), 0) + sgn
    return {k: v for k, v in out.items() if v}


def test_bruteforce_tuple_maps_match_braiding_each_tuple():
    pool = _property_pool() + [x for x, _, _ in _block_pool()]
    for x in pool:
        for j in range(5):
            assert symmetrizer_matrix_bruteforce(x, j) == _symmetrizer_by_tuples(x, j), (x.label, j)


def test_recursion_runs_the_ladder_kernel(monkeypatch):
    """A wrong sign in the ladder's word steps must break the recursion-vs-brute-force check."""

    right_sign = SymmetrizerLadder._word_inverse_perms

    def wrong_sign(self, j):
        # sign^p in place of sign^(p+1) on the word of length p + 1
        return [(lo, delta, sgn * self.x.sign) for lo, delta, sgn in right_sign(self, j)]

    x = transposition_class(3)
    assert symmetrizer_matrix_recursive(x, 2) == symmetrizer_matrix_bruteforce(x, 2)
    monkeypatch.setattr(SymmetrizerLadder, "_word_inverse_perms", wrong_sign)
    assert symmetrizer_matrix_recursive(x, 2) != symmetrizer_matrix_bruteforce(x, 2)


def test_degree_one_generation_bound():
    for x in (transposition_class(3), transposition_class(4)):
        dims = list(hilbert_dims(x, 4))
        for j in range(1, 5):
            assert dims[j] <= x.size * dims[j - 1]


def test_palindromic_ranges():
    assert list(hilbert_dims(transposition_class(3), 4)) == [1, 3, 4, 3, 1]
    x4 = list(hilbert_dims(transposition_class(4), 6))
    ref = [1, 6, 19, 42, 71, 96, 106]
    assert x4 == ref


def test_quadratic_variant_agreement():
    x3 = transposition_class(3)
    assert list(hilbert_dims_quadratic(x3, 5)) == list(hilbert_dims(x3, 5))
    f3 = flip_set(3)
    assert list(hilbert_dims_quadratic(f3, 4)) == [comb(3 + j - 1, j) for j in range(5)]


@pytest.mark.parametrize(
    "fn",
    [hilbert_dims, hilbert_dims_quadratic, symmetrizer_rank, invariant_dims,
     lambda x, j: SymmetrizerLadder(x).dim(j), symmetrizer_matrix_bruteforce, symmetrizer_matrix_recursive],
    ids=["hilbert_dims", "hilbert_dims_quadratic", "symmetrizer_rank", "invariant_dims", "ladder_dim",
         "bruteforce", "recursive"],
)
def test_hilbert_dims_reject_negative_degree(fn):
    # a GradedDims([1], -1) would report itself complete for a degree never asked for,
    # and the ladder's dims[-1] is a dimension of another degree
    x3 = transposition_class(3)
    with pytest.raises(ValueError, match="must be non-negative"):
        fn(x3, -1)
    with pytest.raises(ValueError, match="must be an integer, got 2.5"):
        fn(x3, 2.5)
    assert fn(x3, 2.0) == fn(x3, 2)
    assert fn(x3, 0) in ([1], 1, {(0, 0): 1})


def test_fk_reference_series():
    r3 = fk_reference_series(3)
    assert r3.t_coeff_list() == [QLaurent({0: c}) for c in (1, 3, 4, 3, 1)]
    assert fk_reference_series(4).t_coeff(6) == QLaurent({0: 106})
    r2 = fk_reference_series(2)
    assert r2.t_coeff_list() == [QLaurent({0: 1}), QLaurent({0: 1})]
    with pytest.raises(ValueError):
        fk_reference_series(6)


def test_json_round_trip():
    x = transposition_class(3)
    text = x.to_json()
    again = BraidedSet.from_json(text)
    assert again.to_json() == text
    assert again.sign == -1
    assert again.size == 3


def test_from_json_rejects_malformed_documents():
    for text in ('[]', '3', '{"left": [[0]]}'):
        with pytest.raises(ValueError, match="JSON object with 'left' and 'right'"):
            BraidedSet.from_json(text)
    # tables that are not lists of rows used to escape as TypeError
    for text in ('{"left": 5, "right": 5}', '{"left": [1], "right": [1]}', '{"left": "ab", "right": "ab"}'):
        with pytest.raises(ValueError, match="lists of index rows"):
            BraidedSet.from_json(text)
    with pytest.raises(ValueError, match="tables of indices"):
        BraidedSet.from_json('{"left": [[0, 1]], "right": [[0]]}')
    # JSON true used to pass as index 1 and as sign +1, and to_json wrote it back
    with pytest.raises(ValueError, match="tables of indices"):
        BraidedSet.from_json('{"left": [[0, true], [0, 1]], "right": [[0, 0], [true, 1]]}')
    with pytest.raises(ValueError, match="sign must be"):
        BraidedSet.from_json('{"left": [[0, 1], [0, 1]], "right": [[0, 0], [1, 1]], "sign": true}')


def test_from_json_refuses_a_label_that_is_not_a_string():
    # a number used to become the label and be written back as a number; 0 and [] became the default
    for label in ("5", "0", "[]", "null", "true"):
        with pytest.raises(ValueError, match="label must be a str"):
            BraidedSet.from_json('{"left": [[0]], "right": [[0]], "label": %s}' % label)
    with pytest.raises(ValueError, match="label must be a str"):
        BraidedSet([[0]], [[0]], label=5)
    assert BraidedSet.from_json('{"left": [[0]], "right": [[0]]}').label == "braided set on 1 elements"
    assert BraidedSet.from_json('{"left": [[0]], "right": [[0]], "label": ""}').label == "braided set on 1 elements"
    assert BraidedSet.from_json('{"left": [[0]], "right": [[0]], "label": "x"}').label == "x"


def test_graded_dims_needs_d0_equal_to_one():
    for dims in ([], [2, 1]):
        with pytest.raises(ValueError, match="d_0 must be 1"):
            GradedDims(dims, 2)
    assert GradedDims([1, 3], 1).complete


def test_conjugacy_class_input_validation():
    with pytest.raises(ValueError):
        from_conjugacy_class(1, (1,))
    with pytest.raises(ValueError):
        from_conjugacy_class(3, (1, 1, 2))
    # (2.7, 1, 3) would truncate to the transposition (2, 1, 3)
    for k, rep in ((3, (2.7, 1, 3)), (3.5, (2, 1, 3))):
        with pytest.raises(ValueError, match="must be an integer"):
            from_conjugacy_class(k, rep)
    assert from_conjugacy_class(3.0, (2.0, Fraction(1), 3)).size == 3


def _cycle_type_representatives(k):
    """1-based images of one permutation of S_k per cycle type with a cycle longer than 1."""
    def partitions(m, largest):
        if m == 0:
            yield ()
        for p in range(min(m, largest), 0, -1):
            for rest in partitions(m - p, p):
                yield (p,) + rest

    reps = []
    for parts in partitions(k, k):
        if parts[0] > 1:
            images, start = [], 1
            for p in parts:
                images += [start + (t + 1) % p for t in range(p)]
                start += p
            reps.append(tuple(images))
    return reps


def _cycle_lengths(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, t = 0, start
        while t not in seen:
            seen.add(t)
            t, length = perm[t], length + 1
        if length:
            lengths.append(length)
    return lengths


def test_conjugacy_classes_satisfy_the_triple_check_they_skip():
    """Every class of S_k, k <= 6, of at most 45 elements: the braid relation holds on all n^3 triples.

    The table is also rebuilt from every permutation of the cycle type, and
    the public constructor, which walks the triples, takes it unchanged.
    """
    checked = 0
    for k in range(2, 7):
        for rep in _cycle_type_representatives(k):
            x = from_conjugacy_class(k, rep)
            cycle_type = sorted(_cycle_lengths(tuple(i - 1 for i in rep)))
            elems = sorted(p for p in itertools.permutations(range(k)) if sorted(_cycle_lengths(p)) == cycle_type)
            assert x.size == len(elems), (k, rep)
            if x.size > 45:
                continue
            index = {e: i for i, e in enumerate(elems)}
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    conj = tuple(a[b[a.index(t)]] for t in range(k))
                    assert x.apply(i, j) == (index[conj], i), (k, rep, i, j)
            assert check_braid_relation((x.left, x.right)), (k, rep)
            assert repr(BraidedSet(x.left, x.right, sign=-1, label=x.label)) == repr(x)
            checked += 1
    assert checked == 18


def test_product_blocks_read_symmetry_of_racks_without_the_automorphism_loop(monkeypatch):
    racks = [flip_set(n) for n in range(1, 6)]
    racks += [from_conjugacy_class(k, rep) for k in range(2, 7) for rep in _cycle_type_representatives(k)]
    for x in [x for x, _, _ in _block_pool()] + racks:
        loop = all(braided._is_automorphism(x, s) for s in set(x.left))
        assert _ProductBlocks(x).symmetric == loop, x.label
    real, calls = braided._is_automorphism, []
    monkeypatch.setattr(braided, "_is_automorphism", lambda x, g: calls.append(x.label) or real(x, g))
    for x in racks:
        assert _ProductBlocks(x).symmetric
    assert calls == []
    assert not _ProductBlocks(_non_automorphic_set(1)).symmetric and calls


def test_conjugation_check_rejects_a_table_the_braid_relation_accepts():
    # x |> y = y braids (the trivial rack) and is a bijection of pairs, but is not conjugation
    x = transposition_class(4)
    elems = sorted(p for p in itertools.permutations(range(4)) if sorted(_cycle_lengths(p)) == [1, 1, 2])
    assert braided._conjugation_holds(elems, x.left)
    trivial = [list(range(x.size)) for _ in range(x.size)]
    assert check_braid_relation((trivial, x.right))
    assert not braided._conjugation_holds(elems, trivial)
    repeated = [list(row) for row in x.left]
    repeated[0][1] = repeated[0][2]              # row 0 no longer a permutation
    assert not braided._conjugation_holds(elems, repeated)


def test_braided_set_still_checks_a_corrupted_conjugation_table():
    x = transposition_class(4)
    swapped = [list(row) for row in x.left]
    swapped[1][0], swapped[1][2] = swapped[1][2], swapped[1][0]  # still a bijection of pairs
    assert not check_braid_relation((swapped, x.right))
    with pytest.raises(ValueError, match="braid relation"):
        BraidedSet(swapped, x.right, sign=-1)
    with pytest.raises(ValueError, match="braid relation"):
        BraidedSet.from_json(x.to_json().replace(str(list(x.left[1])), str(swapped[1])))


# -- oracles: the routes the ladder and the quadratic variant used before ------


def _word_inverse_perms_tables(x, j):
    """Inverse permutation arrays of n^j entries for the words Psi_{j-1}..Psi_k, k = j-1..1."""
    n = x.size
    left, right = x.left, x.right
    big = n ** j
    out = []
    for k in range(j - 1, 0, -1):
        pi = [0] * big
        for c in range(big):
            digits = []
            cc = c
            for _ in range(j):
                digits.append(cc % n)
                cc //= n
            digits.reverse()
            for pos in range(k - 1, j - 1):
                a, b = digits[pos], digits[pos + 1]
                digits[pos], digits[pos + 1] = left[a][b], right[a][b]
            val = 0
            for d in digits:
                val = val * n + d
            pi[c] = val
        inv = [0] * big
        for c, pc in enumerate(pi):
            inv[pc] = c
        out.append((j - k, inv))
    return out


def _candidate_rows_tables(ladder, j):
    """Candidate rows of level j through the full n^j inverse tables."""
    n = ladder.x.size
    sign = ladder.x.sign
    inv_words = _word_inverse_perms_tables(ladder.x, j)
    rows = []
    for prev_row in ladder._basis:
        for i in range(n):
            x0 = {u * n + i: v for u, v in prev_row.items()}
            out = dict(x0)
            for length, inv in inv_words:
                sgn = sign ** length
                for idx, v in x0.items():
                    c = inv[idx]
                    w = out.get(c, 0) + sgn * v
                    if w:
                        out[c] = w
                    elif c in out:
                        del out[c]
            rows.append(out)
    return rows


def _ker_s2_basis_rref(x):
    """Integer basis of ker(id + sign Psi) by Fraction RREF of the n^2 x n^2 operator."""
    n = x.size
    big = n * n
    a = [[Fraction(0)] * big for _ in range(big)]
    for c in range(big):
        p, q = divmod(c, n)
        img = x.left[p][q] * n + x.right[p][q]
        a[c][c] += 1
        a[img][c] += x.sign
    piv = {}
    r0 = 0
    for c0 in range(big):
        sel = next((r for r in range(r0, big) if a[r][c0] != 0), None)
        if sel is None:
            continue
        a[r0], a[sel] = a[sel], a[r0]
        pv = a[r0][c0]
        a[r0] = [v / pv for v in a[r0]]
        for r in range(big):
            if r != r0 and a[r][c0] != 0:
                f = a[r][c0]
                a[r] = [v - f * w for v, w in zip(a[r], a[r0])]
        piv[c0] = r0
        r0 += 1
    basis = []
    for free in range(big):
        if free in piv:
            continue
        vec = {free: Fraction(1)}
        for pc, pr in piv.items():
            if a[pr][free] != 0:
                vec[pc] = -a[pr][free]
        den = 1
        for v in vec.values():
            den = den * v.denominator // gcd(den, v.denominator)
        basis.append({k: int(v * den) for k, v in vec.items() if v})
    return basis


class _UngradedLadder(SymmetrizerLadder):
    """The ladder before product blocks: one elimination over all n^j columns per level."""

    def __init__(self, x, budget):
        super().__init__(x, budget)
        self._basis = [{i: 1} for i in range(x.size)]

    def ungraded_candidate_rows(self, j):
        steps = self._word_inverse_perms(j)
        return self._candidate_rows(steps, [(self._basis, range(self.x.size))])

    def extend(self):
        j = self.level + 1
        n = self.x.size
        if n ** j > self.budget:
            raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {self.budget}")
        rank, self._basis, _ = sparse_int_rank(self.ungraded_candidate_rows(j))
        self.dims.append(rank)
        return rank


def _copy(n, entry, g, m):
    """A level-m entry (rows, or a (rows, column words) pair) with every tensor factor sent through g.

    The copy each non-representative label got before the ladder read its
    representative's one copy through g: base-n digit tables over the low
    and high halves of a word, built per call.
    """
    if g == tuple(range(n)):
        return entry
    half = m // 2
    base = n ** half
    low = [0]
    for _ in range(half):
        low = [c * n + d for c in low for d in g]
    high = [c * n + d for c in low for d in g] if m % 2 else low
    high = [c * base for c in high]

    def relabel(rows):
        return [{high[c // base] + low[c % base]: v for c, v in row.items()} for row in rows]

    if isinstance(entry, tuple):
        rows, cols = entry
        return relabel(rows), [high[c // base] + low[c % base] for c in cols]
    return relabel(entry)


def _copies(ladder, m):
    """parts [(rep, g, letters)] -> [(copy of ladder._basis[rep] through g, letters)], one copy per label and level."""
    cache = {}

    def parts_of(parts):
        out = []
        for rep, g, letters in parts:
            if (rep, g) not in cache:
                cache[rep, g] = _copy(ladder.x.size, ladder._basis[rep], g, m)
            out.append((cache[rep, g], letters))
        return out

    return parts_of


class _FullRowLadder(SymmetrizerLadder):
    """The block ladder before the restriction: every candidate row of S_j built in full and eliminated."""

    def __init__(self, x, budget):
        super().__init__(x, budget)
        self._basis = {rep: [{i: 1} for i in letters] for rep, letters in self._blocks.first().items()}

    def kept_rows(self):
        return self._basis

    def extend(self):
        j = self.level + 1
        n = self.x.size
        if n ** j > self.budget:
            raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {self.budget}")
        steps = self._word_inverse_perms(j)
        copies = _copies(self, j - 1)

        def kept(parts):
            return sparse_int_rank(self._candidate_rows(steps, copies(parts)))[1]

        rank, self._basis = self._blocks.level(self._basis, kept)
        self.dims.append(rank)
        return rank


class _CopyLadder(SymmetrizerLadder):
    """The restricted ladder before one copy per representative.

    Every level builds its kept rows at once, and every block ranks its M on
    copies of its parts' rows and column words, each sent through its g by
    ``_copy``; the index of the rows is built per block, over the columns
    that the images of M's columns reach.
    """

    def __init__(self, x, budget):
        super().__init__(x, budget)
        self._basis = {rep: ([{i: 1} for i in letters], list(letters)) for rep, letters in self._blocks.first().items()}

    def kept_rows(self):
        return {rep: rows for rep, (rows, _) in self._basis.items()}

    def extend(self):
        j = self.level + 1
        n = self.x.size
        if n ** j > self.budget:
            raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {self.budget}")
        steps = self._word_inverse_perms(j)
        pairs = _pair_map(self.x)
        forward = [(lo, [(s - t) * lo for t, s in enumerate(pairs)], sgn) for lo, _, sgn in steps]
        copies = _copies(self, j - 1)
        rank, self._basis = self._blocks.level(
            self._basis, lambda parts: self._block_bases(steps, forward, copies(parts)))
        self.dims.append(rank)
        return rank

    def _block_bases(self, steps, forward, parts):
        n = self.x.size
        nn = n * n
        columns = [u * n + i for (_, cols), letters in parts for u in cols for i in letters]
        images = []  # column of M -> [(W_p(v), sign^p)]
        for v in columns:
            out = [(v, 1)]
            for p in range(1, len(forward) + 1):
                c = v
                for lo, delta, _ in reversed(forward[:p]):  # place values n^(p-1), ..., n^0
                    c += delta[c // lo % nn]
                out.append((c, forward[p - 1][2]))
            images.append(out)
        looked_up = {c // n for out in images for c, _ in out}
        index = {}  # column u of S_(j-1) -> [(first candidate of the row, letter -> offset, entry)]
        sources = []  # candidate -> (row of S_(j-1), letter)
        for (rows, _), letters in parts:
            offset = {i: k for k, i in enumerate(letters)}
            for row in rows:
                first = len(sources)
                for u, e in row.items():
                    if u in looked_up:
                        index.setdefault(u, []).append((first, offset, e))
                sources.extend((row, i) for i in letters)
        m = [{} for _ in sources]
        for k, out in enumerate(images):
            for c, sgn in out:
                for first, offset, e in index.get(c // n, ()):
                    row = m[first + offset[c % n]]
                    row[k] = row.get(k, 0) + sgn * e
        _, kept, pivots = sparse_int_rank(m)
        source = {id(row): ([w], [i]) for row, (w, i) in zip(m, sources)}  # kept holds these very rows
        rows = list(self._candidate_rows(steps, [source[id(row)] for row in kept]))
        return rows, [columns[k] for k in pivots]


class _TwoPassLadder(_CopyLadder):
    """The copying ladder with its column words picked by a second elimination, over the columns of M[K_j, :]."""

    def _block_bases(self, steps, forward, parts):
        n = self.x.size
        nn = n * n
        columns = [u * n + i for (_, cols), letters in parts for u in cols for i in letters]
        images = []  # column of M -> [(W_p(v), sign^p)]
        for v in columns:
            out = [(v, 1)]
            for p in range(1, len(forward) + 1):
                c = v
                for lo, delta, _ in reversed(forward[:p]):
                    c += delta[c // lo % nn]
                out.append((c, forward[p - 1][2]))
            images.append(out)
        looked_up = {c // n for out in images for c, _ in out}
        index = {}  # column u of S_(j-1) -> [(first candidate of the row, letter -> offset, entry)]
        sources = []  # candidate -> (row of S_(j-1), letter)
        for (rows, _), letters in parts:
            offset = {i: k for k, i in enumerate(letters)}
            for row in rows:
                first = len(sources)
                for u, e in row.items():
                    if u in looked_up:
                        index.setdefault(u, []).append((first, offset, e))
                sources.extend((row, i) for i in letters)
        m = [{} for _ in sources]
        for k, out in enumerate(images):
            for c, sgn in out:
                for first, offset, e in index.get(c // n, ()):
                    row = m[first + offset[c % n]]
                    row[k] = row.get(k, 0) + sgn * e
        kept_ids = {id(row) for row in sparse_int_rank(m)[1]}
        kept = [r for r, row in enumerate(m) if id(row) in kept_ids]
        transposed = [{} for _ in columns]
        for t, r in enumerate(kept):
            for k, e in m[r].items():
                if e:
                    transposed[k][t] = e
        picked = {id(col) for col in sparse_int_rank(transposed)[1]}
        cols = [v for v, col in zip(columns, transposed) if id(col) in picked]
        rows = list(self._candidate_rows(steps, [([sources[r][0]], [sources[r][1]]) for r in kept]))
        return rows, cols


def _built_basis(ladder):
    """{representative: (kept rows, column words)} of a ladder's current level, its kept rows built."""
    return {rep: (rows, ladder._basis[rep][1]) for rep, rows in ladder.kept_rows().items()}


def _column_words(ladder):
    """Every kept column word of the current level, over every block of every orbit."""
    blocks = ladder._blocks
    return [
        v
        for rep, (_, cols) in _built_basis(ladder).items()
        for label, g in blocks.members(rep)
        for v in _copy(ladder.x.size, ([], cols), g, ladder.level)[1]
    ]


def _hilbert_dims_quadratic_ungraded(x, max_degree, budget=10**5):
    """The quadratic variant before product blocks: one elimination of I_j per degree."""
    n = x.size
    dims = [1]
    if max_degree >= 1:
        dims.append(n)
    if max_degree < 2:
        return dims
    kernel = _ker_s2_basis(x)
    _, ideal, _ = sparse_int_rank(kernel)
    dims.append(n * n - len(ideal))
    for j in range(3, max_degree + 1):
        big = n ** j
        if big > budget:
            break
        rest = n ** (j - 2)
        prev_dim = n ** (j - 1)

        def candidates():
            for vec in kernel:
                for w in range(rest):
                    yield {c2 * rest + w: v for c2, v in vec.items()}
            for i in range(n):
                base = i * prev_dim
                for row in ideal:
                    yield {base + c: v for c, v in row.items()}

        rank, ideal, _ = sparse_int_rank(candidates())
        dims.append(big - rank)
    return dims


def _joint_kernel_pair_maps(x):
    """[(pair_map, width)] of the quadratic variant's contraction against ker S_2 and of the invariants' sign Psi - id."""
    kernel = _ker_s2_basis(x)
    contract = [[] for _ in range(x.size ** 2)]
    for t, vec in enumerate(kernel):
        for c, v in vec.items():
            contract[c].append((t, v))
    shifted = []
    for c, image in enumerate(_pair_map(x)):
        col = {image: x.sign}
        col[c] = col.get(c, 0) - 1
        shifted.append([(k, v) for k, v in col.items() if v])
    return [(contract, len(kernel)), (shifted, x.size ** 2)]


def _joint_kernel_dims_by_copies(x, pair_map, width):
    """Yield dim W_j for j = 2, 3, ...: the joint kernels before each part was read through its digit tables.

    Every level copies the basis of each (rep, g) that feeds a block, sent
    through g by ``_relabel``, and passes the copies to ``_intersect_step``
    as they are.  No budget is read.
    """
    blocks = _ProductBlocks(x)
    n = x.size
    basis = {rep: [{i: 1} for i in letters] for rep, letters in blocks.first().items()}
    for m in itertools.count(1):
        copies = {}  # (rep, g) -> basis[rep] sent through g; a label can feed several blocks

        def relabelled(rep, g):
            if (rep, g) not in copies:
                tables = blocks.digits(g, m)
                copies[rep, g] = [_relabel(row, tables) for row in basis[rep]]
            return copies[rep, g]

        dim, basis = blocks.level(basis, lambda parts: _intersect_step(
            [(relabelled(rep, g), letters) for rep, g, letters in parts], n, pair_map, width))
        yield dim


def _invariant_dims_stacked(x, j):
    """n^j minus the rank of the stacked rows of sign Psi_i^-1 - id over every adjacent position i.

    Psi_i permutes the columns and sign = +-1, so these rows have the rank of
    sign Psi_i - id; each is built on all n^j columns at once.
    """
    if j <= 1:
        return 1 if j == 0 else x.size
    n, nn, big = x.size, x.size ** 2, x.size ** j
    inv = [0] * nn
    for t, s in enumerate(_pair_map(x)):
        inv[s] = t

    def rows():
        for p in range(j - 1):
            lo = n ** (j - 2 - p)
            for c in range(big):
                image = c + (inv[c // lo % nn] - c // lo % nn) * lo
                row = {c: -1}
                row[image] = row.get(image, 0) + x.sign
                if any(row.values()):
                    yield {k: v for k, v in row.items() if v}

    return big - sparse_int_rank(rows())[0]


def _non_automorphic_set(sign):
    """On 3 points: sigma_x = left[x] a 3-cycle power, right[x][y] = tau[x] with tau = (0 2 1)."""
    sigma = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    tau = (0, 2, 1)
    right = [[tau[x] for _ in range(3)] for x in range(3)]
    return BraidedSet(sigma, right, sign=sign, label=f"non-automorphic sigma's, sign {sign:+d}")


def _rack(n, op, label):
    """The rack x |> y = op(x, y) on range(n) as a braided set: Psi(x, y) = (x |> y, x), sign -1."""
    left = [[op(x, y) for y in range(n)] for x in range(n)]
    return BraidedSet(left, [[x] * n for x in range(n)], sign=-1, label=label)


def _affine_rack(p, a):
    """Aff(p, a): Z/p with x |> y = a y + (1 - a) x."""
    return _rack(p, lambda x, y: (a * y + (1 - a) * x) % p, f"Aff({p},{a})")


def _tetrahedron_rack():
    """The four 3-cycles of A_4 conjugate to (1 2 3), x |> y = x y x^-1."""
    gens = [(1, 2, 0, 3), (1, 0, 3, 2)]  # (1 2 3) and (1 2)(3 4) generate A_4
    found, frontier = {gens[0]}, [gens[0]]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _compose(_compose(g, x), _inverse(g))
            if y not in found:
                found.add(y)
                frontier.append(y)
    elems = sorted(found)
    index = {e: i for i, e in enumerate(elems)}
    conj = lambda x, y: index[_compose(_compose(elems[x], elems[y]), _inverse(elems[x]))]  # noqa: E731
    return _rack(len(elems), conj, "tetrahedron rack")


def _ladder_pool():
    return [
        (flip_set(3), 5),
        (transposition_class(3), 5),
        (transposition_class(4), 5),
        (from_conjugacy_class(3, (2, 3, 1)), 5),      # 3-cycles in S_3
        (from_conjugacy_class(4, (2, 1, 4, 3)), 5),   # double transpositions in S_4
    ]


def _block_pool():
    """(braided set, top degree of the ladder, top degree of the quadratic variant)."""
    return [
        (flip_set(2), 6, 6),
        (flip_set(3), 6, 6),
        (flip_set(4), 5, 5),
        (transposition_class(3), 6, 6),
        (transposition_class(4), 6, 5),
        (transposition_class(5), 4, 4),
        (from_conjugacy_class(3, (2, 3, 1)), 6, 6),      # 3-cycles in S_3
        (from_conjugacy_class(4, (2, 1, 4, 3)), 6, 6),   # double transpositions in S_4
        (from_conjugacy_class(4, (2, 3, 4, 1)), 6, 5),   # 4-cycles in S_4
        (_non_automorphic_set(1), 5, 6),
        (_non_automorphic_set(-1), 6, 6),
        (_tetrahedron_rack(), 7, 7),
        (_affine_rack(5, 2), 5, 4),
    ]


def test_ladder_support_route_matches_tables():
    for x, top in _ladder_pool():
        ladder = _UngradedLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            rows = list(ladder.ungraded_candidate_rows(j))
            ref = _candidate_rows_tables(ladder, j)
            assert rows == ref, (x.label, j)
            rank, kept, pivots = sparse_int_rank(rows)
            assert (rank, kept, pivots) == sparse_int_rank(ref), (x.label, j)
            assert ladder.extend() == rank
            assert ladder._basis == kept


def test_block_ladder_matches_ungraded():
    for x, top, _ in _block_pool():
        blocks = SymmetrizerLadder(x, budget=x.size ** top)
        oracle = _UngradedLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            assert blocks.extend() == oracle.extend(), (x.label, j)
            if x.label.startswith("flip"):
                # one block, trivial group: the very same rows are kept
                assert blocks.kept_rows() == {tuple(range(x.size)): oracle._basis}, (x.label, j)
        assert blocks.dims == oracle.dims, x.label


def test_block_quadratic_matches_ungraded():
    for x, _, top in _block_pool():
        assert list(hilbert_dims_quadratic(x, top)) == _hilbert_dims_quadratic_ungraded(x, top), x.label


def _hilbert_dims_quadratic_by_intersection(x, max_degree, budget=braided.DEFAULT_BUDGET):
    """The quadratic variant before normal words: dim W_j, W_j the annihilator of the degree-j ideal.

    W_j = (W_(j-1) (x) V) cap (V^(x j-2) (x) K^perp), K = ker S_2, is the
    joint kernel of the contraction against K's cycle vectors at every
    adjacent slot pair (``_joint_kernel_dims``); its vectors fill their
    blocks over n^j columns.  The budget is read as in the library.
    """
    contract, width = _joint_kernel_pair_maps(x)[0]
    dims = []
    try:
        for dim in itertools.islice(braided._joint_kernel_dims(x, contract, width, budget), max_degree + 1):
            dims.append(dim)
    except BudgetExceeded:
        pass
    return GradedDims(dims, max_degree)


def _permutation_rack(f, sign):
    """x |> y = f(y) on range(len(f)): every sigma_x is f.  Its quadratic normal forms have Fraction entries."""
    n = len(f)
    return BraidedSet([list(f)] * n, [[x] * n for x in range(n)], sign=sign, label=f"permutation rack {f}, sign {sign:+d}")


def _fraction_pool():
    """(braided set, degree) whose quadratic variant has normal forms with Fraction entries by then."""
    return [(_permutation_rack((2, 0, 1), -1), 5), (_permutation_rack((2, 0, 1, 3), 1), 5),
            (_permutation_rack((2, 0, 1, 3), -1), 5)]


def test_quadratic_normal_words_match_the_intersection_oracle():
    # _block_pool() at the quadratic variant's top (the non-automorphic sets of sign +1 and -1 among
    # them), crit 13's flip sets, crit 12's X_2, X_3, X_4 and racks whose normal forms need Fractions
    pool = [(x, top) for x, _, top in _block_pool()] + [(flip_set(n), 5) for n in range(1, 5)] + [
        (transposition_class(k), top) for k, top in ((2, 4), (3, 5), (4, 6))] + _fraction_pool()
    for x, top in pool:
        assert repr(hilbert_dims_quadratic(x, top)) == repr(_hilbert_dims_quadratic_by_intersection(x, top)), x.label


@pytest.mark.parametrize("x", [transposition_class(3), transposition_class(4), flip_set(3)], ids=["X_3", "X_4", "flip_3"])
def test_quadratic_normal_words_match_the_intersection_oracle_under_every_budget(x):
    n = x.size
    for budget in (1, n, n ** 2, n ** 3 - 1, n ** 3):
        got = hilbert_dims_quadratic(x, 5, budget=budget)
        assert repr(got) == repr(_hilbert_dims_quadratic_by_intersection(x, 5, budget)), budget


def test_quadratic_rows_from_fraction_normal_forms_are_integer(monkeypatch):
    """Where a normal form has a Fraction entry, every later relation row is cleared to an int row first."""
    forms, reduce = braided._normal_forms, braided._reduce
    fractions, rows = [], []

    def spy_forms(echelon):
        out = forms(echelon)
        fractions.extend(v for form in out.values() for v in form.values() if type(v) is not int)
        return out

    monkeypatch.setattr(braided, "_normal_forms", spy_forms)
    monkeypatch.setattr(braided, "_reduce", lambda echelon, row: rows.append(row) or reduce(echelon, row))
    for x, top in _fraction_pool():
        del fractions[:], rows[:]
        assert repr(hilbert_dims_quadratic(x, top)) == repr(_hilbert_dims_quadratic_by_intersection(x, top)), x.label
        assert fractions, x.label
        assert all(type(v) is int for row in rows for v in row.values()), x.label


def test_x4_quadratic_is_complete_at_degree_13():
    """The quadratic cover of X_4 is the Fomin-Kirillov algebra: top degree 12, 576 in all, palindromic."""
    dims = hilbert_dims_quadratic(transposition_class(4), 13, budget=6 ** 13)
    assert dims.complete
    assert dims.dims[12:] == [1, 0]
    assert sum(dims) == 576
    assert dims.dims[:13] == dims.dims[12::-1]
    assert dims.dims[:13] == [c.coeff(0) for c in fk_reference_series(4).t_coeff_list()]


def test_joint_kernels_read_through_digit_tables_match_relabelled_copies():
    # _block_pool() at the quadratic variant's top, crit 13's flip sets and crit 12's X_2, X_3, X_4
    pool = [(x, top) for x, _, top in _block_pool()] + [(flip_set(n), 5) for n in range(1, 5)] + [
        (transposition_class(k), top) for k, top in ((2, 4), (3, 5), (4, 6))]
    for x, top in pool:
        for pair_map, width in _joint_kernel_pair_maps(x):
            got = list(itertools.islice(braided._joint_kernel_dims(x, pair_map, width, x.size ** top), top + 1))
            oracle = list(itertools.islice(_joint_kernel_dims_by_copies(x, pair_map, width), top - 1))
            assert got == [1, x.size] + oracle, (x.label, width)


def test_invariant_dims_match_stacked_rows():
    for x, top, _ in _block_pool():
        for j in range(min(top, 5) + 1):
            assert invariant_dims(x, j) == _invariant_dims_stacked(x, j), (x.label, j)


def test_product_blocks_and_orbits():
    """Kept rows lie in the block of their key, the key is its orbit's least label, and label = g rep g^-1."""
    for x, top, _ in _block_pool():
        blocks = _ProductBlocks(x)
        assert blocks.symmetric == (not x.label.startswith("non-automorphic")), x.label
        n = x.size
        ladder = SymmetrizerLadder(x, budget=n ** top)
        for j in range(1, top + 1):
            ladder.dim(j)
            for rep, (rows, cols) in _built_basis(ladder).items():
                assert len(cols) == len(rows), (x.label, j)
                members = ladder._blocks.members(rep)
                assert rep == min(label for label, _ in members), (x.label, j)
                for label, g in members:
                    if blocks.symmetric:
                        assert label == _compose(_compose(g, rep), tuple(g.index(i) for i in range(n)))
                    else:
                        assert (label, g) == (rep, blocks.identity)
                for c in [c for row in rows for c in row] + cols:
                    label = blocks.identity
                    for t in range(j):
                        label = _compose(label, x.left[c // n ** (j - 1 - t) % n])
                    assert label == rep, (x.label, j)


def test_non_automorphic_set_falls_back_to_plain_blocks():
    plus, minus = _non_automorphic_set(1), _non_automorphic_set(-1)
    assert not _ProductBlocks(plus).symmetric
    assert not _ProductBlocks(minus).symmetric
    assert list(hilbert_dims(plus, 6)) == [1, 3, 9, 27, 79, 225, 641]
    assert list(hilbert_dims(minus, 6)) == [1, 3, 4, 3, 1, 0, 0]


def test_block_ladder_keeps_the_level_budget():
    x5 = transposition_class(5)
    ladder = SymmetrizerLadder(x5, budget=10 ** 4)
    assert ladder.dim(4) == 711
    with pytest.raises(BudgetExceeded):
        ladder.extend()
    assert ladder.level == 4
    assert list(hilbert_dims_quadratic(x5, 6, budget=10 ** 4)) == [1, 10, 55, 220, 711]


def test_positional_steps_match_tuple_braiding():
    # entry p of _word_inverse_perms(j) undoes one braiding at position j-2-p
    for x, _ in _ladder_pool():
        n, nn = x.size, x.size ** 2
        ladder = SymmetrizerLadder(x)
        for j in (2, 3):
            for p, (lo, delta_inv, sgn) in enumerate(ladder._word_inverse_perms(j)):
                assert lo == n ** p
                assert sgn == x.sign ** (p + 1)
                for c in range(n ** j):
                    digits = tuple(c // n ** (j - 1 - i) % n for i in range(j))
                    image = sum(d * n ** (j - 1 - i) for i, d in enumerate(_apply_word(x, [j - 2 - p], digits)))
                    assert image + delta_inv[image // lo % nn] == c


def test_ker_s2_cycles_span_rref_kernel():
    pool = [flip_set(2), flip_set(3), flip_set(4),
            transposition_class(3), transposition_class(4), transposition_class(5),
            from_conjugacy_class(3, (2, 3, 1)),        # 3-cycles in S_3
            from_conjugacy_class(4, (2, 1, 4, 3)),     # double transpositions in S_4
            from_conjugacy_class(4, (2, 3, 4, 1))]     # 4-cycles in S_4
    for x in pool:
        cycles = _ker_s2_basis(x)
        rref = _ker_s2_basis_rref(x)
        assert len(cycles) == len(rref), x.label
        assert sparse_int_rank(cycles)[0] == len(cycles), x.label
        assert sparse_int_rank(rref)[0] == len(rref), x.label
        assert sparse_int_rank(cycles + rref)[0] == len(cycles), x.label


def test_x4_degree_8_matches_fomin_kirillov():
    dims = hilbert_dims(transposition_class(4), 8, budget=6 ** 8)
    assert dims.complete
    ref = [c.coeff(0) for c in fk_reference_series(4).t_coeff_list()[:9]]
    assert list(dims) == ref


def test_x4_is_complete_at_degree_12():
    """The Fomin-Kirillov algebra of X_4 has total dimension 576 and top degree 12, with a palindromic series."""
    dims = hilbert_dims(transposition_class(4), 12, budget=6 ** 12)
    assert dims.complete
    assert list(dims) == [c.coeff(0) for c in fk_reference_series(4).t_coeff_list()]
    assert dims.dims[12] == 1
    assert dims.dims == dims.dims[::-1]
    assert sum(dims) == 576


def test_x4_quadratic_degree_7_matches_fomin_kirillov():
    dims = hilbert_dims_quadratic(transposition_class(4), 7, budget=6 ** 7)
    assert dims.complete
    ref = [c.coeff(0) for c in fk_reference_series(4).t_coeff_list()[:8]]
    assert list(dims) == ref


def test_x5_degree_6_matches_fomin_kirillov():
    dims = hilbert_dims(transposition_class(5), 6, budget=10 ** 6)
    assert dims.complete
    ref = [c.coeff(0) for c in fk_reference_series(5).t_coeff_list()[:7]]
    assert list(dims) == ref


# -- the restricted ladder: kept rows, column words, the transpose lemma --------


def test_restricted_ladder_keeps_the_full_row_basis():
    """Eliminating S_j on K x X by L x X keeps the very rows the full candidates keep, at every level."""
    for x, top, _ in _block_pool():
        ladder = SymmetrizerLadder(x, budget=x.size ** top)
        oracle = _FullRowLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            assert ladder.extend() == oracle.extend(), (x.label, j)
            assert ladder.kept_rows() == oracle._basis, (x.label, j)


def test_one_copy_per_representative_matches_the_copying_ladder():
    """Reading each representative's one copy through g, and building kept rows a level late, changes nothing.

    At every level: the same dimension, the same column words over every
    block of every orbit, and the same kept rows once built.
    """
    pool = [(x, top) for x, top, _ in _block_pool()] + [
        (_tetrahedron_rack(), 10), (_affine_rack(5, 2), 8), (_affine_rack(5, 3), 8), (_affine_rack(7, 3), 6),
        (transposition_class(4), 9)]
    for x, top in pool:
        ladder = SymmetrizerLadder(x, budget=x.size ** top)
        oracle = _CopyLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            assert ladder.extend() == oracle.extend(), (x.label, j)
            assert _column_words(ladder) == _column_words(oracle), (x.label, j)
            assert _built_basis(ladder) == _built_basis(oracle), (x.label, j)
        assert ladder.dims == oracle.dims, x.label


def test_pivot_columns_match_the_two_pass_ladder(monkeypatch):
    """The row pass's pivots are the column words a second pass over M[K_j, :] picks; one rank call per block."""
    ranks, blocks = [], []
    rank = braided.sparse_int_rank
    block_bases = SymmetrizerLadder._block_bases
    monkeypatch.setattr(braided, "sparse_int_rank", lambda rows: ranks.append(1) or rank(rows))
    monkeypatch.setattr(SymmetrizerLadder, "_block_bases",
                        lambda self, *args: blocks.append(1) or block_bases(self, *args))
    pool = [(x, top) for x, top, _ in _block_pool()] + [
        (transposition_class(4), 10), (transposition_class(5), 5),
        (_tetrahedron_rack(), 10), (_affine_rack(5, 2), 8), (_affine_rack(5, 3), 8), (_affine_rack(7, 3), 6)]
    for x, top in pool:
        ladder = SymmetrizerLadder(x, budget=x.size ** top)
        oracle = _TwoPassLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            assert ladder.extend() == oracle.extend(), (x.label, j)
            assert _built_basis(ladder) == _built_basis(oracle), (x.label, j)
            assert len(ranks) == len(blocks) >= (ladder.dims[j - 1] > 0), (x.label, j)
            del ranks[:], blocks[:]


def test_column_words_are_independent_columns_of_the_bruteforce_symmetrizer():
    """Each level's column words are d_j columns of S_j of rank d_j, ranked block by block.

    Levels stop at n^j <= 4096 and j <= 5: the brute force sums j! words over n^j columns.
    """
    for x, top, _ in _block_pool():
        n = x.size
        ladder = SymmetrizerLadder(x, budget=n ** top)
        for j in range(1, min(top, 5) + 1):
            if n ** j > 4096:
                break
            ladder.dim(j)
            words = _column_words(ladder)
            assert len(words) == len(set(words)) == ladder.dims[j], (x.label, j)
            columns = {}  # column -> {row: entry}
            for (r, c), v in symmetrizer_matrix_bruteforce(x, j).items():
                columns.setdefault(c, {})[r] = v
            blocks = {}  # S_j is block-diagonal by label: rank each block's columns on their rows
            for v in words:
                label = ladder._blocks.identity
                for t in range(j):
                    label = _compose(label, x.left[v // n ** (j - 1 - t) % n])
                blocks.setdefault(label, []).append(columns.get(v, {}))
            rank = 0
            for cols in blocks.values():
                rows = sorted({r for col in cols for r in col})
                rank += _rank_bareiss([[col.get(r, 0) for r in rows] for col in cols])
            assert rank == ladder.dims[j], (x.label, j)


def _inverse_braided_set(x):
    """The braided set of Psi^-1, same sign."""
    n = x.size
    left, right = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c, d = x.apply(a, b)
            left[c][d], right[c][d] = a, b
    return BraidedSet(left, right, sign=x.sign, label=f"inverse of {x.label}")


def test_symmetrizer_transpose_is_the_symmetrizer_of_the_inverse():
    """S_j(Psi)^T = S_j(Psi^-1): why the columns L x X span the column space of S_j."""
    asymmetric = 0
    for x in _property_pool():
        inv = _inverse_braided_set(x)
        for j in range(1, 6):
            if x.size ** j > 4096:
                break
            s_j = symmetrizer_matrix_bruteforce(x, j)
            transposed = {(c, r): v for (r, c), v in s_j.items()}
            assert transposed == symmetrizer_matrix_bruteforce(inv, j), (x.label, j)
            asymmetric += transposed != s_j
    assert asymmetric  # S_2 of the 2-cycles in S_3 is not symmetric


# -- racks whose Nichols algebra is not quadratic -------------------------------


def _series_dims(series, top):
    coeffs = [int(c.coeff(0)) for c in series.t_coeff_list()]
    return (coeffs + [0] * (top + 1))[: top + 1]


def _brackets(*ms):
    acc = t_bracket(1)
    for m in ms:
        acc = acc * t_bracket(m)
    return acc


@pytest.mark.parametrize("x,series,top,differs", [
    # (1+t)^2 (1+t+t^2)^2 (1+t^3) = [2]^2 [3] [6], 72 in total: complete, so top = 10 reads a 0
    (_tetrahedron_rack(), _brackets(2, 2, 3, 6), 10, 6),
    (_affine_rack(5, 2), _brackets(4, 4, 4, 4, 5), 8, 4),
    (_affine_rack(5, 3), _brackets(4, 4, 4, 4, 5), 8, 4),
    (_affine_rack(7, 3), _brackets(6, 6, 6, 6, 6, 6, 7), 6, 6),
], ids=["tetrahedron", "Aff(5,2)", "Aff(5,3)", "Aff(7,3)"])
def test_rack_nichols_algebras_match_their_products_and_differ_from_the_quadratic_cover(x, series, top, differs):
    dims = hilbert_dims(x, top, budget=x.size ** top)
    assert dims.complete
    assert list(dims) == _series_dims(series, top), x.label
    quadratic = list(hilbert_dims_quadratic(x, differs, budget=x.size ** differs))
    assert quadratic[:differs] == list(dims)[:differs], x.label
    assert quadratic[differs] != list(dims)[differs], x.label
