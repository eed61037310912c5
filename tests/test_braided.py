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
    _apply_word,
    _compose,
    _inverse,
    _ker_s2_basis,
    _pair_map,
    _ProductBlocks,
    symmetrizer_matrix_bruteforce,
    symmetrizer_matrix_recursive,
)
from qzeta.linalg import sparse_int_rank
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


def test_recursion_equals_bruteforce():
    pool = [flip_set(2), flip_set(3), transposition_class(3),
            from_conjugacy_class(3, (2, 3, 1)), from_conjugacy_class(4, (2, 1, 4, 3))]
    for x in pool:
        for j in (0, 1, 2, 3):
            assert symmetrizer_matrix_recursive(x, j) == symmetrizer_matrix_bruteforce(x, j)
    for fn in (symmetrizer_matrix_recursive, symmetrizer_matrix_bruteforce):
        with pytest.raises(ValueError):
            fn(flip_set(2), -1)


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


class _FullRowLadder(SymmetrizerLadder):
    """The block ladder before the restriction: every candidate row of S_j built in full and eliminated."""

    def __init__(self, x, budget):
        super().__init__(x, budget)
        self._basis = self._blocks.first()

    def extend(self):
        j = self.level + 1
        n = self.x.size
        if n ** j > self.budget:
            raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {self.budget}")
        steps = self._word_inverse_perms(j)

        def kept(parts):
            return sparse_int_rank(self._candidate_rows(steps, parts))[1]

        rank, self._basis = self._blocks.level(self._basis, j - 1, kept)
        self.dims.append(rank)
        return rank


class _TwoPassLadder(SymmetrizerLadder):
    """The restricted ladder with its column words picked by a second elimination, over the columns of M[K_j, :]."""

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


def _kept_rows(ladder):
    """{representative: kept rows} of a restricted ladder, its column words left out."""
    return {rep: rows for rep, (rows, _) in ladder._basis.items()}


def _column_words(ladder):
    """Every kept column word of the current level, over every block of every orbit."""
    blocks, cache = ladder._blocks, {}
    return [
        v
        for rep in ladder._basis
        for label, _ in blocks.members(rep)
        for v in blocks.rows(ladder._basis, label, ladder.level, cache)[1]
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
                assert _kept_rows(blocks) == {tuple(range(x.size)): oracle._basis}, (x.label, j)
        assert blocks.dims == oracle.dims, x.label


def test_block_quadratic_matches_ungraded():
    for x, _, top in _block_pool():
        assert list(hilbert_dims_quadratic(x, top)) == _hilbert_dims_quadratic_ungraded(x, top), x.label


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
            for rep, (rows, cols) in ladder._basis.items():
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
            assert _kept_rows(ladder) == oracle._basis, (x.label, j)


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
            assert ladder._basis == oracle._basis, (x.label, j)
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
