from fractions import Fraction as F
from itertools import combinations_with_replacement, count, groupby, islice, permutations, repeat
from math import comb

import pytest

import qzeta.rmatrix as rmatrix
from qzeta import BudgetExceeded, QLaurent, QZetaError, RHat, q_binom_sym, q_int_sym, quantum_trace_sym, sym_subspace_dims
from qzeta.linalg import _intersect_step, _relabel, _word_tables, sparse_int_rank
from qzeta.rmatrix import _check_order_invariant, _compositions, _sym_levels, trace_of_blocks


def test_diagonal_action():
    r = RHat(2)
    assert r.columns[(0, 0)] == {(0, 0): QLaurent({1: 1})}
    assert r.columns[(1, 1)] == {(1, 1): QLaurent({1: 1})}


def test_eigenvectors_n2():
    # symmetric: e12 + q e21 (eigenvalue q); antisymmetric: e12 - q^-1 e21 (eigenvalue -q^-1)
    r = RHat(2)
    sym = {(0, 1): QLaurent({0: 1}), (1, 0): QLaurent({1: 1})}
    got = r.apply_pair(sym)
    assert got == {k: v * QLaurent({1: 1}) for k, v in sym.items()}
    anti = {(0, 1): QLaurent({0: 1}), (1, 0): QLaurent({-1: -1})}
    got = r.apply_pair(anti)
    assert got == {k: v * QLaurent({-1: -1}) for k, v in anti.items()}


def test_classical_limit_is_flip():
    r = RHat(3)
    for pair, col in r.columns.items():
        classical = {target: c.eval_at(F(1)) for target, c in col.items()}
        classical = {t: c for t, c in classical.items() if c}
        assert classical == {(pair[1], pair[0]): 1}


def test_relations_verified_at_construction():
    # would raise QZetaError inside the constructor if either relation failed
    for n in (2, 3, 4):
        RHat(n)


def test_corrupted_rhat_fails_both_relations():
    r = RHat(3)
    # q in place of q - q^-1 on the diagonal of one column with i > j
    r.columns[(2, 0)] = {(0, 2): QLaurent.one(), (2, 0): QLaurent({1: 1})}
    with pytest.raises(QZetaError, match="Hecke"):
        r._verify_hecke()
    with pytest.raises(QZetaError, match="braid"):
        r._verify_braid()


def test_block_dims_n2():
    blocks = dict(sym_subspace_dims(2, 2))
    assert blocks == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    blocks3 = sym_subspace_dims(2, 3)
    assert sum(k for _, k in blocks3) == 4
    assert all(k == 1 for _, k in blocks3)


def test_j0_and_j1():
    assert quantum_trace_sym(3, 0) == QLaurent({0: 1})
    assert quantum_trace_sym(3, 1) == q_int_sym(3)
    assert sum(k for _, k in sym_subspace_dims(4, 1)) == 4


def test_quantum_trace_small():
    assert quantum_trace_sym(2, 2) == q_int_sym(3)
    assert quantum_trace_sym(3, 2) == q_binom_sym(4, 2)


def test_trace_classical_specialization():
    from math import comb

    for j in range(5):
        assert quantum_trace_sym(3, j).eval_at(F(1)) == comb(3 + j - 1, j)


def test_budget():
    with pytest.raises(BudgetExceeded):
        sym_subspace_dims(5, 2)
    with pytest.raises(BudgetExceeded):
        quantum_trace_sym(2, 6)


def test_trace_at_j0_checks_budget():
    # j = 0 takes the same budget check as sym_subspace_dims(9, 0)
    with pytest.raises(BudgetExceeded):
        quantum_trace_sym(9, 0)
    assert quantum_trace_sym(3, 0) == 1


def test_negative_j_is_a_value_error_before_the_budget_check():
    for call in (sym_subspace_dims, quantum_trace_sym):
        with pytest.raises(ValueError, match="j must be non-negative"):
            call(3, -1)
        with pytest.raises(ValueError, match="j must be non-negative"):
            call(9, -1)              # out of budget in n, still the j error


def test_integral_floats_count_and_other_values_are_value_errors():
    # 2.0 and 3.0 raised TypeError from range(); 2.5 and -1 must be ValueErrors
    for call in (sym_subspace_dims, quantum_trace_sym):
        assert call(3, 2.0) == call(3.0, 2) == call(3, 2)
        for bad in (2.5, -1):
            with pytest.raises(ValueError, match="j must be"):
                call(3, bad)
            with pytest.raises(ValueError, match="n must be"):
                call(bad, 2)
    assert RHat(2.0).columns == RHat(2).columns and type(RHat(2.0).n) is int
    for bad in (2.5, -1):
        with pytest.raises(ValueError, match="n must be"):
            RHat(bad)


@pytest.mark.parametrize("n, j", [(5, 5), (4, 6), (3, 7), (5, 6), (6, 5), (7, 5), (6, 6), (7, 7), (8, 7)])
def test_sym_power_theorem_beyond_criterion_range(n, j):
    # crit 04 checks n <= 4, j <= 5 under the default cap (4, 5); the same
    # generic route with the budget raised, up to C^8
    blocks = sym_subspace_dims(n, j, budget=(n, j))
    assert len(blocks) == comb(n + j - 1, j)
    assert all(k == 1 for _, k in blocks)
    assert trace_of_blocks(n, blocks) == q_binom_sym(n + j - 1, j)


def test_criterion_04_builds_each_level_once(monkeypatch):
    # one _intersect_step per composition of j with at most n parts, for
    # levels j = 2..5 and n = 2..4: 67 blocks, where one per content block
    # (the by-content route) built 191
    import qzeta.rmatrix as rmatrix
    from qzeta.verify import crit_04_rmatrix_oracle

    real, built = rmatrix._intersect_step, []
    monkeypatch.setattr(rmatrix, "_intersect_step", lambda *args: built.append(1) or real(*args))
    crit_04_rmatrix_oracle()
    compositions = sum(comb(j - 1, k - 1) for n in range(2, 5) for j in range(2, 6) for k in range(1, n + 1))
    assert len(built) == compositions == 67


# -- oracle: the blocks over Q(q), the route the bound at q0 and the witness replaced --


def _sym_levels_over_qq(r):
    """Yield the (content, kernel dimension) blocks of Sym_j, each composition's block a kernel over Q(q).

    The same walk as ``_sym_levels``, one ``_intersect_step`` per
    composition on its parts' relabelled bases, with R-hat - q id in
    QLaurent entries: every dimension is the rank of an elimination over
    Q(q), with no integer point and no witness.
    """
    n = r.n
    _check_order_invariant(r)
    shifted = []  # pair a n + b -> [(pair, entry)] of the column of R-hat - q id
    for a in range(n):
        for b in range(n):
            col = dict(r.columns[(a, b)])
            col[(a, b)] = col.get((a, b), QLaurent()) - QLaurent({1: 1})
            shifted.append([(a2 * n + b2, c) for (a2, b2), c in col.items() if c])
    yield [((), 1)]
    basis = {(1,): [{0: QLaurent.one()}]}
    for level in count(2):
        yield [(content, len(basis[tuple(len(list(run)) for _, run in groupby(content))]))
               for content in combinations_with_replacement(range(n), level - 1)]
        below, basis = basis, {}
        for comp in _compositions(level, n):
            parts = []
            for x, m in enumerate(comp):
                if m > 1:
                    rows = below[comp[:x] + (m - 1,) + comp[x + 1:]]
                else:
                    rows = below[comp[:x] + comp[x + 1:]]
                    if x < len(comp) - 1:
                        tables = _word_tables((*range(x), *range(x + 1, n), x), level - 1)
                        rows = map(_relabel, rows, repeat(tables))
                parts.append((rows, (x,)))
            basis[comp] = _intersect_step(parts, n, shifted, n * n)


def test_blocks_at_q0_with_witnesses_match_the_blocks_over_qq():
    for n in range(2, 5):
        got = list(islice(_sym_levels(RHat(n)), 6))
        assert repr(got) == repr(list(islice(_sym_levels_over_qq(RHat(n)), 6))), n
        for j in range(6):
            assert repr(sym_subspace_dims(n, j)) == repr(got[j]), (n, j)
            assert repr(quantum_trace_sym(n, j)) == repr(trace_of_blocks(n, got[j])), (n, j)
    for n, j in ((6, 6), (7, 7), (8, 7)):
        oracle = next(islice(_sym_levels_over_qq(RHat(n)), j, None))
        assert repr(sym_subspace_dims(n, j, budget=(n, j))) == repr(oracle), (n, j)
        assert repr(quantum_trace_sym(n, j, budget=(n, j))) == repr(trace_of_blocks(n, oracle)), (n, j)


def test_a_corrupted_witness_exponent_is_refused(monkeypatch):
    # the witness of composition (1, 2) is e_011 + q e_101 + q^2 e_110; one
    # exponent moved on a word whose last two letters differ breaks its last slot
    real, seen = rmatrix._check_witness, []

    def corrupting(witness, exact, n, comp):
        seen.append(comp)
        real(witness, exact, n, comp)
        if comp == (1, 2):
            column = next(c for c in witness if c // n % n != c % n)
            real({**witness, column: witness[column] + 1}, exact, n, comp)

    monkeypatch.setattr(rmatrix, "_check_witness", corrupting)
    with pytest.raises(QZetaError, match=r"witness of composition \(1, 2\) .*q0 = 3"):
        list(islice(_sym_levels(RHat(3)), 5))
    assert seen == [(2,), (1, 1), (3,), (1, 2)]  # every block's true witness passed before it


def _every_column_of_pattern(r, pattern, column):
    """r with every column of the order pattern (0, 1) (a < b) or (1, 0) (a > b) replaced, as order invariance needs."""
    for (a, b) in r.columns:
        if (a < b) == (pattern == (0, 1)) and a != b:
            letter = {0: min(a, b), 1: max(a, b)}
            r.columns[(a, b)] = {(letter[x], letter[y]): c for (x, y), c in column.items()}
    return r


def test_a_corrupted_rhat_column_is_refused():
    q, qinv = QLaurent({1: 1}), QLaurent({-1: 1})
    # the a > b columns with q - 2 q^-1 for q - q^-1: the pair blocks have no kernel,
    # so the bound at q0 is 0
    r = _every_column_of_pattern(RHat(3), (1, 0), {(0, 1): QLaurent.one(), (1, 0): q - qinv - qinv})
    assert [k for _, k in next(islice(_sym_levels_over_qq(r), 2, None))] == [1, 0, 0, 1, 0, 1]
    with pytest.raises(QZetaError, match=r"composition \(1, 1\) has kernel dimension 0 at q0 = 3"):
        list(islice(_sym_levels(r), 3))
    # the a < b columns with (1 - q^-1) e_ba + e_ab for e_ba: the pair blocks keep a
    # kernel, e_ab + (q - 1) e_ba, so the bound is 1 and the witness e_ab + q e_ba fails
    r = _every_column_of_pattern(RHat(3), (0, 1), {(1, 0): QLaurent.one() - qinv, (0, 1): QLaurent.one()})
    assert [k for _, k in next(islice(_sym_levels_over_qq(r), 2, None))] == [1] * 6
    with pytest.raises(QZetaError, match=r"witness of composition \(1, 1\) .*q0 = 3"):
        list(islice(_sym_levels(r), 3))
    # an entry that q does not carry into Z[q] is refused before any block
    r = _every_column_of_pattern(RHat(3), (1, 0), {(0, 1): QLaurent.one(), (1, 0): q - qinv * qinv})
    with pytest.raises(QZetaError, match=r"not in Z\[q\]"):
        next(_sym_levels(r))


# -- oracle: one block per content, the route the per-composition blocks replaced --


def _sym_levels_by_content(r):
    """Yield the (content, kernel dimension) blocks of Sym_j, each content's block built on its own.

    Block mu of level j is ``_intersect_step`` on the candidates
    Sym_(j-1)[mu - e_x] (x) e_x for the distinct letters x of mu, so no block
    is read for another content and no symmetry of R-hat is assumed.
    """
    n = r.n
    shifted = []
    for a in range(n):
        for b in range(n):
            col = dict(r.columns[(a, b)])
            col[(a, b)] = col.get((a, b), QLaurent()) - QLaurent({1: 1})
            shifted.append([(a2 * n + b2, c) for (a2, b2), c in col.items() if c])
    yield [((), 1)]
    basis = {(x,): [{x: QLaurent.one()}] for x in range(n)}
    for level in count(2):
        yield [(content, len(vectors)) for content, vectors in basis.items()]
        below, basis = basis, {}
        for content in combinations_with_replacement(range(n), level):
            parts = []
            for x in sorted(set(content)):
                k = content.index(x)
                parts.append((below[content[:k] + content[k + 1:]], (x,)))
            basis[content] = _intersect_step(parts, n, shifted, n * n)


def test_blocks_per_composition_match_blocks_per_content():
    for n in range(2, 7):
        got = list(islice(_sym_levels(RHat(n)), 7))
        assert repr(got) == repr(list(islice(_sym_levels_by_content(RHat(n)), 7))), n
        assert repr(got[6]) == repr(sym_subspace_dims(n, 6, budget=(n, 6)))


def test_rhat_that_is_not_order_invariant_is_refused():
    # the altered column still keeps content, so the by-content route reads
    # dimensions off it; one block per composition would be wrong, so it refuses
    r = RHat(3)
    r.columns[(0, 2)] = {(2, 0): QLaurent({0: 2})}
    assert len(list(islice(_sym_levels_by_content(r), 4))) == 4
    with pytest.raises(QZetaError, match=r"column \(0, 2\)"):
        next(_sym_levels(r))
    # a column that leaves its content is refused too
    r = RHat(3)
    r.columns[(0, 1)] = {(1, 0): QLaurent.one(), (0, 0): QLaurent.one()}
    with pytest.raises(QZetaError, match=r"column \(0, 1\)"):
        next(_sym_levels(r))


# -- oracle: the stacked-constraint route the recursion replaced ----------------


def _sym_subspace_dims_stacked(n, j, r=None):
    """Per content block, block dimension minus the rank of all j-1 slots' constraint rows.

    A block's constraint rows for slot i are the transpose of the columns of
    R-hat - q id spliced into tensor slots (i, i+1) of every tuple of the
    block, all ranked at once over Q(q) by sparse_int_rank.
    """
    if r is None:
        r = RHat(n)
    if j == 0:
        return [((), 1)]
    shifted = {}
    for pair, col in r.columns.items():
        col = dict(col)
        col[pair] = col.get(pair, QLaurent()) - QLaurent({1: 1})
        shifted[pair] = [(target, c) for target, c in col.items() if c]
    out = []
    for content in combinations_with_replacement(range(n), j):
        block = sorted(set(permutations(content)))
        index = {tup: k for k, tup in enumerate(block)}
        rows = []
        for slot in range(j - 1):
            transposed: dict[int, dict] = {}
            for k, tup in enumerate(block):
                head, tail = tup[:slot], tup[slot + 2:]
                for target, c in shifted[tup[slot:slot + 2]]:
                    transposed.setdefault(index[head + target + tail], {})[k] = c
            rows.extend(transposed.values())
        out.append((content, len(block) - sparse_int_rank(rows)[0]))
    return out


def test_recursion_matches_stacked_constraints_block_by_block():
    for n in range(2, 5):
        for j in range(6):
            assert sym_subspace_dims(n, j) == _sym_subspace_dims_stacked(n, j), (n, j)


def test_recursion_computes_blocks_of_any_dimension():
    # crit 04's "every block is 1-dim" must be found, not assumed: with q id in
    # place of R-hat every block is all of its kernel, and with R-hat + q^-1 + q
    # the kernel is the antisymmetric eigenspace, whose repeated-index blocks are 0;
    # the Q(q) recursion computes them, and the route at q0 refuses them
    q, qinv = QLaurent({1: 1}), QLaurent({-1: 1})
    scalar, antisym = RHat(3), RHat(3)
    for pair, col in antisym.columns.items():
        scalar.columns[pair] = {pair: q}
        col = dict(col)
        col[pair] = col.get(pair, QLaurent()) + q + qinv
        antisym.columns[pair] = {t: c for t, c in col.items() if c}
    for r in (scalar, antisym):
        with pytest.raises(QZetaError, match="q0 = 3"):
            list(islice(_sym_levels(r), 3))
    for j, blocks, oracle in zip(range(5), _sym_levels_over_qq(scalar), _sym_levels_by_content(scalar)):
        assert blocks == _sym_subspace_dims_stacked(3, j, r=scalar), j
        assert repr(blocks) == repr(oracle), j
        assert [k for _, k in blocks] == [len(set(permutations(content))) for content, _ in blocks]
    for j, blocks, oracle in zip(range(5), _sym_levels_over_qq(antisym), _sym_levels_by_content(antisym)):
        assert blocks == _sym_subspace_dims_stacked(3, j, r=antisym), j
        assert repr(blocks) == repr(oracle), j
        assert [k for _, k in blocks] == [int(len(set(content)) == j) for content, _ in blocks]
