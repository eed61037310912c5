from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest

from qzeta import BudgetExceeded, QLaurent, QZetaError, RHat, q_binom_sym, q_int_sym, quantum_trace_sym, sym_subspace_dims
from qzeta.linalg import sparse_int_rank
from qzeta.rmatrix import _check_budget, trace_of_blocks


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

    r = RHat(3)
    for j in range(5):
        assert quantum_trace_sym(3, j, r=r).eval_at(F(1)) == comb(3 + j - 1, j)


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


def test_r_matrix_of_another_dimension_is_a_value_error():
    # an RHat(2) has no columns for the letter 2 of C^3: it used to raise a bare KeyError
    for call in (sym_subspace_dims, quantum_trace_sym):
        for j in (0, 2):
            with pytest.raises(ValueError, match="R-matrix of C\\^2, not of C\\^3"):
                call(3, j, r=RHat(2))
    assert sym_subspace_dims(3, 2, r=RHat(3)) == sym_subspace_dims(3, 2)


@pytest.mark.parametrize("n, j", [(5, 5), (4, 6), (3, 7), (5, 6), (6, 5), (7, 5)])
def test_sym_power_theorem_beyond_criterion_range(n, j):
    # crit 04 checks n <= 4, j <= 5 under the default cap (4, 5); the same
    # generic route with the budget raised, up to C^7
    blocks = sym_subspace_dims(n, j, budget=(n, j))
    assert len(blocks) == comb(n + j - 1, j)
    assert all(k == 1 for _, k in blocks)
    assert trace_of_blocks(n, blocks) == q_binom_sym(n + j - 1, j)


# -- oracle: the stacked-constraint route the recursion replaced ----------------


def _sym_subspace_dims_stacked(n, j, budget=(4, 5), r=None):
    """Per content block, block dimension minus the rank of all j-1 slots' constraint rows.

    A block's constraint rows for slot i are the transpose of the columns of
    R-hat - q id spliced into tensor slots (i, i+1) of every tuple of the
    block, all ranked at once over Q(q) by sparse_int_rank.
    """
    _check_budget(n, j, budget)
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
        r = RHat(n)
        for j in range(6):
            assert sym_subspace_dims(n, j, r=r) == _sym_subspace_dims_stacked(n, j, r=r), (n, j)


def test_recursion_computes_blocks_of_any_dimension():
    # crit 04's "every block is 1-dim" must be found, not assumed: with q id in
    # place of R-hat every block is all of its kernel, and with R-hat + q^-1 + q
    # the kernel is the antisymmetric eigenspace, whose repeated-index blocks are 0
    q, qinv = QLaurent({1: 1}), QLaurent({-1: 1})
    scalar, antisym = RHat(3), RHat(3)
    for pair, col in antisym.columns.items():
        scalar.columns[pair] = {pair: q}
        col = dict(col)
        col[pair] = col.get(pair, QLaurent()) + q + qinv
        antisym.columns[pair] = {t: c for t, c in col.items() if c}
    for j in range(5):
        blocks = sym_subspace_dims(3, j, r=scalar)
        assert blocks == _sym_subspace_dims_stacked(3, j, r=scalar), j
        assert [k for _, k in blocks] == [len(set(permutations(content))) for content, _ in blocks]
        blocks = sym_subspace_dims(3, j, r=antisym)
        assert blocks == _sym_subspace_dims_stacked(3, j, r=antisym), j
        assert [k for _, k in blocks] == [int(len(set(content)) == j) for content, _ in blocks]
