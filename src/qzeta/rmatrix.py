"""Fundamental R-matrix oracle for U_q(sl_n).

The braiding R-hat on C^n (x) C^n, normalized so the symmetric eigenvalue
is q and the antisymmetric one is -q^-1, gives an independent route to the
symmetric q-binomial: cut out the joint q-eigenspace of all adjacent
braidings on n^j tensor factors and take the quantum trace against
K_2rho = diag(q^(n-1), q^(n-3), ..., q^(1-n)).

R-hat preserves the multiset of tensor indices, so everything is done
blockwise by content, which also makes the quantum trace a weighted count
of block kernel dimensions.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from .errors import BudgetExceeded, QZetaError
from .linalg import sparse_qlaurent_rank
from .qlaurent import QLaurent

_Q = QLaurent({1: 1})
_QINV = QLaurent({-1: 1})
_Q_MINUS_QINV = QLaurent({1: 1, -1: -1})


class RHat:
    """The braiding matrix on basis pairs e_i (x) e_j, verified at construction."""

    __slots__ = ("n", "columns")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        cols = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    cols[(i, j)] = {(i, j): _Q}
                elif i < j:
                    cols[(i, j)] = {(j, i): QLaurent.one()}
                else:
                    cols[(i, j)] = {(j, i): QLaurent.one(), (i, j): _Q_MINUS_QINV}
        self.columns = cols
        self._verify_hecke()
        self._verify_braid()

    def apply_pair(self, vec: dict) -> dict:
        """Apply to a sparse vector {(i, j): QLaurent}."""
        return self._apply_slot(vec, 0)

    def _verify_hecke(self):
        """(R - q)(R + q^-1) = 0, i.e. R^2 = (q - q^-1) R + id."""
        for i in range(self.n):
            for j in range(self.n):
                start = {(i, j): QLaurent.one()}
                lhs = self.apply_pair(self.apply_pair(start))
                rhs = {k: v * _Q_MINUS_QINV for k, v in self.apply_pair(start).items()}
                rhs[(i, j)] = rhs.get((i, j), QLaurent()) + QLaurent.one()
                rhs = {k: v for k, v in rhs.items() if not v.is_zero}
                if lhs != rhs:
                    raise QZetaError(f"Hecke relation fails at basis pair {(i, j)}")

    def _apply_slot(self, vec: dict, slot: int) -> dict:
        """Apply R-hat in tensor slots (slot, slot+1) of sparse tuple-vectors."""
        out = {}
        for tup, coeff in vec.items():
            pair = (tup[slot], tup[slot + 1])
            for (a, b), c in self.columns[pair].items():
                target = tup[:slot] + (a, b) + tup[slot + 2:]
                acc = out.get(target, QLaurent()) + coeff * c
                if acc.is_zero:
                    out.pop(target, None)
                else:
                    out[target] = acc
        return out

    def _verify_braid(self):
        """R1 R2 R1 = R2 R1 R2 on all n^3 basis tensors."""
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = {(i, j, k): QLaurent.one()}
                    lhs = self._apply_slot(self._apply_slot(self._apply_slot(v, 0), 1), 0)
                    rhs = self._apply_slot(self._apply_slot(self._apply_slot(v, 1), 0), 1)
                    if lhs != rhs:
                        raise QZetaError(f"braid relation fails at {(i, j, k)}")


def rhat(n: int) -> RHat:
    return RHat(n)


def _check_budget(n: int, j: int, budget):
    max_n, max_j = budget
    if n > max_n or j > max_j:
        raise BudgetExceeded(f"R-matrix budget is n <= {max_n}, j <= {max_j}; got ({n}, {j})")


def sym_subspace_dims(n: int, j: int, budget=(4, 5), r: RHat | None = None):
    """Per content block, the dimension over Q(q) of the joint q-eigenspace.

    For each multiset of indices, the block spanned by its permutations is
    preserved by every adjacent braiding; the symmetric subspace is the
    intersection of ker(R_i - q id) over i, computed as block dimension
    minus the rank of the stacked constraint rows.

    The column of R-hat - q id at each basis pair is formed once per call,
    with its zero entries dropped; a block's constraint rows for slot i are
    the transpose of those columns spliced into tensor slots (i, i+1) of
    every tuple of the block.  Every block is eliminated over Q(q) by
    ``sparse_qlaurent_rank``.
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    _check_budget(n, j, budget)
    if r is None:
        r = RHat(n)
    if j == 0:
        return [((), 1)]
    shifted = {}
    for pair, col in r.columns.items():
        col = dict(col)
        col[pair] = col.get(pair, QLaurent()) - _Q
        shifted[pair] = [(target, c) for target, c in col.items() if c]
    out = []
    for content in combinations_with_replacement(range(n), j):
        block = sorted(set(permutations(content)))
        index = {tup: k for k, tup in enumerate(block)}
        rows = []
        for slot in range(j - 1):
            # transpose the column action of (R_slot - q id) restricted to the block
            transposed: dict[int, dict] = {}
            for k, tup in enumerate(block):
                head, tail = tup[:slot], tup[slot + 2:]
                for target, c in shifted[tup[slot:slot + 2]]:
                    transposed.setdefault(index[head + target + tail], {})[k] = c
            rows.extend(transposed.values())
        rank = sparse_qlaurent_rank(rows)
        out.append((content, len(block) - rank))
    return out


def quantum_trace_sym(n: int, j: int, budget=(4, 5), r: RHat | None = None) -> QLaurent:
    """Trace of K_2rho^(x j) on the symmetric subspace, summed over content blocks.

    K_2rho is diagonal with entry q^(n+1-2i) on the i-th basis vector
    (1-based), hence constant on each block.
    """
    return trace_of_blocks(n, sym_subspace_dims(n, j, budget=budget, r=r))


def trace_of_blocks(n: int, blocks) -> QLaurent:
    """Trace of K_2rho over (content, kernel dimension) blocks of sym_subspace_dims(n, j)."""
    acc = QLaurent()
    for content, kdim in blocks:
        if kdim:
            weight = sum(n - 1 - 2 * a for a in content)
            acc = acc + QLaurent({weight: kdim})
    return acc
