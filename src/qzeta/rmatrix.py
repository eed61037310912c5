"""Fundamental R-matrix oracle for U_q(sl_n).

The braiding R-hat on C^n (x) C^n, normalized so the symmetric eigenvalue
is q and the antisymmetric one is -q^-1, gives an independent route to the
symmetric q-binomial: cut out the joint q-eigenspace of all adjacent
braidings on n^j tensor factors and take the quantum trace against
K_2rho = diag(q^(n-1), q^(n-3), ..., q^(1-n)).

R-hat preserves the multiset of tensor indices, so everything is done
blockwise by content, which also makes the quantum trace a weighted count
of block kernel dimensions.  The eigenspace grows one tensor factor at a
time: block mu of level j is a kernel on candidates from the blocks mu - e_x.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, count, islice

from .errors import BudgetExceeded, QZetaError
from .linalg import _intersect_step
from .qlaurent import QLaurent, _degree

_Q = QLaurent({1: 1})
_Q_MINUS_QINV = QLaurent({1: 1, -1: -1})


class RHat:
    """The braiding matrix on basis pairs e_i (x) e_j, verified at construction."""

    __slots__ = ("n", "columns")

    def __init__(self, n: int):
        self.n = n = _degree(n, "n", 2)
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


def _check_budget(n: int, j: int, budget):
    """BudgetExceeded unless n <= max n and j <= max j; budget is the pair (max n, max j) of integers."""
    try:
        max_n, max_j = budget
    except (TypeError, ValueError):
        raise ValueError(f"budget must be a pair (max n, max j), got {budget!r}") from None
    max_n, max_j = _degree(max_n, "budget max n"), _degree(max_j, "budget max j")
    if n > max_n or j > max_j:
        raise BudgetExceeded(f"R-matrix budget is n <= {max_n}, j <= {max_j}; got ({n}, {j})")


def sym_subspace_dims(n: int, j: int, budget=(4, 5)):
    """Per content block, the dimension over Q(q) of the joint q-eigenspace.

    Sym_j, the intersection of the ker(R_i - q id), is (Sym_(j-1) (x) V)
    intersected with V^(x j-2) (x) ker(R - q id), and R-hat keeps content:
    block mu of Sym_j is the part of the sum of Sym_(j-1)[mu - e_x] (x) e_x
    that R-hat - q id in the last two slots sends to 0 (``_intersect_step``
    over Q(q)).  Block bases are sparse {base-n column: QLaurent} vectors and
    every dimension is counted, never assumed.  Level j is taken from
    ``_sym_levels(RHat(n))``.
    """
    n, j = _degree(n, "n", 2), _degree(j)
    _check_budget(n, j, budget)
    return next(islice(_sym_levels(RHat(n)), j, None))


def _sym_levels(r: RHat):
    """Yield the (content, kernel dimension) blocks of Sym_j for j = 0, 1, 2, ...

    Each level's block bases are built once, from the level before, so a
    caller that needs every j up to some bound walks this generator instead
    of calling ``sym_subspace_dims`` once per j.
    """
    n = r.n
    shifted = []  # pair a n + b -> [(pair, entry)] of the column of R-hat - q id
    for a in range(n):
        for b in range(n):
            col = dict(r.columns[(a, b)])
            col[(a, b)] = col.get((a, b), QLaurent()) - _Q
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


def quantum_trace_sym(n: int, j: int, budget=(4, 5)) -> QLaurent:
    """Trace of K_2rho^(x j) on the symmetric subspace, summed over content blocks.

    K_2rho is diagonal with entry q^(n+1-2i) on the i-th basis vector
    (1-based), hence constant on each block.
    """
    return trace_of_blocks(n, sym_subspace_dims(n, j, budget=budget))


def trace_of_blocks(n: int, blocks) -> QLaurent:
    """Trace of K_2rho over (content, kernel dimension) blocks of sym_subspace_dims(n, j)."""
    n = _degree(n, "n", 2)
    acc = QLaurent()
    for content, kdim in blocks:
        if kdim:
            weight = sum(n - 1 - 2 * a for a in content)
            acc = acc + QLaurent({weight: kdim})
    return acc
