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

R-hat's column at (a, b) depends only on whether a <, = or > b, so an
order-preserving relabelling of the letters carries one block's kernel onto
another's: the block of a content depends only on its composition, the
multiplicities of its distinct letters in increasing order.  One block is
built per composition (m_1, ..., m_k), k <= n, on the letters 0..k-1, and
read for every content with that composition.  ``_sym_levels`` checks that
symmetry on the columns before it relies on it.

No elimination runs over Q(q).  q (R-hat - q id) has its entries in Z[q],
so each block is bounded above by its kernel over Z at the integer point
q = _Q0 (a kernel over Q(q) can only grow under specialization, Schwartz,
J. ACM 1980), and below by the exact witness sum_w q^inv(w) e_w over the
words w of the content (Jimbo, Lett. Math. Phys. 11, 1986), checked over
Z[q].  A bound of 1 met by its witness is a dimension of 1; anything else
raises QZetaError.  The tests keep the elimination over Q(q) as the oracle.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, count, islice, repeat

from .errors import BudgetExceeded, QZetaError
from .linalg import _intersect_step, _relabel, _word_tables
from .qlaurent import QLaurent, _degree

_Q = QLaurent({1: 1})
# The integer point at which _sym_levels bounds each Sym_j block.  Any integer
# q0 >= 2 bounds R-hat's blocks by 1, since the q-symmetrizer needs only
# [k]_(q^2) != 0, true off the roots of unity; a small q0 keeps the integers
# small (at (5, 9), q0 = 1000003 takes a fifth more time and memory than 3).
_Q0 = 3
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
                rhs[(i, j)] = rhs[(i, j)] + 1 if (i, j) in rhs else QLaurent.one()
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
                term = coeff * c
                out[target] = out[target] + term if target in out else term
        return {t: v for t, v in out.items() if v}

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
    that R-hat - q id in the last two slots sends to 0.  R-hat is invariant
    under order-preserving relabelling of the letters (checked on its
    columns), so contents with one composition share one block, built once
    on the letters 0..k-1.  Each block is bounded above by its kernel over
    Z at q = _Q0 (``_intersect_step``) and met below by the exact witness
    sum_w q^inv(w) e_w, so every dimension is certified, never assumed; a
    block the two do not pin to 1 raises QZetaError.  Level j is taken from
    ``_sym_levels(RHat(n))``.
    """
    n, j = _degree(n, "n", 2), _degree(j)
    _check_budget(n, j, budget)
    return next(islice(_sym_levels(RHat(n)), j, None))


def _check_order_invariant(r: RHat):
    """QZetaError unless each column of r is the column of its order pattern, relabelled.

    The patterns are (0, 0), (0, 1) and (1, 0), for a = b, a < b and a > b;
    the column at (a, b) must be its pattern's column with the pattern's
    letters sent to a and b, and every target must be (a, b) or (b, a), so
    R-hat keeps content.  n^2 columns of at most two entries each.
    """
    for a in range(r.n):
        for b in range(r.n):
            pattern = (0, 0) if a == b else (0, 1) if a < b else (1, 0)
            letter = {pattern[0]: a, pattern[1]: b}
            want = {(letter.get(x), letter.get(y)): c for (x, y), c in r.columns[pattern].items()}
            if r.columns[(a, b)] != want or not want.keys() <= {(a, b), (b, a)}:
                raise QZetaError(f"R-hat column {(a, b)} is not its order pattern's column relabelled")


def _compositions(j: int, n: int):
    """Every composition of j >= 1 with at most n parts."""
    for k in range(1, min(j, n) + 1):
        for cuts in combinations(range(1, j), k - 1):
            bounds = (0, *cuts, j)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _pair_maps(r: RHat):
    """The columns of q (R-hat - q id), by pair a n + b: exactly over Z[q], and evaluated at q = _Q0.

    ``exact[a n + b]`` is [(a' n + b', ((e, c), ...))], the entry sum c q^e
    at pair a' n + b'; ``at_q0[a n + b]`` is [(a' n + b', value at _Q0)],
    zero values dropped, the pair map ``_intersect_step`` reads over Z.
    Raises QZetaError if an entry times q is not in Z[q]: an exponent that
    is negative or not an integer, or a coefficient that is not an integer.
    """
    n = r.n
    exact, at_q0 = [], []
    for a in range(n):
        for b in range(n):
            col = dict(r.columns[(a, b)])
            col[(a, b)] = col.get((a, b), QLaurent()) - _Q
            terms = []
            for (a2, b2), c in col.items():
                poly = tuple((c * _Q).items())
                if any(type(e) is not int or e < 0 or type(k) is not int for e, k in poly):
                    raise QZetaError(f"q (R-hat - q id) at {(a2, b2)} of column {(a, b)} is not in Z[q]: {c * _Q}")
                if poly:
                    terms.append((a2 * n + b2, poly))
            exact.append(terms)
            at_q0.append([(k, v) for k, poly in terms if (v := sum(c * _Q0 ** e for e, c in poly))])
    return exact, at_q0


def _check_witness(witness: dict, exact, n: int, comp):
    """QZetaError unless q (R-hat - q id) in the last two slots sends witness {column: exponent} to 0 in Z[q].

    The witness is sum q^exponent e_column over base-n word columns, and
    ``exact`` the Z[q] pair map of ``_pair_maps``; the image is summed per
    (column, power of q), so the check is exact, not at a point.
    """
    nn = n * n
    image = {}
    for c, e in witness.items():
        base = c - c % nn
        for k, poly in exact[c % nn]:
            for d, v in poly:
                key = (base + k, e + d)
                image[key] = image.get(key, 0) + v
    if any(image.values()):
        raise QZetaError(f"the witness of composition {comp} is not in the kernel of R-hat - q id (q0 = {_Q0})")


def _sym_levels(r: RHat):
    """Yield the (content, kernel dimension) blocks of Sym_j for j = 0, 1, 2, ...

    Each level's blocks are built once, from the level before, so a caller
    that needs every j up to some bound walks this generator instead of
    calling ``sym_subspace_dims`` once per j.  A level holds one block per
    composition c of j with at most n parts, on the letters 0..k-1 of its k
    parts, built from the parts c - e_x, each letter x of c in turn.  When
    x occurs once in c, that part is the composition without x, whose
    letters are relabelled onto {0..k-1} minus {x} as ``_intersect_step``
    reads them.  A block is certified two ways:

    * an upper bound: its kernel over Z with q (R-hat - q id) evaluated at
      q = _Q0 (``_intersect_step``), which no specialization can make
      smaller than the kernel over Q(q);
    * a lower bound: the witness v_c = sum_x q^(number of letters of c
      above x) (v_(c - e_x), relabelled) (x) e_x, which is sum_w q^inv(w)
      e_w over the words w of content c, held as {column: exponent}.  Its
      last two slots are checked exactly over Z[q] (``_check_witness``);
      the others hold by the level below and the order invariance.

    A bound of 1 met by a witness gives dimension 1; any other bound, or a
    witness that fails, raises QZetaError naming the composition and q0, so
    no bound is ever returned as a dimension.  The blocks are yielded per
    content, in ``combinations_with_replacement`` order.  Raises
    QZetaError, at the first level, if R-hat is not invariant under
    order-preserving relabelling or q (R-hat - q id) is not over Z[q].
    """
    n = r.n
    _check_order_invariant(r)
    exact, at_q0 = _pair_maps(r)
    yield [((), 1)]
    basis, witness = {(1,): [{0: 1}]}, {(1,): {0: 0}}
    for level in count(2):
        yield [(content, 1) for content in combinations_with_replacement(range(n), level - 1)]
        below, below_witness, basis, witness = basis, witness, {}, {}
        for comp in _compositions(level, n):
            parts, vec = [], {}
            for x, m in enumerate(comp):
                part = comp[:x] + (m - 1,) + comp[x + 1:] if m > 1 else comp[:x] + comp[x + 1:]
                rows, w = below[part], below_witness[part]
                if m == 1 and x < len(comp) - 1:  # the last letter has no letter above it to move
                    # the cycle (x, x+1, ..., n-1) raises each letter y >= x; no row holds n - 1
                    tables = _word_tables((*range(x), *range(x + 1, n), x), level - 1)
                    rows = map(_relabel, rows, repeat(tables))  # read once, as the step forms its candidates
                    w = _relabel(w, tables)
                parts.append((rows, (x,)))
                above = sum(comp[x + 1:])
                for c, e in w.items():
                    vec[c * n + x] = e + above
            rows = _intersect_step(parts, n, at_q0, n * n)
            if len(rows) != 1:
                raise QZetaError(f"the block of composition {comp} has kernel dimension {len(rows)} at q0 = {_Q0}, not 1")
            _check_witness(vec, exact, n, comp)
            basis[comp], witness[comp] = rows, vec


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
