"""Exact rank over the rationals and over the rational-function field of q.

Two streaming kernels compute every rank in the library: sparse_int_rank for
integer rows (the Nichols ladders in ``braided``) and sparse_qlaurent_rank
for rows of Laurent polynomials in q, which it ranks over Q(q) (the R-matrix
blocks in ``rmatrix``).  Rows enter one at a time as sparse {column: value}
dicts, are reduced against the current echelon basis, and the rows that
extended the rank are reported back.

Both go through one fraction-free reduction step, ``_reduce``
(Bareiss-style cross-multiplication of sparse rows); only the content strip
that keeps rows primitive differs (``_strip_gcd`` for integer rows,
``_strip_content`` for QLaurent rows).  A pivot whose leading entry divides
the row's is subtracted in place instead: an integer that divides it, or a
Laurent unit +-q^e over Q(q).  Pivot choice is always the first nonzero
entry in column order, trading speed for deterministic reproducibility.

solve_linear has no caller in the library.  It stays for the benchmark
tracer, which binds it by name, and for the deg-h search that the tests keep
as an oracle of fit_gh.  It runs the same reduction step on integer rows
(``_int_row`` clears each augmented row's denominators), detects an
inconsistent system at the first row that reduces onto the rhs column, and
uses Fraction only in the final back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NoSolution, QZetaError
from .qlaurent import QLaurent


def _strip_gcd(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _strip_content(row: dict) -> dict:
    """Divide a QLaurent row by its common monomial-and-rational content.

    Full polynomial gcds are not taken: the sizes sparse_qlaurent_rank sees
    do not need them.
    """
    it = iter(row.values())
    first = next(it)
    v, g = first.monomial_content()
    for x in it:
        v2, g2 = x.monomial_content()
        v = min(v, v2)
        ga = Fraction(g)
        gb = Fraction(g2)
        num = gcd(abs(ga.numerator), abs(gb.numerator))
        den = (ga.denominator * gb.denominator) // gcd(ga.denominator, gb.denominator)
        g = Fraction(num, den)
    if v == 0 and g == 1:
        return row
    mono = QLaurent({-v: Fraction(1) / g})
    return {c: x * mono for c, x in row.items()}


def _int_row(entries) -> dict:
    """Sparse integer row proportional to entries: denominators cleared by their lcm."""
    if all(type(x) is int for x in entries):
        return {c: x for c, x in enumerate(entries) if x}
    fracs = [Fraction(x) for x in entries]
    den = lcm(*(f.denominator for f in fracs))
    return {c: f.numerator * (den // f.denominator) for c, f in enumerate(fracs) if f}


def _reduce(echelon: dict, out: dict, strip) -> dict:
    """Reduce a sparse row against a {pivot column: row} echelon, over Z or Q(q).

    Fraction-free: the row is cross-multiplied with the pivot row at its
    leading column and passed through ``strip`` (``_strip_gcd`` for integer
    rows, ``_strip_content`` for QLaurent rows), until its leading column has
    no pivot (the row is returned, ready to become one) or it vanishes ({}
    returned).  The values need only ring operations and truth testing, so
    ints and QLaurents run the same loop.  A pivot whose leading entry a
    divides the row's entry b in the ring needs no scaling: that step
    subtracts (b / a) times the pivot row in place, with no
    cross-multiplication and no strip.  Over Z that is an int a dividing b
    (every unit pivot, a = 1 or -1, does); over Q(q) it is a unit of the
    Laurent ring, a = +-q^e, whose inverse is +-q^-e.  An in-place step that
    leaves the pivot column in the row (a wrong quotient) raises QZetaError,
    since the loop would never end.  ``out`` must be a fresh dict owned by
    the caller; it may be updated in place.
    """
    while out:
        p = min(out)
        piv = echelon.get(p)
        if piv is None:
            return out
        a, b = piv[p], out[p]
        if type(a) is int:
            f = b // a if b % a == 0 else None
        else:
            f = _unit_quotient(b, a)
        if f is not None:
            for c, v in piv.items():
                w = out.get(c, 0) - f * v
                if w:
                    out[c] = w
                else:
                    del out[c]
            if p in out:
                raise QZetaError(f"in-place step left pivot column {p} in the row")
            continue
        new = {c: a * v for c, v in out.items()}
        for c, v in piv.items():
            w = new.get(c, 0) - b * v
            if w:
                new[c] = w
            elif c in new:
                del new[c]
        out = strip(new) if new else new
    return out


def _unit_quotient(b: QLaurent, a: QLaurent):
    """b / a when a is a unit +-q^e of the Laurent ring, else None.

    Dividing by +-q^e shifts every exponent of b down by e and multiplies
    by the sign; ``from_sums`` collapses integral Fraction exponents.
    """
    if len(a) != 1:
        return None
    (e, c), = a.items()
    if c != 1 and c != -1:
        return None
    return QLaurent.from_sums({k - e: v * c for k, v in b.items()})


def sparse_int_rank(rows, collect_kept: bool = False):
    """Streaming rank of sparse integer rows ({column: value} dicts).

    Each incoming row is reduced against the echelon basis by fraction-free
    cross-multiplication (with gcd stripping to control entry growth); rows
    that survive create a new pivot.  Returns (rank, kept) where kept lists
    the original rows that extended the rank (empty unless collect_kept).
    """
    return _echelon_rank(rows, _strip_gcd, collect_kept)


def _echelon_rank(rows, strip, collect_kept: bool):
    """The streaming echelon behind both sparse ranks: (rank, kept rows)."""
    echelon: dict[int, dict] = {}
    kept = []
    for row in rows:
        out = _reduce(echelon, {c: v for c, v in row.items() if v}, strip)
        if out:
            echelon[min(out)] = strip(out)
            if collect_kept:
                kept.append(row)
    return len(echelon), kept


def sparse_qlaurent_rank(rows) -> int:
    """Streaming rank for sparse rows with QLaurent values, over Q(q).

    The same fraction-free reduction as sparse_int_rank; rows are kept
    primitive by stripping the common monomial-and-rational content after
    each combination.
    """
    return _echelon_rank(rows, _strip_content, False)[0]


def solve_linear(rows: list, rhs) -> tuple[list, int]:
    """Solve rows x = rhs exactly over the rationals.

    ``rows`` is a list of equal-length rows of ints or Fractions; ragged rows
    raise ValueError.  Returns (values, free_dim): one solution with the free
    variables set to 0, and the dimension of the affine solution set.
    Raises NoSolution if the system is inconsistent.

    The elimination is fraction-free: each augmented row [a_i | b_i] is
    scaled to integers (by the lcm of its denominators, skipped for all-int
    rows) and streamed into the sparse echelon shared with sparse_int_rank.
    The system is inconsistent as soon as a row reduces onto the rhs column
    alone, and NoSolution is raised there without reading further rows.  The
    pivot rows are then back-substituted over Fraction.
    """
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    echelon: dict[int, dict] = {}
    for row, b in zip(rows, rhs):
        out = _reduce(echelon, _int_row([*row, b]), _strip_gcd)
        if out:
            p = min(out)
            if p == cols:
                raise NoSolution("inconsistent linear system")
            echelon[p] = _strip_gcd(out)
    values = [Fraction(0)] * cols
    for p in sorted(echelon, reverse=True):
        piv = echelon[p]
        acc = Fraction(piv.get(cols, 0))
        for c, v in piv.items():
            if p < c < cols:
                acc -= v * values[c]
        values[p] = acc / piv[p]
    return values, cols - len(echelon)
