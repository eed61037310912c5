"""Exact rank and kernels over the rationals and over the rational-function field of q.

Rows are sparse {column: value} dicts whose values are all ints (over Z,
hence Q) or all QLaurents (over Q(q)).  No function takes the ring as an
argument: each reads it off the row values.  sparse_int_rank ranks rows and
keeps the ones that extend the rank (the symmetrizer ladder in ``braided``;
the tests' R-matrix oracle ranks QLaurent rows with it).  sparse_kernel finds
the dependencies among rows.  Its one caller in the library is
``_intersect_step``, which grows a joint kernel by one tensor factor: the
quadratic Hilbert series and the braided invariants in ``braided`` over Z,
the R-matrix blocks in ``rmatrix`` over Q(q).  Rows enter one at a time and
are reduced against the current echelon.

``_intersect_step`` numbers the words of m letters in base n.
``_word_tables`` relabels the letters of such a word column by table
look-up, and ``_relabel`` a sparse row's columns, for the ladder's orbit
blocks in ``braided`` and the R-matrix's composition blocks in ``rmatrix``.

Every elimination goes through one fraction-free reduction step, ``_reduce``
(Bareiss-style cross-multiplication of sparse rows), and one content strip,
``_strip``, that keeps rows primitive: the gcd of an integer row, the least
exponent and rational content of a QLaurent row.  A pivot whose leading
entry divides the row's is subtracted in place instead: an integer that
divides it, or a Laurent unit +-q^e over Q(q).  Pivot choice is always the
first nonzero entry in column order, trading speed for deterministic
reproducibility.

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
from .qlaurent import QLaurent, _degree


def _strip(row: dict) -> dict:
    """Divide a nonzero row by its content, read off the ring of its values.

    Integer rows lose the gcd of their entries.  QLaurent rows lose their
    least exponent and their rational content num / den (the gcd of every
    coefficient's numerator over the lcm of every denominator), gathered in
    one pass that reads an int coefficient as it is.  Each entry is then
    rebuilt by one ``QLaurent.from_sums``: every exponent shifted down by the
    least one, every coefficient a / b sent to (a // num) (den // b), an int
    since num divides a and b divides den.  Full polynomial gcds are not
    taken: the rows the library reduces do not need them.
    """
    values = row.values()
    if type(next(iter(values))) is int:
        g = gcd(*values)
        if g > 1:
            return {c: v // g for c, v in row.items()}
        return row
    low, num, den = None, 0, 1
    for x in values:
        for e, k in x.items():
            if low is None or e < low:
                low = e
            if type(k) is int:
                num = gcd(num, k)
            else:
                num = gcd(num, k.numerator)
                den = lcm(den, k.denominator)
    if low == 0 and num == 1 and den == 1:
        return row
    return {
        c: QLaurent.from_sums({
            e - low: k // num * den if type(k) is int else k.numerator // num * (den // k.denominator)
            for e, k in x.items()
        })
        for c, x in row.items()
    }


def _int_row(entries) -> dict:
    """Sparse integer row proportional to entries: denominators cleared by their lcm."""
    if all(type(x) is int for x in entries):
        return {c: x for c, x in enumerate(entries) if x}
    fracs = [Fraction(x) for x in entries]
    den = lcm(*(f.denominator for f in fracs))
    return {c: f.numerator * (den // f.denominator) for c, f in enumerate(fracs) if f}


def _reduce(echelon: dict, out: dict) -> dict:
    """Reduce a sparse row against a {pivot column: row} echelon, over Z or Q(q).

    Fraction-free: the row is cross-multiplied with the pivot row at its
    leading column and passed through ``_strip``, until its leading column
    has no pivot (the row is returned, ready to become one) or it vanishes
    ({} returned).  The values need only ring operations and truth testing,
    so ints and QLaurents run the same loop.  A pivot whose leading entry a
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
        out = _strip(new) if new else new
    return out


def _unit_quotient(b: QLaurent, a: QLaurent):
    """b / a when a is a unit +-q^e of the Laurent ring, else None.

    Dividing by +-q^e is multiplying by the monomial +-q^-e, whose product
    shifts and signs b's terms canonically.
    """
    if len(a) != 1:
        return None
    (e, c), = a.items()
    if c != 1 and c != -1:
        return None
    return b * QLaurent._wrap({-e: c})


def sparse_int_rank(rows):
    """Streaming rank of sparse rows ({column: value} dicts) over Z or over Q(q).

    The values are all ints or all QLaurents.  Each incoming row is reduced
    against the echelon basis (``_reduce``); rows that survive are stripped
    of their content and create a new pivot.  Returns (rank, kept, pivots):
    the original rows that extended the rank, and the echelon's pivot
    columns in ascending order, each one raising the rank of the columns
    before it.  The name predates QLaurent rows; the benchmark tracer binds it.
    """
    echelon: dict[int, dict] = {}
    kept = []
    for row in rows:
        out = _reduce(echelon, {c: v for c, v in row.items() if v})
        if out:
            echelon[min(out)] = _strip(out)
            kept.append(row)
    return len(echelon), kept, sorted(echelon)


def sparse_kernel(rows, width: int) -> list[dict]:
    """Independent {row index: coefficient} dicts c with sum_i c_i rows[i] = 0, len(rows) - rank of them.

    Row columns lie below ``width``; the values are all ints or all
    QLaurents.  Row i goes through ``_reduce`` with the tag column width + i
    appended, whose entry is the ring's one: v ** 0 for an entry v of the
    row (1 for a zero row).  It becomes a pivot if it comes back leading
    below ``width``; otherwise it vanishes there and its tag part is a
    dependency.  So no tag column is ever a pivot, and the tag of row i,
    which no pivot row carries, keeps the row from vanishing.
    """
    width = _degree(width, "width")
    echelon: dict[int, dict] = {}
    kernel = []
    for i, row in enumerate(rows):
        out = {c: v for c, v in row.items() if v}
        out[width + i] = next(iter(out.values()), 1) ** 0
        out = _reduce(echelon, out)
        if min(out) < width:
            echelon[min(out)] = _strip(out)
        else:
            kernel.append({c - width: v for c, v in _strip(out).items()})
    return kernel


def _combine(coeffs: dict, vectors) -> dict:
    """sum_i coeffs[i] vectors[i] for sparse {column: value} vectors, zeros dropped."""
    out = {}
    for i, c in coeffs.items():
        for col, v in vectors[i].items():
            out[col] = out.get(col, 0) + c * v
    return {col: v for col, v in out.items() if v}


def _intersect_step(parts, n: int, pair_map, width: int) -> list[dict]:
    """A basis of (W (x) V) cap (V^(x m-1) (x) ker M), one tensor factor above W in V^(x m).

    ``parts`` is [(rows, letters)]: the candidates are b (x) e_x for every b
    in rows (sparse {base-n column: value} vectors, together spanning W) and
    x in letters.  M is given by columns: ``pair_map[a n + b]`` is
    [(k, entry)], k < width, the image of e_a (x) e_b.  M in the last two
    slots sends column p n^2 + a n + b to p width + k; each dependency c
    among the images (``sparse_kernel``, over Z for int entries, over Q(q)
    for QLaurent ones) is one basis vector sum c_i (b_i (x) e_x_i).  When W
    is the joint kernel of M at every adjacent slot pair, so is the result.
    """
    nn = n * n
    candidates, images, top = [], [], 0
    for rows, letters in parts:
        for row in rows:
            top = max(top, max(row))
            for x in letters:
                cand = {c * n + x: v for c, v in row.items()}
                image = {}
                for c, v in cand.items():
                    base = c // nn * width
                    for k, e in pair_map[c % nn]:
                        image[base + k] = image.get(base + k, 0) + v * e
                candidates.append(cand)
                images.append(image)
    # a candidate column u n + x, u <= top, maps below (top // n + 1) width
    span = (top // n + 1) * width
    return [_combine(dep, candidates) for dep in sparse_kernel(images, span)]


def _word_tables(g, m: int):
    """(high, low, base): the base-n word c of m letters, each letter y sent to g[y], is high[c // base] + low[c % base].

    n is len(g).  Digit tables over the low m // 2 letters of a word and
    over the rest: a word column of ``_intersect_step`` is relabelled by
    two look-ups instead of m digit steps.
    """
    n, half = len(g), m // 2
    base = n ** half
    low = [0]
    for _ in range(half):
        low = [c * n + d for c in low for d in g]
    high = [c * n + d for c in low for d in g] if m % 2 else low
    return [c * base for c in high], low, base


def _relabel(row: dict, tables) -> dict:
    """row with word column c sent to high[c // base] + low[c % base] of ``tables``; None returns row itself."""
    if tables is None:
        return row
    high, low, base = tables
    return {high[c // base] + low[c % base]: v for c, v in row.items()}


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
        out = _reduce(echelon, _int_row([*row, b]))
        if out:
            p = min(out)
            if p == cols:
                raise NoSolution("inconsistent linear system")
            echelon[p] = _strip(out)
    values = [Fraction(0)] * cols
    for p in sorted(echelon, reverse=True):
        piv = echelon[p]
        acc = Fraction(piv.get(cols, 0))
        for c, v in piv.items():
            if p < c < cols:
                acc -= v * values[c]
        values[p] = acc / piv[p]
    return values, cols - len(echelon)
