"""Generating-function machinery for symmetric powers of sl2 modules.

c_m(t, q) collects the multiplicities of V_p inside S^j(V_m) as the
coefficient of t^j q^p.  Three independent routes produce it (the
Cayley-Sylvester formula, positive-part extraction from the zeta closed
form, and the two-step recursion in m), and the (g, h) functional-equation
form is fitted from the series by Berlekamp-Massey modulo a prime, then
certified exactly over Q(q).

c_m and zeta(V_m) are linked by the sl2 character, one t-degree at a time:
V_p contributes [p+1]_q = q^p + q^(p-2) + ... + q^-p, so

    zeta_j[e] = sum of c_{j,p} over p >= |e| with p = e (mod 2)
    c_{j,p}   = zeta_j[p] - zeta_j[p+2]   (p >= 0).

``sl2._character_row`` (a suffix sum) and ``sl2._multiplicity_row`` (a
difference) are these two maps as integer kernels on {q-exponent: int}
rows, the same ones ``sl2.character`` and ``sl2.peel_character`` run on; no
Laurent polynomial is multiplied or divided on the way.  The inverse keeps
the checks that make it an extraction: the q^0 part of (q - q^-1) zeta_j,
zeta_j[-1] - zeta_j[1], must vanish, the result must be a valid CmSeries
(integer exponents in the CS support, positive integer multiplicities), and
its character must reproduce the input.  The Cayley-Sylvester route and the
recursion share neither kernel, so the three routes check them.

The Cayley-Sylvester route shares no arithmetic with the other two, only
the decoder (``qlaurent._unpack`` and ``_from_digits``), as the two routes
of crit 01 do.  ``cm_series_cs`` decodes the very ``sl2.cs_rows_packed``
stream the fit reads, so the criteria on c_m exercise the fit's Gaussian
kernel.

The recursion and the fit run on Kronecker-packed rows, one integer per
t-degree, packed and read back through ``qlaurent._pack`` and
``qlaurent._unpack``.  In ``cm_recursion_step`` row j is its value at
q^2 = X = 2^width with digit d the coefficient of q^(2d - jm): every row
of the step has that parity and lower bound, so its five divisions by
(1 - q^a t^b) are ``tseries._over_one_minus_packed`` passes of
shift-adds, its two sums are integer additions, and the width is fixed in
advance from the size of c_{m-2}.  In the fit, row j of c_m eta_m is one
integer V_j, its value at q^2 = X = 2^width: digit d is the coefficient of
q^(2d + jm % 2), the one parity that row has.  The Gaussian step
(``qcombinat.gaussian_steps_packed``), the Cayley-Sylvester row
(``sl2.cs_rows_packed``), each factor of eta_m (``_eta_rows``) and the tail
of (c_m eta_m) h in ``_certify`` are then a few big-integer operations per
t-degree.  An integer is the exact value of its row at X, so a nonzero one
proves a nonzero row at any width; a zero, or a decoded digit, is exact only
while every coefficient is below 2^(width-1) in size.  ``_certify``
evaluates that bound, sum|h_k| 2^r binomial(m + order, m), for each
candidate before it accepts one, and the width starts from
``_fit_width(m, max_h_degree)``, which covers every row the fit can read;
a check that needs more restarts the fit at a larger width.  Berlekamp-
Massey runs over GF(p) for the primes of ``_BM_POINTS``, tried in order, on
V_j mod p.  The fraction-free integer and the ``Fraction`` Berlekamp-Massey,
the dict-row certification, the dict-row recursion and the ``QTPoly``
functional equation are the oracles in ``tests/test_zeta_engine.py``.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import FitFailed, QZetaError
from .qlaurent import QLaurent, _degree, _exp_lattice, _from_digits, _pack, _row_width, _unpack, _width_for
from .qtpoly import FactoredRatQT, QTPoly
from .sl2 import Sl2Decomposition, _character_row, _multiplicity_row, cs_rows_packed
from .tseries import TSeries, _over_one_minus_packed
from .weyl import zeta_cn_closed

class CmSeries:
    """Truncated expansion of c_m(t, q); t^j coefficient is sum_p c_m^j_p q^p.

    Construction validates the support constraints that make the positive
    -part extraction sound: at t^j the q-exponents are integers in [0, jm]
    of parity jm mod 2, with positive integer coefficients.
    """

    __slots__ = ("m", "order", "table")

    def __init__(self, m: int, order: int, table):
        self.m = m = _degree(m, "m")
        self.order = order = _degree(order, "order")
        self.table = list(table)
        if len(self.table) != order + 1:
            raise ValueError("table length must be order + 1")
        for j, ql in enumerate(self.table):
            for e, c in ql.items():
                if type(e) is not int or e < 0 or e > j * m or (j * m - e) % 2:
                    raise QZetaError(
                        f"invalid CmSeries: t^{j} has q-exponent {e} outside the CS support"
                    )
                if type(c) is not int or c <= 0:
                    raise QZetaError(f"invalid CmSeries: t^{j} q^{e} multiplicity {c}")

    def coeff(self, j: int) -> QLaurent:
        return self.table[j]

    def multiplicity(self, j: int, p: int) -> int:
        return int(self.table[j].coeff(p))

    def to_tseries(self) -> TSeries:
        return TSeries(self.order, list(self.table))

    def __eq__(self, other):
        if not isinstance(other, CmSeries):
            return NotImplemented
        return (self.m, self.order, self.table) == (other.m, other.order, other.table)

    def __repr__(self):
        return f"CmSeries(m={self.m}, order={self.order})"


class GHPair:
    """The (g_m, h_m) pair of the functional-equation form c_m = g/(h eta_m)."""

    __slots__ = ("m", "g", "h")

    def __init__(self, m: int, g: QTPoly, h: QTPoly):
        if g.t_coeff(0) != QLaurent.one():
            raise ValueError("g must have value 1 at t = 0")
        if h.t_coeff(0) != QLaurent.one() or any(a != 0 for (a, _b), _c in h.items()):
            raise ValueError("h must be a polynomial in t alone with h(0) = 1")
        self.m = _degree(m, "m")
        self.g = g
        self.h = h

    def __eq__(self, other):
        if not isinstance(other, GHPair):
            return NotImplemented
        return (self.m, self.g, self.h) == (other.m, other.g, other.h)

    def __repr__(self):
        return f"GHPair(m={self.m}, g={self.g}, h={self.h})"


# -- closed forms and series routes -----------------------------------------


def zeta_vm_closed(m: int) -> FactoredRatQT:
    """Zeta of the m+1 dimensional irreducible: same product as for m+1 braided points."""
    return zeta_cn_closed(_degree(m, "m") + 1)


def cm_series_cs(m: int, order: int) -> CmSeries:
    """c_m(t, q) assembled degreewise from the Cayley-Sylvester decomposition.

    Row j of ``cs_rows_packed(m, width)`` holds the multiplicity of V_p in
    S^j(V_m) at digit (p - jm % 2)/2; every digit through t^order is at most
    binomial(order + m, m) < 2^(width-1), so each row decodes exactly.
    """
    m, order = _degree(m, "m"), _degree(order, "order")
    width = _row_width(math.comb(order + m, m))
    rows = zip(range(order + 1), cs_rows_packed(m, width))
    return CmSeries(m, order, [_from_digits(_unpack(v, width), j * m % 2, 2) for j, v in rows])


def zeta_from_cm(c: CmSeries) -> TSeries:
    """zeta_j[e] = sum of c_{j,p} over p >= |e|, p = e (mod 2): the sl2 character, per t-degree.

    Equal to (q c_m(t,q) - q^-1 c_m(t,q^-1)) / (q - q^-1) coefficientwise,
    computed as one suffix sum per row (``_character_row``).
    """
    return TSeries(c.order, [QLaurent._wrap(_character_row(dict(ql.items()))) for ql in c.table])


def cm_from_zeta(m: int, z: TSeries) -> CmSeries:
    """Recover c_m from a zeta expansion: c_{j,p} = zeta_j[p] - zeta_j[p+2], the inverse character.

    Per t-degree: the q^0 part of (q - q^-1) zeta_j, zeta_j[-1] - zeta_j[1],
    must vanish; the differences (``_multiplicity_row``) must form a valid
    CmSeries, so a negative or fractional multiplicity or an exponent off
    the CS support is refused; and the character of the result
    (``_character_row``) must give back zeta_j.
    """
    zrows = [dict(ql.items()) for ql in z.coeffs()]
    rows = []
    for j, zrow in enumerate(zrows):
        if zrow.get(-1, 0) != zrow.get(1, 0):
            raise QZetaError(f"q^0 part of (q - q^-1) zeta_{j} does not vanish")
        rows.append(_multiplicity_row(zrow))
    c = CmSeries(m, z.order, [QLaurent.from_sums(row) for row in rows])
    if any(_character_row(row) != zrow for row, zrow in zip(rows, zrows)):
        raise QZetaError("round-trip mismatch: extracted c_m does not reproduce the zeta series")
    return c


def cm_recursion_step(m: int, prev: CmSeries, order: int) -> CmSeries:
    """One step of the two-step recursion: c_m from c_{m-2}.

      c_m = c_{m-2}/((1-q^m t)(1-q^-m t))
            - 1/(1-t^2) [ q^-m t/(1-q^-m t) sum_p c_{m-2}(t)_p q^p (q^-m t)^floor(p/m)
                        + q^-2/(1-q^m t)   sum_p c_{m-2}(t)_p q^-p (q^m t)^ceil((p+2)/m) ].

    Everything runs on Kronecker-packed rows: row j is one integer, its value
    at X = 2^width, with digit d the coefficient of q^(2d - jm).  Every term
    of every row here has exponent = jm (mod 2) and at least -jm, so q^-m t
    keeps a digit in place and q^m t and t^2 move it up m digits; each of the
    five divisions by (1 - q^a t^b) is then rows[j] += rows[j - b] << shift,
    low j first, through t^order, and each of the two sums one integer
    addition per row.  A term q^p t^j of c_{m-2} lands in the first bracket
    at the digit it has in packed c_{m-2}, (p + jm)/2, and in the second at
    (jm + 2m ceil((p+2)/m) - p - 2)/2.  Each output row is decoded once.

    The width is fixed before any arithmetic: 2^(width-1) exceeds
    2 S binomial(order + 2, 2), S the sum of c_{m-2}'s coefficients through
    t^order.  The powers of q and t fix how often each factor enters, so a
    coefficient of the first quotient, and of each bracketed quotient, sums
    every term of c_{m-2} at most once: the result is at most 3 S in size,
    and at most S at order 0, where the brackets vanish.
    """
    m, order = _degree(m, "m", 2), _degree(order, "order")
    if prev.m != m - 2:
        raise ValueError(f"prev must be a CmSeries for m-2 = {m - 2}")
    if prev.order < order:
        raise QZetaError(f"prev order {prev.order} insufficient for requested order {order}")

    table = prev.table[: order + 1]
    width = _row_width(2 * sum(c for ql in table for _p, c in ql.items()) * math.comb(order + 2, 2))
    up = width * m  # the shift of q^m t and of t^2
    rows = [_pack((((p + j * m) >> 1, c) for p, c in ql.items()), width) for j, ql in enumerate(table)]

    # the two bracketed sums, already times q^-m t and q^-2, one {digit: int} per t-degree
    s2 = [{} for _ in range(order + 1)]
    s3 = [{} for _ in range(order + 1)]
    for j, ql in enumerate(table):
        for p, coeff in ql.items():
            fl = p // m
            if j + fl + 1 <= order:
                row, d = s2[j + fl + 1], (p + j * m) >> 1
                row[d] = row.get(d, 0) + coeff
            ce = -((-(p + 2)) // m)
            if j + ce <= order:
                row, d = s3[j + ce], (j * m + 2 * m * ce - p - 2) >> 1
                row[d] = row.get(d, 0) + coeff
    s2 = [_pack(row.items(), width) for row in s2]
    s3 = [_pack(row.items(), width) for row in s3]
    _over_one_minus_packed(rows, 1, up)  # 1/(1 - q^m t)
    _over_one_minus_packed(rows, 1, 0)  # 1/(1 - q^-m t)
    _over_one_minus_packed(s2, 1, 0)
    _over_one_minus_packed(s3, 1, up)
    s2 = [a + b for a, b in zip(s2, s3)]
    _over_one_minus_packed(s2, 2, up)  # 1/(1 - t^2)
    rows = [v - s for v, s in zip(rows, s2)]
    return CmSeries(m, order, [_from_digits(_unpack(v, width), -j * m, 2) for j, v in enumerate(rows)])


def _cm_by_recursion(m: int, order: int) -> CmSeries:
    """c_m by the recursion alone: ``cm_recursion_step`` up from c_(m mod 2), two at a time."""
    m = _degree(m, "m")
    series = cm_series_cs(m % 2, order)
    for mm in range(m % 2 + 2, m + 1, 2):
        series = cm_recursion_step(mm, series, order)
    return series


# -- functional equation form -------------------------------------------------
#
# Every kernel from here to the end of the fit works on Kronecker-packed rows:
# the t^j coefficient of a (q, t) object is held as one integer, its value at
# q^2 = X = 2^width (or at q^(1/L) = X for the functional equation), so that a
# product by q^e t is a shift and a sum of rows is one integer addition.  A
# packed row is read back by ``qlaurent._unpack``, in balanced digits, which is
# exact while every coefficient lies in (-2^(width-1), 2^(width-1)).  A packed
# integer is the row's exact value at X, so a nonzero integer always proves a
# nonzero row; only a zero, or a decode, rests on that bound.


def eta_m(m: int) -> QTPoly:
    """prod (1 - q^{2i} t) over i = 1..m/2 (even m) or (1 - q^{2i+1} t) over i = 0..(m-1)/2 (odd).

    The product of its linear factors as ``QTPoly`` products, so crit 09 and
    the checks on fitted pairs read an eta_m that ``_eta_rows``, the fit's
    kernel, did not build.  The highest factor comes first, which lists the
    terms of each row in increasing q-exponent order.
    """
    eta = QTPoly.one()
    for e in reversed(_eta_exponents(_degree(m, "m"))):
        eta = eta * QTPoly({(0, 0): 1, (e, 1): -1})
    return eta


def _eta_exponents(m: int) -> range:
    """The q-exponents e of the linear factors (1 - q^e t) of eta_m: 2, 4, ..., m or 1, 3, ..., m."""
    return range(2 - m % 2, m + 1, 2)


def _eta_rows(m: int, rows, width: int, lattice: int = 0):
    """Yield the t^j coefficient of eta_m times a series, packed, for j = 0, 1, 2, ...

    Rows in and out are packed at X = 2^width.  With ``lattice`` 0 they have
    the layout of ``sl2.cs_rows_packed``: digit d of row j is the coefficient
    of q^(2d + jm % 2), the one parity row j of c_m or c_m eta_m has.  With
    ``lattice`` L > 0, digit d of every row is the coefficient of
    q^(d/L + o), for one offset o.  eta_m is applied one linear factor
    (1 - q^e t) at a time: row j of the product is row_j - q^e row_(j-1),
    one shift and one subtract, and each factor keeps only its previous
    input row.  In the c_m layout q^e moves row j-1 to row j's digits by
    (e + (j-1)m % 2 - jm % 2)/2 places, which depends on the parity of j.
    """
    exps = _eta_exponents(m)
    if lattice:
        shifts = [[width * lattice * e for e in exps]] * 2
    else:
        shifts = [[width * ((e + sign * (m % 2)) // 2) for e in exps] for sign in (1, -1)]
    before = [0] * len(exps)
    for j, v in enumerate(rows):
        for k, shift in enumerate(shifts[j % 2]):
            before[k], v = v, v - (before[k] << shift)
        yield v


def _cm_eta_rows(m: int, width: int):
    """Yield the t^j coefficient of c_m eta_m packed at X = 2^width, for j = 0, 1, 2, ...

    The c_m rows come from ``sl2.cs_rows_packed(m, width)``, which ends at the
    first row that width cannot hold exactly, and so does this stream.  Most
    terms cancel at the last factor of eta_m (c_m eta_m = g/h has a narrow
    q-support), so the rows it yields are short integers.
    """
    return _eta_rows(m, cs_rows_packed(m, width), width)


def verify_functional_eq(m: int, gh: GHPair) -> bool:
    """Check q g(t,q) eta(t,q^-1) - q^-1 g(t,q^-1) eta(t,q) = (q - q^-1) h(t) [1/(1-t) if m even].

    With B(t, q) = q^-1 g(t, q^-1) eta_m(t, q) the left side is
    B(t, q^-1) - B(t, q).  B is computed through ``_eta_rows``, one linear
    factor at a time, on packed rows: g's coefficients times their common
    denominator D, one digit per step q^(1/L) of g's exponent lattice, with
    width bits for each, where 2^(width-1) exceeds 2^(r+1) times the sum of
    the |D g| coefficients, so every coefficient of B and of (1 - t) B
    decodes exactly.  In the even case B is first multiplied by (1 - t), so
    the identity is checked as a polynomial one, as (1 - t) times the left
    side against (q - q^-1) h(t).  Row by row, B(q^-1) - B(q) is read off
    the decoded row and its mirror image about q^0: it must vanish off
    q^(+-1), and at q^-1 it must be -D h_j.  The ``QTPoly`` product is the
    oracle in the tests.
    """
    m = _degree(m, "m")
    exps = _eta_exponents(m)
    g = gh.g.t_coeff_list()
    h = [gh.h.coeff(0, b) for b in range(gh.h.t_degree() + 1)]
    den = math.lcm(*(c.denominator for row in g for _e, c in row.items()), *(c.denominator for c in h))
    lattice = _exp_lattice(*g)
    top = max(row.degree() for row in g if row)
    zero = int(lattice * (top + 1))  # the digit of q^0
    # digit k of a row of q^-1 g(t, q^-1) times D is the coefficient of q^(k/L - top - 1)
    digits = [{int(lattice * (top - e)): int(c * den) for e, c in row.items()} for row in g]
    size = sum(abs(x) for row in digits for x in row.values())
    width = _width_for(size << len(exps) + 1)
    packed = [_pack(row.items(), width) for row in digits]
    rows = _eta_rows(m, itertools.chain(packed, itertools.repeat(0)), width, lattice)
    prev = 0
    for j in range(max(len(g) + len(exps) + 1, len(h))):
        b = next(rows)
        if m % 2 == 0:
            prev, b = b, b - prev
        d = _unpack(b, width)
        if len(d) > 2 * zero + 1:
            return False
        d += [0] * (2 * zero + 1 - len(d))
        want = -h[j] * den if j < len(h) else 0
        if d[zero + lattice] - d[zero - lattice] != want:
            return False
        if any(d[2 * zero - k] != d[k] for k in range(zero) if k != zero - lattice):
            return False
    return True


# The points of Berlekamp-Massey, in the order they are tried: primes p, the
# sequence being c_m eta_m at q0 in GF(p), q0 = 2^(width/2), whose square is
# the packing base X.  A point can lose a factor of h (it cancels against g
# there), and a prime can be too small for h's coefficients or divide a
# discrepancy; either only yields a candidate that fails certification, and
# the fit goes on at the next point.
_BM_POINTS = (2**61 - 1, 2**89 - 1, 2**127 - 1)


class _Repack(Exception):
    """The packing width cannot decide a check exactly; the fit restarts at ``width``, a larger one."""

    def __init__(self, width: int):
        super().__init__(width)
        self.width = width


def _fit_width(m: int, max_h_degree: int) -> int:
    """The packing width fit_gh starts from: 2^(width-1) above 64 (cap + 1) 2^r binomial(m + N, m).

    N is the largest t-degree the fit can read with cap = max_h_degree: at
    each point Berlekamp-Massey certifies at n = 2L + 2 terms, gives up at
    n = 3L + 2 if L has not moved, and raises once L > cap, so its terms
    reach t^(3 cap + 1); ``_certify`` reads through t^(deg g + deg h + 6)
    <= t^(2 cap + r - m + 5), r the number of eta_m factors.  The rows of c_m
    through t^N then decode exactly, and so does every certification whose
    sum of |h_k| is at most 64 (cap + 1).  A candidate with a larger sum
    makes ``_certify`` ask for a repack; for m <= 20 the sum for h_m is at
    most 2996 (m = 20, deg h = 181), so a fit with cap >= deg h_m never does.
    """
    r = len(_eta_exponents(m))
    top = max(3 * max_h_degree + 1, 2 * max_h_degree + r - m + 5)
    return _width_for((64 * (max_h_degree + 1) << r) * math.comb(m + top, m))


def fit_gh(m: int, max_h_degree: int = 40) -> GHPair:
    """Fit the (g_m, h_m) pair of Lemma-form c_m = g/(h eta_m) from the series.

    h does not involve q, so at any point q0 the sequence
    s_j = (c_m eta_m)_j(q0) obeys the recurrence with characteristic
    polynomial h beyond t^deg(g).  The rows of c_m eta_m are read once, one
    t-degree at a time, each as one integer: its value at q^2 = X = 2^width
    in the layout of ``sl2.cs_rows_packed`` (digit d of row j is the
    coefficient of q^(2d + jm % 2)), from ``_cm_eta_rows``.  At a prime p of
    _BM_POINTS, q0 = 2^(width/2) squares to X in GF(p), so s_j is the row
    mod p, times q0 for a row of odd parity.  The s_j are fed to an
    incremental Berlekamp-Massey over GF(p), whose length L never decreases;
    L > max_h_degree raises FitFailed.  Once 2L + 2 terms are in, its
    connection polynomial, lifted to (-p/2, p/2) with h(0) = 1, is the
    candidate h, and ``_certify`` decides it exactly.  A failed candidate
    waits for L to change; if L stays put for L more terms, the point lost a
    factor of h or p was a bad prime, and Berlekamp-Massey restarts on the
    stored rows at the next point.

    The width comes from ``_fit_width(m, max_h_degree)``.  If a check needs
    more (``_Repack``: the row stream ended, or a candidate's bound failed),
    the fit starts again at the larger width; no check is ever decided on
    digits the width cannot hold.  The integer (fraction-free) and
    ``Fraction`` Berlekamp-Massey, the dict-row certification and the
    ``QTPoly`` functional equation are oracles in the tests.
    """
    m, max_h_degree = _degree(m, "m", 2), _degree(max_h_degree, "max_h_degree", 1)
    width = _fit_width(m, max_h_degree)
    while True:
        try:
            return _fit_at(m, max_h_degree, width)
        except _Repack as repack:
            width = repack.width


def _fit_at(m: int, max_h_degree: int, width: int) -> GHPair:
    """fit_gh on rows packed at X = 2^width; raises _Repack where width is too small to decide."""
    stream = _cm_eta_rows(m, width)
    rows = []

    def extend(order):
        while len(rows) <= order:
            v = next(stream, None)
            if v is None:
                raise _Repack(2 * width)
            rows.append(v)

    for p in _BM_POINTS:
        q0 = pow(2, width // 2, p)
        bm = _BerlekampMassey(p)
        failed = None  # (L, terms fed) at the last failed certification
        while True:
            n = len(bm.terms)
            extend(n)
            s = rows[n] % p
            bm.feed(s * q0 % p if n * m % 2 else s)
            n, L = n + 1, bm.length
            if L > max_h_degree:
                raise FitFailed(
                    f"no (g, h) found for m={m}; the recurrence has length {L} > max_h_degree={max_h_degree}"
                )
            if failed is not None and failed[0] == L:
                if n >= failed[1] + L:
                    break
                continue
            if n < 2 * L + 2:
                continue
            h = [x - p if 2 * x > p else x for x in bm.c]
            gh = _certify(m, h, n, rows, extend, width)
            if gh is not None:
                return gh
            failed = (L, n)
    raise FitFailed(f"no (g, h) found for m={m}; no candidate certified at the {len(_BM_POINTS)} points")


def _certify(m: int, h: list, n: int, rows: list, extend, width: int):
    """The GHPair with this h if it passes every acceptance check, else None.

    h is an integer list with h[0] = 1; trailing zeros are dropped.  rows
    lists the rows of c_m eta_m packed at X = 2^width in the layout of
    ``sl2.cs_rows_packed``, and ``extend(order)`` makes it reach t^order.
    g is (c_m eta_m) h through t^dg, and the tail of that product must
    vanish through t^order = max(dg + dh + 6, n - 1): h eta_m has constant
    term 1, so it is a unit in Q(q)[[t]], and the tail check proves that
    g/(h eta_m) reproduces c_m through t^order.

    Row j of the product is T_j = sum_k h_k V_(j-k).  For odd m the terms of
    odd k have the other parity, so they form a second sum, and each sum
    must vanish.  Every V_i is the exact value of its row at X, so a nonzero
    T_j refuses soundly at any width.  A zero T_j, and the digits of the g
    rows, are exact only while every coefficient they stand for is below
    2^(width-1) in size.  Those coefficients are at most
    sum|h_k| * 2^r * binomial(m + order, m): a c_m coefficient through t^order
    is at most the value binomial(m + order, m) of its Gaussian polynomial at
    q = 1, and eta_m's r factors at most multiply the largest one by 2^r.
    The bound is evaluated once the tail vanishes, before any row is
    accepted or decoded, and a candidate that breaks it raises _Repack
    rather than be accepted or refused.  Then the q-degree claim and
    ``verify_functional_eq`` must hold.
    """
    while not h[-1]:
        h.pop()
    dh = len(h) - 1
    exps = _eta_exponents(m)
    dg = dh + len(exps) - (m + 1)
    if dg < 0:
        return None
    order = max(dg + dh + 6, n - 1)
    extend(order)
    terms = [(k, hk) for k, hk in enumerate(h) if hk]
    odd = m % 2

    def product_row(j):
        parts = [0, 0]
        for k, hk in terms:
            if k > j:
                break
            parts[k & odd] += hk * rows[j - k]
        return parts

    for j in range(dg + 1, order + 1):
        if product_row(j) != [0, 0]:
            return None
    bound = (sum(abs(hk) for _k, hk in terms) << len(exps)) * math.comb(m + order, m)
    if bound.bit_length() >= width:
        raise _Repack(_width_for(bound))
    g = []
    for j in range(dg + 1):
        same, other = product_row(j)
        row = _from_digits(_unpack(same, width), j * m % 2, 2)
        if other:  # odd m and odd k: row j - k of c_m eta_m has the other parity
            row = row + _from_digits(_unpack(other, width), (j * m + 1) % 2, 2)
        g.append(row)
    g = QTPoly.from_qlaurent_t_coeffs(g)
    if g.is_zero or g.q_degree() != sum(exps) - 2:
        return None
    gh = GHPair(m, g, QTPoly.from_t_coeffs(h))
    if not verify_functional_eq(m, gh):
        return None
    return gh


class _BerlekampMassey:
    """Incremental Berlekamp-Massey over GF(p), p prime (Massey 1969).

    After each ``feed``, ``length`` is the length L of the shortest linear
    recurrence sum_{i<=L} C_i s_{n-i} = 0 (n >= L) of the terms fed so far,
    and ``c`` lists its connection polynomial C as residues in [0, p), with
    C_0 = 1 and deg C <= L.  A discrepancy d updates C to
    C - (d / last) x^shift B, where B is an earlier C and last is the
    discrepancy it had then (kept as its inverse).  Every number stays
    below p, so a feed costs O(L) word-size products.
    """

    __slots__ = ("p", "terms", "c", "b", "length", "shift", "inverse")

    def __init__(self, p: int):
        self.p = p
        self.terms = []
        self.c = [1]
        self.b = [1]
        self.length = 0
        self.shift = 1
        self.inverse = 1

    def feed(self, s: int) -> None:
        p, terms, c = self.p, self.terms, self.c
        terms.append(s % p)
        n = len(terms) - 1
        d = sum(map(operator.mul, c, terms[n::-1])) % p
        if d == 0:
            self.shift += 1
            return
        coef = d * self.inverse % p
        shift = self.shift
        new = c + [0] * (shift + len(self.b) - len(c))
        for i, bi in enumerate(self.b, shift):
            if bi:
                new[i] = (new[i] - coef * bi) % p
        if 2 * self.length <= n:
            self.b, self.inverse = c, pow(d, -1, p)
            self.length = n + 1 - self.length
            self.shift = 1
        else:
            self.shift += 1
        self.c = new


# -- finite sets and direct sums ----------------------------------------------


def zeta_finite_set(n: int, regular: bool = False):
    """Zeta of n classical points: (1/(1-t))^n, or the regular-orbit variant (1+t)^n."""
    n = _degree(n, "n")
    if regular:
        return QTPoly.from_t_coeffs([math.comb(n, k) for k in range(n + 1)])
    if n == 0:
        return FactoredRatQT(QTPoly.one())
    return FactoredRatQT(QTPoly.one(), [((0, 1), n)])


def zeta_direct_sum(parts, order: int) -> TSeries:
    """Zeta of a direct sum is the product of the summands' zetas.

    The summands' closed forms multiply as one FactoredRatQT, expanded once
    by the division recurrence; crit 14(c) checks the result against the
    summands' expansions multiplied by ``TSeries.__mul__``.
    """
    closed = FactoredRatQT.one()
    for part in parts:
        if not isinstance(part, Sl2Decomposition):
            part = Sl2Decomposition.irreducible(part)
        for m, mult in part.parts.items():
            for _ in range(mult):
                closed = closed * zeta_vm_closed(m)
    return closed.expand(order)
