"""Generating-function machinery for symmetric powers of sl2 modules.

c_m(t, q) collects the multiplicities of V_p inside S^j(V_m) as the
coefficient of t^j q^p.  Three independent routes produce it (the
Cayley-Sylvester formula, positive-part extraction from the zeta closed
form, and the two-step recursion in m), and the (g, h) functional-equation
form is fitted from the series by Berlekamp-Massey at a rational point q0,
then certified exactly over Q(q).
"""

from __future__ import annotations

import math

from .errors import ExactDivisionError, FitFailed, QZetaError
from .qlaurent import QLaurent
from .qtpoly import FactoredRatQT, QTPoly
from .sl2 import Sl2Decomposition, cs_rows
from .tseries import TSeries
from .weyl import zeta_cn_closed

_Q = QLaurent({1: 1})
_QINV = QLaurent({-1: 1})
_Q_MINUS_QINV = QLaurent({1: 1, -1: -1})


class CmSeries:
    """Truncated expansion of c_m(t, q); t^j coefficient is sum_p c_m^j_p q^p.

    Construction validates the support constraints that make the positive
    -part extraction sound: at t^j the q-exponents are integers in [0, jm]
    of parity jm mod 2, with positive integer coefficients.
    """

    __slots__ = ("m", "order", "table")

    def __init__(self, m: int, order: int, table):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.m = m
        self.order = order
        self.table = list(table)
        if len(self.table) != order + 1:
            raise ValueError("table length must be order + 1")
        for j, ql in enumerate(self.table):
            for e, c in ql.items():
                if not isinstance(e, int) or e < 0 or e > j * m or (j * m - e) % 2:
                    raise QZetaError(
                        f"invalid CmSeries: t^{j} has q-exponent {e} outside the CS support"
                    )
                if c != int(c) or c <= 0:
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
        self.m = m
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
    if m < 0:
        raise ValueError("m must be non-negative")
    return zeta_cn_closed(m + 1)


def cm_series_cs(m: int, order: int) -> CmSeries:
    """c_m(t, q) assembled degreewise from the Cayley-Sylvester decomposition.

    Row j of ``cs_rows(m)`` puts the multiplicity of V_p in S^j(V_m) at q^p.
    """
    return CmSeries(m, order, [QLaurent(row) for _j, row in zip(range(order + 1), cs_rows(m))])


def zeta_from_cm(c: CmSeries) -> TSeries:
    """(q c_m(t,q) - q^-1 c_m(t,q^-1)) / (q - q^-1), coefficientwise in t."""
    out = []
    for ql in c.table:
        num = _Q * ql - _QINV * ql.invert_q()
        try:
            out.append(num.exact_div(_Q_MINUS_QINV))
        except ExactDivisionError as exc:
            raise QZetaError("invalid CmSeries: coefficient not divisible by q - q^-1") from exc
    return TSeries(c.order, out)


def cm_from_zeta(m: int, z: TSeries) -> CmSeries:
    """Recover c_m from a zeta expansion by positive-part extraction.

    Per t-degree: multiply by (q - q^-1); the q^0 part must cancel exactly
    (the two numerator terms have disjoint strictly-positive/negative
    support); the strictly positive part divided by q is the coefficient.
    """
    table = []
    for j in range(z.order + 1):
        w = _Q_MINUS_QINV * z.coeff(j)
        if not w.parts("zero").is_zero:
            raise QZetaError(f"q^0 part of (q - q^-1) zeta_{j} does not vanish")
        pos = w.parts("strictly_positive")
        table.append(pos * _QINV)
    c = CmSeries(m, z.order, table)
    if zeta_from_cm(c) != z:
        raise QZetaError("round-trip mismatch: extracted c_m does not reproduce the zeta series")
    return c


def cm_recursion_step(m: int, prev: CmSeries, order: int) -> CmSeries:
    """One step of the two-step recursion: c_m from c_{m-2}.

      c_m = c_{m-2}/((1-q^m t)(1-q^-m t))
            - 1/(1-t^2) [ q^-m t/(1-q^-m t) sum_p c_{m-2}(t)_p q^p (q^-m t)^floor(p/m)
                        + q^-2/(1-q^m t)   sum_p c_{m-2}(t)_p q^-p (q^m t)^ceil((p+2)/m) ].

    Each division by (1 - q^a t^b) is the recurrence out[j] = s[j] + q^a out[j - b]
    (``TSeries.over_one_minus``) through t^order.
    """
    if m < 2:
        raise ValueError("recursion needs m >= 2")
    if prev.m != m - 2:
        raise ValueError(f"prev must be a CmSeries for m-2 = {m - 2}")
    if prev.order < order:
        raise QZetaError(f"prev order {prev.order} insufficient for requested order {order}")

    table = prev.table[: order + 1]
    t1 = TSeries(order, table).over_one_minus(m).over_one_minus(-m)

    # the two bracketed sums, already times q^-m t and q^-2, one dict per t-degree
    s2 = [{} for _ in range(order + 1)]
    s3 = [{} for _ in range(order + 1)]
    for j, ql in enumerate(table):
        for p, coeff in ql.items():
            fl = p // m
            if j + fl + 1 <= order:
                row, e = s2[j + fl + 1], p - m * fl - m
                row[e] = row.get(e, 0) + coeff
            ce = -((-(p + 2)) // m)
            if j + ce <= order:
                row, e = s3[j + ce], -p + m * ce - 2
                row[e] = row.get(e, 0) + coeff
    t2 = TSeries(order, [QLaurent.from_sums(row) for row in s2]).over_one_minus(-m)
    t3 = TSeries(order, [QLaurent.from_sums(row) for row in s3]).over_one_minus(m)

    result = t1 - (t2 + t3).over_one_minus(0, 2)
    return CmSeries(m, order, result.coeffs())


# -- functional equation form -------------------------------------------------


def eta_m(m: int) -> QTPoly:
    """prod (1 - q^{2i} t) over i = 1..m/2 (even m) or (1 - q^{2i+1} t) over i = 0..(m-1)/2 (odd)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    acc = QTPoly.one()
    for e in _eta_exponents(m):
        acc = acc * QTPoly.from_qlaurent_t_coeffs([QLaurent.one(), QLaurent.from_sums({e: -1})])
    return acc


def _eta_exponents(m: int) -> range:
    """The q-exponents e of the linear factors (1 - q^e t) of eta_m: 2, 4, ..., m or 1, 3, ..., m."""
    return range(2 - m % 2, m + 1, 2)


def _cm_eta_rows(m: int):
    """Yield the t^j coefficient of c_m eta_m as a {q-exponent: int} dict, for j = 0, 1, 2, ...

    The c_m rows come from ``cs_rows(m)`` and eta_m is applied one linear
    factor (1 - q^e t) at a time: row j of the product is
    row_j - q^e row_{j-1}, so each factor keeps only its previous input row.
    Most terms cancel at the last factor (c_m eta_m = g/h has a narrow
    q-support), so the yielded row leaves out its zeros.
    """
    exps = _eta_exponents(m)
    before = [{} for _ in exps]
    for row in cs_rows(m):
        for k, e in enumerate(exps):
            out = dict(row)
            for p, x in before[k].items():
                out[p + e] = out.get(p + e, 0) - x
            before[k], row = row, out
        yield {p: x for p, x in row.items() if x}


def verify_functional_eq(m: int, gh: GHPair) -> bool:
    """Check q g(t,q) eta(t,q^-1) - q^-1 g(t,q^-1) eta(t,q) = (q - q^-1) h(t) [1/(1-t) if m even].

    Verified as an exact polynomial identity, multiplying through by (1 - t)
    in the even case.
    """
    eta = eta_m(m)
    qq = QTPoly({(1, 0): 1})
    qq_inv = QTPoly({(-1, 0): 1})
    lhs = qq * gh.g * eta.invert_q() - qq_inv * gh.g.invert_q() * eta
    rhs = (qq - qq_inv) * gh.h
    if m % 2 == 0:
        lhs = lhs * QTPoly({(0, 0): 1, (0, 1): -1})
    return lhs == rhs


# Rational points q0 at which c_m eta_m is specialised for Berlekamp-Massey, in
# the order they are tried.  Specialising can only lose factors of h, so a
# point whose candidate fails certification is left for the next one.
_BM_POINTS = (2, 3, 5)


def fit_gh(m: int, max_h_degree: int = 40) -> GHPair:
    """Fit the (g_m, h_m) pair of Lemma-form c_m = g/(h eta_m) from the series.

    h does not involve q, so at any rational q0 the sequence
    s_j = (c_m eta_m)_j(q0) obeys the recurrence with characteristic
    polynomial h beyond t^deg(g).  The rows of c_m eta_m are read once, as
    {q-exponent: int} dicts, one t-degree at a time from ``_cm_eta_rows``,
    and s_j is fed to an incremental fraction-free Berlekamp-Massey over Z,
    whose length L never decreases; L > max_h_degree raises FitFailed.  Once
    2L + 2 terms are in, its connection polynomial is the candidate h; deg g
    is forced by the rational t-degree -(m+1).  The candidate is accepted
    only if it is integral, (c eta h) vanishes past deg g through the order
    of the terms fed (and at least deg g + deg h + 6), which is the round
    trip g/(h eta_m) = c_m through that order, and the q-degree claim and the
    functional equation hold.  A failed candidate waits for L to change; if
    L stays put for L more terms, the point lost a factor of h and
    Berlekamp-Massey restarts on the stored rows at the next point of
    _BM_POINTS.
    """
    if m < 2:
        raise ValueError("fit_gh applies for m >= 2")
    if max_h_degree < 1:
        raise ValueError("max_h_degree must be >= 1")
    eta = eta_m(m)
    stream = _cm_eta_rows(m)
    ceta = []

    def extend(order):
        while len(ceta) <= order:
            ceta.append(next(stream))

    for q0 in _BM_POINTS:
        bm = _BerlekampMassey()
        failed = None  # (L, terms fed) at the last failed certification
        while True:
            n = len(bm.terms)
            extend(n)
            bm.feed(sum(x * q0**e for e, x in ceta[n].items()))
            n, L = n + 1, bm.length
            if L > max_h_degree:
                raise FitFailed(
                    f"no (g, h) found for m={m}; the recurrence at q0={q0} has length "
                    f"{L} > max_h_degree={max_h_degree}"
                )
            if failed is not None and failed[0] == L:
                if n >= failed[1] + L:
                    break
                continue
            if n < 2 * L + 2:
                continue
            gh = _certify(m, bm.c, n, eta, ceta, extend)
            if gh is not None:
                return gh
            failed = (L, n)
    raise FitFailed(f"no (g, h) found for m={m}; no candidate certified at q0 in {_BM_POINTS}")


def _certify(m: int, conn: list, n: int, eta: QTPoly, ceta: list, extend):
    """The GHPair with h = conn / conn[0] if it passes every acceptance check, else None.

    conn is an integer connection polynomial with conn[0] != 0.  The
    specialised terms are integers, so by Fatou's lemma the true denominator
    lies in Z[t] with constant term 1; a conn whose constant term does not
    divide every entry is rejected before any Q(q) arithmetic.  ceta lists
    the rows of c_m eta_m as {q-exponent: int} dicts.  g is (c_m eta_m) h
    through t^dg, and the tail of that product must vanish through t^order:
    h eta_m has constant term 1, so it is a unit in Q(q)[[t]], and the tail
    check proves that g/(h eta_m) reproduces c_m through t^order.
    """
    c0 = conn[0]
    if any(x % c0 for x in conn):
        return None
    h = [x // c0 for x in conn]
    while not h[-1]:
        h.pop()
    dh = len(h) - 1
    dg = dh + eta.t_degree() - (m + 1)
    if dg < 0:
        return None
    order = max(dg + dh + 6, n - 1)
    extend(order)
    # g = (c eta h) through t^dg; the tail through t^order must vanish
    rows = []
    for j in range(order + 1):
        acc = {}
        for k in range(min(dh, j) + 1):
            hk = h[k]
            if hk:
                for e, x in ceta[j - k].items():
                    acc[e] = acc.get(e, 0) + hk * x
        if j > dg:
            if any(acc.values()):
                return None
            continue
        rows.append(QLaurent.from_sums({e: x for e, x in acc.items() if x}))
    g = QTPoly.from_qlaurent_t_coeffs(rows)
    if g.is_zero or g.q_degree() != eta.q_degree() - 2:
        return None
    gh = GHPair(m, g, QTPoly.from_t_coeffs(h))
    if not verify_functional_eq(m, gh):
        return None
    return gh


class _BerlekampMassey:
    """Incremental fraction-free Berlekamp-Massey over Z (Massey 1969).

    After each ``feed``, ``length`` is the length L of the shortest linear
    recurrence sum_{i<=L} C_i s_{n-i} = 0 (n >= L) of the integer terms fed
    so far, and ``c`` lists its connection polynomial C as integers with no
    common factor; C_0 != 0, and C/C_0 is the connection polynomial of
    Berlekamp-Massey over Q.  A discrepancy d updates C to
    last*C - d*x^shift*B, where B is an earlier C and last is the
    discrepancy it had then, and divides out the content of the result.
    """

    __slots__ = ("terms", "c", "b", "length", "shift", "last")

    def __init__(self):
        self.terms = []
        self.c = [1]
        self.b = [1]
        self.length = 0
        self.shift = 1
        self.last = 1

    def feed(self, s: int) -> None:
        terms, c = self.terms, self.c
        terms.append(s)
        n = len(terms) - 1
        d = sum(ci * terms[n - i] for i, ci in enumerate(c) if ci)
        if d == 0:
            self.shift += 1
            return
        last, shift = self.last, self.shift
        new = [last * ci for ci in c] + [0] * (shift + len(self.b) - len(c))
        for i, bi in enumerate(self.b):
            if bi:
                new[i + shift] -= d * bi
        content = math.gcd(*new)
        if content != 1:
            new = [x // content for x in new]
        if 2 * self.length <= n:
            self.b, self.last = c, d
            self.length = n + 1 - self.length
            self.shift = 1
        else:
            self.shift += 1
        self.c = new


# -- finite sets and direct sums ----------------------------------------------


def zeta_finite_set(n: int, regular: bool = False):
    """Zeta of n classical points: (1/(1-t))^n, or the regular-orbit variant (1+t)^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
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
        if isinstance(part, int):
            part = Sl2Decomposition.irreducible(part)
        for m, mult in part.parts.items():
            for _ in range(mult):
                closed = closed * zeta_vm_closed(m)
    return closed.expand(order)
