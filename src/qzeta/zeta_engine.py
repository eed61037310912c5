"""Generating-function machinery for symmetric powers of sl2 modules.

c_m(t, q) collects the multiplicities of V_p inside S^j(V_m) as the
coefficient of t^j q^p.  Three independent routes produce it (the
Cayley-Sylvester formula, positive-part extraction from the zeta closed
form, and the two-step recursion in m), and the (g, h) functional-equation
form is fitted from the series by exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactDivisionError, FitFailed, NoSolution, QZetaError
from .linalg import solve_linear
from .qlaurent import QLaurent
from .qtpoly import FactoredRatQT, QTPoly, tpoly_divmod, tpoly_gcd, tpoly_trim
from .sl2 import Sl2Decomposition, cs_sym_power
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
    """c_m(t, q) assembled degreewise from the Cayley-Sylvester decomposition."""
    return CmSeries(m, order, [_cm_row(m, j) for j in range(order + 1)])


def _cm_row(m: int, j: int) -> QLaurent:
    """The t^j coefficient of c_m: V_p in S^j(V_m) contributes its multiplicity at q^p."""
    return QLaurent(cs_sym_power(m, j).parts)


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
    if m % 2 == 0:
        exps = [2 * i for i in range(1, m // 2 + 1)]
    else:
        exps = [2 * i + 1 for i in range((m - 1) // 2 + 1)]
    acc = QTPoly.one()
    for e in exps:
        acc = acc * QTPoly({(0, 0): 1, (e, 1): -1})
    return acc


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


def fit_gh(m: int, c: CmSeries | None = None, max_h_degree: int = 40) -> GHPair:
    """Fit the (g_m, h_m) pair of Lemma-form c_m = g/(h eta_m) from the series.

    deg_t(h) is searched upward; for each candidate the t-degree of g is
    forced by the rational t-degree -(m+1), h is solved from the linear
    system requiring (c eta h) to vanish beyond deg_t(g), and the candidate
    is accepted only if the q-degree claim, the functional equation, and a
    round-trip series comparison all hold.  The round trip needs no series
    inversion: h eta_m has constant term 1, so it is a unit in Q(q)[[t]].
    The rows of c_m and c_m eta_m are extended from one candidate's order
    to the next, never rebuilt.
    """
    if m < 2:
        raise ValueError("fit_gh applies for m >= 2")
    if max_h_degree < 1:
        raise ValueError("max_h_degree must be >= 1")
    if c is not None and c.m != m:
        raise ValueError(f"c is the series of c_{c.m}, not c_{m}")
    eta = eta_m(m)
    deg_eta_t = eta.t_degree() if not eta.is_zero else 0
    deg_eta_q = eta.q_degree()
    eta_t = eta.t_coeff_list()
    rows, ceta_rows, ceta_dicts = [], [], []
    attempted = []
    for dh in range(1, max_h_degree + 1):
        dg = dh + deg_eta_t - (m + 1)
        if dg < 0:
            continue
        order = dg + dh + 6
        if c is not None and c.order < order:
            attempted.append((dh, dg))
            continue
        for j in range(len(rows), order + 1):
            rows.append(c.table[j] if c is not None else _cm_row(m, j))
            acc = QLaurent()
            for k in range(min(j, deg_eta_t) + 1):
                acc = acc + rows[j - k] * eta_t[k]
            ceta_rows.append(acc)
            ceta_dicts.append(dict(acc.items()))
        attempted.append((dh, dg))
        h = _solve_h(ceta_dicts, dh, dg, order)
        if h is None:
            continue
        # g = (c eta h) truncated at dg; tail vanishing beyond order is
        # implied by the equations, re-checked here.
        g_coeffs = []
        ok = True
        for j in range(order + 1):
            acc = QLaurent()
            for k in range(min(dh, j) + 1):
                if h[k]:
                    acc = acc + ceta_rows[j - k] * h[k]
            if j <= dg:
                g_coeffs.append(acc)
            elif not acc.is_zero:
                ok = False
                break
        if not ok:
            continue
        g = QTPoly.from_qlaurent_t_coeffs(g_coeffs)
        if g.is_zero or g.q_degree() != deg_eta_q - 2:
            continue
        g, h = _strip_common_t_factor(g, h)
        gh = GHPair(m, g, QTPoly.from_t_coeffs(h))
        if not verify_functional_eq(m, gh):
            continue
        if not _roundtrip_ok(gh, CmSeries(m, order, rows)):
            continue
        return gh
    raise FitFailed(f"no (g, h) found for m={m}; attempted (deg h, deg g) bounds: {attempted}")


def _solve_h(ceta: list, dh: int, dg: int, order: int):
    """Solve sum_k h_k (c eta)_{j-k} = 0 for dg < j <= order, h_0 = 1.

    ceta lists the t-coefficients of c eta as {q-exponent: value} dicts.  For
    each j the rows are its q-exponents in increasing order; each reads the
    dicts of (c eta)_{j-1}, ..., (c eta)_{j-dh}, zero below t^0.
    """
    rows = []
    rhs = []
    for j in range(dg + 1, order + 1):
        near = [ceta[j - k] if k <= j else {} for k in range(dh + 1)]
        support = set()
        for d in near:
            support.update(d)
        lead, rest = near[0], near[1:]
        for e in sorted(support):
            rows.append([d.get(e, 0) for d in rest])
            rhs.append(-lead.get(e, 0))
    try:
        sol = solve_linear(rows, rhs)
    except NoSolution:
        return None
    if not sol.unique:
        return None
    return [Fraction(1)] + list(sol.values)


def _strip_common_t_factor(g: QTPoly, h):
    """Divide out any common t-polynomial factor of h and all q-slices of g."""
    q_exps = sorted({a for (a, _b), _c in g.items()})
    common = tpoly_trim([Fraction(x) for x in h])
    for e in q_exps:
        slice_coeffs = [Fraction(g.coeff(e, b)) for b in range(g.t_degree() + 1)]
        common = tpoly_gcd(common, slice_coeffs)
        if len(common) <= 1:
            return g, h
    quot_h, rem = tpoly_divmod([Fraction(x) for x in h], common)
    if rem:
        raise ExactDivisionError("h is not divisible by the common t-factor")
    # renormalize so h(0) = 1; the same rescaling applies inversely to g
    scale = quot_h[0]
    quot_h = [x / scale for x in quot_h]
    new_g_terms = {}
    for e in q_exps:
        slice_coeffs = [Fraction(g.coeff(e, b)) for b in range(g.t_degree() + 1)]
        q_slice, rem = tpoly_divmod(slice_coeffs, common)
        if rem:
            raise ExactDivisionError(f"q^{e} slice of g is not divisible by the common t-factor")
        for b, coeff in enumerate(q_slice):
            if coeff:
                new_g_terms[(e, b)] = coeff / scale
    return QTPoly(new_g_terms), quot_h


def _roundtrip_ok(gh: GHPair, cm: CmSeries) -> bool:
    """Series check: g/(h eta_m) reproduces the input c_m expansion through t^order.

    h eta_m has constant term 1, so it is a unit in Q(q)[[t]] and the check is
    g = (c_m eta_m) h mod t^(order+1), with nothing inverted.  c_m eta_m is
    rebuilt here from cm and a fresh eta_m, one t-degree at a time, and h is
    q-free, so each term of the product is a rational times a q-row.
    """
    order = cm.order
    eta = [dict(ql.items()) for ql in eta_m(gh.m).t_coeff_list()]
    h = {b: x for (_a, b), x in gh.h.items()}
    g = [{} for _ in range(order + 1)]
    for (a, b), x in gh.g.items():
        if b <= order:
            g[b][a] = x
    ceta = []
    for j in range(order + 1):
        row = {}
        for k in range(min(j, len(eta) - 1) + 1):
            for e, x in cm.coeff(j - k).items():
                for a, y in eta[k].items():
                    row[e + a] = row.get(e + a, 0) + x * y
        ceta.append(row)
        acc = {}
        for k, hk in h.items():
            if k <= j:
                for e, x in ceta[j - k].items():
                    acc[e] = acc.get(e, 0) + hk * x
        if {e: x for e, x in acc.items() if x} != g[j]:
            return False
    return True


# -- finite sets and direct sums ----------------------------------------------


def zeta_finite_set(n: int, regular: bool = False):
    """Zeta of n classical points: (1/(1-t))^n, or the regular-orbit variant (1+t)^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if regular:
        acc = QTPoly.one()
        for _ in range(n):
            acc = acc * QTPoly({(0, 0): 1, (0, 1): 1})
        return acc
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
