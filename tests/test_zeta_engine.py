import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
import sympy

import qzeta.sl2 as sl2
from qzeta import (
    CmSeries,
    FitFailed,
    GHPair,
    QLaurent,
    QTPoly,
    QZetaError,
    Sl2Decomposition,
    TSeries,
    cm_from_zeta,
    cm_recursion_step,
    cm_series_cs,
    character,
    cs_sym_power,
    eta_m,
    fit_gh,
    geometric_series,
    q_int_sym,
    verify_functional_eq,
    zeta_direct_sum,
    zeta_finite_set,
    zeta_from_cm,
    zeta_cn_series,
    zeta_vm_closed,
)
from qzeta.errors import ExactDivisionError, NoSolution
from qzeta.linalg import solve_linear
from qzeta.qtpoly import FactoredRatQT
from qzeta.refdata import reference_cm_closed, reference_gh
from qzeta.qlaurent import _from_digits, _unpack
from qzeta.zeta_engine import (
    _BerlekampMassey,
    _certify,
    _cm_eta_rows,
    _eta_exponents,
    _eta_rows,
    _fit_width,
    _width_for,
)
from test_qlaurent import tpoly_divmod, tpoly_gcd, tpoly_trim
from test_tseries import _over_one_minus_rows


def test_zeta_vm_closed_structure():
    assert zeta_vm_closed(1).factors == (((-1, 1), 1), ((1, 1), 1))
    assert zeta_vm_closed(0).factors == (((0, 1), 1),)
    assert zeta_vm_closed(3).factors == (((-3, 1), 1), ((-1, 1), 1), ((1, 1), 1), ((3, 1), 1))


def test_cm_series_low_cases():
    c1 = cm_series_cs(1, 5)
    assert all(c1.coeff(j) == QLaurent({j: 1}) for j in range(6))
    c2 = cm_series_cs(2, 2)
    assert c2.coeff(0) == QLaurent({0: 1})
    assert c2.coeff(1) == QLaurent({2: 1})
    assert c2.coeff(2) == QLaurent({4: 1, 0: 1})
    c0 = cm_series_cs(0, 4)
    assert all(c0.coeff(j) == QLaurent({0: 1}) for j in range(5))


def test_zeta_from_cm():
    z1 = zeta_from_cm(cm_series_cs(1, 6))
    assert all(z1.coeff(j) == q_int_sym(j + 1) for j in range(7))
    z0 = zeta_from_cm(cm_series_cs(0, 4))
    assert all(z0.coeff(j) == QLaurent({0: 1}) for j in range(5))
    assert zeta_from_cm(cm_series_cs(2, 20)) == zeta_vm_closed(2).expand(20)


def test_cm_from_zeta():
    got = cm_from_zeta(1, zeta_vm_closed(1).expand(3))
    assert [got.coeff(j) for j in range(4)] == [QLaurent({j: 1}) for j in range(4)]
    got0 = cm_from_zeta(0, zeta_vm_closed(0).expand(5))
    assert all(got0.coeff(j) == QLaurent({0: 1}) for j in range(6))
    assert cm_from_zeta(2, zeta_vm_closed(2).expand(12)) == cm_series_cs(2, 12)


def test_cm_validation():
    with pytest.raises(QZetaError):
        CmSeries(2, 1, [QLaurent({0: 1}), QLaurent({1: 1})])      # parity violation
    with pytest.raises(QZetaError):
        CmSeries(2, 1, [QLaurent({0: 1}), QLaurent({2: F(1, 2)})])  # non-integer
    with pytest.raises(QZetaError):
        CmSeries(1, 1, [QLaurent({0: 1}), QLaurent({3: 1})])      # support too wide


def test_recursion_steps():
    for m in (2, 3, 4, 5, 6):
        prev = cm_series_cs(m - 2, 10)
        assert cm_recursion_step(m, prev, 10) == cm_series_cs(m, 10), m
    with pytest.raises(QZetaError):
        cm_recursion_step(4, cm_series_cs(2, 5), 10)
    with pytest.raises(ValueError):
        cm_recursion_step(4, cm_series_cs(1, 10), 10)


def _zeta_from_cm_by_division(c):
    """Oracle: (q c_m(t,q) - q^-1 c_m(t,q^-1)) / (q - q^-1) by QLaurent.exact_div, per t-degree."""
    q, q_inv, q_minus_q_inv = QLaurent({1: 1}), QLaurent({-1: 1}), QLaurent({1: 1, -1: -1})
    out = []
    for ql in c.table:
        num = q * ql - q_inv * ql.invert_q()
        try:
            out.append(num.exact_div(q_minus_q_inv))
        except ExactDivisionError as exc:
            raise QZetaError("invalid CmSeries: coefficient not divisible by q - q^-1") from exc
    return TSeries(c.order, out)


def _cm_from_zeta_by_parts(m, z):
    """Oracle: multiply each zeta_j by q - q^-1, check its q^0 part is 0, keep the positive part over q."""
    q_inv, q_minus_q_inv = QLaurent({-1: 1}), QLaurent({1: 1, -1: -1})
    table = []
    for j in range(z.order + 1):
        w = q_minus_q_inv * z.coeff(j)
        if w.coeff(0):
            raise QZetaError(f"q^0 part of (q - q^-1) zeta_{j} does not vanish")
        table.append(QLaurent({e: c for e, c in w.items() if e > 0}) * q_inv)
    c = CmSeries(m, z.order, table)
    if _zeta_from_cm_by_division(c) != z:
        raise QZetaError("round-trip mismatch: extracted c_m does not reproduce the zeta series")
    return c


def _typed_rows(rows):
    """Sorted terms of each row, each checked to have int exponents and nonzero int coefficients.

    The integer kernels hand their rows to ``QLaurent._wrap`` unchecked, so a
    Fraction(2) or a zero that one of them let through shows here.
    """
    out = [sorted(ql.items()) for ql in rows]
    assert all(type(e) is int and type(c) is int and c for row in out for e, c in row)
    return out


def test_character_kernels_match_laurent_division():
    for m in range(11):
        c = cm_series_cs(m, 30)
        z = zeta_from_cm(c)
        assert _typed_rows(z.coeffs()) == _typed_rows(_zeta_from_cm_by_division(c).coeffs()), m
        closed = zeta_vm_closed(m).expand(30)
        got = cm_from_zeta(m, closed)
        assert _typed_rows(got.table) == _typed_rows(_cm_from_zeta_by_parts(m, closed).table), m
        assert _typed_rows(got.table) == _typed_rows(c.table), m


@pytest.mark.parametrize("m, row, message", [
    (1, {1: 1}, "q\\^0 part"),                      # zeta_1[-1] = 0 != zeta_1[1]
    (2, {2: 1, -2: 1}, "multiplicity -1"),          # c_{1,0} = zeta_1[0] - zeta_1[2] = -1
    (1, {F(1, 2): 1, F(-1, 2): 1}, "q-exponent 1/2"),
    (1, {1: 1, -1: 1, -3: 1}, "round-trip mismatch"),  # not symmetric under q -> q^-1
])
def test_cm_from_zeta_refuses_bad_series(m, row, message):
    z = TSeries(1, [QLaurent.one(), QLaurent(row)])
    with pytest.raises(QZetaError, match=message):
        cm_from_zeta(m, z)
    with pytest.raises(QZetaError):
        _cm_from_zeta_by_parts(m, z)


def test_cm_from_zeta_turns_integral_fraction_differences_into_ints():
    # no genuine character has a Fraction coefficient, but the differences of
    # one that does may be integral: c_{1,0} = 5/2 - 3/2 = Fraction(1) passes
    # as the int 1, and the refusal names the top multiplicity 3/2
    z = TSeries(1, [QLaurent.one(), QLaurent({2: F(3, 2), 0: F(5, 2), -2: F(3, 2)})])
    with pytest.raises(QZetaError, match=r"t\^1 q\^2 multiplicity 3/2"):
        cm_from_zeta(2, z)


def test_cm_series_rejects_negative_order():
    with pytest.raises(ValueError, match="order must be non-negative"):
        cm_series_cs(3, -1)
    with pytest.raises(ValueError, match="order must be non-negative"):
        CmSeries(3, -1, [])


def _shift_t(s, k, qfactor):
    """s * t^k * qfactor for k >= 0, keeping the order of s."""
    out = [QLaurent() for _ in range(s.order + 1)]
    for j in range(s.order + 1 - k):
        out[j + k] = s.coeff(j) * qfactor
    return TSeries(s.order, out)


def _cm_recursion_step_by_products(m, prev, order):
    """Oracle: the recursion with every 1/(1 - q^a t^b) a whole geometric series, by TSeries.__mul__."""
    geom_plus = geometric_series(m, order)
    geom_minus = geometric_series(-m, order)
    prev_s = TSeries(order, prev.table[: order + 1])
    t1 = prev_s * geom_plus * geom_minus
    by_p = {}
    for j, ql in enumerate(prev.table[: order + 1]):
        for p, coeff in ql.items():
            by_p.setdefault(p, [0] * (order + 1))[j] = coeff
    s2 = TSeries(order)
    s3 = TSeries(order)
    for p, coeffs in by_p.items():
        ser = TSeries(order, [QLaurent({0: c}) if c else QLaurent() for c in coeffs])
        fl = p // m
        s2 = s2 + _shift_t(ser, fl, QLaurent({p - m * fl: 1}))
        ce = -((-(p + 2)) // m)
        s3 = s3 + _shift_t(ser, ce, QLaurent({-p + m * ce: 1}))
    inv_1mt2 = geometric_series(0, order, 2)
    t2 = _shift_t(s2 * geom_minus, 1, QLaurent({-m: 1})) * inv_1mt2
    t3 = (s3 * geom_plus) * QLaurent({-2: 1}) * inv_1mt2
    return CmSeries(m, order, (t1 - t2 - t3).coeffs())


def _canon(c):
    """The table with its exact number types: int 2 and Fraction(2) differ here."""
    return c.m, c.order, [sorted((e, type(e).__name__, x, type(x).__name__) for e, x in row.items()) for row in c.table]


def test_recursion_step_matches_products():
    for m in range(2, 11):
        for order in (0, 1, 5, 30):
            prev = cm_series_cs(m - 2, order)
            got = cm_recursion_step(m, prev, order)
            assert _canon(got) == _canon(_cm_recursion_step_by_products(m, prev, order)), (m, order)


def _cm_recursion_step_by_rows(m, prev, order):
    """Oracle: cm_recursion_step as it ran on {q-exponent: int} rows, before rows were packed."""
    table = prev.table[: order + 1]
    rows = [dict(ql.items()) for ql in table]
    _over_one_minus_rows(rows, m, 1, 1)
    _over_one_minus_rows(rows, -m, 1, 1)
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
    _over_one_minus_rows(s2, -m, 1, 1)
    _over_one_minus_rows(s3, m, 1, 1)
    _add_rows(s2, s3, 1)
    _over_one_minus_rows(s2, 0, 2, 1)
    _add_rows(rows, s2, -1)
    return CmSeries(m, order, [QLaurent.from_sums(row) for row in rows])


def _add_rows(rows: list, other: list, sign: int) -> None:
    """rows[j] += sign * other[j] for {q-exponent: int} rows, in place, zeros removed."""
    for row, add in zip(rows, other):
        for e, c in add.items():
            v = row.get(e, 0) + sign * c
            if v:
                row[e] = v
            else:
                del row[e]


def test_packed_recursion_matches_the_dict_rows():
    for m in range(2, 13):
        prev = cm_series_cs(m - 2, 40)
        for order in (0, 1, 2, 40):
            got = cm_recursion_step(m, prev, order)
            assert _canon(got) == _canon(_cm_recursion_step_by_rows(m, prev, order)), (m, order)


def test_packed_recursion_matches_the_dict_rows_on_arbitrary_series():
    # prev any valid CmSeries, not c_(m-2): the two routes give the same rows,
    # or both refuse the same t-degree (the term named first follows the row's
    # term order, which differs between the routes)
    rng = random.Random(41)
    outcomes = set()
    for _ in range(60):
        m, order = rng.randrange(2, 9), rng.randrange(0, 10)
        k = m - 2
        table = [QLaurent({p: rng.randrange(1, 10**rng.randrange(1, 25))
                           for p in range(j * k % 2, j * k + 1, 2) if rng.random() < 0.5})
                 for j in range(order + 1)]
        prev = CmSeries(k, order, table)
        results = []
        for route in (cm_recursion_step, _cm_recursion_step_by_rows):
            try:
                results.append(_canon(route(m, prev, order)))
            except QZetaError as exc:
                results.append(re.match(r"invalid CmSeries: t\^\d+ ", str(exc)).group())
        assert results[0] == results[1], (m, order)
        outcomes.add(type(results[0]))
    assert outcomes == {tuple, str}


def test_recursion_chains_match_cayley_sylvester():
    chain = {0: cm_series_cs(0, 30), 1: cm_series_cs(1, 30)}
    for m in range(2, 11):
        chain[m] = cm_recursion_step(m, chain[m - 2], 30)
        assert chain[m] == cm_series_cs(m, 30), m


def test_eta_m():
    assert eta_m(4) == QTPoly({(0, 0): 1, (2, 1): -1, (4, 1): -1, (6, 2): 1})
    q1 = QTPoly({(0, 0): 1, (1, 1): -1})
    q3 = QTPoly({(0, 0): 1, (3, 1): -1})
    q5 = QTPoly({(0, 0): 1, (5, 1): -1})
    assert eta_m(5) == q1 * q3 * q5
    assert eta_m(0) == QTPoly.one()


def test_eta_m_rows_match_the_factor_products():
    """The shift-and-subtract rows of ``_eta_rows`` give the very QTPoly that one product per factor gives.

    ``_eta_rows`` runs on the series 1 through t^r, r the number of factors,
    and each row is decoded: the coefficients are at most 2^r in size.
    """
    for m in range(13):
        acc = QTPoly.one()
        for e in range(2 - m % 2, m + 1, 2):
            acc = acc * QTPoly({(0, 0): 1, (e, 1): -1})
        r = len(_eta_exponents(m))
        width = _width_for(1 << r)
        rows = itertools.islice(_eta_rows(m, itertools.chain([1], itertools.repeat(0)), width), r + 1)
        got = QTPoly.from_qlaurent_t_coeffs([_from_digits(_unpack(v, width), j * m % 2, 2) for j, v in enumerate(rows)])
        assert repr(got) == repr(acc), m
        assert got == acc == eta_m(m), m


def test_functional_equation_cases():
    one = QTPoly.one()
    assert verify_functional_eq(1, GHPair(1, one, one))
    assert verify_functional_eq(2, GHPair(2, one, QTPoly({(0, 0): 1, (0, 2): -1})))
    gh5 = reference_gh(5)
    assert verify_functional_eq(5, gh5)
    perturbed = GHPair(5, gh5.g + QTPoly({(2, 3): 1}), gh5.h)
    assert not verify_functional_eq(5, perturbed)


def _verify_functional_eq_by_products(m: int, gh: GHPair) -> bool:
    """Oracle: the functional equation as one QTPoly identity, every product a full QTPoly product."""
    eta = eta_m(m)
    qq = QTPoly({(1, 0): 1})
    qq_inv = QTPoly({(-1, 0): 1})
    lhs = qq * gh.g * eta.invert_q() - qq_inv * gh.g.invert_q() * eta
    rhs = (qq - qq_inv) * gh.h
    if m % 2 == 0:
        lhs = lhs * QTPoly({(0, 0): 1, (0, 1): -1})
    return lhs == rhs


_CAPS = {9: 80, 10: 45, 11: 120, 12: 61, 13: 160, 14: 91}


@pytest.fixture(scope="module")
def fitted_pairs():
    """fit_gh(m) for m = 2..12 at the caps the acceptance gates use."""
    return {m: fit_gh(m, _CAPS.get(m, 40)) for m in range(2, 13)}


def test_integer_kernel_rows_are_int(fitted_pairs):
    # every one of these rows goes to QLaurent._wrap without a canonical pass
    for m in range(13):
        c = cm_series_cs(m, 24)
        _typed_rows(c.table)
        _typed_rows(zeta_from_cm(c).coeffs())
        _typed_rows(zeta_cn_series(m + 1, 24).coeffs())
        _typed_rows([character(cs_sym_power(m, j)) for j in range(10)])
        if m >= 2:
            _typed_rows(fitted_pairs[m].g.t_coeff_list())


def _fe_variants(gh):
    """(label, pair, holds): gh itself, pairs the equation refuses, and pairs it still accepts.

    delta = q^-1 eta_m(t, q) s(t, q) with s(q) = s(1/q) adds nothing to the left
    side, since q delta(q) eta(1/q) is then symmetric under q -> 1/q; with
    s = (q^(1/2) + q^(-1/2)) t / 2 the pair has half-integer exponents and
    Fraction coefficients.
    """
    m, g, h = gh.m, gh.g, gh.h
    yield "fitted", gh, True
    a, b = max(((b, a) for (a, b), _c in g.items() if b), default=(1, 1))[::-1]
    yield "g top", GHPair(m, g + QTPoly({(a, b): 1}), h), False
    yield "g low", GHPair(m, g + QTPoly({(0, 1): F(1, 3)}), h), False
    yield "g q^-1", GHPair(m, g + QTPoly({(-1, 2): 1}), h), False
    yield "h term", GHPair(m, g, h + QTPoly({(0, h.t_degree() + 1): 1})), False
    yield "h coefficient", GHPair(m, g, h + QTPoly({(0, 1): 1})), False
    s = QTPoly({(F(1, 2), 1): F(1, 2), (F(-1, 2), 1): F(1, 2)})
    delta = QTPoly({(-1, 0): 1}) * eta_m(m) * s
    yield "delta", GHPair(m, g + delta, h), True
    yield "delta, h term", GHPair(m, g + delta, h + QTPoly({(0, 2): F(1, 2)})), False


def test_functional_equation_matches_the_qtpoly_product(fitted_pairs):
    checked = 0
    for m, gh in fitted_pairs.items():
        for label, pair, holds in _fe_variants(gh):
            assert verify_functional_eq(m, pair) is holds, (m, label)
            assert _verify_functional_eq_by_products(m, pair) is holds, (m, label)
            checked += 1
    assert checked == 11 * 8


def test_fit_small():
    gh3 = fit_gh(3)
    assert gh3.g == QTPoly({(0, 0): 1, (1, 1): -1, (2, 2): 1})
    assert gh3.h == QTPoly({(0, 0): 1, (0, 4): -1})
    gh2 = fit_gh(2)
    assert gh2.g == QTPoly.one()
    assert gh2.h == QTPoly({(0, 0): 1, (0, 2): -1})


def test_fit_matches_reference():
    gh5 = fit_gh(5)
    ref = reference_gh(5)
    assert gh5.g == ref.g and gh5.h == ref.h


def _counting_rows(real, seen):
    """cs_rows_packed that appends j to seen as row j is pulled."""

    def rows(m, width):
        for j, row in enumerate(real(m, width)):
            seen.append(j)
            yield row

    return rows


def test_fit_extends_cm_rows_once(monkeypatch):
    # each t-degree of c_m is built once, however many candidates are certified
    import qzeta.zeta_engine as ze

    calls = []
    monkeypatch.setattr(ze, "cs_rows_packed", _counting_rows(ze.cs_rows_packed, calls))
    gh5 = fit_gh(5)
    assert calls == list(range(len(calls)))
    assert len(calls) == gh5.g.t_degree() + gh5.h.t_degree() + 7


def _fit_gh_by_search(m: int, max_h_degree: int = 40) -> GHPair:
    """Oracle: fit_gh's route before Berlekamp-Massey, a search over deg h.

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
        for j in range(len(rows), order + 1):
            rows.append(QLaurent(cs_sym_power(m, j).parts))
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
        values, free_dim = solve_linear(rows, rhs)
    except NoSolution:
        return None
    if free_dim:
        return None
    return [F(1)] + values


def _strip_common_t_factor(g: QTPoly, h):
    """Divide out any common t-polynomial factor of h and all q-slices of g."""
    q_exps = sorted({a for (a, _b), _c in g.items()})
    common = tpoly_trim([F(x) for x in h])
    for e in q_exps:
        slice_coeffs = [F(g.coeff(e, b)) for b in range(g.t_degree() + 1)]
        common = tpoly_gcd(common, slice_coeffs)
        if len(common) <= 1:
            return g, h
    quot_h, rem = tpoly_divmod([F(x) for x in h], common)
    if rem:
        raise ExactDivisionError("h is not divisible by the common t-factor")
    # renormalize so h(0) = 1; the same rescaling applies inversely to g
    scale = quot_h[0]
    quot_h = [x / scale for x in quot_h]
    new_g_terms = {}
    for e in q_exps:
        slice_coeffs = [F(g.coeff(e, b)) for b in range(g.t_degree() + 1)]
        q_slice, rem = tpoly_divmod(slice_coeffs, common)
        if rem:
            raise ExactDivisionError(f"q^{e} slice of g is not divisible by the common t-factor")
        for b, coeff in enumerate(q_slice):
            if coeff:
                new_g_terms[(e, b)] = coeff / scale
    return QTPoly(new_g_terms), quot_h


def test_fit_matches_deg_h_search():
    for m in range(2, 9):
        assert fit_gh(m) == _fit_gh_by_search(m), m


def test_fit_restarts_at_next_point_when_a_factor_is_lost(monkeypatch):
    # Modulo the small prime 13 the specialised sequence has a shorter
    # recurrence than h (a factor of h cancels against g there); that
    # candidate must fail certification and the fit must go on at the next
    # point, on the rows already built: no t-degree of c_m is built twice
    # across the restart.
    import qzeta.zeta_engine as ze

    defaults = {m: fit_gh(m) for m in (5, 6, 8)}
    certified = []
    built = []
    real = ze._certify

    def recording(m, h, *args):
        gh = real(m, h, *args)  # drops h's trailing zeros in place
        certified.append((len(h) - 1, gh))
        return gh

    monkeypatch.setattr(ze, "_certify", recording)
    monkeypatch.setattr(ze, "cs_rows_packed", _counting_rows(ze.cs_rows_packed, built))
    monkeypatch.setattr(ze, "_BM_POINTS", (13, 2**61 - 1))
    for m in (5, 6, 8):
        certified.clear()
        built.clear()
        assert fit_gh(m) == defaults[m]
        lost_deg, refused = certified[0]
        assert refused is None and lost_deg < defaults[m].h.t_degree(), m
        assert certified[-1][1] == defaults[m]
        assert built == list(range(len(built))), m


_T = sympy.Symbol("t")


def _cyclotomic_indices(h: QTPoly) -> list:
    """Sorted k of the Phi_k dividing h, with multiplicity, by sympy's factorisation.

    Asserts that h is +-1 times a product of cyclotomic polynomials.
    """
    coeffs = {(b,): F(c) for (_a, b), c in h.items()}
    assert all(c.denominator == 1 for c in coeffs.values()), h
    poly = sympy.Poly.from_dict({e: int(c) for e, c in coeffs.items()}, _T, domain="ZZ")
    unit, factors = poly.factor_list()
    assert unit in (1, -1), h
    ks = []
    for f, mult in factors:
        d = f.degree()
        # phi(k) >= sqrt(k / 2), so phi(k) = d bounds k by 2 d^2
        k = next((k for k in range(1, 2 * d * d + 1) if sympy.totient(k) == d
                  and f == sympy.Poly(sympy.cyclotomic_poly(k, _T), _T, domain="ZZ")), None)
        assert k is not None, (h, f)
        ks += [k] * mult
    return sorted(ks)


def _assert_cyclotomic_h(gh: GHPair):
    """h_m is +-1 times a product of Phi_k, with the largest k and deg h observed for m = 2..16.

    Measured structure, not a proven one: fit_gh assumes neither claim.  The
    largest k is 2m - 2 for odd m and m - 1 for even m >= 4; deg h is
    (m - 2)(m + 1) for odd m >= 3, m(m - 1)/2 for m = 2 (mod 4), m >= 6, and
    m^2/2 - m + 1 for m = 0 (mod 4).
    """
    m = gh.m
    ks = _cyclotomic_indices(gh.h)
    dh = gh.h.t_degree()
    if m % 2:
        assert (ks[-1], dh) == (2 * m - 2, (m - 2) * (m + 1)), m
    elif m >= 4:
        assert ks[-1] == m - 1, m
        assert dh == (m * (m - 1) // 2 if m % 4 == 2 else m * m // 2 - m + 1), m


@pytest.mark.parametrize("m", [7, 8, 10, 12])
def test_lemma46_beyond_m6(m):
    # Lemma 4.6 past the m <= 6 range of crit 09.  fit_gh(7) lands on
    # deg h = 40, which is exactly the default max_h_degree; m = 10, 12 run
    # with a cap raised to their deg h, and fit_gh(9) is checked below.
    dh, dg = {7: (40, 36), 8: (25, 20), 10: (45, 39), 12: (61, 54)}[m]
    gh = fit_gh(m, max_h_degree=max(dh, 40))
    eta = eta_m(m)
    assert verify_functional_eq(m, gh)
    assert gh.g.q_degree() - eta.q_degree() == -2
    assert gh.g.t_degree() - gh.h.t_degree() - eta.t_degree() == -(m + 1)
    assert (gh.h.t_degree(), gh.g.t_degree()) == (dh, dg)
    _assert_cyclotomic_h(gh)


def test_lemma46_m9_past_default_cap():
    gh = fit_gh(9, max_h_degree=80)
    eta = eta_m(9)
    assert verify_functional_eq(9, gh)
    assert gh.g.q_degree() - eta.q_degree() == -2
    assert gh.g.t_degree() - gh.h.t_degree() - eta.t_degree() == -(9 + 1)
    assert (gh.h.t_degree(), gh.g.t_degree()) == (70, 65)
    _assert_cyclotomic_h(gh)


@pytest.mark.parametrize("m, cap, dh, dg", [
    (11, 120, 108, 102), (14, 91, 91, 83), (13, 154, 154, 147), (15, 208, 208, 200), (16, 113, 113, 104),
])
def test_lemma46_m11_m14_with_raised_caps(m, cap, dh, dg):
    # each cap is explicit: the default of 40 stops every one of these fits,
    # and m = 13..16 land exactly on their caps
    gh = fit_gh(m, max_h_degree=cap)
    eta = eta_m(m)
    assert verify_functional_eq(m, gh)
    assert gh.g.q_degree() - eta.q_degree() == -2
    assert gh.g.t_degree() - gh.h.t_degree() - eta.t_degree() == -(m + 1)
    assert (gh.h.t_degree(), gh.g.t_degree()) == (dh, dg)
    if m != 15:
        # sympy factors each of the other h in about a second or less, h_15
        # (degree 208) in about 3 s
        _assert_cyclotomic_h(gh)


def test_fit_rejects_empty_search():
    with pytest.raises(ValueError):
        fit_gh(5, max_h_degree=0)


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


def _roundtrip_by_inversion(gh, cm):
    """Oracle: invert h eta_m as a power series and compare g/(h eta_m) with c_m."""
    order = cm.order
    denom = (gh.h * eta_m(gh.m)).to_tseries(order)
    series = gh.g.to_tseries(order) * denom.invert_unit()
    return series == cm.to_tseries()


@pytest.fixture(scope="module")
def fitted_roundtrips():
    """(gh, order) of every pair fit_gh(m) accepts for m = 2..8, with the order it certified."""
    import qzeta.zeta_engine as ze

    seen = []
    real = ze._certify

    def recording(m, conn, n, *args):
        gh = real(m, conn, n, *args)
        if gh is not None:
            # the order _certify extends the rows to and checks the tail through
            seen.append((gh, max(gh.g.t_degree() + gh.h.t_degree() + 6, n - 1)))
        return gh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ze, "_certify", recording)
        fitted = {m: fit_gh(m) for m in range(2, 9)}
    assert [gh for gh, _order in seen] == list(fitted.values())
    for gh in fitted.values():
        _assert_cyclotomic_h(gh)
    return seen


def test_roundtrip_routes_accept_every_fitted_pair(fitted_roundtrips):
    for gh, order in fitted_roundtrips:
        cm = cm_series_cs(gh.m, order)
        assert _roundtrip_ok(gh, cm) and _roundtrip_by_inversion(gh, cm), gh.m


def _corrupted(gh, cm):
    """One coefficient of g changed; a term added to h past deg g; the top row of c_m changed."""
    (a, b), _c = max(gh.g.items(), key=lambda term: (term[0][1], term[0][0]))
    yield "g", GHPair(gh.m, gh.g + QTPoly({(a, b): 1}), gh.h), cm
    yield "h", GHPair(gh.m, gh.g, gh.h + QTPoly({(0, gh.g.t_degree() + 1): 1})), cm
    top = cm.table[-1] + QLaurent({cm.table[-1].degree(): 1})
    yield "c", gh, CmSeries(cm.m, cm.order, cm.table[:-1] + [top])


def test_roundtrip_routes_reject_corrupted_pairs(fitted_roundtrips):
    checked = 0
    for gh, order in fitted_roundtrips:
        if gh.m not in (3, 4, 5, 6):
            continue
        for label, bad_gh, bad_cm in _corrupted(gh, cm_series_cs(gh.m, order)):
            assert not _roundtrip_ok(bad_gh, bad_cm), (gh.m, label)
            assert not _roundtrip_by_inversion(bad_gh, bad_cm), (gh.m, label)
            checked += 1
    assert checked == 12


def _pack(row: dict, j: int, m: int, width: int) -> int:
    """A {q-exponent: int} row of c_m eta_m packed in fit_gh's layout: digit d is q^(2d + jm % 2)."""
    return sum(x << width * ((e - j * m % 2) // 2) for e, x in row.items())


def _certify_by_dicts(m: int, conn: list, n: int, eta: QTPoly, ceta: list, extend):
    """Oracle: _certify on {q-exponent: int} rows, with conn any integer connection polynomial.

    The route fit_gh took before packed rows: h = conn / conn[0] if conn[0]
    divides every entry, g and the tail of (c_m eta_m) h one dict product
    per t-degree, then the q-degree claim and the QTPoly functional equation.
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
    if not _verify_functional_eq_by_products(m, gh):
        return None
    return gh


def test_certify_enforces_the_round_trip(fitted_roundtrips):
    # _certify's tail check is the only round trip in src/: a wrong h or a
    # wrong c_m eta_m row must be refused, not pass on the other checks.
    # The packed route and the dict-row oracle decide every case alike.
    checked = 0
    for gh, order in fitted_roundtrips:
        m = gh.m
        if m not in (3, 4, 5, 6):
            continue
        eta = eta_m(m)
        width = _fit_width(m, 40)
        # c_m eta_m built by the TSeries product, not by fit_gh's row stream
        product = cm_series_cs(m, order).to_tseries() * eta.to_tseries(order)
        ceta = [dict(ql.items()) for ql in product.coeffs()]
        h = [int(gh.h.coeff(0, b)) for b in range(gh.h.t_degree() + 1)]

        def certify(h, rows):
            packed = [_pack(row, j, m, width) for j, row in enumerate(rows)]
            got = _certify(m, list(h), order + 1, packed, lambda _order: None, width)
            assert got == _certify_by_dicts(m, h, order + 1, eta, rows, lambda _order: None), m
            return got

        assert certify(h, ceta) == gh, m
        bad_h = list(h)
        bad_h[gh.g.t_degree() + 1] += 1
        assert certify(bad_h, ceta) is None, m
        top = dict(ceta[-1])
        e = max(top)
        top[e] += 1
        assert certify(h, ceta[:-1] + [top]) is None, m
        checked += 1
    assert checked == 4


def test_certify_decodes_g_rows_of_both_parities():
    # for odd m, h (1 + t) has odd-degree terms, so each row of g sums rows of
    # c_m eta_m of both parities; the unreduced pair (g (1 + t), h (1 + t))
    # passes every check, and each g row decodes both parts
    one_plus_t = QTPoly.from_t_coeffs([1, 1])
    for m in (3, 5, 7):
        gh = fit_gh(m)
        h = [int(c.coeff(0)) for c in (gh.h * one_plus_t).t_coeff_list()]
        g = gh.g * one_plus_t
        order = g.t_degree() + len(h) + 5
        width = _fit_width(m, 40)
        rows = [row for _j, row in zip(range(order + 1), _cm_eta_rows(m, width))]
        got = _certify(m, list(h), order + 1, rows, lambda _order: None, width)
        assert got == GHPair(m, g, gh.h * one_plus_t), m
        assert any({e % 2 for e, _c in row.items()} == {0, 1} for row in got.g.t_coeff_list()), m


def test_certify_rejects_each_failed_check(monkeypatch):
    import qzeta.zeta_engine as ze

    m, gh = 5, reference_gh(5)
    h = [int(gh.h.coeff(0, b)) for b in range(gh.h.t_degree() + 1)]
    order = gh.g.t_degree() + gh.h.t_degree() + 6
    width = _fit_width(m, 40)
    rows = [row for _j, row in zip(range(order + 1), _cm_eta_rows(m, width))]
    fe_calls = []

    def recording_fe(m, gh):
        fe_calls.append(gh)
        return True

    monkeypatch.setattr(ze, "verify_functional_eq", recording_fe)

    def certify(h, packed=rows, width=width):
        return _certify(m, list(h), order + 1, packed, lambda _order: None, width)

    assert certify(h) == gh
    assert certify(h + [0]) == gh                  # trailing zeros of h are dropped
    assert len(fe_calls) == 2
    assert certify([1]) is None                    # deg g = 0 + 3 - 6 < 0
    # c_m eta_m times q^2: g passes the tail check but has the wrong q-degree
    assert certify(h, [v << width for v in rows]) is None
    assert len(fe_calls) == 2
    # the same rows at width 24 hold every coefficient, but not the bound
    # sum|h_k| 2^3 binomial(5 + 39, 5) >= 2^23: a vanishing tail is not
    # accepted, it asks for a wider packing; a nonzero tail still refuses
    narrow = [_pack(row, j, m, 24) for j, row in enumerate(_cm_eta_rows_by_convolution(m, order))]
    with pytest.raises(ze._Repack) as repack:
        certify(h, narrow, 24)
    assert repack.value.width == _width_for((sum(map(abs, h)) << 3) * math.comb(5 + order, 5)) > 24
    bad_h = list(h)
    bad_h[gh.g.t_degree() + 1] += 1
    assert certify(bad_h, narrow, 24) is None
    assert len(fe_calls) == 2
    monkeypatch.setattr(ze, "verify_functional_eq", lambda m, gh: False)
    assert certify(h) is None


def test_fit_fails_when_no_candidate_certifies(monkeypatch):
    import qzeta.zeta_engine as ze

    calls = []
    monkeypatch.setattr(ze, "_certify", lambda *args: calls.append(args[2]))
    with pytest.raises(FitFailed, match="no candidate certified"):
        fit_gh(3)
    assert calls


def test_fit_inverts_and_multiplies_no_series(monkeypatch):
    from qzeta.tseries import TSeries

    calls = []
    for name in ("invert_unit", "__mul__", "__rmul__"):
        real = getattr(TSeries, name)
        monkeypatch.setattr(TSeries, name,
                            lambda self, *args, _name=name, _real=real: calls.append(_name) or _real(self, *args))
    fit_gh(5)
    assert calls == []
    one = TSeries.one(2)
    one.invert_unit() * one
    assert calls == ["invert_unit", "__mul__"]


def _cm_eta_rows_by_convolution(m: int, order: int) -> list:
    """Oracle: the rows of c_m eta_m through t^order, each c_m row convolved with the expanded eta_m."""
    eta_t = [dict(ql.items()) for ql in eta_m(m).t_coeff_list()]
    rows, ceta = [], []
    for j in range(order + 1):
        rows.append(cs_sym_power(m, j).parts)
        row = {}
        for k in range(min(j, len(eta_t) - 1) + 1):
            for e, x in rows[j - k].items():
                for a, y in eta_t[k].items():
                    row[e + a] = row.get(e + a, 0) + x * y
        ceta.append({e: x for e, x in row.items() if x})
    return ceta


def _unpack_row(v: int, j: int, m: int, width: int) -> dict:
    """The {q-exponent: int} row of a packed row j of c_m eta_m."""
    return {2 * d + j * m % 2: x for d, x in enumerate(_unpack(v, width)) if x}


def test_factor_recurrence_rows_match_eta_convolution():
    for m in range(13):
        order = 40 if m <= 8 else 25
        width = _fit_width(m, 40) if m >= 2 else 64
        got = [_unpack_row(v, j, m, width) for j, v in zip(range(order + 1), _cm_eta_rows(m, width))]
        assert got == _cm_eta_rows_by_convolution(m, order), m


def test_bad_kernel_raises_through_the_row_stream(monkeypatch):
    # cm_series_cs and fit_gh read the packed kernel through one row stream,
    # whose rows take the upper half of the palindrome, G[c + d] - G[c + d + 1];
    # the patched steps decrease from the top digit down, so the first row
    # already has a negative multiplicity.
    def decreasing(a, width):
        return itertools.repeat(sum(c << width * r for r, c in enumerate([0, 1, 2, 3])))

    monkeypatch.setattr(sl2, "gaussian_steps_packed", decreasing)
    with pytest.raises(QZetaError, match="negative CS multiplicity at \\(m=2, j=0"):
        cm_series_cs(2, 3)
    with pytest.raises(QZetaError, match="negative CS multiplicity at \\(m=3, j=0"):
        fit_gh(3)


def test_cs_readers_pull_rows_from_the_one_row_stream(monkeypatch):
    # cm_series_cs, cs_sym_power and fit_gh read S^j(V_m) from sl2.cs_rows_packed,
    # one row per t-degree, in order; no other producer of CS rows is left
    import qzeta.zeta_engine as ze

    calls = {
        "cm_series_cs": lambda: cm_series_cs(5, 6),
        "cs_sym_power": lambda: cs_sym_power(5, 6),
        "fit_gh": lambda: fit_gh(5),
    }
    want = {name: call() for name, call in calls.items()}
    pulled = []
    counting = _counting_rows(sl2.cs_rows_packed, pulled)
    monkeypatch.setattr(sl2, "cs_rows_packed", counting)
    monkeypatch.setattr(ze, "cs_rows_packed", counting)
    for name, call in calls.items():
        pulled.clear()
        assert call() == want[name], name
        assert pulled and pulled == list(range(len(pulled))), name
        # rows 0..6 of c_5 for cm_series_cs(5, 6); S^6(V_5) = S^5(V_6) is row 5 of c_6, so rows 0..5;
        # the fit reads as many as its certificate needs
        assert name == "fit_gh" or len(pulled) == {"cm_series_cs": 7, "cs_sym_power": 6}[name], name


class _FractionBerlekampMassey:
    """Oracle: Berlekamp-Massey over Q (Massey 1969), C normalised to C_0 = 1.

    The route fit_gh took before the fraction-free update: the same
    recurrence, with every coefficient a Fraction.
    """

    def __init__(self):
        self.terms = []
        self.c = [F(1)]
        self.b = [F(1)]
        self.length = 0
        self.shift = 1
        self.last = F(1)

    def feed(self, s) -> None:
        terms, c = self.terms, self.c
        terms.append(s)
        n = len(terms) - 1
        d = sum(ci * terms[n - i] for i, ci in enumerate(c) if ci)
        if d == 0:
            self.shift += 1
            return
        coef = d / self.last
        new = c + [0] * (self.shift + len(self.b) - len(c))
        for i, bi in enumerate(self.b):
            if bi:
                new[i + self.shift] -= coef * bi
        if 2 * self.length <= n:
            self.b, self.last = c, d
            self.length = n + 1 - self.length
            self.shift = 1
        else:
            self.shift += 1
        self.c = new


class _IntegerBerlekampMassey:
    """Oracle: incremental fraction-free Berlekamp-Massey over Z (Massey 1969).

    The route fit_gh took before Berlekamp-Massey modulo a prime.  After
    each ``feed``, ``c`` lists the connection polynomial C as integers with
    no common factor; C_0 != 0, and C/C_0 is the connection polynomial of
    Berlekamp-Massey over Q.  A discrepancy d updates C to
    last*C - d*x^shift*B, where B is an earlier C and last is the
    discrepancy it had then, and divides out the content of the result.
    """

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


_P = 2**61 - 1


def _assert_bm_routes_agree(seq, label) -> int:
    """Feed the three routes; after every term, equal L, and C/C_0 equal over Q and mod p.

    Returns how often the integer route's |C_0| > 1.
    """
    exact, integer, modular = _FractionBerlekampMassey(), _IntegerBerlekampMassey(), _BerlekampMassey(_P)
    scaled = 0
    for n, s in enumerate(seq):
        exact.feed(s)
        integer.feed(s)
        modular.feed(s % _P)
        c0 = integer.c[0]
        assert integer.length == exact.length == modular.length, (label, n)
        assert [F(x, c0) for x in integer.c] == exact.c, (label, n)
        residues = [F(x).numerator * pow(F(x).denominator, -1, _P) % _P for x in exact.c]
        assert modular.c == residues, (label, n)
        scaled += abs(c0) > 1
    return scaled


def test_integer_bm_matches_fraction_bm_on_cm_eta_sequences():
    scaled = 0
    for m in range(2, 11):
        width = _fit_width(m, 40)
        rows = [_unpack_row(v, j, m, width) for j, v in zip(range(60), _cm_eta_rows(m, width))]
        for q0 in (1, 2, 3, 5):
            seq = [sum(x * q0**e for e, x in row.items()) for row in rows]
            scaled += _assert_bm_routes_agree(seq, (m, q0))
    assert scaled > 0


def test_integer_bm_matches_fraction_bm_on_random_sequences():
    rng = random.Random(20100729)
    scaled = 0
    for trial in range(60):
        n = rng.randrange(1, 40)
        if trial % 2:
            seq = [rng.randint(-9, 9) for _ in range(n)]
        else:
            # a random short recurrence, with a nonunit leading coefficient
            rec = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 6))]
            lead = rng.choice([1, 2, 3, -5])
            seq = [rng.randint(-3, 3) for _ in rec]
            while len(seq) < n:
                nxt = sum(r * seq[-1 - i] for i, r in enumerate(rec))
                seq.append(nxt * lead)
        scaled += _assert_bm_routes_agree(seq, trial)
    assert scaled > 0


def test_modular_bm_term_is_the_row_at_the_square_root_of_the_packing_base():
    # fit_gh feeds row j mod p, times q0 = 2^(width/2) for odd jm: the value of
    # (c_m eta_m)_j at q0, since q0^2 is the packing base 2^width
    for m in (3, 4, 5):
        width = _fit_width(m, 40)
        q0 = pow(2, width // 2, _P)
        for j, v in zip(range(30), _cm_eta_rows(m, width)):
            row = _unpack_row(v, j, m, width)
            term = v % _P * (q0 if j * m % 2 else 1) % _P
            assert term == sum(x * pow(q0, e, _P) for e, x in row.items()) % _P, (m, j)


def test_fit_repacks_when_the_width_is_too_small(monkeypatch):
    # A width too small for the rows ends the row stream; one that holds
    # the rows but not _certify's bound makes the certification ask for more.
    # Either way the fit starts again wider and returns the very same pair.
    import qzeta.zeta_engine as ze

    expected = {m: fit_gh(m) for m in (3, 5, 6, 8)}
    widths, asked = [], []
    real_fit, real_certify = ze._fit_at, ze._certify

    def fit_at(m, cap, width):
        widths.append(width)
        return real_fit(m, cap, width)

    def certify(*args):
        try:
            return real_certify(*args)
        except ze._Repack as repack:
            asked.append(repack.width)
            raise

    monkeypatch.setattr(ze, "_fit_at", fit_at)
    monkeypatch.setattr(ze, "_certify", certify)
    for m in range(2, 13):
        # the derived width decides every check of a default fit at once
        widths.clear()
        fit_gh(m, _CAPS.get(m, 40))
        assert widths == [_fit_width(m, _CAPS.get(m, 40))] and not asked, m
    monkeypatch.setattr(ze, "_fit_width", lambda m, cap: 8)
    for m, gh in expected.items():
        widths.clear()
        assert fit_gh(m) == gh, m
        assert widths[0] == 8 and len(widths) > 1, m
        assert widths == sorted(set(widths)), m

    def rows_only(m, cap):
        # the least even width that holds the rows through the order the
        # accepted certification reads; sum|h_k| 2^r >= 4 finds no room in it
        order = expected[m].g.t_degree() + expected[m].h.t_degree() + 6
        bits = math.comb(m + order, m).bit_length() + 1
        return bits + bits % 2

    monkeypatch.setattr(ze, "_fit_width", rows_only)
    for m, gh in expected.items():
        widths.clear()
        asked.clear()
        assert fit_gh(m) == gh, m
        assert len(widths) == 2 and len(asked) == 1 and widths[1] >= asked[0] > widths[0], m


def test_reference_closed_forms_match_series():
    for m in (3, 4):
        assert reference_cm_closed(m).expand(14) == cm_series_cs(m, 14).to_tseries()


def test_finite_set():
    plain = zeta_finite_set(3)
    assert isinstance(plain, FactoredRatQT)
    assert plain.factors == (((0, 1), 3),)
    regular = zeta_finite_set(3, regular=True)
    assert regular == QTPoly({(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1})
    assert zeta_finite_set(0) == FactoredRatQT(QTPoly.one())
    assert zeta_finite_set(0, regular=True) == QTPoly.one()


def test_direct_sum():
    v0 = Sl2Decomposition({0: 1})
    assert zeta_direct_sum([v0], 3) == zeta_vm_closed(0).expand(3)
    v1v1 = zeta_direct_sum([Sl2Decomposition({1: 2})], 4)
    single = zeta_vm_closed(1).expand(4)
    assert v1v1 == single * single
    mixed = zeta_direct_sum([Sl2Decomposition({0: 1}), Sl2Decomposition({2: 1})], 1)
    assert mixed.coeff(1) == QLaurent({0: 1}) + q_int_sym(3)


def test_direct_sum_matches_product_of_summand_expansions():
    for parts in ([2, 3], [Sl2Decomposition({0: 2, 3: 1}), 1],
                  [Sl2Decomposition({1: 2, 2: 2}), Sl2Decomposition({0: 1, 3: 2})]):
        product = TSeries.one(9)
        for part in parts:
            decomposition = Sl2Decomposition.irreducible(part) if isinstance(part, int) else part
            for m, mult in decomposition.parts.items():
                for _ in range(mult):
                    product = product * zeta_vm_closed(m).expand(9)
        assert zeta_direct_sum(parts, 9) == product, parts


def test_lambda_ring_spot():
    a = Sl2Decomposition({1: 1, 3: 1})
    b = Sl2Decomposition({2: 1})
    assert zeta_direct_sum([a, b], 6) == zeta_direct_sum([a], 6) * zeta_direct_sum([b], 6)
