import random
from fractions import Fraction as F

import pytest
import sympy

from qzeta import FactoredRatQT, QLaurent, QTPoly, geometric_series
from qzeta.qcombinat import q_int_sym
from qzeta.refdata import reference_cm_closed
from qzeta.weyl import zeta_cn_closed
from test_qlaurent import tpoly_divmod, tpoly_gcd


def test_expand_cn2():
    f = FactoredRatQT(QTPoly.one(), [((1, 1), 1), ((-1, 1), 1)])
    got = f.expand(2)
    assert got.coeff(0) == QLaurent({0: 1})
    assert got.coeff(1) == q_int_sym(2)
    assert got.coeff(2) == q_int_sym(3)


def test_expand_single_point():
    f = FactoredRatQT(QTPoly.one(), [((0, 1), 1)])
    assert f.expand(1).coeffs() == [QLaurent({0: 1}), QLaurent({0: 1})]


def test_expand_three_factor():
    f = FactoredRatQT(QTPoly.one(), [((2, 1), 1), ((0, 1), 1), ((-2, 1), 1)])
    assert f.expand(1).coeff(1) == QLaurent({2: 1, 0: 1, -2: 1})


def test_expand_matches_factorwise_product():
    rng = random.Random(11)
    for _ in range(8):
        n_factors = rng.randrange(1, 4)
        factors = [((rng.randrange(-3, 4), rng.randrange(1, 3)), rng.randrange(1, 3))
                   for _ in range(n_factors)]
        num = QTPoly({(rng.randrange(-2, 3), rng.randrange(0, 3)): rng.randrange(-3, 4)
                      for _ in range(3)})
        if num.is_zero:
            num = QTPoly.one()
        order = rng.randrange(2, 20)
        f = FactoredRatQT(num, factors)
        direct = f.expand(order)
        stepwise = num.to_tseries(order)
        for (a, b), mult in f.factors:
            single = geometric_series(a, order, b)
            for _ in range(mult):
                stepwise = stepwise * single
        assert direct == stepwise


def _expand_by_products(f, order):
    """Oracle: the numerator times each factor's whole geometric series, by TSeries.__mul__."""
    s = f.numerator.to_tseries(order)
    for (a, b), mult in f.factors:
        g = geometric_series(a, order, b)
        for _ in range(mult):
            s = s * g
    return s


def _canon(s):
    """Coefficients with their exact number types: int 2 and Fraction(2) differ here."""
    return s.order, [sorted((e, type(e).__name__, c, type(c).__name__) for e, c in row.items()) for row in s.coeffs()]


def test_expand_recurrence_matches_products_on_closed_forms():
    for n in range(1, 9):
        for order in (0, 1, 2, 7, 40):
            f = zeta_cn_closed(n)
            assert _canon(f.expand(order)) == _canon(_expand_by_products(f, order)), (n, order)
    for m in (3, 4):
        f = reference_cm_closed(m)
        assert _canon(f.expand(25)) == _canon(_expand_by_products(f, 25)), m


def test_expand_recurrence_matches_products_on_random_fraction_forms():
    rng = random.Random(60)
    for _ in range(60):
        factors = [((F(rng.randrange(-6, 7), rng.choice((1, 2, 3))), rng.randrange(1, 4)), rng.randrange(1, 4))
                   for _ in range(rng.randrange(1, 4))]
        num = QTPoly({(F(rng.randrange(-4, 5), rng.choice((1, 2))), rng.randrange(0, 3)):
                      F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(3)})
        f = FactoredRatQT(num, factors)
        # order 0 and orders below a factor's t-exponent included
        for order in (0, 1, 2, rng.randrange(3, 12)):
            assert _canon(f.expand(order)) == _canon(_expand_by_products(f, order)), (f, order)


def test_factored_equality_cross_multiplication():
    lhs = FactoredRatQT(QTPoly.one(), [((0, 1), 1)])                       # 1/(1-t)
    rhs = FactoredRatQT(QTPoly({(0, 0): 1, (0, 1): 1}), [((0, 2), 1)])     # (1+t)/(1-t^2)
    assert lhs == rhs
    assert not (lhs == FactoredRatQT(QTPoly.one(), [((0, 2), 1)]))


def test_qtpoly_invert_q_and_eval():
    p = QTPoly({(2, 1): 1, (0, 0): 1})
    assert p.invert_q() == QTPoly({(-2, 1): 1, (0, 0): 1})
    assert p.eval_t(F(1)) == QLaurent({2: 1, 0: 1})
    assert p.eval_t(F(-1)) == QLaurent({2: -1, 0: 1})


def test_qtpoly_negative_t_rejected():
    with pytest.raises(ValueError):
        QTPoly({(0, -1): 1})


def test_non_integral_t_exponents_and_multiplicities_rejected():
    # int() used to truncate: QTPoly({(0, 1.5): 1}) printed t, and the factor
    # ((0, 1), 2.7) printed 1/(1 - t)^2; an infinite one escaped as OverflowError
    inf = float("inf")
    for bad in (lambda: QTPoly({(0, 1.5): 1}), lambda: QTPoly.one().coeff(0, F(1, 2)),
                lambda: FactoredRatQT(QTPoly.one(), [((0, 1), 2.7)]),
                lambda: FactoredRatQT(QTPoly.one(), [((0, 1.5), 1)]),
                lambda: QTPoly({(0, inf): 1}), lambda: QTPoly.one().coeff(0, -inf),
                lambda: FactoredRatQT(QTPoly.one(), [((0, inf), 1)]),
                lambda: FactoredRatQT(QTPoly.one(), [((0, 1), inf)])):
        with pytest.raises(ValueError, match="must be an integer"):
            bad()
    assert QTPoly({(0, 2.0): 1}) == QTPoly({(0, F(2)): 1}) == QTPoly({(0, 2): 1})
    assert QTPoly({(0, 2): 3}).coeff(0, 2.0) == 3
    f = FactoredRatQT(QTPoly.one(), [((0, 1.0), F(2))])
    assert f.factors == (((0, 1), 2),) and str(f) == "1/(1 - t)^2"
    assert all(type(x) is int for (_a, b), mult in f.factors for x in (b, mult))


def test_non_exact_q_exponents_and_coefficients_rejected():
    for bad in (lambda: QTPoly({(0.5, 1): 1}), lambda: QTPoly({(0, 1): 0.25}),
                lambda: FactoredRatQT(QTPoly.one(), [((0.5, 1), 1)]),
                lambda: FactoredRatQT(QTPoly.one(), [(("1/2", 1), 1)])):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            bad()
    p = QTPoly({(2.0, 1): 3.0, (F(1, 2), 0): F(4, 2)})
    assert p == QTPoly({(2, 1): 3, (F(1, 2), 0): 2})
    assert {(type(a), type(c)) for (a, _b), c in p.items()} == {(int, int), (F, int)}
    f = FactoredRatQT(QTPoly.one(), [((2.0, 1), 1), ((F(2, 2), 1), 1)])
    assert f.factors == (((1, 1), 1), ((2, 1), 1))
    assert all(type(a) is int for (a, _b), _mult in f.factors)


def test_t_coeff_list():
    p = QTPoly({(1, 0): 2, (0, 2): 1})
    lst = p.t_coeff_list()
    assert lst[0] == QLaurent({1: 2})
    assert lst[1] == QLaurent()
    assert lst[2] == QLaurent({0: 1})


def test_tpoly_helpers():
    q, r = tpoly_divmod([F(1), F(0), F(-1)], [F(1), F(1)])
    assert q == [F(1), F(-1)] and r == []
    assert tpoly_gcd([F(1), F(0), F(-1)], [F(1), F(1)]) == [F(1), F(1)]
    assert tpoly_gcd([F(1), F(1)], [F(1), F(-1)]) == [F(1)]


# -- QTPoly arithmetic against sympy --------------------------------------------

_Q, _T = sympy.symbols("q t", positive=True)


def _sym(x):
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(p: QTPoly):
    return sum((_sym(c) * _Q ** _sym(a) * _T ** b for (a, b), c in p.items()), sympy.Integer(0))


def _sympy_terms(expr) -> dict:
    """{(q-exponent, t-exponent): coefficient} of an expanded sympy expression, as Fractions."""
    out = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        if c == 0:
            continue
        powers = mono.as_powers_dict()
        a, b = sympy.Rational(powers.get(_Q, 0)), powers.get(_T, 0)
        assert set(powers) <= {_Q, _T, 1} and b == int(b) >= 0, mono
        out[(F(int(a.p), int(a.q)), int(b))] = F(int(c.p), int(c.q))
    return out


def _terms(p) -> dict:
    """The terms of a QTPoly (or a QLaurent at t^0), checked canonical: ints or non-integral Fractions."""
    items = p.items() if isinstance(p, QTPoly) else [((a, 0), c) for a, c in p.items()]
    for (a, b), c in items:
        assert type(b) is int and c != 0
        assert all(type(x) is int or (type(x) is F and x.denominator != 1) for x in (a, c)), (a, c)
    return {(F(a), b): F(c) for (a, b), c in items}


def _random_qtpoly(rng) -> QTPoly:
    """Terms with int, third- and half-integer q-exponents, int and Fraction coefficients.

    t-exponents are drawn from a random subset of 0..4, so zero rows in the
    middle are common.
    """
    rows = rng.sample(range(5), rng.randrange(1, 4))
    exps = (-2, -1, 0, 1, 3, F(1, 2), F(-3, 2), F(2, 3), F(4, 2))
    coeffs = (-3, -1, 1, 2, 5, F(1, 2), F(-4, 3), F(6, 3))
    return QTPoly([((rng.choice(exps), rng.choice(rows)), rng.choice(coeffs))
                   for _ in range(rng.randrange(1, 6))])


def test_qtpoly_arithmetic_matches_sympy():
    rng = random.Random(1007_5084)
    cancelled_tops = 0
    for _ in range(60):
        p, r = _random_qtpoly(rng), _random_qtpoly(rng)
        # s shares r's top row, so p*r - p*s loses its top row
        s = r + QTPoly({(rng.choice((0, 1, F(1, 2))), 0): rng.choice((1, -2, F(1, 3)))})
        sp, sr, ss = _to_sympy(p), _to_sympy(r), _to_sympy(s)
        k = rng.choice((2, -3, F(3, 4), F(-5, 2)))
        cases = [
            (p + r, sp + sr), (p - r, sp - sr), (p - p, 0), (p * r, sp * sr),
            (p * r - p * s, sp * (sr - ss)), (p * k, sp * _sym(k)), (k * p, sp * _sym(k)),
            (p * 0, 0), (p + k, sp + _sym(k)), (p - k, sp - _sym(k)),
            (p.invert_q(), sp.subs(_Q, 1 / _Q)), (QTPoly(dict(p.items())), sp),
            # terms cancelling inside a product row, and in the constructor
            ((p + r) * (p - r), sp**2 - sr**2),
            (QTPoly([*p.items(), *[((a, b), -c) for (a, b), c in p.items()], *r.items()]), sr),
        ]
        for got, expected in cases:
            terms = _sympy_terms(expected)
            assert _terms(got) == terms, (p, r, got)
            assert got.is_zero == (not terms)
            if terms:
                assert got.t_degree() == max(b for _a, b in terms)
                assert got.q_degree() == max(a for a, _b in terms)
        diff = p * r - p * s
        if not diff.is_zero and diff.t_degree() < (p * r).t_degree():
            cancelled_tops += 1
        assert QTPoly(dict(p.items())) == p and hash(QTPoly(dict(p.items()))) == hash(p)
        for t0 in (F(0), F(1), F(-2, 3)):
            assert _terms(p.eval_t(t0)) == _sympy_terms(sp.subs(_T, _sym(t0)))
        for poly in (p, r, p * r, diff):
            terms = _sympy_terms(_to_sympy(poly))
            if not terms:
                assert poly.t_coeff_list() == [QLaurent()]
                continue
            rows = poly.t_coeff_list()
            assert len(rows) == poly.t_degree() + 1
            for order in (0, 1, poly.t_degree() + 2):
                series = poly.to_tseries(order)
                for j in range(order + 1):
                    row = {(a, b): c for (a, b), c in terms.items() if b == j}
                    assert _terms(series.coeff(j)) == {(a, 0): c for (a, _b), c in row.items()}
                    if j < len(rows):
                        assert rows[j] == series.coeff(j) == poly.t_coeff(j)
    assert cancelled_tops > 20
