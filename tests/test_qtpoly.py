import random
from fractions import Fraction as F

import pytest

from qzeta import FactoredRatQT, QLaurent, QTPoly, geometric_series
from qzeta.qcombinat import q_int_sym
from qzeta.qlaurent import tpoly_divmod, tpoly_gcd
from qzeta.refdata import reference_cm_closed
from qzeta.weyl import zeta_cn_closed


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
    return s.order, [sorted(c.items()) for c in s.coeffs()]


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
