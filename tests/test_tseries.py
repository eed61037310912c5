import random
from fractions import Fraction as F

import pytest

from qzeta import FactoredRatQT, NotAUnit, QLaurent, QTPoly, TSeries, geometric_series


def test_invert_geometric():
    s = TSeries(3, [QLaurent({0: 1}), QLaurent({0: -1}), QLaurent(), QLaurent()])
    assert s.invert_unit() == TSeries(3, [QLaurent({0: 1})] * 4)


def test_invert_q_geometric():
    s = TSeries(2, [QLaurent({0: 1}), QLaurent({1: -1}), QLaurent()])
    assert s.invert_unit() == TSeries(2, [QLaurent({0: 1}), QLaurent({1: 1}), QLaurent({2: 1})])


def test_mul_truncates_to_min_order():
    a = TSeries(3, [1, 1, 0, 0])
    b = TSeries(3, [1, -1, 0, 0])
    assert a * b == TSeries(3, [QLaurent({0: 1}), QLaurent(), QLaurent({0: -1}), QLaurent()])
    c = TSeries(1, [1, 1])
    assert (a * c).order == 1


def test_not_a_unit():
    s = TSeries(2, [QLaurent({1: 1, 0: 1}), QLaurent(), QLaurent()])
    with pytest.raises(NotAUnit):
        s.invert_unit()
    with pytest.raises(NotAUnit):
        TSeries(2).invert_unit()


def test_monomial_unit_constant():
    # constant term q^2/3 is a Laurent unit
    from fractions import Fraction as F

    s = TSeries(1, [QLaurent({2: F(1, 3)}), QLaurent({0: 1})])
    inv = s.invert_unit()
    assert s * inv == TSeries.one(1)


def test_coefficient_guard():
    s = TSeries(2)
    with pytest.raises(IndexError):
        s.coeff(3)
    assert s.coeff(-1) == QLaurent()


def test_float_coefficients_rejected():
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        TSeries(1, [1.5, 2])
    assert TSeries(1, [2.0, 1]) == TSeries(1, [2, 1])


def test_invert_roundtrip_random():
    rng = random.Random(7)
    for _ in range(10):
        order = rng.randrange(1, 8)
        coeffs = [QLaurent({0: 1})]
        for _ in range(order):
            coeffs.append(QLaurent({rng.randrange(-3, 4): rng.randrange(-5, 6)}))
        s = TSeries(order, coeffs)
        assert s * s.invert_unit() == TSeries.one(order)


def test_geometric_series_helper():
    g = geometric_series(2, 3)
    assert g == TSeries(3, [QLaurent({2 * k: 1}) for k in range(4)])
    g2 = geometric_series(0, 4, texp=2)
    assert [str(c) for c in g2.coeffs()] == ["1", "0", "1", "0", "1"]


def test_geometric_series_rejects_nonpositive_texp():
    for texp in (0, -1):
        with pytest.raises(ValueError):
            geometric_series(1, 4, texp)


def test_over_one_minus_rejects_bad_arguments():
    # the kernel's public caller reads a factor's t-exponent and multiplicity at entry
    for texp in (0, -2):
        with pytest.raises(ValueError):
            FactoredRatQT(QTPoly.one(), [((1, texp), 1)])
    with pytest.raises(ValueError):
        FactoredRatQT(QTPoly.one(), [((1, 1), -1)])


def _canon(s):
    """Coefficients with their exact number types: int 2 and Fraction(2) differ here."""
    return s.order, [sorted(c.items()) for c in s.coeffs()]


def _random_series(rng, order):
    coeffs = []
    for _ in range(order + 1):
        coeffs.append(QLaurent({F(rng.randrange(-6, 7), rng.choice((1, 2, 3))): F(rng.randrange(-4, 5), rng.randrange(1, 3))
                                for _ in range(rng.randrange(0, 4))}))
    return TSeries(order, coeffs)


def test_over_one_minus_matches_geometric_products():
    rng = random.Random(29)
    for _ in range(80):
        order = rng.randrange(0, 12)
        s = _random_series(rng, order)
        qexp = F(rng.randrange(-5, 6), rng.choice((1, 2)))
        texp, mult = rng.randrange(1, 4), rng.randrange(0, 4)
        expected = s
        for _ in range(mult):
            expected = expected * geometric_series(qexp, order, texp)
        # _over_one_minus_rows through its public caller: s / (1 - q^qexp t^texp)^mult
        f = FactoredRatQT(QTPoly.from_qlaurent_t_coeffs(s.coeffs()), [((qexp, texp), mult)] if mult else [])
        assert _canon(f.expand(order)) == _canon(expected)


def test_over_one_minus_cancels_fraction_exponents_to_int():
    # q^(1/2) t / (1 - q^(1/2) t) has q^1 at t^2: the exponent must be the int 1
    out = FactoredRatQT(QTPoly({(F(1, 2), 1): 1}), [((F(1, 2), 1), 1)]).expand(2)
    assert [type(e) for e in out.coeff(2).support()] == [int]
    assert out.coeff(2) == QLaurent({1: 1})
