import math
import random
from fractions import Fraction as F

import pytest

from qzeta import FactoredRatQT, NotAUnit, QLaurent, QTPoly, TSeries, geometric_series, zeta_cn_closed
from qzeta.qtpoly import _row_width


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
    return s.order, [sorted((e, type(e).__name__, c, type(c).__name__) for e, c in row.items()) for row in s.coeffs()]


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
        # the packed division through its public caller: s / (1 - q^qexp t^texp)^mult
        f = FactoredRatQT(QTPoly.from_qlaurent_t_coeffs(s.coeffs()), [((qexp, texp), mult)] if mult else [])
        assert _canon(f.expand(order)) == _canon(expected)


def test_over_one_minus_cancels_fraction_exponents_to_int():
    # q^(1/2) t / (1 - q^(1/2) t) has q^1 at t^2: the exponent must be the int 1
    out = FactoredRatQT(QTPoly({(F(1, 2), 1): 1}), [((F(1, 2), 1), 1)]).expand(2)
    assert [type(e) for e in out.coeff(2).support()] == [int]
    assert out.coeff(2) == QLaurent({1: 1})


# -- the oracle: division on {exponent: coefficient} rows -------------------------


def _over_one_minus_rows(rows: list, qexp, texp: int, mult: int) -> None:
    """Divide {exponent: coefficient} rows t^0..t^order by (1 - q^qexp t^texp)^mult in place.

    out[j] = s[j] + q^qexp out[j - texp], one pass per power, updated in
    place from low j to high j, so out[j - texp] is final when read.
    Values are left as summed (integral Fractions are not collapsed), which
    ``QLaurent.from_sums`` does when wrapping.
    """
    for _ in range(mult):
        for j in range(texp, len(rows)):
            row = rows[j]
            for e, c in rows[j - texp].items():
                e += qexp
                v = row.get(e, 0) + c
                if v:
                    row[e] = v
                else:
                    del row[e]


def _expand_by_rows(f: FactoredRatQT, order: int) -> TSeries:
    """Oracle: FactoredRatQT.expand as it ran on dict rows, before rows were packed."""
    num = f.numerator.t_coeff_list()[: order + 1]
    rows = [dict(c.items()) for c in num] + [{} for _ in range(order + 1 - len(num))]
    for (a, b), mult in f.factors:
        _over_one_minus_rows(rows, a, b, mult)
    return TSeries(order, [QLaurent.from_sums(row) for row in rows])


def _random_closed_form(rng):
    den = rng.choice((1, 1, 2, 3))
    num = {}
    for _ in range(rng.randrange(0, 5)):
        key = (F(rng.randrange(-6, 7), rng.choice((1, 2, den))), rng.randrange(0, 4))
        num[key] = F(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.choice((1, 1, 2, 3)))
    factors = [((F(rng.randrange(-5, 6), rng.choice((1, 1, 2, den))), rng.randrange(1, 4)), rng.randrange(0, 4))
               for _ in range(rng.randrange(0, 5))]
    return FactoredRatQT(QTPoly(num), [f for f in factors if f[1]])


def test_packed_expand_matches_the_dict_rows_on_random_closed_forms():
    rng = random.Random(31)
    seen = {"fraction exponent": 0, "fraction coefficient": 0, "zero numerator": 0, "b = 3": 0, "mult 3": 0}
    for _ in range(400):
        f = _random_closed_form(rng)
        order = rng.randrange(0, 9)
        got = f.expand(order)
        assert _canon(got) == _canon(_expand_by_rows(f, order)), (f, order)
        terms = [ec for c in got.coeffs() for ec in c.items()]
        seen["fraction exponent"] += any(type(e) is F for e, _c in terms)
        seen["fraction coefficient"] += any(type(c) is F for _e, c in terms)
        seen["zero numerator"] += f.numerator.is_zero
        seen["b = 3"] += any(b == 3 for (_a, b), _mult in f.factors)
        seen["mult 3"] += any(mult == 3 for _ab, mult in f.factors)
    assert all(seen.values()), seen


def test_packed_expand_at_order_zero_and_of_zero():
    f = FactoredRatQT(QTPoly({(F(1, 2), 0): F(2, 3), (1, 1): 5}), [((F(-3, 2), 1), 2), ((0, 2), 1)])
    assert _canon(f.expand(0)) == (0, [[(F(1, 2), "Fraction", F(2, 3), "Fraction")]])
    assert _canon(FactoredRatQT(QTPoly(), [((1, 1), 3)]).expand(4)) == (4, [[]] * 5)
    # a numerator whose rows through t^order are all zero
    assert _canon(FactoredRatQT(QTPoly({(1, 3): 1}), [((-1, 1), 1)]).expand(2)) == (2, [[]] * 3)


def test_integral_results_are_ints_not_fractions():
    # (1/2 + q^(1/2) t / 2) / (1 - q^(1/2) t): the coefficient of t^2 is (1/2 + 1/2) q^(1/2 + 1/2) = q
    f = FactoredRatQT(QTPoly({(0, 0): F(1, 2), (F(1, 2), 1): F(1, 2)}), [((F(1, 2), 1), 1)])
    got = f.expand(3)
    assert got.coeff(2) == QLaurent({1: 1})
    assert [(type(e), type(c)) for e, c in got.coeff(2).items()] == [(int, int)]
    assert _canon(got) == _canon(_expand_by_rows(f, 3))


def test_packed_expand_reads_digits_wider_than_64_bits():
    # the width bound is binomial(200 + 12, 12) >= 2^63, so the digits are wider than a machine word
    assert math.comb(212, 12) >= 2**63 and _row_width(math.comb(212, 12)) > 64
    f = zeta_cn_closed(12)
    assert _canon(f.expand(200)) == _canon(_expand_by_rows(f, 200))
