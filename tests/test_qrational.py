import random
from fractions import Fraction as F

import pytest
import sympy

import qzeta.qrational as qrational
from qzeta import DivisionByZero, ExactDivisionError, QLaurent, QRational
from qzeta.qlaurent import _divide_low, _exp_lattice, _gcd_low, _to_intpoly
from qzeta.sphere import even_part_zeta_at_pm1, sphere_dims, sphere_zeta_coeff
from test_qlaurent import _from_intpoly, tpoly_gcd


def test_reduction():
    # (q^2 - 1)/(q - 1) = q + 1
    r = QRational(QLaurent({2: 1, 0: -1}), QLaurent({1: 1, 0: -1}))
    assert r == QRational.from_laurent(QLaurent({1: 1, 0: 1}))
    assert r.den == QLaurent.one()


def test_monomial_content_normalization():
    # q^3/(q) reduces to q^2
    r = QRational(QLaurent({3: 1}), QLaurent({1: 1}))
    assert r.num == QLaurent({2: 1})
    assert r.den == QLaurent.one()


def test_canonical_equality_of_different_builds():
    a = QRational(QLaurent({0: 1}), QLaurent({0: 1, 1: -1}))        # 1/(1-q)
    b = QRational(QLaurent({0: 1, 1: 1}), QLaurent({0: 1, 2: -1}))  # (1+q)/(1-q^2)
    assert a == b
    assert hash(a) == hash(b)


def test_values_built_by_different_routes_are_equal_and_hash_equal():
    """Equality is structural on the canonical form, so every route must land on it.

    The routes: the constructor, a sum, a product, invert_q twice, and
    coercion from QLaurent and from int; each group is one value.
    """
    q, half = QLaurent({1: 1}), QLaurent({F(1, 2): 1})
    one_minus_q = QLaurent({0: 1, 1: -1})
    ratio = QRational(QLaurent({0: 1, 1: 1}), one_minus_q)                  # (1+q)/(1-q)
    laurent = QLaurent({1: 1, F(-1, 2): F(3, 2)})                           # q + 3/2 q^(-1/2)
    groups = [
        [ratio,
         QRational(QLaurent.one(), one_minus_q) + QRational(q, one_minus_q),
         QRational.from_laurent(QLaurent({0: 1, 1: 1})) * QRational(QLaurent({0: 2}), one_minus_q * 2),
         QRational(QLaurent({0: 1, 1: 1}) * half, one_minus_q * half),
         ratio.invert_q().invert_q()],
        [QRational.from_laurent(laurent), laurent,
         QRational(laurent * one_minus_q, one_minus_q),
         QRational.from_laurent(q) + QRational(QLaurent({F(-1, 2): 3}), QLaurent({0: 2})),
         QRational(laurent * half, half).invert_q().invert_q()],
        [QRational.from_scalar(3), 3, QRational(QLaurent({0: 1})) + 2,
         QRational.one() * 3, QRational(QLaurent({1: 6}), QLaurent({1: 2})),
         QRational.from_scalar(F(6, 2)).invert_q().invert_q()],
    ]
    for values in groups:
        for x in values:
            assert values[0] == x and x == values[0], x
            assert hash(x) == hash(values[0]), x
        rationals = [x for x in values if isinstance(x, QRational)]
        assert len({(x.num, x.den) for x in rationals}) == 1


def test_arithmetic():
    q = QRational.from_laurent(QLaurent({1: 1}))
    one = QRational.one()
    expr = (q - one / q) * (q + one / q)
    assert expr == QRational.from_laurent(QLaurent({2: 1, -2: -1}))
    assert (q / q) == one
    with pytest.raises(DivisionByZero):
        one / QRational.zero()
    with pytest.raises(DivisionByZero):
        QRational(QLaurent.one(), QLaurent())


def test_reflected_division_by_an_unsupported_type_is_a_type_error():
    one = QRational.one()
    for other in (1.5, "a", None):
        with pytest.raises(TypeError):
            other / one
    assert 2 / QRational.from_laurent(QLaurent({1: 1})) == QRational(QLaurent({0: 2}), QLaurent({1: 1}))
    assert F(1, 2) / one == QRational.from_scalar(F(1, 2))


def test_invert_q_and_symmetry():
    qm = QLaurent({1: 1, -1: -1})
    sym = QRational(QLaurent({0: -2}), qm * qm)      # -2/(q-q^-1)^2
    assert sym.is_q_symmetric()
    asym = QRational(QLaurent({1: 1}), QLaurent({0: 1, 2: -1}))
    assert not asym.is_q_symmetric()
    assert asym.invert_q().invert_q() == asym


def test_eval_at():
    r = QRational(QLaurent({0: 1}), QLaurent({0: 1, -2: -1}))  # 1/(1-q^-2)
    assert r.eval_at(F(2)) == F(4, 3)
    with pytest.raises(DivisionByZero):
        r.eval_at(F(1))


def test_half_integer_lattice():
    # (q - q^-1)/(q^(1/2) - q^(-1/2)) = q^(1/2) + q^(-1/2)
    num = QLaurent({1: 1, -1: -1})
    den = QLaurent({F(1, 2): 1, F(-1, 2): -1})
    r = QRational(num, den)
    assert r == QRational.from_laurent(QLaurent({F(1, 2): 1, F(-1, 2): 1}))


def test_poly_exact_div_raises_on_remainder(monkeypatch):
    # a gcd that does not divide both sides must not give a canonical form:
    # (u^2 - 1)/(u + 1) = u - 1, but u^2 + 1 leaves remainder 2
    monkeypatch.setattr(qrational, "_gcd_low", lambda a, b: [1, 1])
    u2_minus_1, u2_plus_1 = QLaurent({2: 1, 0: -1}), QLaurent({2: 1, 0: 1})
    with pytest.raises(ExactDivisionError):
        QRational(u2_plus_1, u2_minus_1)
    with pytest.raises(ExactDivisionError):
        QRational(u2_minus_1, u2_plus_1)


def _reduce_by_euclid(num: QLaurent, den: QLaurent):
    """The old canonical form: Euclid's highest-first gcd, exact_div, then a unit."""
    if num.is_zero:
        return QLaurent(), QLaurent.one()
    lat = _exp_lattice(num, den)
    g = tpoly_gcd(_to_intpoly(num, lat)[1], _to_intpoly(den, lat)[1])
    if len(g) > 1:
        g = _from_intpoly(g, 0, lat)
        num, den = num.exact_div(g), den.exact_div(g)
    vd = den.valuation()
    unit = QLaurent({-vd: F(1) / den.coeff(vd)})
    return num * unit, den * unit


def _sphere_values():
    half = QRational(QLaurent({1: 1, -1: -1, F(3, 2): 2}), QLaurent({F(1, 2): 1, F(-1, 2): -1}))
    return [*sphere_dims(), *(sphere_zeta_coeff(k) for k in range(4)),
            *(even_part_zeta_at_pm1(m) for m in range(1, 10, 2)), half]


def _typed_terms(r: QRational):
    return [sorted((e, type(e), c, type(c)) for e, c in p.items()) for p in (r.num, r.den)]


def test_sphere_values_match_the_euclid_route(monkeypatch):
    new = _sphere_values()
    monkeypatch.setattr(QRational, "_reduce", staticmethod(_reduce_by_euclid))
    old = _sphere_values()
    assert [repr(r) for r in new] == [repr(r) for r in old]
    assert [_typed_terms(r) for r in new] == [_typed_terms(r) for r in old]
    assert any(len(r.den) > 1 for r in new) and any(type(e) is F for r in new for e in r.num.support())


def _reduce_by_fraction_decode(num: QLaurent, den: QLaurent):
    """The canonical form with every quotient coefficient decoded through Fraction, then normalized."""
    if num.is_zero:
        return QLaurent(), QLaurent.one()
    lat = _exp_lattice(num, den)
    shift, top = _to_intpoly(num, lat)
    shift_d, bottom = _to_intpoly(den, lat)
    g = _gcd_low(top, bottom)
    quot_n, quot_d = _divide_low(top, g), _divide_low(bottom, g)
    scale = F(1) / quot_d[0]
    return (QLaurent.from_sums({F(shift - shift_d + k, lat): c * scale for k, c in enumerate(quot_n) if c}),
            QLaurent.from_sums({F(k, lat): c * scale for k, c in enumerate(quot_d) if c}))


def _random_pair(rng):
    """num, den with a common factor, on the integer or the half-integer lattice.

    Coefficients are ints of either sign, some not units, and Fractions; the
    denominator is scaled so its lowest coefficient is rarely 1.
    """
    step = rng.choice([1, 1, F(1, 2)])

    def poly():
        terms = {}
        while not terms:
            terms = {e * step: rng.choice([-6, -3, -2, -1, 1, 2, 3, 4, F(1, 2), F(-2, 3)])
                     for e in range(-3, 4) if rng.random() < 0.4}
        return QLaurent(terms)

    shared = poly()
    return poly() * shared * rng.choice([1, 2, -3]), poly() * shared * rng.choice([1, -1, 2, -4, F(3, 2)])


def _decode_lead(num: QLaurent, den: QLaurent):
    """The lowest coefficient of den over the gcd: what the canonical form divides by."""
    lat = _exp_lattice(num, den)
    top, bottom = _to_intpoly(num, lat)[1], _to_intpoly(den, lat)[1]
    return _divide_low(bottom, _gcd_low(top, bottom))[0]


def test_integer_decode_matches_the_fraction_decode(monkeypatch):
    rng = random.Random(35_1007)
    pairs = [_random_pair(rng) for _ in range(300)]
    new = [QRational(num, den) for num, den in pairs] + _sphere_values()
    monkeypatch.setattr(QRational, "_reduce", staticmethod(_reduce_by_fraction_decode))
    old = [QRational(num, den) for num, den in pairs] + _sphere_values()
    assert [repr(r) for r in new] == [repr(r) for r in old]
    assert [_typed_terms(r) for r in new] == [_typed_terms(r) for r in old]
    # the sample reaches every kind of decode: a lowest coefficient that is
    # an int other than +-1 or a Fraction, and a half-integer exponent
    leads = [_decode_lead(num, den) for num, den in pairs]
    assert any(type(c) is int and abs(c) > 1 for c in leads) and any(type(c) is F for c in leads)
    assert any(type(c) is F for r in new for _, c in r.num.items())
    assert any(type(e) is F for r in new for e in r.num.support())


_Q = sympy.Symbol("q")


def _random_laurent(rng):
    terms = {}
    while not terms:
        terms = {e: rng.choice([-3, -2, -1, 1, 2, 3, F(1, 2), F(-2, 3)])
                 for e in range(-3, 4) if rng.random() < 0.4}
    return QLaurent(terms)


def _to_sympy(p: QLaurent):
    """(valuation, p / q^valuation as a sympy polynomial expression)."""
    v = p.valuation()
    coeffs = {(e - v,): sympy.Rational(F(c).numerator, F(c).denominator) for e, c in p.items()}
    return v, sympy.Poly.from_dict(coeffs, _Q, domain="QQ").as_expr()


def _sympy_canonical(num: QLaurent, den: QLaurent):
    """sympy.cancel(num/den) as (num terms, den terms), in QRational's convention.

    The convention: the denominator has valuation 0 and lowest coefficient 1.
    """
    (vn, top), (vd, bottom) = _to_sympy(num), _to_sympy(den)
    scale, top, bottom = sympy.cancel((top, bottom))
    top, bottom = sympy.Poly(scale * top, _Q).terms(), sympy.Poly(bottom, _Q).terms()
    (v,), lead = min(bottom)
    lead = F(int(lead.p), int(lead.q))

    def terms(poly, shift):
        return {e + shift: F(int(c.p), int(c.q)) / lead for (e,), c in poly if c}

    return terms(top, vn - vd - v), terms(bottom, -v)


def test_canonical_form_matches_sympy_cancel():
    rng = random.Random(1007_5084)
    common_factors = 0
    for _ in range(240):
        num, den = _random_laurent(rng), _random_laurent(rng)
        if rng.random() < 0.6:
            shared = _random_laurent(rng)
            num, den = num * shared, den * shared
            common_factors += len(shared) > 1
        r = QRational(num, den)
        got = ({e: F(c) for e, c in r.num.items()}, {e: F(c) for e, c in r.den.items()})
        assert got == _sympy_canonical(num, den), (num, den)
    assert common_factors > 80
