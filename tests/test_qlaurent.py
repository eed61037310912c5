from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qzeta import DivisionByZero, ExactDivisionError, QLaurent
from qzeta.qcombinat import q_int_sym
from qzeta.qlaurent import _exact_div_fraction, _exact_div_int


def test_difference_of_squares():
    a = QLaurent({1: 1, -1: -1})
    b = QLaurent({1: 1, -1: 1})
    assert a * b == QLaurent({2: 1, -2: -1})


def test_q2_squared():
    two = q_int_sym(2)
    assert two * two == QLaurent({2: 1, 0: 2, -2: 1})


def test_additive_identity():
    x = QLaurent({3: 2, -1: F(1, 2)})
    assert x + QLaurent() == x
    assert QLaurent() + x == x


def test_invert_q():
    assert QLaurent({2: 1, 0: 1}).invert_q() == QLaurent({-2: 1, 0: 1})


def test_q_power_substitute():
    assert q_int_sym(2).q_power_substitute(3) == QLaurent({3: 1, -3: 1})
    with pytest.raises(ValueError):
        q_int_sym(2).q_power_substitute(0)


def test_eval_at():
    assert q_int_sym(3).eval_at(F(2)) == F(21, 4)
    assert QLaurent({0: 5}).eval_at(F(0)) == 5
    with pytest.raises(DivisionByZero):
        QLaurent({-1: 1}).eval_at(F(0))


def test_parts():
    x = QLaurent({2: 1, 0: -3, -1: 1})
    assert x.parts("strictly_positive") == QLaurent({2: 1})
    assert x.parts("zero") == QLaurent({0: -3})
    assert x.parts("strictly_negative") == QLaurent({-1: 1})
    assert q_int_sym(3).parts("non_negative") == QLaurent({2: 1, 0: 1})
    with pytest.raises(ValueError):
        x.parts("bogus")


def test_parts_reconstruct():
    x = QLaurent({5: 2, 1: -1, 0: 7, -2: F(3, 4), F(-7, 2): 1})
    total = (
        x.parts("strictly_positive") + x.parts("zero") + x.parts("strictly_negative")
    )
    assert total == x


def test_exact_div():
    num = QLaurent({2: 1, -2: -1})          # q^2 - q^-2
    den = QLaurent({1: 1, -1: -1})          # q - q^-1, lowest coefficient -1
    quot = QLaurent({1: 1, -1: 1})
    assert _exact_div_int(num._terms, den._terms) == quot._terms
    assert num.exact_div(den) == quot == _exact_div_fraction(num, den)
    for route in (QLaurent.exact_div, _exact_div_fraction):
        with pytest.raises(ExactDivisionError):
            route(QLaurent({1: 1, 0: 1}), den)


def test_half_integer_exponents():
    x = QLaurent({F(1, 2): 1, F(-1, 2): 1})
    assert (x * x) == QLaurent({1: 1, 0: 2, -1: 1})
    assert x.invert_q() == x


def test_primitive_content():
    x = QLaurent({3: -4, 1: -6})
    v, g = x.monomial_content()
    assert (v, g) == (1, -2)


def test_pow_and_str():
    x = QLaurent({1: 1, -1: -1})
    assert x**2 == x * x
    assert str(QLaurent({F(-3, 2): 1})) == "q^-3/2"
    assert str(QLaurent()) == "0"


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)
laurents = st.dictionaries(exps, coeffs, max_size=5).map(QLaurent)


@given(laurents, laurents)
def test_eval_is_ring_homomorphism(a, b):
    q = F(3, 2)
    assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)
    assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(laurents)
def test_parts_partition(a):
    parts = [a.parts(w) for w in ("strictly_positive", "zero", "strictly_negative")]
    assert parts[0] + parts[1] + parts[2] == a


# -- the two exact-division routes ----------------------------------------------


def test_exact_div_dividend_narrower_than_divisor():
    num = QLaurent({0: 1, 1: 1})
    den = QLaurent({0: 1, 2: 1})
    with pytest.raises(ExactDivisionError):
        _exact_div_int(num._terms, den._terms)
    for route in (QLaurent.exact_div, _exact_div_fraction):
        with pytest.raises(ExactDivisionError):
            route(num, den)


def test_exact_div_fraction_fallback():
    # half-integer exponents and Fraction coefficients take the Fraction route
    a = QLaurent({F(1, 2): 1, F(-1, 2): F(1, 3), 2: -4})
    b = QLaurent({F(1, 2): 1, F(-3, 2): 2})
    assert (a * b).exact_div(b) == a == _exact_div_fraction(a * b, b)
    # integer operands whose quotient is not integral fall back as well
    assert _exact_div_int({0: 1, 1: 1}, {0: 2}) is None
    assert QLaurent({0: 1, 1: 1}).exact_div(QLaurent({0: 2})) == QLaurent({0: F(1, 2), 1: F(1, 2)})


nonzero_laurents = st.dictionaries(exps, coeffs.filter(bool), min_size=1).map(QLaurent)


@st.composite
def divisors(draw):
    """Integer Laurent polynomials of span >= 1 with lowest coefficient in {+-1, +-2, +-3}."""
    vb = draw(exps)
    span = draw(st.integers(min_value=1, max_value=5))
    terms = {vb: draw(st.sampled_from([1, -1, 2, -2, 3, -3])), vb + span: draw(coeffs.filter(bool))}
    for i in range(1, span):
        terms[vb + i] = draw(coeffs)
    return QLaurent(terms)


@given(nonzero_laurents, divisors())
def test_exact_div_routes_agree(a, b):
    p = a * b
    assert _exact_div_int(p._terms, b._terms) == a._terms
    assert p.exact_div(b) == a == _exact_div_fraction(p, b)


@given(laurents, divisors(), st.data())
def test_exact_div_routes_raise_on_remainder(a, b, data):
    vb, db = b.valuation(), b.degree()
    r = data.draw(
        st.dictionaries(st.integers(min_value=vb, max_value=db - 1), coeffs.filter(bool), min_size=1)
    )
    p = a * b + QLaurent(r)
    for route in (QLaurent.exact_div, _exact_div_fraction):
        with pytest.raises(ExactDivisionError):
            route(p, b)


def test_from_sums_collapses_integral_fractions():
    ql = QLaurent.from_sums({F(2, 2): F(4, 2), F(1, 2): 3})
    assert ql == QLaurent({1: 2, F(1, 2): 3})
    assert {type(e) for e in ql.support()} == {int, F}
    assert type(ql.coeff(1)) is int


def test_ring_ops_keep_canonical_forms():
    half = QLaurent({F(1, 2): F(1, 2)})             # 1/2 q^(1/2)
    total = half + half
    assert total == QLaurent({F(1, 2): 1}) and type(total.coeff(F(1, 2))) is int
    assert type((QLaurent({F(1, 2): F(3, 2)}) - half).coeff(F(1, 2))) is int
    x = QLaurent({2: 3, F(1, 2): F(-1, 2), -1: 1})
    assert (x - x).is_zero and x - x == QLaurent()
    for zero in (0, F(0)):
        assert zero - x == -x and x - zero == x and x + zero == x and zero + x == x
        assert (x * zero).is_zero
    assert 2 - x == -x + 2 == QLaurent({0: 2, 2: -3, F(1, 2): F(1, 2), -1: -1})
    assert F(3, 2) * half == QLaurent({F(1, 2): F(3, 4)})
    assert type((half * 2).coeff(F(1, 2))) is int
    for bad in (lambda: x + "a", lambda: "a" + x, lambda: x - "a", lambda: "a" - x, lambda: x * "a"):
        with pytest.raises(TypeError):
            bad()
