from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qzeta import DivisionByZero, ExactDivisionError, QLaurent
from qzeta.qcombinat import q_int_sym
from qzeta.qlaurent import _exp_lattice, _from_intpoly, _to_intpoly, tpoly_divmod


def _euclid_div(a, b):
    """Oracle for exact_div: Euclid's highest-first division on the dense lists of the common lattice."""
    if a.is_zero:
        return QLaurent()
    lattice = _exp_lattice(a, b)
    shift_a, pa = _to_intpoly(a, lattice)
    shift_b, pb = _to_intpoly(b, lattice)
    quot, rem = tpoly_divmod(pa, pb)
    if rem:
        raise ExactDivisionError("nonzero remainder")
    return _from_intpoly(quot, shift_a - shift_b, lattice)


def _typed(p):
    """Terms of p with the type of every exponent and coefficient."""
    return {(e, type(e)): (c, type(c)) for e, c in p.items()}


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
    assert _typed(num.exact_div(den)) == _typed(quot)
    assert num.exact_div(den) == quot == _euclid_div(num, den)
    for route in (QLaurent.exact_div, _euclid_div):
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


# -- exact division against Euclid's route ----------------------------------


def test_exact_div_dividend_narrower_than_divisor():
    num = QLaurent({0: 1, 1: 1})
    den = QLaurent({0: 1, 2: 1})
    for route in (QLaurent.exact_div, _euclid_div):
        with pytest.raises(ExactDivisionError):
            route(num, den)


def test_exact_div_fraction_fallback():
    # half-integer exponents and Fraction coefficients
    a = QLaurent({F(1, 2): 1, F(-1, 2): F(1, 3), 2: -4})
    b = QLaurent({F(1, 2): 1, F(-3, 2): 2})
    assert (a * b).exact_div(b) == a == _euclid_div(a * b, b)
    # integer operands whose quotient is not integral switch to Fraction steps
    assert QLaurent({0: 1, 1: 1}).exact_div(QLaurent({0: 2})) == QLaurent({0: F(1, 2), 1: F(1, 2)})
    # steps stay int until the lowest coefficient fails to divide; integral
    # Fraction steps after the switch come out as int
    quot = QLaurent({0: 2, 1: 1, 2: 2}).exact_div(QLaurent({0: 2}))
    assert _typed(quot) == {(0, int): (1, int), (1, int): (F(1, 2), F), (2, int): (1, int)}


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
    assert _typed(p.exact_div(b)) == _typed(a)
    assert p.exact_div(b) == a == _euclid_div(p, b)


@given(laurents, divisors(), st.data())
def test_exact_div_routes_raise_on_remainder(a, b, data):
    vb, db = b.valuation(), b.degree()
    r = data.draw(
        st.dictionaries(st.integers(min_value=vb, max_value=db - 1), coeffs.filter(bool), min_size=1)
    )
    p = a * b + QLaurent(r)
    for route in (QLaurent.exact_div, _euclid_div):
        with pytest.raises(ExactDivisionError):
            route(p, b)


half_exps = st.integers(min_value=-8, max_value=8).map(lambda k: F(k, 2))
rat_coeffs = st.one_of(coeffs, st.fractions(min_value=-4, max_value=4, max_denominator=6))
half_laurents = st.dictionaries(half_exps, rat_coeffs, max_size=4).map(QLaurent)
half_divisors = st.dictionaries(half_exps, rat_coeffs.filter(bool), min_size=2, max_size=4).map(QLaurent)


def _canonical_types(p):
    """Exponents and coefficients are int when integral and Fraction otherwise, never float."""
    return all(
        type(x) is int or (type(x) is F and x.denominator != 1) for e, c in p.items() for x in (e, c)
    )


@given(half_laurents, half_divisors, st.data())
def test_exact_div_half_integer_exponents_and_fraction_coefficients(a, b, data):
    p = a * b
    quot = p.exact_div(b)
    assert quot == a == _euclid_div(p, b)
    assert _typed(quot) == _typed(a) and _canonical_types(quot)
    # a nonzero r supported strictly inside b's span is never a multiple of b
    vb, db = b.valuation(), b.degree()
    r = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=int(2 * (db - vb)) - 1).map(lambda k: vb + F(k, 2)),
        rat_coeffs.filter(bool), min_size=1,
    ))
    for route in (QLaurent.exact_div, _euclid_div):
        with pytest.raises(ExactDivisionError):
            route(p + QLaurent(r), b)


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


def test_constructor_admits_only_exact_numbers():
    # a float used to be kept (1.5, 2.0) or read as its binary fraction (0.1)
    for bad in ({0: 1.5}, {0.1: 1}, {F(1, 2): 0.25}, {"1/2": 1}, {0: "3"}, {0: float("nan")},
                {float("inf"): 1}, {None: 1}):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            QLaurent(bad)
    p = QLaurent([(2.0, 3.0), (F(4, 2), F(2, 2)), (True, True), (F(1, 2), F(3, 6))])
    assert p == QLaurent({2: 4, 1: 1, F(1, 2): F(1, 2)})
    assert _typed(p) == {(2, int): (4, int), (1, int): (1, int), (F(1, 2), F): (F(1, 2), F)}
    # zero coefficients are dropped before any check, as before
    assert QLaurent({0.5: 0, 1: 0.0}).is_zero
