import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, strategies as st

from qzeta import DivisionByZero, ExactDivisionError, QLaurent, QRational, QTPoly
from qzeta.qcombinat import q_int_sym
from qzeta.qlaurent import (
    _divide_low, _exp_lattice, _from_digits, _gcd_low, _pack, _row_width, _to_intpoly, _unpack, _width_for,
)


# -- the oracle: Euclid on dense Fraction lists, highest coefficient first ------


def tpoly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def tpoly_divmod(p, d):
    d = tpoly_trim(list(d))
    if not d:
        raise ZeroDivisionError("t-polynomial division by zero")
    rem = [F(x) for x in p]
    quot = [F(0)] * max(len(rem) - len(d) + 1, 0)
    while len(tpoly_trim(rem)) >= len(d):
        rem = tpoly_trim(rem)
        shift = len(rem) - len(d)
        f = rem[-1] / d[-1]
        quot[shift] += f
        for i, c in enumerate(d):
            rem[shift + i] -= f * c
    return tpoly_trim(quot), tpoly_trim(rem)


def tpoly_gcd(p, r):
    """Monic gcd over the rationals."""
    a, b = tpoly_trim([F(x) for x in p]), tpoly_trim([F(x) for x in r])
    while b:
        _, rem = tpoly_divmod(a, b)
        a, b = b, rem
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def test_euclid_oracle_divmod():
    # (u^2 - 1)/(u + 1) = u - 1, but u^2 + 1 leaves remainder 2
    assert tpoly_divmod([F(-1), F(0), F(1)], [F(1), F(1)]) == ([-1, 1], [])
    assert tpoly_divmod([F(1), F(0), F(1)], [F(1), F(1)]) == ([-1, 1], [2])


def _from_intpoly(coeffs, shift, lattice: int) -> QLaurent:
    return QLaurent({F(i + shift, lattice): c for i, c in enumerate(coeffs) if c})


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


def test_constants_hash_as_the_numbers_they_equal():
    # QLaurent.one() == 1 held while their hashes differed, so {QLaurent.one(), 1} had two elements
    for c in (0, 1, -3, F(1, 2), F(-7, 3)):
        for x in (QLaurent({0: c}), QTPoly({(0, 0): c}), QRational.from_scalar(c)):
            assert x == c and hash(x) == hash(c), (x, c)
            assert len({x, c}) == 1 and len({x, F(c), c}) == 1, (x, c)
    # a QRational with denominator 1 equals its numerator, constant or not
    for p in (QLaurent({F(1, 2): 3, -1: 1}), QLaurent({0: 2, 1: 1})):
        assert QRational.from_laurent(p) == p and hash(QRational.from_laurent(p)) == hash(p)
    ratio = QRational(QLaurent({0: 1}), QLaurent({0: 1, 1: -1}))
    assert hash(ratio) == hash(QRational(QLaurent({0: 1, 1: 1}), QLaurent({0: 1, 2: -1})))


# -- the lowest-first gcd against Euclid's oracle and sympy ----------------------


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _up_to_scalar(p):
    """p divided by its last entry, as Fractions: equal for gcds that differ by a scalar."""
    return [F(x) / p[-1] for x in p]


def _random_dense(rng, length, fractions=False, sparse=False):
    """A dense list with nonzero first and last entries, as _to_intpoly gives."""
    pool = [-3, -2, -1, 1, 2, 3] + ([F(1, 2), F(-2, 3), F(5, 4)] if fractions else [])
    out = [rng.choice(pool) for _ in range(length)]
    for i in range(1, length - 1):
        if rng.random() < (0.6 if sparse else 0.15):
            out[i] = 0
    return out


def _gcd_pairs():
    """(a, b, kind) for seeded pairs of every kind the gcd has to handle."""
    rng = random.Random(1007_5084)
    kinds = ["int", "fraction", "sparse", "equal", "constant", "divides", "coprime"]
    for k in range(280):
        kind = kinds[k % len(kinds)]
        fractions = kind == "fraction" or rng.random() < 0.3
        sparse = kind == "sparse"
        shared = _random_dense(rng, rng.randrange(1, 4), fractions, sparse)
        a = _random_dense(rng, rng.randrange(1, 6), fractions, sparse)
        b = _random_dense(rng, rng.randrange(1, 6), fractions, sparse)
        if kind == "equal":
            b = _random_dense(rng, len(a), fractions, sparse)
        elif kind == "constant":
            a = [rng.choice([2, -1, F(3, 2)])]
        elif kind == "divides":
            b = a
        elif kind == "coprime":
            # (1 + u)^i and (1 - u)^j share no factor
            a, b, shared = [1], [1], [1]
            for _ in range(rng.randrange(1, 4)):
                a = _dense_mul(a, [1, 1])
            for _ in range(rng.randrange(1, 4)):
                b = _dense_mul(b, [1, -1])
        if rng.random() < 0.5:
            a, b = b, a
        yield _dense_mul(a, shared), _dense_mul(b, shared), kind


def test_gcd_low_matches_euclid_and_sympy():
    u = sympy.Symbol("u")
    seen = set()
    for a, b, kind in _gcd_pairs():
        a0, b0 = list(a), list(b)
        g = _gcd_low(a, b)
        assert (a, b) == (a0, b0), "the arguments must be left unchanged"
        assert g[0] and g[-1]
        assert _up_to_scalar(g) == _up_to_scalar(tpoly_gcd(a, b)), (a, b)
        g_sympy = sympy.gcd(sympy.Poly(list(reversed(a)), u, domain="QQ"),
                            sympy.Poly(list(reversed(b)), u, domain="QQ"))
        assert _up_to_scalar(g) == _up_to_scalar([F(int(c.p), int(c.q)) for c in reversed(g_sympy.all_coeffs())])
        for p in (a, b):
            rem = list(p)
            _divide_low(rem, g)
            assert not any(rem[len(p) - len(g) + 1:])
        if kind == "coprime":
            assert g == [1]
        if kind == "divides":
            assert len(g) == min(len(a), len(b))
        seen.add(kind)
    assert len(seen) == 7


def test_gcd_low_keeps_coefficients_small_at_high_degree():
    # degrees 84 and 83 with a common factor of degree 5: Euclid over Q
    # without content removal reached gcd coefficients of about 17,700 bits
    # here; on primitive remainders the gcd is the shared factor itself
    rng = random.Random(1007_5084)

    def poly(degree):
        p = [rng.randint(-9, 9) for _ in range(degree + 1)]
        p[0], p[-1] = p[0] or 1, p[-1] or -1
        return p

    shared = poly(5)
    a, b = _dense_mul(poly(79), shared), _dense_mul(poly(78), shared)
    sign = 1 if shared[0] > 0 else -1
    assert _gcd_low(a, b) == [sign * x for x in shared]
    # int and Fraction inputs take the one path: denominators are cleared first
    g = _gcd_low([F(x, 3) for x in a], [F(x, 7) for x in b])
    assert g == [sign * x for x in shared]
    assert max(abs(x).bit_length() for x in g) <= 4


def test_gcd_low_strips_the_remainders_power_of_u():
    # 1 + u + u^3 + 2u^4 + u^5 = (1 + u)(1 + u^3 + u^4) over 1 + u + u^3 + u^4 =
    # (1 + u)(1 + u^3) leaves u^2 (u^2 + u^3): its leading zeros are a power of u
    a, b = [1, 1, 0, 1, 2, 1], [1, 1, 0, 1, 1]
    rem = list(a)
    _divide_low(rem, b)
    assert rem[len(a) - len(b) + 1:] == [0, 0, 1, 1]
    assert _gcd_low(a, b) == [1, 1]
    # 1 + u^4 over 1 + u^2 leaves u^3 (2u): a constant gcd once u is dropped
    assert _gcd_low([1, 0, 0, 0, 1], [1, 0, 1]) == [1]


# -- products: the monomial path against the double loop ----------------------------


def _dict_product(a: QLaurent, b: QLaurent) -> QLaurent:
    """Oracle: every pair of terms, summed into one dict, the smaller operand outside."""
    a, b = dict(a.items()), dict(b.items())
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return QLaurent.from_sums(out)


monomials = st.builds(lambda e, c: QLaurent({e: c}), st.one_of(exps, half_exps), rat_coeffs.filter(bool))
mixed_laurents = st.one_of(laurents, half_laurents)


@given(monomials, st.one_of(mixed_laurents, monomials))
def test_monomial_product_is_the_dict_product_term_for_term(mono, p):
    # repr shows the term order: a monomial operand walks the other in its own order
    for got in (mono * p, p * mono):
        want = _dict_product(mono, p)
        assert repr(got) == repr(want)
        assert _typed(got) == _typed(want) and _canonical_types(got)


def test_monomial_products_cover_cancelling_exponents_and_types():
    # q^(1/2) * (q^(1/2) + 2/3 q^-1): q^1 with an int exponent, a Fraction coefficient kept
    got = QLaurent({F(1, 2): -3}) * QLaurent({F(1, 2): 1, -1: F(2, 3)})
    assert repr(got) == repr(QLaurent.from_sums({1: -3, F(-1, 2): -2}))
    assert _typed(got) == {(1, int): (-3, int), (F(-1, 2), F): (-2, int)}
    assert repr(QLaurent({2: F(1, 2)}) * QLaurent({-2: 2})) == "QLaurent({0: 1})"
    # a unit monomial with an int exponent keeps the other operand's terms as they are, up to sign
    p = QLaurent({F(1, 2): F(3, 2), 0: 4, -3: F(-1, 3)})
    for unit in (QLaurent.one(), QLaurent({2: -1}), QLaurent({-1: 1})):
        assert repr(unit * p) == repr(p * unit) == repr(_dict_product(unit, p))
        assert _canonical_types(unit * p)


# -- the packed form ------------------------------------------------------------------


def _digits_by_loop(v: int, width: int) -> list:
    """Oracle: balanced base-2^width digits of v, lowest first, one digit per shift and mask."""
    full = 1 << width
    half, mask = full >> 1, full - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= full
        out.append(d)
        v = (v - d) >> width
    return out


def test_unpack_matches_the_digit_loop_at_every_width():
    rng = random.Random(11)
    for width in range(8, 264, 8):
        lim = 1 << width - 1
        for _ in range(60):
            digits = [rng.randrange(-lim, lim) for _ in range(rng.randrange(0, 30))]
            if digits and rng.random() < 0.4:
                digits[rng.randrange(len(digits))] = rng.choice((-lim, lim - 1, 0))
            v = _pack(enumerate(digits), width)
            assert _unpack(v, width) == _digits_by_loop(v, width), (width, digits)
            while digits and not digits[-1]:
                digits.pop()
            assert _unpack(v, width) == digits
        for v in (0, 1, -1, lim - 1, -lim, lim, -lim - 1, 1 << 5 * width, -(1 << 5 * width) + 1):
            assert _unpack(v, width) == _digits_by_loop(v, width), (width, v)


def test_pack_sums_digits_of_any_size():
    # a digit of any size packs exactly; only the decode needs it below 2^(width-1)
    assert _pack([(0, 1 << 100), (2, -3)], 8) == (1 << 100) - (3 << 16)
    assert _pack([], 64) == 0


def test_widths_are_the_least_that_hold_the_bound():
    for bound in (0, 1, 127, 128, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**70):
        width = _width_for(bound)
        assert width % 8 == 0 and 2 ** (width - 1) > bound and (width == 8 or 2 ** (width - 9) <= bound)
        row = _row_width(bound)
        assert row == (width if width > 64 else min(w for w in (8, 16, 32, 64) if w >= width))


def test_from_digits_gives_canonical_terms():
    assert repr(_from_digits([3, 0, -1], -2, 2)) == "QLaurent({-2: 3, 2: -1})"
    # exponents (1 + 3d)/2 and coefficients over 4: integral values come out as ints
    got = _from_digits([2, 0, 8, 5], 1, 3, 2, 4)
    assert _typed(got) == {(F(1, 2), F): (F(1, 2), F), (F(7, 2), F): (2, int), (5, int): (F(5, 4), F)}
    assert _from_digits([], 7).is_zero
