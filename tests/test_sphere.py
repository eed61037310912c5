from fractions import Fraction as F

import pytest

from qzeta import (
    DivergentSum,
    QLaurent,
    QRational,
    QZetaError,
    SExpr,
    even_part_zeta_at_pm1,
    partial_sum,
    sphere_dims,
    sphere_zeta_coeff,
    verify_dim_numeric,
    verify_sexpr_numeric,
)
from qzeta.sphere import q_int_sym_sexpr, verify_term_numeric


def _qr(num, den=None):
    return QRational(QLaurent(num), QLaurent(den) if den else QLaurent.one())


def test_sexpr_merging():
    e = SExpr([(QRational.one(), 2), (QRational.one(), 2), (QRational.from_scalar(-2), 2)])
    assert e.terms == ()


def test_sexpr_rejects_non_integral_slope():
    for a in (2.7, F(3, 2), F(1, 2)):
        with pytest.raises(QZetaError, match="must be an integer"):
            SExpr([(QRational.one(), a)])
    # integral values of other types are kept, as ints
    e = SExpr([(QRational.one(), F(2)), (QRational.one(), 3.0)])
    assert [a for _c, a in e.terms] == [2, 3]
    assert all(type(a) is int for _c, a in e.terms)
    # a float coefficient is refused too, by the QLaurent it becomes
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        SExpr([(1.5, 2)])


def test_geometric_tail():
    # sum_{s>=0} q^{2s+1} = q/(1-q^2)
    e = SExpr([(_qr({1: 1}), 2)])
    assert partial_sum(e, "all_s_from_0") == _qr({1: 1}, {0: 1, 2: -1})


def test_finite_sum_formula():
    # sum_{i=0}^{s} q^{4i+1} = (q - q^{4s+5})/(1 - q^4): constant and q^{4s} pieces
    e = SExpr([(_qr({1: 1}), 4)])
    got = partial_sum(e, "from_0_to_s")
    expected = SExpr([
        (_qr({1: 1}, {0: 1, 4: -1}), 0),
        (_qr({5: -1}, {0: 1, 4: -1}), 4),
    ])
    assert got == expected


def test_merged_dim_prime():
    val = partial_sum(q_int_sym_sexpr(2, 1), "all_s_from_0")
    assert val == _qr({0: -2}, {2: 1, 0: -2, -2: 1})   # -2/(q - q^-1)^2


def test_divergent_sum_detected():
    with pytest.raises(DivergentSum):
        partial_sum(SExpr([(QRational.one(), 0)]), "all_s_from_0")
    with pytest.raises(DivergentSum):
        partial_sum(SExpr([(QRational.one(), 0)]), "from_splus1_to_inf")


@pytest.mark.parametrize("summation_range", ["from_0_to_s", "from_0_to_sminus1"])
def test_finite_sum_rejects_s_independent_term(summation_range):
    # sum_{i<=s} c = (s + 1) c is not a geometric term: refused, not summed
    expr = SExpr([(QRational.one(), 0), (_qr({1: 1}), 2)])
    with pytest.raises(QZetaError, match="s-independent") as exc:
        partial_sum(expr, summation_range)
    assert not isinstance(exc.value, DivergentSum)


def test_finite_sum_empty_at_zero():
    # sum_{i=0}^{s-1} vanishes at s = 0: all terms must cancel there
    fin = partial_sum(q_int_sym_sexpr(2, 1), "from_0_to_sminus1")
    at_zero = QRational.zero()
    for coeff, _a in fin.terms:
        at_zero = at_zero + coeff
    assert fin.terms and at_zero.is_zero


def test_sphere_dims():
    dim, dim_prime = sphere_dims()
    assert dim == _qr({0: 1}, {0: 1, -2: -1})
    expected = QRational(QLaurent({0: 2}), QLaurent({0: 1, -2: -1}) * QLaurent({0: 1, 2: -1}))
    assert dim_prime == expected


def test_even_part_m3():
    got = even_part_zeta_at_pm1(3)
    num = QLaurent({-4: 1, -2: 1, 0: 4, 2: 1, 4: 1})
    den = (QLaurent({0: 1, 2: -1}) * QLaurent({0: 1, -2: -1})
           * QLaurent({0: 1, 6: -1}) * QLaurent({0: 1, -6: -1}))
    assert got == QRational(num, den)
    assert got.is_q_symmetric()


def test_even_part_m1():
    # independent assembly of (1/2)(1/((1-q)(1-q^-1)) + 1/((1+q)(1+q^-1)))
    plus = QRational.one() / QRational.from_laurent(QLaurent({0: 1, 1: -1}) * QLaurent({0: 1, -1: -1}))
    minus = QRational.one() / QRational.from_laurent(QLaurent({0: 1, 1: 1}) * QLaurent({0: 1, -1: 1}))
    assert even_part_zeta_at_pm1(1) == (plus + minus) * F(1, 2)


def test_even_part_rejects_even_m():
    with pytest.raises(ValueError):
        even_part_zeta_at_pm1(2)


def test_coefficients_symmetric():
    for k in range(4):
        assert sphere_zeta_coeff(k).is_q_symmetric()
    with pytest.raises(ValueError):
        sphere_zeta_coeff(4)


def test_coefficient_index_must_be_integral():
    # a non-integral k in [0, 3] used to fall through to the t^3 coefficient
    for bad in (1.5, F(1, 2), 2.5):
        with pytest.raises(ValueError, match="must be an integer"):
            sphere_zeta_coeff(bad)
    assert sphere_zeta_coeff(2.0) == sphere_zeta_coeff(F(2)) == sphere_zeta_coeff(2)


def test_coefficient_t1():
    qm = QLaurent({1: 1, -1: -1})
    assert sphere_zeta_coeff(1) == QRational(QLaurent({0: -2}), qm * qm)


def test_dim_numeric_certificate():
    gap, bound = verify_dim_numeric(F(2), tol=F(1, 10**6))
    assert gap <= bound < F(1, 10**6)
    with pytest.raises(ValueError):
        verify_dim_numeric(F(1, 2))


def _dim_tail(q, n_terms):
    """The dimension's tail bound after n_terms terms, over Fraction."""
    q = F(q)
    return q ** (-2 * n_terms * n_terms) / ((1 - q ** (-2)) * (1 - q ** (-4 * n_terms)))


def _verify_dim_numeric_fractions(q, n_terms, tol):
    """The certificate summed term by term over Fraction (oracle for the integer-numerator route)."""
    q = F(q)
    partial = F(0)
    for s in range(n_terms):
        qint = (q ** (2 * s + 1) - q ** (-2 * s - 1)) / (q - 1 / q)
        partial += q ** (-2 * s * (s + 1)) * qint
    closed = 1 / (1 - q ** (-2))
    tail_bound = _dim_tail(q, n_terms)
    gap = abs(closed - partial)
    assert gap <= tail_bound < tol
    return gap, tail_bound


@pytest.mark.parametrize("digits", [-1, 1, 2, 5, 12, 30, 200, 300])
@pytest.mark.parametrize("q", [F(3, 2), F(2), F(5, 2), F(7, 3)], ids=str)
def test_dim_numeric_matches_fraction_sum(q, digits):
    # tol = 10^-digits; the certificate stops at the least count whose tail bound is below it
    tol = F(10) ** -digits
    got = verify_dim_numeric(q, tol=tol)
    n_terms = next(n for n in range(1, 201) if _dim_tail(q, n) == got[1])
    assert got == _verify_dim_numeric_fractions(q, n_terms, tol)
    assert n_terms == 1 or _dim_tail(q, n_terms - 1) >= tol
    assert all(type(v) is F for v in got)


def test_dim_numeric_counts_of_criterion_10():
    for q, n_terms in ((F(3, 2), 6), (F(2), 5), (F(5, 2), 4)):
        assert verify_dim_numeric(q) == _verify_dim_numeric_fractions(q, n_terms, F(1, 10**12))
        assert _dim_tail(q, n_terms - 1) >= F(1, 10**12)


@pytest.mark.parametrize("q", [F(3, 2), F(7, 3), F(9, 2)], ids=str)
def test_dim_numeric_certifies_exactly_below_the_cap(q):
    # 200 terms is the cap: a pair is certified exactly when the bound after 200 terms is below tol
    cap = _dim_tail(q, 200)
    nudge = F(1, 10**9)
    for tol in (cap * (1 - nudge), cap, cap * (1 + nudge), cap * cap, _dim_tail(q, 100), F(1, 10**12)):
        if cap < tol:
            gap, bound = verify_dim_numeric(q, tol=tol)
            assert gap <= bound < tol
        else:
            with pytest.raises(QZetaError, match="tail bound after 200 terms not below tolerance"):
                verify_dim_numeric(q, tol=tol)


def test_certificates_read_q_as_an_exact_rational():
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    # a float used to be summed as its binary fraction, a string parsed by Fraction
    for bad in (2.1, "3/2", "2"):
        with pytest.raises(ValueError, match="q must be an int or a Fraction"):
            verify_dim_numeric(bad)
        with pytest.raises(ValueError, match="q must be an int or a Fraction"):
            verify_term_numeric(coeff, -2, bad)
        with pytest.raises(ValueError, match="q must be an int or a Fraction"):
            verify_sexpr_numeric(SExpr(), bad)
    for two in (2.0, F(4, 2)):
        assert verify_dim_numeric(two) == verify_dim_numeric(2)
        assert verify_term_numeric(coeff, -2, two) == verify_term_numeric(coeff, -2, 2)


def test_certificates_read_tol_as_an_exact_rational():
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    # a float used to be taken as its binary fraction, a string parsed by Fraction
    for bad in (1e-6, "1/1000000"):
        with pytest.raises(ValueError, match="tol must be an int or a Fraction"):
            verify_dim_numeric(2, tol=bad)
        with pytest.raises(ValueError, match="tol must be an int or a Fraction"):
            verify_term_numeric(coeff, -2, 2, tol=bad)
        with pytest.raises(ValueError, match="tol must be an int or a Fraction"):
            verify_sexpr_numeric(SExpr(), 2, tol=bad)
    for tol, same in ((1, F(1)), (F(4, 2), F(2)), (F(1, 10**6), F(2, 2 * 10**6))):
        assert verify_dim_numeric(2, tol=tol) == verify_dim_numeric(2, tol=same)
        assert verify_term_numeric(coeff, -2, 2, tol=tol) == verify_term_numeric(coeff, -2, 2, tol=same)
        assert verify_sexpr_numeric(q_int_sym_sexpr(-2, 1), 2, tol=tol)


def test_term_numeric_certificate():
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    # coeff(2) = -2/3 and r = 2^-2: the tail (8/9) 4^-N is the exact gap, below 10^-6 first at N = 10
    tail = F(8, 9) * F(1, 4) ** 10
    assert tail < F(1, 10**6) <= 4 * tail
    assert verify_term_numeric(coeff, -2, F(2), tol=F(1, 10**6)) == (tail, tail)
    # slope +2 gets checked at the inverted point
    assert verify_term_numeric(coeff, 2, F(2), tol=F(1, 10**6)) == (tail, tail)
    with pytest.raises(ValueError, match="s-independent"):
        verify_term_numeric(coeff, 0, F(2))
    # the slope is read before any arithmetic
    with pytest.raises(ValueError, match="slope must be an integer, got 2.5"):
        verify_term_numeric(coeff, 2.5, F(2))
    assert verify_term_numeric(coeff, 2.0, F(2)) == verify_term_numeric(coeff, 2, F(2))


@pytest.mark.parametrize("coeff", [
    2,
    F(1, 2),
    QLaurent({0: 3, 1: -1}),
    _qr({1: 1}, {0: 1, 2: -1}),
])
def test_term_certificate_takes_every_sexpr_coefficient(coeff):
    # an int or a Fraction used to fail with AttributeError on eval_at; SExpr coerces them
    (as_sexpr, _a), = SExpr([(coeff, -2)]).terms
    for slope in (-2, 2):
        got = verify_term_numeric(coeff, slope, F(2), tol=F(1, 10**6))
        assert got == verify_term_numeric(as_sexpr, slope, F(2), tol=F(1, 10**6))
        assert got[1] < F(1, 10**6)


@pytest.mark.parametrize("coeff", [1.5, "2", None, [1]])
def test_term_certificate_refuses_other_coefficients(coeff):
    with pytest.raises(ValueError, match="coefficient must be an int, a Fraction, a QLaurent or a QRational"):
        verify_term_numeric(coeff, -2, F(2))


def test_merged_summand_certificate():
    from qzeta.sphere import _finite_0_to_s, _tail_from_splus1

    two_s = q_int_sym_sexpr(2, 1)
    merged = _finite_0_to_s(q_int_sym_sexpr(4, 1)) + two_s * _tail_from_splus1(two_s)
    assert verify_sexpr_numeric(merged, F(2), tol=F(1, 10**6))


def test_merged_summand_with_s_independent_term_is_refused():
    # a constant summand diverges over s >= 0; it used to be skipped and certified
    with pytest.raises(ValueError, match="s-independent"):
        verify_sexpr_numeric(SExpr([(QRational.one(), 0)]), F(2))
    mixed = SExpr([(QRational.one(), 0)]) + q_int_sym_sexpr(2, 1)
    with pytest.raises(ValueError, match="s-independent"):
        verify_sexpr_numeric(mixed, F(2), tol=F(1, 10**6))


def test_certificates_refuse_a_tail_above_tolerance():
    # 200 terms at q = 3/2 leave the dimension's bound near 10^-28000, and far above it near q = 1
    for q in (F(101, 100), F(3, 2)):
        with pytest.raises(QZetaError, match="not below tolerance"):
            verify_dim_numeric(q, tol=F(1, 10**100000))
    # ratio (100/101)^2 near 1: 200 terms leave a bound near 50
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    with pytest.raises(QZetaError, match="not below tolerance"):
        verify_term_numeric(coeff, -2, F(101, 100))


def test_term_certificate_refuses_a_wrong_closed_form(monkeypatch):
    import qzeta.sphere as sphere

    right = sphere._sum_inf
    monkeypatch.setattr(sphere, "_sum_inf", lambda expr: right(expr) + QRational.one())
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    with pytest.raises(QZetaError, match="certificate failed"):
        verify_term_numeric(coeff, -2, F(2), tol=F(1, 10**6))
