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


def test_coefficient_t1():
    qm = QLaurent({1: 1, -1: -1})
    assert sphere_zeta_coeff(1) == QRational(QLaurent({0: -2}), qm * qm)


def test_dim_numeric_certificate():
    gap, bound = verify_dim_numeric(F(2), n_terms=40, tol=F(1, 10**6))
    assert gap <= bound < F(1, 10**6)
    with pytest.raises(ValueError):
        verify_dim_numeric(F(1, 2))


def _verify_dim_numeric_fractions(q, n_terms, tol):
    """The certificate summed term by term over Fraction (oracle for the integer-numerator route)."""
    q = F(q)
    partial = F(0)
    for s in range(n_terms):
        qint = (q ** (2 * s + 1) - q ** (-2 * s - 1)) / (q - 1 / q)
        partial += q ** (-2 * s * (s + 1)) * qint
    closed = 1 / (1 - q ** (-2))
    s0 = n_terms
    tail_bound = q ** (-2 * s0 * s0) / ((1 - q ** (-2)) * (1 - q ** (-4 * s0)))
    gap = abs(closed - partial)
    assert gap <= tail_bound < tol
    return gap, tail_bound


@pytest.mark.parametrize("n_terms", [1, 2, 5, 30, 200])
@pytest.mark.parametrize("q", [F(3, 2), F(2), F(5, 2), F(7, 3)], ids=str)
def test_dim_numeric_matches_fraction_sum(q, n_terms):
    tol = F(1, 10**12) if n_terms >= 30 else F(10)
    got = verify_dim_numeric(q, n_terms=n_terms, tol=tol)
    ref = _verify_dim_numeric_fractions(q, n_terms, tol)
    assert got == ref
    assert all(type(v) is F for v in got)


@pytest.mark.parametrize("n_terms", [0, -3])
def test_dim_numeric_rejects_no_terms(n_terms):
    with pytest.raises(ValueError, match="n_terms"):
        verify_dim_numeric(F(2), n_terms=n_terms)


def test_term_numeric_certificate():
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    # coeff(2) = -2/3 and r = 2^-2: the tail c r^N/(1 - r) is the exact gap
    tail = F(2, 3) * F(1, 4) ** 60 / F(3, 4)
    assert verify_term_numeric(coeff, -2, F(2), n_terms=60, tol=F(1, 10**6)) == (tail, tail)
    # slope +2 gets checked at the inverted point
    assert verify_term_numeric(coeff, 2, F(2), n_terms=60, tol=F(1, 10**6)) == (tail, tail)
    with pytest.raises(ValueError, match="s-independent"):
        verify_term_numeric(coeff, 0, F(2))


def test_merged_summand_certificate():
    from qzeta.sphere import _finite_0_to_s, _tail_from_splus1

    two_s = q_int_sym_sexpr(2, 1)
    merged = _finite_0_to_s(q_int_sym_sexpr(4, 1)) + two_s * _tail_from_splus1(two_s)
    assert verify_sexpr_numeric(merged, F(2), n_terms=80, tol=F(1, 10**6))


def test_merged_summand_with_s_independent_term_is_refused():
    # a constant summand diverges over s >= 0; it used to be skipped and certified
    with pytest.raises(ValueError, match="s-independent"):
        verify_sexpr_numeric(SExpr([(QRational.one(), 0)]), F(2))
    mixed = SExpr([(QRational.one(), 0)]) + q_int_sym_sexpr(2, 1)
    with pytest.raises(ValueError, match="s-independent"):
        verify_sexpr_numeric(mixed, F(2), n_terms=80, tol=F(1, 10**6))


def test_certificates_refuse_a_tail_above_tolerance():
    # q = 3/2 with two terms: the dimension's tail bound is about 0.073
    with pytest.raises(QZetaError, match="not below tolerance"):
        verify_dim_numeric(F(3, 2), n_terms=2)
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    with pytest.raises(QZetaError, match="not below tolerance"):
        verify_term_numeric(coeff, -2, F(3, 2), n_terms=2)


def test_term_certificate_refuses_a_wrong_closed_form(monkeypatch):
    import qzeta.sphere as sphere

    right = sphere._sum_inf
    monkeypatch.setattr(sphere, "_sum_inf", lambda expr: right(expr) + QRational.one())
    coeff = _qr({1: 1}, {0: 1, 2: -1})
    with pytest.raises(QZetaError, match="certificate failed"):
        verify_term_numeric(coeff, -2, F(2), n_terms=60, tol=F(1, 10**6))
