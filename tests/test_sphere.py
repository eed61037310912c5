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
    e = SExpr([(QRational.one(), 0, 2), (QRational.one(), 0, 2), (QRational.from_scalar(-2), 0, 2)])
    assert e.terms == ()


def test_degree_cap():
    lin = SExpr([(QRational.one(), 2, 1)])
    with pytest.raises(QZetaError):
        lin * lin
    with pytest.raises(QZetaError):
        SExpr([(QRational.one(), 3, 0)])


def test_sexpr_rejects_non_integral_degree_or_slope():
    for d, a in ((1.5, 2), (0, 2.7), (F(1, 2), 0), (0, F(3, 2))):
        with pytest.raises(QZetaError, match="must be integers"):
            SExpr([(QRational.one(), d, a)])
    # integral values of other types are kept, as ints
    e = SExpr([(QRational.one(), F(2), 2.0)])
    assert [(d, a) for _c, d, a in e.terms] == [(2, 2)]
    assert all(type(x) is int for _c, d, a in e.terms for x in (d, a))


def test_geometric_tail():
    # sum_{s>=0} q^{2s+1} = q/(1-q^2)
    e = SExpr([(_qr({1: 1}), 0, 2)])
    assert partial_sum(e, "all_s_from_0") == _qr({1: 1}, {0: 1, 2: -1})


def test_finite_sum_formula():
    # sum_{i=0}^{s} q^{4i+1} = (q - q^{4s+5})/(1 - q^4): constant and q^{4s} pieces
    e = SExpr([(_qr({1: 1}), 0, 4)])
    got = partial_sum(e, "from_0_to_s")
    expected = SExpr([
        (_qr({1: 1}, {0: 1, 4: -1}), 0, 0),
        (_qr({5: -1}, {0: 1, 4: -1}), 0, 4),
    ])
    assert got == expected


def test_merged_dim_prime():
    val = partial_sum(q_int_sym_sexpr(2, 1), "all_s_from_0")
    assert val == _qr({0: -2}, {2: 1, 0: -2, -2: 1})   # -2/(q - q^-1)^2


def test_divergent_sum_detected():
    with pytest.raises(DivergentSum):
        partial_sum(SExpr([(QRational.one(), 0, 0)]), "all_s_from_0")
    with pytest.raises(DivergentSum):
        partial_sum(SExpr([(QRational.one(), 0, 0)]), "from_splus1_to_inf")


def test_finite_sum_empty_at_zero():
    # sum_{i=0}^{s-1} vanishes at s = 0: all terms must cancel there
    fin = partial_sum(q_int_sym_sexpr(2, 1), "from_0_to_sminus1")
    at_zero = QRational.zero()
    for coeff, d, _a in fin.terms:
        if d == 0:
            at_zero = at_zero + coeff
    assert at_zero.is_zero


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
    verify_term_numeric(coeff, 0, -2, F(2), n_terms=60, tol=F(1, 10**6))
    # slope +2 gets checked at the inverted point
    verify_term_numeric(coeff, 0, 2, F(2), n_terms=60, tol=F(1, 10**6))


def test_merged_summand_certificate():
    from qzeta.sphere import _finite_0_to_s, _tail_from_splus1

    two_s = q_int_sym_sexpr(2, 1)
    merged = _finite_0_to_s(q_int_sym_sexpr(4, 1)) + two_s * _tail_from_splus1(two_s)
    assert verify_sexpr_numeric(merged, F(2), n_terms=80, tol=F(1, 10**6))
