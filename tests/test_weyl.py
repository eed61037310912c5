from fractions import Fraction as F

import pytest

from qzeta import (
    DominantWeightA,
    QLaurent,
    q_binom_sym,
    q_int_sym,
    weyl_qdim_prime,
    zeta_cn_closed,
    zeta_cn_series,
)
from test_qcombinat import partitions_by_recursion


def test_weyl_sl2():
    for j in range(8):
        assert weyl_qdim_prime(DominantWeightA.j_omega1(2, j)) == q_int_sym(j + 1)


def test_weyl_sl3_symmetric_square():
    assert weyl_qdim_prime(DominantWeightA.j_omega1(3, 2)) == q_binom_sym(4, 2)


def test_weyl_sl3_adjoint():
    adj = weyl_qdim_prime(DominantWeightA(3, [1, 1]))
    assert adj == q_int_sym(2) * q_int_sym(4)
    assert adj.eval_at(F(1)) == 8


def test_weyl_validates_input():
    with pytest.raises(ValueError):
        DominantWeightA(3, [1])
    with pytest.raises(ValueError):
        DominantWeightA(3, [-1, 0])
    with pytest.raises(ValueError):
        DominantWeightA(1, [])
    # non-integral values are rejected, not truncated; integral ones are ints.
    # inf used to escape as int()'s OverflowError
    inf = float("inf")
    for n, coeffs in ((3, [1.9, 0]), (2.5, [1]), (3, [F(1, 2), 0]), (inf, []), (-inf, [1]), (3, [inf, 0]),
                      (3, [float("nan"), 0])):
        with pytest.raises(ValueError, match="must be an integer"):
            DominantWeightA(n, coeffs)
    w = DominantWeightA(3.0, [2.0, F(1)])
    assert (w.n, w.coeffs) == (3, (2, 1)) and type(w.n) is int
    assert all(type(c) is int for c in w.coeffs)


def test_zeta_closed_structure():
    assert zeta_cn_closed(1).factors == (((0, 1), 1),)
    assert zeta_cn_closed(2).factors == (((-1, 1), 1), ((1, 1), 1))
    assert zeta_cn_closed(3).factors == (((-2, 1), 1), ((0, 1), 1), ((2, 1), 1))
    with pytest.raises(ValueError):
        zeta_cn_closed(0)


def test_zeta_series_low_cases():
    s = zeta_cn_series(2, 2)
    assert s.coeffs() == [QLaurent({0: 1}), q_int_sym(2), q_int_sym(3)]
    assert zeta_cn_series(1, 3).coeffs() == [QLaurent({0: 1})] * 4
    assert zeta_cn_series(3, 1).coeff(1) == q_int_sym(3)


def test_series_steps_are_the_symmetric_q_binomials():
    # one Gaussian stream gives, term for term and in the same order, what q_binom_sym builds from scratch
    for n in range(1, 11):
        s = zeta_cn_series(n, 40)
        assert [repr(c) for c in s.coeffs()] == [repr(q_binom_sym(n + j - 1, j)) for j in range(41)], n


def test_series_coefficients_are_partition_counts():
    # q^(2r - j(n-1)) of the t^j coefficient is p(r, j, n-1).  Crit 01's two
    # routes share the decoder (qlaurent._unpack and _from_digits); the
    # recursion uses neither it nor the Gaussian kernel.
    for n in range(1, 11):
        s = zeta_cn_series(n, 24)
        for j in range(25):
            a = n - 1
            want = {2 * r - j * a: partitions_by_recursion(r, j, a) for r in range(j * a + 1)}
            assert list(s.coeff(j).items()) == list(want.items()), (n, j)


def test_closed_equals_series_small():
    for n in range(1, 5):
        assert zeta_cn_closed(n).expand(12) == zeta_cn_series(n, 12)


def test_q_inversion_invariance():
    for n in range(1, 5):
        s = zeta_cn_series(n, 8)
        for j in range(9):
            assert s.coeff(j) == s.coeff(j).invert_q()
    w = weyl_qdim_prime(DominantWeightA(4, [2, 0, 1]))
    assert w == w.invert_q()
