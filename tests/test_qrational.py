from fractions import Fraction as F

import pytest

from qzeta import DivisionByZero, ExactDivisionError, QLaurent, QRational
from qzeta.qrational import _poly_exact_div


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


def test_poly_exact_div_raises_on_remainder():
    # (u^2 - 1)/(u + 1) = u - 1, but u^2 + 1 leaves remainder 2
    assert _poly_exact_div([F(-1), F(0), F(1)], [F(1), F(1)]) == [-1, 1]
    with pytest.raises(ExactDivisionError):
        _poly_exact_div([F(1), F(0), F(1)], [F(1), F(1)])
