import random
from fractions import Fraction as F
from math import comb

import pytest

import qzeta.sl2 as sl2
from qzeta import (
    BudgetExceeded,
    QLaurent,
    QZetaError,
    Sl2Decomposition,
    adams_sym_power,
    cs_sym_power,
    dimq,
    dimq_prime,
    sym_power_weight_oracle,
    tensor_decompose,
)


def test_cs_low_cases():
    for j in range(6):
        assert cs_sym_power(1, j) == Sl2Decomposition({j: 1})
        assert cs_sym_power(0, j) == Sl2Decomposition({0: 1})
    assert cs_sym_power(2, 2) == Sl2Decomposition({4: 1, 0: 1})
    assert cs_sym_power(3, 2) == Sl2Decomposition({6: 1, 2: 1})
    with pytest.raises(ValueError):
        next(sl2.cs_rows(-1))


def test_cs_negative_multiplicity_is_a_typed_error(monkeypatch):
    # a coefficient list that decreases in r gives p(r) - p(r-1) < 0
    monkeypatch.setattr(sl2, "gaussian_coeffs", lambda n, k: [3, 2, 1, 0, 0])
    with pytest.raises(QZetaError, match="negative CS multiplicity"):
        cs_sym_power(2, 2)


def test_weight_oracle_cases():
    assert sym_power_weight_oracle(2, 2) == Sl2Decomposition({4: 1, 0: 1})
    assert sym_power_weight_oracle(0, 5) == Sl2Decomposition({0: 1})
    assert sym_power_weight_oracle(2, 3) == Sl2Decomposition({6: 1, 2: 1})
    with pytest.raises(BudgetExceeded):
        sym_power_weight_oracle(30, 30)


def test_adams_cases():
    assert adams_sym_power(1, 2) == Sl2Decomposition({2: 1})
    assert adams_sym_power(2, 2) == Sl2Decomposition({4: 1, 0: 1})
    assert adams_sym_power(3, 2) == Sl2Decomposition({6: 1, 2: 1})


def test_triple_agreement():
    for m in range(9):
        for j, row in zip(range(11), sl2.cs_rows(m)):
            cs = cs_sym_power(m, j)
            # the row stream gives the same dict, in the same (increasing p) order
            assert list(row.items()) == list(cs.parts.items()), (m, j)
            assert cs == sym_power_weight_oracle(m, j), (m, j)
            assert cs == adams_sym_power(m, j), (m, j)


def test_dimension_conservation():
    for m in range(7):
        for j in range(9):
            dec = cs_sym_power(m, j)
            assert dec.total_dimension() == comb(m + j, j)


def test_tensor_decompose():
    v1 = Sl2Decomposition({1: 1})
    v2 = Sl2Decomposition({2: 1})
    assert tensor_decompose(v1, v1) == Sl2Decomposition({2: 1, 0: 1})
    assert tensor_decompose(v2, v2) == Sl2Decomposition({4: 1, 2: 1, 0: 1})
    x = Sl2Decomposition({3: 2, 1: 1})
    assert tensor_decompose(Sl2Decomposition({0: 1}), x) == x


def test_dimq_prime():
    assert dimq_prime(Sl2Decomposition({2: 1})) == QLaurent({2: 1, 0: 1, -2: 1})
    assert dimq_prime(Sl2Decomposition({0: 1, 2: 1})) == QLaurent({2: 1, 0: 2, -2: 1})
    assert dimq_prime(Sl2Decomposition()) == QLaurent()


def test_dimq():
    assert dimq(Sl2Decomposition({2: 1})) == QLaurent({-2: 1, -4: 1, -6: 1})
    assert dimq(Sl2Decomposition({1: 1})) == QLaurent({F(-1, 2): 1, F(-5, 2): 1})
    assert dimq(Sl2Decomposition({0: 1})) == QLaurent({0: 1})


def test_dimq_prime_multiplicative():
    rng = random.Random(13)
    for _ in range(8):
        a = Sl2Decomposition({rng.randrange(5): rng.randrange(1, 3) for _ in range(2)})
        b = Sl2Decomposition({rng.randrange(5): rng.randrange(1, 3) for _ in range(2)})
        assert dimq_prime(tensor_decompose(a, b)) == dimq_prime(a) * dimq_prime(b)


def test_dimq_prime_classical_limit():
    for m in range(6):
        for j in range(7):
            assert dimq_prime(cs_sym_power(m, j)).eval_at(F(1)) == comb(m + j, j)


def test_adding_a_non_decomposition_is_a_type_error():
    # used to raise AttributeError: 'int' object has no attribute 'parts'
    with pytest.raises(TypeError):
        Sl2Decomposition({1: 1}) + 3
    assert Sl2Decomposition({1: 1}) + Sl2Decomposition({1: 1, 0: 2}) == Sl2Decomposition({1: 2, 0: 2})


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        Sl2Decomposition({2: -1})
    for parts in ({-3: 1}, {2.5: 1}, {F(2): 1}, {2: 1.5}, {2: F(1)}):
        with pytest.raises(ValueError):
            Sl2Decomposition(parts)
