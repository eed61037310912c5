import random
from fractions import Fraction as F
from itertools import islice
from math import comb

import pytest

import qzeta.sl2 as sl2
import qzeta.zeta_engine as zeta_engine
from qzeta import (
    BudgetExceeded,
    QLaurent,
    QZetaError,
    Sl2Decomposition,
    adams_sym_power,
    character,
    cm_recursion_step,
    cm_series_cs,
    cs_sym_power,
    dimq,
    dimq_prime,
    gaussian_coeffs,
    q_int_sym,
    sym_power_weight_oracle,
    tensor_decompose,
)
from qzeta.qlaurent import _from_digits, _row_width, _unpack


def test_cs_low_cases():
    for j in range(6):
        assert cs_sym_power(1, j) == Sl2Decomposition({j: 1})
        assert cs_sym_power(0, j) == Sl2Decomposition({0: 1})
    assert cs_sym_power(2, 2) == Sl2Decomposition({4: 1, 0: 1})
    assert cs_sym_power(3, 2) == Sl2Decomposition({6: 1, 2: 1})
    with pytest.raises(ValueError):
        sl2.cs_rows_packed(-1, 8)


def _packed(digits, width):
    return sum(c << width * r for r, c in enumerate(digits))


def test_cs_negative_multiplicity_is_a_typed_error(monkeypatch):
    # a step that decreases from r = 1 to r = 2 gives p(2) - p(1) < 0, which
    # the packed row reads from the upper half of the palindrome
    steps = ([1], [1, 1, 1], [1, 2, 1, 2, 1])
    monkeypatch.setattr(sl2, "gaussian_steps_packed", lambda a, w: iter([_packed(g, w) for g in steps]))
    with pytest.raises(QZetaError, match=r"negative CS multiplicity at \(m=2, j=2, r=2\)"):
        cs_sym_power(2, 2)


def _unpack_row(v, j, m, width):
    """{p: multiplicity} of a packed c_m row: digit d is the coefficient of q^(2d + jm % 2)."""
    row, d = {}, 0
    while v:
        x = v & (1 << width) - 1
        if x >= 1 << width - 1:
            x -= 1 << width
        if x:
            row[2 * d + j * m % 2] = x
        v, d = (v - x) >> width, d + 1
    return row


def _cs_parts(m, j, p):
    """Oracle: {jm - 2r: p[r] - p[r-1]} over 0 <= r <= jm/2, zeros left out, jm - 2r increasing.

    The list route the packed rows replaced, on the coefficient list p of
    [j+m choose m]_q.
    """
    parts = {}
    for r in range(j * m // 2, -1, -1):
        mult = p[r] - (p[r - 1] if r else 0)
        assert mult >= 0, (m, j, r)
        if mult:
            parts[j * m - 2 * r] = mult
    return parts


def _cs_rows(m, count):
    """Oracle rows j < count of c_m, from gaussian_coeffs(j + m, m): m steps of the kernel at a = j where j > m."""
    return [_cs_parts(m, j, gaussian_coeffs(j + m, m)) for j in range(count)]


def test_packed_cs_rows_match_cs_rows():
    for m in range(15):
        packed = sl2.cs_rows_packed(m, 96)
        for j, row, v in zip(range(61), _cs_rows(m, 61), packed):
            assert _unpack_row(v, j, m, 96) == row, (m, j)


def test_packed_cs_rows_stop_where_the_width_stops_being_exact():
    # the stream ends before the first j with binomial(j + m, m) >= 2^(width-1)
    for m, width in ((1, 8), (3, 12), (5, 24), (8, 40)):
        rows = list(sl2.cs_rows_packed(m, width))
        j = len(rows)
        assert comb(j - 1 + m, m) < 2 ** (width - 1) <= comb(j + m, m), (m, width)
        assert [_unpack_row(v, i, m, width) for i, v in enumerate(rows)] == _cs_rows(m, j)
    with pytest.raises(ValueError, match="width must be >= 2"):
        sl2.cs_rows_packed(3, 1)


def test_packed_cs_negative_multiplicity_is_a_typed_error(monkeypatch):
    # the packed rows read the upper half of the palindrome, G[c + d] - G[c + d + 1];
    # a step that rises from q^2 to q^3 gives V_1 of S^1(V_3) multiplicity 2 - 3
    width = 16
    monkeypatch.setattr(sl2, "gaussian_steps_packed", lambda a, w: iter([1, _packed([1, 1, 2, 3], w)]))
    with pytest.raises(QZetaError, match=r"negative CS multiplicity at \(m=3, j=1, r=1\)"):
        list(sl2.cs_rows_packed(3, width))


def test_cs_sym_power_reads_the_shorter_row_of_hermite_reciprocity(monkeypatch):
    # S^j(V_m) = S^m(V_j): row min(m, j) of c_max(m, j) is row j of c_m, in either argument order
    for m in range(17):
        for j in range(17):
            width = _row_width(comb(j + m, m))
            row = next(islice(sl2.cs_rows_packed(m, width), j, None))
            direct = Sl2Decomposition(_from_digits(_unpack(row, width), j * m % 2, 2).items())
            assert cs_sym_power(m, j) == cs_sym_power(j, m) == direct, (m, j)
            assert list(cs_sym_power(m, j).parts.items()) == list(direct.parts.items()), (m, j)
    pulled = []
    steps = sl2.gaussian_steps_packed

    def counted(a, width):
        for g in steps(a, width):
            pulled.append(a)
            yield g

    monkeypatch.setattr(sl2, "gaussian_steps_packed", counted)
    assert cs_sym_power(2, 200) == cs_sym_power(200, 2) == Sl2Decomposition({400 - 4 * k: 1 for k in range(101)})
    assert pulled == [200] * 6  # 3 steps of [200 + i choose i]_q per call, i = 0, 1, 2


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
        for j, row in enumerate(cm_series_cs(m, 10).table):
            cs = cs_sym_power(m, j)
            # c_m's row gives the same multiplicities, in the same (increasing p) order
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
    # True is an int subclass: it used to print as V_True and serialize as true
    for parts in ({-3: 1}, {2.5: 1}, {F(2): 1}, {2: 1.5}, {2: F(1)}, {True: 1}, {2: True}):
        with pytest.raises(ValueError):
            Sl2Decomposition(parts)


# -- the character and its inverse ---------------------------------------------


def _character_by_sums(d):
    """Oracle: the character as a sum of (m+1)_q, by QLaurent addition."""
    acc = QLaurent()
    for m, mult in d.parts.items():
        acc = acc + q_int_sym(m + 1) * mult
    return acc


def test_character_and_peel_on_mixed_parities():
    # V_0 + V_1 = 1 + (q + q^-1): one running sum per parity
    d = Sl2Decomposition({0: 1, 1: 1})
    assert character(d) == QLaurent({1: 1, 0: 1, -1: 1})
    assert sl2.peel_character(character(d)) == d
    rng = random.Random(29)
    for _ in range(200):
        d = Sl2Decomposition({rng.randrange(9): rng.randrange(1, 4) for _ in range(rng.randrange(4))})
        chi = character(d)
        assert chi == _character_by_sums(d), d
        assert all(type(e) is int and type(c) is int for e, c in chi.items()), d
        assert sl2.peel_character(chi) == d


@pytest.mark.parametrize("chi", [
    QLaurent({1: 1}),                         # asymmetric: V_1 would give q + q^-1
    QLaurent({1: 1, -1: 1, -3: 1}),           # asymmetric below q^0 only
    QLaurent({2: 1, -2: 1}),                  # V_0 would have multiplicity 0 - 1
    QLaurent({F(1, 2): 1, F(-1, 2): 1}),      # half-integer highest weight
    QLaurent({1: F(1, 2), -1: F(1, 2)}),      # non-integral multiplicity
], ids=["asymmetric", "asymmetric-below", "negative", "half-integer", "non-integral"])
def test_peel_character_refuses_what_is_no_character(chi):
    with pytest.raises(ValueError, match="not a genuine sl2 character"):
        sl2.peel_character(chi)


def test_cayley_sylvester_and_recursion_share_no_character_kernel(monkeypatch):
    # crit 06 and test_triple_agreement check the character kernels against
    # cs_rows_packed and the recursion, so neither route may call them
    cs = [[cs_sym_power(m, j) for j in range(9)] for m in range(7)]
    series = [cm_series_cs(m, 12) for m in range(7)]

    def refuse(_row):
        raise AssertionError("a character kernel was called")

    for module in (sl2, zeta_engine):
        monkeypatch.setattr(module, "_character_row", refuse)
        monkeypatch.setattr(module, "_multiplicity_row", refuse)
    assert [[cs_sym_power(m, j) for j in range(9)] for m in range(7)] == cs
    assert [cm_series_cs(m, 12) for m in range(7)] == series
    assert [cm_recursion_step(m, series[m - 2], 12) for m in range(2, 7)] == series[2:]
