from fractions import Fraction as F
from functools import lru_cache
from itertools import islice
from math import comb

import pytest

from qzeta import QLaurent, bounded_partitions, gaussian_coeffs, q_binom_sym, q_int_sym, t_bracket
from qzeta.qcombinat import gaussian_steps_packed
from qzeta.qtpoly import QTPoly


def binom_by_division(n, k):
    """Oracle: (n choose k)_q = prod_{i=1..k} (n-k+i)_q / (i)_q, dividing after each factor."""
    out = QLaurent.one()
    for i in range(1, k + 1):
        out = (out * q_int_sym(n - k + i)).exact_div(q_int_sym(i))
    return out


@lru_cache(maxsize=None)
def partitions_by_recursion(r, j, m):
    """Oracle: p(r, j, m) = p(r - j, j, m - 1) + p(r, j - 1, m).

    Split by whether all j parts are positive (subtract 1 from each) or at
    most j - 1 parts are used.
    """
    if r < 0:
        return 0
    if r == 0:
        return 1
    if j == 0 or m == 0:
        return 0
    return partitions_by_recursion(r - j, j, m - 1) + partitions_by_recursion(r, j - 1, m)


def test_q_int_values():
    assert q_int_sym(0) == QLaurent()
    assert q_int_sym(1) == QLaurent({0: 1})
    assert q_int_sym(3) == QLaurent({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        q_int_sym(-1)


def test_q_binom_values():
    assert q_binom_sym(3, 1) == q_int_sym(3)
    # frozen from (4)_q (3)_q / (2)_q expanded by hand
    assert q_binom_sym(4, 2) == QLaurent({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binom_sym(7, 0) == QLaurent({0: 1})
    with pytest.raises(ValueError):
        q_binom_sym(3, 4)


def test_gaussian_coeffs_match_both_oracles():
    for n in range(17):
        for k in range(n + 1):
            coeffs = gaussian_coeffs(n, k)
            assert len(coeffs) == k * (n - k) + 1, (n, k)
            assert coeffs == [partitions_by_recursion(r, k, n - k) for r in range(len(coeffs))], (n, k)
            assert q_binom_sym(n, k) == binom_by_division(n, k), (n, k)
    with pytest.raises(ValueError):
        gaussian_coeffs(3, -1)


def test_gaussian_steps_list_every_step():
    # step i of gaussian_steps_packed(a, width) is [a+i choose i]_q, the list gaussian_coeffs builds
    for a in range(9):
        for i, packed in zip(range(13), gaussian_steps_packed(a, 64)):
            coeffs = _unpack(packed, 64)
            assert coeffs == [partitions_by_recursion(r, i, a) for r in range(a * i + 1)], (a, i)
            assert coeffs == gaussian_coeffs(a + i, i), (a, i)
    # a and width are read at the call, not at the first step
    with pytest.raises(ValueError, match="a must be non-negative"):
        gaussian_steps_packed(-1, 8)
    with pytest.raises(ValueError, match="a must be an integer, got 2.5"):
        gaussian_steps_packed(2.5, 8)
    with pytest.raises(ValueError, match="width must be an integer, got 2.5"):
        gaussian_steps_packed(2, 2.5)


def _unpack(v, width):
    """The base-2^width digits of v >= 0, lowest first."""
    out = []
    while v:
        out.append(v & (1 << width) - 1)
        v >>= width
    return out


def test_packed_steps_match_the_list_steps():
    # step i at q = 2^width is [a+i choose i]_q with one digit per coefficient,
    # the partition counts p(r, i, a) = p(ai - r, i, a) of the recursion;
    # binomial(76, 16) < 2^63, so width 64 holds every digit here
    for a in range(17):
        steps = zip(range(61), gaussian_steps_packed(a, 64), gaussian_steps_packed(a, 128))
        for i, narrow, wide in steps:
            low = [partitions_by_recursion(r, i, a) for r in range(a * i // 2 + 1)]
            coeffs = low + low[: (a * i + 1) // 2][::-1]
            assert _unpack(narrow, 64) == _unpack(wide, 128) == coeffs, (a, i)
    partitions_by_recursion.cache_clear()  # a few hundred thousand entries
    # the digits are exact only below 2^width: the largest coefficient of
    # [25 choose 5]_q is 1,394 < 2^14, that of [45 choose 5]_q 17,053 >= 2^14
    steps = list(islice(gaussian_steps_packed(5, 14), 41))
    assert _unpack(steps[20], 14) == gaussian_coeffs(25, 5)
    assert _unpack(steps[40], 14) != gaussian_coeffs(45, 5)
    with pytest.raises(ValueError, match="width must be >= 1"):
        gaussian_steps_packed(3, 0)
    with pytest.raises(ValueError, match="a must be non-negative"):
        gaussian_steps_packed(-1, 8)


def test_bounded_partitions_match_recursion():
    for j in range(11):
        for m in range(11):
            for r in range(-2, j * m + 3):
                assert bounded_partitions(r, j, m) == partitions_by_recursion(r, j, m), (r, j, m)
    with pytest.raises(ValueError):
        bounded_partitions(0, -1, 2)


def test_q_binom_palindromic_and_classical_limit():
    for n in range(9):
        for k in range(n + 1):
            b = q_binom_sym(n, k)
            assert b == b.invert_q()
            assert b == q_binom_sym(n, n - k)
            assert b.eval_at(F(1)) == comb(n, k)


def test_t_bracket():
    assert t_bracket(1) == QTPoly({(0, 0): 1})
    assert t_bracket(2) == QTPoly({(0, 0): 1, (0, 1): 1})
    assert t_bracket(3) == QTPoly({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        t_bracket(0)


def test_bounded_partitions_basics():
    assert bounded_partitions(-1, 3, 3) == 0
    assert bounded_partitions(0, 0, 0) == 1
    assert bounded_partitions(2, 2, 2) == 2     # {2}, {1,1}
    assert bounded_partitions(3, 2, 2) == 1     # {2,1}
    assert bounded_partitions(5, 2, 2) == 0


def test_bounded_partitions_total_count():
    for j in range(7):
        for m in range(7):
            total = sum(bounded_partitions(r, j, m) for r in range(j * m + 1))
            assert total == comb(j + m, m)


def test_grassmannian_coefficient():
    # p(r, j, m) is the coefficient of q^(jm - 2r) in (j+m choose m)_q
    for j in range(9):
        for m in range(9):
            b = q_binom_sym(j + m, m)
            for r in range(j * m + 1):
                assert partitions_by_recursion(r, j, m) == b.coeff(j * m - 2 * r), (r, j, m)


def test_multiplicity_monotonicity():
    for j in range(8):
        for m in range(8):
            for r in range(j * m // 2 + 1):
                diff = bounded_partitions(r, j, m) - bounded_partitions(r - 1, j, m)
                assert diff >= 0, (r, j, m)

