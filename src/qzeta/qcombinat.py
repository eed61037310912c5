"""Symmetric q-integers, q-binomials, t-brackets, and bounded partition counts.

Conventions: (n)_q = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n),
so everything here is palindromic under q <-> q^-1.

One integer kernel, ``gaussian_steps_packed``, steps the Gaussian polynomial
[a+i choose i]_q from i - 1 to i on its Kronecker-packed form, its value at
q = 2^width, one integer per step: a shift and a subtract, then a division
by (1 - q^i) as a product of U = a.bit_length() factors (1 + q^(i 2^u)) and
a mask.  Each reader fixes the width once, from the largest coefficient it
will read (binomial(a + i, i), the polynomial's value at q = 1), and decodes
the steps it reads with ``qlaurent._unpack``.  ``gaussian_coeffs`` runs it
min(k, n-k) steps to list [n choose k]_q, which the symmetric q-binomial and
the bounded partition counts read.  Two streams read every step: the
Cayley-Sylvester rows of ``sl2.cs_rows_packed`` with a = m, since
[j+m choose m]_q is step j, and ``weyl.zeta_cn_series`` with a = n - 1,
since its t^j coefficient is step j, so neither builds a q-binomial from
scratch.  Crit 01 compares ``zeta_cn_series`` with the closed product
expanded by ``FactoredRatQT.expand``: the two routes share no arithmetic,
only the decoder (``qlaurent._unpack`` and ``_from_digits``).
"""

from __future__ import annotations

import math
from itertools import islice

from .qlaurent import QLaurent, _as_int, _degree, _from_digits, _row_width, _unpack
from .qtpoly import QTPoly


def q_int_sym(n: int) -> QLaurent:
    """Symmetric q-integer (n)_q; (0)_q = 0."""
    n = _degree(n, "n")
    return QLaurent({n - 1 - 2 * i: 1 for i in range(n)})


def gaussian_steps_packed(a: int, width: int):
    """Yield [a+i choose i]_q at q = 2^width, for i = 0, 1, 2, ...: digit r of step i is p(r, i, a).

    Step i multiplies step i-1 by (1 - q^(a+i)), one shift and one
    subtract, and divides by (1 - q^i): (1 - q^i) prod over 2^u <= a of
    (1 + q^(i 2^u)) is 1 - q^(i 2^U) with i 2^U > a i, so that product
    gives step i plus step i times q^(i 2^U), and masking to the low
    width (a i + 1) bits leaves step i.  Exact while every digit of step i
    is below 2^width; the digits are partition counts, at most
    binomial(a + i, i), and the caller bounds them.
    """
    a, width = _degree(a, "a"), _degree(width, "width", 1)

    def steps():
        g, i = 1, 0
        while True:
            yield g
            i += 1
            g -= g << width * (a + i)
            for u in range(a.bit_length()):
                g += g << width * (i << u)
            g &= (1 << width * (a * i + 1)) - 1

    return steps()


def gaussian_coeffs(n: int, k: int) -> list[int]:
    """Coefficients of the Gaussian polynomial [n choose k]_q, constant term first.

    Entry r is p(r, k, n-k), the number of partitions of r into at most k
    parts each at most n-k: step min(k, n-k) of
    ``gaussian_steps_packed(max(k, n-k), width)``, decoded, with every
    coefficient at most binomial(n, k) < 2^(width-1).
    """
    n, k = _degree(n, "n"), _degree(k, "k")
    if k > n:
        raise ValueError(f"gaussian_coeffs requires 0 <= k <= n, got ({n}, {k})")
    width = _row_width(math.comb(n, k))
    return _unpack(next(islice(gaussian_steps_packed(max(k, n - k), width), min(k, n - k), None)), width)


def q_binom_sym(n: int, k: int) -> QLaurent:
    """Symmetric q-binomial (n choose k)_q = q^(-k(n-k)) [n choose k]_(q^2).

    Entry r of ``gaussian_coeffs(n, k)`` sits at exponent 2r - k(n-k), and
    k(n-k) is that polynomial's degree.
    """
    coeffs = gaussian_coeffs(n, k)
    return _from_digits(coeffs, 1 - len(coeffs), 2)


def t_bracket(m: int) -> QTPoly:
    """[m]_t = (1 - t^m)/(1 - t) = 1 + t + ... + t^(m-1)."""
    return QTPoly({(0, i): 1 for i in range(_degree(m, "m", 1))})


def bounded_partitions(r: int, j: int, m: int) -> int:
    """p(r, j, m): partitions of r into at most j parts each at most m."""
    r, j, m = _as_int(r, "r"), _degree(j, "j"), _degree(m, "m")
    return gaussian_coeffs(j + m, m)[r] if 0 <= r <= j * m else 0
