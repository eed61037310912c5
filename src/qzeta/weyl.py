"""A-series root data and the quantum Weyl dimension formula.

Positive roots of A_{n-1} are the intervals [i..k] of simple roots, so the
inner products against a dominant weight need no Killing-form matrix:
(alpha_[i..k], Lambda + rho) = sum_{l=i..k} (lambda_l + 1) and
(alpha_[i..k], rho) = k - i + 1 (the height).

The braided zeta of n points has two routes here.  ``zeta_cn_closed`` is
the closed product prod 1/(1 - q^j t), which ``FactoredRatQT.expand``
divides out on packed rows; ``zeta_cn_series`` lists the symmetric
q-binomials (n+j-1 choose j)_q, all of them from one
``qcombinat.gaussian_steps_packed(n - 1, width)`` stream, whose step j is
[n-1+j choose j]_q.  The two share no arithmetic, only the decoder
(``qlaurent._unpack`` and ``_from_digits``), so crit 01 compares them.
"""

from __future__ import annotations

import math

from .qcombinat import gaussian_steps_packed, q_int_sym
from .qlaurent import QLaurent, _degree, _from_digits, _row_width, _unpack
from .qtpoly import FactoredRatQT, QTPoly
from .tseries import TSeries


class DominantWeightA:
    """Dominant integral weight of sl_n in the fundamental-weight basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        n = _degree(n, "rank parameter n", 2)
        coeffs = tuple(_degree(c, "weight coefficient") for c in coeffs)
        if len(coeffs) != n - 1:
            raise ValueError(f"expected {n - 1} coefficients for sl_{n}")
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def j_omega1(cls, n: int, j: int):
        n = _degree(n, "rank parameter n", 2)
        return cls(n, [j] + [0] * (n - 2))

    def __repr__(self):
        return f"DominantWeightA(n={self.n}, {self.coeffs})"


def weyl_qdim_prime(w: DominantWeightA) -> QLaurent:
    """Multiplicative braided dimension of V(Lambda) by the q-Weyl product.

    Product over positive roots of ((alpha, Lambda+rho))_q / ((alpha, rho))_q,
    computed as one exact Laurent division of the two factor products.
    """
    num = QLaurent.one()
    den = QLaurent.one()
    n = w.n
    for i in range(1, n):
        for k in range(i, n):
            pairing = sum(w.coeffs[l - 1] + 1 for l in range(i, k + 1))
            num = num * q_int_sym(pairing)
            den = den * q_int_sym(k - i + 1)
    return num.exact_div(den)


def zeta_cn_closed(n: int) -> FactoredRatQT:
    """Closed form of the braided zeta of n points: prod 1/(1 - q^j t), j = -(n-1)..(n-1) step 2."""
    n = _degree(n, "n", 1)
    return FactoredRatQT(QTPoly.one(), [((j, 1), 1) for j in range(-(n - 1), n, 2)])


def zeta_cn_series(n: int, order: int) -> TSeries:
    """Series route: coefficient of t^j is the symmetric q-binomial (n+j-1 choose j)_q.

    Step j of one ``gaussian_steps_packed(n - 1, width)`` stream is
    [n-1+j choose j]_q, so the whole series costs one packed step per
    t-degree; digit r of step j sits at q^(2r - j(n-1)), as in
    ``q_binom_sym``.  The digits are partition counts, all positive and at
    most binomial(n-1+order, order) < 2^(width-1), so each decodes exactly
    and every one is a term.
    """
    n, order = _degree(n, "n", 1), _degree(order, "order")
    width = _row_width(math.comb(n - 1 + order, order))
    steps = zip(range(order + 1), gaussian_steps_packed(n - 1, width))
    return TSeries(order, [_from_digits(_unpack(g, width), -j * (n - 1), 2) for j, g in steps])
