"""Truncated power series in t with QLaurent coefficients.

A series is a list of QLaurent rows t^0..t^order, the layout that
``QTPoly`` and every (q, t) kernel share; ``_mul_rows`` is the one row
product of both.  Binary operations truncate to the minimum order of the
operands, and reading a coefficient beyond the stored order is an error
rather than a silent zero.

Division by a closed-form factor (1 - q^a t^b) is the recurrence
out[j] = s[j] + q^a out[j - b], never a product with a whole geometric
series.  Its one kernel, ``_over_one_minus_packed``, runs on
Kronecker-packed rows (``qlaurent._pack``): each row is one integer, and
in a layout where q^a t^b moves a row a fixed number of digits up, the
step is rows[j] += rows[j - b] << shift, one big-integer shift-add per
t-degree.  It has two callers, ``FactoredRatQT.expand`` (every closed
form's expansion) and ``zeta_engine.cm_recursion_step`` (its five
divisions); each packs its rows once, divides them by all its factors and
decodes each row once.  The dict-row recurrence it replaced is the oracle
in ``tests/test_tseries.py``.  Series products serve crit 14(c) (the
direct sum); ``invert_unit`` and ``geometric_series`` serve the tests as
oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnit
from .qlaurent import QLaurent, _degree


class TSeries:
    """Power series in t known through t^order, coefficients QLaurent."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order = _degree(order, "order")
        if coeffs is None:
            self._coeffs = [QLaurent() for _ in range(order + 1)]
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list must have length order+1")
            self._coeffs = [c if isinstance(c, QLaurent) else QLaurent({0: c}) for c in coeffs]

    @classmethod
    def one(cls, order: int) -> "TSeries":
        s = cls(order)
        s._coeffs[0] = QLaurent.one()
        return s

    def coeff(self, j: int) -> QLaurent:
        if j < 0:
            return QLaurent()
        if j > self.order:
            raise IndexError(f"coefficient t^{j} beyond stored order {self.order}")
        return self._coeffs[j]

    def coeffs(self):
        return list(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(n, [self._coeffs[j] + other._coeffs[j] for j in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(n, [self._coeffs[j] - other._coeffs[j] for j in range(n + 1)])

    def __neg__(self):
        return TSeries(self.order, [-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QLaurent)):
            return TSeries(self.order, [c * other for c in self._coeffs])
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(n, _mul_rows(self._coeffs, other._coeffs, n))

    __rmul__ = __mul__

    def invert_unit(self) -> "TSeries":
        """Invert a series whose constant term is a QLaurent monomial.

        Writes s = c0 (1 + r) and inverts (1 + r) by the geometric recursion.
        """
        c0 = self._coeffs[0]
        if c0.is_zero or not c0.is_monomial():
            raise NotAUnit("constant coefficient is not an invertible monomial")
        (e, c), = c0.items()
        c0_inv = QLaurent({-e: Fraction(1, 1) / c})
        # u = 1 + r  with  r = c0_inv * (s - c0)
        n = self.order
        r = [QLaurent()] + [c0_inv * cc for cc in self._coeffs[1:]]
        # inv[j] satisfies inv[0]=1, inv[j] = -sum_{i=1..j} r[i] * inv[j-i]
        inv = [QLaurent.one()]
        for j in range(1, n + 1):
            acc = QLaurent()
            for i in range(1, j + 1):
                if not r[i].is_zero:
                    acc = acc + r[i] * inv[j - i]
            inv.append(-acc)
        return TSeries(n, [c * c0_inv for c in inv])

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __str__(self):
        bits = []
        for j, c in enumerate(self._coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if j == 0:
                bits.append(cs)
            else:
                ts = "t" if j == 1 else f"t^{j}"
                bits.append(ts if cs == "1" else f"({cs}) {ts}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"TSeries(order={self.order}, {self})"


def _mul_rows(a: list, b: list, top: int) -> list:
    """Rows t^0..t^top of the product of two lists of QLaurent t-coefficients.

    Every pair of terms adds into one {exponent: coefficient} dict per output
    row, and each row becomes a QLaurent once.
    """
    b_terms = [(k, e, c) for k, y in enumerate(b[: top + 1]) for e, c in y.items()]
    sums = [{} for _ in range(top + 1)]
    for i, x in enumerate(a[: top + 1]):
        for e1, c1 in x.items():
            for k, e2, c2 in b_terms:
                if i + k > top:
                    break
                out = sums[i + k]
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return [QLaurent.from_sums(row) for row in sums]


def _over_one_minus_packed(rows: list, texp: int, shift: int) -> None:
    """Divide packed rows t^0..t^order by (1 - X^shift t^texp) in place, X = 2^width the packing base.

    out[j] = s[j] + (out[j - texp] << shift), updated from low j to high j,
    so out[j - texp] is final when read.  A factor q^a t^b of the caller's
    layout moves row j - b a fixed number of digits up, which is ``shift``.
    """
    for j in range(texp, len(rows)):
        rows[j] += rows[j - texp] << shift


def geometric_series(qexp, order: int, texp: int = 1) -> TSeries:
    """Expansion of 1/(1 - q^qexp * t^texp) through t^order."""
    order, texp = _degree(order, "order"), _degree(texp, "texp", 1)
    out = [QLaurent() for _ in range(order + 1)]
    k = 0
    while k * texp <= order:
        out[k * texp] = QLaurent({qexp * k: 1})
        k += 1
    return TSeries(order, out)
