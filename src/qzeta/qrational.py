"""Exact rational functions of q: quotients of QLaurent polynomials.

Canonical form: the fraction is reduced by a polynomial gcd, the
denominator carries no monomial content, and its lowest-exponent
coefficient is normalized to 1.  Structural equality on canonical forms is
then genuine equality of rational functions.  The gcd is taken on the dense
form that ``qlaurent`` owns (coefficient lists on the common exponent
lattice, so half-integer exponents are supported) and divided out with
``QLaurent.exact_div``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero
from .qlaurent import QLaurent, _exp_lattice, _from_intpoly, _to_intpoly, tpoly_gcd


class QRational:
    """Reduced quotient of two QLaurent polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: QLaurent | None = None, _reduced=False):
        if den is None:
            den = QLaurent.one()
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if not _reduced:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num: QLaurent, den: QLaurent):
        if num.is_zero:
            return QLaurent(), QLaurent.one()
        lat = _exp_lattice(num, den)
        g = tpoly_gcd(_to_intpoly(num, lat)[1], _to_intpoly(den, lat)[1])
        if len(g) > 1:
            g = _from_intpoly(g, 0, lat)
            num, den = num.exact_div(g), den.exact_div(g)
        # denominator: valuation 0, lowest coefficient 1; the shift goes to num
        vd = den.valuation()
        unit = QLaurent({-vd: Fraction(1) / den.coeff(vd)})
        return num * unit, den * unit

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(QLaurent(), QLaurent.one(), _reduced=True)

    @classmethod
    def one(cls):
        return cls(QLaurent.one(), QLaurent.one(), _reduced=True)

    @classmethod
    def from_laurent(cls, p: QLaurent):
        return cls(p, QLaurent.one())

    @classmethod
    def from_scalar(cls, c):
        return cls(QLaurent({0: c}), QLaurent.one())

    @property
    def is_zero(self):
        return self.num.is_zero

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRational):
            return x
        if isinstance(x, QLaurent):
            return QRational.from_laurent(x)
        if isinstance(x, (int, Fraction)):
            return QRational.from_scalar(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return QRational(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise DivisionByZero("division by zero QRational")
        return QRational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def invert_q(self) -> "QRational":
        """q -> q^-1 on both numerator and denominator."""
        return QRational(self.num.invert_q(), self.den.invert_q())

    def eval_at(self, r: Fraction) -> Fraction:
        d = self.den.eval_at(r)
        if d == 0:
            raise DivisionByZero(f"pole at q={r}")
        return self.num.eval_at(r) / d

    def is_q_symmetric(self) -> bool:
        return self == self.invert_q()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # every construction path is canonical, so equal values are equal structurally
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a Laurent polynomial (denominator 1) equals its numerator, so it hashes as that
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == QLaurent.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"QRational({self})"
