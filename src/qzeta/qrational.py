"""Exact rational functions of q: quotients of QLaurent polynomials.

Canonical form: the fraction is reduced by a polynomial gcd, the
denominator carries no monomial content, and its lowest-exponent
coefficient is normalized to 1.  Structural equality on canonical forms is
then genuine equality of rational functions.  The reduction runs on the
dense form that ``qlaurent`` owns (lists on the common exponent lattice, so
half-integer exponents are supported): ``_gcd_low``, then ``_divide_low``,
the long division behind ``QLaurent.exact_div``, on num and den.

Both dense quotients are decoded over the denominator quotient's lowest
coefficient by ``qlaurent._from_digits``, the decoder of every dense and
packed form, straight into canonical terms.  Fraction appears only
where the numbers are not integers: a coefficient that this lowest
coefficient does not divide, a Fraction coefficient of the input (which
``_to_intpoly`` passes on and ``_divide_low`` divides as it is), an
exponent off the integers when the lattice is finer than 1, and the
values of ``eval_at``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, ExactDivisionError
from .qlaurent import QLaurent, _divide_low, _exp_lattice, _from_digits, _gcd_low, _to_intpoly


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
        shift, top = _to_intpoly(num, lat)
        shift_d, bottom = _to_intpoly(den, lat)
        g = _gcd_low(top, bottom)
        quot_n, quot_d = _divide_low(top, g), _divide_low(bottom, g)
        if any(top[len(quot_n):]) or any(bottom[len(quot_d):]):
            raise ExactDivisionError("the gcd leaves a remainder")
        # denominator: valuation 0, lowest coefficient 1; the shift goes to num
        lead = quot_d[0]
        return _from_digits(quot_n, shift - shift_d, 1, lat, lead), _from_digits(quot_d, 0, 1, lat, lead)

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
