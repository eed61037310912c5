"""Exact rational functions of q: quotients of QLaurent polynomials.

Canonical form: the fraction is reduced by a polynomial gcd (computed on an
integer exponent lattice, so half-integer exponents are supported), the
denominator carries no monomial content, and its lowest-exponent
coefficient is normalized to 1.  Structural equality on canonical forms is
then genuine equality of rational functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .errors import DivisionByZero, ExactDivisionError, QZetaError
from .qlaurent import QLaurent
from .qtpoly import tpoly_divmod, tpoly_gcd


def _exp_lattice(*polys):
    """Common denominator of all exponents across the given QLaurents."""
    d = 1
    for p in polys:
        for e, _ in p.items():
            if isinstance(e, Fraction):
                d = d * e.denominator // _igcd(d, e.denominator)
    return d


def _to_intpoly(p: QLaurent, lattice: int):
    """QLaurent -> (shift, coeff list) with u = q^(1/lattice) and val 0."""
    v = p.valuation()
    shift = v * lattice
    terms = {}
    for e, c in p.items():
        k = (e - v) * lattice
        ik = int(k)
        if ik != k:
            raise ValueError("exponent not on the common lattice")
        terms[ik] = Fraction(c)
    deg = max(terms)
    return shift, [terms.get(i, Fraction(0)) for i in range(deg + 1)]


def _from_intpoly(coeffs, shift, lattice: int) -> QLaurent:
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            terms[Fraction(i + shift, lattice)] = c
    return QLaurent(terms)


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
        sn, pn = _to_intpoly(num, lat)
        sd, pd = _to_intpoly(den, lat)
        g = tpoly_gcd(pn, pd)
        if len(g) > 1:
            pn, rn = tpoly_divmod(pn, g)
            pd, rd = tpoly_divmod(pd, g)
            if rn or rd:
                raise ExactDivisionError("inexact division after gcd reduction")
        # denominator: valuation 0, lowest coefficient 1; shift goes to num
        lead = pd[0]
        if lead == 0:
            raise QZetaError("reduced denominator has no constant term")
        pd = [c / lead for c in pd]
        pn = [c / lead for c in pn]
        return _from_intpoly(pn, sn - sd, lat), _from_intpoly(pd, 0, 1 if lat == 1 else lat)

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
        # canonical forms make structural equality sound; cross-multiply as
        # a safety net against any non-canonical construction path.
        if self.num == o.num and self.den == o.den:
            return True
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == QLaurent.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"QRational({self})"
