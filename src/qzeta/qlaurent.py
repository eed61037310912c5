"""Laurent polynomials in q with exact rational coefficients and exponents.

The coefficient type used everywhere else in the library.  Exponents are
exact rationals, not just integers: braided dimensions of odd-weight sl2
modules involve q^(-j(j+2)/2), which is half-integral.  Values are stored
as a finitely supported map exponent -> coefficient with no zero entries.

This module also owns the dense form of a Laurent polynomial: its
coefficient list in u = q^(1/L) on the common exponent lattice of the
operands (``_exp_lattice``, ``_to_intpoly``, ``_from_intpoly``).  The one
exact division, ``QLaurent.exact_div``, is a long division on that form,
lowest exponent first; ``QRational`` divides out its gcd with it.
Euclid's helpers ``tpoly_*`` divide the same lists from the highest
exponent down and serve only the gcd of ``QRational``'s canonical form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, ExactDivisionError

Exp = int | Fraction
Coeff = int | Fraction


def _norm_num(x):
    """Collapse integral Fractions to int (canonical dict keys/values).

    Tests the exact type: Fraction is a ``numbers.Rational``, so
    ``isinstance(x, Fraction)`` would run ``ABCMeta.__instancecheck__``.
    """
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def _as_int(x, what: str) -> int:
    """An integral value (2, 2.0, Fraction(2)) as an int; ValueError for any other value."""
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _exact(x, what: str) -> Coeff:
    """x as a canonical exact number: an int, or a Fraction that is not integral.

    Integral values of other types (2.0, Fraction(2), True) become int; any
    other value (1.5, 0.1, "1/2") raises ValueError, so no float enters a
    polynomial.  Constructors call it only for values that are not ints.
    """
    if type(x) is Fraction:
        return int(x) if x.denominator == 1 else x
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")


class QLaurent:
    """Immutable Laurent polynomial in q over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                if c == 0:
                    continue
                if type(e) is not int:
                    e = _exact(e, "exponent")
                if type(c) is not int:
                    c = _exact(c, "coefficient")
                clean[e] = clean.get(e, 0) + c
                if clean[e] == 0:
                    del clean[e]
        self._terms = {e: _norm_num(c) for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def from_sums(cls, terms: dict) -> "QLaurent":
        """Canonical QLaurent from accumulated {exponent: coefficient} sums with no zero values.

        Integral Fractions become ints (a key 1/2 + 1/2 becomes 1).  Unlike
        ``QLaurent(terms)`` it neither merges exponents nor drops zeros, so it
        only walks the dict once.
        """
        res = cls.__new__(cls)
        res._terms = {
            e if type(e) is int else _norm_num(e): c if type(c) is int else _norm_num(c)
            for e, c in terms.items()
        }
        return res

    # -- inspection ---------------------------------------------------

    def items(self):
        return self._terms.items()

    def coeff(self, e: Exp) -> Coeff:
        return self._terms.get(_norm_num(e), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def degree(self) -> Exp:
        """Largest exponent; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("degree of zero polynomial")
        return max(self._terms)

    def valuation(self) -> Exp:
        if not self._terms:
            raise ValueError("valuation of zero polynomial")
        return min(self._terms)

    def support(self):
        return sorted(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not QLaurent:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = QLaurent({0: other})
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v if type(v) is int else _norm_num(v)
            else:
                del out[e]
        res = QLaurent.__new__(QLaurent)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QLaurent.__new__(QLaurent)
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def __sub__(self, other):
        if type(other) is not QLaurent:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = QLaurent({0: other})
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) - c
            if v:
                out[e] = v if type(v) is int else _norm_num(v)
            else:
                del out[e]
        res = QLaurent.__new__(QLaurent)
        res._terms = out
        return res

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QLaurent:
            a, b = self._terms, other._terms
            if len(a) > len(b):
                a, b = b, a
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    elif e in out:
                        del out[e]
            return QLaurent.from_sums(out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return QLaurent()
        return QLaurent.from_sums({e: c * other for e, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: use exact_div against one()")
        out = QLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent({0: other})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that number
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- substitutions ------------------------------------------------

    def invert_q(self) -> "QLaurent":
        """q -> q^-1: negate all exponents."""
        res = QLaurent.__new__(QLaurent)
        res._terms = {_norm_num(-e): c for e, c in self._terms.items()}
        return res

    def q_power_substitute(self, k: Exp) -> "QLaurent":
        """q -> q^k: multiply all exponents by k (k may be rational, nonzero)."""
        if k == 0:
            raise ValueError("q -> q^0 collapses the variable")
        return QLaurent({e * k: c for e, c in self._terms.items()})

    def eval_at(self, r: Fraction) -> Fraction:
        """Exact evaluation at a nonzero rational (integer exponents only)."""
        r = Fraction(r)
        if r == 0:
            if any(e < 0 for e in self._terms):
                raise DivisionByZero("evaluation at q=0 with negative exponents")
            return Fraction(self._terms.get(0, 0))
        total = Fraction(0)
        for e, c in self._terms.items():
            if isinstance(e, Fraction):
                raise ValueError("cannot evaluate fractional exponent at a rational")
            total += c * r**e
        return total

    # -- support restriction -------------------------------------------

    def parts(self, which: str) -> "QLaurent":
        """Restrict support: strictly_positive | non_negative | zero | strictly_negative."""
        preds = {
            "strictly_positive": lambda e: e > 0,
            "non_negative": lambda e: e >= 0,
            "zero": lambda e: e == 0,
            "strictly_negative": lambda e: e < 0,
        }
        try:
            pred = preds[which]
        except KeyError:
            raise ValueError(f"unknown part {which!r}") from None
        res = QLaurent.__new__(QLaurent)
        res._terms = {e: c for e, c in self._terms.items() if pred(e)}
        return res

    # -- exact division -------------------------------------------------

    def exact_div(self, other: "QLaurent") -> "QLaurent":
        """Exact Laurent division; raises ExactDivisionError on a nonzero remainder.

        One dense long division, lowest exponent first, on the common
        exponent lattice of the two operands.  Each quotient coefficient
        stays an ``int`` while the divisor's lowest coefficient divides it;
        from the first step where it does not, steps use ``Fraction``.
        """
        if other.is_zero:
            raise DivisionByZero("division by zero QLaurent")
        if self.is_zero:
            return QLaurent()
        lattice = _exp_lattice(self, other)
        shift, rem = _to_intpoly(self, lattice)
        shift_b, div = _to_intpoly(other, lattice)
        shift -= shift_b
        steps = len(rem) - len(div) + 1
        if steps < 1:
            raise ExactDivisionError("nonzero remainder in exact_div")
        lead = div[0]
        # rem[i] is not read again once step i is done, so the divisor's
        # lowest term is left out of the update.
        tail = [(j, d) for j, d in enumerate(div) if j and d]
        integral = type(lead) is int
        quot = {}
        for i in range(steps):
            c = rem[i]
            if not c:
                continue
            if integral:
                qc, r = divmod(c, lead)
                integral = not r
            if not integral:
                qc = _norm_num(Fraction(c) / lead)
            quot[shift + i] = qc
            for j, d in tail:
                rem[i + j] -= qc * d
        if any(rem[steps:]):
            raise ExactDivisionError("nonzero remainder in exact_div")
        if lattice != 1:
            quot = {_norm_num(Fraction(k, lattice)): c for k, c in quot.items()}
        res = QLaurent.__new__(QLaurent)
        res._terms = quot
        return res

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                term = str(c)
            else:
                qs = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    term = qs
                elif c == -1:
                    term = f"-{qs}"
                else:
                    term = f"{c}*{qs}"
            bits.append(term)
        out = bits[0]
        for term in bits[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"QLaurent({self._terms!r})"


# -- the dense form on the exponent lattice ------------------------------------


def _exp_lattice(*polys) -> int:
    """Common denominator of all exponents across the given QLaurents."""
    d = 1
    for p in polys:
        for e in p._terms:
            if type(e) is not int:
                d = math.lcm(d, e.denominator)
    return d


def _to_intpoly(p: QLaurent, lattice: int):
    """Nonzero QLaurent -> (shift, coeffs) with p = u^shift * sum_i coeffs[i] u^i, u = q^(1/lattice).

    ``coeffs[0]`` is nonzero; the entries are p's own coefficients, with int
    0 in the gaps.  ``lattice`` must be a multiple of every exponent's
    denominator.
    """
    terms = p._terms
    v = min(terms)
    if lattice == 1:
        coeffs = [0] * (max(terms) - v + 1)
        for e, c in terms.items():
            coeffs[e - v] = c
        return v, coeffs
    coeffs = [0] * (int((max(terms) - v) * lattice) + 1)
    for e, c in terms.items():
        k = (e - v) * lattice
        if k.denominator != 1:
            raise ValueError("exponent not on the common lattice")
        coeffs[k.numerator] = c
    return int(v * lattice), coeffs


def _from_intpoly(coeffs, shift, lattice: int) -> QLaurent:
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            terms[Fraction(i + shift, lattice)] = c
    return QLaurent(terms)


# -- Euclid on dense Fraction coefficient lists, for QRational's gcd -----------


def tpoly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def tpoly_divmod(p, d):
    d = tpoly_trim(list(d))
    if not d:
        raise ZeroDivisionError("t-polynomial division by zero")
    rem = [Fraction(x) for x in p]
    quot = [Fraction(0)] * max(len(rem) - len(d) + 1, 0)
    while len(tpoly_trim(rem)) >= len(d):
        rem = tpoly_trim(rem)
        shift = len(rem) - len(d)
        f = rem[-1] / d[-1]
        quot[shift] += f
        for i, c in enumerate(d):
            rem[shift + i] -= f * c
    return tpoly_trim(quot), tpoly_trim(rem)


def tpoly_gcd(p, r):
    """Monic gcd over the rationals."""
    a, b = tpoly_trim([Fraction(x) for x in p]), tpoly_trim([Fraction(x) for x in r])
    while b:
        _, rem = tpoly_divmod(a, b)
        a, b = b, rem
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a
