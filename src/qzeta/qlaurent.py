"""Laurent polynomials in q with exact rational coefficients and exponents.

The coefficient type used everywhere else in the library.  Exponents are
exact rationals, not just integers: braided dimensions of odd-weight sl2
modules involve q^(-j(j+2)/2), which is half-integral.  Values are stored
as a finitely supported map exponent -> coefficient with no zero entries.

Exact division has two routes behind the one entry point ``exact_div``.
When both operands have only ``int`` exponents and ``int`` coefficients --
nearly every division the library does, such as the q-binomial chain and the
division by q - q^-1 -- it is a dense integer long division.  Any
``Fraction`` exponent or coefficient, or a step whose coefficient the
divisor's lowest coefficient does not divide, sends the whole division to
the ``Fraction`` loop ``_exact_div_fraction``.  Both routes give the same
quotient and both raise ``ExactDivisionError`` on a nonzero remainder.
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
                e = _norm_num(e if isinstance(e, (int, Fraction)) else Fraction(e))
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
        """Exact Laurent division; raises ExactDivisionError on nonzero remainder.

        Integer operands (``int`` exponents and coefficients on both sides)
        take a dense integer long division.  Anything else, or a quotient
        coefficient that is not an integer, takes the ``Fraction`` loop.
        """
        if other.is_zero:
            raise DivisionByZero("division by zero QLaurent")
        if self.is_zero:
            return QLaurent()
        if _int_terms(self._terms) and _int_terms(other._terms):
            quot = _exact_div_int(self._terms, other._terms)
            if quot is not None:
                res = QLaurent.__new__(QLaurent)
                res._terms = quot
                return res
        return _exact_div_fraction(self, other)

    def monomial_content(self):
        """(exponent, coefficient) of the common monomial factor, for a != 0.

        The coefficient is the positive gcd of all coefficients (as a
        Fraction), signed by the lowest term; the exponent is the valuation.
        """
        if self.is_zero:
            raise ValueError("content of zero")
        v = self.valuation()
        num_gcd = 0
        den_lcm = 1
        for c in self._terms.values():
            f = Fraction(c)
            num_gcd = math.gcd(num_gcd, f.numerator)
            den_lcm = math.lcm(den_lcm, f.denominator)
        g = Fraction(num_gcd, den_lcm)
        if self._terms[v] < 0:
            g = -g
        return v, g

    def primitive(self) -> "QLaurent":
        """Divide out the monomial content: lowest term becomes positive, exponent 0."""
        v, g = self.monomial_content()
        res = QLaurent.__new__(QLaurent)
        res._terms = {_norm_num(e - v): _norm_num(Fraction(c) / g) for e, c in self._terms.items()}
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


def _int_terms(terms) -> bool:
    """True when every exponent and coefficient is exactly an ``int``."""
    return all(type(e) is int and type(c) is int for e, c in terms.items())


def _exact_div_int(a: dict, b: dict):
    """Dense integer long division of term maps a / b, lowest exponent first.

    Returns the quotient's term map, or None when some step's coefficient is
    not divisible by b's lowest coefficient (the quotient is not integral,
    so the caller falls back to ``_exact_div_fraction``).  Raises
    ExactDivisionError on a nonzero remainder, including a dividend whose
    span is narrower than the divisor's.
    """
    va, vb = min(a), min(b)
    span_a, span_b = max(a) - va, max(b) - vb
    if span_a < span_b:
        raise ExactDivisionError("nonzero remainder in exact_div")
    rem = [0] * (span_a + 1)
    for e, c in a.items():
        rem[e - va] = c
    blow = b[vb]
    # rem[i] is not read again once step i is done, so the divisor's lowest
    # term is left out of the update.
    divisor = [(e - vb, c) for e, c in b.items() if e != vb]
    qv = va - vb
    quot = {}
    for i in range(span_a - span_b + 1):
        c = rem[i]
        if not c:
            continue
        qc, r = divmod(c, blow)
        if r:
            return None
        quot[qv + i] = qc
        for j, d in divisor:
            rem[i + j] -= qc * d
    if any(rem[span_a - span_b + 1:]):
        raise ExactDivisionError("nonzero remainder in exact_div")
    return quot


def _exact_div_fraction(a: QLaurent, b: QLaurent) -> QLaurent:
    """Exact division of nonzero a by nonzero b over the rationals.

    The general route, for ``Fraction`` exponents or coefficients; it also
    serves as the oracle for the integer route.  Raises ExactDivisionError
    on a nonzero remainder.
    """
    vb, db = b.valuation(), b.degree()
    blow = b._terms[vb]
    rem = dict(a._terms)
    quot = {}
    # divide from the lowest exponent upwards; quotient exponents are
    # bounded by deg(a) - deg(b), which bounds the loop.
    max_qexp = a.degree() - db
    while rem:
        e_low = min(rem)
        qe = e_low - vb
        if qe > max_qexp:
            raise ExactDivisionError("nonzero remainder in exact_div")
        qc = Fraction(rem[e_low]) / blow
        quot[qe] = _norm_num(qc)
        for e2, c2 in b._terms.items():
            e = qe + e2
            v = rem.get(e, 0) - qc * c2
            if v:
                rem[e] = v
            elif e in rem:
                del rem[e]
    res = QLaurent.__new__(QLaurent)
    res._terms = {_norm_num(e): c for e, c in quot.items() if c}
    return res
