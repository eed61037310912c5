"""Laurent polynomials in q with exact rational coefficients and exponents.

The coefficient type used everywhere else in the library.  Exponents are
exact rationals, not just integers: braided dimensions of odd-weight sl2
modules involve q^(-j(j+2)/2), which is half-integral.  Values are stored
as a finitely supported map exponent -> coefficient with no zero entries.

Every exponent and coefficient is canonical: an int, or a Fraction that is
not integral, so equal values are equal keys and one number has one
encoding.  There are three constructors, one per kind of input.
``QLaurent(terms)`` is for outside input and literals: it refuses floats
and strings, merges repeated exponents and drops zeros.  ``from_sums`` is
for accumulated sums with no zero value, whose Fraction parts may have
summed to an integer: it collapses those to ints in one pass.  ``_wrap``
is for terms that are canonical by construction (an integer kernel's
row, a negation, a shift by an int): it holds the dict as given, checks
nothing, and is the one place a QLaurent is made without ``__init__``.

This module also owns the dense form of a Laurent polynomial: its
coefficient list in u = q^(1/L) on the common exponent lattice of the
operands (``_exp_lattice``, ``_to_intpoly``).  Its one long division,
``_divide_low``, works lowest exponent first.  ``QLaurent.exact_div`` is
that division plus a remainder check.  ``_gcd_low``, the gcd of
``QRational``'s canonical form, is Euclid's algorithm on the reversed
polynomials over Z, lowest term first like the division, on primitive
remainders so that no coefficient grows with the degree.

It also owns the packed form of a row, the one pack/unpack layer that the
(q, t) kernels share: a row of integer coefficients at digit positions
0, 1, 2, ... is held as its value at X = 2^width (``_pack``), so that a
product by a power of q is a shift and a sum of rows is one integer
addition, and it is read back once, in balanced digits (``_unpack``), which
is exact while every coefficient lies in (-2^(width-1), 2^(width-1)).  Each
caller fixes the width before any arithmetic, from a bound on the
coefficients it will read (``_width_for``, ``_row_width``); a packed integer
is the row's exact value at X whatever the width, so only the decode rests
on that bound.  ``_from_digits`` turns decoded digits into a QLaurent on an
arithmetic progression of exponents.

``_degree`` is the one reader of integer arguments: every count, degree,
order, size and exponent bound that a public function or constructor
takes goes through it once, at entry.  It returns an int, so 2.0 and
Fraction(4, 2) count as 2, and raises ValueError for a non-integral value
or one below the argument's least value.  ``_as_int`` is its integrality
half, read alone only where any integer is valid.
"""

from __future__ import annotations

import math
import sys
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


def _degree(j, what: str = "j", least: int = 0) -> int:
    """An integer argument as an int; ValueError if it is not integral or is below ``least``."""
    if type(j) is not int:
        j = _as_int(j, what)
    if j < least:
        raise ValueError(f"{what} must be non-negative" if least == 0 else f"{what} must be >= {least}")
    return j


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
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def from_sums(cls, terms: dict) -> "QLaurent":
        """Canonical QLaurent from accumulated {exponent: coefficient} sums with no zero values.

        Integral Fractions become ints (a key 1/2 + 1/2 becomes 1).  Unlike
        ``QLaurent(terms)`` it neither merges exponents nor drops zeros, so it
        only walks the dict once.
        """
        return cls._wrap({
            e if type(e) is int else _norm_num(e): c if type(c) is int else _norm_num(c)
            for e, c in terms.items()
        })

    @staticmethod
    def _wrap(terms: dict) -> "QLaurent":
        """The QLaurent that holds the canonical dict ``terms`` itself, unchecked and uncopied."""
        res = QLaurent.__new__(QLaurent)
        res._terms = terms
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

    def _merge(subtract: bool):
        """The method self + other, or self - other if ``subtract``: one pass over other's terms."""

        def merge(self, other):
            if type(other) is not QLaurent:
                if not isinstance(other, (int, Fraction)):
                    return NotImplemented
                if not other:
                    return self
                other = QLaurent({0: other})
            out = dict(self._terms)
            for e, c in other._terms.items():
                v = out.get(e, 0) - c if subtract else out.get(e, 0) + c
                if v:
                    out[e] = v if type(v) is int else _norm_num(v)
                else:
                    del out[e]
            return QLaurent._wrap(out)

        return merge

    __add__ = __radd__ = _merge(False)
    __sub__ = _merge(True)
    del _merge

    def __neg__(self):
        return QLaurent._wrap({e: -c for e, c in self._terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QLaurent:
            a, b = self._terms, other._terms
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1:
                # a monomial shifts and scales b's terms, in b's order, as the loop below would
                (e1, c1), = a.items()
                out = {}
                for e2, c2 in b.items():
                    out[e1 + e2] = c1 * c2
                if type(e1) is int and (c1 == 1 or c1 == -1):
                    # an int shift and a sign leave b's canonical terms canonical
                    return QLaurent._wrap(out)
                return QLaurent.from_sums(out)
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
        n = _degree(n, "power")  # a negative power is exact_div against one()
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
        return QLaurent._wrap({-e: c for e, c in self._terms.items()})

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

    # -- exact division -------------------------------------------------

    def exact_div(self, other: "QLaurent") -> "QLaurent":
        """Exact Laurent division; raises ExactDivisionError on a nonzero remainder.

        One dense long division, lowest exponent first (``_divide_low``),
        on the common exponent lattice of the two operands.
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
        quot = _divide_low(rem, div, shift)
        if any(rem[steps:]):
            raise ExactDivisionError("nonzero remainder in exact_div")
        if lattice != 1:
            quot = {_norm_num(Fraction(k, lattice)): c for k, c in quot.items()}
        return QLaurent._wrap(quot)

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


def _divide_low(rem, div, shift: int = 0) -> dict:
    """Divide the dense list rem by div (``div[0] != 0``) lowest term first, in place.

    Returns the quotient {shift + i: coefficient of u^i} without zeros; the
    remainder, times u^steps, is left in ``rem[len(rem) - len(div) + 1:]``.
    Quotient coefficients stay ``int`` while ``div[0]`` divides them; from the
    first step where it does not, steps use ``Fraction``.
    """
    lead = div[0]
    # rem[i] is not read again once step i is done, so the divisor's
    # lowest term is left out of the update.
    tail = [(j, d) for j, d in enumerate(div) if j and d]
    integral = type(lead) is int
    quot = {}
    for i in range(len(rem) - len(div) + 1):
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
    return quot


def _gcd_low(a, b) -> list:
    """A gcd of dense lists with nonzero first and last entries: primitive, first entry > 0; [1] if constant.

    Euclid on the reversed polynomials over Z.  The denominators are cleared
    once (``_primitive``); then each remainder is a pseudo-remainder taken
    lowest term first, each step cross-multiplying by the divisor's first
    entry over its gcd with the entry it clears, and its content is stripped
    before the next step, so no coefficient grows with the degree.  A
    remainder's leading zeros are a power of u, coprime to the divisor, so
    they are dropped with its trailing zeros.  The arguments are not changed.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead, steps = b[0], len(a) - len(b) + 1
        for i in range(steps):
            x = a[i]
            if x:
                g = math.gcd(lead, x)
                scale, x = lead // g, x // g
                if scale != 1:
                    a[i:] = [scale * y for y in a[i:]]
                for j, y in enumerate(b, i):
                    a[j] -= x * y
        nonzero = [k for k in range(steps, len(a)) if a[k]]
        if not nonzero:
            return b if b[0] > 0 else [-y for y in b]
        a, b = b, _primitive(a[nonzero[0]:nonzero[-1] + 1])
    return [1]


def _primitive(p) -> list:
    """The int or Fraction list p times the one rational that makes it a primitive integer list, as a new list."""
    den = math.lcm(*(x.denominator for x in p))
    p = [x.numerator * (den // x.denominator) for x in p]
    content = math.gcd(*p)
    return [x // content for x in p]


# -- the packed form: one integer per row ----------------------------------------

# The digit widths ``_unpack`` reads with one memoryview.cast, by format code.
_CASTS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _width_for(bound: int) -> int:
    """The least multiple of 8 with 2^(width-1) > bound."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _row_width(bound: int) -> int:
    """The least of 8, 16, 32 and 64, or past 64 the least multiple of 8, with 2^(width-1) > bound.

    Digits of 8, 16, 32 or 64 bits are read by one memoryview.cast, the
    others one byte slice at a time.
    """
    width = _width_for(bound)
    return width if width > 64 else 1 << (width - 1).bit_length()


def _pack(digits, width: int) -> int:
    """The sum of c X^d over the (d, c) pairs of digits, X = 2^width: the packed form of a row.

    The digit positions d are non-negative ints and the coefficients c ints;
    the sum is exact whatever their size.
    """
    return sum(c << width * d for d, c in digits)


def _unpack(v: int, width: int) -> list:
    """The balanced base-2^width digits of v, lowest first, with no trailing zero; width a multiple of 8.

    The coefficients of the packed row v, exact while each lies in
    (-2^(width-1), 2^(width-1)); any integer has exactly one such expansion.
    Adding H, 2^(width-1) in each of n digits, makes every digit d + 2^(width-1)
    a plain base-2^width digit, and XOR with H turns each into d's width-bit
    two's complement, which the bytes of the sum hold side by side: read by
    one memoryview.cast for 8, 16, 32 or 64 bits, else one slice per digit.
    n is one digit more than v's bits fill, which every balanced expansion
    of v fits.
    """
    if not v:
        return []
    size = width >> 3
    n = (v.bit_length() + 1) // width + 1
    half = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    code = _CASTS.get(width)
    if code is not None:
        out = memoryview(((v + half) ^ half).to_bytes(size * n, sys.byteorder)).cast(code).tolist()
        if sys.byteorder == "big":
            out.reverse()
    else:
        data = ((v + half) ^ half).to_bytes(size * n, "little")
        out = [int.from_bytes(data[i:i + size], "little", signed=True) for i in range(0, size * n, size)]
    while out and not out[-1]:
        out.pop()
    return out


def _from_digits(digits: list, base: int, step: int = 1, lattice: int = 1, den: int = 1) -> QLaurent:
    """The QLaurent with coefficient digits[d] / den at q^((base + step d) / lattice), zeros left out.

    Exponents and coefficients come out canonical: an int where the value is
    integral, else a Fraction, in increasing exponent order for step > 0.
    """
    exps = range(base, base + step * len(digits), step)
    if lattice == 1 and den == 1:
        terms = {e: x for e, x in zip(exps, digits) if x}
    else:
        terms = {
            e // lattice if e % lattice == 0 else Fraction(e, lattice): x // den if x % den == 0 else Fraction(x, den)
            for e, x in zip(exps, digits) if x
        }
    return QLaurent._wrap(terms)
