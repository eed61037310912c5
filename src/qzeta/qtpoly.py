"""Bivariate polynomials in (q, t) and factored rational closed forms.

QTPoly is held t-major, like every (q, t) kernel here: a list of QLaurent
rows, row b the coefficient of t^b, with no trailing zero row.  QLaurent
validates and canonicalizes each row; sums, q -> 1/q and t -> rational act
row by row, and products are ``tseries._mul_rows``, the one row product
that ``TSeries`` uses too.  FactoredRatQT is the closed-form shape that
every zeta function in this library takes: a QTPoly numerator over a
multiset of factors (1 - q^a t^b), which expands exactly to any series
order by dividing the numerator's rows by each factor with the recurrence
out[j] = s[j] + q^a out[j - b].
"""

from __future__ import annotations

from fractions import Fraction

from .qlaurent import QLaurent, _as_int, _exact
from .tseries import TSeries, _mul_rows, _over_one_minus_rows


class QTPoly:
    """Polynomial in q and t, held as its QLaurent t-coefficients."""

    __slots__ = ("_rows",)

    def __init__(self, terms=None):
        """Sum of the terms c q^a t^b, given as a dict or iterable of ((a, b), c)."""
        by_t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (a, b), c in items:
                if c == 0:
                    continue
                if type(b) is not int:
                    b = _as_int(b, "t-exponent")
                if b < 0:
                    raise ValueError("t-exponents must be non-negative")
                by_t.setdefault(b, []).append((a, c))
        rows = [QLaurent()] * (max(by_t, default=-1) + 1)
        for b, row in by_t.items():
            rows[b] = QLaurent(row)
        while rows and not rows[-1]:  # the terms of a top row may cancel
            rows.pop()
        self._rows = rows

    @classmethod
    def one(cls):
        return cls.from_qlaurent_t_coeffs([QLaurent.one()])

    @classmethod
    def from_t_coeffs(cls, coeffs) -> "QTPoly":
        """Build a q-free polynomial in t from a coefficient list."""
        return cls.from_qlaurent_t_coeffs([QLaurent({0: c}) for c in coeffs])

    @classmethod
    def from_qlaurent_t_coeffs(cls, coeffs) -> "QTPoly":
        """Build from a list of QLaurent t-coefficients, index = t-degree."""
        res = cls.__new__(cls)
        res._rows = rows = list(coeffs)
        while rows and not rows[-1]:
            rows.pop()
        return res

    def items(self):
        """The terms as ((q-exponent, t-exponent), coefficient) pairs."""
        return [((a, b), c) for b, row in enumerate(self._rows) for a, c in row.items()]

    @property
    def is_zero(self):
        return not self._rows

    def coeff(self, a, b) -> Fraction | int:
        return self.t_coeff(_as_int(b, "t-exponent")).coeff(a)

    def t_coeff(self, b: int) -> QLaurent:
        return self._rows[b] if 0 <= b < len(self._rows) else QLaurent()

    def t_degree(self) -> int:
        if not self._rows:
            raise ValueError("degree of zero polynomial")
        return len(self._rows) - 1

    def q_degree(self):
        if not self._rows:
            raise ValueError("degree of zero polynomial")
        return max(row.degree() for row in self._rows if row)

    def t_coeff_list(self):
        """List of QLaurent coefficients, index = t-degree."""
        return list(self._rows) or [QLaurent()]

    @staticmethod
    def _coerce(other):
        if isinstance(other, (int, Fraction)):
            return QTPoly({(0, 0): other})
        return other if isinstance(other, QTPoly) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._rows, other._rows
        if len(a) < len(b):
            a, b = b, a
        return QTPoly.from_qlaurent_t_coeffs([x + y for x, y in zip(a, b)] + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return QTPoly.from_qlaurent_t_coeffs([-x for x in self._rows])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QTPoly.from_qlaurent_t_coeffs([x * other for x in self._rows])
        if not isinstance(other, QTPoly):
            return NotImplemented
        if not self._rows or not other._rows:
            return QTPoly()
        top = len(self._rows) + len(other._rows) - 2
        return QTPoly.from_qlaurent_t_coeffs(_mul_rows(self._rows, other._rows, top))

    __rmul__ = __mul__

    def invert_q(self) -> "QTPoly":
        return QTPoly.from_qlaurent_t_coeffs([x.invert_q() for x in self._rows])

    def to_tseries(self, order: int) -> TSeries:
        rows = self._rows[: order + 1]
        return TSeries(order, rows + [QLaurent()] * (order + 1 - len(rows)))

    def eval_t(self, t_value: Fraction) -> QLaurent:
        """Substitute an exact rational for t."""
        t_value = Fraction(t_value)
        acc = QLaurent()
        for b, row in enumerate(self._rows):
            acc = acc + row * t_value**b
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that number
        if len(self._rows) > 1:
            return hash(tuple(self._rows))
        return hash(self._rows[0]) if self._rows else hash(0)

    def __str__(self):
        if not self._rows:
            return "0"
        return str(TSeries(len(self._rows) - 1, self._rows))

    def __repr__(self):
        return f"QTPoly({self})"


class FactoredRatQT:
    """Rational function: QTPoly numerator over a product of (1 - q^a t^b) factors.

    Kept factored; expansion to a TSeries of any order is exact: each factor
    divides by the recurrence out[j] = s[j] + q^a out[j - b], all of them on
    one set of rows.  Equality is decided by
    cross-multiplying numerators against the factor products, never by
    series comparison.
    """

    __slots__ = ("numerator", "factors")

    def __init__(self, numerator: QTPoly, factors=()):
        self.numerator = numerator
        canon = {}
        for (a, b), mult in factors:
            b, mult = _as_int(b, "factor t-exponent"), _as_int(mult, "factor multiplicity")
            if b <= 0 or mult <= 0:
                raise ValueError("factor t-exponent and multiplicity must be positive")
            key = (a if type(a) is int else _exact(a, "factor q-exponent"), b)
            canon[key] = canon.get(key, 0) + mult
        self.factors = tuple(sorted(canon.items()))

    @classmethod
    def one(cls):
        return cls(QTPoly.one())

    def __mul__(self, other):
        if isinstance(other, QTPoly):
            return FactoredRatQT(self.numerator * other, self.factors)
        if not isinstance(other, FactoredRatQT):
            return NotImplemented
        return FactoredRatQT(
            self.numerator * other.numerator,
            list(self.factors) + list(other.factors),
        )

    def denominator_poly(self) -> QTPoly:
        acc = QTPoly.one()
        for (a, b), mult in self.factors:
            f = QTPoly({(0, 0): 1, (a, b): -1})
            for _ in range(mult):
                acc = acc * f
        return acc

    def expand(self, order: int) -> TSeries:
        """Exact series expansion through t^order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        num = self.numerator._rows[: order + 1]
        rows = [dict(c.items()) for c in num] + [{} for _ in range(order + 1 - len(num))]
        for (a, b), mult in self.factors:
            _over_one_minus_rows(rows, a, b, mult)
        return TSeries(order, [QLaurent.from_sums(row) for row in rows])

    def __eq__(self, other):
        if not isinstance(other, FactoredRatQT):
            return NotImplemented
        if self.factors == other.factors:
            return self.numerator == other.numerator
        return self.numerator * other.denominator_poly() == other.numerator * self.denominator_poly()

    def __str__(self):
        num = str(self.numerator)
        if not self.factors:
            return num
        fbits = []
        for (a, b), mult in self.factors:
            ts = "t" if b == 1 else f"t^{b}"
            if a == 0:
                core = f"1 - {ts}"
            else:
                qs = "q" if a == 1 else f"q^{a}"
                core = f"1 - {qs} {ts}"
            fbits.append(f"({core})" + (f"^{mult}" if mult > 1 else ""))
        den = "".join(fbits)
        if num == "1":
            return f"1/{den}"
        return f"({num})/{den}"

    def __repr__(self):
        return f"FactoredRatQT({self})"

