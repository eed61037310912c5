"""Bivariate polynomials in (q, t) and factored rational closed forms.

QTPoly holds finitely many terms q^a t^b with exact rational coefficients
(a rational, b a non-negative integer).  FactoredRatQT is the closed-form
shape that every zeta function in this library takes: a QTPoly numerator
over a multiset of factors (1 - q^a t^b), which expands exactly to any
series order: dividing by each factor is the recurrence
out[j] = s[j] + q^a out[j - b].  Univariate dense polynomials (the gcd that
``QRational`` needs) live in ``qlaurent``.
"""

from __future__ import annotations

from fractions import Fraction

from .qlaurent import QLaurent, _as_int, _exact, _norm_num
from .tseries import TSeries, _over_one_minus_rows


class QTPoly:
    """Polynomial in q and t; map (q-exponent, t-exponent) -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (a, b), c in items:
                if c == 0:
                    continue
                b = _as_int(b, "t-exponent")
                if b < 0:
                    raise ValueError("t-exponents must be non-negative")
                if type(a) is not int:
                    a = _exact(a, "q-exponent")
                if type(c) is not int:
                    c = _exact(c, "coefficient")
                key = (a, b)
                clean[key] = clean.get(key, 0) + c
                if clean[key] == 0:
                    del clean[key]
        self._terms = {k: _norm_num(c) for k, c in clean.items() if c != 0}

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def from_t_coeffs(cls, coeffs) -> "QTPoly":
        """Build a q-free polynomial in t from a coefficient list."""
        return cls({(0, b): c for b, c in enumerate(coeffs)})

    @classmethod
    def from_qlaurent_t_coeffs(cls, coeffs) -> "QTPoly":
        """Build from a list of QLaurent t-coefficients."""
        terms = {}
        for b, ql in enumerate(coeffs):
            for a, c in ql.items():
                terms[(a, b)] = c
        return cls(terms)

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self):
        return not self._terms

    def coeff(self, a, b) -> Fraction | int:
        return self._terms.get((_norm_num(a), _as_int(b, "t-exponent")), 0)

    def t_coeff(self, b: int) -> QLaurent:
        return QLaurent({a: c for (a, bb), c in self._terms.items() if bb == b})

    def t_degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of zero polynomial")
        return max(b for (_, b) in self._terms)

    def q_degree(self):
        if not self._terms:
            raise ValueError("degree of zero polynomial")
        return max(a for (a, _) in self._terms)

    def t_coeff_list(self):
        """List of QLaurent coefficients, index = t-degree."""
        if not self._terms:
            return [QLaurent()]
        return [self.t_coeff(b) for b in range(self.t_degree() + 1)]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly({(0, 0): other})
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        res = QTPoly.__new__(QTPoly)
        res._terms = {k: _norm_num(c) for k, c in out.items()}
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QTPoly.__new__(QTPoly)
        res._terms = {k: -c for k, c in self._terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly({(0, 0): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QTPoly()
            res = QTPoly.__new__(QTPoly)
            res._terms = {k: _norm_num(c * other) for k, c in self._terms.items()}
            return res
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        res = QTPoly.__new__(QTPoly)
        res._terms = {(_norm_num(a), b): _norm_num(c) for (a, b), c in out.items() if c}
        return res

    __rmul__ = __mul__

    def invert_q(self) -> "QTPoly":
        res = QTPoly.__new__(QTPoly)
        res._terms = {(_norm_num(-a), b): c for (a, b), c in self._terms.items()}
        return res

    def to_tseries(self, order: int) -> TSeries:
        out = [QLaurent() for _ in range(order + 1)]
        for (a, b), c in self._terms.items():
            if b <= order:
                out[b] = out[b] + QLaurent({a: c})
        return TSeries(order, out)

    def eval_t(self, t_value: Fraction) -> QLaurent:
        """Substitute an exact rational for t."""
        acc = QLaurent()
        for (a, b), c in self._terms.items():
            acc = acc + QLaurent({a: c * Fraction(t_value) ** b})
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly({(0, 0): other})
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that number
        if not self._terms.keys() - {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        return str(TSeries(self.t_degree(), self.t_coeff_list()))

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
        rows = [dict(c.items()) for c in self.numerator.to_tseries(order).coeffs()]
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

