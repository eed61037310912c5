"""Regularized quantum-sphere zeta coefficients.

The Peter-Weyl index s runs over an infinite sum of irreducibles; each
coefficient of zeta_t(C_q[S^2]) is obtained by merging the summands over s
into a single expression first and only then summing the geometric tails
formally.  This module hard-codes exactly that grouping (the proof's
"minimal prescription") and exposes no general re-grouping API: combining
divergent series differently gives different answers.

Summands live in SExpr: finite combinations of geometric terms
coeff(q) * q^(a s) with integer slope a.  Every sum, finite or infinite,
rejects an s-independent term (a = 0) with a nonzero coefficient instead of
assigning it a value.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivergentSum, QZetaError
from .qlaurent import QLaurent, _as_int
from .qrational import QRational
from .zeta_engine import zeta_vm_closed


def _qr(num_terms, den_terms=None) -> QRational:
    den = QLaurent(den_terms) if den_terms else QLaurent.one()
    return QRational(QLaurent(num_terms), den)


class SExpr:
    """Merged summand: finite sum of terms coeff * q^(a s), held as (coeff, a) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[int, QRational] = {}
        for coeff, a in terms:
            if not isinstance(coeff, QRational):
                coeff = QRational.from_laurent(coeff) if isinstance(coeff, QLaurent) else QRational.from_scalar(coeff)
            if a != int(a):
                raise QZetaError(f"slope {a} of a term q^(a s) must be an integer")
            a = int(a)
            merged[a] = merged.get(a, QRational.zero()) + coeff
        self.terms = tuple((coeff, a) for a, coeff in sorted(merged.items()) if not coeff.is_zero)

    def __add__(self, other):
        if not isinstance(other, SExpr):
            return NotImplemented
        return SExpr(self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QLaurent, QRational)):
            return SExpr([(c * other, a) for c, a in self.terms])
        if not isinstance(other, SExpr):
            return NotImplemented
        return SExpr([(c1 * c2, a1 + a2) for c1, a1 in self.terms for c2, a2 in other.terms])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SExpr):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        bits = [f"({c}) q^({a}s)" for c, a in self.terms]
        return "SExpr[" + " + ".join(bits) + "]" if bits else "SExpr[0]"


def q_int_sym_sexpr(slope: int, shift: int) -> SExpr:
    """(slope*s + shift)_q as an SExpr in s: (q^(slope s + shift) - q^-(...))/(q - q^-1)."""
    inv_qmq = _qr({0: 1}, {1: 1, -1: -1})
    return SExpr([
        (inv_qmq * QLaurent({shift: 1}), slope),
        (inv_qmq * QLaurent({-shift: -1}), -slope),
    ])


def _geom(a: int) -> QRational:
    """The geometric sum G(x) = sum_{k>=1} x^k = x/(1 - x) at x = q^a."""
    x = QRational.from_laurent(QLaurent({a: 1}))
    return x / (QRational.one() - x)


def _sum_inf(expr: SExpr) -> QRational:
    """Formal sum over s >= 0: coeff * (1 + G(q^a)) per term; s-independent terms diverge."""
    total = QRational.zero()
    for coeff, a in expr.terms:
        if a == 0:
            raise DivergentSum(f"s-independent term survives the merge: {coeff}")
        total = total + coeff * (_geom(a) + QRational.one())
    return total


def _tail_from_splus1(expr: SExpr) -> SExpr:
    """sum_{i=s+1}^inf of each term, as an SExpr in the outer s: coeff * G(q^a) at slope a."""
    out = []
    for coeff, a in expr.terms:
        if a == 0:
            raise DivergentSum(f"infinite tail of s-independent term {coeff}")
        out.append((coeff * _geom(a), a))
    return SExpr(out)


def _finite_0_to_s(expr: SExpr) -> SExpr:
    """sum_{i=0}^{s}: the full formal sum minus the tail from s + 1."""
    if any(a == 0 for _coeff, a in expr.terms):
        raise QZetaError("an s-independent term c sums to (s + 1) c, which is not a geometric term")
    return SExpr([(_sum_inf(expr), 0)]) + _tail_from_splus1(expr) * Fraction(-1)


def _finite_0_to_sminus1(expr: SExpr) -> SExpr:
    """sum_{i=0}^{s-1} = sum_{i=0}^{s} minus the i = s term; empty at s = 0."""
    return _finite_0_to_s(expr) + expr * Fraction(-1)


def partial_sum(expr: SExpr, summation_range: str):
    """Closed-form summation of an SExpr over the stated range.

    Each term coeff * q^(a s) sums as a geometric series in q^a.  Finite
    ranges return an SExpr in the outer variable; all_s_from_0 returns the
    QRational value of the formal sum.  An s-independent term raises
    DivergentSum in the infinite ranges and QZetaError in the finite ones.
    """
    ranges = {
        "from_0_to_s": _finite_0_to_s,
        "from_splus1_to_inf": _tail_from_splus1,
        "from_0_to_sminus1": _finite_0_to_sminus1,
        "all_s_from_0": _sum_inf,
    }
    try:
        fn = ranges[summation_range]
    except KeyError:
        raise ValueError(f"unknown summation range {summation_range!r}") from None
    return fn(expr)


# -- the sphere computations ---------------------------------------------------


def sphere_dims() -> tuple[QRational, QRational]:
    """(dim, dim') of the quantum sphere as rational functions of q.

    dim' is summed symbolically from the Peter-Weyl decomposition
    sum_s (2s+1)_q; dim involves quadratic exponents q^(-2s(s+1)) and is
    returned as its closed form 1/(1 - q^-2), certified numerically by
    verify_dim_numeric.
    """
    dim_prime = _sum_inf(q_int_sym_sexpr(2, 1))
    dim = _qr({0: 1}, {0: 1, -2: -1})
    return dim, dim_prime


def even_part_zeta_at_pm1(m: int) -> QRational:
    """(zeta_1(V_m) + zeta_-1(V_m))/2 for odd m, as an exact rational function of q.

    Odd m keeps t = +-1 off every pole: all closed-form factors are
    1 - q^(odd) t.
    """
    if m % 2 == 0:
        raise ValueError("even-part evaluation applies to odd m only")
    closed = zeta_vm_closed(m)
    den = closed.denominator_poly()
    total = QRational.zero()
    for tval in (Fraction(1), Fraction(-1)):
        den_t = den.eval_t(tval)
        if den_t.is_zero:
            raise QZetaError(f"pole of zeta(V_{m}) at t = {tval}")
        total = total + QRational(closed.numerator.eval_t(tval), den_t)
    return total * Fraction(1, 2)


def sphere_zeta_coeff(k: int) -> QRational:
    """Coefficient of t^k in the regularized zeta of the quantum sphere, k <= 3.

    Groupings follow the merge-then-sum prescription: within each k all
    summands over the middle Peter-Weyl index s are combined into one SExpr
    before the infinite sum is taken.
    """
    k = _as_int(k, "k")
    if not 0 <= k <= 3:
        raise ValueError("coefficients are computed for k = 0..3 only")
    if k == 0:
        return QRational.one()
    two_s = q_int_sym_sexpr(2, 1)      # (2s+1)_q, also used for s' and s'' sums
    if k == 1:
        return _sum_inf(two_s)
    four_i = q_int_sym_sexpr(4, 1)     # (4i+1)_q as summand over i
    sym_sq = _finite_0_to_s(four_i)    # dim' S^2(V_2s) = sum_{i<=s} (4i+1)_q
    if k == 2:
        pairs = two_s * _tail_from_splus1(two_s)
        return _sum_inf(sym_sq + pairs)
    # k == 3: S^3 splits into S^3(V_2s) terms, S^2(V_2s) (x) V_2s' with
    # s' != s, and strictly increasing triples with middle index s.
    pure_cubes = even_part_zeta_at_pm1(3)
    other = _finite_0_to_sminus1(two_s) + _tail_from_splus1(two_s)
    mixed = sym_sq * other
    triples = two_s * _finite_0_to_sminus1(two_s) * _tail_from_splus1(two_s)
    return pure_cubes + _sum_inf(mixed + triples)


# -- numeric certificates -------------------------------------------------------


def verify_dim_numeric(q: Fraction, n_terms: int = 200, tol: Fraction = Fraction(1, 10**12)):
    """Certify dim(C_q[S^2]) = 1/(1-q^-2) at a rational q > 1 by exact partial sums.

    Returns (gap, tail_bound); the check passes when gap <= tail_bound < tol.
    The summand q^(-2s(s+1)) (2s+1)_q is bounded for s >= S by
    q^(-2s^2)/(1-q^-2), so the tail after S terms is at most
    q^(-2S^2) / ((1-q^-2)(1-q^-4S)).

    With q = a/b the s-th summand is b^(2s^2) Q_s / a^(2s^2+4s), where
    Q_s = (a^(4s+2) - b^(4s+2)) / (a^2 - b^2) is the integer numerator of
    (2s+1)_q.  The partial sum is accumulated as one integer numerator over
    a^(2S^2-2), Horner-style from s = 0 (the running numerator gains a^(4s+2)
    per step), and reduced to lowest terms once.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("certificate requires q > 1")
    if n_terms < 1:
        raise ValueError("certificate requires n_terms >= 1")
    a, b = q.numerator, q.denominator
    a2, b2 = a * a, b * b
    numer, b_run = 0, 1  # b_run = b^(2s^2)
    for s in range(n_terms):
        a_step, b_step = a2 ** (2 * s + 1), b2 ** (2 * s + 1)
        numer = numer * a_step + b_run * ((a_step - b_step) // (a2 - b2))
        b_run *= b_step
    partial = Fraction(numer, a ** (2 * n_terms * n_terms - 2))
    closed = 1 / (1 - q ** (-2))
    s0 = n_terms
    tail_bound = q ** (-2 * s0 * s0) / ((1 - q ** (-2)) * (1 - q ** (-4 * s0)))
    gap = abs(closed - partial)
    if gap > tail_bound:
        raise QZetaError(f"numeric certificate failed at q={q}: gap {float(gap)} > bound")
    if tail_bound >= tol:
        raise QZetaError(f"tail bound {float(tail_bound)} not below tolerance at q={q}")
    return gap, tail_bound


def verify_term_numeric(coeff: QRational, a: int, q: Fraction,
                        n_terms: int = 200, tol: Fraction = Fraction(1, 10**12)):
    """Certify the formal geometric sum of one SExpr term coeff * q^(a s) at a rational q.

    Terms whose ratio |q^a| exceeds 1 at the chosen q are checked at q^-1
    instead (the engine's formulas are exactly equivariant under q -> q^-1),
    which is the only sense in which a formally summed divergent tail admits
    a numeric certificate.  With r = q^a < 1 and c the value of coeff, the
    tail after N terms is at most |c| r^N / (1 - r).  Returns (gap, tail_bound).
    """
    q = Fraction(q)
    if q <= 0 or q == 1:
        raise ValueError("need a positive rational q != 1")
    if a == 0:
        raise ValueError("s-independent terms have no geometric certificate")
    if q**a > 1:
        q = 1 / q
        coeff = coeff.invert_q()
        # same slope at the inverted point: ratio becomes q^-|a| < 1
    ratio = q**a
    cval = coeff.eval_at(q)
    partial = sum(cval * ratio**s for s in range(n_terms))
    closed = _sum_inf(SExpr([(coeff, a)])).eval_at(q)
    tail_bound = abs(cval) * ratio**n_terms / (1 - ratio)
    gap = abs(closed - partial)
    if gap > tail_bound:
        raise QZetaError(f"geometric certificate failed: gap {float(gap)} > bound {float(tail_bound)}")
    if tail_bound >= tol:
        raise QZetaError(f"tail bound {float(tail_bound)} not below tolerance")
    return gap, tail_bound


def verify_sexpr_numeric(expr: SExpr, q: Fraction, n_terms: int = 200,
                         tol: Fraction = Fraction(1, 10**12)) -> bool:
    """Run the per-term geometric certificate over a whole merged summand.

    An s-independent term diverges when summed over s, so it raises
    verify_term_numeric's ValueError instead of being passed over.
    """
    for coeff, a in expr.terms:
        verify_term_numeric(coeff, a, q, n_terms=n_terms, tol=tol)
    return True
