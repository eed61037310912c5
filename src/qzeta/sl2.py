"""sl2 module combinatorics: symmetric powers three independent ways.

S^j(V_m) decomposes with multiplicities given by the Cayley-Sylvester
partition-count differences; a weight-counting oracle and a Newton-identity
route on characters provide two independent cross-checks.  Only
multiplicities are tracked, never explicit module maps.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceeded, QZetaError
from .qcombinat import gaussian_coeffs, gaussian_steps, q_int_sym
from .qlaurent import QLaurent

DEFAULT_WEIGHT_BUDGET = 200


class Sl2Decomposition:
    """Finite direct sum of irreducibles: map highest weight -> multiplicity."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        clean = {}
        if parts:
            items = parts.items() if isinstance(parts, dict) else parts
            for m, mult in items:
                if not isinstance(m, int) or m < 0:
                    raise ValueError(f"highest weight must be a non-negative integer, got {m!r}")
                if not isinstance(mult, int) or mult < 0:
                    raise ValueError(f"multiplicity of V_{m} must be a non-negative integer, got {mult!r}")
                if mult:
                    clean[m] = clean.get(m, 0) + mult
        self.parts = dict(sorted(clean.items()))

    @classmethod
    def irreducible(cls, m: int, mult: int = 1):
        return cls({m: mult})

    def total_dimension(self) -> int:
        return sum(mult * (m + 1) for m, mult in self.parts.items())

    def __add__(self, other):
        if not isinstance(other, Sl2Decomposition):
            return NotImplemented
        out = dict(self.parts)
        for m, mult in other.parts.items():
            out[m] = out.get(m, 0) + mult
        return Sl2Decomposition(out)

    def __eq__(self, other):
        if not isinstance(other, Sl2Decomposition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(tuple(self.parts.items()))

    def __str__(self):
        if not self.parts:
            return "0"
        return " + ".join(
            f"V_{m}" if mult == 1 else f"{mult}*V_{m}" for m, mult in self.parts.items()
        )

    def __repr__(self):
        return f"Sl2Decomposition({self})"


def character(d: Sl2Decomposition) -> QLaurent:
    """Formal character: V_m contributes q^m + q^(m-2) + ... + q^-m = (m+1)_q."""
    acc = QLaurent()
    for m, mult in d.parts.items():
        acc = acc + q_int_sym(m + 1) * mult
    return acc


def peel_character(chi: QLaurent) -> Sl2Decomposition:
    """Decompose a character into highest weights, asserting non-negativity."""
    parts = {}
    rem = chi
    while not rem.is_zero:
        top = rem.degree()
        mult = rem.coeff(top)
        if not isinstance(top, int) or top < 0 or mult < 0 or mult != int(mult):
            raise ValueError(f"not a genuine sl2 character: top term {mult} q^{top}")
        mult = int(mult)
        parts[top] = mult
        rem = rem - q_int_sym(top + 1) * mult
    return Sl2Decomposition(parts)


def cs_sym_power(m: int, j: int) -> Sl2Decomposition:
    """S^j(V_m) via Cayley-Sylvester: V_{jm-2r} with multiplicity p(r,j,m) - p(r-1,j,m).

    p(r, j, m) is entry r of ``gaussian_coeffs(j + m, m)``, the coefficient
    list of [j+m choose m]_q, read once for all r.
    """
    if m < 0 or j < 0:
        raise ValueError("m, j must be non-negative")
    return Sl2Decomposition(_cs_parts(m, j, gaussian_coeffs(j + m, m)))


def cs_rows(m: int):
    """Yield {p: multiplicity of V_p in S^j(V_m)} for j = 0, 1, 2, ..., p increasing.

    Row j is ``cs_sym_power(m, j).parts``: [j+m choose m]_q is step j of
    ``gaussian_steps(m)``, so each row costs one step of the kernel, not a
    Gaussian polynomial built from scratch.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    for j, p in enumerate(gaussian_steps(m)):
        yield _cs_parts(m, j, p)


def _cs_parts(m: int, j: int, p: list) -> dict:
    """{jm - 2r: p[r] - p[r-1]} over 0 <= r <= jm/2, zero multiplicities left out, jm - 2r increasing."""
    parts, bad = {}, None
    for r in range(j * m // 2, -1, -1):
        mult = p[r] - (p[r - 1] if r else 0)
        if mult < 0:
            bad = r
        elif mult:
            parts[j * m - 2 * r] = mult
    if bad is not None:
        raise QZetaError(f"negative CS multiplicity at (m={m}, j={j}, r={bad})")
    return parts


def sym_power_weight_oracle(m: int, j: int, budget: int = DEFAULT_WEIGHT_BUDGET) -> Sl2Decomposition:
    """Independent oracle: count weight multiplicities of S^j(V_m), then peel.

    N(w) = number of size-j multisets of the weights {m, m-2, ..., -m}
    summing to w; mult(V_p) = N(p) - N(p+2).
    """
    if m < 0 or j < 0:
        raise ValueError("m, j must be non-negative")
    if m * j > budget:
        raise BudgetExceeded(f"weight oracle budget: jm = {m * j} > {budget}")
    # DP over the m+1 weights, choosing a non-increasing count profile is
    # equivalent to plain multiset counting: iterate weights, add any number
    # of copies of each.  State: (#chosen, total weight).
    counts = {(0, 0): 1}
    for w in range(m, -m - 1, -2):
        new = {}
        for (cnt, tot), ways in counts.items():
            k = 0
            while cnt + k <= j:
                key = (cnt + k, tot + k * w)
                new[key] = new.get(key, 0) + ways
                k += 1
        counts = new
    weight_mult = {}
    for (cnt, tot), ways in counts.items():
        if cnt == j:
            weight_mult[tot] = weight_mult.get(tot, 0) + ways
    parts = {}
    for p in sorted(weight_mult, reverse=True):
        if p < 0:
            continue
        mult = weight_mult.get(p, 0) - weight_mult.get(p + 2, 0)
        if mult < 0:
            raise QZetaError(f"negative peel at weight {p}: weight DP is broken")
        if mult:
            parts[p] = mult
    return Sl2Decomposition(parts)


def adams_sym_power(m: int, j: int) -> Sl2Decomposition:
    """Third route: Newton's identity on the character ring.

    With psi^i(chi)(q) = chi(q^i), the complete symmetric characters obey
    j*h_j = sum_{i=1..j} psi^i(chi) h_{j-i}; h_j is then peeled into
    highest weights.
    """
    if m < 0 or j < 0:
        raise ValueError("m, j must be non-negative")
    chi = character(Sl2Decomposition.irreducible(m))
    psi = [None] + [chi.q_power_substitute(i) if i > 1 else chi for i in range(1, j + 1)]
    h = [QLaurent.one()]
    for jj in range(1, j + 1):
        acc = QLaurent()
        for i in range(1, jj + 1):
            acc = acc + psi[i] * h[jj - i]
        h.append(acc * Fraction(1, jj))
    return peel_character(h[j])


def tensor_decompose(a: Sl2Decomposition, b: Sl2Decomposition) -> Sl2Decomposition:
    """Clebsch-Gordan: V_a (x) V_b = V_|a-b| + V_{|a-b|+2} + ... + V_{a+b}."""
    parts = {}
    for ma, mult_a in a.parts.items():
        for mb, mult_b in b.parts.items():
            for c in range(abs(ma - mb), ma + mb + 1, 2):
                parts[c] = parts.get(c, 0) + mult_a * mult_b
    return Sl2Decomposition(parts)


def dimq_prime(d: Sl2Decomposition) -> QLaurent:
    """Multiplicative braided dimension: V_m contributes (m+1)_q."""
    return character(d)


def dimq(d: Sl2Decomposition) -> QLaurent:
    """Braided dimension: V_m contributes q^(-m(m+2)/2) (m+1)_q (half-integer exponents for odd m)."""
    acc = QLaurent()
    for m, mult in d.parts.items():
        twist = Fraction(-m * (m + 2), 2)
        acc = acc + QLaurent({twist: mult}) * q_int_sym(m + 1)
    return acc
