"""sl2 module combinatorics: the character, its inverse, and symmetric powers three ways.

This module is the one home of the sl2 character and its inverse.  V_p has
character [p+1]_q = q^p + q^(p-2) + ... + q^-p, so a module with
multiplicities c_p has character

    chi[e] = sum of c_p over p >= |e| with p = e (mod 2)
    c_p    = chi[p] - chi[p+2]   (p >= 0).

``_character_row`` (a suffix sum per parity) and ``_multiplicity_row`` (a
difference) are these two maps as integer kernels on {exponent: int} rows.
``character``, ``peel_character`` and the weight oracle call them here;
``zeta_engine`` calls them once per t-degree to pass between c_m and
zeta(V_m).

S^j(V_m) decomposes with multiplicities given by the Cayley-Sylvester
partition-count differences.  ``cs_rows_packed`` is their one producer: a
row stream on Kronecker-packed rows, one integer per t-degree, read by
``cs_sym_power`` and by ``zeta_engine.cm_series_cs`` and ``fit_gh``.  It
shares no code with the character kernels, so that comparing the routes
checks them; a weight-counting oracle and a Newton-identity route on
characters provide two independent cross-checks.  Only multiplicities are
tracked, never explicit module maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .errors import BudgetExceeded, QZetaError
from .qcombinat import gaussian_steps_packed, q_int_sym
from .qlaurent import QLaurent, _degree, _from_digits, _row_width, _unpack

DEFAULT_WEIGHT_BUDGET = 200


class Sl2Decomposition:
    """Finite direct sum of irreducibles: map highest weight -> multiplicity."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        clean = {}
        if parts:
            items = parts.items() if isinstance(parts, dict) else parts
            for m, mult in items:
                if type(m) is not int or m < 0:
                    raise ValueError(f"highest weight must be a non-negative integer, got {m!r}")
                if type(mult) is not int or mult < 0:
                    raise ValueError(f"multiplicity of V_{m} must be a non-negative integer, got {mult!r}")
                if mult:
                    clean[m] = clean.get(m, 0) + mult
        self.parts = dict(sorted(clean.items()))

    @classmethod
    def irreducible(cls, m: int, mult: int = 1):
        return cls({_degree(m, "m"): _degree(mult, "mult")})

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
    return QLaurent._wrap(_character_row(d.parts))


def peel_character(chi: QLaurent) -> Sl2Decomposition:
    """Decompose a character into highest weights: V_p has multiplicity chi[p] - chi[p+2].

    ValueError("not a genuine sl2 character ...") unless every multiplicity
    is a non-negative integer at an integer weight and the character of the
    result gives back chi, which fails exactly when chi is not symmetric
    under q -> q^-1.
    """
    try:
        d = Sl2Decomposition(_multiplicity_row(dict(chi.items())))
    except ValueError as exc:
        raise ValueError(f"not a genuine sl2 character: {exc}") from None
    if character(d) != chi:
        raise ValueError(f"not a genuine sl2 character: {chi} is not symmetric under q -> q^-1")
    return d


def _character_row(row: dict) -> dict:
    """{e: sum of c_p over p >= |e|, p = e (mod 2)} for a row {p: c_p} of positive multiplicities.

    One running sum per parity, from that parity's top weight down in steps
    of 2, gives chi[p] = chi[-p].  The c_p are positive, so the first sum
    covers the whole row exactly when its total is the row's total, and no
    sum is zero.
    """
    out = {}
    top, rest = max(row, default=-1), sum(row.values())
    while rest:
        acc = 0
        for p in range(top, -1, -2):
            acc += row.get(p, 0)
            out[p] = out[-p] = acc
        rest -= acc
        if rest:
            top = max(p for p in row if p not in out)
    return out


def _multiplicity_row(chi: dict) -> dict:
    """{p: chi[p] - chi[p+2]} at every p >= 0 where chi[p] or chi[p+2] is nonzero, p increasing.

    The positive part, divided by q, of (q - q^-1) chi.  Zero differences
    are left out; any other is kept whatever its sign or type, so a caller
    that validates the result sees a negative or fractional multiplicity.
    """
    out = {}
    for p in sorted({e for e in chi if e >= 0} | {e - 2 for e in chi if e >= 2}):
        d = chi.get(p, 0) - chi.get(p + 2, 0)
        if d:
            out[p] = d
    return out


def cs_sym_power(m: int, j: int) -> Sl2Decomposition:
    """S^j(V_m) via Cayley-Sylvester: V_{jm-2r} with multiplicity p(r,j,m) - p(r-1,j,m).

    Row min(m, j) of ``cs_rows_packed(max(m, j), width)``, decoded: digit d
    is the multiplicity of V_(2d + jm % 2), and binomial(j + m, m) <
    2^(width-1) bounds every digit of the row and of its Gaussian step.
    Hermite reciprocity, S^j(V_m) = S^m(V_j), is why either order will do:
    both rows come from the same G = [j+m choose m]_q, so the stream runs
    min(m, j) + 1 packed steps, not j + 1.
    """
    m, j = _degree(m, "m"), _degree(j, "j")
    width = _row_width(math.comb(j + m, m))
    v = next(islice(cs_rows_packed(max(m, j), width), min(m, j), None))
    return Sl2Decomposition(_from_digits(_unpack(v, width), j * m % 2, 2).items())


def cs_rows_packed(m: int, width: int):
    """An iterator of row j of c_m packed at X = 2^width: sum of mult(V_p in S^j(V_m)) X^((p - jm % 2)/2).

    Row j in q^2 digits from G = [j+m choose m]_q at q = X, step j of
    ``gaussian_steps_packed(m, width)``.  G is palindromic, G[r] = G[jm - r],
    so the multiplicity p(r) - p(r-1) of V_(jm-2r) is G[c+d] - G[c+d+1] at
    digit d = floor(jm/2) - r, with c = ceil(jm/2): the row is
    (G >> width c) - (G >> width (c+1)).  A guard bit 2^(width-1) in each
    digit d <= floor(jm/2), H, is added before the subtraction; no digit
    borrows while G's digits are below 2^(width-1), so every multiplicity is
    non-negative exactly when (A + H - B) & H == H.  A negative one raises
    QZetaError("negative CS multiplicity at (m, j, r)"): this guard is the
    one check on the Gaussian kernel's rows.

    The digits of G are at most binomial(j + m, m), so the stream ends before
    the first row j with binomial(j + m, m) >= 2^(width-1): every row it
    yields is exact.
    """
    m, width = _degree(m, "m"), _degree(width, "width", 2)
    half = 1 << width - 1

    def rows():
        guard, total = half, 1  # total = binomial(j + m, m)
        for j, g in enumerate(gaussian_steps_packed(m, width)):
            if j:
                total = total * (j + m) // j
            if total >= half:
                return
            c, top = -(-j * m // 2), j * m // 2
            bits = width * (top + 1)
            while guard.bit_length() < bits:
                guard |= guard << guard.bit_length()
            h = guard & (1 << bits) - 1
            d = (g >> width * c) + h - (g >> width * (c + 1))
            if d & h != h:
                bad = max(k for k in range(top + 1) if not d >> (width * (k + 1) - 1) & 1)
                raise QZetaError(f"negative CS multiplicity at (m={m}, j={j}, r={top - bad})")
            yield d - h

    return rows()


def sym_power_weight_oracle(m: int, j: int, budget: int = DEFAULT_WEIGHT_BUDGET) -> Sl2Decomposition:
    """Independent oracle: count weight multiplicities of S^j(V_m), then peel.

    N(w) = number of size-j multisets of the weights {m, m-2, ..., -m}
    summing to w; mult(V_p) = N(p) - N(p+2), by ``_multiplicity_row``.
    """
    m, j, budget = _degree(m, "m"), _degree(j, "j"), _degree(budget, "budget")
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
    parts = _multiplicity_row(weight_mult)
    bad = [p for p, mult in parts.items() if mult < 0]
    if bad:
        raise QZetaError(f"negative peel at weight {bad[-1]}: weight DP is broken")
    return Sl2Decomposition(parts)


def adams_sym_power(m: int, j: int) -> Sl2Decomposition:
    """Third route: Newton's identity on the character ring.

    With psi^i(chi)(q) = chi(q^i), the complete symmetric characters obey
    j*h_j = sum_{i=1..j} psi^i(chi) h_{j-i}; h_j is then peeled into
    highest weights.
    """
    m, j = _degree(m, "m"), _degree(j, "j")
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
