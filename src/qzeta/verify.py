"""End-to-end verification suite: every acceptance check as exact symbolic equality.

Each check returns quietly on success and raises CriterionFailed with a
diagnostic on failure; run_suite wraps them with timing and produces one
pass/fail record per check.  The conditions go through check(), not
assert, so they still run under ``python -O``.  CI's step "Acceptance
criteria" runs the 14 ``CRITERIA`` (``qzeta verify``), and its step "Checks
past tier-1's range" the ``EXTENDED`` table (``qzeta verify --suite extended``).
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from fractions import Fraction
from math import comb

from .braided import (
    DEFAULT_BUDGET,
    _invariant_pair_map,
    _joint_kernel_dims,
    fk_reference_series,
    flip_set,
    from_conjugacy_class,
    hilbert_dims,
    hilbert_dims_quadratic,
    symmetrizer_matrix_bruteforce,
    symmetrizer_matrix_recursive,
    transposition_class,
)
from .errors import CriterionFailed
from .linalg import sparse_int_rank
from .qcombinat import q_binom_sym, q_int_sym
from .qlaurent import QLaurent
from .qrational import QRational
from .qtpoly import FactoredRatQT, QTPoly
from .refdata import reference_cm_closed, reference_gh
from .rmatrix import RHat, _sym_levels, quantum_trace_sym, trace_of_blocks
from .sl2 import Sl2Decomposition, adams_sym_power, cs_sym_power, sym_power_weight_oracle
from .sphere import sphere_dims, sphere_zeta_coeff, verify_dim_numeric
from .tseries import TSeries
from .weyl import DominantWeightA, weyl_qdim_prime, zeta_cn_closed, zeta_cn_series
from .zeta_engine import (
    CmSeries,
    GHPair,
    _cm_by_recursion,
    cm_from_zeta,
    cm_recursion_step,
    cm_series_cs,
    eta_m,
    fit_gh,
    verify_functional_eq,
    zeta_direct_sum,
    zeta_from_cm,
    zeta_vm_closed,
)


def _scale_t(series: TSeries, qexp: int) -> TSeries:
    """Substitute t -> q^qexp t."""
    return TSeries(series.order, [series.coeff(j) * QLaurent({qexp * j: 1}) for j in range(series.order + 1)])


def check(cond, msg: str) -> None:
    """Raise CriterionFailed(msg) unless cond holds; unlike assert, never stripped."""
    if not cond:
        raise CriterionFailed(msg)


# -- criteria ------------------------------------------------------------------


def crit_01_product_vs_series():
    """Closed product form of zeta(C^n) equals the q-binomial series, n = 1..6, order 30."""
    for n in range(1, 7):
        check(zeta_cn_closed(n).expand(30) == zeta_cn_series(n, 30), f"n={n}")


def crit_02_newton_recursion():
    """zeta_n(t) = (q^(n-1) zeta_{n-1}(qt) - q^-(n-1) zeta_{n-1}(q^-1 t))/(q^(n-1) - q^-(n-1))."""
    order = 20
    for n in range(2, 7):
        prev = zeta_cn_series(n - 1, order)
        num_plus = _scale_t(prev, 1) * QLaurent({n - 1: 1})
        num_minus = _scale_t(prev, -1) * QLaurent({-(n - 1): 1})
        divisor = QLaurent({n - 1: 1, -(n - 1): -1})
        combined = TSeries(
            order,
            [(num_plus.coeff(j) - num_minus.coeff(j)).exact_div(divisor) for j in range(order + 1)],
        )
        check(combined == zeta_cn_series(n, order), f"n={n}")


def crit_03_weyl_formula():
    """weyl_qdim_prime(j omega_1) = (n+j-1 choose j)_q for n <= 5, j <= 10."""
    for n in range(2, 6):
        for j in range(11):
            got = weyl_qdim_prime(DominantWeightA.j_omega1(n, j))
            check(got == q_binom_sym(n + j - 1, j), f"n={n}, j={j}")


def crit_04_rmatrix_oracle():
    """Quantum trace of the R-matrix symmetric subspace = q-binomial, blocks all 1-dim.

    Each n walks the levels j = 0..5 of one ``_sym_levels`` generator, so
    every level is built once.  Each block is bounded by its kernel over Z
    at q = q0 and met by the exact witness sum_w q^inv(w) e_w; a block the
    two do not pin to 1 raises QZetaError there, and no elimination runs
    over Q(q).
    """
    for n in range(2, 5):
        for j, blocks in zip(range(6), _sym_levels(RHat(n))):
            check(all(k == 1 for _, k in blocks), f"block kernel != 1 at n={n}, j={j}")
            check(trace_of_blocks(n, blocks) == q_binom_sym(n + j - 1, j), f"n={n}, j={j}")


def crit_05_theorem42():
    """zeta over the sl2 module V_m equals the same closed form, m = 0..8, order 20."""
    for m in range(9):
        got = zeta_from_cm(cm_series_cs(m, 20))
        check(got == zeta_vm_closed(m).expand(20), f"m={m}")


def crit_06_triple_route():
    """Cayley-Sylvester, positive-part extraction, and the recursion agree, m = 2..6."""
    order = 12
    chains = {0: cm_series_cs(0, order), 1: cm_series_cs(1, order)}
    for m in range(2, 7):
        cs = cm_series_cs(m, order)
        extracted = cm_from_zeta(m, zeta_vm_closed(m).expand(order))
        check(extracted == cs, f"extraction disagrees at m={m}")
        recursed = cm_recursion_step(m, chains[m - 2], order)
        check(recursed == cs, f"recursion disagrees at m={m}")
        chains[m] = recursed
        for j in range(order + 1):
            for _, c in cs.coeff(j).items():
                check(c == int(c) and c > 0, f"bad multiplicity at m={m}, t^{j}")


def _gh_from_closed(m: int) -> GHPair:
    """Split a quoted closed form of c_m into its (g, h) pair."""
    closed = reference_cm_closed(m)
    q_free = [((a, b), mult) for (a, b), mult in closed.factors if a == 0]
    return GHPair(m, closed.numerator, FactoredRatQT(QTPoly.one(), q_free).denominator_poly())


def crit_07_cor45_closed_forms():
    """Quoted c_3, c_4 match the series to order 20 and satisfy the functional equation."""
    for m in (3, 4):
        closed = reference_cm_closed(m)
        check(closed.expand(20) == cm_series_cs(m, 20).to_tseries(), f"series mismatch m={m}")
        gh = _gh_from_closed(m)
        check(verify_functional_eq(m, gh), f"functional equation fails for quoted m={m}")
        fitted = fit_gh(m)
        check(fitted.g == gh.g and fitted.h == gh.h, f"fit disagrees with quoted form m={m}")


def crit_08_cor47_gh_pairs():
    """fit_gh reproduces the quoted g_5, h_5, g_6, h_6 exactly."""
    for m in (5, 6):
        fitted = fit_gh(m)
        quoted = reference_gh(m)
        check(fitted.g == quoted.g, f"g_{m} mismatch")
        check(fitted.h == quoted.h, f"h_{m} mismatch")
        check(verify_functional_eq(m, fitted), f"functional equation fails at m={m}")


def crit_09_lemma46_degrees():
    """Fitted pairs satisfy rational t-degree -(m+1) and q-degree -2 for m = 2..6."""
    for m in range(2, 7):
        gh = fit_gh(m)
        eta = eta_m(m)
        check(gh.g.q_degree() - eta.q_degree() == -2, f"q-degree claim fails at m={m}")
        t_deg = gh.g.t_degree() - gh.h.t_degree() - eta.t_degree()
        check(t_deg == -(m + 1), f"t-degree claim fails at m={m}: {t_deg}")


def crit_10_sphere_dimensions():
    """dim'(C_q[S^2]) symbolic; dim certified numerically at q = 3/2, 2, 5/2 below 1e-12."""
    dim, dim_prime = sphere_dims()
    expected_prime = QRational(
        QLaurent({0: 2}),
        QLaurent({0: 1, -2: -1}) * QLaurent({0: 1, 2: -1}),
    )
    check(dim_prime == expected_prime, "dim' mismatch")
    check(dim == QRational(QLaurent.one(), QLaurent({0: 1, -2: -1})), "dim closed form mismatch")
    for qv in (Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        gap, bound = verify_dim_numeric(qv, tol=Fraction(1, 10**12))
        check(gap <= bound < Fraction(1, 10**12), f"certificate fails at q={qv}")


def crit_11_sphere_coefficients():
    """sphere_zeta_coeff(0..3) equal the four displayed rational functions."""
    qm = QLaurent({1: 1, -1: -1})
    check(sphere_zeta_coeff(0) == QRational.one(), "t^0 coefficient")
    check(sphere_zeta_coeff(1) == QRational(QLaurent({0: -2}), qm * qm), "t^1 coefficient")
    den2 = (
        QLaurent({0: 1, 2: -1}) * QLaurent({0: 1, -2: -1})
        * QLaurent({0: 1, 4: -1}) * QLaurent({0: 1, -4: -1})
    )
    check(sphere_zeta_coeff(2) == QRational(QLaurent({0: 4}), den2), "t^2 coefficient")
    n2, n3, n4 = q_int_sym(2), q_int_sym(3), q_int_sym(4)
    num3 = (n4 * n4 - QLaurent({0: 4})) * 2
    den3 = n2 * n2 * n3 * n3 * qm * qm * qm * qm * qm * qm
    check(sphere_zeta_coeff(3) == QRational(num3, den3), "t^3 coefficient")


def _pad(dims, length):
    return list(dims) + [0] * (length - len(list(dims)))


def crit_12_fomin_kirillov():
    """Hilbert series of the 2-cycle classes match the quoted products.

    X_2 fully (both BS and the quadratic variant), X_3 fully, X_4 through
    degree 6, X_5 through degree 3.
    """
    ref = {n: [int(c.coeff(0)) for c in fk_reference_series(n).t_coeff_list()] for n in range(2, 6)}
    x2 = transposition_class(2)
    check(list(hilbert_dims(x2, 4)) == _pad(ref[2], 5), "X_2")
    check(list(hilbert_dims_quadratic(x2, 4)) == _pad(ref[2], 5), "X_2 quadratic")
    x3 = transposition_class(3)
    check(list(hilbert_dims(x3, 5)) == _pad(ref[3], 6), "X_3")
    check(list(hilbert_dims_quadratic(x3, 5)) == _pad(ref[3], 6), "X_3 quadratic")
    x4 = transposition_class(4)
    check(list(hilbert_dims(x4, 6)) == ref[4][:7], "X_4 through degree 6")
    check(list(hilbert_dims_quadratic(x4, 6)) == ref[4][:7], "X_4 quadratic through degree 6")
    x5 = transposition_class(5)
    check(list(hilbert_dims(x5, 3)) == ref[5][:4], "X_5 through degree 3")


def crit_13_flip_consistency():
    """Flip sets recover classical symmetric algebras: binomial dimensions everywhere.

    Each n walks the levels j = 0..5 of one ``_joint_kernel_dims`` generator
    of the invariants (entry j is ``invariant_dims(f, j)``), so every level
    is built once.
    """
    for n in range(1, 5):
        f = flip_set(n)
        levels = _joint_kernel_dims(f, _invariant_pair_map(f), n * n, DEFAULT_BUDGET)
        for j, dim in zip(range(6), levels):
            check(dim == comb(n + j - 1, j), f"invariants n={n}, j={j}")
        check(list(hilbert_dims(f, 5)) == [comb(n + j - 1, j) for j in range(6)], f"hilbert n={n}")


def _property_pool():
    sets = [flip_set(2), flip_set(3), flip_set(4), transposition_class(3)]
    sets.append(from_conjugacy_class(3, (2, 3, 1)))          # 3-cycles in S_3, size 2
    sets.append(from_conjugacy_class(4, (2, 1, 4, 3)))       # double transpositions, size 3
    return sets


def crit_14_property_suites():
    """Ladder kernel = brute force; palindromicity; lambda-ring; extraction round trip."""
    # (a) S_j as the literal sum over reduced words checks both halves of the
    # ladder: the kept rows' code (the recursion equals it) and the ranks of
    # _block_bases' restriction M (the Hilbert dimension is its rank)
    for x in _property_pool():
        dims = hilbert_dims(x, 4).dims
        for j in range(2, 5):
            brute = symmetrizer_matrix_bruteforce(x, j)
            check(symmetrizer_matrix_recursive(x, j) == brute, f"recursion != brute force for {x.label}, j={j}")
            rows = {}
            for (r, c), v in brute.items():
                rows.setdefault(r, {})[c] = v
            rank = sparse_int_rank(list(rows.values()))[0]
            check(dims[j] == rank, f"Hilbert dimension {dims[j]} != rank {rank} of brute force for {x.label}, j={j}")
    # (b) palindromicity under q <-> q^-1
    for n in range(9):
        for k in range(n + 1):
            b = q_binom_sym(n, k)
            check(b == b.invert_q(), f"binomial ({n},{k}) not palindromic")
    for n in range(1, 5):
        z = zeta_cn_series(n, 10)
        for j in range(11):
            check(z.coeff(j) == z.coeff(j).invert_q(), f"zeta C^{n} t^{j} not palindromic")
    # (c) lambda-ring multiplicativity on random direct sums
    rng = random.Random(20100214)
    for _ in range(6):
        a = Sl2Decomposition({rng.randrange(4): rng.randrange(1, 3) for _ in range(2)})
        b = Sl2Decomposition({rng.randrange(4): rng.randrange(1, 3) for _ in range(2)})
        lhs = zeta_direct_sum([a, b], 8)
        rhs = zeta_direct_sum([a], 8) * zeta_direct_sum([b], 8)
        check(lhs == rhs, f"lambda-ring fails for {a} and {b}")
    # (d) extraction round trip on random valid CmSeries
    for _ in range(6):
        m = rng.randrange(0, 7)
        order = rng.randrange(3, 9)
        table = [QLaurent({0: 1})]
        for j in range(1, order + 1):
            support = range(j * m % 2, j * m + 1, 2)
            table.append(QLaurent({p: rng.randrange(0, 4) for p in support}) + QLaurent({j * m: 1}))
        c = CmSeries(m, order, table)
        check(cm_from_zeta(m, zeta_from_cm(c)) == c, f"round trip fails at m={m}")


def ext_01_fomin_kirillov_x5():
    """X_5 through degree 8 equals the Fomin-Kirillov product; degree 8 reads 10^8 columns."""
    dims = hilbert_dims(transposition_class(5), 8, budget=10**8)
    ref = [int(c.coeff(0)) for c in fk_reference_series(5).t_coeff_list()[:9]]
    check(dims.complete and list(dims) == ref, f"X_5: {list(dims)} differs from the Fomin-Kirillov product {ref}")


def ext_02_rmatrix_trace():
    """The quantum trace on Sym_j is [n+j-1 choose j]_q at (n, j) = (5, 8), (8, 8) and (5, 9); up to 8! words per block."""
    for n, j in ((5, 8), (8, 8), (5, 9)):
        check(quantum_trace_sym(n, j, budget=(n, j)) == q_binom_sym(n + j - 1, j), f"n={n}, j={j}")


def ext_03_cm_routes():
    """cs, extract and recursion give the same c_m payload, byte for byte; m = 12 has digits past 64 bits."""
    from .serialize import dumps, encode_payload

    for m, order in ((7, 20), (8, 20), (12, 200)):
        cs = dumps(encode_payload(cm_series_cs(m, order)))
        extracted = cm_from_zeta(m, zeta_vm_closed(m).expand(order))
        check(dumps(encode_payload(extracted)) == cs, f"m={m}: the extract payload differs from the cs payload")
        recursed = _cm_by_recursion(m, order)
        check(dumps(encode_payload(recursed)) == cs, f"m={m}: the recursion payload differs from the cs payload")


def ext_04_cn_equals_vm():
    """zeta(C^n) and zeta(V_(n-1)) give the same payload at order 200, n = 7 and 12."""
    from .serialize import dumps, encode_payload

    for n in (7, 12):
        cn = dumps(encode_payload(zeta_cn_series(n, 200)))
        check(cn == dumps(encode_payload(zeta_vm_closed(n - 1).expand(200))), f"n={n}: the payloads differ")


def ext_05_sl2_routes():
    """S^j(V_m) by Cayley-Sylvester, by weights and by Adams operations agree for m, j <= 16."""
    for m in range(17):
        for j in range(17):
            cs = cs_sym_power(m, j)
            check(cs == sym_power_weight_oracle(m, j, budget=m * j) == adams_sym_power(m, j), f"S^{j}(V_{m})")


def ext_06_fit_degrees():
    """fit_gh at m = 17 and 18, whose rows need digits past 128 bits, has the known (deg h, deg g)."""
    for m, max_h_degree, expected in ((17, 270, (270, 261)), (18, 153, (153, 143))):
        gh = fit_gh(m, max_h_degree=max_h_degree)
        got = (gh.h.t_degree(), gh.g.t_degree())
        check(got == expected, f"m={m}: (deg h, deg g) = {got}, expected {expected}")


def ext_07_fomin_kirillov_quadratic_x4():
    """The quadratic cover of X_4 through degree 13 equals the Fomin-Kirillov product: d_12 = 1 is the top, d_13 = 0."""
    dims = hilbert_dims_quadratic(transposition_class(4), 13, budget=6**13)
    ref = _pad([int(c.coeff(0)) for c in fk_reference_series(4).t_coeff_list()], 14)
    check(dims.complete and list(dims) == ref,
          f"X_4 quadratic: {list(dims)} differs from the Fomin-Kirillov product {ref}")


def ext_08_fomin_kirillov_quadratic_x5():
    """The quadratic cover of X_5 through degree 8 equals the Fomin-Kirillov product; degree 8 counts 10^8 columns."""
    dims = hilbert_dims_quadratic(transposition_class(5), 8, budget=10**8)
    ref = [int(c.coeff(0)) for c in fk_reference_series(5).t_coeff_list()[:9]]
    check(dims.complete and list(dims) == ref,
          f"X_5 quadratic: {list(dims)} differs from the Fomin-Kirillov product {ref}")


# One record per check.  peak_rss_mib is set for EXTENDED entries only, and
# peak_rss_bound says it is the process peak the entry started under, not one
# it raised.  A namedtuple, not a dataclass: every CLI call imports this module.
CriterionResult = namedtuple(
    "CriterionResult",
    ("number", "name", "suite", "passed", "seconds", "detail", "peak_rss_mib", "peak_rss_bound"),
    defaults=("", None, False),
)


CRITERIA = [
    (1, "prop-4.1 product = q-binomial series (n<=6, order 30)", "zeta", crit_01_product_vs_series),
    (2, "prop-4.1 proof Newton recursion (n<=6, order 20)", "zeta", crit_02_newton_recursion),
    (3, "Weyl q-dimension = q-binomial (n<=5, j<=10)", "zeta", crit_03_weyl_formula),
    (4, "R-matrix quantum trace oracle (n<=4, j<=5)", "zeta", crit_04_rmatrix_oracle),
    (5, "theorem-4.2 zeta(V_m) closed form (m<=8, order 20)", "zeta", crit_05_theorem42),
    (6, "triple-route c_m agreement (m=2..6, order 12)", "cm", crit_06_triple_route),
    (7, "cor-4.5 closed forms for c_3, c_4", "cm", crit_07_cor45_closed_forms),
    (8, "cor-4.7 fitted (g,h) pairs for m=5,6", "cm", crit_08_cor47_gh_pairs),
    (9, "lemma-4.6 rational degree claims (m=2..6)", "cm", crit_09_lemma46_degrees),
    (10, "sphere dimensions: symbolic dim' + certified numeric dim", "sphere", crit_10_sphere_dimensions),
    (11, "sphere zeta coefficients t^0..t^3", "sphere", crit_11_sphere_coefficients),
    (12, "Fomin-Kirillov Hilbert series X_2..X_5", "nichols", crit_12_fomin_kirillov),
    (13, "flip sets: classical binomial dimensions", "nichols", crit_13_flip_consistency),
    (14, "property suites: recursion oracle, palindromicity, lambda-ring, round trip", "all", crit_14_property_suites),
]

# the rows of CRITERIA with a timeout in seconds; not among the 14 criteria
EXTENDED = [
    (1, "Fomin-Kirillov X_5 through degree 8", "extended", ext_01_fomin_kirillov_x5, 60),
    (2, "R-matrix quantum trace at j=8 (n=5, 8) and j=9 (n=5)", "extended", ext_02_rmatrix_trace, 60),
    (3, "c_m routes byte for byte (m=7, 8 at order 20; m=12 at order 200)", "extended", ext_03_cm_routes, 60),
    (4, "zeta(C^n) = zeta(V_(n-1)) byte for byte (n=7, 12, order 200)", "extended", ext_04_cn_equals_vm, 60),
    (5, "sl2 routes: Cayley-Sylvester = weight = Adams (m, j<=16)", "extended", ext_05_sl2_routes, 60),
    (6, "fit (deg h, deg g) at m=17, 18", "extended", ext_06_fit_degrees, 60),
    (7, "Fomin-Kirillov X_4 quadratic cover through degree 13", "extended", ext_07_fomin_kirillov_quadratic_x4, 60),
    (8, "Fomin-Kirillov X_5 quadratic cover through degree 8", "extended", ext_08_fomin_kirillov_quadratic_x5, 60),
]

SUITES = ("all", "zeta", "cm", "sphere", "nichols", "extended")


def run_suite(suite: str = "all"):
    """Run the selected checks; returns a list of CriterionResult.  An ``EXTENDED`` entry past its timeout fails."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    selected = EXTENDED if suite == "extended" else [(*c, None) for c in CRITERIA if suite in ("all", c[2])]
    results = []
    for number, name, group, fn, timeout in selected:
        if timeout is not None:
            import resource  # Unix only, and read by EXTENDED alone
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        start = time.monotonic()
        try:
            fn()
            passed, detail = True, ""
        except CriterionFailed as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # surface unexpected breakage as a failure, not a crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.monotonic() - start
        peak, bound = None, False
        if timeout is not None:
            # the process peak is the entry's own only if the entry raised it;
            # else the entry stayed at or below the peak it started under
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak, bound = after // 1024, after == before
            if passed and seconds > timeout:
                passed, detail = False, f"took {seconds:.1f} s, past its timeout of {timeout} s"
        results.append(CriterionResult(number, name, group, passed, seconds, detail, peak, bound))
    return results
