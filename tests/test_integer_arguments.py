"""Every integer argument of a public function or constructor is read one way.

One table row per argument: a call with the argument in the place of v,
and its least value (None where any integer is valid).  For each row, 2.0
and Fraction(4, 2) give the same result as 2, 2.5 and "2" raise ValueError
("must be an integer"), and the value just below the least one raises
ValueError.  Budgets are integer arguments too, and so is each entry of
the R-matrix budget pair.  Lookups of recorded data
(``fk_reference_series``, ``refdata``) and data entries that must be ints
(``Sl2Decomposition`` parts, braiding tables) are not in the table.
"""

from fractions import Fraction as F
from itertools import islice

import pytest

from qzeta import (
    CmSeries,
    DominantWeightA,
    FactoredRatQT,
    GHPair,
    GradedDims,
    QLaurent,
    QRational,
    QTPoly,
    RHat,
    Sl2Decomposition,
    TSeries,
    adams_sym_power,
    bounded_partitions,
    cm_from_zeta,
    cm_recursion_step,
    cm_series_cs,
    cs_sym_power,
    even_part_zeta_at_pm1,
    eta_m,
    fit_gh,
    flip_set,
    from_conjugacy_class,
    gaussian_coeffs,
    geometric_series,
    hilbert_dims,
    hilbert_dims_quadratic,
    invariant_dims,
    q_binom_sym,
    q_int_sym,
    quantum_trace_sym,
    sparse_kernel,
    sphere_zeta_coeff,
    sym_power_weight_oracle,
    sym_subspace_dims,
    symmetrizer_rank,
    t_bracket,
    transposition_class,
    verify_functional_eq,
    zeta_cn_closed,
    zeta_cn_series,
    zeta_direct_sum,
    zeta_finite_set,
    zeta_vm_closed,
)
from qzeta.braided import SymmetrizerLadder, symmetrizer_matrix_bruteforce, symmetrizer_matrix_recursive
from qzeta.qcombinat import gaussian_steps_packed
from qzeta.rmatrix import trace_of_blocks
from qzeta.sl2 import cs_rows_packed
from qzeta.sphere import verify_term_numeric

_Q = QLaurent({1: 1})
_X3 = transposition_class(3)
_TERM = QRational(QLaurent({1: 1}), QLaurent({0: 1, 2: -1}))
_TOL = F(1, 1000)  # the term certificate at q = 9 stops at two terms

# (argument, call with the argument set to v, least value or None)
TABLE = [
    # qcombinat
    ("q_int_sym(n)", lambda v: q_int_sym(v), 0),
    ("gaussian_steps_packed(a)", lambda v: list(islice(gaussian_steps_packed(v, 16), 4)), 0),
    ("gaussian_steps_packed(width)", lambda v: list(islice(gaussian_steps_packed(3, v), 4)), 1),
    ("gaussian_coeffs(n)", lambda v: gaussian_coeffs(v, 1), 0),
    ("gaussian_coeffs(k)", lambda v: gaussian_coeffs(4, v), 0),
    ("q_binom_sym(n)", lambda v: q_binom_sym(v, 1), 0),
    ("q_binom_sym(k)", lambda v: q_binom_sym(4, v), 0),
    ("t_bracket(m)", lambda v: t_bracket(v), 1),
    ("bounded_partitions(r)", lambda v: bounded_partitions(v, 2, 3), None),
    ("bounded_partitions(j)", lambda v: bounded_partitions(2, v, 3), 0),
    ("bounded_partitions(m)", lambda v: bounded_partitions(2, 3, v), 0),
    # sl2
    ("Sl2Decomposition.irreducible(m)", lambda v: Sl2Decomposition.irreducible(v), 0),
    ("Sl2Decomposition.irreducible(mult)", lambda v: Sl2Decomposition.irreducible(3, v), 0),
    ("cs_sym_power(m)", lambda v: cs_sym_power(v, 3), 0),
    ("cs_sym_power(j)", lambda v: cs_sym_power(3, v), 0),
    ("cs_rows_packed(m)", lambda v: list(islice(cs_rows_packed(v, 16), 4)), 0),
    ("cs_rows_packed(width)", lambda v: list(cs_rows_packed(3, v)), 2),
    ("sym_power_weight_oracle(m)", lambda v: sym_power_weight_oracle(v, 3), 0),
    ("sym_power_weight_oracle(j)", lambda v: sym_power_weight_oracle(3, v), 0),
    ("adams_sym_power(m)", lambda v: adams_sym_power(v, 3), 0),
    ("adams_sym_power(j)", lambda v: adams_sym_power(3, v), 0),
    ("sym_power_weight_oracle(budget)", lambda v: sym_power_weight_oracle(2, 2, budget=v), 0),
    # weyl
    ("DominantWeightA(n)", lambda v: DominantWeightA(v, [1]), 2),
    ("DominantWeightA(coeffs)", lambda v: DominantWeightA(3, [v, 0]), 0),
    ("DominantWeightA.j_omega1(n)", lambda v: DominantWeightA.j_omega1(v, 3), 2),
    ("DominantWeightA.j_omega1(j)", lambda v: DominantWeightA.j_omega1(3, v), 0),
    ("zeta_cn_closed(n)", lambda v: zeta_cn_closed(v), 1),
    ("zeta_cn_series(n)", lambda v: zeta_cn_series(v, 3), 1),
    ("zeta_cn_series(order)", lambda v: zeta_cn_series(3, v), 0),
    # tseries
    ("TSeries(order)", lambda v: TSeries(v), 0),
    ("TSeries.one(order)", lambda v: TSeries.one(v), 0),
    ("geometric_series(order)", lambda v: geometric_series(1, v), 0),
    ("geometric_series(texp)", lambda v: geometric_series(1, 4, v), 1),
    # qtpoly and qlaurent
    ("QTPoly(t-exponent)", lambda v: QTPoly({(1, v): 3}), 0),
    ("QTPoly.to_tseries(order)", lambda v: QTPoly({(1, 1): 3}).to_tseries(v), 0),
    ("FactoredRatQT(factor t-exponent)", lambda v: FactoredRatQT(QTPoly.one(), [((1, v), 1)]), 1),
    ("FactoredRatQT(factor multiplicity)", lambda v: FactoredRatQT(QTPoly.one(), [((1, 1), v)]), 1),
    ("FactoredRatQT.expand(order)", lambda v: zeta_cn_closed(2).expand(v), 0),
    ("QLaurent ** n", lambda v: (_Q + 1) ** v, 0),
    # zeta_engine
    ("CmSeries(m)", lambda v: CmSeries(v, 1, [QLaurent.one(), QLaurent({2: 1})]), 0),
    ("CmSeries(order)", lambda v: CmSeries(0, v, [QLaurent.one()] * 3), 0),
    ("GHPair(m)", lambda v: GHPair(v, QTPoly.one(), QTPoly.one()), 0),
    ("zeta_vm_closed(m)", lambda v: zeta_vm_closed(v), 0),
    ("cm_series_cs(m)", lambda v: cm_series_cs(v, 3).table, 0),
    ("cm_series_cs(order)", lambda v: cm_series_cs(3, v).table, 0),
    ("cm_from_zeta(m)", lambda v: cm_from_zeta(v, zeta_vm_closed(2).expand(3)), 0),
    ("cm_recursion_step(m)", lambda v: cm_recursion_step(v, cm_series_cs(0, 3), 3).table, 2),
    ("cm_recursion_step(order)", lambda v: cm_recursion_step(3, cm_series_cs(1, 3), v).table, 0),
    ("eta_m(m)", lambda v: eta_m(v), 0),
    ("verify_functional_eq(m)", lambda v: verify_functional_eq(v, fit_gh(2)), 0),
    ("fit_gh(m)", lambda v: fit_gh(v), 2),
    ("fit_gh(max_h_degree)", lambda v: fit_gh(2, v), 1),
    ("zeta_finite_set(n)", lambda v: zeta_finite_set(v), 0),
    ("zeta_direct_sum(parts)", lambda v: zeta_direct_sum([v, 1], 3), 0),
    ("zeta_direct_sum(order)", lambda v: zeta_direct_sum([2], v), 0),
    # braided
    ("from_conjugacy_class(k)", lambda v: from_conjugacy_class(v, (2, 1)), 2),
    ("transposition_class(k)", lambda v: transposition_class(v), 2),
    ("flip_set(n)", lambda v: flip_set(v), 1),
    ("GradedDims(requested_degree)", lambda v: GradedDims([1, 3], v), 0),
    ("SymmetrizerLadder.dim(j)", lambda v: SymmetrizerLadder(_X3).dim(v), 0),
    ("symmetrizer_rank(j)", lambda v: symmetrizer_rank(_X3, v), 0),
    ("hilbert_dims(max_degree)", lambda v: hilbert_dims(_X3, v), 0),
    ("hilbert_dims_quadratic(max_degree)", lambda v: hilbert_dims_quadratic(_X3, v), 0),
    ("invariant_dims(j)", lambda v: invariant_dims(_X3, v), 0),
    ("symmetrizer_matrix_bruteforce(j)", lambda v: symmetrizer_matrix_bruteforce(_X3, v), 0),
    ("symmetrizer_matrix_recursive(j)", lambda v: symmetrizer_matrix_recursive(_X3, v), 0),
    ("SymmetrizerLadder(budget)", lambda v: SymmetrizerLadder(_X3, v).dim(2), 0),
    ("symmetrizer_rank(budget)", lambda v: symmetrizer_rank(_X3, 2, budget=v), 0),
    ("hilbert_dims(budget)", lambda v: hilbert_dims(_X3, 3, budget=v), 0),
    ("hilbert_dims_quadratic(budget)", lambda v: hilbert_dims_quadratic(_X3, 3, budget=v), 0),
    ("invariant_dims(budget)", lambda v: invariant_dims(_X3, 2, budget=v), 0),
    # rmatrix and linalg
    ("RHat(n)", lambda v: RHat(v).columns, 2),
    ("sym_subspace_dims(n)", lambda v: sym_subspace_dims(v, 3), 2),
    ("sym_subspace_dims(j)", lambda v: sym_subspace_dims(3, v), 0),
    ("quantum_trace_sym(n)", lambda v: quantum_trace_sym(v, 3), 2),
    ("quantum_trace_sym(j)", lambda v: quantum_trace_sym(3, v), 0),
    ("sym_subspace_dims(budget max n)", lambda v: sym_subspace_dims(2, 2, budget=(v, 5)), 0),
    ("sym_subspace_dims(budget max j)", lambda v: sym_subspace_dims(2, 2, budget=(4, v)), 0),
    ("quantum_trace_sym(budget max n)", lambda v: quantum_trace_sym(2, 2, budget=(v, 5)), 0),
    ("quantum_trace_sym(budget max j)", lambda v: quantum_trace_sym(2, 2, budget=(4, v)), 0),
    ("trace_of_blocks(n)", lambda v: trace_of_blocks(v, [((0, 1), 1)]), 2),
    ("sparse_kernel(width)", lambda v: sparse_kernel([{0: 1}, {0: 2}, {1: 1}], v), 0),
    # sphere
    ("sphere_zeta_coeff(k)", lambda v: sphere_zeta_coeff(v), 0),
    ("even_part_zeta_at_pm1(m)", lambda v: even_part_zeta_at_pm1(v), 0),
    ("verify_term_numeric(a)", lambda v: verify_term_numeric(_TERM, v, F(9), tol=_TOL), None),
]

# the value each row reads as valid, where it is not 2; a budget of 9 = 3^2
# admits degree 2 of _X3 and refuses degree 3
VALID = {
    "even_part_zeta_at_pm1(m)": 3,
    "gaussian_steps_packed(width)": 16,
    "cs_rows_packed(width)": 16,
    "sym_power_weight_oracle(budget)": 4,
    "SymmetrizerLadder(budget)": 9,
    "symmetrizer_rank(budget)": 9,
    "hilbert_dims(budget)": 9,
    "hilbert_dims_quadratic(budget)": 9,
    "invariant_dims(budget)": 9,
}

IDS = [name for name, _call, _least in TABLE]


@pytest.mark.parametrize("name, call, least", TABLE, ids=IDS)
def test_integral_values_count_as_ints(name, call, least):
    v = VALID.get(name, 2)
    assert repr(call(float(v))) == repr(call(F(2 * v, 2))) == repr(call(v))


@pytest.mark.parametrize("name, call, least", TABLE, ids=IDS)
def test_non_integral_values_are_value_errors(name, call, least):
    v = VALID.get(name, 2)
    for bad in (v + 0.5, str(v)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)


@pytest.mark.parametrize("name, call, least", [row for row in TABLE if row[2] is not None],
                         ids=[name for name, _call, least in TABLE if least is not None])
def test_values_below_the_least_are_value_errors(name, call, least):
    with pytest.raises(ValueError, match="must be"):
        call(least - 1)


def test_weight_oracle_refuses_a_non_integral_power():
    # it used to return Sl2Decomposition(0)
    with pytest.raises(ValueError, match="j must be an integer, got 2.5"):
        sym_power_weight_oracle(2, 2.5)


def test_messages_name_the_argument_and_its_least_value():
    for call, message in (
        (lambda: q_int_sym(-1), "n must be non-negative"),
        (lambda: t_bracket(0), "m must be >= 1"),
        (lambda: fit_gh(1), "m must be >= 2"),
        (lambda: fit_gh(2, 0), "max_h_degree must be >= 1"),
        (lambda: cm_series_cs(2, 2.5), "order must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_budgets_are_read_at_entry():
    # None, a string or a bare int where a pair is due are refused before any work
    for call, message in (
        (lambda: hilbert_dims(_X3, 3, budget=None), "budget must be an integer, got None"),
        (lambda: hilbert_dims_quadratic(_X3, 3, budget="100"), "budget must be an integer, got '100'"),
        (lambda: symmetrizer_rank(_X3, 0, budget=2.5), "budget must be an integer, got 2.5"),
        (lambda: invariant_dims(_X3, 0, budget=-1), "budget must be non-negative"),
        (lambda: sym_power_weight_oracle(2, 2, budget=None), "budget must be an integer, got None"),
        (lambda: sym_subspace_dims(2, 2, budget=3), r"budget must be a pair \(max n, max j\), got 3"),
        (lambda: sym_subspace_dims(2, 2, budget=(4, 5, 6)), r"budget must be a pair \(max n, max j\), got \(4, 5, 6\)"),
        (lambda: quantum_trace_sym(2, 2, budget=(4, None)), "budget max j must be an integer, got None"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
