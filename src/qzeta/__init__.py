"""qzeta: exact braided zeta functions and braided Hilbert series.

Everything is computed over exact rational arithmetic: Laurent polynomials
and rational functions in q, truncated series in t, and integer/rational
linear algebra.  No floating point enters the core.
"""

from .errors import (
    BudgetExceeded,
    CriterionFailed,
    DivergentSum,
    DivisionByZero,
    ExactDivisionError,
    FitFailed,
    NoSolution,
    NotAUnit,
    QZetaError,
)
from .qlaurent import QLaurent
from .tseries import TSeries, geometric_series
from .qtpoly import FactoredRatQT, QTPoly
from .qrational import QRational
from .linalg import solve_linear, sparse_int_rank, sparse_kernel
from .qcombinat import bounded_partitions, gaussian_coeffs, q_binom_sym, q_int_sym, t_bracket
from .sl2 import (
    Sl2Decomposition,
    adams_sym_power,
    character,
    cs_sym_power,
    dimq,
    dimq_prime,
    sym_power_weight_oracle,
    tensor_decompose,
)
from .weyl import DominantWeightA, weyl_qdim_prime, zeta_cn_closed, zeta_cn_series
from .rmatrix import RHat, quantum_trace_sym, sym_subspace_dims
from .zeta_engine import (
    CmSeries,
    GHPair,
    cm_from_zeta,
    cm_recursion_step,
    cm_series_cs,
    eta_m,
    fit_gh,
    verify_functional_eq,
    zeta_direct_sum,
    zeta_finite_set,
    zeta_from_cm,
    zeta_vm_closed,
)
from .sphere import (
    SExpr,
    even_part_zeta_at_pm1,
    partial_sum,
    sphere_dims,
    sphere_zeta_coeff,
    verify_dim_numeric,
    verify_sexpr_numeric,
)
from .braided import (
    BraidedSet,
    GradedDims,
    check_braid_relation,
    fk_reference_series,
    flip_set,
    from_conjugacy_class,
    hilbert_dims,
    hilbert_dims_quadratic,
    invariant_dims,
    symmetrizer_rank,
    transposition_class,
)

__version__ = "0.1.0"
