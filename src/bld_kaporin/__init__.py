"""Bregman log-determinant low-rank preconditioning toolkit.

Builds low-rank corrections of approximate factorizations selected by the
log-determinant penalty, relates the resulting divergence to Kaporin-style
condition numbers, runs instrumented PCG against the matching convergence
bounds, and estimates everything matrix-free with stochastic Lanczos
quadrature.
"""

from .divergence import (
    ConditionReport,
    bregman_logdet,
    condition_report,
    dual_coords,
    dual_divergence,
    gamma_map,
    jacobi_scale,
    kaporin_b,
    kappa2,
    ln_kaporin_k,
    scale_to_unit_trace,
)
from .harness import (
    alpha_sensitivity,
    bound_overlay,
    error_order_study,
    estimator_study,
    sweep_alpha,
    verify_theorems,
)
from .linalg import EigenDecomposition, LanczosResult, LowerTriFactor, cholesky, ic0, identity_factor, lanczos, sym_eig, tri_solve
from .matio import SparseSymMatrix, read_matrix_market, write_matrix_market, write_table
from .pcg import (
    SolveConfig,
    SolveReport,
    bound_3lnd,
    bound_divergence,
    bound_kaporin,
    bound_kappa,
    iter_estimate_divergence,
    iter_estimate_kaporin,
    iter_estimate_kappa,
    pcg_solve,
    recommended_sigma,
)
from .precond import (
    ErrorCore,
    LowRankTerm,
    Preconditioner,
    bld_truncate,
    error_core,
    sym_preconditioned_operator,
    tsvd_truncate,
)
from .rla import (
    EstimateReport,
    ProbeConfig,
    approx_alpha,
    approx_divergence,
    approx_ln_kaporin,
    slq_trace_logdet,
)
from .synth import make_dense_spd, make_sparse_network, make_spectrum, random_spd

__version__ = "0.1.0"
