"""Principal matrix square roots via Zolotarev rational minimax iterations.

The package couples an elliptic-function kernel (Landen ladders, Carlson
RF, Jacobi sn/cn/dn) to partial-fraction iteration steps for A^(1/2) and
A^(-1/2), alongside Pade and Denman-Beavers comparators, scalar
convergence analysis on the slit annulus, and a benchmark corpus.
"""

from .elliptic import ModulusPair, agm_K, carlson_rf, inv_sn, jacobi_scd
from .linalg import (
    DenseMatrix,
    LUFactors,
    SingularMatrixError,
    SpectralExtremes,
    dense,
    det_log_magnitude,
    extreme_eigen_moduli,
    inverse,
    lu_factor,
    matmul,
    norm,
    solve,
)
from .zolofuncs import (
    BranchCutError,
    PartialFractionForm,
    PoleHitError,
    ScalarTrace,
    ZoloParams,
    advance_alpha,
    alpha_step,
    build_partial_fraction,
    epsilon_of,
    equioscillation_nodes,
    eval_h,
    eval_rhat,
    eval_shat,
    kappa_of,
    pade_partial_fraction,
    phi_of,
    rho_of,
    scalar_iterate,
)
from .sqrtm import (
    ConvergenceReport,
    IterationAbortError,
    IterationOptions,
    IterationState,
    db_step,
    normalized_iterates,
    pade_step,
    prepare_problem,
    sqrtm_drive,
    termination_check,
    zolo_step,
)
from .corpus import (
    MetricSet,
    SuiteRow,
    TestCase,
    bench_cases,
    bench_methods,
    compute_metrics,
    emit_csv,
    gen_chebvand,
    gen_moler,
    gen_rank_one,
    gen_spd_logspectrum,
    method_label,
    reference_sqrt_hermitian,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ModulusPair", "agm_K", "carlson_rf", "inv_sn", "jacobi_scd",
    "DenseMatrix", "LUFactors", "SingularMatrixError", "SpectralExtremes",
    "dense", "det_log_magnitude", "extreme_eigen_moduli", "inverse",
    "lu_factor", "matmul", "norm", "solve",
    "BranchCutError", "PartialFractionForm", "PoleHitError", "ScalarTrace",
    "ZoloParams", "advance_alpha", "alpha_step", "build_partial_fraction",
    "epsilon_of", "equioscillation_nodes", "eval_h", "eval_rhat", "eval_shat",
    "kappa_of", "pade_partial_fraction", "phi_of", "rho_of", "scalar_iterate",
    "ConvergenceReport", "IterationAbortError", "IterationOptions",
    "IterationState", "db_step", "normalized_iterates", "pade_step",
    "prepare_problem", "sqrtm_drive", "termination_check", "zolo_step",
    "MetricSet", "SuiteRow", "TestCase", "bench_cases", "bench_methods",
    "compute_metrics", "emit_csv", "gen_chebvand", "gen_moler",
    "gen_rank_one", "gen_spd_logspectrum", "method_label",
    "reference_sqrt_hermitian", "run_suite",
    "__version__",
]
