"""Factored projected gradient descent for constrained low-rank PSD
recovery, with problem generators and convergence diagnostics."""

from .linalg import (
    factor_from_psd,
    is_hermitian,
    procrustes_align,
    procrustes_dist,
    project_frobenius_ball,
    project_l1_ball,
    psd_project,
    spectral_norm,
    trace_inner,
)
from .objective import DenseStack, MeasurementEnsemble, Objective, RankOne
from .problems import (
    ConstraintSet,
    ProblemInstance,
    frobenius_ball,
    gen_phase_retrieval,
    gen_qst,
    gen_synthetic,
    l1_ball,
    unconstrained,
)
from .solver import (
    SolveTrace,
    SolverConfig,
    fgd_solve,
    init_point,
    projfgd_solve,
    summary_dict,
    write_summary_json,
    write_trace_csv,
)
from .diagnostics import (
    LemmaReport,
    check_contraction,
    check_descent_lemma,
    check_init_bound,
    check_tu_inequality,
    check_xi_bound,
    contraction_alpha,
    fit_contraction,
    relative_error,
    run_suite,
    contraction_radius,
)

__version__ = "0.1.0"
