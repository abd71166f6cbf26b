"""Lemma checkers, contraction fitting, error metrics, verify suites."""

from dataclasses import replace

import numpy as np
import pytest

from fpgd.diagnostics import (
    MARGIN_ABS_TOL,
    MARGIN_REL_TOL,
    LemmaReport,
    check_contraction,
    check_descent_lemma,
    check_init_bound,
    check_tu_inequality,
    check_xi_bound,
    contraction_alpha,
    descent_lemma_margin,
    fit_contraction,
    relative_error,
    run_suite,
    contraction_radius,
)
from fpgd.objective import MeasurementEnsemble, Objective
from fpgd.problems import frobenius_ball, gen_synthetic
from fpgd.solver import SolveTrace


def well_conditioned_instance(seed, n=16, r=2, noise=0.0):
    return gen_synthetic(n=n, r=r, m=6 * r * n, condition_number=2.0, noise_norm=noise, seed=seed)


# ---------------------------------------------------------------------------
# relative_error
# ---------------------------------------------------------------------------


def test_relative_error_trivial_values():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4))
    assert relative_error(x, x) == 0.0
    assert relative_error(np.zeros_like(x), x) == pytest.approx(1.0)
    assert relative_error(2.0 * x, x) == pytest.approx(1.0)


def test_relative_error_errors():
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        relative_error(np.eye(2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# descent lemma
# ---------------------------------------------------------------------------


def test_descent_margin_zero_at_noiseless_truth():
    # gradient vanishes exactly; dist carries only SVD floating-point noise
    inst = well_conditioned_instance(1)
    margin, scale, dist = descent_lemma_margin(inst, inst.truth_factor)
    assert dist <= 1e-12
    assert margin == pytest.approx(0.0, abs=1e-30)
    assert scale == pytest.approx(0.0, abs=1e-30)


def test_descent_lemma_in_radius_no_violations():
    inst = well_conditioned_instance(2)
    report = check_descent_lemma(inst, trials=100, seed=3)
    assert report.trials == 100
    assert report.violations == 0
    assert report.skipped == 0


# ---------------------------------------------------------------------------
# tu inequality
# ---------------------------------------------------------------------------


def test_tu_trivial_cases():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((6, 2))
    const = 2.0 * (np.sqrt(2.0) - 1.0)
    # U = V: both sides zero
    lhs = np.linalg.norm(u @ u.T - u @ u.T) ** 2
    assert lhs == 0.0
    # V = U R: rotation invariance makes both sides zero
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v = u @ q
    assert np.linalg.norm(u @ u.T - v @ v.T) < 1e-12
    from fpgd.linalg import procrustes_dist

    assert const * procrustes_dist(u, v) ** 2 < 1e-20


@pytest.mark.parametrize("r", [1, 2, 3])
def test_tu_inequality_random_pairs(r):
    report = check_tu_inequality(r=r, seed=7 + r)
    assert report.trials == 1000
    assert report.context["n"] == 10
    assert report.violations == 0


def test_tu_inequality_complex():
    report = check_tu_inequality(r=2, seed=11, complex_field=True)
    assert report.trials == 1000
    assert report.violations == 0


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_fit_contraction_zero_tail_convention():
    trace = SolveTrace(initial_dist=0.0, dist=[0.0, 0.0, 0.0])
    assert fit_contraction(trace) == 0.0


def test_fit_contraction_requires_dists():
    trace = SolveTrace(initial_dist=float("nan"), dist=[float("nan")])
    with pytest.raises(ValueError):
        fit_contraction(trace)
    trace = SolveTrace(initial_dist=10.0, dist=[9.0])
    with pytest.raises(ValueError):
        fit_contraction(trace, radius=1.0)  # nothing in radius


def test_fit_contraction_measures_ratio():
    trace = SolveTrace(initial_dist=1.0, dist=[0.5, 0.25])
    assert fit_contraction(trace) == pytest.approx(0.25, rel=1e-6)


def test_contraction_bound_projfgd():
    inst = well_conditioned_instance(8, n=24)
    report = check_contraction(inst, "projfgd", iters=100)
    assert report.violations == 0
    assert report.trials > 0
    alpha = report.context["alpha"]
    assert 0.0 < alpha < 1.0


def test_contraction_bound_fgd():
    inst = well_conditioned_instance(9, n=24)
    report = check_contraction(inst, "fgd", iters=100)
    assert report.violations == 0
    # the unconstrained constant is smaller, so the bound is tighter
    assert contraction_alpha(inst, 64.0) < contraction_alpha(inst, 550.0)


def test_contraction_and_xi_reports_carry_the_instance_seed():
    inst = well_conditioned_instance(8)
    reports = [
        check_contraction(inst, "projfgd", iters=10),
        check_contraction(inst, "fgd", iters=10),
        check_xi_bound(replace(inst, constraint=frobenius_ball(0.8)), iters=10),
    ]
    assert [report.context["seed"] for report in reports] == [inst.seed] * 3


def test_check_contraction_refuses_an_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        check_contraction(well_conditioned_instance(8), "nope")


def test_lemma_report_counts_a_margin_beyond_its_tolerance():
    report = LemmaReport("margins")
    report.record(-1.0, tol=0.0)
    report.record(-1e-12, MARGIN_ABS_TOL + MARGIN_REL_TOL * 1.0)  # the descent and TU rule at scale 1
    assert (report.trials, report.violations, report.worst_margin) == (2, 1, -1.0)
    with pytest.raises(TypeError):
        report.record(-1.0)  # one rule: every call names its tolerance


def test_points_outside_the_radius_are_skipped():
    # The truth (norm 1) lies outside the ball of radius 0.5, so every projected point is beyond the radius.
    inst = gen_synthetic(n=8, r=2, m=96, condition_number=2.0, noise_norm=0.0, seed=0)
    inst = replace(inst, constraint=frobenius_ball(0.5))
    for report in (check_descent_lemma(inst, trials=5, seed=0), check_contraction(inst, "projfgd", iters=5)):
        assert (report.trials, report.skipped, report.violations) == (0, 5, 0)


def test_descent_margin_refuses_a_zero_step():
    # y = 0 and u = 0: both terms of the step denominator vanish.
    inst = well_conditioned_instance(0)
    ens = inst.objective.ensemble
    inst = replace(inst, objective=Objective(MeasurementEnsemble(ens.operator, np.zeros(ens.m))))
    with pytest.raises(ValueError, match="zero step denominator"):
        descent_lemma_margin(inst, np.zeros((16, 2)))


def test_fitted_rate_below_alpha():
    from fpgd.diagnostics import perturb_within_radius
    from fpgd.solver import SolverConfig, fgd_solve

    inst = well_conditioned_instance(10, n=24)
    radius = contraction_radius(inst)
    rng = np.random.default_rng(10)
    u0 = perturb_within_radius(inst, radius, rng)
    cfg = SolverConfig(rank=2, max_iters=150, tol=1e-14, record_truth_dist=True)
    _, trace = fgd_solve(inst, cfg, u0=u0)
    fitted = fit_contraction(trace, radius=radius)
    assert fitted <= contraction_alpha(inst, 64.0)


# ---------------------------------------------------------------------------
# xi bound and init bound
# ---------------------------------------------------------------------------


def test_xi_bound_on_noisy_frobenius_run():
    inst = well_conditioned_instance(11, n=16, noise=1e-3)
    report = check_xi_bound(inst, iters=300)
    assert report.violations == 0


def test_xi_bound_rejects_other_constraints():
    from fpgd.problems import ProblemInstance, unconstrained

    inst = well_conditioned_instance(12)
    free = ProblemInstance(
        inst.objective, inst.truth_factor, unconstrained(), 12
    )
    with pytest.raises(ValueError):
        check_xi_bound(free)


def test_init_bound_full_rank():
    inst = gen_synthetic(n=10, r=10, m=800, condition_number=1.5, noise_norm=0.0, seed=13)
    result = check_init_bound(inst)
    assert result["bound"] > 0
    if not result["vacuous"]:
        assert result["satisfied"]


def test_init_bound_requires_full_rank():
    inst = well_conditioned_instance(14)
    with pytest.raises(ValueError):
        check_init_bound(inst)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nonsense", seed=0)


def test_run_suite_tu_clean():
    report = run_suite("tu", seed=0)
    assert report["violations"] == 0
    assert len(report["reports"]) == 3


def test_run_suite_projections_clean():
    report = run_suite("projections", seed=0)
    assert report["violations"] == 0
