"""Solver: initialization, step size, iteration, stopping, trace export."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from oracles import dense_projfgd_reference, dense_stack
from test_golden import SOLVE_CASES

from fpgd.cli import build_instance, build_solver_config
from fpgd.linalg import procrustes_dist, spectral_norm
from fpgd.objective import DenseStack, MeasurementEnsemble, Objective, RankOne
from fpgd.problems import (
    ProblemInstance,
    frobenius_ball,
    gen_phase_retrieval,
    gen_qst,
    gen_synthetic,
    unconstrained,
)
from fpgd.solver import (
    PROJFGD_STEP_CONSTANT,
    TRACE_COLUMNS,
    SolverConfig,
    _adaptive_step,
    fgd_solve,
    init_point,
    projfgd_solve,
    step_size,
    summary_dict,
    write_summary_json,
    write_trace_csv,
)


def scalar_instance(y_value, constraint=None):
    ens = MeasurementEnsemble(np.ones((1, 1, 1)), np.array([float(y_value)]), 0.0)
    truth = np.array([[abs(float(y_value))]])
    return ProblemInstance(
        objective=Objective(ens),
        truth_factor=np.sqrt(truth),
        constraint=constraint or unconstrained(),
        seed=0,
    )


# ---------------------------------------------------------------------------
# init_point
# ---------------------------------------------------------------------------


def test_init_zero_observations_degenerate():
    ens = MeasurementEnsemble(np.eye(3)[None, :, :], np.array([0.0]), 0.0)
    u0 = init_point(Objective(ens), unconstrained(), 2)
    assert np.allclose(u0, 0.0)


def test_init_scalar_hand_arithmetic():
    # E = [1], y = [1]: L_hat = 2, -grad f(0) = [[2]], X0 = [[1]], U0 = min(1, lam)
    inst = scalar_instance(1.0)
    obj = inst.objective
    assert obj.smoothness() == pytest.approx(2.0, rel=1e-6)
    u0 = init_point(obj, unconstrained(), 1)
    assert u0[0, 0] == pytest.approx(1.0, rel=1e-6)
    u0 = init_point(obj, frobenius_ball(0.5), 1)
    assert u0[0, 0] == pytest.approx(0.5, rel=1e-6)
    u0 = init_point(obj, frobenius_ball(2.0), 1)
    assert u0[0, 0] == pytest.approx(1.0, rel=1e-6)


def test_init_feasible_on_generated_instances():
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=0)
    u0 = init_point(inst.objective, inst.constraint, inst.rank)
    assert u0.shape == (8, 1)
    assert inst.constraint.contains(u0)


@pytest.mark.parametrize("r", [0, 9])
def test_init_refuses_rank_out_of_range(r):
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=0)
    with pytest.raises(ValueError, match=f"rank r={r} out of range for n=8"):
        init_point(inst.objective, inst.constraint, r)


def test_fixed_step_solve_takes_one_eigendecomposition(monkeypatch):
    # Initialization reads X_0 and U_0 off one n x n eigh; the fixed step takes
    # the spectral norms of X_0 and grad f(X_0) from two n x n eigvalsh.
    inst = gen_qst(q=5, r=2, c_sam=2.0, noise_norm=1e-3, seed=0)
    n = inst.dim
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name] += np.shape(a) == (n, n)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    _, trace = projfgd_solve(inst, SolverConfig(rank=2, max_iters=5))
    assert trace.n_iters == 5
    assert calls == {"eigh": 1, "eigvalsh": 2}


def test_fixed_step_solve_takes_no_two_norm(monkeypatch):
    # Both stopping norms come from the eigenvalues of gram_rel_change's two
    # small cores, so no iteration calls np.linalg.norm(., 2), an SVD.
    inst = gen_qst(q=5, r=2, c_sam=2.0, noise_norm=1e-3, seed=0)
    orders = []
    original = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    _, trace = projfgd_solve(inst, SolverConfig(rank=2, max_iters=5))
    assert trace.n_iters == 5
    assert orders.count(None) >= 5  # the factored gradient norm, once per iteration
    assert orders.count(2) == 0


# ---------------------------------------------------------------------------
# step_size
# ---------------------------------------------------------------------------


def test_step_size_formula_instantiation():
    # rig L_hat = 1 and grad(x0) = 0: eta = C / (1 * ||x0||_2)
    ens = MeasurementEnsemble(np.eye(2)[None, :, :] / np.sqrt(2.0), np.array([np.sqrt(2.0)]), 0.0)
    obj = Objective(ens)
    obj._smoothness = 1.0
    x0 = np.eye(2)  # A(x0) = y so grad vanishes; ||x0||_2 = 1
    assert step_size(obj, x0, 1.0 / 128.0) == pytest.approx(1.0 / 128.0)
    # doubling both spectral norms halves eta
    x2 = 2.0 * np.eye(2)
    obj2 = Objective(MeasurementEnsemble(dense_stack(ens), np.array([2.0 * np.sqrt(2.0)]), 0.0))
    obj2._smoothness = 1.0
    assert step_size(obj2, x2, 1.0 / 128.0) == pytest.approx(1.0 / 256.0)


def test_step_size_matches_dense_recomputation():
    rng = np.random.default_rng(1)
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=1e-3, seed=1)
    obj = inst.objective
    for _ in range(5):
        g = rng.standard_normal((8, 8))
        x = 0.5 * (g + g.T)
        expected = (1.0 / 128.0) / (
            obj.smoothness() * np.max(np.abs(np.linalg.eigvalsh(x)))
            + np.max(np.abs(np.linalg.eigvalsh(obj.grad(x))))
        )
        assert step_size(obj, x) == pytest.approx(expected, rel=1e-10)


def test_step_size_zero_denominator():
    ens = MeasurementEnsemble(np.eye(2)[None, :, :], np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        step_size(Objective(ens), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# solve loop
# ---------------------------------------------------------------------------


def test_truth_is_fixed_point():
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=0.0, seed=2)
    cfg = SolverConfig(rank=2, max_iters=50, tol=5e-6)
    u, trace = projfgd_solve(inst, cfg, u0=inst.truth_factor)
    assert trace.status == "converged"
    assert trace.n_iters == 1
    assert np.array_equal(u, inst.truth_factor)


def test_fgd_single_hand_computed_iteration():
    # f(x) = (x - 1)^2, u0 = 0.5: eta = (1/16) / (2 * 0.25 + 1.5) = 1/32,
    # u1 = u0 - eta * 2 (u0^2 - 1) u0 = 0.5 + 0.75 / 32 = 0.5234375
    inst = scalar_instance(1.0)
    cfg = SolverConfig(rank=1, max_iters=1, tol=1e-15)
    u, trace = fgd_solve(inst, cfg, u0=np.array([[0.5]]))
    assert trace.step_eta == pytest.approx(1.0 / 32.0, rel=1e-6)
    assert u[0, 0] == pytest.approx(0.5234375, rel=1e-9)
    assert trace.status == "max_iters"


def test_fgd_equals_projfgd_when_unconstrained():
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=1e-3, seed=3)
    free = ProblemInstance(
        inst.objective, inst.truth_factor, unconstrained(), 3
    )
    cfg_p = SolverConfig(rank=2, max_iters=200, tol=1e-8, step_size_constant=1.0 / 16.0)
    cfg_f = SolverConfig(rank=2, max_iters=200, tol=1e-8)
    u_p, tr_p = projfgd_solve(free, cfg_p)
    u_f, tr_f = fgd_solve(free, cfg_f)
    assert np.array_equal(u_p, u_f)
    assert tr_p.objective == tr_f.objective


def test_projfgd_iterates_feasible():
    # max_iters=k yields the k-th iterate (deterministic), so feasibility
    # can be checked along the whole path
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=1e-2, seed=4)
    lam = inst.constraint.lam
    for k in (1, 2, 3, 5, 8, 13):
        cfg = SolverConfig(rank=2, max_iters=k, tol=1e-15)
        u, _ = projfgd_solve(inst, cfg)
        assert np.linalg.norm(u) <= lam + 1e-10


def test_xi_one_when_feasible():
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=0.0, seed=5)
    free = ProblemInstance(
        inst.objective, inst.truth_factor, unconstrained(), 5
    )
    cfg = SolverConfig(rank=2, max_iters=50, tol=1e-10)
    _, trace = projfgd_solve(free, cfg)
    assert all(x == 1.0 for x in trace.xi)
    assert all(0.0 < x <= 1.0 for x in trace.xi)


def test_solver_determinism():
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=6)
    cfg = SolverConfig(rank=1, max_iters=300, tol=5e-6, record_truth_dist=True)
    u1, t1 = projfgd_solve(inst, cfg)
    u2, t2 = projfgd_solve(inst, cfg)
    assert np.array_equal(u1, u2)
    assert t1.objective == t2.objective
    assert t1.rel_change == t2.rel_change
    assert t1.xi == t2.xi
    assert t1.dist == t2.dist


def test_divergence_status_on_nonfinite_start():
    inst = scalar_instance(1.0)
    cfg = SolverConfig(rank=1, max_iters=10, tol=1e-10)
    with np.errstate(over="ignore"):
        _, trace = fgd_solve(inst, cfg, u0=np.array([[1e200]]))
    assert trace.status == "diverged"


@pytest.mark.parametrize("solve", [projfgd_solve, fgd_solve])
@pytest.mark.parametrize("step_mode", ["fixed_from_init", "adaptive_per_iter"])
def test_zero_observations_converge_without_a_step(solve, step_mode):
    # y = 0 makes grad f(0) = 0, so X_0 = 0 and both step denominators
    # vanish: the solve stops at its fixed point instead of raising.
    inst = gen_synthetic(n=6, r=2, m=40, condition_number=2.0, noise_norm=0.0, seed=0)
    ens = inst.objective.ensemble
    inst = dataclasses.replace(
        inst, objective=Objective(MeasurementEnsemble(dense_stack(ens), np.zeros(ens.m)))
    )
    u, trace = solve(inst, SolverConfig(rank=2, step_mode=step_mode))
    assert trace.status == "converged"
    assert trace.n_iters == 0
    assert np.isnan(trace.step_eta)
    assert np.array_equal(u, np.zeros((6, 2)))


def test_rank_one_solve_matches_dense_twin(tmp_path):
    # The sensing-vector form and its materialized (m, n, n) stack run the
    # same iteration: same status and count, every trace column within 1e-9.
    inst = gen_phase_retrieval(n=16, sparsity=2, m=96, noise_norm=0.0, seed=2)
    ens = inst.objective.ensemble
    twin = dataclasses.replace(
        inst, objective=Objective(MeasurementEnsemble(dense_stack(ens), ens.y, ens.noise_norm))
    )
    assert isinstance(ens.operator, RankOne)
    assert isinstance(twin.objective.ensemble.operator, DenseStack)
    cfg = SolverConfig(rank=1, max_iters=3000, step_size_constant=0.5, record_truth_dist=True)
    _, fast = projfgd_solve(inst, cfg)
    _, dense = projfgd_solve(twin, cfg)
    assert fast.status == dense.status == "converged"
    assert fast.n_iters == dense.n_iters
    for column in ("objective", "rel_change", "xi", "dist", "grad_norm"):
        assert np.allclose(getattr(fast, column), getattr(dense, column), rtol=1e-9, atol=0.0), column
    assert fast.step_eta == pytest.approx(dense.step_eta, rel=1e-9)
    _, again = projfgd_solve(inst, cfg)
    write_trace_csv(fast, tmp_path / "a.csv")
    write_trace_csv(again, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_factored_loop_matches_dense_reference(name):
    # The factor-space loop against the n x n loop it replaced, on the
    # golden solve cases: same status and count, every column within 1e-9.
    doc = SOLVE_CASES[name]
    inst = build_instance(doc["problem"], doc["seed"])
    cfg, algorithm = build_solver_config(doc["solver"], rank=inst.rank)
    solve = fgd_solve if algorithm == "fgd" else projfgd_solve
    u, trace = solve(inst, cfg)
    u_ref, ref = dense_projfgd_reference(inst, cfg, fgd=algorithm == "fgd")
    assert trace.status == ref.status == "converged"
    assert trace.n_iters == ref.n_iters
    for column in ("objective", "rel_change", "xi", "dist", "grad_norm"):
        assert np.allclose(
            getattr(trace, column), getattr(ref, column), rtol=1e-9, atol=0.0, equal_nan=True
        ), column
    assert trace.initial_objective == pytest.approx(ref.initial_objective, rel=1e-9)
    assert trace.step_eta == pytest.approx(ref.step_eta, rel=1e-9)
    assert np.allclose(u, u_ref, rtol=1e-9, atol=1e-9 * np.linalg.norm(u_ref))


def test_rank_one_loop_makes_no_n_by_n_operator_call(monkeypatch):
    # apply/adjoint on n x n matrices happen only in the one-off steps
    # (L_hat, initialization, fixed step), so their count does not grow
    # with the number of iterations.
    calls = {"apply": 0, "adjoint": 0}
    for method in calls:
        original = getattr(MeasurementEnsemble, method)

        def counted(self, arg, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, arg)

        monkeypatch.setattr(MeasurementEnsemble, method, counted)

    counts = []
    for max_iters in (5, 50):
        for key in calls:
            calls[key] = 0
        inst = gen_phase_retrieval(n=16, sparsity=2, m=96, noise_norm=0.0, seed=2)
        _, trace = projfgd_solve(inst, SolverConfig(rank=1, max_iters=max_iters, step_size_constant=0.5))
        assert trace.n_iters == max_iters
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["apply"] > 0 and counts[0]["adjoint"] > 0


@pytest.mark.parametrize("step_mode", ["fixed_from_init", "adaptive_per_iter"])
def test_dense_loop_reads_the_operator_through_apply_and_adjoint(monkeypatch, step_mode):
    # A dense stack has no factored kernel: each apply_factored/adjoint_times
    # call makes exactly one MeasurementEnsemble.apply/adjoint call, so the
    # dense solve's operator work is seen on those two methods.
    calls = {"apply_factored": 0, "adjoint_times": 0, "apply": 0, "adjoint": 0}
    running = []  # factored primitives on the call stack

    def counted(name, original):
        def wrapper(self, *args):
            if name in ("apply_factored", "adjoint_times"):
                calls[name] += 1
                running.append(name)
                try:
                    return original(self, *args)
                finally:
                    running.pop()
            if running:
                calls[name] += 1
            return original(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(MeasurementEnsemble, name, counted(name, getattr(MeasurementEnsemble, name)))
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=0.0, seed=7)
    assert isinstance(inst.objective.ensemble.operator, DenseStack)
    cfg = SolverConfig(rank=2, max_iters=20, step_size_constant=0.5, step_mode=step_mode)
    _, trace = projfgd_solve(inst, cfg)
    assert trace.n_iters == 20
    assert calls["apply"] == calls["apply_factored"] == 21
    assert calls["adjoint"] == calls["adjoint_times"] == 20


def test_adaptive_step_mode_converges():
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=0.0, seed=7)
    cfg = SolverConfig(
        rank=2, max_iters=5000, tol=5e-6, step_mode="adaptive_per_iter",
        step_size_constant=0.25, record_truth_dist=True,
    )
    u, trace = projfgd_solve(inst, cfg)
    assert trace.status == "converged"
    assert procrustes_dist(u, inst.truth_factor) < 1e-3


def _basis_factor(name):
    rng = np.random.default_rng(11)
    real = rng.standard_normal((8, 3))
    cplx = real + 1j * rng.standard_normal((8, 3))
    return {
        "real": real,
        "complex": cplx,
        "zero_column": np.column_stack([real[:, :2], np.zeros(8)]),
        "repeated_column": np.column_stack([cplx[:, :2], cplx[:, 1]]),
        "zero_factor": np.zeros((8, 3)),
        "two_r_exceeds_n": cplx[:5],
        "r_exceeds_n": real[:2],
        "r_one": cplx[:, :1],
    }[name]


@pytest.mark.parametrize(
    "name",
    ["real", "complex", "zero_column", "repeated_column", "zero_factor",
     "two_r_exceeds_n", "r_exceeds_n", "r_one"],
)
def test_adaptive_step_basis_matches_scipy_orth(name):
    # The step's Q_U against scipy.linalg.orth, the reference it replaced:
    # same rank cut (column count) and the same projector Q Q^H to 1e-12.
    class Recorder:
        def adjoint_times(self, z, v):
            self.v = v
            return np.zeros_like(v)

    u = _basis_factor(name)
    ens = Recorder()
    _adaptive_step(ens, 1.0, u, np.zeros(3), PROJFGD_STEP_CONSTANT)
    q = ens.v[:, u.shape[1]:]
    ref = scipy.linalg.orth(u)
    assert q.shape == ref.shape
    assert np.allclose(q @ q.conj().T, ref @ ref.conj().T, rtol=0.0, atol=1e-12)


def test_adaptive_step_rejects_a_nan_factor():
    class Unused:
        def adjoint_times(self, z, v):
            raise AssertionError("basis built from a NaN factor")

    u = np.ones((4, 2))
    u[0, 0] = np.nan
    with pytest.raises(ValueError):
        _adaptive_step(Unused(), 1.0, u, np.zeros(3), PROJFGD_STEP_CONSTANT)


def test_stopping_rule_is_spectral():
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=0.0, seed=8)
    cfg = SolverConfig(rank=2, max_iters=400, tol=5e-6, step_size_constant=0.5)
    u, trace = projfgd_solve(inst, cfg)
    assert trace.status == "converged"
    assert trace.rel_change[-1] <= 5e-6
    # recompute the final stopping quantity from the last two iterates
    cfg_prev = SolverConfig(rank=2, max_iters=trace.n_iters - 1, tol=1e-15, step_size_constant=0.5)
    u_prev, _ = projfgd_solve(inst, cfg_prev)
    x, x_prev = u @ u.T, u_prev @ u_prev.T
    expected = spectral_norm(x - x_prev) / spectral_norm(x)
    assert trace.rel_change[-1] == pytest.approx(expected, rel=1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=1, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, step_size_constant=2.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, step_mode="warp")


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------


def test_trace_csv_format_and_determinism(tmp_path):
    inst = gen_synthetic(n=8, r=2, m=60, condition_number=2.0, noise_norm=1e-3, seed=9)
    cfg = SolverConfig(rank=2, max_iters=100, tol=1e-6, record_truth_dist=True)
    _, trace = projfgd_solve(inst, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    write_trace_csv(trace, p2)
    data1, data2 = p1.read_bytes(), p2.read_bytes()
    assert data1 == data2
    lines = data1.decode().strip().split("\n")
    assert lines[0] == "iter,objective,rel_change,xi,dist,grad_norm"
    assert len(lines) == trace.n_iters + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == trace.objective[0]  # repr round-trips exactly


def test_trace_csv_empty_dist_column(tmp_path):
    inst = gen_synthetic(n=6, r=1, m=30, condition_number=1.0, noise_norm=0.0, seed=10)
    cfg = SolverConfig(rank=1, max_iters=20, tol=1e-6)
    _, trace = projfgd_solve(inst, cfg)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    row = path.read_text().strip().split("\n")[1].split(",")
    assert row[4] == ""


def test_summary_json(tmp_path):
    inst = gen_synthetic(n=6, r=1, m=30, condition_number=1.0, noise_norm=0.0, seed=11)
    cfg = SolverConfig(rank=1, max_iters=2000, tol=5e-6, step_size_constant=0.5)
    u, trace = projfgd_solve(inst, cfg)
    summary = summary_dict(trace, final_rel_error=0.5, tol=cfg.tol, seed=11)
    path = tmp_path / "summary.json"
    write_summary_json(summary, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "status", "iters", "final_objective", "final_rel_error", "tol", "seed", "elapsed_ms",
    }
    assert doc["status"] == "converged"
    assert doc["tol"] == 5e-6


def test_trace_callback_stream():
    inst = gen_synthetic(n=6, r=1, m=30, condition_number=1.0, noise_norm=0.0, seed=12)
    cfg = SolverConfig(rank=1, max_iters=50, tol=5e-6)
    seen = []
    _, trace = projfgd_solve(inst, cfg, callback=seen.append)
    assert len(seen) == trace.n_iters
    assert [rec["iter"] for rec in seen] == trace.iters
    assert [rec["objective"] for rec in seen] == trace.objective
    # Every callback row is the trace row, on all six columns (nan dist included).
    assert all(tuple(rec) == TRACE_COLUMNS for rec in seen)
    series = (trace.iters, trace.objective, trace.rel_change, trace.xi, trace.dist, trace.grad_norm)
    for column, values in zip(TRACE_COLUMNS, series, strict=True):
        np.testing.assert_array_equal([rec[column] for rec in seen], values)
