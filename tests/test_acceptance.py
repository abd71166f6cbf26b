"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np

from fpgd.cli import main as cli_main
from fpgd.diagnostics import (
    check_contraction,
    check_descent_lemma,
    check_init_bound,
    check_tu_inequality,
    check_xi_bound,
    fd_factored_gradient,
    fd_gradient,
    relative_error,
)
from fpgd.linalg import factor_from_psd, project_frobenius_ball, project_l1_ball, trace_inner
from fpgd.problems import gen_qst, gen_synthetic
from fpgd.solver import SolverConfig, projfgd_solve
from oracles import grid_l1_project

XI_FLOOR = 128.0 / 129.0 - 1e-9
QST_STEP_CONSTANT = 0.5  # recovery-experiment step constant; see README


def _report(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _qst_solve_error(q, c_sam, seed, noise=1e-3):
    inst = gen_qst(q=q, r=1, c_sam=c_sam, noise_norm=noise, seed=seed)
    cfg = SolverConfig(rank=1, max_iters=5000, tol=5e-6, step_size_constant=QST_STEP_CONSTANT)
    u, trace = projfgd_solve(inst, cfg)
    assert trace.status == "converged"
    return relative_error(u @ u.conj().T, inst.truth_x)


def test_criterion_01_qst_reproduction():
    t0 = time.perf_counter()
    errs = np.array([_qst_solve_error(6, 3.0, seed) for seed in range(10)])
    elapsed = time.perf_counter() - t0
    median, best = float(np.median(errs)), float(errs.min())
    ok = median <= 1e-3 and best <= 1e-4 and elapsed < 30.0
    _report(
        1,
        ok,
        f"q=6 C_sam=3 noise 1e-3: median rel error {median:.3e} (<= 1e-3), "
        f"best {best:.3e} (<= 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_sampling_trend():
    t0 = time.perf_counter()
    medians = []
    for c_sam in (3.0, 6.0, 10.0):
        errs = [_qst_solve_error(6, c_sam, 100 + s) for s in range(5)]
        medians.append(float(np.median(errs)))
    elapsed = time.perf_counter() - t0
    weakly_decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(medians, medians[1:]))
    ok = weakly_decreasing and elapsed < 60.0
    _report(
        2,
        ok,
        f"q=6 medians across C_sam 3/6/10: "
        + " >= ".join(f"{m:.3e}" for m in medians)
        + f", {elapsed:.1f}s (< 60s)",
    )


def _contraction_instance(seed):
    return gen_synthetic(n=32, r=2, m=6 * 2 * 32, condition_number=2.0, noise_norm=0.0, seed=seed)


def test_criterion_03_projfgd_contraction():
    t0 = time.perf_counter()
    violations = steps = 0
    for seed in range(50):
        report = check_contraction(_contraction_instance(seed), "projfgd", iters=150)
        violations += report.violations
        steps += report.trials
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(
        3,
        ok,
        f"50 instances (n=32, r=2, tau=2), alpha constant 550: "
        f"{violations} violations over {steps} in-radius steps, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_fgd_contraction():
    t0 = time.perf_counter()
    violations = steps = 0
    for seed in range(50):
        report = check_contraction(_contraction_instance(seed), "fgd", iters=150)
        violations += report.violations
        steps += report.trials
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(
        4,
        ok,
        f"unconstrained baseline, alpha constant 64: "
        f"{violations} violations over {steps} in-radius steps, {elapsed:.1f}s",
    )


def test_criterion_05_xi_lower_bound():
    # tighten the ball below ||U*||_F so the solve rides the boundary and
    # the projection genuinely fires; the bound itself needs only feasible
    # iterates and the adaptive step, not a feasible truth
    import dataclasses

    from fpgd.problems import frobenius_ball

    fired = violations = 0
    worst = 1.0
    for seed in range(50):
        inst = gen_synthetic(
            n=24, r=2, m=6 * 2 * 24, condition_number=2.0, noise_norm=1e-3, seed=seed
        )
        inst = dataclasses.replace(inst, constraint=frobenius_ball(0.8))
        report = check_xi_bound(inst, iters=300)
        fired += report.context["fired"]
        violations += report.violations
        if report.trials:
            worst = min(worst, report.worst_margin + 128.0 / 129.0)
    ok = violations == 0 and fired > 0
    _report(
        5,
        ok,
        f"50 Frobenius-constrained adaptive runs: projection fired {fired} times, "
        f"min xi {worst:.9f} >= 128/129 - 1e-9 = {XI_FLOOR:.9f}, {violations} violations",
    )


def test_criterion_06_descent_lemma():
    trials = violations = skipped = 0
    worst = np.inf
    for k in range(4):
        inst = gen_synthetic(
            n=24, r=2, m=6 * 2 * 24, condition_number=2.0, noise_norm=0.0, seed=200 + k
        )
        report = check_descent_lemma(inst, trials=50, seed=300 + k)
        trials += report.trials
        violations += report.violations
        skipped += report.skipped
        worst = min(worst, report.worst_margin)
    ok = trials == 200 and violations == 0
    _report(
        6,
        ok,
        f"{trials} in-hypothesis trials ({skipped} skipped): {violations} violations, "
        f"worst margin {worst:.3e} >= -1e-9 (relative-scaled)",
    )


def test_criterion_07_tu_inequality():
    total = violations = 0
    for r in (1, 2, 3):
        report = check_tu_inequality(r=r, seed=400 + r)
        total += report.trials
        violations += report.violations
    ok = violations == 0 and total == 3000
    _report(7, ok, f"{total} random factor pairs (n=10, r in 1..3): {violations} violations")


def test_criterion_08_projection_oracles():
    rng = np.random.default_rng(500)
    worst = np.inf
    for _ in range(10):
        v = rng.standard_normal((6, 2)) * 3.0
        pf, _ = project_frobenius_ball(v, 1.0)
        pl = project_l1_ball(v, 1.0)
        for _ in range(100):
            w = rng.standard_normal((6, 2))
            uf = w * (rng.uniform(0, 1) / np.linalg.norm(w))
            worst = min(worst, trace_inner(pf - uf, v - pf))
            ul = w * (rng.uniform(0, 1) / np.abs(w).sum())
            worst = min(worst, trace_inner(pl - ul, v - pl))
    variational_ok = worst >= -1e-10

    grid_gap = 0.0
    for d in (2, 3):
        for k in range(10):
            v = rng.standard_normal(d) * 1.5
            gap = float(np.max(np.abs(project_l1_ball(v, 1.0) - grid_l1_project(v, 1.0))))
            grid_gap = max(grid_gap, gap)
    grid_ok = grid_gap <= 1e-4
    ok = variational_ok and grid_ok
    _report(
        8,
        ok,
        f"variational margins >= {worst:.2e} (>= -1e-10); "
        f"l1 vs grid-QP oracle max gap {grid_gap:.2e} (<= 1e-4)",
    )


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(600)
    instances = [
        gen_synthetic(n=5, r=2, m=24, condition_number=2.0, noise_norm=1e-3, seed=601),
        gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=602),
    ]
    worst = 0.0
    points = 0
    for inst in instances:
        obj = inst.objective
        n = obj.dim
        complex_field = obj.ensemble.field == "complex"
        for _ in range(25):
            g = rng.standard_normal((n, n))
            if complex_field:
                g = g + 1j * rng.standard_normal((n, n))
            x = 0.5 * (g + g.conj().T)
            grad = obj.grad(x)
            rel_x = np.linalg.norm(fd_gradient(obj, x) - grad) / np.linalg.norm(grad)
            u = rng.standard_normal((n, inst.rank))
            if complex_field:
                u = u + 1j * rng.standard_normal((n, inst.rank))
            gu = obj.factored_grad(u)
            rel_u = np.linalg.norm(fd_factored_gradient(obj, u) / 2.0 - gu) / np.linalg.norm(gu)
            worst = max(worst, rel_x, rel_u)
            points += 1
    ok = worst <= 1e-6 and points == 50
    _report(9, ok, f"{points} random points: worst FD relative error {worst:.2e} (<= 1e-6)")


def test_criterion_10_init_bound():
    checked = skipped = failed = 0
    for k, (n, tau) in enumerate(
        (n, tau) for n in (8, 10, 12) for tau in (1.2, 1.5, 2.0)
    ):
        inst = gen_synthetic(n=n, r=n, m=8 * n * n, condition_number=tau, noise_norm=0.0, seed=700 + k)
        result = check_init_bound(inst)
        if result["vacuous"]:
            skipped += 1
            continue
        checked += 1
        if not result["satisfied"]:
            failed += 1
    ok = failed == 0 and checked > 0
    _report(
        10,
        ok,
        f"full-rank instances: {checked} nonvacuous all satisfied ({failed} failures), "
        f"{skipped} vacuous skipped",
    )


def test_criterion_11_faithfulness_mapping():
    rng = np.random.default_rng(800)
    worst_trace = -np.inf
    for _ in range(100):
        u = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        u *= rng.uniform(0, 1) / np.linalg.norm(u)
        worst_trace = max(worst_trace, float(np.trace(u @ u.conj().T).real))
    forward_ok = worst_trace <= 1.0 + 1e-12

    worst_norm = -np.inf
    for _ in range(100):
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = g @ g.conj().T
        x *= rng.uniform(0.2, 1.0) / np.trace(x).real
        top = factor_from_psd(x)[:, :2]
        worst_norm = max(worst_norm, float(np.linalg.norm(top) ** 2))
    converse_ok = worst_norm <= 1.0 + 1e-12
    ok = forward_ok and converse_ok
    _report(
        11,
        ok,
        f"||U||_F^2 <= 1 => trace <= {worst_trace:.12f}; "
        f"trace-feasible tops have ||U||_F^2 <= {worst_norm:.12f}",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w") as fh:
        json.dump(
            {
                "seed": 42,
                "problem": {"kind": "qst", "q": 4, "r": 1, "c_sam": 3.0, "noise": 1e-3},
                "solver": {"tol": 5e-6, "step_size_constant": QST_STEP_CONSTANT,
                           "record_truth_dist": True},
            },
            fh,
        )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(12, ok, f"two runs of one (config, seed): trace CSVs byte-identical "
                    f"({len(outs[0])} bytes)")
