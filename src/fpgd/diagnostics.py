"""Numeric checkers for the solver's convergence guarantees.

Each quantitative claim gets a standalone evaluator that measures the
inequality margin on concrete instances and reports violations, where a
violation means margin < -tol.  The descent and TU checks take
tol = 1e-9 + 1e-9 * scale with scale the largest participating term
(absolute-plus-relative, so they are not scale-fragile); the others pin an
exact tol.  Out-of-hypothesis trials are skipped and counted, never
asserted.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    gaussian,
    procrustes_align,
    procrustes_dist,
    project_frobenius_ball,
    project_l1_ball,
    psd_project,
    trace_inner,
)
from .problems import frobenius_ball, gen_qst, gen_synthetic, unconstrained
from .solver import (
    PROJFGD_STEP_CONSTANT,
    SolverConfig,
    _adaptive_step,
    _step_denominator,
    fgd_solve,
    init_point,
    projfgd_solve,
)

__all__ = [
    "LemmaReport",
    "MARGIN_ABS_TOL",
    "relative_error",
    "fd_gradient",
    "fd_factored_gradient",
    "descent_lemma_margin",
    "check_descent_lemma",
    "check_tu_inequality",
    "fit_contraction",
    "contraction_alpha",
    "contraction_radius",
    "perturb_within_radius",
    "check_contraction",
    "check_xi_bound",
    "check_init_bound",
    "run_suite",
    "SUITE_NAMES",
]

MARGIN_ABS_TOL = 1e-9
MARGIN_REL_TOL = 1e-9
THEOREM_RADIUS_C = 1.0 / 200.0
PROJFGD_ALPHA_CONSTANT = 550.0
FGD_ALPHA_CONSTANT = 64.0
XI_LOWER_BOUND = 1.0 / (1.0 + PROJFGD_STEP_CONSTANT)  # 128/129
_FD_STEP = 1e-5  # the central-difference step of fd_gradient and fd_factored_gradient
_PERTURB_FRACTION = 0.9  # perturb_within_radius: the share of the radius a start lies at
TU_TRIALS = 1000  # check_tu_inequality: random factor pairs per check
TU_DIM = 10  # check_tu_inequality: rows n of each factor


@dataclass
class LemmaReport:
    """Outcome of a batch of inequality trials."""

    name: str
    trials: int = 0
    violations: int = 0
    skipped: int = 0
    worst_margin: float = float("inf")
    context: dict = field(default_factory=dict)

    def record(self, margin, tol):
        # one trial; a margin below -tol is a violation
        self.trials += 1
        self.worst_margin = min(self.worst_margin, margin)
        if margin < -tol:
            self.violations += 1

    def to_json_dict(self):
        worst = self.worst_margin
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "skipped": self.skipped,
            "worst_margin": None if np.isinf(worst) else worst,
            "context": self.context,
        }


def relative_error(xhat, xstar):
    """Frobenius relative error ||xhat - xstar||_F / ||xstar||_F."""
    xhat = np.asarray(xhat)
    xstar = np.asarray(xstar)
    if xhat.shape != xstar.shape:
        raise ValueError(f"shape mismatch: {xhat.shape} vs {xstar.shape}")
    denom = float(np.linalg.norm(xstar))
    if denom == 0.0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(xhat - xstar)) / denom


def _truth_singular_values(instance):
    return np.linalg.svd(instance.truth_factor, compute_uv=False)


def descent_lemma_margin(instance, u):
    """Margin of the constrained descent inequality at factor ``u``:

        2 eta <grad f(X) U, U - U* R> + ||U_+ - Utilde_+||_F^2
          - eta^2 ||grad f(X) U||_F^2
          - (3 eta mu / 10) sigma_r(X*) Dist(U, U*)^2   >= 0 (margin)

    with eta the per-iteration analysis step and R the Procrustes
    rotation.  Returns (margin, scale, dist).
    """
    obj = instance.objective
    u = np.asarray(u)
    ens = obj.ensemble
    z = 2.0 * (ens.apply_factored(u) - ens.y)
    eta, gu = _adaptive_step(ens, obj.smoothness(), u, z, PROJFGD_STEP_CONSTANT)
    if eta is None:
        raise ValueError("zero step denominator")
    u_tilde = u - eta * gu
    u_next, _ = instance.constraint.project(u_tilde)
    dist, rot = procrustes_align(u, instance.truth_factor)
    sigma_r_x = float(_truth_singular_values(instance)[instance.rank - 1] ** 2)

    lhs_inner = 2.0 * eta * trace_inner(gu, u - instance.truth_factor @ rot)
    lhs_proj = float(np.linalg.norm(u_next - u_tilde) ** 2)
    rhs_grad = eta**2 * float(np.linalg.norm(gu) ** 2)
    rhs_dist = (3.0 * eta * obj.strong_convexity(instance.rank) / 10.0) * sigma_r_x * dist**2
    margin = lhs_inner + lhs_proj - rhs_grad - rhs_dist
    scale = max(abs(lhs_inner), lhs_proj, rhs_grad, rhs_dist)
    return margin, scale, dist


def contraction_radius(instance):
    """Contraction-region radius rho' sigma_r(U*) with
    rho' = c (mu/L) (sigma_r(X*) / sigma_1(X*)), c = 1/200."""
    obj = instance.objective
    s = _truth_singular_values(instance)
    mu_over_l = obj.strong_convexity(instance.rank) / obj.smoothness()
    rho = THEOREM_RADIUS_C * mu_over_l * (s[instance.rank - 1] ** 2 / s[0] ** 2)
    return float(rho * s[instance.rank - 1])


def perturb_within_radius(instance, radius, rng):
    """Feasible factor at distance <= _PERTURB_FRACTION * radius from the truth.

    Projection onto the constraint set never increases the Procrustes
    distance to the (feasible) truth, so the returned point stays inside
    the requested ball.
    """
    u_star = instance.truth_factor
    delta = gaussian(rng, u_star.shape, np.iscomplexobj(u_star))
    delta *= _PERTURB_FRACTION * radius / np.linalg.norm(delta)
    u0, _ = instance.constraint.project(u_star + delta)
    return u0


def check_descent_lemma(instance, trials, seed):
    """Sample random feasible points around the truth inside the theorem
    radius and evaluate the descent inequality.

    Points falling outside the radius after projection are skipped and
    counted; the lemma asserts nothing there.
    """
    obj = instance.objective
    radius = contraction_radius(instance)
    center = instance.truth_factor
    rng = np.random.default_rng(seed)
    report = LemmaReport(
        "descent_lemma",
        context={"radius": radius, "mu_hat": obj.strong_convexity(instance.rank),
                 "l_hat": obj.smoothness(), "seed": seed},
    )
    for _ in range(trials):
        delta = gaussian(rng, center.shape, np.iscomplexobj(center))
        delta *= rng.uniform(0.0, 1.0) * radius / np.linalg.norm(delta)
        point, _ = instance.constraint.project(center + delta)
        if procrustes_dist(point, instance.truth_factor) > radius:
            report.skipped += 1
            continue
        margin, scale, _ = descent_lemma_margin(instance, point)
        report.record(margin, MARGIN_ABS_TOL + MARGIN_REL_TOL * scale)
    return report


def check_tu_inequality(r, seed, complex_field=False):
    """Factorization-distance inequality
    ||U U^H - V V^H||_F^2 >= 2 (sqrt(2) - 1) sigma_r(U)^2 Dist(U, V)^2
    over TU_TRIALS random pairs of TU_DIM x r factors."""
    rng = np.random.default_rng(seed)
    const = 2.0 * (np.sqrt(2.0) - 1.0)
    n = TU_DIM
    report = LemmaReport("tu_inequality", context={"n": n, "r": r, "seed": seed})
    for _ in range(TU_TRIALS):
        u = rng.standard_normal((n, r))
        v = rng.standard_normal((n, r))
        if complex_field:
            u = u + 1j * rng.standard_normal((n, r))
            v = v + 1j * rng.standard_normal((n, r))
        lhs = float(np.linalg.norm(u @ u.conj().T - v @ v.conj().T) ** 2)
        sigma_r = float(np.linalg.svd(u, compute_uv=False)[r - 1])
        rhs = const * sigma_r**2 * procrustes_dist(u, v) ** 2
        report.record(lhs - rhs, MARGIN_ABS_TOL + MARGIN_REL_TOL * max(lhs, rhs))
    return report


def fit_contraction(trace, radius=None):
    """Largest per-step ratio Dist_{t+1}^2 / Dist_t^2 over steps starting
    inside ``radius`` (all steps when None).

    Ratios are taken net of an absolute floor ``MARGIN_ABS_TOL`` on the squared
    distances, so a converged (machine-noise) tail fits as 0 rather than
    as ratio-one stagnation; an exactly-zero tail returns 0 by convention.
    """
    dists = trace.dist_series()
    if any(np.isnan(d) for d in dists):
        raise ValueError("trace did not record distances to the truth")
    worst = None
    for d0, d1 in zip(dists[:-1], dists[1:]):
        if radius is not None and d0 > radius:
            continue
        excess = max(d1**2 - MARGIN_ABS_TOL, 0.0)
        if d0 == 0.0:
            ratio = 0.0 if excess == 0.0 else float("inf")
        else:
            ratio = excess / d0**2
        worst = ratio if worst is None else max(worst, ratio)
    if worst is None:
        raise ValueError("no in-radius iterations in trace")
    return float(worst)


def contraction_alpha(instance, constant):
    """alpha = 1 - mu sigma_r(X*) / (constant (L ||X*||_2 + ||grad f(X*)||_2));
    constant 550 for the projected solver, 64 for the unconstrained one."""
    obj = instance.objective
    sigma_r_x = float(_truth_singular_values(instance)[instance.rank - 1] ** 2)
    denom = _step_denominator(obj, instance.truth_x)
    return 1.0 - obj.strong_convexity(instance.rank) * sigma_r_x / (constant * denom)


def check_contraction(instance, algorithm, iters=150):
    """Run a solve from a start drawn with ``instance.seed`` inside the theorem
    radius and test every in-radius step for Dist_{t+1}^2 <= alpha Dist_t^2 + 1e-9."""
    # Looked up per call, so a wrapped module-level solve function is the one run.
    runs = {
        "projfgd": (projfgd_solve, "adaptive_per_iter", PROJFGD_ALPHA_CONSTANT),
        "fgd": (fgd_solve, "fixed_from_init", FGD_ALPHA_CONSTANT),
    }
    if algorithm not in runs:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    solve, step_mode, alpha_constant = runs[algorithm]
    radius = contraction_radius(instance)
    u0 = perturb_within_radius(instance, radius, np.random.default_rng(instance.seed))
    cfg = SolverConfig(
        max_iters=iters,
        tol=1e-14,
        step_mode=step_mode,
        record_truth_dist=True,
    )
    _, trace = solve(instance, cfg, u0=u0)
    alpha = contraction_alpha(instance, alpha_constant)

    report = LemmaReport(
        f"contraction_{algorithm}",
        context={"alpha": alpha, "radius": radius, "seed": instance.seed, "steps": trace.n_iters},
    )
    dists = trace.dist_series()
    for d0, d1 in zip(dists[:-1], dists[1:]):
        if d0 > radius:
            report.skipped += 1
            continue
        # violation iff Dist_{t+1}^2 > alpha Dist_t^2 + 1e-9 exactly
        report.record(alpha * d0**2 - d1**2, tol=MARGIN_ABS_TOL)
    return report


def check_xi_bound(instance, iters=400):
    """Frobenius-ball scaling factors: every iteration where the
    projection fires must have xi >= 1/(1 + C) = 128/129 (adaptive step)."""
    if instance.constraint.kind != "frobenius_ball":
        raise ValueError("xi bound is asserted only for the Frobenius-ball constraint")
    cfg = SolverConfig(
        max_iters=iters,
        tol=1e-12,
        step_mode="adaptive_per_iter",
        record_truth_dist=False,
    )
    _, trace = projfgd_solve(instance, cfg)
    report = LemmaReport("xi_bound", context={"seed": instance.seed, "steps": trace.n_iters})
    for x in trace.xi:
        if x >= 1.0:
            report.skipped += 1
            continue
        report.record(x - XI_LOWER_BOUND, tol=MARGIN_ABS_TOL)
    report.context["fired"] = report.trials
    return report


def check_init_bound(instance):
    """Initialization quality on a full-rank instance:
    Dist(U_0, U*) <= rho' sigma_r(U*) with
    rho' = sqrt((1 - mu/L) / (2 (sqrt2 - 1))) tau(U*)^2 sqrt(srank(X*)).

    Returns a dict; ``vacuous`` flags bounds weaker than the triangle
    inequality, which carry no information and are skipped by callers.
    """
    n = instance.dim
    if instance.rank != n:
        raise ValueError("initialization bound applies to the full-rank case")
    obj = instance.objective
    s = _truth_singular_values(instance)
    tau_u = s[0] / s[-1]
    srank = float(np.linalg.norm(s**2)) / s[0] ** 2  # ||X*||_F / ||X*||_2, X* = U* U*^H
    ratio = min(obj.strong_convexity(n) / obj.smoothness(), 1.0)
    rho = np.sqrt((1.0 - ratio) / (2.0 * (np.sqrt(2.0) - 1.0))) * tau_u**2 * np.sqrt(srank)
    bound = float(rho * s[-1])
    _, u0 = init_point(obj, unconstrained(), n)
    dist = procrustes_dist(u0, instance.truth_factor)
    vacuous = bound >= float(np.linalg.norm(u0) + np.linalg.norm(instance.truth_factor))
    return {
        "dist": dist,
        "bound": bound,
        "vacuous": bool(vacuous),
        "satisfied": bool(dist <= bound + MARGIN_ABS_TOL),
    }


# ---------------------------------------------------------------------------
# Named verification suites (shared by the CLI `verify` command).
# ---------------------------------------------------------------------------


def _suite_projections(seed):
    rng = np.random.default_rng(seed)
    rep_f = LemmaReport("variational_frobenius")
    rep_l = LemmaReport("variational_l1")
    rep_p = LemmaReport("variational_psd")
    for _ in range(20):
        v = rng.standard_normal((8, 3)) * 2.0
        lam = 1.0
        pf, _ = project_frobenius_ball(v, lam)
        pl = project_l1_ball(v, lam)
        for _ in range(100):
            w = rng.standard_normal((8, 3))
            uf = w * (lam * rng.uniform(0, 1) / np.linalg.norm(w))
            rep_f.record(trace_inner(pf - uf, v - pf), tol=1e-10)
            ul = w * (lam * rng.uniform(0, 1) / np.abs(w).sum())
            rep_l.record(trace_inner(pl - ul, v - pl), tol=1e-10)
        h = rng.standard_normal((6, 6))
        h = 0.5 * (h + h.T)
        ph = psd_project(h)
        for _ in range(100):
            g = rng.standard_normal((6, 3))
            rep_p.record(trace_inner(ph - g @ g.T, h - ph), tol=1e-10)
    return [rep_f, rep_l, rep_p]


def _suite_procrustes(seed):
    rng = np.random.default_rng(seed)
    rep_sym = LemmaReport("dist_symmetry")
    rep_rot = LemmaReport("dist_rotation_invariance")
    for _ in range(200):
        u = rng.standard_normal((7, 3))
        v = rng.standard_normal((7, 3))
        rep_sym.record(-abs(procrustes_dist(u, v) - procrustes_dist(v, u)), tol=1e-10)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rep_rot.record(-abs(procrustes_dist(u @ q, v) - procrustes_dist(u, v)), tol=1e-9)
    return [rep_sym, rep_rot]


def _hermitian_basis(n, complex_field):
    # Orthonormal under <A, B> = Re trace(A^H B).
    basis = []
    dtype = complex if complex_field else float
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        b = np.zeros((n, n), dtype=dtype)
        b[i, i] = 1.0
        basis.append(b)
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=dtype)
            b[i, j] = inv_sqrt2
            b[j, i] = inv_sqrt2
            basis.append(b)
            if complex_field:
                b = np.zeros((n, n), dtype=complex)
                b[i, j] = -1j * inv_sqrt2
                b[j, i] = 1j * inv_sqrt2
                basis.append(b)
    return basis


def fd_gradient(obj, x):
    """Central-difference gradient of f on the Hermitian manifold,
    assembled from an orthonormal Hermitian direction basis.  Uses only
    objective values, so it is an independent oracle for ``grad``."""
    x = np.asarray(x)
    complex_field = obj.ensemble.field == "complex"
    fd = np.zeros_like(x, dtype=complex if complex_field else float)
    for b in _hermitian_basis(obj.dim, complex_field):
        d = (obj.value(x + _FD_STEP * b) - obj.value(x - _FD_STEP * b)) / (2.0 * _FD_STEP)
        fd = fd + d * b
    return fd


def fd_factored_gradient(obj, u):
    """Central-difference Euclidean gradient of g(U) = f(U U^H) over the
    real coordinates of U.  Equals twice the factored gradient the solver
    applies (the lifted-objective chain rule carries a factor 2)."""
    u = np.asarray(u)
    complex_field = np.iscomplexobj(u)
    fd = np.zeros_like(u, dtype=complex if complex_field else float)
    units = (1.0, 1j) if complex_field else (1.0,)

    def g(mat):
        x = mat @ mat.conj().T
        return obj.value(0.5 * (x + x.conj().T))

    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            for unit in units:
                e = np.zeros_like(fd)
                e[i, j] = unit
                d = (g(u + _FD_STEP * e) - g(u - _FD_STEP * e)) / (2.0 * _FD_STEP)
                fd = fd + d * e
    return fd


def _suite_gradients(seed):
    rng = np.random.default_rng(seed)
    inst_r = gen_synthetic(n=6, r=2, m=30, condition_number=2.0, noise_norm=1e-3, seed=seed)
    inst_c = gen_qst(q=2, r=1, c_sam=2.5, noise_norm=1e-3, seed=seed)
    rep_x = LemmaReport("gradient_fd_matrix")
    rep_u = LemmaReport("gradient_fd_factored")
    for inst in (inst_r, inst_c):
        obj = inst.objective
        n = obj.dim
        complex_field = obj.ensemble.field == "complex"
        for _ in range(10):
            g = gaussian(rng, (n, n), complex_field)
            x = 0.5 * (g + g.conj().T)
            rep_x.record(1e-6 - relative_error(fd_gradient(obj, x), obj.grad(x)), tol=0.0)
            u = gaussian(rng, (n, inst.rank), complex_field)
            rel_u = relative_error(fd_factored_gradient(obj, u) / 2.0, obj.factored_grad(u))
            rep_u.record(1e-6 - rel_u, tol=0.0)
    return [rep_x, rep_u]


def _suite_tu(seed):
    return [check_tu_inequality(r, seed + r) for r in (1, 2, 3)]


def _descent_instance(seed, noise=0.0):
    return gen_synthetic(n=24, r=2, m=int(6 * 2 * 24), condition_number=2.0, noise_norm=noise, seed=seed)


def _suite_descent(seed):
    reports = []
    for k in range(2):
        inst = _descent_instance(seed + k)
        reports.append(check_descent_lemma(inst, trials=100, seed=seed + 10 + k))
    # noisy variant: reported for context, not counted toward the exit code
    noisy = check_descent_lemma(_descent_instance(seed + 99, noise=1e-3), trials=50, seed=seed)
    noisy.name = "descent_lemma_noisy_advisory"
    noisy.context["advisory"] = True
    reports.append(noisy)
    return reports


def _contraction_instance(seed):
    return gen_synthetic(n=32, r=2, m=int(6 * 2 * 32), condition_number=2.0, noise_norm=0.0, seed=seed)


def _suite_contraction(seed):
    reports = []
    for k in range(5):
        inst = _contraction_instance(seed + k)
        reports.append(check_contraction(inst, "projfgd"))
        reports.append(check_contraction(inst, "fgd"))
    return reports


def _suite_xi(seed):
    reports = []
    for k in range(10):
        inst = gen_synthetic(n=24, r=2, m=288, condition_number=2.0, noise_norm=1e-3, seed=seed + k)
        # tightened ball: the optimum sits outside, so the projection fires
        inst = replace(inst, constraint=frobenius_ball(0.8))
        reports.append(check_xi_bound(inst))
    return reports


def _suite_init(seed):
    rep = LemmaReport("init_bound")
    for k in range(10):
        n = 10 + 2 * (k % 3)
        inst = gen_synthetic(
            n=n, r=n, m=8 * n * n, condition_number=1.5, noise_norm=0.0, seed=seed + k
        )
        result = check_init_bound(inst)
        if result["vacuous"]:
            rep.skipped += 1
            continue
        rep.record(result["bound"] - result["dist"], tol=MARGIN_ABS_TOL)
    return [rep]


_SUITES = {
    "projections": _suite_projections,
    "procrustes": _suite_procrustes,
    "gradients": _suite_gradients,
    "tu": _suite_tu,
    "descent": _suite_descent,
    "contraction": _suite_contraction,
    "xi": _suite_xi,
    "init": _suite_init,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name, seed):
    """Run a named verification suite; returns a JSON-ready report with
    the total violation count over in-hypothesis (non-advisory) trials."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    reports = _SUITES[name](seed)
    counted = [r for r in reports if not r.context.get("advisory")]
    return {
        "suite": name,
        "seed": seed,
        "violations": int(sum(r.violations for r in counted)),
        "reports": [r.to_json_dict() for r in reports],
    }
