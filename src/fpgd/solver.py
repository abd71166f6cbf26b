"""Factored gradient descent, with and without projection.

The iteration is U_{t+1} = Pi_C(U_t - eta * grad f(U_t U_t^H) @ U_t) with
the step size

    eta = C / (L_hat ||X_0||_2 + ||grad f(X_0)||_2),        C = 1/128,

fixed from the initial point ("fixed_from_init"), or recomputed every
iteration as C / (L_hat ||X_t||_2 + ||Q_U Q_U^H grad f(X_t)||_2)
("adaptive_per_iter", the step object the convergence analysis uses).
Stopping is the spectral-norm criterion
||X_{t+1} - X_t||_2 / ||X_{t+1}||_2 <= tol.

The loop never forms X = U U^H: it reads the operator through
``apply_factored``/``adjoint_times`` and takes both stopping norms from
one thin QR of [U_{t+1} - U_t, U_{t+1} + U_t] (``gram_rel_change``).
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    factor_from_psd,
    gram_rel_change,
    procrustes_dist,
    spectral_norm,
)
from .problems import unconstrained

__all__ = [
    "SolverConfig",
    "TRACE_COLUMNS",
    "SolveTrace",
    "init_point",
    "step_size",
    "projfgd_solve",
    "fgd_solve",
    "write_trace_csv",
    "summary_dict",
    "write_summary_json",
]

PROJFGD_STEP_CONSTANT = 1.0 / 128.0
FGD_STEP_CONSTANT = 1.0 / 16.0
DEFAULT_TOL = 5e-6
# One trace row per iteration: the CSV header, the callback's keys, and (with
# "iter" held as ``iters``) the SolveTrace series, in this order.
TRACE_COLUMNS = ("iter", "objective", "rel_change", "xi", "dist", "grad_norm")


@dataclass
class SolverConfig:
    rank: int
    max_iters: int = 10000
    tol: float = DEFAULT_TOL
    step_size_constant: float | None = None  # None -> 1/128 ProjFGD, 1/16 FGD
    step_mode: str = "fixed_from_init"  # or "adaptive_per_iter"
    record_truth_dist: bool = False

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.step_size_constant is not None and not 0 < self.step_size_constant <= 1:
            raise ValueError("step size constant must lie in (0, 1]")
        if self.step_mode not in ("fixed_from_init", "adaptive_per_iter"):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")


@dataclass
class SolveTrace:
    """Per-iteration solve record.

    Row t holds the state after update t: objective f(X_t), the stopping
    quantity ||X_t - X_{t-1}||_2 / ||X_t||_2, the projection scaling
    xi_t (1 when the raw iterate was already feasible), optionally the
    factor distance to the ground truth, and the factored gradient norm
    ||grad f(X_{t-1}) U_{t-1}||_F that produced the step.
    """

    status: str = "max_iters"  # until a stop rule in the loop sets another
    iters: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rel_change: list = field(default_factory=list)
    xi: list = field(default_factory=list)
    dist: list = field(default_factory=list)  # nan when not recorded
    grad_norm: list = field(default_factory=list)
    initial_objective: float = float("nan")
    initial_dist: float = float("nan")
    step_eta: float = float("nan")  # fixed step, or the first adaptive step
    elapsed_ms: float = 0.0

    @property
    def n_iters(self):
        return len(self.iters)

    def append(self, row):
        """Record one iteration's row, a dict keyed by TRACE_COLUMNS."""
        self.iters.append(row["iter"])
        for column in TRACE_COLUMNS[1:]:
            getattr(self, column).append(row[column])

    def dist_series(self):
        """Distances including the initial point, for contraction fits."""
        return [self.initial_dist] + list(self.dist)


def _init(obj, constraint, r):
    # X_0 = (1/L_hat) Pi_+(-grad f(0)) = F F^H from one eigendecomposition, with
    # -grad f(0) = 2 A*(y).  F's columns have non-increasing norms, so the top-r factor
    # is F[:, :r] and U_0 = Pi_C of it.  The fixed step is taken at X_0, not at U_0 U_0^H.
    ens = obj.ensemble
    n = obj.dim
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} out of range for n={n}")
    f = factor_from_psd(ens.adjoint(2.0 * ens.y), n) / np.sqrt(obj.smoothness())
    u0, _ = constraint.project(f[:, :r])
    return f, u0


def init_point(obj, constraint, r):
    """Initial factor: X_0 = (1/L_hat) Pi_+(-grad f(0)), top-r factor,
    then projected onto the constraint set.

    Degenerate case: if -grad f(0) has no positive part the zero factor
    is returned (a documented fixed point of the iteration).
    """
    return _init(obj, constraint, r)[1]


def _step_denominator(obj, x):
    # L_hat ||x||_2 + ||grad f(x)||_2: the fixed step's at X_0, the contraction rate's at X*.
    return obj.smoothness() * spectral_norm(x) + spectral_norm(obj.grad(x))


def step_size(obj, x0, constant=PROJFGD_STEP_CONSTANT):
    """eta = C / (L_hat ||x0||_2 + ||grad f(x0)||_2)."""
    denom = _step_denominator(obj, x0)
    if denom == 0.0:
        raise ValueError("zero step-size denominator: x0 and grad f(x0) both vanish")
    return constant / denom


def _adaptive_step(ens, l_hat, u, z, constant):
    """Per-iteration step C / (L_hat ||U U^H||_2 + ||A*(z) Q_U||_2) with
    z = 2(A(U U^H) - y) and Q_U an orthonormal basis of span(U).

    Returns (step, A*(z) U) from one ``adjoint_times`` call; the step is
    None when both terms vanish.  ||A*(z) Q_U||_2 = ||Q_U Q_U^H grad f||_2
    for the Hermitian gradient; the SVD-based basis handles rank-deficient
    (or zero) factors.
    """
    r = u.shape[1]
    w, s, _ = np.linalg.svd(u, full_matrices=False)
    s_max = s.max(initial=0.0)
    q = w[:, s > s_max * np.finfo(s.dtype).eps * max(u.shape)]
    g = ens.adjoint_times(z, np.hstack([u, q]))
    column_norm = float(np.linalg.norm(g[:, r:], 2)) if q.size else 0.0
    denom = l_hat * float(s_max) ** 2 + column_norm  # ||U U^H||_2 = sigma_max(U)^2
    return (constant / denom if denom != 0.0 else None), g[:, :r]


def _solve(instance, cfg, constraint, default_constant, u0=None, callback=None):
    obj = instance.objective
    ens = obj.ensemble
    constant = cfg.step_size_constant if cfg.step_size_constant is not None else default_constant
    l_hat = obj.smoothness()
    t0 = time.perf_counter()

    if u0 is None:
        f, u = _init(obj, constraint, cfg.rank)
    else:
        u, _ = constraint.project(np.asarray(u0))
        f = u

    trace = SolveTrace()
    res = ens.apply_factored(u) - ens.y
    f0 = float(res @ res)
    trace.initial_objective = f0
    if not np.isfinite(f0):
        trace.status = "diverged"
        trace.elapsed_ms = 1e3 * (time.perf_counter() - t0)
        return u, trace
    if cfg.record_truth_dist:
        trace.initial_dist = procrustes_dist(u, instance.truth_factor)
    blowup = 1e6 * (f0 + 1e-12 * (1.0 + float(ens.y @ ens.y)))

    eta = None
    if cfg.step_mode == "fixed_from_init":
        denom = _step_denominator(obj, f @ f.conj().T)
        if denom == 0.0:
            trace.status = "converged"  # zero gradient at a zero iterate: fixed point
            trace.elapsed_ms = 1e3 * (time.perf_counter() - t0)
            return u, trace
        eta = trace.step_eta = constant / denom

    for t in range(1, cfg.max_iters + 1):
        z = 2.0 * res
        if cfg.step_mode == "adaptive_per_iter":
            eta, gu = _adaptive_step(ens, l_hat, u, z, constant)
            if eta is None:
                trace.status = "converged"
                break
            if np.isnan(trace.step_eta):
                trace.step_eta = eta
        else:
            gu = ens.adjoint_times(z, u)
        grad_norm = float(np.linalg.norm(gu))
        u_next, xi = constraint.project(u - eta * gu)

        res = ens.apply_factored(u_next) - ens.y
        f_val = float(res @ res)
        rel_change = gram_rel_change(u_next, u) if np.isfinite(f_val) else float("inf")
        dist = (
            procrustes_dist(u_next, instance.truth_factor)
            if cfg.record_truth_dist
            else float("nan")
        )

        row = dict(zip(TRACE_COLUMNS, (t, f_val, rel_change, xi, dist, grad_norm)))
        trace.append(row)
        if callback is not None:
            callback(row)

        u = u_next
        if not np.isfinite(f_val) or f_val > blowup:
            trace.status = "diverged"
            break
        if rel_change <= cfg.tol:
            trace.status = "converged"
            break

    trace.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return u, trace


def projfgd_solve(instance, cfg, u0=None, callback=None):
    """Projected factored gradient descent on ``instance``.

    Returns (factor, trace).  ``u0`` overrides the default initialization
    (it is projected onto the constraint set first); ``callback`` receives
    one dict per iteration as the trace is produced.
    """
    return _solve(instance, cfg, instance.constraint, PROJFGD_STEP_CONSTANT, u0=u0, callback=callback)


def fgd_solve(instance, cfg, u0=None, callback=None):
    """Unconstrained factored gradient descent baseline (identity
    projection, step constant 1/16)."""
    return _solve(instance, cfg, unconstrained(), FGD_STEP_CONSTANT, u0=u0, callback=callback)


def _fmt(x):
    # repr keeps shortest round-trip form, so reruns are byte-identical
    return repr(float(x))


def write_trace_csv(trace, path):
    """CSV with the TRACE_COLUMNS header and one line per iteration.

    The dist column is empty when the solve did not record distances
    to the ground truth.
    """
    lines = [",".join(TRACE_COLUMNS)]
    for k in range(trace.n_iters):
        d = trace.dist[k]
        fields = [
            str(trace.iters[k]), _fmt(trace.objective[k]), _fmt(trace.rel_change[k]),
            _fmt(trace.xi[k]), "" if np.isnan(d) else _fmt(d), _fmt(trace.grad_norm[k]),
        ]
        lines.append(",".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_dict(trace, final_rel_error=None, tol=None, seed=None):
    final_obj = trace.objective[-1] if trace.objective else trace.initial_objective
    return {
        "status": trace.status,
        "iters": trace.n_iters,
        "final_objective": final_obj,
        "final_rel_error": final_rel_error,
        "tol": tol,
        "seed": seed,
        "elapsed_ms": trace.elapsed_ms,
    }


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
