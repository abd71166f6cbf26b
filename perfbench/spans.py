"""In-memory span tracing of fpgd's public functions.

The benchmark measures the library from outside: it wraps public
functions of ``fpgd`` and records one span per call (name, start, end,
parent).  A function is replaced under every name its callers look it
up by: ``fpgd.solver`` imports ``spectral_norm`` by name, so
``fpgd.solver.spectral_norm`` is replaced as well as
``fpgd.linalg.spectral_norm``.  Methods are replaced on their class.

A span's self time is its duration minus the time covered by its child
spans.  A call to a layer made from inside a span of the same layer
(``procrustes_dist`` calling ``procrustes_align``) records no span of
its own, so a layer's time and call count are never counted twice.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SUITES = ("contraction", "descent", "gradients", "init", "procrustes", "projections", "tu", "xi")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class Layer:
    """A traced function: ``attr`` is a module attribute or ``Class.method``."""

    module: str
    attr: str
    name: str
    hook: Callable | None = None  # hook(tracer, span, args, result) after each call


class Tracer:
    """Installs wrappers for ``layers`` while used as a context manager."""

    def __init__(self, layers):
        self.layers = layers
        self.spans = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, hook):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            if hook is not None:
                hook(self, span, args, result)
            return result

        return wrapper

    def __enter__(self):
        for layer in self.layers:
            module = sys.modules[layer.module]
            owner, _, attr = layer.attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, layer.name, layer.hook))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer.name, layer.hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fpgd" or mod_name.startswith("fpgd.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
        return False

    def totals(self, name):
        """(total seconds, self seconds, calls) over the spans named ``name``."""
        total = own = 0.0
        calls = 0
        for span in self.spans:
            if span.name == name:
                total += span.duration
                own += span.duration - span.child_s
                calls += 1
        return total, own, calls

    def time_under(self, names, ancestor):
        """Seconds in spans named in ``names`` that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent is not None and parent.name != ancestor:
                parent = parent.parent
            if parent is not None:
                total += span.duration
        return total

    def span_rows(self):
        """Spans as [id, name, parent id, start, end] rows, ids in end order."""
        ids = {id(span): k for k, span in enumerate(self.spans)}
        return [
            [k, s.name, ids.get(id(s.parent)) if s.parent is not None else None, s.start, s.end]
            for k, s in enumerate(self.spans)
        ]


# ---- hooks: counts measured where the work happens ------------------------


def _array_bytes(obj):
    # Bytes owned by the ndarray attributes of ``obj``; views count once,
    # through the array that owns their memory.
    roots = {}
    for value in vars(obj).values():
        base = value
        while getattr(base, "base", None) is not None:
            base = base.base
        if hasattr(base, "nbytes") and hasattr(base, "dtype"):
            roots[id(base)] = base.nbytes
    return sum(roots.values())


def _on_ensemble_init(tracer, span, args, result):
    ensemble = args[0]
    tracer.maxima["objective.operator_bytes"] = max(
        tracer.maxima["objective.operator_bytes"], _array_bytes(ensemble)
    )


def _on_apply(tracer, span, args, result):
    # Computed bytes of a dense apply: the m x n x n operator stack read once.
    ensemble = args[0]
    itemsize = 16 if ensemble.field == "complex" else 8
    tracer.counters["objective.apply_bytes"] += ensemble.m * ensemble.dim**2 * itemsize


def _on_project(tracer, span, args, result):
    if result[1] < 1.0:
        tracer.counters["problems.project_fired"] += 1


def _on_solve(tracer, span, args, result):
    tracer.counters["solver.iters"] += result[1].n_iters


def _on_suite(tracer, span, args, result):
    tracer.counters[f"diagnostics.suite_s.{result['suite']}"] += span.duration
    for report in result["reports"]:
        tracer.counters["diagnostics.trials"] += report["trials"]
        tracer.counters["diagnostics.skipped"] += report["skipped"]


SOLVER_LAYERS = (
    Layer("fpgd.solver", "projfgd_solve", "solver.solve", _on_solve),
    Layer("fpgd.solver", "fgd_solve", "solver.solve", _on_solve),
)

FPGD_LAYERS = SOLVER_LAYERS + (
    Layer("fpgd.problems", "gen_qst", "problems.gen"),
    Layer("fpgd.problems", "gen_phase_retrieval", "problems.gen"),
    Layer("fpgd.problems", "gen_synthetic", "problems.gen"),
    Layer("fpgd.problems", "ConstraintSet.project", "problems.project", _on_project),
    Layer("fpgd.objective", "MeasurementEnsemble.__init__", "objective.ensemble_init", _on_ensemble_init),
    Layer("fpgd.objective", "MeasurementEnsemble.apply", "objective.apply", _on_apply),
    Layer("fpgd.objective", "MeasurementEnsemble.adjoint", "objective.adjoint"),
    Layer("fpgd.objective", "Objective.smoothness", "objective.smoothness"),
    Layer("fpgd.objective", "Objective.strong_convexity", "objective.strong_convexity"),
    Layer("fpgd.linalg", "spectral_norm", "linalg.spectral_norm"),
    Layer("fpgd.linalg", "is_hermitian", "linalg.is_hermitian"),
    Layer("fpgd.linalg", "factor_from_psd", "linalg.factor_from_psd"),
    Layer("fpgd.linalg", "psd_project", "linalg.psd_project"),
    Layer("fpgd.linalg", "project_l1_ball", "linalg.project_l1"),
    Layer("fpgd.linalg", "procrustes_align", "linalg.procrustes"),
    Layer("fpgd.linalg", "procrustes_dist", "linalg.procrustes"),
    Layer("fpgd.diagnostics", "run_suite", "diagnostics.suite", _on_suite),
    Layer("fpgd.cli", "main", "cli.main"),
)

# Per-layer metrics of a traced batch, with their units.  Counts must
# repeat exactly between two traced batches of the same inputs.
LAYER_UNITS = {
    "objective.apply_s": "s",
    "objective.apply_calls": "count",
    "objective.adjoint_s": "s",
    "objective.adjoint_calls": "count",
    "objective.apply_gbps": "computed-GB/s",
    "objective.operator_bytes": "bytes",
    "objective.ensemble_init_s": "s",
    "problems.gen_s": "s",
    "objective.smoothness_s": "s",
    "objective.strong_convexity_s": "s",
    "linalg.spectral_norm_s": "s",
    "linalg.spectral_norm_calls": "count",
    "linalg.is_hermitian_s": "s",
    "linalg.is_hermitian_calls": "count",
    "linalg.factor_from_psd_s": "s",
    "linalg.psd_project_s": "s",
    "linalg.project_l1_s": "s",
    "linalg.project_l1_calls": "count",
    "problems.project_s": "s",
    "problems.project_calls": "count",
    "problems.project_fired_frac": "ratio",
    "linalg.procrustes_s": "s",
    "linalg.procrustes_calls": "count",
    **{f"diagnostics.suite_s.{suite}": "s" for suite in SUITES},
    "diagnostics.trials": "count",
    "diagnostics.skipped": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iters": "count",
    "solver.per_iter_ms": "ms",
    "solver.operator_frac": "ratio",
    "solver.child_cover_frac": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
}

# Layers that some workload never calls (the l1 projection, Procrustes,
# mu_hat, the suites and the CLI) read 0 there.  They are printed and
# recorded, but the JSON line carries only the metrics of layers that
# every workload calls.
JSON_LAYERS = tuple(
    name for name in LAYER_UNITS
    if not name.startswith(("linalg.project_l1", "linalg.procrustes", "objective.strong_convexity",
                            "diagnostics.", "cli."))
)

EXACT_COUNTS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")
)


def layer_metrics(tracer):
    """Per-layer metrics of one traced batch, keyed as in ``LAYER_UNITS``."""
    out = {}
    for name in (
        "objective.apply", "objective.adjoint", "linalg.spectral_norm",
        "linalg.is_hermitian", "linalg.project_l1", "problems.project", "linalg.procrustes",
    ):
        total, _, calls = tracer.totals(name)
        out[f"{name}_s"] = total
        out[f"{name}_calls"] = calls
    for name in (
        "objective.ensemble_init", "problems.gen", "objective.smoothness",
        "objective.strong_convexity", "linalg.factor_from_psd", "linalg.psd_project",
    ):
        out[f"{name}_s"] = tracer.totals(name)[0]
    c = tracer.counters
    out["objective.apply_gbps"] = (
        c["objective.apply_bytes"] / 1e9 / out["objective.apply_s"] if out["objective.apply_s"] else 0.0
    )
    out["objective.operator_bytes"] = int(tracer.maxima["objective.operator_bytes"])
    out["problems.project_fired_frac"] = (
        c["problems.project_fired"] / out["problems.project_calls"] if out["problems.project_calls"] else 0.0
    )
    for suite in SUITES:
        out[f"diagnostics.suite_s.{suite}"] = c[f"diagnostics.suite_s.{suite}"]
    out["diagnostics.trials"] = int(c["diagnostics.trials"])
    out["diagnostics.skipped"] = int(c["diagnostics.skipped"])

    solve_s, solve_self, _ = tracer.totals("solver.solve")
    iters = int(c["solver.iters"])
    out["solver.solve_s"] = solve_s
    out["solver.self_s"] = solve_self
    out["solver.iters"] = iters
    out["solver.per_iter_ms"] = 1e3 * solve_s / iters if iters else 0.0
    operator_s = tracer.time_under(("objective.apply", "objective.adjoint"), "solver.solve")
    out["solver.operator_frac"] = operator_s / solve_s if solve_s else 0.0
    out["solver.child_cover_frac"] = (solve_s - solve_self) / solve_s if solve_s else 0.0

    main_s, main_self, _ = tracer.totals("cli.main")
    out["cli.main_s"] = main_s
    out["cli.self_s"] = main_self
    return out
