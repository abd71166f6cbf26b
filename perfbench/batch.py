"""Benchmark workloads, and the worker that runs one batch of one of them.

A batch is a fixed set of calls into fpgd's public API.  ``run.py``
starts each batch in a fresh worker process:

    python3 perfbench/batch.py --workload NAME --seed N --traced 0|1

The worker prints one JSON object as its last line of output: the
timings, counts and correctness-gate failures of the batch, and with
``--traced 1`` the per-layer metrics of ``spans.layer_metrics``.
The worker needs ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

OUT_DIR = Path(__file__).resolve().parent / "out"

# Bytes the worker holds besides the operator stack: interpreter, numpy,
# scipy and the solver's n x n work arrays.
BASE_FOOTPRINT = 256 * 2**20


@dataclass(frozen=True)
class SolveWorkload:
    """Generate ``instances`` problems, then run ``projfgd_solve`` on each."""

    name: str
    generator: str  # attribute of fpgd.problems
    gen_kwargs: dict
    solver_kwargs: dict
    rel_error_gate: float
    instances: int = 2
    min_solver_cover: float = 0.0  # traced batches: children of solver spans cover this share


@dataclass(frozen=True)
class VerifyWorkload:
    """``fpgd verify <suite>`` through ``fpgd.cli.main`` for each suite."""

    name: str
    suites: tuple = ()  # empty: every suite in fpgd.diagnostics.SUITE_NAMES


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "qst_q7_dense",
            "gen_qst",
            dict(q=7, r=1, c_sam=3.0, noise_norm=1e-3),
            dict(tol=5e-6, step_size_constant=0.5),
            rel_error_gate=5e-4,
            min_solver_cover=0.95,
        ),
        SolveWorkload(
            "phase_retrieval_l1",
            "gen_phase_retrieval",
            dict(n=96, sparsity=6, m=768, noise_norm=0.0),
            dict(step_size_constant=0.5, max_iters=8000),
            rel_error_gate=2e-3,
            # Iterations vary ~11% between instances (194-311 over 24 seeds);
            # four instances keep a batch's total within a few percent across seeds.
            instances=4,
        ),
        VerifyWorkload("verify_suites"),
    )
}


def instance_seeds(seed, count):
    """Instance seeds of benchmark seed ``seed``: disjoint across seeds."""
    return [count * seed + k for k in range(count)]


def qst_footprint_bytes(q, r, c_sam, **_):
    """Peak bytes of ``gen_qst`` and a solve on it, computed, not measured.

    The dense stack is 16 m n^2 bytes.  The ensemble keeps a conjugated
    copy, and ``gen_qst`` builds a second ensemble while the first is
    alive, so generation holds three stacks at its peak.
    """
    n = 2**q
    m = int(round(c_sam * r * n * math.log(n)))
    return 3 * 16 * m * n * n + BASE_FOOTPRINT


def mem_available_bytes():
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def memory_precheck(workload, available):
    """None when ``workload`` fits in ``available`` bytes, else a failure message."""
    if workload.generator != "gen_qst" or available is None:
        return None
    need = qst_footprint_bytes(**workload.gen_kwargs)
    if need <= available:
        return None
    return f"memory_precheck: needs {need} bytes, MemAvailable is {available} bytes"


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment():
    import numpy as np
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(np),
        "python": sys.version.split()[0],
    }


def run_solve_batch(workload, seed, traced):
    failures = []
    precheck = memory_precheck(workload, mem_available_bytes())
    if precheck is not None:
        return {"attempted": workload.instances, "failures": [precheck]}

    import fpgd.cli  # noqa: F401  (every fpgd module, so the tracer finds each name)
    from fpgd import diagnostics, problems, solver

    tracer = spans.Tracer(spans.FPGD_LAYERS if traced else spans.SOLVER_LAYERS)
    setups, iters, errors = [], [], []
    with tracer:
        for inst_seed in instance_seeds(seed, workload.instances):
            t0 = time.perf_counter()
            inst = getattr(problems, workload.generator)(**workload.gen_kwargs, seed=inst_seed)
            inst.objective.smoothness()
            setups.append(time.perf_counter() - t0)
            cfg = solver.SolverConfig(rank=inst.rank, **workload.solver_kwargs)
            u, trace = solver.projfgd_solve(inst, cfg)
            err = diagnostics.relative_error(u @ u.conj().T, inst.truth_x)
            iters.append(trace.n_iters)
            errors.append(err)
            if trace.status != "converged":
                failures.append(f"solve:seed={inst_seed}:status={trace.status}")
            elif not err <= workload.rel_error_gate:
                failures.append(
                    f"rel_error:seed={inst_seed}:{err!r}>{workload.rel_error_gate!r}"
                )
            del inst, u, trace  # free the operator stack before the next instance
    done = time.monotonic()
    result = {
        "attempted": workload.instances + (1 if traced and workload.min_solver_cover else 0),
        "failures": failures,
        "t_done": done,
        "setup_s": setups,
        "solve_s": tracer.totals("solver.solve")[0],
        "iters_total": sum(iters),
        "rel_error_max": max(errors),
        "iters": iters,
        "rel_errors": errors,
    }
    if traced:
        result["layers"] = spans.layer_metrics(tracer)
        result["span_rows"] = tracer.span_rows()
        cover = result["layers"]["solver.child_cover_frac"]
        if cover < workload.min_solver_cover:
            failures.append(
                f"trace_coverage:{cover!r}<{workload.min_solver_cover!r}:"
                f"uncovered_s={result['layers']['solver.self_s']!r}"
            )
    return result


def run_verify_batch(workload, seed, traced):
    t0 = time.perf_counter()
    import fpgd.cli as cli
    setup = time.perf_counter() - t0
    from fpgd.diagnostics import SUITE_NAMES

    suites = workload.suites or SUITE_NAMES
    failures = []
    verify_s = 0.0
    tracer = spans.Tracer(spans.FPGD_LAYERS if traced else spans.SOLVER_LAYERS)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="verify-", dir=OUT_DIR))
    try:
        with tracer:
            for suite in suites:
                t1 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["verify", suite, "--out", str(tmp), "--seed", str(seed)])
                verify_s += time.perf_counter() - t1
                try:
                    with open(tmp / f"report_{suite}.json") as fh:
                        violations = json.load(fh)["violations"]
                except (OSError, ValueError, KeyError):
                    violations = None
                if code != 0 or violations != 0:
                    failures.append(f"suite:{suite}:exit={code}:violations={violations}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    done = time.monotonic()
    result = {
        "attempted": len(suites),
        "failures": failures,
        "t_done": done,
        "setup_s": [setup],
        "verify_s": verify_s,
        "solve_s": tracer.totals("solver.solve")[0],
        "iters_total": int(tracer.counters["solver.iters"]),
    }
    if traced:
        result["layers"] = spans.layer_metrics(tracer)
        result["span_rows"] = tracer.span_rows()
    return result


def run_batch(workload, seed, traced):
    """Run one batch in this process and return its result dict."""
    if isinstance(workload, VerifyWorkload):
        return run_verify_batch(workload, seed, traced)
    return run_solve_batch(workload, seed, traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_batch(WORKLOADS[args.workload], args.seed, bool(args.traced))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = result.pop("span_rows", None)
    if rows is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}.jsonl", "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
    if "t_done" in result:
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
