"""fpgd benchmark: the library's workloads, timed from outside it.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in turn.  The library is
imported from the ``src`` directory of the checkout that holds this
file.  The command starts one batch of a workload at a time, each in a
fresh worker process (``batch.py``), for about ``--seconds`` and at
least two batches.  Every batch of one run uses the
same inputs, made from ``--seed``.

``--trace 0`` reports the end-to-end metrics, each the median over the
batches (``setup_s`` over every set-up in the run).  ``--trace 1``
alternates untraced and traced batches and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Correctness
gates (solve status and error, suite violations, identical counts and
errors in every batch, trace coverage) are printed by name, counted in
``failed`` and make the command exit 1.

The last line of output for each workload is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment and every batch, goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from batch import OUT_DIR, WORKLOADS, mem_available_bytes
from spans import EXACT_COUNTS, JSON_LAYERS, LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
MIN_BATCHES = 2
BLAS_THREADS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Metrics of the final JSON line with --trace 0; every workload has them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics where the workload defines them.
# iters_total depends on the seed's instances (a single phase retrieval
# instance takes 194-311 iterations), so it is checked for exact repeats
# within a run instead of against a bound across seeds.
EXTRA = {"verify_s": "s", "iters_total": "count", "rel_error_max": "1", "fail_frac": "ratio"}
# Counts and errors every batch of a run must reproduce bit for bit.
REPEATED = ("iters_total", "rel_error_max")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def git_commit():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_threads():
    # At most nproc, and at most BLAS_THREADS so that runs on larger
    # machines stay comparable with the 2-core reference machine.
    return max(1, min(BLAS_THREADS, nproc()))


def stats(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = values[0] if values[0] == values[-1] else statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_worker(workload, seed, traced, env, deadline):
    cmd = [sys.executable, str(Path(__file__).with_name("batch.py")),
           "--workload", workload, "--seed", str(seed), "--traced", str(int(traced))]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    if "t_done" in result:
        result["wall_s"] = result.pop("t_done") - t_spawn
    return result


def summarize(batches, traced_batches, failures):
    """End-to-end and per-layer statistics over the batches of one run.

    Returns (end_to_end, per_layer, checks): ``checks`` counts the
    repeat checks made here; each one that fails is added to ``failures``.
    """
    e2e = {}
    checks = 0
    started = [b for b in batches if "wall_s" in b]
    if started:
        e2e["wall_s"] = stats([b["wall_s"] for b in started])
        e2e["setup_s"] = stats([s for b in started for s in b["setup_s"]])
        for key in ("solve_s", "verify_s", "peak_rss_mb") + REPEATED:
            if key in started[0]:
                e2e[key] = stats([b[key] for b in started])
    every = [b for b in batches + traced_batches if "wall_s" in b]
    for key in REPEATED:
        values = {b[key] for b in every if key in b}
        if values:
            checks += 1
            if len(values) > 1:
                failures.append(f"nondeterministic:{key}:{sorted(values)}")
    layers = {}
    traced = [b for b in traced_batches if "layers" in b]
    if traced:
        for name in LAYER_UNITS:
            values = [b["layers"][name] for b in traced]
            if name in EXACT_COUNTS:
                checks += 1
                if len(set(values)) > 1:
                    failures.append(f"nondeterministic:{name}:{sorted(set(values))}")
            layers[name] = stats(values)
        if "wall_s" in e2e:
            traced_wall = statistics.median(b["wall_s"] for b in traced)
            layers["trace.overhead_s"] = stats([traced_wall - e2e["wall_s"]["median"]])
    return e2e, layers, checks


def print_table(title, rows, units):
    print(title)
    print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, s in rows.items():
        print(f"  {name:34s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}  {units[name]}")


def run_workload(workload, seed, seconds, trace, env, threads):
    """Run one workload, print its tables and JSON line; returns the exit code."""
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "nproc": nproc(),
            "blas_threads": threads,
            "mem_available_bytes": mem_available_bytes(),
            "caches": cache_sizes(),
            "git_commit": git_commit(),
            "platform": platform.platform(),
        },
    }

    # --trace 1 alternates traced and untraced batches, traced first, so a
    # run has at least two traced batches to compare counts between.
    min_batches = 3 if trace else MIN_BATCHES
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    batches, traced_batches, failures = [], [], []
    durations = []
    attempted = 0
    k = 0
    try:
        # Start another batch only while it is expected to end less than
        # half a batch after --seconds, so a run lasts about --seconds
        # whatever the length of the workload's batch.
        while k < min_batches or (
            time.monotonic() - start + statistics.median(durations) / 2 < seconds
        ):
            traced = bool(trace) and k % 2 == 0
            t_batch = time.monotonic()
            result = run_worker(workload, seed, traced, env, deadline)
            (traced_batches if traced else batches).append(result)
            durations.append(time.monotonic() - t_batch)
            attempted += result["attempted"]
            failures.extend(result["failures"])
            k += 1
            if "wall_s" not in result:
                break  # the workload could not start (memory pre-check)
            if 2 * time.monotonic() - t_batch > deadline:
                break  # another batch would not end within the run limit
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["env"].update(next((b["env"] for b in batches + traced_batches if "env" in b), {}))
    print("env " + json.dumps(record["env"], sort_keys=True))
    e2e, layers, checks = summarize(batches, traced_batches, failures)
    attempted += checks
    failed = len(failures)
    e2e["fail_frac"] = stats([failed / attempted if attempted else 1.0])
    units = {**END_TO_END, **EXTRA, **LAYER_UNITS, "trace.overhead_s": "s"}
    print_table(f"{workload} seed={seed} end-to-end ({len(batches)} untraced batches)", e2e, units)
    if trace and layers:
        print_table(f"{workload} seed={seed} per-layer ({len(traced_batches)} traced batches)",
                    layers, units)
        print(f"solver spans: children cover {layers['solver.child_cover_frac']['median']:.4f} "
              f"of solver.solve_s; uncovered {layers['solver.self_s']['median']:.6g} s")
    for failure in failures:
        print(f"FAILED {failure}")

    record.update(batches=batches, traced_batches=traced_batches, failures=failures,
                  end_to_end=e2e, per_layer=layers)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if trace:
        names = list(JSON_LAYERS) + ["trace.overhead_s"]
        metrics = {n: {"value": layers[n]["median"], "unit": units[n]} for n in names if n in layers}
    else:
        metrics = {n: {"value": e2e[n]["median"], "unit": u} for n, u in END_TO_END.items() if n in e2e}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fpgd" / "__init__.py").is_file():
        print(f"error: no fpgd sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    threads = blas_threads()
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    codes = [run_workload(name, args.seed, args.seconds, args.trace, env, threads) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
