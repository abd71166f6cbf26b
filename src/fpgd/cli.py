"""Command-line front end: generate instances, run solves and sweeps,
run verification suites.

One JSON config document drives everything; a key it leaves out takes the
library's default (``SolverConfig``'s fields, the ``gen_*`` signatures).  Exit
codes: 0 converged / all checks passed, 2 iteration budget exhausted, 1 numeric
failure, 64 malformed config (a solver block that SolverConfig rejects
included), a missing or malformed instance file, an output directory that
names or lies under a file (refused before any work), or unknown suite.  Logging level comes from FPGD_LOG (error | info | debug).
"""

import argparse
import concurrent.futures
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import SUITE_NAMES, relative_error, run_suite
from .objective import _number
from .problems import ProblemInstance, gen_phase_retrieval, gen_qst, gen_synthetic
from .solver import (
    SolverConfig,
    fgd_solve,
    projfgd_solve,
    summary_dict,
    write_summary_json,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_MAX_ITERS = 2
EXIT_USAGE = 64

log = logging.getLogger("fpgd")


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


# ---------------------------------------------------------------------------
# RunConfig handling
# ---------------------------------------------------------------------------


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


_REQUIRED = object()


def _require(doc, key, where, convert=None, default=_REQUIRED):
    """``doc[key]`` (or ``default`` where allowed), passed through ``convert``;
    a missing key or a value ``convert`` rejects is a ConfigError."""
    if key not in doc and default is _REQUIRED:
        raise ConfigError(f"missing key {key!r} in {where}")
    value = doc.get(key, default)
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r} in {where}: {value!r}") from exc


def _json_type(kind, name):
    # A converter that passes only a value of that JSON type: a string is not a
    # list of characters, and 0 is not false.
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a JSON {name}")
        return value

    return check


_object, _list, _bool = _json_type(dict, "object"), _json_type(list, "list"), _json_type(bool, "boolean")


_int, _float = _number(int), _number(float)


def _optional_float(value):
    return None if value is None else _float(value)


def _seed_and_out(args, doc):
    # --seed and --out override the config's "seed" and "out"; out is made just before the first write.
    seed = args.seed if args.seed is not None else _require(doc, "seed", "config", _int, 0)
    if seed < 0:  # else numpy's seeding refuses it later, as a generator error
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out = Path(args.out) if args.out else _require(doc, "out", "config", Path, ".")
    nearest = next(path for path in (out, *out.parents) if path.exists())  # "." or "/" at the latest
    if not nearest.is_dir():  # refused before any work, not at the first write after it
        raise ConfigError(f"output directory {out}: {nearest} exists and is not a directory")
    return seed, out


def _load_files(ensemble_file, companion_file, seed):
    # The "files" kind: an instance saved by ``fpgd generate``, which keeps the seed it was made with.
    try:
        return ProblemInstance.load(ensemble_file, companion_file)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"malformed instance files {ensemble_file}, {companion_file}: {exc!r}") from exc


# Each problem kind: the name of its generator in this module, then its required and its optional
# keys with their converters, in the generator's signature order ("noise" is noise_norm).
_KINDS = {
    "qst": ("gen_qst", {"q": _int, "r": _int, "c_sam": _float}, {"noise": _float}),
    "phase_retrieval": ("gen_phase_retrieval", {"n": _int, "sparsity": _int, "m": _int},
                        {"noise": _float, "lam": _optional_float}),
    "synthetic": ("gen_synthetic", {"n": _int, "r": _int, "m": _int},
                  {"condition_number": _float, "noise": _float}),
    "files": ("_load_files", {"ensemble_file": Path, "companion_file": Path}, {}),
}


def _kind(problem):
    # The kind a problem block names, and the keys that kind reads, with their converters.
    kind = _require(problem, "kind", "problem")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    _, required, optional = _KINDS[kind]
    return kind, {**required, **optional}


def parse_problem(problem):
    """The problem block cut to its kind and the keys that kind reads, each converted, in signature
    order.  An unknown kind or a missing or malformed key is a ConfigError; nothing is generated."""
    kind, keys = _kind(problem)
    return {"kind": kind, **{key: _require(problem, key, "problem", convert)
                             for key, convert in keys.items() if key in problem or key in _KINDS[kind][1]}}


def build_instance(problem, seed):
    # Parsing errors are ConfigErrors; the generators' own errors pass through.  The generator is
    # looked up when called, so a replaced ``fpgd.cli.gen_*`` is the one called.
    values = parse_problem(problem)
    generator = globals()[_KINDS[values.pop("kind")][0]]
    return generator(**{"noise_norm" if key == "noise" else key: v for key, v in values.items()}, seed=seed)


def build_solver_config(solver):
    """The solver block as a ``SolverConfig`` and an algorithm name; only the
    keys the block sets are passed, so the rest keep ``SolverConfig``'s defaults."""
    keys = {"max_iters": _int, "tol": _float, "step_size_constant": _optional_float,
            "step_mode": None, "record_truth_dist": _bool}
    given = {key: _require(solver, key, "solver", convert) for key, convert in keys.items() if key in solver}
    try:
        cfg = SolverConfig(**given)
    except ValueError as exc:
        raise ConfigError(f"invalid solver block: {exc}") from exc
    algorithm = solver.get("algorithm", "projfgd")
    if algorithm not in ("projfgd", "fgd"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return cfg, algorithm


def _status_exit(status):
    return {"converged": EXIT_OK, "max_iters": EXIT_MAX_ITERS}.get(status, EXIT_NUMERIC)


def _solve_and_score(instance, cfg, algorithm):
    """Solve ``instance`` at its own rank: the trace and the relative error of U U^H."""
    solve = projfgd_solve if algorithm == "projfgd" else fgd_solve
    u, trace = solve(instance, cfg)
    return trace, relative_error(u @ u.conj().T, instance.truth_x)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args):
    doc = load_config(args.config)
    seed, out = _seed_and_out(args, doc)
    # A bad solver block fails before the instance is generated.
    cfg, algorithm = build_solver_config(_require(doc, "solver", "config", _object, {}))
    problem = _require(doc, "problem", "config", _object)
    instance = build_instance(problem, seed)
    log.info("solving %s instance (n=%d, m=%d) with %s",
             problem["kind"], instance.dim, instance.objective.ensemble.m, algorithm)

    trace, rel = _solve_and_score(instance, cfg, algorithm)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    summary = summary_dict(trace, final_rel_error=rel, tol=cfg.tol, seed=seed)
    write_summary_json(summary, out / "summary.json")
    log.info("status=%s iters=%d rel_error=%.3e", trace.status, trace.n_iters, rel)
    print(json.dumps(summary, sort_keys=True))
    return _status_exit(trace.status)


def _cell_seed(root_seed, index):
    # Counter-based expansion: cells are independent and reproducible
    # regardless of execution order or parallelism.
    return int(np.random.SeedSequence([root_seed, index]).generate_state(1, np.uint64)[0])


def _run_sweep_cell(payload):
    problem, seed, cfg, algorithm = payload
    try:
        trace, rel = _solve_and_score(build_instance(problem, seed), cfg, algorithm)
        return trace.n_iters, rel, trace.elapsed_ms, trace.status
    except Exception as exc:  # failure is recorded in-row, sweep continues
        log.error("sweep cell %s (seed=%s) failed: %s", problem, seed, exc)
        return -1, float("nan"), float("nan"), "error"


def cmd_sweep(args):
    doc = load_config(args.config)
    root_seed, out = _seed_and_out(args, doc)
    fixed = _require(doc, "problem", "config", _object, {"kind": "qst"})
    grid = _require(doc, "sweep", "config", _object)
    n_seeds = _require(grid, "seeds", "sweep", _int, 1)
    # Every other sweep key is an axis: a list of values of a problem key that the problem block leaves out.
    kind, keys = _kind(fixed)
    for key in grid:
        if key != "seeds" and (key not in keys or key in fixed):
            why = "the problem block sets it too" if key in fixed else f"a {kind!r} problem has no such key"
            raise ConfigError(f"sweep key {key!r}: {why}")
    if not isinstance(grid.get("noise", []), list):  # one noise level for every cell
        fixed = dict(fixed, noise=grid["noise"])
    axes = {key: _require(grid, key, "sweep", _list) for key in keys if key in grid and key not in fixed}
    # Checked once: a bad block fails before any cell runs.
    cfg, algorithm = build_solver_config(_require(doc, "solver", "config", _object, {}))

    grid_order = itertools.product(*axes.values(), range(n_seeds))
    cells = [  # every cell parsed before any runs
        (parse_problem({**fixed, **dict(zip(axes, point))}), _cell_seed(root_seed, index), cfg, algorithm)
        for index, (*point, _) in enumerate(grid_order)
    ]
    if not cells:  # an empty list or seeds < 1; else sweep.csv holds only its header
        raise ConfigError(f"sweep grid has no cells: {axes}, seeds {n_seeds}")

    if args.jobs and args.jobs > 1:  # a pool starts all of its workers at once: no more than cells or CPUs
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(args.jobs, len(cells), cpus)) as pool:
            rows = list(pool.map(_run_sweep_cell, cells))
    else:
        rows = [_run_sweep_cell(c) for c in cells]

    lines = [",".join([*axes, "seed", "iters", "rel_error", "elapsed_ms"])]
    lines += [",".join("" if v is None else str(v) for v in [*(problem[key] for key in axes), seed, *row[:3]])
              for (problem, seed, _, _), row in zip(cells, rows)]  # in grid order; a null axis value is empty
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(rows)} cells -> {out / 'sweep.csv'}")
    # A failed or diverged cell (exit 1) outranks an exhausted iteration budget (exit 2).
    return min({_status_exit(row[3]) for row in rows} - {EXIT_OK}, default=EXIT_OK)


def cmd_verify(args):
    if args.suite not in SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; choose from: {', '.join(SUITE_NAMES)}",
              file=sys.stderr)
        return EXIT_USAGE
    seed, out = _seed_and_out(args, {})
    report = run_suite(args.suite, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report_{args.suite}.json"
    write_summary_json(report, path)
    print(json.dumps({"suite": args.suite, "violations": report["violations"],
                      "report": str(path)}, sort_keys=True))
    return EXIT_OK if report["violations"] == 0 else EXIT_NUMERIC


def cmd_generate(args):
    doc = load_config(args.config)
    seed, out = _seed_and_out(args, doc)
    instance = build_instance(_require(doc, "problem", "config", _object), seed)
    out.mkdir(parents=True, exist_ok=True)
    ensemble_path = out / "ensemble.json"
    companion_path = out / "instance.json"
    instance.save(ensemble_path, companion_path)
    print(json.dumps({"ensemble": str(ensemble_path), "companion": str(companion_path),
                      "dim": instance.dim, "m": instance.objective.ensemble.m,
                      "seed": seed}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _configure_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("FPGD_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpgd",
        description="Factored projected gradient descent for constrained "
        "low-rank PSD recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, needs_config=True, jobs=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed override")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
        return p

    command("solve", cmd_solve, "run one solve; writes trace.csv and summary.json")
    command("sweep", cmd_sweep, "run a grid of problems and seeds; writes sweep.csv", jobs=True)
    p_verify = command("verify", cmd_verify, "run a named verification suite", needs_config=False)
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    command("generate", cmd_generate, "write ensemble.json and instance.json")
    return parser


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, IsADirectoryError, FileExistsError, NotADirectoryError) as exc:
        print(str(exc), file=sys.stderr)  # an input missing or a directory, an output path taken by a file
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
