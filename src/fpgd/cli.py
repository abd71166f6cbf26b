"""Command-line front end: generate instances, run solves and sweeps,
run verification suites.

One JSON config document drives everything; a key it leaves out takes the
library's default (``SolverConfig``'s fields, the ``gen_*`` signatures).  Exit
codes: 0 converged / all checks passed, 2 iteration budget exhausted, 1 numeric
failure, 64 malformed config (a solver block that SolverConfig rejects
included), a missing or malformed instance file, an output directory that
names a file, or unknown suite.  Logging level comes from FPGD_LOG (error | info | debug).
"""

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import SUITE_NAMES, relative_error, run_suite
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


def canonical_config_bytes(doc):
    """Canonical serialized form; loading and re-serializing a config file
    reproduces these bytes exactly."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def load_config(path):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def write_config(doc, path):
    with open(path, "wb") as fh:
        fh.write(canonical_config_bytes(doc))


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


def _number(convert):
    # ``convert``, refusing a JSON boolean (passed on as None): int(true) is 1, yet true is no number.
    return lambda value: convert(None if isinstance(value, bool) else value)


_int, _float = _number(int), _number(float)


def _optional_float(value):
    return None if value is None else _float(value)


def _seed_and_out(args, doc):
    # --seed and --out override the config's "seed" and "out" (created).
    seed = args.seed if args.seed is not None else _require(doc, "seed", "config", _int, 0)
    if seed < 0:  # else numpy's seeding refuses it later, as a generator error
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out = Path(args.out) if args.out else _require(doc, "out", "config", Path, ".")
    out.mkdir(parents=True, exist_ok=True)
    return seed, out


def build_instance(problem, seed):
    # Parsing errors are ConfigErrors; the generators' own errors pass through.
    def get(key, convert):
        return _require(problem, key, "problem", convert)

    def given(convert, **keywords):  # generator keyword -> problem key, for the keys set
        return {kw: get(key, convert) for kw, key in keywords.items() if key in problem}

    kind = get("kind", None)
    if kind == "qst":
        return gen_qst(q=get("q", _int), r=get("r", _int), c_sam=get("c_sam", _float),
                       seed=seed, **given(_float, noise_norm="noise"))
    if kind == "phase_retrieval":
        return gen_phase_retrieval(
            n=get("n", _int), sparsity=get("sparsity", _int), m=get("m", _int), seed=seed,
            **given(_float, noise_norm="noise"), **given(_optional_float, lam="lam"),
        )
    if kind == "synthetic":
        return gen_synthetic(
            n=get("n", _int), r=get("r", _int), m=get("m", _int), seed=seed,
            **given(_float, condition_number="condition_number", noise_norm="noise"),
        )
    if kind == "files":
        ensemble = get("ensemble_file", Path)
        companion = get("companion_file", Path)
        for p in (ensemble, companion):
            if not p.is_file():
                raise FileNotFoundError(f"instance file not found (or not a file): {p}")
        try:
            return ProblemInstance.load(ensemble, companion)
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ConfigError(f"malformed instance files {ensemble}, {companion}: {exc!r}") from exc
    raise ConfigError(f"unknown problem kind {kind!r}")


def build_solver_config(solver, rank):
    """The solver block as a ``SolverConfig`` and an algorithm name; only the
    keys the block sets are passed, so the rest keep ``SolverConfig``'s defaults."""
    keys = {"max_iters": _int, "tol": _float, "step_size_constant": _optional_float,
            "step_mode": None, "record_truth_dist": _bool}
    given = {key: _require(solver, key, "solver", convert) for key, convert in keys.items() if key in solver}
    try:
        cfg = SolverConfig(rank=rank, **given)
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
    u, trace = solve(instance, dataclasses.replace(cfg, rank=instance.rank))
    return trace, relative_error(u @ u.conj().T, instance.truth_x)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args):
    doc = load_config(args.config)
    seed, out = _seed_and_out(args, doc)
    # A bad solver block fails before the instance is generated.
    cfg, algorithm = build_solver_config(_require(doc, "solver", "config", _object, {}), rank=1)
    instance = build_instance(_require(doc, "problem", "config", _object), seed)
    log.info("solving %s instance (n=%d, m=%d) with %s",
             instance.meta.get("kind", "file"), instance.dim,
             instance.objective.ensemble.m, algorithm)

    trace, rel = _solve_and_score(instance, cfg, algorithm)
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
    cell = {"q": problem["q"], "r": problem["r"], "c_sam": problem["c_sam"], "seed": seed}
    try:
        trace, rel = _solve_and_score(build_instance(problem, seed), cfg, algorithm)
        return dict(cell, iters=trace.n_iters, rel_error=rel,
                    elapsed_ms=trace.elapsed_ms, status=trace.status)
    except Exception as exc:  # failure is recorded in-row, sweep continues
        log.error("sweep cell (q=%s, r=%s, c_sam=%s, seed=%s) failed: %s", *cell.values(), exc)
        return dict(cell, iters=-1, rel_error=float("nan"), elapsed_ms=float("nan"), status="error")


def cmd_sweep(args):
    doc = load_config(args.config)
    root_seed, out = _seed_and_out(args, doc)
    grid = _require(doc, "sweep", "config", _object)
    qs = _require(grid, "q", "sweep", lambda vs: [_int(v) for v in _list(vs)])
    rs = _require(grid, "r", "sweep", lambda vs: [_int(v) for v in _list(vs)])
    c_sams = _require(grid, "c_sam", "sweep", lambda vs: [_float(v) for v in _list(vs)])
    n_seeds = _require(grid, "seeds", "sweep", _int, 1)
    noise = {"noise": _require(grid, "noise", "sweep", _float)} if "noise" in grid else {}
    # Checked once: a bad block fails before any cell runs.
    cfg, algorithm = build_solver_config(_require(doc, "solver", "config", _object, {}), rank=1)

    grid_order = itertools.product(qs, rs, c_sams, range(n_seeds))
    cells = [
        ({"kind": "qst", "q": q, "r": r, "c_sam": c_sam, **noise},
         _cell_seed(root_seed, index), cfg, algorithm)
        for index, (q, r, c_sam, _) in enumerate(grid_order)
    ]
    if not cells:  # an empty list or seeds < 1; else sweep.csv holds only its header
        raise ConfigError(f"sweep grid has no cells: q {qs}, r {rs}, c_sam {c_sams}, seeds {n_seeds}")

    if args.jobs and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_run_sweep_cell, cells))
    else:
        rows = [_run_sweep_cell(c) for c in cells]

    lines = ["q,r,c_sam,seed,iters,rel_error,elapsed_ms"]
    for row in rows:  # buffered and emitted in grid order
        lines.append(
            f"{row['q']},{row['r']},{row['c_sam']!r},{row['seed']},"
            f"{row['iters']},{row['rel_error']!r},{row['elapsed_ms']!r}"
        )
    with open(out / "sweep.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(rows)} cells -> {out / 'sweep.csv'}")
    statuses = {row["status"] for row in rows}
    if "error" in statuses or "diverged" in statuses:
        return EXIT_NUMERIC
    if "max_iters" in statuses:
        return EXIT_MAX_ITERS
    return EXIT_OK


def cmd_verify(args):
    if args.suite not in SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; choose from: {', '.join(SUITE_NAMES)}",
              file=sys.stderr)
        return EXIT_USAGE
    seed, out = _seed_and_out(args, {})
    report = run_suite(args.suite, seed=seed)
    path = out / f"report_{args.suite}.json"
    write_summary_json(report, path)
    print(json.dumps({"suite": args.suite, "violations": report["violations"],
                      "report": str(path)}, sort_keys=True))
    return EXIT_OK if report["violations"] == 0 else EXIT_NUMERIC


def cmd_generate(args):
    doc = load_config(args.config)
    seed, out = _seed_and_out(args, doc)
    instance = build_instance(_require(doc, "problem", "config", _object), seed)
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

    def common(p, needs_config=True, jobs=False):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed override")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")

    p_solve = sub.add_parser("solve", help="run one solve; writes trace.csv and summary.json")
    common(p_solve)
    p_sweep = sub.add_parser("sweep", help="run a (q, r, c_sam, seed) grid; writes sweep.csv")
    common(p_sweep, jobs=True)
    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    common(p_verify, needs_config=False)
    p_gen = sub.add_parser("generate", help="write ensemble.json and instance.json")
    common(p_gen)
    return parser


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "generate": cmd_generate,
    }[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(str(exc), file=sys.stderr)  # a missing input, or an output path taken by a file
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
