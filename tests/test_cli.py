"""Command-line interface: configs, commands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fpgd
from fpgd.cli import (
    EXIT_MAX_ITERS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_instance,
    build_solver_config,
    main,
)
from fpgd.objective import _encode_array
from fpgd.problems import gen_qst
from fpgd.solver import TRACE_COLUMNS, SolverConfig

QST_SOLVE_CONFIG = {
    "command": "solve",
    "seed": 7,
    "problem": {"kind": "qst", "q": 4, "r": 1, "c_sam": 3.0, "noise": 0.0},
    "solver": {"algorithm": "projfgd", "tol": 5e-6, "step_size_constant": 0.5},
}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the package and its
    # command line, in a fresh interpreter, loads no scipy module.
    src = str(Path(fpgd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, fpgd, fpgd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_malformed_config_exits_64(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == EXIT_USAGE
    path.write_text("[1, 2, 3]")
    assert main(["solve", "--config", str(path)]) == EXIT_USAGE
    write_json(path, {"problem": {"kind": "warp"}})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "bad",
    [{"step_mode": "bogus"}, {"tol": 0.0}, {"step_size_constant": 1.5}, {"tol": float("nan")},
     {"tol": float("inf")}, {"algorithm": "nope"}],
    ids=["step_mode", "tol", "step_size_constant", "tol_nan", "tol_inf", "algorithm"],
)
def test_invalid_solver_block_exits_64(tmp_path, bad):
    doc = dict(QST_SOLVE_CONFIG, solver=dict(QST_SOLVE_CONFIG["solver"], **bad))
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert not (tmp_path / "o" / "summary.json").exists()


def test_empty_solver_block_is_the_library_default():
    assert build_solver_config({}) == (SolverConfig(), "projfgd")


@pytest.fixture
def generator_calls(monkeypatch):
    """Replace the three generators in ``fpgd.cli`` with recorders that refuse every
    instance; returns the list of (name, keyword arguments) calls."""
    calls = []

    def recorder(name):
        def record(**kwargs):
            calls.append((name, kwargs))
            raise ValueError("generation disabled")
        return record

    for name in ("gen_qst", "gen_phase_retrieval", "gen_synthetic"):
        monkeypatch.setattr(f"fpgd.cli.{name}", recorder(name))
    return calls


@pytest.mark.parametrize("problem, name, passed", [
    ({"kind": "qst", "q": 2, "r": 1, "c_sam": 3}, "gen_qst", {"q": 2, "r": 1, "c_sam": 3.0}),
    ({"kind": "phase_retrieval", "n": 8, "sparsity": 2, "m": 16}, "gen_phase_retrieval",
     {"n": 8, "sparsity": 2, "m": 16}),
    ({"kind": "synthetic", "n": 4, "r": 1, "m": 8}, "gen_synthetic", {"n": 4, "r": 1, "m": 8}),
    ({"kind": "qst", "q": 2, "r": 1, "c_sam": 3, "noise": 0}, "gen_qst",
     {"q": 2, "r": 1, "c_sam": 3.0, "noise_norm": 0.0}),
    ({"kind": "phase_retrieval", "n": 8, "sparsity": 2, "m": 16, "noise": 1, "lam": None},
     "gen_phase_retrieval", {"n": 8, "sparsity": 2, "m": 16, "noise_norm": 1.0, "lam": None}),
    ({"kind": "synthetic", "n": 4, "r": 1, "m": 8, "condition_number": 3}, "gen_synthetic",
     {"n": 4, "r": 1, "m": 8, "condition_number": 3.0}),
], ids=["qst", "phase_retrieval", "synthetic", "qst_noise", "phase_retrieval_noise_lam",
        "synthetic_condition_number"])
def test_generators_get_only_the_keys_the_problem_sets(generator_calls, problem, name, passed):
    # A key the problem leaves out is not passed, so the generator's own default holds.
    with pytest.raises(ValueError, match="generation disabled"):
        build_instance(problem, seed=4)
    assert generator_calls == [(name, dict(passed, seed=4))]


def test_sweep_cells_get_only_the_keys_the_grid_sets(tmp_path, generator_calls):
    doc = sweep_config([2], [3.0], 2)
    del doc["sweep"]["noise"]
    cfg = tmp_path / "sweep.json"
    write_json(cfg, doc)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert [sorted(kwargs) for _, kwargs in generator_calls] == [["c_sam", "q", "r", "seed"]] * 2


def test_solve_checks_solver_block_before_generating(tmp_path, monkeypatch):
    def no_generation(**_):
        raise AssertionError("instance generated before the solver block was checked")

    monkeypatch.setattr("fpgd.cli.gen_qst", no_generation)
    doc = dict(QST_SOLVE_CONFIG, solver=dict(QST_SOLVE_CONFIG["solver"], step_mode="bogus"))
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_missing_config_exits_64(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_noiseless_qst(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    out = tmp_path / "run"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_rel_error"] <= 1e-4
    assert summary["tol"] == 5e-6  # config echo
    assert (out / "trace.csv").exists()
    echoed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert echoed["status"] == "converged"


def test_solve_trace_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("elapsed_ms")
    s2.pop("elapsed_ms")
    assert s1 == s2


def test_solve_max_iters_exit_code(tmp_path):
    doc = dict(QST_SOLVE_CONFIG)
    doc["solver"] = {"tol": 1e-15, "max_iters": 5}
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_MAX_ITERS


def test_solve_seed_override_changes_instance(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    o1, o2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(cfg), "--out", str(o1)])
    main(["solve", "--config", str(cfg), "--out", str(o2), "--seed", "99"])
    assert (o1 / "trace.csv").read_bytes() != (o2 / "trace.csv").read_bytes()
    assert json.loads((o2 / "summary.json").read_text())["seed"] == 99


def test_solve_does_not_mutate_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    before = cfg.read_bytes()
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert cfg.read_bytes() == before


# ---------------------------------------------------------------------------
# generate + solve from files
# ---------------------------------------------------------------------------


def test_generate_then_solve_from_files(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    write_json(gen_cfg, {
        "seed": 3,
        "problem": {"kind": "synthetic", "n": 8, "r": 2, "m": 96,
                    "condition_number": 2.0, "noise": 0.0},
    })
    out = tmp_path / "data"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "ensemble.json").exists() and (out / "instance.json").exists()

    solve_cfg = tmp_path / "solve.json"
    write_json(solve_cfg, {
        "problem": {"kind": "files",
                    "ensemble_file": str(out / "ensemble.json"),
                    "companion_file": str(out / "instance.json")},
        "solver": {"tol": 5e-6, "step_size_constant": 0.5, "max_iters": 3000},
    })
    run = tmp_path / "run"
    assert main(["solve", "--config", str(solve_cfg), "--out", str(run)]) == EXIT_OK
    summary = json.loads((run / "summary.json").read_text())
    assert summary["final_rel_error"] <= 1e-3


def test_solve_from_files_scores_against_the_truth_factor(tmp_path):
    # X* is derived from truth_factor alone: a stale n x n "truth" in the
    # companion (here I/n) is ignored, so the final error agrees with the
    # trace's final factor distance d.  With V = U*,
    # ||U U^H - V V^H||_F <= (2 ||V||_F + d) d.
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=1)
    inst.save(tmp_path / "ensemble.json", tmp_path / "instance.json")
    doc = json.loads((tmp_path / "instance.json").read_text())
    doc["truth"] = _encode_array(np.eye(inst.dim, dtype=complex) / inst.dim)
    write_json(tmp_path / "instance.json", doc)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "problem": {"kind": "files", "ensemble_file": str(tmp_path / "ensemble.json"),
                    "companion_file": str(tmp_path / "instance.json")},
        "solver": {"step_size_constant": 0.5, "record_truth_dist": True},
    })
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    rel = json.loads((tmp_path / "out" / "summary.json").read_text())["final_rel_error"]
    last = (tmp_path / "out" / "trace.csv").read_text().splitlines()[-1].split(",")
    d = float(last[TRACE_COLUMNS.index("dist")])
    v_norm = np.linalg.norm(inst.truth_factor)
    assert 0.0 < rel <= (2.0 * v_norm + d) * d / np.linalg.norm(inst.truth_x)


def test_solve_instance_file_that_is_a_directory_exits_64(tmp_path, capsys):
    folder = tmp_path / "instance_dir"
    folder.mkdir()
    companion = tmp_path / "instance.json"
    companion.write_text("{}")
    solve_cfg = tmp_path / "solve.json"
    write_json(solve_cfg, {
        "problem": {"kind": "files", "ensemble_file": str(folder), "companion_file": str(companion)},
    })
    assert main(["solve", "--config", str(solve_cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert str(folder) in capsys.readouterr().err


def test_missing_companion_exits_64_before_the_ensemble_is_read(tmp_path, monkeypatch, capsys):
    gen_qst(q=1, r=1, c_sam=2.0).save(tmp_path / "ensemble.json", tmp_path / "instance.json")
    (tmp_path / "instance.json").unlink()

    def no_ensemble(doc):
        raise RuntimeError("ensemble read before the companion was opened")

    monkeypatch.setattr("fpgd.objective.MeasurementEnsemble.from_json_dict", no_ensemble)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"problem": {"kind": "files", "ensemble_file": str(tmp_path / "ensemble.json"),
                                 "companion_file": str(tmp_path / "instance.json")}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert str(tmp_path / "instance.json") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_out_naming_an_existing_file_exits_64(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["solve", "--config", str(cfg)] if command == "solve" else ["verify", "tu"]
    assert main(argv + ["--out", str(taken)]) == EXIT_USAGE
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == ""


def test_solve_missing_instance_file_exits_64(tmp_path):
    solve_cfg = tmp_path / "solve.json"
    write_json(solve_cfg, {
        "problem": {"kind": "files",
                    "ensemble_file": str(tmp_path / "missing_e.json"),
                    "companion_file": str(tmp_path / "missing_c.json")},
    })
    assert main(["solve", "--config", str(solve_cfg)]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_config(qs, c_sams, seeds, out=None):
    return {
        "seed": 5,
        "sweep": {"q": qs, "r": [1], "c_sam": c_sams, "seeds": seeds, "noise": 1e-3},
        "solver": {"tol": 5e-6, "step_size_constant": 0.5},
    }


def test_sweep_invalid_solver_block_exits_64_before_any_cell(tmp_path):
    doc = sweep_config([3], [2.0, 3.0], 1)
    doc["solver"]["step_mode"] = "bogus"
    cfg = tmp_path / "sweep.json"
    write_json(cfg, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not (out / "sweep.csv").exists()


MALFORMED = {
    "problem_q": ("solve", dict(QST_SOLVE_CONFIG, problem=dict(QST_SOLVE_CONFIG["problem"], q="abc"))),
    "seed": ("solve", dict(QST_SOLVE_CONFIG, seed="abc")),
    "solver_list": ("solve", dict(QST_SOLVE_CONFIG, solver=[])),
    "sweep_q": ("sweep", dict(sweep_config([3], [2.0], 1), sweep={"q": 3, "r": [1], "c_sam": [2.0]})),
    "problem_list": ("generate", dict(QST_SOLVE_CONFIG, problem=[])),
    "sweep_list": ("sweep", dict(sweep_config([3], [2.0], 1), sweep=[])),
    "sweep_q_string": ("sweep", dict(sweep_config([3], [2.0], 1), sweep={"q": "34", "r": [1], "c_sam": [2.0]})),
    "record_truth_dist": ("solve", dict(QST_SOLVE_CONFIG, solver={"record_truth_dist": "no"})),
    "seed_infinite": ("solve", dict(QST_SOLVE_CONFIG, seed=float("inf"))),  # written as Infinity
    "max_iters_infinite": ("solve", dict(QST_SOLVE_CONFIG, solver={"max_iters": float("inf")})),
    "seed_negative": ("solve", dict(QST_SOLVE_CONFIG, seed=-1)),
    "seed_bool": ("solve", dict(QST_SOLVE_CONFIG, seed=True)),  # not read as 1
    "problem_q_bool": ("solve", dict(QST_SOLVE_CONFIG, problem=dict(QST_SOLVE_CONFIG["problem"], q=True))),
    "sweep_seeds_negative": ("sweep", sweep_config([3], [2.0], -1)),  # else a header-only sweep.csv
    "sweep_seeds_zero": ("sweep", sweep_config([3], [2.0], 0)),
    "sweep_q_empty": ("sweep", sweep_config([], [2.0], 1)),
    "problem_q_fractional": ("solve", dict(QST_SOLVE_CONFIG, problem=dict(QST_SOLVE_CONFIG["problem"], q=3.9))),
    "problem_q_string": ("solve", dict(QST_SOLVE_CONFIG, problem=dict(QST_SOLVE_CONFIG["problem"], q="3"))),
    "max_iters_fractional": ("solve", dict(QST_SOLVE_CONFIG, solver={"max_iters": 3.7})),
    "seed_fractional": ("solve", dict(QST_SOLVE_CONFIG, seed=1.5)),
    "noise_string": ("solve", dict(QST_SOLVE_CONFIG, problem=dict(QST_SOLVE_CONFIG["problem"], noise="1e-3"))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_block_exits_64(tmp_path, capsys, name):
    command, doc = MALFORMED[name]
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_negative_seed_option_exits_64(tmp_path, capsys, generator_calls):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([2], [3.0], 1))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert generator_calls == [] and not (out / "sweep.csv").exists()


QST_PROBLEM = QST_SOLVE_CONFIG["problem"]
NAN = float("nan")


@pytest.mark.parametrize(
    "problem, message",
    [(dict(QST_PROBLEM, c_sam=0.0), "measurement count"),
     (dict(QST_PROBLEM, q=5), "bytes available"),
     (dict(QST_PROBLEM, q=13), "bytes available"),
     (dict(QST_PROBLEM, q=64), "q must be in [1, 31]"),
     (dict(QST_PROBLEM, c_sam=1e308), "measurement count"),
     ({"kind": "phase_retrieval", "n": 10**6, "sparsity": 1, "m": 10**10}, "bytes available"),
     (dict(QST_PROBLEM, noise=NAN), "noise_norm must be"),
     (dict(QST_PROBLEM, noise=float("inf")), "noise_norm must be finite and non-negative"),
     ({"kind": "phase_retrieval", "n": 8, "sparsity": 2, "m": 16, "lam": NAN}, "lam must be"),
     ({"kind": "synthetic", "n": 4, "r": 1, "m": 8, "condition_number": NAN}, "condition_number must be"),
     ({"kind": "synthetic", "n": 4, "r": 3, "m": 8, "condition_number": float("inf")}, "condition_number must be"),
     ({"kind": "synthetic", "n": 6, "r": 0, "m": 8}, "r=0 must be in [1, n = 6]"),
     (dict(QST_PROBLEM, r=0), "r=0 must be in [1, 2^q = 16]"),
     (dict(QST_PROBLEM, r=-1), "r=-1 must be in [1, 2^q = 16]"),
     ({"kind": "phase_retrieval", "n": 8, "sparsity": 0, "m": 16}, "sparsity=0 must be in [1, n = 8]"),
     ({"kind": "phase_retrieval", "n": 8, "sparsity": -1, "m": 16}, "sparsity=-1 must be in [1, n = 8]")],
    ids=["c_sam_too_small", "memory_guard", "memory_guard_q13", "code_width_q64", "c_sam_overflow",
         "phase_retrieval_memory_guard", "noise_nan", "noise_infinite", "lam_nan", "condition_number_nan",
         "condition_number_infinite",
         "synthetic_rank_zero", "qst_rank_zero", "qst_rank_negative", "sparsity_zero", "sparsity_negative"],
)
def test_generator_errors_exit_1(tmp_path, monkeypatch, capsys, problem, message):
    # A well-formed config the generator refuses is a numeric failure, not a
    # config error; the memory guard sees a computed size, nothing is allocated.
    monkeypatch.setattr("fpgd.problems._mem_available_bytes", lambda: 2**20)
    doc = dict(QST_SOLVE_CONFIG, problem=problem)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sweep_grid_row_count(tmp_path):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([3, 4], [2.0, 3.0], 1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "q,r,c_sam,seed,iters,rel_error,elapsed_ms"
    assert len(lines) == 1 + 4  # product of the grid


def test_single_cell_sweep_matches_solve(tmp_path):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([4], [3.0], 1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    row = (out / "sweep.csv").read_text().strip().split("\n")[1].split(",")
    cell_seed = int(row[3])

    solve_cfg = tmp_path / "solve.json"
    write_json(solve_cfg, {
        "seed": cell_seed,
        "problem": {"kind": "qst", "q": 4, "r": 1, "c_sam": 3.0, "noise": 1e-3},
        "solver": {"tol": 5e-6, "step_size_constant": 0.5},
    })
    run = tmp_path / "run"
    assert main(["solve", "--config", str(solve_cfg), "--out", str(run)]) == EXIT_OK
    summary = json.loads((run / "summary.json").read_text())
    assert float(row[5]) == pytest.approx(summary["final_rel_error"], rel=1e-12)
    assert int(row[4]) == summary["iters"]


def test_sweep_cells_independent_of_order(tmp_path):
    # the cell seed derivation is counter-based, so a cell's seed does not
    # depend on which other cells run
    cfg_a = tmp_path / "a.json"
    write_json(cfg_a, sweep_config([3], [3.0], 2))
    out_a = tmp_path / "oa"
    main(["sweep", "--config", str(cfg_a), "--out", str(out_a)])
    rows_a = (out_a / "sweep.csv").read_text().strip().split("\n")[1:]
    seeds_a = [int(r.split(",")[3]) for r in rows_a]
    assert len(set(seeds_a)) == 2


def test_sweep_parallel_jobs_match_serial(tmp_path):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([3], [2.0, 3.0], 1))
    o1, o2 = tmp_path / "serial", tmp_path / "par"
    main(["sweep", "--config", str(cfg), "--out", str(o1)])
    main(["sweep", "--config", str(cfg), "--out", str(o2), "--jobs", "2"])
    strip = lambda p: [
        ",".join(line.split(",")[:6])  # drop elapsed_ms
        for line in (p / "sweep.csv").read_text().strip().split("\n")
    ]
    assert strip(o1) == strip(o2)


def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # A pool launches all of its max_workers at once, so --jobs beyond the cell count or the usable
    # CPUs would idle or oversubscribe.  The pool is faked: no process starts.
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([3], [2.0, 3.0], 1))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "8"]) == EXIT_OK
    assert pools == [2]
    write_json(cfg, sweep_config([3], [2.0, 3.0], 2))  # 4 cells on 3 usable CPUs
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o4"), "--jobs", "1000"]) == EXIT_OK
    assert pools == [2, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity call: the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o1"), "--jobs", "1000"]) == EXIT_OK
    assert pools == [2, 3, 1]


def run_sweep(tmp_path, problem, grid):
    doc = {"seed": 5, "problem": problem, "sweep": grid,
           "solver": {"step_size_constant": 0.5, "max_iters": 3000}}
    cfg = tmp_path / "sweep.json"
    write_json(cfg, doc)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    path = tmp_path / "o" / "sweep.csv"
    return code, path.read_text().splitlines() if path.exists() else None


def test_phase_retrieval_sweep(tmp_path):
    code, lines = run_sweep(tmp_path, {"kind": "phase_retrieval", "n": 16, "sparsity": 2},
                            {"m": [48, 96], "seeds": 2})
    assert code == EXIT_OK
    assert lines[0] == "m,seed,iters,rel_error,elapsed_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["48", "48", "96", "96"]


def test_sweep_writes_a_null_axis_value_as_an_empty_field(tmp_path):
    # lam null is the generator's default radius; trace.csv leaves a missing dist empty the same way.
    code, lines = run_sweep(tmp_path, {"kind": "phase_retrieval", "n": 16, "sparsity": 2, "m": 48},
                            {"lam": [None, 1.0]})
    assert code == EXIT_OK
    assert lines[0] == "lam,seed,iters,rel_error,elapsed_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["", "1.0"]


def test_synthetic_sweep_over_n(tmp_path):
    code, lines = run_sweep(tmp_path, {"kind": "synthetic", "r": 1, "m": 48}, {"n": [4, 6], "noise": 1e-3})
    assert code == EXIT_OK
    assert lines[0] == "n,seed,iters,rel_error,elapsed_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "6"]


def test_sweep_axes_follow_the_generator_signature(tmp_path, generator_calls):
    # Columns and cells take the generator's order, not the config's, and a list of noise levels is an axis.
    code, lines = run_sweep(tmp_path, {"kind": "synthetic", "m": 8},
                            {"noise": [0.0, 1e-3], "condition_number": [2], "r": [1], "n": [4]})
    assert code == EXIT_NUMERIC  # every cell refused by the recording generator
    assert lines[0] == "n,r,condition_number,noise,seed,iters,rel_error,elapsed_ms"
    assert [line.split(",")[:4] for line in lines[1:]] == [["4", "1", "2.0", "0.0"], ["4", "1", "2.0", "0.001"]]
    assert [kwargs["noise_norm"] for _, kwargs in generator_calls] == [0.0, 1e-3]


@pytest.mark.parametrize("problem, grid, message", [
    ({"kind": "phase_retrieval", "n": 16, "sparsity": 2, "m": 32}, {"q": [3]}, "'q'"),
    ({"kind": "phase_retrieval", "n": 16, "sparsity": 2}, {"m": [16, True]}, "invalid 'm'"),
    ({"kind": "phase_retrieval", "n": 16, "sparsity": 2, "m": 32}, {"m": [48]}, "'m'"),
    ({"kind": "qst", "q": 3, "r": 1, "c_sam": 2.0, "noise": 0.0}, {"noise": 1e-3}, "'noise'"),
    ({"q": 3}, {"r": [1]}, "missing key 'kind'"),
    ({"kind": "warp"}, {"r": [1]}, "unknown problem kind"),
], ids=["axis_not_read", "later_cell_bad", "key_in_both", "noise_in_both", "kind_missing", "kind_unknown"])
def test_sweep_refusals_exit_64_before_any_cell(tmp_path, capsys, generator_calls, problem, grid, message):
    code, lines = run_sweep(tmp_path, problem, grid)
    assert code == EXIT_USAGE and lines is None and generator_calls == []
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err


def test_config_directory_or_non_utf8_exits_64(tmp_path, capsys):
    folder = tmp_path / "cfg_dir"
    folder.mkdir()
    assert main(["solve", "--config", str(folder)]) == EXIT_USAGE
    assert str(folder) in capsys.readouterr().err
    binary = tmp_path / "cfg.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["solve", "--config", str(binary), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_tu_suite(tmp_path, capsys):
    code = main(["verify", "tu", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_tu.json").read_text())
    assert report["violations"] == 0
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["violations"] == 0


def test_verify_makes_its_output_directory(tmp_path):
    out = tmp_path / "deep" / "reports"
    assert main(["verify", "tu", "--out", str(out)]) == EXIT_OK
    assert (out / "report_tu.json").exists()


@pytest.mark.parametrize("command, doc", [
    ("sweep", dict(sweep_config([3], [2.0], 1), sweep={"q": "34", "r": [1], "c_sam": [2.0]})),
    ("solve", dict(QST_SOLVE_CONFIG, solver={"step_mode": "bogus"})),
    ("generate", dict(QST_SOLVE_CONFIG, problem={"kind": "warp"})),
], ids=["sweep_axis_string", "solve_solver_block", "generate_kind_unknown"])
def test_refused_config_leaves_no_output_directory(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    out = tmp_path / "refused" / "deep"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["a_file", "under_a_file"])
@pytest.mark.parametrize("command", ["solve", "sweep", "generate", "verify"])
def test_out_taken_by_a_file_exits_64_before_any_work(tmp_path, monkeypatch, capsys, command, nested):
    # Refused with the config checks: no instance generated, no solve, no sweep cell, no suite run.
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args or kwargs)
        raise AssertionError("work started before the output path was checked")

    for name in ("gen_qst", "projfgd_solve", "run_suite"):
        monkeypatch.setattr(f"fpgd.cli.{name}", no_work)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, sweep_config([1, 2], [2.0], 1) if command == "sweep" else QST_SOLVE_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["verify", "tu"] if command == "verify" else [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(taken / "sub" if nested else taken)]) == EXIT_USAGE
    assert f"{taken} exists and is not a directory" in capsys.readouterr().err
    assert calls == [] and taken.read_text() == ""


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


def test_sweep_failed_cell_recorded_in_row(tmp_path):
    # q=3 cannot supply m = round(10 * 8 * ln 8) distinct Paulis: the cell
    # fails, the failure lands in its row, and the sweep continues
    cfg = tmp_path / "sweep.json"
    write_json(cfg, sweep_config([3], [10.0, 3.0], 1))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    bad = lines[1].split(",")
    assert bad[4] == "-1" and bad[5] == "nan"
    good = lines[2].split(",")
    assert int(good[4]) > 0 and float(good[5]) < 1e-2


def test_fpgd_log_env_levels(tmp_path, monkeypatch, capsys):
    import logging

    cfg = tmp_path / "cfg.json"
    write_json(cfg, QST_SOLVE_CONFIG)
    for level in ("debug", "info", "error", "bogus"):
        monkeypatch.setenv("FPGD_LOG", level)
        logging.getLogger().handlers.clear()  # let basicConfig reapply
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / level)]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config fuzz: any JSON document maps to an exit code, never a traceback
# ---------------------------------------------------------------------------

_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(-3.0, 3.0) | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _block(keys, **plausible):
    """A JSON object holding any of ``keys``, each an arbitrary small value or a plausible one."""
    return st.fixed_dictionaries({}, optional={k: plausible.get(k, st.nothing()) | _values for k in keys})


_problems = _block(
    ["kind", "q", "r", "c_sam", "noise", "n", "sparsity", "m", "lam", "condition_number",
     "ensemble_file", "companion_file"],
    kind=st.sampled_from(["qst", "phase_retrieval", "synthetic", "files"]),
    q=st.integers(1, 3), r=st.integers(1, 2), c_sam=st.floats(0.5, 3.0),
)
_solvers = _block(
    ["algorithm", "max_iters", "tol", "step_size_constant", "step_mode", "record_truth_dist"],
    algorithm=st.sampled_from(["projfgd", "fgd"]),
    step_mode=st.sampled_from(["fixed_from_init", "adaptive_per_iter"]),
    record_truth_dist=st.booleans(),
)
_grids = _block(  # every problem key as an axis, beside the seed count
    ["seeds", "kind", "q", "r", "c_sam", "noise", "n", "sparsity", "m", "lam", "condition_number",
     "ensemble_file", "companion_file"],
    q=st.lists(st.integers(1, 3), max_size=3), r=st.lists(st.integers(1, 2), max_size=3),
    c_sam=st.lists(st.floats(0.5, 3.0), max_size=3), n=st.lists(st.integers(1, 8), max_size=3),
    sparsity=st.lists(st.integers(1, 3), max_size=3), m=st.lists(st.integers(1, 32), max_size=3),
    noise=st.floats(0.0, 1e-2) | st.lists(st.floats(0.0, 1e-2), max_size=3),
    lam=st.lists(st.none() | st.floats(0.5, 3.0), max_size=3),
    condition_number=st.lists(st.floats(1.0, 4.0), max_size=3),
)
_configs = st.fixed_dictionaries({}, optional={
    "seed": _values, "out": _values,
    "problem": _problems | _values, "solver": _solvers | _values, "sweep": _grids | _values,
})


@pytest.mark.parametrize("command", ["solve", "sweep", "generate"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_configs, seed=st.none() | st.integers(-2, 2))
def test_config_fuzz_maps_to_an_exit_code(tmp_path, monkeypatch, generator_calls, command, doc, seed):
    # The generators refuse every instance, so nothing is generated or solved:
    # what is left is the config loader and the command plumbing around it.
    work = tmp_path / "work"  # relative instance paths resolve here, where no file exists
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, doc)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) in (EXIT_OK, EXIT_NUMERIC, EXIT_MAX_ITERS, EXIT_USAGE)


# ---------------------------------------------------------------------------
# instance-file fuzz: a malformed ensemble.json / instance.json maps to an exit code
# ---------------------------------------------------------------------------

_DROP = object()
_INSTANCE_KEYS = (
    [("ensemble.json", key) for key in ("dim", "field", "operators", "y", "noise_norm")]
    + [("instance.json", key) for key in ("truth_factor", "constraint", "rank", "seed")]
    + [("constraint", key) for key in ("kind", "lam", "faithful")]
)


def solve_mutated_instance(tmp_path, where, key, value):
    """``fpgd solve`` on a saved q=1 QST instance whose ``key`` in ``where``
    (a file name, or ``"constraint"``) is set to ``value`` or, for ``_DROP``, removed.
    A callable ``value`` is given the block and returns the new value of ``key``."""
    gen_qst(q=1, r=1, c_sam=2.0).save(tmp_path / "ensemble.json", tmp_path / "instance.json")
    path = tmp_path / ("ensemble.json" if where == "ensemble.json" else "instance.json")
    doc = json.loads(path.read_text())
    block = doc["constraint"] if where == "constraint" else doc
    if value is _DROP:
        del block[key]
    else:
        block[key] = value(block) if callable(value) else value
    write_json(path, doc)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "problem": {"kind": "files", "ensemble_file": str(tmp_path / "ensemble.json"),
                    "companion_file": str(tmp_path / "instance.json")},
        "solver": {"max_iters": 50},
    })
    return main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])


def _rank_one_vectors_with_nan(doc):
    # The q=1 operators replaced by as many rank-one operators a a^H, one entry of the last a NaN.
    m = len(doc.pop("operators"))
    return [[[1.0, 0.0], [0.0, 0.5]]] * (m - 1) + [[[float("nan"), 0.0], [0.0, 0.5]]]


def _rank_one_vectors_under_dim(dim):
    # The q=1 operators replaced by as many sensing vectors of length 2, under a "dim" of ``dim``.
    def mutate(doc):
        doc["vectors"] = [[[1.0, 0.0], [0.0, 0.5]]] * len(doc.pop("operators"))
        return dim
    return mutate


def _no_operators(doc):
    # An ensemble of m = 0 operators and observations.
    doc["y"] = []
    return []


def _rank_above_n_with_factor(doc):
    # rank 3 for n = 2, with a truth_factor of the 2 x 3 shape it names.
    doc["truth_factor"] = [[0.5, 0.0]] * 6
    return 3


@pytest.mark.parametrize("where, key, value", [
    ("constraint", "lam", None),
    ("ensemble.json", "operators", 5),
    ("instance.json", "rank", _DROP),
    ("instance.json", "rank", -1),
    ("ensemble.json", "dim", float("inf")),
    ("ensemble.json", "dim", 10**6),  # refused before 10^12 reals per operator are allocated
    ("ensemble.json", "operators", [[[0, 0], [1, 0], [0, 0], [0, 0]]] * 3),  # not Hermitian
    ("ensemble.json", "y", lambda doc: doc["y"][:-1] + [float("nan")]),
    ("ensemble.json", "vectors", _rank_one_vectors_with_nan),
    ("instance.json", "truth_factor", lambda doc: [[float("inf"), 0.0]] + doc["truth_factor"][1:]),
    ("instance.json", "rank", _rank_above_n_with_factor),
    ("ensemble.json", "noise_norm", float("inf")),
    ("instance.json", "rank", True),
    ("instance.json", "seed", True),
    ("ensemble.json", "noise_norm", False),
    ("constraint", "lam", True),
    ("ensemble.json", "dim", _rank_one_vectors_under_dim(-1)),
    ("ensemble.json", "dim", _rank_one_vectors_under_dim(0)),
    ("instance.json", "rank", 1.5),
    ("ensemble.json", "dim", "2"),
    ("ensemble.json", "operators", _no_operators),
], ids=["lam_null", "operators_int", "rank_missing", "rank_negative", "dim_infinite", "dim_huge", "not_hermitian",
        "y_nan", "vectors_nan", "truth_factor_infinite", "rank_above_n", "noise_norm_infinite", "rank_bool",
        "seed_bool", "noise_norm_bool", "lam_bool", "dim_negative_vectors", "dim_zero_vectors",
        "rank_fractional", "dim_string", "operators_empty"])
def test_malformed_instance_file_exits_64_naming_it(tmp_path, capsys, where, key, value):
    assert solve_mutated_instance(tmp_path, where, key, value) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(tmp_path / "ensemble.json") in err
    assert str(tmp_path / "instance.json") in err and not (tmp_path / "out" / "summary.json").exists()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(_INSTANCE_KEYS), value=st.just(_DROP) | _values)
def test_instance_file_fuzz_maps_to_an_exit_code(tmp_path, target, value):
    # One top-level key of either file, or one constraint key, replaced by an
    # arbitrary small value or dropped.
    assert solve_mutated_instance(tmp_path, *target, value) in (
        EXIT_OK, EXIT_NUMERIC, EXIT_MAX_ITERS, EXIT_USAGE)
