"""Golden outputs: small CLI runs must reproduce committed files byte for byte.

The fixtures under ``tests/data/golden/<case>/`` hold ``trace.csv`` and
``summary.json`` (without the wall-clock ``elapsed_ms``) of ``fpgd solve``,
``ensemble.json`` / ``instance.json`` of ``fpgd generate``, ``sweep.csv``
of ``fpgd sweep`` (without its last column, the wall-clock ``elapsed_ms``),
and the ``report_<suite>.json`` of ``fpgd verify <suite> --seed 3`` for
every suite.
Rewrite them only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py tests/data/golden
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fpgd.cli import EXIT_OK, main
from fpgd.diagnostics import SUITE_NAMES

GOLDEN = Path(__file__).parent / "data" / "golden"

SOLVE_CASES = {
    "qst_q3_projfgd": {
        "seed": 1,
        "problem": {"kind": "qst", "q": 3, "r": 1, "c_sam": 3.0, "noise": 1e-3},
        "solver": {"algorithm": "projfgd", "step_size_constant": 0.5},
    },
    "phase_retrieval_n16_l1": {
        "seed": 2,
        "problem": {"kind": "phase_retrieval", "n": 16, "sparsity": 2, "m": 96},
        "solver": {"algorithm": "projfgd", "step_size_constant": 0.5, "max_iters": 3000},
    },
    "synthetic_n8_adaptive": {
        "seed": 3,
        "problem": {"kind": "synthetic", "n": 8, "r": 2, "m": 96, "noise": 1e-3},
        "solver": {
            "algorithm": "projfgd",
            "step_mode": "adaptive_per_iter",
            "step_size_constant": 0.5,
            "record_truth_dist": True,
            "max_iters": 3000,
        },
    },
    "synthetic_n8_fgd": {
        "seed": 4,
        "problem": {"kind": "synthetic", "n": 8, "r": 2, "m": 96, "noise": 1e-3},
        "solver": {"algorithm": "fgd", "step_size_constant": 0.5, "max_iters": 3000},
    },
}

GENERATE_CASES = {
    "generate_qst_q2": {
        "seed": 5,
        "problem": {"kind": "qst", "q": 2, "r": 1, "c_sam": 2.0, "noise": 1e-3},
    },
    "generate_synthetic_n4": {
        "seed": 6,
        "problem": {"kind": "synthetic", "n": 4, "r": 1, "m": 24, "noise": 1e-3},
    },
}

SWEEP_CASES = {
    "sweep_qst_q3": {
        "seed": 5,
        "sweep": {"q": [3], "r": [1], "c_sam": [2.0, 3.0], "seeds": 2, "noise": 1e-3},
        "solver": {"tol": 5e-6, "step_size_constant": 0.5},
    },
}

VERIFY_CASES = {"verify_seed3": {"seed": 3}}


def run_case(command, doc, workdir):
    """Run one CLI case in ``workdir``; returns {file name: bytes}."""
    workdir = Path(workdir)
    out = workdir / "out"
    if command == "verify":  # every suite, at the case's seed
        for suite in SUITE_NAMES:
            assert main(["verify", suite, "--seed", str(doc["seed"]), "--out", str(out)]) == EXIT_OK
        return {f"report_{suite}.json": (out / f"report_{suite}.json").read_bytes() for suite in SUITE_NAMES}
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    if command == "generate":
        return {name: (out / name).read_bytes() for name in ("ensemble.json", "instance.json")}
    if command == "sweep":
        lines = (out / "sweep.csv").read_text().splitlines()
        return {"sweep.csv": "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()}
    summary = json.loads((out / "summary.json").read_text())
    del summary["elapsed_ms"]
    return {
        "trace.csv": (out / "trace.csv").read_bytes(),
        "summary.json": (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode(),
    }


ALL_CASES = [
    (command, name, doc)
    for command, cases in (("solve", SOLVE_CASES), ("generate", GENERATE_CASES), ("sweep", SWEEP_CASES),
                           ("verify", VERIFY_CASES))
    for name, doc in cases.items()
]


def _relative_gap(new, old):
    if new == old:
        return 0.0
    if "" in (new, old):
        return float("inf")
    a, b = float(new), float(old)
    gap = abs(a - b) / max(abs(a), abs(b))
    return gap if np.isfinite(gap) else float("inf")


def _numbers(value):
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    else:
        yield value


def describe_difference(file_name, data, golden):
    """What a failed byte comparison changed: for a trace, both iteration
    counts and the worst relative difference per column; for a summary,
    the keys whose values differ; for the generated files, the worst
    relative difference of each key that changed."""
    if file_name in ("ensemble.json", "instance.json"):
        new, old = json.loads(data), json.loads(golden)
        changed = [key for key in sorted(set(new) | set(old)) if new.get(key) != old.get(key)]
        return "; ".join(
            f"{key} worst relative difference "
            f"{max(map(_relative_gap, _numbers(new[key]), _numbers(old[key])), default=0.0):.3g}"
            if isinstance(new.get(key), list) and isinstance(old.get(key), list)
            else f"{key} differs"
            for key in changed
        )
    if file_name == "summary.json":
        new, old = json.loads(data), json.loads(golden)
        return "; ".join(
            f"{key} {new.get(key)!r} vs golden {old.get(key)!r}"
            for key in sorted(set(new) | set(old))
            if new.get(key) != old.get(key)
        )
    if file_name != "trace.csv":
        return "bytes differ"
    header, *new_rows = [line.split(",") for line in data.decode().splitlines()]
    old_rows = [line.split(",") for line in golden.decode().splitlines()[1:]]
    worst = ", ".join(
        f"{column} {max((_relative_gap(a[k], b[k]) for a, b in zip(new_rows, old_rows)), default=0.0):.3g}"
        for k, column in enumerate(header[1:], start=1)
    )
    return (
        f"iterations {len(new_rows)} vs golden {len(old_rows)}; "
        f"worst relative difference per column: {worst}"
    )


@pytest.mark.parametrize("command,name,doc", ALL_CASES, ids=[c[1] for c in ALL_CASES])
def test_outputs_match_golden_files(command, name, doc, tmp_path):
    outputs = run_case(command, doc, tmp_path)
    for file_name, data in outputs.items():
        golden = (GOLDEN / name / file_name).read_bytes()
        assert data == golden, (
            f"{name}/{file_name} differs: {describe_difference(file_name, data, golden)}"
        )


def test_sweep_rows_do_not_depend_on_grid_key_order(tmp_path):
    # The golden grid with its keys reversed and c_sam as JSON integers writes the same bytes.
    doc = SWEEP_CASES["sweep_qst_q3"]
    grid = {key: doc["sweep"][key] for key in reversed(doc["sweep"])}
    grid["c_sam"] = [int(c_sam) for c_sam in grid["c_sam"]]
    outputs = run_case("sweep", dict(doc, sweep=grid), tmp_path)
    assert outputs["sweep.csv"] == (GOLDEN / "sweep_qst_q3" / "sweep.csv").read_bytes()


def write_fixtures(root):
    """Rewrite every fixture under ``root``; prints each one whose bytes
    changed, with what changed, each new one, and the count of unchanged ones."""
    unchanged = 0
    for command, name, doc in ALL_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(command, doc, tmp)
        (Path(root) / name).mkdir(parents=True, exist_ok=True)
        for file_name, data in outputs.items():
            path = Path(root) / name / file_name
            if path.is_file():
                old = path.read_bytes()
                if old == data:
                    unchanged += 1
                    continue
                print(f"rewrote {name}/{file_name}: {describe_difference(file_name, data, old)}")
            else:
                print(f"wrote {name}/{file_name}")
            path.write_bytes(data)
    print(f"{unchanged} fixtures unchanged")


if __name__ == "__main__":
    write_fixtures(sys.argv[1])
