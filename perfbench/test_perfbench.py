"""Tests of the benchmark itself, mostly at smoke size.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batch  # noqa: E402
import spans  # noqa: E402

SMOKE = {
    "qst": dataclasses.replace(
        batch.WORKLOADS["qst_q7_dense"],
        gen_kwargs=dict(q=4, r=1, c_sam=3.0, noise_norm=1e-3),
        min_solver_cover=0.0,
    ),
    "phase_retrieval": dataclasses.replace(
        batch.WORKLOADS["phase_retrieval_l1"],
        gen_kwargs=dict(n=24, sparsity=3, m=192, noise_norm=0.0),
    ),
    "verify": dataclasses.replace(batch.WORKLOADS["verify_suites"], suites=("procrustes", "xi")),
}


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_tracing_leaves_results_bit_identical(kind):
    plain = batch.run_batch(SMOKE[kind], seed=3, traced=False)
    traced = batch.run_batch(SMOKE[kind], seed=3, traced=True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["iters_total"] > 0
    assert traced["iters_total"] == plain["iters_total"]
    assert traced["layers"]["solver.iters"] == plain["iters_total"]
    if kind != "verify":
        assert traced["rel_error_max"] == plain["rel_error_max"]


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_traced_counts_repeat_exactly(kind):
    first = batch.run_batch(SMOKE[kind], seed=1, traced=True)["layers"]
    second = batch.run_batch(SMOKE[kind], seed=1, traced=True)["layers"]
    for name in spans.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["objective.apply_calls"] > 0
    if kind == "verify":
        assert first["diagnostics.trials"] > 0
        assert first["cli.main_s"] > first["diagnostics.suite_s.xi"] > 0
    if kind == "phase_retrieval":
        assert first["linalg.project_l1_calls"] == first["problems.project_calls"] > 0


def test_tracer_patches_names_callers_use_and_restores_them():
    import fpgd.cli  # noqa: F401
    from fpgd import linalg, solver

    original = linalg.spectral_norm
    tracer = spans.Tracer(spans.FPGD_LAYERS)
    with tracer:
        assert solver.spectral_norm is linalg.spectral_norm is not original
        linalg.procrustes_dist(np.eye(3, 2), np.eye(3, 2))
    assert solver.spectral_norm is linalg.spectral_norm is original
    # procrustes_dist calls procrustes_align: one span for the layer
    assert tracer.totals("linalg.procrustes")[2] == 1


def test_memory_precheck_uses_computed_sizes():
    qst = batch.WORKLOADS["qst_q7_dense"]
    need = batch.qst_footprint_bytes(**qst.gen_kwargs)
    assert need == 3 * 16 * 1863 * 128**2 + batch.BASE_FOOTPRINT
    assert batch.memory_precheck(qst, need) is None
    assert str(need) in batch.memory_precheck(qst, need - 1)
    assert batch.memory_precheck(batch.WORKLOADS["phase_retrieval_l1"], 0) is None
    # 4^12-sized operators cannot fit anywhere: the batch fails before allocating.
    huge = dataclasses.replace(qst, gen_kwargs=dict(qst.gen_kwargs, q=12))
    result = batch.run_batch(huge, seed=0, traced=False)
    assert result["attempted"] == 2
    assert result["failures"][0].startswith("memory_precheck: needs ")


def test_qst_q7_seed0_takes_58_iterations():
    qst = batch.WORKLOADS["qst_q7_dense"]
    if batch.memory_precheck(qst, batch.mem_available_bytes()) is not None:
        pytest.skip("not enough memory for the q=7 dense operator stack")
    from fpgd import problems, solver

    inst = problems.gen_qst(**qst.gen_kwargs, seed=batch.instance_seeds(0, qst.instances)[0])
    _, trace = solver.projfgd_solve(inst, solver.SolverConfig(rank=1, **qst.solver_kwargs))
    assert trace.status == "converged"
    assert trace.n_iters == 58


def test_run_fails_without_program_sources():
    batch.OUT_DIR.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=batch.OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            command + ["--workload", "verify_suites", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    import run
    from fpgd.diagnostics import SUITE_NAMES

    assert spans.SUITES == SUITE_NAMES

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == {**{n: spans.LAYER_UNITS[n] for n in spans.JSON_LAYERS}, "trace.overhead_s": "s"}
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(batch.WORKLOADS)
