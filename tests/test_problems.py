"""Problem generators: Pauli operators, QST, phase retrieval, synthetic."""

import dataclasses
import json

import numpy as np
import pytest
from oracles import dense_stack

from fpgd import problems
from fpgd.linalg import factor_from_psd, project_frobenius_ball, project_l1_ball
from fpgd.objective import MeasurementEnsemble, Objective, RankOne, _decode_array, _encode_array
from fpgd.problems import (
    ConstraintSet,
    ProblemInstance,
    frobenius_ball,
    gen_phase_retrieval,
    gen_qst,
    gen_synthetic,
    l1_ball,
    pauli_operator,
    unconstrained,
)
from fpgd.solver import SolverConfig

SIGMA = {
    "0": np.eye(2, dtype=complex),
    "1": np.array([[0, 1], [1, 0]], dtype=complex),
    "2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "3": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(index):
    """Explicit elementwise Kronecker chain, independent of np.kron."""
    mats = [SIGMA[d] for d in index]
    size = 2 ** len(mats)
    out = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            val = 1.0 + 0j
            ii, jj = i, j
            for m in reversed(mats):
                val *= m[ii % 2, jj % 2]
                ii //= 2
                jj //= 2
            out[i, j] = val
    return out


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------


def test_pauli_sigma_z():
    assert np.allclose(pauli_operator(1, "3", normalize=False), np.diag([1.0, -1.0]))


def test_pauli_identity():
    assert np.allclose(pauli_operator(1, "0", normalize=False), np.eye(2))


def test_pauli_normalization_and_trace():
    op = pauli_operator(3, "123")
    assert np.linalg.norm(op) == pytest.approx(1.0)
    assert abs(np.trace(op)) < 1e-12  # traceless unless all digits are 0
    assert np.trace(pauli_operator(2, "00")).real == pytest.approx(2.0)  # 4/sqrt(4)


def test_pauli_matches_kron_oracle():
    for index in ("13", "22", "301"):
        q = len(index)
        got = pauli_operator(q, index, normalize=False)
        assert np.allclose(got, kron_oracle(index), atol=1e-12)


def test_pauli_result_is_a_fresh_array():
    # Scaling a q=1 result in place must not change the Paulis built after it.
    for digit in "0123":
        p = pauli_operator(1, digit, normalize=False)
        p *= 2
    assert np.array_equal(pauli_operator(1, "1", normalize=False), kron_oracle("1"))
    assert np.array_equal(pauli_operator(2, "10"), kron_oracle("10") / 2)


def test_pauli_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli_operator(2, "14")
    with pytest.raises(ValueError):
        pauli_operator(2, "012")
    with pytest.raises(ValueError):
        pauli_operator(13, "0" * 13)


@pytest.mark.parametrize("q", [2, 3])
def test_pauli_family_pairwise_orthonormal(q):
    # exhaustive: all 4^q normalized operators are orthonormal under the
    # trace inner product
    strings = []
    for v in range(4**q):
        digits = []
        for _ in range(q):
            digits.append(str(v % 4))
            v //= 4
        strings.append("".join(reversed(digits)))
    flat = np.stack([pauli_operator(q, s).ravel() for s in strings])
    gram = np.real(flat.conj() @ flat.T)
    assert np.allclose(gram, np.eye(4**q), atol=1e-12)


# ---------------------------------------------------------------------------
# QST generator
# ---------------------------------------------------------------------------


def test_qst_measurement_count():
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=0.0, seed=0)
    assert inst.objective.ensemble.m == 50  # round(3 * 1 * 8 * ln 8)


def test_qst_noiseless_consistency():
    inst = gen_qst(q=3, r=2, c_sam=1.5, noise_norm=0.0, seed=1)
    assert inst.objective.value(inst.truth_x) == 0.0


def test_qst_truth_structure():
    inst = gen_qst(q=3, r=2, c_sam=1.5, noise_norm=1e-3, seed=2)
    assert np.trace(inst.truth_x).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(
        inst.truth_x - inst.truth_factor @ inst.truth_factor.conj().T
    ) < 1e-10
    assert inst.constraint.kind == "frobenius_ball"
    assert inst.constraint.lam == 1.0
    assert inst.constraint.faithful
    assert inst.constraint.contains(inst.truth_factor)
    w = np.linalg.eigvalsh(inst.truth_x)
    assert w.min() > -1e-12


def test_qst_noise_norm_exact():
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=3)
    clean = inst.objective.ensemble.apply(inst.truth_x)
    eta = inst.objective.ensemble.y - clean
    assert np.linalg.norm(eta) == pytest.approx(1e-3, rel=1e-12)


def test_qst_pauli_strings_distinct():
    inst = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=0.0, seed=4)
    strings = inst.meta["pauli_strings"]
    assert len(strings) == len(set(strings))


@pytest.mark.parametrize("q", [3, 5])
def test_qst_operators_are_scaled_paulis_bit_for_bit(q):
    # Every byte (signed zeros included) must equal scale * pauli_operator(q, s),
    # the normalized kron product scaled.  m = 50 of 64 strings (q = 3) are drawn
    # by permutation, m = 333 of 1024 (q = 5) by rejection, zero-padded ones among them.
    inst = gen_qst(q=q, r=1, c_sam=3.0, noise_norm=0.0, seed=4)
    ens = inst.objective.ensemble
    strings = inst.meta["pauli_strings"]
    assert all(len(s) == q for s in strings)
    scale = (2**q) ** 1.5 / np.sqrt(ens.m)
    expected = np.stack([scale * pauli_operator(q, s) for s in strings])
    assert dense_stack(ens).tobytes() == expected.tobytes()


def test_qst_rejects_oversampling():
    with pytest.raises(ValueError):
        gen_qst(q=2, r=2, c_sam=5.0, noise_norm=0.0, seed=0)  # m > 4^q = 16


def test_qst_determinism():
    a = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=11)
    b = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=11)
    c = gen_qst(q=3, r=1, c_sam=3.0, noise_norm=1e-3, seed=12)
    assert np.array_equal(dense_stack(a.objective.ensemble), dense_stack(b.objective.ensemble))
    assert np.array_equal(a.objective.ensemble.y, b.objective.ensemble.y)
    assert np.array_equal(a.truth_x, b.truth_x)
    assert not np.array_equal(a.objective.ensemble.y, c.objective.ensemble.y)


def test_trace_frobenius_faithfulness_map():
    # trace(U U^H) <= 1 <-> ||U||_F^2 <= 1, and factored tops of
    # trace-feasible PSD matrices are Frobenius-feasible
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        u *= rng.uniform(0, 1) / np.linalg.norm(u)
        assert np.trace(u @ u.conj().T).real <= 1.0 + 1e-12
    for _ in range(100):
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = g @ g.conj().T
        x /= np.trace(x).real / rng.uniform(0.2, 1.0)  # trace <= 1
        top = factor_from_psd(x, 2)
        assert np.linalg.norm(top) ** 2 <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Phase retrieval generator
# ---------------------------------------------------------------------------


def test_phase_retrieval_single_unit_measurement():
    # |<e1, e1>|^2 = 1: rank-one operator algebra on a hand-built instance
    e1 = np.zeros(3, dtype=complex)
    e1[0] = 1.0
    op = np.outer(e1, e1.conj())[None, :, :]
    ens = MeasurementEnsemble(op, np.array([1.0]), 0.0)
    x = np.outer(e1, e1.conj())
    assert Objective(ens).value(x) == 0.0
    assert ens.apply(x)[0] == pytest.approx(1.0)


def test_phase_retrieval_instance_structure():
    inst = gen_phase_retrieval(n=16, sparsity=3, m=64, noise_norm=1e-3, seed=0)
    assert inst.rank == 1
    assert inst.constraint.kind == "l1_ball"
    assert not inst.constraint.faithful
    x_norm = np.abs(inst.truth_factor).sum()
    assert inst.constraint.lam == pytest.approx(1.2 * x_norm)
    assert np.count_nonzero(np.abs(inst.truth_factor) > 1e-12) == 3
    assert np.linalg.norm(inst.truth_factor) == pytest.approx(1.0)
    # eval at truth = noise-only residual
    assert inst.objective.value(inst.truth_x) <= (1e-3) ** 2 * (1 + 1e-9)


def test_phase_retrieval_keeps_sensing_vectors():
    inst = gen_phase_retrieval(n=12, sparsity=2, m=40, noise_norm=0.0, seed=3)
    ens = inst.objective.ensemble
    assert isinstance(ens.operator, RankOne)
    assert (ens.m, ens.dim, ens.field, ens.dtype) == (40, 12, "complex", np.dtype(complex))
    # y_i = |<a_i, x*>|^2 through the materialized operator stack
    stack = dense_stack(ens)
    assert stack.shape == (40, 12, 12)
    x = inst.truth_x
    naive = np.array([np.real(np.trace(stack[k] @ x)) for k in range(40)])
    assert np.allclose(ens.y, naive, rtol=1e-12, atol=0.0)


def test_phase_retrieval_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_phase_retrieval(n=4, sparsity=5, m=8)
    with pytest.raises(ValueError):
        gen_phase_retrieval(n=4, sparsity=2, m=0)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_flat_spectrum():
    inst = gen_synthetic(n=8, r=3, m=50, condition_number=1.0, noise_norm=0.0, seed=0)
    s = np.linalg.svd(inst.truth_factor, compute_uv=False)
    assert s[0] == pytest.approx(s[-1], rel=1e-12)


def test_synthetic_condition_number():
    inst = gen_synthetic(n=8, r=3, m=50, condition_number=4.0, noise_norm=0.0, seed=1)
    w = np.sort(np.linalg.eigvalsh(inst.truth_x))[::-1]
    assert w[0] / w[2] == pytest.approx(4.0, rel=1e-10)
    assert np.trace(inst.truth_x) == pytest.approx(1.0)


def test_synthetic_noiseless_consistency():
    inst = gen_synthetic(n=8, r=2, m=50, condition_number=2.0, noise_norm=0.0, seed=2)
    assert inst.objective.value(inst.truth_x) == 0.0
    assert inst.objective.ensemble.field == "real"


def test_synthetic_rejects_bad_condition_number():
    with pytest.raises(ValueError):
        gen_synthetic(n=8, r=2, m=50, condition_number=0.5)


def test_synthetic_determinism():
    a = gen_synthetic(n=6, r=2, m=20, condition_number=2.0, noise_norm=1e-3, seed=9)
    b = gen_synthetic(n=6, r=2, m=20, condition_number=2.0, noise_norm=1e-3, seed=9)
    assert np.array_equal(dense_stack(a.objective.ensemble), dense_stack(b.objective.ensemble))
    assert np.array_equal(a.objective.ensemble.y, b.objective.ensemble.y)


# ---------------------------------------------------------------------------
# Constraint sets and instance serialization
# ---------------------------------------------------------------------------


def test_constraint_xi_semantics():
    rng = np.random.default_rng(6)
    ball = frobenius_ball(1.0)
    inside = rng.standard_normal((3, 2)) * 0.1
    _, xi = ball.project(inside)
    assert xi == 1.0
    outside = rng.standard_normal((3, 2)) * 10.0
    proj, xi = ball.project(outside)
    assert 0.0 < xi < 1.0
    assert np.linalg.norm(proj) == pytest.approx(1.0)

    cone = l1_ball(1.0)
    proj, xi = cone.project(outside)
    assert 0.0 < xi <= 1.0
    assert np.abs(proj).sum() <= 1.0 + 1e-10

    free = unconstrained()
    out, xi = free.project(outside)
    assert out is outside and xi == 1.0


@pytest.mark.parametrize("constraint", [unconstrained(), frobenius_ball(0.5), l1_ball(2.0)])
def test_constraint_json_roundtrip(constraint):
    doc = constraint.to_json_dict()
    assert ConstraintSet.from_json_dict(doc) == constraint
    assert ConstraintSet.from_json_dict(doc).to_json_dict() == doc


def test_constraint_from_json_takes_faithfulness_from_kind():
    # A companion file cannot declare the unfaithful l1 ball faithful.
    loaded = ConstraintSet.from_json_dict({"kind": "l1_ball", "lam": 1.0, "faithful": True})
    assert loaded == l1_ball(1.0) and not loaded.faithful


def test_constraint_faithfulness_is_derived_not_stored():
    # Only kind and lam are fields: no caller can declare the l1 ball faithful.
    assert [f.name for f in dataclasses.fields(ConstraintSet)] == ["kind", "lam"]
    with pytest.raises(TypeError):
        ConstraintSet("l1_ball", 1.0, True)
    assert not ConstraintSet("l1_ball", 1.0).faithful
    assert ConstraintSet("frobenius_ball", 1.0).faithful and unconstrained().faithful
    assert l1_ball(1.0).to_json_dict() == {"kind": "l1_ball", "lam": 1.0, "faithful": False}


@pytest.mark.parametrize(
    "doc",
    [{"kind": "box", "lam": 1.0, "faithful": True},
     {"kind": "frobenius_ball", "lam": 0.0, "faithful": True},
     {"kind": "l1_ball", "lam": -1.0, "faithful": False}],
    ids=["kind", "frobenius_lam", "l1_lam"],
)
def test_constraint_from_json_refuses_bad_kind_or_radius(doc):
    with pytest.raises(ValueError):
        ConstraintSet.from_json_dict(doc)


NAN = float("nan")
SIGN_CHECKS = {
    "solver_tol": lambda: SolverConfig(rank=1, tol=NAN),
    "solver_max_iters_negative": lambda: SolverConfig(rank=1, max_iters=-1),
    "frobenius_ball": lambda: frobenius_ball(NAN),
    "l1_ball": lambda: l1_ball(NAN),
    "constraint_json": lambda: ConstraintSet.from_json_dict({"kind": "l1_ball", "lam": NAN}),
    "project_frobenius_ball": lambda: project_frobenius_ball(np.ones((3, 1)), NAN),
    "project_l1_ball": lambda: project_l1_ball(np.ones((3, 1)), NAN),
    "ensemble_noise_norm": lambda: MeasurementEnsemble(np.eye(2)[None], [1.0], NAN),
    "qst_noise_norm": lambda: gen_qst(q=1, r=1, c_sam=2.0, noise_norm=NAN),
    "synthetic_condition_number": lambda: gen_synthetic(n=4, r=2, m=8, condition_number=NAN),
}


@pytest.mark.parametrize("name", sorted(SIGN_CHECKS))
def test_sign_checks_refuse_nan(name):
    # Written as ``not x > 0``: a NaN fails the check instead of slipping past ``x <= 0``.
    with pytest.raises(ValueError, match="must be"):
        SIGN_CHECKS[name]()


@pytest.mark.parametrize("kind", ["qst", "synthetic", "phase_retrieval"])
def test_instance_roundtrip(tmp_path, kind):
    if kind == "qst":
        inst = gen_qst(q=3, r=2, c_sam=1.5, noise_norm=1e-3, seed=13)
    elif kind == "synthetic":
        inst = gen_synthetic(n=6, r=2, m=20, condition_number=2.0, noise_norm=1e-3, seed=13)
    else:
        inst = gen_phase_retrieval(n=8, sparsity=2, m=24, noise_norm=1e-3, seed=13)
    ens_path = tmp_path / "ensemble.json"
    comp_path = tmp_path / "instance.json"
    inst.save(ens_path, comp_path)
    back = ProblemInstance.load(ens_path, comp_path)
    assert np.array_equal(back.truth_x, inst.truth_x)
    assert np.array_equal(back.truth_factor, inst.truth_factor)
    assert back.rank == inst.rank
    assert back.seed == inst.seed
    assert back.constraint == inst.constraint
    x = inst.truth_x
    assert back.objective.value(x) == inst.objective.value(x)


def test_instance_derives_truth_x_and_rank_from_the_factor():
    names = [f.name for f in dataclasses.fields(ProblemInstance)]
    assert names == ["objective", "truth_factor", "constraint", "seed", "meta"]
    inst = gen_synthetic(n=6, r=2, m=20, condition_number=2.0, noise_norm=0.0, seed=13)
    assert inst.rank == 2
    assert inst.objective.value(inst.truth_x) == 0.0


def test_companion_has_no_truth_and_old_companions_still_load(tmp_path):
    inst = gen_qst(q=3, r=2, c_sam=1.5, noise_norm=1e-3, seed=13)
    ens_path = tmp_path / "ensemble.json"
    comp_path = tmp_path / "instance.json"
    inst.save(ens_path, comp_path)
    doc = json.loads(comp_path.read_text())
    assert "truth" not in doc
    # Older companions also stored X* = U* U*^H, symmetrized, as an n x n "truth";
    # the X* derived on load is bit-equal to it.
    x = inst.truth_factor @ inst.truth_factor.conj().T
    doc["truth"] = _encode_array(0.5 * (x + x.conj().T))
    comp_path.write_text(json.dumps(doc))
    back = ProblemInstance.load(ens_path, comp_path)
    stored = _decode_array(doc["truth"], True, (inst.dim, inst.dim))
    assert back.truth_x.tobytes() == stored.tobytes()


# ---------------------------------------------------------------------------
# Memory guard: sizes are computed, never allocated
# ---------------------------------------------------------------------------


@pytest.fixture
def eight_gib_available(monkeypatch):
    monkeypatch.setattr(problems, "_mem_available_bytes", lambda: 8 * 2**30)


def test_qst_refuses_stack_beyond_available_memory(eight_gib_available):
    # q=12: m = round(3 * 4096 * ln 4096) Pauli operators of 4096^2 real degrees of freedom
    m = int(round(3.0 * 4096 * np.log(4096)))
    need = 8 * m * 4096**2
    assert need > 10 * 2**40  # ~13.7 TB
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        gen_qst(q=12, r=1, c_sam=3.0, seed=0)


def test_synthetic_refuses_stack_beyond_available_memory(eight_gib_available):
    need = 8 * 100_000 * (1024 * 1025 // 2)  # n(n+1)/2 reals per symmetric operator
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        gen_synthetic(n=1024, r=1, m=100_000, seed=0)


def test_qst_guard_counts_the_packed_rows(monkeypatch):
    # q=5, m = round(3 * 32 * ln 32) = 333: 8 * 333 * 32^2 = 2727936 bytes packed,
    # which fits 4 MiB; the complex (m, n, n) stack (5455872 bytes) would not.
    monkeypatch.setattr(problems, "_mem_available_bytes", lambda: 4 * 2**20)
    assert gen_qst(q=5, r=1, c_sam=3.0, seed=0).objective.ensemble.m == 333
    monkeypatch.setattr(problems, "_mem_available_bytes", lambda: 2 * 2**20)
    with pytest.raises(ValueError, match="needs 2727936 bytes"):
        gen_qst(q=5, r=1, c_sam=3.0, seed=0)


def test_memory_guard_passes_fitting_and_unknown_sizes(monkeypatch):
    monkeypatch.setattr(problems, "_mem_available_bytes", lambda: 16 * 50 * 8**2)
    problems._require_fits(16 * 50 * 8**2, "stack")  # exactly fits
    with pytest.raises(ValueError, match="stack needs"):
        problems._require_fits(16 * 51 * 8**2, "stack")
    monkeypatch.setattr(problems, "_mem_available_bytes", lambda: None)
    problems._require_fits(16 * 10**9 * 4096**2, "stack")  # unknown budget: no check


def test_mem_available_bytes_reads_meminfo_or_none():
    available = problems._mem_available_bytes()
    assert available is None or (isinstance(available, int) and available > 0)
