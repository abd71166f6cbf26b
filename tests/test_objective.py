"""Sensing objective: values, gradients, constants, serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from oracles import dense_stack, kron_pauli, rank_one_adjoint, rank_one_apply

from fpgd import linalg
from fpgd.diagnostics import fd_factored_gradient, fd_gradient
from fpgd.linalg import gaussian, trace_inner
from fpgd.objective import DenseStack, MeasurementEnsemble, Objective, RankOne
from fpgd.problems import gen_phase_retrieval, gen_qst, gen_synthetic


def random_ensemble(rng, n, m, complex_field=False, noise=0.0):
    g = rng.standard_normal((m, n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((m, n, n))
    ops = 0.5 * (g + np.transpose(g.conj(), (0, 2, 1)))
    y = rng.standard_normal(m)
    return MeasurementEnsemble(ops, y, noise)


def random_hermitian(rng, n, complex_field=False):
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------


def test_value_zero_residual():
    rng = np.random.default_rng(0)
    ens = random_ensemble(rng, 4, 6)
    x = random_hermitian(rng, 4)
    exact = MeasurementEnsemble(dense_stack(ens), ens.apply(x), 0.0)
    assert Objective(exact).value(x) == 0.0


def test_value_identity_operator():
    ens = MeasurementEnsemble(np.eye(2)[None, :, :], np.array([0.0]), 0.0)
    assert Objective(ens).value(np.eye(2)) == pytest.approx(4.0)  # trace 2, squared


def test_value_matches_naive_summation():
    rng = np.random.default_rng(1)
    for complex_field in (False, True):
        ens = random_ensemble(rng, 5, 8, complex_field)
        obj = Objective(ens)
        hermitian = random_hermitian(rng, 5, complex_field)
        general = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for x in (hermitian, general):
            naive = sum(
                (np.real(np.trace(dense_stack(ens)[k] @ x)) - ens.y[k]) ** 2
                for k in range(ens.m)
            )
            assert obj.value(x) == pytest.approx(naive, rel=1e-12)


def test_value_dimension_mismatch():
    rng = np.random.default_rng(2)
    obj = Objective(random_ensemble(rng, 4, 3))
    with pytest.raises(ValueError):
        obj.value(np.eye(5))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_grad_zero_at_interpolating_point():
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, 4, 6)
    x = random_hermitian(rng, 4)
    obj = Objective(MeasurementEnsemble(dense_stack(ens), ens.apply(x), 0.0))
    assert np.allclose(obj.grad(x), 0.0, atol=1e-12)


def test_grad_at_origin():
    rng = np.random.default_rng(4)
    ens = random_ensemble(rng, 4, 6)
    obj = Objective(ens)
    expected = -2.0 * np.einsum("k,kij->ij", ens.y, dense_stack(ens))
    assert np.allclose(obj.grad(np.zeros((4, 4))), expected, atol=1e-12)


@pytest.mark.parametrize("complex_field", [False, True])
def test_grad_matches_finite_differences(complex_field):
    rng = np.random.default_rng(5)
    obj = Objective(random_ensemble(rng, 4, 7, complex_field))
    for _ in range(5):
        x = random_hermitian(rng, 4, complex_field)
        grad = obj.grad(x)
        fd = fd_gradient(obj, x)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.parametrize("complex_field", [False, True])
def test_factored_grad_matches_finite_differences(complex_field):
    # the Euclidean gradient of g(U) = f(U U^H) is exactly twice the
    # factored gradient the solver applies
    rng = np.random.default_rng(6)
    obj = Objective(random_ensemble(rng, 4, 7, complex_field))
    for _ in range(5):
        u = rng.standard_normal((4, 2))
        if complex_field:
            u = u + 1j * rng.standard_normal((4, 2))
        gu = obj.factored_grad(u)
        fd = fd_factored_gradient(obj, u)
        assert np.linalg.norm(fd / 2.0 - gu) <= 1e-6 * np.linalg.norm(gu)


def test_factored_grad_trivial_points():
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, 4, 6)
    u_star = rng.standard_normal((4, 2))
    x_star = u_star @ u_star.T
    obj = Objective(MeasurementEnsemble(dense_stack(ens), ens.apply(x_star), 0.0))
    assert np.allclose(obj.factored_grad(np.zeros((4, 2))), 0.0)
    assert np.allclose(obj.factored_grad(u_star), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# smoothness / strong convexity estimates
# ---------------------------------------------------------------------------


def test_smoothness_scalar_case():
    ens = MeasurementEnsemble(np.ones((1, 1, 1)), np.array([1.0]), 0.0)
    assert Objective(ens).smoothness() == pytest.approx(2.0, rel=1e-6)


def test_smoothness_orthonormal_family():
    # all 16 normalized two-qubit Paulis form an orthonormal family
    strings = [f"{a}{b}" for a in "0123" for b in "0123"]
    ops = np.stack([kron_pauli(s) for s in strings])
    ens = MeasurementEnsemble(ops, np.zeros(16), 0.0)
    assert Objective(ens).smoothness() == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_smoothness_of_qst_is_twice_the_squared_gain(q):
    # Distinct unit-Frobenius Paulis are orthonormal, so A A* = scale^2 I with
    # the gain scale = n^{3/2} / sqrt(m), and L_hat = 2 scale^2.
    inst = gen_qst(q=q, r=1, c_sam=2.0, noise_norm=0.0, seed=q)
    n, m = inst.dim, inst.objective.ensemble.m
    assert inst.objective.smoothness() == pytest.approx(2.0 * n**3 / m, rel=1e-6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_qst_ensemble_is_a_scaled_isometry(q):
    # A(A*(z)) = (n^3 / m) z: the sampled Pauli codes are distinct and tr(P_s P_t) = n delta_st,
    # so this also checks that the sampler draws no code twice.  No dense matrix is formed.
    ens = gen_qst(q=q, r=1, c_sam=2.0, noise_norm=0.0, seed=q).objective.ensemble
    gain = ens.dim**3 / ens.m
    z = np.random.default_rng(q).standard_normal(ens.m)
    assert np.max(np.abs(ens.apply(ens.adjoint(z)) - gain * z)) <= 1e-14 * gain * np.max(np.abs(z))


@pytest.mark.parametrize("complex_field", [False, True])
def test_smoothness_matches_dense_gram_oracle(complex_field):
    rng = np.random.default_rng(8)
    ens = random_ensemble(rng, 5, 12, complex_field)
    flat = dense_stack(ens).reshape(ens.m, -1)
    gram = np.real(flat.conj() @ flat.T)  # m x m overlap matrix
    dense = 2.0 * np.max(np.linalg.eigvalsh(gram))
    assert Objective(ens).smoothness() == pytest.approx(dense, rel=1e-3)


def test_smoothness_certificate():
    rng = np.random.default_rng(9)
    obj = Objective(random_ensemble(rng, 4, 10))
    l_hat = obj.smoothness()
    for _ in range(500):
        x = random_hermitian(rng, 4)
        y = random_hermitian(rng, 4)
        lhs = np.linalg.norm(obj.grad(x) - obj.grad(y))
        assert lhs <= l_hat * (1 + 1e-3) * np.linalg.norm(x - y) + 1e-12


def test_strong_convexity_below_smoothness():
    rng = np.random.default_rng(10)
    obj = Objective(random_ensemble(rng, 6, 40))
    mu = obj.strong_convexity(2)
    assert 0.0 < mu <= obj.smoothness() * (1 + 1e-9)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        Objective(MeasurementEnsemble(np.zeros((0, 3, 3)), np.zeros(0), 0.0))


# ---------------------------------------------------------------------------
# adjoint and RIP report
# ---------------------------------------------------------------------------


def test_adjoint_consistency():
    rng = np.random.default_rng(11)
    for complex_field in (False, True):
        ens = random_ensemble(rng, 5, 9, complex_field)
        for _ in range(20):
            x = random_hermitian(rng, 5, complex_field)
            z = rng.standard_normal(9)
            lhs = float(ens.apply(x) @ z)
            rhs = trace_inner(x, ens.adjoint(z))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("complex_field", [False, True])
def test_ensemble_json_roundtrip(tmp_path, complex_field):
    rng = np.random.default_rng(12)
    ens = random_ensemble(rng, 4, 5, complex_field, noise=1e-3)
    path = tmp_path / "ensemble.json"
    ens.save(path)
    back = MeasurementEnsemble.load(path)
    assert back.field == ens.field
    assert np.array_equal(dense_stack(back), dense_stack(ens))
    assert np.array_equal(back.y, ens.y)
    assert back.noise_norm == ens.noise_norm


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_dense_json_roundtrip_reproduces_packed_rows_bit_for_bit(complex_field, n):
    # to_json_dict unpacks each row to a full matrix and from_json_dict packs it
    # back: the same bytes, signed zeros included (n = 1 has empty triangles).
    rng = np.random.default_rng(n)
    ens = random_ensemble(rng, n, 6, complex_field, noise=1e-3)
    rows = ens.operator.array
    rows[:, ::2] = 0.0
    rows[1::2, ::3] = -0.0
    assert np.signbit(rows[rows == 0]).any() and not np.signbit(rows[rows == 0]).all()
    back = MeasurementEnsemble.from_json_dict(json.loads(json.dumps(ens.to_json_dict())))
    assert isinstance(back.operator, DenseStack) and back.field == ens.field
    assert back.operator.array.tobytes() == rows.tobytes()


def random_monomials(rng, n, m, complex_field):
    # m Hermitian monomial matrices, as (cols, values) and as the (m, n, n) stack: each pairs a random
    # set of rows j <-> k (a value and its conjugate) and leaves the other rows on a real diagonal.
    cols, values = np.empty((m, n), dtype=int), np.zeros((m, n), dtype=complex if complex_field else float)
    for i in range(m):
        perm, pairs = rng.permutation(n), rng.integers(0, n // 2 + 1)
        a, b = perm[: 2 * pairs : 2], perm[1 : 2 * pairs : 2]
        cols[i] = np.arange(n)
        cols[i, a], cols[i, b] = b, a
        for j in range(n):
            k = cols[i, j]
            if j == k:
                values[i, j] = rng.standard_normal()
            elif j < k:
                values[i, j] = gaussian(rng, (), complex_field)
                values[i, k] = np.conj(values[i, j])
    values.real[::2] = 0.0  # even matrices purely imaginary (zero for a real field),
    values[1::3] *= -1.0  # so matrix 4 holds -0.0 parts
    stack = np.zeros((m, n, n), dtype=values.dtype)
    stack[np.arange(m)[:, None], np.arange(n), cols] = values
    return cols, values, stack


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_monomial_rows_match_the_checked_array_path_bit_for_bit(complex_field, n):
    # from_monomials writes only the diagonal and the upper triangle; the (m, n, n) array path
    # checks each matrix Hermitian and packs it.  Same bytes, signed zeros included, over uneven blocks.
    rng = np.random.default_rng(n)
    m = 7
    cols, values, stack = random_monomials(rng, n, m, complex_field)
    blocks = [(cols[:3], values[:3]), (cols[3:4], values[3:4]), (cols[4:], values[4:])]
    rows = DenseStack.from_monomials(blocks, m, n, complex_field)
    checked = MeasurementEnsemble(stack, np.zeros(m)).operator
    assert np.signbit(checked.array[checked.array == 0]).any() and (n == 1 or (cols != np.arange(n)).any())
    assert rows.dtype == checked.dtype and rows.nbytes == checked.nbytes
    assert rows.array.tobytes() == checked.array.tobytes()


@pytest.mark.parametrize("complex_field", [False, True])
def test_rank_one_json_roundtrip_is_bit_exact(tmp_path, complex_field):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 4))
    if complex_field:
        a = a + 1j * rng.standard_normal((6, 4))
    ens = MeasurementEnsemble(a, rng.standard_normal(6), 1e-3)
    path = tmp_path / "ensemble.json"
    ens.save(path)
    doc = json.loads(path.read_text())
    assert "vectors" in doc and "operators" not in doc
    back = MeasurementEnsemble.load(path)
    assert isinstance(back.operator, RankOne) and back.field == ens.field
    assert np.array_equal(dense_stack(back), dense_stack(ens))
    x = random_hermitian(rng, 4, complex_field)
    z = rng.standard_normal(6)
    assert np.array_equal(back.apply(x), ens.apply(x))
    assert np.array_equal(back.adjoint(z), ens.adjoint(z))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.zeros((2, 3, 4)), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.zeros((2, 3)), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.zeros((2, 3, 3)), np.zeros(3), 0.0)
    for empty in (np.zeros((2, 0, 0)), np.zeros((2, 0))):  # n = 0, as from_json_dict refuses dim < 1
        with pytest.raises(ValueError, match=r"sensing vectors with n >= 1, got \(2, 0"):
            MeasurementEnsemble(empty, np.zeros(2), 0.0)
    nonherm = np.zeros((1, 2, 2))
    nonherm[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        MeasurementEnsemble(nonherm, np.zeros(1), 0.0)
    for bad in (np.nan, np.inf, -np.inf):  # save would write a bare NaN or Infinity, which load refuses
        with pytest.raises(ValueError, match=r"^y holds a non-finite number"):
            MeasurementEnsemble(np.eye(2)[None], [bad], 0.0)
        for operators in (np.full((1, 2, 2), bad), np.full((1, 2), bad + 0j)):
            with pytest.raises(ValueError, match=r"^operators hold a non-finite number"):
                MeasurementEnsemble(operators, np.zeros(1), 0.0)


@pytest.mark.parametrize("rank_one", [False, True], ids=["dense", "rank_one"])
def test_products_refuse_a_wrong_length_or_row_count(rank_one):
    if rank_one:
        ens = gen_phase_retrieval(n=4, sparsity=1, m=10, noise_norm=0.0, seed=0).objective.ensemble
    else:
        ens = gen_synthetic(n=4, r=1, m=10, seed=0).objective.ensemble
    with pytest.raises(ValueError, match="adjoint input length must match m"):
        ens.adjoint(np.zeros(9))
    for product in (ens.apply_factored, lambda v: ens.adjoint_times(np.zeros(10), v)):
        with pytest.raises(ValueError, match=r"factor must be \(4, r\), got \(5, 1\)"):
            product(np.ones((5, 1)))


@pytest.mark.parametrize("keys", [(), ("operators", "vectors")], ids=["neither", "both"])
def test_ensemble_json_needs_exactly_one_form_key(keys):
    doc = {"dim": 2, "field": "real", "y": [1.0], "noise_norm": 0.0}
    doc.update({key: [[1.0, 0.0, 0.0, 1.0]] if key == "operators" else [[1.0, 0.0]] for key in keys})
    with pytest.raises(ValueError, match="'operators' and 'vectors'"):
        MeasurementEnsemble.from_json_dict(doc)


def test_operator_nbytes_is_the_stored_array():
    # The bytes an ensemble holds: the packed rows or the vectors, plus y.
    pr = gen_phase_retrieval(n=96, sparsity=6, m=768, noise_norm=0.0, seed=0).objective.ensemble
    assert isinstance(pr.operator, RankOne)
    assert pr.operator.nbytes == pr.operator.array.nbytes == 768 * 96 * 16
    assert pr.operator.nbytes + pr.y.nbytes == 1_185_792
    assert pr.operator.dtype == np.dtype(complex)
    dense = gen_synthetic(n=6, r=2, m=20, seed=0).objective.ensemble
    assert isinstance(dense.operator, DenseStack)
    assert dense.operator.nbytes == dense.operator.array.nbytes == 20 * 21 * 8  # n(n+1)/2 reals each
    assert dense.operator.dtype == np.dtype(float)


# ---------------------------------------------------------------------------
# RankOne.apply / adjoint: blocks of rows against the unblocked products
# ---------------------------------------------------------------------------


def _rank_one_case(n, complex_field, seed=0):
    # Sensing vectors over three blocks of rows plus a remainder, a Hermitian X and real weights z.
    rng = np.random.default_rng(seed)
    step = linalg._BLOCK_BYTES // ((16 if complex_field else 8) * (n + 1))
    m = 3 * step + step // 3
    a = gaussian(rng, (m, n), complex_field)
    return a, random_hermitian(rng, n, complex_field), rng.standard_normal(m)


def _traced_peak(call):
    call()  # once untraced, so that first-call allocations are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [40, 96, 256])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_rank_one_blocks_match_unblocked_products(n, complex_field):
    a, x, z = _rank_one_case(n, complex_field)
    op = RankOne(a)
    assert op.apply(x).tobytes() == rank_one_apply(a, x).tobytes()
    want = rank_one_adjoint(a, z)
    got = op.adjoint(z)
    assert got.dtype == want.dtype and got.shape == (n, n)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_rank_one_blocks_hold_at_least_n_rows(complex_field):
    # Each block writes a full n x n product into adjoint's sum, so a block is never thinner than n rows:
    # at n = 256, m = 2048 the byte budget alone cut 17 complex (9 real) blocks.
    n, m = 256, 2048
    op = RankOne(np.zeros((m, n), dtype=complex if complex_field else float))
    assert len(list(op._blocks(op.dtype))) <= -(-m // n)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_rank_one_without_measurements(complex_field):
    dtype = complex if complex_field else float
    op = RankOne(np.zeros((0, 3), dtype=dtype))
    assert op.apply(np.eye(3, dtype=dtype)).shape == (0,)
    zero = op.adjoint(np.zeros(0))
    assert zero.dtype == np.dtype(dtype) and zero.shape == (3, 3) and not zero.any()


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_rank_one_products_trace_one_block_beyond_their_result(complex_field):
    # Besides its result, apply holds one working block of _BLOCK_BYTES; adjoint holds the block, one
    # block's n x n product, and numpy's ufunc buffer for the weights broadcast over a block
    # (np.getbufsize() entries).  The unblocked products held an m x n array: 1.00 and 1.13 times the vectors.
    n = 64
    a, x, z = _rank_one_case(n, complex_field)
    op = RankOne(a)
    assert op.m >= 3 * linalg._BLOCK_BYTES // (a.itemsize * (n + 1))
    assert _traced_peak(lambda: op.apply(x)) <= linalg._BLOCK_BYTES + 8 * op.m
    square, buffer = n * n * a.itemsize, np.getbufsize() * a.itemsize
    assert _traced_peak(lambda: op.adjoint(z)) <= linalg._BLOCK_BYTES + 2 * square + buffer
