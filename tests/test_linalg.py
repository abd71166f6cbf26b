"""Core linear algebra: PSD factors, projections, factor alignment."""

import numpy as np
import pytest

from fpgd import linalg
from fpgd.linalg import (
    factor_from_psd,
    gaussian,
    is_hermitian,
    procrustes_align,
    procrustes_dist,
    project_frobenius_ball,
    project_l1_ball,
    psd_project,
    spectral_norm,
    trace_inner,
)


from oracles import gaussian_two_draws, grid_l1_project, grid_o2_dist, jacobi_eigh, random_hermitian


# ---------------------------------------------------------------------------
# factor_from_psd: the top-r eigenpairs it is built from
# ---------------------------------------------------------------------------


def random_psd(rng, n, complex_field):
    h = random_hermitian(rng, n, complex_field)
    return h @ h.conj().T


def test_eig_identity_spectrum():
    u = factor_from_psd(np.eye(3), 2)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-10)


def test_eig_diagonal():
    # phase fixing makes the dominant entry real-positive: sqrt(3) exactly
    u = factor_from_psd(np.diag([3.0, 1.0, -2.0]), 1)
    assert np.allclose(u[:, 0], [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("complex_field", [False, True])
def test_eig_matches_jacobi_oracle(complex_field):
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = random_psd(rng, 6, complex_field)
        w_ref, _ = jacobi_eigh(m)
        u = factor_from_psd(m, 3)
        # orthogonal columns whose squared norms are the top eigenvalues, descending
        gram = u.conj().T @ u
        assert np.allclose(gram, np.diag(w_ref[:3]), rtol=1e-10, atol=1e-10 * w_ref[0])
        # each column is an eigenvector of its eigenvalue
        for j in range(3):
            resid = m @ u[:, j] - w_ref[j] * u[:, j]
            assert np.linalg.norm(resid) < 1e-9 * w_ref[0] ** 1.5


def test_eig_reconstruction_matches_optimal_residual():
    rng = np.random.default_rng(7)
    for r in (1, 3, 5):
        m = random_psd(rng, 8, complex_field=True)
        w_all = np.sort(np.linalg.eigvalsh(m))[::-1]
        u = factor_from_psd(m, r)
        err = np.linalg.norm(m - u @ u.conj().T)
        optimal = np.sqrt(np.sum(w_all[r:] ** 2))
        assert err <= optimal * (1 + 1e-8) + 1e-12
        assert abs(err - optimal) <= 1e-8 * max(optimal, 1.0)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        factor_from_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    for r in (0, 4):
        with pytest.raises(ValueError, match=f"rank r={r} out of range for n=3"):
            factor_from_psd(np.eye(3), r)
    assert not is_hermitian(np.ones((2, 3)))


def test_empty_matrix_is_hermitian():
    # Both maxima start from 0: a (0, 0) matrix is an answer, not numpy's zero-size reduction error.
    assert is_hermitian(np.zeros((0, 0))) and is_hermitian(np.zeros((0, 0), dtype=complex))


# ---------------------------------------------------------------------------
# psd_project
# ---------------------------------------------------------------------------


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 3))
    x = g @ g.T
    assert np.allclose(psd_project(x), x, atol=1e-10)


def test_psd_project_clips_eigenvalues():
    assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_project_idempotent_and_hermitian():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 6)
    p = psd_project(m)
    assert is_hermitian(p)
    assert np.min(np.linalg.eigvalsh(p)) >= -1e-12
    assert np.allclose(psd_project(p), p, atol=1e-10)


def test_psd_project_variational_inequality():
    # <Pi(m) - P, m - Pi(m)> >= 0 for every PSD witness P
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 6)
    p = psd_project(m)
    for _ in range(100):
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        witness = g @ g.conj().T
        assert trace_inner(p - witness, m - p) >= -1e-10


# ---------------------------------------------------------------------------
# spectral_norm
# ---------------------------------------------------------------------------


def test_spectral_norm_branches():
    # Hermitian input gives max |eigenvalue|; non-Hermitian and non-square input is refused.
    assert spectral_norm(np.diag([3.0, 1.0, -4.0])) == 4.0
    assert spectral_norm(np.array([[1.0, 2j], [-2j, 1.0]])) == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ValueError, match="not Hermitian"):
        spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="must be square"):
        spectral_norm(np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# factor_from_psd
# ---------------------------------------------------------------------------


def test_factor_reconstructs_low_rank():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    x = g @ g.conj().T
    u = factor_from_psd(x, 2)
    assert np.allclose(u @ u.conj().T, x, atol=1e-10)


def test_factor_pads_degenerate_rank_with_zero_columns():
    x = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    u = factor_from_psd(x, 3)
    assert u.shape == (3, 3)
    assert np.allclose(u[:, 1:], 0.0)
    assert np.allclose(u @ u.conj().T, x, atol=1e-12)


# ---------------------------------------------------------------------------
# Procrustes distance
# ---------------------------------------------------------------------------


def test_dist_self_is_zero():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((5, 2))
    assert procrustes_dist(u, u) < 1e-12


def test_dist_sign_flip_rank_one():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 1))
    assert procrustes_dist(u, -u) < 1e-12


def test_dist_complex_phase_rank_one():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    assert procrustes_dist(u, np.exp(0.7j) * u) < 1e-12


def test_dist_matches_o2_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(3):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 2))
        assert abs(procrustes_dist(u, v) - grid_o2_dist(u, v)) < 1e-6


def test_dist_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rng.standard_normal((7, 3))
        v = rng.standard_normal((7, 3))
        assert abs(procrustes_dist(u, v) - procrustes_dist(v, u)) <= 1e-10
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert abs(procrustes_dist(u @ q, v) - procrustes_dist(u, v)) <= 1e-9


def test_align_returns_minimizing_rotation():
    rng = np.random.default_rng(34)
    u = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    v = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    dist, rot = procrustes_align(u, v)
    assert np.allclose(rot.conj().T @ rot, np.eye(3), atol=1e-10)
    assert abs(np.linalg.norm(u - v @ rot) - dist) < 1e-12
    # no random unitary does better
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert np.linalg.norm(u - v @ q) >= dist - 1e-10


def test_dist_shape_mismatch():
    with pytest.raises(ValueError):
        procrustes_dist(np.zeros((3, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Frobenius-ball projection
# ---------------------------------------------------------------------------


def test_frobenius_interior_point():
    v = np.full((2, 2), 0.25)  # norm 0.5
    out, xi = project_frobenius_ball(v, 1.0)
    assert xi == 1.0
    assert out is v


def test_frobenius_exterior_scaling():
    v = np.array([[2.0, 0.0], [0.0, 0.0]])
    out, xi = project_frobenius_ball(v, 1.0)
    assert xi == 0.5
    assert np.allclose(out, v / 2.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_frobenius_variational_inequality():
    rng = np.random.default_rng(17)
    v = rng.standard_normal((6, 2)) * 3.0
    out, _ = project_frobenius_ball(v, 1.0)
    for _ in range(100):
        w = rng.standard_normal((6, 2))
        feasible = w * (rng.uniform(0, 1) / np.linalg.norm(w))
        assert trace_inner(out - feasible, v - out) >= -1e-10


def test_frobenius_rejects_bad_lambda():
    with pytest.raises(ValueError):
        project_frobenius_ball(np.ones((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# l1-ball projection
# ---------------------------------------------------------------------------


def test_l1_interior_point():
    v = np.array([[0.2, -0.1], [0.05, 0.0]])
    assert project_l1_ball(v, 1.0) is v


def test_l1_symmetric_soft_threshold():
    out = project_l1_ball(np.array([1.0, 1.0]), 1.0)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_l1_matches_grid_qp_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        v = rng.standard_normal(d) * 1.5
        out = project_l1_ball(v, 1.0)
        ref = grid_l1_project(v, 1.0)
        assert np.max(np.abs(out - ref)) < 1e-4
        assert np.abs(out).sum() <= 1.0 + 1e-10


def test_l1_complex_preserves_phases():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    out = project_l1_ball(v, 0.5)
    assert np.abs(out).sum() <= 0.5 + 1e-10
    mask = np.abs(out) > 0
    ratio = out[mask] / v[mask]
    assert np.allclose(ratio.imag, 0.0, atol=1e-12)
    assert np.all(ratio.real > 0)


def test_l1_variational_inequality():
    rng = np.random.default_rng(23)
    v = rng.standard_normal((5, 2)) * 2.0
    out = project_l1_ball(v, 1.0)
    for _ in range(100):
        w = rng.standard_normal((5, 2))
        feasible = w * (rng.uniform(0, 1) / np.abs(w).sum())
        assert trace_inner(out - feasible, v - out) >= -1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_l1_nonfinite_input_projects_to_nan(bad, dtype):
    v = np.array([[bad], [1.0]], dtype=dtype)
    out = project_l1_ball(v, 0.5)
    assert out.shape == v.shape
    assert out.dtype == v.dtype
    assert np.isnan(out).all()


def test_l1_rejects_bad_lambda():
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(3), -1.0)


# ---------------------------------------------------------------------------
# Shared projection properties
# ---------------------------------------------------------------------------


def test_projections_non_expansive():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        a = rng.standard_normal((4, 2)) * 2.0
        b = rng.standard_normal((4, 2)) * 2.0
        gap = np.linalg.norm(a - b)
        pa, _ = project_frobenius_ball(a, 1.0)
        pb, _ = project_frobenius_ball(b, 1.0)
        assert np.linalg.norm(pa - pb) <= gap + 1e-12
        qa = project_l1_ball(a, 1.0)
        qb = project_l1_ball(b, 1.0)
        assert np.linalg.norm(qa - qb) <= gap + 1e-12


def test_factorization_distance_inequality():
    # ||U U^H - V V^H||_F^2 >= 2 (sqrt2 - 1) sigma_r(U)^2 Dist(U, V)^2
    rng = np.random.default_rng(37)
    const = 2.0 * (np.sqrt(2.0) - 1.0)
    for _ in range(1000):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 2))
        sigma_r = np.linalg.svd(u, compute_uv=False)[-1]
        if sigma_r <= 0:
            continue
        lhs = np.linalg.norm(u @ u.T - v @ v.T) ** 2
        rhs = const * sigma_r**2 * procrustes_dist(u, v) ** 2
        assert lhs - rhs >= -(1e-9 + 1e-9 * max(lhs, rhs))


# ---------------------------------------------------------------------------
# gaussian: the same normals as two whole draws, written a block at a time
# ---------------------------------------------------------------------------

_DRAW_STEP = linalg._BLOCK_BYTES // 8  # normals per block of one part


@pytest.mark.parametrize("shape", [(), 5, (0,), (3, 0), (7, 3), (2, 3, 4), (3 * _DRAW_STEP + 17,), (700, 301)])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_gaussian_matches_two_whole_draws_bit_for_bit(shape, complex_field):
    drawn, twin = np.random.default_rng(8), np.random.default_rng(8)
    got = np.asarray(gaussian(drawn, shape, complex_field))
    want = np.asarray(gaussian_two_draws(twin, shape, complex_field))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert drawn.standard_normal() == twin.standard_normal()  # the generator's next draw, too
