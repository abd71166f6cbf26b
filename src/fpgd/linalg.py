"""Field-generic dense linear algebra for factored PSD optimization.

Everything here works uniformly for real symmetric and complex Hermitian
matrices: conjugation is a no-op on real arrays, and all matrix inner
products take the real part of trace(A^H B) so results are real in both
fields.  Factor alignment uses unitary matrices in the complex case (the
natural extension of the orthogonal group; real inputs recover O(r)).
"""

import numpy as np

__all__ = [
    "gaussian",
    "is_hermitian",
    "require_hermitian",
    "trace_inner",
    "spectral_norm",
    "gram_rel_change",
    "psd_project",
    "factor_from_psd",
    "procrustes_align",
    "procrustes_dist",
    "project_frobenius_ball",
    "project_l1_ball",
]

# Eigenvalues below this (relative to the top one) count as numerically zero
# when extracting factors of degenerate-rank matrices.
_RANK_EPS = 1e-12


def gaussian(rng, shape, complex_field):
    """Standard normal draw; a complex field adds an imaginary part drawn after the real one."""
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def trace_inner(a, b):
    """Real trace inner product <A, B> = Re trace(A^H B)."""
    return float(np.real(np.vdot(a, b)))


def is_hermitian(m, tol=1e-12):
    """Check entrywise conjugate symmetry up to tol * max|entry|."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = np.max(np.abs(m)) if m.size else 0.0
    return bool(np.max(np.abs(m - m.conj().T)) <= tol * max(scale, 1e-300))


def require_hermitian(m, tol=1e-12, what="matrix"):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not is_hermitian(m, tol=tol):
        raise ValueError(f"{what} is not Hermitian within tolerance {tol:g}")
    return m


def spectral_norm(m):
    """Largest singular value; uses |eigenvalues| for Hermitian input."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    if is_hermitian(m, tol=1e-10):  # False for non-square input
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.norm(m, 2))


def gram_rel_change(u1, u0):
    """Stopping ratio ||U1 U1^H - U0 U0^H||_2 / ||U1 U1^H||_2 of (n, r) factors,
    without an n x n matrix; 0 when both Gram matrices vanish, inf when only U1's does.

    With D = U1 - U0 and S = U1 + U0 the difference is (D S^H + S D^H) / 2,
    which has no cancellation when U1 is close to U0.  A thin QR
    [D S] = Q [R_D R_S] reduces it to the Hermitian core
    (R_D R_S^H + R_S R_D^H) / 2, and U1 = (D + S) / 2 to R_1 = (R_D + R_S) / 2,
    so ||U1 U1^H||_2 = lambda_max(R_1 R_1^H).  One batched eigvalsh of the
    two cores, each at most 2r x 2r, gives both norms.
    """
    d = u1 - u0
    s = u1 + u0
    rd, rs = np.hsplit(np.linalg.qr(np.hstack([d, s]), mode="r"), 2)
    core = rd @ rs.conj().T
    r1 = 0.5 * (rd + rs)
    cores = np.stack([0.5 * (core + core.conj().T), r1 @ r1.conj().T])
    diff, top = np.max(np.abs(np.linalg.eigvalsh(cores)), axis=1)
    if top and u1.any():  # for U1 = 0, R_D + R_S holds only rounding
        return float(diff / top)
    return 0.0 if diff == 0.0 else float("inf")


def psd_project(m):
    """Projection onto the PSD cone: clip negative eigenvalues.

    Nearest PSD matrix in Frobenius norm; idempotent; Hermitian output.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def factor_from_psd(x, r):
    """n x r factor U with U U^H = best rank-r PSD part of Hermitian ``x``.

    Column j is sqrt(lambda_j) v_j for the j-th largest eigenvalue, so the
    columns are orthogonal with non-increasing norms and the first k
    columns of the rank-r factor are the rank-k factor.  The largest-modulus
    entry of each eigenvector is real-positive, so the factor is
    deterministic up to degeneracies.  Eigenvalues below 1e-12 * lambda_max
    count as zero and yield zero columns, so the factor always has exactly
    r columns.  Requires 1 <= r <= n.
    """
    x = require_hermitian(x)
    n = x.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} out of range for n={n}")
    w, v = np.linalg.eigh(x)  # ascending
    idx = np.argsort(w)[::-1][:r]
    vals = w[idx]
    vals[vals <= _RANK_EPS * max(vals[0], 0.0)] = 0.0
    v = v[:, idx]
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(r)]  # nonzero: unit columns
    return v * (pivots.conj() / np.abs(pivots)) * np.sqrt(vals)


def procrustes_align(u, v):
    """Best alignment of ``v`` onto ``u`` over orthonormal r x r matrices.

    Returns ``(dist, rotation)`` where ``rotation`` minimizes
    ||u - v @ R||_F over unitary R (orthogonal for real inputs) and
    ``dist`` is the minimum, i.e. the rotation-invariant factor distance.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    # Polar factor of v^H u solves the orthogonal Procrustes problem.
    w, _, zh = np.linalg.svd(v.conj().T @ u)
    rot = w @ zh
    dist = float(np.linalg.norm(u - v @ rot))
    return dist, rot


def procrustes_dist(u, v):
    """Rotation-invariant distance min_R ||u - v R||_F."""
    return procrustes_align(u, v)[0]


def project_frobenius_ball(v, lam):
    """Euclidean projection onto {||U||_F <= lam}; pure scaling.

    Returns ``(projected, xi)`` with xi = 1 for feasible input and
    xi = lam / ||v||_F otherwise.
    """
    if not lam > 0:  # NaN fails too
        raise ValueError("lam must be positive")
    v = np.asarray(v)
    nrm = float(np.linalg.norm(v))
    if nrm <= lam:
        return v, 1.0
    xi = lam / nrm
    return xi * v, xi


def project_l1_ball(v, lam):
    """Euclidean projection onto {||U||_1 <= lam} (entrywise l1 norm).

    Sorted-threshold algorithm on the entry moduli; complex entries keep
    their phases (the modulus pattern is projected, a standard complex
    extension).
    """
    if not lam > 0:  # NaN fails too
        raise ValueError("lam must be positive")
    v = np.asarray(v)
    mags = np.abs(v).ravel()
    total = float(mags.sum())
    if total <= lam:
        return v
    # Duchi et al. soft-threshold level for the simplex {sum = lam}.
    s = np.sort(mags)[::-1]
    cumulative = np.cumsum(s)
    k = np.arange(1, s.size + 1)
    rho = int(np.max(np.nonzero(s - (cumulative - lam) / k > 0)[0])) + 1
    theta = (cumulative[rho - 1] - lam) / rho
    shrunk = np.maximum(mags - theta, 0.0).reshape(v.shape)
    if np.iscomplexobj(v):
        phases = np.where(np.abs(v) > 0, v / np.where(np.abs(v) > 0, np.abs(v), 1.0), 0.0)
        return phases * shrunk
    return np.sign(v) * shrunk
