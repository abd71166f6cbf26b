"""Brute-force reference implementations used as independent test oracles.

These deliberately avoid the code paths of the package: the Jacobi
eigensolver is hand-rolled (no LAPACK), the O(2) alignment search is a
dense angle grid, the l1 projection is a coarse-to-fine grid search
over the simplex face, the ProjFGD reference loop forms every
n x n iterate X = U U^H, ``dense_stack`` expands any storage form
to the full (m, n, n) operator stack, ``kron_pauli`` builds a Pauli
string's matrix by a chain of ``np.kron``, and the rank-one references
draw and multiply whole arrays where the library works in blocks.
"""

import numpy as np
import scipy.linalg

from fpgd.linalg import factor_from_psd, procrustes_dist, psd_project
from fpgd.objective import RankOne
from fpgd.problems import unconstrained
from fpgd.solver import FGD_STEP_CONSTANT, PROJFGD_STEP_CONSTANT, SolveTrace


def jacobi_eigh(a, sweeps=60, tol=1e-14):
    """Cyclic Jacobi eigensolver for Hermitian matrices: repeatedly
    diagonalize 2x2 blocks with exact closed-form unitaries.  Brute-force
    reference, independent of LAPACK."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(sweeps):
        off = np.sqrt(max(np.sum(np.abs(a) ** 2) - np.sum(np.abs(np.diag(a)) ** 2), 0.0))
        if off <= tol * max(1.0, np.sqrt(np.sum(np.abs(a) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rho = abs(a[p, q])
                if rho < np.finfo(float).tiny:  # zero or subnormal: a[p, q] / rho overflows
                    continue
                alpha, beta = a[p, p].real, a[q, q].real
                phase = a[p, q] / rho
                half_gap = np.hypot(0.5 * (alpha - beta), rho)
                lam_hi = 0.5 * (alpha + beta) + half_gap
                lam_lo = 0.5 * (alpha + beta) - half_gap
                # Build the better-conditioned eigenvector (the one whose
                # second component avoids cancellation) and take its exact
                # orthogonal complement, so j2 is unitary to machine
                # precision even for tiny off-diagonal entries.
                if alpha >= beta:
                    w = np.array([rho * phase, lam_lo - alpha])
                    w /= np.linalg.norm(w)
                    j2 = np.column_stack([[-np.conj(w[1]), np.conj(w[0])], w])
                else:
                    w = np.array([rho * phase, lam_hi - alpha])
                    w /= np.linalg.norm(w)
                    j2 = np.column_stack([w, [-np.conj(w[1]), np.conj(w[0])]])
                idx = [p, q]
                a[:, idx] = a[:, idx] @ j2
                a[idx, :] = j2.conj().T @ a[idx, :]
                v[:, idx] = v[:, idx] @ j2
    w = np.real(np.diag(a))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def grid_o2_dist(u, v, step=1e-4):
    """Brute-force Dist over O(2): dense angle grid of rotations and
    reflections.  ||u - v R||^2 = ||u||^2 + ||v||^2 - 2 tr(R^T A), A = v^T u."""
    a = v.T @ u
    theta = np.arange(0.0, 2.0 * np.pi, step)
    c, s = np.cos(theta), np.sin(theta)
    # rotations [[c, -s], [s, c]] and reflections (rotation @ diag(1, -1))
    rot_scores = c * (a[0, 0] + a[1, 1]) + s * (a[1, 0] - a[0, 1])
    ref_scores = c * (a[0, 0] - a[1, 1]) + s * (a[1, 0] + a[0, 1])
    best = max(rot_scores.max(), ref_scores.max())
    sq = np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2 - 2.0 * best
    return np.sqrt(max(sq, 0.0))


def random_hermitian(rng, n, complex_field=True, scale=1.0):
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)



def grid_l1_project(v, lam, rounds=6):
    """Projected-coordinate brute force: coarse-to-fine grid over the
    simplex face {|z| >= 0, sum = lam} with the sign pattern of v.
    Dimension <= 3."""
    flat = np.abs(np.asarray(v, dtype=float)).ravel()
    if flat.sum() <= lam:
        return np.asarray(v, dtype=float)
    d = flat.size
    assert d in (2, 3)
    lo = np.zeros(d)
    hi = np.full(d, lam)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], 41) for k in range(d - 1)]
        grids = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        last = lam - coords.sum(axis=1)
        ok = last >= -1e-12
        coords = np.column_stack([coords[ok], np.maximum(last[ok], 0.0)])
        errs = np.sum((coords - flat) ** 2, axis=1)
        best = coords[np.argmin(errs)]
        span = (hi - lo) / 8.0
        lo = np.maximum(best - span, 0.0)
        hi = best + span
    out = best.reshape(np.asarray(v).shape)
    return np.sign(v) * out




def gram_rel_change_reference(u1, u0):
    """The stopping ratio as ``linalg.gram_rel_change`` computed it before its
    in-place kernel: ``hsplit`` of R, ``np.stack`` of the two cores.  The
    kernel must give the same float, bit for bit."""
    d = u1 - u0
    s = u1 + u0
    rd, rs = np.hsplit(np.linalg.qr(np.hstack([d, s]), mode="r"), 2)
    core = rd @ rs.conj().T
    r1 = 0.5 * (rd + rs)
    cores = np.stack([0.5 * (core + core.conj().T), r1 @ r1.conj().T])
    diff, top = np.max(np.abs(np.linalg.eigvalsh(cores)), axis=1)
    if top and u1.any():
        return float(diff / top)
    return 0.0 if diff == 0.0 else float("inf")


def project_l1_ball_reference(v, lam):
    """The l1-ball projection as ``linalg.project_l1_ball`` computed it before
    its single phase expression: ``np.sign`` for a real input, three
    ``np.abs`` passes for a complex one.  Finite input must give the same
    array, byte for byte."""
    v = np.asarray(v)
    mags = np.abs(v).ravel()
    if float(mags.sum()) <= lam:
        return v
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


def synthetic_rows_per_operator(n, m, seed):
    """The packed rows ``gen_synthetic(n, ., m, seed=seed)`` must hold, built one
    operator at a time: an (n, n) draw, (G + G^T) / (2 sqrt(m)), then its
    diagonal and strict upper triangle in row-major order."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    rows = []
    for _ in range(m):
        g = rng.standard_normal((n, n))
        e = (g + g.T) / (2.0 * np.sqrt(m))
        rows.append(np.concatenate([np.diag(e), e[iu]]))
    return np.array(rows).reshape(m, n * (n + 1) // 2)


_PAULI = {
    "0": np.eye(2, dtype=complex),
    "1": np.array([[0, 1], [1, 0]], dtype=complex),
    "2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "3": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(index):
    """The Pauli string ``index`` (digits 0-3 for I, sigma_x, sigma_y, sigma_z) as the kron
    chain of its 2 x 2 factors divided by sqrt(2^q): the oracle of the library's
    ``problems._pauli_monomials``.  The -1j of sigma_y leaves some -0.0 parts that the
    monomials do not have."""
    op = _PAULI[index[0]]
    for digit in index[1:]:
        op = np.kron(op, _PAULI[digit])
    return op / np.sqrt(2.0 ** len(index))  # a fresh array: the caller may scale it in place


def dense_stack(ens):
    """The (m, n, n) operator stack of ``ens``: E_k = A*(e_k) for a dense
    ensemble, or the rank-one E_i = a_i a_i^H built from the sensing vectors a_i."""
    if isinstance(ens.operator, RankOne):
        a = ens.operator.array
        return np.einsum("mi,mj->mij", a, a.conj())
    return np.stack([ens.adjoint(e) for e in np.eye(ens.m)])


def dense_spectral_norm(x):
    """max |eigenvalue| from the lower triangle of ``x``, with no Hermitian check."""
    return float(np.max(np.abs(np.linalg.eigvalsh(x))))


def dense_projfgd_reference(instance, cfg, fgd=False):
    """The ProjFGD (or, with ``fgd``, unconstrained FGD) iteration on dense
    n x n iterates: X = U U^H formed each step, ``apply``/``adjoint`` on X,
    the adaptive step from ||Q_U^H grad f(X)||_2, and both stopping norms
    from full ``eigvalsh``.  Its own initialization and fixed step, from
    two eigendecompositions: X_0 = Pi_+(2 A*(y)) / L_hat, U_0 = Pi_C of the
    top-r factor of X_0, and eta from full ``eigvalsh`` of X_0 and
    grad f(X_0).  Same trace as the solver.  Returns (factor, SolveTrace);
    meant for n <= 64."""
    obj = instance.objective
    ens = obj.ensemble
    constraint = unconstrained() if fgd else instance.constraint
    default = FGD_STEP_CONSTANT if fgd else PROJFGD_STEP_CONSTANT
    constant = cfg.step_size_constant if cfg.step_size_constant is not None else default
    l_hat = obj.smoothness()
    x_ref = psd_project(ens.adjoint(2.0 * ens.y)) / l_hat
    u, _ = constraint.project(factor_from_psd(x_ref)[:, : instance.rank])

    def gram(v):
        x = v @ v.conj().T
        return 0.5 * (x + x.conj().T)

    trace = SolveTrace()
    x = gram(u)
    res = ens.apply(x) - ens.y
    trace.initial_objective = float(res @ res)
    if cfg.record_truth_dist:
        trace.initial_dist = procrustes_dist(u, instance.truth_factor)
    blowup = 1e6 * (trace.initial_objective + 1e-12 * (1.0 + float(ens.y @ ens.y)))
    eta = None
    if cfg.step_mode == "fixed_from_init":
        denom = l_hat * dense_spectral_norm(x_ref) + dense_spectral_norm(obj.grad(x_ref))
        if denom == 0.0:
            trace.status = "converged"
            return u, trace
        eta = trace.step_eta = constant / denom

    trace.status = "max_iters"
    for _ in range(cfg.max_iters):
        grad_x = ens.adjoint(2.0 * res)
        if cfg.step_mode == "adaptive_per_iter":
            q = scipy.linalg.orth(u)
            column_norm = float(np.linalg.norm(q.conj().T @ grad_x, 2)) if q.size else 0.0
            denom = l_hat * dense_spectral_norm(x) + column_norm
            if denom == 0.0:
                trace.status = "converged"
                break
            eta = constant / denom
            if np.isnan(trace.step_eta):
                trace.step_eta = eta
        gu = grad_x @ u
        u_next, xi = constraint.project(u - eta * gu)
        x_next = gram(u_next)
        res = ens.apply(x_next) - ens.y
        f_val = float(res @ res)
        if not np.isfinite(f_val):
            rel_change = float("inf")
        else:
            denom_norm = dense_spectral_norm(x_next)
            diff_norm = dense_spectral_norm(x_next - x)
            if denom_norm == 0.0:
                rel_change = 0.0 if diff_norm == 0.0 else float("inf")
            else:
                rel_change = diff_norm / denom_norm
        trace.objective.append(f_val)
        trace.rel_change.append(rel_change)
        trace.xi.append(xi)
        trace.dist.append(
            procrustes_dist(u_next, instance.truth_factor) if cfg.record_truth_dist else float("nan")
        )
        trace.grad_norm.append(float(np.linalg.norm(gu)))
        u, x = u_next, x_next
        if not np.isfinite(f_val) or f_val > blowup:
            trace.status = "diverged"
            break
        if rel_change <= cfg.tol:
            trace.status = "converged"
            break
    return u, trace


def gaussian_two_draws(rng, shape, complex_field):
    """The draw of ``linalg.gaussian`` as two whole arrays, real parts then imaginary
    parts; the library writes the same normals into its output a block at a time."""
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def rank_one_apply(a, x):
    """Re(a_i^H X a_i) for every row a_i of ``a``, from one (m, n) product: the
    unblocked ``RankOne.apply``."""
    rows = a @ x.T
    np.conjugate(rows, out=rows)
    rows *= a
    return np.real(rows.sum(axis=1))


def rank_one_adjoint(a, z):
    """sum_i z_i a_i a_i^H as A^T diag(z) conj(A), from one (m, n) weighted copy: the
    unblocked ``RankOne.adjoint``."""
    w = a * z[:, None]
    np.conjugate(w, out=w)
    return a.T @ w


def phase_retrieval_reference(n, sparsity, m, noise_norm, seed):
    """The sensing vectors and observations of ``gen_phase_retrieval(n, sparsity, m,
    noise_norm, seed=seed)``, drawn with ``gaussian_two_draws`` and observed with
    ``rank_one_apply``."""
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=sparsity, replace=False)
    x = np.zeros(n, dtype=complex)
    x[support] = gaussian_two_draws(rng, sparsity, True)
    x /= np.linalg.norm(x)
    a = gaussian_two_draws(rng, (m, n), True) / np.sqrt(2.0)
    truth = x[:, None] @ x[None, :].conj()  # U* U*^H of the factor U* = x, then symmetrized
    noise = np.zeros(m)
    if noise_norm:
        eta = rng.standard_normal(m)
        noise = eta * (noise_norm / np.linalg.norm(eta))
    return a, rank_one_apply(a, 0.5 * (truth + truth.conj().T)) + noise
