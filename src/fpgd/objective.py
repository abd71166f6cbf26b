"""Least-squares sensing objectives f(X) = ||A(X) - y||_2^2.

A measurement ensemble is a list of Hermitian operators E_i with
observations y_i, stored as the dense (m, n, n) stack or, for rank-one
E_i = a_i a_i^H, as the (m, n) sensing vectors.  The forward map is
(A(X))_i = Re trace(E_i X), the adjoint is A*(z) = sum_i z_i E_i, and
the gradient convention is

    grad f(X) = 2 A*(A(X) - y),

i.e. the residual factor 2 lives inside ``grad``.

The solver's iteration touches the operator only through two factored
primitives of ``MeasurementEnsemble``:

    apply_factored(U)   = A(U U^H)
    adjoint_times(z, V) = A*(z) @ V

For rank-one ensembles both cost O(m n r) and never form an n x n
matrix; for dense stacks they go through ``apply`` and ``adjoint``.
"""

import json

import numpy as np

from .linalg import require_hermitian

__all__ = ["MeasurementEnsemble", "Objective", "empirical_rip"]

# Power iteration for L_hat: relative Rayleigh-quotient tolerance, iteration
# cap, and the seed of the start vector.
_SMOOTHNESS_TOL = 1e-6
_SMOOTHNESS_MAX_ITERS = 20000
_SMOOTHNESS_SEED = 0


def _encode_array(a):
    """Flat JSON list of the entries of ``a``; complex entries as [re, im]."""
    a = np.ascontiguousarray(a)
    if np.iscomplexobj(a):
        return a.view(float).reshape(-1, 2).tolist()
    return a.ravel().tolist()


def _decode_array(doc, complex_field, shape):
    """Inverse of ``_encode_array``; ``doc`` may nest one list per matrix."""
    arr = np.array(doc, dtype=float)
    if complex_field:
        arr = arr.reshape(-1, 2).view(complex)
    return arr.reshape(shape)


class MeasurementEnsemble:
    """Linear sensing operator: m Hermitian operators plus observations.

    Parameters
    ----------
    operators : (m, n, n) array of Hermitian matrices E_i, or (m, n) array
        of sensing vectors a_i standing for the rank-one E_i = a_i a_i^H.
        The rank-one form is never expanded: apply and adjoint are one
        matrix product each on the (m, n) array.
    y : (m,) real observations.
    noise_norm : l2 norm of the additive noise used to produce ``y``
        (0 for noiseless data); carried as metadata.
    """

    def __init__(self, operators, y, noise_norm=0.0):
        ops = np.ascontiguousarray(operators)
        y = np.asarray(y, dtype=float)
        if ops.ndim != 2 and (ops.ndim != 3 or ops.shape[1] != ops.shape[2]):
            raise ValueError(f"operators must be (m, n, n) or (m, n) sensing vectors, got {ops.shape}")
        if y.shape != (ops.shape[0],):
            raise ValueError("y length must match the number of operators")
        if noise_norm < 0:
            raise ValueError("noise_norm must be non-negative")
        if ops.ndim == 3:  # a_i a_i^H is Hermitian by construction
            for k in range(ops.shape[0]):
                require_hermitian(ops[k], what=f"operator {k}")
        self._ops = ops
        self.y = y
        self.noise_norm = float(noise_norm)

    @property
    def rank_one(self):
        return self._ops.ndim == 2

    @property
    def m(self):
        return self._ops.shape[0]

    @property
    def dim(self):
        return self._ops.shape[1]

    @property
    def dtype(self):
        return self._ops.dtype

    @property
    def field(self):
        return "complex" if np.iscomplexobj(self._ops) else "real"

    @property
    def operators(self):
        """The (m, n, n) operator stack; built on each call for rank-one
        ensembles, so the solve path never reads it."""
        if self.rank_one:
            return np.einsum("mi,mj->mij", self._ops, self._ops.conj())
        return self._ops

    def apply(self, x):
        """A(X): real vector of Re trace(E_i X).

        For Hermitian E_i, Re trace(E_i X) = Re(vec E_i . conj vec X) for
        any X, so the operator stack is never conjugated.  For E_i = a_i a_i^H
        it is Re(a_i^H X a_i) = Re(conj(X a_i) . a_i): one matrix product for
        the rows X a_i, then row sums formed in place, so no second m x n
        temporary is allocated.
        """
        x = np.asarray(x)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: expected {(self.dim, self.dim)}, got {x.shape}")
        if self.rank_one:
            a = self._ops
            rows = a @ x.T  # row i is X a_i
            np.conjugate(rows, out=rows)
            rows *= a
            return np.real(rows.sum(axis=1))
        return np.real(self._ops.reshape(self.m, -1) @ x.conj().ravel())

    def adjoint(self, z):
        """A*(z) = sum_i z_i E_i; Hermitian for real z."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.m,):
            raise ValueError("adjoint input length must match m")
        if self.rank_one:
            a = self._ops
            w = a * z[:, None]
            np.conjugate(w, out=w)  # in place: one m x n temporary
            return a.T @ w  # A^T diag(z) conj(A)
        return (z @ self._ops.reshape(self.m, -1)).reshape(self.dim, self.dim)

    def apply_factored(self, u):
        """A(U U^H) for an (n, r) factor U.

        Rank-one: (A(U U^H))_i = ||a_i^H U||^2, the row sums of
        |A conj(U)|^2, with one m x r temporary.  Dense: ``apply`` on the
        Hermitian part of U U^H.
        """
        u = self._check_factor(u)
        if self.rank_one:
            w = self._ops @ u.conj()  # row i is conj(a_i^H U)
            return np.real(w * w.conj()).sum(axis=1)
        x = u @ u.conj().T
        return self.apply(0.5 * (x + x.conj().T))

    def adjoint_times(self, z, v):
        """A*(z) @ V for an (n, r) matrix V.

        Rank-one: sum_i z_i a_i (a_i^H V) = A^T (z . conj(A conj(V))), with
        one m x r temporary.  Dense: ``adjoint(z) @ V``.
        """
        v = self._check_factor(v)
        if not self.rank_one:
            return self.adjoint(z) @ v
        z = np.asarray(z, dtype=float)
        if z.shape != (self.m,):
            raise ValueError("adjoint input length must match m")
        a = self._ops
        w = a @ v.conj()  # row i is conj(a_i^H V)
        w *= z[:, None]
        np.conjugate(w, out=w)
        return a.T @ w

    def _check_factor(self, u):
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[0] != self.dim:
            raise ValueError(f"factor must be ({self.dim}, r), got {u.shape}")
        return u

    # ---- serialization ----------------------------------------------------

    def to_json_dict(self):
        """{dim, field, operators | vectors, y, noise_norm}; complex entries
        as [re, im]; rank-one ensembles store their sensing vectors."""
        key = "vectors" if self.rank_one else "operators"
        return {
            "dim": int(self.dim),
            "field": self.field,
            key: [_encode_array(op) for op in self._ops],
            "y": _encode_array(self.y),
            "noise_norm": self.noise_norm,
        }

    @classmethod
    def from_json_dict(cls, doc):
        n = int(doc["dim"])
        field = doc["field"]
        if field not in ("real", "complex"):
            raise ValueError(f"unknown field {field!r}")
        if "vectors" in doc:
            raw, shape = doc["vectors"], (n,)
        else:
            raw, shape = doc["operators"], (n, n)
        ops = _decode_array(raw, field == "complex", (len(raw),) + shape)
        return cls(ops, np.array(doc["y"], dtype=float), float(doc["noise_norm"]))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


class Objective:
    """f(X) = ||A(X) - y||_2^2 with gradients and constant estimation.

    Immutable after construction; the smoothness estimate is computed
    lazily and cached.
    """

    def __init__(self, ensemble):
        if ensemble.m == 0:
            raise ValueError("ensemble must be non-empty")
        self.ensemble = ensemble
        self._smoothness = None
        self._mu_cache = {}

    @property
    def dim(self):
        return self.ensemble.dim

    def residual(self, x):
        return self.ensemble.apply(x) - self.ensemble.y

    def value(self, x):
        """f(X) = sum_i (Re trace(E_i X) - y_i)^2."""
        r = self.residual(x)
        return float(r @ r)

    def grad(self, x):
        """Matrix gradient 2 sum_i (Re trace(E_i X) - y_i) E_i; Hermitian."""
        return self.ensemble.adjoint(2.0 * self.residual(x))

    def factored_grad(self, u):
        """grad(U U^H) @ U = 2 A*(A(U U^H) - y) @ U, without forming U U^H
        for rank-one ensembles."""
        ens = self.ensemble
        return ens.adjoint_times(2.0 * (ens.apply_factored(u) - ens.y), u)

    def smoothness(self):
        """L_hat = 2 lambda_max of the Gram form of A, by power iteration.

        Iterates z <- A(A*(z)) on the m-vector side (same nonzero spectrum
        as the n^2-side Gram form) until the Rayleigh quotient is stable
        to ``_SMOOTHNESS_TOL`` relative.
        """
        if self._smoothness is not None:
            return self._smoothness
        ens = self.ensemble
        rng = np.random.default_rng(_SMOOTHNESS_SEED)
        z = rng.standard_normal(ens.m)
        z /= np.linalg.norm(z)
        lam = 0.0
        for _ in range(_SMOOTHNESS_MAX_ITERS):
            w = ens.apply(ens.adjoint(z))
            lam_new = float(z @ w)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam_new = 0.0
                break
            z = w / nw
            if abs(lam_new - lam) <= _SMOOTHNESS_TOL * abs(lam_new):
                lam = lam_new
                break
            lam = lam_new
        self._smoothness = 2.0 * lam
        return self._smoothness

    def strong_convexity(self, rank, trials=50, seed=0):
        """mu_hat: 2 * min directional Gram curvature over random rank-r
        Hermitian directions.

        Diagnostics only; the solver's step size never uses it.
        """
        key = (rank, trials, seed)
        if key in self._mu_cache:
            return self._mu_cache[key]
        n = self.dim
        rng = np.random.default_rng(seed)
        complex_field = self.ensemble.field == "complex"
        best = np.inf
        for _ in range(trials):
            g = rng.standard_normal((n, rank))
            if complex_field:
                g = g + 1j * rng.standard_normal((n, rank))
            q, _ = np.linalg.qr(g)
            s = rng.standard_normal(rank)
            d = (q * s) @ q.conj().T
            d /= np.linalg.norm(d)
            curvature = 2.0 * float(np.sum(self.ensemble.apply(d) ** 2))
            best = min(best, curvature)
        self._mu_cache[key] = best
        return best


def empirical_rip(ensemble, rank, trials=200, seed=0):
    """Empirical restricted-isometry spread of ||A(X)||^2 / ||X||_F^2
    over random rank-r PSD matrices.

    Returns a dict with the raw min/max ratio, the mean gain of the
    ensemble, and ``delta`` measured around that gain (a deliberately
    scaled ensemble is not an isometry defect).  Reported as a
    diagnostic; the sandwich is probabilistic, not certified.
    """
    n = ensemble.dim
    rng = np.random.default_rng(seed)
    complex_field = ensemble.field == "complex"
    ratios = np.empty(trials)
    for k in range(trials):
        g = rng.standard_normal((n, rank))
        if complex_field:
            g = g + 1j * rng.standard_normal((n, rank))
        x = g @ g.conj().T
        x /= np.linalg.norm(x)
        ratios[k] = float(np.sum(ensemble.apply(x) ** 2))
    low, high, gain = float(ratios.min()), float(ratios.max()), float(ratios.mean())
    return {
        "low": low,
        "high": high,
        "gain": gain,
        "delta": max(1.0 - low / gain, high / gain - 1.0),
    }
