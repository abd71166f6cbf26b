"""Problem generators: quantum state tomography, sparse phase retrieval,
and synthetic matrix sensing, each with known ground truth.

All generators are deterministic functions of their seed and return a
ProblemInstance bundling the least-squares objective, a factor U* of the
true matrix X* = U* U*^H, and the factored-space constraint set.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import gaussian, project_frobenius_ball, project_l1_ball
from .objective import DenseStack, MeasurementEnsemble, Objective, RankOne, _decode_array, _encode_array, _number

__all__ = [
    "ConstraintSet",
    "unconstrained",
    "frobenius_ball",
    "l1_ball",
    "ProblemInstance",
    "pauli_operator",
    "gen_qst",
    "gen_phase_retrieval",
    "gen_synthetic",
]

_PAULI = {
    "0": np.eye(2, dtype=complex),
    "1": np.array([[0, 1], [1, 0]], dtype=complex),
    "2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "3": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Qubit counts past this would need >= 4^13 * 16 bytes per operator batch.
_MAX_QUBITS = 12


@dataclass(frozen=True)
class ConstraintSet:
    """Factored-space constraint with its Euclidean projection.

    kind is one of "unconstrained", "frobenius_ball", "l1_ball".  The
    Frobenius ball is faithful (one-to-one with the trace constraint on
    X = U U^H); the l1 ball is not: feasible factors can map to
    infeasible X, so factored-space convergence statements do not
    transfer.
    """

    kind: str
    lam: float | None = None

    @property
    def faithful(self):
        return self.kind != "l1_ball"

    def project(self, v):
        """Project a factor; returns (projected, xi).

        xi is the norm scaling actually applied, ||Pi(v)||_F / ||v||_F:
        exactly the scaling factor for the Frobenius ball, 1 whenever the
        input is feasible, and the induced norm ratio for the l1 ball.
        """
        if self.kind == "unconstrained":
            return v, 1.0
        if self.kind == "frobenius_ball":
            return project_frobenius_ball(v, self.lam)
        if self.kind == "l1_ball":
            out = project_l1_ball(v, self.lam)
            nv = float(np.linalg.norm(v))
            if nv == 0.0 or out is v:
                return out, 1.0
            return out, float(np.linalg.norm(out)) / nv
        raise ValueError(f"unknown constraint kind {self.kind!r}")

    def contains(self, v, tol=1e-10):
        if self.kind == "unconstrained":
            return True
        if self.kind == "frobenius_ball":
            return float(np.linalg.norm(v)) <= self.lam + tol
        if self.kind == "l1_ball":
            return float(np.abs(v).sum()) <= self.lam + tol
        raise ValueError(f"unknown constraint kind {self.kind!r}")

    def to_json_dict(self):
        return {"kind": self.kind, "lam": self.lam, "faithful": self.faithful}

    @staticmethod
    def from_json_dict(doc):
        # Through the constructors, so lam is checked on load; a stored faithful is ignored.
        kind = doc["kind"]
        if kind == "unconstrained":
            return unconstrained()
        if kind in ("frobenius_ball", "l1_ball"):
            return (frobenius_ball if kind == "frobenius_ball" else l1_ball)(_number(float)(doc["lam"]))
        raise ValueError(f"unknown constraint kind {kind!r}")


def unconstrained():
    return ConstraintSet("unconstrained")


def frobenius_ball(lam):
    if not lam > 0:  # NaN fails too
        raise ValueError("lam must be positive")
    return ConstraintSet("frobenius_ball", float(lam))


def l1_ball(lam):
    if not lam > 0:  # NaN fails too
        raise ValueError("lam must be positive")
    return ConstraintSet("l1_ball", float(lam))


@dataclass
class ProblemInstance:
    """A sensing problem with known ground truth U*.

    X* (``truth_x``) and the rank are derived from ``truth_factor``, which
    is feasible for ``constraint`` for the faithful generators.
    """

    objective: Objective
    truth_factor: np.ndarray
    constraint: ConstraintSet
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.objective.dim

    @property
    def rank(self):
        return self.truth_factor.shape[1]

    @property
    def truth_x(self):
        """X* = U* U*^H, symmetrized so that it is exactly Hermitian."""
        x = self.truth_factor @ self.truth_factor.conj().T
        return 0.5 * (x + x.conj().T)

    def save(self, ensemble_path, companion_path):
        """Write the ensemble JSON and the {truth_factor, constraint, rank, seed} companion."""
        self.objective.ensemble.save(ensemble_path)
        doc = {
            "truth_factor": _encode_array(self.truth_factor),
            "constraint": self.constraint.to_json_dict(),
            "rank": int(self.rank),
            "seed": int(self.seed),
        }
        with open(companion_path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, ensemble_path, companion_path):
        # The n x n "truth" key of older companions is ignored: X* follows from truth_factor.
        ensemble = MeasurementEnsemble.load(ensemble_path)
        with open(companion_path) as fh:
            doc = json.load(fh)
        n = ensemble.dim
        rank = _number(int)(doc["rank"])
        if not 1 <= rank <= n:  # reshaping to (n, -1) would accept -1
            raise ValueError(f"rank={rank} must be in [1, n = {n}]")
        complex_field = ensemble.field == "complex"
        return cls(
            objective=Objective(ensemble),
            truth_factor=_decode_array(doc["truth_factor"], complex_field, (n, rank)),
            constraint=ConstraintSet.from_json_dict(doc["constraint"]),
            seed=_number(int)(doc["seed"]),
        )


def pauli_operator(q, index, normalize=True):
    """Tensor product of single-qubit Pauli matrices, one per digit.

    Parameters
    ----------
    q : qubit count, 1 <= q <= 12.
    index : base-4 digit string of length q; 0,1,2,3 pick I, sigma_x,
        sigma_y, sigma_z.
    normalize : divide by sqrt(2^q) so the operator has unit Frobenius
        norm (the convention used throughout; distinct index strings are
        then orthonormal under the trace inner product).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > _MAX_QUBITS:
        raise ValueError(f"q={q} exceeds the memory budget (max {_MAX_QUBITS})")
    if len(index) != q or any(d not in _PAULI for d in index):
        raise ValueError(f"index must be a length-{q} string over digits 0-3")
    op = _PAULI[index[0]].copy()  # a fresh array: the caller may scale it in place
    for digit in index[1:]:
        op = np.kron(op, _PAULI[digit])
    if normalize:
        op = op / np.sqrt(2.0**q)
    return op


def _sample_distinct_paulis(q, m, rng):
    total = 4**q
    if m > total:
        raise ValueError(f"cannot draw {m} distinct Pauli strings from 4^{q} = {total}")
    if m > total // 2:
        picks = rng.permutation(total)[:m]
    else:
        seen = set()
        picks = []
        while len(picks) < m:
            candidate = int(rng.integers(0, total))
            if candidate not in seen:
                seen.add(candidate)
                picks.append(candidate)
    return [np.base_repr(int(v), 4).zfill(q) for v in picks]


def _mem_available_bytes():
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _require_fits(need, what):
    # Refuse ``need`` bytes for ``what`` beyond MemAvailable before allocating; unknown: no check.
    available = _mem_available_bytes()
    if available is not None and need > available:
        raise ValueError(
            f"{what} needs {need} bytes (~{need / 2**30:.1f} GiB), "
            f"more than the {available} bytes available"
        )


def _scaled_noise(rng, m, noise_norm):
    if noise_norm == 0.0:
        return np.zeros(m)
    eta = rng.standard_normal(m)
    return eta * (noise_norm / np.linalg.norm(eta))


def _observed_instance(operator, truth_factor, rng, noise_norm, constraint, seed, meta):
    # Shared generator tail: observe X* = U* U*^H through the storage form
    # ``operator`` and add the noise, drawn from ``rng`` after everything else.
    ensemble = MeasurementEnsemble(operator, np.zeros(operator.m), noise_norm)
    instance = ProblemInstance(Objective(ensemble), truth_factor, constraint, seed, meta)
    ensemble.y = ensemble.apply(instance.truth_x) + _scaled_noise(rng, ensemble.m, noise_norm)
    return instance


def gen_qst(q, r, c_sam, noise_norm=1e-3, seed=0):
    """Quantum state tomography instance: rank-r density matrix, Pauli
    measurements, Frobenius-ball factored constraint.

    n = 2^q; m = round(c_sam * r * n * ln n) distinct Pauli index strings
    sampled uniformly without replacement.  X* is PSD rank-r with unit
    trace (random orthonormal directions, Dirichlet(1,...,1) spectrum);
    the noise vector is rescaled to exactly ``noise_norm``.

    Sampled operators carry a uniform gain n^{3/2} / sqrt(m) on top of
    the unit-Frobenius Pauli convention, so ||A(X)||^2 ~ n ||X||_F^2:
    the gain-normalized ensemble satisfies the restricted-isometry
    sandwich, and the absolute gain reproduces the reported recovery
    error magnitudes under ||noise|| = 1e-3.
    """
    if q < 1 or q > _MAX_QUBITS:
        raise ValueError(f"q must be in [1, {_MAX_QUBITS}]")
    n = 2**q
    if not 1 <= r <= n:
        raise ValueError(f"r={r} must be in [1, 2^q = {n}]")
    samples = c_sam * r * n * float(np.log(n))  # a Python float: overflow gives inf, no warning
    if not 0.5 < samples < np.inf:  # rounds to at least one measurement, and is finite
        raise ValueError(f"c_sam={c_sam!r} gives no finite, positive measurement count")
    m = int(round(samples))
    _require_fits(DenseStack.footprint(m, n, True), f"{m} packed {n} x {n} operators")
    rng = np.random.default_rng(seed)
    strings = _sample_distinct_paulis(q, m, rng)
    scale = n**1.5 / np.sqrt(m)
    ops = DenseStack((scale * pauli_operator(q, s) for s in strings), m, n, True)  # no (m, n, n) stack

    basis, _ = np.linalg.qr(gaussian(rng, (n, r), True))
    spectrum = rng.dirichlet(np.ones(r))
    spectrum = np.sort(spectrum)[::-1]
    truth_factor = basis * np.sqrt(spectrum)
    return _observed_instance(
        ops, truth_factor, rng, noise_norm, frobenius_ball(1.0), seed,
        meta={"kind": "qst", "q": q, "c_sam": c_sam, "pauli_strings": strings},
    )


def gen_phase_retrieval(n, sparsity, m, noise_norm=0.0, lam=None, seed=0):
    """Sparse phase retrieval: rank-1 lifted recovery of a k-sparse
    complex vector from quadratic measurements y_i = |<a_i, x*>|^2.

    Operators are Phi_i = a_i a_i^H with complex Gaussian a_i, kept as the
    (m, n) sensing vectors (the m x n x n stack is never built); the
    factored constraint is the (unfaithful) entrywise l1 ball of radius
    ``lam``, default 1.2 * ||x*||_1.
    """
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity={sparsity} must be in [1, n = {n}]")
    if m < 1:
        raise ValueError("need at least one measurement")
    _require_fits(RankOne.footprint(m, n, True), f"{m} x {n} sensing vectors")
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=sparsity, replace=False)
    x = np.zeros(n, dtype=complex)
    x[support] = gaussian(rng, sparsity, True)
    x /= np.linalg.norm(x)

    a = gaussian(rng, (m, n), True) / np.sqrt(2.0)
    if lam is None:
        lam = 1.2 * float(np.abs(x).sum())
    return _observed_instance(
        RankOne(a), x[:, None], rng, noise_norm, l1_ball(lam), seed,
        meta={"kind": "phase_retrieval", "sparsity": sparsity},
    )


def gen_synthetic(n, r, m, condition_number=2.0, noise_norm=0.0, seed=0):
    """Real symmetric Gaussian sensing of a rank-r PSD matrix with a
    controlled spectrum.

    X* has geometric spectrum from 1 down to 1/condition_number,
    rescaled to unit trace; operators (G + G^T) / (2 sqrt(m)) are
    near-isometric in expectation; constraint is the Frobenius unit ball.
    """
    if not condition_number >= 1:  # NaN fails too
        raise ValueError("condition_number must be >= 1")
    if not 1 <= r <= n:
        raise ValueError(f"r={r} must be in [1, n = {n}]")
    if m < 1:
        raise ValueError("need at least one measurement")
    _require_fits(DenseStack.footprint(m, n, False), f"{m} packed {n} x {n} operators")
    rng = np.random.default_rng(seed)
    denom = 2.0 * np.sqrt(m)

    def symmetrized_gaussians():
        # One (n, n) draw per operator takes the normals of one (m, n, n) draw, in order.
        for _ in range(m):
            g = rng.standard_normal((n, n))
            yield (g + g.T) / denom

    ops = DenseStack(symmetrized_gaussians(), m, n, False)

    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    if r == 1:
        spectrum = np.array([1.0])
    else:
        spectrum = condition_number ** (-np.arange(r) / (r - 1))
    spectrum = spectrum / spectrum.sum()
    truth_factor = basis * np.sqrt(spectrum)
    return _observed_instance(
        ops, truth_factor, rng, noise_norm, frobenius_ball(1.0), seed,
        meta={"kind": "synthetic", "condition_number": condition_number},
    )
