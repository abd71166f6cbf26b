"""Problem generators: quantum state tomography, sparse phase retrieval,
and synthetic matrix sensing, each with known ground truth.

All generators are deterministic functions of their seed and return a
ProblemInstance bundling the least-squares objective, a factor U* of the
true matrix X* = U* U*^H, and the factored-space constraint set.
"""

import json
from dataclasses import dataclass

import numpy as np

from .linalg import gaussian, project_frobenius_ball, project_l1_ball
from .objective import DenseStack, MeasurementEnsemble, Objective, RankOne, _decode_array, _encode_array, _number

__all__ = [
    "ConstraintSet",
    "unconstrained",
    "frobenius_ball",
    "l1_ball",
    "ProblemInstance",
    "gen_qst",
    "gen_phase_retrieval",
    "gen_synthetic",
]

# Per digit I, X, Y, Z: its bit in the masks x (X and Y flip the qubit) and z (Y and Z sign it), qubit 0
# the most significant bit as in np.kron; and (-i)^k for k = #Y mod 4, as (real, imaginary) pairs.
_XZ, _PHASES = np.array([[0, 1, 1, 0], [0, 0, 1, 1]]), np.array([[1, 0], [0, -1], [-1, 0], [0, 1]])

# gen_synthetic draws, symmetrizes and packs its operators in blocks of about this many entries.
_SYNTHETIC_BLOCK = 4096

# The widest Pauli strings whose int64 codes int(s, 4) < 4^q fit; below it the memory guard decides.
_MAX_QUBITS = 31


@dataclass(frozen=True)
class ConstraintSet:
    """Factored-space constraint with its Euclidean projection.

    kind is one of "unconstrained", "frobenius_ball", "l1_ball"; a ball takes
    a radius lam > 0; both are checked on construction.  The Frobenius
    ball is faithful (one-to-one with the trace constraint on X = U U^H); the
    l1 ball is not: feasible factors can map to infeasible X, so
    factored-space convergence statements do not transfer.
    """

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in ("unconstrained", "frobenius_ball", "l1_ball"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind != "unconstrained":
            if self.lam is None or not self.lam > 0:  # NaN fails too
                raise ValueError("lam must be positive")
            object.__setattr__(self, "lam", float(self.lam))  # frozen, so set through object

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
        out = project_l1_ball(v, self.lam)
        if out is v:  # feasible, so no norm is taken; an infeasible v is nonzero
            return v, 1.0
        return out, float(np.linalg.norm(out)) / float(np.linalg.norm(v))

    def to_json_dict(self):
        return {"kind": self.kind, "lam": self.lam, "faithful": self.faithful}

    @staticmethod
    def from_json_dict(doc):
        # kind and lam are checked by the constructor; a stored faithful, and an unconstrained lam, are ignored.
        kind = doc["kind"]
        return ConstraintSet(kind, None if kind == "unconstrained" else _number(float)(doc["lam"]))


def unconstrained():
    return ConstraintSet("unconstrained")


def frobenius_ball(lam):
    return ConstraintSet("frobenius_ball", lam)


def l1_ball(lam):
    return ConstraintSet("l1_ball", lam)


@dataclass(frozen=True)
class ProblemInstance:
    """A sensing problem with known ground truth U*, built once and frozen.

    X* (``truth_x``) and the rank are derived from ``truth_factor``, which
    is feasible for ``constraint`` for the faithful generators.
    """

    objective: Objective
    truth_factor: np.ndarray
    constraint: ConstraintSet
    seed: int

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
        with open(companion_path) as fh:
            doc = json.load(fh)
        ensemble = MeasurementEnsemble.load(ensemble_path)
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


def _pauli_monomials(q, codes, c):
    """(cols, values) of c times the Pauli strings of ``codes``, int(s, 4) of each string s, 64 at a time: row j
    of P_s holds (-i)^{#Y} (-1)^{|j & z|} at column j ^ x.  Parts are c times 0 or ±1: no -0.0."""
    rows, shifts = np.arange(2**q), np.arange(q - 1, -1, -1)
    for start in range(0, len(codes), 64):  # small blocks: no m x n temporaries while the stack fills
        digits = codes[start : start + 64, None] >> 2 * shifts & 3
        x, z = _XZ[:, digits]  # each (block, q), one 0/1 entry per qubit
        signs = 1 - 2 * (z @ ((rows >> shifts[:, None]) & 1) & 1)  # (-1)^{|j & z|}
        phases = signs[..., None] * _PHASES[(digits == 2).sum(axis=1) % 4, None]
        yield rows ^ (x @ (1 << shifts))[:, None], (c * phases).view(complex)[..., 0]


def _sample_distinct_paulis(q, m, rng):
    total = 4**q
    if m > total:
        raise ValueError(f"cannot draw {m} distinct Pauli strings from 4^{q} = {total}")
    if m > total // 2:
        return rng.permutation(total)[:m]
    picks = {}  # the distinct draws, in the order first drawn
    while len(picks) < m:
        picks[int(rng.integers(0, total))] = None
    return np.fromiter(picks, np.int64, m)


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


def _observed_instance(operator, truth_factor, rng, noise_norm, constraint, seed):
    # Shared generator tail: observe X* = U* U*^H through the storage form ``operator``, add the noise,
    # drawn from ``rng`` after everything else, and build the instance once around that y.
    y = operator.apply(truth_factor @ truth_factor.conj().T) + _scaled_noise(rng, operator.m, noise_norm)
    return ProblemInstance(Objective(MeasurementEnsemble(operator, y, noise_norm)), truth_factor, constraint, seed)


def gen_qst(q, r, c_sam, noise_norm=1e-3, seed=0):
    """Quantum state tomography instance: rank-r density matrix, Pauli
    measurements, Frobenius-ball factored constraint.

    n = 2^q for 1 <= q <= 31, the widest strings whose int64 codes fit; the
    memory guard refuses a larger packed stack than fits, with its byte count
    (q = 9 at c_sam = 3, r = 1 needs 18.7 GiB).  m = round(c_sam * r * n * ln n)
    distinct Pauli index strings sampled uniformly without replacement.  X* is
    PSD rank-r with unit trace (random orthonormal directions,
    Dirichlet(1,...,1) spectrum); the noise is rescaled to exactly ``noise_norm``.

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
    codes = _sample_distinct_paulis(q, m, rng)
    c = n**1.5 / np.sqrt(m) * (1.0 / np.sqrt(2.0**q))  # the gain times the unit-Frobenius 1 / sqrt(n)
    ops = DenseStack.from_monomials(_pauli_monomials(q, codes, c), m, n, True)

    basis, _ = np.linalg.qr(gaussian(rng, (n, r), True))
    spectrum = rng.dirichlet(np.ones(r))
    spectrum = np.sort(spectrum)[::-1]
    truth_factor = basis * np.sqrt(spectrum)
    return _observed_instance(ops, truth_factor, rng, noise_norm, frobenius_ball(1.0), seed)


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

    a = gaussian(rng, (m, n), True)
    a /= np.sqrt(2.0)  # in place: the vectors are the one m x n array
    if lam is None:
        lam = 1.2 * float(np.abs(x).sum())
    return _observed_instance(RankOne(a), x[:, None], rng, noise_norm, l1_ball(lam), seed)


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
    denom, block = 2.0 * np.sqrt(m), max(1, _SYNTHETIC_BLOCK // (n * n))

    def symmetrized_gaussians():
        # A (b, n, n) draw per block takes the normals of one (m, n, n) draw, in order.
        for start in range(0, m, block):
            g = rng.standard_normal((min(block, m - start), n, n))
            yield (g + g.transpose(0, 2, 1)) / denom

    ops = DenseStack(symmetrized_gaussians(), m, n, False)

    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    if r == 1:
        spectrum = np.array([1.0])
    else:
        spectrum = condition_number ** (-np.arange(r) / (r - 1))
    spectrum = spectrum / spectrum.sum()
    truth_factor = basis * np.sqrt(spectrum)
    return _observed_instance(ops, truth_factor, rng, noise_norm, frobenius_ball(1.0), seed)
