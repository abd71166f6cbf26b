"""Least-squares sensing objectives f(X) = ||A(X) - y||_2^2.

A measurement ensemble is a list of Hermitian operators E_i with
observations y_i, held in a storage form of ``_FORMS`` that also writes and
reads its own ``ensemble.json`` rows (``DenseStack``: each E_i packed into a
row of its n^2 real degrees of freedom, n(n+1)/2 for a real field;
``RankOne``: the (m, n) sensing vectors of E_i = a_i a_i^H).  The forward
map is (A(X))_i = Re trace(E_i X), the adjoint is A*(z) = sum_i z_i E_i,
and the gradient convention is

    grad f(X) = 2 A*(A(X) - y),

i.e. the residual factor 2 lives inside ``grad``.

The solver's iteration touches the operator only through two factored
primitives of ``MeasurementEnsemble``:

    apply_factored(U)   = A(U U^H)
    adjoint_times(z, V) = A*(z) @ V

``RankOne`` has its own O(m n r) kernels for both, with no n x n matrix;
a dense stack uses the ensemble's ``apply(U U^H)`` and ``adjoint(z) @ V``.
"""

import json

import numpy as np

from .linalg import _BLOCK_BYTES, gaussian, require_hermitian

__all__ = ["DenseStack", "RankOne", "MeasurementEnsemble", "Objective"]

# Power iteration for L_hat: relative Rayleigh-quotient tolerance, iteration
# cap, and the seed of the start vector.
_SMOOTHNESS_TOL = 1e-6
_SMOOTHNESS_MAX_ITERS = 20000
_SMOOTHNESS_SEED = 0
# mu_hat: random rank-r directions tried, and their seed.
_STRONG_CONVEXITY_TRIALS = 50
_STRONG_CONVEXITY_SEED = 0


def _encode_array(a):
    """Flat JSON list of the entries of ``a``; complex entries as [re, im]."""
    a = np.ascontiguousarray(a)
    if np.iscomplexobj(a):
        return a.view(float).reshape(-1, 2).tolist()
    return a.ravel().tolist()


def _decode_array(doc, complex_field, shape):
    """Inverse of ``_encode_array``; ``doc`` may nest one list per matrix.
    Refuses NaN and infinite entries."""
    arr = np.array(doc, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("array holds a non-finite number (NaN or Infinity)")
    if complex_field:
        arr = arr.reshape(-1, 2).view(complex)
    return arr.reshape(shape)


def _number(convert):
    # A JSON number read as ``convert`` (int or float).  A boolean, string or null is refused (int(true) is 1,
    # float("1e-3") parses), and so is a fractional value read as an int; 3.0 reads as 3.
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{value!r} is not a JSON number")
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
        return convert(value)

    return check


def _packed_width(n, complex_field):
    # Real degrees of freedom of an n x n Hermitian (n^2) or real symmetric (n(n+1)/2) matrix.
    return n * n if complex_field else n * (n + 1) // 2


def _checked(operators):
    return (require_hermitian(op, what=f"operator {i}") for i, op in enumerate(operators))


class DenseStack:
    """Storage form: each Hermitian E_i packed into one real row of its
    degrees of freedom, ``diag(E)``, ``Re E[iu]``, ``Im E[iu]`` (complex
    field, n^2 reals) or ``diag(E)``, ``E[iu]`` (real field, n(n+1)/2
    reals), with ``iu`` the strict upper triangle in row-major order.

    ``operators`` is any iterable of the m n x n matrices or of (b, n, n) blocks of them, packed a block at a
    time (no (m, n, n) stack), or None for zero rows.  Each must be Hermitian: a generator's are by
    construction, ``_checked`` refuses others.
    """

    json_key = "operators"

    def __init__(self, operators, m, n, complex_field):
        self.m, self.dim = m, n
        self.dtype = np.dtype(complex if complex_field else float)
        self.array = np.zeros((m, _packed_width(n, complex_field)))
        self.nbytes = self.array.nbytes
        # Flat positions in an n x n matrix: diagonal (j, j), strict upper triangle (j, k), mirror (k, j).
        j, k = np.triu_indices(n, 1)
        self._diag, self._upper, self._lower = np.arange(n) * (n + 1), j * n + k, k * n + j
        if operators is not None:
            start = 0
            for block in operators:  # an n x n matrix or a (b, n, n) block; a surplus fails at out=
                block = np.reshape(block, (-1, n, n))
                self._packed(block, out=self.array[start : start + len(block)])
                start += len(block)
            if start != m:
                raise ValueError(f"{start} operators for {m} packed rows")

    @classmethod
    def from_monomials(cls, blocks, m, n, complex_field):
        """The m Hermitian matrices with one nonzero per row, E_i[j, cols[i, j]] = values[i, j], from
        (cols, values) blocks of rows: each entry on or above the diagonal is written into zeroed rows."""
        stack, start = cls(None, m, n, complex_field), 0
        t, column = len(stack._upper), np.zeros(n * n, dtype=np.intp)  # packed column of flat (j, k), j <= k
        column[np.concatenate((stack._diag, stack._upper))] = np.arange(n + t)
        for cols, values in blocks:
            i, j = np.nonzero(cols >= np.arange(n))
            k = cols[i, j]
            pos = column[j * n + k]
            stack.array[start + i, pos] = values.real[i, j]
            if complex_field:  # Im (j, k) of the upper triangle lies t places after its real part
                stack.array[start + i[k > j], pos[k > j] + t] = values.imag[i, j][k > j]
            start += len(cols)
        return stack

    @classmethod
    def from_json_rows(cls, rows, n, complex_field):
        """The stack of ``json_rows``, decoded, checked and packed one operator at a time."""
        if len(rows):  # a first row that does not fit n fails before the packed rows are allocated
            _decode_array(rows[0], complex_field, (n, n))
        decoded = (_decode_array(row, complex_field, (n, n)) for row in rows)
        return cls(_checked(decoded), len(rows), n, complex_field)

    @staticmethod
    def footprint(m, n, complex_field):
        """Bytes of the packed rows of m operators of order n."""
        return 8 * m * _packed_width(n, complex_field)

    def _packed(self, x, out=None):
        # diag(x).real, Re x[iu] and, for a complex field, Im x[iu]; a (b, n, n) x gives b rows.
        flat = np.reshape(x, (*np.shape(x)[:-2], -1))
        imag = (flat.imag[..., self._upper],) if self.dtype.kind == "c" else ()
        return np.concatenate((flat.real[..., self._diag], flat.real[..., self._upper], *imag), axis=-1, out=out)

    def _unpacked(self, w):
        # The n x n matrix of the packed entries w: exactly Hermitian, real diagonal.
        n, t = self.dim, len(self._upper)
        e = np.zeros(n * n, dtype=self.dtype)
        e.real[self._diag] = w[:n]
        e.real[self._upper] = e.real[self._lower] = w[n : n + t]
        if self.dtype.kind == "c":  # Im E_kj = 0 - Im E_jk, so a zero stays +0
            e.imag[self._upper] = w[n + t :]
            e.imag[self._lower] = 0.0 - w[n + t :]
        return e.reshape(n, n)

    def apply(self, x):
        # Re tr(E X) = sum_j E_jj Re X_jj + sum_{j<k} Re E_jk (Re X_jk + Re X_kj)
        #   + Im E_jk (Im X_jk - Im X_kj) for Hermitian E and any X, and
        # H = X + X^H holds those sums, with 2 Re X_jj on its diagonal.
        p = self._packed(x + x.conj().T)
        p[: self.dim] *= 0.5
        return self.array @ p

    def adjoint(self, z):
        return self._unpacked(z @ self.array)

    def json_rows(self):
        return [_encode_array(self._unpacked(row)) for row in self.array]


class RankOne:
    """Storage form: the (m, n) sensing vectors a_i of E_i = a_i a_i^H,
    never expanded; every product is O(m n) per column.  ``apply`` and
    ``adjoint`` work through blocks of rows, so that besides the vectors they
    hold their result, one working block of about _BLOCK_BYTES or of n rows,
    whichever is larger, and, for ``adjoint``, one block's n x n product."""

    json_key = "vectors"

    def __init__(self, vectors):
        self.array = vectors
        self.m, self.dim = vectors.shape
        self.nbytes = vectors.nbytes
        self.dtype = vectors.dtype

    @classmethod
    def from_json_rows(cls, rows, n, complex_field):
        """The sensing vectors of ``json_rows``."""
        return cls(_decode_array(rows, complex_field, (len(rows), n)))

    @staticmethod
    def footprint(m, n, complex_field):
        """Bytes of m sensing vectors of length n."""
        return (16 if complex_field else 8) * m * n

    def json_rows(self):
        return [_encode_array(a) for a in self.array]

    def _blocks(self, dtype):
        # (rows, w) per block of rows: a slice of near-equal length (BLAS rounds a short block's products
        # differently) and a reused (rows, n) array of ``dtype``, which with one more value per row fits
        # _BLOCK_BYTES, or of n rows where the budget fits fewer: at most ceil(m / n) blocks, none larger
        # than the n x n product it feeds.  At least one block, so m = 0 gives the empty products.
        most = max(self.dim, _BLOCK_BYTES // (dtype.itemsize * (self.dim + 1)))  # rows a block may hold
        count = max(1, -(-self.m // most))
        edges = [self.m * k // count for k in range(count + 1)]
        work = np.empty((-(-self.m // count), self.dim), dtype)
        for start, stop in zip(edges, edges[1:]):
            yield slice(start, stop), work[: stop - start]

    def apply(self, x):
        # Re(a_i^H X a_i) = Re(conj(X a_i) . a_i): per block the rows X a_i,
        # conjugated and weighted in place, then their row sums.
        a, out = self.array, np.empty(self.m)
        for rows, w in self._blocks(np.result_type(a, x)):
            np.matmul(a[rows], x.T, out=w)  # row i is X a_i
            np.conjugate(w, out=w)
            w *= a[rows]
            out[rows] = w.sum(axis=1).real
        return out

    def adjoint(self, z):
        # A^T diag(z) conj(A), summed over blocks of rows into one n x n result.
        a, out = self.array, None
        for rows, w in self._blocks(self.dtype):
            np.multiply(a[rows], z[rows, None], out=w)
            np.conjugate(w, out=w)
            if out is None:
                out = a[rows].T @ w
            else:
                out += a[rows].T @ w
        return out

    def apply_factored(self, u):
        # (A(U U^H))_i = ||a_i^H U||^2, the row sums of |A conj(U)|^2.
        w = self.array @ u.conj()  # row i is conj(a_i^H U)
        return np.real(w * w.conj()).sum(axis=1)

    def adjoint_times(self, z, v):
        # sum_i z_i a_i (a_i^H V) = A^T (z . conj(A conj(V))).
        a = self.array
        w = a @ v.conj()  # row i is conj(a_i^H V)
        w *= z[:, None]
        np.conjugate(w, out=w)
        return a.T @ w


# The storage forms, each keyed in ensemble.json by its ``json_key``.
_FORMS = (DenseStack, RankOne)


class MeasurementEnsemble:
    """Linear sensing operator: m Hermitian operators plus observations.

    Parameters
    ----------
    operators : a storage form of ``_FORMS``, kept as ``operator``; or an
        (m, n, n) array of matrices E_i, each checked Hermitian and packed
        into a ``DenseStack``, or an (m, n) array of sensing vectors a_i for the
        rank-one E_i = a_i a_i^H, kept as a ``RankOne``.
    y : (m,) real observations.
    noise_norm : l2 norm of the additive noise used to produce ``y``
        (0 for noiseless data); carried as metadata.
    """

    def __init__(self, operators, y, noise_norm=0.0):
        if not 0 <= noise_norm < np.inf:  # NaN fails too; checked first, as a generator's y carries its noise
            raise ValueError("noise_norm must be finite and non-negative")
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():  # save would write a NaN that JSON, and so load, refuses
            raise ValueError("y holds a non-finite number (NaN or Infinity)")
        if not isinstance(operators, _FORMS):
            a = np.ascontiguousarray(operators)
            if a.ndim not in (2, 3) or a.shape[1] != a.shape[-1] or a.shape[-1] < 1:
                raise ValueError(f"operators must be (m, n, n) or (m, n) sensing vectors with n >= 1, got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError("operators hold a non-finite number (NaN or Infinity)")
            operators = RankOne(a) if a.ndim == 2 else DenseStack(_checked(a), *a.shape[:2], np.iscomplexobj(a))
        if y.shape != (operators.m,):
            raise ValueError("y length must match the number of operators")
        self.operator = operators
        self.y = y
        self.noise_norm = float(noise_norm)

    @property
    def m(self):
        return self.operator.m

    @property
    def dim(self):
        return self.operator.dim

    @property
    def dtype(self):
        return self.operator.dtype

    @property
    def field(self):
        return "complex" if self.dtype.kind == "c" else "real"

    def apply(self, x):
        """A(X): real vector of Re trace(E_i X)."""
        x = np.asarray(x)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: expected {(self.dim, self.dim)}, got {x.shape}")
        return self.operator.apply(x)

    def adjoint(self, z):
        """A*(z) = sum_i z_i E_i; Hermitian for real z."""
        return self.operator.adjoint(self._check_weights(z))

    def apply_factored(self, u):
        """A(U U^H) for an (n, r) factor U; ``apply(U @ U^H)``, on the product as
        formed, unless the storage form has its own kernel."""
        u = self._check_factor(u)
        kernel = getattr(self.operator, "apply_factored", None)
        if kernel is not None:
            return kernel(u)
        return self.apply(u @ u.conj().T)

    def adjoint_times(self, z, v):
        """A*(z) @ V for an (n, r) matrix V; ``adjoint(z) @ V`` unless the
        storage form has its own kernel."""
        v = self._check_factor(v)
        kernel = getattr(self.operator, "adjoint_times", None)
        if kernel is None:
            return self.adjoint(z) @ v
        return kernel(self._check_weights(z), v)

    def _check_weights(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.m,):
            raise ValueError("adjoint input length must match m")
        return z

    def _check_factor(self, u):
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[0] != self.dim:
            raise ValueError(f"factor must be ({self.dim}, r), got {u.shape}")
        return u

    # ---- serialization ----------------------------------------------------

    def to_json_dict(self):
        """{dim, field, operators | vectors, y, noise_norm}; complex entries
        as [re, im]; the storage form's ``json_key`` holds its ``json_rows``."""
        return {
            "dim": int(self.dim),
            "field": self.field,
            self.operator.json_key: self.operator.json_rows(),
            "y": _encode_array(self.y),
            "noise_norm": self.noise_norm,
        }

    @classmethod
    def from_json_dict(cls, doc):
        """Inverse of ``to_json_dict``; the form named by its key decodes its rows."""
        n = _number(int)(doc["dim"])
        if n < 1:  # sensing vectors reshaped to (m, -1) would take their own length
            raise ValueError(f"dim={n} must be >= 1")
        field = doc["field"]
        if field not in ("real", "complex"):
            raise ValueError(f"unknown field {field!r}")
        forms = [form for form in _FORMS if form.json_key in doc]
        if len(forms) != 1:
            keys = " and ".join(repr(form.json_key) for form in _FORMS)
            raise ValueError(f"ensemble JSON needs exactly one of {keys}")
        operator = forms[0].from_json_rows(doc[forms[0].json_key], n, field == "complex")
        y = _decode_array(doc["y"], False, (len(doc["y"]),))
        return cls(operator, y, _number(float)(doc["noise_norm"]))

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

    def value(self, x):
        """f(X) = sum_i (Re trace(E_i X) - y_i)^2."""
        r = self.ensemble.apply(x) - self.ensemble.y
        return float(r @ r)

    def grad(self, x):
        """Matrix gradient 2 sum_i (Re trace(E_i X) - y_i) E_i; Hermitian."""
        return self.ensemble.adjoint(2.0 * (self.ensemble.apply(x) - self.ensemble.y))

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
                break
            z = w / nw
            if abs(lam_new - lam) <= _SMOOTHNESS_TOL * abs(lam_new):
                lam = lam_new
                break
            lam = lam_new
        self._smoothness = 2.0 * lam
        return self._smoothness

    def strong_convexity(self, rank):
        """mu_hat: 2 * min directional Gram curvature over random rank-r
        Hermitian directions; cached per rank.

        Diagnostics only; the solver's step size never uses it.
        """
        if rank in self._mu_cache:
            return self._mu_cache[rank]
        n = self.dim
        rng = np.random.default_rng(_STRONG_CONVEXITY_SEED)
        complex_field = self.ensemble.field == "complex"
        best = np.inf
        for _ in range(_STRONG_CONVEXITY_TRIALS):
            q, _ = np.linalg.qr(gaussian(rng, (n, rank), complex_field))
            s = rng.standard_normal(rank)
            d = (q * s) @ q.conj().T
            d /= np.linalg.norm(d)
            curvature = 2.0 * float(np.sum(self.ensemble.apply(d) ** 2))
            best = min(best, curvature)
        self._mu_cache[rank] = best
        return best

