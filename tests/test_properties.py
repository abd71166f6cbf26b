"""Property tests of the measurement operator in both storage forms.

Random small ensembles, dense (real or complex Hermitian stacks) and
rank-one (sensing vectors a_i for E_i = a_i a_i^H), drawn from a seed
that hypothesis chooses.  The dense twin ``MeasurementEnsemble(dense_stack(ens), y)``
is the oracle for the rank-one form, and the n x n ``apply``/``adjoint``
and ``dense_spectral_norm`` are the oracles for the factor-space primitives and
stopping norms.  The packed dense form is checked against entry-by-entry
sums over the stack it was built from.  The constraint projections are checked against their
variational inequality, and the Procrustes distance against its symmetry
and rotation invariance.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_spectral_norm,
    dense_stack,
    gram_rel_change_reference,
    project_l1_ball_reference,
)

from fpgd.linalg import (
    gram_rel_change,
    is_hermitian,
    procrustes_dist,
    project_frobenius_ball,
    project_l1_ball,
    psd_project,
    trace_inner,
)
from fpgd.objective import DenseStack, MeasurementEnsemble

REL = 1e-12

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ensembles = st.tuples(
    st.sampled_from(["dense", "rank_one"]),
    st.booleans(),  # complex field
    st.integers(1, 6),  # n
    st.integers(1, 10),  # m
    st.integers(0, 2**32 - 1),  # data seed
)


def _draw(rng, shape, complex_field):
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def build(spec):
    """(ensemble, rng) for a drawn spec; the rng then supplies X and z."""
    kind, complex_field, n, m, seed = spec
    rng = np.random.default_rng(seed)
    if kind == "rank_one":
        ops = _draw(rng, (m, n), complex_field)
    else:
        g = _draw(rng, (m, n, n), complex_field)
        ops = 0.5 * (g + np.transpose(g.conj(), (0, 2, 1)))
    return MeasurementEnsemble(ops, rng.standard_normal(m)), rng


def weight(ens, z):
    """sum_i |z_i| ||E_i||_F: the scale of A*(z), and with ||X||_F of <A(X), z>."""
    norms = np.linalg.norm(dense_stack(ens).reshape(ens.m, -1), axis=1)
    return float(np.abs(z) @ norms)


@PROPERTY_SETTINGS
@given(ensembles, st.booleans())
def test_adjointness(spec, hermitian_x):
    # <A(X), z> = <X, A*(z)> for any X: Re tr(E X) = Re tr(X^H E) for Hermitian E.
    ens, rng = build(spec)
    n = ens.dim
    x = _draw(rng, (n, n), spec[1] or not hermitian_x)
    if hermitian_x:
        x = 0.5 * (x + x.conj().T)
    z = rng.standard_normal(ens.m)
    lhs = float(ens.apply(x) @ z)
    rhs = trace_inner(x, ens.adjoint(z))
    assert abs(lhs - rhs) <= REL * weight(ens, z) * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(ensembles)
def test_adjoint_is_hermitian(spec):
    ens, rng = build(spec)
    assert is_hermitian(ens.adjoint(rng.standard_normal(ens.m)))


@PROPERTY_SETTINGS
@given(ensembles.map(lambda spec: ("rank_one",) + spec[1:]))
def test_rank_one_matches_dense_twin(spec):
    ens, rng = build(spec)
    stack = dense_stack(ens)
    twin = MeasurementEnsemble(stack, ens.y)
    assert isinstance(twin.operator, DenseStack) and twin.field == ens.field and twin.dim == ens.dim
    n = ens.dim
    x = _draw(rng, (n, n), True)  # a general complex X
    z = rng.standard_normal(ens.m)
    apply_scale = weight(ens, np.ones(ens.m)) * np.linalg.norm(x)
    assert np.max(np.abs(ens.apply(x) - twin.apply(x))) <= REL * apply_scale
    assert np.max(np.abs(ens.adjoint(z) - twin.adjoint(z))) <= REL * weight(ens, z)
    assert np.array_equal(dense_stack(ens), stack)  # apply/adjoint leave the vectors alone


@PROPERTY_SETTINGS
@given(ensembles, st.integers(1, 3))
def test_factored_primitives_match_dense_calls(spec, r):
    # apply_factored(U) = apply(U U^H) and adjoint_times(z, V) = adjoint(z) V,
    # including 2r > n; neither call changes the stored operators.
    ens, rng = build(spec)
    stored = dense_stack(ens).copy()
    u = _draw(rng, (ens.dim, r), spec[1])
    v = _draw(rng, (ens.dim, r), spec[1])
    z = rng.standard_normal(ens.m)
    x = u @ u.conj().T
    apply_scale = weight(ens, np.ones(ens.m)) * np.linalg.norm(x)
    assert np.max(np.abs(ens.apply_factored(u) - ens.apply(x))) <= REL * apply_scale
    gap = np.max(np.abs(ens.adjoint_times(z, v) - ens.adjoint(z) @ v))
    assert gap <= REL * weight(ens, z) * np.linalg.norm(v)
    assert np.array_equal(dense_stack(ens), stored)


packed_cases = st.tuples(
    st.booleans(),  # complex field
    st.integers(1, 8),  # n
    st.integers(1, 10),  # m
    st.integers(1, 3),  # r
    st.integers(0, 2**32 - 1),  # data seed
)


def _packed_case(spec):
    complex_field, n, m, r, seed = spec
    rng = np.random.default_rng(seed)
    g = _draw(rng, (m, n, n), complex_field)
    stack = 0.5 * (g + np.transpose(g.conj(), (0, 2, 1)))
    return MeasurementEnsemble(stack, rng.standard_normal(m)), stack, rng


def _naive_apply(stack, x):
    # Re tr(E_k X) = sum_{j,l} Re(E_k[j, l] X[l, j]), one entry at a time.
    n = len(x)
    return np.array([sum((e[j, l] * x[l, j]).real for j in range(n) for l in range(n)) for e in stack])


def _naive_adjoint(stack, z):
    out = np.zeros(stack.shape[1:], dtype=stack.dtype)
    for zk, e in zip(z, stack):
        out += zk * e
    return out


@PROPERTY_SETTINGS
@given(packed_cases)
def test_packed_dense_form_matches_entrywise_sums(spec):
    # apply, adjoint, apply_factored and adjoint_times of the packed rows
    # against Re tr(E_k X) and sum_k z_k E_k over the unpacked stack, for a
    # Hermitian and a general complex X on either field.
    ens, stack, rng = _packed_case(spec)
    complex_field, n, m, r, _ = spec
    assert isinstance(ens.operator, DenseStack) and ens.operator.nbytes == 8 * m * (
        n * n if complex_field else n * (n + 1) // 2)
    norms = np.linalg.norm(stack.reshape(m, -1), axis=1)
    g = _draw(rng, (n, n), True)
    for x in (g, 0.5 * (g + g.conj().T)):
        assert np.max(np.abs(ens.apply(x) - _naive_apply(stack, x))) <= REL * norms.sum() * np.linalg.norm(x)
    u = _draw(rng, (n, r), complex_field)
    v = _draw(rng, (n, r), complex_field)
    z = rng.standard_normal(m)
    x = u @ u.conj().T
    assert np.max(np.abs(ens.apply_factored(u) - _naive_apply(stack, x))) <= (
        REL * norms.sum() * np.linalg.norm(x))
    a = ens.adjoint(z)
    assert np.array_equal(a, a.conj().T) and a.dtype == stack.dtype  # exactly Hermitian, real diagonal
    assert np.max(np.abs(a - _naive_adjoint(stack, z))) <= REL * (np.abs(z) @ norms)
    gap = np.max(np.abs(ens.adjoint_times(z, v) - _naive_adjoint(stack, z) @ v))
    assert gap <= REL * (np.abs(z) @ norms) * np.linalg.norm(v)


@PROPERTY_SETTINGS
@given(packed_cases)
def test_packed_dense_form_refuses_non_hermitian_and_survives_save_load(spec):
    ens, stack, rng = _packed_case(spec)
    complex_field, n, m, _, _ = spec
    k = int(rng.integers(m))
    if n > 1 or complex_field:
        bad = stack.copy()
        bad[k, 0, n - 1] += 1j if complex_field else 1.0  # breaks E = E^H, on the diagonal when n = 1
        with pytest.raises(ValueError, match=f"operator {k} is not Hermitian"):
            MeasurementEnsemble(bad, ens.y)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.json"
        path.write_text(json.dumps(ens.to_json_dict()))
        back = MeasurementEnsemble.from_json_dict(json.loads(path.read_text()))
    x = _draw(rng, (n, n), True)
    z = rng.standard_normal(m)
    assert back.apply(x).tobytes() == ens.apply(x).tobytes()
    assert back.adjoint(z).tobytes() == ens.adjoint(z).tobytes()


factor_pairs = st.tuples(
    st.sampled_from(["random", "near", "rank_deficient", "zero_old", "zero_both", "zero_new"]),
    st.booleans(),  # complex field
    st.integers(1, 6),  # n
    st.integers(1, 3),  # r
    st.integers(0, 2**32 - 1),  # data seed
)


@PROPERTY_SETTINGS
@given(factor_pairs)
def test_factor_space_norms_match_dense(spec):
    # ||U1 U1^H - U0 U0^H||_2 / ||U1 U1^H||_2 without an n x n matrix agrees
    # with the ratio of the dense matrices' eigenvalue norms; it is exactly 0
    # when both vanish and inf when only U1 U1^H does.
    kind, complex_field, n, r, seed = spec
    rng = np.random.default_rng(seed)
    u0 = _draw(rng, (n, r), complex_field)
    u1 = _draw(rng, (n, r), complex_field)
    if kind == "near":
        u1 = u0 + 1e-6 * u1
    elif kind == "rank_deficient":
        u0[:, -1] = 0.0
        u1[:, 0] = 0.5 * u1[:, -1]
    elif kind == "zero_old":
        u0[:] = 0.0
    elif kind == "zero_both":
        u0[:] = 0.0
        u1[:] = 0.0
    elif kind == "zero_new":
        u1[:] = 0.0
    x0, x1 = u0 @ u0.conj().T, u1 @ u1.conj().T
    top = dense_spectral_norm(x1)
    ratio = gram_rel_change(u1, u0)
    if top == 0.0:
        assert ratio == (0.0 if kind == "zero_both" else float("inf"))
        return
    dense = dense_spectral_norm(x1 - x0) / top
    # Both norms within REL * max(||X1||_2, ||X0||_2) bound the ratio's error by this.
    scale = max(top, dense_spectral_norm(x0))
    assert abs(ratio - dense) <= REL * (scale / top) * (1.0 + dense)


@PROPERTY_SETTINGS
@given(factor_pairs)
def test_gram_rel_change_equals_its_reference_bit_for_bit(spec):
    # The in-place kernel does the reference's floating-point operations, so the
    # ratio is the same float: real and complex, r = 1..3, the edge cases too.
    kind, complex_field, n, r, seed = spec
    rng = np.random.default_rng(seed)
    u0 = _draw(rng, (n, r), complex_field)
    u1 = _draw(rng, (n, r), complex_field)
    if kind == "near":
        u1 = u0 + 1e-6 * u1
    elif kind == "rank_deficient":
        u0[:, -1] = 0.0
        u1[:, 0] = 0.5 * u1[:, -1]
    elif kind in ("zero_old", "zero_both"):
        u0[:] = 0.0
    if kind in ("zero_new", "zero_both"):
        u1[:] = 0.0
    assert gram_rel_change(u1, u0) == gram_rel_change_reference(u1, u0)


projection_cases = st.tuples(
    st.booleans(),  # complex field
    st.integers(1, 6),  # n
    st.integers(1, 3),  # r
    st.floats(0.05, 4.0),  # ball radius
    st.integers(0, 2**32 - 1),  # data seed
)


def _inside_ball(rng, shape, complex_field, lam, norm):
    # A point of {norm(U) <= lam}, from the centre out to the boundary.
    w = _draw(rng, shape, complex_field)
    return w * (lam * rng.uniform(0.0, 1.0) / norm(w))


@PROPERTY_SETTINGS
@given(projection_cases)
def test_ball_projections_satisfy_the_variational_inequality(spec):
    # P = Pi_C(V) is the Euclidean projection onto a convex C iff P is in C
    # and <P - U, V - P> >= 0 for every U in C; here C is the Frobenius and
    # the entrywise l1 ball, and V lies inside or outside it.
    complex_field, n, r, lam, seed = spec
    rng = np.random.default_rng(seed)
    v = 2.0 * lam * _draw(rng, (n, r), complex_field)
    for p, norm in (
        (project_frobenius_ball(v, lam)[0], np.linalg.norm),
        (project_l1_ball(v, lam), lambda a: float(np.abs(a).sum())),
    ):
        assert norm(p) <= lam * (1.0 + REL)
        scale = (np.linalg.norm(p) + lam) * np.linalg.norm(v)
        # the boundary point in the direction of V, then random points
        candidates = [v * (lam / norm(v))]
        candidates += [_inside_ball(rng, (n, r), complex_field, lam, norm) for _ in range(10)]
        for u in candidates:
            assert trace_inner(p - u, v - p) >= -1e-10 * scale


@PROPERTY_SETTINGS
@given(projection_cases, st.sampled_from(["random", "zeros", "signed_zeros", "tied_moduli"]))
def test_l1_projection_equals_its_reference_byte_for_byte(spec, kind):
    # One phase expression v / |v| (0 where v is 0) gives the sign-based real
    # and abs-based complex projections exactly: values, signed zeros and dtype.
    complex_field, n, r, lam, seed = spec
    rng = np.random.default_rng(seed)
    v = 2.0 * lam * _draw(rng, (n, r), complex_field)
    if kind in ("zeros", "signed_zeros"):
        v.flat[::2] = 0.0
    if kind == "signed_zeros":
        v.flat[1::3] = -0.0
    elif kind == "tied_moduli":
        v.flat[1::2] = -v.flat[0]
    out, ref = project_l1_ball(v, lam), project_l1_ball_reference(v, lam)
    assert out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@PROPERTY_SETTINGS
@given(projection_cases)
def test_psd_projection_satisfies_the_variational_inequality(spec):
    # <P - G, H - P> >= 0 for every PSD G, with P = Pi_+(H) itself PSD.
    complex_field, n, r, _, seed = spec
    rng = np.random.default_rng(seed)
    h = _draw(rng, (n, n), complex_field)
    h = 0.5 * (h + h.conj().T)
    p = psd_project(h)
    assert np.min(np.linalg.eigvalsh(p)) >= -REL * np.linalg.norm(h)
    for _ in range(10):
        g = _draw(rng, (n, r), complex_field)
        g = g @ g.conj().T
        scale = (np.linalg.norm(p) + np.linalg.norm(g)) * np.linalg.norm(h)
        assert trace_inner(p - g, h - p) >= -1e-10 * scale


@PROPERTY_SETTINGS
@given(factor_pairs)
def test_procrustes_dist_is_symmetric_and_rotation_invariant(spec):
    # Dist(U, V) = Dist(V, U) = Dist(U Q, V) = Dist(U, V Q) for unitary Q.
    _, complex_field, n, r, seed = spec
    rng = np.random.default_rng(seed)
    u = _draw(rng, (n, r), complex_field)
    v = _draw(rng, (n, r), complex_field)
    q, _ = np.linalg.qr(_draw(rng, (r, r), complex_field))
    d = procrustes_dist(u, v)
    tol = 1e-10 * (np.linalg.norm(u) + np.linalg.norm(v))
    assert abs(procrustes_dist(v, u) - d) <= tol
    assert abs(procrustes_dist(u @ q, v) - d) <= tol
    assert abs(procrustes_dist(u, v @ q) - d) <= tol
