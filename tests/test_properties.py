"""Property tests of the measurement operator in both storage forms.

Random small ensembles, dense (real or complex Hermitian stacks) and
rank-one (sensing vectors a_i for E_i = a_i a_i^H), drawn from a seed
that hypothesis chooses.  The dense twin ``MeasurementEnsemble(ens.operators, y)``
is the oracle for the rank-one form, and the n x n ``apply``/``adjoint``
and ``spectral_norm`` are the oracles for the factor-space primitives and
stopping norms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpgd.linalg import gram_diff_norm, gram_norm, is_hermitian, spectral_norm, trace_inner
from fpgd.objective import MeasurementEnsemble

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
    norms = np.linalg.norm(ens.operators.reshape(ens.m, -1), axis=1)
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
    stack = ens.operators
    twin = MeasurementEnsemble(stack, ens.y)
    assert not twin.rank_one and twin.field == ens.field and twin.dim == ens.dim
    n = ens.dim
    x = _draw(rng, (n, n), True)  # a general complex X
    z = rng.standard_normal(ens.m)
    apply_scale = weight(ens, np.ones(ens.m)) * np.linalg.norm(x)
    assert np.max(np.abs(ens.apply(x) - twin.apply(x))) <= REL * apply_scale
    assert np.max(np.abs(ens.adjoint(z) - twin.adjoint(z))) <= REL * weight(ens, z)
    assert np.array_equal(ens.operators, stack)  # apply/adjoint leave the vectors alone


@PROPERTY_SETTINGS
@given(ensembles, st.integers(1, 3))
def test_factored_primitives_match_dense_calls(spec, r):
    # apply_factored(U) = apply(U U^H) and adjoint_times(z, V) = adjoint(z) V,
    # including 2r > n; neither call changes the stored operators.
    ens, rng = build(spec)
    stored = ens.operators.copy()
    u = _draw(rng, (ens.dim, r), spec[1])
    v = _draw(rng, (ens.dim, r), spec[1])
    z = rng.standard_normal(ens.m)
    x = u @ u.conj().T
    apply_scale = weight(ens, np.ones(ens.m)) * np.linalg.norm(x)
    assert np.max(np.abs(ens.apply_factored(u) - ens.apply(x))) <= REL * apply_scale
    gap = np.max(np.abs(ens.adjoint_times(z, v) - ens.adjoint(z) @ v))
    assert gap <= REL * weight(ens, z) * np.linalg.norm(v)
    assert np.array_equal(ens.operators, stored)


factor_pairs = st.tuples(
    st.sampled_from(["random", "near", "rank_deficient", "zero_old", "zero_both"]),
    st.booleans(),  # complex field
    st.integers(1, 6),  # n
    st.integers(1, 3),  # r
    st.integers(0, 2**32 - 1),  # data seed
)


@PROPERTY_SETTINGS
@given(factor_pairs)
def test_factor_space_norms_match_dense(spec):
    # ||U1 U1^H - U0 U0^H||_2 and ||U1 U1^H||_2 without an n x n matrix
    # agree with spectral_norm of the dense matrices.
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
    x0, x1 = u0 @ u0.conj().T, u1 @ u1.conj().T
    scale = max(spectral_norm(x1), spectral_norm(x0))
    assert abs(gram_diff_norm(u1, u0) - spectral_norm(x1 - x0)) <= REL * scale
    assert abs(gram_norm(u1) - spectral_norm(x1)) <= REL * scale
