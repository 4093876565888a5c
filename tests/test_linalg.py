import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.linalg import (clip_spectrum, cluster_values, dagger, eigh_fun,
                             expm_i, herm, hs_norm, is_projection_residual,
                             opnorm, opnorms, partial_isometry_polar, polar_factor,
                             principal_log_unitary, psd_part, psd_pinv,
                             psd_sqrt, random_complex, random_contraction,
                             random_hermitian, random_unitary,
                             range_projection, rng_for, tracenorm)

DIMS = st.integers(min_value=1, max_value=6)
SEEDS = st.integers(min_value=0, max_value=10_000)


def test_rng_determinism():
    a = rng_for(7, "tag", 3).standard_normal(5)
    b = rng_for(7, "tag", 3).standard_normal(5)
    c = rng_for(7, "tag", 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_random_unitary_is_unitary(n, seed):
    u = random_unitary(rng_for(seed, "u"), n)
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_random_contraction_norm(n, seed):
    c = random_contraction(rng_for(seed, "c"), n)
    assert opnorm(c) <= 1.0 + 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_polar_factor_matches_scipy(n, seed):
    x = random_complex(rng_for(seed, "p"), n) + 3.0 * np.eye(n)
    u = polar_factor(x)
    u_ref, _ = scipy.linalg.polar(x)
    assert opnorm(u - u_ref) < 1e-10
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_psd_sqrt_squares_back(n, seed):
    h = random_hermitian(rng_for(seed, "s"), n)
    p = psd_part(h)
    r = psd_sqrt(p)
    assert opnorm(r @ r - p) < 1e-10
    vals = np.linalg.eigvalsh(p)
    assert vals.min() > -1e-13


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_expm_i_unitary_and_matches_scipy(n, seed):
    h = random_hermitian(rng_for(seed, "e"), n)
    u = expm_i(h)
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12
    assert opnorm(u - scipy.linalg.expm(1j * h)) < 1e-10


def test_expm_i_small_angle_norm():
    # ||e^{ih} - 1|| = 2 sin(||h||/2) for hermitian h
    h = np.diag([0.3, -0.1])
    u = expm_i(h)
    assert abs(opnorm(u - np.eye(2)) - 2 * np.sin(0.15)) < 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_clip_spectrum_bounds(n, seed):
    h = 3.0 * random_hermitian(rng_for(seed, "cl"), n)
    c = clip_spectrum(h, -1.0, 1.0)
    vals = np.linalg.eigvalsh(c)
    assert vals.min() >= -1.0 - 1e-12 and vals.max() <= 1.0 + 1e-12


def test_psd_pinv_on_singular():
    h = np.diag([2.0, 0.0, 1e-16])
    hp = psd_pinv(h)
    assert np.allclose(hp, np.diag([0.5, 0.0, 0.0]))


def test_range_projection_rank():
    h = np.diag([1.0, 0.5, 0.0])
    p = range_projection(h)
    assert is_projection_residual(p) < 1e-12
    assert abs(np.trace(p) - 2.0) < 1e-12


def test_eigh_fun_polynomial():
    h = random_hermitian(rng_for(1, "f"), 4)
    sq = eigh_fun(h, lambda t: t * t)
    assert opnorm(sq - h @ h) < 1e-12


def test_principal_log_roundtrip():
    h = 0.4 * random_hermitian(rng_for(2, "log"), 3)
    h = herm(h / max(opnorm(h), 1e-300))
    u = expm_i(0.3 * h)
    g = principal_log_unitary(u)
    assert opnorm(expm_i(g) - u) < 1e-11


def test_partial_isometry_polar():
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 2.0
    v = partial_isometry_polar(x)
    assert opnorm(v @ dagger(v) @ v - v) < 1e-12
    assert abs(opnorm(v) - 1.0) < 1e-12


def test_cluster_values_groups():
    groups = cluster_values(np.array([0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
    assert [len(g) for g in groups] == [2, 2, 1]


def test_tracenorm_vs_hsnorm():
    x = random_complex(rng_for(3, "t"), 4)
    s = np.linalg.svd(x, compute_uv=False)
    assert abs(tracenorm(x) - s.sum()) < 1e-12
    assert abs(hs_norm(x) - np.sqrt((s * s).sum())) < 1e-12


def test_opnorms_equal_opnorm_per_matrix():
    rng = rng_for(5, "opnorms")
    for shape in [(9, 4, 4), (6, 3, 5), (2, 3, 8, 8)]:
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals = opnorms(S)
        assert vals.shape == shape[:-2]
        flat = S.reshape((-1,) + shape[-2:])
        assert np.array_equal(vals.reshape(-1), [opnorm(s) for s in flat])
    assert opnorms(np.zeros((0, 3, 3))).shape == (0,)
