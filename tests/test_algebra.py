import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.algebra import (BlockModel, ConcreteAlgebra, FDAlgebra,
                              generate_algebra, orthonormalize,
                              support_projection, unitize_tilde,
                              verify_algebra, wedderburn_decompose)
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.linalg import (dagger, expm_i, hs_inner, opnorm,
                             random_hermitian, random_unitary, rng_for)

PROFILES = [(2,), (1, 1), (2, 1), (3,), (2, 2), (1, 1, 1)]


def test_fd_algebra_unit_table():
    fd = FDAlgebra((2, 1))
    assert fd.d == 3
    assert fd.dim_linear == 5
    units = fd.units()
    assert len(units) == 5
    # e_ij e_kl = delta_jk e_il within a block, zero across blocks
    labels = fd.unit_labels()
    for (k1, i1, j1), u1 in zip(labels, units):
        for (k2, i2, j2), u2 in zip(labels, units):
            prod = u1 @ u2
            if k1 == k2 and j1 == i2:
                expect = fd.matrix_unit(k1, i1, j2)
            else:
                expect = np.zeros_like(prod)
            assert opnorm(prod - expect) < 1e-14


@pytest.mark.parametrize("profile", [(2, 1), (3, 3), (2, 3, 1)])
def test_fd_coeffs_round_trip_pinches(profile):
    fd = FDAlgebra(profile)
    d = fd.d
    rng = rng_for(0, "test-pinch")
    X = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    mask = np.zeros((d, d), dtype=bool)
    off = 0
    for n in profile:
        mask[off:off + n, off:off + n] = True
        off += n
    assert np.array_equal(fd.from_coeffs(fd.coeffs(X)), np.where(mask, X, 0))
    assert np.array_equal(fd.coeffs(X[2]), fd.coeffs(X)[2])


def test_fd_unit_is_identity():
    fd = FDAlgebra((2, 2))
    assert np.allclose(fd.unit(), np.eye(4))


def test_generate_algebra_closure():
    rng = rng_for(0, "gen")
    u = random_unitary(rng, 4)
    g = np.zeros((4, 4), dtype=complex)
    g[:2, :2] = random_hermitian(rng, 2)
    A = generate_algebra([u @ g @ dagger(u)])
    cert = verify_algebra(A)
    assert cert.passed
    for a in A.basis:
        for b in A.basis:
            assert A.residual(a @ b) < 1e-9
            assert A.residual(dagger(a)) < 1e-9


def test_basis_hs_orthonormal():
    A = block_algebra((2, 1), 4)
    for i, a in enumerate(A.basis):
        for j, b in enumerate(A.basis):
            ip = hs_inner(a, b)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("profile", PROFILES)
def test_wedderburn_recovers_block_sizes(profile):
    N = sum(profile) + 1
    A = block_algebra(profile, N)
    u = random_unitary(rng_for(5, "w", *profile), N)
    Au = A.conjugated(u)
    st = Au.structure()
    assert sorted(st.block_sizes) == sorted(profile)
    assert sum(n * n for n in st.block_sizes) == Au.dim


def test_wedderburn_full_block_in_large_ambient():
    # M_8 in M_16: the commutator operator of the center search is 16384 x 64,
    # whose full left singular factor alone would take about 4.3 GB
    inst = gen_instance("block-rotation", {"algebra": "8", "ambient": 16,
                                           "eps": 1e-6}, seed=0)
    B = inst.B
    st = B.structure()
    assert st.summands == ((8, 1),)
    assert opnorm(st.central_projections[0] - B.support) < 1e-10
    E = np.array(st.matrix_units[0])  # E[i, j] = e_ij
    prods = np.einsum("ijab,klbc->ijklac", E, E)
    expect = np.einsum("jk,ilac->ijklac", np.eye(8), E)
    assert np.abs(prods - expect).max() < 1e-10


def test_block_model_round_trip():
    A = block_algebra((2, 1), 4)
    bm = A.block_model()
    for b in A.basis:
        x = bm.to_abstract(b)
        back = bm.to_concrete(x)
        assert opnorm(back - b) < 1e-10
    # multiplicativity of the model
    rng = rng_for(1, "bm")
    x, y = bm.fd.random_element(rng), bm.fd.random_element(rng)
    assert opnorm(bm.to_concrete(x @ y) - bm.to_concrete(x) @ bm.to_concrete(y)) < 1e-10


def test_support_projection():
    A = block_algebra((2,), 4)
    p = support_projection(A.basis, 4)
    assert opnorm(p - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12
    assert opnorm(A.support - p) < 1e-12
    assert np.allclose(A.unit, A.support)


def test_unitize_tilde_adds_one_dim():
    # the ambient grows by one and the adjoined unit is the full identity
    A = block_algebra((2,), 3)
    At = unitize_tilde(A)
    assert At.ambient_dim == 4
    assert At.dim == A.dim + 1
    assert opnorm(At.support - np.eye(4)) < 1e-12
    for b in A.basis:
        m = np.zeros((4, 4), dtype=complex)
        m[:3, :3] = b
        assert At.residual(m) < 1e-10


def test_orthonormalize_drops_dependent():
    e = np.eye(2, dtype=complex)
    out = orthonormalize([e, 2.0 * e, np.diag([1.0, -1.0]).astype(complex)])
    assert len(out) == 2


def test_project_is_hs_orthogonal():
    A = block_algebra((2,), 4)
    rng = rng_for(2, "proj")
    x = random_hermitian(rng, 4)
    p = A.project(x)
    assert A.residual(p) < 1e-12
    for b in A.basis:
        assert abs(hs_inner(b, x - p)) < 1e-10


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_conjugated_algebra_is_algebra(seed):
    A = block_algebra((2, 1), 4)
    u = expm_i(0.3 * random_hermitian(rng_for(seed, "conj"), 4))
    Au = A.conjugated(u)
    assert verify_algebra(Au).passed
    assert Au.dim == A.dim
