import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.algebra import (ConcreteAlgebra, FDAlgebra, orthonormalize, support_projection,
                              wedderburn_decompose)
from cstarlab.instances import block_algebra, gen_instance
import cstarlab
from cstarlab.linalg import (dagger, expm_i, opnorm, opnorm_max, opnorms, random_complex,
                             random_hermitian, random_unitary, rng_for)
from cstarlab import algebra
from helpers import (complex_gaussian, generator_residual_by_rows, hs_inner, matrix_unit,
                     multiplicity_algebra, to_concrete, triple_relation_residual,
                     verify_algebra)

PROFILES = [(2,), (1, 1), (2, 1), (3,), (2, 2), (1, 1, 1)]


@pytest.mark.parametrize("sizes", [(2, 1), (3, 3), (2, 3, 1)])
def test_random_elements_equal_the_per_block_draws(sizes):
    # one draw for the stack gives the bits of one random_complex call per
    # block and sample, and leaves the stream where those calls leave it
    fd = FDAlgebra(sizes)
    rng, ref = rng_for(41, "batch", *sizes), rng_for(41, "batch", *sizes)
    got = fd.random_elements(rng, 5)
    want = np.zeros((5, fd.d, fd.d), dtype=complex)
    for x in want:
        o = 0
        for n in sizes:
            x[o:o + n, o:o + n] = random_complex(ref, n)
            o += n
    assert got.tobytes() == want.tobytes()
    assert rng.standard_normal() == ref.standard_normal()


# summation order: a stacked GEMM meets single calls or an oracle to a rounding bound
@pytest.mark.summation_order
@pytest.mark.parametrize("case", ["M2+M1/4", "3,3/8", "full M3"])
def test_random_selfadjoints_equal_the_per_sample_draws(case):
    # one draw for the stack reads the stream of one complex_gaussian(rng,
    # dim, 1) call per sample and leaves it where those calls leave it.  The
    # samples are one GEMM, which sums the dim terms c_j b_j in another order
    # than a loop over the basis: each sum of dim terms rounds by at most
    # dim eps times the sum of their sizes, and the basis is HS-normalised,
    # so the two differ by at most 2 (dim + 2) eps ||c||_1 in HS norm
    A = {"M2+M1/4": lambda: gen_instance("conjugation", {"algebra": "M2+M1", "ambient": 4,
                                                         "eps": 1e-6}, seed=2).B,
         "3,3/8": lambda: gen_instance("conjugation", {"algebra": "3,3", "ambient": 8,
                                                       "eps": 1e-6}, seed=2).B,
         "full M3": lambda: ConcreteAlgebra.full(3)}[case]()
    rng, ref = rng_for(42, "batch", case), rng_for(42, "batch", case)
    assert A.random_selfadjoints(rng, 0).shape == (0, A.ambient_dim, A.ambient_dim)
    got = A.random_selfadjoints(rng, 6)
    want, size = [], []
    for _ in range(6):
        c = complex_gaussian(ref, A.dim, 1)[:, 0]
        g = sum(cj * b for cj, b in zip(c, A.basis))
        want.append(0.5 * (g + dagger(g)))
        size.append(np.abs(c).sum())
    bound = 2.0 * (A.dim + 2) * np.finfo(float).eps * np.array(size)
    assert np.all(np.linalg.norm(got - np.array(want), axis=(1, 2)) <= bound)
    assert rng.standard_normal() == ref.standard_normal()


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
                expect = matrix_unit(fd, k1, i1, j2)
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
    # M_8 in M_16: the eight eigenvalue clusters of h off zero must all be
    # linked into one summand, and the cluster at zero, of multiplicity 8, is
    # the kernel of A
    inst = gen_instance("block-rotation", {"algebra": "8", "ambient": 16,
                                           "eps": 1e-6}, seed=0)
    B = inst.B
    st = B.structure()
    assert st.summands == ((8, 1),)
    assert opnorm(st.central_projections[0] - B.support) < 1e-10
    E = st.matrix_units.reshape(8, 8, 16, 16)  # E[i, j] = e_ij
    prods = np.einsum("ijab,klbc->ijklac", E, E)
    expect = np.einsum("jk,ilac->ijklac", np.eye(8), E)
    assert np.abs(prods - expect).max() < 1e-10


def test_wedderburn_of_two_large_blocks_stays_in_bounded_memory():
    # M12 + M12 in M24, dim 288, under a 1 GiB address-space cap: the
    # decomposition reads one N x N eigendecomposition and the product V* a V,
    # and may not stack commutators over pairs of basis elements, whose
    # (dim N^2) x dim operator alone takes 729 MiB
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from cstarlab.instances import block_algebra; "
            "from cstarlab.algebra import wedderburn_decompose; "
            "print(wedderburn_decompose(block_algebra((12, 12), 24)).summands)")
    src = os.path.dirname(os.path.dirname(cstarlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "((12, 1), (12, 1))"


def test_wedderburn_retries_a_draw_that_is_not_generic(monkeypatch):
    # h = a = 0 has the one eigenvalue 0, on all of C^N and not only on the
    # kernel of A, so the kernel check refuses that draw: the next attempt
    # draws afresh, and a run of such draws ends in a typed error
    from cstarlab.certs import SpectralGapError
    A = block_algebra((2, 1), 4)
    draws, real = [], ConcreteAlgebra.random_selfadjoints

    def zero_first(self, rng, count):
        draws.append(real(self, rng, count))
        return 0.0 * draws[-1] if len(draws) == 1 else draws[-1]

    monkeypatch.setattr(ConcreteAlgebra, "random_selfadjoints", zero_first)
    assert sorted(wedderburn_decompose(A).block_sizes) == [1, 2]
    assert len(draws) == 2
    monkeypatch.setattr(ConcreteAlgebra, "random_selfadjoints",
                        lambda self, rng, count: 0.0 * real(self, rng, count))
    with pytest.raises(SpectralGapError):
        wedderburn_decompose(A)


def test_wedderburn_refuses_a_draw_that_links_no_clusters(monkeypatch):
    # a = 0 links no two eigenvalue clusters of h, so each cluster reads as a
    # summand M_1 of its own: M_2 + M_1 reads as three of them, of dimension
    # 3 and not 5, which the dimension check refuses.  The next stream
    # decomposes A, and a run of such draws ends in that check's typed error
    from cstarlab.certs import SpectralGapError
    A = block_algebra((2, 1), 4)
    draws, real = [], ConcreteAlgebra.random_selfadjoints

    def a_zero_first(self, rng, count):
        draws.append(real(self, rng, count))
        return draws[-1] * np.array([1.0, 0.0 if len(draws) == 1 else 1.0])[:, None, None]

    monkeypatch.setattr(ConcreteAlgebra, "random_selfadjoints", a_zero_first)
    assert wedderburn_decompose(A).summands == ((2, 1), (1, 1))
    assert len(draws) == 2
    monkeypatch.setattr(ConcreteAlgebra, "random_selfadjoints",
                        lambda self, rng, count: real(self, rng, count)
                        * np.array([1.0, 0.0])[:, None, None])
    with pytest.raises(SpectralGapError, match="block dimensions do not add up"):
        wedderburn_decompose(A)


@pytest.mark.parametrize("summands, N", [
    (((2, 2), (1, 1)), 6),
    (((2, 1), (2, 2)), 7),
    (((3, 2),), 7),
    (((1, 2), (1, 1), (2, 1)), 6),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_wedderburn_with_multiplicities(summands, N, seed):
    # the summands are known by construction; the projections must add up to
    # the unit and commute with A, the units must satisfy the matrix-unit
    # relations, and the coefficients over the units must invert on A and on
    # its block model
    A, unit = multiplicity_algebra(summands, N, seed)
    st = wedderburn_decompose(A)
    assert sorted(st.summands) == sorted(summands)
    assert st.matrix_units.shape == (A.dim, N, N)
    P = st.central_projections
    assert opnorm(P.sum(axis=0) - unit) < 1e-9
    basis = np.array(A.basis)
    assert opnorm_max(P[:, None] @ basis[None] - basis[None] @ P[:, None]) < 1e-9
    assert [round(np.trace(p).real) for p in P] == [n * m for n, m in st.summands]
    assert st.fd_model().relation_residual(st.matrix_units) <= 1e-9
    fd = st.fd_model()
    assert opnorm_max(to_concrete(st, fd.from_coeffs(st.coeffs(basis))) - basis) < 1e-9
    x = fd.random_elements(rng_for(seed, "mult-model"), 3)
    assert opnorm_max(fd.from_coeffs(st.coeffs(to_concrete(st, x))) - x) < 1e-9
def unit_images(units, w) -> np.ndarray:
    """Images of the matrix units of M_3 + C: E[i, j] (x) 1_2 and a
    one-dimensional summand, in M_7 and conjugated by w, as one stack in
    (k, i, j) order."""
    n = len(units)
    emb = np.zeros((n * n + 1, 7, 7), dtype=complex)
    emb[:n * n, :6, :6] = np.kron(units, np.eye(2)).reshape(n * n, 6, 6)
    emb[n * n, 6, 6] = 1.0
    return w @ emb @ dagger(w)


@pytest.mark.parametrize("t", [1e-3, 0.25])
@pytest.mark.parametrize("rotate", [False, True])
def test_relation_residual_closed_form(t, rotate):
    # exact matrix units satisfy every relation; (1 + t) e_00 breaks
    # e_00 e_00 = e_00 by (1 + t)^2 - (1 + t) = t (1 + t) and no relation by
    # more, and (1 + i t) e_00 breaks e_00* = e_00 by 2 t while its products
    # are off by at most t (1 + t^2)^(1/2)
    w = random_unitary(rng_for(43, "units"), 7) if rotate else np.eye(7)
    fd = FDAlgebra((3, 1))
    E = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            E[i, j, i, j] = 1.0
    exact = fd.relation_residual(unit_images(E, w))
    assert exact <= 1e-14 if rotate else exact == 0.0
    for scale, residual in ((1.0 + t, t * (1.0 + t)), (1.0 + 1j * t, 2.0 * t)):
        F = E.astype(complex)
        F[0, 0] *= scale
        got = fd.relation_residual(unit_images(F, w))
        assert abs(got - residual) <= 1e-14


def _relation_residual_by_rows(fd, E):
    # the all-pairs residual: ||E_ji - E_ij*|| and ||delta_jk E_il - E_ij E_kl||
    # over every pair of units of all blocks, E_il added one j at a time
    worst, base = 0.0, 0
    for n in fd.block_sizes:
        block = E[base:base + n * n].reshape((n, n) + E.shape[1:])
        worst = max(worst, opnorm_max(block.swapaxes(0, 1) - dagger(block)))
        for i in range(n):
            resid = -(block[i][:, None] @ E[None])
            for j in range(n):
                resid[j, base + j * n:base + (j + 1) * n] += block[i]
            worst = max(worst, opnorm_max(resid))
        base += n * n
    return float(worst)


def _assert_generators_bound_every_pair(fd, E):
    # the generating relations are some of the pairs, and through f_i = E_i1
    # and g_j = E_1j they bound every other product by (M^2 + 3M + 1) eps +
    # eps^2, the bound of relation_residual's docstring
    eps, oracle = fd.relation_residual(E), _relation_residual_by_rows(fd, E)
    M = float(np.linalg.norm(E, ord=2, axis=(-2, -1)).max())
    assert eps <= oracle <= (M * M + 3.0 * M + 1.0) * eps + eps * eps + 1e-13
    return eps, oracle


# summation order: the generators' residual bounds the all-pairs oracle under either order
@pytest.mark.summation_order
@pytest.mark.parametrize("sizes", [(1,), (3, 1), (2, 2, 1), (4,)])
def test_relation_residual_bounds_every_pair_through_the_generators(sizes):
    # noisy rotated matrix units: the generating residual is at most the
    # all-pairs oracle and bounds it through the implication
    fd = FDAlgebra(sizes)
    rng = rng_for(45, "units", *sizes)
    w = random_unitary(rng, fd.d + 1)
    E = np.pad(fd.units(), ((0, 0), (0, 1), (0, 1)))
    E = w @ (E + 1e-3 * random_complex(rng, fd.d + 1)) @ dagger(w)
    assert _assert_generators_bound_every_pair(fd, E)[0] > 1e-4


def test_relation_residual_bounds_cross_block_products_through_the_diagonal():
    # the unit of the one-dimensional summand of M_2 + C leans into the range
    # of e_00: every cross-block product is off, and the generating relations
    # see it only through e_00 e_22 and e_22 e_00
    fd = FDAlgebra((2, 1))
    E = np.pad(fd.units(), ((0, 0), (0, 1), (0, 1)))
    v = np.array([np.sin(0.3), 0.0, 0.0, np.cos(0.3)])
    E[4] = np.outer(v, v)
    rng = rng_for(46, "units")
    w = random_unitary(rng, 4)
    E = w @ (E + 1e-4 * random_complex(rng, 4)) @ dagger(w)
    eps, oracle = _assert_generators_bound_every_pair(fd, E)
    assert eps > 0.25 and oracle > eps


# summation order: bits equal to separate calls, whatever the BLAS thread count
@pytest.mark.summation_order
@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("sizes", [(1,), (1, 1), (3, 1), (2, 2, 1), (4,), (2, 2, 2, 2), (7, 5, 3)])
def test_relation_residual_equals_the_row_at_a_time_oracle(sizes, noise, monkeypatch):
    # rotated matrix units, exact (a rounding-level residual) and noisy: the
    # gathered products of families (a)-(c) are the row-at-a-time ones, so
    # the largest norm has the oracle's bits, in the default chunks and in
    # chunks of one product
    fd = FDAlgebra(sizes)
    rng = rng_for(47, "units", *sizes)
    w = random_unitary(rng, fd.d + 1)
    E = np.pad(fd.units(), ((0, 0), (0, 1), (0, 1)))
    E = w @ (E + noise * random_complex(rng, fd.d + 1)) @ dagger(w)
    want = generator_residual_by_rows(fd, E)
    assert fd.relation_residual(E) == want
    monkeypatch.setattr(algebra, "_BATCH_BYTES", 1)
    assert fd.relation_residual(E) == want


def test_relation_residual_counts_cross_block_products():
    # two one-dimensional summands sent to the same projection p: each unit
    # alone is a homomorphism, but e_1 e_2 = 0 is sent to p p = p, of norm 1
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = p[1, 1] = 1.0
    w = random_unitary(rng_for(44, "units"), 3)
    fd = FDAlgebra((1, 1))
    assert fd.relation_residual(np.array([p, p])) == 1.0
    assert abs(fd.relation_residual(w @ np.array([p, p]) @ dagger(w)) - 1.0) <= 1e-14
    q = np.diag([0.0, 0.0, 1.0]).astype(complex)
    assert fd.relation_residual(np.array([p, q])) == 0.0


def test_relation_residual_reads_both_products_of_distinct_diagonal_units():
    # E_1 = |psi><phi|, psi = cos t e_1 + sin t e_0, phi = psi + d chi,
    # chi = cos t e_0 - sin t e_1, is an idempotent but not self-adjoint.
    # Beside E_0 = e_00 it breaks three relations: ||E_1 - E_1*|| = d,
    # ||E_0 E_1|| = sin t (1 + d^2)^(1/2) and, the largest, ||E_1 E_0|| =
    # sin t + d cos t, which a residual over the pairs a < b alone misses
    t, d = 0.1, 0.01
    e = np.eye(3)
    psi = np.cos(t) * e[1] + np.sin(t) * e[0]
    chi = np.cos(t) * e[0] - np.sin(t) * e[1]
    E = np.array([np.outer(e[0], e[0]), np.outer(psi, psi + d * chi)], dtype=complex)
    want = np.sin(t) + d * np.cos(t)
    assert want > np.sin(t) * np.hypot(1.0, d) + 1e-3
    fd = FDAlgebra((1, 1))
    assert abs(fd.relation_residual(E) - want) <= 1e-15
    assert abs(fd.relation_residual(E[::-1]) - want) <= 1e-15


# summation order: an overflowing product gives nan under either summation order
@pytest.mark.summation_order
@pytest.mark.parametrize("batch", [None, 1])
@pytest.mark.parametrize("sizes", [(2, 1), (1, 2)])
def test_relation_residual_of_overflowing_products_is_nan(sizes, batch, monkeypatch):
    # the one-dimensional summand's unit sent to 1e200 times itself squares
    # to inf, so no finite residual certifies the relations, whether its
    # product comes after the finite ones, (2, 1), or before them, (1, 2),
    # and in one chunk or one product per chunk
    fd = FDAlgebra(sizes)
    index = fd.unit_blocks(np.arange(fd.dim_linear))
    E = fd.corner_units(3)
    E[index[sizes.index(1)][0, 0]] *= 1e200
    E[index[sizes.index(2)][0, 0]] *= 1.0 + 1e-3  # a finite residual of 1e-3
    if batch is not None:
        monkeypatch.setattr(algebra, "_BATCH_BYTES", batch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(fd.relation_residual(E))


# the benchmark's and the tests' instance profiles, with and without a unit
ORACLE_CASES = ([("conjugation", alg, n) for alg, n in (
    ("M2", 4), ("M2+M1", 4), ("diag3", 4), ("M2+M2", 6), ("3,3", 8), ("2,2,2", 8),
    ("2,2,2,2", 8))] + [("block-rotation", "6", 12), ("block-rotation", "8", 16)]
    + [("profile", p, sum(p) + 1) for p in PROFILES]
    + [("multiplicity", s, n) for s, n in (
        (((2, 2), (1, 1)), 6), (((2, 1), (2, 2)), 7), (((3, 2),), 7),
        (((1, 2), (1, 1), (2, 1)), 6))]
    + [("non-unital", (2, 1), 6)])


def oracle_algebra(kind, profile, N):
    if kind in ("conjugation", "block-rotation"):
        return gen_instance(kind, {"algebra": profile, "ambient": N, "eps": 1e-6}, seed=3).B
    if kind == "multiplicity":
        return multiplicity_algebra(profile, N, 3)[0]
    return conjugated_blocks(profile, N, seed=3)[0]


# summation order: a stacked GEMM meets single calls or an oracle to a rounding bound
@pytest.mark.summation_order
@pytest.mark.parametrize("kind, profile, N", ORACLE_CASES)
def test_project_matches_a_fresh_orthonormalisation(kind, profile, N):
    # oracle: the projection onto the column space of a fresh QR of the
    # flattened basis, on a stack of targets of different sizes and on one
    A = oracle_algebra(kind, profile, N)
    assert kind != "non-unital" or opnorm(A.support - np.eye(N)) > 0.5
    Q, _ = np.linalg.qr(A.basis.reshape(A.dim, -1).T)
    rng = rng_for(3, "projection-oracle", kind, N)
    X = np.array([s * random_complex(rng, N) for s in (1.0, 1e-3, 1e3, 7.0)])
    want = (Q @ (Q.conj().T @ X.reshape(len(X), -1).T)).T.reshape(X.shape)
    scale = np.linalg.norm(X, axis=(1, 2))
    assert np.all(np.linalg.norm(A.project(X) - want, axis=(1, 2)) <= 1e-13 * scale)
    assert np.linalg.norm(A.project(X[0]) - want[0]) <= 1e-13 * scale[0]


# summation order: both residuals are maxima of rounded norms, and the
# implication bounds hold between them with a rounding-level slack
@pytest.mark.summation_order
@pytest.mark.parametrize("kind, profile, N", ORACLE_CASES)
def test_relation_residual_and_the_triple_check_bound_each_other(kind, profile, N):
    # the generators' residual eps and the check over every triple, old, on
    # the algebra's matrix units, exact and with noise: each is at most the
    # other's implication bound, eps <= (M^2 + 2M) old + 3 old^2 and old <=
    # (M^2 + 3M + 1) eps + eps^2; and the noise is seen
    st = oracle_algebra(kind, profile, N).structure()
    fd = st.fd_model()
    rng = rng_for(48, "unit-noise", kind, N)
    z = rng.standard_normal((2,) + st.matrix_units.shape)
    for noise in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
        E = st.matrix_units + noise * (z[0] + 1j * z[1])
        eps, old = fd.relation_residual(E), triple_relation_residual(fd, E)
        M = float(opnorms(E).max())
        assert eps <= (M * M + 2.0 * M) * old + 3.0 * old * old + 1e-13
        assert old <= (M * M + 3.0 * M + 1.0) * eps + eps * eps + 1e-13
        assert noise == 0.0 or eps >= 0.1 * noise


def with_basis_noise(A, draw):
    """A with seeded complex noise of 1e-15 per entry added to its basis."""
    z = rng_for(draw, "basis-noise", A.ambient_dim, A.dim).standard_normal((2,) + A.basis.shape)
    return ConcreteAlgebra(ambient_dim=A.ambient_dim, basis=A.basis + 1e-15 * (z[0] + 1j * z[1]),
                           support=A.support)


# summation order: another summation order is rounding-level noise on the
# inputs, which the matrix units must absorb
@pytest.mark.summation_order
@pytest.mark.parametrize("kind, profile, N", [
    ("conjugation", "M2+M1", 4), ("conjugation", "3,3", 8), ("conjugation", "2,2,2", 8),
    ("multiplicity", ((2, 1), (2, 2)), 7)])
def test_matrix_units_are_stable_under_rounding_noise_on_the_basis(kind, profile, N):
    # the units are a well-conditioned function of the basis and the draw:
    # the eigenvalue clusters of h are separated, and the eigenvectors'
    # phases, free inside a cluster, cancel in f_j.  Noise of 1e-15 moves
    # them by about 1e-13
    A = oracle_algebra(kind, profile, N)
    want = A.structure()
    for draw in range(3):
        got = with_basis_noise(A, draw).structure()
        assert got.summands == want.summands
        assert np.abs(got.matrix_units - want.matrix_units).max() <= 1e-10


# summation order: another summation order is rounding-level noise on the
# inputs, which the certificates must absorb
@pytest.mark.summation_order
@pytest.mark.parametrize("pipeline", ["oz-perturb", "oz-embed"])
@pytest.mark.parametrize("profile, N", [("M2+M1", 4), ("M2+M2", 6), ("3,3", 8), ("2,2,2", 8)])
def test_order_zero_values_are_stable_under_rounding_noise_on_a(profile, N, pipeline):
    # oz-perturb's order-zero-perturbation and oz-embed's transfer_achieved
    # read A through its matrix units, so they are functions of the algebra
    # only if the units are: 1e-15 noise on A's basis moves them by about
    # 1e-7 relative at most
    from dataclasses import replace
    from cstarlab.pipelines import run_pipeline
    inst = gen_instance("conjugation", {"algebra": profile, "ambient": N, "eps": 1e-6}, seed=3)

    def value(instance):
        certs = run_pipeline(instance, pipeline, 3).certificates
        if pipeline == "oz-perturb":
            return certs["order-zero-perturbation"].achieved
        return certs["nucdim-near-embedding"].details["transfer_achieved"]

    want = value(inst)
    for draw in range(3):
        assert abs(value(replace(inst, A=with_basis_noise(inst.A, draw))) - want) <= 1e-6 * want


def test_block_model_round_trip():
    A = block_algebra((2, 1), 4)
    struct = A.structure()
    for b in A.basis:
        x = struct.fd_model().from_coeffs(struct.coeffs(b))
        back = to_concrete(struct, x)
        assert opnorm(back - b) < 1e-10
    # multiplicativity of the model
    rng = rng_for(1, "bm")
    x, y = struct.fd_model().random_elements(rng, 2)
    assert opnorm(to_concrete(struct, x @ y) - to_concrete(struct, x) @ to_concrete(struct, y)) < 1e-10


def test_support_projection():
    A = block_algebra((2,), 4)
    p = support_projection(A.basis, 4)
    assert opnorm(p - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12
    assert opnorm(A.support - p) < 1e-12


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_algebra_data_is_a_schema_error(bad):
    # the error is typed at the constructor, before a kernel turns it into an
    # untyped LinAlgError or a nan certificate
    from cstarlab.certs import SchemaError
    x = np.eye(2, dtype=complex)
    x[0, 1] = bad
    with pytest.raises(SchemaError):
        ConcreteAlgebra(ambient_dim=2, basis=(x,), support=np.eye(2))
    with pytest.raises(SchemaError):
        ConcreteAlgebra(ambient_dim=2, basis=(np.eye(2),), support=x)
    with pytest.raises(SchemaError):
        ConcreteAlgebra.from_basis([np.eye(2), x], 2)


@pytest.mark.parametrize("basis,support,message", [
    ((), np.eye(2), "basis is empty"),
    ((np.eye(2), np.eye(3)), np.eye(2), r"basis\[1\] has shape \(3, 3\), not \(2, 2\)"),
    ((np.eye(2),), np.eye(3), r"support has shape \(3, 3\), not \(2, 2\)"),
    ((np.eye(2),), np.ones(4), r"support has shape \(4,\), not \(2, 2\)"),
], ids=["empty-basis", "basis-element-3x3", "support-3x3", "support-flat"])
def test_malformed_algebra_data_is_refused_by_field(basis, support, message):
    # refused at the constructor, each message opening with its field, before
    # a reshape or a spectral cut meets the data
    with pytest.raises(ValueError, match="^" + message):
        ConcreteAlgebra(ambient_dim=2, basis=basis, support=support)


def conjugated_blocks(sizes=(2, 1), N=5, seed=9):
    """A block algebra in M_N conjugated by a random unitary v, with v."""
    v = random_unitary(rng_for(seed, "blocks-conj"), N)
    return block_algebra(sizes, N).conjugated(v), v


# summation order: a stacked GEMM meets single calls or an oracle to a rounding bound
@pytest.mark.summation_order
def test_membership_residual_closed_form():
    # x = a + r with a in A and r off the blocks, so r is HS-orthogonal to A
    # (conjugation keeps HS inner products): the residual is ||r|| / ||x||
    A, v = conjugated_blocks()
    fd = FDAlgebra((2, 1))
    rng = rng_for(10, "membership")
    off = np.ones((5, 5))
    off[:2, :2] = off[2, 2] = 0.0
    xs = []
    for scale_a, scale_r in [(1.0, 1e-3), (3.0, 0.5), (1e-4, 2.0), (0.0, 1.0)]:
        a0 = np.zeros((5, 5), dtype=complex)
        a0[:3, :3] = fd.random_elements(rng, 1)[0]
        r0 = off * random_complex(rng, 5)
        a, r = v @ (scale_a * a0) @ dagger(v), v @ (scale_r * r0) @ dagger(v)
        x = a + r
        want = np.linalg.norm(r) / np.linalg.norm(x)
        assert abs(A.membership_residual(x) - want) <= 1e-14
        assert A.membership_residual(a) <= 1e-14
        xs.append(x)
    stack = np.array(xs)
    # a stacked call is one GEMM, whose summation order may differ from a
    # single call's: r = x - P(x) cancels, so the residuals agree to a
    # rounding of the projection, at most 1e-14 ||x||_HS, and the relative
    # residuals to 1e-14
    single = np.array([A.residual(x) for x in xs])
    assert np.all(np.abs(A.residual(stack) - single) <= 1e-14 * np.linalg.norm(stack, axis=(1, 2)))
    assert abs(A.membership_residual(stack)
               - max(A.membership_residual(x) for x in xs)) <= 1e-14
    assert A.membership_residual(np.zeros((5, 5))) == 0.0
    assert A.membership_residual(np.zeros((3, 5, 5))) == 0.0
    assert A.membership_residual(np.zeros((0, 5, 5))) == 0.0
    assert A.membership_residual(A.basis) <= 1e-14


def test_normalized_basis_is_the_per_element_quotient():
    A, _ = conjugated_blocks((2, 2), 6)
    nb = A.normalized_basis
    assert nb.shape == A.basis.shape and not nb.flags.writeable
    assert not A.basis.flags.writeable
    for b, n in zip(A.basis, nb):
        assert abs(opnorm(n) - 1.0) <= 1e-15
        assert n.tobytes() == (b / opnorm(b)).tobytes()
    assert A.normalized_basis is nb  # cached


def _basis_sites(tree, name):
    """(line, call) of each call in the tree that stacks a ``.basis``
    expression with np.array/np.asarray, or takes opnorm/opnorms of one."""
    def is_basis(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "basis"

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args and is_basis(node.args[0])):
            continue
        func = node.func
        fname = getattr(func, "id", getattr(func, "attr", None))
        stacked = (fname in ("array", "asarray") and isinstance(func, ast.Attribute)
                   and getattr(func.value, "id", None) == "np")
        normed = fname in ("opnorm", "opnorms") and name != "algebra.py"
        if stacked or normed:
            found.append(f"{name}:{node.lineno}")
    return found


def test_basis_is_read_as_the_stack_it_is():
    # the basis is one (dim, N, N) array: re-stacking it anywhere, or taking
    # the operator norms of its elements outside algebra.py (which caches
    # them as basis_norms and normalized_basis), fails
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cstarlab").glob("*.py")):
        found += _basis_sites(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert not found, f"read A.basis, A.basis_norms or A.normalized_basis at {found}"


def test_basis_guard_sees_each_form():
    src = ("np.array(A.basis)\nnp.asarray(self.domain.basis, dtype=complex)\n"
           "opnorms(B.basis)\nopnorm(A.basis[0])\nnp.array(basis)\n"
           "opnorms(theta(A.basis) - A.basis)\n")
    assert _basis_sites(ast.parse(src), "geometry.py") == [
        "geometry.py:1", "geometry.py:2", "geometry.py:3", "geometry.py:4"]
    assert _basis_sites(ast.parse(src), "algebra.py") == ["algebra.py:1", "algebra.py:2"]
