"""Completely positive maps: Choi matrices, classification, dilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import cpmaps, linalg
from cstarlab.algebra import ConcreteAlgebra, FDAlgebra, dagger, opnorm
from cstarlab.certs import TOL_ALG, TOL_PSD
from cstarlab.cpmaps import (
    LinMap,
    _factor_bound,
    arveson_restrict,
    cb_bracket,
    choi_blocks,
    classify,
    dilation_images,
    hom_defect,
    kraus_operators,
    perturb_choi,
    stinespring,
    ucp_extension,
    worst_move,
)
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.linalg import herm, opnorm_max, opnorms, random_complex, random_unitary, rng_for
from helpers import (MULTIPLICITY_CASES, choi, complex_gaussian, conditional_expectation,
                     dilation_representation, from_choi, matrix_unit, mult_defects,
                     multiplicity_algebra, pinched_cb_bracket)


def random_ucp(fd: FDAlgebra, N: int, seed: int = 0) -> LinMap:
    # compress an amplified defining representation by a Haar isometry
    rng = rng_for(seed, "test-ucp")
    D = fd.d * N
    g = rng.standard_normal((D, N)) + 1j * rng.standard_normal((D, N))
    v, _ = np.linalg.qr(g)
    images = tuple(dagger(v) @ np.kron(matrix_unit(fd, k, i, j), np.eye(N)) @ v
                   for (k, i, j) in fd.unit_labels())
    return LinMap(fd, images)


def random_selfadjoint_map(fd: FDAlgebra, N: int, seed: int = 0) -> LinMap:
    rng = rng_for(seed, "test-sa-map")
    images = []
    for _ in range(fd.dim_linear):
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        images.append(0.1 * (g + dagger(g)))
    return LinMap(fd, tuple(images))


# ---------------------------------------------------------------------------
# Choi correspondence
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_choi_round_trip(seed):
    fd = FDAlgebra((2, 1))
    phi = random_selfadjoint_map(fd, 3, seed)
    back = from_choi(choi(phi), fd.block_sizes, 3)
    for a, b in zip(phi.images, back.images):
        assert opnorm(a - b) < 1e-12


def test_choi_blocks_are_copies_of_the_images():
    # reference: the index loop C_k[iN:(i+1)N, jN:(j+1)N] = phi(e_ij^(k))
    fd = FDAlgebra((2, 3, 1))
    N = 3
    phi = random_selfadjoint_map(fd, N, seed=5)
    C = choi(phi)
    expect = np.zeros_like(C)
    off, pos = 0, 0
    for n in fd.block_sizes:
        for i in range(n):
            for j in range(n):
                expect[off + i * N:off + (i + 1) * N,
                       off + j * N:off + (j + 1) * N] = phi.images[pos]
                pos += 1
        off += n * N
    assert np.array_equal(C, expect)
    assert np.array_equal(from_choi(C, fd.block_sizes, N).images, phi.images)


def test_perturb_choi_moves_each_block_by_at_most_eps():
    # the psd part is the HS-nearest psd matrix, a 1-Lipschitz projection
    # fixing the psd blocks of a cp map: each block moves by <= eps in HS
    fd = FDAlgebra((2, 1))
    phi, eps = random_ucp(fd, 3, seed=4), 1e-3
    psi = perturb_choi(phi, eps, rng_for(4, "choi-noise"))
    assert classify(psi).cp
    for C, D in zip(choi_blocks(phi), choi_blocks(psi)):
        assert 0.0 < np.linalg.norm(D - C) <= eps * (1 + 1e-9)
    again = perturb_choi(phi, eps, rng_for(4, "choi-noise"))
    assert np.array_equal(again.images, psi.images)


def test_choi_of_ucp_is_psd():
    fd = FDAlgebra((2,))
    phi = random_ucp(fd, 4, seed=3)
    C = choi(phi)
    assert opnorm(C - dagger(C)) < 1e-12
    assert np.linalg.eigvalsh(C).min() > -1e-12


def test_classify_ucp():
    fd = FDAlgebra((2, 1))
    phi = random_ucp(fd, 5, seed=11)
    cls = classify(phi)
    assert cls.cp and cls.cpc and cls.ucp
    assert cls.unit_defect < 1e-10


def test_classify_transpose_not_cp():
    # the transpose map on M_2 is positive but not completely positive
    fd = FDAlgebra((2,))
    images = tuple(matrix_unit(fd, k, i, j).T for (k, i, j) in fd.unit_labels())
    phi = LinMap(fd, images)
    cls = classify(phi)
    assert not cls.cp
    assert cls.choi_min_eig < -0.5


@pytest.mark.parametrize("sizes", [(2, 1), (3, 3), (2, 3, 1)])
def test_classify_equals_the_per_block_loop(sizes):
    # reference: one operator norm and one eigensolve per Choi block, whose
    # spectra classify returns in block order, bit for bit
    fd, N = FDAlgebra(sizes), 3
    ucp = random_ucp(fd, N, seed=2)
    rng = rng_for(2, "test-classify-blocks")
    skew = complex_gaussian(rng, N * fd.dim_linear, N).reshape(fd.dim_linear, N, N)
    # i 1e-6 on phi(e_ii) of the last block adds an anti-Hermitian part to
    # that Choi block alone and leaves its Hermitian part psd
    last = ucp.images.copy()
    for pos, (k, i, j) in enumerate(fd.unit_labels()):
        if k == len(sizes) - 1 and i == j:
            last[pos] += 1e-6j * np.eye(N)
    maps = [ucp, ucp.scaled(1.5), random_selfadjoint_map(fd, N, seed=2), LinMap(fd, last),
            LinMap(fd, ucp.images + 1e-12 * skew), LinMap(fd, ucp.images + 1e-3 * skew)]
    verdicts = set()
    for phi in maps:
        herm_resid, min_eig, spectra = 0.0, np.inf, []
        for C in choi_blocks(phi):
            herm_resid = max(herm_resid, opnorm(C - dagger(C)))
            spectra.append(np.linalg.eigvalsh(herm(C)))
            min_eig = min(min_eig, float(spectra[-1].min()))
        cp = herm_resid <= TOL_PSD and min_eig >= -TOL_PSD
        cls = classify(phi)
        assert cls.choi_min_eig == min_eig
        assert [v.tobytes() for v in cls.spectra] == [v.tobytes() for v in spectra]
        assert (cls.cp, cls.cpc, cls.ucp) == (
            cp, cp and cls.norm_of_unit <= 1.0 + TOL_PSD, cp and cls.unit_defect <= TOL_ALG)
        verdicts.add((cls.cp, cls.cpc, cls.ucp))
    assert verdicts == {(True, True, True), (True, False, False), (False, False, False)}


def test_classify_cp_not_contractive():
    fd = FDAlgebra((2,))
    phi = random_ucp(fd, 3, seed=5).scaled(2.0)
    cls = classify(phi)
    assert cls.cp and not cls.cpc and not cls.ucp


def test_classify_reads_a_nan_hermitian_residual_as_not_cp():
    # a Choi block's skew residual that is not a number certifies nothing:
    # Python's max(0.0, nan) is 0.0 and would pass it as Hermitian.  i t 1
    # on each phi(e_ii) adds i t 1 to every Choi block and leaves their
    # Hermitian parts psd; at t = 1e200 the skew part's HS norm overflows,
    # so its operator norm reads nan
    fd = FDAlgebra((2, 1))
    phi = random_ucp(fd, 3, seed=5)
    assert classify(phi).cp
    images = phi.images.copy()
    for pos, (k, i, j) in enumerate(fd.unit_labels()):
        if i == j:
            images[pos] += 1e200j * np.eye(3)
    skewed = LinMap(fd, images)
    assert all(np.isnan(opnorm_max(C - dagger(C))) for C in choi_blocks(skewed))
    cls = classify(skewed)
    assert cls.choi_min_eig >= -TOL_PSD
    assert not (cls.cp or cls.cpc or cls.ucp)


def test_classify_reads_a_nan_eigenvalue_as_not_cp(monkeypatch):
    # a Choi eigenvalue that is not a number certifies nothing: Python's min
    # drops it, and a minimum read as 0.0 would pass the blocks as psd
    A = block_algebra((2, 1), 3)
    phi = LinMap(A, A.structure().matrix_units, codomain_algebra=A)
    assert classify(phi).ucp
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.full(m.shape[:-1], np.nan))
    cls = classify(phi)
    assert np.isnan(cls.choi_min_eig) and not (cls.cp or cls.cpc or cls.ucp)


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(2,), (1, 1), (2, 1), (3,)])
def test_stinespring_reconstructs(sizes):
    fd = FDAlgebra(sizes)
    phi = random_ucp(fd, 4, seed=sum(sizes))
    dil = stinespring(phi)
    V, E = dil.isometry, dil.embed
    # phi = E V* pi(.) V E* for pi(e_ij) = e_ij (x) 1_{r_k}, built entry by
    # entry from the ranks, and dilation_images reads the same compression
    R = dilation_representation(sizes, dil.ranks)
    assert len(V) == sum(n * r for n, r in zip(sizes, dil.ranks))
    pi = LinMap(fd, R)
    rng = rng_for(99, "stinespring-check")
    for x in fd.random_elements(rng, 4):
        assert opnorm(E @ dagger(V) @ pi(x) @ V @ dagger(E) - phi(x)) < 1e-10
    assert opnorm_max(dilation_images(sizes, dil.ranks, V @ dagger(E)) - phi.images) < 1e-10
    # the explicit pi is a unital *-representation: exact matrix-unit
    # relations, and the diagonal units sum to the identity of the dilation
    assert fd.relation_residual(R) == 0.0
    assert opnorm(pi(fd.unit()) - np.eye(len(V))) == 0.0


def test_stinespring_isometry_for_ucp():
    fd = FDAlgebra((2, 1))
    phi = random_ucp(fd, 4, seed=2)
    dil = stinespring(phi)
    v = dil.isometry
    assert opnorm(dagger(v) @ v - np.eye(v.shape[1])) < 1e-10
    # the ranks are the Kraus ranks, the numbers of kept Choi eigenvalues
    assert dil.ranks == tuple(len(K) for K in kraus_operators(phi, TOL_PSD))
    p = v @ dagger(v)
    assert opnorm(p @ p - p) < 1e-10


def test_kraus_operators_sum():
    fd = FDAlgebra((2,))
    phi = random_ucp(fd, 3, seed=7)
    ops = kraus_operators(phi, TOL_PSD)
    # completeness: sum_t K_t 1 K_t* recovers phi(1) blockwise
    total = np.zeros((3, 3), dtype=complex)
    for block in ops:
        for K in block:
            total = total + K @ dagger(K)
    assert opnorm(total - phi(fd.unit())) < 1e-10


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------

def _random_map(domain, N: int, dim: int, seed: int) -> LinMap:
    rng = rng_for(seed, "test-stack-map")
    return LinMap(domain, np.array([random_complex(rng, N) for _ in range(dim)]))


@pytest.mark.parametrize("profile", [(2, 1), (3, 3), (2, 3, 1)])
def test_stacked_evaluation_block_domain(profile):
    fd = FDAlgebra(profile)
    phi = _random_map(fd, 4, fd.dim_linear, seed=sum(profile))
    rng = rng_for(1, "test-stack-x")
    X = fd.random_elements(rng, 7)
    stacked = phi(X)
    assert stacked.shape == (7, 4, 4)
    # independent oracle: sum over the matrix units e_ij^(k) of x's entry at
    # (o_k + i, o_k + j) times the stored image
    offsets = np.concatenate([[0], np.cumsum(profile)[:-1]])
    for x, y in zip(X, stacked):
        assert opnorm(y - phi(x)) < 1e-13
        oracle = sum(x[offsets[k] + i, offsets[k] + j] * img
                     for (k, i, j), img in zip(fd.unit_labels(), phi.images))
        assert opnorm(y - oracle) < 1e-13


def _unit_oracle(phi: LinMap, x: np.ndarray) -> np.ndarray:
    """phi(x) = sum over the domain's matrix units e_ij of summand k of
    <e_ij, x>_HS / m_k times the stored image, one unit at a time."""
    struct = phi.domain.structure()
    mults = [struct.summands[k][1] for k, _, _ in phi.fd.unit_labels()]
    return sum(np.vdot(e, x) / m * img
               for e, m, img in zip(struct.matrix_units, mults, phi.images))


# summation order: a concrete-domain map evaluates by one GEMM against the matrix units
@pytest.mark.summation_order
def test_stacked_evaluation_concrete_domain():
    A = block_algebra((2, 1), 4).conjugated(random_unitary(rng_for(2, "test-u"), 4))
    phi = _random_map(A, 3, A.dim, seed=3)
    rng = rng_for(4, "test-stack-x")
    h = A.random_selfadjoints(rng, 12)
    X = h[0::2] + 1j * h[1::2]
    stacked = phi(X)
    for x, y in zip(X, stacked):
        assert opnorm(y - phi(x)) < 1e-13
        assert opnorm(y - _unit_oracle(phi, x)) < 1e-13


# summation order: a concrete-domain map evaluates by one GEMM against the matrix units
@pytest.mark.summation_order
@pytest.mark.parametrize("summands, N", MULTIPLICITY_CASES)
def test_evaluation_on_a_domain_with_multiplicity(summands, N):
    # on M_n (x) 1_m the unit e_ij has <e_ij, e_ij>_HS = m, so a coefficient
    # is the HS inner product over m: phi(e_ij) comes back as the image of
    # e_ij, and phi(x) matches the one-unit-at-a-time oracle
    A, _ = multiplicity_algebra(summands, N, seed=5)
    phi = _random_map(A, 3, A.dim, seed=6)
    units = A.structure().matrix_units
    assert opnorm_max(phi(units) - phi.images) <= 1e-13 * opnorm_max(phi.images)
    h = A.random_selfadjoints(rng_for(7, "test-mult-x"), 8)
    X = h[0::2] + 1j * h[1::2]
    for x, y in zip(X, phi(X)):
        assert opnorm(y - _unit_oracle(phi, x)) <= 1e-13 * opnorm(x) * opnorm_max(phi.images)


def test_linmap_rejects_bad_images():
    # N is read off the images: a (d, N, N) stack of any N is a map into M_N,
    # and a stack that is not one, or not one image per matrix unit, is refused
    fd = FDAlgebra((2,))
    assert LinMap(fd, np.zeros((4, 3, 3))).codomain_dim == 3
    for images in (np.zeros((4, 2, 3)), np.zeros((4, 4)), np.zeros((3, 3, 3))):
        with pytest.raises(ValueError):
            LinMap(fd, images)
    with pytest.raises(ValueError):
        LinMap(ConcreteAlgebra.full(2), np.zeros((3, 2, 2)))


def test_mult_defect_table_order():
    fd = FDAlgebra((2, 1))
    phi = random_ucp(fd, 3, seed=8)
    rng = rng_for(8, "test-defect")
    X = fd.random_elements(rng, 3)
    defects = mult_defects(phi, X)
    # each x, then x*, in the order of X
    expect = [opnorm(phi(y) @ phi(dagger(y)) - phi(y @ dagger(y)))
              for x in X for y in (x, dagger(x))]
    assert np.allclose([opnorm(d) for d in defects], expect, rtol=0, atol=1e-13)
    assert opnorm_max(defects) == max(opnorm(d) for d in defects)


def test_mult_defect_zero_for_hom():
    fd = FDAlgebra((2,))
    images = tuple(matrix_unit(fd, k, i, j) for (k, i, j) in fd.unit_labels())
    phi = LinMap(fd, images)
    rng = rng_for(0, "defect")
    X = fd.random_elements(rng, 4)
    defects = mult_defects(phi, X)
    assert opnorm_max(defects) < 1e-12
    assert len(defects) == 8  # each element and its adjoint


@pytest.mark.parametrize("t", [0.3, 0.9])
@pytest.mark.parametrize("domain", ["block (2,1)", "concrete (2,1)/4"])
def test_hom_defect_of_a_scaled_identity(domain, t):
    # phi = t id: E_ij E_jl - E_il goes to (t^2 - t) e_il, of norm t(1 - t);
    # the adjoint terms and the products of distinct diagonal units vanish
    if domain.startswith("block"):
        fd = FDAlgebra((2, 1))
        phi = LinMap(fd, t * fd.units())
    else:
        A = block_algebra((2, 1), 4)
        phi = LinMap(A, t * A.structure().matrix_units)
    assert abs(hom_defect(phi) - t * (1.0 - t)) <= 1e-14


@pytest.mark.parametrize("domain", ["block (2,)", "concrete (2,)/2 conjugated"])
def test_hom_defect_of_the_transpose_on_m2_is_one(domain):
    # e_01 e_10 = e_00 goes to e_10 e_01 = e_11, which misses e_00 by 1; the
    # transpose keeps the adjoint relations and the diagonal units' products.
    # In a conjugated copy v M2 v* the map is x -> v (v* x v)^T v*, which
    # sends the system of matrix units of the copy's structure to a swapped
    # one, so the value is 1 again
    if domain.startswith("block"):
        fd = FDAlgebra((2,))
        phi = LinMap(fd, fd.units().swapaxes(1, 2))
    else:
        v = random_unitary(rng_for(22, "test-u"), 2)
        A = block_algebra((2,), 2).conjugated(v)
        units = A.structure().matrix_units
        phi = LinMap(A, v @ (dagger(v) @ units @ v).swapaxes(1, 2) @ dagger(v))
    assert abs(hom_defect(phi) - 1.0) <= 1e-14


def test_hom_defect_of_an_overflowing_map_is_nan():
    # the one-dimensional summand's unit sent to 1e200 times itself squares
    # to inf, and to inf + nan i in the complex products: the defect is nan,
    # with no SVD of the non-finite products to raise LinAlgError
    A = block_algebra((2, 1), 3)
    phi = LinMap(A, np.diag([1.0, 1.0, 1e200]) @ A.structure().matrix_units)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(hom_defect(phi))


# ---------------------------------------------------------------------------
# cb norm bracket
# ---------------------------------------------------------------------------

# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
def test_cb_bracket_cp_is_exact():
    fd = FDAlgebra((2, 1))
    phi = random_ucp(fd, 4, seed=4)
    lo, hi = cb_bracket(phi)
    # lo and hi are ||phi(1)|| rounded outward, each by 2 (d + 2 N + 2) N eps
    # = 104 eps here
    r = 104.0 * np.finfo(float).eps
    assert lo <= hi <= lo * (1.0 + r) / (1.0 - r)
    assert abs(hi - 1.0) < 1e-10


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("slot", [0, 1])
def test_cb_bracket_keeps_a_nan_skew_part(monkeypatch, slot):
    # the cp branch adds d^2 times the largest skew part of the Choi blocks;
    # Python's max over the blocks drops a nan after the first, np.max keeps
    # it, so hi is nan and proves nothing
    phi = random_ucp(FDAlgebra((2, 1)), 4, seed=4)
    classify = cpmaps.classify

    def classify_then_nan_skews(work):
        cls = classify(work)  # the skew parts are the cp branch's only opnorm calls
        skews = iter(np.roll([float("nan"), 0.0], slot))
        monkeypatch.setattr(cpmaps, "opnorm", lambda m: next(skews))
        return cls

    monkeypatch.setattr(cpmaps, "classify", classify_then_nan_skews)
    lo, hi = cb_bracket(phi)
    assert abs(lo - 1.0) < 1e-10 and np.isnan(hi)


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
def test_cb_bracket_transpose():
    # cb norm of the transpose on M_2 equals 2; both ends are rounded
    # outward, so the bracket holds it with no slack, and the swap witness
    # attains it
    fd = FDAlgebra((2,))
    images = tuple(matrix_unit(fd, k, i, j).T for (k, i, j) in fd.unit_labels())
    phi = LinMap(fd, images)
    lo, hi = cb_bracket(phi)
    assert lo <= 2.0 <= hi
    assert lo >= 2.0 * (1.0 - 1e-12)


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cb_bracket_of_a_two_sided_multiplication(seed):
    # phi(x) = a x b from M_3 into M_4 has cb norm ||a|| ||b|| (one factor
    # term); its Choi matrix is rank one and not Hermitian, so the bound comes
    # from the reshuffle SVD
    rng = rng_for(seed, "test-cb-axb")
    a, b = complex_gaussian(rng, 4, 3), complex_gaussian(rng, 3, 4)
    fd = FDAlgebra((3,))
    phi = LinMap(fd, a @ fd.units() @ b)
    lo, hi = cb_bracket(phi)
    exact = opnorm(a) * opnorm(b)
    assert abs(hi - exact) <= 1e-12 * exact
    assert hi >= exact  # rounded outward
    assert lo <= hi


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
def test_cb_bracket_of_the_transpose_on_m3_contains_three():
    # the transpose on M_n has cb norm n.  The factor bound is rounded
    # outward, so hi holds n with no slack (unrounded it was
    # 2.9999999999999996, one unit in the last place below 3)
    fd = FDAlgebra((3,))
    phi = LinMap(fd, fd.units().swapaxes(1, 2))
    lo, hi = cb_bracket(phi)
    assert lo <= 3.0 <= hi
    assert lo >= 1.0


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-10, 1e-15])
def test_cb_bracket_of_a_scaled_transpose_contains_n_c(n, c):
    # c T on M_n has cb norm n c.  For c <= 1e-10 its Choi eigenvalues -c
    # pass classify's TOL_PSD, so the cp branch must add what it let through
    fd = FDAlgebra((n,))
    lo, hi = cb_bracket(LinMap(fd, c * fd.units().swapaxes(1, 2)))
    assert lo <= n * c <= hi


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("c", [1.0, 1.0 / 3.0, 1e-6])
def test_cb_bracket_swap_witness_attains_a_scaled_transpose(n, c):
    # (c T (x) id_n)(W) = c sum_ij e_ji (x) e_ji has norm n c, the cb norm of
    # c T, so lo attains it up to its inward rounding.  Unrounded, the SVD
    # returns more than n c on some of these (n = 5 at c = 1, n = 4 at
    # c = 1e-6), so lo <= n c checks the rounding too
    fd = FDAlgebra((n,))
    lo, hi = cb_bracket(LinMap(fd, c * fd.units().swapaxes(1, 2)))
    assert lo <= n * c <= hi
    assert lo >= (1.0 - 1e-12) * n * c


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-12, 1e-15])
def test_cb_bracket_of_a_scaled_transpose_minus_identity(c):
    # c (T - id) on M_2 sends 1 to 0 and e_12 to c (e_21 - e_12), of norm c,
    # so its cb norm is at least c; the cp branch read ||phi(1)|| = 0 as hi
    fd = FDAlgebra((2,))
    lo, hi = cb_bracket(LinMap(fd, c * (fd.units().swapaxes(1, 2) - fd.units())))
    assert lo <= hi and hi >= c > 0


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
def test_cb_bracket_of_the_transposes_on_two_summands_contains_three():
    # T_2 (+) T_3, the transposes on M_2 (+) M_3 in M_5, has cb norm
    # max(2, 3) = 3, which the larger summand's swap witness attains
    fd = FDAlgebra((2, 3))
    lo, hi = cb_bracket(LinMap(fd, fd.units().swapaxes(1, 2)))
    assert lo <= 3.0 <= hi
    assert lo >= 3.0 * (1.0 - 1e-12)


def equivalent_svd_his(blocks) -> list[float]:
    """The factorization bound (``_factor_bound``) over blocks E[i, j] =
    phi(e_ij), each an (n, n, N, N) stack, from six equivalent SVDs of
    each reshuffle R[(a, i), (j, b)] = E[i, j][a, b]: of R, of R with its
    rows or its columns reversed, and of R^T and R^T reversed likewise."""
    def factors(E, variant):
        n, N = E.shape[0], E.shape[2]
        R = E.transpose(2, 0, 1, 3).reshape(N * n, n * N)
        rows, cols = [(slice(None),) * 2, (slice(None, None, -1), slice(None)),
                      (slice(None), slice(None, None, -1))][variant % 3]
        if variant < 3:
            u, s, vh = np.linalg.svd(R[rows][:, cols])
        else:
            v, s, uh = np.linalg.svd(R[rows][:, cols].T)
            u, vh = uh.T, v.T
        u, vh = u[rows], vh[:, cols]  # each reversal is its own inverse
        keep = s >= 1e-14
        root = np.sqrt(s[keep])
        return ((root * u[:, keep]).T.reshape(len(root), N, n),
                (root[:, None] * vh[keep]).reshape(len(root), n, N))

    chois = [E.transpose(0, 2, 1, 3).reshape(len(E) * E.shape[2], -1) for E in blocks]
    return [_factor_bound(*zip(*(factors(E, variant) for E in blocks)), chois)
            for variant in range(6)]


# summation order: both ends of cb_bracket stay rounded outward under the SVD's order
@pytest.mark.summation_order
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algebra,N", [("M2+M1", 4), ("diag3", 4), ("2,2,2", 8),
                                       ("1,1,1,1,1,1,1,1", 8)])
def test_cb_bracket_per_summand_against_the_pinched_one(algebra, N, seed):
    # theta - iota for a conjugation pair, against the same bracket read on
    # the pinched map on M_d: the per-summand swap witnesses round less, so
    # lo may only rise, by rounding.  The reshuffle of Ad(u) - id on a
    # summand has rank 2 and two singular values equal to about 1e-9
    # relative, so each SVD returns its own rotation of that pair, and the
    # balanced factor bound moves with it: equivalent SVDs of the same
    # summands (of R_k or R_k^T, as they are or with their rows or columns
    # reversed) give his up to 1.9e-6 relative apart on 2,2,2/8 seed 2.  The
    # two his agree within the sum of those spreads, of each reading, plus
    # rounding
    inst = gen_instance("conjugation", {"algebra": algebra, "ambient": N, "eps": 1e-6,
                                        "block": 0}, seed=seed)
    units = inst.A.structure().matrix_units
    u = inst.true_unitary
    phi = LinMap(inst.A, u @ units @ dagger(u)) - LinMap(inst.A, units)
    lo, hi = cb_bracket(phi)
    ref_lo, ref_hi = pinched_cb_bracket(phi)
    assert ref_lo * (1.0 - 1e-12) <= lo <= ref_lo * (1.0 + 1e-12)
    fd = phi.fd
    F = np.zeros((fd.d * fd.d, N, N), dtype=complex)
    F[fd.unit_positions] = phi.images
    spread = sum(np.ptp(equivalent_svd_his(blocks)) for blocks in (
        fd.unit_blocks(phi.images), [F.reshape(fd.d, fd.d, N, N)]))
    assert abs(hi - ref_hi) <= spread + 1e-12 * ref_hi


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_bound_adds_the_terms_it_misses(seed):
    # phi(x) = a x b has cb norm ||a|| ||b||.  Factors that miss part of the
    # map, or all of it, must add the miss sum_ij ||a e_ij b||_F =
    # (sum_i ||a_i||) (sum_j ||b_j||) over a's columns and b's rows
    rng = rng_for(seed, "test-cb-miss")
    a, b = complex_gaussian(rng, 4, 3), complex_gaussian(rng, 3, 4)
    fd = FDAlgebra((3,))
    C = choi_blocks(LinMap(fd, a @ fd.units() @ b))
    exact = opnorm(a) * opnorm(b)
    miss = np.linalg.norm(a, axis=0).sum() * np.linalg.norm(b, axis=1).sum()
    full = _factor_bound([a[None]], [b[None]], C)
    assert exact <= full <= exact * (1.0 + 1e-12)
    assert _factor_bound([a[None] / 2.0], [b[None]], C) >= max(exact, exact / 2.0 + miss / 2.0)
    none = _factor_bound([np.zeros((0, 4, 3))], [np.zeros((0, 3, 4))], C)
    assert miss <= none <= miss * (1.0 + 1e-12) and none >= exact


def test_factor_bound_adds_the_miss_of_every_summand():
    # with no factor terms the bound is the whole miss: T_2 (+) T_3 into M_5
    # sends each of its 4 + 9 units to a unit of Frobenius norm 1
    fd = FDAlgebra((2, 3))
    C = choi_blocks(LinMap(fd, fd.units().swapaxes(1, 2)))
    none = _factor_bound([np.zeros((0, 5, 2)), np.zeros((0, 5, 3))],
                         [np.zeros((0, 2, 5)), np.zeros((0, 3, 5))], C)
    assert 13.0 <= none <= 13.0 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# expectations, restrictions, extensions
# ---------------------------------------------------------------------------

def test_conditional_expectation_idempotent():
    A = block_algebra((2, 1), 4)
    E = conditional_expectation(A)
    rng = rng_for(21, "cond-exp")
    for _ in range(4):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert opnorm(E(E(g)) - E(g)) < 1e-10
        assert A.residual(E(g)) < 1e-10
    cls = classify(E)
    assert cls.cp and cls.ucp


# summation order: opnorm_max over chunks is the one-stack maximum, bit for bit
@pytest.mark.summation_order
def test_worst_move_equals_the_one_stack_maximum(monkeypatch):
    # 70 points in one batch and, with the smallest batch bytes, in batches
    # of 32: the largest ||f(x) - x|| has the bits of the one-stack maximum
    rng = rng_for(5, "worst-move")
    u = random_unitary(rng, 3)
    X = complex_gaussian(rng, 70 * 3, 3).reshape(70, 3, 3)
    want = opnorms(u @ X @ dagger(u) - X).max()
    assert worst_move(lambda x: u @ x @ dagger(u), X) == want
    monkeypatch.setattr(linalg, "_BATCH_BYTES", 1)
    assert worst_move(lambda x: u @ x @ dagger(u), list(X)) == want
    assert worst_move(lambda x: u @ x @ dagger(u), []) == 0.0


def test_arveson_restrict_close_on_window():
    # restriction of the expectation onto a conjugated copy stays close on
    # the sampled window when the copy is a small rotation
    A = block_algebra((2, 1), 3)
    rng = rng_for(3, "arveson")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 1e-3 * (g + dagger(g)) / opnorm(g + dagger(g))
    from scipy.linalg import expm
    u = expm(1j * h)
    B = A.conjugated(u)
    X = [b.copy() for b in A.basis]
    gamma = max(B.residual(x) for x in X)
    psi, cert = arveson_restrict(A, B, X, gamma=2.0 * gamma)
    assert cert.verdict == "pass"
    for x in X:
        assert B.residual(psi(x)) < 1e-8


@pytest.mark.parametrize("profile, N", [("M2", 4), ("M2+M1", 4), ("diag3", 4), ("M2+M2", 6),
                                        ("3,3", 8), ("2,2,2", 8)])
def test_arveson_restrict_is_the_expectation_on_a(profile, N):
    # the images B.project of A's matrix units are the expectation onto B,
    # formed on all of M_N, applied to those units, to rounding
    inst = gen_instance("conjugation", {"algebra": profile, "ambient": N, "eps": 1e-6}, seed=3)
    phi = arveson_restrict(inst.A, inst.B, [], gamma=0.0)[0]
    want = conditional_expectation(inst.B)(inst.A.structure().matrix_units)
    err = np.linalg.norm(phi.images - want, axis=(1, 2))
    assert (err <= 1e-14 * np.linalg.norm(want, axis=(1, 2))).all()


def test_ucp_extension_unital():
    fd = FDAlgebra((2,))
    # a cpc map that is not unital: scale a ucp compression
    phi = random_ucp(fd, 3, seed=9).scaled(0.7)
    ext = ucp_extension(phi)
    assert ext.domain.block_sizes == (2, 1)
    val = ext(ext.domain.unit())
    assert opnorm(val - np.eye(3)) < 1e-10
    cls = classify(ext)
    assert cls.ucp


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_images_are_a_schema_error(bad):
    from cstarlab.certs import SchemaError
    fd = FDAlgebra((2, 1))
    images = fd.units()
    images[3, 0, 0] = bad
    with pytest.raises(SchemaError):
        LinMap(fd, images)
