"""The canonical average and the constructions built on it."""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from cstarlab import averaging
from cstarlab.algebra import ConcreteAlgebra, FDAlgebra
from cstarlab.linalg import dagger, herm, opnorm, opnorm_max
from cstarlab.averaging import (
    canonical_average,
    improve_multiplicativity,
    intertwining_unitary,
    projection_conjugator,
)
from cstarlab.certs import SpectralGapError, WindowError, on_track
from cstarlab.cpmaps import (LinMap, arveson_restrict, hom_defect, stinespring, ucp_extension,
                             worst_move)
from cstarlab.instances import _rotated_embedding, block_algebra, gen_instance
from cstarlab.linalg import expm_i, random_hermitian, random_unitary, rng_for
from cstarlab.acceptance import _partitions
from helpers import (MULTIPLICITY_CASES, canonical_average_by_slices, dilation_representation,
                     hs_inner, matrix_unit, multiplicity_algebra, phase_family,
                     verify_averaging_set, weyl_unitaries)

PROFILES = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (2, 1, 1), (2, 3, 1)]


def embedded(fd: FDAlgebra, N: int) -> LinMap:
    # exact unital-on-support homomorphism into M_N, N >= fd.d
    images = []
    for (k, i, j) in fd.unit_labels():
        m = np.zeros((N, N), dtype=complex)
        m[:fd.d, :fd.d] = matrix_unit(fd, k, i, j)
        images.append(m)
    return LinMap(fd, tuple(images))


# ---------------------------------------------------------------------------
# the explicit unitary family the averages are checked against
# ---------------------------------------------------------------------------

def test_weyl_unitaries_orthogonal_basis():
    for n in (2, 3):
        fam = weyl_unitaries(n)
        assert len(fam) == n * n
        for a, u in enumerate(fam):
            assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12
            for v in fam[a + 1:]:
                assert abs(hs_inner(u, v)) < 1e-12


@pytest.mark.parametrize("sizes", PROFILES + [(3, 2), (3, 2, 1), (7, 5, 3)])
def test_exact_diagonal_verifies(sizes):
    # the oracle family: its tensor average is exactly the canonical element
    fd = FDAlgebra(sizes)
    weights, terms = phase_family(fd)
    # r phases times the intervals between the distinct multiples of
    # L / n_k^2 in [0, L), L = lcm(n_k^2)
    L = math.lcm(*(n * n for n in sizes))
    cuts = {a * L // (n * n) for n in sizes for a in range(n * n)}
    assert len(terms) == len(sizes) * len(cuts) <= len(sizes) * (sum(n * n for n in sizes)
                                                           - len(sizes) + 1)
    cert = verify_averaging_set(fd, weights, terms)
    assert cert.verdict == "pass"


def commutant_projection(A) -> np.ndarray:
    """HS-orthogonal projection onto e M_N e \\cap A' as an N^2 x N^2 matrix
    on row-major vec(y), from the null space of the commutator map."""
    N = A.ambient_dim
    e = A.support
    # orthonormal basis of e M_N e: the range of y -> e y e
    vals, vecs = np.linalg.eigh(np.kron(e, e.T))
    V = vecs[:, vals > 0.5]
    comm = np.vstack([np.array([(v.reshape(N, N) @ b - b @ v.reshape(N, N)).reshape(-1)
                                for v in V.T]).T for b in A.basis])
    _, s, vh = np.linalg.svd(comm)
    null = vh[np.sum(s > 1e-9):].conj().T
    Q = V @ null
    return Q @ dagger(Q)


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
@pytest.mark.parametrize("sizes", [(2, 1), (2, 2, 1), (3, 3)])
def test_twirl_is_commutant_projection(sizes):
    N = sum(sizes) + 2
    rng = rng_for(11, "twirl-oracle", *sizes)
    A = block_algebra(sizes, N).conjugated(random_unitary(rng, N))
    P = commutant_projection(A)
    struct = A.structure()
    E = struct.matrix_units
    for _ in range(3):
        y = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        expect = (P @ y.reshape(-1)).reshape(N, N)
        twirl = canonical_average(struct.fd_model(), E @ y, E)
        assert opnorm(twirl - expect) < 1e-12


# summation order: both sides run the same contractions in the same order
@pytest.mark.summation_order
@pytest.mark.parametrize("total", range(1, 7))
def test_canonical_average_equals_the_per_call_index_formula(total):
    # over criterion 3's partitions, on their units as criterion 3 pairs
    # them, and over the ucp extensions' domains (one more one-dimensional
    # block) on random stacks in M_13, where 32 units fill a slice: the bits
    # of the weights and transposes built per call
    for sizes in _partitions(total):
        fd, ext = FDAlgebra(sizes), FDAlgebra(sizes + (1,))
        units = fd.units()
        x = fd.random_elements(rng_for(0, "acceptance-3", *sizes), 1)[0]
        for left, right in ((units, units), (units @ x, units)):
            assert np.array_equal(canonical_average(fd, left, right),
                                  canonical_average_by_slices(sizes, left, right))
        g = rng_for(15, "extension-average", *sizes).standard_normal((4, ext.dim_linear, 13, 13))
        left, right = g[0] + 1j * g[1], g[2] + 1j * g[3]
        assert np.array_equal(canonical_average(ext, left, right),
                              canonical_average_by_slices(ext.block_sizes, left, right))


def random_map(fd: FDAlgebra, N: int, rng) -> LinMap:
    return LinMap(fd, tuple(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
                               for _ in range(fd.dim_linear)))


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
@pytest.mark.parametrize("sizes", [(2, 1), (2, 2, 1), (2, 3, 1)])
def test_pair_matches_phase_family_sum(sizes):
    fd = FDAlgebra(sizes)
    rng = rng_for(12, "pair-family", *sizes)
    f, g = random_map(fd, 3, rng), random_map(fd, 3, rng)
    explicit = sum(w * (f(dagger(u)) @ g(u)) for w, u in zip(*phase_family(fd)))
    assert opnorm(canonical_average(fd, f.images, g.images) - explicit) < 1e-13


def nearly_multiplicative(fd: FDAlgebra, N: int, diag) -> LinMap:
    """The average of the block embedding of fd into M_N and its conjugate
    by exp(0.05 i diag(diag)): a cpc map with a small multiplicativity
    defect."""
    hom = embedded(fd, N)
    v = expm(1j * 0.05 * np.diag(diag))
    return LinMap(fd, tuple(0.5 * a + 0.5 * (v @ a @ dagger(v)) for a in hom.images))


def explicit_repair(phi: LinMap):
    """The repair through the explicit representation e_ij (x) 1_{r_k} of its
    dilation: p0 the canonical average over that stack, q the cut of p0's
    full eigendecomposition at the gap, and psi(e_ij) = E V* w* pi(e_ij) w V
    E*.  Returns the dilation, psi's images and the drift ||p0 - p||."""
    ext = ucp_extension(phi)
    dil = stinespring(ext, tol_psd=1e-13)
    V = dil.isometry
    R = dilation_representation(ext.domain.block_sizes, dil.ranks)
    p = V @ dagger(V)
    p0 = herm(canonical_average(ext.fd, R @ p, R))
    vals, vecs = np.linalg.eigh(p0)
    keep = vecs[:, vals >= averaging.GAP_WINDOW[1]]
    w, _ = projection_conjugator(p, keep @ dagger(keep))
    M = w @ V @ dagger(dil.embed)
    return dil, dagger(M) @ R[:phi.fd.dim_linear] @ M, opnorm(p0 - p)


@pytest.mark.parametrize("scale,transpose,numbers", [
    (1.5, False, "||phi(1)|| = 1.5, choi min eig "),
    (1.0, True, "||phi(1)|| = 1, choi min eig -1.00e+00"),
], ids=["norm-above-one", "transpose"])
def test_repair_refuses_a_map_that_is_not_cpc(scale, transpose, numbers):
    # phi is checked once, before its defect and window: a map with
    # ||phi(1)|| > 1, or the transpose (not cp), raises ValueError naming
    # ||phi(1)|| and the Choi matrix's least eigenvalue, also on the paper
    # track with a gamma outside the window
    fd = FDAlgebra((2,))
    images = embedded(fd, 2).images
    phi = LinMap(fd, scale * (images.swapaxes(1, 2) if transpose else images))
    for track in ("experimental", "paper"):
        with on_track(track), pytest.raises(ValueError) as err:
            improve_multiplicativity(phi, gamma=1.0)
        assert not isinstance(err.value, WindowError)
        assert numbers in str(err.value), err.value


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
def test_repair_twirl_matches_phase_family_sum():
    fd = FDAlgebra((2, 1))
    phi = nearly_multiplicative(fd, 4, [0.0, 1.0, 0.0, -1.0])
    rep = improve_multiplicativity(phi)
    ext = ucp_extension(phi)
    dil = stinespring(ext, tol_psd=1e-13)
    p = dil.isometry @ dagger(dil.isometry)
    # pi at each unitary of the family, as the LinMap of pi's unit images
    R = dilation_representation(ext.domain.block_sizes, dil.ranks)
    weights, terms = phase_family(ext.domain)
    pi = LinMap(ext.domain, R)(terms)
    explicit = sum(w * (dagger(pu) @ p @ pu) for w, pu in zip(weights, pi))
    p0 = canonical_average(ext.fd, R @ p, R)
    assert opnorm(p0 - explicit) < 1e-13
    # the repair's drift certificate measures the same twirled projection
    drift = rep.certificates["drift"].achieved
    assert drift > 1e-3
    assert abs(drift - opnorm(explicit - p)) < 1e-13


def _vanishing_on_a_block() -> LinMap:
    # block 0 of (2, 1) nearly multiplicative, block 1 sent to zero
    phi = nearly_multiplicative(FDAlgebra((2, 1)), 4, [0.0, 1.0, 0.0, -1.0])
    return LinMap(phi.domain, np.concatenate([phi.images[:4], np.zeros((1, 4, 4))]))


def _on_a_multiplicity_domain() -> LinMap:
    # the expectation onto a conjugate of M_2 (x) 1_3, restricted to it
    A, _ = multiplicity_algebra(((2, 3),), 6, seed=5)
    h = random_hermitian(rng_for(5, "test-explicit-repair"), 6)
    return arveson_restrict(A, A.conjugated(expm_i(0.05 * h / opnorm(h))), [], gamma=0.0)[0]


# summation order: the closed-form repair meets the explicit twirl and compression
@pytest.mark.summation_order
@pytest.mark.parametrize("make, rank_checks", [
    (lambda: nearly_multiplicative(FDAlgebra((2, 1)), 4, [0.0, 1.0, 0.0, -1.0]),
     {-1: lambda r: r > 0}),
    (lambda: nearly_multiplicative(FDAlgebra((2, 2)), 4, [0.0, 1.0, 0.5, -1.0]),
     {-1: lambda r: r == 0}),
    (_on_a_multiplicity_domain, {}),
    (_vanishing_on_a_block, {1: lambda r: r == 0}),
], ids=["non-unital-2,1/4", "unital-2,2/4", "M2x1_3/6", "vanishing-block"])
def test_repair_matches_the_explicit_representation(make, rank_checks):
    # the closed form (partial traces on r_k x r_k blocks, psi through
    # dilation_images) against the twirl over the explicit e_ij (x) 1_r
    # stack and the compression of that stack
    phi = make()
    rep = improve_multiplicativity(phi)
    dil, images, drift = explicit_repair(phi)
    assert all(check(dil.ranks[k]) for k, check in rank_checks.items())
    assert opnorm_max(rep.psi.images - images) <= 1e-13
    assert abs(rep.certificates["drift"].achieved - drift) <= 1e-13
    assert rep.passed and drift > 0.0


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
@pytest.mark.parametrize("sizes, ranks", [((2, 1), (3, 2)), ((2, 2, 1), (1, 0, 2)), ((3,), (2,))])
def test_twirl_over_dilation_units_is_a_partial_trace(sizes, ranks):
    # over pi(e_ij) = e_ij (x) 1_{r_k}, the canonical average of y is
    # 1_{n_k} (x) tr_{n_k}(y_kk) / n_k on block k and zero off the blocks
    R = dilation_representation(sizes, ranks)
    K = R.shape[1]
    rng = rng_for(13, "twirl-partial-trace", *sizes)
    y = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    expect, off = np.zeros((K, K), dtype=complex), 0
    for n, r in zip(sizes, ranks):
        block = y[off:off + n * r, off:off + n * r].reshape(n, r, n, r)
        expect[off:off + n * r, off:off + n * r] = np.kron(
            np.eye(n), sum(block[i, :, i, :] for i in range(n)) / n)
        off += n * r
    assert opnorm(canonical_average(FDAlgebra(sizes), R @ y, R) - expect) < 1e-13


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
@pytest.mark.parametrize("n", [2, 3, 5])
def test_twirl_closed_forms(n):
    # the twirl over A's matrix units in closed form: diag(h) on D_n,
    # tr(h)/n 1 on unital M_n, and h itself on C 1
    h = random_hermitian(rng_for(14, "twirl-closed-forms", n), n)
    for A, want in ((ConcreteAlgebra.diagonal(n), np.diag(np.diag(h))),
                    (ConcreteAlgebra.full(n), np.trace(h) / n * np.eye(n)),
                    (ConcreteAlgebra.from_basis([np.eye(n)], n), h)):
        struct = A.structure()
        E = struct.matrix_units
        assert opnorm(canonical_average(struct.fd_model(), E @ h, E) - want) < 1e-12


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
def test_twirl_lands_in_commutant():
    A = block_algebra((2, 1), 4)
    struct = A.structure()
    rng = rng_for(3, "twirl")
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    E = struct.matrix_units
    t = canonical_average(struct.fd_model(), E @ g, E)
    for b in A.basis:
        assert opnorm(t @ b - b @ t) < 1e-11
    # expectation property: twirling twice changes nothing
    assert opnorm(canonical_average(struct.fd_model(), E @ t, E) - t) < 1e-11


# summation order: canonical_average's twirls and pairings meet their oracles
@pytest.mark.summation_order
def test_pair_of_inclusion_is_unit():
    fd = FDAlgebra((2, 1))
    phi = embedded(fd, 3)
    s = canonical_average(fd, phi.images, phi.images)
    assert opnorm(s - phi(fd.unit())) < 1e-11


# ---------------------------------------------------------------------------
# projection conjugators
# ---------------------------------------------------------------------------

def test_projection_conjugator_exact():
    rng = rng_for(2, "projconj")
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = p[1, 1] = 1.0
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.3 * (g + dagger(g)) / opnorm(g + dagger(g))
    v = expm(1j * h)
    q = v @ p @ dagger(v)
    w, cert = projection_conjugator(p, q)
    assert cert.verdict == "pass"
    assert opnorm(w @ p @ dagger(w) - q) < 1e-10


def test_projection_conjugator_rejects_non_projection():
    with pytest.raises(ValueError):
        projection_conjugator(0.5 * np.eye(2), np.eye(2))


def test_projection_conjugator_orthogonal_ranges():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(SpectralGapError):
        projection_conjugator(p, q)


# ---------------------------------------------------------------------------
# multiplicativity repair
# ---------------------------------------------------------------------------

def test_repair_of_exact_hom_is_exact():
    fd = FDAlgebra((2, 1))
    phi = embedded(fd, 4)
    rep = improve_multiplicativity(phi)
    assert rep.passed
    rng = rng_for(0, "repair-check")
    for _ in range(5):
        x, y = fd.random_elements(rng, 2)
        d = opnorm(rep.psi(x @ y) - rep.psi(x) @ rep.psi(y))
        assert d < 1e-9
    assert rep.gamma < 1e-7


def test_repair_certificates_reported():
    fd = FDAlgebra((2,))
    phi = embedded(fd, 3)
    rep = improve_multiplicativity(phi)
    for key in ("drift", "conjugator", "distance", "multiplicativity"):
        assert key in rep.certificates
        assert rep.certificates[key].passed


# summation order: a concrete-domain map evaluates by one GEMM against the matrix units
@pytest.mark.summation_order
@pytest.mark.parametrize("summands, N", MULTIPLICITY_CASES)
def test_repair_on_a_domain_with_multiplicity_keeps_the_domain(summands, N):
    # the expectation onto a copy of M_n (x) 1_m conjugated at 1e-6,
    # restricted to it, repairs to a homomorphism psi on the same concrete
    # domain, stored on the same matrix units, that moves A's normalised
    # basis by no more than the conjugation does
    A, _ = multiplicity_algebra(summands, N, seed=8)
    h = random_hermitian(rng_for(8, "test-mult-repair"), N)
    B = A.conjugated(expm_i(1e-6 * h / opnorm(h)))
    phi, _ = arveson_restrict(A, B, [], gamma=0.0)
    rep = improve_multiplicativity(phi)
    assert rep.passed and rep.psi.domain is A
    assert hom_defect(rep.psi) <= 1e-12
    assert worst_move(rep.psi, A.normalized_basis) <= 1e-5


# summation order: cb_bracket's rounded ends, the repair's distance, meet the closed form t
@pytest.mark.summation_order
@pytest.mark.parametrize("profile", [(2,), (2, 1), (1, 1, 1), (3,)])
@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_repair_of_a_scaled_homomorphism_has_its_closed_form(profile, t):
    # phi = (1 - t) rho for an exact homomorphism rho repairs to rho, and
    # phi - rho = -t rho has norm and cb norm exactly t, so the repair's
    # distance, cb_bracket's hi of phi - psi, is in [t, t (1 + 1e-9)]: at
    # least t, since it is a proven upper bound, and not far above it
    fd = FDAlgebra(profile)
    rho = _rotated_embedding(fd, sum(profile) + 1, rng_for(0, "repair-closed-form", *profile))
    rep = improve_multiplicativity(rho.scaled(1.0 - t))
    assert rep.passed
    assert opnorm_max(rep.psi.images - rho.images) <= 1e-13
    dist = rep.certificates["distance"]
    assert t <= dist.achieved <= t * (1.0 + 1e-9)
    assert dist.details["cb_lo"] <= dist.achieved


def test_repair_window_enforced_on_paper_track():
    fd = FDAlgebra((2,))
    phi = embedded(fd, 3)
    with on_track("paper"), pytest.raises(WindowError):
        improve_multiplicativity(phi, gamma=0.07)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def test_intertwining_unitary_exact_pair():
    fd = FDAlgebra((2, 1))
    phi1 = embedded(fd, 4)
    rng = rng_for(5, "intertwine")
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + dagger(g)) / opnorm(g + dagger(g))
    u0 = expm(1j * 2e-2 * h)
    phi2 = phi1.conjugated(u0)
    res = intertwining_unitary(phi1, phi2)
    assert res.passed
    assert res.certificates["residual"].achieved < 1e-10
    bound = 2.0 * np.sqrt(2.0) * res.gamma + 5.0 * np.sqrt(2.0) * res.delta
    assert opnorm(res.u - np.eye(4)) <= bound + 1e-9


@pytest.mark.parametrize("profile", [(2, 1), (1, 1, 1), (3,)])
def test_default_intertwiner_gamma_bounds_every_drawn_distance(profile):
    # the default gamma is cb_bracket's hi of phi1 - phi2, a proven bound on
    # the unit-ball distance: at least ||phi1(x) - phi2(x)|| at the matrix
    # units and at 32 block-diagonal unitaries drawn here, and exactly 0.0
    # for a map paired with itself
    fd = FDAlgebra(profile)
    N = fd.d + 1
    rng = rng_for(6, "intertwiner-gamma", *profile)
    phi1 = _rotated_embedding(fd, N, rng)
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    phi2 = phi1.conjugated(expm(1j * 1e-2 * (g + dagger(g)) / opnorm(g + dagger(g))))
    X = np.concatenate([fd.units(), [block_diag(*[random_unitary(rng, n) for n in profile])
                                     for _ in range(32)]])
    res = intertwining_unitary(phi1, phi2)
    assert res.gamma >= opnorm_max(phi1(X) - phi2(X)) > 0.0
    assert intertwining_unitary(phi1, phi1).gamma == 0.0


def test_default_intertwiner_delta_keeps_a_nan_defect(monkeypatch):
    # the default delta is the larger defect of the two maps, the same float
    # as Python's max for finite defects; a nan defect in either slot stays
    # nan (Python's max drops it from the second), and the norm certificate
    # fails
    fd = FDAlgebra((2, 1))
    phi1 = embedded(fd, 4)
    phi2 = phi1.conjugated(expm(1j * 1e-2 * np.diag([0.0, 1.0, 0.0, -1.0])))
    res = intertwining_unitary(phi1, phi2)
    assert res.delta == max(hom_defect(phi1), hom_defect(phi2))
    for defects in ([float("nan"), 0.0], [0.0, float("nan")]):
        calls = iter(defects)
        monkeypatch.setattr(averaging, "hom_defect", lambda phi: next(calls))
        res = intertwining_unitary(phi1, phi2)
        assert np.isnan(res.delta) and not res.certificates["norm"].passed


def test_intertwining_window_enforced_on_paper_track():
    fd = FDAlgebra((2,))
    phi = embedded(fd, 3)
    with on_track("paper"), pytest.raises(WindowError):
        intertwining_unitary(phi, phi, gamma=0.1, delta=0.0)


@pytest.mark.parametrize("algebra,ambient", [("M2+M1", 4), ("3,3", 8), ("2,2,2", 8)])
def test_repair_and_self_intertwiner_depend_on_the_map_alone(algebra, ambient):
    # the repair and the self-pairing depend on the map alone: the repair is
    # the same for any gamma passed, and the intertwiner of a map with itself
    # (which reuses its block model and extension) equals the intertwiner
    # with an equal copy
    inst = gen_instance("conjugation", {"algebra": algebra, "ambient": ambient,
                                        "eps": 1e-6}, seed=7)
    A, B = inst.A, inst.B
    eta = 2.0 * inst.dist_hint()
    phi, _ = arveson_restrict(A, B, A.normalized_basis, gamma=eta / 2.0)
    repairs = [improve_multiplicativity(phi, gamma=g).psi for g in (3.0 * eta, 1e-3)]
    assert len({psi.images.tobytes() for psi in repairs}) == 1
    theta = LinMap(A, B.project(repairs[0].images), codomain_algebra=B)
    unit = intertwining_unitary(theta, theta)
    # pairing theta with itself gives what pairing it with an equal copy gives
    copy = LinMap(A, theta.images.copy(), codomain_algebra=B)
    other = intertwining_unitary(theta, copy)
    assert other.u.tobytes() == unit.u.tobytes()
    assert (other.gamma, other.delta) == (unit.gamma, unit.delta)
    # the residual certificate carries s's smallest singular value and chain bound
    assert ({k: c.to_dict() for k, c in other.certificates.items()}
            == {k: c.to_dict() for k, c in unit.certificates.items()})
