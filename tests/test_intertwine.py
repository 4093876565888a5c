"""Isomorphisms between close algebras and their implementations."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from cstarlab import certs, intertwine
from cstarlab.certs import (
    TOL_ALG,
    ContradictionError,
    SpectralGapError,
    WindowError,
    on_track,
)
from cstarlab.cpmaps import LinMap, hom_defect, worst_move
from cstarlab.geometry import kk_distance
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.intertwine import (
    close_isomorphism,
    implement_unitarily,
    near_embedding_nuclear,
)
from cstarlab.linalg import dagger, opnorm, opnorm_max, opnorms, rng_for
from cstarlab.orderzero import identity_decomposition, near_embed_nucdim
from cstarlab.pipelines import run_pipeline
from cstarlab.serialize import dumps
from helpers import MULTIPLICITY_CASES, mult_defects, multiplicity_algebra


def passes(res) -> bool:
    """Whether every certificate of an IsoResult passes."""
    return all(c.passed for c in res.certificates.values())


def small_rotation(N: int, eps: float, seed: int) -> np.ndarray:
    rng = rng_for(seed, "test-iso-rotation")
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = g + dagger(g)
    return expm(1j * eps * h / opnorm(h))


def conjugated_pair(sizes, N, eps, seed):
    A = block_algebra(sizes, N)
    u = small_rotation(N, eps, seed)
    return A, A.conjugated(u), u


# ---------------------------------------------------------------------------
# close isomorphisms
# ---------------------------------------------------------------------------

# summation order: a concrete-domain map evaluates by one GEMM against the matrix units
@pytest.mark.summation_order
@pytest.mark.parametrize("summands, N", MULTIPLICITY_CASES)
def test_close_isomorphism_and_implementation_on_a_domain_with_multiplicity(summands, N):
    # M_n (x) 1_m conjugated at 1e-6: the isomorphism onto the copy and its
    # unitary implementation pass every certificate
    A, _ = multiplicity_algebra(summands, N, seed=9)
    u0 = small_rotation(N, 1e-6, 9)
    res = close_isomorphism(A, A.conjugated(u0), 2.0 * opnorm(u0 - np.eye(N)))
    assert passes(res), {k: c.achieved for k, c in res.certificates.items() if not c.passed}
    assert res.map.domain is A
    _, cert = implement_unitarily(res.map)
    assert cert.verdict == "pass", cert.achieved


def test_close_isomorphism_conjugated_pair():
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    res = close_isomorphism(A, B, gamma)
    assert res.inverse is not None and passes(res)
    theta = res.map
    rng = rng_for(4, "iso-check")
    for _ in range(4):
        x, y = A.random_selfadjoints(rng, 2)
        assert opnorm(theta(x @ y) - theta(x) @ theta(y)) < 1e-9
        assert B.residual(theta(x)) < 1e-8
    for key in ("closeness", "homomorphism", "image-membership",
                "injectivity", "surjectivity", "forward-closeness",
                "backward-closeness"):
        assert key in res.certificates, key
        assert res.certificates[key].passed, key


def test_close_isomorphism_inverse_round_trip():
    A, B, u = conjugated_pair((2,), 3, 1e-6, 9)
    gamma = 2.0 * opnorm(u - np.eye(3))
    res = close_isomorphism(A, B, gamma)
    assert res.inverse is not None
    rng = rng_for(9, "inverse-check")
    for x in A.random_selfadjoints(rng, 4):
        assert opnorm(res.inverse(res.map(x)) - x) < 1e-8


def test_close_isomorphism_dim_mismatch_contradicts():
    A = block_algebra((2, 1), 3)
    B = block_algebra((3,), 3)
    with pytest.raises(ContradictionError):
        close_isomorphism(A, B, 1e-6)


def test_close_isomorphism_rejects_a_gamma_far_below_the_distance():
    # ||u - 1|| is about 1e-3, so the expectation onto B moves A's basis by
    # about that much, far above eta + TOL_ALG = 2 gamma + 1e-9 at gamma =
    # 1e-9: the expectation-restriction certificate fails, and with it the
    # hypothesis d(A, B) <= gamma; at gamma = 2 ||u - 1||, which bounds the
    # distance, every certificate passes
    A, B, u = conjugated_pair((2, 1), 3, 1e-3, 4)
    with pytest.raises(ContradictionError, match=r"d\(A, B\) > eta/2"):
        close_isomorphism(A, B, 1e-9)
    assert passes(close_isomorphism(A, B, 2.0 * opnorm(u - np.eye(3))))


def test_close_isomorphism_window_on_paper_track():
    A, B, _ = conjugated_pair((2,), 3, 1e-4, 1)
    with on_track("paper"), pytest.raises(WindowError):
        close_isomorphism(A, B, 1e-3)


def _assert_empty_closeness(cert):
    assert cert.inputs["n_points"] == 0
    assert cert.achieved == 0.0 and cert.passed


def test_intertwining_iso_on_no_points():
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    res = intertwine.intertwining_iso(A, B, 2.0 * opnorm(u - np.eye(3)), X_A=[],
                                      mu=1e-4)
    _assert_empty_closeness(res.certificates["closeness"])


def test_intertwining_iso_ignores_repeated_points():
    # every check takes a maximum over the given points, so listing each
    # point of X_A twice changes no certificate beyond the count of points
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    X_A = [A.random_selfadjoints(rng_for(5, "repeat"), 1)[0] / 2.0, *A.basis]
    runs = [intertwine.intertwining_iso(A, B, 2.0 * gamma, X_A=X, mu=1e-4)
            for X in (X_A, X_A + X_A)]
    certs = [{k: c.to_dict() for k, c in r.certificates.items()} for r in runs]
    assert [c["closeness"]["inputs"].pop("n_points") for c in certs] == [6, 12]
    assert certs[0] == certs[1]
    assert runs[0].map.images.tobytes() == runs[1].map.images.tobytes()


# ---------------------------------------------------------------------------
# the one repair
# ---------------------------------------------------------------------------

def pulled_back_points(A, B):
    """A's normalised basis and the witnesses of B's that close_isomorphism
    accepts from its pull-back, the projection into A (distance at most
    2/5), with the pull-back's witnesses and distances."""
    Xs = A.project(B.normalized_basis)
    dists = opnorms(B.normalized_basis - Xs)
    return list(A.normalized_basis) + list(Xs[dists <= 2.0 / 5.0 + TOL_ALG]), Xs, dists


def conjugation_instance(algebra, ambient):
    inst = gen_instance("conjugation", {"algebra": algebra, "ambient": ambient,
                                        "eps": 1e-6}, seed=5)
    return inst.A, inst.B, inst.dist_hint()


def _recorded_runs(monkeypatch):
    """close_isomorphism at the paper track on two conjugation instances,
    with the calls it makes to the expectation's restriction, the repair and
    the intertwining unitary recorded, and the windows it asks of the
    multiplicativity repair; one (A, B, result, calls, windows) per
    instance."""
    calls = {name: [] for name in ("arveson_restrict", "improve_multiplicativity",
                                   "intertwining_unitary")}
    for name, log in calls.items():
        def recorded(*args, _log=log, _fn=getattr(intertwine, name), **kwargs):
            _log.append((args, kwargs))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(intertwine, name, recorded)
    windows, require = [], certs.require_window

    def recorded_window(name, **values):
        if name == "multiplicativity-repair":
            windows.append(values["gamma"])
        return require(name, **values)

    monkeypatch.setattr(certs, "require_window", recorded_window)
    runs = []
    for algebra, ambient in [("M2+M1", 4), ("3,3", 8)]:
        A, B, gamma = conjugation_instance(algebra, ambient)
        with on_track("paper"):
            res = close_isomorphism(A, B, gamma)
        assert passes(res)
        runs.append((A, B, res, {k: list(v) for k, v in calls.items()}, list(windows)))
        for log in (*calls.values(), windows):
            log.clear()
    return runs


def test_expectation_producer_builds_its_map_once(monkeypatch):
    # per call, the expectation onto B is restricted to A once; the one stage
    # record holds the points certified, and phi's closeness on them and defect
    for A, B, res, calls, _ in _recorded_runs(monkeypatch):
        assert len(calls["arveson_restrict"]) == 1
        (phi,), _ = calls["improve_multiplicativity"][0]
        assert np.array_equal(phi.images, B.project(A.structure().matrix_units))
        (row,) = res.trace
        X = pulled_back_points(A, B)[0]
        assert row.n_Z == len(X) == res.certificates["closeness"].inputs["n_points"]
        assert row.phi_closeness == worst_move(phi, X)
        assert row.phi_defect == hom_defect(phi)


def test_expectation_producer_is_repaired_once_per_run(monkeypatch):
    # per call, one repair at the paper-track window max(3 eta, hom_defect(phi))
    # and no intertwining unitary
    for _, _, res, calls, windows in _recorded_runs(monkeypatch):
        assert len(calls["improve_multiplicativity"]) == 1
        assert calls["intertwining_unitary"] == []
        (phi,), _ = calls["improve_multiplicativity"][0]
        assert windows == [max(3.0 * res.eta, hom_defect(phi))]


def test_repair_gamma_keeps_a_nan_defect(monkeypatch):
    # max(3 eta, nan) in Python is 3 eta; the repair's gamma stays nan, so a
    # defect that is not a number cannot pass for one below 3 eta
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gammas = []

    def repair(phi, gamma):
        gammas.append(gamma)
        raise SpectralGapError("stop after the repair's inputs")

    monkeypatch.setattr(intertwine, "hom_defect", lambda phi: float("nan"))
    monkeypatch.setattr(intertwine, "improve_multiplicativity", repair)
    with pytest.raises(SpectralGapError):
        intertwine.intertwining_iso(A, B, 2.0 * opnorm(u - np.eye(3)),
                                    X_A=A.normalized_basis, mu=1e-4)
    assert len(gammas) == 1 and np.isnan(gammas[0])


def test_pull_back_is_solved_once_per_conjugator(monkeypatch):
    # per call, B's normalised basis is pulled back into A once, by the
    # projection E_A: the witnesses the intertwining certifies after A's
    # basis are A.project(B.normalized_basis) bit for bit, lie in A's unit
    # ball (E_A is a conditional expectation, so cpc), and meet the oracle
    # projection onto the column space of a fresh QR of A's flattened basis
    for A, B, _, calls, _ in _recorded_runs(monkeypatch):
        (args, _), = calls["arveson_restrict"]
        witnesses = np.array(args[2][A.dim:])
        assert witnesses.tobytes() == A.project(B.normalized_basis).tobytes()
        assert opnorms(witnesses).max() <= 1.0 + 1e-13
        Q, _ = np.linalg.qr(A.basis.reshape(A.dim, -1).T)
        Y = B.normalized_basis.reshape(B.dim, -1)
        want = (Q @ (Q.conj().T @ Y.T)).T.reshape(witnesses.shape)
        scale = np.linalg.norm(B.normalized_basis, axis=(1, 2))
        assert np.all(np.linalg.norm(witnesses - want, axis=(1, 2)) <= 1e-13 * scale)


def test_close_isomorphism_reads_its_closeness():
    # forward-closeness, near-embedding and nucdim-near-embedding read the
    # intertwining's closeness; it equals a fresh measurement on the same points
    A, B, gamma = conjugation_instance("3,3", 8)
    res = close_isomorphism(A, B, gamma)
    X = pulled_back_points(A, B)[0]
    fwd = res.certificates["forward-closeness"]
    assert fwd.achieved == worst_move(res.map, X)
    assert fwd.achieved == res.certificates["closeness"].achieved
    assert fwd.inputs["n_points"] == len(X) == A.dim + B.dim
    theta, cert = near_embedding_nuclear(A, B, gamma)
    assert cert.achieved == worst_move(theta, list(A.normalized_basis))
    theta, cert = near_embed_nucdim(A, B, gamma, identity_decomposition(A))
    assert cert.achieved == worst_move(theta, list(A.normalized_basis))


def test_iso_past_one_fifth_passes_every_certificate():
    # at eps 0.3 gamma is past 1/5, and close_isomorphism still takes its one
    # pull-back: the iso report carries a passing surjectivity certificate,
    # and the backward chain bound is that of the pull-back's witnesses
    inst = gen_instance("conjugation", {"algebra": "M2+M1", "ambient": 4, "eps": 0.3}, seed=0)
    gamma = inst.dist_hint()
    assert gamma > 1.0 / 5.0
    report = run_pipeline(inst, "iso", seed=0)
    assert report.ok and report.certificates["surjectivity"].passed
    res = close_isomorphism(inst.A, inst.B, gamma)
    assert dumps(report.certificates) == dumps(res.certificates)
    _, Xs, dists = pulled_back_points(inst.A, inst.B)
    chain = (2.0 * dists + opnorms(res.map(Xs) - inst.B.normalized_basis)).max()
    assert res.certificates["backward-closeness"].details["chain_bound"] == chain


def test_surjectivity_is_the_dimension_count():
    # M2 embeds injectively into M2 + M2, but not onto it: the intertwining
    # gives no inverse, and close_isomorphism refuses the pair on the
    # dimension count.  On a conjugated pair of equal dimension the map is
    # onto, and the surjectivity certificate is that dimension count: it
    # reports no density margin
    A, B = block_algebra((2,), 4), block_algebra((2, 2), 4)
    res = intertwine.intertwining_iso(A, B, 1e-7, X_A=A.normalized_basis, mu=1e-4)
    assert res.certificates["injectivity"].details["action_sigma_min"] > TOL_ALG
    assert res.inverse is None and "surjectivity" not in res.certificates
    with pytest.raises(ContradictionError, match="different dimensions 4 != 8"):
        close_isomorphism(A, B, 1e-7)
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    res = close_isomorphism(A, B, gamma)
    cert = res.certificates["surjectivity"]
    assert cert.passed and cert.inputs["dim_A"] == cert.inputs["dim_B"] == 5
    assert "density_margin" not in cert.details


def test_close_isomorphism_memory_on_block_rotation():
    # every check runs in bounded batches
    inst = gen_instance("block-rotation", {"algebra": "6", "ambient": 12, "eps": 1e-6}, seed=7)
    tracemalloc.start()
    try:
        res = close_isomorphism(inst.A, inst.B, inst.dist_hint())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passes(res)
    assert peak < 6 * 2 ** 20


# ---------------------------------------------------------------------------
# one-sided near embeddings
# ---------------------------------------------------------------------------

def test_near_embedding_into_larger_algebra():
    B = block_algebra((2, 2), 4)
    A0 = block_algebra((2,), 4)
    u = small_rotation(4, 1e-6, 7)
    A = A0.conjugated(u)
    theta, cert = near_embedding_nuclear(A, B, kk_distance(A, B).gamma_ab)
    assert cert.verdict == "pass"
    for x in A.basis:
        xn = x / opnorm(x)
        assert B.residual(theta(xn)) < 1e-8
        assert opnorm(theta(xn) - xn) <= cert.ceiling + 1e-12


def test_near_embedding_on_no_points():
    B = block_algebra((2, 2), 4)
    A = block_algebra((2,), 4).conjugated(small_rotation(4, 1e-6, 7))
    _, cert = near_embedding_nuclear(A, B, kk_distance(A, B).gamma_ab, X=[])
    _assert_empty_closeness(cert)


# ---------------------------------------------------------------------------
# unitary implementation
# ---------------------------------------------------------------------------

def test_implement_unitarily_conjugates_exactly():
    A, B, u0 = conjugated_pair((2, 1), 3, 1e-5, 13)
    gamma = 2.0 * opnorm(u0 - np.eye(3))
    alpha = close_isomorphism(A, B, gamma)
    u, cert = implement_unitarily(alpha.map)
    assert cert.verdict == "pass"
    assert opnorm(dagger(u) @ u - np.eye(3)) < 1e-10
    for b in A.basis:
        assert opnorm(u @ b @ dagger(u) - alpha.map(b)) < 1e-8
    assert cert.details["u_norm"] <= cert.details["u_norm_ceiling"] + 1e-9


def test_implement_unitarily_rejects_ambient_mismatch():
    A = block_algebra((2,), 3)
    B = block_algebra((2,), 4)
    images = []
    for e in A.structure().matrix_units:
        m = np.zeros((4, 4), dtype=complex)
        m[:3, :3] = e
        images.append(m)
    theta = LinMap(A, tuple(images), codomain_algebra=B)
    with pytest.raises(ValueError):
        implement_unitarily(theta)


def test_implement_unitarily_rejects_non_homomorphism():
    A = block_algebra((2,), 3)
    rng = rng_for(2, "non-hom")
    images = []
    for e in A.structure().matrix_units:
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        images.append(e + 0.05 * g / opnorm(g))
    theta = LinMap(A, tuple(images), codomain_algebra=A)
    defect = opnorm_max(mult_defects(theta, list(A.basis)))
    assert defect > 1e-3  # the perturbation really breaks multiplicativity
    with pytest.raises(ValueError):
        implement_unitarily(theta)


def test_implement_unitarily_rejects_a_nan_defect(monkeypatch):
    # a defect that is not a number, as from products that overflow, does
    # not show the map is a homomorphism; the inclusion itself would pass
    A = block_algebra((2, 1), 3)
    theta = LinMap(A, A.structure().matrix_units, codomain_algebra=A)
    assert implement_unitarily(theta)[1].verdict == "pass"
    monkeypatch.setattr(intertwine, "hom_defect", lambda phi: float("nan"))
    with pytest.raises(ValueError, match="not a homomorphism"):
        implement_unitarily(theta)


@pytest.mark.parametrize("slot", [0, 1])
def test_subspace_residual_keeps_a_nan_membership(monkeypatch, slot):
    # u A u* = B is measured as the larger of two membership residuals;
    # Python's max drops a nan in its second slot, np.maximum keeps it
    A = block_algebra((2, 1), 3)
    theta = LinMap(A, A.structure().matrix_units, codomain_algebra=A)
    residuals = iter(np.roll([float("nan"), 0.0], slot))
    monkeypatch.setattr(A, "membership_residual", lambda x: next(residuals))
    _, cert = implement_unitarily(theta)
    assert np.isnan(cert.details["subspace_residual"])


@pytest.mark.parametrize("slot", [0, 1])
def test_image_membership_keeps_a_nan_residual(monkeypatch, slot):
    # the membership certificate reads one residual, that of the repaired
    # images before they are snapped into B: a nan there (slot 0) fails it,
    # and no later residual is read (slot 1 puts the nan second)
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    residuals = iter(np.roll([float("nan"), 0.0], slot))
    seen = []
    monkeypatch.setattr(B, "membership_residual", lambda x: seen.append(x) or next(residuals))
    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, X_A=A.normalized_basis,
                                      mu=1e-4)
    cert = res.certificates["image-membership"]
    assert len(seen) == 1 and B.residual(seen[0]).max() > 0.0
    assert np.isnan(cert.achieved) != cert.passed and np.isnan(cert.achieved) == (slot == 0)
