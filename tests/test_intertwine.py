"""Staged isomorphisms between close algebras and their implementations."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from cstarlab import cpmaps, intertwine
from cstarlab.algebra import ConcreteAlgebra
from cstarlab.certs import (
    PAPER_BUDGET,
    TOL_ALG,
    ContradictionError,
    SpectralGapError,
    ToleranceBudget,
    WindowError,
)
from cstarlab.cpmaps import LinMap, _mult_defects
from cstarlab.geometry import near_inclusion
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.intertwine import (
    close_isomorphism,
    half_flip_cpc,
    implement_unitarily,
    near_embedding_nuclear,
    unit_match,
)
from cstarlab.linalg import dagger, opnorm, opnorm_max, opnorms, rng_for
from cstarlab.orderzero import identity_decomposition, near_embed_nucdim
from cstarlab.pipelines import run_pipeline
from cstarlab.serialize import dumps


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

def test_close_isomorphism_conjugated_pair():
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    res = close_isomorphism(A, B, gamma, seed=4)
    assert res.converged and res.surjective
    assert res.passed
    theta = res.map
    rng = rng_for(4, "iso-check")
    for _ in range(4):
        x = A.random_selfadjoint(rng)
        y = A.random_selfadjoint(rng)
        assert opnorm(theta(x @ y) - theta(x) @ theta(y)) < 1e-9
        assert B.residual(theta(x)) < 1e-8
    for key in ("closeness", "homomorphism", "image-membership",
                "injectivity", "surjectivity", "forward-closeness",
                "backward-closeness"):
        assert key in res.certificates, key
        assert res.certificates[key].passed, key


def test_close_isomorphism_takes_a_stack():
    # X may be a (k, N, N) array, as for near_embedding_nuclear and
    # half_flip_cpc, and gives the result of the same matrices as a list
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    X = np.array([b / opnorm(b) for b in A.basis[:2]])
    stacked = close_isomorphism(A, B, gamma, X=X, seed=4)
    listed = close_isomorphism(A, B, gamma, X=list(X), seed=4)
    assert np.array_equal(stacked.map.images, listed.map.images)
    assert {k: c.achieved for k, c in stacked.certificates.items()} == \
        {k: c.achieved for k, c in listed.certificates.items()}


def test_pull_back_is_solved_once_per_conjugator(monkeypatch):
    # the expectation producer gives every stage the same map, so every stage
    # keeps the identity conjugator: the codomain basis is solved once per
    # call, at stage 1 and at 200 iterations, and close_isomorphism takes its
    # witnesses from that solve instead of solving the basis again
    pulls, solve = [], intertwine.nearest_in_ball

    def recorded(x, A, iters):
        pulls.append((x, iters))
        return solve(x, A, iters=iters)

    monkeypatch.setattr(intertwine, "nearest_in_ball", recorded)
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    res = close_isomorphism(A, B, 2.0 * opnorm(u - np.eye(3)), seed=4)
    assert res.surjective and len(res.trace) >= 3
    assert [iters for _, iters in pulls] == [200]
    assert np.array_equal(pulls[0][0], B.normalized_basis)
    assert all(np.array_equal(c, np.eye(3)) for c in res.conjugators)


def test_a_changing_map_is_pulled_back_through_its_new_conjugator(monkeypatch):
    # a producer whose map changes at stage 2 gets a fresh intertwining
    # unitary there, u != 1, and the codomain basis is pulled back again
    # through the new accumulated conjugator
    pulls, solve = [], intertwine.nearest_in_ball
    monkeypatch.setattr(intertwine, "nearest_in_ball",
                        lambda x, A, iters: pulls.append((x, iters)) or solve(x, A, iters=iters))
    counts = count_calls(monkeypatch)
    A, B, gamma = conjugation_instance("M2+M1", 4)
    inner = intertwine.expectation_producer(A, B)
    calls = []

    def changing(Z):
        calls.append(1)
        scale = 1.0 - 1e-7 if len(calls) >= 2 else 1.0
        return LinMap(A, A.ambient_dim, inner(Z).images * scale, codomain_algebra=B)

    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, producer=changing, seed=5,
                                      surjectivity_delta=gamma)
    assert res.converged and [r.repaired for r in res.trace][:3] == [True, True, False]
    assert counts == {"improve_multiplicativity": 2, "intertwining_unitary": 1}
    u = res.conjugators[1]
    assert res.trace[1].u_norm > 0.0 and not np.array_equal(u, np.eye(4))
    assert [iters for _, iters in pulls][:2] == [200, 80]
    assert np.array_equal(pulls[1][0], dagger(u) @ B.normalized_basis @ u)


def test_close_isomorphism_inverse_round_trip():
    A, B, u = conjugated_pair((2,), 3, 1e-6, 9)
    gamma = 2.0 * opnorm(u - np.eye(3))
    res = close_isomorphism(A, B, gamma, seed=9)
    assert res.inverse is not None
    rng = rng_for(9, "inverse-check")
    for _ in range(4):
        x = A.random_selfadjoint(rng)
        assert opnorm(res.inverse(res.map(x)) - x) < 1e-8


def test_close_isomorphism_dim_mismatch_contradicts():
    A = block_algebra((2, 1), 3)
    B = block_algebra((3,), 3)
    with pytest.raises(ContradictionError):
        close_isomorphism(A, B, 1e-6)


def test_close_isomorphism_window_on_paper_track():
    A, B, _ = conjugated_pair((2,), 3, 1e-4, 1)
    with pytest.raises(WindowError):
        close_isomorphism(A, B, 1e-3, budget=PAPER_BUDGET)


def _assert_empty_closeness(cert):
    assert cert.inputs["n_points"] == 0
    assert cert.achieved == 0.0 and cert.passed


def test_intertwining_iso_on_no_points():
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    res = intertwine.intertwining_iso(A, B, 2.0 * opnorm(u - np.eye(3)), X_A=[], seed=4)
    _assert_empty_closeness(res.certificates["closeness"])


def test_intertwining_iso_ignores_repeated_points():
    # the tracked sets are plain lists and every consumer takes a maximum
    # over them, so listing each point of X_A twice changes no certificate
    # beyond the count of points given
    A, B, u = conjugated_pair((2, 1), 3, 1e-5, 4)
    gamma = 2.0 * opnorm(u - np.eye(3))
    X_A = [A.random_selfadjoint(rng_for(5, "repeat")) / 2.0, *A.basis]
    runs = [intertwine.intertwining_iso(A, B, 2.0 * gamma, X_A=X, seed=4,
                                        surjectivity_delta=gamma)
            for X in (X_A, X_A + X_A)]
    certs = [{k: c.to_dict() for k, c in r.certificates.items()} for r in runs]
    # closeness also covers the B.dim codomain witnesses stage 1 accepts
    assert [c["closeness"]["inputs"].pop("n_points") for c in certs] == [6 + B.dim, 12 + B.dim]
    assert certs[0] == certs[1]
    assert runs[0].map.images.tobytes() == runs[1].map.images.tobytes()


def test_intertwining_iso_passes_each_tracked_point_once():
    # matrix units repeat under * (e_ij* = e_ji) and under yy* (e_ii once per
    # j), and the stage point is already in X_A: the producer must still see
    # every point once, and each stage record counts what it saw
    A, B, u = conjugated_pair((2, 1), 4, 1e-5, 6)
    gamma = 2.0 * opnorm(u - np.eye(4))
    inner = intertwine.expectation_producer(A, B)
    seen = []

    def recording(Z):
        seen.append(np.array(Z))
        return inner(Z)

    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, producer=recording, seed=6,
                                      surjectivity_delta=gamma)
    assert res.converged
    assert [len(Z) for Z in seen] == [r.n_Z for r in res.trace]
    for Z in seen:
        same = (Z[:, None] == Z[None]).all(axis=(2, 3))
        assert np.array_equal(same, np.eye(len(Z), dtype=bool))


# ---------------------------------------------------------------------------
# reuse of a stage's repair and unitary
# ---------------------------------------------------------------------------

REUSE_PROFILES = [("M2+M1", 4), ("3,3", 8)]


def conjugation_instance(algebra, ambient):
    inst = gen_instance("conjugation", {"algebra": algebra, "ambient": ambient,
                                        "eps": 1e-6}, seed=5)
    return inst.A, inst.B, inst.dist_hint()


# the default staged intertwining, and close_isomorphism, which also tracks
# the codomain basis for surjectivity
DEFAULT_RUNS = (lambda A, B, gamma: intertwine.intertwining_iso(A, B, 2.0 * gamma, seed=5),
                lambda A, B, gamma: close_isomorphism(A, B, gamma, seed=5))


def count_calls(monkeypatch):
    counts = {"improve_multiplicativity": 0, "intertwining_unitary": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(intertwine, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(intertwine, name, counted)
    return counts


@pytest.mark.parametrize("algebra,ambient", REUSE_PROFILES)
def test_stage_reuse_matches_repairing_every_stage(monkeypatch, algebra, ambient):
    # the oracle repairs and aligns at every stage; the repair gives the same
    # theta bit for bit, so its rows hold the kept run's defect and residual,
    # and aligning theta with itself moves nothing beyond rounding
    A, B, gamma = conjugation_instance(algebra, ambient)
    kept = [run(A, B, gamma) for run in DEFAULT_RUNS]
    repairs, improve = [], intertwine.improve_multiplicativity
    monkeypatch.setattr(intertwine, "_same_map", lambda phi, prev: False)
    monkeypatch.setattr(intertwine, "improve_multiplicativity",
                        lambda phi, **kw: repairs.append(improve(phi, **kw)) or repairs[-1])
    redone = [run(A, B, gamma) for run in DEFAULT_RUNS]
    assert len(repairs) == 6 and len({r.psi.images.tobytes() for r in repairs}) == 1
    for a, b in zip(kept, redone):
        assert [r.repaired for r in a.trace] == [True, False, False]
        assert [r.repaired for r in b.trace] == [True, True, True]
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.theta_defect, ra.image_residual) == (rb.theta_defect, rb.image_residual)
            assert ra.drift == ra.u_norm == 0.0
            assert rb.drift <= 1e-13 and rb.u_norm <= 1e-13
        assert np.abs(a.map.images - b.map.images).max() <= 1e-13
        assert all(np.array_equal(u, np.eye(ambient)) for u in a.conjugators)
    # without the pull-back both runs track the same points, so every other
    # value of a row is the same too
    for ra, rb in zip(kept[0].trace, redone[0].trace):
        da, db = ra.to_dict(), rb.to_dict()
        for key in ("repaired", "drift", "u_norm"):
            da.pop(key), db.pop(key)
        assert da == db


def test_expectation_producer_is_repaired_once_per_run(monkeypatch):
    counts = count_calls(monkeypatch)
    windows, require = [], ToleranceBudget.require_window

    def recorded(budget, name, value, window):
        if name == "multiplicativity-repair":
            windows.append(value)
        return require(budget, name, value, window)

    monkeypatch.setattr(ToleranceBudget, "require_window", recorded)
    for algebra, ambient in REUSE_PROFILES:
        A, B, gamma = conjugation_instance(algebra, ambient)
        for run in DEFAULT_RUNS:
            res = run(A, B, gamma)
            assert [r.repaired for r in res.trace] == [True, False, False]
            # every stage's theta is stage 1's, so no stage aligns it
            assert counts == {"improve_multiplicativity": 1, "intertwining_unitary": 0}
            # every stage checks the repair window on its own gamma
            assert windows == [max(3.0 * res.eta, r.phi_defect) for r in res.trace]
            counts.update(dict.fromkeys(counts, 0))
            windows.clear()


def test_a_kept_theta_keeps_its_sampled_defect(monkeypatch):
    # a stage that keeps theta takes the previous row's theta_defect and
    # samples the defect of no map: one hom_defect call less per reuse stage
    # than a run that repairs every stage
    calls, real = [], intertwine.hom_defect
    monkeypatch.setattr(intertwine, "hom_defect",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    A, B, gamma = conjugation_instance("3,3", 8)
    kept = intertwine.intertwining_iso(A, B, 2.0 * gamma, seed=5)
    kept_calls = len(calls)
    monkeypatch.setattr(intertwine, "_same_map", lambda phi, prev: False)
    calls.clear()
    redone = intertwine.intertwining_iso(A, B, 2.0 * gamma, seed=5)
    reuse = [r.stage for r in kept.trace if not r.repaired]
    assert reuse and len(kept.trace) == len(redone.trace)
    for prev, row in zip(kept.trace, kept.trace[1:]):
        assert row.repaired or row.theta_defect == prev.theta_defect
    assert kept_calls == len(calls) - len(reuse)
    # the kept defect is the one a new sample of the same map gives
    assert [r.theta_defect for r in kept.trace] == [r.theta_defect for r in redone.trace]


@pytest.mark.parametrize("algebra,ambient", REUSE_PROFILES)
def test_a_kept_theta_takes_the_unitary_one(algebra, ambient):
    # stages 2 and 3 repair nothing and align nothing: their conjugator is
    # exactly the identity and their drift exactly 0.0
    A, B, gamma = conjugation_instance(algebra, ambient)
    for run in DEFAULT_RUNS:
        res = run(A, B, gamma)
        assert len(res.trace) == 3
        for u, row in zip(res.conjugators, res.trace):
            assert np.array_equal(u, np.eye(A.ambient_dim)) and u.dtype == complex
            assert row.drift == 0.0 and row.u_norm == 0.0
        assert res.certificates["drift"].achieved == 0.0


def test_a_kept_map_is_measured_on_new_points_only(monkeypatch):
    # at every stage the recorded closeness is the whole set's, though a kept
    # map is measured only on the points added since the last stage
    A, B, gamma = conjugation_instance("3,3", 8)
    inner = intertwine.expectation_producer(A, B)
    measured, worst = [], intertwine._worst_move
    monkeypatch.setattr(intertwine, "_worst_move",
                        lambda phi, X: measured.append(len(X)) or worst(phi, X))
    seen = []

    def recording(Z):
        seen.append(np.array(Z))
        return inner(Z)

    # with no X_A, every stage's basis point is new
    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, X_A=[], producer=recording,
                                      seed=5, surjectivity_delta=gamma)
    sizes = [len(Z) for Z in seen]
    assert len(seen) == len(res.trace) == 3 and sizes[0] < sizes[1] < sizes[2]
    assert [r.producer_closeness for r in res.trace] == [worst(inner(Z), Z) for Z in seen]
    assert measured[:3] == [sizes[0], sizes[1] - sizes[0], sizes[2] - sizes[1]]
    # the producer keeps no state: every list, the empty one too, gets one map
    phi = inner([])
    assert inner(seen[0]) is phi and inner(list(seen[-1])) is phi


def test_a_fresh_map_with_equal_images_is_kept():
    # a producer that builds a new LinMap at every stage, with the same images,
    # is kept as the same map, and its closeness is still the whole set's
    A, B, gamma = conjugation_instance("M2+M1", 4)
    inner = intertwine.expectation_producer(A, B)
    seen = []

    def fresh(Z):
        seen.append(np.array(Z))
        return LinMap(A, A.ambient_dim, inner(Z).images.copy(), codomain_algebra=B)

    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, producer=fresh, seed=5)
    assert [r.repaired for r in res.trace] == [True, False, False]
    phi = inner([])
    assert [r.producer_closeness for r in res.trace] == \
        [intertwine._worst_move(phi, Z) for Z in seen]
    assert res.certificates["drift"].achieved == 0.0


def test_close_isomorphism_reads_its_closeness():
    # forward-closeness, near-embedding and nucdim-near-embedding read the
    # staged closeness; it equals a fresh measurement on the same points
    A, B, gamma = conjugation_instance("3,3", 8)
    res = close_isomorphism(A, B, gamma, seed=5)
    Xs, dists = res.pull_back
    X = list(A.normalized_basis) + list(Xs[dists <= 2.0 / 5.0 + TOL_ALG])
    fwd = res.certificates["forward-closeness"]
    assert fwd.achieved == intertwine._worst_move(res.map, X)
    assert fwd.achieved == res.certificates["closeness"].achieved
    assert fwd.inputs["n_points"] == len(X) == A.dim + B.dim
    theta, cert = near_embedding_nuclear(A, B, gamma, seed=5)
    assert cert.achieved == intertwine._worst_move(theta, list(A.normalized_basis))
    theta, cert = near_embed_nucdim(A, B, gamma, identity_decomposition(A), seed=5)
    assert cert.achieved == intertwine._worst_move(theta, list(A.normalized_basis))


def test_iso_past_one_fifth_passes_every_certificate():
    # at eps 0.3 gamma is past 1/5, and close_isomorphism still takes its one
    # pull-back: the iso report carries a passing surjectivity certificate,
    # and the backward chain bound is that of the staged pull-back's witnesses
    inst = gen_instance("conjugation", {"algebra": "M2+M1", "ambient": 4, "eps": 0.3}, seed=0)
    gamma = inst.dist_hint()
    assert gamma > 1.0 / 5.0
    report = run_pipeline(inst, "iso", seed=0)
    assert report.ok and report.certificates["surjectivity"].passed
    res = close_isomorphism(inst.A, inst.B, gamma, seed=0)
    assert dumps(report.certificates) == dumps(res.certificates)
    Xs, dists = res.pull_back
    chain = (2.0 * dists + opnorms(res.map(Xs) - inst.B.normalized_basis)).max()
    assert res.certificates["backward-closeness"].details["chain_bound"] == chain


def test_a_changing_map_is_repaired_at_every_stage(monkeypatch):
    counts = count_calls(monkeypatch)
    A, B, gamma = conjugation_instance("M2+M1", 4)
    inner = intertwine.expectation_producer(A, B)
    stages = []

    def drifting(Z):
        stages.append(len(stages) + 1)
        return LinMap(A, A.ambient_dim, inner(Z).images * (1.0 - 1e-12 * stages[-1]),
                      codomain_algebra=B)

    res = intertwine.intertwining_iso(A, B, 2.0 * gamma, producer=drifting, seed=5)
    assert res.converged and len(res.trace) >= 3
    assert all(r.repaired for r in res.trace)
    assert counts == {"improve_multiplicativity": len(res.trace),
                      "intertwining_unitary": len(res.trace) - 1}


# ---------------------------------------------------------------------------
# the tracked sets, against whole-set evaluations
# ---------------------------------------------------------------------------

def test_tracked_set_keeps_each_point_once(monkeypatch):
    # -0.0 and 0.0 are one point, and on a digest hit the exact comparison
    # decides, also when every digest is the same
    z = np.array([[0.0, 1.0], [-0.0, 2.0]], dtype=complex)

    def check():
        tracked = intertwine._TrackedSet(2)
        assert np.array_equal(tracked.add([z, -z, z + 0.0, z.copy()], 4), [z, -z])
        assert np.array_equal(tracked.add([2 * z, z], 2), [2 * z])
        assert len(tracked.points) == 3

    check()
    monkeypatch.setattr(intertwine.hashlib, "blake2b",
                        lambda *args, **kwargs: SimpleNamespace(digest=lambda: bytes(16)))
    check()


def _distinct(mats) -> np.ndarray:
    """The matrices without repeats, first occurrences in order, keyed on
    their full bytes (-0.0 read as 0.0) in a plain loop."""
    first = {}
    for z in mats:
        first.setdefault((z + 0.0).tobytes(), z)
    return np.array(list(first.values()))


def _recorded_close_isomorphism(monkeypatch, inst, drift_map=False):
    """close_isomorphism with its tracked points given, and its produced and
    repaired maps and pulled points recorded per stage; with drift_map the
    produced map changes at every stage."""
    A, B, gamma = inst.A, inst.B, inst.dist_hint()
    rec = {"X_A": None, "phi": [], "theta": {}, "pulled": []}
    iso, ball = intertwine.intertwining_iso, intertwine.nearest_in_ball
    improve, producer = intertwine.improve_multiplicativity, intertwine.expectation_producer

    def recording_iso(*args, **kwargs):
        rec["X_A"] = list(kwargs["X_A"])
        return iso(*args, **kwargs)

    def recording_ball(x, A_, iters):
        # the pull-back solves, before the stage's producer call
        out = ball(x, A_, iters=iters)
        rec["pulled"] += [(len(rec["phi"]) + 1, y) for y, d in zip(*out[:2])
                          if d <= 2.0 / 5.0 + TOL_ALG]
        return out

    def recording_improve(phi, **kwargs):
        res = improve(phi, **kwargs)
        rec["theta"][len(rec["phi"])] = LinMap(A, A.ambient_dim, B.project(res.psi.images),
                                               codomain_algebra=B)
        return res

    def recording_producer(A_, B_):
        inner = producer(A_, B_)

        def produce(Z):
            phi = inner(Z)
            if drift_map:
                phi = LinMap(A, A.ambient_dim, phi.images * (1.0 - 1e-12 * (len(rec["phi"]) + 1)),
                             codomain_algebra=B)
            rec["phi"].append(phi)
            return phi
        return produce

    for name, fn in (("intertwining_iso", recording_iso), ("nearest_in_ball", recording_ball),
                     ("improve_multiplicativity", recording_improve),
                     ("expectation_producer", recording_producer)):
        monkeypatch.setattr(intertwine, name, fn)
    return close_isomorphism(A, B, gamma, seed=5), rec


def _assert_stages_match_whole_sets(res, rec, A):
    """Each trace row against a whole-set evaluation of its stage."""
    norm_basis, avg = A.normalized_basis, list(intertwine._averaging_parts(A))
    thetas = [None]
    for n, row in enumerate(res.trace, start=1):
        X = rec["X_A"] + [norm_basis[(k - 1) % len(norm_basis)] for k in range(1, n + 1)]
        X = np.array(X + [y for stage, y in rec["pulled"] if stage <= n])
        Z = _distinct(list(X) + avg)
        Zp = _distinct(list(Z) + list(dagger(Z)) + list(Z @ dagger(Z)) + list(dagger(Z) @ Z))
        phi = rec["phi"][n - 1]
        P, Q = phi(Z), phi(dagger(Z))
        defect = max(opnorms(P @ Q - phi(Z @ dagger(Z))).max(),
                     opnorms(Q @ P - phi(dagger(Z) @ Z)).max())
        thetas.append(rec["theta"].get(n, thetas[-1]))
        drift = 0.0
        if n > 1:
            aligned = thetas[n].conjugated(res.conjugators[n - 1])
            drift = opnorms(aligned(X) - thetas[n - 1](X)).max()
        assert row.n_X == len(X) and row.n_Z == len(Zp)
        assert row.producer_closeness == opnorms(phi(Zp) - Zp).max()
        assert row.phi_defect == defect
        assert row.drift == drift


STAGE_PROFILES = [("conjugation", "M2+M1", 4), ("conjugation", "3,3", 8),
                  ("conjugation", "2,2,2,2", 8), ("block-rotation", "6", 12)]


@pytest.mark.parametrize("recipe,algebra,ambient", STAGE_PROFILES)
def test_stage_values_equal_whole_set_evaluations(monkeypatch, recipe, algebra, ambient):
    # stages that keep the map check its defect and drift on their new points
    # only; the rows must still hold the maxima over the whole tracked sets
    inst = gen_instance(recipe, {"algebra": algebra, "ambient": ambient, "eps": 1e-6}, seed=5)
    res, rec = _recorded_close_isomorphism(monkeypatch, inst)
    assert [r.repaired for r in res.trace] == [True, False, False]
    assert len(rec["pulled"]) > 0
    _assert_stages_match_whole_sets(res, rec, inst.A)


@pytest.mark.parametrize("algebra,ambient", [("M2+M1", 4), ("3,3", 8)])
def test_stage_values_of_a_map_that_changes_every_stage(monkeypatch, algebra, ambient):
    # every stage takes the full path: a new map is checked on the whole set
    inst = gen_instance("conjugation", {"algebra": algebra, "ambient": ambient, "eps": 1e-6},
                        seed=5)
    res, rec = _recorded_close_isomorphism(monkeypatch, inst, drift_map=True)
    assert len(res.trace) >= 3 and all(r.repaired for r in res.trace)
    _assert_stages_match_whole_sets(res, rec, inst.A)


def test_expectation_producer_builds_its_map_once(monkeypatch):
    calls, real = [], cpmaps.conditional_expectation
    monkeypatch.setattr(cpmaps, "conditional_expectation",
                        lambda B: calls.append(B) or real(B))
    A, B, gamma = conjugation_instance("3,3", 8)
    res = close_isomorphism(A, B, gamma, seed=5)
    assert len(res.trace) == 3 and len(calls) == 1


def test_close_isomorphism_memory_on_block_rotation():
    # the tracked sets grow one stage at a time and every check runs in
    # bounded batches; rebuilding and checking the whole sets at every stage
    # peaked at 8.2 MiB here
    inst = gen_instance("block-rotation", {"algebra": "6", "ambient": 12, "eps": 1e-6}, seed=7)
    tracemalloc.start()
    try:
        res = close_isomorphism(inst.A, inst.B, inst.dist_hint(), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 6 * 2 ** 20


# ---------------------------------------------------------------------------
# one-sided near embeddings
# ---------------------------------------------------------------------------

def test_near_embedding_into_larger_algebra():
    B = block_algebra((2, 2), 4)
    A0 = block_algebra((2,), 4)
    u = small_rotation(4, 1e-6, 7)
    A = A0.conjugated(u)
    cert_inc = near_inclusion(A, B)
    theta, cert = near_embedding_nuclear(A, B, cert_inc.gamma_hi, seed=7)
    assert cert.verdict == "pass"
    for x in A.basis:
        xn = x / opnorm(x)
        assert B.residual(theta(xn)) < 1e-8
        assert opnorm(theta(xn) - xn) <= cert.ceiling + 1e-12


def test_near_embedding_on_no_points():
    B = block_algebra((2, 2), 4)
    A = block_algebra((2,), 4).conjugated(small_rotation(4, 1e-6, 7))
    _, cert = near_embedding_nuclear(A, B, near_inclusion(A, B).gamma_hi, X=[], seed=7)
    _assert_empty_closeness(cert)


# ---------------------------------------------------------------------------
# half flip transport
# ---------------------------------------------------------------------------

def test_half_flip_cpc_close_to_identity():
    A, B, u = conjugated_pair((2,), 3, 1e-4, 11)
    gamma = 2.0 * opnorm(u - np.eye(3))
    phi, cert = half_flip_cpc(A, B, gamma, seed=11)
    assert cert.verdict == "pass"
    for x in A.basis:
        xn = x / opnorm(x)
        assert opnorm(phi(xn) - xn) <= cert.ceiling + 1e-12


def test_half_flip_tensor_basis_is_orthonormal_without_gram_schmidt(monkeypatch):
    # the Kronecker products of the HS-orthonormal bases of B0 and A, taken
    # as they are, are HS-orthonormal: their Gram matrix is the identity
    spans, solve = [], intertwine.nearest_in_span
    monkeypatch.setattr(intertwine, "nearest_in_span",
                        lambda x, span, **kw: spans.append(span) or solve(x, span, **kw))
    A, B, u = conjugated_pair((2,), 3, 1e-4, 11)
    half_flip_cpc(A, B, 2.0 * opnorm(u - np.eye(3)), seed=11)
    (span,) = spans
    Q = span.basis.reshape(span.dim, -1)
    assert span.dim % A.dim == 0
    assert np.abs(Q.conj() @ Q.T - np.eye(span.dim)).max() <= 1e-13


def test_half_flip_cpc_on_no_points():
    A, B, u = conjugated_pair((2,), 3, 1e-4, 11)
    _, cert = half_flip_cpc(A, B, 2.0 * opnorm(u - np.eye(3)), X=[], seed=11)
    _assert_empty_closeness(cert)


def test_half_flip_needs_single_block():
    A = block_algebra((2, 1), 3)
    with pytest.raises(ValueError):
        half_flip_cpc(A, A, 1e-4)


# ---------------------------------------------------------------------------
# unitary implementation
# ---------------------------------------------------------------------------

def test_implement_unitarily_conjugates_exactly():
    A, B, u0 = conjugated_pair((2, 1), 3, 1e-5, 13)
    gamma = 2.0 * opnorm(u0 - np.eye(3))
    alpha = close_isomorphism(A, B, gamma, seed=13)
    u, cert = implement_unitarily(alpha.map, seed=13)
    assert cert.verdict == "pass"
    assert opnorm(dagger(u) @ u - np.eye(3)) < 1e-10
    for b in A.basis:
        assert opnorm(u @ b @ dagger(u) - alpha.map(b)) < 1e-8
    assert cert.details["u_norm"] <= cert.details["u_norm_ceiling"] + 1e-9


def test_implement_unitarily_rejects_ambient_mismatch():
    A = block_algebra((2,), 3)
    B = block_algebra((2,), 4)
    images = []
    for b in A.basis:
        m = np.zeros((4, 4), dtype=complex)
        m[:3, :3] = b
        images.append(m)
    theta = LinMap(A, 4, tuple(images), codomain_algebra=B)
    with pytest.raises(ValueError):
        implement_unitarily(theta)


def test_implement_unitarily_rejects_non_homomorphism():
    A = block_algebra((2,), 3)
    rng = rng_for(2, "non-hom")
    images = []
    for b in A.basis:
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        images.append(b + 0.05 * g / opnorm(g))
    theta = LinMap(A, 3, tuple(images), codomain_algebra=A)
    defect = opnorm_max(_mult_defects(theta, list(A.basis)))
    assert defect > 1e-3  # the perturbation really breaks multiplicativity
    with pytest.raises(ValueError):
        implement_unitarily(theta)


# ---------------------------------------------------------------------------
# unit matching
# ---------------------------------------------------------------------------

def test_unit_match_conjugates_supports():
    A, B, u0 = conjugated_pair((2,), 4, 1e-3, 17)
    gamma = 2.0 * opnorm(u0 - np.eye(4))
    u, cert = unit_match(A, B, gamma)
    assert cert.verdict == "pass"
    assert opnorm(u @ A.support @ dagger(u) - B.support) < 1e-10


def test_unit_match_orthogonal_supports():
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1.0
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1.0
    A = ConcreteAlgebra.from_basis([e00], 2)
    B = ConcreteAlgebra.from_basis([e11], 2)
    with pytest.raises(SpectralGapError):
        unit_match(A, B, 0.3)
