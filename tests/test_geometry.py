"""Distance between subalgebras: witnesses, near inclusions, brackets."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cstarlab import geometry
from cstarlab.algebra import ConcreteAlgebra, FDAlgebra, dagger, opnorm
from cstarlab.certs import ContradictionError
from cstarlab.geometry import (
    SampleSpec,
    _top_dyad,
    _TensorSpan,
    equality_criterion,
    kk_distance,
    near_inclusion,
    nearest_in_ball,
    nearest_in_span,
    sample_unit_ball,
    span_distance_lower,
    tensor_lift,
)
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.linalg import clip_spectrum, random_unitary, rng_for


def small_rotation(N: int, eps: float, seed: int) -> np.ndarray:
    rng = rng_for(seed, "test-rotation")
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = g + dagger(g)
    return expm(1j * eps * h / opnorm(h))


# ---------------------------------------------------------------------------
# single-element distance
# ---------------------------------------------------------------------------

def test_nearest_in_span_member_is_exact():
    A = block_algebra((2, 1), 4)
    rng = rng_for(5, "member")
    x = A.random_selfadjoint(rng)
    b, d, *_ = nearest_in_span(x, A)
    assert d < 1e-10
    assert opnorm(b - x) < 1e-10


def test_nearest_in_span_beats_hs_projection():
    # subgradient refinement must not be worse than the HS warm start
    A = block_algebra((2,), 3)
    rng = rng_for(8, "warmstart")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y0 = A.project(g)
    _, d, *_ = nearest_in_span(g, A)
    assert d <= opnorm(g - y0) + 1e-12


def test_nearest_in_ball_respects_norm():
    A = block_algebra((2,), 3)
    rng = rng_for(9, "ball")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b, d, *_ = nearest_in_ball(3.0 * g / opnorm(g), A)
    assert opnorm(b) <= 1.0 + 1e-9
    assert d >= 2.0 - 1e-6  # the target has norm 3, the ball caps at 1


def scalars(N: int) -> ConcreteAlgebra:
    return ConcreteAlgebra.from_basis([np.eye(N)], N)


@pytest.mark.parametrize("ball", [False, True])
def test_stacked_targets_match_single_solves(ball):
    # a member (done at the warm start), a target stopping on tol partway
    # and ordinary ones of different sizes, so that each has its own step
    # scale c, solved together
    S, tol = scalars(4), 0.6
    rng = rng_for(21, "stack")
    stopper = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    X = np.array([0.3 * np.eye(4), stopper]
                 + [scale * (rng.standard_normal((4, 4))
                             + 1j * rng.standard_normal((4, 4)))
                    for scale in (10.0, 20.0, 40.0, 80.0)])
    bs, vals, *_ = nearest_in_span(X, S, ball=ball, iters=200, tol=tol)
    assert bs.shape == X.shape and vals.shape == (len(X),)
    # the stopper's iterates are m_k 1 with residual max(m_k, 1 - m_k): the
    # step c / sqrt(k), c = 10 tol, moves m by a quarter of it toward 1/2
    m, k = 0.25, 0
    while max(m, 1.0 - m) > tol:
        k += 1
        m += (0.25 if m < 0.5 else -0.25) * 10 * tol / np.sqrt(k)
        m = min(max(m, -1.0), 1.0) if ball else m
    assert vals[0] < 1e-12 and abs(vals[1] - max(m, 1.0 - m)) < 1e-12 and k > 1
    assert np.all(vals[2:] > 10 * tol)
    for x, b, v in zip(X, bs, vals):
        b1, v1, *_ = nearest_in_span(x, S, ball=ball, iters=200, tol=tol)
        assert isinstance(v1, float)
        assert abs(v1 - v) <= 1e-12
        assert opnorm(b1 - b) <= 1e-12


def dyad_stack(kind: str) -> np.ndarray:
    rng = rng_for(31, "top-dyad", kind)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    N, n = 3, 2
    return {
        "tall": lambda: cplx(5, 6, 4),
        "square": lambda: cplx(5, 4, 4),
        # a 1 x 2 block row of tensor_lift: Nn x 2Nn
        "wide": lambda: cplx(5, N * n, 2 * N * n),
        # a scaled unitary: every singular value is 2.5
        "degenerate": lambda: 2.5 * np.array([random_unitary(rng, 4) for _ in range(5)]),
        "rank-one": lambda: cplx(5, 4, 1) * cplx(5, 1, 6),
        "tiny": lambda: 1e-9 * cplx(5, 4, 4),
    }[kind]()


@pytest.mark.parametrize("kind", ["tall", "square", "wide", "degenerate",
                                  "rank-one", "tiny"])
def test_top_dyad_matches_svd(kind, monkeypatch):
    R = dyad_stack(kind)
    grams = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: grams.append(g.shape) or eigh(g))
    u, v, s = _top_dyad(R)
    # the eigensolve runs on the smaller Gram matrix
    assert grams == [(len(R),) + (min(R.shape[1:]),) * 2]
    sv = np.linalg.svd(R, compute_uv=False)[:, 0]
    assert np.all(np.abs(s - sv) <= 1e-14 * sv)
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-14
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-14
    # Re <u v*, R>_HS = u* R v: the dyad is a subgradient of the norm at R
    inner = np.einsum("si,sij,sj->s", u.conj(), R, v).real
    assert np.all(np.abs(inner - s) <= 1e-14 * s)


def test_nearest_in_ball_stack_is_feasible():
    # targets 3 x with x in the unit sphere of B are 2 from the ball, at x;
    # the warm start rescales 3 x to it
    B = block_algebra((2, 1), 4).conjugated(small_rotation(4, 0.4, 32))
    rng = rng_for(32, "ball-stack")
    inside = np.array([b / opnorm(b) for b in B.basis[:3]])
    X = np.concatenate([3.0 * inside, 3.0 * rng.standard_normal((4, 4, 4))])
    bs, vals, *_ = nearest_in_ball(X, B, iters=100)
    assert all(opnorm(b) <= 1.0 + 1e-12 for b in bs)
    assert np.abs(vals[:3] - 2.0).max() <= 1e-12


def test_nearest_in_span_scalar_distance_closed_form():
    # dist(x, C 1) = (lambda_max - lambda_min) / 2 for hermitian x
    rng = rng_for(22, "scalar-oracle")
    X = []
    for _ in range(8):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        X.append(g + dagger(g))
    X = np.array(X)
    _, vals, *_ = nearest_in_span(X, scalars(5), iters=200)
    lam = np.linalg.eigvalsh(X)
    exact = (lam[:, -1] - lam[:, 0]) / 2.0
    assert np.all(vals >= exact - 1e-12)
    assert np.all(vals <= 1.01 * exact)


@pytest.mark.parametrize("ball", [False, True])
def test_stacked_witnesses_are_feasible_and_exact(ball):
    A = block_algebra((2, 1), 4)
    B = A.conjugated(small_rotation(4, 0.3, 23))
    rng = rng_for(23, "feasible")
    spec = SampleSpec(seed=23, n_selfadjoint=3, n_unitary=3)
    X = np.array([x for _, x in sample_unit_ball(A, spec)]
                 + [2.0 * rng.standard_normal((4, 4)) for _ in range(3)])
    bs, vals, *_ = nearest_in_span(X, B, ball=ball, iters=100)
    for x, b, v in zip(X, bs, vals):
        assert B.residual(b) <= 1e-12
        if ball:
            assert opnorm(b) <= 1.0 + 1e-12
        assert abs(opnorm(x - b) - v) <= 1e-15


def test_span_distance_lower_is_lower():
    A = block_algebra((2, 1), 4)
    rng = rng_for(12, "duality")
    for _ in range(6):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lb = span_distance_lower(g, A)
        _, ub, *_ = nearest_in_span(g, A)
        assert lb <= ub + 1e-10


# ---------------------------------------------------------------------------
# the floor: solving only for the supremum
# ---------------------------------------------------------------------------

PAIRS = [("M2", 4), ("M2+M1", 4), ("3,3", 8), ("2,2,2", 8)]


def conjugation_pair(profile: str, N: int, seed: int = 3):
    inst = gen_instance("conjugation", {"algebra": profile, "ambient": N,
                                        "eps": 1e-6}, seed=seed)
    return inst.A, inst.B


def unit_ball_stack(A, n: int = 16, seed: int = 3) -> np.ndarray:
    spec = SampleSpec(seed=seed, n_selfadjoint=n, n_unitary=n)
    return np.array([x for _, x in sample_unit_ball(A, spec)])


def record_duals(monkeypatch, names=("_best_point_dual", "_subgradient_dual")) -> list:
    """Record (R, lo) of every checkpoint the solver computes, k = 0 first:
    the duals of one checkpoint share the residuals R, and lo is the largest
    of them, the bound the solver stops on."""
    calls = []

    def recorded(dual):
        def call(*args):
            R, lo = args[-2], dual(*args)
            if calls and calls[-1][0] is R:
                calls[-1] = (R, np.maximum(calls[-1][1], lo))
            else:
                calls.append((R, lo))
            return lo
        return call

    for name in names:
        monkeypatch.setattr(geometry, name, recorded(getattr(geometry, name)))
    return calls


@pytest.mark.parametrize("ball", [False, True])
@pytest.mark.parametrize("profile, N", PAIRS)
def test_floor_keeps_the_supremum(profile, N, ball, monkeypatch):
    A, B = conjugation_pair(profile, N)
    spec = SampleSpec(seed=3, n_selfadjoint=16, n_unitary=16, iters=200)
    X = unit_ball_stack(A)
    _, full, *_ = nearest_in_span(X, B, ball=ball, iters=200)
    lbs = span_distance_lower(X, B)
    cert = near_inclusion(A, B, spec=spec, ball=ball)
    assert cert.gamma_hi == full.max() and cert.gamma_lo == lbs.max()
    duals = record_duals(monkeypatch)
    _, vals, *_ = nearest_in_span(X, B, ball=ball, iters=200, floor=lbs.max())
    floor = max([lbs.max()] + [lo.max() for _, lo in duals])
    assert duals and floor > lbs.max()
    top = vals >= floor
    # targets that can reach the supremum ran the full solve, bit for bit;
    # the others stopped below the floor, at a best iterate of the same path
    assert top.any() and not top.all()
    assert np.array_equal(vals[top], full[top])
    assert np.all(vals[~top] < floor) and np.all(vals >= full)
    # each dual bound lies below its target's achieved distance; a residual
    # R = x - b, b in span(B), is matched to x by the HS residual of x - R
    project = B.project
    for R, lo in duals:
        Z = (X[None] - R[:, None]).reshape((-1,) + X.shape[1:])
        off = np.linalg.norm(Z - project(Z), axis=(1, 2)).reshape(len(R), len(X))
        assert np.all(lo <= full[off.argmin(axis=1)] * (1.0 + 1e-13))


def test_subgradient_dual_is_below_the_scalar_distance(monkeypatch):
    # dist(x, C 1) = (lambda_max - lambda_min) / 2 for hermitian x, and the
    # residual R = x - b, b in C 1, has the same distance
    rng = rng_for(24, "dual-oracle")
    g = rng.standard_normal((8, 5, 5)) + 1j * rng.standard_normal((8, 5, 5))
    duals = record_duals(monkeypatch, ("_subgradient_dual",))
    nearest_in_span(g + dagger(g), scalars(5), iters=200, floor=0.0)
    assert len(duals) == 4  # checkpoints 16, 32, 64, 128
    for R, lo in duals:
        lam = np.linalg.eigvalsh((R + dagger(R)) / 2.0)
        exact = (lam[:, -1] - lam[:, 0]) / 2.0
        assert np.all(lo <= exact * (1.0 + 1e-14))
        assert lo.max() >= 0.9 * exact.max()


# targets of unit_ball_stack that leave at k = 0 on the gap and on the floor;
# on M2/4 every warm start is proven optimal there
EARLY = {("M2", 4): (36, 0), ("M2+M1", 4): (5, 22), ("3,3", 8): (18, 14),
         ("2,2,2", 8): (10, 12)}


def test_floor_drops_exactly_the_targets_below_it(monkeypatch):
    # replay the stop rules from the solver's own per-iteration values: the
    # stack of iteration k holds the targets stopped at k or later, in order;
    # a target leaves on the gap exactly when a checkpoint dual (k = 0, 16,
    # 32, ...) proves best - lo <= 1e-6 best, else on the floor exactly when
    # its best value is below (1 - 1e-6) times the floor then
    values, top_dyad = [], geometry._top_dyad
    monkeypatch.setattr(geometry, "_top_dyad",
                        lambda r: values.append(top_dyad(r)[2]) or top_dyad(r))
    duals = record_duals(monkeypatch)
    for profile, N in PAIRS:
        A, B = conjugation_pair(profile, N)
        X = unit_ball_stack(A)
        K, floor0 = 130, span_distance_lower(X, B).max()
        best = nearest_in_span(X, B, iters=0)[1]
        values.clear()
        duals.clear()
        _, vals, at, stop = nearest_in_span(X, B, iters=K, floor=floor0)
        gaps, floors = EARLY[profile, N]
        assert (stop[at == 0] == "gap").sum() == gaps
        assert (stop[at == 0] == "floor").sum() == floors
        if gaps == len(X):
            # decided at the warm start: no eigensolve, one checkpoint
            assert len(values) == 0 and len(duals) == 1
        else:
            # one target runs to the cap, past every checkpoint; the others
            # stop on the floor, some of them after k = 0
            assert len(values) == K + 1 and len(duals) == 5
            assert list(stop[at == K]) == ["cap"] and "floor" in stop[(at > 0) & (at < K)]
        lows, floor = dict(zip((0, 16, 32, 64, 128), (lo for _, lo in duals))), floor0
        for k in range(at.max() + 1):
            live = np.flatnonzero(at >= k)
            if k:
                assert len(live) == len(values[k])
                best[live] = np.minimum(best[live], values[k])
            gap = np.zeros(len(live), dtype=bool)
            if k in lows:
                gap = best[live] - lows[k] <= 1e-6 * best[live]
                floor = max(floor, lows[k].max())
            below = ~gap & (best[live] < floor * (1.0 - 1e-6))
            assert np.all(at[live[gap | below]] == k)
            assert np.all(stop[live[gap]] == "gap") and np.all(stop[live[below]] == "floor")
            assert np.all(at[live[~gap & ~below]] > k) or k == K
        # the returned values are the tracked best ones, and a gap stop's too
        assert np.all(np.abs(vals - best) <= 1e-15 * best)
        assert np.all(vals[stop == "floor"] < floor * (1.0 - 1e-6))


def test_floor_never_drops_the_target_that_sets_it(monkeypatch):
    # x = diag(1, -1, 0, 0) is at distance 1 from C 1 and the warm start
    # b = 0 attains it; its top singular cluster {1, 1} has the dyads e_11
    # and -e_22, whose average (e_11 - e_22) / 2 has trace 0 and gives the
    # dual bound 1 at k = 0: the floor rises to 1 there, and the one target
    # leaves on its closed gap, not on the floor it set, before any eigensolve
    x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    calls, top_dyad = [], geometry._top_dyad
    monkeypatch.setattr(geometry, "_top_dyad", lambda r: calls.append(1) or top_dyad(r))
    duals = record_duals(monkeypatch)
    _, d, at, stop = nearest_in_span(x, scalars(4), iters=40, floor=0.0)
    assert d == 1.0 and (at, stop) == (0, "gap") and len(calls) == 0
    assert len(duals) == 1 and abs(duals[0][1][0] - 1.0) <= 1e-15


def test_a_closed_gap_stops_before_the_floor():
    # diag(1, -1, 0, 0) and 0.9 times it both close their gaps at k = 0,
    # where the floor rises from 0.5 to 1: the second is then below the
    # floor too, and its stop is the proven one, the gap
    x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    _, vals, at, stop = nearest_in_span(np.array([x, 0.9 * x]), scalars(4),
                                        iters=40, floor=0.5)
    assert list(vals) == [1.0, 0.9] and list(at) == [0, 0]
    assert list(stop) == ["gap", "gap"]


def test_gap_stop_is_within_the_margin_of_the_scalar_distance(monkeypatch):
    # dist(x, C 1) = (lambda_max - lambda_min) / 2 for hermitian x; a gap
    # stop at 1e-6 puts the value within 1e-6 relative of it
    rng = rng_for(22, "scalar-oracle")
    g = rng.standard_normal((8, 5, 5)) + 1j * rng.standard_normal((8, 5, 5))
    X = g + dagger(g)
    duals = record_duals(monkeypatch)
    _, vals, at, stop = nearest_in_span(X, scalars(5), iters=1000)
    lam = np.linalg.eigvalsh(X)
    exact = (lam[:, -1] - lam[:, 0]) / 2.0
    assert np.all(stop == "gap") and np.all(at < 1000)
    assert np.all(vals >= exact * (1.0 - 1e-14))
    assert np.all(vals <= exact / (1.0 - 1e-6))
    # each target left at the first checkpoint k = 0, 16, 32, ... whose dual
    # closed its gap against the best value then, ||R|| for R = x - best
    assert len(duals) == 6 and at.max() == 16 * 2 ** 4
    for k, (R, lo) in zip([0] + list(16 * 2 ** np.arange(5)), duals):
        hi = np.linalg.svd(R, compute_uv=False)[:, 0]
        assert np.array_equal(hi - lo <= 1e-6 * hi, at[at >= k] == k)


def test_ball_solve_never_stops_on_the_unconstrained_gap():
    # x = 3 e_11 in M_2 against C 1: the ball optimum is b = 1 at distance 2,
    # the unconstrained one b = 3/2 at 3/2, so the span's dual (at most 3/2)
    # never closes the ball's gap and the solve runs to the cap
    x = np.diag([3.0, 0.0]).astype(complex)
    b, d, at, stop = nearest_in_ball(x, scalars(2), iters=200)
    assert (d, at, stop) == (2.0, 200, "cap") and opnorm(b) <= 1.0
    _, d, at, stop = nearest_in_span(x, scalars(2), iters=200)
    assert stop == "gap" and at < 200 and 1.5 <= d <= 1.5 / (1.0 - 1e-6)


def hermitian_stack(seed: int, N: int = 5, count: int = 8) -> np.ndarray:
    rng = rng_for(seed, "hermitian-stack")
    g = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    return g + dagger(g)


def test_best_point_dual_is_below_the_scalar_distance():
    # dist(x, C 1) = (lambda_max - lambda_min) / 2 for hermitian x; R = x - c 1
    # has the same distance for every c, and at the midpoint c of the spectrum
    # the top singular cluster is {lambda_max - c, c - lambda_min}, whose
    # averaged dyad has trace 0: there the bound is the distance itself
    X = hermitian_stack(25)
    lam = np.linalg.eigvalsh(X)
    exact = (lam[:, -1] - lam[:, 0]) / 2.0
    project = scalars(5).project
    rng = rng_for(25, "scalar-shifts")
    shifts = [np.trace(X, axis1=1, axis2=2).real / 5.0,  # the warm start
              rng.standard_normal(len(X)), lam[:, 0], lam[:, -1]]
    for c in shifts:
        lo = geometry._best_point_dual(X - c[:, None, None] * np.eye(5), project)
        assert np.all(lo <= exact * (1.0 + 1e-14)) and np.all(lo > 0.0)
    mid = (lam[:, -1] + lam[:, 0]) / 2.0
    lo = geometry._best_point_dual(X - mid[:, None, None] * np.eye(5), project)
    assert np.all(np.abs(lo - exact) <= 1e-14 * exact)


@pytest.mark.parametrize("ball", [False, True])
def test_optimal_warm_start_leaves_before_any_iteration(ball, monkeypatch):
    # x = diag(1, -1, 0, 0): the warm start b = 0 is optimal in C 1 and in its
    # ball, and the best-point dual proves it at k = 0
    x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    calls, top_dyad = [], geometry._top_dyad
    monkeypatch.setattr(geometry, "_top_dyad", lambda r: calls.append(1) or top_dyad(r))
    b, d, at, stop = nearest_in_span(x, scalars(4), ball=ball, iters=40)
    assert (d, at, stop) == (1.0, 0, "gap") and not calls and not b.any()
    # 3 e_11 in the ball of C 1: the best-point dual at the ball optimum
    # b = 1, R = diag(2, -1, -1, -1), is Re<Y, R> / ||Y||_1 for
    # Y = e_11 - 1 / 4, that is (9/4) / (3/2) = 3/2 < 2, so the solve still
    # runs to the cap
    if ball:
        b, d, at, stop = nearest_in_span(3.0 * np.diag([1.0, 0, 0, 0]).astype(complex),
                                         scalars(4), ball=True, iters=200)
        assert (d, at, stop) == (2.0, 200, "cap") and opnorm(b) <= 1.0


@pytest.mark.parametrize("ball", [False, True])
def test_stack_with_warm_start_stops_matches_single_solves(ball):
    # targets decided at k = 0 (diag(1, -1, 0, 0) and 0.9 times it) leave a
    # stack whose other targets, hermitian and not, then go on: each target's
    # witness, value, iterations and stop are those of its own solve, bit for
    # bit
    x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    rng = rng_for(26, "mixed-stack")
    X = np.concatenate([[x, 0.9 * x, 3.0 * np.diag([1.0, 0, 0, 0])],
                        hermitian_stack(26, 4, 3) / 4.0,
                        rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))])
    bs, vals, at, stop = nearest_in_span(X, scalars(4), ball=ball, iters=150)
    assert list(at[:2]) == [0, 0] and list(stop[:2]) == ["gap", "gap"] and at.max() > 16
    for x, b, v, k, why in zip(X, bs, vals, at, stop):
        b1, v1, k1, why1 = nearest_in_span(x, scalars(4), ball=ball, iters=150)
        assert (k1, why1) == (k, why) and v1 == v and np.array_equal(b1, b)


def test_stack_reports_each_stop_reason():
    # in the ball of C 1 with tol 0.6: 0.3 * 1 is a member (tol at the warm
    # start), diag(1, -1, 0, 0) closes its gap at 1 at the warm start, 3 e_11
    # is held at 2 by the ball (cap) and e_44 falls to tol partway
    e11, e44 = np.diag([3.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0])
    X = np.array([0.3 * np.eye(4), np.diag([1.0, -1.0, 0, 0]), e11, e44], dtype=complex)
    _, vals, at, stop = nearest_in_ball(X, scalars(4), iters=100, tol=0.6)
    assert list(stop) == ["tol", "gap", "cap", "tol"]
    assert at[0] == 0 and at[1] == 0 and at[2] == 100 and 0 < at[3] < 100
    assert vals[0] < 1e-15 and vals[1] == 1.0 and vals[2] == 2.0 and vals[3] <= 0.6


# ---------------------------------------------------------------------------
# sampling and two-sided distance
# ---------------------------------------------------------------------------

def test_sample_unit_ball_contractions():
    A = block_algebra((2, 1), 4)
    spec = SampleSpec(seed=4, n_selfadjoint=5, n_unitary=5)
    samples = sample_unit_ball(A, spec)
    assert len(samples) == A.dim + 10
    for label, x in samples:
        assert opnorm(x) <= 1.0 + 1e-9
        assert A.residual(x) < 1e-10


@pytest.mark.parametrize("profile, N", PAIRS[1:3])
def test_sample_unit_ball_equals_the_per_sample_loop(profile, N):
    # normalised basis, then clipped self-adjoint draws, then unitaries
    # exp(i pi/2 h / ||h||), one sample at a time from the same stream
    B = conjugation_pair(profile, N)[1]
    spec = SampleSpec(seed=5, n_selfadjoint=6, n_unitary=6)
    rng = rng_for(spec.seed, "unit-ball", B.ambient_dim, B.dim)
    want = [b / opnorm(b) for b in B.basis]
    want += [clip_spectrum(B.random_selfadjoint(rng), -1.0, 1.0) for _ in range(6)]
    for _ in range(6):
        h = B.random_selfadjoint(rng)
        want.append(B.unitary_from(np.pi * 0.5 * (h / opnorm(h))))
    got = sample_unit_ball(B, spec)
    assert [label for label, _ in got][-7:-5] == ["sa[5]", "u[0]"]
    assert np.array([x for _, x in got]).tobytes() == np.array(want).tobytes()


def test_sample_unit_ball_deterministic():
    A = block_algebra((2,), 3)
    spec = SampleSpec(seed=7)
    s1 = sample_unit_ball(A, spec)
    s2 = sample_unit_ball(A, spec)
    for (l1, x1), (l2, x2) in zip(s1, s2):
        assert l1 == l2
        assert opnorm(x1 - x2) == 0.0


def test_sample_unit_ball_on_a_block_algebra():
    # matrix units, then self-adjoint contractions, then unitaries, all
    # block diagonal, and the same points on a second call
    fd = FDAlgebra((2, 1))
    spec = SampleSpec(seed=6, n_selfadjoint=5, n_unitary=4)
    samples = sample_unit_ball(fd, spec)
    labels = [label for label, _ in samples]
    assert labels == ([f"basis[{i}]" for i in range(5)] + [f"sa[{t}]" for t in range(5)]
                      + [f"u[{t}]" for t in range(4)])
    X = np.array([x for _, x in samples])
    assert X[:5].tobytes() == fd.units().tobytes()
    assert all(opnorm(x) <= 1.0 + 1e-12 for x in X)
    assert np.abs(fd.pinch(X) - X).max() == 0.0
    for label, x in samples[5:10]:
        assert opnorm(x - dagger(x)) <= 1e-14
    for label, u in samples[10:]:
        assert opnorm(dagger(u) @ u - np.eye(fd.d)) <= 1e-14
    again = sample_unit_ball(fd, spec)
    assert np.array([x for _, x in again]).tobytes() == X.tobytes()


@pytest.mark.parametrize("concrete", [True, False])
def test_sample_unit_ball_without_unitaries_exponentiates_nothing(concrete, monkeypatch):
    # n_unitary = 0 (hom_defect, the gamma probe of intertwining_unitary)
    # calls no expm_i, and the points are those of the per-sample loop
    from cstarlab import algebra
    calls, expm_i = [], algebra.expm_i
    monkeypatch.setattr(algebra, "expm_i", lambda h: calls.append(len(h)) or expm_i(h))
    A = conjugation_pair("M2+M1", 4)[1] if concrete else FDAlgebra((2, 1))
    key = (A.ambient_dim, A.dim) if concrete else (A.d, A.dim_linear)
    spec = SampleSpec(seed=5, n_selfadjoint=6, n_unitary=0)
    got = sample_unit_ball(A, spec)
    assert calls == []
    rng = rng_for(spec.seed, "unit-ball", *key)
    want = [b / opnorm(b) for b in A.basis] if concrete else list(A.units())
    want += list(clip_spectrum(A.random_selfadjoints(rng, 6), -1.0, 1.0))
    assert [label for label, _ in got][-2:] == ["sa[4]", "sa[5]"]
    assert np.array([x for _, x in got]).tobytes() == np.array(want).tobytes()
    sample_unit_ball(A, SampleSpec(seed=5, n_selfadjoint=6, n_unitary=2))
    assert calls == [2]


def test_unit_ball_draws_go_through_sample_unit_ball():
    # one unit-ball sampler: a self-adjoint contraction drawn as
    # clip_spectrum(h, -1.0, 1.0) anywhere but in sample_unit_ball's own body
    # fails
    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cstarlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if path.name == "geometry.py" and getattr(top, "name", None) == "sample_unit_ball":
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == "clip_spectrum"
                      and [literal(a) for a in node.args[1:3]] == [-1.0, 1.0]]
    assert not found, f"draw unit-ball points with sample_unit_ball, not at {found}"


def test_kk_distance_self_is_zero():
    A = block_algebra((2, 1), 4)
    iv = kk_distance(A, A)
    assert iv.lo <= iv.hi
    assert iv.hi < 1e-9


@given(seed=st.integers(min_value=0, max_value=10 ** 4))
@settings(max_examples=15, deadline=None)
def test_kk_distance_conjugation_bound(seed):
    # d(A, uAu*) <= 2 ||u - 1|| for any unitary u
    A = block_algebra((2, 1), 3)
    u = small_rotation(3, 5e-3, seed)
    B = A.conjugated(u)
    iv = kk_distance(A, B, spec=SampleSpec(seed=seed, n_selfadjoint=4, n_unitary=4))
    assert iv.lo <= iv.hi + 1e-12
    assert iv.hi <= 2.0 * opnorm(u - np.eye(3)) + 1e-9
    # the sample setting each direction's sup closes its duality gap at the
    # warm start, k = 0 (so in both directions of every seed from 0 to 10^4);
    # it is never dropped by the floor, which only drops samples below the sup
    for cert in (iv.cert_ab, iv.cert_ba):
        top = cert.witnesses[0]
        assert (top.stop, top.iters) == ("gap", 0) and top.ub == cert.gamma_hi
        for w in cert.witnesses:
            assert w.stop in ("gap", "floor", "cap")
            assert w.iters <= 500 and (w.stop != "cap" or w.iters == 500)
            assert w.stop != "gap" or w.iters in (0, 16, 32, 64, 128, 256)
            assert w.stop != "floor" or w.ub < top.ub


@pytest.mark.parametrize("profile, N", PAIRS[:3])
def test_kk_distance_lo_witness_attains_lo(profile, N):
    for seed in range(6):
        A, B = conjugation_pair(profile, N, seed)
        iv = kk_distance(A, B, spec=SampleSpec(seed=seed, n_selfadjoint=32,
                                               n_unitary=32, iters=20))
        target = B if iv.cert_ab.gamma_lo >= iv.cert_ba.gamma_lo else A
        lb = span_distance_lower(iv.lo_witness, target)
        assert abs(lb - iv.lo) <= 1e-14 * iv.lo


def test_near_inclusion_direction_tag():
    A = block_algebra((2,), 3)
    u = small_rotation(3, 1e-3, 2)
    cert = near_inclusion(A, A.conjugated(u))
    assert cert.direction == "A->B"
    assert cert.gamma_lo <= cert.gamma_hi + 1e-12
    assert cert.witnesses
    assert cert.recheck() == 0.0


# ---------------------------------------------------------------------------
# amplification and equality
# ---------------------------------------------------------------------------

def test_tensor_lift_certifies_amplified_distance():
    A = block_algebra((2, 1), 3)
    u = small_rotation(3, 2e-3, 6)
    B = A.conjugated(u)
    gamma = 2.0 * opnorm(u - np.eye(3))
    n = 2
    rng = rng_for(6, "tensor")
    X = []
    for _ in range(3):
        x = A.random_selfadjoint(rng)
        amp = np.kron(x, np.eye(n))
        X.append(amp / max(opnorm(amp), 1e-12))
    wits, cert = tensor_lift(X, B, n, gamma)
    assert cert.verdict == "pass"
    assert len(wits) == 3


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_tensor_span_projection_matches_kronecker_basis(n, r):
    # a non-diagonal basis: M2 + M1 rotated inside M_3
    N = 3
    B = block_algebra((2, 1), N).conjugated(small_rotation(N, 0.7, 11))
    rows = []
    for slot in range(r):
        for b in B.basis:
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    row = np.zeros((N * n, r * N * n), dtype=complex)
                    row[:, slot * N * n:(slot + 1) * N * n] = np.kron(b, e)
                    rows.append(row.reshape(-1))
    Q = np.array(rows)
    assert np.allclose(Q.conj() @ Q.T, np.eye(len(Q)), atol=1e-13)
    rng = rng_for(n + 10 * r, "tensor-span")
    shape = (4, N * n, r * N * n)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    P = _TensorSpan(B, n, r).project
    dense = (Q.conj() @ X.reshape(4, -1).T).T @ Q
    assert np.abs(P(X) - dense.reshape(shape)).max() < 1e-13
    assert np.abs(P(P(X)) - P(X)).max() < 1e-13
    for x, y, px, py in zip(X, Y, P(X), P(Y)):
        assert abs(np.vdot(px, y) - np.vdot(x, py)) < 1e-13


def test_tensor_lift_rejects_bad_shape():
    A = block_algebra((2,), 3)
    with pytest.raises(ValueError):
        tensor_lift([np.eye(5)], A, 2, 0.1)


def test_equality_criterion_accepts_self():
    A = block_algebra((2, 1), 4)
    cert = near_inclusion(A, A)
    assert equality_criterion(A, A, cert)


def test_equality_criterion_rejects_far_algebra():
    A = block_algebra((2, 1), 4)
    u = small_rotation(4, 0.5, 3)
    B = A.conjugated(u)
    # basis of A is not inside span(B), so equality must be rejected
    cert = near_inclusion(B, A)
    assert not equality_criterion(A, B, cert)


def test_equality_criterion_contradiction():
    # proper subalgebra with a certificate claiming gamma < 1 is contradictory
    A = block_algebra((2, 1), 4)   # dim 5
    B = block_algebra((2, 2), 4)   # dim 8, contains a (2,1) copy? no; force via fake cert
    cert = near_inclusion(A, A)    # gamma ~ 0 but dims differ below
    cert.direction = "B->A"
    with pytest.raises(ContradictionError):
        equality_criterion(A, B, cert)
