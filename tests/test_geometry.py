"""Distance between subalgebras: witnesses, near inclusions, brackets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cstarlab.algebra import ConcreteAlgebra, dagger, opnorm
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
from cstarlab.instances import block_algebra
from cstarlab.linalg import random_unitary, rng_for


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
    b, d = nearest_in_span(x, A)
    assert d < 1e-10
    assert opnorm(b - x) < 1e-10


def test_nearest_in_span_beats_hs_projection():
    # subgradient refinement must not be worse than the HS warm start
    A = block_algebra((2,), 3)
    rng = rng_for(8, "warmstart")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y0 = A.project(g)
    _, d = nearest_in_span(g, A)
    assert d <= opnorm(g - y0) + 1e-12


def test_nearest_in_ball_respects_norm():
    A = block_algebra((2,), 3)
    rng = rng_for(9, "ball")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b, d = nearest_in_ball(3.0 * g / opnorm(g), A)
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
    bs, vals = nearest_in_span(X, S, ball=ball, iters=200, tol=tol)
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
        b1, v1 = nearest_in_span(x, S, ball=ball, iters=200, tol=tol)
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
    bs, vals = nearest_in_ball(X, B, iters=100)
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
    _, vals = nearest_in_span(X, scalars(5), iters=200)
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
    bs, vals = nearest_in_span(X, B, ball=ball, iters=100)
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
        _, ub = nearest_in_span(g, A)
        assert lb <= ub + 1e-10


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


def test_sample_unit_ball_deterministic():
    A = block_algebra((2,), 3)
    spec = SampleSpec(seed=7)
    s1 = sample_unit_ball(A, spec)
    s2 = sample_unit_ball(A, spec)
    for (l1, x1), (l2, x2) in zip(s1, s2):
        assert l1 == l2
        assert opnorm(x1 - x2) == 0.0


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
