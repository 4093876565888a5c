"""Operator-norm geometry between subalgebras: the Hausdorff distance
between unit balls and tensor-amplified witness lifts.

The distance between unit balls is bracketed from both sides.  The upper
end is proven: each one-sided constant is at most the cb norm of id - E_B on
A, E_B the HS projection onto B, which ``cpmaps.cb_bracket`` bounds from
above (``one_sided_bound``).  The lower end is sampled: trace-norm dual
certificates, all read by one function, ``_trace_dual``, at the points
``sample_unit_ball`` draws, the only unit-ball sampler, so lo is a proven
lower bound at those points, not the supremum over the ball.  One solver,
``nearest_in_span``, serves the witness search of ``tensor_lift``: one
Chambolle-Pock primal-dual iteration over a span that advances a stack of
targets together by batched eigensolves of small Gram matrices, each target
leaving with its stop reason.  A witness in a unit ball needs no solve: the
HS projection onto a C*-subalgebra is its conditional expectation, which is
cpc, so it maps the unit ball into the subalgebra's.  ``kk_distance``
returns four numbers: the bracket and the two one-sided constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra
from .cpmaps import _EPS, LinMap, cb_bracket
# opnorm has no caller here; it stays bound because perfbench's tracer test
# reads geometry.opnorm to check that wrappers reach names a module rebinds
from .linalg import clip_spectrum, dagger, opnorm, opnorms, rng_for  # noqa: F401

__all__ = [
    "DistanceInterval",
    "nearest_in_span",
    "span_distance_lower",
    "kk_distance",
    "one_sided_bound",
    "tensor_lift",
    "sample_unit_ball",
]


@dataclass
class DistanceInterval:
    """Two-sided bracket for the unit-ball Hausdorff distance d(A, B): lo is
    sampled, and the one-sided constants gamma_ab (A in B) and gamma_ba (B in
    A) are proven upper bounds of at most 1; hi is the larger constant."""

    lo: float
    gamma_ab: float
    gamma_ba: float

    @property
    def hi(self) -> float:
        return max(self.gamma_ab, self.gamma_ba)

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi + 1e-12 and self.hi <= 1.0):
            raise ValueError("distance interval must satisfy 0 <= lo <= hi <= 1")


# ---------------------------------------------------------------------------
# convex witness search
# ---------------------------------------------------------------------------

def _shrink(z: np.ndarray) -> np.ndarray:
    """Project each matrix of a stack z onto the trace-norm unit ball: its
    singular values s, read from one eigensolve of its smaller Gram matrix
    (z* z for tall or square z, z z* for wide z), go to max(s - theta, 0),
    theta the shift that projects s onto the l1 unit ball, the largest of
    the candidates (s_1 + ... + s_j - 1) / j over the sorted s_1 >= s_2 >= ...
    (which the eigensolve gives) and 0, and a matrix with sum(s) <= 1 is kept
    as is."""
    wide = z.shape[-2] < z.shape[-1]
    lam, w = np.linalg.eigh(z @ dagger(z) if wide else dagger(z) @ z)
    s = np.sqrt(np.maximum(lam, 0.0))
    excess = np.cumsum(s[:, ::-1], axis=1) - 1.0
    theta = np.maximum((excess / np.arange(1, s.shape[1] + 1)).max(axis=1), 0.0)
    keep = excess[:, -1] <= 0.0
    f = np.maximum(1.0 - theta[:, None] / np.where(s > 0.0, s, 1.0), 0.0)
    m = dagger(w)  # w*, then w diag(f) w*: w is scaled in place and freed
    w *= f[:, None, :]  # early, so that few stacks are alive at the peak
    m = w @ m
    del w
    return np.where(keep[:, None, None], z, m @ z if wide else z @ m)


def _span_dual(Y: np.ndarray, R: np.ndarray, project) -> np.ndarray:
    """Lower bounds for dist(x, span) from any Y and residuals R = x - b, b in
    the span: Y - P(Y) vanishes on the span, so Re<Y - P(Y), R> =
    Re<Y - P(Y), x - b'> <= ||Y - P(Y)||_1 ||x - b'|| for every b' in it and
    lo = Re<Y - P(Y), R> / ||Y - P(Y)||_1 (0 where it vanishes).  R rather
    than x keeps the rounding relative to the distance."""
    return _trace_dual(Y - project(Y), R)


def _trace_dual(Y: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Re<Y, R> / ||Y||_1 for each matrix of the stacks, 0 where Y = 0."""
    nrm = np.linalg.svd(Y, compute_uv=False).sum(axis=1)
    inner = np.einsum("sij,sij->s", Y.conj(), R).real
    return np.where(nrm > 0.0, inner, 0.0) / np.where(nrm > 0.0, nrm, 1.0)


def _best_point_dual(R: np.ndarray, project) -> np.ndarray:
    """Lower bounds for dist(x, span) read off the residuals R = x - b at the
    best points alone: G averages the top singular dyads u_i v_i* over the
    singular values within _MARGIN of the largest, and Y = G - P(G) gives
    lo = Re<Y, R> / ||Y||_1 as in ``_span_dual`` (any G does).  G is
    a subgradient of the norm at R (Re<G, R> = ||R||, ||G||_1 = 1), so where
    P(G) = 0 the bound is ||R|| itself: a best point that is optimal this way,
    such as a warm start no step improves, is proven so at once."""
    U, s, Vh = np.linalg.svd(R, full_matrices=False)
    top = (s >= s[:, :1] * (1.0 - _MARGIN)).astype(float)
    G = (U * (top / top.sum(axis=1, keepdims=True))[:, None, :]) @ Vh
    del U, Vh  # then G - P(G) in place: few stacks at once
    G -= project(G)
    return _trace_dual(G, R)


# relative margin of the stopping rule: a target leaves once its best value
# is within it of a proven lower bound (gap)
_MARGIN = 1e-6
_STOPS = ("tol", "gap", "cap")
# the iterates are measured every _PD_CHECK steps; the steps are tau = c and
# sigma = _PD_STEP / c: tau sigma below one keeps the iteration convergent,
# P having norm one
_PD_CHECK = 16
_PD_STEP = 0.99


def nearest_in_span(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan, *, iters: int,
                    tol: float = 1e-12) -> tuple:
    """Minimize ||x - b||_op over b in the given subspace.

    A Chambolle-Pock primal-dual iteration on the saddle problem
    min_{b in S} max_{||Y||_1 <= 1} Re<Y, x - b>, warm started at the HS
    projection of x, with dual Y = 0: Y <- the trace-norm ball projection of
    Y + sigma (x - b') (``_shrink``, one batched eigensolve of small Gram
    matrices), then b <- b + tau P(Y) and b' = 2 b_new - b_old.  The step tau
    is the target's warm-start distance c (at least 10 tol) and
    sigma = 0.99 / c.  The iterates are measured every 16 iterations and at
    the last one by the values-only SVD of x - b, and the best point is
    tracked.

    x is one (R, C) matrix or a stack (S, R, C) of targets solved at once,
    each with its own steps and best point, so each result is that of the
    target's own call.  The subspace is a concrete algebra or a
    ``_TensorSpan``, whose ``project`` maps a stack (S, R, C) to its
    HS-orthogonal projections.

    A target leaves the stack on the first of these that holds:
      tol    its residual fell to tol;
      gap    a checkpoint's dual bound lo gives best - lo <= 1e-6 best.  At
             k = 0 (the warm start) lo is the ``_best_point_dual`` of the
             residuals x - best.  At the later checkpoints it is the larger
             of that and the ``_span_dual`` of the dual iterate Y;
      cap    it ran all iters iterations.
    The duals feed only these stops, never a returned value.

    Returns the witnesses (shaped like x), the distances ||x - b||, the
    iteration each target stopped at and its stop reason: floats, ints and
    strings for one matrix, (S,) arrays for a stack.  The iteration is 0
    when the warm start decided it (its residual was within tol, or the
    k = 0 dual closed its gap), and then no iteration ran for it.  Each
    distance is the values-only SVD of x - b for the returned b, as
    ``opnorm`` takes it, so opnorm(x - b) reproduces it bit for bit.
    """
    X, project = np.reshape(x, (-1,) + np.shape(x)[-2:]), span.project

    def stops(s, best_s, lo):
        """Index into _STOPS of each live target's stop, 2 where it goes on."""
        return np.where(s <= tol, 0, np.where(best_s - lo <= _MARGIN * best_s, 1, 2))

    best = project(X)  # k = 0, the warm start
    best_val = np.linalg.svd(X - best, compute_uv=False)[:, 0]
    stop = stops(best_val, best_val, _best_point_dual(X - best, project))
    c = np.maximum(best_val, 10 * tol)
    at = np.where(stop < 2, 0, iters)
    live = np.flatnonzero(stop == 2)
    Xl, cl, y = X[live], c[live], best[live]
    Y = np.zeros(Xl.shape, complex)
    y_bar = y
    for k in range(1, iters + 1):
        if not len(live):
            break
        Y += (_PD_STEP / cl)[:, None, None] * (Xl - y_bar)
        Y = _shrink(Y)
        y_new = y + cl[:, None, None] * project(Y)
        y_bar, y = 2.0 * y_new - y, y_new
        if k % _PD_CHECK and k != iters:
            continue
        s = np.linalg.svd(Xl - y, compute_uv=False)[:, 0]
        better = s < best_val[live]
        best[live[better]], best_val[live[better]] = y[better], s[better]
        lo = _span_dual(Y, Xl - best[live], project)
        lo = np.maximum(lo, _best_point_dual(Xl - best[live], project))
        why = stops(s, best_val[live], lo)
        keep = why == 2
        if not keep.all():
            stop[live[~keep]], at[live[~keep]] = why[~keep], k
            live, Xl, cl, y, y_bar, Y = (live[keep], Xl[keep], cl[keep], y[keep],
                                         y_bar[keep], Y[keep])
    stop = np.array(_STOPS)[stop]
    if np.ndim(x) == 3:
        return best, best_val, at, stop
    return best[0], float(best_val[0]), int(at[0]), str(stop[0])


def span_distance_lower(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan
                        ) -> float | np.ndarray:
    """Certified lower bound for dist_op(x, span) by trace-norm duality,
    for a concrete algebra or a ``_TensorSpan`` (through its ``project``).

    The HS-orthogonal residual r = x - P(x) vanishes on the subspace, so it
    is the dual Y of ``_span_dual`` with R = r: lo = ||r||_HS^2 / ||r||_1
    (``_trace_dual(r, r)``).  x is one matrix (a float is returned) or a
    stack (S, R, C) (an (S,) array): one projection and one batched
    values-only SVD for the trace norms.
    """
    X = np.reshape(x, (-1,) + np.shape(x)[-2:])
    r = X - span.project(X)
    lb = _trace_dual(r, r)
    return float(lb[0]) if np.ndim(x) == 2 else lb


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_unit_ball(A: ConcreteAlgebra, seed: int, count: int) -> np.ndarray:
    """Deterministic sample of the unit ball of a concrete algebra A, the
    points of the sampled lower end of ``kk_distance``, as one
    (S, N, N) stack in this order: the dim operator-normalised basis
    elements, count random self-adjoint contractions (spectral clipping),
    and count random unitaries exp(i h) of A (relative to its support),
    exponentiated only when there are any."""
    # one draw, in stream order the self-adjoint samples and then the
    # generators of the unitaries
    h = A.random_selfadjoints(rng_for(seed, "unit-ball", A.ambient_dim, A.dim), 2 * count)
    sa, h = h[:count], h[count:]
    parts = [A.normalized_basis, clip_spectrum(sa, -1.0, 1.0)]
    if count:
        nrm = opnorms(h)[:, None, None]
        parts.append(A.unitary_from(np.pi * 0.5 * (h / np.where(nrm > 1e-14, nrm, 1.0))))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def one_sided_bound(A: ConcreteAlgebra, B: ConcreteAlgebra) -> float:
    """Proven upper bound for the one-sided constant sup_{x in A_1} d(x, B_1).

    E_B, the HS projection onto B, is cpc and fixes B, so it maps A's unit
    ball into B's, and d(x, B_1) <= ||x - E_B(x)||: the constant is at most
    ||(id - E_B)|_A||_cb, and at most 1, since 0 lies in B_1.  That cb norm
    is ``cb_bracket``'s outward-rounded hi of the map on A's matrix units U
    (``A.structure()``), e_ij -> U_ij - B.project(U_ij), plus two margins:
      - project's rounding: an image's coefficients and combination err by
        at most (N^2 + dim B) eps sqrt(dim B) ||U_ij||_HS, its subtraction by
        eps ||U_ij||_HS, a cb norm moves by at most the sum over the images,
        and the margin doubles it: 2 (N^2 + dim B + 2) eps sqrt(dim B)
        sum_ij ||U_ij||_HS;
      - the units: cb_bracket reads U as exact matrix units of A.  To first
        order, d units with relation residual delta (``BlockStructure.
        residual``) that lie within r of A (their largest HS residual) are
        each within kappa = 2 (delta + r) in norm of exact units pi(e_ij) of
        A.  pi is a complete isometry onto A, so the cb norm sought is that
        of (id - E_B) pi, which differs from the bracketed map by
        (id - E_B) (pi - U), of cb norm at most 2 d kappa = 4 d (delta + r),
        as ||id - E_B||_cb <= 2.
    """
    struct = A.structure()
    U = struct.matrix_units
    units = 4.0 * len(U) * (struct.residual + float(A.residual(U).max()))
    rounding = 2.0 * (A.ambient_dim ** 2 + B.dim + 2) * _EPS * np.sqrt(B.dim)
    return min(1.0, cb_bracket(LinMap(A, U - B.project(U)))[1] + units
               + float(rounding * np.linalg.norm(U, axis=(1, 2)).sum()))


def kk_distance(A: ConcreteAlgebra, B: ConcreteAlgebra, seed: int,
                samples: int) -> DistanceInterval:
    """Two-sided bracket for the Hausdorff distance between unit balls.

    hi is proven: the one-sided constants are ``one_sided_bound`` of (A, B)
    and of (B, A).  lo is sampled: each direction draws
    ``sample_unit_ball(source, seed, samples)``, lo is the largest HS dual
    bound (``span_distance_lower``) of those points against the other
    algebra, over both directions, capped at hi.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, not {samples}")
    lo = max(float(span_distance_lower(sample_unit_ball(S, seed, samples), T).max())
             for S, T in ((A, B), (B, A)))
    gamma_ab, gamma_ba = one_sided_bound(A, B), one_sided_bound(B, A)
    return DistanceInterval(lo=min(lo, max(gamma_ab, gamma_ba)), gamma_ab=gamma_ab,
                            gamma_ba=gamma_ba)


# ---------------------------------------------------------------------------
# tensor-amplified witnesses
# ---------------------------------------------------------------------------

class _TensorSpan:
    """Span of span(B) (x) M_n inside M_{Nn}, optionally as a 1 x r block row
    of such spaces for rectangular witnesses.  It is spanned by kron(b, e_ij)
    in each slot, so its projection delegates to ``B.project`` on the
    r n^2 N x N slices (fixed slot and i, j), a reshape and a transpose away.
    """

    def __init__(self, B: ConcreteAlgebra, n: int, r: int):
        self.B, self.n, self.r = B, n, r

    def project(self, m: np.ndarray) -> np.ndarray:
        N, n, r = self.B.ambient_dim, self.n, self.r
        # m[s, a, i, slot, c, j] is entry (a, c) of slice (slot, i, j)
        slices = m.reshape(-1, N, n, r, N, n).transpose(0, 2, 3, 5, 1, 4)
        return self.B.project(slices).transpose(0, 4, 1, 2, 5, 3).reshape(m.shape)


# the iteration budget of each tensor-lift witness solve
_LIFT_ITERS = 400


def tensor_lift(x: np.ndarray, B: ConcreteAlgebra, n: int) -> tuple:
    """A witness in span(B) (x) M_n for an element x of the unit ball of
    A (x) M_n, an Nn x rNn block row of r slots: ``nearest_in_span``'s four
    values for x, the witness, its distance ||x - b||, the iteration it
    stopped at and its stop reason, so a distance proven to 1e-6 shows as
    ``gap`` and one left at the iteration budget as ``cap``.  The distance is
    at most 2 gamma + gamma^2 when A is within gamma of B.
    """
    x = np.asarray(x, dtype=complex)
    N = B.ambient_dim
    rows, cols = x.shape
    if rows != N * n or cols % (N * n):
        raise ValueError("element shape incompatible with the amplification")
    return nearest_in_span(x, _TensorSpan(B, n, cols // (N * n)), iters=_LIFT_ITERS, tol=1e-13)
