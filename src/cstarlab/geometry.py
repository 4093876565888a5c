"""Operator-norm geometry between subalgebras: the Hausdorff distance
between unit balls and tensor-amplified witness lifts.

The distance between unit balls is estimated from both sides.  Upper bounds
come from explicit witnesses of the convex problem min ||x - b|| over b in a
subspace (optionally intersected with the unit ball); lower bounds come from
trace-norm dual certificates, all read by one function, ``_trace_dual``.  One
solver, ``nearest_in_span``, serves every witness search: one Chambolle-Pock
primal-dual iteration that advances a stack of targets together by batched
eigensolves of small Gram matrices, each target leaving with its stop reason.
``kk_distance`` solves both directions in one call, as two families with
their own warm starts, spans and floors that share one stack, one eigensolve
per iteration and the checkpoints, and returns four numbers: the bracket and
the two one-sided constants.  Suprema over the unit ball are sampled by
``sample_unit_ball``, the only unit-ball sampler, so the reported hi is an
honest sampled estimate, not a proof of the supremum (the unit-ball suprema
of ``averaging`` are proven by ``cpmaps.cb_bracket`` instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra
# opnorm has no caller here; it stays bound because perfbench's tracer test
# reads geometry.opnorm to check that wrappers reach names a module rebinds
from .linalg import clip_spectrum, dagger, opnorm, opnorms, rng_for  # noqa: F401

__all__ = [
    "DistanceInterval",
    "nearest_in_span",
    "span_distance_lower",
    "kk_distance",
    "tensor_lift",
    "sample_unit_ball",
]


@dataclass
class DistanceInterval:
    """Two-sided bracket for the unit-ball Hausdorff distance d(A, B), with
    the sampled one-sided constants gamma_ab (A in B) and gamma_ba (B in A);
    hi is the larger constant."""

    lo: float
    gamma_ab: float
    gamma_ba: float

    @property
    def hi(self) -> float:
        return max(self.gamma_ab, self.gamma_ba)

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi + 1e-12 and self.hi <= 2.0 + 1e-9):
            raise ValueError("distance interval must satisfy 0 <= lo <= hi <= 2")


# ---------------------------------------------------------------------------
# convex witness search
# ---------------------------------------------------------------------------

def _shrink(z: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """Shrink the singular values s of each matrix of a stack z to
    max(s - theta, 0), with s read from one eigensolve of its smaller Gram
    matrix (z* z for tall or square z, z z* for wide z).  theta is the shift
    that projects s onto the l1 unit ball, the largest of the candidates
    (s_1 + ... + s_j - 1) / j over the sorted s_1 >= s_2 >= ... (which the
    eigensolve gives) and 0, so z goes to its projection onto the
    trace-norm unit ball and a matrix with sum(s) <= 1 is kept as is; where
    the (S,) array t is not nan, theta is t instead, the prox of t ||.||_1."""
    wide = z.shape[-2] < z.shape[-1]
    lam, w = np.linalg.eigh(z @ dagger(z) if wide else dagger(z) @ z)
    s = np.sqrt(np.maximum(lam, 0.0))
    excess = np.cumsum(s[:, ::-1], axis=1) - 1.0
    theta = np.maximum((excess / np.arange(1, s.shape[1] + 1)).max(axis=1), 0.0)
    keep = excess[:, -1] <= 0.0
    if t is not None:
        theta, keep = np.where(np.isnan(t), theta, t), keep & np.isnan(t)
    f = np.maximum(1.0 - theta[:, None] / np.where(s > 0.0, s, 1.0), 0.0)
    m = dagger(w)  # w*, then w diag(f) w*: w is scaled in place and freed
    w *= f[:, None, :]  # early, so that few stacks are alive at the peak
    m = w @ m
    del w
    return np.where(keep[:, None, None], z, m @ z if wide else z @ m)


def _into_ball(y: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by its operator norm where that
    exceeds one (read from eigvalsh(y* y))."""
    gram = y.conj().swapaxes(1, 2) @ y
    nrm = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    return y / np.maximum(nrm, 1.0)[:, None, None]


def _span_dual(Y: np.ndarray, R: np.ndarray, project) -> np.ndarray:
    """Lower bounds for dist(x, span) from any Y and residuals R = x - b, b in
    the span: Y - P(Y) vanishes on the span, so Re<Y - P(Y), R> =
    Re<Y - P(Y), x - b'> <= ||Y - P(Y)||_1 ||x - b'|| for every b' in it and
    lo = Re<Y - P(Y), R> / ||Y - P(Y)||_1 (0 where it vanishes).  R rather
    than x keeps the rounding relative to the distance."""
    return _trace_dual(Y - project(Y), R)


def _ball_dual(Y: np.ndarray, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Lower bounds for dist(x, span ∩ unit ball) from ||Y||_1 <= 1 and
    W = P(Y - Z) + Z for any Z: for b' in the span with ||b'|| <= 1,
    Re<Y, b'> = Re<P(Y), b'> = Re<W, b'> <= ||W||_1, as Z - P(Z) vanishes on
    the span, so ||x - b'|| >= Re<Y, x - b'> >= Re<Y, x> - ||W||_1."""
    inner = np.einsum("sij,sij->s", Y.conj(), X).real
    return inner - np.linalg.svd(W, compute_uv=False).sum(axis=1)


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


# relative margin of the stopping rules: a target leaves once its best value
# is within it of a proven lower bound (gap) or below a floor by more than it
_MARGIN = 1e-6
_STOPS = ("tol", "gap", "floor", "cap")
# span solves measure their iterates every _PD_CHECK steps, ball solves at
# k = 1, 2, 4, 8, ...; the steps are tau = c and sigma = _PD_STEP / c, or
# sigma_Y = 0.85 / c and sigma_Z = 0.14 / c with the ball: tau times the sum
# of the sigmas below one keeps the iteration convergent, P having norm one
_PD_CHECK = 16
_PD_STEP = 0.99
_PD_BALL = (0.85, 0.14)


def nearest_in_span(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan,
                    ball: bool = False, *, iters: int, tol: float = 1e-12,
                    floor: float | None = None) -> tuple:
    """Minimize ||x - b||_op over b in the given subspace (intersected with
    the operator-norm unit ball when requested).

    A Chambolle-Pock primal-dual iteration on the saddle problem
    min_{b in S} max_{||Y||_1 <= 1} Re<Y, x - b>, warm started at the HS
    projection of x (rescaled into the ball), with dual Y = 0: Y <- the
    trace-norm ball projection of Y + sigma (x - b'), then
    b <- b + tau P(Y) and b' = 2 b_new - b_old.  The step tau is the target's
    warm-start distance c (at least 10 tol) and sigma = 0.99 / c.  The ball
    ||b|| <= 1 adds a second dual Z, which starts at 0: Z <- Z + sigma_Z b'
    with its singular values shrunk by sigma_Z, and b <- b + tau P(Y - Z),
    with sigma_Y = 0.85 / c and sigma_Z = 0.14 / c.  Both shrinks come from
    one batched eigensolve of small Gram matrices (``_shrink``).  The iterates
    are measured at the checkpoints by the values-only SVD of x - b, after
    dividing b by its norm where that exceeds one in a ball solve, and the
    best point is tracked: every 16 iterations for span solves, at
    k = 1, 2, 4, 8, ... for ball solves, and at the last iteration.

    x is one (R, C) matrix or a stack (S, R, C) of targets solved at once,
    each with its own steps and best point.  The subspace is a concrete
    algebra or a ``_TensorSpan``, whose ``project`` maps a stack (S, R, C) to
    its HS-orthogonal projections.  Tuples x, span and floor solve families
    of one matrix shape, one entry each (floor None floors none of them):
    each takes its own warm start, then all live targets share one stack,
    eigensolve and checkpoints, each family projected by its own span and
    floored by its own duals, so each result is bit for bit that of the
    family's own call.

    A target leaves the stack on the first of these that holds:
      tol    its residual fell to tol;
      gap    a checkpoint's dual bound lo gives best - lo <= 1e-6 best.  At
             k = 0 (the warm start) lo is the ``_best_point_dual`` of the
             residuals x - best.  At the later checkpoints it is the largest
             of that, the ``_span_dual`` of the dual iterate Y and, with the
             ball, the ball bound Re<Y, x> - ||P(Y - Z) + Z||_1
             (``_ball_dual``).  The first two bound the distance to the span,
             so also to its unit ball, the third the distance to the ball
             itself: a ball solve whose constraint binds closes its gap too;
      floor  its best value is below floor (1 - 1e-6), where ``floor`` is a
             proven lower bound for the largest distance, raised to the
             largest lo at each checkpoint, k = 0 included: only the maximum
             is asked for, and the target setting the floor has best >=
             distance >= floor;
      cap    it ran all iters iterations.
    The duals feed only these stops and the floor, never a returned value.

    Returns the witnesses (shaped like x), the distances ||x - b||, the
    iteration each target stopped at and its stop reason: floats, ints and
    strings for one matrix, (S,) arrays for a stack; for families, a tuple of
    these per family.  The iteration is 0 when the warm start decided it (its
    residual was within tol, or the k = 0 dual closed its gap or put it below
    the floor), and then no iteration ran for it.  Each distance is the
    values-only SVD of x - b for the returned b, as ``opnorm`` takes it, so
    opnorm(x - b) reproduces it bit for bit.
    """
    families = isinstance(x, tuple)
    xs, spans, floors = (x, span, floor) if families else ((x,), (span,), (floor,))
    floors = (None,) * len(xs) if floors is None else floors
    xs, floors = [np.reshape(v, (-1,) + np.shape(v)[-2:]) for v in xs], np.array(floors, float)
    cuts = np.cumsum([0] + [len(X) for X in xs])
    fam = np.repeat(np.arange(len(xs)), np.diff(cuts))  # each target's family

    def stops(s, best_s, lo, f):
        """Index into _STOPS of each live target's stop, 3 where it goes on; lo,
        the checkpoint's dual bound, raises the floor of each target's family f."""
        has = ~np.isnan(floors[f])
        np.maximum.at(floors, f[has], lo[has])
        below = best_s < floors[f] * (1.0 - _MARGIN)
        return np.where(s <= tol, 0, np.where(best_s - lo <= _MARGIN * best_s, 1,
                                              np.where(below, 2, 3)))

    def grouped(f):  # the projection of a stack of the (sorted) families f, by family
        e = np.searchsorted(f, np.arange(len(spans) + 1))
        ps = [(S.project, a, b) for S, a, b in zip(spans, e, e[1:]) if b > a]
        return ps[0][0] if len(ps) == 1 else lambda m: np.concatenate([p(m[a:b]) for p, a, b in ps])

    best = np.empty((cuts[-1],) + xs[0].shape[1:], dtype=complex)
    best_val, stop = np.empty(cuts[-1]), np.empty(cuts[-1], dtype=int)
    for f, X in enumerate(xs):  # each family's warm start, k = 0
        part, project = slice(cuts[f], cuts[f + 1]), spans[f].project
        best[part] = _into_ball(project(X)) if ball else project(X)
        best_val[part] = np.linalg.svd(X - best[part], compute_uv=False)[:, 0]
        stop[part] = stops(best_val[part], best_val[part],
                           _best_point_dual(X - best[part], project), fam[part])
    c = np.maximum(best_val, 10 * tol)
    at = np.where(stop < 3, 0, iters)
    live = np.flatnonzero(stop == 3)
    Xl = np.concatenate([X[stop[a:b] == 3] for X, a, b in zip(xs, cuts, cuts[1:])])
    cl, y, project = c[live], best[live], grouped(fam[live])
    YZ = np.zeros(((1 + ball) * len(Xl),) + Xl.shape[1:], complex)  # Y, over Z with the ball
    y_bar, check = y, 1 if ball else _PD_CHECK
    for k in range(1, iters + 1):
        if not (n := len(live)):
            break
        if ball:  # Y and Z from one eigensolve; nan asks for Y's projection
            sy, sz = (f / cl for f in _PD_BALL)
            YZ[:n] += sy[:, None, None] * (Xl - y_bar)
            YZ[n:] += sz[:, None, None] * y_bar
            YZ = _shrink(YZ, np.concatenate([np.full(n, np.nan), sz]))
            Y, Z = YZ[:n], YZ[n:]
        else:
            YZ += (_PD_STEP / cl)[:, None, None] * (Xl - y_bar)
            Y = YZ = _shrink(YZ, None)
        y_new = y + cl[:, None, None] * project(Y - Z if ball else Y)
        y_bar, y = 2.0 * y_new - y, y_new
        if k != check and k != iters:
            continue
        check = 2 * check if ball else check + _PD_CHECK
        point = _into_ball(y) if ball else y
        s = np.linalg.svd(Xl - point, compute_uv=False)[:, 0]
        better = s < best_val[live]
        best[live[better]], best_val[live[better]] = point[better], s[better]
        del point  # freed before the duals, for a lower peak memory
        lo = _span_dual(Y, Xl - best[live], project)
        if ball:
            lo = np.maximum(lo, _ball_dual(Y, project(Y - Z) + Z, Xl))
        lo = np.maximum(lo, _best_point_dual(Xl - best[live], project))
        why = stops(s, best_val[live], lo, fam[live])
        keep = why == 3
        if not keep.all():
            stop[live[~keep]], at[live[~keep]] = why[~keep], k
            live, Xl, cl, y, y_bar = live[keep], Xl[keep], cl[keep], y[keep], y_bar[keep]
            YZ = YZ[np.tile(keep, len(YZ) // n)]
            project = grouped(fam[live]) if live.size else None
    stop = np.array(_STOPS)[stop]
    out = [(best[a:b], best_val[a:b], at[a:b], stop[a:b]) if np.ndim(v) == 3
           else (best[a], float(best_val[a]), int(at[a]), str(stop[a]))
           for v, a, b in zip(x if families else (x,), cuts, cuts[1:])]
    return tuple(out) if families else out[0]


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
    points of the sampled distance brackets (``kk_distance``), as one
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

# the iteration budget of each sampled distance bracket's ball solves
_DIST_ITERS = 200


def kk_distance(A: ConcreteAlgebra, B: ConcreteAlgebra, seed: int,
                samples: int) -> DistanceInterval:
    """Two-sided bracket for the Hausdorff distance between unit balls.

    Each direction draws ``sample_unit_ball(source, seed, samples)`` and
    solves each sample's distance to the target's unit ball: both directions
    in one ``nearest_in_span`` call, one family each, each solved as a call
    on its family alone would be.  A family's floor is the largest of its
    samples' HS dual bounds (``span_distance_lower``), so samples proven
    below the supremum stop early.  Each one-sided constant is its family's
    largest witness distance, hi the larger constant and lo the larger
    floor, capped at hi.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, not {samples}")
    X = sample_unit_ball(A, seed, samples), sample_unit_ball(B, seed, samples)
    floors = float(span_distance_lower(X[0], B).max()), float(span_distance_lower(X[1], A).max())
    solved = nearest_in_span(X, (B, A), ball=True, iters=_DIST_ITERS, floor=floors)
    gamma_ab, gamma_ba = (float(ubs.max()) for _, ubs, _, _ in solved)
    hi = max(gamma_ab, gamma_ba)
    return DistanceInterval(lo=min(max(floors), hi), gamma_ab=gamma_ab, gamma_ba=gamma_ba)


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
