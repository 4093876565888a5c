"""Operator-norm geometry between subalgebras: the Hausdorff distance
between unit balls and tensor-amplified witness lifts.

The distance between unit balls is bracketed from both sides, and both ends
are proven.  Each one-sided constant is at most the cb norm of id - E_B on
A, E_B the HS projection onto B, which ``cpmaps.cb_bracket`` bounds from
above (``one_sided_bound``), and at least the trace-norm duality bound
Re<Y, x> - ||E_B Y||_1 at any ||Y||_1 <= 1 and x in A's unit ball, which
``trace_dual_lower`` reads at a few deterministic points.  One solver,
``nearest_in_span``, serves the witness search of ``tensor_lift``: a
Chambolle-Pock primal-dual iteration over a span by eigensolves of small
Gram matrices, which returns its stop reason.  A witness in a unit ball
needs no solve: the HS projection onto a C*-subalgebra is its conditional
expectation, which is cpc, so it maps the unit ball into the subalgebra's.
``kk_distance`` returns four numbers: the bracket and the two one-sided
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra
from .cpmaps import _EPS, LinMap, cb_bracket
# opnorm has no caller here; it stays bound because perfbench's tracer test
# reads geometry.opnorm to check that wrappers reach names a module rebinds
from .linalg import dagger, opnorm, opnorms, partial_isometry_polar  # noqa: F401

__all__ = [
    "DistanceInterval",
    "nearest_in_span",
    "kk_distance",
    "one_sided_bound",
    "trace_dual_lower",
    "tensor_lift",
]


@dataclass
class DistanceInterval:
    """Two-sided bracket for the unit-ball Hausdorff distance d(A, B): lo is
    a proven lower bound, and the one-sided constants gamma_ab (A in B) and
    gamma_ba (B in A) are proven upper bounds of at most 1; hi is the larger
    constant."""

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


# relative margin of the stopping rule: the solve stops once its best value
# is within it of a proven lower bound (gap)
_MARGIN = 1e-6
# the residual at which the solve stops (tol)
_TOL = 1e-13
# the iterates are measured every _PD_CHECK steps; the steps are tau = c and
# sigma = _PD_STEP / c: tau sigma below one keeps the iteration convergent,
# P having norm one
_PD_CHECK = 16
_PD_STEP = 0.99


def nearest_in_span(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan, *, iters: int) -> tuple:
    """Minimize ||x - b||_op over b in the given subspace.

    A Chambolle-Pock primal-dual iteration on the saddle problem
    min_{b in S} max_{||Y||_1 <= 1} Re<Y, x - b>, warm started at the HS
    projection of x, with dual Y = 0: Y <- the trace-norm ball projection of
    Y + sigma (x - b') (``_shrink``, one eigensolve of a small Gram matrix),
    then b <- b + tau P(Y) and b' = 2 b_new - b_old.  The step tau is the
    warm-start distance c (at least 10 _TOL) and sigma = 0.99 / c.  The
    iterates are measured every 16 iterations and at the last one by the
    values-only SVD of x - b, and the best point is tracked.

    x is one (R, C) matrix, solved as a (1, R, C) stack.  The subspace is a
    concrete algebra or a ``_TensorSpan``, whose ``project`` maps a stack
    (S, R, C) to its HS-orthogonal projections.

    The solve stops on the first of these that holds:
      tol    the residual fell to _TOL = 1e-13;
      gap    a checkpoint's dual bound lo gives best - lo <= 1e-6 best.  At
             k = 0 (the warm start) lo is the ``_best_point_dual`` of the
             residual x - best.  At the later checkpoints it is the larger
             of that and the ``_span_dual`` of the dual iterate Y;
      cap    it ran all iters iterations.
    The duals feed only these stops, never a returned value.

    Returns the witness, its distance ||x - b||, the iteration the solve
    stopped at and its stop reason.  The iteration is 0 when the warm start
    decided it (its residual was within _TOL, or the k = 0 dual closed its
    gap), and then no iteration ran.  The distance is the values-only SVD of
    x - b for the returned b, as ``opnorm`` takes it, so opnorm(x - b)
    reproduces it bit for bit.
    """
    X, project = np.asarray(x)[None], span.project

    def stop(s, best_val, lo):
        """The stop reason, None where the solve goes on."""
        return "tol" if s <= _TOL else "gap" if best_val - lo <= _MARGIN * best_val else None

    best = project(X)  # k = 0, the warm start
    best_val = float(np.linalg.svd(X - best, compute_uv=False)[0, 0])
    why = stop(best_val, best_val, float(_best_point_dual(X - best, project)[0]))
    if why:
        return best[0], best_val, 0, why
    c = max(best_val, 10 * _TOL)
    y = y_bar = best
    Y = np.zeros(X.shape, complex)
    for k in range(1, iters + 1):
        Y += _PD_STEP / c * (X - y_bar)
        Y = _shrink(Y)
        y_new = y + c * project(Y)
        y_bar, y = 2.0 * y_new - y, y_new
        if k % _PD_CHECK and k != iters:
            continue
        s = float(np.linalg.svd(X - y, compute_uv=False)[0, 0])
        if s < best_val:
            best, best_val = y, s
        lo = max(float(_span_dual(Y, X - best, project)[0]),
                 float(_best_point_dual(X - best, project)[0]))
        why = stop(s, best_val, lo)
        if why:
            return best[0], best_val, k, why
    return best[0], best_val, iters, "cap"


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


# the trace-dual lo: its starts along the directions id - E_T stretches most,
# the duals each step keeps, and its steps
_DUAL_DIRECTIONS = 8
_DUAL_KEEP = 8
_DUAL_STEPS = 2


def trace_dual_lower(S: ConcreteAlgebra, T: ConcreteAlgebra) -> float:
    """Proven lower bound for sup_{x in S_1} d(x, T_1) by trace-norm duality:
    for ||Y||_1 <= 1 and b in T_1, ||x - b|| >= Re<Y, x - b> >= Re<Y, x> -
    sqrt(N) ||E_T Y||_HS, E_T the HS projection onto T, N the ambient size.
    Each x is a combination of S's basis of norm at most 1, so the bound
    reads nothing of S but its span.

    The starts are S's normalised basis and the combinations of S's basis Q
    along the top 8 eigenvectors of the Gram matrix of R = Q - E_T Q (the
    right singular directions of id - E_T on S), scaled to norm 1.  Each of
    two steps sets Y = r / ||r||_1 for r = x - E_T x, keeps the 8 Y with the
    largest ||E_S Y||_1 (ranked only where there are more than 8, as at the
    first step), and certifies the next x = E_S(W), W the partial isometry
    of E_S Y, all kept ones from one batched SVD (``partial_isometry_polar``),
    scaled to norm at most 1, so that Re<Y, x> is ||E_S Y||_1 = sup Re<Y, S_1>
    up to the singular values W drops.  The largest value less a margin,
    floored at 0, is returned.  The margin, eps the machine epsilon, is
    twice the sum of project's rounding as in ``one_sided_bound`` ((N^2 +
    dim S) eps sqrt(dim S) sqrt(N) on x, twice, as it moves the norm that
    scales x, and (N^2 + dim T) eps sqrt(dim T) on E_T Y, times sqrt(N)),
    the trace-norm SVD's backward error (2 N eps ||r||_HS per singular
    value, so ||Y||_1 <= 1 + (3 N + 1) sqrt(N) eps, and (2 N + 1) sqrt(N)
    eps on the norm that scales x) and the errors of the inner product and
    the HS norm (N^(5/2) eps each).
    """
    Q, N = S.basis, S.ambient_dim
    R = Q - T.project(Q)
    Rf = R.reshape(S.dim, -1)
    C = np.linalg.eigh(Rf.conj() @ Rf.T)[1][:, ::-1][:, :_DUAL_DIRECTIONS].T
    X = (C @ Q.reshape(S.dim, -1)).reshape(-1, N, N)
    r = np.concatenate([R / S.basis_norms[:, None, None],
                        (C @ Rf).reshape(-1, N, N) / opnorms(X)[:, None, None]])
    best = 0.0
    for step in range(_DUAL_STEPS):
        if step:  # the residuals of the points the last step certified
            r = x - T.project(x)
        nrm = np.linalg.svd(r, compute_uv=False).sum(axis=1)
        Y = r / np.where(nrm > 0.0, nrm, 1.0)[:, None, None]
        P = S.project(Y)
        if len(P) > _DUAL_KEEP:
            keep = np.argsort(-np.linalg.svd(P, compute_uv=False).sum(axis=1),
                              kind="stable")[:_DUAL_KEEP]
            Y, P = Y[keep], P[keep]
        x = S.project(partial_isometry_polar(P))
        x /= np.maximum(opnorms(x), 1.0)[:, None, None]
        value = (np.einsum("sij,sij->s", Y.conj(), x).real
                 - np.sqrt(N) * np.linalg.norm(T.project(Y), axis=(1, 2)))
        best = max(best, float(value.max()))
    margin = 2.0 * _EPS * np.sqrt(N) * (2.0 * (N * N + S.dim) * np.sqrt(S.dim)
                                        + (N * N + T.dim) * np.sqrt(T.dim) + 2 * N * N + 5 * N + 2)
    return max(0.0, best - float(margin))


def kk_distance(A: ConcreteAlgebra, B: ConcreteAlgebra) -> DistanceInterval:
    """Two-sided bracket for the Hausdorff distance between unit balls, both
    ends proven: the one-sided constants are ``one_sided_bound`` of (A, B)
    and of (B, A), and lo is the larger ``trace_dual_lower`` of the two
    directions, capped at hi."""
    lo = max(trace_dual_lower(A, B), trace_dual_lower(B, A))
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
    return nearest_in_span(x, _TensorSpan(B, n, cols // (N * n)), iters=_LIFT_ITERS)
