"""Operator-norm geometry between subalgebras: near inclusions, the
Hausdorff distance between unit balls, tensor-amplified witness lifts, and
the subspace equality criterion.

The distance between unit balls is estimated from both sides.  Upper bounds
come from explicit witnesses of the convex problem min ||x - b|| over b in a
subspace (optionally intersected with the unit ball); lower bounds come from
trace-norm dual certificates.  One solver, ``nearest_in_span``, serves every
witness search: it takes a stack of targets and advances them together by
batched eigensolves of small Gram matrices, so a near inclusion solves all of
its samples in one call.  Its ``ball`` argument selects the iteration: span
solves (``tensor_lift``'s lifts) run a Chambolle-Pock primal-dual iteration
whose dual iterate proves the value it converges to; ball solves
(``kk_distance`` and the solves of ``intertwine``) keep projected subgradient
descent until a dual for the ball constraint pays for its cost.  Each target
leaves the stack on its own, and the solver says when and why: ``tol`` (its
residual vanished), ``gap`` (a trace-norm dual proves its value to 1e-6
relative), ``floor`` (a near inclusion reports only the largest distance, so
a sample whose best value is below a proven lower bound of another stops
early) or ``cap`` (the iteration budget ran out).  The duals
are built at checkpoints from the top singular dyads of the residuals at the
best points (the best-point dual) and from the iteration's own dual: the
primal-dual iterate, or the sum of the subgradients.  The first checkpoint is
the warm start itself, k = 0, so a warm start that is already optimal is
certified and returned without an iteration.  Suprema over the unit ball are
sampled (basis elements, random self-adjoint contractions, random
unitaries), so the reported gamma_hi is an honest sampled estimate with
stored witnesses, not a proof of the supremum.  ``sample_unit_ball`` draws
those points on a concrete or a block algebra, and it is the only unit-ball
sampler: the sampled defect checks of ``cpmaps`` and ``averaging`` take
their points from it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from .certs import TOL_ALG, Certificate, ContradictionError, provenance_stamp
# opnorm has no caller here; it stays bound because perfbench's tracer test
# reads geometry.opnorm to check that wrappers reach names a module rebinds
from .linalg import clip_spectrum, opnorm, opnorms, rng_for  # noqa: F401

__all__ = [
    "SampleSpec",
    "Witness",
    "NearInclusionCert",
    "DistanceInterval",
    "nearest_in_ball",
    "nearest_in_span",
    "span_distance_lower",
    "near_inclusion",
    "kk_distance",
    "tensor_lift",
    "equality_criterion",
    "sample_unit_ball",
]


@dataclass(frozen=True)
class SampleSpec:
    """How to sample the unit ball of an algebra."""

    seed: int = 0
    n_selfadjoint: int = 64
    n_unitary: int = 64
    include_basis: bool = True
    iters: int = 500

    def to_dict(self) -> dict:
        return {"kind": "sample_spec", "schema_version": 1, "seed": self.seed,
                "n_selfadjoint": self.n_selfadjoint, "n_unitary": self.n_unitary,
                "include_basis": self.include_basis, "iters": self.iters}


@dataclass
class Witness:
    """Sample x, point b of the target, achieved ub = ||x - b|| and dual lb,
    with the solver's iterations and stop reason (see ``nearest_in_span``).
    A witness stopped on the floor may have ub below the supremum; its ub is
    still an achieved distance."""

    label: str
    x: np.ndarray
    b: np.ndarray
    ub: float
    lb: float
    stop: str = ""
    iters: int = 0


@dataclass
class NearInclusionCert:
    """Sampled certificate for A subset_gamma B."""

    gamma_hi: float
    gamma_lo: float
    witnesses: list[Witness]
    sample_spec: SampleSpec
    direction: str = ""
    n_samples: int = 0
    lo_witness: np.ndarray | None = None  # the sample attaining gamma_lo

    def __post_init__(self):
        if self.gamma_lo > self.gamma_hi + 1e-12:
            raise ValueError("inconsistent bracket: gamma_lo > gamma_hi")

    def recheck(self) -> float:
        """Worst deviation between stored witness bounds and recomputation."""
        ubs = [w.ub for w in self.witnesses]
        dev = np.abs(opnorms(np.array([w.x - w.b for w in self.witnesses])) - ubs)
        return float(dev.max(initial=0.0))


@dataclass
class DistanceInterval:
    """Two-sided bracket for the unit-ball Hausdorff distance d(A, B)."""

    lo: float
    hi: float
    lo_witness: np.ndarray | None
    hi_assignment: dict
    cert_ab: NearInclusionCert | None = None
    cert_ba: NearInclusionCert | None = None

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi + 1e-12 and self.hi <= 2.0 + 1e-9):
            raise ValueError("distance interval must satisfy 0 <= lo <= hi <= 2")


# ---------------------------------------------------------------------------
# convex witness search
# ---------------------------------------------------------------------------

def _top_dyad(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top singular vectors u, v and value s of each matrix of a stack r from
    one eigensolve of its smaller Gram matrix: r* r for tall or square r (top
    eigenvector v, u = r v / s), r r* for wide r (u, v = r* u / s).  Then
    Re tr((u v*)* r) = s even at a degenerate top: u v* is a subgradient."""
    # r* inline rather than by linalg.dagger, so the loop makes no traced call
    wide, rh = r.shape[-2] < r.shape[-1], r.conj().swapaxes(1, 2)
    a, ah = (rh, r) if wide else (r, rh)  # the Gram matrix is a* a
    lam, w = np.linalg.eigh(ah @ a)
    s, w = np.sqrt(np.maximum(lam[:, -1], 0.0)), w[:, :, -1]
    z = (a @ w[:, :, None])[:, :, 0] / np.where(s > 0.0, s, 1.0)[:, None]
    return (w, z, s) if wide else (z, w, s)


def _trace_ball(z: np.ndarray) -> np.ndarray:
    """Projection of each matrix of a stack onto the trace-norm unit ball:
    its singular values s, read from one eigensolve of the smaller Gram
    matrix as in ``_top_dyad``, shrink to max(s - theta, 0), theta the shift
    that projects s onto the l1 unit ball (read off the cumulative sums of s,
    which the eigensolve sorts).  A matrix with sum(s) <= 1 is kept as is."""
    wide, zh = z.shape[-2] < z.shape[-1], z.conj().swapaxes(1, 2)
    lam, w = np.linalg.eigh(z @ zh if wide else zh @ z)
    s = np.sqrt(np.maximum(lam, 0.0))
    desc = s[:, ::-1]
    excess = np.cumsum(desc, axis=1) - 1.0
    rank = np.arange(1, s.shape[1] + 1)
    rho = (desc * rank > excess).sum(axis=1)  # the largest j with s_j > theta_j
    theta = np.maximum(excess[np.arange(len(s)), rho - 1] / rho, 0.0)
    f = np.maximum(1.0 - theta[:, None] / np.where(s > 0.0, s, 1.0), 0.0)
    m = (w * f[:, None, :]) @ w.conj().swapaxes(1, 2)
    inside = (excess[:, -1] <= 0.0)[:, None, None]
    return np.where(inside, z, m @ z if wide else z @ m)


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
    return _trace_dual(G - project(G), R)


# relative margin of the stopping rules: a target leaves once its best value
# is within it of a proven lower bound (gap) or below a floor by more than it
_MARGIN = 1e-6
_STOPS = ("tol", "gap", "floor", "cap")
# the primal-dual iteration measures its iterates every _PD_CHECK steps;
# sigma tau = _PD_STEP < 1 keeps it convergent, P having norm one
_PD_CHECK = 16
_PD_STEP = 0.99


def nearest_in_span(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan,
                    ball: bool = False, iters: int = 500, tol: float = 1e-12,
                    *, floor: float | None = None) -> tuple:
    """Minimize ||x - b||_op over b in the given subspace (intersected with
    the operator-norm unit ball when requested).

    Both iterations warm start at the HS projection of x (rescaled into the
    ball) and track the best point; ``ball`` selects the iteration.

    Without the ball, a Chambolle-Pock primal-dual iteration on the saddle
    problem min_{b in S} max_{||Y||_1 <= 1} Re<Y, x - b>, with dual Y = 0 at
    the start: Y <- the trace-norm ball projection (``_trace_ball``) of
    Y + sigma (x - b'), then b <- b + tau P(Y) and b' = 2 b_new - b_old.  The
    step tau is the target's warm-start distance (at least 10 tol) and
    sigma = 0.99 / tau.  The iterates are measured at the checkpoints, every
    16 iterations and at the last one, by the values-only SVD of x - b.
    Y - P(Y) vanishes on the span, so the dual iterate bounds the distance
    from below directly.

    With the ball, projected subgradient descent: the subgradient of the
    operator norm at the residual is the top singular dyad u v*, HS-projected
    onto the subspace; steps shrink like c / sqrt(k), c the warm-start
    distance; each iterate is rescaled into the ball (its norm read from
    eigvalsh(y* y)) and measured.  Every iteration takes one batched
    Hermitian eigensolve of the residuals' smaller Gram matrices
    (``_top_dyad``): its top eigenpair is the objective and the next
    subgradient.  A dual for the ball needs a second dual variable for
    ||b|| <= 1; such a primal-dual version lowered sampled ``dist`` suprema by
    0.25-1.2% but took 1.65 times the solver time, so ball solves keep this
    iteration for now.

    x is one (R, C) matrix or a stack (S, R, C) of targets solved at once,
    each with its own steps and best point.  The subspace is a concrete
    algebra or a ``_TensorSpan``, whose ``project`` maps a stack (S, R, C) to
    its HS-orthogonal projections.

    A target leaves the stack on the first of these that holds:
      tol    its residual fell to tol (measured every subgradient iteration,
             at each primal-dual checkpoint);
      gap    a checkpoint's dual bound lo gives best - lo <= 1e-6 best.  At
             k = 0 (the warm start) lo is the ``_best_point_dual`` of the
             residuals x - best.  At the later checkpoints it is the larger
             of that and a ``_span_dual``: of the dual iterate Y (primal-dual,
             k = 16, 32, 48, ...) or of the sum of the subgradient dyads of
             iterations (k/2, k] (subgradient, k = 16, 32, 64, ...).  lo
             bounds the distance to the span, so also to its unit ball, from
             below: the value is within 1e-6 of the optimum either way (a
             ball solve whose constraint binds runs to the cap);
      floor  its best value is below floor (1 - 1e-6), where ``floor`` is a
             proven lower bound for the largest distance, raised to the
             largest lo at each checkpoint, k = 0 included: only the maximum
             is asked for, and the target setting the floor has best >=
             distance >= floor;
      cap    it ran all iters iterations.

    Returns the witnesses (shaped like x), the distances ||x - b||, the
    iteration each target stopped at and its stop reason: floats, ints and
    strings for one matrix, (S,) arrays for a stack.  The iteration is 0 when
    the warm start decided it (its residual was within tol, or the k = 0 dual
    closed its gap or put it below the floor), and then no iteration ran for
    it.  The distances are taken by the values-only SVD of ``opnorm``,
    so that opnorm(x - b) reproduces each bit for bit.
    """
    single = np.ndim(x) == 2
    X = np.reshape(x, (-1,) + np.shape(x)[-2:])
    project = span.project

    def rescale(y):
        if not ball:
            return y
        gram = y.conj().swapaxes(1, 2) @ y
        nrm = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        return y / np.maximum(nrm, 1.0)[:, None, None]

    def stops(s, best_s, lo=None):
        """Index into _STOPS of each live target's stop, 3 where it goes on;
        None when every target goes on."""
        is_tol = s <= tol
        is_gap = lo is not None and best_s - lo <= _MARGIN * best_s
        is_floor = floor is not None and best_s < floor * (1.0 - _MARGIN)
        if not (is_tol | is_gap | is_floor).any():
            return None
        return np.where(is_tol, 0, np.where(is_gap, 1, np.where(is_floor, 2, 3)))

    def dual(R, Y=None):
        """The larger of the checkpoint duals at residuals R, and the floor
        raised to the largest of them."""
        nonlocal floor
        lo = _best_point_dual(R, project)
        if Y is not None:
            lo = np.maximum(_span_dual(Y, R, project), lo)
        if floor is not None:
            floor = float(lo.max(initial=floor))
        return lo

    best = rescale(project(X))
    best_val = np.linalg.svd(X - best, compute_uv=False)[:, 0]
    c = np.maximum(best_val, 10 * tol)
    stop = stops(best_val, best_val, dual(X - best))
    stop = np.full(len(X), 3) if stop is None else stop
    at = np.where(stop < 3, 0, iters)
    live = np.flatnonzero(stop == 3)
    Xl, cl, y = X[live], c[live], best[live]
    if ball:  # the subgradient dyad u v* and the sum D of the recent ones
        D, check = np.zeros_like(Xl), 16
        if live.size:
            u, v, _ = _top_dyad(Xl - y)
    else:  # the dual iterate Y and the extrapolated point y_bar
        Y, y_bar = np.zeros_like(Xl), y
    for k in range(1, iters + 1):
        if not live.size:
            break
        if ball:
            dyad = u[:, :, None] * v.conj()[:, None, :]
            g = project(dyad)
            y = rescale(y + (cl / np.sqrt(k))[:, None, None] * g)
            u, v, s = _top_dyad(Xl - y)
            if k > check // 2:
                D += dyad
            at_check = k == check
        else:
            Y = _trace_ball(Y + (_PD_STEP / cl)[:, None, None] * (Xl - y_bar))
            y_new = y + cl[:, None, None] * project(Y)
            y_bar, y = 2.0 * y_new - y, y_new
            at_check = k % _PD_CHECK == 0 or k == iters
            if not at_check:
                continue
            s = np.linalg.svd(Xl - y, compute_uv=False)[:, 0]
        better = s < best_val[live]
        best[live[better]] = y[better]
        best_val[live[better]] = s[better]
        lo = None
        if at_check:
            lo = dual(Xl - best[live], D if ball else Y)
            if ball:
                check *= 2
                D[:] = 0.0
        why = stops(s, best_val[live], lo)
        if why is not None:
            keep = why == 3
            stop[live[~keep]], at[live[~keep]] = why[~keep], k
            live, Xl, cl, y = live[keep], Xl[keep], cl[keep], y[keep]
            if ball:
                u, v, D = u[keep], v[keep], D[keep]
            else:
                Y, y_bar = Y[keep], y_bar[keep]
    best_val = np.linalg.svd(X - best, compute_uv=False)[:, 0]
    stop = np.array(_STOPS)[stop]
    if single:
        return best[0], float(best_val[0]), int(at[0]), str(stop[0])
    return best, best_val, at, stop


def nearest_in_ball(x: np.ndarray, B: ConcreteAlgebra, iters: int = 500,
                    tol: float = 1e-12) -> tuple:
    """Witness in the unit ball of span(B) nearly closest to x in operator
    norm, with its certified distance ||x - b||, iterations and stop reason
    as ``nearest_in_span``; x may be a stack."""
    return nearest_in_span(x, B, ball=True, iters=iters, tol=tol)


def span_distance_lower(x: np.ndarray, span: ConcreteAlgebra | _TensorSpan
                        ) -> float | np.ndarray:
    """Certified lower bound for dist_op(x, span) by trace-norm duality,
    for a concrete algebra or a ``_TensorSpan`` (through its ``project``).

    The HS-orthogonal residual r = x - P(x), normalised in trace norm, is a
    dual functional vanishing on the subspace, so |tr(W* x)| = ||r||_HS^2 /
    ||r||_tr bounds the operator-norm distance from below.  x is one matrix
    (a float is returned) or a stack (S, R, C) (an (S,) array): one
    projection and one batched values-only SVD for the trace norms.
    """
    X = np.reshape(x, (-1,) + np.shape(x)[-2:])
    r = X - span.project(X)
    nrm_hs = np.linalg.norm(r, axis=(1, 2))
    # ||r||_tr >= ||r||_HS, so the floor only guards the zero residual
    nrm_tr = np.maximum(np.linalg.svd(r, compute_uv=False).sum(axis=1), 1e-14)
    lb = np.where(nrm_hs > 1e-14, nrm_hs ** 2 / nrm_tr, 0.0)
    return float(lb[0]) if np.ndim(x) == 2 else lb


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_unit_ball(A: ConcreteAlgebra | FDAlgebra,
                     spec: SampleSpec) -> list[tuple[str, np.ndarray]]:
    """Deterministic sample of the unit ball of A, a concrete or a block
    algebra: operator-normalised basis elements (the matrix units of a block
    algebra), random self-adjoint contractions (spectral clipping), and
    random unitaries exp(i h) of A (relative to its support), drawn and
    exponentiated only when spec.n_unitary > 0."""
    concrete = isinstance(A, ConcreteAlgebra)
    key = (A.ambient_dim, A.dim) if concrete else (A.d, A.dim_linear)
    out: list[tuple[str, np.ndarray]] = []
    if spec.include_basis:  # the matrix units of a block algebra have norm one
        basis = A.normalized_basis if concrete else A.units()
        out = [(f"basis[{idx}]", b) for idx, b in enumerate(basis)]
    # one draw, in stream order the self-adjoint samples and then the
    # generators of the unitaries
    h = A.random_selfadjoints(rng_for(spec.seed, "unit-ball", *key),
                              spec.n_selfadjoint + spec.n_unitary)
    sa, h = h[:spec.n_selfadjoint], h[spec.n_selfadjoint:]
    out += [(f"sa[{t}]", x) for t, x in enumerate(clip_spectrum(sa, -1.0, 1.0))]
    if spec.n_unitary:
        nrm = opnorms(h)[:, None, None]
        h = h / np.where(nrm > 1e-14, nrm, 1.0)
        out += [(f"u[{t}]", u) for t, u in enumerate(A.unitary_from(np.pi * 0.5 * h))]
    return out


# ---------------------------------------------------------------------------
# near inclusions and distance
# ---------------------------------------------------------------------------

def near_inclusion(A: ConcreteAlgebra, B: ConcreteAlgebra,
                   spec: SampleSpec | None = None, ball: bool = False) -> NearInclusionCert:
    """Sampled estimate of the one-sided constant sup dist(x, B) over the
    unit ball of A.  Witnesses are unconstrained in B by default (set ball
    for unit-ball witnesses as in the two-sided distance).  The HS dual
    bounds come first and gamma_lo is the solve's ``floor``: samples proven
    below the supremum stop early, so gamma_hi is decided by the samples
    that can set it.  The certificate keeps the 8 witnesses of largest
    distance, each with its solver stop reason and iterations."""
    spec = spec or SampleSpec()
    samples = sample_unit_ball(A, spec)
    wits: list[Witness] = []
    if samples:
        X = np.array([x for _, x in samples])
        lbs = span_distance_lower(X, B)
        bs, ubs, its, stops = nearest_in_span(X, B, ball=ball, iters=spec.iters,
                                              floor=float(lbs.max()))
        wits = [Witness(label=label, x=x, b=b, ub=float(ub), lb=float(lb),
                        stop=str(stop), iters=int(it))
                for (label, x), b, ub, lb, it, stop
                in zip(samples, bs, ubs, lbs, its, stops)]
    gamma_hi = max((w.ub for w in wits), default=0.0)
    lo_wit = max(wits, key=lambda w: w.lb, default=None)
    gamma_lo = lo_wit.lb if lo_wit else 0.0
    wits.sort(key=lambda w: -w.ub)
    return NearInclusionCert(gamma_hi=float(gamma_hi), gamma_lo=float(gamma_lo),
                             witnesses=wits[:8], sample_spec=spec,
                             direction="A->B", n_samples=len(samples),
                             lo_witness=lo_wit.x if lo_wit else None)


def kk_distance(A: ConcreteAlgebra, B: ConcreteAlgebra,
                spec: SampleSpec | None = None) -> DistanceInterval:
    """Two-sided bracket for the Hausdorff distance between unit balls.

    Witnesses are constrained to the unit ball of the target algebra, one
    sampled sup per direction; lo is the best dual lower bound over all
    samples, attained by lo_witness, hi the worst achieved witness distance.
    """
    spec = spec or SampleSpec()
    cert_ab = near_inclusion(A, B, spec=spec, ball=True)
    cert_ba = near_inclusion(B, A, spec=spec, ball=True)
    cert_ba.direction = "B->A"
    hi = max(cert_ab.gamma_hi, cert_ba.gamma_hi)
    lo_cert = cert_ab if cert_ab.gamma_lo >= cert_ba.gamma_lo else cert_ba
    assignment = {
        "direction_hi": "A->B" if cert_ab.gamma_hi >= cert_ba.gamma_hi else "B->A",
        "n_samples_per_direction": cert_ab.n_samples,
        "sample_spec": spec.to_dict(),
    }
    return DistanceInterval(lo=float(min(lo_cert.gamma_lo, hi)), hi=float(hi),
                            lo_witness=lo_cert.lo_witness,
                            hi_assignment=assignment, cert_ab=cert_ab, cert_ba=cert_ba)


# ---------------------------------------------------------------------------
# tensor-amplified witnesses
# ---------------------------------------------------------------------------

class _TensorSpan:
    """Span of span(B) (x) M_n inside M_{Nn}, optionally as a 1 x r block row
    of such spaces for rectangular witnesses.  It is spanned by kron(b, e_ij)
    in each slot, so its projection delegates to ``B.project`` on the
    r n^2 N x N slices (fixed slot and i, j), a reshape and a transpose away.
    """

    def __init__(self, B: ConcreteAlgebra, n: int, r: int = 1):
        self.B, self.n, self.r = B, n, r

    def project(self, m: np.ndarray) -> np.ndarray:
        N, n, r = self.B.ambient_dim, self.n, self.r
        # m[s, a, i, slot, c, j] is entry (a, c) of slice (slot, i, j)
        slices = m.reshape(-1, N, n, r, N, n).transpose(0, 2, 3, 5, 1, 4)
        return self.B.project(slices).transpose(0, 4, 1, 2, 5, 3).reshape(m.shape)


def tensor_lift(X, B: ConcreteAlgebra, n: int, gamma: float,
                iters: int = 500) -> tuple[list[np.ndarray], Certificate]:
    """Witnesses in span(B) (x) M_n for elements of the unit ball of
    A (x) M_n (rectangular block rows allowed), certified against the
    amplification-stable ceiling 2*gamma + gamma^2 valid for A subset_gamma B.

    Returns the witnesses and a certificate with the worst achieved distance;
    its details give each witness's solver iterations and stop reason (see
    ``nearest_in_span``), so a distance proven to 1e-6 shows as ``gap`` and
    one left at the iteration budget as ``cap``.
    """
    X = [np.asarray(x, dtype=complex) for x in X]
    if not X:
        raise ValueError("empty witness request")
    N = B.ambient_dim
    for x in X:
        rows, cols = x.shape
        if rows != N * n or cols % (N * n):
            raise ValueError("element shape incompatible with the amplification")
    witnesses: list = [None] * len(X)
    its, stops = [0] * len(X), [""] * len(X)
    worst = 0.0
    for cols in {x.shape[1] for x in X}:
        idx = [i for i, x in enumerate(X) if x.shape[1] == cols]
        bs, vals, at, why = nearest_in_span(np.array([X[i] for i in idx]),
                                            _TensorSpan(B, n, cols // (N * n)),
                                            iters=iters, tol=1e-13)
        for i, b, k, w in zip(idx, bs, at, why):
            witnesses[i], its[i], stops[i] = b, int(k), str(w)
        worst = max(worst, float(vals.max()))
    ceiling = 2.0 * gamma + gamma * gamma
    cert = Certificate.build(
        name="tensor-amplified-witnesses",
        formula="dist(x, B (x) M_n) <= 2*gamma + gamma^2 on the unit ball",
        inputs={"gamma": gamma, "n": n, "count": len(X)},
        ceiling=ceiling + TOL_ALG, achieved=worst,
        details={"iters": its, "stops": stops},
        provenance=provenance_stamp())
    return witnesses, cert


# ---------------------------------------------------------------------------
# equality criterion
# ---------------------------------------------------------------------------

def equality_criterion(A: ConcreteAlgebra, B: ConcreteAlgebra,
                       cert: NearInclusionCert) -> bool:
    """Decide A = B from: A a verified subspace of span(B), plus a sampled
    near-inclusion certificate B subset_gamma A with gamma_hi < 1.

    At finite dimension a proper subalgebra misses some unit-ball element of
    B by at least distance one, so gamma_hi < 1 with matching dimensions
    certifies equality; gamma_hi < 1 with differing dimensions is impossible
    and raises :class:`ContradictionError` (the certificate under-sampled).
    """
    if (B.residual(A.basis) > TOL_ALG).any() or cert.gamma_hi >= 1.0:
        return False
    if A.dim != B.dim:
        raise ContradictionError(
            f"B subset_{cert.gamma_hi:.3g} A certified but dim A = {A.dim} != "
            f"dim B = {B.dim}; a proper inclusion forces distance >= 1, so the "
            "sampled certificate missed its witness")
    return True
