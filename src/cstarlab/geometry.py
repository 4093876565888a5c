"""Operator-norm geometry between subalgebras: near inclusions, the
Hausdorff distance between unit balls, tensor-amplified witness lifts, and
the subspace equality criterion.

The distance between unit balls is estimated from both sides.  Upper bounds
come from explicit witnesses found by projected subgradient descent on the
convex problem min ||x - b|| over b in a subspace (optionally intersected
with the unit ball); lower bounds come from trace-norm dual certificates.
One solver, ``nearest_in_span``, serves every witness search: it takes a
stack of targets and advances them together by batched eigensolves of small
Gram matrices, so a near inclusion solves all of its samples in one call;
as it reports only the largest distance, a sample whose best value is below
a proven lower bound of another (an HS dual, or a trace-norm dual built from
the solver's own subgradients) stops early.  Suprema over the unit ball are
sampled (basis elements, random self-adjoint contractions, random
unitaries), so the reported gamma_hi is an honest sampled estimate with
stored witnesses, not a proof of the supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, _Span
from .certs import TOL_ALG, Certificate, ContradictionError, provenance_stamp
from .linalg import clip_spectrum, opnorm, opnorms, rng_for

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
    """Sample x, point b of the target, achieved ub = ||x - b|| and dual lb.
    A witness with ub below gamma_lo (or another sample's dual bound) may
    have stopped early; its ub is still an achieved distance."""

    label: str
    x: np.ndarray
    b: np.ndarray
    ub: float
    lb: float


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


def _subgradient_dual(D: np.ndarray, R: np.ndarray, project) -> np.ndarray:
    """Lower bounds for dist(x, span) from sums D of subgradient dyads and
    residuals R = x - b, b in the span: Y = D - P(D) vanishes on the span, so
    Re<Y, R> = Re<Y, x - b'> <= ||Y||_1 ||x - b'|| for every b' in it and
    lo = Re<Y, R> / ||Y||_1 (0 where Y = 0).  R rather than x keeps the
    rounding relative to the distance."""
    Y = D - project(D)
    nrm = np.linalg.svd(Y, compute_uv=False).sum(axis=1)
    inner = np.einsum("sij,sij->s", Y.conj(), R).real
    return np.where(nrm > 0.0, inner, 0.0) / np.where(nrm > 0.0, nrm, 1.0)


def nearest_in_span(x: np.ndarray, span: _Span | ConcreteAlgebra,
                    ball: bool = False, iters: int = 500, tol: float = 1e-12,
                    *, floor: float | None = None) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimize ||x - b||_op over b in the given subspace (intersected with
    the operator-norm unit ball when requested).

    Projected subgradient descent on a convex objective: the subgradient of
    the operator norm at the residual is the top singular dyad u v*, which is
    HS-projected onto the subspace; steps shrink like c/sqrt(k); the best
    feasible iterate is tracked.  Warm start at the HS projection of x.

    x is one (R, C) matrix or a stack (S, R, C) of targets solved at once,
    each with its own step scale c and best iterate.  Every iteration takes
    one batched Hermitian eigensolve of the residuals' smaller Gram matrices
    (``_top_dyad``): its top eigenpair is the objective and the next
    subgradient; the ball's rescale reads the norm from eigvalsh(y* y).  A
    target whose residual falls to tol leaves the stack.  Returns the
    witnesses (shaped like x) and the distances ||x - b|| (a float, or an
    (S,) array for a stack), taken by the values-only SVD of ``opnorm`` so
    that opnorm(x - b) reproduces each bit for bit.  The span's ``project``
    maps a stack (S, R, C) to its HS-orthogonal projections.

    A ``floor``, a proven lower bound for some target's distance, asks only
    for the largest distance: a target leaves the stack once its best value
    is below floor (1 - 1e-6), and at k = 16, 32, 64, ... the floor rises to
    the largest ``_subgradient_dual`` bound of the live targets over the dyads
    of iterations (k/2, k].  The target setting the floor has best value >=
    distance >= floor, so it stays; a dropped target ends below the floor:
    the maximum and every target that can reach it are as without a floor.
    """
    sp = span.span() if isinstance(span, ConcreteAlgebra) else span
    single = np.ndim(x) == 2
    X = np.reshape(x, (-1,) + np.shape(x)[-2:])
    project = sp.project

    def rescale(y):
        if not ball:
            return y
        gram = y.conj().swapaxes(1, 2) @ y
        nrm = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        return y / np.maximum(nrm, 1.0)[:, None, None]

    best = rescale(project(X))
    best_val = np.linalg.svd(X - best, compute_uv=False)[:, 0]
    c = np.maximum(best_val, 10 * tol)
    live = np.flatnonzero(best_val > tol)
    if floor is not None:
        live = live[best_val[live] >= floor * (1.0 - 1e-6)]
    Xl, cl, y = X[live], c[live], best[live]
    D, check = (None, 0) if floor is None else (np.zeros_like(Xl), 16)
    u, v, _ = _top_dyad(Xl - y)
    for k in range(1, iters + 1):
        if not live.size:
            break
        dyad = u[:, :, None] * v.conj()[:, None, :]
        g = project(dyad)
        y = rescale(y + (cl / np.sqrt(k))[:, None, None] * g)
        u, v, s = _top_dyad(Xl - y)
        better = s < best_val[live]
        best[live[better]] = y[better]
        best_val[live[better]] = s[better]
        keep = s > tol
        if floor is not None:
            if k > check // 2:
                D += dyad
            if k == check:
                lo = _subgradient_dual(D, Xl - best[live], project)
                floor, check = max(floor, float(lo.max())), 2 * check
                D[:] = 0.0
            keep &= best_val[live] >= floor * (1.0 - 1e-6)
        if not keep.all():
            live, Xl, cl, y, u, v = (a[keep] for a in (live, Xl, cl, y, u, v))
            D = None if D is None else D[keep]
    best_val = np.linalg.svd(X - best, compute_uv=False)[:, 0]
    if single:
        return best[0], float(best_val[0])
    return best, best_val


def nearest_in_ball(x: np.ndarray, B: ConcreteAlgebra, iters: int = 500,
                    tol: float = 1e-12) -> tuple[np.ndarray, float | np.ndarray]:
    """Witness in the unit ball of span(B) nearly closest to x in operator
    norm, with its certified distance ||x - b||; x may be a stack."""
    return nearest_in_span(x, B, ball=True, iters=iters, tol=tol)


def span_distance_lower(x: np.ndarray, span: _Span | ConcreteAlgebra) -> float | np.ndarray:
    """Certified lower bound for dist_op(x, span) by trace-norm duality.

    The HS-orthogonal residual r = x - P(x), normalised in trace norm, is a
    dual functional vanishing on the subspace, so |tr(W* x)| = ||r||_HS^2 /
    ||r||_tr bounds the operator-norm distance from below.  x is one matrix
    (a float is returned) or a stack (S, R, C) (an (S,) array): one
    projection and one batched values-only SVD for the trace norms.
    """
    sp = span.span() if isinstance(span, ConcreteAlgebra) else span
    X = np.reshape(x, (-1,) + np.shape(x)[-2:])
    r = X - sp.project(X)
    nrm_hs = np.linalg.norm(r, axis=(1, 2))
    # ||r||_tr >= ||r||_HS, so the floor only guards the zero residual
    nrm_tr = np.maximum(np.linalg.svd(r, compute_uv=False).sum(axis=1), 1e-14)
    lb = np.where(nrm_hs > 1e-14, nrm_hs ** 2 / nrm_tr, 0.0)
    return float(lb[0]) if np.ndim(x) == 2 else lb


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_unit_ball(A: ConcreteAlgebra, spec: SampleSpec) -> list[tuple[str, np.ndarray]]:
    """Deterministic sample of the unit ball of A: operator-normalised basis
    elements, random self-adjoint contractions (spectral clipping), and
    random unitaries exp(i h) of A (relative to its support)."""
    out: list[tuple[str, np.ndarray]] = []
    if spec.include_basis:
        for idx, b in enumerate(A.basis):
            nrm = opnorm(b)
            if nrm > 1e-14:
                out.append((f"basis[{idx}]", b / nrm))
    rng = rng_for(spec.seed, "unit-ball", A.ambient_dim, A.dim)
    for t in range(spec.n_selfadjoint):
        h = A.random_selfadjoint(rng)
        out.append((f"sa[{t}]", clip_spectrum(h, -1.0, 1.0)))
    for t in range(spec.n_unitary):
        h = A.random_selfadjoint(rng)
        nrm = opnorm(h)
        if nrm > 1e-14:
            h = h / nrm
        out.append((f"u[{t}]", A.unitary_from(np.pi * 0.5 * h)))
    return out


# ---------------------------------------------------------------------------
# near inclusions and distance
# ---------------------------------------------------------------------------

def near_inclusion(A: ConcreteAlgebra, B: ConcreteAlgebra,
                   spec: SampleSpec | None = None, ball: bool = False,
                   keep_witnesses: int = 8) -> NearInclusionCert:
    """Sampled estimate of the one-sided constant sup dist(x, B) over the
    unit ball of A.  Witnesses are unconstrained in B by default (set ball
    for unit-ball witnesses as in the two-sided distance).  The HS dual
    bounds come first and gamma_lo is the solve's ``floor``: samples proven
    below the supremum stop early, and gamma_hi is as in the full solve."""
    spec = spec or SampleSpec()
    samples = sample_unit_ball(A, spec)
    wits: list[Witness] = []
    if samples:
        X = np.array([x for _, x in samples])
        lbs = span_distance_lower(X, B)
        bs, ubs = nearest_in_span(X, B, ball=ball, iters=spec.iters,
                                  floor=float(lbs.max()))
        wits = [Witness(label=label, x=x, b=b, ub=float(ub), lb=float(lb))
                for (label, x), b, ub, lb in zip(samples, bs, ubs, lbs)]
    gamma_hi = max((w.ub for w in wits), default=0.0)
    lo_wit = max(wits, key=lambda w: w.lb, default=None)
    gamma_lo = lo_wit.lb if lo_wit else 0.0
    wits.sort(key=lambda w: -w.ub)
    return NearInclusionCert(gamma_hi=float(gamma_hi), gamma_lo=float(gamma_lo),
                             witnesses=wits[:keep_witnesses], sample_spec=spec,
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
    of such spaces for rectangular witnesses.

    The space is spanned by kron(b, e_ij) in each slot, so the projection of
    an Nn x rNn matrix projects each of its r n^2 N x N slices (fixed slot
    and i, j) onto span(B): a reshape, a transpose and two GEMMs with B's
    HS-orthonormal basis Q.
    """

    def __init__(self, B: ConcreteAlgebra, n: int, r: int = 1):
        self.N, self.n, self.r = B.ambient_dim, n, r
        self.Q = B.span().Q
        self.Qc = self.Q.conj()

    def project(self, m: np.ndarray) -> np.ndarray:
        N, n, r = self.N, self.n, self.r
        # m[s, a, i, slot, c, j] is entry (a, c) of slice (slot, i, j)
        slices = m.reshape(-1, N, n, r, N, n).transpose(0, 2, 3, 5, 1, 4)
        proj = (slices.reshape(-1, N * N) @ self.Qc.T) @ self.Q
        proj = proj.reshape(-1, n, r, n, N, N).transpose(0, 4, 1, 2, 5, 3)
        return proj.reshape(m.shape)


def tensor_lift(X, B: ConcreteAlgebra, n: int, gamma: float,
                iters: int = 500, tol: float = TOL_ALG) -> tuple[list[np.ndarray], Certificate]:
    """Witnesses in span(B) (x) M_n for elements of the unit ball of
    A (x) M_n (rectangular block rows allowed), certified against the
    amplification-stable ceiling 2*gamma + gamma^2 valid for A subset_gamma B.

    Returns the witnesses and a certificate with the worst achieved distance.
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
    worst = 0.0
    for cols in {x.shape[1] for x in X}:
        idx = [i for i, x in enumerate(X) if x.shape[1] == cols]
        bs, vals = nearest_in_span(np.array([X[i] for i in idx]),
                                   _TensorSpan(B, n, cols // (N * n)),
                                   iters=iters, tol=1e-13)
        for i, b in zip(idx, bs):
            witnesses[i] = b
        worst = max(worst, float(vals.max()))
    ceiling = 2.0 * gamma + gamma * gamma
    cert = Certificate.build(
        name="tensor-amplified-witnesses",
        formula="dist(x, B (x) M_n) <= 2*gamma + gamma^2 on the unit ball",
        inputs={"gamma": gamma, "n": n, "count": len(X)},
        ceiling=ceiling + tol, achieved=worst,
        provenance=provenance_stamp())
    return witnesses, cert


# ---------------------------------------------------------------------------
# equality criterion
# ---------------------------------------------------------------------------

def equality_criterion(A: ConcreteAlgebra, B: ConcreteAlgebra,
                       cert: NearInclusionCert, tol: float = TOL_ALG) -> bool:
    """Decide A = B from: A a verified subspace of span(B), plus a sampled
    near-inclusion certificate B subset_gamma A with gamma_hi < 1.

    At finite dimension a proper subalgebra misses some unit-ball element of
    B by at least distance one, so gamma_hi < 1 with matching dimensions
    certifies equality; gamma_hi < 1 with differing dimensions is impossible
    and raises :class:`ContradictionError` (the certificate under-sampled).
    """
    for b in A.basis:
        if B.residual(b) > tol:
            return False
    if cert.gamma_hi >= 1.0:
        return False
    if A.dim != B.dim:
        raise ContradictionError(
            f"B subset_{cert.gamma_hi:.3g} A certified but dim A = {A.dim} != "
            f"dim B = {B.dim}; a proper inclusion forces distance >= 1, so the "
            "sampled certificate missed its witness")
    return True
