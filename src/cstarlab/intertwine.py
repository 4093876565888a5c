"""Iterative intertwining between close algebras: the staged construction of
a *-isomorphism from a supply of cpc maps, the two-sided close-isomorphism
driver, near embeddings, half-flip transport maps, and exact unitary
implementation of isomorphisms.

The staged construction keeps a growing finite set of unit-ball elements,
asks a producer callback for a cpc map close to the inclusion on that set,
repairs it to a homomorphism, and aligns it with the previous stage by a
unitary close to one.  With the exact averaging machinery every stage's
repaired map is a homomorphism to machine precision and consecutive aligned
stages agree to machine precision, so the iteration settles in two or three
stages; all stated drift budgets are still tracked and certified.  A
producer returns a map; the set only grows, so a stage hashes only its new
points, and a stage given the previous map bit for bit measures that map's
closeness and defect on them only, keeps its repair and takes the unitary 1,
so the codomain basis is pulled back once per call.  close_isomorphism reads
B's witnesses and its forward closeness from that one pull-back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra, _combine, support_projection
from .certs import (TOL_ALG, TOL_CONV, TOL_EXACT, Certificate, ContradictionError,
                    SpectralGapError, ToleranceBudget, DEFAULT_BUDGET,
                    WINDOW_DEFECT_REPAIR, WINDOW_ISO_ETA, WINDOW_ISO_GAMMA,
                    WINDOW_ISO_MU, provenance_stamp)
from .cpmaps import LinMap, _mult_defects, arveson_restrict, classify, hom_defect
from .averaging import (exact_diagonal, improve_multiplicativity,
                        intertwining_unitary, projection_conjugator)
from .geometry import nearest_in_ball, nearest_in_span
from .linalg import dagger, opnorm, opnorm_max_of, opnorms

__all__ = [
    "StageRecord",
    "IsoResult",
    "expectation_producer",
    "intertwining_iso",
    "close_isomorphism",
    "near_embedding_nuclear",
    "half_flip_cpc",
    "implement_unitarily",
    "unit_match",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    stage: int
    n_X: int
    n_Y: int
    n_Z: int
    delta_target: float
    producer_closeness: float
    phi_defect: float
    theta_defect: float
    image_residual: float
    drift: float
    drift_ceiling: float
    u_norm: float
    repaired: bool

    def to_dict(self) -> dict:
        return {"kind": "stage_record", "schema_version": 1, **self.__dict__}


@dataclass
class IsoResult:
    """A constructed *-homomorphism with its staged provenance.

    map sends the domain algebra into the codomain algebra; inverse is set
    when the map is a bijection onto the codomain.  trace records one row per
    stage; certificates hold the quantitative claims.
    """

    map: LinMap
    inverse: LinMap | None
    conjugators: list[np.ndarray]
    trace: list[StageRecord]
    certificates: dict
    eta: float
    mu: float
    nu: float
    converged: bool
    surjective: bool
    pull_back: tuple | None = None  # stage 1's codomain witnesses and distances

    @property
    def passed(self) -> bool:
        return self.converged and all(c.passed for c in self.certificates.values())

    def to_dict(self) -> dict:
        return {"kind": "iso_result", "schema_version": 1,
                "eta": self.eta, "mu": self.mu, "nu": self.nu,
                "converged": self.converged, "surjective": self.surjective,
                "n_stages": len(self.trace),
                "trace": [r.to_dict() for r in self.trace],
                "certificates": {k: c.to_dict() for k, c in self.certificates.items()}}


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------

def expectation_producer(A: ConcreteAlgebra, B: ConcreteAlgebra):
    """Producer callback backed by the expectation onto B: every Z gets phi,
    the restriction of the expectation onto B to A, built once; it is
    2 gamma-close to the inclusion on any Z within gamma of B
    (``arveson_restrict``)."""
    phi = arveson_restrict(A, B, (), gamma=0.0)[0]
    return lambda Z: phi


# ---------------------------------------------------------------------------
# the staged intertwining
# ---------------------------------------------------------------------------

def _averaging_parts(A: ConcreteAlgebra) -> np.ndarray:
    """Unit-ball elements of A carrying the averaging family of the unitized
    block model: for each term u~ = (block part, scalar), the element
    (block part - scalar * 1) / 2 mapped back into A."""
    bm = A.block_model()
    fd_ext = FDAlgebra(tuple(bm.fd.block_sizes) + (1,))
    d = bm.fd.d
    u = exact_diagonal(fd_ext).terms
    return bm.to_concrete((u[:, :d, :d] - u[:, d, d, None, None] * np.eye(d)) / 2.0)


class _TrackedSet:
    """Distinct matrices in order of first appearance: ``points``, rows of one
    array per ``add``.  Each is keyed once by a 16-byte digest of its bytes
    (-0.0 read as 0.0) and compared exactly on a key hit."""

    def __init__(self, N: int):
        self.N, self.points, self.keys = N, [], {}

    def add(self, mats, size: int) -> np.ndarray:
        """Append those of the (at most size) matrices mats not in the set; return them."""
        new, old = np.empty((size, self.N, self.N), dtype=complex), len(self.points)
        for z in mats:
            hits = self.keys.setdefault(
                hashlib.blake2b((z + 0.0).tobytes(), digest_size=16).digest(), [])
            if not any(np.array_equal(self.points[i], z) for i in hits):
                hits.append(len(self.points))
                new[len(self.points) - old] = z
                self.points.append(new[len(self.points) - old])
        return new[:len(self.points) - old]


def _same_map(phi: LinMap, prev: LinMap | None) -> bool:
    """Whether phi has prev's domain and bit for bit prev's images."""
    return (prev is not None and phi.domain is prev.domain
            and np.array_equal(phi.images, prev.images))


def _worst_move(phi, X) -> float:
    """max over x in X of ||phi(x) - x||, in bounded batches; 0.0 for no X."""
    return opnorm_max_of(lambda b: phi(b) - b, X)


# stages the staged intertwining runs before it gives up
_MAX_STAGES = 12


def intertwining_iso(A: ConcreteAlgebra, B: ConcreteAlgebra, eta: float,
                     X_A=None, mu: float = 1e-4, producer=None,
                     surjectivity_delta: float | None = None, seed: int = 0,
                     budget: ToleranceBudget = DEFAULT_BUDGET) -> IsoResult:
    """Staged construction of an injective *-homomorphism alpha: A -> B with
    ||alpha(x) - x|| <= 8 sqrt(6) eta^{1/2} + eta + mu for x in X_A.

    Requires a producer Z -> cpc map eta-close to the inclusion on Z, Z the
    list of tracked points, which only grows; defaults to the expectation
    onto B.  Each stage measures the produced map's closeness (the stage
    record's producer_closeness) and defect, repairs it to a homomorphism and
    aligns that with the previous one by a unitary close to 1.  A map with the
    previous stage's domain and, bit for bit, its images is kept: it is
    measured on the new points only and keeps that stage's repair,
    theta_defect and image residual (repaired=False), with u = 1 and drift
    0.0.  The loop stops when the aligned maps agree on the basis to tol_conv
    twice in a row, and raises after _MAX_STAGES stages.  When
    surjectivity_delta is given (B inside A to that level; the paper's window
    is at most 1/5), codomain basis elements are pulled through the
    accumulated conjugator (solved once per conjugator, at 200 iterations at
    stage 1: pull_back) and tracked, closeness covers stage 1's accepted
    witnesses too, and the result is certified onto B by dimension count.
    """
    budget.require_window("iso-eta", eta, WINDOW_ISO_ETA)
    budget.require_window("iso-mu", mu, WINDOW_ISO_MU)
    nu = mu / 2.0
    if producer is None:
        producer = expectation_producer(A, B)
    norm_basis = A.normalized_basis
    if X_A is None:
        X_A = list(norm_basis)
    else:
        X_A = [np.asarray(x, dtype=complex) for x in X_A]
    bound_main = 8.0 * np.sqrt(6.0) * np.sqrt(eta) + eta + mu
    bound_nu = 8.0 * np.sqrt(6.0) * np.sqrt(eta) + eta + nu

    avg_parts = list(_averaging_parts(A))
    B_norm_basis = B.normalized_basis
    # Z: the distinct points of Y = X + avg_parts; Zp, which the producer sees:
    # those of Z, Z* and w w* for w in them, formed 64 points at a time.
    Z, Zp = _TrackedSet(A.ambient_dim), _TrackedSet(A.ambient_dim)
    X, n_seen = list(X_A), 0
    trace: list[StageRecord] = []
    conjugators: list[np.ndarray] = []
    theta_prev: LinMap | None = None
    phi_prev: LinMap | None = None
    alpha: LinMap | None = None
    accumulated = np.eye(A.ambient_dim, dtype=complex)
    delta_target = 1.0
    streak = 0
    converged = False
    worst_membership = 0.0
    tracking_ok = surjectivity_delta is not None
    pull_worst, pulled_for, pull_back, X_close = 0.0, None, None, X_A

    for n in range(1, _MAX_STAGES + 1):
        X.append(norm_basis[(n - 1) % len(norm_basis)])
        # track codomain basis elements through the accumulated conjugators,
        # solving and adding the pulled points again only after the
        # conjugator changed; closeness covers stage 1's accepted witnesses
        if surjectivity_delta is not None and not np.array_equal(pulled_for, accumulated):
            pulled, pulled_for = dagger(accumulated) @ B_norm_basis @ accumulated, accumulated
            xs, dists = nearest_in_ball(pulled, A, iters=80 if pull_back else 200)[:2]
            ok = dists <= 2.0 / 5.0 + TOL_ALG
            X += list(xs[ok])
            pull_worst, tracking_ok = max(pull_worst, *dists), tracking_ok and ok.all()
            if pull_back is None:
                pull_back, X_close = (xs, dists), X_A + list(xs[ok])
        delta_target = min(delta_target, 2.0 ** (-n), nu / (5.0 * np.sqrt(2.0)))
        new_X, n_seen = X[n_seen:], len(X)
        new_Z = Z.add(new_X + avg_parts if n == 1 else new_X, len(new_X) + len(avg_parts))
        W = (np.concatenate([c, dagger(c)]) for c in np.split(new_Z, range(64, len(new_Z), 64)))
        new_Zp = Zp.add((z for w in W for z in (*w, *(w @ dagger(w)))), 4 * len(new_Z))

        phi = producer(Zp.points)
        # a kept map keeps its repair, theta's defect and residual, and alpha
        # (u = 1); its closeness and defect need checking on the new points only
        kept = _same_map(phi, phi_prev)
        closeness = _worst_move(phi, new_Zp if kept else Zp.points)
        phi_defect = opnorm_max_of(lambda b: _mult_defects(phi, b), new_Z if kept else Z.points)
        if kept:
            closeness = max(trace[-1].producer_closeness, closeness)
            phi_defect = max(trace[-1].phi_defect, phi_defect)
        gamma_repair = max(3.0 * eta, phi_defect)

        u, drift, u_norm = np.eye(A.ambient_dim, dtype=complex), 0.0, 0.0
        drift_ceiling = 2.0 ** (-(n - 1)) * nu
        if kept:
            budget.require_window("multiplicativity-repair", gamma_repair, WINDOW_DEFECT_REPAIR)
            theta_defect, residual = trace[-1].theta_defect, trace[-1].image_residual
        else:
            theta_raw = improve_multiplicativity(phi, gamma=gamma_repair,
                                                 seed=seed + n, budget=budget).psi
            theta = LinMap(A, A.ambient_dim, B.project(theta_raw.images),
                           codomain_algebra=B)
            # sampled at the same points every stage, so a kept theta keeps it
            theta_defect = hom_defect(theta, seed)
            residual = B.membership_residual(theta_raw.images)
            if theta_prev is None:
                alpha = theta
            else:
                u = intertwining_unitary(theta_prev, theta, seed=seed + n, budget=budget).u
                u_norm = float(opnorm(u - np.eye(A.ambient_dim)))
                aligned = theta.conjugated(u)
                drift = opnorm_max_of(lambda b: aligned(b) - theta_prev(b), X)
                accumulated = accumulated @ u
                alpha = theta.conjugated(accumulated)
        worst_membership = max(worst_membership, residual)
        conjugators.append(u)
        theta_prev, phi_prev = theta, phi
        trace.append(StageRecord(
            stage=n, n_X=len(X), n_Y=len(X) + len(avg_parts), n_Z=len(Zp.points),
            delta_target=float(delta_target),
            producer_closeness=float(closeness),
            phi_defect=float(phi_defect), theta_defect=float(theta_defect),
            image_residual=float(residual), drift=float(drift),
            drift_ceiling=float(drift_ceiling), u_norm=float(u_norm),
            repaired=not kept))
        if n >= 2:
            streak = streak + 1 if drift < TOL_CONV else 0
            if streak >= 2:
                converged = True
                break

    if not converged:
        rows = "; ".join(f"stage {r.stage}: drift {r.drift:.3g}" for r in trace)
        raise RuntimeError(
            f"intertwining did not converge within {_MAX_STAGES} stages ({rows})")

    # final map: re-project the accumulated conjugation into the codomain span
    worst_membership = max(worst_membership, B.membership_residual(alpha.images))
    alpha = LinMap(A, A.ambient_dim, B.project(alpha.images), codomain_algebra=B)

    achieved = _worst_move(alpha, X_close)
    cert_close = Certificate.build(
        name="iso-closeness",
        formula="||alpha(x) - x|| <= 8 sqrt(6) eta^{1/2} + eta + mu on X_A",
        inputs={"eta": eta, "mu": mu, "n_points": len(X_close)},
        ceiling=float(bound_main), achieved=float(achieved),
        provenance=provenance_stamp(seed))
    cert_hom = Certificate.build(
        name="homomorphism",
        formula="multiplicativity and adjoint defect <= tol_alg",
        inputs={}, ceiling=TOL_ALG,
        achieved=float(hom_defect(alpha, seed + 101)),
        provenance=provenance_stamp(seed))
    cert_member = Certificate.build(
        name="image-membership",
        formula="relative HS residual of images in span(B) <= tol_alg before snapping",
        inputs={}, ceiling=TOL_ALG, achieved=float(worst_membership),
        provenance=provenance_stamp(seed))

    action = B.coeffs(alpha.images).T
    svals = np.linalg.svd(action, compute_uv=False)
    sigma_min = float(svals[-1]) if svals.size else 0.0
    margins = np.maximum(0.0, 1.0 - opnorms(alpha(norm_basis)))
    cert_inj = Certificate.build(
        name="injectivity",
        formula="||alpha(x)|| >= ||x|| - (8 sqrt(6) eta^{1/2} + eta + nu)",
        inputs={"eta": eta, "nu": nu},
        ceiling=float(bound_nu), achieved=float(max(margins)),
        details={"action_sigma_min": sigma_min},
        provenance=provenance_stamp(seed))
    drift_ratio = max((r.drift / r.drift_ceiling for r in trace if r.stage >= 2),
                      default=0.0)
    cert_drift = Certificate.build(
        name="drift-telescoping",
        formula="||alpha_{n+1}(x) - alpha_n(x)|| <= 2^{-n} nu per stage",
        inputs={"nu": nu}, ceiling=1.0, achieved=float(drift_ratio),
        provenance=provenance_stamp(seed))
    certs = {"closeness": cert_close, "homomorphism": cert_hom,
             "image-membership": cert_member, "injectivity": cert_inj,
             "drift": cert_drift}

    surjective = False
    inverse = None
    if sigma_min > TOL_ALG and A.dim == B.dim:
        surjective = True
        inv_images = _combine(np.linalg.inv(action).T, A.basis)
        inverse = LinMap(B, B.ambient_dim, inv_images, codomain_algebra=A)
    if surjectivity_delta is not None:
        margin = (8.0 * np.sqrt(2.0) * bound_nu + 2.0 * nu + bound_nu
                  + 2.0 * surjectivity_delta)
        certs["surjectivity"] = Certificate.build(
            name="surjectivity",
            formula="dim alpha(A) = dim B with alpha(A) in B; "
                    "density margin 8 sqrt(2) b + 2 nu + b + 2 delta < 1",
            inputs={"delta": surjectivity_delta, "dim_A": A.dim, "dim_B": B.dim},
            ceiling=0.0, achieved=0.0 if surjective else 1.0,
            details={"density_margin": float(margin), "pullback_worst": float(pull_worst),
                     "tracking_ok": bool(tracking_ok)},
            provenance=provenance_stamp(seed))

    return IsoResult(map=alpha, inverse=inverse, conjugators=conjugators,
                     trace=trace, certificates=certs, eta=float(eta),
                     mu=float(mu), nu=float(nu), converged=converged,
                     surjective=surjective, pull_back=pull_back)


# ---------------------------------------------------------------------------
# two-sided driver
# ---------------------------------------------------------------------------

def close_isomorphism(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                      X=None, seed: int = 0,
                      budget: ToleranceBudget = DEFAULT_BUDGET) -> IsoResult:
    """Surjective *-isomorphism theta: A -> B from a two-sided distance bound
    d(A, B) <= gamma, with ||theta(x) - x|| and ||theta^{-1}(y) - y|| at most
    28 gamma^{1/2} for x in X and A's basis and for y in B's basis.

    Runs the staged intertwining with eta = 2 gamma, mu = min(gamma^{1/2},
    1/4000) and surjectivity_delta = gamma, so that B's basis is pulled back
    into A's unit ball (pull_back) and forward closeness, read from the staged
    certificate, covers the accepted witnesses too; certifies the reverse
    direction through the chain ||theta^{-1}(y) - y|| <= 2 ||x - y|| +
    ||theta(x) - y|| over those witnesses.
    """
    budget.require_window("close-isomorphism", gamma, WINDOW_ISO_GAMMA)
    if A.dim != B.dim:
        raise ContradictionError(
            f"distance certificate {gamma:.3g} < 1 between algebras of "
            f"different dimensions {A.dim} != {B.dim}")
    X = [np.asarray(x, dtype=complex) for x in ([] if X is None else X)]
    res = intertwining_iso(A, B, eta=2.0 * gamma, X_A=X + list(A.normalized_basis),
                           mu=min(np.sqrt(gamma), 1.0 / 4000.0),
                           surjectivity_delta=gamma, seed=seed, budget=budget)
    theta, close = res.map, res.certificates["closeness"]
    ceiling = 28.0 * np.sqrt(gamma)
    res.certificates["forward-closeness"] = Certificate.build(
        name="forward-closeness",
        formula="||theta(x) - x|| <= 28 gamma^{1/2} on X",
        inputs={"gamma": gamma, "n_points": close.inputs["n_points"]},
        ceiling=float(ceiling), achieved=close.achieved,
        provenance=provenance_stamp(seed))
    if res.inverse is None:
        raise SpectralGapError("constructed map is not invertible; "
                               "cannot certify the reverse bound")
    Y, (Xs, dists) = B.normalized_basis, res.pull_back
    chain_worst = (2.0 * dists + opnorms(theta(Xs) - Y)).max()
    res.certificates["backward-closeness"] = Certificate.build(
        name="backward-closeness",
        formula="||theta^{-1}(y) - y|| <= 2 ||x - y|| + ||theta(x) - y|| "
                "<= 28 gamma^{1/2} on Y",
        inputs={"gamma": gamma, "n_points": len(Y)},
        ceiling=float(ceiling), achieved=float(_worst_move(res.inverse, Y)),
        details={"chain_bound": float(chain_worst)},
        provenance=provenance_stamp(seed))
    return res


def near_embedding_nuclear(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                           X=None, seed: int = 0,
                           budget: ToleranceBudget = DEFAULT_BUDGET
                           ) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    28 gamma^{1/2} on X, from a one-sided near inclusion A in B at gamma; the
    staged intertwining runs with eta = 2 gamma and mu = min(gamma^{1/2},
    1/4000)."""
    budget.require_window("near-embedding", gamma, WINDOW_ISO_GAMMA)
    mu = min(np.sqrt(gamma), 1.0 / 4000.0)
    if X is None:
        X = list(A.normalized_basis)
    else:
        X = [np.asarray(x, dtype=complex) for x in X]
    res = intertwining_iso(A, B, eta=2.0 * gamma, X_A=X, mu=mu, seed=seed, budget=budget)
    cert = Certificate.build(
        name="near-embedding",
        formula="||theta(x) - x|| <= 28 gamma^{1/2} on X",
        inputs={"gamma": gamma, "n_points": len(X),
                "sigma_min": res.certificates["injectivity"].details["action_sigma_min"]},
        ceiling=float(28.0 * np.sqrt(gamma)), achieved=res.certificates["closeness"].achieved,
        provenance=provenance_stamp(seed))
    return res.map, cert


# ---------------------------------------------------------------------------
# half flip transport
# ---------------------------------------------------------------------------

def _projection_near_unit(e: np.ndarray, B: ConcreteAlgebra, gamma: float) -> np.ndarray:
    """Projection p in B with ||p - e|| <= 2 gamma, from the spectral cut of
    a hermitian near-best approximant of the support projection e."""
    y = nearest_in_ball(e, B, iters=300)[0]
    h = (y + dagger(y)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    if np.any((vals > 0.45) & (vals < 0.55)):
        raise SpectralGapError(
            "no spectral gap at 1/2 when cutting the approximate unit; "
            "the near-inclusion certificate looks invalid")
    keep = vals >= 0.55
    p = vecs[:, keep] @ dagger(vecs[:, keep])
    if opnorm(p - e) > 2.0 * gamma + 10 * TOL_ALG:
        raise SpectralGapError(
            f"no projection within 2*gamma = {2 * gamma:.3g} of the unit "
            f"(got {opnorm(p - e):.3g}); the certificate looks invalid")
    return p


def half_flip_cpc(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float, X=None,
                  seed: int = 0) -> tuple[LinMap, Certificate]:
    """Transport cpc map phi: A -> B for a single full matrix block A near B,
    built through the exact tensor flip of A.

    Steps: cut a projection p in B near the unit of A, conjugate it onto the
    unit by a unitary u with ||u - I|| <= sqrt(2) ||p - 1_A||, compress B to
    B0 = 1_A u B u* 1_A, lift the exact flip v in A (x) A to a unit-ball
    witness w in span(B0 (x) A), and slice with a vector state:
    phi(x) = u* R(w (1 (x) x) w*) u.  Certified ceiling
    8 alpha + 4 alpha^2 + 4 sqrt(2) gamma with
    alpha = (4 sqrt(2) + 1) gamma + 4 sqrt(2) gamma^2.
    """
    struct = A.structure()
    if len(struct.summands) != 1:
        raise ValueError("the flip construction needs a single full matrix block")
    n_blk = struct.summands[0][0]
    N = A.ambient_dim
    e = A.support
    X = A.normalized_basis if X is None else np.array(X, dtype=complex)

    p = _projection_near_unit(e, B, gamma)
    u, cert_u = projection_conjugator(p, e)
    B0 = ConcreteAlgebra.from_basis(e @ (u @ B.basis @ dagger(u)) @ e, N)

    # v = sum_ij e_ij (x) e_ji
    units = struct.matrix_units.reshape(n_blk, n_blk, N, N)
    v = np.einsum("ijac,jibd->abcd", units, units).reshape(N * N, N * N)

    # witness for the flip inside span(B0) (x) span(A): the Kronecker
    # products of two HS-orthonormal bases are HS-orthonormal already
    pairs = np.einsum("bij,akl->baikjl", B0.basis, A.basis).reshape(-1, N * N, N * N)
    tensor_span = ConcreteAlgebra(ambient_dim=N * N, basis=pairs,
                                  support=support_projection(pairs, N * N))
    w, wdist, _, _ = nearest_in_span(v, tensor_span, ball=True, iters=300)
    alpha = (4.0 * np.sqrt(2.0) + 1.0) * gamma + 4.0 * np.sqrt(2.0) * gamma ** 2
    alpha_prime = gamma + 4.0 * np.sqrt(2.0) * gamma * (1.0 + gamma)
    w_ceiling = 2.0 * (2.0 * alpha_prime + alpha_prime ** 2)

    vals, vecs = np.linalg.eigh(e)
    xi = vecs[:, vals > 0.5][:, 0]

    # phi(b) = u* R(w (e (x) b) w*) u for each basis element b, with R the
    # slice by the vector state of xi
    mid = w @ np.einsum("ij,bkl->bikjl", e, A.basis).reshape(-1, N * N, N * N) @ dagger(w)
    images = np.einsum("bikjl,k,l->bij", mid.reshape(-1, N, N, N, N), xi.conj(), xi)
    phi = LinMap(A, N, dagger(u) @ images @ u, codomain_algebra=B)

    worst = _worst_move(phi, X)
    member = B.membership_residual(phi.images)
    ceiling = 8.0 * alpha + 4.0 * alpha ** 2 + 4.0 * np.sqrt(2.0) * gamma
    cls = classify(phi)
    cert = Certificate.build(
        name="half-flip-transport",
        formula="||phi(x) - x|| <= 8 alpha + 4 alpha^2 + 4 sqrt(2) gamma, "
                "alpha = (4 sqrt(2) + 1) gamma + 4 sqrt(2) gamma^2",
        inputs={"gamma": gamma, "alpha": float(alpha), "n_points": len(X)},
        ceiling=float(ceiling), achieved=float(worst),
        details={"witness_distance": float(wdist),
                 "witness_ceiling": float(w_ceiling),
                 "projection_distance": float(opnorm(p - e)),
                 "conjugator_norm": cert_u.achieved,
                 "image_residual": float(member),
                 "cpc": bool(cls.cpc)},
        provenance=provenance_stamp(seed))
    return phi, cert


# ---------------------------------------------------------------------------
# unitary implementation
# ---------------------------------------------------------------------------

def implement_unitarily(theta: LinMap, seed: int = 0,
                        budget: ToleranceBudget = DEFAULT_BUDGET
                        ) -> tuple[np.ndarray, Certificate]:
    """Unitary u with u x u* = theta(x) for all x in the domain, so the
    domain algebra is carried onto its image as a subspace.

    Uses the averaged intertwiner between the inclusion and the map, both
    exact homomorphisms, so the conjugation identity holds to machine
    precision; ||u - I|| <= 2 sqrt(2) gamma where gamma is the measured basis
    deviation of the map from the inclusion.
    """
    A = theta.domain
    if not isinstance(A, ConcreteAlgebra):
        raise ValueError("unitary implementation needs a concrete domain")
    B = theta.codomain_algebra
    if B is not None and B.ambient_dim != A.ambient_dim:
        raise ValueError("domain and codomain must share the ambient dimension")
    defect = hom_defect(theta, seed)
    if defect > TOL_ALG:
        raise ValueError(
            f"map is not a homomorphism to tol_alg (defect {defect:.3g}); "
            "repair it before implementing unitarily")
    inclusion = LinMap(A, A.ambient_dim, A.basis, codomain_algebra=A)
    gamma_basis = theta.basis_distance(inclusion)
    try:
        res = intertwining_unitary(theta, inclusion, gamma=gamma_basis,
                                   delta=defect, seed=seed, budget=budget)
    except SpectralGapError as exc:
        sizes = A.structure().block_sizes
        raise SpectralGapError(
            f"no near-identity implementation: averaged intertwiner is "
            f"singular for block sizes {sizes} ({exc})") from exc
    u = res.u
    N = A.ambient_dim
    conj = u @ A.basis @ dagger(u)
    worst_conj = (opnorms(conj - theta(A.basis)) / A.basis_norms).max()
    unitary_defect = opnorm(dagger(u) @ u - np.eye(N))
    subspace = 0.0 if B is None else max(B.membership_residual(conj),
                                         A.membership_residual(dagger(u) @ B.basis @ u))
    cert = Certificate.build(
        name="unitary-implementation",
        formula="u x u* = alpha(x) on the basis; ||u - 1|| <= 2 sqrt(2) gamma "
                "+ 5 sqrt(2) delta; u A u* = B as subspaces",
        inputs={"gamma_basis": float(gamma_basis), "defect": float(defect)},
        ceiling=TOL_ALG, achieved=float(worst_conj),
        details={"u_norm": float(opnorm(u - np.eye(N))),
                 "u_norm_ceiling": res.certificates["norm"].ceiling,
                 "unitary_defect": float(unitary_defect),
                 "subspace_residual": float(subspace),
                 "subspace_ceiling": 10.0 * TOL_ALG},
        provenance=provenance_stamp(seed))
    return u, cert


def unit_match(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float
               ) -> tuple[np.ndarray, Certificate]:
    """Unitary u with u 1_A u* = 1_B and ||u - 1|| <= 2 sqrt(2) gamma, valid
    for d(A, B) < gamma < 1/4."""
    beta = opnorm(A.support - B.support)
    if beta >= 1.0:
        raise SpectralGapError(
            f"support projections at distance {beta:.3g} >= 1 cannot be matched")
    u, cert_c = projection_conjugator(A.support, B.support)
    cert = Certificate.build(
        name="unit-match",
        formula="||u - 1|| <= 2 sqrt(2) gamma, u 1_A u* = 1_B",
        inputs={"gamma": gamma, "beta": float(beta)},
        ceiling=float(2.0 * np.sqrt(2.0) * gamma), achieved=cert_c.achieved,
        slack=TOL_EXACT,
        details={"conjugation_defect": cert_c.details.get("conjugation_defect", 0.0)},
        provenance=provenance_stamp())
    return u, cert
