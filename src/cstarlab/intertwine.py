"""Intertwining between close algebras: a *-isomorphism from the expectation
onto the codomain, the two-sided close-isomorphism driver, near embeddings,
half-flip transport maps, and exact unitary implementation of isomorphisms.

The paper's staged intertwining exhausts a nuclear A by growing finite sets,
because a cpc map is close to the inclusion only on finite sets.  Here A is
finite-dimensional and the expectation onto B, restricted to A, is close to
the inclusion on A's whole unit ball, so the exhaustion stops at its first
stage: that one map is repaired to a homomorphism once and projected into B.
The codomain basis is pulled back into A once per call (``pull_back``), and
close_isomorphism reads B's witnesses and its forward closeness from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, _combine, support_projection
from .certs import (TOL_ALG, TOL_EXACT, Certificate, ContradictionError,
                    SpectralGapError, ToleranceBudget, DEFAULT_BUDGET,
                    WINDOW_ISO_ETA, WINDOW_ISO_GAMMA, WINDOW_ISO_MU,
                    provenance_stamp)
from .cpmaps import LinMap, arveson_restrict, classify, hom_defect, worst_move
from .averaging import (improve_multiplicativity, intertwining_unitary,
                        projection_conjugator)
from .geometry import nearest_in_span
from .linalg import dagger, opnorm, opnorms

__all__ = [
    "StageRecord",
    "IsoResult",
    "intertwining_iso",
    "close_isomorphism",
    "near_embedding_nuclear",
    "half_flip_cpc",
    "implement_unitarily",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    """The one stage's repair inputs: n_Z, the number of points the closeness
    is certified on (the benchmark tracer sums it as tracked_points), and the
    expectation's closeness on them and homomorphism defect."""
    n_Z: int
    phi_closeness: float
    phi_defect: float

    def to_dict(self) -> dict:
        return {"kind": "stage_record", "schema_version": 1, **self.__dict__}


@dataclass
class IsoResult:
    """A constructed *-homomorphism with its provenance.

    map sends the domain algebra into the codomain algebra; inverse is set
    when the map is a bijection onto the codomain.  trace holds the one stage
    record; certificates hold the quantitative claims.
    """

    map: LinMap
    inverse: LinMap | None
    trace: list[StageRecord]
    certificates: dict
    eta: float
    mu: float
    nu: float
    surjective: bool
    pull_back: tuple | None  # the codomain witnesses and distances, or None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())

    def to_dict(self) -> dict:
        return {"kind": "iso_result", "schema_version": 1,
                "eta": self.eta, "mu": self.mu, "nu": self.nu,
                "surjective": self.surjective,
                "trace": [r.to_dict() for r in self.trace],
                "certificates": {k: c.to_dict() for k, c in self.certificates.items()}}


# ---------------------------------------------------------------------------
# the intertwining
# ---------------------------------------------------------------------------

def intertwining_iso(A: ConcreteAlgebra, B: ConcreteAlgebra, eta: float,
                     X_A=None, mu: float = 1e-4,
                     surjectivity_delta: float | None = None,
                     budget: ToleranceBudget = DEFAULT_BUDGET) -> IsoResult:
    """Injective *-homomorphism alpha: A -> B with ||alpha(x) - x|| <=
    8 sqrt(6) eta^{1/2} + eta + mu for x in X_A, for A within eta/2 of B.

    phi, the expectation onto B restricted to A (``arveson_restrict``), is
    eta-close to the inclusion on A's unit ball and has defect at most 3 eta;
    it is repaired to a homomorphism at gamma = max(3 eta, hom_defect(phi))
    and projected into B.  When surjectivity_delta is given (B inside A to
    that level; the paper's window is at most 1/5), B's normalised basis is
    pulled back into A's unit ball once, at 200 iterations (pull_back),
    closeness covers the accepted witnesses too, and the result is certified
    onto B by dimension count (an injective alpha into B with dim A = dim B is
    onto; the paper's density margin is reported, not checked).  A failed
    ``expectation-restriction`` certificate raises ContradictionError.
    """
    budget.require_window("iso-eta", eta, WINDOW_ISO_ETA)
    budget.require_window("iso-mu", mu, WINDOW_ISO_MU)
    nu = mu / 2.0
    norm_basis = A.normalized_basis
    if X_A is None:
        X_A = list(norm_basis)
    else:
        X_A = [np.asarray(x, dtype=complex) for x in X_A]
    bound_main = 8.0 * np.sqrt(6.0) * np.sqrt(eta) + eta + mu
    bound_nu = 8.0 * np.sqrt(6.0) * np.sqrt(eta) + eta + nu

    pull_back, X_close, pull_details = None, X_A, {}
    if surjectivity_delta is not None:
        xs, dists = nearest_in_span(B.normalized_basis, A, ball=True, iters=200)[:2]
        accepted = dists <= 2.0 / 5.0 + TOL_ALG
        pull_back, X_close = (xs, dists), X_A + list(xs[accepted])
        pull_details = {"pullback_worst": float(dists.max()),
                        "tracking_ok": bool(accepted.all())}

    phi, cert_phi = arveson_restrict(A, B, X_close, gamma=eta / 2.0)
    if not cert_phi.passed:
        raise ContradictionError(f"E_B moves X by {cert_phi.achieved:.3g}: d(A, B) > eta/2")
    phi_defect = hom_defect(phi)
    repair_gamma = float(np.maximum(3.0 * eta, phi_defect))  # a nan defect stays nan
    theta_raw = improve_multiplicativity(phi, gamma=repair_gamma, budget=budget).psi
    theta = LinMap(A, A.ambient_dim, B.project(theta_raw.images), codomain_algebra=B)
    trace = [StageRecord(n_Z=len(X_close), phi_closeness=cert_phi.achieved,
                         phi_defect=phi_defect)]

    # final map: re-project theta into the codomain span
    worst_membership = max(B.membership_residual(theta_raw.images),
                           B.membership_residual(theta.images))
    alpha = LinMap(A, A.ambient_dim, B.project(theta.images), codomain_algebra=B)

    # the ceilings below vanish with eta and mu: a rounding slack keeps the
    # exact case, eta = mu = 0, passing
    achieved = worst_move(alpha, X_close)
    cert_close = Certificate.build(
        name="iso-closeness",
        formula="||alpha(x) - x|| <= 8 sqrt(6) eta^{1/2} + eta + mu on X_A",
        inputs={"eta": eta, "mu": mu, "n_points": len(X_close)},
        ceiling=float(bound_main), achieved=float(achieved), slack=TOL_EXACT,
        provenance=provenance_stamp())
    cert_hom = Certificate.build(
        name="homomorphism",
        formula="matrix-unit relation residual <= tol_alg",
        inputs={}, ceiling=TOL_ALG, achieved=hom_defect(alpha),
        provenance=provenance_stamp())
    cert_member = Certificate.build(
        name="image-membership",
        formula="relative HS residual of images in span(B) <= tol_alg before snapping",
        inputs={}, ceiling=TOL_ALG, achieved=float(worst_membership),
        provenance=provenance_stamp())

    action = B.coeffs(alpha.images).T
    svals = np.linalg.svd(action, compute_uv=False)
    sigma_min = float(svals[-1]) if svals.size else 0.0
    margins = np.maximum(0.0, 1.0 - opnorms(alpha(norm_basis)))
    cert_inj = Certificate.build(
        name="injectivity",
        formula="||alpha(x)|| >= ||x|| - (8 sqrt(6) eta^{1/2} + eta + nu)",
        inputs={"eta": eta, "nu": nu},
        ceiling=float(bound_nu), achieved=float(max(margins)), slack=TOL_EXACT,
        details={"action_sigma_min": sigma_min},
        provenance=provenance_stamp())
    certs = {"closeness": cert_close, "homomorphism": cert_hom,
             "image-membership": cert_member, "injectivity": cert_inj}

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
            formula="sigma_min(alpha) > tol_alg and dim A = dim B with alpha(A) in B, "
                    "so alpha is onto B; density_margin (8 sqrt(2) b + 2 nu + b + "
                    "2 delta, the paper's window quantity) is not checked",
            inputs={"delta": surjectivity_delta, "dim_A": A.dim, "dim_B": B.dim},
            ceiling=0.0, achieved=0.0 if surjective else 1.0,
            details={"density_margin": float(margin), **pull_details},
            provenance=provenance_stamp())

    return IsoResult(map=alpha, inverse=inverse, trace=trace, certificates=certs,
                     eta=float(eta), mu=float(mu), nu=float(nu),
                     surjective=surjective, pull_back=pull_back)


# ---------------------------------------------------------------------------
# two-sided driver
# ---------------------------------------------------------------------------

def close_isomorphism(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                      X=None, budget: ToleranceBudget = DEFAULT_BUDGET) -> IsoResult:
    """Surjective *-isomorphism theta: A -> B from a two-sided distance bound
    d(A, B) <= gamma, with ||theta(x) - x|| and ||theta^{-1}(y) - y|| at most
    28 gamma^{1/2} for x in X and A's basis and for y in B's basis.

    Runs intertwining_iso with eta = 2 gamma, mu = min(gamma^{1/2}, 1/4000)
    and surjectivity_delta = gamma, so that B's basis is pulled back into A's
    unit ball (pull_back) and forward closeness, read from its closeness
    certificate, covers the accepted witnesses too; certifies the reverse
    direction through the chain ||theta^{-1}(y) - y|| <= 2 ||x - y|| +
    ||theta(x) - y|| over those witnesses.  The ceilings vanish with gamma
    and take a rounding slack.
    """
    budget.require_window("close-isomorphism", gamma, WINDOW_ISO_GAMMA)
    if A.dim != B.dim:
        raise ContradictionError(
            f"distance certificate {gamma:.3g} < 1 between algebras of "
            f"different dimensions {A.dim} != {B.dim}")
    X = [np.asarray(x, dtype=complex) for x in ([] if X is None else X)]
    res = intertwining_iso(A, B, eta=2.0 * gamma, X_A=X + list(A.normalized_basis),
                           mu=min(np.sqrt(gamma), 1.0 / 4000.0),
                           surjectivity_delta=gamma, budget=budget)
    theta, close = res.map, res.certificates["closeness"]
    ceiling = 28.0 * np.sqrt(gamma)
    res.certificates["forward-closeness"] = Certificate.build(
        name="forward-closeness",
        formula="||theta(x) - x|| <= 28 gamma^{1/2} on X",
        inputs={"gamma": gamma, "n_points": close.inputs["n_points"]},
        ceiling=float(ceiling), achieved=close.achieved, slack=TOL_EXACT,
        provenance=provenance_stamp())
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
        ceiling=float(ceiling), achieved=float(worst_move(res.inverse, Y)),
        slack=TOL_EXACT, details={"chain_bound": float(chain_worst)},
        provenance=provenance_stamp())
    return res


def near_embedding_nuclear(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                           X=None, budget: ToleranceBudget = DEFAULT_BUDGET
                           ) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    28 gamma^{1/2} on X, from a one-sided near inclusion A in B at gamma;
    intertwining_iso runs with eta = 2 gamma and mu = min(gamma^{1/2},
    1/4000)."""
    budget.require_window("near-embedding", gamma, WINDOW_ISO_GAMMA)
    mu = min(np.sqrt(gamma), 1.0 / 4000.0)
    if X is None:
        X = list(A.normalized_basis)
    else:
        X = [np.asarray(x, dtype=complex) for x in X]
    res = intertwining_iso(A, B, eta=2.0 * gamma, X_A=X, mu=mu, budget=budget)
    cert = Certificate.build(
        name="near-embedding",
        formula="||theta(x) - x|| <= 28 gamma^{1/2} on X",
        inputs={"gamma": gamma, "n_points": len(X),
                "sigma_min": res.certificates["injectivity"].details["action_sigma_min"]},
        ceiling=float(28.0 * np.sqrt(gamma)), achieved=res.certificates["closeness"].achieved,
        slack=TOL_EXACT, provenance=provenance_stamp())
    return res.map, cert


# ---------------------------------------------------------------------------
# half flip transport
# ---------------------------------------------------------------------------

def _projection_near_unit(e: np.ndarray, B: ConcreteAlgebra, gamma: float) -> np.ndarray:
    """Projection p in B with ||p - e|| <= 2 gamma, from the spectral cut of
    a hermitian near-best approximant of the support projection e."""
    y = nearest_in_span(e, B, ball=True, iters=300)[0]
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


def half_flip_cpc(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                  X=None) -> tuple[LinMap, Certificate]:
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

    worst = worst_move(phi, X)
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
        provenance=provenance_stamp())
    return phi, cert


# ---------------------------------------------------------------------------
# unitary implementation
# ---------------------------------------------------------------------------

def implement_unitarily(theta: LinMap, budget: ToleranceBudget = DEFAULT_BUDGET
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
    defect = hom_defect(theta)
    if not defect <= TOL_ALG:  # a nan defect certifies nothing either
        raise ValueError(
            f"map is not a homomorphism to tol_alg (defect {defect:.3g}); "
            "repair it before implementing unitarily")
    inclusion = LinMap(A, A.ambient_dim, A.basis, codomain_algebra=A)
    gamma_basis = theta.basis_distance(inclusion)
    try:
        res = intertwining_unitary(theta, inclusion, gamma=gamma_basis,
                                   delta=defect, budget=budget)
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
        provenance=provenance_stamp())
    return u, cert

