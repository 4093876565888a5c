"""Intertwining between close algebras: a *-isomorphism from the expectation
onto the codomain, the two-sided close-isomorphism driver, near embeddings,
half-flip transport maps, and exact unitary implementation of isomorphisms.

The paper's staged intertwining exhausts a nuclear A by growing finite sets,
because a cpc map is close to the inclusion only on finite sets.  Here A is
finite-dimensional and the expectation onto B, restricted to A, is close to
the inclusion on A's whole unit ball, so the exhaustion stops at its first
stage: that one map is repaired to a homomorphism once and projected into B.
close_isomorphism pulls the codomain basis back into A once per call, and
reads B's witnesses and its forward closeness from that pull-back.

Every unit-ball witness is a projection, not a solve: the HS projection onto
a C*-subalgebra of M_N is its conditional expectation, which is cpc
(Umegaki; Tomiyama), so E_A(y) lies in A's unit ball for y in B's, within
2 d(y, A_1) of y.  The pull-back, the approximate unit that the half flip
cuts and the half flip's tensor witness are such projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ConcreteAlgebra, _combine, support_projection
from . import certs
from .certs import TOL_ALG, Certificate, ContradictionError, SpectralGapError
from .cpmaps import LinMap, arveson_restrict, classify, hom_defect, worst_move
from .averaging import (improve_multiplicativity, intertwining_unitary,
                        projection_conjugator)
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


@dataclass
class IsoResult:
    """A constructed *-homomorphism with its provenance.

    map sends the domain algebra into the codomain algebra; inverse, set
    when the map is a bijection onto the codomain, is y -> map^{-1}(y) on the
    codomain, read from y's coefficients over the codomain's basis (so the
    codomain's structure is never computed).  trace holds the one stage
    record; certificates hold the quantitative claims.  eta and mu are the
    closeness and drift budget the map was built at, and nu = mu / 2.
    """

    map: LinMap
    inverse: Callable[[np.ndarray], np.ndarray] | None
    trace: list[StageRecord]
    certificates: dict
    eta: float
    mu: float

    @property
    def nu(self) -> float:
        return self.mu / 2.0


# ---------------------------------------------------------------------------
# the intertwining
# ---------------------------------------------------------------------------

def intertwining_iso(A: ConcreteAlgebra, B: ConcreteAlgebra, eta: float, X_A,
                     mu: float) -> IsoResult:
    """Injective *-homomorphism alpha: A -> B with ||alpha(x) - x|| <=
    8 sqrt(6) eta^{1/2} + eta + mu for x in X_A, for A within eta/2 of B.

    phi, the expectation onto B restricted to A (``arveson_restrict``), is
    eta-close to the inclusion on A's unit ball and has defect at most 3 eta;
    it is repaired to a homomorphism at gamma = max(3 eta, hom_defect(phi))
    and projected into B.  The result has an inverse when alpha is onto B,
    which for an injective alpha is the dimension count dim A = dim B.  A
    failed ``expectation-restriction`` certificate raises ContradictionError.
    """
    certs.require_window("iso-closeness", eta=eta, mu=mu)
    X_close = [np.asarray(x, dtype=complex) for x in X_A]

    phi, cert_phi = arveson_restrict(A, B, X_close, gamma=eta / 2.0)
    if not cert_phi.passed:
        raise ContradictionError(f"E_B moves X by {cert_phi.achieved:.3g}: d(A, B) > eta/2")
    phi_defect = hom_defect(phi)
    repair_gamma = float(np.maximum(3.0 * eta, phi_defect))  # a nan defect stays nan
    theta = improve_multiplicativity(phi, gamma=repair_gamma).psi
    trace = [StageRecord(n_Z=len(X_close), phi_closeness=cert_phi.achieved,
                         phi_defect=phi_defect)]

    # final map: snap the repaired images into B's span, after measuring
    # how far they are from it
    cert_member = Certificate.build("image-membership", {}, B.membership_residual(theta.images))
    alpha = LinMap(A, B.project(theta.images), codomain_algebra=B)

    cert_close = Certificate.build("iso-closeness",
                                   {"eta": eta, "mu": mu, "n_points": len(X_close)},
                                   worst_move(alpha, X_close))
    cert_hom = Certificate.build("homomorphism", {}, hom_defect(alpha))

    action = B.coeffs(alpha(A.basis)).T  # from A's HS-orthonormal basis onto B's
    svals = np.linalg.svd(action, compute_uv=False)
    sigma_min = float(svals[-1]) if svals.size else 0.0
    margins = np.maximum(0.0, 1.0 - opnorms(alpha(A.normalized_basis)))
    cert_inj = Certificate.build("injectivity", {"eta": eta, "nu": mu / 2.0}, max(margins),
                                 details={"action_sigma_min": sigma_min})
    out = {"closeness": cert_close, "homomorphism": cert_hom,
           "image-membership": cert_member, "injectivity": cert_inj}

    inverse = None
    if sigma_min > TOL_ALG and A.dim == B.dim:
        inv_images = _combine(np.linalg.inv(action).T, A.basis)  # alpha^{-1} of B's basis

        def inverse(y):
            return _combine(B.coeffs(y), inv_images)

    return IsoResult(map=alpha, inverse=inverse, trace=trace, certificates=out,
                     eta=float(eta), mu=float(mu))


# ---------------------------------------------------------------------------
# two-sided driver
# ---------------------------------------------------------------------------

def close_isomorphism(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float) -> IsoResult:
    """Surjective *-isomorphism theta: A -> B from a two-sided distance bound
    d(A, B) <= gamma, with ||theta(x) - x|| and ||theta^{-1}(y) - y|| at most
    28 gamma^{1/2} for x in A's basis and for y in B's basis.

    B's normalised basis is pulled back into A's unit ball once, by the
    projection E_A (cpc, so each witness x = E_A(y) is within 2 d(y, A_1) of
    y), and intertwining_iso runs with eta = 2 gamma and mu =
    min(gamma^{1/2}, 1/4000) on A's normalised basis and the accepted
    witnesses (distance at most 2/5), so forward closeness, read from its
    closeness certificate, covers them too.  The map is certified onto B by
    the dimension count (an injective map into B with dim A = dim B is
    onto), and the reverse direction through the chain ||theta^{-1}(y) - y||
    <= 2 ||x - y|| + ||theta(x) - y|| over the witnesses.  The ceilings
    vanish with gamma and take a rounding slack.
    """
    certs.require_window("forward-closeness", gamma=gamma)
    if A.dim != B.dim:
        raise ContradictionError(
            f"distance certificate {gamma:.3g} < 1 between algebras of "
            f"different dimensions {A.dim} != {B.dim}")
    Xs = A.project(B.normalized_basis)
    dists = opnorms(B.normalized_basis - Xs)
    accepted = dists <= 2.0 / 5.0 + TOL_ALG
    res = intertwining_iso(A, B, eta=2.0 * gamma,
                           X_A=list(A.normalized_basis) + list(Xs[accepted]),
                           mu=min(np.sqrt(gamma), 1.0 / 4000.0))
    if res.inverse is None:
        raise SpectralGapError("constructed map is not invertible; "
                               "cannot certify the reverse bound")
    theta, close = res.map, res.certificates["closeness"]
    res.certificates["surjectivity"] = Certificate.build(  # onto: it has an inverse
        "surjectivity", {"delta": gamma, "dim_A": A.dim, "dim_B": B.dim}, 0.0,
        details={"pullback_worst": float(dists.max()), "tracking_ok": bool(accepted.all())})
    res.certificates["forward-closeness"] = Certificate.build(
        "forward-closeness", {"gamma": gamma, "n_points": close.inputs["n_points"]},
        close.achieved)
    Y = B.normalized_basis
    chain_worst = (2.0 * dists + opnorms(theta(Xs) - Y)).max()
    res.certificates["backward-closeness"] = Certificate.build(
        "backward-closeness", {"gamma": gamma, "n_points": len(Y)},
        worst_move(res.inverse, Y), details={"chain_bound": float(chain_worst)})
    return res


def near_embedding_nuclear(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                           X=None) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    28 gamma^{1/2} on X, from a one-sided near inclusion A in B at gamma;
    intertwining_iso runs with eta = 2 gamma and mu = min(gamma^{1/2},
    1/4000)."""
    certs.require_window("near-embedding", gamma=gamma)
    mu = min(np.sqrt(gamma), 1.0 / 4000.0)
    if X is None:
        X = list(A.normalized_basis)
    else:
        X = [np.asarray(x, dtype=complex) for x in X]
    res = intertwining_iso(A, B, eta=2.0 * gamma, X_A=X, mu=mu)
    cert = Certificate.build(
        "near-embedding",
        {"gamma": gamma, "n_points": len(X),
         "sigma_min": res.certificates["injectivity"].details["action_sigma_min"]},
        res.certificates["closeness"].achieved)
    return res.map, cert


# ---------------------------------------------------------------------------
# half flip transport
# ---------------------------------------------------------------------------

def _projection_near_unit(e: np.ndarray, B: ConcreteAlgebra, gamma: float) -> np.ndarray:
    """Projection p in B with ||p - e|| <= 2 gamma, from the spectral cut of
    the hermitian part of E_B(e), the projection of the support projection e
    into B's unit ball."""
    y = B.project(e)
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
    B0 = 1_A u B u* 1_A, project the exact flip v in A (x) A to the unit-ball
    witness w = E(v) in span(B0 (x) A), and slice with a vector state:
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
    w = tensor_span.project(v)
    wdist = opnorm(v - w)
    alpha = (4.0 * np.sqrt(2.0) + 1.0) * gamma + 4.0 * np.sqrt(2.0) * gamma ** 2
    alpha_prime = gamma + 4.0 * np.sqrt(2.0) * gamma * (1.0 + gamma)
    w_ceiling = 2.0 * (2.0 * alpha_prime + alpha_prime ** 2)

    vals, vecs = np.linalg.eigh(e)
    xi = vecs[:, vals > 0.5][:, 0]

    # phi(b) = u* R(w (e (x) b) w*) u for each matrix unit b, with R the
    # slice by the vector state of xi
    lifted = np.einsum("ij,bkl->bikjl", e, struct.matrix_units).reshape(-1, N * N, N * N)
    mid = w @ lifted @ dagger(w)
    images = np.einsum("bikjl,k,l->bij", mid.reshape(-1, N, N, N, N), xi.conj(), xi)
    phi = LinMap(A, dagger(u) @ images @ u, codomain_algebra=B)

    worst = worst_move(phi, X)
    member = B.membership_residual(phi.images)
    cls = classify(phi)
    cert = Certificate.build(
        "half-flip-transport", {"gamma": gamma, "alpha": float(alpha), "n_points": len(X)},
        worst, details={"witness_distance": float(wdist), "witness_ceiling": float(w_ceiling),
                        "projection_distance": float(opnorm(p - e)),
                        "conjugator_norm": cert_u.achieved, "image_residual": float(member),
                        "cpc": bool(cls.cpc)})
    return phi, cert


# ---------------------------------------------------------------------------
# unitary implementation
# ---------------------------------------------------------------------------

def implement_unitarily(theta: LinMap) -> tuple[np.ndarray, Certificate]:
    """Unitary u with u x u* = theta(x) for all x in the domain, so the
    domain algebra is carried onto its image as a subspace.

    Uses the averaged intertwiner between the inclusion and the map, both
    exact homomorphisms, so the conjugation identity holds to machine
    precision; ||u - I|| <= 2 sqrt(2) gamma where gamma is the measured
    deviation of the map from the inclusion on A's normalised basis.
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
    inclusion = LinMap(A, A.structure().matrix_units, codomain_algebra=A)
    gamma_basis = worst_move(theta, A.normalized_basis)
    try:
        res = intertwining_unitary(theta, inclusion, gamma=gamma_basis,
                                   delta=defect)
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
    subspace = 0.0 if B is None else np.maximum(B.membership_residual(conj),
                                                A.membership_residual(dagger(u) @ B.basis @ u))
    cert = Certificate.build(
        "unitary-implementation", {"gamma_basis": float(gamma_basis), "defect": float(defect)},
        worst_conj, details={"u_norm": float(opnorm(u - np.eye(N))),
                             "u_norm_ceiling": res.certificates["norm"].ceiling,
                             "unitary_defect": float(unitary_defect),
                             "subspace_residual": float(subspace),
                             "subspace_ceiling": 10.0 * TOL_ALG})
    return u, cert

