"""Intertwining between close algebras: a *-isomorphism from the expectation
onto the codomain, the two-sided close-isomorphism driver, near embeddings,
and exact unitary implementation of isomorphisms.

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
2 d(y, A_1) of y.  The pull-back is such a projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ConcreteAlgebra, _combine
from . import certs
from .certs import TOL_ALG, Certificate, ContradictionError, SpectralGapError
from .cpmaps import LinMap, arveson_restrict, hom_defect, worst_move
from .averaging import improve_multiplicativity, intertwining_unitary
from .linalg import dagger, opnorm, opnorms

__all__ = [
    "StageRecord",
    "IsoResult",
    "intertwining_iso",
    "close_isomorphism",
    "near_embedding_nuclear",
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

