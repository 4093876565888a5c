"""The amenability average of a block algebra and the constructions built on
it: twirls onto commutants, projection conjugation unitaries, the
multiplicativity repair of nearly multiplicative cpc maps, and intertwining
unitaries between close nearly multiplicative maps.

The central object is the canonical separability element
w = sum_k (1/n_k) sum_ij e_ij (x) e_ji of A = (+)_k M_{n_k}, the amenability
average (Johnson 1988).  Every average below is linear in w, so it is
``canonical_average`` on the sum_k n_k^2 matrix units, with no unitary
family formed: the twirl sum_k (1/n_k) sum_ij e_ij y e_ji and the averaged
intertwiner sum_k (1/n_k) sum_ij f(e_ij) g(e_ji).  On the repair's
representation e_ij (x) 1_{r_k} the twirl has a closed form, a partial
trace per block, so the repair forms neither the representation nor a
product with it.  The multiplication image of w is the unit, so twirled
projections commute with the representation exactly, and intertwiners of
exact homomorphisms intertwine exactly.

The averaging layer draws no samples.  The two suprema over the unit ball
that it certifies, the repair's ||phi - psi|| and the intertwiner's default
gamma, are the upper end of ``cpmaps.cb_bracket`` of the difference map,
rounded outward, so each is a proven upper bound (||.|| <= ||.||_cb).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certs
from .algebra import FDAlgebra
from .certs import Certificate, SpectralGapError
from .cpmaps import (LinMap, cb_bracket, dilation_images, hom_defect, stinespring,
                     ucp_extension)
from .linalg import (chunk_length, dagger, herm, opnorm, opnorm_max, opnorms, polar_factor,
                     psd_sqrt)

__all__ = [
    "canonical_average",
    "projection_conjugator",
    "RepairResult",
    "improve_multiplicativity",
    "IntertwinerResult",
    "intertwining_unitary",
    "GAP_WINDOW",
]

# forbidden spectral window around 1/2 for the twirled compression
GAP_WINDOW = (0.496, 0.504)


# ---------------------------------------------------------------------------
# the canonical average
# ---------------------------------------------------------------------------

def canonical_average(fd: FDAlgebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k (1/n_k) sum_ij left[e_ij] @ right[e_ji] over two stacks indexed
    by the matrix units e_ij of fd = (+)_k M_{n_k} in (k, i, j) order: the
    canonical separability element evaluated on left (x) right.  The twirl of
    y over unit images E, sum_k (1/n_k) sum_ij E_ij y E_ji, is
    canonical_average(fd, E @ y, E).  Each slice of ``linalg.chunk_length``
    units is one contraction over the unit and inner axes, so no stack of the
    products is formed."""
    scale = 1.0 / np.repeat(fd.block_sizes, [n * n for n in fd.block_sizes])
    step, flip = chunk_length(left[:1].nbytes, 4), fd.unit_transpose
    return sum(np.tensordot(scale[s, None, None] * left[s], right[flip[s]], axes=([0, 2], [0, 1]))
               for s in (slice(a, a + step) for a in range(0, len(left), step)))


# ---------------------------------------------------------------------------
# projection conjugators
# ---------------------------------------------------------------------------

def projection_conjugator(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, Certificate]:
    """Unitary w with w p w* = q and ||w - 1|| <= sqrt(2) ||p - q||.

    w is the polar part of x = q p + (1 - q)(1 - p), which intertwines p and
    q; x is invertible iff ||p - q|| < 1.
    """
    n = p.shape[0]
    for name, r in (("p", p), ("q", q)):
        if opnorm(r @ r - r) > 1e-8 or opnorm(dagger(r) - r) > 1e-8:
            raise ValueError(f"{name} is not a projection")
    beta = opnorm(p - q)
    if beta >= 1.0:
        raise SpectralGapError(
            f"projections at distance {beta:.4g} >= 1 cannot be conjugated by "
            "the polar construction")
    eye = np.eye(n)
    x = q @ p + (eye - q) @ (eye - p)
    w = polar_factor(x)
    conj_defect = opnorm(w @ p @ dagger(w) - q)
    achieved = opnorm(w - eye)
    cert = Certificate.build("projection-conjugator", {"beta": beta}, achieved,
                             details={"conjugation_defect": float(conj_defect)})
    if conj_defect > 1e-8:
        raise SpectralGapError(
            f"conjugation defect {conj_defect:.3g}; the intertwining matrix is "
            "too close to singular")
    return w, cert


# ---------------------------------------------------------------------------
# multiplicativity repair
# ---------------------------------------------------------------------------

@dataclass
class RepairResult:
    """Outcome of the multiplicativity repair.

    psi is the repaired map on the original domain, exactly multiplicative up
    to floating point, with ||phi - psi|| <= 8 sqrt(2) gamma^{1/2} on the
    unit ball.  certificates: drift (twirled projection), conjugator,
    distance (headline), multiplicativity (output defect).
    """

    psi: LinMap
    gamma: float
    certificates: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def improve_multiplicativity(phi: LinMap, gamma: float | None = None) -> RepairResult:
    """Repair a nearly multiplicative cpc map into an exact homomorphism.

    Given cpc phi: A -> M_K with multiplicativity defect gamma on the unit
    ball (by default ``hom_defect(phi)``, its defect at the matrix units, an
    estimate from below), produces a *-homomorphism psi with ||phi - psi|| <=
    8 sqrt(2) gamma^{1/2} on the unit ball (paper track: gamma <= 1/17).

    Construction: extend to a ucp map on the unitized domain, dilate, twirl
    the compression projection p over the represented matrix units (the twirl
    p0 then commutes with the representation exactly and ||p0 - p|| <=
    2 gamma^{1/2}), cut at the spectral gap around 1/2, conjugate p onto the
    resulting commutant projection q, and compress the representation.  As
    the representation is e_ij (x) 1_{r_k} on block k, p0 is 1_{n_k} (x)
    tr_{n_k}(p_kk) / n_k there (tr_{n_k} the partial trace over M_{n_k} of
    p's diagonal block), the gap check and the cut run on the r_k x r_k
    blocks, and psi(e_ij) = M_{k,i}* M_{k,j} for M = w V E*.

    The ``multiplicativity-repair`` certificate's achieved value is the hi of
    ``cb_bracket(phi - psi)``, a proven bound on sup ||phi(x) - psi(x)|| over
    the unit ball; the bracket's lo is in its details as ``cb_lo``.
    """
    ext = ucp_extension(phi)  # raises ValueError unless phi is cpc
    if gamma is None:
        gamma = hom_defect(phi)
    certs.require_window("multiplicativity-repair", gamma=gamma)

    # cut the Kraus rank at rounding scale, not at the cp-validation slack:
    # discarded Choi mass reappears verbatim as homomorphism defect of psi
    dil = stinespring(ext, tol_psd=1e-13)
    V = dil.isometry
    p = V @ dagger(V)

    # on block k, p0 = 1_{n_k} (x) t and q = 1_{n_k} (x) (t's projection above the gap)
    p0, q = np.zeros_like(p), np.zeros_like(p)
    lo, hi = GAP_WINDOW
    off = 0
    for n, r in zip(ext.domain.block_sizes, dil.ranks):
        at = slice(off, off + n * r)
        t = herm(np.trace(p[at, at].reshape(n, r, n, r), axis1=0, axis2=2) / n)
        vals, vecs = np.linalg.eigh(t)
        inside = (vals > lo) & (vals < hi)
        if inside.any():
            raise SpectralGapError(
                f"twirled compression has spectrum in ({lo}, {hi}): "
                f"{vals[inside]}; the repair window is violated")
        keep = vecs[:, vals >= hi]
        p0[at, at] = np.kron(np.eye(n), t)
        q[at, at] = np.kron(np.eye(n), keep @ dagger(keep))
        off += n * r
    cert_drift = Certificate.build("twirled-projection-drift", {"gamma": gamma}, opnorm(p0 - p))

    w, cert_conj = projection_conjugator(p, q)
    # psi: compress the conjugated representation on phi's blocks, which come
    # before the extension's block
    images = dilation_images(phi.fd.block_sizes, dil.ranks, w @ V @ dagger(dil.embed))
    psi = LinMap(phi.domain, images, codomain_algebra=phi.codomain_algebra)

    # ||phi - psi|| <= ||phi - psi||_cb, so the bracket's hi bounds the sup
    cb_lo, cb_hi = cb_bracket(phi - psi)
    cert_dist = Certificate.build("multiplicativity-repair", {"gamma": gamma}, cb_hi,
                                  details={"cb_lo": cb_lo})
    cert_mult = Certificate.build("repaired-multiplicativity", {}, hom_defect(psi))

    return RepairResult(psi=psi, gamma=float(gamma),
                        certificates={"drift": cert_drift, "conjugator": cert_conj,
                                      "distance": cert_dist, "multiplicativity": cert_mult})


# ---------------------------------------------------------------------------
# intertwining unitaries
# ---------------------------------------------------------------------------

@dataclass
class IntertwinerResult:
    """Unitary u with Ad(u) . phi2 ~ phi1, plus its certificates."""

    u: np.ndarray
    gamma: float
    delta: float
    certificates: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def intertwining_unitary(phi1: LinMap, phi2: LinMap,
                         gamma: float | None = None,
                         delta: float | None = None) -> IntertwinerResult:
    """Unitary u close to 1 with u phi2(x) u* ~ phi1(x).

    For *-homomorphisms phi1, phi2 at unit-ball distance gamma the averaged
    intertwiner s = sum_t lambda_t phi1~(u_t*) phi2~(u_t) satisfies
    phi1(x) s = s phi2(x) exactly, and the polar part u of s is a unitary
    with ||u - 1|| <= 2 sqrt(2) gamma + 5 sqrt(2) delta, where delta bounds
    the multiplicativity defects (by default their ``hom_defect``).  gamma
    defaults to the hi of ``cb_bracket(phi1 - phi2)``, a proven bound on the
    unit-ball distance (0.0 for a map paired with itself).  The
    conjugation residual is certified against the measured chain bound
    (||phi1(x) s - s phi2(x)|| + ||[|s|, phi2(x)]||) * |||s|^{-1}||.
    """
    # an FDAlgebra compares by its block sizes, a ConcreteAlgebra by identity
    if phi1.domain != phi2.domain:
        raise ValueError("the two maps have different domains")
    if phi1.codomain_dim != phi2.codomain_dim:
        raise ValueError("codomain mismatch")
    if delta is None:
        delta = float(np.maximum(hom_defect(phi1), hom_defect(phi2) if phi2 is not phi1 else 0.0))
    if gamma is None:
        gamma = cb_bracket(phi1 - phi2)[1]
    certs.require_window("intertwiner-norm", gamma=gamma)

    # extend against the ambient unit: the averaged s must be invertible on
    # the whole ambient space, not just under the codomain support
    e1 = ucp_extension(LinMap(phi1.domain, phi1.images))
    e2 = e1 if phi2 is phi1 else ucp_extension(LinMap(phi2.domain, phi2.images))
    # s = sum_k (1/n_k) sum_ij e1(e_ij) e2(e_ji), paired on the stored images
    s = canonical_average(e1.fd, e1.images, e2.images)
    K = phi1.codomain_dim
    sing = np.linalg.svd(s, compute_uv=False)
    if sing[-1] <= 1e-6:
        raise SpectralGapError(
            f"averaged intertwiner nearly singular (s_min = {sing[-1]:.3g}); "
            "the maps are too far apart to intertwine")
    u = polar_factor(s)
    cert_u = Certificate.build("intertwiner-norm", {"gamma": gamma, "delta": delta},
                               opnorm(u - np.eye(K)))

    abs_s = psd_sqrt(dagger(s) @ s)
    inv_norm = float(1.0 / sing[-1])
    x1, x2 = phi1.images, phi2.images  # the values on the matrix units
    worst_res = opnorm_max(u @ x2 @ dagger(u) - x1)
    worst_chain = ((opnorms(x1 @ s - s @ x2) + opnorms(abs_s @ x2 - x2 @ abs_s))
                   * inv_norm).max()
    cert_res = Certificate.build("intertwining-residual",
                                 {"s_min": float(sing[-1]), "chain_bound": float(worst_chain)},
                                 worst_res)
    return IntertwinerResult(u=u, gamma=float(gamma), delta=float(delta),
                             certificates={"norm": cert_u, "residual": cert_res})
