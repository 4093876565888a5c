"""Exact averaging over finite unitary families and the constructions built
on it: twirls onto commutants, polar/projection conjugation unitaries, the
multiplicativity repair of nearly multiplicative cpc maps, and intertwining
unitaries between close nearly multiplicative maps.

The central object is the canonical separability element
w = sum_k (1/n_k) sum_ij e_ij (x) e_ji of A = (+)_k M_{n_k}, the amenability
average (Johnson 1988).  Every average below is linear in u (x) u* over a
unitary family averaging to w, so it is ``canonical_average`` on the
sum_k n_k^2 matrix units: the twirl sum_k (1/n_k) sum_ij e_ij y e_ji, the
averaged intertwiner sum_k (1/n_k) sum_ij f(e_ij) g(e_ji), the repair's
twirled compression.  Where actual unitaries are needed, ``exact_diagonal``
gives at most r (sum n_k^2 - r + 1) unitaries averaging to w exactly.  Twirled
projections thus commute with the representation to machine precision, and
intertwiners of exact homomorphisms intertwine exactly.

The averaging layer draws no samples.  The two suprema over the unit ball
that it certifies, the repair's ||phi - psi|| and the intertwiner's default
gamma, are the upper end of ``cpmaps.cb_bracket`` of the difference map,
rounded outward, so each is a proven upper bound (||.|| <= ||.||_cb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from .certs import (TOL_ALG, TOL_EXACT, Certificate, SpectralGapError,
                    ToleranceBudget, DEFAULT_BUDGET, WINDOW_DEFECT_REPAIR,
                    WINDOW_INTERTWINE, provenance_stamp)
from .cpmaps import LinMap, cb_bracket, classify, hom_defect, stinespring, ucp_extension
from .linalg import dagger, herm, opnorm, opnorm_max, opnorms, polar_factor, psd_sqrt

__all__ = [
    "AveragingSet",
    "canonical_average",
    "weyl_unitaries",
    "exact_diagonal",
    "polar_unitary",
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
# averaging families
# ---------------------------------------------------------------------------

def weyl_unitaries(n: int) -> list[np.ndarray]:
    """The n^2 shift-and-phase unitaries S^a D^b of M_n.

    S is the cyclic shift, D the diagonal of n-th roots of unity; the family
    is an HS-orthogonal unitary basis of M_n.
    """
    S = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return [np.linalg.matrix_power(S, a) @ np.diag(np.exp(2j * np.pi * b * np.arange(n) / n))
            for a in range(n) for b in range(n)]


def _canonical_index(block_sizes) -> tuple[np.ndarray, np.ndarray]:
    """For the matrix units e_ij of block k in (k, i, j) order: the weight
    1/n_k of each, and the position of its transpose e_ji."""
    scale, flip, pos = [], [], 0
    for n in block_sizes:
        scale += [1.0 / n] * (n * n)
        flip += list(pos + np.arange(n * n).reshape(n, n).T.reshape(-1))
        pos += n * n
    return np.array(scale), np.array(flip, dtype=int)


def canonical_average(block_sizes, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k (1/n_k) sum_ij left[e_ij] @ right[e_ji] over two stacks indexed
    by the matrix units e_ij of (+)_k M_{n_k} in (k, i, j) order: the
    canonical separability element evaluated on left (x) right.  The twirl of
    y over unit images E, sum_k (1/n_k) sum_ij E_ij y E_ji, is
    canonical_average(block_sizes, E @ y, E)."""
    scale, flip = _canonical_index(block_sizes)
    return np.matmul(scale[:, None, None] * left, right[flip]).sum(axis=0)


@dataclass
class AveragingSet:
    """Weighted unitary family with the exact-diagonal property.

    terms[t] are unitaries of the algebra (relative to its unit), weights sum
    to one, and sum_t weights[t] * (terms[t] (x) terms[t]*) equals the
    canonical separability element sum_k (1/n_k) sum_ij e_ij (x) e_ji, whose
    matrix units are units[p] in (k, i, j) order.  Averages linear in
    u (x) u* are ``canonical_average`` on the units, not sums over the terms.
    """

    weights: np.ndarray
    terms: np.ndarray
    unit: np.ndarray
    block_sizes: tuple[int, ...]
    units: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.terms)


def exact_diagonal(A: FDAlgebra | ConcreteAlgebra) -> AveragingSet:
    """Averaging family of A whose tensor average is exactly the canonical
    separability element.

    With r blocks, L = lcm(n_k^2) and omega = exp(2 pi i / r), cut [0, L) at
    every multiple of L / n_k^2 for every k.  Each interval [s, e) and c in
    Z_r give the term u_{c,s} = (+)_k omega^{ck} W_k(floor(s n_k^2 / L)) of
    weight (e - s) / (rL), where W_k(a) is the a-th shift-and-phase unitary
    of block k: the comonotone coupling of the uniform laws on the Z_{n_k^2}.
    The phase sum over c cancels every cross-block term of sum u (x) u*;
    inside block k every index a carries weight 1/n_k^2, so the block
    averages the HS-orthogonal basis W_k to (1/n_k) times the flip, its
    canonical element.  So at most r (sum n_k^2 - r + 1) terms are exact;
    where every n_k^2 is 1 or L they are the r L terms of weight 1/(rL)
    u_{c,t} = (+)_k omega^{ck} W_k(t mod n_k^2), t in Z_L.
    """
    if isinstance(A, ConcreteAlgebra):
        struct = A.structure()
        block_sizes, units, unit = struct.block_sizes, struct.matrix_units, A.support
    else:
        block_sizes, units, unit = tuple(A.block_sizes), A.units(), A.unit()
    r = len(block_sizes)
    L = math.lcm(*(n * n for n in block_sizes))
    cuts = np.array(sorted({a * L // (n * n) for n in block_sizes for a in range(n * n)} | {L}))
    start = cuts[:-1]
    c = np.arange(r)[:, None, None]
    # coefficient of the unit e_ij of block k in the term (c, s)
    coeffs = np.concatenate(
        [np.exp(2j * np.pi * (c * k % r) / r)
         * np.array(weyl_unitaries(n)).reshape(n * n, n * n)[start * (n * n) // L]
         for k, n in enumerate(block_sizes)], axis=2).reshape(r * len(start), -1)
    m = units.shape[-1]
    terms = (coeffs @ units.reshape(len(units), m * m)).reshape(-1, m, m)
    weights = np.tile(np.diff(cuts) / (r * L), r)
    return AveragingSet(weights=weights, terms=terms, unit=np.asarray(unit, dtype=complex),
                        block_sizes=block_sizes, units=units)


# ---------------------------------------------------------------------------
# polar and projection conjugators
# ---------------------------------------------------------------------------

def polar_unitary(t: np.ndarray) -> tuple[np.ndarray, Certificate]:
    """Unitary polar part u of t with the closeness certificate
    ||u - 1|| <= sqrt(2) ||t - 1||, valid when ||t - 1|| < 1."""
    t = np.asarray(t, dtype=complex)
    beta = opnorm(t - np.eye(t.shape[0]))
    u = polar_factor(t)
    achieved = opnorm(u - np.eye(t.shape[0]))
    ceiling = np.sqrt(2.0) * beta if beta < 1.0 else 2.0
    cert = Certificate.build(
        name="polar-unitary",
        formula="||u - 1|| <= sqrt(2) * ||t - 1||   (||t - 1|| < 1; else <= 2)",
        inputs={"beta": beta},
        ceiling=float(ceiling), achieved=float(achieved), slack=TOL_EXACT,
        provenance=provenance_stamp())
    return u, cert


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
    cert = Certificate.build(
        name="projection-conjugator",
        formula="||w - 1|| <= sqrt(2) * ||p - q||, w p w* = q",
        inputs={"beta": beta},
        ceiling=float(np.sqrt(2.0) * beta), achieved=float(achieved), slack=TOL_EXACT,
        details={"conjugation_defect": float(conj_defect)},
        provenance=provenance_stamp())
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
    conjugator: np.ndarray
    dilation: object

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def improve_multiplicativity(phi: LinMap, gamma: float | None = None,
                             budget: ToleranceBudget = DEFAULT_BUDGET) -> RepairResult:
    """Repair a nearly multiplicative cpc map into an exact homomorphism.

    Given cpc phi: A -> M_K with multiplicativity defect gamma on the unit
    ball (by default ``hom_defect(phi)``, its defect at the matrix units, an
    estimate from below), produces a *-homomorphism psi with ||phi - psi|| <=
    8 sqrt(2) gamma^{1/2} on the unit ball (paper track: gamma <= 1/17).

    Construction: extend to a ucp map on the unitized domain, dilate, twirl
    the compression projection p over the represented matrix units (the twirl
    p0 then commutes with the representation exactly and ||p0 - p|| <=
    2 gamma^{1/2}), cut at the spectral gap around 1/2, conjugate p onto the
    resulting commutant projection q, and compress the representation.

    The ``multiplicativity-repair`` certificate's achieved value is the hi of
    ``cb_bracket(phi - psi)``, a proven bound on sup ||phi(x) - psi(x)|| over
    the unit ball; the bracket's lo is in its details as ``cb_lo``.
    """
    abstract, model = phi.to_block_model()
    cls = classify(abstract)
    if not cls.cpc:
        raise ValueError(
            f"repair requires a cpc map (||phi(1)|| = {cls.norm_of_unit:.6g}, "
            f"choi min eig {cls.choi_min_eig:.2e})")
    if gamma is None:
        gamma = hom_defect(abstract)
    budget.require_window("multiplicativity-repair", gamma, WINDOW_DEFECT_REPAIR)
    root = float(np.sqrt(max(gamma, 0.0)))

    ext = ucp_extension(abstract)
    fd_ext: FDAlgebra = ext.domain
    # cut the Kraus rank at rounding scale, not at the cp-validation slack:
    # discarded Choi mass reappears verbatim as homomorphism defect of psi
    dil = stinespring(ext, tol_psd=1e-13)
    K = dil.dilation_dim
    p = dil.compression

    # p0 = sum_k (1/n_k) sum_ij pi(e_ij) p pi(e_ji), the twirl of p over the
    # represented matrix units
    rep_units = dil.rep_images
    p0 = herm(canonical_average(fd_ext.block_sizes, rep_units @ p, rep_units))
    comm = opnorm_max(rep_units @ p0 - p0 @ rep_units)
    drift = opnorm(p0 - p)
    cert_drift = Certificate.build(
        name="twirled-projection-drift",
        formula="||p0 - p|| <= 2 * gamma^{1/2}",
        inputs={"gamma": gamma},
        ceiling=2.0 * root, achieved=float(drift), slack=TOL_ALG,
        details={"commutant_residual": float(comm)},
        provenance=provenance_stamp())

    vals, vecs = np.linalg.eigh(p0)
    lo, hi = GAP_WINDOW
    inside = (vals > lo) & (vals < hi)
    if inside.any():
        raise SpectralGapError(
            f"twirled compression has spectrum in ({lo}, {hi}): "
            f"{vals[inside]}; the repair window is violated")
    keep = vals >= hi
    q = (vecs[:, keep] @ dagger(vecs[:, keep])) if keep.any() else np.zeros((K, K), dtype=complex)

    w, cert_conj = projection_conjugator(p, q)
    # psi: compress the conjugated representation, restricted to the original
    # block domain, whose matrix units come first in the extended order
    V = dil.isometry
    E = dil.embed
    fd0: FDAlgebra = abstract.domain
    rep0 = dil.rep_images[:fd0.dim_linear]
    images = E @ (dagger(V) @ dagger(w) @ rep0 @ w @ V) @ dagger(E)
    psi_abs = LinMap(fd0, abstract.codomain_dim, images,
                     codomain_algebra=abstract.codomain_algebra)

    # ||phi - psi|| <= ||phi - psi||_cb, so the bracket's hi bounds the sup
    cb_lo, cb_hi = cb_bracket(abstract - psi_abs)
    cert_dist = Certificate.build(
        name="multiplicativity-repair",
        formula="sup_{||x||<=1} ||phi(x) - psi(x)|| <= 8 sqrt(2) gamma^{1/2}",
        inputs={"gamma": gamma},
        ceiling=8.0 * np.sqrt(2.0) * root, achieved=cb_hi,
        slack=TOL_ALG, details={"cb_lo": cb_lo}, provenance=provenance_stamp())

    cert_mult = Certificate.build(
        name="repaired-multiplicativity",
        formula="psi is a *-homomorphism: matrix-unit relation residual <= tol_alg",
        inputs={}, ceiling=TOL_ALG, achieved=hom_defect(psi_abs),
        provenance=provenance_stamp())

    if model is not None:
        conc = phi.domain
        images_c = psi_abs(model.to_abstract(conc.basis))
        psi = LinMap(conc, phi.codomain_dim, images_c,
                     codomain_algebra=phi.codomain_algebra)
    else:
        psi = psi_abs

    certs = {"drift": cert_drift,
             "conjugator": cert_conj,
             "distance": cert_dist,
             "multiplicativity": cert_mult}
    return RepairResult(psi=psi, gamma=float(gamma), certificates=certs,
                        conjugator=w, dilation=dil)


# ---------------------------------------------------------------------------
# intertwining unitaries
# ---------------------------------------------------------------------------

def _paired_block_maps(phi1: LinMap, phi2: LinMap):
    """Convert both maps to a common block domain (same model)."""
    if isinstance(phi1.domain, FDAlgebra) and isinstance(phi2.domain, FDAlgebra):
        if tuple(phi1.domain.block_sizes) != tuple(phi2.domain.block_sizes):
            raise ValueError("the two maps have different block domains")
        return phi1, phi2, None
    if phi1.domain is not phi2.domain:
        raise ValueError("concrete domains must be the same algebra object")
    a1, model = phi1.to_block_model()
    a2 = a1 if phi2 is phi1 else phi2.to_block_model()[0]
    return a1, a2, model


@dataclass
class IntertwinerResult:
    """Unitary u with Ad(u) . phi2 ~ phi1, plus its certificates."""

    u: np.ndarray
    s: np.ndarray
    gamma: float
    delta: float
    certificates: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def intertwining_unitary(phi1: LinMap, phi2: LinMap,
                         gamma: float | None = None,
                         delta: float | None = None,
                         budget: ToleranceBudget = DEFAULT_BUDGET) -> IntertwinerResult:
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
    a1, a2, _ = _paired_block_maps(phi1, phi2)
    fd: FDAlgebra = a1.domain
    if a1.codomain_dim != a2.codomain_dim:
        raise ValueError("codomain mismatch")
    if delta is None:
        delta = float(np.maximum(hom_defect(a1), hom_defect(a2) if a2 is not a1 else 0.0))
    if gamma is None:
        gamma = cb_bracket(a1 - a2)[1]
    budget.require_window("intertwining", gamma, WINDOW_INTERTWINE)

    # extend against the ambient unit: the averaged s must be invertible on
    # the whole ambient space, not just under the codomain support
    e1 = ucp_extension(LinMap(a1.domain, a1.codomain_dim, a1.images))
    e2 = e1 if a2 is a1 else ucp_extension(LinMap(a2.domain, a2.codomain_dim, a2.images))
    # s = sum_k (1/n_k) sum_ij e1(e_ij) e2(e_ji), paired on the stored images
    s = canonical_average(e1.domain.block_sizes, e1.images, e2.images)
    K = a1.codomain_dim
    sing = np.linalg.svd(s, compute_uv=False)
    if sing[-1] <= 1e-6:
        raise SpectralGapError(
            f"averaged intertwiner nearly singular (s_min = {sing[-1]:.3g}); "
            "the maps are too far apart to intertwine")
    u = polar_factor(s)
    ceiling_u = 2.0 * np.sqrt(2.0) * gamma + 5.0 * np.sqrt(2.0) * delta
    cert_u = Certificate.build(
        name="intertwiner-norm",
        formula="||u - 1|| <= 2 sqrt(2) gamma + 5 sqrt(2) delta",
        inputs={"gamma": gamma, "delta": delta},
        ceiling=float(ceiling_u), achieved=float(opnorm(u - np.eye(K))),
        slack=TOL_ALG, provenance=provenance_stamp())

    abs_s = psd_sqrt(dagger(s) @ s)
    inv_norm = float(1.0 / sing[-1])
    units = fd.units()
    x1, x2 = a1(units), a2(units)
    worst_res = opnorm_max(u @ x2 @ dagger(u) - x1)
    worst_chain = ((opnorms(x1 @ s - s @ x2) + opnorms(abs_s @ x2 - x2 @ abs_s))
                   * inv_norm).max()
    cert_res = Certificate.build(
        name="intertwining-residual",
        formula="||u phi2(x) u* - phi1(x)|| <= "
                "(||phi1(x)s - s phi2(x)|| + ||[|s|, phi2(x)]||) * |||s|^{-1}||",
        inputs={"s_min": float(sing[-1])},
        ceiling=float(worst_chain), achieved=float(worst_res),
        slack=TOL_ALG, provenance=provenance_stamp())
    return IntertwinerResult(u=u, s=s, gamma=float(gamma), delta=float(delta),
                             certificates={"norm": cert_u, "residual": cert_res})
