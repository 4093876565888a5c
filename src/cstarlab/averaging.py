"""Exact averaging over finite unitary families and the constructions built
on it: twirls onto commutants, polar/projection conjugation unitaries, the
multiplicativity repair of nearly multiplicative cpc maps, intertwining
unitaries between close nearly multiplicative maps, and commutant lifts.

The central object is the canonical separability element
w = sum_k (1/n_k) sum_ij e_ij (x) e_ji of A = (+)_k M_{n_k}, the amenability
average (Johnson 1988).  Every average below is linear in u (x) u* over a
unitary family averaging to w, so it is evaluated on the sum_k n_k^2 matrix
units: the twirl sum_k (1/n_k) sum_ij e_ji y e_ij, the averaged intertwiner
sum_k (1/n_k) sum_ij f(e_ij) g(e_ji), and the repair's twirled compression.
Where actual unitaries are needed (the tracked set of the staged
intertwining, the commutation estimate of a lift), ``exact_diagonal`` gives
r * lcm(n_k^2) unitaries averaging to w exactly.  Twirled projections thus
commute with the representation to machine precision, intertwiners of exact
homomorphisms intertwine exactly, and lifts sit exactly in the commutant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from .certs import (TOL_ALG, TOL_CONV, TOL_EXACT, Certificate, SpectralGapError,
                    ToleranceBudget, DEFAULT_BUDGET, WINDOW_DEFECT_REPAIR,
                    WINDOW_INTERTWINE, provenance_stamp)
from .cpmaps import LinMap, classify, hom_defect, stinespring, ucp_extension
from .geometry import SampleSpec, sample_unit_ball
from .linalg import (dagger, expm_i, herm, opnorm, opnorm_max, opnorms, polar_factor,
                     principal_log_unitary, psd_sqrt)

__all__ = [
    "AveragingSet",
    "weyl_unitaries",
    "exact_diagonal",
    "polar_unitary",
    "projection_conjugator",
    "RepairResult",
    "improve_multiplicativity",
    "IntertwinerResult",
    "intertwining_unitary",
    "LiftResult",
    "commutant_lift",
    "unitary_commutant_lift",
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


def _canonical_sum(scale: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_p scale[p] left[p] @ right[p] over two stacks of matrices."""
    return np.matmul(scale[:, None, None] * left, right).sum(axis=0)


@dataclass
class AveragingSet:
    """Weighted unitary family with the exact-diagonal property.

    terms[t] are unitaries of the algebra (relative to its unit), weights sum
    to one, and sum_t weights[t] * (terms[t] (x) terms[t]*) equals the
    canonical separability element sum_k (1/n_k) sum_ij e_ij (x) e_ji, whose
    matrix units are units[p] in (k, i, j) order.  Averages linear in
    u (x) u* (twirl, pair) are evaluated on the units, not on the terms.
    """

    weights: np.ndarray
    terms: np.ndarray
    unit: np.ndarray
    block_sizes: tuple[int, ...]
    units: np.ndarray = field(repr=False)
    scale: np.ndarray = field(init=False, repr=False)
    flip: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scale, self.flip = _canonical_index(self.block_sizes)

    def __len__(self) -> int:
        return len(self.terms)

    def twirl(self, y: np.ndarray) -> np.ndarray:
        """sum_k (1/n_k) sum_ij e_ji y e_ij; the trace-preserving conditional
        expectation onto the relative commutant of the algebra."""
        return _canonical_sum(self.scale, self.units[self.flip] @ y, self.units)

    def _values(self, f) -> np.ndarray:
        if isinstance(f, LinMap) and isinstance(f.domain, FDAlgebra):
            if tuple(f.domain.block_sizes) != self.block_sizes:
                raise ValueError("map domain does not match the averaged algebra")
            return f.images
        return np.array([f(e) for e in self.units])

    def pair(self, f, g) -> np.ndarray:
        """sum_k (1/n_k) sum_ij f(e_ij) g(e_ji) = sum_t lambda_t f(u_t*) g(u_t)
        for linear matrix-valued f, g; a LinMap on the block algebra is read
        off its stored images."""
        return _canonical_sum(self.scale, self._values(f), self._values(g)[self.flip])

    def canonical_residual(self) -> float:
        """Distance of sum lambda u (x) u* from the canonical element."""
        m = self.unit.shape[0]

        def tensor_average(w, left, right):
            return np.einsum("t,tab,tcd->acbd", w, left, right).reshape(m * m, m * m)

        W = tensor_average(self.weights, self.terms, self.terms.conj().transpose(0, 2, 1))
        C = tensor_average(self.scale, self.units, self.units[self.flip])
        return opnorm(W - C)

    def verify(self) -> Certificate:
        """Certify the defining properties: weights sum to one, every term is
        a unitary of the algebra, and the averaged tensor is exactly the
        canonical separability element (hence exactly central)."""
        uu = self.terms @ dagger(self.terms)
        worst = max(abs(float(np.sum(self.weights)) - 1.0),
                    opnorm_max(np.concatenate([dagger(self.terms) @ self.terms, uu])
                               - self.unit))
        mw = sum(lam * p for lam, p in zip(self.weights, uu))
        worst = max(worst, opnorm(mw - self.unit))
        worst = max(worst, self.canonical_residual())
        return Certificate.build(
            name="averaging-set",
            formula="max(|sum(w)-1|, ||u*u - 1||, ||sum w u(x)u* - canonical||) <= tol",
            inputs={"n_terms": len(self.terms), "block_sizes": list(self.block_sizes)},
            ceiling=TOL_CONV, achieved=float(worst), provenance=provenance_stamp())


def exact_diagonal(A: FDAlgebra | ConcreteAlgebra) -> AveragingSet:
    """Averaging family of A whose tensor average is exactly the canonical
    separability element.

    With r blocks, L = lcm(n_k^2) and omega = exp(2 pi i / r), the terms are
    u_{c,t} = (+)_k omega^{ck} W_k(t mod n_k^2) for c in Z_r and t in Z_L, all
    with weight 1/(rL), where W_k(a) is the a-th shift-and-phase unitary of
    block k.  The phase sum over c cancels every cross-block term of
    sum u (x) u*; inside block k, t mod n_k^2 runs L/n_k^2 times over the
    HS-orthogonal basis W_k, which averages to (1/n_k) times the flip, the
    block's canonical element.  So r * lcm(n_k^2) terms are exact.
    """
    if isinstance(A, ConcreteAlgebra):
        struct = A.structure()
        block_sizes, units, unit = struct.block_sizes, struct.matrix_units, A.support
    else:
        block_sizes, units, unit = tuple(A.block_sizes), A.units(), A.unit()
    r = len(block_sizes)
    L = math.lcm(*(n * n for n in block_sizes))
    c = np.arange(r)[:, None, None]
    t = np.arange(L)
    # coefficient of the unit e_ij of block k in the term (c, t)
    coeffs = np.concatenate(
        [np.exp(2j * np.pi * (c * k % r) / r)
         * np.array(weyl_unitaries(n)).reshape(n * n, n * n)[t % (n * n)]
         for k, n in enumerate(block_sizes)], axis=2).reshape(r * L, -1)
    m = units.shape[-1]
    terms = (coeffs @ units.reshape(len(units), m * m)).reshape(r * L, m, m)
    return AveragingSet(weights=np.full(r * L, 1.0 / (r * L)), terms=terms,
                        unit=np.asarray(unit, dtype=complex),
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
    unit ball.  certificates: defect (input), drift (twirled projection),
    conjugator, distance (headline), multiplicativity (output defect).
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
                             seed: int = 0,
                             budget: ToleranceBudget = DEFAULT_BUDGET) -> RepairResult:
    """Repair a nearly multiplicative cpc map into an exact homomorphism.

    Given cpc phi: A -> M_K with multiplicativity defect gamma on the unit
    ball, produces a *-homomorphism psi with ||phi - psi|| <= 8 sqrt(2)
    gamma^{1/2} on the unit ball (paper track requires gamma <= 1/17).

    Construction: extend to a ucp map on the unitized domain, dilate, twirl
    the compression projection p over the represented matrix units (the twirl
    p0 then commutes with the representation exactly and ||p0 - p|| <=
    2 gamma^{1/2}), cut at the spectral gap around 1/2, conjugate p onto the
    resulting commutant projection q, and compress the representation.
    """
    abstract, model = phi.to_block_model()
    cls = classify(abstract)
    if not cls.cpc:
        raise ValueError(
            f"repair requires a cpc map (||phi(1)|| = {cls.norm_of_unit:.6g}, "
            f"choi min eig {cls.choi_min_eig:.2e})")
    if gamma is None:
        gamma = hom_defect(abstract, seed=seed)
    budget.require_window("multiplicativity-repair", gamma, WINDOW_DEFECT_REPAIR)
    root = float(np.sqrt(max(gamma, 0.0)))

    ext = ucp_extension(abstract)
    fd_ext: FDAlgebra = ext.domain
    # cut the Kraus rank at rounding scale, not at the cp-validation slack:
    # discarded Choi mass reappears verbatim as homomorphism defect of psi
    dil = stinespring(ext, tol_psd=1e-13)
    K = dil.dilation_dim
    p = dil.compression

    # p0 = sum_k (1/n_k) sum_ij pi(e_ji) p pi(e_ij), the twirl of p over the
    # represented matrix units
    scale, flip = _canonical_index(fd_ext.block_sizes)
    rep_units = dil.rep_images
    p0 = herm(_canonical_sum(scale, rep_units[flip] @ p, rep_units))
    comm = opnorm_max(rep_units @ p0 - p0 @ rep_units)
    drift = opnorm(p0 - p)
    cert_drift = Certificate.build(
        name="twirled-projection-drift",
        formula="||p0 - p|| <= 2 * gamma^{1/2}",
        inputs={"gamma": gamma},
        ceiling=2.0 * root, achieved=float(drift), slack=TOL_ALG,
        details={"commutant_residual": float(comm)},
        provenance=provenance_stamp(seed))

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

    spec = SampleSpec(seed=seed + 1, n_selfadjoint=32, n_unitary=16)
    samples = np.array([x for _, x in sample_unit_ball(fd0, spec)])
    dist = opnorm_max(abstract(samples) - psi_abs(samples))
    cert_dist = Certificate.build(
        name="multiplicativity-repair",
        formula="sup_{||x||<=1} ||phi(x) - psi(x)|| <= 8 sqrt(2) gamma^{1/2}",
        inputs={"gamma": gamma, "n_samples": len(samples)},
        ceiling=8.0 * np.sqrt(2.0) * root, achieved=float(dist),
        slack=TOL_ALG, provenance=provenance_stamp(seed))

    # 8 pairs: 16 sampled contractions, as the certificate says
    new_defect = hom_defect(psi_abs, seed=seed + 2, n_pairs=8)
    cert_mult = Certificate.build(
        name="repaired-multiplicativity",
        formula="psi is a *-homomorphism: defect <= tol_alg",
        inputs={"n_samples": 16},
        ceiling=TOL_ALG, achieved=float(new_defect),
        provenance=provenance_stamp(seed))

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
                         seed: int = 0,
                         budget: ToleranceBudget = DEFAULT_BUDGET) -> IntertwinerResult:
    """Unitary u close to 1 with u phi2(x) u* ~ phi1(x).

    For *-homomorphisms phi1, phi2 at unit-ball distance gamma the averaged
    intertwiner s = sum_t lambda_t phi1~(u_t*) phi2~(u_t) satisfies
    phi1(x) s = s phi2(x) exactly, and the polar part u of s is a unitary
    with ||u - 1|| <= 2 sqrt(2) gamma + 5 sqrt(2) delta, where delta bounds
    the multiplicativity defects.  The conjugation residual is certified
    against the measured chain bound
    (||phi1(x) s - s phi2(x)|| + ||[|s|, phi2(x)]||) * |||s|^{-1}||.
    """
    a1, a2, _ = _paired_block_maps(phi1, phi2)
    fd: FDAlgebra = a1.domain
    if a1.codomain_dim != a2.codomain_dim:
        raise ValueError("codomain mismatch")
    if delta is None:
        delta = max(hom_defect(a1, seed=seed),
                    hom_defect(a2, seed=seed) if a2 is not a1 else 0.0)
    if gamma is None:
        spec = SampleSpec(seed=seed, n_selfadjoint=16, n_unitary=0, include_basis=False)
        X = np.array([x for _, x in sample_unit_ball(fd, spec)])
        gamma = max(a1.basis_distance(a2), opnorm_max(a1(X) - a2(X)))
    budget.require_window("intertwining", gamma, WINDOW_INTERTWINE)

    # extend against the ambient unit: the averaged s must be invertible on
    # the whole ambient space, not just under the codomain support
    e1 = ucp_extension(LinMap(a1.domain, a1.codomain_dim, a1.images))
    e2 = e1 if a2 is a1 else ucp_extension(LinMap(a2.domain, a2.codomain_dim, a2.images))
    # s = sum_k (1/n_k) sum_ij e1(e_ij) e2(e_ji), paired on the stored images
    scale, flip = _canonical_index(e1.domain.block_sizes)
    s = _canonical_sum(scale, e1.images, e2.images[flip])
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
        slack=TOL_ALG, provenance=provenance_stamp(seed))

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
        slack=TOL_ALG, provenance=provenance_stamp(seed))
    return IntertwinerResult(u=u, s=s, gamma=float(gamma), delta=float(delta),
                             certificates={"norm": cert_u, "residual": cert_res})


# ---------------------------------------------------------------------------
# commutant lifts
# ---------------------------------------------------------------------------

@dataclass
class LiftResult:
    value: np.ndarray
    delta: float
    certificates: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def _relative_commutator(a: np.ndarray, A: ConcreteAlgebra) -> float:
    """max over the basis b of A of ||[a, b]|| / ||b||."""
    B = A.basis
    return float((opnorms(a @ B - B @ a) / A.basis_norms).max())


def commutant_lift(m: np.ndarray, A: ConcreteAlgebra, seed: int = 0) -> LiftResult:
    """Exact element of the relative commutant A' near an approximately
    commuting m.

    a = twirl(m) + (1 - e) m (1 - e) with e the unit of A commutes with A
    exactly, satisfies ||a|| <= ||m||, is self-adjoint when m is, and
    ||a - m|| <= 2 delta, with delta the measured commutator of m with the
    unit of A and with the terms of its exact averaging family.
    """
    m = np.asarray(m, dtype=complex)
    avg = exact_diagonal(A)
    e = A.support
    eye = np.eye(A.ambient_dim)
    a = avg.twirl(m) + (eye - e) @ m @ (eye - e)
    delta = max(opnorm(m @ e - e @ m), opnorm_max(m @ avg.terms - avg.terms @ m))
    comm = _relative_commutator(a, A)
    cert_comm = Certificate.build(
        name="commutant-membership",
        formula="max_b ||[a, b]|| / ||b|| <= tol_alg over the basis of A",
        inputs={}, ceiling=TOL_ALG, achieved=float(comm),
        provenance=provenance_stamp(seed))
    cert_dist = Certificate.build(
        name="commutant-lift-distance",
        formula="||a - m|| <= 2 * delta",
        inputs={"delta": float(delta)},
        ceiling=2.0 * float(delta), achieved=float(opnorm(a - m)),
        slack=TOL_EXACT, provenance=provenance_stamp(seed))
    cert_norm = Certificate.build(
        name="commutant-lift-norm",
        formula="||a|| <= ||m||",
        inputs={"norm_m": float(opnorm(m))},
        ceiling=float(opnorm(m)), achieved=float(opnorm(a)),
        slack=TOL_EXACT, provenance=provenance_stamp(seed))
    certs = {"commutation": cert_comm, "distance": cert_dist, "norm": cert_norm}
    return LiftResult(value=a, delta=float(delta), certificates=certs)


def unitary_commutant_lift(u: np.ndarray, A: ConcreteAlgebra, seed: int = 0) -> LiftResult:
    """Unitary v in the relative commutant A' with ||v - 1|| <= ||u - 1||.

    Takes the principal logarithm u = exp(i pi h) with ||h|| <= 1 (rejected
    when the spectrum of u touches -1), lifts h into A' by the exact twirl,
    and exponentiates.  The lift contracts both the norm distance to 1 and
    preserves self-adjointness of the generator.
    """
    u = np.asarray(u, dtype=complex)
    H = principal_log_unitary(u)
    h = H / np.pi
    lift = commutant_lift(h, A, seed=seed)
    k = herm(lift.value)
    v = expm_i(np.pi * k)
    comm = _relative_commutator(v, A)
    eye = np.eye(A.ambient_dim)
    cert_comm = Certificate.build(
        name="unitary-lift-commutation",
        formula="max_b ||[v, b]|| / ||b|| <= tol_alg over the basis of A",
        inputs={}, ceiling=TOL_ALG, achieved=float(comm),
        provenance=provenance_stamp(seed))
    cert_norm = Certificate.build(
        name="unitary-lift-norm",
        formula="||v - 1|| <= ||u - 1||",
        inputs={"norm_u": float(opnorm(u - eye))},
        ceiling=float(opnorm(u - eye)), achieved=float(opnorm(v - eye)),
        slack=TOL_EXACT, provenance=provenance_stamp(seed))
    cert_drift = Certificate.build(
        name="unitary-lift-drift",
        formula="||v - u|| <= pi * ||k - h|| <= 2 pi delta",
        inputs={"delta": lift.delta},
        ceiling=float(2.0 * np.pi * lift.delta), achieved=float(opnorm(v - u)),
        slack=TOL_EXACT, provenance=provenance_stamp(seed))
    certs = {"commutation": cert_comm, "norm": cert_norm, "drift": cert_drift,
             "generator": lift.certificates["distance"]}
    return LiftResult(value=v, delta=lift.delta, certificates=certs)
