"""Order-zero map calculus: structure decomposition through the commuting
pair (pi, h), the constructive perturbation of order-zero maps into a nearby
algebra, nuclear-dimension decompositions with their verifier and cpc
transfer, the finite-nuclear-dimension near-embedding driver, and a labeled
heuristic projection back onto order-zero maps.

Everything reads the (d, N, N) image stacks of the maps, block by block
(``FDAlgebra.unit_blocks``).  The perturbation's partial isometry s_k =
sum_ij pi(e_ij) (x) f_ji is a transpose of block k's pi images,
s_k[(a, p), (b, q)] = pi(e_qp)[a, b] zero-padded to M_m, and the perturbed
map is a corner of the lifted witness w: psi(e_ij) = W_i W_j* with W_i[a, c]
= w[(a, 0), (k, c, i)].  The order-zero fit rounds the Choi blocks of its
candidate representation and reads the images back by the inverse reshape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from .certs import (TOL_ALG, TOL_EXACT, TOL_RANK, Certificate, ContradictionError,
                    SpectralGapError, ToleranceBudget, DEFAULT_BUDGET, WINDOW_ISO_ETA,
                    WINDOW_OZ_PROJECTION, provenance_stamp)
from .averaging import _canonical_index, canonical_average
from .cpmaps import LinMap, _from_choi_blocks, cb_bracket, choi_blocks, classify, worst_move
from .geometry import tensor_lift
from .intertwine import intertwining_iso
from .linalg import (clip_spectrum, dagger, herm, opnorm, opnorm_max, psd_pinv,
                     psd_sqrt)

__all__ = [
    "OrderZeroMap",
    "NucDimDecomposition",
    "is_order_zero",
    "structure_decompose",
    "perturb_order_zero",
    "identity_decomposition",
    "split_decomposition",
    "verify_nucdim_decomposition",
    "nucdim_cpc_transfer",
    "near_embed_nucdim",
    "order_zero_projection",
]


# ---------------------------------------------------------------------------
# the structure pair
# ---------------------------------------------------------------------------

@dataclass
class OrderZeroMap:
    """An orthogonality-preserving cpc map phi together with its structural
    pair: a *-homomorphism pi on the same block domain and h = phi(1), with
    phi(x) = pi(x) h = h pi(x)."""

    map: LinMap
    pi: LinMap
    h: np.ndarray

    @property
    def fd(self) -> FDAlgebra:
        return self.map.domain

    @property
    def codomain_dim(self) -> int:
        return self.map.codomain_dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.map(x)

    @classmethod
    def from_pair(cls, pi: LinMap, h: np.ndarray, tol: float = TOL_ALG,
                  codomain_algebra=None) -> "OrderZeroMap":
        """Build phi(x) = pi(x) h from a representation and a commuting
        positive contraction; h is stored compressed to the support of pi."""
        fd = pi.domain
        if not isinstance(fd, FDAlgebra):
            raise ValueError("the structure pair needs a block domain")
        h_eff = herm(pi(fd.unit()) @ np.asarray(h, dtype=complex))
        worst = opnorm_max(h_eff @ pi.images - pi.images @ h_eff)
        if worst > tol:
            raise ValueError(
                f"h does not commute with the representation (residual {worst:.3g})")
        m = LinMap(fd, pi.codomain_dim, pi.images @ h_eff,
                   codomain_algebra=codomain_algebra)
        return cls(map=m, pi=pi, h=h_eff)


def _structure_residual(images, pi_images, h) -> float:
    """Residual of phi(x) = pi(x) h = h pi(x) on the basis images."""
    return float(max(opnorm_max(images - pi_images @ h),
                     opnorm_max(h @ pi_images - pi_images @ h)))


def structure_decompose(phi: LinMap, tol: float = TOL_ALG) -> tuple[LinMap, np.ndarray]:
    """Extract the commuting pair (pi, h) of an order-zero map.

    h = phi(1); pi(x) = phi(x) h^+ with the spectral pseudoinverse cut at
    tol_rank relative to ||h||, which vanishes off the range of h.  Raises
    when the recovered pi fails the homomorphism or commuting identities,
    which is the finite check that phi was not order zero.
    """
    fd = phi.domain
    if not isinstance(fd, FDAlgebra):
        raise ValueError("structure decomposition needs a block domain")
    h = herm(phi(fd.unit()))
    hp = psd_pinv(h)
    pi = LinMap(fd, phi.codomain_dim, phi.images @ hp)
    worst = max(fd.relation_residual(pi.images),
                _structure_residual(phi.images, pi.images, h))
    if worst > tol:
        raise ValueError(
            f"not order zero: structural residual {worst:.3g} exceeds {tol:.3g}")
    return pi, h


def is_order_zero(phi: LinMap):
    """(True, (pi, h)) when phi is cpc and the structure identities hold to
    TOL_ALG, else (False, None)."""
    if not classify(phi).cpc:
        return False, None
    try:
        pi, h = structure_decompose(phi)
    except ValueError:
        return False, None
    return True, (pi, h)


# ---------------------------------------------------------------------------
# perturbation into a nearby algebra
# ---------------------------------------------------------------------------

def _unit_images(W: np.ndarray) -> np.ndarray:
    """The (n^2, N, N) stack of W_i W_j* in (i, j) order for a stack W of n
    N x r matrices; matrix units of M_n when the columns of all the W_i are
    orthonormal together."""
    return (W[:, None] @ dagger(W[None])).reshape(-1, W.shape[1], W.shape[1])


def perturb_order_zero(oz: OrderZeroMap, B: ConcreteAlgebra,
                       gamma: float) -> tuple[LinMap, Certificate]:
    """cp map psi into B with ||phi - psi||_cb <= (2g + g^2)(2 + 2g + g^2)
    for an order-zero phi whose row contraction is within the near-inclusion
    distance g of B.

    Builds the self-adjoint partial isometries s_k = sum_ij pi(e_ij) (x) f_ji
    in M_N (x) M_m, m the largest kept block size.  Each is a transpose of
    block k's pi images: s_k[(a, p), (b, q)] = pi(e_qp)[a, b], zero-padded
    to m.  The row contraction t with entries t_k = (h_k^{1/2} (x) 1) s_k is
    lifted to a witness w in span(B) (x) M_m, and psi is read off the f_11
    corner of w theta(x) w*, with theta(e_ij^(k)) = 1_N (x) f_ij in slot k:
    psi(e_ij^(k)) = W_i W_j*, W_i[a, c] = w[(a, 0), (k, c, i)].  The same
    corner of t gives back phi; its misfit is the reconstruction residual.
    Summands on which phi vanishes are dropped first, so the representation
    used is injective.  The certificate's details carry the lift's witness
    distance with its solver stop reason and iterations (``witness_stop``,
    ``witness_iters``): ``gap`` proves it optimal to 1e-6 relative.
    """
    fd = oz.fd
    N = oz.codomain_dim
    if B.ambient_dim != N:
        raise ValueError("B must live on the same space as the image of phi")
    kept = [k for k, E in enumerate(fd.unit_blocks(oz.map.images))
            if opnorm_max(E) > TOL_ALG]
    if not kept:
        psi = LinMap(fd, N, np.zeros((fd.dim_linear, N, N)), codomain_algebra=B)
        cert = Certificate.build(
            name="order-zero-perturbation",
            formula="||phi - psi||_cb <= (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
            inputs={"gamma": gamma, "blocks_kept": 0},
            ceiling=(2 * gamma + gamma ** 2) * (2 + 2 * gamma + gamma ** 2),
            achieved=0.0, provenance=provenance_stamp())
        return psi, cert

    sizes = [fd.block_sizes[k] for k in kept]
    m = max(sizes)
    pi_blocks = fd.unit_blocks(oz.pi.images)
    t = np.zeros((N * m, len(kept), N * m), dtype=complex)
    for slot, (k, n) in enumerate(zip(kept, sizes)):
        # s_k[(a, p), (b, q)] = pi(e_qp)[a, b]
        s_k = np.zeros((N, m, N, m), dtype=complex)
        s_k[:, :n, :, :n] = pi_blocks[k].transpose(2, 1, 3, 0)
        h_k = herm(oz.map(fd.block_unit(k)))
        t[:, slot] = np.kron(psd_sqrt(h_k), np.eye(m)) @ s_k.reshape(N * m, N * m)
    t = t.reshape(N * m, len(kept) * N * m)
    t_norm = float(opnorm(t))

    witnesses, lift_cert = tensor_lift([t], B, m, gamma, iters=400)
    u = witnesses[0]
    mu = 2.0 * gamma + gamma ** 2
    dist = lift_cert.achieved
    if dist > mu + 100 * TOL_ALG:
        raise ContradictionError(
            f"no witness within 2*gamma + gamma^2 = {mu:.3g} of the row "
            f"contraction (got {dist:.3g}); the near-inclusion certificate "
            "understates the distance")

    def corners(x):
        """W_i W_j* over the kept blocks, in (k, i, j) order."""
        W = x.reshape(N, m, len(kept), N, m)[:, 0].transpose(1, 3, 0, 2)  # [k, i, a, c]
        return np.concatenate([_unit_images(W[slot, :n]) for slot, n in enumerate(sizes)])

    # positions of the kept blocks' units in the (k, i, j) order
    at = np.concatenate([fd.unit_blocks(np.arange(fd.dim_linear))[k].ravel() for k in kept])
    images = np.zeros((fd.dim_linear, N, N), dtype=complex)
    images[at] = corners(u)
    recon = opnorm_max(corners(t) - oz.map.images[at])
    psi = LinMap(fd, N, images, codomain_algebra=B)

    member = B.membership_residual(psi.images)
    cls = classify(psi)
    lo, hi = cb_bracket(oz.map - psi)
    structural = dist * (t_norm + opnorm(u))
    achieved = min(hi, structural)
    ceiling = mu * (2.0 + mu)
    cert = Certificate.build(
        name="order-zero-perturbation",
        formula="||phi - psi||_cb <= (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        inputs={"gamma": gamma, "mu": float(mu), "m": m,
                "blocks_kept": len(kept)},
        ceiling=float(ceiling), achieved=float(achieved),
        slack=TOL_ALG,
        details={"cb_lo": float(lo), "cb_hi": float(hi),
                 "structural_bound": float(structural),
                 "witness_distance": float(dist),
                 "witness_stop": lift_cert.details["stops"][0],
                 "witness_iters": lift_cert.details["iters"][0], "t_norm": t_norm,
                 "reconstruction_residual": float(recon),
                 "membership_residual": float(member), "cp": bool(cls.cp)},
        provenance=provenance_stamp())
    return psi, cert


# ---------------------------------------------------------------------------
# nuclear-dimension decompositions
# ---------------------------------------------------------------------------

@dataclass
class NucDimDecomposition:
    """A (n+1)-colored factorization of the identity of A through a block
    algebra F = F_0 + ... + F_n: a cpc map down: A -> F and order-zero maps
    ups[i]: F_i -> A whose sum approximately recovers the identity on X."""

    F: FDAlgebra
    pieces: tuple          # block-index groups, one per summand F_i
    down: LinMap
    ups: tuple
    defect: float
    composite_cpc: bool = True

    def __post_init__(self):
        if len(self.pieces) != len(self.ups):
            raise ValueError("one order-zero map per piece is required")
        for group, up in zip(self.pieces, self.ups):
            sizes = tuple(self.F.block_sizes[k] for k in group)
            if up.fd.block_sizes != sizes:
                raise ValueError(
                    f"piece {group} has sizes {sizes} but the map has domain "
                    f"{up.fd.block_sizes}")

    @property
    def n(self) -> int:
        return len(self.ups) - 1

    def piece_algebra(self, i: int) -> FDAlgebra:
        return self.ups[i].fd

    def restrict(self, i: int, y: np.ndarray) -> np.ndarray:
        blocks = self.F.blocks_of(y)
        return self.piece_algebra(i).embed_blocks([blocks[k] for k in self.pieces[i]])

    def compose(self, x: np.ndarray) -> np.ndarray:
        """sum_i ups[i](down(x) restricted to F_i), for one x or a stack."""
        y = self.down(x)
        return sum(up(self.restrict(i, y)) for i, up in enumerate(self.ups))


def identity_decomposition(A: ConcreteAlgebra) -> NucDimDecomposition:
    """The exact single-color decomposition of a block algebra through its
    own block model (finite-dimensional algebras need no colors)."""
    bm = A.block_model()
    fd = bm.fd
    down = LinMap(A, fd.d, bm.to_abstract(A.basis))
    up_map = LinMap(fd, A.ambient_dim, bm.to_concrete(fd.units()), codomain_algebra=A)
    up = OrderZeroMap(map=up_map, pi=up_map, h=np.array(A.support))
    defect = worst_move(lambda x: up(down(x)), A.basis)
    return NucDimDecomposition(F=fd, pieces=(tuple(range(len(fd.block_sizes))),),
                               down=down, ups=(up,), defect=defect)


# the colors split_decomposition deals the blocks into
_SPLIT_COLORS = 2


def split_decomposition(A: ConcreteAlgebra) -> NucDimDecomposition:
    """Exact decomposition with the blocks of A dealt round-robin into
    _SPLIT_COLORS colors; a forced n = _SPLIT_COLORS - 1 presentation of a
    finite-dimensional algebra."""
    bm = A.block_model()
    fd = bm.fd
    r = len(fd.block_sizes)
    if r < _SPLIT_COLORS:
        raise ValueError(f"cannot split {r} blocks into {_SPLIT_COLORS} nonempty colors")
    groups = tuple(tuple(k for k in range(r) if k % _SPLIT_COLORS == i)
                   for i in range(_SPLIT_COLORS))
    down = LinMap(A, fd.d, bm.to_abstract(A.basis))
    blocks = fd.unit_blocks(bm.to_concrete(fd.units()))
    ups = []
    for group in groups:
        sub = FDAlgebra(tuple(fd.block_sizes[k] for k in group))
        images = np.concatenate([blocks[k].reshape((-1,) + blocks[k].shape[2:]) for k in group])
        up_map = LinMap(sub, A.ambient_dim, images, codomain_algebra=A)
        ups.append(OrderZeroMap(map=up_map, pi=up_map, h=herm(up_map.value_on_unit())))
    dec = NucDimDecomposition(F=fd, pieces=groups, down=down, ups=tuple(ups),
                              defect=0.0)
    dec.defect = worst_move(dec.compose, A.basis)
    return dec


def verify_nucdim_decomposition(A: ConcreteAlgebra, X, eps: float,
                                dec: NucDimDecomposition) -> Certificate:
    """Check every invariant of the decomposition and the defect claim
    sup_X ||psi(phi(x)) - x|| <= eps; failures are named in the details."""
    failures = []
    if not classify(dec.down).cpc:
        failures.append("down-not-cpc")
    for i, up in enumerate(dec.ups):
        ok, _ = is_order_zero(up.map)
        if not ok:
            failures.append(f"up-{i}-not-order-zero")
    comp = LinMap(A, dec.ups[0].codomain_dim, dec.compose(A.basis))
    if dec.composite_cpc and not classify(comp).cpc:
        failures.append("composite-not-cpc")
    defect = worst_move(dec.compose, X)
    cert = Certificate.build(
        name="nucdim-decomposition",
        formula="sup_X ||psi(phi(x)) - x|| <= eps; down cpc, ups order zero, "
                "composite cpc",
        inputs={"eps": eps, "n": dec.n, "n_points": len(X)},
        ceiling=float(eps), achieved=float(defect),
        details={"failed_invariant": failures[0] if failures else None,
                 "failures": failures, "claimed_defect": dec.defect},
        provenance=provenance_stamp())
    if failures:
        cert.verdict = "fail"
    return cert


def nucdim_cpc_transfer(D: ConcreteAlgebra, dec: NucDimDecomposition,
                        X, B: ConcreteAlgebra, gamma: float) -> tuple[LinMap, Certificate]:
    """cpc map phi: D -> B with ||phi(x) - x|| <=
    2 (n+1) (2g + g^2)(2 + 2g + g^2) + eps on X, eps the decomposition's
    defect, by perturbing each colored summand of the decomposition into B
    and rescaling the sum by its cb norm when that exceeds one."""
    eps = dec.defect
    N = B.ambient_dim
    summand_certs = []
    perturbed = []
    for up in dec.ups:
        pi_i, h_i = structure_decompose(up.map, tol=100 * TOL_ALG)
        oz_i = OrderZeroMap(map=up.map, pi=pi_i, h=h_i)
        psi_i, cert_i = perturb_order_zero(oz_i, B, gamma)
        perturbed.append(psi_i)
        summand_certs.append(cert_i)

    y = dec.down(D.basis)
    images = sum(psi_i(dec.restrict(i, y)) for i, psi_i in enumerate(perturbed))
    raw = LinMap(D, N, images, codomain_algebra=B)
    lo, hi = cb_bracket(raw)
    scale = max(1.0, hi)
    phi = raw.scaled(1.0 / scale) if scale > 1.0 else raw

    achieved = worst_move(phi, X)
    mu = 2.0 * gamma + gamma ** 2
    ceiling = 2.0 * (dec.n + 1) * mu * (2.0 + mu) + eps
    cls = classify(phi)
    cert = Certificate.build(
        name="nucdim-transfer",
        formula="||phi(x) - x|| <= 2 (n+1) (2 gamma + gamma^2)"
                "(2 + 2 gamma + gamma^2) + eps on X",
        inputs={"gamma": gamma, "n": dec.n, "eps": float(eps),
                "n_points": len(X)},
        ceiling=float(ceiling), achieved=float(achieved),
        slack=TOL_ALG,
        details={"rescale": float(scale), "cb_bracket": [float(lo), float(hi)],
                 "cpc": bool(cls.cpc),
                 "summand_achieved": [c.achieved for c in summand_certs],
                 "summand_ceiling": summand_certs[0].ceiling if summand_certs else 0.0},
        provenance=provenance_stamp())
    return phi, cert


def near_embed_nucdim(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                      dec: NucDimDecomposition, X=None,
                      budget: ToleranceBudget = DEFAULT_BUDGET
                      ) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    20 eta^{1/2} on X, where eta = 2 (n+1) (2g + g^2)(2 + 2g + g^2) comes
    from transferring the decomposition of A into B."""
    mu = 2.0 * gamma + gamma ** 2
    eta = 2.0 * (dec.n + 1) * mu * (2.0 + mu) + dec.defect
    budget.require_window("nucdim-embedding", eta, WINDOW_ISO_ETA)
    X = A.normalized_basis if X is None else np.array(X, dtype=complex)

    # route the decomposition evidence through the transfer certificate; the
    # repaired map itself comes from the expectation onto B, which is close to
    # the inclusion on all of A (the transfer map is close to the identity
    # only on X, so it cannot drive the repair)
    _, cert_t = nucdim_cpc_transfer(A, dec, X, B, gamma)
    res = intertwining_iso(A, B, eta=eta, X_A=X,
                           mu=min(0.2 * np.sqrt(eta), 1.0 / 4000.0), budget=budget)
    cert = Certificate.build(
        name="nucdim-near-embedding",
        formula="||theta(x) - x|| <= 20 eta^{1/2}, "
                "eta = 2 (n+1) (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        inputs={"gamma": gamma, "eta": float(eta), "n": dec.n,
                "n_points": len(X)},
        ceiling=float(20.0 * np.sqrt(eta)), achieved=res.certificates["closeness"].achieved,
        slack=TOL_EXACT,
        details={"sigma_min": res.certificates["injectivity"].details["action_sigma_min"],
                 "transfer_achieved": cert_t.achieved,
                 "transfer_ceiling": cert_t.ceiling,
                 "transfer_ok": cert_t.passed},
        provenance=provenance_stamp())
    return res.map, cert


# ---------------------------------------------------------------------------
# heuristic projection back onto order-zero maps
# ---------------------------------------------------------------------------

# the fit's rounded pi meets the matrix-unit relations to _FIT_TOL + _FIT_NOISE
# times the noise carried into pi; h0's kept spectrum clears the noise by _FIT_GAP
_FIT_TOL, _FIT_NOISE, _FIT_GAP = 1e-8, 10.0, 1e3


def order_zero_projection(psi: LinMap, gamma: float | None = None
                          ) -> tuple[OrderZeroMap, Certificate]:
    """Nearest-order-zero fit for a cp map that is close to one; an explicitly
    labeled heuristic, verified a posteriori.

    Alternating fit: h0 is psi(1) clipped to a positive contraction, and
    the noise level f is max(||psi(1) - h0||, TOL_RANK lam_1) for h0's
    eigenvalues lam_1 >= lam_2 >= ...  A candidate representation pi =
    psi(.) h0^+ inverts lam_1 ... lam_r for the largest r with lam_r >=
    _FIT_GAP max(lam_{r+1}, f) (lam_{N+1} = 0), none when every lam is at
    most f; a spectrum above f with no such gap raises SpectralGapError.  pi
    is polished by rounding: the spectrum of each Choi block C_k / n_k is
    cut at 1/2, n_k times the cut projection is read back as the images, and
    these are symmetrised under e_ij -> e_ji.  The rounded pi must satisfy
    the matrix-unit relations to tol = _FIT_TOL + _FIT_NOISE ||psi(1) - h0||
    / lam_r (its residual is the certificate's ``pi_defect``); exact matrix
    units are then read off it by a polar decomposition, and h is h0 twirled
    over them, sum_k (1/n_k) sum_ij pi(e_ji) h0 pi(e_ij), which commutes
    with pi exactly.  The certificate reports the cb bracket of psi minus
    the fit, compared against 493 gamma^{1/2} when gamma is supplied.
    """
    fd = psi.domain
    if not isinstance(fd, FDAlgebra):
        raise ValueError("the fit needs a block domain")
    if gamma is not None:
        DEFAULT_BUDGET.require_window("order-zero-projection", gamma,
                                      WINDOW_OZ_PROJECTION)
    N = psi.codomain_dim
    psi1 = psi(fd.unit())
    h0 = clip_spectrum(herm(psi1), 0.0, 1.0)
    noise = opnorm(psi1 - h0)
    vals, vecs = np.linalg.eigh(herm(h0))  # as psd_pinv had it: the same bits where it cut
    lam = vals[::-1]
    floor = max(noise, TOL_RANK * max(float(lam[0]), 1e-300))
    gaps = np.flatnonzero(lam >= _FIT_GAP * np.maximum(np.append(lam[1:], 0.0), floor))
    if lam[0] > floor and not gaps.size:
        raise SpectralGapError(f"no gap of {_FIT_GAP:.0e} above the noise level {floor:.3g} "
                               f"in the spectrum {lam} of psi(1)")
    keep = np.arange(N) >= N - (gaps[-1] + 1 if gaps.size else 0)
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    pi = LinMap(fd, N, psi.images @ ((vecs * inv) @ dagger(vecs)))
    flip = _canonical_index(fd.block_sizes)[1]

    rounds = []
    for _ in range(3):
        cut = []
        for n, C in zip(fd.block_sizes, choi_blocks(pi)):
            vals, vecs = np.linalg.eigh(herm(C / n))
            keep = vecs[:, vals >= 0.5]
            cut.append(n * (keep @ dagger(keep)))
        new = _from_choi_blocks(fd, N, cut).images
        drift = opnorm_max(new - pi.images)
        pi = LinMap(fd, N, (new + dagger(new[flip])) / 2.0)
        rounds.append(float(drift))
        if drift < TOL_EXACT:
            break

    pi_defect = fd.relation_residual(pi.images)
    tol = _FIT_TOL + _FIT_NOISE * noise * float(inv.max(initial=0.0))
    if pi_defect > tol:
        raise ContradictionError(
            f"fit residual {pi_defect:.3g} above {tol:.3g}; "
            "the input is not close enough to an order-zero map")
    # exact matrix units from the rounded ones.  Per block, X_k is an
    # orthonormal basis of the range of pi(e_11^(k)) and pi(e_i1^(k)) X_k its
    # image under e_i1; the columns of every block are made orthonormal
    # together by the polar part W of their row, and pi(e_ij^(k)) = W_ki
    # W_kj*.  h0 twirled over exact matrix units commutes with them exactly
    cols = []
    for E in fd.unit_blocks(pi.images):
        vals, vecs = np.linalg.eigh(herm(E[0, 0]))
        cols.append((E[:, 0] @ vecs[:, vals >= 0.5]).swapaxes(0, 1))  # (N, n_k, r_k)
    u, _, vh = np.linalg.svd(np.concatenate([c.reshape(N, -1) for c in cols], axis=1),
                             full_matrices=False)
    W = np.split(u @ vh, np.cumsum([c[0].size for c in cols])[:-1], axis=1)
    pi = LinMap(fd, N, np.concatenate([_unit_images(w.reshape(c.shape).swapaxes(0, 1))
                                       for w, c in zip(W, cols)]))
    h = canonical_average(fd.block_sizes, pi.images @ h0, pi.images)
    fit = OrderZeroMap.from_pair(pi, clip_spectrum(herm(h), 0.0, 1.0), tol=100 * _FIT_TOL,
                                 codomain_algebra=psi.codomain_algebra)

    lo, hi = cb_bracket(psi - fit.map)
    ceiling = 493.0 * np.sqrt(gamma) if gamma is not None else np.inf
    cert = Certificate.build(
        name="order-zero-projection",
        formula="cb distance from the fitted order-zero map, compared "
                "against 493 gamma^{1/2}",
        inputs={"gamma": gamma, "tol": tol, "noise": noise},
        ceiling=float(ceiling), achieved=float(hi),
        heuristic=True,
        details={"cb_lo": float(lo), "pi_defect": float(pi_defect),
                 "rounding_drift": rounds,
                 "structure_residual": _structure_residual(
                     fit.map.images, fit.pi.images, fit.h)},
        provenance=provenance_stamp())
    return fit, cert
