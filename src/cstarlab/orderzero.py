"""Order-zero map calculus: structure decomposition through the commuting
pair (pi, h), the constructive perturbation of order-zero maps into a nearby
algebra, nuclear-dimension decompositions with their verifier and cpc
transfer, and the finite-nuclear-dimension near-embedding driver.

Everything reads the (d, N, N) image stacks of the maps, block by block
(``FDAlgebra.unit_blocks``).  The perturbation's partial isometry s_k =
sum_ij pi(e_ij) (x) f_ji is a transpose of block k's pi images,
s_k[(a, p), (b, q)] = pi(e_qp)[a, b] zero-padded to M_m, and the perturbed
map is a corner of the lifted witness w: psi(e_ij) = W_i W_j* with W_i[a, c]
= w[(a, 0), (k, c, i)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from . import certs
from .certs import TOL_ALG, Certificate, ContradictionError
from .cpmaps import LinMap, _unit_images, cb_bracket, classify, worst_move
from .geometry import tensor_lift
from .intertwine import intertwining_iso
from .linalg import herm, opnorm, opnorm_max, psd_pinv, psd_sqrt

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
]


# ---------------------------------------------------------------------------
# the structure pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderZeroMap:
    """An orthogonality-preserving cpc map phi together with its structural
    pair: a *-homomorphism pi on the same block domain and h = phi(1), with
    phi(x) = pi(x) h = h pi(x).  Made only by its two checked constructors:
    ``from_pair`` (pair to map) and ``structure_decompose`` (map to pair)."""

    map: LinMap
    pi: LinMap
    h: np.ndarray

    @classmethod
    def from_pair(cls, pi: LinMap, h: np.ndarray, codomain_algebra) -> "OrderZeroMap":
        """Build phi(x) = pi(x) h from a representation and a commuting
        positive contraction; h is stored compressed to the support of pi."""
        fd = pi.domain
        if not isinstance(fd, FDAlgebra):
            raise ValueError("the structure pair needs a block domain")
        h_eff = herm(pi(fd.unit()) @ np.asarray(h, dtype=complex))
        worst = opnorm_max(h_eff @ pi.images - pi.images @ h_eff)
        if not worst <= TOL_ALG:  # a nan residual certifies nothing either
            raise ValueError(
                f"h does not commute with the representation (residual {worst:.3g})")
        m = LinMap(fd, pi.codomain_dim, pi.images @ h_eff,
                   codomain_algebra=codomain_algebra)
        return cls(map=m, pi=pi, h=h_eff)


def _structure_residual(images, pi_images, h) -> float:
    """Residual of phi(x) = pi(x) h = h pi(x) on the basis images."""
    return float(np.maximum(opnorm_max(images - pi_images @ h),
                            opnorm_max(h @ pi_images - pi_images @ h)))


def structure_decompose(phi: LinMap) -> OrderZeroMap:
    """phi with the commuting pair (pi, h) of an order-zero map.

    h = phi(1); pi(x) = phi(x) h^+ with the spectral pseudoinverse cut at
    tol_rank relative to ||h||, which vanishes off the range of h.  Raises
    when the recovered pi fails the homomorphism or commuting identities to
    TOL_ALG, which is the finite check that phi was not order zero.
    """
    fd = phi.domain
    if not isinstance(fd, FDAlgebra):
        raise ValueError("structure decomposition needs a block domain")
    h = herm(phi(fd.unit()))
    pi = LinMap(fd, phi.codomain_dim, phi.images @ psd_pinv(h))
    worst = np.maximum(fd.relation_residual(pi.images),
                       _structure_residual(phi.images, pi.images, h))
    if not worst <= TOL_ALG:  # a nan residual certifies nothing either
        raise ValueError(
            f"not order zero: structural residual {worst:.3g} exceeds {TOL_ALG:.3g}")
    return OrderZeroMap(map=phi, pi=pi, h=h)


def is_order_zero(phi: LinMap) -> bool:
    """Whether phi is cpc and the structure identities hold to TOL_ALG."""
    if not classify(phi).cpc:
        return False
    try:
        structure_decompose(phi)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# perturbation into a nearby algebra
# ---------------------------------------------------------------------------

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
    fd, N = oz.map.domain, oz.map.codomain_dim
    if B.ambient_dim != N:
        raise ValueError("B must live on the same space as the image of phi")
    kept = [k for k, E in enumerate(fd.unit_blocks(oz.map.images))
            if opnorm_max(E) > TOL_ALG]
    mu = 2.0 * gamma + gamma ** 2
    if not kept:
        psi = LinMap(fd, N, np.zeros((fd.dim_linear, N, N)), codomain_algebra=B)
        return psi, Certificate.build("order-zero-perturbation",
                                      {"gamma": gamma, "mu": mu, "blocks_kept": 0}, 0.0)

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

    u, dist, lift_iters, lift_stop = tensor_lift(t, B, m)
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
    cert = Certificate.build(
        "order-zero-perturbation", {"gamma": gamma, "mu": mu, "m": m, "blocks_kept": len(kept)},
        min(hi, structural),
        details={"cb_lo": float(lo), "cb_hi": float(hi),
                 "structural_bound": float(structural), "witness_distance": float(dist),
                 "witness_stop": lift_stop, "witness_iters": lift_iters, "t_norm": t_norm,
                 "reconstruction_residual": float(recon),
                 "membership_residual": float(member), "cp": bool(cls.cp)})
    return psi, cert


# ---------------------------------------------------------------------------
# nuclear-dimension decompositions
# ---------------------------------------------------------------------------

def _compose(downs, ups, x: np.ndarray) -> np.ndarray:
    return sum(up(down(x)) for down, up in zip(downs, ups))


@dataclass(frozen=True)
class NucDimDecomposition:
    """A (n+1)-colored factorization of the identity of A: per color i a cpc
    map downs[i]: A -> F_i into a block algebra and an order-zero map
    ups[i]: F_i -> A, whose composite sum_i ups[i](downs[i](x)) recovers x on
    a finite set to within the defect."""

    downs: tuple
    ups: tuple
    defect: float

    def __post_init__(self):
        if not self.ups or [f.codomain_dim for f in self.downs] != [g.domain.d for g in self.ups]:
            raise ValueError("each color's down map must land in M_d of its up map's domain")

    @classmethod
    def measured(cls, downs, ups, X) -> "NucDimDecomposition":
        """The decomposition with its defect sup_X ||compose(x) - x||."""
        return cls(tuple(downs), tuple(ups), worst_move(lambda x: _compose(downs, ups, x), X))

    @property
    def n(self) -> int:
        return len(self.ups) - 1

    def compose(self, x: np.ndarray) -> np.ndarray:
        """sum_i ups[i](downs[i](x)), for one x or a stack."""
        return _compose(self.downs, self.ups, x)


def _block_colors(A: ConcreteAlgebra, groups) -> NucDimDecomposition:
    """The exact decomposition of A through its block model with the blocks
    dealt into colors: color i's down map keeps the blocks in groups[i], and
    its up map sends their matrix units to A's."""
    struct = A.structure()
    fd = struct.fd_model()
    units, blocks = fd.units(), fd.unit_blocks(struct.matrix_units)
    downs, ups = [], []
    for group in groups:
        sub = FDAlgebra(tuple(fd.block_sizes[k] for k in group))
        rows = np.concatenate([fd.offsets[k] + np.arange(fd.block_sizes[k]) for k in group])
        downs.append(LinMap(A, sub.d, units[:, rows][:, :, rows]))
        images = np.concatenate([blocks[k].reshape((-1,) + blocks[k].shape[2:]) for k in group])
        ups.append(LinMap(sub, A.ambient_dim, images, codomain_algebra=A))
    return NucDimDecomposition.measured(downs, ups, A.basis)


def identity_decomposition(A: ConcreteAlgebra) -> NucDimDecomposition:
    """The exact single-color decomposition of a block algebra through its
    own block model (finite-dimensional algebras need no colors)."""
    return _block_colors(A, [range(len(A.structure().summands))])


# the colors split_decomposition deals the blocks into
_SPLIT_COLORS = 2


def split_decomposition(A: ConcreteAlgebra) -> NucDimDecomposition:
    """Exact decomposition with the blocks of A dealt round-robin into
    _SPLIT_COLORS colors; a forced n = _SPLIT_COLORS - 1 presentation of a
    finite-dimensional algebra."""
    r = len(A.structure().summands)
    if r < _SPLIT_COLORS:
        raise ValueError(f"cannot split {r} blocks into {_SPLIT_COLORS} nonempty colors")
    return _block_colors(A, [range(i, r, _SPLIT_COLORS) for i in range(_SPLIT_COLORS)])


def verify_nucdim_decomposition(A: ConcreteAlgebra, X, eps: float,
                                dec: NucDimDecomposition) -> Certificate:
    """Check every invariant of the decomposition and the defect claim
    sup_X ||psi(phi(x)) - x|| <= eps; failures are named in the details."""
    failures = [f"down-{i}-not-cpc" for i, down in enumerate(dec.downs)
                if not classify(down).cpc]
    failures += [f"up-{i}-not-order-zero" for i, up in enumerate(dec.ups)
                 if not is_order_zero(up)]
    comp = LinMap(A, dec.ups[0].codomain_dim, dec.compose(A.structure().matrix_units))
    if not classify(comp).cpc:
        failures.append("composite-not-cpc")
    defect = worst_move(dec.compose, X)
    cert = Certificate.build(
        "nucdim-decomposition", {"eps": eps, "n": dec.n, "n_points": len(X)}, defect,
        details={"failed_invariant": failures[0] if failures else None,
                 "failures": failures, "claimed_defect": dec.defect})
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
    perturbed, summand_certs = zip(*(perturb_order_zero(structure_decompose(up), B, gamma)
                                     for up in dec.ups))
    raw = LinMap(D, B.ambient_dim, _compose(dec.downs, perturbed, D.structure().matrix_units),
                 codomain_algebra=B)
    lo, hi = cb_bracket(raw)
    scale = max(1.0, hi)
    phi = raw.scaled(1.0 / scale) if scale > 1.0 else raw

    cls = classify(phi)
    cert = Certificate.build(
        "nucdim-transfer", {"gamma": gamma, "n": dec.n, "eps": float(eps), "n_points": len(X)},
        worst_move(phi, X),
        details={"rescale": float(scale), "cb_bracket": [float(lo), float(hi)],
                 "cpc": bool(cls.cpc), "summand_achieved": [c.achieved for c in summand_certs],
                 "summand_ceiling": summand_certs[0].ceiling})
    return phi, cert


def near_embed_nucdim(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma: float,
                      dec: NucDimDecomposition, X=None) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    20 eta^{1/2} on X, where eta = 2 (n+1) (2g + g^2)(2 + 2g + g^2) comes
    from transferring the decomposition of A into B."""
    eta = certs.BOUNDS["nucdim-transfer"].ceiling({"gamma": gamma, "n": dec.n, "eps": dec.defect})
    certs.require_window("nucdim-near-embedding", eta=eta)
    X = A.normalized_basis if X is None else np.array(X, dtype=complex)

    # route the decomposition evidence through the transfer certificate; the
    # repaired map itself comes from the expectation onto B, which is close to
    # the inclusion on all of A (the transfer map is close to the identity
    # only on X, so it cannot drive the repair)
    _, cert_t = nucdim_cpc_transfer(A, dec, X, B, gamma)
    res = intertwining_iso(A, B, eta=eta, X_A=X,
                           mu=min(0.2 * np.sqrt(eta), 1.0 / 4000.0))
    cert = Certificate.build(
        "nucdim-near-embedding", {"gamma": gamma, "eta": eta, "n": dec.n, "n_points": len(X)},
        res.certificates["closeness"].achieved,
        details={"sigma_min": res.certificates["injectivity"].details["action_sigma_min"],
                 "transfer_achieved": cert_t.achieved, "transfer_ceiling": cert_t.ceiling,
                 "transfer_ok": cert_t.passed})
    return res.map, cert
