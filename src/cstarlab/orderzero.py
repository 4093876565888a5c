"""Order-zero map calculus: structure decomposition through the commuting
pair (pi, h), cone functional calculus, the constructive perturbation of
order-zero maps into a nearby algebra, nuclear-dimension decompositions with
their verifier and cpc transfer, the finite-nuclear-dimension near-embedding
driver, and a labeled heuristic projection back onto order-zero maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra
from .certs import (TOL_ALG, TOL_RANK, Certificate, ContradictionError,
                    ToleranceBudget, DEFAULT_BUDGET, WINDOW_ISO_ETA,
                    WINDOW_OZ_PROJECTION, provenance_stamp)
from .cpmaps import LinMap, cb_bracket, classify
from .averaging import commutant_lift
from .geometry import tensor_lift
from .intertwine import _distance_hi, _worst_move, intertwining_iso
from .linalg import (clip_spectrum, dagger, eigh_fun, herm, opnorm,
                     opnorm_max, opnorms, psd_pinv, psd_sqrt)

__all__ = [
    "OrderZeroMap",
    "NucDimDecomposition",
    "is_order_zero",
    "structure_decompose",
    "cone_evaluate",
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

    def structure_residual(self) -> float:
        return _structure_residual(self.map.images, self.pi.images, self.h)

    def orthogonality_residual(self) -> float:
        """Largest ||phi(e) phi(f)|| over orthogonal diagonal matrix units."""
        fd = self.fd
        diag = self.map(np.array([fd.matrix_unit(k, i, i)
                                  for k, n in enumerate(fd.block_sizes) for i in range(n)]))
        first, second = np.triu_indices(len(diag), 1)
        return opnorm_max(diag[first] @ diag[second])

    def verify(self, tol: float = TOL_ALG) -> dict:
        cpc = classify(self.map).cpc
        structure = self.structure_residual()
        pi_defect = self.pi.domain.relation_residual(self.pi.images)
        return {"cpc": cpc,
                "structure_residual": structure,
                "orthogonality_residual": self.orthogonality_residual(),
                "pi_defect": pi_defect,
                "ok": bool(cpc and structure <= tol and pi_defect <= tol)}


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
    hp = psd_pinv(h, rel_cutoff=TOL_RANK)
    pi = LinMap(fd, phi.codomain_dim, phi.images @ hp)
    worst = max(fd.relation_residual(pi.images),
                _structure_residual(phi.images, pi.images, h))
    if worst > tol:
        raise ValueError(
            f"not order zero: structural residual {worst:.3g} exceeds {tol:.3g}")
    return pi, h


def is_order_zero(phi: LinMap, tol: float = TOL_ALG):
    """(True, (pi, h)) when phi is cpc and the structure identities hold to
    tol, else (False, None)."""
    if not classify(phi).cpc:
        return False, None
    try:
        pi, h = structure_decompose(phi, tol=tol)
    except ValueError:
        return False, None
    return True, (pi, h)


def cone_evaluate(oz: OrderZeroMap, f, x: np.ndarray) -> np.ndarray:
    """Evaluate the cone homomorphism on f (x) x, i.e. f(h) pi(x), for a
    polynomial f given by ascending coefficients with f(0) = 0."""
    coeffs = np.atleast_1d(np.asarray(getattr(f, "coef", f), dtype=complex))
    if abs(coeffs[0]) != 0.0:
        raise ValueError("the polynomial must vanish at 0")
    fh = eigh_fun(herm(oz.h), lambda t: np.polynomial.polynomial.polyval(t, coeffs))
    return fh @ oz.pi(x)


# ---------------------------------------------------------------------------
# perturbation into a nearby algebra
# ---------------------------------------------------------------------------

def perturb_order_zero(oz: OrderZeroMap, B: ConcreteAlgebra, gamma_cert,
                       seed: int = 0, iters: int = 400,
                       budget: ToleranceBudget = DEFAULT_BUDGET
                       ) -> tuple[LinMap, Certificate]:
    """cp map psi into B with ||phi - psi||_cb <= (2g + g^2)(2 + 2g + g^2)
    for an order-zero phi whose row contraction is within the near-inclusion
    distance g of B.

    Builds the self-adjoint partial isometries s_k = sum_ij pi(e_ij) (x) f_ji,
    the row contraction t with entries t_k = (h_k^{1/2} (x) 1) s_k, lifts t
    into span(B) (x) M_m, and reads psi off the f_11 corner of u theta(x) u*.
    Summands on which phi vanishes are dropped first, so the representation
    used is injective.
    """
    gamma = _distance_hi(gamma_cert)
    fd = oz.fd
    N = oz.codomain_dim
    if B.ambient_dim != N:
        raise ValueError("B must live on the same space as the image of phi")
    labels = fd.unit_labels()
    block_of = np.array([k for (k, i, j) in labels])
    norms = opnorms(oz.map.images)
    kept = [k for k in range(len(fd.block_sizes))
            if norms[block_of == k].max() > budget.tol_alg]
    zero = np.zeros((N, N), dtype=complex)
    if not kept:
        psi = LinMap(fd, N, tuple(zero for _ in labels), codomain_algebra=B)
        cert = Certificate.build(
            name="order-zero-perturbation",
            formula="||phi - psi||_cb <= (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
            inputs={"gamma": gamma, "blocks_kept": 0},
            ceiling=(2 * gamma + gamma ** 2) * (2 + 2 * gamma + gamma ** 2),
            achieved=0.0, provenance=provenance_stamp(seed))
        return psi, cert

    m = max(fd.block_sizes[k] for k in kept)
    eye_m = np.eye(m)

    def f_unit(i, j):
        e = np.zeros((m, m))
        e[i, j] = 1.0
        return e

    t_entries = []
    for k in kept:
        n = fd.block_sizes[k]
        s_k = np.zeros((N * m, N * m), dtype=complex)
        for i in range(n):
            for j in range(n):
                s_k += np.kron(oz.pi(fd.matrix_unit(k, i, j)), f_unit(j, i))
        h_k = herm(oz.map(fd.block_unit(k)))
        t_entries.append(np.kron(psd_sqrt(h_k), eye_m) @ s_k)
    t = np.hstack(t_entries)
    t_norm = float(opnorm(t))

    witnesses, lift_cert = tensor_lift([t], B, m, gamma, iters=iters,
                                       tol=budget.tol_alg)
    u = witnesses[0]
    mu = 2.0 * gamma + gamma ** 2
    dist = lift_cert.achieved
    if dist > mu + 100 * budget.tol_alg:
        raise ContradictionError(
            f"no witness within 2*gamma + gamma^2 = {mu:.3g} of the row "
            f"contraction (got {dist:.3g}); the near-inclusion certificate "
            "understates the distance")

    # theta(e_ij^(k)) = 1_N (x) e_ij in the slot of block k, with e_ij the
    # matrix unit of M_{n_k} in the corner of M_m
    corner = {k: FDAlgebra((fd.block_sizes[k],)).corner_units(m) for k in kept}

    def theta(k: int, i: int, j: int) -> np.ndarray:
        out = np.zeros((len(kept) * N * m, len(kept) * N * m), dtype=complex)
        s = kept.index(k) * N * m
        out[s:s + N * m, s:s + N * m] = np.kron(np.eye(N), corner[k][i * fd.block_sizes[k] + j])
        return out

    images = []
    recon = 0.0
    for (k, i, j), img in zip(labels, oz.map.images):
        if k not in kept:
            images.append(zero)
            continue
        th = theta(k, i, j)
        images.append((u @ th @ dagger(u))[::m, ::m])
        recon = max(recon, opnorm((t @ th @ dagger(t))[::m, ::m] - img))
    psi = LinMap(fd, N, tuple(images), codomain_algebra=B)

    member = B.membership_residual(psi.images)
    cls = classify(psi)
    lo, hi = cb_bracket(oz.map - psi, seed=seed)
    structural = dist * (t_norm + opnorm(u))
    achieved = min(hi, structural)
    ceiling = mu * (2.0 + mu)
    cert = Certificate.build(
        name="order-zero-perturbation",
        formula="||phi - psi||_cb <= (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        inputs={"gamma": gamma, "mu": float(mu), "m": m,
                "blocks_kept": len(kept)},
        ceiling=float(ceiling), achieved=float(achieved),
        slack=budget.tol_alg,
        details={"cb_lo": float(lo), "cb_hi": float(hi),
                 "structural_bound": float(structural),
                 "witness_distance": float(dist), "t_norm": t_norm,
                 "reconstruction_residual": float(recon),
                 "membership_residual": float(member), "cp": bool(cls.cp)},
        provenance=provenance_stamp(seed))
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


def identity_decomposition(A: ConcreteAlgebra, seed: int = 0) -> NucDimDecomposition:
    """The exact single-color decomposition of a block algebra through its
    own block model (finite-dimensional algebras need no colors)."""
    bm = A.block_model(seed=seed)
    fd = bm.fd
    down = LinMap(A, fd.d, bm.to_abstract(A.basis))
    up_map = LinMap(fd, A.ambient_dim, bm.to_concrete(fd.units()), codomain_algebra=A)
    up = OrderZeroMap(map=up_map, pi=up_map, h=np.array(A.support))
    defect = opnorm_max(up(down(A.basis)) - A.basis)
    return NucDimDecomposition(F=fd, pieces=(tuple(range(len(fd.block_sizes))),),
                               down=down, ups=(up,), defect=float(defect))


def split_decomposition(A: ConcreteAlgebra, parts: int = 2,
                        seed: int = 0) -> NucDimDecomposition:
    """Exact decomposition with the blocks of A dealt round-robin into the
    given number of colors; a forced n = parts - 1 presentation of a
    finite-dimensional algebra."""
    bm = A.block_model(seed=seed)
    fd = bm.fd
    r = len(fd.block_sizes)
    if r < parts:
        raise ValueError(f"cannot split {r} blocks into {parts} nonempty colors")
    groups = tuple(tuple(k for k in range(r) if k % parts == i)
                   for i in range(parts))
    down = LinMap(A, fd.d, bm.to_abstract(A.basis))
    ups = []
    for group in groups:
        sub = FDAlgebra(tuple(fd.block_sizes[k] for k in group))
        images = []
        for (kl, i, j) in sub.unit_labels():
            images.append(bm.to_concrete(fd.matrix_unit(group[kl], i, j)))
        up_map = LinMap(sub, A.ambient_dim, tuple(images), codomain_algebra=A)
        h = sum(bm.to_concrete(fd.block_unit(k)) for k in group)
        ups.append(OrderZeroMap(map=up_map, pi=up_map, h=herm(h)))
    dec = NucDimDecomposition(F=fd, pieces=groups, down=down, ups=tuple(ups),
                              defect=0.0)
    dec.defect = opnorm_max(dec.compose(A.basis) - A.basis)
    return dec


def verify_nucdim_decomposition(A: ConcreteAlgebra, X, eps: float,
                                dec: NucDimDecomposition,
                                budget: ToleranceBudget = DEFAULT_BUDGET
                                ) -> Certificate:
    """Check every invariant of the decomposition and the defect claim
    sup_X ||psi(phi(x)) - x|| <= eps; failures are named in the details."""
    failures = []
    if not classify(dec.down).cpc:
        failures.append("down-not-cpc")
    for i, up in enumerate(dec.ups):
        ok, _ = is_order_zero(up.map, tol=budget.tol_alg)
        if not ok:
            failures.append(f"up-{i}-not-order-zero")
    comp = LinMap(A, dec.ups[0].codomain_dim, dec.compose(A.basis))
    if dec.composite_cpc and not classify(comp).cpc:
        failures.append("composite-not-cpc")
    X = np.array(X, dtype=complex)
    defect = opnorm_max(dec.compose(X) - X)
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


def nucdim_cpc_transfer(D: ConcreteAlgebra, dec: NucDimDecomposition, theta,
                        X, B: ConcreteAlgebra, gamma_cert, eps: float | None = None,
                        seed: int = 0,
                        budget: ToleranceBudget = DEFAULT_BUDGET
                        ) -> tuple[LinMap, Certificate]:
    """cpc map phi: D -> B with ||phi(x) - theta(x)|| <=
    2 (n+1) (2g + g^2)(2 + 2g + g^2) + eps on X, by perturbing each colored
    summand of theta composed with the decomposition into B and rescaling the
    sum by its cb norm when that exceeds one.  theta = None means the
    identity embedding of D."""
    gamma = _distance_hi(gamma_cert)
    if eps is None:
        eps = dec.defect
    N = B.ambient_dim
    summand_certs = []
    perturbed = []
    for i, up in enumerate(dec.ups):
        if theta is None:
            omega = up.map
        else:
            omega = LinMap(up.fd, theta.codomain_dim, theta.map(up.map.images))
        pi_i, h_i = structure_decompose(omega, tol=100 * budget.tol_alg)
        oz_i = OrderZeroMap(map=omega, pi=pi_i, h=h_i)
        psi_i, cert_i = perturb_order_zero(oz_i, B, gamma, seed=seed + i,
                                           budget=budget)
        perturbed.append(psi_i)
        summand_certs.append(cert_i)

    y = dec.down(D.basis)
    images = sum(psi_i(dec.restrict(i, y)) for i, psi_i in enumerate(perturbed))
    raw = LinMap(D, N, images, codomain_algebra=B)
    lo, hi = cb_bracket(raw, seed=seed)
    scale = max(1.0, hi)
    phi = raw.scaled(1.0 / scale) if scale > 1.0 else raw

    def target(x):
        return x if theta is None else theta.map(x)

    X = np.array(X, dtype=complex)
    achieved = opnorm_max(phi(X) - target(X))
    mu = 2.0 * gamma + gamma ** 2
    ceiling = 2.0 * (dec.n + 1) * mu * (2.0 + mu) + eps
    cls = classify(phi)
    cert = Certificate.build(
        name="nucdim-transfer",
        formula="||phi(x) - theta(x)|| <= 2 (n+1) (2 gamma + gamma^2)"
                "(2 + 2 gamma + gamma^2) + eps on X",
        inputs={"gamma": gamma, "n": dec.n, "eps": float(eps),
                "n_points": len(X)},
        ceiling=float(ceiling), achieved=float(achieved),
        slack=budget.tol_alg,
        details={"rescale": float(scale), "cb_bracket": [float(lo), float(hi)],
                 "cpc": bool(cls.cpc),
                 "summand_achieved": [c.achieved for c in summand_certs],
                 "summand_ceiling": summand_certs[0].ceiling if summand_certs else 0.0},
        provenance=provenance_stamp(seed))
    return phi, cert


def near_embed_nucdim(A: ConcreteAlgebra, B: ConcreteAlgebra, gamma_cert,
                      dec: NucDimDecomposition, X=None, seed: int = 0,
                      budget: ToleranceBudget = DEFAULT_BUDGET
                      ) -> tuple[LinMap, Certificate]:
    """Injective *-homomorphism theta: A -> B with ||theta(x) - x|| <=
    20 eta^{1/2} on X, where eta = 2 (n+1) (2g + g^2)(2 + 2g + g^2) comes
    from transferring the decomposition of A into B."""
    gamma = _distance_hi(gamma_cert)
    mu = 2.0 * gamma + gamma ** 2
    eta = 2.0 * (dec.n + 1) * mu * (2.0 + mu) + dec.defect
    budget.require_window("nucdim-embedding", eta, WINDOW_ISO_ETA)
    X = A.normalized_basis if X is None else np.array(X, dtype=complex)

    # route the decomposition evidence through the transfer certificate; the
    # stage maps themselves come from the expectation producer, which keeps a
    # small multiplicative defect on every tracked set (the transfer map is
    # close to the identity only on X, so it cannot drive the repair)
    _, cert_t = nucdim_cpc_transfer(A, dec, None, X, B, gamma,
                                    eps=dec.defect, seed=seed, budget=budget)
    res = intertwining_iso(A, B, eta=eta, X_A=X,
                           mu=min(0.2 * np.sqrt(eta), 1.0 / 4000.0),
                           producer=None, seed=seed, budget=budget)
    achieved = _worst_move(res.map, X)
    cert = Certificate.build(
        name="nucdim-near-embedding",
        formula="||theta(x) - x|| <= 20 eta^{1/2}, "
                "eta = 2 (n+1) (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        inputs={"gamma": gamma, "eta": float(eta), "n": dec.n,
                "n_points": len(X)},
        ceiling=float(20.0 * np.sqrt(eta)), achieved=float(achieved),
        details={"sigma_min": res.certificates["injectivity"].details["action_sigma_min"],
                 "stages": len(res.trace),
                 "transfer_achieved": cert_t.achieved,
                 "transfer_ceiling": cert_t.ceiling,
                 "transfer_ok": cert_t.passed},
        provenance=provenance_stamp(seed))
    return res.map, cert


# ---------------------------------------------------------------------------
# heuristic projection back onto order-zero maps
# ---------------------------------------------------------------------------

def _trace_out_first(M: np.ndarray, n: int, N: int) -> np.ndarray:
    return np.einsum("sasb->ab", M.reshape(n, N, n, N))


def order_zero_projection(psi: LinMap, tol: float = 1e-8,
                          gamma: float | None = None, seed: int = 0,
                          budget: ToleranceBudget = DEFAULT_BUDGET
                          ) -> tuple[OrderZeroMap, Certificate]:
    """Nearest-order-zero fit for a cp map that is close to one; an explicitly
    labeled heuristic, verified a posteriori.

    Alternating fit: h from psi(1); a candidate representation from the
    pseudoinverse identity, polished by rounding the spectrum of the averaged
    block projectors to genuine projections and re-reading the representation
    off them; h re-averaged into the commutant of the result.  The certificate
    reports the cb bracket of psi minus the fit, compared against
    493 gamma^{1/2} when gamma is supplied.
    """
    fd = psi.domain
    if not isinstance(fd, FDAlgebra):
        raise ValueError("the fit needs a block domain")
    if gamma is not None:
        budget.require_window("order-zero-projection", gamma,
                              WINDOW_OZ_PROJECTION)
    N = psi.codomain_dim
    h0 = clip_spectrum(herm(psi(fd.unit())), 0.0, 1.0)
    hp = psd_pinv(h0, rel_cutoff=TOL_RANK)
    pi_imgs = {lab: psi.images[idx] @ hp
               for idx, lab in enumerate(fd.unit_labels())}

    rounds = []
    for _ in range(3):
        new_imgs = {}
        drift = 0.0
        for k, n in enumerate(fd.block_sizes):
            K = np.zeros((n * N, n * N), dtype=complex)
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    K += np.kron(e, pi_imgs[(k, i, j)])
            vals, vecs = np.linalg.eigh(herm(K / n))
            keep = vecs[:, vals >= 0.5]
            P = keep @ dagger(keep)
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[j, i] = 1.0
                    rec = n * _trace_out_first(np.kron(e, np.eye(N)) @ P, n, N)
                    drift = max(drift, opnorm(rec - pi_imgs[(k, i, j)]))
                    new_imgs[(k, i, j)] = rec
        for (k, i, j) in list(new_imgs):
            sym = (new_imgs[(k, i, j)] + dagger(new_imgs[(k, j, i)])) / 2.0
            new_imgs[(k, i, j)] = sym
        pi_imgs = new_imgs
        rounds.append(float(drift))
        if drift < budget.tol_exact:
            break

    pi = LinMap(fd, N, tuple(pi_imgs[lab] for lab in fd.unit_labels()))
    pi_defect = fd.relation_residual(pi.images)
    if pi_defect > tol:
        raise ValueError(
            f"fit residual {pi_defect:.3g} above {tol:.3g}; "
            "the input is not close enough to an order-zero map")
    carrier = ConcreteAlgebra.from_basis(list(pi.images), N)
    lifted = commutant_lift(h0, carrier, seed=seed, budget=budget)
    h = clip_spectrum(herm(lifted.value), 0.0, 1.0)
    fit = OrderZeroMap.from_pair(pi, h, tol=100 * tol,
                                 codomain_algebra=psi.codomain_algebra)

    lo, hi = cb_bracket(psi - fit.map, seed=seed)
    ceiling = 493.0 * np.sqrt(gamma) if gamma is not None else np.inf
    cert = Certificate.build(
        name="order-zero-projection",
        formula="cb distance from the fitted order-zero map, compared "
                "against 493 gamma^{1/2}",
        inputs={"gamma": gamma, "tol": tol},
        ceiling=float(ceiling), achieved=float(hi),
        heuristic=True,
        details={"cb_lo": float(lo), "pi_defect": float(pi_defect),
                 "rounding_drift": rounds,
                 "structure_residual": fit.structure_residual()},
        provenance=provenance_stamp(seed))
    return fit, cert
