"""Linear maps between matrix algebras: Choi blocks, positivity classes,
Kraus and Stinespring forms, defects, restricted expectations, and cb-norm
brackets.

Conventions.  A :class:`LinMap` stores its values on the matrix units
e_ij^(k), lexicographic in (block, row, column), of its block model ``fd`` as
one (d, N, N) array: the units of an :class:`~cstarlab.algebra.FDAlgebra`
domain, or those of the Wedderburn structure of a
:class:`~cstarlab.algebra.ConcreteAlgebra` domain.  A map evaluates by one
contraction of the coefficients over those units with that array, on one
element or on a stack (S, n, n) of them.  A map has one Choi block per
summand, C_k = sum_ij e_ij (x) phi(e_ij^(k)), an (n_k N) x (n_k N) matrix;
it is completely positive iff every block is positive semidefinite.  Choi
blocks and the reshuffle are reshapes and transposes of the image array, and
so are the constructions read off them: the Kraus operators of a block are
its Choi eigenvectors reshaped, the Stinespring isometry stacks those, and
the Choi noise of ``perturb_choi`` reads its noisy blocks back by the
inverse reshape.  The dilation's representation e_ij (x) 1_{r_k} is never
formed: a compression M* pi(e_ij) M is the product M_{k,i}* M_{k,j} of two
r_k-row slices of M (``dilation_images``).

A map is tested for being a homomorphism one way: ``hom_defect`` reads
``FDAlgebra.relation_residual`` on its images, on a block or a concrete
domain alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra, _combine
from .certs import TOL_ALG, TOL_PSD, Certificate, require_finite
from .linalg import (_BATCH_BYTES, _HS_ABS_SLACK, _HS_REL_SLACK, dagger, herm, hs_norm,
                     opnorm, opnorm_max, opnorms, psd_part, random_hermitian)

__all__ = [
    "LinMap",
    "Ternary",
    "perturb_choi",
    "classify",
    "kraus_operators",
    "StinespringDilation",
    "stinespring",
    "dilation_images",
    "hom_defect",
    "worst_move",
    "arveson_restrict",
    "ucp_extension",
    "cb_bracket",
]


@dataclass
class Ternary:
    """Positivity classification: each flag is True/False with a residual."""

    cp: bool
    cpc: bool
    ucp: bool
    choi_min_eig: float
    norm_of_unit: float
    unit_defect: float


@dataclass
class LinMap:
    """Linear map from a finite-dimensional C*-algebra into M_N.

    domain: FDAlgebra (abstract blocks) or ConcreteAlgebra (subalgebra of an
    ambient matrix algebra).  images is a (d, N, N) array whose i-th matrix
    is the value on the i-th matrix unit of ``fd``, the domain's block model;
    iterating over it yields the N x N images.  phi(x) takes one domain
    element or a stack (S, n, n) and returns phi of each.
    codomain_algebra, when set, declares that images are expected to lie in
    that subalgebra; certificates can then measure the residual.
    """

    domain: FDAlgebra | ConcreteAlgebra
    codomain_dim: int
    images: np.ndarray
    codomain_algebra: ConcreteAlgebra | None = None

    def __post_init__(self):
        N = self.codomain_dim
        imgs = np.asarray(self.images, dtype=complex)
        if imgs.ndim != 3 or imgs.shape[1:] != (N, N):
            raise ValueError("image has wrong codomain shape")
        n_basis = (self.domain.dim_linear if isinstance(self.domain, FDAlgebra)
                   else self.domain.dim)
        if len(imgs) != n_basis:
            raise ValueError("action matrix shape does not match the domain dimension")
        require_finite(imgs, "map images")
        self.images = imgs

    # -- evaluation ----------------------------------------------------------

    @property
    def fd(self) -> FDAlgebra:
        """The block model whose matrix units the images are the values on:
        the domain, or the ``fd_model()`` of a concrete domain's structure."""
        if isinstance(self.domain, FDAlgebra):
            return self.domain
        return self.domain.structure().fd_model()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x's coefficients over the matrix units (the structure's ``coeffs``
        on a concrete domain) against the images."""
        domain = self.domain
        units = domain if isinstance(domain, FDAlgebra) else domain.structure()
        return _combine(units.coeffs(x), self.images)

    def codomain_unit(self) -> np.ndarray:
        if self.codomain_algebra is not None:
            return self.codomain_algebra.support
        return np.eye(self.codomain_dim, dtype=complex)

    def value_on_unit(self) -> np.ndarray:
        """phi(1), the sum of the images of the diagonal units."""
        fd = self.fd
        return _combine(fd.coeffs(fd.unit()), self.images)

    # -- arithmetic -----------------------------------------------------------

    def _same_domain(self, other: "LinMap"):
        if self.codomain_dim != other.codomain_dim:
            raise ValueError("codomain mismatch")
        if len(self.images) != len(other.images):
            raise ValueError("domain mismatch")

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._same_domain(other)
        return LinMap(self.domain, self.codomain_dim, self.images - other.images)

    def scaled(self, c: float) -> "LinMap":
        return LinMap(self.domain, self.codomain_dim, c * self.images,
                      codomain_algebra=self.codomain_algebra)

    def conjugated(self, u: np.ndarray) -> "LinMap":
        """Ad(u) composed after the map."""
        return LinMap(self.domain, self.codomain_dim, u @ self.images @ dagger(u))


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------

def choi_blocks(phi: LinMap) -> list[np.ndarray]:
    """Per-summand Choi matrices C_k = sum_ij e_ij (x) phi(e_ij^(k)), a
    reshape of the images on each call."""
    fd, N = phi.fd, phi.codomain_dim
    # block (i, j) of C_k is the image of e_ij
    return [E.transpose(0, 2, 1, 3).reshape(n * N, n * N)
            for n, E in zip(fd.block_sizes, fd.unit_blocks(phi.images))]


def _from_choi_blocks(fd: FDAlgebra, N: int, blocks) -> LinMap:
    """The map into M_N whose per-summand Choi blocks are ``blocks``."""
    return LinMap(fd, N, np.concatenate([
        C.reshape(n, N, n, N).transpose(0, 2, 1, 3).reshape(n * n, N, N)
        for n, C in zip(fd.block_sizes, blocks)]))


def perturb_choi(phi: LinMap, eps: float, rng: np.random.Generator) -> LinMap:
    """The cp map whose Choi blocks are the psd parts of C_k + eps g_k /
    ||g_k||_HS, C_k those of phi and g_k = random_hermitian(rng, n_k N) drawn
    summand by summand; its norm is not controlled."""
    noisy = []
    for C in choi_blocks(phi):
        g = random_hermitian(rng, C.shape[0])
        noisy.append(psd_part(C + (eps / max(hs_norm(g), 1e-300)) * g))
    return _from_choi_blocks(phi.fd, phi.codomain_dim, noisy)


def classify(phi: LinMap) -> Ternary:
    """cp iff the Choi blocks are Hermitian psd up to TOL_PSD; cpc adds
    ||phi(1)|| <= 1 + TOL_PSD; ucp instead requires phi(1) to equal the
    codomain unit up to TOL_ALG."""
    blocks = choi_blocks(phi)
    min_eig = np.inf
    herm_resid = 0.0
    # one stack per block size: batched SVDs and eigensolves give each block
    # the values its own call would; blocks are never empty, so min_eig is
    # finite unless an eigenvalue is nan, which np.minimum keeps.  The skew
    # part's HS norm, with opnorm_max's slack, bounds its operator norm: at
    # or below TOL_PSD no SVD can move the verdict; an overflowing (inf) or
    # nan bound takes the SVD, and opnorm_max reads that stack as nan
    for size in sorted({len(C) for C in blocks}):
        Cs = np.stack([C for C in blocks if len(C) == size])
        skew = Cs - dagger(Cs)
        with np.errstate(over="ignore"):
            bound = hs_norm(skew) * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK
        if not bound <= TOL_PSD:
            herm_resid = np.maximum(herm_resid, opnorm_max(skew))
        min_eig = float(np.minimum(min_eig, np.linalg.eigvalsh(herm(Cs)).min()))
    unit_img = phi.value_on_unit()
    nrm1 = opnorm(unit_img)
    unit_defect = opnorm(unit_img - phi.codomain_unit())
    cp = (herm_resid <= TOL_PSD) and (min_eig >= -TOL_PSD)
    cpc = cp and nrm1 <= 1.0 + TOL_PSD
    ucp = cp and unit_defect <= TOL_ALG
    return Ternary(cp=cp, cpc=cpc, ucp=ucp, choi_min_eig=min_eig,
                   norm_of_unit=nrm1, unit_defect=unit_defect)


def kraus_operators(phi: LinMap, tol_psd: float) -> list[np.ndarray]:
    """Per-block Kraus operators of a cp map, one (r_k, N, n_k) stack per
    block, from the eigendecomposition of its Choi blocks (eigenvalues below
    tol_psd are discarded): K e_j = sqrt(lam) v[(j, :)] for each kept
    eigenpair (lam, v)."""
    out = []
    for n, C in zip(phi.fd.block_sizes, choi_blocks(phi)):
        vals, vecs = np.linalg.eigh(herm(C))
        keep = vals >= tol_psd
        out.append(_kraus_stack(np.sqrt(vals[keep]) * vecs[:, keep], n, phi.codomain_dim))
    return out


def _kraus_stack(vecs: np.ndarray, n: int, N: int) -> np.ndarray:
    """The (r, N, n) stack of the columns of an (n N, r) matrix, each read
    as an n x N matrix (rows indexed by the domain block) and transposed."""
    return vecs.T.reshape(vecs.shape[1], n, N).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------

@dataclass
class StinespringDilation:
    """Minimal dilation phi(x) = E V* pi(x) V E* of a ucp map on a block
    domain (+)_k M_{n_k}, with pi(e_ij) = e_ij (x) 1_{r_k} on block k, r_k the
    block's Kraus rank, on C^K, K = sum_k n_k r_k, basis ordered (k, i,
    alpha); pi is never stored.  V: C^{d'} -> C^K is an isometry; E: C^{d'}
    -> C^N embeds the support corner of the codomain (E = identity when
    phi(1) = 1).  So phi's images are ``dilation_images`` of M = V E*."""

    isometry: np.ndarray        # K x d'
    embed: np.ndarray           # N x d'
    ranks: tuple[int, ...]      # r_k per block


def stinespring(phi: LinMap, tol_psd: float = TOL_PSD) -> StinespringDilation:
    """Minimal Stinespring dilation of a ucp map, on its block model ``fd``.

    When phi(1) is a proper support projection e, the codomain is first
    compressed to the corner e M_N e; the returned embed isometry undoes the
    compression.
    """
    cls = classify(phi)
    if not cls.ucp:
        raise ValueError(
            f"stinespring requires a ucp map (unit defect {cls.unit_defect:.2e}, "
            f"choi min eig {cls.choi_min_eig:.2e})")
    vals, vecs = np.linalg.eigh(herm(phi.value_on_unit()))
    E = vecs[:, vals > 0.5]  # N x d'

    # compressed Kraus stacks (r_k, d', n_k)
    ops = [dagger(E) @ K for K in kraus_operators(phi, tol_psd=tol_psd)]
    if not any(len(K) for K in ops):
        raise ValueError("zero map cannot be ucp")
    # V_k xi = sum_alpha (K_alpha^H xi) tensor e_alpha, K ordering (i, alpha):
    # row (i, alpha) of V_k is row i of K_alpha^H
    V = np.concatenate([dagger(K).swapaxes(0, 1).reshape(-1, E.shape[1]) for K in ops])
    return StinespringDilation(isometry=V, embed=E, ranks=tuple(len(K) for K in ops))


def _unit_images(W: np.ndarray) -> np.ndarray:
    """The (n^2, N, N) stack of W_i W_j* in (i, j) order for a stack W of n
    N x r matrices; matrix units of M_n when the columns of all the W_i are
    orthonormal together."""
    return (W[:, None] @ dagger(W[None])).reshape(-1, W.shape[1], W.shape[1])


def dilation_images(block_sizes, ranks, M: np.ndarray) -> np.ndarray:
    """M* pi(e_ij) M over the matrix units in (k, i, j) order, for pi(e_ij) =
    e_ij (x) 1_{r_k} on block k (``StinespringDilation``) and a K x N matrix
    M: M_{k,i}* M_{k,j}, M_{k,i} the r_k rows of M at block k and index i.
    Blocks past the shorter of block_sizes and ranks are left out."""
    out, off = [], 0
    for n, r in zip(block_sizes, ranks):
        out.append(_unit_images(dagger(M[off:off + n * r].reshape(n, r, M.shape[1]))))
        off += n * r
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------

def hom_defect(phi: LinMap) -> float:
    """Homomorphism defect of phi, on a block or a concrete domain: the
    generating matrix-unit relation residual (``FDAlgebra.relation_residual``)
    of its images, its values on the matrix units of ``phi.fd``.  Zero exactly
    when phi is a *-homomorphism.  Otherwise it is phi's defect at those
    units, a deterministic lower estimate of the unit-ball defect, not a
    bound."""
    return phi.fd.relation_residual(phi.images)


def worst_move(f, X) -> float:
    """max over x in X of ||f(x) - x||, 0.0 for no X, for an f that maps each
    matrix of a stack on its own: ``opnorm_max`` of f on 32 points of X or
    _BATCH_BYTES / 4 of them at a time, whichever is more."""
    batch = max(32, _BATCH_BYTES // 4 // max(np.asarray(X[:1]).nbytes, 1))
    points = (np.asarray(X[i:i + batch], dtype=complex) for i in range(0, len(X), batch))
    return opnorm_max(f(x) - x for x in points)


# ---------------------------------------------------------------------------
# expectations and extensions
# ---------------------------------------------------------------------------

def arveson_restrict(A: ConcreteAlgebra, B: ConcreteAlgebra, X,
                     gamma: float) -> tuple[LinMap, Certificate]:
    """Restrict the expectation onto B to the subalgebra A.

    Produces a cpc map phi: A -> B with ||phi(x) - x|| <= 2 gamma + TOL_ALG for
    every x in X, valid whenever each x in X lies within gamma of B in
    operator norm (the expectation is a contraction fixing B).  Its images
    are B.project of A's matrix units: the expectation is never formed on all
    of M_N.
    """
    phi = LinMap(A, A.ambient_dim, B.project(A.structure().matrix_units), codomain_algebra=B)
    return phi, Certificate.build("expectation-restriction",
                                  {"gamma": gamma, "n_points": len(X)}, worst_move(phi, X))


def ucp_extension(phi: LinMap) -> LinMap:
    """Extend a cpc map to a ucp map on the unitized domain: the domain gains
    a one-dimensional block and the new block's unit is sent to (codomain
    unit) - phi(1), which is always ucp for cpc phi.  The extension's domain
    is the block algebra ``phi.fd`` plus that block.
    """
    cls = classify(phi)
    if not cls.cpc:
        raise ValueError(
            f"ucp_extension requires a cpc map (||phi(1)|| = {cls.norm_of_unit:.6g}, "
            f"choi min eig {cls.choi_min_eig:.2e})")
    fd2 = FDAlgebra(tuple(phi.fd.block_sizes) + (1,))
    slack = phi.codomain_unit() - phi.value_on_unit()
    return LinMap(fd2, phi.codomain_dim, np.concatenate([phi.images, slack[None]]),
                  codomain_algebra=phi.codomain_algebra)


# ---------------------------------------------------------------------------
# completely bounded norm brackets
# ---------------------------------------------------------------------------

def _pinched_images(phi: LinMap) -> np.ndarray:
    """(d, d, N, N) array F with F[i, j] = phi(e_ij) for the matrix units e_ij
    of M_d: the map composed with the block pinching (zero off the blocks).

    Composing with the pinching is a complete isometry for the cb norm, so
    the bracket may be computed on the full matrix algebra M_d.  The Choi
    matrix C[(i,a),(j,b)] and the reshuffle R[(a,i),(j,b)], both equal to
    phi(e_ij)[a,b], are transposes of F.
    """
    fd, N = phi.fd, phi.codomain_dim
    F = np.zeros((fd.d * fd.d, N, N), dtype=complex)
    F[fd.unit_positions] = phi.images
    return F.reshape(fd.d, fd.d, N, N)


def _choi_and_reshuffle(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Choi matrix and reshuffle from the pinched images F (see
    _pinched_images)."""
    d, N = F.shape[0], F.shape[2]
    return (F.transpose(0, 2, 1, 3).reshape(d * N, d * N),
            F.transpose(2, 0, 1, 3).reshape(N * d, d * N))


_EPS = float(np.finfo(float).eps)


def _gram_norm_up(F: np.ndarray) -> float:
    """||sum_t F_t F_t*|| for a (T, n, k) stack, rounded up: the sums of
    m = T k products err by at most (m + 2) eps ||F||_F^2 in norm, the SVD by
    2 n eps ||F||_F^2 (its backward error), and the margin doubles both."""
    m, n = F.shape[0] * F.shape[2], F.shape[1]
    margin = 2.0 * (m + 2 * n + 2) * _EPS * float(np.sum(np.abs(F) ** 2))
    return opnorm(np.matmul(F, dagger(F)).sum(axis=0)) + margin


def _factor_bound(As: np.ndarray, Bs: np.ndarray, C: np.ndarray) -> float:
    """||sum A A*||^{1/2} ||sum B* B||^{1/2} over the factor terms phi(x) ~
    sum_t A_t x B_t, after rescaling each term to ||A_t|| = ||B_t|| where that
    moves its scale by more than 1e-3, plus their miss sum_ij ||phi(e_ij) -
    sum_t A_t e_ij B_t||_F against phi's Choi matrix C.  A balanced term stays
    balanced, so one pass settles every term.  Rounded outward: both norms by
    ``_gram_norm_up``, their product and root by 4 eps, and the miss for its
    sums and the factors' T-term Choi matrix (2 (T + 2) eps d ||A||_F ||B||_F)."""
    na, nb = opnorms(As), opnorms(Bs)
    live = (na >= 1e-300) & (nb >= 1e-300)
    s = np.sqrt(np.divide(na, nb, out=np.ones_like(na), where=live))
    s[np.abs(s - 1.0) <= 1e-3] = 1.0
    As, Bs = As / s[:, None, None], Bs * s[:, None, None]
    T, N, d = As.shape
    G = As.transpose(0, 2, 1).reshape(T, d * N).T @ Bs.reshape(T, d * N)
    miss = np.sqrt((np.abs(C - G) ** 2).reshape(d, N, d, N).sum(axis=(1, 3))).sum()
    miss = (miss * (1.0 + 2.0 * (N * N + d * d + 2) * _EPS)
            + 2.0 * (T + 2) * _EPS * d * np.linalg.norm(As) * np.linalg.norm(Bs))
    return float(np.sqrt(_gram_norm_up(As) * _gram_norm_up(dagger(Bs))) * (1.0 + 4.0 * _EPS) + miss)


def cb_bracket(phi: LinMap) -> tuple[float, float]:
    """Certified bracket lo <= ||phi||_cb <= hi, a function of the map alone.

    Maps that pass as cp have lo = ||phi(1)|| and hi = ||phi(1)|| + 2 tr H- +
    2 d^2 ||K|| for the Choi matrix H+ - H- + K, K skew (what classify's
    TOL_PSD lets through; eigenvalues within 2 n eps ||C|| of zero are
    rounding), both rounded outward by one margin: the sum of d positive
    images errs by at most (d + 2) N eps ||phi(1)||, the SVD by 2 N eps
    ||phi(1)||, and the margin doubles both.  Otherwise hi is the best
    factorization bound (``_factor_bound``) over Kraus-type decompositions
    from the Choi eigendecomposition and the reshuffled SVD, and lo is the
    swap witness ||(phi (x) id_d)(W)||, W = sum_ij e_ij (x) e_ji a unitary of
    M_d (x) M_d (exact for the transpose, whose cb norm is d); its image is a
    transpose of the pinched images, so only its SVD rounds, and lo is
    rounded down by twice that SVD's backward error, 4 N d eps.
    """
    d, N = phi.fd.d, phi.codomain_dim
    cls = classify(phi)
    if cls.cp:
        blocks = choi_blocks(phi)
        neg = -sum(v[v < -2.0 * len(v) * _EPS * np.abs(v).max()].sum()
                   for v in map(np.linalg.eigvalsh, map(herm, blocks)))
        skew = np.max([opnorm(C - dagger(C)) for C in blocks])  # keeps a nan; max() drops it
        hi = cls.norm_of_unit + 2.0 * neg + d * d * skew
        margin = 2.0 * (d + 2 * N + 2) * N * _EPS
        return float(cls.norm_of_unit * (1.0 - margin)), float(hi * (1.0 + margin))

    # upper bounds from factorizations of the pinched-domain Choi
    factors = []
    F = _pinched_images(phi)
    Cfull, R = _choi_and_reshuffle(F)
    # (1) Hermitian eigendecomposition when the Choi is Hermitian:
    # A = sign(lam) K, B = K* with K the Kraus-type operator of (lam, v)
    if opnorm(Cfull - dagger(Cfull)) <= 1e-10 * max(opnorm(Cfull), 1.0):
        vals, vecs = np.linalg.eigh(herm(Cfull))
        keep = np.abs(vals) >= 1e-14
        K = _kraus_stack(np.sqrt(np.abs(vals[keep])) * vecs[:, keep], d, N)
        factors.append((np.sign(vals[keep])[:, None, None] * K, dagger(K)))
    # (2) SVD of the reshuffle: A = sqrt(s) u reshaped, B = sqrt(s) v* reshaped
    u, s, vh = np.linalg.svd(R)
    keep = s >= 1e-14
    root = np.sqrt(s[keep])
    factors.append(((root * u[:, keep]).T.reshape(len(root), N, d),
                    (root[:, None] * vh[keep]).reshape(len(root), d, N)))
    hi = min(_factor_bound(As, Bs, Cfull) for As, Bs in factors)

    # lower bound: the swap witness, (phi (x) id_d)(W)[(a, p), (b, q)] = phi(e_qp)[a, b]
    lo = opnorm(F.transpose(2, 1, 3, 0).reshape(N * d, N * d)) * (1.0 - 4.0 * N * d * _EPS)
    return float(lo), float(hi)
