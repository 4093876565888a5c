"""Linear maps between matrix algebras: Choi blocks, positivity classes,
Kraus and Stinespring forms, defects, restricted expectations, and cb-norm
brackets.

Conventions.  A :class:`LinMap` stores its domain, an optional codomain
algebra and its values on the matrix units e_ij^(k), lexicographic in
(block, row, column), of its block model ``fd`` as one (d, N, N) array: the
units of an :class:`~cstarlab.algebra.FDAlgebra` domain, or those of the
Wedderburn structure of a :class:`~cstarlab.algebra.ConcreteAlgebra` domain;
N is read off that array.  A map evaluates by one contraction of the
coefficients over those units with that array, on one element or on a stack
(S, n, n) of them.  A map has one Choi block per summand, C_k = sum_ij e_ij
(x) phi(e_ij^(k)), an (n_k N) x (n_k N) matrix; it is completely positive
iff every block is positive semidefinite.  Each summand's Choi block and
reshuffle are reshapes and transposes of its images, and so is everything
read off them: the Kraus operators of a block are its Choi eigenvectors
reshaped, the Stinespring isometry stacks those, the Choi noise of
``perturb_choi`` reads its noisy blocks back by the inverse reshape, and
``cb_bracket`` reads both ends summand by summand.

A map is tested for being a homomorphism one way: ``hom_defect`` reads
``FDAlgebra.relation_residual`` on its images, on a block or a concrete
domain alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra, _combine
from .certs import TOL_ALG, TOL_PSD, Certificate, require_finite
from .linalg import (_HS_ABS_SLACK, _HS_REL_SLACK, chunk_length, dagger, herm, hs_norm,
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
    """Positivity classification: cp with its residual; cpc and ucp follow
    from cp, ||phi(1)|| and the unit defect (see ``classify``).  spectra holds
    the eigenvalues of each Hermitian part of a Choi block, in block order."""

    cp: bool
    choi_min_eig: float
    norm_of_unit: float
    unit_defect: float
    spectra: list

    @property
    def cpc(self) -> bool:
        return self.cp and self.norm_of_unit <= 1.0 + TOL_PSD

    @property
    def ucp(self) -> bool:
        return self.cp and self.unit_defect <= TOL_ALG


@dataclass
class LinMap:
    """Linear map from a finite-dimensional C*-algebra into M_N.

    domain: FDAlgebra (abstract blocks) or ConcreteAlgebra (subalgebra of an
    ambient matrix algebra).  images is a (d, N, N) array whose i-th matrix
    is the value on the i-th matrix unit of ``fd``, the domain's block model;
    iterating over it yields the N x N images, and N is ``codomain_dim``.
    phi(x) takes one domain element or a stack (S, n, n) and returns phi of
    each.  codomain_algebra, when set, declares that images are expected to
    lie in that subalgebra; certificates can then measure the residual.
    """

    domain: FDAlgebra | ConcreteAlgebra
    images: np.ndarray
    codomain_algebra: ConcreteAlgebra | None = None

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=complex)
        if imgs.ndim != 3 or imgs.shape[1] != imgs.shape[2]:
            raise ValueError(f"images have shape {imgs.shape}, not (d, N, N)")
        n_basis = (self.domain.dim_linear if isinstance(self.domain, FDAlgebra)
                   else self.domain.dim)
        if len(imgs) != n_basis:
            raise ValueError("action matrix shape does not match the domain dimension")
        require_finite(imgs, "map images")
        self.images = imgs

    @property
    def codomain_dim(self) -> int:
        return self.images.shape[1]

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

    def __sub__(self, other: "LinMap") -> "LinMap":
        if self.images.shape != other.images.shape:
            raise ValueError(f"maps of shapes {self.images.shape} and {other.images.shape}")
        return LinMap(self.domain, self.images - other.images)

    def scaled(self, c: float) -> "LinMap":
        return LinMap(self.domain, c * self.images, codomain_algebra=self.codomain_algebra)

    def conjugated(self, u: np.ndarray) -> "LinMap":
        """Ad(u) composed after the map."""
        return LinMap(self.domain, u @ self.images @ dagger(u))


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


def _from_choi_blocks(fd: FDAlgebra, blocks) -> LinMap:
    """The map whose per-summand Choi blocks are ``blocks``, (n_k N) x (n_k N)
    blocks of a map into M_N."""
    return LinMap(fd, np.concatenate([
        C.reshape(n, len(C) // n, n, -1).transpose(0, 2, 1, 3).reshape(n * n, len(C) // n, -1)
        for n, C in zip(fd.block_sizes, blocks)]))


def perturb_choi(phi: LinMap, eps: float, rng: np.random.Generator) -> LinMap:
    """The cp map whose Choi blocks are the psd parts of C_k + eps g_k /
    ||g_k||_HS, C_k those of phi and g_k = random_hermitian(rng, n_k N) drawn
    summand by summand; its norm is not controlled."""
    noisy = []
    for C in choi_blocks(phi):
        g = random_hermitian(rng, C.shape[0])
        noisy.append(psd_part(C + (eps / max(hs_norm(g), 1e-300)) * g))
    return _from_choi_blocks(phi.fd, noisy)


def classify(phi: LinMap) -> Ternary:
    """cp iff the Choi blocks are Hermitian psd up to TOL_PSD; cpc adds
    ||phi(1)|| <= 1 + TOL_PSD; ucp instead requires phi(1) to equal the
    codomain unit up to TOL_ALG."""
    blocks = choi_blocks(phi)
    herm_resid = 0.0
    spectra = [None] * len(blocks)
    # one stack per block size: batched SVDs and eigensolves give each block
    # the values its own call would; blocks are never empty, so min_eig is
    # finite unless an eigenvalue is nan, which the array's min keeps.  The
    # skew part's HS norm, with opnorm_max's slack, bounds its operator norm:
    # at or below TOL_PSD no SVD can move the verdict; an overflowing (inf)
    # or nan bound takes the SVD, and opnorm_max reads that stack as nan
    for size in sorted({len(C) for C in blocks}):
        at = [i for i, C in enumerate(blocks) if len(C) == size]
        Cs = np.stack([blocks[i] for i in at])
        skew = Cs - dagger(Cs)
        with np.errstate(over="ignore"):
            bound = hs_norm(skew) * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK
        if not bound <= TOL_PSD:
            herm_resid = np.maximum(herm_resid, opnorm_max(skew))
        for i, v in zip(at, np.linalg.eigvalsh(herm(Cs))):
            spectra[i] = v
    min_eig = float(np.concatenate(spectra).min())
    unit_img = phi.value_on_unit()
    return Ternary(cp=(herm_resid <= TOL_PSD) and (min_eig >= -TOL_PSD), choi_min_eig=min_eig,
                   norm_of_unit=opnorm(unit_img),
                   unit_defect=opnorm(unit_img - phi.codomain_unit()), spectra=spectra)


def kraus_operators(phi: LinMap, tol_psd: float) -> list[np.ndarray]:
    """Per-block Kraus operators of a cp map, one (r_k, N, n_k) stack per
    block, from the eigendecomposition of its Choi blocks (eigenvalues below
    tol_psd are discarded): K e_j = sqrt(lam) v[(j, :)] for each kept
    eigenpair (lam, v), its column read as an n_k x N matrix and transposed."""
    out = []
    for n, C in zip(phi.fd.block_sizes, choi_blocks(phi)):
        vals, vecs = np.linalg.eigh(herm(C))
        keep = vals >= tol_psd
        K = (np.sqrt(vals[keep]) * vecs[:, keep]).T
        out.append(K.reshape(len(K), n, phi.codomain_dim).swapaxes(1, 2))
    return out


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
    matrix of a stack on its own: ``opnorm_max`` of f on ``chunk_length``
    points of X at a time."""
    batch = chunk_length(np.asarray(X[:1]).nbytes, 4)
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
    phi = LinMap(A, B.project(A.structure().matrix_units), codomain_algebra=B)
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
    return LinMap(fd2, np.concatenate([phi.images, slack[None]]),
                  codomain_algebra=phi.codomain_algebra)


# ---------------------------------------------------------------------------
# completely bounded norm brackets
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _gram_norm_up(Fs) -> float:
    """||sum_t F_t F_t*|| over the terms of a list of (T_k, n, m_k) stacks,
    rounded up: the sums of m = sum_k T_k m_k products err by at most (m + 2)
    eps ||F||_F^2 in norm, the SVD by 2 n eps ||F||_F^2 (its backward error),
    and the margin doubles both."""
    m, n = sum(F.shape[0] * F.shape[2] for F in Fs), Fs[0].shape[1]
    margin = 2.0 * (m + 2 * n + 2) * _EPS * sum(float(np.sum(np.abs(F) ** 2)) for F in Fs)
    return opnorm(sum(np.matmul(F, dagger(F)).sum(axis=0) for F in Fs)) + margin


def _factor_bound(As, Bs, blocks) -> float:
    """||sum A A*||^{1/2} ||sum B* B||^{1/2} over the factor terms phi(x) ~
    sum_t A_t x B_t on block k, As[k] a (T_k, N, n_k) and Bs[k] a (T_k, n_k,
    N) stack, after rescaling each term to ||A_t|| = ||B_t|| where that moves
    its scale by more than 1e-3 (a balanced term stays balanced, so one pass
    settles every term), plus their miss sum_ij ||phi(e_ij) - sum_t A_t e_ij
    B_t||_F against phi's Choi blocks.  Rounded outward: both norms by
    ``_gram_norm_up``, their product and root by 4 eps, and the miss of block
    k for its sums and the factors' T_k-term Choi block (2 (T_k + 2) eps n_k
    ||A_k||_F ||B_k||_F); the blocks' misses add exactly rounded (fsum)."""
    balanced, misses = [], []
    for A, B, C in zip(As, Bs, blocks):
        na, nb = opnorms(A), opnorms(B)
        live = (na >= 1e-300) & (nb >= 1e-300)
        s = np.sqrt(np.divide(na, nb, out=np.ones_like(na), where=live))
        s[np.abs(s - 1.0) <= 1e-3] = 1.0
        A, B = A / s[:, None, None], B * s[:, None, None]
        T, N, n = A.shape
        G = A.transpose(0, 2, 1).reshape(T, n * N).T @ B.reshape(T, n * N)
        miss = np.sqrt((np.abs(C - G) ** 2).reshape(n, N, n, N).sum(axis=(1, 3))).sum()
        misses.append(miss * (1.0 + 2.0 * (N * N + n * n + 2) * _EPS)
                      + 2.0 * (T + 2) * _EPS * n * np.linalg.norm(A) * np.linalg.norm(B))
        balanced.append((A, dagger(B)))
    As, Bs = zip(*balanced)
    return float(np.sqrt(_gram_norm_up(As) * _gram_norm_up(Bs)) * (1.0 + 4.0 * _EPS)
                 + math.fsum(misses))


def cb_bracket(phi: LinMap) -> tuple[float, float]:
    """Certified bracket lo <= ||phi||_cb <= hi, a function of the map alone.

    Maps that pass as cp have lo = ||phi(1)|| and hi = ||phi(1)|| + 2 tr H- +
    2 d^2 ||K|| for the Choi matrix H+ - H- + K, K skew (what classify's
    TOL_PSD lets through, from classify's spectra; eigenvalues within
    2 n eps ||C|| of zero are rounding), both rounded outward by one margin:
    the sum of d positive images errs by at most (d + 2) N eps ||phi(1)||,
    the SVD by 2 N eps ||phi(1)||, and the margin doubles both.

    Otherwise both ends are those of phi composed with the block pinching,
    a complete isometry for the cb norm, read summand by summand, as both
    split by summand: hi is the factorization bound (``_factor_bound``) from
    the SVD of each reshuffle R_k[(a, i), (j, b)] = phi(e_ij^(k))[a, b], and
    lo the largest swap witness ||sum_ij phi(e_ij^(k)) (x) e_ji||, of a
    unitary of M_{n_k} (x) M_{n_k} (exact for the transpose on M_n, of cb
    norm n).  A witness is a transpose of the images, so only its SVD rounds,
    and it is rounded down by twice that SVD's backward error, 4 N n_k eps.
    """
    d, N = phi.fd.d, phi.codomain_dim
    cls = classify(phi)
    if cls.cp:
        neg = -sum(v[v < -2.0 * len(v) * _EPS * np.abs(v).max()].sum() for v in cls.spectra)
        # np.max keeps a nan; max() drops it
        skew = np.max([opnorm(C - dagger(C)) for C in choi_blocks(phi)])
        hi = cls.norm_of_unit + 2.0 * neg + d * d * skew
        margin = 2.0 * (d + 2 * N + 2) * N * _EPS
        return float(cls.norm_of_unit * (1.0 - margin)), float(hi * (1.0 + margin))

    # on block k, E[i, j] = phi(e_ij): A = sqrt(s) u and B = sqrt(s) v*
    # reshaped, and the witness at [(a, p), (b, q)] is E[q, p][a, b]
    As, Bs, lo = [], [], 0.0
    for n, E in zip(phi.fd.block_sizes, phi.fd.unit_blocks(phi.images)):
        u, s, vh = np.linalg.svd(E.transpose(2, 0, 1, 3).reshape(N * n, n * N))
        keep = s >= 1e-14
        root = np.sqrt(s[keep])
        As.append((root * u[:, keep]).T.reshape(len(root), N, n))
        Bs.append((root[:, None] * vh[keep]).reshape(len(root), n, N))
        lo = np.maximum(lo, opnorm(E.transpose(2, 1, 3, 0).reshape(N * n, N * n))
                        * (1.0 - 4.0 * N * n * _EPS))  # keeps a nan
    return float(lo), _factor_bound(As, Bs, choi_blocks(phi))
