"""Concrete *-subalgebras of matrix algebras and their block structure.

A :class:`ConcreteAlgebra` is a *-subalgebra A of M_N stored as a
Hilbert-Schmidt-orthonormal basis together with its support projection.  Every
finite-dimensional C*-algebra is a direct sum of full matrix blocks with
multiplicities; :func:`wedderburn_decompose` recovers that structure
numerically (minimal central projections, block sizes, multiplicities, and a
full system of matrix units) from nothing but the basis.

:class:`FDAlgebra` is the abstract model: a direct sum of full matrix
algebras, realised concretely as block-diagonal matrices of size sum(n_k) so
that elements can be multiplied directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .certs import CLUSTER_REL, TOL_ALG, Certificate, provenance_stamp
from .linalg import (
    cluster_values,
    dagger,
    expm_i,
    herm,
    hs_norm,
    is_projection_residual,
    opnorm,
    opnorm_max,
    partial_isometry_polar,
    range_projection,
    rng_for,
)

__all__ = [
    "FDAlgebra",
    "BlockStructure",
    "ConcreteAlgebra",
    "generate_algebra",
    "verify_algebra",
    "wedderburn_decompose",
    "support_projection",
    "unitize_tilde",
    "orthonormalize",
    "BlockModel",
]


# ---------------------------------------------------------------------------
# span utilities
# ---------------------------------------------------------------------------

def _stack(mats, N) -> np.ndarray:
    """Rows = flattened matrices."""
    if not mats:
        return np.zeros((0, N * N), dtype=complex)
    return np.array([m.reshape(-1) for m in mats], dtype=complex)


def orthonormalize(mats, tol: float = 1e-10) -> list[np.ndarray]:
    """HS-orthonormalize, dropping dependent elements.

    Modified Gram-Schmidt with one re-orthogonalization pass, which keeps the
    Gram residual near machine precision even for nearly dependent inputs.
    """
    out: list[np.ndarray] = []
    scale = max((hs_norm(m) for m in mats), default=1.0)
    for m in mats:
        v = m.astype(complex).copy()
        for _ in range(2):
            for b in out:
                v -= np.vdot(b, v) * b
        nrm = hs_norm(v)
        if nrm > tol * max(scale, 1.0):
            out.append(v / nrm)
    return out


class _Span:
    """Orthonormal span with fast projection.

    coeffs and project take one N x N matrix or a stack (..., N, N) and use
    one matrix-vector product per matrix, so a stacked call gives the same
    bits as single calls.
    """

    def __init__(self, basis: list[np.ndarray], N: int):
        self.N = N
        self.basis = basis
        self.Q = _stack(basis, N)  # dim x N^2, orthonormal rows

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        n2 = x.shape[-2] * x.shape[-1]  # not -1, which an empty stack leaves open
        return (self.Q.conj() @ x.reshape(x.shape[:-2] + (n2, 1)))[..., 0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return (self.Q.T @ self.coeffs(x)[..., None]).reshape(x.shape)

    def residual(self, x: np.ndarray) -> float:
        return hs_norm(x - self.project(x))


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] mats[i] as one contraction; coeffs may carry
    leading stack axes, which the result keeps."""
    n = mats.shape[-1]
    return (coeffs @ mats.reshape(len(mats), -1)).reshape(coeffs.shape[:-1] + (n, n))


# ---------------------------------------------------------------------------
# abstract block algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDAlgebra:
    """Direct sum of full matrix algebras M_{n_1} + ... + M_{n_r}.

    Elements are represented as block-diagonal complex matrices of size
    d = sum(n_k).  The canonical linear basis is the list of matrix units
    e_ij^(k) in lexicographic order (k, i, j); it is HS-orthonormal.
    """

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.block_sizes or any(n < 1 for n in self.block_sizes):
            raise ValueError("block sizes must be positive")

    @property
    def d(self) -> int:
        return int(sum(self.block_sizes))

    @property
    def dim_linear(self) -> int:
        return int(sum(n * n for n in self.block_sizes))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(int(o) for o in np.cumsum((0,) + self.block_sizes[:-1]))

    @cached_property
    def unit_positions(self) -> np.ndarray:
        """Flat index into a d x d matrix of each matrix unit, in (k, i, j)
        order."""
        return np.array([(self.offsets[k] + i) * self.d + self.offsets[k] + j
                         for (k, i, j) in self.unit_labels()])

    def unit(self) -> np.ndarray:
        return np.eye(self.d, dtype=complex)

    def block_unit(self, k: int) -> np.ndarray:
        e = np.zeros((self.d, self.d), dtype=complex)
        o, n = self.offsets[k], self.block_sizes[k]
        e[o:o + n, o:o + n] = np.eye(n)
        return e

    def unit_labels(self) -> list[tuple[int, int, int]]:
        return [(k, i, j)
                for k, n in enumerate(self.block_sizes)
                for i in range(n) for j in range(n)]

    def matrix_unit(self, k: int, i: int, j: int) -> np.ndarray:
        m = np.zeros((self.d, self.d), dtype=complex)
        o = self.offsets[k]
        m[o + i, o + j] = 1.0
        return m

    def units(self) -> np.ndarray:
        """The matrix units as a (dim_linear, d, d) stack."""
        return self.from_coeffs(np.eye(self.dim_linear))

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x, or of each matrix of a stack (..., d, d), over
        the canonical matrix-unit basis."""
        return x.reshape(x.shape[:-2] + (-1,))[..., self.unit_positions]

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Block-diagonal element(s) with the given coefficients (..., dim)."""
        c = np.asarray(c)
        x = np.zeros(c.shape[:-1] + (self.d * self.d,), dtype=complex)
        x[..., self.unit_positions] = c
        return x.reshape(c.shape[:-1] + (self.d, self.d))

    def blocks_of(self, x: np.ndarray) -> list[np.ndarray]:
        """Diagonal blocks of x, or of each matrix of a stack (..., d, d)."""
        return [x[..., o:o + n, o:o + n] for o, n in zip(self.offsets, self.block_sizes)]

    def embed_blocks(self, blocks) -> np.ndarray:
        """Block-diagonal matrix (or stack) with the given diagonal blocks."""
        x = np.zeros(np.shape(blocks[0])[:-2] + (self.d, self.d), dtype=complex)
        for o, n, b in zip(self.offsets, self.block_sizes, blocks):
            x[..., o:o + n, o:o + n] = b
        return x

    def pinch(self, x: np.ndarray) -> np.ndarray:
        """Block-diagonal compression of an arbitrary d x d matrix."""
        return self.embed_blocks(self.blocks_of(x))

    def corner_units(self, N: int) -> np.ndarray:
        """The matrix units placed in the upper-left d x d corner of M_N, as a
        (dim_linear, N, N) stack: the block embedding of the algebra into
        M_N."""
        if self.d > N:
            raise ValueError(f"blocks of total size {self.d} do not fit in M_{N}")
        return np.pad(self.units(), ((0, 0), (0, N - self.d), (0, N - self.d)))

    def random_elements(self, rng, count: int) -> np.ndarray:
        """Stack (count, d, d) of standard complex Gaussian elements from one
        draw, sliced per sample and block as real then imaginary n_k^2
        values: the stream order, and the bits, of one
        ``linalg.random_complex`` call per block and sample."""
        sq = [n * n for n in self.block_sizes]
        g = rng.standard_normal((count, 2 * sum(sq)))
        blocks, pos = [], 0
        for n, m in zip(self.block_sizes, sq):
            re, im = g[:, pos:pos + m], g[:, pos + m:pos + 2 * m]
            blocks.append(((re + 1j * im) / np.sqrt(2.0)).reshape(count, n, n))
            pos += 2 * m
        return self.embed_blocks(blocks)

    def random_element(self, rng) -> np.ndarray:
        return self.random_elements(rng, 1)[0]

    def random_selfadjoints(self, rng, count: int) -> np.ndarray:
        """Hermitian parts of ``random_elements(rng, count)``; the draw that
        ``geometry.sample_unit_ball`` reads, as on a concrete algebra."""
        return herm(self.random_elements(rng, count))

    def unitary_from(self, h: np.ndarray) -> np.ndarray:
        """exp(i h) for self-adjoint h in the algebra (or a stack)."""
        return expm_i(h)

    def relation_residual(self, images: np.ndarray) -> float:
        """Worst residual of the matrix-unit relations on images E of the
        matrix units, a (dim_linear, N, N) stack in (k, i, j) order:
        ||E_ji - E_ij*|| and ||delta_jk E_il - E_ij E_kl|| over every pair of
        units, pairs from different blocks included (their products must
        vanish).  Zero exactly when the images define a *-homomorphism.  The
        products are taken one row (k, i) of units at a time, an
        (n_k, dim_linear, N, N) stack with one batched norm each."""
        E = np.asarray(images)
        worst, base = 0.0, 0
        for n in self.block_sizes:
            block = E[base:base + n * n].reshape((n, n) + E.shape[1:])  # E_ij at [i, j]
            worst = max(worst, opnorm_max(block.swapaxes(0, 1) - dagger(block)))
            for i in range(n):
                row = block[i]
                resid = row[:, None] @ E[None]  # E_ij E_b at [j, b]
                np.negative(resid, out=resid)
                for j in range(n):
                    resid[j, base + j * n:base + (j + 1) * n] += row
                worst = max(worst, opnorm_max(resid))
            base += n * n
        return float(worst)


# ---------------------------------------------------------------------------
# block structure of a concrete algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockStructure:
    """Wedderburn data of a concrete algebra.

    summands[k] = (n_k, m_k): block size and multiplicity.  central_projections
    are the minimal central projections as ambient matrices, and
    matrix_units[k][i][j] realizes e_ij^(k) in the ambient, satisfying
    e_ij e_kl = delta_jk e_il and e_ij* = e_ji.
    """

    summands: tuple[tuple[int, int], ...]
    central_projections: tuple[np.ndarray, ...]
    matrix_units: tuple[tuple[tuple[np.ndarray, ...], ...], ...]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.summands)

    def fd_model(self) -> FDAlgebra:
        return FDAlgebra(self.block_sizes)


# ---------------------------------------------------------------------------
# concrete algebras
# ---------------------------------------------------------------------------

@dataclass
class ConcreteAlgebra:
    """*-subalgebra of M_N given by an HS-orthonormal basis.

    Instances are immutable: basis matrices are write-protected and the block
    structure is cached after its first computation.
    """

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    support: np.ndarray
    _structure: BlockStructure | None = field(default=None, repr=False, compare=False)
    _span: _Span | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        basis = []
        for b in self.basis:
            b = np.asarray(b, dtype=complex)
            if b.shape != (self.ambient_dim, self.ambient_dim):
                raise ValueError("basis element has wrong shape")
            b = b.copy()
            b.flags.writeable = False
            basis.append(b)
        object.__setattr__(self, "basis", tuple(basis))
        s = np.asarray(self.support, dtype=complex).copy()
        s.flags.writeable = False
        object.__setattr__(self, "support", s)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_basis(cls, mats, ambient_dim: int | None = None) -> "ConcreteAlgebra":
        """Build from a spanning set of an (assumed) *-closed, product-closed
        span.  The set is orthonormalized; closure is not enforced here, use
        verify_algebra afterwards or generate_algebra instead."""
        mats = [np.asarray(m, dtype=complex) for m in mats]
        if not mats:
            raise ValueError("empty basis")
        N = ambient_dim or mats[0].shape[0]
        basis = orthonormalize(mats)
        supp = support_projection(basis, N)
        return cls(ambient_dim=N, basis=tuple(basis), support=supp)

    @classmethod
    def full(cls, N: int) -> "ConcreteAlgebra":
        return cls(ambient_dim=N, basis=tuple(FDAlgebra((N,)).units()),
                   support=np.eye(N, dtype=complex))

    @classmethod
    def diagonal(cls, N: int, ambient_dim: int | None = None) -> "ConcreteAlgebra":
        """Diagonal matrices on the first N coordinates of M_ambient."""
        amb = ambient_dim or N
        basis = FDAlgebra((1,) * N).corner_units(amb)
        return cls(ambient_dim=amb, basis=tuple(basis), support=basis.sum(axis=0))

    # -- linear span --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> _Span:
        if self._span is None:
            object.__setattr__(self, "_span", _Span(list(self.basis), self.ambient_dim))
        return self._span

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        return self.span().coeffs(x)

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.span().project(x)

    def residual(self, x: np.ndarray) -> float:
        return self.span().residual(x)

    def contains(self, x: np.ndarray, tol: float = TOL_ALG) -> bool:
        return self.residual(x) <= tol * max(1.0, hs_norm(x))

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return (self.span().Q.T @ np.asarray(coeffs, dtype=complex)).reshape(
            self.ambient_dim, self.ambient_dim)

    @property
    def unit(self) -> np.ndarray:
        """Unit of A as an algebra (= support projection)."""
        return self.support

    def random_selfadjoints(self, rng, count: int) -> np.ndarray:
        """Stack (count, N, N) of Hermitian parts of standard complex Gaussian
        combinations of the basis, from one draw: the stream, and the bits, of
        ``count`` calls of ``linalg.random_complex(rng, dim, 1)``, each sample
        summed over the basis in basis order."""
        g = rng.standard_normal((count, 2, self.dim))
        c = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
        x = np.zeros((count, self.ambient_dim, self.ambient_dim), dtype=complex)
        for j, b in enumerate(self.basis):
            x = x + c[:, j, None, None] * b
        return herm(x)

    def random_selfadjoint(self, rng) -> np.ndarray:
        return self.random_selfadjoints(rng, 1)[0]

    def unitary_from(self, h: np.ndarray) -> np.ndarray:
        """exp(i h) computed inside A for self-adjoint h in A (or a stack).

        Returns u in A with u*u = uu* = support; equals exp(i h) minus the
        identity on the ambient kernel of A.
        """
        return expm_i(h) - (np.eye(self.ambient_dim) - self.support)

    # -- structure -----------------------------------------------------------

    def structure(self, seed: int = 0) -> BlockStructure:
        if self._structure is None:
            object.__setattr__(self, "_structure", wedderburn_decompose(self, seed=seed))
        return self._structure

    def block_model(self, seed: int = 0) -> "BlockModel":
        return BlockModel(self, self.structure(seed=seed))

    def conjugated(self, u: np.ndarray) -> "ConcreteAlgebra":
        """u A u* as a new algebra (u unitary); the conjugated basis is again
        HS-orthonormal."""
        basis = tuple(u @ b @ dagger(u) for b in self.basis)
        supp = u @ self.support @ dagger(u)
        return ConcreteAlgebra(ambient_dim=self.ambient_dim, basis=basis, support=supp)


# ---------------------------------------------------------------------------
# generation and verification
# ---------------------------------------------------------------------------

def support_projection(basis, N: int) -> np.ndarray:
    """Range projection of sum b b* over the basis.

    Basis-independent for HS-orthonormal bases; equals the unit of the
    algebra when the basis spans a *-subalgebra.
    """
    m = np.zeros((N, N), dtype=complex)
    for b in basis:
        m += b @ dagger(b)
    if opnorm(m) < 1e-300:
        raise ValueError("zero algebra has no support projection")
    return range_projection(m, rel_cutoff=1e-10)


def generate_algebra(generators, ambient_dim: int | None = None,
                     tol: float = 1e-10, max_rounds: int | None = None) -> ConcreteAlgebra:
    """Smallest *-subalgebra of M_N containing the generators.

    Span growth: start from the *-closed span of the generators, repeatedly
    adjoin pairwise products, and stop when the dimension stabilises.  The
    dimension grows strictly each round, so at most N^2 rounds occur.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise ValueError("no generators")
    N = ambient_dim or gens[0].shape[0]
    for g in gens:
        if g.shape != (N, N):
            raise ValueError("generators must be square matrices of the ambient dimension")
    seed_set = gens + [dagger(g) for g in gens]
    basis = orthonormalize(seed_set, tol=tol)
    if not basis:
        raise ValueError("generators span only zero")
    rounds = max_rounds or (N * N + 1)
    for _ in range(rounds):
        dim0 = len(basis)
        products = [a @ b for a in basis for b in basis]
        basis = orthonormalize(basis + products, tol=tol)
        if len(basis) == dim0:
            supp = support_projection(basis, N)
            return ConcreteAlgebra(ambient_dim=N, basis=tuple(basis), support=supp)
    raise RuntimeError("span growth failed to stabilise")


def verify_algebra(A: ConcreteAlgebra, tol: float = TOL_ALG) -> Certificate:
    """Check orthonormality, *-closure, product closure, and the support
    projection identities.  Returns a certificate with the worst residual."""
    worst = 0.0
    Q = A.span().Q
    gram = Q.conj() @ Q.T
    worst = max(worst, float(np.abs(gram - np.eye(A.dim)).max()))
    for b in A.basis:
        worst = max(worst, A.residual(dagger(b)))
        for c in A.basis:
            worst = max(worst, A.residual(b @ c))
    e = A.support
    worst = max(worst, is_projection_residual(e))
    for b in A.basis:
        worst = max(worst, opnorm(e @ b - b), opnorm(b @ e - b))
    return Certificate.build(
        name="algebra-invariants",
        formula="max residual of orthonormality, *-closure, product closure, support identities",
        inputs={"dim": A.dim, "ambient_dim": A.ambient_dim},
        ceiling=tol, achieved=worst,
        provenance=provenance_stamp())


# ---------------------------------------------------------------------------
# Wedderburn decomposition
# ---------------------------------------------------------------------------

def _center_basis(A: ConcreteAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center {z in A : zx = xz for all x in A}."""
    d, N = A.dim, A.ambient_dim
    rows = []
    for b in A.basis:
        # c |-> [sum_i c_i basis_i, b], flattened; stack over all b
        block = np.array([(bi @ b - b @ bi).reshape(-1) for bi in A.basis]).T
        rows.append(block)
    op = np.vstack(rows)  # (dim*N^2) x dim acting on coefficient vectors
    _, s, vh = np.linalg.svd(op, full_matrices=False)
    tol = max(op.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null_dim = int(np.sum(s <= max(tol, 1e-12))) + (op.shape[1] - len(s))
    coeffs = vh.conj()[A.dim - null_dim:, :] if null_dim else np.zeros((0, A.dim))
    return [A.element(c) for c in coeffs]


def _spectral_projection(vals, vecs, idx) -> np.ndarray:
    v = vecs[:, idx]
    return v @ dagger(v)


def wedderburn_decompose(A: ConcreteAlgebra, seed: int = 0,
                         retries: int = 3, cluster_rel: float = CLUSTER_REL) -> BlockStructure:
    """Recover summands, multiplicities, central projections and matrix units.

    Minimal central projections are the spectral projections of a generic
    self-adjoint central element, grouped by eigenvalue clusters; inside each
    summand a generic self-adjoint element yields the diagonal matrix units
    and polar parts of compressions give the off-diagonal partial isometries.
    Fully seeded and deterministic; draws are retried (fresh stream) when an
    eigenvalue collision defeats the clustering.
    """
    N = A.ambient_dim
    e = A.support
    rank_e = int(round(float(np.real(np.trace(e)))))
    center = _center_basis(A)
    r = len(center)
    if r == 0:
        raise ValueError("algebra has zero center (is the basis a *-algebra?)")

    last_err = None
    for attempt in range(retries):
        rng = rng_for(seed, "wedderburn", attempt)
        g = rng.standard_normal(r)
        z = herm(sum(gi * c for gi, c in zip(g, center)))
        vals, vecs = np.linalg.eigh(z)
        clusters = cluster_values(vals, rel_gap=cluster_rel)
        scale = float(np.abs(vals).max(initial=1.0))
        nonzero = [c for c in clusters if abs(vals[c[0]]) > cluster_rel * scale]
        zero = [c for c in clusters if abs(vals[c[0]]) <= cluster_rel * scale]
        kernel_rank = N - rank_e
        if len(nonzero) != r or sum(len(c) for c in zero) != kernel_rank:
            last_err = SpectralGapError(
                "central element eigenvalues failed to separate; retrying")
            continue
        try:
            projections = []
            for c in nonzero:
                p = _spectral_projection(vals, vecs, c)
                if A.residual(p) > 1e-7:
                    raise SpectralGapError("spectral projection left the algebra span")
                projections.append(p)
            summands, all_units = [], []
            for p in projections:
                n_k, m_k, units = _matrix_units_in_summand(A, p, rng)
                summands.append((n_k, m_k))
                all_units.append(units)
            order = sorted(range(len(summands)),
                           key=lambda k: (-summands[k][0], -summands[k][1]))
            summands = [summands[k] for k in order]
            projections = [projections[k] for k in order]
            all_units = [all_units[k] for k in order]
            if sum(n * n for n, _ in summands) != A.dim:
                raise SpectralGapError("block dimensions do not add up to dim(A)")
            struct = BlockStructure(
                summands=tuple(summands),
                central_projections=tuple(projections),
                matrix_units=tuple(tuple(tuple(row) for row in u) for u in all_units))
            resid = struct.fd_model().relation_residual(
                np.array([e for u in all_units for row in u for e in row]))
            if resid > 1e-7:
                raise SpectralGapError(f"matrix unit relations residual {resid:.2e}")
            return struct
        except SpectralGapError as err:  # fresh random draw
            last_err = err
            continue
    raise last_err or RuntimeError("wedderburn decomposition failed")


def _matrix_units_in_summand(A: ConcreteAlgebra, p: np.ndarray, rng):
    """Matrix units of the summand pAp (a full block with multiplicity)."""
    comp = [p @ b @ p for b in A.basis]
    sub = orthonormalize(comp, tol=1e-9)
    dim_k = len(sub)
    n_k = int(round(np.sqrt(dim_k)))
    if n_k * n_k != dim_k:
        raise SpectralGapError("summand dimension is not a perfect square")
    rank_p = int(round(float(np.real(np.trace(p)))))
    if rank_p % n_k:
        raise SpectralGapError("summand rank incompatible with block size")
    m_k = rank_p // n_k
    span_k = _Span(sub, A.ambient_dim)

    if n_k == 1:
        return 1, m_k, [[p]]

    # diagonal units from a generic self-adjoint element of the summand
    for _ in range(4):
        g = herm(sum(c * b for c, b in zip(
            (rng.standard_normal(dim_k) + 1j * rng.standard_normal(dim_k)), sub)))
        vals, vecs = np.linalg.eigh(g)
        # restrict attention to the range of p: eigenvalue 0 of multiplicity
        # N - rank(p) belongs to the ambient kernel
        clusters = cluster_values(vals, rel_gap=CLUSTER_REL)
        scale = float(np.abs(vals).max(initial=1.0))
        live = [c for c in clusters if abs(vals[c[0]]) > CLUSTER_REL * scale]
        if len(live) != n_k or any(len(c) != m_k for c in live):
            continue
        qs = [_spectral_projection(vals, vecs, c) for c in live]
        if any(span_k.residual(q) > 1e-7 for q in qs):
            continue
        units = _units_from_diagonal(qs, sub, span_k, rng, m_k)
        if units is not None:
            return n_k, m_k, units
    raise SpectralGapError("failed to extract matrix units in a summand")


def _units_from_diagonal(qs, sub, span_k, rng, m_k):
    n_k = len(qs)
    f1 = [None] * n_k
    f1[0] = qs[0]
    for j in range(1, n_k):
        got = None
        for _ in range(4):
            a = sum(c * b for c, b in zip(
                (rng.standard_normal(len(sub)) + 1j * rng.standard_normal(len(sub))), sub))
            w = qs[0] @ a @ qs[j]
            s = np.linalg.svd(w, compute_uv=False)
            live = s[s > 1e-8 * max(float(s.max(initial=0.0)), 1e-300)]
            if len(live) != m_k:
                continue
            v = partial_isometry_polar(w)
            if opnorm(dagger(v) @ v - qs[j]) < 1e-7 and opnorm(v @ dagger(v) - qs[0]) < 1e-7:
                got = v
                break
        if got is None:
            return None
        f1[j] = got
    units = [[None] * n_k for _ in range(n_k)]
    for i in range(n_k):
        for j in range(n_k):
            if i == 0:
                units[0][j] = f1[j]
            else:
                units[i][j] = dagger(f1[i]) @ f1[j]
    return units


# ---------------------------------------------------------------------------
# unitizations
# ---------------------------------------------------------------------------

def unitize_tilde(A: ConcreteAlgebra) -> ConcreteAlgebra:
    """Embed M_N -> M_{N+1} via x -> x + 0 and adjoin the full identity.

    The image of A is a proper ideal and the dimension grows by exactly one.
    """
    N = A.ambient_dim
    emb = np.pad(np.array(A.basis), ((0, 0), (0, 1), (0, 1)))
    basis = orthonormalize(list(emb) + [np.eye(N + 1, dtype=complex)])
    if len(basis) != A.dim + 1:
        raise RuntimeError("tilde unitization must grow the dimension by one")
    return ConcreteAlgebra(ambient_dim=N + 1, basis=tuple(basis),
                           support=np.eye(N + 1, dtype=complex))


# ---------------------------------------------------------------------------
# abstract model of a concrete algebra
# ---------------------------------------------------------------------------

class BlockModel:
    """*-isomorphism between a concrete algebra and its abstract block model.

    to_abstract squashes multiplicities (trace-normalised matrix-unit
    coefficients); to_concrete re-expands them.  Both directions are exact
    *-homomorphisms up to the accuracy of the matrix units.
    """

    def __init__(self, A: ConcreteAlgebra, struct: BlockStructure):
        self.A = A
        self.struct = struct
        self.fd = struct.fd_model()
        labels = self.fd.unit_labels()
        self._units = np.array([struct.matrix_units[k][i][j] for (k, i, j) in labels])
        self._mults = np.array([struct.summands[k][1] for (k, i, j) in labels])

    def to_abstract(self, y: np.ndarray) -> np.ndarray:
        """Block model of y, or of each matrix of a stack (..., N, N)."""
        flat = self._units.reshape(len(self._units), -1)
        c = (y.reshape(y.shape[:-2] + (-1,)) @ flat.conj().T) / self._mults
        return self.fd.from_coeffs(c)

    def to_concrete(self, m: np.ndarray) -> np.ndarray:
        """Concrete element of m, or of each matrix of a stack (..., d, d)."""
        return _combine(self.fd.coeffs(m), self._units)
