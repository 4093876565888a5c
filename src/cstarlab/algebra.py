"""Concrete *-subalgebras of matrix algebras and their block structure.

A :class:`ConcreteAlgebra` is a *-subalgebra A of M_N stored as a
Hilbert-Schmidt-orthonormal basis, one read-only (dim, N, N) stack, together
with its support projection.  The algebra itself projects onto its span, and
it holds the two quantities the other modules take over its basis: the
operator-normalised basis (``normalized_basis``) and the relative membership
residual of a stack (``membership_residual``), one array operation per
stack, not the bits of single calls.  Every
finite-dimensional C*-algebra is a direct sum of full matrix blocks with
multiplicities; :func:`wedderburn_decompose` recovers that structure
numerically (minimal central projections, block sizes, multiplicities, and a
full system of matrix units) from the algebra alone.  It finds the centre
as A ∩ {h_0, h_1}' for two generic self-adjoint elements of A, which
generate A as h_0 + i h_1: one 2N^2 x dim commutator operator, with no
products over pairs of basis elements.  The result is a
:class:`BlockStructure` whose matrix units are one (dim_linear, N, N) stack
in the order of ``FDAlgebra.unit_labels()``, and whose ``coeffs`` reads an
element of A as its coefficients over them.  A map on A is stored as its
values on these units (``cpmaps.LinMap``), so the block model
``fd_model()`` is the one model of the algebra.

:class:`FDAlgebra` is the abstract model: a direct sum of full matrix
algebras, realised concretely as block-diagonal matrices of size sum(n_k) so
that elements can be multiplied directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .certs import CLUSTER_REL, SpectralGapError, require_finite
from .linalg import (
    _BATCH_BYTES,
    cluster_values,
    dagger,
    expm_i,
    herm,
    hs_norm,
    opnorm,
    opnorm_max,
    opnorms,
    partial_isometry_polar,
    range_projection,
    rng_for,
)

__all__ = [
    "FDAlgebra",
    "BlockStructure",
    "ConcreteAlgebra",
    "wedderburn_decompose",
    "support_projection",
    "orthonormalize",
]


# ---------------------------------------------------------------------------
# span utilities
# ---------------------------------------------------------------------------

def orthonormalize(mats) -> list[np.ndarray]:
    """HS-orthonormalize, dropping dependent elements.

    Modified Gram-Schmidt with one re-orthogonalization pass, which keeps the
    Gram residual near machine precision even for nearly dependent inputs.
    An element is dependent when its residual is at most 1e-10 times the
    largest HS norm among mats (or 1e-10, if that is below one).
    """
    out: list[np.ndarray] = []
    scale = max((hs_norm(m) for m in mats), default=1.0)
    for m in mats:
        v = m.astype(complex).copy()
        for _ in range(2):
            for b in out:
                v -= np.vdot(b, v) * b
        nrm = hs_norm(v)
        if nrm > 1e-10 * max(scale, 1.0):
            out.append(v / nrm)
    return out


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] mats[i] as one GEMM; coeffs may carry leading
    stack axes, which the result keeps."""
    flat = coeffs.reshape(-1, len(mats)) @ mats.reshape(len(mats), -1)
    return flat.reshape(coeffs.shape[:-1] + mats.shape[1:])


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

    def units(self) -> np.ndarray:
        """The matrix units as a (dim_linear, d, d) stack."""
        return self.from_coeffs(np.eye(self.dim_linear))

    def unit_blocks(self, stack: np.ndarray) -> list[np.ndarray]:
        """Views of a (dim_linear, ...) stack in (k, i, j) order, one per
        block k, shaped (n_k, n_k, ...): [i, j] is the entry of e_ij^(k)."""
        cuts = np.cumsum([n * n for n in self.block_sizes])[:-1]
        return [part.reshape((n, n) + part.shape[1:])
                for n, part in zip(self.block_sizes, np.split(stack, cuts))]

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
        parts = np.split(g, np.cumsum(np.repeat(sq, 2))[:-1], axis=1)  # re, im per block
        return self.from_coeffs(np.concatenate(
            [(re + 1j * im) / np.sqrt(2.0) for re, im in zip(parts[::2], parts[1::2])], axis=1))

    def relation_residual(self, images: np.ndarray) -> float:
        """Worst residual eps of the generating matrix-unit relations on
        images E of the matrix units, a (dim_linear, N, N) stack in (k, i, j)
        order: ||E_ji - E_ij*|| and ||E_ij E_jl - E_il|| inside each block,
        and ||E_ii E_jj|| over ordered pairs of distinct diagonal units of all
        blocks.  Zero exactly when the images define a *-homomorphism; the
        package's one homomorphism check.

        These imply the rest.  With r1 = E_ij E_jj - E_ij and r2 = E_kk E_kl -
        E_kl, any other product (j != k, any blocks) is E_ij E_kl =
        E_ij (E_jj E_kk) E_kl - E_ij E_jj r2 - r1 E_kk E_kl + r1 r2, so every
        ||delta_jk E_il - E_ij E_kl|| is at most (M^2 + 2M) eps + 3 eps^2 for
        M = max ||E||.  For images that are not a homomorphism the value is
        the defect at the units, a lower estimate of the unit-ball defect,
        not a bound.  The sum n_k^3 + d (d - 1) products are gathered by index
        into E and measured in chunks, each at most ``linalg._BATCH_BYTES``
        with its operands."""
        E = np.asarray(images)
        index = self.unit_blocks(np.arange(self.dim_linear))  # that of E_ij at [i, j]
        triples = []
        for n, u in zip(self.block_sizes, index):
            i, j, l = np.indices((n, n, n)).reshape(3, -1)
            triples.append((u[i, j], u[j, l], u[i, l]))  # E_ij E_jl - E_il
        d = np.concatenate([np.diagonal(u) for u in index])
        a, b = np.nonzero(~np.eye(len(d), dtype=bool))
        triples.append((d[a], d[b], np.full(len(a), -1)))  # E_ii E_jj, nothing subtracted
        left, right, minus = (np.concatenate(t) for t in zip(*triples))
        step = max(1, _BATCH_BYTES // 4 // max(E[:1].nbytes, 1))  # with 3 gathered operands

        def products(s):  # one chunk; where minus is -1 nothing is subtracted
            prod, sub = E[left[s:s + step]] @ E[right[s:s + step]], minus[s:s + step]
            return np.subtract(prod, E[sub], out=prod, where=(sub >= 0)[:, None, None])
        adjoints = (block.swapaxes(0, 1) - dagger(block) for block in self.unit_blocks(E))
        return opnorm_max(chain(adjoints, map(products, range(0, len(left), step))))


# ---------------------------------------------------------------------------
# block structure of a concrete algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Wedderburn data of a concrete algebra.

    summands[k] = (n_k, m_k): block size and multiplicity.
    central_projections is the (r, N, N) stack of minimal central
    projections, one per summand.  matrix_units is one read-only
    (dim_linear, N, N) stack in ``FDAlgebra.unit_labels()`` order (k, i, j):
    the images in the ambient of the matrix units e_ij^(k) of
    ``fd_model()``, satisfying e_ij e_kl = delta_jk e_il and e_ij* = e_ji;
    the units of summand k reshape to (n_k, n_k, N, N).
    """

    summands: tuple[tuple[int, int], ...]
    central_projections: np.ndarray
    matrix_units: np.ndarray

    def __post_init__(self):
        for a in (self.central_projections, self.matrix_units):
            a.flags.writeable = False

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.summands)

    @cached_property
    def _model(self) -> FDAlgebra:  # one model per structure, so its index tables are built once
        return FDAlgebra(self.block_sizes)

    def fd_model(self) -> FDAlgebra:
        return self._model

    @cached_property
    def _dual(self) -> np.ndarray:  # the flattened units over m_k, conjugate transposed
        mults = np.repeat([m for _, m in self.summands], [n * n for n, _ in self.summands])
        return _frozen(self.matrix_units.reshape(len(mults), -1).conj().T / mults)

    def coeffs(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (..., dim_linear) over the matrix units of y in the
        algebra, or of each matrix of a stack (..., N, N): <e_ij, y>_HS / m_k
        for the unit e_ij of summand k, whose squared HS norm is m_k, so that
        y = sum_ij c_ij e_ij.  One GEMM against the flattened units."""
        n2 = y.shape[-2] * y.shape[-1]
        return (y.reshape(-1, n2) @ self._dual).reshape(y.shape[:-2] + (len(self.matrix_units),))


# ---------------------------------------------------------------------------
# concrete algebras
# ---------------------------------------------------------------------------

def _frozen(x) -> np.ndarray:
    """A write-protected complex copy of x."""
    x = np.array(x, dtype=complex)
    x.flags.writeable = False
    return x


@dataclass(eq=False)
class ConcreteAlgebra:
    """*-subalgebra of M_N given by an HS-orthonormal basis.

    The basis is one read-only (dim, N, N) stack, and the quantities over
    the algebra are one array operation per stack: ``coeffs`` and
    ``project`` a GEMM against its (dim, N^2) flattening, ``residual`` and
    ``membership_residual`` a batched norm, ``normalized_basis`` the basis
    rescaled by one cached ``opnorms`` call (``basis_norms``).  Instances
    are immutable: basis and support are write-protected and the block
    structure is cached after its first computation.
    """

    ambient_dim: int
    basis: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        # each refusal names its field first, so a loader can prefix its path
        N = self.ambient_dim
        if not len(self.basis):
            raise ValueError("basis is empty")
        for i, b in enumerate(self.basis):
            if np.shape(b) != (N, N):
                raise ValueError(f"basis[{i}] has shape {np.shape(b)}, not {(N, N)}")
        if np.shape(self.support) != (N, N):
            raise ValueError(f"support has shape {np.shape(self.support)}, not {(N, N)}")
        self.basis = _frozen(self.basis).reshape(-1, N, N)
        require_finite(self.basis, "basis")
        self.support = _frozen(self.support)
        require_finite(self.support, "support")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_basis(cls, mats, ambient_dim: int) -> "ConcreteAlgebra":
        """Build from a spanning set of an (assumed) *-closed, product-closed
        span.  The set is orthonormalized; closure is not checked."""
        mats = [np.asarray(m, dtype=complex) for m in mats]
        require_finite(mats, "spanning set")
        basis = orthonormalize(mats)
        return cls(ambient_dim=ambient_dim, basis=basis,
                   support=support_projection(basis, ambient_dim))

    @classmethod
    def full(cls, N: int) -> "ConcreteAlgebra":
        return cls(ambient_dim=N, basis=FDAlgebra((N,)).units(),
                   support=np.eye(N, dtype=complex))

    @classmethod
    def diagonal(cls, N: int) -> "ConcreteAlgebra":
        """The diagonal matrices of M_N."""
        basis = FDAlgebra((1,) * N).units()
        return cls(ambient_dim=N, basis=basis, support=basis.sum(axis=0))

    # -- linear span --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _dual(self) -> np.ndarray:  # the flattened basis, conjugate transposed
        return _frozen(self.basis.reshape(self.dim, -1).conj().T)

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coefficients over the basis of x, or of each matrix of a stack
        (..., N, N): one array operation per stack, a GEMM against the
        flattened basis."""
        n2 = x.shape[-2] * x.shape[-1]  # not -1, which an empty stack leaves open
        return (x.reshape(-1, n2) @ self._dual).reshape(x.shape[:-2] + (self.dim,))

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the span, of x or of each matrix of a
        stack (..., N, N)."""
        return _combine(self.coeffs(x), self.basis)

    def residual(self, x: np.ndarray) -> float | np.ndarray:
        """HS distance ||x - Px||_2 to the span: a float for one matrix, an
        (S,) array for a stack (S, N, N).  One array operation per stack:
        one projection and one batched norm."""
        x = np.asarray(x)
        r = np.linalg.norm(x - self.project(x), axis=(-2, -1))
        return float(r) if np.ndim(x) == 2 else r

    def membership_residual(self, x: np.ndarray) -> float:
        """Worst relative HS distance ||x - Px||_2 / ||x||_2 to the span over
        one matrix or a stack (S, N, N); 0 for zero matrices and for an empty
        stack."""
        X = np.reshape(x, (-1,) + np.shape(x)[-2:])
        scale = np.maximum(np.linalg.norm(X, axis=(1, 2)), 1e-300)
        return float((self.residual(X) / scale).max(initial=0.0))

    @cached_property
    def basis_norms(self) -> np.ndarray:
        """Operator norms of the basis elements, floored at 1e-300: one
        ``opnorms`` call, cached."""
        norms = np.maximum(opnorms(self.basis), 1e-300)
        norms.flags.writeable = False
        return norms

    @cached_property
    def normalized_basis(self) -> np.ndarray:
        """The basis rescaled to operator norm one, a read-only (dim, N, N)
        stack, cached: each element is b / opnorm(b) bit for bit."""
        return _frozen(self.basis / self.basis_norms[:, None, None])

    def random_selfadjoints(self, rng, count: int) -> np.ndarray:
        """Stack (count, N, N) of Hermitian parts of standard complex Gaussian
        combinations of the basis: per sample, dim real parts and then dim
        imaginary parts from rng, combined in one array operation per stack
        (``_combine``)."""
        g = rng.standard_normal((count, 2, self.dim))
        return herm(_combine((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0), self.basis))

    def unitary_from(self, h: np.ndarray) -> np.ndarray:
        """exp(i h) computed inside A for self-adjoint h in A (or a stack).

        Returns u in A with u*u = uu* = support; equals exp(i h) minus the
        identity on the ambient kernel of A.
        """
        return expm_i(h) - (np.eye(self.ambient_dim) - self.support)

    # -- structure -----------------------------------------------------------

    @cached_property
    def _structure(self) -> BlockStructure:
        return wedderburn_decompose(self)

    def structure(self) -> BlockStructure:
        """The Wedderburn structure, a function of the algebra alone, computed
        once and cached: no caller's order changes it."""
        return self._structure

    def conjugated(self, u: np.ndarray) -> "ConcreteAlgebra":
        """u A u* as a new algebra (u unitary); the conjugated basis is again
        HS-orthonormal."""
        return ConcreteAlgebra(ambient_dim=self.ambient_dim,
                               basis=u @ self.basis @ dagger(u),
                               support=u @ self.support @ dagger(u))


# ---------------------------------------------------------------------------
# generation and verification
# ---------------------------------------------------------------------------

def support_projection(basis, N: int) -> np.ndarray:
    """Range projection of sum b b* over the basis.

    Basis-independent for HS-orthonormal bases; equals the unit of the
    algebra when the basis spans a *-subalgebra.
    """
    stack = np.reshape(basis, (-1, N, N))
    m = (stack @ dagger(stack)).sum(axis=0)
    if opnorm(m) < 1e-300:
        raise ValueError("zero algebra has no support projection")
    return range_projection(m)


# ---------------------------------------------------------------------------
# Wedderburn decomposition
# ---------------------------------------------------------------------------

# fresh draws wedderburn_decompose makes before it gives up
_RETRIES = 3


def _center_basis(A: ConcreteAlgebra, h: np.ndarray) -> np.ndarray:
    """A basis of A ∩ {h_0, h_1}' as an (r, N, N) stack, for a pair h of
    self-adjoint elements of A: the centre Z(A) when h_0 + i h_1 generates A.
    c -> ([sum_i c_i b_i, h_0], [.., h_1]) is one batched commutator per h_k,
    a 2N^2 x dim operator whose null space holds the coefficients."""
    Q = A.basis
    op = (Q[None] @ h[:, None] - h[:, None] @ Q[None]).transpose(0, 2, 3, 1).reshape(-1, A.dim)
    _, s, vh = np.linalg.svd(op, full_matrices=False)
    rank = int(np.sum(s > max(len(op) * np.finfo(float).eps * s[0], 1e-12)))
    return _combine(vh[rank:].conj(), Q)


def _spectral_projection(vecs, idx) -> np.ndarray:
    v = vecs[:, idx]
    return v @ dagger(v)


def _clusters_off_zero(vals):
    """Eigenvalue clusters of a self-adjoint element, split into those away
    from 0 and those at 0 (relative gap CLUSTER_REL)."""
    clusters = cluster_values(vals)
    cut = CLUSTER_REL * float(np.abs(vals).max(initial=1.0))
    return ([c for c in clusters if abs(vals[c[0]]) > cut],
            [c for c in clusters if abs(vals[c[0]]) <= cut])


def wedderburn_decompose(A: ConcreteAlgebra) -> BlockStructure:
    """Recover summands, multiplicities, central projections and matrix units.

    Each attempt draws two self-adjoint elements h_0, h_1 of A; the centre is
    A ∩ {h_0, h_1}', which is Z(A) when they are generic (h_0 + i h_1 then
    generates A).  The minimal central projections are the spectral
    projections of a generic self-adjoint central element, grouped by
    eigenvalue clusters; inside each summand a generic self-adjoint element
    yields the diagonal matrix units and polar parts of compressions give the
    off-diagonal partial isometries.  Attempt t draws from the one stream
    keyed on (N, dim, t); a draw that is not generic fails a dimension or
    relation check and is retried on the next stream, up to _RETRIES
    attempts.
    """
    N = A.ambient_dim
    kernel_rank = N - int(round(float(np.real(np.trace(A.support)))))
    last_err = None
    for attempt in range(_RETRIES):
        rng = rng_for(0, "wedderburn", N, A.dim, attempt)
        center = _center_basis(A, A.random_selfadjoints(rng, 2))
        r = len(center)
        if r == 0:
            raise ValueError("algebra has zero center (is the basis a *-algebra?)")
        z = herm(_combine(rng.standard_normal(r), center))
        vals, vecs = np.linalg.eigh(z)
        nonzero, zero = _clusters_off_zero(vals)
        if len(nonzero) != r or sum(len(c) for c in zero) != kernel_rank:
            last_err = SpectralGapError(
                "central element eigenvalues failed to separate; retrying")
            continue
        try:
            parts = []
            for c in nonzero:
                p = _spectral_projection(vecs, c)
                if A.residual(p) > 1e-7:
                    raise SpectralGapError("spectral projection left the algebra span")
                n_k, m_k, units = _matrix_units_in_summand(A, p, rng)
                parts.append(((n_k, m_k), p, units))
            summands, projections, units = zip(
                *sorted(parts, key=lambda part: (-part[0][0], -part[0][1])))
            if sum(n * n for n, _ in summands) != A.dim:
                raise SpectralGapError("block dimensions do not add up to dim(A)")
            struct = BlockStructure(summands=summands,
                                    central_projections=np.array(projections),
                                    matrix_units=np.concatenate(units))
            resid = struct.fd_model().relation_residual(struct.matrix_units)
            if resid > 1e-7:
                raise SpectralGapError(f"matrix unit relations residual {resid:.2e}")
            return struct
        except SpectralGapError as err:  # fresh random draw
            last_err = err
    raise last_err


def _matrix_units_in_summand(A: ConcreteAlgebra, p: np.ndarray, rng):
    """Matrix units of the summand pAp (a full block with multiplicity), as
    (n_k, m_k, (n_k^2, N, N) stack in (i, j) order)."""
    # b -> pbp is the HS-orthogonal projection of A onto pAp (p is central),
    # so the compressed basis has singular values 1 (dim pAp times) and 0
    comp = (p @ A.basis @ p).reshape(A.dim, -1)
    _, s, vh = np.linalg.svd(comp, full_matrices=False)
    sub = vh[:int(np.sum(s > 1e-9 * max(float(s[0]), 1.0)))].reshape(-1, *p.shape)
    dim_k = len(sub)
    n_k = int(round(np.sqrt(dim_k)))
    if n_k * n_k != dim_k:
        raise SpectralGapError("summand dimension is not a perfect square")
    rank_p = int(round(float(np.real(np.trace(p)))))
    if rank_p % n_k:
        raise SpectralGapError("summand rank incompatible with block size")
    m_k = rank_p // n_k

    if n_k == 1:
        return 1, m_k, p[None]

    # diagonal units from a generic self-adjoint element of the summand; the
    # eigenvalue 0 of multiplicity N - rank(p) belongs to the ambient kernel
    for _ in range(4):
        g = herm(_combine(rng.standard_normal(dim_k) + 1j * rng.standard_normal(dim_k), sub))
        vals, vecs = np.linalg.eigh(g)
        live, _ = _clusters_off_zero(vals)
        if len(live) != n_k or any(len(c) != m_k for c in live):
            continue
        qs = [_spectral_projection(vecs, c) for c in live]
        # q = p q p, so its distance to A is its distance to pAp
        if (A.residual(np.array(qs)) > 1e-7).any():
            continue
        units = _units_from_diagonal(qs, sub, rng, m_k)
        if units is not None:
            return n_k, m_k, units
    raise SpectralGapError("failed to extract matrix units in a summand")


def _units_from_diagonal(qs, sub, rng, m_k):
    """Matrix units e_ij = f_i* f_j, an (n^2, N, N) stack, from diagonal
    units q_j and partial isometries f_j from q_j onto q_0 (f_0 = q_0), or
    None when a compression q_0 a q_j is not of rank m_k."""
    f = [qs[0]]
    for q in qs[1:]:
        for _ in range(4):
            a = _combine(rng.standard_normal(len(sub)) + 1j * rng.standard_normal(len(sub)), sub)
            w = qs[0] @ a @ q
            s = np.linalg.svd(w, compute_uv=False)
            if np.sum(s > 1e-8 * max(float(s.max(initial=0.0)), 1e-300)) != m_k:
                continue
            v = partial_isometry_polar(w)
            if opnorm(dagger(v) @ v - q) < 1e-7 and opnorm(v @ dagger(v) - qs[0]) < 1e-7:
                f.append(v)
                break
        else:
            return None
    f = np.array(f)
    return (dagger(f)[:, None] @ f[None]).reshape((-1,) + f.shape[1:])

