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
full system of matrix units) from the algebra alone.  It reads one
eigendecomposition of a generic self-adjoint h in A, whose eigenvalue
clusters off zero are minimal projections, and one product V* a V with a
second generic a, whose nonzero blocks group the clusters into summands and
whose polar parts link them; the eigenvectors' phases cancel, so the units
are a well-conditioned function of the basis.  The result is a
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
from itertools import accumulate, chain

import numpy as np

from .certs import CLUSTER_REL, SpectralGapError, require_finite
from .linalg import (
    chunk_length,
    cluster_values,
    dagger,
    herm,
    hs_norm,
    opnorm,
    opnorm_max,
    opnorms,
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
        order.  Like the tables below, read-only: every caller shares it."""
        return _read_only(np.array([(self.offsets[k] + i) * self.d + self.offsets[k] + j
                                    for (k, i, j) in self.unit_labels()]))

    @cached_property
    def unit_spans(self) -> tuple[slice, ...]:
        """The rows of each block's units in a (dim_linear, ...) stack."""
        ends = accumulate(n * n for n in self.block_sizes)
        return tuple(slice(e - n * n, e) for n, e in zip(self.block_sizes, ends))

    @cached_property
    def unit_transpose(self) -> np.ndarray:
        """The position of e_ji at that of each e_ij."""
        index = self.unit_blocks(np.arange(self.dim_linear))  # that of e_ij at [i, j]
        return _read_only(np.concatenate([u.T.ravel() for u in index]))

    @cached_property
    def generator_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``relation_residual``'s products, family (a) and then family (b),
        as three position lists: the left factor, the right factor and the
        unit the product should equal, -1 where it should be 0."""
        d, index = self.d, self.unit_blocks(np.arange(self.dim_linear))  # that of E_ij at [i, j]
        rows = np.concatenate([u[0] for u in index])  # that of E_1j at off_k + j
        cols = np.concatenate([u[:, 0] for u in index])  # that of E_i1 at off_k + i
        at = np.divmod(self.unit_positions, d)  # each unit's row and column in the model
        heads = np.full(d * d, -1)  # E_11 of the block on the pairs E_1i E_i1
        heads[::d + 1] = np.repeat(cols[list(self.offsets)], self.block_sizes)
        return (_read_only(np.concatenate([cols[at[0]], np.repeat(rows, d)])),
                _read_only(np.concatenate([rows[at[1]], np.tile(cols, d)])),
                _read_only(np.concatenate([np.arange(self.dim_linear), heads])))

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
        return [stack[at].reshape((n, n) + stack.shape[1:])
                for n, at in zip(self.block_sizes, self.unit_spans)]

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
        g = rng.standard_normal((count, 2 * self.dim_linear))  # block k's at twice its span
        return self.from_coeffs(np.concatenate(
            [(g[:, 2 * s.start:s.start + s.stop] + 1j * g[:, s.start + s.stop:2 * s.stop])
             / np.sqrt(2.0) for s in self.unit_spans], axis=1))

    def relation_residual(self, images: np.ndarray) -> float:
        """Worst residual eps of the generating matrix-unit relations on
        images E of the matrix units, a (dim_linear, N, N) stack in (k, i, j)
        order: (a) ||E_i1 E_1j - E_ij|| inside each block, (b) ||E_1i^k
        E_j1^k' - delta_kk' delta_ij E_11^k|| over the d^2 pairs of a first
        row unit and a first column unit of any blocks, which covers
        orthogonality inside and between blocks, and (c) ||E_ji - E_ij*||.
        Zero exactly when the images define a *-homomorphism; the package's
        one homomorphism check.

        These imply the rest.  Write f_i = E_i1 and g_j = E_1j in the block of
        each unit, and delta = 1 when E_ij and E_kl lie in one block with j =
        k, else 0.  Family (a) gives r1 = E_ij - f_i g_j, r2 = E_kl - f_k g_l,
        r3 = E_il - f_i g_l and, at j = 1, t = f_i E_11 - f_i, and family (b)
        gives s = g_j f_k - delta E_11, each of norm at most eps.  Then E_ij
        E_kl = delta (E_il - r3 + t g_l) + f_i s g_l + (E_ij - r1) r2 + r1
        E_kl, so every ||delta E_il - E_ij E_kl|| is at most (1 + M) eps +
        M^2 eps + (M + eps) eps + M eps = (M^2 + 3M + 1) eps + eps^2 for M =
        max ||E||.  For images that are not a homomorphism the value is the
        defect at the units, a lower estimate of the unit-ball defect, not a
        bound.  The dim_linear adjoint residuals and the sum n_k^2 + d^2
        products are gathered from E at ``unit_transpose`` and
        ``generator_pairs`` and measured in chunks of ``linalg.chunk_length``."""
        E, swap = np.asarray(images), self.unit_transpose
        left, right, minus = self.generator_pairs
        step = chunk_length(E[:1].nbytes, 4)  # a product and its 3 gathered operands

        def products(s):  # one chunk; where minus is -1 nothing is subtracted
            prod, sub = E[left[s:s + step]] @ E[right[s:s + step]], minus[s:s + step]
            return np.subtract(prod, E[sub], out=prod, where=(sub >= 0)[:, None, None])
        adjoints = (E[swap[s:s + step]] - dagger(E[s:s + step]) for s in range(0, len(E), step))
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
    def _model(self) -> FDAlgebra:  # one model per structure, so its unit positions are built once
        return FDAlgebra(self.block_sizes)

    def fd_model(self) -> FDAlgebra:
        return self._model

    @cached_property
    def residual(self) -> float:
        """The matrix units' relation residual (``FDAlgebra.relation_residual``),
        taken once per structure."""
        return self._model.relation_residual(self.matrix_units)

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
    return _read_only(np.array(x, dtype=complex))


def _read_only(x: np.ndarray) -> np.ndarray:
    """x, write-protected."""
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


def _clusters_off_zero(vals):
    """Eigenvalue clusters of a self-adjoint element, split into those away
    from 0 and those at 0 (relative gap CLUSTER_REL)."""
    clusters = cluster_values(vals)
    cut = CLUSTER_REL * float(np.abs(vals).max(initial=1.0))
    return ([c for c in clusters if abs(vals[c[0]]) > cut],
            [c for c in clusters if abs(vals[c[0]]) <= cut])


def wedderburn_decompose(A: ConcreteAlgebra) -> BlockStructure:
    """Recover summands, multiplicities, central projections and matrix units
    from one eigendecomposition.

    Each attempt draws two self-adjoint elements h, a of A.  For generic h
    the eigenvalue clusters of h off zero give its minimal projections q_c =
    V_c V_c*, one per eigenvalue of each block, of rank the summand's
    multiplicity, and the clusters at zero add up to the kernel of A.  For
    generic a, clusters c and c' lie in one summand iff q_c a q_c' is
    nonzero, read as the block V_c* a V_c' of the one product V* a V.  In a
    summand with clusters 0, ..., n - 1, f_j = V_0 polar(V_0* a V_j) V_j* is
    a partial isometry from q_j onto q_0 (f_0 = q_0), e_ij = f_i* f_j, and
    the central projection is sum_j q_j.  The eigenvectors' phases, and any
    rotation inside a cluster, cancel in f_j, so the units are a
    well-conditioned function of the basis and the draw.  Attempt t draws
    from the one stream keyed on (N, dim, t); a draw that is not generic
    fails a size, dimension, rank, membership or relation check and is
    retried on the next stream, up to _RETRIES attempts.
    """
    N = A.ambient_dim
    kernel_rank = N - int(round(float(np.real(np.trace(A.support)))))
    for attempt in range(_RETRIES):
        h, a = A.random_selfadjoints(rng_for(0, "wedderburn", N, A.dim, attempt), 2)
        try:
            return _structure_from_draw(A, h, a, kernel_rank)
        except SpectralGapError as err:  # fresh random draw
            last_err = err
    raise last_err


def _structure_from_draw(A: ConcreteAlgebra, h, a, kernel_rank: int) -> BlockStructure:
    """The BlockStructure read off one draw h, a (``wedderburn_decompose``),
    or a SpectralGapError naming the check the draw fails."""
    N = A.ambient_dim
    vals, vecs = np.linalg.eigh(h)
    live, zero = _clusters_off_zero(vals)
    if sum(len(c) for c in zero) != kernel_rank:
        raise SpectralGapError("the eigenvalue 0 of h is not the kernel of A")
    sizes = np.array([len(c) for c in live])
    starts = np.cumsum(sizes) - sizes
    V = vecs[:, np.concatenate(live)]
    M = dagger(V) @ a @ V
    peak = np.maximum.reduceat(np.maximum.reduceat(np.abs(M), starts, axis=0), starts, axis=1)
    linked = (peak > 1e-8 * peak.max()) | np.eye(len(live), dtype=bool)
    first = linked.argmax(axis=1)  # each cluster's first linked one, the first of its summand
    if not np.array_equal(linked, first[:, None] == first[None, :]):
        raise SpectralGapError("the links between eigenvalue clusters are not a partition")
    if (sizes != sizes[first]).any():
        raise SpectralGapError("the clusters of one summand differ in size")
    heads = np.flatnonzero(first == np.arange(len(first)))
    counts = np.bincount(first)[heads]
    if (counts ** 2).sum() != A.dim:
        raise SpectralGapError("block dimensions do not add up to dim(A)")
    # T_c = V_c polar(V_0* a V_c)* for the first cluster 0 of c's summand, and
    # T_0 = V_0, so that f_c = V_0 T_c* and e_cc' = T_c T_c'*: one batched SVD
    # per cluster size
    T = {}
    for m in set(sizes.tolist()):
        cs = np.flatnonzero(sizes == m)
        rows, cols = starts[first[cs], None] + np.arange(m), starts[cs, None] + np.arange(m)
        u, s, vh = np.linalg.svd(M[rows[:, :, None], cols[:, None, :]])
        if (s[:, -1] <= 1e-8 * s[:, 0]).any():
            raise SpectralGapError("a compression q_0 a q_c is not of full rank")
        W = dagger(u @ vh)
        W[first[cs] == cs] = np.eye(m)
        T.update(zip(cs, V[:, cols].transpose(1, 0, 2) @ W))
    parts = []
    for head, n in zip(heads, counts):
        Tk = np.concatenate([T[c] for c in np.flatnonzero(first == head)])  # (n N, m)
        E = (Tk @ dagger(Tk)).reshape(n, N, n, N).transpose(0, 2, 1, 3)  # E[i, j] = e_ij
        parts.append(((int(n), int(sizes[head])), np.einsum("iiab->ab", E), E.reshape(n * n, N, N)))
    summands, projections, units = zip(*sorted(parts, key=lambda part: (-part[0][0], -part[0][1])))
    projections = np.array(projections)
    if (A.residual(projections) > 1e-7).any():
        raise SpectralGapError("a central projection left the algebra span")
    struct = BlockStructure(summands=summands, central_projections=projections,
                            matrix_units=np.concatenate(units))
    if struct.residual > 1e-7:
        raise SpectralGapError(f"matrix unit relations residual {struct.residual:.2e}")
    return struct
