"""Dense complex linear algebra helpers shared by all modules.

Matrices are numpy complex128 arrays; ``dagger``, ``herm``, ``opnorms``,
``opnorm_max``, ``partial_isometry_polar`` and the functional calculus also
take stacks (S, n, n).  Norm conventions: ``opnorm`` is the operator
(spectral) norm, ``hs_norm`` the Hilbert-Schmidt one.  The largest operator
norm in a stack or a stream of stacks is ``opnorm_max``, equal bit for bit
to ``opnorms(stack).max(initial=0.0)`` on stacks of finite HS norm: every
matrix that could hold the maximum gets its own values-only SVD; those the
Hilbert-Schmidt bound rules out are skipped.  All randomness flows through
counter-based Philox generators derived from explicit integer seeds, so every
computation in the package replays bit-identically from its seed.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .certs import CLUSTER_REL, TOL_RANK

__all__ = [
    "dagger",
    "herm",
    "opnorm",
    "opnorms",
    "opnorm_max",
    "hs_norm",
    "chunk_length",
    "rng_for",
    "random_complex",
    "random_hermitian",
    "random_unitary",
    "eigh_fun",
    "psd_sqrt",
    "psd_pinv",
    "psd_part",
    "range_projection",
    "expm_i",
    "polar_factor",
    "partial_isometry_polar",
    "cluster_values",
]


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return x.conj().swapaxes(-1, -2)


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (x + x*)/2."""
    return 0.5 * (x + dagger(x))


def opnorm(x: np.ndarray) -> float:
    """Operator norm (largest singular value)."""
    if x.size == 0:
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False)[0])


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of a stack (..., R, C); the batched
    values-only SVD, equal per matrix to ``opnorm``.  For the largest of them
    use ``opnorm_max``, which returns ``opnorms(stack).max(initial=0.0)`` bit
    for bit without the SVDs the Hilbert-Schmidt bound rules out."""
    stack = np.asarray(stack)
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


# Slack on the bound ||x|| <= ||x||_HS, so that the computed HS norm stays
# above the computed top singular value: the relative part covers the
# rounding of both (far below 1e-8 for matrices of up to 10^7 entries), the
# absolute part the squares that underflow below the smallest normal number.
_HS_REL_SLACK = 1e-8
_HS_ABS_SLACK = 1e-150
# The bytes a chunk of gathered operands may hold (``chunk_length``): a copy
# or images of a whole large stack would raise the peak memory.
_BATCH_BYTES = 1 << 18


def chunk_length(item_bytes: int, operands: int) -> int:
    """Items per chunk of a stack whose items take item_bytes each, when
    operands such chunks are held at once: _BATCH_BYTES / operands bytes'
    worth, and at least 32.  The package's one chunk rule."""
    return max(32, _BATCH_BYTES // operands // max(item_bytes, 1))


def opnorm_max(stacks) -> float:
    """Largest operator norm over one stack (..., R, C), or over any other
    iterable read as a stream of stacks, 0.0 for none; for stacks of finite
    HS norm equal bit for bit to ``opnorms`` of their concatenation
    ``.max(initial=0.0)``.

    The HS norm bounds the operator norm from above; each stack's HS norms
    are taken once.  Its matrices of largest HS norm are SVD'd first, unless
    their bound is at or below the norm found so far; then, in batches of
    ``chunk_length`` matrices, every other matrix whose bound exceeds the
    norm found so far.  Each matrix taken gets its own values-only SVD, as in
    ``opnorms``.  A stack with a non-finite HS norm (an infinite or NaN
    entry, or entries whose squares overflow) makes the result nan, with no
    SVD.
    """
    best = 0.0
    for stack in (stacks,) if isinstance(stacks, np.ndarray) else stacks:
        stack = np.asarray(stack)
        mats = stack.reshape((math.prod(stack.shape[:-2]),) + stack.shape[-2:])
        hs = np.einsum("kij,kij->k", mats.real, mats.real)
        if np.iscomplexobj(mats):
            hs += np.einsum("kij,kij->k", mats.imag, mats.imag)
        hs = np.sqrt(hs)
        largest = hs.max(initial=0.0)
        if not np.isfinite(largest):
            return math.nan
        if not largest * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK > best:
            continue  # the bound rules the whole stack out
        bound = hs * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK
        top = hs == largest
        best = max(best, float(opnorms(mats[top]).max(initial=0.0)))
        rest = np.flatnonzero((bound > best) & ~top)
        batch = chunk_length(mats[:1].nbytes, 1)
        for start in range(0, len(rest), batch):
            take = rest[start:start + batch]
            take = take[bound[take] > best]  # the norm found so far may rule out more
            if len(take):
                best = max(best, float(opnorms(mats[take]).max()))
    return best


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf8"))


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Counter-based generator for (seed, purpose-tags).

    Distinct tag tuples give statistically independent, reproducible streams;
    the same tuple always replays the same stream on every platform.  A
    negative seed is refused by name.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_tag_to_int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian n x n matrix: n^2 real parts, then n^2
    imaginary parts from rng."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return herm(random_complex(rng, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(random_complex(rng, n))
    d = np.diagonal(r)
    ph = d / np.abs(np.where(np.abs(d) < 1e-300, 1.0, d))
    return q * ph


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def eigh_fun(h: np.ndarray, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix, or to each matrix of a
    stack, by eigendecomposition."""
    vals, vecs = np.linalg.eigh(herm(h))
    return (vecs * f(vals)[..., None, :]) @ dagger(vecs)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    return eigh_fun(h, lambda t: np.sqrt(np.clip(t, 0.0, None)))


def psd_part(h: np.ndarray) -> np.ndarray:
    """Positive part of the Hermitian part (nearest psd in HS norm)."""
    return eigh_fun(h, lambda t: np.clip(t, 0.0, None))


def psd_pinv(h: np.ndarray) -> np.ndarray:
    """Spectral pseudoinverse of a psd matrix, zeroing eigenvalues below
    TOL_RANK times the largest."""
    def inverse(t):
        cut = TOL_RANK * max(float(t.max(initial=0.0)), 1e-300)
        return np.where(t > cut, 1.0 / np.where(t > cut, t, 1.0), 0.0)
    return eigh_fun(h, inverse)


# relative eigenvalue cutoff of range_projection: the support of an algebra
# keeps every eigenvalue of its basis Gram sum above 1e-10 of the largest
_RANGE_REL_CUTOFF = 1e-10


def range_projection(h: np.ndarray) -> np.ndarray:
    """Projection onto the span of eigenvectors with eigenvalue above
    _RANGE_REL_CUTOFF times the largest (h psd)."""
    # the kept columns, not eigh_fun with a 0/1 weight, whose longer inner
    # dimension would change the rounding of every instance's support
    vals, vecs = np.linalg.eigh(herm(h))
    top = float(vals.max(initial=0.0))
    cut = _RANGE_REL_CUTOFF * max(top, 1e-300)
    keep = vals > cut
    v = vecs[:, keep]
    return v @ dagger(v)


def expm_i(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h (or a stack), exactly unitary up to eigh
    accuracy."""
    return eigh_fun(h, lambda t: np.exp(1j * t))


# ---------------------------------------------------------------------------
# polar decompositions
# ---------------------------------------------------------------------------

def polar_factor(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor u = U V* from the SVD x = U S V*."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def partial_isometry_polar(x: np.ndarray) -> np.ndarray:
    """Partial isometry part of x, or of each matrix of a stack (..., R, C),
    from one thin SVD: singular vectors with singular value above TOL_RANK
    times that matrix's own largest are kept, the rest are zeroed."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = s > TOL_RANK * s.max(axis=-1, keepdims=True, initial=1e-300)
    return (u * keep[..., None, :]) @ vh


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def cluster_values(vals: np.ndarray) -> list[np.ndarray]:
    """Group sorted real values into clusters separated by gaps larger than
    CLUSTER_REL times the overall spread.  Returns index arrays per cluster."""
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(vals)
    sv = vals[order]
    if not len(sv):
        return []
    thresh = CLUSTER_REL * max(float(sv[-1] - sv[0]), 1.0)
    # a gap that is not at most thresh, a nan gap included, starts a cluster
    return np.split(order, np.flatnonzero(~(np.diff(sv) <= thresh)) + 1)

