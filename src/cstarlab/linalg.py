"""Dense complex linear algebra helpers shared by all modules.

Matrices are numpy complex128 arrays; ``dagger``, ``herm``, ``opnorms``,
``opnorm_max`` and the functional calculus also take stacks (S, n, n).  Norm
conventions: ``opnorm`` is the operator (spectral) norm, ``hs_inner``/``hs_norm``
the Hilbert-Schmidt ones with inner product tr(a* b).  The largest operator
norm in a stack is ``opnorm_max``, equal bit for bit to
``opnorms(stack).max(initial=0.0)``: every matrix that could hold the maximum
still gets its own values-only SVD, and only those the Hilbert-Schmidt bound
rules out are skipped.  All randomness flows through counter-based Philox
generators derived from explicit integer seeds, so every computation in the
package replays bit-identically from its seed.
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
    "opnorm_max_of",
    "hs_inner",
    "hs_norm",
    "tracenorm",
    "rng_for",
    "random_complex",
    "random_hermitian",
    "random_unitary",
    "random_contraction",
    "eigh_fun",
    "psd_sqrt",
    "psd_pinv",
    "psd_part",
    "range_projection",
    "clip_spectrum",
    "expm_i",
    "polar_factor",
    "partial_isometry_polar",
    "principal_log_unitary",
    "cluster_values",
    "is_projection_residual",
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
# Largest gathered batch in opnorm_max, and 4 times opnorm_max_of's: a copy
# or images of a whole large stack would raise the peak memory.
_BATCH_BYTES = 1 << 18


def opnorm_max(stack: np.ndarray) -> float:
    """Largest operator norm in a stack (..., R, C), 0.0 for an empty one;
    equal bit for bit to ``opnorms(stack).max(initial=0.0)``.

    The HS norm bounds the operator norm from above.  The matrices of largest
    HS norm are SVD'd first; then, in batches of at most _BATCH_BYTES, every
    other matrix whose HS norm exceeds the largest norm found so far.  Each
    matrix taken gets its own values-only SVD, as in ``opnorms``.  A stack
    with a non-finite HS norm takes ``opnorms`` whole.
    """
    stack = np.asarray(stack)
    mats = stack.reshape((math.prod(stack.shape[:-2]),) + stack.shape[-2:])
    hs = np.einsum("kij,kij->k", mats.real, mats.real)
    if np.iscomplexobj(mats):
        hs += np.einsum("kij,kij->k", mats.imag, mats.imag)
    hs = np.sqrt(hs)
    largest = hs.max(initial=0.0)
    if not np.isfinite(largest):
        return float(opnorms(stack).max(initial=0.0))
    top = hs == largest
    best = float(opnorms(mats[top]).max(initial=0.0))
    bound = hs * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK
    rest = np.flatnonzero((bound > best) & ~top)
    batch = max(1, _BATCH_BYTES // max(mats[:1].nbytes, 1))
    for start in range(0, len(rest), batch):
        take = rest[start:start + batch]
        take = take[bound[take] > best]  # the norm found so far may rule out more
        if len(take):
            best = max(best, float(opnorms(mats[take]).max()))
    return best


def opnorm_max_of(f, points) -> float:
    """opnorm_max(f(points)) for an f that maps each point of a stack or list on
    its own, f taking 32 points or _BATCH_BYTES / 4 of them at a time, whichever
    is more; the norm found so far rules out matrices by their HS bound."""
    best, batch = 0.0, max(32, _BATCH_BYTES // 4 // max(np.asarray(points[:1]).nbytes, 1))
    for i in range(0, len(points), batch):
        out = f(np.asarray(points[i:i + batch], dtype=complex))
        hs = np.linalg.norm(out, axis=(-2, -1)) * (1.0 + _HS_REL_SLACK) + _HS_ABS_SLACK
        best = max(best, opnorm_max(out[~(hs <= best)]))
    return best


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a* b), antilinear in the first slot."""
    return complex(np.vdot(a, b))


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def tracenorm(x: np.ndarray) -> float:
    """Trace norm (sum of singular values)."""
    return float(np.linalg.svd(x, compute_uv=False).sum())


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
    the same tuple always replays the same stream on every platform.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_tag_to_int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def random_complex(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Standard complex Gaussian matrix."""
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return herm(random_complex(rng, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(random_complex(rng, n))
    d = np.diagonal(r)
    ph = d / np.abs(np.where(np.abs(d) < 1e-300, 1.0, d))
    return q * ph


def random_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian n x n matrix, scaled down to norm one when
    its norm exceeds one."""
    g = random_complex(rng, n)
    nrm = opnorm(g)
    return g if nrm <= 1.0 else g / nrm


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
    vals, vecs = np.linalg.eigh(herm(h))
    top = float(vals.max(initial=0.0))
    cut = TOL_RANK * max(top, 1e-300)
    inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
    return (vecs * inv) @ dagger(vecs)


def range_projection(h: np.ndarray, rel_cutoff: float = 1e-8) -> np.ndarray:
    """Projection onto the span of eigenvectors with eigenvalue above
    rel_cutoff times the largest (h psd)."""
    vals, vecs = np.linalg.eigh(herm(h))
    top = float(vals.max(initial=0.0))
    cut = rel_cutoff * max(top, 1e-300)
    keep = vals > cut
    v = vecs[:, keep]
    return v @ dagger(v)


def clip_spectrum(h: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Spectral clipping of a Hermitian matrix (or a stack) into [lo, hi].

    The clipping function fixes 0, so elements of a non-unital subalgebra
    stay inside it.
    """
    return eigh_fun(h, lambda t: np.clip(t, lo, hi))


def expm_i(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h (or a stack), exactly unitary up to eigh
    accuracy."""
    vals, vecs = np.linalg.eigh(herm(h))
    return (vecs * np.exp(1j * vals)[..., None, :]) @ dagger(vecs)


# ---------------------------------------------------------------------------
# polar decompositions and logarithms
# ---------------------------------------------------------------------------

def polar_factor(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor u = U V* from the SVD x = U S V*."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def partial_isometry_polar(x: np.ndarray) -> np.ndarray:
    """Partial isometry part of x: singular vectors with singular value above
    TOL_RANK times the largest are kept, the rest are zeroed."""
    u, s, vh = np.linalg.svd(x)
    top = float(s.max(initial=0.0))
    keep = s > TOL_RANK * max(top, 1e-300)
    return u[:, keep] @ vh[keep, :]


def principal_log_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian h with exp(i h) = u and spectrum in (-pi, pi).

    Rejects unitaries with spectrum within 1e-6 of -1, where the principal
    branch is discontinuous.
    """
    n = u.shape[0]
    if opnorm(dagger(u) @ u - np.eye(n)) > 1e-8:
        raise ValueError("principal_log_unitary: input is not unitary")
    vals = np.linalg.eigvals(u)
    if np.abs(vals + 1.0).min(initial=2.0) < 1e-6:
        raise ValueError("principal_log_unitary: spectrum touches -1, no principal branch")
    import scipy.linalg  # deferred: loading scipy costs 0.2 s in every process
    logu = scipy.linalg.logm(u)
    h = herm(logu / 1j)
    if opnorm(expm_i(h) - u) > 1e-8:
        raise ValueError("principal_log_unitary: reconstruction failed")
    return h


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def cluster_values(vals: np.ndarray) -> list[np.ndarray]:
    """Group sorted real values into clusters separated by gaps larger than
    CLUSTER_REL times the overall spread.  Returns index arrays per cluster."""
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(vals)
    sv = vals[order]
    spread = max(float(sv[-1] - sv[0]), 1e-300) if len(sv) else 0.0
    thresh = CLUSTER_REL * max(spread, 1.0)
    groups: list[list[int]] = []
    for pos, idx in enumerate(order):
        if groups and sv[pos] - vals[groups[-1][-1]] <= thresh:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(g) for g in groups]


def is_projection_residual(p: np.ndarray) -> float:
    """max(||p^2 - p||, ||p - p*||)."""
    return max(opnorm(p @ p - p), opnorm(p - dagger(p)))
