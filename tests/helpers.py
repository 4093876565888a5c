"""Constructions the tests share that the package itself does not need: the
oracles that tests of the package's run paths compare against."""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from cstarlab.algebra import BlockStructure, ConcreteAlgebra, FDAlgebra, _combine
from cstarlab.averaging import _canonical_index
from cstarlab.certs import CLUSTER_REL, TOL_ALG
from cstarlab.cpmaps import LinMap, _from_choi_blocks, choi_blocks, classify
from cstarlab.linalg import dagger, opnorm, opnorm_max, random_unitary, rng_for
from cstarlab.orderzero import OrderZeroMap, _structure_residual
from cstarlab.serialize import dumps

# the tolerance of the averaging-set check: weights, unitaries, tensor
TOL_CONV = 1e-11

# the kind tags the loader reads; a report or an instance carries no other
FILE_KINDS = {"report", "instance", "concrete_algebra", "certificate", "matrix"}


def file_kinds(obj) -> set:
    """The kind tags of every object in the JSON dump of obj."""
    found, todo = set(), [json.loads(dumps(obj))]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            if "kind" in node:
                found.add(node["kind"])
            node = list(node.values())
        if isinstance(node, list):
            todo.extend(node)
    return found


def matrix_unit(fd, k: int, i: int, j: int) -> np.ndarray:
    """The matrix unit e_ij of block k of the block algebra fd, built entry
    by entry as a d x d matrix."""
    m = np.zeros((fd.d, fd.d), dtype=complex)
    o = fd.offsets[k]
    m[o + i, o + j] = 1.0
    return m


def mult_defects(phi, X) -> np.ndarray:
    """The stack phi(y)phi(y*) - phi(yy*) over y = x0, x0*, x1, x1*, ...; its
    largest operator norm is the multiplicativity defect of phi over X and
    X*, the X elements living in the domain's ambient."""
    # Y[:, ::-1] pairs each point with its adjoint, as a view
    Y = np.asarray(X, dtype=complex)
    Y = np.stack([Y, dagger(Y)], axis=1)
    defects = phi(Y)
    defects = defects @ defects[:, ::-1]
    defects -= phi(Y @ Y[:, ::-1])
    return defects.reshape((-1,) + defects.shape[2:])


def relation_residual_by_rows(fd, E) -> float:
    """The generating relation residual of ``FDAlgebra.relation_residual``
    taken one row at a time: ||E_ji - E_ij*|| per block, ||E_ij E_jl - E_il||
    as one stack per row i of a block, and ||E_ii E_jj|| as one stack per
    diagonal unit against every other, each stack measured by its own
    ``opnorm_max`` call."""
    worst, diagonal = 0.0, []
    for n, block in zip(fd.block_sizes, fd.unit_blocks(E)):  # E_ij at [i, j]
        worst = max(worst, opnorm_max(block.swapaxes(0, 1) - dagger(block)))
        for row in block:  # E_ij at [j]; E_ij E_jl - E_il at [j, l]
            worst = max(worst, opnorm_max(row[:, None] @ block - row[None]))
        diagonal.append(block[np.arange(n), np.arange(n)])
    diagonal = np.concatenate(diagonal)
    for a, e in enumerate(diagonal):
        worst = max(worst, opnorm_max(e @ np.delete(diagonal, a, axis=0)))
    return float(worst)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a* b), antilinear in the first slot."""
    return complex(np.vdot(a, b))


def is_projection_residual(p: np.ndarray) -> float:
    """max(||p^2 - p||, ||p - p*||)."""
    return max(opnorm(p @ p - p), opnorm(p - dagger(p)))


@dataclass
class OracleCheck:
    """The verdict of a test oracle, whose bound is not in certs.BOUNDS, so
    it is no ``Certificate``: "pass" iff achieved <= ceiling."""

    name: str
    formula: str
    inputs: dict
    ceiling: float
    achieved: float

    @property
    def verdict(self) -> str:
        return "pass" if self.achieved <= self.ceiling else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """A rows x cols standard complex Gaussian matrix, in the stream order of
    ``linalg.random_complex``: the real parts, then the imaginary parts."""
    re, im = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def verify_algebra(A: ConcreteAlgebra) -> OracleCheck:
    """Check orthonormality, *-closure, product closure, and the support
    projection identities.  Returns the check of the worst residual."""
    Q, e = A.basis.reshape(A.dim, -1), A.support
    worst = max(float(np.abs(Q.conj() @ Q.T - np.eye(A.dim)).max(initial=0.0)),
                A.residual(dagger(A.basis)).max(initial=0.0),
                is_projection_residual(e),
                opnorm_max(e @ A.basis - A.basis), opnorm_max(A.basis @ e - A.basis))
    for b in A.basis:  # the products b c, one row at a time
        worst = max(worst, A.residual(b @ A.basis).max())
    return OracleCheck(
        "algebra-invariants",
        "max residual of orthonormality, *-closure, product closure, support identities",
        {"dim": A.dim, "ambient_dim": A.ambient_dim}, TOL_ALG, worst)


def choi(phi: LinMap) -> np.ndarray:
    """Full Choi matrix: block-diagonal sum of the per-summand blocks."""
    return scipy.linalg.block_diag(*choi_blocks(phi))


def from_choi(C: np.ndarray, block_sizes, codomain_dim: int) -> LinMap:
    """Inverse of :func:`choi` for the given block sizes."""
    fd, N = FDAlgebra(tuple(block_sizes)), codomain_dim
    cuts = np.cumsum([0] + [n * N for n in fd.block_sizes])
    return _from_choi_blocks(fd, [C[a:b, a:b] for a, b in zip(cuts, cuts[1:])])


def conditional_expectation(A: ConcreteAlgebra) -> LinMap:
    """HS-orthogonal projection of M_N onto span(A) as a map on the full
    matrix algebra.

    For A unital in the ambient this is the trace-preserving conditional
    expectation (ucp, A-bimodular).  For a non-unital A it equals that
    expectation composed with the support compression and is still cpc.
    """
    N = A.ambient_dim
    fd = FDAlgebra((N,))
    return LinMap(fd, A.project(fd.units()), codomain_algebra=A)


# (summands, N) of the maps on M_n (x) 1_m domains: one summand with
# multiplicity 2, three summands with one of them amplified, and M_3 (x) 1_2
MULTIPLICITY_CASES = [(((2, 2),), 5), (((1, 2), (1, 1), (2, 1)), 6), (((3, 2),), 7)]


def multiplicity_algebra(summands, N, seed):
    """(+)_k M_{n_k} (x) 1_{m_k} on consecutive diagonal blocks of M_N,
    conjugated by a random unitary w: the algebra and its unit."""
    units, o = [], 0
    for n, m in summands:
        amp = np.kron(FDAlgebra((n,)).units(), np.eye(m))
        units.append(np.pad(amp, ((0, 0), (o, N - o - n * m), (o, N - o - n * m))))
        o += n * m
    w = random_unitary(rng_for(seed, "mult-units"), N)
    unit = w @ np.diag([1.0] * o + [0.0] * (N - o)) @ dagger(w)
    return ConcreteAlgebra.from_basis(list(w @ np.concatenate(units) @ dagger(w)), N), unit


def to_concrete(struct: BlockStructure, m: np.ndarray) -> np.ndarray:
    """The concrete element of m in ``struct.fd_model()``, or of each matrix
    of a stack (..., d, d), over the structure's matrix units: the inverse of
    ``fd_model().from_coeffs(struct.coeffs(y))``."""
    return _combine(struct.fd_model().coeffs(m), struct.matrix_units)


def dilation_representation(block_sizes, ranks) -> np.ndarray:
    """The representation of a Stinespring dilation built entry by entry:
    the (dim_linear, K, K) stack of pi(e_ij) = e_ij (x) 1_{r_k} on block k,
    K = sum_k n_k r_k, with the basis ordered (k, i, alpha)."""
    K = sum(n * r for n, r in zip(block_sizes, ranks))
    out, off = [], 0
    for n, r in zip(block_sizes, ranks):
        for i in range(n):
            for j in range(n):
                m = np.zeros((K, K), dtype=complex)
                for a in range(r):
                    m[off + i * r + a, off + j * r + a] = 1.0
                out.append(m)
        off += n * r
    return np.array(out)


def weyl_unitaries(n: int) -> list[np.ndarray]:
    """The n^2 shift-and-phase unitaries S^a D^b of M_n.

    S is the cyclic shift, D the diagonal of n-th roots of unity; the family
    is an HS-orthogonal unitary basis of M_n.
    """
    S = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return [np.linalg.matrix_power(S, a) @ np.diag(np.exp(2j * np.pi * b * np.arange(n) / n))
            for a in range(n) for b in range(n)]


def phase_family(fd: FDAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Weights and unitaries of the block algebra fd whose tensor average
    sum_t weights[t] terms[t] (x) terms[t]* is exactly the canonical
    separability element: an explicit unitary family for the tests that
    check ``canonical_average`` against a sum over unitaries.

    With r blocks, L = lcm(n_k^2) and omega = exp(2 pi i / r), cut [0, L) at
    every multiple of L / n_k^2 for every k.  Each interval [s, e) and c in
    Z_r give the term u_{c,s} = (+)_k omega^{ck} W_k(floor(s n_k^2 / L)) of
    weight (e - s) / (rL), where W_k(a) is the a-th shift-and-phase unitary
    of block k: the comonotone coupling of the uniform laws on the Z_{n_k^2}.
    The phase sum over c cancels every cross-block term of sum u (x) u*;
    inside block k every index a carries weight 1/n_k^2, so the block
    averages the HS-orthogonal basis W_k to (1/n_k) times the flip, its
    canonical element.  So at most r (sum n_k^2 - r + 1) terms are exact.
    """
    block_sizes = fd.block_sizes
    r = len(block_sizes)
    L = math.lcm(*(n * n for n in block_sizes))
    cuts = np.array(sorted({a * L // (n * n) for n in block_sizes for a in range(n * n)} | {L}))
    start = cuts[:-1]
    c = np.arange(r)[:, None, None]
    # coefficient of the unit e_ij of block k in the term (c, s)
    coeffs = np.concatenate(
        [np.exp(2j * np.pi * (c * k % r) / r)
         * np.array(weyl_unitaries(n)).reshape(n * n, n * n)[start * (n * n) // L]
         for k, n in enumerate(block_sizes)], axis=2).reshape(r * len(start), -1)
    terms = (coeffs @ fd.units().reshape(fd.dim_linear, -1)).reshape(-1, fd.d, fd.d)
    return np.tile(np.diff(cuts) / (r * L), r), terms


def canonical_residual(fd: FDAlgebra, weights: np.ndarray, terms: np.ndarray) -> float:
    """Distance of sum lambda u (x) u* from the canonical element of the
    block algebra fd."""
    m, units = fd.d, fd.units()

    def tensor_average(w, left, right):
        return np.einsum("t,tab,tcd->acbd", w, left, right).reshape(m * m, m * m)

    scale, flip = _canonical_index(fd.block_sizes)
    W = tensor_average(weights, terms, terms.conj().transpose(0, 2, 1))
    C = tensor_average(scale, units, units[flip])
    return opnorm(W - C)


def verify_averaging_set(fd: FDAlgebra, weights: np.ndarray, terms: np.ndarray) -> OracleCheck:
    """Certify the defining properties of an averaging family of the block
    algebra fd: weights sum to one, every term is a unitary of fd, and the
    averaged tensor is exactly the canonical separability element (hence
    exactly central)."""
    uu = terms @ dagger(terms)
    worst = max(abs(float(np.sum(weights)) - 1.0),
                opnorm_max(np.concatenate([dagger(terms) @ terms, uu]) - fd.unit()))
    mw = sum(lam * p for lam, p in zip(weights, uu))
    worst = max(worst, opnorm(mw - fd.unit()))
    worst = max(worst, canonical_residual(fd, weights, terms))
    return OracleCheck(
        "averaging-set",
        "max(|sum(w)-1|, ||u*u - 1||, ||sum w u(x)u* - canonical||) <= tol",
        {"n_terms": len(terms), "block_sizes": list(fd.block_sizes)}, TOL_CONV, worst)


def orthogonality_residual(oz: OrderZeroMap) -> float:
    """Largest ||phi(e) phi(f)|| over orthogonal diagonal matrix units."""
    diag = np.concatenate([E[np.arange(len(E)), np.arange(len(E))]
                           for E in oz.map.domain.unit_blocks(oz.map.images)])
    first, second = np.triu_indices(len(diag), 1)
    return opnorm_max(diag[first] @ diag[second])


def verify_order_zero(oz: OrderZeroMap) -> dict:
    """The checks of an order-zero map: cpc, the structure identities
    phi(x) = pi(x) h = h pi(x), orthogonality and pi's relation residual."""
    cpc = classify(oz.map).cpc
    structure = _structure_residual(oz.map.images, oz.pi.images, oz.h)
    pi_defect = oz.pi.domain.relation_residual(oz.pi.images)
    return {"cpc": cpc,
            "structure_residual": structure,
            "orthogonality_residual": orthogonality_residual(oz),
            "pi_defect": pi_defect,
            "ok": bool(cpc and structure <= TOL_ALG and pi_defect <= TOL_ALG)}


def cluster_values_loop(vals) -> list[np.ndarray]:
    """The per-value loop that linalg.cluster_values replaced: walk the
    sorted values and start a group wherever the step from the previous one
    is not at most CLUSTER_REL times max(spread, 1)."""
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
