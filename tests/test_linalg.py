import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import linalg
from cstarlab.linalg import (cluster_values, dagger, eigh_fun,
                             expm_i, hs_norm, opnorm, opnorm_max, opnorms,
                             partial_isometry_polar, polar_factor, psd_part, psd_pinv,
                             psd_sqrt, random_complex, random_hermitian, random_unitary,
                             range_projection, rng_for)
from helpers import cluster_values_loop, complex_gaussian, is_projection_residual

DIMS = st.integers(min_value=1, max_value=6)
SEEDS = st.integers(min_value=0, max_value=10_000)


def test_rng_determinism():
    a = rng_for(7, "tag", 3).standard_normal(5)
    b = rng_for(7, "tag", 3).standard_normal(5)
    c = rng_for(7, "tag", 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be at least 0, not -1"):
        rng_for(-1, "tag")


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_random_unitary_is_unitary(n, seed):
    u = random_unitary(rng_for(seed, "u"), n)
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_polar_factor_matches_scipy(n, seed):
    x = random_complex(rng_for(seed, "p"), n) + 3.0 * np.eye(n)
    u = polar_factor(x)
    u_ref, _ = scipy.linalg.polar(x)
    assert opnorm(u - u_ref) < 1e-10
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_psd_sqrt_squares_back(n, seed):
    h = random_hermitian(rng_for(seed, "s"), n)
    p = psd_part(h)
    r = psd_sqrt(p)
    assert opnorm(r @ r - p) < 1e-10
    vals = np.linalg.eigvalsh(p)
    assert vals.min() > -1e-13


@given(n=DIMS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_expm_i_unitary_and_matches_scipy(n, seed):
    h = random_hermitian(rng_for(seed, "e"), n)
    u = expm_i(h)
    assert opnorm(dagger(u) @ u - np.eye(n)) < 1e-12
    assert opnorm(u - scipy.linalg.expm(1j * h)) < 1e-10


def test_expm_i_small_angle_norm():
    # ||e^{ih} - 1|| = 2 sin(||h||/2) for hermitian h
    h = np.diag([0.3, -0.1])
    u = expm_i(h)
    assert abs(opnorm(u - np.eye(2)) - 2 * np.sin(0.15)) < 1e-12


def test_psd_pinv_on_singular():
    h = np.diag([2.0, 0.0, 1e-16])
    hp = psd_pinv(h)
    assert np.allclose(hp, np.diag([0.5, 0.0, 0.0]))


def test_range_projection_rank():
    h = np.diag([1.0, 0.5, 0.0])
    p = range_projection(h)
    assert is_projection_residual(p) < 1e-12
    assert abs(np.trace(p) - 2.0) < 1e-12


def test_eigh_fun_polynomial():
    h = random_hermitian(rng_for(1, "f"), 4)
    sq = eigh_fun(h, lambda t: t * t)
    assert opnorm(sq - h @ h) < 1e-12


def test_partial_isometry_polar():
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 2.0
    v = partial_isometry_polar(x)
    assert opnorm(v @ dagger(v) @ v - v) < 1e-12
    assert abs(opnorm(v) - 1.0) < 1e-12


@pytest.mark.parametrize("shape, rank", [((3, 2), 2), ((2, 3), 2), ((5, 3), 1), ((3, 5), 2)])
def test_partial_isometry_polar_of_a_rectangular_matrix(shape, rank):
    # tall and wide, of full and of lower rank: v v* v = v, ||v|| = 1 and
    # v* v is the range projection of x* x, onto the row space of x
    rng = rng_for(sum(shape) + rank, "partial-isometry-rectangular")
    x = complex_gaussian(rng, shape[0], rank) @ complex_gaussian(rng, rank, shape[1])
    v = partial_isometry_polar(x)
    assert v.shape == shape
    assert opnorm(v @ dagger(v) @ v - v) < 1e-12
    assert abs(opnorm(v) - 1.0) < 1e-12
    assert opnorm(dagger(v) @ v - range_projection(dagger(x) @ x)) < 1e-12


@pytest.mark.summation_order
def test_partial_isometry_polar_of_a_stack_equals_the_separate_calls():
    # one stack with entries from 1e-300 to 1e3, a zero matrix (its partial
    # isometry is zero), complex entries and a rank-deficient matrix whose
    # 1e-12 singular value falls under the cut: each matrix is cut against
    # its own largest singular value, so the stacked call equals the
    # separate calls bit for bit, with a leading stack axis or two; a cut
    # against the stack's largest value would zero the small matrices.  The
    # batched SVD and product make one LAPACK and one GEMM call per matrix,
    # the calls a single matrix makes, so equality holds at any BLAS thread
    # count
    rng = rng_for(3, "partial-isometry-stack")
    x = np.array([complex_gaussian(rng, 4, 4) * scale
                  for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e3, 0.0)])
    u, w = random_unitary(rng, 4), random_unitary(rng, 4)
    x = np.concatenate([x, [u @ np.diag([1.0, 0.5, 1e-12, 0.0]) @ w, x[3] @ x[4]]])
    v = partial_isometry_polar(x)
    assert np.array_equal(v, np.array([partial_isometry_polar(m) for m in x]))
    assert np.array_equal(partial_isometry_polar(x.reshape(2, 4, 4, 4)), v.reshape(2, 4, 4, 4))
    assert not v[5].any()
    assert np.allclose(np.linalg.svd(v[6], compute_uv=False), [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    assert np.all(np.abs(np.linalg.svd(v[:5], compute_uv=False) - 1.0) < 1e-12)


def test_cluster_values_groups():
    groups = cluster_values(np.array([0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
    assert [len(g) for g in groups] == [2, 2, 1]


@pytest.mark.parametrize("seed", range(20))
def test_cluster_values_matches_the_per_value_loop(seed):
    # random spectra with exact ties, sub-threshold gaps and, on odd seeds, a
    # nan (its gap splits, as the loop's failed comparison did); the groups
    # and their index order equal the loop's
    rng = rng_for(seed, "cluster-values")
    base = rng.choice(rng.normal(size=4) * 10.0 ** rng.integers(-3, 4), size=12)
    vals = base + rng.choice([0.0, 1e-9, 1e-3], size=12) * rng.integers(0, 2, size=12)
    if seed % 2:
        vals[rng.integers(12)] = np.nan
    got, want = cluster_values(vals), cluster_values_loop(vals)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


@pytest.mark.parametrize("vals", [[], [np.nan], [np.nan, np.nan], [1.0, np.nan, 1.0],
                                  [-np.inf, np.inf], [3.0, 3.0]],
                         ids=["empty", "nan", "two-nans", "nan-between-ties", "infinities",
                              "tie"])
def test_cluster_values_edge_cases_match_the_loop(vals):
    got, want = cluster_values(np.array(vals)), cluster_values_loop(np.array(vals))
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_hs_norm_vs_singular_values():
    x = random_complex(rng_for(3, "t"), 4)
    s = np.linalg.svd(x, compute_uv=False)
    assert abs(hs_norm(x) - np.sqrt((s * s).sum())) < 1e-12


def test_opnorms_equal_opnorm_per_matrix():
    rng = rng_for(5, "opnorms")
    for shape in [(9, 4, 4), (6, 3, 5), (2, 3, 8, 8)]:
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals = opnorms(S)
        assert vals.shape == shape[:-2]
        flat = S.reshape((-1,) + shape[-2:])
        assert np.array_equal(vals.reshape(-1), [opnorm(s) for s in flat])
    assert opnorms(np.zeros((0, 3, 3))).shape == (0,)


def _hs_order_differs(rng, k: int, n: int, rows: int | None = None) -> np.ndarray:
    """k matrices, shuffled: rank-one ones (HS norm = operator norm) among
    scaled identities (HS norm = sqrt(n) x operator norm), with repeats and
    zeros, so decreasing HS norm is not decreasing operator norm."""
    rows = n if rows is None else rows
    kinds = rng.integers(0, 4, size=k)
    mats = np.zeros((k, rows, n), dtype=complex)
    for i, kind in enumerate(kinds):
        if kind == 0:
            u, v = complex_gaussian(rng, rows, 1), complex_gaussian(rng, n, 1)
            mats[i] = rng.uniform(0.5, 2.0) * u @ dagger(v)
        elif kind == 1:
            mats[i, :min(rows, n), :min(rows, n)] = rng.uniform(0.5, 2.0) * np.eye(min(rows, n))
        elif kind == 2 and i > 0:
            mats[i] = mats[rng.integers(0, i)]  # a tie with an earlier matrix
    return mats[rng.permutation(k)]


@given(k=st.integers(min_value=0, max_value=24), n=DIMS, rows=DIMS, seed=SEEDS)
@settings(max_examples=200, deadline=None)
def test_opnorm_max_equals_the_full_stack_maximum(k, n, rows, seed):
    rng = rng_for(seed, "opnorm-max")
    for S in (_hs_order_differs(rng, k, n), _hs_order_differs(rng, k, n, rows),
              rng.standard_normal((k, rows, n)) * rng.uniform(0, 1, (k, 1, 1)) ** 6):
        assert opnorm_max(S) == opnorms(S).max(initial=0.0)


def test_opnorm_max_on_special_stacks():
    rng = rng_for(6, "opnorm-max-special")
    S = _hs_order_differs(rng, 24, 4)
    # the identity 0.6 * 1_4 leads in HS norm (1.2) but not in operator norm,
    # and the rank-one matrix of norm 1 has HS norm 1 > 0.6 > 1 / sqrt(4)
    lead = np.stack([0.6 * np.eye(4), np.outer(np.eye(4)[0], np.eye(4)[1])])
    for stack in (S, S.reshape(2, 3, 4, 4, 4), S[:1], S[0], lead, lead[::-1],
                  np.zeros((5, 3, 3)), np.zeros((3, 0, 0)),
                  np.concatenate([np.zeros((4, 4, 4)), S[:3]]), 1e-170 * S,
                  rng.standard_normal((7, 2, 6)), rng.standard_normal((2, 7, 6, 2))):
        assert opnorm_max(stack) == opnorms(stack).max(initial=0.0)
    assert opnorm_max(lead) == 1.0
    # squares below the smallest normal number round away: the second HS
    # norm reads 2.2e-162, below the first matrix's operator norm 2.65e-162
    tiny = np.stack([np.diag([2.65e-162] * 4), np.diag([2.7e-162, 0, 0, 0])])
    assert opnorm_max(tiny) == 2.7e-162
    assert opnorm_max(np.zeros((0, 3, 3))) == 0.0
    # a non-finite stack gives nan with no SVD: an infinite entry, as
    # opnorms does, and a NaN entry, where opnorms raises LinAlgError
    S[5, 0, 0] = np.inf
    assert np.isnan(opnorm_max(S)) and np.isnan(opnorms(S).max())
    S[5, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        opnorms(S)
    assert np.isnan(opnorm_max(S))


# summation order: opnorm_max over chunks is the one-stack maximum, bit for bit
@pytest.mark.summation_order
@given(sizes=st.lists(st.integers(min_value=0, max_value=8), max_size=5), n=DIMS,
       rows=DIMS, seed=SEEDS)
@settings(max_examples=200, deadline=None)
def test_opnorm_max_of_a_stream_equals_the_concatenated_maximum(sizes, n, rows, seed):
    # chunks of a stack at scales apart, so a chunk's largest HS norm can
    # fall below the norm found in the chunks before it; read as a list, an
    # iterator, or one matrix per stack
    rng = rng_for(seed, "opnorm-max-stream")
    S = _hs_order_differs(rng, sum(sizes), n, rows)
    S *= rng.choice([1e-3, 1.0, 1e3], size=(len(S), 1, 1))
    chunks = np.split(S, np.cumsum(sizes, dtype=int)[:-1])
    want = opnorms(S).max(initial=0.0)
    assert opnorm_max(chunks) == want
    assert opnorm_max(iter(chunks)) == want
    assert opnorm_max(list(S)) == want


# summation order: an overflowing product gives nan under either summation order
@pytest.mark.summation_order
def test_opnorm_max_of_a_stream_with_a_non_finite_stack():
    # whichever stack of the stream holds it, an infinite or a NaN entry
    # gives nan
    a = np.stack([np.eye(3), 0.5 * np.eye(3)])
    b = np.zeros((2, 3, 3))
    b[1, 0, 0] = np.inf
    assert np.isnan(opnorms(np.concatenate([a, b])).max())
    for stream in ([b, a], [a, b]):
        assert np.isnan(opnorm_max(stream))
        assert np.isnan(opnorm_max(iter(stream)))
    c = b.copy()
    c[1, 0, 0] = np.nan
    for stream in ([c, a], [a, c], [b, c]):
        assert np.isnan(opnorm_max(stream))
        assert np.isnan(opnorm_max(iter(stream)))


def test_opnorm_max_of_diagonal_matrices_is_the_largest_entry():
    d = complex_gaussian(rng_for(7, "opnorm-max-diag"), 40, 5)
    S = np.einsum("ki,ij->kij", d, np.eye(5))
    assert abs(opnorm_max(S) - np.abs(d).max()) <= 4 * np.finfo(float).eps * np.abs(d).max()


def test_opnorm_max_bound_covers_rounding():
    # a rank-one r has HS norm = operator norm, and its computed top singular
    # value exceeds its computed HS norm h by rounding about a third of the
    # time; behind diag(h, 1e-7 h), whose HS norm is larger and whose
    # operator norm is h, r can only be skipped by a bound without slack
    rng = rng_for(9, "opnorm-max-rounding")
    u, v = complex_gaussian(rng, 60 * 4, 2).reshape(2, 60, 4, 1)
    r = u @ dagger(v)
    h = np.linalg.norm(r, axis=(1, 2))
    assert (opnorms(r) > h).sum() >= 5
    for x, hx in zip(r, h):
        t = np.diag([hx, 1e-7 * hx, 0.0, 0.0]).astype(complex)
        assert opnorm_max(np.stack([t, x])) == opnorms(np.stack([t, x])).max()


def _svd_counter(monkeypatch) -> list[int]:
    """Records the number of matrices of each opnorms call."""
    taken, full = [], linalg.opnorms

    def counted(stack):
        taken.append(int(np.prod(np.shape(stack)[:-2])))
        return full(stack)

    monkeypatch.setattr(linalg, "opnorms", counted)
    return taken


def test_opnorm_max_skips_what_the_hs_bound_rules_out(monkeypatch):
    taken = _svd_counter(monkeypatch)
    rng = rng_for(8, "opnorm-max-skip")
    small = rng.standard_normal((20, 4, 4))
    small /= 2.0 * np.linalg.norm(small, axis=(1, 2), keepdims=True)
    S = np.concatenate([small[:9], 2.0 * np.outer(np.eye(4)[0], np.eye(4)[2])[None], small[9:]])
    assert opnorm_max(S) == 2.0 and taken == [1]
    # one matrix per batch: the rank-one matrix's norm 1 rules out 0.45 * 1_4
    # (HS norm 0.9), which the first matrix's norm 0.6 did not
    monkeypatch.setattr(linalg, "_BATCH_BYTES", 1)
    taken.clear()
    e = np.eye(4)
    assert opnorm_max(np.stack([0.6 * e, np.outer(e[0], e[1]), 0.45 * e])) == 1.0
    assert taken == [1, 1]


def test_opnorm_max_stops_when_the_norm_found_equals_the_bound(monkeypatch):
    # the second matrix's bound, its HS norm 1 with the slack, equals the
    # first matrix's operator norm exactly, so it cannot exceed it
    taken = _svd_counter(monkeypatch)
    top = 1.0 * (1.0 + linalg._HS_REL_SLACK) + linalg._HS_ABS_SLACK
    S = np.zeros((2, 2, 2))
    S[0, 0, 0], S[1, 0, 0] = top, 1.0
    assert opnorm_max(S) == top and taken == [1]


def _loop_maxima(tree: ast.AST) -> list[int]:
    """Lines of acc = max(acc, opnorm(...)) inside a loop: a stack maximum
    taken one operator norm at a time."""
    lines = set()
    for loop in (n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))):
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "max"):
                continue
            args = node.value.args
            if (any(isinstance(a, ast.Name) and a.id == node.targets[0].id for a in args)
                    and any(isinstance(a, ast.Call) and isinstance(a.func, ast.Name)
                            and a.func.id == "opnorm" for a in args)):
                lines.add(node.lineno)
    return sorted(lines)


def test_stack_maxima_go_through_opnorm_max():
    # one implementation of the largest operator norm in a stack: a call
    # opnorms(...).max(...) anywhere but in opnorm_max's own body fails, and
    # so does a loop that accumulates acc = max(acc, opnorm(...))
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cstarlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if path.name == "linalg.py" and getattr(top, "name", None) == "opnorm_max":
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "max" and isinstance(node.func.value, ast.Call)
                      and isinstance(node.func.value.func, ast.Name)
                      and node.func.value.func.id == "opnorms"]
        found += [f"{path.name}:{line}" for line in _loop_maxima(tree)]
    assert not found, ("take opnorm_max(stack) in place of opnorms(stack).max() "
                       f"or a loop of opnorm maxima at {found}")
