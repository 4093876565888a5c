"""Order-zero maps, their perturbations, and decomposition transfer."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cstarlab.algebra import FDAlgebra
from cstarlab.certs import ContradictionError, SpectralGapError
from cstarlab.cpmaps import LinMap, classify
from cstarlab.instances import block_algebra, hat_decomposition, random_order_zero
from cstarlab import orderzero
from cstarlab.geometry import tensor_lift
from cstarlab.linalg import dagger, herm, opnorm, psd_sqrt, rng_for
from helpers import matrix_unit, verify_order_zero
from cstarlab.orderzero import (
    OrderZeroMap,
    identity_decomposition,
    is_order_zero,
    near_embed_nucdim,
    nucdim_cpc_transfer,
    order_zero_projection,
    perturb_order_zero,
    split_decomposition,
    structure_decompose,
    verify_nucdim_decomposition,
)


def small_rotation(N: int, eps: float, seed: int) -> np.ndarray:
    rng = rng_for(seed, "test-oz-rotation")
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = g + dagger(g)
    return expm(1j * eps * h / opnorm(h))


# ---------------------------------------------------------------------------
# structure of order-zero maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(2,), (1, 1), (2, 1)])
def test_random_order_zero_verifies(sizes):
    oz = random_order_zero(sizes, 4, seed=3)
    report = verify_order_zero(oz)
    assert report["ok"]
    assert report["orthogonality_residual"] < 1e-10


def test_from_pair_rejects_noncommuting_h():
    oz = random_order_zero((2,), 3, seed=1)
    rng = rng_for(1, "bad-h")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h_bad = oz.h + 0.3 * (g + dagger(g)) / opnorm(g + dagger(g))
    with pytest.raises(ValueError):
        OrderZeroMap.from_pair(oz.pi, h_bad)


def test_structure_decompose_round_trip():
    oz = random_order_zero((2, 1), 5, seed=6)
    pi, h = structure_decompose(oz.map)
    fd = oz.fd
    rng = rng_for(6, "oz-decomp")
    for x in fd.random_elements(rng, 4):
        assert opnorm(pi(x) @ h - oz(x)) < 1e-9
        assert opnorm(h @ pi(x) - pi(x) @ h) < 1e-9


def test_is_order_zero_rejects_generic_cp_map():
    # sum of two incompatible compressions is cp but not order zero
    fd = FDAlgebra((2,))
    rng = rng_for(8, "not-oz")
    v1 = np.linalg.qr(rng.standard_normal((4, 4))
                      + 1j * rng.standard_normal((4, 4)))[0][:, :2]
    v2 = np.linalg.qr(rng.standard_normal((4, 4))
                      + 1j * rng.standard_normal((4, 4)))[0][:, :2]
    images = tuple(0.5 * (v1 @ matrix_unit(fd, k, i, j) @ dagger(v1)
                          + v2 @ matrix_unit(fd, k, i, j) @ dagger(v2))
                   for (k, i, j) in fd.unit_labels())
    phi = LinMap(fd, 4, images)
    assert classify(phi).cpc
    ok, _ = is_order_zero(phi)
    assert not ok


# ---------------------------------------------------------------------------
# perturbation into a near algebra
# ---------------------------------------------------------------------------

def test_perturb_order_zero_exact_inclusion():
    oz = random_order_zero((2, 1), 4, seed=2)
    carrier = oz.map.codomain_algebra
    psi, cert = perturb_order_zero(oz, carrier, 0.0)
    assert cert.verdict == "pass"
    fd = oz.fd
    rng = rng_for(2, "oz-exact")
    for x in fd.random_elements(rng, 4):
        assert opnorm(psi(x) - oz(x)) < 1e-10


def test_perturb_order_zero_small_rotation():
    oz = random_order_zero((2,), 4, seed=9)
    carrier = oz.map.codomain_algebra
    u = small_rotation(4, 1e-4, 9)
    B = carrier.conjugated(u)
    gamma = 2.0 * opnorm(u - np.eye(4))
    psi, cert = perturb_order_zero(oz, B, gamma)
    assert cert.verdict == "pass"
    assert classify(psi).cp
    for x in oz.map.images:
        assert B.residual(x) < 2.0 * gamma  # sanity on the instance itself


def test_perturb_order_zero_contradiction_on_understated_gamma():
    oz = random_order_zero((2,), 4, seed=10)
    carrier = oz.map.codomain_algebra
    u = small_rotation(4, 0.3, 10)
    B = carrier.conjugated(u)
    with pytest.raises(ContradictionError):
        perturb_order_zero(oz, B, 1e-9)


# ---------------------------------------------------------------------------
# decompositions of the identity
# ---------------------------------------------------------------------------

def test_identity_decomposition_exact():
    A = block_algebra((2, 1), 4)
    dec = identity_decomposition(A)
    assert dec.n == 0
    assert dec.defect < 1e-12
    cert = verify_nucdim_decomposition(A, list(A.basis), 1e-10, dec)
    assert cert.verdict == "pass"
    assert cert.details["failed_invariant"] is None


def test_split_decomposition_two_colors():
    A = block_algebra((2, 1, 1), 4)
    dec = split_decomposition(A)
    assert dec.n == 1
    assert dec.defect < 1e-12
    cert = verify_nucdim_decomposition(A, list(A.basis), 1e-10, dec)
    assert cert.verdict == "pass"


def test_split_decomposition_needs_enough_blocks():
    A = block_algebra((2,), 3)
    with pytest.raises(ValueError):
        split_decomposition(A)


def test_verify_decomposition_names_broken_invariant():
    A = block_algebra((2, 2), 4)
    dec = split_decomposition(A)
    up = dec.ups[1]
    # overwrite one upward map with a non-order-zero one (all images equal)
    flat = up.map.images[0]
    broken_map = LinMap(up.fd, up.map.codomain_dim,
                        tuple(flat for _ in up.map.images))
    dec.ups = (dec.ups[0],
               OrderZeroMap(map=broken_map, pi=up.pi, h=up.h))
    cert = verify_nucdim_decomposition(A, list(A.basis), 1e-10, dec)
    assert cert.verdict == "fail"
    assert "up-1-not-order-zero" in cert.details["failures"]


def test_hat_decomposition_interpolation_defect():
    A, dec, X = hat_decomposition(9)
    assert dec.n == 1
    assert 0.0 < dec.defect < 0.1
    cert = verify_nucdim_decomposition(A, X, dec.defect + 1e-12, dec)
    assert cert.verdict == "pass"


# ---------------------------------------------------------------------------
# transfer of decompositions across a near inclusion
# ---------------------------------------------------------------------------

def test_nucdim_transfer_exact_identity():
    A = block_algebra((2, 1, 1), 4)
    dec = split_decomposition(A)
    X = [b / max(opnorm(b), 1e-300) for b in A.basis]
    phi, cert = nucdim_cpc_transfer(A, dec, X, A, 0.0)
    assert cert.verdict == "pass"
    assert cert.details["cpc"]
    assert cert.achieved < 1e-9


def test_nucdim_transfer_rotated_target():
    A, dec, X = hat_decomposition(9)
    u = small_rotation(9, 1e-5, 3)
    B = A.conjugated(u)
    gamma = 2.0 * opnorm(u - np.eye(9))
    phi, cert = nucdim_cpc_transfer(A, dec, X, B, gamma)
    assert cert.verdict == "pass"
    for x in X:
        assert opnorm(phi(x) - x) <= cert.ceiling + 1e-9


def test_near_embed_nucdim_one_color():
    A0 = block_algebra((2, 1), 3)
    u = small_rotation(3, 1e-6, 12)
    A = A0.conjugated(u)
    dec = identity_decomposition(A)
    gamma = 2.0 * opnorm(u - np.eye(3))
    theta, cert = near_embed_nucdim(A, A0, gamma, dec)
    assert cert.verdict == "pass"
    assert cert.details["transfer_ok"]
    for b in A.basis:
        xn = b / opnorm(b)
        assert A0.residual(theta(xn)) < 1e-8


# ---------------------------------------------------------------------------
# heuristic projection back to an order-zero map
# ---------------------------------------------------------------------------

def test_order_zero_projection_recovers_noisy_map():
    oz = random_order_zero((2,), 4, seed=14)
    rng = rng_for(14, "oz-noise")
    noisy = []
    for img in oz.map.images:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noisy.append(img + 1e-9 * g / opnorm(g))
    psi = LinMap(oz.fd, 4, tuple(noisy))
    fit, cert = order_zero_projection(psi, gamma=1e-8)
    assert cert.verdict == "heuristic"
    assert verify_order_zero(fit)["ok"]
    worst = max(opnorm(fit.map.images[i] - oz.map.images[i])
                for i in range(len(noisy)))
    assert worst < 1e-6


@pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (1, 1), (2, 2), (3, 1), (2, 1, 1)])
def test_order_zero_projection_fits_noisy_maps(sizes, seed, eps):
    # complex Gaussian noise of operator norm eps on each image of a random
    # order-zero map into M_{d+1}; multi-block domains included.  At eps =
    # 1e-7 the noise puts eigenvalues up to 7e-8 on h0's kernel, above a
    # relative cut of 1e-8: the fit cuts at the gap above the noise instead
    N = sum(sizes) + 1
    oz = random_order_zero(sizes, N, seed=seed)
    rng = rng_for(seed, "oz-noise")
    g = (rng.standard_normal(oz.map.images.shape)
         + 1j * rng.standard_normal(oz.map.images.shape))
    g /= np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
    psi = LinMap(oz.fd, N, oz.map.images + eps * g)
    fit, cert = order_zero_projection(psi, gamma=1e-8)
    assert verify_order_zero(fit)["ok"]
    assert np.linalg.norm(fit.map.images - oz.map.images, 2, axis=(1, 2)).max() < 10 * eps


def test_order_zero_projection_needs_a_gap_above_the_noise():
    # psi(1) = diag(1, 1e-2, 1e-4, 1e-6) plus an anti-Hermitian part of norm
    # 1e-7, the noise level: its spectrum runs down into the noise, and no
    # ratio of consecutive eigenvalues reaches the 1e3 gap the fit asks
    image = np.diag([1.0, 1e-2, 1e-4, 1e-6]).astype(complex)
    image[0, 1], image[1, 0] = 1e-7, -1e-7
    with pytest.raises(SpectralGapError):
        order_zero_projection(LinMap(FDAlgebra((1,)), 4, image[None]))


# ---------------------------------------------------------------------------
# closed forms against the Kronecker constructions they replace
# ---------------------------------------------------------------------------

def test_perturb_order_zero_matches_the_kronecker_construction(monkeypatch):
    # (2, 1) in M_4: m = 2 > n_1 = 1 pads the second block.  Reference: the
    # row contraction as sums of Kronecker products, and psi(e_ij) as the
    # f_11 corner of w theta(e_ij) w*, theta(e_ij^(k)) = 1_N (x) f_ij in slot k
    oz = random_order_zero((2, 1), 4, seed=2)
    u = small_rotation(4, 1e-4, 2)
    B = oz.map.codomain_algebra.conjugated(u)
    seen = {}

    def spy(X, *args, **kwargs):
        witnesses, cert = tensor_lift(X, *args, **kwargs)
        seen["t"], seen["w"] = X[0], witnesses[0]
        return witnesses, cert

    monkeypatch.setattr(orderzero, "tensor_lift", spy)
    psi, cert = perturb_order_zero(oz, B, 2.0 * opnorm(u - np.eye(4)))
    fd, N, m, slots = oz.fd, 4, 2, 2

    def f(i, j):
        e = np.zeros((m, m))
        e[i, j] = 1.0
        return e

    entries = []
    for k, n in enumerate(fd.block_sizes):
        s_k = sum(np.kron(oz.pi(matrix_unit(fd, k, i, j)), f(j, i))
                  for i in range(n) for j in range(n))
        h_k = herm(oz.map(fd.block_unit(k)))
        entries.append(np.kron(psd_sqrt(h_k), np.eye(m)) @ s_k)
    assert np.array_equal(seen["t"], np.hstack(entries))

    w = seen["w"]
    for p, (k, i, j) in enumerate(fd.unit_labels()):
        theta = np.zeros((slots * N * m, slots * N * m))
        theta[k * N * m:(k + 1) * N * m, k * N * m:(k + 1) * N * m] = np.kron(np.eye(N), f(i, j))
        ref = (w @ theta @ dagger(w))[::m, ::m]
        assert opnorm(psi.images[p] - ref) <= 1e-15 * opnorm(w) ** 2


def test_no_label_loops_or_nested_kronecker_loops():
    # the order-zero and cp-map constructions read the image stack by
    # reshapes: no loop over unit_labels(), and no np.kron inside a for loop
    # nested in another
    found = []
    for name in ("orderzero.py", "cpmaps.py"):
        path = Path(orderzero.__file__).with_name(name)
        tree = ast.parse(path.read_text(), filename=str(path))
        loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
        found += [f"{name}:{getattr(loop, 'lineno', loop.iter.lineno)}" for loop in loops
                  if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                         and c.func.attr == "unit_labels" for c in ast.walk(loop.iter))]
        for outer in (n for n in ast.walk(tree) if isinstance(n, ast.For)):
            for inner in (n for n in ast.walk(outer) if isinstance(n, ast.For) and n is not outer):
                found += [f"{name}:{c.lineno}" for c in ast.walk(inner)
                          if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                          and c.func.attr == "kron"]
    assert not found, f"label loops or nested Kronecker loops at {sorted(set(found))}"
