"""Instance generators: determinism, closeness, and recipe semantics."""

import numpy as np
import pytest

from cstarlab.algebra import ConcreteAlgebra, FDAlgebra
from cstarlab.instances import (
    _NAMED,
    RECIPES,
    base_algebra,
    block_algebra,
    gen_instance,
    hat_decomposition,
    random_order_zero,
)
from cstarlab.linalg import opnorm
from cstarlab.serialize import dumps
from helpers import FILE_KINDS, file_kinds, verify_algebra, verify_order_zero


def test_recipes_enumerated():
    assert set(RECIPES) == {"conjugation", "choi-noise", "block-rotation"}


# summation order: bits equal to separate calls, whatever the BLAS thread count
@pytest.mark.summation_order
@pytest.mark.parametrize("sizes, N", [(s, N) for s in _NAMED.values() for N in (sum(s), 6)]
                         + [((12, 12), 24), ((8, 8, 8, 8), 32)])
def test_block_algebra_equals_the_gram_schmidt_basis(sizes, N):
    # the corner matrix units are HS-orthonormal, so Gram-Schmidt returns
    # them bit for bit: block_algebra takes them as they are
    got = block_algebra(sizes, N)
    want = ConcreteAlgebra.from_basis(list(FDAlgebra(sizes).corner_units(N)), N)
    assert got.basis.tobytes() == want.basis.tobytes()
    assert got.support.tobytes() == want.support.tobytes()


def test_base_algebra_named_profiles():
    assert base_algebra("M2", 4).dim == 4
    assert base_algebra("M2+M1", 4).dim == 5
    assert base_algebra("diag3", 4).dim == 3
    assert base_algebra("full3", 3).ambient_dim == 3
    assert base_algebra((2, 2), 4).dim == 8
    with pytest.raises(ValueError):
        base_algebra("M17", 4)


def test_unknown_recipe_rejected():
    with pytest.raises(ValueError):
        gen_instance("rotation13", {}, seed=0)


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_unknown_parameter_is_a_schema_error(recipe):
    # a misspelt key would otherwise build a default instance without a word
    from cstarlab.certs import SchemaError
    with pytest.raises(SchemaError, match="'dim', 'epsilon'"):
        gen_instance(recipe, {"algebra": "M2", "dim": 8, "epsilon": 1e-3}, seed=0)
    # every key the command line passes is accepted
    gen_instance(recipe, {"algebra": "M2", "ambient": 4, "eps": 1e-4, "block": 0}, seed=0)


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        gen_instance("conjugation", {"eps": -1.0}, seed=0)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_non_finite_eps_is_a_schema_error(recipe, eps, monkeypatch):
    # typed before any eigensolve, which would raise an untyped LinAlgError
    from cstarlab.certs import SchemaError

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran before eps was checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    with pytest.raises(SchemaError, match="eps"):
        gen_instance(recipe, {"algebra": "M2+M1", "eps": eps}, seed=0)


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_instance_regeneration_is_bit_identical(recipe):
    params = {"algebra": "M2+M1", "eps": 1e-4}
    i1 = gen_instance(recipe, dict(params), seed=11)
    i2 = gen_instance(recipe, dict(params), seed=11)
    assert dumps(i1) == dumps(i2)
    assert "instance" in file_kinds(i1) <= FILE_KINDS


def test_different_seed_differs():
    i1 = gen_instance("conjugation", {"eps": 1e-4}, seed=0)
    i2 = gen_instance("conjugation", {"eps": 1e-4}, seed=1)
    assert dumps(i1) != dumps(i2)


def test_conjugation_eps_zero_is_identity():
    inst = gen_instance("conjugation", {"algebra": "M2+M1", "eps": 0.0}, seed=4)
    assert opnorm(inst.true_unitary - np.eye(4)) < 1e-12
    for a, b in zip(inst.A.basis, inst.B.basis):
        assert opnorm(a - b) < 1e-12


def test_conjugation_distance_hint():
    eps = 1e-3
    inst = gen_instance("conjugation", {"algebra": "M2", "eps": eps}, seed=7)
    u = inst.true_unitary
    assert abs(opnorm(u - np.eye(4)) - 2.0 * np.sin(eps / 2.0)) < 1e-10
    hint = inst.dist_hint()
    assert type(hint) is float
    assert hint <= 2.0 * eps
    # every element of B is within the hint of A
    for b in inst.B.basis:
        bn = b / opnorm(b)
        assert inst.A.residual(bn) <= hint + 1e-12


def test_block_rotation_moves_only_one_block():
    inst = gen_instance(
        "block-rotation",
        {"algebra": "M2+M1", "eps": 1e-3, "block": 0}, seed=5)
    # the generator is compressed to the first block, so the second block's
    # unit is fixed by the rotation
    struct = inst.A.structure()
    fixed = struct.matrix_units[4]  # e_00 of block 1, after the 2 x 2 units of block 0
    u = inst.true_unitary
    assert opnorm(u @ fixed @ u.conj().T - fixed) < 1e-12
    assert inst.B.residual(fixed) < 1e-12


def test_block_rotation_index_validated():
    with pytest.raises(ValueError):
        gen_instance("block-rotation", {"algebra": "M2", "block": 3}, seed=0)


# the block profiles of the benchmark ladder, with their ambient sizes
LADDER = [("M2", 4), ("M2+M1", 4), ("diag3", 4), ("M2+M2", 6), ("3,3", 8), ("2,2,2", 8)]


def test_choi_noise_yields_algebra():
    # the repaired noisy embedding is a *-homomorphism, so its image B is a
    # *-algebra of A's dimension on every ladder profile, at small and at
    # larger noise
    for algebra, ambient in LADDER:
        for eps in (1e-6, 1e-2):
            inst = gen_instance("choi-noise", {"algebra": algebra, "ambient": ambient,
                                               "eps": eps}, seed=9)
            assert inst.true_unitary is None and inst.dist_hint() is None
            assert inst.B.dim == inst.A.dim, (algebra, eps)
            assert verify_algebra(inst.B).verdict == "pass", (algebra, eps)


def test_random_order_zero_embeds():
    with pytest.raises(ValueError):
        random_order_zero((3, 2), 4, seed=0)
    oz = random_order_zero((2, 1), 4, seed=8)
    assert verify_order_zero(oz)["ok"]


def test_hat_decomposition_grid_validated():
    with pytest.raises(ValueError):
        hat_decomposition(8)  # (8 - 1) not divisible by the node step 2
    A, dec, X = hat_decomposition(9)
    assert A.ambient_dim == 9
    assert len(dec.ups) == 2
    assert X


def test_block_algebra_overflow_rejected():
    with pytest.raises(ValueError):
        block_algebra((3, 2), 4)
