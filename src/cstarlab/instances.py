"""Seeded generation of test instances: pairs of close subalgebras produced
by named recipes, random order-zero maps, and the built-in commutative
nuclear-dimension decompositions.

Every recipe is a pure function of (recipe, params, seed) through the
counter-based generator, so re-execution reproduces bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConcreteAlgebra, FDAlgebra, support_projection
from .averaging import improve_multiplicativity
from .certs import SchemaError, require_finite
from .cpmaps import LinMap, perturb_choi
from .linalg import dagger, expm_i, herm, opnorm, random_hermitian, random_unitary, rng_for
from .orderzero import NucDimDecomposition, OrderZeroMap
from .serialize import matrix_to_json, to_jsonable

__all__ = [
    "Instance",
    "block_algebra",
    "base_algebra",
    "gen_instance",
    "random_order_zero",
    "damping",
    "hat_decomposition",
]

RECIPES = ("conjugation", "choi-noise", "block-rotation")
PARAMS = ("algebra", "ambient", "eps", "block")

_NAMED = {
    "M2": (2,),
    "M3": (3,),
    "M2+M1": (2, 1),
    "M2+M2": (2, 2),
    "diag2": (1, 1),
    "diag3": (1, 1, 1),
    "diag4": (1, 1, 1, 1),
}


@dataclass
class Instance:
    """A generated pair of close subalgebras with its recipe provenance."""

    A: ConcreteAlgebra
    B: ConcreteAlgebra
    recipe: str
    params: dict
    true_unitary: np.ndarray | None
    seed: int

    def dist_hint(self) -> float | None:
        """Constructive distance bound d(A, B) <= min(2 ||u - I||, 2) when
        the instance was produced by conjugation with a known unitary."""
        if self.true_unitary is None:
            return None
        return float(min(2.0 * opnorm(self.true_unitary - np.eye(self.A.ambient_dim)), 2.0))

    def to_dict(self) -> dict:
        return {"kind": "instance", "schema_version": 1,
                "recipe": self.recipe, "seed": self.seed,
                "params": to_jsonable(self.params),
                "A": to_jsonable(self.A), "B": to_jsonable(self.B),
                "true_unitary": None if self.true_unitary is None
                else matrix_to_json(self.true_unitary)}


def block_algebra(sizes, ambient: int) -> ConcreteAlgebra:
    """Blocks of the given sizes placed consecutively on the diagonal of
    M_ambient; the basis is the corner matrix units, HS-orthonormal as they
    are."""
    units = FDAlgebra(tuple(int(n) for n in sizes)).corner_units(ambient)
    return ConcreteAlgebra(ambient_dim=ambient, basis=units,
                           support=support_projection(units, ambient))


def base_algebra(name, ambient: int) -> ConcreteAlgebra:
    """Resolve a named profile ("M2", "M2+M1", "diag3", ...) or a size tuple
    into a concrete block algebra."""
    if isinstance(name, ConcreteAlgebra):
        return name
    if isinstance(name, (tuple, list)):
        return block_algebra(name, ambient)
    if name in _NAMED:
        return block_algebra(_NAMED[name], ambient)
    if name.startswith("full"):
        n = int(name[4:])
        if ambient != n:
            return block_algebra((n,), ambient)
        return ConcreteAlgebra.full(n)
    parts = name.split(",")
    if all(p.strip().isdigit() and int(p) > 0 for p in parts):
        return block_algebra(tuple(int(p) for p in parts), ambient)
    raise ValueError(f"unknown algebra profile {name!r}")


def gen_instance(recipe: str, params: dict, seed: int) -> Instance:
    """Generate a pair of close algebras.

    conjugation: B = e^{i eps h} A e^{-i eps h}, h a random ambient
    self-adjoint with ||h|| = 1.  choi-noise: perturb the block embedding's
    Choi blocks by Hermitian HS noise of size eps, clip back to psd, scale
    the map by 1 / (||phi(1)|| (1 + 1e-12)) into a cpc map, repair it
    (``improve_multiplicativity``), and take B as the span of the repaired
    images, so dim B = dim A.  block-rotation: conjugation with a
    generator supported on one structural block of A, so the other blocks do
    not move.  The params keys are PARAMS; any other key is a SchemaError.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; choose one of {RECIPES}")
    params = dict(params)
    unknown = [key for key in params if key not in PARAMS]
    if unknown:
        raise SchemaError(f"unknown instance parameter {', '.join(map(repr, unknown))}; "
                          f"the parameters are {', '.join(PARAMS)}")
    ambient = int(params.get("ambient", 4))
    eps = float(params.get("eps", 1e-4))
    require_finite(eps, "eps")  # before any eigensolve turns it into a LinAlgError
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    A = base_algebra(params.get("algebra", "M2"), ambient)
    N = A.ambient_dim
    rng = rng_for(seed, "instance", recipe)

    if recipe in ("conjugation", "block-rotation"):
        if recipe == "conjugation":
            h = random_hermitian(rng, N)
        else:
            struct = A.structure()
            k = int(params.get("block", 0))
            if not 0 <= k < len(struct.summands):
                raise ValueError(f"block index {k} out of range")
            z = struct.central_projections[k]
            h = herm(z @ random_hermitian(rng, N) @ z)
        h = h / max(opnorm(h), 1e-300)
        u = expm_i(eps * h)
        return Instance(A=A, B=A.conjugated(u), recipe=recipe, params=params,
                        true_unitary=u, seed=seed)

    # choi-noise: the noisy map, scaled to a contraction, repairs to a
    # *-homomorphism whose image is B
    struct = A.structure()
    noisy = perturb_choi(LinMap(struct.fd_model(), struct.matrix_units), eps, rng)
    noisy = noisy.scaled(1.0 / (opnorm(noisy.value_on_unit()) * (1.0 + 1e-12)))
    B = ConcreteAlgebra.from_basis(improve_multiplicativity(noisy).psi.images, N)
    return Instance(A=A, B=B, recipe=recipe, params=params,
                    true_unitary=None, seed=seed)


def _rotated_embedding(fd: FDAlgebra, N: int, rng) -> LinMap:
    """The block embedding of fd into the corner of M_N conjugated by a
    unitary v drawn from rng: the exact *-homomorphism x -> v x v*."""
    v = random_unitary(rng, N)
    return LinMap(fd, v @ fd.corner_units(N) @ dagger(v))


def random_order_zero(sizes, N: int, seed: int) -> OrderZeroMap:
    """Random order-zero map from the block algebra of the given sizes into
    M_N: a conjugated block embedding pi damped by ``damping(pi, rng)``."""
    fd = FDAlgebra(tuple(int(n) for n in sizes))
    rng = rng_for(seed, "order-zero", fd.d, N)
    pi = _rotated_embedding(fd, N, rng)
    carrier = ConcreteAlgebra.from_basis(list(pi.images), N)
    return OrderZeroMap.from_pair(pi, herm(damping(pi, rng)), codomain_algebra=carrier)


def damping(pi: LinMap, rng) -> np.ndarray:
    """h = sum_k c_k pi(1_k) for a homomorphism pi on a block algebra, each
    c_k uniform in [0.4, 1) drawn from rng in block order: a positive
    contraction in the commutant of pi."""
    fd = pi.domain
    return sum(float(rng.uniform(0.4, 1.0)) * pi(fd.block_unit(k))
               for k in range(len(fd.block_sizes)))


# the grid spacing of hat_decomposition's nodes
_HAT_STEP = 2


def hat_decomposition(n_grid: int):
    """Two-color decomposition of the diagonal algebra on a grid through
    piecewise-linear hat functions at every _HAT_STEP-th grid point.

    Same-color hats have disjoint grid supports, so both upward maps are
    exactly order zero, while the composite reproduces only the nodal
    interpolant: the defect is a genuine interpolation error.  Returns
    (A, decomposition, X) with X the smooth test functions used to measure
    the defect.
    """
    if n_grid < 3 or (n_grid - 1) % _HAT_STEP:
        raise ValueError(f"need a grid with (n_grid - 1) divisible by {_HAT_STEP}")
    A = ConcreteAlgebra.diagonal(n_grid)
    nodes = list(range(0, n_grid, _HAT_STEP))
    grid = np.arange(n_grid) / (n_grid - 1)

    def hat(center: int) -> np.ndarray:
        vals = np.maximum(0.0, 1.0 - np.abs(np.arange(n_grid) - center) / _HAT_STEP)
        return np.diag(vals.astype(complex))

    units = A.structure().matrix_units  # a color's down sends each unit to its values at its nodes
    downs, ups = [], []
    for color in (nodes[0::2], nodes[1::2]):
        sub = FDAlgebra((1,) * len(color))
        downs.append(LinMap(A, sub.from_coeffs(units[:, color, color])))
        ups.append(LinMap(sub, tuple(hat(c) for c in color), codomain_algebra=A))
    X = [np.diag(grid.astype(complex)),
         np.diag((grid ** 2).astype(complex)),
         np.diag((grid * (1.0 - grid)).astype(complex))]
    return A, NucDimDecomposition.measured(downs, ups, X), X
