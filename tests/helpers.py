"""Constructions the tests share that the package itself does not need."""

import numpy as np

from cstarlab.linalg import dagger, opnorm_max


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
