"""Constructions the tests share that the package itself does not need."""

import numpy as np

from cstarlab.linalg import dagger


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
