"""Constructions the tests share that the package itself does not need."""

import numpy as np


def matrix_unit(fd, k: int, i: int, j: int) -> np.ndarray:
    """The matrix unit e_ij of block k of the block algebra fd, built entry
    by entry as a d x d matrix."""
    m = np.zeros((fd.d, fd.d), dtype=complex)
    o = fd.offsets[k]
    m[o + i, o + j] = 1.0
    return m
