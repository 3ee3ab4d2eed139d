"""Dense structure tensors for tests that use them as an oracle, and a
tracemalloc probe for tests that bound memory."""

import tracemalloc

import numpy as np

from skewgroup.algebra import Algebra


def dense(a):
    """The (dim, dim, dim) structure constants of an algebra."""
    c = np.zeros((a.dim,) * 3, dtype=np.complex128)
    i, j, k, v = a.nonzeros
    c[i, j, k] = v
    return c


def unvalidated_algebra(dim, c, unit):
    """An Algebra over a dense tensor, built without any check."""
    c = np.asarray(c, dtype=np.complex128)
    i, j, k = np.nonzero(c)
    return Algebra(dim=dim, nonzeros=(i, j, k, c[i, j, k]),
                   unit=np.asarray(unit, dtype=np.complex128))


def peak_bytes(fn):
    """tracemalloc peak of fn() above what was allocated before, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
