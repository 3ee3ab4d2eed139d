"""Dense structure tensors for tests that use them as an oracle, a
Schur-Weyl action above the exhaustive dimension, and a tracemalloc probe
for tests that bound memory."""

import itertools
import tracemalloc

import numpy as np

from skewgroup.algebra import Algebra, matrix_algebra
from skewgroup.group_action import group_from_permutations


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


def schur_weyl(d, k):
    """(S_k, M_{d^k}, mats): S_k permutes the k tensor factors of
    (C^d)^(x)k and acts on M_{d^k} by conjugation, as a permutation of the
    matrix units."""
    n = d ** k
    group, perms = group_from_permutations(
        [tuple(range(1, k)) + (0,), (1, 0) + tuple(range(2, k))])
    digits = np.array(list(itertools.product(range(d), repeat=k)))
    mats = []
    for p in perms:
        moved = np.empty_like(digits)
        moved[:, list(p)] = digits           # factor t moves to place p[t]
        to = moved @ d ** np.arange(k - 1, -1, -1)
        m = np.zeros((n * n, n * n), dtype=np.complex128)
        m[(to[:, None] * n + to).ravel(), np.arange(n * n)] = 1.0
        mats.append(m)
    return group, matrix_algebra(n), mats


def peak_bytes(fn):
    """tracemalloc peak of fn() above what was allocated before, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def record_products(monkeypatch):
    """The (x, y) of every Algebra.product call made from now on, in order."""
    seen = []
    product = Algebra.product

    def recording(self, x, y):
        seen.append((np.array(x), np.array(y)))
        return product(self, x, y)

    monkeypatch.setattr(Algebra, "product", recording)
    return seen


def probes_one_draw_at_a_time(rng, count, per_probe, dim):
    """Random probe vectors as a loop draws them one part at a time: for each
    of `count` probes, `per_probe` vectors, each its real part and then its
    imaginary part."""
    return [[rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
             for _ in range(per_probe)] for _ in range(count)]


def same_bits(a, b):
    """Two arrays of one dtype and shape hold the same bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def saw_triples(seen, triples):
    """Whether the recorded product calls are those of associator probes,
    four per triple (x, y, z): (x y) z and then x (y z), so x y is the
    first call of each four and y z the third."""
    return len(seen) >= 4 * len(triples) and all(
        same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for t, (x, y, z) in enumerate(triples)
        for got, want in zip(seen[4 * t:4 * t + 4:2], [(x, y), (y, z)]))
