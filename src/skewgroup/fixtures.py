"""Built-in instances and the randomized instance generator.

Each builds the JobSpec a job file parses into: the algebra, group and
action, the module "M", and every task on it.  The instances fall into
three families:

- block rotation (n, b, q, exps): b copies of M_n under the generator that
  rotates the blocks by one and conjugates block i by the diagonal matrix of
  the roots of unity exp(2 pi i exps[i] / q), acted on by the cyclic group
  of that generator's order, with the natural module of block 0.  `trivial`
  is (1, 1, 1), `swap` is (2, 2, 1) and `random_instance` draws the rest;
- `pauli`: M_2 under conjugation by I, X, Z and XZ, with its natural module;
- permutation actions: `perm` is C^3 with S_3 permuting the coordinates,
  and `cyclic` is the group algebra C[Z_3] with Z_2 inverting the group
  elements, each with a one-dimensional module.
"""

from __future__ import annotations

import numpy as np

from .algebra import direct_sum, make_algebra, matrix_algebra
from .errors import UnknownFixture
from .group_action import (
    cyclic_group,
    group_from_permutations,
    make_action,
    make_group,
)
from .jobs import ALL_TASKS, JobSpec
from .repmod import make_module


def _job(name, action, m) -> JobSpec:
    """The job of every task on the module m, named "M"."""
    return JobSpec(algebra=action.target, group=action.group, action=action,
                   modules={"M": m},
                   tasks=[{"task": t, "module": "M"} for t in ALL_TASKS],
                   name=name)


def _conjugation_action_mats(n: int, units: list) -> list:
    """Coordinate matrices of a -> U a U^{-1} on the matrix-unit basis of M_n."""
    mats = []
    for u in units:
        uinv = np.linalg.inv(u)
        cols = []
        for p in range(n):
            for q in range(n):
                eb = np.zeros((n, n), dtype=np.complex128)
                eb[p, q] = 1.0
                cols.append((u @ eb @ uinv).reshape(-1))
        mats.append(np.column_stack(cols))
    return mats


def _natural_module(n: int, b: int) -> np.ndarray:
    """The images of the natural module of block 0 of b copies of M_n: the
    matrix units of that block, row-major, and zero on the other blocks."""
    rho = np.zeros((b * n * n, n, n), dtype=np.complex128)
    rho[:n * n] = np.eye(n * n).reshape(-1, n, n)
    return rho


def _block_rotation(name, n: int, b: int, q: int, exps) -> JobSpec:
    """The block-rotation instance (n, b, q, exps) of the module docstring;
    the generator's order divides b * q, which must be at most 8."""
    a = matrix_algebra(n)
    for _ in range(b - 1):
        a = direct_sum(a, matrix_algebra(n))
    nn = n * n
    blockperm = np.kron(np.roll(np.eye(b), 1, axis=0), np.eye(nn))
    conj = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for i in range(b):
        d = np.diag(np.exp(2j * np.pi * np.asarray(exps[i]) / q))
        conj[i * nn:(i + 1) * nn, i * nn:(i + 1) * nn] = \
            _conjugation_action_mats(n, [d])[0]
    gen = conj @ blockperm
    # the powers of the generator below its order
    gmats = [np.eye(a.dim)]
    for _ in range(8):
        power = gen @ gmats[-1]
        if np.allclose(power, np.eye(a.dim), atol=1e-12):
            break
        gmats.append(power)
    else:
        raise AssertionError("generator order exceeded 8")
    action = make_action(cyclic_group(len(gmats)), a, gmats)
    return _job(name, action, make_module(a, _natural_module(n, b)))


def _permuting(name, c, unit, perms, rho) -> JobSpec:
    """The algebra of dense structure constants c and unit, acted on by the
    group the permutations perms generate: p sends basis vector i to p[i]."""
    d = len(unit)
    a = make_algebra(d, c, unit)
    g, elems = group_from_permutations(perms)
    action = make_action(g, a, [np.eye(d)[:, list(p)] for p in elems])
    return _job(name, action, make_module(a, rho))


def fixture_pauli() -> JobSpec:
    a = matrix_algebra(2)
    table = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    g = make_group(table)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    units = [np.eye(2, dtype=np.complex128), x, z, x @ z]
    action = make_action(g, a, _conjugation_action_mats(2, units))
    return _job("pauli", action, make_module(a, _natural_module(2, 1)))


def fixture_perm() -> JobSpec:
    """C^3, three orthogonal idempotents, under S_3."""
    c = np.zeros((3, 3, 3))
    for i in range(3):
        c[i, i, i] = 1.0
    return _permuting("perm", c, np.ones(3), [(1, 0, 2), (0, 2, 1)],
                      [[[1.0]], [[0.0]], [[0.0]]])


def fixture_cyclic() -> JobSpec:
    """C[Z_3] under inversion k -> -k, with the character k -> omega^k."""
    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            c[i, j, (i + j) % 3] = 1.0
    omega = np.exp(2j * np.pi / 3)
    return _permuting("cyclic", c, np.eye(3)[0], [(0, 2, 1)],
                      [np.array([[omega ** k]]) for k in range(3)])


_BUILDERS = {
    "trivial": lambda: _block_rotation("trivial", 1, 1, 1, [[0]]),
    "swap": lambda: _block_rotation("swap", 2, 2, 1, [[0, 0], [0, 0]]),
    "pauli": fixture_pauli,
    "perm": fixture_perm,
    "cyclic": fixture_cyclic,
}
FIXTURE_NAMES = tuple(_BUILDERS)


def fixture(name: str) -> JobSpec:
    if name not in _BUILDERS:
        raise UnknownFixture(f"unknown fixture {name!r}; "
                             f"choose from {', '.join(FIXTURE_NAMES)}")
    return _BUILDERS[name]()


def random_instance(seed: int) -> JobSpec:
    """A block-rotation instance (see the module docstring) with dim A <= 12
    and |G| <= 8 always.  `seed` picks the instance; the seed of a run on it
    is its algebra's, the default one.
    """
    rng = np.random.default_rng([87251, seed])
    n = int(rng.choice([1, 1, 2, 2, 3]))
    b = int(rng.integers(1, {1: 8, 2: 3, 3: 1}[n] + 1))
    q = int(rng.choice([d for d in (1, 2, 3, 4) if b * d <= 8]))
    exps = [rng.integers(0, q, size=n) for _ in range(b)]
    return _block_rotation(f"random{seed}", n, b, q, exps)
