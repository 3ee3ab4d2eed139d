"""Built-in instances and the randomized instance generator.

Each builds the JobSpec a job file parses into: the algebra, group and
action, the module "M", and every task on it.
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


def fixture_trivial() -> JobSpec:
    a = make_algebra(1, np.ones((1, 1, 1)), [1.0])
    g = make_group([[0]])
    action = make_action(g, a, [np.eye(1)])
    m = make_module(a, [np.eye(1)])
    return _job("trivial", action, m)


def fixture_swap() -> JobSpec:
    a = direct_sum(matrix_algebra(2), matrix_algebra(2))
    g = cyclic_group(2)
    swap = np.zeros((8, 8))
    swap[:4, 4:] = np.eye(4)
    swap[4:, :4] = np.eye(4)
    action = make_action(g, a, [np.eye(8), swap])
    units = [np.zeros((2, 2)) for _ in range(8)]
    for p in range(2):
        for q in range(2):
            eb = np.zeros((2, 2))
            eb[p, q] = 1.0
            units[p * 2 + q] = eb          # first block acts naturally
    m = make_module(a, units)
    return _job("swap", action, m)


def fixture_pauli() -> JobSpec:
    a = matrix_algebra(2)
    table = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    g = make_group(table)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    units = [np.eye(2, dtype=np.complex128), x, z, x @ z]
    action = make_action(g, a, _conjugation_action_mats(2, units))
    rho = []
    for p in range(2):
        for q in range(2):
            eb = np.zeros((2, 2), dtype=np.complex128)
            eb[p, q] = 1.0
            rho.append(eb)
    m = make_module(a, rho)
    return _job("pauli", action, m)


def fixture_perm() -> JobSpec:
    c = np.zeros((3, 3, 3))
    for i in range(3):
        c[i, i, i] = 1.0
    a = make_algebra(3, c, np.ones(3))
    g, elems = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    mats = []
    for p in elems:
        pm = np.zeros((3, 3))
        for i in range(3):
            pm[p[i], i] = 1.0
        mats.append(pm)
    action = make_action(g, a, mats)
    m = make_module(a, [np.array([[1.0 if i == 0 else 0.0]]) for i in range(3)])
    return _job("perm", action, m)


def fixture_cyclic() -> JobSpec:
    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            c[i, j, (i + j) % 3] = 1.0
    unit = np.zeros(3)
    unit[0] = 1.0
    a = make_algebra(3, c, unit)
    g = cyclic_group(2)
    invmat = np.zeros((3, 3))
    for k in range(3):
        invmat[(-k) % 3, k] = 1.0
    action = make_action(g, a, [np.eye(3), invmat])
    omega = np.exp(2j * np.pi / 3)
    m = make_module(a, [np.array([[omega ** k]]) for k in range(3)])
    return _job("cyclic", action, m)


_BUILDERS = {
    "trivial": fixture_trivial,
    "swap": fixture_swap,
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
    """A sum of equal matrix blocks with a cyclic block-permuting, inner-twisted
    automorphism, plus the natural module of the first block.

    dim A <= 12 and |G| <= 8 always.  `seed` picks the instance; the seed of
    a run on it is its algebra's, the default one.
    """
    rng = np.random.default_rng([87251, seed])
    n = int(rng.choice([1, 1, 2, 2, 3]))
    max_b = {1: 8, 2: 3, 3: 1}[n]
    b = int(rng.integers(1, max_b + 1))
    a = matrix_algebra(n)
    for _ in range(b - 1):
        a = direct_sum(a, matrix_algebra(n))

    # Generator: rotate blocks by one, then conjugate blockwise by diagonal
    # root-of-unity matrices.  Its order divides b * q <= 8.
    q = int(rng.choice([d for d in (1, 2, 3, 4) if b * d <= 8]))
    dim = a.dim
    blockperm = np.zeros((dim, dim))
    nn = n * n
    for i in range(b):
        j = (i + 1) % b
        blockperm[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] = np.eye(nn)
    conj = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(b):
        phases = np.exp(2j * np.pi * rng.integers(0, q, size=n) / q)
        d = np.diag(phases)
        conj[i * nn:(i + 1) * nn, i * nn:(i + 1) * nn] = \
            _conjugation_action_mats(n, [d])[0]
    gen = conj @ blockperm

    # order of the generator as an automorphism
    power = np.eye(dim)
    mats = []
    for k in range(1, 9):
        power = gen @ power
        mats.append(power.copy())
        if np.allclose(power, np.eye(dim), atol=1e-12):
            order = k
            break
    else:
        raise AssertionError("generator order exceeded 8")
    gmats = [np.eye(dim)] + mats[:order - 1]
    g = cyclic_group(order)
    action = make_action(g, a, gmats)

    rho = []
    for i in range(b):
        for p in range(n):
            for q2 in range(n):
                eb = np.zeros((n, n), dtype=np.complex128)
                if i == 0:
                    eb[p, q2] = 1.0
                rho.append(eb)
    m = make_module(a, rho)
    return _job(f"random{seed}", action, m)
