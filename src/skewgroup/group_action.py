"""Finite groups as multiplication tables, acting on algebras by automorphisms.

Group elements are referred to by index throughout; names are optional
metadata only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numeric
from .algebra import Algebra
from .errors import (
    InvalidInput,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    table: np.ndarray         # (order, order) int indices, table[i, j] = i*j
    identity: int
    inverses: tuple

    @cached_property
    def trivial_cocycle(self):
        """The cocycle alpha = 1 of this group, made on first use and kept,
        so the plain group algebra that it keeps is built once per group."""
        from .projective import Cocycle     # projective builds on this module
        return Cocycle(group=self, table=np.ones((self.order, self.order),
                                                 dtype=np.complex128))

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def elements(self) -> range:
        return range(self.order)


@dataclass(frozen=True, eq=False)
class AlgebraAction:
    group: FiniteGroup
    target: Algebra
    mats: tuple               # one (dim, dim) matrix per group element


def make_group(table) -> FiniteGroup:
    """Validate a multiplication table and compute identity/inverses."""
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidInput("multiplication table must be square")
    n = t.shape[0]
    if n < 1 or t.min() < 0 or t.max() >= n:
        raise InvalidInput("table entries must be indices in [0, order)")
    identity = None
    for e in range(n):
        if all(t[e, j] == j and t[j, e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i, j], k] != t[i, t[j, k]]:
                    raise NotAssociative(f"associativity fails at triple ({i},{j},{k})")
    inverses = []
    for i in range(n):
        inv = [j for j in range(n) if t[i, j] == identity and t[j, i] == identity]
        if not inv:
            raise NoInverse(f"element {i} has no inverse")
        inverses.append(inv[0])
    return FiniteGroup(order=n, table=t, identity=identity, inverses=tuple(inverses))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidInput("cyclic group order must be >= 1")
    idx = np.arange(n)
    return make_group((idx[:, None] + idx[None, :]) % n)


def group_from_permutations(perms) -> tuple:
    """Close a set of permutations (tuples) into a group.

    Returns (FiniteGroup, element list); index order is identity first, then
    BFS discovery order over products, which is deterministic.
    """
    n = len(perms[0])
    ident = tuple(range(n))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[t]] for t in range(n))]
    return make_group(table), elems


def make_action(group: FiniteGroup, target: Algebra, mats) -> AlgebraAction:
    """Validate automorphism matrices, one per group element."""
    tol = target.tol
    if len(mats) != group.order:
        raise InvalidInput("need exactly one matrix per group element")
    ms = tuple(numeric.as_complex(m) for m in mats)
    d = target.dim
    for g, m in enumerate(ms):
        if m.shape != (d, d):
            raise InvalidInput(f"action matrix {g} has wrong shape")
    eye = np.eye(d)
    if numeric.rel_residual(ms[group.identity] - eye, 1.0) > tol:
        raise NotHomomorphism("identity element does not act as identity")
    # mats[g] @ mats[h] against mats[g*h] for a whole row g at once; the first
    # failing h of the first failing row is reported
    stack = np.array(ms)
    for g in group.elements():
        prods = ms[g] @ stack
        norms = np.linalg.norm(prods - stack[group.table[g]], axis=(1, 2))
        res = norms / np.maximum(np.linalg.norm(prods, axis=(1, 2)), 1.0)
        bad = (res > tol).nonzero()[0]
        if bad.size:
            h = int(bad[0])
            raise NotHomomorphism(f"mats[{g}]@mats[{h}] != mats[{g}*{h}]: "
                                  f"residual {res[h]:.3e}")
    scale = target.scale
    i, j, k, v = target.nonzeros
    for g in group.elements():
        m = ms[g]
        # g(b_i b_j) = g(b_i) g(b_j) for all basis pairs, scattered from the
        # nonzeros: lhs[i, j] = m c[i, j], rhs[i, j] = sum_ab m[a, i] m[b, j]
        # c[a, b], the latter through w[a, l] = sum_b c[a, b, l] m[b]
        lhs = numeric.scatter(i * d + j, v[:, None] * m[:, k].T,
                              d * d).reshape(d, d, d)
        w = numeric.scatter(i * d + k, v[:, None] * m[j], d * d)
        rhs = (m.T @ w.reshape(d, d * d)).reshape(d, d, d).transpose(0, 2, 1)
        res = numeric.rel_residual(lhs - rhs, scale * max(np.linalg.norm(m) ** 2, 1.0))
        if res > tol:
            pair = tuple(int(t) for t in np.unravel_index(
                int(np.abs(lhs - rhs).sum(axis=2).argmax()), (d, d)))
            raise NotAutomorphism(f"element {g} is not multiplicative at basis "
                                  f"pair {pair}: residual {res:.3e}")
        if numeric.rel_residual(m @ target.unit - target.unit, 1.0) > tol:
            raise NotAutomorphism(f"element {g} does not fix the unit")
    return AlgebraAction(group=group, target=target, mats=ms)


def subgroup_closure_check(group: FiniteGroup, members) -> tuple:
    """Sorted member tuple, after checking closure under products and inverses."""
    h = sorted(set(int(x) for x in members))
    if not h or any(x < 0 or x >= group.order for x in h):
        raise NotASubgroup("subgroup members out of range or empty")
    hs = set(h)
    if group.identity not in hs:
        raise NotASubgroup("subgroup misses the identity")
    for a in h:
        if group.inv(a) not in hs:
            raise NotASubgroup(f"subgroup not closed under inverse of {a}")
        for b in h:
            if group.mul(a, b) not in hs:
                raise NotASubgroup(f"subgroup not closed under product {a}*{b}")
    return tuple(h)


def left_cosets(group: FiniteGroup, members) -> list:
    """Representatives of the left cosets gH, one per coset.

    H's own coset is represented by the identity and listed first; every other
    coset gets its minimal-index element, and those follow in ascending order.
    """
    h = subgroup_closure_check(group, members)
    seen = set()
    reps = []
    for g in range(group.order):
        if g in seen:
            continue
        coset = {group.mul(g, x) for x in h}
        if len(coset) != len(h):
            raise NotASubgroup("coset size mismatch")
        seen |= coset
        reps.append(group.identity if group.identity in coset else min(coset))
    rest = sorted(r for r in reps if r != group.identity)
    return [group.identity] + rest
