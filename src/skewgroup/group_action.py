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


# Group elements are validated in blocks of about this many matrix entries
# per temporary, so a small action is checked in one step and a large one
# holds no temporary much larger than one element's.
_BLOCK_ENTRIES = 2048


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
    t = _index_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    # e is the identity when row e and column e both read 0, 1, ..., n - 1
    two_sided = (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NoIdentity("no two-sided identity element")
    identity = int(two_sided.argmax())
    # (ij)k against i(jk) for every (j, k), one first index i at a time; the
    # first failing triple in (i, j, k) order is reported
    for i in range(n):
        bad = t[t[i]] != t[i, t]
        if bad.any():
            j, k = divmod(int(bad.argmax()), n)
            raise NotAssociative(f"associativity fails at triple ({i},{j},{k})")
    # j is an inverse of i when t[i, j] and t[j, i] are both the identity;
    # the first such j is kept
    both = (t == identity) & (t.T == identity)
    missing = ~both.any(axis=1)
    if missing.any():
        raise NoInverse(f"element {int(missing.argmax())} has no inverse")
    inverses = both.argmax(axis=1).tolist()
    return FiniteGroup(order=n, table=t, identity=identity, inverses=tuple(inverses))


def _index_table(table) -> np.ndarray:
    """table, nested lists or an array, as a square int64 array of element
    indices: integers in [0, order), or whole floats, never bools.  The
    first entry that is not one, row by row, is named."""
    rows = table.tolist() if isinstance(table, np.ndarray) else table
    try:
        rows = [list(row) for row in rows]
    except TypeError:
        raise InvalidInput("multiplication table must be square")
    n = len(rows)
    for r, row in enumerate(rows):
        if len(row) != n:
            raise InvalidInput(f"multiplication table must be square: row {r} "
                               f"has {len(row)} entries for {n} rows")
        for c, x in enumerate(row):
            if isinstance(x, (bool, np.bool_)) or x not in range(n):
                raise InvalidInput(f"table entry [{r}][{c}] must be an index in "
                                   f"[0, {n}), got {x!r}")
    return np.array(rows, dtype=np.int64).reshape(n, n)


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
    """Validate automorphism matrices, one per group element.

    The product law and the automorphism law are each checked for blocks of
    group elements at once, all of them when the action is small; a
    failure names the first element, in index order, that breaks the law.
    """
    tol = target.tol
    if len(mats) != group.order:
        raise InvalidInput(f"need exactly one matrix per group element: got "
                           f"{len(mats)} for order {group.order}")
    ms = tuple(numeric.as_complex(m) for m in mats)
    d = target.dim
    for g, m in enumerate(ms):
        if m.shape != (d, d):
            raise InvalidInput(f"action matrix {g} has wrong shape")
    stack = np.array(ms)
    numeric.check_entry_bound(
        stack, lambda at: f"mats[{at[0]}][{at[1]}, {at[2]}]")
    e = group.identity
    if numeric.rel_residual(ms[e] - np.eye(d), 1.0) > tol:
        raise NotHomomorphism("identity element does not act as identity")
    if (ms[e] != np.eye(d)).any():
        # the identity acts exactly, as extract_cocycle's phi(e) = I requires
        ms = ms[:e] + (np.eye(d, dtype=np.complex128),) + ms[e + 1:]
        stack[e] = ms[e]
    n = len(ms)
    # mats[g] @ mats[h] against mats[g*h] for blocks of first elements g;
    # the first failing h of the first failing g is reported
    step = max(1, _BLOCK_ENTRIES // (n * d * d))
    for lo in range(0, n, step):
        res = _product_residuals(stack, group.table, lo, lo + step)
        bad = np.argwhere(res > tol)
        if bad.size:
            g, h = int(bad[0, 0]) + lo, int(bad[0, 1])
            raise NotHomomorphism(f"mats[{g}]@mats[{h}] != mats[{g}*{h}]: "
                                  f"residual {res[g - lo, h]:.3e}")
    unit_errors = stack @ target.unit - target.unit
    scale = target.scale
    step = max(1, _BLOCK_ENTRIES // d ** 3)
    for lo in range(0, n, step):
        errors = _multiplicativity_errors(stack[lo:lo + step], target)
        for g, err in enumerate(errors, lo):
            res = numeric.rel_residual(
                err, scale * max(numeric.frobenius(ms[g]) ** 2, 1.0))
            if res > tol:
                pair = tuple(int(t) for t in np.unravel_index(
                    int(np.abs(err).sum(axis=2).argmax()), (d, d)))
                raise NotAutomorphism(f"element {g} is not multiplicative at "
                                      f"basis pair {pair}: residual {res:.3e}")
            if numeric.rel_residual(unit_errors[g], 1.0) > tol:
                raise NotAutomorphism(f"element {g} does not fix the unit")
    return AlgebraAction(group=group, target=target, mats=ms)


def _product_residuals(stack: np.ndarray, table: np.ndarray,
                       lo: int, hi: int) -> np.ndarray:
    """res[g - lo, h] = |m_g m_h - m_gh| / max(|m_g m_h|, 1) for lo <= g <
    hi and every h, in Frobenius norms by the formula np.linalg.norm applies
    over two axes."""
    prods = stack[lo:hi, None] @ stack
    diff = prods - stack[table[lo:hi]]
    norms = np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=(2, 3)))
    scale = np.sqrt(np.add.reduce((prods.conj() * prods).real, axis=(2, 3)))
    return norms / np.maximum(scale, 1.0)


def _multiplicativity_errors(stack: np.ndarray, target: Algebra) -> np.ndarray:
    """(order, d, d, d) C-contiguous stack of m_g(b_i b_j) - m_g(b_i) m_g(b_j)
    for every element g and basis pair (i, j).

    Both sides are scattered from the nonzeros for all g at once: lhs[g, i,
    j] = m_g c[i, j], and rhs[g, i, j] = sum_ab m_g[a, i] m_g[b, j] c[a, b]
    through w[g, a, l] = sum_b c[a, b, l] m_g[b].
    """
    n, d = stack.shape[:2]
    i, j, k, v = target.nonzeros
    lhs = numeric.scatter(i * d + j, v[:, None, None]
                          * stack[:, :, k].transpose(2, 0, 1), d * d)
    lhs = lhs.reshape(d, d, n, d).transpose(2, 0, 1, 3)
    w = numeric.scatter(i * d + k, v[:, None, None]
                        * stack[:, j].transpose(1, 0, 2), d * d)
    w = w.reshape(d, d, n, d).transpose(2, 0, 1, 3).reshape(n, d, d * d)
    rhs = (stack.transpose(0, 2, 1) @ w).reshape(n, d, d, d).transpose(0, 1, 3, 2)
    # C order: each element's block is summed in the order its norm reads
    return np.subtract(lhs, rhs, order="C")


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
