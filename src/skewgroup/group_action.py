"""Finite groups as multiplication tables, acting on algebras by automorphisms.

Group elements are referred to by index throughout; names are optional
metadata only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numeric
from .algebra import EXHAUSTIVE_DIM_LIMIT, Algebra
from .errors import (
    InvalidInput,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
    brief,
)


# The search that names a failing pair or element forms temporaries of
# about this many matrix entries at most: blocks of first elements for the
# product law, and one element's errors over all basis pairs at once, or
# else one first index at a time, for the automorphism law.
_WITNESS_ENTRIES = 1 << 20
# Probes of the automorphism law on an algebra without generators above
# EXHAUSTIVE_DIM_LIMIT.
_ACTION_PROBES = 2


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

    @cached_property
    def generators(self) -> tuple:
        """Elements that generate the group, chosen greedily in index order:
        each element that the ones before it do not generate."""
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity] = True
        gens = []
        for g in range(self.order):
            if inside[g]:
                continue
            gens.append(g)
            # what is generated, closed under right products by generators
            new = inside.nonzero()[0]
            while new.size:
                reached = np.zeros(self.order, dtype=bool)
                reached[self.table[np.ix_(new, gens)]] = True
                new = (reached & ~inside).nonzero()[0]
                inside[new] = True
        return tuple(gens)

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
                                   f"[0, {n}), got {brief(x)}")
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

    Each law is checked on generators.  The product law mats[s] @ mats[h] =
    mats[s*h] is checked for every generator s of the group and every h.
    The unit law and the automorphism law mats[s] L_x = L_{mats[s] x}
    mats[s] are checked for every generator s and each x among the
    algebra's generators.  An algebra without them is checked on every
    basis pair up to EXHAUSTIVE_DIM_LIMIT, as make_algebra checks it, and
    above it on two probes drawn from its seed; a probe passes a
    non-automorphism with probability 0.  Where the laws hold for
    generators, they hold for every element.  When one fails, the search
    over every element in index order names the first failing pair or
    element, as the check of every element would.
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
    for g, m in enumerate(ms):
        numeric.check_entry_bound(m, lambda at: f"mats[{g}][{at[0]}, {at[1]}]")
    e = group.identity
    if numeric.rel_residual(ms[e] - np.eye(d), 1.0) > tol:
        raise NotHomomorphism("identity element does not act as identity")
    if (ms[e] != np.eye(d)).any():
        # the identity acts exactly, as extract_cocycle's phi(e) = I requires
        ms = ms[:e] + (np.eye(d, dtype=np.complex128),) + ms[e + 1:]
    gens = group.generators
    if any(_product_residual(ms[s], m, ms[t]) > tol
           for s in gens for m, t in zip(ms, group.table[s])):
        _name_product_failure(ms, group.table, target)
    xs = target.generators
    if xs is None and d > EXHAUSTIVE_DIM_LIMIT:
        xs = [x for x, in numeric.complex_probes(
            np.random.default_rng(target.seed), _ACTION_PROBES, 1, d)]
    if not all(_is_automorphism(ms[s], target, xs) for s in gens):
        _name_non_automorphism(ms, target)
    return AlgebraAction(group=group, target=target, mats=ms)


def _product_residual(a, b, ab) -> float:
    """|a b - ab| / max(|a b|, 1), in Frobenius norms."""
    prod = a @ b
    return numeric.rel_residual(prod - ab, numeric.frobenius(prod))


def _law_error(m, target: Algebra, x) -> np.ndarray:
    """m L_x - L_{m x} m: column q is m(x b_q) - m(x) m(b_q)."""
    return m @ target.left_mult(x) - target.left_mult(m @ x) @ m


def _is_automorphism(m, target: Algebra, xs) -> bool:
    """Whether m fixes the unit and m L_x = L_{m x} m for each x in xs, or,
    when xs is None, m(b_i b_j) = m(b_i) m(b_j) for all basis pairs.

    Column q of m L_x - L_{m x} m sums the errors of the basis pairs (i, q)
    weighted by x_i, so its norm is at most |x| times the norm of all their
    errors: x fails here only where the check over all pairs fails.
    """
    tol = target.tol
    scale = target.scale * max(numeric.frobenius(m) ** 2, 1.0)
    if numeric.rel_residual(m @ target.unit - target.unit, 1.0) > tol:
        return False
    if xs is None:
        return _multiplicativity_witness(m, target)[0] <= tol * scale
    return all(numeric.frobenius(_law_error(m, target, x))
               <= tol * scale * numeric.frobenius(x) for x in xs)


def _name_product_failure(ms, table: np.ndarray, target: Algebra) -> None:
    """Raise for the first pair (g, h) in index order with mats[g] @ mats[h]
    != mats[g*h] to the tolerance of target, checked for blocks of first
    elements g; return if there is none."""
    stack = np.array(ms)
    n, d = stack.shape[:2]
    step = max(1, _WITNESS_ENTRIES // (n * d * d))
    for lo in range(0, n, step):
        res = _product_residuals(stack, table, lo, lo + step)
        bad = np.argwhere(res > target.tol)
        if bad.size:
            g, h = int(bad[0, 0]) + lo, int(bad[0, 1])
            raise NotHomomorphism(f"mats[{g}]@mats[{h}] != mats[{g}*{h}]: "
                                  f"residual {res[g - lo, h]:.3e}")


def _name_non_automorphism(ms, target: Algebra) -> None:
    """Raise for the first element in index order that is not multiplicative
    at some basis pair, naming the pair whose error is largest, or that does
    not fix the unit; return if there is none."""
    for g, m in enumerate(ms):
        norm, sums = _multiplicativity_witness(m, target)
        res = norm / (target.scale * max(numeric.frobenius(m) ** 2, 1.0))
        if res > target.tol:
            pair = divmod(int(sums.argmax()), target.dim)
            raise NotAutomorphism(f"element {g} is not multiplicative at "
                                  f"basis pair {pair}: residual {res:.3e}")
        if numeric.rel_residual(m @ target.unit - target.unit, 1.0) > target.tol:
            raise NotAutomorphism(f"element {g} does not fix the unit")


def _multiplicativity_witness(m, target: Algebra) -> tuple:
    """(Frobenius norm, (d, d) sums of moduli over the last index) of the
    errors m(b_i b_j) - m(b_i) m(b_j) over all basis pairs (i, j): formed
    whole when they fit _WITNESS_ENTRIES, else one first index i at a time,
    as the columns of m L_{b_i} - L_{m b_i} m."""
    d = target.dim
    if d ** 3 <= _WITNESS_ENTRIES:
        err = _multiplicativity_errors(np.ascontiguousarray(m)[None], target)[0]
        return numeric.frobenius(err), np.abs(err).sum(axis=2)
    norm, sums = 0.0, np.empty((d, d))
    for i, x in enumerate(np.eye(d)):
        err = _law_error(m, target, x)
        norm = math.hypot(norm, numeric.frobenius(err))
        sums[i] = np.abs(err).sum(axis=0)
    return norm, sums


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
