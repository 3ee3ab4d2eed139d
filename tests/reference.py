"""Reference versions of rewritten kernels: the plain numpy formulations,
written with the library wrappers (np.linalg.norm, np.kron, np.outer,
np.tensordot, np.eye) and Python loops, or the earlier formulation a
kernel replaced.  Tests require the library's kernels to return the same
bits, or to raise the same message; canonical_span, whose library form
works in other coordinates, is matched entrywise."""

import json
import math

import numpy as np

from skewgroup import numeric, repmod
from skewgroup.algebra import join
from skewgroup.jobs import parse_job
from skewgroup.runner import run_job
from skewgroup.errors import (
    InvalidInput,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
    NumericalInconsistency,
)


def rel_residual(delta, scale):
    return float(np.linalg.norm(delta) / max(scale, 1.0))


def product(a, x, y):
    i, j, k, v = a.nonzeros
    return numeric.scatter(k, np.asarray(x)[i] * np.asarray(y)[j] * v, a.dim)


def canonical_span(vectors, tol):
    """Pivoted Gram-Schmidt on the whole n x n residual projector, each
    column norm taken anew; columns within relative tol of the largest norm
    tie, and the first wins."""
    numeric.check_tol(tol)
    m = (np.column_stack(vectors) if isinstance(vectors, (list, tuple))
         else np.asarray(vectors))
    raw = numeric.orthonormal_column_basis(m, tol)
    k = raw.shape[1]
    if k == 0:
        return raw
    residual = raw @ raw.conj().T
    out = []
    for _ in range(k):
        norms = np.linalg.norm(residual, axis=0)
        i = int(np.argmax(norms >= (1 - tol) * norms.max()))
        v = residual[:, i] / norms[i]
        lead = int(np.argmax(np.abs(v) > 1e-8))
        v = v / (v[lead] / abs(v[lead]))
        out.append(v)
        residual -= np.outer(v, v.conj() @ residual)
    return np.column_stack(out)


def joined_associator(a):
    """The worst associator entry and its first basis triple from one join
    over all nonzeros, its terms summed per slot in one bincount."""
    i, j, k, v = a.nonzeros
    n = a.dim
    bounds = np.arange(n + 1)
    rows = i.searchsorted(bounds)
    by_k = k.argsort(kind="stable")
    thirds = k[by_k].searchsorted(bounds)
    p, s = join(rows[k], rows[k + 1])
    q, u = join(thirds[j], thirds[j + 1])
    u = by_k[u]
    ij = i * n + j
    key = np.concatenate([ij[p] * n * n + j[s] * n + k[s],
                          (i[q] * n * n + ij[u]) * n + k[q]])
    w = np.concatenate([v[p] * v[s], -(v[u] * v[q])])
    slots, at = np.unique(key, return_inverse=True)
    if not slots.size:
        return 0.0, (0, 0, 0)
    re, im = np.bincount(at, w.real), np.bincount(at, w.imag)
    err = re * re + im * im
    t = int(err.argmax())
    slot = int(slots[t])
    return math.sqrt(err[t]), (slot // n ** 3, slot // (n * n) % n, slot // n % n)


def module_actions(rho, xs):
    return np.tensordot(xs, rho, axes=1)


def block_diagonal(stacks):
    """The block-diagonal stack with the given (k, d_t, d_t) stacks as its
    blocks, in order."""
    dim = sum(stack.shape[1] for stack in stacks)
    out = np.zeros((len(stacks[0]), dim, dim), dtype=np.complex128)
    lo = 0
    for stack in stacks:
        hi = lo + stack.shape[1]
        out[:, lo:hi, lo:hi] = stack
        lo = hi
    return out


def kron_pairs(xs, ys):
    """np.kron of each pair, stacked."""
    return np.array([np.kron(x, y) for x, y in zip(xs, ys)])


def extend_to_skew_stack(base_actions, phi, vs):
    """The action stack of extend_to_skew: kron(b_j phi(h), V(h)), basis
    element major, group element minor."""
    return np.array([np.kron(bj @ phi[h], vs[h])
                     for bj in base_actions for h in range(len(vs))])


def cyclic_orbits(m):
    """is_simple's (3, dim, dim A) orbit stack as the whole images stack
    gave it, transposed."""
    rng = np.random.default_rng(m.algebra.seed)
    vs = np.column_stack([rng.standard_normal(m.dim)
                          + 1j * rng.standard_normal(m.dim) for _ in range(3)])
    return m.images(vs).transpose(2, 1, 0)


def gram(ps, qs):
    """numeric._gram as it formed the whole (n, n) terms and summed them."""
    k, d, dp = ps.shape[0], ps.shape[1], qs.shape[1]
    n = dp * d
    s = (qs.reshape(k, -1).T @ ps.conj().reshape(k, -1)).reshape(dp, dp, d, d)
    s = s.transpose(0, 2, 1, 3).reshape(n, n)
    a = (ps.conj() @ ps.transpose(0, 2, 1)).sum(axis=0)
    b = (qs.conj().transpose(0, 2, 1) @ qs).sum(axis=0)
    left = (np.eye(dp)[:, None, :, None] * a[:, None, :]).reshape(n, n)
    right = (b[:, None, :, None] * np.eye(d)[:, None, :]).reshape(n, n)
    g = left + right - s - s.conj().T
    return (g + g.conj().T) / 2


def cyclic_ranks(orbits, tol):
    """The rank of each of the three cyclic-vector orbits, one at a time."""
    return [numeric.rank(orbits[:, :, t].T, tol) for t in range(3)]


def make_group(table):
    """(order, identity, inverses) of a validated table of integers."""
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    for r in range(n):
        if len(t[r]) != n:
            raise InvalidInput(f"multiplication table must be square: row {r} "
                               f"has {len(t[r])} entries for {n} rows")
    for r in range(n):
        for c in range(n):
            if not 0 <= t[r, c] < n:
                raise InvalidInput(f"table entry [{r}][{c}] must be an index "
                                   f"in [0, {n}), got {int(t[r, c])}")
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
                    raise NotAssociative(
                        f"associativity fails at triple ({i},{j},{k})")
    inverses = []
    for i in range(n):
        inv = [j for j in range(n)
               if t[i, j] == identity and t[j, i] == identity]
        if not inv:
            raise NoInverse(f"element {i} has no inverse")
        inverses.append(inv[0])
    return n, identity, tuple(inverses)


def product_residuals(ms, table):
    """res[g, h] of make_action's product law, one row g at a time."""
    stack = np.array(ms)
    out = []
    for g, m in enumerate(ms):
        prods = m @ stack
        norms = np.linalg.norm(prods - stack[table[g]], axis=(1, 2))
        out.append(norms / np.maximum(np.linalg.norm(prods, axis=(1, 2)), 1.0))
    return np.array(out)


def multiplicativity_norms(ms, target):
    """|m_g(b_i b_j) - m_g(b_i) m_g(b_j)| over all basis pairs, one element
    g at a time."""
    d = target.dim
    i, j, k, v = target.nonzeros
    out = []
    for m in ms:
        lhs = numeric.scatter(i * d + j, v[:, None] * m[:, k].T,
                              d * d).reshape(d, d, d)
        w = numeric.scatter(i * d + k, v[:, None] * m[j], d * d)
        rhs = (m.T @ w.reshape(d, d * d)).reshape(d, d, d).transpose(0, 2, 1)
        out.append(rel_residual(lhs - rhs, 1.0))
    return out


def make_action(group, target, mats):
    """The validated matrices, one element at a time."""
    tol = target.tol
    if len(mats) != group.order:
        raise InvalidInput(f"need exactly one matrix per group element: got "
                           f"{len(mats)} for order {group.order}")
    ms = tuple(numeric.as_complex(m) for m in mats)
    d = target.dim
    for g, m in enumerate(ms):
        if m.shape != (d, d):
            raise InvalidInput(f"action matrix {g} has wrong shape")
    eye = np.eye(d)
    if rel_residual(ms[group.identity] - eye, 1.0) > tol:
        raise NotHomomorphism("identity element does not act as identity")
    ms = list(ms)
    ms[group.identity] = numeric.as_complex(eye)
    ms = tuple(ms)
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
        lhs = numeric.scatter(i * d + j, v[:, None] * m[:, k].T,
                              d * d).reshape(d, d, d)
        w = numeric.scatter(i * d + k, v[:, None] * m[j], d * d)
        rhs = (m.T @ w.reshape(d, d * d)).reshape(d, d, d).transpose(0, 2, 1)
        res = rel_residual(lhs - rhs, scale * max(np.linalg.norm(m) ** 2, 1.0))
        if res > tol:
            pair = tuple(int(t) for t in np.unravel_index(
                int(np.abs(lhs - rhs).sum(axis=2).argmax()), (d, d)))
            raise NotAutomorphism(f"element {g} is not multiplicative at "
                                  f"basis pair {pair}: residual {res:.3e}")
        if rel_residual(m @ target.unit - target.unit, 1.0) > tol:
            raise NotAutomorphism(f"element {g} does not fix the unit")
    return ms


def solve_sandwich(pairs, tol):
    """solve_sandwich as it kept the whole eigenvector matrix of every block
    until the last block was solved and the shared cutoff was known."""
    if not pairs:
        raise InvalidInput("need at least one (P, Q) pair")
    if not isinstance(pairs, numeric.Pairs):
        pairs = numeric.Pairs(numeric.Side.split([p for p, _ in pairs]),
                              numeric.Side.split([q for _, q in pairs]))
    p, q = pairs.p, pairs.q
    d, dp = p.dim, q.dim
    floor = max(1.0, p.largest, q.largest)
    solved = [(r, c, *np.linalg.eigh(numeric._gram(pb, qb)))
              for r, qb in q.blocks for c, pb in p.blocks]
    scale = max(max(float(w[-1]) for _, _, w, _ in solved), floor * floor)
    kept = [(w[j], r, c, v[:, j]) for r, c, w, v in solved
            for j in (w <= tol * scale).nonzero()[0]]
    out = []
    for _, r, c, vec in sorted(kept, key=lambda t: t[0]):
        x = np.zeros((dp, d), dtype=np.complex128)
        x[r, c] = vec.reshape(r.stop - r.start, c.stop - c.start)
        out.append(x)
    return out


def isotypics(dec):
    """A decomposition's isotypic components as it formed them while it was
    built: each class's piece bases side by side, canonically spanned."""
    tol = dec.module.algebra.tol
    out = {}
    for cls in sorted({p.iso_class for p in dec.pieces}):
        members = [p for p in dec.pieces if p.iso_class == cls]
        out[cls] = canonical_span(np.hstack([p.basis for p in members]), tol)
    return out


def multiplicity_spaces(m, pieces, representatives):
    """repmod._multiplicity_spaces as it held T = [piece bases] through its
    whole class loop."""
    t = np.hstack([p.basis for p in pieces])
    direct = repmod.DirectSum(m.algebra, [p.module for p in pieces])
    out = {}
    for cls, rep in representatives.items():
        homs = repmod.hom_space(rep.module, direct)
        mult = sum(1 for p in pieces if p.iso_class == cls)
        if len(homs) != mult:
            raise NumericalInconsistency(
                f"hom dimension {len(homs)} != multiplicity {mult} for class {cls}")
        vectors = [t @ f[:, 0] for f in homs]
        span = canonical_span(vectors, m.algebra.tol)
        if span.shape[1] != mult:
            raise NumericalInconsistency(
                f"evaluation at the fixed vector dropped rank for class {cls}")
        out[cls] = span
    return out


def run_report(path, tol=None, seed=None, task=None):
    """The standard output of `skewgroup run PATH --json`, built as one
    dictionary that holds the job's decoded JSON tree."""
    with open(path) as fh:
        data = json.load(fh)
    job = parse_job(data, tol=tol, seed=seed)
    results, exit_code = run_job(job, task_filter=task)
    payload = {
        "job": data,
        "tol": job.algebra.tol,
        "seed": job.algebra.seed,
        "passed": exit_code == 0,
        "tasks": [rep.to_dict() for _, rep, _ in results],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
