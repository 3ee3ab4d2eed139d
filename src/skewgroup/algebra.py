"""Finite-dimensional unital associative algebras by structure constants.

An algebra of dimension n has structure constants c[i, j, k] with b_i b_j =
sum_k c[i, j, k] b_k, plus the coordinate vector of the unit.  Only the
nonzero constants are stored, in COO form sorted by (i, j, k).  Elements are
coordinate vectors in C^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numeric
from .errors import (
    AssociativityViolation,
    ClosureViolation,
    InvalidInput,
    NotIdempotent,
    UnitViolation,
)

# Above this dimension associativity/unit validation switches from exhaustive
# basis triples to seeded random probes (the exhaustive check is cubic in dim
# per triple and quickly dominates wall time).
EXHAUSTIVE_DIM_LIMIT = 32
_PROBE_COUNT = 50
# Cost model of the exhaustive associativity check, measured on 2 cores: one
# term of the join over the nonzeros costs about as much as 32 dense
# multiply-adds, and a join has the fixed cost of about 1000 terms.
_JOIN_TERM_COST = 32
_JOIN_FIXED_TERMS = 1000


@dataclass(frozen=True, eq=False)
class Algebra:
    dim: int
    # The nonzero structure constants: read-only index arrays (i, j, k),
    # sorted by (i, j, k) without repeats, and their complex128 values.
    nonzeros: tuple
    unit: np.ndarray          # (dim,) coordinates of 1
    # The one tolerance of every rank and residual decision and the one seed
    # of every random draw on this algebra, its modules and everything derived
    # from it.
    tol: float = numeric.DEFAULT_TOL
    seed: int = numeric.DEFAULT_SEED
    # Read-only (k, dim) coordinates of k generators of the algebra as a
    # unital algebra, to shrink intertwiner systems; None: the whole basis.
    generators: np.ndarray | None = field(default=None, compare=False)

    @cached_property
    def trace_gram(self) -> np.ndarray:
        """Read-only trace form T[i, j] = trace(L_{b_i} L_{b_j}).

        The trace is sum_{m,n} c[i, m, n] c[j, n, m], a join over the
        nonzeros: each nonzero t in slot (m, n) meets every nonzero s in slot
        (n, m), and v_t v_s is scattered into T at (i_t, i_s).  Exact for any
        structure constants, associative or not.  The join runs over chunks
        of about dim^2 pairs, so no temporary is larger than T or the
        nonzeros themselves, even for dense constants with their dim^4 pairs.
        """
        i, j, k, v = self.nonzeros
        n = self.dim
        order = (j * n + k).argsort(kind="stable")
        slots = (j * n + k)[order]
        # the nonzeros in slot (n, m) of nonzero t, in slot (m, n), are
        # order[lo[t]:hi[t]]
        swapped = k * n + j
        lo = slots.searchsorted(swapped)
        hi = slots.searchsorted(swapped, side="right")
        gram = np.zeros(n * n, dtype=np.complex128)
        for a, b in _chunks((hi - lo).cumsum(), n):
            t, s = join(lo[a:b], hi[a:b])
            t += a
            s = order[s]
            np.add.at(gram, i[t] * n + i[s], v[t] * v[s])
        gram = gram.reshape(n, n)
        gram.flags.writeable = False
        return gram

    @cached_property
    def scale(self) -> float:
        """Frobenius norm of the structure constants, floored at 1."""
        return max(float(np.linalg.norm(self.nonzeros[3])), 1.0)

    def product(self, x, y) -> np.ndarray:
        """Coordinates of x*y."""
        i, j, k, v = self.nonzeros
        # numeric.scatter, inlined: out[k[t]] += x[i[t]] y[j[t]] v[t]
        out = np.zeros(self.dim, dtype=np.complex128)
        np.add.at(out, k, np.asarray(x)[i] * np.asarray(y)[j] * v)
        return out

    def left_mult(self, x) -> np.ndarray:
        """Matrix of left multiplication by x on coordinates."""
        i, j, k, v = self.nonzeros
        n = self.dim
        return numeric.scatter(k * n + j, np.asarray(x)[i] * v, n * n).reshape(n, n)

    def right_mult(self, x) -> np.ndarray:
        """Matrix of right multiplication by x on coordinates."""
        i, j, k, v = self.nonzeros
        n = self.dim
        return numeric.scatter(k * n + i, np.asarray(x)[j] * v, n * n).reshape(n, n)

    @cached_property
    def generator_stack(self) -> np.ndarray:
        """Read-only (k, dim) coordinates of the generators, the whole basis
        when `generators` is None."""
        if self.generators is not None:
            return self.generators
        out = np.eye(self.dim, dtype=np.complex128)
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class SubalgebraEmbedding:
    parent: Algebra
    sub: Algebra
    inclusion: np.ndarray     # (dim parent, dim sub), injective


def make_algebra(dim, mult, unit, tol=numeric.DEFAULT_TOL, generators=None,
                 seed=numeric.DEFAULT_SEED) -> Algebra:
    """Validate structure constants and unit, returning an Algebra.

    `mult` is the dense (dim, dim, dim) tensor, or the COO tuple (i, j, k,
    values) that `Algebra.nonzeros` holds, in any order and with each slot at
    most once.  Exact zeros are dropped.  `tol` and `seed` are the algebra's
    tolerance and seed, which everything derived from it inherits.
    """
    numeric.check_tol(tol)
    if dim < 1:
        raise InvalidInput("algebra dimension must be >= 1")
    if int(dim) ** 3 > np.iinfo(np.intp).max:
        raise InvalidInput(f"algebra dimension {dim} is too large: dim^3 > {np.iinfo(np.intp).max}")
    nonzeros = _sorted_coo(dim, mult)
    u = numeric.as_complex(np.array(unit, dtype=np.complex128)).reshape(-1)
    if u.shape != (dim,):
        raise InvalidInput(f"unit length {u.size} does not match dim {dim}")
    i, j, k, v = nonzeros
    numeric.check_entry_bound(
        v, lambda at: f"structure constant c[{i[at]}, {j[at]}, {k[at]}]")
    numeric.check_entry_bound(u, lambda at: f"unit[{at[0]}]")
    if generators is not None:      # a copy unless read-only with its own data
        generators = np.asarray(generators, dtype=np.complex128)
        if generators.flags.writeable or generators.base is not None:
            generators = generators.copy()
            generators.flags.writeable = False
    a = Algebra(dim=dim, nonzeros=nonzeros, unit=u, tol=tol, seed=seed,
                generators=generators)
    _check_associativity(a)
    _check_unit(a)
    return a


def _sorted_coo(dim, mult) -> tuple:
    """Own read-only COO arrays of dense or COO structure constants, sorted
    by (i, j, k), without exact zeros."""
    if (isinstance(mult, tuple) and len(mult) == 4
            and all(isinstance(x, np.ndarray) and x.ndim == 1 for x in mult)):
        if not mult[0].shape == mult[1].shape == mult[2].shape == mult[3].shape:
            raise InvalidInput("structure constant COO arrays differ in length")
        idx = np.array(mult[:3])
        if idx.dtype.kind not in "iu":
            raise InvalidInput("structure constant indices must be integers")
        bad = ((idx < 0) | (idx >= dim)).any(axis=0)
        if bad.any():
            i, j, k = idx[:, bad.argmax()]
            raise InvalidInput(f"structure constant index c[{i}, {j}, {k}] out of range for dim {dim}")
        key = np.ravel_multi_index(idx, (dim, dim, dim))
        idx = idx.astype(np.intp, copy=False)
        v = numeric.as_complex(np.array(mult[3], dtype=np.complex128))
        if (key[1:] <= key[:-1]).any():
            order = key.argsort(kind="stable")
            if (np.diff(key[order]) == 0).any():
                raise InvalidInput("structure constant slot given twice")
            idx, v = idx[:, order], v[order]
        keep = v != 0
        if not keep.all():
            idx, v = idx[:, keep], v[keep]
        out = (*idx, v)
    else:
        c = numeric.as_complex(mult)
        if c.shape != (dim, dim, dim):
            raise InvalidInput("structure tensor / unit shape mismatch")
        nz = np.nonzero(c)
        out = (*nz, c[nz])
    for x in out:
        x.flags.writeable = False
    return out


def join(lo, hi):
    """Pairs (t, s): each t with every position s from lo[t] up to hi[t]."""
    cnt = hi - lo
    t = np.arange(lo.size).repeat(cnt)
    return t, np.arange(t.size) + (lo - cnt.cumsum() + cnt).repeat(cnt)


def _chunks(done, n) -> zip:
    """(a, b) bounds of runs of a join's outer positions t, with done[t] terms
    up to t, of about max(n^2, one join's fixed cost) terms each."""
    size = max(n * n, _JOIN_FIXED_TERMS)
    cuts = done.searchsorted(np.arange(size, done[-1] if done.size else 0, size),
                             side="right")
    bounds = [0, *cuts.tolist(), done.size]
    return zip(bounds, bounds[1:])


def _check_associativity(a: Algebra) -> None:
    scale = a.scale ** 2
    if a.dim <= EXHAUSTIVE_DIM_LIMIT:
        worst, at = _worst_associator(a)
        if worst > a.tol * scale:
            raise AssociativityViolation(
                f"associativity fails at basis triple {at}: residual {worst:.3e}")
        return
    probes = numeric.complex_probes(np.random.default_rng(a.seed),
                                    _PROBE_COUNT, 3, a.dim)
    for t, (x, y, z) in enumerate(probes):
        delta = a.product(a.product(x, y), z) - a.product(x, a.product(y, z))
        res = numeric.rel_residual(delta, scale)
        if res > a.tol:
            raise AssociativityViolation(f"random probe {t}: residual {res:.3e}")


def _worst_associator(a: Algebra) -> tuple:
    """Largest entry of (b_r b_j) b_k - b_r (b_j b_k) over all basis triples,
    and the first triple (r, j, k) that attains it.

    The two sides are joins over the nonzeros, c[r, j, m] c[m, k, l] and
    c[j, k, m] c[r, m, l], unless the join would cost more than contracting
    a dense copy of the constants one first index r at a time: for small
    algebras, and for constants that are mostly nonzero.
    """
    i, j, k, v = a.nonzeros
    n = a.dim
    budget = n ** 5 // _JOIN_TERM_COST - _JOIN_FIXED_TERMS
    joined = _joined_associator(a, budget) if budget > 0 else None
    if joined is not None:
        return joined
    c = np.zeros((n, n, n), dtype=np.complex128)
    c[i, j, k] = v
    flat = c.reshape(n, n * n)     # [m, (k, l)]
    pairs = c.reshape(n * n, n)    # [(j, k), m]
    worst, at = -1.0, None
    for r in range(n):
        err = np.abs((c[r] @ flat).reshape(-1) - (pairs @ c[r]).reshape(-1))
        t = int(err.argmax())
        if err[t] > worst:
            worst, at = float(err[t]), (r, t // (n * n), t // n % n)
    return worst, at


def _joined_associator(a: Algebra, budget=math.inf):
    """_worst_associator by the join, or None if it has `budget` terms or
    more; in chunks of whole first indices r (see _chunks), each slot's terms
    summed in one bincount in the order of one whole join, bit for bit."""
    i, j, k, v = a.nonzeros
    n = a.dim
    rows = i.searchsorted(np.arange(n + 1))          # first index m: rows[m]:rows[m+1]
    by_k = k.argsort(kind="stable")
    thirds = k[by_k].searchsorted(np.arange(n + 1))  # third index m, in by_k
    # terms joined before each nonzero, of the left side and the right
    done = np.concatenate([[0], (np.diff(rows)[k] + np.diff(thirds)[j]).cumsum()])
    if done[-1] >= budget:
        return None
    ij = i * n + j
    worst, at = -1.0, (0, 0, 0)
    for lo, hi in _chunks(done[rows[1:]], n):
        lo, hi = rows[lo], rows[hi]
        p, s = join(rows[k[lo:hi]], rows[k[lo:hi] + 1])
        q, u = join(thirds[j[lo:hi]], thirds[j[lo:hi] + 1])
        p, q, u = p + lo, q + lo, by_k[u]
        # slot ((r, j, k), l) is ((r n + j) n + k) n + l
        key = np.concatenate([ij[p] * n * n + j[s] * n + k[s],
                              (i[q] * n * n + ij[u]) * n + k[q]])
        w = np.concatenate([v[p] * v[s], -(v[u] * v[q])])
        slots, at_slot = np.unique(key, return_inverse=True)
        re, im = np.bincount(at_slot, w.real), np.bincount(at_slot, w.imag)
        err = re * re + im * im        # squared: cheaper than abs or hypot
        if slots.size and err.max() > worst:
            t = int(err.argmax())
            worst, slot = err[t], int(slots[t])
            at = (slot // n ** 3, slot // (n * n) % n, slot // n % n)
    return math.sqrt(max(worst, 0.0)), at


def _check_unit(a: Algebra) -> None:
    scale = a.scale * max(float(np.linalg.norm(a.unit)), 1.0)
    for name, mult in (("left", a.left_mult), ("right", a.right_mult)):
        m = mult(a.unit)
        m.flat[::a.dim + 1] -= 1.0
        res = numeric.rel_residual(m, scale)
        if res > a.tol:
            j = int(np.abs(m).max(axis=0).argmax())
            raise UnitViolation(f"{name} unit law fails at basis index {j}: residual {res:.3e}")


def matrix_algebra(n: int) -> Algebra:
    """M_n(C) on the matrix-unit basis E_{pq}, ordered row-major."""
    if n < 1:
        raise InvalidInput("matrix algebra needs n >= 1")
    dim = n * n
    # E_{pq} E_{qr} = E_{pr}
    p, q, r = (x.ravel() for x in np.indices((n, n, n)))
    ones = np.ones(p.size, dtype=np.complex128)
    unit = np.zeros(dim, dtype=np.complex128)
    unit[::n + 1] = 1.0
    return make_algebra(dim, (p * n + q, q * n + r, p * n + r, ones), unit)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """A + B with componentwise products and unit (1_A, 1_B)."""
    if a.dim < 1 or b.dim < 1:
        raise InvalidInput("direct summands must have positive dimension")
    if a.tol != b.tol:
        raise InvalidInput(f"direct summands have different tolerances "
                           f"{a.tol!r} and {b.tol!r}")
    if a.seed != b.seed:
        raise InvalidInput(f"direct summands have different seeds "
                           f"{a.seed!r} and {b.seed!r}")
    nonzeros = tuple(np.concatenate([x, y + a.dim])
                     for x, y in zip(a.nonzeros[:3], b.nonzeros[:3]))
    values = np.concatenate([a.nonzeros[3], b.nonzeros[3]])
    unit = np.concatenate([a.unit, b.unit])
    return make_algebra(a.dim + b.dim, nonzeros + (values,), unit, tol=a.tol,
                        seed=a.seed)


def trace_form(a: Algebra) -> np.ndarray:
    """Gram matrix T[i, j] = trace(L_{b_i} L_{b_j}), derived once per algebra."""
    return a.trace_gram


def is_semisimple(a: Algebra) -> bool:
    """Full rank of the left-multiplication trace form."""
    return numeric.rank(trace_form(a), a.tol) == a.dim


def canonical_span(vectors, tol) -> np.ndarray:
    """Deterministic orthonormal basis of the span of the given column vectors.

    The result depends only on the subspace, not on the spanning set: columns
    of the orthogonal projector are Gram-Schmidt'ed with pivoting and
    phase-fixed so each leading significant coordinate is real positive.  The
    pivot is the column of largest residual norm; columns within relative tol
    of that norm tie, and the first of them wins, so rounding never decides
    an exact tie.  Keeps report output (and subalgebra structure constants)
    stable.

    The work runs in the k coordinates of an orthonormal basis Q of the span:
    column j of the residual projector is Q c_j, with C = Q^H at the start,
    and a step takes u (u^H C) off C and |u^H c_j|^2 off each squared column
    norm, so no n x n matrix is formed.
    """
    numeric.check_tol(tol)
    q = numeric.orthonormal_column_basis(    # no name keeps the stacked input
        np.column_stack(vectors) if isinstance(vectors, (list, tuple)) else np.asarray(vectors), tol)
    c = np.conjugate(q.T, order="C")
    out = np.empty_like(q)
    sq = np.einsum("ij,ij->j", c.real, c.real) + np.einsum("ij,ij->j", c.imag, c.imag)
    cut = (1 - tol) ** 2
    for t in range(len(c)):
        col = c[:, (sq >= cut * sq.max()).argmax()]
        u = col / math.sqrt(np.vdot(col, col).real)
        v = q @ u
        lead = complex(v[(np.abs(v) > 1e-8).argmax()])
        out[:, t] = v / (lead / abs(lead))
        if t + 1 < len(c):
            w = u.conj() @ c
            c -= u[:, None] * w
            sq -= w.real * w.real + w.imag * w.imag
    return out


def subalgebra_from_span(parent: Algebra, span,
                         unit_coords) -> SubalgebraEmbedding:
    """Build a SubalgebraEmbedding from a spanning set of parent coordinates.

    Structure constants are recomputed by projecting basis products onto the
    span; a projection residual above tolerance means the span is not
    multiplicatively closed and raises ClosureViolation.
    """
    tol = parent.tol
    basis = canonical_span(span, tol)
    k = basis.shape[1]
    if k == 0:
        raise InvalidInput("subalgebra span is zero")
    c = np.zeros((k, k, k), dtype=np.complex128)
    scale = parent.scale
    for i in range(k):
        for j in range(k):
            prod = parent.product(basis[:, i], basis[:, j])
            coeff = basis.conj().T @ prod
            res = numeric.rel_residual(prod - basis @ coeff, scale)
            if res > tol:
                raise ClosureViolation(
                    f"span not closed under multiplication at pair ({i},{j}): "
                    f"residual {res:.3e}")
            c[i, j] = coeff
    u = basis.conj().T @ numeric.as_complex(unit_coords)
    if numeric.rel_residual(numeric.as_complex(unit_coords) - basis @ u, 1.0) > tol:
        raise ClosureViolation("designated unit does not lie in the span")
    sub = make_algebra(k, c, u, tol=tol, seed=parent.seed)
    return SubalgebraEmbedding(parent=parent, sub=sub, inclusion=basis)


def fixed_subalgebra(parent: Algebra, action) -> SubalgebraEmbedding:
    """Joint fixed space {a : g(a) = a for all g}, as a subalgebra of parent."""
    eye = np.eye(parent.dim)
    stacked = np.vstack([m - eye for m in action.mats])
    # floored at the scale of I, so a stack of rounding noise reads as zero
    fixed = numeric.nullspace(stacked, parent.tol, scale_floor=1.0)
    return subalgebra_from_span(parent, fixed, unit_coords=parent.unit)


def corner_algebra(parent: Algebra, e) -> SubalgebraEmbedding:
    """The corner e*A*e for an idempotent e, with unit e."""
    e = numeric.as_complex(e).reshape(-1)
    res = numeric.rel_residual(parent.product(e, e) - e,
                               max(float(np.linalg.norm(e)), 1.0))
    if res > parent.tol:
        raise NotIdempotent(f"e*e != e: residual {res:.3e}")
    cols = []
    for i in range(parent.dim):
        b = np.zeros(parent.dim, dtype=np.complex128)
        b[i] = 1.0
        cols.append(parent.product(e, parent.product(b, e)))
    return subalgebra_from_span(parent, cols, unit_coords=e)
