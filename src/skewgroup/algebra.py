"""Finite-dimensional unital associative algebras by structure constants.

An algebra of dimension n is a tensor c[i, j, k] with b_i b_j = sum_k
c[i, j, k] b_k plus the coordinate vector of the unit.  Elements are
coordinate vectors in C^n.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Algebra:
    dim: int
    mult: np.ndarray          # (dim, dim, dim) structure constants
    unit: np.ndarray          # (dim,) coordinates of 1
    labels: tuple = ()
    tol: float = numeric.DEFAULT_TOL
    # Coordinate vectors that generate the algebra as a unital algebra; used
    # to shrink intertwiner systems.  Empty means "use the whole basis".
    generators: tuple = field(default=(), compare=False)

    @cached_property
    def nonzeros(self) -> tuple:
        """COO form of mult: index arrays (i, j, k) and the values there."""
        i, j, k = np.nonzero(self.mult)
        return i, j, k, self.mult[i, j, k]

    @cached_property
    def trace_gram(self) -> np.ndarray:
        """Read-only trace form T[i, j] = trace(L_{b_i} L_{b_j}).

        The trace is sum_{m,n} c[i, m, n] c[j, n, m]: one matmul over the
        slots (m, n) that hold a nonzero in both factors.
        """
        _, j, k, _ = self.nonzeros
        n = self.dim
        slots = np.intersect1d(j * n + k, k * n + j)
        flat = self.mult.reshape(n, n * n)
        gram = flat[:, slots] @ flat[:, slots % n * n + slots // n].T
        gram.flags.writeable = False
        return gram

    def product(self, x, y) -> np.ndarray:
        """Coordinates of x*y."""
        i, j, k, v = self.nonzeros
        return _scatter(k, np.asarray(x)[i] * np.asarray(y)[j] * v, self.dim)

    def left_mult(self, x) -> np.ndarray:
        """Matrix of left multiplication by x on coordinates."""
        i, j, k, v = self.nonzeros
        n = self.dim
        return _scatter(k * n + j, np.asarray(x)[i] * v, n * n).reshape(n, n)

    def right_mult(self, x) -> np.ndarray:
        """Matrix of right multiplication by x on coordinates."""
        i, j, k, v = self.nonzeros
        n = self.dim
        return _scatter(k * n + i, np.asarray(x)[j] * v, n * n).reshape(n, n)

    def basis_generators(self) -> list:
        if self.generators:
            return [np.asarray(g) for g in self.generators]
        return [np.eye(self.dim, dtype=np.complex128)[:, i] for i in range(self.dim)]

    @property
    def scale(self) -> float:
        return max(float(np.linalg.norm(self.mult)), 1.0)


def _scatter(idx, w, n) -> np.ndarray:
    """out[idx[t]] += w[t] over a length-n complex vector."""
    return np.bincount(idx, w.real, n) + 1j * np.bincount(idx, w.imag, n)


@dataclass(frozen=True, eq=False)
class SubalgebraEmbedding:
    parent: Algebra
    sub: Algebra
    inclusion: np.ndarray     # (dim parent, dim sub), injective

    def include(self, x) -> np.ndarray:
        """Map sub coordinates into parent coordinates."""
        return self.inclusion @ np.asarray(x)


def make_algebra(dim, mult, unit, tol=numeric.DEFAULT_TOL, labels=(),
                 generators=(), seed=numeric.DEFAULT_SEED) -> Algebra:
    """Validate structure constants and unit, returning an Algebra."""
    if dim < 1:
        raise InvalidInput("algebra dimension must be >= 1")
    # own copies: the cached `nonzeros` must keep describing `mult`
    c = numeric.as_complex(np.array(mult, dtype=np.complex128))
    u = numeric.as_complex(np.array(unit, dtype=np.complex128)).reshape(-1)
    if c.shape != (dim, dim, dim) or u.shape != (dim,):
        raise InvalidInput("structure tensor / unit shape mismatch")
    a = Algebra(dim=dim, mult=c, unit=u, labels=tuple(labels), tol=tol,
                generators=tuple(generators))
    _check_associativity(a, seed)
    _check_unit(a)
    return a


def _check_associativity(a: Algebra, seed) -> None:
    scale = a.scale ** 2
    if a.dim <= EXHAUSTIVE_DIM_LIMIT:
        # (b_i b_j) b_k vs b_i (b_j b_k), one first index i at a time
        n = a.dim
        flat = a.mult.reshape(n, n * n)     # [m, (k, l)]
        pairs = a.mult.reshape(n * n, n)    # [(j, k), m]
        worst, at = -1.0, None
        for i in range(n):
            err = np.abs((a.mult[i] @ flat).reshape(-1)
                         - (pairs @ a.mult[i]).reshape(-1))
            t = int(err.argmax())
            if err[t] > worst:
                worst, at = float(err[t]), (i, t // (n * n), t // n % n)
        if worst > a.tol * scale:
            raise AssociativityViolation(
                f"associativity fails at basis triple {at}: residual {worst:.3e}")
        return
    rng = np.random.default_rng(seed)
    for t in range(_PROBE_COUNT):
        x, y, z = (rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
                   for _ in range(3))
        delta = a.product(a.product(x, y), z) - a.product(x, a.product(y, z))
        res = numeric.rel_residual(delta, scale)
        if res > a.tol:
            raise AssociativityViolation(f"random probe {t}: residual {res:.3e}")


def _check_unit(a: Algebra) -> None:
    lu = a.left_mult(a.unit)
    ru = a.right_mult(a.unit)
    eye = np.eye(a.dim)
    scale = a.scale * max(float(np.linalg.norm(a.unit)), 1.0)
    for name, m in (("left", lu), ("right", ru)):
        res = numeric.rel_residual(m - eye, scale)
        if res > a.tol:
            j = int(np.abs(m - eye).max(axis=0).argmax())
            raise UnitViolation(f"{name} unit law fails at basis index {j}: residual {res:.3e}")


def matrix_algebra(n: int, tol=numeric.DEFAULT_TOL) -> Algebra:
    """M_n(C) on the matrix-unit basis E_{pq}, ordered row-major."""
    if n < 1:
        raise InvalidInput("matrix algebra needs n >= 1")
    dim = n * n
    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                # E_{pq} E_{qr} = E_{pr}
                c[p * n + q, q * n + r, p * n + r] = 1.0
    unit = np.zeros(dim, dtype=np.complex128)
    for p in range(n):
        unit[p * n + p] = 1.0
    labels = tuple(f"E{p}{q}" for p in range(n) for q in range(n))
    return make_algebra(dim, c, unit, tol=tol, labels=labels)


def direct_sum(a: Algebra, b: Algebra, tol=None) -> Algebra:
    """A + B with componentwise products and unit (1_A, 1_B)."""
    if a.dim < 1 or b.dim < 1:
        raise InvalidInput("direct summands must have positive dimension")
    tol = tol if tol is not None else min(a.tol, b.tol)
    dim = a.dim + b.dim
    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    c[: a.dim, : a.dim, : a.dim] = a.mult
    c[a.dim:, a.dim:, a.dim:] = b.mult
    unit = np.concatenate([a.unit, b.unit])
    labels = tuple(f"L.{s}" for s in (a.labels or range(a.dim))) + tuple(
        f"R.{s}" for s in (b.labels or range(b.dim)))
    return make_algebra(dim, c, unit, tol=tol, labels=labels)


def trace_form(a: Algebra) -> np.ndarray:
    """Gram matrix T[i, j] = trace(L_{b_i} L_{b_j}), derived once per algebra."""
    return a.trace_gram


def is_semisimple(a: Algebra, tol=None) -> bool:
    """Full rank of the left-multiplication trace form."""
    tol = tol if tol is not None else a.tol
    return numeric.rank(trace_form(a), tol) == a.dim


def canonical_span(vectors, tol=numeric.DEFAULT_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the span of the given column vectors.

    The result depends only on the subspace, not on the spanning set: columns
    of the orthogonal projector are Gram-Schmidt'ed in coordinate order and
    phase-fixed so each leading significant coordinate is real positive.
    Keeps report output (and subalgebra structure constants) stable.
    """
    m = np.column_stack(vectors) if isinstance(vectors, (list, tuple)) else np.asarray(vectors)
    raw = numeric.orthonormal_column_basis(m, tol)
    k = raw.shape[1]
    if k == 0:
        return raw
    residual = (raw @ raw.conj().T).copy()
    out = []
    for _ in range(k):
        norms = np.linalg.norm(residual, axis=0)
        i = int(np.argmax(norms))  # ties break at the smallest index
        v = residual[:, i] / norms[i]
        lead = int(np.argmax(np.abs(v) > 1e-8))
        v = v / (v[lead] / abs(v[lead]))
        out.append(v)
        residual -= np.outer(v, v.conj() @ residual)
    return np.column_stack(out)


def subalgebra_from_span(parent: Algebra, span, unit_coords=None,
                         tol=None) -> SubalgebraEmbedding:
    """Build a SubalgebraEmbedding from a spanning set of parent coordinates.

    Structure constants are recomputed by projecting basis products onto the
    span; a projection residual above tolerance means the span is not
    multiplicatively closed and raises ClosureViolation.
    """
    tol = tol if tol is not None else parent.tol
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
    if unit_coords is None:
        unit_coords = parent.unit
    u = basis.conj().T @ numeric.as_complex(unit_coords)
    if numeric.rel_residual(numeric.as_complex(unit_coords) - basis @ u, 1.0) > tol:
        raise ClosureViolation("designated unit does not lie in the span")
    sub = make_algebra(k, c, u, tol=tol)
    return SubalgebraEmbedding(parent=parent, sub=sub, inclusion=basis)


def fixed_subalgebra(parent: Algebra, action) -> SubalgebraEmbedding:
    """Joint fixed space {a : g(a) = a for all g}, as a subalgebra of parent."""
    eye = np.eye(parent.dim)
    stacked = np.vstack([m - eye for m in action.mats])
    fixed = numeric.nullspace(stacked, parent.tol)
    return subalgebra_from_span(parent, fixed, unit_coords=parent.unit,
                                tol=parent.tol)


def corner_algebra(parent: Algebra, e, tol=None) -> SubalgebraEmbedding:
    """The corner e*A*e for an idempotent e, with unit e."""
    tol = tol if tol is not None else parent.tol
    e = numeric.as_complex(e).reshape(-1)
    res = numeric.rel_residual(parent.product(e, e) - e,
                               max(float(np.linalg.norm(e)), 1.0))
    if res > tol:
        raise NotIdempotent(f"e*e != e: residual {res:.3e}")
    cols = []
    for i in range(parent.dim):
        b = np.zeros(parent.dim, dtype=np.complex128)
        b[i] = 1.0
        cols.append(parent.product(e, parent.product(b, e)))
    return subalgebra_from_span(parent, cols, unit_coords=e, tol=tol)
