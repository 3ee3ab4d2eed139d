"""Modules over structure-constant algebras.

Provides hom spaces, simplicity tests, twisting by automorphisms, restriction
along subalgebra embeddings, and isotypic/multiplicity decomposition via a
random commutant element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numeric
from .algebra import (
    Algebra,
    SubalgebraEmbedding,
    canonical_span,
    is_semisimple,
    EXHAUSTIVE_DIM_LIMIT,
)
from .errors import (
    AlgebraMismatch,
    DegenerateSample,
    InvalidInput,
    NotARepresentation,
    NotSemisimple,
    NumericalInconsistency,
)

# Relative eigenvalue gap below which a commutant sample is considered
# degenerate and gets reseeded.
EIG_GAP = 1e-6
MAX_DECOMPOSE_RETRIES = 8
_PROBE_COUNT = 20


@dataclass(frozen=True, eq=False)
class Module:
    algebra: Algebra
    dim: int
    rho: np.ndarray           # (algebra dim, dim, dim): rho[i] is the action of b_i

    def act(self, x) -> np.ndarray:
        """Action matrix of the element with coordinates x."""
        return np.einsum("i,iab->ab", np.asarray(x), self.rho)

    @cached_property
    def scale(self) -> float:
        """Largest action entry, floored at 1: the scale of residual bounds."""
        return max(float(np.abs(self.rho).max()), 1.0)


@dataclass(frozen=True, eq=False)
class Piece:
    basis: np.ndarray         # (dim M, d) orthonormal columns inside M
    iso_class: int
    module: Module            # compressed action on the piece


@dataclass(frozen=True, eq=False)
class Decomposition:
    module: Module
    pieces: tuple             # of Piece
    isotypics: dict           # iso class -> orthonormal basis in M
    multiplicity_spaces: dict  # iso class -> orthonormal basis in M
    representatives: dict     # iso class -> Piece

    def class_ids(self) -> list:
        return sorted(self.isotypics)

    def multiplicity(self, cls: int) -> int:
        return sum(1 for p in self.pieces if p.iso_class == cls)


def make_module(algebra: Algebra, rho, *, seed=numeric.DEFAULT_SEED) -> Module:
    """Validate a representation given by one matrix per basis element."""
    if len(rho) != algebra.dim:
        raise InvalidInput("need one action matrix per algebra basis element")
    try:
        stack = numeric.as_complex(rho)
    except ValueError:
        raise InvalidInput("inconsistent action matrix shapes")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidInput("action matrices must be square")
    d = stack.shape[1]
    if d == 0:
        raise InvalidInput("zero-dimensional module")
    m = Module(algebra=algebra, dim=d, rho=stack)
    validate_module(m, seed=seed)
    return m


def validate_module(m: Module, *, seed=numeric.DEFAULT_SEED) -> None:
    """Check rho(b_i) rho(b_j) = rho(b_i b_j) and rho(1) = I."""
    a = m.algebra
    tol = a.tol
    unit_res = numeric.rel_residual(m.act(a.unit) - np.eye(m.dim), 1.0)
    if unit_res > tol:
        raise NotARepresentation(f"rho(1) != I: residual {unit_res:.3e}")
    scale = a.scale * m.scale ** 2 * m.dim
    if a.dim <= EXHAUSTIVE_DIM_LIMIT:
        n, d = a.dim, m.dim
        lhs = m.rho[:, None] @ m.rho[None, :]
        rhs = (a.mult.reshape(n * n, n) @ m.rho.reshape(n, d * d)).reshape(n, n, d, d)
        err = np.abs(lhs - rhs)
        worst = float(err.max())
        if worst > tol * scale:
            i, j = np.unravel_index(int(err.reshape(a.dim, a.dim, -1).sum(-1).argmax()),
                                    (a.dim, a.dim))
            raise NotARepresentation(
                f"rho(b_{i}) rho(b_{j}) != rho(b_{i} b_{j}): residual {worst:.3e}")
        return
    rng = np.random.default_rng(seed)
    for t in range(_PROBE_COUNT):
        x = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        y = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        delta = m.act(x) @ m.act(y) - m.act(a.product(x, y))
        if numeric.rel_residual(delta, scale * a.dim) > tol:
            raise NotARepresentation(f"random probe {t} violates multiplicativity")


def hom_space(m: Module, n: Module) -> list:
    """Basis of intertwiners f with f rho_M(a) = rho_N(a) f for all a.

    Constraints are imposed for a generating set of the algebra only, which is
    exact because the intertwiner condition is closed under products.
    """
    if not _same_algebra(m.algebra, n.algebra):
        raise AlgebraMismatch("hom_space requires modules over the same algebra")
    gens = np.array(m.algebra.basis_generators())
    pairs = list(zip(np.tensordot(gens, m.rho, axes=1),
                     np.tensordot(gens, n.rho, axes=1)))
    return numeric.solve_sandwich(pairs, m.algebra.tol)


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    if a is b:
        return True
    return (a.dim == b.dim and a.mult.shape == b.mult.shape
            and np.array_equal(a.mult, b.mult) and np.array_equal(a.unit, b.unit))


def is_simple(m: Module, seed=numeric.DEFAULT_SEED) -> bool:
    """Dual-criterion simplicity test over a semisimple algebra.

    Criterion 1: the commutant is one-dimensional.  Criterion 2: three seeded
    random vectors all generate the whole space under the algebra action.
    A one-dimensional commutant forces every nonzero vector to be cyclic, so
    a generating failure then is a numerical contradiction and raises
    NumericalInconsistency.  (The converse direction carries no information:
    a non-simple module can still be cyclic, e.g. a regular module.)
    """
    a = m.algebra
    tol = a.tol
    if not is_semisimple(a):
        raise NotSemisimple("is_simple requires a semisimple algebra")
    commutant_dim = len(hom_space(m, m))
    by_commutant = commutant_dim == 1
    rng = np.random.default_rng(seed)
    by_cyclic = True
    for _ in range(3):
        v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        orbit = np.einsum("iab,b->ai", m.rho, v)
        if numeric.rank(orbit, tol) != m.dim:
            by_cyclic = False
            break
    if by_commutant and not by_cyclic:
        raise NumericalInconsistency(
            f"simplicity criteria disagree: commutant dim {commutant_dim} "
            f"but a random vector fails to generate")
    return by_commutant


def twist(m: Module, g: int, action) -> Module:
    """Same carrier with a * m := g^{-1}(a) m."""
    tmat = action.mats[action.group.inv(g)]
    return Module(algebra=m.algebra, dim=m.dim,
                  rho=np.tensordot(tmat.T, m.rho, axes=1))


def restrict(m: Module, embedding: SubalgebraEmbedding) -> Module:
    """View m as a module over the embedded subalgebra."""
    if not _same_algebra(embedding.parent, m.algebra):
        raise AlgebraMismatch("embedding does not target the module's algebra")
    return Module(algebra=embedding.sub, dim=m.dim,
                  rho=np.tensordot(embedding.inclusion.T, m.rho, axes=1))


def compress(m: Module, basis: np.ndarray) -> Module:
    """Restrict the action to an invariant subspace with orthonormal basis."""
    a = m.algebra
    # plain batched products: reshaping a strided stack (a regular module's
    # transposed view) into one gemm would copy it
    rb = m.rho @ basis
    small = basis.conj().T @ rb
    res = np.linalg.norm(rb - basis @ small, axis=(1, 2)) / m.scale
    bad = (res > a.tol).nonzero()[0]
    if bad.size:
        raise NotARepresentation(
            f"subspace is not invariant: residual {res[bad[0]]:.3e}")
    return Module(algebra=a, dim=basis.shape[1], rho=small)


def _random_commutant_sample(comm, rng) -> np.ndarray:
    coeffs = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
    return sum(c * b for c, b in zip(coeffs, comm))


def _eig_clusters(x: np.ndarray):
    """Split a diagonalizable matrix into eigenvalue-cluster subspaces."""
    vals, vecs = np.linalg.eig(x)
    radius = max(float(np.abs(vals).max()), 1.0)
    gap = EIG_GAP * radius
    order = np.lexsort((vals.imag, vals.real))
    groups = []
    current = [order[0]]
    for idx in order[1:]:
        # connect along the sorted chain; clusters of a generic sample are tiny
        if min(abs(vals[idx] - vals[j]) for j in current) <= gap:
            current.append(idx)
        else:
            groups.append(current)
            current = [idx]
    groups.append(current)
    return [vecs[:, g] for g in groups]


def decompose(m: Module, seed=numeric.DEFAULT_SEED, *,
              commutant=None) -> Decomposition:
    """Split m into simple pieces grouped by isomorphism class.

    A random element of the commutant is sampled (seeded); its eigenvalue
    clusters give invariant subspaces, which are validated as simple
    submodules.  A degenerate sample is retried with the next derived seed,
    up to MAX_DECOMPOSE_RETRIES times.

    `commutant` optionally supplies a known basis of End(m) (e.g. right
    multiplications for a regular module), bypassing the generic solver.
    """
    if not is_semisimple(m.algebra):
        raise NotSemisimple("decompose requires a semisimple algebra")
    comm = commutant if commutant is not None else hom_space(m, m)
    last = None
    for attempt in range(MAX_DECOMPOSE_RETRIES):
        rng = np.random.default_rng([seed, attempt, m.dim])
        try:
            pieces = _try_split(m, comm, rng, seed=seed)
            return _classify(m, pieces)
        except DegenerateSample as exc:
            last = exc
    raise DegenerateSample(f"no usable commutant sample after "
                           f"{MAX_DECOMPOSE_RETRIES} attempts: {last}")


def _try_split(m: Module, comm, rng, *, seed) -> list:
    tol = m.algebra.tol
    if len(comm) == 1:
        basis = np.eye(m.dim, dtype=np.complex128)
        return [(basis, compress(m, basis))]
    x = _random_commutant_sample(comm, rng)
    blocks = _eig_clusters(x)
    out = []
    total = 0
    for cols in blocks:
        basis = numeric.orthonormal_column_basis(cols, tol)
        if basis.shape[1] != cols.shape[1]:
            raise DegenerateSample("eigenvector block is rank-deficient")
        basis = canonical_span(basis, tol)
        try:
            sub = compress(m, basis)
        except NotARepresentation as exc:
            raise DegenerateSample(f"cluster subspace not invariant: {exc}")
        try:
            if not is_simple(sub, seed=seed):
                raise DegenerateSample("eigenvalue cluster is not a simple piece")
        except NumericalInconsistency as exc:
            raise DegenerateSample(str(exc))
        out.append((basis, sub))
        total += basis.shape[1]
    if total != m.dim:
        raise DegenerateSample("cluster subspaces do not fill the module")
    stacked = np.hstack([b for b, _ in out])
    if numeric.rank(stacked, tol) != m.dim:
        raise DegenerateSample("cluster subspaces are not independent")
    return out


def _classify(m: Module, raw_pieces) -> Decomposition:
    reps = []   # (first index, dim, module)
    labels = []
    for basis, sub in raw_pieces:
        assigned = None
        for ci, (_, d, rep) in enumerate(reps):
            if d == sub.dim and len(hom_space(sub, rep)) > 0:
                assigned = ci
                break
        if assigned is None:
            reps.append((len(labels), sub.dim, sub))
            assigned = len(reps) - 1
        labels.append(assigned)
    # Final ids ascend by simple dimension then by first appearance.
    order = sorted(range(len(reps)), key=lambda ci: (reps[ci][1], reps[ci][0]))
    remap = {old: new for new, old in enumerate(order)}
    pieces = tuple(Piece(basis=basis, iso_class=remap[lbl], module=sub)
                   for (basis, sub), lbl in zip(raw_pieces, labels))
    isotypics = {}
    representatives = {}
    for cls in sorted(remap.values()):
        members = [p for p in pieces if p.iso_class == cls]
        isotypics[cls] = canonical_span(np.hstack([p.basis for p in members]),
                                        m.algebra.tol)
        representatives[cls] = members[0]
    mult_spaces = _multiplicity_spaces(m, pieces, representatives)
    return Decomposition(module=m, pieces=pieces, isotypics=isotypics,
                         multiplicity_spaces=mult_spaces,
                         representatives=representatives)


def _multiplicity_spaces(m: Module, pieces, representatives) -> dict:
    """Realize each multiplicity space inside m as {f(w)}, w the first basis
    vector of the class representative.

    The homs are solved into the direct sum of the pieces, whose action is
    exactly block-diagonal, so the intertwiner system splits into one small
    system per piece; T = [piece bases], an isomorphism from that direct sum
    onto m (the pieces are invariant and independent), carries them back.
    """
    t = np.hstack([p.basis for p in pieces])
    direct = _direct_sum(m.algebra, [p.module for p in pieces])
    out = {}
    for cls, rep in representatives.items():
        homs = hom_space(rep.module, direct)
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


def _direct_sum(a: Algebra, modules) -> Module:
    """Direct sum of modules over a, with block-diagonal actions."""
    d = sum(n.dim for n in modules)
    rho = np.zeros((a.dim, d, d), dtype=np.complex128)
    lo = 0
    for n in modules:
        hi = lo + n.dim
        rho[:, lo:hi, lo:hi] = n.rho
        lo = hi
    return Module(algebra=a, dim=d, rho=rho)


def invariant_subspace(m: Module) -> np.ndarray:
    """Fixed space of a module over a plain group algebra.

    Computed twice: as the image of the symmetrizer (mean of all basis
    actions) and as the joint fixed space of rho(g) - I; a dimension mismatch
    raises NumericalInconsistency.  Returns the joint-fixed-space basis.
    """
    tol = m.algebra.tol
    symmetrizer = m.rho.mean(axis=0)
    # the symmetrizer is idempotent (nonzero singular values >= 1) and the
    # stacked blocks rho(g) - I are O(1); floor the rank scales so an
    # all-noise matrix reads as zero
    image = numeric.orthonormal_column_basis(symmetrizer, tol, scale_floor=1.0)
    fixed = numeric.nullspace((m.rho - np.eye(m.dim)).reshape(-1, m.dim), tol,
                              scale_floor=1.0)
    if image.shape[1] != fixed.shape[1]:
        raise NumericalInconsistency(
            f"symmetrizer image dim {image.shape[1]} != joint fixed space dim "
            f"{fixed.shape[1]}")
    if fixed.shape[1]:
        joint = np.hstack([image, fixed])
        if numeric.rank(joint, tol) != fixed.shape[1]:
            raise NumericalInconsistency("symmetrizer image and fixed space differ")
    return canonical_span(fixed, tol) if fixed.shape[1] else fixed


def regular_module(a: Algebra) -> Module:
    """Left regular representation of an algebra on itself.

    The action is a read-only transposed view of the structure constants,
    not a copy.
    """
    rho = a.mult.transpose(0, 2, 1)
    rho.flags.writeable = False
    return Module(algebra=a, dim=a.dim, rho=rho)


def regular_commutant(a: Algebra) -> list:
    """Right multiplications: an exact basis of End(regular module)."""
    return [a.right_mult(np.eye(a.dim, dtype=np.complex128)[:, j])
            for j in range(a.dim)]
