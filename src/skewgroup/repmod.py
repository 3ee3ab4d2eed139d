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


class Module:
    """A module over an algebra, given by one primitive, `images(V, lo, hi)`.

    A stored module reads its images from the action stack rho it is given.
    Another kind gives its images alone, and its stack is filled from
    images(I) when read.  The actions, scale and generator side derive from
    the stack, here only; a kind may seed a value it has more cheaply.
    """

    def __init__(self, algebra: Algebra, dim: int, rho: np.ndarray | None = None):
        self.algebra = algebra
        self.dim = dim
        if rho is not None:
            self.rho = rho

    @cached_property
    def rho(self) -> np.ndarray:
        """(algebra dim, dim, dim) stack: rho[i] is the action of b_i."""
        return _image_stack(self, np.eye(self.dim))

    def images(self, basis, lo=0, hi=None) -> np.ndarray:
        """(hi - lo, dim, k) stack of rho(b_i) @ basis for the basis elements
        lo <= i < hi (by default all of them), given a (dim, k) basis."""
        return self.rho[lo:hi] @ basis

    def act(self, x) -> np.ndarray:
        """Action matrix of the element with coordinates x, or, for a stack
        x of elements, the (len(x), dim, dim) action matrices of the x[t]."""
        # the reshape and dot that np.tensordot(x, rho, axes=1) does
        x = np.asarray(x)
        n = self.rho.shape[0]
        return np.dot(x.reshape(-1, n), self.rho.reshape(n, -1)).reshape(
            x.shape[:-1] + self.rho.shape[1:])

    @cached_property
    def scale(self) -> float:
        """Largest action entry, floored at 1: the scale of residual bounds."""
        return max(float(np.abs(self.rho).max()), 1.0)

    @cached_property
    def generator_actions(self) -> np.ndarray:
        """Read-only (k, dim, dim) actions of the algebra's k generators,
        checked finite."""
        out = numeric.as_complex(self.act(self.algebra.generator_stack))
        out.flags.writeable = False
        return out

    @cached_property
    def generator_side(self) -> numeric.Side:
        """The generator actions split along their exact diagonal blocks:
        this module's side of every intertwiner system."""
        return numeric.Side.split(self.generator_actions)


class RegularModule(Module):
    """The left regular module of an algebra.

    Its images, and its scale and generator actions as seeds, are read off
    the nonzero structure constants: derived from the stack, they would
    build all dim A left multiplications.
    """

    def images(self, basis, lo=0, hi=None) -> np.ndarray:
        # row k of L_{b_i} @ basis collects c[i, j, k] basis[j]; the
        # nonzeros are sorted by i, so those of rows lo..hi are one run
        n = self.dim
        hi = n if hi is None else hi
        i, j, k, v = self.algebra.nonzeros
        run = slice(*i.searchsorted([lo, hi]))
        flat = numeric.scatter((i[run] - lo) * n + k[run],
                               v[run, None] * basis[j[run]], (hi - lo) * n)
        return flat.reshape(hi - lo, n, basis.shape[1])

    @cached_property
    def scale(self) -> float:
        return max(float(np.abs(self.algebra.nonzeros[3]).max()), 1.0)

    @cached_property
    def generator_actions(self) -> np.ndarray:
        gens = self.algebra.generator_stack
        out = np.empty((len(gens), self.dim, self.dim), dtype=np.complex128)
        for t, x in enumerate(gens):
            out[t] = self.algebra.left_mult(x)
        out = numeric.as_complex(out)
        out.flags.writeable = False
        return out


class DirectSum:
    """A direct sum of modules over one algebra, as a side of intertwiner
    systems only: its generator side is the summands' sides side by side,
    so a hom space into it solves one small system per summand."""

    def __init__(self, algebra: Algebra, summands):
        self.algebra = algebra
        self.summands = tuple(summands)
        self.dim = sum(n.dim for n in self.summands)

    @cached_property
    def generator_side(self) -> numeric.Side:
        return numeric.Side.direct_sum(n.generator_side for n in self.summands)


class CompressedModule(Module):
    """An invariant subspace of a parent module, with no stored action.

    Its images go through the parent's, on its orthonormal basis.  Its
    generator actions and scale are seeded from the stack `compress` built,
    which it then drops, so a piece read only through hom spaces holds none.
    """

    def __init__(self, parent: Module, basis: np.ndarray, rho: np.ndarray):
        super().__init__(parent.algebra, basis.shape[1], rho)
        self.parent, self.basis = parent, basis
        self.generator_actions, self.scale     # derived from rho, and kept
        del self.rho

    def images(self, basis, lo=0, hi=None) -> np.ndarray:
        return self.basis.conj().T @ self.parent.images(self.basis @ basis, lo, hi)


@dataclass(frozen=True, eq=False)
class Piece:
    basis: np.ndarray         # (dim M, d) orthonormal columns inside M
    iso_class: int
    module: CompressedModule  # the action restricted to the piece


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The simple pieces of a module, grouped by isomorphism class.

    The isotypic components are derived on first read, from the pieces:
    the readers of most decompositions need only one representative per
    class, so no decomposition holds them unasked.
    """
    module: Module
    pieces: tuple             # of Piece
    multiplicity_spaces: dict  # iso class -> orthonormal basis in M
    representatives: dict     # iso class -> Piece, in class order

    @cached_property
    def isotypics(self) -> dict:
        """iso class -> orthonormal basis in M of the sum of its pieces"""
        return {cls: canonical_span(
                    np.hstack([p.basis for p in self.pieces if p.iso_class == cls]),
                    self.module.algebra.tol)
                for cls in self.class_ids()}

    def class_ids(self) -> list:
        return sorted(self.representatives)

    def multiplicity(self, cls: int) -> int:
        return sum(1 for p in self.pieces if p.iso_class == cls)


def make_module(algebra: Algebra, rho) -> Module:
    """Validate a representation given by one matrix per basis element."""
    if len(rho) != algebra.dim:
        raise InvalidInput(f"need one action matrix per algebra basis element: "
                           f"got {len(rho)} for dim {algebra.dim}")
    try:
        stack = numeric.as_complex(rho)
    except ValueError:
        raise InvalidInput("inconsistent action matrix shapes")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidInput("action matrices must be square")
    d = stack.shape[1]
    if d == 0:
        raise InvalidInput("zero-dimensional module")
    numeric.check_entry_bound(
        stack, lambda at: f"rho[{at[0]}][{at[1]}, {at[2]}]")
    m = Module(algebra=algebra, dim=d, rho=stack)
    validate_module(m)
    return m


def validate_module(m: Module) -> None:
    """Check rho(b_i) rho(b_j) = rho(b_i b_j) and rho(1) = I.

    Up to EXHAUSTIVE_DIM_LIMIT every basis pair is checked, in blocks of
    ceil(dim A / d) first indices i, so no temporary holds more than about
    (dim A)^2 d entries; a failure names the largest entry and the pair
    (i, j) of largest summed error, the first such pair in row-major order.
    Larger algebras are checked on random pairs from the algebra's seed.
    """
    a = m.algebra
    tol = a.tol
    unit_res = numeric.rel_residual(m.act(a.unit) - np.eye(m.dim), 1.0)
    if unit_res > tol:
        raise NotARepresentation(f"rho(1) != I: residual {unit_res:.3e}")
    scale = a.scale * m.scale ** 2 * m.dim
    if a.dim <= EXHAUSTIVE_DIM_LIMIT:
        worst = max(float(err.max()) for err in _product_errors(m))
        if worst > tol * scale:
            sums = np.concatenate([err.sum(-1) for err in _product_errors(m)])
            i, j = divmod(int(sums.argmax()), a.dim)
            raise NotARepresentation(
                f"rho(b_{i}) rho(b_{j}) != rho(b_{i} b_{j}): residual {worst:.3e}")
        return
    probes = numeric.complex_probes(np.random.default_rng(a.seed),
                                    _PROBE_COUNT, 2, a.dim)
    for t, (x, y) in enumerate(probes):
        delta = m.act(x) @ m.act(y) - m.act(a.product(x, y))
        if numeric.rel_residual(delta, scale * a.dim) > tol:
            raise NotARepresentation(f"random probe {t} violates multiplicativity")


def _product_errors(m: Module):
    """|rho(b_i) rho(b_j) - rho(b_i b_j)| entrywise, as (rows, d*d) blocks
    with row (i, j) at i n + j, over consecutive blocks of first indices i."""
    i, j, k, v = m.algebra.nonzeros
    n, d, rho = m.algebra.dim, m.dim, m.rho
    step = -(-n // d)
    flat = rho.reshape(n, d * d)
    firsts = range(0, n, step)
    bounds = i.searchsorted([*firsts, n])    # nonzeros of each block
    for r, lo, hi in zip(firsts, bounds, bounds[1:]):
        err = (rho[r:r + step, None] @ rho[None]).reshape(-1, d * d)
        # rho(b_i b_j) = sum_k c[i, j, k] rho(b_k), scattered from the nonzeros
        err -= numeric.scatter((i[lo:hi] - r) * n + j[lo:hi],
                               v[lo:hi, None] * flat[k[lo:hi]], len(err))
        yield np.abs(err)


def hom_space(m: Module, n: Module) -> list:
    """Basis of intertwiners f with f rho_M(a) = rho_N(a) f for all a.

    Constraints are imposed for a generating set of the algebra only, which is
    exact because the intertwiner condition is closed under products.
    """
    if not same_algebra(m.algebra, n.algebra):
        raise AlgebraMismatch("hom_space requires modules over the same algebra")
    pairs = numeric.Pairs(m.generator_side, n.generator_side)
    return numeric.solve_sandwich(pairs, m.algebra.tol)


def same_algebra(a: Algebra, b: Algebra) -> bool:
    """Exact equality: dimension, structure constants and unit.  Every
    algebra holds its nonzero constants sorted by (i, j, k) without exact
    zeros, so equal constants are equal nonzero arrays."""
    if a is b:
        return True
    return (a.dim == b.dim
            and all(map(np.array_equal, a.nonzeros, b.nonzeros))
            and np.array_equal(a.unit, b.unit))


def is_simple(m: Module) -> bool:
    """Dual-criterion simplicity test over a semisimple algebra.

    Criterion 1: the commutant is one-dimensional (a regular module's is
    known, any other module's is solved).  Criterion 2: three random
    vectors from the algebra's seed all generate the whole module.
    A one-dimensional commutant forces every nonzero vector to be cyclic, so
    a generating failure then is a numerical contradiction and raises
    NumericalInconsistency.  (The converse direction carries no information:
    a non-simple module can still be cyclic, e.g. a regular module.)
    """
    a = m.algebra
    tol = a.tol
    if not is_semisimple(a):
        raise NotSemisimple("is_simple requires a semisimple algebra")
    commutant_dim = _commutant(m)[0]
    by_commutant = commutant_dim == 1
    # the three orbit matrices, ranked by one stacked SVD
    by_cyclic = all(r == m.dim for r in numeric.rank(_cyclic_orbits(m), tol))
    if by_commutant and not by_cyclic:
        raise NumericalInconsistency(
            f"simplicity criteria disagree: commutant dim {commutant_dim} "
            f"but a random vector fails to generate")
    return by_commutant


def _cyclic_orbits(m: Module) -> np.ndarray:
    """(3, dim, dim A) stack of the orbit matrices [b_i v] of three random
    vectors v from the algebra's seed, drawn as one stack and filled in
    compress's blocks of basis elements, so no temporary holds more than
    about dim A * dim entries."""
    rng = np.random.default_rng(m.algebra.seed)
    vs = np.column_stack([rng.standard_normal(m.dim)
                          + 1j * rng.standard_normal(m.dim) for _ in range(3)])
    return _image_stack(m, vs).transpose(2, 1, 0)


def twist(m: Module, g: int, action) -> Module:
    """Same carrier with a * m := g^{-1}(a) m."""
    tmat = action.mats[action.group.inv(g)]
    return Module(algebra=m.algebra, dim=m.dim, rho=m.act(tmat.T))


def restrict(m: Module, embedding: SubalgebraEmbedding) -> Module:
    """View m as a module over the embedded subalgebra."""
    if not same_algebra(embedding.parent, m.algebra):
        raise AlgebraMismatch("embedding does not target the module's algebra")
    return Module(algebra=embedding.sub, dim=m.dim,
                  rho=m.act(embedding.inclusion.T))


def compress(m: Module, basis: np.ndarray) -> CompressedModule:
    """Restrict the action to an invariant subspace with orthonormal basis.

    The (dim A, k, k) action, k = basis.shape[1], is filled in blocks of
    ceil(dim A / k) basis elements, and the projection is taken off a
    block's images one basis element at a time, so no other temporary holds
    more than about dim A * dim M entries; the result keeps its generator
    actions and scale and drops it.  Every basis element's invariance
    residual is checked, and a failure names the first one above tolerance.
    """
    a = m.algebra
    n, k = a.dim, basis.shape[1]
    if k == 0:
        raise InvalidInput("cannot compress to a zero-dimensional subspace")
    adjoint = basis.conj().T
    small = np.empty((n, k, k), dtype=np.complex128)
    for lo, hi, rb in _image_blocks(m, basis):
        small[lo:hi] = block = adjoint @ rb
        for r, b in zip(rb, block):
            r -= basis @ b
        re, im = rb.real, rb.imag
        res = np.sqrt(np.einsum("iab,iab->i", re, re)
                      + np.einsum("iab,iab->i", im, im)) / m.scale
        bad = (res > a.tol).nonzero()[0]
        if bad.size:
            raise NotARepresentation(
                f"subspace is not invariant: residual {res[bad[0]]:.3e}")
    return CompressedModule(m, basis, small)


def _image_blocks(m: Module, basis: np.ndarray):
    """(lo, hi, images) over consecutive blocks of ceil(dim A / k) basis
    elements lo <= i < hi, images = rho(b_i) basis, k = basis.shape[1]."""
    n = m.algebra.dim
    step = -(-n // basis.shape[1])
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield lo, hi, m.images(basis, lo, hi)


def _image_stack(m: Module, basis: np.ndarray) -> np.ndarray:
    """(dim A, dim, k) stack of rho(b_i) basis, filled over _image_blocks."""
    out = np.empty((m.algebra.dim, m.dim, basis.shape[1]), dtype=np.complex128)
    for lo, hi, block in _image_blocks(m, basis):
        out[lo:hi] = block
    return out


def _commutant(m: Module) -> tuple:
    """(dim End(m), map from coefficients to elements of End(m)).

    The right multiplications are exactly the commutant of a regular module,
    so an element of it is one `right_mult`; any other module solves
    `hom_space(m, m)` once.
    """
    if isinstance(m, RegularModule):
        return m.dim, m.algebra.right_mult
    homs = hom_space(m, m)
    return len(homs), lambda coeffs: sum(c * f for c, f in zip(coeffs, homs))


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


def decompose(m: Module) -> Decomposition:
    """Split m into simple pieces grouped by isomorphism class.

    A random element of the commutant End(m) is sampled from the algebra's
    seed: for a regular module one right multiplication, for any other
    module a combination of the basis that `hom_space(m, m)` solves once.  Its
    eigenvalue clusters give invariant subspaces, which are validated as
    simple submodules.  A degenerate sample is retried with the next derived
    seed, up to MAX_DECOMPOSE_RETRIES times.
    """
    if not is_semisimple(m.algebra):
        raise NotSemisimple("decompose requires a semisimple algebra")
    comm = _commutant(m)
    last = None
    for attempt in range(MAX_DECOMPOSE_RETRIES):
        rng = np.random.default_rng([m.algebra.seed, attempt, m.dim])
        try:
            pieces = _try_split(m, comm, rng)
            return _classify(m, pieces)
        except DegenerateSample as exc:
            last = exc
    raise DegenerateSample(f"no usable commutant sample after "
                           f"{MAX_DECOMPOSE_RETRIES} attempts: {last}")


def _try_split(m: Module, comm, rng) -> list:
    tol = m.algebra.tol
    n, combine = comm
    if n == 1:
        basis = np.eye(m.dim, dtype=np.complex128)
        return [(basis, compress(m, basis))]
    # the sample, and each eigenvector cluster once it is used, are dropped,
    # so neither is live through the later pieces' compress calls
    clusters = _eig_clusters(
        combine(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    clusters.reverse()
    out = []
    total = 0
    while clusters:
        cols = clusters.pop()
        basis = canonical_span(cols, tol)
        if basis.shape[1] != cols.shape[1]:
            raise DegenerateSample("eigenvector block is rank-deficient")
        del cols
        try:
            sub = compress(m, basis)
        except NotARepresentation as exc:
            raise DegenerateSample(f"cluster subspace not invariant: {exc}")
        try:
            if not is_simple(sub):
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
    representatives = {cls: next(p for p in pieces if p.iso_class == cls)
                       for cls in sorted(remap.values())}
    mult_spaces = _multiplicity_spaces(m, pieces, representatives)
    return Decomposition(module=m, pieces=pieces,
                         multiplicity_spaces=mult_spaces,
                         representatives=representatives)


def _multiplicity_spaces(m: Module, pieces, representatives) -> dict:
    """Realize each multiplicity space inside m as {f(w)}, w the first basis
    vector of the class representative.

    The homs are solved into the direct sum of the pieces, whose action is
    exactly block-diagonal, so the intertwiner system splits into one small
    system per piece; T = [piece bases], an isomorphism from that direct sum
    onto m (the pieces are invariant and independent), carries them back.
    T is built per class, and it and the homs are dropped before the
    class's span is formed, so neither is live through a canonical_span.
    """
    direct = DirectSum(m.algebra, [p.module for p in pieces])
    out = {}
    for cls, rep in representatives.items():
        homs = hom_space(rep.module, direct)
        mult = sum(1 for p in pieces if p.iso_class == cls)
        if len(homs) != mult:
            raise NumericalInconsistency(
                f"hom dimension {len(homs)} != multiplicity {mult} for class {cls}")
        t = np.hstack([p.basis for p in pieces])
        vectors = [t @ f[:, 0] for f in homs]
        del t, homs
        span = canonical_span(vectors, m.algebra.tol)
        if span.shape[1] != mult:
            raise NumericalInconsistency(
                f"evaluation at the fixed vector dropped rank for class {cls}")
        out[cls] = span
    return out


def invariant_subspace(m: Module) -> np.ndarray:
    """Fixed space of a module over a plain group algebra.

    Computed twice: as the image of the symmetrizer (mean of all basis
    actions) and as the joint fixed space of rho(g) - I; a dimension mismatch
    raises NumericalInconsistency.  Returns the joint-fixed-space basis.
    """
    tol = m.algebra.tol
    stack = m.rho
    symmetrizer = stack.mean(axis=0)
    # the symmetrizer is idempotent (nonzero singular values >= 1) and the
    # stacked blocks rho(g) - I are O(1); floor the rank scales so an
    # all-noise matrix reads as zero
    image = numeric.orthonormal_column_basis(symmetrizer, tol, scale_floor=1.0)
    fixed = numeric.nullspace((stack - np.eye(m.dim)).reshape(-1, m.dim), tol,
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
    """Left regular representation of an algebra on itself: its images,
    scale and generator actions come from the structure constants, and its
    action stack is built, in blocks, only when read."""
    return RegularModule(a, a.dim)
