"""The skew group algebra A x| G and its module machinery.

Basis of A x| G is indexed (algebra index major, group index minor):
(i, g) -> i * |G| + g, carrying the product (b_i g)(b_j h) = (b_i g(b_j)) gh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numeric
from .algebra import (
    Algebra,
    SubalgebraEmbedding,
    corner_algebra,
    fixed_subalgebra,
    join,
    make_algebra,
)
from .errors import AlgebraMismatch, CocycleMismatch, InvalidInput
from .group_action import AlgebraAction, FiniteGroup, left_cosets
from .projective import (
    ProjectiveSystem,
    subgroup_as_group,
    twisted_group_algebra,
)
from .repmod import (
    Module,
    compress,
    make_module,
    restrict,
    same_algebra,
    validate_module,
)


@dataclass(frozen=True, eq=False)
class SkewAlgebra:
    base: Algebra
    group: FiniteGroup
    action: AlgebraAction
    alg: Algebra              # dimension dim(base) * |G|
    members: tuple            # the elements of `group` in the parent group

    def index(self, i: int, g: int) -> int:
        return i * self.group.order + g

    def embed_base(self, x) -> np.ndarray:
        """Coordinates of an algebra element a = a * identity."""
        out = np.zeros(self.alg.dim, dtype=np.complex128)
        out[self.group.identity::self.group.order] = np.asarray(x)
        return out

    def embed_group(self, g: int) -> np.ndarray:
        """Coordinates of a group element g = 1_A * g."""
        out = np.zeros(self.alg.dim, dtype=np.complex128)
        out[g::self.group.order] = self.base.unit
        return out

    def base_embedding(self) -> SubalgebraEmbedding:
        """A inside A x| G along a -> a * identity."""
        inclusion = np.zeros((self.alg.dim, self.base.dim), dtype=np.complex128)
        inclusion[self.group.identity::self.group.order] = np.eye(self.base.dim)
        return SubalgebraEmbedding(parent=self.alg, sub=self.base,
                                   inclusion=inclusion)


def skew_group_algebra(action: AlgebraAction) -> SkewAlgebra:
    """Build and validate A x| G from a validated action of G on A."""
    base, group = action.target, action.group
    da, ng = base.dim, group.order
    dim = da * ng
    # b_i g(b_j) = sum_m mats[g][m, j] b_i b_m: each base nonzero c[i, m, k]
    # meets row m of every action matrix, and the terms of one slot
    # (g, i, j, k) are summed in increasing m
    ci, cm, ck, cv = base.nonzeros
    mats = np.array(action.mats)
    g, rows, cols = np.nonzero(mats)
    by_row = np.argsort(rows, kind="stable")
    starts = np.searchsorted(rows[by_row], np.arange(da + 1))
    t, s = join(starts[cm], starts[cm + 1])
    s = by_row[s]
    slots, at = np.unique(((g[s] * da + ci[t]) * da + cols[s]) * da + ck[t],
                          return_inverse=True)
    values = numeric.scatter(at, cv[t] * mats[g[s], rows[s], cols[s]],
                             slots.size)
    # (b_i g)(b_j h) = b_i g(b_j) gh for every h
    sg, si, sj, sk = (slots // da ** 3, slots // da ** 2 % da,
                      slots // da % da, slots % da)
    nonzeros = (np.repeat(si * ng + sg, ng),
                (sj[:, None] * ng + np.arange(ng)).ravel(),
                (sk[:, None] * ng + group.table[sg]).ravel(),
                np.repeat(values, ng))
    unit = np.zeros(dim, dtype=np.complex128)
    unit[group.identity::ng] = base.unit
    # generators: each b_i at the identity of G, then each g = 1_A g
    gens = np.zeros((da + ng, dim), dtype=np.complex128)
    gens[:da].reshape(da, da, ng)[:, :, group.identity] = np.eye(da)
    gens[da:].reshape(ng, da, ng)[np.arange(ng), :, np.arange(ng)] = base.unit
    gens.flags.writeable = False       # so make_algebra keeps it without a copy
    alg = make_algebra(dim, nonzeros, unit, tol=base.tol, generators=gens,
                       seed=base.seed)
    return SkewAlgebra(base=base, group=group, action=action, alg=alg,
                       members=tuple(group.elements()))


def symmetrizer(s: SkewAlgebra) -> np.ndarray:
    """The idempotent averaging over the group: |G|^{-1} sum_g g."""
    e = np.zeros(s.alg.dim, dtype=np.complex128)
    for g in s.group.elements():
        e += s.embed_group(g)
    return e / s.group.order


@dataclass(frozen=True, eq=False)
class PhiPsiReport:
    fixed: SubalgebraEmbedding      # A^G inside A
    corner: SubalgebraEmbedding     # e (A x| G) e inside A x| G
    phi_bijective: bool
    phi_mult_residual: float
    psi_bijective: bool
    psi_left_residual: float
    psi_right_residual: float

    @property
    def passed(self) -> bool:
        return self.phi_bijective and self.psi_bijective


def check_phi_psi(s: SkewAlgebra) -> PhiPsiReport:
    """Verify the corner isomorphism a -> ae of A^G and the bimodule map
    a -> ae of A."""
    alg = s.alg
    tol = alg.tol
    fixed = fixed_subalgebra(s.base, s.action)
    e = symmetrizer(s)
    corner = corner_algebra(alg, e)
    k = fixed.sub.dim

    phi_cols = []
    for t in range(k):
        a_coords = fixed.inclusion[:, t]
        phi_cols.append(alg.product(s.embed_base(a_coords), e))
    phi = np.column_stack(phi_cols)
    in_corner = numeric.rel_residual(
        phi - corner.inclusion @ (corner.inclusion.conj().T @ phi), 1.0)
    phi_bij = (numeric.rank(phi, tol) == k == corner.sub.dim
               and in_corner <= tol)

    mult_res = 0.0
    for si in range(k):
        for ti in range(k):
            xy = fixed.parent.product(fixed.inclusion[:, si], fixed.inclusion[:, ti])
            lhs = alg.product(s.embed_base(xy), e)
            rhs = alg.product(phi_cols[si], phi_cols[ti])
            mult_res = max(mult_res, numeric.rel_residual(lhs - rhs, 1.0))

    eye = np.eye(s.base.dim)
    psi = np.column_stack([alg.product(s.embed_base(eye[:, i]), e)
                           for i in range(s.base.dim)])
    right_ideal = numeric.orthonormal_column_basis(alg.right_mult(e), tol)
    psi_in = numeric.rel_residual(
        psi - right_ideal @ (right_ideal.conj().T @ psi), 1.0)
    psi_bij = (numeric.rank(psi, tol) == s.base.dim == right_ideal.shape[1]
               and psi_in <= tol)

    # Psi intertwines the left skew action on A ((a g) . b = a g(b)) ...
    left_res = 0.0
    for g in s.group.elements():
        for i in range(s.base.dim):
            for j in range(s.base.dim):
                ag = np.zeros(alg.dim, dtype=np.complex128)
                ag[s.index(i, g)] = 1.0
                acted = s.base.product(eye[:, i], s.action.mats[g][:, j])
                lhs = alg.product(s.embed_base(acted), e)
                rhs = alg.product(ag, psi[:, j])
                left_res = max(left_res, numeric.rel_residual(lhs - rhs, 1.0))
    # ... and the right multiplication by A^G.
    right_res = 0.0
    for j in range(s.base.dim):
        for t in range(k):
            x = fixed.inclusion[:, t]
            lhs = alg.product(s.embed_base(s.base.product(eye[:, j], x)), e)
            rhs = alg.product(psi[:, j], s.embed_base(x))
            right_res = max(right_res, numeric.rel_residual(lhs - rhs, 1.0))

    phi_ok = phi_bij and mult_res <= tol * 10
    psi_ok = psi_bij and left_res <= tol * 10 and right_res <= tol * 10
    return PhiPsiReport(fixed=fixed, corner=corner,
                        phi_bijective=phi_ok, phi_mult_residual=mult_res,
                        psi_bijective=psi_ok, psi_left_residual=left_res,
                        psi_right_residual=right_res)


def corner_module(n: Module, corner: SubalgebraEmbedding, e) -> tuple:
    """(Module over the corner algebra on the image of rho(e), basis).

    A zero corner gives a (None, empty basis) pair.
    """
    rest = restrict(n, corner)      # first: rejects a module over another algebra
    # rho(e) is idempotent, so its significant singular values are >= 1; the
    # floor keeps a numerically-zero corner from being mistaken for rank one.
    basis = numeric.orthonormal_column_basis(n.act(e), n.algebra.tol,
                                             scale_floor=1.0)
    if basis.shape[1] == 0:
        return None, basis
    en = compress(rest, basis)
    validate_module(en)
    return en, basis


def sub_skew(s: SkewAlgebra, members) -> SkewAlgebra:
    """Materialize A x| H for a subgroup H given by its members in s.group.

    H acts by the restriction of s's validated action, which is valid by
    construction and is not validated again."""
    subgroup, members = subgroup_as_group(s.group, members)
    action = AlgebraAction(group=subgroup, target=s.base,
                           mats=tuple(s.action.mats[h] for h in members))
    return replace(skew_group_algebra(action), members=members)


def induce(m: Module, s: SkewAlgebra, sub: SkewAlgebra) -> Module:
    """Induction from A x| H to A x| G along coset representatives.

    `sub` is A x| H as `sub_skew(s, members)` builds it, and H is read from
    `sub.members`.  Basis: coset-representative major, module basis minor.  The action sends
    g_i (x) m to g_l (x) (g_l^{-1}(a) h) m where g g_i = g_l h with h in H.
    """
    if not same_algebra(m.algebra, sub.alg):
        raise AlgebraMismatch("module is not over the sub skew algebra")
    group, members = s.group, np.array(sub.members)
    reps = left_cosets(group, members)
    d, k, da = m.dim, len(reps), s.base.dim
    # coset l and local index t of each element g_l h_t
    cosets = group.table[np.ix_(reps, members)]
    coset, local = np.empty((2, group.order), dtype=np.int64)
    coset[cosets] = np.arange(k)[:, None]
    local[cosets] = np.arange(members.size)
    stack = m.rho.reshape(da, members.size, d, d)
    rho = np.zeros((da, group.order, k * d, k * d), dtype=np.complex128)
    for g in group.elements():
        for i, w in enumerate(group.table[g, reps]):
            l = coset[w]
            # block_j = sum_p mats[g_l^{-1}][p, j] rho(b_p h), g g_i = g_l h
            rho[:, g, l * d:(l + 1) * d, i * d:(i + 1) * d] = np.tensordot(
                s.action.mats[group.inv(reps[l])], stack[:, local[w]],
                axes=(0, 0))
    return make_module(s.alg, rho.reshape(da * group.order, k * d, k * d))


def extend_to_skew(system: ProjectiveSystem, v: Module,
                   s_inertia: SkewAlgebra) -> Module:
    """The module on M (x) V over A x| G_M, M the system's module:
    (a h)(m (x) v) = a phi(h) m (x) c_h v.

    V must be a module over the inverse-cocycle twisted group algebra; the
    representation property of the result is re-validated.
    """
    m = system.module
    expected = twisted_group_algebra(system.cocycle, -1, m.algebra)
    if not same_algebra(v.algebra, expected):
        raise CocycleMismatch(
            "V is not a module over the inverse-cocycle twisted group algebra")
    if s_inertia.members != system.inertia_members:
        raise InvalidInput("skew algebra group does not match the inertia subgroup")
    # kron(b_j phi(h), V(h)) for every (j, h), basis element major
    left = m.rho[:, None] @ np.array(system.phi)
    return make_module(s_inertia.alg, numeric.kron_stack(left, v.rho).reshape(
        -1, m.dim * v.dim, m.dim * v.dim))
