"""The skew group algebra A x| G and its module machinery.

Basis of A x| G is indexed (algebra index major, group index minor):
(i, g) -> i * |G| + g, carrying the product (b_i g)(b_j h) = (b_i g(b_j)) gh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric
from .algebra import Algebra, SubalgebraEmbedding, corner_algebra, make_algebra
from .errors import (
    CocycleMismatch,
    InvalidInput,
    ModuleAlgebraMismatch,
    NotARepresentation,
)
from .group_action import AlgebraAction, FiniteGroup, left_cosets, make_action
from .projective import (
    ProjectiveSystem,
    subgroup_as_group,
    twisted_group_algebra,
)
from .repmod import Module, make_module


@dataclass(frozen=True, eq=False)
class SkewAlgebra:
    base: Algebra
    group: FiniteGroup
    action: AlgebraAction
    alg: Algebra              # dimension dim(base) * |G|

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


def skew_group_algebra(base: Algebra, group: FiniteGroup,
                       action: AlgebraAction, *,
                       seed=numeric.DEFAULT_SEED) -> SkewAlgebra:
    """Build and validate A x| G from a validated action."""
    if action.group is not group or action.target is not base:
        action = make_action(group, base, action.mats)
    da, ng = base.dim, group.order
    dim = da * ng
    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    for g in group.elements():
        # coefficients of b_i * g(b_j) for all i, j at once
        prod = np.einsum("mj,imk->ijk", action.mats[g], base.mult)
        for h in group.elements():
            gh = group.mul(g, h)
            c[g::ng, h::ng, gh::ng] = prod
    unit = np.zeros(dim, dtype=np.complex128)
    unit[group.identity::ng] = base.unit
    gens = []
    eye = np.eye(da, dtype=np.complex128)
    for i in range(da):
        v = np.zeros(dim, dtype=np.complex128)
        v[group.identity::ng] = eye[:, i]
        gens.append(v)
    for g in group.elements():
        v = np.zeros(dim, dtype=np.complex128)
        v[g::ng] = base.unit
        gens.append(v)
    alg = make_algebra(dim, c, unit, tol=base.tol, generators=gens, seed=seed)
    return SkewAlgebra(base=base, group=group, action=action, alg=alg)


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


def check_phi_psi(s: SkewAlgebra, fixed: SubalgebraEmbedding) -> PhiPsiReport:
    """Verify the corner isomorphism a -> ae and the bimodule map a -> ae."""
    alg = s.alg
    tol = alg.tol
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

    psi = np.column_stack([alg.product(s.embed_base(np.eye(s.base.dim)[:, i]), e)
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
                acted = s.base.product(np.eye(s.base.dim)[:, i],
                                       s.action.mats[g][:, j])
                lhs = alg.product(s.embed_base(acted), e)
                rhs = alg.product(ag, psi[:, j])
                left_res = max(left_res, numeric.rel_residual(lhs - rhs, 1.0))
    # ... and the right multiplication by A^G.
    right_res = 0.0
    for j in range(s.base.dim):
        for t in range(k):
            x = fixed.inclusion[:, t]
            lhs = alg.product(s.embed_base(s.base.product(np.eye(s.base.dim)[:, j], x)), e)
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
    tol = n.algebra.tol
    proj = n.act(e)
    # rho(e) is idempotent, so its significant singular values are >= 1; the
    # floor keeps a numerically-zero corner from being mistaken for rank one.
    basis = numeric.orthonormal_column_basis(proj, tol, scale_floor=1.0)
    if basis.shape[1] == 0:
        return None, basis
    rho = []
    scale = max(float(np.abs(proj).max()), 1.0)
    for t in range(corner.sub.dim):
        rb = n.act(corner.inclusion[:, t]) @ basis
        small = basis.conj().T @ rb
        res = numeric.rel_residual(rb - basis @ small, scale)
        if res > tol:
            raise NotARepresentation(
                f"corner image is not invariant under corner element {t}: "
                f"residual {res:.3e}")
        rho.append(small)
    return make_module(corner.sub, rho), basis


def sub_skew(s: SkewAlgebra, members) -> tuple:
    """Materialize A x| H for a subgroup H; returns (SkewAlgebra, members)."""
    subgroup, members = subgroup_as_group(s.group, members)
    mats = tuple(s.action.mats[h] for h in members)
    action = make_action(subgroup, s.base, mats)
    return skew_group_algebra(s.base, subgroup, action), members


def induce(m: Module, s: SkewAlgebra, members,
           sub: SkewAlgebra = None) -> Module:
    """Induction from A x| H to A x| G along coset representatives.

    Basis: coset-representative major, module basis minor.  The action sends
    g_i (x) m to g_l (x) (g_l^{-1}(a) h) m where g g_i = g_l h with h in H.
    """
    if sub is None:
        sub, members = sub_skew(s, members)
    else:
        _, members = subgroup_as_group(s.group, members)
    if m.algebra.dim != sub.alg.dim or not np.allclose(
            m.algebra.mult, sub.alg.mult, atol=s.alg.tol * sub.alg.scale):
        raise ModuleAlgebraMismatch("module is not over the sub skew algebra")
    group = s.group
    reps = left_cosets(group, members)
    k = len(reps)
    nh = len(members)
    local = {h: t for t, h in enumerate(members)}
    # coset index of each group element
    coset_of = {}
    for l, r in enumerate(reps):
        for h in members:
            coset_of[group.mul(r, h)] = l
    d = m.dim
    dim = k * d
    da, ng = s.base.dim, group.order
    rho = []
    for j in range(da):
        for g in group.elements():
            mat = np.zeros((dim, dim), dtype=np.complex128)
            for i, gi in enumerate(reps):
                w = group.mul(g, gi)
                l = coset_of[w]
                h = group.mul(group.inv(reps[l]), w)
                acoords = s.action.mats[group.inv(reps[l])][:, j]
                block = np.zeros((d, d), dtype=np.complex128)
                ht = local[h]
                for p in range(da):
                    if acoords[p] != 0:
                        block += acoords[p] * m.rho[p * nh + ht]
                mat[l * d:(l + 1) * d, i * d:(i + 1) * d] = block
            rho.append(mat)
    return make_module(s.alg, rho)


def extend_to_skew(m: Module, system: ProjectiveSystem, v: Module,
                   s_inertia: SkewAlgebra) -> Module:
    """The module on M (x) V over A x| G_M: (a h)(m (x) v) = a phi(h) m (x) c_h v.

    V must be a module over the inverse-cocycle twisted group algebra; the
    representation property of the result is re-validated.
    """
    tol = m.algebra.tol
    expected = twisted_group_algebra(system.inertia_group, system.cocycle, -1, tol)
    if v.algebra.dim != expected.dim or not np.allclose(
            v.algebra.mult, expected.mult, atol=tol * expected.scale):
        raise CocycleMismatch(
            "V is not a module over the inverse-cocycle twisted group algebra")
    if s_inertia.group.order != system.inertia_group.order or not np.array_equal(
            s_inertia.group.table, system.inertia_group.table):
        raise InvalidInput("skew algebra group does not match the inertia subgroup")
    da = m.algebra.dim
    nh = system.inertia_group.order
    rho = []
    for j in range(da):
        bj = m.rho[j]
        for h in range(nh):
            rho.append(np.kron(bj @ system.phi[h], v.rho[h]))
    return make_module(s_inertia.alg, rho)
