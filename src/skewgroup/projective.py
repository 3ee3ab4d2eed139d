"""Inertia subgroups, intertwiners, 2-cocycles, and twisted group algebras.

For a simple module M and a group acting on its algebra, the elements fixing
M's isomorphism class act projectively on M; the failure to act honestly is
the 2-cocycle extracted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .algebra import Algebra, make_algebra
from .errors import (
    InvalidInput,
    NotProjective,
    NotARepresentation,
    NotSimple,
    NumericalInconsistency,
)
from .group_action import AlgebraAction, FiniteGroup, make_group, subgroup_closure_check
from .repmod import (
    Decomposition,
    Module,
    decompose,
    hom_space,
    is_simple,
    make_module,
    twist,
)


@dataclass(frozen=True, eq=False)
class Cocycle:
    group: FiniteGroup        # the inertia subgroup, reindexed 0..|G_M|-1
    table: np.ndarray         # (|G_M|, |G_M|) values alpha(h, k)
    # (exponent, tol, seed) -> its twisted group algebra, built once
    twisted: dict = field(default_factory=dict, init=False, repr=False)

    def validate(self, tol) -> float:
        """Check normalization and the cocycle identity; return worst residual."""
        g = self.group
        t = self.table
        e = g.identity
        if np.any(t[e, :] != 1.0) or np.any(t[:, e] != 1.0):
            raise NotProjective("cocycle is not normalized at the identity")
        worst = 0.0
        for h in g.elements():
            for k in g.elements():
                for l in g.elements():
                    lhs = t[h, k] * t[g.mul(h, k), l]
                    rhs = t[h, g.mul(k, l)] * t[k, l]
                    worst = max(worst, abs(lhs - rhs))
        if worst > tol * max(float(np.abs(t).max()) ** 2, 1.0):
            raise NotProjective(f"cocycle identity fails: residual {worst:.3e}")
        return worst


@dataclass(frozen=True, eq=False)
class ProjectiveSystem:
    module: Module            # simple module over the base algebra
    inertia_members: tuple    # original group indices belonging to G_M
    phi: tuple                # intertwiner matrix per index of cocycle.group
    cocycle: Cocycle          # its group is G_M with its own 0-based indexing


def subgroup_as_group(group: FiniteGroup, members) -> tuple:
    """Reindex a subgroup as its own FiniteGroup; returns (group, members)."""
    members = subgroup_closure_check(group, members)
    pos = {m: i for i, m in enumerate(members)}
    n = len(members)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            table[i, j] = pos[group.mul(a, b)]
    return make_group(table), members


def _normalize_intertwiner(f: np.ndarray, dim: int) -> np.ndarray:
    """Gauge-fix a Schur intertwiner: leading entry real positive, Frobenius
    norm sqrt(dim)."""
    flat = np.abs(f).ravel()
    lead = int(flat.argmax())
    val = f.ravel()[lead]
    f = f / (val / abs(val))
    return f * (np.sqrt(dim) / np.linalg.norm(f))


def inertia(m: Module, action: AlgebraAction) -> ProjectiveSystem:
    """Inertia subgroup of a simple module with normalized intertwiners."""
    if not is_simple(m):
        raise NotSimple("inertia is defined for simple modules only")
    group = action.group
    members = []
    raw_phi = {}                # h -> (intertwiner, action stack of the twist)
    for h in group.elements():
        t = twist(m, h, action)
        homs = hom_space(t, m)
        if len(homs) > 1:
            raise NumericalInconsistency(
                f"hom space from the twist by {h} has dimension {len(homs)} > 1")
        if homs:
            members.append(h)
            raw_phi[h] = _normalize_intertwiner(homs[0], m.dim), t.rho
    inertia_group, members = subgroup_as_group(group, members)
    phi = tuple(np.eye(m.dim, dtype=np.complex128) if h == group.identity
                else raw_phi[h][0] for h in members)
    _check_intertwiners(m, [raw_phi[h][1] for h in members], members, phi)
    cocycle = extract_cocycle(phi, inertia_group, m.algebra.tol)
    return ProjectiveSystem(module=m, inertia_members=members, phi=phi,
                            cocycle=cocycle)


def _check_intertwiners(m: Module, twisted, members, phi):
    """phi(h) rho(h^{-1}(a)) = rho(a) phi(h) for every basis element a, given
    the action stack of m's twist by each member h."""
    scale = m.scale * np.sqrt(m.dim)
    for h, rho, f in zip(members, twisted, phi):
        res = np.linalg.norm(f @ rho - m.images(f), axis=(1, 2)) / scale
        bad = (res > m.algebra.tol).nonzero()[0]
        if bad.size:
            raise NotProjective(
                f"intertwiner for element {h} fails at basis index {bad[0]}")


def extract_cocycle(phi, group: FiniteGroup, tol) -> Cocycle:
    """Scalar table alpha with phi(h) phi(k) = alpha(h, k) phi(hk).

    The scalar is read off at the largest-magnitude entry of phi(hk) (best
    conditioning); the full matrix identity is then enforced at tolerance.
    """
    e = group.identity
    if not np.array_equal(phi[e], np.eye(phi[e].shape[0])):
        raise InvalidInput("phi at the identity must be exactly the identity")
    n = group.order
    table = np.ones((n, n), dtype=np.complex128)
    for h in range(n):
        for k in range(n):
            hk = group.mul(h, k)
            prod = phi[h] @ phi[k]
            ref = phi[hk]
            idx = np.unravel_index(int(np.abs(ref).argmax()), ref.shape)
            alpha = prod[idx] / ref[idx]
            res = numeric.rel_residual(prod - alpha * ref,
                                       float(np.linalg.norm(ref)) * max(abs(alpha), 1.0))
            if res > tol:
                raise NotProjective(
                    f"phi({h}) phi({k}) is not proportional to phi({h}*{k}): "
                    f"residual {res:.3e}")
            table[h, k] = alpha
    # The identity row/column is exact by construction (phi(1) = I).
    table[e, :] = 1.0
    table[:, e] = 1.0
    cocycle = Cocycle(group=group, table=table)
    cocycle.validate(tol)
    return cocycle


def twisted_group_algebra(cocycle: Cocycle, exponent: int, algebra) -> Algebra:
    """Algebra with basis c_h and product c_h c_k = alpha(h,k)^exponent c_{hk},
    h and k in the cocycle's group, with the tolerance and seed of `algebra`.

    Each (exponent, tol, seed) is built once and kept on the cocycle, so
    every caller with the same cocycle gets the same algebra object.
    """
    if exponent not in (1, -1):
        raise InvalidInput("exponent must be +1 or -1")
    key = (exponent, algebra.tol, algebra.seed)
    if key in cocycle.twisted:
        return cocycle.twisted[key]
    cocycle.validate(algebra.tol)
    group = cocycle.group
    n = group.order
    h, k = np.divmod(np.arange(n * n), n)
    values = np.array([cocycle.table[a, b] ** exponent for a, b in zip(h, k)],
                      dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    unit[group.identity] = 1.0
    alg = make_algebra(n, (h, k, group.table.ravel(), values), unit,
                       tol=algebra.tol, seed=algebra.seed)
    cocycle.twisted[key] = alg
    return alg


def module_over_twisted(system: ProjectiveSystem) -> Module:
    """M as a module over the exponent +1 twisted group algebra, c_h -> phi(h)."""
    alg = twisted_group_algebra(system.cocycle, 1, system.module.algebra)
    try:
        return make_module(alg, system.phi)
    except NotARepresentation as exc:
        raise NotProjective(f"phi does not represent the twisted algebra: {exc}")


def contragredient(w: Module, cocycle: Cocycle) -> Module:
    """Dual of a module over the cocycle's twisted group algebra, a module
    over the inverse-cocycle algebra.

    The basis element indexed by g acts on the dual by the transpose of the
    inverse of its action on w.
    """
    n = cocycle.group.order
    if w.algebra.dim != n:
        raise InvalidInput("module algebra does not match the group order")
    alg = twisted_group_algebra(cocycle, -1, w.algebra)
    rho = np.linalg.inv(w.rho).transpose(0, 2, 1)
    return make_module(alg, rho)


def projective_isotypics(system: ProjectiveSystem) -> Decomposition:
    """Isotypic decomposition of M over the twisted group algebra.

    Verifies the identification of each isotypic component with
    (multiplicity space) tensor (representative): evaluating the hom basis on
    all representative basis vectors must span the component bijectively.
    """
    m = module_over_twisted(system)
    tol = m.algebra.tol
    dec = decompose(m)
    for cls in dec.class_ids():
        rep = dec.representatives[cls]
        homs = hom_space(rep.module, m)
        cols = np.hstack([f for f in homs])  # columns f_j(e_t), j major
        iso = dec.isotypics[cls]
        expected = iso.shape[1]
        if numeric.rank(cols, tol) != expected:
            raise NumericalInconsistency(
                f"multiplicity-tensor-representative map is not bijective for "
                f"class {cls}")
        proj_res = numeric.rel_residual(cols - iso @ (iso.conj().T @ cols), 1.0)
        if proj_res > tol:
            raise NumericalInconsistency(
                f"hom image leaves the isotypic component for class {cls}: "
                f"residual {proj_res:.3e}")
    return dec
