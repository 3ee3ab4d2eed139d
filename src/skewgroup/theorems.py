"""End-to-end machine verification of the structural results.

Each checker returns a VerificationReport: a flat list of named records with
pass/fail, dimensions, and the worst residual, suitable for JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .algebra import (
    Algebra,
    SubalgebraEmbedding,
    canonical_span,
    corner_algebra,
    fixed_subalgebra,
    is_semisimple,
)
from .errors import NotSemisimple, NotSimple, NumericalInconsistency
from .group_action import AlgebraAction
from .projective import (
    Cocycle,
    ProjectiveSystem,
    contragredient,
    inertia,
    projective_isotypics,
    trivial_cocycle,
    twisted_group_algebra,
)
from .repmod import (
    Module,
    compress,
    decompose,
    hom_space,
    invariant_subspace,
    is_simple,
    make_module,
    regular_commutant,
    regular_module,
    restrict,
)
from .skew import (
    SkewAlgebra,
    corner_module,
    extend_to_skew,
    induce,
    skew_group_algebra,
    sub_skew,
    symmetrizer,
)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    dims: dict = field(default_factory=dict)
    residual: float = None
    witness: str = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.dims:
            out["dims"] = {k: int(v) for k, v in sorted(self.dims.items())}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    name: str
    seed: int
    tol: float
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, dims=None, residual=None, witness=None):
        self.checks.append(CheckRecord(name=name, passed=bool(passed),
                                       dims=dims or {}, residual=residual,
                                       witness=witness))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": int(self.seed),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in self.checks],
        }


def _module_iso(m: Module, n: Module, *, seed=numeric.DEFAULT_SEED):
    """Isomorphism certificate: dim equality, nonzero hom, invertible sample."""
    if m.dim != n.dim:
        return False, 0.0
    homs = hom_space(m, n)
    if not homs:
        return False, 0.0
    rng = np.random.default_rng([seed, m.dim])
    coeffs = rng.standard_normal(len(homs)) + 1j * rng.standard_normal(len(homs))
    sample = sum(c * f for c, f in zip(coeffs, homs))
    return numeric.rank(sample, m.algebra.tol) == m.dim, float(len(homs))


def simple_classes(s: SkewAlgebra, seed):
    """Representative simple modules of A x| G via its regular module."""
    reg = regular_module(s.alg)
    dec = decompose(reg, seed=seed, commutant=regular_commutant(s.alg))
    return dec


def check_invariant_theory(s: SkewAlgebra,
                           seed=numeric.DEFAULT_SEED) -> VerificationReport:
    """eN simple over e(A x| G)e for every simple N with eN != 0, and every
    simple corner class is hit."""
    rep = VerificationReport(name="invariant_theory", seed=seed, tol=s.alg.tol)
    if not is_semisimple(s.base):
        raise NotSemisimple("base algebra is not semisimple")
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    dec = simple_classes(s, seed)
    corner_dec = decompose(regular_module(corner.sub), seed=seed,
                           commutant=regular_commutant(corner.sub))
    corner_reps = {cls: corner_dec.representatives[cls].module
                   for cls in corner_dec.class_ids()}
    hit = set()
    nonzero = 0
    for cls in dec.class_ids():
        n = dec.representatives[cls].module
        en, basis = corner_module(n, corner, e)
        if en is None:
            rep.add(f"class{cls}_corner_zero", True,
                    dims={"dim_N": n.dim, "dim_eN": 0})
            continue
        nonzero += 1
        simple = is_simple(en, seed=seed)
        rep.add(f"class{cls}_eN_simple", simple,
                dims={"dim_N": n.dim, "dim_eN": en.dim})
        matches = [cc for cc, cm in corner_reps.items()
                   if cm.dim == en.dim and len(hom_space(en, cm)) > 0]
        rep.add(f"class{cls}_eN_matches_corner_class", len(matches) == 1,
                dims={"matches": len(matches)})
        hit.update(matches)
    rep.add("surjectivity_every_corner_class_hit",
            hit == set(corner_reps),
            dims={"corner_classes": len(corner_reps), "hit": len(hit),
                  "skew_classes_with_nonzero_corner": nonzero})
    rep.add("corner_dim_equals_invariants_dim",
            corner.sub.dim == fixed_subalgebra(s.base, s.action).sub.dim,
            dims={"corner": corner.sub.dim})
    return rep


def clifford_correspondence(n: Module, s: SkewAlgebra,
                            seed=numeric.DEFAULT_SEED) -> VerificationReport:
    """Reconstruct a simple A x| G-module as Ind(A^lambda (x) H^nu)."""
    tol = s.alg.tol
    rep = VerificationReport(name="clifford", seed=seed, tol=tol)
    if not is_simple(n, seed=seed):
        raise NotSimple("clifford correspondence starts from a simple module")
    rest = restrict(n, s.base_embedding())
    dec = decompose(rest, seed=seed)
    piece = dec.pieces[0]
    lam = piece.module                 # simple A-module A^lambda
    system = inertia(lam, s.action, seed=seed)
    members = system.inertia_members
    hgroup = system.inertia_group

    # P = sum_h h . A^lambda inside N
    cols = [n.act(s.embed_group(h)) @ piece.basis for h in members]
    p_basis = canonical_span(np.hstack(cols), tol)
    p_mod = compress(rest, p_basis)
    homs = hom_space(lam, p_mod)
    nu_dim = len(homs)
    rep.add("hom_A_lambda_P_nonzero", nu_dim > 0, dims={"dim_Hnu": nu_dim})

    # Twisted H-action on H^nu: c_h . f = rho_P(h) f phi(h)^{-1}
    flat = np.column_stack([f.ravel() for f in homs])
    pinv = np.linalg.pinv(flat)
    nu_rho = []
    worst = 0.0
    for t, h in enumerate(members):
        ph = p_basis.conj().T @ n.act(s.embed_group(h)) @ p_basis
        mats = np.zeros((nu_dim, nu_dim), dtype=np.complex128)
        for j, f in enumerate(homs):
            img = ph @ f @ np.linalg.inv(system.phi[t])
            coords = pinv @ img.ravel()
            worst = max(worst, numeric.rel_residual(img.ravel() - flat @ coords, 1.0))
            mats[:, j] = coords
        nu_rho.append(mats)
    rep.add("twisted_action_closes_on_Hnu", worst <= tol * 100, residual=worst)
    nu_alg = twisted_group_algebra(hgroup, system.cocycle, -1, tol)
    nu_mod = make_module(nu_alg, nu_rho)
    rep.add("Hnu_simple", is_simple(nu_mod, seed=seed),
            dims={"dim_Hnu": nu_mod.dim})

    ssub, members = sub_skew(s, members)
    ext = extend_to_skew(lam, system, nu_mod, ssub)
    ind = induce(ext, s, members, sub=ssub)
    iso, hom_dim = _module_iso(ind, n, seed=seed)
    rep.add("induced_isomorphic_to_N", iso,
            dims={"dim_N": n.dim, "dim_Ind": ind.dim,
                  "index_G_H": s.group.order // hgroup.order,
                  "dim_lambda": lam.dim, "hom_dim": int(hom_dim)})
    return rep


def induced_simplicity(system: ProjectiveSystem, gamma: int, s: SkewAlgebra,
                       dec, seed=numeric.DEFAULT_SEED) -> VerificationReport:
    """Ind(M (x) W_gamma^*) is a simple A x| G-module, with the dimension law.

    `dec` is the projective isotypic decomposition of the system's module.
    """
    rep = VerificationReport(name="induced_simplicity", seed=seed, tol=s.alg.tol)
    w = dec.representatives[gamma].module
    wdual = contragredient(w, system.inertia_group, system.cocycle, 1)
    ssub, members = sub_skew(s, system.inertia_members)
    ext = extend_to_skew(system.module, system, wdual, ssub)
    ind = induce(ext, s, members, sub=ssub)
    index = s.group.order // system.inertia_group.order
    expected = index * system.module.dim * w.dim
    rep.add("dimension_law", ind.dim == expected,
            dims={"dim_induced": ind.dim, "index": index,
                  "dim_M": system.module.dim, "dim_W": w.dim})
    rep.add("induced_simple", is_simple(ind, seed=seed),
            dims={"dim_induced": ind.dim})
    return rep


def hom_inv_check(m: Module, n: Module, group, cocycle: Cocycle,
                  seed=numeric.DEFAULT_SEED) -> VerificationReport:
    """dim Hom(M, N) over the twisted algebra equals the dimension of the
    invariant subspace of M^* (x) N under the plain group action."""
    tol = m.algebra.tol
    rep = VerificationReport(name="hom_inv", seed=seed, tol=tol)
    hom_dim = len(hom_space(m, n))
    mdual = contragredient(m, group, cocycle, 1)
    plain = twisted_group_algebra(group, trivial_cocycle(group), 1, tol)
    rho = [np.kron(mdual.rho[g], n.rho[g]) for g in group.elements()]
    tensor = make_module(plain, rho)
    inv = invariant_subspace(tensor)
    rep.add("hom_dim_equals_invariant_dim", hom_dim == inv.shape[1],
            dims={"hom": hom_dim, "invariants": inv.shape[1],
                  "dim_M": m.dim, "dim_N": n.dim})
    return rep


@dataclass
class MainTheoremContext:
    """Everything the main-theorem pipeline computes once per instance."""
    system: ProjectiveSystem
    iso: object
    fixed: SubalgebraEmbedding
    skew: SkewAlgebra
    restricted: Module


def build_context(base: Algebra, action: AlgebraAction, m: Module,
                  seed=numeric.DEFAULT_SEED) -> MainTheoremContext:
    if not is_semisimple(base):
        raise NotSemisimple("main theorem requires a semisimple base algebra")
    system = inertia(m, action, seed=seed)
    iso = projective_isotypics(system, seed)
    fixed = fixed_subalgebra(base, action)
    s = skew_group_algebra(base, action.group, action, seed=seed)
    restricted = restrict(m, fixed)
    return MainTheoremContext(system=system, iso=iso, fixed=fixed, skew=s,
                              restricted=restricted)


def _transport_corner_to_invariants(en: Module, corner: SubalgebraEmbedding,
                                    s: SkewAlgebra,
                                    fixed: SubalgebraEmbedding) -> Module:
    """Pull a corner-algebra module back to A^G along Phi: a -> ae."""
    e = symmetrizer(s)
    inc_pinv = np.linalg.pinv(corner.inclusion)
    rho = []
    for t in range(fixed.sub.dim):
        phi_t = s.alg.product(s.embed_base(fixed.inclusion[:, t]), e)
        coords = inc_pinv @ phi_t
        res = numeric.rel_residual(phi_t - corner.inclusion @ coords, 1.0)
        if res > s.alg.tol * 100:
            raise NumericalInconsistency(
                f"Phi image leaves the corner for invariant basis {t}: {res:.3e}")
        rho.append(en.act(coords))
    return make_module(fixed.sub, rho)


def main_theorem(base: Algebra, action: AlgebraAction, m: Module,
                 seed=numeric.DEFAULT_SEED, *,
                 ctx: MainTheoremContext = None) -> VerificationReport:
    """Each multiplicity space is simple over A^G, by two agreeing routes."""
    rep = VerificationReport(name="main_theorem", seed=seed, tol=base.tol)
    if ctx is None:
        ctx = build_context(base, action, m, seed)
    if not is_simple(m, seed=seed):
        raise NotSimple("main theorem starts from a simple module")
    system, iso, fixed, s = ctx.system, ctx.iso, ctx.fixed, ctx.skew
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    ssub, members = sub_skew(s, system.inertia_members)
    index = s.group.order // system.inertia_group.order
    plain = twisted_group_algebra(system.inertia_group,
                                  trivial_cocycle(system.inertia_group), 1,
                                  base.tol)
    for gamma in iso.class_ids():
        w = iso.representatives[gamma].module
        mult_basis = iso.multiplicity_spaces[gamma]
        direct = compress(ctx.restricted, mult_basis)
        simple_direct = is_simple(direct, seed=seed)
        rep.add(f"gamma{gamma}_direct_route_simple", simple_direct,
                dims={"dim_M_gamma": direct.dim, "dim_AG": fixed.sub.dim})

        wdual = contragredient(w, system.inertia_group, system.cocycle, 1)
        ext = extend_to_skew(m, system, wdual, ssub)
        ind = induce(ext, s, members, sub=ssub)
        rep.add(f"gamma{gamma}_dim_induced", ind.dim == index * m.dim * w.dim,
                dims={"dim_induced": ind.dim, "index": index, "dim_W": w.dim})
        en, _ = corner_module(ind, corner, e)
        tensor = make_module(plain,
                             [np.kron(w.rho[g], wdual.rho[g])
                              for g in system.inertia_group.elements()])
        inv_dim = invariant_subspace(tensor).shape[1]
        en_dim = en.dim if en is not None else 0
        rep.add(f"gamma{gamma}_corner_dim_identity",
                en_dim == direct.dim * inv_dim,
                dims={"dim_eM": en_dim, "dim_M_gamma": direct.dim,
                      "dim_inv": inv_dim})
        simple_corner = (en is not None and is_simple(en, seed=seed))
        rep.add(f"gamma{gamma}_corner_route_simple", simple_corner,
                dims={"dim_eM": en_dim})
        rep.add(f"gamma{gamma}_routes_agree", simple_direct == simple_corner)
        if en is not None:
            transported = _transport_corner_to_invariants(en, corner, s, fixed)
            linked = len(hom_space(direct, transported)) > 0 and \
                transported.dim == direct.dim
            rep.add(f"gamma{gamma}_routes_linked", linked,
                    dims={"dim_transported": transported.dim})
    return rep


def complete_reducibility(base: Algebra, action: AlgebraAction, m: Module,
                          seed=numeric.DEFAULT_SEED, *,
                          ctx: MainTheoremContext = None) -> VerificationReport:
    """Restriction of M to A^G splits into the multiplicity-space classes with
    multiplicities equal to the simple twisted-module dimensions."""
    rep = VerificationReport(name="complete_reducibility", seed=seed, tol=base.tol)
    if ctx is None:
        ctx = build_context(base, action, m, seed)
    iso, fixed = ctx.iso, ctx.fixed
    dec = decompose(ctx.restricted, seed=seed)
    total = sum(p.module.dim for p in dec.pieces)
    rep.add("pieces_exhaust_M", total == m.dim,
            dims={"sum_piece_dims": total, "dim_M": m.dim,
                  "pieces": len(dec.pieces)})
    matched = {}
    for gamma in iso.class_ids():
        direct = compress(ctx.restricted, iso.multiplicity_spaces[gamma])
        w_dim = iso.representatives[gamma].module.dim
        found = [cls for cls in dec.class_ids()
                 if dec.representatives[cls].module.dim == direct.dim
                 and len(hom_space(direct, dec.representatives[cls].module)) > 0]
        ok = len(found) == 1 and dec.multiplicity(found[0]) == w_dim
        rep.add(f"gamma{gamma}_multiplicity_equals_dim_W", ok,
                dims={"multiplicity": dec.multiplicity(found[0]) if found else -1,
                      "dim_W": w_dim})
        if found:
            matched[found[0]] = gamma
    rep.add("all_piece_classes_matched",
            set(matched) == set(dec.class_ids()),
            dims={"piece_classes": len(dec.class_ids()),
                  "matched": len(matched)})
    return rep
