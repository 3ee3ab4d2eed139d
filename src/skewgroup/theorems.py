"""End-to-end machine verification of the structural results.

Each checker returns a VerificationReport: a flat list of named records with
pass/fail, dimensions, and the worst residual, suitable for JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

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

    def include(self, prefix: str, other: VerificationReport) -> None:
        """Append the checks of another report, each name prefixed."""
        self.checks += [replace(c, name=prefix + c.name) for c in other.checks]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": int(self.seed),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in self.checks],
        }


def _module_iso(m: Module, n: Module):
    """Isomorphism certificate: dim equality, nonzero hom, invertible sample."""
    if m.dim != n.dim:
        return False, 0.0
    homs = hom_space(m, n)
    if not homs:
        return False, 0.0
    rng = np.random.default_rng([m.algebra.seed, m.dim])
    coeffs = rng.standard_normal(len(homs)) + 1j * rng.standard_normal(len(homs))
    sample = sum(c * f for c, f in zip(coeffs, homs))
    return numeric.rank(sample, m.algebra.tol) == m.dim, float(len(homs))


def simple_classes(s: SkewAlgebra):
    """Representative simple modules of A x| G via its regular module.

    Callers keep only what they read: one that needs only the
    representatives takes their modules and drops the decomposition, whose
    pieces would otherwise stay live through everything built after it.
    """
    return decompose(regular_module(s.alg))


def check_invariant_theory(s: SkewAlgebra) -> VerificationReport:
    """eN simple over e(A x| G)e for every simple N with eN != 0, and every
    simple corner class is hit."""
    rep = VerificationReport("invariant_theory", s.alg.seed, s.alg.tol)
    if not is_semisimple(s.base):
        raise NotSemisimple("base algebra is not semisimple")
    simples = {cls: p.module
               for cls, p in simple_classes(s).representatives.items()}
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    corner_reps = {cls: p.module for cls, p in
                   decompose(regular_module(corner.sub)).representatives.items()}
    hit = set()
    nonzero = 0
    for cls, n in simples.items():
        en, basis = corner_module(n, corner, e)
        if en is None:
            rep.add(f"class{cls}_corner_zero", True,
                    dims={"dim_N": n.dim, "dim_eN": 0})
            continue
        nonzero += 1
        simple = is_simple(en)
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


def clifford_correspondence(n: Module, s: SkewAlgebra) -> VerificationReport:
    """Reconstruct a simple A x| G-module as Ind(A^lambda (x) H^nu)."""
    tol = s.alg.tol
    rep = VerificationReport(name="clifford", seed=s.alg.seed, tol=tol)
    if not is_simple(n):
        raise NotSimple("clifford correspondence starts from a simple module")
    rest = restrict(n, s.base_embedding())
    dec = decompose(rest)
    piece = dec.pieces[0]
    lam = piece.module                 # simple A-module A^lambda
    system = inertia(lam, s.action)
    members = system.inertia_members

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
        phi_inv = np.linalg.inv(system.phi[t])
        for j, f in enumerate(homs):
            img = ph @ f @ phi_inv
            coords = pinv @ img.ravel()
            worst = max(worst, numeric.rel_residual(img.ravel() - flat @ coords, 1.0))
            mats[:, j] = coords
        nu_rho.append(mats)
    rep.add("twisted_action_closes_on_Hnu", worst <= tol * 100, residual=worst)
    nu_alg = twisted_group_algebra(system.cocycle, -1, s.alg)
    nu_mod = make_module(nu_alg, nu_rho)
    rep.add("Hnu_simple", is_simple(nu_mod), dims={"dim_Hnu": nu_mod.dim})

    ssub = sub_skew(s, members)
    ind = induce(extend_to_skew(system, nu_mod, ssub), s, ssub)
    iso, hom_dim = _module_iso(ind, n)
    rep.add("induced_isomorphic_to_N", iso,
            dims={"dim_N": n.dim, "dim_Ind": ind.dim,
                  "index_G_H": s.group.order // len(members),
                  "dim_lambda": lam.dim, "hom_dim": int(hom_dim)})
    return rep


def induced_simplicity(system: ProjectiveSystem, iso, s: SkewAlgebra,
                       gamma: int) -> VerificationReport:
    """Ind(M (x) W_gamma^*) is a simple module over s = A x| G, with the
    dimension law.

    W_gamma is the representative of class gamma of iso, the projective
    isotypic decomposition of the inertia system of M.
    """
    rep = VerificationReport("induced_simplicity", s.alg.seed, s.alg.tol)
    w = iso.representatives[gamma].module
    wdual = contragredient(w, system.cocycle)
    ssub = sub_skew(s, system.inertia_members)
    ind = induce(extend_to_skew(system, wdual, ssub), s, ssub)
    index = s.group.order // system.cocycle.group.order
    expected = index * system.module.dim * w.dim
    rep.add("dimension_law", ind.dim == expected,
            dims={"dim_induced": ind.dim, "index": index,
                  "dim_M": system.module.dim, "dim_W": w.dim})
    rep.add("induced_simple", is_simple(ind), dims={"dim_induced": ind.dim})
    return rep


def _tensor_invariants(plain: Algebra, m: Module, n: Module) -> np.ndarray:
    """Fixed space of M (x) N under the plain group algebra, where c_g acts
    by the Kronecker product of the actions of c_g on M and on N."""
    return invariant_subspace(
        make_module(plain, numeric.kron_stack(m.rho, n.rho)))


def hom_inv_check(m: Module, n: Module, cocycle: Cocycle) -> VerificationReport:
    """dim Hom(M, N) over the cocycle's twisted algebra equals the dimension
    of the invariant subspace of M^* (x) N under the plain group action."""
    rep = VerificationReport("hom_inv", m.algebra.seed, m.algebra.tol)
    hom_dim = len(hom_space(m, n))
    mdual = contragredient(m, cocycle)
    plain = twisted_group_algebra(cocycle.group.trivial_cocycle, 1, m.algebra)
    inv = _tensor_invariants(plain, mdual, n)
    rep.add("hom_dim_equals_invariant_dim", hom_dim == inv.shape[1],
            dims={"hom": hom_dim, "invariants": inv.shape[1],
                  "dim_M": m.dim, "dim_N": n.dim})
    return rep


@dataclass
class MainTheoremContext:
    """The main-theorem pipeline of one simple module M.

    The inertia system and the projective isotypics are computed up front;
    A^G (`fixed`), the context's own A x| G (`skew`) and Res_{A^G} M
    (`restricted`) are derived on first read and kept, so a check pays only
    for the artifacts it reads.
    """
    action: AlgebraAction
    system: ProjectiveSystem
    iso: object

    @cached_property
    def fixed(self) -> SubalgebraEmbedding:
        return fixed_subalgebra(self.action.target, self.action)

    @cached_property
    def skew(self) -> SkewAlgebra:
        return skew_group_algebra(self.action)

    @cached_property
    def restricted(self) -> Module:
        return restrict(self.system.module, self.fixed)


def build_context(action: AlgebraAction, m: Module) -> MainTheoremContext:
    """The main-theorem context of a simple module m over the algebra the
    action acts on."""
    if not is_semisimple(action.target):
        raise NotSemisimple("main theorem requires a semisimple base algebra")
    system = inertia(m, action)
    return MainTheoremContext(action=action, system=system,
                              iso=projective_isotypics(system))


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


def main_theorem(ctx: MainTheoremContext) -> VerificationReport:
    """Each multiplicity space is simple over A^G, by two agreeing routes."""
    system, iso, fixed, s = ctx.system, ctx.iso, ctx.fixed, ctx.skew
    m, tol = system.module, s.base.tol
    rep = VerificationReport(name="main_theorem", seed=s.base.seed, tol=tol)
    if not is_simple(m):
        raise NotSimple("main theorem starts from a simple module")
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    ssub = sub_skew(s, system.inertia_members)
    index = s.group.order // system.cocycle.group.order
    plain = twisted_group_algebra(system.cocycle.group.trivial_cocycle, 1, s.base)
    for gamma in iso.class_ids():
        w = iso.representatives[gamma].module
        mult_basis = iso.multiplicity_spaces[gamma]
        direct = compress(ctx.restricted, mult_basis)
        simple_direct = is_simple(direct)
        rep.add(f"gamma{gamma}_direct_route_simple", simple_direct,
                dims={"dim_M_gamma": direct.dim, "dim_AG": fixed.sub.dim})

        wdual = contragredient(w, system.cocycle)
        ind = induce(extend_to_skew(system, wdual, ssub), s, ssub)
        rep.add(f"gamma{gamma}_dim_induced", ind.dim == index * m.dim * w.dim,
                dims={"dim_induced": ind.dim, "index": index, "dim_W": w.dim})
        en, _ = corner_module(ind, corner, e)
        inv_dim = _tensor_invariants(plain, w, wdual).shape[1]
        en_dim = en.dim if en is not None else 0
        rep.add(f"gamma{gamma}_corner_dim_identity",
                en_dim == direct.dim * inv_dim,
                dims={"dim_eM": en_dim, "dim_M_gamma": direct.dim,
                      "dim_inv": inv_dim})
        simple_corner = (en is not None and is_simple(en))
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


def complete_reducibility(ctx: MainTheoremContext) -> VerificationReport:
    """Restriction of M to A^G splits into the multiplicity-space classes with
    multiplicities equal to the simple twisted-module dimensions."""
    iso, m = ctx.iso, ctx.system.module
    rep = VerificationReport("complete_reducibility", m.algebra.seed,
                             m.algebra.tol)
    dec = decompose(ctx.restricted)
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
