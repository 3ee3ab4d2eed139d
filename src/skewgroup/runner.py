"""Task dispatch: turns a parsed job into verification reports.

Expensive shared artifacts (the skew algebra, inertia systems, isotypic
decompositions) are computed on first use and reused by the later tasks of
the job, so a call that runs one task derives only what that task reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .algebra import is_semisimple
from .errors import (
    DegenerateSample,
    InvalidInput,
    NumericalInconsistency,
    ParseError,
    SkewGroupError,
    ValidationError,
)
from .jobs import JobSpec
from .projective import inertia
from .repmod import same_algebra
from .skew import check_phi_psi, skew_group_algebra, symmetrizer
from .theorems import (
    VerificationReport,
    build_context,
    check_invariant_theory,
    clifford_correspondence,
    complete_reducibility,
    hom_inv_check,
    induced_simplicity,
    main_theorem,
    simple_classes,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@dataclass
class JobContext:
    job: JobSpec
    _skew: object = None
    _systems: dict = field(default_factory=dict)
    _contexts: dict = field(default_factory=dict)

    @property
    def skew(self):
        if self._skew is None:
            self._skew = skew_group_algebra(self.job.action)
        return self._skew

    def system(self, name):
        if name not in self._systems:
            self._systems[name] = inertia(self.job.modules[name],
                                          self.job.action)
        return self._systems[name]

    def context(self, name):
        if name not in self._contexts:
            self._contexts[name] = build_context(self.job.action,
                                                 self.job.modules[name])
        return self._contexts[name]

    def report(self, name) -> VerificationReport:
        """An empty report of the task name at the job's seed and tolerance."""
        a = self.job.algebra
        return VerificationReport(name, a.seed, a.tol)


def _task_semisimple(ctx: JobContext, rec) -> VerificationReport:
    job = ctx.job
    rep = ctx.report("semisimple")
    rep.add("base_algebra_semisimple", is_semisimple(job.algebra),
            dims={"dim": job.algebra.dim})
    return rep


def _task_inertia(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("inertia")
    system = ctx.system(rec["module"])
    rep.add("inertia_subgroup_computed", True,
            dims={"group_order": ctx.job.group.order,
                  "inertia_order": system.cocycle.group.order},
            witness="members=" + ",".join(str(h) for h in system.inertia_members))
    return rep


def _task_cocycle(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("cocycle")
    system = ctx.system(rec["module"])
    coc = system.cocycle
    e = coc.group.identity
    normalized = (np.all(coc.table[e, :] == 1.0)
                  and np.all(coc.table[:, e] == 1.0))
    rep.add("normalized_at_identity", normalized)
    residual = coc.validate(ctx.job.algebra.tol)
    rep.add("cocycle_identity", True, residual=residual,
            dims={"inertia_order": coc.group.order})
    deviation = float(np.abs(np.abs(coc.table) - 1.0).max())
    rep.add("unimodularity_deviation_reported", True, residual=deviation)
    return rep


def _task_skew(ctx: JobContext, rec) -> VerificationReport:
    job = ctx.job
    rep = ctx.report("skew")
    s = ctx.skew
    rep.add("skew_algebra_valid", True,
            dims={"dim": s.alg.dim, "dim_base": s.base.dim,
                  "group_order": s.group.order})
    worst = 0.0
    scale = s.alg.scale ** 2
    probes = numeric.complex_probes(
        np.random.default_rng([job.algebra.seed, 77]), 100, 3, s.alg.dim)
    for x, y, z in probes:
        delta = s.alg.product(s.alg.product(x, y), z) - s.alg.product(x, s.alg.product(y, z))
        worst = max(worst, numeric.rel_residual(delta, scale * s.alg.dim ** 1.5))
    rep.add("random_triple_associativity", worst <= 1e-8, residual=worst)
    if job.group.order == 1:
        rep.add("trivial_group_relabel_exact", same_algebra(s.alg, job.algebra))
    e = symmetrizer(s)
    idem = numeric.rel_residual(s.alg.product(e, e) - e, 1.0)
    rep.add("symmetrizer_idempotent", idem <= job.algebra.tol, residual=idem)
    return rep


def _task_phi_psi(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("phi_psi")
    result = check_phi_psi(ctx.skew)
    rep.add("phi_bijective_multiplicative", result.phi_bijective,
            dims={"dim_invariants": result.fixed.sub.dim,
                  "dim_corner": result.corner.sub.dim},
            residual=result.phi_mult_residual)
    rep.add("psi_bimodule_isomorphism", result.psi_bijective,
            residual=max(result.psi_left_residual, result.psi_right_residual))
    return rep


def _task_invariant_theory(ctx: JobContext, rec) -> VerificationReport:
    return check_invariant_theory(ctx.skew)


def _task_clifford(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("clifford")
    simples = {cls: p.module
               for cls, p in simple_classes(ctx.skew).representatives.items()}
    for cls, n in simples.items():
        rep.include(f"N{cls}_", clifford_correspondence(n, ctx.skew))
    return rep


def _task_induced_simplicity(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("induced_simplicity")
    mctx = ctx.context(rec["module"])
    # The job's skew algebra, not the context's equal copy, which is not
    # derived: earlier tasks cached its trace form, which `is_simple` of each
    # induced module reads.
    for gamma in mctx.iso.class_ids():
        sub = induced_simplicity(mctx.system, mctx.iso, ctx.skew, gamma)
        rep.include(f"gamma{gamma}_", sub)
    return rep


def _task_hom_inv(ctx: JobContext, rec) -> VerificationReport:
    rep = ctx.report("hom_inv")
    mctx = ctx.context(rec["module"])
    for gamma in mctx.iso.class_ids():
        w = mctx.iso.representatives[gamma].module
        sub = hom_inv_check(w, w, mctx.system.cocycle)
        rep.include(f"gamma{gamma}_", sub)
    return rep


def _task_main_theorem(ctx: JobContext, rec) -> VerificationReport:
    return main_theorem(ctx.context(rec["module"]))


def _task_complete_reducibility(ctx: JobContext, rec) -> VerificationReport:
    return complete_reducibility(ctx.context(rec["module"]))


_DISPATCH = {
    "semisimple": _task_semisimple,
    "inertia": _task_inertia,
    "cocycle": _task_cocycle,
    "skew": _task_skew,
    "phi_psi": _task_phi_psi,
    "invariant_theory": _task_invariant_theory,
    "clifford": _task_clifford,
    "induced_simplicity": _task_induced_simplicity,
    "hom_inv": _task_hom_inv,
    "main_theorem": _task_main_theorem,
    "complete_reducibility": _task_complete_reducibility,
}


def run_job(job: JobSpec, task_filter=None):
    """Run all (or filtered) tasks; returns (results, exit_code).

    results is a list of (task record, VerificationReport, seconds).
    """
    ctx = JobContext(job=job)
    results = []
    exit_code = EXIT_PASS
    for rec in job.tasks:
        if task_filter and rec["task"] != task_filter:
            continue
        start = time.perf_counter()
        try:
            report = _DISPATCH[rec["task"]](ctx, rec)
            code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
        except SkewGroupError as exc:
            report = ctx.report(rec["task"])
            report.add("error", False, witness=f"{type(exc).__name__}: {exc}")
            if isinstance(exc, (NumericalInconsistency, DegenerateSample)):
                code = EXIT_NUMERICAL
            elif isinstance(exc, (ParseError, ValidationError, InvalidInput)):
                code = EXIT_VALIDATION
            else:
                code = EXIT_CHECK_FAILED
        elapsed = time.perf_counter() - start
        results.append((rec, report, elapsed))
        exit_code = max(exit_code, code)
    return results, exit_code
