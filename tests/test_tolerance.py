"""One tolerance per algebra: set where an algebra is built, inherited by
everything derived from it."""

import importlib
import inspect
import pkgutil

import pytest

import skewgroup
from skewgroup.algebra import (
    corner_algebra,
    direct_sum,
    fixed_subalgebra,
    matrix_algebra,
)
from skewgroup.errors import InvalidInput
from skewgroup.fixtures import fixture
from skewgroup.jobs import instance_to_job, parse_job
from skewgroup.projective import contragredient, inertia, module_over_twisted
from skewgroup.repmod import decompose, make_module, regular_module
from skewgroup.runner import run_job
from skewgroup.skew import skew_group_algebra, sub_skew, symmetrizer

# The callables through which a tolerance enters: algebra constructors, the
# fixture and job front ends, and matrix-level primitives that see no algebra.
ENTRY_POINTS = {
    "algebra.make_algebra", "algebra.matrix_algebra", "algebra.canonical_span",
    "projective.twisted_group_algebra", "projective.extract_cocycle",
    "projective.Cocycle.validate",
    "fixtures.fixture", "fixtures.fixture_trivial", "fixtures.fixture_swap",
    "fixtures.fixture_pauli", "fixtures.fixture_perm", "fixtures.fixture_cyclic",
    "fixtures.random_instance",
    "jobs.parse_job", "jobs.load_job", "jobs.instance_to_job",
    "numeric.rank", "numeric.nullspace", "numeric.orthonormal_column_basis",
    "numeric.solve_sandwich",
}
# Records that store the value as a field: the algebra that owns it, and the
# job and report that print it.
RECORDS = {"algebra.Algebra", "jobs.JobSpec", "theorems.VerificationReport"}


def _callables_taking_tol():
    found = set()
    for info in pkgutil.iter_modules(skewgroup.__path__):
        mod = importlib.import_module(f"skewgroup.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            if "tol" in inspect.signature(obj).parameters:
                found.add(f"{info.name}.{name}")
            if inspect.isclass(obj):
                found |= {f"{info.name}.{name}.{meth}"
                          for meth, fn in vars(obj).items()
                          if inspect.isfunction(fn) and not meth.startswith("__")
                          and "tol" in inspect.signature(fn).parameters}
    return found


def test_only_entry_points_take_a_tolerance():
    assert _callables_taking_tol() == ENTRY_POINTS | RECORDS


def test_derived_algebras_inherit_the_job_tolerance():
    job = parse_job(instance_to_job(fixture("pauli")), tol=1e-7)
    s = skew_group_algebra(job.algebra, job.group, job.action)
    system = inertia(job.modules["M"], job.action)
    w = module_over_twisted(system)
    derived = {
        "base": job.algebra,
        "skew": s.alg,
        "sub_skew": sub_skew(s, system.inertia_members)[0].alg,
        "corner": corner_algebra(s.alg, symmetrizer(s)).sub,
        "fixed": fixed_subalgebra(job.algebra, job.action).sub,
        "direct_sum": direct_sum(job.algebra, job.algebra),
        "twisted": w.algebra,
        "contragredient": contragredient(w, system.inertia_group,
                                         system.cocycle).algebra,
    }
    assert {k: a.tol for k, a in derived.items()} == dict.fromkeys(derived, 1e-7)
    results, code = run_job(job)
    assert code == 0
    assert {rep.tol for _, rep, _ in results} == {1e-7}


def test_direct_sum_rejects_summands_with_different_tolerances():
    with pytest.raises(InvalidInput, match="different tolerances"):
        direct_sum(matrix_algebra(1, 1e-7), matrix_algebra(1, 1e-9))


def test_stale_positional_tolerance_is_a_type_error():
    i = fixture("pauli")
    with pytest.raises(TypeError):
        make_module(i.algebra, i.module.rho, 1e-9)
    with pytest.raises(TypeError):
        inertia(i.module, i.action, 1e-9)
    with pytest.raises(TypeError):
        skew_group_algebra(i.algebra, i.group, i.action, 1e-9)
    with pytest.raises(TypeError):
        decompose(regular_module(i.algebra), 1, 1e-9)
