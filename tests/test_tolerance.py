"""One tolerance and one seed per algebra: set where an algebra is built,
inherited by everything derived from it."""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil

import numpy as np
import pytest

import skewgroup
from skewgroup import numeric
from skewgroup.algebra import (
    canonical_span,
    corner_algebra,
    direct_sum,
    fixed_subalgebra,
    make_algebra,
    matrix_algebra,
)
from skewgroup.errors import InvalidInput
from skewgroup.cli import main
from skewgroup.fixtures import FIXTURE_NAMES, fixture, random_instance
from skewgroup.group_action import cyclic_group, make_action
from skewgroup.jobs import instance_to_job, parse_job
from skewgroup.projective import (
    Cocycle,
    contragredient,
    extract_cocycle,
    inertia,
    module_over_twisted,
    twisted_group_algebra,
)
from skewgroup.repmod import decompose, is_simple, make_module, regular_module
from skewgroup.runner import run_job
from skewgroup.skew import (
    extend_to_skew,
    induce,
    skew_group_algebra,
    sub_skew,
    symmetrizer,
)
from skewgroup.theorems import build_context

# The callables through which a tolerance enters: the algebra constructor, the
# job front ends, matrix-level primitives that see no algebra, and
# the one check that all of them apply to it.
ENTRY_POINTS = {
    "algebra.make_algebra", "algebra.canonical_span",
    "projective.extract_cocycle", "projective.Cocycle.validate",
    "jobs.parse_job", "jobs.load_job",
    "numeric.rank", "numeric.nullspace", "numeric.orthonormal_column_basis",
    "numeric.solve_sandwich", "numeric.check_tol",
}
# The callables through which a seed enters: the algebra constructor and the
# job front ends.  random_instance's seed picks the instance, not the run.
SEED_ENTRY_POINTS = {"algebra.make_algebra", "jobs.parse_job", "jobs.load_job",
                     "fixtures.random_instance"}
# Records that store the value as a field: the algebra that owns it, and the
# report that prints it.
RECORDS = {"algebra.Algebra", "theorems.VerificationReport"}


def _callables_taking(param):
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
            if param in inspect.signature(obj).parameters:
                found.add(f"{info.name}.{name}")
            if inspect.isclass(obj):
                found |= {f"{info.name}.{name}.{meth}"
                          for meth, fn in vars(obj).items()
                          if inspect.isfunction(fn) and not meth.startswith("__")
                          and param in inspect.signature(fn).parameters}
    return found


def test_only_entry_points_take_a_tolerance():
    assert _callables_taking("tol") == ENTRY_POINTS | RECORDS


def test_only_entry_points_take_a_seed():
    assert _callables_taking("seed") == SEED_ENTRY_POINTS | RECORDS


def test_derived_algebras_inherit_the_job_tolerance():
    job = parse_job(instance_to_job(fixture("pauli")), tol=1e-7, seed=7)
    s = skew_group_algebra(job.action)
    system = inertia(job.modules["M"], job.action)
    w = module_over_twisted(system)
    ssub = sub_skew(s, system.inertia_members)
    wdual = contragredient(w, system.cocycle)
    derived = {
        "base": job.algebra,
        "skew": s.alg,
        "sub_skew": ssub.alg,
        "corner": corner_algebra(s.alg, symmetrizer(s)).sub,
        "fixed": fixed_subalgebra(job.algebra, job.action).sub,
        "direct_sum": direct_sum(job.algebra, job.algebra),
        "twisted": w.algebra,
        "contragredient": wdual.algebra,
        "plain": twisted_group_algebra(system.cocycle.group.trivial_cocycle,
                                       1, job.algebra),
        "induced": induce(extend_to_skew(system, wdual, ssub), s, ssub).algebra,
    }
    assert {k: a.tol for k, a in derived.items()} == dict.fromkeys(derived, 1e-7)
    assert {k: a.seed for k, a in derived.items()} == dict.fromkeys(derived, 7)
    results, code = run_job(job)
    assert code == 0
    assert {rep.tol for _, rep, _ in results} == {1e-7}
    assert {rep.seed for _, rep, _ in results} == {7}


def test_instance_to_job_keeps_the_tolerance_and_seed():
    job = parse_job(instance_to_job(fixture("pauli")), tol=1e-7, seed=7)
    again = parse_job(instance_to_job(job))
    assert (again.algebra.tol, again.algebra.seed) == (1e-7, 7)


def test_direct_sum_rejects_summands_with_different_tolerances():
    with pytest.raises(InvalidInput, match="different tolerances"):
        direct_sum(make_algebra(1, np.ones((1, 1, 1)), [1], tol=1e-7),
                   matrix_algebra(1))
    with pytest.raises(InvalidInput, match="different seeds 1 and 7"):
        direct_sum(matrix_algebra(1), make_algebra(1, np.ones((1, 1, 1)), [1],
                                                   seed=7))


def test_stale_positional_tolerance_is_a_type_error():
    i = fixture("pauli")
    with pytest.raises(TypeError):
        make_module(i.algebra, i.module.rho, 1e-9)
    with pytest.raises(TypeError):
        inertia(i.module, i.action, 1e-9)
    with pytest.raises(TypeError):
        skew_group_algebra(i.action, 1e-9)
    with pytest.raises(TypeError):
        decompose(regular_module(i.algebra), 1, 1e-9)


def test_stale_positional_seed_is_a_type_error():
    i = fixture("pauli")
    with pytest.raises(TypeError):
        is_simple(i.module, 1)
    with pytest.raises(TypeError):
        decompose(regular_module(i.algebra), 1)
    with pytest.raises(TypeError):
        build_context(i.action, i.module, 1)


@pytest.mark.parametrize("fn", [numeric.rank, numeric.nullspace,
                                numeric.orthonormal_column_basis,
                                numeric.solve_sandwich, canonical_span,
                                Cocycle.validate, extract_cocycle])
def test_a_tolerance_not_set_by_an_algebra_has_no_default(fn):
    # a caller that forgets it gets a TypeError, not a silent 1e-9
    assert inspect.signature(fn).parameters["tol"].default is inspect.Parameter.empty


def test_twisted_group_algebra_has_no_default_algebra():
    # it takes its tolerance and seed from this algebra, so a caller that
    # forgets it gets a TypeError, not a silent 1e-9 and 1
    param = inspect.signature(twisted_group_algebra).parameters["algebra"]
    assert param.default is inspect.Parameter.empty


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0])
@pytest.mark.parametrize("primitive", [numeric.rank, numeric.nullspace,
                                       numeric.orthonormal_column_basis,
                                       canonical_span])
def test_matrix_primitives_reject_an_unusable_tolerance(primitive, tol):
    with pytest.raises(InvalidInput, match=rf"^tol must be a number in "
                                           rf"\(0, 1\), got {tol!r}$"):
        primitive(np.eye(3), tol)


def _noisy(data, rng):
    """The job with noise of tol/100, of random sign, on the real and the
    imaginary part of every action and module entry."""
    def noisy(mats):
        m = np.array(mats)
        return (m + data["tol"] / 100 * rng.choice([-1.0, 1.0], m.shape)).tolist()

    data["action"]["mats"] = noisy(data["action"]["mats"])
    for mspec in data["modules"].values():
        mspec["rho"] = noisy(mspec["rho"])
    return data


def _verdicts(tmp_path, data):
    """The exit code of `skewgroup run --json` on the job, and each task's
    record with its residuals removed."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--json"])
    return code, [
        {**rec, "checks": [{k: v for k, v in c.items() if k != "residual"}
                           for c in rec["checks"]]}
        for rec in json.loads(out.getvalue())["tasks"]]


@pytest.mark.parametrize("source", [*FIXTURE_NAMES, *range(20)])
def test_noise_below_the_tolerance_keeps_every_verdict(tmp_path, source):
    """Every check, dim and witness of every task is that of the exact job.
    With |G| = 1 the stack fixed_subalgebra reads is all noise, and A⋊{e}
    must equal A exactly: make_action keeps φ_e exact."""
    job = fixture(source) if isinstance(source, str) else random_instance(source)
    data = instance_to_job(job)
    exact = _verdicts(tmp_path, data)
    assert exact[0] == 0
    assert _verdicts(tmp_path, _noisy(data, np.random.default_rng(19))) == exact


def test_rounding_noise_on_a_trivial_action_fixes_the_whole_algebra():
    """Each block m - I of fixed_subalgebra's stack is O(1), so a stack of
    rounding noise reads as zero: its rank scale is floored at that of I."""
    a = matrix_algebra(2)
    noise = 1e-13 * np.random.default_rng(0).standard_normal((4, 4))
    action = make_action(cyclic_group(2), a, [np.eye(4), np.eye(4) + noise])
    assert fixed_subalgebra(a, action).sub.dim == 4


def test_the_identity_acts_exactly_after_validation():
    a = matrix_algebra(2)
    action = make_action(cyclic_group(1), a, [np.eye(4) + 1e-13])
    assert (action.mats[0] == np.eye(4)).all()
