"""Self-checks of the benchmark: its inputs and its wrapper coverage."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

if importlib.util.find_spec("skewgroup") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from skewgroup.cli import main as cli_main  # noqa: E402
from skewgroup.fixtures import random_instance  # noqa: E402
from skewgroup.jobs import instance_to_job  # noqa: E402

# Calls per traced skew72 job, at the commit that introduced the benchmark.
SKEW72_CALLS = {
    "skew.skew_group_algebra": 7,
    "algebra.is_semisimple": 63,
    "algebra.trace_form": 63,
    "algebra.Algebra.product": 4074,
    "numeric.solve_sandwich": 156,
    "repmod.hom_space": 156,
    "repmod.decompose": 7,
    "projective.inertia": 4,
    "algebra.corner_algebra": 3,
    "algebra.fixed_subalgebra": 3,
}


@pytest.mark.parametrize("seed", range(20))
def test_construction_copy_matches_random_instance(seed):
    job = workloads.random_job(f"random{seed}", seed)
    assert job == instance_to_job(random_instance(seed))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reorders_the_same_jobs(name):
    def canonical(work):
        return sorted(json.dumps(
            [dict(job, algebra=dict(job["algebra"],
                                    mult=sorted(job["algebra"]["mult"]))),
             sorted(tails)], sort_keys=True) for job, tails in work)

    shuffled = workloads.make_workload(name, 7)
    assert shuffled == workloads.make_workload(name, 7)
    assert canonical(shuffled) == canonical(workloads.make_workload(name, 0))


def _namespaces():
    """Every skewgroup module and every class defined in one."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname == "skewgroup" or modname.startswith("skewgroup."):
            out.append(mod)
            out += [v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == modname]
    return out


def _snapshot():
    return {(id(ns), attr): val for ns in _namespaces()
            for attr, val in list(vars(ns).items())}


def test_every_binding_is_wrapped_and_restored():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert set(t.originals) == set(tracer.NAMES)
        originals = {id(fn) for fn in t.originals.values()}
        # No binding anywhere in the package still holds an original ...
        leftover = [(getattr(ns, "__name__", ns), attr)
                    for ns in _namespaces()
                    for attr, val in vars(ns).items() if id(val) in originals]
        assert leftover == []
        # ... and each binding that held one now holds its wrapper.
        for key, val in before.items():
            if id(val) in originals:
                ns = next(n for n in _namespaces() if id(n) == key[0])
                assert vars(ns)[key[1]].__wrapped__ is val
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_skew72_job_reproduces_call_counts(tmp_path):
    (job, tails), = workloads.make_workload("skew72", 0)
    path = tmp_path / "skew72.json"
    path.write_text(json.dumps(job))
    t = tracer.Tracer()
    t.install()
    try:
        t.job = 0
        t.active = True
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["run", str(path), *tails[0]]) == 0
    finally:
        t.active = False
        t.uninstall()
    stats = t.stats()
    assert {n: stats[n]["calls"] for n in SKEW72_CALLS} == SKEW72_CALLS
    assert sorted({task for task, _ in t.task_seconds}) == sorted(workloads.TASKS)
    assert all(stats[n]["calls"] > 0 for n in tracer.NAMES)


def test_stats_self_time_excludes_children_and_total_counts_outermost():
    t = tracer.Tracer()
    # span: (name, start, end, parent, job, size)
    t.spans += [
        ("repmod.decompose", 0.0, 10.0, -1, 0, 72),
        ("repmod.hom_space", 1.0, 4.0, 0, 0, 72),
        ("numeric.solve_sandwich", 2.0, 3.5, 1, 0, 432),
        ("repmod.decompose", 5.0, 7.0, 0, 0, 12),
    ]
    s = t.stats()
    assert s["repmod.decompose"]["calls"] == 2
    assert s["repmod.decompose"]["self_s"] == pytest.approx(5.0 + 2.0)
    assert s["repmod.decompose"]["total_s"] == pytest.approx(10.0)
    assert s["repmod.decompose"]["max_n"] == 72
    assert s["repmod.hom_space"]["self_s"] == pytest.approx(1.5)
    assert s["numeric.solve_sandwich"]["self_s"] == pytest.approx(1.5)


def test_benchmark_json_lists_what_the_traced_run_prints():
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    printed = ([(name, unit) for name, unit, _, _ in tracer.METRICS]
               + [(f"runner.{t}.s", "s") for t in workloads.TASKS]
               + [("trace.overhead_s", "s")])
    assert listed == printed
    assert len(listed) <= 128
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
