"""Task dispatch: each task derives only the artifacts it reads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import probes_one_draw_at_a_time, record_products, saw_triples

from skewgroup import runner, theorems
from skewgroup.fixtures import fixture, random_instance
from skewgroup.jobs import instance_to_job, parse_job

FIXTURES = ("trivial", "swap", "pauli", "perm", "cyclic")
# Functions that derive the artifacts of a main-theorem context, and the
# job's own skew algebra.
DERIVED = {
    "context_skew": (theorems, "skew_group_algebra"),
    "fixed": (theorems, "fixed_subalgebra"),
    "restricted": (theorems, "restrict"),
    "job_skew": (runner, "skew_group_algebra"),
}


def _counted(monkeypatch):
    """Count the calls of each function in DERIVED from now on."""
    calls = dict.fromkeys(DERIVED, 0)
    for key, (module, name) in DERIVED.items():
        def counting(*args, _fn=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("task, derived", [
    ("hom_inv", {}),
    ("complete_reducibility", {"fixed": 1, "restricted": 1}),
    ("induced_simplicity", {"job_skew": 1}),
    ("main_theorem", {"context_skew": 1, "fixed": 1, "restricted": 1}),
])
def test_a_task_alone_derives_only_what_it_reads(monkeypatch, name, task,
                                                 derived):
    job = parse_job(instance_to_job(fixture(name)))
    calls = _counted(monkeypatch)
    results, code = runner.run_job(job, task_filter=task)
    assert [rep.name for _, rep, _ in results] == [task]
    assert code == runner.EXIT_PASS
    assert calls == {key: derived.get(key, 0) for key in DERIVED}


def test_induced_simplicity_reads_the_job_skew_algebra(monkeypatch):
    job = parse_job(instance_to_job(fixture("pauli")))
    ctx = runner.JobContext(job=job)
    runner._task_induced_simplicity(ctx, {"module": "M"})
    mctx = ctx.context("M")
    assert "skew" not in vars(mctx)
    # a later main_theorem derives and keeps the context's own copy
    runner._task_main_theorem(ctx, {"module": "M"})
    assert mctx.skew is not ctx.skew
    assert {"fixed", "skew", "restricted"} <= set(vars(mctx))


def test_skew_task_probes_are_the_vectors_of_one_draw_at_a_time(monkeypatch):
    job = parse_job(instance_to_job(fixture("perm")))
    ctx = runner.JobContext(job=job)
    dim = ctx.skew.alg.dim
    seen = record_products(monkeypatch)
    runner._task_skew(ctx, {"task": "skew"})
    expected = probes_one_draw_at_a_time(
        np.random.default_rng([job.algebra.seed, 77]), 100, 3, dim)
    # the symmetrizer check follows the triples
    assert len(seen) > 4 * len(expected)
    assert saw_triples(seen, expected)


def test_a_cold_run_imports_no_lazy_numpy_module(tmp_path):
    """numpy imports some of its modules on first use: a bare np.unique(x)
    or np.r_ imports numpy.ma, about 1.3 MB that a cold first call would
    count in its peak memory.  No task of the fixture jobs or of
    random_instance(6) (skew dimension 48) imports it, run in a fresh
    interpreter."""
    paths = []
    for name, job in [*((f, fixture(f)) for f in FIXTURES),
                      ("random6", random_instance(6))]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance_to_job(job)))
        paths.append(str(path))
    code = ("import contextlib, io, sys\n"
            "from skewgroup.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['run', p, '--json']) for p in sys.argv[1:]]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    src = str(Path(runner.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{[0] * len(paths)} False\n"
