#!/usr/bin/env python3
"""Exit code, sha256 and verdict digest of the ``--json`` report of a fixed
set of calls.

    python3 tools/json_digests.py > digests.txt
    python3 tools/json_digests.py --compare digests.txt

Run from the root of a source checkout: the package is imported from
``src/`` and the benchmark workloads from ``perfbench/workloads.py``.  The
calls are ``skewgroup run JOB --json`` on the five built-in fixtures and on
``random_instance`` seeds 0-19, the same 25 jobs again with ``--seed 7``
(labelled ``JOB@seed7``: the default seed 1 cannot show a seed that never
reaches a draw), ``skewgroup run JOB --json --task T`` for each of the 11
tasks on ``random_instance(6)``, and every call of each benchmark workload
at seed 0, labelled ``WORKLOAD.JOB`` (``:TASK`` for a one-task call), then
the skew-128 block-rotation job ``rot128`` (four copies of M_2 with a twist
of order 2 on the first), the one call at a skew dimension above the
benchmark's 72, where the n x n temporaries of the decomposition would
show.  Each runs in this process through ``skewgroup.cli.main``.  One line
per call is printed: the call's label, its exit code, the sha256 of its
standard output and its verdict digest, the sha256 of the report with every
``residual`` key removed (perfbench's rule: sorted keys, no spaces), or of
the output itself when it is not one JSON report.  ``--compare FILE``
checks the lines against a saved run instead, prints every call that
differs, marked ``residuals only`` when its exit code and verdict digest
are equal, and exits 1 if any call differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from skewgroup.cli import main as cli_main  # noqa: E402
from skewgroup.fixtures import (  # noqa: E402
    FIXTURE_NAMES,
    fixture,
    random_instance,
)
from skewgroup.jobs import ALL_TASKS, instance_to_job  # noqa: E402

RANDOM_SEEDS = range(20)
TASK_SEED = 6
RUN_SEED = 7
# the exponents of rot128's diagonal twist on each of its four blocks
ROT128_EXPS = [(0, 1), (0, 0), (0, 0), (0, 0)]


def calls():
    """(label, job builder, argv tail after the job path) of every call, in
    order."""
    jobs = [(name, lambda name=name: instance_to_job(fixture(name)))
            for name in FIXTURE_NAMES]
    jobs += [(f"random{s}", lambda s=s: instance_to_job(random_instance(s)))
             for s in RANDOM_SEEDS]
    out = [(name, build, ["--json"]) for name, build in jobs]
    out += [(f"{name}@seed{RUN_SEED}", build, ["--json", "--seed", str(RUN_SEED)])
            for name, build in jobs]
    out += [(f"random{TASK_SEED}:{t}",
             lambda: instance_to_job(random_instance(TASK_SEED)),
             ["--json", "--task", t]) for t in ALL_TASKS]
    for name in workloads.WORKLOADS:
        for job, tails in workloads.make_workload(name, 0):
            # a tail is --json, then --task T for a one-task call
            out += [(":".join([f"{name}.{job['name']}", *tail[2:]]),
                     lambda job=job: job, tail) for tail in tails]
    out.append(("rot128", lambda: workloads.block_rotation_job(
        "rot128", 2, 4, 2, ROT128_EXPS), ["--json"]))
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_residuals(tree):
    """A decoded report with every "residual" key removed, at any depth."""
    if isinstance(tree, dict):
        return {k: without_residuals(v) for k, v in tree.items()
                if k != "residual"}
    if isinstance(tree, list):
        return [without_residuals(v) for v in tree]
    return tree


def verdict_digest(text: str) -> str:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return sha256(text)
    return sha256(json.dumps(without_residuals(report), sort_keys=True,
                             separators=(",", ":")))


def verdict(line: str) -> list[str]:
    """A digest line without its sha256: label, exit code, verdict digest."""
    fields = line.split()
    return fields[:2] + fields[3:]


def digest_lines(workdir) -> list[str]:
    lines, paths = [], {}
    for label, build, tail in calls():
        job = label.split(":")[0]
        if job not in paths:
            paths[job] = Path(workdir) / f"{job}.json"
            paths[job].write_text(json.dumps(build()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["run", str(paths[job]), *tail])
        text = out.getvalue()
        lines.append(f"{label} {code} {sha256(text)} {verdict_digest(text)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="check against the lines of a saved run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        lines = digest_lines(workdir)
    if args.compare is None:
        print("\n".join(lines))
        return 0
    saved = Path(args.compare).read_text().splitlines()
    residuals_only = 0
    for old, new in zip(saved, lines):
        if old != new:
            same_verdict = verdict(old) == verdict(new)
            residuals_only += same_verdict
            mark = " (residuals only)" if same_verdict else ""
            print(f"differs{mark}: {old!r} -> {new!r}")
    if len(saved) != len(lines):
        print(f"{len(saved)} saved lines, {len(lines)} calls")
    equal = sum(old == new for old, new in zip(saved, lines))
    print(f"{equal} of {len(lines)} calls equal, {residuals_only} more in "
          f"all but residuals")
    return 0 if equal == len(lines) == len(saved) else 1


if __name__ == "__main__":
    sys.exit(main())
