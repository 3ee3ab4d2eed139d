#!/usr/bin/env python3
"""Benchmark of ``skewgroup run``: one closed-loop caller, in process.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  For each workload the benchmark writes its job files, then drives
the public CLI path ``skewgroup.cli.main(["run", JOB, "--json", ...])`` pass
after pass, one call at a time.  Every task of every call is checked against
the verdict digests in ``digests.json`` and against the bytes the same call
printed in the first pass of the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the named
functions of every layer (see ``tracer.py``) and prints per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the plain single-threaded run, and
# never more threads than cores.  Setup subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import TASKS  # noqa: E402

# Fresh interpreters per setup_s reading; the median is reported.
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from skewgroup.jobs import load_job\n"
    "for p in sys.argv[2:]: load_job(p)"
)
# job_s_tail is the sample with this many samples above it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import skewgroup from this checkout's src/, never from elsewhere."""
    if not (SRC / "skewgroup" / "cli.py").is_file():
        raise BenchError(f"no skewgroup sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skewgroup.cli

    if Path(skewgroup.cli.__file__).resolve().parent != SRC / "skewgroup":
        raise BenchError(f"imported skewgroup from {skewgroup.cli.__file__}")
    return skewgroup.cli.main


def verdict_digest(record):
    """sha256 of a task's --json record with the residual values removed."""
    rec = dict(record)
    rec["checks"] = [{k: v for k, v in c.items() if k != "residual"}
                     for c in record["checks"]]
    blob = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Workload:
    """Job files of one workload and the checks on each pass over them."""

    def __init__(self, name, seed, workdir, main):
        self.name = name
        self.main = main
        self.calls = []           # (job name, path, argv tail)
        self.paths = []
        for i, (job, tails) in enumerate(workloads.make_workload(name, seed)):
            path = Path(workdir) / f"job{i:02d}.json"
            path.write_text(json.dumps(job))
            self.paths.append(str(path))
            self.calls += [(job["name"], str(path), tail) for tail in tails]
        digests = HERE / "digests.json"
        expected = json.loads(digests.read_text()) if digests.exists() else {}
        self.expected = expected.get(name, {})
        self.reference = None     # stdout of each call in the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, index, before=None, after=None):
        """One cli.main call; returns (seconds, exit code, stdout).

        An exception escaping the program is printed and counted as a failed
        call with exit code None, so the run goes on and reports it.
        """
        _, path, tail = self.calls[index]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if before:
                before(index)
            start = time.perf_counter()
            try:
                code = self.main(["run", path, *tail])
            except (Exception, SystemExit):
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - start
            if after:
                after(index)
        return seconds, code, out.getvalue()

    def check(self, index, code, text):
        """Count the call's tasks; count each failed one, with the reason."""
        job, _, tail = self.calls[index]
        wanted = [tail[tail.index("--task") + 1]] if "--task" in tail else TASKS
        self.attempted += len(wanted)
        try:
            records = {r["name"]: r for r in json.loads(text)["tasks"]}
        except (ValueError, KeyError, TypeError):
            records = {}
        bad = {}
        for task in wanted:
            rec = records.get(task)
            if rec is None:
                bad[task] = f"no record (exit {code})"
            elif not rec["passed"] or code != 0:
                bad[task] = f"did not pass (exit {code})"
            elif verdict_digest(rec) != self.expected.get(job, {}).get(task):
                bad[task] = f"verdict digest {verdict_digest(rec)} differs"
        if self.reference is not None and text != self.reference[index]:
            for task in wanted:
                bad.setdefault(task, "--json bytes differ from the first pass")
        self.failed += len(bad)
        self.problems += [f"{job} {task}: {why}" for task, why in bad.items()]

    def run_pass(self, before=None, after=None):
        """One pass over every call, checked; returns per-call seconds."""
        seconds, texts = [], []
        for index in range(len(self.calls)):
            s, code, text = self.call(index, before, after)
            self.check(index, code, text)
            seconds.append(s)
            texts.append(text)
        if self.reference is None:
            self.reference = texts
        return seconds


def setup_seconds(paths):
    """Median wall time of fresh interpreters that import and load the jobs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def memory_pass(work):
    """Largest tracemalloc peak of one call, in MB, over one pass."""
    peaks = []
    state = {}

    def before(_):
        tracemalloc.reset_peak()
        state["base"] = tracemalloc.get_traced_memory()[0]

    def after(_):
        peaks.append(tracemalloc.get_traced_memory()[1] - state["base"])

    tracemalloc.start()
    try:
        work.run_pass(before, after)
    finally:
        tracemalloc.stop()
    return max(peaks) / 1e6


def tail(samples):
    """(value, percentile): the sample with TAIL_BEYOND samples above it.

    With fewer samples than that, the smallest sample, at percentile 0.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * index / len(ordered)


def pass_count(work, seconds, per_round=1):
    """Rounds of `per_round` passes in a run of about `seconds`."""
    passes = workloads.PASSES_AT_20_S[work.name] * seconds / 20
    return max(1, round(passes / per_round))


def end_to_end(work, seconds):
    setup = setup_seconds(work.paths)
    peak = memory_pass(work)
    rounds = [work.run_pass() for _ in range(pass_count(work, seconds))]
    passes = [sum(r) for r in rounds]
    calls = [s for r in rounds for s in r]
    # The median call is taken over each call's median across passes: on
    # sweep the middle of the pooled samples falls between jobs of different
    # shapes, and single samples from either side made it jump.
    per_call = [statistics.median(r[i] for r in rounds)
                for i in range(len(work.calls))]
    job_tail, pct = tail(calls)
    print(f"{work.name}: pass seconds {[round(p, 3) for p in passes]}; "
          f"job_s_tail is p{pct:.0f} of {len(calls)} call samples")
    return {
        "pass_s": (statistics.median(passes), "s"),
        "job_s_p50": (statistics.median(per_call), "s"),
        "job_s_tail": (job_tail, "s"),
        "setup_s": (setup, "s"),
        "peak_mem_mb": (peak, "MB"),
    }


def per_layer(work, seconds):
    """Alternate untraced and traced passes; per-layer medians per pass."""
    tracer = Tracer()
    tracer.install()
    try:
        for name in tracer.missing:
            print(f"warning: {name} not found; its metrics read 0",
                  file=sys.stderr)
        work.run_pass()           # warm-up and reference bytes
        traced, stats, tasks, spans = [], [], [], []

        def traced_pass():
            tracer.clear()
            tracer.active = True
            try:
                per_call = work.run_pass(
                    before=lambda index: setattr(tracer, "job", index))
            finally:
                tracer.active = False
            traced.append(sum(per_call))
            stats.append(tracer.stats())
            per_task = dict.fromkeys(TASKS, 0.0)
            for task, s in tracer.task_seconds:
                per_task[task] += s
            tasks.append(per_task)
            spans.append(list(tracer.spans))

        untraced = []
        for _ in range(pass_count(work, seconds, per_round=2)):
            untraced.append(sum(work.run_pass()))
            traced_pass()
    finally:
        tracer.uninstall()
    write_spans(work, spans)
    overhead = statistics.median(traced) - statistics.median(untraced)
    print(f"{work.name}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes; tracing overhead {overhead:+.3f} s per pass")

    out = {name: (statistics.median(s[fn][stat] for s in stats), unit)
           for name, unit, fn, stat in METRICS}
    for task in TASKS:
        out[f"runner.{task}.s"] = (statistics.median(t[task] for t in tasks), "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def write_spans(work, spans):
    """Spans of every traced pass as JSON lines, one per span."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{work.name}.jsonl", "w") as fh:
        for number, recorded in enumerate(spans):
            for name, start, end, parent, job, size in recorded:
                fh.write(json.dumps({
                    "pass": number, "name": name, "start": start, "end": end,
                    "parent": parent, "job": work.calls[job][0],
                    "call": job, "size": size}) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        main_fn = import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        work = Workload(args.workload, args.seed, workdir, main_fn)
        if args.trace:
            metrics = per_layer(work, args.seconds)
        else:
            metrics = end_to_end(work, args.seconds)
    for problem in work.problems:
        print(f"FAILED {problem}")
    fail_frac = work.failed / work.attempted
    print(f"{work.name}: fail_frac {fail_frac:.4f} "
          f"({work.failed} of {work.attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{work.name}: {name} {value!r} {unit}")
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
