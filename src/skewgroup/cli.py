"""Command-line front end: validate | run | fixture.

Exit codes: 0 all checks pass, 1 a check failed, 2 validation or parse
error, 3 internal numerical inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ParseError, SkewGroupError, brief
from .fixtures import FIXTURE_NAMES, fixture
from .jobs import ALL_TASKS, canonical_json as _dump, echo_json, instance_to_job, load_job
from .runner import EXIT_VALIDATION, run_job


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="skewgroup",
        description="Construct skew group algebras and machine-verify their "
                    "structural theorems on job-file instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a job file")
    p_validate.add_argument("path")
    p_validate.add_argument("--tol", type=float, default=None)

    p_run = sub.add_parser("run", help="run the tasks of a job file")
    p_run.add_argument("path")
    p_run.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a deterministic machine-readable report")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--task", default=None, help="run only this task")
    p_run.add_argument("--quiet", action="store_true")

    p_fixture = sub.add_parser("fixture", help="emit a built-in instance as a job file")
    p_fixture.add_argument("name", choices=FIXTURE_NAMES)
    return parser


def _load(path, **overrides):
    """The loaded job, or None after reporting on stderr why it did not load."""
    try:
        return load_job(path, **overrides)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except SkewGroupError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    if _load(args.path, tol=args.tol) is None:
        return EXIT_VALIDATION
    print(f"{args.path}: OK")
    return 0


def _task_filter_problem(task, job):
    """Why a --task filter would select no task of the job, or None."""
    if task is None:
        return None
    listed = list(dict.fromkeys(rec["task"] for rec in job.tasks))
    if task not in ALL_TASKS:
        return f"unknown task {brief(task)}; known tasks: {', '.join(ALL_TASKS)}"
    if task not in listed:
        return (f"task {brief(task)} is not listed in the job; listed tasks: "
                f"{', '.join(listed) or 'none'}")
    return None


def cmd_run(args) -> int:
    job = _load(args.path, tol=args.tol, seed=args.seed)
    if job is None:
        return EXIT_VALIDATION
    problem = _task_filter_problem(args.task, job)
    if problem:
        print(f"task error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    results, exit_code = run_job(job, task_filter=args.task)
    if args.as_json:
        # Timing is intentionally excluded so reports are byte-identical for
        # identical (job, seed, tol).
        print(echo_json(job.raw, {
            "tol": job.algebra.tol,
            "seed": job.algebra.seed,
            "passed": exit_code == 0,
            "tasks": [rep.to_dict() for _, rep, _ in results],
        }))
        return exit_code

    for rec, rep, elapsed in results:
        status = "PASS" if rep.passed else "FAIL"
        if not args.quiet:
            for c in rep.checks:
                mark = "ok" if c.passed else "FAIL"
                extra = ""
                if c.dims:
                    extra += " " + " ".join(f"{k}={v}" for k, v in sorted(c.dims.items()))
                if c.residual is not None:
                    extra += f" residual={c.residual:.3e}"
                if c.witness:
                    extra += f" [{c.witness}]"
                print(f"  {mark:4s} {rep.name}::{c.name}{extra}")
        print(f"[{status}] {rec['task']} ({elapsed:.3f}s)")
    print(f"overall: {'PASS' if exit_code == 0 else 'FAIL'}")
    return exit_code


def cmd_fixture(args) -> int:
    # argparse's choices have already rejected an unknown name with exit 2
    print(_dump(instance_to_job(fixture(args.name))))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_fixture(args)


if __name__ == "__main__":
    sys.exit(main())
