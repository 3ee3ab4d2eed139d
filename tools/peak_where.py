#!/usr/bin/env python3
"""Peak memory of one ``skewgroup run JOB --json`` call, and what it holds.

    python3 tools/peak_where.py JOB [--task T]

Run from the root of a source checkout: the package is imported from
``src/``.  The call runs in this process through ``skewgroup.cli.main``,
its report discarded, four times: once to warm the caches and the profile
hook, once under ``tracemalloc`` for its peak (what ``perfbench`` reports
as ``peak_mem_mb``), and twice more with a profile hook that reads the
traced memory at every Python and builtin call and return.  The first of
those finds the fullest such moment, the second takes a snapshot there.
Printed:
the peak, the memory live at that moment, and the ten largest allocation
sites live at that moment that the call made, each with the chain of
``skewgroup`` functions it was made under, innermost first, up to the task
runner.

A temporary that lives only inside one C call (a LAPACK workspace, the
intermediate of an arithmetic expression) counts in the peak but is never
live at a traced moment, so the sites can add up to less than the peak.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import gc
import io
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skewgroup  # noqa: E402
from skewgroup.cli import main as cli_main  # noqa: E402

PACKAGE = Path(skewgroup.__file__).resolve().parent
TOP = 10
FRAMES = 64


@functools.cache
def _functions(filename: str) -> list:
    """(first line, last line, qualified name) of each function of a file."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(filename).read_text()), "")
    return out


def _where(frame) -> str:
    """file:line of a frame, with the function of a skewgroup frame."""
    path = Path(frame.filename)
    if path.parent != PACKAGE:
        return f"{'/'.join(path.parts[-2:])}:{frame.lineno}"
    inner = [f for f in _functions(frame.filename)
             if f[0] <= frame.lineno <= f[1]]
    name = max(inner)[2] if inner else "<module>"
    return f"{path.name}:{frame.lineno} {name}"


def _events(argv, stop=None):
    """Run the call with a hook at every call and return event; its exit
    code, the number of events and (index, traced bytes above the start) of
    the fullest one.  At event number `stop`, if given, a snapshot is
    taken."""
    state = {"n": 0, "best": (0, -1), "snapshot": None, "code": None}
    base = tracemalloc.get_traced_memory()[0]

    def hook(frame, event, arg):
        n = state["n"]
        state["n"] = n + 1
        if n == stop:
            state["snapshot"] = tracemalloc.take_snapshot()
        current = tracemalloc.get_traced_memory()[0] - base
        if current > state["best"][1]:
            state["best"] = (n, current)

    sys.setprofile(hook)
    try:
        state["code"] = _call(argv)
    finally:
        sys.setprofile(None)
    return state


def _call(argv) -> int:
    gc.collect()                # no garbage of an earlier call is freed
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def report(argv) -> list[str]:
    """The lines printed for one call of cli.main(argv)."""
    # imports, caches, and what a profile hook allocates on first use
    code = _events(argv)["code"]
    tracemalloc.start(FRAMES)
    try:
        base = tracemalloc.get_traced_memory()[0]
        _call(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
        index, held = _events(argv)["best"]
        before = tracemalloc.take_snapshot()
        snapshot = _events(argv, stop=index)["snapshot"]
    finally:
        tracemalloc.stop()
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__),
              tracemalloc.Filter(False, __file__)]
    diffs = snapshot.filter_traces(ignore).compare_to(
        before.filter_traces(ignore), "traceback")
    sites = sorted((d for d in diffs if d.size_diff > 0),
                   key=lambda d: d.size_diff, reverse=True)[:TOP]
    lines = [f"exit code {code}; peak {peak / 1e6:.3f} MB above the start "
             f"of the call",
             f"fullest traced moment: {held / 1e6:.3f} MB, event {index}; "
             f"its {len(sites)} largest allocation sites made by the call:"]
    for d in sites:
        frames = list(reversed(d.traceback))    # innermost first
        chain = [_where(f) for f in frames[1:]
                 if Path(f.filename).parent == PACKAGE
                 and Path(f.filename).name != "cli.py"]
        lines.append(f"{d.size_diff / 1e3:9.1f} KB {d.count_diff:5d} blocks  "
                     f"{_where(frames[0])}")
        lines += [f"{'':27}<- {link}" for link in chain]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", help="job file")
    parser.add_argument("--task", help="run only this task")
    args = parser.parse_args(argv)
    call = ["run", args.job, "--json"]
    if args.task is not None:
        call += ["--task", args.task]
    print("\n".join(report(call)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
