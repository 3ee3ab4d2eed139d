#!/usr/bin/env python3
"""Peak memory of one ``skewgroup run JOB --json`` call, and what it holds.

    python3 tools/peak_where.py JOB [--task T]

Run from the root of a source checkout: the package is imported from
``src/``.  The call runs in this process through ``skewgroup.cli.main``,
its report discarded, five times: once to warm the caches and the profile
hook, once under ``tracemalloc`` for its peak (what ``perfbench`` reports
as ``peak_mem_mb``), and three times more with a profile hook at every
Python and builtin call and return.  The first of those reads the traced
memory at every event and finds the fullest such moment; the second resets
the ``tracemalloc`` peak at every event and finds the interval between two
events that holds the true peak; the third takes a snapshot at the fullest
moment.  The peak run and the first two hooked runs trace one frame per
allocation, as ``perfbench`` does; tracing restarts with deep tracebacks
only for the snapshot, whose allocation sites need their call chains.
Printed: the peak; the true peak's interval, named by the events that open
and close it, with the chain of ``skewgroup`` functions it ran under,
innermost first; the largest interval peaks under the next four call
chains, in the same form, largest first, a chain being the innermost
``skewgroup`` function and the lines of the calls that led to it (so the
runner-up to a peak shows where a cut would move it); the memory live at
the fullest moment; and the ten largest allocation sites live at that
moment that the call made, each with its chain of ``skewgroup`` functions
up to the task runner.

A temporary that lives only inside one C call (a LAPACK workspace, the
intermediate of an arithmetic expression) counts in the peak but is never
live at a traced moment, so the sites can add up to less than the peak;
the interval line names where such a temporary was made.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import gc
import io
import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skewgroup  # noqa: E402
from skewgroup.cli import main as cli_main  # noqa: E402

PACKAGE = Path(skewgroup.__file__).resolve().parent
PREFIX = str(PACKAGE) + os.sep          # of the package's file names
TOP = 10
SITES = 5                               # call chains whose peaks are printed
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


def _where(filename: str, lineno: int) -> str:
    """file:line of a frame, with the function of a skewgroup frame."""
    path = Path(filename)
    if path.parent != PACKAGE:
        return f"{'/'.join(path.parts[-2:])}:{lineno}"
    inner = [f for f in _functions(filename) if f[0] <= lineno <= f[1]]
    name = max(inner)[2] if inner else "<module>"
    return f"{path.name}:{lineno} {name}"


def _is_chain(filename: str) -> bool:
    """Whether a frame of this file belongs in a printed call chain."""
    path = Path(filename)
    return path.parent == PACKAGE and path.name != "cli.py"


def _stack(frame) -> list[tuple]:
    """(file name, line) of each frame in the package from a live frame
    outwards, innermost first: nothing is formatted while the call runs, so
    the hook keeps as little as it can."""
    out = []
    while frame is not None:
        if frame.f_code.co_filename.startswith(PREFIX):
            out.append((frame.f_code.co_filename, frame.f_lineno))
        frame = frame.f_back
    return out


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


def _innermost(frame):
    """The code of the innermost frame in the package, or None."""
    while frame is not None and not frame.f_code.co_filename.startswith(PREFIX):
        frame = frame.f_back
    return frame and frame.f_code


def _peak_intervals(argv):
    """Run the call with a hook at every call and return event that resets
    the tracemalloc peak; (index, peak bytes above the start, opening event,
    closing event, stack) of the interval between two events with the
    largest peak under each of the SITES call chains whose largest peaks are
    largest, largest first: the first holds the true peak.  A chain is
    the innermost package function and the call lines outside it.  Its own
    run, so that what this hook keeps is not counted in the fullest
    moment."""
    state = {"n": 0, "top": {}, "floor": -1, "last": ("start", "", "", 0)}
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()

    def hook(frame, event, arg):
        n = state["n"]
        state["n"] = n + 1
        peak = tracemalloc.get_traced_memory()[1] - base
        # a builtin's name only: a bound method or a returned value kept
        # here would keep its array alive
        name = getattr(arg, "__qualname__", "") if event[0] == "c" else ""
        here = (event, name, frame.f_code.co_filename, frame.f_lineno)
        if peak > state["floor"]:
            top, stack = state["top"], _stack(frame)
            chain = (_innermost(frame), *stack[1:])
            if peak > top.get(chain, (0, -1))[1]:
                top[chain] = (n, peak, state["last"], here, stack)
                if len(top) > SITES:
                    del top[min(top, key=lambda c: top[c][1])]
                if len(top) == SITES:
                    state["floor"] = min(t[1] for t in top.values())
        state["last"] = here
        # the next event reads the peak of the interval up to it alone
        tracemalloc.reset_peak()

    sys.setprofile(hook)
    try:
        _call(argv)
    finally:
        sys.setprofile(None)
    return sorted(state["top"].values(), key=lambda t: -t[1])


def _event(event: str, name: str, filename: str, lineno: int) -> str:
    """A profile event, the builtin it calls or returns from, and where."""
    text = f"{event} {name}" if name else event
    return f"{text} at {_where(filename, lineno)}" if filename else text


def _call(argv) -> int:
    gc.collect()                # no garbage of an earlier call is freed
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _interval(label, top, peak, opened, closed, stack) -> list[str]:
    """The lines of one interval peak and the chain it ran under."""
    return [f"{label}: {peak / 1e6:.3f} MB, between event {top - 1} "
            f"({_event(*opened)}) and event {top} ({_event(*closed)}), "
            f"under:",
            *(f"{'':27}{_where(*f)}" for f in stack if _is_chain(f[0]))]


def report(argv) -> list[str]:
    """The lines printed for one call of cli.main(argv)."""
    # imports, caches, and what a profile hook allocates on first use
    code = _events(argv)["code"]
    # one frame per trace, as perfbench traces, until the snapshots need
    # the chains: at FRAMES frames every traced allocation walks the stack
    tracemalloc.start(1)
    try:
        base = tracemalloc.get_traced_memory()[0]
        _call(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
        index, held = _events(argv)["best"]
        intervals = _peak_intervals(argv)
        tracemalloc.stop()
        tracemalloc.start(FRAMES)
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
             f"of the call"]
    for t, interval in enumerate(intervals):
        lines += _interval("true peak" if t == 0 else
                           "next peak, under another call chain", *interval)
    lines.append(f"fullest traced moment: {held / 1e6:.3f} MB, event {index}; "
                 f"its {len(sites)} largest allocation sites made by the call:")
    for d in sites:
        frames = list(reversed(d.traceback))    # innermost first
        chain = [_where(f.filename, f.lineno) for f in frames[1:]
                 if _is_chain(f.filename)]
        lines.append(f"{d.size_diff / 1e3:9.1f} KB {d.count_diff:5d} blocks  "
                     f"{_where(frames[0].filename, frames[0].lineno)}")
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
