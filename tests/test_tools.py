"""The tools under tools/: each run as a script on a small job, or its
call list checked without running it."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from skewgroup.fixtures import fixture
from skewgroup.jobs import instance_to_job

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_peak_where_names_the_sites_of_a_call(tmp_path):
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(instance_to_job(fixture("pauli"))))
    done = subprocess.run(
        [sys.executable, str(TOOLS / "peak_where.py"), str(path),
         "--task", "main_theorem"],
        capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    peak = re.fullmatch(r"exit code 0; peak (\S+) MB above the start of the "
                        r"call", lines[0])
    at = next(t for t, line in enumerate(lines)
              if line.startswith("fullest traced moment"))
    # the true peak's interval, between two profile events, then the
    # largest under four other call chains, each with the skewgroup frames
    # it ran under, innermost first
    heads = [t for t in range(1, at) if not lines[t].startswith(" ")]
    assert len(heads) == 5 and heads[0] == 1
    intervals = []
    for t, end in zip(heads, [*heads[1:], at]):
        label = "true peak" if t == 1 else "next peak, under another call chain"
        head = re.fullmatch(label + r": (\S+) MB, between event (\d+) "
                            r"\((.+)\) and event (\d+) \((.+)\), under:",
                            lines[t])
        assert head and int(head[4]) == int(head[2]) + 1
        assert re.search(r" at \S+:\d+", head[5])
        stack = [line.strip() for line in lines[t + 1:end]]
        assert stack and all(re.fullmatch(r"\w+\.py:\d+ [\w.]+", f)
                             for f in stack)
        intervals.append((float(head[1]), stack))
    true = intervals[0][0]
    assert [p for p, _ in intervals] == sorted((p for p, _ in intervals),
                                               reverse=True)
    # distinct chains: innermost function and the call lines outside it
    chains = {(stack[0].split(":")[0], stack[0].split()[1], *stack[1:])
              for _, stack in intervals}
    assert len(chains) == 5
    held = re.match(r"fullest traced moment: (\S+) MB, event \d+", lines[at])
    assert peak and held
    assert 0 < float(held[1]) <= float(peak[1])
    # the true peak is found in a run of its own, whose hook keeps a little
    assert float(held[1]) <= true <= 1.1 * float(peak[1])
    sites = [line for line in lines[at + 1:] if " KB " in line]
    assert 1 <= len(sites) <= 10
    # each chain ends at the task runner, the outermost skewgroup frame
    # below the command line
    assert "run_job" in lines[-1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_digests_lists_each_workload_call_once():
    digests = _tool("json_digests")
    listed = digests.calls()
    labels = [label for label, _, _ in listed]
    assert len(set(labels)) == len(labels)
    by_label = {label: (build, tail) for label, build, tail in listed}
    wanted = 0
    for name in digests.workloads.WORKLOADS:
        for job, tails in digests.workloads.make_workload(name, 0):
            for tail in tails:
                wanted += 1
                label = ":".join([f"{name}.{job['name']}", *tail[2:]])
                build, listed_tail = by_label[label]
                assert listed_tail == tail and build() == job
    workload_labels = [label for label in labels
                       if label.split(".")[0] in digests.workloads.WORKLOADS]
    assert len(workload_labels) == wanted == 34
    # then the skew-128 job, the one call above the benchmark's skew
    # dimension 72
    label, build, tail = listed[-1]
    job = build()
    assert (label, tail) == ("rot128", ["--json"])
    assert job["algebra"]["dim"] * job["group"]["order"] == 128


def test_json_digests_runs_every_fixture_and_random_job_at_seed_7_once():
    digests = _tool("json_digests")
    jobs = [*digests.FIXTURE_NAMES, *(f"random{s}" for s in range(20))]
    listed = [(label, tail) for label, _, tail in digests.calls()
              if "@" in label]
    assert listed == [(f"{job}@seed7", ["--json", "--seed", "7"])
                      for job in jobs]
    assert len(digests.calls()) == 96


def test_json_digests_verdict_digest_drops_only_residuals():
    digests = _tool("json_digests")
    report = {"passed": True, "tasks": [{"checks": [
        {"name": "a", "passed": True, "residual": 1e-16},
        {"name": "b", "passed": True, "dims": {"dim": 4}}]}]}
    moved = json.loads(json.dumps(report))
    moved["tasks"][0]["checks"][0]["residual"] = 2e-16
    flipped = json.loads(json.dumps(report))
    flipped["tasks"][0]["checks"][1]["dims"]["dim"] = 5
    text = json.dumps(report)
    assert digests.verdict_digest(text) == digests.verdict_digest(json.dumps(moved))
    assert digests.verdict_digest(text) != digests.verdict_digest(json.dumps(flipped))
    # keys sorted, no spaces, as perfbench digests a record
    bare = {"passed": True, "tasks": [{"checks": [
        {"name": "a", "passed": True},
        {"dims": {"dim": 4}, "name": "b", "passed": True}]}]}
    assert digests.verdict_digest(text) == digests.sha256(
        json.dumps(bare, sort_keys=True, separators=(",", ":")))
    # no report (a call that exits 2 prints none): the output itself
    assert digests.verdict_digest("") == digests.sha256("")


def test_json_digests_compare_marks_calls_that_differ_in_residuals_only(
        tmp_path, monkeypatch, capsys):
    digests = _tool("json_digests")
    lines = ["a 0 b1 v1", "b 0 b2 v2", "c 1 b3 v3", "d 0 b4 v4"]
    saved = ["a 0 b1 v1", "b 0 bX v2", "c 0 bX v3", "d 0 bX vX"]
    path = tmp_path / "saved.txt"
    path.write_text("\n".join(saved) + "\n")
    monkeypatch.setattr(digests, "digest_lines", lambda workdir: lines)
    assert digests.main(["--compare", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs (residuals only): 'b 0 bX v2' -> 'b 0 b2 v2'",
        "differs: 'c 0 bX v3' -> 'c 1 b3 v3'",
        "differs: 'd 0 bX vX' -> 'd 0 b4 v4'",
        "1 of 4 calls equal, 1 more in all but residuals"]
    path.write_text("\n".join(lines) + "\n")
    assert digests.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out == "4 of 4 calls equal, 0 more in all but residuals\n"
