#!/usr/bin/env python3
"""Record the expected verdict digest of every job and task, at seed 0.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only when a change to the program is
meant to change a verdict, and say so in the change.
"""

import json
import sys
import tempfile

import run


def main():
    main_fn = run.import_program()
    run.OUT.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in run.workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            work = run.Workload(name, 0, workdir, main_fn)
            per_job = digests.setdefault(name, {})
            for index, (job, _, _) in enumerate(work.calls):
                _, code, text = work.call(index)
                if code != 0:
                    sys.exit(f"{name} {job} exited {code}")
                for rec in json.loads(text)["tasks"]:
                    per_job.setdefault(job, {})[rec["name"]] = run.verdict_digest(rec)
    (run.HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
