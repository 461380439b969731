#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_refs.py [COMMAND ...]

Runs every job any seed can produce (``workloads.reference_jobs``)
through ``sigmalab.cli.main`` and writes ``bench/refs/<command>.json``,
keyed by each item's reference key.  Run it only at a commit whose
outputs are trusted: afterwards every output that drifts beyond
``workloads.TOLERANCE`` counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(cli, command: str) -> dict:
    refs = {}
    work = os.path.join(run.WORK_DIR, f"refs-{command}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for index, job in enumerate(workloads.reference_jobs(command)):
            out_dir = os.path.join(work, f"job{index}")
            config = run.write_configs([job], work)[0]
            code = cli.main([job.command, "--config", config, "--out", out_dir])
            if code != 0:
                sys.exit(f"{command}: job {index} exited with code {code}")
            rows = workloads.read_output(job, out_dir)
            for item in job.items:
                refs[item.ref_key] = rows[item.label]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return refs


def main(argv: list[str]) -> int:
    run.cap_threads()
    cli = run.import_program()
    for command in argv or workloads.COMMANDS:
        refs = record(cli, command)
        os.makedirs(workloads.REFS_DIR, exist_ok=True)
        path = os.path.join(workloads.REFS_DIR, f"{command}.json")
        compact = (json.dumps(key) + ": " + json.dumps(refs[key], separators=(",", ":"))
                   for key in sorted(refs))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(compact) + "\n}\n")
        print(f"{command}: {len(refs)} reference items -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
