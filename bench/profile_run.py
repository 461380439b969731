#!/usr/bin/env python3
"""cProfile one pass of a benchmark workload; print and save the top 20.

    python3 bench/profile_run.py --workload NAME [--seed N]

Profiling adds cost to every Python call but not to work inside numpy,
which shifts the proportions, so this is for finding candidates only:
it is never combined with a timed or traced run.  The report goes to
``.bench_out/profile-<workload>-seed<N>.txt``, sorted by own time and by
cumulative time.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.cap_threads()
    cli = run.import_program()
    jobs = workloads.generate(args.workload, args.seed)
    work = os.path.join(run.WORK_DIR, f"profile-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    profiler = cProfile.Profile()
    try:
        configs = run.write_configs(jobs, work)
        out_root = os.path.join(work, "out")
        _, _, codes, _ = run.run_pass(cli, jobs, configs, out_root,
                                      lambda fn, *a: profiler.runcall(fn, *a))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(codes):
        sys.exit(f"{args.workload}: exit codes {codes}")
    report = io.StringIO()
    for key in ("tottime", "cumulative"):
        report.write(f"== {args.workload} seed {args.seed}: top 20 by {key} ==\n")
        pstats.Stats(profiler, stream=report).sort_stats(key).print_stats(20)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = os.path.join(run.OUT_DIR, f"profile-{args.workload}-seed{args.seed}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.getvalue())
    print(report.getvalue())
    print(f"profile -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
