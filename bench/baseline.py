#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                              [--record bench/BASELINE.json]

Each run is a fresh ``bench/run.py`` process, as the benchmark is meant
to be run.  For every workload and metric this prints the median over
seeds, the quartiles, and the quartile spread as a share of the median
next to the metric's bound in BENCHMARK.json; with --trace 0 it also
prints the failed-op share and the worst relative output deviation.
--record writes (or extends) a run record: machine, versions, thread
settings, commit, and every run's raw samples with median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> dict:
    return {key: value for key, value in run.stats(values).items() if key != "samples"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "process_s": elapsed, "result": result, "record": record}


def summarise(workload: str, runs: list[dict], bounds: dict) -> dict:
    names = list(runs[0]["result"]["metrics"])
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q = quartiles(values)
        spread = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "values": values, **q, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f"  bound {bound:.2f} " + ("ok" if spread < bound / 3 else "WIDE"))
        print(f"{workload:16s} {name:52s} median {q['median']:.6g} "
              f"[{q['q1']:.6g}, {q['q3']:.6g}] {summary[name]['unit']}"
              f"  spread {spread:.3f}{flag}")
    checks = [r["record"]["check"] for r in runs]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    worst = max(c["max_rel_dev"] for c in checks)
    print(f"{workload:16s} {'failed_frac':52s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(f"{workload:16s} {'max_rel_dev':52s} {worst:.6g} ratio")
    print(f"{workload:16s} process seconds per run: "
          f"{statistics.median(r['process_s'] for r in runs):.1f} median, "
          f"{max(r['process_s'] for r in runs):.1f} max")
    return {"metrics": summary, "failed_frac": failed / attempted,
            "max_rel_dev": worst,
            "runs": [{"seed": r["seed"], "process_s": r["process_s"],
                      **{k: v for k, v in r["record"].items()
                         if k not in ("machine", "commit")}}
                     for r in runs]}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", help="run record (JSON) to write or extend")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summaries = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        summaries[workload] = summarise(workload, runs, bounds)
        first = runs[0]["record"]

    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        record.update({"commit": first["commit"], "machine": first["machine"],
                       "run_seconds": args.seconds})
        section = record.setdefault(f"trace{args.trace}", {})
        section.update(summaries)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"run record -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
