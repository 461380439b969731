#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (under a minute).

    python3 bench/selftest.py

Checks that every workload runs and passes its output check, that the
metric names and units printed match BENCHMARK.json, that per-layer
counts repeat exactly between two runs with one seed, that a perturbed
output is counted as failed, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

def bench_run(*extra: str, cwd: str = run.ROOT) -> tuple[int, str]:
    """Run bench/run.py from the checkout root `cwd`, as the benchmark is run."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int) -> dict:
    code, out = bench_run("--workload", workload, "--seed", "7",
                          "--trace", str(trace), "--size", "tiny")
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    return json.loads(out.strip().splitlines()[-1])


def check_runs(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        results = {trace: result_of(workload, trace) for trace in (0, 1)}
        for trace, result in results.items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace {trace}: {units}"
        again = result_of(workload, 1)["metrics"]
        for name, unit in expected[1].items():
            if unit in ("count", "B"):
                assert again[name] == results[1]["metrics"][name], (workload, name)
        print(f"ok  {workload}: runs, metric names match, counts repeat")


def perturb(job: workloads.Job, out_dir: str) -> None:
    """Move one checked number of the job's output well outside tolerance."""
    path = os.path.join(out_dir, job.output)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if job.command == "admissible":
        text = text.replace('"interval": "(13/2, inf)"', '"interval": "(13/3, inf)"', 1)
    else:
        lines = text.splitlines()
        header, cells = lines[1].split(","), lines[-1].split(",")
        column = header.index("fitted" if job.command == "kernel-norm" else "norm_L2")
        cells[column] = repr(float(cells[column]) * 1.01)
        lines[-1] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def check_perturbation(cli) -> None:
    refs = workloads.load_refs()
    for workload in workloads.WORKLOADS:
        for index, job in enumerate(workloads.generate(workload, 7, "tiny")):
            work = os.path.join(run.WORK_DIR, f"selftest-{workload}-{index}")
            os.makedirs(work, exist_ok=True)
            try:
                config = run.write_configs([job], work)[0]
                out_dir = os.path.join(work, "out")
                assert cli.main([job.command, "--config", config, "--out", out_dir]) == 0
                clean = workloads.CheckResult()
                workloads.check_job(job, out_dir, 0, refs, clean)
                perturb(job, out_dir)
                bad = workloads.CheckResult()
                workloads.check_job(job, out_dir, 0, refs, bad)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            assert clean.failed == 0 and clean.max_rel_dev == 0.0, (job.command, clean)
            assert bad.failed > 0, (job.command, bad)
            assert bad.max_rel_dev > workloads.TOLERANCE[job.command], (job.command, bad)
            print(f"ok  {workload} {job.command}: perturbed output counted as "
                  f"{bad.failed} failed op(s)")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.WORK_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        code, out = bench_run("--workload", workloads.WORKLOADS[0], "--seed", "1",
                              "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not out.strip(), (code, out)
    print(f"ok  without src/: exit code {code}, no result printed")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_refuses_without_sources()
    check_runs(spec)
    run.cap_threads()
    check_perturbation(run.import_program())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
