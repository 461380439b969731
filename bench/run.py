#!/usr/bin/env python3
"""Run one sigmalab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` and nowhere else.  One process is one closed-loop client doing
one operation at a time; BLAS/OpenMP pools are capped at the core count.

--trace 0   times whole passes (every job of the workload through
            ``sigmalab.cli.main``) for about S seconds and reports the
            end-to-end metrics of BENCHMARK.json.
--trace 1   alternates plain and traced passes and reports the per-layer
            metrics; spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (machine, versions, raw samples with median and quartiles) is written
to ``.bench_out/run-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer counts reported as (span name, quantity, unit).
LAYER_COUNTS = [
    ("dispersion.kernel_values", "calls", "count"),
    ("dispersion.kernel_values", "samples", "count"),
    ("dispersion.cutoff_chi", "samples", "count"),
    ("kernels.bessel_tilde", "calls", "count"),
    ("kernels.bessel_tilde", "samples", "count"),
    ("kernels.kernel_lr_norm", "calls", "count"),
    ("kernels.kernel_profile", "points", "count"),
    ("kernels.rfft", "calls", "count"),
    ("kernels.rfft", "points", "count"),
    ("kernels.rfft", "bytes_computed", "B"),
    ("spectral.semilinear_solve", "calls", "count"),
    ("spectral.fft", "calls", "count"),
    ("spectral.fft", "points", "count"),
    ("spectral.fft", "bytes_computed", "B"),
    ("spectral.lq_norm", "calls", "count"),
    ("admissibility.admissible_interval", "calls", "count"),
    ("params.validate", "calls", "count"),
]

#: Layer times reported as a share of the traced cli.main time, so that a
#: layer a workload never calls reads 0 rather than a constant time.
LAYER_SHARES = [
    ("dispersion", "busy_s"),
    ("dispersion.kernel_values", "busy_s"),
    ("dispersion.kernel_dt_values", "busy_s"),
    ("dispersion.cutoff_chi", "busy_s"),
    ("kernels", "busy_s"),
    ("kernels.bessel_tilde", "busy_s"),
    ("kernels.kernel_lr_norm", "busy_s"),
    ("kernels.kernel_lr_norm", "self_s"),
    ("kernels.kernel_profile", "busy_s"),
    ("kernels.rfft", "busy_s"),
    ("spectral", "busy_s"),
    ("spectral.semilinear_solve", "busy_s"),
    ("spectral.semilinear_solve", "self_s"),
    ("spectral.fft", "busy_s"),
    ("spectral.lq_norm", "busy_s"),
    ("admissibility", "busy_s"),
    ("admissibility.admissible_interval", "busy_s"),
    ("params", "busy_s"),
    ("params.validate", "busy_s"),
    ("params.make", "busy_s"),
]


def cap_threads() -> None:
    cores = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(min(limit, cores))


def import_program():
    """Import sigmalab.cli from this checkout's src/, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "sigmalab", "__init__.py")):
        sys.exit(f"bench: no sigmalab sources under {SRC}")
    sys.path.insert(0, SRC)
    import sigmalab.cli
    return sigmalab.cli


def write_configs(jobs, work: str) -> list[str]:
    paths = []
    for index, job in enumerate(jobs):
        path = os.path.join(work, f"job{index}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.config)
        paths.append(path)
    return paths


def setup_probe(args) -> None:
    """Child process of measure_setup: imports sigmalab (and with it numpy
    and scipy), generates the configs, reports ready."""
    import_program()
    work = os.path.join(WORK_DIR, f"probe-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        write_configs(workloads.generate(args.workload, args.seed, args.size), work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            sys.exit(f"bench: setup probe failed with exit code {code}")
    return times


def run_pass(cli, jobs, configs, out_root, call):
    """Run every job once; return (wall s, CPU s, exit codes, output dirs)."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_dirs = [os.path.join(out_root, f"job{i}") for i in range(len(jobs))]
    gc.collect()
    codes = []
    cpu = time.process_time()
    start = time.perf_counter()
    for job, config, out_dir in zip(jobs, configs, out_dirs):
        try:
            codes.append(call(cli.main, [job.command, "--config", config,
                                         "--out", out_dir]))
        except Exception:  # a traceback fails the job like a nonzero exit
            traceback.print_exc()
            codes.append(1)
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu, codes, out_dirs


def stats(values: list[float]) -> dict:
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"samples": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine_info() -> dict:
    """nproc, CPU model, cache sizes, RAM, library versions, thread caps."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        fields = [_read(os.path.join(cache_dir, index, f)) for f in ("level", "type", "size")]
        if None not in fields and fields[1].strip() != "Instruction":
            caches[f"l{fields[0].strip()}_cache"] = fields[2].strip()
    pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        **caches,
        "ram_bytes": pages * page_size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    head = (_read(os.path.join(git, "HEAD")) or "").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    direct = _read(os.path.join(git, ref))
    if direct:
        return direct.strip()
    packed = _read(os.path.join(git, "packed-refs")) or ""
    return next((line.split()[0] for line in packed.splitlines()
                 if line.endswith(" " + ref)), None)


def output_bytes(out_dirs) -> int:
    return sum(os.path.getsize(os.path.join(d, name))
               for d in out_dirs if os.path.isdir(d) for name in os.listdir(d))


def layer_metrics(summary: dict, cpu_s: float, written: int) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    main = get("cli.main", "busy_s")
    metrics = {}
    for name, key, unit in LAYER_COUNTS:
        metrics[f"{name}.{key}"] = (int(get(name, key)), unit)
    metrics["spectral.steps"] = (int(get("spectral.semilinear_solve", "steps")), "count")
    metrics["cli.output_bytes"] = (written, "B")
    metrics["dispersion.kernel_values.samples_per_s"] = (
        ratio(get("dispersion.kernel_values", "samples"),
              get("dispersion.kernel_values", "busy_s")), "1/s")
    metrics["spectral.steps_per_s"] = (
        ratio(get("spectral.semilinear_solve", "steps"),
              get("spectral.semilinear_solve", "busy_s")), "1/s")
    metrics["admissibility.admissible_interval.nonempty_frac"] = (
        ratio(get("admissibility.admissible_interval", "nonempty"),
              get("admissibility.admissible_interval", "calls")), "ratio")
    for name, key in LAYER_SHARES:
        label = "busy_share" if key == "busy_s" else "self_share"
        metrics[f"{name}.{label}"] = (ratio(get(name, key), main), "ratio")
    metrics["cli.main.busy_s"] = (main, "s")
    metrics["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    metrics["process.cpu_s"] = (cpu_s, "s")
    return metrics


def _another_fits(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether a pass of median length would end within the run's seconds."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def benchmark(args) -> dict:
    """One run: set-up probes, then timed (or traced) passes, then checks."""
    setup_times = [] if args.trace else measure_setup(args)
    cli = import_program()
    jobs = workloads.generate(args.workload, args.seed, args.size)
    refs = workloads.load_refs()
    ops = sum(job.ops for job in jobs)
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    check = workloads.CheckResult()
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds,
              "commit": git_commit(), "machine": machine_info(),
              "ops_per_pass": ops}

    def plain(fn, *a):
        return fn(*a)

    def one_pass(call):
        wall, cpu, codes, out_dirs = run_pass(cli, jobs, configs, out_root, call)
        for job, code, out_dir in zip(jobs, codes, out_dirs):
            workloads.check_job(job, out_dir, code, refs, check)
        return wall, cpu, out_dirs

    try:
        configs = write_configs(jobs, work)
        out_root = os.path.join(work, "out")
        start = time.perf_counter()
        if args.trace:
            metrics = traced_passes(args, one_pass, plain, start, record)
        else:
            walls = []
            while len(walls) < MIN_PASSES or _another_fits(start, args.seconds, walls):
                walls.append(one_pass(plain)[0])
            record["setup_s"] = stats(setup_times)
            record["wall_s"] = stats(walls)
            # A run has only a few passes, so their mean (total time over
            # passes) averages the host's speed swings that a median of
            # so few would merely sample.
            wall = statistics.fmean(walls)
            metrics = {
                "setup_s": (record["setup_s"]["median"], "s"),
                "wall_s": (wall, "s"),
                "ops_per_s": (ops / wall, "op/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = check.failed / check.attempted
    checks = {"check.failed_frac": (failed_frac, "ratio"),
              "check.max_rel_dev": (check.max_rel_dev, "ratio")}
    if args.trace:
        metrics.update(checks)
    record["check"] = {"attempted": check.attempted, "failed": check.failed,
                       "failed_frac": failed_frac, "max_rel_dev": check.max_rel_dev}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, (value, unit) in {**metrics, **checks}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return {"correct": check.failed == 0, "attempted": check.attempted,
            "failed": check.failed, "metrics": record["metrics"]}


def traced_passes(args, one_pass, plain, start, record) -> dict:
    """Alternate plain and traced passes; per-layer metrics are the median
    over traced passes, whose counts must repeat exactly."""
    import tracer as tracing
    tracer = tracing.Tracer()
    plain_walls, traced_walls, per_pass, summaries = [], [], [], []

    def traced(fn, *a):
        return tracer.call("cli.main", fn, *a)

    # Passes run plain, traced, traced, then alternate while time remains.
    while True:
        done = len(plain_walls) + len(traced_walls)
        if len(traced_walls) >= 2 and not _another_fits(
                start, args.seconds, plain_walls + traced_walls):
            break
        if done == 0 or (done >= 3 and done % 2 == 1):
            plain_walls.append(one_pass(plain)[0])
            continue
        tracer.run = len(traced_walls)
        with tracing.patched(tracer):
            wall, cpu, out_dirs = one_pass(traced)
        traced_walls.append(wall)
        summary = tracer.summary(tracer.run)
        summaries.append(summary)
        per_pass.append(layer_metrics(summary, cpu, output_bytes(out_dirs)))

    counts = [{name: value for name, (value, unit) in m.items()
               if unit in ("count", "B")} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        sys.exit("bench: per-layer counts differ between passes of one seed")
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    record["plain_wall_s"] = stats(plain_walls)
    record["traced_wall_s"] = stats(traced_walls)
    record["layers"] = summaries
    metrics = {name: (value if unit in ("count", "B")
                      else statistics.median(m[name][0] for m in per_pass), unit)
               for name, (value, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = (record["traced_wall_s"]["median"]
                                   - record["plain_wall_s"]["median"], "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
