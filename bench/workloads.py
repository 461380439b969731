"""Workload generation and output checking for the sigmalab benchmark.

A workload turns a seed into a list of jobs.  A job is one INI config
fed to ``sigmalab.cli.main`` exactly as ``sigmalab <command> --config``
would receive it, plus the checked items of its output: one item per
output row (kernel sweep, admissible case) or per output file (evolve
trajectory), each worth a stated number of operations.

Every input a seed can produce comes from a fixed pool whose outputs
were recorded by ``record_refs.py`` (``refs/<command>.json``), so the
outputs of every seed can be checked.  A kernel norm's cost grows
steeply with every numeric input (t, mu, the band), so for kernel jobs
the seed varies only the section order and labels; evolve and
admissible jobs draw initial data and parameter tuples from their pools,
which keeps the work per run fixed.

This module imports nothing from sigmalab, so generating a workload is
cheap and the setup probe can time the imports separately.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

WORKLOADS = ("kernel-norms", "evolve-admissible")
COMMANDS = ("kernel-norm", "evolve", "admissible")
SIZES = ("full", "tiny")

#: Relative tolerance per CLI command for numbers written with 12
#: significant digits; admissible intervals are exact rationals.
TOLERANCE = {"kernel-norm": 1e-6, "evolve": 1e-9, "admissible": 0.0}


@dataclass(frozen=True)
class Item:
    """One checked output unit: a row label, its reference key, its ops."""

    label: str
    ref_key: str
    ops: int


@dataclass
class Job:
    command: str
    config: str
    output: str
    items: list[Item] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(item.ops for item in self.items)


def _ini(sections: list[tuple[str, dict]]) -> str:
    lines = []
    for name, entries in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def _key(*parts) -> str:
    return json.dumps(parts, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Kernel-norm workloads
# ---------------------------------------------------------------------------

_N1 = {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1"}
_N2 = {"sigma": "1", "delta": "1/4", "mu": "1", "n": "2"}

#: The two sweeps of the shipped kernel-smallt preset; K0-high-smallt
#: reports tolerance_exceeded by design (acceptance criterion 05a).
_SMALLT_SWEEPS = {
    "K0-high-smallt": {"which": "K0", "band": "high", "a": "0", "r": "1",
                       "regime": "small_t", "t_min": "0.05", "t_max": "0.5",
                       "points": "6"},
    "K1-low-smallt": {"which": "K1", "band": "low", "a": "0", "r": "1",
                      "regime": "small_t", "t_min": "0.02", "t_max": "0.5",
                      "points": "7"},
}

#: n = 2 low-band large-t sweep: the scaled shared-panel transform, where
#: bessel_tilde does nearly all the work.  The tiny size uses r = 2
#: (Parseval), which skips the transform.
_N2_SWEEPS = {
    "full": {"K0-low-larget": {"which": "K0", "band": "low", "a": "0",
                               "r": "1", "regime": "large_t", "t_min": "1",
                               "t_max": "10", "points": "5"}},
    "tiny": {"K0-low-larget-L2": {"which": "K0", "band": "low", "a": "0",
                                  "r": "2", "regime": "large_t", "t_min": "1",
                                  "t_max": "10", "points": "5"}},
}


def _kernel_job(model: dict, sweeps: list[tuple[str, dict]]) -> Job:
    items = [Item(label, _key(model, spec), int(spec["points"]))
             for label, spec in sweeps]
    sections = [("model", model)] + [(f"sweep {label}", spec)
                                     for label, spec in sweeps]
    return Job("kernel-norm", _ini(sections), "kernel_norm.csv", items)


def _kernel_norms(rng: random.Random, size: str) -> list[Job]:
    names = ["K1-low-smallt"] if size == "tiny" else list(_SMALLT_SWEEPS)
    rng.shuffle(names)
    n2_sweeps = [(f"{name}-{rng.randrange(1000):03d}", spec)
                 for name, spec in _N2_SWEEPS[size].items()]
    return [_kernel_job(_N1, [(name, _SMALLT_SWEEPS[name]) for name in names]),
            _kernel_job(_N2, n2_sweeps)]


# ---------------------------------------------------------------------------
# Evolve workload
# ---------------------------------------------------------------------------

_EVOLVE_MODEL = {"sigma": "1", "delta": "1/4", "mu": "1", "n": "2",
                 "q": "2", "m": "1", "p": "3"}
_EVOLVE_GRID = {"full": {"L": "64", "N": "256"},
                "tiny": {"L": "16", "N": "32"}}
_EVOLVE_TIME = {"full": {"t_end": "6", "dt": "0.05", "store_every": "20"},
                "tiny": {"t_end": "0.5", "dt": "0.05", "store_every": "5"}}
#: Initial-data pool (amplitude, width); the step count does not depend
#: on the data, so every draw does the same work.
_EVOLVE_DATA = {"full": [("0.25", "1.5"), ("0.25", "2"),
                         ("0.5", "1.5"), ("0.5", "2")],
                "tiny": [("0.5", "2")]}
_NONLINEARITIES = ("abs_u_p", "abs_ut_p")


def _evolve_job(size: str, data: tuple[str, str], nonlinearity: str) -> Job:
    time_sec = _EVOLVE_TIME[size]
    steps = round(float(time_sec["t_end"]) / float(time_sec["dt"]))
    sections = [
        ("model", _EVOLVE_MODEL), ("grid", _EVOLVE_GRID[size]),
        ("time", time_sec),
        ("data", {"amplitude": data[0], "width": data[1]}),
        ("evolve", {"nonlinearity": nonlinearity, "q_list": "2,4"}),
    ]
    item = Item(nonlinearity, _key(sections), steps)
    return Job("evolve", _ini(sections), "evolve.csv", [item])


def _evolve_jobs(rng: random.Random, size: str) -> list[Job]:
    order = list(_NONLINEARITIES)
    rng.shuffle(order)
    return [_evolve_job(size, rng.choice(_EVOLVE_DATA[size]), nonlinearity)
            for nonlinearity in order]


# ---------------------------------------------------------------------------
# Admissible-scan workload
# ---------------------------------------------------------------------------

THEOREMS = ("T2A", "T3A", "T4A", "T5A", "T6A", "T2B", "T3B", "T4B", "T5B", "T6B")
_PARAM_KEYS = ("sigma", "delta", "mu", "n", "q", "m", "s")

_SET1 = {"sigma": "2", "delta": "9/10", "mu": "1", "q": "5", "m": "1"}
_SET2 = {"sigma": "2", "delta": "7/8", "mu": "1", "q": "4", "m": "1"}

#: The ten reference intervals of acceptance criterion 01, as the CLI
#: writes them; checked exactly in every admissible scan.
PAPER_CASES = {
    "T2A": ({**_SET1, "n": "3", "s": "0"}, "(13/2, inf)"),
    "T3A": ({**_SET1, "n": "3", "s": "3/2"}, "(13/2, inf)"),
    "T4A": ({**_SET1, "n": "3", "s": "5/2"}, "(49/8, inf)"),
    "T5A": ({**_SET1, "n": "5", "s": "5"}, "[5, inf)"),
    "T6A": ({**_SET1, "n": "3", "s": "5"}, "[5, inf)"),
    "T2B": ({**_SET2, "n": "9", "s": "0"}, "[4, 9]"),
    "T3B": ({**_SET2, "n": "9", "s": "9/5"}, "[4, 5]"),
    "T4B": ({**_SET2, "n": "9", "s": "5/2"}, "[4, inf)"),
    "T5B": ({**_SET2, "n": "8", "s": "5"}, "(4, inf)"),
    "T6B": ({**_SET2, "n": "9", "s": "5"}, "(4, inf)"),
}

_POOL_SEED = 1808_02706
_POOL_SIZE = 6000
_SCAN_CASES = {"full": 4000, "tiny": 40}


def _random_case(rng: random.Random) -> dict:
    """A parameter tuple aimed near the gates of a random theorem, so the
    scan covers both gated and non-empty intervals."""
    theorem = rng.choice(THEOREMS)
    family = int(theorem[1])
    sigma = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2),
                        Fraction(5, 2), Fraction(3)])
    delta = sigma / 2 * Fraction(rng.randint(13, 19), 20)
    q = rng.choice([Fraction(2), Fraction(3), Fraction(4), Fraction(6)])
    m = rng.choice([Fraction(1), Fraction(5, 4), Fraction(3, 2)])
    if theorem.endswith("B"):
        n1 = 4 * m * q * (sigma - delta) / (q - m)
        n = rng.randint(max(1, math.floor(n1) - 1), math.floor(n1) + 6)
    else:
        n0 = (6 * delta - 2 * sigma) / (sigma - 2 * delta)
        n = rng.randint(1, max(1, 2 * math.ceil(n0) + 1))
    if family == 2:
        s = Fraction(rng.randint(0, 8), 2)
    elif family == 3:
        s = sigma * Fraction(rng.randint(0, 9), 8)
    elif family == 4:
        s = sigma + Fraction(n) / q * Fraction(rng.randint(0, 5), 4)
    else:
        s = sigma + Fraction(n) / q + Fraction(rng.randint(0, 6), 2)
    return {"theorem": theorem, "sigma": str(sigma), "delta": str(delta),
            "mu": rng.choice(["1/2", "1", "2"]), "n": str(n), "q": str(q),
            "m": str(m), "s": str(s)}


def case_key(case: dict) -> str:
    return " ".join([case["theorem"]] + [case[k] for k in _PARAM_KEYS])


def admissible_pool() -> list[dict]:
    """The fixed pool of generated cases, identical for every seed."""
    rng = random.Random(_POOL_SEED)
    pool, seen = [], set()
    while len(pool) < _POOL_SIZE:
        case = _random_case(rng)
        if case_key(case) not in seen:
            seen.add(case_key(case))
            pool.append(case)
    return pool


def _admissible_job(cases: list[tuple[str, dict]]) -> Job:
    sections = [(f"case {label}", case) for label, case in cases]
    items = [Item(label, case_key(case), 1) for label, case in cases]
    return Job("admissible", _ini(sections), "admissible.ndjson", items)


def _admissible_scan(rng: random.Random, size: str) -> Job:
    drawn = rng.sample(admissible_pool(), _SCAN_CASES[size])
    cases = [(f"c{i:04d}", case) for i, case in enumerate(drawn)]
    for theorem, (params, _) in PAPER_CASES.items():
        cases.insert(rng.randrange(len(cases) + 1),
                     (f"paper-{theorem}", {"theorem": theorem, **params}))
    return _admissible_job(cases)


def _evolve_admissible(rng: random.Random, size: str) -> list[Job]:
    return _evolve_jobs(rng, size) + [_admissible_scan(rng, size)]


_GENERATORS = {
    "kernel-norms": _kernel_norms,
    "evolve-admissible": _evolve_admissible,
}


def generate(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The jobs of one pass of `workload`; the same seed gives the same jobs."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), size)


def reference_jobs(command: str) -> list[Job]:
    """Jobs of one CLI command that cover every item any seed can produce."""
    if command == "kernel-norm":
        return [_kernel_job(_N1, list(_SMALLT_SWEEPS.items()))] + [
            _kernel_job(_N2, list(sweeps.items())) for sweeps in _N2_SWEEPS.values()]
    if command == "evolve":
        return [_evolve_job(size, data, nonlinearity) for size in SIZES
                for data in _EVOLVE_DATA[size] for nonlinearity in _NONLINEARITIES]
    return [_admissible_job([(f"p{i:04d}", case)
                             for i, case in enumerate(admissible_pool())])]


# ---------------------------------------------------------------------------
# Output parsing and checking
# ---------------------------------------------------------------------------

def read_output(job: Job, out_dir: str) -> dict[str, object]:
    """Output rows of one job by item label; raises OSError if missing."""
    path = os.path.join(out_dir, job.output)
    with open(path, encoding="utf-8") as fh:
        if job.command == "admissible":
            rows = [json.loads(line) for line in fh if line.strip()]
            return {row["case"]: {k: row[k] for k in
                                  ("interval", "empty", "gate_failed", "empty_reason")}
                    for row in rows}
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if job.command == "evolve":
        return {job.items[0].label: rows}
    header = rows[0]
    by_sweep = {}
    for cells in rows[1:]:
        row = dict(zip(header, cells))
        by_sweep[row["sweep"]] = {k: row[k] for k in
                                  ("fitted", "theoretical", "rel_err", "status")}
    return by_sweep


def load_refs() -> dict:
    """Recorded outputs of every command by reference key, with the paper
    intervals of criterion 01 in place of their recorded rows."""
    refs = {}
    for command in COMMANDS:
        with open(os.path.join(REFS_DIR, f"{command}.json"), encoding="utf-8") as fh:
            refs.update(json.load(fh))
    for theorem, (params, interval) in PAPER_CASES.items():
        refs[case_key({"theorem": theorem, **params})] = {
            "interval": interval, "empty": "0", "gate_failed": "0", "empty_reason": ""}
    return refs


def _number_dev(got: str, want: str) -> float:
    """Relative deviation of two numeric cells (absolute when want is 0)."""
    if got == want:
        return 0.0
    try:
        a, b = float(got), float(want)
    except ValueError:
        return float("inf")
    return abs(a - b) / abs(b) if b != 0.0 else abs(a - b)


_ENDPOINT = re.compile(r"-?\d+(?:/\d+)?|inf")


def _interval_dev(got: str, want: str) -> float:
    """Largest relative deviation between the endpoints of two intervals."""
    if got == want:
        return 0.0
    a, b = _ENDPOINT.findall(got), _ENDPOINT.findall(want)
    if len(a) != len(b) or got[:1] != want[:1] or got[-1:] != want[-1:]:
        return 1.0
    dev = 0.0
    for x, y in zip(a, b):
        if "inf" in (x, y):
            dev = max(dev, 0.0 if x == y else 1.0)
        else:
            fx, fy = Fraction(x), Fraction(y)
            dev = max(dev, float(abs(fx - fy) / abs(fy)) if fy else float(abs(fx)))
    return dev


def compare(command: str, got, want) -> tuple[bool, float]:
    """(within tolerance, worst relative deviation) of one item."""
    tol = TOLERANCE[command]
    if command == "admissible":
        dev = _interval_dev(got["interval"], want["interval"])
        return got == want, dev
    if command == "evolve":
        if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
            return False, 0.0
        dev = max((_number_dev(g, w) for gr, wr in zip(got[1:], want[1:])
                   for g, w in zip(gr, wr)), default=0.0)
        return got[0] == want[0] and dev <= tol, dev
    dev = max(_number_dev(got[k], want[k]) for k in ("fitted", "rel_err")
              if want[k] != "" or got[k] != "")
    exact = all(got[k] == want[k] for k in ("theoretical", "status"))
    return exact and dev <= tol, dev


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    max_rel_dev: float = 0.0


def check_job(job: Job, out_dir: str, exit_code: int, refs: dict,
              result: CheckResult) -> None:
    """Add the ops of one finished job to `result`, failing every op of an
    item whose output is missing or outside tolerance."""
    result.attempted += job.ops
    rows = {}
    if exit_code == 0:
        try:
            rows = read_output(job, out_dir)
        except (OSError, ValueError, KeyError, IndexError):
            rows = {}
    for item in job.items:
        if item.label not in rows:
            result.failed += item.ops
            continue
        ok, dev = compare(job.command, rows[item.label], refs[item.ref_key])
        if dev != float("inf"):
            result.max_rel_dev = max(result.max_rel_dev, dev)
        if not ok:
            result.failed += item.ops
