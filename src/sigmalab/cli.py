"""Reproducible experiment command line.

Subcommands
-----------
admissible    exact exponent intervals for the six theorem families
decay-fit     linear-evolution norm decay fitted against predicted rates
kernel-norm   kernel L^r norm sweeps fitted against predicted rates
evolve        semilinear (or linear) evolution with norm CSV output
gevrey        exponentially weighted energy scan of the linear flow
toolkit       partition/Bell tables and Duhamel integral/bound ratios

Experiments are described by flat INI-style configs (sections of
``key = value`` pairs, exact rationals written ``a/b``) or by named
built-in presets; identical config and seed produce byte-identical CSV.
Exit codes: 0 success, 1 config error, 2 assertion failure (tolerance
or gate violations; interval gates only under ``--strict``),
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .admissibility import AdmissibleInterval, TheoremId, admissible_interval
from .kernels import fit_power_law, kernel_lr_norm, theoretical_exponent
from .params import ModelParams, as_fraction, validate
from .spectral import (BlowUpError, Field, Snapshot, TorusGrid,
                       gaussian_field, gevrey_energy, linear_evolve, lq_norm,
                       make_grid, semilinear_solve, zero_field)
from .toolkit import duhamel_bound, duhamel_integral, faa_di_bruno_partitions

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERT = 2
EXIT_NONCONV = 3

_MODEL_KEYS = ("sigma", "delta", "mu", "n", "q", "m", "s", "p")


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict[str, dict[str, str]]:
    """Sections of a flat INI config with [DEFAULT] merged into each, read
    in one pass: `[name]`, `key = value` or `key: value` (the first `=`
    or `:` splits), blank and full-line `#` / `;` comment lines only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    entries = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        value = line.strip()
        if not value or value[0] in "#;":
            continue
        where = f"{path!r} line {lineno}"
        if line[0].isspace():
            raise ConfigError(f"{where}: indented (continuation) line")
        if value[0] == "[" and value[-1] == "]" and len(value) > 2:
            if value[1:-1] in sections:
                raise ConfigError(f"{where}: duplicate section {value}")
            entries = sections[value[1:-1]] = {}
            continue
        if entries is None:
            raise ConfigError(f"{where}: key before any [section]")
        eq, colon = value.find("="), value.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon
        if cut <= 0:
            raise ConfigError(f"{where}: expected [section] or key = value")
        key = value[:cut].rstrip()
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        entries[key] = value[cut + 1:].strip()
    defaults = sections.pop("DEFAULT", {})
    return {name: {**defaults, **keys} for name, keys in sections.items()}


def _check_sections(cfg: dict[str, dict[str, str]],
                    allowed: dict[str, tuple[str, ...]],
                    prefixes: Optional[dict[str, tuple[str, ...]]] = None) -> None:
    """Reject unknown sections and keys up front."""
    prefixes = prefixes or {}
    for section, entries in cfg.items():
        keys = None
        if section in allowed:
            keys = allowed[section]
        else:
            for prefix, prefix_keys in prefixes.items():
                if section.startswith(prefix + " "):
                    keys = prefix_keys
                    break
        if keys is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in entries:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _params_from(cfg: dict[str, dict[str, str]],
                 overrides: Optional[dict[str, str]] = None,
                 section: str = "model") -> ModelParams:
    """ModelParams of [model] and the model keys of `overrides`, unchecked."""
    fields = dict(cfg.get("model", {}))
    if overrides:
        fields.update({k: v for k, v in overrides.items() if k in _MODEL_KEYS})
    try:
        return ModelParams.make(**fields)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid model parameters: {exc} "
                          f"in section [{section}]") from exc


def _model_from(cfg: dict[str, dict[str, str]]) -> ModelParams:
    params = _params_from(cfg)
    report = validate(params)
    if not report.ok:
        raise ConfigError("invalid model parameters: " + "; ".join(report.violations))
    return params


def _get(section: dict[str, str], key: str, conv: Callable, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")
    try:
        return conv(section[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _grid_from(section: dict[str, str], n: int, default_L: float,
               default_N: int) -> TorusGrid:
    L = _get(section, "L", float, default_L)
    N = _get(section, "N", int, default_N)
    try:
        return make_grid(n, L, N)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _gaussian_from(grid: TorusGrid, amplitude: float, width: float,
                   where: str) -> Field:
    try:
        return gaussian_field(grid, amplitude=amplitude, width=width)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_fit_window(where: str, t_min: float, t_max: float,
                      points: int) -> None:
    """Reject a time window that the power-law fit cannot use."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ConfigError(f"{where}: t_min and t_max must be finite")
    if not 0 < t_min < t_max:
        raise ConfigError(f"{where}: need 0 < t_min < t_max")
    if points < 5:
        raise ConfigError(f"{where}: points must be >= 5 for the power-law fit")


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _params_cells(params: ModelParams) -> dict[str, str]:
    return {
        "sigma": str(params.sigma), "delta": str(params.delta),
        "mu": str(params.mu), "n": str(params.n), "q": str(params.q),
        "m": str(params.m), "s": str(params.s),
        "p": "" if params.p is None else str(params.p),
    }


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    _write_cells(path, fieldnames,
                 ([_fmt(row.get(name, "")) for name in fieldnames] for row in rows))


def _write_cells(path: str, fieldnames: list[str], rows) -> None:
    """Write rows of already formatted cells as a schema-1 CSV."""
    lines = ["# schema=1", ",".join(fieldnames)]
    lines.extend(",".join(cells) for cells in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _interval_text(interval: AdmissibleInterval) -> str:
    if interval.empty:
        return "empty"
    lo = interval.lower
    hi = interval.upper
    left = "[" if (lo is not None and lo.closed) else "("
    lo_text = str(lo.value) if lo is not None and lo.value is not None else "1"
    if hi is None or hi.value is None:
        return f"{left}{lo_text}, inf)"
    right = "]" if hi.closed else ")"
    return f"{left}{lo_text}, {hi.value}{right}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_admissible(cfg, out_dir, strict, tol) -> int:
    _check_sections(cfg, {"model": _MODEL_KEYS, "admissible": ("theorems",)},
                    prefixes={"case": _MODEL_KEYS + ("theorem",)})
    rows = []
    cases: list[tuple[str, TheoremId, ModelParams, str]] = []
    case_sections = [s for s in cfg if s.startswith("case ")]
    if case_sections:
        for section in case_sections:
            entries = cfg[section]
            if "theorem" not in entries:
                raise ConfigError(f"section [{section}] needs a theorem key")
            try:
                theorem = TheoremId(entries["theorem"])
            except ValueError as exc:
                raise ConfigError(f"unknown theorem {entries['theorem']!r} "
                                  f"in section [{section}]") from exc
            cases.append((section[5:], theorem,
                          _params_from(cfg, entries, section), section))
    else:
        names = [t.strip() for t in
                 cfg.get("admissible", {}).get("theorems", "").split(",")
                 if t.strip()]
        if not names:
            raise ConfigError("no theorems configured")
        params = _params_from(cfg)
        for name in names:
            try:
                cases.append((name, TheoremId(name), params, "model"))
            except ValueError as exc:
                raise ConfigError(f"unknown theorem {name!r}") from exc

    # admissible_interval validates each case, once, before any output.
    gate_failures = 0
    for label, theorem, params, section in cases:
        try:
            interval = admissible_interval(theorem, params)
        except ValueError as exc:
            raise ConfigError(f"{exc} in section [{section}]") from exc
        gate_failed = interval.empty and any(
            c.kind == "gate" and c.active for c in interval.active_constraints)
        gate_failures += gate_failed
        rows.append([label, theorem.value, *_params_cells(params).values(),
                     _interval_text(interval), str(int(interval.empty)),
                     str(int(gate_failed)), interval.empty_reason or ""])

    # Both files are written from the same formatted cells.
    fields = ["case", "theorem", *_params_cells(cases[0][2]).keys(),
              "interval", "empty", "gate_failed", "empty_reason"]
    _write_cells(os.path.join(out_dir, "admissible.csv"), fields, rows)
    with open(os.path.join(out_dir, "admissible.ndjson"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(dict(zip(fields, cells))) + "\n"
                      for cells in rows)
    if strict and gate_failures:
        print(f"admissible: {gate_failures} gate failure(s)", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


#: Edge-to-peak amplitude ratio above which a decay sample is flagged
#: as wrap-around contaminated.  The self-similar tail of a spreading
#: solution legitimately reaches the domain edge at low amplitude long
#: before periodic images distort the norms.
_WRAP_THRESHOLD = 0.25


def _edge_fraction(snapshot: Snapshot) -> float:
    """Relative field magnitude in the outer 10% shell of the torus --
    a wrap-around monitor for decay experiments."""
    grid = snapshot.u.grid
    phys = snapshot.u.values
    coords = grid.meshgrid()
    radius = np.sqrt(sum(c ** 2 for c in coords))
    shell = radius >= 0.45 * grid.L
    peak = float(np.max(np.abs(phys)))
    if peak == 0.0 or not np.any(shell):
        return 0.0
    return float(np.max(np.abs(phys[shell])) / peak)


def cmd_decay_fit(cfg, out_dir, strict, tol) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "time": ("t_min", "t_max", "points"),
        "data": ("amplitude", "width", "which"),
        "fit": ("tol",),
    })
    params = _model_from(cfg)
    grid_sec, time_sec = cfg.get("grid", {}), cfg.get("time", {})
    data_sec, fit_sec = cfg.get("data", {}), cfg.get("fit", {})
    grid = _grid_from(grid_sec, params.n, 400.0, 2 ** 15)
    t_min = _get(time_sec, "t_min", float, 10.0)
    t_max = _get(time_sec, "t_max", float, 500.0)
    points = _get(time_sec, "points", int, 9)
    _check_fit_window("decay-fit", t_min, t_max, points)
    amplitude = _get(data_sec, "amplitude", float, 1.0)
    width = _get(data_sec, "width", float, 1.0)
    which = _get(data_sec, "which", str, "u0")
    tolerance = tol if tol is not None else _get(fit_sec, "tol", float, 0.10)
    if which not in ("u0", "u1", "zero"):
        raise ConfigError("data which must be u0, u1 or zero")

    bump = _gaussian_from(grid, amplitude, width, "decay-fit")
    zero = zero_field(grid)
    if which == "zero":
        data = Snapshot(t=0.0, u=zero, ut=zero)
    elif which == "u0":
        data = Snapshot(t=0.0, u=bump, ut=zero)
    else:
        data = Snapshot(t=0.0, u=zero, ut=bump)

    times = np.geomspace(t_min, t_max, points)
    samples, wrapped = [], 0
    for t in times:
        snap = linear_evolve(data, float(t), params)
        samples.append((float(t), lq_norm(snap.u, 2.0)))
        wrapped += _edge_fraction(snap) > _WRAP_THRESHOLD

    rows = []
    if max(v for _, v in samples) == 0.0:
        row = {"observable": "norm_L2_u", **_params_cells(params),
               "fitted": "", "theoretical": "", "rel_err": "",
               "wrapped": wrapped, "status": "skipped"}
        rows.append(row)
        ok = True
    else:
        fit = fit_power_law(samples, (t_min, t_max))
        selector = "u_from_u0" if which == "u0" else "u_from_u1"
        # Young relation 1 + 1/q = 1/r + 1/m with the L^2 observable.
        inv_r = 1 + Fraction(1, 2) - 1 / params.m
        theory = theoretical_exponent(selector, 0, "large_t", 1 / inv_r, params)
        rel_err = abs(fit.exponent - float(theory)) / max(abs(float(theory)), 1e-12)
        ok = rel_err <= tolerance
        rows.append({"observable": "norm_L2_u", **_params_cells(params),
                     "fitted": fit.exponent, "theoretical": theory,
                     "rel_err": rel_err, "wrapped": wrapped,
                     "status": "ok" if ok else "tolerance_exceeded"})
    fields = ["observable", *_params_cells(params).keys(), "fitted",
              "theoretical", "rel_err", "wrapped", "status"]
    _write_csv(os.path.join(out_dir, "decay_fit.csv"), fields, rows)
    if wrapped and strict:
        return EXIT_ASSERT
    return EXIT_OK if ok else EXIT_ASSERT


def _sweep_theory(which: str, a: Fraction, regime: str, r: Fraction,
                  band: str, params: ModelParams) -> Optional[Fraction]:
    """Predicted power of t for one norm sweep, or None when the decay
    is exponential rather than algebraic (high band at large times).

    The low band is bounded (K0) / linear in t (K1) at small times and
    carries the full-kernel algebraic rates at large times; the
    theoretical-exponent table covers the remaining regimes.
    """
    if band == "low" and regime == "small_t":
        return Fraction(1) if which == "K1" else Fraction(0)
    if band == "high" and regime == "large_t":
        return None
    return theoretical_exponent(which, a, regime, r, params)


def _sweep_from(name: str, sec: dict[str, str]) -> tuple:
    """(which, band, a, r, regime, t_min, t_max, points) of one
    [sweep NAME] section, every value checked before any norm is computed."""
    which = _get(sec, "which", str)
    band = _get(sec, "band", str, "full")
    a = _get(sec, "a", as_fraction, Fraction(0))
    r = _get(sec, "r", as_fraction, Fraction(1))
    regime = _get(sec, "regime", str)
    t_min = _get(sec, "t_min", float)
    t_max = _get(sec, "t_max", float)
    points = _get(sec, "points", int, 7)
    for ok, message in [
            (which in ("K0", "K1"), "which must be K0 or K1"),
            (band in ("low", "high", "full"), "band must be low, high or full"),
            (regime in ("small_t", "large_t"), "regime must be small_t or large_t"),
            (r >= 1, "r must be >= 1"),
            (a >= 0, "a must be >= 0")]:
        if not ok:
            raise ConfigError(f"sweep {name!r}: {message}")
    _check_fit_window(f"sweep {name!r}", t_min, t_max, points)
    return which, band, a, r, regime, t_min, t_max, points


def cmd_kernel_norm(cfg, out_dir, strict, tol) -> int:
    sweep_keys = ("which", "a", "band", "r", "regime",
                  "t_min", "t_max", "points")
    _check_sections(cfg, {"model": _MODEL_KEYS}, prefixes={"sweep": sweep_keys})
    params = _model_from(cfg)
    if params.n not in (1, 2, 3):
        raise ConfigError(f"kernel-norm supports n = 1, 2 or 3, not n = {params.n}")
    sweeps = [(s[6:], _sweep_from(s[6:], cfg[s]))
              for s in cfg if s.startswith("sweep ")]
    if not sweeps:
        raise ConfigError("no [sweep NAME] sections configured")
    tolerance = tol if tol is not None else 0.15
    rows, failures = [], 0
    for name, (which, band, a, r, regime, t_min, t_max, points) in sweeps:
        times = np.geomspace(t_min, t_max, points)
        samples = []
        for t in times:
            norm = kernel_lr_norm(which, float(a), float(t), float(r),
                                  params, params.n, band=band)
            if not norm > 0:
                print(f"kernel-norm sweep {name!r}: the norm at t = {t:.12g} "
                      f"is {norm!r}, not positive, so no power law can be "
                      "fitted", file=sys.stderr)
                return EXIT_NONCONV
            samples.append((float(t), norm))
        fit = fit_power_law(samples, (t_min, t_max))
        theory = _sweep_theory(which, a, regime, r, band, params)
        if theory is None:
            rel_err, ok = "", True
        elif theory == 0:
            rel_err = abs(fit.exponent)   # absolute deviation from flat
            ok = rel_err <= tolerance
        else:
            rel_err = abs(fit.exponent - float(theory)) / abs(float(theory))
            ok = rel_err <= tolerance
        failures += not ok
        rows.append({"sweep": name, **_params_cells(params),
                     "which": which, "band": band, "a": a, "r": r,
                     "regime": regime, "t_min": t_min, "t_max": t_max,
                     "fitted": fit.exponent, "theoretical": theory,
                     "rel_err": rel_err,
                     "status": "ok" if ok else "tolerance_exceeded"})
    fields = ["sweep", *_params_cells(params).keys(), "which", "band", "a",
              "r", "regime", "t_min", "t_max", "fitted", "theoretical",
              "rel_err", "status"]
    _write_csv(os.path.join(out_dir, "kernel_norm.csv"), fields, rows)
    if strict and failures:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_evolve(cfg, out_dir, strict, tol) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "time": ("t_end", "dt", "store_every"),
        "data": ("amplitude", "width"),
        "evolve": ("nonlinearity", "q_list", "ceiling"),
    })
    params = _model_from(cfg)
    grid_sec, time_sec = cfg.get("grid", {}), cfg.get("time", {})
    data_sec, ev_sec = cfg.get("data", {}), cfg.get("evolve", {})
    grid = _grid_from(grid_sec, params.n, 100.0, 1024)
    t_end = _get(time_sec, "t_end", float, 200.0)
    dt = _get(time_sec, "dt", float, 0.1)
    store_every = _get(time_sec, "store_every", int, 10)
    amplitude = _get(data_sec, "amplitude", float, 1e-3)
    width = _get(data_sec, "width", float, 1.0)
    nonlinearity = _get(ev_sec, "nonlinearity", str, "none")
    q_list = _get(ev_sec, "q_list",
                  lambda text: [float(Fraction(q)) for q in text.split(",")],
                  [2.0])
    ceiling = _get(ev_sec, "ceiling", float, 1e6)
    if min(q_list) < 1:
        raise ConfigError("evolve: every q in q_list must be >= 1")
    names = [f"norm_L{q:g}" for q in q_list]
    if twice := [q for i, q in enumerate(q_list) if names[i] in names[:i]]:
        raise ConfigError(f"evolve: q = {twice[0]:g} appears twice in q_list")
    if not ceiling > 0:
        raise ConfigError(f"evolve: ceiling = {ceiling:g} must be positive")

    data = Snapshot(t=0.0, u=_gaussian_from(grid, amplitude, width, "evolve"),
                    ut=zero_field(grid))
    rows = []
    try:
        for snap in semilinear_solve(data, params, nonlinearity, t_end, dt,
                                     store_every=store_every,
                                     norm_ceiling=ceiling):
            rows.append({**_params_cells(params), "t": snap.t,
                         **{name: lq_norm(snap.u, q)
                            for name, q in zip(names, q_list)},
                         "norm_ut_L2": lq_norm(snap.ut, 2.0)})
    except BlowUpError as exc:
        print(f"evolve: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except ValueError as exc:
        raise ConfigError(f"evolve: {exc}") from exc
    fields = [*_params_cells(params).keys(), "t", *names, "norm_ut_L2"]
    _write_csv(os.path.join(out_dir, "evolve.csv"), fields, rows)
    return EXIT_OK


def cmd_gevrey(cfg, out_dir, strict, tol) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "data": ("amplitude", "width"),
        "gevrey": ("c", "t_max", "points", "ratio_bound"),
    })
    params = _model_from(cfg)
    grid_sec, data_sec = cfg.get("grid", {}), cfg.get("data", {})
    gv = cfg.get("gevrey", {})
    grid = _grid_from(grid_sec, params.n, 100.0, 2048)
    c = _get(gv, "c", float, 0.2)
    t_max = _get(gv, "t_max", float, 10.0)
    points = _get(gv, "points", int, 21)
    ratio_bound = _get(gv, "ratio_bound", float, 2.0)
    if points < 2:
        # One point is t = 0 alone, where the ratio is 1 by construction.
        raise ConfigError("gevrey: points must be >= 2")
    if not c > 0:
        raise ConfigError(f"gevrey: c = {c:g} must be positive")
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ConfigError(f"gevrey: t_max = {t_max:g} must be finite and >= 0")
    data = Snapshot(t=0.0,
                    u=_gaussian_from(grid,
                                     _get(data_sec, "amplitude", float, 1.0),
                                     _get(data_sec, "width", float, 1.0),
                                     "gevrey"),
                    ut=zero_field(grid))
    base = gevrey_energy(data, c, params)
    rows, violations = [], 0
    for t in np.linspace(0.0, t_max, points):
        snap = linear_evolve(data, float(t), params)
        energy = gevrey_energy(snap, c, params)
        if not math.isfinite(energy):
            print(f"gevrey: the energy at t = {t:.12g} is {energy!r}, not finite "
                  "(the weight exp(2 c rho^(2 delta) t) overflows)", file=sys.stderr)
            return EXIT_NONCONV
        ratio = energy / base if base > 0 else 0.0
        ok = ratio <= ratio_bound
        violations += not ok
        rows.append({**_params_cells(params), "t": float(t), "c": c,
                     "energy": energy, "ratio": ratio,
                     "status": "ok" if ok else "bound_exceeded"})
    fields = [*_params_cells(params).keys(), "t", "c", "energy", "ratio",
              "status"]
    _write_csv(os.path.join(out_dir, "gevrey.csv"), fields, rows)
    return EXIT_ASSERT if violations else EXIT_OK


def cmd_toolkit(cfg, out_dir, strict, tol) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "toolkit": ("bell_max", "duhamel_times", "alpha_max", "alpha_step",
                    "ratio_bound"),
    })
    sec = cfg.get("toolkit", {})
    bell_max = _get(sec, "bell_max", int, 6)
    times = _get(sec, "duhamel_times",
                 lambda text: [float(t) for t in text.split(",")],
                 [10.0, 100.0, 1000.0])
    alpha_max = _get(sec, "alpha_max", float, 3.0)
    alpha_step = _get(sec, "alpha_step", float, 0.5)
    ratio_bound = _get(sec, "ratio_bound", float, 3.0)
    if not 1 <= bell_max <= 20:
        raise ConfigError("toolkit: bell_max must be in 1..20")
    if not alpha_step > 0:
        raise ConfigError("toolkit: alpha_step must be positive")
    if not (math.isfinite(alpha_max) and alpha_max >= 0):
        raise ConfigError(f"toolkit: alpha_max = {alpha_max:g} must be "
                          "finite and >= 0")
    if not min(times) > 0:
        raise ConfigError("toolkit: duhamel_times must be positive")

    rows = []
    for order in range(1, bell_max + 1):
        parts = faa_di_bruno_partitions(order)
        rows.append({"kind": "bell", "n": order, "count": len(parts),
                     "coeff_sum": sum(p.coefficient for p in parts)})
    violations = 0
    grid_vals = np.arange(0.0, alpha_max + 1e-9, alpha_step)
    for alpha in grid_vals:
        for beta in grid_vals:
            ratios = [duhamel_integral(alpha, beta, t) / duhamel_bound(alpha, beta, t)
                      for t in times]
            spread = max(ratios) / min(ratios)
            ok = spread <= ratio_bound
            violations += not ok
            rows.append({"kind": "duhamel", "alpha": float(alpha),
                         "beta": float(beta), "ratio_spread": spread,
                         "status": "ok" if ok else "spread_exceeded"})
    fields = ["kind", "n", "count", "coeff_sum", "alpha", "beta",
              "ratio_spread", "status"]
    _write_csv(os.path.join(out_dir, "toolkit.csv"), fields, rows)
    if strict and violations:
        return EXIT_ASSERT
    return EXIT_OK


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_SET1 = {"sigma": "2", "delta": "9/10", "mu": "1", "q": "5", "m": "1"}
_SET2 = {"sigma": "2", "delta": "7/8", "mu": "1", "q": "4", "m": "1"}

PRESETS: dict[str, tuple[str, dict[str, dict[str, str]]]] = {
    "paper-examples": ("admissible", {
        "case T2A": {**_SET1, "theorem": "T2A", "n": "3", "s": "0"},
        "case T3A": {**_SET1, "theorem": "T3A", "n": "3", "s": "3/2"},
        "case T4A": {**_SET1, "theorem": "T4A", "n": "3", "s": "5/2"},
        "case T5A": {**_SET1, "theorem": "T5A", "n": "5", "s": "5"},
        "case T6A": {**_SET1, "theorem": "T6A", "n": "3", "s": "5"},
        "case T2B": {**_SET2, "theorem": "T2B", "n": "9", "s": "0"},
        "case T3B": {**_SET2, "theorem": "T3B", "n": "9", "s": "9/5"},
        "case T4B": {**_SET2, "theorem": "T4B", "n": "9", "s": "5/2"},
        "case T5B": {**_SET2, "theorem": "T5B", "n": "8", "s": "5"},
        "case T6B": {**_SET2, "theorem": "T6B", "n": "9", "s": "5"},
    }),
    "linear-decay": ("decay-fit", {
        "model": {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1",
                  "q": "2", "m": "1"},
        "grid": {"L": "400", "N": "32768"},
        "time": {"t_min": "10", "t_max": "500", "points": "9"},
        "data": {"amplitude": "1", "width": "1", "which": "u0"},
        "fit": {"tol": "0.10"},
    }),
    "kernel-rates": ("kernel-norm", {
        "model": {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1"},
        "sweep K1-low-smallt": {"which": "K1", "band": "low", "a": "0",
                                "r": "1", "regime": "small_t",
                                "t_min": "0.02", "t_max": "0.5",
                                "points": "7"},
        "sweep K0-full-larget": {"which": "K0", "band": "full", "a": "1",
                                 "r": "1", "regime": "large_t",
                                 "t_min": "10", "t_max": "1000",
                                 "points": "9"},
    }),
    "kernel-smallt": ("kernel-norm", {
        "model": {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1"},
        "sweep K0-high-smallt": {"which": "K0", "band": "high", "a": "0",
                                 "r": "1", "regime": "small_t",
                                 "t_min": "0.05", "t_max": "0.5",
                                 "points": "6"},
        "sweep K1-low-smallt": {"which": "K1", "band": "low", "a": "0",
                                "r": "1", "regime": "small_t",
                                "t_min": "0.02", "t_max": "0.5",
                                "points": "7"},
    }),
    "semilinear-smoke": ("evolve", {
        "model": {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1",
                  "q": "2", "m": "1", "p": "3"},
        "grid": {"L": "200", "N": "2048"},
        "time": {"t_end": "200", "dt": "0.1", "store_every": "100"},
        "data": {"amplitude": "1e-3", "width": "1"},
        "evolve": {"nonlinearity": "abs_u_p", "q_list": "2"},
    }),
    "gevrey-check": ("gevrey", {
        "model": {"sigma": "1", "delta": "1/4", "mu": "1", "n": "1"},
        "grid": {"L": "100", "N": "2048"},
        "data": {"amplitude": "1", "width": "1"},
        "gevrey": {"c": "0.2", "t_max": "10", "points": "21"},
    }),
    "bell-check": ("toolkit", {
        "toolkit": {"bell_max": "8", "duhamel_times": "10,100,1000",
                    "alpha_max": "3", "alpha_step": "0.5"},
    }),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "admissible": cmd_admissible,
    "decay-fit": cmd_decay_fit,
    "kernel-norm": cmd_kernel_norm,
    "evolve": cmd_evolve,
    "gevrey": cmd_gevrey,
    "toolkit": cmd_toolkit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sigmalab",
        description="Reproducible experiments for structurally damped "
                    "sigma-evolution equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", help="experiment config file (INI)")
        cp.add_argument("--preset", help="built-in experiment name")
        cp.add_argument("--out", default="out", help="output directory")
        cp.add_argument("--strict", action="store_true",
                        help="treat assertion failures as errors (exit 2)")
        cp.add_argument("--tol", type=float, default=None,
                        help="override fit tolerance")
    args = parser.parse_args(argv)

    try:
        if (args.config is None) == (args.preset is None):
            raise ConfigError("exactly one of --config or --preset is required")
        if args.preset is not None:
            if args.preset not in PRESETS:
                raise ConfigError(
                    f"unknown preset {args.preset!r}; available: "
                    + ", ".join(sorted(PRESETS)))
            preset_command, cfg = PRESETS[args.preset]
            if preset_command != args.command:
                raise ConfigError(
                    f"preset {args.preset!r} belongs to {preset_command!r}")
            cfg = {sec: dict(entries) for sec, entries in cfg.items()}
        else:
            cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args.strict, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
