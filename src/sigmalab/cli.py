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
built-in presets, thresholds included; an identical config produces
byte-identical CSV.  Every command takes ``--config``, ``--preset`` and
``--out``; admissible, decay-fit, kernel-norm and toolkit also take
``--strict``.  Exit codes: 0 success, 1 config or usage error, 2 a
failed check (always for decay-fit's fit and gevrey's ratio bound; only
under ``--strict`` for admissible's gates, kernel-norm's and toolkit's
tolerances and decay-fit's wrap-around; never for evolve), 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .admissibility import AdmissibleInterval, TheoremId, admissible_interval
from .kernels import fit_power_law, kernel_lr_norm, theoretical_exponent
from .params import ModelParams, as_fraction, validate
from .spectral import (BlowUpError, Snapshot, TorusGrid, gaussian_field,
                       gevrey_energy, linear_evolve, lq_norm, make_grid,
                       semilinear_solve, zero_field)
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
    """Sections of a flat INI config, read line by line from the open file
    (universal newlines): `[name]`, `key = value` or `key: value` (the
    first `=` or `:` splits), blank and full-line `#` / `;` comment lines
    only.  Keys are interned, and [DEFAULT], when it has entries, is
    merged into each other section."""
    sections: dict[str, dict[str, str]] = {}
    entries = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                key = sys.intern(value[:cut].rstrip())
                if key in entries:
                    raise ConfigError(f"{where}: duplicate key {key!r}")
                entries[key] = value[cut + 1:].strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    defaults = sections.pop("DEFAULT", None)
    if defaults:
        return {name: {**defaults, **keys} for name, keys in sections.items()}
    return sections


def _check_sections(cfg: dict[str, dict[str, str]],
                    allowed: dict[str, tuple[str, ...]],
                    prefixes: Optional[dict[str, tuple[str, ...]]] = None) -> None:
    """Reject unknown sections and keys up front."""
    prefixes = prefixes or {}
    for section, entries in cfg.items():
        keys = allowed.get(section, next((
            prefix_keys for prefix, prefix_keys in prefixes.items()
            if section.startswith(prefix + " ")), None))
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
    """Valid ModelParams of [model], each value finite as a float (the
    float-using commands read the float views)."""
    params = _params_from(cfg)
    report = validate(params)
    if not report.ok:
        raise ConfigError("invalid model parameters: " + "; ".join(report.violations))
    for key in _MODEL_KEYS:
        try:
            float(getattr(params, key) or 0)
        except OverflowError:
            raise ConfigError(f"invalid model parameters: {key} is too large "
                              "for a float") from None
    return params


def _get(section: dict[str, str], key: str, conv: Callable, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")
    try:
        return conv(section[key])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _nonnegative(section: dict[str, str], key: str, default: float,
                 where: str) -> float:
    """A float of `section` that must be finite and >= 0, such as a
    tolerance or a bound."""
    value = _get(section, key, float, default)
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{where}: {key} = {value:g} must be finite and >= 0")
    return value


def _grid_from(section: dict[str, str], n: int, default_L: float,
               default_N: int) -> TorusGrid:
    L = _get(section, "L", float, default_L)
    N = _get(section, "N", int, default_N)
    try:
        return make_grid(n, L, N)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _data_from(cfg: dict[str, dict[str, str]], n: int, where: str,
               default_L: float, default_N: int, default_amplitude: float,
               which: str = "u0") -> Snapshot:
    """Data at t = 0 on the torus of [grid]: the Gaussian of [data] as
    u0 or as u1, the other zero, or zero data (which = "zero")."""
    grid = _grid_from(cfg.get("grid", {}), n, default_L, default_N)
    sec = cfg.get("data", {})
    try:
        bump = gaussian_field(grid, _get(sec, "amplitude", float, default_amplitude),
                              _get(sec, "width", float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    zero = zero_field(grid)
    u, ut = {"u0": (bump, zero), "u1": (zero, bump), "zero": (zero, zero)}[which]
    return Snapshot(t=0.0, u=u, ut=ut)


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


def _csv_lines(fieldnames: list[str]) -> tuple[list[str], Callable]:
    """The lines of a schema-1 CSV, begun with its header, and the
    writerow of a csv.writer (minimal quoting, "\n" line ends) that
    appends a row of formatted cells to them as one line."""
    lines = ["# schema=1\n"]
    writerow = csv.writer(SimpleNamespace(write=lines.append),
                          lineterminator="\n").writerow
    writerow(fieldnames)
    return lines, writerow


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    lines, writerow = _csv_lines(fieldnames)
    for row in rows:
        writerow([_fmt(row.get(name, "")) for name in fieldnames])
    _write_lines(path, lines)


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

def _admissible_cases(cfg):
    """(section, theorem, params) of each [case NAME], as it is parsed."""
    sections = [s for s in cfg if s.startswith("case ")]
    if not sections:
        raise ConfigError("no [case NAME] sections configured")
    for section in sections:
        entries = cfg[section]
        if "theorem" not in entries:
            raise ConfigError(f"section [{section}] needs a theorem key")
        try:
            theorem = TheoremId(entries["theorem"])
        except ValueError as exc:
            raise ConfigError(f"unknown theorem {entries['theorem']!r} "
                              f"in section [{section}]") from exc
        yield section, theorem, _params_from(cfg, entries, section)


def cmd_admissible(cfg, out_dir, strict) -> int:
    _check_sections(cfg, {"model": _MODEL_KEYS},
                    prefixes={"case": _MODEL_KEYS + ("theorem",)})
    fields = ["case", "theorem", *_MODEL_KEYS,
              "interval", "empty", "gate_failed", "empty_reason"]
    # Each case is validated, once, by admissible_interval as it is
    # parsed, and leaves its CSV and NDJSON lines; the files are written
    # only after every case has passed.
    csv_lines, writerow = _csv_lines(fields)
    json_lines = []
    gate_failures = 0
    for section, theorem, params in _admissible_cases(cfg):
        try:
            interval = admissible_interval(theorem, params)
        except ValueError as exc:
            raise ConfigError(f"{exc} in section [{section}]") from exc
        gate_failed = interval.empty and any(
            c.kind == "gate" and c.active for c in interval.active_constraints)
        gate_failures += gate_failed
        cells = [section[5:], theorem.value, *_params_cells(params).values(),
                 _interval_text(interval), str(int(interval.empty)),
                 str(int(gate_failed)), interval.empty_reason or ""]
        writerow(cells)
        json_lines.append(json.dumps(dict(zip(fields, cells))) + "\n")
    _write_lines(os.path.join(out_dir, "admissible.csv"), csv_lines)
    _write_lines(os.path.join(out_dir, "admissible.ndjson"), json_lines)
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


def cmd_decay_fit(cfg, out_dir, strict) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "time": ("t_min", "t_max", "points"),
        "data": ("amplitude", "width", "which"),
        "fit": ("tol",),
    })
    params = _model_from(cfg)
    time_sec, fit_sec = cfg.get("time", {}), cfg.get("fit", {})
    t_min = _get(time_sec, "t_min", float, 10.0)
    t_max = _get(time_sec, "t_max", float, 500.0)
    points = _get(time_sec, "points", int, 9)
    _check_fit_window("decay-fit", t_min, t_max, points)
    which = _get(cfg.get("data", {}), "which", str, "u0")
    tolerance = _nonnegative(fit_sec, "tol", 0.10, "decay-fit")
    if which not in ("u0", "u1", "zero"):
        raise ConfigError("data which must be u0, u1 or zero")
    data = _data_from(cfg, params.n, "decay-fit", 400.0, 2 ** 15, 1.0, which)

    times = np.geomspace(t_min, t_max, points)
    samples, wrapped = [], 0
    for t in times:
        try:
            snap = linear_evolve(data, float(t), params)
        except BlowUpError:
            print(f"decay-fit: the L^2 norm at t = {t:.12g} overflows "
                  "(the data are too large)", file=sys.stderr)
            return EXIT_NONCONV
        samples.append((float(t), lq_norm(snap.u, 2.0)))
        wrapped += _edge_fraction(snap) > _WRAP_THRESHOLD

    rows = []
    if max(v for _, v in samples) == 0.0:
        rows.append({"observable": "norm_L2_u", **_params_cells(params),
                     "fitted": "", "theoretical": "", "rel_err": "",
                     "wrapped": wrapped, "status": "skipped"})
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


def cmd_kernel_norm(cfg, out_dir, strict) -> int:
    sweep_keys = ("which", "a", "band", "r", "regime",
                  "t_min", "t_max", "points")
    _check_sections(cfg, {"model": _MODEL_KEYS, "fit": ("tol",)},
                    prefixes={"sweep": sweep_keys})
    params = _model_from(cfg)
    if params.n not in (1, 2, 3):
        raise ConfigError(f"kernel-norm supports n = 1, 2 or 3, not n = {params.n}")
    sweeps = [(s[6:], _sweep_from(s[6:], cfg[s]))
              for s in cfg if s.startswith("sweep ")]
    if not sweeps:
        raise ConfigError("no [sweep NAME] sections configured")
    tolerance = _nonnegative(cfg.get("fit", {}), "tol", 0.15, "kernel-norm")
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
        else:  # the deviation from a flat law (theory 0) is absolute
            rel_err = (abs(fit.exponent - float(theory))
                       / (abs(float(theory)) or 1.0))
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


def cmd_evolve(cfg, out_dir) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "time": ("t_end", "dt", "store_every"),
        "data": ("amplitude", "width"),
        "evolve": ("nonlinearity", "q_list", "ceiling"),
    })
    params = _model_from(cfg)
    time_sec, ev_sec = cfg.get("time", {}), cfg.get("evolve", {})
    data = _data_from(cfg, params.n, "evolve", 100.0, 1024, 1e-3)
    t_end = _get(time_sec, "t_end", float, 200.0)
    dt = _get(time_sec, "dt", float, 0.1)
    store_every = _get(time_sec, "store_every", int, 10)
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

    rows = []
    try:
        solve = semilinear_solve(data, params, nonlinearity, t_end, dt,
                                 store_every=store_every, norm_ceiling=ceiling)
        del data  # the solve holds its own copy
        for snap in solve:
            rows.append({**_params_cells(params), "t": snap.t,
                         **{name: lq_norm(snap.u, q)
                            for name, q in zip(names, q_list)},
                         "norm_ut_L2": lq_norm(snap.ut, 2.0)})
            del snap  # not held while the next state is stepped
    except BlowUpError as exc:
        print(f"evolve: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except ValueError as exc:
        raise ConfigError(f"evolve: {exc}") from exc
    fields = [*_params_cells(params).keys(), "t", *names, "norm_ut_L2"]
    _write_csv(os.path.join(out_dir, "evolve.csv"), fields, rows)
    return EXIT_OK


def cmd_gevrey(cfg, out_dir) -> int:
    _check_sections(cfg, {
        "model": _MODEL_KEYS,
        "grid": ("L", "N"),
        "data": ("amplitude", "width"),
        "gevrey": ("c", "t_max", "points", "ratio_bound"),
    })
    params = _model_from(cfg)
    gv = cfg.get("gevrey", {})
    data = _data_from(cfg, params.n, "gevrey", 100.0, 2048, 1.0)
    c = _get(gv, "c", float, 0.2)
    t_max = _nonnegative(gv, "t_max", 10.0, "gevrey")
    points = _get(gv, "points", int, 21)
    ratio_bound = _nonnegative(gv, "ratio_bound", 2.0, "gevrey")
    if points < 2:
        # One point is t = 0 alone, where the ratio is 1 by construction.
        raise ConfigError("gevrey: points must be >= 2")
    if not c > 0:
        raise ConfigError(f"gevrey: c = {c:g} must be positive")
    base = gevrey_energy(data, c, params)
    rows, violations = [], 0
    for t in np.linspace(0.0, t_max, points):
        try:
            snap = linear_evolve(data, float(t), params)
        except BlowUpError:
            print(f"gevrey: the L^2 norm at t = {t:.12g} overflows "
                  "(the data are too large)", file=sys.stderr)
            return EXIT_NONCONV
        energy = gevrey_energy(snap, c, params)
        if not math.isfinite(energy):  # at t = 0 that of the data
            cause = ("the data are too large" if t == 0 else
                     "the weight exp(2 c rho^(2 delta) t) overflows")
            print(f"gevrey: the energy at t = {t:.12g} is {energy!r}, not "
                  f"finite ({cause})", file=sys.stderr)
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


def cmd_toolkit(cfg, out_dir, strict) -> int:
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
    alpha_max = _nonnegative(sec, "alpha_max", 3.0, "toolkit")
    alpha_step = _get(sec, "alpha_step", float, 0.5)
    ratio_bound = _nonnegative(sec, "ratio_bound", 3.0, "toolkit")
    if not 1 <= bell_max <= 20:
        raise ConfigError("toolkit: bell_max must be in 1..20")
    if not alpha_step > 0:
        raise ConfigError("toolkit: alpha_step must be positive")
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

#: The commands with a check that exits 2 only under --strict.
_STRICT = ("admissible", "decay-fit", "kernel-norm", "toolkit")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="sigmalab",
        description="Reproducible experiments for structurally damped "
                    "sigma-evolution equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        source = cp.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="experiment config file (INI)")
        source.add_argument("--preset", help="built-in experiment name")
        cp.add_argument("--out", default="out", help="output directory")
        if name in _STRICT:
            cp.add_argument("--strict", action="store_true",
                            help="exit 2 also on the checks that otherwise "
                                 "only report (see the README's exit-code "
                                 "table)")

    try:
        args = parser.parse_args(argv)
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
        flags = (args.strict,) if args.command in _STRICT else ()
        return _COMMANDS[args.command](cfg, args.out, *flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
