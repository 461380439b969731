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
import math
import os
import sys
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .admissibility import AdmissibleInterval, TheoremId, admissible_interval
from .kernels import (SampleBudgetError, fit_power_law, kernel_lr_norm,
                      theoretical_exponent)
from .params import ModelParams, as_fraction, validate
from .spectral import (BlowUpError, Snapshot, gaussian_field, gevrey_energy,
                       linear_evolve, lq_norm, make_grid, semilinear_solve,
                       zero_field)
from .toolkit import duhamel_bound, duhamel_integral, faa_di_bruno_partitions

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERT = 2
EXIT_NONCONV = 3


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration (exit 1)."""


class NonConvergence(Exception):
    """A computation that did not converge (exit 3); its message is the
    command's one line on stderr."""


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
    lineno = 0

    def bad(message: str) -> ConfigError:  # formats the location only on an error
        return ConfigError(f"{path!r} line {lineno}: {message}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                value = line.strip()
                if not value or value[0] in "#;":
                    continue
                if line[0].isspace():
                    raise bad("indented (continuation) line")
                if value[0] == "[" and value[-1] == "]" and len(value) > 2:
                    if value[1:-1] in sections:
                        raise bad(f"duplicate section {value}")
                    entries = sections[value[1:-1]] = {}
                    continue
                if entries is None:
                    raise bad("key before any [section]")
                key, eq, text = value.partition("=")
                if ":" in key:
                    key, eq, text = value.partition(":")
                if not (eq and key):
                    raise bad("expected [section] or key = value")
                key = sys.intern(key.rstrip())
                if key in entries:
                    raise bad(f"duplicate key {key!r}")
                entries[key] = text.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    defaults = sections.pop("DEFAULT", None)
    if defaults:
        return {name: {**defaults, **keys} for name, keys in sections.items()}
    return sections


class _Domain(NamedTuple):
    """What a converted value must satisfy, and how an error says it."""

    ok: Callable[[object], bool]
    phrase: str


_FINITE = _Domain(math.isfinite, "must be finite")
_POSITIVE = _Domain(lambda v: v > 0, "must be positive")
_NONNEGATIVE = _Domain(lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0")


def _at_least(k) -> _Domain:
    return _Domain(lambda v: v >= k, f"must be >= {k}")


def _one_of(*choices: str) -> _Domain:
    return _Domain(choices.__contains__,
                   f"must be {', '.join(choices[:-1])} or {choices[-1]}")


_REQUIRED = "required"  # the default of a key that must be given


def _float_fraction(text: str) -> Fraction:
    """A rational whose float, which the kernels take, is finite."""
    value = as_fraction(text)
    float(value)  # OverflowError past the float range
    return value


class _Key(NamedTuple):
    """A config key: the converter of its text (of each comma-separated
    item when `each`), its default as config text (None: the key stays
    unset) and the domain of its value (of each item)."""

    conv: Callable[[str], object]
    default: Optional[str] = None
    domain: Optional[_Domain] = None
    each: bool = False


#: [model], with the ModelParams defaults; `validate` checks the values.
_MODEL = {f.name: _Key(int if f.name == "n" else as_fraction,
                       None if f.default is None else str(f.default))
          for f in dataclass_fields(ModelParams)}


#: Per command, the keys of each section; a [prefix NAME] entry stands
#: for any number of sections named `prefix <name>`.  Keys that a
#: library function checks (grid, data, time step) have no domain here.
_KEYS: dict[str, dict[str, dict[str, _Key]]] = {
    "admissible": {"model": _MODEL, "case NAME": {
        **{key: _Key(row.conv) for key, row in _MODEL.items()},
        "theorem": _Key(str, _REQUIRED, _one_of(*(t.value for t in TheoremId)))}},
    "decay-fit": {
        "model": _MODEL,
        "grid": {"L": _Key(float, "400"), "N": _Key(int, "32768")},
        "data": {"amplitude": _Key(float, "1"), "width": _Key(float, "1"),
                 "which": _Key(str, "u0", _one_of("u0", "u1", "zero"))},
        "time": {"t_min": _Key(float, "10", _FINITE),
                 "t_max": _Key(float, "500", _FINITE),
                 "points": _Key(int, "9", _at_least(5))},
        "fit": {"tol": _Key(float, "0.10", _NONNEGATIVE)}},
    "kernel-norm": {
        "model": _MODEL,
        "sweep NAME": {
            "which": _Key(str, _REQUIRED, _one_of("K0", "K1")),
            "a": _Key(_float_fraction, "0", _at_least(0)),
            "band": _Key(str, "full", _one_of("low", "high", "full")),
            "r": _Key(_float_fraction, "1", _at_least(1)),
            "regime": _Key(str, _REQUIRED, _one_of("small_t", "large_t")),
            "t_min": _Key(float, _REQUIRED, _FINITE),
            "t_max": _Key(float, _REQUIRED, _FINITE),
            "points": _Key(int, "7", _at_least(5))},
        "fit": {"tol": _Key(float, "0.15", _NONNEGATIVE)}},
    "evolve": {
        "model": _MODEL,
        "grid": {"L": _Key(float, "100"), "N": _Key(int, "1024")},
        "data": {"amplitude": _Key(float, "1e-3"), "width": _Key(float, "1")},
        "time": {"t_end": _Key(float, "200"), "dt": _Key(float, "0.1"),
                 "store_every": _Key(int, "10")},
        "evolve": {"nonlinearity": _Key(str, "none"),
                   "q_list": _Key(lambda q: float(Fraction(q)), "2", _at_least(1),
                                  each=True),
                   "ceiling": _Key(float, "1e6", _POSITIVE)}},
    "gevrey": {
        "model": _MODEL,
        "grid": {"L": _Key(float, "100"), "N": _Key(int, "2048")},
        "data": {"amplitude": _Key(float, "1"), "width": _Key(float, "1")},
        "gevrey": {"c": _Key(float, "0.2", _POSITIVE),
                   "t_max": _Key(float, "10", _NONNEGATIVE),
                   # One point is t = 0 alone, where the ratio is 1 by construction.
                   "points": _Key(int, "21", _at_least(2)),
                   "ratio_bound": _Key(float, "2", _NONNEGATIVE)}},
    "toolkit": {"model": _MODEL, "toolkit": {
        "bell_max": _Key(int, "6", _Domain(lambda v: 1 <= v <= 20, "must be in 1..20")),
        "duhamel_times": _Key(float, "10,100,1000", _POSITIVE, each=True),
        "alpha_max": _Key(float, "3", _NONNEGATIVE),
        "alpha_step": _Key(float, "0.5", _POSITIVE),
        "ratio_bound": _Key(float, "3", _NONNEGATIVE)}},
}


def _resolve(where: str, section: str, entries: dict[str, str],
             keys: dict[str, _Key]) -> dict:
    """The values of one section, in the order of `keys`: each given or
    default text converted and checked against its key's domain."""
    for key in entries:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    values = {}
    for key, (conv, default, domain, each) in keys.items():
        text = entries.get(key, default)
        if text is None:
            continue
        if key not in entries and default == _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        try:
            value = [conv(item) for item in text.split(",")] if each else conv(text)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        if domain is not None:
            for item in value if each else (value,):
                if not domain.ok(item):
                    shown = f"{item:g}" if isinstance(item, float) else item
                    raise ConfigError(f"{where}: {key} = {shown} {domain.phrase}")
        values[key] = value
    return values


def _named(cfg: dict[str, dict[str, str]], prefix: str, keys: dict[str, _Key]):
    """(name, values) of each [prefix name] section, resolved as it is
    reached, so that a scan holds one at a time."""
    for section, entries in cfg.items():
        if section.startswith(prefix):
            name = section[len(prefix):]
            yield name, _resolve(f"{prefix}{name!r}", section, entries, keys)


def _read(cfg: dict[str, dict[str, str]], command: str) -> dict:
    """The values of each section of the command's key table, unknown
    sections rejected.  A [prefix NAME] entry, which at least one section
    must match, is a generator of (name, values) of those sections."""
    table = _KEYS[command]
    named = set()
    for section in cfg:
        prefix, _, name = section.partition(" ")
        if name and (pattern := f"{prefix} NAME") in table:
            named.add(pattern)
        elif section not in table:
            raise ConfigError(f"unknown config section [{section}]")
    values = {}
    for section, keys in table.items():
        if not section.endswith(" NAME"):
            values[section] = _resolve(command, section, cfg.get(section, {}),
                                       keys)
        elif section in named:
            values[section] = _named(cfg, section[:-4], keys)
        else:
            raise ConfigError(f"no [{section}] sections configured")
    return values


def _model_from(values: dict) -> ModelParams:
    """Valid ModelParams of the [model] values, each nonzero value a
    normal float (the float-using commands read the float views)."""
    params = ModelParams.make(**values)
    report = validate(params)
    if not report.ok:
        raise ConfigError("invalid model parameters: " + "; ".join(report.violations))
    for key in _MODEL:
        value = getattr(params, key) or 0
        try:
            if value and abs(float(value)) < sys.float_info.min:
                raise ConfigError(f"invalid model parameters: {key} is too small "
                                  "for a float")
        except OverflowError:
            raise ConfigError(f"invalid model parameters: {key} is too large "
                              "for a float") from None
    return params


def _data_from(config: dict, n: int, where: str, which: str = "u0") -> Snapshot:
    """Data at t = 0 on the torus of [grid]: the Gaussian of [data] as
    u0 or as u1, the other zero, or zero data (which = "zero")."""
    grid, data = config["grid"], config["data"]
    try:
        bump = gaussian_field(make_grid(n, grid["L"], grid["N"]),
                              data["amplitude"], data["width"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    zero = zero_field(bump.grid)
    u, ut = {"u0": (bump, zero), "u1": (zero, bump), "zero": (zero, zero)}[which]
    return Snapshot(t=0.0, u=u, ut=ut)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


_model_values = attrgetter(*_MODEL)


def _params_cells(params: ModelParams) -> list[str]:
    return ["" if value is None else str(value) for value in _model_values(params)]


def _csv_lines(fieldnames: list[str]) -> tuple[list[str], Callable]:
    """The lines of a schema-1 CSV, begun with its header, and the
    writerow of a csv.writer (minimal quoting, "\n" line ends) that
    appends a row of cells, in header order, to them as one line."""
    lines = ["# schema=1\n"]
    writerow = csv.writer(SimpleNamespace(write=lines.append),
                          lineterminator="\n").writerow
    writerow(fieldnames)
    return lines, writerow


def _table(fieldnames: list[str], rows: list[list]) -> list[str]:
    """The lines of a schema-1 CSV of rows of cells in header order, each
    cell through _fmt.  The writer, with its 128 KiB record buffer, lives
    only while they are formed, after the command's computation."""
    lines, writerow = _csv_lines(fieldnames)
    for row in rows:
        writerow(map(_fmt, row))
    return lines


def _interval_text(interval: AdmissibleInterval) -> str:
    if interval.empty:
        return "empty"
    lo, hi = interval.lower, interval.upper
    left = "[" if (lo is not None and lo.closed) else "("
    lo_text = str(lo.value) if lo is not None and lo.value is not None else "1"
    if hi is None or hi.value is None:
        return f"{left}{lo_text}, inf)"
    return f"{left}{lo_text}, {hi.value}{']' if hi.closed else ')'}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_admissible(config: dict, strict: bool) -> tuple[dict, bool]:
    fields = ["case", "theorem", *_MODEL,
              "interval", "empty", "gate_failed", "empty_reason"]
    # Each case is validated, once, by admissible_interval as it is
    # parsed, and leaves its CSV and NDJSON lines.  Its cells are strings
    # already, so they skip _fmt.  An NDJSON line is what json.dumps
    # writes of the row's dict, with the string encoder json.dumps uses.
    csv_lines, writerow = _csv_lines(fields)
    json_keys = [f"{_json_str(key)}: " for key in fields]
    json_lines = []
    gate_failures = 0
    for name, case in config["case NAME"]:
        theorem = case.pop("theorem")  # a TheoremId value, as its domain checks
        params = ModelParams.make(**{**config["model"], **case})
        try:
            interval = admissible_interval(theorem, params)
        except ValueError as exc:
            raise ConfigError(f"{exc} in section [case {name}]") from exc
        gate_failed = interval.empty and any(
            c.kind == "gate" and c.active for c in interval.active_constraints)
        gate_failures += gate_failed
        cells = [name, theorem, *_params_cells(params),
                 _interval_text(interval), "1" if interval.empty else "0",
                 "1" if gate_failed else "0", interval.empty_reason or ""]
        writerow(cells)
        json_lines.append("{" + ", ".join([key + _json_str(cell) for key, cell
                                           in zip(json_keys, cells)]) + "}\n")
    if strict and gate_failures:
        print(f"admissible: {gate_failures} gate failure(s)", file=sys.stderr)
    return ({"admissible.csv": csv_lines, "admissible.ndjson": json_lines},
            strict and gate_failures > 0)


#: Edge-to-peak amplitude ratio above which a decay sample is flagged
#: as wrap-around contaminated.  The self-similar tail of a spreading
#: solution legitimately reaches the domain edge at low amplitude long
#: before periodic images distort the norms.
_WRAP_THRESHOLD = 0.25


def _edge_fraction(snapshot: Snapshot) -> float:
    """Relative field magnitude in the outer 10% shell of the torus --
    a wrap-around monitor for decay experiments."""
    grid, phys = snapshot.u.grid, snapshot.u.values
    shell = np.sqrt(sum(c ** 2 for c in grid.meshgrid())) >= 0.45 * grid.L
    peak = float(np.max(np.abs(phys)))
    if peak == 0.0 or not np.any(shell):
        return 0.0
    return float(np.max(np.abs(phys[shell])) / peak)


def _linear_flow(command: str, data: Snapshot, times, params: ModelParams):
    """(t, snapshot) of the exact linear flow of `data` at each of `times`;
    an L^2 norm that overflows is non-convergence."""
    for t in times:
        try:
            snap = linear_evolve(data, float(t), params)
        except BlowUpError as exc:
            raise NonConvergence(f"{command}: the L^2 norm at t = {t:.12g} "
                                 "overflows (the data are too large)") from exc
        yield float(t), snap


def cmd_decay_fit(config: dict, strict: bool) -> tuple[dict, bool]:
    params = _model_from(config["model"])
    t_min, t_max, points = config["time"].values()
    if not 0 < t_min < t_max:
        raise ConfigError("decay-fit: need 0 < t_min < t_max")
    which = config["data"]["which"]
    data = _data_from(config, params.n, "decay-fit", which)

    samples, wrapped = [], 0
    times = np.geomspace(t_min, t_max, points)
    for t, snap in _linear_flow("decay-fit", data, times, params):
        samples.append((t, lq_norm(snap.u, 2.0)))
        wrapped += _edge_fraction(snap) > _WRAP_THRESHOLD

    if max(v for _, v in samples) == 0.0:
        fitted = theory = rel_err = None
        ok, status = True, "skipped"
    else:
        fitted = fit_power_law(samples, (t_min, t_max)).exponent
        selector = "u_from_u0" if which == "u0" else "u_from_u1"
        # Young relation 1 + 1/q = 1/r + 1/m with the L^2 observable.
        inv_r = 1 + Fraction(1, 2) - 1 / params.m
        theory = theoretical_exponent(selector, 0, "large_t", 1 / inv_r, params)
        rel_err = abs(fitted - float(theory)) / max(abs(float(theory)), 1e-12)
        ok = rel_err <= config["fit"]["tol"]
        status = "ok" if ok else "tolerance_exceeded"
    fields = ["observable", *_MODEL, "fitted", "theoretical", "rel_err", "wrapped", "status"]
    row = ["norm_L2_u", *_params_cells(params), fitted, theory, rel_err, wrapped, status]
    return {"decay_fit.csv": _table(fields, [row])}, not ok or (strict and wrapped > 0)


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


def cmd_kernel_norm(config: dict, strict: bool) -> tuple[dict, bool]:
    params = _model_from(config["model"])
    if params.n not in (1, 2, 3):
        raise ConfigError(f"kernel-norm supports n = 1, 2 or 3, not n = {params.n}")
    # Every sweep is checked before any norm is computed.
    sweeps = [(name, *sweep.values()) for name, sweep in config["sweep NAME"]]
    for name, *_, t_min, t_max, _ in sweeps:
        if not 0 < t_min < t_max:
            raise ConfigError(f"sweep {name!r}: need 0 < t_min < t_max")
    rows, failures = [], 0
    for name, which, a, band, r, regime, t_min, t_max, points in sweeps:
        samples = []
        for t in np.geomspace(t_min, t_max, points):
            where = f"kernel-norm sweep {name!r}: the norm at t = {t:.12g}"
            try:
                norm = kernel_lr_norm(which, float(a), float(t), float(r),
                                      params, params.n, band=band)
            except SampleBudgetError as exc:
                raise NonConvergence(f"{where} {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"sweep {name!r}: {exc}") from exc
            if not norm > 0:
                raise NonConvergence(f"{where} is {norm!r}, not positive, so no "
                                     "power law can be fitted")
            samples.append((float(t), norm))
        fitted = fit_power_law(samples, (t_min, t_max)).exponent
        theory = _sweep_theory(which, a, regime, r, band, params)
        if theory is None:
            rel_err, ok = None, True
        else:  # the deviation from a flat law (theory 0) is absolute
            rel_err = abs(fitted - float(theory)) / (abs(float(theory)) or 1.0)
            ok = rel_err <= config["fit"]["tol"]
        failures += not ok
        rows.append([name, *_params_cells(params), which, band, a, r, regime, t_min,
                     t_max, fitted, theory, rel_err, "ok" if ok else "tolerance_exceeded"])
    fields = ["sweep", *_MODEL, "which", "band", "a", "r", "regime", "t_min", "t_max",
              "fitted", "theoretical", "rel_err", "status"]
    return {"kernel_norm.csv": _table(fields, rows)}, strict and failures > 0


def cmd_evolve(config: dict) -> tuple[dict, bool]:
    params = _model_from(config["model"])
    data = _data_from(config, params.n, "evolve")
    t_end, dt, store_every = config["time"].values()
    nonlinearity, q_list, ceiling = config["evolve"].values()
    names = [f"norm_L{q:g}" for q in q_list]
    if twice := [q for i, q in enumerate(q_list) if names[i] in names[:i]]:
        raise ConfigError(f"evolve: q = {twice[0]:g} appears twice in q_list")

    rows, cells = [], _params_cells(params)
    try:
        solve = semilinear_solve(data, params, nonlinearity, t_end, dt,
                                 store_every=store_every, norm_ceiling=ceiling)
        del data  # the solve holds its own copy
        for snap in solve:
            rows.append([*cells, snap.t, *[lq_norm(snap.u, q) for q in q_list],
                         lq_norm(snap.ut, 2.0)])
            del snap  # not held while the next state is stepped
    except BlowUpError as exc:
        raise NonConvergence(f"evolve: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"evolve: {exc}") from exc
    return {"evolve.csv": _table([*_MODEL, "t", *names, "norm_ut_L2"], rows)}, False


def cmd_gevrey(config: dict) -> tuple[dict, bool]:
    params = _model_from(config["model"])
    data = _data_from(config, params.n, "gevrey")
    c, t_max, points, ratio_bound = config["gevrey"].values()
    base = gevrey_energy(data, c, params)
    rows, violations = [], 0
    for t, snap in _linear_flow("gevrey", data, np.linspace(0.0, t_max, points), params):
        energy = gevrey_energy(snap, c, params)
        if not math.isfinite(energy):  # at t = 0 that of the data
            cause = ("the data are too large" if t == 0 else
                     "the weight exp(2 c rho^(2 delta) t) overflows")
            raise NonConvergence(f"gevrey: the energy at t = {t:.12g} is {energy!r}, "
                                 f"not finite ({cause})")
        ratio = energy / base if base > 0 else 0.0
        ok = ratio <= ratio_bound
        violations += not ok
        rows.append([*_params_cells(params), t, c, energy, ratio,
                     "ok" if ok else "bound_exceeded"])
    fields = [*_MODEL, "t", "c", "energy", "ratio", "status"]
    return {"gevrey.csv": _table(fields, rows)}, violations > 0


#: The most alpha (and beta) values of the toolkit's Duhamel grid.
_ALPHA_POINTS = 100


def cmd_toolkit(config: dict, strict: bool) -> tuple[dict, bool]:
    bell_max, times, alpha_max, alpha_step, ratio_bound = config["toolkit"].values()
    rows, violations = [], 0
    for order in range(1, bell_max + 1):
        parts = faa_di_bruno_partitions(order)
        rows.append(["bell", order, len(parts), sum(p.coefficient for p in parts),
                     "", "", "", ""])
    if (alpha_max + 1e-9) / alpha_step > _ALPHA_POINTS:  # the length np.arange takes
        raise ConfigError(f"toolkit: alpha_max / alpha_step = {alpha_max / alpha_step:g} "
                          f"asks for more than {_ALPHA_POINTS} alpha (and beta) values")
    grid_vals = np.arange(0.0, alpha_max + 1e-9, alpha_step)
    for alpha in grid_vals:
        for beta in grid_vals:
            ratios = [duhamel_integral(alpha, beta, t) / duhamel_bound(alpha, beta, t)
                      for t in times]
            spread = max(ratios) / min(ratios)
            ok = spread <= ratio_bound
            violations += not ok
            rows.append(["duhamel", "", "", "", float(alpha), float(beta), spread,
                         "ok" if ok else "spread_exceeded"])
    fields = ["kind", "n", "count", "coeff_sum", "alpha", "beta", "ratio_spread", "status"]
    return {"toolkit.csv": _table(fields, rows)}, strict and violations > 0


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
        else:
            cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        flags = (args.strict,) if args.command in _STRICT else ()
        # The lines of each output file by name, and whether a check failed.
        files, failed = _COMMANDS[args.command](_read(cfg, args.command), *flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(exc, file=sys.stderr)
        return EXIT_NONCONV
    for name, lines in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    return EXIT_ASSERT if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
