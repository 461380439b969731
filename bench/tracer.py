"""Spans around the calls into sigmalab's layers, recorded from outside.

``patched(tracer)`` replaces, for the duration of a ``with`` block, each
layer function as its *calling* module sees it (for example both
``sigmalab.kernels.kernel_values`` and ``sigmalab.spectral.kernel_values``)
by a wrapper that records one span per call.  numpy's FFTs are wrapped
through a stand-in for the ``np`` name inside ``sigmalab.kernels`` and
``sigmalab.spectral`` only, so FFTs elsewhere are not counted.  Nothing
inside the package is edited.

A span is ``(name, start, end, parent, run)``: the parent is the index
of the enclosing span (-1 for none) and ``run`` numbers the pass.  Spans
stay in memory until ``Tracer.dump``.  Counts (samples, points, bytes
computed from array sizes) are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

import sigmalab.cli
import sigmalab.dispersion
import sigmalab.kernels
import sigmalab.params
import sigmalab.spectral

MODULES = ("dispersion", "kernels", "spectral", "admissibility", "params")

#: Extra counts of one call, from its arguments and result.
Counter = Callable[[tuple, dict, object], dict]


def _samples_arg(index: int, name: str) -> Counter:
    def count(args, kwargs, result):
        return {"samples": int(np.size(args[index] if len(args) > index
                                       else kwargs[name]))}
    return count


def _fft_counts(args, kwargs, result):
    x = np.asarray(args[0])
    return {"points": int(x.size), "bytes_computed": int(x.nbytes + result.nbytes)}


def _profile_points(args, kwargs, result):
    return {"points": int(len(result.y))}


def _solve_steps(args, kwargs, result):
    t_end = args[3] if len(args) > 3 else kwargs["t_end"]
    dt = args[4] if len(args) > 4 else kwargs["dt"]
    return {"steps": int(round(t_end / dt))}


def _nonempty(args, kwargs, result):
    return {"nonempty": int(not result.empty)}


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self.counts: dict[int, dict[str, dict[str, int]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(int)))

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            tally = self.counts[self.run][name]
            tally["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tally[key] += value
            return result
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self, run: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, counts, busy_s and self_s of one run, and
        busy_s of each module."""
        out = {name: {k: float(v) for k, v in tally.items()}
               for name, tally in self.counts[run].items()}
        child_time = defaultdict(float)
        for _, start, end, parent, span_run in self.spans:
            if parent >= 0 and span_run == run:
                child_time[parent] += end - start
        for index, (name, start, end, _, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            entry = out.setdefault(name, {"calls": 0.0})
            entry["busy_s"] = entry.get("busy_s", 0.0) + end - start
            entry["self_s"] = (entry.get("self_s", 0.0) + end - start
                               - child_time[index])
        for module in MODULES:
            out[module] = {"busy_s": self._module_busy(module, run)}
        return out

    def _module_busy(self, module: str, run: int) -> float:
        """Time inside `module`: its spans not nested in another of its spans."""
        total = 0.0
        for name, start, end, parent, span_run in self.spans:
            if span_run != run or not name.startswith(module + "."):
                continue
            while parent >= 0 and not self.spans[parent][0].startswith(module + "."):
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


class _Namespace:
    """Stand-in for a module: selected attributes replaced, the rest delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _numpy_with(fft_overrides: dict) -> _Namespace:
    return _Namespace(np, fft=_Namespace(np.fft, **fft_overrides))


@contextmanager
def patched(tracer: Tracer):
    """Route every traced layer call through `tracer` inside the block."""
    disp, kern, spec = sigmalab.dispersion, sigmalab.kernels, sigmalab.spectral
    cli, params = sigmalab.cli, sigmalab.params
    kernel_values = tracer.wrap("dispersion.kernel_values", disp.kernel_values,
                                _samples_arg(1, "rho"))
    kernel_dt_values = tracer.wrap("dispersion.kernel_dt_values",
                                   disp.kernel_dt_values, _samples_arg(1, "rho"))
    cutoff_chi = tracer.wrap("dispersion.cutoff_chi", disp.cutoff_chi,
                             _samples_arg(0, "rho"))
    lq_norm = tracer.wrap("spectral.lq_norm", spec.lq_norm)
    validate = tracer.wrap("params.validate", params.validate)
    kernel_lr_norm = tracer.wrap("kernels.kernel_lr_norm", kern.kernel_lr_norm)
    fft = {name: tracer.wrap("spectral.fft", getattr(np.fft, name), _fft_counts)
           for name in ("fftn", "ifftn")}
    replacements = [
        (disp, "kernel_values", kernel_values),
        (kern, "kernel_values", kernel_values),
        (spec, "kernel_values", kernel_values),
        (spec, "kernel_dt_values", kernel_dt_values),
        (kern, "cutoff_chi", cutoff_chi),
        (spec, "cutoff_chi", cutoff_chi),
        (kern, "bessel_tilde", tracer.wrap("kernels.bessel_tilde", kern.bessel_tilde,
                                           _samples_arg(1, "s"))),
        (kern, "kernel_lr_norm", kernel_lr_norm),
        (cli, "kernel_lr_norm", kernel_lr_norm),
        (kern, "kernel_profile", tracer.wrap("kernels.kernel_profile",
                                             kern.kernel_profile, _profile_points)),
        (kern, "np", _numpy_with({"rfft": tracer.wrap("kernels.rfft", np.fft.rfft,
                                                      _fft_counts)})),
        (cli, "semilinear_solve", tracer.wrap("spectral.semilinear_solve",
                                              spec.semilinear_solve, _solve_steps)),
        (spec, "np", _numpy_with(fft)),
        (spec, "lq_norm", lq_norm),
        (cli, "lq_norm", lq_norm),
        (cli, "admissible_interval", tracer.wrap(
            "admissibility.admissible_interval", cli.admissible_interval, _nonempty)),
        (cli, "validate", validate),
        (params, "validate", validate),
        (params.ModelParams, "make", staticmethod(tracer.wrap(
            "params.make", params.ModelParams.make))),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
