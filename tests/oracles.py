"""Independent references that the tests check the package against.

- radial_inverse_fourier: an adaptive Gauss-Legendre panel quadrature
  of the radial inverse Fourier integral at one radius, the oracle for
  the kernel profiles;
- kernel_hat_oscillatory: the closed trigonometric form of the kernels
  above the coalescence radius, the reference for their high-frequency
  evaluation;
- whole_lattice_semilinear_solve: the real-field exponential Duhamel
  stepper as it was before it streamed, with every multiplier on the
  whole half lattice and every padded transform and |u|^p on the whole
  padded lattice, the reference that the streaming solve must match bit
  for bit;
- full_spectrum_linear_evolve, full_spectrum_gevrey_energy and
  full_spectrum_semilinear_solve: the linear flow, the Gevrey energy and
  the complex exponential Duhamel stepper on full complex fftn spectra
  (Spectra), the format the package used before it kept real fields on
  rfftn half spectra only;
- stepper_working_set: the bytes a streaming solve holds, de-aliased
  or linear, counted from the grid, the budget of the memory tests;
- fraction_validate, fraction_threshold_n1, fraction_gn_window and
  fraction_admissible_interval: the admissibility engine as it was when
  it computed in Fraction arithmetic throughout, the reference that the
  integer cross-multiplication engine must equal result for result;
- fraction_admissible_files: the admissible.csv and admissible.ndjson
  text of those intervals, written by csv.writer and json.dumps as the
  CLI wrote them, the reference for the CLI's bytes.
"""

import csv
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Optional

import numpy as np

from sigmalab.admissibility import (AdmissibleInterval, Constraint, Endpoint,
                                    TheoremId)
from sigmalab.dispersion import (coalescence_radius, cutoff_chi,
                                 kernel_dt_values, kernel_values)
from sigmalab.kernels import _find_truncation, bessel_tilde
from sigmalab import spectral
from sigmalab.params import ModelParams, ValidationReport, threshold_n0
from sigmalab.spectral import BlowUpError, Field, Snapshot, TorusGrid


@dataclass(frozen=True)
class QuadConfig:
    """Controls for the adaptive radial quadrature.

    tol : target estimated relative error.
    max_panels : refinement budget.
    rho_max : truncation radius; None = determined from the multiplier decay.
    """

    tol: float = 1e-8
    max_panels: int = 200_000
    rho_max: Optional[float] = None


class QuadratureError(RuntimeError):
    """Panel budget exhausted; carries the best partial value."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


def _panel_quadrature(f: Callable[[np.ndarray], np.ndarray],
                      upper: float, n_panels: int) -> float:
    """Composite 16-point Gauss-Legendre over [0, upper] with n_panels panels."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, upper, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    pts = (mids + half * nodes[None, :]).ravel()
    vals = f(pts).reshape(n_panels, 16)
    return float(half * np.sum(vals @ weights))


def radial_inverse_fourier(multiplier: Callable[[np.ndarray], np.ndarray],
                           n: int, x_radius: float,
                           quad: Optional[QuadConfig] = None) -> float:
    """Radial inverse Fourier integral at one radius |x|:

        (2 pi)^{-n/2} int_0^inf m(rho) rho^{n-1} Jt_{n/2-1}(rho |x|) d rho.

    Fixed Gauss-Legendre panels of half-oscillation length pi/x_radius,
    refined (panel halving) until the estimated error is below
    quad.tol; raises QuadratureError with the partial value when the
    panel budget runs out.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    quad = quad or QuadConfig()
    mu = n / 2.0 - 1.0

    def integrand(rho: np.ndarray) -> np.ndarray:
        base = np.asarray(multiplier(rho), dtype=float) * rho ** (n - 1)
        return base * bessel_tilde(mu, rho * x_radius)

    if quad.rho_max is not None:
        upper = quad.rho_max
    else:
        upper, peak = _find_truncation(lambda r: np.asarray(multiplier(r), dtype=float)
                                       * r ** (n - 1))
        if peak == 0.0:
            return 0.0

    # Half-oscillation panels, but never coarser than ~32 panels so the
    # smooth structure of the multiplier itself is resolved.
    h = np.pi / x_radius if x_radius > 0 else upper
    n_panels = max(int(np.ceil(upper / h)), 32)

    prefactor = (2.0 * np.pi) ** (-n / 2.0)
    value = _panel_quadrature(integrand, upper, n_panels)
    while True:
        refined = _panel_quadrature(integrand, upper, 2 * n_panels)
        err = abs(refined - value)
        scale = max(abs(refined), 1e-300)
        if err <= quad.tol * scale:
            return prefactor * refined
        if 4 * n_panels > quad.max_panels:
            raise QuadratureError(
                f"panel budget exhausted at {2 * n_panels} panels "
                f"(estimated relative error {err / scale:.2e})",
                partial=prefactor * refined)
        n_panels *= 2
        value = refined


def large_freq_factor(rho: float, params) -> float:
    """Oscillation factor f(rho) = sqrt(1 - mu^2/(4 rho^{2 sigma - 4 delta})),
    defined only above the coalescence radius rho_*."""
    expo = 2.0 * params.sigma_f - 4.0 * params.delta_f
    val = 1.0 - params.mu_f ** 2 / (4.0 * rho ** expo)
    if val <= 0.0:
        raise ValueError(
            f"rho = {rho} at or below the coalescence radius "
            f"{coalescence_radius(params):.6g}: oscillatory factor undefined")
    return float(np.sqrt(val))


def kernel_hat_oscillatory(t: float, rho: float, params) -> tuple[float, float]:
    """(K0hat, K1hat) above the coalescence radius in the closed
    trigonometric form, with omega = rho^sigma f(rho):

      K0hat = e^{-mu rho^{2 delta} t / 2} [cos(omega t)
               + mu rho^{2 delta} sin(omega t) / (2 omega)],
      K1hat = e^{-mu rho^{2 delta} t / 2} sin(omega t) / omega.

    kernel_values evaluates the same cos/sin form on its oscillatory
    band, so agreement is a consistency check only; the independent
    check of the kernels is the 50-digit mpmath oracle in
    tests/test_dispersion.py.
    """
    mu, sigma, delta = params.mu_f, params.sigma_f, params.delta_f
    omega = rho ** sigma * large_freq_factor(rho, params)
    env = np.exp(-0.5 * mu * rho ** (2.0 * delta) * t)
    theta = omega * t
    k0 = env * (np.cos(theta)
                + mu * rho ** (2.0 * delta) * np.sin(theta) / (2.0 * omega))
    k1 = env * np.sin(theta) / omega
    return float(k0), float(k1)


# ---------------------------------------------------------------------------
# Whole-lattice semilinear stepper
# ---------------------------------------------------------------------------

def _irfft(v, size, out=None, cols=None):
    for axis in range(v.ndim - 1):
        v = np.fft.ifft(v, size, axis, out=cols)
    return np.fft.irfft(v, size, v.ndim - 1, out=out)


def _blocks(n, N, M):
    h = N // 2
    halves = ((slice(0, h), slice(0, h)), (slice(h, N), slice(M - h, M)))
    for combo in itertools.product(halves, repeat=n - 1):
        yield (tuple(c for c, _ in combo) + (slice(0, h + 1),),
               tuple(f for _, f in combo) + (slice(0, h + 1),))


def _pad_half(v, out):
    n, N, M = v.ndim, 2 * (v.shape[-1] - 1), 2 * (out.shape[-1] - 1)
    h = N // 2
    for coarse, fine in _blocks(n, N, M):
        np.multiply(v[coarse], (M / N) ** n, out=out[fine])
    out[..., h] *= 0.5
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[M - h] *= 0.5
        rows[h] = rows[M - h]
    return out


def _truncate_half(f, out):
    n, M, N = f.ndim, 2 * (f.shape[-1] - 1), 2 * (out.shape[-1] - 1)
    h = N // 2
    low = f[..., :h + 1]
    low *= (N / M) ** n
    for axis in range(n - 1):
        rows = np.moveaxis(low, axis, 0)
        rows[M - h] += rows[h]
        rows[M - h] *= 0.5
    for coarse, fine in _blocks(n, N, M):
        out[coarse] = f[fine]
    return out


def _parseval_l2(v, grid):
    power = v.real * v.real + v.imag * v.imag
    energy = 2.0 * power.sum() - power[..., 0].sum() - power[..., -1].sum()
    return float(np.sqrt(grid.dx ** grid.n * energy / grid.N ** grid.n))


def stepper_working_set(grid, nonlinear=True):
    """Bytes that semilinear_solve holds between yields.  For an integer
    p: eight real kernel tables on rho_rows, the half spectra v and vt,
    the two chunk scratch arrays of the in-place diagonal passes, the
    3/2-padded columns (which also hold the monitor and the inverse
    transforms of a stored state) and the row blocks of |u|^p.  For
    "none" (nonlinear=False): four tables, v, vt, the chunk scratch and
    unpadded columns, and no row blocks."""
    n, N = grid.n, grid.N
    h, M = N // 2, 3 * N // 2 if nonlinear else N
    rows = spectral._BLOCK_SAMPLES // M if nonlinear else 0
    per_row = (h + 1) * h ** max(n - 2, 0)
    chunk = per_row * (min(h, spectral._BLOCK_SAMPLES // 8 // per_row)
                       if n > 1 else 1)
    return ((8 if nonlinear else 4) * grid.rho_rows.size * 8
            + 2 * N ** (n - 1) * (h + 1) * 16
            + 2 * chunk * 16
            + M ** (n - 1) * (h + 1) * 16
            + rows * (2 * M * 8 + (M // 2 + 1) * 16))


def whole_lattice_semilinear_solve(data, params, nonlinearity, t_end, dt,
                                   store_every=1, norm_ceiling=1e6):
    """The stored snapshots of the exponential Duhamel solve, as a tuple.

    Same step as sigmalab.spectral.semilinear_solve, with the kernels on
    the whole rfftn half lattice, the 3/2-padded transforms over every
    column and |u|^p on whole padded fields; data must be real.
    """
    grid = data.u.grid
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx)
    last = 2.0 * np.pi * np.fft.rfftfreq(grid.N, d=grid.dx)
    axes = np.meshgrid(*([xi] * (grid.n - 1)), last, indexing="ij")
    rho = np.sqrt(sum(a * a for a in axes))
    p = float(params.p) if params.p is not None else 0.0
    dealias = nonlinearity != "none" and p == int(p)
    k0_h, k1_h, dk0_h, dk1_h, k0_f, k1_f, dk0_f, dk1_f = (
        k.astype(complex) for tau in (dt / 2.0, dt)
        for k in (*kernel_values(tau, rho, params),
                  *kernel_dt_values(tau, rho, params)))
    mid0, mid1 = (k0_h, k1_h) if nonlinearity == "abs_u_p" else (dk0_h, dk1_h)
    weight_u, weight_ut = dt * k1_h, dt * dk1_h

    u0, ut0 = data.u.values.copy(), data.ut.values.copy()
    v, vt = np.fft.rfftn(u0), np.fft.rfftn(ut0)
    v_new, vt_new, mid, prod, f_mid = (np.empty_like(v) for _ in range(5))
    M = 3 * grid.N // 2 if dealias else grid.N
    padded, cols = (np.zeros((M,) * (grid.n - 1) + (M // 2 + 1,),
                             dtype=complex) for _ in range(2))
    phys, power = np.empty((M,) * grid.n), np.empty((M,) * grid.n)
    snapshots = [Snapshot(data.t, Field(grid, u0), Field(grid, ut0))]
    steps = round(t_end / dt)
    for step in range(1, steps + 1):
        np.multiply(k0_f, v, out=v_new)
        v_new += np.multiply(k1_f, vt, out=prod)
        np.multiply(dk0_f, v, out=vt_new)
        vt_new += np.multiply(dk1_f, vt, out=prod)
        if nonlinearity != "none":
            np.multiply(mid0, v, out=mid)
            mid += np.multiply(mid1, vt, out=prod)
            _irfft(_pad_half(mid, padded) if dealias else mid, M, out=phys,
                   cols=cols)
            np.abs(phys, out=phys)
            if dealias and p >= 1:
                np.copyto(power, phys)
                for _ in range(int(p) - 1):
                    power *= phys
            else:
                np.power(phys, p, out=power)
            spectrum = np.fft.rfftn(power, out=cols if dealias else f_mid)
            if dealias:
                _truncate_half(spectrum, f_mid)
            v_new += np.multiply(weight_u, f_mid, out=prod)
            vt_new += np.multiply(weight_ut, f_mid, out=prod)
        v, v_new, vt, vt_new = v_new, v, vt_new, vt
        t = data.t + step * dt

        norm = _parseval_l2(v, grid)
        if not np.isfinite(norm) or norm > norm_ceiling:
            raise BlowUpError(t=t, norm=norm, ceiling=norm_ceiling)
        if step % store_every == 0 or step == steps:
            snapshots.append(Snapshot(t, Field(grid, _irfft(v, grid.N)),
                                      Field(grid, _irfft(vt, grid.N))))
    return tuple(snapshots)


# ---------------------------------------------------------------------------
# Full complex fftn spectra: linear flow, Gevrey energy, complex stepper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectra:
    """(u, u_t) at time t as their full complex fftn spectra."""

    grid: TorusGrid
    t: float
    v: np.ndarray
    vt: np.ndarray

    @classmethod
    def of(cls, snapshot):
        return cls(snapshot.u.grid, snapshot.t, np.fft.fftn(snapshot.u.values),
                   np.fft.fftn(snapshot.ut.values))

    def physical(self):
        """ifftn of (v, v_t): complex values whose real parts are u, u_t."""
        return np.fft.ifftn(self.v), np.fft.ifftn(self.vt)


def full_lattice_rho(grid):
    """|xi| over the full n-dimensional frequency lattice, in FFT order."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx)
    axes = np.meshgrid(*([xi] * grid.n), indexing="ij")
    return np.sqrt(sum(a * a for a in axes))


def full_spectrum_linear_evolve(data, t, params):
    """v = K0hat v0 + K1hat v1 modewise, likewise v_t, as Spectra."""
    rho = full_lattice_rho(data.u.grid)
    start = Spectra.of(data)
    v0, v1 = start.v, start.vt
    k0, k1 = kernel_values(t, rho, params)
    dk0, dk1 = kernel_dt_values(t, rho, params)
    v = k0 * v0 + k1 * v1
    vt = dk0 * v0 + dk1 * v1
    return Spectra(data.u.grid, data.t + t, v, vt)


def full_spectrum_gevrey_energy(state, c, params):
    """sum over every mode of exp(2 c rho^{2 delta} t) (1 - chi(rho))
    (rho^{2 sigma} |v|^2 + |v_t|^2), normalised like an L^2 integral."""
    grid = state.grid
    rho = full_lattice_rho(grid)
    weight = np.exp(2.0 * c * rho ** (2.0 * params.delta_f) * state.t)
    band = 1.0 - np.asarray(cutoff_chi(rho))
    dens = (rho ** (2.0 * params.sigma_f) * np.abs(state.v) ** 2
            + np.abs(state.vt) ** 2)
    norm_factor = grid.dx ** grid.n / grid.N ** grid.n
    return float(norm_factor * np.sum(weight * band * dens))


def _full_l2_norm(v, grid):
    """Lattice L^2 norm of ifftn(v)."""
    power = np.abs(np.fft.ifftn(v)) ** 2
    return float((grid.dx ** grid.n * np.sum(power)) ** 0.5)


def pad_spectrum(v, factor=1.5):
    """Zero-pad a full spectrum by fftshift + np.pad."""
    N = v.shape[0]
    M = int(round(N * factor))
    M += M % 2
    pad = (M - N) // 2
    padded = np.pad(np.fft.fftshift(v), [(pad, pad)] * v.ndim)
    return np.fft.ifftshift(padded) * (M / N) ** v.ndim


def truncate_spectrum(v, N):
    """Keep the central N^n modes of a full spectrum."""
    M = v.shape[0]
    pad = (M - N) // 2
    sl = tuple(slice(pad, pad + N) for _ in range(v.ndim))
    return np.fft.ifftshift(np.fft.fftshift(v)[sl]) * (N / M) ** v.ndim


def _nonlinearity_spectrum(v, p, dealias):
    if dealias:
        u = np.fft.ifftn(pad_spectrum(v))
        return truncate_spectrum(np.fft.fftn(np.abs(u) ** p), v.shape[0])
    return np.fft.fftn(np.abs(np.fft.ifftn(v)) ** p)


def full_spectrum_semilinear_solve(data, params, nonlinearity, t_end, dt,
                                   store_every=1, norm_ceiling=1e6):
    """The complex full-spectrum stepper that the real one replaced: it
    pads with fftshift + np.pad, carries complex fftn spectra, monitors
    the L^2 norm with an inverse FFT per step and returns the stored states
    as a tuple of Spectra."""
    grid = data.u.grid
    rho = full_lattice_rho(grid)
    p = float(params.p) if params.p is not None else 0.0
    dealias = nonlinearity != "none" and p == int(p)
    k0_h, k1_h = kernel_values(dt / 2.0, rho, params)
    dk0_h, dk1_h = kernel_dt_values(dt / 2.0, rho, params)
    k0_f, k1_f = kernel_values(dt, rho, params)
    dk0_f, dk1_f = kernel_dt_values(dt, rho, params)
    start = Spectra.of(data)
    v, vt = start.v, start.vt
    snapshots = [start]
    steps = int(round(t_end / dt))
    for step in range(1, steps + 1):
        if nonlinearity == "none":
            v, vt = k0_f * v + k1_f * vt, dk0_f * v + dk1_f * vt
        else:
            v_half = k0_h * v + k1_h * vt
            vt_half = dk0_h * v + dk1_h * vt
            source = v_half if nonlinearity == "abs_u_p" else vt_half
            f_mid = _nonlinearity_spectrum(source, p, dealias)
            v_new = k0_f * v + k1_f * vt + dt * k1_h * f_mid
            vt_new = dk0_f * v + dk1_f * vt + dt * dk1_h * f_mid
            v, vt = v_new, vt_new
        t = data.t + step * dt
        norm = _full_l2_norm(v, grid)
        if not np.isfinite(norm) or norm > norm_ceiling:
            raise BlowUpError(t=t, norm=norm, ceiling=norm_ceiling)
        if step % store_every == 0 or step == steps:
            snapshots.append(Spectra(grid, t, v.copy(), vt.copy()))
    return tuple(snapshots)


# ---------------------------------------------------------------------------
# Admissibility in Fraction arithmetic
# ---------------------------------------------------------------------------

def fraction_threshold_n1(params: ModelParams) -> Fraction:
    """Loss-of-decay dimension threshold n1 = 4 m q (sigma - delta) / (q - m)
    of the B-variant gate n > n1; needs m < q."""
    q, m = params.q, params.m
    return 4 * m * q * (params.sigma - params.delta) / (q - m)


def fraction_require_valid(params: ModelParams) -> None:
    """Raise ValueError naming every violated standing assumption."""
    report = fraction_validate(params)
    if not report.ok:
        raise ValueError("invalid model parameters: " + "; ".join(report.violations))


def fraction_validate(params: ModelParams) -> ValidationReport:
    """Check the standing assumptions; report all failures, throw nothing."""
    violations: list[str] = []
    if params.sigma < 1:
        violations.append("sigma >= 1 violated")
    if not (0 < params.delta < params.sigma / 2):
        violations.append("delta in (0, sigma/2) violated")
    if params.mu <= 0:
        violations.append("mu > 0 violated")
    if params.n < 1:
        violations.append("n >= 1 violated")
    if params.q <= 1:
        violations.append("q > 1 violated")
    if not (1 <= params.m < params.q):
        violations.append("1 <= m < q violated")
    if params.s < 0:
        violations.append("s >= 0 violated")
    if params.p is not None and params.p <= 1:
        violations.append("p > 1 violated")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def fraction_structural_bound(theorem: TheoremId,
                              params: ModelParams) -> Optional[Fraction]:
    """Exact structural lower bound for p, or None when no finite bound exists
    (nonpositive denominator)."""
    sigma, delta = params.sigma, params.delta
    n, q, m, s = params.n, params.q, params.m, params.s
    fam = theorem.family
    if fam == 6:
        den = n - 2 * m * (sigma - 2 * delta)
        if den <= 0:
            return None
        num = max(n - (m / q) * n + m * (s - 2 * delta), 2 * m * (2 * sigma - 3 * delta))
        return 1 + num / den
    den = n - 2 * m * (sigma - delta)
    if den <= 0:
        return None
    smooth = sigma if fam == 2 else s
    num = max(n - (m / q) * n + m * smooth, 4 * m * (sigma - delta))
    if fam == 4:
        # Worked-example arithmetic: no additive unit (see module docstring).
        return num / den
    return 1 + num / den


def fraction_gn_window(theorem: TheoremId, params: ModelParams) -> AdmissibleInterval:
    """Window of p for which the Gagliardo-Nirenberg step applies."""
    theorem = TheoremId(theorem)
    sigma, delta = params.sigma, params.delta
    n, q, m, s = params.n, params.q, params.m, params.s
    fam = theorem.family
    lower = Endpoint(value=q / m, closed=True, source="GN window lower q/m")
    constraints: list[Constraint] = []

    if fam in (2, 3):
        smooth = sigma if fam == 2 else s
        if n <= q * smooth:
            return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False,
                                      active_constraints=tuple(constraints))
        if n <= q * q * smooth / (q - m):
            upper = Endpoint(n / (n - q * smooth), True, "GN window upper")
            return AdmissibleInterval(lower, upper, False,
                                      active_constraints=tuple(constraints))
        return AdmissibleInterval(None, None, True,
                                  empty_reason="n beyond GN dimension band")
    if fam == 4:
        if n <= q * s:
            return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False)
        if n <= q * s + q * m * sigma / (q - m):
            upper = Endpoint(1 + q * sigma / (n - q * s), True, "GN window upper")
            return AdmissibleInterval(lower, upper, False)
        return AdmissibleInterval(None, None, True,
                                  empty_reason="n beyond GN dimension band")
    # families 5 and 6: dimension gate, no upper endpoint
    gate_val = 2 * m * (sigma - delta) if fam == 5 else 2 * m * (sigma - 2 * delta)
    gate_name = ("n > 2m(sigma-delta)" if fam == 5 else "n > 2m(sigma-2delta)")
    ok = n > gate_val
    constraints.append(Constraint(gate_name, "gate", f"n = {n} vs {gate_val}", not ok))
    if not ok:
        return AdmissibleInterval(None, None, True, empty_reason=f"gate {gate_name}",
                                  active_constraints=tuple(constraints))
    return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False,
                              active_constraints=tuple(constraints))


def fraction_admissible_interval(theorem: TheoremId,
                                 params: ModelParams) -> AdmissibleInterval:
    """Full admissible p-interval: intersection of every hypothesis of the theorem.

    Raises ValueError naming the violations when the parameters break a
    standing assumption.
    """
    theorem = TheoremId(theorem)
    fraction_require_valid(params)
    sigma = params.sigma
    n, q, s = params.n, params.q, params.s
    fam = theorem.family
    constraints: list[Constraint] = []

    # --- gates ---------------------------------------------------------
    def gate(label: str, ok: bool, detail: str) -> Optional[AdmissibleInterval]:
        constraints.append(Constraint(label, "gate", detail, active=not ok))
        if not ok:
            return AdmissibleInterval(None, None, True, empty_reason=f"gate: {label}",
                                      active_constraints=tuple(constraints))
        return None

    if theorem.is_b:
        n1 = fraction_threshold_n1(params)
        failed = gate("n > n1", n > n1, f"n = {n}, n1 = {n1}")
    else:
        half, n0 = n // 2, threshold_n0(params)
        failed = gate("parabolic band floor(n/2) < n0", half < n0,
                      f"floor(n/2) = {half}, n0 = {n0}")
    if failed:
        return failed

    if fam == 3:
        failed = gate("0 < s < sigma", 0 < s < sigma, f"s = {s}, sigma = {sigma}")
    elif fam == 4:
        top = sigma + Fraction(n) / q
        failed = gate("sigma < s <= sigma + n/q", sigma < s <= top,
                      f"s = {s}, sigma + n/q = {top}")
    elif fam in (5, 6):
        top = sigma + Fraction(n) / q
        failed = gate("s > sigma + n/q", s > top, f"s = {s}, sigma + n/q = {top}")
    if failed:
        return failed

    # --- candidate lower bounds ---------------------------------------
    # Each entry: (value, closed, label).
    lowers: list[tuple[Fraction, bool, str]] = []

    if not theorem.is_b:
        bound = fraction_structural_bound(theorem, params)
        if bound is None:
            constraints.append(Constraint("structural exponent bound", "gate",
                                          "no finite bound (denominator <= 0)", True))
            return AdmissibleInterval(None, None, True,
                                      empty_reason="structural bound denominator <= 0",
                                      active_constraints=tuple(constraints))
        lowers.append((bound, False, "structural exponent bound"))

    if fam == 4:
        reg = 1 + ceil(s - sigma)
        lowers.append((Fraction(reg), False, "regularity p > 1 + ceil(s - sigma)"))
    elif fam in (5, 6):
        lowers.append((1 + s - sigma, False, "regularity p > 1 + s - sigma"))

    window = fraction_gn_window(theorem, params)
    constraints.extend(window.active_constraints)
    if window.empty:
        return AdmissibleInterval(None, None, True, empty_reason=window.empty_reason,
                                  active_constraints=tuple(constraints))
    assert window.lower is not None and window.lower.value is not None
    lowers.append((window.lower.value, True, window.lower.source))

    # --- aggregate -----------------------------------------------------
    # Most restrictive lower bound; at equal values an open bound beats
    # a closed one.
    best_value = max(v for v, _, _ in lowers)
    open_at_best = [lab for v, c, lab in lowers if v == best_value and not c]
    closed_at_best = [lab for v, c, lab in lowers if v == best_value and c]
    closed = not open_at_best
    source = (open_at_best or closed_at_best)[0]
    lower = Endpoint(best_value, closed, source)

    upper = window.upper
    for v, c, lab in lowers:
        constraints.append(Constraint(lab, "lower", str(v), active=(v == best_value)))
    if upper is not None and not upper.infinite:
        constraints.append(Constraint(upper.source, "upper", str(upper.value), True))

    if upper is not None and upper.value is not None:
        if upper.value < lower.value or (
                upper.value == lower.value and not (upper.closed and lower.closed)):
            return AdmissibleInterval(lower, upper, True,
                                      empty_reason="lower bound exceeds GN upper endpoint",
                                      active_constraints=tuple(constraints))
    return AdmissibleInterval(lower, upper, False,
                              active_constraints=tuple(constraints))


def _fraction_interval_text(interval: AdmissibleInterval) -> str:
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


def fraction_admissible_files(cases) -> tuple[str, str]:
    """The admissible.csv and admissible.ndjson text of (name, theorem,
    params) cases: a row of cells per case, by csv.writer and by
    json.dumps of the row's dict."""
    keys = ("sigma", "delta", "mu", "n", "q", "m", "s", "p")
    fields = ["case", "theorem", *keys, "interval", "empty", "gate_failed",
              "empty_reason"]
    table = io.StringIO()
    table.write("# schema=1\n")
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(fields)
    records = []
    for name, theorem, params in cases:
        interval = fraction_admissible_interval(theorem, params)
        gate_failed = interval.empty and any(
            c.kind == "gate" and c.active for c in interval.active_constraints)
        cells = [name, TheoremId(theorem).value,
                 *("" if (value := getattr(params, key)) is None else str(value)
                   for key in keys),
                 _fraction_interval_text(interval), str(int(interval.empty)),
                 str(int(gate_failed)), interval.empty_reason or ""]
        writer.writerow(cells)
        records.append(json.dumps(dict(zip(fields, cells))) + "\n")
    return table.getvalue(), "".join(records)
