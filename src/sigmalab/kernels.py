"""Physical-space kernel norms by radial (Hankel) quadrature and
power-law fitting of their time decay.

The inverse Fourier transform of a radial multiplier g(|xi|) on R^n is
the one-dimensional Bessel-weighted integral

    (F^{-1} g)(x) = (2 pi)^{-n/2} int_0^inf g(r) r^{n-1}
                        Jt_{n/2-1}(r |x|) dr,

where Jt_mu(s) = J_mu(s)/s^mu.  For n = 1 and n = 3 the kernel Jt is
elementary (cos s and sin(s)/s up to constants), which admits a fast
uniform-grid FFT evaluation of the whole radial profile at once; the
general adaptive Gauss-Legendre panel quadrature is used for n = 2 and
as an independent cross-check of the FFT path.

Kernel norms are computed in self-similar variables: the multiplier is
evaluated at rho = scale * eta with the scale chosen so the scaled
multiplier has O(1) support (t^{-1/(2 delta)} at small times,
t^{-1/(2(sigma-delta))} at large times).  L^1 norms are invariant under
this dilation; L^r norms pick up the factor scale^{n(1-1/r)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn, j0, jv

from .dispersion import cutoff_chi, kernel_values
from .params import ModelParams, as_fraction

__all__ = [
    "QuadConfig", "QuadratureError", "DecayFit",
    "bessel_tilde", "radial_inverse_fourier",
    "kernel_profile", "kernel_l1_norm", "kernel_lr_norm",
    "fit_power_law", "theoretical_exponent",
]

#: Surface measure of the unit sphere S^{n-1} for n = 1, 2, 3.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class QuadConfig:
    """Controls for the adaptive radial quadrature.

    tol : target estimated relative error.
    max_panels : refinement budget.
    rho_max : truncation radius; None = determined from the multiplier decay.
    extra_freq : known oscillation frequency of the multiplier itself
        (added to x_radius when sizing the half-oscillation panels).
    """

    tol: float = 1e-8
    max_panels: int = 200_000
    rho_max: Optional[float] = None
    extra_freq: float = 0.0


class QuadratureError(RuntimeError):
    """Panel budget exhausted; carries the best partial value."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit exponent with residual and window."""

    exponent: float
    residual: float
    window: tuple[float, float]
    samples: int


def bessel_tilde(mu: float, s):
    """Jt_mu(s) = J_mu(s)/s^mu for mu >= -1/2; finite as s -> 0.

    Accepts scalars or arrays with s >= 0 (the s -> 0 limit
    1/(2^mu Gamma(mu+1)) is substituted below s = 1e-8).  Order 0, the
    n = 2 transform kernel, is scipy's j0 itself: J_0 is finite at 0 and
    rounds to its limit 1 below s = 1e-8, so it needs no substitution.
    """
    if mu < -0.5:
        raise ValueError("order must be >= -1/2")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("s must be >= 0")
    if mu == 0.0:
        vals = j0(s_arr)
    else:
        tiny = s_arr < 1e-8
        s_safe = np.where(tiny, 1.0, s_arr)
        if mu == -0.5:
            vals = np.sqrt(2.0 / np.pi) * np.cos(s_safe)
        elif mu == 0.5:
            vals = np.sqrt(2.0 / np.pi) * np.sin(s_safe) / s_safe
        else:
            vals = jv(mu, s_safe) / s_safe ** mu
        limit = 1.0 / (2.0 ** mu * gamma_fn(mu + 1.0))
        vals = np.where(tiny, limit, vals)
    if np.isscalar(s):
        return float(vals)
    return vals


def _find_truncation(g: Callable[[np.ndarray], np.ndarray],
                     threshold: float = 1e-14) -> tuple[float, float]:
    """Probe |g| on a log grid; return (rho_max, peak) where |g| has
    dropped below threshold * peak for good."""
    probes = np.geomspace(1e-6, 1e8, 600)
    mags = np.abs(g(probes))
    peak = float(np.max(mags))
    if peak == 0.0:
        return 1.0, 0.0
    alive = np.nonzero(mags > threshold * peak)[0]
    rho_max = probes[alive[-1]] * 2.0 if len(alive) else 1.0
    return float(max(rho_max, 1e-3)), peak


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

    Fixed Gauss-Legendre panels of half-oscillation length
    pi/(x_radius + extra_freq), refined (panel halving) until the
    estimated error is below quad.tol; raises QuadratureError with the
    partial value when the panel budget runs out.
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

    freq = x_radius + quad.extra_freq
    # Half-oscillation panels, but never coarser than ~32 panels so the
    # smooth structure of the multiplier itself is resolved.
    h = np.pi / freq if freq > 0 else upper
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


# ---------------------------------------------------------------------------
# Kernel multipliers and self-similar profiles
# ---------------------------------------------------------------------------

def _band_weight(rho: np.ndarray, band: str) -> np.ndarray:
    chi = np.asarray(cutoff_chi(rho))
    if band == "low":
        return chi
    if band == "high":
        return 1.0 - chi
    if band == "full":
        return np.ones_like(rho)
    raise ValueError(f"unknown band {band!r}")


def _kernel_multiplier(which: str, a: float, t: float, band: str,
                       params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    """The radial multiplier rho^a * Khat_i(t, rho) * band(rho)."""
    if which not in ("K0", "K1"):
        raise ValueError("which must be 'K0' or 'K1'")

    def g(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        k0, k1 = kernel_values(t, rho, params)
        base = k0 if which == "K0" else k1
        return rho ** a * base * _band_weight(rho, band)

    return g


def _natural_scale(t: float, band: str, params: ModelParams) -> float:
    """Dilation under which the kernel multiplier has O(1) support."""
    sigma, delta = params.sigma_f, params.delta_f
    if t <= 1.0:
        return t ** (-1.0 / (2.0 * delta)) if band in ("high", "full") else 1.0
    if band == "high":
        return 1.0
    return t ** (-1.0 / (2.0 * (sigma - delta)))


def _oscillation_hint(g_scaled: Callable[[np.ndarray], np.ndarray],
                      scale: float, t: float, eta_max: float,
                      params: ModelParams) -> float:
    """Largest alive oscillation frequency (in eta) of the scaled multiplier.

    The oscillatory phase above the coalescence radius is
    t * omega(rho) with omega = rho^sigma f(rho); its eta-derivative is
    t * scale * omega'(scale * eta).  Probes where the multiplier is
    dead (|g| < 1e-13 of the peak) are ignored.
    """
    from .dispersion import coalescence_radius
    rho_star = coalescence_radius(params)
    eta_lo = max(1e-9, 1.05 * rho_star / scale)
    if eta_lo >= eta_max:
        return 0.0
    etas = np.geomspace(eta_lo, eta_max, 200)
    rhos = scale * etas
    osc = rhos > 1.05 * rho_star
    if not np.any(osc):
        return 0.0
    mags = np.abs(g_scaled(etas))
    peak = np.max(np.abs(g_scaled(np.geomspace(1e-9, eta_max, 400))))
    alive = osc & (mags > 1e-13 * max(peak, 1e-300))
    if not np.any(alive):
        return 0.0
    rr = rhos[alive]
    mu2 = params.mu_f ** 2
    sigma, delta = params.sigma_f, params.delta_f
    f = np.sqrt(1.0 - mu2 / (4.0 * rr ** (2.0 * sigma - 4.0 * delta)))
    omega = rr ** sigma * f
    domega = np.gradient(omega, rr)
    return float(np.max(np.abs(domega)) * t * scale)


@dataclass(frozen=True)
class RadialProfile:
    """Radial profile I(y) of the inverse transform of a scaled multiplier.

    tail_coeff estimates the coefficient C of an algebraic tail
    |I(y)| ~ C y^{-2} beyond the computed window (zero when the profile
    has decayed inside the window); norm integration adds the
    corresponding closed-form remainder.
    """

    y: np.ndarray
    values: np.ndarray
    scale: float
    n: int
    tail_coeff: float = 0.0


def _profile_fft(g: Callable[[np.ndarray], np.ndarray], n: int,
                 eta_max: float, freq_hint: float,
                 y_max: float) -> RadialProfile:
    """Whole radial profile by uniform sampling + FFT (n = 1 or 3).

    n = 1:  I(y) = (1/pi)      int_0^inf g(eta) cos(eta y) d eta
    n = 3:  I(y) = 1/(2 pi^2 y) int_0^inf g(eta) eta sin(eta y) d eta

    The sampling step is pi / (2 (y_max + freq_hint)) so that DFT
    aliasing folds in content from beyond 3 y_max + 4 freq_hint, where
    the profile has decayed; the spectrum is zero-padded 4x for a fine
    output grid in y.
    """
    if n not in (1, 3):
        raise ValueError("FFT profile path supports n = 1 and n = 3 only")
    step = np.pi / (2.0 * (y_max + freq_hint + 1.0))
    m_samples = int(np.ceil(eta_max / step))
    m_fft = 1 << int(np.ceil(np.log2(4 * m_samples)))
    eta = step * np.arange(m_samples)
    g_eta = np.asarray(g(eta), dtype=float)
    weights = g_eta if n == 1 else g_eta * eta
    buf = np.zeros(m_fft)
    buf[:m_samples] = weights
    buf[0] *= 0.5  # trapezoid endpoint at eta = 0 (far end has decayed)
    spec = np.fft.rfft(buf)
    y = 2.0 * np.pi * np.arange(len(spec)) / (m_fft * step)
    cos_int = step * spec.real
    sin_int = -step * spec.imag
    if n == 1:
        vals = cos_int / np.pi
    else:
        vals = np.empty_like(sin_int)
        vals[1:] = sin_int[1:] / (2.0 * np.pi ** 2 * y[1:])
        vals[0] = step * np.sum(g_eta * eta * eta) / (2.0 * np.pi ** 2)
    keep = y <= y_max
    return RadialProfile(y=y[keep], values=vals[keep], scale=1.0, n=n)


def _profile_direct(g: Callable[[np.ndarray], np.ndarray], n: int,
                    eta_max: float, freq_hint: float,
                    y_max: float, num_y: int = 800) -> RadialProfile:
    """Radial profile by shared-panel Gauss-Legendre quadrature (any n).

    One global panel mesh fine enough for the largest output radius is
    evaluated once; each output radius reuses it with its own Bessel
    factor.  Cost grows with y_max * eta_max, so this path is for
    moderate parameters and cross-checks.
    """
    nodes, wts = np.polynomial.legendre.leggauss(16)
    h = np.pi / (y_max + freq_hint + 1.0)
    n_panels = max(int(np.ceil(eta_max / h)), 64)
    edges = np.linspace(0.0, eta_max, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes[None, :]).ravel()
    wall = np.tile(wts, n_panels) * half
    base = np.asarray(g(pts), dtype=float) * pts ** (n - 1) * wall
    mu = n / 2.0 - 1.0
    ys = np.linspace(0.0, y_max, num_y)
    vals = np.empty_like(ys)
    pref = (2.0 * np.pi) ** (-n / 2.0)
    limit = 1.0 / (2.0 ** mu * gamma_fn(mu + 1.0))
    for i, yv in enumerate(ys):
        if yv == 0.0:
            vals[i] = pref * limit * np.sum(base)
        else:
            vals[i] = pref * np.sum(base * bessel_tilde(mu, pts * yv))
    return RadialProfile(y=ys, values=vals, scale=1.0, n=n)


#: Sample budget for the dense unscaled FFT path.  At the cap the
#: samples alone are about 600 MB of float64; the power-of-two FFT
#: buffer that holds them and its complex half spectrum take up to
#: 1 GiB each.  The sampling blocks add only a few MB on top.
_DENSE_SAMPLE_CAP = 80_000_000
#: Samples per block of the dense path.  Its multiplier is a chain of
#: float64 ufuncs, each of which streams a fresh temporary; at 2^15
#: samples a temporary is 256 KB, so a block's whole working set stays
#: in a 2 MiB L2 instead of going through DRAM once per operation.
#: Block sizes from 2^14 to 2^16 run equally fast; 2^18 is slower.
_DENSE_CHUNK = 1 << 15


def _profile_dense(raw: Callable[[np.ndarray], np.ndarray], n: int, t: float,
                   params: ModelParams, a: float) -> Optional[RadialProfile]:
    """Unscaled radial profile for small-t high-frequency multipliers.

    At small t the high band carries structure on two separated scales:
    the band edge at rho ~ 1 (physical radius O(1)) and the bulk at
    rho ~ t^{-1/(2 delta)} (a sharp wavefront).  A single self-similar
    grid cannot represent both, so this path samples the multiplier on
    a uniform unscaled rho grid fine enough for a physical window
    x <= x_max and transforms it in one FFT.  The rho truncation is a
    smooth taper where the exponential envelope has decayed; the sample
    count is capped, and None is returned when the parameters put the
    problem over budget (the caller falls back to the scaled grid).
    """
    if n not in (1, 3):
        return None
    mu, delta, sigma = params.mu_f, params.delta_f, params.sigma_f
    # Truncation taper starts where exp(-(mu/2) rho^{2 delta} t) has
    # fallen to ~e^-12 and spans a further 30% in rho.
    z_start = 12.0 + 2.0 * a
    rho_start = max((2.0 * z_start / (mu * t)) ** (1.0 / (2.0 * delta)), 8.0)
    rho_cap = 1.3 * rho_start
    # Wavefront location: t * max omega'(rho) over the alive band.
    f_cap = np.sqrt(max(1.0 - mu ** 2 / (4.0 * rho_cap ** (2 * sigma - 4 * delta)), 0.5))
    hint = t * sigma * rho_cap ** (sigma - 1.0) * f_cap
    x_max = max(40.0, 3.0 * hint + 10.0)
    margin = 0.25 * x_max  # aliasing guard: folded images come from >= x_max + 2*margin
    step = np.pi / (2.0 * (x_max + margin + hint + 1.0))
    m_samples = int(np.ceil(rho_cap / step))
    if m_samples > _DENSE_SAMPLE_CAP:
        return None
    m_fft = 1 << int(np.ceil(np.log2(m_samples + 1)))
    buf = np.zeros(m_fft)
    for lo in range(0, m_samples, _DENSE_CHUNK):
        hi = min(lo + _DENSE_CHUNK, m_samples)
        rho = step * np.arange(lo, hi)
        vals = np.asarray(raw(rho), dtype=float)
        if rho[-1] > rho_start:  # the taper is exactly 1 up to rho_start
            vals *= np.asarray(cutoff_chi(0.5 + (rho - rho_start) / (0.6 * rho_start)))
        if n == 3:
            vals *= rho
        buf[lo:hi] = vals
    buf[0] *= 0.5  # trapezoid endpoint at rho = 0
    spec = np.fft.rfft(buf)
    del buf
    dy = 2.0 * np.pi / (m_fft * step)
    keep = int(x_max / dy) + 1
    y = dy * np.arange(keep)
    if n == 1:
        vals = step * spec.real[:keep] / np.pi
    else:
        sin_int = -step * spec.imag[:keep]
        vals = np.empty(keep)
        vals[1:] = sin_int[1:] / (2.0 * np.pi ** 2 * y[1:])
        vals[0] = 0.0 if keep == 1 else vals[1]
    del spec
    # Algebraic-tail coefficient from the outer 20% of the window,
    # assuming |I| ~ C y^{-2} out there (exact decay of the band-edge
    # contribution after two integrations by parts).
    outer = y > 0.8 * x_max
    tail_coeff = float(np.median(np.abs(vals[outer]) * y[outer] ** 2)) if np.any(outer) else 0.0
    return RadialProfile(y=y, values=vals, scale=1.0, n=n, tail_coeff=tail_coeff)


def kernel_profile(which: str, a: float, t: float, band: str,
                   params: ModelParams, n: int,
                   y_max: Optional[float] = None) -> RadialProfile:
    """Self-similar radial profile of F^{-1}(rho^a Khat_i band) at time t.

    Returns the profile of the *scaled* multiplier g(eta) = G(scale*eta)
    together with the scale; the physical profile is
    scale^n * I(scale * x).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    scale = _natural_scale(t, band, params)
    raw = _kernel_multiplier(which, a, t, band, params)

    # Small-t bands containing high frequencies mix the O(1) band-edge
    # scale with the t^{-1/(2 delta)} wavefront scale; the dense
    # unscaled grid handles both at once.
    if (y_max is None and band in ("high", "full") and t <= 1.0
            and scale > 1.5 and n in (1, 3)):
        dense = _profile_dense(raw, n, t, params, a)
        if dense is not None:
            return dense

    def g(eta: np.ndarray) -> np.ndarray:
        return raw(scale * np.asarray(eta, dtype=float))

    eta_max, peak = _find_truncation(g)
    if peak == 0.0:
        return RadialProfile(y=np.linspace(0, 1, 2), values=np.zeros(2),
                             scale=scale, n=n)
    hint = _oscillation_hint(g, scale, t, eta_max, params)
    target_y = y_max if y_max is not None else 3.0 * hint + 60.0
    for _ in range(4):
        if n in (1, 3):
            prof = _profile_fft(g, n, eta_max, hint, target_y)
        else:
            prof = _profile_direct(g, n, eta_max, hint, target_y)
        # Tail check on the L^1 integrand: the last 15% of the radius
        # range must be negligible, else enlarge the window (within a
        # fixed sample budget).
        integrand = np.abs(prof.values) * prof.y ** (n - 1)
        total = np.trapezoid(integrand, prof.y)
        cut = prof.y > 0.85 * target_y
        tail = np.trapezoid(integrand[cut], prof.y[cut])
        if y_max is not None or total == 0.0 or tail < 1e-4 * total:
            break
        next_samples = 8.0 * eta_max * (2.0 * target_y + hint + 1.0) / np.pi
        if next_samples > _DENSE_SAMPLE_CAP / 4:
            break
        target_y *= 2.0
    return RadialProfile(y=prof.y, values=prof.values, scale=scale, n=n)


def kernel_lr_norm(which: str, a: float, t: float, r: float,
                   params: ModelParams, n: int,
                   band: str = "full") -> float:
    """L^r(R^n) norm of F^{-1}(|xi|^a Khat_i(t, .) band(|xi|)).

    r = 2 uses Parseval on the multiplier directly; r = inf is the max
    of the radial profile; other r integrate the profile.  The
    self-similar dilation contributes the factor scale^{n(1-1/r)}.
    """
    if r < 1:
        raise ValueError("r must be in [1, inf]")
    scale = _natural_scale(t, band, params)
    if r == 2.0:
        raw = _kernel_multiplier(which, a, t, band, params)

        def g2(eta):
            return raw(scale * np.asarray(eta, dtype=float))

        eta_max, peak = _find_truncation(g2)
        if peak == 0.0:
            return 0.0
        hint = _oscillation_hint(g2, scale, t, eta_max, params)
        step = min(np.pi / (8.0 * (hint + 1.0)), eta_max / 4096.0)
        eta = np.arange(0.0, eta_max, step)
        dens = np.asarray(g2(eta), dtype=float) ** 2 * eta ** (n - 1)
        integral = scale ** n * np.trapezoid(dens, eta)
        norm_sq = (2.0 * np.pi) ** (-n) * _SPHERE_AREA[n] * integral
        return float(np.sqrt(norm_sq))
    prof = kernel_profile(which, a, t, band, params, n)
    scale = prof.scale
    if np.isinf(r):
        return float(np.max(np.abs(prof.values)) * scale ** n)
    integrand = np.abs(prof.values) ** r * prof.y ** (n - 1)
    integral = _SPHERE_AREA[n] * np.trapezoid(integrand, prof.y)
    if prof.tail_coeff > 0.0 and len(prof.y) and 2.0 * r > n:
        # Remainder of the |I| ~ C y^{-2} tail beyond the window:
        # S_{n-1} C^r  int_Y^inf y^{n-1-2r} dy.
        y_edge = float(prof.y[-1])
        integral += (_SPHERE_AREA[n] * prof.tail_coeff ** r
                     * y_edge ** (n - 2.0 * r) / (2.0 * r - n))
    return float(integral ** (1.0 / r) * scale ** (n * (1.0 - 1.0 / r)))


def kernel_l1_norm(which: str, a: float, t: float, band: str,
                   params: ModelParams, n: int) -> float:
    """L^1(R^n) norm of F^{-1}(|xi|^a Khat_i(t, .) band(|xi|))."""
    return kernel_lr_norm(which, a, t, 1.0, params, n, band=band)


def fit_power_law(samples: Sequence[tuple[float, float]],
                  window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of log(value) against log(t) inside the window."""
    t_min, t_max = window
    if not t_min < t_max:
        raise ValueError("window must be non-degenerate")
    inside = [(t, v) for t, v in samples if t_min <= t <= t_max]
    if len(inside) < 5:
        raise ValueError("need at least 5 samples inside the window")
    if any(v <= 0 for _, v in inside):
        raise ValueError("samples must be positive for log-log fitting")
    log_t = np.log([t for t, _ in inside])
    log_v = np.log([v for _, v in inside])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = log_v - (slope * log_t + intercept)
    return DecayFit(exponent=float(slope),
                    residual=float(np.sqrt(np.mean(resid ** 2))),
                    window=(t_min, t_max), samples=len(inside))


def theoretical_exponent(which: str, a, regime: str, r, params: ModelParams) -> Fraction:
    """Predicted power of t for the kernel L^r norms and the solution
    L^r estimates, in exact rational arithmetic.

    which: K0 | K1 (kernel norms) or u_from_u0 | u_from_u1 |
    ut_from_u0 | ut_from_u1 (solution norm contributed by each datum).
    regime: small_t | large_t.
    """
    a = as_fraction(a)
    r = as_fraction(r)
    sigma, delta, n = params.sigma, params.delta, params.n
    half = floor(Fraction(n, 2))
    if regime not in ("small_t", "large_t"):
        raise ValueError("regime must be 'small_t' or 'large_t'")
    inv_r = 1 / r
    if regime == "small_t":
        gap = sigma / (2 * delta) - 1          # sigma/(2 delta) - 1
        spread = Fraction(n) / (2 * delta) * (1 - inv_r)
        if which in ("K0", "u_from_u0", "ut_from_u1"):
            return -(2 + half) * gap * inv_r - spread - a / (2 * delta)
        if which in ("K1", "u_from_u1"):
            return 1 - (1 + half) * gap * inv_r - spread - a / (2 * delta)
        if which == "ut_from_u0":
            return 1 - (1 + half) * gap * inv_r - spread - (a + 2 * sigma) / (2 * delta)
    else:
        spread = Fraction(n) / (2 * (sigma - delta)) * (1 - inv_r)
        if which in ("K0", "u_from_u0"):
            return -spread - a / (2 * (sigma - delta))
        if which in ("K1", "u_from_u1"):
            return 1 - spread - a / (2 * (sigma - delta))
        if which == "ut_from_u0":
            return -spread - (a + 2 * delta) / (2 * (sigma - delta))
        if which == "ut_from_u1":
            return 1 - spread - (a + 2 * delta) / (2 * (sigma - delta))
    raise ValueError(f"unknown selector {which!r}")
