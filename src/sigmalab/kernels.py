"""Physical-space kernel norms by radial (Hankel) transforms and
power-law fitting of their time decay.

The inverse Fourier transform of a radial multiplier g(|xi|) on R^n is
the one-dimensional Bessel-weighted integral

    (F^{-1} g)(x) = (2 pi)^{-n/2} int_0^inf g(r) r^{n-1}
                        Jt_{n/2-1}(r |x|) dr,

where Jt_mu(s) = J_mu(s)/s^mu.  For n = 1 and n = 3 the kernel Jt is
elementary (cos s and sin(s)/s up to constants), which admits a fast
uniform-grid FFT evaluation of the whole radial profile at once; n = 2
uses a shared-panel Gauss-Legendre quadrature.  At small t the n = 1
and n = 3 profiles come from a dense unscaled grid whose long real DFT
is one cache-resident four-step FFT, its rows taken in groups through
one buffer; the profile is scaled and integrated in place.  The dense
and the n = 2 paths share their blocks of work with one worker thread
per step.  The adaptive panel quadrature that checks these paths is a
test oracle (tests/oracles.py), not part of the package.

Kernel norms are computed in self-similar variables: the multiplier is
evaluated at rho = scale * eta with the scale chosen so the scaled
multiplier has O(1) support (t^{-1/(2 delta)} at small times,
t^{-1/(2(sigma-delta))} at large times).  L^1 norms are invariant under
this dilation; L^r norms pick up the factor scale^{n(1-1/r)}.

scipy.special is imported on first use by bessel_tilde and
_profile_direct, its only callers here (the n = 2 kernel profile
reaches it through them), so importing this module loads numpy only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Callable, Optional, Sequence

import numpy as np

from .dispersion import coalescence_radius, cutoff_chi, kernel_values
from .params import ModelParams, as_fraction

__all__ = [
    "DecayFit", "RadialProfile", "SampleBudgetError", "bessel_tilde",
    "kernel_profile", "kernel_lr_norm", "fit_power_law", "theoretical_exponent",
]

#: Surface measure of the unit sphere S^{n-1} for n = 1, 2, 3.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class SampleBudgetError(RuntimeError):
    """Raised when a transform would need more samples than its budget,
    before any array is formed."""


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
    from scipy.special import gamma as gamma_fn, j0, jv

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


def _find_truncation(g: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Probe |g| on a log grid; return (rho_max, peak) where |g| has
    dropped below 1e-14 of the peak for good."""
    probes = np.geomspace(1e-6, 1e8, 600)
    mags = np.abs(g(probes))
    peak = float(np.max(mags))
    if peak == 0.0:
        return 1.0, 0.0
    alive = np.nonzero(mags > 1e-14 * peak)[0]
    rho_max = probes[alive[-1]] * 2.0 if len(alive) else 1.0
    return float(max(rho_max, 1e-3)), peak


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
    dead (|g| < 1e-13 of the peak) are ignored; with fewer than two alive
    the hint is 0, as with none.
    """
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
    if np.count_nonzero(alive) < 2:  # np.gradient needs two probes
        return 0.0
    rr = rhos[alive]
    mu2 = params.mu_f ** 2
    sigma, delta = params.sigma_f, params.delta_f
    f = np.sqrt(1.0 - mu2 / (4.0 * rr ** (2.0 * sigma - 4.0 * delta)))
    omega = rr ** sigma * f
    domega = np.gradient(omega, rr)
    return float(np.max(np.abs(domega)) * t * scale)


def _scaled_window(raw: Callable[[np.ndarray], np.ndarray], scale: float,
                   t: float, params: ModelParams):
    """(g, eta_max, hint) of the multiplier raw dilated by scale:
    g(eta) = raw(scale * eta), the eta beyond which |g| has decayed and
    the largest oscillation frequency of g there.  eta_max is None when
    g vanishes everywhere."""
    def g(eta: np.ndarray) -> np.ndarray:
        return raw(scale * np.asarray(eta, dtype=float))

    eta_max, peak = _find_truncation(g)
    if peak == 0.0:
        return g, None, 0.0
    return g, eta_max, _oscillation_hint(g, scale, t, eta_max, params)


def _check_dimension(n: int) -> None:
    if n not in _SPHERE_AREA:
        raise ValueError(f"kernel norms support n = 1, 2 or 3, not n = {n}")


@dataclass(frozen=True)
class RadialProfile:
    """Radial profile I(y) of the inverse transform of a scaled multiplier.

    tail_coeff estimates the coefficient C of an algebraic tail
    |I(y)| ~ C y^{-2} beyond the computed window (zero when the profile
    has decayed inside the window); norm integration adds the
    corresponding closed-form remainder.
    """

    dy: float
    values: np.ndarray
    scale: float
    n: int
    tail_coeff: float = 0.0

    @property
    def y(self) -> np.ndarray:
        """The uniform radii k dy of the values (a new array per read)."""
        return self.dy * np.arange(len(self.values))


def _radii(dy: float, lo: int, hi: int):
    """Pairs (s, y[lo:hi][s]) of the radii y = k dy, for consecutive slices
    s of at most _DENSE_CHUNK indices: y in blocks, never whole."""
    for a in range(lo, hi, _DENSE_CHUNK):
        b = min(a + _DENSE_CHUNK, hi)
        yield slice(a - lo, b - lo), dy * np.arange(a, b)


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
    return RadialProfile(dy=2.0 * np.pi / (m_fft * step), values=vals[keep],
                         scale=1.0, n=n)


def _profile_direct(g: Callable[[np.ndarray], np.ndarray], n: int,
                    eta_max: float, freq_hint: float,
                    y_max: float) -> RadialProfile:
    """Radial profile by shared-panel Gauss-Legendre quadrature (any n),
    at 800 equally spaced radii from 0 to y_max.

    One global panel mesh fine enough for the largest output radius is
    evaluated once; each output radius reuses it with its own Bessel
    factor.  Cost grows with y_max * eta_max, so this path is for
    moderate parameters.

    The radii are evaluated in blocks of about _DENSE_CHUNK Bessel
    samples, shared between the calling thread and a worker thread
    (_on_two_threads; scipy's Bessel functions release the GIL).  Each radius is
    the same sum over the same products as on its own, so the profile
    is the same for any number of cores or threads.
    """
    from scipy.special import gamma as gamma_fn

    nodes, wts = np.polynomial.legendre.leggauss(16)
    h = np.pi / (y_max + freq_hint + 1.0)
    n_panels = max(int(np.ceil(eta_max / h)), 64)
    edges = np.linspace(0.0, eta_max, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes[None, :]).ravel()
    wall = np.tile(wts, n_panels) * half
    base = np.asarray(g(pts), dtype=float) * pts ** (n - 1) * wall
    mu = n / 2.0 - 1.0
    num_y = 800
    ys = np.linspace(0.0, y_max, num_y)
    vals = np.empty_like(ys)
    pref = (2.0 * np.pi) ** (-n / 2.0)
    limit = 1.0 / (2.0 ** mu * gamma_fn(mu + 1.0))
    vals[0] = pref * limit * np.sum(base)  # ys[0] = 0
    rows = max(_DENSE_CHUNK // len(pts), 1)
    blocks = [(lo, min(lo + rows, num_y)) for lo in range(1, num_y, rows)]
    # Nodes past the last nonzero weight (past the multiplier's support,
    # as _find_truncation overshoots it) add exact zeros: skip their
    # Bessel factors, keeping each row's terms and summation order.
    live = int(np.flatnonzero(base)[-1]) + 1 if base.any() else 0

    def evaluate(block: tuple) -> None:
        lo, hi = block
        products = np.zeros((hi - lo, len(pts)))
        np.multiply(base[:live], bessel_tilde(mu, ys[lo:hi, None] * pts[:live]),
                    out=products[:, :live])
        vals[lo:hi] = pref * np.sum(products, axis=1)

    _on_two_threads(evaluate, blocks)
    return RadialProfile(dy=y_max / (num_y - 1), values=vals, scale=1.0, n=n)


#: Sample budget for the dense unscaled FFT path.  At the cap (m_fft =
#: 2^27) the work is one group buffer (_GROUP_SAMPLES) plus the kept
#: bins, below m_fft/4 floats (268 MB); the profile holds no y array.
#: The row FFTs are short, so pocketfft keeps no full-length
#: temporaries; the sampling and column blocks add only a few MB.
_DENSE_SAMPLE_CAP = 80_000_000
#: Samples per row group of the dense transform, a 16 MB buffer; 2^22
#: peaks higher in RSS, and 2^20 runs slower.
_GROUP_SAMPLES = 1 << 21
#: Samples per block of the dense path.  Its multiplier is a chain of
#: float64 ufuncs, each of which streams a fresh temporary; at 2^15
#: samples a temporary is 256 KB, so a block's whole working set stays
#: in a 2 MiB L2 instead of going through DRAM once per operation.
#: Block sizes from 2^14 to 2^16 run equally fast; 2^18 is slower.
_DENSE_CHUNK = 1 << 15
#: Row length of the four-step FFT.  A 2^15-point real FFT and its half
#: spectrum stay in a 2 MiB L2: it takes 12-20 ns per point, against
#: about 43 ns per point for one 2^22-point rfft.
_FFT_ROW = 1 << 15
_DONE = object()


def _on_two_threads(fn: Callable, items: Sequence) -> None:
    """fn(item) for every item, on the calling thread and one worker
    thread started for this call.

    Each thread takes the next item that neither has taken yet, so when
    the host or the GIL slows one thread the other runs more of the
    items instead of waiting for it.  The calling thread returns once
    both threads are out of items and the worker has finished.  fn must
    write each item's result to its own place, so that the output does
    not depend on which thread ran an item or when.  The first error
    stops both threads from taking further items and is raised on the
    calling thread.
    """
    pending = iter(items)
    taking = threading.Lock()
    errors: list = []

    def drain() -> None:
        while True:
            with taking:
                item = _DONE if errors else next(pending, _DONE)
            if item is _DONE:
                return
            try:
                fn(item)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

    worker = threading.Thread(target=drain)
    worker.start()
    drain()
    worker.join()
    if errors:
        raise errors[0]


class _Roots:
    """The roots of unity exp(-2 pi i s k / m) for the orders s and
    0 <= k < cols, each a product fine[s, k mod tile] * coarse[s, k div
    tile] of two per-call tables.

    cos and sin are taken len(orders) * (tile + cols / tile) times
    instead of once per root.  The tile follows from cols alone, so a
    root does not depend on how its caller blocks k.
    """

    def __init__(self, m: int, orders: np.ndarray, cols: int):
        self.tile = 1 << ((max(cols - 1, 1).bit_length() + 1) // 2)
        s = np.asarray(orders)[:, None]
        self.fine = self._exp(m, s * np.arange(self.tile))
        self.coarse = self._exp(m, s * (self.tile * np.arange(-(-cols // self.tile))))

    @staticmethod
    def _exp(m: int, turns: np.ndarray) -> np.ndarray:
        theta = (2.0 * np.pi / m) * turns
        return np.cos(theta) - 1j * np.sin(theta)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The roots for k = lo..hi-1, one row per order."""
        b0, b1 = lo // self.tile, -(-hi // self.tile)
        span = self.coarse[:, b0:b1, None] * self.fine[:, None, :]
        start = lo - b0 * self.tile
        return span.reshape(len(span), -1)[:, start:start + hi - lo]


def _four_step(rows_spectra: np.ndarray, out: np.ndarray, roots: _Roots,
               shift: Optional[np.ndarray], c0: int, c1: int, imag: bool) -> None:
    """Last two steps of a four-step FFT (Bailey, J. Supercomputing 4
    (1990) 23) for the columns c0..c1-1 of the rows s = G s' + g of the
    real sequence x[P i + s] = rows[s, i] of length Q = P R: adds Re X_g
    (or Im X_g, if imag) to out, X_g being the DFT of those rows' samples
    at their own positions (X = sum_g X_g), from rows_spectra =
    rfft(rows[g::G], axis=1).  X_g[k2 + R k1] = W_P^{g k1}
    Z[k1 mod P/G, k2], Z being the length-P/G FFT of each column k2
    times its twiddles (roots, orders G s' + g, m = Q); shift[k] is
    W_P^{g k}, k <= K, or None for g = 0.  out is a (K, R) array,
    K <= max(P/2, 1), that takes bin k2 + R k1 at out[k1, k2].  Only the
    columns k2 <= R/2 are at hand: their rows k1 < K go straight into
    out, and their rows P - 1 - k1 into column R - k2 of row k1 by the
    mirror X_g[Q - k] = conj X_g[k] (X_g is the DFT of a real
    sequence).  Blocks of columns add to disjoint bins.  With P = 1 the
    twiddles are 1 and the column FFTs copy, so out gets the rfft.
    """
    r_len = 2 * (rows_spectra.shape[1] - 1)
    z = np.fft.fft(rows_spectra[:, c0:c1] * roots.block(c0, c1), axis=0)
    wrap = np.arange(len(out)) % len(z)
    # Rows k1 and P - 1 - k1 of the group's column DFT.
    direct, mirror = z[wrap], z[::-1][wrap]
    if shift is not None:  # numpy rounds an in-place broadcast product by width
        direct, mirror = direct * shift[:-1, None], mirror * shift[1:, None].conj()
    out[:, c0:c1] += direct.imag if imag else direct.real
    # Mirror the columns 0 < k2 < R/2 of the rows P - 1 - k1.
    lo, hi = max(c0, 1), min(c1, r_len // 2)
    if lo < hi:
        back = (mirror.imag if imag else mirror.real)[:, ::-1][:, c1 - hi:c1 - lo]
        target = out[:, r_len - hi + 1:r_len - lo + 1]
        if imag:
            target -= back
        else:
            target += back


def _profile_dense(raw: Callable[[np.ndarray], np.ndarray], n: int, t: float,
                   params: ModelParams, a: float) -> Optional[RadialProfile]:
    """Unscaled radial profile for small-t high-frequency multipliers.

    At small t the high band carries structure on two separated scales:
    the band edge at rho ~ 1 (physical radius O(1)) and the bulk at
    rho ~ t^{-1/(2 delta)} (a sharp wavefront).  A single self-similar
    grid cannot represent both, so this path samples the multiplier on
    a uniform unscaled rho grid fine enough for a physical window
    x <= x_max and takes its length-m_fft real DFT.  The rho truncation
    is a smooth taper where the exponential envelope has decayed; the
    sample count is capped, and None is returned when the parameters
    put the problem over budget (the caller falls back to the scaled
    grid).

    The DFT is a four-step FFT that stays in cache: sample j = P i + s
    belongs to row s of a (P, _FFT_ROW) array (one row of m_fft samples
    when m_fft <= _FFT_ROW).  Its G groups of rows s = G s' + g, with
    G = m_fft / _GROUP_SAMPLES or 1, go through one buffer in turn: each
    is sampled in column blocks of about _DENSE_CHUNK samples,
    transformed row by row in place, and added into the kept bins by
    _four_step, which become the values in place.  The blocks of each
    step are shared between the calling thread and a worker thread,
    each taking the next block not yet taken (_on_two_threads).  Every
    block of work, group and twiddle is fixed by the sizes alone, so the
    output is the same for any number of cores or threads and for any
    order in which the blocks run.
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
    n_rows = max(m_fft // _FFT_ROW, 1)
    row_len = m_fft // n_rows
    groups = min(max(m_fft // _GROUP_SAMPLES, 1), n_rows)
    g_rows = n_rows // groups
    width = max(_DENSE_CHUNK // g_rows, 1)
    cols = row_len // 2 + 1

    dy = 2.0 * np.pi / (m_fft * step)
    keep = int(x_max / dy) + 1
    # The Nyquist radius pi/step is at least 2.5 x_max, so every kept bin
    # lies below m_fft/4.
    assert keep <= m_fft // 4
    out = np.zeros((-(-keep // row_len), row_len))
    # Row s' holds row G s' + g of group g and shares its memory with
    # its own half spectrum, so the row FFTs run in place.
    rows_spectra = np.empty((g_rows, cols), dtype=complex)
    rows = rows_spectra.view(float)[:, :row_len]

    def weights(rho: np.ndarray) -> np.ndarray:
        vals = np.asarray(raw(rho), dtype=float)
        if rho.max() > rho_start:  # the taper is exactly 1 up to rho_start
            vals *= np.asarray(cutoff_chi(0.5 + (rho - rho_start) / (0.6 * rho_start)))
        if n == 3:
            vals *= rho
        return vals

    def sample(offsets: np.ndarray, c0: int) -> None:
        block = rows[:, c0:c0 + width]
        j = n_rows * np.arange(c0, c0 + block.shape[1]) + offsets[:, None]
        live = j < m_samples
        if live.all():
            block[...] = weights(step * j)
        else:  # the zero padding past the last sample
            block[...] = 0.0
            block[live] = weights(step * j[live]) if live.any() else 0.0

    for g in range(groups):
        offsets = groups * np.arange(g_rows) + g
        _on_two_threads(lambda c0: sample(offsets, c0), range(0, row_len, width))
        if g == 0:
            rows[0, 0] *= 0.5  # trapezoid endpoint at rho = 0
        # numpy copies an input that overlaps its output, so the rows go
        # eight (2 MB) at a time rather than all at once.
        _on_two_threads(lambda s0: np.fft.rfft(rows[s0:s0 + 8], axis=1,
                                               out=rows_spectra[s0:s0 + 8]),
                        range(0, g_rows, 8))
        twiddles = _Roots(m_fft, offsets, cols)
        shift = _Roots._exp(n_rows, g * np.arange(len(out) + 1)) if g else None
        _on_two_threads(lambda c0: _four_step(rows_spectra, out, twiddles, shift, c0,
                                              min(c0 + width, cols), n == 3),
                        range(0, cols, width))
    del rows_spectra, rows
    # Re X (n = 1) or Im X (n = 3) on the kept bins, scaled in place.
    vals = out.ravel()[:keep]
    if n == 1:
        vals *= step
        vals /= np.pi
    else:
        vals *= -step
        for s, y in _radii(dy, 1, keep):
            vals[1:][s] /= 2.0 * np.pi ** 2 * y
        vals[0] = 0.0 if keep == 1 else vals[1]
    # Algebraic-tail coefficient from the bins k dy > 0.8 x_max, assuming
    # |I| ~ C y^{-2} out there (exact decay of the band-edge contribution
    # after two integrations by parts).
    outer = int(0.8 * x_max / dy) - 1
    while dy * outer <= 0.8 * x_max:
        outer += 1
    tail = np.abs(vals[outer:])
    for s, y in _radii(dy, outer, keep):
        tail[s] *= y ** 2
    tail_coeff = float(np.median(tail, overwrite_input=True)) if len(tail) else 0.0
    return RadialProfile(dy=dy, values=vals, scale=1.0, n=n, tail_coeff=tail_coeff)


def kernel_profile(which: str, a: float, t: float, band: str,
                   params: ModelParams, n: int) -> RadialProfile:
    """Self-similar radial profile of F^{-1}(rho^a Khat_i band) at time t
    on R^n, n = 1, 2 or 3.

    Returns the profile of the *scaled* multiplier g(eta) = G(scale*eta)
    together with the scale; the physical profile is
    scale^n * I(scale * x).  Raises SampleBudgetError when the first
    window of the scaled FFT path is over its budget.
    """
    _check_dimension(n)
    if t <= 0:
        raise ValueError("t must be positive")
    scale = _natural_scale(t, band, params)
    raw = _kernel_multiplier(which, a, t, band, params)

    # Small-t bands containing high frequencies mix the O(1) band-edge
    # scale with the t^{-1/(2 delta)} wavefront scale; the dense
    # unscaled grid handles both at once.
    if band in ("high", "full") and t <= 1.0 and scale > 1.5 and n in (1, 3):
        dense = _profile_dense(raw, n, t, params, a)
        if dense is not None:
            return dense

    g, eta_max, hint = _scaled_window(raw, scale, t, params)
    if eta_max is None:
        return RadialProfile(dy=1.0, values=np.zeros(2), scale=scale, n=n)
    target_y = 3.0 * hint + 60.0
    # The FFT length of the first window, formed as a float, is held to the
    # budget of the enlarged ones below.
    first = 8.0 * eta_max * (target_y + hint + 1.0) / np.pi
    if n in (1, 3) and not first <= _DENSE_SAMPLE_CAP / 4:
        raise SampleBudgetError(f"needs {first:.3g} transform samples, more than "
                                f"the budget of {_DENSE_SAMPLE_CAP / 4:g}")
    for _ in range(4):
        if n in (1, 3):
            prof = _profile_fft(g, n, eta_max, hint, target_y)
        else:
            prof = _profile_direct(g, n, eta_max, hint, target_y)
        # Tail check on the L^1 integrand: the last 15% of the radius
        # range must be negligible, else enlarge the window (within a
        # fixed sample budget).
        y = prof.y
        integrand = np.abs(prof.values) * y ** (n - 1)
        total = np.trapezoid(integrand, y)
        cut = y > 0.85 * target_y
        tail = np.trapezoid(integrand[cut], y[cut])
        if total == 0.0 or tail < 1e-4 * total:
            break
        next_samples = 8.0 * eta_max * (2.0 * target_y + hint + 1.0) / np.pi
        if next_samples > _DENSE_SAMPLE_CAP / 4:
            break
        target_y *= 2.0
    return RadialProfile(dy=prof.dy, values=prof.values, scale=scale, n=n)


def _trapezoid(f: np.ndarray, dy: float) -> float:
    """np.trapezoid(f, x = dy * np.arange(len(f))) bit for bit, with its
    terms (x[i+1] - x[i]) (f[i] + f[i+1]) / 2 formed in f in ascending
    blocks (each reads the next block's first entry before it is
    overwritten) instead of x and four temporaries of f's length."""
    for (s, right), (_, left) in zip(_radii(dy, 1, len(f)), _radii(dy, 0, len(f) - 1)):
        terms = f[:-1][s]
        terms += f[1:][s]
        terms *= right - left
        terms /= 2.0
    return float(f[:-1].sum())


#: Gauss-Legendre panels of the Parseval integral taken in one block.
_PARSEVAL_BLOCK = 4096


def _parseval_norm(raw: Callable[[np.ndarray], np.ndarray], scale: float,
                   t: float, params: ModelParams, n: int) -> float:
    """L^2(R^n) norm of F^{-1} raw by Parseval: the integral of raw^2
    rho^{n-1} over 16-point Gauss-Legendre panels.  They break at 1/2, 1
    (the cutoff's transition band) and the coalescence radius, are spaced
    eight an octave from 1e-9 min(scale, 1) up to where raw(scale eta)
    has decayed (_find_truncation), and are split so that t (d + omega)
    gains at most pi across each: the kernels' damping d = mu rho^{2 delta}
    / 2 and frequency omega = (rho^{2 sigma} - d^2)^{1/2}, 0 below rho_*.
    """
    eta_max, peak = _find_truncation(lambda eta: raw(scale * eta))
    if peak == 0.0:
        return 0.0
    low, top = 1e-9 * min(scale, 1.0), scale * eta_max
    breaks = [b for b in (0.5, 1.0, coalescence_radius(params)) if low < b < top]
    octaves = np.geomspace(low, top, int(np.ceil(8 * np.log2(top / low))) + 1)
    edges = np.concatenate(([0.0], np.union1d(octaves, breaks)))
    damping = params.mu_f / 2.0 * edges ** (2.0 * params.delta_f)
    omega = np.sqrt(np.maximum(edges ** (2.0 * params.sigma_f) - damping ** 2, 0.0))
    pieces = np.maximum(np.ceil(t * np.diff(damping + omega) / np.pi), 1).astype(int)
    edges = np.concatenate([np.linspace(lo, hi, m, endpoint=False) for lo, hi, m
                            in zip(edges[:-1], edges[1:], pieces)] + [edges[-1:]])
    mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    integral = 0.0
    for s in range(0, len(mid), _PARSEVAL_BLOCK):
        h = half[s:s + _PARSEVAL_BLOCK]
        rho = mid[s:s + _PARSEVAL_BLOCK, None] + h[:, None] * nodes
        integral += float(raw(rho) ** 2 * rho ** (n - 1) @ weights @ h)
    return float(np.sqrt((2.0 * np.pi) ** (-n) * _SPHERE_AREA[n] * integral))


def kernel_lr_norm(which: str, a: float, t: float, r: float,
                   params: ModelParams, n: int,
                   band: str = "full") -> float:
    """L^r(R^n) norm of F^{-1}(|xi|^a Khat_i(t, .) band(|xi|)), n = 1, 2
    or 3.

    r = 2 uses Parseval on the multiplier directly (_parseval_norm);
    r = inf is the max of the radial profile; other r integrate the
    profile, where the self-similar dilation contributes the factor
    scale^{n(1-1/r)}.  Raises ValueError unless t > 0, r >= 1, the scale
    and mu^2 are floats, and SampleBudgetError when the transform is over
    its budget.
    """
    _check_dimension(n)
    if r < 1:
        raise ValueError("r must be in [1, inf]")
    if not t > 0:
        raise ValueError("t must be positive")
    try:
        scale = _natural_scale(t, band, params)
    except OverflowError:
        raise ValueError(f"t = {t:g} is too small: its scale overflows a float") from None
    if not np.isfinite(params.mu_f * params.mu_f):
        raise ValueError(f"mu = {params.mu_f:g} is too large: mu^2 overflows a float")
    if r == 2.0:
        return _parseval_norm(_kernel_multiplier(which, a, t, band, params), scale,
                              t, params, n)
    prof = kernel_profile(which, a, t, band, params, n)
    scale = prof.scale
    vals = prof.values
    if np.isinf(r):
        return float(max(vals.max(), -vals.min()) * scale ** n)
    # The integrand |I|^r y^{n-1}, formed in the profile's own values.
    integrand = np.abs(vals, out=vals)
    if r != 1.0:
        integrand **= r
    if n != 1:
        for s, y in _radii(prof.dy, 0, len(vals)):
            integrand[s] *= y ** (n - 1)
    integral = _SPHERE_AREA[n] * _trapezoid(integrand, prof.dy)
    if prof.tail_coeff > 0.0 and len(vals) and 2.0 * r > n:
        # Remainder of the |I| ~ C y^{-2} tail beyond the window:
        # S_{n-1} C^r  int_Y^inf y^{n-1-2r} dy.
        y_edge = prof.dy * (len(vals) - 1)
        integral += (_SPHERE_AREA[n] * prof.tail_coeff ** r
                     * y_edge ** (n - 2.0 * r) / (2.0 * r - n))
    return float(integral ** (1.0 / r) * scale ** (n * (1.0 - 1.0 / r)))


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
