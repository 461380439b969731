"""Exact Fourier-multiplier kernels and the smooth frequency cutoff.

For each frequency magnitude rho = |xi| the equation reduces to the ODE

    v_tt + mu rho^{2 delta} v_t + rho^{2 sigma} v = 0,
    v(0) = v0,  v_t(0) = v1,

whose solution is v(t) = K0hat(t, rho) v0 + K1hat(t, rho) v1 with

    K0hat = (lam1 e^{lam2 t} - lam2 e^{lam1 t}) / (lam1 - lam2),
    K1hat = (e^{lam1 t} - e^{lam2 t}) / (lam1 - lam2),

where lam_{1,2} are the roots of lam^2 + mu rho^{2 delta} lam + rho^{2 sigma} = 0.
The roots are real and distinct at low frequency, complex conjugate at
high frequency, and coalesce at rho_* = (mu^2/4)^{1/(2 sigma - 4 delta)}.

The formulas above suffer catastrophic cancellation near coalescence, so
kernel_values evaluates the algebraically equivalent stable forms in real
arithmetic, split by the sign of the discriminant disc = a^2 - 4 b with
a = mu rho^{2 delta} and b = rho^{2 sigma}:

  oscillatory band (disc < 0), w = sqrt(-disc)/2:
    K1hat = e^{-a t/2} sin(w t)/w,
    K0hat = e^{-a t/2} (cos(w t) + (a/2) sin(w t)/w),
  where sin(w t)/w needs no series at coalescence: w > 0 on the band and
  sin(x) is accurate to relative rounding for small x, so the quotient
  tends to t as w -> 0;

  real band (disc >= 0), lam1 = -2 b/(a + sqrt(disc)) (Vieta),
  lam2 = -(a + sqrt(disc))/2, z = sqrt(disc) t:
    K1hat = t e^{lam1 t} (1 - e^{-z})/z,
    K0hat = e^{lam2 t} - lam2 K1hat,
  with (1 - e^{-z})/z = -expm1(-z)/z, which tends to 1 at z = 0.

At disc = 0 the real-band forms reduce exactly to the confluent limits
K1hat = t e^{lam t} and K0hat = (1 - lam t) e^{lam t}, lam = -a/2.  No
form overflows: every exponent is <= 0 and (1 - e^{-z})/z <= 1.

Everything is vectorised over rho.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .params import ModelParams

__all__ = ["kernel_values", "kernel_dt_values", "coalescence_radius", "cutoff_chi"]


def coalescence_radius(params: ModelParams) -> float:
    """Radius rho_* where the discriminant mu^2 rho^{4 delta} - 4 rho^{2 sigma} vanishes."""
    expo = 2.0 * params.sigma_f - 4.0 * params.delta_f
    return (params.mu_f ** 2 / 4.0) ** (1.0 / expo)


def _coefficients(rho: np.ndarray, params: ModelParams):
    """(a, b, disc): damping a = mu rho^{2 delta}, stiffness b = rho^{2 sigma},
    discriminant disc = a^2 - 4 b of lam^2 + a lam + b = 0."""
    a = params.mu_f * rho ** (2.0 * params.delta_f)
    b = rho ** (2.0 * params.sigma_f)
    return a, b, a * a - 4.0 * b


def _oscillatory_band(t: float, a: np.ndarray, disc: np.ndarray):
    """(K0hat, K1hat) where disc < 0: the damped cos/sin form."""
    w = 0.5 * np.sqrt(-disc)
    theta = w * t
    env = np.exp(-0.5 * t * a)
    s = np.sin(theta) / w
    k1 = env * s
    k0 = env * (np.cos(theta) + 0.5 * a * s)
    return k0, k1


def _real_band(t: float, a: np.ndarray, b: np.ndarray, disc: np.ndarray):
    """(K0hat, K1hat) where disc >= 0: real roots, lam1 by Vieta."""
    sq = np.sqrt(disc)
    apsq = a + sq
    lam2 = -0.5 * apsq
    # rho = 0 has a = b = 0; both roots vanish.
    lam1 = np.divide(-2.0 * b, apsq, out=np.zeros_like(apsq), where=apsq > 0.0)
    z = sq * t
    phi = np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0.0)
    k1 = t * np.exp(lam1 * t) * phi
    k0 = np.exp(lam2 * t) - lam2 * k1
    return k0, k1


def kernel_values(t: float, rho: Union[np.ndarray, float], params: ModelParams):
    """Vectorised (K0hat, K1hat) over an array of frequency magnitudes.

    Real float64 arithmetic throughout: the oscillatory band (disc < 0)
    uses the damped cos/sin form, the real band (disc >= 0) the Vieta
    root and the expm1 form; see the module docstring.  Returns two real
    float arrays of the shape of `rho`.  Raises ValueError unless t is
    finite and >= 0.
    """
    rho = np.asarray(rho, dtype=float)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and >= 0")
    a, b, disc = _coefficients(rho, params)
    osc = disc < 0.0
    if osc.all():
        return _oscillatory_band(t, a, disc)
    if not osc.any():
        return _real_band(t, a, b, disc)
    k0 = np.empty_like(rho)
    k1 = np.empty_like(rho)
    k0[osc], k1[osc] = _oscillatory_band(t, a[osc], disc[osc])
    real = ~osc
    k0[real], k1[real] = _real_band(t, a[real], b[real], disc[real])
    return k0, k1


def kernel_dt_values(t: float, rho: Union[np.ndarray, float], params: ModelParams):
    """Vectorised time derivatives via the identities

    dt K0hat = -rho^{2 sigma} K1hat,
    dt K1hat = K0hat - mu rho^{2 delta} K1hat.
    """
    rho = np.asarray(rho, dtype=float)
    k0, k1 = kernel_values(t, rho, params)
    dk0 = -(rho ** (2.0 * params.sigma_f)) * k1
    dk1 = k0 - params.mu_f * rho ** (2.0 * params.delta_f) * k1
    return dk0, dk1


def cutoff_chi(rho: Union[np.ndarray, float]) -> Union[np.ndarray, float]:
    """Smooth radial cutoff: 1 for rho <= 1/2, 0 for rho >= 1.

    Built from the standard exp(-1/x) partition of unity, so it is
    C-infinity with a strictly monotone transition on (1/2, 1).  The
    plateaus are written as the exact values 1 and 0, and the
    exponentials are taken only on the open interval (1/2, 1), where
    x = 2 (1 - rho) is exact and lies strictly inside (0, 1).  NaN maps
    to NaN.  A scalar gives a float, a 0-d array a numpy float64.
    """
    rho_arr = np.asarray(rho, dtype=float)
    inner = rho_arr <= 0.5
    outer = rho_arr >= 1.0
    chi = np.array(inner, dtype=float)
    band = ~(inner | outer)            # the transition band, and NaN
    if band.any():
        x = 2.0 * (1.0 - rho_arr[band])   # 1 at rho = 1/2, 0 at rho = 1
        num = np.exp(-1.0 / x)
        chi[band] = num / (num + np.exp(-1.0 / (1.0 - x)))
    if np.isscalar(rho):
        return float(chi)
    if chi.ndim == 0:
        return chi[()]
    return chi
