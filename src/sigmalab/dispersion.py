"""Characteristic roots and exact Fourier-multiplier kernels.

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

Everything is vectorised over rho; the scalar API wraps the array core.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from enum import Enum
from typing import Union

import numpy as np

from .params import ModelParams

__all__ = [
    "RootRegime", "RootPair", "KernelPair", "BoundReport",
    "characteristic_roots", "kernel_hat", "kernel_hat_dt",
    "kernel_values", "kernel_dt_values",
    "large_freq_factor", "coalescence_radius",
    "pointwise_bound_check", "cutoff_chi",
]

#: Relative root-gap below which the confluent (equal-root) formulas are used.
COALESCENCE_TOL = 1e-6


class RootRegime(str, Enum):
    real_distinct = "real_distinct"
    coalescent = "coalescent"
    complex_conjugate = "complex_conjugate"


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots; lambda1 is the root with larger real part."""

    lambda1: complex
    lambda2: complex
    regime: RootRegime


@dataclass(frozen=True)
class KernelPair:
    """Values (K0hat, K1hat) of the two fundamental multipliers at one (t, rho)."""

    k0: complex
    k1: complex


@dataclass(frozen=True)
class BoundReport:
    """Measured kernel magnitudes against the regime-appropriate envelope."""

    t: float
    rho: float
    regime: str
    ratio_k0: float
    ratio_k1: float
    envelope: str

    def as_row(self) -> dict:
        return asdict(self)


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


def _roots_arrays(rho: np.ndarray, params: ModelParams):
    """Vectorised roots: returns (lam1, lam2, disc) with lam arrays complex.

    lam2 = (-a - sqrt(disc))/2 is always well conditioned.  For real
    distinct roots lam1 is computed through Vieta, lam1 = -2b/(a + sqrt),
    to avoid the a - sqrt cancellation when b << a^2.
    """
    a, b, disc = _coefficients(rho, params)
    sq = np.sqrt(disc.astype(complex))
    lam2 = (-a - sq) / 2.0
    denom = a + sq
    # rho = 0 has a = b = 0; both roots vanish.
    safe = np.where(np.abs(denom) > 0.0, denom, 1.0)
    lam1_real_branch = -2.0 * b / safe
    lam1_generic = (-a + sq) / 2.0
    lam1 = np.where(disc > 0.0, lam1_real_branch, lam1_generic)
    lam1 = np.where(np.abs(denom) > 0.0, lam1, 0.0 + 0.0j)
    return lam1, lam2, disc


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
    float arrays of the shape of `rho`.
    """
    rho = np.asarray(rho, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
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


def characteristic_roots(rho: float, params: ModelParams) -> RootPair:
    """Roots of lam^2 + mu rho^{2 delta} lam + rho^{2 sigma} = 0 with regime tag."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    arr = np.asarray([rho], dtype=float)
    lam1, lam2, disc = _roots_arrays(arr, params)
    l1, l2 = complex(lam1[0]), complex(lam2[0])
    gap = abs(l1 - l2)
    if gap < COALESCENCE_TOL * max(abs(l1), 1.0):
        regime = RootRegime.coalescent
    elif disc[0] < 0.0:
        regime = RootRegime.complex_conjugate
    else:
        regime = RootRegime.real_distinct
    return RootPair(lambda1=l1, lambda2=l2, regime=regime)


def kernel_hat(t: float, rho: float, params: ModelParams) -> KernelPair:
    """Scalar kernel values K0hat(t, rho), K1hat(t, rho)."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    k0, k1 = kernel_values(t, np.asarray([rho]), params)
    return KernelPair(k0=complex(k0[0]), k1=complex(k1[0]))


def kernel_hat_dt(t: float, rho: float, params: ModelParams) -> KernelPair:
    """Scalar time derivatives (dt K0hat, dt K1hat)."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    dk0, dk1 = kernel_dt_values(t, np.asarray([rho]), params)
    return KernelPair(k0=complex(dk0[0]), k1=complex(dk1[0]))


def large_freq_factor(rho: float, params: ModelParams) -> float:
    """Oscillation factor f(rho) = sqrt(1 - mu^2/(4 rho^{2 sigma - 4 delta})).

    Defined only above the coalescence radius rho_*; with it the
    high-frequency kernels take the closed trigonometric form

      K0hat = e^{-mu rho^{2 delta} t / 2} [cos(rho^sigma f t)
               + mu rho^{2 delta} sin(rho^sigma f t) / (2 rho^sigma f)],
      K1hat = e^{-mu rho^{2 delta} t / 2} sin(rho^sigma f t) / (rho^sigma f).
    """
    expo = 2.0 * params.sigma_f - 4.0 * params.delta_f
    val = 1.0 - params.mu_f ** 2 / (4.0 * rho ** expo)
    if val <= 0.0:
        raise ValueError(
            f"rho = {rho} at or below the coalescence radius "
            f"{coalescence_radius(params):.6g}: oscillatory factor undefined")
    return float(np.sqrt(val))


def kernel_hat_oscillatory(t: float, rho: float, params: ModelParams) -> KernelPair:
    """High-frequency closed trigonometric form of the kernels.

    Valid for rho above the coalescence radius.  kernel_values evaluates
    the same cos/sin form on its oscillatory band, so agreement with
    kernel_hat is a consistency check only; the independent check of the
    kernels is the 50-digit mpmath oracle in tests/test_dispersion.py.
    """
    mu, sigma, delta = params.mu_f, params.sigma_f, params.delta_f
    f = large_freq_factor(rho, params)
    omega = rho ** sigma * f
    env = np.exp(-0.5 * mu * rho ** (2.0 * delta) * t)
    theta = omega * t
    k0 = env * (np.cos(theta)
                + mu * rho ** (2.0 * delta) * np.sin(theta) / (2.0 * omega))
    k1 = env * np.sin(theta) / omega
    return KernelPair(k0=complex(k0), k1=complex(k1))


def pointwise_bound_check(t: float, rho: float, params: ModelParams) -> BoundReport:
    """Measure |K0hat|, |K1hat| against the regime-appropriate envelope.

    Low frequency (at or below the coalescence radius):
        |K0hat| vs e^{-rho^{2(sigma-delta)} t / mu},
        |K1hat| vs t e^{-rho^{2(sigma-delta)} t / mu}.
    High frequency:
        both vs e^{-c rho^{2 delta} t} with c = 0.99 mu / 2.

    The asymptotic statements behind these envelopes carry no explicit
    constants; callers calibrate the constant C by scanning a reference
    lattice and freeze it with headroom.  A zero envelope with a zero
    kernel value reports ratio 0.
    """
    pair = kernel_hat(t, rho, params)
    roots = characteristic_roots(rho, params)
    mu, sigma, delta = params.mu_f, params.sigma_f, params.delta_f
    rho_star = coalescence_radius(params)
    if rho <= rho_star:
        env = float(np.exp(-rho ** (2.0 * (sigma - delta)) * t / mu))
        env0, env1 = env, t * env
        label = "low: exp(-rho^(2(sigma-delta)) t / mu), K1 with prefactor t"
    else:
        env = float(np.exp(-0.99 * 0.5 * mu * rho ** (2.0 * delta) * t))
        env0, env1 = env, env
        label = "high: exp(-0.99 (mu/2) rho^(2 delta) t)"

    def ratio(value: complex, envelope: float) -> float:
        mag = abs(value)
        if envelope == 0.0:
            return 0.0 if mag == 0.0 else float("inf")
        return mag / envelope

    return BoundReport(
        t=t, rho=rho, regime=roots.regime.value,
        ratio_k0=ratio(pair.k0, env0),
        ratio_k1=ratio(pair.k1, env1),
        envelope=label,
    )


def cutoff_chi(rho: Union[np.ndarray, float]) -> Union[np.ndarray, float]:
    """Smooth radial cutoff: 1 for rho <= 1/2, 0 for rho >= 1.

    Built from the standard exp(-1/x) partition of unity, so it is
    C-infinity with a strictly monotone transition on (1/2, 1).
    """
    rho_arr = np.asarray(rho, dtype=float)
    x = 2.0 * (1.0 - rho_arr)          # 1 at rho = 1/2, 0 at rho = 1
    x = np.clip(x, 0.0, 1.0)

    def bump(y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y)
        pos = y > 0.0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    num = bump(x)
    den = num + bump(1.0 - x)
    chi = num / den
    if np.isscalar(rho):
        return float(chi)
    return chi
