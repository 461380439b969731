"""Independent references that the tests check the package against.

- radial_inverse_fourier: an adaptive Gauss-Legendre panel quadrature
  of the radial inverse Fourier integral at one radius, the oracle for
  the kernel profiles;
- kernel_hat_oscillatory: the closed trigonometric form of the kernels
  above the coalescence radius, the reference for their high-frequency
  evaluation.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sigmalab.dispersion import coalescence_radius
from sigmalab.kernels import _find_truncation, bessel_tilde


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
