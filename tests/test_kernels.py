"""Hankel quadrature, kernel norms and decay-rate prediction/fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from sigmalab.kernels import (QuadConfig, QuadratureError, bessel_tilde,
                              fit_power_law, kernel_l1_norm, kernel_lr_norm,
                              kernel_profile, radial_inverse_fourier,
                              theoretical_exponent)
from sigmalab import kernels
from sigmalab.kernels import _SPHERE_AREA
from sigmalab.params import ModelParams

P_SMALL = ModelParams.make(sigma=1, delta="1/4", mu=1, n=1, q=2, m=1)

S_GRID = np.geomspace(0.1, 50.0, 40)


class TestBesselTilde:
    def test_half_integer_closed_forms(self):
        for s in S_GRID:
            assert bessel_tilde(-0.5, float(s)) == pytest.approx(
                math.sqrt(2 / math.pi) * math.cos(s), rel=1e-12)
            assert bessel_tilde(0.5, float(s)) == pytest.approx(
                math.sqrt(2 / math.pi) * math.sin(s) / s, rel=1e-12)

    def test_small_s_limit(self):
        # J_mu(s)/s^mu -> 1/(2^mu Gamma(mu+1)) as s -> 0.
        assert bessel_tilde(0.5, 1e-12) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-9)
        assert bessel_tilde(0.0, 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_order_zero_matches_jv(self):
        s = np.concatenate([S_GRID, np.geomspace(1e-12, 1e-4, 33), [0.0]])
        np.testing.assert_allclose(bessel_tilde(0.0, s), jv(0, s), rtol=0, atol=1e-14)
        for v in s:
            assert abs(bessel_tilde(0.0, float(v)) - jv(0, v)) <= 1e-14

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="s must be >= 0"):
            bessel_tilde(0.0, -1.0)

    def test_three_term_recurrence(self):
        # Combining the two derivative identities eliminates the
        # derivative: Jt_{mu-1}(s) - 2 mu Jt_mu(s) + s^2 Jt_{mu+1}(s) = 0.
        for mu in (0.5, 1.0, 2.0):
            lhs = (bessel_tilde(mu - 1, S_GRID)
                   - 2 * mu * bessel_tilde(mu, S_GRID)
                   + S_GRID ** 2 * bessel_tilde(mu + 1, S_GRID))
            assert np.max(np.abs(lhs)) <= 1e-9

    def test_derivative_identity(self):
        # d/ds Jt_mu(s) = -s Jt_{mu+1}(s), derivative by 5-point stencil.
        h = 1e-2
        for mu in (0.0, 0.5, 1.0):
            f = [bessel_tilde(mu, S_GRID + k * h) for k in (-2, -1, 1, 2)]
            deriv = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
            target = -S_GRID * bessel_tilde(mu + 1, S_GRID)
            assert np.max(np.abs(deriv - target)) <= 1e-9

    def test_log_derivative_identity(self):
        # s d/ds Jt_mu(s) = Jt_{mu-1}(s) - 2 mu Jt_mu(s).
        h = 1e-2
        for mu in (0.5, 1.0):
            f = [bessel_tilde(mu, S_GRID + k * h) for k in (-2, -1, 1, 2)]
            deriv = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
            target = bessel_tilde(mu - 1, S_GRID) - 2 * mu * bessel_tilde(mu, S_GRID)
            assert np.max(np.abs(S_GRID * deriv - target)) <= 1e-9

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_tilde(-1.0, 1.0)


class TestRadialInverseFourier:
    def test_gaussian_line(self):
        # multiplier e^{-rho^2} on R: inverse transform e^{-x^2/4}/(2 sqrt(pi)).
        for x in [0.0, 0.7, 2.0]:
            val = radial_inverse_fourier(lambda r: np.exp(-r ** 2), 1, x)
            exact = math.exp(-x * x / 4) / (2 * math.sqrt(math.pi))
            assert val == pytest.approx(exact, rel=1e-8)

    def test_exponential_space(self):
        # multiplier e^{-rho} on R^3: inverse transform 1/(pi^2 (1+x^2)^2).
        for x in [0.5, 1.0, 3.0]:
            val = radial_inverse_fourier(lambda r: np.exp(-r), 3, x)
            exact = 1.0 / (math.pi ** 2 * (1 + x * x) ** 2)
            assert val == pytest.approx(exact, rel=1e-8)

    def test_zero_multiplier(self):
        assert radial_inverse_fourier(lambda r: np.zeros_like(r), 2, 1.0) == 0.0

    def test_panel_budget_exhaustion(self):
        # A slowly decaying oscillatory multiplier with a tiny refinement
        # budget must fail loudly, carrying the partial value.
        cfg = QuadConfig(tol=1e-14, max_panels=64, rho_max=200.0)
        with pytest.raises(QuadratureError) as exc:
            radial_inverse_fourier(lambda r: np.cos(7 * r) / (1 + r), 1,
                                   30.0, quad=cfg)
        assert math.isfinite(exc.value.partial)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            radial_inverse_fourier(lambda r: np.exp(-r), 4, 1.0)


class TestKernelNorms:
    def test_l1_alias(self):
        a = kernel_l1_norm("K0", 0.0, 2.0, "low", P_SMALL, 1)
        b = kernel_lr_norm("K0", 0.0, 2.0, 1.0, P_SMALL, 1, band="low")
        assert a == b

    def test_parseval_matches_radial_profile(self):
        # r = 2 goes through the multiplier directly; recomputing the
        # same norm from the physical-space profile must agree closely.
        prof = kernel_profile("K0", 0.0, 0.3, "low", P_SMALL, 1)
        integrand = prof.values ** 2
        radial = math.sqrt(_SPHERE_AREA[1] * np.trapezoid(integrand, prof.y))
        radial *= prof.scale ** 0.5
        direct = kernel_lr_norm("K0", 0.0, 0.3, 2.0, P_SMALL, 1, band="low")
        assert direct == pytest.approx(radial, rel=1e-6)

    def test_parseval_matches_radial_profile_k1(self):
        prof = kernel_profile("K1", 0.0, 2.0, "low", P_SMALL, 1)
        radial = math.sqrt(_SPHERE_AREA[1] * np.trapezoid(prof.values ** 2,
                                                          prof.y))
        radial *= prof.scale ** 0.5
        direct = kernel_lr_norm("K1", 0.0, 2.0, 2.0, P_SMALL, 1, band="low")
        assert direct == pytest.approx(radial, rel=1e-4)

    def test_band_split_triangle_inequality(self):
        # chi_low + chi_high = 1, so |low| + |high| >= |full|, and the
        # band pieces do not cancel more than a factor 2 of mass.
        for which, a, t in [("K0", 0.0, 5.0), ("K1", 0.0, 2.0),
                            ("K0", 1.0, 20.0)]:
            low = kernel_lr_norm(which, a, t, 1.0, P_SMALL, 1, band="low")
            high = kernel_lr_norm(which, a, t, 1.0, P_SMALL, 1, band="high")
            full = kernel_lr_norm(which, a, t, 1.0, P_SMALL, 1, band="full")
            assert full <= (low + high) * 1.001
            assert low + high <= 2.0 * full

    def test_sup_norm_small_t_rate(self):
        # The high-band L^inf norm saturates t^{-(n+a)/(2 delta)} = t^{-2}.
        ts = np.geomspace(0.05, 0.4, 6)
        vals = [kernel_lr_norm("K0", 0.0, float(t), math.inf, P_SMALL, 1,
                               band="high") for t in ts]
        fit = fit_power_law(list(zip(ts, vals)), (0.04, 0.5))
        assert fit.exponent == pytest.approx(-2.0, rel=0.05)

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            kernel_lr_norm("K0", 0.0, 1.0, 0.5, P_SMALL, 1)


class TestDenseProfile:
    def test_block_size_does_not_change_the_profile(self, monkeypatch):
        # At t = 0.2 the dense path takes about 6e5 samples: one block of
        # the old 4 M size, or 19 blocks of 2^15 of which the first 14 end
        # below the taper start and skip the taper.  The result must not
        # depend on the blocking.
        raw = kernels._kernel_multiplier("K0", 0.0, 0.2, "high", P_SMALL)
        profiles = []
        for chunk in (4_000_000, 1 << 15):
            monkeypatch.setattr(kernels, "_DENSE_CHUNK", chunk)
            profiles.append(kernels._profile_dense(raw, 1, 0.2, P_SMALL, 0.0))
        old, new = profiles
        assert np.array_equal(new.y, old.y)
        assert np.array_equal(new.values, old.values)
        assert new.tail_coeff == old.tail_coeff > 0.0


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        ts = np.geomspace(1.0, 100.0, 12)
        samples = [(float(t), 3.0 * t ** -1.5) for t in ts]
        fit = fit_power_law(samples, (1.0, 100.0))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.residual <= 1e-12
        assert fit.samples == 12

    def test_window_filters_samples(self):
        ts = np.geomspace(0.1, 1000.0, 30)
        samples = [(float(t), t ** 2.0) for t in ts]
        fit = fit_power_law(samples, (1.0, 100.0))
        assert fit.samples < 30
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)

    def test_constant_samples_give_zero_slope(self):
        samples = [(float(t), 4.2) for t in np.geomspace(1, 10, 8)]
        fit = fit_power_law(samples, (1.0, 10.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_fit_reports_residual(self):
        rng = np.random.default_rng(7)
        ts = np.geomspace(1.0, 50.0, 15)
        samples = [(float(t), t ** -1.0 * math.exp(0.01 * rng.standard_normal()))
                   for t in ts]
        fit = fit_power_law(samples, (1.0, 50.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)
        assert 0.0 < fit.residual < 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 0.5)], (0.5, 3.0))

    def test_nonpositive_values_rejected(self):
        samples = [(float(t), -1.0) for t in range(1, 8)]
        with pytest.raises(ValueError):
            fit_power_law(samples, (1.0, 7.0))


class TestTheoreticalExponent:
    def test_k1_l1_large_t_grows_linearly(self):
        assert theoretical_exponent("K1", 0, "large_t", 1, P_SMALL) == 1

    def test_solution_rate_reference_case(self):
        params = ModelParams.make(sigma=2, delta="1/2", mu=1, n=2)
        val = theoretical_exponent("u_from_u0", 1, "large_t", 2, params)
        assert val == Fraction(-2, 3)

    def test_k0_small_t_reference(self):
        # (2 + floor(n/2)) (sigma/(2 delta) - 1) = 2 for the 1d reference set.
        assert theoretical_exponent("K0", 0, "small_t", 1, P_SMALL) == -2

    def test_interpolation_monotone_in_inv_r(self):
        rs = [Fraction(1), Fraction(2), Fraction(4), Fraction(100)]
        vals = [theoretical_exponent("K0", 0, "large_t", r, P_SMALL)
                for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            theoretical_exponent("K2", 0, "small_t", 1, P_SMALL)
        with pytest.raises(ValueError):
            theoretical_exponent("K0", 0, "medium_t", 1, P_SMALL)
