"""Radial transforms, kernel norms and decay-rate prediction/fitting."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from sigmalab.kernels import (SampleBudgetError, bessel_tilde, fit_power_law,
                              kernel_lr_norm, kernel_profile, theoretical_exponent)
from sigmalab import kernels
from sigmalab.dispersion import cutoff_chi
from sigmalab.kernels import _SPHERE_AREA, RadialProfile
from sigmalab.params import ModelParams

from oracles import QuadConfig, QuadratureError, radial_inverse_fourier

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

    @pytest.mark.parametrize("which,band,n,t,norm", [
        ("K1", "full", 1, 1.0, 0.46988265912203164),
        ("K1", "full", 1, 5.0, 0.7526509031780892),
        ("K1", "full", 1, 20.0, 1.0087694483092913),
        ("K0", "high", 1, 0.05, 11.310221261005081),
        ("K0", "high", 1, 0.3, 1.9036496738421376),
        ("K0", "full", 2, 10.0, 0.04374278458124377)])
    def test_parseval_norm_matches_adaptive_quadrature(self, which, band, n,
                                                       t, norm):
        # Reference: scipy.integrate.quad (epsrel 1e-13) of the Parseval
        # integral of the same multiplier on intervals broken at 1/4 (the
        # coalescence radius), 1/2, 1 and every 10 pi of the phase t omega.
        # A trapezoid on a uniform grid was off by -0.35% to +3.9% here.
        params = ModelParams.make(sigma=1, delta="1/4", mu=1, n=n)
        assert kernel_lr_norm(which, 0.0, t, 2.0, params, n, band=band) == (
            pytest.approx(norm, rel=1e-7, abs=0.0))

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

    @pytest.mark.parametrize("t", [132.5, 132.77708, 133.0])
    def test_single_alive_probe_follows_the_power_law(self, t):
        # At these t one oscillation probe alone is alive, and the
        # frequency hint once raised IndexError from np.gradient.
        norms = {s: kernel_lr_norm("K0", 1.0, s, 1.0, P_SMALL, 1, band="full")
                 for s in (120.0, 150.0, t)}
        slope = math.log(norms[150.0] / norms[120.0]) / math.log(150.0 / 120.0)
        law = norms[120.0] * (t / 120.0) ** slope
        assert norms[t] == pytest.approx(law, rel=1e-3)

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            kernel_lr_norm("K0", 0.0, 1.0, 0.5, P_SMALL, 1)

    @pytest.mark.parametrize("n,r,t,band", [
        (1, 1.0, 0.05, "high"), (3, 1.0, 0.1, "high"), (1, 3.0, 0.3, "full"),
        (3, 1.5, 2.0, "low"), (1, math.inf, 0.05, "high"), (3, math.inf, 2.0, "low")])
    def test_norm_integration_is_the_numpy_formula(self, n, r, t, band):
        # The in-place integrand and _trapezoid give the value of the
        # plain formula bit for bit, on the dense and the scaled paths.
        prof = kernel_profile("K0", 0.0, t, band, P_SMALL, n)
        plain = numpy_norm(prof.values, prof.y, prof.tail_coeff, prof.scale, n, r)
        assert kernel_lr_norm("K0", 0.0, t, r, P_SMALL, n, band=band) == plain

    @pytest.mark.parametrize("path,which,n,r,t,band", [
        ("_profile_fft", "K0", 1, 1.0, 0.3, "low"),
        ("_profile_fft", "K1", 1, 3.0, 2.0, "high"),
        ("_profile_fft", "K0", 3, 1.5, 2.0, "low"),
        ("_profile_direct", "K0", 2, 1.0, 3.0, "low"),
        ("_profile_direct", "K1", 2, 1.5, 1.0, "low")])
    def test_scaled_paths_stay_at_the_old_abscissae(self, monkeypatch, path, which,
                                                    n, r, t, band):
        """The FFT and shared-panel profiles are integrated on y = k dy,
        where they were integrated on 2 pi k / (m_fft step) (up to 2 ulps
        away) and on linspace(0, y_max, 800) (which may differ at its
        endpoint).  Their values are unchanged; over 48 FFT-path cases
        the norms moved by at most 4.6e-16 relative, and over 18 n = 2
        cases not at all."""
        calls = []
        original = getattr(kernels, path)

        def recording(g, n, eta_max, hint, y_max):
            prof = original(g, n, eta_max, hint, y_max)
            calls.append((eta_max, hint, y_max, prof.values.copy()))
            return prof

        monkeypatch.setattr(kernels, path, recording)
        norm = kernel_lr_norm(which, 0.0, t, r, P_SMALL, n, band=band)
        eta_max, hint, y_max, values = calls[-1]
        if path == "_profile_fft":
            step = np.pi / (2.0 * (y_max + hint + 1.0))
            m_fft = 1 << int(np.ceil(np.log2(4 * int(np.ceil(eta_max / step)))))
            y_old = 2.0 * np.pi * np.arange(len(values)) / (m_fft * step)
        else:
            y_old = np.linspace(0.0, y_max, 800)
        scale = kernels._natural_scale(t, band, P_SMALL)
        old = numpy_norm(values, y_old, 0.0, scale, n, r)
        assert abs(norm - old) <= 1e-15 * old

    def test_dense_norm_peak_memory(self):
        # At t = 0.05 the dense transform holds one group of rows (16 MB)
        # and the kept bins (26 MB), takes the tail median in one 5 MB
        # buffer, builds y block by block and integrates in the profile's
        # values: about 49.2 MiB, against 65.1 MiB with 32 MB groups and
        # the profile's y held (26 MB).
        tracemalloc.start()
        try:
            kernel_lr_norm("K0", 0.0, 0.05, 1.0, P_SMALL, 1, band="high")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 52 * 2 ** 20

    @pytest.mark.parametrize("t", [0.0, -1.0])
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("band", ["low", "high", "full"])
    def test_nonpositive_time_rejected(self, band, r, t):
        # Once a ZeroDivisionError from the natural scale (high, full),
        # or a norm of 0.4730 at t = 0 (low band, r = 2).
        with pytest.raises(ValueError, match="t must be positive"):
            kernel_lr_norm("K0", 0.0, t, r, P_SMALL, 1, band=band)

    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_out_of_range_t_and_mu_rejected(self, monkeypatch, r):
        # Once an OverflowError from the natural scale or from mu ** 2.
        monkeypatch.setattr(kernels, "kernel_values", None)  # no work is done
        with pytest.raises(ValueError, match=r"t = 1e-300 is too small"):
            kernel_lr_norm("K0", 0.0, 1e-300, r, P_SMALL, 1, band="high")
        big_mu = ModelParams.make(sigma=1, delta="1/4", mu="1e300", n=1, q=2, m=1)
        with pytest.raises(ValueError, match=r"mu = 1e\+300 is too large"):
            kernel_lr_norm("K0", 0.0, 0.5, r, big_mu, 1, band="low")

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("sigma", [2, 3, 7])
    def test_first_window_over_budget_raises_before_any_array(self, n, sigma):
        # At delta = 1/4 the dense path gives up at its cap, and the scaled
        # path's first window once asked for 7.35 TiB (sigma = 2), an
        # array numpy calls too big (3) or a count np.log2 rejects (7).
        params = ModelParams.make(sigma=sigma, delta="1/4", mu=1, n=n, q=2, m=1)
        tracemalloc.start()
        try:
            with pytest.raises(SampleBudgetError, match="more than the budget"):
                kernel_lr_norm("K0", 0.0, 0.05, 1.0, params, n, band="high")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24, peak

    @pytest.mark.parametrize("n", [0, 4, 5])
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_unsupported_dimension_rejected_before_any_work(self, monkeypatch, n, r):
        def no_work(*args):
            raise AssertionError("the multiplier was sampled")

        monkeypatch.setattr(kernels, "kernel_values", no_work)
        with pytest.raises(ValueError, match=f"not n = {n}"):
            kernel_lr_norm("K0", 0.0, 2.0, r, P_SMALL, n, band="low")
        with pytest.raises(ValueError, match=f"not n = {n}"):
            kernel_profile("K0", 0.0, 2.0, "low", P_SMALL, n)


def numpy_norm(values, y, tail_coeff, scale, n, r):
    """The L^r norm of a profile by the plain numpy formula."""
    if math.isinf(r):
        return float(np.max(np.abs(values)) * scale ** n)
    integrand = np.abs(values) ** r * y ** (n - 1)
    integral = _SPHERE_AREA[n] * np.trapezoid(integrand, y)
    if tail_coeff > 0.0 and 2.0 * r > n:
        integral += (_SPHERE_AREA[n] * tail_coeff ** r
                     * y[-1] ** (n - 2.0 * r) / (2.0 * r - n))
    return float(integral ** (1.0 / r) * scale ** (n * (1.0 - 1.0 / r)))


def reference_profile_dense(raw, n, t, params, a):
    """The dense path as one power-of-two real FFT of all the samples.

    This is `kernels._profile_dense` without its four-step FFT; the
    sample positions, the taper, `m_fft`, the kept window and the tail
    fit are the same.  Returns the profile and m_fft.
    """
    mu, delta, sigma = params.mu_f, params.delta_f, params.sigma_f
    z_start = 12.0 + 2.0 * a
    rho_start = max((2.0 * z_start / (mu * t)) ** (1.0 / (2.0 * delta)), 8.0)
    rho_cap = 1.3 * rho_start
    f_cap = np.sqrt(max(1.0 - mu ** 2 / (4.0 * rho_cap ** (2 * sigma - 4 * delta)), 0.5))
    hint = t * sigma * rho_cap ** (sigma - 1.0) * f_cap
    x_max = max(40.0, 3.0 * hint + 10.0)
    margin = 0.25 * x_max
    step = np.pi / (2.0 * (x_max + margin + hint + 1.0))
    m_samples = int(np.ceil(rho_cap / step))
    m_fft = 1 << int(np.ceil(np.log2(m_samples + 1)))
    buf = np.zeros(m_fft)
    for lo in range(0, m_samples, kernels._DENSE_CHUNK):
        hi = min(lo + kernels._DENSE_CHUNK, m_samples)
        rho = step * np.arange(lo, hi)
        vals = np.asarray(raw(rho), dtype=float)
        if rho[-1] > rho_start:
            vals *= np.asarray(cutoff_chi(0.5 + (rho - rho_start) / (0.6 * rho_start)))
        if n == 3:
            vals *= rho
        buf[lo:hi] = vals
    buf[0] *= 0.5
    spec = np.fft.rfft(buf)
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
    outer = y > 0.8 * x_max
    tail_coeff = float(np.median(np.abs(vals[outer]) * y[outer] ** 2)) if np.any(outer) else 0.0
    return RadialProfile(dy=dy, values=vals, scale=1.0, n=n, tail_coeff=tail_coeff), m_fft


class TestDenseProfile:
    def test_block_size_does_not_change_the_profile(self, monkeypatch):
        # At t = 0.2 the dense path takes about 6e5 samples: one block of
        # the old 4 M size, or 19 blocks of 2^15, of which the first 14
        # end below the taper start and skip the taper.  The result must
        # not depend on the blocking.
        raw = kernels._kernel_multiplier("K0", 0.0, 0.2, "high", P_SMALL)
        profiles = []
        for chunk in (4_000_000, 1 << 15):
            monkeypatch.setattr(kernels, "_DENSE_CHUNK", chunk)
            profiles.append(kernels._profile_dense(raw, 1, 0.2, P_SMALL, 0.0))
        old, new = profiles
        assert np.array_equal(new.y, old.y)
        assert np.array_equal(new.values, old.values)
        assert new.tail_coeff == old.tail_coeff > 0.0

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("which", ["K0", "K1"])
    @pytest.mark.parametrize("t", [0.1, 0.3])
    @pytest.mark.parametrize("band", ["high", "full"])
    def test_matches_single_fft(self, monkeypatch, n, which, t, band):
        """The four-step transform against one full-length FFT, with rows
        of 2^8 (many rows), 2^15 (the default) and 2^30 points (one row:
        one rfft of all the samples, bit-identical to the reference).

        The samples are bit-identical, so the drift is the rounding of
        the row and column FFTs against that of one FFT: at most 6e-16
        (n = 1) and 3.6e-14 (n = 3) of the peak.  tail_coeff is a median
        over the outer window, where the profile can be tiny: it drifts
        by at most 5.4e-14 absolute, which is up to 6.3e-5 relative for
        the n = 3, K0, t = 0.1 full-band tail of 2.5e-10.  The full band
        checks the halved endpoint sample at rho = 0, which the high
        band weights by zero.
        """
        raw = kernels._kernel_multiplier(which, 0.0, t, band, P_SMALL)
        ref, m_fft = reference_profile_dense(raw, n, t, P_SMALL, 0.0)
        for row in (1 << 8, 1 << 15, 1 << 30):
            monkeypatch.setattr(kernels, "_FFT_ROW", row)
            new = kernels._profile_dense(raw, n, t, P_SMALL, 0.0)
            assert np.array_equal(new.y, ref.y)
            drift = np.max(np.abs(new.values - ref.values)) / np.max(np.abs(ref.values))
            assert drift <= 1e-13
            assert new.tail_coeff == pytest.approx(ref.tail_coeff, rel=2e-12, abs=1e-13)
            if m_fft > row:
                # Every case keeps bins in columns above R/2, which are
                # read from the mirror images of the columns below.
                assert len(new.y) > row // 2
            else:
                assert np.array_equal(new.values, ref.values)
                assert new.tail_coeff == ref.tail_coeff

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("which", ["K0", "K1"])
    @pytest.mark.parametrize("band", ["high", "full"])
    @pytest.mark.parametrize("t,budget,groups", [(0.05, None, 8), (0.1, 1 << 15, 128)])
    def test_row_groups_match_single_fft(self, monkeypatch, n, which, band, t, budget, groups):
        """The transform taken in row groups against one full-length FFT:
        8 groups at t = 0.05 with the default group budget, and 128
        groups of one row at t = 0.1 with the budget cut to one row.

        The drift is the rounding of the grouped row and column FFTs:
        at most 1.4e-15 (n = 1) and 3.6e-14 (n = 3) of the peak in these
        cases.  tail_coeff moves by at most 1.9e-13 absolute here (n = 3,
        K0, high band, t = 0.05), so the bound is 5e-13 absolute; the
        full-band tails are medians at rounding level (2.5e-10 for n = 3,
        K0 at t = 0.1), so no relative bound is asserted.
        """
        if budget is not None:
            monkeypatch.setattr(kernels, "_GROUP_SAMPLES", budget)
        raw = kernels._kernel_multiplier(which, 0.0, t, band, P_SMALL)
        ref, m_fft = reference_profile_dense(raw, n, t, P_SMALL, 0.0)
        assert m_fft // kernels._GROUP_SAMPLES == groups
        new = kernels._profile_dense(raw, n, t, P_SMALL, 0.0)
        assert np.array_equal(new.y, ref.y)
        drift = np.max(np.abs(new.values - ref.values)) / np.max(np.abs(ref.values))
        assert drift <= 1e-13
        assert abs(new.tail_coeff - ref.tail_coeff) <= 5e-13

    def test_same_output_on_one_thread(self, on_one_thread):
        raw = kernels._kernel_multiplier("K0", 0.0, 0.1, "high", P_SMALL)
        threaded = kernels._profile_dense(raw, 3, 0.1, P_SMALL, 0.0)
        inline = on_one_thread(kernels._profile_dense, raw, 3, 0.1, P_SMALL, 0.0)
        assert np.array_equal(inline.y, threaded.y)
        assert np.array_equal(inline.values, threaded.values)
        assert inline.tail_coeff == threaded.tail_coeff

    def test_concurrent_callers_get_the_serial_result(self):
        # More calling threads than cores queue their halves on the one
        # worker; a short switch interval interleaves their block writes.
        raw = kernels._kernel_multiplier("K1", 0.0, 0.3, "high", P_SMALL)
        serial = kernels._profile_dense(raw, 3, 0.3, P_SMALL, 0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                profiles = list(callers.map(
                    lambda _: kernels._profile_dense(raw, 3, 0.3, P_SMALL, 0.0),
                    range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(profiles) == 8
        for prof in profiles:
            assert np.array_equal(prof.values, serial.values)


class TestOnTwoThreads:
    def test_every_item_runs_once(self):
        seen = []
        kernels._on_two_threads(seen.append, range(1000))
        assert sorted(seen) == list(range(1000))

    def test_caller_waits_for_the_worker_item_in_progress(self):
        started, release = threading.Event(), threading.Event()
        finished = []

        def fn(item):
            if item == 0:
                started.set()
                release.wait(10)
            else:
                started.wait(10)  # the other thread holds item 0
                release.set()
            finished.append(item)

        kernels._on_two_threads(fn, [0, 1])
        assert sorted(finished) == [0, 1]

    def test_first_error_stops_both_threads(self):
        taken = []

        def fn(item):
            taken.append(item)
            if item == 3:
                raise ValueError("item 3")
            time.sleep(0.001)

        with pytest.raises(ValueError, match="item 3"):
            kernels._on_two_threads(fn, range(1000))
        # The other thread finishes the item it holds and takes no more.
        assert len(taken) < 10


class TestFourStep:
    @pytest.mark.parametrize("p", [2, 4, 32])
    def test_matches_rfft(self, p):
        """Re and Im of the four-step kept bins against one real FFT of
        the same sequence, for K = 1 .. P/2 rows of R = 64 bins and column
        blocks of one column, of blocks that straddle R/2 (33 columns)
        and of one block, with the rows taken whole, in two groups, in P/4
        groups (K > P/G rows wrap around the column FFT) and in P groups
        of one row."""
        r_len = 64
        cols = r_len // 2 + 1
        x = np.random.default_rng(p).standard_normal(p * r_len)
        rows_spectra = np.fft.rfft(x.reshape(r_len, p).T, axis=1)
        full = np.fft.rfft(x)
        for groups in sorted({1, 2, max(p // 4, 1), p}):
            roots = [kernels._Roots(p * r_len, np.arange(g, p, groups), cols)
                     for g in range(groups)]
            for k in range(1, p // 2 + 1):
                ref = full[:k * r_len]
                shifts = [kernels._Roots._exp(p, g * np.arange(k + 1)) if g else None
                          for g in range(groups)]
                for imag, part in ((False, ref.real), (True, ref.imag)):
                    outs = []
                    for width in (1, 7, 30, 33):
                        out = np.zeros((k, r_len))
                        for g in range(groups):
                            # Blocks add to disjoint bins, so their order does not matter.
                            for c0 in reversed(range(0, cols, width)):
                                kernels._four_step(rows_spectra[g::groups], out, roots[g],
                                                   shifts[g], c0, min(c0 + width, cols), imag)
                        outs.append(out)
                        err = np.abs(out.ravel() - part) / np.max(np.abs(ref))
                        assert np.max(err) <= 1e-14
                    # Each root depends on k alone, not on the block it falls in.
                    for out in outs[1:]:
                        assert np.array_equal(out, outs[0])

    @pytest.mark.parametrize("imag", [False, True])
    def test_one_group_is_the_plain_four_step(self, imag):
        # With one group the kept bins are, bit for bit, the column FFT
        # of all the rows and its mirror images.
        p, r_len, k = 16, 64, 5
        cols = r_len // 2 + 1
        x = np.random.default_rng(7).standard_normal(p * r_len)
        rows_spectra = np.fft.rfft(x.reshape(r_len, p).T, axis=1)
        roots = kernels._Roots(p * r_len, np.arange(p), cols)
        y = np.fft.fft(rows_spectra * roots.block(0, cols), axis=0)
        part = y.imag if imag else y.real
        expected = np.empty((k, r_len))
        expected[:, :cols] = part[:k]
        mirror = part[::-1][:k, r_len // 2 - 1:0:-1]
        expected[:, cols:] = -mirror if imag else mirror
        for width in (7, cols):
            out = np.zeros((k, r_len))
            for c0 in range(0, cols, width):
                kernels._four_step(rows_spectra, out, roots, None, c0,
                                   min(c0 + width, cols), imag)
            assert np.array_equal(out, expected)

    def test_roots(self):
        m, orders, cols = 1 << 12, np.arange(5), 700
        roots = kernels._Roots(m, orders, cols)
        whole = roots.block(0, cols)
        exact = np.exp(-2j * np.pi * np.outer(orders, np.arange(cols)) / m)
        assert np.max(np.abs(whole - exact)) <= 1e-15
        # Blocks inside one tile of 32 roots, across a tile edge, over
        # several tiles and up to the end.
        assert roots.tile == 32
        for lo, hi in [(0, 1), (31, 33), (100, 350), (650, 700)]:
            assert np.array_equal(roots.block(lo, hi), whole[:, lo:hi])


P_N2 = ModelParams.make(sigma=1, delta="1/4", mu=1, n=2)


def direct_inputs(which, t, band):
    """The scaled multiplier and the arguments with which kernel_profile
    first calls _profile_direct for n = 2."""
    scale = kernels._natural_scale(t, band, P_N2)
    raw = kernels._kernel_multiplier(which, 0.0, t, band, P_N2)

    def g(eta):
        return raw(scale * np.asarray(eta, dtype=float))

    eta_max, _ = kernels._find_truncation(g)
    hint = kernels._oscillation_hint(g, scale, t, eta_max, P_N2)
    return g, eta_max, hint, 3.0 * hint + 60.0


def reference_profile_direct(g, n, eta_max, freq_hint, y_max, num_y=800):
    """`kernels._profile_direct` as it was before its radii were
    evaluated in blocks on two threads: one radius at a time."""
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
    limit = 1.0 / (2.0 ** mu * math.gamma(mu + 1.0))
    for i, yv in enumerate(ys):
        if yv == 0.0:
            vals[i] = pref * limit * np.sum(base)
        else:
            vals[i] = pref * np.sum(base * bessel_tilde(mu, pts * yv))
    return RadialProfile(dy=y_max / (num_y - 1), values=vals, scale=1.0, n=n)


class TestDirectProfile:
    @pytest.mark.parametrize("which, t, band", [("K0", 1.0, "low"),
                                                ("K0", 10.0, "low"),
                                                ("K1", 3.0, "low")])
    @pytest.mark.parametrize("chunk", [1, 1 << 15, 1 << 24])
    def test_matches_per_radius_loop(self, monkeypatch, which, t, band, chunk):
        # Blocks of one radius, of about 2^15 Bessel samples (the
        # default) and one block of all radii give the loop's profile.
        g, eta_max, hint, y_max = direct_inputs(which, t, band)
        ref = reference_profile_direct(g, 2, eta_max, hint, y_max)
        monkeypatch.setattr(kernels, "_DENSE_CHUNK", chunk)
        new = kernels._profile_direct(g, 2, eta_max, hint, y_max)
        assert np.array_equal(new.y, ref.y)
        assert np.array_equal(new.values, ref.values)

    def test_same_output_on_one_thread(self, on_one_thread):
        g, eta_max, hint, y_max = direct_inputs("K0", 3.0, "low")
        threaded = kernels._profile_direct(g, 2, eta_max, hint, y_max)
        inline = on_one_thread(kernels._profile_direct, g, 2, eta_max, hint, y_max)
        assert np.array_equal(inline.values, threaded.values)

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_agrees_with_radial_inverse_fourier(self, t):
        # The oracle refines to its default relative tolerance of 1e-8;
        # the two agree to about 7e-15 of the peak.
        g, eta_max, hint, y_max = direct_inputs("K0", t, "low")
        prof = kernels._profile_direct(g, 2, eta_max, hint, y_max)
        peak = np.max(np.abs(prof.values))
        for i in range(0, len(prof.y), 53):
            exact = radial_inverse_fourier(g, 2, float(prof.y[i]))
            assert abs(prof.values[i] - exact) <= 1e-8 * peak


class TestTrapezoid:
    @pytest.mark.parametrize("size", [0, 1, 2, kernels._DENSE_CHUNK - 1,
                                      kernels._DENSE_CHUNK, kernels._DENSE_CHUNK + 1,
                                      kernels._DENSE_CHUNK + 2, 3_000_000])
    def test_bit_identical_to_numpy(self, size):
        rng = np.random.default_rng(size)
        dy = rng.random()
        f = rng.standard_normal(size)
        expected = np.trapezoid(f, dy * np.arange(size))
        assert kernels._trapezoid(f.copy(), dy) == expected


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
