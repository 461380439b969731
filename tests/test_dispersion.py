"""Characteristic roots, multiplier kernels and pointwise envelopes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab.dispersion import (coalescence_radius, cutoff_chi, kernel_dt_values,
                                 kernel_values)
from sigmalab.params import ModelParams

from oracles import kernel_hat_oscillatory, large_freq_factor

P_SMALL = ModelParams.make(sigma=1, delta="1/4", mu=1)
P_SET1 = ModelParams.make(sigma=2, delta="9/10", mu=1)


def _phi(z):
    """Stable phi(z) = (e^z - 1)/z, phi(0) = 1, for complex arrays."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 0.0, z)
    with np.errstate(over="ignore", invalid="ignore"):
        generic = np.where(small, 1.0, (np.exp(zs) - 1.0) / np.where(small, 1.0, zs))
    series = 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0 + z**4 / 120.0
    return np.where(small, series, generic)


def _roots_arrays(rho, params):
    """Vectorised roots of lam^2 + a lam + b = 0, a = mu rho^{2 delta},
    b = rho^{2 sigma}: returns (lam1, lam2, disc) with lam arrays complex.

    lam2 = (-a - sqrt(disc))/2 is always well conditioned.  For real
    distinct roots lam1 is computed through Vieta, lam1 = -2b/(a + sqrt),
    to avoid the a - sqrt cancellation when b << a^2.
    """
    a = params.mu_f * rho ** (2.0 * params.delta_f)
    b = rho ** (2.0 * params.sigma_f)
    disc = a * a - 4.0 * b
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


def reference_kernel_values(t, rho, params):
    """The complex-arithmetic evaluator that kernel_values replaced, kept
    as its reference: K1hat = t e^{lam2 t} phi((lam1 - lam2) t) and
    K0hat = e^{lam2 t} - lam2 K1hat with complex roots."""
    rho = np.asarray(rho, dtype=float)
    lam1, lam2, _ = _roots_arrays(rho, params)
    gap = lam1 - lam2
    z = gap * t
    big = z.real > 30.0
    z_safe = np.where(big, 0.0, z)
    k1_phi = t * np.exp(lam2 * t) * _phi(z_safe)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1_direct = (np.exp(lam1 * t) - np.exp(lam2 * t)) / np.where(big, gap, 1.0)
    k1 = np.where(big, k1_direct, k1_phi)
    k0 = np.exp(lam2 * t) - lam2 * k1
    return k0.real, k1.real


def reference_cutoff_chi(rho):
    """The cutoff that cutoff_chi replaced, kept as its reference: the
    exp(-1/x) partition of unity evaluated on every sample, plateaus
    included, through clip and masked gathers."""
    rho_arr = np.asarray(rho, dtype=float)
    x = np.clip(2.0 * (1.0 - rho_arr), 0.0, 1.0)

    def bump(y):
        out = np.zeros_like(y)
        pos = y > 0.0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    num = bump(x)
    with np.errstate(invalid="ignore"):   # NaN gives 0/0 here
        chi = num / (num + bump(1.0 - x))
    if np.isscalar(rho):
        return float(chi)
    return chi


def mp_kernel_values(t, rho, params):
    """(K0hat, K1hat) and their envelopes at 50 digits from the root formulas.

    The envelopes bound the magnitudes independently of oscillation
    zeros: e^{Re(lam1) t} for K0hat and that times min(t, 1/|lam1 - lam2|)
    for K1hat.
    """
    def frac(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(50):
        t, rho = mpmath.mpf(t), mpmath.mpf(rho)
        a = frac(params.mu) * rho ** (2 * frac(params.delta))
        b = rho ** (2 * frac(params.sigma))
        disc = a * a - 4 * b
        if disc == 0:
            lam = -a / 2
            e = mpmath.exp(lam * t)
            k0, k1, env1 = (1 - lam * t) * e, t * e, t
        else:
            sq = mpmath.sqrt(mpmath.mpc(disc))
            lam, lam2 = (-a + sq) / 2, (-a - sq) / 2
            e1, e2 = mpmath.exp(lam * t), mpmath.exp(lam2 * t)
            k0 = (lam * e2 - lam2 * e1) / (lam - lam2)
            k1 = (e1 - e2) / (lam - lam2)
            env1 = min(t, 1 / abs(lam - lam2))
        env0 = mpmath.exp(mpmath.re(lam) * t)
        return ((float(mpmath.re(k0)), float(mpmath.re(k1))),
                (float(env0), float(env0 * env1)))


def oracle_lattice(params):
    """rho from 0 through the real band, straddling rho_* at relative
    offsets 1e-3, 1e-6 and 1e-9, and through the oscillatory band to 1e3."""
    rho_star = coalescence_radius(params)
    rhos = [0.0, *np.geomspace(1e-6, 0.9 * rho_star, 7), rho_star,
            *np.geomspace(1.1 * rho_star, 1e3, 8)]
    for eps in (1e-3, 1e-6, 1e-9):
        rhos += [rho_star * (1.0 - eps), rho_star * (1.0 + eps)]
    return np.sort(np.array(rhos))


class TestRoots:
    """The roots behind reference_kernel_values."""

    def test_vieta_sum_and_product(self):
        rho = np.array([1e-3, 0.1, 0.5, 1.0, 5.0, 50.0])
        for params in (P_SMALL, P_SET1):
            sigma, delta, mu = params.sigma_f, params.delta_f, params.mu_f
            lam1, lam2, _ = _roots_arrays(rho, params)
            s, prod = lam1 + lam2, lam1 * lam2
            assert np.all(np.abs(s + mu * rho ** (2 * delta)) <= 1e-10 * np.abs(s))
            assert np.all(np.abs(prod - rho ** (2 * sigma)) <= 1e-10 * np.abs(prod))

    def test_regime_switch_at_coalescence_radius(self):
        rho_star = coalescence_radius(P_SMALL)
        lam1, lam2, disc = _roots_arrays(np.array([0.5, 2.0]) * rho_star, P_SMALL)
        assert disc[0] > 0.0 > disc[1]
        assert lam1[0].imag == 0.0 and lam2[0].imag == 0.0
        assert lam1[1].imag != 0.0
        assert lam1[1] == lam2[1].conjugate()

    def test_coalescence_radius_value(self):
        # rho* = (mu^2/4)^{1/(2 sigma - 4 delta)} = 1/4 for sigma=1, delta=1/4
        assert coalescence_radius(P_SMALL) == pytest.approx(0.25, rel=1e-12)

    def test_roots_have_negative_real_part(self):
        lam1, lam2, _ = _roots_arrays(np.array([0.01, 0.25, 1.0, 10.0]), P_SET1)
        assert np.all(lam1.real < 0) and np.all(lam2.real < 0)


class TestKernels:
    def test_initial_conditions(self):
        # K0(0) = 1, K1(0) = 0, dtK0(0) = 0, dtK1(0) = 1
        rho = np.array([0.03, 0.25, 1.7, 30.0])
        k0, k1 = kernel_values(1e-12, rho, P_SMALL)
        d0, d1 = kernel_dt_values(1e-12, rho, P_SMALL)
        np.testing.assert_allclose(k0, 1.0, atol=1e-8)
        np.testing.assert_allclose(k1, 0.0, atol=1e-8)
        np.testing.assert_allclose(d0, 0.0, atol=1e-6)
        np.testing.assert_allclose(d1, 1.0, atol=1e-8)

    def test_ode_residual_finite_differences(self):
        # ddot K + mu rho^{2 delta} dot K + rho^{2 sigma} K = 0
        h = 1e-4
        rho = np.linspace(0.05, 5.0, 23)
        mu_fac = P_SMALL.mu_f * rho ** (2 * P_SMALL.delta_f)
        stiff = rho ** (2 * P_SMALL.sigma_f)
        for t in [0.3, 1.1, 2.7]:
            vals = [kernel_values(t + k * h, rho, P_SMALL) for k in (-1, 0, 1)]
            for i in range(2):
                km, k, kp = vals[0][i], vals[1][i], vals[2][i]
                ddot = (kp - 2 * k + km) / h ** 2
                dot = (kp - km) / (2 * h)
                residual = np.abs(ddot + mu_fac * dot + stiff * k)
                assert residual.max() <= 1e-6

    def test_derivative_identities_against_finite_differences(self):
        h = 1e-6
        rho = np.array([0.1, 0.3, 2.0, 15.0])
        for t in [0.5, 3.0]:
            d0, d1 = kernel_dt_values(t, rho, P_SMALL)
            k0m, k1m = kernel_values(t - h, rho, P_SMALL)
            k0p, k1p = kernel_values(t + h, rho, P_SMALL)
            np.testing.assert_allclose(d0, (k0p - k0m) / (2 * h),
                                       rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(d1, (k1p - k1m) / (2 * h),
                                       rtol=1e-7, atol=1e-9)

    def test_scalar_and_array_paths_agree(self):
        rho = 1.3
        for values in (kernel_values, kernel_dt_values):
            scalar = values(0.7, rho, P_SET1)
            array = values(0.7, np.array([rho]), P_SET1)
            for got, want in zip(scalar, array):
                assert float(got) == pytest.approx(want[0], rel=1e-14)

    def test_continuity_across_coalescence(self):
        # The stable evaluation must be smooth through the double-root
        # radius where the naive difference quotient degenerates.
        rho_star = coalescence_radius(P_SMALL)
        rho = np.linspace(0.9 * rho_star, 1.1 * rho_star, 2001)
        k0, k1 = kernel_values(1.0, rho, P_SMALL)
        for vals in (k0, k1):
            jumps = np.abs(np.diff(vals))
            assert jumps.max() <= 1e-3
            assert np.all(np.isfinite(vals))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 50.0), st.floats(1e-3, 20.0))
    def test_kernels_real_and_bounded(self, rho, t):
        k0, k1 = kernel_values(t, np.array([rho]), P_SET1)
        assert np.isfinite(k0[0]) and np.isfinite(k1[0])
        assert abs(k0[0]) <= 1.0 + 1e-9
        # |K1| <= t always (integral of a bounded oscillation)
        assert abs(k1[0]) <= t * (1.0 + 1e-9)


class TestAgainstReferences:
    T_VALUES = (0.0, 1e-3, 0.05, 0.5, 1.0, 5.0, 20.0)

    @staticmethod
    def rho_grid(params):
        rho_star = coalescence_radius(params)
        return np.concatenate([
            np.linspace(0.0, 3.0, 3001), np.geomspace(1e-8, 1e3, 2001),
            rho_star * (1.0 + np.geomspace(1e-12, 1e-2, 41)),
            rho_star * (1.0 - np.geomspace(1e-12, 1e-2, 41))])

    def test_matches_complex_reference(self):
        # Tolerance fixed from float64 rounding before the rewrite was
        # measured: 1e-12 relative, 1e-13 absolute on O(1) values.
        for params in (P_SMALL, P_SET1):
            rho = self.rho_grid(params)
            mu_fac = params.mu_f * rho ** (2 * params.delta_f)
            stiff = rho ** (2 * params.sigma_f)
            for t in self.T_VALUES:
                ref0, ref1 = reference_kernel_values(t, rho, params)
                k0, k1 = kernel_values(t, rho, params)
                np.testing.assert_allclose(k0, ref0, rtol=1e-12, atol=1e-13)
                np.testing.assert_allclose(k1, ref1, rtol=1e-12, atol=1e-13)
                d0, d1 = kernel_dt_values(t, rho, params)
                np.testing.assert_allclose(d0, -stiff * ref1, rtol=1e-12, atol=1e-13)
                np.testing.assert_allclose(d1, ref0 - mu_fac * ref1,
                                           rtol=1e-12, atol=1e-13)

    def test_plain_float_rho(self):
        rho_star = coalescence_radius(P_SMALL)
        for rho in (0.0, 0.5 * rho_star, rho_star, 2.0 * rho_star, 7.0):
            k0, k1 = kernel_values(0.7, rho, P_SMALL)
            ref0, ref1 = reference_kernel_values(0.7, rho, P_SMALL)
            assert np.shape(k0) == np.shape(k1) == ()
            assert float(k0) == pytest.approx(float(ref0), rel=1e-12, abs=1e-13)
            assert float(k1) == pytest.approx(float(ref1), rel=1e-12, abs=1e-13)

    def test_mpmath_oracle(self):
        # Relative error against the 50-digit values, measured against the
        # larger of |exact| and the envelope so that oscillation zeros do
        # not inflate it; envelopes below 1e-300 (float64 underflow) count
        # absolutely.  The complex evaluator measured 4.1e-13 here.
        worst = 0.0
        for params in (P_SMALL, P_SET1):
            rhos = oracle_lattice(params)
            for t in (0.0, 0.01, 0.1, 1.0, 5.0):
                k0, k1 = kernel_values(t, rhos, params)
                for i, rho in enumerate(rhos):
                    exact, env = mp_kernel_values(t, rho, params)
                    for got, want, size in zip((k0[i], k1[i]), exact, env):
                        denom = max(abs(want), size, 1e-300)
                        worst = max(worst, abs(got - want) / denom)
        assert worst <= 1.3e-12


class TestOscillatoryForm:
    def test_matches_general_evaluation_above_band(self):
        rho_star = coalescence_radius(P_SMALL)
        for rho in np.geomspace(2 * rho_star, 50.0, 15):
            envelope = np.exp(-0.5 * P_SMALL.mu_f * rho ** (2 * P_SMALL.delta_f)
                              * 0.1)
            for t in np.geomspace(0.1, 10.0, 8):
                k0, k1 = kernel_values(t, float(rho), P_SMALL)
                trig0, trig1 = kernel_hat_oscillatory(t, float(rho), P_SMALL)
                denom = abs(k0) + abs(k1) + envelope
                assert abs(k0 - trig0) <= 1e-10 * denom
                assert abs(k1 - trig1) <= 1e-10 * denom

    def test_factor_rejects_low_frequencies(self):
        with pytest.raises(ValueError):
            large_freq_factor(0.5 * coalescence_radius(P_SMALL), P_SMALL)

    def test_factor_approaches_one(self):
        assert large_freq_factor(1e6, P_SMALL) == pytest.approx(1.0, abs=1e-6)


class TestEnvelopes:
    def test_pointwise_bounds_hold_on_lattice(self):
        # At or below the coalescence radius |K0hat| and |K1hat|/t are
        # at most C e^{-rho^{2(sigma-delta)} t / mu}; above it both are
        # at most C e^{-0.99 (mu/2) rho^{2 delta} t}.  C = 2 here.
        sigma, delta, mu = P_SMALL.sigma_f, P_SMALL.delta_f, P_SMALL.mu_f
        rho_star = coalescence_radius(P_SMALL)
        for t in [0.1, 1.0, 5.0, 20.0]:
            for rho in [0.05, 0.2, 1.0, 3.0, 20.0]:
                k0, k1 = kernel_values(t, rho, P_SMALL)
                if rho <= rho_star:
                    env0 = math.exp(-rho ** (2 * (sigma - delta)) * t / mu)
                    env1 = t * env0
                else:
                    env0 = env1 = math.exp(-0.99 * 0.5 * mu * rho ** (2 * delta) * t)
                assert abs(k0) <= 2.0 * env0
                assert abs(k1) <= 2.0 * env1


class TestCutoff:
    def test_plateaus(self):
        rho = np.array([0.0, 0.3, 0.5, 1.0, 2.0])
        chi = cutoff_chi(rho)
        np.testing.assert_allclose(chi[:3], 1.0)
        np.testing.assert_allclose(chi[3:], 0.0)

    def test_monotone_transition(self):
        rho = np.linspace(0.5, 1.0, 400)
        chi = cutoff_chi(rho)
        assert np.all(np.diff(chi) <= 1e-12)
        assert np.all((chi >= 0.0) & (chi <= 1.0))

    def test_matches_reference_bit_for_bit(self):
        edges = [0.5, 1.0]
        edges += [np.nextafter(e, d) for e in (0.5, 1.0) for d in (-np.inf, np.inf)]
        rho = np.concatenate([np.linspace(-1.0, 3.0, 40001), edges,
                              [np.inf, -np.inf, np.nan, 0.0, -0.0]])
        chi = cutoff_chi(rho)
        assert chi.dtype == np.float64 and chi.shape == rho.shape
        assert np.array_equal(chi, reference_cutoff_chi(rho), equal_nan=True)
        # Strictly inside (1/2, 1) at the edges' neighbours, but the
        # quotient still rounds to the plateau values there.
        assert cutoff_chi(np.nextafter(0.5, 1.0)) == 1.0
        assert cutoff_chi(np.nextafter(1.0, 0.0)) == 0.0
        grid = rho[:40000].reshape(200, 200)
        assert np.array_equal(cutoff_chi(grid), reference_cutoff_chi(grid))
        for value in (0.25, 0.7, 0.999, 1.5, float("nan")):
            got, want = cutoff_chi(value), reference_cutoff_chi(value)
            assert type(got) is float
            assert got == want or (np.isnan(got) and np.isnan(want))
            got, want = cutoff_chi(np.array(value)), reference_cutoff_chi(np.array(value))
            assert type(got) is type(want) is np.float64
            assert np.array_equal(got, want, equal_nan=True)

    def test_smooth_at_band_edges(self):
        # One-sided difference quotients vanish at both plateau joints.
        h = 1e-4
        for edge in (0.5, 1.0):
            inner = cutoff_chi(np.array([edge - h, edge + h]))
            slope = (inner[1] - inner[0]) / (2 * h)
            assert abs(slope) <= 1e-3
