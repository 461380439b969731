"""Pseudo-spectral torus evolution and norms."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sigmalab.dispersion import kernel_dt_values, kernel_values
from sigmalab.params import ModelParams
from sigmalab import dispersion, spectral
from sigmalab.spectral import (BlowUpError, Field, Snapshot, _chunks,
                               _pad_half, _parseval_l2, _truncate_half,
                               gaussian_field, gevrey_energy, linear_evolve,
                               lq_norm, make_grid, semilinear_solve,
                               zero_field)

from oracles import (Spectra, full_spectrum_gevrey_energy,
                     full_spectrum_linear_evolve, full_spectrum_semilinear_solve,
                     pad_spectrum, stepper_working_set, truncate_spectrum,
                     whole_lattice_semilinear_solve)

P_SMALL = ModelParams.make(sigma=1, delta="1/4", mu=1, n=1, q=2, m=1)


# ---------------------------------------------------------------------------
# Reference: the fancy-indexed (np.ix_) padding and truncation that the
# block-slice forms in sigmalab.spectral replaced; they must agree bit for bit.
# ---------------------------------------------------------------------------

def ix_pad_half(v, out):
    n, N, M = v.ndim, 2 * (v.shape[-1] - 1), 2 * (out.shape[-1] - 1)
    h = N // 2
    lead = np.r_[0:h, M - h:M]
    out[np.ix_(*([lead] * (n - 1)), np.arange(h + 1))] = v * (M / N) ** n
    out[..., h] *= 0.5
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[M - h] *= 0.5
        rows[h] = rows[M - h]
    return out


def ix_truncate_half(f, N):
    n, M, h = f.ndim, 2 * (f.shape[-1] - 1), N // 2
    lead = np.r_[0:h, M - h:M, h]
    out = f[np.ix_(*([lead] * (n - 1)), np.arange(h + 1))] * (N / M) ** n
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[h] = 0.5 * (rows[h] + rows[N])
    return out[(slice(0, N),) * (n - 1)]


def pad_half(v, out, M):
    """_pad_half after the stepper's scaled copy of v into out's blocks."""
    n, N = v.ndim, 2 * (v.shape[-1] - 1)
    for coarse, fine, _ in _chunks(n, N, M, 3):
        np.multiply(v[coarse], (M / N) ** n, out=out[fine])
    return _pad_half(out, N)


def truncate_half(f, out, M):
    """_truncate_half, then the blocks of f that the stepper reads, copied."""
    n, N = f.ndim, 2 * (out.shape[-1] - 1)
    _truncate_half(f, N, M)
    for coarse, fine, _ in _chunks(n, N, M, 3):
        out[coarse] = f[fine]
    return out


def plane_wave_snapshot(grid, k_index):
    """cos(xi_k x) initial displacement with zero velocity."""
    xi = 2.0 * np.pi * k_index / (2.0 * grid.L)
    u = Field(grid, np.cos(xi * grid.x))
    return Snapshot(0.0, u, zero_field(grid)), xi


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_grid(1, 10.0, 100)        # not a power of two
        with pytest.raises(ValueError):
            make_grid(4, 10.0, 64)         # unsupported dimension
        with pytest.raises(ValueError):
            make_grid(1, -1.0, 64)

    @pytest.mark.parametrize("L", [math.inf, math.nan, float("1e400")])
    def test_rejects_non_finite_length(self, L):
        with pytest.raises(ValueError, match="finite and positive"):
            make_grid(1, L, 64)

    def test_frequency_spacing(self):
        grid = make_grid(1, 20.0, 128)
        assert grid.rho_rows.shape == (65,)
        assert np.diff(grid.rho_rows) == pytest.approx(np.pi / 20.0)


def white_noise_snapshot(grid, seed, t=0.0):
    rng = np.random.default_rng(seed)
    u, ut = (Field(grid, rng.standard_normal((grid.N,) * grid.n))
             for _ in range(2))
    return Snapshot(t, u, ut)


class TestLinearEvolve:
    def test_plane_wave_matches_mode_kernels(self):
        # A single Fourier mode evolves by scalar multiplication with
        # the closed-form kernels -- zero spatial discretisation error.
        grid = make_grid(1, 10.0, 256)
        snap, xi = plane_wave_snapshot(grid, 5)
        for t in [0.3, 2.0, 9.0]:
            out = linear_evolve(snap, t, P_SMALL)
            k0, _ = kernel_values(t, xi, P_SMALL)
            dk0, _ = kernel_dt_values(t, xi, P_SMALL)
            expected_u = k0 * np.cos(xi * grid.x)
            expected_ut = dk0 * np.cos(xi * grid.x)
            np.testing.assert_allclose(out.u.values, expected_u, atol=1e-12)
            np.testing.assert_allclose(out.ut.values, expected_ut, atol=1e-12)

    def test_velocity_datum_channel(self):
        grid = make_grid(1, 10.0, 256)
        xi = 2.0 * np.pi * 3 / (2.0 * grid.L)
        ut0 = Field(grid, np.cos(xi * grid.x))
        snap = Snapshot(0.0, zero_field(grid), ut0)
        out = linear_evolve(snap, 1.5, P_SMALL)
        _, k1 = kernel_values(1.5, xi, P_SMALL)
        np.testing.assert_allclose(out.u.values, k1 * np.cos(xi * grid.x),
                                   atol=1e-12)

    def test_zero_data_stays_zero(self):
        grid = make_grid(1, 5.0, 64)
        snap = Snapshot(0.0, zero_field(grid), zero_field(grid))
        out = linear_evolve(snap, 4.0, P_SMALL)
        assert lq_norm(out.u, 2.0) == 0.0

    @pytest.mark.parametrize("n,k_index", [(2, (-3, 5)), (3, (-2, -3, 4))])
    def test_off_axis_plane_wave(self, n, k_index):
        # A negative index on a leading axis puts the wave's stored mode
        # on a mirrored row N - k, whose |xi| is read from row k.
        grid = make_grid(n, 10.0, 32)
        params = replace(P_SMALL, n=n)
        xi = [np.pi * k / grid.L for k in k_index]
        phase = sum(x * k for x, k in zip(grid.meshgrid(), xi))
        rho = np.sqrt(sum(k * k for k in xi))
        snap = Snapshot(0.0, Field(grid, np.cos(phase)),
                        Field(grid, 0.5 * np.sin(phase)))
        for t in [0.3, 2.0]:
            out = linear_evolve(snap, t, params)
            k0, k1 = kernel_values(t, rho, params)
            dk0, dk1 = kernel_dt_values(t, rho, params)
            assert out.t == t
            np.testing.assert_allclose(
                out.u.values, k0 * np.cos(phase) + 0.5 * k1 * np.sin(phase),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                out.ut.values, dk0 * np.cos(phase) + 0.5 * dk1 * np.sin(phase),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_matches_full_spectrum_reference(self, n, N):
        # White noise puts O(1) content on every Nyquist row.
        grid = make_grid(n, 6.0, N)
        params = replace(P_SMALL, n=n)
        snap = white_noise_snapshot(grid, seed=20 + n, t=0.5)
        for t in [0.1, 1.0, 4.0]:
            out = linear_evolve(snap, t, params)
            u, ut = full_spectrum_linear_evolve(snap, t, params).physical()
            assert out.t == 0.5 + t
            for new, ref in ((out.u.values, u), (out.ut.values, ut)):
                assert new.dtype == np.float64
                np.testing.assert_allclose(
                    new, ref.real, rtol=0,
                    atol=1e-13 * np.max(np.abs(ref)))

    def test_zero_time_returns_data(self):
        grid = make_grid(2, 5.0, 16)
        snap = Snapshot(1.5, gaussian_field(grid), zero_field(grid))
        assert linear_evolve(snap, 0.0, P_SMALL) is snap

    @pytest.mark.parametrize("t", [0.5, 10.0, 137.2])
    @pytest.mark.parametrize("data", ["gauss-u0", "gauss-u1", "noise-u0",
                                      "noise-u1"])
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_is_the_one_step_linear_solve(self, n, N, data, t):
        # Bit for bit the last state of the whole-lattice stepper's one
        # step of length t, on smooth data and on white noise, which puts
        # O(1) content on every Nyquist row.
        grid = make_grid(n, 6.0, N)
        params = replace(P_SMALL, n=n)
        kind, slot = data.split("-")
        bump = (white_noise_snapshot(grid, seed=40 + n).u if kind == "noise"
                else gaussian_field(grid, 0.7, 1.2))
        u, ut = (bump, zero_field(grid)) if slot == "u0" else (zero_field(grid), bump)
        snap = Snapshot(0.25, u, ut)
        out = linear_evolve(snap, t, params)
        *_, ref = whole_lattice_semilinear_solve(snap, params, "none", t, t)
        assert out.t == ref.t == 0.25 + t
        assert np.array_equal(out.u.values, ref.u.values)
        assert np.array_equal(out.ut.values, ref.ut.values)


class TestSemilinear:
    def test_none_equals_exact_linear_flow(self):
        grid = make_grid(1, 40.0, 512)
        snap = Snapshot(0.0, gaussian_field(grid, 0.5), zero_field(grid))
        *_, final = semilinear_solve(snap, P_SMALL, "none", t_end=4.0, dt=0.5,
                                     store_every=8)
        exact = linear_evolve(snap, 4.0, P_SMALL)
        assert final.t == pytest.approx(4.0)
        np.testing.assert_allclose(final.u.values, exact.u.values, atol=1e-12)

    def test_small_amplitude_tracks_linear(self):
        grid = make_grid(1, 40.0, 512)
        params = replace(P_SMALL, p=Fraction(3))
        eps = 1e-4
        snap = Snapshot(0.0, gaussian_field(grid, eps), zero_field(grid))
        *_, final = semilinear_solve(snap, params, "abs_u_p", t_end=2.0,
                                     dt=0.05, store_every=40)
        linear = linear_evolve(snap, 2.0, params)
        diff = final.u.values - linear.u.values
        # Cubic nonlinearity: relative deviation O(eps^2) ~ 1e-8.
        rel = np.max(np.abs(diff)) / np.max(np.abs(linear.u.values))
        assert rel < 1e-6

    def test_blowup_detection(self):
        grid = make_grid(1, 20.0, 128)
        snap = Snapshot(0.0, gaussian_field(grid, 1.0), zero_field(grid))
        with pytest.raises(BlowUpError) as exc:
            list(semilinear_solve(snap, P_SMALL, "none", t_end=5.0, dt=0.5,
                                  norm_ceiling=1e-9))
        assert exc.value.t > 0.0
        assert exc.value.norm > exc.value.ceiling

    def test_unknown_nonlinearity_rejected(self):
        grid = make_grid(1, 20.0, 64)
        snap = Snapshot(0.0, gaussian_field(grid), zero_field(grid))
        with pytest.raises(ValueError):
            semilinear_solve(snap, P_SMALL, "cubic", t_end=1.0, dt=0.1)

    def test_nonlinearity_requires_p(self):
        grid = make_grid(1, 20.0, 64)
        snap = Snapshot(0.0, gaussian_field(grid), zero_field(grid))
        with pytest.raises(ValueError):
            semilinear_solve(snap, P_SMALL, "abs_u_p", t_end=1.0, dt=0.1)

    @pytest.mark.parametrize("p,amplitude,bound", [
        (3, 0.5, 41.84), (3, 0.1, 209.21), (5, 0.5, 618.45)])
    def test_blows_up_by_the_zero_mode_bound(self, p, amplitude, bound):
        """The torus does not damp its zero mode, so the lattice mean m of
        u obeys m'' = <|u|^p> >= |m|^p (Jensen) and, from m'(0) = 0, blows
        up no later than the blow-up time of m'' = m^p,
        T = m(0)^{-(p-1)/2} sqrt((p+1)/2) int_1^inf dv / sqrt(v^{p+1} - 1).
        The solves blow up at t = 19.45, 160.1 and 147.35."""
        grid, dt = make_grid(1, 10.0, 64), 0.05
        snap = Snapshot(0.0, gaussian_field(grid, amplitude, 1.0),
                        zero_field(grid))
        with mpmath.workdps(20):
            integral = mpmath.quad(lambda v: 1 / mpmath.sqrt(v ** (p + 1) - 1),
                                   [1, 2, mpmath.inf])
        T = (snap.u.values.mean() ** (-(p - 1) / 2) * math.sqrt((p + 1) / 2)
             * float(integral))
        assert T == pytest.approx(bound, abs=0.005)
        solve = semilinear_solve(snap, replace(P_SMALL, p=Fraction(p)), "abs_u_p",
                                 t_end=dt * math.ceil(T / dt), dt=dt,
                                 store_every=10 ** 9)
        with pytest.raises(BlowUpError) as exc:
            for _ in solve:
                pass
        assert exc.value.t <= T


#: (L, N, amplitude) per dimension for the reference comparison.  The
#: reference keeps only the -N/2 rows when it truncates the padded
#: product, which leaves a non-Hermitian Nyquist component as large as
#: the forcing's Nyquist content, and it puts modes on the Nyquist row of
#: two axes at one corner only; neither has a real counterpart.  For
#: |u_t|^p with sign-changing u_t that content decays only algebraically,
#: so the grids resolve the data and the amplitudes keep the forcing small
#: enough for the two steppers to agree to 1e-12.
REFERENCE_CASES = {1: (20.0, 256, 1.0), 2: (16.0, 64, 0.1), 3: (8.0, 32, 0.05)}


def assert_same_field(new, ref_values):
    """A Field against the real part of complex physical values, to
    1e-12 of their max |.|."""
    np.testing.assert_allclose(
        new.values, ref_values.real, rtol=1e-12,
        atol=1e-12 * np.max(np.abs(ref_values)))


class TestRealStepper:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nonlinearity", ["abs_u_p", "abs_ut_p", "none"])
    @pytest.mark.parametrize("p", [3, 2.5])
    def test_matches_complex_reference(self, n, nonlinearity, p):
        L, N, amplitude = REFERENCE_CASES[n]
        grid = make_grid(n, L, N)
        params = replace(P_SMALL, n=n, p=Fraction(p))
        snap = Snapshot(0.0, gaussian_field(grid, amplitude, 1.5),
                        gaussian_field(grid, 0.5 * amplitude, 2.0))
        new = list(semilinear_solve(snap, params, nonlinearity, t_end=1.0,
                                    dt=0.1))
        ref = full_spectrum_semilinear_solve(snap, params, nonlinearity,
                                             t_end=1.0, dt=0.1)
        assert len(new) == len(ref) == 11
        for a, b in zip(new, ref):
            assert a.t == b.t
            assert a.u.values.dtype == a.ut.values.dtype == np.float64
            u, ut = b.physical()
            assert_same_field(a.u, u)
            assert_same_field(a.ut, ut)

    @pytest.mark.parametrize("q", [2.0])
    def test_blowup_matches_complex_reference(self, q):
        grid = make_grid(1, 40.0, 512)
        params = replace(P_SMALL, p=Fraction(3))
        snap = Snapshot(0.0, gaussian_field(grid, 2.0), zero_field(grid))
        ceiling = 20.0 * lq_norm(snap.u, q)
        errors = []
        for solve in (semilinear_solve, full_spectrum_semilinear_solve):
            with pytest.raises(BlowUpError) as exc:
                tuple(solve(snap, params, "abs_u_p", t_end=4.0, dt=0.1,
                            norm_ceiling=ceiling))
            errors.append(exc.value)
        new, ref = errors
        assert 0.0 < new.t == ref.t < 4.0
        assert new.norm == pytest.approx(ref.norm, rel=1e-12)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_parseval_monitor_equals_lq_norm(self, n, N):
        grid = make_grid(n, 5.0, N)
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal((N,) * n),
                       gaussian_field(grid, 0.7, 1.2).values):
            field = Field(grid, values)
            spectrum = np.fft.rfftn(values)
            monitor = _parseval_l2(spectrum, grid, np.empty(spectrum.shape),
                                   np.empty(spectrum.shape))
            assert monitor == pytest.approx(lq_norm(field, 2.0), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_resampling_matches_full_spectrum_real_part(self, n):
        # White noise puts O(1) content on every Nyquist row, so dropping
        # the split or the average fails by O(1).  Modes on the Nyquist
        # row of two or more axes are removed: the full-spectrum pad and
        # truncation treat those asymmetrically.
        N, M = 16, 24
        rng = np.random.default_rng(n)

        def without_nyquist_corners(size):
            spec = np.fft.fftn(rng.standard_normal((size,) * n))
            on_row = np.abs(np.fft.fftfreq(size, 1.0 / size)) == N // 2
            rows = np.meshgrid(*([on_row] * n), indexing="ij")
            spec[sum(r.astype(int) for r in rows) >= 2] = 0.0
            return np.fft.ifftn(spec).real

        coarse, fine = without_nyquist_corners(N), without_nyquist_corners(M)
        zeros = np.zeros((M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
        padded = np.fft.irfftn(pad_half(np.fft.rfftn(coarse), zeros, M))
        expected = np.fft.ifftn(pad_spectrum(np.fft.fftn(coarse))).real
        np.testing.assert_allclose(padded, expected, rtol=0, atol=1e-14)
        truncated = np.fft.irfftn(truncate_half(
            np.fft.rfftn(fine), np.empty_like(np.fft.rfftn(coarse)), M))
        expected = np.fft.ifftn(truncate_spectrum(np.fft.fftn(fine), N)).real
        np.testing.assert_allclose(truncated, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_slices_match_fancy_indexing(self, n):
        # White-noise spectra put nonzero values on every Nyquist row and
        # corner; both forms run twice on one buffer, as the stepper does.
        N, M = 16, 24
        rng = np.random.default_rng(10 + n)
        half = lambda size: (size,) * (n - 1) + (size // 2 + 1,)
        new, old = (np.zeros(half(M), dtype=complex) for _ in range(2))
        for _ in range(2):
            v = np.fft.rfftn(rng.standard_normal((N,) * n))
            assert np.array_equal(pad_half(v, new, M), ix_pad_half(v, old))
            f = np.fft.rfftn(rng.standard_normal((M,) * n))
            expected = ix_truncate_half(f, N)  # truncate_half scales f
            assert np.array_equal(
                truncate_half(f, np.empty(half(N), dtype=complex), M),
                expected)

    def test_rejects_complex_data(self):
        grid = make_grid(1, 20.0, 64)
        with pytest.raises(ValueError, match="imaginary"):
            Field(grid, gaussian_field(grid).values * (1.0 + 1e-3j))

    def test_data_constructors_are_real(self):
        grid = make_grid(2, 10.0, 16)
        assert gaussian_field(grid).values.dtype == np.float64
        assert zero_field(grid).values.dtype == np.float64

    def test_rejects_non_integer_step_count(self):
        grid = make_grid(1, 20.0, 64)
        snap = Snapshot(0.0, gaussian_field(grid), zero_field(grid))
        with pytest.raises(ValueError, match="integer"):
            semilinear_solve(snap, P_SMALL, "none", t_end=1.0, dt=0.3)
        # The shipped preset and the benchmark's step sizes stay valid.
        for t_end, dt in [(6.0, 0.05), (0.5, 0.05), (200.0, 0.1)]:
            steps = len(list(semilinear_solve(snap, P_SMALL, "none", t_end,
                                              dt, store_every=10**6)))
            assert steps == 2

    @pytest.mark.parametrize("nonlinearity,order", [("abs_u_p", 1.8),
                                                    ("abs_ut_p", 0.9)])
    def test_observed_order(self, nonlinearity, order):
        # Successive differences of the t = 4 state as dt halves from 0.2
        # give two order estimates per component.
        grid = make_grid(1, 20.0, 512)
        params = replace(P_SMALL, p=Fraction(3))
        snap = Snapshot(0.0, gaussian_field(grid, 1.0), zero_field(grid))
        finals = [list(semilinear_solve(snap, params, nonlinearity, t_end=4.0,
                                        dt=dt, store_every=10**6))[-1]
                  for dt in (0.2, 0.1, 0.05, 0.025)]
        for part in ("u", "ut"):
            diffs = [np.linalg.norm(getattr(a, part).values
                                    - getattr(b, part).values)
                     for a, b in zip(finals, finals[1:])]
            orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
            assert min(orders) >= order, (part, orders)


class TestStreaming:
    @pytest.mark.parametrize("block_samples", [2 ** 15, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nonlinearity", ["abs_u_p", "abs_ut_p", "none"])
    @pytest.mark.parametrize("p", [2, Fraction(5, 2), 3])
    def test_matches_whole_lattice_stepper(self, monkeypatch, block_samples,
                                           n, nonlinearity, p):
        # 1000 samples a block splits every padded lattice into several
        # blocks of rows, the last one short.
        monkeypatch.setattr(spectral, "_BLOCK_SAMPLES", block_samples)
        L, N, amplitude = REFERENCE_CASES[n]
        grid = make_grid(n, L, N)
        params = replace(P_SMALL, n=n, p=Fraction(p))
        snap = Snapshot(0.0, gaussian_field(grid, amplitude, 1.5),
                        gaussian_field(grid, 0.5 * amplitude, 2.0))
        new = list(semilinear_solve(snap, params, nonlinearity, t_end=1.0,
                                    dt=0.1, store_every=3))
        ref = whole_lattice_semilinear_solve(snap, params, nonlinearity,
                                             t_end=1.0, dt=0.1, store_every=3)
        assert [s.t for s in new] == [s.t for s in ref] == [
            0.0, 0.30000000000000004, 0.6000000000000001, 0.9, 1.0]
        for a, b in zip(new, ref):
            for x, y in ((a.u.values, b.u.values), (a.ut.values, b.ut.values)):
                if n < 3:
                    assert np.array_equal(x, y)
                else:
                    assert np.max(np.abs(x - y)) <= 1e-15 * np.max(np.abs(y))

    def test_memory_does_not_grow_with_stores(self):
        """Storing every step or none stays within the solver's working
        set, counted from the grid, plus a margin of one field: a
        snapshot kept alive across a step (two fields) or one more half
        spectrum of the whole lattice (about one field) breaks it."""
        n, N = 3, 32
        grid = make_grid(n, 8.0, N)
        params = replace(P_SMALL, n=3, p=Fraction(3))
        snap = Snapshot(0.0, gaussian_field(grid, 0.05, 1.5), zero_field(grid))
        field = N ** n * 8
        # The solver and the snapshot being yielded.
        working = stepper_working_set(grid) + 2 * field
        for store_every in (1, 10**6):
            tracemalloc.start()
            try:
                for stored in semilinear_solve(snap, params, "abs_u_p", t_end=1.0,
                                               dt=0.1, store_every=store_every):
                    del stored
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < working + field, (store_every, peak, working)

    def test_linear_solve_holds_no_row_blocks(self):
        """A "none" solve stays within its working set (four tables, the
        state, the chunk scratch and unpadded columns) plus the snapshot
        being yielded and a margin of one field; the |u|^p row blocks,
        about three fields here, break it."""
        n, N = 3, 32
        grid = make_grid(n, 8.0, N)
        snap = Snapshot(0.0, gaussian_field(grid, 0.05, 1.5), zero_field(grid))
        field = N ** n * 8
        working = stepper_working_set(grid, nonlinear=False) + 2 * field
        tracemalloc.start()
        try:
            for stored in semilinear_solve(snap, replace(P_SMALL, n=n), "none",
                                           t_end=1.0, dt=0.1, store_every=1):
                del stored
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < working + field, (peak, working)

    @pytest.mark.parametrize("nonlinearity,taus", [("abs_u_p", [0.05, 0.1]),
                                                   ("abs_ut_p", [0.05, 0.1]),
                                                   ("none", [0.1])])
    def test_one_kernel_evaluation_per_step_size(self, monkeypatch,
                                                 nonlinearity, taus):
        # The derivative tables come from the same K0hat, K1hat arrays;
        # the states keep the bits of the oracle, which calls
        # kernel_dt_values.  A linear solve builds no half-step tables.
        n = 2
        L, N, amplitude = REFERENCE_CASES[n]
        grid = make_grid(n, L, N)
        params = replace(P_SMALL, n=n, p=Fraction(3))
        snap = Snapshot(0.0, gaussian_field(grid, amplitude, 1.5),
                        gaussian_field(grid, 0.5 * amplitude, 2.0))
        ref = whole_lattice_semilinear_solve(snap, params, nonlinearity,
                                             t_end=1.0, dt=0.1, store_every=5)
        calls = []

        def counting(t, rho, p):
            calls.append(t)
            return kernel_values(t, rho, p)
        monkeypatch.setattr(spectral, "kernel_values", counting)
        monkeypatch.setattr(dispersion, "kernel_values", counting)
        new = list(semilinear_solve(snap, params, nonlinearity, t_end=1.0,
                                    dt=0.1, store_every=5))
        assert sorted(calls) == taus
        for a, b in zip(new, ref, strict=True):
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.ut.values, b.ut.values)
        calls.clear()
        linear_evolve(snap, 0.5, params)
        assert calls == [0.5]

    def test_data_are_taken_on_the_call(self):
        grid = make_grid(1, 20.0, 64)
        snap = Snapshot(0.0, gaussian_field(grid), zero_field(grid))
        expected = list(semilinear_solve(snap, P_SMALL, "none", 1.0, 0.5))
        solve = semilinear_solve(snap, P_SMALL, "none", 1.0, 0.5)
        snap.u.values[:] = 0.0
        for a, b in zip(solve, expected, strict=True):
            assert np.array_equal(a.u.values, b.u.values)

    def test_steps_only_when_iterated(self):
        # The first step exceeds the ceiling, so a solve that stepped on
        # the call would raise there.
        grid = make_grid(1, 20.0, 64)
        snap = Snapshot(0.5, gaussian_field(grid), zero_field(grid))
        solve = semilinear_solve(snap, P_SMALL, "none", t_end=1.0, dt=0.1,
                                 norm_ceiling=1e-9)
        first = next(solve)
        assert first.t == 0.5
        assert np.array_equal(first.u.values, snap.u.values)
        with pytest.raises(BlowUpError) as exc:
            next(solve)
        assert exc.value.t == pytest.approx(0.6)


class TestNormsAndOperators:
    def test_lq_norm_constant_field(self):
        grid = make_grid(1, 10.0, 64)
        c = 0.7
        f = Field(grid, np.full(64, c))
        for q in [1.0, 2.0, 4.0]:
            assert lq_norm(f, q) == pytest.approx(c * (2 * grid.L) ** (1 / q))
        assert lq_norm(f, math.inf) == pytest.approx(c)

    def test_lq_norm_rejects_bad_exponent(self):
        grid = make_grid(1, 10.0, 64)
        with pytest.raises(ValueError):
            lq_norm(zero_field(grid), 0.5)

    def test_gevrey_energy_zero_field(self):
        grid = make_grid(1, 10.0, 64)
        snap = Snapshot(1.0, zero_field(grid), zero_field(grid))
        assert gevrey_energy(snap, 0.2, P_SMALL) == 0.0

    def test_gevrey_energy_requires_positive_rate(self):
        grid = make_grid(1, 10.0, 64)
        snap = Snapshot(0.0, gaussian_field(grid), zero_field(grid))
        for c in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                gevrey_energy(snap, c, P_SMALL)

    def test_gevrey_energy_skips_zero_weight_modes(self):
        # Only the zero mode's |v|^2 overflows, and its weight 1 - chi is
        # 0: it adds nothing, so the energy scales with the amplitude.
        grid = make_grid(1, 20.0, 64)
        energy = [gevrey_energy(Snapshot(0.0, gaussian_field(grid, amplitude, 40.0),
                                         zero_field(grid)), 0.2, P_SMALL)
                  for amplitude in (1e150, 1e153)]
        assert math.isfinite(energy[1])
        assert energy[1] == pytest.approx(1e6 * energy[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_gevrey_energy_matches_full_spectrum_reference(self, n, N):
        # White noise puts O(1) content on every Nyquist row, which the
        # half spectrum holds once (last axis) or mirrored (leading axes).
        grid = make_grid(n, 6.0, N)
        params = replace(P_SMALL, n=n)
        snap = white_noise_snapshot(grid, seed=30 + n)
        for t in [0.0, 0.5, 3.0]:
            evolved = linear_evolve(snap, t, params)
            reference = full_spectrum_linear_evolve(snap, t, params)
            for c in [0.05, 0.2]:
                assert gevrey_energy(evolved, c, params) == pytest.approx(
                    full_spectrum_gevrey_energy(reference, c, params),
                    rel=1e-13, abs=0.0)
        assert gevrey_energy(snap, 0.2, params) == pytest.approx(
            full_spectrum_gevrey_energy(Spectra.of(snap), 0.2, params),
            rel=1e-13, abs=0.0)

