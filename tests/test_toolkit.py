"""Weighted Duhamel integrals and the higher-order chain rule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmalab.toolkit import (composite_derivative, duhamel_bound,
                              duhamel_integral, faa_di_bruno_partitions)

# Integer partition counts p(n) and Bell numbers B_n for n = 1..12.
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
BELL_NUMBERS = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570,
                4213597]


class TestDuhamelIntegral:
    def test_zero_exponents_give_length(self):
        for t in [0.5, 1.0, 7.0, 100.0]:
            assert duhamel_integral(0.0, 0.0, t) == pytest.approx(t, rel=1e-9)

    def test_single_power_closed_form(self):
        # alpha = 0: integral of (1+tau)^{-beta} over [0, t].
        for beta in [0.5, 2.0, 3.0]:
            for t in [0.3, 2.0, 50.0]:
                exact = ((1 + t) ** (1 - beta) - 1) / (1 - beta)
                assert duhamel_integral(0.0, beta, t) == pytest.approx(
                    exact, rel=1e-8)

    def test_log_case_closed_form(self):
        # alpha = 0, beta = 1: log(1+t).
        for t in [0.1, 1.0, 30.0]:
            assert duhamel_integral(0.0, 1.0, t) == pytest.approx(
                math.log1p(t), rel=1e-8)

    def test_symmetry_in_exponents(self):
        # Substituting tau -> t - tau swaps the two factors.
        for alpha, beta in [(0.3, 2.1), (1.0, 0.4), (2.5, 2.5)]:
            a = duhamel_integral(alpha, beta, 13.0)
            b = duhamel_integral(beta, alpha, 13.0)
            assert a == pytest.approx(b, rel=1e-8)

    def test_zero_time(self):
        assert duhamel_integral(1.0, 2.0, 0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            duhamel_integral(1.0, 1.0, -1.0)


class TestDuhamelBound:
    def test_supercritical_branch(self):
        assert duhamel_bound(2.0, 2.0, 3.0) == pytest.approx(4.0 ** -2)

    def test_log_branch(self):
        assert duhamel_bound(1.0, 0.5, 3.0) == pytest.approx(
            4.0 ** -0.5 * math.log(5.0))

    def test_subcritical_branch(self):
        assert duhamel_bound(0.3, 0.4, 3.0) == pytest.approx(4.0 ** 0.3)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.sampled_from([1.0, 10.0, 100.0, 1000.0]))
    @example(0.0, 0.0, 1000.0)      # I = U
    @example(1.0, 0.5, 1000.0)      # log branch
    @example(1.0, 1.0, 10.0)
    @example(1.0, 3.0, 100.0)       # lo = 1 < hi
    @example(0.9375, 0.9375, 1000.0)
    @example(3.0, 3.0, 1000.0)
    def test_bound_dominates_integral_up_to_constant(self, alpha, beta, t):
        """I(t) <= U(t) <= C(alpha, beta) * duhamel_bound(alpha, beta, t).

        Majorant.  Split I at t/2 and let h = 1 + t/2.  On [0, t/2] the
        first factor is at most h^-alpha; on [t/2, t] (substitute
        s = t - tau) the second is at most h^-beta.  Hence
        I <= U = h^-alpha J_beta(t/2) + h^-beta J_alpha(t/2), with
        J_g(x) = int_0^x (1 + s)^-g ds, and U = I = t at alpha = beta = 0.

        Constant.  h <= 1 + t <= 2h gives h^-a <= 2^a (1 + t)^-a for
        a >= 0.  Also J_g(x) <= (1 + x)^(1-g) / (1 - g) for g < 1,
        J_g(x) <= 1 / (g - 1) for g > 1, and
        J_g(x) <= (1 + x)^max(1-g, 0) log(1 + x) for every g.  U is
        symmetric, so let lo = min, hi = max of (alpha, beta):
        - hi < 1: h^-alpha J_beta <= h^-alpha h^(1-beta) / (1 - beta),
          so C = 2^alpha / (1 - beta) + 2^beta / (1 - alpha).
        - hi = 1: each term is at most h^-lo log h, and
          log h <= log(2 + t), so C = 2^(1 + lo).
        - hi > 1: h^-lo J_hi <= h^-lo / (hi - 1); h^-hi J_lo is at most
          h^-lo / |lo - 1| for lo != 1, and h^-1 h^(1-hi) log h
          <= h^-1 / (e (hi - 1)) for lo = 1.  So
          C = 2^lo (1 / (hi - 1) + 1 / |lo - 1|), with e (hi - 1) in
          place of |lo - 1| when lo = 1.
        The first inequality allows the quadrature's 1e-8; the second
        is exact arithmetic on both sides.
        """
        integral = duhamel_integral(alpha, beta, t)
        majorant = duhamel_majorant(alpha, beta, t)
        assert integral <= (1.0 + 1e-8) * majorant
        constant = duhamel_constant(alpha, beta)
        assert majorant <= constant * duhamel_bound(alpha, beta, t)


def partial_power_integral(g, x):
    """J_g(x) = int_0^x (1 + s)^-g ds in closed form."""
    if g == 1.0:
        return math.log1p(x)
    return math.expm1((1.0 - g) * math.log1p(x)) / (1.0 - g)


def duhamel_majorant(alpha, beta, t):
    h = 1.0 + t / 2.0
    return (h ** -alpha * partial_power_integral(beta, t / 2.0)
            + h ** -beta * partial_power_integral(alpha, t / 2.0))


def duhamel_constant(alpha, beta):
    """C(alpha, beta) of each duhamel_bound branch, derived above."""
    lo, hi = min(alpha, beta), max(alpha, beta)
    if hi < 1.0:
        return 2.0 ** alpha / (1.0 - beta) + 2.0 ** beta / (1.0 - alpha)
    if hi == 1.0:
        return 2.0 ** (1.0 + lo)
    near = math.e * (hi - 1.0) if lo == 1.0 else abs(lo - 1.0)
    return 2.0 ** lo * (1.0 / (hi - 1.0) + 1.0 / near)


class TestPartitions:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_and_coefficient_sums(self, n):
        parts = faa_di_bruno_partitions(n)
        assert len(parts) == PARTITION_COUNTS[n - 1]
        assert sum(p.coefficient for p in parts) == BELL_NUMBERS[n - 1]

    def test_multiplicities_solve_the_constraint(self):
        for n in range(1, 9):
            for part in faa_di_bruno_partitions(n):
                assert sum(j * mj for j, mj in
                           enumerate(part.multiplicities, start=1)) == n
                assert part.coefficient >= 1

    def test_lexicographic_order(self):
        parts = faa_di_bruno_partitions(6)
        mults = [p.multiplicities for p in parts]
        assert mults == sorted(mults)

    def test_n3_explicit(self):
        parts = faa_di_bruno_partitions(3)
        table = {p.multiplicities: p.coefficient for p in parts}
        assert table == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            faa_di_bruno_partitions(0)
        with pytest.raises(ValueError):
            faa_di_bruno_partitions(21)


class TestCompositeDerivative:
    def test_power_of_power(self):
        # h(y) = y^2, g(x) = x^3 at x = 1: (x^6)''' = 120.
        h = [2.0, 2.0, 0.0]       # h', h'', h''' at g(1) = 1
        g = [3.0, 6.0, 6.0]       # g', g'', g''' at 1
        assert composite_derivative(h, g, 3) == pytest.approx(120.0)

    def test_exponential_of_identity(self):
        # h = exp, g = id: n-th derivative is exp(x).
        x = 0.7
        e = math.exp(x)
        h = [e] * 6
        g = [1.0] + [0.0] * 5
        for n in range(1, 7):
            assert composite_derivative(h, g, n) == pytest.approx(e)

    def test_sin_of_square_against_finite_differences(self):
        # 4th derivative of sin(x^2) at x = 0.8 by Richardson extrapolation.
        x = 0.8
        u = x * x
        h = [math.cos(u), -math.sin(u), -math.cos(u), math.sin(u)]
        g = [2 * x, 2.0, 0.0, 0.0]
        exact = composite_derivative(h, g, 4)

        def f(y):
            return math.sin(y * y)

        def fourth(step):
            return (f(x - 2 * step) - 4 * f(x - step) + 6 * f(x)
                    - 4 * f(x + step) + f(x + 2 * step)) / step ** 4

        fd = (4 * fourth(0.005) - fourth(0.01)) / 3
        assert exact == pytest.approx(fd, rel=1e-5)

    def test_short_tables_rejected(self):
        with pytest.raises(ValueError):
            composite_derivative([1.0], [1.0], 2)
