"""Exact-rational parameter handling and the dimension thresholds."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sigmalab.params import (ModelParams, as_fraction, parabolic_band_holds,
                             require_valid, threshold_n0, threshold_n1, validate)


class TestAsFraction:
    def test_ratio_string(self):
        assert as_fraction("9/10") == Fraction(9, 10)

    def test_integer(self):
        assert as_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        assert as_fraction(Fraction(7, 8)) == Fraction(7, 8)

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            as_fraction("banana")

    @given(st.integers(-1000, 1000), st.integers(1, 1000))
    def test_string_roundtrip(self, num, den):
        frac = Fraction(num, den)
        assert as_fraction(str(frac)) == frac


class TestModelParams:
    def test_make_coerces_everything(self):
        p = ModelParams.make(sigma=2, delta="9/10", mu=1, n=3, q=5, m=1, s="3/2")
        assert p.sigma == Fraction(2)
        assert p.delta == Fraction(9, 10)
        assert p.s == Fraction(3, 2)
        assert p.p is None

    def test_validate_accepts_reference_parameters(self):
        assert validate(ModelParams.make(sigma=1, delta="1/4", mu=1)).ok
        assert validate(ModelParams.make(sigma=2, delta="9/10", mu=1, q=5)).ok

    def test_validate_rejects_damping_outside_band(self):
        report = validate(ModelParams.make(sigma=1, delta="3/4", mu=1))
        assert not report.ok
        assert any("delta" in v for v in report.violations)

    def test_validate_rejects_nonpositive_mu(self):
        assert not validate(ModelParams.make(mu=0)).ok

    def test_validate_rejects_m_not_below_q(self):
        assert not validate(ModelParams.make(q=2, m=2)).ok

    def test_parabolic_gate(self):
        # n0 = 7 for sigma=2, delta=9/10: gate floor(n/2) < 7
        assert parabolic_band_holds(ModelParams.make(sigma=2, delta="9/10", n=3))
        assert not parabolic_band_holds(
            ModelParams.make(sigma=2, delta="9/10", n=15))
        # n0 = -1 for sigma=1, delta=1/4: gate never holds
        assert not parabolic_band_holds(ModelParams.make(sigma=1, delta="1/4", n=1))


class TestDerivedConstants:
    def test_reference_set_one(self):
        # sigma=2, delta=9/10, q=5, m=1, n=3
        p = ModelParams.make(sigma=2, delta="9/10", mu=1, n=3, q=5, m=1)
        assert threshold_n0(p) == Fraction(7)       # (27/5-4)/(1/5)
        assert threshold_n1(p) == Fraction(11, 2)   # 4*1*5*(11/10)/4

    def test_reference_set_small(self):
        # sigma=1, delta=1/4, q=2, m=1, n=1
        p = ModelParams.make(sigma=1, delta="1/4", mu=1, n=1, q=2, m=1)
        assert threshold_n0(p) == Fraction(-1)
        assert threshold_n1(p) == Fraction(6)

    @given(st.fractions(min_value=1, max_value=20, max_denominator=60),
           st.integers(1, 99))
    def test_n0_matches_rational_formula(self, sigma, k):
        delta = sigma / 2 * Fraction(k, 100)
        n0 = threshold_n0(ModelParams(sigma=sigma, delta=delta))
        assert n0 == (6 * delta - 2 * sigma) / (sigma - 2 * delta)

    def test_degenerate_q_equals_m_rejected(self):
        p = ModelParams.make(q=2, m=2)
        with pytest.raises(ValueError, match="1 <= m < q violated"):
            require_valid(p)
