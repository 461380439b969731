"""Exact exponent intervals, their gates and the Gagliardo-Nirenberg windows."""

import re
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from sigmalab.admissibility import TheoremId, admissible_interval, gn_window
from sigmalab.params import ModelParams, threshold_n0, threshold_n1

SET1 = dict(sigma=2, delta="9/10", mu=1, q=5, m=1)
SET2 = dict(sigma=2, delta="7/8", mu=1, q=4, m=1)

#: (theorem, overrides, lower, lower_closed, upper, upper_closed)
GOLDEN = [
    (TheoremId.T2A, dict(SET1, n=3), Fraction(13, 2), False, None, False),
    (TheoremId.T3A, dict(SET1, n=3, s="3/2"), Fraction(13, 2), False, None, False),
    (TheoremId.T4A, dict(SET1, n=3, s="5/2"), Fraction(49, 8), False, None, False),
    (TheoremId.T5A, dict(SET1, n=5, s=5), Fraction(5), True, None, False),
    (TheoremId.T6A, dict(SET1, n=3, s=5), Fraction(5), True, None, False),
    (TheoremId.T2B, dict(SET2, n=9), Fraction(4), True, Fraction(9), True),
    (TheoremId.T3B, dict(SET2, n=9, s="9/5"), Fraction(4), True, Fraction(5), True),
    (TheoremId.T4B, dict(SET2, n=9, s="5/2"), Fraction(4), True, None, False),
    (TheoremId.T5B, dict(SET2, n=8, s=5), Fraction(4), False, None, False),
    (TheoremId.T6B, dict(SET2, n=9, s=5), Fraction(4), False, None, False),
]


class TestGoldenExamples:
    @pytest.mark.parametrize("theorem,overrides,lo,lo_closed,hi,hi_closed",
                             GOLDEN, ids=[g[0].value for g in GOLDEN])
    def test_interval_exact(self, theorem, overrides, lo, lo_closed, hi,
                            hi_closed):
        params = ModelParams.make(**overrides)
        interval = admissible_interval(theorem, params)
        assert not interval.empty
        assert interval.lower.value == lo
        assert interval.lower.closed == lo_closed
        if hi is None:
            assert interval.upper is None or interval.upper.value is None
        else:
            assert interval.upper.value == hi
            assert interval.upper.closed == hi_closed


class TestGates:
    def test_parabolic_gate_empties_a_variants(self):
        # sigma=1, delta=1/4 gives n0 = -1 < floor(n/2) for every n.
        params = ModelParams.make(sigma=1, delta="1/4", mu=1, n=1, q=2, m=1)
        interval = admissible_interval(TheoremId.T2A, params)
        assert interval.empty
        assert any(c.kind == "gate" and c.active
                   for c in interval.active_constraints)

    def test_dimension_gate_for_b_variants(self):
        # T2B needs n > n1 = 11/2 for set-1 parameters.
        params = ModelParams.make(**dict(SET1, n=5))
        interval = admissible_interval(TheoremId.T2B, params)
        assert interval.empty
        params_ok = ModelParams.make(**dict(SET1, n=7))
        assert not admissible_interval(TheoremId.T2B, params_ok).empty

    def test_smoothness_gate_t3(self):
        # T3 requires 0 < s < sigma.
        params = ModelParams.make(**dict(SET1, n=3, s=3))
        assert admissible_interval(TheoremId.T3A, params).empty

    def test_smoothness_gate_t5_needs_large_s(self):
        # T5 requires s > sigma + n/q.
        params = ModelParams.make(**dict(SET1, n=5, s=2))
        assert admissible_interval(TheoremId.T5A, params).empty

    def test_b_variant_lower_bound_is_one_plus_structural_gate(self):
        # B variants trade the structural exponent bound for the gate n > n1.
        interval = admissible_interval(TheoremId.T2B,
                                       ModelParams.make(**dict(SET2, n=9)))
        labels = [c.label for c in interval.active_constraints]
        assert labels[0] == "n > n1"
        assert "structural exponent bound" not in labels

    @settings(max_examples=150, deadline=None)
    @given(st.builds(
        lambda sigma, k, q, j, n, s: ModelParams.make(
            sigma=sigma, delta=sigma / 2 * Fraction(k, 20), q=q,
            m=1 + (q - 1) * Fraction(j, 10), n=n, s=s),
        sigma=st.integers(2, 8).map(lambda i: Fraction(i, 2)),
        # n0 = (3k - 40)/(20 - k): negative for k <= 13, up to 17 at k = 19.
        k=st.integers(1, 19),
        q=st.integers(3, 12).map(lambda i: Fraction(i, 2)),
        j=st.integers(0, 9), n=st.integers(1, 24),
        s=st.integers(0, 40).map(lambda i: Fraction(i, 4))))
    def test_first_gate_matches_derived_constants(self, params):
        """The n > n1 and floor(n/2) < n0 gates read the same constants,
        and say the same, as threshold_n1 and threshold_n0."""
        n, n0, n1 = params.n, threshold_n0(params), threshold_n1(params)
        for theorem in TheoremId:
            interval = admissible_interval(theorem, params)
            gate = interval.active_constraints[0]
            if theorem.is_b:
                ok = n > n1
                assert gate.label == "n > n1"
                assert gate.value == f"n = {n}, n1 = {n1}"
            else:
                half = floor(Fraction(n, 2))
                ok = half < n0
                assert gate.label == "parabolic band floor(n/2) < n0"
                assert gate.value == f"floor(n/2) = {half}, n0 = {n0}"
            assert gate.kind == "gate" and gate.active == (not ok)
            if not ok:
                assert interval.empty
                assert interval.empty_reason == f"gate: {gate.label}"

    @pytest.mark.parametrize("overrides,violation", [
        (dict(q=2, m=2), "1 <= m < q violated"),
        (dict(sigma=1, delta="1/2"), "delta in (0, sigma/2) violated"),
        (dict(mu=0), "mu > 0 violated"),
        (dict(sigma="1/2", delta="1/8"), "sigma >= 1 violated"),
    ])
    def test_invalid_parameters_raise(self, overrides, violation):
        params = ModelParams.make(**{**SET1, "n": 3, **overrides})
        for theorem in (TheoremId.T2A, TheoremId.T2B):
            with pytest.raises(ValueError, match=re.escape(violation)):
                admissible_interval(theorem, params)


class TestWindows:
    def test_gn_window_empties_in_high_dimension(self):
        # Family-2 window closes when n exceeds q^2 sigma / (q - m).
        params = ModelParams.make(**dict(SET2, n=12))
        window = gn_window(TheoremId.T2B, params)
        assert window.empty

    def test_gn_window_finite_upper(self):
        params = ModelParams.make(**dict(SET2, n=9))
        window = gn_window(TheoremId.T2B, params)
        assert window.upper.value == Fraction(9)

    def test_interval_contains_respects_openness(self):
        params = ModelParams.make(**dict(SET1, n=3))
        interval = admissible_interval(TheoremId.T2A, params)
        assert not interval.contains(Fraction(13, 2))
        assert interval.contains(Fraction(7))
        closed = admissible_interval(TheoremId.T2B,
                                     ModelParams.make(**dict(SET2, n=9)))
        assert closed.contains(Fraction(4))
        assert closed.contains(Fraction(9))
        assert not closed.contains(Fraction(10))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 12))
    def test_membership_implies_nonempty(self, num, n):
        params = ModelParams.make(**dict(SET2, n=n))
        interval = admissible_interval(TheoremId.T2B, params)
        if interval.contains(Fraction(num)):
            assert not interval.empty

