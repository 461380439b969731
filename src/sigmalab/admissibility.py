"""Closed-form admissibility engine for the global-existence theorems.

For each theorem variant this module computes, in exact rational
arithmetic, the admissible interval of nonlinearity exponents p as the
intersection of

* a structural lower bound (A-variants; replaced by the dimension gate
  n > n1 in the B-variants),
* a Gagliardo-Nirenberg application window,
* regularity lower bounds (p > 1 + ceil(s - sigma) or p > 1 + s - sigma),
* dimension and s-range gates.

Theorem naming: T2..T6 are the five existence theorems (data classes
L^m cap L^q with increasing Sobolev smoothness s), each in an A variant
(parabolic band floor(n/2) < n0) and a B variant (n > n1 instead of the
structural exponent condition).

Note on T4A: the structural bound encoded for T4A follows the worked
examples, which evaluate max{n - (m/q) n + m s, 4 m (sigma-delta)} /
(n - 2 m (sigma-delta)) without the additive unit that the displayed
condition carries (and that T2A/T3A/T5A keep).  The two sources
disagree; the worked-example value is the contract here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import ceil
from typing import Optional

from .params import ModelParams, require_valid, threshold_n0, threshold_n1

__all__ = [
    "TheoremId", "Endpoint", "Constraint", "AdmissibleInterval",
    "gn_window", "admissible_interval",
]


class TheoremId(str, Enum):
    T2A = "T2A"
    T2B = "T2B"
    T3A = "T3A"
    T3B = "T3B"
    T4A = "T4A"
    T4B = "T4B"
    T5A = "T5A"
    T5B = "T5B"
    T6A = "T6A"
    T6B = "T6B"

    @property
    def family(self) -> int:
        """2..6, the theorem number."""
        return int(self.value[1])

    @property
    def is_b(self) -> bool:
        return self.value.endswith("B")


@dataclass(frozen=True)
class Endpoint:
    """One interval endpoint with provenance."""

    value: Optional[Fraction]     # None encodes +infinity (upper endpoints)
    closed: bool
    source: str

    @property
    def infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class Constraint:
    """A named hypothesis with its role and whether it shaped the result."""

    label: str
    kind: str            # "lower" | "upper" | "gate"
    value: str           # human-readable bound value or gate outcome
    active: bool


@dataclass(frozen=True)
class AdmissibleInterval:
    lower: Optional[Endpoint]
    upper: Optional[Endpoint]
    empty: bool
    empty_reason: Optional[str] = None
    active_constraints: tuple[Constraint, ...] = field(default_factory=tuple)

    def contains(self, p: Fraction) -> bool:
        if self.empty:
            return False
        if self.lower is not None and self.lower.value is not None:
            if p < self.lower.value or (p == self.lower.value and not self.lower.closed):
                return False
        if self.upper is not None and self.upper.value is not None:
            if p > self.upper.value or (p == self.upper.value and not self.upper.closed):
                return False
        return True


def _structural_bound(theorem: TheoremId, params: ModelParams) -> Optional[Fraction]:
    """Exact structural lower bound for p, or None when no finite bound exists
    (nonpositive denominator)."""
    sigma, delta = params.sigma, params.delta
    n, q, m, s = params.n, params.q, params.m, params.s
    fam = theorem.family
    if fam == 6:
        den = n - 2 * m * (sigma - 2 * delta)
        if den <= 0:
            return None
        num = max(n - (m / q) * n + m * (s - 2 * delta), 2 * m * (2 * sigma - 3 * delta))
        return 1 + num / den
    den = n - 2 * m * (sigma - delta)
    if den <= 0:
        return None
    smooth = sigma if fam == 2 else s
    num = max(n - (m / q) * n + m * smooth, 4 * m * (sigma - delta))
    if fam == 4:
        # Worked-example arithmetic: no additive unit (see module docstring).
        return num / den
    return 1 + num / den


def gn_window(theorem: TheoremId, params: ModelParams) -> AdmissibleInterval:
    """Window of p for which the Gagliardo-Nirenberg step applies.

    Families 2/3: p in [q/m, inf) if n <= q*smooth, or
    [q/m, n/(n - q*smooth)] if n in (q*smooth, q^2*smooth/(q-m)], with
    smooth = sigma (family 2) or s (family 3); empty beyond that band.
    Family 4: p in [q/m, inf) if n <= q s, or [q/m, 1 + q sigma/(n - q s)]
    if n in (q s, q s + q m sigma/(q-m)].
    Families 5/6: p in [q/m, inf) with the dimension gates
    n > 2 m (sigma - delta) resp. n > 2 m (sigma - 2 delta).
    """
    theorem = TheoremId(theorem)
    sigma, delta = params.sigma, params.delta
    n, q, m, s = params.n, params.q, params.m, params.s
    fam = theorem.family
    lower = Endpoint(value=q / m, closed=True, source="GN window lower q/m")
    constraints: list[Constraint] = []

    if fam in (2, 3):
        smooth = sigma if fam == 2 else s
        if n <= q * smooth:
            return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False,
                                      active_constraints=tuple(constraints))
        if n <= q * q * smooth / (q - m):
            upper = Endpoint(n / (n - q * smooth), True, "GN window upper")
            return AdmissibleInterval(lower, upper, False,
                                      active_constraints=tuple(constraints))
        return AdmissibleInterval(None, None, True,
                                  empty_reason="n beyond GN dimension band")
    if fam == 4:
        if n <= q * s:
            return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False)
        if n <= q * s + q * m * sigma / (q - m):
            upper = Endpoint(1 + q * sigma / (n - q * s), True, "GN window upper")
            return AdmissibleInterval(lower, upper, False)
        return AdmissibleInterval(None, None, True,
                                  empty_reason="n beyond GN dimension band")
    # families 5 and 6: dimension gate, no upper endpoint
    gate_val = 2 * m * (sigma - delta) if fam == 5 else 2 * m * (sigma - 2 * delta)
    gate_name = ("n > 2m(sigma-delta)" if fam == 5 else "n > 2m(sigma-2delta)")
    ok = n > gate_val
    constraints.append(Constraint(gate_name, "gate", f"n = {n} vs {gate_val}", not ok))
    if not ok:
        return AdmissibleInterval(None, None, True, empty_reason=f"gate {gate_name}",
                                  active_constraints=tuple(constraints))
    return AdmissibleInterval(lower, Endpoint(None, False, "GN window"), False,
                              active_constraints=tuple(constraints))


def admissible_interval(theorem: TheoremId, params: ModelParams) -> AdmissibleInterval:
    """Full admissible p-interval: intersection of every hypothesis of the theorem.

    Raises ValueError naming the violations when the parameters break a
    standing assumption.
    """
    theorem = TheoremId(theorem)
    require_valid(params)
    sigma = params.sigma
    n, q, s = params.n, params.q, params.s
    fam = theorem.family
    constraints: list[Constraint] = []

    # --- gates ---------------------------------------------------------
    def gate(label: str, ok: bool, detail: str) -> Optional[AdmissibleInterval]:
        constraints.append(Constraint(label, "gate", detail, active=not ok))
        if not ok:
            return AdmissibleInterval(None, None, True, empty_reason=f"gate: {label}",
                                      active_constraints=tuple(constraints))
        return None

    if theorem.is_b:
        n1 = threshold_n1(params)
        failed = gate("n > n1", n > n1, f"n = {n}, n1 = {n1}")
    else:
        half, n0 = n // 2, threshold_n0(params)
        failed = gate("parabolic band floor(n/2) < n0", half < n0,
                      f"floor(n/2) = {half}, n0 = {n0}")
    if failed:
        return failed

    if fam == 3:
        failed = gate("0 < s < sigma", 0 < s < sigma, f"s = {s}, sigma = {sigma}")
    elif fam == 4:
        top = sigma + Fraction(n) / q
        failed = gate("sigma < s <= sigma + n/q", sigma < s <= top,
                      f"s = {s}, sigma + n/q = {top}")
    elif fam in (5, 6):
        top = sigma + Fraction(n) / q
        failed = gate("s > sigma + n/q", s > top, f"s = {s}, sigma + n/q = {top}")
    if failed:
        return failed

    # --- candidate lower bounds ---------------------------------------
    # Each entry: (value, closed, label).
    lowers: list[tuple[Fraction, bool, str]] = []

    if not theorem.is_b:
        bound = _structural_bound(theorem, params)
        if bound is None:
            constraints.append(Constraint("structural exponent bound", "gate",
                                          "no finite bound (denominator <= 0)", True))
            return AdmissibleInterval(None, None, True,
                                      empty_reason="structural bound denominator <= 0",
                                      active_constraints=tuple(constraints))
        lowers.append((bound, False, "structural exponent bound"))

    if fam == 4:
        reg = 1 + ceil(s - sigma)
        lowers.append((Fraction(reg), False, "regularity p > 1 + ceil(s - sigma)"))
    elif fam in (5, 6):
        lowers.append((1 + s - sigma, False, "regularity p > 1 + s - sigma"))

    window = gn_window(theorem, params)
    constraints.extend(window.active_constraints)
    if window.empty:
        return AdmissibleInterval(None, None, True, empty_reason=window.empty_reason,
                                  active_constraints=tuple(constraints))
    assert window.lower is not None and window.lower.value is not None
    lowers.append((window.lower.value, True, window.lower.source))

    # --- aggregate -----------------------------------------------------
    # Most restrictive lower bound; at equal values an open bound beats
    # a closed one.
    best_value = max(v for v, _, _ in lowers)
    open_at_best = [lab for v, c, lab in lowers if v == best_value and not c]
    closed_at_best = [lab for v, c, lab in lowers if v == best_value and c]
    closed = not open_at_best
    source = (open_at_best or closed_at_best)[0]
    lower = Endpoint(best_value, closed, source)

    upper = window.upper
    for v, c, lab in lowers:
        constraints.append(Constraint(lab, "lower", str(v), active=(v == best_value)))
    if upper is not None and not upper.infinite:
        constraints.append(Constraint(upper.source, "upper", str(upper.value), True))

    if upper is not None and upper.value is not None:
        if upper.value < lower.value or (
                upper.value == lower.value and not (upper.closed and lower.closed)):
            return AdmissibleInterval(lower, upper, True,
                                      empty_reason="lower bound exceeds GN upper endpoint",
                                      active_constraints=tuple(constraints))
    return AdmissibleInterval(lower, upper, False,
                              active_constraints=tuple(constraints))

