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
from math import gcd
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

    def __init__(self, value: str):
        self.family = int(value[1])  # 2..6, the theorem number
        self.is_b = value.endswith("B")


@dataclass(frozen=True, slots=True)
class Endpoint:
    """One interval endpoint with provenance."""

    value: Optional[Fraction]     # None encodes +infinity (upper endpoints)
    closed: bool
    source: str

    @property
    def infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True, slots=True)
class Constraint:
    """A named hypothesis with its role and whether it shaped the result."""

    label: str
    kind: str            # "lower" | "upper" | "gate"
    value: str           # human-readable bound value or gate outcome
    active: bool


@dataclass(frozen=True, slots=True)
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


#: The upper endpoint of a window that has no finite one.
_NO_UPPER = Endpoint(None, False, "GN window")


def _ratios(params: ModelParams) -> tuple[int, ...]:
    """(a, A, b, B, qn, qd, mn, md, tn, td): sigma = a/A, delta = b/B,
    q = qn/qd, m = mn/md and s = tn/td with positive denominators, so
    that a/b < c/d is decided as a d < c b."""
    return (*params.sigma.as_integer_ratio(), *params.delta.as_integer_ratio(),
            *params.q.as_integer_ratio(), *params.m.as_integer_ratio(),
            *params.s.as_integer_ratio())


def _text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _structural_bound(fam: int, n: int, r: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """(numerator, denominator > 0) of the structural lower bound for p, or
    None if the denominator is <= 0: 1 + max{n - (m/q) n + m z, m k} / (n - m j),
    (z, k, j) = (sigma, 4(sigma-delta), 2(sigma-delta)) in family 2, (s, ...) in
    3-5 and (s - 2 delta, 2(2 sigma - 3 delta), 2(sigma - 2 delta)) in 6."""
    a, A, b, B, qn, qd, mn, md, tn, td = r
    if fam == 6:  # k and j over A B, z = Z / ZD
        J, K = 2 * (a * B - 2 * b * A), 2 * (2 * a * B - 3 * b * A)
        Z, ZD = tn * B - 2 * b * td, td * B
    else:
        J = 2 * (a * B - b * A)
        K, (Z, ZD) = 2 * J, (a, A) if fam == 2 else (tn, td)
    Y = n * md * A * B - mn * J  # the denominator, over md A B
    if Y <= 0:
        return None
    X = max((n * (qn * md - mn * qd) * ZD + mn * Z * qn) * A * B,  # over md qn ZD A B
            mn * K * qn * ZD)
    D = qn * ZD * Y  # so that the quotient is X / D
    return (X if fam == 4 else X + D), D  # family 4: no unit (module docstring)


def _window(fam: int, n: int, r: tuple[int, ...]
            ) -> tuple[Optional[Endpoint], Optional[str], tuple[Constraint, ...]]:
    """gn_window from the _ratios r: its upper endpoint (None when the
    window is empty), the reason it is empty, and its constraints (the
    dimension gate of families 5 and 6).  Needs m < q."""
    a, A, b, B, qn, qd, mn, md, tn, td = r
    if fam >= 5:
        J = 2 * (a * B - b * A) if fam == 5 else 2 * (a * B - 2 * b * A)
        name = "n > 2m(sigma-delta)" if fam == 5 else "n > 2m(sigma-2delta)"
        ok = n * md * A * B > mn * J  # the gate value is mn J / (md A B)
        gate = Constraint(name, "gate", f"n = {n} vs {_text(mn * J, md * A * B)}", not ok)
        return (_NO_UPPER, None, (gate,)) if ok else (None, f"gate {name}", (gate,))
    Z, ZD = (a, A) if fam == 2 else (tn, td)  # smooth, s in family 4
    P = n * qd * ZD - qn * Z  # n - q smooth, over qd ZD
    if P <= 0:
        return _NO_UPPER, None, ()
    G = qn * md - mn * qd  # q - m > 0, over qd md
    if fam < 4 and P * G <= qn * mn * qd * Z:  # n <= q^2 smooth / (q - m)
        return Endpoint(Fraction(n * qd * ZD, P), True, "GN window upper"), None, ()
    if fam == 4 and P * G * A <= qn * mn * qd * a * td:  # n <= q s + q m sigma / (q - m)
        upper = Fraction(A * P + qn * a * td, A * P)  # 1 + q sigma / (n - q s)
        return Endpoint(upper, True, "GN window upper"), None, ()
    return None, "n beyond GN dimension band", ()


def gn_window(theorem: TheoremId, params: ModelParams) -> AdmissibleInterval:
    """Window of p for which the Gagliardo-Nirenberg step applies.

    Families 2/3: p in [q/m, inf) if n <= q*smooth, or
    [q/m, n/(n - q*smooth)] if n in (q*smooth, q^2*smooth/(q-m)], with
    smooth = sigma (family 2) or s (family 3); empty beyond that band.
    Family 4: p in [q/m, inf) if n <= q s, or [q/m, 1 + q sigma/(n - q s)]
    if n in (q s, q s + q m sigma/(q-m)].
    Families 5/6: p in [q/m, inf) with the dimension gates
    n > 2 m (sigma - delta) resp. n > 2 m (sigma - 2 delta).  Raises
    ValueError as admissible_interval does.
    """
    require_valid(params)
    upper, reason, gates = _window(TheoremId(theorem).family, params.n, _ratios(params))
    if upper is None:
        return AdmissibleInterval(None, None, True, reason, gates)
    lower = Endpoint(params.q / params.m, True, "GN window lower q/m")
    return AdmissibleInterval(lower, upper, False, None, gates)


def admissible_interval(theorem: TheoremId, params: ModelParams) -> AdmissibleInterval:
    """Full admissible p-interval: intersection of every hypothesis of the theorem.

    Raises ValueError naming the violations when the parameters break a
    standing assumption.  Bounds are compared as integer cross-products
    (_ratios); a Fraction is built only for a returned endpoint.
    """
    theorem = TheoremId(theorem)
    require_valid(params)
    r = a, A, b, B, qn, qd, mn, md, tn, td = _ratios(params)
    n, fam, is_b = params.n, theorem.family, theorem.is_b
    constraints: list[Constraint] = []

    # --- gates ---------------------------------------------------------
    def gate(label: str, ok: bool, detail: str) -> Optional[AdmissibleInterval]:
        constraints.append(Constraint(label, "gate", detail, not ok))
        return None if ok else AdmissibleInterval(None, None, True, f"gate: {label}",
                                                  tuple(constraints))

    if is_b:
        n1 = threshold_n1(params)
        failed = gate("n > n1", n * n1.denominator > n1.numerator, f"n = {n}, n1 = {n1}")
    else:
        half, n0 = n // 2, threshold_n0(params)
        failed = gate("parabolic band floor(n/2) < n0",
                      half * n0.denominator < n0.numerator,
                      f"floor(n/2) = {half}, n0 = {n0}")
    if failed:
        return failed

    top, top_d = a * qn + n * qd * A, A * qn  # sigma + n/q
    if fam == 3:
        failed = gate("0 < s < sigma", 0 < tn and tn * A < a * td,
                      f"s = {params.s}, sigma = {params.sigma}")
    elif fam == 4:
        failed = gate("sigma < s <= sigma + n/q",
                      a * td < tn * A and tn * top_d <= top * td,
                      f"s = {params.s}, sigma + n/q = {_text(top, top_d)}")
    elif fam >= 5:
        failed = gate("s > sigma + n/q", tn * top_d > top * td,
                      f"s = {params.s}, sigma + n/q = {_text(top, top_d)}")
    if failed:
        return failed

    # --- candidate lower bounds: (numerator, denominator > 0, closed, label)
    lowers: list[tuple[int, int, bool, str]] = []
    if not is_b:
        bound = _structural_bound(fam, n, r)
        if bound is None:
            constraints.append(Constraint("structural exponent bound", "gate",
                                          "no finite bound (denominator <= 0)", True))
            return AdmissibleInterval(None, None, True,
                                      "structural bound denominator <= 0",
                                      tuple(constraints))
        lowers.append((*bound, False, "structural exponent bound"))
    if fam == 4:  # 1 + ceil(s - sigma), s - sigma = (tn A - a td) / (td A)
        lowers.append((1 - (a * td - tn * A) // (td * A), 1, False,
                       "regularity p > 1 + ceil(s - sigma)"))
    elif fam >= 5:
        lowers.append(((td + tn) * A - a * td, td * A, False,
                       "regularity p > 1 + s - sigma"))

    upper, reason, window_gates = _window(fam, n, r)
    constraints.extend(window_gates)
    if upper is None:
        return AdmissibleInterval(None, None, True, reason, tuple(constraints))
    lowers.append((qn * md, qd * mn, True, "GN window lower q/m"))

    # --- aggregate -----------------------------------------------------
    # Most restrictive lower bound; at equal values an open bound beats a
    # closed one, and the one closed bound (q/m) is last: the first largest wins.
    bn, bd, closed, source = lowers[0]
    for low in lowers[1:]:
        if low[0] * bd > bn * low[1]:
            bn, bd, closed, source = low
    for num, den, _, label in lowers:
        constraints.append(Constraint(label, "lower", _text(num, den),
                                      num * bd == bn * den))
    lower = Endpoint(Fraction(bn, bd), closed, source)
    if upper is _NO_UPPER:
        return AdmissibleInterval(lower, upper, False, None, tuple(constraints))
    constraints.append(Constraint(upper.source, "upper", str(upper.value), True))
    un, ud = upper.value.as_integer_ratio()  # a closed endpoint
    empty = un * bd < bn * ud or (un * bd == bn * ud and not closed)
    reason = "lower bound exceeds GN upper endpoint" if empty else None
    return AdmissibleInterval(lower, upper, empty, reason, tuple(constraints))
