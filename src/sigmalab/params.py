"""Model parameters and derived structural constants.

The equation under study is

    u_tt + (-Lap)^sigma u + mu (-Lap)^delta u_t = f(u, u_t)

with sigma >= 1, mu > 0 and delta in (0, sigma/2), posed with data
(u0, u1) measured in L^m-regularised Sobolev spaces built on L^q.

All parameters are carried as exact rationals (`fractions.Fraction`)
so that interval endpoints computed downstream (admissibility bounds,
decay exponents) come out as exact rationals, not floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

__all__ = ["ModelParams", "ValidationReport", "as_fraction", "validate",
           "parabolic_band_holds"]

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike | float) -> Fraction:
    """Convert a value to an exact Fraction.

    Strings may be given as "a/b" or decimal literals; floats are
    converted exactly (callers who want a nice rational should pass a
    string or Fraction).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@lru_cache(maxsize=4096)
def _parse_fraction(text: str) -> Fraction:
    """Fraction of a string.  Configs repeat a few hundred distinct
    values across thousands of cases, and a Fraction is immutable, so
    the parsed values are shared."""
    return Fraction(text.strip())


@dataclass(frozen=True)
class ModelParams:
    """The tuple (sigma, delta, mu, n, q, m, s, p) driving every formula.

    Fields
    ------
    sigma : Fraction, >= 1
        Order of the leading spatial operator (-Lap)^sigma.
    delta : Fraction, in (0, sigma/2)
        Order of the structural damping (-Lap)^delta u_t.
    mu : Fraction, > 0
        Damping strength.
    n : int
        Space dimension.
    q : Fraction, in (1, inf)
        Lebesgue base exponent of the data space.
    m : Fraction, in [1, q)
        Additional data-regularity exponent (data also in L^m).
    s : Fraction, >= 0
        Sobolev smoothness of the data.
    p : Fraction or None
        Nonlinearity exponent; None for linear-only runs.
    """

    sigma: Fraction = Fraction(1)
    delta: Fraction = Fraction(1, 4)
    mu: Fraction = Fraction(1)
    n: int = 1
    q: Fraction = Fraction(2)
    m: Fraction = Fraction(1)
    s: Fraction = Fraction(0)
    p: Optional[Fraction] = None

    @staticmethod
    def make(
        sigma: RationalLike = 1,
        delta: RationalLike = "1/4",
        mu: RationalLike = 1,
        n: int = 1,
        q: RationalLike = 2,
        m: RationalLike = 1,
        s: RationalLike = 0,
        p: Optional[RationalLike] = None,
    ) -> "ModelParams":
        """Build ModelParams, coercing every entry to an exact Fraction."""
        return ModelParams(
            sigma=as_fraction(sigma),
            delta=as_fraction(delta),
            mu=as_fraction(mu),
            n=int(n),
            q=as_fraction(q),
            m=as_fraction(m),
            s=as_fraction(s),
            p=None if p is None else as_fraction(p),
        )

    # Float views, convenient for the numerical modules.
    @property
    def sigma_f(self) -> float:
        return float(self.sigma)

    @property
    def delta_f(self) -> float:
        return float(self.delta)

    @property
    def mu_f(self) -> float:
        return float(self.mu)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parameter validation.

    `violations` lists broken standing assumptions (these make the
    parameters unusable).
    """

    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def threshold_n0(params: ModelParams) -> Fraction:
    """Dimension threshold n0 = (6 delta - 2 sigma) / (sigma - 2 delta)
    of the parabolic band floor(n/2) < n0; needs delta < sigma/2."""
    sigma, delta = params.sigma, params.delta
    # Both terms scaled by the product of the two denominators: one
    # Fraction of two integers instead of six Fraction operations, as
    # every A-variant admissibility case computes n0.
    a = sigma.numerator * delta.denominator
    b = delta.numerator * sigma.denominator
    return Fraction(6 * b - 2 * a, a - 2 * b)


def threshold_n1(params: ModelParams) -> Fraction:
    """Loss-of-decay dimension threshold n1 = 4 m q (sigma - delta) / (q - m)
    of the B-variant gate n > n1; needs m < q."""
    q, m = params.q, params.m
    return 4 * m * q * (params.sigma - params.delta) / (q - m)


def require_valid(params: ModelParams) -> None:
    """Raise ValueError naming every violated standing assumption."""
    report = validate(params)
    if not report.ok:
        raise ValueError("invalid model parameters: " + "; ".join(report.violations))


def validate(params: ModelParams) -> ValidationReport:
    """Check the standing assumptions; report all failures, throw nothing.

    The parabolic-band condition floor(n/2) < n0 is not checked here:
    it only restricts which existence theorems apply (the A-variants),
    and parameters outside that band are still perfectly valid for the
    linear theory and for the B-variant theorems.  parabolic_band_holds
    tests it.
    """
    violations: list[str] = []
    if params.sigma < 1:
        violations.append("sigma >= 1 violated")
    if not (0 < params.delta < params.sigma / 2):
        violations.append("delta in (0, sigma/2) violated")
    if params.mu <= 0:
        violations.append("mu > 0 violated")
    if params.n < 1:
        violations.append("n >= 1 violated")
    if params.q <= 1:
        violations.append("q > 1 violated")
    if not (1 <= params.m < params.q):
        violations.append("1 <= m < q violated")
    if params.s < 0:
        violations.append("s >= 0 violated")
    if params.p is not None and params.p <= 1:
        violations.append("p > 1 violated")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def parabolic_band_holds(params: ModelParams) -> bool:
    """Gate floor(n/2) < n0 used by the A-variant theorems."""
    return params.n // 2 < threshold_n0(params)
