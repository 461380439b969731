"""Standalone numerical utilities: the Duhamel integral bound and
Faa di Bruno combinatorics for higher derivatives of compositions.

scipy.integrate is imported by duhamel_integral on its first call, so
importing this module loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, log
from typing import Sequence

import numpy as np

__all__ = [
    "Partition", "duhamel_integral", "duhamel_bound",
    "faa_di_bruno_partitions", "composite_derivative",
]


@dataclass(frozen=True)
class Partition:
    """A solution of 1*m1 + 2*m2 + ... + n*mn = n with its multinomial weight.

    coefficient = n! / prod_j (m_j! * (j!)^{m_j}), always a positive integer.
    """

    multiplicities: tuple[int, ...]
    coefficient: int

    @property
    def order(self) -> int:
        """Total derivative order k = sum m_j taken of the outer function."""
        return sum(self.multiplicities)


def duhamel_integral(alpha: float, beta: float, t: float) -> float:
    """I(t) = integral_0^t (1 + t - tau)^{-alpha} (1 + tau)^{-beta} d tau.

    Adaptive quadrature, relative accuracy 1e-8.  The integrand is
    bounded on [0, t] but can be sharply peaked at either endpoint, so
    the integral is split at t/2 and each half handled by adaptive
    Gauss-Kronrod.
    """
    from scipy.integrate import quad

    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0

    def integrand(tau: float) -> float:
        return (1.0 + t - tau) ** (-alpha) * (1.0 + tau) ** (-beta)

    half = 0.5 * t
    val1, _ = quad(integrand, 0.0, half, epsabs=0.0, epsrel=1e-10, limit=200)
    val2, _ = quad(integrand, half, t, epsabs=0.0, epsrel=1e-10, limit=200)
    return val1 + val2


def duhamel_bound(alpha: float, beta: float, t: float) -> float:
    """Right-hand side (without constant) of the Duhamel integral lemma:

        (1+t)^{-min(alpha, beta)}              if max(alpha, beta) > 1,
        (1+t)^{-min(alpha, beta)} log(2+t)     if max(alpha, beta) = 1,
        (1+t)^{1-alpha-beta}                   if max(alpha, beta) < 1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lo, hi = min(alpha, beta), max(alpha, beta)
    if hi > 1.0:
        return (1.0 + t) ** (-lo)
    if hi == 1.0:
        return (1.0 + t) ** (-lo) * log(2.0 + t)
    return (1.0 + t) ** (1.0 - alpha - beta)


def faa_di_bruno_partitions(n: int) -> list[Partition]:
    """All multiplicity vectors (m1, ..., mn) with sum j*m_j = n.

    Enumerated in lexicographic order of the multiplicity vector, with
    exact integer coefficients n!/prod(m_j! (j!)^{m_j}).  The number of
    solutions is the integer-partition number p(n); the coefficients sum
    to the Bell number B_n.
    """
    if not (1 <= n <= 20):
        raise ValueError("n must be in 1..20")
    results: list[tuple[int, ...]] = []

    def extend(prefix: list[int], j: int, remaining: int) -> None:
        if j == n + 1:
            if remaining == 0:
                results.append(tuple(prefix))
            return
        max_mj = remaining // j
        for mj in range(max_mj + 1):
            extend(prefix + [mj], j + 1, remaining - j * mj)

    extend([], 1, n)
    results.sort()
    partitions = []
    n_fact = factorial(n)
    for mult in results:
        denom = 1
        for j, mj in enumerate(mult, start=1):
            denom *= factorial(mj) * factorial(j) ** mj
        partitions.append(Partition(multiplicities=mult, coefficient=n_fact // denom))
    return partitions


def composite_derivative(h_derivs: Sequence[float], g_derivs: Sequence[float],
                         n: int) -> float:
    """n-th derivative of h(g(x)) from derivative tables.

    Parameters
    ----------
    h_derivs : h^{(k)}(g(x)) for k = 1..n (index 0 holds k = 1).
    g_derivs : g^{(j)}(x) for j = 1..n (index 0 holds j = 1).
    n : derivative order.

    Implements the multiplicity-vector form of the chain rule for higher
    derivatives:

        sum over (m1..mn) with sum j*m_j = n of
        n!/prod(m_j! (j!)^{m_j}) * h^{(sum m_j)}(g) * prod (g^{(j)})^{m_j}.
    """
    if len(h_derivs) < n or len(g_derivs) < n:
        raise ValueError(f"need h and g derivatives up to order {n}")
    total = 0.0
    for part in faa_di_bruno_partitions(n):
        term = float(part.coefficient) * h_derivs[part.order - 1]
        for j, mj in enumerate(part.multiplicities, start=1):
            if mj:
                term *= g_derivs[j - 1] ** mj
        total += term
    return total
