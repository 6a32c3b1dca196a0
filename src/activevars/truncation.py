"""Interaction-order truncation levels and their certifying tail sums.

An error demand ``eps`` and dimension ``d`` determine how many interacting
variables matter.  The general level ``m1`` is the smallest ``m`` whose
weighted binomial tail ``sum_{k>m} C(d,k) (C_0^2/d)^k`` drops to ``eps^2``;
it never exceeds ``min(d, ceil(M))`` where ``M`` solves
``(M+1)! / C_0^{2(M+1)} = e^{C_0^2} / eps^2``.  Under embedded-norm
orthogonality a far smaller level ``m2`` applies, driven by the geometric
ratio ``C_0^2/d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidArgumentError

__all__ = [
    "TruncationReport",
    "binomial_tail",
    "truncation_level",
    "factorial_majorant",
    "orthogonal_truncation_level",
    "orthogonal_level_bound",
]


@lru_cache(maxsize=256)
def _tail_terms(d: int, c0sq: float) -> tuple[float, ...]:
    """Terms ``T_k = C(d,k) (c0sq/d)^k`` for ``k = 1..d`` in log space.

    Generation stops once terms underflow to 0.0 past the peak (the term
    ratio ``(d-k)/(k+1) * c0sq/d`` is < 1 for ``k + 1 > c0sq``, so every
    later term underflows as well).
    """
    log_ratio = math.log(c0sq) - math.log(d)
    lg_d1 = math.lgamma(d + 1)
    terms: list[float] = []
    for k in range(1, d + 1):
        log_t = lg_d1 - math.lgamma(k + 1) - math.lgamma(d - k + 1) + k * log_ratio
        t = math.exp(log_t) if log_t > -745.0 else 0.0
        terms.append(t)
        if t == 0.0 and k > c0sq:
            break
    return tuple(terms)


def _check_eps_d(epsilon: float, d: int) -> None:
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    if d < 1:
        raise InvalidArgumentError("d must be >= 1")


def binomial_tail(d: int, m: int, c0sq: float) -> float:
    """Exact tail ``sum_{k=m+1}^{d} C(d,k) (c0sq/d)^k``, compensated.

    Returns 0 for ``m = d`` (empty sum).
    """
    if d < 1:
        raise InvalidArgumentError("d must be >= 1")
    if not 0 <= m <= d:
        raise InvalidArgumentError(f"need 0 <= m <= d, got m={m}, d={d}")
    if c0sq <= 0:
        raise InvalidArgumentError("c0sq must be positive")
    terms = _tail_terms(d, float(c0sq))
    return math.fsum(terms[m:])


@dataclass(frozen=True)
class TruncationReport:
    """Truncation levels for one ``(eps, d)`` pair plus their certificates.

    ``tail_at_level <= eps^2`` always, and ``tail_above_level > eps^2``
    whenever ``level > 0`` (minimality).  ``orthogonal_level`` is populated
    only when an orthogonality constant was supplied.
    """

    epsilon: float
    d: int
    c0sq: float
    level: int
    tail_at_level: float
    tail_above_level: float | None
    majorant: float
    majorant_ceil: int
    orthogonal_level: int | None = None
    c_const: float | None = None


def truncation_level(
    epsilon: float, d: int, c0sq: float, c_const: float | None = None
) -> TruncationReport:
    """Smallest ``m`` with ``binomial_tail(d, m, c0sq) <= eps^2``.

    Found by ascending scan, so the report carries both the certifying tail
    at the level and the tail one step above it.  When ``c_const`` is given
    the orthogonal-case level is computed alongside.
    """
    _check_eps_d(epsilon, d)
    eps_sq = epsilon * epsilon
    m = 0
    tail = binomial_tail(d, 0, c0sq)
    prev = None
    while tail > eps_sq:
        prev = tail
        m += 1
        tail = binomial_tail(d, m, c0sq)
    big_m = factorial_majorant(epsilon, c0sq)
    return TruncationReport(
        epsilon=epsilon,
        d=d,
        c0sq=c0sq,
        level=m,
        tail_at_level=tail,
        tail_above_level=prev,
        majorant=big_m,
        majorant_ceil=math.ceil(big_m),
        orthogonal_level=(
            None
            if c_const is None
            else orthogonal_truncation_level(epsilon, d, c0sq, c_const)
        ),
        c_const=c_const,
    )


def factorial_majorant(epsilon: float, c0sq: float, refined: bool = False) -> float:
    """Dimension-free majorant ``M(eps)`` of the truncation level.

    Unrefined: the real root of ``(M+1)! / c0sq^{M+1} = e^{c0sq} / eps^2``
    with the factorial extended through log-gamma, solved by bisection on
    ``[0, 400]`` to absolute 1e-9 (clamped at 0 when the root is negative).

    Refined: the minimal integer ``M`` with ``c0sq/(M+1) < 1`` and
    ``(M+1)!/c0sq^{M+1} >= 1/(eps^2 (1 - c0sq/(M+1)))``, which sharpens the
    exponential factor to a geometric-series factor.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    if c0sq <= 0:
        raise InvalidArgumentError("c0sq must be positive")
    log_c = math.log(c0sq)
    if refined:
        m = max(0, math.ceil(c0sq - 1.0))
        while True:
            ratio = c0sq / (m + 1)
            if ratio < 1.0:
                lhs = math.lgamma(m + 2) - (m + 1) * log_c
                rhs = -2.0 * math.log(epsilon) - math.log1p(-ratio)
                if lhs >= rhs:
                    return float(m)
            m += 1

    def g(m: float) -> float:
        return math.lgamma(m + 2.0) - (m + 1.0) * log_c - c0sq + 2.0 * math.log(epsilon)

    lo, hi = 0.0, 400.0
    if g(lo) >= 0.0:
        return 0.0
    if g(hi) <= 0.0:  # pragma: no cover - needs eps far below float range
        raise InvalidArgumentError("majorant exceeds the supported bracket [0, 400]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def orthogonal_truncation_level(
    epsilon: float, d: int, c0sq: float, c_const: float = 1.0
) -> int:
    """Truncation level under embedded-norm orthogonality.

    Three branches: when ``d < c0sq`` the geometric ratio exceeds one and
    the level collapses to 0 or ``d`` depending on whether the full product
    ``(c0sq/d)^d`` already meets ``eps^2 / C``; otherwise the level is
    ``min{k : (c0sq/d)^{k+1} <= eps^2/C}``, evaluated in closed form as
    ``ceil(ln(C/eps^2) / ln(d/c0sq)) - 1`` and clamped to ``[0, d]``.
    """
    _check_eps_d(epsilon, d)
    if not c_const >= 1.0:
        raise InvalidArgumentError("orthogonality constant must be >= 1")
    log_thr = 2.0 * math.log(epsilon) - math.log(c_const)
    log_ratio = math.log(c0sq) - math.log(d)
    if d < c0sq:
        return 0 if d * log_ratio <= log_thr else d
    if log_ratio >= 0.0:
        # d == c0sq: the ratio is 1 and no finite power meets the threshold.
        return d
    k = math.ceil(log_thr / log_ratio) - 1
    return min(d, max(0, k))


def orthogonal_level_bound(epsilon: float, lambda11: float, delta: float) -> float:
    """Dimension-free bound ``max(lambda_1 e^{1/delta}, delta ln(1/eps^2))``."""
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    return max(lambda11 * math.exp(1.0 / delta), -2.0 * delta * math.log(epsilon))
