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
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidArgumentError, UnsupportedScaleError
from .spectrum import _constant, _count, _demand, _finite_positive, _integers

__all__ = [
    "TruncationReport",
    "binomial_tail",
    "truncation_level",
    "factorial_majorant",
    "orthogonal_truncation_level",
    "orthogonal_level_bound",
]

# e^x is finite exactly for x <= _LOG_MAX, the log of the largest double.
_LOG_MAX = math.log(sys.float_info.max)


@lru_cache(maxsize=256)
def _tail_terms(d: int, c0sq: float) -> tuple[float, ...]:
    """Terms ``T_k = C(d,k) (c0sq/d)^k`` for ``k = 1..d`` in log space.

    Generation stops once terms underflow to 0.0 past the peak (the term
    ratio ``(d-k)/(k+1) * c0sq/d`` is < 1 for ``k + 1 > c0sq``, so every
    later term underflows as well).  A term beyond double range (``C_0^2``
    above ~709) is ``inf``: it exceeds every ``eps^2``, so levels stay exact.
    """
    log_ratio = math.log(c0sq) - math.log(d)
    lg_d1 = math.lgamma(d + 1)
    terms: list[float] = []
    for k in range(1, d + 1):
        log_t = lg_d1 - math.lgamma(k + 1) - math.lgamma(d - k + 1) + k * log_ratio
        t = math.inf if log_t > _LOG_MAX else math.exp(log_t) if log_t > -745.0 else 0.0
        terms.append(t)
        if t == 0.0 and k > c0sq:
            break
    return tuple(terms)


def _tail_sum(terms: tuple[float, ...], m: int) -> float:
    """``fsum(terms[m:])``; ``inf`` where the sum leaves double range."""
    try:
        return math.fsum(terms[m:])
    except OverflowError:  # fsum's intermediate overflow of finite terms
        return math.inf


def binomial_tail(d: int, m: int, c0sq: float) -> float:
    """Exact tail ``sum_{k=m+1}^{d} C(d,k) (c0sq/d)^k``, compensated.

    Returns 0 for ``m = d`` (empty sum) and ``inf`` beyond double range.
    ``d`` and ``m`` are Python or numpy integers and ``c0sq`` a finite
    positive real; ``bool`` is neither.
    """
    d, c0sq = _count(d, "d"), _finite_positive(c0sq, "c0sq")
    (m,) = _integers((m,), "m")
    if not 0 <= m <= d:
        raise InvalidArgumentError(f"need 0 <= m <= d, got m={m}, d={d}")
    return _tail_sum(_tail_terms(d, c0sq), m)


@dataclass(frozen=True)
class TruncationReport:
    """The truncation level for one ``(eps, d)`` pair plus its certificates.

    ``tail_at_level <= eps^2`` always, and ``tail_above_level > eps^2``
    whenever ``level > 0`` (minimality).
    """

    level: int
    tail_at_level: float
    tail_above_level: float | None


def truncation_level(epsilon: float, d: int, c0sq: float) -> TruncationReport:
    """Smallest ``m`` with ``binomial_tail(d, m, c0sq) <= eps^2``.

    Found by ascending scan, so the report carries both the certifying tail
    at the level and the tail one step above it.  The scan starts at the
    largest ``k`` with ``T_k > eps^2`` (or 0): the tail of every lower level
    holds ``T_k``, and a compensated sum is never below one of its
    nonnegative terms.  ``epsilon`` is a real in ``(0, 1)``; ``d`` and
    ``c0sq`` are checked as in :func:`binomial_tail`.
    """
    epsilon = _demand(epsilon)
    d, c0sq = _count(d, "d"), _finite_positive(c0sq, "c0sq")
    eps_sq = epsilon * epsilon
    terms = _tail_terms(d, c0sq)
    m = next((k for k in range(len(terms), 0, -1) if terms[k - 1] > eps_sq), 0)
    tail = _tail_sum(terms, m)
    prev = _tail_sum(terms, m - 1) if m else None
    while tail > eps_sq:
        prev = tail
        m += 1
        tail = _tail_sum(terms, m)
    return TruncationReport(level=m, tail_at_level=tail, tail_above_level=prev)


def factorial_majorant(epsilon: float, c0sq: float, refined: bool = False) -> float:
    """Dimension-free majorant ``M(eps)`` of the truncation level.

    Unrefined: the real root of ``(M+1)! / c0sq^{M+1} = e^{c0sq} / eps^2``
    with the factorial extended through log-gamma, solved by bisection on
    ``[0, 400]`` to absolute 1e-9 (clamped at 0 when the root is negative).

    Refined: the minimal integer ``M`` with ``M + 1 > c0sq`` and
    ``(M+1)!/c0sq^{M+1} >= 1/(eps^2 (1 - c0sq/(M+1)))``, which sharpens the
    exponential factor to a geometric-series factor.  Past ``M + 1 > c0sq``
    the left side grows and the right side falls with ``M``, so the minimum
    is found by galloping, then bisecting, over the integers.
    ``epsilon`` is a real in ``(0, 1)`` and ``c0sq`` a finite positive real.
    """
    epsilon = _demand(epsilon)
    c0sq = _finite_positive(c0sq, "c0sq")
    log_c = math.log(c0sq)
    if refined:
        log_eps_sq = 2.0 * math.log(epsilon)

        def holds(m: int) -> bool:
            ratio = c0sq / (m + 1)
            if ratio >= 1.0:  # m + 1 within rounding of c0sq: 1 - ratio is not positive
                return False
            lhs = math.lgamma(m + 2) - (m + 1) * log_c
            return lhs >= -log_eps_sq - math.log1p(-ratio)

        hi, step = math.floor(c0sq), 1  # the least m >= 0 with m + 1 > c0sq
        lo = hi - 1
        while not holds(hi):
            lo, hi, step = hi, hi + step, 2 * step
        while hi - lo > 1:  # holds(hi); lo fails or lies below the search range
            mid = (lo + hi) // 2
            if holds(mid):
                hi = mid
            else:
                lo = mid
        return float(hi)

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
    ``epsilon`` is a real in ``(0, 1)``, ``d`` and ``c0sq`` are checked as
    in :func:`binomial_tail`, and ``c_const`` must be a finite real ``>= 1``.
    """
    epsilon = _demand(epsilon)
    d, c0sq = _count(d, "d"), _finite_positive(c0sq, "c0sq")
    c_const = _constant(c_const)
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
    """Dimension-free bound ``max(lambda_1 e^{1/delta}, delta ln(1/eps^2))``.

    ``epsilon`` is a real in ``(0, 1)``; ``lambda11`` and ``delta`` are
    finite positive reals.  ``lambda_1 e^{1/delta}`` is taken in log space;
    a bound beyond double range raises :class:`UnsupportedScaleError`.
    """
    epsilon = _demand(epsilon)
    lambda11, delta = _finite_positive(lambda11, "lambda11"), _finite_positive(delta, "delta")
    log_first, second = math.log(lambda11) + 1.0 / delta, -2.0 * delta * math.log(epsilon)
    if not (log_first <= _LOG_MAX and second < math.inf):
        raise UnsupportedScaleError(f"the level bound exceeds double range at delta = {delta}")
    return max(math.exp(log_first), second)
