"""Interaction-order truncation levels and their certifying tail sums.

An error demand ``eps`` and dimension ``d`` determine how many interacting
variables matter.  The general level ``m1`` is the smallest ``m`` whose
weighted binomial tail ``sum_{k>m} C(d,k) (C_0^2/d)^k`` drops to ``eps^2``;
it never exceeds ``min(d, M)``, where ``M`` is the least integer with
``M + 1 > C_0^2`` and ``(M+1)! / C_0^{2(M+1)} >= 1/(eps^2 (1 - C_0^2/(M+1)))``.
Under embedded-norm orthogonality a far smaller level ``m2`` applies,
driven by the geometric ratio ``C_0^2/d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import UnsupportedScaleError
from .spectrum import _count, _exp_or_inf, _fsum_or_inf, _real

__all__ = [
    "TruncationReport",
    "binomial_tail",
    "truncation_level",
    "factorial_majorant",
    "orthogonal_truncation_level",
]

# Past 2^1024 an ulp of ln C(d,k) is above 1e-13; 1024 kept bits err far less.
_COMB_BITS = 1024


@lru_cache(maxsize=256)
def _tail_terms(d: int, c0sq: float) -> tuple[float, ...]:
    """Terms ``T_k = C(d,k) (c0sq/d)^k`` for ``k = 1..d`` in log space.

    ``ln C(d,k)`` comes from ``C(d,k) = comb 2^shift = C(d,k-1) (d-k+1) // k``,
    exact (``spectrum._log_comb``'s bits) until it passes ``2^_COMB_BITS``;
    then ``comb`` keeps ``_COMB_BITS`` bits.  Generation stops once terms
    underflow to 0.0 past the peak (the term ratio ``(d-k)/(k+1) * c0sq/d``
    is < 1 for ``k + 1 > c0sq``, so every later term underflows as well).
    A term beyond double range (a large ``C_0^2``) is ``inf``: it exceeds
    every ``eps^2``, so levels stay exact.
    """
    log_ratio = math.log(c0sq) - math.log(d)
    comb, shift = 1, 0
    terms: list[float] = []
    for k in range(1, d + 1):
        comb = comb * (d - k + 1) // k
        excess = max(comb.bit_length() - _COMB_BITS, -shift)  # also as C(d,k) falls again
        comb, shift = (comb >> excess if excess >= 0 else comb << -excess), shift + excess
        log_t = math.log(comb) + shift * math.log(2.0) + k * log_ratio
        t = _exp_or_inf(log_t) if log_t > -745.0 else 0.0
        terms.append(t)
        if t == 0.0 and k > c0sq:
            break
    return tuple(terms)


def binomial_tail(d: int, m: int, c0sq: float) -> float:
    """Exact tail ``sum_{k=m+1}^{d} C(d,k) (c0sq/d)^k``, compensated.

    Returns 0 for ``m = d`` (empty sum) and ``inf`` beyond double range.
    ``d`` and ``m`` are Python or numpy integers and ``c0sq`` a finite
    positive real; ``bool`` is neither.
    """
    d, c0sq = _count(d, "d"), _real(c0sq, "c0sq", 0.0, math.inf)
    m = _count(m, "m", low=0, high=d)
    return _fsum_or_inf(_tail_terms(d, c0sq)[m:])


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
    epsilon = _real(epsilon, "epsilon", 0.0, 1.0)
    d, c0sq = _count(d, "d"), _real(c0sq, "c0sq", 0.0, math.inf)
    eps_sq = epsilon * epsilon
    terms = _tail_terms(d, c0sq)
    m = next((k for k in range(len(terms), 0, -1) if terms[k - 1] > eps_sq), 0)
    tail = _fsum_or_inf(terms[m:])
    prev = _fsum_or_inf(terms[m - 1 :]) if m else None
    while tail > eps_sq:
        prev = tail
        m += 1
        tail = _fsum_or_inf(terms[m:])
    return TruncationReport(level=m, tail_at_level=tail, tail_above_level=prev)


def factorial_majorant(epsilon: float, c0sq: float) -> int:
    """Dimension-free majorant ``M(eps)`` of the truncation level.

    The least integer ``M`` with ``M + 1 > c0sq`` and
    ``(M+1)!/c0sq^{M+1} >= 1/(eps^2 (1 - c0sq/(M+1)))``: the tail past level
    ``M`` is at most ``c0sq^{M+1}/(M+1)!`` times a geometric series of
    ratio ``c0sq/(M+1)``.  Past ``M + 1 > c0sq`` the left side grows and the
    right side falls with ``M``, so the minimum is found by galloping, then
    bisecting, over the integers.  The test is decided in floats, whose two
    sides cancel as ``c0sq`` grows: ``c0sq > 1e12`` is refused with
    :class:`UnsupportedScaleError`.  ``epsilon`` is a real in ``(0, 1)``
    and ``c0sq`` a finite positive real.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, 1.0)
    c0sq = _real(c0sq, "c0sq", 0.0, math.inf)
    if c0sq > 1e12:
        msg = f"the majorant's float test cancels above c0sq = 1e12: got {c0sq}"
        raise UnsupportedScaleError(msg)
    log_c, log_eps_sq = math.log(c0sq), 2.0 * math.log(epsilon)

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
    return hi


def orthogonal_truncation_level(
    epsilon: float, d: int, c0sq: float, c_const: float = 1.0
) -> int:
    """Truncation level under embedded-norm orthogonality.

    Three branches: when ``d < c0sq`` the geometric ratio exceeds one and
    the level collapses to 0 or ``d`` depending on whether the full product
    ``(c0sq/d)^d`` already meets ``eps^2 / C``; otherwise the level is
    ``min{k : (c0sq/d)^{k+1} <= eps^2/C}``, evaluated in closed form as
    ``ceil(ln(C/eps^2) / ln(d/c0sq)) - 1`` and clamped to ``[0, d]``.
    ``epsilon`` is a real in ``(0, 1]`` (at 1 the threshold is ``1/C``),
    ``d`` and ``c0sq`` are checked as in :func:`binomial_tail`, and
    ``c_const`` must be a finite real ``>= 1``.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, 1.0, "(]")
    d, c0sq = _count(d, "d"), _real(c0sq, "c0sq", 0.0, math.inf)
    c_const = _real(c_const, "c_const", 1.0, math.inf, "[)")
    log_thr = 2.0 * math.log(epsilon) - math.log(c_const)
    log_ratio = math.log(c0sq) - math.log(d)
    if d < c0sq:
        return 0 if d * log_ratio <= log_thr else d
    if log_ratio >= 0.0:
        # d == c0sq: the ratio is 1 and no finite power meets the threshold.
        return d
    k = math.ceil(log_thr / log_ratio) - 1
    return min(d, max(0, k))
