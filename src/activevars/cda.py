"""The changing-dimension algorithm: planning, application, and pricing.

The algorithm approximates a function by keeping, for every coordinate
subset ``u`` of size at most the truncation level, the ``n_{|u|}`` leading
eigenbasis coefficients of its interaction term.  All parameters depend on
``|u|`` only, so a plan is a small per-cardinality table; the ``C(d, l)``
subsets themselves are counted analytically and never materialized.

Plan parameters for demand ``eps`` and exponent ``tau``:

    R        = sum_{k=1}^{m1} C(d,k) d^{-k tau/(1+tau)}
    eps_l    = eps * d^{l/(2(1+tau))} / sqrt(R)
    n_l      = floor(L(tau)^l / eps_l^{2 tau})
    ell_star = min(m1, floor(d^{1/(1+tau)}))

The split is calibrated so that ``sum_l C(d,l) d^{-l} eps_l^2 = eps^2``,
which caps the worst-case error of the applied algorithm at
``eps * sqrt(2)`` over the unit ball of the weighted space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostModel, eval_cost, log_eval_cost
from .errors import (
    CertificationError,
    DimensionMismatchError,
    EnumerationCapError,
    InvalidArgumentError,
    UnsupportedScaleError,
)
from .optimal import ENUMERATION_CAP
from .space import AnovaFunction
from .spectrum import Spectrum, _count, _demand, _exponent, _integers, power_sum
from .truncation import truncation_level

__all__ = [
    "CdaPlan",
    "PlanRow",
    "build_plan",
    "default_tau",
    "RGrowthBounds",
    "r_growth_bounds",
    "ApplyResult",
    "CdaApplier",
    "PriceResult",
    "price_plan",
]


@dataclass(frozen=True)
class PlanRow:
    """Per-cardinality demand split and term budget."""

    cardinality: int
    eps_l: float
    n_l: int


@dataclass(frozen=True)
class CdaPlan:
    """Complete parameter plan of the changing-dimension algorithm."""

    epsilon: float
    d: int
    tau: float
    level: int
    big_r: float
    ell_star: int
    rows: tuple[PlanRow, ...]
    l_tau_value: float

    def row(self, cardinality: int) -> PlanRow:
        return self.rows[cardinality - 1]


def default_tau(spectrum: Spectrum) -> float:
    """``max(1, 1/alpha) + 0.1``; any exponent above ``1/alpha`` is valid."""
    inv_alpha = 0.0 if math.isinf(spectrum.alpha) else 1.0 / spectrum.alpha
    return max(1.0, inv_alpha) + 0.1


def _dust_floor(x: float) -> int:
    """Floor that forgives the last few ulps of representation error.

    Term budgets are floors of ratios whose exact value can sit on an
    integer; without the guard ``0.5 / 0.1**2`` floors to 49.
    """
    return int(math.floor(x * (1.0 + 2.0**-40)))


def _log_comb(d: int, l: int) -> float:
    """``log C(d, l)`` from the exact binomial.

    lgamma differences lose ~1e-9 relative accuracy at ``d >= 1e5``, which
    the demand-split identity and the priced cost would inherit.
    """
    return math.log(math.comb(d, l))


def _logsumexp(terms: list[float]) -> float:
    """``log(sum(exp(terms)))`` in the steps and numpy ufuncs of ``scipy.special.logsumexp``.

    The maxima come out of the sum: with ``m`` terms equal to the maximum,
    the rest are shifted, exponentiated and summed, and the result is
    ``log1p(sum / m) + log(m) + max``.  This gives scipy 1.17's bits
    (``test_logsumexp_matches_scipy`` in ``tests/test_cda.py``).  The
    error state is scipy's too: a NaN term gives NaN without a warning.
    """
    a = np.array(terms, dtype=float)
    a_max = a.max()
    mask = a == a_max
    m = float(np.count_nonzero(mask))
    a[mask] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(a - a_max).sum() / m
        return float(np.log1p(s) + np.log(m) + a_max)


def _log_r_terms(d: int, level: int, tau: float) -> list[float]:
    log_d = math.log(d)
    return [_log_comb(d, k) - k * tau / (1.0 + tau) * log_d for k in range(1, level + 1)]


def build_plan(
    epsilon: float,
    d: int,
    spectrum: Spectrum,
    tau: float | None = None,
    level: int | None = None,
) -> CdaPlan:
    """Compute the full plan for one ``(eps, d)`` configuration.

    ``tau`` defaults to :func:`default_tau`; exponents at or below
    ``1/alpha`` are rejected by the underlying power sum (divergent).
    ``level`` overrides the truncation level, which is otherwise the
    minimal certified one for ``eps`` and the spectrum's ``C_0^2``.
    ``epsilon`` is a real in ``(0, 1)`` and ``tau`` a positive real, stored
    as ``float``; ``d`` and ``level`` are Python or numpy integers (``bool``
    not), stored as ``int``.

    Identical inputs yield bit-identical plans: everything below is a pure
    float computation with a fixed summation order.  A term budget that
    leaves double range (a large ``tau``: ``eps_l^(2 tau)`` underflows)
    raises :class:`UnsupportedScaleError`.
    """
    epsilon = _demand(epsilon)
    d = _count(d, "d")
    tau = default_tau(spectrum) if tau is None else _exponent(tau)
    ltau = power_sum(spectrum, tau)  # validates tau > 1/alpha
    if level is None:
        level = truncation_level(epsilon, d, spectrum.c0sq).level
    else:
        (level,) = _integers((level,), "level")
        if not 0 <= level <= d:
            raise InvalidArgumentError("level override must lie in [0, d]")

    log_terms = _log_r_terms(d, level, tau)
    big_r = math.fsum(math.exp(t) for t in log_terms)
    ell_star = min(level, math.floor(d ** (1.0 / (1.0 + tau))))
    rows = []
    if level > 0:
        sqrt_r = math.sqrt(big_r)
        log_d = math.log(d)
        for l in range(1, level + 1):
            eps_l = epsilon * math.exp(l / (2.0 * (1.0 + tau)) * log_d) / sqrt_r
            try:
                n_l = _dust_floor(ltau**l / eps_l ** (2.0 * tau))
            except (ArithmeticError, ValueError) as exc:  # 0 / 0, overflow, NaN
                msg = f"term budget n_{l} is outside double range at tau = {tau}"
                raise UnsupportedScaleError(msg) from exc
            rows.append(PlanRow(cardinality=l, eps_l=eps_l, n_l=n_l))
    return CdaPlan(
        epsilon=epsilon,
        d=d,
        tau=tau,
        level=level,
        big_r=big_r,
        ell_star=ell_star,
        rows=tuple(rows),
        l_tau_value=ltau,
    )


@dataclass(frozen=True)
class RGrowthBounds:
    """Growth certificates for ``R^{1+tau}``.

    ``factorial_bound`` (``d^{m1} / ((m1-1)!)^{1+tau}``) applies when
    ``d > m1^{1+tau}``; ``exponential_bound`` (``m1 e^{m1}``) otherwise.
    ``certified`` states that ``r_power`` does not exceed the applicable
    bound.
    """

    r_power: float
    factorial_bound: float
    exponential_bound: float
    applicable: str
    certified: bool


def r_growth_bounds(plan: CdaPlan) -> RGrowthBounds:
    """Evaluate both intermediate growth bounds and certify the applicable one."""
    m1 = plan.level
    tau = plan.tau
    if m1 == 0:
        return RGrowthBounds(0.0, 0.0, 0.0, "degenerate", True)
    r_power = math.exp((1.0 + tau) * math.log(plan.big_r)) if plan.big_r > 0 else 0.0
    log_fact = m1 * math.log(plan.d) - (1.0 + tau) * math.lgamma(m1)
    factorial_bound = math.exp(log_fact) if log_fact < 709.0 else math.inf
    exponential_bound = m1 * math.exp(m1)
    applicable = "factorial" if plan.d > m1 ** (1.0 + tau) else "exponential"
    bound = factorial_bound if applicable == "factorial" else exponential_bound
    certified = r_power <= bound * (1.0 + 1e-12)
    return RGrowthBounds(
        r_power=r_power,
        factorial_bound=factorial_bound,
        exponential_bound=exponential_bound,
        applicable=applicable,
        certified=certified,
    )


# -- applying a plan to a stored function -------------------------------------


# Relative slack of the rank cut's pruning bound.  A float product of l
# factors is within about l ulps of the exact product of its factors;
# 1e-12 is about 4,500 ulps.
_PRUNE_SLACK = 1e-12


class _RankOracle:
    """Decides whether a multi-index ranks within the first ``n`` eigendirections.

    The eigenbasis of an ``l``-fold tensor space is ordered by nonincreasing
    eigenvalue product, ties broken by lexicographically smallest ordered
    multi-index.  Cardinality 1 reduces to an index comparison, which holds
    beyond the table too.  Higher cardinalities keep one key: ``(-cut,
    last)``, where ``last`` is the ``n``-th ordered multi-index and ``cut``
    its product.  A multi-index inside the table is kept exactly when
    ``(-product, multi-index)`` comes no later than the key; one outside the
    table is never kept.  A value is the left-to-right product of the sorted
    multi-index over the spectrum's table, as :meth:`Spectrum.eigen_product`
    computes it.

    The cut is found without a frontier: :func:`_multisets_at_least`
    generates, in numpy, every sorted multiset whose product reaches a
    bound ``t``, and ``t`` is lowered until the ordered count covers the
    budget.  A bound whose candidates would pass twice
    ``ENUMERATION_CAP`` is not generated; the search bisects between it
    and the last bound short of the budget instead.  The ranking is
    refused when more than ``ENUMERATION_CAP`` multisets reach the cut
    (all of them when the budget exhausts the space): those are the
    multisets a best-first walk would visit.  ``last`` is then unranked
    within the cut class by :func:`_unrank`.  A budget that exhausts the
    space keys ``(inf,)``, a budget of at most 0 ``(-inf,)``.
    """

    def __init__(self, spectrum: Spectrum, cardinality: int, budget: int) -> None:
        self.spectrum = spectrum
        self.cardinality = cardinality
        self.budget = budget
        self._table = spectrum.table()
        self._key: tuple = (-math.inf,)
        if cardinality >= 2 and budget > 0:
            self._rank()

    def _rank(self) -> None:
        lam = np.frombuffer(self._table)
        l = self.cardinality
        # neg_pow[r - 1] = -lam^r by repeated products: nondecreasing in the index.
        neg_pow = [-lam]
        for _ in range(1, l):
            neg_pow.append(neg_pow[-1] * lam)
        bottom = self.spectrum.eigen_product((len(lam),) * l)
        seen: list[tuple[float, int]] = []  # bounds short of the budget, counts
        lo = None  # a bound whose candidates passed the cap
        t = self.spectrum.eigen_product((1,) * l)
        while True:
            got = _multisets_at_least(lam, neg_pow, t, 2 * ENUMERATION_CAP)
            if got is not None:
                rows, values = got
                counts = _arrangement_counts(rows)
                total = int(counts.sum())
                if total >= self.budget:
                    held = self._cut_at(rows, values, counts)
                    break
                if t <= bottom:
                    self._key = (math.inf,)
                    held = len(values)
                    break
                seen.append((t, total))
            elif not seen:
                held = math.inf  # the top class alone is over the cap
                break
            else:
                lo = t
            if lo is None:
                t = max(_next_bound(seen, self.budget, self.spectrum.alpha), bottom)
            else:
                hi = seen[-1][0]
                t = _float_midpoint(lo, hi)
                if t in (lo, hi):
                    held = math.inf
                    break
        if held > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"rank enumeration for cardinality {l} exceeded the cap of "
                f"{ENUMERATION_CAP} multisets: every multiset down to the cut "
                "is held in memory, so the demand is too small for in-memory ranking"
            )

    def _cut_at(self, rows: np.ndarray, values: np.ndarray, counts: np.ndarray) -> int:
        """Key the ``budget``-th ordered multi-index; return the multisets at or above its cut."""
        order = np.argsort(-values, kind="stable")
        cut = values[order[int(np.searchsorted(np.cumsum(counts[order]), self.budget))]]
        room = self.budget - int(counts[values > cut].sum())
        self._key = (-float(cut), _unrank(rows[values == cut], room))
        return int(np.count_nonzero(values >= cut))

    def retained(self, k: tuple[int, ...]) -> bool:
        if self.cardinality == 1:
            return k[0] <= self.budget
        ms = sorted(k)
        if ms[0] < 1 or ms[-1] > self.spectrum.n_eigenvalues:
            return False
        return (-_table_product(self._table, ms), tuple(k)) <= self._key


def _table_product(table: memoryview, indices) -> float:
    """:meth:`Spectrum.eigen_product` of indices in ``1..N``, read from ``table``.

    The same left-to-right product of the same table entries, without a
    method call and a bounds check per factor.  An index past ``N`` raises
    ``IndexError``; one below 1 would wrap around, so callers check it.
    """
    v = 1.0
    for i in indices:
        v *= table[i - 1]
    return v


def _unrank(rows, rank: int) -> tuple[int, ...]:
    """The ``rank``-th (from 1) lexicographic ordering of distinct sorted multisets.

    Positions are fixed left to right; each candidate value, smallest first,
    skips the orderings that start with it until one holds the ``rank``-th.
    Of the ``A(ms)`` orderings of an ``l``-multiset ``ms``, ``A(ms) m_v / l``
    start with ``v`` (``m_v`` copies of it in ``ms``), which is also the
    count of the tail left; one sort of the rows counts every candidate.
    """
    rows = np.array(rows, dtype=np.int64, ndmin=2)
    counts = _arrangement_counts(rows)
    prefix = []
    for l in range(rows.shape[1], 0, -1):
        flat = rows.ravel()
        order = np.argsort(flat)  # any order within equal values: they are summed
        values = flat[order]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        starting = np.cumsum(np.add.reduceat(np.repeat(counts, l)[order], starts) // l)
        pick = int(np.searchsorted(starting, rank))
        rank -= int(starting[pick - 1]) if pick else 0
        v = int(values[starts[pick]])
        hit = rows == v
        has = hit.any(axis=1)
        rows, hit = rows[has], hit[has]
        counts = counts[has] * hit.sum(axis=1) // l
        first = hit & (np.cumsum(hit, axis=1) == 1)
        rows = rows[~first].reshape(len(rows), l - 1)
        prefix.append(v)
    return tuple(prefix)


def _multisets_at_least(
    lam: np.ndarray, neg_pow: list[np.ndarray], t: float, limit: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every sorted ``l``-multiset whose product reaches ``t``, with its products.

    Returns 1-based index rows and their left-to-right products, or
    ``None`` as soon as more than ``limit`` multisets (or prefixes of
    them) would be held; ``neg_pow[r - 1]`` holds ``-lam^r``.  Multisets
    grow one index per depth: a prefix with product ``p`` and last index
    ``a`` takes every next index ``m >= a`` with ``p * lam[m]^r`` above
    ``t`` less the slack, ``r`` the indices still to come, since no
    completion beats repeating ``m``.  The exact float product then
    decides.  Each kept prefix has a completion within the slack of ``t``,
    so no depth holds more prefixes than there are such multisets.  Below
    ``t = 1e-290`` products may be subnormal, where a relative slack does
    not hold, and nothing is pruned.
    """
    n, l = len(lam), len(neg_pow)
    floor = t * (1.0 - _PRUNE_SLACK) if t > 1e-290 else 0.0
    stop = int(np.searchsorted(neg_pow[l - 1], -floor, side="right"))
    if stop > limit:
        return None
    cols = [np.arange(stop)]
    values = lam[:stop].copy()
    for r in range(l - 1, 0, -1):
        last = cols[-1]
        if floor > 0.0:
            stop = np.searchsorted(neg_pow[r - 1], -(floor / values), side="right")
        else:
            stop = np.full(len(last), n)
        width = np.maximum(stop - last, 0)
        total = int(width.sum())
        if total > limit:
            return None
        parent = np.repeat(np.arange(len(last)), width)
        offset = np.repeat(last - (np.cumsum(width) - width), width)
        cols = [c[parent] for c in cols] + [np.arange(total) + offset]
        values = values[parent] * lam[cols[-1]]
    keep = values >= t
    return np.stack([c[keep] + 1 for c in cols], axis=1), values[keep]


def _arrangement_counts(rows: np.ndarray) -> np.ndarray:
    """``optimal.arrangement_count`` of every sorted row, as exact integers."""
    l = rows.shape[1]
    dtype = np.int64 if math.factorial(l) * max(len(rows), 1) < 2**63 else object
    run = np.ones(len(rows), dtype=dtype)
    denom = np.ones(len(rows), dtype=dtype)
    for j in range(1, l):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1).astype(dtype)
        denom *= run
    return math.factorial(l) // denom


def _next_bound(seen: list[tuple[float, int]], budget: int, alpha: float) -> float:
    """Next, lower bound to try: log-log secant through the last two counts.

    Aims a quarter past the budget so that one more pass usually suffices.
    The first step assumes counts grow like ``t^(-1/alpha)``.
    """
    t, count = seen[-1]
    slope = 1.0 / alpha if math.isfinite(alpha) else 0.5
    if len(seen) > 1:
        t0, count0 = seen[-2]
        if count > count0:
            slope = math.log(count / count0) / math.log(t0 / t)
    factor = (count / (1.25 * budget)) ** (1.0 / slope)
    return t * min(max(factor, 1e-6), 0.5)


def _float_midpoint(a: float, b: float) -> float:
    """The float halfway between two positive floats in bit order."""
    ia, ib = (int(np.float64(x).view(np.int64)) for x in (a, b))
    return float(np.int64((ia + ib) // 2).view(np.float64))


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of applying a plan to a stored function.

    ``error_cert`` is the exact embedded-norm error of the discarded part
    for the korobov kernel, and a certified triangle-inequality upper bound
    for wiener and custom spectra (``exact`` says which; see
    :class:`CdaApplier`).  ``max_act`` is the largest number of active
    variables of any functional the algorithm evaluated.
    """

    approx: AnovaFunction
    error_cert: float
    exact: bool
    max_act: int


class CdaApplier:
    """Applies one plan to many functions, caching the per-cardinality ranking.

    The kernel decides how subset errors add up: korobov, whose members have
    zero mean, sums their squares; wiener, whose embedded norms are not
    orthogonal across subsets, and custom spectra, which carry no
    eigenfunctions to show orthogonality, add the norms (triangle bound).

    The ranking caches are built lazily on first use; share an applier
    across threads only after warming it up (or give each worker its own).
    """

    def __init__(self, plan: CdaPlan, spectrum: Spectrum) -> None:
        self.plan = plan
        self.spectrum = spectrum
        self._orthogonal = spectrum.kind == "korobov"
        self._table = spectrum.table()
        self._oracles: dict[int, _RankOracle] = {}

    def _oracle(self, cardinality: int) -> _RankOracle:
        if cardinality not in self._oracles:
            budget = self.plan.row(cardinality).n_l
            self._oracles[cardinality] = _RankOracle(
                self.spectrum, cardinality, budget
            )
        return self._oracles[cardinality]

    def apply(self, f: AnovaFunction) -> ApplyResult:
        """Keep each subset's leading coefficients; certify the error of the rest.

        On a subset ``u`` of size at most the plan's level, a coefficient is
        kept when its multi-index ranks within the first ``n_|u|`` of the
        ``|u|``-fold tensor eigenbasis (see :class:`_RankOracle`); every
        coefficient on larger subsets is dropped.  A dropped coefficient adds
        ``c^2 lambda_{k_1} ... lambda_{k_l}`` to its subset's squared error,
        one product read from the spectrum's table, left to right in ``k``'s
        own order: the bits of :meth:`Spectrum.eigen_product`.  A multi-index
        past ``N`` goes through ``eigen_product`` itself, which evaluates the
        closed form of an analytic kernel and raises
        :class:`InvalidArgumentError` for a custom one.

        ``approx`` holds ``f``'s constant and its kept coefficients, in fresh
        dicts that share nothing with ``f``, and is not checked again: its
        subsets, indices and values are ``f``'s, which were checked when
        ``f`` was built.
        """
        if f.d != self.plan.d:
            raise DimensionMismatchError(
                f"function has d={f.d}, plan was built for d={self.plan.d}"
            )
        table, level, orthogonal = self._table, self.plan.level, self._orthogonal
        kept: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        residuals: list[float] = []  # squared errors if orthogonal, else errors
        max_act = 0
        for u, coeffs in f.terms.items():
            retained = self._oracle(len(u)).retained if len(u) <= level else None
            kept_u: dict[tuple[int, ...], float] = {}
            drop_sq: list[float] = []
            for k, c in coeffs.items():
                if retained is not None and retained(k):
                    kept_u[k] = c
                    continue
                try:
                    drop_sq.append(c * c * _table_product(table, k))
                except IndexError:  # past N; f's indices are >= 1
                    drop_sq.append(c * c * self.spectrum.eigen_product(k))
            if kept_u:
                kept[u] = kept_u
                max_act = max(max_act, len(u))
            term_sq = math.fsum(drop_sq)
            residuals.append(term_sq if orthogonal else math.sqrt(term_sq))
        cert = math.sqrt(math.fsum(residuals)) if orthogonal else math.fsum(residuals)
        return ApplyResult(
            approx=f._submap(kept, f.constant),
            error_cert=cert,
            exact=orthogonal,
            max_act=max_act,
        )


# -- pricing ------------------------------------------------------------------


@dataclass(frozen=True)
class PriceResult:
    """Exact priced cost of a plan next to its closed-form budget.

    When the exact cost overflows double range, ``exact`` is ``inf`` and
    the log values remain meaningful.
    """

    exact: float
    bound: float
    log_exact: float
    log_bound: float
    within_bound: bool


def price_plan(plan: CdaPlan, model: CostModel) -> PriceResult:
    """Price ``$(0) + sum_l C(d,l) n_l $(l)`` and check the closed-form budget.

    The budget is ``$(0) + $(m1) max(L, L^{m1}) R^{1+tau} / eps^{2 tau}``.
    Both sides are compared in log space, so cardinality strata whose cost
    exceeds double range still compare correctly.  Within double range
    ``exact`` is the compensated sum of the terms themselves, with exact
    integer binomials, so an integer cost is reproduced exactly.

    Raises
    ------
    CertificationError
        If the exact cost comes out above the budget (cannot happen for
        plans built by :func:`build_plan`; guards against tampered plans).
    """
    d, tau, m1 = plan.d, plan.tau, plan.level
    log_terms = [log_eval_cost(model, 0)]
    for row in plan.rows:
        if row.n_l <= 0:
            continue
        log_terms.append(
            _log_comb(d, row.cardinality)
            + math.log(row.n_l)
            + log_eval_cost(model, row.cardinality)
        )
    log_exact = _logsumexp(log_terms)

    log_bound_terms = [log_eval_cost(model, 0)]
    if m1 > 0 and plan.big_r > 0.0:
        log_l = math.log(plan.l_tau_value)
        log_max = max(log_l, m1 * log_l)
        log_bound_terms.append(
            log_eval_cost(model, m1)
            + log_max
            + (1.0 + tau) * math.log(plan.big_r)
            - 2.0 * tau * math.log(plan.epsilon)
        )
    log_bound = _logsumexp(log_bound_terms)

    if log_exact < 709.0:
        exact = math.fsum(
            [eval_cost(model, 0)]
            + [
                math.comb(d, row.cardinality) * row.n_l * eval_cost(model, row.cardinality)
                for row in plan.rows
                if row.n_l > 0
            ]
        )
    else:
        exact = math.inf
    bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    within = log_exact <= log_bound + 1e-12
    if not within:
        raise CertificationError(
            f"exact plan cost exp({log_exact:.6f}) exceeds its closed-form "
            f"budget exp({log_bound:.6f})"
        )
    return PriceResult(
        exact=exact,
        bound=bound,
        log_exact=log_exact,
        log_bound=log_bound,
        within_bound=within,
    )
