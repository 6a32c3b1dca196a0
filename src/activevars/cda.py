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

import heapq
import math
from dataclasses import dataclass
from itertools import permutations

from scipy.special import logsumexp

from .cost import CostModel, log_eval_cost
from .errors import (
    CertificationError,
    DimensionMismatchError,
    EnumerationCapError,
    InvalidArgumentError,
)
from .optimal import ENUMERATION_CAP, arrangement_count
from .space import AnovaFunction
from .spectrum import Spectrum, power_sum
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
    "apply_plan",
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
    c0sq: float

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


def _log_r_terms(d: int, level: int, tau: float) -> list[float]:
    log_d = math.log(d)
    lg_d1 = math.lgamma(d + 1)
    out = []
    for k in range(1, level + 1):
        out.append(
            lg_d1
            - math.lgamma(k + 1)
            - math.lgamma(d - k + 1)
            - k * tau / (1.0 + tau) * log_d
        )
    return out


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

    Identical inputs yield bit-identical plans: everything below is a pure
    float computation with a fixed summation order.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    if tau is None:
        tau = default_tau(spectrum)
    ltau = power_sum(spectrum, tau)  # validates tau > 1/alpha
    if level is None:
        level = truncation_level(epsilon, d, spectrum.c0sq).level
    elif not 0 <= level <= d:
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
            n_l = _dust_floor(ltau**l / eps_l ** (2.0 * tau))
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
        c0sq=spectrum.c0sq,
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


class _RankOracle:
    """Decides whether a multi-index ranks within the first ``n`` eigendirections.

    The eigenbasis of an ``l``-fold tensor space is ordered by nonincreasing
    eigenvalue product, ties broken by lexicographically smallest ordered
    multi-index.  Cardinality 1 reduces to an index comparison; higher
    cardinalities enumerate index multisets best-first until the budget is
    located, splitting the boundary value class by lexicographic rank.
    """

    def __init__(self, spectrum: Spectrum, cardinality: int, budget: int) -> None:
        self.spectrum = spectrum
        self.cardinality = cardinality
        self.budget = budget
        self._full: set[tuple[int, ...]] = set()
        self._partial: set[tuple[int, ...]] = set()
        self._exhausted = False
        if cardinality >= 2 and budget > 0:
            self._enumerate()

    def _enumerate(self) -> None:
        n_max = self.spectrum.n_eigenvalues
        l = self.cardinality
        heap: list[tuple[float, tuple[int, ...]]] = [
            (-self.spectrum.eigen_product((1,) * l), (1,) * l)
        ]
        seen = {(1,) * l}
        cum = 0
        pops = 0

        def push_successors(ms: tuple[int, ...]) -> None:
            for pos in range(l):
                if ms[pos] < n_max and (pos == l - 1 or ms[pos] < ms[pos + 1]):
                    bumped = ms[:pos] + (ms[pos] + 1,) + ms[pos + 1 :]
                    if bumped not in seen:
                        seen.add(bumped)
                        heapq.heappush(heap, (-self.spectrum.eigen_product(bumped), bumped))

        while heap and cum < self.budget:
            neg_v, _ = heap[0]
            # Pop the whole equal-value class before deciding retention.
            cls: list[tuple[int, ...]] = []
            while heap and heap[0][0] == neg_v:
                _, ms = heapq.heappop(heap)
                cls.append(ms)
                push_successors(ms)
                pops += 1
            if pops > ENUMERATION_CAP:
                raise EnumerationCapError(
                    f"rank enumeration for cardinality {l} exceeded the cap of "
                    f"{ENUMERATION_CAP} multisets: every visited multiset stays "
                    "in memory, so the demand is too small for in-memory ranking"
                )
            cls_count = sum(arrangement_count(ms) for ms in cls)
            if cum + cls_count <= self.budget:
                self._full.update(cls)
                cum += cls_count
            else:
                room = self.budget - cum
                ordered = sorted(
                    tup for ms in cls for tup in set(permutations(ms))
                )
                self._partial.update(ordered[:room])
                cum = self.budget
        if not heap and cum < self.budget:
            self._exhausted = True

    def retained(self, k: tuple[int, ...]) -> bool:
        if self.budget <= 0:
            return False
        if self.cardinality == 1:
            return k[0] <= self.budget
        if self._exhausted:
            return True
        ms = tuple(sorted(k))
        return ms in self._full or k in self._partial


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of applying a plan to a stored function.

    ``error_cert`` is the exact embedded-norm error of the discarded part
    when the kernel's embedded norms are orthogonal across subsets, and a
    certified triangle-inequality upper bound otherwise (``exact`` says
    which).  ``max_act`` is the largest number of active variables of any
    functional the algorithm evaluated.
    """

    approx: AnovaFunction
    error_cert: float
    exact: bool
    used_subsets: tuple[tuple[int, ...], ...]
    max_act: int


class CdaApplier:
    """Applies one plan to many functions, caching the per-cardinality ranking.

    ``orthogonal`` defaults by kernel: zero-mean kernels aggregate the error
    orthogonally, the wiener kernel via the triangle inequality, and custom
    spectra conservatively via the triangle inequality unless the caller
    asserts orthogonality.

    The ranking caches are built lazily on first use; share an applier
    across threads only after warming it up (or give each worker its own).
    """

    def __init__(
        self, plan: CdaPlan, spectrum: Spectrum, orthogonal: bool | None = None
    ) -> None:
        self.plan = plan
        self.spectrum = spectrum
        if orthogonal is None:
            orthogonal = spectrum.kind == "korobov"
        self.orthogonal = orthogonal
        self._oracles: dict[int, _RankOracle] = {}

    def _oracle(self, cardinality: int) -> _RankOracle:
        if cardinality not in self._oracles:
            budget = self.plan.row(cardinality).n_l
            self._oracles[cardinality] = _RankOracle(
                self.spectrum, cardinality, budget
            )
        return self._oracles[cardinality]

    def apply(self, f: AnovaFunction) -> ApplyResult:
        if f.d != self.plan.d:
            raise DimensionMismatchError(
                f"function has d={f.d}, plan was built for d={self.plan.d}"
            )
        kept: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        residual_sq: list[float] = []
        residual_norms: list[float] = []
        used: list[tuple[int, ...]] = []
        max_act = 0
        for u, coeffs in f.terms.items():
            drop_sq: list[float] = []
            if len(u) > self.plan.level:
                for k, c in coeffs.items():
                    drop_sq.append(c * c * self.spectrum.eigen_product(k))
            else:
                oracle = self._oracle(len(u))
                kept_u: dict[tuple[int, ...], float] = {}
                for k, c in coeffs.items():
                    if oracle.retained(k):
                        kept_u[k] = c
                    else:
                        drop_sq.append(c * c * self.spectrum.eigen_product(k))
                if kept_u:
                    kept[u] = kept_u
                    used.append(u)
                    max_act = max(max_act, len(u))
            term_sq = math.fsum(drop_sq)
            residual_sq.append(term_sq)
            residual_norms.append(math.sqrt(term_sq))
        if self.orthogonal:
            cert = math.sqrt(math.fsum(residual_sq))
        else:
            cert = math.fsum(residual_norms)
        approx = AnovaFunction(
            d=f.d, constant=f.constant, terms=kept, max_index=f.max_index
        )
        return ApplyResult(
            approx=approx,
            error_cert=cert,
            exact=self.orthogonal,
            used_subsets=tuple(sorted(used)),
            max_act=max_act,
        )


def apply_plan(
    plan: CdaPlan,
    f: AnovaFunction,
    spectrum: Spectrum,
    orthogonal: bool | None = None,
) -> ApplyResult:
    """One-shot :class:`CdaApplier` convenience wrapper."""
    return CdaApplier(plan, spectrum, orthogonal).apply(f)


# -- pricing ------------------------------------------------------------------


@dataclass(frozen=True)
class PriceResult:
    """Exact priced cost of a plan next to its closed-form budget.

    When the exact cost overflows double range, ``exact`` is ``inf``,
    ``overflowed`` is set, and the log values remain meaningful.
    """

    exact: float
    bound: float
    log_exact: float
    log_bound: float
    overflowed: bool
    within_bound: bool


def price_plan(plan: CdaPlan, model: CostModel) -> PriceResult:
    """Price ``$(0) + sum_l C(d,l) n_l $(l)`` and check the closed-form budget.

    The budget is ``$(0) + $(m1) max(L, L^{m1}) R^{1+tau} / eps^{2 tau}``.
    Both sides are assembled in log space, so cardinality strata whose cost
    exceeds double range still compare correctly.

    Raises
    ------
    CertificationError
        If the exact cost comes out above the budget (cannot happen for
        plans built by :func:`build_plan`; guards against tampered plans).
    """
    d, tau, m1 = plan.d, plan.tau, plan.level
    lg_d1 = math.lgamma(d + 1)
    log_terms = [log_eval_cost(model, 0)]
    for row in plan.rows:
        if row.n_l <= 0:
            continue
        log_terms.append(
            lg_d1
            - math.lgamma(row.cardinality + 1)
            - math.lgamma(d - row.cardinality + 1)
            + math.log(row.n_l)
            + log_eval_cost(model, row.cardinality)
        )
    log_exact = float(logsumexp(log_terms))

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
    log_bound = float(logsumexp(log_bound_terms))

    exact = math.exp(log_exact) if log_exact < 709.0 else math.inf
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
        overflowed=log_exact >= 709.0,
        within_bound=within,
    )
