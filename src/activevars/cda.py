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

from .cost import CostModel, _price, _within_bound, log_eval_cost
from .errors import CertificationError, InvalidArgumentError, UnsupportedScaleError
from .optimal import _RankOracle
from .space import AnovaFunction, _combine_errors, _term_g_sq
from .spectrum import (
    Spectrum,
    _count,
    _exp_or_inf,
    _fsum_or_inf,
    _log_comb,
    _logsumexp,
    _real,
    power_sum,
)
from .truncation import truncation_level

__all__ = [
    "CdaPlan",
    "PlanRow",
    "build_plan",
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
        """The row of one cardinality, an integer in ``[1, level]``."""
        return self.rows[_count(cardinality, "cardinality", 1, self.level) - 1]


# The default exponent max(1, 1/alpha) + 0.1: every spectrum that constructs
# has alpha > 1 (korobov needs r > 1/2, so alpha = 2r; wiener 2; custom inf).
_DEFAULT_TAU = 1.1


def _dust_floor(x: float) -> int:
    """Floor that forgives the last few ulps of representation error.

    Term budgets are floors of ratios whose exact value can sit on an
    integer; without the guard ``0.5 / 0.1**2`` floors to 49.
    """
    return int(math.floor(x * (1.0 + 2.0**-40)))


def build_plan(
    epsilon: float, d: int, spectrum: Spectrum, tau: float | None = None
) -> CdaPlan:
    """Compute the full plan for one ``(eps, d)`` configuration.

    ``tau`` defaults to 1.1 (``_DEFAULT_TAU``); exponents at or below
    ``1/alpha`` are rejected by the underlying power sum (divergent).  The
    truncation level is always the minimal certified one,
    ``truncation_level(epsilon, d, spectrum.c0sq).level``: the smallest
    whose weighted binomial tail is at most ``eps^2``, which the
    ``eps * sqrt(2)`` error certificate needs.  ``epsilon`` is a real in
    ``(0, 1)`` and ``tau`` a positive real, stored as ``float``; ``d`` is a
    Python or numpy integer (``bool`` not), stored as ``int``.

    Identical inputs yield bit-identical plans: everything below is a pure
    float computation with a fixed summation order.  A term budget that
    leaves double range (a large ``tau``: ``eps_l^(2 tau)`` underflows)
    raises :class:`UnsupportedScaleError`.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, 1.0)
    d = _count(d, "d")
    tau = _DEFAULT_TAU if tau is None else _real(tau, "tau", 0.0, math.inf, "(]")
    ltau = power_sum(spectrum, tau)  # validates tau > 1/alpha
    level = truncation_level(epsilon, d, spectrum.c0sq).level

    log_d = math.log(d)
    log_terms = [_log_comb(d, k) - k * tau / (1.0 + tau) * log_d for k in range(1, level + 1)]
    big_r = _fsum_or_inf(map(_exp_or_inf, log_terms))
    ell_star = min(level, math.floor(d ** (1.0 / (1.0 + tau))))
    rows = []
    if level > 0:
        sqrt_r = math.sqrt(big_r)
        for l in range(1, level + 1):
            eps_l = epsilon * _exp_or_inf(l / (2.0 * (1.0 + tau)) * log_d) / sqrt_r
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


# -- applying a plan to a stored function -------------------------------------


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

    The kernel's ``KernelSpec.zero_mean`` decides how subset errors add up:
    korobov (``True``), whose members have zero mean, sums their squares;
    wiener (``False``), whose embedded norms are not orthogonal across
    subsets, and custom spectra (``None``), which carry no eigenfunctions
    to show orthogonality, add the norms (triangle bound).
    Either way the certificate is :func:`activevars.g_norm_exact` of the
    dropped part, by the same rule (``space._combine_errors``).

    The ranking caches are built lazily on first use; share an applier
    across threads only after warming it up (or give each worker its own).
    """

    def __init__(self, plan: CdaPlan, spectrum: Spectrum) -> None:
        self.plan = plan
        self.spectrum = spectrum
        self._orthogonal = spectrum.kernel.zero_mean is True
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
        by the rule of :func:`activevars.g_norm_exact` (``space._term_g_sq``).

        ``approx`` holds ``f``'s constant and its kept coefficients, in fresh
        dicts that share nothing with ``f``, and is not checked again: its
        subsets, indices and values are ``f``'s, which were checked when
        ``f`` was built.  An ``f`` whose ``d`` is not the plan's raises
        :class:`InvalidArgumentError`, as ``mc_l2_error`` does for two
        functions of different dimensions.
        """
        if f.d != self.plan.d:
            raise InvalidArgumentError(
                f"function has d={f.d}, plan was built for d={self.plan.d}"
            )
        table, level = self._table, self.plan.level
        kept: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        subset_sq: list[float] = []  # each subset's squared error
        max_act = 0
        for u, coeffs in f.terms.items():
            dropped = coeffs.items()
            if len(u) <= level:
                retained, kept_u, rest = self._oracle(len(u)).retained, {}, []
                for k, c in dropped:
                    if retained(k):
                        kept_u[k] = c
                    else:
                        rest.append((k, c))
                if kept_u:
                    kept[u], dropped = kept_u, rest
                    max_act = max(max_act, len(u))
            subset_sq.append(_term_g_sq(dropped, self.spectrum, table))
        return ApplyResult(
            approx=f._submap(kept, f.constant),
            error_cert=_combine_errors(0.0, subset_sq, self._orthogonal),
            exact=self._orthogonal,
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


def _log_plan_bound(plan: CdaPlan, model: CostModel) -> float:
    """``ln`` of the plan's budget ``$(0) + $(m1) max(L, L^{m1}) R^{1+tau} / eps^{2 tau}``."""
    log_bound_terms = [log_eval_cost(model, 0)]
    if plan.level > 0 and plan.big_r > 0.0:
        tau, log_l = plan.tau, math.log(plan.l_tau_value)
        log_bound_terms.append(
            log_eval_cost(model, plan.level)
            + max(log_l, plan.level * log_l)
            + (1.0 + tau) * math.log(plan.big_r)
            - 2.0 * tau * math.log(plan.epsilon)
        )
    return _logsumexp(log_bound_terms)


def price_plan(plan: CdaPlan, model: CostModel) -> PriceResult:
    """Price ``$(0) + sum_l C(d,l) n_l $(l)`` and check the closed-form budget.

    ``exact`` and ``log_exact`` are :func:`activevars.cost._price` of the
    per-subset counts ``[1, n_1, ..., n_m1]``: an integer cost is exact and,
    like ``bound``, ``inf`` past double range.  The verdict is
    :func:`_certified`, as for every wiener ``complexity_curve`` point.

    Raises
    ------
    CertificationError
        If the exact cost comes out above the budget (cannot happen for
        plans built by :func:`build_plan`; guards against tampered plans).
    UnsupportedScaleError
        Where an ``ln $(l)`` of the plan exceeds double range.
    """
    exact, log_exact = _price(model, plan.d, [1] + [row.n_l for row in plan.rows])
    log_bound = _log_plan_bound(plan, model)
    bound, within = _exp_or_inf(log_bound), _certified(log_exact, log_bound)
    return PriceResult(exact, bound, log_exact, log_bound, within)


def _certified(log_exact: float, log_bound: float) -> bool:
    """A plan's verdict: ``True``, or :class:`CertificationError` past its budget (a theorem)."""
    if not _within_bound(log_exact, log_bound):
        raise CertificationError(
            f"exact plan cost exp({log_exact:.6f}) exceeds its closed-form "
            f"budget exp({log_bound:.6f})"
        )
    return True
