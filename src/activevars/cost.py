"""Cost functions for active-variable pricing, complexity curves, and fits.

Evaluating a linear functional is priced by how many variables it touches:
a cost model maps the active count ``k`` to ``$(k)`` with ``$(0) >= 1`` and
``$`` nondecreasing.  Pricing the spectral-truncation algorithm on a grid of
``(eps, d)`` pairs yields empirical complexity curves; the fits reported
here (strong exponent, quasi-polynomial coefficient, weak-tractability
diagnostic) are evidence about growth regimes, never proofs, and no fit is
extrapolated outside the sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    InvalidModelError,
    TailCertificateError,
)
from .optimal import TensorEigenStream
from .spectrum import Spectrum, power_sum
from .truncation import orthogonal_truncation_level

__all__ = [
    "CostModel",
    "eval_cost",
    "GridPoint",
    "ComplexityReport",
    "complexity_curve",
    "tractability_classify",
]

_FAMILIES = ("constant", "polynomial", "exponential", "double_exponential", "linear_floor")


@dataclass(frozen=True)
class CostModel:
    """Monotone cost ``$(k)`` of evaluating a functional with ``k`` active variables.

    Families: ``constant`` (1), ``polynomial`` ``(k+1)^q``, ``exponential``
    ``e^{qk}``, ``double_exponential`` ``e^{e^{qk}}``, and ``linear_floor``
    ``c (k+1)``.
    """

    family: str
    q: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidModelError(f"unknown cost family {self.family!r}")
        if self.family in ("polynomial", "exponential", "double_exponential") and self.q < 0:
            raise InvalidModelError("q must be >= 0 to keep $ monotone")
        if eval_cost(self, 0) < 1.0:
            raise InvalidModelError("cost models must satisfy $(0) >= 1")

    def describe(self) -> str:
        if self.family == "constant":
            return "constant"
        if self.family == "linear_floor":
            return f"linear_floor(c={self.c})"
        return f"{self.family}(q={self.q})"


def eval_cost(model: CostModel, k: int) -> float:
    """Evaluate ``$(k)``; monotone in ``k`` by construction."""
    if k < 0:
        raise InvalidArgumentError("active-variable count must be >= 0")
    if model.family == "constant":
        return 1.0
    if model.family == "polynomial":
        return float((k + 1) ** model.q)
    if model.family == "exponential":
        return math.exp(model.q * k)
    if model.family == "double_exponential":
        return math.exp(math.exp(model.q * k))
    return model.c * (k + 1)


def log_eval_cost(model: CostModel, k: int) -> float:
    """``ln $(k)``, exact even where ``$(k)`` itself would overflow."""
    if k < 0:
        raise InvalidArgumentError("active-variable count must be >= 0")
    if model.family == "constant":
        return 0.0
    if model.family == "polynomial":
        return model.q * math.log(k + 1)
    if model.family == "exponential":
        return model.q * k
    if model.family == "double_exponential":
        return math.exp(model.q * k)
    return math.log(model.c) + math.log(k + 1)


@dataclass(frozen=True)
class GridPoint:
    """One priced configuration of the complexity grid."""

    d: int
    epsilon: float
    comp: float
    bound: float
    n_terms: int
    max_act: int
    m2_ceiling: int
    within_bound: bool
    flagged: bool = False
    flag_reason: str = ""


@dataclass(frozen=True)
class ComplexityReport:
    """Complexity grid plus regression summaries.

    ``p_str_fit`` is the least-squares slope of ``ln comp`` against
    ``ln(1/eps)`` over the three smallest demands at the largest dimension.
    ``qpt_t_fit`` regresses ``ln comp`` on ``(1 + ln d)(1 + ln(1/eps))``
    over the whole priced grid.  All residuals are root-mean-square in log
    space.  Flagged (unpriceable) points are excluded from every fit.
    """

    points: tuple[GridPoint, ...]
    eps_grid: tuple[float, ...]
    d_grid: tuple[int, ...]
    cost: str
    tau: float
    c_const: float
    p_str_fit: float
    p_str_residual: float
    strong_fit_slope: float
    strong_fit_residual: float
    qpt_t_fit: float
    qpt_c_fit: float
    qpt_residual: float
    weak_max: float
    weak_trend_ok: bool
    flags: tuple[str, ...] = field(default_factory=tuple)


def _lsq(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept and RMS residual of a 1-D least-squares line."""
    if np.ptp(x) == 0.0:
        return 0.0, float(np.mean(y)), float(np.sqrt(np.mean((y - np.mean(y)) ** 2)))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def complexity_curve(
    spectrum: Spectrum,
    c_const: float,
    model: CostModel,
    eps_grid,
    d_grid,
    tau: float = 1.0,
) -> ComplexityReport:
    """Price the spectral-truncation algorithm over an ``(eps, d)`` grid.

    For each grid point the algorithm keeping every tensor eigenvalue above
    ``(eps/sqrt(C))^2`` is priced term by term with ``$(active count)``;
    under embedded-norm orthogonality this priced cost *is* the information
    complexity.  Each value is checked against the closed-form bound
    ``$(m2) e^{L(tau) d^{1-tau}} / (eps/sqrt(C))^{2 tau}``.

    For the wiener kernel, whose embedded norms are not orthogonal across
    subsets, the grid instead carries the exact priced cost of the
    changing-dimension algorithm; that value upper-bounds the complexity
    and every point is flagged ``cda-upper-bound``.

    Points whose demand falls below the spectrum's tail certificate are
    flagged and excluded from fits rather than failing the whole curve.
    """
    if not c_const >= 1.0:
        raise InvalidArgumentError("orthogonality constant must be >= 1")
    eps_grid = tuple(sorted((float(e) for e in eps_grid), reverse=True))
    d_grid = tuple(sorted(int(d) for d in d_grid))
    ltau = power_sum(spectrum, tau)
    if spectrum.kind == "wiener":
        return _cda_bound_curve(spectrum, model, eps_grid, d_grid, tau, c_const)

    points: list[GridPoint] = []
    flags: list[str] = []
    for d in d_grid:
        for eps in eps_grid:
            eps_eff = eps / math.sqrt(c_const)
            try:
                comp, n_terms, max_act = _price_spectral_algorithm(
                    spectrum, d, eps_eff, model
                )
            except TailCertificateError as exc:
                flags.append(f"d={d} eps={eps}: {exc}")
                points.append(
                    GridPoint(
                        d=d,
                        epsilon=eps,
                        comp=math.nan,
                        bound=math.nan,
                        n_terms=-1,
                        max_act=-1,
                        m2_ceiling=-1,
                        within_bound=False,
                        flagged=True,
                        flag_reason=str(exc),
                    )
                )
                continue
            m2 = orthogonal_truncation_level(eps_eff, d, spectrum.c0sq, 1.0)
            log_bound = (
                log_eval_cost(model, m2)
                + ltau * d ** (1.0 - tau)
                - 2.0 * tau * math.log(eps_eff)
            )
            bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
            points.append(
                GridPoint(
                    d=d,
                    epsilon=eps,
                    comp=comp,
                    bound=bound,
                    n_terms=n_terms,
                    max_act=max_act,
                    m2_ceiling=m2,
                    within_bound=comp <= bound,
                )
            )

    return _summarize(points, eps_grid, d_grid, model, tau, c_const, flags)


def _cda_bound_curve(
    spectrum: Spectrum,
    model: CostModel,
    eps_grid: tuple[float, ...],
    d_grid: tuple[int, ...],
    tau: float,
    c_const: float,
) -> ComplexityReport:
    """Grid of changing-dimension costs: complexity upper bounds, flagged."""
    from .cda import build_plan, price_plan  # local import to keep modules acyclic

    points: list[GridPoint] = []
    for d in d_grid:
        for eps in eps_grid:
            plan = build_plan(eps, d, spectrum, tau=tau)
            price = price_plan(plan, model)
            n_terms = sum(math.comb(d, row.cardinality) * row.n_l for row in plan.rows)
            points.append(
                GridPoint(
                    d=d,
                    epsilon=eps,
                    comp=price.exact,
                    bound=price.bound,
                    n_terms=n_terms,
                    max_act=plan.level,
                    m2_ceiling=-1,
                    within_bound=price.within_bound,
                    flagged=False,
                    flag_reason="cda-upper-bound",
                )
            )
    return _summarize(
        points, eps_grid, d_grid, model, tau, c_const, ["comp values are cda upper bounds"]
    )


def _summarize(
    points: list[GridPoint],
    eps_grid: tuple[float, ...],
    d_grid: tuple[int, ...],
    model: CostModel,
    tau: float,
    c_const: float,
    flags: list[str],
) -> ComplexityReport:
    priced = [p for p in points if not p.flagged and math.isfinite(p.comp)]
    if not priced:
        raise InsufficientDataError("no grid point could be priced")

    # Strong-exponent estimate: three smallest demands at the largest dimension.
    d_max = max(p.d for p in priced)
    at_dmax = sorted((p for p in priced if p.d == d_max), key=lambda p: p.epsilon)
    head = at_dmax[: min(3, len(at_dmax))]
    x = np.array([math.log(1.0 / p.epsilon) for p in head])
    y = np.array([math.log(p.comp) for p in head])
    p_str_fit, _, p_str_resid = _lsq(x, y)

    x_all = np.array([math.log(1.0 / p.epsilon) for p in priced])
    y_all = np.array([math.log(p.comp) for p in priced])
    strong_slope, _, strong_resid = _lsq(x_all, y_all)

    x_qpt = np.array(
        [(1.0 + math.log(p.d)) * (1.0 + math.log(1.0 / p.epsilon)) for p in priced]
    )
    qpt_t, qpt_log_c, qpt_resid = _lsq(x_qpt, y_all)

    scale = np.array([p.d + 1.0 / p.epsilon for p in priced])
    weak_vals = y_all / scale
    order = np.argsort(scale)
    half = len(order) // 2
    head_mean = float(np.mean(weak_vals[order[:half]])) if half else 0.0
    tail_mean = float(np.mean(weak_vals[order[half:]]))
    return ComplexityReport(
        points=tuple(points),
        eps_grid=eps_grid,
        d_grid=d_grid,
        cost=model.describe(),
        tau=tau,
        c_const=c_const,
        p_str_fit=p_str_fit,
        p_str_residual=p_str_resid,
        strong_fit_slope=strong_slope,
        strong_fit_residual=strong_resid,
        qpt_t_fit=qpt_t,
        qpt_c_fit=math.exp(qpt_log_c),
        qpt_residual=qpt_resid,
        weak_max=float(np.max(weak_vals)),
        weak_trend_ok=tail_mean <= head_mean + 1e-9,
        flags=tuple(flags),
    )


def _price_spectral_algorithm(
    spectrum: Spectrum, d: int, eps: float, model: CostModel
) -> tuple[float, int, int]:
    """Exact priced cost ``sum $(|u|)`` over all tensor eigenvalues above ``eps^2``."""
    cost_terms: list[float] = []
    n_terms = 0
    max_act = 0
    for entry in TensorEigenStream(d, spectrum).above(eps):
        cost_terms.append(entry.multiplicity * eval_cost(model, entry.cardinality))
        n_terms += entry.multiplicity
        max_act = max(max_act, entry.cardinality)
    return math.fsum(cost_terms), n_terms, max_act


_STRONG_RMS = 1.0
_QPT_RMS = 3.0
_WEAK_MAX = 0.1


def tractability_classify(report: ComplexityReport) -> list[str]:
    """Empirical growth-regime labels supported by the grid.

    Returns the subset of ``{"strong-poly fit OK", "quasi-poly fit OK",
    "weak diagnostic OK"}`` whose fit residuals stay under fixed, documented
    thresholds (RMS log residual <= 1.0 for the strong fit, <= 3.0 for the
    quasi-polynomial fit; peak ``ln(comp)/(d + 1/eps)`` <= 0.1 with a
    nonincreasing trend for the weak diagnostic).  Absence of a label is
    never a claim that the regime fails; a finite grid cannot show that.

    Raises
    ------
    InsufficientDataError
        On grids with fewer than 4 demand or 4 dimension points.
    """
    if len(report.eps_grid) < 4 or len(report.d_grid) < 4:
        raise InsufficientDataError("classification needs >= 4 eps and >= 4 d points")
    labels: list[str] = []
    if report.strong_fit_residual <= _STRONG_RMS:
        labels.append("strong-poly fit OK")
    if report.qpt_residual <= _QPT_RMS:
        labels.append("quasi-poly fit OK")
    if report.weak_max <= _WEAK_MAX and report.weak_trend_ok:
        labels.append("weak diagnostic OK")
    return labels
