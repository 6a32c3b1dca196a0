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
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    InvalidConfigurationError,
    InvalidModelError,
    TailCertificateError,
    UnsupportedScaleError,
)
from .optimal import _cardinality_counts
from .spectrum import (
    Spectrum,
    _constant,
    _count,
    _demand,
    _exponent,
    _integers,
    _real_tuple,
    power_sum,
)
from .truncation import orthogonal_truncation_level

__all__ = [
    "CostModel",
    "eval_cost",
    "GridPoint",
    "ComplexityReport",
    "complexity_curve",
    "tractability_classify",
]


class _Family(NamedTuple):
    parameter: str | None  # "q", "c" or None
    prefix: str  # the CLI spelling: "prefix:value", or the bare prefix without a parameter
    cost: Callable[[CostModel, int], float]  # $(k)
    log_cost: Callable[[CostModel, int], float]  # ln $(k)


# Each cost family, written once: CostModel, eval_cost, log_eval_cost and
# the CLI's --cost parser read this table.
_FAMILIES = {
    "constant": _Family(None, "constant", lambda m, k: 1.0, lambda m, k: 0.0),
    "polynomial": _Family(
        "q", "poly", lambda m, k: float((k + 1) ** m.q), lambda m, k: m.q * math.log(k + 1)
    ),
    "exponential": _Family("q", "exp", lambda m, k: math.exp(m.q * k), lambda m, k: m.q * k),
    "double_exponential": _Family(
        "q", "doubleexp", lambda m, k: math.exp(math.exp(m.q * k)), lambda m, k: math.exp(m.q * k)
    ),
    "linear_floor": _Family(
        "c", "linfloor", lambda m, k: m.c * (k + 1), lambda m, k: math.log(m.c) + math.log(k + 1)
    ),
}


@dataclass(frozen=True)
class CostModel:
    """Monotone cost ``$(k)`` of evaluating a functional with ``k`` active variables.

    Families: ``constant`` (1), ``polynomial`` ``(k+1)^q``, ``exponential``
    ``e^{qk}``, ``double_exponential`` ``e^{e^{qk}}``, and ``linear_floor``
    ``c (k+1)``.  Each of ``q`` and ``c`` is required by the families that
    read it and refused by the others; it must be a finite Python or numpy
    real (``bool`` not), and is stored as ``float``.
    """

    family: str
    q: float | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidModelError(f"unknown cost family {self.family!r}")
        for name in ("q", "c"):
            value = getattr(self, name)
            if (value is None) == (_FAMILIES[self.family].parameter == name):
                owners = ", ".join(f for f, row in _FAMILIES.items() if row.parameter == name)
                raise InvalidModelError(
                    f"{name} is for the {owners} families only, and required there: "
                    f"got {name}={value!r} for {self.family}"
                )
            if value is not None:
                (v,) = _real_tuple((value,)) or (math.nan,)
                if not -math.inf < v < math.inf:
                    raise InvalidModelError(
                        f"q and c must be finite, not q={self.q!r}, c={self.c!r}"
                    )
                object.__setattr__(self, name, v)
        if self.q is not None and self.q < 0:
            raise InvalidModelError("q must be >= 0 to keep $ monotone")
        if eval_cost(self, 0) < 1.0:
            raise InvalidModelError("cost models must satisfy $(0) >= 1")

    def describe(self) -> str:
        name = _FAMILIES[self.family].parameter
        return self.family if name is None else f"{self.family}({name}={getattr(self, name)})"


def _active_count(k) -> int:
    """``k`` as an ``int``: a Python or numpy integer ``>= 0``, ``bool`` not."""
    (k,) = _integers((k,), "active-variable count")
    if k < 0:
        raise InvalidArgumentError("active-variable count must be >= 0")
    return k


def eval_cost(model: CostModel, k: int) -> float:
    """Evaluate ``$(k)`` for an integer ``k >= 0``; monotone in ``k`` by construction.

    Raises :class:`UnsupportedScaleError` where ``$(k)`` exceeds double range.
    """
    if type(k) is not int or k < 0:  # an int >= 0 skips the call
        k = _active_count(k)
    try:
        value = _FAMILIES[model.family].cost(model, k)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise UnsupportedScaleError(f"{model.describe()}: $({k}) exceeds double range")
    return value


def log_eval_cost(model: CostModel, k: int) -> float:
    """``ln $(k)``, exact even where ``$(k)`` itself would overflow.

    Raises :class:`UnsupportedScaleError` where ``ln $(k)`` itself exceeds
    double range (double-exponential costs).  ``k`` is checked as in
    :func:`eval_cost`.
    """
    if type(k) is not int or k < 0:
        k = _active_count(k)
    try:
        return _FAMILIES[model.family].log_cost(model, k)
    except OverflowError:
        raise UnsupportedScaleError(f"{model.describe()}: ln $({k}) exceeds double range") from None


def _price(model: CostModel, counts) -> float:
    """Price of an algorithm that evaluates ``counts[l]`` functionals of ``l`` variables.

    The compensated sum ``sum_l counts[l] $(l)`` over the nonzero counts:
    ``price_plan`` and ``complexity_curve`` price every algorithm by it.
    """
    return math.fsum([n * eval_cost(model, l) for l, n in enumerate(counts) if n])


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
    ``ln(1/eps)`` over the three smallest demands at the largest dimension;
    ``strong_fit_residual`` is the residual of the same regression over the
    whole priced grid.  ``qpt_t_fit`` regresses ``ln comp`` on ``(1 + ln d)(1 + ln(1/eps))``
    over the whole priced grid.  All residuals are root-mean-square in log
    space.  Flagged (unpriceable) points are excluded from every fit.
    """

    points: tuple[GridPoint, ...]
    eps_grid: tuple[float, ...]
    d_grid: tuple[int, ...]
    p_str_fit: float
    p_str_residual: float
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
    ``(eps/sqrt(C))^2`` is priced with ``$(active count)`` per term: the
    terms are counted per cardinality and the counts priced by
    :func:`_price`.  Under embedded-norm orthogonality this priced cost *is*
    the information complexity.  Each value is checked against the
    closed-form bound ``$(m2) e^{L(tau) d^{1-tau}} / (eps/sqrt(C))^{2 tau}``.

    For the wiener kernel, whose embedded norms are not orthogonal across
    subsets, the grid instead carries the exact priced cost of the
    changing-dimension algorithm (:func:`activevars.cda.price_plan`), whose
    counts are ``1`` and ``C(d,l) n_l``, the constant included.  That cost
    upper-bounds the complexity: the points carry
    ``flag_reason="cda-upper-bound"`` but are not ``flagged``, so they stay
    in the fits.  The plan splits ``eps`` itself, so wiener refuses a
    ``c_const`` other than 1 with :class:`InvalidConfigurationError`.

    Every point's ``n_terms`` is the sum of its counts and ``max_act`` the
    largest cardinality counted.  Points whose demand falls below the
    spectrum's tail certificate are flagged and excluded from fits rather
    than failing the whole curve.

    ``c_const`` is a finite real ``>= 1``, each demand a real in ``(0, 1)``,
    each dimension an integer ``>= 1`` and ``tau`` a positive real; the
    report's grids hold Python numbers.
    """
    from .cda import _plan_counts, build_plan, price_plan  # local: keeps modules acyclic

    c_const = _constant(c_const)
    eps_grid = tuple(sorted(map(_demand, eps_grid), reverse=True))
    d_grid = tuple(sorted(_count(d, "d") for d in d_grid))
    tau = _exponent(tau)
    ltau = power_sum(spectrum, tau)
    wiener = spectrum.kind == "wiener"
    if wiener and c_const != 1.0:
        raise InvalidConfigurationError(
            "the wiener grid prices the changing-dimension plan, which splits eps "
            f"itself: c_const must be 1, not {c_const}"
        )

    points: list[GridPoint] = []
    flags: list[str] = ["comp values are cda upper bounds"] if wiener else []
    for d in d_grid:
        for eps in eps_grid:
            if wiener:
                plan = build_plan(eps, d, spectrum, tau=tau)
                price = price_plan(plan, model)
                counts = _plan_counts(plan)
                comp, bound, within, m2 = price.exact, price.bound, price.within_bound, -1
            else:
                eps_eff = eps / math.sqrt(c_const)
                try:
                    counts = _cardinality_counts(eps_eff, d, spectrum)
                except TailCertificateError as exc:
                    flags.append(f"d={d} eps={eps}: {exc}")
                    nan = math.nan
                    points.append(GridPoint(d, eps, nan, nan, -1, -1, -1, False, True, str(exc)))
                    continue
                comp = _price(model, counts)
                m2 = orthogonal_truncation_level(eps_eff, d, spectrum.c0sq, 1.0)
                log_bound = (
                    log_eval_cost(model, m2)
                    + ltau * d ** (1.0 - tau)
                    - 2.0 * tau * math.log(eps_eff)
                )
                bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
                within = comp <= bound
            points.append(
                GridPoint(
                    d=d,
                    epsilon=eps,
                    comp=comp,
                    bound=bound,
                    n_terms=sum(counts),
                    max_act=max((l for l, n in enumerate(counts) if n), default=0),
                    m2_ceiling=m2,
                    within_bound=within,
                    flag_reason="cda-upper-bound" if wiener else "",
                )
            )

    return _summarize(points, eps_grid, d_grid, flags)


def _summarize(
    points: list[GridPoint],
    eps_grid: tuple[float, ...],
    d_grid: tuple[int, ...],
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
    _, _, strong_resid = _lsq(x_all, y_all)

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
        p_str_fit=p_str_fit,
        p_str_residual=p_str_resid,
        strong_fit_residual=strong_resid,
        qpt_t_fit=qpt_t,
        qpt_c_fit=math.exp(qpt_log_c),
        qpt_residual=qpt_resid,
        weak_max=float(np.max(weak_vals)),
        weak_trend_ok=tail_mean <= head_mean + 1e-9,
        flags=tuple(flags),
    )


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
