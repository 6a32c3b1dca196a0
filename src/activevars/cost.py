"""Cost functions for active-variable pricing, complexity curves, and fits.

Evaluating a linear functional is priced by how many variables it touches:
a cost model maps the active count ``k`` to ``$(k)`` with ``$(0) >= 1`` and
``$`` nondecreasing.  Pricing the spectral-truncation algorithm on a grid of
``(eps, d)`` pairs yields complexity curves.  The two fits reported with
them (a strong exponent and a quasi-polynomial coefficient) describe the
given grid only: tractability is a bound for every ``d``, which no finite
grid decides, so no regime verdict is reported.
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
from .optimal import _cardinality_counts, _log_term_bound, _spectral_ceiling, _total_count
from .spectrum import (
    Spectrum,
    _constant,
    _count,
    _demand,
    _exp_or_inf,
    _exponent,
    _integers,
    _log_comb,
    _logsumexp,
    _real_tuple,
    power_sum,
)

__all__ = [
    "CostModel",
    "eval_cost",
    "GridPoint",
    "ComplexityReport",
    "complexity_curve",
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


def eval_cost(model: CostModel, k: int) -> float:
    """Evaluate ``$(k)`` for an integer ``k >= 0``; monotone in ``k`` by construction.

    Raises :class:`UnsupportedScaleError` where ``$(k)`` exceeds double range.
    """
    if type(k) is not int or k < 0:  # an int >= 0 skips the call
        k = _count(k, "active-variable count", low=0)
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
        k = _count(k, "active-variable count", low=0)
    try:
        return _FAMILIES[model.family].log_cost(model, k)
    except OverflowError:
        raise UnsupportedScaleError(f"{model.describe()}: ln $({k}) exceeds double range") from None


def _price(model: CostModel, d: int, n) -> tuple[float, float]:
    """Price and log price of evaluating ``n[l]`` functionals on each ``l``-subset.

    The compensated ``sum_l C(d,l) n[l] $(l)``, ``inf`` past double range, and
    ``logsumexp(ln C(d,l) + ln n[l] + ln $(l))``: the one pricer of
    ``price_plan`` and every ``complexity_curve`` point.  Only an ``ln $(l)``
    past double range raises :class:`UnsupportedScaleError`.
    """
    priced = [(l, n_l) for l, n_l in enumerate(n) if n_l]
    logs = [_log_comb(d, l) + math.log(n_l) + log_eval_cost(model, l) for l, n_l in priced]
    try:
        price = math.fsum([math.comb(d, l) * n_l * eval_cost(model, l) for l, n_l in priced])
    except (OverflowError, UnsupportedScaleError):
        price = math.inf
    return price, _logsumexp(logs)


def _within_bound(log_price: float, log_bound: float) -> bool:
    """The verdict on every priced algorithm: its log price reaches at most its log bound."""
    return log_price <= log_bound + 1e-12


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
    """Complexity grid plus two least-squares fits over it.

    ``p_str_fit`` is the slope of ``ln comp`` against ``ln(1/eps)`` over the
    three smallest demands at the largest dimension.  ``qpt_t_fit`` and
    ``qpt_c_fit`` are the slope and ``e^intercept`` of ``ln comp`` against
    ``(1 + ln d)(1 + ln(1/eps))`` over the whole priced grid.  Both
    residuals are root-mean-square in log space.  Flagged (unpriceable)
    points are excluded from both fits.  The fits describe this grid only
    and carry no tractability verdict.
    """

    points: tuple[GridPoint, ...]
    eps_grid: tuple[float, ...]
    d_grid: tuple[int, ...]
    p_str_fit: float
    p_str_residual: float
    qpt_t_fit: float
    qpt_c_fit: float
    qpt_residual: float
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

    One algorithm, picked from the kernel before the grid is walked, maps
    each ``(eps, d)`` to ``n`` (``n[l]`` functionals on each ``l``-subset,
    ``n[0] = 1``), a log bound and ``m2``.  Each point is priced once by
    :func:`_price` and checked by :func:`_within_bound`, as ``price_plan``.

    The kernel's ``zero_mean`` (:class:`activevars.KernelSpec`) picks it.
    For korobov and custom spectra the algorithm keeps every tensor
    eigenvalue above ``(eps/sqrt(C))^2``; under embedded-norm orthogonality
    its priced cost *is* the information complexity.  It is checked
    against the closed-form bound
    ``$(m2) e^{L(tau) d^{1-tau}} / (eps/sqrt(C))^{2 tau}``.

    For the wiener kernel (``zero_mean`` False), whose embedded norms are not
    orthogonal across subsets, the grid carries the changing-dimension plan,
    ``n = [1, n_1, ..., n_m1]``, priced and checked against its budget as
    :func:`activevars.cda.price_plan` does, which raises
    :class:`CertificationError` on a cost past it.  Its cost upper-bounds
    the complexity: the points carry ``flag_reason="cda-upper-bound"`` but
    stay unflagged and in the fits.  The plan splits ``eps`` itself, so
    wiener refuses a ``c_const`` other than 1 with
    :class:`InvalidConfigurationError`.

    Every point's ``n_terms`` is ``sum_l C(d,l) n[l]`` and ``max_act`` the
    largest cardinality counted; one above the ceiling ``m2`` raises
    :class:`CertificationError`.  A ``comp`` or ``bound`` past double range
    is ``inf`` (its verdict still holds) and the point is left out of the
    fits; only an ``ln $(k)`` past it raises :class:`UnsupportedScaleError`.
    A point whose demand falls below the tail certificate is flagged and
    left out of the fits instead of failing the curve.

    ``c_const`` is a finite real ``>= 1``, both grids are sequences, each
    demand a real in ``(0, 1)``, each dimension an integer ``>= 1`` and
    ``tau`` a positive real; the report's grids hold Python numbers.
    """
    from .cda import _certified, _log_plan_bound, build_plan  # local: keeps modules acyclic

    c_const = _constant(c_const)
    eps_reals = _real_tuple(eps_grid)
    if eps_reals is None:
        raise InvalidArgumentError(f"eps_grid must be a sequence of reals, not {eps_grid!r}")
    eps_grid = tuple(sorted(map(_demand, eps_reals), reverse=True))
    d_grid = tuple(sorted(_count(d, "d") for d in _integers(d_grid, "d_grid")))
    tau = _exponent(tau)
    ltau = power_sum(spectrum, tau)
    by_plan = spectrum.kernel.zero_mean is False
    if by_plan and c_const != 1.0:
        raise InvalidConfigurationError(
            "the wiener grid prices the changing-dimension plan, which splits eps "
            f"itself: c_const must be 1, not {c_const}"
        )

    def changing_dimension(eps: float, d: int):
        plan = build_plan(eps, d, spectrum, tau=tau)
        return [1] + [row.n_l for row in plan.rows], _log_plan_bound(plan, model), -1

    def spectral(eps: float, d: int):
        eps_eff = eps / math.sqrt(c_const)
        n = _cardinality_counts(eps_eff, d, spectrum)
        m2 = _spectral_ceiling(eps_eff, d, spectrum.c0sq, len(n) - 1)
        return n, _log_term_bound(eps_eff, d, ltau, tau, log_eval_cost(model, m2)), m2

    algorithm, reason, verdict = spectral, "", _within_bound
    if by_plan:
        algorithm, reason, verdict = changing_dimension, "cda-upper-bound", _certified
    points: list[GridPoint] = []
    flags: list[str] = ["comp values are cda upper bounds"] if by_plan else []
    for d in d_grid:
        for eps in eps_grid:
            try:
                n, log_bound, m2 = algorithm(eps, d)
            except TailCertificateError as exc:
                flags.append(f"d={d} eps={eps}: {exc}")
                nan = math.nan
                points.append(GridPoint(d, eps, nan, nan, -1, -1, -1, False, True, str(exc)))
                continue
            comp, log_comp = _price(model, d, n)
            max_act, n_terms = max(l for l, n_l in enumerate(n) if n_l), _total_count(d, n)
            bound, within = _exp_or_inf(log_bound), verdict(log_comp, log_bound)
            points.append(GridPoint(d, eps, comp, bound, n_terms, max_act, m2, within, False, reason))

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

    y_all = np.array([math.log(p.comp) for p in priced])
    x_qpt = np.array(
        [(1.0 + math.log(p.d)) * (1.0 + math.log(1.0 / p.epsilon)) for p in priced]
    )
    qpt_t, qpt_log_c, qpt_resid = _lsq(x_qpt, y_all)
    return ComplexityReport(
        points=tuple(points),
        eps_grid=eps_grid,
        d_grid=d_grid,
        p_str_fit=p_str_fit,
        p_str_residual=p_str_resid,
        qpt_t_fit=qpt_t,
        qpt_c_fit=_exp_or_inf(qpt_log_c),
        qpt_residual=qpt_resid,
        flags=tuple(flags),
    )

