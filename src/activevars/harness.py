"""Test-function library, golden-table reproduction, and Monte Carlo checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)
from .space import AnovaFunction, eval_pointwise, h_norm
from .spectrum import Spectrum
from .truncation import factorial_majorant

__all__ = [
    "RunConfig",
    "GOLDEN_MAJORANT_CEILINGS",
    "majorant_table",
    "table_check",
    "mean_function",
    "single_subset_function",
    "random_function",
    "make_test_function",
    "mc_l2_error",
]

# ceil(M(10^-q)) for q = 1..10 at C_0^2 = 1/2; the reference row the `table`
# subcommand must reproduce byte for byte.
GOLDEN_MAJORANT_CEILINGS: tuple[int, ...] = (3, 5, 7, 8, 10, 11, 13, 14, 15, 17)

# Index bound for the mean function's per-coordinate expansion.  At this
# depth the discarded part of each univariate expansion carries less than
# 1e-10 of its squared embedded norm (the tail decays like B^-3).
MEAN_INDEX_BOUND = 768

# Largest Monte Carlo run, in term-point products of the difference being
# sampled (sum_u |u| * coefficients on u, times samples).  Cost depends on
# that product, not on the dimension: at the 6-14 ns per product measured
# on one Xeon core, 1e9 of them take 6-14 s.
_MC_WORK_BUDGET = 10**9


@dataclass(frozen=True)
class RunConfig:
    """Fully deterministic description of one CLI run.

    The seed determines every random draw; two runs with equal configs
    produce identical output files.
    """

    subcommand: str
    kernel: str = "wiener"
    r: float | None = None
    custom_path: str | None = None
    c0sq_mode: str = "exact"
    n_eigenvalues: int = 10_000
    eps_grid: tuple[float, ...] = ()
    d_grid: tuple[int, ...] = ()
    tau: float | None = None
    cost: str = "constant"
    cost_param: float = 1.0
    c_const: float = 1.0
    seed: int = 0
    samples: int = 100_000
    trials: int = 50
    top: int = 10
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.subcommand in ("bounds", "complexity") and (
            not self.eps_grid or not self.d_grid
        ):
            raise InvalidArgumentError(f"{self.subcommand} needs nonempty grids")


def majorant_table(c0sq: float = 0.5) -> list[tuple[int, int]]:
    """``(q, ceil(M(10^-q)))`` rows for ``q = 1..10``.

    Uses the refined (geometric-factor) majorant, which is what the
    reference row was computed with; the plain factorial-equation root
    gives the same ceilings everywhere except ``q = 9`` (16 instead of 15).
    """
    return [
        (q, math.ceil(factorial_majorant(10.0**-q, c0sq, refined=True)))
        for q in range(1, 11)
    ]


def table_check(c0sq: float = 0.5) -> tuple[list[tuple[int, int]], list[str]]:
    """Recompute the majorant table and diff it against the golden row."""
    rows = majorant_table(c0sq)
    diffs = [
        f"q={q}: computed {got}, expected {want}"
        for (q, got), want in zip(rows, GOLDEN_MAJORANT_CEILINGS)
        if got != want
    ]
    return rows, diffs


# -- test functions -----------------------------------------------------------


def mean_function(
    d: int, spectrum: Spectrum, index_bound: int = MEAN_INDEX_BOUND
) -> AnovaFunction:
    """The coordinate average ``(x_1 + ... + x_d)/d`` as a stored expansion.

    Only available for the wiener kernel, where the identity map expands as
    ``x = sum_n (-1)^{n+1} sqrt(2 lambda_n) zeta_n(x)``.  Each singleton
    gets that vector scaled by ``1/d``, truncated at ``index_bound``; the
    full expansion has unit weighted norm, the truncation keeps it within
    about ``1/index_bound`` of one.
    """
    if spectrum.kind != "wiener":
        raise InvalidConfigurationError("the mean expansion is wiener-specific")
    n = np.arange(1, index_bound + 1)
    coeff = np.where(n % 2 == 1, 1.0, -1.0) * np.sqrt(2.0 * spectrum.eigenvalue(n)) / d
    vec = {(int(i),): float(c) for i, c in zip(n, coeff)}
    terms = {(j,): dict(vec) for j in range(1, d + 1)}
    return AnovaFunction(d=d, constant=0.0, terms=terms, max_index=index_bound)


def single_subset_function(
    d: int,
    u: tuple[int, ...],
    k: tuple[int, ...] = (),
    value: float = 1.0,
    max_index: int | None = None,
) -> AnovaFunction:
    """A single eigenbasis coefficient on subset ``u`` (the constant for ``u=()``)."""
    if not u:
        return AnovaFunction(d=d, constant=value)
    bound = max_index if max_index is not None else max(64, *k)
    return AnovaFunction(d=d, terms={tuple(u): {tuple(k): value}}, max_index=bound)


def random_function(
    d: int,
    spectrum: Spectrum,
    seed: int,
    sparsity: int = 6,
    max_card: int | None = None,
    max_index: int = 8,
    with_constant: bool = True,
) -> AnovaFunction:
    """Seeded sparse function with unit weighted norm.

    Draws ``sparsity`` distinct subsets of size up to ``max_card`` (default
    ``min(d, 5)``), a handful of coefficients on each at indices up to
    ``max_index``, then rescales everything to ``h_norm == 1``.  The same
    seed always reproduces the same coefficient map.
    """
    if max_card is None:
        max_card = min(d, 5)
    if not 1 <= max_card <= d:
        raise InvalidArgumentError("max_card must lie in [1, d]")
    rng = np.random.default_rng(seed)
    subsets: set[tuple[int, ...]] = set()
    attempts = 0
    while len(subsets) < sparsity and attempts < 50 * sparsity:
        card = int(rng.integers(1, max_card + 1))
        coords = tuple(sorted(rng.choice(d, size=card, replace=False) + 1))
        subsets.add(tuple(int(c) for c in coords))
        attempts += 1
    terms: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
    for u in sorted(subsets):
        n_coeff = int(rng.integers(1, 4))
        vec: dict[tuple[int, ...], float] = {}
        for _ in range(n_coeff):
            k = tuple(int(i) for i in rng.integers(1, max_index + 1, size=len(u)))
            vec[k] = float(rng.normal())
        terms[u] = vec
    constant = float(rng.normal()) * 0.2 if with_constant else 0.0
    f = AnovaFunction(d=d, constant=constant, terms=terms, max_index=max_index)
    scale = h_norm(f)
    if scale == 0.0:  # pragma: no cover - normal draws are a.s. nonzero
        raise InvalidArgumentError("degenerate random draw")
    terms = {u: {k: c / scale for k, c in vec.items()} for u, vec in terms.items()}
    return AnovaFunction(
        d=d, constant=constant / scale, terms=terms, max_index=max_index
    )


def make_test_function(kind: str, d: int, spectrum: Spectrum, seed: int = 0, **kw):
    """Build a test function by ``kind``: ``mean``, ``single_subset`` or ``random``."""
    if kind == "mean":
        return mean_function(d, spectrum, **kw)
    if kind == "single_subset":
        return single_subset_function(d, **kw)
    if kind == "random":
        return random_function(d, spectrum, seed, **kw)
    raise InvalidArgumentError(f"unknown test-function kind {kind!r}")


# -- Monte Carlo --------------------------------------------------------------


def mc_l2_error(
    f: AnovaFunction,
    approx: AnovaFunction,
    spectrum: Spectrum,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``||f - approx||_L2`` with its standard error.

    Uniform sampling on the unit cube (the default density); the standard
    error of the norm follows from the error of the mean-square by the
    delta method.  The difference ``f - approx`` is evaluated once, as one
    expansion without its exact-zero coefficients.  Its cost is
    ``sum_u |u| (coefficients on u) * samples`` term-point products, and
    runs above 10^9 of them are refused before any sample is drawn; the
    dimension itself is not limited.

    Raises
    ------
    UnsupportedScaleError
        If the run would exceed 10^9 term-point products.
    """
    if f.d != approx.d:
        raise InvalidArgumentError("functions live in different dimensions")
    diff = _difference(f, approx)
    work = samples * sum(len(u) * len(c) for u, c in diff.terms.items())
    if work > _MC_WORK_BUDGET:
        raise UnsupportedScaleError(
            f"{work:.3g} term-point products exceed the Monte Carlo budget "
            f"of {_MC_WORK_BUDGET:.3g}"
        )
    rng = np.random.default_rng(seed)
    x = rng.random((samples, f.d))
    g = eval_pointwise(diff, spectrum, x)
    gsq = g * g
    m = float(np.mean(gsq))
    se_m = float(np.std(gsq, ddof=1) / math.sqrt(samples))
    if m <= 0.0:
        return 0.0, 0.0
    est = math.sqrt(m)
    return est, se_m / (2.0 * est)


def _difference(f: AnovaFunction, g: AnovaFunction) -> AnovaFunction:
    """``f - g`` as one expansion, exact-zero coefficients dropped."""
    terms = {}
    for u in sorted(f.terms.keys() | g.terms.keys()):
        a, b = f.terms.get(u, {}), g.terms.get(u, {})
        diff = {k: a.get(k, 0.0) - b.get(k, 0.0) for k in sorted(a.keys() | b.keys())}
        terms[u] = {k: c for k, c in diff.items() if c != 0.0}
    return AnovaFunction(
        d=f.d,
        constant=f.constant - g.constant,
        terms=terms,
        max_index=max(f.max_index, g.max_index),
    )
