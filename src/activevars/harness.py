"""Test-function library, golden-table reproduction, and Monte Carlo checks."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)
from . import space
from .space import AnovaFunction, eval_pointwise, h_norm
from .spectrum import Spectrum, _count, _integers
from .truncation import factorial_majorant

__all__ = [
    "GOLDEN_MAJORANT_CEILINGS",
    "table_check",
    "mean_function",
    "single_subset_function",
    "random_function",
    "mc_l2_error",
]

# M(10^-q) for q = 1..10 at C_0^2 = 1/2; the reference row the `table`
# subcommand must reproduce byte for byte.
GOLDEN_MAJORANT_CEILINGS: tuple[int, ...] = (3, 5, 7, 8, 10, 11, 13, 14, 15, 17)

# Index bound for the mean function's per-coordinate expansion.  At this
# depth the discarded part of each univariate expansion carries less than
# 1e-10 of its squared embedded norm (the tail decays like B^-3).
MEAN_INDEX_BOUND = 768

# Largest Monte Carlo run, in term-point products of the difference being
# sampled (sum_u |u| * coefficients on u, times samples).  Cost depends on
# that product, not on the dimension: at the 6-8 ns per product measured
# on one Xeon core (the d = 10 mean function and sparse random functions at
# d = 2..12, 20,000 points each), 1e9 of them take 6-8 s.
_MC_WORK_BUDGET = 10**9


def table_check() -> tuple[list[tuple[int, int]], list[str]]:
    """``(q, M(10^-q))`` rows for ``q = 1..10`` at ``C_0^2 = 1/2``, and their diffs.

    Each diff names a row that differs from ``GOLDEN_MAJORANT_CEILINGS``.
    """
    rows = [(q, factorial_majorant(10.0**-q, 0.5)) for q in range(1, 11)]
    diffs = [
        f"q={q}: computed {got}, expected {want}"
        for (q, got), want in zip(rows, GOLDEN_MAJORANT_CEILINGS)
        if got != want
    ]
    return rows, diffs


# -- test functions -----------------------------------------------------------


def mean_function(d: int, spectrum: Spectrum) -> AnovaFunction:
    """The coordinate average ``(x_1 + ... + x_d)/d`` as a stored expansion.

    Only available for the wiener kernel, where the identity map expands as
    ``x = sum_n (-1)^{n+1} sqrt(2 lambda_n) zeta_n(x)``.  Each singleton
    gets that vector scaled by ``1/d``, truncated at ``MEAN_INDEX_BOUND``;
    the full expansion has unit weighted norm, the truncation keeps it
    within about ``1/MEAN_INDEX_BOUND`` of one.  ``d`` is a Python or numpy
    integer ``>= 1``.
    """
    d = _count(d, "d")
    if spectrum.kind != "wiener":
        raise InvalidConfigurationError("the mean expansion is wiener-specific")
    n = np.arange(1, MEAN_INDEX_BOUND + 1)
    coeff = np.where(n % 2 == 1, 1.0, -1.0) * np.sqrt(2.0 * spectrum.eigenvalue(n)) / d
    vec = {(int(i),): float(c) for i, c in zip(n, coeff)}
    terms = {(j,): dict(vec) for j in range(1, d + 1)}
    return AnovaFunction(d=d, constant=0.0, terms=terms, max_index=MEAN_INDEX_BOUND)


def single_subset_function(
    d: int, u: tuple[int, ...], k: tuple[int, ...] = (), value: float = 1.0
) -> AnovaFunction:
    """A single eigenbasis coefficient on subset ``u`` (the constant for ``u=()``).

    ``k`` holds one Python or numpy integer index per coordinate of ``u``.
    """
    u, k = _integers(u, "u"), _integers(k, "k")
    if len(k) != len(u):
        raise InvalidArgumentError(f"k must hold one index per coordinate of u, not {k!r}")
    if not u:
        return AnovaFunction(d=d, constant=value)
    return AnovaFunction(d=d, terms={u: {k: value}}, max_index=max(64, *k))


def random_function(d: int, spectrum: Spectrum, seed: int) -> AnovaFunction:
    """Seeded sparse function with unit weighted norm.

    Draws up to 6 distinct subsets of size up to ``min(d, 5)`` (fewer when
    ``d`` has fewer), a handful of coefficients on each at indices up to
    ``min(8, N)``, so that every index has an eigenvalue in ``spectrum``,
    then rescales everything to ``h_norm == 1``.  The same seed always
    reproduces the same coefficient map.  ``d`` and ``seed`` are Python or
    numpy integers (``bool`` not): ``d >= 1`` and ``seed >= 0``.
    """
    d, seed = _count(d, "d"), _count(seed, "seed", low=0)
    max_index = min(8, spectrum.n_eigenvalues)
    sparsity, max_card = 6, min(d, 5)
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
    constant = float(rng.normal()) * 0.2
    f = AnovaFunction(d=d, constant=constant, terms=terms, max_index=max_index)
    scale = h_norm(f)
    if scale == 0.0:  # pragma: no cover - normal draws are a.s. nonzero
        raise InvalidArgumentError("degenerate random draw")
    terms = {u: {k: c / scale for k, c in vec.items()} for u, vec in terms.items()}
    return AnovaFunction(
        d=d, constant=constant / scale, terms=terms, max_index=max_index
    )


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
    expansion without its exact-zero coefficients.  Sample points are
    drawn in row chunks of about ``2^18`` doubles, so memory stays bounded
    whatever ``samples * d``; a run whose matrix fits in one chunk draws
    it in one piece.  Evaluating in several chunks can move the last bits
    of the estimate (the point blocks of :func:`eval_pointwise` shift), not
    the points drawn.  Its cost is
    ``sum_u |u| (coefficients on u) * samples`` term-point products, and
    runs above 10^9 of them are refused before any sample is drawn; the
    dimension itself is not limited.  ``samples`` and ``seed`` are Python
    or numpy integers; runs of fewer than 2 samples and negative seeds are
    refused.

    Raises
    ------
    UnsupportedScaleError
        If the run would exceed 10^9 term-point products.
    """
    samples, seed = _count(samples, "samples", low=2), _count(seed, "seed", low=0)
    if f.d != approx.d:
        raise InvalidArgumentError("functions live in different dimensions")
    diff = _difference(f, approx)
    work = samples * sum(len(u) * len(c) for u, c in diff.terms.items())
    if work > _MC_WORK_BUDGET:
        raise UnsupportedScaleError(
            f"{work:.3g} term-point products exceed the Monte Carlo budget "
            f"of {_MC_WORK_BUDGET:.3g}"
        )
    # Consecutive draws from one generator yield the points of a single draw.
    rng = np.random.default_rng(seed)
    rows = max(1, space._BLOCK_DOUBLES // f.d)
    g = np.empty(samples)
    for start in range(0, samples, rows):
        x = rng.random((min(rows, samples - start), f.d))
        g[start : start + len(x)] = eval_pointwise(diff, spectrum, x)
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
