"""The weighted d-variate space, sparse interaction expansions, and norms.

A function is stored through its interaction (ANOVA-style) decomposition
``f = c_0 + sum_u f_u`` where ``u`` ranges over subsets of coordinates and
each ``f_u`` is expanded in the tensor eigenbasis of its subset: multi-index
``k`` contributes the coefficient ``c_{u,k} = <f_u, zeta_{u,k}>`` with
``zeta_{u,k}`` normalized to unit norm in the plain tensor space ``H_u``.

The ambient weighted norm penalizes high interaction orders through the
product weights ``gamma_{d,u} = d^{-|u|}``:

    ||f||_H^2 = c_0^2 + sum_u d^{|u|} sum_k c_{u,k}^2.

The embedded (L2) norm of a single interaction term is exact in this basis,
``||f_u||_G^2 = sum_k c_{u,k}^2 prod_j lambda_{k_j}``; whether terms of
*different* subsets are orthogonal in G depends on the kernel (zero-mean
kernels: yes; wiener: no, and the aggregate is reported as a certified
triangle-inequality upper bound).
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigurationError
from .spectrum import (
    _INT,
    EigenfunctionTable,
    Spectrum,
    _count,
    _finite_positive,
    _integers,
    _outside_unit_interval,
    _real_tuple,
)

__all__ = [
    "AnovaFunction",
    "h_norm",
    "g_norm_exact",
    "GNormResult",
    "embedding_norm_bound",
    "embedding_norm_special",
    "eval_pointwise",
]

DEFAULT_MAX_INDEX = 64

# Input checks pass values whose types all fall in these sets as they are.
_FLOAT, _TUPLE = frozenset({float}), frozenset({tuple})

# Points per eval_pointwise block are chosen so that one block's tables and
# products hold about this many doubles (8 MB), whatever the point count.
_BLOCK_DOUBLES = 1 << 20


def _finite_floats(values) -> tuple[float, ...] | None:
    """``values`` as floats; ``None`` unless each is a finite Python or numpy real.

    ``bool`` and ``str`` are not reals here.
    """
    items = tuple(values)
    if not set(map(type, items)) <= _FLOAT:
        items = _real_tuple(items)
    return items if items is not None and all(map(math.isfinite, items)) else None


def _multi_indices(keys: list, u: tuple[int, ...], max_index: int) -> list[tuple[int, ...]]:
    """The multi-indices of subset ``u``, as tuples of ``int``, checked together.

    Keys that are all tuples of Python ints pass as they are, through a few
    C-level passes over all of them; the others are converted one by one.
    """
    flat = list(chain.from_iterable(keys)) if set(map(type, keys)) <= _TUPLE else ()
    if not (flat and set(map(type, flat)) <= _INT):
        keys = [_integers(k, "multi-index entries") for k in keys]
        flat = list(chain.from_iterable(keys))
    if set(map(len, keys)) != {len(u)} or min(flat) < 1 or max(flat) > max_index:
        bad = next(k for k in keys if len(k) != len(u) or min(k) < 1 or max(k) > max_index)
        raise InvalidArgumentError(
            f"multi-index {bad} of subset {u} needs {len(u)} entries in [1..{max_index}]"
        )
    return keys


def _validate_coords(coords: tuple[int, ...], d: int) -> None:
    if coords and not (
        1 <= coords[0] and coords[-1] <= d and all(map(operator.lt, coords, coords[1:]))
    ):
        raise InvalidArgumentError(
            f"coordinates {coords} must be strictly increasing within [1..{d}]"
        )


@dataclass(frozen=True)
class AnovaFunction:
    """Sparse interaction expansion of a function in the tensor eigenbasis.

    ``terms`` maps a coordinate subset (strictly increasing tuple) to a map
    from multi-indices (one eigenvalue index per subset coordinate) to
    coefficients.  Instances are treated as immutable; norm computations
    are pure and parallelize over subsets.

    Construction checks every input and stores it in one form:

    * ``d >= 1`` and ``max_index`` are Python or numpy integers, stored as
      ``int``;
    * coordinates lie in ``1..d``, strictly increasing, and indices in
      ``1..max_index``, one per coordinate: Python or numpy integers,
      stored as tuples of ``int``;
    * the constant and the coefficients are finite Python or numpy reals,
      stored as ``float``.

    ``bool`` is not an integer or a real here, and strings are not numbers;
    every refused input raises :class:`InvalidArgumentError`.  ``terms``
    is copied into fresh dicts, and subsets without coefficients are
    dropped.
    """

    d: int
    constant: float = 0.0
    terms: Mapping[tuple[int, ...], Mapping[tuple[int, ...], float]] = field(
        default_factory=dict
    )
    max_index: int = DEFAULT_MAX_INDEX

    def __post_init__(self) -> None:
        (d, max_index) = _integers((self.d, self.max_index), "d and max_index")
        if d < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        constant = _finite_floats((self.constant,))
        if constant is None:
            raise InvalidArgumentError(f"the constant must be a finite real, not {self.constant!r}")
        if not isinstance(self.terms, abc.Mapping):
            raise InvalidArgumentError(f"terms must be a mapping, not {self.terms!r}")
        clean: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        for u, coeffs in self.terms.items():
            u = _integers(u, "coordinates")
            if not u:
                raise InvalidArgumentError("store the empty subset via `constant`")
            _validate_coords(u, d)
            if not isinstance(coeffs, abc.Mapping):
                raise InvalidArgumentError(f"coefficients on {u} must be a mapping")
            if coeffs:
                keys = _multi_indices(list(coeffs), u, max_index)
                values = _finite_floats(coeffs.values())
                if values is None:
                    raise InvalidArgumentError(
                        f"coefficients on {u} must be finite reals, not {list(coeffs.values())}"
                    )
                clean[u] = dict(zip(keys, values))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "constant", constant[0])
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "max_index", max_index)

    def _submap(
        self, terms: dict[tuple[int, ...], dict[tuple[int, ...], float]], constant: float
    ) -> "AnovaFunction":
        """A function on part of this one's checked terms, not checked again.

        ``terms`` must map some of this function's subsets to fresh,
        nonempty dicts of some of their stored coefficients, and
        ``constant`` be this function's constant or 0.0: all of it passed
        :meth:`__post_init__` already.  ``d`` and ``max_index`` are this
        function's.
        """
        g = object.__new__(type(self))
        object.__setattr__(g, "d", self.d)
        object.__setattr__(g, "constant", constant)
        object.__setattr__(g, "terms", terms)
        object.__setattr__(g, "max_index", self.max_index)
        return g


def h_norm(f: AnovaFunction) -> float:
    """Weighted-space norm ``sqrt(c_0^2 + sum_u d^{|u|} sum_k c_{u,k}^2)``."""
    parts = [f.constant * f.constant]
    log_d = math.log(f.d)
    for u, coeffs in f.terms.items():
        ssq = math.fsum(c * c for c in coeffs.values())
        if ssq > 0.0:
            parts.append(math.exp(len(u) * log_d + math.log(ssq)))
    return math.sqrt(math.fsum(parts))


def _term_g_sq(coeffs: Mapping[tuple[int, ...], float], s: Spectrum) -> float:
    """Exact squared embedded norm of one interaction term."""
    return math.fsum([c * c * s.eigen_product(k) for k, c in coeffs.items()])


@dataclass(frozen=True)
class GNormResult:
    """Embedded-norm computation outcome.

    ``value`` is exact when ``is_upper_bound`` is False and a certified
    triangle-inequality upper bound otherwise.
    """

    value: float
    is_upper_bound: bool


def g_norm_exact(f: AnovaFunction, s: Spectrum, orthogonal: bool) -> GNormResult:
    """Embedded (L2) norm of ``f`` from its eigenbasis coefficients.

    With ``orthogonal=True`` (zero-mean kernels: korobov, or custom spectra
    the caller asserts orthogonality for) the squared norm is the exact sum

        c_0^2 + sum_u sum_k c_{u,k}^2 prod_j lambda_{k_j}.

    With ``orthogonal=False`` cross-subset terms need not be orthogonal and
    the returned value is ``|c_0| + sum_u ||f_u||_G``, flagged as a bound.

    Raises
    ------
    InvalidConfigurationError
        If ``orthogonal=True`` is requested for the wiener kernel, whose
        eigenfunctions do not have zero mean.
    """
    if orthogonal and s.kind == "wiener":
        raise InvalidConfigurationError(
            "wiener eigenfunctions are not mean-free; cross-subset terms are "
            "not orthogonal in L2"
        )
    sq = [_term_g_sq(coeffs, s) for coeffs in f.terms.values()]
    value = _combine_errors(f.constant, sq, orthogonal)
    return GNormResult(value=value, is_upper_bound=not orthogonal)


def _combine_errors(c0: float, sq: list[float], orthogonal: bool) -> float:
    """L2 norm, or its triangle bound, of ``c0`` plus parts with squared norms ``sq``.

    Orthogonal parts give the exact ``sqrt(c0^2 + sum sq)``; otherwise the
    norms add: ``|c0| + sum sqrt(sq)``.  Both sums are compensated.  The
    certificates of :func:`g_norm_exact` and ``CdaApplier.apply`` are this
    one rule.
    """
    if orthogonal:
        return math.sqrt(math.fsum([c0 * c0] + sq))
    return math.fsum([abs(c0)] + list(map(math.sqrt, sq)))


def embedding_norm_bound(d: int, c0sq: float) -> float:
    """General upper bound ``(1 + C_0^2/d)^{d/2}`` on the embedding norm."""
    d, c0sq = _count(d, "d"), _finite_positive(c0sq, "c0sq")
    return math.exp(0.5 * d * math.log1p(c0sq / d))


def embedding_norm_special(d: int, c0sq: float) -> float:
    """Sharp embedding norm ``max_{0<=k<=d} (C_0^2/d)^{k/2}`` for zero-mean kernels.

    The k-th factor is geometric, so the maximum sits at an endpoint; both
    endpoints are evaluated in log space.
    """
    d, c0sq = _count(d, "d"), _finite_positive(c0sq, "c0sq")
    at_d = math.exp(0.5 * d * (math.log(c0sq) - math.log(d)))
    return max(1.0, at_d)


def eval_pointwise(f: AnovaFunction, s: Spectrum, x: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at sample points (rows of ``x``), for test/MC purposes.

    Requires an analytic kernel so the eigenfunctions can be evaluated.
    ``x`` has shape ``(n_points, d)``; the coordinates ``f`` uses must lie
    in ``[0, 1]`` (NaN does not), the others are not looked at.

    Each used coordinate gets one :class:`EigenfunctionTable` of the
    indices ``f`` uses on it.  A subset's terms are its coordinates' table
    rows, gathered and multiplied, weighted by
    ``c sqrt(2^{|u|} lambda_{k_1} ... lambda_{k_l})`` and summed.  Points
    go through in blocks of about ``_BLOCK_DOUBLES`` live doubles, so
    memory stays bounded whatever their number.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != f.d:
        raise InvalidArgumentError(f"points have {x.shape[1]} coordinates, need {f.d}")
    out = np.full(x.shape[0], f.constant, dtype=float)
    if not f.terms:
        return out
    used: dict[int, set[int]] = {}
    for u, coeffs in f.terms.items():
        for j, coord in enumerate(u):
            used.setdefault(coord, set()).update(k[j] for k in coeffs)
    indices = {coord: np.array(sorted(idx)) for coord, idx in used.items()}
    tables = {coord: EigenfunctionTable(s, idx) for coord, idx in indices.items()}
    # The used columns, gathered into one temporary that is freed before the
    # block buffer is allocated.
    if _outside_unit_interval(x[:, [c - 1 for c in used]]):
        raise InvalidArgumentError("evaluation points must lie in [0, 1]")
    offsets, n_rows = {}, 0
    for coord, table in tables.items():
        offsets[coord] = n_rows
        n_rows += table.n_rows

    # Per subset: term weights, and each term's row in the stacked tables,
    # one row list per coordinate of the subset.
    terms = []
    for u, coeffs in f.terms.items():
        ks = np.array(list(coeffs))
        weights = np.array(
            [c * math.sqrt(2.0 ** len(u) * s.eigen_product(k)) for k, c in coeffs.items()]
        )
        rows = [
            offsets[coord] + tables[coord].layout[np.searchsorted(indices[coord], ks[:, j])]
            for j, coord in enumerate(u)
        ]
        terms.append((weights, rows))

    # One buffer per call, carved anew for each block: fresh memory costs a
    # page fault per page on first touch, so blocks reuse it.
    widest = max(len(weights) for weights, _ in terms)
    work = max(table.work_doubles for table in tables.values())
    per_point = n_rows + 2 * widest + work
    block = max(1, min(len(out), _BLOCK_DOUBLES // per_point))
    buffer = np.empty(per_point * block)
    for start in range(0, len(out), block):
        xb = x[start : start + block]
        b = len(xb)
        # Scratch first: its complex view wants the buffer's alignment.
        scratch = buffer[: work * b]
        stacked = buffer[work * b :][: n_rows * b].reshape(n_rows, b)
        prod = buffer[(work + n_rows) * b :][: widest * b].reshape(widest, b)
        factor = buffer[(work + n_rows + widest) * b :][: widest * b].reshape(widest, b)
        for coord, table in tables.items():
            rows = slice(offsets[coord], offsets[coord] + table.n_rows)
            table.fill(xb[:, coord - 1], scratch, stacked[rows])
        for weights, rows in terms:
            p, q = prod[: len(weights)], factor[: len(weights)]
            np.take(stacked, rows[0], axis=0, out=p, mode="clip")
            for r in rows[1:]:
                np.take(stacked, r, axis=0, out=q, mode="clip")
                p *= q
            out[start : start + b] += weights @ p
    return out

