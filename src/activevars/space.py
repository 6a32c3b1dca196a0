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
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigurationError
from .spectrum import (
    _INT,
    EigenfunctionTable,
    Spectrum,
    _count,
    _exp_or_inf,
    _exp_or_raise,
    _fsum_or_inf,
    _integers,
    _logsumexp,
    _outside_unit_interval,
    _real_tuple,
    _run,
    _table_product,
)

__all__ = [
    "AnovaFunction",
    "h_norm",
    "g_norm_exact",
    "GNormResult",
    "eval_pointwise",
]

DEFAULT_MAX_INDEX = 64

# Input checks pass values whose types all fall in these sets as they are.
_FLOAT, _TUPLE = frozenset({float}), frozenset({tuple})

# Points per eval_pointwise block are chosen so that one block's tables and
# products hold about this many doubles (2 MB), whatever the point count.
# The d = 10 mean function then fills 112 points per block.  Against 2^20
# (448 points) its 1,000-point batch is faster, 22 ms against 25 ms, and the
# benchmark's peak RSS is 5.5 MB lower (AVX-512 Xeon, numpy 2.4, one core).
_BLOCK_DOUBLES = 1 << 18


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

    * ``d`` and ``max_index`` are Python or numpy integers ``>= 1``,
      checked by ``spectrum._count`` and stored as ``int``;
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
        d, max_index = _count(self.d, "d"), _count(self.max_index, "max_index")
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
    """Weighted-space norm ``sqrt(c_0^2 + sum_u d^{|u|} sum_k c_{u,k}^2)``.

    A squared norm past double range is summed in log space instead; only a
    norm past it raises :class:`UnsupportedScaleError`.
    """
    parts = [f.constant * f.constant]
    log_parts = [2.0 * math.log(abs(f.constant))] if f.constant else []
    log_d = math.log(f.d)
    for u, coeffs in f.terms.items():
        ssq = _fsum_or_inf(c * c for c in coeffs.values())
        if ssq > 0.0:
            log_parts.append(len(u) * log_d + math.log(ssq))
            parts.append(_exp_or_inf(log_parts[-1]))
    norm_sq = _fsum_or_inf(parts)
    if norm_sq < math.inf:
        return math.sqrt(norm_sq)
    msg = f"the norm exceeds double range at d = {f.d}"
    return _exp_or_raise(0.5 * _logsumexp(log_parts), msg)


def _term_g_sq(coeffs: Iterable[tuple[tuple[int, ...], float]], s: Spectrum, table) -> float:
    """One term's squared norm ``sum c^2 lambda_{k_1} ... lambda_{k_l}`` over ``(k, c)`` pairs."""
    sq = []
    for k, c in coeffs:
        try:
            sq.append(c * c * _table_product(table, k))
        except IndexError:  # past N; indices are >= 1
            sq.append(c * c * s.eigen_product(k))
    return math.fsum(sq)


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
        If ``orthogonal=True`` is requested for a kernel whose
        eigenfunctions do not have zero mean (``KernelSpec.zero_mean`` is
        ``False``: wiener).
    """
    if orthogonal and s.kernel.zero_mean is False:
        raise InvalidConfigurationError(
            "wiener eigenfunctions are not mean-free; cross-subset terms are "
            "not orthogonal in L2"
        )
    table = s.table()
    sq = [_term_g_sq(coeffs.items(), s, table) for coeffs in f.terms.values()]
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


def eval_pointwise(f: AnovaFunction, s: Spectrum, x: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at sample points (rows of ``x``), for test/MC purposes.

    Requires an analytic kernel so the eigenfunctions can be evaluated.
    ``x`` has shape ``(n_points, d)`` (one point may come as a 1-D row, and
    more dimensions are refused); the coordinates ``f`` uses must lie in
    ``[0, 1]`` (NaN does not), the others are not looked at.

    Each used coordinate gets the table rows of the indices ``f`` uses on
    it, from one :class:`EigenfunctionTable` per distinct index set (the
    coordinates of the mean function share one).  A block holds the rows of
    the coordinates that some subset of two or more uses, filled first.
    Every other coordinate is read only by its own singleton: its rows go
    into one region that all such coordinates reuse, filled just before that
    singleton's terms are added.  Subsets are added in the order of
    ``f.terms``.  A subset's terms are its coordinates' table rows
    multiplied, weighted by ``c sqrt(2^{|u|} lambda_{k_1} ... lambda_{k_l})``
    and summed.  The weights are one vectorized left-to-right product per
    subset, with the bits of :meth:`Spectrum.eigen_product`.  Terms go in
    the order of their first coordinate's rows, so a single-coordinate
    subset whose rows form a run (one that uses its whole table, say) reads
    them in place, with no gather.  Points go through in blocks of about
    ``_BLOCK_DOUBLES`` live doubles, so memory stays bounded whatever their
    number.  Per point a block holds the held rows, the reused region (the
    largest of its tables), two products as wide as the widest gathered
    subset and the tables' scratch.
    """
    try:
        x = np.atleast_2d(np.asarray(x, dtype=float))
    except (TypeError, ValueError):
        raise InvalidArgumentError("points must be a rectangular array of reals") from None
    if x.ndim != 2:
        raise InvalidArgumentError(f"points must be a 2-D array, not of shape {x.shape}")
    if x.shape[1] != f.d:
        raise InvalidArgumentError(f"points have {x.shape[1]} coordinates, need {f.d}")
    out = np.full(x.shape[0], f.constant, dtype=float)
    if not f.terms:
        return out
    used: dict[int, set[int]] = {}
    held: set[int] = set()  # coordinates of subsets of two or more
    for u, coeffs in f.terms.items():
        if len(u) > 1:
            held.update(u)
        for j, coord in enumerate(u):
            used.setdefault(coord, set()).update(k[j] for k in coeffs)
    tables, shared = {}, {}
    for coord, idx in used.items():
        key = tuple(sorted(idx))
        if key not in shared:
            shared[key] = EigenfunctionTable(s, key)
        tables[coord] = shared[key]
    # The used columns, gathered into one temporary that is freed before the
    # block buffer is allocated.
    if _outside_unit_interval(x[:, [c - 1 for c in used]]):
        raise InvalidArgumentError("evaluation points must lie in [0, 1]")
    # Held tables are stacked; every other coordinate is read only by its own
    # singleton, and its table goes into one region after them.
    offsets, n_rows = {}, 0
    for coord in held:
        offsets[coord] = n_rows
        n_rows += tables[coord].n_rows
    alone = [coord for coord in tables if coord not in held]
    offsets.update(dict.fromkeys(alone, n_rows))
    n_rows += max((tables[coord].n_rows for coord in alone), default=0)

    # Per subset: the coordinate to fill first (None for held ones), term
    # weights, and each term's row in the stacked tables, one row list per
    # coordinate of the subset, in the order of the first.
    terms = []
    for u, coeffs in f.terms.items():
        ks = np.array(list(coeffs))
        rows = [
            offsets[coord] + tables[coord].layout[np.searchsorted(tables[coord].indices, ks[:, j])]
            for j, coord in enumerate(u)
        ]
        order = np.argsort(rows[0], kind="stable")
        rows = [r[order] for r in rows]
        if len(u) == 1:  # one row per index, so a run is read in place
            rows[0] = _run(rows[0].tolist())
        weights = _term_weights(s, ks, list(coeffs.values()))[order]
        terms.append((None if u[0] in held else u[0], weights, rows))

    # One buffer per call, carved anew for each block: fresh memory costs a
    # page fault per page on first touch, so blocks reuse it.
    widest = max(
        (len(w) for _, w, rows in terms if len(rows) > 1 or not isinstance(rows[0], slice)),
        default=0,
    )
    work = max(table.work_doubles for table in shared.values())
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

        def fill(coord: int) -> None:
            table = tables[coord]
            rows = slice(offsets[coord], offsets[coord] + table.n_rows)
            table.fill(xb[:, coord - 1], scratch, stacked[rows])

        for coord in held:
            fill(coord)
        for coord, weights, rows in terms:
            if coord is not None:
                fill(coord)
            n = len(weights)
            p = _gather(stacked, rows[0], prod[:n])
            for r in rows[1:]:
                p = np.multiply(p, _gather(stacked, r, factor[:n]), out=prod[:n])
            out[start : start + b] += weights @ p
    return out


def _term_weights(s: Spectrum, ks: np.ndarray, cs) -> np.ndarray:
    """``c sqrt(2^l lambda_{k_1} ... lambda_{k_l})`` for each row ``k`` of ``ks``, ``c`` of ``cs``.

    One vectorized left-to-right product over the columns of ``ks``, with the
    bits of :meth:`Spectrum.eigen_product`: table entries up to ``N``, the
    closed form past it.
    """
    lam = s.eigenvalue(ks)
    product = lam[:, 0]
    for j in range(1, ks.shape[1]):
        product = product * lam[:, j]
    return np.array(cs) * np.sqrt(2.0 ** ks.shape[1] * product)


def _gather(a: np.ndarray, rows: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows of ``a``: a view for a slice, else copied into ``out``."""
    if isinstance(rows, slice):
        return a[rows]
    return np.take(a, rows, axis=0, out=out, mode="clip")
