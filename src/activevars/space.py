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

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigurationError
from .spectrum import EigenfunctionTable, Spectrum

__all__ = [
    "SubsetIndex",
    "AnovaFunction",
    "Functional",
    "weight",
    "h_norm",
    "g_norm_exact",
    "GNormResult",
    "embedding_norm_bound",
    "embedding_norm_special",
    "act",
    "eval_pointwise",
    "anova_to_json",
    "anova_from_json",
]

DEFAULT_MAX_INDEX = 64

# Points per eval_pointwise block are chosen so that one block's tables and
# products hold about this many doubles (8 MB), whatever the point count.
_BLOCK_DOUBLES = 1 << 20


def _validate_coords(coords: tuple[int, ...], d: int) -> None:
    if any(c < 1 or c > d for c in coords):
        raise InvalidArgumentError(f"coordinates {coords} not within [1..{d}]")
    if any(coords[i] >= coords[i + 1] for i in range(len(coords) - 1)):
        raise InvalidArgumentError(f"coordinates {coords} must be strictly increasing")


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """A subset of the coordinates ``{1, ..., d}``, kept strictly increasing."""

    coords: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.d < 1:
            raise InvalidArgumentError("ambient dimension must be >= 1")
        _validate_coords(self.coords, self.d)

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class AnovaFunction:
    """Sparse interaction expansion of a function in the tensor eigenbasis.

    ``terms`` maps a coordinate subset (strictly increasing tuple) to a map
    from multi-indices (one eigenvalue index per subset coordinate) to
    coefficients.  Instances are treated as immutable; norm computations
    are pure and parallelize over subsets.
    """

    d: int
    constant: float = 0.0
    terms: Mapping[tuple[int, ...], Mapping[tuple[int, ...], float]] = field(
        default_factory=dict
    )
    max_index: int = DEFAULT_MAX_INDEX

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        clean: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        for u, coeffs in self.terms.items():
            u = tuple(int(c) for c in u)
            if not u:
                raise InvalidArgumentError("store the empty subset via `constant`")
            _validate_coords(u, self.d)
            vec: dict[tuple[int, ...], float] = {}
            for k, c in coeffs.items():
                k = tuple(int(i) for i in k)
                if len(k) != len(u):
                    raise InvalidArgumentError(
                        f"multi-index {k} has wrong length for subset {u}"
                    )
                if any(i < 1 or i > self.max_index for i in k):
                    raise InvalidArgumentError(
                        f"multi-index {k} outside [1..{self.max_index}]"
                    )
                vec[k] = float(c)
            if vec:
                clean[u] = vec
        object.__setattr__(self, "terms", clean)

    def subsets(self) -> Iterable[tuple[int, ...]]:
        return self.terms.keys()

    def restrict(self, u: tuple[int, ...]) -> "AnovaFunction":
        """The single-subset function consisting of the ``u`` term alone."""
        return AnovaFunction(
            d=self.d, constant=0.0, terms={u: dict(self.terms[u])}, max_index=self.max_index
        )


@dataclass(frozen=True)
class Functional:
    """A linear functional described by the subsets its generator touches."""

    components: frozenset[SubsetIndex]

    def __post_init__(self) -> None:
        dims = {s.d for s in self.components}
        if len(dims) > 1:
            raise InvalidArgumentError("all component subsets must share one dimension")

    @property
    def active(self) -> int:
        return act(self)


def act(functional: Functional) -> int:
    """Number of active variables: the size of the union of component subsets."""
    union: set[int] = set()
    for s in functional.components:
        union.update(s.coords)
    return len(union)


def weight(d: int, u: SubsetIndex | tuple[int, ...]) -> float:
    """Product weight ``d^{-|u|}`` of a subset, evaluated in log space.

    For very large ``d`` and ``|u|`` the weight underflows to the nearest
    representable double (possibly 0.0) rather than overflowing anything.
    """
    coords = u.coords if isinstance(u, SubsetIndex) else tuple(u)
    if isinstance(u, SubsetIndex):
        if u.d != d:
            raise InvalidArgumentError(f"subset built for d={u.d}, not d={d}")
    else:
        _validate_coords(coords, d)
    if not coords:
        return 1.0
    return math.exp(-len(coords) * math.log(d))


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
    triangle-inequality upper bound otherwise.  ``per_subset`` holds the
    exact embedded norm of each stored interaction term (those are exact
    for every kernel, since eigenfunctions of one subset are mutually
    orthogonal in L2).
    """

    value: float
    is_upper_bound: bool
    per_subset: dict[tuple[int, ...], float]


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
    per_subset = {u: math.sqrt(_term_g_sq(coeffs, s)) for u, coeffs in f.terms.items()}
    if orthogonal:
        total = math.sqrt(
            math.fsum([f.constant * f.constant] + [v * v for v in per_subset.values()])
        )
        return GNormResult(value=total, is_upper_bound=False, per_subset=per_subset)
    total = math.fsum([abs(f.constant)] + list(per_subset.values()))
    return GNormResult(value=total, is_upper_bound=True, per_subset=per_subset)


def embedding_norm_bound(d: int, c0sq: float) -> float:
    """General upper bound ``(1 + C_0^2/d)^{d/2}`` on the embedding norm."""
    if d < 1 or c0sq <= 0:
        raise InvalidArgumentError("need d >= 1 and c0sq > 0")
    return math.exp(0.5 * d * math.log1p(c0sq / d))


def embedding_norm_special(d: int, c0sq: float) -> float:
    """Sharp embedding norm ``max_{0<=k<=d} (C_0^2/d)^{k/2}`` for zero-mean kernels.

    The k-th factor is geometric, so the maximum sits at an endpoint; both
    endpoints are evaluated in log space.
    """
    if d < 1 or c0sq <= 0:
        raise InvalidArgumentError("need d >= 1 and c0sq > 0")
    at_d = math.exp(0.5 * d * (math.log(c0sq) - math.log(d)))
    return max(1.0, at_d)


def eval_pointwise(f: AnovaFunction, s: Spectrum, x: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at sample points (rows of ``x``), for test/MC purposes.

    Requires an analytic kernel so the eigenfunctions can be evaluated.
    ``x`` has shape ``(n_points, d)``; the coordinates ``f`` uses must lie
    in ``[0, 1]``, the others are not looked at.

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
    if any(np.any(x[:, c - 1] < 0.0) or np.any(x[:, c - 1] > 1.0) for c in used):
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


# -- serialization ----------------------------------------------------------


def anova_to_json(f: AnovaFunction) -> str:
    """Serialize as ``{d, constant, terms: [{u, coeffs: [{k, c}]}]}``."""
    terms = []
    for u in sorted(f.terms):
        coeffs = [
            {"k": list(k), "c": f.terms[u][k]} for k in sorted(f.terms[u])
        ]
        terms.append({"u": list(u), "coeffs": coeffs})
    return json.dumps(
        {"d": f.d, "constant": f.constant, "terms": terms, "max_index": f.max_index},
        sort_keys=True,
    )


def anova_from_json(text: str) -> AnovaFunction:
    doc = json.loads(text)
    terms = {
        tuple(entry["u"]): {tuple(c["k"]): c["c"] for c in entry["coeffs"]}
        for entry in doc["terms"]
    }
    return AnovaFunction(
        d=doc["d"],
        constant=doc["constant"],
        terms=terms,
        max_index=doc.get("max_index", DEFAULT_MAX_INDEX),
    )
