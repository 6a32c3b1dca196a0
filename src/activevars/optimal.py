"""Sorted tensor-product eigenvalues: the stream, the rank cut, the spectral algorithm.

Under embedded-norm orthogonality the d-variate operator's eigenvalues are
exactly the weighted products ``d^{-l} * lambda_{k_1} ... lambda_{k_l}``
over all coordinate subsets of size ``l`` and all index assignments, with 1
for the empty subset.  A label is a canonical index multiset; its
multiplicity, ``C(d, l)`` times the multiset's orderings, stands in for the
subsets, which are never materialized.

Two walks read these values, and both stop at ``ENUMERATION_CAP`` because
they hold what they visit.  :class:`TensorEigenStream` emits them in
nonincreasing order from a best-first frontier whose entries carry each
label's orderings; one step of it feeds the labelled entries, the
distinct values and :func:`_cardinality_counts`, which adds up orderings
per cardinality and builds no entry.  :class:`_RankOracle` cuts one
cardinality at the changing-dimension algorithm's budget from the
multisets whose products reach a bound, with no frontier.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    CertificationError,
    EnumerationCapError,
    InvalidConfigurationError,
    TailCertificateError,
)
from .spectrum import Spectrum, _count, _real, _table_product
from .truncation import orthogonal_truncation_level

__all__ = [
    "EigenEntry",
    "DistinctEigenvalue",
    "TensorEigenStream",
    "OptimalAlgorithm",
    "optimal_algorithm",
]


@dataclass(frozen=True)
class EigenEntry:
    """One enumerated label: a canonical index multiset and its weight.

    ``indices``, the label, is the nondecreasing tuple of univariate
    eigenvalue indices (so the eigenvalue factors are nonincreasing), and
    ``cardinality`` its length; ``multiplicity`` counts the subset choices
    times the ordered arrangements of the multiset.
    """

    value: float
    indices: tuple[int, ...]
    multiplicity: int

    @property
    def cardinality(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class DistinctEigenvalue:
    """A distinct eigenvalue with its total multiplicity across labels.

    ``labels`` holds the sorted index tuples that share the value, in the
    stream's order.
    """

    value: float
    multiplicity: int
    labels: tuple[tuple[int, ...], ...]


ENUMERATION_CAP = 2_000_000


def _arrangement_counts(rows: np.ndarray) -> np.ndarray:
    """Distinct orderings of every sorted row's index multiset, as exact integers."""
    l = rows.shape[1]
    dtype = np.int64 if math.factorial(l) * max(len(rows), 1) < 2**63 else object
    run = np.ones(len(rows), dtype=dtype)
    denom = np.ones(len(rows), dtype=dtype)
    for j in range(1, l):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1).astype(dtype)
        denom *= run
    return math.factorial(l) // denom


class TensorEigenStream:
    """Lazily sorted eigenvalues of the d-variate operator.

    The stream is a stateful single-consumer iterator; concurrent sweeps
    should each build their own instance (construction is cheap).  Distinct
    labels with equal values are emitted by cardinality, then by index
    tuple; use :meth:`next_eigenvalue` to merge them into per-value totals.

    For truncated infinite spectra the enumeration is exact for every value
    above ``lambda_{N+1} / d``; :meth:`require_certified` turns a demand
    below that threshold into a :class:`TailCertificateError`.

    Parameters
    ----------
    d : int
        Ambient dimension: a Python or numpy integer ``>= 1``, ``bool`` not.
    spectrum : Spectrum
        Univariate eigenvalue sequence; its largest eigenvalue must not
        exceed ``d`` (otherwise extending a multiset could increase the
        weighted product and the best-first order would break).
    """

    def __init__(self, d: int, spectrum: Spectrum) -> None:
        d = _count(d, "d")
        if spectrum.eigenvalue(1) > d:
            raise InvalidConfigurationError(
                "sorted enumeration requires lambda_1 <= d so that adding a "
                "variable never increases the weighted product"
            )
        self.d = d
        self.spectrum = spectrum
        self._inv_d = 1.0 / d
        self._max_index = spectrum.n_eigenvalues
        self._heap: list[tuple[float, int, tuple[int, ...], int]] = [(-1.0, 0, (), 1)]
        self._seen: set[tuple[int, ...]] = {()}
        self._last_value = math.inf
        # Largest value :meth:`above` left out (0 until it is called).
        self.first_excluded = 0.0

    # -- certification -------------------------------------------------

    def require_certified(self, epsilon: float) -> float:
        """Fail fast when counting down to ``epsilon^2`` is not certified.

        Enumeration is exact for every value strictly above
        ``lambda_{N+1} / d`` (above 0 for a finite spectrum), the value
        returned: the largest of any label that uses an index past ``N``,
        which the singleton ``(N+1,)`` attains.  ``epsilon`` is a finite
        positive real.
        """
        epsilon = _real(epsilon, "epsilon", 0.0, math.inf)
        thr = 0.0
        if not self.spectrum.is_finite:
            thr = self.spectrum.eigenvalue(self._max_index + 1) * self._inv_d
        if epsilon * epsilon < thr:
            raise TailCertificateError(
                f"demand eps^2={epsilon * epsilon:.3e} falls below the tail "
                f"certificate {thr:.3e} of a spectrum truncated at "
                f"N={self._max_index}; rebuild the spectrum with a larger N"
            )
        return thr

    # -- enumeration -----------------------------------------------------

    def _step(self) -> tuple[float, tuple[int, ...], int]:
        """Pop the largest label and push its unseen successors.

        Returns the label's value, its indices and its orderings (the
        multiset's distinct arrangements, carried on the heap).  A successor
        bumps the last index of a run by one or extends the multiset with a
        fresh index 1; its orderings follow from the run lengths.  The step
        whose successors take the seen-set past ``ENUMERATION_CAP`` raises
        :class:`EnumerationCapError`.  Raises ``StopIteration`` once the
        heap is empty.
        """
        heap, seen = self._heap, self._seen
        if not heap:
            raise StopIteration
        neg_value, cardinality, indices, orderings = heapq.heappop(heap)
        value = -neg_value
        top, last = self._max_index, cardinality - 1
        eigen_product, inv_d = self.spectrum.eigen_product, self._inv_d
        # Canonical multiplication order (eigenvalues nonincreasing, then the
        # 1/d factors) keeps equal labels bit-identical across code paths.
        for pos, v in enumerate(indices):
            if v < top and (pos == last or v < indices[pos + 1]):
                nxt = indices[:pos] + (v + 1,) + indices[pos + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    x = eigen_product(nxt)
                    for _ in nxt:
                        x *= inv_d
                    count = orderings * indices.count(v) // nxt.count(v + 1)
                    heapq.heappush(heap, (-x, cardinality, nxt, count))
        if cardinality < self.d:
            nxt = (1,) + indices
            if nxt not in seen:
                seen.add(nxt)
                x = eigen_product(nxt)
                for _ in nxt:
                    x *= inv_d
                count = orderings * (cardinality + 1) // nxt.count(1)
                heapq.heappush(heap, (-x, cardinality + 1, nxt, count))
        if len(seen) > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"the stream would visit more than {ENUMERATION_CAP} labels, the "
                "enumeration cap: every visited label stays in memory"
            )
        if value > self._last_value * (1.0 + 1e-12):  # pragma: no cover
            raise CertificationError("eigenvalue stream emitted an increasing value")
        self._last_value = value
        return value, indices, orderings

    def __iter__(self) -> Iterator[EigenEntry]:
        return self

    def __next__(self) -> EigenEntry:
        value, indices, orderings = self._step()
        multiplicity = math.comb(self.d, len(indices)) * orderings
        return EigenEntry(value=value, indices=indices, multiplicity=multiplicity)

    def above(self, epsilon: float) -> Iterator[EigenEntry]:
        """Entries with value strictly above ``epsilon^2``, largest first.

        The demand, a finite positive real, is certified
        (:meth:`require_certified`) before the first entry.  The first entry
        at or below ``epsilon^2`` is popped too.  :attr:`first_excluded`
        becomes the largest value left out of the untruncated spectrum: the
        larger of that entry's value (0 when the stream runs out first) and
        ``lambda_{N+1} / d``, the largest value past the table.
        """
        epsilon = _real(epsilon, "epsilon", 0.0, math.inf)
        self.first_excluded = self.require_certified(epsilon)
        thr = epsilon * epsilon
        for entry in self:
            if entry.value <= thr:
                self.first_excluded = max(self.first_excluded, entry.value)
                return
            yield entry

    def next_eigenvalue(self) -> DistinctEigenvalue:
        """Next distinct value, merging all labels that share it.

        Raises
        ------
        StopIteration
            When the (finite) stream is exhausted.
        """
        value, indices, orderings = self._step()
        labels = [indices]
        total = math.comb(self.d, len(indices)) * orderings
        while self._heap and -self._heap[0][0] == value:
            _, indices, orderings = self._step()
            labels.append(indices)
            total += math.comb(self.d, len(indices)) * orderings
        return DistinctEigenvalue(value=value, multiplicity=total, labels=tuple(labels))


def _total_count(d: int, n) -> int:
    """``sum_l C(d,l) n[l]``: the functionals per-subset counts ``n`` evaluate on all subsets."""
    return sum(math.comb(d, l) * n_l for l, n_l in enumerate(n))


def _cardinality_counts(epsilon: float, d: int, spectrum: Spectrum) -> list[int]:
    """Tensor eigenvalues above ``epsilon^2`` on one subset of each cardinality.

    ``n[l]``, the functionals the spectral algorithm evaluates on one
    ``l``-subset, is the sum of the orderings the stream carries for its
    labels of cardinality ``l``; ``n[0]`` is 1, the constant, unless
    ``epsilon`` is 1.  One pass of the stream that stores no label: like
    :meth:`TensorEigenStream.above` it certifies the demand and pops the
    first value at or below ``epsilon^2``.  ``epsilon`` is a finite
    positive real.
    """
    stream = TensorEigenStream(d, spectrum)
    epsilon = _real(epsilon, "epsilon", 0.0, math.inf)
    stream.require_certified(epsilon)
    thr = epsilon * epsilon
    counts = [0]
    while stream._heap:
        value, indices, orderings = stream._step()
        if value <= thr:
            break
        while len(indices) >= len(counts):
            counts.append(0)
        counts[len(indices)] += orderings
    return counts


# Relative slack of the rank cut's pruning bound.  A float product of l
# factors is within about l ulps of the exact product of its factors;
# 1e-12 is about 4,500 ulps.
_PRUNE_SLACK = 1e-12


class _RankOracle:
    """Decides whether a multi-index ranks within the first ``n`` eigendirections.

    The eigenbasis of an ``l``-fold tensor space is ordered by nonincreasing
    eigenvalue product, ties broken by lexicographically smallest ordered
    multi-index.  Cardinality 1 reduces to an index comparison, which holds
    beyond the table too.  Higher cardinalities keep one key: ``(-cut,
    last)``, where ``last`` is the ``n``-th ordered multi-index and ``cut``
    its product.  A multi-index inside the table is kept exactly when
    ``(-product, multi-index)`` comes no later than the key; one outside the
    table is never kept.  A value is the left-to-right product of the sorted
    multi-index over the spectrum's table, as :meth:`Spectrum.eigen_product`
    computes it.

    The cut is found without a frontier: :func:`_multisets_at_least`
    generates, in numpy, every sorted multiset whose product reaches a
    bound ``t``, and ``t`` is lowered until the ordered count covers the
    budget.  A bound whose candidates would pass twice
    ``ENUMERATION_CAP`` is not generated; the search bisects between it
    and the last bound short of the budget instead.  The ranking is
    refused when more than ``ENUMERATION_CAP`` multisets reach the cut
    (all of them when the budget exhausts the space): those are the
    multisets a best-first walk would visit.  ``last`` is then unranked
    within the cut class by :func:`_unrank`.  A budget that exhausts the
    space keys ``(inf,)``, a budget of at most 0 ``(-inf,)``.
    """

    def __init__(self, spectrum: Spectrum, cardinality: int, budget: int) -> None:
        self.spectrum = spectrum
        self.cardinality = cardinality
        self.budget = budget
        self._table = spectrum.table()
        self._key: tuple = (-math.inf,)
        if cardinality >= 2 and budget > 0:
            self._rank()

    def _rank(self) -> None:
        lam = np.frombuffer(self._table)
        l = self.cardinality
        # neg_pow[r - 1] = -lam^r by repeated products: nondecreasing in the index.
        neg_pow = [-lam]
        for _ in range(1, l):
            neg_pow.append(neg_pow[-1] * lam)
        bottom = self.spectrum.eigen_product((len(lam),) * l)
        seen: list[tuple[float, int]] = []  # bounds short of the budget, counts
        lo = None  # a bound whose candidates passed the cap
        t = self.spectrum.eigen_product((1,) * l)
        while True:
            got = _multisets_at_least(lam, neg_pow, t, 2 * ENUMERATION_CAP)
            if got is not None:
                rows, values = got
                counts = _arrangement_counts(rows)
                total = int(counts.sum())
                if total >= self.budget:
                    held = self._cut_at(rows, values, counts)
                    break
                if t <= bottom:
                    self._key = (math.inf,)
                    held = len(values)
                    break
                seen.append((t, total))
            elif not seen:
                held = math.inf  # the top class alone is over the cap
                break
            else:
                lo = t
            if lo is None:
                t = max(_next_bound(seen, self.budget, self.spectrum.alpha), bottom)
            else:
                hi = seen[-1][0]
                t = _float_midpoint(lo, hi)
                if t in (lo, hi):
                    held = math.inf
                    break
        if held > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"rank enumeration for cardinality {l} exceeded the cap of "
                f"{ENUMERATION_CAP} multisets: every multiset down to the cut "
                "is held in memory, so the demand is too small for in-memory ranking"
            )

    def _cut_at(self, rows: np.ndarray, values: np.ndarray, counts: np.ndarray) -> int:
        """Key the ``budget``-th ordered multi-index; return the multisets at or above its cut."""
        order = np.argsort(-values, kind="stable")
        cut = values[order[int(np.searchsorted(np.cumsum(counts[order]), self.budget))]]
        room = self.budget - int(counts[values > cut].sum())
        self._key = (-float(cut), _unrank(rows[values == cut], room))
        return int(np.count_nonzero(values >= cut))

    def retained(self, k: tuple[int, ...]) -> bool:
        if self.cardinality == 1:
            return k[0] <= self.budget
        ms = sorted(k)
        if ms[0] < 1 or ms[-1] > self.spectrum.n_eigenvalues:
            return False
        return (-_table_product(self._table, ms), tuple(k)) <= self._key


def _unrank(rows, rank: int) -> tuple[int, ...]:
    """The ``rank``-th (from 1) lexicographic ordering of distinct sorted multisets.

    Positions are fixed left to right; each candidate value, smallest first,
    skips the orderings that start with it until one holds the ``rank``-th.
    Of the ``A(ms)`` orderings of an ``l``-multiset ``ms``, ``A(ms) m_v / l``
    start with ``v`` (``m_v`` copies of it in ``ms``), which is also the
    count of the tail left; one sort of the rows counts every candidate.
    """
    rows = np.array(rows, dtype=np.int64, ndmin=2)
    counts = _arrangement_counts(rows)
    prefix = []
    for l in range(rows.shape[1], 0, -1):
        flat = rows.ravel()
        order = np.argsort(flat)  # any order within equal values: they are summed
        values = flat[order]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        starting = np.cumsum(np.add.reduceat(np.repeat(counts, l)[order], starts) // l)
        pick = int(np.searchsorted(starting, rank))
        rank -= int(starting[pick - 1]) if pick else 0
        v = int(values[starts[pick]])
        hit = rows == v
        has = hit.any(axis=1)
        rows, hit = rows[has], hit[has]
        counts = counts[has] * hit.sum(axis=1) // l
        first = hit & (np.cumsum(hit, axis=1) == 1)
        rows = rows[~first].reshape(len(rows), l - 1)
        prefix.append(v)
    return tuple(prefix)


def _multisets_at_least(
    lam: np.ndarray, neg_pow: list[np.ndarray], t: float, limit: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every sorted ``l``-multiset whose product reaches ``t``, with its products.

    Returns 1-based index rows and their left-to-right products, or
    ``None`` as soon as more than ``limit`` multisets (or prefixes of
    them) would be held; ``neg_pow[r - 1]`` holds ``-lam^r``.  Multisets
    grow one index per depth: a prefix with product ``p`` and last index
    ``a`` takes every next index ``m >= a`` with ``p * lam[m]^r`` above
    ``t`` less the slack, ``r`` the indices still to come, since no
    completion beats repeating ``m``.  The exact float product then
    decides.  Each kept prefix has a completion within the slack of ``t``,
    so no depth holds more prefixes than there are such multisets.  Below
    ``t = 1e-290`` products may be subnormal, where a relative slack does
    not hold, and nothing is pruned.
    """
    n, l = len(lam), len(neg_pow)
    floor = t * (1.0 - _PRUNE_SLACK) if t > 1e-290 else 0.0
    stop = int(np.searchsorted(neg_pow[l - 1], -floor, side="right"))
    if stop > limit:
        return None
    cols = [np.arange(stop)]
    values = lam[:stop].copy()
    for r in range(l - 1, 0, -1):
        last = cols[-1]
        if floor > 0.0:
            stop = np.searchsorted(neg_pow[r - 1], -(floor / values), side="right")
        else:
            stop = np.full(len(last), n)
        width = np.maximum(stop - last, 0)
        total = int(width.sum())
        if total > limit:
            return None
        parent = np.repeat(np.arange(len(last)), width)
        offset = np.repeat(last - (np.cumsum(width) - width), width)
        cols = [c[parent] for c in cols] + [np.arange(total) + offset]
        values = values[parent] * lam[cols[-1]]
    keep = values >= t
    return np.stack([c[keep] + 1 for c in cols], axis=1), values[keep]


def _next_bound(seen: list[tuple[float, int]], budget: int, alpha: float) -> float:
    """Next, lower bound to try: log-log secant through the last two counts.

    Aims a quarter past the budget so that one more pass usually suffices.
    The first step assumes counts grow like ``t^(-1/alpha)``.
    """
    t, count = seen[-1]
    slope = 1.0 / alpha if math.isfinite(alpha) else 0.5
    if len(seen) > 1:
        t0, count0 = seen[-2]
        if count > count0:
            slope = math.log(count / count0) / math.log(t0 / t)
    factor = (count / (1.25 * budget)) ** (1.0 / slope)
    return t * min(max(factor, 1e-6), 0.5)


def _float_midpoint(a: float, b: float) -> float:
    """The float halfway between two positive floats in bit order."""
    ia, ib = (int(np.float64(x).view(np.int64)) for x in (a, b))
    return float(np.int64((ia + ib) // 2).view(np.float64))


@dataclass(frozen=True)
class OptimalAlgorithm:
    """Summary of the spectral-truncation algorithm for one ``(eps, d)`` pair.

    ``entries`` lists the retained labels (every tensor eigenvalue above
    ``epsilon_effective^2``), ``n_terms`` their total multiplicity.  The
    worst-case error over the unit ball is the square root of the largest
    eigenvalue left out, :attr:`TensorEigenStream.first_excluded`: for a
    truncated infinite spectrum at least ``lambda_{N+1} / d``, so none of
    the three depends on ``N``; 0 when a custom spectrum is exhausted.
    """

    epsilon_effective: float
    entries: tuple[EigenEntry, ...]
    n_terms: int
    worst_case_error: float
    max_act: int
    m2_ceiling: int


def _spectral_ceiling(
    epsilon: float, d: int, c0sq: float, c_const: float, max_act: int
) -> int:
    """The orthogonal level ``m2`` at ``(epsilon, C)``, a proven ceiling on ``max_act``.

    ``m2`` is :func:`orthogonal_truncation_level` at ``(epsilon, C)``, as
    ``bounds`` decides it.  Both are decided in floats, so a demand on a
    power of ``c0sq/d`` can put ``max_act`` above ``m2``: that is a
    :class:`CertificationError`.
    """
    m2 = orthogonal_truncation_level(epsilon, d, c0sq, c_const)
    if max_act > m2:
        raise CertificationError(f"retained labels touch {max_act} variables, above m2 = {m2}")
    return m2


def _log_term_bound(
    eps_eff: float, d: int, ltau: float, tau: float, log_cost: float = 0.0
) -> float:
    """``log_cost + ln n_cap`` rounded up, ``n_cap = e^{L(tau) d^{1-tau}} / eps_eff^{2 tau}``.

    ``n_cap`` (``ltau = L(tau)``) bounds how many tensor eigenvalues lie
    above ``eps_eff^2``.  ``optimal --tau`` reports it; each korobov and
    custom grid point passes ``log_cost = ln $(m2)`` to price it.

    The float value is raised by twice a first-order bound on its rounding,
    so that ``e^x``, rounded too, is at least the exact value at the float
    inputs: ``pow``, ``log`` and ``exp`` each err by at most one ulp, each
    product and sum by half an ulp, and rounding ``1 - tau`` moves
    ``d^(1-tau)`` by ``|1 - tau| ln d`` times its own error.  The raise is
    a few ulps of the terms; a non-finite value is returned as it is.
    """
    exponent = ltau * d ** (1.0 - tau)
    log_eps = 2.0 * tau * math.log(eps_eff)
    x = log_cost + exponent - log_eps
    if not math.isfinite(x):
        return x
    slack = (
        abs(exponent) * (4.0 + abs(1.0 - tau) * math.log(d))
        + 3.0 * abs(log_eps)
        + abs(log_cost)
        + 2.0 * abs(x)
        + 2.0
    )
    return x + slack * 2.0**-52


def optimal_algorithm(
    epsilon: float, d: int, spectrum: Spectrum, c_const: float = 1.0
) -> OptimalAlgorithm:
    """Build the error-optimal spectral algorithm under orthogonality.

    The demand is rescaled to ``epsilon / sqrt(C)`` for embedded norms that
    are only bounded by (rather than equal to) the orthogonal sum, and the
    first ``n(eps_eff, d)`` eigenpairs are retained; :func:`_spectral_ceiling`
    enforces their active-variable ceiling.  ``epsilon`` is a real in
    ``(0, 1]`` and ``c_const`` a finite real ``>= 1``.

    Raises
    ------
    InvalidConfigurationError
        For a kernel whose ``KernelSpec.zero_mean`` is ``False`` (wiener):
        its embedded norms are not orthogonal across subsets, so the
        construction would not be optimal there.  Custom spectra are taken.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, 1.0, "(]")
    c_const = _real(c_const, "c_const", 1.0, math.inf, "[)")
    if spectrum.kernel.zero_mean is False:
        raise InvalidConfigurationError(
            "the spectral algorithm is optimal only for kernels whose "
            "embedded norms decompose orthogonally (zero-mean kernels)"
        )
    eps_eff = epsilon / math.sqrt(c_const)
    stream = TensorEigenStream(d, spectrum)
    d = stream.d
    entries = tuple(stream.above(eps_eff))
    max_act = max((e.cardinality for e in entries), default=0)
    return OptimalAlgorithm(
        epsilon_effective=eps_eff,
        entries=entries,
        n_terms=sum(e.multiplicity for e in entries),
        worst_case_error=math.sqrt(stream.first_excluded),
        max_act=max_act,
        m2_ceiling=_spectral_ceiling(epsilon, d, spectrum.c0sq, c_const, max_act),
    )
