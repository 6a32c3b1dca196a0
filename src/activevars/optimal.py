"""Sorted enumeration of tensor-product eigenvalues and the spectral algorithm.

Under embedded-norm orthogonality the d-variate operator's eigenvalues are
exactly the weighted products ``d^{-l} * lambda_{k_1} ... lambda_{k_l}``
over all coordinate subsets of size ``l`` and all index assignments, with 1
for the empty subset.  :class:`TensorEigenStream` emits these values in
nonincreasing order without ever materializing the ``C(d, l)`` subsets:
a label is a canonical index multiset, its multiplicity the product of the
subset count and the number of ordered arrangements.

Everything here is driven by a best-first frontier: a popped label spawns
its immediate dominated successors (one index incremented, or the multiset
extended by a fresh index 1), which keeps the frontier small even when the
emitted multiplicity is astronomically large.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    CertificationError,
    EnumerationCapError,
    InvalidConfigurationError,
    TailCertificateError,
    UnsupportedScaleError,
)
from .spectrum import (
    Spectrum,
    _constant,
    _count,
    _demand,
    _finite_positive,
    partial_power_sum,
    power_sum,
)
from .truncation import _LOG_MAX, orthogonal_truncation_level

__all__ = [
    "EigenEntry",
    "DistinctEigenvalue",
    "TensorEigenStream",
    "eigencount",
    "OptimalAlgorithm",
    "optimal_algorithm",
    "PowerSumIdentity",
    "power_sum_identity",
    "eigenvalue_decay_bound",
]


@dataclass(frozen=True)
class EigenEntry:
    """One enumerated label: a canonical index multiset and its weight.

    ``indices`` is the nondecreasing tuple of univariate eigenvalue indices
    (so the eigenvalue factors are nonincreasing); ``multiplicity`` counts
    the subset choices times the ordered arrangements of the multiset.
    """

    value: float
    cardinality: int
    indices: tuple[int, ...]
    multiplicity: int

    @property
    def label(self) -> tuple[int, tuple[int, ...]]:
        return (self.cardinality, self.indices)


@dataclass(frozen=True)
class DistinctEigenvalue:
    """A distinct eigenvalue with its total multiplicity across labels."""

    value: float
    multiplicity: int
    labels: tuple[tuple[int, tuple[int, ...]], ...]


# Exhaustive and best-first enumerations keep every label they visit in
# memory (heap entries and the seen-set), so their size is capped.
ENUMERATION_CAP = 2_000_000


def arrangement_count(indices: tuple[int, ...]) -> int:
    """Number of distinct orderings of the sorted index multiset ``indices``."""
    count = math.factorial(len(indices))
    run = 1
    for i in range(1, len(indices)):
        if indices[i] == indices[i - 1]:
            run += 1
        else:
            count //= math.factorial(run)
            run = 1
    return count // math.factorial(run)


class TensorEigenStream:
    """Lazily sorted eigenvalues of the d-variate operator.

    The stream is a stateful single-consumer iterator; concurrent sweeps
    should each build their own instance (construction is cheap).  Distinct
    labels with equal values are emitted in lexicographic label order; use
    :meth:`next_eigenvalue` to merge them into per-value totals.

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
        self._heap: list[tuple[float, int, tuple[int, ...]]] = [(-1.0, 0, ())]
        self._seen: set[tuple[int, tuple[int, ...]]] = {(0, ())}
        self._last_value = math.inf
        # Value of the first entry :meth:`above` stopped at (0 until one is).
        self.first_excluded = 0.0

    # -- certification -------------------------------------------------

    @property
    def certified_above(self) -> float:
        """Enumeration is exact for all values strictly above this threshold."""
        if self.spectrum.is_finite:
            return 0.0
        return self.spectrum.eigenvalue(self._max_index + 1) * self._inv_d

    def require_certified(self, epsilon: float) -> None:
        """Fail fast when counting down to ``epsilon^2`` is not certified.

        ``epsilon`` is a finite positive real.
        """
        epsilon = _finite_positive(epsilon, "epsilon")
        thr = self.certified_above
        if epsilon * epsilon < thr:
            raise TailCertificateError(
                f"demand eps^2={epsilon * epsilon:.3e} falls below the tail "
                f"certificate {thr:.3e} of a spectrum truncated at "
                f"N={self._max_index}; rebuild the spectrum with a larger N"
            )

    # -- enumeration -----------------------------------------------------

    def _push(self, cardinality: int, indices: tuple[int, ...]) -> None:
        key = (cardinality, indices)
        if key in self._seen:
            return
        if len(self._seen) >= ENUMERATION_CAP:
            raise EnumerationCapError(
                f"the stream would visit more than {ENUMERATION_CAP} labels, the "
                "enumeration cap: every visited label stays in memory"
            )
        self._seen.add(key)
        # Canonical multiplication order (eigenvalues nonincreasing, then the
        # 1/d factors) keeps equal labels bit-identical across code paths.
        value = self.spectrum.eigen_product(indices)
        for _ in indices:
            value *= self._inv_d
        heapq.heappush(self._heap, (-value, cardinality, indices))

    def __iter__(self) -> Iterator[EigenEntry]:
        return self

    def __next__(self) -> EigenEntry:
        if not self._heap:
            raise StopIteration
        neg_value, cardinality, indices = heapq.heappop(self._heap)
        value = -neg_value
        # Successors: bump one index (deduplicated through the seen-set) or
        # extend the multiset with a fresh index 1.
        for pos in range(cardinality):
            if indices[pos] < self._max_index and (
                pos == cardinality - 1 or indices[pos] < indices[pos + 1]
            ):
                bumped = indices[:pos] + (indices[pos] + 1,) + indices[pos + 1 :]
                self._push(cardinality, bumped)
        if cardinality < self.d:
            self._push(cardinality + 1, (1,) + indices)
        if value > self._last_value * (1.0 + 1e-12):  # pragma: no cover
            raise CertificationError("eigenvalue stream emitted an increasing value")
        self._last_value = value
        multiplicity = math.comb(self.d, cardinality) * arrangement_count(indices)
        return EigenEntry(
            value=value,
            cardinality=cardinality,
            indices=indices,
            multiplicity=multiplicity,
        )

    def above(self, epsilon: float) -> Iterator[EigenEntry]:
        """Entries with value strictly above ``epsilon^2``, largest first.

        The demand, a finite positive real, is certified
        (:meth:`require_certified`) before the first entry.  The first entry
        at or below ``epsilon^2`` is popped too, and its value kept as
        :attr:`first_excluded`; that attribute stays 0 when the stream runs
        out first.
        """
        epsilon = _finite_positive(epsilon, "epsilon")
        self.require_certified(epsilon)
        thr = epsilon * epsilon
        for entry in self:
            if entry.value <= thr:
                self.first_excluded = entry.value
                return
            yield entry

    def next_eigenvalue(self) -> DistinctEigenvalue:
        """Next distinct value, merging all labels that share it.

        Raises
        ------
        StopIteration
            When the (finite) stream is exhausted.
        """
        first = next(self)
        labels = [first.label]
        total = first.multiplicity
        while self._heap and -self._heap[0][0] == first.value:
            entry = next(self)
            labels.append(entry.label)
            total += entry.multiplicity
        return DistinctEigenvalue(
            value=first.value, multiplicity=total, labels=tuple(labels)
        )


def eigencount(epsilon: float, d: int, spectrum: Spectrum) -> int:
    """Number of tensor eigenvalues strictly greater than ``epsilon^2``.

    Counts with multiplicity by streaming until the next value drops to
    ``epsilon^2`` or below.  The count is exact whenever the demand is
    above the stream's tail certificate.  ``epsilon`` is a real in
    ``(0, 1]``.
    """
    epsilon = _demand(epsilon, closed=True)
    return sum(_cardinality_counts(epsilon, d, spectrum))


def _cardinality_counts(epsilon: float, d: int, spectrum: Spectrum) -> list[int]:
    """Tensor eigenvalues above ``epsilon^2``, counted per cardinality.

    ``counts[l]`` sums the multiplicities of the labels of cardinality
    ``l``; ``counts[0]`` is 1, the constant, unless ``epsilon`` is 1.  One
    pass of the stream, holding no label.  ``epsilon`` is a finite
    positive real.
    """
    counts = [0]
    for entry in TensorEigenStream(d, spectrum).above(epsilon):
        while entry.cardinality >= len(counts):
            counts.append(0)
        counts[entry.cardinality] += entry.multiplicity
    return counts


@dataclass(frozen=True)
class OptimalAlgorithm:
    """Summary of the spectral-truncation algorithm for one ``(eps, d)`` pair.

    ``entries`` lists the retained labels (every tensor eigenvalue above
    ``epsilon_effective^2``), ``n_terms`` their total multiplicity.  The
    worst-case error over the unit ball is the square root of the first
    eigenvalue left out (0 when a finite spectrum is exhausted).
    """

    epsilon_effective: float
    entries: tuple[EigenEntry, ...]
    n_terms: int
    worst_case_error: float
    max_act: int
    m2_ceiling: int


def optimal_algorithm(
    epsilon: float, d: int, spectrum: Spectrum, c_const: float = 1.0
) -> OptimalAlgorithm:
    """Build the error-optimal spectral algorithm under orthogonality.

    The demand is rescaled to ``epsilon / sqrt(C)`` for embedded norms that
    are only bounded by (rather than equal to) the orthogonal sum, and the
    first ``n(eps_eff, d)`` eigenpairs are retained.  Every retained
    functional touches at most the orthogonal truncation level of
    variables; that ceiling is recomputed here and enforced.  ``epsilon``
    is a real in ``(0, 1]`` and ``c_const`` a finite real ``>= 1``.

    Raises
    ------
    InvalidConfigurationError
        For the wiener kernel, whose embedded norms are not orthogonal
        across subsets (the construction would not be optimal there).
    """
    epsilon, c_const = _demand(epsilon, closed=True), _constant(c_const)
    if spectrum.kind == "wiener":
        raise InvalidConfigurationError(
            "the spectral algorithm is optimal only for kernels whose "
            "embedded norms decompose orthogonally (zero-mean kernels)"
        )
    eps_eff = epsilon / math.sqrt(c_const)
    stream = TensorEigenStream(d, spectrum)
    d = stream.d
    entries = tuple(stream.above(eps_eff))
    max_act = max((e.cardinality for e in entries), default=0)
    if eps_eff < 1.0:
        m2 = orthogonal_truncation_level(eps_eff, d, spectrum.c0sq, 1.0)
    else:
        m2 = d
    if max_act > m2:  # pragma: no cover - violates a proven ceiling
        raise CertificationError(
            f"retained labels touch {max_act} variables, above the ceiling {m2}"
        )
    return OptimalAlgorithm(
        epsilon_effective=eps_eff,
        entries=entries,
        n_terms=sum(e.multiplicity for e in entries),
        worst_case_error=math.sqrt(stream.first_excluded),
        max_act=max_act,
        m2_ceiling=m2,
    )


@dataclass(frozen=True)
class PowerSumIdentity:
    """Both sides of ``sum_k lambda_{d,k}^tau = (1 + L(tau)/d^tau)^d``."""

    lhs: float
    rhs: float
    log_rhs: float
    exact: bool


def power_sum_identity(d: int, spectrum: Spectrum, tau: float) -> PowerSumIdentity:
    """Evaluate the tau-th power sum of the tensor spectrum both ways.

    For a finite custom spectrum the left side is the exhaustive stream sum
    ``sum multiplicity * value^tau`` and the identity is exact.  For a
    truncated infinite spectrum full enumeration is unaffordable, so the
    left side is the closed form over the retained eigenvalues only and the
    result is flagged inexact (it omits the univariate tail that the right
    side includes).

    The right side ``(1 + L(tau)/d^tau)^d`` is evaluated in log space; its
    logarithm is reported alongside since the value itself can overflow for
    small ``tau`` and large ``d``.
    """
    d = _count(d, "d")
    ltau = power_sum(spectrum, tau)
    log_rhs = d * math.log1p(ltau * d ** (-tau))
    rhs = math.exp(log_rhs) if log_rhs < 709.0 else math.inf
    if spectrum.is_finite:
        n = spectrum.n_eigenvalues
        n_labels = sum(math.comb(n + l - 1, l) for l in range(d + 1))
        if n_labels > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"{n_labels} labels exceed the enumeration cap of "
                f"{ENUMERATION_CAP}: exhaustive enumeration keeps every label "
                "in memory"
            )
        lhs = math.fsum(
            entry.multiplicity * entry.value**tau for entry in TensorEigenStream(d, spectrum)
        )
        return PowerSumIdentity(lhs=lhs, rhs=rhs, log_rhs=log_rhs, exact=True)
    partial = partial_power_sum(spectrum, tau)
    lhs = math.exp(d * math.log1p(partial * d ** (-tau)))
    return PowerSumIdentity(lhs=lhs, rhs=rhs, log_rhs=log_rhs, exact=False)


def eigenvalue_decay_bound(d: int, k: int, spectrum: Spectrum, tau: float) -> float:
    """Upper bound ``e^{L(tau) d^{1-tau}/tau} k^{-1/tau}`` on the k-th tensor eigenvalue.

    Taken in log space; a bound beyond double range raises
    :class:`UnsupportedScaleError`.
    """
    d, k = _count(d, "d"), _count(k, "k")
    log_bound = (power_sum(spectrum, tau) * d ** (1.0 - tau) - math.log(k)) / tau
    if not log_bound <= _LOG_MAX:
        raise UnsupportedScaleError(f"the decay bound exceeds double range at tau = {tau}")
    return math.exp(log_bound)
