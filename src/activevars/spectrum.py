"""Univariate kernels, their eigenvalue sequences, and derived scalar quantities.

The univariate building block of the whole library is the operator
``W = S* o S`` where ``S`` embeds a reproducing-kernel Hilbert space ``H``
into a weighted ``L2`` space.  Everything downstream (truncation levels,
changing-dimension plans, tensor eigenvalue streams) consumes the spectrum
``lambda_1 >= lambda_2 >= ... > 0`` of ``W`` through the :class:`Spectrum`
container built here.

Two analytic kernels are provided:

* ``wiener``: ``K(x, y) = min(x, y)`` on ``[0, 1]`` with uniform density.
  Eigenvalues ``lambda_n = 4 / ((2n-1)^2 pi^2)``, eigenfunctions
  proportional to ``sin((n - 1/2) pi x)``, decay ``alpha = 2``.
* ``korobov(r)``: the periodic kernel ``sum_{k != 0} e^{2 pi i k (x-y)} /
  |2 pi k|^{2r}`` on ``[0, 1]``.  Each frequency ``k`` contributes the
  eigenvalue ``(2 pi k)^{-2r}`` twice (cosine and sine branch), so the
  flattened sequence has decay ``alpha = 2r``.  All members of ``H`` have
  zero mean, which is what makes the embedded norms of distinct
  interaction terms orthogonal.

Custom finite spectra are accepted as explicit nonincreasing positive
lists; they carry no eigenfunctions and an exact (zero) tail.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import mul
from typing import Sequence

import numpy as np

from .errors import (
    DivergenceError,
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)

__all__ = [
    "KernelSpec",
    "Spectrum",
    "build_spectrum",
    "power_sum",
    "eval_eigenfunction",
    "EigenfunctionTable",
    "spectrum_to_json",
]

@dataclass(frozen=True)
class KernelSpec:
    """Description of a univariate kernel on ``[0, 1]`` under the uniform density.

    The one place a kernel's parameters live and are checked; a
    :class:`Spectrum` holds its ``KernelSpec``.

    Parameters
    ----------
    kind : str
        One of ``"wiener"``, ``"korobov"``, ``"custom"``.
    r : float, optional
        Korobov smoothness: a finite real ``r > 1/2``, so the kernel trace
        is finite.
    eigenvalues : sequence of float, optional
        The custom list: one or more positive, finite, nonincreasing Python
        or numpy integers or floats (``bool`` and strings are not).

    Each parameter is required by its kind and refused by the others, and
    a malformed ``r`` or custom list is refused too, all with
    :class:`InvalidArgumentError`.  The CLI's ``custom:FILE`` hands the
    file's JSON value to this check as it is.
    """

    kind: str
    r: float | None = None
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("wiener", "korobov", "custom"):
            raise InvalidArgumentError(f"unknown kernel kind {self.kind!r}")
        for name, owner in (("r", "korobov"), ("eigenvalues", "custom")):
            if (getattr(self, name) is None) == (self.kind == owner):
                raise InvalidArgumentError(
                    f"{name} is for the {owner} kernel only, and required there: got "
                    f"{name}={getattr(self, name)!r} for {self.kind}"
                )
        if self.kind == "korobov":
            object.__setattr__(self, "r", _real(self.r, "korobov smoothness r", 0.5, math.inf))
        if self.kind == "custom":
            values = _real_tuple(self.eigenvalues)
            if values is None:
                raise InvalidArgumentError(
                    "custom eigenvalues must be a sequence of integers or floats "
                    "(bool and str are not)"
                )
            if not values or not all(0.0 < v < math.inf for v in values):
                raise InvalidArgumentError(
                    "custom eigenvalues must be one or more positive finite values"
                )
            if any(a < b for a, b in zip(values, values[1:])):
                raise InvalidArgumentError("custom eigenvalues must be nonincreasing")
            object.__setattr__(self, "eigenvalues", values)

    @property
    def zero_mean(self) -> bool | None:
        """Whether the eigenfunctions have zero mean, making distinct subsets orthogonal.

        ``True`` for korobov, ``False`` for wiener, ``None`` for custom (no
        eigenfunctions).  Only ``True`` earns ``CdaApplier``'s exact
        certificate, and only ``False`` refuses the spectral algorithm
        (``complexity_curve`` prices the changing-dimension plan instead), so
        custom keeps the triangle bound and the spectral algorithm.
        """
        return {"korobov": True, "wiener": False}.get(self.kind)


# Input checks pass values whose types all fall in this set as they are.
_INT = frozenset({int})


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as ints: each a Python or numpy integer, ``bool`` not."""
    if type(values) is tuple and set(map(type, values)) <= _INT:
        return values
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or not all(
        issubclass(t, numbers.Integral) and not issubclass(t, bool) for t in set(map(type, items))
    ):
        raise InvalidArgumentError(f"{what} must be integers, not {values!r}")
    return tuple(map(int, items))


def _count(n, what: str = "n_eigenvalues", low: int = 1, high: int | None = None) -> int:
    """An integer such as ``N`` or ``d`` in ``[low, high]`` as an ``int``; ``bool`` is not one.

    The one rule for every integer range; a refusal names the range.
    """
    (n,) = _integers((n,), what)
    if high is not None and not low <= n <= high:
        raise InvalidArgumentError(f"{what} must lie in [{low}, {high}]")
    if n < low:
        raise InvalidArgumentError(f"{what} must be at least {low}")
    return n


def _real_tuple(values) -> tuple[float, ...] | None:
    """``values`` as floats; ``None`` unless each is a non-``bool`` Python or numpy real."""
    try:
        items = tuple(values)
        types = set(map(type, items))
        if all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types):
            return tuple(map(float, items))
    except (TypeError, OverflowError):
        pass
    return None


def _real(value, what: str, low: float, high: float, ends: str = "()") -> float:
    """A real such as ``epsilon`` or ``tau`` in an interval, as a ``float``; ``bool`` is not one.

    The one rule for every real range, as :func:`_count` is for integers:
    ``ends`` holds the interval's brackets (``"(]"`` is ``(low, high]``),
    NaN lies in no interval, and a refusal names the interval.
    """
    (v,) = _real_tuple((value,)) or (math.nan,)
    above = low <= v if ends[0] == "[" else low < v
    below = v <= high if ends[1] == "]" else v < high
    if not (above and below):
        raise InvalidArgumentError(f"{what} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
    return v


# e^x is finite exactly for x <= _LOG_MAX, the log of the largest double.
_LOG_MAX = math.log(sys.float_info.max)


def _exp_or_inf(x: float) -> float:
    """``e^x``, ``inf`` for ``x > _LOG_MAX`` (~709.78); every log-space value leaves here.

    NaN stays NaN: a missing value never reads as an overflow.
    """
    return math.inf if x > _LOG_MAX else math.exp(x)


def _exp_or_raise(x: float, message: str) -> float:
    """:func:`_exp_or_inf`, or an :class:`UnsupportedScaleError` of ``message`` for its ``inf``."""
    value = _exp_or_inf(x)
    if value == math.inf:
        raise UnsupportedScaleError(message)
    return value


def _fsum_or_inf(values) -> float:
    """``math.fsum(values)``, ``inf`` where the sum of finite values leaves double range."""
    try:
        return math.fsum(values)
    except OverflowError:  # fsum's intermediate overflow of finite terms
        return math.inf


def _log_comb(d: int, l: int) -> float:
    """``log C(d, l)`` from the exact binomial; lgamma differences lose ~1e-9 at ``d >= 1e5``."""
    return math.log(math.comb(d, l))


def _logsumexp(terms: list[float]) -> float:
    """``log(sum(exp(terms)))`` with the bits and error state of scipy 1.17's ``logsumexp``.

    Its steps: the ``m`` maxima leave the sum, the rest are shifted and
    exponentiated, and the result is ``log1p(sum / m) + log(m) + max``.
    """
    a = np.array(terms, dtype=float)
    a_max = a.max()
    mask = a == a_max
    m = float(np.count_nonzero(mask))
    a[mask] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(a - a_max).sum() / m
        return float(np.log1p(s) + np.log(m) + a_max)


def wiener_kernel() -> KernelSpec:
    """``K(x, y) = min(x, y)`` on ``[0, 1]``."""
    return KernelSpec(kind="wiener")


def korobov_kernel(r: float) -> KernelSpec:
    """Periodic zero-mean kernel of smoothness ``r`` on ``[0, 1]``."""
    return KernelSpec(kind="korobov", r=r)


def custom_kernel(eigenvalues: Sequence[float]) -> KernelSpec:
    """Finite spectrum supplied directly, with no eigenfunction data."""
    return KernelSpec(kind="custom", eigenvalues=eigenvalues)


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing eigenvalue sequence of the univariate operator.

    Instances are immutable and safe to share across workers; every
    operation in this module is a pure function of its inputs.

    The ``N`` retained eigenvalues are tabulated once, at construction
    (about 6-9 ms and 320 KB for korobov at ``N = 40,000``), and the table
    is the only set of bits a lookup returns: ``eigenvalue(n)`` with a
    Python ``int`` ``1 <= n <= N`` reads it in O(1), numpy integers and
    integer arrays gather from it, so :meth:`eigen_product`,
    :meth:`leading`, :func:`power_sum` and :func:`spectrum_to_json` all see
    the same values.  Analytic kinds evaluate the same scalar closed form
    past ``N``.

    The constructor takes the :class:`KernelSpec`, ``N`` and the ``C_0^2``
    mode and checks them together; ``kind`` and ``r`` are read from the
    kernel, and ``tail_bound``, ``alpha`` and ``c0sq`` are derived, so
    none can contradict it.  Every spectrum that constructs has a positive,
    finite, nonincreasing table.

    Attributes
    ----------
    kernel : KernelSpec
        The kernel the eigenvalues belong to.
    n_eigenvalues : int
        Truncation length ``N >= 1``, the number of retained eigenvalues
        (a custom list's length).  Sums over the spectrum use the first
        ``N`` terms plus an analytic tail correction where one exists.
    tail_bound : float
        ``sum_{n > N} lambda_n`` in closed form (0 for custom), rounded to
        nearest: within a few ulps of the exact tail, on either side, so an
        estimate and not a certificate.
    alpha : float
        Decay of the sequence: the supremum of ``t`` with
        ``sum lambda_n^{1/t} < infinity``.  ``inf`` for finite spectra.
    c0sq : float
        The squared embedding norm ``C_0^2``.  In ``exact`` mode this is
        the largest eigenvalue; the wiener kernel also supports the
        coarser closed-form value 1/2 via ``paper_bound`` mode.
    c0sq_mode : str
        ``"exact"`` or ``"paper_bound"``.

    A kernel that is not a ``KernelSpec``, a bad ``N`` or an unknown mode
    raise :class:`InvalidArgumentError`, ``paper_bound`` off wiener
    :class:`InvalidConfigurationError`, and a ``lambda_N`` that underflows
    to zero (korobov with large ``r``) :class:`UnsupportedScaleError`.
    """

    kernel: KernelSpec
    n_eigenvalues: int
    tail_bound: float = field(init=False)
    alpha: float = field(init=False)
    c0sq: float = field(init=False)
    c0sq_mode: str = "exact"
    _table: array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.kernel
        if not isinstance(spec, KernelSpec):
            raise InvalidArgumentError(f"kernel must be a KernelSpec, not {spec!r}")
        n = _count(self.n_eigenvalues)
        if self.c0sq_mode not in ("exact", "paper_bound"):
            raise InvalidArgumentError(f"unknown c0sq_mode {self.c0sq_mode!r}")
        if self.c0sq_mode == "paper_bound" and spec.kind != "wiener":
            raise InvalidConfigurationError(
                "paper_bound mode encodes the wiener closed-form constant 1/2"
            )
        if spec.kind == "custom":
            if n != len(spec.eigenvalues):
                raise InvalidArgumentError(
                    f"a custom spectrum's N is its length {len(spec.eigenvalues)}, not {n}"
                )
            table, alpha = array("d", spec.eigenvalues), math.inf
        else:
            table = array("d", self._closed_form(range(1, n + 1)))
            if not table[-1] > 0.0:
                raise UnsupportedScaleError(f"lambda_{n} underflows to zero; use a smaller N")
            alpha = 2.0 * spec.r if spec.kind == "korobov" else 2.0
        c0sq = 0.5 if self.c0sq_mode == "paper_bound" else table[0]
        object.__setattr__(self, "n_eigenvalues", n)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "tail_bound", _power_tail(spec, 1.0, n))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c0sq", c0sq)

    @property
    def kind(self) -> str:
        return self.kernel.kind

    @property
    def r(self) -> float | None:
        return self.kernel.r

    def _closed_form(self, indices) -> list[float]:
        """``lambda_n`` for each ``n`` in ``indices``, by the analytic kind's formula."""
        if self.kind == "wiener":
            pi_sq = math.pi**2
            return [4.0 / ((2.0 * n - 1.0) ** 2 * pi_sq) for n in indices]
        two_pi, power = 2.0 * math.pi, -2.0 * self.r
        return [(two_pi * ((n + 1) // 2)) ** power for n in indices]

    # -- eigenvalue access -------------------------------------------------

    def eigenvalue(self, n):
        """Return ``lambda_n`` (1-based).  Accepts integers or integer arrays.

        Indices ``1 <= n <= N`` read the table, whatever their integer type.
        Analytic kinds evaluate their closed form for ``n > N`` (which is
        how tail certificates are checked); custom spectra only know their
        stored values.  Indices other than Python or numpy integers and
        integer arrays (``bool``, floats, strings) raise
        :class:`InvalidArgumentError`.
        """
        if type(n) is int and 1 <= n <= self.n_eigenvalues:
            return self._table[n - 1]
        if type(n) is int:  # past the table or below 1; any size, so not via numpy
            return self._closed_form(self._past_table([n]))[0]
        idx = np.asarray(n)
        if idx.dtype.kind not in "iu":
            raise InvalidArgumentError(f"eigenvalue index must be an integer, not {n!r}")
        flat = idx.reshape(-1)
        out = np.frombuffer(self.table())[np.clip(flat, 1, self.n_eigenvalues) - 1]
        off = (flat < 1) | (flat > self.n_eigenvalues)
        if off.any():
            out[off] = self._closed_form(self._past_table(flat[off].tolist()))
        return float(out[0]) if idx.ndim == 0 else out.reshape(idx.shape)

    def _past_table(self, indices: list[int]) -> list[int]:
        """``indices``, all outside ``1..N``, once the closed form may take them."""
        if min(indices) < 1:
            raise InvalidArgumentError("eigenvalue index is 1-based")
        if self.is_finite:
            raise InvalidArgumentError(
                f"custom spectrum has only {self.n_eigenvalues} eigenvalues"
            )
        return indices

    def table(self) -> memoryview:
        """The ``N`` tabulated eigenvalues, as scalar lookups return them.

        A read-only view, no copy: indexing it yields Python floats, and
        ``np.frombuffer`` wraps it as a read-only array.
        """
        return memoryview(self._table).toreadonly()

    def eigen_product(self, indices) -> float:
        """``lambda_{k_1} ... lambda_{k_l}``, multiplied left to right in every layer."""
        v = 1.0
        for i in indices:
            v *= self.eigenvalue(i)
        return v

    def leading(self) -> np.ndarray:
        """The ``N`` retained eigenvalues as an array."""
        return np.atleast_1d(self.eigenvalue(np.arange(1, self.n_eigenvalues + 1)))

    @property
    def is_finite(self) -> bool:
        """Custom spectra are finite and carry no eigenfunctions; analytic ones are infinite."""
        return self.kind == "custom"


def _table_product(table: memoryview, indices) -> float:
    """:meth:`Spectrum.eigen_product` of indices in ``1..N``, read from ``table``.

    The same left-to-right product of the same table entries, without a
    method call and a bounds check per factor.  An index past ``N`` raises
    ``IndexError``; one below 1 would wrap around, so callers check it.
    """
    v = 1.0
    for i in indices:
        v *= table[i - 1]
    return v


def build_spectrum(
    spec: KernelSpec, n_eigenvalues: int = 10_000, c0sq_mode: str = "exact"
) -> Spectrum:
    """Construct a :class:`Spectrum` from a kernel description; ``Spectrum`` checks it.

    ``n_eigenvalues`` is the truncation length ``N`` of an infinite
    spectrum.  A custom kernel sets its own ``N``, its length, though a
    malformed value is still refused.  ``c0sq_mode="exact"`` takes
    ``C_0^2 = lambda_1``; ``"paper_bound"`` (wiener only) fixes it at the
    Cauchy-Schwarz constant 1/2, and the eigenvalues stay exact.
    """
    if isinstance(spec, KernelSpec) and spec.kind == "custom":
        _count(n_eigenvalues)
        n_eigenvalues = len(spec.eigenvalues)
    return Spectrum(spec, n_eigenvalues, c0sq_mode)


# Euler-Maclaurin coefficients (2k)! / B_2k of the cephes zeta routine.
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 2.0**-53


def _hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta ``sum_{i >= 0} (q + i)^(-s)`` for ``s > 1`` and ``q >= 1``.

    A port of the cephes ``zeta`` routine that ``scipy.special.zeta``
    runs, in its operation order and with the C ``pow`` (``math.pow``),
    so it returns the same bits; ``_hurwitz_zeta(2, x)`` is also
    ``scipy.special.polygamma(1, x)``.  ``TestHurwitzZeta`` in
    ``tests/test_spectrum.py`` pins both, and checks it against mpmath.
    Beyond ``q = 1e8`` it takes the two-term asymptotic expansion
    (DLMF 25.11.43); otherwise it sums at least nine terms directly, until
    ``q + i > 9``, and adds the Euler-Maclaurin correction.  A sum that
    underflows to zero stays zero, as in C, where ``0 / 0`` never stops
    the loops early, and also where C's correction gives NaN (``s = inf``).
    """
    if q > 1e8:
        return (1 / (s - 1) + 1 / (2 * q)) * math.pow(q, 1 - s)
    total = math.pow(q, -s)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -s)
        total += b
        if total and b / total < _MACHEP:
            return total
    if b == 0.0:  # all underflowed: the correction adds b times factors that may be inf
        return total
    w = a
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= s + k
        b /= w
        t = a * b / coeff
        total = total + t
        if total and abs(t / total) < _MACHEP:
            return total
        k += 1.0
        a *= s + k
        b /= w
        k += 1.0
    return total


def _power_tail(kernel: KernelSpec, tau: float, n: int) -> float:
    """Closed-form ``sum_{m > n} lambda_m^tau``: ``power_sum`` adds it; ``tail_bound`` is tau = 1.

    0 for custom.  wiener's ``lambda_m^tau = pi^(-2 tau) (m - 1/2)^(-2 tau)``
    sums to ``pi^(-2 tau) zeta(2 tau, n + 1/2)``; korobov's flattened
    sequence pairs up frequencies, so its tail is a zeta value, plus half a
    pair when ``n`` is odd.  The zeta values are :func:`_hurwitz_zeta`'s,
    the bits of ``scipy.special.zeta``; the result is rounded to nearest.
    """
    if kernel.kind == "custom":
        return 0.0
    if kernel.kind == "wiener":
        return math.pi ** (-2.0 * tau) * _hurwitz_zeta(2.0 * tau, n + 0.5)
    s = 2.0 * kernel.r * tau
    k, odd = divmod(n, 2)
    base = (2.0 * math.pi) ** (-s)
    if odd:
        return (2.0 * math.pi * (k + 1)) ** (-s) + 2.0 * base * _hurwitz_zeta(s, k + 2.0)
    return 2.0 * base * _hurwitz_zeta(s, k + 1.0)


def partial_power_sum(s: Spectrum, tau: float) -> float:
    """``math.fsum(v**tau for v in s.leading())``, bit for bit, with fewer powers.

    Python's float power is the C ``pow`` that numpy's scalar power calls,
    so it is taken once per run of equal values (korobov's flattened
    sequence repeats every value twice).  Doubling a power is exact, so a
    pair contributes ``2 * p``; a longer run contributes ``p`` once per
    member.  numpy's array power is not used: its SIMD path differs from
    ``pow`` in the last bit on some elements.
    """
    lead = s.leading()
    starts = np.flatnonzero(np.concatenate(([True], lead[1:] != lead[:-1])))
    try:
        powers = list(map(pow, lead[starts].tolist(), repeat(tau)))
    except OverflowError:  # numpy's power gives inf, and fsum keeps it
        return math.inf
    counts = np.diff(starts, append=len(lead))
    if counts.max() > 2:
        return math.fsum(chain.from_iterable(map(repeat, powers, counts.tolist())))
    return math.fsum(map(mul, powers, counts.tolist()))


def power_sum(s: Spectrum, tau: float) -> float:
    """The tau-th power sum ``L(tau) = sum_n lambda_n^tau`` of the spectrum.

    The compensated partial sum over the retained eigenvalues plus the one
    closed-form tail past ``N``, :func:`_power_tail` (0 for custom spectra),
    so for the analytic kernels it agrees with the infinite series to
    machine precision.

    Raises
    ------
    DivergenceError
        If ``tau <= 1/alpha`` for an infinite spectrum (the series diverges).
    InvalidArgumentError
        If ``tau`` is not a positive real (NaN and ``bool`` included;
        ``inf`` is accepted).
    """
    tau = _real(tau, "tau", 0.0, math.inf, "(]")
    if not s.is_finite and tau <= 1.0 / s.alpha:
        raise DivergenceError(
            f"power sum diverges for tau={tau} <= 1/alpha={1.0 / s.alpha}"
        )
    return partial_power_sum(s, tau) + _power_tail(s.kernel, tau, s.n_eigenvalues)


def _outside_unit_interval(x: np.ndarray) -> bool:
    """Whether an entry of ``x`` lies outside ``[0, 1]`` or is NaN.

    ``0 <= min`` and ``max <= 1`` both fail for NaN, which ``min`` and
    ``max`` carry through; ``x < 0 or x > 1`` would let it pass.
    """
    return x.size > 0 and not (0.0 <= x.min() and x.max() <= 1.0)


def eval_eigenfunction(s: Spectrum, n, x):
    """Evaluate the ``n``-th eigenfunction, normalized to unit ``H``-norm.

    Parameters
    ----------
    s : Spectrum
        Must be an analytic kind (wiener or korobov); custom spectra carry
        no eigenfunction data and raise :class:`InvalidConfigurationError`.
    n : int
        1-based eigenvalue index: a Python or numpy integer ``>= 1``.
    x : float or ndarray
        Points in the kernel domain ``[0, 1]``; others, NaN included, raise
        :class:`InvalidArgumentError`.

    Returns
    -------
    float or ndarray
        ``zeta_n(x)``.  For the wiener kernel this is
        ``sqrt(2 lambda_n) * sin((n - 1/2) pi x)``; for korobov the cosine
        branch for odd ``n`` and the sine branch for even ``n`` of the
        frequency ``k = ceil(n/2)``, scaled by ``sqrt(2 lambda_n)``.
    """
    if s.is_finite:
        raise InvalidConfigurationError("custom spectra carry no eigenfunction data")
    n = _count(n, "eigenfunction index")
    x_arr = np.asarray(x, dtype=float)
    if _outside_unit_interval(x_arr):
        raise InvalidArgumentError("evaluation points must lie in [0, 1]")
    lam = s.eigenvalue(n)
    if s.kind == "wiener":
        out = math.sqrt(2.0 * lam) * np.sin((n - 0.5) * math.pi * x_arr)
    else:
        k = (n + 1) // 2
        phase = 2.0 * math.pi * k * x_arr
        branch = np.cos(phase) if n % 2 == 1 else np.sin(phase)
        out = math.sqrt(2.0 * lam) * branch
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


# Largest index an EigenfunctionTable takes.  Row n is within about n ulps
# (rounding the angle, then squaring): at 2^32 that is 1e-6 (measured), and
# past about 2^50 the squared powers no longer keep |z^m| near 1.
_TABLE_INDEX_CAP = 2**32


def _run(pos: list[int]) -> slice | np.ndarray:
    """Increasing positions ``pos`` as a slice when they count up by one, else as an array."""
    if pos and pos[-1] - pos[0] != len(pos) - 1:
        return np.array(pos)
    return slice(pos[0], pos[-1] + 1) if pos else slice(0, 0)


class EigenfunctionTable:
    """Unscaled eigenfunctions ``zeta_n(x) / sqrt(2 lambda_n)`` for a fixed index set.

    ``indices`` are sorted, distinct, ``>= 1`` and at most ``2^32`` (larger
    ones raise :class:`UnsupportedScaleError`).  With ``z = exp(i theta)``
    the rows are, for korobov (``theta = 2 pi x``), ``Re z^k = cos(2 pi k x)``
    for odd ``n`` and ``Im z^k = sin(2 pi k x)`` for even ``n``, with
    ``k = ceil(n/2)``; for wiener (``theta = pi x``) they are
    ``Im(w z^(n-1)) = sin((n - 1/2) pi x)`` with ``w = exp(i theta / 2)``.
    Cosine rows come first in the table, then sine rows; ``layout[j]`` is the
    table row of ``indices[j]``.  A custom spectrum, which carries no
    eigenfunctions, raises :class:`InvalidConfigurationError`.

    :meth:`fill` takes one ``tan`` per point, of the half angle of ``z``
    (wiener one more, of the half angle of ``w``), and squares ``z`` into
    ``z^2, z^4, ...``; a table with exponents of 128 or more takes one more
    ``tan``, of the half angle of ``z^64``, and squares on from there.
    Every other row is a lower row times one of these
    powers: ``z^k = z^(k-m) z^m`` for korobov, and ``w z^e = (w z^(e-m))
    z^m`` for wiener, whose rows ``w z^e`` (``e = n - 1``) start from ``w``
    itself; ``m`` is the top bit of ``k`` or ``e``.  One vectorized complex
    product covers every row between ``m`` and ``2m`` once the lower rows
    exist, so ``ceil(log2 k_max)`` products and as many squarings build the
    table with no loop over rows.  The plan (every exponent with its leading
    bits cleared one by one, and the powers) is made once, here, and
    :meth:`fill` runs it on each block of points.  Rows that form a run are
    read and written by slice.

    Accuracy: rounding the angle ``theta x`` moves row ``n`` by about ``n``
    ulps, as in the reference :func:`eval_eigenfunction`, and each squaring
    doubles the error of the power it squares; the second seed caps that
    growth at 64 times a seed's error.  Against 40-digit values at the same
    points, the worst row up to ``n = 768`` is off by 2.58e-13 (both kinds,
    the edge points and 1,600 seeded random points; 3.8e-13 with ``z^64``
    squared from ``z``); the tests bound it at 2.6e-13.
    """

    def __init__(self, s: Spectrum, indices) -> None:
        if s.is_finite:
            raise InvalidConfigurationError("custom spectra carry no eigenfunction data")
        n = [int(i) for i in indices]
        if n[-1] > _TABLE_INDEX_CAP:
            raise UnsupportedScaleError(
                f"eigenfunction index {n[-1]} is past 2^32, where table rows lose 1e-6"
            )
        self.indices = np.array(n, dtype=np.int64)
        wiener = s.kind == "wiener"
        # Exponent of each index: e = n - 1 in w z^e, or k = ceil(n/2) in z^k.
        exps = [i - 1 for i in n] if wiener else [(i + 1) // 2 for i in n]
        powers = [1 << j for j in range(max(1, max(exps).bit_length()))]
        # Every exponent with its leading bits cleared one by one, down to 0.
        union = {0}
        for e in exps:
            while e not in union:
                union.add(e)
                e -= 1 << (e.bit_length() - 1)
        if wiener:
            # Rows: the powers, highest first, then w z^e for every e in the
            # union (0, that is w, among them), so the seeds z and w are
            # neighbours.
            union, base = sorted(union), len(powers)
            pivots = [base - 1 - j for j in range(len(powers))]
            # tan arguments per unit x: the half angles of z and of w.
            half = [0.5 * math.pi, 0.25 * math.pi]
        else:
            # Rows z^k, the powers among them; z is the first.
            union, base = sorted((union | set(powers)) - {0}), 0
            pivots = [bisect_left(union, m) for m in powers]
            half = [math.pi]
        row = {e: base + r for r, e in enumerate(union)}
        # Seeds as (z rows, tan rows).  A table that needs z^128 or more
        # takes z^64 from a tan of its own, so that no power squares a seed's
        # rounding more than six times.
        n_half = len(half)
        self._seeds = [(slice(pivots[0], pivots[0] + n_half), slice(0, n_half))]
        if len(powers) > 7:
            self._seeds.append((slice(pivots[6], pivots[6] + 1), slice(n_half, n_half + 1)))
            half.append(64.0 * half[0])
        self._half_angles = np.array(half)
        seeded = {rows.start for rows, _ in self._seeds}
        # Steps (dst, src, pivot) write z[src] z[pivot] to z[dst]: first the
        # squarings z^(2m) = z^m z^m, then one product per power m.
        self._steps = [(q, p, p) for p, q in zip(pivots, pivots[1:]) if q not in seeded]
        for m, p in zip(powers, pivots):
            lo, hi = bisect_left(union, m + (not wiener)), bisect_left(union, 2 * m)
            if lo < hi:
                src = _run([row[e - m] for e in union[lo:hi]])
                self._steps.append((slice(base + lo, base + hi), src, p))
        cos = [not wiener and i % 2 == 1 for i in n]
        self._cos_rows = _run([row[e] for e, c in zip(exps, cos) if c])
        self._sin_rows = _run([row[e] for e, c in zip(exps, cos) if not c])
        self.n_rows, self._n_cos = len(n), sum(cos)
        self.layout = np.empty(len(n), dtype=np.int64)
        self.layout[cos] = np.arange(self._n_cos)
        self.layout[np.logical_not(cos)] = np.arange(self._n_cos, len(n))
        self._z_rows = base + len(union)
        # Doubles per point that fill() needs besides its output: the
        # complex rows, one tan row per seed, and the temporaries of a step
        # or an output copy whose rows are not a run.
        gathers = [src for _, src, _ in self._steps] + [self._cos_rows, self._sin_rows]
        widest = max((r.size for r in gathers if isinstance(r, np.ndarray)), default=0)
        self.work_doubles = 2 * self._z_rows + len(self._half_angles) + 2 * widest

    def fill(self, x: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
        """Write the table at the 1-d points ``x`` into ``out``.

        ``out`` has shape ``(n_rows, len(x))``; ``work`` is a 1-d float
        scratch array of at least ``work_doubles * len(x)`` entries.  Points
        are not range-checked here; callers check ``[0, 1]``.
        """
        b = len(x)
        z = work[: 2 * self._z_rows * b].view(complex).reshape(self._z_rows, b)
        t = work[2 * self._z_rows * b :][: len(self._half_angles) * b].reshape(-1, b)
        # exp(i a) from t = tan(a / 2): with r = 2 / (1 + t^2), cos a = r - 1
        # and sin a = t r, within 3 ulps.  numpy has a SIMD float64 tan on
        # AVX-512 but no SIMD cos or sin: one tan cost about a sixth of one
        # cos plus one sin (numpy 2.4, Xeon); without SIMD it costs one sin.
        np.multiply.outer(self._half_angles, x, out=t)
        np.tan(t, out=t)
        for rows, tan_rows in self._seeds:
            r, tr = z.real[rows], t[tan_rows]
            np.multiply(tr, tr, out=r)
            r += 1.0
            np.divide(2.0, r, out=r)
            np.multiply(tr, r, out=z.imag[rows])
            r -= 1.0
        for dst, src, pivot in self._steps:
            np.multiply(z[src], z[pivot], out=z[dst])
        out[: self._n_cos] = z.real[self._cos_rows]
        out[self._n_cos :] = z.imag[self._sin_rows]


# -- serialization ----------------------------------------------------------


def spectrum_to_json(s: Spectrum) -> str:
    """Serialize to a JSON document: the kernel, ``N``, the table and the derived constants.

    The document is output only; nothing reads it back into a :class:`Spectrum`.
    """
    params: dict = {"c0sq_mode": s.c0sq_mode}
    if s.r is not None:
        params["r"] = s.r
    doc = {
        "kind": s.kind,
        "params": params,
        "N": s.n_eigenvalues,
        "eigenvalues": [float(v) for v in s.leading()],
        "c0sq": s.c0sq,
        "alpha": None if math.isinf(s.alpha) else s.alpha,
        "tail_bound": s.tail_bound,
    }
    return json.dumps(doc, sort_keys=True)

