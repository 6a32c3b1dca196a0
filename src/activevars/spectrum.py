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
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import polygamma, zeta

from .errors import (
    DivergenceError,
    InvalidArgumentError,
    InvalidConfigurationError,
    InvalidSpectrumError,
    UnsupportedOperationError,
)

__all__ = [
    "KernelSpec",
    "Spectrum",
    "build_spectrum",
    "power_sum",
    "eval_eigenfunction",
    "EigenfunctionTable",
    "spectrum_to_json",
    "spectrum_from_json",
]

_DENSITY_RTOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Description of a univariate kernel and sampling density.

    Parameters
    ----------
    kind : str
        One of ``"wiener"``, ``"korobov"``, ``"custom"``.
    r : float, optional
        Smoothness of the korobov kernel; must satisfy ``r > 1/2`` so the
        kernel trace is finite.
    eigenvalues : sequence of float, optional
        Explicit nonincreasing positive eigenvalue list for ``custom``.
    domain : (float, float)
        Interval the kernel lives on.  Fixed to ``(0, 1)`` for the two
        analytic kernels.
    density : callable, optional
        Probability density on the domain.  ``None`` means uniform.  A
        supplied density must integrate to 1 within relative 1e-10, and
        must be the uniform one, because every eigenvalue and
        eigenfunction here assumes it.
    """

    kind: str
    r: float | None = None
    eigenvalues: tuple[float, ...] | None = None
    domain: tuple[float, float] = (0.0, 1.0)
    density: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("wiener", "korobov", "custom"):
            raise InvalidArgumentError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("wiener", "korobov") and tuple(self.domain) != (0.0, 1.0):
            raise InvalidArgumentError(f"{self.kind} kernel is defined on [0, 1]")
        if self.kind == "korobov":
            if self.r is None or not self.r > 0.5:
                raise InvalidArgumentError(
                    "korobov smoothness r must satisfy r > 1/2 (finite trace)"
                )
        if self.kind == "custom" and self.eigenvalues is None:
            raise InvalidArgumentError("custom kernel requires an explicit eigenvalue list")
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
        if self.density is not None:
            self._check_density()

    def _check_density(self) -> None:
        # 200-point Gauss-Legendre is far beyond 1e-10 for any smooth density.
        lo, hi = self.domain
        nodes, weights = np.polynomial.legendre.leggauss(200)
        x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        values = np.asarray(self.density(x), dtype=float)
        total = float(np.sum(weights * values) * 0.5 * (hi - lo))
        if not math.isclose(total, 1.0, rel_tol=_DENSITY_RTOL):
            raise InvalidArgumentError(
                f"density integrates to {total!r}, not 1 (rel tol {_DENSITY_RTOL})"
            )
        uniform = 1.0 / (hi - lo)
        if not np.all(np.abs(values - uniform) <= _DENSITY_RTOL * uniform):
            raise InvalidConfigurationError(
                "only the uniform density is supported: the eigenvalues and "
                "eigenfunctions assume it"
            )


def wiener_kernel() -> KernelSpec:
    """``K(x, y) = min(x, y)`` on ``[0, 1]`` with uniform density."""
    return KernelSpec(kind="wiener")


def korobov_kernel(r: float) -> KernelSpec:
    """Periodic zero-mean kernel of smoothness ``r`` on ``[0, 1]``."""
    return KernelSpec(kind="korobov", r=float(r))


def custom_kernel(eigenvalues: Sequence[float]) -> KernelSpec:
    """Finite spectrum supplied directly, with no eigenfunction data."""
    return KernelSpec(kind="custom", eigenvalues=tuple(eigenvalues))


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing eigenvalue sequence of the univariate operator.

    Instances are immutable and safe to share across workers; every
    operation in this module is a pure function of its inputs.

    The ``N`` retained eigenvalues are tabulated once, at construction
    (about 6-9 ms and 320 KB for korobov at ``N = 40,000``), so a scalar
    lookup ``eigenvalue(n)`` with a Python ``int`` ``1 <= n <= N`` costs
    O(1), and so does every factor of :meth:`eigen_product`.  The table
    holds the scalar closed form.  Array lookups, and with them
    :meth:`leading`, :func:`power_sum` and :func:`spectrum_to_json`, use
    numpy's vectorized power, which can differ from it by one ulp for
    korobov; those outputs keep the vectorized values.

    Attributes
    ----------
    kind : str
        ``"wiener"``, ``"korobov"`` or ``"custom"``.
    n_eigenvalues : int
        Truncation length ``N``: the number of retained eigenvalues.
        Sums over the spectrum use the first ``N`` terms plus an analytic
        tail correction where one exists.
    tail_bound : float
        Certified upper bound on ``sum_{n > N} lambda_n`` (0 for custom).
    alpha : float
        Decay of the sequence: the supremum of ``t`` with
        ``sum lambda_n^{1/t} < infinity``.  ``inf`` for finite spectra.
    c0sq : float
        The squared embedding norm ``C_0^2``.  In ``exact`` mode this is
        the largest eigenvalue; the wiener kernel also supports the
        coarser closed-form value 1/2 via ``paper_bound`` mode.
    c0sq_mode : str
        ``"exact"`` or ``"paper_bound"``.
    """

    kind: str
    n_eigenvalues: int
    tail_bound: float
    alpha: float
    c0sq: float
    c0sq_mode: str = "exact"
    r: float | None = None
    _custom: tuple[float, ...] | None = field(default=None, repr=False)
    _table: array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indices = range(1, self.n_eigenvalues + 1)
        if self.kind == "wiener":
            values = [4.0 / ((2.0 * n - 1.0) ** 2 * math.pi**2) for n in indices]
        elif self.kind == "korobov":
            values = [(2.0 * math.pi * ((n + 1) // 2)) ** (-2.0 * self.r) for n in indices]
        else:
            values = self._custom
        object.__setattr__(self, "_table", array("d", values))

    # -- eigenvalue access -------------------------------------------------

    def eigenvalue(self, n):
        """Return ``lambda_n`` (1-based).  Accepts scalars or integer arrays.

        Analytic kinds evaluate their closed form for any ``n >= 1`` (also
        beyond the truncation length, which is how tail certificates are
        checked); custom spectra only know their stored values.
        """
        if type(n) is int and 1 <= n <= self.n_eigenvalues:
            return self._table[n - 1]
        n_arr = np.asarray(n)
        if np.any(n_arr < 1):
            raise InvalidArgumentError("eigenvalue index is 1-based")
        if self.kind == "wiener":
            out = 4.0 / ((2.0 * n_arr - 1.0) ** 2 * math.pi**2)
        elif self.kind == "korobov":
            k = (n_arr + 1) // 2
            out = (2.0 * math.pi * k) ** (-2.0 * self.r)
        else:
            if np.any(n_arr > self.n_eigenvalues):
                raise InvalidArgumentError(
                    f"custom spectrum has only {self.n_eigenvalues} eigenvalues"
                )
            out = np.frombuffer(self._table)[n_arr - 1]
        if np.isscalar(n) or n_arr.ndim == 0:
            return float(out)
        return out

    def eigen_product(self, indices) -> float:
        """``lambda_{k_1} ... lambda_{k_l}``, multiplied left to right in every layer."""
        v = 1.0
        for i in indices:
            v *= self.eigenvalue(i)
        return v

    def leading(self, count: int | None = None) -> np.ndarray:
        """First ``count`` eigenvalues as an array (default: all retained)."""
        if count is None:
            count = self.n_eigenvalues
        return np.atleast_1d(self.eigenvalue(np.arange(1, count + 1)))

    @property
    def is_finite(self) -> bool:
        return self.kind == "custom"

    def has_eigenfunctions(self) -> bool:
        return self.kind in ("wiener", "korobov")


def build_spectrum(
    spec: KernelSpec, n_eigenvalues: int = 10_000, c0sq_mode: str = "exact"
) -> Spectrum:
    """Construct a :class:`Spectrum` from a kernel description.

    Parameters
    ----------
    spec : KernelSpec
        Kernel to take the eigenvalues from.
    n_eigenvalues : int
        Truncation length ``N >= 1`` for infinite spectra.  Custom
        spectra ignore this in favor of their explicit length.
    c0sq_mode : str
        ``"exact"`` takes ``C_0^2 = lambda_1``.  ``"paper_bound"`` is only
        meaningful for the wiener kernel and fixes ``C_0^2 = 1/2`` (the
        Cauchy-Schwarz constant) while keeping the eigenvalues exact.

    Raises
    ------
    InvalidArgumentError
        If ``n_eigenvalues < 1`` or the mode/kernel pairing is invalid.
    InvalidSpectrumError
        If a custom list is not positive and nonincreasing.
    """
    if n_eigenvalues < 1:
        raise InvalidArgumentError("n_eigenvalues must be >= 1")
    if c0sq_mode not in ("exact", "paper_bound"):
        raise InvalidArgumentError(f"unknown c0sq_mode {c0sq_mode!r}")
    if c0sq_mode == "paper_bound" and spec.kind != "wiener":
        raise InvalidConfigurationError(
            "paper_bound mode encodes the wiener closed-form constant 1/2"
        )

    if spec.kind == "wiener":
        # Tail of sum 4/((2n-1)^2 pi^2) in closed form via the trigamma function:
        # sum_{n>N} (2n-1)^{-2} = psi'(N + 1/2) / 4.
        n = n_eigenvalues
        tail = float(polygamma(1, n + 0.5)) / math.pi**2
        lam1 = 4.0 / math.pi**2
        c0 = 0.5 if c0sq_mode == "paper_bound" else lam1
        return Spectrum(
            kind="wiener",
            n_eigenvalues=n,
            tail_bound=tail,
            alpha=2.0,
            c0sq=c0,
            c0sq_mode=c0sq_mode,
        )

    if spec.kind == "korobov":
        r = float(spec.r)
        tail = _korobov_power_tail(r, 1.0, n_eigenvalues)
        lam1 = (2.0 * math.pi) ** (-2.0 * r)
        return Spectrum(
            kind="korobov",
            n_eigenvalues=n_eigenvalues,
            tail_bound=tail,
            alpha=2.0 * r,
            c0sq=lam1,
            c0sq_mode="exact",
            r=r,
        )

    values = spec.eigenvalues
    if any(v <= 0 for v in values):
        raise InvalidSpectrumError("custom eigenvalues must be positive")
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise InvalidSpectrumError("custom eigenvalues must be nonincreasing")
    return Spectrum(
        kind="custom",
        n_eigenvalues=len(values),
        tail_bound=0.0,
        alpha=math.inf,
        c0sq=values[0],
        c0sq_mode="exact",
        _custom=tuple(values),
    )


def _korobov_power_tail(r: float, tau: float, n: int) -> float:
    """Closed-form ``sum_{m > n} lambda_m^tau`` for the flattened korobov sequence.

    The flattened sequence pairs up frequencies, so the tail after ``n``
    terms is a Hurwitz zeta value, plus half a pair when ``n`` is odd.
    """
    s = 2.0 * r * tau
    k, odd = divmod(n, 2)
    base = (2.0 * math.pi) ** (-s)
    if odd:
        return (2.0 * math.pi * (k + 1)) ** (-s) + 2.0 * base * float(zeta(s, k + 2))
    return 2.0 * base * float(zeta(s, k + 1))


def power_sum(s: Spectrum, tau: float) -> float:
    """The tau-th power sum ``L(tau) = sum_n lambda_n^tau`` of the spectrum.

    For the analytic kernels the result is the compensated partial sum over
    the retained eigenvalues plus the exact closed-form tail, so it agrees
    with the infinite series to machine precision.  For custom spectra it
    is the plain (compensated) finite sum.

    Raises
    ------
    DivergenceError
        If ``tau <= 1/alpha`` for an infinite spectrum (the series diverges).
    InvalidArgumentError
        If ``tau <= 0``.
    """
    if tau <= 0:
        raise InvalidArgumentError("tau must be positive")
    if not s.is_finite and tau <= 1.0 / s.alpha:
        raise DivergenceError(
            f"power sum diverges for tau={tau} <= 1/alpha={1.0 / s.alpha}"
        )
    partial = math.fsum(v**tau for v in s.leading())
    if s.kind == "wiener":
        # lambda_n^tau = (4/pi^2)^tau (2n-1)^{-2 tau}; the tail collapses to
        # pi^{-2 tau} * zeta(2 tau, N + 1/2).
        tail = math.pi ** (-2.0 * tau) * float(zeta(2.0 * tau, s.n_eigenvalues + 0.5))
        return partial + tail
    if s.kind == "korobov":
        return partial + _korobov_power_tail(s.r, tau, s.n_eigenvalues)
    return partial


def eval_eigenfunction(s: Spectrum, n, x):
    """Evaluate the ``n``-th eigenfunction, normalized to unit ``H``-norm.

    Parameters
    ----------
    s : Spectrum
        Must be an analytic kind (wiener or korobov); custom spectra carry
        no eigenfunction data.
    n : int
        1-based eigenvalue index.
    x : float or ndarray
        Points in the kernel domain ``[0, 1]``.

    Returns
    -------
    float or ndarray
        ``zeta_n(x)``.  For the wiener kernel this is
        ``sqrt(2 lambda_n) * sin((n - 1/2) pi x)``; for korobov the cosine
        branch for odd ``n`` and the sine branch for even ``n`` of the
        frequency ``k = ceil(n/2)``, scaled by ``sqrt(2 lambda_n)``.
    """
    if not s.has_eigenfunctions():
        raise UnsupportedOperationError("custom spectra carry no eigenfunction data")
    if n < 1:
        raise InvalidArgumentError("eigenfunction index is 1-based")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
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


def _rows(union: np.ndarray, values) -> slice | np.ndarray:
    """Positions of ``values`` in the sorted ``union``; a slice when contiguous."""
    pos = np.searchsorted(union, values)
    if pos[-1] - pos[0] == pos.size - 1:
        return slice(int(pos[0]), int(pos[-1]) + 1)
    return pos


class EigenfunctionTable:
    """Unscaled eigenfunctions ``zeta_n(x) / sqrt(2 lambda_n)`` for a fixed index set.

    ``indices`` are sorted, distinct and ``>= 1``.  With ``z = exp(i theta)``
    the rows are ``Im(z^n exp(-i theta / 2)) = sin((n - 1/2) pi x)`` for
    wiener (``theta = pi x``), and for korobov (``theta = 2 pi x``)
    ``Re z^k = cos(2 pi k x)`` for odd ``n``, ``Im z^k = sin(2 pi k x)`` for
    even ``n``, with ``k = ceil(n/2)``.  Cosine rows come first in the
    table, then sine rows; ``layout[j]`` is the table row of ``indices[j]``.

    The powers ``z^m`` for ``m = 1, 2, 4, ...`` are seeded directly, each
    from one ``tan(m theta / 2)`` per point; scaling the rounded angle by a
    power of two is exact, so every seed sees the same angle.  Every other
    power ``z^k`` is ``z^(k - m)`` rotated by ``z^m``, ``m`` the top bit of
    ``k``: one vectorized complex product covers all ``k`` between ``m`` and
    ``2m`` once the lower powers exist, so ``ceil(log2 k_max)`` products
    build the table with no loop over rows.  The plan (the powers needed:
    every frequency with its leading bits cleared, plus the seeds) is made
    once, here, and :meth:`fill` runs it on each block of points.

    Accuracy: row ``n`` is within a few ulps per set bit of the exact value
    at the rounded angle.  Rounding the angle itself moves row ``n`` by
    about ``n`` ulps, as it does in the reference :func:`eval_eigenfunction`;
    the two agree to better than ``6e-13`` up to ``n = 768`` (measured).
    """

    def __init__(self, s: Spectrum, indices) -> None:
        if not s.has_eigenfunctions():
            raise UnsupportedOperationError("custom spectra carry no eigenfunction data")
        n = np.asarray(indices, dtype=np.int64)
        self._wiener = s.kind == "wiener"
        if self._wiener:
            freqs, inverse = n, np.arange(len(n))
            theta, cos = math.pi, np.zeros(len(n), dtype=bool)
        else:
            freqs, inverse = np.unique((n + 1) // 2, return_inverse=True)
            theta, cos = 2.0 * math.pi, n % 2 == 1
        bits = int(freqs[-1]).bit_length()
        powers = 1 << np.arange(bits)
        parts = np.unique(np.concatenate([freqs & (p - 1) for p in powers] + [freqs, powers]))
        union = parts[parts > 0]
        # tan arguments per unit x: half of m theta for every seed m; wiener
        # adds theta / 4 for the half-angle rotation, kept in a last row.
        scale = np.concatenate([powers, [0.5]]) if self._wiener else powers
        self._half_angles = 0.5 * theta * scale
        self._seed_rows = np.searchsorted(union, powers)
        if self._wiener:
            self._seed_rows = np.append(self._seed_rows, len(union))
        self._steps = []
        for m in powers:
            dst = union[(union > m) & (union < 2 * m)]
            if dst.size:
                self._steps.append(
                    (_rows(union, dst), _rows(union, dst - m), _rows(union, [m]))
                )
        rows = np.searchsorted(union, freqs)[inverse]
        self._cos_rows, self._sin_rows = rows[cos], rows[~cos]
        self.layout = np.empty(len(n), dtype=np.int64)
        self.layout[cos] = np.arange(len(self._cos_rows))
        self.layout[~cos] = np.arange(len(self._cos_rows), len(n))
        self.n_rows = len(n)
        self._z_rows = len(union) + self._wiener
        # Doubles per point that fill() needs besides its output: the
        # complex rows, two real rows per seed, and the temporaries of a
        # step whose source rows are not contiguous.
        widest = max(
            (0 if isinstance(src, slice) else src.size for _, src, _ in self._steps),
            default=0,
        )
        self.work_doubles = 2 * self._z_rows + 2 * len(scale) + 4 * widest

    def fill(self, x: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
        """Write the table at the 1-d points ``x`` into ``out``.

        ``out`` has shape ``(n_rows, len(x))``; ``work`` is a 1-d float
        scratch array of at least ``work_doubles * len(x)`` entries.  Points
        are not range-checked here; callers check ``[0, 1]``.
        """
        b, n_seeds = len(x), len(self._half_angles)
        z = work[: 2 * self._z_rows * b].view(complex).reshape(self._z_rows, b)
        seeds = work[2 * self._z_rows * b :][: 2 * n_seeds * b].reshape(2, n_seeds, b)
        # exp(i a) from t = tan(a / 2): cos a = 2r - 1 and sin a = 2tr with
        # r = 1 / (1 + t^2), within 3 ulps.  numpy has a SIMD float64 tan on
        # AVX-512 but no SIMD cos or sin: one tan cost about a sixth of one
        # cos plus one sin (numpy 2.4, Xeon); without SIMD it costs one sin.
        sin, cos = seeds
        np.multiply.outer(self._half_angles, x, out=sin)
        np.tan(sin, out=sin)
        np.multiply(sin, sin, out=cos)
        cos += 1.0
        np.reciprocal(cos, out=cos)
        sin *= cos
        sin *= 2.0
        cos *= 2.0
        cos -= 1.0
        z.real[self._seed_rows] = cos
        z.imag[self._seed_rows] = sin
        for dst, src, pivot in self._steps:
            np.multiply(z[src], z[pivot], out=z[dst])
        if self._wiener:
            np.multiply(z[:-1], np.conj(z[-1]), out=z[:-1])
        n_cos = len(self._cos_rows)
        np.take(z.real, self._cos_rows, axis=0, out=out[:n_cos], mode="clip")
        np.take(z.imag, self._sin_rows, axis=0, out=out[n_cos:], mode="clip")


# -- serialization ----------------------------------------------------------


def spectrum_to_json(s: Spectrum) -> str:
    """Serialize to the cache/golden-file JSON document."""
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


def spectrum_from_json(text: str) -> Spectrum:
    """Rebuild a :class:`Spectrum` from :func:`spectrum_to_json` output."""
    doc = json.loads(text)
    kind = doc["kind"]
    mode = doc["params"].get("c0sq_mode", "exact")
    if kind == "wiener":
        return build_spectrum(wiener_kernel(), doc["N"], mode)
    if kind == "korobov":
        return build_spectrum(korobov_kernel(doc["params"]["r"]), doc["N"], mode)
    return build_spectrum(custom_kernel(doc["eigenvalues"]))
