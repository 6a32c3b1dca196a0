"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own computational paths:
high-precision arithmetic via mpmath, discretized integral operators via
sparse eigensolvers, finite-difference quadrature for derivative norms, and
brute-force enumeration for tensor eigenvalue streams.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product

import mpmath as mp
import numpy as np
from scipy.integrate import simpson
from scipy.sparse.linalg import LinearOperator, eigsh

from activevars import AnovaFunction, ApplyResult, eval_cost, eval_eigenfunction
from activevars.cda import PriceResult
from activevars.cost import log_eval_cost
from activevars.errors import CertificationError, InvalidArgumentError
from activevars.spectrum import _LOG_MAX, _exp_or_inf, _fsum_or_inf, _log_comb, _logsumexp
from activevars.truncation import TruncationReport, _tail_terms


def mp_binomial_tail(d: int, m: int, c0sq) -> float:
    """Tail sum at 50-digit precision, rounded to the nearest double."""
    with mp.workdps(50):
        c = mp.mpf(c0sq)
        total = mp.fsum(
            mp.binomial(d, k) * (c / d) ** k for k in range(m + 1, d + 1)
        )
        return float(total)


def mp_factorial_root(epsilon, c0sq) -> float:
    """Real root of (M+1)!/c^{M+1} = e^c/eps^2 via mpmath's solver."""
    with mp.workdps(50):
        eps = mp.mpf(epsilon)
        c = mp.mpf(c0sq)

        def g(m):
            return mp.loggamma(m + 2) - (m + 1) * mp.log(c) - c + 2 * mp.log(eps)

        return float(mp.findroot(g, 5.0))


def mp_hurwitz_zeta(s: float, q: float) -> float:
    """``mpmath.zeta(s, q)`` to about 30 digits, rounded to the nearest double.

    mpmath's Hurwitz zeta meets an absolute tolerance of about
    ``10**-dps``, not a relative one: at 40 digits ``zeta(63.6, 768.5)``,
    about 3.8e-183, is off by 1e-9 relative.  The working precision
    therefore adds the decimal exponent of the leading term ``q**-s``.
    """
    with mp.workdps(30 + math.ceil(s * math.log10(q))):
        return float(mp.zeta(s, q))


def mp_first_tail(kind: str, n: int):
    """``sum_{m > n} lambda_m`` for wiener or korobov ``r = 1`` at 40 digits, as an mpf.

    Through mpmath's trigamma ``psi'(q) = sum_{i >= 0} (q + i)^(-2)``, not
    its Hurwitz zeta: wiener ``psi'(n + 1/2) / pi^2``; korobov, whose
    flattened sequence holds ``(2 pi k)^(-2)`` twice, ``2 psi'(k + 1) /
    (4 pi^2)`` past ``n = 2k``, plus the second ``(2 pi (k + 1))^(-2)`` past
    ``n = 2k + 1``.
    """
    with mp.workdps(40):
        if kind == "wiener":
            return mp.psi(1, mp.mpf(n) + mp.mpf(0.5)) / mp.pi**2
        k, odd = divmod(n, 2)
        four_pi_sq = 4 * mp.pi**2
        tail = 2 * mp.psi(1, k + 1 + odd) / four_pi_sq
        return tail + 1 / (four_pi_sq * (k + 1) ** 2) if odd else tail


def mp_unscaled_eigenfunction(kind: str, n: int, x: float) -> float:
    """``zeta_n(x) / sqrt(2 lambda_n)`` at 40 digits, rounded to the nearest double.

    Wiener ``sin((n - 1/2) pi x)``; korobov ``cos(2 pi k x)`` for odd ``n``
    and ``sin(2 pi k x)`` for even ``n``, ``k = ceil(n/2)``.  The argument of
    ``sinpi``/``cospi`` is exact at this precision, so only the final
    rounding separates the result from the value at the double ``x``.
    """
    with mp.workdps(40):
        x = mp.mpf(x)
        if kind == "wiener":
            return float(mp.sinpi((n - mp.mpf(0.5)) * x))
        k = (n + 1) // 2
        return float(mp.cospi(2 * k * x) if n % 2 else mp.sinpi(2 * k * x))


def mp_term_bound(eps_eff: float, d: int, ltau: float, tau: float):
    """``e^{L d^(1-tau)} / eps_eff^(2 tau)`` at 50 digits from the float inputs, as an mpf."""
    with mp.workdps(50):
        tau = mp.mpf(tau)
        return mp.exp(mp.mpf(ltau) * mp.mpf(d) ** (1 - tau) - 2 * tau * mp.log(mp.mpf(eps_eff)))


# The paper's lemmas, as 50-digit formulas of float inputs returning mpfs.
# Tests hold library outputs to them; nothing here checks its inputs.


def mp_growth_bound(d: int, level: int, tau: float):
    """Bound on a plan's ``R^(1+tau)``: ``(factorial, exponential, applicable)``.

    ``d^m1 / ((m1 - 1)!)^(1+tau)`` applies when ``d > m1^(1+tau)``, and
    ``m1 e^m1`` otherwise (``m1`` is the plan's level, at least 1).
    """
    with mp.workdps(50):
        power = 1 + mp.mpf(tau)
        factorial = mp.mpf(d) ** level / mp.factorial(level - 1) ** power
        exponential = level * mp.e**level
        return factorial, exponential, factorial if d > level**power else exponential


def mp_orthogonal_level_bound(epsilon: float, lambda11: float, delta: float):
    """Dimension-free bound ``max(lambda_1 e^(1/delta), delta ln(1/eps^2))`` on ``m2``."""
    with mp.workdps(50):
        delta = mp.mpf(delta)
        return max(mp.mpf(lambda11) * mp.e ** (1 / delta), -2 * delta * mp.log(epsilon))


def mp_power_sum_identity(d: int, ltau: float, tau: float):
    """``(1 + L(tau)/d^tau)^d``: the ``tau``-th power sum of the tensor spectrum."""
    with mp.workdps(50):
        return (1 + mp.mpf(ltau) / mp.mpf(d) ** tau) ** d


def mp_decay_bound(d: int, k: int, ltau: float, tau: float):
    """``e^(L(tau) d^(1-tau) / tau) k^(-1/tau)``, a bound on the k-th tensor eigenvalue."""
    with mp.workdps(50):
        tau = mp.mpf(tau)
        return mp.exp(mp.mpf(ltau) * mp.mpf(d) ** (1 - tau) / tau) * mp.mpf(k) ** (-1 / tau)


def mp_embedding_norm_bound(d: int, c0sq: float):
    """``(1 + C_0^2/d)^(d/2)``: the embedding norm bound for any kernel."""
    with mp.workdps(50):
        return (1 + mp.mpf(c0sq) / d) ** (mp.mpf(d) / 2)


def mp_embedding_norm_special(d: int, c0sq: float):
    """``max(1, (C_0^2/d)^(d/2))``: the embedding norm of a zero-mean kernel."""
    with mp.workdps(50):
        return max(mp.mpf(1), (mp.mpf(c0sq) / d) ** (mp.mpf(d) / 2))


def brownian_operator_eigenvalues(n_grid: int = 10_000, k: int = 3) -> np.ndarray:
    """Leading eigenvalues of the integral operator with kernel min(x, y).

    Midpoint discretization on ``n_grid`` points; the matvec uses prefix
    sums, so the operator never materializes.  Discretization error is
    O(1/n_grid^2).
    """
    x = (np.arange(n_grid) + 0.5) / n_grid

    def matvec(f: np.ndarray) -> np.ndarray:
        f = np.asarray(f).ravel()
        xf = np.cumsum(x * f)
        tail = np.cumsum(f[::-1])[::-1] - f
        return (xf + x * tail) / n_grid

    op = LinearOperator((n_grid, n_grid), matvec=matvec, dtype=float)
    vals = eigsh(op, k=k, which="LM", return_eigenvectors=False)
    return np.sort(vals)[::-1]


def derivative_inner_product(fa, fb, n_nodes: int = 4001, h: float = 1e-5) -> float:
    """Quadrature of ``integral fa'(x) fb'(x) dx`` on [0, 1].

    Derivatives come from second-order finite differences (central in the
    interior, one-sided at the endpoints), the integral from Simpson's rule
    on a uniform grid.  Combined error is well below 1e-8 for the smooth
    low-frequency functions used in tests.
    """
    x = np.linspace(0.0, 1.0, n_nodes)

    def deriv(fn) -> np.ndarray:
        inner = (fn(x[1:-1] + h) - fn(x[1:-1] - h)) / (2.0 * h)
        left = (-3.0 * fn(x[0]) + 4.0 * fn(x[0] + h) - fn(x[0] + 2 * h)) / (2.0 * h)
        right = (3.0 * fn(x[-1]) - 4.0 * fn(x[-1] - h) + fn(x[-1] - 2 * h)) / (2.0 * h)
        return np.concatenate([[left], inner, [right]])

    return float(simpson(deriv(fa) * deriv(fb), x=x))


@lru_cache(maxsize=None)
def unit_gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], solved once per ``n_nodes``.

    Both arrays are read-only, since every caller shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x, w = 0.5 * (nodes + 1.0), 0.5 * weights
    x.flags.writeable = w.flags.writeable = False
    return x, w


def l2_inner_product(fa, fb, n_nodes: int = 400) -> float:
    """Gauss-Legendre quadrature of ``integral fa(x) fb(x) dx`` on [0, 1]."""
    x, w = unit_gauss_legendre(n_nodes)
    return float(np.sum(w * fa(x) * fb(x)))


def _tensor_values(d: int, lams):
    """``(cardinality, value)`` of every weighted eigenvalue product, by brute force.

    Enumerates every coordinate subset and every ordered index assignment,
    computing each value with the same canonical multiplication order the
    stream uses (eigenvalues first, weight factors after).
    """
    lams = [float(v) for v in lams]
    inv_d = 1.0 / d
    for card in range(d + 1):
        for _subset in combinations(range(d), card):
            for assignment in product(range(len(lams)), repeat=card):
                v = 1.0
                for idx in sorted(assignment):
                    v *= lams[idx]
                for _ in range(card):
                    v *= inv_d
                yield card, v


def exhaustive_tensor_values(d: int, lams) -> list[tuple[float, int]]:
    """All weighted eigenvalue products by brute force, grouped by value.

    Returns the distinct values of :func:`_tensor_values` in decreasing
    order with total multiplicities.
    """
    values = [v for _card, v in _tensor_values(d, lams)]
    grouped: list[tuple[float, int]] = []
    for v in sorted(values, reverse=True):
        if grouped and grouped[-1][0] == v:
            grouped[-1] = (v, grouped[-1][1] + 1)
        else:
            grouped.append((v, 1))
    return grouped


def exhaustive_cardinality_counts(d: int, lams, threshold: float) -> list[int]:
    """Weighted eigenvalue products above ``threshold``, counted per cardinality by brute force.

    ``counts[l]`` is the number of products over ``l`` coordinates; the list
    ends at the largest cardinality with a product above ``threshold``.
    """
    counts = [0] * (d + 1)
    for card, v in _tensor_values(d, lams):
        counts[card] += v > threshold
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts


def exhaustive_label_multiplicities(d: int, lams) -> dict[tuple[int, ...], int]:
    """Label -> multiplicity map by brute force; a label is a 1-based sorted index tuple."""
    out: dict[tuple[int, ...], int] = {}
    for card in range(d + 1):
        for _subset in combinations(range(d), card):
            for assignment in product(range(1, len(lams) + 1), repeat=card):
                key = tuple(sorted(assignment))
                out[key] = out.get(key, 0) + 1
    return out


def arrangement_count(indices) -> int:
    """Distinct orderings of an index multiset: ``l!`` over the factorials of its multiplicities."""
    count = math.factorial(len(indices))
    for m in Counter(indices).values():
        count //= math.factorial(m)
    return count


def tensor_quadrature(fn, d: int, n_nodes: int = 12) -> float:
    """Tensorized Gauss-Legendre quadrature of ``fn`` over the unit cube."""
    x1, w1 = unit_gauss_legendre(n_nodes)
    grids = np.meshgrid(*([x1] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w1] * d), indexing="ij")
    w = np.prod(np.column_stack([g.ravel() for g in wgrids]), axis=1)
    return float(np.sum(w * fn(pts)))


def direct_eigen_product(spectrum, k) -> float:
    """Product of univariate eigenvalues for a multi-index, smallest index first."""
    v = 1.0
    for idx in sorted(k):
        v *= spectrum.eigenvalue(idx)
    return v


def numpy_closed_form_eigenvalue(spectrum, n) -> float:
    """``lambda_n`` of an analytic spectrum from its closed form on a 0-d numpy array.

    Scalar lookups read a table built at construction; that table must
    reproduce this formula bit for bit.
    """
    n_arr = np.asarray(n)
    if spectrum.kind == "wiener":
        return float(4.0 / ((2.0 * n_arr - 1.0) ** 2 * math.pi**2))
    k = (n_arr + 1) // 2
    return float((2.0 * math.pi * k) ** (-2.0 * spectrum.r))


def direct_pointwise(f, spectrum, x) -> np.ndarray:
    """``f`` at the rows of ``x``, one ``eval_eigenfunction`` call per term and coordinate.

    The reference that table-driven pointwise evaluation is checked against:
    each eigenfunction value comes straight from its closed form.  A term is
    multiplied in ``eval_pointwise``'s order, the weight
    ``c sqrt(2^{|u|} lambda_{k_1} ... lambda_{k_l})`` times the product of
    the unscaled values ``zeta_k / sqrt(2 lambda_k)``, so a coefficient in
    the subnormal range is rounded at the same steps as there.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.full(x.shape[0], float(f.constant))
    for u, coeffs in f.terms.items():
        for k, c in coeffs.items():
            lam = [spectrum.eigenvalue(idx) for idx in k]
            weight = float(c) * math.sqrt(2.0 ** len(u) * math.prod(lam))
            values = np.ones(x.shape[0])
            for coord, idx, lam_k in zip(u, k, lam):
                zeta = eval_eigenfunction(spectrum, idx, x[:, coord - 1])
                values = values * (zeta / math.sqrt(2.0 * lam_k))
            out = out + weight * values
    return out


class HeapRank:
    """Best-first reference ranking: pops product classes from a heap.

    Starting from ``(1, ..., 1)``, every popped sorted multiset pushes each
    one-index bump that stays sorted (deduplicated through a seen-set), so
    classes of equal product leave the heap in nonincreasing order.  Whole
    classes are kept until the next would pass the budget; that boundary
    class is split by lexicographic rank of its ordered multi-indices.
    ``cut`` is the value of the last class popped, ``boundary`` the kept
    part of a split class (``None`` when the last class fit whole), and
    ``pops`` the number of multisets popped: every multiset down to the
    cut, all of them when the budget exhausts the space.  A multi-index
    outside the space is never retained, even when the budget exhausts it.
    """

    def __init__(self, spectrum, cardinality, budget):
        self.cardinality = cardinality
        self.budget = budget
        self.n_max = spectrum.n_eigenvalues
        self.full = set()
        self.boundary = None
        self.cut = math.inf
        self.exhausted = False
        self.pops = 0
        if cardinality >= 2 and budget > 0:
            self._enumerate(spectrum)

    def _enumerate(self, spectrum):
        n_max = spectrum.n_eigenvalues
        l = self.cardinality
        start = (1,) * l
        heap = [(-spectrum.eigen_product(start), start)]
        seen = {start}
        cum = 0
        while heap and cum < self.budget:
            neg_v, _ = heap[0]
            cls = []
            while heap and heap[0][0] == neg_v:
                _, ms = heapq.heappop(heap)
                cls.append(ms)
                self.pops += 1
                for pos in range(l):
                    if ms[pos] < n_max and (pos == l - 1 or ms[pos] < ms[pos + 1]):
                        bumped = ms[:pos] + (ms[pos] + 1,) + ms[pos + 1 :]
                        if bumped not in seen:
                            seen.add(bumped)
                            heapq.heappush(heap, (-spectrum.eigen_product(bumped), bumped))
            self.cut = -neg_v
            cls_count = sum(
                math.factorial(l) // math.prod(map(math.factorial, Counter(ms).values()))
                for ms in cls
            )
            if cum + cls_count <= self.budget:
                self.full.update(cls)
                cum += cls_count
            else:
                ordered = sorted(tup for ms in cls for tup in set(permutations(ms)))
                self.boundary = frozenset(ordered[: self.budget - cum])
                cum = self.budget
        self.exhausted = cum < self.budget

    def retained(self, k):
        if self.budget <= 0:
            return False
        if self.cardinality == 1:
            return k[0] <= self.budget
        k = tuple(k)
        if min(k) < 1 or max(k) > self.n_max:
            return False
        if self.exhausted:
            return True
        return tuple(sorted(k)) in self.full or (
            self.boundary is not None and k in self.boundary
        )


def reference_apply(applier, f) -> ApplyResult:
    """``applier.apply(f)`` the plain way: one method call per step.

    Each coefficient asks the applier's rank oracle; a dropped one adds
    ``c^2 Spectrum.eigen_product(k)``, and the kept part is built and
    validated as a new ``AnovaFunction``.  ``CdaApplier.apply`` reads the
    products from the table and skips the validation; its result must be
    bit-identical to this one.
    """
    plan, spectrum = applier.plan, applier.spectrum
    if f.d != plan.d:
        raise InvalidArgumentError(f"function has d={f.d}, plan was built for d={plan.d}")
    kept = {}
    residual_sq = []
    residual_norms = []
    max_act = 0
    for u, coeffs in f.terms.items():
        drop_sq = []
        if len(u) > plan.level:
            for k, c in coeffs.items():
                drop_sq.append(c * c * spectrum.eigen_product(k))
        else:
            oracle = applier._oracle(len(u))
            kept_u = {}
            for k, c in coeffs.items():
                if oracle.retained(k):
                    kept_u[k] = c
                else:
                    drop_sq.append(c * c * spectrum.eigen_product(k))
            if kept_u:
                kept[u] = kept_u
                max_act = max(max_act, len(u))
        term_sq = math.fsum(drop_sq)
        residual_sq.append(term_sq)
        residual_norms.append(math.sqrt(term_sq))
    # Only korobov's zero-mean members make the subset errors orthogonal.
    orthogonal = spectrum.kind == "korobov"
    if orthogonal:
        cert = math.sqrt(math.fsum(residual_sq))
    else:
        cert = math.fsum(residual_norms)
    approx = AnovaFunction(d=f.d, constant=f.constant, terms=kept, max_index=f.max_index)
    return ApplyResult(approx=approx, error_cert=cert, exact=orthogonal, max_act=max_act)


def genexpr_partial_power_sum(spectrum, tau) -> float:
    """``sum_n lambda_n^tau`` over the retained eigenvalues, one numpy scalar power each."""
    return math.fsum(v**tau for v in spectrum.leading())


def majorant_linear_scan(epsilons, c0sq) -> list[int]:
    """The majorant ``M(eps)`` for each demand, by a linear scan over ``m``.

    The scan ``factorial_majorant`` ran before it galloped: from
    ``m = ceil(c0sq - 1)`` up, the first ``m`` with ``c0sq/(m+1) < 1`` and
    ``lgamma(m+2) - (m+1) ln c0sq >= -2 ln eps - log1p(-c0sq/(m+1))``.  A
    smaller demand raises the right side, so it is met no earlier than a
    larger one, and one pass serves every demand in decreasing order.  The
    pass takes about ``1.7 c0sq`` steps.
    """
    log_c = math.log(c0sq)
    order = sorted(set(epsilons), reverse=True)
    found: dict[float, int] = {}
    m = max(0, math.ceil(c0sq - 1.0))
    while len(found) < len(order):
        ratio = c0sq / (m + 1)
        if ratio < 1.0:
            lhs = math.lgamma(m + 2) - (m + 1) * log_c
            while len(found) < len(order):
                eps = order[len(found)]
                if lhs < -2.0 * math.log(eps) - math.log1p(-ratio):
                    break
                found[eps] = m
        m += 1
    return [found[eps] for eps in epsilons]


def mp_majorant(epsilon: float, c0sq: float) -> int:
    """The majorant ``M(eps)`` decided at 60 digits on the floats' exact values.

    The least integer ``m`` with ``m + 1 > c0sq`` and ``ln (m+1)! - (m+1)
    ln c0sq >= -ln eps^2 - ln(1 - c0sq/(m+1))``.  Past ``m + 1 > c0sq`` the
    left side grows and the right side falls with ``m``, so the least ``m``
    is bracketed by doubling steps and then bisected.
    """
    with mp.workdps(60):
        c, rhs = mp.mpf(c0sq), -2 * mp.log(mp.mpf(epsilon))

        def holds(m: int) -> bool:
            return mp.loggamma(m + 2) - (m + 1) * mp.log(c) >= rhs - mp.log1p(-c / (m + 1))

        lo, hi, step = math.floor(c0sq) - 1, math.floor(c0sq), 1
        while not holds(hi):
            lo, hi, step = hi, hi + step, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        return hi


def ascending_truncation_level(epsilon, d, c0sq) -> TruncationReport:
    """``truncation_level`` by the plain ascending scan from ``m = 0``.

    Every step re-sums the remaining tail with ``fsum``, so a level ``m``
    costs ``m`` sums over all the terms; the library starts its scan at the
    last term above ``eps^2`` and must agree with this one bit for bit.
    """
    eps_sq = epsilon * epsilon
    terms = _tail_terms(d, c0sq)
    m = 0
    tail = _fsum_or_inf(terms)
    prev = None
    while tail > eps_sq:
        prev = tail
        m += 1
        tail = _fsum_or_inf(terms[m:])
    return TruncationReport(level=m, tail_at_level=tail, tail_above_level=prev)


def reference_price_plan(plan, model) -> PriceResult:
    """``price_plan`` with its exact cost summed term by term, stratum by stratum.

    The exact cost is ``fsum($(0), C(d,l) n_l $(l), ...)`` over the rows with
    ``n_l > 0``, written out here rather than through the library's one
    pricing sum; every other field follows the same log-space steps.
    """
    d, tau, m1 = plan.d, plan.tau, plan.level
    rows = [row for row in plan.rows if row.n_l > 0]
    log_terms = [log_eval_cost(model, 0)] + [
        _log_comb(d, row.cardinality) + math.log(row.n_l) + log_eval_cost(model, row.cardinality)
        for row in rows
    ]
    log_exact = _logsumexp(log_terms)
    log_bound_terms = [log_eval_cost(model, 0)]
    if m1 > 0 and plan.big_r > 0.0:
        log_l = math.log(plan.l_tau_value)
        log_bound_terms.append(
            log_eval_cost(model, m1)
            + max(log_l, m1 * log_l)
            + (1.0 + tau) * math.log(plan.big_r)
            - 2.0 * tau * math.log(plan.epsilon)
        )
    log_bound = _logsumexp(log_bound_terms)
    exact = math.inf
    if log_exact <= _LOG_MAX:
        exact = math.fsum(
            [eval_cost(model, 0)]
            + [
                math.comb(d, row.cardinality) * row.n_l * eval_cost(model, row.cardinality)
                for row in rows
            ]
        )
    within = log_exact <= log_bound + 1e-12
    if not within:
        raise CertificationError("exact plan cost exceeds its closed-form budget")
    return PriceResult(
        exact=exact,
        bound=_exp_or_inf(log_bound),
        log_exact=log_exact,
        log_bound=log_bound,
        within_bound=within,
    )


def dropped_part(f, approx):
    """``f - approx`` for ``approx`` keeping some of ``f``'s coefficients: what was dropped.

    The constant is 0, and each subset keeps ``f``'s coefficient order.
    """
    terms = {}
    for u, coeffs in f.terms.items():
        kept = approx.terms.get(u, {})
        rest = {k: c for k, c in coeffs.items() if k not in kept}
        if rest:
            terms[u] = rest
    return AnovaFunction(d=f.d, terms=terms, max_index=f.max_index)
