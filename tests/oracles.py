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
from activevars.cda import PriceResult, _log_comb, _logsumexp
from activevars.cost import log_eval_cost
from activevars.errors import CertificationError, DimensionMismatchError
from activevars.truncation import TruncationReport, _tail_sum, _tail_terms


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


def exhaustive_label_multiplicities(
    d: int, lams
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Label -> multiplicity map by brute force (1-based sorted index tuples)."""
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for card in range(d + 1):
        for _subset in combinations(range(d), card):
            for assignment in product(range(1, len(lams) + 1), repeat=card):
                key = (card, tuple(sorted(assignment)))
                out[key] = out.get(key, 0) + 1
    return out


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
    each eigenfunction value comes straight from its closed form.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.full(x.shape[0], float(f.constant))
    for u, coeffs in f.terms.items():
        for k, c in coeffs.items():
            term = np.full(x.shape[0], float(c))
            for coord, idx in zip(u, k):
                term = term * eval_eigenfunction(spectrum, idx, x[:, coord - 1])
            out = out + term
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
        raise DimensionMismatchError(f"function has d={f.d}, plan was built for d={plan.d}")
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


def refined_majorant_scan(epsilons, c0sq) -> list[float]:
    """The refined majorant ``M(eps)`` for each demand, by a linear scan over ``m``.

    The scan ``factorial_majorant(..., refined=True)`` ran before it
    galloped: from ``m = ceil(c0sq - 1)`` up, the first ``m`` with
    ``c0sq/(m+1) < 1`` and ``lgamma(m+2) - (m+1) ln c0sq >= -2 ln eps -
    log1p(-c0sq/(m+1))``.  A smaller demand raises the right side, so it is
    met no earlier than a larger one, and one pass serves every demand in
    decreasing order.  The pass takes about ``1.7 c0sq`` steps.
    """
    log_c = math.log(c0sq)
    order = sorted(set(epsilons), reverse=True)
    found: dict[float, float] = {}
    m = max(0, math.ceil(c0sq - 1.0))
    while len(found) < len(order):
        ratio = c0sq / (m + 1)
        if ratio < 1.0:
            lhs = math.lgamma(m + 2) - (m + 1) * log_c
            while len(found) < len(order):
                eps = order[len(found)]
                if lhs < -2.0 * math.log(eps) - math.log1p(-ratio):
                    break
                found[eps] = float(m)
        m += 1
    return [found[eps] for eps in epsilons]


def ascending_truncation_level(epsilon, d, c0sq) -> TruncationReport:
    """``truncation_level`` by the plain ascending scan from ``m = 0``.

    Every step re-sums the remaining tail with ``fsum``, so a level ``m``
    costs ``m`` sums over all the terms; the library starts its scan at the
    last term above ``eps^2`` and must agree with this one bit for bit.
    """
    eps_sq = epsilon * epsilon
    terms = _tail_terms(d, c0sq)
    m = 0
    tail = _tail_sum(terms, 0)
    prev = None
    while tail > eps_sq:
        prev = tail
        m += 1
        tail = _tail_sum(terms, m)
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
    if log_exact < 709.0:
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
        bound=math.exp(log_bound) if log_bound < 709.0 else math.inf,
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
