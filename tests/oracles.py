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
from itertools import combinations, permutations, product

import mpmath as mp
import numpy as np
from scipy.integrate import simpson
from scipy.sparse.linalg import LinearOperator, eigsh

from activevars import eval_eigenfunction


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


def l2_inner_product(fa, fb, n_nodes: int = 400) -> float:
    """Gauss-Legendre quadrature of ``integral fa(x) fb(x) dx`` on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (nodes + 1.0)
    return float(0.5 * np.sum(weights * fa(x) * fb(x)))


def exhaustive_tensor_values(d: int, lams) -> list[tuple[float, int]]:
    """All weighted eigenvalue products by brute force, grouped by value.

    Enumerates every coordinate subset and every ordered index assignment,
    computing each value with the same canonical multiplication order the
    stream uses (eigenvalues first, weight factors after), and returns the
    distinct values in decreasing order with total multiplicities.
    """
    lams = [float(v) for v in lams]
    inv_d = 1.0 / d
    values: list[float] = []
    for card in range(d + 1):
        for _subset in combinations(range(d), card):
            for assignment in product(range(len(lams)), repeat=card):
                v = 1.0
                for idx in sorted(assignment):
                    v *= lams[idx]
                for _ in range(card):
                    v *= inv_d
                values.append(v)
    grouped: list[tuple[float, int]] = []
    for v in sorted(values, reverse=True):
        if grouped and grouped[-1][0] == v:
            grouped[-1] = (v, grouped[-1][1] + 1)
        else:
            grouped.append((v, 1))
    return grouped


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
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x1 = 0.5 * (nodes + 1.0)
    w1 = 0.5 * weights
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


def genexpr_partial_power_sum(spectrum, tau) -> float:
    """``sum_n lambda_n^tau`` over the retained eigenvalues, one numpy scalar power each."""
    return math.fsum(v**tau for v in spectrum.leading())
