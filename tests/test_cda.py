"""Changing-dimension plans: parameters, error certificates, pricing."""

import math
from itertools import combinations, permutations
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from activevars import (
    AnovaFunction,
    CdaApplier,
    CostModel,
    EnumerationCapError,
    build_plan,
    build_spectrum,
    custom_kernel,
    g_norm_exact,
    h_norm,
    korobov_kernel,
    price_plan,
    random_function,
    single_subset_function,
    truncation_level,
    wiener_kernel,
)
from activevars import optimal
from activevars.optimal import _RankOracle
from activevars.spectrum import _logsumexp
from activevars.errors import (
    DivergenceError,
    InvalidArgumentError,
    UnsupportedScaleError,
)

import oracles


def _split_total(plan) -> float:
    return math.fsum(
        math.comb(plan.d, r.cardinality) * plan.d**-r.cardinality * r.eps_l**2
        for r in plan.rows
    )


class TestPlan:
    def test_two_term_r_sum(self, custom_pair):
        # C_0^2 = 0.5 reaches level 2 at eps = 0.3, d = 4.
        plan = build_plan(0.3, 4, custom_pair, tau=1.0)
        assert plan.level == 2
        # C(4,1) 4^{-1/2} + C(4,2) 4^{-1} = 2 + 1.5
        assert plan.big_r == pytest.approx(3.5, rel=1e-12)
        assert plan.ell_star == 2

    def test_term_budget_formula(self):
        # n = floor(L^l / eps_l^{2 tau}) at eps_l = 0.1, L = 0.5, l = 1, tau = 1.
        s = build_spectrum(custom_kernel([0.3, 0.2]))  # L(1) = 0.5
        plan = build_plan(0.1, 1, s, tau=1.0)
        assert plan.level == 1
        # eps_1 = 0.1 * 1^{1/4} / sqrt(R) with R = 1 at d = 1.
        assert plan.rows[0].eps_l == pytest.approx(0.1, rel=1e-14)
        assert plan.rows[0].n_l == 50

    def test_the_level_is_always_the_certified_one(self, wiener):
        # A plan forced below its certified level priced within_bound, yet
        # certified 0.2013 > eps sqrt(2) for this unit-norm function at
        # level 0.  The certificate needs the level whose tail is <= eps^2.
        plan = build_plan(0.1, 10, wiener)
        assert plan.level == truncation_level(0.1, 10, wiener.c0sq).level == 2
        with pytest.raises(TypeError):
            build_plan(0.1, 10, wiener, level=0)
        f = AnovaFunction(d=10, terms={(1,): {(1,): 10**-0.5}})
        assert h_norm(f) == pytest.approx(1.0, rel=1e-12)
        assert CdaApplier(plan, wiener).apply(f).error_cert <= 0.1 * math.sqrt(2.0)

    def test_default_tau_exceeds_inverse_decay(self, korobov1, wiener):
        assert build_plan(0.1, 4, korobov1).tau == pytest.approx(1.1)
        assert build_plan(0.1, 4, wiener).tau == pytest.approx(1.1)

    def test_divergent_tau_rejected(self, korobov1):
        with pytest.raises(DivergenceError):
            build_plan(0.1, 4, korobov1, tau=0.5)

    def test_row_takes_only_a_cardinality_of_the_plan(self, korobov1):
        # Only 1..level name a row: 0 and -1 must not index rows from the end.
        plan = build_plan(0.01, 5, korobov1)
        assert plan.level == 2
        assert [plan.row(c) for c in (1, 2)] == list(plan.rows)
        assert plan.row(np.int64(2)) == plan.rows[1]
        for c in (0, -1, 3, True, 1.0):
            with pytest.raises(InvalidArgumentError, match="cardinality must"):
                plan.row(c)
        with pytest.raises(InvalidArgumentError, match=r"lie in \[1, 0\]"):
            build_plan(0.3, 5, korobov1).row(1)

    def test_plans_are_deterministic(self, korobov1):
        a = build_plan(0.01, 10, korobov1)
        b = build_plan(0.01, 10, korobov1)
        assert a == b

    def test_error_allocation_identity(self, korobov1):
        # sum_l C(d,l) d^{-l} eps_l^2 recovers eps^2 to relative 1e-10.
        for d in (2, 5, 10, 50):
            for eps in (0.1, 0.01, 0.001):
                plan = build_plan(eps, d, korobov1)
                if plan.level == 0:
                    continue
                assert _split_total(plan) == pytest.approx(eps * eps, rel=1e-10)

    def test_error_allocation_identity_at_large_dimension(self, wiener):
        # R comes from exact binomials; lgamma differences missed eps^2 by
        # ~1.7e-9 relative at d = 1e6.
        for d in (10**5, 10**6):
            for q in range(1, 9):
                eps = 10.0**-q
                plan = build_plan(eps, d, wiener)
                assert plan.level > 0
                assert _split_total(plan) == pytest.approx(eps * eps, rel=1e-10)


def _r_power(plan):
    """The plan's ``R^(1+tau)`` at 50 digits, from its float ``R``."""
    with oracles.mp.workdps(50):
        return oracles.mp.mpf(plan.big_r) ** (1 + oracles.mp.mpf(plan.tau))


def _one_value(c):
    """The custom spectrum ``[c]``, whose ``C_0^2`` is ``c``.

    ``R`` depends on ``(d, level, tau)`` only, and the level on ``(eps, d,
    C_0^2)``, so ``c`` picks the level a plan reaches.
    """
    return build_spectrum(custom_kernel([c]))


class TestRGrowthBounds:
    # A plan's R^(1+tau) against the lemma's bounds (oracles.mp_growth_bound).
    def test_exponential_regime(self, custom_pair):
        plan = build_plan(0.3, 4, custom_pair, tau=1.0)
        assert plan.level == 2
        _, exponential, applicable = oracles.mp_growth_bound(4, 2, 1.0)
        assert applicable is exponential
        assert float(exponential) == pytest.approx(2.0 * math.e**2, rel=1e-12)
        assert float(_r_power(plan)) == pytest.approx(12.25, rel=1e-12)
        assert _r_power(plan) <= applicable

    def test_factorial_regime(self, custom_pair):
        plan = build_plan(0.3, 100, custom_pair, tau=1.0)
        assert plan.level == 2
        factorial, _, applicable = oracles.mp_growth_bound(100, 2, 1.0)
        assert applicable is factorial
        assert float(factorial) == pytest.approx(1.0e4, rel=1e-12)
        assert _r_power(plan) <= applicable

    def test_single_level_boundary(self):
        # level 1: R = d^{1/(1+tau)}, so R^{1+tau} = d = factorial bound.
        plan = build_plan(0.3, 9, _one_value(0.25), tau=1.0)
        assert plan.level == 1
        factorial, _, _ = oracles.mp_growth_bound(9, 1, 1.0)
        assert float(_r_power(plan)) == pytest.approx(9.0, rel=1e-12)
        assert float(factorial) == pytest.approx(9.0, rel=1e-12)
        assert _r_power(plan) <= factorial * (1 + 1e-12)

    def test_certified_away_from_regime_boundary(self, korobov1):
        # Deep inside either regime the applicable closed form holds.
        for d, eps in [(2, 0.1), (2, 0.001), (5, 0.1), (50, 0.01), (100, 0.001), (1000, 0.001)]:
            plan = build_plan(eps, d, korobov1)
            _, _, applicable = oracles.mp_growth_bound(d, plan.level, plan.tau)
            assert _r_power(plan) <= applicable * (1 + 1e-12), (d, eps)

    def test_growth_past_double_range_holds_at_50_digits(self):
        # R^(1+tau) ~ 1e347 leaves double range; at 50 digits the factorial
        # bound, ~1e350, still holds.
        plan = build_plan(0.1, 10**6, _one_value(36.3), tau=0.6)
        assert plan.level == 100
        factorial, _, applicable = oracles.mp_growth_bound(10**6, 100, 0.6)
        assert plan.big_r < math.inf and _r_power(plan) > 1e308
        assert applicable is factorial and _r_power(plan) <= factorial
        # At level 300 R itself leaves double range: no term budget follows.
        assert truncation_level(0.1, 10**6, 110.0).level == 300
        with pytest.raises(UnsupportedScaleError, match="outside double range"):
            build_plan(0.1, 10**6, _one_value(110.0), tau=0.6)

    def test_exponential_form_fails_near_regime_boundary(self, korobov1):
        # At d = 10, tau = 1.1 the level is 3 and d sits just below
        # m1^{1+tau} = 10.04: the exponential closed form m1 e^{m1} = 60.3
        # undershoots R^{1+tau} = 132.5 even though the factorial form
        # still holds.
        plan = build_plan(0.001, 10, korobov1)
        factorial, exponential, applicable = oracles.mp_growth_bound(10, plan.level, plan.tau)
        assert plan.level == 3 and applicable is exponential
        assert exponential < _r_power(plan) <= factorial


# Custom spectra from a small value set: repeated values and products such
# as 0.6 * 0.1 and 0.3 * 0.2 tie exactly, while 0.9 * 0.1 and 0.3 * 0.3
# are equal only up to rounding and land in different classes.
_tie_spectra = st.lists(
    st.sampled_from([0.9, 0.6, 0.5, 0.3, 0.2, 0.1, 0.05]), min_size=1, max_size=5
).map(lambda v: sorted(v, reverse=True))


# Spectra for the bit-identity property of `apply`: custom tie spectra, and
# korobov (orthogonal) and wiener (triangle bound) cut at a small N.
_apply_spectra = st.one_of(
    _tie_spectra.map(lambda v: build_spectrum(custom_kernel(v))),
    st.integers(1, 8).map(lambda n: build_spectrum(korobov_kernel(1.0), n)),
    st.integers(1, 8).map(lambda n: build_spectrum(wiener_kernel(), n)),
)


# Demands that reach every truncation level from 0 to d = 3 on the spectra
# above: half from [0.05, 0.99], where most plans stop at level 0 to 2, and
# half log-uniform from [1e-4, 0.05], where the deep ones lie (korobov
# reaches level 3 only below eps = 7.8e-4).
_demands = st.one_of(st.floats(0.05, 0.99), st.floats(-4.0, -1.3).map(lambda e: 10.0**e))


# Kernels with eigenfunctions, for certificates checked by quadrature.
_EIGENFUNCTION_SPECTRA = [
    build_spectrum(wiener_kernel(), 64),
    build_spectrum(korobov_kernel(1.0), 64),
]


def _l2_norm(f, s) -> float:
    """``||f||_L2`` on the unit cube by tensor Gauss-Legendre quadrature.

    32 nodes per coordinate integrate the squares of eigenfunctions up to
    index 8 (frequencies up to 16 pi) to about machine precision.
    """
    def square(x):
        return oracles.direct_pointwise(f, s, x) ** 2

    return math.sqrt(oracles.tensor_quadrature(square, f.d, n_nodes=32))


class _BruteRank:
    """Reference ranking over a finite index space, ties lexicographic.

    ``last`` is the ``budget``-th ordered multi-index, ``None`` when the
    budget is at most 0 or exhausts the space.
    """

    def __init__(self, spectrum, cardinality, budget):
        tuples = list(iproduct(range(1, spectrum.n_eigenvalues + 1), repeat=cardinality))
        tuples.sort(key=lambda k: (-oracles.direct_eigen_product(spectrum, k), k))
        self.kept = set(tuples[:budget])
        self.last = tuples[budget - 1] if 0 < budget <= len(tuples) else None

    def retained(self, k):
        return tuple(k) in self.kept


def _assert_key_matches(oracle, heap):
    """The oracle's key against the heap walk's cut and split boundary."""
    if heap.exhausted:
        assert oracle._key == (math.inf,)
        return
    assert oracle._key[0] == -heap.cut
    if heap.boundary is not None:
        # The boundary is the first `room` orderings of the class in
        # lexicographic order, so the key ends on its largest.
        assert oracle._key[1] == max(heap.boundary)


# custom_quad scaled by 2e-100: three-index products lie below 1e-290, where
# the rank cut's multiset walk prunes nothing.
TINY_QUAD = build_spectrum(custom_kernel([1e-100, 5e-101, 2.5e-101, 1.25e-101]))


class TestRankOracle:
    @pytest.mark.parametrize("cardinality", [1, 2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5, 9, 17, 64])
    def test_matches_brute_force(self, custom_quad, cardinality, budget):
        for s in (custom_quad, TINY_QUAD):
            oracle = _RankOracle(s, cardinality, budget)
            brute = _BruteRank(s, cardinality, budget)
            for k in iproduct(range(1, 5), repeat=cardinality):
                assert oracle.retained(k) == brute.retained(k), (k, budget, s.c0sq)

    def test_tie_split_is_lexicographic(self):
        # lambda = [0.5, 0.5]: all four pairs share one product; budget 2
        # keeps exactly (1,1) and (1,2).
        s = build_spectrum(custom_kernel([0.5, 0.5]))
        oracle = _RankOracle(s, 2, 2)
        assert oracle.retained((1, 1))
        assert oracle.retained((1, 2))
        assert not oracle.retained((2, 1))
        assert not oracle.retained((2, 2))

    def test_enumeration_cap_is_a_memory_error(self, korobov1, monkeypatch):
        monkeypatch.setattr(optimal, "ENUMERATION_CAP", 10)
        with pytest.raises(EnumerationCapError, match="memory"):
            _RankOracle(korobov1, 2, 1000)

    def test_indices_past_the_table_stay_dropped_when_the_budget_exhausts_it(self):
        # N = 4 holds 16 pairs.  Budget 15 ranks and drops indices past N;
        # budget 17 exhausts the space and must drop them too.
        s = build_spectrum(korobov_kernel(1.0), 4)
        for budget in (15, 16, 17):
            oracle = _RankOracle(s, 2, budget)
            heap = oracles.HeapRank(s, 2, budget)
            for k in ((5, 5), (1, 5), (5, 1), (100, 100)):
                assert not oracle.retained(k) and not heap.retained(k), (budget, k)
        exhausted = _RankOracle(s, 2, 17)
        assert exhausted._key == (math.inf,) and exhausted.retained((4, 4))

    def test_korobov_pair_split(self, korobov1):
        # Budget 3 at cardinality 1 keeps the first three flattened indices.
        oracle = _RankOracle(korobov1, 1, 3)
        assert oracle.retained((3,)) and not oracle.retained((4,))

    def test_cut_matches_the_heap_walk_on_the_benchmark_plans(self, korobov1_deep):
        # The twelve korobov:1 plans of the cda-apply benchmark workload.
        ranked = 0
        for d in (2, 5, 10, 50):
            for eps in (1e-1, 1e-2, 1e-3):
                for row in build_plan(eps, d, korobov1_deep).rows[1:]:
                    oracle = _RankOracle(korobov1_deep, row.cardinality, row.n_l)
                    heap = oracles.HeapRank(korobov1_deep, row.cardinality, row.n_l)
                    assert not heap.exhausted
                    _assert_key_matches(oracle, heap)
                    ranked += 1
        assert ranked == 11

    @settings(max_examples=200, deadline=None)
    @given(values=_tie_spectra, cardinality=st.integers(2, 4), data=st.data())
    def test_cut_matches_brute_force_with_ties(self, values, cardinality, data):
        s = build_spectrum(custom_kernel(values))
        n = s.n_eigenvalues
        budget = data.draw(st.integers(0, n**cardinality + 2), label="budget")
        oracle = _RankOracle(s, cardinality, budget)
        brute = _BruteRank(s, cardinality, budget)
        heap = oracles.HeapRank(s, cardinality, budget)
        _assert_key_matches(oracle, heap)
        if brute.last is not None:
            assert oracle._key == (-s.eigen_product(sorted(brute.last)), brute.last)
        # Index n + 1 lies outside the space: dropped, also when the budget
        # exhausts the space.
        for k in iproduct(range(1, n + 2), repeat=cardinality):
            assert oracle.retained(k) == brute.retained(k), (k, budget)
            assert oracle.retained(k) == heap.retained(k), (k, budget)

    @settings(max_examples=60, deadline=None)
    @given(values=_tie_spectra, cardinality=st.integers(2, 4), data=st.data())
    def test_cap_refuses_what_the_heap_walk_refused(self, values, cardinality, data):
        s = build_spectrum(custom_kernel(values))
        budget = data.draw(st.integers(1, s.n_eigenvalues**cardinality + 2), label="budget")
        heap = oracles.HeapRank(s, cardinality, budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimal, "ENUMERATION_CAP", heap.pops)
            oracle = _RankOracle(s, cardinality, budget)
            assert (oracle._key == (math.inf,)) == heap.exhausted
            mp.setattr(optimal, "ENUMERATION_CAP", heap.pops - 1)
            with pytest.raises(EnumerationCapError):
                _RankOracle(s, cardinality, budget)

    def test_cap_bounds_the_cut_not_the_search(self, korobov1):
        # The first lowered bound overshoots the budget; with the cap at
        # what the heap walk held, the ranking still goes through.
        heap = oracles.HeapRank(korobov1, 2, 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimal, "ENUMERATION_CAP", heap.pops)
            oracle = _RankOracle(korobov1, 2, 1000)
        _assert_key_matches(oracle, heap)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda l: st.lists(
                st.lists(st.integers(1, 4), min_size=l, max_size=l).map(sorted),
                min_size=1,
                max_size=20,
            )
        )
    )
    def test_row_counts_match_the_scalar_counter(self, rows):
        counts = optimal._arrangement_counts(np.array(rows))
        assert counts.tolist() == [oracles.arrangement_count(r) for r in rows]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda l: st.sets(
                st.lists(st.integers(1, 4), min_size=l, max_size=l).map(tuple),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_unrank_matches_the_sorted_distinct_permutations(self, tuples):
        # A class of several multisets: its orderings, taken together in
        # lexicographic order, are unranked one by one.
        multisets = sorted({tuple(sorted(k)) for k in tuples})
        ordered = sorted({p for ms in multisets for p in permutations(ms)})
        for rank, want in enumerate(ordered, start=1):
            assert optimal._unrank([list(ms) for ms in multisets], rank) == want

    def test_wide_class_unranks_from_its_rows(self):
        # custom [0.5] * 30 at cardinality 6: all C(35, 6) = 1,623,160
        # multisets form the one cut class, and ordered tuples rank in
        # lexicographic order, so the key is the base-30 digits of
        # budget - 1, each plus one.  Walking the class value by value in
        # Python took about 15 s of a 17 s ranking.
        budget = 30**6 // 2
        oracle = _RankOracle(build_spectrum(custom_kernel([0.5] * 30)), 6, budget)
        digits = tuple(int(c, 30) + 1 for c in np.base_repr(budget - 1, 30).zfill(6))
        assert digits == (15, 30, 30, 30, 30, 30)
        assert oracle._key == (-(0.5**6), digits)

    def test_split_class_generates_only_the_kept_orderings(self):
        # The cut class holds the five multisets 1^16 {2,3}^4, 77,520
        # orderings in all; listing the 20! permutations of each would
        # never finish.  The key ends on the `room`-th in lexicographic order.
        s = build_spectrum(custom_kernel([0.9, 0.5, 0.5]))
        oracle = _RankOracle(s, 20, 50_000)
        assert oracle._key[0] == -s.eigen_product((1,) * 16 + (2,) * 4)
        above = sum(math.comb(20, a) * 2 ** (20 - a) for a in range(17, 21))
        orderings = []
        for positions in combinations(range(20), 4):
            for fill in iproduct((2, 3), repeat=4):
                k = [1] * 20
                for p, v in zip(positions, fill):
                    k[p] = v
                orderings.append(tuple(k))
        assert oracle._key[1] == sorted(orderings)[50_000 - above - 1]

    def test_split_class_far_past_the_cap_keys_one_tuple(self):
        # Cardinality 20 over [0.9, 0.5, 0.5]: a class is every tuple with
        # j ones and the rest in {2, 3}, C(20, j) 2^(20-j) of them.  The
        # budget splits a class of 343,982,080 orderings 177,691,304 in, far
        # past ENUMERATION_CAP; the key is checked against a closed-form
        # unranking of that class.
        n, budget = 20, 3**20 // 7
        s = build_spectrum(custom_kernel([0.9, 0.5, 0.5]))
        oracle = _RankOracle(s, n, budget)

        def size(m, ones):
            return math.comb(m, ones) * 2 ** (m - ones) if 0 <= ones <= m else 0

        ones, room = n, budget
        while room > size(n, ones):
            room -= size(n, ones)
            ones -= 1
        assert (size(n, ones), room) == (343_982_080, 177_691_304)

        def unrank(rank, ones):
            out = []
            for m in range(n, 0, -1):
                for v, left in ((1, ones - 1), (2, ones), (3, ones)):
                    count = size(m - 1, left)
                    if rank <= count:
                        break
                    rank -= count
                out.append(v)
                ones = left
            return tuple(out)

        last = unrank(room, ones)
        assert last == (2, 1, 2, 1, 2, 1, 2, 1, 3, 2, 3, 2, 1, 2, 1, 1, 1, 2, 3, 1)
        assert oracle._key == (-s.eigen_product(sorted(last)), last)
        assert oracle.retained(last)
        assert oracle.retained(unrank(room - 1, ones))
        assert not oracle.retained(unrank(room + 1, ones))

    def test_large_cardinality_counts_stay_exact(self):
        # 21! passes int64, so arrangement counts are Python ints.  The
        # budget ends exactly on a class (1 + 21 + 210 ordered tuples), so
        # no boundary class has to be split into its 21! orderings.
        s = build_spectrum(custom_kernel([0.9, 0.5]))
        oracle = _RankOracle(s, 21, 232)
        heap = oracles.HeapRank(s, 21, 232)
        assert heap.boundary is None
        _assert_key_matches(oracle, heap)
        assert oracle._key[1] == (2, 2) + (1,) * 19
        assert oracle.retained((1,) * 19 + (2, 2))
        assert not oracle.retained((1,) * 18 + (2, 2, 2))


class TestApply:
    def test_constant_function_is_reproduced_exactly(self, korobov1):
        plan = build_plan(0.1, 5, korobov1)
        f = AnovaFunction(d=5, constant=0.7)
        res = CdaApplier(plan, korobov1).apply(f)
        assert res.approx == f
        assert res.error_cert == 0.0
        assert res.max_act == 0

    def test_high_order_term_is_dropped_with_certified_error(self, korobov1):
        d = 5
        plan = build_plan(0.3, d, korobov1)
        assert plan.level == 0
        u = (1, 2, 3)
        f = single_subset_function(d, u, (1, 1, 1), value=d ** (-1.5))
        assert h_norm(f) == pytest.approx(1.0, rel=1e-12)
        res = CdaApplier(plan, korobov1).apply(f)
        assert not res.approx.terms
        cap = korobov1.c0sq ** 1.5 * d ** (-1.5)
        assert res.error_cert <= cap * (1 + 1e-12)

    def test_unit_ball_error_stays_under_demand(self, korobov1):
        eps, d = 0.01, 10
        plan = build_plan(eps, d, korobov1)
        applier = CdaApplier(plan, korobov1)
        for seed in range(25):
            f = random_function(d, korobov1, seed=seed)
            res = applier.apply(f)
            assert res.exact
            assert res.error_cert <= eps * math.sqrt(2.0)
            assert res.max_act <= plan.level

    def test_wiener_certificate_is_triangle_bound(self, wiener):
        plan = build_plan(0.05, 4, wiener)
        f = random_function(4, wiener, seed=3)
        res = CdaApplier(plan, wiener).apply(f)
        assert not res.exact
        assert res.error_cert >= 0.0

    def test_the_kernel_decides_the_certificate(self, wiener):
        # Two pair terms that share coordinate 1: their wiener eigenfunctions
        # have nonzero means, so the pair errors are not orthogonal.  Summing
        # squares certified 0.573 against a true L2 error of 0.771.
        f = AnovaFunction(d=3, terms={(1, 2): {(1, 1): 1.0}, (1, 3): {(1, 1): 1.0}})
        plan = build_plan(0.3, 3, wiener)
        res = CdaApplier(plan, wiener).apply(f)
        assert not res.approx.terms
        assert not res.exact
        assert res.error_cert >= _l2_norm(f, wiener)
        with pytest.raises(TypeError):
            CdaApplier(plan, wiener, orthogonal=True)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.sampled_from(_EIGENFUNCTION_SPECTRA),
        d=st.integers(1, 3),
        eps=st.sampled_from([0.5, 0.3, 0.1, 0.05]),
        seed=st.integers(0, 2**16),
    )
    def test_certificate_covers_the_quadrature_error(self, s, d, eps, seed):
        f = random_function(d, s, seed=seed)
        res = CdaApplier(build_plan(eps, d, s), s).apply(f)
        dropped = {
            u: {k: c for k, c in coeffs.items() if k not in res.approx.terms.get(u, {})}
            for u, coeffs in f.terms.items()
        }
        l2 = _l2_norm(AnovaFunction(d=d, terms=dropped, max_index=f.max_index), s)
        assert res.error_cert >= l2 * (1.0 - 1e-9)
        assert res.exact == (s.kind == "korobov")
        if res.exact:
            assert res.error_cert == pytest.approx(l2, rel=1e-9, abs=1e-300)

    def test_dimension_mismatch(self, korobov1):
        plan = build_plan(0.1, 4, korobov1)
        with pytest.raises(InvalidArgumentError):
            CdaApplier(plan, korobov1).apply(AnovaFunction(d=5, constant=1.0))

    @settings(max_examples=100, deadline=None)
    @given(values=_tie_spectra, d=st.integers(1, 3), data=st.data())
    def test_keeps_exactly_the_brute_force_ranking(self, values, d, data):
        s = build_spectrum(custom_kernel(values))
        plan = build_plan(data.draw(_demands, label="eps"), d, s)
        subsets = [u for l in range(1, d + 1) for u in combinations(range(1, d + 1), l)]
        terms = {}
        for u in data.draw(st.sets(st.sampled_from(subsets)), label="subsets"):
            index = st.tuples(*[st.integers(1, s.n_eigenvalues)] * len(u))
            terms[u] = data.draw(
                st.dictionaries(index, st.floats(-1.0, 1.0), min_size=1, max_size=8),
                label=f"coefficients on {u}",
            )
        res = CdaApplier(plan, s).apply(AnovaFunction(d=d, terms=terms))
        dropped_sq = []
        for u, coeffs in terms.items():
            if len(u) <= plan.level:
                brute = _BruteRank(s, len(u), plan.row(len(u)).n_l)
                kept = {k: c for k, c in coeffs.items() if brute.retained(k)}
            else:
                kept = {}
            assert res.approx.terms.get(u, {}) == kept, u
            dropped_sq.append(
                math.fsum(
                    c * c * oracles.direct_eigen_product(s, k)
                    for k, c in coeffs.items()
                    if k not in kept
                )
            )
        # Custom spectra carry no eigenfunctions: always the triangle bound.
        assert not res.exact
        want = math.fsum(map(math.sqrt, dropped_sq))
        assert res.error_cert == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_index_past_a_custom_table_is_dropped_and_refused(self):
        # The pair budget exhausts the 2 x 2 pairs of the table.  Index 3
        # lies past it: dropped, with no eigenvalue to certify the drop,
        # whether the pair is ranked (level 2 at eps = 0.05) or above the
        # level (1 at eps = 0.3).
        s = build_spectrum(custom_kernel([0.5, 0.25]))
        assert build_plan(0.05, 2, s).row(2).n_l >= 4
        f = AnovaFunction(d=2, terms={(1, 2): {(1, 1): 0.5, (3, 1): 0.25}})
        for eps, level in ((0.05, 2), (0.3, 1)):
            plan = build_plan(eps, 2, s)
            assert plan.level == level
            applier = CdaApplier(plan, s)
            with pytest.raises(InvalidArgumentError):
                applier.apply(f)
            with pytest.raises(InvalidArgumentError):
                oracles.reference_apply(applier, f)

    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize(
        "kernel, n, k", [(wiener_kernel(), 8, (1, 5, 2)), (korobov_kernel(1.0), 4, (5, 6, 1))]
    )
    def test_dropped_products_keep_the_index_order(self, kernel, n, k, level):
        # One dropped coefficient 1.0 certifies sqrt(lambda_k1 lambda_k2 lambda_k3),
        # multiplied in k's order; in sorted order its last bit differs here.
        # Korobov's (5, 6, 1) lies past N = 4, in the closed form.  At level
        # 3 the triple is ranked and falls outside the budget (wiener's
        # n_3 = 41) or the table (korobov); at level 0 it lies above the level.
        s = build_spectrum(kernel, n)
        eps = 0.9 if level == 0 else {"wiener": 0.045, "korobov": 5e-4}[s.kind]
        plan = build_plan(eps, 3, s)
        assert plan.level == level
        f = AnovaFunction(d=3, terms={(1, 2, 3): {k: 1.0}}, max_index=8)
        res = CdaApplier(plan, s).apply(f)
        assert res.max_act == 0
        assert res.error_cert == math.sqrt(s.eigen_product(k))
        assert res.error_cert != math.sqrt(s.eigen_product(sorted(k)))
        assert res == oracles.reference_apply(CdaApplier(plan, s), f)

    @settings(max_examples=150, deadline=None)
    @given(s=_apply_spectra, d=st.integers(1, 3), data=st.data())
    def test_matches_the_reference_apply_bit_for_bit(self, s, d, data):
        plan = build_plan(data.draw(_demands, label="eps"), d, s)
        applier = CdaApplier(plan, s)
        # Analytic indices run past N, into the closed form.
        top = s.n_eigenvalues if s.is_finite else s.n_eigenvalues + 4
        subsets = [u for l in range(1, d + 1) for u in combinations(range(1, d + 1), l)]
        terms = {}
        for u in data.draw(st.sets(st.sampled_from(subsets)), label="subsets"):
            index = st.tuples(*[st.integers(1, top)] * len(u))
            terms[u] = data.draw(
                st.dictionaries(index, st.floats(-1.0, 1.0), min_size=1, max_size=8),
                label=f"coefficients on {u}",
            )
        constant = data.draw(st.floats(-1.0, 1.0), label="constant")
        for f in (
            AnovaFunction(d=d, constant=constant, terms=terms, max_index=top),
            AnovaFunction(d=d, constant=constant),
        ):
            got, want = applier.apply(f), oracles.reference_apply(applier, f)
            assert got.error_cert == want.error_cert
            assert (got.exact, got.max_act) == (want.exact, want.max_act)
            assert got.approx == want.approx
            # The same order at both levels, and the same stored types.
            assert [(u, list(c.items())) for u, c in got.approx.terms.items()] == [
                (u, list(c.items())) for u, c in want.approx.terms.items()
            ]
            revalidated = AnovaFunction(
                d=got.approx.d,
                constant=got.approx.constant,
                terms=got.approx.terms,
                max_index=got.approx.max_index,
            )
            assert revalidated == got.approx
            assert type(got.approx.constant) is float and type(got.approx.d) is int
            # Fresh dicts: nothing is shared with f.
            assert got.approx.terms is not f.terms
            assert all(c is not f.terms[u] for u, c in got.approx.terms.items())

    @pytest.mark.parametrize("kind", ["korobov", "wiener", "custom"])
    def test_certificate_is_the_norm_of_the_dropped_part(self, kind, korobov1, wiener):
        # One rule combines subset errors: apply certifies exactly what
        # g_norm_exact reports for f - approx, bit for bit.
        s = {
            "korobov": korobov1,
            "wiener": wiener,
            "custom": build_spectrum(custom_kernel([0.9, 0.6, 0.5, 0.3, 0.2, 0.1])),
        }[kind]
        for d in (2, 3, 5):
            for eps in (0.2, 0.05):
                applier = CdaApplier(build_plan(eps, d, s), s)
                for seed in range(20):
                    f = random_function(d, s, seed=seed)
                    res = applier.apply(f)
                    want = g_norm_exact(
                        oracles.dropped_part(f, res.approx), s, orthogonal=kind == "korobov"
                    )
                    assert res.error_cert == want.value, (d, eps, seed)
                    assert res.exact is not want.is_upper_bound

    def test_retained_coefficients_are_unchanged(self, custom_quad):
        plan = build_plan(0.2, 2, custom_quad, tau=1.0)
        assert plan.level == 2
        f = AnovaFunction(
            d=2, terms={(1,): {(1,): 0.5, (4,): 0.25}, (1, 2): {(2, 3): 0.1}}
        )
        res = CdaApplier(plan, custom_quad).apply(f)
        for u, coeffs in res.approx.terms.items():
            for k, c in coeffs.items():
                assert f.terms[u][k] == c


class TestPrice:
    # The spread is drawn first, so that many lists hold terms within a few
    # e-folds of each other and the order of the sum shows.  Magnitudes up
    # to 1e306 keep the shift by the maximum from overflowing, where numpy
    # warns in both implementations.
    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.sampled_from([4.0, 40.0, 1e306]).flatmap(
            lambda r: st.lists(st.floats(-r, r), min_size=1, max_size=40)
        ),
        data=st.data(),
    )
    def test_logsumexp_matches_scipy(self, terms, data):
        ties = data.draw(st.sets(st.integers(0, len(terms) - 1)))
        for i in ties:
            terms[i] = max(terms)
        assert _logsumexp(terms) == float(logsumexp(terms))

    def test_matches_the_reference_price_bit_for_bit(self, korobov1, wiener):
        # The exact cost is one pricing sum over the plan's counts; it must
        # keep the bits of the stratum-by-stratum sum, and every other field.
        models = (
            CostModel(family="constant"),
            CostModel(family="polynomial", q=1.5),
            CostModel(family="exponential", q=1.0),
            CostModel(family="double_exponential", q=0.3),
            CostModel(family="linear_floor", c=2.5),
            CostModel(family="exponential", q=352.5),  # costs up to the largest double
        )
        custom = build_spectrum(custom_kernel([0.9, 0.6, 0.5, 0.3, 0.2, 0.1]))
        compared = 0
        for s, dims in (
            (wiener, (2, 3, 5, 10, 100, 10**3, 10**4, 10**5, 10**6)),
            (korobov1, (2, 5, 10, 100)),
            (custom, (2, 3, 4)),
        ):
            for d in dims:
                for q in range(1, 9):
                    plan = build_plan(10.0**-q, d, s)
                    for model in models:
                        try:
                            want = oracles.reference_price_plan(plan, model)
                        except UnsupportedScaleError:
                            with pytest.raises(UnsupportedScaleError):
                                price_plan(plan, model)
                            continue
                        assert price_plan(plan, model) == want, (s.kind, d, q, model)
                        compared += 1
        assert compared > 500

    def test_empty_plan_costs_base_evaluation(self, korobov1):
        plan = build_plan(0.3, 5, korobov1)
        assert plan.level == 0
        pr = price_plan(plan, CostModel(family="constant"))
        assert pr.exact == 1.0
        assert pr.within_bound

    def test_exact_cost_is_direct_sum(self, korobov1):
        plan = build_plan(0.01, 4, korobov1, tau=1.0)
        direct = 1.0 + math.fsum(
            math.comb(4, r.cardinality) * r.n_l for r in plan.rows
        )
        pr = price_plan(plan, CostModel(family="constant"))
        assert pr.exact == pytest.approx(direct, rel=1e-12)

    def test_exact_cost_uses_exact_binomials_at_large_dimension(self, wiener):
        # lgamma differences put log C(d, l) off by up to 1.7e-9 at d = 1e6.
        for d in (10**5, 10**6):
            for q in range(1, 9):
                plan = build_plan(10.0**-q, d, wiener)
                exact = 1 + sum(math.comb(d, r.cardinality) * r.n_l for r in plan.rows)
                pr = price_plan(plan, CostModel(family="constant"))
                assert pr.log_exact == pytest.approx(math.log(exact), abs=1e-12)

    def test_integer_costs_are_reproduced_exactly(self, wiener):
        s = build_spectrum(custom_kernel([0.9, 0.6, 0.5, 0.3, 0.2, 0.1]))
        plan = build_plan(0.05, 3, s)
        direct = 1 + sum(math.comb(3, r.cardinality) * r.n_l for r in plan.rows)
        assert direct == 28132
        assert price_plan(plan, CostModel(family="constant")).exact == direct
        # Past 2^53 the sum of the integer strata is correctly rounded.
        for d in (10**5, 10**6):
            for q in (3, 5, 8):
                plan = build_plan(10.0**-q, d, wiener)
                direct = 1 + sum(math.comb(d, r.cardinality) * r.n_l for r in plan.rows)
                pr = price_plan(plan, CostModel(family="constant"))
                assert pr.exact == pytest.approx(float(direct), rel=2.0**-52)

    def test_exponential_cost_scales_strata(self, korobov1):
        plan = build_plan(0.01, 4, korobov1, tau=1.0)
        direct = math.e**0 + math.fsum(
            math.comb(4, r.cardinality) * r.n_l * math.exp(r.cardinality)
            for r in plan.rows
        )
        pr = price_plan(plan, CostModel(family="exponential", q=1.0))
        assert pr.exact == pytest.approx(direct, rel=1e-12)

    def test_cost_within_budget_across_grid(self, korobov1, wiener):
        for s in (korobov1, wiener):
            for d in (2, 10, 100):
                for eps in (0.1, 0.001):
                    for model in (
                        CostModel(family="constant"),
                        CostModel(family="exponential", q=1.0),
                        CostModel(family="polynomial", q=2.0),
                    ):
                        assert price_plan(build_plan(eps, d, s), model).within_bound

    def test_exact_cost_is_finite_up_to_the_largest_double(self, wiener):
        # Counts [1, 333, 81] (C(3,l) n_l) at exp:352.5: log_exact 709.39,
        # which printed inf.
        plan = build_plan(0.1, 3, wiener)
        assert [row.n_l for row in plan.rows] == [111, 27]
        pr = price_plan(plan, CostModel(family="exponential", q=352.5))
        assert pr.exact == 1.2192556047811873e308
        assert pr.exact == math.fsum([1.0, 333 * math.exp(352.5), 81 * math.exp(705.0)])
        assert (pr.bound, pr.within_bound) == (math.inf, True)

    def test_double_exponential_overflow_reports_logs(self, korobov1):
        plan = build_plan(0.001, 50, korobov1, tau=1.0)
        pr = price_plan(plan, CostModel(family="double_exponential", q=2.5))
        assert pr.exact == math.inf
        assert math.isfinite(pr.log_exact)
        assert pr.log_exact <= pr.log_bound
