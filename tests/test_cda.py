"""Changing-dimension plans: parameters, error certificates, pricing."""

import math
from itertools import combinations, permutations
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    AnovaFunction,
    CdaApplier,
    CostModel,
    EnumerationCapError,
    apply_plan,
    build_plan,
    build_spectrum,
    custom_kernel,
    h_norm,
    korobov_kernel,
    price_plan,
    r_growth_bounds,
    random_function,
    single_subset_function,
)
from activevars import cda
from activevars.cda import _RankOracle
from activevars.optimal import arrangement_count
from activevars.errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidArgumentError,
)

import oracles


def _split_total(plan) -> float:
    return math.fsum(
        math.comb(plan.d, r.cardinality) * plan.d**-r.cardinality * r.eps_l**2
        for r in plan.rows
    )


class TestPlan:
    def test_two_term_r_sum(self, korobov1):
        plan = build_plan(0.3, 4, korobov1, tau=1.0, level=2)
        # C(4,1) 4^{-1/2} + C(4,2) 4^{-1} = 2 + 1.5
        assert plan.big_r == pytest.approx(3.5, rel=1e-12)
        assert plan.ell_star == 2

    def test_term_budget_formula(self):
        # n = floor(L^l / eps_l^{2 tau}) at eps_l = 0.1, L = 0.5, l = 1, tau = 1.
        s = build_spectrum(custom_kernel([0.3, 0.2]))  # L(1) = 0.5
        plan = build_plan(0.1, 1, s, tau=1.0, level=1)
        # eps_1 = 0.1 * 1^{1/4} / sqrt(R) with R = 1 at d = 1.
        assert plan.rows[0].eps_l == pytest.approx(0.1, rel=1e-14)
        assert plan.rows[0].n_l == 50

    def test_default_tau_exceeds_inverse_decay(self, korobov1, wiener):
        assert build_plan(0.1, 4, korobov1).tau == pytest.approx(1.1)
        assert build_plan(0.1, 4, wiener).tau == pytest.approx(1.1)

    def test_divergent_tau_rejected(self, korobov1):
        with pytest.raises(DivergenceError):
            build_plan(0.1, 4, korobov1, tau=0.5)

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


class TestRGrowthBounds:
    def test_exponential_regime(self, korobov1):
        plan = build_plan(0.3, 4, korobov1, tau=1.0, level=2)
        rb = r_growth_bounds(plan)
        assert rb.applicable == "exponential"
        assert rb.r_power == pytest.approx(12.25, rel=1e-12)
        assert rb.exponential_bound == pytest.approx(2.0 * math.e**2, rel=1e-12)
        assert rb.certified

    def test_factorial_regime(self, korobov1):
        plan = build_plan(0.3, 100, korobov1, tau=1.0, level=2)
        rb = r_growth_bounds(plan)
        assert rb.applicable == "factorial"
        assert rb.factorial_bound == pytest.approx(1.0e4, rel=1e-12)
        assert rb.certified

    def test_single_level_boundary(self, korobov1):
        # level 1: R = d^{1/(1+tau)}, so R^{1+tau} = d = factorial bound.
        plan = build_plan(0.3, 9, korobov1, tau=1.0, level=1)
        rb = r_growth_bounds(plan)
        assert rb.r_power == pytest.approx(9.0, rel=1e-12)
        assert rb.factorial_bound == pytest.approx(9.0, rel=1e-12)
        assert rb.certified

    def test_certified_away_from_regime_boundary(self, korobov1):
        # Deep inside either regime the applicable closed form holds.
        for d, eps in [(2, 0.1), (2, 0.001), (5, 0.1), (50, 0.01), (100, 0.001), (1000, 0.001)]:
            rb = r_growth_bounds(build_plan(eps, d, korobov1))
            assert rb.certified, (d, eps, rb)

    def test_exponential_form_fails_near_regime_boundary(self, korobov1):
        # At d = 10, tau = 1.1 the level is 3 and d sits just below
        # m1^{1+tau} = 10.04: the exponential closed form m1 e^{m1} = 60.3
        # undershoots R^{1+tau} = 132.5 even though the factorial form
        # still holds.  The certificate reports this honestly.
        rb = r_growth_bounds(build_plan(0.001, 10, korobov1))
        assert rb.applicable == "exponential"
        assert not rb.certified
        assert rb.r_power <= rb.factorial_bound


# Custom spectra from a small value set: repeated values and products such
# as 0.6 * 0.1 and 0.3 * 0.2 tie exactly, while 0.9 * 0.1 and 0.3 * 0.3
# are equal only up to rounding and land in different classes.
_tie_spectra = st.lists(
    st.sampled_from([0.9, 0.6, 0.5, 0.3, 0.2, 0.1, 0.05]), min_size=1, max_size=5
).map(lambda v: sorted(v, reverse=True))


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


class TestRankOracle:
    @pytest.mark.parametrize("cardinality", [1, 2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5, 9, 17, 64])
    def test_matches_brute_force(self, custom_quad, cardinality, budget):
        oracle = _RankOracle(custom_quad, cardinality, budget)
        brute = _BruteRank(custom_quad, cardinality, budget)
        for k in iproduct(range(1, 5), repeat=cardinality):
            assert oracle.retained(k) == brute.retained(k), (k, budget)

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
        monkeypatch.setattr(cda, "ENUMERATION_CAP", 10)
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
            mp.setattr(cda, "ENUMERATION_CAP", heap.pops)
            oracle = _RankOracle(s, cardinality, budget)
            assert (oracle._key == (math.inf,)) == heap.exhausted
            mp.setattr(cda, "ENUMERATION_CAP", heap.pops - 1)
            with pytest.raises(EnumerationCapError):
                _RankOracle(s, cardinality, budget)

    def test_cap_bounds_the_cut_not_the_search(self, korobov1):
        # The first lowered bound overshoots the budget; with the cap at
        # what the heap walk held, the ranking still goes through.
        heap = oracles.HeapRank(korobov1, 2, 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cda, "ENUMERATION_CAP", heap.pops)
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
        counts = cda._arrangement_counts(np.array(rows))
        assert counts.tolist() == [arrangement_count(tuple(r)) for r in rows]

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
            assert cda._unrank([list(ms) for ms in multisets], rank) == want

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
        res = apply_plan(plan, f, korobov1)
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
        res = apply_plan(plan, f, korobov1)
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
        res = apply_plan(plan, f, wiener)
        assert not res.exact
        assert res.error_cert >= 0.0

    def test_dimension_mismatch(self, korobov1):
        plan = build_plan(0.1, 4, korobov1)
        with pytest.raises(DimensionMismatchError):
            apply_plan(plan, AnovaFunction(d=5, constant=1.0), korobov1)

    @settings(max_examples=100, deadline=None)
    @given(values=_tie_spectra, d=st.integers(1, 3), data=st.data())
    def test_keeps_exactly_the_brute_force_ranking(self, values, d, data):
        s = build_spectrum(custom_kernel(values))
        plan = build_plan(
            data.draw(st.floats(0.05, 0.95), label="eps"),
            d,
            s,
            level=data.draw(st.integers(0, d), label="level"),
        )
        subsets = [u for l in range(1, d + 1) for u in combinations(range(1, d + 1), l)]
        terms = {}
        for u in data.draw(st.sets(st.sampled_from(subsets)), label="subsets"):
            index = st.tuples(*[st.integers(1, s.n_eigenvalues)] * len(u))
            terms[u] = data.draw(
                st.dictionaries(index, st.floats(-1.0, 1.0), min_size=1, max_size=8),
                label=f"coefficients on {u}",
            )
        orthogonal = data.draw(st.booleans(), label="orthogonal")
        res = CdaApplier(plan, s, orthogonal).apply(AnovaFunction(d=d, terms=terms))
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
        if orthogonal:
            want = math.sqrt(math.fsum(dropped_sq))
        else:
            want = math.fsum(map(math.sqrt, dropped_sq))
        assert res.error_cert == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_index_past_a_custom_table_is_dropped_and_refused(self):
        # The pair budget exhausts the 2 x 2 pairs of the table.  Index 3
        # lies past it: dropped, with no eigenvalue to certify the drop.
        s = build_spectrum(custom_kernel([0.5, 0.25]))
        plan = build_plan(0.05, 2, s, level=2)
        assert plan.row(2).n_l >= 4
        f = AnovaFunction(d=2, terms={(1, 2): {(1, 1): 0.5, (3, 1): 0.25}})
        with pytest.raises(InvalidArgumentError):
            apply_plan(plan, f, s)

    def test_retained_coefficients_are_unchanged(self, custom_quad):
        plan = build_plan(0.2, 2, custom_quad, tau=1.0, level=2)
        f = AnovaFunction(
            d=2, terms={(1,): {(1,): 0.5, (4,): 0.25}, (1, 2): {(2, 3): 0.1}}
        )
        res = apply_plan(plan, f, custom_quad, orthogonal=True)
        for u, coeffs in res.approx.terms.items():
            for k, c in coeffs.items():
                assert f.terms[u][k] == c


class TestPrice:
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

    def test_double_exponential_overflow_reports_logs(self, korobov1):
        plan = build_plan(0.001, 50, korobov1, tau=1.0)
        pr = price_plan(plan, CostModel(family="double_exponential", q=2.5))
        assert pr.overflowed
        assert pr.exact == math.inf
        assert math.isfinite(pr.log_exact)
        assert pr.log_exact <= pr.log_bound
