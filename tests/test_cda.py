"""Changing-dimension plans: parameters, error certificates, pricing."""

import math
from itertools import product as iproduct

import pytest

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
    price_plan,
    r_growth_bounds,
    random_function,
    single_subset_function,
)
from activevars import cda
from activevars.cda import _RankOracle
from activevars.errors import DimensionMismatchError, DivergenceError

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


class _BruteRank:
    """Reference ranking over a finite index space, ties lexicographic."""

    def __init__(self, spectrum, cardinality, budget):
        tuples = list(iproduct(range(1, spectrum.n_eigenvalues + 1), repeat=cardinality))
        tuples.sort(key=lambda k: (-oracles.direct_eigen_product(spectrum, k), k))
        self.kept = set(tuples[:budget])

    def retained(self, k):
        return tuple(k) in self.kept


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

    def test_korobov_pair_split(self, korobov1):
        # Budget 3 at cardinality 1 keeps the first three flattened indices.
        oracle = _RankOracle(korobov1, 1, 3)
        assert oracle.retained((3,)) and not oracle.retained((4,))


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
