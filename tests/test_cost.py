"""Cost families, complexity grids, and the fits over them."""

import math

import numpy as np
import pytest

from activevars import (
    CostModel,
    complexity_curve,
    eval_cost,
)
from activevars import (
    build_plan,
    build_spectrum,
    custom_kernel,
    korobov_kernel,
    power_sum,
    price_plan,
)
from activevars import cda, cost
from activevars.cost import log_eval_cost
from activevars.errors import (
    CertificationError,
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)

import oracles

# One model per cost family.
FAMILY_MODELS = (
    CostModel(family="constant"),
    CostModel(family="polynomial", q=1.5),
    CostModel(family="exponential", q=1.0),
    CostModel(family="double_exponential", q=0.3),
    CostModel(family="linear_floor", c=2.5),
)


class TestCostModel:
    def test_constant_is_one_everywhere(self):
        m = CostModel(family="constant")
        assert [eval_cost(m, k) for k in range(5)] == [1.0] * 5

    def test_polynomial(self):
        assert eval_cost(CostModel(family="polynomial", q=2.0), 3) == 16.0

    def test_double_exponential(self):
        assert eval_cost(
            CostModel(family="double_exponential", q=1.0), 2
        ) == pytest.approx(math.exp(math.exp(2.0)), rel=1e-14)

    def test_linear_floor(self):
        m = CostModel(family="linear_floor", c=2.5)
        assert eval_cost(m, 0) == 2.5
        assert eval_cost(m, 3) == 10.0

    def test_monotone_in_active_count(self):
        models = [
            CostModel(family="constant"),
            CostModel(family="polynomial", q=1.5),
            CostModel(family="exponential", q=0.7),
            CostModel(family="double_exponential", q=0.3),
            CostModel(family="linear_floor", c=1.0),
        ]
        for m in models:
            costs = [eval_cost(m, k) for k in range(8)]
            assert all(a <= b for a, b in zip(costs, costs[1:]))
            assert costs[0] >= 1.0

    def test_invalid_models(self):
        with pytest.raises(InvalidArgumentError):
            CostModel(family="linear_floor", c=0.5)  # $(0) < 1
        with pytest.raises(InvalidArgumentError):
            CostModel(family="exponential", q=-1.0)
        with pytest.raises(InvalidArgumentError):
            CostModel(family="nonsense")


    @pytest.mark.parametrize(
        "family, param",
        [
            ("polynomial", "q"),
            ("exponential", "q"),
            ("double_exponential", "q"),
            ("linear_floor", "c"),
        ],
    )
    def test_non_finite_parameters_are_invalid_models(self, family, param):
        # NaN passed both `q < 0` and `$(0) >= 1`, so pricing failed its own
        # certificate on exp(nan); c = inf priced plans at inf "within bound".
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                CostModel(family=family, **{param: value})

    def test_costs_beyond_double_range_raise_typed_errors(self):
        # math.exp and float power raised a raw OverflowError.
        doubleexp = CostModel(family="double_exponential", q=1000.0)
        with pytest.raises(UnsupportedScaleError):
            log_eval_cost(doubleexp, 1)
        with pytest.raises(UnsupportedScaleError):
            eval_cost(doubleexp, 1)
        with pytest.raises(UnsupportedScaleError):
            eval_cost(CostModel(family="polynomial", q=1000.0), 2)
        assert eval_cost(doubleexp, 0) == math.e
        assert log_eval_cost(CostModel(family="exponential", q=1000.0), 1) == 1000.0


@pytest.fixture(scope="module")
def korobov_curve(korobov1_deep):
    return complexity_curve(
        korobov1_deep,
        1.0,
        CostModel(family="exponential", q=1.0),
        [1e-2, 1e-3, 1e-4, 1e-5],
        [2, 5, 10, 50, 100],
        tau=1.0,
    )


class TestComplexityCurve:
    def test_every_point_within_closed_form_bound(self, korobov_curve):
        assert all(p.within_bound for p in korobov_curve.points)
        assert not any(p.flagged for p in korobov_curve.points)

    def test_strong_exponent_fit(self, korobov_curve):
        assert korobov_curve.p_str_fit <= 2.2

    def test_exponent_floor_from_univariate_problem(self, korobov1_deep, korobov_curve):
        single = complexity_curve(
            korobov1_deep,
            1.0,
            CostModel(family="exponential", q=1.0),
            [1e-2, 1e-3, 1e-4, 1e-5],
            [1],
            tau=1.0,
        )
        assert korobov_curve.p_str_fit >= single.p_str_fit - 0.2

    def test_monotone_in_demand(self, korobov_curve):
        by_d: dict[int, list] = {}
        for p in korobov_curve.points:
            by_d.setdefault(p.d, []).append(p)
        for pts in by_d.values():
            pts = sorted(pts, key=lambda p: -p.epsilon)
            comps = [p.comp for p in pts]
            assert all(a <= b for a, b in zip(comps, comps[1:]))

    def test_monotone_under_larger_cost_model(self, korobov1_deep):
        grids = ([1e-2, 1e-3], [2, 10])
        lo = complexity_curve(korobov1_deep, 1.0, CostModel(family="constant"), *grids)
        hi = complexity_curve(
            korobov1_deep, 1.0, CostModel(family="exponential", q=1.0), *grids
        )
        for a, b in zip(lo.points, hi.points):
            assert a.comp <= b.comp

    def test_d1_constant_cost_is_the_spectral_count(self, korobov1_deep):
        rep = complexity_curve(
            korobov1_deep, 1.0, CostModel(family="constant"), [0.5, 0.1, 0.01], [1]
        )
        for p in rep.points:
            # The constant plus each univariate eigenvalue above eps^2.
            above = np.count_nonzero(korobov1_deep.leading() > p.epsilon**2)
            assert p.comp == 1 + above

    def test_wiener_points_count_every_priced_functional(self, wiener):
        # The changing-dimension cost prices the constant term too.
        rep = complexity_curve(wiener, 1.0, CostModel(family="constant"), [0.1], [3])
        (p,) = rep.points
        assert (p.comp, p.n_terms) == (301.0, 301)
        assert not p.flagged and p.flag_reason == "cda-upper-bound"

    def test_prices_and_bounds_are_finite_up_to_the_largest_double(self, korobov1):
        # ln bound = 700 + L(1) - 2 ln 0.01 = 709.29: the grid printed inf
        # from 709 on, and korobov points with an overflowing $(l) raised.
        exp700 = CostModel(family="exponential", q=700.0)
        (p,) = complexity_curve(korobov1, 1.0, exp700, [0.01], [5]).points
        assert (p.comp, p.n_terms, p.m2_ceiling) == (1.0 + 70 * math.exp(700.0), 71, 1)
        # The bound is rounded up: at most a few ulps of its log above the
        # value rounded to nearest.
        nearest = math.exp(700.0 + power_sum(korobov1, 1.0) - 2.0 * math.log(0.01))
        assert nearest <= p.bound <= nearest * (1.0 + 1e-12)
        assert 1e308 < p.bound < math.inf and p.within_bound
        deep = complexity_curve(korobov1, 1.0, exp700, [0.01, 0.001], [5])
        assert [(p.comp, p.bound) for p in deep.points][1] == (math.inf, math.inf)

    def test_verdicts_past_double_range_come_from_the_log_price(self, korobov1, monkeypatch):
        # At d = 5, eps = 1e-3 the counts per subset are [1, 142, 40]: ln comp
        # = 1405.99, inf as a double.  A bound 50 below it is inf too, and the
        # point passed as inf <= inf; in log space it is above its bound.
        monkeypatch.setattr(cost, "_log_term_bound", lambda *args: 1356.0)
        exp700 = CostModel(family="exponential", q=700.0)
        shallow, deep = complexity_curve(korobov1, 1.0, exp700, [0.01, 0.001], [5]).points
        assert math.isfinite(shallow.comp) and shallow.within_bound
        assert (deep.comp, deep.bound, deep.n_terms) == (math.inf, math.inf, 1 + 5 * 142 + 10 * 40)
        assert not deep.within_bound

    def test_a_wiener_point_past_its_budget_is_refused(self, wiener, monkeypatch):
        # A built plan's cost is within its budget by theorem, so a grid point
        # above it raises, as price_plan does, instead of printing a 0 verdict.
        exp1 = CostModel(family="exponential", q=1.0)
        assert complexity_curve(wiener, 1.0, exp1, [0.1], [3]).points[0].within_bound
        log_plan_bound = cda._log_plan_bound
        monkeypatch.setattr(cda, "_log_plan_bound", lambda *args: log_plan_bound(*args) - 50.0)
        with pytest.raises(CertificationError, match="closed-form budget"):
            complexity_curve(wiener, 1.0, exp1, [0.1], [3])
        with pytest.raises(CertificationError, match="closed-form budget"):
            price_plan(build_plan(0.1, 3, wiener), exp1)

    def test_fits_without_spread_are_nan(self, korobov1):
        # A line through abscissae that do not spread is not defined: its
        # slope, intercept (so qpt_c_fit) and residual are NaN, not 0.
        exp1 = CostModel(family="exponential", q=1.0)
        rep = complexity_curve(korobov1, 1.0, exp1, [0.1], [2])
        fits = (rep.p_str_fit, rep.p_str_residual, rep.qpt_t_fit, rep.qpt_c_fit, rep.qpt_residual)
        assert all(math.isnan(v) for v in fits)
        # One demand over two dimensions: only the strong fit lacks spread,
        # and two points make an exact quasi-polynomial line.
        rep = complexity_curve(korobov1, 1.0, exp1, [0.1], [2, 5])
        assert math.isnan(rep.p_str_fit) and math.isnan(rep.p_str_residual)
        assert math.isfinite(rep.qpt_t_fit) and math.isfinite(rep.qpt_c_fit)
        assert rep.qpt_residual == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kernel", ["korobov1", "wiener"])
    def test_repeated_grid_entries_are_priced_once(self, request, kernel):
        # Each repeat was priced again, and the strong-exponent fit ran
        # through two distinct demands of its three.
        s = request.getfixturevalue(kernel)
        model = CostModel(family="exponential", q=1.0)
        distinct = complexity_curve(s, 1.0, model, [0.1, 0.05, 0.01], [2, 5])
        repeated = complexity_curve(s, 1.0, model, [0.01, 0.1, 0.1, 0.05, 0.01], [5, 2, 2, 5])
        assert repeated == distinct
        assert [(p.d, p.epsilon) for p in distinct.points] == [
            (d, eps) for d in (2, 5) for eps in (0.1, 0.05, 0.01)
        ]

    def test_flagged_points_are_reported_not_fatal(self):
        from activevars import build_spectrum, korobov_kernel

        shallow = build_spectrum(korobov_kernel(1.0), 20)
        rep = complexity_curve(
            shallow, 1.0, CostModel(family="constant"), [0.5, 1e-6], [2]
        )
        flagged = [p for p in rep.points if p.flagged]
        assert len(flagged) == 1
        assert rep.flags
        with pytest.raises(InvalidArgumentError, match="no grid point could be priced"):
            complexity_curve(shallow, 1.0, CostModel(family="constant"), [1e-6], [2])


class TestOnePricingPath:
    """Every grid point is one count per cardinality, priced by one sum."""

    @pytest.mark.parametrize("model", FAMILY_MODELS, ids=CostModel.describe)
    @pytest.mark.parametrize(
        "kernel, eps_grid, d_grid",
        [
            # At N = 40, korobov demands down to 0.0115 / sqrt(2) stay certified
            # at d = 1, and those below 0.0253 / 2 keep pairs at d = 2.
            (korobov_kernel(1.0), (0.1, 0.03, 0.012, 0.0115), (1, 2)),
            (custom_kernel([0.9, 0.6, 0.3, 0.2, 0.1]), (0.5, 0.3, 0.2, 0.1, 0.05), (1, 2, 3, 4)),
        ],
    )
    def test_points_price_brute_force_counts(self, model, kernel, eps_grid, d_grid):
        s = build_spectrum(kernel, 40)
        lams = list(s.table())
        for c_const in (1.0, 2.0):
            rep = complexity_curve(s, c_const, model, eps_grid, d_grid)
            for p in rep.points:
                eps_eff = p.epsilon / math.sqrt(c_const)
                counts = oracles.exhaustive_cardinality_counts(p.d, lams, eps_eff * eps_eff)
                want = math.fsum(n * eval_cost(model, l) for l, n in enumerate(counts) if n)
                assert not p.flagged, (p.d, p.epsilon, c_const)
                assert p.comp == want, (p.d, p.epsilon, c_const)
                assert (p.n_terms, p.max_act) == (sum(counts), len(counts) - 1)

    @pytest.mark.parametrize(
        "model",
        FAMILY_MODELS
        + (  # prices and bounds past double range
            CostModel(family="double_exponential", q=2.0),
            CostModel(family="exponential", q=352.5),
        ),
        ids=CostModel.describe,
    )
    def test_wiener_points_are_the_plan_price(self, wiener, model):
        rep = complexity_curve(wiener, 1.0, model, [1e-1, 1e-2, 1e-3], [1, 2, 5, 100], tau=1.5)
        for p in rep.points:
            plan = build_plan(p.epsilon, p.d, wiener, tau=1.5)
            price = price_plan(plan, model)
            assert (p.comp, p.bound, p.within_bound) == (
                price.exact,
                price.bound,
                price.within_bound,
            )
            assert p.n_terms == 1 + sum(math.comb(p.d, r.cardinality) * r.n_l for r in plan.rows)
            assert p.max_act == plan.level

    def test_wiener_refuses_an_orthogonality_constant(self, wiener):
        # The plan splits eps itself: c_const = 4 used to print the grid of c_const = 1.
        model = CostModel(family="constant")
        with pytest.raises(InvalidConfigurationError):
            complexity_curve(wiener, 4.0, model, [0.1, 0.01], [3, 5])
        assert complexity_curve(wiener, 1.0, model, [0.1], [3]).points[0].n_terms == 301

