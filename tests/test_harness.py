"""Test-function generators, the reference table, Monte Carlo checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    AnovaFunction,
    CdaApplier,
    build_plan,
    GOLDEN_MAJORANT_CEILINGS,
    eval_pointwise,
    g_norm_exact,
    h_norm,
    majorant_table,
    make_test_function,
    mc_l2_error,
    mean_function,
    random_function,
    single_subset_function,
    table_check,
)
from activevars import harness
from activevars.errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)

import oracles


class TestMajorantTable:
    def test_reference_row(self):
        assert tuple(v for _, v in majorant_table()) == GOLDEN_MAJORANT_CEILINGS

    def test_check_reports_no_diffs(self):
        rows, diffs = table_check()
        assert diffs == []
        assert rows[1] == (2, 5)
        assert rows[7] == (8, 14)
        assert rows[4] == (5, 10)

    def test_byte_identical_across_runs(self):
        assert majorant_table() == majorant_table()


class TestMeanFunction:
    def test_unit_weighted_norm(self, wiener):
        for d in (1, 3, 7):
            f = mean_function(d, wiener)
            assert h_norm(f) == pytest.approx(1.0, abs=2e-3)

    def test_pointwise_values_match_the_average(self, wiener):
        f = mean_function(4, wiener)
        rng = np.random.default_rng(5)
        x = rng.random((50, 4))
        got = eval_pointwise(f, wiener, x)
        np.testing.assert_allclose(got, np.mean(x, axis=1), atol=2e-3)

    def test_requires_wiener(self, korobov1):
        with pytest.raises(InvalidConfigurationError):
            mean_function(3, korobov1)


class TestGenerators:
    def test_empty_subset_gives_constant(self, wiener):
        f = single_subset_function(5, (), value=0.5)
        assert f == AnovaFunction(d=5, constant=0.5)

    def test_random_is_deterministic(self, korobov1):
        a = random_function(8, korobov1, seed=123)
        b = random_function(8, korobov1, seed=123)
        assert a == b
        c = random_function(8, korobov1, seed=124)
        assert a != c

    def test_random_has_unit_norm(self, korobov1):
        for seed in range(5):
            f = random_function(6, korobov1, seed=seed)
            assert h_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_dispatcher(self, wiener):
        f = make_test_function("mean", 2, wiener)
        assert set(f.subsets()) == {(1,), (2,)}
        g = make_test_function("single_subset", 3, wiener, u=(1, 2), k=(1, 1))
        assert (1, 2) in g.terms
        h = make_test_function("random", 4, wiener, seed=9)
        assert h_norm(h) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(InvalidArgumentError):
            make_test_function("nope", 2, wiener)


class TestMonteCarlo:
    def test_identical_functions_have_zero_error(self, korobov1):
        f = single_subset_function(3, (1, 2), (1, 1), value=0.4)
        est, se = mc_l2_error(f, f, korobov1, samples=10_000, seed=0)
        assert est == 0.0 and se == 0.0

    def test_truncation_error_matches_exact_value(self, korobov1):
        # Drop one of two coefficients; the exact embedded norm of the
        # dropped part must sit inside the 3-sigma interval.
        f = AnovaFunction(d=3, terms={(1, 3): {(1, 1): 0.6, (3, 2): 0.3}})
        approx = AnovaFunction(d=3, terms={(1, 3): {(1, 1): 0.6}})
        dropped = AnovaFunction(d=3, terms={(1, 3): {(3, 2): 0.3}})
        exact = g_norm_exact(dropped, korobov1, orthogonal=True).value
        est, se = mc_l2_error(f, approx, korobov1, samples=100_000, seed=21)
        assert abs(est - exact) <= 3.0 * se

    def test_mean_versus_constant_offset(self, wiener):
        # || mean - 1/2 ||_L2^2 = Var(mean) = 1/(12 d); quadrature agrees.
        d = 4
        f = mean_function(d, wiener)
        approx = AnovaFunction(d=d, constant=0.5)
        quad = math.sqrt(
            oracles.tensor_quadrature(
                lambda pts: (np.mean(pts, axis=1) - 0.5) ** 2, d, n_nodes=6
            )
        )
        assert quad == pytest.approx(math.sqrt(1.0 / 48.0), rel=1e-12)
        est, se = mc_l2_error(f, approx, wiener, samples=40_000, seed=7)
        assert abs(est - quad) <= 3.0 * se

    def test_over_budget_run_is_refused_before_sampling(self, korobov1, monkeypatch):
        # 10 singleton terms x 2e8 samples = 2e9 term-point products.
        f = AnovaFunction(d=10, terms={(j,): {(1,): 1.0} for j in range(1, 11)})
        approx = AnovaFunction(d=10)
        assert 10 * 2 * 10**8 > harness._MC_WORK_BUDGET

        def no_sampling(*_args, **_kwargs):
            raise AssertionError("samples drawn before the budget check")

        monkeypatch.setattr(harness.np.random, "default_rng", no_sampling)
        with pytest.raises(UnsupportedScaleError):
            mc_l2_error(f, approx, korobov1, samples=2 * 10**8)

    def test_cross_check_at_dimension_50(self, korobov1):
        # Cost follows stored terms x samples, not d: the changing-dimension
        # approximation of a d = 50 function is checked like any other.
        f = random_function(50, korobov1, seed=0)
        approx = CdaApplier(build_plan(0.1, 50, korobov1), korobov1).apply(f).approx
        dropped = AnovaFunction(
            d=50,
            terms={
                u: {k: c for k, c in coeffs.items() if k not in approx.terms.get(u, {})}
                for u, coeffs in f.terms.items()
            },
        )
        exact = g_norm_exact(dropped, korobov1, orthogonal=True).value
        assert exact > 0.0
        est, se = mc_l2_error(f, approx, korobov1, samples=20_000, seed=0)
        assert abs(est - exact) <= 3.0 * se

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**31 - 1))
    def test_identical_random_functions_have_zero_error(self, korobov1, d, seed):
        f = random_function(d, korobov1, seed=seed)
        assert mc_l2_error(f, f, korobov1, samples=100, seed=seed) == (0.0, 0.0)
