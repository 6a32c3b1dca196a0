"""Weighted-space norms, subsets, functionals, embedding bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    AnovaFunction,
    Functional,
    SubsetIndex,
    act,
    anova_from_json,
    anova_to_json,
    embedding_norm_bound,
    embedding_norm_special,
    eval_pointwise,
    g_norm_exact,
    h_norm,
    mc_l2_error,
    mean_function,
    weight,
)
from activevars import build_spectrum, custom_kernel, korobov_kernel, space, wiener_kernel
from activevars.errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedOperationError,
)

import oracles


class TestSubsetIndex:
    def test_validation(self):
        SubsetIndex((), 3)
        SubsetIndex((1, 3), 3)
        with pytest.raises(InvalidArgumentError):
            SubsetIndex((3, 1), 3)
        with pytest.raises(InvalidArgumentError):
            SubsetIndex((0,), 3)
        with pytest.raises(InvalidArgumentError):
            SubsetIndex((4,), 3)


class TestWeight:
    def test_empty_subset_has_weight_one(self):
        assert weight(17, ()) == 1.0

    def test_direct_formula(self):
        assert weight(4, (1, 3)) == 1.0 / 16.0
        assert weight(1, (1,)) == 1.0

    def test_no_overflow_at_extreme_sizes(self):
        d = 10**6
        w = weight(d, tuple(range(1, 61)))
        assert 0.0 <= w < 1e-300

    @given(
        d=st.integers(min_value=2, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_rule_on_disjoint_unions(self, d, data):
        coords = data.draw(
            st.lists(st.integers(1, d), min_size=0, max_size=6, unique=True)
        )
        split = data.draw(st.integers(0, len(coords)))
        u = tuple(sorted(coords))
        v = tuple(sorted(coords[:split]))
        w_ = tuple(sorted(coords[split:]))
        assert weight(d, u) == pytest.approx(weight(d, v) * weight(d, w_), rel=1e-12)


class TestHNorm:
    def test_constant_only(self):
        assert h_norm(AnovaFunction(d=3, constant=3.0)) == 3.0

    def test_single_term_formula(self):
        f = AnovaFunction(d=5, terms={(1, 2): {(1, 1): 0.2}})
        assert h_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_mean_function_has_unit_norm(self, wiener):
        # Exact value is 1; the stored expansion is truncated, so allow the
        # documented ~1/index_bound defect.
        f = mean_function(4, wiener)
        assert h_norm(f) == pytest.approx(1.0, abs=1e-3)
        assert h_norm(f) <= 1.0
        # per-coordinate oracle: each x_j has unit derivative energy
        assert oracles.derivative_inner_product(lambda x: x, lambda x: x) == (
            pytest.approx(1.0, abs=1e-9)
        )

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_square_decomposes_over_subsets(self, d, seed):
        rng = np.random.default_rng(seed)
        terms = {}
        for _ in range(rng.integers(1, 5)):
            card = int(rng.integers(1, d + 1))
            u = tuple(sorted(rng.choice(d, size=card, replace=False) + 1))
            terms[u] = {
                tuple(int(i) for i in rng.integers(1, 9, size=card)): float(
                    rng.normal()
                )
                for _ in range(rng.integers(1, 4))
            }
        f = AnovaFunction(d=d, constant=float(rng.normal()), terms=terms)
        total_sq = h_norm(f) ** 2
        parts = [h_norm(AnovaFunction(d=d, constant=f.constant)) ** 2]
        parts += [h_norm(f.restrict(u)) ** 2 for u in f.subsets()]
        assert total_sq == pytest.approx(math.fsum(parts), rel=1e-12)


class TestGNorm:
    def test_constant_only_is_one(self, korobov1):
        res = g_norm_exact(AnovaFunction(d=2, constant=1.0), korobov1, orthogonal=True)
        assert res.value == 1.0
        assert not res.is_upper_bound

    def test_single_eigenfunction_image_norm(self, korobov1):
        f = AnovaFunction(d=1, terms={(1,): {(1,): 1.0}})
        res = g_norm_exact(f, korobov1, orthogonal=True)
        assert res.value == pytest.approx(math.sqrt(korobov1.eigenvalue(1)), rel=1e-14)

    def test_two_singletons_exhaustive_expansion(self):
        # f = zeta(x1) + zeta(x2) with ||zeta||_G^2 = 1/2 and zero mean:
        # the cross term vanishes, so ||f||_G^2 = 1/2 + 1/2 = 1.
        s = build_spectrum(custom_kernel([0.5]))
        f = AnovaFunction(d=2, terms={(1,): {(1,): 1.0}, (2,): {(1,): 1.0}})
        res = g_norm_exact(f, s, orthogonal=True)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.per_subset[(1,)] == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_wiener_rejects_orthogonal_flag(self, wiener):
        f = AnovaFunction(d=2, terms={(1,): {(1,): 1.0}})
        with pytest.raises(InvalidConfigurationError):
            g_norm_exact(f, wiener, orthogonal=True)

    def test_wiener_triangle_aggregate_is_flagged_bound(self, wiener):
        f = AnovaFunction(
            d=2, constant=0.3, terms={(1,): {(1,): 1.0}, (2,): {(2,): 0.5}}
        )
        res = g_norm_exact(f, wiener, orthogonal=False)
        assert res.is_upper_bound
        expected = 0.3 + math.sqrt(wiener.eigenvalue(1)) + 0.5 * math.sqrt(
            wiener.eigenvalue(2)
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_single_term_embedding_consistency(self, korobov1):
        # g <= c0sq^{|u|/2} * h * weight^{1/2}, equality at the top index.
        d = 6
        for k, expect_equality in (((1, 1), True), ((3, 5), False)):
            f = AnovaFunction(d=d, terms={(2, 4): {k: 0.7}})
            g = g_norm_exact(f, korobov1, orthogonal=True).value
            cap = korobov1.c0sq * math.sqrt(weight(d, (2, 4))) * h_norm(f)
            assert g <= cap * (1 + 1e-12)
            if expect_equality:
                assert g == pytest.approx(cap, rel=1e-12)

    def test_mc_agreement_single_subset_wiener(self, wiener):
        f = AnovaFunction(d=3, terms={(1, 3): {(1, 1): 0.8, (2, 1): -0.3}})
        exact = g_norm_exact(f, wiener, orthogonal=False).per_subset[(1, 3)]
        zero = AnovaFunction(d=3)
        est, se = mc_l2_error(f, zero, wiener, samples=200_000, seed=11)
        assert abs(est - exact) <= 3.0 * se


class TestEmbeddingNorms:
    def test_general_bound_d1(self):
        assert embedding_norm_bound(1, 0.5) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_special_is_one_for_small_c0sq(self):
        assert embedding_norm_special(10, 0.5) == 1.0
        assert embedding_norm_special(1, 0.9) == 1.0

    def test_special_large_c0sq(self):
        assert embedding_norm_special(2, 8.0) == pytest.approx(4.0, rel=1e-12)

    def test_bound_approaches_exponential_limit(self):
        c = 0.5
        val = embedding_norm_bound(10**6, c)
        assert val <= math.exp(c / 2.0)
        assert abs(val - math.exp(c / 2.0)) < 1e-6

    def test_bound_at_least_one(self):
        for d in (1, 10, 1000):
            assert embedding_norm_bound(d, 0.25) >= 1.0


class TestFunctional:
    def test_empty_components(self):
        assert act(Functional(frozenset({SubsetIndex((), 5)}))) == 0

    def test_union(self):
        comp = frozenset({SubsetIndex((1, 3), 5), SubsetIndex((2,), 5)})
        assert act(Functional(comp)) == 3

    def test_overlap(self):
        comp = frozenset({SubsetIndex((1, 3), 5), SubsetIndex((3,), 5)})
        assert act(Functional(comp)) == 2


class TestSerialization:
    def test_round_trip(self):
        f = AnovaFunction(
            d=4, constant=0.25, terms={(1, 3): {(2, 1): -0.5}, (2,): {(4,): 1.5}}
        )
        back = anova_from_json(anova_to_json(f))
        assert back == f

    def test_pointwise_evaluation_matches_manual(self, wiener):
        f = AnovaFunction(d=2, constant=0.1, terms={(1, 2): {(1, 2): 0.5}})
        x = np.array([[0.3, 0.7]])
        from activevars import eval_eigenfunction

        manual = 0.1 + 0.5 * eval_eigenfunction(wiener, 1, 0.3) * eval_eigenfunction(
            wiener, 2, 0.7
        )
        assert eval_pointwise(f, wiener, x)[0] == pytest.approx(manual, rel=1e-14)


analytic = st.one_of(
    st.just(build_spectrum(wiener_kernel(), 1000)),
    st.builds(
        lambda r: build_spectrum(korobov_kernel(r), 1000),
        st.floats(min_value=0.5, max_value=3.0, exclude_min=True),
    ),
)


@st.composite
def sparse_functions(draw, max_d=8, max_index=768):
    d = draw(st.integers(1, max_d))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        u = tuple(sorted(draw(st.sets(st.integers(1, d), min_size=1, max_size=min(d, 4)))))
        idx = st.integers(1, max_index)
        ks = draw(st.lists(st.tuples(*[idx] * len(u)), min_size=1, max_size=6))
        terms[u] = {k: draw(st.floats(-2.0, 2.0)) for k in ks}
    constant = draw(st.floats(-1.0, 1.0))
    return AnovaFunction(d=d, constant=constant, terms=terms, max_index=max_index)


def _scale_bound(f, s) -> float:
    """``sum |c| sqrt(2^{|u|} prod lambda)``: the size of the largest possible value."""
    return abs(f.constant) + sum(
        abs(c) * math.sqrt(2.0 ** len(u) * oracles.direct_eigen_product(s, k))
        for u, coeffs in f.terms.items()
        for k, c in coeffs.items()
    )


EDGE_POINTS = [0.0, 1.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)), 1e-12]


class TestPointwise:
    @settings(max_examples=60, deadline=None)
    @given(analytic, sparse_functions(), st.integers(0, 2**31 - 1), st.integers(1, 40))
    def test_matches_direct_evaluation(self, s, f, seed, block):
        # A block budget of a few points per block puts block boundaries
        # inside the sample.
        rng = np.random.default_rng(seed)
        x = rng.random((23, f.d))
        x[: len(EDGE_POINTS)] = np.array(EDGE_POINTS)[:, None]
        want = oracles.direct_pointwise(f, s, x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "_BLOCK_DOUBLES", block)
            got = eval_pointwise(f, s, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * _scale_bound(f, s))
        np.testing.assert_allclose(
            eval_pointwise(f, s, x), want, rtol=0, atol=1e-12 * _scale_bound(f, s)
        )

    def test_mean_function_across_block_boundaries(self, wiener):
        # At the real block budget, 4 x 768 terms fit a few hundred points.
        f = mean_function(4, wiener)
        x = np.random.default_rng(2).random((700, 4))
        x[0], x[-1] = 0.0, 1.0
        want = oracles.direct_pointwise(f, wiener, x)
        np.testing.assert_allclose(
            eval_pointwise(f, wiener, x), want, rtol=0, atol=1e-12 * _scale_bound(f, wiener)
        )

    def test_range_is_checked_on_used_coordinates_only(self, korobov1):
        f = AnovaFunction(d=3, constant=0.5, terms={(1, 3): {(2, 5): 1.0}})
        x = np.array([[0.25, 7.0, 0.75], [0.5, -3.0, 1.0]])
        np.testing.assert_allclose(
            eval_pointwise(f, korobov1, x), oracles.direct_pointwise(f, korobov1, x), atol=1e-15
        )
        for bad in ([1.5, 0.5, 0.5], [0.5, 0.5, -1e-300]):
            with pytest.raises(InvalidArgumentError):
                eval_pointwise(f, korobov1, np.array([bad]))

    def test_custom_spectra_and_shapes(self, custom_pair, korobov1):
        f = AnovaFunction(d=2, terms={(2,): {(1,): 1.0}})
        with pytest.raises(UnsupportedOperationError):
            eval_pointwise(f, custom_pair, np.zeros((3, 2)))
        constant = AnovaFunction(d=2, constant=0.25)
        np.testing.assert_array_equal(
            eval_pointwise(constant, custom_pair, np.full((3, 2), 9.0)), [0.25] * 3
        )
        with pytest.raises(InvalidArgumentError):
            eval_pointwise(f, korobov1, np.zeros((3, 3)))
