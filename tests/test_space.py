"""Function input checks, weighted-space norms, embedding lemmas, pointwise evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    AnovaFunction,
    eval_eigenfunction,
    eval_pointwise,
    g_norm_exact,
    h_norm,
    mc_l2_error,
    mean_function,
    random_function,
)
from activevars import build_spectrum, custom_kernel, korobov_kernel, space, wiener_kernel
from activevars.errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)
from activevars.spectrum import EigenfunctionTable

import oracles


class TestAnovaFunctionInput:
    # Each of these was accepted before: truncated, coerced or stored as given.
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=2.5),
            dict(d=True),
            dict(d=2, max_index=2.5),
            dict(d=2, max_index=0),
            dict(d=2, terms={(1.7,): {(1,): 0.5}}),
            dict(d=2, terms={(1,): {(1.9,): 0.5}}),
            dict(d=2, constant=math.nan),
            dict(d=2, terms={(1,): {(1,): math.inf}}),
            dict(d=2, terms={(1,): {(1,): "0.5"}}),
            dict(d=2, terms={(1,): {(1,): True}}),
            # Indices past max_index or of the wrong arity, coordinates out
            # of order or range, the empty subset, and lists for mappings.
            dict(d=2, terms={(1,): {(65,): 1.0}}),
            dict(d=2, terms={(1, 2): {(1,): 1.0}}),
            dict(d=3, terms={(2, 1): {(1, 1): 1.0}}),
            dict(d=2, terms={(0,): {(1,): 1.0}}),
            dict(d=2, terms={(3,): {(1,): 1.0}}),
            dict(d=2, terms={(): {(): 1.0}}),
            dict(d=2, terms=[((1,), {(1,): 1.0})]),
            dict(d=2, terms={(1,): [((1,), 1.0)]}),
        ],
        ids=repr,
    )
    def test_listed_inputs_are_refused(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            AnovaFunction(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        f = AnovaFunction(
            d=np.int64(3),
            constant=np.float32(0.5),
            terms={
                (np.int64(1), np.int32(3)): {(np.uint8(2), 5): np.float64(0.25)},
                (2,): {(1,): 1},
            },
            max_index=np.int16(8),
        )
        want = AnovaFunction(
            d=3, constant=0.5, terms={(1, 3): {(2, 5): 0.25}, (2,): {(1,): 1.0}}, max_index=8
        )
        assert f == want
        assert type(f.d) is int and type(f.max_index) is int and type(f.constant) is float
        for u, coeffs in f.terms.items():
            assert set(map(type, u)) == {int}
            for k, c in coeffs.items():
                assert set(map(type, k)) == {int} and type(c) is float

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_each_bad_input_is_a_typed_error(self, data):
        # A valid function with exactly one input spoiled.
        d, max_index = 3, 8
        terms = {(1,): {(2,): 0.5}, (1, 3): {(1, 4): -0.25, (8, 8): 1.0}}
        kwargs = dict(d=d, constant=0.1, terms=terms, max_index=max_index)
        not_an_integer = st.one_of(
            st.floats().filter(lambda v: not math.isfinite(v) or v != int(v)),
            st.booleans(),
            st.sampled_from([np.bool_(True), np.float64(2.0), 2.0, "2", None, b"2", 1j, (1,)]),
        )
        not_a_finite_real = st.one_of(
            st.sampled_from([math.nan, -math.inf, math.inf, np.float32("nan"), np.float64("inf")]),
            st.booleans(),
            st.sampled_from([np.bool_(False), "0.5", None, 1j, (0.5,), [0.5]]),
        )
        where = data.draw(
            st.sampled_from(["d", "max_index", "coordinate", "index", "constant", "coefficient"])
        )
        if where in ("d", "max_index"):
            kwargs[where] = data.draw(not_an_integer)
        elif where == "constant":
            kwargs[where] = data.draw(not_a_finite_real)
        else:
            bad = data.draw(not_an_integer if where != "coefficient" else not_a_finite_real)
            u, k = (1, 3), (1, 4)
            coeffs = dict(terms[u])
            if where == "coefficient":
                coeffs[k] = bad
                kwargs["terms"] = {**terms, u: coeffs}
            elif where == "index":
                coeffs[(bad, 4)] = coeffs.pop(k)
                kwargs["terms"] = {**terms, u: coeffs}
            else:
                kwargs["terms"] = {(1,): terms[(1,)], (1, bad): terms[u]}
        with pytest.raises(InvalidArgumentError):
            AnovaFunction(**kwargs)


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
        parts += [h_norm(AnovaFunction(d=d, terms={u: c})) ** 2 for u, c in f.terms.items()]
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
        one = g_norm_exact(AnovaFunction(d=2, terms={(1,): {(1,): 1.0}}), s, orthogonal=True)
        assert one.value == pytest.approx(math.sqrt(0.5), rel=1e-14)

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
        # g <= c0sq^{|u|/2} * h * d^{-|u|/2}, equality at the top index.
        d = 6
        for k, expect_equality in (((1, 1), True), ((3, 5), False)):
            f = AnovaFunction(d=d, terms={(2, 4): {k: 0.7}})
            g = g_norm_exact(f, korobov1, orthogonal=True).value
            cap = korobov1.c0sq * math.sqrt(d**-2) * h_norm(f)
            assert g <= cap * (1 + 1e-12)
            if expect_equality:
                assert g == pytest.approx(cap, rel=1e-12)

    def test_mc_agreement_single_subset_wiener(self, wiener):
        f = AnovaFunction(d=3, terms={(1, 3): {(1, 1): 0.8, (2, 1): -0.3}})
        # One subset and no constant: the triangle aggregate is that subset's exact norm.
        exact = g_norm_exact(f, wiener, orthogonal=False).value
        zero = AnovaFunction(d=3)
        est, se = mc_l2_error(f, zero, wiener, samples=200_000, seed=11)
        assert abs(est - exact) <= 3.0 * se


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_embedding_lemmas_bound_g_norm_by_h_norm(korobov1, wiener, d, seed):
    # Zero-mean korobov: subsets are orthogonal in G, and the exact norm is
    # within max(1, (C_0^2/d)^(d/2)) of the weighted norm.  Wiener: the
    # triangle bound sums the subset norms, within (1 + C_0^2/d)^(d/2) by
    # Cauchy-Schwarz over all subsets.
    f = random_function(d, korobov1, seed=seed)
    bound = oracles.mp_embedding_norm_special(d, korobov1.c0sq)
    assert g_norm_exact(f, korobov1, True).value <= bound * h_norm(f) * (1 + 1e-12)
    f = random_function(d, wiener, seed=seed)
    bound = oracles.mp_embedding_norm_bound(d, wiener.c0sq)
    assert g_norm_exact(f, wiener, False).value <= bound * h_norm(f) * (1 + 1e-12)


# h_norm's squared norm leaves double range but its norm, 1e180, does not,
# so it is summed in log space and returned; a norm past double range is
# refused.
PAST_DOUBLE_RANGE = {
    "h_norm": lambda: h_norm(
        AnovaFunction(d=10**6, terms={tuple(range(1, 61)): {(1,) * 60: 1.0}})
    ),
}


@pytest.mark.parametrize("name", PAST_DOUBLE_RANGE)
def test_values_past_double_range_are_inf_or_typed_errors(name):
    assert PAST_DOUBLE_RANGE[name]() == pytest.approx(1e180, rel=1e-12)
    # Past double range the norm itself refuses: here it is 1e360.
    f = AnovaFunction(d=10**6, terms={tuple(range(1, 121)): {(1,) * 120: 1.0}})
    with pytest.raises(UnsupportedScaleError, match="exceeds double range"):
        h_norm(f)


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


@st.composite
def mixed_functions(draw, max_index=768):
    """Functions with coordinates of two kinds, their subsets in a drawn order.

    Some coordinates are read only by their own singleton; the others are
    shared by subsets of two or more, and some of those have a singleton
    too.  A singleton may use a run of indices from 1 or a scattered set.
    """
    d = draw(st.integers(3, 8))
    coords = draw(st.permutations(range(1, d + 1)))
    split = draw(st.integers(1, d - 2))
    alone, shared = coords[:split], sorted(coords[split:])
    subsets = [(c,) for c in alone]
    groups = st.lists(st.sets(st.sampled_from(shared), min_size=2), min_size=1, max_size=3)
    subsets += [tuple(sorted(group)) for group in draw(groups)]
    subsets += [(c,) for c in sorted(draw(st.sets(st.sampled_from(shared))))]
    idx = st.integers(1, max_index)
    run = st.integers(1, 40).map(lambda m: [(i,) for i in range(1, m + 1)])
    terms = {}
    for u in draw(st.permutations(list(dict.fromkeys(subsets)))):
        scattered = st.lists(st.tuples(*[idx] * len(u)), min_size=1, max_size=6)
        ks = draw(st.one_of(run, scattered) if len(u) == 1 else scattered)
        terms[u] = {k: draw(st.floats(-2.0, 2.0)) for k in ks}
    return AnovaFunction(d=d, constant=draw(st.floats(-1.0, 1.0)), terms=terms, max_index=max_index)


def _scale_bound(f, s) -> float:
    """``sum |c| sqrt(2^{|u|} prod lambda)``: the size of the largest possible value."""
    return abs(f.constant) + sum(
        abs(c) * math.sqrt(2.0 ** len(u) * oracles.direct_eigen_product(s, k))
        for u, coeffs in f.terms.items()
        for k, c in coeffs.items()
    )


def _pointwise_atol(f, s) -> float:
    """``1e-12 * scale`` plus the standard model's absolute underflow term.

    A rounded product may also be off by half the smallest subnormal,
    whatever the size of its factors.  Each term of ``|u|`` coordinates
    takes ``|u| + 1`` products in either evaluation (the weight, the row
    products, the weighted row), and every later factor is at most 1 in
    size, so each such error reaches the sum at most whole.
    """
    products = 2 * sum((len(u) + 1) * len(coeffs) for u, coeffs in f.terms.items())
    return 1e-12 * _scale_bound(f, s) + 0.5 * products * math.ulp(0.0)


EDGE_POINTS = [0.0, 1.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)), 1e-12]


class TestPointwise:
    def test_pointwise_evaluation_matches_manual(self, wiener):
        f = AnovaFunction(d=2, constant=0.1, terms={(1, 2): {(1, 2): 0.5}})
        x = np.array([[0.3, 0.7]])
        manual = 0.1 + 0.5 * eval_eigenfunction(wiener, 1, 0.3) * eval_eigenfunction(
            wiener, 2, 0.7
        )
        assert eval_pointwise(f, wiener, x)[0] == pytest.approx(manual, rel=1e-14)

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
        np.testing.assert_allclose(got, want, rtol=0, atol=_pointwise_atol(f, s))
        np.testing.assert_allclose(
            eval_pointwise(f, s, x), want, rtol=0, atol=_pointwise_atol(f, s)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        analytic,
        mixed_functions(),
        st.integers(0, 2**31 - 1),
        st.one_of(st.integers(1, 40), st.just(space._BLOCK_DOUBLES)),
    )
    def test_singleton_only_and_shared_coordinates_match_direct_evaluation(
        self, s, f, seed, block
    ):
        # A coordinate read only by its own singleton is filled into the
        # region that every such coordinate reuses, between other subsets.
        rng = np.random.default_rng(seed)
        x = rng.random((23, f.d))
        x[: len(EDGE_POINTS)] = np.array(EDGE_POINTS)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "_BLOCK_DOUBLES", block)
            got = eval_pointwise(f, s, x)
        want = oracles.direct_pointwise(f, s, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=_pointwise_atol(f, s))

    def test_mean_function_fills_blocks_of_at_least_100_points(self, wiener, monkeypatch):
        # Each coordinate of the mean function is read only by its own
        # singleton, so a block holds one 768-row table at a time, not ten:
        # holding all ten fitted 28 points.
        widths, fill = [], EigenfunctionTable.fill

        def recording_fill(table, x, work, out):
            widths.append(len(x))
            fill(table, x, work, out)

        monkeypatch.setattr(EigenfunctionTable, "fill", recording_fill)
        x = np.random.default_rng(3).random((1000, 10))
        eval_pointwise(mean_function(10, wiener), wiener, x)
        assert sum(widths) == 10 * len(x)
        assert min(widths) >= 100

    @settings(max_examples=40, deadline=None)
    @given(analytic, st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_term_weights_keep_the_bits_of_eigen_product(self, s, l, seed):
        # Indices run past N = 1000, where the closed form takes over, and
        # coefficients into the subnormal range.
        rng = np.random.default_rng(seed)
        ks = rng.integers(1, 1500, size=(30, l))
        cs = list(rng.normal(size=30) * 10.0 ** rng.integers(-320, 3, size=30))
        want = [c * math.sqrt(2.0**l * s.eigen_product(k.tolist())) for k, c in zip(ks, cs)]
        assert space._term_weights(s, ks, cs).tolist() == want

    def test_mean_function_across_block_boundaries(self, wiener):
        # At the real block budget, 4 x 768 terms fit a few dozen points.
        f = mean_function(4, wiener)
        x = np.random.default_rng(2).random((700, 4))
        x[0], x[-1] = 0.0, 1.0
        want = oracles.direct_pointwise(f, wiener, x)
        np.testing.assert_allclose(
            eval_pointwise(f, wiener, x), want, rtol=0, atol=1e-12 * _scale_bound(f, wiener)
        )

    def test_indices_past_the_table_cap_are_refused(self, korobov1):
        # 2^63 + 5 read -1.5e-20 where the value is 3.9e-20; 2^64 + 5 ended in
        # a raw OverflowError.
        for n in (2**63 + 5, 2**64 + 5):
            f = AnovaFunction(d=1, terms={(1,): {(n,): 1.0}}, max_index=n)
            with pytest.raises(UnsupportedScaleError):
                eval_pointwise(f, korobov1, np.array([[0.3]]))

    def test_range_is_checked_on_used_coordinates_only(self, korobov1):
        f = AnovaFunction(d=3, constant=0.5, terms={(1, 3): {(2, 5): 1.0}})
        x = np.array([[0.25, 7.0, 0.75], [0.5, -3.0, 1.0]])
        np.testing.assert_allclose(
            eval_pointwise(f, korobov1, x), oracles.direct_pointwise(f, korobov1, x), atol=1e-15
        )
        for bad in ([1.5, 0.5, 0.5], [0.5, 0.5, -1e-300], [math.nan, 0.5, 0.5]):
            with pytest.raises(InvalidArgumentError):
                eval_pointwise(f, korobov1, np.array([bad]))

    def test_nan_points_are_refused(self, korobov1, wiener):
        # NaN is neither below 0 nor above 1; it must still be refused.
        f = AnovaFunction(d=2, terms={(1,): {(1,): 1.0}, (1, 2): {(2, 3): 0.5}})
        for s in (korobov1, wiener):
            for row in ([math.nan, 0.5], [0.5, math.nan]):
                x = np.array([[0.25, 0.25], row, [0.75, 0.75]])
                with pytest.raises(InvalidArgumentError):
                    eval_pointwise(f, s, x)
        # An unused coordinate is not looked at, NaN or not.
        g = AnovaFunction(d=2, terms={(2,): {(1,): 1.0}})
        np.testing.assert_allclose(
            eval_pointwise(g, korobov1, np.array([[math.nan, 0.5]])),
            oracles.direct_pointwise(g, korobov1, np.array([[0.0, 0.5]])),
            atol=1e-15,
        )
        assert eval_pointwise(g, korobov1, np.empty((0, 2))).shape == (0,)

    def test_custom_spectra_and_shapes(self, custom_pair, korobov1):
        f = AnovaFunction(d=2, terms={(2,): {(1,): 1.0}})
        with pytest.raises(InvalidConfigurationError):
            eval_pointwise(f, custom_pair, np.zeros((3, 2)))
        constant = AnovaFunction(d=2, constant=0.25)
        np.testing.assert_array_equal(
            eval_pointwise(constant, custom_pair, np.full((3, 2), 9.0)), [0.25] * 3
        )
        with pytest.raises(InvalidArgumentError):
            eval_pointwise(f, korobov1, np.zeros((3, 3)))
