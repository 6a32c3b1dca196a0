"""Truncation levels: exact tails, minimality, majorants, monotonicity."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    AnovaFunction,
    binomial_tail,
    build_plan,
    build_spectrum,
    custom_kernel,
    factorial_majorant,
    g_norm_exact,
    h_norm,
    orthogonal_level_bound,
    orthogonal_truncation_level,
    random_function,
    truncation_level,
)
from activevars import truncation
from activevars.errors import InvalidArgumentError, UnsupportedScaleError

import oracles

WIENER_C0SQ_SHARP = 4.0 / math.pi**2


class TestBinomialTail:
    def test_single_term(self):
        assert binomial_tail(1, 0, 0.5) == 0.5

    def test_empty_sum(self):
        assert binomial_tail(7, 7, 0.5) == 0.0
        assert binomial_tail(1000, 1000, 0.25) == 0.0

    def test_against_high_precision_oracle(self):
        # Frozen from the 50-digit oracle.
        assert binomial_tail(10, 3, 0.5) == pytest.approx(
            0.0013946267774414027, rel=1e-13
        )
        for d, m, c in [(10, 3, 0.5), (100, 5, 0.5), (1000, 4, WIENER_C0SQ_SHARP), (3, 0, 2.5)]:
            assert binomial_tail(d, m, c) == pytest.approx(
                oracles.mp_binomial_tail(d, m, c), rel=1e-12
            )

    @given(
        d=st.integers(1, 60),
        m=st.integers(0, 60),
        c0sq=st.floats(0.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_everywhere(self, d, m, c0sq):
        m = min(m, d)
        assert binomial_tail(d, m, c0sq) == pytest.approx(
            oracles.mp_binomial_tail(d, m, c0sq), rel=1e-11, abs=1e-300
        )


class TestLargeC0sq:
    # Above C_0^2 ~ 709 the largest tail terms leave double range.  Each
    # such term exceeds every eps^2, so levels stay exact.

    def test_tails_beyond_double_range_are_inf(self):
        assert binomial_tail(2000, 10, 1000.0) == math.inf
        assert oracles.mp_binomial_tail(2000, 10, 1000.0) == math.inf
        # Every term is finite here, but their sum is not.
        assert binomial_tail(10**6, 0, 712.0) == math.inf

    def test_level_matches_the_oracle(self):
        rep = truncation_level(0.1, 5000, 800.0)
        assert rep.level == 1775
        assert oracles.mp_binomial_tail(5000, rep.level, 800.0) <= 0.01
        assert oracles.mp_binomial_tail(5000, rep.level - 1, 800.0) > 0.01
        assert rep.tail_at_level == pytest.approx(
            oracles.mp_binomial_tail(5000, rep.level, 800.0), rel=1e-9
        )

    def test_level_at_large_dimension_is_certified(self):
        rep = truncation_level(0.1, 10**6, 1000.0)
        assert rep.tail_at_level <= 0.01 < rep.tail_above_level
        assert binomial_tail(10**6, rep.level, 1000.0) == rep.tail_at_level

    def test_plan_refuses_a_budget_beyond_double_range(self):
        with pytest.raises(UnsupportedScaleError):
            build_plan(0.1, 5000, build_spectrum(custom_kernel([800.0, 1.0])))


class TestTruncationLevel:
    def test_loose_demand_needs_no_interactions(self):
        rep = truncation_level(0.8, 1, 0.5)
        assert rep.level == 0
        assert rep.tail_at_level == 0.5
        assert rep.tail_above_level is None

    def test_reference_point(self):
        rep = truncation_level(0.1, 10, 0.5)
        assert rep.level == 3
        assert rep.tail_at_level == pytest.approx(1.3946267774414027e-3, rel=1e-12)
        assert rep.tail_above_level == pytest.approx(1.6394626777441402e-2, rel=1e-12)

    def test_whole_sum_within_demand(self):
        # (1 + c/d)^d - 1 <= eps^2 means zero interactions are needed.
        d, c = 10, 0.04
        total = binomial_tail(d, 0, c)
        eps = math.sqrt(total * 1.01)
        assert truncation_level(eps, d, c).level == 0

    @given(
        eps=st.floats(1e-9, 0.99),
        d=st.integers(1, 200),
        c0sq=st.floats(0.05, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimality_certificate(self, eps, d, c0sq):
        rep = truncation_level(eps, d, c0sq)
        assert rep.tail_at_level <= eps * eps
        if rep.level > 0:
            assert rep.tail_above_level > eps * eps
        assert 0 <= rep.level <= d

    def test_monotone_in_eps(self):
        levels = [truncation_level(10.0**-q, 50, 0.5).level for q in range(1, 9)]
        assert levels == sorted(levels)

    @given(
        d=st.one_of(st.integers(2, 200), st.integers(201, 10**6)),
        c0sq=st.floats(0.0253, 30.0),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_the_ascending_scan(self, d, c0sq, data):
        # Half the demands sit on a term or a tail, where a level is decided
        # by its last bit.
        eps = data.draw(st.floats(1e-12, 0.99), label="eps")
        if data.draw(st.booleans(), label="on a term or tail"):
            terms = truncation._tail_terms(d, c0sq)
            m = data.draw(st.integers(0, len(terms) - 1), label="m")
            edge = data.draw(st.sampled_from([terms[m], binomial_tail(d, m, c0sq)]), label="edge")
            if 0.0 < edge < 0.98:
                eps = math.sqrt(edge)
        assert truncation_level(eps, d, c0sq) == oracles.ascending_truncation_level(eps, d, c0sq)

    def test_deep_level_matches_the_ascending_scan(self):
        # Level 1,775 of 5,000 terms: the ascending scan re-sums the tail at
        # every level below it, the library starts at the last term above eps^2.
        rep = truncation_level(0.1, 5000, 800.0)
        assert rep == oracles.ascending_truncation_level(0.1, 5000, 800.0)
        assert rep.level == 1775


class TestFactorialMajorant:
    def test_reference_ceilings(self):
        # ceil(M) at eps = 10^-1, 10^-4, 10^-10 with c0sq = 1/2.
        assert math.ceil(factorial_majorant(1e-1, 0.5)) == 3
        assert math.ceil(factorial_majorant(1e-4, 0.5)) == 8
        assert math.ceil(factorial_majorant(1e-10, 0.5)) == 17

    def test_root_matches_mpmath(self):
        for eps in (1e-2, 1e-5, 1e-8):
            assert factorial_majorant(eps, 0.5) == pytest.approx(
                oracles.mp_factorial_root(eps, 0.5), abs=2e-9
            )

    def test_majorant_dominates_level(self):
        # level <= min(d, ceil(M)) across the full grid, both constants.
        for c0sq in (0.5, WIENER_C0SQ_SHARP):
            ceilings = {
                q: math.ceil(factorial_majorant(10.0**-q, c0sq)) for q in range(1, 11)
            }
            refined = {
                q: int(factorial_majorant(10.0**-q, c0sq, refined=True))
                for q in range(1, 11)
            }
            for d in range(1, 1001):
                for q in range(1, 11):
                    level = truncation_level(10.0**-q, d, c0sq).level
                    assert level <= min(d, ceilings[q])
                    assert level <= min(d, refined[q])

    def test_refined_never_much_larger(self):
        observed = []
        for c0sq in (0.5, WIENER_C0SQ_SHARP):
            for q in range(1, 11):
                eps = 10.0**-q
                plain = math.ceil(factorial_majorant(eps, c0sq))
                refined = factorial_majorant(eps, c0sq, refined=True)
                assert refined <= plain + 1
                observed.append((c0sq, q, plain, int(refined)))
        # log observed pairs for inspection under -s
        print("\nmajorant (c0sq, q, ceil, refined):", observed)

    def test_refined_reproduces_reference_row(self):
        got = [int(factorial_majorant(10.0**-q, 0.5, refined=True)) for q in range(1, 11)]
        assert got == [3, 5, 7, 8, 10, 11, 13, 14, 15, 17]

    def test_refined_equals_the_linear_scan(self):
        # 200 values of c0sq over seven decades, each at ten demands.
        epsilons = [10.0**-q for q in range(1, 11)]
        for i in range(200):
            c0sq = 0.01 * 10.0 ** (7 * i / 199)
            got = [factorial_majorant(eps, c0sq, refined=True) for eps in epsilons]
            assert got == oracles.refined_majorant_scan(epsilons, c0sq), c0sq

    def test_refined_returns_for_huge_c0sq(self):
        # A linear scan from c0sq takes ~1.7 c0sq steps, and never ends at 1e17.
        start = time.perf_counter()
        big_m = factorial_majorant(0.1, 1e17, refined=True)
        assert time.perf_counter() - start < 1.0
        assert big_m + 1 > 1e17


class TestOrthogonalLevel:
    def test_reference_point(self):
        assert orthogonal_truncation_level(0.1, 10, 0.5, 1.0) == 1

    def test_small_dimension_branch(self):
        # d < c0sq forces the geometric ratio above 1, so the full product
        # always exceeds eps^2/C and every interaction order is kept.
        assert orthogonal_truncation_level(0.5, 2, 3.0, 1.0) == 2
        for eps in (0.1, 0.9, 0.999):
            assert orthogonal_truncation_level(eps, 1, 1.5, 1.0) == 1

    def test_zero_when_first_power_suffices(self):
        # eps^2 >= C c0sq / d makes k = 0 admissible.
        assert orthogonal_truncation_level(0.3, 10, 0.5, 1.0) == 0

    def test_minimality_against_direct_scan(self):
        for eps in (0.1, 0.01, 1e-4):
            for d in (1, 2, 7, 40):
                for c in (0.4, 0.5, 1.0):
                    for big_c in (1.0, 2.0):
                        got = orthogonal_truncation_level(eps, d, c, big_c)
                        thr = eps * eps / big_c
                        ratio = c / d
                        if ratio < 1.0:
                            want = 0
                            while ratio ** (want + 1) > thr and want < d:
                                want += 1
                            assert got == want
                        else:
                            assert got in (0, d)

    def test_monotone_in_dimension(self):
        for d in (10, 20, 50, 100, 500):
            assert orthogonal_truncation_level(
                0.01, 2 * d, 0.5, 1.0
            ) <= orthogonal_truncation_level(0.01, d, 0.5, 1.0)

    def test_monotone_in_eps(self):
        lv = [orthogonal_truncation_level(10.0**-q, 100, 0.5, 1.0) for q in range(1, 9)]
        assert lv == sorted(lv)


class TestOrthogonalLevelBound:
    def test_direct_formula(self):
        assert orthogonal_level_bound(0.1, 0.5, 1.0) == pytest.approx(
            math.log(100.0), rel=1e-14
        )

    def test_loose_demand_limit(self):
        assert orthogonal_level_bound(1.0 - 1e-12, 0.5, 1.0) == pytest.approx(
            0.5 * math.e, rel=1e-9
        )

    def test_bound_in_range_with_an_out_of_range_factor(self):
        # e^(1/delta) = e^750 leaves double range, the bound does not.
        got = orthogonal_level_bound(0.1, 1e-300, 1.0 / 750.0)
        assert got == pytest.approx(math.exp(math.log(1e-300) + 750.0), rel=1e-12)
        assert got == pytest.approx(5.258494541454928e25, rel=1e-12)

    def test_bound_beyond_double_range_is_refused(self):
        with pytest.raises(UnsupportedScaleError):
            orthogonal_level_bound(0.1, 0.5, 1e-3)

    def test_dominates_level_on_grid(self):
        lam = 0.5
        for delta in (0.25, 0.5, 1.0, 2.0):
            for q in range(1, 9):
                eps = 10.0**-q
                bound = orthogonal_level_bound(eps, lam, delta)
                for d in (1, 2, 5, 10, 50, 100, 500, 1000):
                    assert orthogonal_truncation_level(eps, d, lam, 1.0) <= bound


class TestTruncationCorrectness:
    def test_discarded_interactions_are_small_in_embedded_norm(self, korobov1):
        # || sum_{|u| > level} f_u ||_G <= eps || same ||_H, exactly in basis.
        for seed in range(10):
            for eps in (0.3, 0.05, 0.01):
                d = 6
                level = truncation_level(eps, d, korobov1.c0sq).level
                f = random_function(d, korobov1, seed=seed, sparsity=8, max_card=d)
                tail_terms = {u: c for u, c in f.terms.items() if len(u) > level}
                if not tail_terms:
                    continue
                tail = AnovaFunction(d=d, terms=tail_terms, max_index=f.max_index)
                g = g_norm_exact(tail, korobov1, orthogonal=True).value
                assert g <= eps * h_norm(tail) * (1.0 + 1e-12)

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            truncation_level(0.0, 5, 0.5)
        with pytest.raises(InvalidArgumentError):
            truncation_level(1.0, 5, 0.5)
        with pytest.raises(InvalidArgumentError):
            binomial_tail(5, 6, 0.5)
        for c_const in (0.5, math.nan):
            with pytest.raises(InvalidArgumentError):
                orthogonal_truncation_level(0.1, 5, 0.5, c_const)
