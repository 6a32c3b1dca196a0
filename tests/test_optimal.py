"""Tensor eigenvalue streams against exhaustive enumeration, and the
spectral algorithm built on them."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from activevars import (
    CostModel,
    EnumerationCapError,
    TensorEigenStream,
    build_spectrum,
    complexity_curve,
    custom_kernel,
    korobov_kernel,
    optimal_algorithm,
    orthogonal_truncation_level,
    power_sum,
)
from activevars import optimal
from activevars.spectrum import Spectrum, _exp_or_inf
from activevars.errors import (
    CertificationError,
    InvalidArgumentError,
    InvalidConfigurationError,
    TailCertificateError,
)

import oracles


def drain_distinct(stream):
    out = []
    while True:
        try:
            de = stream.next_eigenvalue()
        except StopIteration:
            return out
        out.append((de.value, de.multiplicity))


def count_above(epsilon, d, spectrum):
    """Tensor eigenvalues above ``epsilon^2``, with multiplicity: the per-subset counts summed."""
    return optimal._total_count(d, optimal._cardinality_counts(epsilon, d, spectrum))


def stream_power_sum(d, spectrum, tau):
    """``sum multiplicity * value^tau`` over the whole stream of a finite spectrum."""
    return math.fsum(e.multiplicity * e.value**tau for e in TensorEigenStream(d, spectrum))


class TestStream:
    def test_reference_sequence(self, custom_pair):
        stream = TensorEigenStream(2, custom_pair)
        got = [stream.next_eigenvalue() for _ in range(5)]
        assert [(g.value, g.multiplicity) for g in got] == [
            (1.0, 1),
            (0.25, 2),
            (0.0625, 3),
            (0.015625, 2),
            (0.00390625, 1),
        ]
        # the merged value 0.0625 combines a deep index with a pair of low ones
        assert got[2].labels == ((2,), (1, 1))

    def test_first_value_is_always_one(self, custom_quad, korobov1):
        for d in (1, 2, 7):
            for s in (custom_quad, korobov1):
                entry = next(TensorEigenStream(d, s))
                assert entry.value == 1.0
                assert entry.indices == () and entry.cardinality == 0
                assert entry.multiplicity == 1

    def test_d1_stream_is_the_univariate_sequence(self, custom_quad):
        stream = TensorEigenStream(1, custom_quad)
        values = [e.value for e in stream]
        assert values == [1.0, 0.5, 0.25, 0.125, 0.0625]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "lams",
        [
            (0.5, 0.125),
            (0.5, 0.25, 0.125, 0.0625),
            (0.5, 0.5, 0.25),  # repeated eigenvalue
        ],
    )
    def test_equals_exhaustive_enumeration(self, d, lams):
        s = build_spectrum(custom_kernel(lams))
        got = drain_distinct(TensorEigenStream(d, s))
        assert got == oracles.exhaustive_tensor_values(d, lams)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(values=st.lists(st.sampled_from(("d", 1.0, 0.5, 0.25, 0.125)), min_size=1, max_size=4))
    @example(values=[0.5, 0.25, 0.125, 0.0625])
    @settings(max_examples=40, deadline=None)
    def test_label_multiplicities_match_brute_force(self, d, values):
        # Powers of two tie products across labels, repeated values tie
        # labels of one cardinality, and lambda_1 = d ("d") gives a label's
        # extension by index 1 its parent's value: the seen-set must still
        # visit each label once.
        lams = sorted((d if v == "d" else v for v in values), reverse=True)
        s = build_spectrum(custom_kernel(lams))
        want = oracles.exhaustive_label_multiplicities(d, lams)
        got = {}
        for entry in TensorEigenStream(d, s):
            assert entry.indices not in got
            got[entry.indices] = entry.multiplicity
        assert got == want

    def test_multiplicity_conservation(self, custom_quad):
        for d in (1, 2, 3):
            total = sum(e.multiplicity for e in TensorEigenStream(d, custom_quad))
            n = custom_quad.n_eigenvalues
            assert total == sum(
                math.comb(d, l) * n**l for l in range(d + 1)
            )

    def test_equal_values_emitted_by_cardinality_then_indices(self, custom_pair):
        entries = list(TensorEigenStream(2, custom_pair))
        labels = [e.indices for e in entries]
        # Plain tuple order would put (1, 1) first.
        assert labels.index((2,)) < labels.index((1, 1))
        for a, b in zip(entries, entries[1:]):
            if a.value == b.value:
                assert (a.cardinality, a.indices) < (b.cardinality, b.indices)

    @given(
        d=st.integers(1, 3),
        exponents=st.lists(
            st.integers(1, 12), min_size=1, max_size=4, unique=True
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_emission_everywhere(self, d, exponents):
        lams = tuple(sorted((2.0**-e for e in exponents), reverse=True))
        s = build_spectrum(custom_kernel(lams))
        values = [e.value for e in TensorEigenStream(d, s)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert drain_distinct(TensorEigenStream(d, s)) == (
            oracles.exhaustive_tensor_values(d, lams)
        )

    def test_rejects_dominating_eigenvalue(self):
        s = build_spectrum(custom_kernel([3.0]))
        with pytest.raises(InvalidConfigurationError):
            TensorEigenStream(2, s)

    def test_visited_labels_are_capped(self, korobov1, monkeypatch):
        # A cap equal to the labels a sweep visits lets it finish; one less
        # refuses it instead of growing the seen-set past the cap.
        stream = TensorEigenStream(5, korobov1)
        count = 0
        for entry in stream:
            if entry.value <= 1e-4:
                break
            count += entry.multiplicity
        visited = len(stream._seen)
        assert visited > 20
        monkeypatch.setattr(optimal, "ENUMERATION_CAP", visited)
        assert count_above(0.01, 5, korobov1) == count
        monkeypatch.setattr(optimal, "ENUMERATION_CAP", visited - 1)
        with pytest.raises(EnumerationCapError, match="memory"):
            count_above(0.01, 5, korobov1)


# Exact ties (repeated values, powers of two) and float-split ties: 0.3 and
# the next double above it, and 0.1 * 0.3 against 0.03, differ in the last bit.
TIED_VALUES = (1.0, 0.5, 0.25, 0.125, 0.3, math.nextafter(0.3, 1.0), 0.1, 0.03)


class TestSharedStep:
    """``_step`` feeds three readers: the entries, the distinct values, the counts."""

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 4),
        values=st.lists(st.sampled_from(TIED_VALUES), min_size=1, max_size=4),
        eps=st.one_of(st.floats(0.01, 1.0), st.sampled_from((0.5, 0.25, 0.125 ** 0.5))),
    )
    @example(d=2, values=[0.5, 0.5, 0.125], eps=0.25)
    @example(d=3, values=[0.3, math.nextafter(0.3, 1.0), 0.1, 0.03], eps=0.02)
    def test_readers_agree_with_brute_force(self, d, values, eps):
        lams = sorted(values, reverse=True)
        s = build_spectrum(custom_kernel(lams))
        counts = optimal._cardinality_counts(eps, d, s)
        totals = [math.comb(d, l) * n for l, n in enumerate(counts)]
        assert totals == oracles.exhaustive_cardinality_counts(d, lams, eps * eps)
        entries = list(TensorEigenStream(d, s))
        for e in entries:
            assert e.multiplicity == math.comb(d, e.cardinality) * oracles.arrangement_count(
                e.indices
            )
        merged = []
        for e in entries:
            if merged and merged[-1][0] == e.value:
                _, total, labels = merged.pop()
                merged.append((e.value, total + e.multiplicity, labels + (e.indices,)))
            else:
                merged.append((e.value, e.multiplicity, (e.indices,)))
        stream, classes = TensorEigenStream(d, s), []
        while True:
            try:
                de = stream.next_eigenvalue()
            except StopIteration:
                break
            classes.append((de.value, de.multiplicity, de.labels))
        assert classes == merged


class TestLookupParity:
    """Each visited label costs one ``eigen_product``, and nothing else looks values up.

    ``Spectrum.eigenvalue`` calls are then the visited labels' summed
    lengths plus fixed lookups: ``lambda_1`` in the ``lambda_1 <= d`` check
    and, for a demand, ``lambda_{N+1}`` of the tail certificate.
    """

    @pytest.fixture
    def recorder(self, monkeypatch):
        calls = {"eigenvalue": 0, "products": Counter(), "streams": []}
        eigenvalue, eigen_product = Spectrum.eigenvalue, Spectrum.eigen_product

        def counted_eigenvalue(self, n):
            calls["eigenvalue"] += 1
            return eigenvalue(self, n)

        def counted_product(self, indices):
            calls["products"][indices] += 1
            return eigen_product(self, indices)

        class RecordedStream(optimal.TensorEigenStream):
            def __init__(self, *args):
                super().__init__(*args)
                calls["streams"].append(self)

        monkeypatch.setattr(Spectrum, "eigenvalue", counted_eigenvalue)
        monkeypatch.setattr(Spectrum, "eigen_product", counted_product)
        monkeypatch.setattr(optimal, "TensorEigenStream", RecordedStream)
        return calls

    @staticmethod
    def check(calls, fixed):
        (stream,) = calls["streams"]
        visited = stream._seen - {()}
        assert set(calls["products"]) == visited
        assert set(calls["products"].values()) == {1}
        assert calls["eigenvalue"] == sum(map(len, visited)) + fixed
        calls.update(eigenvalue=0, products=Counter(), streams=[])

    @pytest.mark.parametrize("d", [2, 5, 10])
    @pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3])
    def test_demand_readers(self, recorder, korobov1, d, eps):
        optimal_algorithm(eps, d, korobov1)
        self.check(recorder, fixed=2)
        optimal._cardinality_counts(eps, d, korobov1)
        self.check(recorder, fixed=2)

    def test_distinct_value_sweep(self, recorder, korobov1):
        stream = optimal.TensorEigenStream(3, korobov1)
        for _ in range(300):
            stream.next_eigenvalue()
        self.check(recorder, fixed=1)


class TestAbove:
    def test_yields_the_prefix_above_the_demand(self, custom_quad):
        full = list(TensorEigenStream(2, custom_quad))
        for eps_sq in (0.9, 0.3, 0.1, 0.01):
            stream = TensorEigenStream(2, custom_quad)
            got = list(stream.above(math.sqrt(eps_sq)))
            assert got == full[: len(got)]
            assert all(e.value > eps_sq for e in got)
            # The entry it stopped at was popped and its value recorded.
            assert stream.first_excluded == full[len(got)].value <= eps_sq
            assert next(stream) == full[len(got) + 1]

    def test_exhausted_stream_records_zero(self, custom_pair):
        stream = TensorEigenStream(1, custom_pair)
        assert [e.value for e in stream.above(1e-3)] == [1.0, 0.5, 0.125]
        assert stream.first_excluded == 0.0

    def test_uncertified_demand_is_refused(self):
        shallow = build_spectrum(korobov_kernel(1.0), 10)
        with pytest.raises(TailCertificateError):
            next(TensorEigenStream(2, shallow).above(1e-6))


class TestEigencount:
    def test_reference_point(self, custom_pair):
        assert count_above(math.sqrt(0.1), 2, custom_pair) == 3

    def test_only_the_constant_exceeds_a_loose_demand(self, custom_pair, korobov1):
        eps = math.sqrt(1.0 - 1e-12)
        assert count_above(eps, 2, custom_pair) == 1
        assert count_above(eps, 5, korobov1) == 1

    def test_matches_exhaustive_count(self, custom_quad):
        lams = list(custom_quad.leading())
        for d in (1, 2, 3):
            grouped = oracles.exhaustive_tensor_values(d, lams)
            for eps_sq in (0.9, 0.3, 0.1, 0.01, 1e-4):
                want = sum(cnt for v, cnt in grouped if v > eps_sq)
                assert count_above(math.sqrt(eps_sq), d, custom_quad) == want

    def test_closed_form_cap(self, korobov1):
        # n <= ceil(e^{L(tau) d^{1-tau}} eps^{-2 tau}) - 1 at tau = 1.
        ltau = power_sum(korobov1, 1.0)
        for d in (1, 2, 10, 50):
            for eps in (0.5, 0.1, 0.01):
                n = count_above(eps, d, korobov1)
                cap = math.ceil(math.exp(ltau) * eps**-2.0) - 1
                assert n <= cap

    def test_term_bound_is_a_ceiling_of_its_50_digit_value(self):
        # The float bound rounded to nearest fell below the 50-digit value of
        # e^{L d^(1-tau)} eps^(-2 tau) by up to 1.4e-14 relative, about half
        # of the time.  Rounded up, both the cap and n_cap = ceil(cap) - 1
        # are ceilings, within 1e-11 of the value.
        s = build_spectrum(korobov_kernel(1.0), 200)
        rng = np.random.default_rng(3)
        for tau in rng.uniform(0.51, 3.0, size=40):
            ltau = power_sum(s, float(tau))
            for _ in range(50):
                d = int(10 ** rng.uniform(0, 6))
                eps = float(10 ** rng.uniform(-6, 0))
                cap = _exp_or_inf(optimal._log_term_bound(eps, d, ltau, float(tau)))
                if cap == math.inf:
                    continue
                want = oracles.mp_term_bound(eps, d, ltau, float(tau))
                assert want <= cap <= want * (1 + 1e-11), (eps, d, ltau, tau)
                assert math.ceil(cap) - 1 >= int(oracles.mp.ceil(want)) - 1

    def test_tail_certificate_refusal(self):
        s = build_spectrum(custom_kernel([0.5, 0.125]))
        assert s.tail_bound == 0.0  # finite spectra never refuse
        shallow = build_spectrum(
            __import__("activevars").korobov_kernel(1.0), 10
        )
        with pytest.raises(TailCertificateError):
            count_above(1e-6, 2, shallow)


class TestOptimalAlgorithm:
    def test_reference_point(self, custom_pair):
        alg = optimal_algorithm(math.sqrt(0.1), 2, custom_pair)
        assert alg.n_terms == 3
        assert alg.worst_case_error == 0.25
        assert alg.max_act == 1

    def test_empty_algorithm_boundary(self, custom_pair):
        alg = optimal_algorithm(1.0, 2, custom_pair)
        assert alg.n_terms == 0
        assert alg.worst_case_error == 1.0
        assert alg.max_act == 0

    def test_worst_case_error_is_next_value(self, custom_quad):
        lams = list(custom_quad.leading())
        for d in (1, 2, 3):
            grouped = oracles.exhaustive_tensor_values(d, lams)
            flat = [v for v, cnt in grouped for _ in range(cnt)]
            for eps_sq in (0.3, 0.1, 0.01):
                alg = optimal_algorithm(math.sqrt(eps_sq), d, custom_quad)
                if alg.n_terms < len(flat):
                    assert alg.worst_case_error == math.sqrt(flat[alg.n_terms])

    def test_fewer_terms_cannot_reach_the_demand(self, custom_quad):
        # Spectral characterization: dropping the last retained value leaves
        # a worst-case error above the demand.
        eps = math.sqrt(0.1)
        alg = optimal_algorithm(eps, 2, custom_quad)
        values = [e.value for e in alg.entries for _ in range(e.multiplicity)]
        assert math.sqrt(values[-1]) > eps

    def test_exhausted_spectrum_reaches_zero_error(self, custom_pair):
        alg = optimal_algorithm(1e-3, 1, custom_pair)
        assert alg.n_terms == 3
        assert alg.worst_case_error == 0.0

    def test_a_truncated_stream_that_runs_out_reports_the_next_eigenvalue(self):
        # korobov:1 at N = 2 and d = 1 keeps both eigenvalues above 0.08^2
        # and runs out; the error read 0 there, and sqrt(lambda_3) at N = 3.
        short, longer = (build_spectrum(korobov_kernel(1.0), n) for n in (2, 3))
        want = math.sqrt(longer.eigenvalue(3))
        assert optimal_algorithm(0.08, 1, short).worst_case_error == want
        assert optimal_algorithm(0.08, 1, longer).worst_case_error == want

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.sampled_from([0.75, 1.0, 2.0]),
        d=st.integers(1, 4),
        n=st.integers(1, 30),
        extra=st.integers(1, 30),
        scale=st.floats(1.0, 3.0),
    )
    def test_certified_answers_do_not_depend_on_n(self, r, d, n, extra, scale):
        # Every label with an index past N is worth at most lambda_{N+1}/d,
        # which the singleton (N+1,) attains; a stream that ran out or
        # stopped below it reported a smaller worst-case error than a
        # longer spectrum.  Demands just above the certificate find it.
        shallow = build_spectrum(korobov_kernel(r), n)
        eps = min(1.0, math.sqrt(shallow.eigenvalue(n + 1) / d) * scale)
        assume(eps * eps >= shallow.eigenvalue(n + 1) * (1.0 / d))  # certified at N
        got, want = (
            optimal_algorithm(eps, d, s)
            for s in (shallow, build_spectrum(korobov_kernel(r), n + extra))
        )
        assert got.n_terms == want.n_terms
        assert got.entries == want.entries
        assert got.worst_case_error == want.worst_case_error

    def test_rescaled_demand(self, custom_pair):
        assert (
            optimal_algorithm(0.5, 2, custom_pair, c_const=4.0).n_terms
            == optimal_algorithm(0.25, 2, custom_pair).n_terms
        )

    def test_orthogonality_constant_below_one_or_nan_is_refused(self, custom_pair):
        # NaN passed `c_const < 1` and gave a NaN demand: entries were still
        # printed, and `optimal --tau` ended in a ValueError from math.ceil.
        for c_const in (0.5, math.nan):
            with pytest.raises(InvalidArgumentError):
                optimal_algorithm(0.5, 2, custom_pair, c_const=c_const)

    def test_active_variable_ceiling(self, korobov1):
        for d in (2, 10, 100):
            for eps in (0.1, 0.01, 1e-3):
                alg = optimal_algorithm(eps, d, korobov1)
                ceiling = orthogonal_truncation_level(eps, d, korobov1.c0sq, 1.0)
                assert alg.max_act <= ceiling
                assert alg.m2_ceiling == ceiling

    def test_ceiling_is_decided_from_the_demand_and_the_constant(self, korobov1):
        # Both callers decide m2 as bounds does, from eps and C, not from
        # eps / sqrt(C) with C = 1.
        constant = CostModel(family="constant")
        for c_const in (1.5, 2.0):
            for d in (2, 10, 100):
                for eps in (0.1, 0.01):
                    want = orthogonal_truncation_level(eps, d, korobov1.c0sq, c_const)
                    alg = optimal_algorithm(eps, d, korobov1, c_const=c_const)
                    rep = complexity_curve(korobov1, c_const, constant, [eps], [d])
                    assert alg.m2_ceiling == rep.points[0].m2_ceiling == want

    def test_a_broken_ceiling_is_refused_by_both_callers(self, korobov1, monkeypatch):
        # One function computes m2 for the spectral algorithm and for every
        # priced complexity point; a ceiling of 0 under retained pairs must
        # fail both.
        monkeypatch.setattr(optimal, "orthogonal_truncation_level", lambda *args: 0)
        with pytest.raises(CertificationError, match="above m2"):
            optimal_algorithm(0.1, 2, korobov1)
        with pytest.raises(CertificationError, match="above m2"):
            complexity_curve(korobov1, 1.0, CostModel(family="constant"), [0.1], [2])

    def test_wiener_is_rejected(self, wiener):
        with pytest.raises(InvalidConfigurationError):
            optimal_algorithm(0.1, 2, wiener)


class TestPowerSumIdentity:
    # The exhaustive stream sum against (1 + L(tau)/d^tau)^d at 50 digits.
    def test_reference_instance(self, custom_pair):
        lhs = stream_power_sum(2, custom_pair, 1.0)
        rhs = oracles.mp_power_sum_identity(2, power_sum(custom_pair, 1.0), 1.0)
        assert lhs == 1.0 + 0.625 + 0.09765625
        assert float(rhs) == pytest.approx(1.72265625, rel=1e-15)

    def test_d1_reduces_to_univariate_sum(self, custom_quad):
        lhs = stream_power_sum(1, custom_quad, 1.0)
        rhs = oracles.mp_power_sum_identity(1, power_sum(custom_quad, 1.0), 1.0)
        assert lhs == pytest.approx(1.0 + power_sum(custom_quad, 1.0), rel=1e-15)
        assert float(rhs) == pytest.approx(lhs, rel=1e-15)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_for_finite_spectra(self, custom_quad, d, tau):
        rhs = oracles.mp_power_sum_identity(d, power_sum(custom_quad, tau), tau)
        assert stream_power_sum(d, custom_quad, tau) == pytest.approx(float(rhs), rel=1e-12)

    def test_divergence_witness_grows_without_bound(self, korobov1):
        # Sub-unit exponents make the closed form blow up with dimension.
        tau = 0.75
        ltau = power_sum(korobov1, tau)
        rhs = [oracles.mp_power_sum_identity(d, ltau, tau) for d in (10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(rhs, rhs[1:]))
        d = 10
        while d <= 10_000:
            assert oracles.mp_power_sum_identity(
                2 * d, ltau, tau
            ) > oracles.mp_power_sum_identity(d, ltau, tau)
            d *= 2


class TestDecayBound:
    # Streamed values against e^(L(tau) d^(1-tau)/tau) k^(-1/tau) at 50 digits.
    def test_first_eigenvalue_bounded_by_one(self, custom_pair, korobov1):
        for s in (custom_pair, korobov1):
            first = next(TensorEigenStream(5, s)).value
            for tau in (1.0, 2.0):
                bound = oracles.mp_decay_bound(5, 1, power_sum(s, tau), tau)
                assert first == 1.0 <= bound

    def test_dominates_streamed_values(self, custom_pair):
        ltau = power_sum(custom_pair, 1.0)
        k = 0
        for entry in TensorEigenStream(2, custom_pair):
            for _ in range(entry.multiplicity):
                k += 1
                assert entry.value <= oracles.mp_decay_bound(2, k, ltau, 1.0)

    def test_dominates_korobov_prefix(self, korobov1):
        # Same inequality, with the prefactor hoisted out of the loop.
        prefactor = float(oracles.mp_decay_bound(8, 1, power_sum(korobov1, 1.0), 1.0))
        stream = TensorEigenStream(8, korobov1)
        k = 0
        for entry in stream:
            if k >= 10_000:
                break
            k_next = min(k + entry.multiplicity, 10_000)
            # value <= prefactor / k for every rank in the block; the
            # binding case is the first rank.
            assert entry.value <= prefactor / (k + 1)
            k = k_next

    def test_exponential_prefactor_settles_for_tau_at_least_one(self, korobov1):
        ltau = power_sum(korobov1, 1.0)
        for d in (1, 10, 100, 1000):
            pref = math.exp(ltau * d ** (1.0 - 1.0) / 1.0)
            assert pref <= math.exp(ltau) + 1e-15
        # tau > 1: the prefactor approaches 1 from above
        p_small = math.exp(power_sum(korobov1, 2.0) * 1000 ** (1.0 - 2.0) / 2.0)
        assert 1.0 < p_small < 1.001
