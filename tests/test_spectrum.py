"""Spectrum construction, power sums, eigenfunctions, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    KernelSpec,
    build_spectrum,
    custom_kernel,
    eval_eigenfunction,
    korobov_kernel,
    power_sum,
    spectrum_from_json,
    spectrum_to_json,
    wiener_kernel,
)
from activevars.spectrum import EigenfunctionTable, partial_power_sum
from activevars.errors import (
    DivergenceError,
    InvalidArgumentError,
    InvalidConfigurationError,
    InvalidSpectrumError,
    UnsupportedOperationError,
)

import oracles


class TestBuildSpectrum:
    def test_wiener_leading_eigenvalues(self, wiener):
        expected = [4 / math.pi**2, 4 / (9 * math.pi**2), 4 / (25 * math.pi**2)]
        np.testing.assert_allclose(wiener.leading(3), expected, rtol=1e-14)

    def test_wiener_c0sq_matches_discretized_operator(self, wiener):
        # Frozen from the eigensolver on a 10^4-point midpoint grid.
        assert abs(wiener.c0sq - 0.405285) < 1e-5
        oracle = oracles.brownian_operator_eigenvalues(n_grid=10_000, k=3)
        np.testing.assert_allclose(oracle, wiener.leading(3), rtol=1e-7)

    def test_wiener_paper_bound_keeps_eigenvalues_exact(self, wiener_half):
        assert wiener_half.c0sq == 0.5
        assert wiener_half.eigenvalue(1) == pytest.approx(4 / math.pi**2, rel=1e-15)

    def test_custom_pass_through(self):
        s = build_spectrum(custom_kernel([0.5, 0.125]))
        assert list(s.leading()) == [0.5, 0.125]
        assert s.c0sq == 0.5
        assert s.tail_bound == 0.0
        assert math.isinf(s.alpha)

    def test_korobov_multiplicity_two(self, korobov1):
        lead = korobov1.leading(4)
        assert lead[0] == lead[1] == (2 * math.pi) ** -2
        assert lead[2] == lead[3] == (4 * math.pi) ** -2
        assert korobov1.alpha == 2.0

    def test_monotone_eigenvalues(self, wiener, korobov1):
        for s in (wiener, korobov1):
            lead = s.leading(500)
            assert np.all(lead[:-1] >= lead[1:])
            assert np.all(lead > 0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            build_spectrum(wiener_kernel(), 0)
        with pytest.raises(InvalidSpectrumError):
            build_spectrum(custom_kernel([0.1, 0.5]))
        with pytest.raises(InvalidSpectrumError):
            build_spectrum(custom_kernel([0.5, -0.1]))
        with pytest.raises(InvalidArgumentError):
            KernelSpec(kind="korobov", r=0.5)
        with pytest.raises(InvalidConfigurationError):
            build_spectrum(korobov_kernel(1.0), 10, "paper_bound")

    @pytest.mark.parametrize(
        "values", [[], [math.nan], [0.5, math.nan], [math.inf, 0.5], [0.5, -math.inf]]
    )
    def test_custom_list_must_be_nonempty_positive_and_finite(self, values):
        with pytest.raises(InvalidSpectrumError):
            build_spectrum(custom_kernel(values))

    def test_density_validation(self):
        KernelSpec(kind="wiener", density=lambda x: np.full_like(x, 1.0))
        with pytest.raises(InvalidArgumentError):
            KernelSpec(kind="wiener", density=lambda x: np.full_like(x, 1.01))

    def test_only_the_uniform_density_is_accepted(self):
        # Normalised but not uniform: the eigenvalues would silently be wrong.
        with pytest.raises(InvalidConfigurationError):
            KernelSpec(kind="wiener", density=lambda x: 2.0 * x)
        KernelSpec(kind="korobov", r=1.0, density=np.ones_like)
        KernelSpec(kind="custom", eigenvalues=(0.5,), domain=(0.0, 2.0),
                   density=lambda x: np.full_like(x, 0.5))


analytic_spectra = st.one_of(
    st.builds(
        lambda r, n: build_spectrum(korobov_kernel(r), n),
        st.floats(min_value=0.5, max_value=4.0, exclude_min=True),
        st.integers(1, 2000),
    ),
    st.builds(lambda n: build_spectrum(wiener_kernel(), n), st.integers(1, 2000)),
)
custom_values = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=60
).map(lambda v: sorted(v, reverse=True))
custom_spectra = custom_values.map(lambda v: build_spectrum(custom_kernel(v)))


class TestEigenvalueTable:
    @given(s=analytic_spectra)
    @settings(max_examples=40, deadline=None)
    def test_analytic_lookups_match_the_numpy_closed_form(self, s):
        for n in range(1, s.n_eigenvalues + 2):
            assert s.eigenvalue(n) == oracles.numpy_closed_form_eigenvalue(s, n), n

    @given(values=custom_values)
    @settings(max_examples=40, deadline=None)
    def test_custom_lookup_paths_agree(self, values):
        s = build_spectrum(custom_kernel(values))
        for n, stored in enumerate(values, start=1):
            value = s.eigenvalue(n)
            assert value == stored
            assert value == s.eigenvalue(np.int64(n))
            assert value == float(s.eigenvalue(np.array([n]))[0])

    @given(s=st.one_of(analytic_spectra, custom_spectra))
    @settings(max_examples=40, deadline=None)
    def test_out_of_range_indices_raise(self, s):
        for n in (0, np.int64(0), -1):
            with pytest.raises(InvalidArgumentError):
                s.eigenvalue(n)
        if s.is_finite:
            for n in (s.n_eigenvalues + 1, np.int64(s.n_eigenvalues + 1)):
                with pytest.raises(InvalidArgumentError):
                    s.eigenvalue(n)

    @given(s=st.one_of(analytic_spectra, custom_spectra), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_eigen_product_multiplies_scalar_lookups_left_to_right(self, s, data):
        k = data.draw(st.lists(st.integers(1, s.n_eigenvalues), max_size=5))
        expected = 1.0
        for i in k:
            expected *= s.eigenvalue(i)
        assert s.eigen_product(tuple(k)) == expected

    def test_table_leaves_equality_hash_and_repr_alone(self):
        a = build_spectrum(korobov_kernel(1.0), 500)
        b = build_spectrum(korobov_kernel(1.0), 500)
        assert a == b and hash(a) == hash(b)
        assert "_table" not in repr(a)


class TestPowerSum:
    def test_nan_exponent_is_refused(self, wiener, custom_pair):
        # NaN passed `tau <= 0`, then failed inside the sum untyped.
        for s in (wiener, custom_pair):
            with pytest.raises(InvalidArgumentError):
                power_sum(s, math.nan)

    def test_wiener_trace_is_half(self, wiener):
        # Trace identity: the kernel diagonal integrates to 1/2.
        assert power_sum(wiener, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_wiener_second_power(self, wiener):
        assert power_sum(wiener, 2.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_custom_is_plain_compensated_sum(self, custom_pair):
        assert power_sum(custom_pair, 1.0) == math.fsum([0.5, 0.125])
        assert power_sum(custom_pair, 1.0) == 0.625
        # bit-for-bit reproducible
        assert power_sum(custom_pair, 2.0) == power_sum(custom_pair, 2.0)

    def test_korobov_closed_form(self, korobov1):
        # 2 (2 pi)^{-2} zeta(2) = 1/12 exactly.
        assert power_sum(korobov1, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_divergence_guard(self, wiener, korobov1, custom_pair):
        with pytest.raises(DivergenceError):
            power_sum(wiener, 0.5)
        with pytest.raises(DivergenceError):
            power_sum(korobov1, 0.5)
        assert power_sum(custom_pair, 0.25) > 0  # finite spectra take any tau > 0
        with pytest.raises(InvalidArgumentError):
            power_sum(custom_pair, 0.0)

    @pytest.mark.parametrize(
        "spectrum",
        [
            build_spectrum(korobov_kernel(0.7), 40_000),
            build_spectrum(korobov_kernel(1.0), 40_000),
            build_spectrum(korobov_kernel(2.3), 40_001),
            build_spectrum(wiener_kernel(), 10_000),
            build_spectrum(custom_kernel([0.9, 0.6, 0.6, 0.6, 0.3, 0.2, 0.2, 0.1])),
            build_spectrum(custom_kernel([0.5])),
        ],
        ids=["korobov0.7", "korobov1", "korobov2.3-odd", "wiener", "custom-runs", "custom-one"],
    )
    def test_partial_sum_is_bit_identical_to_one_power_per_eigenvalue(self, spectrum):
        for tau in (0.75, 1.0, 1.1, 1.5, 2.0, 2.5, 3.0, 7.3):
            if not spectrum.is_finite and tau <= 1.0 / spectrum.alpha:
                continue
            assert partial_power_sum(spectrum, tau) == oracles.genexpr_partial_power_sum(
                spectrum, tau
            ), tau

    def test_trace_partial_sum_convergence(self, wiener):
        n = 100_000
        partial = math.fsum(4.0 / ((2 * k - 1) ** 2 * math.pi**2) for k in range(1, n + 1))
        assert abs(partial - 0.5) <= 2e-6
        assert abs(partial - 0.5) <= 1.0 / (math.pi**2 * n) * 1.01


class TestEigenfunctions:
    def test_wiener_vanishes_at_zero(self, wiener):
        assert eval_eigenfunction(wiener, 1, 0.0) == 0.0

    def test_wiener_unit_native_norm(self, wiener):
        # The derivative energy of every eigenfunction is 1.
        for n in (1, 2, 5):
            fn = lambda x, n=n: eval_eigenfunction(wiener, n, x)
            tol = 1e-8 if n == 1 else 1e-7
            assert abs(oracles.derivative_inner_product(fn, fn) - 1.0) < tol

    def test_wiener_orthonormal_gram(self, wiener):
        fns = [
            (lambda x, n=n: eval_eigenfunction(wiener, n, x)) for n in range(1, 11)
        ]
        gram = np.array(
            [
                [oracles.derivative_inner_product(fa, fb) for fb in fns]
                for fa in fns
            ]
        )
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-6)

    def test_korobov_unit_native_norm(self, korobov1):
        for n in (1, 2, 3):
            fn = lambda x, n=n: eval_eigenfunction(korobov1, n, x)
            # For unit smoothness the native norm is the derivative energy.
            assert abs(oracles.derivative_inner_product(fn, fn) - 1.0) < 1e-7

    def test_korobov_branch_values(self, korobov1):
        lam = korobov1.eigenvalue(1)
        assert eval_eigenfunction(korobov1, 1, 0.25) == pytest.approx(0.0, abs=1e-15)
        assert eval_eigenfunction(korobov1, 2, 0.25) == pytest.approx(
            math.sqrt(2 * lam), rel=1e-14
        )

    def test_embedded_norm_equals_eigenvalue(self, wiener):
        # || zeta_n ||_L2^2 = lambda_n, checked by quadrature.
        for n in (1, 3):
            fn = lambda x, n=n: eval_eigenfunction(wiener, n, x)
            assert oracles.l2_inner_product(fn, fn) == pytest.approx(
                wiener.eigenvalue(n), rel=1e-10
            )

    def test_custom_has_no_eigenfunctions(self, custom_pair):
        with pytest.raises(UnsupportedOperationError):
            eval_eigenfunction(custom_pair, 1, 0.5)

    def test_rayleigh_quotient_below_embedding_norm(self, wiener):
        # sup ||f||_G / ||f||_H over random spans stays below sqrt(C0^2).
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            coeffs = rng.normal(size=30)

            def f(x, c=coeffs):
                out = np.zeros_like(np.asarray(x, dtype=float))
                for n, cn in enumerate(c, start=1):
                    out = out + cn * eval_eigenfunction(wiener, n, x)
                return out

            g_norm = math.sqrt(oracles.l2_inner_product(f, f))
            h_norm = math.sqrt(float(np.sum(coeffs**2)))
            worst = max(worst, g_norm / h_norm)
        assert worst <= math.sqrt(wiener.c0sq) + 1e-6


def _table(s, indices, x):
    """Table rows in index order, built in a scratch buffer full of NaNs."""
    t = EigenfunctionTable(s, indices)
    out = np.full((t.n_rows, len(x)), np.nan)
    t.fill(np.asarray(x, dtype=float), np.full(t.work_doubles * len(x), np.nan), out)
    return out[t.layout]


eigenfunction_spectra = st.one_of(
    st.just(build_spectrum(wiener_kernel(), 1000)),
    st.builds(
        lambda r: build_spectrum(korobov_kernel(r), 1000),
        st.floats(min_value=0.5, max_value=3.0, exclude_min=True),
    ),
)
EDGE_POINTS = [0.0, 1.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)), 1e-12]


class TestEigenfunctionTable:
    def _assert_matches_reference(self, s, indices, x):
        table = _table(s, indices, x)
        for row, n in zip(table, indices):
            scale = math.sqrt(2.0 * s.eigenvalue(int(n)))
            gap = np.max(np.abs(scale * row - eval_eigenfunction(s, int(n), x)))
            assert gap <= 1e-12 * scale, (s.kind, int(n), gap)

    @settings(max_examples=15, deadline=None)
    @given(eigenfunction_spectra, st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_every_row_up_to_768_matches_reference(self, s, points):
        self._assert_matches_reference(s, np.arange(1, 769), np.array(EDGE_POINTS + points))

    @settings(max_examples=40, deadline=None)
    @given(
        eigenfunction_spectra,
        st.sets(st.integers(1, 768), min_size=1, max_size=12),
        st.lists(st.floats(0.0, 1.0), max_size=40),
    )
    def test_sparse_index_sets_match_reference(self, s, indices, points):
        self._assert_matches_reference(s, np.array(sorted(indices)), np.array(EDGE_POINTS + points))

    def test_custom_spectra_have_no_table(self, custom_pair):
        with pytest.raises(UnsupportedOperationError):
            EigenfunctionTable(custom_pair, [1])


class TestSerialization:
    def test_round_trip_custom(self, custom_pair):
        text = spectrum_to_json(custom_pair)
        back = spectrum_from_json(text)
        assert back == custom_pair

    def test_round_trip_analytic(self, korobov1):
        back = spectrum_from_json(spectrum_to_json(korobov1))
        assert back == korobov1

    def test_document_fields(self, custom_pair):
        doc = json.loads(spectrum_to_json(custom_pair))
        assert doc["kind"] == "custom"
        assert doc["N"] == 2
        assert doc["eigenvalues"] == [0.5, 0.125]
        assert doc["c0sq"] == 0.5
        assert doc["alpha"] is None
        assert doc["tail_bound"] == 0.0

    def test_golden_document_is_stable(self, custom_pair):
        golden = (
            '{"N": 2, "alpha": null, "c0sq": 0.5, "eigenvalues": [0.5, 0.125],'
            ' "kind": "custom", "params": {"c0sq_mode": "exact"},'
            ' "tail_bound": 0.0}'
        )
        assert spectrum_to_json(custom_pair) == golden
