"""Spectrum construction, power sums, eigenfunctions, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma, zeta

from activevars import (
    KernelSpec,
    Spectrum,
    build_spectrum,
    custom_kernel,
    eval_eigenfunction,
    korobov_kernel,
    power_sum,
    spectrum_to_json,
    wiener_kernel,
)
from activevars.spectrum import EigenfunctionTable, _hurwitz_zeta, partial_power_sum
from activevars.errors import (
    ActiveVarsError,
    DivergenceError,
    InvalidArgumentError,
    InvalidConfigurationError,
    UnsupportedScaleError,
)

import oracles


class TestBuildSpectrum:
    def test_wiener_leading_eigenvalues(self, wiener):
        expected = [4 / math.pi**2, 4 / (9 * math.pi**2), 4 / (25 * math.pi**2)]
        np.testing.assert_allclose(wiener.leading()[:3], expected, rtol=1e-14)

    def test_wiener_c0sq_matches_discretized_operator(self, wiener):
        # Frozen from the eigensolver on a 10^4-point midpoint grid.
        assert abs(wiener.c0sq - 0.405285) < 1e-5
        oracle = oracles.brownian_operator_eigenvalues(n_grid=10_000, k=3)
        np.testing.assert_allclose(oracle, wiener.leading()[:3], rtol=1e-7)

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
        lead = korobov1.leading()[:4]
        assert lead[0] == lead[1] == (2 * math.pi) ** -2
        assert lead[2] == lead[3] == (4 * math.pi) ** -2
        assert korobov1.alpha == 2.0

    def test_monotone_eigenvalues(self, wiener, korobov1):
        for s in (wiener, korobov1):
            lead = s.leading()[:500]
            assert np.all(lead[:-1] >= lead[1:])
            assert np.all(lead > 0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            build_spectrum(wiener_kernel(), 0)
        with pytest.raises(InvalidArgumentError):
            build_spectrum(custom_kernel([0.1, 0.5]))
        with pytest.raises(InvalidArgumentError):
            build_spectrum(custom_kernel([0.5, -0.1]))
        with pytest.raises(InvalidArgumentError):
            KernelSpec(kind="korobov", r=0.5)
        with pytest.raises(InvalidConfigurationError):
            build_spectrum(korobov_kernel(1.0), 10, "paper_bound")

    @pytest.mark.parametrize(
        "values", [[], [math.nan], [0.5, math.nan], [math.inf, 0.5], [0.5, -math.inf]]
    )
    def test_custom_list_must_be_nonempty_positive_and_finite(self, values):
        with pytest.raises(InvalidArgumentError):
            build_spectrum(custom_kernel(values))

    def test_custom_eigenvalues_must_be_numbers(self):
        # float() turned True into 1.0 and "0.5" into 0.5.
        with pytest.raises(InvalidArgumentError):
            build_spectrum(custom_kernel([True, "0.5"]))
        with pytest.raises(InvalidArgumentError):
            custom_kernel([0.5, np.bool_(True)])
        with pytest.raises(InvalidArgumentError):
            custom_kernel(0.5)
        s = build_spectrum(custom_kernel([1, np.int64(1), 0.5, np.float32(0.25)]))
        assert s.table().tolist() == [1.0, 1.0, 0.5, 0.25]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KernelSpec(kind="korobov", r=math.inf),
            lambda: KernelSpec(kind="korobov", r="2"),
            lambda: korobov_kernel("2"),
            lambda: korobov_kernel(True),
            lambda: build_spectrum(wiener_kernel(), 5.5),
            lambda: build_spectrum(wiener_kernel(), True),
            lambda: build_spectrum(korobov_kernel(1.0), "10"),
        ],
        ids=[
            "r-inf", "r-str", "korobov-kernel-str", "korobov-kernel-bool", "n-float",
            "n-bool", "n-str",
        ],
    )
    def test_malformed_kernel_inputs_raise_typed_errors(self, make):
        # At the parent these built an all-zero spectrum (r = inf), accepted
        # True as N = 1, or raised a raw TypeError.
        with pytest.raises(InvalidArgumentError):
            make()

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: Spectrum(custom_kernel([0.1, 0.5]), 2), InvalidArgumentError),
            (lambda: Spectrum(KernelSpec(kind="korobov", r=0.2), 10), InvalidArgumentError),
            (lambda: Spectrum(wiener_kernel(), 10, "nonsense"), InvalidArgumentError),
            (lambda: Spectrum(custom_kernel([0.5]), 3), InvalidArgumentError),
            (lambda: Spectrum(KernelSpec(kind="korobov"), 10), InvalidArgumentError),
            (lambda: Spectrum(korobov_kernel(1.0), 10, "paper_bound"), InvalidConfigurationError),
            (lambda: Spectrum("wiener", 10), InvalidArgumentError),
            (lambda: Spectrum(wiener_kernel(), np.True_), InvalidArgumentError),
            (lambda: KernelSpec(kind="wiener", r=3), InvalidArgumentError),
            (lambda: KernelSpec(kind="custom", r=1.0, eigenvalues=(0.5,)), InvalidArgumentError),
            (lambda: KernelSpec(kind="wiener", eigenvalues=(0.5,)), InvalidArgumentError),
            (lambda: KernelSpec(kind="korobov", r=1.0, eigenvalues=(0.5,)), InvalidArgumentError),
            (lambda: korobov_kernel(10**400), InvalidArgumentError),
            (lambda: build_spectrum(korobov_kernel(100.0), 10_000), UnsupportedScaleError),
            (lambda: build_spectrum(custom_kernel([0.5]), "10"), InvalidArgumentError),
            (lambda: build_spectrum(custom_kernel([0.5]), 0), InvalidArgumentError),
        ],
        ids=[
            "increasing", "r-0.2", "mode", "custom-n", "korobov-no-r", "paper-korobov",
            "kernel-str", "n-numpy-bool", "wiener-r", "custom-r", "wiener-values",
            "korobov-values", "r-huge-int", "lambda-n-underflows", "custom-n-str",
            "custom-n-0",
        ],
    )
    def test_direct_constructions_are_refused(self, make, error):
        # At the parent, Spectrum(kind, N, c0sq_mode, r, _custom) built an
        # increasing spectrum, a negative korobov tail bound and a spectrum in
        # mode "nonsense", and raised raw IndexError and TypeError; KernelSpec
        # kept an unused r or list, build_spectrum built wiener from a kernel
        # with eigenvalues, korobov_kernel(10**400) raised OverflowError and
        # korobov r = 100 tabulated zeros from lambda_13 on.
        with pytest.raises(error):
            make()

    def test_spectrum_holds_its_kernel(self):
        spec = korobov_kernel(np.float64(1.5))
        s = Spectrum(spec, np.int64(30))
        assert s == build_spectrum(spec, 30)
        assert (s.kernel, s.kind, s.r, s.n_eigenvalues) == (spec, "korobov", 1.5, 30)
        assert type(s.n_eigenvalues) is int
        custom = build_spectrum(custom_kernel([0.5, 0.25]), 7)
        assert custom == Spectrum(custom_kernel([0.5, 0.25]), 2)
        assert (custom.r, custom.kernel.eigenvalues) == (None, (0.5, 0.25))

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["wiener", "korobov", "custom", "Wiener", "", None]),
        r=st.one_of(
            st.none(),
            st.floats(0.5, 4.0),
            st.floats(),
            st.integers(-2, 300),
            st.sampled_from([True, "2", np.float64(1.5), 10**400]),
        ),
        values=st.one_of(
            st.none(),
            st.lists(st.floats(1e-300, 4.0), min_size=1, max_size=6).map(
                lambda v: sorted(v, reverse=True)
            ),
            st.lists(
                st.one_of(st.floats(), st.integers(-1, 2), st.sampled_from([True, "0.5"])),
                max_size=6,
            ),
            st.sampled_from([0.5, "0.5"]),
        ),
        n=st.one_of(
            st.integers(-2, 300),
            st.sampled_from([np.int64(7), True, 2.0, "10", None]),
        ),
        mode=st.sampled_from(["exact", "paper_bound", "paper", None]),
        direct=st.booleans(),
    )
    @example(kind="custom", r=None, values=[0.1, 0.5], n=2, mode="exact", direct=True)
    @example(kind="korobov", r=0.2, values=None, n=10, mode="exact", direct=True)
    @example(kind="wiener", r=None, values=None, n=10, mode="nonsense", direct=True)
    @example(kind="custom", r=None, values=[0.5], n=3, mode="exact", direct=True)
    @example(kind="korobov", r=None, values=None, n=10, mode="exact", direct=True)
    @example(kind="wiener", r=3, values=None, n=10, mode="exact", direct=False)
    @example(kind="wiener", r=None, values=[0.5], n=5, mode="exact", direct=False)
    @example(kind="korobov", r=150, values=None, n=300, mode="exact", direct=False)
    def test_every_input_builds_a_valid_table_or_raises_typed(
        self, kind, r, values, n, mode, direct
    ):
        try:
            spec = KernelSpec(kind=kind, r=r, eigenvalues=values)
            s = Spectrum(spec, n, mode) if direct else build_spectrum(spec, n, mode)
        except ActiveVarsError:
            return
        table = s.table().tolist()
        assert type(s.n_eigenvalues) is int and len(table) == s.n_eigenvalues >= 1
        assert all(0.0 < v < math.inf for v in table)
        assert all(a >= b for a, b in zip(table, table[1:]))
        assert s.kernel is spec and s.kind == kind and s.c0sq_mode == mode
        assert s.c0sq == (0.5 if mode == "paper_bound" else table[0])
        assert mode == "exact" or kind == "wiener"
        if kind == "custom":
            assert r is None
            assert table == [float(v) for v in values]
            assert (s.tail_bound, s.alpha, spec.zero_mean) == (0.0, math.inf, None)
        else:
            assert values is None and s.n_eigenvalues == n
            assert 0.0 <= s.tail_bound < math.inf
        if kind == "wiener":
            assert r is None and s.alpha == 2.0 and spec.zero_mean is False
        if kind == "korobov":
            assert 0.5 < s.r < math.inf and s.r == float(r) and s.alpha == 2.0 * s.r
            assert spec.zero_mean is True

    def test_integer_like_inputs_are_accepted(self):
        assert build_spectrum(wiener_kernel(), np.int64(7)).n_eigenvalues == 7
        assert type(build_spectrum(wiener_kernel(), np.int64(7)).n_eigenvalues) is int
        assert korobov_kernel(np.float64(1.5)).r == 1.5
        assert korobov_kernel(2).r == 2.0


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

    @given(s=st.one_of(analytic_spectra, custom_spectra))
    @example(s=build_spectrum(korobov_kernel(1.0), 100))
    @settings(max_examples=40, deadline=None)
    def test_every_lookup_returns_the_table_bits(self, s):
        # leading(), array lookups and the JSON list used numpy's vectorized
        # power, which differs from the table on 2 of korobov:1's first 100.
        table = s.table().tolist()
        n = s.n_eigenvalues
        assert s.leading().tolist() == table
        assert s.eigenvalue(np.arange(1, n + 1)).tolist() == table
        assert [s.eigenvalue(np.int64(k)) for k in range(1, n + 1)] == table
        document = spectrum_to_json(s)
        assert json.loads(document)["eigenvalues"] == table
        if not s.is_finite:
            past = np.arange(max(1, n - 2), n + 40)
            assert s.eigenvalue(past).tolist() == [s.eigenvalue(int(k)) for k in past]

    @pytest.mark.parametrize(
        "spectrum",
        [
            build_spectrum(wiener_kernel(), 10),
            build_spectrum(korobov_kernel(1.0), 10),
            build_spectrum(custom_kernel([0.5, 0.25, 0.125])),
        ],
        ids=["wiener", "korobov", "custom"],
    )
    def test_non_integer_indices_are_refused(self, spectrum):
        # wiener gave 1/pi^2 for 1.5, korobov gave lambda_1 for True, 1.5 and
        # 2.0, custom raised a raw IndexError and every kind a numpy error on "3".
        for n in (True, np.True_, 1.5, np.float64(2.0), "3", [1.0, 2.0], None):
            with pytest.raises(InvalidArgumentError):
                spectrum.eigenvalue(n)
        assert spectrum.eigenvalue(np.uint8(2)) == spectrum.eigenvalue(2)

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

    def test_a_power_past_double_range_is_inf(self):
        assert power_sum(build_spectrum(custom_kernel([1e300, 1.0])), 2.0) == math.inf

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

    @pytest.mark.parametrize("tau", [math.inf, 1e308])
    def test_huge_exponents_give_the_limit(self, tau, wiener, korobov1):
        # The Hurwitz zeta tail computed inf * 0 in its Euler-Maclaurin
        # step, so both analytic kinds returned NaN.
        assert power_sum(wiener, tau) == 0.0
        assert power_sum(korobov1, tau) == 0.0
        assert power_sum(build_spectrum(custom_kernel([1.0, 1.0, 0.5])), tau) == 2.0

    @pytest.mark.parametrize(
        "kernel", [wiener_kernel(), korobov_kernel(1.0)], ids=["wiener", "korobov1"]
    )
    def test_tail_bound_is_within_4_ulps_of_40_digit_values(self, kernel):
        # tail_bound is the closed form rounded to nearest, on either side of
        # the exact tail, and power_sum adds the same tail.  The worst N of
        # a 291-point sample up to 4e4 was 2.4 ulps (wiener) and 2.9
        # (korobov).
        rng = np.random.default_rng(19)
        ns = list(range(1, 21)) + rng.integers(21, 40_001, 20).tolist() + [10_000, 40_000]
        for n in ns:
            s = build_spectrum(kernel, n)
            exact = oracles.mp_first_tail(kernel.kind, n)
            assert abs(s.tail_bound - exact) <= 4 * math.ulp(float(exact)), n
            assert power_sum(s, 1.0) == partial_power_sum(s, 1.0) + s.tail_bound, n

    def test_trace_partial_sum_convergence(self, wiener):
        n = 100_000
        partial = math.fsum(4.0 / ((2 * k - 1) ** 2 * math.pi**2) for k in range(1, n + 1))
        assert abs(partial - 0.5) <= 2e-6
        assert abs(partial - 0.5) <= 1.0 / (math.pi**2 * n) * 1.01


def _shifts(lo: float, hi: float):
    """Floats in ``[lo, hi]``, integers and half-integers among them drawn explicitly."""
    whole = st.integers(math.ceil(lo), math.floor(hi) - 1)
    return st.one_of(
        st.floats(lo, hi),
        whole.map(float),
        whole.map(lambda n: n + 0.5),
    )



class TestHurwitzZeta:
    """``_hurwitz_zeta`` gives the bits of ``scipy.special.zeta``, the routine it ports."""

    @settings(max_examples=500, deadline=None)
    @given(s=st.floats(1.0, 64.0, exclude_min=True), q=_shifts(1.0, 1e10))
    def test_matches_scipy(self, s, q):
        assert _hurwitz_zeta(s, q) == float(zeta(s, q))

    @settings(max_examples=200, deadline=None)
    @given(x=_shifts(1.0, 1e10))
    def test_trigamma_matches_scipy_polygamma(self, x):
        assert _hurwitz_zeta(2.0, x) == float(polygamma(1, x))

    def test_exponents_past_overflow_give_the_limit(self):
        # scipy (and the C routine) return NaN here: the rising factorials of
        # s in the Euler-Maclaurin terms overflow, and inf * 0 is NaN.
        for s in (1e13, 1e308, math.inf):
            for q in (1.5, 2.0, 9.5, 1e6, 1e9):
                assert _hurwitz_zeta(s, q) == 0.0, (s, q)
            assert _hurwitz_zeta(s, 1.0) == 1.0

    def test_matches_scipy_on_every_caller_shape(self):
        # power_sum's tails: (2 r tau, k + 1 | k + 2) for korobov after N or
        # N + 1 terms, (2 tau, N + 1/2) for wiener; the trigamma tail of
        # build_spectrum is (2, N + 1/2).
        ns = list(range(1, 201)) + [10_000, 40_000, 2_000_000]
        exponents = [2 * r * tau for r in (0.7, 1.0, 2.3) for tau in (0.75, 1.0, 1.5, 2.0, 7.3)]
        exponents += [2 * tau for tau in (0.75, 1.0, 1.1, 2.0)]
        shifts = sorted(
            {n // 2 + 1.0 for n in ns} | {n // 2 + 2.0 for n in ns} | {n + 0.5 for n in ns}
        )
        s, q = (a.ravel() for a in np.meshgrid(exponents, shifts))
        ours = np.array([_hurwitz_zeta(a, b) for a, b in zip(s.tolist(), q.tolist())])
        assert np.array_equal(ours, zeta(s, q))

    # Not on all of the domain above.  The ported routine's own error grows
    # with s: up to 8.8e-16 for s <= 8, 1.5e-15 for s in (8, 16] and 4e-15
    # near s = 64 (20,000 and 3,000 random samples).  Its q > 1e8 branch
    # also truncates the asymptotic series, at relative error about
    # s (s - 1) / (12 q^2).  s = 2 r tau <= 8 covers korobov r = 1 and the
    # wiener kernel up to tau = 4.
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(1.0, 8.0, exclude_min=True), q=_shifts(1.0, 1e10))
    def test_within_1e_15_of_mpmath(self, s, q):
        truncation = s * (s - 1.0) / (12.0 * q * q) if q > 1e8 else 0.0
        exact = oracles.mp_hurwitz_zeta(s, q)
        assert abs(_hurwitz_zeta(s, q) - exact) <= (1e-15 + truncation) * exact


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

    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan], -0.1, 1.5, math.inf])
    def test_points_outside_the_domain_raise(self, wiener, korobov1, x):
        for s in (wiener, korobov1):
            with pytest.raises(InvalidArgumentError):
                eval_eigenfunction(s, 1, x)

    def test_custom_has_no_eigenfunctions(self, custom_pair):
        with pytest.raises(InvalidConfigurationError):
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

    @pytest.mark.parametrize("kind", ["wiener", "korobov"])
    def test_rows_up_to_768_are_within_4e_13_of_40_digit_values(self, kind):
        # Over the edge points and 40 seeded sets of 40 random points, the
        # worst row is off by 2.574e-13 (korobov, n = 765, and wiener,
        # n = 767, both at the point 0.9850 included here).  Squaring doubles
        # a seed's error at each step: from z alone, with no second seed at
        # z^64, wiener n = 767 was off by 3.77e-13 at 0.7110.
        s = build_spectrum(wiener_kernel() if kind == "wiener" else korobov_kernel(1.0), 1000)
        worst = [0.25, 0.5, 0.7109844457407125, 0.9849849877499477]
        x = np.array(EDGE_POINTS + worst + list(np.random.default_rng(1).random(24)))
        indices = np.arange(1, 769)
        table = _table(s, indices, x)
        want = np.array(
            [[oracles.mp_unscaled_eigenfunction(kind, int(n), p) for p in x] for n in indices]
        )
        assert np.max(np.abs(table - want)) <= 2.6e-13

    @pytest.mark.parametrize("kind", ["wiener", "korobov"])
    def test_indices_up_to_2_32_hold_n_ulps_and_larger_are_refused(self, kind):
        # Row n is within about n ulps (measured 1.2 n ulps at 2^20 .. 2^45).
        # Past 2^50 squaring no longer keeps |z^m| near 1: at 2^62 a wiener
        # row read -5e83.
        s = build_spectrum(wiener_kernel() if kind == "wiener" else korobov_kernel(1.0), 100)
        x = np.random.default_rng(4).random(12)
        for n in (2**20 + 1, 2**32):
            want = [oracles.mp_unscaled_eigenfunction(kind, n, p) for p in x]
            assert np.max(np.abs(_table(s, [n], x)[0] - want)) <= 3 * n * 2.0**-52
        for n in (2**32 + 1, 2**62, 2**63 + 5, 2**70):
            with pytest.raises(UnsupportedScaleError):
                EigenfunctionTable(s, [1, n])

    def test_custom_spectra_have_no_table(self, custom_pair):
        with pytest.raises(InvalidConfigurationError):
            EigenfunctionTable(custom_pair, [1])


class TestSerialization:
    def test_document_holds_the_custom_list(self):
        values = [0.9, 0.6, 0.6, 0.1]
        doc = json.loads(spectrum_to_json(build_spectrum(custom_kernel(values))))
        assert doc["eigenvalues"] == values
        assert (doc["kind"], doc["N"], doc["params"]) == ("custom", 4, {"c0sq_mode": "exact"})

    def test_document_holds_the_analytic_table(self, korobov1):
        wiener_half = build_spectrum(wiener_kernel(), 50, "paper_bound")
        for s, params in (
            (korobov1, {"c0sq_mode": "exact", "r": 1.0}),
            (wiener_half, {"c0sq_mode": "paper_bound"}),
        ):
            doc = json.loads(spectrum_to_json(s))
            assert doc["eigenvalues"] == s.table().tolist()
            assert len(doc["eigenvalues"]) == doc["N"] == s.n_eigenvalues
            assert (doc["kind"], doc["params"]) == (s.kind, params)
            assert (doc["c0sq"], doc["alpha"], doc["tail_bound"]) == (
                s.c0sq,
                s.alpha,
                s.tail_bound,
            )

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
