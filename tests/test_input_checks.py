"""Scalar inputs at the public entry points: one rule per kind of input.

Integers (``d``, ``m``, ``k``, grid dimensions, harness counts) are Python
or numpy integers, and ``bool`` is not one; ``c0sq`` and stream thresholds
are finite positive reals; a demand ``epsilon`` is a real in ``(0, 1)``
(``(0, 1]`` for ``optimal_algorithm`` and ``orthogonal_truncation_level``); the orthogonality constant is a
finite real ``>= 1``; ``tau`` is a positive real; a cost's ``q`` lies in
``[0, inf)`` and its ``c`` in ``[1, inf)``.  Anything else raises
:class:`InvalidArgumentError`.  A refusal names the range: ``spectrum._count``
for integers, ``spectrum._real`` for reals.
"""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    CostModel,
    TensorEigenStream,
    binomial_tail,
    build_plan,
    build_spectrum,
    complexity_curve,
    custom_kernel,
    eval_cost,
    eval_eigenfunction,
    eval_pointwise,
    factorial_majorant,
    korobov_kernel,
    mc_l2_error,
    mean_function,
    optimal_algorithm,
    orthogonal_truncation_level,
    power_sum,
    random_function,
    single_subset_function,
    truncation_level,
    wiener_kernel,
)
from activevars.cost import log_eval_cost
from activevars.errors import InvalidArgumentError

S = build_spectrum(korobov_kernel(1.0), 200)
CUSTOM = build_spectrum(custom_kernel([0.9, 0.5, 0.2]), 3)
WIENER = build_spectrum(wiener_kernel(), 200)
EXP = CostModel(family="exponential", q=1.0)
F = single_subset_function(2, (1,), (1,))
ZERO = single_subset_function(2, (1,), (1,), value=0.0)
nan, inf = math.nan, math.inf

# Each call gave a wrong answer or raised a raw TypeError, ValueError or
# OverflowError before it was checked.
LISTED = {
    # Silently wrong results.
    "truncation_level(0.1, 5, nan)": lambda: truncation_level(0.1, 5, nan),
    "factorial_majorant(0.1, nan)": lambda: factorial_majorant(0.1, nan),
    "orthogonal_truncation_level(0.1, 2.5, 0.5)": lambda: orthogonal_truncation_level(0.1, 2.5, 0.5),
    "truncation_level(0.1, True, 0.5)": lambda: truncation_level(0.1, True, 0.5),
    "TensorEigenStream(True, s)": lambda: TensorEigenStream(True, S),
    "binomial_tail(5, True, 0.5)": lambda: binomial_tail(5, True, 0.5),
    "orthogonal_truncation_level(0.1, 5, 0.5, True)": (
        lambda: orthogonal_truncation_level(0.1, 5, 0.5, True)
    ),
    # Raw exceptions.
    "binomial_tail(5, 1.5, 0.5)": lambda: binomial_tail(5, 1.5, 0.5),
    "binomial_tail(2.5, 1, 0.5)": lambda: binomial_tail(2.5, 1, 0.5),
    "orthogonal_truncation_level(0.1, 5, 0.0)": lambda: orthogonal_truncation_level(0.1, 5, 0.0),
    "orthogonal_truncation_level(0.1, 5, nan)": lambda: orthogonal_truncation_level(0.1, 5, nan),
    "orthogonal_truncation_level(0.1, 5, 0.5, inf)": (
        lambda: orthogonal_truncation_level(0.1, 5, 0.5, inf)
    ),
    "factorial_majorant(0.1, inf)": lambda: factorial_majorant(0.1, inf),
    "truncation_level(0.1, 5, '0.5')": lambda: truncation_level(0.1, 5, "0.5"),
    "build_plan(0.1, 2.5, s)": lambda: build_plan(0.1, 2.5, S),
    "optimal_algorithm(0.1, 2.5, s)": lambda: optimal_algorithm(0.1, 2.5, S),
    # Demands, constants, exponents, grids, cost parameters and harness
    # counts.  Silently wrong results:
    "complexity_curve(s, 1, m, [0.1, 0.05], [2.5, 3])": (
        lambda: complexity_curve(S, 1, EXP, [0.1, 0.05], [2.5, 3])
    ),
    "complexity_curve(s, 1, m, [0.1, 0.05], [True, 3])": (
        lambda: complexity_curve(S, 1, EXP, [0.1, 0.05], [True, 3])
    ),
    "complexity_curve(s, 1, m, ['0.1', '0.05'], [2, 3])": (
        lambda: complexity_curve(S, 1, EXP, ["0.1", "0.05"], [2, 3])
    ),
    "optimal_algorithm(True, 3, s)": lambda: optimal_algorithm(True, 3, S),
    "TensorEigenStream(2, custom).above(nan)": (
        lambda: list(TensorEigenStream(2, CUSTOM).above(nan))
    ),
    "TensorEigenStream(2, custom).require_certified(nan)": (
        lambda: TensorEigenStream(2, CUSTOM).require_certified(nan)
    ),
    "power_sum(s, True)": lambda: power_sum(S, True),
    "CostModel(family='exponential', q=True)": lambda: CostModel(family="exponential", q=True),
    "CostModel(family='exponential', q=1, c=5)": (
        lambda: CostModel(family="exponential", q=1, c=5)
    ),
    "CostModel(family='linear_floor', q=3)": lambda: CostModel(family="linear_floor", q=3),
    "CostModel(family='constant', q=2)": lambda: CostModel(family="constant", q=2),
    "eval_cost(m, 1.5)": lambda: eval_cost(EXP, 1.5),
    "eval_cost(m, True)": lambda: eval_cost(EXP, True),
    # Misleading typed errors.
    "optimal_algorithm(0.1, 3, s, c_const=inf)": (
        lambda: optimal_algorithm(0.1, 3, S, c_const=inf)
    ),
    "complexity_curve(s, inf, m, [0.1, 0.05], [2, 3])": (
        lambda: complexity_curve(S, inf, EXP, [0.1, 0.05], [2, 3])
    ),
    # Raw exceptions.
    "truncation_level('0.1', 5, 0.5)": lambda: truncation_level("0.1", 5, 0.5),
    "build_plan('0.1', 3, s)": lambda: build_plan("0.1", 3, S),
    "optimal_algorithm(0.1, 3, s, c_const='2')": (
        lambda: optimal_algorithm(0.1, 3, S, c_const="2")
    ),
    "power_sum(s, '2')": lambda: power_sum(S, "2"),
    "CostModel(family='exponential', q='1')": lambda: CostModel(family="exponential", q="1"),
    "mc_l2_error(f, approx, s, samples=2.5)": lambda: mc_l2_error(F, ZERO, S, samples=2.5),
    "random_function(2.5, s, seed=1)": lambda: random_function(2.5, S, seed=1),
    "complexity_curve(s, 1.0, m, 0.1, [2])": lambda: complexity_curve(S, 1.0, EXP, 0.1, [2]),
    "complexity_curve(s, 1.0, m, [0.1], 2)": lambda: complexity_curve(S, 1.0, EXP, [0.1], 2),
    "eval_pointwise(f, s, [['a']])": lambda: eval_pointwise(F, S, [["a"]]),
    # A numpy broadcast ValueError and a TypeError from comparing "a" with 1.
    "eval_pointwise(f, s, np.zeros((2, 3, 4)))": lambda: eval_pointwise(F, S, np.zeros((2, 3, 4))),
    "eval_eigenfunction(s, 'a', 0.3)": lambda: eval_eigenfunction(S, "a", 0.3),
    "single_subset_function(3, (1,))": lambda: single_subset_function(3, (1,)),
    "single_subset_function(3, (1,), ('a',))": lambda: single_subset_function(3, (1,), ("a",)),
    # A k that does not match u was silently dropped.
    "single_subset_function(3, (), (1,))": lambda: single_subset_function(3, (), (1,)),
    # Integers outside their range; RANGE holds the range each message names.
    "binomial_tail(5, -1, 0.5)": lambda: binomial_tail(5, -1, 0.5),
    "binomial_tail(5, 6, 0.5)": lambda: binomial_tail(5, 6, 0.5),
    "mc_l2_error(f, approx, s, samples=1)": lambda: mc_l2_error(F, ZERO, S, samples=1),
    "eval_cost(m, -1)": lambda: eval_cost(EXP, -1),
    # Seeds and bounds of the seeded generators.  numpy raised ValueError or
    # TypeError, seed=None drew fresh entropy, and mean_function(0, s) warned
    # of a division by zero before its typed error.
    "random_function(3, s, seed=-1)": lambda: random_function(3, S, seed=-1),
    "random_function(3, s, seed=1.5)": lambda: random_function(3, S, seed=1.5),
    "random_function(3, s, seed=None)": lambda: random_function(3, S, seed=None),
    "mc_l2_error(f, approx, s, seed=-1)": lambda: mc_l2_error(F, ZERO, S, seed=-1),
    "mean_function(0, wiener)": lambda: mean_function(0, WIENER),
    "mean_function('a', wiener)": lambda: mean_function("a", WIENER),
}
RANGE = {
    "binomial_tail(5, -1, 0.5)": "m must lie in [0, 5]",
    "binomial_tail(5, 6, 0.5)": "m must lie in [0, 5]",
    "mc_l2_error(f, approx, s, samples=1)": "samples must be at least 2",
    "eval_cost(m, -1)": "active-variable count must be at least 0",
    "eval_pointwise(f, s, np.zeros((2, 3, 4)))": "points must be a 2-D array",
    "eval_eigenfunction(s, 'a', 0.3)": "eigenfunction index must be integers",
    "random_function(3, s, seed=-1)": "seed must be at least 0",
    "mc_l2_error(f, approx, s, seed=-1)": "seed must be at least 0",
    "mean_function(0, wiener)": "d must be at least 1",
}


@pytest.mark.parametrize("call", LISTED)
def test_listed_inputs_are_refused(call):
    match = re.escape(RANGE[call]) if call in RANGE else None
    with pytest.raises(InvalidArgumentError, match=match):
        LISTED[call]()


# Every real range is one checker, spectrum._real, whose refusal names the
# interval with its open and closed ends.
INTERVALS = {
    "truncation_level(1.0, 5, 0.5)": (
        lambda: truncation_level(1.0, 5, 0.5), "epsilon must lie in (0, 1)"
    ),
    "optimal_algorithm(1.5, 3, s)": (
        lambda: optimal_algorithm(1.5, 3, S), "epsilon must lie in (0, 1]"
    ),
    "binomial_tail(5, 2, inf)": (lambda: binomial_tail(5, 2, inf), "c0sq must lie in (0, inf)"),
    "orthogonal_truncation_level(0.1, 5, 0.5, 0.5)": (
        lambda: orthogonal_truncation_level(0.1, 5, 0.5, 0.5), "c_const must lie in [1, inf)"
    ),
    "power_sum(s, 0)": (lambda: power_sum(S, 0), "tau must lie in (0, inf]"),
    "TensorEigenStream(2, s).above(-1)": (
        lambda: list(TensorEigenStream(2, S).above(-1)), "epsilon must lie in (0, inf)"
    ),
    "korobov_kernel(0.5)": (
        lambda: korobov_kernel(0.5), "korobov smoothness r must lie in (0.5, inf)"
    ),
    "CostModel(family='exponential', q=-1)": (
        lambda: CostModel(family="exponential", q=-1), "q must lie in [0, inf)"
    ),
    "CostModel(family='polynomial', q=inf)": (
        lambda: CostModel(family="polynomial", q=inf), "q must lie in [0, inf)"
    ),
    "CostModel(family='linear_floor', c=0.5)": (
        lambda: CostModel(family="linear_floor", c=0.5), "c must lie in [1, inf)"
    ),
    "CostModel(family='linear_floor', c=nan)": (
        lambda: CostModel(family="linear_floor", c=nan), "c must lie in [1, inf)"
    ),
}


@pytest.mark.parametrize("call", INTERVALS)
def test_real_refusals_name_the_interval(call):
    run, message = INTERVALS[call]
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        run()


# Each entry point with valid arguments; the named ones are the integers
# and the C_0^2 values a spoiled input replaces.
ENTRY_POINTS = {
    "binomial_tail": (lambda d=5, m=2, c0sq=0.5: binomial_tail(d, m, c0sq)),
    "truncation_level": (lambda d=5, c0sq=0.5: truncation_level(0.1, d, c0sq)),
    "factorial_majorant": (lambda c0sq=0.5: factorial_majorant(0.1, c0sq)),
    "orthogonal_truncation_level": (
        lambda d=5, c0sq=0.5: orthogonal_truncation_level(0.1, d, c0sq)
    ),
    "TensorEigenStream": (lambda d=3: next(TensorEigenStream(d, S))),
    "optimal_algorithm": (lambda d=3: optimal_algorithm(0.3, d, S)),
    "build_plan": (lambda d=3: build_plan(0.3, d, S)),
}
INTEGER_ARGS = ("d", "m")

not_an_integer = st.one_of(
    st.floats(),
    st.booleans(),
    st.sampled_from([np.bool_(True), np.float64(2.0), 2.0, "2", None, b"2", 1j, (2,)]),
)
not_a_finite_positive_real = st.one_of(
    st.floats(max_value=0.0),
    st.sampled_from([nan, inf, -inf, np.float32("nan"), np.float64("inf")]),
    st.booleans(),
    st.sampled_from([np.bool_(True), "0.5", None, 1j, (0.5,), [0.5]]),
)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_inputs_run(name):
    ENTRY_POINTS[name]()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_each_spoiled_input_is_a_typed_error(data):
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)))
    entry = ENTRY_POINTS[name]
    arg = data.draw(st.sampled_from(list(inspect.signature(entry).parameters)))
    bad = data.draw(not_an_integer if arg in INTEGER_ARGS else not_a_finite_positive_real)
    with pytest.raises(InvalidArgumentError):
        entry(**{arg: bad})


def test_numpy_scalars_are_accepted_and_stored_as_python_numbers():
    rep = truncation_level(0.1, np.int64(5), np.float32(0.5))
    assert rep == truncation_level(0.1, 5, 0.5)
    assert type(rep.level) is int and type(rep.tail_at_level) is float
    assert binomial_tail(np.int32(5), np.int8(2), np.float64(0.5)) == binomial_tail(5, 2, 0.5)
    assert orthogonal_truncation_level(0.1, np.int64(5), 0.5, np.float64(1.0)) == (
        orthogonal_truncation_level(0.1, 5, 0.5)
    )
    plan = build_plan(0.3, np.int64(3), S)
    assert plan == build_plan(0.3, 3, S) and type(plan.d) is int
    assert type(plan.level) is int
    assert type(TensorEigenStream(np.uint8(3), S).d) is int
    assert type(optimal_algorithm(0.3, np.int64(3), S).m2_ceiling) is int


# Each entry point with valid scalar arguments; the named ones are the
# demands, constants, exponents, grid entries, cost parameters and harness
# counts a spoiled input replaces.
SCALAR_ENTRY_POINTS = {
    "truncation_level": (lambda epsilon=0.1: truncation_level(epsilon, 5, 0.5)),
    "factorial_majorant": (lambda epsilon=0.1: factorial_majorant(epsilon, 0.5)),
    "orthogonal_truncation_level": (
        lambda epsilon=0.1, c_const=1.0: orthogonal_truncation_level(epsilon, 5, 0.5, c_const)
    ),
    "build_plan": (lambda epsilon=0.3, tau=1.5: build_plan(epsilon, 3, S, tau=tau)),
    "optimal_algorithm": (
        lambda epsilon=0.3, c_const=1.0: optimal_algorithm(epsilon, 3, S, c_const=c_const)
    ),
    "TensorEigenStream.above": (
        lambda threshold=0.3: list(TensorEigenStream(2, CUSTOM).above(threshold))
    ),
    "TensorEigenStream.require_certified": (
        lambda threshold=0.3: TensorEigenStream(2, S).require_certified(threshold)
    ),
    "power_sum": (lambda tau=1.0: power_sum(S, tau)),
    "complexity_curve": (
        lambda c_const=1.0, eps_entry=0.1, d_entry=2, tau=1.0: complexity_curve(
            S, c_const, EXP, [eps_entry, 0.05], [d_entry, 3], tau=tau
        )
    ),
    "CostModel(q)": (lambda q=1.0: CostModel(family="exponential", q=q)),
    "CostModel(c)": (lambda c=2.0: CostModel(family="linear_floor", c=c)),
    "eval_cost": (lambda k=2: eval_cost(EXP, k)),
    "log_eval_cost": (lambda k=2: log_eval_cost(EXP, k)),
    "random_function": (lambda d=3, seed=1: random_function(d, S, seed=seed)),
    "mc_l2_error": (
        lambda samples=100, seed=0: mc_l2_error(F, ZERO, S, samples=samples, seed=seed)
    ),
    "mean_function": (lambda d=2: mean_function(d, WIENER)),
}
KIND = {
    "epsilon": "demand",
    "eps_entry": "demand",
    "c_const": "constant",
    "tau": "tau",
    "threshold": "positive",
    "d_entry": "count",
    "d": "count",
    "samples": "count",
    "seed": "seed",
    "k": "k",
    "q": "q",
    "c": "c",
}
CLOSED_DEMAND = ("optimal_algorithm", "orthogonal_truncation_level")  # they accept epsilon = 1

SPOILERS = {
    "True": True,
    "np.bool_(True)": np.bool_(True),
    "'0.5'": "0.5",
    "nan": nan,
    "np.float64(nan)": np.float64(nan),
    "inf": inf,
    "np.float64(inf)": np.float64(inf),
    "-inf": -inf,
    "0": 0,
    "np.int64(0)": np.int64(0),
    "1.0": 1.0,
    "2.5": 2.5,
    "np.float32(2.5)": np.float32(2.5),
}
# The spoilers each kind of input accepts.
ACCEPTS = {
    "demand": (),
    "closed demand": ("1.0",),
    "constant": ("1.0", "2.5", "np.float32(2.5)"),
    "tau": ("inf", "np.float64(inf)", "1.0", "2.5", "np.float32(2.5)"),
    "positive": ("1.0", "2.5", "np.float32(2.5)"),
    "count": (),
    "k": ("0", "np.int64(0)"),
    "seed": ("0", "np.int64(0)"),
    "q": ("0", "np.int64(0)", "1.0", "2.5", "np.float32(2.5)"),
    "c": ("1.0", "2.5", "np.float32(2.5)"),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_spoiled_scalar_is_a_typed_error(data):
    name = data.draw(st.sampled_from(sorted(SCALAR_ENTRY_POINTS)))
    entry = SCALAR_ENTRY_POINTS[name]
    arg = data.draw(st.sampled_from(list(inspect.signature(entry).parameters)))
    kind = "closed demand" if arg == "epsilon" and name in CLOSED_DEMAND else KIND[arg]
    spoiler = data.draw(st.sampled_from([v for v in SPOILERS if v not in ACCEPTS[kind]]))
    entry()  # the defaults are valid, so only the spoiled input can raise
    with pytest.raises(InvalidArgumentError):
        entry(**{arg: SPOILERS[spoiler]})


def test_numpy_demands_constants_and_costs_are_stored_as_python_numbers():
    rep = truncation_level(np.float64(0.25), 5, 0.5)
    assert rep == truncation_level(0.25, 5, 0.5)
    plan = build_plan(np.float64(0.25), 3, S, tau=np.float32(1.5))
    assert plan == build_plan(0.25, 3, S, tau=1.5)
    assert type(plan.epsilon) is float and type(plan.tau) is float
    alg = optimal_algorithm(np.float32(0.5), 3, S, c_const=np.int64(2))
    assert alg == optimal_algorithm(0.5, 3, S, c_const=2.0)
    assert type(alg.epsilon_effective) is float
    assert power_sum(S, np.float32(1.5)) == power_sum(S, 1.5)
    report = complexity_curve(
        S, np.int64(1), EXP, [np.float64(0.1), np.float32(0.25)], [np.int64(2), np.uint8(3)]
    )
    assert report == complexity_curve(S, 1.0, EXP, [0.1, 0.25], [2, 3])
    assert {type(p.epsilon) for p in report.points} == {float}
    assert {type(p.d) for p in report.points} == {int}
    model = CostModel(family="exponential", q=np.int64(1))
    assert model == EXP and type(model.q) is float and model.describe() == EXP.describe()
    assert eval_cost(EXP, np.int64(2)) == eval_cost(EXP, 2)
    assert log_eval_cost(EXP, np.uint8(2)) == log_eval_cost(EXP, 2)
    assert list(TensorEigenStream(2, CUSTOM).above(np.float32(0.5))) == list(
        TensorEigenStream(2, CUSTOM).above(0.5)
    )
    # A numpy seed draws the stream of the equal Python seed.
    assert random_function(np.int64(3), S, seed=np.int64(7)) == random_function(3, S, seed=7)
    assert mc_l2_error(F, ZERO, S, samples=np.int64(100), seed=np.int64(7)) == (
        mc_l2_error(F, ZERO, S, samples=100, seed=7)
    )
    assert mean_function(np.int64(2), WIENER) == mean_function(2, WIENER)

