"""Dimensions, levels and C_0^2 at the truncation, stream and plan entry points.

The rule is the one :class:`AnovaFunction` follows: ``d``, ``m``, ``k`` and
``level`` are Python or numpy integers, and ``bool`` is not one; ``c0sq`` is
a finite positive real.  Anything else raises :class:`InvalidArgumentError`.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activevars import (
    TensorEigenStream,
    binomial_tail,
    build_plan,
    build_spectrum,
    eigencount,
    eigenvalue_decay_bound,
    embedding_norm_bound,
    embedding_norm_special,
    factorial_majorant,
    korobov_kernel,
    optimal_algorithm,
    orthogonal_truncation_level,
    power_sum_identity,
    truncation_level,
)
from activevars.errors import InvalidArgumentError

S = build_spectrum(korobov_kernel(1.0), 200)
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
    "embedding_norm_bound(5, nan)": lambda: embedding_norm_bound(5, nan),
    "embedding_norm_special(5, nan)": lambda: embedding_norm_special(5, nan),
    "embedding_norm_bound(2.5, 0.5)": lambda: embedding_norm_bound(2.5, 0.5),
    "binomial_tail(5, True, 0.5)": lambda: binomial_tail(5, True, 0.5),
    "build_plan(0.1, 3, s, level=True)": lambda: build_plan(0.1, 3, S, level=True),
    "power_sum_identity(2.5, s, 1.0)": lambda: power_sum_identity(2.5, S, 1.0),
    "eigenvalue_decay_bound(2, 1.5, s, 1.0)": lambda: eigenvalue_decay_bound(2, 1.5, S, 1.0),
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
    "factorial_majorant(0.1, inf, refined=True)": (
        lambda: factorial_majorant(0.1, inf, refined=True)
    ),
    "truncation_level(0.1, 5, '0.5')": lambda: truncation_level(0.1, 5, "0.5"),
    "build_plan(0.1, 2.5, s)": lambda: build_plan(0.1, 2.5, S),
    "build_plan(0.1, 3, s, level=1.5)": lambda: build_plan(0.1, 3, S, level=1.5),
    "eigencount(0.1, 2.5, s)": lambda: eigencount(0.1, 2.5, S),
    "optimal_algorithm(0.1, 2.5, s)": lambda: optimal_algorithm(0.1, 2.5, S),
}


@pytest.mark.parametrize("call", LISTED)
def test_listed_inputs_are_refused(call):
    with pytest.raises(InvalidArgumentError):
        LISTED[call]()


# Each entry point with valid arguments; the named ones are the integers
# and the C_0^2 values a spoiled input replaces.
ENTRY_POINTS = {
    "binomial_tail": (lambda d=5, m=2, c0sq=0.5: binomial_tail(d, m, c0sq)),
    "truncation_level": (lambda d=5, c0sq=0.5: truncation_level(0.1, d, c0sq, 1.0)),
    "factorial_majorant": (lambda c0sq=0.5: factorial_majorant(0.1, c0sq)),
    "factorial_majorant(refined)": (lambda c0sq=0.5: factorial_majorant(0.1, c0sq, refined=True)),
    "orthogonal_truncation_level": (
        lambda d=5, c0sq=0.5: orthogonal_truncation_level(0.1, d, c0sq)
    ),
    "embedding_norm_bound": (lambda d=5, c0sq=0.5: embedding_norm_bound(d, c0sq)),
    "embedding_norm_special": (lambda d=5, c0sq=0.5: embedding_norm_special(d, c0sq)),
    "TensorEigenStream": (lambda d=3: next(TensorEigenStream(d, S))),
    "eigencount": (lambda d=3: eigencount(0.3, d, S)),
    "optimal_algorithm": (lambda d=3: optimal_algorithm(0.3, d, S)),
    "power_sum_identity": (lambda d=3: power_sum_identity(d, S, 1.0)),
    "eigenvalue_decay_bound": (lambda d=3, k=2: eigenvalue_decay_bound(d, k, S, 1.0)),
    "build_plan": (lambda d=3, level=1: build_plan(0.3, d, S, level=level)),
}
INTEGER_ARGS = ("d", "m", "k", "level")

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
    if arg == "level":  # None is build_plan's own level, not a spoiled one.
        bad = data.draw(not_an_integer.filter(lambda v: v is not None))
    else:
        bad = data.draw(not_an_integer if arg in INTEGER_ARGS else not_a_finite_positive_real)
    with pytest.raises(InvalidArgumentError):
        entry(**{arg: bad})


def test_numpy_scalars_are_accepted_and_stored_as_python_numbers():
    rep = truncation_level(0.1, np.int64(5), np.float32(0.5))
    assert rep == truncation_level(0.1, 5, 0.5)
    assert type(rep.d) is int and type(rep.c0sq) is float
    assert binomial_tail(np.int32(5), np.int8(2), np.float64(0.5)) == binomial_tail(5, 2, 0.5)
    assert orthogonal_truncation_level(0.1, np.int64(5), 0.5, np.float64(1.0)) == (
        orthogonal_truncation_level(0.1, 5, 0.5)
    )
    plan = build_plan(0.3, np.int64(3), S, level=np.int16(1))
    assert plan == build_plan(0.3, 3, S, level=1) and type(plan.d) is int
    assert type(plan.level) is int
    assert type(TensorEigenStream(np.uint8(3), S).d) is int
    assert type(optimal_algorithm(0.3, np.int64(3), S).d) is int
