"""The statistics that ``tools/ab.py`` prints for a set of alternating pairs."""

import math
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab  # noqa: E402


class TestSignTest:
    def test_known_counts(self):
        # 10 of 10 pairs: 2 / 2^10; 9 of 10: 2 (1 + 10) / 2^10.
        assert ab.sign_test(10, 0) == 2 / 1024
        assert ab.sign_test(9, 1) == 22 / 1024
        assert ab.sign_test(5, 5) == 1.0
        assert ab.sign_test(0, 0) == 1.0

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_is_the_chance_of_a_split_at_least_as_uneven(self, wins, losses):
        # Under the null each untied pair goes either way with chance 1/2.
        n = wins + losses
        extreme = abs(2 * wins - n)
        count = sum(math.comb(n, i) for i in range(n + 1) if abs(2 * i - n) >= extreme)
        assert ab.sign_test(wins, losses) == float(Fraction(count, 2**n))


def test_spread_is_the_interquartile_range():
    assert ab.spread([3.0]) == 0.0
    assert ab.spread([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert ab.spread([5.0] * 10) == 0.0
