import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wildsemi.certify import HALF, Side, generator_value
from wildsemi.core import (
    DEFAULT_TRAJECTORY_BUDGET,
    Trajectory,
    format_rational,
    parse_rational,
    pos_rational,
    t_iterate,
    t_map,
    trajectory_to_one,
)


class TestTMap:
    def test_even_halves(self):
        assert t_map(10) == 5
        assert t_map(2) == 1

    def test_odd_climbs(self):
        assert t_map(27) == 41
        assert t_map(1) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            t_map(0)
        with pytest.raises(ValueError):
            t_map(-4)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_definition(self, n):
        expected = n // 2 if n % 2 == 0 else (3 * n + 1) // 2
        assert t_map(n) == expected


class TestTIterate:
    def test_zero_steps_is_identity(self):
        assert t_iterate(27, 0) == 27

    def test_example(self):
        # 27 -> 41 -> 62
        assert t_iterate(27, 2) == 62

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=40))
    def test_composes_with_t_map(self, n, j):
        v = n
        for _ in range(j):
            v = t_map(v)
        assert t_iterate(n, j) == v

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            t_iterate(5, -1)


class TestTrajectory:
    def test_reaches_one(self):
        traj = trajectory_to_one(27)
        assert traj.reached_one
        assert traj.values[0] == 27
        assert traj.values[-1] == 1
        # classic: 27 needs 70 T steps
        assert traj.steps == 70

    def test_one_is_trivial(self):
        traj = trajectory_to_one(1)
        assert traj.values == (1,)
        assert traj.steps == 0
        assert traj.reached_one

    def test_budget_exhaustion_is_reported_not_raised(self):
        traj = trajectory_to_one(27, max_steps=3)
        assert not traj.reached_one
        assert traj.steps == 3

    def test_consecutive_values_are_t_steps(self):
        traj = trajectory_to_one(97)
        for a, b in zip(traj.values, traj.values[1:]):
            assert t_map(a) == b

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            Trajectory(start=2, values=(3, 1), reached_one=True)
        with pytest.raises(ValueError):
            Trajectory(start=2, values=(2, 4), reached_one=True)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_everything_small_reaches_one(self, n):
        assert trajectory_to_one(n, DEFAULT_TRAJECTORY_BUDGET).reached_one


class TestRationals:
    def test_pos_rational_reduces(self):
        assert pos_rational(6, 4) == Fraction(3, 2)

    def test_pos_rational_rejects_junk(self):
        for num, den in ((0, 1), (1, 0), (-2, 3), (2, -3)):
            with pytest.raises(ValueError):
                pos_rational(num, den)

    def test_parse_plain_integer(self):
        assert parse_rational("13") == Fraction(13)

    def test_parse_fraction(self):
        assert parse_rational(" 7/5 ") == Fraction(7, 5)

    def test_parse_rejects_junk(self):
        for text in ("", "a/b", "1.5", "3/", "/4", "1/3/5", "0/2"):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_format_keeps_denominator(self):
        assert format_rational(Fraction(13)) == "13/1"
        assert format_rational(Fraction(76, 79)) == "76/79"

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_round_trip(self, a, b):
        q = Fraction(a, b)
        assert parse_rational(format_rational(q)) == q


class TestGenW:
    """The wild generators (3k+2)/(2k+1), read through generator_value."""

    def test_first_generators(self):
        assert generator_value(Side.W, 0) == 2
        assert generator_value(Side.W, 1) == Fraction(5, 3)
        assert generator_value(Side.W, 5) == Fraction(17, 11)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_always_in_lowest_terms(self, k):
        # 2(3k+2) - 3(2k+1) = 1, so the fraction can never reduce
        assert math.gcd(3 * k + 2, 2 * k + 1) == 1
        value = generator_value(Side.W, k)
        assert (value.numerator, value.denominator) == (3 * k + 2, 2 * k + 1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_strictly_decreasing_toward_three_halves(self, k):
        assert Fraction(3, 2) < generator_value(Side.W, k + 1) < generator_value(Side.W, k) <= 2

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            generator_value(Side.W, HALF - 1)
