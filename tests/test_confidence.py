"""Deviation profiles, evenness-scaled intervals, and system comparison."""

import math

import numpy as np
import pytest

from chancekit.confidence import (
    compare_systems,
    confidence_interval,
    evenness_factor,
    normal_multiplier,
    sse_profile,
)
from chancekit.contingency import from_counts
from chancekit.dichotomous import binary_stats
from chancekit.errors import DataError, UsageError
from helpers import table_a


def test_sse_profile_values():
    assert sse_profile(0.5, "weighted_arithmetic") == pytest.approx(0.5, abs=1e-15)
    assert sse_profile(0.0, "weighted_arithmetic") == 1.0
    assert sse_profile(1.0, "weighted_arithmetic") == pytest.approx(1.0, abs=1e-15)
    assert sse_profile(-1.0, "weighted_arithmetic") == pytest.approx(1.0, abs=1e-15)
    assert sse_profile(1.0, "one_minus_abs") == 0.0
    assert sse_profile(0.3, "one_minus_abs") == pytest.approx(0.7, abs=1e-15)
    assert sse_profile(0.5, "geometric") == pytest.approx(0.5, abs=1e-15)
    assert sse_profile(0.5, "harmonic") == pytest.approx(0.25, abs=1e-15)
    for b in (-0.8, 0.0, 0.4, 1.0):
        assert sse_profile(b, "constant_one") == 1.0


def test_sse_profile_grid_relations():
    for b in np.linspace(-1.0, 1.0, 81):
        wa = sse_profile(b, "weighted_arithmetic")
        geo = sse_profile(b, "geometric")
        # symmetric in the sign of b
        for rule in ("constant_one", "one_minus_abs", "weighted_arithmetic",
                     "geometric", "harmonic"):
            assert sse_profile(b, rule) == pytest.approx(sse_profile(-b, rule), abs=1e-14)
        # weighted arithmetic never drops below 1/2; geometric never exceeds it
        assert wa >= 0.5 - 1e-14
        assert geo <= 0.5 + 1e-14


def test_sse_profile_input_checks():
    with pytest.raises(UsageError):
        sse_profile(1.5, "constant_one")
    with pytest.raises(UsageError):
        sse_profile(0.5, "quadratic")


def test_evenness_factor():
    assert evenness_factor(from_counts([[25, 25], [25, 25]])) == pytest.approx(1.0, abs=1e-14)
    expect = math.sqrt(0.68 * 0.32) * math.sqrt(0.76 * 0.24) * 4
    assert evenness_factor(table_a()) == pytest.approx(expect, abs=1e-12)
    # the reference prints 0.7966; exact arithmetic gives 0.796896
    assert evenness_factor(table_a()) == pytest.approx(0.7966, abs=5e-4)
    for k in (2, 3, 5):
        uniform = from_counts(np.full((k, k), 3))
        assert evenness_factor(uniform) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DataError):
        evenness_factor(from_counts([[1, 0], [2, 0]]))


def test_interval_null_textbook_value():
    ci = confidence_interval(0.0, 101, 1.0, 1.96, "null")
    assert ci.half_width == pytest.approx(1.96 / math.sqrt(200), abs=1e-12)
    assert ci.half_width == pytest.approx(0.1386, abs=5e-5)
    assert ci.sse_rule == "constant_one"


def test_interval_variant_rule_defaults():
    assert confidence_interval(0.3, 50, 1.0, 1.96, "null").sse_rule == "constant_one"
    assert confidence_interval(0.3, 50, 1.0, 1.96, "empirical").sse_rule == "weighted_arithmetic"
    assert confidence_interval(0.3, 50, 1.0, 1.96, "full").sse_rule == "one_minus_abs"
    override = confidence_interval(0.3, 50, 1.0, 1.96, "empirical", rule="harmonic")
    assert override.sse_rule == "harmonic"


def test_interval_full_at_perfect_performance_is_point():
    ci = confidence_interval(1.0, 50, 1.0, 1.96, "full")
    assert ci.half_width == 0.0
    assert ci.lo == ci.hi == 1.0


def test_interval_formula_recompute_and_monotonic_shrink():
    widths = []
    for n in (10, 100, 1000, 10_000):
        ci = confidence_interval(0.2, n, 0.8, 1.96, "empirical")
        expect = 1.96 * math.sqrt(sse_profile(0.2, "weighted_arithmetic")) / math.sqrt(2 * 0.8 * (n - 1))
        assert ci.half_width == pytest.approx(expect, abs=1e-12)
        widths.append(ci.half_width)
    assert widths == sorted(widths, reverse=True)
    # higher evenness also shrinks the band
    low_e = confidence_interval(0.2, 100, 0.5, 1.96, "empirical").half_width
    high_e = confidence_interval(0.2, 100, 1.0, 1.96, "empirical").half_width
    assert high_e < low_e


def test_interval_fixture_empirical_width():
    s = binary_stats(table_a())
    e = evenness_factor(table_a())
    ci = confidence_interval(s.informedness, 100, e, 1.96, "empirical")
    assert ci.half_width == pytest.approx(0.128837, abs=1e-6)
    null = confidence_interval(0.0, 100, e, 1.96, "null")
    assert null.half_width == pytest.approx(0.156035, abs=1e-6)
    # observed informedness clears the null band for the fixture
    assert s.informedness > null.hi


def test_interval_input_checks():
    with pytest.raises(DataError):
        confidence_interval(0.2, 1, 1.0, 1.96, "empirical")
    with pytest.raises(UsageError):
        confidence_interval(0.2, 100, 1.0, 1.96, "bayesian")
    with pytest.raises(UsageError):
        confidence_interval(0.2, 100, -1.0, 1.96, "empirical")
    for x in (-2.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            confidence_interval(0.2, 100, 1.0, x, "empirical")
    for evenness in (math.nan, math.inf):
        with pytest.raises(UsageError):
            confidence_interval(0.2, 100, evenness, 1.96, "empirical")
    with pytest.raises(UsageError):
        confidence_interval(math.nan, 100, 1.0, 1.96, "empirical")


def test_contains():
    ci = confidence_interval(0.5, 100, 1.0, 1.96, "empirical")
    assert ci.contains(0.5)
    assert ci.contains(ci.lo) and ci.contains(ci.hi)
    assert not ci.contains(0.9)


def test_normal_multiplier():
    assert normal_multiplier(0.05) == pytest.approx(1.9599639845400545, abs=1e-9)
    assert normal_multiplier(0.05, two_tailed=False) == pytest.approx(1.6448536269514722, abs=1e-9)
    assert normal_multiplier(0.01) == pytest.approx(2.5758293035489004, abs=1e-9)
    with pytest.raises(UsageError):
        normal_multiplier(0.0)
    with pytest.raises(UsageError):
        normal_multiplier(1.0)


def test_compare_identical_systems():
    cmp = compare_systems((0.4, 200, 1.0), (0.4, 200, 1.0))
    assert cmp.a_in_b and cmp.b_in_a
    assert not cmp.mutually_exclusive


def test_compare_separated_systems():
    cmp = compare_systems((0.9, 1000, 1.0), (0.0, 1000, 1.0))
    assert cmp.mutually_exclusive
    assert not cmp.a_in_b and not cmp.b_in_a


def test_compare_small_sample_not_significant():
    cmp = compare_systems((0.05, 20, 1.0), (0.0, 20, 1.0))
    assert cmp.a_in_b and cmp.b_in_a
    assert not cmp.mutually_exclusive


def test_chance_and_perfect_bars_meet_at_n_nine():
    # with X = 2, E = 1, and the constant profile on both ends, the two bands
    # span 2/sqrt(2(n-1)) each; they touch exactly when that equals 1/2
    def gap(n):
        lo = confidence_interval(0.0, n, 1.0, 2.0, "null")
        hi = confidence_interval(1.0, n, 1.0, 2.0, "null")
        return hi.lo - lo.hi

    assert gap(9) == pytest.approx(0.0, abs=1e-12)
    assert gap(8) < 0
    assert gap(10) > 0
