"""Test statistics, exact tests, corrections, and the survival function."""

import math
import re
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from chancekit.contingency import from_counts, transform
from chancekit.dichotomous import binary_stats
from chancekit.errors import DataError, UsageError
from chancekit.multiclass import mutual_information
from chancekit import significance
from chancekit.significance import (
    _fisher_window,
    _patefield_cells,
    chi2_bookmaker_family,
    chi2_positive,
    chi2_sf,
    cramers_v,
    exact_test,
    fisher_exact_2x2,
    fisher_montecarlo_kxk,
    full_table_tests,
    g2_positive,
    posthoc_calibration,
    significance_reports,
    williams_correction,
)
from helpers import random_valid_tables, record_chunks, table_a, table_b, unreached_lines
import reference_stats

INDEP = from_counts([[8, 2], [8, 2]])


def _positive_row_oracle(counts, row):
    # direct (observed - expected)^2 / expected arithmetic over one row
    c = np.asarray(counts, dtype=float)
    n = c.sum()
    expected = np.outer(c.sum(axis=1), c.sum(axis=0)) / n
    return sum((c[row, j] - expected[row, j]) ** 2 / expected[row, j] for j in range(c.shape[1]))


def _positive_col_oracle(counts, col):
    c = np.asarray(counts, dtype=float)
    n = c.sum()
    expected = np.outer(c.sum(axis=1), c.sum(axis=0)) / n
    return sum((c[i, col] - expected[i, col]) ** 2 / expected[i, col] for i in range(c.shape[0]))


def test_chi2_positive_fixtures():
    ra = chi2_positive(table_a())
    assert ra.kind == "chi2_plus_p"
    assert ra.df == 1
    assert ra.value == pytest.approx(_positive_row_oracle(table_a().counts, 0), abs=1e-12)
    assert ra.value == pytest.approx(1.13, abs=0.005)
    rb = chi2_positive(table_b())
    assert rb.value == pytest.approx(2.29, abs=0.005)
    assert chi2_positive(INDEP).value == pytest.approx(0.0, abs=1e-12)


def test_chi2_positive_real_target_dual_oracle():
    ra = chi2_positive(table_a(), target="real_positive")
    assert ra.value == pytest.approx(_positive_col_oracle(table_a().counts, 0), abs=1e-12)
    rb = chi2_positive(table_b(), target="real_positive")
    # frozen dual-oracle values; the published fixture prints 1.61 and 2.22,
    # which do not follow from the formula (documented discrepancy)
    assert ra.value == pytest.approx(1.504644, abs=1e-6)
    assert rb.value == pytest.approx(1.576355, abs=1e-6)


def test_chi2_positive_is_target_dependent():
    a = chi2_positive(table_a()).value
    b = chi2_positive(table_a(), target="real_positive").value
    assert abs(a - b) > 0.1


def test_chi2_positive_yates():
    # expected counts in the positive row of this table are under 5
    t = from_counts([[1, 5], [5, 9]])
    raw = chi2_positive(t)
    corrected = chi2_positive(t, yates=True)
    c = t.counts.astype(float)
    expected = np.outer(c.sum(axis=1), c.sum(axis=0)) / c.sum()
    oracle = sum(
        (abs(c[0, j] - expected[0, j]) - 0.5) ** 2 / expected[0, j] for j in range(2)
    )
    assert corrected.value == pytest.approx(oracle, abs=1e-12)
    assert corrected.value < raw.value
    assert "yates" in corrected.corrections


def test_yates_only_applies_below_expectation_five():
    raw = chi2_positive(table_a())
    flagged = chi2_positive(table_a(), yates=True)
    # every expected count in the fixture is >= 5, so nothing changes
    assert flagged.value == pytest.approx(raw.value, abs=1e-12)


def test_g2_positive_oracle():
    t = table_a()
    c = t.counts.astype(float)
    expected = np.outer(c.sum(axis=1), c.sum(axis=0)) / c.sum()
    oracle = 2 * sum(
        c[0, j] * math.log(c[0, j] / expected[0, j]) for j in range(2) if c[0, j] > 0
    )
    r = g2_positive(t)
    assert r.kind == "g2_plus_p"
    assert r.value == pytest.approx(oracle, abs=1e-12)
    assert g2_positive(INDEP).value == pytest.approx(0.0, abs=1e-12)


def test_bookmaker_family_fixture_values():
    t = table_a()
    assert chi2_bookmaker_family(t, "kb").value == pytest.approx(1.72, abs=0.005)
    assert chi2_bookmaker_family(t, "km").value == pytest.approx(2.05, abs=0.005)
    assert chi2_bookmaker_family(t, "kbm").value == pytest.approx(1.87, abs=0.005)
    s = binary_stats(t)
    kb_oracle = 2 * 100 * s.informedness**2 * 0.2176
    assert chi2_bookmaker_family(t, "kb").value == pytest.approx(kb_oracle, abs=1e-10)


def test_x_family_is_k_minus_one_times_k_family():
    for t in random_valid_tables(601, 20, k=4, cell_max=15):
        for base, x in (("kb", "xb"), ("km", "xm"), ("kbm", "xbm")):
            kv = chi2_bookmaker_family(t, base)
            xv = chi2_bookmaker_family(t, x)
            assert xv.value == pytest.approx(3 * kv.value, abs=1e-10)
            assert kv.df == 3
            assert xv.df == 9
    # at K=2 the multiplier is 1
    t2 = table_a()
    assert chi2_bookmaker_family(t2, "xb").value == pytest.approx(
        chi2_bookmaker_family(t2, "kb").value, abs=1e-14
    )


def test_conventional_family():
    t = table_a()
    s = binary_stats(t)
    assert chi2_bookmaker_family(t, "conv_b").value == pytest.approx(
        100 * s.informedness**2, abs=1e-10
    )
    assert chi2_bookmaker_family(t, "conv_bm").value == pytest.approx(4.70, abs=0.005)
    assert chi2_bookmaker_family(t, "conv_bm").value == pytest.approx(
        100 * s.informedness * s.markedness, abs=1e-10
    )


def test_family_reports_carry_both_df_conventions():
    r = chi2_bookmaker_family(from_counts(np.eye(4, dtype=int) * 5 + 1), "kb")
    assert r.df_beta == 3
    assert r.df_alpha == 9


def test_family_invariant_under_inverse():
    for t in random_valid_tables(602, 20):
        inv = transform(t, "inverse")
        for fam in ("kb", "km", "kbm"):
            assert chi2_bookmaker_family(t, fam).value == pytest.approx(
                chi2_bookmaker_family(inv, fam).value, abs=1e-10
            )


def test_unknown_family_is_usage_error():
    with pytest.raises(UsageError):
        chi2_bookmaker_family(table_a(), "zz")


@pytest.mark.parametrize("kind, named", [("zz", "zz"), ("ZZ", "zz"), (None, "None"), (3, "3")])
def test_family_kind_errors_name_the_kind(kind, named):
    # Any kind that is not one of FAMILY_KINDS, in any case, is a usage
    # error naming it, as the other selectors' errors do.
    with pytest.raises(UsageError, match=re.escape(f"unknown family kind '{named}'")):
        chi2_bookmaker_family(table_a(), kind)
    assert chi2_bookmaker_family(table_a(), "KBM") == chi2_bookmaker_family(table_a(), "kbm")


@pytest.mark.parametrize("family", ["xb", "k", "", None, "KB", "xbm"])
def test_significance_reports_rejects_unknown_families(family):
    # Only the eight `significance --family` names select reports; a kind
    # name outside kb, km and kbm, or a form name other than x and conv, is
    # not one of them.
    with pytest.raises(UsageError, match=re.escape(f"unknown family '{family}'")):
        significance_reports(table_a(), ("kb", family))


def test_significance_reports_check_sampler_options_up_front():
    # Checked for every table and family, not only where the sampler runs.
    with pytest.raises(UsageError, match="need at least 1000 samples, got 5"):
        significance_reports(table_a(), ("kb",), samples=5)
    with pytest.raises(UsageError, match="samples must be an integer, got 2000.0"):
        significance_reports(table_a(), ("kb",), samples=2000.0)
    with pytest.raises(UsageError, match=re.escape("unknown sidedness 'both'; expected one of one, two")):
        significance_reports(table_a(), ("kb",), sided="both")


def test_significance_reports_compose_the_single_tests():
    # Expected cells below 5, so Yates fires on this table.
    t = from_counts([[6, 1], [2, 3]])
    targets = ("predicted_positive", "real_positive")
    full_chi2, full_g2 = full_table_tests(t)
    expected = [
        *(chi2_positive(t, target, yates=True) for target in targets),
        *(williams_correction(g2_positive(t, target), t) for target in targets),
        *(chi2_bookmaker_family(t, kind) for kind in significance.FAMILY_KINDS),
        full_chi2, williams_correction(full_g2, t),
        exact_test(t, "one"),
    ]
    assert significance_reports(t, sided="one", yates=True, williams=True) == expected
    # A family named twice, or also covered by "all", still gives each report once.
    assert significance_reports(t, ("x", "all", "fisher", "x"), sided="one", yates=True,
                                williams=True) == expected
    assert significance_reports(t, ()) == []


def test_williams_and_significance_reports_run_every_line():
    # A 2x2 and a 3x3 table with williams on and off, and every refusal.
    t2, t3 = from_counts([[6, 1], [2, 3]]), from_counts([[5, 1, 2], [0, 7, 1], [2, 2, 9]])
    full_chi2, full_g2 = full_table_tests(t3)
    refused = [
        lambda: williams_correction(full_chi2, t3),
        lambda: williams_correction(williams_correction(full_g2, t3), t3),
        lambda: williams_correction(full_g2, t2),
        lambda: significance_reports(t2, "all"),
        lambda: significance_reports(t2, ("none",)),
        lambda: significance_reports(t2, samples=2000.0),
        lambda: significance_reports(t2, sided="both"),
    ]

    def run():
        for t in (t2, t3):
            for williams in (False, True):
                significance_reports(t, williams=williams)
        for call in refused:
            with pytest.raises(UsageError):
                call()

    assert unreached_lines(williams_correction, run) == []
    assert unreached_lines(significance_reports, run) == []


def test_full_table_tests_fixture():
    chi2, g2 = full_table_tests(table_a())
    s = binary_stats(table_a())
    assert chi2.value == pytest.approx(100 * s.informedness * s.markedness, abs=1e-9)
    assert g2.value == pytest.approx(2 * 100 * mutual_information(table_a()), abs=1e-12)
    assert chi2.df == g2.df == 1
    c0, g0 = full_table_tests(INDEP)
    assert c0.value == pytest.approx(0.0, abs=1e-12)
    assert g0.value == pytest.approx(0.0, abs=1e-12)


def test_full_table_tests_scale_linearly():
    t = from_counts([[9, 3], [4, 14]])
    c1, g1 = full_table_tests(t)
    c5, g5 = full_table_tests(from_counts(t.counts * 5))
    assert c5.value == pytest.approx(5 * c1.value, abs=1e-9)
    assert g5.value == pytest.approx(5 * g1.value, abs=1e-9)


def test_cramers_v():
    chi2, _ = full_table_tests(table_a())
    s = binary_stats(table_a())
    assert cramers_v(chi2.value, 100, 2) == pytest.approx(abs(s.correlation), abs=1e-9)
    assert cramers_v(0.0, 50, 3) == 0.0
    assert cramers_v(50 * 2, 50, 3) == pytest.approx(1.0, abs=1e-12)


def test_fisher_exact_unit_example():
    t = from_counts([[1, 0], [0, 1]])
    assert fisher_exact_2x2(t, "one").p_value == pytest.approx(0.5, abs=1e-15)
    assert fisher_exact_2x2(t, "two").p_value == pytest.approx(1.0, abs=1e-15)


def test_fisher_fixture_significance():
    two = fisher_exact_2x2(table_a(), "two").p_value
    one = fisher_exact_2x2(table_a(), "one").p_value
    assert two < 0.05
    assert one < two
    assert fisher_exact_2x2(table_b(), "two").p_value == pytest.approx(0.062934, abs=1e-6)


def _fisher_fraction_oracle(counts, sidedness):
    (a, b), (c, d) = counts
    rp, rn, pp, n = a + c, b + d, a + b, a + b + c + d
    weights = {
        aa: math.comb(rp, aa) * math.comb(rn, pp - aa)
        for aa in range(max(0, pp - rn), min(rp, pp) + 1)
    }
    obs = weights[a]
    if sidedness == "one":
        if a * d - b * c >= 0:
            total = sum(w for aa, w in weights.items() if aa >= a)
        else:
            total = sum(w for aa, w in weights.items() if aa <= a)
    else:
        total = sum(w for w in weights.values() if w <= obs)
    return Fraction(total, math.comb(n, pp))


def test_fisher_matches_exact_fraction_oracle():
    # The fixtures, then every table with 1 <= n <= 20 through the public call.
    cases = [((56, 20), (12, 12)), ((30, 12), (30, 28)), ((3, 1), (1, 3)),
             ((1, 5), (5, 1)), ((10, 0), (0, 10)), ((2, 2), (2, 2))]
    cases += [((a, b), (c, n - a - b - c)) for n in range(1, 21) for a in range(n + 1)
              for b in range(n + 1 - a) for c in range(n + 1 - a - b)]
    for counts in cases:
        t = from_counts(counts)
        for side in ("one", "two"):
            oracle = _fisher_fraction_oracle(counts, side)
            got = fisher_exact_2x2(t, side).p_value
            assert got == oracle.numerator / oracle.denominator


def test_fisher_recurrence_matches_fraction_oracle_across_margins():
    # The ratio recurrence feeds every p, at the 2x2 sizes the exact test
    # meets in practice and with degenerate margins; the observed count sits
    # at both ends of its range, at the mode and between them.
    margins = [(20, 20, 17), (15, 25, 30), (500, 500, 480), (300, 700, 650),
               (2000, 2000, 1990), (1000, 3000, 2500), (0, 5, 3), (3, 7, 0), (10, 3, 13)]
    for rp, rn, pp in margins:
        lo, hi = max(0, pp - rn), min(rp, pp)
        mode = (pp + 1) * (rp + 1) // (rp + rn + 2)
        for a in {lo, (lo + mode) // 2, mode, (mode + hi) // 2, hi}:
            counts = ((a, pp - a), (rp - a, rn - pp + a))
            t = from_counts(counts)
            for side in ("one", "two"):
                oracle = _fisher_fraction_oracle(counts, side)
                assert fisher_exact_2x2(t, side).p_value == oracle.numerator / oracle.denominator


def _small_margin_tables():
    """Criterion 04's margin grid, n = 2..40, at every observed count."""
    for n in range(2, 41):
        margin_points = sorted({1, n // 4, n // 2, (3 * n) // 4, n - 1} & set(range(1, n)))
        for rp in margin_points:
            for pp in margin_points:
                rn = n - rp
                for a in range(max(0, pp - rn), min(rp, pp) + 1):
                    yield (a, pp - a), (rp - a, rn - pp + a)


def test_fisher_window_matches_fraction_oracle_on_small_margins():
    # Small supports go to the full sum, so the windowed routine is called
    # directly here.
    for counts in _small_margin_tables():
        (a, b), (c, d) = counts
        for side in ("one", "two"):
            oracle = _fisher_fraction_oracle(counts, side)
            assert _fisher_window(a, b, c, d, side) == oracle.numerator / oracle.denominator, (
                counts, side)


def _large_margin_tables():
    """Tables with n up to 20,001 whose observed count sits at both ends of
    its range, next to the mode, and at and before the first table past the
    mode that is no more probable than one about 3 sd below it."""
    margins = [(1000, 1000, 1000), (400, 800, 600), (9000, 11001, 300),
               (19700, 301, 400), (10000, 10001, 350),
               (0, 20001, 5000), (20001, 0, 7), (9000, 11001, 0), (9000, 11001, 20001)]
    for rp, rn, pp in margins:
        n = rp + rn
        lo, hi = max(0, pp - rn), min(rp, pp)
        mode = (pp + 1) * (rp + 1) // (n + 2)
        def weight(x):
            return math.comb(rp, x) * math.comb(rn, pp - x)

        sd = math.sqrt(pp * rp * rn * (n - pp) / (n * n * max(n - 1, 1)))
        below = max(lo, mode - int(3 * sd))
        mirror = mode
        while mirror <= hi and weight(mirror) > weight(below):
            mirror += 1
        for a in sorted({lo, mode - 1, mode, mode + 1, below, mirror - 1, mirror, hi}):
            if lo <= a <= hi:
                yield (a, pp - a), (rp - a, rn - pp + a)


def test_fisher_matches_fraction_oracle_on_large_margins():
    for counts in _large_margin_tables():
        t = from_counts(counts)
        for side in ("one", "two"):
            oracle = _fisher_fraction_oracle(counts, side)
            assert fisher_exact_2x2(t, side).p_value == oracle.numerator / oracle.denominator, (
                counts, side)


def test_fisher_window_runs_every_line():
    # A line no table on these grids reaches is a path to prove or delete.
    tables = [*_small_margin_tables(), *_large_margin_tables()]

    def run():
        for (a, b), (c, d) in tables:
            for side in ("one", "two"):
                _fisher_window(a, b, c, d, side)

    assert unreached_lines(_fisher_window, run) == []


def test_fisher_window_falls_back_when_rounding_is_undecided(monkeypatch):
    # With 8 bits the bounds cannot settle a double; the full sum then gives p.
    monkeypatch.setattr(significance, "_WINDOW_BITS", 8)
    for counts in (((560, 440), (440, 560)), ((700, 300), (500, 501)), ((1300, 700), (700, 1300))):
        (a, b), (c, d) = counts
        for side in ("one", "two"):
            assert _fisher_window(a, b, c, d, side) is None
            oracle = _fisher_fraction_oracle(counts, side)
            assert fisher_exact_2x2(from_counts(counts), side).p_value == (
                oracle.numerator / oracle.denominator)


def test_fisher_exact_balanced_table_at_n_1e5_is_fast():
    # The full sum takes about 2 s here, the windowed sum milliseconds; the
    # expected value is the full sum's.
    t = from_counts([[25100, 24900], [24900, 25100]])
    start = time.perf_counter()
    p = fisher_exact_2x2(t, "two").p_value
    assert time.perf_counter() - start < 0.5
    assert p == 0.2081795011947948


@pytest.mark.parametrize("side", ["one", "two"])
def test_fisher_exact_keeps_no_weight_table(side):
    # A table of every weight holds about n^2 bits, 20 MB at n = 20,001;
    # summing the weights as they come holds a few at a time.
    t = from_counts([[5000, 5000], [5000, 5001]])
    tracemalloc.start()
    try:
        fisher_exact_2x2(t, side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_fisher_degenerate_margins():
    assert fisher_exact_2x2(from_counts([[3, 5], [0, 0]])).p_value == 1.0
    assert fisher_exact_2x2(from_counts([[3, 0], [5, 0]])).p_value == 1.0
    with pytest.raises(DataError):
        fisher_exact_2x2(from_counts([[0, 0], [0, 0]]))
    with pytest.raises(UsageError):
        fisher_exact_2x2(table_a(), "both")
    with pytest.raises(UsageError):
        fisher_exact_2x2(from_counts(np.eye(3, dtype=int) + 1))


def test_exact_test_is_the_2x2_sum_or_the_sampler():
    # Report equality compares every field; the 2x2 sum ignores samples and seed.
    t = table_a()
    for side in ("one", "two"):
        assert exact_test(t, side, samples=1000, seed=3) == fisher_exact_2x2(t, side)
    k3 = [[4, 2, 3], [3, 5, 2], [1, 3, 4]]
    k4 = [[6, 1, 2, 0], [1, 5, 2, 3], [2, 1, 7, 1], [0, 2, 1, 9]]
    for t in (from_counts(k3), from_counts(k4)):
        assert exact_test(t, "two", 2000, 42) == fisher_montecarlo_kxk(t, 2000, 42)
        with pytest.raises(UsageError, match=f"{t.k}x{t.k}"):
            exact_test(t, "one", 2000, 42)


def _fixed_draw_hits(t, samples, seed):
    """Hits among exactly `samples` draws of _patefield_cells, with the
    sampler's ordering and tolerance but no stopping rule."""
    rng = np.random.Generator(np.random.SFC64(seed))
    log_factorials = np.array([math.lgamma(i + 1.0) for i in range(t.n + 1)])
    s_obs = sum(log_factorials[c] for c in t.counts.ravel())
    s = sum(log_factorials[c] for c in _patefield_cells(t, samples, rng))
    return int((s >= s_obs - 1e-9).sum())


def test_fisher_montecarlo_agrees_with_exact_2x2():
    t = table_a()
    exact = fisher_exact_2x2(t, "two").p_value
    # The sampler's law: its hit rate over a fixed 100,000 draws.
    mc = (_fixed_draw_hits(t, 100_000, 5) + 1) / (100_000 + 1)
    se = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(mc - exact) < 3 * se
    # The public call stops at its 100th hit with p = 100 / draws, whose
    # standard error is about p sqrt((1 - p) / 100) (Besag & Clifford 1991).
    report = fisher_montecarlo_kxk(t, samples=100_000, seed=5)
    assert report.hits == significance._STOP_HITS
    assert report.p_value == report.hits / report.draws
    stopped_se = report.p_value * math.sqrt((1 - report.p_value) / report.hits)
    assert abs(report.p_value - exact) < 3 * stopped_se


def test_fisher_montecarlo_perfect_diagonal():
    # No draw is as improbable as the diagonal, so the run never stops and p
    # is (0 + 1) / (samples + 1).
    t = from_counts(np.eye(4, dtype=int) * 10)
    report = fisher_montecarlo_kxk(t, samples=2000, seed=1, alpha=None)
    assert report.p_value == 1 / 2001
    assert (report.draws, report.hits) == (2000, 0)


def test_fisher_montecarlo_independent_table():
    # The even table is the most probable with its margins, so every draw is
    # a hit and the run stops at the 100th draw with p = 1.
    t = from_counts(np.full((4, 4), 4))
    report = fisher_montecarlo_kxk(t, samples=2000, seed=1)
    assert report.p_value == 1.0
    assert report.draws == report.hits == significance._STOP_HITS == 100


def test_fisher_montecarlo_p_follows_its_stopping_rule():
    # A stopped p is hits / draws, so never below 100 / samples; a full run's
    # is (hits + 1) / (samples + 1), never below 1 / (samples + 1).
    stopped = full = 0
    for t in random_valid_tables(17, 40, k=3, cell_max=9):
        report = fisher_montecarlo_kxk(t, samples=1000, seed=3, alpha=None)
        assert report.p_value >= 1 / 1001
        if report.hits == significance._STOP_HITS:
            stopped += 1
            assert report.draws <= 1000
            assert report.p_value == 100 / report.draws >= 100 / 1000
        else:
            full += 1
            assert report.hits < 100
            assert report.draws == 1000
            assert report.p_value == (report.hits + 1) / 1001
    assert stopped and full


# Three small margin sets, each given by one table that has them.
NULL_MARGIN_TABLES = ([[2, 2, 1], [2, 2, 2], [2, 2, 3]],
                      [[1, 1, 1, 1], [0, 1, 1, 2], [1, 0, 2, 1], [0, 1, 1, 2]],
                      [[2, 1, 0], [3, 1, 1], [3, 0, 1]])
NULL_DRAWS = 200


def test_fisher_montecarlo_keeps_its_level_under_the_null():
    # Tables drawn from the fixed-margin null are rejected at alpha = 0.05 at
    # most alpha + 3 binomial standard errors of the time.
    alpha, rejected, total = 0.05, 0, 0
    for i, base in enumerate(NULL_MARGIN_TABLES):
        t = from_counts(base)
        rng = np.random.Generator(np.random.SFC64(100 + i))
        cells = np.stack(list(_patefield_cells(t, NULL_DRAWS, rng)), axis=1)
        for j, counts in enumerate(cells.reshape(NULL_DRAWS, t.k, t.k)):
            report = fisher_montecarlo_kxk(from_counts(counts), samples=1000, seed=j)
            rejected += report.p_value <= alpha
            total += 1
    assert rejected / total <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / total)


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_fisher_montecarlo_decided_at_a_level_keeps_it_under_the_null(alpha):
    # On the null tables above, the test with its boundary at alpha rejects
    # at most alpha + 3 binomial standard errors of the time (0.048 at 0.05,
    # 0.008 at 0.01), and each decided p is (hits + 1) / (draws + 1) < alpha.
    rejected = total = 0
    for i, base in enumerate(NULL_MARGIN_TABLES):
        t = from_counts(base)
        rng = np.random.Generator(np.random.SFC64(100 + i))
        cells = np.stack(list(_patefield_cells(t, NULL_DRAWS, rng)), axis=1)
        for j, counts in enumerate(cells.reshape(NULL_DRAWS, t.k, t.k)):
            report = fisher_montecarlo_kxk(from_counts(counts), samples=1000, seed=j, alpha=alpha)
            if report.level is not None:
                assert report.level == alpha
                assert report.p_value == (report.hits + 1) / (report.draws + 1) < alpha
            rejected += report.p_value <= alpha
            total += 1
    assert rejected / total <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / total)


# Runs with the level off, each (p_value, draws, hits) and chunk list pinned
# from the sampler as it was before the boundary: a Besag-Clifford stop, a
# full-budget run, a schedule sized from the hits, and the lgamma path past
# _LOG_FACTORIAL_TABLE.
LEVEL_OFF_RUNS = [
    ([[3, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 3]], 10_000, 0,
     (0.08210180623973727, 1218, 100), [256, 960, 256]),
    (np.eye(4, dtype=int) * 10, 10_000, 0, (1 / 10_001, 10_000, 0), [256, 9744]),
    ([[6, 1, 2, 0], [1, 5, 2, 3], [2, 1, 7, 1], [0, 2, 1, 9]], 5000, 2,
     (0.0003999200159968006, 5000, 1), [256, 4744]),
    ([[4, 1, 0, 0], [0, 3, 1, 1], [1, 0, 3, 1], [0, 1, 1, 3]], 10_000, 0,
     (0.022482014388489208, 4448, 100), [256, 3236, 1379]),
    ([[30250, 30000, 29750], [30000, 30000, 30000], [29750, 30000, 30250]], 5000, 5,
     (0.08361204013377926, 1196, 100), [256, 1814]),
]


def test_fisher_montecarlo_level_off_keeps_its_draws(monkeypatch):
    chunks = record_chunks(monkeypatch)
    for counts, samples, seed, pinned, schedule in LEVEL_OFF_RUNS:
        chunks.clear()
        t = from_counts(counts)
        report = fisher_montecarlo_kxk(t, samples, seed, alpha=None)
        assert (report.p_value, report.draws, report.hits) == pinned
        assert chunks == schedule
        assert report.level is None
        assert exact_test(t, "two", samples, seed, alpha=None) == report
    assert max(from_counts(LEVEL_OFF_RUNS[-1][0]).row_totals) > significance._LOG_FACTORIAL_TABLE


def test_fisher_montecarlo_standard_error_is_never_zero():
    # se = sqrt(q (1 - q) / draws) with q = (hits + 1) / (draws + 2): positive
    # when every draw is a hit and when none is.
    for counts, alpha in ((np.full((4, 4), 4), 0.05), (np.eye(4, dtype=int) * 10, None),
                          (np.eye(4, dtype=int) * 10, 0.05)):
        report = fisher_montecarlo_kxk(from_counts(counts), samples=2000, seed=1, alpha=alpha)
        q = (report.hits + 1) / (report.draws + 2)
        assert report.se == math.sqrt(q * (1 - q) / report.draws) > 0


def test_fisher_montecarlo_settles_a_small_p_in_one_chunk(monkeypatch):
    # The first chunk with a level is long enough for a run with no hit to
    # stop there: 256 draws at alpha = 0.05, ceil(log(5e-4) / log(0.99)) = 757
    # at 0.01.  Later chunks at most double the draws, and a large p still
    # stops at its 100th hit.
    chunks = record_chunks(monkeypatch)
    diagonal = from_counts(np.eye(4, dtype=int) * 10)
    for alpha, first in ((0.05, 256), (0.01, 757)):
        chunks.clear()
        report = fisher_montecarlo_kxk(diagonal, samples=100_000, seed=0, alpha=alpha)
        assert chunks == [first]
        assert (report.draws, report.hits, report.level) == (first, 0, alpha)
        assert report.p_value == 1 / (first + 1)
    chunks.clear()
    t = from_counts([[3, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 3]])
    report = fisher_montecarlo_kxk(t, samples=10_000, seed=0)
    assert (report.hits, report.level) == (100, None)
    assert all(m <= sum(chunks[:i]) for i, m in enumerate(chunks) if i)


def test_fisher_montecarlo_checks_its_level():
    t = from_counts(np.eye(3, dtype=int) * 5 + 1)
    for alpha in (0.0, 1.0, "0.05", True, float("nan")):
        for call in (lambda: fisher_montecarlo_kxk(t, 1000, 0, alpha),
                     lambda: exact_test(t, "two", 1000, 0, alpha),
                     lambda: significance_reports(table_a(), ("kb",), alpha=alpha)):
            with pytest.raises(UsageError, match="alpha must lie in"):
                call()
    # Every level in (0, 1) runs, the smallest double included, whose first
    # chunk would be inf draws were it not capped first.
    for alpha in (5e-324, 1e-300, 1 - 2**-53):
        report = fisher_montecarlo_kxk(t, 1000, 0, alpha)
        assert report.level is None or report.p_value < alpha


def test_fisher_montecarlo_deterministic():
    # mid-range p so two different seeds cannot coincide at this resolution
    t = from_counts([[4, 2, 3], [3, 5, 2], [1, 3, 4]])
    p1 = fisher_montecarlo_kxk(t, samples=2000, seed=42).p_value
    p2 = fisher_montecarlo_kxk(t, samples=2000, seed=42).p_value
    p3 = fisher_montecarlo_kxk(t, samples=2000, seed=43).p_value
    assert p1 == p2
    assert 0.05 < p1 < 0.95
    assert p1 != p3


def test_fisher_montecarlo_rejects_tiny_sample_counts():
    with pytest.raises(UsageError):
        fisher_montecarlo_kxk(table_a(), samples=10, seed=0)


def test_fisher_montecarlo_rejects_n_beyond_hypergeometric_range(monkeypatch):
    # numpy's hypergeometric draws need each margin below 10^9; the check must
    # come before the log-factorial table is built.
    def no_table(_):
        raise AssertionError("log-factorial table built before the range check")

    monkeypatch.setattr(math, "lgamma", no_table)
    t = from_counts([[10**9, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DataError):
        fisher_montecarlo_kxk(t, samples=1000, seed=0)


def test_fisher_montecarlo_log_factorials_stop_at_largest_cell(monkeypatch):
    # A cell never exceeds min(largest row, largest column) = 402 here, while
    # n = 1006: the log(i!) table holds 403 entries, not n + 1.
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    t = from_counts([[400, 300, 300], [1, 2, 0], [1, 0, 2]])
    assert t.n == 1006
    fisher_montecarlo_kxk(t, samples=1000, seed=0)
    assert len(calls) == 403


def test_fisher_montecarlo_distinct_cell_log_factorials_keep_p(monkeypatch):
    # Above the table's cap log(i!) is taken at each cell vector's distinct
    # values: the same lgamma doubles added in the same order, so with the cap
    # at 16 every report, stopped or not, keeps its bits.
    tables = [[[20, 3, 4], [5, 18, 2], [1, 6, 25]],
              [[9, 8, 9], [8, 9, 8], [9, 8, 9]],
              [[12, 4, 3, 1], [2, 15, 2, 4], [3, 1, 17, 2], [5, 2, 1, 14]],
              [[6, 5, 5, 4, 5], [5, 6, 4, 5, 5], [4, 5, 6, 5, 5], [5, 5, 5, 6, 4], [5, 4, 5, 5, 6]]]
    before = [fisher_montecarlo_kxk(from_counts(c), samples=3000, seed=9) for c in tables]
    assert {r.hits == 100 for r in before} == {True, False}
    monkeypatch.setattr(significance, "_LOG_FACTORIAL_TABLE", 16)
    after = [fisher_montecarlo_kxk(from_counts(c), samples=3000, seed=9) for c in tables]
    assert after == before


def test_fisher_montecarlo_log_factorials_bounded_at_large_n(monkeypatch):
    # At n near 10^8 a table of log(i!) would take 3.3 * 10^7 lgamma calls
    # and 267 MB; at each cell vector's distinct values it takes at most
    # K^2 per draw, and K^2 for the observed table.
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    t = from_counts(np.eye(3, dtype=int) * 33_333_330 + 1)
    assert 0.99e8 < t.n < 10**8
    report = fisher_montecarlo_kxk(t, samples=1000, seed=0, alpha=None)
    assert report.draws == 1000
    assert 0 < len(calls) <= 9 * (1000 + 1)


def test_fisher_montecarlo_runs_every_line():
    # The bad-argument raises, both log(i!) paths, runs that stop and that
    # reach `samples`, and a chunk sized from the hits so far, each with the
    # level on and off.
    def run():
        for samples, counts in ((10, [[1, 2], [3, 4]]), (1000, np.zeros((3, 3), int)),
                                (1000, [[10**9, 0, 0], [0, 1, 0], [0, 0, 1]])):
            with pytest.raises((UsageError, DataError)):
                fisher_montecarlo_kxk(from_counts(counts), samples=samples)
        for counts in (np.full((4, 4), 4), np.eye(4, dtype=int) * 10,
                       [[3, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 3]],
                       np.eye(3, dtype=int) * 10**5 + 1):
            for alpha in (0.05, None):
                fisher_montecarlo_kxk(from_counts(counts), samples=1000, seed=1, alpha=alpha)

    assert unreached_lines(fisher_montecarlo_kxk, run) == []


def test_fisher_montecarlo_chunks_by_live_cell_vectors(monkeypatch):
    # A chunk holds O(K) cell vectors at once, so no chunk is wider than
    # 2^16 // K draws at any K: at K = 40, 1,638 (not 2^20 // 40^2 = 655); at
    # K = 4, 16,384 (not 2^20 // 4^2 = 65,536); at K = 100, 655.  The first
    # chunk is 256 draws, and while no hit has come the rest are capped, so a
    # table that never stops draws exactly `samples` in as many chunks as a
    # fixed schedule would.  One whose every draw is a hit stops within the
    # first chunk.
    chunks = record_chunks(monkeypatch)
    cases = [(np.eye(40, dtype=int) * 5, 5000, [256, 1638, 1638, 1468]),
             (np.eye(4, dtype=int) * 10, 100_000, [256] + [16_384] * 6 + [1440]),
             (np.eye(4, dtype=int) * 10, 10_000, [256, 9744]),
             (np.eye(100, dtype=int) * 2, 1000, [256, 655, 89])]
    for counts, samples, schedule in cases:
        chunks.clear()
        report = fisher_montecarlo_kxk(from_counts(counts), samples=samples, seed=0, alpha=None)
        assert chunks == schedule
        assert max(chunks) <= (1 << 16) // len(counts)
        assert (report.draws, report.hits) == (samples, 0)
    chunks.clear()
    report = fisher_montecarlo_kxk(from_counts(np.full((4, 4), 4)), samples=100_000, seed=0, alpha=None)
    assert chunks == [256]
    assert report.draws == 100
    # After the first chunk each is sized from the hits so far, so a table
    # that stops near draw 4,400 pays for about 4,900 draws, where capped
    # chunks would have drawn all 10,000.
    chunks.clear()
    counts = [[4, 1, 0, 0], [0, 3, 1, 1], [1, 0, 3, 1], [0, 1, 1, 3]]
    report = fisher_montecarlo_kxk(from_counts(counts), samples=10_000, seed=0, alpha=None)
    assert report.hits == 100 and 1024 < report.draws < 10_000
    assert chunks == [256, 3236, 1379]
    assert sum(chunks) < 1.2 * report.draws


# Goodness of fit of the fixed-margin sampler to the exact law, at level
# 0.001 with a fixed seed: categories expected fewer than 5 times are pooled.
FIT_LEVEL = 0.001
FIT_DRAWS = 20_000


def _sampled_tables(counts, seed):
    t = from_counts(counts)
    rng = np.random.Generator(np.random.SFC64(seed))
    cells = np.stack(list(_patefield_cells(t, FIT_DRAWS, rng)), axis=1)
    tables = cells.reshape(FIT_DRAWS, t.k, t.k)
    assert (tables >= 0).all()
    assert (tables.sum(axis=2) == t.row_totals).all()
    assert (tables.sum(axis=1) == t.col_totals).all()
    return tables


def _fit_p_value(observed, probabilities):
    expected = FIT_DRAWS * np.asarray(probabilities, dtype=float)
    observed = np.asarray(observed, dtype=float)
    keep = expected >= 5.0
    o, e = observed[keep], expected[keep]
    if not keep.all():
        o, e = np.append(o, observed[~keep].sum()), np.append(e, expected[~keep].sum())
    return chi2_sf(float(((o - e) ** 2 / e).sum()), len(e) - 1)


@pytest.mark.parametrize("counts", [[[3, 2], [3, 4]], [[30, 12], [15, 23]]])
def test_patefield_cells_fit_hypergeometric_law_2x2(counts):
    tables = _sampled_tables(counts, seed=11)
    (rp, rn), pp = np.sum(counts, axis=0), sum(counts[0])
    weights = reference_stats.hypergeom_numerators(int(rp), int(rn), int(pp))
    total = math.comb(int(rp + rn), int(pp))
    drawn = tables[:, 0, 0]
    assert set(np.unique(drawn)) <= set(weights)
    observed = [(drawn == a).sum() for a in weights]
    assert _fit_p_value(observed, [w / total for w in weights.values()]) > FIT_LEVEL


@pytest.mark.parametrize("counts", [[[1, 1, 1], [0, 1, 2], [1, 1, 1]],
                                    [[0, 1, 0], [2, 0, 0], [2, 3, 1]]])
def test_patefield_cells_fit_enumerated_law_3x3(counts):
    tables = _sampled_tables(counts, seed=12)
    law = reference_stats.fixed_margin_law(np.sum(counts, axis=1).tolist(),
                                           np.sum(counts, axis=0).tolist())
    drawn, freq = np.unique(tables.reshape(FIT_DRAWS, -1), axis=0, return_counts=True)
    seen = dict(zip(map(tuple, drawn.tolist()), freq.tolist()))
    assert set(seen) <= set(law)
    assert _fit_p_value([seen.get(key, 0) for key in law], list(law.values())) > FIT_LEVEL


def test_williams_independence_even_margin_formula():
    t = from_counts([[30, 20], [20, 30]])
    _, g2 = full_table_tests(t)
    corrected = williams_correction(g2, t)
    # harmonic-mean margins are 0.5, so a^2 - 1 = (4 - 1)(4 - 1) = 9
    q = 1 + 9 / (6 * 100 * 1)
    assert corrected.value == pytest.approx(g2.value / q, abs=1e-12)
    assert "williams" in corrected.corrections
    assert corrected.value < g2.value


def test_williams_goodness_of_fit_formula():
    t = table_a()
    report = g2_positive(t)
    corrected = williams_correction(report, t)
    q = 1 + (2**2 - 1) / (6 * 100 * (2 - 1))
    assert corrected.value == pytest.approx(report.value / q, abs=1e-12)
    assert corrected.value == pytest.approx(1.162967, abs=1e-6)


def test_williams_vanishes_for_large_n():
    t = from_counts([[30, 20], [20, 30]])
    big = from_counts(t.counts * 10_000)
    _, g2 = full_table_tests(big)
    corrected = williams_correction(g2, big)
    assert corrected.value / g2.value == pytest.approx(1.0, abs=1e-5)


def test_chi2_sf_closed_forms():
    # r = 2 gives exp(-x/2); r = 4 gives exp(-x/2) (1 + x/2); r = 1 ties to erfc
    for x in (0.1, 0.7, 1.5, 3.0, 7.0, 15.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-10)
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-x / 2) * (1 + x / 2), rel=1e-10)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-10)


def test_chi2_sf_threshold_and_edges():
    assert chi2_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
    for r in range(1, 11):
        assert chi2_sf(0.0, r) == 1.0
    values = [chi2_sf(x, 3) for x in np.linspace(0.0, 30.0, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_chi2_sf_tiny_statistic_at_large_df():
    # From df = 200 the prefactor takes Stirling's form; a statistic that is
    # a rounding residue of zero (a K >= 15 table at independence) must give
    # the tail 1, not fail where (x - a) / a rounds to -1.
    for df in (200, 225, 2401, 998_001):
        for x in (5e-324, 1e-300, 1e-25, 1e-20, 1e-8):
            assert chi2_sf(x, df) == 1.0
    for df in (225, 2401):
        assert chi2_sf(1e300, df) == 0.0


def test_chi2_sf_absolute_error_against_mpmath():
    # The docstring's bound, checked at df = 1..2401 ((K-1)^2 at K = 50) and
    # x = 0..5000: fixed points plus points around the mean, where the tail
    # falls from near 1 to near 0.
    dfs = (1, 2, 3, 4, 5, 9, 16, 49, 100, 225, 484, 961, 1600, 2025, 2401)
    fixed = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 2000.0, 3000.0, 5000.0)
    worst = 0.0
    with mpmath.workdps(30):
        for df in dfs:
            around = (0.9 * df, float(df), 1.1 * df, df + 3.0 * math.sqrt(2.0 * df))
            for x in fixed + around:
                oracle = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))
                worst = max(worst, abs(chi2_sf(x, df) - oracle))
    assert worst < 1e-10


def test_report_p_values_recompute():
    t = table_a()
    reports = [
        chi2_positive(t), g2_positive(t),
        chi2_bookmaker_family(t, "kb"), chi2_bookmaker_family(t, "xbm"),
        *full_table_tests(t),
    ]
    for r in reports:
        assert r.p_value == pytest.approx(chi2_sf(r.value, r.df), abs=1e-12)


def test_posthoc_calibration():
    cal = posthoc_calibration(0.05)
    assert cal.l_bound == pytest.approx(-math.e * 0.05 * math.log(0.05), abs=1e-12)
    assert cal.l_bound == pytest.approx(0.4071622, abs=1e-6)
    assert cal.alpha_post == pytest.approx(0.2893499, abs=1e-6)
    assert cal.alpha_post + cal.beta_post == pytest.approx(1.0, abs=1e-12)
    assert posthoc_calibration(1e-8).alpha_post < 1e-6
    near = posthoc_calibration(1 / math.e - 1e-9)
    assert near.l_bound == pytest.approx(1.0, abs=1e-6)
    assert near.alpha_post == pytest.approx(0.5, abs=1e-6)


def test_posthoc_calibration_range():
    for bad in (0.0, 1 / math.e, 0.5, 1.0):
        with pytest.raises(DataError):
            posthoc_calibration(bad)
