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
    williams_correction,
)
from helpers import random_valid_tables, table_a, table_b, unreached_lines
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


def test_fisher_montecarlo_agrees_with_exact_2x2():
    t = table_a()
    exact = fisher_exact_2x2(t, "two").p_value
    mc = fisher_montecarlo_kxk(t, samples=100_000, seed=5).p_value
    se = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(mc - exact) < 3 * se


def test_fisher_montecarlo_perfect_diagonal():
    # No draw is as improbable as the diagonal, so p is (0 + 1) / (samples + 1).
    t = from_counts(np.eye(4, dtype=int) * 10)
    assert fisher_montecarlo_kxk(t, samples=2000, seed=1).p_value == 1 / 2001


def test_fisher_montecarlo_independent_table():
    t = from_counts(np.full((4, 4), 4))
    assert fisher_montecarlo_kxk(t, samples=2000, seed=1).p_value > 0.5


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


def test_fisher_montecarlo_chunks_by_live_cell_vectors(monkeypatch):
    # A chunk holds O(K) cell vectors at once, so it is 2^16 // K draws wide
    # at every K: at K = 40, 1638 draws (not 2^20 // 40^2 = 655), so 1000
    # draws take one chunk; at K = 4, 16,384 (not 2^20 // 4^2 = 65,536), so
    # 100,000 draws take six full chunks and the rest.
    chunks = []
    cells = significance._patefield_cells
    monkeypatch.setattr(significance, "_patefield_cells",
                        lambda t, m, rng: chunks.append(m) or cells(t, m, rng))
    fisher_montecarlo_kxk(from_counts(np.eye(40, dtype=int) + 1), samples=1000, seed=0)
    assert chunks == [1000]
    chunks.clear()
    fisher_montecarlo_kxk(from_counts(np.eye(4, dtype=int) + 1), samples=100_000, seed=0)
    assert chunks == [16_384] * 6 + [100_000 - 6 * 16_384]


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
    corrected = williams_correction(g2, t, "independence")
    # harmonic-mean margins are 0.5, so a^2 - 1 = (4 - 1)(4 - 1) = 9
    q = 1 + 9 / (6 * 100 * 1)
    assert corrected.value == pytest.approx(g2.value / q, abs=1e-12)
    assert "williams" in corrected.corrections
    assert corrected.value < g2.value


def test_williams_goodness_of_fit_formula():
    t = table_a()
    report = g2_positive(t)
    corrected = williams_correction(report, t, "goodness_of_fit")
    q = 1 + (2**2 - 1) / (6 * 100 * (2 - 1))
    assert corrected.value == pytest.approx(report.value / q, abs=1e-12)
    assert corrected.value == pytest.approx(1.162967, abs=1e-6)


def test_williams_vanishes_for_large_n():
    t = from_counts([[30, 20], [20, 30]])
    big = from_counts(t.counts * 10_000)
    _, g2 = full_table_tests(big)
    corrected = williams_correction(g2, big, "independence")
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
