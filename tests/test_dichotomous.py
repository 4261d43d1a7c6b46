"""Two-class statistics: fixture values, identities, and edge behavior."""

import math

import numpy as np
import pytest

from chancekit.contingency import CostModel, from_counts, repair_zero_margins, transform
from chancekit.dichotomous import (
    auc_single_point,
    binary_stats,
    regression_coefficients,
    wracc,
)
from chancekit.errors import DataError, UsageError
from helpers import random_valid_tables, table_a, table_b

# published 4-decimal fixture values; tolerance half a unit in the last place
FOUR_DP = 5e-5


def test_fixture_a_headline_metrics():
    s = binary_stats(table_a())
    assert s.recall == pytest.approx(0.8235, abs=FOUR_DP)
    assert s.precision == pytest.approx(0.7368, abs=FOUR_DP)
    assert s.f1 == pytest.approx(0.7778, abs=FOUR_DP)
    assert s.g_measure == pytest.approx(0.7790, abs=FOUR_DP)
    assert s.rand_accuracy == pytest.approx(0.6800, abs=FOUR_DP)
    assert s.informedness == pytest.approx(0.1985, abs=FOUR_DP)
    assert s.markedness == pytest.approx(0.2368, abs=FOUR_DP)
    assert s.correlation == pytest.approx(0.2168, abs=FOUR_DP)
    assert s.kappa == pytest.approx(0.2126, abs=FOUR_DP)


def test_fixture_b_headline_metrics():
    s = binary_stats(table_b())
    assert s.recall == pytest.approx(0.5000, abs=FOUR_DP)
    assert s.precision == pytest.approx(0.7143, abs=FOUR_DP)
    assert s.f1 == pytest.approx(0.5882, abs=FOUR_DP)
    assert s.g_measure == pytest.approx(0.5976, abs=FOUR_DP)
    assert s.rand_accuracy == pytest.approx(0.5800, abs=FOUR_DP)
    assert s.informedness == pytest.approx(0.2000, abs=FOUR_DP)
    assert s.markedness == pytest.approx(0.1970, abs=FOUR_DP)
    assert s.correlation == pytest.approx(0.1985, abs=FOUR_DP)
    assert s.kappa == pytest.approx(0.1860, abs=FOUR_DP)


def test_fixture_a_secondary_fields():
    # the record stores joint and marginal probabilities, not raw counts
    s = binary_stats(table_a())
    assert (s.tp, s.fp, s.fn, s.tn) == (0.56, 0.2, 0.12, 0.12)
    assert (s.rp, s.rn, s.pp, s.pn) == (0.68, 0.32, 0.76, 0.24)
    assert s.jaccard == pytest.approx(56 / 88, abs=1e-12)
    assert s.lr == pytest.approx((56 / 68) / (20 / 32), abs=1e-12)
    assert s.nlr == pytest.approx((12 / 68) / (12 / 32), abs=1e-12)
    assert s.ps_negative == pytest.approx(2 * 12 / (2 * 12 + 20 + 12), abs=1e-12)
    assert s.dtp == pytest.approx(0.0432, abs=1e-12)
    assert s.deltap == pytest.approx(2 * 0.0432, abs=1e-12)
    assert s.rh == pytest.approx(2 * 0.68 * 0.32 / (0.68 + 0.32), abs=1e-12)
    assert s.ph == pytest.approx(2 * 0.76 * 0.24 / (0.76 + 0.24), abs=1e-12)
    assert s.etp == pytest.approx(0.76 * 0.68, abs=1e-12)
    assert s.skew == pytest.approx(32 / 68, abs=1e-12)
    assert s.sq_err_to_optimum == pytest.approx((20 / 32) ** 2 + (12 / 68) ** 2, abs=1e-12)


def test_perfect_classifier():
    s = binary_stats(from_counts([[50, 0], [0, 50]]))
    for field in ("recall", "precision", "informedness", "markedness", "correlation", "kappa"):
        assert getattr(s, field) == pytest.approx(1.0, abs=1e-12)


def test_identical_rows_give_zero_association():
    s = binary_stats(from_counts([[38, 12], [38, 12]]))
    for field in ("informedness", "markedness", "correlation", "kappa"):
        assert getattr(s, field) == pytest.approx(0.0, abs=1e-12)


def test_zero_margin_errors_name_the_margin():
    with pytest.raises(DataError, match="column"):
        binary_stats(from_counts([[5, 0], [3, 0]]))
    with pytest.raises(DataError, match="row"):
        binary_stats(from_counts([[0, 0], [3, 2]]))


def test_repair_flag_allows_degenerate_input():
    # The CLI's --repair-margins: repair_zero_margins, then the measure.
    s = binary_stats(repair_zero_margins(from_counts([[5, 0], [3, 0]])))
    assert math.isfinite(s.informedness)


def test_auc_examples():
    assert auc_single_point(binary_stats(table_a())) == pytest.approx(0.5993, abs=FOUR_DP)
    assert auc_single_point(binary_stats(from_counts([[50, 0], [0, 50]]))) == 1.0
    # tpr = fpr puts the operating point on the chance diagonal
    s = binary_stats(from_counts([[30, 10], [30, 10]]))
    assert auc_single_point(s) == pytest.approx(0.5, abs=1e-12)


def test_wracc_skew_insensitive_equals_informedness():
    for t in (table_a(), table_b()):
        s = binary_stats(t)
        assert wracc(s, CostModel(cs=1.0, cv=1.0)) == pytest.approx(s.informedness, abs=1e-12)


def test_wracc_table_skew_fixture():
    s = binary_stats(table_a())
    got = wracc(s)
    assert got == pytest.approx(4 * (s.recall - 0.76) * 0.68, abs=1e-12)
    # reference arithmetic was printed from 4-decimal-rounded recall, so the
    # last digit is off by one: exact value is 0.1728
    assert got == pytest.approx(0.1729, abs=1.5e-4)


def test_wracc_perfect_even_table():
    s = binary_stats(from_counts([[50, 0], [0, 50]]))
    assert wracc(s, CostModel(cs=1.0, cv=1.0)) == pytest.approx(1.0, abs=1e-12)


def test_cost_model_from_table():
    t = table_a()
    cost = CostModel.from_table(t)
    assert cost.cs == pytest.approx(32 / 68, abs=1e-15)  # rn / rp = 0.470588...
    s = binary_stats(t)
    assert wracc(s, cost) == pytest.approx(s.wracc, abs=1e-12)
    with pytest.raises(UsageError):
        CostModel.from_table(from_counts([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
    with pytest.raises(DataError):
        CostModel.from_table(from_counts([[0, 3], [0, 4]]))


def test_wracc_rejects_nonpositive_cost():
    s = binary_stats(table_a())
    with pytest.raises(UsageError):
        wracc(s, CostModel(cs=-1.0, cv=1.0))


def test_regression_coefficients():
    r_p, r_r, r_g = regression_coefficients(table_a())
    assert r_p == pytest.approx(0.2368, abs=FOUR_DP)
    assert r_r == pytest.approx(0.1985, abs=FOUR_DP)
    assert r_g == pytest.approx(0.2168, abs=FOUR_DP)
    s = binary_stats(table_a())
    assert r_p == pytest.approx(s.markedness, abs=1e-14)
    assert r_r == pytest.approx(s.informedness, abs=1e-14)
    assert r_g == pytest.approx(s.correlation, abs=1e-14)
    assert regression_coefficients(from_counts([[50, 0], [0, 50]])) == pytest.approx((1, 1, 1))
    assert regression_coefficients(from_counts([[8, 2], [8, 2]])) == pytest.approx((0, 0, 0), abs=1e-14)


def test_infinite_likelihood_ratio_boundary():
    s = binary_stats(from_counts([[5, 0], [3, 2]]))
    assert s.lr == math.inf
    assert math.isfinite(s.informedness)


TOL = 1e-10


def test_core_identities_on_random_tables():
    # the heavyweight 10^4-table sweep lives in the acceptance gate; this is
    # the same battery on a smaller sample for fast local iteration
    for t in random_valid_tables(917, 300):
        s = binary_stats(t)
        tpr, fpr = s.recall, s.fallout
        prev, bias = s.rp / (s.rp + s.rn), s.pp / (s.pp + s.pn)
        assert abs(s.informedness - (tpr - fpr)) < TOL
        assert abs(s.informedness - s.deltap / s.rh) < TOL
        assert abs(s.markedness - s.deltap / s.ph) < TOL
        assert abs(s.correlation**2 - s.informedness * s.markedness) < TOL
        assert abs(s.rand_accuracy - (2 * s.recall * prev + 1 - bias - prev)) < TOL
        assert abs(s.precision - s.recall * prev / bias) < TOL
        assert abs(s.f1 - 2 * s.recall * prev / (bias + prev)) < TOL
        assert abs(s.jaccard - s.f1 / (2 - s.f1)) < TOL
        assert abs(s.recall - (s.informedness * (1 - prev) + bias)) < TOL
        assert abs(s.precision - (s.markedness * (1 - bias) + prev)) < TOL
        assert abs(auc_single_point(s) - (s.informedness + 1) / 2) < TOL


def test_transform_identities_on_random_tables():
    for t in random_valid_tables(918, 200):
        s = binary_stats(t)
        inv = binary_stats(transform(t, "inverse"))
        dual = binary_stats(transform(t, "dual"))
        perv = binary_stats(transform(t, "perverse_rows"))
        for field in ("informedness", "markedness", "correlation", "kappa"):
            assert abs(getattr(s, field) - getattr(inv, field)) < TOL
        assert abs(dual.informedness - s.markedness) < TOL
        assert abs(dual.markedness - s.informedness) < TOL
        assert abs(perv.informedness + s.informedness) < TOL
        assert abs(perv.markedness + s.markedness) < TOL
        assert abs(perv.correlation + s.correlation) < TOL


def test_count_scaling_invariance():
    rng = np.random.default_rng(919)
    for t in random_valid_tables(920, 50):
        m = int(rng.integers(2, 9))
        s = binary_stats(t)
        scaled = binary_stats(from_counts(t.counts * m))
        for field in ("recall", "precision", "f1", "informedness", "markedness",
                      "correlation", "kappa", "jaccard", "rand_accuracy"):
            assert abs(getattr(s, field) - getattr(scaled, field)) < TOL
