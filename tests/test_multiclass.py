"""K-class statistics: reductions to the two-class case, per-label
reconstruction, determinant estimates, evenness, and information measures."""

import math
from pathlib import Path

import numpy as np
import pytest

from chancekit.contingency import dichotomize, from_counts, load_table_csv, margins, transform
from chancekit.dichotomous import binary_stats
from chancekit.errors import DataError
from chancekit.multiclass import (
    bookmaker_informedness,
    conditional_entropy,
    correlation_bmg,
    det_estimates,
    evenness_variants,
    macro_averages,
    multiclass_kappa,
    multiclass_markedness,
    multiclass_stats,
    mutual_information,
)
from helpers import random_valid_table, random_valid_tables, table_a

DATA = Path(__file__).parent / "data"
PERFECT3 = from_counts([[20, 0, 0], [0, 30, 0], [0, 0, 10]])
UNIFORM3 = from_counts([[4, 4, 4], [4, 4, 4], [4, 4, 4]])


def test_two_class_reduction_on_fixture():
    t = table_a()
    s = binary_stats(t)
    assert bookmaker_informedness(t) == pytest.approx(s.informedness, abs=1e-14)
    assert multiclass_markedness(t) == pytest.approx(s.markedness, abs=1e-14)
    assert correlation_bmg(t) == pytest.approx(s.correlation, abs=1e-14)
    assert multiclass_kappa(t) == pytest.approx(s.kappa, abs=1e-14)


def test_perfect_and_uniform_three_class():
    assert bookmaker_informedness(PERFECT3) == pytest.approx(1.0, abs=1e-12)
    assert multiclass_markedness(PERFECT3) == pytest.approx(1.0, abs=1e-12)
    assert correlation_bmg(PERFECT3) == pytest.approx(1.0, abs=1e-12)
    assert multiclass_kappa(PERFECT3) == pytest.approx(1.0, abs=1e-12)
    assert bookmaker_informedness(UNIFORM3) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(UNIFORM3) == pytest.approx(0.0, abs=1e-12)
    assert multiclass_kappa(UNIFORM3) == pytest.approx(0.0, abs=1e-12)


def test_weight_override():
    t = from_counts([[9, 2, 1], [3, 8, 2], [1, 1, 7]])
    m = margins(t)
    per_label = [
        binary_stats(dichotomize(t, i)).informedness for i in range(3)
    ]
    expect_prev = sum(p * b for p, b in zip(m.prevalence, per_label))
    expect_bias = sum(p * b for p, b in zip(m.bias, per_label))
    assert bookmaker_informedness(t) == pytest.approx(expect_prev, abs=1e-12)
    assert bookmaker_informedness(t, weights="bias") == pytest.approx(expect_bias, abs=1e-12)


def test_markedness_is_dual_informedness():
    for t in random_valid_tables(531, 30, k=4, cell_max=20):
        assert multiclass_markedness(t) == pytest.approx(
            bookmaker_informedness(transform(t, "dual")), abs=1e-12
        )


def test_correlation_undefined_for_opposite_signs():
    # informedness -0.023, markedness +0.035: no real geometric mean
    t = from_counts([[4, 6, 1], [5, 1, 0], [5, 1, 5]])
    assert bookmaker_informedness(t) < 0 < multiclass_markedness(t)
    assert math.isnan(correlation_bmg(t))


def test_correlation_squared_is_product():
    for t in random_valid_tables(532, 50, k=3, cell_max=30):
        c = correlation_bmg(t)
        if math.isnan(c):
            continue
        assert c * c == pytest.approx(
            abs(bookmaker_informedness(t) * multiclass_markedness(t)), abs=1e-12
        )


def test_mutual_information_fixture_oracle():
    # direct cell-by-cell summation oracle
    t = table_a()
    joint = t.counts / t.n
    bias = joint.sum(axis=1)
    prev = joint.sum(axis=0)
    expect = sum(
        joint[i, j] * math.log(joint[i, j] / (bias[i] * prev[j]))
        for i in range(2)
        for j in range(2)
        if joint[i, j] > 0
    )
    assert mutual_information(t) == pytest.approx(expect, abs=1e-12)
    assert mutual_information(t) == pytest.approx(0.0225, abs=5e-5)


def test_conditional_entropy_fixture_oracle():
    t = table_a()
    joint = t.counts / t.n
    bias = joint.sum(axis=1)
    expect = -sum(
        joint[i, j] * math.log(joint[i, j] / bias[i])
        for i in range(2)
        for j in range(2)
        if joint[i, j] > 0
    )
    assert conditional_entropy(t) == pytest.approx(expect, abs=1e-12)


def test_perfect_uniform_diagonal_information():
    t = from_counts([[50, 0], [0, 50]])
    assert mutual_information(t) == pytest.approx(math.log(2), abs=1e-12)
    assert conditional_entropy(t) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_of_a_perfect_table_is_positive_zero():
    # The negated sum of exact zeros would be -0.0 and print as -0.000000.
    t = load_table_csv(DATA / "table7perfect.csv")
    assert conditional_entropy(t) == 0.0
    assert math.copysign(1.0, conditional_entropy(t)) == 1.0
    assert math.copysign(1.0, multiclass_stats(t).conditional_entropy) == 1.0


def test_mutual_information_zero_iff_independent():
    indep = from_counts([[8, 2], [8, 2]])
    assert mutual_information(indep) == pytest.approx(0.0, abs=1e-10)
    dep = from_counts([[9, 1], [2, 8]])
    assert mutual_information(dep) > 1e-3


def test_det_estimates_exact_at_two_classes():
    t = table_a()
    s = binary_stats(t)
    for rule in ("two_over_k", "inverse_3k_minus_2"):
        m_est, b_est, c_est = det_estimates(t, rule)
        assert b_est == pytest.approx(s.informedness, abs=1e-12)
        assert m_est == pytest.approx(s.markedness, abs=1e-12)
        assert c_est == pytest.approx(s.correlation, abs=1e-12)


def test_det_estimates_perfect_uniform_four_class():
    t = from_counts(np.eye(4, dtype=int) * 25)
    for rule in ("two_over_k", "inverse_3k_minus_2"):
        assert det_estimates(t, rule) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_det_estimates_independent_table_is_zero():
    assert det_estimates(UNIFORM3) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def _large_table(k):
    """K x K: diagonal 200, off-diagonal cells 0-19, so the determinant and
    the margin products underflow when multiplied out at K >= 100."""
    counts = np.random.default_rng(k).integers(0, 20, size=(k, k))
    np.fill_diagonal(counts, 200)
    return from_counts(counts)


def test_det_estimates_finite_at_k100():
    # np.prod of the margins underflows to 0 here, which used to divide by 0
    t = _large_table(100)
    for rule in ("two_over_k", "inverse_3k_minus_2"):
        estimates = det_estimates(t, rule)
        assert all(math.isfinite(v) and v > 0.0 for v in estimates)


def test_margin_products_in_log_space_at_k1000():
    t = _large_table(1000)
    k = t.k
    m = margins(t)
    log_prev, log_bias = np.log(m.prevalence).sum(), np.log(m.bias).sum()
    ev = evenness_variants(t)
    for got, log_product in ((ev.r_plus, log_prev), (ev.p_plus, log_bias),
                             (ev.g_plus, 0.5 * (log_prev + log_bias))):
        assert got > 0.0 and math.isfinite(got)
        assert got == pytest.approx(math.exp(2.0 * log_product / k), rel=1e-12)
    sign, log_det = np.linalg.slogdet(t.counts / t.n)
    assert sign == 1.0
    for rule, e in (("two_over_k", 2.0 / k), ("inverse_3k_minus_2", 4.0 / (3.0 * k - 2.0))):
        expect = [math.exp(e * (log_det - log_m))
                  for log_m in (log_bias, log_prev, 0.5 * (log_prev + log_bias))]
        got = det_estimates(t, rule)
        assert all(v > 0.0 and math.isfinite(v) for v in got)
        assert got == pytest.approx(expect, rel=1e-12)


def test_evenness_two_class_fixture():
    ev = evenness_variants(table_a())
    # at K=2 both labels share the same dichotomous margin product, so the
    # plus, minus, and hash forms all collapse to it
    assert ev.r_plus == pytest.approx(0.2176, abs=1e-12)
    assert ev.r_minus == pytest.approx(0.2176, abs=1e-12)
    assert ev.r_hash == pytest.approx(0.2176, abs=1e-12)
    assert ev.p_plus == pytest.approx(0.1824, abs=1e-12)
    assert ev.g_plus == pytest.approx(math.sqrt(0.2176 * 0.1824), abs=1e-12)
    assert ev.r_plus == pytest.approx(ev.r_minus * ev.r_hash / 0.2176, abs=1e-12)


def test_evenness_even_margins():
    ev = evenness_variants(from_counts([[25, 25], [25, 25]]))
    assert ev.r_plus == ev.r_minus == ev.r_hash == pytest.approx(0.25, abs=1e-14)
    assert ev.p_plus == pytest.approx(0.25, abs=1e-14)
    assert ev.g_plus == pytest.approx(0.25, abs=1e-14)


def test_evenness_plus_form_direct_formula():
    t = from_counts([[5, 1, 2], [0, 7, 1], [2, 2, 9]])
    m = margins(t)
    expect_r = float(np.prod(m.prevalence)) ** (2 / 3)
    expect_p = float(np.prod(m.bias)) ** (2 / 3)
    ev = evenness_variants(t)
    assert ev.r_plus == pytest.approx(expect_r, abs=1e-12)
    assert ev.p_plus == pytest.approx(expect_p, abs=1e-12)
    assert ev.g_plus == pytest.approx(math.sqrt(expect_r * expect_p), abs=1e-12)


def test_evenness_minus_and_hash_are_means_of_dichotomous_terms():
    t = from_counts([[5, 1, 2], [0, 7, 1], [2, 2, 9]])
    m = margins(t)
    terms = [p * (1 - p) for p in m.prevalence]
    ev = evenness_variants(t)
    assert ev.r_minus == pytest.approx(sum(terms) / 3, abs=1e-12)
    assert ev.r_hash == pytest.approx(3 / sum(1 / x for x in terms), abs=1e-12)


def test_multiclass_stats_record():
    t = from_counts([[9, 2, 1], [3, 8, 2], [1, 1, 7]])
    st = multiclass_stats(t)
    assert st.informedness == pytest.approx(bookmaker_informedness(t), abs=1e-14)
    assert st.markedness == pytest.approx(multiclass_markedness(t), abs=1e-14)
    assert st.correlation == pytest.approx(correlation_bmg(t), abs=1e-14)
    assert st.kappa == pytest.approx(multiclass_kappa(t), abs=1e-14)
    assert st.mutual_information == pytest.approx(mutual_information(t), abs=1e-14)
    assert len(st.label_informedness) == 3
    assert len(st.class_markedness) == 3
    assert (st.wav, st.gav, st.fav) == macro_averages(t)


def test_per_label_reconstruction():
    for k in (3, 4, 5):
        for t in random_valid_tables(533 + k, 25, k=k, cell_max=15):
            st = multiclass_stats(t)
            m = margins(t)
            b = sum(p * bl for p, bl in zip(m.prevalence, st.label_informedness))
            mm = sum(p * mc for p, mc in zip(m.bias, st.class_markedness))
            assert st.informedness == pytest.approx(b, abs=1e-12)
            assert st.markedness == pytest.approx(mm, abs=1e-12)


def test_macro_averages_fixture():
    wav, gav, fav = macro_averages(table_a())
    s = binary_stats(table_a())
    s_inv = binary_stats(transform(table_a(), "inverse"))
    assert wav == pytest.approx(0.68 * s.recall + 0.32 * s_inv.recall, abs=1e-12)
    assert wav == pytest.approx(s.rand_accuracy, abs=1e-12)
    assert gav == pytest.approx(0.68 * s.g_measure + 0.32 * s_inv.g_measure, abs=1e-12)
    assert fav == pytest.approx(0.68 * s.f1 + 0.32 * s_inv.f1, abs=1e-12)


def test_macro_averages_edges():
    assert macro_averages(PERFECT3) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    wav, _, _ = macro_averages(UNIFORM3)
    assert wav == pytest.approx(1 / 3, abs=1e-12)


def test_zero_margin_is_data_error():
    t = from_counts([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    for op in (bookmaker_informedness, multiclass_markedness, mutual_information,
               evenness_variants, macro_averages, multiclass_stats):
        with pytest.raises(DataError):
            op(t)


def test_inverse_invariance_all_k():
    rng = np.random.default_rng(534)
    for k in (2, 3, 4):
        t = random_valid_table(rng, k=k, cell_max=20)
        inv = transform(t, "inverse")
        assert bookmaker_informedness(inv) == pytest.approx(bookmaker_informedness(t), abs=1e-12)
        assert multiclass_markedness(inv) == pytest.approx(multiclass_markedness(t), abs=1e-12)
