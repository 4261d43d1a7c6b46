"""Differential tests of the per-table summary behind every chance-corrected
measure: its per-label vectors must equal the one-vs-rest records built by
dichotomize and binary_stats, and every reader of it must see the same
informedness and markedness, bit for bit; the vectorised entropies, the
evenness forms and the log-space margin products must match the cell and
label loops and np.prod products of reference_stats to a stated relative
tolerance."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_stats as ref
from chancekit import contingency
from chancekit.confidence import confidence_interval, evenness_factor
from chancekit.contingency import dichotomize, from_counts, margins, require_positive_margins
from chancekit.errors import DataError
from chancekit.dichotomous import binary_stats
from chancekit.multiclass import (
    EXPONENT_RULES,
    bookmaker_informedness,
    conditional_entropy,
    det_estimates,
    evenness_variants,
    macro_averages,
    multiclass_kappa,
    multiclass_markedness,
    multiclass_stats,
    mutual_information,
)
from chancekit.significance import (
    FAMILY_KINDS,
    chi2_bookmaker_family,
    cramers_v,
    full_table_tests,
    significance_reports,
)


@st.composite
def positive_margin_tables(draw, sparse=False):
    """K x K tables, K in 2..12; one extra count per row, in distinct
    columns, makes every margin positive.  sparse=True mixes in zero cells
    and small counts."""
    k = draw(st.integers(2, 12))
    cell = st.integers(0, 10**6)
    if sparse:
        cell = st.just(0) | st.integers(0, draw(st.sampled_from((1, 3, 10**6))))
    cells = draw(st.lists(cell, min_size=k * k, max_size=k * k))
    columns = draw(st.permutations(range(k)))
    counts = np.array(cells, dtype=np.int64).reshape(k, k)
    counts[np.arange(k), columns] += 1
    return from_counts(counts)


@settings(max_examples=300, deadline=None)
@given(positive_margin_tables())
def test_summary_matches_one_vs_rest_records(t):
    stats = multiclass_stats(t)
    per_label = [binary_stats(dichotomize(t, i)) for i in range(t.k)]
    assert stats.label_informedness == tuple(s.informedness for s in per_label)
    assert stats.class_markedness == tuple(s.markedness for s in per_label)
    m = margins(t)
    # Both are clamped to [-1, 1]: the weights can sum to one ulp above 1.
    b_ref = np.dot(m.prevalence, [s.informedness for s in per_label])
    m_ref = np.dot(m.bias, [s.markedness for s in per_label])
    assert stats.informedness == float(np.clip(b_ref, -1.0, 1.0))
    assert stats.markedness == float(np.clip(m_ref, -1.0, 1.0))
    # Each is clamped at 1, as B and M are.
    assert (stats.wav, stats.gav, stats.fav) == tuple(
        min(1.0, float(sum(m.prevalence[i] * getattr(s, field) for i, s in enumerate(per_label))))
        for field in ("recall", "g_measure", "f1")
    )

    assert bookmaker_informedness(t) == stats.informedness
    assert multiclass_markedness(t) == stats.markedness

    # b * b, not b**2: libm's pow can be one unit in the last place off.  Each
    # statistic keeps its own operation order: (k - 1) * (k * n * base) would
    # add a rounding step to xb.
    b, m, k, n, ev = stats.informedness, stats.markedness, t.k, t.n, stats.evenness
    base = {"b": (b * b) * ev.r_minus, "m": (m * m) * ev.p_minus, "bm": (b * m) * ev.g_minus}
    conv = {"b": b * b, "m": m * m, "bm": b * m}
    for measure in base:
        assert chi2_bookmaker_family(t, "k" + measure).value == k * n * base[measure]
        assert chi2_bookmaker_family(t, "x" + measure).value == (k - 1) * k * n * base[measure]
        assert chi2_bookmaker_family(t, "conv_" + measure).value == (k - 1) * n * conv[measure]


_ONE_VS_REST = ("tp", "fp", "fn", "tn", "rp", "rn", "pp", "pn", "precision", "recall",
                "informedness", "markedness", "f1", "g_measure")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
def test_binary_record_is_the_summary_first_label(cells):
    t = from_counts(np.array(cells, dtype=np.int64).reshape(2, 2) + np.eye(2, dtype=np.int64))
    stats, s = binary_stats(t), t._summary
    for name in _ONE_VS_REST:
        vector = getattr(s, name)
        assert getattr(stats, name) == float(vector[0]), name
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0
    assert stats.kappa == s.kappa == multiclass_kappa(t)


@st.composite
def dominated_tables(draw):
    """K x K tables, K in 2..6, with every margin positive; in half of them
    one cell holds all but a few counts of a total up to 2^62, so a class
    can hold less than 1e-16 of n, where 1 - pe rounds to 0 in floats.  The
    other cells stay below 1000, so the 2x2 exact test sums few terms."""
    k = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, draw(st.sampled_from((3, 1000)))),
                          min_size=k * k, max_size=k * k))
    counts = [cells[i * k:(i + 1) * k] for i in range(k)]
    for i, j in enumerate(draw(st.permutations(range(k)))):
        counts[i][j] += 1
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        counts[i][j] += draw(st.integers(10**12, 2**62 - sum(map(sum, counts))))
    return counts


def _exact_kappa(counts) -> float:
    """(po - pe) / (1 - pe) as a fraction of the raw cells, rounded once."""
    n, k = sum(map(sum, counts)), len(counts)
    po = Fraction(sum(counts[i][i] for i in range(k)), n)
    pe = Fraction(sum(sum(row) * sum(col) for row, col in zip(counts, zip(*counts))), n * n)
    return float((po - pe) / (1 - pe))


@settings(max_examples=300, deadline=None)
@given(dominated_tables())
# A perfect table whose 1 - pe rounded to 0.0, so both kappas divided by zero.
@example([[1, 0], [0, 15187769027951647]])
def test_kappa_is_the_exact_ratio_rounded_once(counts):
    # One kappa for both records, equal bit for bit to the exact ratio, and
    # the battery neither raises nor warns however small a class is.
    t = from_counts(counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = multiclass_stats(t)
        assert multiclass_kappa(t) == stats.kappa == _exact_kappa(counts)
        if t.k == 2:
            assert binary_stats(t).kappa == stats.kappa
        # Above 2x2 the sampled exact test refuses n >= 10^9, so it is left out.
        significance_reports(t, ("all",) if t.k == 2 else ("kb", "km", "kbm", "x", "conv", "full"))
        evenness_factor(t)
        for rule in EXPONENT_RULES:
            det_estimates(t, rule)


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(abs(want), 1e-3)


@settings(max_examples=300, deadline=None)
@given(positive_margin_tables(sparse=True))
def test_vectorised_measures_match_references(t):
    assert _close(mutual_information(t), ref.mutual_information(t))
    assert _close(conditional_entropy(t), ref.conditional_entropy(t))
    ev = evenness_variants(t)
    r_plus, p_plus = ref.evenness_plus(t)
    assert _close(ev.r_plus, r_plus) and _close(ev.p_plus, p_plus)
    for name, want in ref.evenness_minus_hash(t).items():
        assert _close(getattr(ev, name), want), (name, getattr(ev, name), want)
    for rule in EXPONENT_RULES:
        for got, want in zip(det_estimates(t, rule), ref.det_estimates(t, rule)):
            assert _close(got, want), (rule, got, want)


def test_mutual_information_taken_once_per_table(monkeypatch):
    # multiclass_stats and full_table_tests both read it; the summary keeps it.
    calls = []
    reduce = contingency._sum_p_log_ratio
    monkeypatch.setattr(contingency, "_sum_p_log_ratio",
                        lambda *args: calls.append(args) or reduce(*args))
    t = from_counts([[5, 2, 1], [1, 6, 2], [2, 1, 7]])
    stats = multiclass_stats(t)
    _, g2 = full_table_tests(t)
    assert len(calls) == 1
    assert g2.value == 2.0 * t.n * stats.mutual_information


def test_evenness_formed_once_per_table(monkeypatch):
    # multiclass_stats, the nine family statistics and evenness_variants all
    # read the summary's one record.
    calls = []
    build = contingency.EvennessVariants
    monkeypatch.setattr(contingency, "EvennessVariants",
                        lambda **forms: calls.append(forms) or build(**forms))
    t = from_counts([[5, 2, 1], [1, 6, 2], [2, 1, 7]])
    stats = multiclass_stats(t)
    for kind in FAMILY_KINDS:
        chi2_bookmaker_family(t, kind)
    assert evenness_variants(t) is evenness_variants(t) is stats.evenness
    assert len(calls) == 1


def test_informedness_and_markedness_weighed_once_per_table(monkeypatch):
    # multiclass_stats (B, M and their correlation) and the nine family
    # statistics all read the summary's one (B, M) pair.
    t = from_counts([[5, 2, 1], [1, 6, 2], [2, 1, 7]])
    s = t._summary
    weighed = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda w, v: weighed.append(v) or dot(w, v))
    multiclass_stats(t)
    for kind in FAMILY_KINDS:
        chi2_bookmaker_family(t, kind)
    assert sum(v is s.informedness for v in weighed) == 1
    assert sum(v is s.markedness for v in weighed) == 1


def test_other_weighting_is_its_own_clamped_dot_product():
    t = from_counts([[40, 2, 1], [1, 6, 2], [30, 1, 7]])
    s = t._summary
    assert not np.array_equal(s.prevalence, s.bias)
    b_bias = bookmaker_informedness(t, weights="bias")
    m_prev = multiclass_markedness(t, weights="prevalence")
    assert b_bias == min(1.0, max(-1.0, float(np.dot(s.bias, s.informedness))))
    assert m_prev == min(1.0, max(-1.0, float(np.dot(s.prevalence, s.markedness))))
    assert b_bias != bookmaker_informedness(t)
    assert m_prev != multiclass_markedness(t)


def test_determinant_factorised_once(monkeypatch):
    # The printed det and both det_estimates rules share one slogdet call.
    t = from_counts([[5, 2, 1, 0], [1, 6, 2, 3], [2, 1, 7, 1], [0, 2, 1, 9]])
    det, slogdet = np.linalg.det, np.linalg.slogdet
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append("det") or det(a))
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append("slogdet") or slogdet(a))
    # The significance and confidence paths never factorise.
    full_table_tests(t)
    for kind in FAMILY_KINDS:
        chi2_bookmaker_family(t, kind)
    b, evenness = bookmaker_informedness(t), evenness_factor(t)
    for variant in ("null", "empirical", "full"):
        confidence_interval(b, t.n, evenness, 1.96, variant)
    assert calls == []
    stats = multiclass_stats(t)
    for rule in EXPONENT_RULES:
        det_estimates(t, rule)
    assert calls == ["slogdet"]
    assert stats.det == det(t.counts / t.n)


def test_informedness_and_markedness_never_exceed_one_on_a_perfect_table():
    # The prevalence weights of this diagonal table sum to one ulp above 1,
    # and so, unclamped, would the three macro averages; kappa, taken from
    # the integer counts, is exactly 1 without a clamp.
    t = from_counts(np.diag([298, 843, 57, 204, 13, 234, 44]))
    assert float(np.dot(t._summary.prevalence, t._summary.informedness)) > 1.0
    assert float(sum(t._summary.prevalence * t._summary.recall)) > 1.0
    assert bookmaker_informedness(t) == multiclass_markedness(t) == 1.0
    assert multiclass_kappa(t) == 1.0
    assert macro_averages(t) == (1.0, 1.0, 1.0)
    stats = multiclass_stats(t)
    assert stats.informedness == stats.markedness == stats.correlation == 1.0
    assert stats.kappa == stats.wav == stats.gav == stats.fav == 1.0


def test_mutual_information_never_negative_at_exact_independence():
    # An outer product of margins leaves a rounding residue below 0 in the
    # reduction; the summary clamps it, so G and Cramer's V stay defined.
    t = from_counts(np.outer([10, 12, 19, 14, 13], [11, 11, 18, 6, 16]))
    assert contingency._sum_p_log_ratio(t._summary.probs, t._summary.expected) < 0.0
    assert mutual_information(t) == 0.0
    _, g2 = full_table_tests(t)
    assert g2.value == 0.0 and g2.p_value == 1.0
    assert cramers_v(g2.value, t.n, t.k) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        counts = np.outer(rng.integers(1, 30, k), rng.integers(1, 30, k))
        assert mutual_information(from_counts(counts)) >= 0.0


# Tables with zero rows and zero columns, and the margin each must name: a
# column before any row, and the lowest index of its kind.
ZERO_MARGIN_TABLES = (
    ([[0, 0], [3, 0]], "zero real-class margin (column) for label 'b'"),
    ([[2, 0], [0, 0]], "zero real-class margin (column) for label 'b'"),
    ([[0, 0, 0], [1, 0, 2], [3, 0, 4]], "zero real-class margin (column) for label 'b'"),
    ([[0, 0, 0], [5, 0, 0], [0, 0, 0]], "zero real-class margin (column) for label 'b'"),
    ([[4, 1, 2], [0, 0, 0], [3, 2, 1]], "zero predicted margin (row) for label 'b'"),
)


@pytest.mark.parametrize("counts, text", ZERO_MARGIN_TABLES)
def test_zero_margins_raise_the_margin_check_text(counts, text):
    # Every battery entry point raises exactly require_positive_margins's
    # error, each on a table of its own, so no summary is shared.
    labels = "abc"[:len(counts)]
    with pytest.raises(DataError) as checked:
        require_positive_margins(from_counts(counts, labels))
    assert str(checked.value) == text
    entry_points = [multiclass_stats, full_table_tests, evenness_factor,
                    *(lambda t, kind=kind: chi2_bookmaker_family(t, kind) for kind in FAMILY_KINDS)]
    if len(counts) == 2:
        entry_points.append(binary_stats)
    for entry_point in entry_points:
        with pytest.raises(DataError) as raised:
            entry_point(from_counts(counts, labels))
        assert str(raised.value) == text
