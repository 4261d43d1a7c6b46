"""Multiclass generalizations of the chance-corrected association measures.

The K-class informedness is the prevalence-weighted mean of the one-vs-rest
dichotomous informedness values, so it stays the probability that a
prediction is informed relative to chance; markedness is its bias-weighted
twin over the predictions.  Further generalizations work through the
determinant of the joint probability matrix and through evenness summaries of
the margins, plus information-theoretic measures in nats.

The per-label one-vs-rest values, the margins, their log means, the joint
and expected probabilities and the nine evenness forms all come from the
table's shared summary (ContingencyTable._summary), which is computed once
per table and equals binary_stats(dichotomize(t, i)) bit for bit; every
measure here is a weighted sum or a numpy reduction of it, or a field of it.
Margin products (the evenness plus forms and the determinant estimates) are
taken in log space, so they stay finite and positive at any K instead of
underflowing to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contingency import ContingencyTable, EvennessVariants, _check_choice, _clamped_dot, _sum_p_log_ratio

__all__ = [
    "EXPONENT_RULES",
    "EvennessVariants",
    "MulticlassStats",
    "bookmaker_informedness",
    "multiclass_markedness",
    "correlation_bmg",
    "mutual_information",
    "conditional_entropy",
    "det_estimates",
    "evenness_variants",
    "multiclass_kappa",
    "macro_averages",
    "multiclass_stats",
]

EXPONENT_RULES = ("two_over_k", "inverse_3k_minus_2")


@dataclass(frozen=True)
class MulticlassStats:
    """Chance-corrected summary of a K x K table.  det is a plain double,
    so it underflows to 0.0 on large non-singular tables (log |det| near
    -2540 at K = 300); det_estimates works from log |det| and its sign."""

    informedness: float
    markedness: float
    correlation: float
    kappa: float
    mutual_information: float
    conditional_entropy: float
    det: float
    evenness: EvennessVariants
    label_informedness: tuple[float, ...]
    class_markedness: tuple[float, ...]
    wav: float
    gav: float
    fav: float


def _weights(t: ContingencyTable, weights: str) -> np.ndarray:
    _check_choice("weighting", weights, ("prevalence", "bias"))
    s = t._summary
    return s.prevalence if weights == "prevalence" else s.bias


def bookmaker_informedness(t: ContingencyTable, *, weights: str = "prevalence") -> float:
    """Prevalence-weighted mean of the one-vs-rest informedness values.

    weights="bias" switches to bias weighting, kept as an explicit variant
    because the two weightings coincide only when margins match.  Clamped to
    [-1, 1]: the weights can sum to one ulp above 1, which would put a perfect
    table at 1.0000000000000002.
    """
    return _clamped_dot(_weights(t, weights), t._summary.informedness)


def multiclass_markedness(t: ContingencyTable, *, weights: str = "bias") -> float:
    """Bias-weighted mean of the one-vs-rest markedness values, clamped to
    [-1, 1] as bookmaker_informedness is."""
    return _clamped_dot(_weights(t, weights), t._summary.markedness)


def correlation_bmg(t: ContingencyTable) -> float:
    """Signed geometric mean of multiclass informedness and markedness.

    For K > 2 the two factors can take strictly opposite signs, in which
    case the correlation is undefined and nan is returned.
    """
    return _signed_geometric_mean(*t._summary.bm)


def _signed_geometric_mean(b: float, m: float) -> float:
    if (b > 0.0 > m) or (b < 0.0 < m):
        return math.nan
    return math.copysign(math.sqrt(max(b * m, 0.0)), b)


def mutual_information(t: ContingencyTable) -> float:
    """Mutual information between prediction and real class, in nats."""
    return t._summary.mutual_information


def conditional_entropy(t: ContingencyTable) -> float:
    """Entropy of the real class left once the prediction is known, in nats,
    clamped at 0 as the mutual information is, so a perfect table reads 0.0, not -0.0."""
    s = t._summary
    p, flat = s.positive_cells
    # flat // K is the row, so the bias, of each positive cell.
    return max(0.0, -_sum_p_log_ratio(p, s.bias.take(flat // t.k)))


def det_estimates(
    t: ContingencyTable, exponent_rule: str = "two_over_k"
) -> tuple[float, float, float]:
    """Estimate (markedness, informedness, correlation) from the determinant
    of the joint probability matrix.

    Each estimate is sign(det) * (|det| / margin product)^e where the margin
    product is over biases for markedness, prevalences for informedness, and
    their geometric mean for the correlation.  The exponent e is 2/K under
    rule "two_over_k" and 4/(3K-2) under rule "inverse_3k_minus_2", which
    rescales by marginal degrees of freedom instead of dimensions.  Both
    rules give e = 1 at K = 2, where the estimates are exact; both keep a
    perfect diagonal table at exactly 1.  The ratio is taken in log space
    (log |det| minus the summed log-margins), so neither the determinant nor
    the margin product underflows at large K; a singular table gives 0.
    """
    _check_choice("exponent rule", exponent_rule, EXPONENT_RULES)
    s = t._summary
    k = t.k
    e = 2.0 / k if exponent_rule == "two_over_k" else 4.0 / (3.0 * k - 2.0)
    _, det_sign, log_abs_det = s.determinant
    if det_sign == 0.0:
        return 0.0, 0.0, 0.0
    log_bias, log_prev = k * s.mean_log_bias, k * s.mean_log_prevalence
    return tuple(det_sign * math.exp(e * (log_abs_det - log_product))
                 for log_product in (log_bias, log_prev, 0.5 * (log_prev + log_bias)))


def evenness_variants(t: ContingencyTable) -> EvennessVariants:
    """All nine evenness summaries of the margins (see EvennessVariants)."""
    return t._summary.evenness


def multiclass_kappa(t: ContingencyTable) -> float:
    """Chance-corrected agreement (observed vs margin-expected diagonal) from
    the integer counts, rounded once, as the 2x2 record reads it."""
    return t._summary.kappa


def macro_averages(t: ContingencyTable) -> tuple[float, float, float]:
    """Prevalence-weighted one-vs-rest recall, g-measure, and f-measure.

    The weighted recall always collapses to the diagonal accuracy; it is kept
    as an explicit average so the trio stays comparable.  Each is clamped at
    1, as bookmaker_informedness is: the weights can sum to one ulp above 1.
    """
    s = t._summary
    w = s.prevalence
    # A left-to-right sum, not np.sum's pairwise one, so below 1 the last bit
    # matches a sum over the one-vs-rest records.
    return tuple(min(1.0, float(np.add.accumulate(w * v)[-1]))
                 for v in (s.recall, s.g_measure, s.f1))


def multiclass_stats(t: ContingencyTable) -> MulticlassStats:
    """Bundle every multiclass measure of one table; its det underflows to
    0.0 on large non-singular tables (see MulticlassStats)."""
    s = t._summary
    b, m = s.bm
    wav, gav, fav = macro_averages(t)
    return MulticlassStats(
        informedness=b,
        markedness=m,
        correlation=_signed_geometric_mean(b, m),
        kappa=multiclass_kappa(t),
        mutual_information=s.mutual_information,
        conditional_entropy=conditional_entropy(t),
        det=s.determinant[0],
        evenness=s.evenness,
        label_informedness=tuple(s.informedness.tolist()),
        class_markedness=tuple(s.markedness.tolist()),
        wav=wav,
        gav=gav,
        fav=fav,
    )
