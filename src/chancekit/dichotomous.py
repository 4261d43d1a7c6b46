"""Rates, chance-corrected association measures, and skew handling for 2x2 tables.

Everything is computed from the four joint probabilities tp, fp, fn, tn of a
normalized table with positive margins.  Recall and precision style rates are
complemented by their chance-corrected counterparts: informedness (how much
the predictor beats margin-matched guessing on the real classes), markedness
(the same with the roles of prediction and truth exchanged), and their
geometric-mean correlation, which for a 2x2 table equals the usual
product-moment correlation of the two indicator variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contingency import ContingencyTable, CostModel, _check_2x2, _check_positive, require_positive_margins

__all__ = [
    "BinaryStats",
    "binary_stats",
    "auc_single_point",
    "wracc",
    "regression_coefficients",
]


@dataclass(frozen=True)
class BinaryStats:
    """All dichotomous measures of one table, rates as fractions of n.

    Naming: rp/rn are the real-positive/negative prevalences (column margins),
    pp/pn the predicted-positive/negative biases (row margins).  etp is the
    expected true-positive rate under margin independence and dtp the observed
    excess over it; deltap doubles it.  rh and ph are the harmonic margin
    products, prev_g and bias_g the geometric ones, and the evenness fields
    are the plain margin products.  skew is the class ratio rn/rp.
    """

    tp: float
    fp: float
    fn: float
    tn: float
    rp: float
    rn: float
    pp: float
    pn: float
    recall: float
    inverse_recall: float
    precision: float
    inverse_precision: float
    fallout: float
    miss_rate: float
    f1: float
    g_measure: float
    jaccard: float
    rand_accuracy: float
    ps_negative: float
    lr: float
    nlr: float
    wracc: float
    auc: float
    informedness: float
    markedness: float
    correlation: float
    kappa: float
    etp: float
    etn: float
    dtp: float
    deltap: float
    rh: float
    ph: float
    prev_g: float
    bias_g: float
    evenness_r: float
    evenness_p: float
    evenness_g: float
    skew: float
    sq_err_to_optimum: float


def _ratio_or_inf(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return math.nan if num == 0.0 else math.inf


def binary_stats(t: ContingencyTable) -> BinaryStats:
    """Compute every dichotomous measure of a 2x2 table.

    Zero margins are rejected, as by every measure; repair_zero_margins
    patches them with unit counts first.  Likelihood ratios at a zero
    denominator come back as inf (or nan for the indeterminate 0/0 case).
    """
    _check_2x2("binary statistics", t)
    # The 2x2 record is the shared summary's first label, whose one-vs-rest
    # cells are this table's own; the summary raises DataError on a zero margin.
    s = t._summary
    tp, fp, fn, tn, rp, rn, pp, pn, precision, recall, informedness, markedness, f1, g_measure = (
        float(v[0]) for v in (s.tp, s.fp, s.fn, s.tn, s.rp, s.rn, s.pp, s.pn, s.precision,
                              s.recall, s.informedness, s.markedness, s.f1, s.g_measure))

    inverse_recall = tn / rn
    inverse_precision = tn / pn
    fallout = fp / rn
    miss_rate = fn / rp

    jaccard = tp / (tp + fp + fn)
    rand_accuracy = tp + tn
    ps_negative = 2.0 * tn / (rn + pn)

    etp = rp * pp
    etn = rn * pn
    dtp = tp - etp
    deltap = 2.0 * dtp
    rh = 2.0 * rp * rn / (rp + rn)
    ph = 2.0 * pp * pn / (pp + pn)
    prev_g = math.sqrt(rp * rn)
    bias_g = math.sqrt(pp * pn)
    evenness_r = rp * rn
    evenness_p = pp * pn
    evenness_g = prev_g * bias_g

    correlation = math.copysign(math.sqrt(max(informedness * markedness, 0.0)), dtp)

    lr = _ratio_or_inf(recall, fallout)
    nlr = _ratio_or_inf(miss_rate, inverse_recall)

    skew = rn / rp
    wracc_value = 4.0 * skew * informedness / (1.0 + skew) ** 2
    auc = (informedness + 1.0) / 2.0
    sq_err = fallout * fallout + miss_rate * miss_rate

    return BinaryStats(
        tp=tp, fp=fp, fn=fn, tn=tn,
        rp=rp, rn=rn, pp=pp, pn=pn,
        recall=recall, inverse_recall=inverse_recall,
        precision=precision, inverse_precision=inverse_precision,
        fallout=fallout, miss_rate=miss_rate,
        f1=f1, g_measure=g_measure, jaccard=jaccard,
        rand_accuracy=rand_accuracy, ps_negative=ps_negative,
        lr=lr, nlr=nlr, wracc=wracc_value, auc=auc,
        informedness=informedness, markedness=markedness,
        correlation=correlation, kappa=s.kappa,
        etp=etp, etn=etn, dtp=dtp, deltap=deltap,
        rh=rh, ph=ph, prev_g=prev_g, bias_g=bias_g,
        evenness_r=evenness_r, evenness_p=evenness_p, evenness_g=evenness_g,
        skew=skew, sq_err_to_optimum=sq_err,
    )


def auc_single_point(s: BinaryStats) -> float:
    """Area under the one-point receiver operating curve: the trapezoid
    through (0,0), (fallout, recall), (1,1)."""
    return (s.recall - s.fallout + 1.0) / 2.0


def wracc(s: BinaryStats, cost: CostModel | None = None) -> float:
    """Weighted relative accuracy 4c(tpr - fpr)/(1 + c)^2.

    With no cost model the skew c defaults to the table's own class ratio,
    which reduces the expression to 4 (recall - bias) prevalence.  A cost
    model with c = 1 removes the skew sensitivity and returns tpr - fpr.
    """
    c = s.skew if cost is None else cost.c
    _check_positive("skew", c)
    return 4.0 * c * (s.recall - s.fallout) / (1.0 + c) ** 2


def regression_coefficients(t: ContingencyTable) -> tuple[float, float, float]:
    """Slopes of the three least-squares fits between the prediction and
    real-class indicator variables, straight from the raw counts.

    Returns (prediction-conditioned slope, real-conditioned slope, geometric
    mean slope).  These reproduce markedness, informedness, and the
    correlation, which the identity tests rely on.
    """
    _check_2x2("regression coefficients", t)
    require_positive_margins(t)
    a, b, c, d = (float(x) for x in t.counts.ravel())
    det = a * d - b * c
    r_p = det / ((a + b) * (c + d))
    r_r = det / ((a + c) * (b + d))
    r_g = math.copysign(math.sqrt(max(r_p * r_r, 0.0)), det)
    return r_p, r_r, r_g
