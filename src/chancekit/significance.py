"""Significance statistics for contingency tables.

Two families of chi-squared style statistics are provided next to the
classical full-table tests.  The single-row (or single-column) goodness-of-fit
statistic sums squared margin-expected deviations over the positive
prediction (or positive real class) only.  The evenness-scaled family turns
the chance-corrected association measures directly into test statistics,
scaled by the minus evenness forms of the margins (see EvennessVariants):

    K * n * B^2 * r_minus           (informedness based)
    K * n * M^2 * p_minus           (markedness based)
    K * n * B * M * g_minus         (combined)

their (K-1)-scaled variants, and the margin-free conventional forms
(K-1) * n * {B^2, M^2, B*M}.  These are deliberately conservative relative to
the full-table statistic; for a 2x2 table the full statistic is exactly
n * B * M.

Exact inference comes from the 2x2 hypergeometric test and, for K x K tables,
Patefield's fixed-margin sampler with p = (hits + 1) / (samples + 1) (Phipson
& Smyth 2010).  Tail probabilities of the chi-squared family come from the
regularized upper incomplete gamma function Q(r/2, x/2): erfc for one degree
of freedom, otherwise its power series below x = a + 1 and its Lentz continued
fraction above (Press et al., Numerical Recipes, section 6.2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .contingency import ContingencyTable
from .errors import DataError, UsageError
from .multiclass import bookmaker_informedness, multiclass_markedness, mutual_information

__all__ = [
    "SignificanceReport",
    "PosthocCalibration",
    "FAMILY_KINDS",
    "chi2_sf",
    "chi2_positive",
    "g2_positive",
    "chi2_bookmaker_family",
    "full_table_tests",
    "cramers_v",
    "fisher_exact_2x2",
    "fisher_montecarlo_kxk",
    "williams_correction",
    "posthoc_calibration",
]

FAMILY_KINDS = (
    "kb", "km", "kbm",
    "xb", "xm", "xbm",
    "conv_b", "conv_m", "conv_bm",
)

_POSITIVE_TARGETS = ("predicted_positive", "real_positive")
_WILLIAMS_MODES = ("goodness_of_fit", "independence")


@dataclass(frozen=True)
class SignificanceReport:
    """One test statistic with the dual degree-of-freedom bookkeeping.

    df is the degree count actually used for p_value.  df_alpha carries the
    full-table (K-1)^2 reading and df_beta the single-margin K-1 reading so a
    caller can re-derive the tail probability under either convention.  For
    the exact tests value is the p-value itself and df bookkeeping is moot.
    """

    kind: str
    value: float
    df: int
    p_value: float
    n: int
    df_alpha: int
    df_beta: int
    corrections: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PosthocCalibration:
    """Posterior error bounds implied by an observed p-value."""

    p: float
    l_bound: float
    alpha_post: float
    beta_post: float


def chi2_sf(x: float, r: int) -> float:
    """Survival function of the chi-squared distribution with r degrees.

    Equals the regularized upper incomplete gamma function Q(r/2, x/2);
    absolute error stays below 1e-10 across the supported range.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise UsageError(f"degrees of freedom must be a positive integer, got {r!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise UsageError(f"statistic must be finite and non-negative, got {x}")
    if r == 1:
        return math.erfc(math.sqrt(x / 2.0))
    return _gamma_q(r / 2.0, x / 2.0)


_GAMMA_EPS = sys.float_info.epsilon
_GAMMA_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)) for x > 0.

    From a = 100 on, a log x, x and lgamma(a) are each far larger than
    their sum, so Gamma(a) is split into its Stirling form and remainder and
    the large parts cancel exactly: a log(x/a) + a - x = -a (r - log1p(r))
    with r = (x - a) / a.  That form is needed only near x = a; once
    |r| >= 0.5 the sum is at least 6% of its largest term, and
    a (log x - log a) stays finite where r rounds to -1 (x far below a).
    """
    if a < 100.0:
        return a * math.log(x) - x - math.lgamma(a)
    r = (x - a) / a
    if abs(r) < 0.5:
        scaled = -a * (r - math.log1p(r))
    else:
        scaled = a * (math.log(x) - math.log(a)) + a - x
    inv, inv2 = 1.0 / a, 1.0 / (a * a)
    stirling = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))
    return scaled + 0.5 * math.log(a) - _HALF_LOG_2PI - stirling


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    Below x = a + 1 the power series for P = 1 - Q converges fast; above it
    the continued fraction for Q does (modified Lentz).  Both multiply by
    x^a e^-x / Gamma(a), taken in log space so it neither overflows nor
    underflows before the product.
    """
    if x == 0.0:
        return 1.0
    log_prefactor = _log_gamma_prefactor(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > total * _GAMMA_EPS:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - total * math.exp(log_prefactor)
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b
    h = d
    # Convergence takes about sqrt(a) terms at worst (1,600 at a = 5e6).
    for i in range(1, 1000 + 10 * math.isqrt(int(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _GAMMA_EPS:
            return h * math.exp(log_prefactor)
    raise RuntimeError(f"continued fraction for Q({a}, {x}) did not converge")


def _report(kind: str, value: float, df: int, n: int, k: int,
            corrections: frozenset[str] = frozenset()) -> SignificanceReport:
    return SignificanceReport(
        kind=kind,
        value=float(value),
        df=df,
        p_value=chi2_sf(max(float(value), 0.0), df),
        n=n,
        df_alpha=(k - 1) ** 2,
        df_beta=k - 1,
        corrections=corrections,
    )


def _positive_cells(t: ContingencyTable, target: str):
    """Observed and expected counts along the positive row or column."""
    if t.k != 2:
        raise UsageError("single-margin statistics are defined for 2x2 tables")
    if target not in _POSITIVE_TARGETS:
        raise UsageError(f"unknown target '{target}'")
    s = t._summary
    observed, expected = t.counts.astype(float), s.n * s.expected
    if target == "real_positive":
        observed, expected = observed.T, expected.T
    return observed[0], expected[0], s.n


def chi2_positive(
    t: ContingencyTable, target: str = "predicted_positive", yates: bool = False
) -> SignificanceReport:
    """Goodness-of-fit statistic over the positive prediction row (or the
    positive real-class column), df = 1.

    With yates=True the absolute deviation of any cell whose expectation
    falls below 5 is shrunk by 0.5 before squaring (a continuity correction,
    off by default).
    """
    observed, expected, n = _positive_cells(t, target)
    value = 0.0
    corrected = False
    for o, e in zip(observed, expected):
        dev = abs(o - e)
        if yates and e < 5.0:
            dev = max(dev - 0.5, 0.0)
            corrected = True
        value += dev * dev / e
    kind = "chi2_plus_p" if target == "predicted_positive" else "chi2_plus_r"
    corrections = frozenset({"yates"}) if corrected else frozenset()
    return _report(kind, value, 1, n, t.k, corrections)


def g2_positive(
    t: ContingencyTable, target: str = "predicted_positive"
) -> SignificanceReport:
    """Log-likelihood twin of chi2_positive (0 * log 0 counts as 0), df = 1."""
    observed, expected, n = _positive_cells(t, target)
    total = 0.0
    for o, e in zip(observed, expected):
        if o > 0.0:
            total += o * math.log(o / e)
    kind = "g2_plus_p" if target == "predicted_positive" else "g2_plus_r"
    return _report(kind, 2.0 * total, 1, n, t.k, frozenset())


def chi2_bookmaker_family(t: ContingencyTable, kind: str) -> SignificanceReport:
    """Evenness-scaled significance statistics of the chance-corrected
    association measures (see the module docstring for the forms).

    The kb/km/kbm statistics use df = K-1 for the p-value; their xb/xm/xbm
    variants are (K-1) times larger and use df = (K-1)^2; the conv forms drop
    the evenness factor and use df = K-1.  The combined (b*m) statistics can
    go negative when informedness and markedness disagree in sign for K > 2;
    the tail probability is then 1 by construction.
    """
    kind = kind.lower()
    if kind not in FAMILY_KINDS:
        raise UsageError(f"unknown family kind '{kind}'")
    k = t.k
    s = t._summary
    n = s.n
    b = bookmaker_informedness(t)
    m = multiclass_markedness(t)
    ev = s.evenness
    factors = {"b": (b, b, ev.r_minus), "m": (m, m, ev.p_minus), "bm": (b, m, ev.g_minus)}
    x, y, evenness = factors[kind[len("conv_"):] if kind.startswith("conv_") else kind[1:]]
    if kind.startswith("conv_"):
        return _report(kind, (k - 1) * n * (x * y), k - 1, n, k)
    if kind.startswith("x"):
        return _report(kind, (k - 1) * k * n * (x * y * evenness), (k - 1) ** 2, n, k)
    return _report(kind, k * n * (x * y * evenness), k - 1, n, k)


def full_table_tests(t: ContingencyTable) -> tuple[SignificanceReport, SignificanceReport]:
    """Classical full-table statistics, df = (K-1)^2 for both.

    The squared-deviation statistic sums (observed - expected)^2 / expected
    over all cells; the log-likelihood statistic equals 2n times the mutual
    information in nats.
    """
    s = t._summary
    n = s.n
    expected = n * s.expected
    chi2_value = float(((t.counts - expected) ** 2 / expected).sum())
    g2_value = 2.0 * n * mutual_information(t)
    df = (t.k - 1) ** 2
    return (
        _report("full_chi2", chi2_value, df, n, t.k),
        _report("full_g2", g2_value, df, n, t.k),
    )


def cramers_v(chi2_value: float, n: int, k: int) -> float:
    """Association strength sqrt(chi2 / (n (K-1))) on the 0..1 scale."""
    if n <= 0 or k < 2:
        raise UsageError("need n > 0 and k >= 2")
    if chi2_value < 0.0:
        raise UsageError("chi-squared value must be non-negative")
    return math.sqrt(chi2_value / (n * (k - 1)))


def fisher_exact_2x2(t: ContingencyTable, sidedness: str = "two") -> SignificanceReport:
    """Exact fixed-margin test for a 2x2 table.

    One-sided sums the tables at least as associated in the observed
    direction; two-sided sums every table whose probability does not exceed
    the observed one.  Degenerate margins leave a single admissible table and
    give p = 1.

    The weight of true-positive count x is C(rp, x) * C(rn, pp - x), and the
    summed weights over C(n, pp) give p.  Working in integers keeps tie
    comparisons exact.  Two binomials give the first weight and the ratio
    w(x + 1) / w(x) = (rp - x)(pp - x) / ((x + 1)(rn - pp + x + 1)) the rest;
    the division is exact because w(x + 1) is an integer.  Each weight is
    added as it comes, so none is kept.
    """
    if sidedness not in ("one", "two"):
        raise UsageError(f"sidedness must be 'one' or 'two', got '{sidedness}'")
    if t.k != 2:
        raise UsageError("the exact 2x2 test needs a 2x2 table")
    a, b, c, d = (int(x) for x in t.counts.ravel())
    rp, rn = a + c, b + d
    pp = a + b
    n = a + b + c + d
    if n == 0:
        raise DataError("cannot test an empty table")
    lo, hi = max(0, pp - rn), min(rp, pp)
    if sidedness == "two":
        start, stop = lo, hi
        obs = math.comb(rp, a) * math.comb(rn, pp - a)
    else:
        start, stop = (a, hi) if a * d - b * c >= 0 else (lo, a)
        obs = None
    total = 0
    w = math.comb(rp, start) * math.comb(rn, pp - start)
    for x in range(start, stop + 1):
        if obs is None or w <= obs:
            total += w
        w = w * (rp - x) * (pp - x) // ((x + 1) * (rn - pp + x + 1))
    p = total / math.comb(n, pp)
    kind = "fisher_one" if sidedness == "one" else "fisher_two"
    return SignificanceReport(
        kind=kind, value=p, df=1, p_value=p, n=n,
        df_alpha=(t.k - 1) ** 2, df_beta=t.k - 1,
    )


def _patefield_cells(t: ContingencyTable, m: int, rng: np.random.Generator):
    """Yield m tables with t's margins, drawn from the fixed-margin null, as
    K^2 cell vectors in row-major order (Patefield 1981, AS 159).  In rows
    0..K-2 each cell but the last draws what is left of its row from the open
    part of its column against the open total of the columns after it."""
    left = [int(c) for c in t.col_totals]
    below = sum(left)
    for row in t.row_totals[:-1]:
        r, rest, below = int(row), below - left[0], below - int(row)
        for j in range(len(left) - 1):
            x = rng.hypergeometric(left[j], rest, r, size=m)
            yield x
            left[j], r, rest = left[j] - x, r - x, rest - left[j + 1]
        yield r
        left[-1] = left[-1] - r
    yield from left


def fisher_montecarlo_kxk(
    t: ContingencyTable, samples: int = 100_000, seed: int = 0
) -> SignificanceReport:
    """Monte Carlo estimate of the exact fixed-margin test for K x K tables.

    Tables are drawn by Patefield's algorithm, (K-1)^2 hypergeometric draws
    each whatever n is.  p = (hits + 1) / (samples + 1) (Phipson & Smyth
    2010) is never 0; a hit is a draw at most as probable as the observed
    table (log scale, tie tolerance 1e-9).  Deterministic for a given seed."""
    if samples < 1_000:
        raise UsageError(f"need at least 1000 samples, got {samples}")
    n = t.n
    if n == 0:
        raise DataError("cannot test an empty table")
    if n >= 10**9:
        raise DataError(f"the sampled exact test needs n below 10^9, got {n}")
    # With fixed margins -sum(log(cell!)) orders the tables' probabilities; it
    # is added cell by cell in row-major order, so equal tables tie to the bit.
    # No cell of a table with these margins exceeds the smaller of the largest
    # row and column totals, so the table of log(i!) stops there.
    top = int(min(t.row_totals.max(), t.col_totals.max()))
    log_factorials = np.fromiter((math.lgamma(i + 1.0) for i in range(top + 1)), float, top + 1)
    s_obs = 0.0
    for c in t.counts.ravel():
        s_obs += log_factorials[c]
    rng = np.random.Generator(np.random.SFC64(int(seed) & ((1 << 128) - 1)))
    chunk = max(1, (1 << 20) // (t.k * t.k))
    hits = 0
    for done in range(0, samples, chunk):
        s = 0.0
        for c in _patefield_cells(t, min(chunk, samples - done), rng):
            s += log_factorials[c]
        hits += int((s >= s_obs - 1e-9).sum())
    p = (hits + 1) / (samples + 1)
    return SignificanceReport(
        kind="fisher_mc", value=p, df=1, p_value=p, n=n,
        df_alpha=(t.k - 1) ** 2, df_beta=t.k - 1,
    )


def williams_correction(
    report: SignificanceReport, t: ContingencyTable, mode: str = "independence"
) -> SignificanceReport:
    """Shrink a log-likelihood statistic by the small-sample factor
    q = 1 + (a^2 - 1) / (6 n r).

    Goodness-of-fit mode uses a = K over r = K - 1 degrees.  Independence
    mode derives a^2 - 1 = (K/prev_h - 1)(K/bias_h - 1) from the harmonic
    mean margins over r = (K-1)^2 degrees.  The corrected statistic is
    re-tested at the report's own df.
    """
    if mode not in _WILLIAMS_MODES:
        raise UsageError(f"unknown correction mode '{mode}'")
    s = t._summary
    k = t.k
    n = s.n
    if mode == "goodness_of_fit":
        a2_minus_1 = k * k - 1.0
        r = k - 1
    else:
        prev_h = k / float(np.sum(1.0 / s.prevalence))
        bias_h = k / float(np.sum(1.0 / s.bias))
        a2_minus_1 = (k / prev_h - 1.0) * (k / bias_h - 1.0)
        r = (k - 1) ** 2
    q = 1.0 + a2_minus_1 / (6.0 * n * r)
    value = report.value / q
    return replace(
        report,
        value=value,
        p_value=chi2_sf(max(value, 0.0), report.df),
        corrections=report.corrections | {"williams"},
    )


def posthoc_calibration(p: float) -> PosthocCalibration:
    """Posterior error bounds from an observed p-value.

    The bound L = -e p ln p calibrates how strongly the data favor a real
    effect; it is defined only for p below 1/e.  alpha_post = 1/(1 + 1/L) is
    the implied lower bound on the false-positive risk and beta_post its
    complement 1/(1 + L).
    """
    if not (0.0 < p < 1.0 / math.e):
        raise DataError(f"calibration is defined for 0 < p < 1/e, got {p}")
    l_bound = -math.e * p * math.log(p)
    alpha_post = 1.0 / (1.0 + 1.0 / l_bound)
    beta_post = 1.0 / (1.0 + l_bound)
    return PosthocCalibration(p=p, l_bound=l_bound, alpha_post=alpha_post, beta_post=beta_post)
