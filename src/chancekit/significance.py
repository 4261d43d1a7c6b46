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

Exact inference (exact_test) comes from the 2x2 hypergeometric test and, for
K x K tables, a fixed-margin sampler, whose chunks of draws come from
Patefield's algorithm or, where a fixed cost rule over K, n and the chunk
size finds it cheaper, from random permutations of the column labels, dealt
by sorting random keys.  It stops at its 100th hit with p = 100 / draws
(Besag & Clifford 1991), otherwise gives p = (hits + 1) / (draws + 1)
(Phipson & Smyth 2010), and with a level alpha also stops once its hits
settle p < alpha.  The 2x2 p is
the correctly rounded exact fraction: on supports of _WINDOW_MIN_WIDTH tables
or more it comes from tail sums bounded in fixed-point integers around the
mode, whose cost grows with |a - mode| plus sqrt(n), and the full integer
sum over the support settles any p whose bounds straddle a rounding
boundary.  Tail probabilities of the chi-squared family come from the
regularized upper incomplete gamma function Q(r/2, x/2): erfc for one
degree of freedom, otherwise its power series below x = a + 1 and its Lentz
continued fraction above (Press et al., Numerical Recipes, section 6.2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .contingency import (_DEFAULT_ALPHA, _DEFAULT_SAMPLES, _DEFAULT_SIDED, _FAMILIES, _LEAST_SAMPLES,
                          _SIDES, ContingencyTable, _check_2x2, _check_alpha, _check_choice, _check_whole,
                          _check_within)
from .errors import DataError, UsageError

__all__ = [
    "SignificanceReport",
    "SampledReport",
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
    "exact_test",
    "williams_correction",
    "significance_reports",
    "posthoc_calibration",
]

# Each family kind: its statistic form, the places in (B, M) of the two
# factors it multiplies, and the evenness form that scales their product
# (see chi2_bookmaker_family; the conv forms take none).
_FAMILY_FORMS = {
    "kb": ("k", 0, 0, "r_minus"), "km": ("k", 1, 1, "p_minus"), "kbm": ("k", 0, 1, "g_minus"),
    "xb": ("x", 0, 0, "r_minus"), "xm": ("x", 1, 1, "p_minus"), "xbm": ("x", 0, 1, "g_minus"),
    "conv_b": ("conv", 0, 0, None), "conv_m": ("conv", 1, 1, None), "conv_bm": ("conv", 0, 1, None),
}
FAMILY_KINDS = tuple(_FAMILY_FORMS)

_POSITIVE_TARGETS = ("predicted_positive", "real_positive")
_WILLIAMS_KINDS = ("g2_plus_p", "g2_plus_r", "full_g2")


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


@dataclass(frozen=True, kw_only=True)
class SampledReport(SignificanceReport):
    """The report of a sampled test: its p rests on `draws` tables, `hits` of
    them at most as probable as the observed one.

    se is the standard error of the hit rate, sqrt(q (1 - q) / draws) with
    q = (hits + 1) / (draws + 2), so never 0.  level is the alpha at which
    the run stopped with its decision p < level settled; it is None for a
    run stopped at its 100th hit or by its budget.  Only such a p estimates
    the exact one: a decided p is read at its level alone."""

    draws: int
    hits: int
    se: float
    level: float | None


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
    _check_whole("degrees of freedom", r, 1)
    _check_within("statistic", x, 0.0)
    x = float(x)
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
            corrections: frozenset[str] = frozenset(), *,
            p_value: float | None = None) -> SignificanceReport:
    """p is the chi-squared tail of value (clamped at 0) unless a test gives it."""
    value = float(value)
    return SignificanceReport(
        kind=kind,
        value=value,
        df=df,
        p_value=chi2_sf(max(value, 0.0), df) if p_value is None else p_value,
        n=n,
        df_alpha=(k - 1) ** 2,
        df_beta=k - 1,
        corrections=corrections,
    )


def _positive_cells(t: ContingencyTable, target: str):
    """Observed and expected counts along the positive row or column."""
    _check_2x2("single-margin statistics", t)
    _check_choice("target", target, _POSITIVE_TARGETS)
    s = t._summary
    observed, expected = t.counts.astype(float), s.n * s.expected
    if target == "real_positive":
        observed, expected = observed.T, expected.T
    # As Python floats, which the callers' cell loops add faster than numpy
    # scalars, with the same roundings.
    return observed[0].tolist(), expected[0].tolist(), s.n


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
    the tail probability is then 1 by construction.  kind is one of
    FAMILY_KINDS in any case; any other value raises UsageError naming it.
    """
    if isinstance(kind, str):
        kind = kind.lower()
    _check_choice("family kind", kind, FAMILY_KINDS)
    scale, i, j, form = _FAMILY_FORMS[kind]
    k = t.k
    s = t._summary
    n = s.n
    bm = s.bm
    x, y = bm[i], bm[j]
    if scale == "conv":
        return _report(kind, (k - 1) * n * (x * y), k - 1, n, k)
    evenness = getattr(s.evenness, form)
    if scale == "x":
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
    chi2_value = float(np.add.reduce((t.counts - expected) ** 2 / expected, None))
    g2_value = 2.0 * n * s.mutual_information
    df = (t.k - 1) ** 2
    return (
        _report("full_chi2", chi2_value, df, n, t.k),
        _report("full_g2", g2_value, df, n, t.k),
    )


def cramers_v(chi2_value: float, n: int, k: int) -> float:
    """Association strength sqrt(chi2 / (n (K-1))) on the 0..1 scale."""
    _check_whole("n", n, 1)
    _check_whole("classes", k, 2)
    _check_within("chi-squared value", chi2_value, 0.0)
    return math.sqrt(chi2_value / (n * (k - 1)))


def fisher_exact_2x2(t: ContingencyTable, sidedness: str = _DEFAULT_SIDED) -> SignificanceReport:
    """Exact fixed-margin test for a 2x2 table.

    One-sided sums the tables at least as associated in the observed
    direction; two-sided sums every table whose probability does not exceed
    the observed one.  Degenerate margins leave a single admissible table and
    give p = 1.

    The weight of true-positive count x is C(rp, x) * C(rn, pp - x), and p is
    the selected weights over all of them, C(n, pp), rounded once.  When the
    support has at least _WINDOW_MIN_WIDTH tables, _fisher_window bounds both
    sums from the terms that can move that rounding, about |a - mode| plus
    sqrt(n) of them.  If its bounds straddle a rounding boundary, or the
    support is narrower, every weight is added as an exact integer, at a
    cost that grows faster than n^2: two binomials give the first weight and
    the ratio w(x + 1) / w(x) = (rp - x)(pp - x) / ((x + 1)(rn - pp + x + 1))
    the rest, a division that is exact because w(x + 1) is an integer.  Each
    weight is added as it comes, so none is kept, and ties compare exactly.
    Either way p is the correctly rounded exact fraction.
    """
    _check_choice("sidedness", sidedness, _SIDES)
    _check_2x2("hypergeometric exact tests", t)
    a, b, c, d = (int(x) for x in t.counts.ravel())
    rp, rn = a + c, b + d
    pp = a + b
    n = a + b + c + d
    if n == 0:
        raise DataError("cannot test an empty table")
    kind = "fisher_one" if sidedness == "one" else "fisher_two"
    lo, hi = max(0, pp - rn), min(rp, pp)
    if hi - lo >= _WINDOW_MIN_WIDTH:
        p = _fisher_window(a, b, c, d, sidedness)
        if p is not None:
            return _report(kind, p, 1, n, t.k, p_value=p)
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
    return _report(kind, p, 1, n, t.k, p_value=p)


# _fisher_window stops each tail once what is left of it is below
# 2^-_WINDOW_BITS of its sum, and keeps terms in fixed point with 32 bits
# more, which absorb the one unit each floored term can lose.  Below
# _WINDOW_MIN_WIDTH tables of support (the smallest margin) the full sum is
# cheaper.
_WINDOW_BITS = 100
_WINDOW_RUN = 64
_WINDOW_MIN_WIDTH = 256


def _fisher_window(a: int, b: int, c: int, d: int, sidedness: str) -> float | None:
    """p of fisher_exact_2x2 from bounded tail sums around the mode, or None
    when the bounds do not settle its rounding.

    The weights w(x) are log-concave: their ratio w(x + 1) / w(x) falls as x
    grows, so each tail summed outward from its inner edge is bounded by a
    geometric series once its ratio is below 1, and w(x) <= w(a) holds on
    one outer interval on each side of the mode m.  Every sum is kept
    relative to w(m) as an interval [lo, hi] * 2^-shift with floors below
    and ceilings above: the whole mass and the tails the test selects.  The
    one-sided tail always runs from a away from m, because m lies within one
    table of the mean E = rp pp / n (E - 1 < m < E + 1), so an integer a >= E
    has a >= m and one below E has a <= m.  A tail's inner edge e enters
    through w(e) / w(m), multiplied up from runs of _WINDOW_RUN consecutive
    factors, each run exact (math.perm) and the running product rounded
    outward.  The two-sided test finds the first table past the mode that is
    at most as probable as a by bisection on lgamma log-weights, settling
    every near-tie by an exact integer comparison.  p is returned when both
    ends of its interval round to the same double, which int / int true
    division does correctly.
    """
    rp, rn, pp = a + c, b + d, a + b
    q = rn - pp
    lo, hi = max(0, -q), min(rp, pp)
    m = (pp + 1) * (rp + 1) // (rp + rn + 2)
    bits = _WINDOW_BITS + 32
    one = 1 << bits

    def ratio(x: int, y: int) -> tuple[int, int]:
        """w(y) / w(x) as an exact numerator and denominator."""
        if y < x:
            den, num = ratio(y, x)
            return num, den
        k = y - x
        return (math.perm(rp - x, k) * math.perm(pp - x, k),
                math.perm(y, k) * math.perm(q + y, k))

    def tail(e: int, step: int) -> tuple[int, int, int] | None:
        """The sum of w(x) / w(m) over x = e, e + step, ... in the support,
        for e at m or on step's side of it, so that the terms fall; None
        when e is outside the support."""
        if not lo <= e <= hi:
            return None
        # Term j is floored j times, so it is below its true value by less
        # than j units.  Once the ratio r to the next term is below 1, the
        # rest is at most the current term times r / (1 - r).  That test
        # costs more than a term, so it is made at every 8th term: a stop up
        # to 7 terms later gives a bound as valid and the same p.
        if step > 0:
            u1, u2, v1, v2, steps = rp - e, pp - e, e + 1, q + e + 1, hi - e
        else:
            u1, u2, v1, v2, steps = e, q + e, rp - e + 1, pp - e + 1, e - lo
        t = s = one
        rest = j = 0
        for j in range(steps):
            num, den = (u1 - j) * (u2 - j), (v1 + j) * (v2 + j)
            if not j & 7 and num < den and (t + j) * num <= (s >> _WINDOW_BITS) * (den - num):
                rest = s >> _WINDOW_BITS
                break
            t = t * num // den
            s += t
        else:
            j = steps
        # w(e) / w(m) in runs of _WINDOW_RUN factors, each run exact and its
        # product with the bounds so far rounded outward to `bits` bits.  Runs
        # are at most 1 (w rises to m and falls after it), so k = 0 keeps a
        # bound within bits + 1 bits where it would otherwise be negative.
        w_lo = w_hi = 1
        shift = 0
        near, far = min(m, e), max(m, e)
        for x in range(near, far, _WINDOW_RUN):
            num, den = ratio(x, min(x + _WINDOW_RUN, far))
            if e < m:
                num, den = den, num
            k = max(0, bits + den.bit_length() - w_lo.bit_length() - num.bit_length())
            w_lo, w_hi = (w_lo * num << k) // den, -((-w_hi * num << k) // den)
            shift += k
        return w_lo * s, w_hi * (s + j * (j + 1) // 2 + rest), shift + bits

    def aligned(u, v) -> tuple[int, int, int, int, int]:
        """u's and v's bounds on the finer of their two scales, exactly."""
        shift = max(u[2], v[2])
        return (u[0] << shift - u[2], u[1] << shift - u[2],
                v[0] << shift - v[2], v[1] << shift - v[2], shift)

    below, above = tail(m, -1), tail(m, 1)
    total = (below[0] + above[0] - one, below[1] + above[1] - one, bits)
    if sidedness == "one":
        selected = tail(a, 1 if a * d - b * c >= 0 else -1)
    else:
        def log_weight(x: int) -> float:
            """log w(x) up to a constant."""
            return -(math.lgamma(x + 1) + math.lgamma(rp - x + 1)
                     + math.lgamma(pp - x + 1) + math.lgamma(q + x + 1))

        # Each lgamma here is within about one ulp of (n + 2) log(n + 2)
        # (checked against mpmath up to 10^6), so a difference of log-weights
        # beyond tol has the sign of the exact one.
        log_wa = log_weight(a)
        tol = 1e-12 * (rp + rn + 2) * math.log(rp + rn + 2)

        def at_most_a(x: int) -> bool:
            """w(x) <= w(a), for x in the support, which is all the bisection
            below probes: first..hi when a <= m, lo..m - 1 when a > m."""
            diff = log_weight(x) - log_wa
            if abs(diff) > tol:
                return diff < 0
            if sorted((x, rp - x, pp - x, q + x)) == sorted((a, rp - a, pp - a, q + a)):
                return True  # the same four factorials: a tie of symmetric margins
            num, den = ratio(a, x)
            return num <= den

        # w falls strictly from m upward and from m - 1 downward, so on the
        # far side of the mode from a, at_most_a holds from one table on.
        step = -1 if a <= m else 1
        first = max(a + 1, m) if step < 0 else m - 1
        j_lo, j_hi = 0, hi + 1 - first if step < 0 else first + 1 - lo
        while j_lo < j_hi:
            mid = (j_lo + j_hi) // 2
            if at_most_a(first - step * mid):
                j_hi = mid
            else:
                j_lo = mid + 1
        selected = tail(a, step)
        other = tail(first - step * j_lo, -step)
        if other is not None:
            s_lo, s_hi, o_lo, o_hi, shift = aligned(selected, other)
            selected = s_lo + o_lo, s_hi + o_hi, shift
    n_lo, n_hi, d_lo, d_hi, _ = aligned(selected, total)
    p_lo, p_hi = n_lo / d_hi, n_hi / d_lo
    return p_lo if p_lo == p_hi else None


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


# The width of _permuted_cells' sort keys: 32 bits, of which the low
# ceil(log2 K) carry the label.  Narrowed, it makes ties, and so redeals,
# common enough to test.  Its bincount takes the keys of _COUNT_KEYS // n
# draws at a time, or of one where n is larger, so its int64 copy of them
# stays within 256 KiB up to n = 2^15.
_KEY_BITS = 32
_COUNT_KEYS = 1 << 15


def _permuted_cells(t: ContingencyTable, m: int, rng: np.random.Generator) -> np.ndarray:
    """m tables with t's margins, drawn from the fixed-margin null, as the
    (K^2, m) array of their cell vectors in row-major order, the order in
    which _patefield_cells yields them: each draw deals the n column labels
    at random to the n items, sorted by row label (the permutation form of
    the null; Agresti 1992).  Each label gets a 32-bit key, half of one of
    the bit generator's 64-bit words (low half first, so the keys are the
    same on any platform), whose low ceil(log2 K) bits are replaced by the
    label, and one sort orders each draw's keys; the item at rank j takes
    the label of key j.  The random high bits are i.i.d., so whatever
    values they take, every assignment of the labels to their ranks is as
    likely, and a tie between keys, which the labels in the low bits break,
    changes no cell while it stays within one row's block of ranks.  A draw
    whose keys tie across a row boundary (the same high bits at ranks
    end - 1 and end) is dealt again from fresh keys, so an accepted draw has
    exactly the fixed-margin law.  Each key's label plus its row's r K and
    its draw's i K^2, i counted within a block of draws, is then the index
    of its cell, in place, and one bincount counts each block's cells, a
    block being the draws of at most _COUNT_KEYS keys (or one draw).  The
    chunk holds the m x n uint32 keys, the m K^2 counts and bincount's int64
    copy of one block's keys."""
    k, n = t.k, t.n
    low = (k - 1).bit_length()
    labels = np.repeat(np.arange(k, dtype=np.uint32), t.col_totals)
    ends = np.cumsum(t.row_totals[:-1])
    ends = ends[(0 < ends) & (ends < n)]

    def deal(draws: int) -> tuple[np.ndarray, np.ndarray]:
        """The sorted keys of `draws` draws, and the draws tied across a row
        boundary."""
        words = rng.bit_generator.random_raw((draws * n + 1) // 2)
        keys = words.astype("<u8", copy=False).view("<u4")[:draws * n].reshape(draws, n)
        keys &= ((1 << _KEY_BITS) - 1) >> low << low
        keys |= labels
        keys.sort(axis=1)
        return keys, np.flatnonzero(((keys[:, ends - 1] ^ keys[:, ends]) >> low == 0).any(axis=1))

    keys, tied = deal(m)
    while tied.size:
        fresh, again = deal(tied.size)
        keys[tied] = fresh
        tied = tied[again]
    keys &= (1 << low) - 1
    keys += np.repeat(np.arange(0, k * k, k, dtype=np.uint32), t.row_totals)
    counts = np.empty((m, k * k), np.intp)
    step = max(1, _COUNT_KEYS // n)
    for i in range(0, m, step):
        block = keys[i:i + step]
        draws = len(block)
        block += np.arange(0, draws * k * k, k * k, dtype=np.uint32)[:, None]
        counts[i:i + draws] = np.bincount(block.ravel(), minlength=draws * k * k).reshape(draws, k * k)
    return counts.T


# A scored chunk of m draws costs Patefield (K-1)^2 hypergeometric calls of
# about _CALL_NS + _CALL_DRAW_NS m each, most of it numpy's checks of the
# array arguments, its statistic's K^2 take-and-add pairs folded in, and the
# sorted deal about _ITEM_NS for each of its n m keys, its sort, bincount and
# one take included; fitted by least squares to whole-chunk costs over K
# 3..8, n 16..256 and m 128..2048, one CPU, numpy 2.4.6 (K = 4, m = 256:
# 0.34 against 0.06 ms at n = 16, 0.43 against 0.18 ms at n = 128).  So at
# m = 256 K = 4 permutes up to n = 263 and K = 3 up to n = 116.  A permuted
# chunk holds m x n uint32 keys and m K^2 int64 counts, at most 8 bytes for
# each of its m (n + K^2) values besides the int64 copy of one block, so past
# _PERMUTE_VALUES of them the chunk is Patefield's, whose O(K) vectors of m
# stay within the same bound.  It deals a draw again with chance about
# (K-1) n 2^(ceil(log2 K) - 32), the expected number of its K - 1 row
# boundaries that keys tie across; past (K-1) n 2^ceil(log2 K) = _TIE_BOUND,
# a chance of 2^-6, the chunk is Patefield's too.
_ITEM_NS = 6
_CALL_NS = 28_000
_CALL_DRAW_NS = 66
_PERMUTE_VALUES = 1 << 18
_TIE_BOUND = 1 << 26


def _permutes(k: int, n: int, m: int) -> bool:
    """Whether _null_cells draws a chunk of m tables of a K x K table with
    total n by permutation: by the cost model above, within the working-set
    and redeal bounds, from K, n and m alone."""
    return (m * (n + k * k) <= _PERMUTE_VALUES
            and (k - 1) * n << (k - 1).bit_length() <= _TIE_BOUND
            and _ITEM_NS * n * m < (k - 1) ** 2 * (_CALL_NS + _CALL_DRAW_NS * m))


def _null_cells(t: ContingencyTable, m: int, rng: np.random.Generator):
    """The K^2 cell vectors of the next chunk of m null tables, from
    _permuted_cells where _permutes(K, n, m) holds, else _patefield_cells."""
    source = _permuted_cells if _permutes(t.k, t.n, m) else _patefield_cells
    return source(t, m, rng)


# fisher_montecarlo_kxk stops at its _STOP_HITS-th hit, which gives a stopped
# p a relative standard error of about 1 / sqrt(_STOP_HITS), 10%.  Besides
# its draws a Patefield chunk costs (K-1)^2 hypergeometric calls, whose
# arguments numpy checks for about 27 us each (0.25 ms a chunk at K = 4), and
# a permuted chunk is taken only where it costs less (_permutes), so chunks
# are as costly as draws.  A first chunk of _FIRST_CHUNK draws holds
# the stop of a table with a large p; each later one is _CHUNK_MARGIN times
# the draws the hits so far predict up to the stop, at least _FIRST_CHUNK,
# or the cap while there is no hit.  So a table that stops pays for few
# draws past its stop, and one that never stops for no more chunks than
# capped ones would take.
# With a level alpha the run also stops at the end of its i-th chunk once
# P(Bin(draws, alpha) <= hits) < _DECISION_RISK 2^-i.  These bounds sum to
# _DECISION_RISK, so a table whose exact p is alpha or more is decided below
# alpha with at most that chance, however many chunks the run takes.  Its
# first chunk is then large enough for a run with no hit to stop there, and
# no later chunk exceeds the draws so far, so a run has O(log samples)
# checkpoints.
# A table of log(i!) costs time and memory in proportion to n; past
# _LOG_FACTORIAL_TABLE entries lgamma is taken at each cell vector's distinct
# values instead, at most K^2 calls a draw.
_STOP_HITS = 100
_FIRST_CHUNK = 256
_CHUNK_MARGIN = 1.25
_DECISION_RISK = 1e-3
_LOG_FACTORIAL_TABLE = 1 << 16


def _binomial_cdf(hits: int, draws: int, p: float) -> float:
    """P(Bin(draws, p) <= hits) for 0 < p < 1: the sum of its terms, each
    taken whole in log space from the exact integer C(draws, j)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    total, c = 0.0, 1
    for j in range(hits + 1):
        total += math.exp(math.log(c) + j * log_p + (draws - j) * log_q)
        c = c * (draws - j) // (j + 1)
    return total


def _log_factorial_sums(cells, log_factorials):
    """Each draw's sum of log(cell!) over a chunk's K^2 cell vectors, added
    in row-major order, so equal tables tie to the bit.  A (K^2, m) array
    from _permuted_cells is scored with one take and a sum over its cell
    axis, which numpy adds row by row from m = 2 on; it sums the cells of a
    single draw pairwise, so those, like Patefield's stream, are added
    vector by vector."""
    if isinstance(cells, np.ndarray) and cells.shape[1] > 1:
        return np.add.reduce(log_factorials(cells), 0)
    s = 0.0
    for c in cells:
        s += log_factorials(c)
    return s


def fisher_montecarlo_kxk(
    t: ContingencyTable, samples: int = _DEFAULT_SAMPLES, seed: int = 0,
    alpha: float | None = _DEFAULT_ALPHA,
) -> SampledReport:
    """Monte Carlo estimate of the exact fixed-margin test for K x K tables.

    Each chunk of tables is drawn by one of two sources of the same
    fixed-margin law: Patefield's algorithm, (K-1)^2 hypergeometric draws a
    table whatever n is, or a random permutation of the n column labels
    against the row labels, one sort of n random 32-bit keys a table
    whatever K is, a draw whose keys tie across a row boundary dealt again.
    A chunk of m draws is permuted when 6 n m ns < (K-1)^2 (28 us + 66 m ns),
    the measured costs of the two with their statistic, m (n + K^2) <= 2^18
    and (K-1) n 2^ceil(log2 K) <= 2^26, so small tables (K = 4 up to n = 263
    at m = 256, K = 3 up to n = 116) permute and large ones do not; the rule
    reads K, n and m alone, so a seed still fixes every output.  A hit is a
    draw at most as probable as the observed table (log scale, tie
    tolerance 1e-9).  Drawing stops at the 100th hit,
    the l-th draw, with p = 100 / l (Besag & Clifford 1991); a run that
    reaches `samples` draws first gives p = (hits + 1) / (draws + 1) (Phipson
    & Smyth 2010).  So samples caps the draws and sets the smallest p,
    1 / (samples + 1); a stopped p is at least 100 / samples.  Both are
    valid p-values, and the report carries the draws and hits behind p and
    the standard error of their hit rate.  Deterministic for a given seed.

    With a level alpha in (0, 1) the run also stops at the end of its i-th
    chunk once P(Bin(draws, alpha) <= hits) < 10^-3 2^-i, so a table whose p
    lies far below alpha is settled in a few hundred draws.  p is then
    (hits + 1) / (draws + 1), below alpha, and the report's level is alpha:
    drawn by a run stopped for its few hits, that p records the decision at
    alpha and estimates the exact p no better than its hits allow, so it is
    not one to calibrate or to read at another level.  Summed over every
    checkpoint, the chance that a table whose exact p is alpha or more is
    decided below it is at most 10^-3 (a sequential Monte Carlo test in the
    sense of Gandy 2009, checked at chunk ends only).  alpha=None turns the
    boundary off, for a p that estimates the exact one.

    Draws are taken in chunks of at most 2^16 // K tables: the first of 256,
    each later one 1.25 times the draws the hits so far predict up to the
    100th, but at least 256, and 2^16 // K while there is no hit.  With a
    level the first chunk is at least ceil(log(5 10^-4) / log(1 - alpha))
    draws, enough to settle a run with no hit (149 at alpha = 0.05, 757 at
    0.01), and no later chunk exceeds the draws so far.  A Patefield chunk
    costs (K-1)^2 numpy calls besides its draws, so a table pays for few
    draws past its stop and few chunks.  A Patefield chunk holds only O(K)
    of its cell vectors at once, summed one by one.  A permuted chunk sorts
    its keys in place in one m x n uint32 array and counts them into m K^2
    cells, at most 2^18 values together, through bincount's int64 copy of
    one block of at most 2^15 keys (or one draw) at a time, then scores the
    counts with one take into m K^2 doubles.  So the sampler's working set
    stays a small multiple of 2^16 values (512 KiB as int64) at any K."""
    _check_whole("samples", samples, _LEAST_SAMPLES)
    _check_whole("seed", seed)
    if alpha is not None:
        _check_alpha(alpha)
    n = t.n
    if n == 0:
        raise DataError("cannot test an empty table")
    if n >= 10**9:
        raise DataError(f"the sampled exact test needs n below 10^9, got {n}")
    # With fixed margins -sum(log(cell!)) orders the tables' probabilities; it
    # is added cell by cell in row-major order, so equal tables tie to the bit.
    # No cell of a table with these margins exceeds the smaller of the largest
    # row and column totals, so a table of log(i!) stops there.  Past
    # _LOG_FACTORIAL_TABLE entries the same lgamma doubles are taken per
    # vector and added in the same order, so p keeps its bits.
    top = int(min(t.row_totals.max(), t.col_totals.max()))
    if top < _LOG_FACTORIAL_TABLE:
        log_factorials = np.fromiter((math.lgamma(i + 1.0) for i in range(top + 1)),
                                     float, top + 1).take
    else:
        def log_factorials(cells):
            values, index = np.unique(cells, return_inverse=True)
            return np.fromiter((math.lgamma(v + 1.0) for v in values.tolist()),
                               float, values.size)[index]
    s_obs = 0.0
    for value in log_factorials(t.counts.ravel()).tolist():
        s_obs += value
    rng = np.random.Generator(np.random.SFC64(int(seed) & ((1 << 128) - 1)))
    # _patefield_cells holds O(K) cell vectors of a chunk at once, not K^2,
    # so 2^16 // K draws keep a chunk near 2^16 live values at every K while
    # each hypergeometric call stays wide at large K; a permuted chunk is
    # bounded by _PERMUTE_VALUES instead.
    cap = (1 << 16) // t.k
    first = _FIRST_CHUNK
    if alpha is not None:
        # Capped before ceil: at a subnormal alpha the quotient is inf.
        first = max(first, math.ceil(min(cap, math.log(_DECISION_RISK / 2) / math.log1p(-alpha))))
    first = chunk = min(first, cap)
    hits = draws = 0
    risk, level = _DECISION_RISK, None
    while draws < samples:
        m = min(chunk, samples - draws)
        s = _log_factorial_sums(_null_cells(t, m, rng), log_factorials)
        hit = s >= s_obs - 1e-9
        found = int(np.count_nonzero(hit))
        if hits + found >= _STOP_HITS:
            # The chunk's draws after the last hit needed are discarded.
            draws += int(np.flatnonzero(hit)[_STOP_HITS - hits - 1]) + 1
            hits = _STOP_HITS
            break
        hits += found
        draws += m
        chunk = cap
        if hits:
            wanted = _CHUNK_MARGIN * (_STOP_HITS - hits) * draws / hits
            chunk = min(cap, max(first, math.ceil(wanted)))
        if alpha is not None:
            risk /= 2
            # The first test keeps a decided p below alpha and skips the tail
            # sum: a binomial is at most its mean with chance above 1/4
            # (Greenberg & Mohri 2014), so its tail falls below the risk only
            # where hits + 1 <= alpha draws already.
            if (hits + 1) / (draws + 1) < alpha and _binomial_cdf(hits, draws, alpha) < risk:
                level = alpha
                break
            chunk = min(chunk, draws)
    p = hits / draws if hits == _STOP_HITS else (hits + 1) / (draws + 1)
    q = (hits + 1) / (draws + 2)
    return SampledReport(kind="fisher_mc", value=p, df=1, p_value=p, n=n, df_alpha=(t.k - 1) ** 2,
                         df_beta=t.k - 1, draws=draws, hits=hits, se=math.sqrt(q * (1 - q) / draws),
                         level=level)


def exact_test(
    t: ContingencyTable, sidedness: str = _DEFAULT_SIDED, samples: int = _DEFAULT_SAMPLES,
    seed: int = 0, alpha: float | None = _DEFAULT_ALPHA,
) -> SignificanceReport:
    """The exact fixed-margin test of t: the hypergeometric sum
    (fisher_exact_2x2, either side) for a 2x2 table, otherwise the
    fixed-margin sampler (fisher_montecarlo_kxk: Patefield's draws, or label
    permutations for chunks of small tables) from seed, which stops at its
    100th hit, once its decision at level alpha is settled (its p then read
    at alpha alone), or after samples draws; alpha=None leaves only the
    100th hit and the budget, so p estimates the exact one.  samples, seed
    and alpha are read only by the sampler; the sampled test is two-sided,
    so sidedness "one" on a larger table raises UsageError, as any side
    other than "one" or "two" does."""
    if t.k == 2:
        return fisher_exact_2x2(t, sidedness)
    _check_choice("sidedness", sidedness, _SIDES)
    if sidedness != "two":
        raise UsageError(f"the sampled exact test of a {t.k}x{t.k} table is two-sided, "
                         f"got sidedness '{sidedness}'")
    return fisher_montecarlo_kxk(t, samples, seed, alpha)


def williams_correction(report: SignificanceReport, t: ContingencyTable) -> SignificanceReport:
    """Shrink a log-likelihood statistic of t by Williams' (1976) factor
    q = 1 + (a^2 - 1) / (6 n r), in the form the report's kind fixes.

    The single-margin g2_plus_p and g2_plus_r test goodness of fit: a = K
    over r = K - 1 degrees.  full_g2 tests independence: a^2 - 1 =
    (K/prev_h - 1)(K/bias_h - 1) from the harmonic mean margins over
    r = (K-1)^2 degrees.  The corrected statistic is re-tested at the
    report's own df.  Any other kind, a report already corrected, or one of
    a table with another n or K raises UsageError.
    """
    if report.kind not in _WILLIAMS_KINDS:
        raise UsageError(f"Williams corrects {', '.join(_WILLIAMS_KINDS)} only, got '{report.kind}'")
    if "williams" in report.corrections:
        raise UsageError(f"the {report.kind} report is already Williams-corrected")
    s = t._summary
    k = t.k
    n = s.n
    if (report.n, report.df_beta) != (n, k - 1):
        raise UsageError(f"the report is of a table with n={report.n}, K-1={report.df_beta}, "
                         f"not of this one with n={n}, K-1={k - 1}")
    if report.kind != "full_g2":
        a2_minus_1 = k * k - 1.0
        r = k - 1
    else:
        prev_h = k / float(np.sum(1.0 / s.prevalence))
        bias_h = k / float(np.sum(1.0 / s.bias))
        a2_minus_1 = (k / prev_h - 1.0) * (k / bias_h - 1.0)
        r = (k - 1) ** 2
    q = 1.0 + a2_minus_1 / (6.0 * n * r)
    return _report(report.kind, report.value / q, report.df, report.n, k,
                   report.corrections | {"williams"})


def significance_reports(
    t: ContingencyTable, families: tuple[str, ...] = ("all",), *, sided: str = _DEFAULT_SIDED,
    samples: int = _DEFAULT_SAMPLES, seed: int = 0, alpha: float | None = _DEFAULT_ALPHA,
    yates: bool = False, williams: bool = False,
) -> list[SignificanceReport]:
    """The reports the named families select, each once, in the order
    `chancekit significance` prints them.

    "all" selects every report: on a 2x2 table first chi2_positive and then
    g2_positive on each positive class, then chi2_bookmaker_family's kinds
    in FAMILY_KINDS order, full_table_tests and exact_test (which reads
    sided, samples, seed and alpha: a K x K sampler stops once its decision
    at alpha is settled, and alpha=None draws to its 100th hit or its
    budget).  "kb", "km" and "kbm" select that kind, "x" and "conv" the
    three kinds of that form, "full" and "fisher" the last two.  yates
    corrects the single-margin chi-squared tests and williams the
    log-likelihood ones (williams_correction).  A bare string for families,
    any other family, samples not an integer of at least 1000, alpha neither
    None nor in (0, 1), or sided other than "one" or "two" raises UsageError
    on every table; a one-sided test of a table larger than 2x2 is refused
    only where exact_test runs.
    """
    if isinstance(families, str):
        raise UsageError(f"families is a tuple such as ('{families}',), not the string '{families}'")
    for family in families:
        _check_choice("family", family, _FAMILIES)
    _check_whole("samples", samples, _LEAST_SAMPLES)
    if alpha is not None:
        _check_alpha(alpha)
    _check_choice("sidedness", sided, _SIDES)
    chosen = set(_FAMILIES if "all" in families else families)
    reports = []
    if "all" in chosen and t.k == 2:
        reports.extend(chi2_positive(t, target, yates) for target in _POSITIVE_TARGETS)
        reports.extend(g2_positive(t, target) for target in _POSITIVE_TARGETS)
    # Of the kind names only kb, km and kbm are families, and of the forms
    # only x and conv.
    reports.extend(chi2_bookmaker_family(t, kind) for kind, spec in _FAMILY_FORMS.items()
                   if kind in chosen or spec[0] in chosen)
    if "full" in chosen:
        reports.extend(full_table_tests(t))
    if "fisher" in chosen:
        reports.append(exact_test(t, sided, samples, seed, alpha))
    if williams:
        reports = [williams_correction(r, t) if r.kind in _WILLIAMS_KINDS else r for r in reports]
    return reports


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
