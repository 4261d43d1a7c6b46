"""Contingency tables: construction, validation, margins, and transforms.

Orientation is fixed for the whole package: rows index predicted labels and
columns index real classes.  Counts are stored as immutable 64-bit integers;
probabilities are always derived on demand and never stored as the source of
truth.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, UsageError

__all__ = [
    "ContingencyTable",
    "NormalizedTable",
    "Margins",
    "CostModel",
    "TRANSFORM_KINDS",
    "from_counts",
    "from_pairs",
    "normalize",
    "margins",
    "dichotomize",
    "transform",
    "expectation_delta",
    "repair_zero_margins",
    "require_positive_margins",
    "parse_table_csv",
    "load_table_csv",
    "parse_pairs",
    "load_pairs",
]

TRANSFORM_KINDS = ("inverse", "dual", "perverse_rows", "perverse_cols")

# The Monte Carlo generator's margin and cell distributions, the families
# significance_reports takes (in `significance --family` order), the exact
# test's sides and its default side, its default and least sampler budget,
# the default level and normal multiplier (two-tailed 95%), and the one cell
# formatting of montecarlo's CSV files and the CLI's csv output.  They live
# here so the command-line parser and renderers import none of montecarlo,
# significance and confidence; montecarlo exports the two tuples.
MARGIN_DISTRIBUTIONS = ("uniform", "binomial")
CELL_DISTRIBUTIONS = ("uniform", "binomial_copula", "absolute_shifted_normal")
_FAMILIES = ("all", "kb", "km", "kbm", "x", "conv", "full", "fisher")
_SIDES = ("one", "two")
_DEFAULT_SIDED = "two"
_DEFAULT_SAMPLES = 100_000
_LEAST_SAMPLES = 1_000
_DEFAULT_ALPHA = 0.05
_DEFAULT_X = 1.96

# The six rules on caller arguments, each raised here only.  The battery
# runs several per table, so types are tested against concrete classes, float
# first, not the slower numbers.Real, and a bool is told apart by identity.
_INTEGERS = (int, np.integer)
_REALS = (float, int, np.floating, np.integer)


def _check_choice(what: str, value, choices: tuple[str, ...]) -> None:
    """Refuse a value that is not one of choices, naming them."""
    if value not in choices:
        raise UsageError(f"unknown {what} '{value}'; expected one of {', '.join(choices)}")


def _check_whole(what: str, value, least: int | None = None) -> None:
    """Refuse a bool, a float or any other non-integer, and an integer below least."""
    if not isinstance(value, _INTEGERS) or value is True or value is False:
        raise UsageError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise UsageError(f"need at least {least} {what}, got {value}")


def _check_positive(what: str, value) -> None:
    """Refuse anything but a positive finite int or float, so a bool, NaN
    or string too (False fails the bound)."""
    if not isinstance(value, _REALS) or value is True or not 0.0 < value < math.inf:
        raise UsageError(f"{what} must be a positive finite number, got {value!r}")


def _check_within(what: str, value, low: float, high: float = math.inf) -> None:
    """Refuse anything but a finite int or float in [low, high], so a bool,
    a string, NaN and inf too; low is finite, high may be inf."""
    if (not isinstance(value, _REALS) or value is True or value is False
            or not low <= value <= high or value == math.inf):
        raise UsageError(f"{what} must be a finite number in [{low:g}, {high:g}], got {value!r}")


def _check_alpha(alpha) -> None:
    """Refuse a test level that is not a number in (0, 1), NaN included."""
    if not isinstance(alpha, _REALS) or not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_2x2(what: str, t: ContingencyTable) -> None:
    """Refuse a table larger than 2x2 for measures defined on 2x2 tables."""
    if t.k != 2:
        raise UsageError(f"{what} are defined for 2x2 tables, got {t.k}x{t.k}")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        # np.float64's repr names its type, and np.float32 is no float.
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


_INT64_MAX = int(np.iinfo(np.int64).max)
_NEGATIVE = "counts must be non-negative"
_TOO_LARGE = "counts total exceeds the 64-bit integer range"


def _real_cells(what: str, values) -> np.ndarray:
    """values as an array, refusing bool, complex, string and other non-real
    cells, as the argument rules refuse a bool or a string, instead of
    casting them; an object cell must be an int or a float."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        for value in arr.flat:
            if not isinstance(value, _REALS) or value is True or value is False:
                raise DataError(f"{what} must be real numbers, got {value!r}")
    return arr


def _whole_floats(values: np.ndarray) -> np.ndarray:
    """Float counts rounded to whole numbers, refused unless finite and
    whole already."""
    if not np.all(np.isfinite(values)):
        raise DataError("counts must be finite")
    rounded = np.rint(values)
    if not np.array_equal(values, rounded):
        raise DataError("counts must be whole numbers")
    return rounded


def _validated_counts(counts) -> np.ndarray:
    """Counts as a K x K int64 matrix, K >= 2: finite, whole, non-negative,
    and a total that fits."""
    arr = np.asarray(counts)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DataError(f"counts must form a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DataError("a contingency table needs at least 2 labels")
    if arr.dtype.kind not in "iu":
        _real_cells("counts", arr)
        if arr.dtype == object:
            # Int cells stay exact Python integers for the checks below; a
            # float cast would round one past 2^53 or overflow on a 401-digit
            # one.  Float cells pass the whole-number check first.
            cells = arr.ravel().tolist()
            _whole_floats(np.array([v for v in cells if not isinstance(v, (int, np.integer))], float))
            arr = np.array([int(v) for v in cells], dtype=object).reshape(arr.shape)
        else:
            arr = _whole_floats(arr.astype(float))
    return _fitting_counts(arr).astype(np.int64)


def _fitting_counts(arr: np.ndarray) -> np.ndarray:
    """Integer counts, refused when a cell is negative or the total passes
    the int64 range; the simulation checks its int64 arrays here."""
    if np.minimum.reduce(arr, None) < 0:
        raise DataError(_NEGATIVE)
    # An int64 sum wraps silently.  The largest cell times the cell count
    # bounds the total, so the exact sum is only taken when that bound fails.
    if (int(np.maximum.reduce(arr, None)) * arr.size > _INT64_MAX
            and sum(int(v) for v in arr.flat) > _INT64_MAX):
        raise DataError(_TOO_LARGE)
    return arr


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """K x K integer counts plus one shared ordered label sequence.

    Row i holds everything predicted as labels[i]; column j holds everything
    that really belongs to labels[j].
    """

    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = _validated_counts(self.counts)
        labels = tuple(map(str, self.labels))
        if len(labels) != arr.shape[0]:
            raise DataError(
                f"got {len(labels)} labels for a {arr.shape[0]}x{arr.shape[0]} table"
            )
        if len(set(labels)) != len(labels):
            raise DataError("labels must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    # np.add.reduce is the sum ndarray.sum reaches through its Python wrapper.
    @cached_property
    def n(self) -> int:
        """Taken on first use and kept, since the counts are read-only."""
        return int(np.add.reduce(self.counts, None))

    @cached_property
    def row_totals(self) -> np.ndarray:
        """Taken on first use and kept, read-only, as n is."""
        totals = np.add.reduce(self.counts, 1)
        totals.setflags(write=False)
        return totals

    @cached_property
    def col_totals(self) -> np.ndarray:
        """Taken on first use and kept, read-only, as n is."""
        totals = np.add.reduce(self.counts, 0)
        totals.setflags(write=False)
        return totals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.counts, other.counts)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ContingencyTable(labels={self.labels}, counts={self.counts.tolist()})"

    @cached_property
    def _summary(self) -> "_TableSummary":
        """Built on first use and kept; raises DataError on a zero margin."""
        return _TableSummary(self)


class _TableSummary:
    """What every chance-corrected measure reads from a table with positive
    margins, and the only place that reduces them: prevalence and bias as
    fractions of n, the joint probabilities and their independence
    expectation, the mean log-margins (so margin products stay finite at any
    K), and at index i of each one-vs-rest vector the rate binary_stats
    reports for dichotomize(t, i), which at K = 2 is read from index 0.
    Every array is read-only.  The (B, M) pair of multiclass informedness and
    markedness, kappa, the determinant, the positive cells, the mutual
    information and the nine evenness forms are taken on first use and then
    shared by every reader.  The summary holds no reference to its table."""

    def __init__(self, t: ContingencyTable) -> None:
        require_positive_margins(t)
        counts, rows, cols, n = t.counts, t.row_totals, t.col_totals, t.n
        d = counts.diagonal()
        self.n = n
        # One-vs-rest cells as fractions of n; the true negatives stay an
        # exact integer count until the division, as in dichotomize.
        self.tp, self.fp, self.fn, self.tn = tp, fp, fn, tn = (
            d / n, (rows - d) / n, (cols - d) / n, (n - rows - cols + d) / n)
        self.rp, self.rn, self.pp, self.pn = rp, rn, pp, pn = tp + fn, fp + tn, tp + fp, fn + tn
        self.recall, self.precision = recall, precision = tp / rp, tp / pp
        self.prevalence, self.bias = prevalence, bias = cols / n, rows / n
        self.probs, self.expected = counts / n, np.multiply.outer(bias, prevalence)
        self.informedness, self.markedness = recall + tn / rn - 1.0, precision + tn / pn - 1.0
        self.f1, self.g_measure = 2.0 * tp / (rp + pp), np.sqrt(recall * precision)
        self._diagonal, self._rows, self._cols = d, rows, cols
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        # Dividing the pairwise sum by K is what np.mean does.
        k = len(d)
        self.mean_log_prevalence = float(np.add.reduce(np.log(prevalence))) / k
        self.mean_log_bias = float(np.add.reduce(np.log(bias))) / k

    @cached_property
    def bm(self) -> tuple[float, float]:
        """(B, M): the prevalence-weighted mean of the per-label informedness
        and the bias-weighted mean of the per-label markedness, each clamped
        to [-1, 1] (see _clamped_dot).  Read by multiclass_stats,
        correlation_bmg and the evenness-scaled significance family."""
        return (_clamped_dot(self.prevalence, self.informedness),
                _clamped_dot(self.bias, self.markedness))

    @cached_property
    def kappa(self) -> float:
        """Cohen's kappa, (n sum(d) - sum(r c)) / (n^2 - sum(r c)) from the diagonal
        and the totals in Python integers, rounded once: exactly 1.0 on a perfect
        table, never above it, and its denominator is positive, as every margin is."""
        n, chance = self.n, sum(map(operator.mul, self._rows.tolist(), self._cols.tolist()))
        return (n * int(np.add.reduce(self._diagonal)) - chance) / (n * n - chance)

    @cached_property
    def determinant(self) -> tuple[float, float, float]:
        """(det, sign, log|det|) of the joint probabilities from one
        factorisation (see _joint_det_slogdet); taken on first use, since
        only the multiclass record and det_estimates read it."""
        return _joint_det_slogdet(self.probs)

    @cached_property
    def positive_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The positive joint probabilities in row-major order and their flat
        cell indices, selected once for the mutual information and the
        conditional entropy (0 log 0 counts as 0 in both)."""
        flat = (self.probs > 0.0).ravel().nonzero()[0]
        return self.probs.take(flat), flat

    @cached_property
    def mutual_information(self) -> float:
        """In nats; taken on first use, since both the multiclass record and
        the full-table log-likelihood statistic read it.  Never negative: at
        exact independence the sum leaves a rounding residue either side of 0,
        and a negative one would reach the G-statistic and Cramer's V."""
        p, flat = self.positive_cells
        return max(0.0, _sum_p_log_ratio(p, self.expected.take(flat)))

    @cached_property
    def evenness(self) -> "EvennessVariants":
        """The nine evenness forms of the margins (see EvennessVariants), read
        by multiclass_stats, evenness_variants and the evenness-scaled
        significance family.  The plus forms come from the mean log-margins,
        so they stay finite and positive at any K instead of underflowing."""
        k = len(self.prevalence)
        r, p = self.prevalence * self.rn, self.bias * self.pn
        r_plus = math.exp(2.0 * self.mean_log_prevalence)
        p_plus = math.exp(2.0 * self.mean_log_bias)
        r_minus, p_minus = float(np.add.reduce(r)) / k, float(np.add.reduce(p)) / k
        r_hash, p_hash = k / float(np.add.reduce(1.0 / r)), k / float(np.add.reduce(1.0 / p))
        return EvennessVariants(
            r_plus=r_plus, p_plus=p_plus, g_plus=math.sqrt(r_plus * p_plus),
            r_minus=r_minus, p_minus=p_minus, g_minus=math.sqrt(r_minus * p_minus),
            r_hash=r_hash, p_hash=p_hash, g_hash=math.sqrt(r_hash * p_hash))


@dataclass(frozen=True)
class EvennessVariants:
    """Evenness summaries of the real (r), predicted (p), and geometric-mean
    (g) margins.

    plus: squared geometric mean of the margin vector, (prod m)^(2/K),
          computed in log space as exp(2 * mean(log m))
    minus: arithmetic mean of the per-label dichotomous products m(1-m)
    hash: harmonic mean of the same products
    Each g form is the geometric mean of the matching r and p forms.  For
    K = 2 all three coincide at m(1-m), the plus form up to rounding in its
    logs; for K > 2 the three means genuinely differ.
    """

    r_plus: float
    p_plus: float
    g_plus: float
    r_minus: float
    p_minus: float
    g_minus: float
    r_hash: float
    p_hash: float
    g_hash: float


def _clamped_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """The weighted sum of values, clamped to [-1, 1]: weights that are
    fractions of n can sum to one ulp above 1, which would put a perfect
    table at 1.0000000000000002."""
    return min(1.0, max(-1.0, float(np.dot(weights, values))))


def _sum_p_log_ratio(p: np.ndarray, d: np.ndarray) -> float:
    """Sum of p * log(p / d) over matching cells of any shape, p positive
    (see _TableSummary.positive_cells)."""
    return float(np.add.reduce(p * np.log(p / d), None))


@dataclass(frozen=True, eq=False)
class NormalizedTable:
    """Joint probabilities derived from a count table (cells sum to 1)."""

    probs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        probs = np.asarray(_real_cells("cell probabilities", self.probs), dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise DataError("probabilities must form a square matrix")
        if not np.isfinite(probs).all():
            raise DataError("cell probabilities must be finite")
        if (probs < 0).any() or (probs > 1).any():
            raise DataError("cell probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise DataError("cell probabilities must sum to 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))

    @property
    def k(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class Margins:
    """Column-sum prevalences and row-sum biases of a table, as fractions."""

    prevalence: np.ndarray
    bias: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True)
class CostModel:
    """Class and value skew weights for skew-sensitive accuracy trade-offs.

    cs weighs the class ratio, cv the value ratio; the combined skew
    c = cv * cs is exact by construction.
    """

    cs: float
    cv: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("cs", self.cs)
        _check_positive("cv", self.cv)

    @property
    def c(self) -> float:
        return self.cv * self.cs

    @classmethod
    def from_table(cls, t: ContingencyTable, cv: float = 1.0) -> "CostModel":
        _check_2x2("class skews", t)
        m = margins(t)
        rp, rn = float(m.prevalence[0]), float(m.prevalence[1])
        if rp == 0.0:
            raise DataError("real-positive margin is zero, class skew undefined")
        return cls(cs=rn / rp, cv=cv)


def from_counts(counts, labels: Sequence[str] | None = None) -> ContingencyTable:
    """Build a table from a square count matrix, inventing labels if needed."""
    arr = np.asarray(counts)
    if labels is None:
        labels = _index_labels(arr.shape[0]) if arr.ndim == 2 else ()
    return ContingencyTable(arr, labels)


@lru_cache(maxsize=64)
def _index_labels(k: int) -> tuple[str, ...]:
    """The labels "0" .. str(k - 1), made once per K."""
    return tuple(map(str, range(k)))


def from_pairs(
    pairs: Iterable[tuple[object, object]],
    labels: Sequence[str] | None = None,
) -> ContingencyTable:
    """Tally (predicted, actual) pairs into a table.

    The label set is the union of both columns, sorted lexicographically;
    pass `labels` to force a specific order (it may include extra labels
    that never occur, which then produce zero margins).
    """
    return _table_from_tally(Counter((str(p), str(a)) for p, a in pairs), labels)


def _table_from_tally(
    tally: Counter[tuple[str, str]],
    labels: Sequence[str] | None,
) -> ContingencyTable:
    """Table from positive (predicted, actual) counts, labels as in from_pairs."""
    if not tally:
        raise DataError("no pairs to tally")
    seen = sorted({tok for pair in tally for tok in pair})
    if labels is None:
        ordered = seen
    else:
        ordered = [str(l) for l in labels]
        known = set(ordered)
        missing = [tok for tok in seen if tok not in known]
        if missing:
            raise DataError(f"labels {missing} occur in the data but not in the label override")
    if len(ordered) < 2:
        raise DataError("need at least 2 distinct labels")
    index = {lbl: i for i, lbl in enumerate(ordered)}
    k = len(ordered)
    counts = np.zeros((k, k), dtype=np.int64)
    for (predicted, actual), count in tally.items():
        counts[index[predicted], index[actual]] += count
    return ContingencyTable(counts, tuple(ordered))


def normalize(t: ContingencyTable) -> NormalizedTable:
    """Divide counts by the grand total."""
    n = t.n
    if n == 0:
        raise DataError("cannot normalize an all-zero table")
    return NormalizedTable(t.counts / n, t.labels)


def margins(t: ContingencyTable) -> Margins:
    """Prevalence (column sums / n) and bias (row sums / n)."""
    n = t.n
    if n == 0:
        raise DataError("cannot take margins of an all-zero table")
    prevalence = t.col_totals / n
    bias = t.row_totals / n
    prevalence.setflags(write=False)
    bias.setflags(write=False)
    return Margins(prevalence=prevalence, bias=bias, labels=t.labels)


def require_positive_margins(t: ContingencyTable) -> None:
    """Raise DataError naming the first zero margin, if any: columns first,
    then rows, each at its lowest index."""
    if t.col_totals.all() and t.row_totals.all():
        return
    for totals, kind in ((t.col_totals, "real-class margin (column)"),
                         (t.row_totals, "predicted margin (row)")):
        zeros = np.flatnonzero(totals == 0)
        if zeros.size:
            raise DataError(f"zero {kind} for label '{t.labels[zeros[0]]}'")


def dichotomize(t: ContingencyTable, label_index: int) -> ContingencyTable:
    """Collapse to 2x2 with the chosen label as positive, everything else merged."""
    _check_whole("label index", label_index)
    k = t.k
    if not (0 <= label_index < k):
        raise UsageError(f"label index {label_index} out of range for a {k}x{k} table")
    i = label_index
    tp = int(t.counts[i, i])
    fp = int(t.row_totals[i]) - tp
    fn = int(t.col_totals[i]) - tp
    tn = t.n - tp - fp - fn
    positive = t.labels[i]
    rest = "rest"
    while rest == positive:
        rest = "_" + rest
    return ContingencyTable(
        np.array([[tp, fp], [fn, tn]], dtype=np.int64), (positive, rest)
    )


def _validated_permutation(perm: Sequence[int], k: int) -> np.ndarray:
    arr = np.asarray(perm, dtype=np.int64)
    if sorted(arr.tolist()) != list(range(k)):
        raise UsageError(f"permutation must reorder exactly the indices 0..{k - 1}")
    return arr


def transform(
    t: ContingencyTable,
    kind: str,
    permutation: Sequence[int] | None = None,
) -> ContingencyTable:
    """Relabeling transforms of a table.

    inverse        reverse both label orders (swap positive and negative roles)
    dual           transpose (swap the prediction and real-class roles)
    perverse_rows  reverse the row order only (relabel the predictions)
    perverse_cols  reverse the column order only (relabel the real classes)

    For K > 2 the default reversal is just one of the K!-1 nontrivial
    relabelings; pass `permutation` to pick another.  Labels are kept as-is:
    a transform re-routes counts between the same label slots.
    """
    _check_choice("transform kind", kind, TRANSFORM_KINDS)
    if kind == "dual":
        if permutation is not None:
            raise UsageError("dual takes no permutation")
        return ContingencyTable(t.counts.T.copy(), t.labels)
    perm = (
        np.arange(t.k - 1, -1, -1)
        if permutation is None
        else _validated_permutation(permutation, t.k)
    )
    c = t.counts
    if kind == "inverse":
        new = c[np.ix_(perm, perm)]
    elif kind == "perverse_rows":
        new = c[perm, :]
    else:
        new = c[:, perm]
    return ContingencyTable(new.copy(), t.labels)


def expectation_delta(nt: NormalizedTable) -> tuple[np.ndarray, np.ndarray, float]:
    """Expected joint probabilities under margin independence, deviations, and
    the determinant of the joint matrix.

    Returns (expected, delta, det).  expected[i, j] = bias[i] * prevalence[j];
    delta rows and columns each sum to zero.  For a 2x2 the determinant equals
    delta at the true-positive cell.
    """
    probs = nt.probs
    bias = probs.sum(axis=1)
    prevalence = probs.sum(axis=0)
    expected = np.outer(bias, prevalence)
    return expected, probs - expected, _joint_det_slogdet(probs)[0]


def _joint_det_slogdet(probs: np.ndarray) -> tuple[float, float, float]:
    """Determinant of a square joint-probability matrix, its sign (0 if
    singular) and its log-magnitude, which stays finite where the determinant
    underflows.  Written out at 2x2; above, one LU factorisation gives sign
    and log-magnitude, and det = sign * exp(log|det|) as np.linalg.det forms it."""
    if probs.shape[0] > 2:
        sign, log_abs = map(float, np.linalg.slogdet(probs))
        return sign * math.exp(log_abs), sign, log_abs
    det = float(probs[0, 0] * probs[1, 1] - probs[0, 1] * probs[1, 0])
    return (det, math.copysign(1.0, det), math.log(abs(det))) if det else (det, 0.0, -math.inf)


def repair_zero_margins(t: ContingencyTable) -> ContingencyTable:
    """Return a table whose margins are all positive.

    A zero row i paired with a zero column i gets a 1 at cell (i, i).  Any
    remaining unpaired zero row (column) gets a 1 in the lowest-index column
    (row) that already has a positive margin.  Tables with all margins
    positive come back unchanged (same object).
    """
    c = _repaired_counts(t.counts)
    return t if c is t.counts else ContingencyTable(c, t.labels)


def _repaired_counts(counts: np.ndarray) -> np.ndarray:
    """repair_zero_margins on an int64 count matrix: the same array when
    every margin is positive, else a repaired copy, refused as
    _fitting_counts refuses it."""
    rows = np.add.reduce(counts, 1)
    cols = np.add.reduce(counts, 0)
    if (rows > 0).all() and (cols > 0).all():
        return counts
    c = counts.copy()
    paired = np.flatnonzero((rows == 0) & (cols == 0))
    c[paired, paired] = 1
    # Units go only into positive columns, so the lowest one stays the same
    # for every zero row, and after that every row is positive.
    c[c.sum(axis=1) == 0, np.argmax(c.sum(axis=0) > 0)] += 1
    c[0, c.sum(axis=0) == 0] += 1
    return _fitting_counts(c)


# --- file formats ---------------------------------------------------------

_PRED_HEADER_WORDS = {"predicted", "prediction", "pred", "system", "output"}
_REAL_HEADER_WORDS = {"actual", "real", "gold", "true", "class", "label", "reference"}


def _sniff_delimiter(text: str) -> str:
    """Delimiter of the first 4096 characters, sampled with line endings
    translated to \n, so input sniffs the same whatever its line endings;
    a translated character comes from at most two raw ones."""
    sample = text[:8192].replace("\r\n", "\n").replace("\r", "\n")[:4096]
    lines = sample.splitlines()
    if not lines:
        raise DataError("empty input")
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t").delimiter
    except csv.Error:
        return "\t" if "\t" in lines[0] else ","


def _rewind(handle: TextIO) -> None:
    """Seek to the first character after one leading byte-order mark."""
    handle.seek(0)
    if handle.read(1) != "\ufeff":
        handle.seek(0)


def _delimiter(handle: TextIO) -> str:
    """Sniffed delimiter of a seekable handle opened with newline="", which
    is left rewound for csv.

    Lines end at \r, \n or \r\n outside quotes, and line breaks inside quoted
    cells stay as written.  One leading byte-order mark is skipped.
    """
    _rewind(handle)
    delimiter = _sniff_delimiter(handle.read(8192))
    _rewind(handle)
    return delimiter


def _rows(handle: TextIO, delimiter: str) -> Iterator[list[str]]:
    """Stripped non-blank rows in file order."""
    for raw in csv.reader(handle, delimiter=delimiter):
        cells = [c.strip() for c in raw]
        if any(cells):
            yield cells


def _count_value(token: str) -> int | float | None:
    """A numeric cell as an exact int when it is whole, else as a float;
    None when it is not a number."""
    try:
        return int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            return None
        return int(value) if value.is_integer() else value


def parse_table_csv(text: str, labels: Sequence[str] | None = None) -> ContingencyTable:
    """Parse a K x K count matrix, with optional header row and label column.

    Header and label column are auto-detected from non-numeric leading cells;
    under a header, body rows one cell wider than their number also have a
    label column, so labels may be numbers.  When both row and column labels
    are present they must name the same set; columns are reordered to match
    the row order.
    """
    return _read(io.BytesIO(text.encode("utf-8", "surrogatepass")), _read_table, labels,
                 "utf-8", "surrogatepass")


def _read_table(handle: TextIO, labels: Sequence[str] | None) -> ContingencyTable:
    rows = list(_rows(handle, _delimiter(handle)))
    if not rows:
        raise DataError("empty table file")

    def to_matrix(data: list[list[str]]) -> np.ndarray:
        matrix = []
        for i, row in enumerate(data, start=1):
            if len(row) != len(data[0]):
                raise DataError(f"ragged table row at data line {i}")
            values = [_count_value(cell) for cell in row]
            if None in values:
                raise DataError(f"non-numeric count '{row[values.index(None)]}' at data line {i}")
            matrix.append(values)
        return np.array(matrix)

    if _count_value(rows[0][0]) is not None:
        matrix = to_matrix(rows)
        return from_counts(matrix, labels)

    header = rows[0]
    body = rows[1:]
    if not body:
        raise DataError("table file has a header but no data rows")
    if _count_value(body[0][0]) is None or len(body[0]) == len(body) + 1:
        row_labels = [r[0] for r in body]
        data = [r[1:] for r in body]
        col_labels = header[1:] if len(header) == len(data[0]) + 1 else header
    else:
        row_labels = []
        data = body
        col_labels = header
    matrix = to_matrix(data)
    if matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"table is {matrix.shape[0]}x{matrix.shape[1]}, expected square")
    if row_labels:
        if sorted(col_labels) != sorted(row_labels):
            raise DataError("row and column labels name different sets")
        if list(col_labels) != list(row_labels):
            order = [list(col_labels).index(lbl) for lbl in row_labels]
            matrix = matrix[:, order]
        parsed = list(row_labels)
    else:
        if len(col_labels) != matrix.shape[1]:
            raise DataError("header width does not match the data width")
        parsed = list(col_labels)
    if labels is not None:
        forced = [str(l) for l in labels]
        if sorted(forced) != sorted(parsed):
            raise DataError("label override does not match the labels in the file")
        order = [parsed.index(lbl) for lbl in forced]
        matrix = matrix[np.ix_(order, order)]
        parsed = forced
    return ContingencyTable(matrix, tuple(parsed))


def parse_pairs(text: str, labels: Sequence[str] | None = None) -> ContingencyTable:
    """Parse a two-column (predicted, actual) file into a table.

    Comma, semicolon or tab delimited.  Cells are stripped of surrounding
    whitespace and blank rows are skipped; a first non-blank row like
    "predicted,actual" is treated as a header, anything else as data.

    Identical rows are counted first and validated once each, so the work
    after the count grows with the number of distinct rows (at most K^2 for
    clean data), not with the number of rows.  Rows that differ only in the
    blanks around their cells add up under one row.
    """
    return _read(io.BytesIO(text.encode("utf-8", "surrogatepass")), _read_pairs, labels,
                 "utf-8", "surrogatepass")


def _read_pairs(handle: TextIO, labels: Sequence[str] | None) -> ContingencyTable:
    delimiter = _delimiter(handle)
    tally = _row_tally(handle, delimiter)
    if not tally:
        raise DataError("empty pairs file")
    # Counter keys keep first-occurrence order, so the first key is the
    # file's first non-blank row.
    first = next(iter(tally))
    if _is_pairs_header(first):
        tally[first] -= 1
    tally = +tally
    if any(len(cells) != 2 for cells in tally):
        raise _first_width_error(handle, delimiter)
    return _table_from_tally(tally, labels)


def _row_tally(handle: TextIO, delimiter: str) -> Counter[tuple[str, ...]]:
    """Count of each non-blank csv row, its cells stripped, keyed in
    first-occurrence order.

    With newline="", a handle splits lines where csv splits records, unless
    a quote opens a cell spanning lines.  So when every distinct line that
    holds a quote is a whole record on its own, such as a quoted header,
    each line is one record: the lines are counted at C speed and only the
    distinct ones are parsed and stripped.  Otherwise csv reads the handle
    again row by row and only the distinct rows are stripped.  Either way,
    rows that differ only in their ending or in the blanks around their
    cells add up under one row.
    """
    counts = Counter(handle)
    if all(_is_record(line, delimiter) for line in counts if '"' in line):
        rows = csv.reader(counts, delimiter=delimiter)
    else:
        _rewind(handle)
        rows = counts = Counter(map(tuple, csv.reader(handle, delimiter=delimiter)))
    tally: Counter[tuple[str, ...]] = Counter()
    for row, count in zip(rows, counts.values()):
        cells = tuple(c.strip() for c in row)
        if any(cells):
            tally[cells] += count
    return tally


def _is_record(line: str, delimiter: str) -> bool:
    """Whether csv reads `line` as one whole record: a quote left open
    would take the blank line after it into its cell, leaving one row."""
    try:
        return sum(1 for _ in csv.reader([line, "\n"], delimiter=delimiter)) == 2
    except csv.Error:
        return False


def _is_pairs_header(cells: Sequence[str]) -> bool:
    return (
        len(cells) >= 2
        and cells[0].lower() in _PRED_HEADER_WORDS
        and cells[1].lower() in _REAL_HEADER_WORDS
    )


def _first_width_error(handle: TextIO, delimiter: str) -> DataError:
    """Error for the first data row, in file order, that is not 2 cells wide.

    Line numbers count non-blank rows, the header included.  csv reads the
    handle again from the start, row by row, up to that row.
    """
    _rewind(handle)
    for i, row in enumerate(_rows(handle, delimiter), start=1):
        if len(row) != 2 and not (i == 1 and _is_pairs_header(row)):
            return DataError(f"expected 2 columns at pairs line {i}, got {len(row)}")
    raise AssertionError("no row of the wrong width")


def _read(
    raw: BinaryIO,
    read: Callable[[TextIO, Sequence[str] | None], ContingencyTable],
    labels: Sequence[str] | None,
    encoding: str | None = None,
    errors: str | None = None,
) -> ContingencyTable:
    """`read` on the seekable bytes `raw`, decoded as they are read in
    `encoding` (the locale's when None) with line endings as written
    (newline=""), so csv sees a \r inside a quoted cell as data.

    Every table source comes through here: text as its UTF-8 bytes, one to
    four a character where io.StringIO holds four (surrogatepass keeps lone
    surrogates as they are), and a file as its own bytes.  A csv error is a
    DataError.  A streaming decoder counts bytes from the start of its
    chunk, so on an undecodable byte `raw` is decoded again whole, to raise
    the UnicodeDecodeError at the byte's offset in the stream.  The text
    wrapper is detached on the way out, so the caller owns and closes `raw`.
    """
    handle = io.TextIOWrapper(raw, encoding=encoding, errors=errors, newline="")
    try:
        return read(handle, labels)
    except csv.Error as exc:
        raise DataError(f"malformed delimited text: {exc}") from None
    except UnicodeDecodeError:
        raw.seek(0)
        raw.read().decode(handle.encoding, handle.errors)
        raise
    finally:
        handle.detach()


def _load(
    path: str | Path,
    read: Callable[[TextIO, Sequence[str] | None], ContingencyTable],
    labels: Sequence[str] | None,
) -> ContingencyTable:
    """_read on the bytes of the file at `path`, in the locale encoding.  A
    stream that cannot seek, such as a pipe, is read whole first into one
    bytes buffer.  Undecodable bytes are a DataError."""
    try:
        with open(path, "rb") as raw:
            return _read(raw if raw.seekable() else io.BytesIO(raw.read()), read, labels)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path} is not valid {exc.encoding} text ({exc.reason} at byte {exc.start})"
        ) from None


def load_table_csv(path: str | Path, labels: Sequence[str] | None = None) -> ContingencyTable:
    """parse_table_csv on the file at `path`, read from its handle."""
    return _load(path, _read_table, labels)


def load_pairs(path: str | Path, labels: Sequence[str] | None = None) -> ContingencyTable:
    """parse_pairs on the file at `path`, read from its handle, so memory
    holds one count per distinct line or row, not the text of a file that
    can seek."""
    return _load(path, _read_pairs, labels)
