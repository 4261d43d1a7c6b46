"""Coverage and significance simulation over stepped association levels.

The generator builds, for each step level l in [0, 1], a perfect-performance
table (random diagonal), a chance-level table (random margins, cells spread
around their margin-product expectations), and mixes them with weights l and
1 - l.  The mixed table is rounded, its zero margins are repaired, and unit
increments or decrements on randomly chosen cells force the total back to
the target n.  That constraint step follows the generating story of events
being added or dropped at random, so the realized association jitters around
the target level by design.

Every run draws from its own counter-based random stream keyed by a SHA-256
hash of (seed, step, run), which makes the whole grid a pure function of its
configuration and keeps runs independent of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .confidence import CI_VARIANTS, ConfidenceInterval, confidence_interval, evenness_factor
from .contingency import (
    _DEFAULT_ALPHA,
    _DEFAULT_X,
    _INT64_MAX,
    _LEAST_SAMPLES,
    CELL_DISTRIBUTIONS,
    MARGIN_DISTRIBUTIONS,
    ContingencyTable,
    _check_alpha,
    _check_choice,
    _check_fillable,
    _check_positive,
    _check_whole,
    _check_within,
    _fitting_counts,
    _fmt,
    _repaired_counts,
    from_counts,
)
from .errors import DataError, UsageError
from .multiclass import MulticlassStats, multiclass_stats
from .significance import SignificanceReport, cramers_v, significance_reports

__all__ = [
    "MARGIN_DISTRIBUTIONS",
    "CELL_DISTRIBUTIONS",
    "SimConfig",
    "SimRun",
    "StepSummary",
    "CoverageReport",
    "substream",
    "gen_perfect",
    "gen_chance",
    "mix_and_constrain",
    "run_single",
    "run_grid",
    "coverage_report",
    "write_runs_csv",
    "write_summary_csv",
    "RUNS_CSV_COLUMNS",
]

RUNS_CSV_COLUMNS = (
    "step", "run", "l", "n_realized", "B", "M", "BMG", "kappa",
    "cramers_v_chi2", "cramers_v_g2", "p_chi2", "p_g2", "p_fisher",
    "fisher_draws", "fisher_hits", "fisher_se", "fisher_level",
    "ci_lo", "ci_hi", "within_band", "seed_stream",
)
# The SampledReport fields runs.csv gives as fisher_<name>: what a sampled
# p_fisher rests on, and the level it was decided at.
_SAMPLED_FIELDS = ("draws", "hits", "se", "level")

@dataclass(frozen=True)
class SimConfig:
    """Grid configuration; the default grid is 11 levels x 10 runs."""

    k: int
    n: int
    steps: int = 11
    runs_per_step: int = 10
    margin_distribution: str = "binomial"
    cell_distribution: str = "absolute_shifted_normal"
    enforce_integer: bool = True
    seed: int = 0
    x: float = _DEFAULT_X
    alpha: float = _DEFAULT_ALPHA
    fisher_samples: int = 10_000

    def __post_init__(self) -> None:
        _check_whole("classes", self.k, 2)
        _check_whole("n", self.n)
        _check_fillable(self.n, self.k)
        _check_whole("steps", self.steps, 2)
        _check_whole("runs per step", self.runs_per_step, 1)
        _check_choice("margin distribution", self.margin_distribution, MARGIN_DISTRIBUTIONS)
        _check_choice("cell distribution", self.cell_distribution, CELL_DISTRIBUTIONS)
        _check_whole("seed", self.seed)
        _check_alpha(self.alpha)
        _check_positive("multiplier", self.x)
        _check_whole("samples", self.fisher_samples, _LEAST_SAMPLES)

    def level(self, step: int) -> float:
        return step / (self.steps - 1)


@dataclass(frozen=True)
class SimRun:
    """One generated table with its statistics; error runs keep only the
    identifying fields and the error text."""

    step: int
    run: int
    level: float
    seed_stream: str
    table: ContingencyTable | None = None
    stats: MulticlassStats | None = None
    full_chi2: SignificanceReport | None = None
    full_g2: SignificanceReport | None = None
    fisher: SignificanceReport | None = None
    kb: SignificanceReport | None = None
    km: SignificanceReport | None = None
    kbm: SignificanceReport | None = None
    ci_null: ConfidenceInterval | None = None
    ci_empirical: ConfidenceInterval | None = None
    ci_full: ConfidenceInterval | None = None
    within_band: bool | None = None
    error: str | None = None

    @property
    def n_realized(self) -> int | None:
        return None if self.table is None else self.table.n


def substream(seed: int, *path: int) -> tuple[np.random.Generator, str]:
    """Independent deterministic stream for one (seed, *path) address.

    The SHA-256 digest of the address seeds a counter-based generator, so
    streams for distinct addresses are independent and platform-stable; the
    first 8 digest bytes serve as a printable stream id.
    """
    address = (seed, *path)
    for part in address:
        _check_whole("stream address", part)
    payload = ",".join(str(int(p)) for p in address).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    key = int.from_bytes(digest[:16], "little")
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng, digest[:8].hex()


def gen_perfect(k: int, n: int, rng: np.random.Generator) -> ContingencyTable:
    """Diagonal table with each cell uniform on [0, 2n/k), so the expected
    total is n.  Margins may be zero; the mixing step repairs them."""
    _check_whole("classes", k, 2)
    _check_whole("n", n, 0)
    return from_counts(_perfect_counts(k, n, rng))


def _perfect_counts(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    diag = np.rint(rng.uniform(0.0, 2.0 * n / k, size=k)).astype(np.int64)
    counts = np.zeros((k, k), dtype=np.int64)
    np.fill_diagonal(counts, diag)
    return _fitting_counts(counts)


def _chance_margins(k: int, n: int, rng: np.random.Generator, distribution: str) -> np.ndarray:
    if distribution == "binomial":
        raw = rng.binomial(n, 1.0 / k, size=k).astype(float)
    else:
        raw = rng.uniform(0.0, 1.0, size=k)
    total = raw.sum()
    if total <= 0.0:
        return np.full(k, 1.0 / k)
    return raw / total


def gen_chance(
    k: int,
    n: int,
    rng: np.random.Generator,
    margin_distribution: str = "binomial",
    cell_distribution: str = "absolute_shifted_normal",
) -> ContingencyTable:
    """Independence-level table: random margins, cells spread around the
    margin-product expectations e = n * bias * prevalence.

    uniform draws each cell on [0, 2e); binomial_copula draws each cell
    binomial(n, e/n) directly; the default absolute_shifted_normal takes
    |normal(e + s, 1.5 s)| with s the binomial standard deviation
    sqrt(e (1 - e/n)), the upward shift compensating the mass lost to
    truncation and rounding at small expectations.  The 1.5
    noise scale restores the dispersion the positivity fold and the shift
    toward uniformity damp out of the folded sampler; without it the null
    spread of the informedness estimate falls below what the evenness-scaled
    test statistics are calibrated for.  At n = 0 every cell is 0.
    """
    _check_whole("classes", k, 2)
    _check_whole("n", n, 0)
    _check_choice("margin distribution", margin_distribution, MARGIN_DISTRIBUTIONS)
    _check_choice("cell distribution", cell_distribution, CELL_DISTRIBUTIONS)
    return from_counts(_chance_counts(k, n, rng, margin_distribution, cell_distribution))


def _chance_counts(
    k: int, n: int, rng: np.random.Generator, margin_distribution: str, cell_distribution: str
) -> np.ndarray:
    bias = _chance_margins(k, n, rng, margin_distribution)
    prevalence = _chance_margins(k, n, rng, margin_distribution)
    expected = n * np.outer(bias, prevalence)
    if cell_distribution == "uniform":
        cells = rng.uniform(0.0, 2.0 * expected)
    elif cell_distribution == "binomial_copula":
        cells = rng.binomial(n, np.clip(expected / max(n, 1), 0.0, 1.0))
    else:
        sd = np.sqrt(expected * (1.0 - np.clip(expected / max(n, 1), 0.0, 1.0)))
        # rng.normal(loc, scale) computes loc + scale * z per cell, z drawn
        # in C order, so this is its draw without its argument checks.  Bit
        # equality was checked on x86-64 with numpy 2.4.6; a numpy built to
        # fuse the multiply-add could round a cell's last bit differently.
        cells = np.abs((expected + sd) + (1.5 * sd) * rng.standard_normal((k, k)))
    return _fitting_counts(np.maximum(np.rint(cells), 0.0).astype(np.int64))


def _decrement_cells(counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flat indices of the cells that can lose a unit without zeroing a
    margin, and of the one-unit rows' (columns') units whose column (row)
    holds more."""
    rows = counts.sum(axis=1, keepdims=True)
    cols = counts.sum(axis=0, keepdims=True)
    lone = (counts == 1) & ((rows == 1) | (cols == 1))
    masks = ((counts >= 1) & ~lone, lone & (cols > 1), lone & (rows > 1))
    return tuple(np.flatnonzero(mask.ravel()) for mask in masks)


def mix_and_constrain(
    perfect: ContingencyTable,
    chance: ContingencyTable,
    level: float,
    n: int,
    rng: np.random.Generator,
    enforce_total: bool = True,
) -> ContingencyTable:
    """Weighted cell mix level*perfect + (1-level)*chance, rounded, zero
    margins repaired, then forced to total n (unless enforce_total is off)
    in exactly |total - n| unit steps on randomly chosen cells.

    Each component is rescaled to total mass n before mixing; the sampled
    tables only hit n in expectation, and mixing raw counts would make the
    realized weight of each component drift with its total instead of
    staying at level/(1-level).

    An increment lands on any cell, a decrement on a cell whose loss zeroes
    no margin.  With no such cell, total > n >= K leaves a one-unit row i
    whose unit sits in a fuller column j and a one-unit column j2 whose unit
    sits in a fuller row i2: the step takes the units at (i, j) and (i2, j2)
    and puts one at (i, j2).  With enforce_total, n < K raises UsageError.
    """
    if perfect.k != chance.k:
        raise UsageError(f"tables must have matching class counts, got {perfect.k} and {chance.k}")
    _check_within("level", level, 0.0, 1.0)
    _check_whole("n", n)
    if enforce_total:
        _check_fillable(n, perfect.k)
    counts = _mixed_counts(perfect.counts, chance.counts, level, n, rng, enforce_total)
    return from_counts(counts, perfect.labels)


def _mixed_counts(
    perfect: np.ndarray, chance: np.ndarray, level: float, n: int,
    rng: np.random.Generator, enforce_total: bool,
) -> np.ndarray:
    """mix_and_constrain on int64 count matrices, each intermediate refused
    as from_counts would refuse it."""
    k = perfect.shape[0]

    def mass_scaled(counts: np.ndarray) -> np.ndarray:
        cells = counts.astype(float)
        total = cells.sum()
        if total <= 0.0:
            return np.full((k, k), n / (k * k))
        return cells * (n / total)

    mixed = np.rint(
        level * mass_scaled(perfect) + (1.0 - level) * mass_scaled(chance)
    ).astype(np.int64)
    counts = _repaired_counts(_fitting_counts(mixed))
    if not enforce_total:
        return counts
    excess = int(counts.sum()) - n
    for _ in range(-excess):
        counts.flat[int(rng.integers(k * k))] += 1
    for _ in range(excess):
        safe, lone_in_row, lone_in_col = _decrement_cells(counts)
        if safe.size:
            counts.flat[int(safe[int(rng.integers(safe.size))])] -= 1
        else:
            i, j = divmod(int(lone_in_row[int(rng.integers(lone_in_row.size))]), k)
            i2, j2 = divmod(int(lone_in_col[int(rng.integers(lone_in_col.size))]), k)
            counts[i, j] -= 1
            counts[i2, j2] -= 1
            counts[i, j2] += 1
    return counts


def run_single(config: SimConfig, step: int, run: int) -> SimRun:
    """One generated table, fully evaluated, on its own random substream.

    The stream is consumed in a fixed order (perfect table, chance table,
    constraint loop, sampler seed) so results are reproducible regardless of
    which statistics get computed, and the tables and stream positions are
    those of gen_perfect, gen_chance and mix_and_constrain.  Only the final
    counts become a validated table; counts a table would refuse on the way
    (a negative cell, a total past int64) make the run an error.  A
    K x K table's sampled exact test stops once its decision at config.alpha
    is settled, the level its rejection rates are read at, so a decided
    p_fisher is read at that level alone (SampledReport.level says which
    are).  A DataError from any stage, and the RuntimeError chi2_sf raises
    when its incomplete gamma continued fraction does not converge, come
    back as the error field rather than raising.
    """
    rng, stream_id = substream(config.seed, step, run)
    level = config.level(step)
    try:
        perfect = _perfect_counts(config.k, config.n, rng)
        chance = _chance_counts(
            config.k, config.n, rng,
            config.margin_distribution, config.cell_distribution,
        )
        # The one rule of mix_and_constrain's that SimConfig does not hold.
        _check_within("level", level, 0.0, 1.0)
        table = from_counts(_mixed_counts(
            perfect, chance, level, config.n, rng, config.enforce_integer))
        sampler_seed = int(rng.integers(_INT64_MAX))
        stats = multiclass_stats(table)
        kb, km, kbm, full_chi2, full_g2, fisher = significance_reports(
            table, ("kb", "km", "kbm", "full", "fisher"),
            samples=config.fisher_samples, seed=sampler_seed, alpha=config.alpha)
        evenness = evenness_factor(table)
        ci_null, ci_empirical, ci_full = (
            confidence_interval(level, table.n, evenness, config.x, variant)
            for variant in CI_VARIANTS)
        within = ci_empirical.contains(stats.informedness)
        return SimRun(
            step=step, run=run, level=level, seed_stream=stream_id,
            table=table, stats=stats,
            full_chi2=full_chi2, full_g2=full_g2, fisher=fisher,
            kb=kb, km=km, kbm=kbm,
            ci_null=ci_null, ci_empirical=ci_empirical, ci_full=ci_full,
            within_band=within,
        )
    except (DataError, RuntimeError) as exc:
        return SimRun(step=step, run=run, level=level, seed_stream=stream_id, error=str(exc))


def run_grid(config: SimConfig) -> tuple[SimRun, ...]:
    """All steps x runs_per_step runs in (step, run) order."""
    return tuple(
        run_single(config, step, run)
        for step in range(config.steps)
        for run in range(config.runs_per_step)
    )


@dataclass(frozen=True)
class StepSummary:
    step: int | None
    level: float | None
    runs: int
    errors: int
    coverage: float
    reject_full_chi2: float
    reject_full_g2: float
    reject_fisher: float
    reject_kb: float
    reject_km: float
    reject_kbm: float
    mean_informedness: float
    std_informedness: float
    mean_markedness: float
    std_markedness: float
    mean_correlation: float
    std_correlation: float
    mean_kappa: float
    std_kappa: float
    mean_cramers_v: float
    std_cramers_v: float
    small_n_warning: bool


@dataclass(frozen=True)
class CoverageReport:
    steps: tuple[StepSummary, ...]
    overall: StepSummary


# SimRun reports summarized as reject_<name>, and MulticlassStats fields
# summarized as mean_<name> and std_<name> (runs.csv's B, M, BMG and kappa)
_TESTED_REPORTS = ("full_chi2", "full_g2", "fisher", "kb", "km", "kbm")
_MOMENT_STATS = ("informedness", "markedness", "correlation", "kappa")


def _moments(values: list[float]) -> tuple[float, float]:
    """Mean and population std of the finite values; NaN for none.

    The doubles of np.mean and np.std, from the reductions they make:
    mean = add.reduce(x) / n, std = sqrt(add.reduce((x - mean)^2) / n)."""
    finite = [v for v in values if math.isfinite(v)]
    n = len(finite)
    if not n:
        return math.nan, math.nan
    arr = np.array(finite, dtype=float)
    mean = np.add.reduce(arr) / n
    deviations = arr - mean
    return float(mean), math.sqrt(np.add.reduce(deviations * deviations) / n)


def _rejection(good: list[SimRun], name: str, alpha: float) -> float:
    ps = [rep.p_value for rep in (getattr(r, name) for r in good) if rep is not None]
    if not ps:
        return math.nan
    return sum(1 for p in ps if p < alpha) / len(ps)


def _field(record, name: str):
    """record.name, or None for a missing record."""
    return None if record is None else getattr(record, name)


def _run_cramers_v(run: SimRun, report: SignificanceReport | None) -> float | None:
    return None if report is None else cramers_v(report.value, run.table.n, run.table.k)


def _summarize(step: int | None, level: float | None, runs: list[SimRun], alpha: float) -> StepSummary:
    good = [r for r in runs if r.error is None]
    banded = [r for r in good if r.within_band is not None]
    coverage = (
        sum(1 for r in banded if r.within_band) / len(banded) if banded else math.nan
    )
    small_n = bool(good) and (good[0].table.n / good[0].table.k ** 2) < 5.0
    rates = {f"reject_{name}": _rejection(good, name, alpha) for name in _TESTED_REPORTS}
    samples = {name: [getattr(r.stats, name) for r in good if r.stats is not None]
               for name in _MOMENT_STATS}
    samples["cramers_v"] = [_run_cramers_v(r, r.full_chi2) for r in good if r.full_chi2 is not None]
    moments = {}
    for name, values in samples.items():
        moments[f"mean_{name}"], moments[f"std_{name}"] = _moments(values)
    return StepSummary(
        step=step, level=level, runs=len(runs), errors=len(runs) - len(good),
        coverage=coverage, small_n_warning=small_n, **rates, **moments,
    )


def coverage_report(
    runs: tuple[SimRun, ...] | list[SimRun], alpha: float = _DEFAULT_ALPHA
) -> CoverageReport:
    """Per-step and overall coverage, rejection rates, and moments, with
    each test rejecting below `alpha`, which must lie in (0, 1).  A sampled
    exact test decided at another level (SampledReport.level) raises
    UsageError: its p says only on which side of that level it lies.  The
    moments are np.mean's and np.std's of each statistic's finite values."""
    if not runs:
        raise UsageError("cannot summarize an empty run sequence")
    _check_alpha(alpha)
    other = {getattr(r.fisher, "level", None) for r in runs} - {None, alpha}
    if other:
        raise UsageError(f"runs whose sampled exact test was decided at alpha {min(other)} "
                         f"cannot be summarized at alpha {alpha}")
    by_step: dict[int, list[SimRun]] = {}
    for r in runs:
        by_step.setdefault(r.step, []).append(r)
    steps = tuple(
        _summarize(step, members[0].level, members, alpha)
        for step, members in sorted(by_step.items())
    )
    overall = _summarize(None, None, list(runs), alpha)
    return CoverageReport(steps=steps, overall=overall)


def write_runs_csv(runs: tuple[SimRun, ...] | list[SimRun], path: str | Path) -> None:
    """One row per run; a missing record, as in an error run, leaves its
    columns empty, as the 2x2 exact sum leaves the sampler's fisher_draws,
    fisher_hits, fisher_se and fisher_level, and fisher_level is empty for a
    sampled p not decided at a level.  Floats use shortest round-trip
    formatting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RUNS_CSV_COLUMNS)
        for r in runs:
            writer.writerow([
                r.step, r.run, _fmt(r.level), r.n_realized,
                *(_fmt(_field(r.stats, name)) for name in _MOMENT_STATS),
                _fmt(_run_cramers_v(r, r.full_chi2)), _fmt(_run_cramers_v(r, r.full_g2)),
                *(_fmt(_field(getattr(r, name), "p_value"))
                  for name in ("full_chi2", "full_g2", "fisher")),
                *(_fmt(getattr(r.fisher, name, None)) for name in _SAMPLED_FIELDS),
                _fmt(_field(r.ci_empirical, "lo")), _fmt(_field(r.ci_empirical, "hi")),
                _fmt(r.within_band), r.seed_stream,
            ])


_SUMMARY_COLUMNS = tuple(f.name for f in fields(StepSummary))


def write_summary_csv(report: CoverageReport, path: str | Path) -> None:
    """One column per StepSummary field; per-step rows then an overall row
    with "overall" in the step column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        for s in (*report.steps, report.overall):
            row = [_fmt(getattr(s, name)) for name in _SUMMARY_COLUMNS]
            if s.step is None:
                row[0] = "overall"  # step is StepSummary's first field
            writer.writerow(row)
