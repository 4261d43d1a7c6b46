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

from .confidence import ConfidenceInterval, confidence_interval, evenness_factor
from .contingency import ContingencyTable, from_counts, repair_zero_margins
from .errors import DataError, UsageError
from .multiclass import MulticlassStats, multiclass_stats
from .significance import (
    SignificanceReport,
    chi2_bookmaker_family,
    cramers_v,
    exact_test,
    full_table_tests,
)

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

MARGIN_DISTRIBUTIONS = ("uniform", "binomial")
CELL_DISTRIBUTIONS = ("uniform", "binomial_copula", "absolute_shifted_normal")

RUNS_CSV_COLUMNS = (
    "step", "run", "l", "n_realized", "B", "M", "BMG", "kappa",
    "cramers_v_chi2", "cramers_v_g2", "p_chi2", "p_g2", "p_fisher",
    "ci_lo", "ci_hi", "within_band", "seed_stream",
)

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
    x: float = 1.96
    alpha: float = 0.05
    fisher_samples: int = 10_000

    def __post_init__(self) -> None:
        if self.k < 2:
            raise UsageError(f"need at least 2 classes, got {self.k}")
        if self.n < self.k:
            raise UsageError(f"need n >= k so margins can be positive, got n={self.n}, k={self.k}")
        if self.steps < 2:
            raise UsageError(f"need at least 2 steps, got {self.steps}")
        if self.runs_per_step < 1:
            raise UsageError(f"need at least 1 run per step, got {self.runs_per_step}")
        if self.margin_distribution not in MARGIN_DISTRIBUTIONS:
            raise UsageError(f"unknown margin distribution '{self.margin_distribution}'")
        if self.cell_distribution not in CELL_DISTRIBUTIONS:
            raise UsageError(f"unknown cell distribution '{self.cell_distribution}'")
        if not (0.0 < self.alpha < 1.0):
            raise UsageError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (float(self.x) > 0.0) or not np.isfinite(self.x):
            raise UsageError(f"multiplier must be a positive finite number, got {self.x}")
        if self.fisher_samples < 1_000:
            raise UsageError(f"need at least 1000 sampler draws, got {self.fisher_samples}")

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
    payload = ",".join(str(int(p)) for p in (seed, *path)).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    key = int.from_bytes(digest[:16], "little")
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng, digest[:8].hex()


def gen_perfect(k: int, n: int, rng: np.random.Generator) -> ContingencyTable:
    """Diagonal table with each cell uniform on [0, 2n/k), so the expected
    total is n.  Margins may be zero; the mixing step repairs them."""
    diag = np.rint(rng.uniform(0.0, 2.0 * n / k, size=k)).astype(np.int64)
    counts = np.zeros((k, k), dtype=np.int64)
    np.fill_diagonal(counts, diag)
    return from_counts(counts)


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
    test statistics are calibrated for.
    """
    if margin_distribution not in MARGIN_DISTRIBUTIONS:
        raise UsageError(f"unknown margin distribution '{margin_distribution}'")
    if cell_distribution not in CELL_DISTRIBUTIONS:
        raise UsageError(f"unknown cell distribution '{cell_distribution}'")
    bias = _chance_margins(k, n, rng, margin_distribution)
    prevalence = _chance_margins(k, n, rng, margin_distribution)
    expected = n * np.outer(bias, prevalence)
    if cell_distribution == "uniform":
        cells = rng.uniform(0.0, 2.0 * expected)
    elif cell_distribution == "binomial_copula":
        cells = rng.binomial(n, np.clip(expected / n, 0.0, 1.0))
    else:
        sd = np.sqrt(expected * (1.0 - np.clip(expected / n, 0.0, 1.0)))
        cells = np.abs(rng.normal(expected + sd, 1.5 * sd))
    counts = np.maximum(np.rint(cells), 0.0).astype(np.int64)
    return from_counts(counts)


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
    if not (0.0 <= level <= 1.0):
        raise UsageError(f"level must lie in [0, 1], got {level}")
    k = perfect.k
    if enforce_total and n < k:
        raise UsageError(f"n must be at least K to keep every margin positive, got n={n}, K={k}")

    def mass_scaled(t: ContingencyTable) -> np.ndarray:
        cells = t.counts.astype(float)
        total = cells.sum()
        if total <= 0.0:
            return np.full((k, k), n / (k * k))
        return cells * (n / total)

    mixed = np.rint(
        level * mass_scaled(perfect) + (1.0 - level) * mass_scaled(chance)
    ).astype(np.int64)
    repaired = repair_zero_margins(from_counts(mixed, perfect.labels))
    if not enforce_total:
        return repaired
    counts = np.array(repaired.counts)
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
    return from_counts(counts, perfect.labels)


def run_single(config: SimConfig, step: int, run: int) -> SimRun:
    """One generated table, fully evaluated, on its own random substream.

    The stream is consumed in a fixed order (perfect table, chance table,
    constraint loop, sampler seed) so results are reproducible regardless of
    which statistics get computed.  Data and convergence failures come back
    as the error field rather than raising.
    """
    rng, stream_id = substream(config.seed, step, run)
    level = config.level(step)
    try:
        perfect = gen_perfect(config.k, config.n, rng)
        chance = gen_chance(
            config.k, config.n, rng,
            config.margin_distribution, config.cell_distribution,
        )
        table = mix_and_constrain(
            perfect, chance, level, config.n, rng,
            enforce_total=config.enforce_integer,
        )
        sampler_seed = int(rng.integers(np.iinfo(np.int64).max))
        stats = multiclass_stats(table)
        full_chi2, full_g2 = full_table_tests(table)
        fisher = exact_test(table, "two", config.fisher_samples, sampler_seed)
        kb = chi2_bookmaker_family(table, "kb")
        km = chi2_bookmaker_family(table, "km")
        kbm = chi2_bookmaker_family(table, "kbm")
        evenness = evenness_factor(table)
        ci_null = confidence_interval(level, table.n, evenness, config.x, "null")
        ci_empirical = confidence_interval(level, table.n, evenness, config.x, "empirical")
        ci_full = confidence_interval(level, table.n, evenness, config.x, "full")
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
# summarized as mean_<name> and std_<name>
_TESTED_REPORTS = ("full_chi2", "full_g2", "fisher", "kb", "km", "kbm")
_MOMENT_STATS = ("informedness", "markedness", "correlation", "kappa")


def _moments(values: list[float]) -> tuple[float, float]:
    """Mean and population std of the finite values; NaN for none."""
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    if not finite.size:
        return math.nan, math.nan
    return float(finite.mean()), float(finite.std())


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


def coverage_report(runs: tuple[SimRun, ...] | list[SimRun], alpha: float = 0.05) -> CoverageReport:
    """Per-step and overall coverage, rejection rates, and moments."""
    if not runs:
        raise UsageError("cannot summarize an empty run sequence")
    by_step: dict[int, list[SimRun]] = {}
    for r in runs:
        by_step.setdefault(r.step, []).append(r)
    steps = tuple(
        _summarize(step, members[0].level, members, alpha)
        for step, members in sorted(by_step.items())
    )
    overall = _summarize(None, None, list(runs), alpha)
    return CoverageReport(steps=steps, overall=overall)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_runs_csv(runs: tuple[SimRun, ...] | list[SimRun], path: str | Path) -> None:
    """One row per run; a missing record, as in an error run, leaves its
    columns empty.  Floats use shortest round-trip formatting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RUNS_CSV_COLUMNS)
        for r in runs:
            writer.writerow([
                r.step, r.run, _fmt(r.level), r.n_realized,
                *(_fmt(_field(r.stats, name))
                  for name in ("informedness", "markedness", "correlation", "kappa")),
                _fmt(_run_cramers_v(r, r.full_chi2)), _fmt(_run_cramers_v(r, r.full_g2)),
                *(_fmt(_field(getattr(r, name), "p_value"))
                  for name in ("full_chi2", "full_g2", "fisher")),
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
