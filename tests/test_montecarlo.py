"""Simulation harness: generators, mixing, substreams, grids, and CSV output."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from chancekit.contingency import _repaired_counts, from_counts, repair_zero_margins
from chancekit.errors import DataError, UsageError
from chancekit.montecarlo import (
    RUNS_CSV_COLUMNS,
    CoverageReport,
    SimConfig,
    SimRun,
    StepSummary,
    _chance_counts,
    _mixed_counts,
    _moments,
    _perfect_counts,
    coverage_report,
    gen_chance,
    gen_perfect,
    mix_and_constrain,
    run_grid,
    run_single,
    substream,
    write_runs_csv,
    write_summary_csv,
)
from chancekit.multiclass import bookmaker_informedness
from helpers import unreached_lines

DRAWS = json.loads((Path(__file__).parent / "data" / "generator_draws.json").read_text())


def test_config_validation():
    SimConfig(k=2, n=16)
    for bad in (
        dict(k=1, n=16), dict(k=2, n=1), dict(k=2, n=16, steps=1),
        dict(k=2, n=16, runs_per_step=0), dict(k=2, n=16, margin_distribution="zipf"),
        dict(k=2, n=16, cell_distribution="cauchy"), dict(k=2, n=16, alpha=0.0),
        dict(k=2, n=16, x=-1.0), dict(k=2, n=16, x=float("nan")),
        dict(k=2, n=16, x=float("inf")), dict(k=2, n=16, fisher_samples=10),
        dict(k=2, n=16, fisher_samples=2000.0), dict(k=2.0, n=16), dict(k=2, n=16.0),
        dict(k=2, n=16, steps=11.0), dict(k=2, n=16, runs_per_step=10.0), dict(k=2, n=16, seed=7.5),
    ):
        with pytest.raises(UsageError):
            SimConfig(**bad)


def test_config_levels_span_unit_interval():
    c = SimConfig(k=2, n=16, steps=11)
    assert c.level(0) == 0.0
    assert c.level(10) == 1.0
    assert c.level(5) == pytest.approx(0.5)


def test_substream_determinism_and_separation():
    rng1, id1 = substream(42, 3, 7)
    rng2, id2 = substream(42, 3, 7)
    rng3, id3 = substream(42, 3, 8)
    a, b, c = rng1.integers(0, 2**32, 4), rng2.integers(0, 2**32, 4), rng3.integers(0, 2**32, 4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert id1 == id2 != id3
    assert isinstance(id1, str) and len(id1) > 0


def test_gen_perfect():
    rng, _ = substream(7, 0, 0)
    t = gen_perfect(4, 64, rng)
    off_diagonal = t.counts - np.diag(np.diag(t.counts))
    assert (off_diagonal == 0).all()
    assert bookmaker_informedness(repair_zero_margins(t)) == pytest.approx(1.0, abs=1e-12)
    rng2, _ = substream(7, 0, 0)
    assert gen_perfect(4, 64, rng2).counts.tolist() == t.counts.tolist()


def test_gen_chance_all_distributions():
    for margin in ("uniform", "binomial"):
        for cell in ("uniform", "binomial_copula", "absolute_shifted_normal"):
            rng, _ = substream(11, 0, 0)
            t = gen_chance(3, 60, rng, margin, cell)
            assert (t.counts >= 0).all()
            assert t.counts.shape == (3, 3)


@pytest.mark.parametrize("cell", ["uniform", "binomial_copula", "absolute_shifted_normal"])
def test_gen_chance_draws_the_zero_table_at_n_zero(cell):
    # Each expectation's share of n was 0/0 here: a RuntimeWarning, then a
    # raw ValueError or a DataError on NaN cells.
    for margin in ("uniform", "binomial"):
        rng, _ = substream(11, 0, 0)
        assert gen_chance(3, 0, rng, margin, cell).counts.tolist() == [[0] * 3] * 3


def test_gen_chance_is_centered_on_zero_informedness():
    rng = np.random.default_rng(2026)
    values = []
    for _ in range(1000):
        t = repair_zero_margins(gen_chance(2, 128, rng))
        values.append(bookmaker_informedness(t))
    assert -0.05 < float(np.mean(values)) < 0.05


def _replay_recorded_draws():
    """Each generator call of generator_draws.json on its substream(seed,
    k, n), with the counts it returns and the stream's next 32-bit draw."""
    for e in DRAWS["perfect"]:
        rng, _ = substream(e["seed"], e["k"], e["n"])
        yield e, gen_perfect(e["k"], e["n"], rng), rng
    for e in DRAWS["chance"]:
        rng, _ = substream(e["seed"], e["k"], e["n"])
        yield e, gen_chance(e["k"], e["n"], rng, e["margin"], e["cell"]), rng
    for e in DRAWS["mix"]:
        rng, _ = substream(e["seed"], e["k"], e["n"])
        perfect, chance = gen_perfect(e["k"], e["n"], rng), gen_chance(e["k"], e["n"], rng)
        yield e, mix_and_constrain(perfect, chance, e["level"], e["n"], rng, e["enforce_total"]), rng
    star = from_counts([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    for e in DRAWS["star"]:
        rng, _ = substream(e["seed"], 4, 4)
        yield e, mix_and_constrain(star, star, 1.0, 4, rng), rng


def test_generators_keep_their_recorded_draws():
    # Counts recorded when every generator stage built a validated table:
    # K = 2, 3, 4 on three seeds, gen_chance under each margin and cell
    # distribution, mix_and_constrain with the total enforced and not (its
    # increments, decrements and repairs), and the star table's fallback
    # step.  The next draw pins where each call leaves the stream.
    replayed = 0
    for e, t, rng in _replay_recorded_draws():
        assert (t.counts.tolist(), int(rng.integers(2**32))) == (e["counts"], e["next"]), e
        replayed += 1
    assert replayed == sum(map(len, DRAWS.values())) == 3 * (4 + 4 * 6 + 4 * 2 + 1)


def test_array_cores_and_moments_reach_every_line():
    zero = from_counts(np.zeros((3, 3), dtype=np.int64))

    def run():
        for _ in _replay_recorded_draws():
            pass
        mix_and_constrain(zero, gen_chance(3, 40, np.random.default_rng(1)), 0.5, 40,
                          np.random.default_rng(2))
        _moments([])
        _moments([0.5, math.nan, 1.0])

    for core in (_perfect_counts, _chance_counts, _mixed_counts, _repaired_counts, _moments):
        assert unreached_lines(core, run) == [], core.__name__


def test_moments_equal_numpy_mean_and_std():
    # Seeded lists of 0-40 values with NaN and +-inf mixed in: the moments
    # of the finite values are np.mean's and np.std's doubles, bit for bit.
    rng = np.random.default_rng(39)
    for _ in range(2000):
        values = (rng.standard_normal(int(rng.integers(41))) * 10.0 ** rng.integers(-8, 9)).tolist()
        for i in np.flatnonzero(rng.random(len(values)) < 0.15):
            values[i] = (math.nan, math.inf, -math.inf)[int(rng.integers(3))]
        finite = np.array([v for v in values if math.isfinite(v)])
        if finite.size:
            assert _moments(values) == (float(np.mean(finite)), float(np.std(finite))), values
        else:
            assert all(map(math.isnan, _moments(values)))
    for values in ([], [math.nan], [math.nan] * 3):
        assert all(map(math.isnan, _moments(values)))


def _assert_constrained(t, n):
    assert t.n == n
    assert (t.counts >= 0).all()
    assert (t.row_totals > 0).all() and (t.col_totals > 0).all()


def test_mix_total_always_exact():
    rng = np.random.default_rng(5)
    for k, n in ((2, 16), (3, 40), (4, 128)):
        for level in (0.0, 0.3, 0.5, 0.8, 1.0):
            perfect = gen_perfect(k, n, rng)
            chance = gen_chance(k, n, rng)
            _assert_constrained(mix_and_constrain(perfect, chance, level, n, rng), n)


def test_mix_falls_back_when_no_decrement_is_safe():
    # Every unit of this perfect table is alone in its row or column, so no
    # unit can leave without zeroing a margin: the constraint loop must move
    # units between cells instead.
    perfect = from_counts([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    chance = from_counts(np.ones((3, 3), dtype=np.int64))
    for seed in range(5):
        _assert_constrained(mix_and_constrain(perfect, chance, 1.0, 3, np.random.default_rng(seed)), 3)


def test_mix_reaches_n_from_a_star_table():
    # Row 0 and column 0 hold three units each and every unit is alone in
    # its row or its column; the rounded mix keeps the star, total 6.
    star = from_counts([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    for seed in range(200):
        _assert_constrained(mix_and_constrain(star, star, 1.0, 4, np.random.default_rng(seed)), 4)


def test_mix_rejects_n_below_k_only_when_enforcing_the_total():
    t = from_counts(np.eye(4, dtype=np.int64))
    with pytest.raises(UsageError, match="n=3, K=4"):
        mix_and_constrain(t, t, 0.5, 3, np.random.default_rng(0))
    assert mix_and_constrain(t, t, 0.5, 3, np.random.default_rng(0), enforce_total=False).k == 4


def test_mix_extremes_recover_components():
    rng = np.random.default_rng(6)
    high = []
    low = []
    for _ in range(120):
        perfect = gen_perfect(4, 128, rng)
        chance = gen_chance(4, 128, rng)
        high.append(bookmaker_informedness(mix_and_constrain(perfect, chance, 1.0, 128, rng)))
        low.append(bookmaker_informedness(mix_and_constrain(perfect, chance, 0.0, 128, rng)))
    assert float(np.mean(high)) >= 0.9
    assert abs(float(np.mean(low))) < 0.06


def test_run_single_record():
    config = SimConfig(k=2, n=64, seed=42)
    r = run_single(config, 5, 3)
    assert r.error is None
    assert r.level == pytest.approx(0.5)
    assert r.table.n == 64
    assert r.stats is not None
    assert r.fisher.kind == "fisher_two"
    assert r.ci_empirical.center == pytest.approx(0.5)
    assert r.within_band == r.ci_empirical.contains(r.stats.informedness)
    # pure function of (config, step, run)
    again = run_single(config, 5, 3)
    assert again.seed_stream == r.seed_stream
    assert again.table.counts.tolist() == r.table.counts.tolist()
    assert again.stats.informedness == r.stats.informedness


def test_run_single_order_independence():
    config = SimConfig(k=2, n=48, seed=9)
    forward = [run_single(config, s, r) for s in range(3) for r in range(2)]
    backward = [run_single(config, s, r) for s in reversed(range(3)) for r in reversed(range(2))]
    backward.reverse()
    for f, b in zip(forward, backward):
        assert f.table.counts.tolist() == b.table.counts.tolist()


def test_run_grid_shape_and_determinism():
    config = SimConfig(k=2, n=32, steps=4, runs_per_step=3, seed=13)
    runs = run_grid(config)
    assert len(runs) == 12
    assert [(r.step, r.run) for r in runs] == [(s, r) for s in range(4) for r in range(3)]
    again = run_grid(config)
    for a, b in zip(runs, again):
        assert a.seed_stream == b.seed_stream
        assert a.table.counts.tolist() == b.table.counts.tolist()


def test_default_grid_has_110_runs():
    config = SimConfig(k=2, n=32, seed=3)
    assert len(run_grid(config)) == 110


def test_grid_mean_informedness_tracks_level():
    config = SimConfig(k=2, n=128, seed=42)
    report = coverage_report(run_grid(config))
    means = [s.mean_informedness for s in report.steps]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
    assert inversions <= 1
    assert means[0] < 0.2
    assert means[-1] > 0.9


def test_coverage_report_fields():
    config = SimConfig(k=2, n=64, steps=3, runs_per_step=4, seed=21)
    runs = run_grid(config)
    report = coverage_report(runs, alpha=0.05)
    assert isinstance(report, CoverageReport)
    assert len(report.steps) == 3
    assert report.overall.runs == 12
    assert 0.0 <= report.overall.coverage <= 1.0
    for s in report.steps:
        for field in ("reject_full_chi2", "reject_full_g2", "reject_fisher",
                      "reject_kb", "reject_km", "reject_kbm"):
            assert 0.0 <= getattr(s, field) <= 1.0
    forced = [dataclasses.replace(r, within_band=True) for r in runs]
    assert coverage_report(forced).overall.coverage == 1.0


def test_coverage_report_empty_is_usage_error():
    with pytest.raises(UsageError):
        coverage_report([])


def test_coverage_report_reads_decided_runs_at_their_level():
    # A K x K run decided at 0.05 holds a p that says only that it lies below
    # 0.05, so the runs are summarized at that level and no other.
    runs = run_grid(SimConfig(k=3, n=24, steps=3, runs_per_step=2, seed=8, fisher_samples=1000))
    assert {r.fisher.level for r in runs} == {None, 0.05}
    assert coverage_report(runs, alpha=0.05).overall.reject_fisher > 0
    with pytest.raises(UsageError, match="decided at alpha 0.05 cannot be summarized at alpha 0.01"):
        coverage_report(runs, alpha=0.01)
    strict = run_grid(SimConfig(k=3, n=24, steps=3, runs_per_step=2, seed=8, fisher_samples=1000,
                                alpha=0.01))
    assert {r.fisher.level for r in strict} == {None, 0.01}
    coverage_report(strict, alpha=0.01)
    # A 2x2 exact sum is decided at no level, so it reads at any.
    coverage_report(run_grid(SimConfig(k=2, n=32, steps=2, runs_per_step=2, seed=8)), alpha=0.01)


def test_small_n_warning_flag():
    small = coverage_report(run_grid(SimConfig(k=2, n=8, steps=2, runs_per_step=2, seed=1)))
    assert small.overall.small_n_warning is True
    big = coverage_report(run_grid(SimConfig(k=2, n=128, steps=2, runs_per_step=2, seed=1)))
    assert big.overall.small_n_warning is False


def test_csv_outputs(tmp_path):
    config = SimConfig(k=2, n=32, steps=3, runs_per_step=2, seed=8)
    runs = run_grid(config)
    report = coverage_report(runs)
    runs_path = tmp_path / "runs.csv"
    summary_path = tmp_path / "summary.csv"
    write_runs_csv(runs, runs_path)
    write_summary_csv(report, summary_path)
    lines = runs_path.read_text().splitlines()
    assert lines[0] == ",".join(RUNS_CSV_COLUMNS)
    assert len(lines) == 1 + len(runs)
    summary_lines = summary_path.read_text().splitlines()
    assert len(summary_lines) == 1 + 3 + 1
    assert summary_lines[-1].startswith("overall,")
    # repeated generation is byte-identical
    runs_path2 = tmp_path / "runs2.csv"
    write_runs_csv(run_grid(config), runs_path2)
    assert runs_path.read_bytes() == runs_path2.read_bytes()


def test_failed_runs_become_error_rows(tmp_path):
    # Every table of this grid is beyond the sampler's range, so each run
    # fails inside run_single and comes back as an error record.
    config = SimConfig(k=3, n=2 * 10**9, steps=2, runs_per_step=2, seed=1, fisher_samples=1000)
    runs = run_grid(config)
    assert [(r.step, r.run) for r in runs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for r in runs:
        assert r.error == "the sampled exact test needs n below 10^9, got 2000000000"
        assert r.table is None and r.n_realized is None
    runs_path = tmp_path / "runs.csv"
    write_runs_csv(runs, runs_path)
    rows = list(csv.reader(runs_path.open(newline="")))[1:]
    assert rows == [[str(r.step), str(r.run), repr(r.level), *[""] * (len(RUNS_CSV_COLUMNS) - 4),
                     r.seed_stream] for r in runs]
    overall = coverage_report(runs).overall
    assert overall.errors == overall.runs == 4
    assert math.isnan(overall.coverage)


def test_int64_overflow_is_an_error_row():
    # A perfect table of n = 2^63 - 1 at K = 3 totals past int64.  Refused
    # there, the run is an error row; unrefused, its wrapped counts would
    # send the constraint loop through about 2^63 unit steps.
    config = SimConfig(k=3, n=2**63 - 1, steps=2, runs_per_step=1, seed=3, fisher_samples=1000)
    assert [(r.step, r.run, r.error) for r in run_grid(config)] == [
        (step, 0, "counts total exceeds the 64-bit integer range") for step in range(2)]
    # Each array stage refuses its own overflow, relying on no other's check.
    rng, _ = substream(3, 0, 0)
    with pytest.raises(DataError, match="64-bit"):
        _perfect_counts(3, 2**63 - 1, rng)
    with pytest.raises(DataError, match="64-bit"):
        _chance_counts(3, 2**63 - 1, rng, "binomial", "absolute_shifted_normal")
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(DataError, match="64-bit"):
        _mixed_counts(eye, eye, 0.5, 2**64, rng, False)
    with pytest.raises(DataError, match="64-bit"):
        _repaired_counts(np.array([[2**63 - 1, 0], [0, 0]]))


def test_csv_layouts_follow_records(tmp_path):
    config = SimConfig(k=2, n=32, steps=2, runs_per_step=2, seed=8)
    grid = run_grid(config)
    # error-free runs with missing reports get blank cells, like error runs
    no_fisher = dataclasses.replace(grid[0], fisher=None)
    no_stats = dataclasses.replace(grid[1], stats=None, full_chi2=None, ci_empirical=None)
    failed = SimRun(step=2, run=0, level=1.0, seed_stream="feed", error="no table")
    runs = (*grid, no_fisher, no_stats, failed)
    runs_path = tmp_path / "runs.csv"
    write_runs_csv(runs, runs_path)
    rows = list(csv.reader(runs_path.open(newline="")))
    assert all(len(row) == len(RUNS_CSV_COLUMNS) for row in rows)
    assert rows[-1] == ["2", "0", "1.0", *[""] * (len(RUNS_CSV_COLUMNS) - 4), "feed"]
    by_name = [dict(zip(RUNS_CSV_COLUMNS, row)) for row in rows[-3:-1]]
    assert by_name[0]["p_fisher"] == "" and by_name[0]["p_chi2"] != ""
    blank = ("B", "M", "BMG", "kappa", "cramers_v_chi2", "p_chi2", "ci_lo", "ci_hi")
    assert all(by_name[1][name] == "" for name in blank)
    assert by_name[1]["p_g2"] != "" and by_name[1]["cramers_v_g2"] != ""
    # The sampler's draws, hits, standard error and decided level follow
    # p_fisher on a K x K row; the 2x2 exact sum leaves them empty.
    sampled = ("fisher_draws", "fisher_hits", "fisher_se", "fisher_level")
    assert all(row[name] == "" for row in by_name for name in sampled)
    assert all(row[RUNS_CSV_COLUMNS.index(name)] == "" for row in rows[1:] for name in sampled)
    k3 = run_grid(SimConfig(k=3, n=24, steps=3, runs_per_step=2, seed=8, fisher_samples=1000))
    write_runs_csv(k3, runs_path)
    levels = set()
    for r, row in zip(k3, csv.DictReader(runs_path.open(newline=""))):
        f = r.fisher
        assert [row[name] for name in sampled] == [
            str(f.draws), str(f.hits), repr(f.se), "" if f.level is None else repr(f.level)]
        assert row["p_fisher"] == repr(f.p_value)
        levels.add(f.level)
    assert levels == {None, config.alpha}

    report = coverage_report(runs)
    summary_path = tmp_path / "summary.csv"
    write_summary_csv(report, summary_path)
    header = next(csv.reader(summary_path.open(newline="")))
    assert header == [f.name for f in dataclasses.fields(StepSummary)]
    all_failed = report.steps[-1]
    assert (all_failed.runs, all_failed.errors) == (1, 1)
    moments = [getattr(all_failed, name) for name in header if name.startswith(("mean_", "std_"))]
    assert len(moments) == 10 and all(math.isnan(v) for v in moments)
    assert all_failed.small_n_warning is False


def test_benchmark_replay_matches_run_single(monkeypatch):
    # A traced benchmark run exits 1 when its replay of run_single from the
    # public calls differs; this runs the benchmark's own replay on its grids.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    from tracing import Tracer

    for config in workloads.sim_configs(1, 0):
        for step in range(workloads.SIM_STEPS):
            actual = run_single(config, step, 0)
            assert workloads.replay_problem(Tracer(False), config, step, 0, actual) is None
