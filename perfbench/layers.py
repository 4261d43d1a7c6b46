"""Per-layer probes, run after the workload loop in every traced run.

Each probe times calls into one module's public functions, through the
tracer, on inputs drawn from the workload seed.  The layers are the package's
modules and each metric name starts with its module.  Sizes are fixed, so a
traced run reports every per-layer metric whatever its workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import chancekit as ck
from chancekit import cli as ck_cli
import inputs
import workloads
from tracing import Tracer, median

PROBE_ROWS = 250_000
_MICRO_REPEATS = 200
_SAMPLER = "significance.fisher_montecarlo_kxk"
_GENERATORS = ("montecarlo.gen_perfect", "montecarlo.gen_chance", "montecarlo.mix_and_constrain")


def _median_seconds(tr: Tracer, repeats: int, fn, *args) -> float:
    return median([tr.timed(fn, *args)[1] for _ in range(repeats)])


def _top_seconds(tr: Tracer, first: int, names=None) -> float:
    """Seconds in top-level spans recorded since index `first`."""
    return sum(end - start for name, start, end, parent, _ in tr.spans[first:]
               if parent == -1 and (names is None or name in names))


def cli_layer(tr: Tracer, seed: int, setup_samples: list[float], checks) -> dict:
    floor = [workloads.timed_python(["-c", "import numpy, scipy.special"]) for _ in range(3)]
    files = inputs.cli_inputs(seed)
    t4, t4b = str(files["t4"]), str(files["t4b"])
    argvs = {
        "evaluate": ["evaluate", "--table", t4],
        "significance": ["significance", "--table", t4, "--family", "all", "--seed", str(seed)],
        "confidence": ["confidence", "--table", t4],
        "compare": ["compare", "--table-a", t4, "--table-b", t4b],
    }
    out = {"cli.import_chancekit_s": median(setup_samples), "cli.import_floor_s": median(floor)}
    for command, argv in argvs.items():
        times = []
        for _ in range(3):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code, seconds = tr.timed(ck_cli.main, [*argv, "--format", "json"])
            checks(None if code == 0 and json.loads(buffer.getvalue())["command"] == command
                   else f"cli.main {command} returned {code}")
            times.append(seconds)
        out[f"cli.main_ms.{command}"] = 1e3 * median(times)
    return out


_RSS_PROBE = (
    "import sys\n"
    "import chancekit\n"
    "hwm = lambda: open('/proc/self/status').read()\n"
    "before = hwm()\n"
    "chancekit.load_pairs(sys.argv[1])\n"
    "print(before + '\\0' + hwm())\n"
)


def contingency_layer(tr: Tracer, seed: int, checks) -> dict:
    out = {}
    load_total = split_total = 0.0
    for name, (_, delim, header) in inputs.PAIR_FILES.items():
        path, expected = inputs.pair_file(seed, name, PROBE_ROWS)
        table, load_s = tr.timed(ck.load_pairs, path)
        checks(None if np.array_equal(table.counts, expected)
               else f"probe {name}: table differs from the bincount tally")
        lines = path.read_text().splitlines()[1 if header else 0:]
        pairs = [tuple(line.split(delim)) for line in lines]
        _, split_s = tr.timed(ck.from_pairs, pairs)
        out[f"contingency.load_pairs_s_per_Mrow.{name}"] = load_s * 1e6 / PROBE_ROWS
        out[f"contingency.from_pairs_s_per_Mrow.{name}"] = split_s * 1e6 / PROBE_ROWS
        load_total += load_s
        split_total += split_s
    out["contingency.parse_share"] = 1.0 - split_total / load_total
    # Peak growth of a fresh interpreter loading the k10 probe file, so the
    # figure does not depend on what this process allocated before.
    proc = workloads.run_python(["-c", _RSS_PROBE, str(inputs.pair_file(seed, "k10", PROBE_ROWS)[0])])
    checks(None if proc.returncode == 0 else f"rss probe exited {proc.returncode}")
    before, after = proc.stdout.split("\0")
    out["contingency.ingest_rss_delta_mb"] = workloads.peak_rss_mb(after) - workloads.peak_rss_mb(before)
    return out


def table_layers(tr: Tracer, seed: int, checks) -> dict:
    """contingency.from_counts, dichotomous, multiclass, significance and
    confidence on tables drawn like the battery's."""
    rng = np.random.default_rng([seed, 4])
    sizes = {2: 1000, 10: 10_000, 50: 100_000}
    counts = {k: inputs.draw_counts(rng, k, n, False) for k, n in sizes.items()}
    tables = {k: ck.from_counts(c) for k, c in counts.items()}
    out = {
        "contingency.from_counts_us":
            1e6 * _median_seconds(tr, _MICRO_REPEATS, ck.from_counts, counts[10]),
        "dichotomous.binary_stats_us":
            1e6 * _median_seconds(tr, _MICRO_REPEATS, ck.binary_stats, tables[2]),
    }
    for k, t in tables.items():
        out[f"multiclass.multiclass_stats_ms.k{k}"] = 1e3 * _median_seconds(tr, 5, ck.multiclass_stats, t)
        family = []
        for _ in range(5):
            first = len(tr.spans)
            for kind in ck.FAMILY_KINDS:
                checks(workloads.p_values_problem([tr.call(ck.chi2_bookmaker_family, t, kind)]))
            family.append(_top_seconds(tr, first))
        out[f"significance.family_ms.k{k}"] = 1e3 * median(family)
    out["significance.full_table_tests_ms"] = 1e3 * _median_seconds(tr, 5, ck.full_table_tests, tables[10])
    for n, repeats in ((100, 5), (1000, 3), (inputs.BATTERY_BIG_2X2, 1)):
        t = ck.from_counts(inputs.draw_counts(rng, 2, n, False))
        times = []
        for _ in range(repeats):
            report, seconds = tr.timed(ck.fisher_exact_2x2, t, "two")
            checks(workloads.p_values_problem([report]))
            times.append(seconds)
        out[f"significance.fisher_exact_2x2_ms.n{n}"] = 1e3 * median(times)
    t = tables[10]
    intervals = []
    for _ in range(_MICRO_REPEATS):
        first = len(tr.spans)
        evenness = tr.call(ck.evenness_factor, t)
        for variant in ck.CI_VARIANTS:
            tr.call(ck.confidence_interval, 0.25, t.n, evenness, 1.96, variant)
        intervals.append(_top_seconds(tr, first))
    out["confidence.intervals_us"] = 1e6 * median(intervals)
    return out


def sampler_layer(tr: Tracer, seed: int, checks) -> dict:
    """fisher_montecarlo_kxk per 10k draws on tables made by the simulate
    grid's public generators at level 0.5."""
    out = {}
    for k, n, repeats in ((4, 16, 3), (4, 128, 3), (8, 1024, 1)):
        rng, _ = ck.substream(seed, 9, k, n)
        table = ck.mix_and_constrain(ck.gen_perfect(k, n, rng), ck.gen_chance(k, n, rng), 0.5, n, rng)
        times = []
        for _ in range(repeats):
            report, seconds = tr.timed(ck.fisher_montecarlo_kxk, table, 10_000, seed)
            checks(workloads.p_values_problem([report]))
            times.append(seconds)
        out[f"significance.fisher_mc_ms_per_10k.k{k}n{n}"] = 1e3 * median(times)
    return out


def montecarlo_layer(tr: Tracer, seed: int, checks) -> dict:
    """One grid per simulate config: run_single, then its replay through the
    public functions (checked equal), then the reports."""
    out = {}
    generate, writes = [], []
    errors = 0
    inputs.CACHE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=inputs.CACHE) as tmp:
        for config in workloads.sim_configs(seed, 0):
            tag = f"k{config.k}n{config.n}"
            runs, run_seconds, sampler = [], [], 0.0
            for step in range(workloads.SIM_STEPS):
                run, seconds = tr.timed(ck.run_single, config, step, 0)
                first = len(tr.spans)
                checks(workloads.replay_problem(tr, config, step, 0, run))
                generate.append(_top_seconds(tr, first, _GENERATORS))
                sampler += _top_seconds(tr, first, (_SAMPLER,))
                errors += run.error is not None
                runs.append(run)
                run_seconds.append(seconds)
            out[f"montecarlo.run_single_ms.{tag}"] = 1e3 * median(run_seconds)
            if config.k > 2:
                out[f"montecarlo.sampler_share.{tag}"] = sampler / sum(run_seconds)
            first = len(tr.spans)
            checks(workloads.check_reports(workloads.write_reports(tr, runs, Path(tmp)), len(runs)))
            writes.append(_top_seconds(tr, first))
    out["montecarlo.generate_us"] = 1e6 * median(generate)
    out["montecarlo.error_runs"] = errors
    out["montecarlo.report_write_ms"] = 1e3 * median(writes)
    return out


def suite(tr: Tracer, seed: int, setup_samples: list[float], checks) -> dict:
    """Every per-layer metric; `checks(problem)` counts each correctness
    check of the probes as an operation."""
    metrics = {}
    metrics.update(cli_layer(tr, seed, setup_samples, checks))
    metrics.update(contingency_layer(tr, seed, checks))
    metrics.update(table_layers(tr, seed, checks))
    metrics.update(sampler_layer(tr, seed, checks))
    metrics.update(montecarlo_layer(tr, seed, checks))
    return metrics
