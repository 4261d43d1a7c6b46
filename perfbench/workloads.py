"""The four closed-loop workloads and the oracles that check their outputs.

Each workload is one caller that waits for every operation to finish before
starting the next: no threads, no pool.  Operations are timed one by one with
`time.perf_counter` and scaled to the machine-speed reference (see
reference.py); the oracle that checks an operation runs after the timer
stops and shares no code with the function it checks.  A failed check counts
the operation as failed.

Every workload repeats a fixed cycle of operations and stops at the cycle
boundary nearest to the requested seconds, so each run has the same mix of
operation kinds and its medians compare across runs and seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import chancekit as ck
import inputs
from reference import Speed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBPROCESS_TIMEOUT_S = 120


class Loop:
    """Counts, times and checks the operations of one closed loop, and
    times the machine-speed reference during and after each one."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.speed = Speed()
        self.ops: list[tuple[float, float, bool]] = []  # (start, seconds, primary) per passed operation
        self.attempted = 0
        self.failed = 0
        self.child_peak_mb: float | None = None  # set by workloads of subprocesses

    def measure(self, fn, check, primary: bool = True):
        """Time fn(), then run check(result) outside the timed region.

        check returns None when the output is right, else a message.  An
        exception or a message counts the operation as failed.
        """
        self.attempted += 1
        self.tr.op += 1
        try:
            with self.tr.span("bench.op"), self.speed.ticking() as ticks:
                start = perf_counter()
                out = fn()
                elapsed = perf_counter() - start - sum(ticks)
            self.speed.sample()
            problem = check(out)
        except Exception:  # noqa: BLE001 - the loop must go on and count it
            traceback.print_exc()
            self.failed += 1
            return None
        if problem:
            self.fail(problem)
            return out
        self.ops.append((start, elapsed, primary))
        return out

    def latencies(self, scaled: bool = True) -> list[float]:
        """Seconds per primary operation, scaled to the reference speed."""
        return [self._seconds(op, scaled) for op in self.ops if op[2]]

    def busy(self, scaled: bool = True) -> float:
        """Seconds inside all timed operations, scaled to the reference speed."""
        return sum(self._seconds(op, scaled) for op in self.ops)

    def _seconds(self, op: tuple[float, float, bool], scaled: bool) -> float:
        start, seconds, _ = op
        return seconds * self.speed.factor(start, start + seconds) if scaled else seconds

    def fail(self, problem: str) -> None:
        print(f"check failed: {problem}", file=sys.stderr)
        self.failed += 1

    def check(self, problem: str | None) -> None:
        """Count one untimed check as an operation."""
        self.attempted += 1
        if problem:
            self.fail(problem)

    def cycles(self, seconds: float, cycle) -> None:
        """Run cycle(0), cycle(1), ... and stop at the cycle boundary
        nearest to `seconds` of wall time (at least one cycle)."""
        self.speed.sample()
        start = perf_counter()
        done = 0
        while True:
            cycle(done)
            done += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / (2 * done) >= seconds:
                return


def p_values_problem(reports) -> str | None:
    for r in reports:
        if not 0.0 <= r.p_value <= 1.0:
            return f"{r.kind} p-value {r.p_value} outside [0, 1]"
    return None


# ------------------------------------------------------------------ ingest

def check_ingest(out, expected: np.ndarray) -> str | None:
    table, stats = out
    k = expected.shape[0]
    if table.labels != tuple(inputs.pair_labels(k)):
        return f"k={k}: labels {table.labels[:3]}... are not the generated ones"
    if not np.array_equal(table.counts, expected):
        return f"k={k}: table differs from the bincount tally of the label codes"
    if not math.isfinite(stats.informedness):
        return f"k={k}: informedness {stats.informedness} is not finite"
    return None


def ingest(seed: int, seconds: float, tr: Tracer) -> Loop:
    """load_pairs then multiclass_stats on the 1M-row k10 and k100 files."""
    files = {name: inputs.pair_file(seed, name) for name in inputs.PAIR_FILES}
    loop = Loop(tr)
    # One untimed load first, so the allocator's first growth to the size of
    # a 1M-row load is not charged to whichever file happens to come first.
    ck.load_pairs(files["k10"][0])

    def load(name: str) -> None:
        path, expected = files[name]

        def op():
            table = tr.call(ck.load_pairs, path)
            return table, tr.call(ck.multiclass_stats, table)

        loop.measure(op, lambda out: check_ingest(out, expected))

    loop.cycles(seconds, lambda i: [load(name) for name in inputs.PAIR_FILES])
    return loop


# ----------------------------------------------------------------- battery

def evaluate_table(tr: Tracer, counts: np.ndarray):
    """What `evaluate`, `significance --family all` and `confidence`
    compute for one table."""
    t = tr.call(ck.from_counts, counts)
    stats = tr.call(ck.multiclass_stats, t)
    reports = list(tr.call(ck.full_table_tests, t))
    reports += [tr.call(ck.chi2_bookmaker_family, t, kind) for kind in ck.FAMILY_KINDS]
    evenness = tr.call(ck.evenness_factor, t)
    intervals = [
        tr.call(ck.confidence_interval, 0.0 if variant == "null" else stats.informedness,
                t.n, evenness, 1.96, variant)
        for variant in ck.CI_VARIANTS
    ]
    binary = None
    if t.k == 2:
        binary = tr.call(ck.binary_stats, t)
        for target in ("predicted_positive", "real_positive"):
            reports.append(tr.call(ck.chi2_positive, t, target))
            reports.append(tr.call(ck.g2_positive, t, target))
        reports.append(tr.call(ck.fisher_exact_2x2, t, "two"))
    return stats, reports, intervals, binary


def check_table(counts: np.ndarray, out) -> str | None:
    """Closed forms from the raw cells, independent of chancekit's code."""
    stats, reports, _, binary = out
    p = counts / counts.sum()
    prevalence = p.sum(axis=0)
    bias = p.sum(axis=1)
    per_label = (np.diag(p) - prevalence * bias) / (prevalence * (1.0 - prevalence))
    informedness = float(prevalence @ per_label)
    if abs(informedness - stats.informedness) > 1e-9:
        return f"informedness {stats.informedness} != per-label form {informedness}"
    problem = p_values_problem(reports)
    if problem or counts.shape[0] != 2:
        return problem
    a, b, c, d = (float(x) for x in counts.ravel())
    n = a + b + c + d
    b_2x2 = a / (a + c) + d / (b + d) - 1.0
    m_2x2 = a / (a + b) + d / (c + d) - 1.0
    mcc = (a * d - b * c) / math.sqrt((a + b) * (c + d) * (a + c) * (b + d))
    full_chi2 = next(r.value for r in reports if r.kind == "full_chi2")
    if abs(binary.informedness - b_2x2) > 1e-9:
        return f"2x2 informedness {binary.informedness} != recall + inverse recall - 1 = {b_2x2}"
    if not math.isclose(full_chi2, n * b_2x2 * m_2x2, rel_tol=1e-9, abs_tol=1e-9):
        return f"full_chi2 {full_chi2} != n*B*M = {n * b_2x2 * m_2x2}"
    if abs(binary.correlation - mcc) > 1e-9 or abs(stats.correlation - mcc) > 1e-9:
        return f"correlation {binary.correlation} != Matthews {mcc}"
    return None


def battery(seed: int, seconds: float, tr: Tracer) -> Loop:
    """A seeded stream of distinct tables, each through the whole battery."""
    rng = inputs.battery_rng(seed)
    loop = Loop(tr)

    def cycle(i: int) -> None:
        for counts in inputs.battery_cycle(rng):
            loop.measure(lambda: evaluate_table(tr, counts), lambda out: check_table(counts, out))

    loop.cycles(seconds, cycle)
    return loop


# ---------------------------------------------------------------- simulate

# Interleaved grids: (2, 128) has no sampler, (4, 16) small sampler runs and
# (4, 128) runs the sampler takes nearly all of.
SIM_GRID = ((2, 128), (4, 16), (4, 128))
SIM_STEPS = 11


def sim_configs(seed: int, round_: int) -> list:
    return [ck.SimConfig(k=k, n=n, steps=SIM_STEPS, runs_per_step=1, seed=seed * 100_000 + round_)
            for k, n in SIM_GRID]


def _sim_reports(run) -> list:
    return [run.full_chi2, run.full_g2, run.fisher, run.kb, run.km, run.kbm]


def check_run(config, run) -> str | None:
    if run.error is not None:
        return f"run ({run.step}, {run.run}) of k={config.k} n={config.n}: {run.error}"
    if run.table.n != config.n:
        return f"run ({run.step}, {run.run}): realised total {run.table.n} != n={config.n}"
    return p_values_problem(_sim_reports(run))


def replay_run(tr: Tracer, config, step: int, run: int):
    """run_single rebuilt from the public functions it calls, in its
    documented stream order: generators, mix_and_constrain, sampler seed,
    statistics."""
    rng, stream_id = tr.call(ck.substream, config.seed, step, run)
    level = config.level(step)
    try:
        perfect = tr.call(ck.gen_perfect, config.k, config.n, rng)
        chance = tr.call(ck.gen_chance, config.k, config.n, rng,
                         config.margin_distribution, config.cell_distribution)
        table = tr.call(ck.mix_and_constrain, perfect, chance, level, config.n, rng,
                        enforce_total=config.enforce_integer)
        sampler_seed = int(rng.integers(np.iinfo(np.int64).max))
        stats = tr.call(ck.multiclass_stats, table)
        full_chi2, full_g2 = tr.call(ck.full_table_tests, table)
        if table.k == 2:
            fisher = tr.call(ck.fisher_exact_2x2, table, "two")
        else:
            fisher = tr.call(ck.fisher_montecarlo_kxk, table, config.fisher_samples, sampler_seed)
        kb, km, kbm = (tr.call(ck.chi2_bookmaker_family, table, kind) for kind in ("kb", "km", "kbm"))
        evenness = tr.call(ck.evenness_factor, table)
        ci_null, ci_empirical, ci_full = (
            tr.call(ck.confidence_interval, level, table.n, evenness, config.x, variant)
            for variant in ("null", "empirical", "full")
        )
    except (ck.DataError, RuntimeError) as exc:
        return ck.SimRun(step=step, run=run, level=level, seed_stream=stream_id, error=str(exc))
    return ck.SimRun(
        step=step, run=run, level=level, seed_stream=stream_id,
        table=table, stats=stats, full_chi2=full_chi2, full_g2=full_g2, fisher=fisher,
        kb=kb, km=km, kbm=kbm,
        ci_null=ci_null, ci_empirical=ci_empirical, ci_full=ci_full,
        within_band=ci_empirical.contains(stats.informedness),
    )


def same(a, b) -> bool:
    """Field-by-field equality that treats nan as equal to nan."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def replay_problem(tr: Tracer, config, step: int, run: int, actual) -> str | None:
    if same(replay_run(tr, config, step, run), actual):
        return None
    return f"replay of run ({step}, {run}) k={config.k} n={config.n} differs from run_single"


def write_reports(tr: Tracer, runs: list, out_dir: Path) -> Path:
    report = tr.call(ck.coverage_report, runs)
    tr.call(ck.write_runs_csv, runs, out_dir / "runs.csv")
    tr.call(ck.write_summary_csv, report, out_dir / "summary.csv")
    return out_dir


def check_reports(out_dir: Path, runs: int) -> str | None:
    rows = (out_dir / "runs.csv").read_text().splitlines()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    if len(rows) != 1 + runs or len(summary) != 1 + SIM_STEPS + 1:
        return f"report files have {len(rows)} and {len(summary)} lines"
    return None


def simulate(seed: int, seconds: float, tr: Tracer) -> Loop:
    """run_single over interleaved grids, then the coverage report and both
    CSV files per grid.  Traced runs also replay every run and check that
    the replay equals run_single's result."""
    loop = Loop(tr)
    inputs.CACHE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=inputs.CACHE) as tmp:
        out_dir = Path(tmp)

        def cycle(i: int) -> None:
            configs = sim_configs(seed, i)
            runs: list[list] = [[] for _ in configs]
            for step in range(SIM_STEPS):
                for config, done in zip(configs, runs):
                    run = loop.measure(lambda: tr.call(ck.run_single, config, step, 0),
                                       lambda r: check_run(config, r))
                    if run is None:
                        continue
                    done.append(run)
                    if tr.enabled:
                        loop.check(replay_problem(tr, config, step, 0, run))
            for done in runs:
                loop.measure(lambda: write_reports(tr, done, out_dir),
                             lambda d: check_reports(d, len(done)), primary=False)

        loop.cycles(seconds, cycle)
    return loop


# --------------------------------------------------------------------- cli

def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)


def peak_rss_mb(status: str | None = None) -> float:
    """Peak resident set (VmHWM) from a /proc/<pid>/status text, by default
    this process's.  ru_maxrss is not used: on Linux it carries the parent's
    peak across fork and exec."""
    if status is None:
        status = Path("/proc/self/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in the process status")


# `python -m chancekit` plus an exit hook that writes the process's status
# lines to stderr, so the parent can read the child's own peak memory.
_CLI_MAIN = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\n' + open('/proc/self/status').read()))\n"
    "runpy.run_module('chancekit', run_name='__main__', alter_sys=True)\n"
)


def timed_python(args: list[str]) -> float:
    """Wall seconds of one fresh interpreter running `args`; it must exit 0."""
    start = perf_counter()
    proc = run_python(args)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr[-300:]}")
    return seconds


def cli_calls(files: dict, seed: int) -> list[tuple[str, list[str]]]:
    t2, t4, t4b, pairs = (str(files[key]) for key in ("t2", "t4", "t4b", "pairs"))
    return [
        ("evaluate", ["evaluate", "--table", t2]),
        ("evaluate", ["evaluate", "--pairs", pairs]),
        ("significance", ["significance", "--table", t2, "--family", "all"]),
        ("significance", ["significance", "--table", t4, "--family", "all", "--seed", str(seed)]),
        ("confidence", ["confidence", "--table", t4]),
        ("compare", ["compare", "--table-a", t4, "--table-b", t4b]),
    ]


def library_informedness(files: dict) -> dict[str, float]:
    tables = {key: ck.load_table_csv(files[key]) for key in ("t2", "t4", "t4b")}
    tables["pairs"] = ck.load_pairs(files["pairs"])
    return {key: ck.multiclass_stats(t).informedness for key, t in tables.items()}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_cli(command: str, proc, reference: dict, files: dict) -> str | None:
    if proc.returncode != 0:
        return f"{command} exited {proc.returncode}: {proc.stderr.strip()[:300]}"
    doc = json.loads(proc.stdout)
    by_path = {str(files[key]): value for key, value in reference.items()}
    if command == "evaluate":
        got = doc["metrics"]["multiclass"]["informedness"]
        want = by_path[doc["input"]["path"]]
    elif command == "confidence":
        got, want = doc["informedness"], by_path[doc["input"]["path"]]
    elif command == "compare":
        got = (doc["systems"]["a"]["informedness"], doc["systems"]["b"]["informedness"])
        want = (reference["t4"], reference["t4b"])
        return None if all(map(_close, got, want)) else f"compare informedness {got} != {want}"
    else:
        expected = 16 if doc["input"]["k"] == 2 else 12
        if len(doc["significance"]) != expected:
            return f"significance gave {len(doc['significance'])} reports, expected {expected}"
        bad = [r["kind"] for r in doc["significance"] if not 0.0 <= r["p_value"] <= 1.0]
        return f"p-values outside [0, 1]: {bad}" if bad else None
    return None if _close(got, want) else f"{command} informedness {got} != library {want}"


def cli(seed: int, seconds: float, tr: Tracer) -> Loop:
    """`python -m chancekit ... --format json` subprocesses, one at a time.
    Each child runs the module as -m does (runpy), wrapped only to report its
    own peak memory on exit."""
    files = inputs.cli_inputs(seed)
    reference = library_informedness(files)
    loop = Loop(tr)

    def cycle(i: int) -> None:
        for command, argv in cli_calls(files, seed):
            full = ["-c", _CLI_MAIN, *argv, "--format", "json"]

            def op():
                with tr.span("cli.console_entry"):
                    return run_python(full)

            proc = loop.measure(op, lambda proc: check_cli(command, proc, reference, files))
            if proc is not None:
                loop.child_peak_mb = max(loop.child_peak_mb or 0.0, peak_rss_mb(proc.stderr))

    loop.cycles(seconds, cycle)
    return loop


WORKLOADS = {"ingest": ingest, "battery": battery, "simulate": simulate, "cli": cli}
