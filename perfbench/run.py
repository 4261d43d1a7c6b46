"""chancekit benchmark: four seeded closed-loop workloads, one caller each.

One run of one workload:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Every workload, untraced then traced, with a summary of the figures under
the names ROADMAP uses, and the tracing overhead:

    python3 perfbench/run.py --all --seed 1 --seconds 20

Run it from the root of a checkout: it imports chancekit from `src/` there
and nowhere else.  With `--trace 0` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, times scaled to the machine-speed
reference (reference.py); with `--trace 1` the per-layer ones.  The exit
code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One caller and no threads: keep numerical libraries, here and in the CLI
# children, from starting a thread pool per core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORKLOADS = ("ingest", "battery", "simulate", "cli")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 600

# Per workload: throughput name and work items per operation, then the
# latency name prefix and unit, as ROADMAP names them.
NAMED = {
    "ingest": ("ingest_rows_per_s", "rows/s", 1_000_000, "ingest_s", "s"),
    "battery": ("tables_per_s", "1/s", 1, "table_ms", "ms"),
    "simulate": ("sim_runs_per_s", "1/s", 1, "sim_run_ms", "ms"),
    "cli": (None, None, 1, "cli_call_s", "s"),
}


def import_chancekit() -> None:
    if not (SRC / "chancekit" / "__init__.py").is_file():
        sys.exit(f"error: no chancekit source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import chancekit

    found = Path(chancekit.__file__).resolve().parent
    if found != SRC / "chancekit":
        sys.exit(f"error: imported chancekit from {found}, not from {SRC}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chancekit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _load(nproc: int, when: str) -> list[float]:
    load = list(os.getloadavg())
    if load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} {when} the workload exceeds nproc={nproc}; "
              "timings are contended", file=sys.stderr)
    return load


def measure_setup():
    """SETUP_REPEATS fresh interpreters importing chancekit: their wall
    seconds, the same scaled to the reference speed, and the Speed."""
    import workloads
    from reference import Speed

    speed = Speed()
    speed.sample()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        with speed.ticking() as ticks:
            start = perf_counter()
            seconds = workloads.timed_python(["-c", "import chancekit"]) - sum(ticks)
        speed.sample()
        raw.append(seconds)
        scaled.append(seconds * speed.factor(start, start + seconds))
    return raw, scaled, speed


def named_metrics(workload: str, loop, setup_s: float, peak_mb: float) -> dict:
    """The workload's figures under their ROADMAP names, with the tail's
    percentile and sample count."""
    from tracing import median, tail

    throughput, throughput_unit, per_op, prefix, unit = NAMED[workload]
    scale = 1e3 if unit == "ms" else 1.0
    latencies = loop.latencies()
    high = tail(latencies)
    out = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "failed_ratio": {"value": loop.failed / loop.attempted, "unit": "ratio",
                         "attempted": loop.attempted},
        f"{prefix}_p50": {"value": scale * median(latencies), "unit": unit,
                          "samples": len(latencies)},
        f"{prefix}_tail": {"value": None if high["value"] is None else scale * high["value"],
                           "unit": unit, "percentile": high["percentile"], "samples": high["samples"]},
    }
    if throughput:
        out[throughput] = {"value": per_op * len(latencies) / loop.busy(), "unit": throughput_unit}
    return out


def pin_to_one_cpu() -> int:
    """Run this process and its children on the highest-numbered CPU it may
    use.  The virtual CPUs of a shared host change speed independently, so
    an operation, the reference loop timed around it and a CLI child must
    all run on the same one."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    import_chancekit()
    import numpy
    import scipy

    import layers
    import reference
    import workloads
    from tracing import Tracer, median

    spec = json.loads(SPEC.read_text())
    load_before = _load(nproc, "before")
    setup, setup_scaled, setup_speed = measure_setup()

    tracer = Tracer(enabled=bool(args.trace))
    loop = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    loop_spans = len(tracer.spans)
    if not loop.latencies():
        sys.exit(f"error: none of {loop.attempted} operations succeeded")
    # The CLI workload's program is the child processes, the others' this one.
    peak_mb = loop.child_peak_mb if args.workload == "cli" else workloads.peak_rss_mb()
    latencies = loop.latencies()
    end_to_end = {
        "setup_s": median(setup_scaled),
        "op_ms_p50": 1e3 * median(latencies),
        "ops_per_s": len(latencies) / loop.busy(),
        "peak_rss_mb": peak_mb,
    }
    unscaled = loop.latencies(scaled=False)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "named": named_metrics(args.workload, loop, end_to_end["setup_s"], peak_mb),
        "end_to_end": end_to_end,
        "unscaled": {
            "setup_s": median(setup),
            "op_ms_p50": 1e3 * median(unscaled),
            "ops_per_s": len(unscaled) / loop.busy(scaled=False),
        },
        "reference_ms": {
            "nominal": 1e3 * reference.NOMINAL_S,
            "setup_median": 1e3 * setup_speed.median_s(),
            "loop_median": 1e3 * loop.speed.median_s(),
            "loop_samples": len(loop.speed.seconds),
        },
        "setup_samples_s": setup,
    }
    if tracer.enabled:
        metrics = layers.suite(tracer, args.seed, setup, loop.check)
        detail["loop_self_s"] = tracer.self_seconds(loop_spans)
        trace_file = RESULTS / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        declared = spec["per_layer"]
    else:
        metrics = end_to_end
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    provenance = {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "load_before": load_before,
        "load_after": _load(nproc, "after"),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if loop.failed == 0 else 1


def _format(entry: dict) -> str:
    value = entry["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    extra = [f"{key}={entry[key]}" for key in ("percentile", "samples", "attempted") if key in entry]
    return f"{text} {entry['unit']}" + (f"  ({', '.join(extra)})" if extra else "")


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
            if proc.returncode != 0 or len(lines) < 3:
                print(f"{workload} --trace {trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            runs[trace] = {**lines[0], **lines[1], "result": lines[2]}
        summary["workloads"][workload] = runs
        if 0 not in runs:
            continue
        print(f"\n{workload}")
        for name, entry in runs[0]["detail"]["named"].items():
            print(f"  {name:20s} {_format(entry)}")
        if 1 in runs:
            plain, traced = runs[0]["detail"]["end_to_end"], runs[1]["detail"]["end_to_end"]
            overhead = {name: {"untraced": plain[name], "traced": traced[name],
                               "difference": traced[name] - plain[name]} for name in ("op_ms_p50", "ops_per_s")}
            runs["tracing_overhead"] = overhead
            for name, row in overhead.items():
                print(f"  tracing overhead {name}: {row['traced']:.6g} - {row['untraced']:.6g}"
                      f" = {row['difference']:+.6g} ({row['difference'] / row['untraced']:+.1%})")
    print("\n(tracing overhead compares one traced run with one untraced run; a"
          " difference inside the run-to-run spread of the metric is noise)")
    out = RESULTS / f"all-s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chancekit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
