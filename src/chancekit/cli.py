"""Command line interface.

Five subcommands over the library: evaluate (metric report), significance
(test statistics with p-values), confidence (evenness-scaled intervals),
simulate (Monte Carlo grid to CSV), and compare (interval overlap of two
systems).  Values are fractions by default; --percent switches the text
renderer to two-decimal percents.  JSON output round-trips losslessly.

Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .confidence import compare_systems, confidence_interval, evenness_factor, normal_multiplier
from .contingency import (
    ContingencyTable,
    load_pairs,
    load_table_csv,
    repair_zero_margins,
)
from .dichotomous import binary_stats
from .errors import DataError, UsageError
from .montecarlo import (
    CELL_DISTRIBUTIONS,
    MARGIN_DISTRIBUTIONS,
    SimConfig,
    _fmt,
    coverage_report,
    run_grid,
    write_runs_csv,
    write_summary_csv,
)
from .multiclass import bookmaker_informedness, multiclass_stats
from .significance import (
    FAMILY_KINDS,
    chi2_bookmaker_family,
    chi2_positive,
    cramers_v,
    exact_test,
    full_table_tests,
    g2_positive,
    posthoc_calibration,
    williams_correction,
)

__all__ = ["main", "console_entry", "build_parser"]

# --family values that run evenness-scaled statistics, and which kinds
_FAMILY_KIND_SETS = {
    "all": FAMILY_KINDS,
    "kb": ("kb",),
    "km": ("km",),
    "kbm": ("kbm",),
    "x": ("xb", "xm", "xbm"),
    "conv": ("conv_b", "conv_m", "conv_bm"),
}
_FAMILY_CHOICES = (*_FAMILY_KIND_SETS, "full", "fisher")

# metric fields that are not probability-like; never shown as percents
_NO_PERCENT = {
    "mutual_information", "conditional_entropy", "det",
    "lr", "nlr", "skew", "sq_err_to_optimum",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "little") >> 1


def _parse_labels(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    labels = [token.strip() for token in raw.split(",")]
    if any(not token for token in labels):
        raise UsageError("labels must be a comma-separated list of non-empty tokens")
    return labels


def _load_input(args) -> tuple[ContingencyTable, dict]:
    table_path = args.table
    pairs_path = getattr(args, "pairs", None)
    if (table_path is None) == (pairs_path is None):
        if hasattr(args, "pairs"):
            raise UsageError("provide exactly one of --table or --pairs")
        raise UsageError("--table is required")
    labels = _parse_labels(getattr(args, "labels", None))
    if table_path is not None:
        t = load_table_csv(table_path, labels=labels)
        kind, path = "table", table_path
    else:
        t = load_pairs(pairs_path, labels=labels)
        kind, path = "pairs", pairs_path
    repaired = False
    if getattr(args, "repair_margins", False):
        fixed = repair_zero_margins(t)
        repaired = fixed is not t
        t = fixed
    descriptor = {
        "path": str(path),
        "kind": kind,
        "k": t.k,
        "n": t.n,
        "labels": list(t.labels),
        "repaired": repaired,
    }
    return t, descriptor


def _document(command: str, input_descriptor: dict | None = None) -> dict:
    doc: dict = {"tool": "chancekit", "version": __version__, "command": command}
    if input_descriptor is not None:
        doc["input"] = input_descriptor
    return doc


def _report_dict(report, alpha: float) -> dict:
    return {
        **dataclasses.asdict(report),
        "corrections": sorted(report.corrections),
        "significant": report.p_value < alpha,
    }


def _interval_dict(ci) -> dict:
    return {
        "variant": ci.variant,
        "sse_rule": ci.sse_rule,
        "center": ci.center,
        "half_width": ci.half_width,
        "lo": ci.lo,
        "hi": ci.hi,
        "x": ci.x,
        "n": ci.n,
        "evenness": ci.evenness,
    }


# ---------------------------------------------------------------- renderers

def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            _flatten(f"{prefix}[{index}]", value, rows)
    else:
        rows.append((prefix, _fmt(obj)))


def _emit_csv(doc: dict) -> None:
    rows: list[tuple[str, str]] = []
    _flatten("", doc, rows)
    print("field,value")
    for field, value in rows:
        if any(c in value for c in ',"\n\r'):
            value = '"' + value.replace('"', '""') + '"'
        print(f"{field},{value}")


def _metric_text(key: str, value, percent: bool) -> str:
    if isinstance(value, float):
        if math.isfinite(value) and abs(value) <= 1.0 and key not in _NO_PERCENT:
            if percent:
                return f"{100.0 * value:.2f}%"
            return f"{value:.6f} ({100.0 * value:.2f}%)"
        return f"{value:.6f}" if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_metric_text(key, v, percent) for v in value)
    return str(value)


def _print_metric_block(title: str, fields: dict, percent: bool) -> None:
    print(f"[{title}]")
    width = max(len(k) for k in fields) + 2
    for key, value in fields.items():
        print(f"{key:<{width}}{_metric_text(key, value, percent)}")


def _print_input(doc: dict) -> None:
    print(f"chancekit {doc['version']} {doc['command']}")
    info = doc.get("input")
    if info:
        print(
            f"input: {info['path']} ({info['kind']}, k={info['k']}, n={info['n']}"
            + (", repaired" if info.get("repaired") else "")
            + ")"
        )
        print("labels: " + ",".join(info["labels"]))


def _print_significance_text(doc: dict) -> None:
    _print_input(doc)
    print(f"alpha: {doc['alpha']}")
    if "seed" in doc:
        print(f"seed: {doc['seed']}")
    print()
    header = f"{'kind':<12}{'value':>12}{'df':>4}{'p_value':>12}  {'significant':<12}corrections"
    print(header)
    for rep in doc["significance"]:
        corrections = ",".join(rep["corrections"]) or "-"
        print(
            f"{rep['kind']:<12}{rep['value']:>12.6f}{rep['df']:>4}"
            f"{rep['p_value']:>12.6f}  {'yes' if rep['significant'] else 'no':<12}{corrections}"
        )
    if "association" in doc:
        print()
        for key, value in doc["association"].items():
            print(f"{key}: {value:.6f}")
    if "posthoc" in doc:
        cal = doc["posthoc"]
        print()
        print(f"posthoc: p={cal['p']:.6f} implies false-positive risk >= {cal['alpha_post']:.6f}"
              f" (bound L={cal['l_bound']:.6f}, beta_post={cal['beta_post']:.6f})")


def _emit(doc: dict, args, text_printer) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit_csv(doc)
    else:
        text_printer()


# --------------------------------------------------------------- subcommands

def _cmd_evaluate(args) -> None:
    t, descriptor = _load_input(args)
    doc = _document("evaluate", descriptor)
    stats = multiclass_stats(t)
    multiclass = dataclasses.asdict(stats)
    evenness = multiclass.pop("evenness")
    metrics: dict = {"multiclass": multiclass, "evenness": evenness}
    if t.k == 2:
        metrics["dichotomous"] = dataclasses.asdict(binary_stats(t))
    doc["metrics"] = metrics

    def text() -> None:
        _print_input(doc)
        print()
        if "dichotomous" in metrics:
            _print_metric_block("dichotomous", metrics["dichotomous"], args.percent)
            print()
        _print_metric_block("multiclass", metrics["multiclass"], args.percent)
        print()
        _print_metric_block("evenness", metrics["evenness"], args.percent)

    _emit(doc, args, text)


def _cmd_significance(args) -> None:
    if not (0.0 < args.alpha < 1.0):
        raise UsageError(f"alpha must lie in (0, 1), got {args.alpha}")
    t, descriptor = _load_input(args)
    doc = _document("significance", descriptor)
    doc["alpha"] = args.alpha
    reports = []
    family = args.family
    want_positive = family == "all" and t.k == 2
    want_full = family in ("all", "full")
    want_fisher = family in ("all", "fisher")

    if want_positive:
        reports.append(chi2_positive(t, "predicted_positive", yates=args.yates))
        reports.append(chi2_positive(t, "real_positive", yates=args.yates))
        g2_p = g2_positive(t, "predicted_positive")
        g2_r = g2_positive(t, "real_positive")
        if args.williams:
            g2_p = williams_correction(g2_p, t, "goodness_of_fit")
            g2_r = williams_correction(g2_r, t, "goodness_of_fit")
        reports.extend([g2_p, g2_r])
    reports.extend(chi2_bookmaker_family(t, kind) for kind in _FAMILY_KIND_SETS.get(family, ()))
    if want_full:
        full_chi2, full_g2 = full_table_tests(t)
        if args.williams:
            full_g2 = williams_correction(full_g2, t, "independence")
        reports.extend([full_chi2, full_g2])
        doc["association"] = {
            "cramers_v_chi2": cramers_v(full_chi2.value, t.n, t.k),
            "cramers_v_g2": cramers_v(full_g2.value, t.n, t.k),
        }
    if want_fisher:
        seed = args.seed if args.seed is not None else _fresh_seed()
        fisher = exact_test(t, args.fisher_sided, args.fisher_samples, seed)
        if fisher.kind == "fisher_mc":
            doc["seed"] = seed
        reports.append(fisher)

    doc["significance"] = [_report_dict(rep, args.alpha) for rep in reports]
    # The calibration bound is defined only below p = 1/e.
    if want_fisher and 0.0 < fisher.p_value < 1.0 / math.e:
        doc["posthoc"] = dataclasses.asdict(posthoc_calibration(fisher.p_value))
    _emit(doc, args, lambda: _print_significance_text(doc))


def _cmd_confidence(args) -> None:
    t, descriptor = _load_input(args)
    if args.x is not None and (args.alpha is not None or args.one_tailed):
        raise UsageError("--x sets the multiplier itself, so it takes neither --alpha nor --one-tailed")
    if args.x is not None:
        x = args.x
    elif args.alpha is not None:
        x = normal_multiplier(args.alpha, two_tailed=not args.one_tailed)
    elif args.one_tailed:
        x = normal_multiplier(0.05, two_tailed=False)
    else:
        x = 1.96
    b = bookmaker_informedness(t)
    evenness = evenness_factor(t)
    intervals = [
        confidence_interval(0.0, t.n, evenness, x, "null"),
        confidence_interval(b, t.n, evenness, x, "empirical"),
        confidence_interval(b, t.n, evenness, x, "full"),
    ]
    doc = _document("confidence", descriptor)
    doc["informedness"] = b
    doc["evenness_factor"] = evenness
    doc["x"] = x
    doc["confidence"] = [_interval_dict(ci) for ci in intervals]
    doc["outside_null_band"] = not intervals[0].contains(b)

    def text() -> None:
        _print_input(doc)
        print(f"informedness: {_metric_text('informedness', b, args.percent)}")
        print(f"evenness_factor: {evenness:.6f}")
        print(f"x: {x}")
        print()
        print(f"{'variant':<12}{'sse_rule':<22}{'center':>10}{'half_width':>12}{'lo':>10}{'hi':>10}")
        for ci in intervals:
            print(
                f"{ci.variant:<12}{ci.sse_rule:<22}{ci.center:>10.4f}"
                f"{ci.half_width:>12.4f}{ci.lo:>10.4f}{ci.hi:>10.4f}"
            )
        print()
        print(f"outside_null_band: {'yes' if doc['outside_null_band'] else 'no'}")

    _emit(doc, args, text)


def _cmd_compare(args) -> None:
    t_a = load_table_csv(args.table_a)
    t_b = load_table_csv(args.table_b)
    if args.repair_margins:
        t_a = repair_zero_margins(t_a)
        t_b = repair_zero_margins(t_b)
    sys_a = (bookmaker_informedness(t_a), t_a.n, evenness_factor(t_a))
    sys_b = (bookmaker_informedness(t_b), t_b.n, evenness_factor(t_b))
    result = compare_systems(sys_a, sys_b, x=args.x)
    doc = _document("compare")
    doc["x"] = args.x
    doc["systems"] = {
        "a": {"path": str(args.table_a), "informedness": sys_a[0], "n": sys_a[1], "evenness": sys_a[2]},
        "b": {"path": str(args.table_b), "informedness": sys_b[0], "n": sys_b[1], "evenness": sys_b[2]},
    }
    doc["intervals"] = {
        "a": _interval_dict(result.interval_a),
        "b": _interval_dict(result.interval_b),
    }
    doc["comparison"] = {
        "a_in_b": result.a_in_b,
        "b_in_a": result.b_in_a,
        "mutually_exclusive": result.mutually_exclusive,
    }

    def text() -> None:
        print(f"chancekit {doc['version']} compare (x={args.x})")
        for name in ("a", "b"):
            info = doc["systems"][name]
            ci = doc["intervals"][name]
            print(
                f"system {name}: {info['path']}  informedness={info['informedness']:.6f}"
                f"  n={info['n']}  ci=[{ci['lo']:.6f}, {ci['hi']:.6f}]"
            )
        for key, value in doc["comparison"].items():
            print(f"{key}: {'yes' if value else 'no'}")

    _emit(doc, args, text)


def _cmd_simulate(args) -> None:
    seed = args.seed if args.seed is not None else _fresh_seed()
    config = SimConfig(
        k=args.k, n=args.n, steps=args.steps, runs_per_step=args.runs,
        margin_distribution=args.margin_dist, cell_distribution=args.dist,
        enforce_integer=not args.no_enforce_integer, seed=seed,
        x=args.x, alpha=args.alpha, fisher_samples=args.fisher_samples,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = run_grid(config)
    report = coverage_report(runs, alpha=config.alpha)
    runs_path = out_dir / "runs.csv"
    summary_path = out_dir / "summary.csv"
    write_runs_csv(runs, runs_path)
    write_summary_csv(report, summary_path)
    doc = _document("simulate")
    doc["seed"] = seed
    doc["config"] = {
        name: value for name, value in dataclasses.asdict(config).items() if name != "seed"
    }
    doc["coverage"] = report.overall.coverage
    doc["errors"] = report.overall.errors
    doc["runs_csv"] = str(runs_path)
    doc["summary_csv"] = str(summary_path)

    def text() -> None:
        print(f"seed: {seed}")
        print(f"runs: {runs_path} ({len(runs)} rows)")
        print(f"summary: {summary_path}")
        print(f"errors: {report.overall.errors}")
        print(f"overall coverage: {report.overall.coverage:.6f}")

    _emit(doc, args, text)


# -------------------------------------------------------------------- parser

def _add_io_options(sub, pairs: bool) -> None:
    sub.add_argument("--table", help="CSV file with a K x K count table")
    if pairs:
        sub.add_argument("--pairs", help="two-column (predicted, actual) CSV/TSV file")
    sub.add_argument("--labels", help="comma-separated label order override")
    sub.add_argument("--repair-margins", action="store_true",
                     help="place unit counts to remove zero margins before computing")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chancekit",
                     description="Chance-corrected contingency table evaluation")
    parser.add_argument("--version", action="version", version=f"chancekit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser("evaluate", help="metric report for one table")
    _add_io_options(evaluate, pairs=True)
    evaluate.set_defaults(handler=_cmd_evaluate)

    significance = commands.add_parser("significance", help="test statistics and p-values")
    _add_io_options(significance, pairs=False)
    significance.add_argument("--family", choices=_FAMILY_CHOICES, default="all")
    significance.add_argument("--yates", action="store_true",
                              help="continuity-correct cells with expectation below 5")
    significance.add_argument("--williams", action="store_true",
                              help="apply the small-sample correction to log-likelihood statistics")
    significance.add_argument("--alpha", type=float, default=0.05)
    significance.add_argument("--fisher-samples", type=int, default=100_000)
    significance.add_argument("--fisher-sided", choices=("one", "two"), default="two")
    significance.add_argument("--seed", type=int)
    significance.set_defaults(handler=_cmd_significance)

    confidence = commands.add_parser("confidence", help="evenness-scaled confidence intervals")
    _add_io_options(confidence, pairs=False)
    confidence.add_argument("--x", type=float, help="normal multiplier (default 1.96 two-tailed)")
    confidence.add_argument("--alpha", type=float, help="derive the multiplier from a level")
    confidence.add_argument("--one-tailed", action="store_true")
    confidence.set_defaults(handler=_cmd_confidence)
    for sub in (evaluate, confidence):
        sub.add_argument("--percent", action="store_true",
                         help="render probability-like values as percents in text mode")

    simulate = commands.add_parser("simulate", help="Monte Carlo coverage grid to CSV")
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--steps", type=int, default=11)
    simulate.add_argument("--runs", type=int, default=10)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--dist", choices=CELL_DISTRIBUTIONS, default="absolute_shifted_normal")
    simulate.add_argument("--margin-dist", choices=MARGIN_DISTRIBUTIONS, default="binomial")
    simulate.add_argument("--x", type=float, default=1.96)
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--fisher-samples", type=int, default=10_000)
    simulate.add_argument("--no-enforce-integer", action="store_true",
                          help="keep each rounded table's own total instead of forcing it to --n")
    simulate.add_argument("--out", required=True, help="output directory for runs.csv and summary.csv")
    simulate.add_argument("--format", choices=("json", "text"), default="text")
    simulate.set_defaults(handler=_cmd_simulate)

    compare = commands.add_parser("compare", help="interval overlap of two systems")
    compare.add_argument("--table-a", required=True)
    compare.add_argument("--table-b", required=True)
    compare.add_argument("--x", type=float, default=1.96)
    compare.add_argument("--repair-margins", action="store_true")
    compare.add_argument("--format", choices=("json", "csv", "text"), default="text")
    compare.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())
