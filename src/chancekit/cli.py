"""Command line interface.

Five subcommands over the library: evaluate (metric report), significance
(test statistics with p-values), confidence (evenness-scaled intervals),
simulate (Monte Carlo grid to CSV), and compare (interval overlap of two
systems).  Values are fractions by default; --percent switches the text
renderer to two-decimal percents.  JSON output round-trips losslessly.
Each subcommand imports the library modules it runs when it runs, so a
call loads only those.

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
from .contingency import (
    _DEFAULT_ALPHA,
    _DEFAULT_SAMPLES,
    _DEFAULT_SIDED,
    _DEFAULT_X,
    _FAMILIES,
    _SIDES,
    CELL_DISTRIBUTIONS,
    MARGIN_DISTRIBUTIONS,
    ContingencyTable,
    _check_alpha,
    _fmt,
    load_pairs,
    load_table_csv,
    repair_zero_margins,
)
from .errors import DataError, UsageError

__all__ = ["main", "console_entry", "build_parser"]

_FISHER_SAMPLES_HELP = ("most tables the sampled exact test of a K x K table draws (it stops "
                        "sooner at its 100th hit); its smallest p is 1 / (this + 1)")

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


def _parse_labels(raw: str) -> list[str]:
    labels = [token.strip() for token in raw.split(",")]
    if not all(labels):
        raise argparse.ArgumentTypeError("labels must be a comma-separated list of non-empty tokens")
    return labels


def _load_input(table: str | None, pairs: str | None, labels: list[str] | None,
                repair: bool) -> tuple[ContingencyTable, dict]:
    """The table read from `table`, or else tallied from `pairs`, with the
    descriptor every report carries as its input."""
    if table is not None:
        t = load_table_csv(table, labels=labels)
        kind, path = "table", table
    else:
        t = load_pairs(pairs, labels=labels)
        kind, path = "pairs", pairs
    fixed = repair_zero_margins(t) if repair else t
    descriptor = {
        "path": str(path),
        "kind": kind,
        "k": fixed.k,
        "n": fixed.n,
        "labels": list(fixed.labels),
        "repaired": fixed is not t,
    }
    return fixed, descriptor


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


_INTERVAL_KEYS = ("variant", "sse_rule", "center", "half_width", "lo", "hi", "x", "n", "evenness")


def _interval_dict(ci) -> dict:
    return {key: getattr(ci, key) for key in _INTERVAL_KEYS}


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
        if "draws" in rep:
            print(f"{rep['kind']}: {rep['hits']:,} hits in {rep['draws']:,} draws (se {rep['se']:.6f})")
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
    from .dichotomous import binary_stats
    from .multiclass import multiclass_stats

    t, descriptor = _load_input(args.table, args.pairs, args.labels, args.repair_margins)
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
    from .significance import cramers_v, posthoc_calibration, significance_reports

    _check_alpha(args.alpha)
    t, descriptor = _load_input(args.table, None, args.labels, args.repair_margins)
    doc = _document("significance", descriptor)
    doc["alpha"] = args.alpha
    seed = args.seed if args.seed is not None else _fresh_seed()
    # The sampler runs with no level, so its p estimates the exact one: the
    # posthoc block calibrates that p, and a p decided at --alpha is no
    # estimate of it.
    reports = significance_reports(t, (args.family,), sided=args.fisher_sided,
                                   samples=args.fisher_samples, seed=seed, alpha=None,
                                   yates=args.yates, williams=args.williams)
    by_kind = {rep.kind: rep for rep in reports}
    if "full_chi2" in by_kind:
        doc["association"] = {f"cramers_v_{stat}": cramers_v(by_kind[f"full_{stat}"].value, t.n, t.k)
                              for stat in ("chi2", "g2")}
    if "fisher_mc" in by_kind:
        doc["seed"] = seed
    doc["significance"] = [_report_dict(rep, args.alpha) for rep in reports]
    exact = next((rep for rep in reports if rep.kind.startswith("fisher")), None)
    # The calibration bound is defined only below p = 1/e.
    if exact is not None and 0.0 < exact.p_value < 1.0 / math.e:
        doc["posthoc"] = dataclasses.asdict(posthoc_calibration(exact.p_value))
    _emit(doc, args, lambda: _print_significance_text(doc))


def _cmd_confidence(args) -> None:
    from .confidence import CI_VARIANTS, confidence_interval, evenness_factor, normal_multiplier
    from .multiclass import bookmaker_informedness

    t, descriptor = _load_input(args.table, None, args.labels, args.repair_margins)
    x = args.x
    if args.alpha is not None or args.one_tailed:
        if x is not None:
            raise UsageError("--x sets the multiplier itself, so it takes neither --alpha nor --one-tailed")
        alpha = _DEFAULT_ALPHA if args.alpha is None else args.alpha
        x = normal_multiplier(alpha, two_tailed=not args.one_tailed)
        if math.isinf(x):  # 1 - alpha/2 (one-tailed 1 - alpha) rounded to 1
            smallest = math.nextafter(2.0 ** (-54 if args.one_tailed else -53), 1.0)
            raise UsageError(f"--alpha{' with --one-tailed' if args.one_tailed else ''} must be "
                             f"at least {smallest!r} for a finite multiplier, got {alpha}")
    elif x is None:
        x = _DEFAULT_X
    b = bookmaker_informedness(t)
    evenness = evenness_factor(t)
    intervals = [confidence_interval(0.0 if variant == "null" else b, t.n, evenness, x, variant)
                 for variant in CI_VARIANTS]
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
    from .confidence import compare_systems, evenness_factor
    from .multiclass import bookmaker_informedness

    paths = {"a": args.table_a, "b": args.table_b}
    tables = [_load_input(path, None, None, args.repair_margins)[0] for path in paths.values()]
    result = compare_systems(*((bookmaker_informedness(t), t.n, evenness_factor(t)) for t in tables),
                             x=args.x)
    intervals = {"a": result.interval_a, "b": result.interval_b}
    doc = _document("compare")
    doc["x"] = args.x
    doc["systems"] = {
        name: {"path": str(paths[name]), "informedness": ci.center, "n": ci.n, "evenness": ci.evenness}
        for name, ci in intervals.items()
    }
    doc["intervals"] = {name: _interval_dict(ci) for name, ci in intervals.items()}
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
    from .montecarlo import SimConfig, coverage_report, run_grid, write_runs_csv, write_summary_csv

    # Each option's dest is its SimConfig field, and an option not given
    # leaves no attribute, so SimConfig holds every default.
    given = vars(args)
    options = {f.name: given[f.name] for f in dataclasses.fields(SimConfig) if f.name in given}
    if "seed" not in options:
        options["seed"] = _fresh_seed()
    config = SimConfig(**options)
    seed = config.seed
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
    table_help = "CSV file with a K x K count table"
    if pairs:
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--table", help=table_help)
        source.add_argument("--pairs", help="two-column (predicted, actual) CSV/TSV file")
    else:
        sub.add_argument("--table", required=True, help=table_help)
    sub.add_argument("--labels", type=_parse_labels, help="comma-separated label order override")
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
    significance.add_argument("--family", choices=_FAMILIES, default="all")
    significance.add_argument("--yates", action="store_true",
                              help="continuity-correct cells with expectation below 5")
    significance.add_argument("--williams", action="store_true",
                              help="apply the small-sample correction to log-likelihood statistics")
    significance.add_argument("--alpha", type=float, default=_DEFAULT_ALPHA)
    significance.add_argument("--fisher-samples", type=int, default=_DEFAULT_SAMPLES,
                              help=_FISHER_SAMPLES_HELP)
    significance.add_argument("--fisher-sided", choices=_SIDES, default=_DEFAULT_SIDED)
    significance.add_argument("--seed", type=int)
    significance.set_defaults(handler=_cmd_significance)

    confidence = commands.add_parser("confidence", help="evenness-scaled confidence intervals")
    _add_io_options(confidence, pairs=False)
    confidence.add_argument("--x", type=float,
                            help=f"normal multiplier (default {_DEFAULT_X} two-tailed)")
    confidence.add_argument("--alpha", type=float, help="derive the multiplier from a level")
    confidence.add_argument("--one-tailed", action="store_true")
    confidence.set_defaults(handler=_cmd_confidence)
    for sub in (evaluate, confidence):
        sub.add_argument("--percent", action="store_true",
                         help="render probability-like values as percents in text mode")

    simulate = commands.add_parser("simulate", help="Monte Carlo coverage grid to CSV",
                                   argument_default=argparse.SUPPRESS)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--steps", type=int)
    simulate.add_argument("--runs", type=int, dest="runs_per_step", metavar="RUNS")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--dist", choices=CELL_DISTRIBUTIONS, dest="cell_distribution")
    simulate.add_argument("--margin-dist", choices=MARGIN_DISTRIBUTIONS, dest="margin_distribution")
    simulate.add_argument("--x", type=float)
    simulate.add_argument("--alpha", type=float)
    simulate.add_argument("--fisher-samples", type=int, help=_FISHER_SAMPLES_HELP)
    simulate.add_argument("--no-enforce-integer", action="store_false", dest="enforce_integer",
                          help="keep each rounded table's own total instead of forcing it to --n")
    simulate.add_argument("--out", required=True, help="output directory for runs.csv and summary.csv")
    simulate.add_argument("--format", choices=("json", "text"), default="text")
    simulate.set_defaults(handler=_cmd_simulate)

    compare = commands.add_parser("compare", help="interval overlap of two systems")
    compare.add_argument("--table-a", required=True)
    compare.add_argument("--table-b", required=True)
    compare.add_argument("--x", type=float, default=_DEFAULT_X)
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
