"""The public namespace, and the README examples run as written."""

import ast
import contextlib
import importlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import chancekit
from chancekit import contingency
from helpers import unreached_lines

MODULES = ("errors", "contingency", "dichotomous", "multiclass", "significance", "confidence", "montecarlo")

# chancekit.__all__ before each module's __all__ became the one declaration
# of its names; every one stays exported.
EARLIER_EXPORTS = (
    "BinaryStats", "CI_VARIANTS", "ChanceKitError", "ConfidenceInterval",
    "ContingencyTable", "CostModel", "CoverageReport", "DataError",
    "EXPONENT_RULES", "EvennessVariants", "FAMILY_KINDS", "Margins",
    "MulticlassStats", "NormalizedTable", "PosthocCalibration",
    "RUNS_CSV_COLUMNS", "SSE_RULES", "SignificanceReport", "SimConfig",
    "SimRun", "StepSummary", "SystemComparison", "TRANSFORM_KINDS",
    "UsageError", "__version__", "auc_single_point", "binary_stats",
    "bookmaker_informedness", "chi2_bookmaker_family", "chi2_positive",
    "chi2_sf", "compare_systems", "conditional_entropy", "confidence_interval",
    "correlation_bmg", "coverage_report", "cramers_v", "det_estimates",
    "dichotomize", "evenness_factor", "evenness_variants", "expectation_delta",
    "fisher_exact_2x2", "fisher_montecarlo_kxk", "from_counts", "from_pairs",
    "full_table_tests", "g2_positive", "gen_chance", "gen_perfect",
    "load_pairs", "load_table_csv", "macro_averages", "margins",
    "mix_and_constrain", "multiclass_kappa", "multiclass_markedness",
    "multiclass_stats", "mutual_information", "normal_multiplier",
    "normalize", "parse_pairs", "parse_table_csv", "posthoc_calibration",
    "regression_coefficients", "repair_zero_margins",
    "require_positive_margins", "run_grid", "run_single", "sse_profile",
    "substream", "transform", "williams_correction", "wracc",
    "write_runs_csv", "write_summary_csv",
)


def test_package_exports_each_module_name_once():
    seen = {}
    for name in MODULES:
        module = importlib.import_module(f"chancekit.{name}")
        for export in module.__all__:
            assert hasattr(module, export), (name, export)
            assert getattr(chancekit, export) is getattr(module, export), (name, export)
            assert export not in seen, (export, seen.get(export), name)
            seen[export] = name
    assert chancekit.__all__ == ["__version__", *seen]
    assert set(EARLIER_EXPORTS) <= set(chancekit.__all__)
    assert {"MARGIN_DISTRIBUTIONS", "CELL_DISTRIBUTIONS"} <= set(chancekit.__all__)


def _fresh(probe: str) -> str:
    """stdout of a new interpreter running `probe`."""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    loaded = _fresh("import sys, chancekit\n"
                    "print(sorted(m for m in sys.modules if m.startswith(('chancekit.', 'numpy'))))")
    assert loaded.strip() == "[]"


def test_star_import_binds_every_export_from_its_module():
    # In a new interpreter, so the star import is what loads the modules.
    owners = json.loads(_fresh(
        "import importlib, json\n"
        "namespace = {}\n"
        "exec('from chancekit import *', namespace)\n"
        "del namespace['__builtins__']\n"
        f"modules = [importlib.import_module('chancekit.' + m) for m in {MODULES!r}]\n"
        "print(json.dumps({name: [m.__name__ for m in modules if getattr(m, name, None) is value]\n"
        "                  for name, value in namespace.items()}))\n"
    ))
    expected = {*EARLIER_EXPORTS, "MARGIN_DISTRIBUTIONS", "CELL_DISTRIBUTIONS", "exact_test",
                "SampledReport", "significance_reports"}
    assert len(expected) == 81  # 80 library names and __version__
    assert set(owners) == expected
    assert [name for name, found_in in owners.items() if not found_in] == ["__version__"]


def test_lazy_namespace_lookups():
    assert "__all__" in dir(chancekit)
    assert {"cli", "montecarlo", "multiclass_stats"} <= set(dir(chancekit))
    with pytest.raises(AttributeError, match="no_such_name"):
        chancekit.no_such_name
    assert chancekit.cli is importlib.import_module("chancekit.cli")
    # A name resolved once is then a plain entry of the package dict.
    bound = _fresh("import chancekit\n"
                   "before = 'run_grid' in vars(chancekit)\n"
                   "first = chancekit.run_grid\n"
                   "print(before, vars(chancekit)['run_grid'] is first)\n")
    assert bound.split() == ["False", "True"]


def test_readme_quick_start_prints_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    shown = re.findall(r"(-?\d+\.\d+)\.\.\.", "\n".join(re.findall(r"#.*", block)))
    printed = out.getvalue().split()
    assert shown and len(shown) == len(printed), (shown, printed)
    for value, got in zip(shown, printed):
        assert got.startswith(value), (value, got)


def test_readme_count_table_is_the_quick_start_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"from_counts\((\[\[.*?\]\])\)", readme).group(1)
    formats = readme[readme.index("### Input formats"):]
    block = re.search(r"```csv\n(.*?)```", formats, re.S).group(1)
    table = chancekit.parse_table_csv(block)
    assert table.labels == ("cat", "dog")
    assert table.counts.tolist() == ast.literal_eval(quick_start)


def test_no_module_keeps_an_unused_import():
    # No linter runs over the package, so a top-level import that a module
    # never reads (nor lists in __all__) is caught here.
    for path in sorted(Path(chancekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported = set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items()
                  if name not in read and name not in exported}
        assert not unused, f"{path.name} imports and never uses {unused}"


_T2 = chancekit.from_counts([[5, 1], [2, 4]])
_T3 = chancekit.from_counts([[5, 1, 2], [0, 7, 1], [2, 2, 9]])
_ZERO3 = chancekit.from_counts([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def _rng():
    return chancekit.substream(0, 0)[0]


def _runs():
    return chancekit.run_grid(chancekit.SimConfig(k=2, n=16, steps=2, runs_per_step=2, seed=1))


# Each public guard on caller input, the class it raises (UsageError exits 1
# from the command line, DataError exits 2) and the text naming what was bad.
INPUT_GUARDS = {
    "chi2_sf_df": (lambda: chancekit.chi2_sf(1.0, 0), chancekit.UsageError, "got 0"),
    "chi2_sf_statistic": (lambda: chancekit.chi2_sf(-1.0, 1), chancekit.UsageError, "got -1.0"),
    "chi2_positive_k3": (lambda: chancekit.chi2_positive(_T3), chancekit.UsageError,
                         "2x2 tables, got 3x3"),
    "chi2_positive_target": (lambda: chancekit.chi2_positive(_T2, "nowhere"),
                             chancekit.UsageError, "'nowhere'"),
    "cramers_v_n": (lambda: chancekit.cramers_v(1.0, 0, 2), chancekit.UsageError,
                    "need at least 1 n, got 0"),
    "cramers_v_k": (lambda: chancekit.cramers_v(1.0, 10, 1), chancekit.UsageError,
                    "need at least 2 classes, got 1"),
    "cramers_v_value": (lambda: chancekit.cramers_v(-1.0, 10, 2), chancekit.UsageError,
                        "chi-squared value must be a finite number in [0, inf], got -1.0"),
    "cramers_v_nan": (lambda: chancekit.cramers_v(float("nan"), 10, 2),
                      chancekit.UsageError, "in [0, inf], got nan"),
    "coverage_report_alpha": (lambda: chancekit.coverage_report(_runs(), alpha=2.0),
                              chancekit.UsageError, "alpha must lie in (0, 1), got 2.0"),
    "coverage_report_alpha_text": (lambda: chancekit.coverage_report(_runs(), alpha="0.1"),
                                   chancekit.UsageError, "alpha must lie in (0, 1), got '0.1'"),
    "fisher_mc_empty": (lambda: chancekit.fisher_montecarlo_kxk(_ZERO3),
                        chancekit.DataError, "empty table"),
    "williams_twice": (lambda: chancekit.williams_correction(
        chancekit.significance_reports(_T3, ("full",), williams=True)[1], _T3),
                       chancekit.UsageError, "full_g2 report is already Williams-corrected"),
    "williams_other_table": (lambda: chancekit.williams_correction(
        chancekit.full_table_tests(_T3)[1], _T2),
                             chancekit.UsageError, "n=29, K-1=2, not of this one with n=12, K-1=1"),
    "exact_test_side": (lambda: chancekit.exact_test(_T3, "both"), chancekit.UsageError,
                        "unknown sidedness 'both'; expected one of one, two"),
    "samples_float": (lambda: chancekit.fisher_montecarlo_kxk(_T3, 2000.0), chancekit.UsageError,
                      "samples must be an integer, got 2000.0"),
    "williams_kind": (lambda: chancekit.williams_correction(chancekit.full_table_tests(_T3)[0], _T3),
                      chancekit.UsageError, "got 'full_chi2'"),
    "reports_bare_string": (lambda: chancekit.significance_reports(_T3, "all"),
                            chancekit.UsageError, "such as ('all',), not the string 'all'"),
    "normalized_text": (lambda: chancekit.NormalizedTable([["0.5", "0.5"], ["0", "0"]], ("a", "b")),
                        chancekit.DataError, "cell probabilities must be real numbers, got np.str_('0.5')"),
    "normalized_bool": (lambda: chancekit.NormalizedTable([[True, False], [False, False]], ("a", "b")),
                        chancekit.DataError, "must be real numbers, got np.True_"),
    "normalized_complex": (lambda: chancekit.NormalizedTable([[0.5 + 0j, 0.5], [0, 0]], ("a", "b")),
                           chancekit.DataError, "must be real numbers, got np.complex128(0.5+0j)"),
    "normalized_not_square": (lambda: chancekit.NormalizedTable([[0.5, 0.5]], ("a",)),
                              chancekit.DataError, "square"),
    "normalized_out_of_range": (lambda: chancekit.NormalizedTable([[1.5, -0.5], [0, 0]], ("a", "b")),
                                chancekit.DataError, "[0, 1]"),
    "normalized_sum": (lambda: chancekit.NormalizedTable([[0.5, 0.5], [0.5, 0.5]], ("a", "b")),
                       chancekit.DataError, "sum to 1"),
    "counts_complex": (lambda: chancekit.from_counts([[1 + 2j, 1], [1, 1]]), chancekit.DataError,
                       "counts must be real numbers, got np.complex128(1+2j)"),
    "counts_text": (lambda: chancekit.from_counts([["1", "2"], ["3", "4"]]), chancekit.DataError,
                    "counts must be real numbers, got np.str_('1')"),
    "counts_bool": (lambda: chancekit.from_counts([[True, False], [False, True]]),
                    chancekit.DataError, "counts must be real numbers, got np.True_"),
    "counts_object_text": (lambda: chancekit.from_counts(np.array([[1, "2"], [3, 4]], dtype=object)),
                           chancekit.DataError, "counts must be real numbers, got '2'"),
    "counts_object_fraction": (lambda: chancekit.from_counts(
        np.array([[Fraction(1), 2], [3, 4]], dtype=object)),
                               chancekit.DataError, "counts must be real numbers, got Fraction(1, 1)"),
    "counts_int_past_float": (lambda: chancekit.from_counts(np.array([[10**400, 1], [1, 1]], dtype=object)),
                              chancekit.DataError, "counts total exceeds the 64-bit integer range"),
    "labels_repeated": (lambda: chancekit.from_counts([[1, 2], [3, 4]], ("a", "a")),
                        chancekit.DataError, "labels must be distinct"),
    "margins_all_zero": (lambda: chancekit.margins(_ZERO3), chancekit.DataError, "all-zero"),
    "transform_dual_permutation": (lambda: chancekit.transform(_T3, "dual", [2, 1, 0]),
                                   chancekit.UsageError, "dual takes no permutation"),
    "binary_stats_k3": (lambda: chancekit.binary_stats(_T3), chancekit.UsageError, "got 3x3"),
    "regression_k3": (lambda: chancekit.regression_coefficients(_T3),
                      chancekit.UsageError, "2x2 tables, got 3x3"),
    "wracc_skew_overflow": (lambda: chancekit.wracc(chancekit.binary_stats(_T2),
                                                    chancekit.CostModel(cs=1e308, cv=1e308)),
                            chancekit.UsageError, "got inf"),
    "gen_chance_margins": (lambda: chancekit.gen_chance(3, 30, _rng(), margin_distribution="poisson"),
                           chancekit.UsageError, "'poisson'"),
    "gen_chance_cells": (lambda: chancekit.gen_chance(3, 30, _rng(), cell_distribution="poisson"),
                         chancekit.UsageError, "'poisson'"),
    "mix_k_mismatch": (lambda: chancekit.mix_and_constrain(_T2, _T3, 0.5, 12, _rng()),
                       chancekit.UsageError, "matching class counts, got 2 and 3"),
    "mix_level": (lambda: chancekit.mix_and_constrain(_T2, _T2, 1.5, 12, _rng()),
                  chancekit.UsageError, "got 1.5"),
    "informedness_weights": (lambda: chancekit.bookmaker_informedness(_T3, weights="uniform"),
                             chancekit.UsageError, "'uniform'"),
    "det_exponent_rule": (lambda: chancekit.det_estimates(_T3, "square"),
                          chancekit.UsageError, "'square'"),
    # Each of these was truncated, taken as another value or refused by a
    # raw TypeError, ValueError or IndexError.
    "config_k_float": (lambda: chancekit.SimConfig(k=2.0, n=16),
                       chancekit.UsageError, "classes must be an integer, got 2.0"),
    "config_n_float": (lambda: chancekit.SimConfig(k=2, n=16.0),
                       chancekit.UsageError, "n must be an integer, got 16.0"),
    "config_seed_float": (lambda: chancekit.SimConfig(k=2, n=16, seed=7.5),
                          chancekit.UsageError, "seed must be an integer, got 7.5"),
    "sampler_seed_float": (lambda: chancekit.fisher_montecarlo_kxk(_T3, 2000, 1.9),
                           chancekit.UsageError, "seed must be an integer, got 1.9"),
    "interval_n_float": (lambda: chancekit.confidence_interval(0.2, 2.5),
                         chancekit.UsageError, "n must be an integer, got 2.5"),
    "cramers_v_n_float": (lambda: chancekit.cramers_v(1.0, 0.5, 2),
                          chancekit.UsageError, "n must be an integer, got 0.5"),
    "chi2_sf_df_bool": (lambda: chancekit.chi2_sf(1.0, True),
                        chancekit.UsageError, "degrees of freedom must be an integer, got True"),
    "dichotomize_index_float": (lambda: chancekit.dichotomize(_T2, 0.5),
                                chancekit.UsageError, "label index must be an integer, got 0.5"),
    "config_x_text": (lambda: chancekit.SimConfig(k=2, n=16, x="2"),
                      chancekit.UsageError, "multiplier must be a positive finite number, got '2'"),
    "config_alpha_text": (lambda: chancekit.SimConfig(k=2, n=16, alpha="0.1"),
                          chancekit.UsageError, "alpha must lie in (0, 1), got '0.1'"),
    "cost_model_text": (lambda: chancekit.CostModel(cs="a"),
                        chancekit.UsageError, "cs must be a positive finite number, got 'a'"),
    "chi2_sf_statistic_text": (lambda: chancekit.chi2_sf("3.0", 2), chancekit.UsageError,
                               "statistic must be a finite number in [0, inf], got '3.0'"),
    "chi2_sf_statistic_bool": (lambda: chancekit.chi2_sf(True, 2),
                               chancekit.UsageError, "in [0, inf], got True"),
    "cramers_v_value_bool": (lambda: chancekit.cramers_v(True, 10, 2),
                             chancekit.UsageError, "in [0, inf], got True"),
    "cramers_v_value_text": (lambda: chancekit.cramers_v("1", 10, 2),
                             chancekit.UsageError, "in [0, inf], got '1'"),
    "cramers_v_value_inf": (lambda: chancekit.cramers_v(float("inf"), 10, 2),
                            chancekit.UsageError, "in [0, inf], got inf"),
    "interval_center_text": (lambda: chancekit.confidence_interval("0.25", 100), chancekit.UsageError,
                             "center must be a finite number in [-1, 1], got '0.25'"),
    "interval_center_bool": (lambda: chancekit.confidence_interval(True, 100),
                             chancekit.UsageError, "in [-1, 1], got True"),
    "mix_level_bool": (lambda: chancekit.mix_and_constrain(_T2, _T2, True, 12, _rng()),
                       chancekit.UsageError, "level must be a finite number in [0, 1], got True"),
    "mix_level_text": (lambda: chancekit.mix_and_constrain(_T2, _T2, "0.5", 12, _rng()),
                       chancekit.UsageError, "in [0, 1], got '0.5'"),
    "mix_n_float": (lambda: chancekit.mix_and_constrain(_T2, _T2, 0.5, 12.5, _rng()),
                    chancekit.UsageError, "n must be an integer, got 12.5"),
    "substream_seed_float": (lambda: chancekit.substream(7.5, 0, 0),
                             chancekit.UsageError, "stream address must be an integer, got 7.5"),
    "gen_chance_k_float": (lambda: chancekit.gen_chance(3.0, 30, _rng()),
                           chancekit.UsageError, "classes must be an integer, got 3.0"),
    "gen_chance_n_negative": (lambda: chancekit.gen_chance(3, -5, _rng()),
                              chancekit.UsageError, "need at least 0 n, got -5"),
    "gen_perfect_n_float": (lambda: chancekit.gen_perfect(3, 30.5, _rng()),
                            chancekit.UsageError, "n must be an integer, got 30.5"),
    "gen_perfect_k_one": (lambda: chancekit.gen_perfect(1, 30, _rng()),
                          chancekit.UsageError, "need at least 2 classes, got 1"),
    # Each of these sites raised its own text for a rule on table data; a
    # class skew of a table with no real positives was a UsageError on cs.
    "cost_model_zero_margin": (lambda: chancekit.CostModel.from_table(chancekit.from_counts([[3, 0], [4, 0]])),
                               chancekit.DataError, "zero real-class margin (column) for label '1'"),
    "fisher_exact_empty": (lambda: chancekit.fisher_exact_2x2(chancekit.from_counts([[0, 0], [0, 0]])),
                           chancekit.DataError, "cannot test an empty table: its counts are all-zero"),
    "normalize_empty": (lambda: chancekit.normalize(chancekit.from_counts([[0, 0], [0, 0]])),
                        chancekit.DataError, "cannot normalize an empty table: its counts are all-zero"),
    "counts_one_label": (lambda: chancekit.from_counts([[5]]),
                         chancekit.DataError, "need at least 2 distinct labels"),
    "pairs_one_label": (lambda: chancekit.from_pairs([("a", "a")]),
                        chancekit.DataError, "need at least 2 distinct labels"),
    "table_file_not_square": (lambda: chancekit.parse_table_csv("x,a\nb\n"),
                              chancekit.DataError, "counts must form a square matrix, got shape (1, 0)"),
    "config_n_below_k": (lambda: chancekit.SimConfig(k=4, n=3),
                         chancekit.UsageError, "need n >= K so margins can be positive, got n=3, K=4"),
    "mix_n_below_k": (lambda: chancekit.mix_and_constrain(_T3, _T3, 0.5, 2, _rng()),
                      chancekit.UsageError, "need n >= K so margins can be positive, got n=2, K=3"),
}


@pytest.mark.parametrize("name", sorted(INPUT_GUARDS))
def test_public_input_guards_raise_documented_class(name):
    call, error, text = INPUT_GUARDS[name]
    with pytest.raises(error, match=re.escape(text)):
        call()


# Each rule on caller arguments is raised by one check in contingency.py; a
# UsageError elsewhere whose text carries one of these markers states a rule
# again.
_RULE_CHECKS = ("_check_choice", "_check_whole", "_check_positive", "_check_within", "_check_alpha",
                "_check_2x2")
_RULE_MARKERS = ("unknown ", "2x2 table", "positive finite", "positive and finite",
                 "must be an integer", "positive integer", "need at least", "alpha must lie",
                 "finite number", "non-negative", "must lie in [")


def test_each_argument_rule_is_raised_in_one_place():
    restated = []
    for path in sorted(Path(chancekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "contingency.py":
            checks = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name in _RULE_CHECKS]
            assert sorted(node.name for node in checks) == sorted(_RULE_CHECKS)
            assert sum(isinstance(node, ast.Raise) for check in checks for node in ast.walk(check)) == 7
            tree.body = [node for node in tree.body if node not in checks]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) == "UsageError"):
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if any(marker in text for marker in _RULE_MARKERS):
                    restated.append(f"{path.name}:{node.lineno}")
    assert not restated, f"argument rules raised outside the shared checks: {restated}"


# Each rule on a table's data (some counts, a square matrix, at least 2
# labels, no zero margin, a simulated n of at least K) is raised by one
# function in contingency.py; a DataError or UsageError elsewhere whose text
# carries one of these markers states a rule again.
_DATA_RULE_CHECKS = ("_check_counted", "_check_square", "_validated_counts", "require_positive_margins",
                     "_check_fillable")
_DATA_RULE_MARKERS = ("an empty table", "all-zero", "square", "2 labels", "distinct labels", "margin",
                      "n >= k", "at least k")


def test_each_data_rule_is_raised_in_one_place():
    # The texts each site raised before the shared checks, and two texts on
    # other rules that the markers must pass.
    earlier = ("cannot test an empty table", "cannot normalize an all-zero table",
               "cannot take margins of an all-zero table", "probabilities must form a square matrix",
               "table is 1x0, expected square", "a contingency table needs at least 2 labels",
               "real-positive margin is zero, class skew undefined",
               "n must be at least K to keep every margin positive, got n=")
    assert all(any(marker in text.lower() for marker in _DATA_RULE_MARKERS) for text in earlier)
    assert not any(marker in text for text in ("empty table file", "labels must be distinct")
                   for marker in _DATA_RULE_MARKERS)
    restated = []
    for path in sorted(Path(chancekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "contingency.py":
            checks = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name in _DATA_RULE_CHECKS]
            assert sorted(node.name for node in checks) == sorted(_DATA_RULE_CHECKS)
            tree.body = [node for node in tree.body if node not in checks]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) in ("DataError", "UsageError")):
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if any(marker in text.lower() for marker in _DATA_RULE_MARKERS):
                    restated.append(f"{path.name}:{node.lineno}")
    assert not restated, f"data rules raised outside the shared checks: {restated}"


def test_rule_markers_flag_a_restated_range_but_not_a_relation():
    # The range texts each caller raised before _check_within stated them
    # once, and SimConfig's relation between two arguments, which is no rule
    # on one argument.
    ranges = ("statistic must be finite and non-negative, got ", "chi-squared value must be "
              "non-negative, got ", "center must lie in [-1, 1], got ", "level must lie in [0, 1], got ")
    assert all(any(marker in text for marker in _RULE_MARKERS) for text in ranges)
    assert not any(marker in "need n >= k so margins can be positive, got n=" for marker in _RULE_MARKERS)


def test_input_guards_reach_every_line_of_the_shared_checks():
    def run():
        for call, error, _ in INPUT_GUARDS.values():
            with contextlib.suppress(error):
                call()

    for name in _RULE_CHECKS:
        assert unreached_lines(getattr(contingency, name), run) == [], name
