"""The public namespace, and the README examples run as written."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import chancekit

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
    assert len(chancekit.__all__) == len(set(chancekit.__all__))
    assert set(chancekit.__all__) == {"__version__", *seen}
    assert set(EARLIER_EXPORTS) <= set(chancekit.__all__)
    assert {"MARGIN_DISTRIBUTIONS", "CELL_DISTRIBUTIONS"} <= set(chancekit.__all__)


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
