"""End-to-end command-line tests, over a subprocess boundary or through an
in-process call of `main`.

Exit code contract: 0 success, 1 usage, 2 data, 3 internal failure.
"""

import csv
import dataclasses
import io
import json
import math
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancekit import cli
from chancekit.cli import build_parser, main
from chancekit.contingency import _FAMILIES
from chancekit.montecarlo import SimConfig
from chancekit.significance import posthoc_calibration

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = Path(__file__).parent / "data"
TABLE_A = str(DATA / "table2a.csv")
TABLE_B = str(DATA / "table2b.csv")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "chancekit", *args],
        capture_output=True, text=True, timeout=120,
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "chancekit" in proc.stdout


def test_evaluate_text_percent_rendering():
    proc = run_cli("evaluate", "--table", TABLE_A)
    assert proc.returncode == 0
    for token in ("19.85%", "23.68%", "21.68%"):
        assert token in proc.stdout


def test_percent_flag_renders_bare_percents():
    text = run_cli("evaluate", "--table", TABLE_A, "--percent").stdout
    lines = {line.split()[0]: line.split()[1:] for line in text.splitlines() if line.strip()}
    assert lines["recall"] == ["82.35%"]
    assert "0.823529" not in text
    # fields in _NO_PERCENT stay plain 6-decimal numbers
    assert lines["mutual_information"] == ["0.022500"]
    proc = run_cli("confidence", "--table", TABLE_A, "--percent")
    assert proc.returncode == 0
    assert "informedness: 19.85%\n" in proc.stdout


def test_evaluate_json_values_and_text_agreement():
    doc = run_json("evaluate", "--table", TABLE_A)
    metrics = doc["metrics"]
    assert metrics["multiclass"]["informedness"] == pytest.approx(0.198529411764706, rel=1e-12)
    assert metrics["dichotomous"]["recall"] == pytest.approx(0.823529411764706, rel=1e-12)
    assert doc["input"]["n"] == 100
    # text numerics are the JSON values rounded for display, not recomputed
    text = run_cli("evaluate", "--table", TABLE_A).stdout
    assert f"{metrics['multiclass']['informedness']:.6f}" in text
    assert f"{metrics['dichotomous']['kappa']:.6f}" in text


def test_evaluate_json_round_trips_losslessly():
    doc = run_json("evaluate", "--table", TABLE_A)
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_evaluate_csv_format():
    proc = run_cli("evaluate", "--table", TABLE_A, "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["field", "value"]
    fields = {r[0]: r[1] for r in rows[1:]}
    assert float(fields["metrics.multiclass.informedness"]) == pytest.approx(0.1985294117647061)


def test_csv_format_quotes_line_breaks(tmp_path):
    header = tmp_path / "header.csv"
    header.write_text('"a\nb",c\n1,2\n3,4\n')
    plain = tmp_path / "plain.csv"
    plain.write_text("1,2\n3,4\n")
    for args, label in (([str(header)], "a\nb"), ([str(plain), "--labels", "a\rb,c"], "a\rb")):
        with redirect_stdout(io.StringIO()) as out:
            assert main(["evaluate", "--format", "csv", "--table", *args]) == 0
        fields = dict(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert fields["input.labels[0]"] == label


def test_evaluate_three_class_has_no_dichotomous_section(tmp_path):
    p = tmp_path / "t3.csv"
    p.write_text("5,1,2\n1,7,1\n2,2,9\n")
    doc = run_json("evaluate", "--table", str(p))
    assert "multiclass" in doc["metrics"]
    assert "dichotomous" not in doc["metrics"]
    assert doc["input"]["k"] == 3


def test_evaluate_pairs_input(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("a\ta\na\tb\nb\tb\nb\tb\n")
    doc = run_json("evaluate", "--pairs", str(p))
    assert doc["input"]["kind"] == "pairs"
    assert doc["input"]["n"] == 4


def test_evaluate_pairs_from_a_pipe(tmp_path):
    data = b"predicted,actual\na,b\nb,b\r\na,a\nb,b\na,b"
    path = tmp_path / "pairs.csv"
    path.write_bytes(data)
    from_file = run_json("evaluate", "--pairs", str(path))
    piped = subprocess.run(
        [sys.executable, "-m", "chancekit", "evaluate", "--pairs", "/dev/stdin", "--format", "json"],
        input=data, capture_output=True, timeout=120,
    )
    assert piped.returncode == 0, piped.stderr
    from_pipe = json.loads(piped.stdout)
    assert from_pipe["input"].pop("path") == "/dev/stdin"
    from_file["input"].pop("path")
    assert from_pipe == from_file
    assert from_file["input"]["n"] == 5


def test_table_with_numeric_labels(tmp_path):
    good = tmp_path / "digits.csv"
    good.write_text(",2,1\n1,3,4\n2,5,6\n")
    assert run_json("evaluate", "--table", str(good))["input"]["labels"] == ["1", "2"]
    mismatched = tmp_path / "mismatched.csv"
    mismatched.write_text(",1,3\n1,3,4\n2,5,6\n")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        assert main(["evaluate", "--table", str(mismatched)]) == 2
    assert "row and column labels name different sets" in err.getvalue()


def main_code(*args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(args))


def test_usage_errors_exit_1(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n3,4\n")
    # argparse refuses a missing or doubled source and a bad --labels, and
    # its message names the options.
    for args, named in ((["evaluate"], ("--table", "--pairs")),
                        (["evaluate", "--table", str(p), "--pairs", str(p)], ("--table", "--pairs")),
                        (["significance"], ("--table",)),
                        (["confidence"], ("--table",)),
                        (["evaluate", "--table", str(p), "--labels", "a,,b"], ("--labels",))):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            assert main(args) == 1
        assert all(option in err.getvalue() for option in named), (args, err.getvalue())
    assert main_code("evaluate", "--table", str(p), "--frobnicate") == 1
    assert main_code() == 1
    for x in ("nan", "inf"):
        assert main_code("confidence", "--table", str(p), "--x", x) == 1
    assert main_code("compare", "--table-a", str(p), "--table-b", str(p), "--x", "nan") == 1
    # --x sets the multiplier itself, so --one-tailed is refused as --alpha is
    # (test_confidence_alpha_and_x_are_exclusive).
    assert main_code("confidence", "--table", str(p), "--x", "2", "--one-tailed") == 1
    assert main_code("simulate", "--k", "2", "--n", "16", "--x", "nan",
                     "--out", str(tmp_path / "o")) == 1
    for alpha in ("7", "-1", "nan"):
        assert main_code("significance", "--table", str(p), "--alpha", alpha) == 1
    # The sampled exact test of a K > 2 table is two-sided only.
    assert main_code("significance", "--table", str(DATA / "table4x4.csv"), "--family", "fisher",
                     "--fisher-sided", "one", "--seed", "7", "--fisher-samples", "2000") == 1


def test_data_errors_exit_2(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main_code("evaluate", "--pairs", str(empty)) == 2
    assert main_code("evaluate", "--table", str(tmp_path / "missing.csv")) == 2
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("pears,apples\nnot,numbers\n")
    assert main_code("evaluate", "--table", str(garbage)) == 2
    for cell in ("3.5", "nan", "inf", "1e30"):
        bad_cell = tmp_path / f"cell-{cell}.csv"
        bad_cell.write_text(f"1,2\n3,{cell}\n")
        assert main_code("evaluate", "--table", str(bad_cell)) == 2
    undecodable = tmp_path / "utf16.csv"
    undecodable.write_bytes(b"\xff\xfe1\x002\x00\n\x00")
    for option in ("--table", "--pairs"):
        assert main_code("evaluate", option, str(undecodable)) == 2
    # A repeated label in the override names no table.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        assert main(["evaluate", "--pairs", str(DATA / "pairs3.csv"),
                     "--labels", "cat,cat,dog,bird"]) == 2
    assert "labels must be distinct" in err.getvalue()
    # A quoted cell over csv's 131,072-character limit: the pairs reader
    # meets it checking whether a quoted line is one record.
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"' + "x" * 200_000 + '",b\n')
    for option in ("--table", "--pairs"):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            assert main(["evaluate", option, str(quoted)]) == 2
        assert "malformed delimited text" in err.getvalue()


def test_int_cell_past_float_range_exits_2(tmp_path):
    # A 401-digit cell overflowed the float cast ahead of the 64-bit total
    # check, and the command exited 3 with "int too large to convert to float".
    for sign, text in (("", "counts total exceeds the 64-bit integer range"),
                       ("-", "counts must be non-negative")):
        p = tmp_path / f"huge{sign}.csv"
        p.write_text(f"{sign}{'9' * 401},1\n1,1\n")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            assert main(["evaluate", "--table", str(p)]) == 2
        assert err.getvalue() == f"data error: {text}\n"


def test_unexpected_failure_exit_3(monkeypatch):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_evaluate", broken)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        assert main(["evaluate", "--table", TABLE_A]) == 3
    assert err.getvalue().startswith("internal error:")


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="0123456789,;\t\n\r .-+eEnaifx\"", max_size=60),
    st.sampled_from([
        ["evaluate", "--table"],
        ["confidence", "--table"],
        ["significance", "--family", "kb", "--table"],
        ["evaluate", "--pairs"],
    ]),
    st.sampled_from([[], ["--repair-margins"]]),
)
def test_malformed_table_csv_never_internal_error(tmp_path_factory, text, command, repair):
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([*command, str(path), "--format", "json", *repair])
    assert code in (0, 1, 2), err.getvalue()


def test_import_loads_no_scipy():
    # Importing scipy.special alone costs about half of every CLI call.  The
    # package loads its modules on first use, so the probe loads them all.
    probe = ("import sys, chancekit.cli; from chancekit import *; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Each command, and modules it must not load since it runs none of them.
# hashlib comes in with the Monte Carlo streams (and numpy.random, which a
# K > 2 exact test samples with), statistics with the normal quantile of
# --alpha.
_NOT_LOADED = {
    "evaluate": (["evaluate", "--table", TABLE_A],
                 {"chancekit.significance", "chancekit.confidence", "chancekit.montecarlo",
                  "hashlib", "statistics"}),
    "confidence": (["confidence", "--table", TABLE_A],
                   {"chancekit.significance", "chancekit.montecarlo", "hashlib", "statistics"}),
    "compare": (["compare", "--table-a", TABLE_A, "--table-b", TABLE_B],
                {"chancekit.significance", "chancekit.montecarlo", "hashlib", "statistics"}),
    "significance": (["significance", "--table", TABLE_A, "--family", "all"],
                     {"chancekit.confidence", "chancekit.montecarlo", "chancekit.multiclass",
                      "hashlib", "statistics"}),
}


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_command_loads_only_the_modules_it_runs(command):
    args, not_loaded = _NOT_LOADED[command]
    # As `python -m chancekit` runs it, then the module names at exit.
    probe = (
        "import atexit, json, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules))))\n"
        "runpy.run_module('chancekit', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *args, "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr))
    assert "chancekit.contingency" in loaded
    assert not loaded & not_loaded


def test_commands_run_with_scipy_blocked(tmp_path):
    table4 = tmp_path / "t4.csv"
    table4.write_text("9,1,2,0\n1,8,1,2\n2,1,7,1\n0,2,1,9\n")
    commands = [
        ["evaluate", "--table", TABLE_A],
        ["significance", "--family", "all", "--table", TABLE_A],
        ["significance", "--family", "all", "--table", str(table4),
         "--seed", "1", "--fisher-samples", "1000"],
        ["confidence", "--table", TABLE_A, "--alpha", "0.01"],
        ["compare", "--table-a", TABLE_A, "--table-b", TABLE_B],
        # binomial_copula draws its cells through the binomial quantile
        ["simulate", "--k", "3", "--n", "30", "--steps", "2", "--runs", "1", "--seed", "1",
         "--dist", "binomial_copula", "--out", str(tmp_path / "sim")],
    ]
    probe = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import io, contextlib
from chancekit.cli import main
for args in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_zero_margin_exit_2_unless_repaired(tmp_path):
    p = tmp_path / "zm.csv"
    p.write_text("3,0\n5,0\n")
    failing = run_cli("evaluate", "--table", str(p))
    assert failing.returncode == 2
    assert "column" in failing.stderr
    repaired = run_cli("evaluate", "--table", str(p), "--repair-margins")
    assert repaired.returncode == 0


def test_significance_family_kb():
    doc = run_json("significance", "--table", TABLE_A, "--family", "kb")
    (report,) = doc["significance"]
    assert report["kind"] == "kb"
    assert report["value"] == pytest.approx(1.72, abs=0.005)
    assert report["significant"] is False


def test_significance_family_fisher_two_class():
    doc = run_json("significance", "--table", TABLE_A, "--family", "fisher")
    (report,) = doc["significance"]
    assert report["kind"] == "fisher_two"
    assert report["p_value"] < 0.05
    assert report["significant"] is True


def test_significance_family_full_independent_table(tmp_path):
    p = tmp_path / "indep.csv"
    p.write_text("8,2\n8,2\n")
    doc = run_json("significance", "--table", str(p), "--family", "full")
    chi2 = next(r for r in doc["significance"] if r["kind"] == "full_chi2")
    assert chi2["value"] == pytest.approx(0.0, abs=1e-12)
    assert chi2["p_value"] == pytest.approx(1.0, abs=1e-12)


# The kinds each --family value prints, on table2a.csv (2x2) and on
# table4x4.csv, in print order.
_FAMILY_ALL = ["kb", "km", "kbm", "xb", "xm", "xbm", "conv_b", "conv_m", "conv_bm",
               "full_chi2", "full_g2"]
_PRINTED_KINDS = {
    "all": (["chi2_plus_p", "chi2_plus_r", "g2_plus_p", "g2_plus_r", *_FAMILY_ALL, "fisher_two"],
            [*_FAMILY_ALL, "fisher_mc"]),
    "kb": (["kb"], ["kb"]),
    "km": (["km"], ["km"]),
    "kbm": (["kbm"], ["kbm"]),
    "x": (["xb", "xm", "xbm"], ["xb", "xm", "xbm"]),
    "conv": (["conv_b", "conv_m", "conv_bm"], ["conv_b", "conv_m", "conv_bm"]),
    "full": (["full_chi2", "full_g2"], ["full_chi2", "full_g2"]),
    "fisher": (["fisher_two"], ["fisher_mc"]),
}


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("table, extra", [("table2a.csv", []),
                                          ("table4x4.csv", ["--seed", "7", "--fisher-samples", "2000"])],
                         ids=["2x2", "4x4"])
def test_significance_family_prints_its_kinds(family, table, extra):
    doc = json.loads(main_output("significance", "--table", str(DATA / table), "--family", family,
                                 *extra, "--format", "json"))
    expected = _PRINTED_KINDS[family][table == "table4x4.csv"]
    assert [report["kind"] for report in doc["significance"]] == expected


def test_family_choices_are_the_library_families():
    # --family offers _FAMILIES itself, so the test above runs every family
    # once _PRINTED_KINDS names each one.
    assert set(_PRINTED_KINDS) == set(_FAMILIES)


def test_sampler_options_are_checked_whatever_the_table_and_family(tmp_path):
    table4 = str(DATA / "table4x4.csv")
    # significance and simulate refuse a budget below 1000 in the same words.
    for args in (("significance", "--table", TABLE_A, "--family", "fisher"),
                 ("simulate", "--k", "3", "--n", "30", "--out", str(tmp_path))):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            assert main([*args, "--fisher-samples", "5"]) == 1
        assert err.getvalue() == "usage error: need at least 1000 samples, got 5\n"
    assert main_code("significance", "--table", table4, "--family", "kb",
                     "--fisher-samples", "5", "--fisher-sided", "one") == 1
    # A one-sided test of a table larger than 2x2 is refused only where the
    # sampled exact test runs (test_usage_errors_exit_1).
    assert main_code("significance", "--table", table4, "--family", "kb",
                     "--fisher-sided", "one") == 0


def main_output(*args):
    with redirect_stdout(io.StringIO()) as out:
        assert main(list(args)) == 0
    return out.getvalue()


@pytest.mark.parametrize("path, p", [(TABLE_A, 0.043920131566229655), (TABLE_B, 0.06293)])
def test_significance_posthoc_from_fisher_p(path, p):
    doc = json.loads(main_output("significance", "--table", path, "--format", "json"))
    fisher = doc["significance"][-1]
    assert fisher["kind"] == "fisher_two"
    assert fisher["p_value"] == pytest.approx(p, rel=1e-4)
    assert doc["posthoc"] == dataclasses.asdict(posthoc_calibration(fisher["p_value"]))
    fields = dict(csv.reader(io.StringIO(main_output("significance", "--table", path,
                                                     "--format", "csv"))))
    assert float(fields["posthoc.alpha_post"]) == doc["posthoc"]["alpha_post"]
    text = main_output("significance", "--table", path)
    assert f"false-positive risk >= {doc['posthoc']['alpha_post']:.6f}" in text


def test_significance_posthoc_from_sampled_fisher_p(tmp_path):
    p = tmp_path / "t3.csv"
    p.write_text("9,1,1\n1,9,1\n1,1,9\n")
    doc = json.loads(main_output("significance", "--table", str(p), "--family", "fisher",
                                 "--fisher-samples", "1000", "--seed", "3", "--format", "json"))
    (fisher,) = doc["significance"]
    assert fisher["kind"] == "fisher_mc"
    # The sampler runs with no level, so the p calibrated estimates the exact
    # one: this diagonal, decided at 0.05 within 256 draws, draws all 1000.
    assert (fisher["draws"], fisher["level"]) == (1000, None)
    assert doc["posthoc"] == dataclasses.asdict(posthoc_calibration(fisher["p_value"]))


def test_significance_reports_sampler_draws_and_hits(tmp_path):
    # The even table is its margins' most probable, so every draw is a hit
    # and the sampler stops at its 100th; a strong diagonal never stops.
    even, diagonal = tmp_path / "even.csv", tmp_path / "diagonal.csv"
    even.write_text("3,3,3\n3,3,3\n3,3,3\n")
    diagonal.write_text("9,1,1\n1,9,1\n1,1,9\n")
    for path, draws, hits, text in ((even, 100, 100, "100 hits in 100 draws (se 0.009853)"),
                                    (diagonal, 1000, 0, "0 hits in 1,000 draws (se 0.000999)")):
        argv = ["significance", "--table", str(path), "--family", "fisher", "--seed", "3",
                "--fisher-samples", "1000"]
        (fisher,) = json.loads(main_output(*argv, "--format", "json"))["significance"]
        assert (fisher["draws"], fisher["hits"], fisher["level"]) == (draws, hits, None)
        q = (hits + 1) / (draws + 2)
        assert fisher["se"] == math.sqrt(q * (1 - q) / draws)
        fields = dict(csv.reader(io.StringIO(main_output(*argv, "--format", "csv"))))
        assert [fields[f"significance[0].{name}"] for name in ("draws", "hits", "se", "level")] == [
            str(draws), str(hits), repr(fisher["se"]), ""]
        assert f"\nfisher_mc: {text}\n" in main_output(*argv)
    # No other report carries them.
    doc = json.loads(main_output("significance", "--table", str(even), "--format", "json",
                                 "--family", "full"))
    assert all("draws" not in report for report in doc["significance"])


def test_significance_calibration_block_only_where_defined(tmp_path):
    # No Fisher report, or a Fisher p at or above 1/e: no block at all.
    doc = json.loads(main_output("significance", "--table", TABLE_A, "--family", "kb",
                                 "--format", "json"))
    assert "posthoc" not in doc
    p = tmp_path / "indep.csv"
    p.write_text("8,2\n8,2\n")
    for fmt in ("json", "csv", "text"):
        out = main_output("significance", "--table", str(p), "--format", fmt)
        assert "posthoc" not in out


def test_significance_at_exact_independence_exit_0(tmp_path):
    # The mutual information of an outer product sums to a rounding residue
    # that can fall below 0, and Cramer's V rejects a negative statistic.
    p = tmp_path / "outer.csv"
    rows = [[r * c for c in (11, 11, 18, 6, 16)] for r in (10, 12, 19, 14, 13)]
    p.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    for family in ("full", "all"):
        doc = json.loads(main_output("significance", "--table", str(p), "--family", family,
                                     "--fisher-samples", "1000", "--seed", "1",
                                     "--format", "json"))
        assert doc["association"]["cramers_v_g2"] == 0.0
    evaluate = json.loads(main_output("evaluate", "--table", str(p), "--format", "json"))
    assert evaluate["metrics"]["multiclass"]["mutual_information"] == 0.0


def test_perfect_table_confidence_and_compare_exit_0():
    # The weights of this diagonal table sum to one ulp above 1, which put
    # informedness above 1 and outside the interval centre's range.
    perfect = str(DATA / "table7perfect.csv")
    assert main_code("confidence", "--table", perfect) == 0
    assert main_code("compare", "--table-a", perfect, "--table-b", perfect) == 0
    doc = json.loads(main_output("evaluate", "--table", perfect, "--format", "json"))
    multiclass = doc["metrics"]["multiclass"]
    assert multiclass["informedness"] == multiclass["markedness"] == 1.0


def test_perfect_table_with_a_tiny_class_exit_0(tmp_path):
    # One class holds less than 1e-16 of n, so 1 - pe rounds to 0 in floats;
    # kappa, taken from the integer counts, is exactly 1 in both records.
    p = tmp_path / "tiny.csv"
    p.write_text("1,0\n0,15187769027951647\n")
    for command in ("evaluate", "significance", "confidence"):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            assert main([command, "--table", str(p), "--format", "json"]) == 0
        assert err.getvalue() == "", command
        if command == "evaluate":
            metrics = json.loads(out.getvalue())["metrics"]
            assert metrics["dichotomous"]["kappa"] == metrics["multiclass"]["kappa"] == 1.0


def test_readme_command_lines_parse():
    # Every documented `chancekit ...` call under "Command line" must name
    # commands and options the parser still accepts; nothing is run.
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line.split(" #", 1)[0] for line in section.splitlines()
             if line.startswith("chancekit ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.handler), line


def test_significance_seed_reproducibility(tmp_path):
    p = tmp_path / "t3.csv"
    p.write_text("5,1,2\n1,7,1\n2,2,9\n")
    doc1 = run_json("significance", "--table", str(p), "--family", "fisher",
                    "--fisher-samples", "2000", "--seed", "7")
    doc2 = run_json("significance", "--table", str(p), "--family", "fisher",
                    "--fisher-samples", "2000", "--seed", "7")
    assert doc1["seed"] == doc2["seed"] == 7
    assert doc1["significance"] == doc2["significance"]
    # without a seed the tool must generate one and report it
    doc3 = run_json("significance", "--table", str(p), "--family", "fisher",
                    "--fisher-samples", "2000")
    assert isinstance(doc3["seed"], int)


def test_significance_fisher_beyond_sampler_range_exit_2(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("1000000000,0,0\n0,1,0\n0,0,1\n")
    proc = run_cli("significance", "--table", str(p), "--family", "fisher", "--seed", "1")
    assert proc.returncode == 2, proc.stderr
    assert "10^9" in proc.stderr


def test_confidence_command():
    doc = run_json("confidence", "--table", TABLE_A)
    variants = {c["variant"]: c for c in doc["confidence"]}
    assert set(variants) == {"null", "empirical", "full"}
    assert variants["empirical"]["half_width"] == pytest.approx(0.128837, abs=1e-6)
    assert doc["outside_null_band"] is True


def test_confidence_alpha_and_x_are_exclusive():
    assert run_cli("confidence", "--table", TABLE_A, "--x", "2", "--alpha", "0.05",
                   "--format", "json").returncode == 1
    doc = run_json("confidence", "--table", TABLE_A, "--alpha", "0.05")
    assert doc["x"] == pytest.approx(1.959964, abs=1e-5)
    one = run_json("confidence", "--table", TABLE_A, "--alpha", "0.05", "--one-tailed")
    assert one["x"] == pytest.approx(1.644854, abs=1e-5)
    # --one-tailed alone takes alpha = 0.05.
    assert run_json("confidence", "--table", TABLE_A, "--one-tailed")["x"] == one["x"]
    assert one["x"] == 1.6448536269514715


@pytest.mark.parametrize("extra, smallest", [([], 1.1102230246251568e-16),
                                             (["--one-tailed"], 5.551115123125784e-17)])
def test_confidence_alpha_below_a_finite_multiplier(extra, smallest):
    # Below the smallest level 1 - alpha/2 (or 1 - alpha) rounds to 1, whose
    # normal quantile is infinite; the error names the option and the level.
    argv = ["confidence", "--table", TABLE_A, *extra]
    for alpha in (1e-300, math.nextafter(smallest, 0.0)):
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            assert main([*argv, "--alpha", repr(alpha)]) == 1
        assert "--alpha" in err.getvalue() and repr(smallest) in err.getvalue()
        assert "got inf" not in err.getvalue()
    assert main_code(*argv, "--alpha", repr(smallest)) == 0


def test_compare_command():
    doc = run_json("compare", "--table-a", TABLE_A, "--table-b", TABLE_B)
    assert doc["comparison"]["a_in_b"] is True
    assert doc["comparison"]["b_in_a"] is True
    assert doc["comparison"]["mutually_exclusive"] is False


def test_simulate_writes_grid(tmp_path):
    out = tmp_path / "grid"
    out.mkdir()
    proc = run_cli("simulate", "--k", "4", "--n", "128", "--steps", "11",
                   "--runs", "10", "--seed", "42", "--fisher-samples", "1000",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "runs.csv").read_text().splitlines()
    assert len(rows) == 1 + 110
    assert rows[0].split(",")[:4] == ["step", "run", "l", "n_realized"]
    assert "seed: 42" in proc.stdout
    assert "overall coverage" in proc.stdout


def test_simulate_small_n_flags_warning(tmp_path):
    out = tmp_path / "small"
    out.mkdir()
    proc = run_cli("simulate", "--k", "2", "--n", "8", "--steps", "3",
                   "--runs", "2", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0
    summary = (out / "summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    overall = summary[-1].split(",")
    assert overall[header.index("small_n_warning")] == "true"


def test_simulate_generates_seed_when_missing(tmp_path):
    out = tmp_path / "noseed"
    out.mkdir()
    proc = run_cli("simulate", "--k", "2", "--n", "16", "--steps", "2",
                   "--runs", "1", "--out", str(out))
    assert proc.returncode == 0
    assert "seed:" in proc.stdout


def test_simulate_unwritable_output_exit_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    proc = run_cli("simulate", "--k", "2", "--n", "16", "--steps", "2",
                   "--runs", "1", "--seed", "3", "--out", str(blocker / "sub"))
    assert proc.returncode == 2


def test_simulate_checks_output_before_running_grid(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")

    def no_grid(config):
        raise AssertionError("the grid ran before --out was created")

    monkeypatch.setattr("chancekit.montecarlo.run_grid", no_grid)
    assert main_code("simulate", "--k", "2", "--n", "16", "--steps", "2", "--runs", "1",
                     "--seed", "3", "--out", str(blocker / "sub")) == 2


def test_simulate_counts_failed_runs(tmp_path):
    text = main_output("simulate", "--k", "3", "--n", str(2 * 10**9), "--steps", "2",
                       "--runs", "2", "--seed", "1", "--fisher-samples", "1000",
                       "--out", str(tmp_path))
    assert "errors: 4\noverall coverage: nan\n" in text


def test_simulate_config_takes_the_library_defaults(tmp_path):
    argv = ["simulate", "--k", "3", "--n", "30", "--steps", "2", "--seed", "5",
            "--out", str(tmp_path), "--format", "json"]
    defaults = dataclasses.asdict(SimConfig(k=3, n=30, steps=2, runs_per_step=1, seed=5))
    del defaults["seed"]
    assert json.loads(main_output(*argv, "--runs", "1"))["config"] == defaults
    # Every option set, each to a value other than its default.
    given = {"runs_per_step": 2, "cell_distribution": "uniform", "margin_distribution": "uniform",
             "x": 2.5, "alpha": 0.1, "fisher_samples": 2000, "enforce_integer": False}
    config = json.loads(main_output(
        *argv, "--runs", "2", "--dist", "uniform", "--margin-dist", "uniform", "--x", "2.5",
        "--alpha", "0.1", "--fisher-samples", "2000", "--no-enforce-integer"))["config"]
    assert config == {**defaults, **given}
    assert all(defaults[name] != value for name, value in given.items())


def test_simulate_json_format(tmp_path):
    out = tmp_path / "js"
    out.mkdir()
    proc = run_cli("simulate", "--k", "2", "--n", "16", "--steps", "2",
                   "--runs", "2", "--seed", "5", "--out", str(out), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["seed"] == 5
    assert math.isfinite(doc["coverage"])
    assert doc["config"]["k"] == 2
    assert doc["runs_csv"].endswith("runs.csv")
