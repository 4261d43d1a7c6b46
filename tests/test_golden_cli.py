"""Byte-for-byte guard on the command line: each listed `main([...])` call
must print exactly the stdout stored under tests/data/golden, and each
`simulate` call must write exactly the stored runs.csv and summary.csv.

The inputs are the fixture tables in tests/data, passed by file name from
that directory, so the paths echoed in the reports do not depend on where
the repository lives.  A change meant to move an output rewrites the goldens
with

    PYTHONPATH=src python tests/test_golden_cli.py

and names the outputs that moved, and why.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chancekit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FORMATS = {"json": "json", "csv": "csv", "text": "txt"}
_2X2 = {"evaluate": [], "significance": ["--seed", "11"], "confidence": []}
TABLE_COMMANDS = {
    "table2a.csv": _2X2,
    "table2b.csv": _2X2,
    "table4x4.csv": {
        "evaluate": [],
        "significance": ["--family", "all", "--seed", "7", "--fisher-samples", "2000"],
        "confidence": [],
    },
    # A perfect table whose prevalence weights sum to one ulp above 1.
    "table7perfect.csv": {"evaluate": [], "confidence": []},
}
# Options that change an output, each pinned on a table where it takes
# effect: Yates fires only on a table with an expected cell below 5.
OPTION_CASES = {
    "compare": ["compare", "--table-a", "table2a.csv", "--table-b", "table2b.csv"],
    "compare_repair": ["compare", "--table-a", "table3zero.csv", "--table-b", "table4x4.csv",
                       "--repair-margins"],
    "compare_perfect": ["compare", "--table-a", "table7perfect.csv", "--table-b", "table4x4.csv"],
    "significance_table2small_yates_williams": ["significance", "--table", "table2small.csv",
                                                "--yates", "--williams"],
    # Independence-mode Williams and the sampled exact test at K > 2.
    "significance_table4x4_williams": ["significance", "--table", "table4x4.csv",
                                       "--family", "all", "--williams", "--seed", "7",
                                       "--fisher-samples", "2000"],
    **{
        f"significance_{Path(table).stem}_fisher_one": ["significance", "--table", table,
                                                        "--family", "fisher",
                                                        "--fisher-sided", "one"]
        for table in ("table2a.csv", "table2b.csv")
    },
    # A pair file with a header row and a blank line, in sorted and in
    # reversed label order.
    "evaluate_pairs3": ["evaluate", "--pairs", "pairs3.csv"],
    "evaluate_pairs3_labels": ["evaluate", "--pairs", "pairs3.csv", "--labels", "dog,cat,bird"],
    "confidence_table4x4_x": ["confidence", "--table", "table4x4.csv", "--x", "2.5758"],
    "confidence_table4x4_alpha_one_tailed": ["confidence", "--table", "table4x4.csv",
                                             "--alpha", "0.01", "--one-tailed"],
}
STDOUT_CASES = {
    **{
        f"{command}_{Path(table).stem}.{ext}": [command, "--table", table, *extra, "--format", fmt]
        for table, commands in TABLE_COMMANDS.items()
        for command, extra in commands.items()
        for fmt, ext in FORMATS.items()
    },
    **{
        f"{name}.{ext}": [*argv, "--format", fmt]
        for name, argv in OPTION_CASES.items()
        for fmt, ext in FORMATS.items()
    },
}
_GRID = ["--n", "32", "--steps", "3", "--runs", "2", "--seed", "42"]
SIMULATE_CASES = {
    "simulate_k2": ["--k", "2", *_GRID],
    "simulate_k3": ["--k", "3", *_GRID, "--fisher-samples", "1000"],
    # Unrounded uniform cells: the realized n varies around the target.
    "simulate_k3_uniform": ["--k", "3", *_GRID, "--fisher-samples", "1000",
                            "--no-enforce-integer", "--dist", "uniform",
                            "--margin-dist", "uniform"],
    # n = K: the constraint loop meets tables where no unit can leave alone.
    "simulate_k4_n4": ["--k", "4", "--n", "4", "--steps", "3", "--runs", "2",
                       "--seed", "391116", "--fisher-samples", "1000"],
}
SIMULATE_FILES = ("runs.csv", "summary.csv")


def _stdout(argv) -> bytes:
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue().encode()


def _simulate(name, out_dir: Path) -> dict[str, bytes]:
    _stdout(["simulate", *SIMULATE_CASES[name], "--out", str(out_dir)])
    return {f: (out_dir / f).read_bytes() for f in SIMULATE_FILES}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_cli_stdout_matches_golden(name, monkeypatch):
    monkeypatch.chdir(DATA)
    assert _stdout(STDOUT_CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_csvs_match_golden(name, tmp_path):
    written = _simulate(name, tmp_path)
    assert written == {f: (GOLDEN / name / f).read_bytes() for f in SIMULATE_FILES}


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(DATA)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in STDOUT_CASES.items():
        (GOLDEN / name).write_bytes(_stdout(argv))
    for name in SIMULATE_CASES:
        (GOLDEN / name).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as scratch:
            for f, content in _simulate(name, Path(scratch)).items():
                (GOLDEN / name / f).write_bytes(content)
