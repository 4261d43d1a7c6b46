"""Table construction, parsing, margins, transforms, and repair."""

import csv
import gc
import io
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancekit.contingency import (
    NormalizedTable,
    _fitting_counts,
    _fmt,
    _real_cells,
    _validated_counts,
    dichotomize,
    expectation_delta,
    from_counts,
    from_pairs,
    load_pairs,
    load_table_csv,
    margins,
    normalize,
    parse_pairs,
    parse_table_csv,
    repair_zero_margins,
    require_positive_margins,
    transform,
)
from chancekit.errors import DataError, UsageError
from helpers import random_valid_table, unreached_lines
import reference_pairs
import reference_stats

DATA = Path(__file__).parent / "data"


def test_from_counts_basic():
    t = from_counts([[3, 1], [2, 4]])
    assert t.k == 2
    assert t.n == 10
    assert t.labels == ("0", "1")
    assert t.counts.dtype == np.int64
    assert t.row_totals.tolist() == [4, 6]
    assert t.col_totals.tolist() == [5, 5]
    u = from_counts([[1, 2], [3, 4]])
    assert repr(u) == "ContingencyTable(labels=('0', '1'), counts=[[1, 2], [3, 4]])"
    assert (u == "x") is False
    assert u != 5


def test_totals_are_kept_read_only():
    t = from_counts([[3, 1], [2, 4]])
    for name in ("row_totals", "col_totals"):
        totals = getattr(t, name)
        assert getattr(t, name) is totals
        with pytest.raises(ValueError):
            totals[0] = 99


def test_from_counts_rejects_bad_shapes():
    with pytest.raises(DataError):
        from_counts([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DataError):
        from_counts([[1, -2], [3, 4]])
    with pytest.raises(DataError):
        from_counts([[5]])


def test_from_counts_rejects_int64_overflow():
    with pytest.raises(DataError, match="64-bit"):
        from_counts([[2**62] * 2] * 2)
    with pytest.raises(DataError, match="64-bit"):
        from_counts([[1e19, 0], [0, 0]])
    largest = 2**63 - 1
    assert from_counts([[largest - 2, 1], [1, 0]]).n == largest


def test_validated_counts_runs_every_line():
    # Each refusal, integer and float counts, int cells past the int64 range
    # either way, and a total near the int64 limit, both within it and past it.
    def run():
        for counts in ([[1, 2, 3], [4, 5, 6]], [[5]], [[1, np.inf], [0, 0]], [[1.5, 0], [0, 0]],
                       [[1, -2], [3, 4]], [[2**62] * 2] * 2,
                       np.array([[1, "2"], [3, 4]], dtype=object),
                       np.array([[10**400, 1], [1, 1]], dtype=object),
                       np.array([[-10**400, 1.5], [1, 1]], dtype=object)):
            with pytest.raises(DataError):
                _validated_counts(counts)
        for counts in ([[3, 1], [2, 4]], [[3.0, 1.0], [2.0, 4.0]], [[2**63 - 3, 1], [1, 0]],
                       np.array([[3, 1.0], [2**40, 0]], dtype=object),
                       np.array([[2**53 + 1, 1.0], [1, 1]], dtype=object),
                       np.array([[3, 1.0], [2**63 - 5, 0]], dtype=object)):
            _validated_counts(counts)

    assert unreached_lines(_validated_counts, run) == []
    assert unreached_lines(_fitting_counts, run) == []
    assert unreached_lines(_real_cells, run) == []


def test_fmt_writes_numpy_scalars_as_python_values():
    # np.float64 subclasses float, and its repr names the type; np.bool_
    # subclasses neither bool nor int.
    assert _fmt(np.float64(0.5)) == _fmt(0.5) == "0.5"
    assert _fmt(np.float32(0.25)) == "0.25"
    assert _fmt(np.float64("nan")) == "nan"
    assert [_fmt(np.bool_(True)), _fmt(np.bool_(False))] == [_fmt(True), _fmt(False)] == ["true", "false"]
    assert [_fmt(None), _fmt(3), _fmt(np.int64(3)), _fmt("x")] == ["", "3", "3", "x"]


def test_validated_counts_keeps_object_int_cells_exact():
    # Int cells of an object matrix are checked as Python integers, not
    # through a float cast: 2^53 + 1 is kept, not rounded to 2^53, and a
    # total of 2^63 - 1 fits, however large its cells.
    t = from_counts(np.array([[2**53 + 1, 1.0], [1, 1]], dtype=object))
    assert t.counts[0, 0] == 2**53 + 1
    assert t.n == 2**53 + 4
    t = from_counts(np.array([[3, 1.0], [2**63 - 5, 0]], dtype=object))
    assert t.counts.tolist() == [[3, 1], [2**63 - 5, 0]]
    assert t.n == 2**63 - 1
    with pytest.raises(DataError, match="64-bit"):
        from_counts(np.array([[3, 2.0], [2**63 - 5, 0]], dtype=object))
    with pytest.raises(DataError, match="whole numbers"):
        from_counts(np.array([[2**53 + 1, 1.5], [1, 1]], dtype=object))


def test_counts_are_immutable():
    t = from_counts([[3, 1], [2, 4]])
    with pytest.raises(ValueError):
        t.counts[0, 0] = 99


def test_from_pairs_orientation_rows_predicted():
    # one (predicted=x, actual=y) pair must land at row x, column y
    t = from_pairs([("x", "y")], labels=("x", "y"))
    assert t.counts.tolist() == [[0, 1], [0, 0]]


def test_from_pairs_counts_and_sorted_labels():
    t = from_pairs([("b", "a"), ("a", "a"), ("b", "b"), ("a", "b"), ("a", "a")])
    assert t.labels == ("a", "b")
    assert t.counts.tolist() == [[2, 1], [1, 1]]
    assert t.n == 5


def test_from_pairs_label_override_order():
    t = from_pairs([("b", "a"), ("a", "a")], labels=("b", "a"))
    assert t.labels == ("b", "a")
    # row order follows the override: row 0 is "b", column 1 is "a"
    assert t.counts.tolist() == [[0, 1], [0, 1]]


def test_from_pairs_unknown_label_with_override():
    with pytest.raises(DataError):
        from_pairs([("a", "c")], labels=("a", "b"))


def test_parse_table_csv_plain_body():
    t = parse_table_csv("56,20\n12,12\n")
    assert t.labels == ("0", "1")
    assert t.counts.tolist() == [[56, 20], [12, 12]]


def test_parse_table_csv_header_row():
    t = parse_table_csv("cat,dog\n3,1\n2,4\n")
    assert t.labels == ("cat", "dog")
    assert t.counts.tolist() == [[3, 1], [2, 4]]


def test_parse_table_csv_header_and_label_column():
    t = parse_table_csv(",cat,dog\ncat,3,1\ndog,2,4\n")
    assert t.labels == ("cat", "dog")
    assert t.counts.tolist() == [[3, 1], [2, 4]]


def test_parse_table_csv_garbage_is_data_error():
    with pytest.raises(DataError):
        parse_table_csv("not,a\ntable,at all\n")
    with pytest.raises(DataError):
        parse_table_csv("")
    with pytest.raises(DataError, match="square"):
        parse_table_csv("x,a\nb\n")  # label column and no counts


def test_parse_table_csv_reorders_columns_to_the_row_labels():
    t = parse_table_csv(",dog,cat\ncat,3,1\ndog,2,4\n")
    assert t.labels == ("cat", "dog")
    assert t.counts.tolist() == [[1, 3], [4, 2]]


def test_parse_table_csv_label_override():
    t = parse_table_csv(",cat,dog\ncat,3,1\ndog,2,4\n", labels=["dog", "cat"])
    assert t.labels == ("dog", "cat")
    assert t.counts.tolist() == [[4, 2], [1, 3]]
    # without labels in the file the override only names the rows
    t = parse_table_csv("3,1\n2,4\n", labels=["dog", "cat"])
    assert t.labels == ("dog", "cat")
    assert t.counts.tolist() == [[3, 1], [2, 4]]
    with pytest.raises(DataError, match="label override does not match"):
        parse_table_csv("a,b\n3,1\n2,4\n", labels=["a", "b", "c"])


def test_parse_table_csv_numeric_labels():
    # under a header, body rows one cell wider than their number carry labels
    t = parse_table_csv(",1,2\n1,3,4\n2,5,6\n")
    assert t.labels == ("1", "2")
    assert t.counts.tolist() == [[3, 4], [5, 6]]
    t = parse_table_csv(",2,1\n1,3,4\n2,5,6\n")
    assert t.labels == ("1", "2")
    assert t.counts.tolist() == [[4, 3], [6, 5]]
    with pytest.raises(DataError, match="different sets"):
        parse_table_csv(",1,3\n1,3,4\n2,5,6\n")


def test_parse_csv_reader_failure_is_data_error():
    # a cell over csv's field limit (131,072 characters) makes the csv module raise
    too_long = "x" * 200_000 + ",b\n"
    with pytest.raises(DataError, match="malformed"):
        parse_pairs(too_long)
    with pytest.raises(DataError, match="malformed"):
        parse_table_csv(too_long)


def test_parse_pairs_tab_separated_keeps_zero_margins():
    t = parse_pairs("x\ty\nx\tx\n")
    assert t.labels == ("x", "y")
    assert t.counts.tolist() == [[1, 1], [0, 0]]


def test_load_roundtrip(tmp_path):
    table_path = tmp_path / "t.csv"
    table_path.write_text("5,1\n2,7\n")
    t = load_table_csv(table_path)
    assert t.counts.tolist() == [[5, 1], [2, 7]]
    pairs_path = tmp_path / "p.tsv"
    pairs_path.write_text("a\tb\nb\tb\na\ta\n")
    p = load_pairs(pairs_path)
    assert p.n == 3


def test_load_keeps_quoted_carriage_return(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'"a\rb",c\r\n1,2\r\n3,4\r\n')
    assert load_table_csv(path).labels == ("a\rb", "c")
    path.write_bytes(b'pred,gold\n"a\rb",c\nc,c\n')
    assert load_pairs(path).labels == ("a\rb", "c")


@pytest.mark.parametrize("body, parse, load, labels, counts", [
    # headerless: a kept mark made the first row a header
    (b"56,20\n12,12\n", parse_table_csv, load_table_csv, ("0", "1"), [[56, 20], [12, 12]]),
    # header row, no label column: a kept mark stayed in the first label
    (b"cat,dog\n3,1\n2,4\n", parse_table_csv, load_table_csv, ("cat", "dog"), [[3, 1], [2, 4]]),
    # pairs: a kept mark defeated the header check
    (b"predicted,actual\na,b\nb,b\na,a\n", parse_pairs, load_pairs, ("a", "b"), [[1, 1], [0, 1]]),
])
def test_leading_byte_order_mark_is_ignored(tmp_path, body, parse, load, labels, counts):
    data = b"\xef\xbb\xbf" + body  # as a spreadsheet's "CSV UTF-8" export starts
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    for t in (parse(data.decode("utf-8")), load(path)):
        assert t.labels == labels
        assert t.counts.tolist() == counts


def test_load_line_endings_give_equal_tables(tmp_path):
    table = (DATA / "table2a.csv").read_bytes()
    pairs = b"predicted,actual\na,b\nb,b\n\na,a\n"
    for data, load in ((table, load_table_csv), (pairs, load_pairs)):
        loaded = []
        for newline in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "t.csv"
            path.write_bytes(data.replace(b"\n", newline))
            loaded.append(load(path))
        assert loaded[0] == loaded[1] == loaded[2]


def test_load_keeps_decode_error_offset_absolute(tmp_path):
    # past the first 8192 bytes a streaming decoder counts from its chunk;
    # a pipe, read whole, reports the same offset
    data = bytearray(b"predicted,actual\n" + b"a,b\nb,a\n" * 2000)
    data[12019] = 0xFF
    path = tmp_path / "bad.csv"
    path.write_bytes(bytes(data))
    for load in (load_pairs, load_table_csv):
        with pytest.raises(DataError, match="invalid start byte at byte 12019") as from_file:
            load(path)
        with pytest.raises(DataError) as from_pipe:
            _through_pipe(bytes(data), load)
        assert (str(from_pipe.value).partition(" is not valid ")[2]
                == str(from_file.value).partition(" is not valid ")[2])


def test_loads_leave_no_unclosed_file():
    # The reader's text wrapper is detached, so each file is closed by the
    # loader that opened it, not left to the garbage collector.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_table_csv(DATA / "table2a.csv")
        load_pairs(DATA / "pairs3.csv")
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_pairs_quoted_cell_spanning_lines(tmp_path):
    text = 'predicted,actual\n"a\nb",c\nc,c\n"a\nb",c\r\nc,"a\nb"\n'
    path = tmp_path / "q.csv"
    path.write_bytes(text.encode())
    for t in (parse_pairs(text), load_pairs(path)):
        assert t.labels == ("a\nb", "c")
        assert t.counts.tolist() == [[0, 2], [1, 1]]


def test_pairs_line_endings_add_up_to_one_pair(tmp_path):
    text = "a,b\na,b\r\na,b"
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    for t in (parse_pairs(text), load_pairs(path)):
        assert t.labels == ("a", "b")
        assert t.counts.tolist() == [[0, 3], [0, 0]]


_PAIRS_WIDTH_CASES = [
    (b"", None),
    (b"l1,l2,l3\n", "expected 2 columns at pairs line 200002, got 3"),
]


def _pairs_text_200k(tail: bytes) -> bytes:
    """A header and 200,000 pair rows over 10 labels, about 1.2 MB."""
    labels = np.array([f"l{i}" for i in range(10)])
    codes = np.random.default_rng(3).integers(0, 10, size=(200_000, 2))
    rows = np.char.add(np.char.add(labels[codes[:, 0]], ","), labels[codes[:, 1]])
    return b"predicted,actual\n" + "\n".join(rows.tolist()).encode() + b"\n" + tail


def _traced_peak(parse, source, error) -> int:
    tracemalloc.start()
    try:
        if error is None:
            assert parse(source).n == 200_000
        else:
            with pytest.raises(DataError, match=error):
                parse(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("tail, error", _PAIRS_WIDTH_CASES)
def test_load_pairs_memory_stays_below_the_file_size(tmp_path, tail, error):
    path = tmp_path / "pairs.csv"
    path.write_bytes(_pairs_text_200k(tail))
    size = path.stat().st_size
    peak = _traced_peak(load_pairs, path, error)
    assert peak < size / 4, (peak, size)


def _through_pipe(data: bytes, call):
    """call(path) with path a /dev/fd name for the read end of a pipe that a
    thread fills with data, so the stream cannot seek."""
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return call(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.parametrize("tail, error", _PAIRS_WIDTH_CASES)
def test_load_pairs_from_a_pipe_holds_its_bytes_once(tail, error):
    # Read as bytes and decoded through a handle on them, not decoded into
    # one str and encoded back (2.0 times the stream).
    data = _pairs_text_200k(tail)
    peak = _through_pipe(data, lambda path: _traced_peak(load_pairs, path, error))
    assert peak < 1.5 * len(data), (peak, len(data))


@pytest.mark.parametrize("tail, error", _PAIRS_WIDTH_CASES)
def test_parse_pairs_memory_stays_below_twice_the_text(tail, error):
    # Held as UTF-8 bytes, not as io.StringIO's four bytes a character.
    text = _pairs_text_200k(tail).decode()
    peak = _traced_peak(parse_pairs, text, error)
    assert peak < 2 * len(text), (peak, len(text))


_TOO_LONG = "x" * 200_000 + ",b\n"  # over csv's field limit of 131,072 characters
_MALFORMED = "malformed delimited text: field larger than field limit (131072)"

_SOURCE_CASES = [
    (parse_pairs, load_pairs, "predicted,actual\na,b\nb,b\na,a\n", (("a", "b"), [[1, 1], [0, 1]])),
    (parse_pairs, load_pairs, '"predicted","actual"\na,b\nb,a\n', (("a", "b"), [[0, 1], [1, 0]])),
    (parse_pairs, load_pairs, 'predicted,actual\n"a\nb",c\nc,c\n', (("a\nb", "c"), [[0, 1], [0, 1]])),
    (parse_pairs, load_pairs, "predicted,actual\ra,b\rb,b\r", (("a", "b"), [[0, 1], [0, 1]])),
    (parse_pairs, load_pairs, "\ufeffpredicted,actual\na,b\nb,b\n", (("a", "b"), [[0, 1], [0, 1]])),
    (parse_pairs, load_pairs, "predicted,actual\na,b\n\nb,a,c\na,a\n",
     "expected 2 columns at pairs line 3, got 3"),
    (parse_pairs, load_pairs, _TOO_LONG, _MALFORMED),
    (parse_pairs, load_pairs, "", "empty input"),
    (parse_table_csv, load_table_csv, "56,20\n12,12\n", (("0", "1"), [[56, 20], [12, 12]])),
    (parse_table_csv, load_table_csv, '"cat","dog"\n3,1\n2,4\n', (("cat", "dog"), [[3, 1], [2, 4]])),
    (parse_table_csv, load_table_csv, ',"a\nb",c\n"a\nb",1,2\nc,3,4\n', (("a\nb", "c"), [[1, 2], [3, 4]])),
    (parse_table_csv, load_table_csv, "cat,dog\r3,1\r2,4\r", (("cat", "dog"), [[3, 1], [2, 4]])),
    (parse_table_csv, load_table_csv, "\ufeff56,20\n12,12\n", (("0", "1"), [[56, 20], [12, 12]])),
    (parse_table_csv, load_table_csv, "1,2\n3,4\n\n5\n", "ragged table row at data line 3"),
    (parse_table_csv, load_table_csv, _TOO_LONG, _MALFORMED),
    (parse_table_csv, load_table_csv, "", "empty input"),
]


@pytest.mark.parametrize("parse, load, text, expected", _SOURCE_CASES)
def test_text_file_and_pipe_read_alike(tmp_path, parse, load, text, expected):
    data = text.encode("utf-8")
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    from_text = _outcome(parse, text)
    assert _outcome(load, path) == from_text
    assert _through_pipe(data, lambda name: _outcome(load, name)) == from_text
    if isinstance(expected, str):
        assert from_text == ("error", expected)
    else:
        assert (from_text[1], from_text[3]) == expected


def test_margins():
    m = margins(from_counts([[3, 1], [2, 4]]))
    assert m.prevalence.tolist() == [0.5, 0.5]
    assert m.bias.tolist() == [0.4, 0.6]
    assert m.labels == ("0", "1")


def test_normalize_sums_to_one():
    nt = normalize(from_counts([[3, 1], [2, 4]]))
    assert nt.k == 2
    assert nt.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert nt.probs[0, 0] == pytest.approx(0.3, abs=1e-15)


def test_normalize_empty_table_is_data_error():
    with pytest.raises(DataError):
        normalize(from_counts([[0, 0], [0, 0]]))


def test_normalized_table_rejects_non_finite_probabilities():
    # nan fails every comparison, so it slipped past the range and sum checks
    for probs in (np.full((2, 2), np.nan), [[np.nan, 0.5], [0.25, 0.25]]):
        with pytest.raises(DataError, match="finite"):
            NormalizedTable(probs, ("a", "b"))


def test_expectation_delta_two_by_two():
    e, delta, det = expectation_delta(normalize(from_counts([[56, 20], [12, 12]])))
    # expected cell = bias * prevalence; delta margins vanish; det = dtp
    assert e[0, 0] == pytest.approx(0.76 * 0.68, abs=1e-12)
    assert delta.sum(axis=0) == pytest.approx(np.zeros(2), abs=1e-12)
    assert delta.sum(axis=1) == pytest.approx(np.zeros(2), abs=1e-12)
    assert det == pytest.approx(delta[0, 0], abs=1e-12)
    assert det == pytest.approx(0.0432, abs=1e-10)


def test_dichotomize_one_vs_rest():
    t = from_counts([[5, 1, 2], [0, 7, 1], [2, 2, 9]], labels=("x", "y", "z"))
    d = dichotomize(t, 1)
    assert d.labels == ("y", "rest")
    assert d.counts.tolist() == [[7, 1], [3, 18]]
    assert d.n == t.n
    named_rest = from_counts([[5, 1], [2, 4]], labels=("rest", "other"))
    assert dichotomize(named_rest, 0).labels == ("rest", "_rest")


def test_dichotomize_bad_index():
    with pytest.raises(UsageError):
        dichotomize(from_counts([[1, 2], [3, 4]]), 5)


def test_transform_kinds_two_by_two():
    t = from_counts([[56, 20], [12, 12]])
    assert transform(t, "inverse").counts.tolist() == [[12, 12], [20, 56]]
    assert transform(t, "dual").counts.tolist() == [[56, 12], [20, 12]]
    assert transform(t, "perverse_rows").counts.tolist() == [[12, 12], [56, 20]]
    assert transform(t, "perverse_cols").counts.tolist() == [[20, 56], [12, 12]]


def test_transform_inverse_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = random_valid_table(rng, k=3)
        back = transform(transform(t, "inverse"), "inverse")
        assert back.counts.tolist() == t.counts.tolist()


def test_transform_custom_permutation():
    t = from_counts([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    rotated = transform(t, "perverse_rows", permutation=(1, 2, 0))
    assert rotated.counts.tolist() == [[4, 5, 6], [7, 8, 9], [1, 2, 3]]
    with pytest.raises(UsageError):
        transform(t, "perverse_rows", permutation=(0, 0, 1))
    with pytest.raises(UsageError):
        transform(t, "nonsense")


def test_require_positive_margins_names_the_margin():
    with pytest.raises(DataError, match="column"):
        require_positive_margins(from_counts([[3, 0], [1, 0]]))
    with pytest.raises(DataError, match="row"):
        require_positive_margins(from_counts([[0, 0], [1, 2]]))
    require_positive_margins(from_counts([[1, 1], [1, 1]]))
    # Columns are checked before rows, and each axis names its lowest zero.
    labels = ("a", "b", "c")
    with pytest.raises(DataError, match="column\\) for label 'c'"):
        require_positive_margins(from_counts([[0, 0, 0], [1, 2, 0], [3, 4, 0]], labels))
    with pytest.raises(DataError, match="column\\) for label 'a'"):
        require_positive_margins(from_counts([[0, 1, 0], [0, 2, 0], [0, 3, 0]], labels))


def test_repair_zero_margins_paired_diagonal():
    t = from_counts([[0, 0, 0], [1, 3, 0], [2, 1, 0]])
    fixed = repair_zero_margins(t)
    assert fixed.counts[0, 0] == 1
    assert (fixed.row_totals > 0).all()
    assert (fixed.col_totals > 0).all()


def test_repair_zero_margins_unpaired():
    t = from_counts([[0, 0], [3, 2]])
    fixed = repair_zero_margins(t)
    assert (fixed.row_totals > 0).all()
    assert (fixed.col_totals > 0).all()


def test_repair_noop_returns_same_object():
    t = from_counts([[1, 1], [1, 1]])
    assert repair_zero_margins(t) is t


@st.composite
def sparse_tables(draw):
    """K x K counts, mostly zero, with some whole rows and columns zeroed."""
    k = draw(st.integers(2, 8))
    cells = draw(st.lists(st.sampled_from((0, 0, 0, 0, 1, 2, 5)), min_size=k * k, max_size=k * k))
    counts = np.array(cells, dtype=np.int64).reshape(k, k)
    counts[draw(st.lists(st.integers(0, k - 1), max_size=k)), :] = 0
    counts[:, draw(st.lists(st.integers(0, k - 1), max_size=k))] = 0
    return counts


@settings(max_examples=400, deadline=None)
@given(sparse_tables())
def test_repair_zero_margins_matches_unit_by_unit_reference(counts):
    t = from_counts(counts)
    fixed = repair_zero_margins(t)
    np.testing.assert_array_equal(fixed.counts, reference_stats.repair_zero_margins(counts))
    assert (fixed.row_totals > 0).all() and (fixed.col_totals > 0).all()
    assert fixed.labels == t.labels


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1, max_size=60))
def test_from_pairs_totals_match(pairs):
    t = from_pairs(pairs, labels=("a", "b", "c"))
    assert t.n == len(pairs)
    for i, pred in enumerate(t.labels):
        assert t.row_totals[i] == sum(1 for p, _ in pairs if p == pred)
    for j, real in enumerate(t.labels):
        assert t.col_totals[j] == sum(1 for _, r in pairs if r == real)


# --- tally-first pair parsing against the row-by-row reference -------------

_PAIR_CELLS = st.sampled_from([
    "a", "b", "c", " a", "b ", " c ", "", "  ", "x,y", "x\ty", 'q"q',
    "predicted", "Pred", "actual", "GOLD", " label ",
])
_PAIR_ROWS = st.lists(_PAIR_CELLS, min_size=2, max_size=2)
_ODD_ROWS = st.one_of(
    st.sampled_from([[], ["  "], ["", " "]]),  # blank or whitespace-only
    st.lists(_PAIR_CELLS, max_size=4),  # may be ragged
)
_PAIR_HEADERS = st.sampled_from([
    None, ["predicted", "actual"], ["Pred", " gold "], ["system", "label", "extra"],
    ["output"], ["actual", "predicted"],
])


@st.composite
def _pair_texts(draw):
    """Pair-file text plus an optional label override."""
    delim = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    rows = draw(st.lists(_PAIR_ROWS, max_size=12))
    for odd in draw(st.lists(_ODD_ROWS, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), odd)
    header = draw(_PAIR_HEADERS)
    if header is not None:
        rows.insert(draw(st.integers(0, min(2, len(rows)))), header)
    buf = io.StringIO()
    csv.writer(buf, delimiter=delim, lineterminator=newline, quoting=quoting).writerows(rows)
    labels = draw(st.none() | st.lists(st.sampled_from(["a", "b", "c", "d", "x,y", "predicted"]), max_size=5))
    return buf.getvalue(), labels


def _outcome(parse, *args):
    try:
        t = parse(*args)
    except DataError as exc:
        return ("error", str(exc))
    return ("table", t.labels, t.counts.dtype, t.counts.tolist())


@settings(max_examples=300, deadline=None)
@given(_pair_texts())
# a header repeated later as a data row
@example(("predicted,actual\na,b\npredicted,actual\n", None))
# a header, then a data row with the same stripped cells but other blanks
@example(("predicted,actual\n predicted ,actual \na,b\n", None))
# a header and nothing else: no pairs to tally
@example(("predicted,actual\n", None))
# a 3-cell header over 2-cell rows
@example(("system,label,extra\na,b\nb,a\n", None))
# a 3-cell header repeated later as a data row
@example(("system,label,extra\na,b\nsystem,label,extra\n", None))
# a row of blank cells between data rows
@example(("a,b\n,\nb,a\n", None))
# a quoted header, each line still one record
@example(('"predicted","actual"\na,b\nb,a\n', None))
# a quoted header, then a row too wide, found line by line
@example(('"predicted","actual"\na,b\na,b,c\n', None))
# a quoted cell spanning lines after a quoted header (the repeated rows
# would be miscounted if each line were taken as one record)
@example(('"predicted","actual"\na,"b\nc"\nb,a\nb,a\n', None))
# a quoted label holding a \r, which ends a line by itself
@example(('"a\rb",x\nx,"a\rb"\nx,"a\rb"\n', None))
# a quote inside a cell is data, but the next cell's quote opens and
# continues on the next line
@example(('a"b,"c\nd"\nb,a\nb,a\n', None))
def test_parse_pairs_matches_row_by_row_reference(case):
    text, labels = case
    assert _outcome(parse_pairs, text, labels) == _outcome(reference_pairs.parse_pairs, text, labels)


@settings(max_examples=50, deadline=None)
@given(_pair_texts())
def test_load_pairs_matches_row_by_row_reference(tmp_path_factory, case):
    text, labels = case
    path = tmp_path_factory.mktemp("pairs") / "p.csv"
    path.write_text(text)
    expected = _outcome(reference_pairs.parse_pairs, path.read_text(), labels)
    assert _outcome(load_pairs, path, labels) == expected


_ODD_COUNTS = st.sampled_from([" 7 ", "2.0", "1e1", "1.5", "-1", "x", ""])
_TABLE_LABELS = st.sampled_from(["a", "b", " c", "x,y", "x\ty", 'q"q', "a\rb", "a\r\nb", "a\nb"])


@st.composite
def _line_ending_texts(draw):
    """Pair or table text with LF, CRLF or CR line endings, maybe after a BOM."""
    if draw(st.booleans()):
        parse, load = parse_pairs, load_pairs
        rows = draw(st.lists(_PAIR_ROWS, max_size=10))
        for odd in draw(st.lists(_ODD_ROWS, max_size=1)):
            rows.insert(draw(st.integers(0, len(rows))), odd)
        header = draw(_PAIR_HEADERS)
        if header is not None:
            rows.insert(0, header)
    else:
        parse, load = parse_table_csv, load_table_csv
        k = draw(st.integers(2, 3))
        names = draw(st.lists(_TABLE_LABELS, min_size=k, max_size=k, unique=True))
        rows = [[str(draw(st.integers(0, 20))) for _ in range(k)] for _ in range(k)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(_ODD_COUNTS)
        if draw(st.booleans()):
            rows = [[name, *row] for name, row in zip(names, rows)]
            rows.insert(0, ["", *draw(st.permutations(names))])
        elif draw(st.booleans()):
            rows.insert(0, names)
    buf = io.StringIO()
    csv.writer(
        buf,
        delimiter=draw(st.sampled_from([",", "\t"])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    ).writerows(rows)
    text = draw(st.sampled_from(["", "\ufeff"])) + buf.getvalue()
    override = st.lists(_TABLE_LABELS | st.sampled_from(["a", "b", "c"]), max_size=3)
    labels = draw(st.none() | override)
    return parse, load, text, labels


@settings(max_examples=200, deadline=None)
@given(_line_ending_texts())
# the raw CRLF sample sniffs as tab, the translated one as comma
@example((parse_pairs, load_pairs, ' a,x\ty\r\nactual,1\r\n,"x,y"\r\n', None))
def test_parse_matches_load_for_every_line_ending(tmp_path_factory, case):
    parse, load, text, labels = case
    path = tmp_path_factory.mktemp("text") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    assert _outcome(parse, text, labels) == _outcome(load, path, labels)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", 1, "1", 2.0, None]),
                       st.sampled_from(["a", "b", 1, "1", 2.0, None])), max_size=30),
    st.none() | st.lists(st.sampled_from(["a", "b", "1", "2.0", "None", "z"]), max_size=6),
)
def test_from_pairs_matches_row_by_row_reference(pairs, labels):
    assert _outcome(from_pairs, pairs, labels) == _outcome(reference_pairs.from_pairs, pairs, labels)
