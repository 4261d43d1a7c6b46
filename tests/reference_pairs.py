"""Row-by-row pair parsing, kept as the reference for the tally-first parser.

This is the straightforward implementation: it materialises every stripped
row, checks each one's width in file order, and tallies the pairs one at a
time.  `parse_pairs` and `from_pairs` in chancekit must give the same labels,
counts and error messages on every input.
"""

import csv
import io

import numpy as np

from chancekit.contingency import (
    ContingencyTable,
    _PRED_HEADER_WORDS,
    _REAL_HEADER_WORDS,
    _sniff_delimiter,
)
from chancekit.errors import DataError


def read_rows(text):
    delim = _sniff_delimiter(text)
    rows = []
    for raw in csv.reader(io.StringIO(text), delimiter=delim):
        cells = [c.strip() for c in raw]
        if any(cells):
            rows.append(cells)
    return rows


def from_pairs(pairs, labels=None):
    pair_list = [(str(p), str(a)) for p, a in pairs]
    if not pair_list:
        raise DataError("no pairs to tally")
    seen = sorted({tok for pair in pair_list for tok in pair})
    if labels is None:
        ordered = seen
    else:
        ordered = [str(l) for l in labels]
        missing = [tok for tok in seen if tok not in set(ordered)]
        if missing:
            raise DataError(f"labels {missing} occur in the data but not in the label override")
    if len(ordered) < 2:
        raise DataError("need at least 2 distinct labels")
    index = {lbl: i for i, lbl in enumerate(ordered)}
    k = len(ordered)
    counts = np.zeros((k, k), dtype=np.int64)
    for predicted, actual in pair_list:
        counts[index[predicted], index[actual]] += 1
    return ContingencyTable(counts, tuple(ordered))


def parse_pairs(text, labels=None):
    rows = read_rows(text)
    if not rows:
        raise DataError("empty pairs file")
    start = 0
    first = rows[0]
    if (
        len(first) >= 2
        and first[0].lower() in _PRED_HEADER_WORDS
        and first[1].lower() in _REAL_HEADER_WORDS
    ):
        start = 1
    pairs = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != 2:
            raise DataError(f"expected 2 columns at pairs line {i}, got {len(row)}")
        pairs.append((row[0], row[1]))
    return from_pairs(pairs, labels)
