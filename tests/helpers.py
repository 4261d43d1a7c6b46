"""Shared table builders and a line census for the test suite."""

import sys
import types

import numpy as np

from chancekit import significance
from chancekit.contingency import ContingencyTable, from_counts

TABLE_A_COUNTS = ((56, 20), (12, 12))
TABLE_B_COUNTS = ((30, 12), (30, 28))


def table_a() -> ContingencyTable:
    return from_counts(TABLE_A_COUNTS)


def table_b() -> ContingencyTable:
    return from_counts(TABLE_B_COUNTS)


def random_valid_table(rng: np.random.Generator, k: int = 2, cell_max: int = 60) -> ContingencyTable:
    """Random k x k count table with every row and column margin positive."""
    while True:
        counts = rng.integers(0, cell_max, size=(k, k))
        t = from_counts(counts)
        if (t.row_totals > 0).all() and (t.col_totals > 0).all():
            return t


def random_valid_tables(seed: int, count: int, k: int = 2, cell_max: int = 60) -> list[ContingencyTable]:
    rng = np.random.default_rng(seed)
    return [random_valid_table(rng, k, cell_max) for _ in range(count)]


def record_chunks(monkeypatch) -> list[int]:
    """The list to which each later sampler chunk appends its draws, from
    whichever source _null_cells picks for it."""
    chunks = []
    cells = significance._null_cells
    monkeypatch.setattr(significance, "_null_cells",
                        lambda t, m, rng: chunks.append(m) or cells(t, m, rng))
    return chunks


def unreached_lines(func, run) -> list[int]:
    """Lines of `func` and of the functions defined in it that never ran
    while `run()` ran, from a sys.settrace line census."""
    codes, stack = set(), [func.__code__]
    while stack:
        code = stack.pop()
        codes.add(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    reached = set()

    def local(frame, event, arg):
        reached.add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code in codes:
            reached.add(frame.f_lineno)
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    lines = {line for code in codes for _, _, line in code.co_lines() if line is not None}
    return sorted(lines - reached)
