"""Seeded inputs for the workloads.

Everything here is a pure function of the workload seed.  Pair files are
written once per seed under `perfbench/.cache/` (outside the package source)
and reused; count tables are cheap and are drawn in memory, outside the timed
region.  chancekit only ever sees the generated files and count matrices.
"""

from __future__ import annotations

import math
import os
import shutil
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"
_CACHE_VERSION = "v1"
_KEEP_SEEDS = 3

INGEST_ROWS = 1_000_000
# name -> (labels, delimiter, header line)
PAIR_FILES = {
    "k10": (10, ",", True),
    "k100": (100, "\t", False),
}
_CHUNK = 100_000


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def pair_labels(k: int) -> list[str]:
    """Zero-padded names, so chancekit's sorted label order is code order."""
    return [f"c{i:03d}" for i in range(k)]


def seed_dir(seed: int) -> Path:
    path = CACHE / f"{_CACHE_VERSION}-s{seed}"
    path.mkdir(parents=True, exist_ok=True)
    os.utime(path)
    for old in sorted(CACHE.glob("v*-s*"), key=lambda p: p.stat().st_mtime)[:-_KEEP_SEEDS]:
        if old != path:
            shutil.rmtree(old, ignore_errors=True)
    return path


def write_pair_file(path: Path, k: int, delim: str, header: bool, rows: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Write `rows` (predicted, actual) lines and return the expected K x K
    table, tallied with np.bincount from the label codes as they are drawn.

    Prevalence is half uniform, half Dirichlet, so every label keeps at least
    1/(2K) of the rows; a prediction is right with probability 0.6 and is
    otherwise a draw from the prevalence, so both margins stay positive.
    """
    labels = np.array(pair_labels(k))
    prevalence = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
    expected = np.zeros(k * k, dtype=np.int64)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        if header:
            handle.write(f"predicted{delim}actual\n")
        for start in range(0, rows, _CHUNK):
            m = min(_CHUNK, rows - start)
            actual = rng.choice(k, size=m, p=prevalence)
            guess = rng.choice(k, size=m, p=prevalence)
            predicted = np.where(rng.random(m) < 0.6, actual, guess)
            expected += np.bincount(predicted * k + actual, minlength=k * k)
            lines = np.char.add(np.char.add(labels[predicted], delim), labels[actual])
            handle.write("\n".join(lines.tolist()))
            handle.write("\n")
    os.replace(tmp, path)
    return expected.reshape(k, k)


def pair_file(seed: int, name: str, rows: int = INGEST_ROWS) -> tuple[Path, np.ndarray]:
    """Cached pair file `name` of PAIR_FILES with its expected table."""
    k, delim, header = PAIR_FILES[name]
    base = seed_dir(seed) / f"pairs_{name}_{rows}"
    path, oracle = base.with_suffix(".txt"), base.with_suffix(".npy")
    if not (path.exists() and oracle.exists()):
        expected = write_pair_file(path, k, delim, header, rows,
                                   _rng(seed, 1, list(PAIR_FILES).index(name), rows))
        tmp = base.with_suffix(".npy.tmp")
        with open(tmp, "wb") as handle:
            np.save(handle, expected)
        os.replace(tmp, oracle)
    return path, np.load(oracle)


def draw_counts(rng: np.random.Generator, k: int, n: int, skewed: bool) -> np.ndarray:
    """A K x K count table with all margins positive.

    Balanced margins are uniform; skewed ones give prevalence proportional to
    1/(i+1) and the reverse order to the predictions.  Cell probabilities
    are s*diag(c) + (1-s)*outer(q, c) for a skill s drawn on [0.1, 0.8],
    sampled as one multinomial of size n and redrawn while a margin is zero.
    """
    c = 1.0 / np.arange(1, k + 1) if skewed else np.ones(k)
    c = c / c.sum()
    q = c[::-1] if skewed else c
    while True:
        s = rng.uniform(0.1, 0.8)
        probs = s * np.diag(c) + (1.0 - s) * np.outer(q, c)
        counts = rng.multinomial(n, probs.ravel() / probs.sum()).reshape(k, k)
        if (counts.sum(axis=0) > 0).all() and (counts.sum(axis=1) > 0).all():
            return counts


# One battery cycle as (K, n, skewed margins); n=None draws n log-uniformly
# on [max(50, 20K), 1e5].  Every class comes with balanced and with skewed
# margins.  The counts are chosen so that as many tables cost less than the
# middle group (2x2 at n=1000 and K=10, 13-15 ms here) as cost more, which
# keeps the median inside that group instead of on the edge between two
# classes, where a few percent of machine noise would move it by a third.
BATTERY_BIG_2X2 = 4000
BATTERY_CYCLE = tuple(
    (k, n, skewed)
    for k, n, repeats in (
        (2, 100, 1), (3, None, 1), (5, None, 1),
        (2, 1000, 1), (10, None, 1),
        (50, None, 2), (2, BATTERY_BIG_2X2, 1),
    )
    for skewed in (False, True)
    for _ in range(repeats)
)


def battery_cycle(rng: np.random.Generator) -> list[np.ndarray]:
    tables = []
    for k, n, skewed in BATTERY_CYCLE:
        if n is None:
            lo = max(50, 20 * k)
            n = int(round(math.exp(rng.uniform(math.log(lo), math.log(100_000)))))
        tables.append(draw_counts(rng, k, n, skewed))
    return tables


def battery_rng(seed: int) -> np.random.Generator:
    return _rng(seed, 2)


def write_table_csv(path: Path, counts: np.ndarray, with_labels: bool) -> None:
    k = counts.shape[0]
    lines = []
    if with_labels:
        names = [f"y{i}" for i in range(k)]
        lines.append(",".join(["predicted", *names]))
        lines += [",".join([names[i], *map(str, row)]) for i, row in enumerate(counts.tolist())]
    else:
        lines += [",".join(map(str, row)) for row in counts.tolist()]
    path.write_text("\n".join(lines) + "\n")


def cli_inputs(seed: int) -> dict[str, Path]:
    """Small files for the CLI calls: a 2x2 table, two 4x4 tables (the
    second is system B for compare) and a 1k-row pair file over 4 labels."""
    d = seed_dir(seed)
    rng = _rng(seed, 3)
    files = {
        "t2": d / "cli_t2.csv",
        "t4": d / "cli_t4.csv",
        "t4b": d / "cli_t4b.csv",
        "pairs": d / "cli_pairs.txt",
    }
    write_table_csv(files["t2"], draw_counts(rng, 2, 200, False), with_labels=False)
    write_table_csv(files["t4"], draw_counts(rng, 4, 100, True), with_labels=True)
    write_table_csv(files["t4b"], draw_counts(rng, 4, 120, False), with_labels=True)
    write_pair_file(files["pairs"], 4, ",", True, 1000, rng)
    return files
