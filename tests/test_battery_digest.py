"""Bit-identity guard for the per-table statistic battery.

Each table below goes through what `evaluate`, `significance --family all`
and `confidence` compute: multiclass_stats, full_table_tests, the nine
evenness-scaled family reports, evenness_factor and the three intervals,
and on a 2x2 table also binary_stats, the four single-margin tests and the
two-sided exact test.  Every output is written out with floats as
float.hex, so a digest moves when any bit of any output moves.
tests/data/battery_digests.json holds the digests; the test names the first
table, and the first output of it, that moved.

The tables are drawn here, not by the benchmark: K = 2, 3, 5, 10 and 50,
with the 2x2 tables at n = 100, 1,000 and 4,000, so the exact test runs
both its full integer sum and its windowed one.  Cells are a multinomial
of s * diag(c) + (1 - s) * outer(q, c), with even or 1/(i+1) margins and,
for every other table, the rows permuted, so informedness takes both
signs.  To regenerate the file after a deliberate change of an output:

    PYTHONPATH=src python tests/test_battery_digest.py > tests/data/battery_digests.json
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from chancekit.confidence import CI_VARIANTS, confidence_interval, evenness_factor
from chancekit.contingency import from_counts
from chancekit.dichotomous import binary_stats
from chancekit.multiclass import multiclass_stats
from chancekit.significance import (
    FAMILY_KINDS,
    chi2_bookmaker_family,
    chi2_positive,
    fisher_exact_2x2,
    full_table_tests,
    g2_positive,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "battery_digests.json"
SEED = 20_261_019
# (K, n, tables); n=None draws n log-uniformly on [max(50, 20K), 1e5].
CLASSES = ((2, 100, 8), (2, 1000, 8), (2, 4000, 8),
           (3, None, 6), (5, None, 6), (10, None, 6), (50, None, 6))


def draw_tables() -> list[np.ndarray]:
    rng = np.random.default_rng(SEED)
    tables = []
    for k, n, count in CLASSES:
        for i in range(count):
            if n is None:
                size = int(round(math.exp(rng.uniform(math.log(max(50, 20 * k)), math.log(1e5)))))
            else:
                size = n
            c = 1.0 / np.arange(1, k + 1) if i % 4 >= 2 else np.ones(k)
            c /= c.sum()
            q = c[::-1]
            while True:
                s = rng.uniform(0.0, 0.8)
                probs = s * np.diag(c) + (1.0 - s) * np.outer(q, c)
                if i % 2:
                    probs = probs[rng.permutation(k)]
                counts = rng.multinomial(size, probs.ravel() / probs.sum()).reshape(k, k)
                if (counts.sum(axis=0) > 0).all() and (counts.sum(axis=1) > 0).all():
                    tables.append(counts)
                    break
    return tables


def written(value) -> str:
    """value as text, floats as float.hex, dataclasses field by field."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        fields = ",".join(f"{f.name}={written(getattr(value, f.name))}"
                          for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(written(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(written(v) for v in value)) + "}"
    return f"{type(value).__name__}:{value}"


def battery_outputs(counts: np.ndarray) -> dict[str, object]:
    t = from_counts(counts)
    stats = multiclass_stats(t)
    evenness = evenness_factor(t)
    outputs = {"multiclass_stats": stats, "full_table_tests": full_table_tests(t)}
    outputs.update({kind: chi2_bookmaker_family(t, kind) for kind in FAMILY_KINDS})
    outputs["evenness_factor"] = evenness
    outputs.update({
        f"interval_{variant}": confidence_interval(
            0.0 if variant == "null" else stats.informedness, t.n, evenness, 1.96, variant)
        for variant in CI_VARIANTS})
    if t.k == 2:
        outputs["binary_stats"] = binary_stats(t)
        for target in ("predicted_positive", "real_positive"):
            outputs[f"chi2_positive_{target}"] = chi2_positive(t, target)
            outputs[f"g2_positive_{target}"] = g2_positive(t, target)
        outputs["fisher_exact_2x2"] = fisher_exact_2x2(t, "two")
    return outputs


def digest(text: str) -> str:
    """The first 16 hex digits of text's sha256."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digests(counts: np.ndarray) -> dict[str, object]:
    return {"k": int(counts.shape[0]), "n": int(counts.sum()),
            "counts": digest(written(counts.tolist())),
            "outputs": {name: digest(written(out))
                        for name, out in battery_outputs(counts).items()}}


def test_battery_outputs_keep_their_bits():
    expected = json.loads(DIGESTS.read_text())
    tables = draw_tables()
    assert len(tables) == len(expected)
    for index, (counts, want) in enumerate(zip(tables, expected)):
        got = table_digests(counts)
        where = f"table {index} (K={got['k']}, n={got['n']})"
        assert got["counts"] == want["counts"], \
            f"{where} is not the table the digests were taken on"
        outputs = got["outputs"]
        moved = [name for name, digest in want["outputs"].items() if outputs.get(name) != digest]
        moved += sorted(outputs.keys() - want["outputs"].keys())
        assert not moved, f"{where} is the first that moved, in {', '.join(moved)}"


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(table_digests(c)) for c in draw_tables()) + "\n]")
