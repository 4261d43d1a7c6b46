"""Cell-by-cell information measures and margin products multiplied out,
kept as the reference for the vectorised, log-space forms in chancekit, and
the unit-by-unit zero-margin repair that `repair_zero_margins` places in
three vector assignments.

These are the straightforward implementations: the entropies walk every cell
in Python, the evenness minus and hash forms walk every label, and the
evenness plus forms and the determinant estimates take np.prod of the
margins, so they underflow at large K.  Wherever they are finite,
`mutual_information`, `conditional_entropy`, `evenness_variants` and
`det_estimates` in chancekit must agree with them.
"""

import math
from fractions import Fraction

import numpy as np


def _joint(t):
    probs = t.counts / t.n
    return probs, probs.sum(axis=1), probs.sum(axis=0)


def mutual_information(t):
    probs, bias, prevalence = _joint(t)
    total = 0.0
    for i in range(t.k):
        for j in range(t.k):
            p = probs[i, j]
            if p > 0.0:
                total += p * math.log(p / (bias[i] * prevalence[j]))
    return total


def conditional_entropy(t):
    probs, bias, _ = _joint(t)
    total = 0.0
    for i in range(t.k):
        for j in range(t.k):
            p = probs[i, j]
            if p > 0.0:
                total -= p * math.log(p / bias[i])
    return total


def evenness_plus(t):
    """(r_plus, p_plus) as (prod m)^(2/K)."""
    _, bias, prevalence = _joint(t)
    return tuple(float(np.prod(m)) ** (2.0 / t.k) for m in (prevalence, bias))


def evenness_minus_hash(t):
    """The minus and hash forms of both margins, one label at a time: each
    label's product is taken from its one-vs-rest margins, the positive and
    the rest counts over n, and the products are then averaged arithmetically
    (minus) and harmonically (hash)."""
    n, k = t.n, t.k
    forms = {}
    for side, totals in (("r", t.counts.sum(axis=0)), ("p", t.counts.sum(axis=1))):
        products = []
        for i in range(k):
            positive = int(totals[i])
            products.append((positive / n) * ((n - positive) / n))
        forms[f"{side}_minus"] = sum(products) / k
        forms[f"{side}_hash"] = k / sum(1.0 / x for x in products)
    return forms


def det_estimates(t, exponent_rule="two_over_k"):
    probs, bias, prevalence = _joint(t)
    k = t.k
    e = 2.0 / k if exponent_rule == "two_over_k" else 4.0 / (3.0 * k - 2.0)
    if k == 2:
        det = probs[0, 0] * probs[1, 1] - probs[0, 1] * probs[1, 0]
    else:
        det = float(np.linalg.det(probs))
    prod_prev = float(np.prod(prevalence))
    prod_bias = float(np.prod(bias))

    def scaled(denominator):
        if det == 0.0:
            return 0.0
        return math.copysign((abs(det) / denominator) ** e, det)

    return scaled(prod_bias), scaled(prod_prev), scaled(math.sqrt(prod_prev * prod_bias))


def hypergeom_numerators(rp, rn, pp):
    """C(rp, a) * C(rn, pp - a) for every admissible true-positive count a."""
    lo = max(0, pp - rn)
    hi = min(rp, pp)
    return {a: math.comb(rp, a) * math.comb(rn, pp - a) for a in range(lo, hi + 1)}


def fixed_margin_law(rows, cols):
    """Exact probability of every table with the given margins under the
    fixed-margin null, prod(r!) prod(c!) / (n! prod(x!)), keyed by the cells
    in row-major order.  Enumerates cell by cell, so keep the margins small."""
    n = sum(rows)
    k_rows, k_cols = len(rows), len(cols)
    constant = Fraction(math.prod(map(math.factorial, [*rows, *cols])), math.factorial(n))
    law = {}

    def fill(cells, row_left, col_left):
        i, j = divmod(len(cells), k_cols)
        if i == k_rows:
            law[tuple(cells)] = constant / math.prod(map(math.factorial, cells))
            return
        cap = min(row_left[i], col_left[j])
        if i == k_rows - 1 or j == k_cols - 1:
            forced = col_left[j] if i == k_rows - 1 else row_left[i]
            choices = [forced] if forced <= cap else []
        else:
            choices = range(cap + 1)
        for x in choices:
            row_left[i] -= x
            col_left[j] -= x
            fill(cells + [x], row_left, col_left)
            row_left[i] += x
            col_left[j] += x

    fill([], list(rows), list(cols))
    return law


def repair_zero_margins(counts):
    """The zero-margin repair placed unit by unit, re-summing the margins
    after every unit: a 1 at (i, i) for each zero row paired with a zero
    column i, then +1 for each remaining zero row (column) in the
    lowest-index column (row) with a positive margin.  Returns the counts."""
    c = np.array(counts, dtype=np.int64)
    k = c.shape[0]
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    for i in range(k):
        if rows[i] == 0 and cols[i] == 0:
            c[i, i] = 1
    row_sum = c.sum(axis=1)
    col_sum = c.sum(axis=0)
    for i in range(k):
        if row_sum[i] == 0:
            c[i, int(np.argmax(col_sum > 0))] += 1
            row_sum = c.sum(axis=1)
            col_sum = c.sum(axis=0)
    for j in range(k):
        if col_sum[j] == 0:
            c[int(np.argmax(row_sum > 0)), j] += 1
            row_sum = c.sum(axis=1)
            col_sum = c.sum(axis=0)
    return c
