"""scipy as a differential oracle for the scipy-free special functions.

chancekit computes the chi-squared tail and the normal quantile itself;
these tests hold each to the scipy function it replaced, on grids wider
than the tables chancekit meets in practice.  scipy's binomial law also
checks the cells the binomial_copula generator draws and the sampled exact
test's decision boundary.
"""

import math

import numpy as np
import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from chancekit.confidence import normal_multiplier
from chancekit.contingency import from_counts
from chancekit import montecarlo, significance
from chancekit.significance import _null_cells, chi2_sf, fisher_montecarlo_kxk
from helpers import random_valid_tables, record_chunks


def test_chi2_sf_matches_gammaincc():
    # Tolerance 1e-11 relative: the log of the prefactor x^a e^-x / Gamma(a)
    # is at most a few thousand here, so its rounding alone moves the result
    # by up to about 1e-12 relative; below 1e-300, where both sides are
    # subnormal or zero, 1e-300 absolute.  Measured worst: 1.4e-12.
    dfs = [*range(1, 101), 121, 144, 169, 225, 256, 400, 441, 484, 961, 1024, 1600, 2025, 2401]
    for df in dfs:
        around = df + math.sqrt(2.0 * df) * np.linspace(-6.0, 6.0, 25)
        xs = np.concatenate([np.linspace(0.0, 5000.0, 101), around[around >= 0.0], [1e-300, 1e-20, 1e-8, 0.5]])
        for x in xs:
            ours = chi2_sf(float(x), df)
            ref = float(scipy_special.gammaincc(df / 2.0, x / 2.0))
            if ref < 1e-300:
                assert abs(ours - ref) <= 1e-300, (df, x, ours, ref)
                continue
            assert abs(ours - ref) <= 1e-11 * ref, (df, x, ours, ref)


def test_normal_multiplier_matches_ndtri():
    # Tolerance 1e-14 absolute, or relative beyond |quantile| 1; the stdlib
    # (Wichura's AS 241) and scipy differ by a few ulp, measured 3.6e-15.
    alphas = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 4001), np.logspace(-300, -1, 300)])
    for alpha in alphas:
        for two_tailed in (True, False):
            ours = normal_multiplier(float(alpha), two_tailed)
            ref = float(scipy_special.ndtri(1.0 - alpha / 2.0 if two_tailed else 1.0 - alpha))
            if math.isinf(ref):
                assert ours == ref
            else:
                assert abs(ours - ref) <= 1e-14 * max(1.0, abs(ref)), (alpha, two_tailed)


def _binomial_gof_p(draws, n, p):
    """Pearson goodness-of-fit p-value of integer draws against
    binomial(n, p), over about 20 bins cut at binomial quantiles so that
    each bin holds several expected counts."""
    edges = np.unique(scipy_stats.binom.ppf(np.linspace(0.0, 1.0, 21)[1:-1], n, p))
    probs = np.diff(np.concatenate([[0.0], scipy_stats.binom.cdf(edges, n, p), [1.0]]))
    observed = np.bincount(np.searchsorted(edges, draws), minlength=probs.size)
    expected = probs * draws.size
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(scipy_stats.chi2.sf(stat, probs.size - 1))


@pytest.mark.parametrize("n, seed", [(60, 3), (10**6, 4)])
def test_binomial_copula_cells_follow_binom(monkeypatch, n, seed):
    # Margins held fixed, so every cell of every table is one draw from
    # binomial(n, bias_i * prevalence_j); 5,000 tables give 5,000 draws of
    # each of the 9 cell laws.
    fixed = np.array([0.5, 0.3, 0.2])
    monkeypatch.setattr(montecarlo, "_chance_margins", lambda *args: fixed)
    rng = np.random.default_rng(seed)
    tables = np.array([
        montecarlo.gen_chance(3, n, rng, cell_distribution="binomial_copula").counts
        for _ in range(5000)
    ])
    cell_p = np.outer(fixed, fixed)
    for i in range(3):
        for j in range(3):
            assert _binomial_gof_p(tables[:, i, j], n, cell_p[i, j]) >= 0.001, (n, i, j)


def _checkpoints(t, chunks, seed):
    """(draws, hits) at the end of each chunk of a sampler run from seed,
    replayed through the sampler's own source for each chunk, _null_cells,
    with its hit rule."""
    rng = np.random.Generator(np.random.SFC64(seed))
    log_factorials = np.array([math.lgamma(i + 1.0) for i in range(t.n + 1)])
    s_obs = sum(log_factorials[c] for c in t.counts.ravel())
    draws = hits = 0
    out = []
    for m in chunks:
        s = sum(log_factorials[c] for c in _null_cells(t, m, rng))
        draws, hits = draws + m, hits + int((s >= s_obs - 1e-9).sum())
        out.append((draws, hits))
    return out


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_sampler_boundary_matches_binom(monkeypatch, alpha):
    # A run stops at the end of chunk i once binom.cdf(hits, draws, alpha) is
    # below 10^-3 2^-i, and at no earlier chunk end; its p is then
    # (hits + 1) / (draws + 1), below alpha.  A run not decided crosses the
    # boundary at none of the chunk ends it reaches.
    chunks = record_chunks(monkeypatch)
    risk = significance._DECISION_RISK
    outcomes = set()
    tables = [from_counts(t.counts + np.eye(4, dtype=int) * (i % 6))
              for i, t in enumerate(random_valid_tables(8, 60, k=4, cell_max=5))]
    for seed, t in enumerate(tables):
        chunks.clear()
        report = fisher_montecarlo_kxk(t, samples=1000, seed=seed, alpha=alpha)
        ends = _checkpoints(t, chunks, seed)
        stopped = report.hits == significance._STOP_HITS
        # The replay ends where the run did, except that a run stopped at its
        # 100th hit drops the rest of its last chunk and checks no boundary there.
        if not stopped:
            assert ends[-1] == (report.draws, report.hits)
        if report.level is not None:
            assert report.level == alpha
            i = len(ends)
            assert scipy_stats.binom.cdf(report.hits, report.draws, alpha) < math.ldexp(risk, -i)
            assert report.p_value == (report.hits + 1) / (report.draws + 1) < alpha
        outcomes.add("decided" if report.level else "stopped" if stopped else "budget")
        reached = ends[:-1] if stopped or report.level else ends
        for j, (draws, hits) in enumerate(reached, 1):
            assert not scipy_stats.binom.cdf(hits, draws, alpha) < math.ldexp(risk, -j)
    assert outcomes == {"stopped", "budget", "decided"}


@pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01, 0.001])
def test_sampler_boundary_lies_below_alpha(alpha):
    # Wherever binom.cdf(hits, draws, alpha) falls below the first and
    # largest risk, 10^-3 / 2, (hits + 1) / (draws + 1) is already below
    # alpha, so the sampler's test of that p before the tail sum never holds
    # back a stop.  binom.ppf gives the fewest hits whose tail reaches the
    # risk, one more than the most hits that stop.
    draws = np.arange(1, 50_001)
    fewest = scipy_stats.binom.ppf(significance._DECISION_RISK / 2, draws, alpha)
    crossing = fewest > 0
    assert crossing.any()
    assert np.all(fewest[crossing] / (draws[crossing] + 1) < alpha)
