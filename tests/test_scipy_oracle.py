"""scipy as a differential oracle for the scipy-free special functions.

chancekit computes the chi-squared tail, the normal quantile and the
binomial quantile itself; these tests hold each to the scipy function it
replaced, on grids wider than the tables chancekit meets in practice.
"""

import math

import numpy as np
import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from chancekit.confidence import normal_multiplier
from chancekit.montecarlo import _binomial_quantile
from chancekit.significance import chi2_sf


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


def test_binomial_quantile_matches_binom_ppf():
    # Exact: on this seeded grid (11 sizes x 20 draws x 36 cells, including
    # p = 0 and p = 1 cells) no cell differs from scipy's quantile.  Draws
    # within 1e-12 of 0 or 1, about one in 1e12, can differ: there the cdf's
    # rounding decides (2 counts at n = 1e7 and u = 1 - 1e-12), and below
    # u = 1e-20 the window's lower edge answers.
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 16, 50, 128, 1000, 10_000, 100_000, 10**6, 10**7):
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, size=(6, 6)) ** rng.uniform(0.5, 4.0)
            p[0, 0], p[0, 1] = 0.0, 1.0
            u = rng.uniform(0.0, 1.0, size=(6, 6))
            expected = scipy_stats.binom.ppf(u, n, p)
            np.testing.assert_array_equal(_binomial_quantile(u, n, p), expected)
