"""Evenness-scaled confidence intervals for chance-corrected measures.

A confidence interval around an informedness-style estimate is

    half_width = X * sqrt(sse) / sqrt(2 * E * (n - 1))

where X is a normal quantile multiplier, E the evenness factor of the table
margins, and sse a deviation profile evaluated at the interval's center.
Three hypothesis variants pick default profiles: the chance hypothesis
(center 0) uses the constant profile, the empirical hypothesis uses the
weighted arithmetic profile 1 - 2|b| + 2b^2, and the perfect-performance
hypothesis uses the linear profile 1 - |b| which collapses to zero width at
|b| = 1.  All five profiles stay selectable since none is canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contingency import ContingencyTable
from .errors import DataError, UsageError

__all__ = [
    "SSE_RULES",
    "CI_VARIANTS",
    "ConfidenceInterval",
    "SystemComparison",
    "sse_profile",
    "evenness_factor",
    "normal_multiplier",
    "confidence_interval",
    "compare_systems",
]

SSE_RULES = (
    "constant_one",
    "one_minus_abs",
    "weighted_arithmetic",
    "geometric",
    "harmonic",
)

CI_VARIANTS = ("null", "empirical", "full")

_DEFAULT_RULES = {
    "null": "constant_one",
    "empirical": "weighted_arithmetic",
    "full": "one_minus_abs",
}


def sse_profile(b: float, rule: str) -> float:
    """Squared-deviation profile at center b, per rule.

    constant_one ignores b; one_minus_abs falls off linearly to 0 at |b| = 1;
    weighted_arithmetic = 1 - 2|b| + 2b^2 dips to 0.5 at |b| = 0.5 and
    returns to 1 at both extremes; geometric = sqrt(|b| - b^2); harmonic =
    |b| - b^2.  All are symmetric in b and -b.
    """
    if rule not in SSE_RULES:
        raise UsageError(f"unknown sse rule '{rule}'")
    a = abs(float(b))
    if not a <= 1.0:  # also rejects nan
        raise UsageError(f"center must lie in [-1, 1], got {b}")
    if rule == "constant_one":
        return 1.0
    if rule == "one_minus_abs":
        return 1.0 - a
    if rule == "weighted_arithmetic":
        return 1.0 - 2.0 * a + 2.0 * a * a
    if rule == "geometric":
        return math.sqrt(a - a * a)
    return a - a * a


def evenness_factor(t: ContingencyTable) -> float:
    """Margin evenness on the 0..1 scale: the geometric means of the
    prevalence and bias vectors, scaled by K^2 so even margins give 1."""
    s = t._summary
    return float(np.exp(s.mean_log_prevalence)) * float(np.exp(s.mean_log_bias)) * t.k * t.k


def normal_multiplier(alpha: float, two_tailed: bool = True) -> float:
    """Standard normal quantile for a coverage level, e.g. 1.96 for a
    two-tailed alpha of 0.05 and 1.645 one-tailed."""
    # statistics takes longer to import than the rest of this module, and
    # only this function reads it.
    from statistics import NormalDist

    if not (0.0 < alpha < 1.0):
        raise UsageError(f"alpha must lie in (0, 1), got {alpha}")
    q = 1.0 - alpha / 2.0 if two_tailed else 1.0 - alpha
    # Below an alpha of about 1e-16, q rounds to 1, whose quantile is infinite.
    return NormalDist().inv_cdf(q) if q < 1.0 else math.inf


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    variant: str
    sse_rule: str
    x: float
    n: int
    evenness: float

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def confidence_interval(
    center: float,
    n: int,
    evenness: float = 1.0,
    x: float = 1.96,
    variant: str = "empirical",
    rule: str | None = None,
) -> ConfidenceInterval:
    """Interval around center with half-width X sqrt(sse) / sqrt(2 E (n-1)).

    The deviation profile is evaluated at the center itself; rule=None picks
    the variant's default profile.  n counts observations, so n >= 2 is
    required for a finite width.
    """
    if variant not in CI_VARIANTS:
        raise UsageError(f"unknown variant '{variant}'")
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    if not (float(evenness) > 0.0) or not math.isfinite(evenness):
        raise UsageError(f"evenness factor must be a positive finite number, got {evenness}")
    if not (float(x) > 0.0) or not math.isfinite(x):
        raise UsageError(f"multiplier must be a positive finite number, got {x}")
    if rule is None:
        rule = _DEFAULT_RULES[variant]
    sse = sse_profile(center, rule)
    half_width = x * math.sqrt(sse) / math.sqrt(2.0 * evenness * (n - 1))
    return ConfidenceInterval(
        center=float(center), half_width=half_width, variant=variant,
        sse_rule=rule, x=float(x), n=int(n), evenness=float(evenness),
    )


@dataclass(frozen=True)
class SystemComparison:
    interval_a: ConfidenceInterval
    interval_b: ConfidenceInterval
    a_in_b: bool
    b_in_a: bool
    mutually_exclusive: bool


def compare_systems(
    a: tuple[float, int, float],
    b: tuple[float, int, float],
    x: float = 1.96,
) -> SystemComparison:
    """Compare two systems given as (estimate, n, evenness) triples.

    Each system gets an empirical-variant interval around its own estimate;
    the systems differ significantly when neither center falls inside the
    other's interval.
    """
    ci_a = confidence_interval(a[0], a[1], a[2], x=x, variant="empirical")
    ci_b = confidence_interval(b[0], b[1], b[2], x=x, variant="empirical")
    a_in_b = ci_b.contains(ci_a.center)
    b_in_a = ci_a.contains(ci_b.center)
    return SystemComparison(
        interval_a=ci_a, interval_b=ci_b,
        a_in_b=a_in_b, b_in_a=b_in_a,
        mutually_exclusive=not a_in_b and not b_in_a,
    )
