"""Order statistics: quantiles, tail sample counts and run-to-run spread."""

from __future__ import annotations

import math
import statistics

from scipy.special import betainc


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.

    Near a gap between order statistics it moves smoothly where linear
    interpolation jumps, so a tail quantile of a few hundred samples varies
    less from run to run.
    """
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs)))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-quantile's rank."""
    return n - math.ceil(round(p * n, 9))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
