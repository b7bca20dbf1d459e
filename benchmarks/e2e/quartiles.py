"""Quartile statistics every file of the benchmark shares (standard library only)."""

from __future__ import annotations

import statistics


def quartiles(values: list) -> tuple:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def interquartile_mean(values: list) -> float:
    """Mean of ``values`` without their lowest and highest quarter.

    The quarter is rounded to the nearest whole number, so three values
    give their median.  Steadier than the median when the values cluster
    in a few modes (runs that stop after different numbers of
    iterations), and than the mean when a few are far off.
    """
    ordered = sorted(values)
    cut = (len(ordered) + 1) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])
