"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = 10):
    """Highest percentile of ``values`` that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. The value is the order statistic at
    sorted position ``n - beyond - 1`` and ``percentile`` its empirical
    cumulative share, ``100 * (position + 1) / n``. With ``beyond`` or fewer
    samples no such percentile exists and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - beyond - 1 if n > beyond else n - 1
    return float(ordered[k]), 100.0 * (k + 1) / n, n


def pass_rate(durations) -> float:
    """Solves per second over one pass of the job list at each job's median
    time. ``durations`` maps a job to the seconds of each of its runs.

    A closed loop's plain rate, solves over wall time, is one over the mean
    solve time, so a slow spell of the machine in part of a run moves it as
    far as the spell is long. Medians per job ignore spells that cover fewer
    than half of a job's runs, and weighting every job once keeps a partial
    last pass from changing the mix.
    """
    return len(durations) / sum(median(d) for d in durations.values())


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
