"""The tail percentile and nearest-rank percentiles of operation times.

Percentiles use the nearest-rank definition: the p-th percentile of n sorted
samples is the sample at 1-based rank ceil(p * n / 100).  The median
operation time is instead the median of each operation's median across
rounds: over all samples, the median of an even number of operations a
round falls on the boundary between two operations' samples, where a few
slow rounds move it.
"""

import math
import statistics

__all__ = ["nearest_rank", "tail_percentile", "percentile_value", "per_op_medians"]


def nearest_rank(p, n):
    """1-based rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n, beyond=10):
    """The highest whole percentile below 100 that leaves at least `beyond`
    of n samples strictly above its nearest rank, or None if even the 50th
    percentile leaves fewer."""
    for p in range(99, 49, -1):
        if n - nearest_rank(p, n) >= beyond:
            return p
    return None


def percentile_value(values, p):
    """The nearest-rank p-th percentile of the samples."""
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def per_op_medians(times, ops_per_round):
    """Each operation's median time over the rounds, from the times of
    whole rounds laid end to end in a fixed operation order."""
    if len(times) % ops_per_round:
        raise ValueError("times do not make whole rounds")
    return [statistics.median(times[i::ops_per_round]) for i in range(ops_per_round)]
