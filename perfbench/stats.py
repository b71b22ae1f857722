"""Summary statistics with the sample-count rule the benchmark reports by.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it; a percentile with fewer
samples past it is mostly one or two outliers and does not repeat.
"""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "TAIL_LEVELS", "percentile", "tail_level",
           "block_tail", "summarize"]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile level {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_level(n: int) -> float | None:
    """Highest of :data:`TAIL_LEVELS` with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or None when ``n`` is too small for any.
    """
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:
            return level
    return None


def block_tail(values, block: int) -> float:
    """Median over consecutive ``block``-sample blocks of each block's
    tail percentile (:func:`tail_level` of ``block``); a trailing partial
    block is left out. A stall of the host that slows one block moves
    the pooled tail but not this median."""
    data = list(values)
    level = tail_level(block)
    if level is None or len(data) < block:
        raise ValueError(f"{len(data)} samples in blocks of {block} have "
                         f"no tail percentile")
    tails = [percentile(data[i:i + block], level)
             for i in range(0, len(data) - block + 1, block)]
    return percentile(tails, 50.0)


def summarize(values) -> dict:
    """``{"n", "p50", "tail_level", "tail"}`` for one set of samples;
    ``tail`` is None when too few samples allow any tail percentile."""
    data = list(values)
    level = tail_level(len(data))
    return {"n": len(data), "p50": percentile(data, 50.0),
            "tail_level": level,
            "tail": None if level is None else percentile(data, level)}
