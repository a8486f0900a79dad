"""Small statistics helpers shared by bench/run.py and its self-check."""
from __future__ import annotations

import math
import re
import statistics

# Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Time of the worker's speed probe on the reference machine when it is quiet.
PROBE_REF_S = 0.0004
# Probes on each side of a probe in the running median that smooths them.
PROBE_WINDOW = 5


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ValueError if it is not a valid metric name."""
    if not METRIC_NAME.fullmatch(name) or not name[0].isalnum() or len(name) > 64:
        raise ValueError(f"bad metric name {name!r}")
    return name


def rank_index(p: float, n: int) -> int:
    """Nearest-rank index of the p-th percentile in a sorted sample of n values."""
    return max(0, math.ceil(p / 100.0 * n) - 1)


def beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n values."""
    return n - 1 - rank_index(p, n)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it, or None."""
    best = None
    for p in TAIL_LADDER:
        if beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(p, len(ordered))]


def at_reference_speed(latencies: list[float], probes: list[float]) -> list[float]:
    """Scale each item's wall time by how much slower than reference the probes around it ran.

    ``probes[i]`` and ``probes[i + 1]`` were timed right before and after item
    i. Each probe is first replaced by the running median of its neighbours,
    so one disturbed probe does not distort the item next to it.
    """
    smooth = [statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]) for i in range(len(probes))]
    return [t * 2.0 * PROBE_REF_S / (smooth[i] + smooth[i + 1]) for i, t in enumerate(latencies)]
