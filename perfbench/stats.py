"""Summary statistics shared by every workload.

The percentile rule follows the benchmark's reporting convention: a
timing is reported as its median plus the highest percentile that has
at least :data:`TAIL_SAMPLES` samples beyond it, together with the
sample count, so a tail figure is never quoted from fewer samples than
it claims to summarise.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10

#: Candidate percentiles, highest last.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def highest_resolvable(n: int, cap: float = 100.0) -> Optional[float]:
    """The highest candidate percentile ``<= cap`` with at least
    :data:`TAIL_SAMPLES` of ``n`` samples strictly beyond it, or None."""
    best = None
    for pct in PERCENTILES:
        if pct <= cap and n * (1.0 - pct / 100.0) >= TAIL_SAMPLES - 1e-9:
            best = pct
    return best


def tail_summary(values: Sequence[float], cap: float = 100.0) -> Dict[str, float]:
    """Median, the highest resolvable percentile (``<= cap``) and ``n``.

    Returns ``{"n", "p50", "pct", "value"}``; ``pct``/``value`` are
    absent when even the median lacks ten samples beyond it.
    """
    ordered = sorted(values)
    out: Dict[str, float] = {"n": len(ordered)}
    if ordered:
        out["p50"] = nearest_rank(ordered, 50.0)
    pct = highest_resolvable(len(ordered), cap)
    if pct is not None:
        out["pct"] = pct
        out["value"] = nearest_rank(ordered, pct)
    return out

