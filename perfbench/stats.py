"""Order statistics the benchmark reports, each with its sample count.

A percentile is only as good as the number of samples behind it, so every
summary here carries ``n`` (samples) and ``beyond`` (samples strictly above
the reported rank).  The benchmark reports a tail percentile only together
with those counts; the choosing-metrics rule is that a tail percentile needs
at least ten samples beyond it to mean anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile of a sample, with its sample accounting."""

    q: float
    value: float
    n: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    Nearest rank returns an observed value, never an interpolation, so a
    percentile of latencies is a latency some task really had.  ``beyond``
    counts the samples ranked above it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile level must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q=q, value=ordered[rank - 1], n=len(ordered), beyond=len(ordered) - rank)


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (an observed value)."""
    return percentile(values, 50).value

