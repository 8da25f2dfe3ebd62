"""Cover-time and hitting-time estimates for random walks.

Section 2 of the paper leans on the classical results that a random walk of
length ``O(n^2)`` covers a bounded-degree graph with high probability (Feige;
Lovász).  This module provides:

* empirical estimates (repeat the walk over several seeds and average), used
  by experiment E2 to put the exploration-sequence coverage numbers next to
  the random-walk baseline; and
* the standard analytic bounds — Lovász's ``O(m n)`` / ``<= 2 m (n - 1)``
  cover-time upper bound and a spectral mixing-time bound — used as sanity
  rails in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median
from typing import List, Optional, Sequence

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.properties import adjacency_matrix, second_eigenvalue
from repro.walks.random_walk import random_walk_cover_steps, random_walk_hitting_steps

__all__ = [
    "CoverTimeEstimate",
    "empirical_cover_time",
    "empirical_hitting_time",
    "lovasz_cover_time_upper_bound",
    "spectral_mixing_time_bound",
    "stationary_distribution",
]


@dataclass(frozen=True)
class CoverTimeEstimate:
    """Aggregate of repeated cover/hitting time measurements."""

    samples: int
    successes: int
    mean_steps: Optional[float]
    median_steps: Optional[float]
    max_steps: Optional[int]

    @property
    def success_rate(self) -> float:
        """Fraction of trials that finished within the step budget."""
        return self.successes / self.samples if self.samples else 0.0


def _summarise(observations: List[Optional[int]]) -> CoverTimeEstimate:
    finished = [obs for obs in observations if obs is not None]
    return CoverTimeEstimate(
        samples=len(observations),
        successes=len(finished),
        mean_steps=mean(finished) if finished else None,
        median_steps=median(finished) if finished else None,
        max_steps=max(finished) if finished else None,
    )


def empirical_cover_time(
    graph: LabeledGraph,
    start: int,
    trials: int = 10,
    max_steps: Optional[int] = None,
    seed: int = 0,
) -> CoverTimeEstimate:
    """Estimate the cover time of the start's component over several trials."""
    observations = [
        random_walk_cover_steps(graph, start, seed=seed + trial, max_steps=max_steps)
        for trial in range(trials)
    ]
    return _summarise(observations)


def empirical_hitting_time(
    graph: LabeledGraph,
    start: int,
    target: int,
    trials: int = 10,
    max_steps: Optional[int] = None,
    seed: int = 0,
) -> CoverTimeEstimate:
    """Estimate the hitting time from ``start`` to ``target`` over several trials."""
    observations = [
        random_walk_hitting_steps(
            graph, start, target, seed=seed + trial, max_steps=max_steps
        )
        for trial in range(trials)
    ]
    return _summarise(observations)


def lovasz_cover_time_upper_bound(graph: LabeledGraph) -> float:
    """The classical ``2 m (n - 1)`` upper bound on the expected cover time.

    ``m`` counts edges and ``n`` vertices (Aleliunas et al. / Lovász's survey).
    For 3-regular graphs this is ``3 n (n - 1)`` — the ``O(n^2)`` figure the
    paper quotes.
    """
    n = graph.num_vertices
    m = graph.num_edges
    if n <= 1:
        return 0.0
    return 2.0 * m * (n - 1)


def spectral_mixing_time_bound(graph: LabeledGraph, epsilon: float = 0.25) -> float:
    """Upper bound on the walk's mixing time from the spectral gap.

    Uses the standard ``log(n / epsilon) / (1 - lambda_2)`` bound.  Returns
    ``inf`` when the graph is disconnected or bipartite-degenerate
    (``lambda_2 = 1``).
    """
    n = max(2, graph.num_vertices)
    lam = second_eigenvalue(graph)
    gap = 1.0 - lam
    if gap <= 1e-12:
        return float("inf")
    return float(np.log(n / epsilon) / gap)


def stationary_distribution(graph: LabeledGraph) -> "np.ndarray":
    """Stationary distribution of the simple random walk (degree / 2m).

    Returned as a vector indexed consistently with ``graph.vertices``.
    """
    adjacency = adjacency_matrix(graph)
    degrees = adjacency.sum(axis=1)
    total = degrees.sum()
    if total == 0:
        raise ValueError("stationary distribution undefined for an edgeless graph")
    return degrees / total
