"""Structural and spectral properties of labeled graphs.

These are analysis helpers used by the experiment harness: degree statistics
(to report the blow-up of the Fig. 1 degree reduction), diameters (to relate
routing cost to the graph), and the normalised spectral gap (the quantity the
zig-zag machinery of :mod:`repro.expander` improves round after round).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.graphs.connectivity import connected_components, shortest_path_lengths
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "degree_histogram",
    "is_simple",
    "adjacency_matrix",
    "transition_matrix",
    "spectral_gap",
    "second_eigenvalue",
    "diameter",
    "GraphSummary",
    "graph_summary",
]


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Return ``{degree: count}`` over all vertices."""
    return dict(Counter(graph.degree(v) for v in graph.vertices))


def is_simple(graph: LabeledGraph) -> bool:
    """Return ``True`` when the graph has no self-loops and no parallel edges."""
    return graph.self_loop_count() == 0 and graph.parallel_edge_count() == 0


def adjacency_matrix(graph: LabeledGraph) -> "np.ndarray":
    """Dense adjacency matrix with multi-edge multiplicities.

    A half-loop contributes 1 to the diagonal and a two-port self-loop
    contributes 2, matching the convention that the row sum equals the degree.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = graph.num_vertices
    matrix = np.zeros((n, n), dtype=float)
    for v in graph.vertices:
        for port in range(graph.degree(v)):
            w, _ = graph.rotation(v, port)
            matrix[index[v], index[w]] += 1.0
    # Each non-loop edge was counted once from each side; loops were counted
    # once per port, which is exactly the degree contribution we want.
    return matrix


def transition_matrix(graph: LabeledGraph) -> "np.ndarray":
    """Row-stochastic random-walk transition matrix ``P[v, w]``."""
    matrix = adjacency_matrix(graph)
    degrees = matrix.sum(axis=1)
    if np.any(degrees == 0):
        raise ValueError("transition matrix undefined for degree-0 vertices")
    return matrix / degrees[:, None]


#: Above this vertex count the spectral routines switch to sparse linear algebra.
_SPARSE_THRESHOLD = 1500


def second_eigenvalue(graph: LabeledGraph) -> float:
    """Second largest eigenvalue (in absolute value) of the walk matrix.

    For a d-regular graph this is the usual normalised ``lambda(G)`` whose
    distance from 1 is the spectral gap; smaller means better expansion.
    Small graphs use a dense symmetric eigendecomposition; larger graphs (as
    produced by a couple of zig-zag rounds) switch to sparse Lanczos iteration
    so the computation stays within memory.
    """
    if graph.num_vertices <= 1:
        return 0.0
    if graph.num_vertices <= _SPARSE_THRESHOLD:
        # The walk matrix of an undirected graph is similar to the symmetric
        # matrix D^{-1/2} A D^{-1/2}; use that form for numerical stability.
        adjacency = adjacency_matrix(graph)
        degrees = adjacency.sum(axis=1)
        scale = 1.0 / np.sqrt(degrees)
        symmetric = adjacency * scale[:, None] * scale[None, :]
        eigenvalues = np.linalg.eigvalsh(symmetric)
        eigenvalues = np.sort(np.abs(eigenvalues))[::-1]
        return float(eigenvalues[1]) if len(eigenvalues) > 1 else 0.0

    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import eigsh

    index = {v: i for i, v in enumerate(graph.vertices)}
    rows, cols, data = [], [], []
    degrees = np.array([graph.degree(v) for v in graph.vertices], dtype=float)
    scale = 1.0 / np.sqrt(degrees)
    for v in graph.vertices:
        for port in range(graph.degree(v)):
            w, _ = graph.rotation(v, port)
            i, j = index[v], index[w]
            rows.append(i)
            cols.append(j)
            data.append(scale[i] * scale[j])
    symmetric = coo_matrix((data, (rows, cols)), shape=(len(degrees), len(degrees))).tocsr()
    # The two extreme eigenvalues in absolute value are 1 (trivial) and the
    # quantity we want; ask Lanczos for the top two by magnitude.
    top = eigsh(symmetric, k=2, which="LM", return_eigenvectors=False, tol=1e-8)
    magnitudes = np.sort(np.abs(top))[::-1]
    return float(magnitudes[1]) if len(magnitudes) > 1 else 0.0


def spectral_gap(graph: LabeledGraph) -> float:
    """Normalised spectral gap ``1 - lambda_2`` of the random-walk matrix."""
    return 1.0 - second_eigenvalue(graph)


def diameter(graph: LabeledGraph) -> Optional[int]:
    """Diameter of the graph, or ``None`` when it is disconnected or empty."""
    if graph.num_vertices == 0:
        return None
    best = 0
    for v in graph.vertices:
        distances = shortest_path_lengths(graph, v)
        if len(distances) != graph.num_vertices:
            return None
        best = max(best, max(distances.values()))
    return best


@dataclass(frozen=True)
class GraphSummary:
    """A compact structural summary used in experiment reports."""

    num_vertices: int
    num_edges: int
    min_degree: int
    max_degree: int
    is_regular: bool
    num_components: int
    largest_component: int
    self_loops: int
    parallel_edges: int

    def as_row(self) -> List[object]:
        """Return the summary as a list suitable for table rendering."""
        return [
            self.num_vertices,
            self.num_edges,
            self.min_degree,
            self.max_degree,
            self.is_regular,
            self.num_components,
            self.largest_component,
            self.self_loops,
            self.parallel_edges,
        ]


def graph_summary(graph: LabeledGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    components = connected_components(graph)
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        min_degree=graph.min_degree(),
        max_degree=graph.max_degree(),
        is_regular=graph.is_regular(),
        num_components=len(components),
        largest_component=len(components[0]) if components else 0,
        self_loops=graph.self_loop_count(),
        parallel_edges=graph.parallel_edge_count(),
    )
