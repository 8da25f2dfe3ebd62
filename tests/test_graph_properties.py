"""Tests for structural and spectral graph properties."""

from __future__ import annotations

import pytest

import numpy as np

from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.properties import (
    adjacency_matrix,
    degree_histogram,
    diameter,
    graph_summary,
    is_simple,
    second_eigenvalue,
    spectral_gap,
    transition_matrix,
)


def test_degree_histogram_grid():
    grid = generators.grid_graph(3, 3)
    assert degree_histogram(grid) == {2: 4, 3: 4, 4: 1}


def test_is_simple_detects_loops_and_multi_edges():
    assert is_simple(generators.petersen_graph())
    loop = LabeledGraph({(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1)})
    assert not is_simple(loop)
    multi = LabeledGraph.from_edges([(0, 1), (0, 1)])
    assert not is_simple(multi)


def test_adjacency_matrix_row_sums_are_degrees():
    graph = generators.lollipop_graph(4, 3)
    matrix = adjacency_matrix(graph)
    degrees = [graph.degree(v) for v in graph.vertices]
    assert np.allclose(matrix.sum(axis=1), degrees)
    assert np.allclose(matrix, matrix.T)


def test_adjacency_matrix_counts_loops_in_degree():
    loop = LabeledGraph({(0, 0): (0, 1), (0, 1): (0, 0), (0, 2): (1, 0), (1, 0): (0, 2)})
    matrix = adjacency_matrix(loop)
    assert matrix[0, 0] == 2.0
    assert matrix.sum(axis=1)[0] == loop.degree(0)


def test_transition_matrix_is_stochastic():
    graph = generators.grid_graph(3, 3)
    matrix = transition_matrix(graph)
    assert np.allclose(matrix.sum(axis=1), 1.0)


def test_transition_matrix_rejects_isolated_vertices():
    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    with pytest.raises(ValueError):
        transition_matrix(graph)


def test_second_eigenvalue_complete_graph_small():
    complete = generators.complete_graph(8)
    assert second_eigenvalue(complete) == pytest.approx(1 / 7, abs=1e-9)


def test_second_eigenvalue_cycle_close_to_one():
    cycle = generators.cycle_graph(40)
    lam = second_eigenvalue(cycle)
    assert 0.97 < lam <= 1.0


def test_spectral_gap_ordering_expander_vs_cycle():
    cycle = generators.cycle_graph(20)
    expander_like = generators.random_regular_graph(20, 4, seed=1)
    assert spectral_gap(expander_like) > spectral_gap(cycle)


def test_spectral_gap_disconnected_is_zero():
    graph = generators.disjoint_union([generators.cycle_graph(4), generators.cycle_graph(4)])
    assert spectral_gap(graph) == pytest.approx(0.0, abs=1e-9)


def test_diameter_values():
    assert diameter(generators.path_graph(6)) == 5
    assert diameter(generators.complete_graph(5)) == 1
    assert diameter(generators.cycle_graph(8)) == 4


def test_diameter_disconnected_is_none(two_components):
    assert diameter(two_components) is None


def test_diameter_empty_graph_is_none():
    assert diameter(LabeledGraph({})) is None


def test_graph_summary_fields(two_components):
    summary = graph_summary(two_components)
    assert summary.num_vertices == 9
    assert summary.num_components == 2
    assert summary.largest_component == 5
    assert summary.is_regular  # two cycles are both 2-regular
    assert len(summary.as_row()) == 9


def test_graph_summary_of_star():
    summary = graph_summary(generators.star_graph(6))
    assert summary.min_degree == 1
    assert summary.max_degree == 6
    assert not summary.is_regular
    assert summary.self_loops == 0
