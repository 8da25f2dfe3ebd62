"""Tests for the random-walk substrate and cover-time estimates."""

from __future__ import annotations

import pytest

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.walks.cover_time import (
    empirical_cover_time,
    empirical_hitting_time,
    lovasz_cover_time_upper_bound,
    spectral_mixing_time_bound,
    stationary_distribution,
)
from repro.walks.random_walk import (
    RandomWalk,
    random_walk_cover_steps,
    random_walk_hitting_steps,
    random_walk_trajectory,
)


def test_random_walk_moves_along_edges():
    graph = generators.cycle_graph(6)
    walk = RandomWalk(graph, start=0, seed=1)
    previous = 0
    for _ in range(20):
        current = walk.step()
        assert graph.has_edge(previous, current)
        previous = current
    assert walk.steps_taken == 20


def test_random_walk_deterministic_per_seed():
    graph = generators.grid_graph(3, 3)
    a = random_walk_trajectory(graph, 0, 50, seed=9)
    b = random_walk_trajectory(graph, 0, 50, seed=9)
    c = random_walk_trajectory(graph, 0, 50, seed=10)
    assert a == b
    assert a != c
    assert len(a) == 51 and a[0] == 0


def test_random_walk_validation():
    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    with pytest.raises(GraphStructureError):
        RandomWalk(graph, start=2)  # isolated
    with pytest.raises(GraphStructureError):
        RandomWalk(graph, start=99)


def test_hitting_steps_reaches_target_on_small_graph():
    graph = generators.grid_graph(3, 3)
    steps = random_walk_hitting_steps(graph, 0, 8, seed=4)
    assert steps is not None and steps >= 4  # at least the BFS distance


def test_hitting_steps_source_equals_target():
    graph = generators.cycle_graph(4)
    assert random_walk_hitting_steps(graph, 2, 2) == 0


def test_hitting_steps_requires_bound_for_unreachable_target(two_components):
    with pytest.raises(GraphStructureError):
        random_walk_hitting_steps(two_components, 0, 8)
    assert random_walk_hitting_steps(two_components, 0, 8, max_steps=200) is None


def test_cover_steps_covers_component(two_components):
    steps = random_walk_cover_steps(two_components, 0, seed=2)
    assert steps is not None
    assert steps >= 4  # needs at least component-size - 1 steps


def test_cover_steps_budget_exhaustion():
    graph = generators.lollipop_graph(6, 6)
    assert random_walk_cover_steps(graph, 0, seed=0, max_steps=3) is None


def test_cover_steps_singleton_component():
    graph = generators.path_graph(2)
    assert random_walk_cover_steps(graph, 0, seed=0) >= 1


def test_empirical_cover_time_aggregates():
    graph = generators.cycle_graph(8)
    estimate = empirical_cover_time(graph, 0, trials=5, seed=3)
    assert estimate.samples == 5
    assert estimate.successes == 5
    assert estimate.success_rate == 1.0
    assert estimate.mean_steps >= 7
    assert estimate.median_steps is not None
    assert estimate.max_steps >= estimate.median_steps


def test_empirical_cover_time_with_tight_budget_reports_failures():
    graph = generators.lollipop_graph(6, 8)
    estimate = empirical_cover_time(graph, 0, trials=4, max_steps=5, seed=1)
    assert estimate.successes == 0
    assert estimate.mean_steps is None
    assert estimate.success_rate == 0.0


def test_empirical_hitting_time():
    graph = generators.grid_graph(3, 3)
    estimate = empirical_hitting_time(graph, 0, 8, trials=5, seed=2)
    assert estimate.successes == 5
    assert estimate.mean_steps >= 4


def test_lovasz_bound_dominates_measured_cover_time():
    graph = generators.prism_graph(5)
    bound = lovasz_cover_time_upper_bound(graph)
    estimate = empirical_cover_time(graph, 0, trials=8, seed=5)
    assert estimate.mean_steps <= bound
    assert bound == 2.0 * graph.num_edges * (graph.num_vertices - 1)


def test_lovasz_bound_trivial_cases():
    assert lovasz_cover_time_upper_bound(generators.path_graph(1)) == 0.0


def test_spectral_mixing_bound_finite_for_connected_nonbipartite():
    graph = generators.petersen_graph()
    assert spectral_mixing_time_bound(graph) < float("inf")


def test_spectral_mixing_bound_infinite_for_disconnected(two_components):
    assert spectral_mixing_time_bound(two_components) == float("inf")


def test_stationary_distribution_proportional_to_degree():
    graph = generators.star_graph(4)
    pi = stationary_distribution(graph)
    # Vertex order is 0 (centre), then the 4 leaves.
    assert pi[0] == pytest.approx(0.5)
    assert pi[1:].sum() == pytest.approx(0.5)
    assert pi.sum() == pytest.approx(1.0)


def test_stationary_distribution_rejects_edgeless_graph():
    graph = LabeledGraph.from_edges([], vertices=[0, 1])
    with pytest.raises(ValueError):
        stationary_distribution(graph)


def test_lollipop_hits_tail_slower_than_expander_shape_check():
    """Qualitative shape: the lollipop's tail end is much harder to hit than a
    vertex in a well-connected graph of the same size — the regime where the
    derandomized walk's determinism pays off."""
    lollipop = generators.lollipop_graph(8, 8)
    tail = max(lollipop.vertices)
    expander = generators.random_regular_graph(16, 3, seed=0)
    budget = 4000
    lollipop_steps = [
        random_walk_hitting_steps(lollipop, 0, tail, seed=s, max_steps=budget) or budget
        for s in range(5)
    ]
    expander_steps = [
        random_walk_hitting_steps(expander, 0, 15, seed=s, max_steps=budget) or budget
        for s in range(5)
    ]
    assert sum(lollipop_steps) > sum(expander_steps)
