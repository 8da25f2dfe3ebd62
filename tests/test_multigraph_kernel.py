"""The multi-graph lockstep kernel vs the scalar reference, property-tested.

:func:`repro.core.engine.route_many_multi` stacks the compiled transition
tables of *several* graphs into one tensor and advances every task's walks
together (:class:`repro.core.batch_kernel.MultiGraphWalk`).  Like the
single-graph kernel, it must be an invisible optimisation: for any mixture of
graphs — different families, different sizes, connected or disconnected —
and any per-task pair batches, its per-task results must equal each engine's
scalar ``reference_route_many`` element for element.  Hypothesis drives that
equality over random mixed batches; unit tests pin the aggregate dispatch
policy, the buffer-cap spill-over, and the sweep runner's batched group path
(``evaluate_shards``) against its per-shard reference — including groups that
mix engine, schedule and baseline shards.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ScenarioSpec
from repro.analysis.runner import evaluate_shard, evaluate_shards, plan_sweep
from repro.core.batch_kernel import (
    MultiGraphWalk,
    batched_walk_for,
    multigraph_walk_for,
)
from repro.core.engine import prepare, route_many_multi
from repro.core.universal import RandomSequenceProvider
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph

#: One provider shared across examples so the per-size sequence cache is hit.
_PROVIDER = RandomSequenceProvider(seed=77)

_RELAXED = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _build_graph(family: str, size: int, seed: int) -> LabeledGraph:
    if family == "grid":
        side = max(2, int(size**0.5))
        return generators.grid_graph(side, side)
    if family == "ring":
        return generators.cycle_graph(max(3, size))
    if family == "complete":
        return generators.complete_graph(max(2, min(size, 9)))
    if family == "two-rings":
        # Disconnected: pairs that straddle the rings must report failure.
        half = max(3, size // 2)
        return generators.disjoint_union(
            [generators.cycle_graph(half), generators.cycle_graph(half + 1)]
        )
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < 0.3
    ]
    return LabeledGraph.from_edges(edges, vertices=range(size))


@st.composite
def _mixed_batches(draw):
    """A random mixture of (graph, pairs) tasks over distinct topologies."""
    num_tasks = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for task_index in range(num_tasks):
        family = draw(
            st.sampled_from(["grid", "ring", "complete", "two-rings", "gnp"])
        )
        size = draw(st.integers(min_value=6, max_value=16))
        seed = draw(st.integers(min_value=0, max_value=500))
        graph = _build_graph(family, size, seed)
        vertices = list(graph.vertices)
        rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
        count = draw(st.integers(min_value=1, max_value=10))
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(count)
        ]
        # Repeated pairs and self-pairs are part of the contract.
        pairs.append(pairs[0])
        pairs.append((pairs[0][0], pairs[0][0]))
        tasks.append((graph, pairs, None))
    return tasks


# --------------------------------------------------------------------------- #
# Hypothesis: stacked == reference, per task, element for element
# --------------------------------------------------------------------------- #


@_RELAXED
@given(tasks=_mixed_batches())
def test_route_many_multi_equals_reference(tasks):
    stacked = route_many_multi(tasks, provider=_PROVIDER, lockstep=True)
    for (graph, pairs, _namespace), results in zip(tasks, stacked):
        engine = prepare(graph)
        assert results == engine.reference_route_many(pairs, provider=_PROVIDER)


@_RELAXED
@given(tasks=_mixed_batches())
def test_route_many_multi_auto_equals_reference(tasks):
    # The auto tri-state may stack or fall back per task depending on the
    # aggregate size — either way the results must be the reference's.
    auto = route_many_multi(tasks, provider=_PROVIDER)
    for (graph, pairs, _namespace), results in zip(tasks, auto):
        engine = prepare(graph)
        assert results == engine.reference_route_many(pairs, provider=_PROVIDER)


# --------------------------------------------------------------------------- #
# Aggregate dispatch policy
# --------------------------------------------------------------------------- #


def _forbid(monkeypatch, cls, name):
    def _fail(self, *args, **kwargs):  # pragma: no cover - failure path only
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(cls, name, _fail)


def test_aggregate_dispatch_stacks_small_per_task_batches(monkeypatch):
    # Each task alone is far below the single-graph lockstep threshold; the
    # aggregate clears it, so the stacked kernel must engage (the scalar
    # reference is forbidden below) and still match the reference exactly.
    graphs = [
        generators.grid_graph(12, 12),
        generators.cycle_graph(150),
        generators.grid_graph(11, 11),
    ]
    tasks = []
    expected = []
    for index, graph in enumerate(graphs):
        vertices = list(graph.vertices)
        rng = random.Random(index)
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(28)
        ]
        tasks.append((graph, pairs, None))
        expected.append(
            prepare(graph).reference_route_many(pairs, provider=_PROVIDER)
        )
    from repro.core.engine import PreparedNetwork

    _forbid(monkeypatch, PreparedNetwork, "reference_route_many")
    assert route_many_multi(tasks, provider=_PROVIDER) == expected


def test_tiny_aggregates_fall_back_per_task(grid_4x4, provider, monkeypatch):
    # Two pairs in total: the aggregate threshold is not met, so the stacked
    # kernel must stay out of the way entirely.
    _forbid(monkeypatch, MultiGraphWalk, "run")
    tasks = [(grid_4x4, [(0, 15), (3, 12)], None)]
    [results] = route_many_multi(tasks, provider=provider)
    engine = prepare(grid_4x4)
    assert results == engine.reference_route_many(
        [(0, 15), (3, 12)], provider=provider
    )


def test_lockstep_false_forces_per_task_reference(monkeypatch):
    graph = generators.grid_graph(8, 8)
    vertices = list(graph.vertices)
    rng = random.Random(3)
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(40)]
    _forbid(monkeypatch, MultiGraphWalk, "run")
    [results] = route_many_multi([(graph, pairs, None)], lockstep=False)
    assert results == prepare(graph).reference_route_many(pairs)


# --------------------------------------------------------------------------- #
# Buffer-cap spill-over
# --------------------------------------------------------------------------- #


def test_buffer_cap_hands_unresolved_pairs_back():
    # A cap too small for even one chunk forces every non-self pair of every
    # job back to the caller; self-pairs still resolve exactly.
    engines = [prepare(generators.grid_graph(4, 4)), prepare(generators.cycle_graph(9))]
    steppers = [batched_walk_for(engine.kernel) for engine in engines]
    multi = multigraph_walk_for(steppers)
    jobs = []
    for slot, engine in enumerate(engines):
        bound = engine.resolve_size_bound(0)
        offsets = engine.offsets_for(bound, _PROVIDER)
        jobs.append((slot, [(0, 5), (2, 2), (1, 4)], offsets))
    accounts, unresolved = multi.run(jobs, max_buffer_elements=1)
    assert sorted(unresolved) == [(0, 0), (0, 2), (1, 0), (1, 2)]
    for job_index in range(len(jobs)):
        account = accounts[(job_index, 1)]
        assert account.success and account.forward_steps == 0


def test_spilled_pairs_complete_on_the_scalar_kernel(monkeypatch):
    # Wrap the stacked run with a tiny buffer: route_many_multi must finish
    # the spilled pairs on the scalar engine and still match the reference.
    graphs = [generators.grid_graph(6, 6), generators.cycle_graph(30)]
    tasks = []
    expected = []
    for index, graph in enumerate(graphs):
        vertices = list(graph.vertices)
        rng = random.Random(index + 9)
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(12)
        ]
        tasks.append((graph, pairs, None))
        expected.append(
            prepare(graph).reference_route_many(pairs, provider=_PROVIDER)
        )
    original = MultiGraphWalk.run

    def tiny_buffer_run(self, jobs, start_port=0, max_buffer_elements=None):
        return original(self, jobs, start_port=start_port, max_buffer_elements=1)

    monkeypatch.setattr(MultiGraphWalk, "run", tiny_buffer_run)
    assert route_many_multi(tasks, provider=_PROVIDER, lockstep=True) == expected


# --------------------------------------------------------------------------- #
# The sweep runner's batched group path
# --------------------------------------------------------------------------- #


def _mixed_plan():
    scenarios = [
        ScenarioSpec(name="mg-grid-16", family="grid", size=16, seed=0),
        ScenarioSpec(name="mg-ring-12", family="ring", size=12, seed=1),
        ScenarioSpec(name="mg-two-rings-10", family="two-rings", size=10, seed=2),
        ScenarioSpec(
            name="mg-udg-14",
            family="unit-disk",
            size=14,
            seed=3,
            radius=0.45,
        ),
        ScenarioSpec(
            name="mg-dyn-9",
            family="ring",
            size=9,
            seed=4,
            extra=(("mutation", "relabel"), ("snapshots", 2), ("switch_every", 4)),
        ),
    ]
    return plan_sweep(
        scenarios,
        routers=("ues-engine", "greedy"),
        pairs=5,
        master_seed=11,
        experiment="mg-parity",
    )


def test_evaluate_shards_matches_per_shard_reference():
    plan = _mixed_plan()
    reference = [evaluate_shard(shard) for shard in plan.shards]
    for multigraph in (None, True, False):
        assert evaluate_shards(plan.shards, multigraph=multigraph) == reference
