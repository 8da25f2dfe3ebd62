"""The lockstep batched walk kernel vs the scalar reference, property-tested.

The batched path of ``route_many`` (:mod:`repro.core.batch_kernel`) must be
an *invisible* optimisation: for any scenario — connected or disconnected,
static or dynamic — and any pair batch — including repeated pairs and
self-pairs — its output must equal the scalar reference loop element for
element.  Hypothesis drives that equality over random networks, random
schedules and random batches, and a deterministic schedule matrix checks
that every outcome and switches after the flip at tick ``L`` are covered;
unit tests pin the dispatch policy (auto threshold, forced modes, dispatch
counters) and the trajectory-buffer cap's scalar spill-over.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ScenarioSpec, build_schedule
from repro.api import Session
from repro.core import batch_kernel
from repro.core.batch_kernel import batched_walk_for
from repro.core.engine import (
    PreparedNetwork,
    clear_prepared_caches,
    prepare,
    prepare_schedule,
    prepared_cache_info,
)
from repro.core.universal import RandomSequenceProvider
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import DynamicOutcome, TopologySchedule

#: One provider shared across examples so the per-size sequence cache is hit.
_PROVIDER = RandomSequenceProvider(seed=77)

_RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _random_graph(n: int, p: float, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabeledGraph.from_edges(edges, vertices=range(n))


# --------------------------------------------------------------------------- #
# Hypothesis: batched == reference, element for element
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=0.8),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    pair_seed=st.integers(min_value=0, max_value=10_000),
    num_pairs=st.integers(min_value=1, max_value=40),
    size_bound=st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7, 8]),
    start_port=st.sampled_from([0, 1, 2]),
)
def test_static_route_many_batched_equals_reference(
    n, p, graph_seed, pair_seed, num_pairs, size_bound, start_port
):
    graph = _random_graph(n, p, graph_seed)
    engine = prepare(graph)
    rng = random.Random(pair_seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(num_pairs)]
    # Repeated pairs and self-pairs are part of the contract.
    pairs.append(pairs[0])
    pairs.append((pairs[0][0], pairs[0][0]))
    options = dict(provider=_PROVIDER, size_bound=size_bound, start_port=start_port)
    reference = engine.reference_route_many(pairs, **options)
    batched = engine.route_many(pairs, lockstep=True, **options)
    assert batched == reference


@st.composite
def _schedule_cases(draw):
    family = draw(st.sampled_from(["grid", "ring", "tree", "two-rings"]))
    size = draw(st.integers(min_value=8, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=50))
    mutation = draw(st.sampled_from(["relabel", "drop-edge", "static"]))
    snapshots = draw(st.integers(min_value=1, max_value=3))
    # Small size bounds give short sequences, so switches land before, at
    # and after the flip at tick L (the backward phase under switches).
    switch_every = draw(st.integers(min_value=1, max_value=80))
    size_bound = draw(st.sampled_from([None, 1, 2, 3, 4, 5, 6]))
    spec = ScenarioSpec(
        name=f"h-{family}-{size}-{seed}-{mutation}-{snapshots}-{switch_every}",
        family=family,
        size=size,
        seed=seed,
        extra=(
            ("mutation", mutation),
            ("snapshots", snapshots),
            ("switch_every", switch_every),
        ),
    )
    schedule = build_schedule(spec)
    vertices = list(schedule.snapshots[0].vertices)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    count = draw(st.integers(min_value=1, max_value=12))
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]
    pairs.append(pairs[0])
    pairs.append((pairs[0][0], pairs[0][0]))
    return schedule, pairs, size_bound


@_RELAXED
@given(case=_schedule_cases())
def test_schedule_route_many_batched_equals_reference(case):
    schedule, pairs, size_bound = case
    engine = prepare_schedule(schedule)
    reference = engine.reference_route_many(
        pairs, provider=_PROVIDER, size_bound=size_bound
    )
    batched = engine.route_many(
        pairs, provider=_PROVIDER, size_bound=size_bound, lockstep=True
    )
    assert batched == reference


# --------------------------------------------------------------------------- #
# Deterministic schedule matrix: every outcome, switches in both phases
# --------------------------------------------------------------------------- #

_MATRIX_FAMILIES = ("grid", "ring", "tree", "two-rings", "torus")
_MATRIX_SWITCH_EVERY = (1, 3, 17, 40, 64, 200)
_MATRIX_SIZE_BOUNDS = (None, 1, 2, 3, 5, 9)


@functools.lru_cache(maxsize=None)
def _matrix_cell(mutation, switch_every):
    """Route one (mutation, switch_every) slice of the matrix both ways.

    Returns ``(results, backward_switches)``: the scalar results (asserted
    equal to the lockstep ones) and how many walks met a real switch after
    the flip at tick ``L``.
    """
    results = []
    backward_switches = 0
    for family, snapshots in itertools.product(_MATRIX_FAMILIES, (2, 5)):
        spec = ScenarioSpec(
            name=f"m-{family}-{mutation}-{switch_every}-{snapshots}",
            family=family,
            size=16,
            seed=switch_every + snapshots,
            extra=(
                ("mutation", mutation),
                ("snapshots", snapshots),
                ("switch_every", switch_every),
            ),
        )
        schedule = build_schedule(spec)
        engine = prepare_schedule(schedule)
        vertices = list(schedule.snapshots[0].vertices)
        rng = random.Random(7 * switch_every + snapshots)
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(8)]
        real_switches = [
            start
            for index, start in enumerate(schedule.switch_times)
            if index and schedule.snapshots[index] is not schedule.snapshots[index - 1]
        ]
        for size_bound in _MATRIX_SIZE_BOUNDS:
            reference = engine.reference_route_many(
                pairs, provider=_PROVIDER, size_bound=size_bound
            )
            batched = engine.route_many(
                pairs, provider=_PROVIDER, size_bound=size_bound, lockstep=True
            )
            assert batched == reference, (family, snapshots, size_bound)
            results.extend(reference)
            for (source, _target), result in zip(pairs, reference):
                bound = engine.snapshot_engine(0).resolve_size_bound(source, size_bound)
                length = len(engine.snapshot_engine(0).offsets_for(bound, _PROVIDER))
                forward_switches = sum(1 for start in real_switches if start <= length)
                if result.switches_survived > forward_switches:
                    backward_switches += 1
    return tuple(results), backward_switches


@pytest.mark.parametrize("switch_every", _MATRIX_SWITCH_EVERY)
@pytest.mark.parametrize("mutation", ["relabel", "drop-edge", "static"])
def test_schedule_matrix_batched_equals_reference(mutation, switch_every):
    _matrix_cell(mutation, switch_every)


def test_schedule_matrix_covers_every_outcome():
    seen = set()
    backward_switches = 0
    for mutation in ("relabel", "drop-edge", "static"):
        for switch_every in _MATRIX_SWITCH_EVERY:
            results, backward = _matrix_cell(mutation, switch_every)
            seen.update((result.outcome, result.sound) for result in results)
            backward_switches += backward
    assert seen >= {
        (DynamicOutcome.DELIVERED, True),
        (DynamicOutcome.REPORTED_FAILURE, True),
        (DynamicOutcome.REPORTED_FAILURE, False),
        (DynamicOutcome.STRANDED, False),
    }
    assert backward_switches > 0


@pytest.mark.parametrize("lockstep", [True, False])
def test_out_of_range_targets_report_failure(grid_4x4, lockstep):
    # Targets no vertex carries, including ones outside int32 and int64,
    # fail like any unreachable target instead of raising.
    pairs = [(0, 99), (0, -1), (3, 2**40), (5, 2**70), (0, 15)]
    schedule = TopologySchedule(
        snapshots=(grid_4x4, grid_4x4.with_relabeled_ports(random.Random(1))),
        switch_times=(0, 5),
    )
    engine = prepare(grid_4x4)
    results = engine.route_many(pairs, provider=_PROVIDER, lockstep=lockstep)
    assert results == engine.reference_route_many(pairs, provider=_PROVIDER)
    assert [result.delivered for result in results] == [False] * 4 + [True]
    engine = prepare_schedule(schedule)
    results = engine.route_many(pairs, provider=_PROVIDER, lockstep=lockstep)
    assert results == engine.reference_route_many(pairs, provider=_PROVIDER)
    assert [result.outcome for result in results] == [
        DynamicOutcome.REPORTED_FAILURE
    ] * 4 + [DynamicOutcome.DELIVERED]


# --------------------------------------------------------------------------- #
# Dispatch policy and fallbacks
# --------------------------------------------------------------------------- #


def _forbid_batched(monkeypatch, cls, name="_route_many_batched"):
    def _fail(self, *args, **kwargs):  # pragma: no cover - failure path only
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(cls, name, _fail)


def test_small_batches_take_the_reference_path(grid_4x4, provider, monkeypatch):
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    pairs = [(0, 15), (3, 12)]  # below the auto threshold
    assert engine.route_many(pairs, provider=provider) == engine.reference_route_many(
        pairs, provider=provider
    )


def test_lockstep_false_forces_the_reference_path(grid_4x4, provider, monkeypatch):
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    pairs = [(0, 15)] * 40  # above the auto threshold
    results = engine.route_many(pairs, provider=provider, lockstep=False)
    assert results == engine.reference_route_many(pairs, provider=provider)


def test_auto_policy_routes_large_batches_through_the_kernel(provider, monkeypatch):
    # Large batch x large kernel clears both auto thresholds: the default
    # dispatch must take the lockstep kernel (the scalar loop is forbidden
    # below) and still reproduce the reference results exactly.
    graph = generators.grid_graph(12, 12)
    engine = prepare(graph)
    rng = random.Random(5)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
    expected = engine.reference_route_many(pairs, provider=provider)
    _forbid_batched(monkeypatch, PreparedNetwork, name="reference_route_many")
    assert engine.route_many(pairs, provider=provider) == expected


def test_auto_policy_keeps_small_graphs_on_the_reference_path(
    grid_4x4, provider, monkeypatch
):
    # A big batch over a tiny kernel fails the work-product threshold: the
    # scalar loop is faster there, so the default must not vectorize.
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    rng = random.Random(5)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(48)]
    assert engine.route_many(pairs, provider=provider) == (
        engine.reference_route_many(pairs, provider=provider)
    )


def test_buffer_cap_hands_unresolved_pairs_back(provider):
    # A cap too small for even one chunk forces every non-self pair back to
    # the caller; the pairs the stepper does resolve must still be exact.
    graph = generators.grid_graph(4, 4)
    engine = prepare(graph)
    stepper = batched_walk_for(engine.kernel)
    pairs = [(0, 15), (3, 3), (1, 14)]
    bound = engine.resolve_size_bound(0)
    offsets = engine.offsets_for(bound, _PROVIDER)
    accounts, unresolved = stepper.run(pairs, offsets, max_buffer_elements=1)
    assert sorted(unresolved) == [0, 2]
    assert accounts[1].success and accounts[1].forward_steps == 0


def test_engine_finishes_capped_batches_on_the_scalar_kernel(
    grid_4x4, provider, monkeypatch
):
    # When the stepper truncates, _route_many_batched must finish the
    # unresolved pairs on the scalar kernel — results stay bitwise identical.
    class _TinyCapStepper:
        def __init__(self, inner):
            self._inner = inner

        def run(self, pairs, offsets, start_port=0):
            return self._inner.run(
                pairs, offsets, start_port=start_port, max_buffer_elements=1
            )

    engine = prepare(grid_4x4)
    inner = batched_walk_for(engine.kernel)
    monkeypatch.setattr(
        batch_kernel, "batched_walk_for", lambda kernel: _TinyCapStepper(inner)
    )
    rng = random.Random(9)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(20)]
    clear_prepared_caches()
    batched = engine.route_many(pairs, provider=provider, lockstep=True)
    # Every pair that has to walk spills at a one-element cap, and counts.
    assert prepared_cache_info()["lockstep_spilled_pairs"] == sum(
        1 for source, target in pairs if source != target
    )
    assert batched == engine.reference_route_many(pairs, provider=provider)


def test_dispatch_counters_count_each_batch(grid_4x4, provider):
    clear_prepared_caches()
    engine = prepare(grid_4x4)
    engine.route_many([(0, 15)] * 40, provider=provider, lockstep=True)
    # A single-graph batch runs on its own fused tables, never a stacked one.
    assert batch_kernel.batch_cache_info()["multigraph_kernels"] == 0
    engine.route_many([(0, 15), (3, 12)], provider=provider)
    info = Session().cache_info()
    assert info["lockstep_batches"] == 1
    assert info["scalar_batches"] == 1
    assert info["lockstep_spilled_pairs"] == 0
    clear_prepared_caches()
    info = prepared_cache_info()
    assert info["lockstep_batches"] == info["scalar_batches"] == 0


def test_dispatch_counters_lose_no_update_across_threads(grid_4x4):
    # The daemon dispatches batches from several threads at once.
    clear_prepared_caches()
    engine = prepare(grid_4x4)
    calls = 500

    def dispatch_many():
        for _ in range(calls):
            engine.route_many([], lockstep=False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=dispatch_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert prepared_cache_info()["scalar_batches"] == 8 * calls
