"""Task execution bodies shared by every backend.

Each function here materialises one request against the prepared engines and
produces a :class:`TaskComputation` — the backend-independent part of a
:class:`~repro.api.envelope.TaskResult` (status, JSON-safe payload, step
accounting, seed provenance).  Backends add what only they know: their id and
the wall-clock timing.  Keeping the bodies in one place is what guarantees
the differential-parity property the test suite asserts: two backends that
run the same request share these exact code paths for everything except
*where* the work happens.

Scenario materialisation goes through a :class:`ScenarioStore` — the
per-session cache of built networks and schedules — so a session that
submits many tasks over the same :class:`~repro.analysis.experiments.ScenarioSpec`
builds the graph once and the identity-keyed engine caches
(:func:`repro.core.engine.prepare` / ``prepare_schedule``) hit on every
subsequent task.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.experiments import (
    ScenarioSpec,
    build_scenario,
    build_schedule,
    pick_source_target_pairs,
)
from repro.analysis.metrics import (
    delivery_rate,
    failure_detection_rate,
    mean_hops,
    observation_from_attempt,
    observation_from_route,
)
from repro.baselines import applicable_routers
from repro.baselines.base import RouterSpec
from repro.core.broadcast import broadcast
from repro.core.counting import count_nodes
from repro.core.engine import prepare, prepare_schedule
from repro.core.routing import RouteResult
from repro.core.stconnectivity import exploration_connectivity
from repro.network.dynamics import DynamicOutcome

__all__ = [
    "ScenarioStore",
    "TaskComputation",
    "result_provenance",
    "route_result_payload",
    "dynamic_result_payload",
    "reliable_broadcast_payload",
    "execute_route",
    "execute_route_batch",
    "execute_schedule_route",
    "execute_broadcast",
    "execute_broadcast_reliable",
    "execute_count",
    "execute_connectivity",
    "execute_compare",
    "execute_sweep",
    "execute_conformance",
]


@dataclass
class TaskComputation:
    """The backend-independent slice of a task result."""

    status: str
    payload: Dict[str, object]
    physical_steps: Optional[int] = None
    virtual_steps: Optional[int] = None
    seed: Optional[int] = None


def result_provenance(request) -> Dict[str, object]:
    """The provenance block every backend stamps into its results.

    Computed here — next to the shared executor bodies, in exactly one place
    — so all backends emit it *by construction* and the differential-parity
    tests keep holding: the block is a pure function of the request envelope
    and process-invariant constants (code/schema version, kernel pack-format
    fingerprint).  ``parent`` stays ``None`` until a
    :class:`repro.provenance.log.ResultLog` append patches in its chain
    position (:meth:`~repro.provenance.log.ResultLog.append_task`).
    """
    # Imported lazily: provenance.records encodes requests via the envelope
    # codec, which imports this module's request types transitively.
    from repro.core.kernel_store import store_fingerprint
    from repro.provenance.records import (
        PROVENANCE_SCHEMA_VERSION,
        code_version,
        task_address,
    )

    return {
        "address": task_address(request),
        "schema_version": PROVENANCE_SCHEMA_VERSION,
        "code_version": code_version(),
        "kernel_store": store_fingerprint(),
        "parent": None,
    }


class ScenarioStore:
    """Per-session cache of materialised scenarios (networks and schedules).

    Specs are frozen dataclasses, so the key is the spec itself; a spec whose
    ``extra`` smuggles unhashable values is built fresh and not cached (same
    tolerance as the sweep runner's per-process cache).  Bounded so a
    long-lived session over many scenarios does not pin them all.  ``hits`` /
    ``misses`` feed :meth:`repro.api.session.Session.cache_info`.

    Thread-safe: the server (:mod:`repro.server`) dispatches one shared
    session from a thread pool, so the cache's compound mutations are guarded
    by a lock.  Scenario *builds* run outside the lock (they dominate the
    cost); two threads racing on the same cold spec may both build it — the
    builds are deterministic, so either result is correct and one wins the
    cache slot.
    """

    _LIMIT = 32

    def __init__(self) -> None:
        self._networks: "OrderedDict[ScenarioSpec, object]" = OrderedDict()
        self._schedules: "OrderedDict[ScenarioSpec, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _get(self, cache: OrderedDict, spec: ScenarioSpec, build):
        with self._lock:
            try:
                cached = cache.get(spec)
            except TypeError:  # unhashable extra values: build fresh, skip caching
                cached = None
                spec_hashable = False
            else:
                spec_hashable = True
            if cached is not None:
                self.hits += 1
                cache.move_to_end(spec)
                return cached
            self.misses += 1
        built = build(spec)
        if spec_hashable:
            with self._lock:
                cache[spec] = built
                while len(cache) > self._LIMIT:
                    cache.popitem(last=False)
        return built

    def network(self, spec: ScenarioSpec):
        """The built :class:`~repro.network.adhoc.AdHocNetwork` for ``spec``."""
        return self._get(self._networks, spec, build_scenario)

    def schedule(self, spec: ScenarioSpec):
        """The built :class:`~repro.network.dynamics.TopologySchedule` for ``spec``."""
        return self._get(self._schedules, spec, build_schedule)

    def info(self) -> Dict[str, int]:
        """Session-scoped cache statistics."""
        return {
            "session_networks": len(self._networks),
            "session_schedules": len(self._schedules),
            "session_hits": self.hits,
            "session_misses": self.misses,
        }


# --------------------------------------------------------------------------- #
# Payload shapes
# --------------------------------------------------------------------------- #


def route_result_payload(result: RouteResult) -> Dict[str, object]:
    """One static routing attempt as a JSON-safe mapping (the wire shape)."""
    return {
        "outcome": result.outcome.value,
        "delivered": result.delivered,
        "source": result.source,
        "target": result.target,
        "size_bound": result.size_bound,
        "sequence_length": result.sequence_length,
        "forward_virtual_steps": result.forward_virtual_steps,
        "backward_virtual_steps": result.backward_virtual_steps,
        "physical_hops": result.physical_hops,
        "target_found_at_step": result.target_found_at_step,
        "header_bits": result.header_bits,
    }


def dynamic_result_payload(result) -> Dict[str, object]:
    """One schedule routing attempt as a JSON-safe mapping (the wire shape)."""
    return {
        "outcome": result.outcome.value,
        "steps_taken": result.steps_taken,
        "switches_survived": result.switches_survived,
        "sound": result.sound,
        "detail": result.detail,
    }


def _resolve_pairs(request, network_or_graph) -> List[Tuple[int, int]]:
    if request.pairs is not None:
        return list(request.pairs)
    return pick_source_target_pairs(
        network_or_graph, request.num_pairs, seed=request.pair_seed
    )


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #


def execute_route(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``route`` task (Algorithm ``Route``, prepared engine)."""
    network = store.network(request.scenario)
    result = prepare(network.graph).route(
        request.source,
        request.target,
        size_bound=request.size_bound,
        start_port=request.start_port,
        namespace_size=network.namespace_size,
    )
    return TaskComputation(
        status=result.outcome.value,
        payload=route_result_payload(result),
        physical_steps=result.physical_hops,
        virtual_steps=result.total_virtual_steps,
        seed=request.scenario.seed,
    )


def execute_route_batch(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``route-many`` task against one prepared engine.

    ``route_many`` routes large batches through the lockstep batched walk
    kernel (:mod:`repro.core.batch_kernel`) and small batches through the
    scalar reference loop — results are identical either way, so the choice
    never shows in the payload.
    """
    network = store.network(request.scenario)
    pairs = _resolve_pairs(request, network)
    results = prepare(network.graph).route_many(
        pairs, size_bound=request.size_bound, namespace_size=network.namespace_size
    )
    return assemble_route_batch(request, pairs, [route_result_payload(r) for r in results])


def assemble_route_batch(
    request, pairs: List[Tuple[int, int]], payloads: List[Dict[str, object]]
) -> TaskComputation:
    """Fold per-route payloads into the batch envelope (shared by backends)."""
    return TaskComputation(
        status="ok",
        payload={
            "pairs": [[s, t] for s, t in pairs],
            "results": payloads,
            "delivered": sum(1 for p in payloads if p["delivered"]),
        },
        physical_steps=sum(p["physical_hops"] for p in payloads),
        virtual_steps=sum(
            p["forward_virtual_steps"] + p["backward_virtual_steps"] for p in payloads
        ),
        seed=request.pair_seed,
    )


def execute_schedule_route(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``route-schedule`` task (dynamic-topology extension)."""
    schedule = store.schedule(request.scenario)
    engine = prepare_schedule(schedule)
    pairs = _resolve_pairs(request, schedule.snapshots[0])
    results = engine.route_many(pairs, size_bound=request.size_bound)
    payloads = [dynamic_result_payload(r) for r in results]
    return TaskComputation(
        status="ok",
        payload={
            "pairs": [[s, t] for s, t in pairs],
            "results": payloads,
            "delivered": sum(
                1 for r in results if r.outcome is DynamicOutcome.DELIVERED
            ),
            "num_snapshots": engine.num_snapshots,
            "num_compiled_kernels": engine.num_compiled_kernels,
        },
        virtual_steps=sum(r.steps_taken for r in results),
        seed=request.pair_seed,
    )


def execute_broadcast(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``broadcast`` task (plus the flooding comparison)."""
    from repro.baselines.flooding import flood_broadcast

    network = store.network(request.scenario)
    result = broadcast(
        network.graph, request.source, namespace_size=network.namespace_size
    )
    flood = flood_broadcast(network.graph, request.source)
    return TaskComputation(
        status="covered" if result.covered_component else "partial",
        payload={
            "source": result.source,
            "reached": sorted(result.reached),
            "reach_count": result.reach_count,
            "component_size": result.component_size,
            "covered_component": result.covered_component,
            "virtual_steps": result.virtual_steps,
            "physical_hops": result.physical_hops,
            "sequence_length": result.sequence_length,
            "size_bound": result.size_bound,
            "header_bits": result.header_bits,
            "flooding": {
                "transmissions": flood.transmissions,
                "rounds": flood.rounds,
            },
        },
        physical_steps=result.physical_hops,
        virtual_steps=result.virtual_steps,
        seed=request.scenario.seed,
    )


def reliable_broadcast_payload(result) -> Dict[str, object]:
    """One reliable-broadcast run as a JSON-safe mapping (the wire shape)."""
    return {
        "source": result.source,
        "value": result.value,
        "n": result.n,
        "f_tolerated": result.thresholds.f_tolerated,
        "echo_quorum": result.thresholds.echo_quorum,
        "ready_support": result.thresholds.ready_support,
        "delivery_quorum": result.thresholds.delivery_quorum,
        "byzantine": [[node, behavior] for node, behavior in result.byzantine],
        "crashed": list(result.crashed),
        "honest": list(result.honest),
        "delivered": [[node, value] for node, value in result.delivered],
        "delivery_times": [[node, time] for node, time in result.delivery_times],
        "origin_sent_values": list(result.origin_sent_values),
        "agreement": result.agreement,
        "totality": result.totality,
        "no_false_delivery": result.no_false_delivery,
        "messages_sent": result.messages_sent,
        "final_time": result.final_time,
        "header_bits": result.header_bits,
        "evidence": [
            {
                "accused": item.accused,
                "witness": item.witness,
                "kind": item.kind,
                "detail": item.detail,
            }
            for item in result.evidence
        ],
    }


def execute_broadcast_reliable(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``broadcast-reliable`` task (Bracha over the UES stack)."""
    from repro.core.reliable_broadcast import broadcast_reliably
    from repro.network.byzantine import ByzantinePlan
    from repro.network.failures import FailurePlan

    network = store.network(request.scenario)
    graph = network.graph
    if request.byzantine:
        plan = ByzantinePlan(
            behaviors={node: behavior for node, behavior in request.byzantine},
            delay=request.delay,
            seed=request.fault_seed,
        )
    elif request.num_byzantine:
        plan = ByzantinePlan.random_plan(
            graph,
            request.num_byzantine,
            seed=request.fault_seed,
            behaviors=request.behaviors,
            delay=request.delay,
        )
    else:
        plan = None
    failures = (
        FailurePlan(failed_nodes=set(request.crashes)) if request.crashes else None
    )
    result = broadcast_reliably(
        graph,
        request.source,
        value=request.value,
        plan=plan,
        failures=failures,
        namespace_size=network.namespace_size,
    )
    return TaskComputation(
        status="agreed" if (result.agreement and result.totality) else "diverged",
        payload=reliable_broadcast_payload(result),
        physical_steps=result.messages_sent,
        virtual_steps=result.final_time,
        seed=request.fault_seed,
    )


def execute_count(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``count`` task (Algorithm ``CountNodes``)."""
    network = store.network(request.scenario)
    result = count_nodes(network.graph, request.source)
    return TaskComputation(
        status="ok",
        payload={
            "source": result.source,
            "original_count": result.original_count,
            "virtual_count": result.virtual_count,
            "rounds": result.rounds,
            "final_exponent": result.final_exponent,
            "final_bound": result.final_bound,
            "sequence_length": result.sequence_length,
            "walk_steps": result.walk_steps,
            "correct": result.correct,
        },
        virtual_steps=result.walk_steps,
        seed=request.scenario.seed,
    )


def execute_connectivity(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``connectivity`` task (USTCON by exploration)."""
    network = store.network(request.scenario)
    answer = exploration_connectivity(network.graph, request.source, request.target)
    return TaskComputation(
        status="connected" if answer.connected else "disconnected",
        payload={
            "source": answer.source,
            "target": answer.target,
            "connected": answer.connected,
            "walk_steps": answer.walk_steps,
            "sequence_length": answer.sequence_length,
            "size_bound": answer.size_bound,
            "decided_early": answer.decided_early,
        },
        virtual_steps=answer.walk_steps,
        seed=request.scenario.seed,
    )


def _compare_row(name: str, observations) -> List[object]:
    return [
        name,
        len(observations),
        round(delivery_rate(observations), 3),
        round(failure_detection_rate(observations), 3),
        round(mean_hops(observations) or 0.0, 1),
        max(o.per_node_state_bits for o in observations),
    ]


def execute_compare(request, store: ScenarioStore) -> TaskComputation:
    """Body of the ``compare`` task: the guaranteed router vs. every baseline."""
    network = store.network(request.scenario)
    graph, deployment = network.graph, network.deployment
    dimension = deployment.dimension if deployment is not None else None
    pairs = pick_source_target_pairs(network, request.num_pairs, seed=request.pair_seed)
    engine = prepare(graph)
    routers: List[RouterSpec] = list(applicable_routers(deployment, dimension))
    observations: Dict[str, list] = {"ues-route": []}
    for router in routers:
        observations[router.name] = []
    for source, target in pairs:
        observations["ues-route"].append(
            observation_from_route(graph, engine.route(source, target))
        )
        for router in routers:
            observations[router.name].append(
                observation_from_attempt(
                    graph,
                    source,
                    target,
                    router.run(graph, deployment, source, target, request.pair_seed),
                )
            )
    return TaskComputation(
        status="ok",
        payload={
            "pairs": [[s, t] for s, t in pairs],
            "headers": [
                "algorithm",
                "pairs",
                "delivery",
                "failure detection",
                "mean hops",
                "node state bits",
            ],
            "rows": [_compare_row(name, obs) for name, obs in observations.items()],
        },
        seed=request.pair_seed,
    )


def execute_sweep(request, workers: int) -> TaskComputation:
    """Body of the ``sweep`` task; ``workers`` is decided by the backend.

    The runner batches each worker's static engine shards through the
    multi-graph lockstep kernel automatically (``run_sweep``'s default
    ``multigraph=None`` auto-dispatch); rows are bitwise identical to the
    per-shard reference path either way.
    """
    from repro.analysis.runner import plan_sweep, run_sweep

    plan = plan_sweep(
        list(request.scenarios),
        routers=request.routers,
        pairs=request.pairs,
        master_seed=request.master_seed,
        experiment=request.experiment,
    )
    outcome = run_sweep(
        plan, workers=workers, out_path=request.out_path, resume=request.resume
    )
    return TaskComputation(
        status="ok",
        payload={
            "experiment": outcome.table.experiment,
            "num_scenarios": len(request.scenarios),
            "headers": list(outcome.table.headers),
            "rows": [list(row) for row in outcome.table.rows],
            "shards_total": outcome.shards_total,
            "shards_executed": outcome.shards_executed,
            "shards_skipped": outcome.shards_skipped,
            "out_path": outcome.out_path,
        },
        seed=request.master_seed,
    )


def execute_conformance(request, workers: int) -> TaskComputation:
    """Body of the ``conformance`` task; ``workers`` decided by the backend."""
    from repro.analysis.conformance import conformance_pass

    report = conformance_pass(
        scenarios=request.scenarios,
        pairs_per_scenario=request.pairs_per_scenario,
        seed=request.seed,
        workers=workers,
    )
    return TaskComputation(
        status="ok" if report.ok else "violations",
        payload={
            "headers": list(report.headers),
            "rows": [list(row) for row in report.rows],
            "checks": report.checks,
            "ok": report.ok,
            "violations": [
                {
                    "scenario": v.scenario,
                    "router": v.router,
                    "source": v.source,
                    "target": v.target,
                    "invariant": v.invariant,
                    "detail": v.detail,
                }
                for v in report.violations
            ],
        },
        seed=request.seed,
    )
