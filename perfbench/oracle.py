"""Output checks that do not go through the routing engine.

Every timed result is checked against facts computed here from the built
graph alone, by breadth-first search: the paper's guarantee is that a
message is delivered exactly when the target is in the source's connected
component, and that a disconnected pair ends in a confirmed FAILURE.  A few
checks compare against an executable reference instead — the scalar
``reference_route_many`` of ``PreparedNetwork`` and ``PreparedSchedule`` for
sampled batch and schedule pairs, and an inline ``Session.submit`` for
sampled served results — and the served result log must verify as an
unbroken hash chain.

Each check returns ``None`` for a correct result or a one-line reason.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def components(graph) -> Dict[object, int]:
    """Component index of every vertex, by BFS over the port-labelled graph."""
    component: Dict[object, int] = {}
    label = 0
    for start in graph.vertices:
        if start in component:
            continue
        label += 1
        component[start] = label
        frontier = [start]
        while frontier:
            vertex = frontier.pop()
            for neighbour in graph.neighbors(vertex):
                if neighbour not in component:
                    component[neighbour] = label
                    frontier.append(neighbour)
    return component


class Oracle:
    """Per-scenario ground truth, built once in set-up from the specs used."""

    def __init__(self) -> None:
        self._networks: Dict[object, object] = {}
        self._schedules: Dict[object, object] = {}
        self._component: Dict[object, Dict[object, int]] = {}
        self._snapshot_components: Dict[object, List[Dict[object, int]]] = {}

    def learn(self, spec) -> None:
        """Build ``spec``'s graph (or schedule) and record its components."""
        from repro.analysis.experiments import build_scenario, build_schedule, is_dynamic_scenario

        if spec in self._component:
            return
        if is_dynamic_scenario(spec):
            schedule = build_schedule(spec)
            self._schedules[spec] = schedule
            self._snapshot_components[spec] = [components(g) for g in schedule.snapshots]
            self._component[spec] = self._snapshot_components[spec][0]
            return
        network = build_scenario(spec)
        self._networks[spec] = network
        self._component[spec] = components(network.graph)

    def vertices(self, spec) -> list:
        """The scenario's vertices, sorted."""
        return sorted(self._component[spec])

    def connected(self, spec, source, target) -> bool:
        component = self._component[spec]
        return component[source] == component[target]

    def component_size(self, spec, vertex) -> int:
        component = self._component[spec]
        return sum(1 for label in component.values() if label == component[vertex])

    # ------------------------------------------------------------------ #
    # Per-result checks
    # ------------------------------------------------------------------ #

    def check(self, request, result) -> Optional[str]:
        """Why ``result`` is wrong for ``request``, or ``None`` when it is right."""
        checker = getattr(self, "_check_" + type(request).__name__, None)
        if checker is None:
            return f"no oracle for {type(request).__name__}"
        return checker(request, result)

    def _route_payload(self, spec, payload) -> Optional[str]:
        source, target = payload["source"], payload["target"]
        connected = self.connected(spec, source, target)
        if payload["delivered"] != connected:
            return f"{spec.name} {source}->{target}: delivered={payload['delivered']} but connected={connected}"
        expected = "success" if connected else "failure"
        if payload["outcome"] != expected:
            return f"{spec.name} {source}->{target}: outcome {payload['outcome']!r}, expected {expected!r}"
        if not connected and payload["forward_virtual_steps"] != payload["sequence_length"]:
            return f"{spec.name} {source}->{target}: failure not confirmed by a full walk"
        return None

    def _check_RouteRequest(self, request, result) -> Optional[str]:
        if result.status != result.payload["outcome"]:
            return f"route status {result.status!r} disagrees with its payload"
        return self._route_payload(request.scenario, result.payload)

    def _check_RouteBatchRequest(self, request, result) -> Optional[str]:
        payloads = result.payload["results"]
        if request.pairs is not None and len(payloads) != len(request.pairs):
            return f"batch returned {len(payloads)} results for {len(request.pairs)} pairs"
        for payload in payloads:
            problem = self._route_payload(request.scenario, payload)
            if problem:
                return problem
        return None

    def _check_ConnectivityRequest(self, request, result) -> Optional[str]:
        connected = self.connected(request.scenario, request.source, request.target)
        if result.payload["connected"] != connected:
            return f"connectivity {request.source}-{request.target}: said {result.payload['connected']}, BFS {connected}"
        return None

    def _check_CountRequest(self, request, result) -> Optional[str]:
        size = self.component_size(request.scenario, request.source)
        if result.payload["original_count"] != size or not result.payload["correct"]:
            return f"count from {request.source}: {result.payload['original_count']} != component size {size}"
        return None

    def _check_SweepRequest(self, request, result) -> Optional[str]:
        by_name = {spec.name: spec for spec in request.scenarios}
        expected_rows = len(request.scenarios) * request.pairs * len(request.routers)
        rows = result.payload["rows"]
        if len(rows) != expected_rows:
            return f"sweep returned {len(rows)} rows, expected {expected_rows}"
        for name, _family, _size, _router, source, target, delivered, detected, _hops, _steps in rows:
            connected = self.connected(by_name[name], source, target)
            if delivered != connected or detected == connected:
                return f"sweep {name} {source}->{target}: delivered={delivered} detected={detected}, connected={connected}"
        return None

    def _check_ScheduleRouteRequest(self, request, result) -> Optional[str]:
        snapshots = self._snapshot_components[request.scenario]
        expected = len(request.pairs) if request.pairs is not None else request.num_pairs
        results = result.payload["results"]
        if len(results) != expected or len(result.payload["pairs"]) != expected:
            return f"schedule batch returned {len(results)} results for {expected} pairs"
        for (source, target), payload in zip(result.payload["pairs"], results):
            ever = any(c[source] == c[target] for c in snapshots)
            always = all(c[source] == c[target] for c in snapshots)
            outcome = payload["outcome"]
            if outcome == "stranded":
                return f"schedule {source}->{target}: walk stranded"
            if outcome == "delivered" and not ever:
                return f"schedule {source}->{target} delivered but never connected"
            if outcome == "reported-failure" and payload["sound"] == always:
                return f"schedule {source}->{target}: failure soundness {payload['sound']} but always-connected={always}"
        if result.payload["delivered"] != sum(1 for payload in results if payload["outcome"] == "delivered"):
            return f"schedule batch counts {result.payload['delivered']} deliveries, its results disagree"
        return None

    def _check_BroadcastReliableRequest(self, request, result) -> Optional[str]:
        payload = result.payload
        faulty = len(request.byzantine) or request.num_byzantine
        faulty += len(request.crashes)
        if 3 * faulty >= self.component_size(request.scenario, request.source):
            return "workload error: broadcast-reliable requests must keep f < N/3"
        if len(payload["byzantine"]) + len(payload["crashed"]) != faulty:
            return f"reliable broadcast reports {payload['byzantine']} faulty, request asked for {faulty}"
        if result.status != "agreed" or not (payload["agreement"] and payload["totality"]):
            return f"reliable broadcast with f={faulty} < N/3={payload['n']}/3 did not agree"
        return None

    # ------------------------------------------------------------------ #
    # Reference checks (sampled, run after the timed phase)
    # ------------------------------------------------------------------ #

    def check_reference(self, request, result, sample: Sequence[int]) -> Optional[str]:
        """Sampled batch or schedule pairs must equal the scalar ``reference_route_many``."""
        from repro.api.executors import dynamic_result_payload, route_result_payload
        from repro.core.engine import prepare, prepare_schedule

        pairs = [tuple(result.payload["pairs"][i]) for i in sample]
        if request.scenario in self._schedules:
            engine = prepare_schedule(self._schedules[request.scenario])
            reference = engine.reference_route_many(pairs, size_bound=request.size_bound)
            payloads = [dynamic_result_payload(r) for r in reference]
        else:
            network = self._networks[request.scenario]
            reference = prepare(network.graph).reference_route_many(
                pairs, size_bound=request.size_bound, namespace_size=network.namespace_size
            )
            payloads = [route_result_payload(r) for r in reference]
        for index, pair, expected in zip(sample, pairs, payloads):
            if result.payload["results"][index] != expected:
                return f"{request.scenario.name} pair {pair} differs from reference_route_many"
        return None


def masked_wire(result) -> Dict[str, object]:
    """A result's wire form with timing and chain position masked."""
    from repro.api.envelope import to_wire

    wire = to_wire(result)
    fields = wire["fields"]
    fields["elapsed_seconds"] = 0.0
    if fields.get("provenance"):
        fields["provenance"] = dict(fields["provenance"], parent=None)
    return wire


def check_log(path: str) -> Optional[str]:
    """The served result log must verify as one unbroken hash chain."""
    from repro.provenance.log import verify_log

    report = verify_log(path)
    if not report.ok:
        return f"result log {path}: {report.issues[0]}"
    if not report.records:
        return f"result log {path} is empty"
    return None


def reference_sample(count: int, size: int, seed: int) -> List[int]:
    """``count`` distinct indices below ``size``, chosen from ``seed``."""
    import random

    return sorted(random.Random(seed).sample(range(size), min(count, size)))

