"""Per-layer metrics derived from a traced phase's spans and counters.

Every traced run reports the same metric set on every workload (a layer
that did no work reports 0), so the per-layer table of two runs — two
seeds, two commits — always lines up name by name.  Times are self times
(see :mod:`tracing`); unless a name says otherwise, time and count metrics
are averaged per task (one request envelope executed by the program), and
``*_ms``/``*_us`` metrics named after one call (``seal.us``,
``scenario.build_ms``, ...) are averaged per call.  ``NOTES.md`` maps each
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracing import LAYERS, Span, count_totals, layer_self_times, name_self_times

#: Root span the benchmark opens around each task it times.
ROOT = "task"

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("envelope.decode_us", "us"),
    ("envelope.encode_us", "us"),
    ("envelope.bytes", "bytes"),
    ("session.self_us", "us"),
    ("seal.us", "us"),
    ("seal.calls", "count"),
    ("scenario.build_ms", "ms"),
    ("scenario.builds", "count"),
    ("scenario.hit_ratio", "ratio"),
    ("reduction.ms", "ms"),
    ("reduction.calls", "count"),
    ("kernel.compile_ms", "ms"),
    ("kernel.compiles", "count"),
    ("kernel.disk_errors", "count"),
    ("ues.self_ms", "ms"),
    ("ues.offsets_generated", "count"),
    ("ues.ns_per_offset", "ns"),
    ("ues.offset_hit_ratio", "ratio"),
    ("walk.self_us", "us"),
    ("walk.virtual_steps", "count"),
    ("walk.ns_per_step", "ns"),
    ("lockstep.self_ms", "ms"),
    ("lockstep.pairs", "count"),
    ("lockstep.share", "ratio"),
    ("lockstep.batched_pairs", "count"),
    ("lockstep.multigraph_pairs", "count"),
    ("lockstep.schedule_pairs", "count"),
    ("sweep.shard_ms", "ms"),
    ("sweep.shards", "count"),
    ("rbc.self_ms", "ms"),
    ("rbc.physical_steps", "count"),
    ("log.append_us", "us"),
    ("log.bytes", "bytes"),
    ("log.records", "count"),
    ("server.queue_wait_ms", "ms"),
    ("server.http_overhead_ms", "ms"),
    ("server.peak_outstanding", "count"),
    ("server.rejected", "count"),
    ("server.failed", "count"),
] + [(f"{layer}.share_pct", "%") for layer in LAYERS + (ROOT,)] + [
    ("trace.wall_ms", "ms"),
    ("trace.tasks", "count"),
    ("trace.overhead_pct", "%"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def attribute(spans: List[Span], daemon_spans: Optional[List[Span]] = None) -> Tuple[float, Dict[str, float]]:
    """Traced wall time and its split into layer self times (seconds).

    The wall time is the summed duration of the benchmark's root spans.
    Self times of every layer plus the root's own self time add up to it.
    When the program ran in a separate daemon, the daemon's spans are
    attributed by layer too, and the ``server`` layer is what the client's
    root spans spent outside both the client-side layers and the daemon's
    spans: HTTP, queueing and dispatch.
    """
    wall = sum(span.end - span.start for span in spans if span.name == ROOT and span.parent is None)
    layers = layer_self_times(spans)
    if daemon_spans:
        for layer, seconds in layer_self_times(daemon_spans).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        daemon_total = sum(span.end - span.start for span in daemon_spans if span.parent is None)
        layers["server"] = layers.get(ROOT, 0.0) - daemon_total
        layers[ROOT] = 0.0
    return wall, layers


def layer_metrics(
    spans: List[Span],
    tasks: int,
    counters: Dict[str, float],
    daemon_spans: Optional[List[Span]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric for one traced phase of ``tasks`` tasks.

    ``counters`` holds the phase's ``Session.cache_info()`` deltas (or the
    daemon's ``/metrics`` cache deltas); ``extra`` supplies the metrics
    only the workload knows (envelope bytes, server and log counters, the
    tracing overhead).
    """
    every = spans + (daemon_spans or [])
    named = name_self_times(every)
    counts = count_totals(every)
    wall, layers = attribute(spans, daemon_spans)

    def calls(*names: str) -> int:
        return sum(named.get(name, (0, 0.0))[0] for name in names)

    def seconds(*names: str) -> float:
        return sum(named.get(name, (0, 0.0))[1] for name in names)

    per_task = 1.0 / tasks if tasks else 0.0
    lockstep_pairs = sum(
        counts.get(key, 0)
        for key in ("lockstep.batched_pairs", "lockstep.multigraph_pairs", "lockstep.schedule_pairs")
    )
    offsets = counts.get("ues.offsets_generated", 0)
    steps = counts.get("walk.virtual_steps", 0)
    lookups = counters.get("session_hits", 0) + counters.get("session_misses", 0)
    offset_lookups = counters.get("offset_hits", 0) + counters.get("offset_misses", 0)
    metrics = {
        "envelope.decode_us": seconds("envelope.decode") * per_task * 1e6,
        "envelope.encode_us": seconds("envelope.encode") * per_task * 1e6,
        "session.self_us": seconds("session.submit") * per_task * 1e6,
        "seal.us": _ratio(seconds("seal.result_provenance"), calls("seal.result_provenance")) * 1e6,
        "seal.calls": calls("seal.result_provenance") * per_task,
        "scenario.build_ms": _ratio(seconds("scenario.build"), calls("scenario.build")) * 1e3,
        "scenario.builds": calls("scenario.build") * per_task,
        "scenario.hit_ratio": _ratio(counters.get("session_hits", 0), lookups),
        "reduction.ms": _ratio(seconds("reduction.reduce"), calls("reduction.reduce")) * 1e3,
        "reduction.calls": calls("reduction.reduce") * per_task,
        "kernel.compile_ms": _ratio(seconds("kernel.kernel_for"), calls("kernel.kernel_for")) * 1e3,
        "kernel.compiles": calls("kernel.kernel_for") * per_task,
        "kernel.disk_errors": counters.get("disk_errors", 0),
        "ues.self_ms": layers.get("ues", 0.0) * per_task * 1e3,
        "ues.offsets_generated": offsets * per_task,
        "ues.ns_per_offset": _ratio(seconds("ues.sequence_for"), offsets) * 1e9,
        "ues.offset_hit_ratio": _ratio(counters.get("offset_hits", 0), offset_lookups),
        "walk.self_us": layers.get("walk", 0.0) * per_task * 1e6,
        "walk.virtual_steps": steps * per_task,
        "walk.ns_per_step": _ratio(layers.get("walk", 0.0), steps) * 1e9,
        "lockstep.self_ms": layers.get("lockstep", 0.0) * per_task * 1e3,
        "lockstep.pairs": lockstep_pairs * per_task,
        "lockstep.share": _ratio(lockstep_pairs, lockstep_pairs + counts.get("walk.routes", 0)),
        "lockstep.batched_pairs": counts.get("lockstep.batched_pairs", 0) * per_task,
        "lockstep.multigraph_pairs": counts.get("lockstep.multigraph_pairs", 0) * per_task,
        "lockstep.schedule_pairs": counts.get("lockstep.schedule_pairs", 0) * per_task,
        "sweep.shard_ms": _ratio(layers.get("sweep", 0.0), counts.get("sweep.shards", 0)) * 1e3,
        "sweep.shards": counts.get("sweep.shards", 0) * per_task,
        "rbc.self_ms": _ratio(layers.get("rbc", 0.0), calls("rbc.execute")) * 1e3,
        "rbc.physical_steps": _ratio(counts.get("rbc.physical_steps", 0), calls("rbc.execute")),
        "log.append_us": _ratio(seconds("log.append_task"), calls("log.append_task")) * 1e6,
        "log.records": calls("log.append_task") * per_task,
        "trace.wall_ms": wall * 1e3,
        "trace.tasks": tasks,
    }
    for layer in LAYERS + (ROOT,):
        metrics[f"{layer}.share_pct"] = _ratio(layers.get(layer, 0.0), wall) * 100
    for name, _unit in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra or {})
    return metrics


def dominant_layers(metrics: Dict[str, float], top: int = 4) -> List[Tuple[str, float]]:
    """The layers with the largest share of traced wall time, largest first."""
    shares = [(layer, metrics[f"{layer}.share_pct"]) for layer in LAYERS + (ROOT,)]
    return sorted(shares, key=lambda item: -item[1])[:top]
