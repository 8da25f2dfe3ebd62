"""Layer spans recorded from outside the program, and their self times.

The traced run wraps the public call at each layer boundary of the routing
stack (see :data:`LAYER_CALLS`) with a recorder that notes a span — name,
start, end, parent span — in memory.  Spans opened while another span is
open in the same thread or asyncio task become its children, and every span of one task
shares the task id of its root.  Nothing is written until the run ends.

A layer's *self time* is its spans' duration minus the part of each span
that its child spans cover; summed over a task's spans, self times add up to
the root span's duration, so the per-layer numbers partition the traced
wall time exactly.

The wrappers live only in this file: the program is not edited.  They are
installed inert (``Tracer.active`` false) and pass calls straight through
until the run switches recording on, so one process can measure an
untraced and a traced phase and report the difference as tracing overhead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One timed call: ``task`` groups a task's spans, ``parent`` nests them."""

    task: int
    span: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    counts: Optional[Dict[str, int]] = None


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the part before the first dot)."""
    return name.split(".", 1)[0]


def _covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end)) for start, end in children if end > low and start < high
    )
    covered = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_start is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Children may overlap each other (concurrent work) or stick out of their
    parent (clock skew between threads); both are clipped so that no instant
    is subtracted twice and no self time goes negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span: (span.end - span.start) - _covered((span.start, span.end), children[span.span])
        for span in spans
    }


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per layer, in seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[layer_of(span.name)] += own[span.span]
    return dict(totals)


def name_self_times(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)`` for every span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + own[span.span])
    return totals


def count_totals(spans: Iterable[Span]) -> Dict[str, int]:
    """Sum of the work counters attached to spans."""
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.counts:
            for key, value in span.counts.items():
                totals[key] += value
    return dict(totals)


class Tracer:
    """Records spans from wrapped calls while :attr:`active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        # A context variable, not a thread-local: each thread *and* each
        # asyncio task then has its own stack of open spans.
        self._stack: contextvars.ContextVar = contextvars.ContextVar("perfbench_open_spans", default=())
        self._patches: List[Tuple[object, str, object]] = []

    def _open(self):
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        task_id = parent[1] if parent is not None else span_id
        token = self._stack.set(stack + ((span_id, task_id),))
        return span_id, task_id, parent[0] if parent is not None else None, time.perf_counter(), token

    def _close(self, opened, name: str, counts: Optional[Dict[str, int]] = None) -> None:
        end = time.perf_counter()
        span_id, task_id, parent_id, start, token = opened
        self._stack.reset(token)
        self.spans.append(Span(task_id, span_id, parent_id, name, start, end, counts))

    @contextmanager
    def paused(self):
        """Suspend recording for a block (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def span(self, name: str):
        """Open a span around a block (the benchmark's per-task root span)."""
        if not self.active:
            yield
            return
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    def wrap(self, name: str, func: Callable, count=None) -> Callable:
        """``func`` recording a ``name`` span per call while tracing is active."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            opened = tracer._open()
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                counts = count(args, kwargs, result) if count is not None and result is not None else None
                tracer._close(opened, name, counts)
            return result

        return traced

    def patch(self, owner: object, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper (undone by :meth:`uninstall`)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, count=count))

    def install(self, calls: Iterable[Tuple[str, str, str, Optional[Callable]]] = None) -> None:
        """Wrap every ``(module, qualified attribute, span name, counter)`` call."""
        for module_name, attribute, name, count in calls if calls is not None else LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.patch(owner, leaf, name, count=count)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        """Write the recorded spans as one JSON array."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


# --------------------------------------------------------------------------- #
# Work counters read off the wrapped calls' arguments and results
# --------------------------------------------------------------------------- #


def _route_steps(args, kwargs, result):
    return {"walk.routes": 1, "walk.virtual_steps": result.forward_virtual_steps + result.backward_virtual_steps}


def _schedule_steps(args, kwargs, result):
    return {"walk.routes": 1, "walk.virtual_steps": result.steps_taken}


def _connectivity_steps(args, kwargs, result):
    return {"walk.virtual_steps": result[1]}


def _vertex_walk_steps(args, kwargs, result):
    return {"walk.virtual_steps": len(result) - 1}


def _batched_pairs(args, kwargs, result):
    return {"lockstep.batched_pairs": len(args[1])}


def _multigraph_pairs(args, kwargs, result):
    return {"lockstep.multigraph_pairs": sum(len(job[1]) for job in args[1])}


def _schedule_pairs(args, kwargs, result):
    return {"lockstep.schedule_pairs": len(args[1])}


def _shards(args, kwargs, result):
    return {"sweep.shards": len(args[0])}


def _rbc_steps(args, kwargs, result):
    return {"rbc.physical_steps": result.physical_steps or 0}


class _GeneratedSequences:
    """Counts offsets a sequence provider really generated (not cache hits).

    A provider returns the same sequence object for every call until its
    cache is cleared; a call that returns a different object than the last
    one seen for ``(provider, bound)`` generated it.  Only weak references
    are kept, so the bookkeeping pins no sequence in memory.
    """

    def __init__(self) -> None:
        self._seen: Dict[Tuple[int, int], "weakref.ref"] = {}
        self._lock = threading.Lock()

    def __call__(self, args, kwargs, result):
        key = (id(args[0]), args[1] if len(args) > 1 else kwargs["n"])
        with self._lock:
            previous = self._seen.get(key)
            if previous is not None and previous() is result:
                return None
            self._seen[key] = weakref.ref(result)
        return {"ues.offsets_generated": len(result)}


#: Every layer boundary the traced run wraps: ``(module, attribute, span
#: name, work counter)``.  Names imported into other modules are wrapped at
#: each import site the stack calls them through.
LAYER_CALLS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.api.envelope", "from_json", "envelope.decode", None),
    ("repro.api.envelope", "from_wire", "envelope.decode", None),
    ("repro.api.envelope", "to_json", "envelope.encode", None),
    ("repro.api.envelope", "to_wire", "envelope.encode", None),
    ("repro.server.handlers", "from_wire", "envelope.decode", None),
    ("repro.server.app", "to_wire", "envelope.encode", None),
    ("repro.server.client", "from_wire", "envelope.decode", None),
    ("repro.server.client", "to_wire", "envelope.encode", None),
    ("repro.api.session", "Session.submit", "session.submit", None),
    ("repro.api.executors", "ScenarioStore.network", "scenario.lookup", None),
    ("repro.api.executors", "ScenarioStore.schedule", "scenario.lookup", None),
    ("repro.api.executors", "build_scenario", "scenario.build", None),
    ("repro.api.executors", "build_schedule", "scenario.build", None),
    ("repro.analysis.runner", "build_scenario", "scenario.build", None),
    ("repro.graphs.degree_reduction", "reduce_to_three_regular", "reduction.reduce", None),
    ("repro.core.engine", "reduce_to_three_regular", "reduction.reduce", None),
    ("repro.core.kernel_store", "KernelStore.kernel_for", "kernel.kernel_for", None),
    ("repro.core.universal", "RandomSequenceProvider.sequence_for", "ues.sequence_for", _GeneratedSequences()),
    ("repro.core.engine", "PreparedNetwork.offsets_for", "ues.offsets_for", None),
    ("repro.core.engine", "PreparedNetwork.route", "walk.route", _route_steps),
    ("repro.core.engine", "PreparedSchedule.route", "walk.schedule_route", _schedule_steps),
    ("repro.core.engine", "PreparedNetwork.connectivity_walk", "walk.connectivity", _connectivity_steps),
    ("repro.core.engine", "PreparedNetwork.broadcast_walk", "walk.broadcast", None),
    ("repro.core.walk_kernel", "CompiledWalk.walk_vertices", "walk.vertices", _vertex_walk_steps),
    ("repro.core.batch_kernel", "BatchedWalk.run", "lockstep.batched", _batched_pairs),
    ("repro.core.batch_kernel", "MultiGraphWalk.run", "lockstep.multigraph", _multigraph_pairs),
    ("repro.core.batch_kernel", "ScheduleBatchedWalk.run", "lockstep.schedule", _schedule_pairs),
    ("repro.core.batch_kernel", "np_offsets_for", "lockstep.np_offsets", None),
    ("repro.analysis.runner", "evaluate_shards", "sweep.evaluate_shards", _shards),
    ("repro.api.backends", "execute_broadcast_reliable", "rbc.execute", _rbc_steps),
    ("repro.api.backends", "result_provenance", "seal.result_provenance", None),
    ("repro.provenance.log", "ResultLog.append_task", "log.append_task", None),
]

#: Every layer the spans are attributed to, in stack order.
LAYERS = (
    "envelope", "session", "scenario", "reduction", "kernel", "ues", "walk",
    "lockstep", "sweep", "rbc", "seal", "log", "server",
)
