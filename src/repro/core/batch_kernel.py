"""Lockstep batched walk kernel — NumPy vectorization over ``CompiledWalk`` arrays.

Every batch workload in the repository (sweeps, conformance, ``route-many``,
the ProcessPool chunk path) routes *sets* of pairs over one prepared graph,
and until this module existed :meth:`repro.core.engine.PreparedNetwork.route_many`
simply looped the scalar walk per pair.  This module advances all in-flight
walks **one synchronous step at a time** — the round-based, full-information
view of the walk — over the flat arrays of
:class:`repro.core.walk_kernel.CompiledWalk`, with one fused gather per step
for the whole batch.

Two steppers are provided:

The static stepper (:class:`BatchedWalk` and :class:`MultiGraphWalk`)
    Walk state is a single integer ``state = 3 * vertex + entry_port``; the
    rotation map is pre-fused into three transition arrays ``step[o]`` (one
    per offset value) so a forward step for *all* walks is the one gather
    ``state = step[o][state]``.  Every walk reads ``T_n[t]`` at step ``t``,
    so walks whose jobs share an offsets buffer read the same offset on the
    same step, whatever graph or source they start from: they form one
    *lane*, and a step of a lane is one ``take`` over the lane's fronts.
    Walks that share a start state share their entire forward trajectory
    (the walk is deterministic per start state), so a lane holds one *front*
    per distinct ``(job, source)``.  After each chunk of steps, a blocked
    ``argmax`` over rows x open pairs finds each pair's delivery; each
    pair's backward phase and physical/virtual step accounting are then
    recovered from the recorded owner trajectory by vectorized reductions —
    the backward phase retraces the forward walk exactly (reversibility,
    Section 2 of the paper), so its accounting is a pure function of the
    forward owner sequence.  :class:`BatchedWalk` runs it on one graph's
    fused tables; :class:`MultiGraphWalk` runs it on the tables of several
    graphs stacked into one ``(3, total_states)`` tensor with per-graph state
    bases, which is what lets an entire sweep shard (all scenarios x all
    pairs) execute as a handful of NumPy calls in
    :func:`repro.core.engine.route_many_multi` /
    :func:`repro.analysis.runner.evaluate_shards`.  The numbers produced are
    identical, walk for walk, to the scalar kernel in
    :meth:`repro.core.engine.PreparedNetwork.route`.

:class:`ScheduleBatchedWalk` (dynamic-topology extension)
    All walks share one global clock, and the schedule's switch times are
    global.  A live walk reads offset ``t`` on forward tick ``t < L``, flips
    at tick ``L`` without a step, and reads offset ``2L - t`` on backward
    tick ``t`` (it retraces its steps, Section 2 of the paper).  So every
    walk reads the same offset on the same tick, and walks from one source
    share their state until they stop: pairs merge into one *front* per
    distinct source, and a tick is one gather over the fronts — through
    ``step[o]`` going forward and the fused backward tables
    ``back_step[o]`` going back.  Chunks of ticks end at every real
    snapshot switch and at tick ``L``; at a switch the live fronts are
    translated between kernels through :func:`translation_table`, and a
    front whose owner changed degree strands with all its pairs.  After
    each chunk, vectorised reductions find each pair's delivery (first row
    whose owner is its target) and each backward front's report (first row
    back at its source, or tick ``2L + 1``).  Results are those of
    :meth:`repro.core.engine.PreparedSchedule.route`, decision for decision.

Offsets arrive as the sequence's ``bytes`` buffer
(:class:`repro.core.exploration.ExplicitSequence`); the steppers index it
directly, and :func:`np_offsets_for` gives a zero-copy ``int8`` view of it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph  # noqa: F401  (doc references)
from repro.core.kernel_store import LRUCache
from repro.core.walk_kernel import CompiledWalk

__all__ = [
    "BatchedWalk",
    "MultiGraphWalk",
    "ScheduleBatchedWalk",
    "StaticWalkAccount",
    "ScheduleWalkAccount",
    "batched_walk_for",
    "multigraph_walk_for",
    "np_offsets_for",
    "clear_batch_caches",
    "batch_cache_info",
    "translation_table",
]

#: Trajectory rows recorded per lockstep chunk before termination checks run.
#: Chunks start small and double up to the cap: short walks (small graphs,
#: nearby targets) terminate within the first few chunks instead of paying
#: thousands of wasted lockstep iterations, while long walks quickly reach
#: the large chunk size that amortises detection.
_CHUNK_ROWS_MIN = 64
_CHUNK_ROWS_MAX = 4096

#: Row cap of a :class:`ScheduleBatchedWalk` chunk.  Its fronts stop
#: stepping only at chunk ends, so a larger cap walks further past the last
#: delivery (the shared 4096 cap overran it by about 1,800 ticks).
_SCHEDULE_CHUNK_ROWS_MAX = 512

#: Most elements one delivery comparison (chunk rows x open pairs) holds:
#: a chunk's open pairs are compared in blocks of this many elements.
_HIT_BLOCK_ELEMENTS = 1 << 18

#: Comparand of a target no ``int32`` owner id can equal.
_NO_OWNER = 1 << 40

#: Cap on buffered trajectory elements per batch (int32 each).  A batch whose
#: walks out-run the cap — pathologically long failure walks under a huge
#: size bound — hands its unresolved pairs back to the scalar kernel instead
#: of exhausting memory; results are identical either way.
_MAX_BUFFER_ELEMENTS = 1 << 26

#: Bounds on cached per-kernel batched and stacked multi-graph steppers.
_BATCH_CACHE_LIMIT = 64
_MULTI_CACHE_LIMIT = 8

#: Outcome codes of :class:`ScheduleBatchedWalk` (mirroring DynamicOutcome,
#: which lives above this module in the layer order).  The tick budget never
#: runs out: a backward walk reports at tick ``2L + 1`` at the latest.
SCHEDULE_DELIVERED = 0
SCHEDULE_REPORTED_FAILURE = 1
SCHEDULE_STRANDED_DEGREE = 2


@dataclass(frozen=True)
class StaticWalkAccount:
    """Per-walk accounting of one static batched route (scalar-identical)."""

    success: bool
    forward_steps: int
    backward_steps: int
    physical_hops: int
    target_found_at: Optional[int]


def _account_from_trajectory(
    trajectory: "_np.ndarray",
    source: int,
    sequence_length: int,
    target_found: Optional[int],
) -> StaticWalkAccount:
    """Recover one pair's full accounting from its recorded owner trajectory.

    The backward phase retraces the forward walk exactly (reversibility,
    Section 2 of the paper), so every reported number is a function of the
    forward owner sequence: the walk runs ``forward_steps`` steps (the hit
    step, or the whole sequence on failure), backtracks to the *last* visit
    of the source, and counts a physical hop at every owner change in both
    directions.  The static stepper calls it once per resolved pair, for
    :class:`BatchedWalk` and :class:`MultiGraphWalk` alike.
    """
    forward_steps = sequence_length if target_found is None else target_found
    owner_walk = trajectory[: forward_steps + 1]
    changes = owner_walk[1:] != owner_walk[:-1]
    source_visits = _np.nonzero(owner_walk == source)[0]
    if not source_visits.size:  # pragma: no cover - impossible:
        # position 0 is the source's gateway.
        raise RoutingError("backtracking failed to return to the source")
    last_visit = int(source_visits[-1])
    return StaticWalkAccount(
        success=target_found is not None,
        forward_steps=int(forward_steps),
        backward_steps=int(forward_steps - last_visit),
        physical_hops=int(
            _np.count_nonzero(changes) + _np.count_nonzero(changes[last_visit:])
        ),
        target_found_at=target_found,
    )


class _Lane:
    """The fronts of every job that reads one offsets buffer.

    They read the same offset on every step, so one ``take`` advances them
    all.  Column ``c`` of ``state`` is front ``fronts[c]``; the pairs still
    walking are ``open_pair`` (global pair ids) with their front column
    ``open_column`` and target comparand ``open_target``.  These are lists
    while the lane is filled and arrays from :meth:`start` on.
    """

    __slots__ = ("offsets", "fronts", "state", "open_pair", "open_column", "open_target")

    def __init__(self, offsets: bytes) -> None:
        self.offsets = offsets
        self.fronts: List[int] = []
        self.state = []
        self.open_pair = []
        self.open_column = []
        self.open_target = []

    def start(self) -> None:
        self.state = _np.array(self.state, dtype=_np.int32)
        self.open_pair = _np.array(self.open_pair, dtype=_np.int64)
        self.open_column = _np.array(self.open_column, dtype=_np.int64)
        self.open_target = _np.array(self.open_target, dtype=_np.int64)

    def advance(
        self,
        step: Sequence["_np.ndarray"],
        owner_state: "_np.ndarray",
        start: int,
        rows: int,
        found_at: "_np.ndarray",
        pieces: List[List["_np.ndarray"]],
    ) -> None:
        """Step the fronts ``rows`` times from step ``start``; close hit pairs.

        Appends each front's owner row to its trajectory ``pieces`` and
        writes the step at which a pair first meets its target to
        ``found_at``.
        """
        buffer = _np.empty((rows + 1, len(self.fronts)), dtype=_np.int32)
        buffer[0] = self.state
        # States are always in range; mode="raise" would buffer ``out``.
        window = self.offsets[start : start + rows]
        for offset, before, after in zip(window, buffer, buffer[1:]):
            step[offset].take(before, out=after, mode="clip")
        self.state = buffer[rows]
        # One contiguous owner row per front: its trajectory over the chunk.
        owners = owner_state[buffer[1:].T]
        for column, front in enumerate(self.fronts):
            pieces[front].append(owners[column])

        # First row whose owner is the pair's target, compared in blocks of
        # open pairs so the temporaries stay bounded.
        columns = self.open_column
        first = _np.empty(columns.size, dtype=_np.int64)
        hit = _np.empty(columns.size, dtype=bool)
        width = max(1, _HIT_BLOCK_ELEMENTS // rows)
        for low in range(0, columns.size, width):
            block = slice(low, low + width)
            hits = owners[columns[block]] == self.open_target[block, None]
            first[block] = hits.argmax(axis=1)
            hit[block] = hits[_np.arange(hits.shape[0]), first[block]]
        if not hit.any():
            return
        found_at[self.open_pair[hit]] = start + 1 + first[hit]
        kept = ~hit
        self.open_pair = self.open_pair[kept]
        self.open_column = columns[kept]
        self.open_target = self.open_target[kept]
        # A front with no pair left walking drops out.
        live = _np.zeros(len(self.fronts), dtype=bool)
        live[self.open_column] = True
        if not live.all():
            self.state = self.state[live]
            self.fronts = _np.asarray(self.fronts)[live].tolist()
            self.open_column = (_np.cumsum(live) - 1)[self.open_column]


def _static_lockstep(
    step: Sequence["_np.ndarray"],
    owner_state: "_np.ndarray",
    jobs: Sequence[Tuple[int, CompiledWalk, Sequence[Tuple[int, int]], bytes]],
    start_port: int,
    max_buffer_elements: int,
) -> Tuple[Dict[Tuple[int, int], StaticWalkAccount], List[Tuple[int, int]]]:
    """The static lockstep loop behind :class:`BatchedWalk` and :class:`MultiGraphWalk`.

    ``jobs`` are ``(state_base, kernel, pairs, offsets)``: graph-local
    ``(source, target)`` pairs routed over ``kernel``, whose states start at
    ``state_base`` in ``step`` / ``owner_state``, with that offsets buffer.
    Returns accounts keyed ``(job index, pair index)`` plus the keys the
    trajectory buffer cap left unresolved.
    """
    keys: List[Tuple[int, int]] = []
    found: List[int] = []  # per pair: the step its target is met, -1 if open
    front_of: Dict[Tuple[int, int], int] = {}
    front_source: List[int] = []
    front_length: List[int] = []
    front_column: List[Optional[int]] = []
    members: List[List[int]] = []
    lanes: Dict[int, _Lane] = {}
    for job, (state_base, kernel, pairs, offsets) in enumerate(jobs):
        lane = lanes.get(id(offsets))
        if lane is None:
            lane = lanes[id(offsets)] = _Lane(offsets)
        for index, (source, target) in enumerate(pairs):
            front = front_of.get((job, source))
            if front is None:
                front = front_of[(job, source)] = len(front_source)
                front_source.append(source)
                front_length.append(len(offsets))
                front_column.append(None)
                members.append([])
            pair = len(keys)
            keys.append((job, index))
            members[front].append(pair)
            if target == source:
                # owner(start state) == source: success before any step.
                found.append(0)
                continue
            found.append(-1)
            column = front_column[front]
            if column is None:
                # A front joins its lane with its first pair that walks.
                column = front_column[front] = len(lane.fronts)
                lane.fronts.append(front)
                lane.state.append(state_base + 3 * kernel.gateway(source) + start_port)
            lane.open_pair.append(pair)
            lane.open_column.append(column)
            lane.open_target.append(_owner_key(target))
    for lane in lanes.values():
        lane.start()

    # Advance every lane chunk by chunk, recording owner trajectories.
    found_at = _np.array(found, dtype=_np.int64)
    pieces: List[List["_np.ndarray"]] = [[] for _ in front_source]
    spilled: List[int] = []
    buffered_elements = 0
    walked = 0
    chunk_rows = _CHUNK_ROWS_MIN
    live = [lane for lane in lanes.values() if lane.fronts and lane.offsets]
    while live:
        spans = [min(chunk_rows, len(lane.offsets) - walked) for lane in live]
        elements = sum(len(lane.fronts) * rows for lane, rows in zip(live, spans))
        if buffered_elements + elements > max_buffer_elements:
            # Every pair still walking goes back to the scalar kernel.
            for lane in live:
                spilled.extend(lane.open_pair.tolist())
            break
        buffered_elements += elements
        for lane, rows in zip(live, spans):
            lane.advance(step, owner_state, walked, rows, found_at, pieces)
        walked += chunk_rows
        chunk_rows = min(2 * chunk_rows, _CHUNK_ROWS_MAX)
        live = [lane for lane in live if lane.fronts and len(lane.offsets) > walked]

    # Per-pair accounting over each front's recorded owner trajectory.
    accounts: Dict[Tuple[int, int], StaticWalkAccount] = {}
    unresolved = set(spilled)
    found = found_at.tolist()
    for front, source in enumerate(front_source):
        trajectory = _np.concatenate(
            [_np.array([source], dtype=_np.int32)] + pieces[front]
        )
        for pair in members[front]:
            if pair in unresolved:
                continue
            accounts[keys[pair]] = _account_from_trajectory(
                trajectory,
                source,
                front_length[front],
                found[pair] if found[pair] >= 0 else None,
            )
    return accounts, [keys[pair] for pair in spilled]


@dataclass(frozen=True)
class ScheduleWalkAccount:
    """Per-walk accounting of one batched schedule route (scalar-identical)."""

    code: int
    steps_taken: int
    switches_survived: int
    stranded_owner: int
    status_failure: bool


class BatchedWalk:
    """NumPy view of one :class:`CompiledWalk`; :meth:`run` steps batches on it.

    Construction fuses the rotation map into per-offset transition arrays:

    ``step[o][3 * v + p] = 3 * next_vertex[e] + next_port[e]`` with
    ``e = 3 * v + (p + o) % 3`` — one gather advances every walk by one step.

    ``owner_state`` maps a walk state to the original vertex its virtual
    vertex simulates.
    """

    __slots__ = ("kernel", "step", "owner_state", "num_states")

    def __init__(self, kernel: CompiledWalk) -> None:
        self.kernel = kernel
        next_vertex = _np.asarray(kernel.next_vertex, dtype=_np.int64)
        next_port = _np.asarray(kernel.next_port, dtype=_np.int64)
        owner = _np.asarray(kernel.owner, dtype=_np.int64)
        n3 = next_vertex.shape[0]
        self.num_states = n3
        states = _np.arange(n3)
        base = 3 * (states // 3)
        port = states % 3
        fused: List["_np.ndarray"] = []
        for offset in range(3):
            exit_edge = base + (port + offset) % 3
            fused.append(
                (3 * next_vertex[exit_edge] + next_port[exit_edge]).astype(_np.int32)
            )
        self.step = fused
        self.owner_state = _np.repeat(owner, 3).astype(_np.int32)

    # ------------------------------------------------------------------ #
    # Static batch routing
    # ------------------------------------------------------------------ #

    def run(
        self,
        pairs: Sequence[Tuple[int, int]],
        offsets: bytes,
        start_port: int = 0,
        max_buffer_elements: int = _MAX_BUFFER_ELEMENTS,
    ) -> Tuple[Dict[int, StaticWalkAccount], List[int]]:
        """Route ``pairs`` in lockstep; return per-index accounts + unresolved.

        ``pairs`` are ``(source, target)`` original-vertex pairs (duplicates
        and self-pairs allowed).  Returns a mapping from pair index to its
        :class:`StaticWalkAccount` plus the list of indices the stepper did
        not resolve because the trajectory buffer cap was reached — the
        caller finishes those on the scalar kernel (identical results).
        """
        accounts, unresolved = _static_lockstep(
            self.step,
            self.owner_state,
            [(0, self.kernel, pairs, offsets)],
            start_port,
            max_buffer_elements,
        )
        return (
            {index: account for (_job, index), account in accounts.items()},
            [index for _job, index in unresolved],
        )


class ScheduleBatchedWalk:
    """Lockstep stepper for routing one pair batch over a topology schedule.

    Every walk reads offset ``t`` on forward tick ``t < L`` and, after the
    flip at tick ``L``, offset ``2L - t`` on backward tick ``t``; switch-overs
    hit every walk at the same tick.  So all walks from one source share
    their state until they stop, and the stepper advances one front per
    distinct source with one gather per tick, in chunks that never cross a
    real switch tick or tick ``L``.  Stranding, failure reporting and step
    counts reproduce :meth:`repro.core.engine.PreparedSchedule.route`
    decision for decision.
    """

    def __init__(
        self,
        steppers: Sequence[BatchedWalk],
        snapshots: Sequence[object],
        switch_times: Sequence[int],
        gateway_of: Dict[int, int],
    ) -> None:
        self._steppers = list(steppers)
        #: (tick, snapshot index) of every real switch: one where the
        #: snapshot object changes (re-activating the same object is not a
        #: switch, as in the scalar walk).
        self._switches = [
            (switch_times[index], index)
            for index in range(1, len(snapshots))
            if snapshots[index] is not snapshots[index - 1]
        ]
        #: Gateway map of the *first* kernel only: every walk starts on
        #: snapshot 0, and post-switch placement goes through the translation
        #: tables, never through a later kernel's gateways.
        self._gateway_of = dict(gateway_of)
        #: index -> translation array; built lazily, once per real switch.
        self._translations: Dict[int, "_np.ndarray"] = {}
        #: stepper (identity) -> backward transition tables, built on first use.
        self._back_steps: Dict[BatchedWalk, List["_np.ndarray"]] = {}

    def _translation_into(self, index: int) -> "_np.ndarray":
        table = self._translations.get(index)
        if table is None:
            table = translation_table(
                self._steppers[index - 1].kernel, self._steppers[index].kernel
            )
            self._translations[index] = table
        return table

    def _back_step(self, stepper: BatchedWalk) -> List["_np.ndarray"]:
        """``back_step[o][s]``: the state before a forward step with offset ``o``.

        A backward step leaves through the entry edge, which *is* the state
        index: ``3 * next_vertex[s] + (next_port[s] - o) % 3``.
        """
        tables = self._back_steps.get(stepper)
        if tables is None:
            kernel = stepper.kernel
            back_v3 = 3 * _np.asarray(kernel.next_vertex, dtype=_np.int32)
            back_port = _np.asarray(kernel.next_port, dtype=_np.int32)
            tables = [
                (back_v3 + (back_port - offset) % 3).astype(_np.int32)
                for offset in range(3)
            ]
            self._back_steps[stepper] = tables
        return tables

    def run(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        offsets: bytes,
    ) -> List[ScheduleWalkAccount]:
        """Route every pair over the schedule in lockstep; return accounts."""
        length = len(offsets)
        last_tick = 2 * length + 1  # a backward walk reports here at the latest
        count = len(sources)
        code = _np.full(count, -1, dtype=_np.int8)
        steps = _np.zeros(count, dtype=_np.int64)
        switches = _np.zeros(count, dtype=_np.int64)
        stranded_owner = _np.full(count, -1, dtype=_np.int64)
        status_failure = _np.zeros(count, dtype=bool)

        # One front per distinct source (its state and source id); every
        # open pair holds its front's column and its target.
        column_of: Dict[int, int] = {}
        for source in sources:
            column_of.setdefault(source, len(column_of))
        front_source = _np.fromiter(column_of, dtype=_np.int64, count=len(column_of))
        state = _np.array(
            [3 * self._gateway_of[source] for source in column_of], dtype=_np.int32
        )
        open_index = _np.arange(count)
        open_front = _np.array(
            [column_of[source] for source in sources], dtype=_np.int64
        )
        open_target = _np.array(
            [_owner_key(target) for target in targets], dtype=_np.int64
        )

        def finish(ended, outcome, ticks) -> None:
            """Close the open pairs in mask ``ended`` at ``ticks``."""
            nonlocal open_index, open_front, open_target, state, front_source
            closed = open_index[ended]
            code[closed] = outcome
            steps[closed] = _np.where(ticks <= length, ticks, last_tick - ticks)
            switches[closed] = applied
            status_failure[closed] = ticks > length
            kept = ~ended
            live = _np.zeros(state.size, dtype=bool)
            live[open_front[kept]] = True
            column = _np.cumsum(live) - 1
            open_index = open_index[kept]
            open_front = column[open_front[kept]]
            open_target = open_target[kept]
            state = state[live]
            front_source = front_source[live]

        real_switches = self._switches
        next_switch = 0
        applied = 0
        stepper = self._steppers[0]
        tick = 0
        chunk_rows = _CHUNK_ROWS_MIN
        while open_index.size:
            while (
                next_switch < len(real_switches)
                and real_switches[next_switch][0] == tick
            ):
                index = real_switches[next_switch][1]
                next_switch += 1
                applied += 1
                translated = self._translation_into(index)[state // 3]
                stranded = translated < 0
                if stranded.any():
                    ended = stranded[open_front]
                    stranded_owner[open_index[ended]] = stepper.owner_state[
                        state[open_front[ended]]
                    ]
                    finish(ended, SCHEDULE_STRANDED_DEGREE, tick)
                    translated = translated[~stranded]
                state = 3 * translated + state % 3
                stepper = self._steppers[index]
            if not open_index.size:
                break

            # Advance to the next real switch or phase end, whichever is
            # first; the phase's last tick (L, then 2L + 1) does not step.
            forward = tick <= length
            if tick == length + 1:
                chunk_rows = _CHUNK_ROWS_MIN
            phase_end = length + 1 if forward else last_tick + 1
            stop = min(tick + chunk_rows, phase_end)
            if next_switch < len(real_switches):
                stop = min(stop, real_switches[next_switch][0])
            chunk_rows = min(2 * chunk_rows, _SCHEDULE_CHUNK_ROWS_MAX)
            rows = stop - tick
            moves = rows - 1 if stop == phase_end else rows
            if forward:
                tables = stepper.step
                window = offsets[tick : tick + moves]
            else:
                tables = self._back_step(stepper)
                newest = 2 * length - tick
                window = offsets[newest - moves + 1 : newest + 1][::-1]
            buffer = _np.empty((moves + 1, state.size), dtype=_np.int32)
            buffer[0] = state
            # States are always in range; mode="raise" would buffer ``out``.
            for offset, before, after in zip(window, buffer, buffer[1:]):
                tables[offset].take(before, out=after, mode="clip")
            owners = stepper.owner_state[buffer[:rows]]
            state = buffer[moves]

            if forward:
                hits = owners[:, open_front] == open_target
                outcome = SCHEDULE_DELIVERED
            else:
                hits = owners == front_source
                if stop == phase_end:
                    hits[-1] = True
                outcome = SCHEDULE_REPORTED_FAILURE
            first_hit = hits.argmax(axis=0)
            hit = hits.any(axis=0)
            if not forward:
                first_hit = first_hit[open_front]
                hit = hit[open_front]
            if hit.any():
                finish(hit, outcome, tick + first_hit[hit])
            tick = stop

        return [
            ScheduleWalkAccount(*fields)
            for fields in zip(
                code.tolist(),
                steps.tolist(),
                switches.tolist(),
                stranded_owner.tolist(),
                status_failure.tolist(),
            )
        ]


def _owner_key(target: int) -> int:
    """Integer ``target`` as an ``int64`` comparand for the ``int32`` owner ids.

    A target outside the ``int32`` range can never be reached, so it maps to
    :data:`_NO_OWNER` instead of overflowing.
    """
    value = operator.index(target)
    return value if -(1 << 31) <= value < (1 << 31) else _NO_OWNER


def translation_table(
    source_kernel: CompiledWalk, target_kernel: CompiledWalk
) -> "_np.ndarray":
    """Vectorizable form of :meth:`CompiledWalk.translate_virtual`.

    ``table[v]`` is the virtual vertex of ``target_kernel`` corresponding to
    virtual vertex ``v`` of ``source_kernel`` (same owner, same carried
    physical port), or ``-1`` when the owner's degree differs between the two
    reductions — the walk is stranded there.  Built once per real switch of a
    schedule and gathered at that switch for every live walk.
    """
    count = source_kernel.num_vertices
    table = _np.empty(count, dtype=_np.int32)
    for vertex in range(count):
        translated = source_kernel.translate_virtual(target_kernel, vertex)
        table[vertex] = -1 if translated is None else translated
    return table


class MultiGraphWalk:
    """Lockstep stepper over *several* compiled graphs stacked into one tensor.

    Construction concatenates the per-offset transition arrays of the given
    :class:`BatchedWalk` steppers with cumulative state bases::

        step[o][base_g + s] = base_g + stepper_g.step[o][s]

    so a global walk state carries its graph implicitly and one fused gather
    advances walks over different graphs simultaneously.  ``owner_state`` is
    concatenated the same way and yields *graph-local* original vertex ids —
    each pair only ever compares owners against its own graph's target, so
    overlapping id ranges between graphs are harmless.

    :meth:`run` takes *jobs* — ``(stepper index, pairs, offsets)`` triples,
    one per (graph, size-bound) group — and runs the same static stepper as
    :class:`BatchedWalk` over the stacked tensor: jobs that share an offsets
    buffer, even on different graphs, step together, so results are bitwise
    identical to running each job through :class:`BatchedWalk` alone.
    """

    __slots__ = ("steppers", "step", "owner_state", "state_base")

    def __init__(self, steppers: Sequence[BatchedWalk]) -> None:
        if not steppers:
            raise RoutingError("MultiGraphWalk needs at least one stepper")
        self.steppers = list(steppers)
        bases: List[int] = []
        total = 0
        for stepper in self.steppers:
            bases.append(total)
            total += stepper.num_states
        self.state_base = bases
        # One (3, total_states) tensor: row o is the offset-o transition of
        # every graph, shifted into the global state space.
        self.step = _np.stack(
            [
                _np.concatenate(
                    [
                        stepper.step[offset] + base
                        for stepper, base in zip(self.steppers, bases)
                    ]
                ).astype(_np.int32)
                for offset in range(3)
            ]
        )
        self.owner_state = _np.concatenate(
            [stepper.owner_state for stepper in self.steppers]
        )

    def run(
        self,
        jobs: Sequence[Tuple[int, Sequence[Tuple[int, int]], bytes]],
        start_port: int = 0,
        max_buffer_elements: int = _MAX_BUFFER_ELEMENTS,
    ) -> Tuple[Dict[Tuple[int, int], StaticWalkAccount], List[Tuple[int, int]]]:
        """Route every job's pairs in one lockstep run over the stacked tensor.

        ``jobs`` is a sequence of ``(stepper_index, pairs, offsets)``: the
        pairs are graph-local ``(source, target)`` originals routed over
        ``self.steppers[stepper_index]`` with that job's exploration
        sequence.  Returns accounts keyed ``(job index, pair index)`` plus
        the keys left unresolved by the trajectory buffer cap — the caller
        finishes those on the scalar kernel (identical results).
        """
        return _static_lockstep(
            tuple(self.step),
            self.owner_state,
            [
                (self.state_base[slot], self.steppers[slot].kernel, pairs, offsets)
                for slot, pairs, offsets in jobs
            ],
            start_port,
            max_buffer_elements,
        )


# --------------------------------------------------------------------------- #
# Shared caches (mirroring the engine's per-process caches)
# --------------------------------------------------------------------------- #

#: Batched steppers keyed by their kernel, and stacked multi-graph steppers
#: keyed by the tuple of member steppers.  Neither class defines ``__eq__``,
#: so both keys hash and compare by identity, and an entry holds its key
#: objects strongly while it lives.
_BATCH_CACHE = LRUCache(_BATCH_CACHE_LIMIT)
_MULTI_CACHE = LRUCache(_MULTI_CACHE_LIMIT)


def batched_walk_for(kernel: CompiledWalk) -> BatchedWalk:
    """The shared :class:`BatchedWalk` for a kernel (built on demand)."""
    return _BATCH_CACHE.get_or_build(kernel, BatchedWalk)


def multigraph_walk_for(steppers: Sequence[BatchedWalk]) -> MultiGraphWalk:
    """The shared :class:`MultiGraphWalk` for an ordered stepper set.

    Repeated sweep shards over the same compiled graphs reuse one stacked
    tensor instead of re-concatenating it per call.
    """
    return _MULTI_CACHE.get_or_build(tuple(steppers), MultiGraphWalk)


def np_offsets_for(offsets: bytes) -> "_np.ndarray":
    """Read-only ``int8`` view of an offsets buffer; shares its memory."""
    return _np.frombuffer(offsets, dtype=_np.int8)


def clear_batch_caches() -> None:
    """Drop every cached batched and multi-graph stepper (worker cold start)."""
    _BATCH_CACHE.clear()
    _MULTI_CACHE.clear()


def batch_cache_info() -> Dict[str, int]:
    """Sizes and counters of the batch-kernel caches, for this process."""
    return {**_BATCH_CACHE.info("batched_kernel"), **_MULTI_CACHE.info("multigraph_kernel")}
