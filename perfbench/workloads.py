"""The four workloads: seeded task lists, set-up, timed loops and self-checks.

Each workload turns ``--seed`` into a fixed list of request envelopes (one
*pass*), warms the program the way its users would, and then repeats the
pass in a closed loop until the run's time is up.  Only the generated
requests reach the program; everything the benchmark checks is computed
here or in :mod:`oracle`.

========== ============================================================
route-warm inline ``Session``, one caller, mostly single routes over a
           warm working set: only per-task costs remain.
cold-start inline, every task after ``clear_prepared_caches()`` in a fresh
           ``Session`` with the kernel disk tier off: what a fresh process
           pays, dominated by exploration-sequence generation.
batch      inline, large route batches, multi-scenario sweeps and schedule
           batches sized so every lockstep kernel class is dispatched.
served     the ``python -m repro.server`` daemon on loopback, two
           closed-loop callers with one ``TaskClient`` connection per task.
========== ============================================================

Workload modules import the program only inside :meth:`Workload.setup`, so
import time counts as set-up time.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import random
import resource
import signal
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from calibrate import INTERVAL_S, Calibrator
from oracle import Oracle, check_log, masked_wire, reference_sample
from tracing import Span, Tracer, load_spans

#: Most failure reasons kept in a report.
_MAX_PROBLEMS = 8


def spec(name: str, family: str, size: int, radius: Optional[float] = None, **extra):
    """A scenario spec with a fixed scenario seed (the workload seed picks the requests)."""
    from repro.analysis.experiments import ScenarioSpec

    return ScenarioSpec(
        name=name, family=family, size=size, seed=0, radius=radius, extra=tuple(sorted(extra.items()))
    )


@dataclass
class Task:
    """One generated request, as the canonical JSON envelope the program receives."""

    request: object
    text: str
    routes: int
    primary: bool = True
    heavy: bool = False


@dataclass
class Measurements:
    """What one phase of timed passes observed.

    Times are at the reference host speed (:mod:`calibrate`), except
    ``raw_latencies``, which are as measured.  Per-task series are compact
    arrays, so the benchmark's own bookkeeping barely moves the peak memory
    of the process it shares with the program.
    """

    latencies: "array[float]" = field(default_factory=lambda: array("d"))
    raw_latencies: "array[float]" = field(default_factory=lambda: array("d"))
    heavy: "array[float]" = field(default_factory=lambda: array("d"))
    #: Per pass: ``(seconds, tasks completed, routes completed)``.
    passes: List[Tuple[float, int, int]] = field(default_factory=list)
    tasks: int = 0
    routes: int = 0
    attempted: int = 0
    failed: int = 0
    envelope_bytes: int = 0
    #: Summed latency of every client call, batches included (served only).
    call_time: float = 0.0
    #: Speed scale applied to each task (:meth:`calibrate.Calibrator.scale`).
    scales: "array[float]" = field(default_factory=lambda: array("d"))
    problems: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(reason)

    def record_pass(self, seconds: float, tasks_before: int, routes_before: int) -> None:
        self.passes.append((seconds, self.tasks - tasks_before, self.routes - routes_before))

    def record_latency(self, task: Task, latency: float, scale: float) -> None:
        if task.primary:
            self.latencies.append(latency * scale)
            self.raw_latencies.append(latency)
        if task.heavy:
            self.heavy.append(latency * scale)
        self.scales.append(scale)

    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    """Numeric ``after - before`` for every counter key present in both."""
    return {
        key: after[key] - before[key]
        for key in after
        if key in before and isinstance(after[key], (int, float)) and not isinstance(after[key], bool)
    }


class Workload:
    """Shared machinery: generated tasks, oracle, timed passes, reports."""

    name = "abstract"
    #: Percentile reported as ``tail_ms``: the highest level that keeps at
    #: least ten samples beyond it at this workload's task rate.
    tail = 99.0

    def __init__(self, seed: int, workdir: str, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.oracle = Oracle()
        self.tasks: List[Task] = []
        self.self_checks: List[str] = []
        self.counters: Dict[str, float] = {}
        self.calibrator = Calibrator()
        self._calibrated_at = float("-inf")

    # Subclass hooks ---------------------------------------------------- #

    def scenarios(self) -> list:
        raise NotImplementedError

    def make_tasks(self) -> List[Task]:
        raise NotImplementedError

    # Helpers ----------------------------------------------------------- #

    def task(self, request, routes: int = 1, primary: bool = True, heavy: bool = False) -> Task:
        from repro.api.envelope import to_json

        return Task(request=request, text=to_json(request), routes=routes, primary=primary, heavy=heavy)

    def pair(self, scenario, connected: Optional[bool] = True):
        """A random ``(source, target)`` pair, connected or not as asked."""
        vertices = self.oracle.vertices(scenario)
        while True:
            source, target = self.rng.sample(vertices, 2)
            if connected is None or self.oracle.connected(scenario, source, target) == connected:
                return source, target

    def check_outputs(self, outputs, measured: Measurements) -> None:
        """Decode and oracle-check a pass's ``(latency, scale, text)`` outputs."""
        from repro.api.envelope import from_json

        with self.paused():
            for task, (latency, scale, text) in zip(self.tasks, outputs):
                measured.attempted += 1
                try:
                    result = from_json(text)
                    problem = self.oracle.check(task.request, result)
                except Exception as error:  # a malformed output is a failed task
                    problem = f"{type(error).__name__}: {error}"
                if problem:
                    measured.fail(problem)
                    continue
                measured.tasks += 1
                measured.routes += task.routes
                measured.envelope_bytes += len(task.text) + len(text)
                measured.record_latency(task, latency, scale)

    def root_span(self):
        """The per-task root span (a no-op when the run is not traced)."""
        return self.tracer.span("task") if self.tracer is not None else contextlib.nullcontext()

    def paused(self):
        """Suspend span recording (the oracle's own calls are not the program's)."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def calibrate(self, now: bool = False) -> int:
        """Take a host-speed sample between tasks when one is due; return the latest's index."""
        if now or time.perf_counter() - self._calibrated_at >= INTERVAL_S:
            self.calibrator.sample()
            self._calibrated_at = time.perf_counter()
        return len(self.calibrator.samples) - 1

    def run_phase(self, seconds: float) -> Measurements:
        """Repeat whole passes until ``seconds`` have elapsed (at least one)."""
        measured = Measurements()
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(measured)
            if time.perf_counter() >= deadline:
                return measured

    def setup(self) -> None:
        for scenario in self.scenarios():
            self.oracle.learn(scenario)
            self.calibrate()
        self.tasks = self.make_tasks()

    def run_pass(self, measured: Measurements) -> None:
        raise NotImplementedError

    def start_counters(self) -> Dict[str, object]:
        return {}

    def finish(self, measured: Measurements, before: Dict[str, object]) -> None:
        """Counter deltas and workload self-checks after the timed phase."""

    def deep_checks(self, measured: Measurements) -> None:
        """Sampled reference checks, after peak memory has been read."""

    #: Per-layer metrics that must be positive (``> 0``) or zero (``== 0``)
    #: in this workload's traced phase, or the workload did not stress what
    #: it claims to.
    layer_expectations: Dict[str, str] = {}

    def check_layers(self, metrics: Dict[str, float]) -> None:
        for name, expected in self.layer_expectations.items():
            if (metrics[name] > 0) != (expected == "> 0"):
                self.self_checks.append(f"{self.name} traced phase: {name} = {metrics[name]:g}, expected {expected}")

    def traced_extra(self, measured: Measurements) -> Dict[str, float]:
        return {"envelope.bytes": measured.envelope_bytes / measured.tasks if measured.tasks else 0.0}

    def program_rss_mb(self) -> float:
        return peak_rss_mb()

    def daemon_spans(self) -> Optional[List[Span]]:
        return None

    def close(self) -> None:
        """Stop whatever the workload started."""
        self.calibrator.close()


class InlineWorkload(Workload):
    """One caller, ``Session.submit`` in this process, envelope to envelope.

    A task's latency is the process CPU time it took: the call runs on this
    thread alone and does no I/O, so CPU time is its wall time without the
    moments the host gave the core to someone else.
    """

    def setup(self) -> None:
        from repro.api.session import Session

        super().setup()
        self.calibrate()
        self.session = Session()
        self.run_pass(Measurements())  # warm-up pass, untimed

    def execute(self, text: str) -> str:
        from repro.api.envelope import from_json

        return self.session.submit(from_json(text)).to_json()

    def before_task(self) -> None:
        """Hook run between tasks, outside the timed region."""

    def after_task(self) -> None:
        """Hook run between tasks, outside the timed region."""

    def run_pass(self, measured: Measurements) -> None:
        outputs = []
        clock = time.process_time
        opened = self.calibrate()
        for task in self.tasks:
            self.before_task()
            with self.root_span():
                started = clock()
                text = self.execute(task.text)
                latency = clock() - started
            outputs.append((latency, opened, text))
            self.after_task()
            opened = self.calibrate()
        self.calibrate(now=True)  # closes the last tasks' interval
        outputs = [(latency, self.calibrator.scale(at), text) for latency, at, text in outputs]
        tasks, routes = measured.tasks, measured.routes
        self.check_outputs(outputs, measured)
        measured.record_pass(sum(latency * scale for latency, scale, _text in outputs), tasks, routes)

    def start_counters(self) -> Dict[str, object]:
        return self.session.cache_info()

    def finish(self, measured: Measurements, before: Dict[str, object]) -> None:
        self.counters = counter_delta(before, self.session.cache_info())


# --------------------------------------------------------------------------- #
# route-warm
# --------------------------------------------------------------------------- #


class RouteWarm(InlineWorkload):
    """Warm single routes plus some connectivity/count tasks, one caller."""

    name = "route-warm"
    tail = 99.0
    layer_expectations = {
        "scenario.builds": "== 0",
        "kernel.compiles": "== 0",
        "ues.offsets_generated": "== 0",
        "lockstep.pairs": "== 0",
        "walk.self_us": "> 0",
    }

    def scenarios(self):
        return [
            spec("grid16", "grid", 16),
            spec("grid36", "grid", 36),
            spec("grid64", "grid", 64),
            spec("torus36", "torus", 36),
            spec("rr40", "random-regular", 40),
            spec("two-rings24", "two-rings", 24),
        ]

    def make_tasks(self) -> List[Task]:
        from repro.api.requests import ConnectivityRequest, CountRequest, RouteRequest

        scenarios = self.scenarios()
        *connected, rings = scenarios
        # A fixed composition; the seed only picks the pairs and sources.
        tasks = []
        for scenario in connected:
            for _ in range(96):
                source, target = self.pair(scenario)
                tasks.append(self.task(RouteRequest(scenario=scenario, source=source, target=target)))
            for _ in range(4):
                source, target = self.pair(scenario, connected=None)
                tasks.append(self.task(ConnectivityRequest(scenario=scenario, source=source, target=target), routes=0))
        for connected_pair in [True] * 20 + [False] * 4:  # disconnected: the walk must confirm FAILURE
            source, target = self.pair(rings, connected=connected_pair)
            tasks.append(self.task(RouteRequest(scenario=rings, source=source, target=target), heavy=not connected_pair))
        # Eight disconnected checks put the p99 inside one cluster of equal
        # cost (the full-walk connectivity checks), not on a cluster edge.
        for _ in range(8):
            source, target = self.pair(rings, connected=False)
            tasks.append(self.task(ConnectivityRequest(scenario=rings, source=source, target=target), routes=0))
        # CountNodes cost on grid 16 and two-rings barely depends on the source.
        for scenario in (scenarios[0], rings):
            for _ in range(8):
                source = self.rng.choice(self.oracle.vertices(scenario))
                tasks.append(self.task(CountRequest(scenario=scenario, source=source), routes=0))
        self.rng.shuffle(tasks)
        return tasks

    def finish(self, measured, before) -> None:
        super().finish(measured, before)
        for key in ("kernel_compiles", "offset_misses"):
            if self.counters.get(key, 0) != 0:
                self.self_checks.append(f"route-warm timed phase: {key} delta {self.counters[key]} != 0")


# --------------------------------------------------------------------------- #
# cold-start
# --------------------------------------------------------------------------- #


class ColdStart(InlineWorkload):
    """One route per scenario, each after every prepared cache is dropped."""

    name = "cold-start"
    tail = 70.0
    layer_expectations = {"ues.offsets_generated": "> 0", "kernel.compiles": "> 0", "scenario.builds": "> 0"}

    def scenarios(self):
        # Distinct size bounds 24..168, so no task can reuse another's
        # sequence; sequence lengths at least 2.2x apart, so the median
        # (grid 25) and p70 (grid 36) each fall in the middle of one
        # scenario's samples.  A pass takes about a second, so a run holds
        # a dozen samples of each scenario.
        return [
            spec("two-rings24", "two-rings", 24),
            spec("grid16", "grid", 16),
            spec("grid25", "grid", 25),
            spec("grid36", "grid", 36),
            spec("grid49", "grid", 49),
        ]

    def setup(self) -> None:
        from repro.core.engine import clear_prepared_caches

        self.clear = clear_prepared_caches
        Workload.setup(self)
        self.session = None
        self.totals: Dict[str, float] = {}

    def make_tasks(self) -> List[Task]:
        from repro.api.requests import RouteRequest

        scenarios = self.scenarios()
        tasks = []
        for scenario in scenarios:
            source, target = self.pair(scenario, connected=scenario.family != "two-rings")
            tasks.append(
                self.task(RouteRequest(scenario=scenario, source=source, target=target), heavy=scenario is scenarios[-1])
            )
        return tasks

    def execute(self, text: str) -> str:
        from repro.api.envelope import from_json
        from repro.api.session import Session

        self.session = Session()
        return self.session.submit(from_json(text)).to_json()

    def before_task(self) -> None:
        self.clear()
        gc.collect()

    def after_task(self) -> None:
        info = self.session.cache_info()
        for key, value in info.items():
            if isinstance(value, int):
                self.totals[key] = self.totals.get(key, 0) + value
        if info["offset_misses"] != 1 or info["kernel_compiles"] != 1 or info["disk_hits"]:
            self.self_checks.append(
                "cold task was not cold: offset_misses={offset_misses} kernel_compiles={kernel_compiles} "
                "disk_hits={disk_hits}".format(**info)
            )

    def start_counters(self) -> Dict[str, object]:
        self.totals = {}
        return {}

    def finish(self, measured, before) -> None:
        self.counters = dict(self.totals)


# --------------------------------------------------------------------------- #
# batch
# --------------------------------------------------------------------------- #


class Batch(InlineWorkload):
    """Route batches, inline sweeps and schedule batches on the lockstep kernels."""

    name = "batch"
    tail = 95.0
    layer_expectations = {
        "lockstep.batched_pairs": "> 0",
        "lockstep.multigraph_pairs": "> 0",
        "lockstep.schedule_pairs": "> 0",
        "sweep.shards": "> 0",
        "ues.offsets_generated": "== 0",
    }

    def scenarios(self):
        return [
            spec("grid64", "grid", 64),
            spec("torus36", "torus", 36),
            spec("rr40", "random-regular", 40),
            spec("grid36", "grid", 36),
            spec("relabel-torus36", "torus", 36, mutation="relabel", snapshots=4, switch_every=64),
        ]

    def make_tasks(self) -> List[Task]:
        from repro.api.requests import RouteBatchRequest, ScheduleRouteRequest, SweepRequest

        grid64, torus36, rr40, grid36, relabel_torus = self.scenarios()
        tasks = []
        # Lockstep batch time follows the longest walk in the batch, so a
        # pass holds many batches to average that maximum over pair sets
        # and make the figures depend little on the seed that drew them.
        for scenario in (grid64, torus36) * 8:
            pairs = tuple(self.pair(scenario) for _ in range(256))
            tasks.append(self.task(RouteBatchRequest(scenario=scenario, pairs=pairs), routes=len(pairs)))
        for _ in range(6):
            sweep = SweepRequest(
                scenarios=(grid64, torus36, rr40, grid36), pairs=64, master_seed=self.rng.randrange(1 << 30), workers=1
            )
            tasks.append(self.task(sweep, routes=4 * 64))
        # 288 pairs: auto-dispatch takes ScheduleBatchedWalk from 32,768
        # pairs x kernel vertices on; at 144 pairs the batch stays scalar.
        # Relabel schedules on the torus vary least in cost with the pairs.
        for _ in range(8):
            request = ScheduleRouteRequest(scenario=relabel_torus, num_pairs=288, pair_seed=self.rng.randrange(1 << 30))
            tasks.append(self.task(request, routes=288, heavy=True))
        self.rng.shuffle(tasks)
        return tasks

    def finish(self, measured, before) -> None:
        super().finish(measured, before)
        info = self.session.cache_info()
        for key in ("batched_kernels", "multigraph_kernels"):
            if not info.get(key):
                self.self_checks.append(f"batch: no {key} were built, the lockstep kernel was bypassed")

    def deep_checks(self, measured) -> None:
        from repro.api.envelope import from_json
        from repro.api.requests import RouteBatchRequest, ScheduleRouteRequest

        for index, task in enumerate(self.tasks):
            if not isinstance(task.request, (RouteBatchRequest, ScheduleRouteRequest)):
                continue
            result = from_json(self.execute(task.text))
            sample = reference_sample(16, task.routes, self.seed + index)
            problem = self.oracle.check_reference(task.request, result, sample)
            if problem:
                measured.fail(problem)


# --------------------------------------------------------------------------- #
# served
# --------------------------------------------------------------------------- #

#: Ready line the daemon prints once bound.
_LISTENING = "repro-server listening on http://"


class Served(Workload):
    """The daemon as a subprocess, two closed-loop callers over loopback."""

    name = "served"
    tail = 99.0
    layer_expectations = {"rbc.self_ms": "> 0", "log.records": "> 0", "server.rejected": "== 0"}
    callers = 2
    batch_size = 8
    #: Calls sent between two host-speed samples.
    chunk = 64

    def scenarios(self):
        return [
            spec("grid16", "grid", 16),
            spec("grid36", "grid", 36),
            spec("torus36", "torus", 36),
            spec("two-rings24", "two-rings", 24),
        ]

    def make_tasks(self) -> List[Task]:
        from repro.api.requests import (
            BroadcastReliableRequest,
            ConnectivityRequest,
            CountRequest,
            RouteRequest,
        )

        grid16, grid36, torus36, rings = self.scenarios()
        light = [grid16, grid36, torus36, rings]
        tasks = []
        for scenario in light:
            for _ in range(72):
                source, target = self.pair(scenario)
                tasks.append(self.task(RouteRequest(scenario=scenario, source=source, target=target)))
        for scenario in light[:3]:
            for _ in range(6):
                source, target = self.pair(scenario, connected=None)
                tasks.append(self.task(ConnectivityRequest(scenario=scenario, source=source, target=target), routes=0))
        for _ in range(12):
            source = self.rng.choice(self.oracle.vertices(grid16))
            tasks.append(self.task(CountRequest(scenario=grid16, source=source), routes=0))
        # Their cost ranges from 7 to 13 ms with source and fault plan, so
        # a pass draws fifteen to keep the median close across seeds.
        for faulty in (3, 4, 5) * 5:  # f < N/3 on 16 nodes
            request = BroadcastReliableRequest(
                scenario=grid16,
                source=self.rng.choice(self.oracle.vertices(grid16)),
                num_byzantine=faulty,
                behaviors=("equivocate", "drop", "forge"),
                fault_seed=self.rng.randrange(1 << 30),
            )
            tasks.append(self.task(request, routes=0, primary=False, heavy=True))
        # NDJSON batches of light routes ride along each pass.
        self.batches = []
        for _ in range(6):
            batch = []
            for _ in range(self.batch_size):
                scenario = self.rng.choice(light)
                source, target = self.pair(scenario)
                batch.append(self.task(RouteRequest(scenario=scenario, source=source, target=target)))
            self.batches.append(batch)
        return tasks

    # Daemon lifecycle -------------------------------------------------- #

    def setup(self) -> None:
        from repro.api.envelope import from_json
        from repro.server.client import TaskClient

        super().setup()
        for task in self.tasks + [t for batch in self.batches for t in batch]:
            task.request = from_json(task.text)
        os.makedirs(self.workdir, exist_ok=True)
        self.log_path = os.path.join(self.workdir, f"served-{os.getpid()}.jsonl")
        self.spans_path = os.path.join(self.workdir, f"served-spans-{os.getpid()}.json")
        for path in (self.log_path, self.spans_path):
            if os.path.exists(path):
                os.unlink(path)
        here = os.path.dirname(os.path.abspath(__file__))
        if self.tracer is not None:
            command = [sys.executable, os.path.join(here, "launcher.py"), "--spans-out", self.spans_path]
        else:
            command = [sys.executable, "-m", "repro.server"]
        command += ["--port", "0", "--concurrency", str(self.callers), "--result-log", self.log_path]
        self.daemon = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.daemon.stdout.readline()
        if not line.startswith(_LISTENING):
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.calibrate()
        host, port = line[len(_LISTENING):].strip().rsplit(":", 1)
        self.client = TaskClient(host, int(port))
        self.loop = asyncio.new_event_loop()
        # Warm up with one caller, so scenarios are built one at a time and
        # the daemon's peak memory does not depend on how builds overlap.
        self.run_pass(Measurements(), callers=1)

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None and daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        if daemon is not None and daemon.stdout is not None:
            daemon.stdout.close()
        loop = getattr(self, "loop", None)
        if loop is not None and not loop.is_closed():
            loop.close()
        super().close()

    def program_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon peak RSS not readable")

    def set_daemon_tracing(self) -> None:
        """Switch the traced daemon's recording on (SIGUSR1) while it is idle."""
        self.daemon.send_signal(signal.SIGUSR1)
        time.sleep(0.2)

    # Timed loop --------------------------------------------------------- #

    async def _caller(self, queue, outputs, batch_outputs) -> None:
        clock = time.perf_counter
        while queue:
            kind, index = queue.pop()
            with self.root_span():
                started = clock()
                reply = await self._send(kind, index)
                latency = clock() - started
            (outputs if kind == "task" else batch_outputs)[index] = (latency, reply)

    async def _send(self, kind: str, index: int):
        try:
            if kind == "task":
                return await self.client.submit(self.tasks[index].request)
            return await self.client.submit_many([task.request for task in self.batches[index]])
        except Exception as error:  # refused (429/5xx) or broken: counted as failed
            return error

    async def _callers(self, queue, outputs, batch_outputs, callers: int) -> None:
        await asyncio.gather(
            *(asyncio.ensure_future(self._caller(queue, outputs, batch_outputs)) for _ in range(callers))
        )

    def run_pass(self, measured: Measurements, callers: int = 0) -> None:
        # A fresh (seeded) order every pass, so which light tasks meet a
        # broadcast or a batch in the daemon differs from pass to pass.
        order = [("task", i) for i in range(len(self.tasks))]
        self.rng.shuffle(order)
        spacing = len(order) // len(self.batches)
        for index in reversed(range(len(self.batches))):
            order.insert(index * spacing + spacing // 2, ("batch", index))
        outputs: List[object] = [None] * len(self.tasks)
        batch_outputs: List[object] = [None] * len(self.batches)
        scales = {"task": [0.0] * len(self.tasks), "batch": [0.0] * len(self.batches)}
        # The callers drain one chunk at a time; the host-speed sample
        # between chunks runs while the daemon is idle.
        opened = self.calibrate()
        for start in range(0, len(order), self.chunk):
            chunk = order[start:start + self.chunk]
            queue = list(reversed(chunk))
            self.loop.run_until_complete(self._callers(queue, outputs, batch_outputs, callers or self.callers))
            closed = self.calibrate(now=True)
            scale = self.calibrator.scale(opened)
            for kind, index in chunk:
                scales[kind][index] = scale
            opened = closed
        tasks, routes = measured.tasks, measured.routes
        measured.call_time += sum(latency for latency, _reply in outputs + batch_outputs)
        # Closed-loop throughput: each caller is always waiting on a call,
        # except while a chunk drains for the host-speed sample, which
        # this leaves out.
        busy = sum(latency * scale for (latency, _reply), scale in zip(outputs, scales["task"]))
        busy += sum(latency * scale for (latency, _reply), scale in zip(batch_outputs, scales["batch"]))
        with self.paused():
            pairs = [(task, latency, result, scale) for task, (latency, result), scale in zip(self.tasks, outputs, scales["task"])]
            for batch, (latency, reply), scale in zip(self.batches, batch_outputs, scales["batch"]):
                if isinstance(reply, Exception):
                    pairs += [(task, latency, reply, scale) for task in batch]
                else:
                    pairs += [(task, None, result, scale) for task, result in zip(batch, reply)]
            for task, latency, result, scale in pairs:
                measured.attempted += 1
                if isinstance(result, Exception):
                    measured.fail(f"{type(result).__name__}: {result}")
                    continue
                problem = self.oracle.check(task.request, result)
                if problem:
                    measured.fail(problem)
                    continue
                measured.tasks += 1
                measured.routes += task.routes
                measured.envelope_bytes += len(task.text) + len(result.to_json())
                if latency is not None:
                    measured.record_latency(task, latency, scale)
            self.last_outputs = pairs
        measured.record_pass(busy / (callers or self.callers), tasks, routes)

    def metrics_snapshot(self) -> Dict[str, object]:
        with self.paused():
            return self.loop.run_until_complete(self.client.metrics())

    def start_counters(self) -> Dict[str, object]:
        self.log_size = os.path.getsize(self.log_path)
        return self.metrics_snapshot()

    def finish(self, measured, before) -> None:
        after = self.metrics_snapshot()
        self.counters = counter_delta(before["cache"], after["cache"])
        queue = counter_delta(before["queue"], after["queue"])
        self.counters.update({f"queue_{key}": value for key, value in queue.items()})
        self.counters["queue_peak_outstanding"] = after["queue"]["peak_outstanding"]
        self.counters["log_records"] = after["log"]["records"] - before["log"]["records"]
        self.counters["log_bytes"] = os.path.getsize(self.log_path) - self.log_size
        self.server_latency = sum(h["total_seconds"] for h in after["latency"].values()) - sum(
            h["total_seconds"] for h in before["latency"].values()
        )
        if queue.get("rejected") or queue.get("failed"):
            self.self_checks.append(f"served: daemon rejected {queue['rejected']} and failed {queue['failed']} tasks")
        if self.counters.get("kernel_compiles"):
            self.self_checks.append("served timed phase compiled kernels on a warm daemon")

    def deep_checks(self, measured) -> None:
        """Served results must equal inline ones; the log must verify."""
        from repro.api.session import Session

        self.close()
        problem = check_log(self.log_path)
        if problem:
            self.self_checks.append(problem)
        session = Session()
        sample = reference_sample(24, len(self.last_outputs), self.seed)
        for index in sample:
            task, _latency, served, _scale = self.last_outputs[index]
            if isinstance(served, Exception):
                continue  # already counted as failed
            inline = session.submit(task.request)
            if masked_wire(served) != masked_wire(inline):
                measured.fail(f"served result for {type(task.request).__name__} differs from inline Session.submit")

    def daemon_spans(self) -> Optional[List[Span]]:
        return load_spans(self.spans_path) if os.path.exists(self.spans_path) else []

    def traced_extra(self, measured) -> Dict[str, float]:
        extra = super().traced_extra(measured)
        client_total = measured.call_time
        tasks = measured.tasks or 1
        submit = sum(s.end - s.start for s in self.daemon_spans() if s.name == "session.submit" and s.parent is None)
        extra.update(
            {
                "server.queue_wait_ms": (self.server_latency - submit) / tasks * 1e3,
                "server.http_overhead_ms": (client_total - self.server_latency) / tasks * 1e3,
                "server.peak_outstanding": self.counters.get("queue_peak_outstanding", 0),
                "server.rejected": self.counters.get("queue_rejected", 0),
                "server.failed": self.counters.get("queue_failed", 0),
                "log.bytes": self.counters["log_bytes"] / self.counters["log_records"] if self.counters.get("log_records") else 0.0,
            }
        )
        return extra


WORKLOADS = {cls.name: cls for cls in (RouteWarm, ColdStart, Batch, Served)}
