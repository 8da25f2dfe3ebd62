"""Tests for the benchmark's own machinery: spans, percentiles, the oracle, host speed.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from calibrate import NOMINAL_S, Calibrator
from layers import PER_LAYER, attribute
from oracle import Oracle, masked_wire
from stats import percentile
from tracing import Span, Tracer, layer_self_times, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(span_id, parent, name, start, end, task=1):
    return Span(task, span_id, parent, name, start, end)


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(1, None, "task", 0.0, 10.0),
        span(2, 1, "session.submit", 1.0, 4.0),
        span(3, 2, "walk.route", 2.0, 3.0),
        span(4, 1, "envelope.encode", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(3.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0), 4: pytest.approx(4.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        span(1, None, "task", 0.0, 10.0),
        span(2, 1, "walk.route", 1.0, 5.0),
        span(3, 1, "walk.route", 3.0, 8.0),
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_that_stick_out():
    spans = [span(1, None, "task", 0.0, 10.0), span(2, 1, "log.append_task", 8.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_layer_self_times_partition_the_wall_time():
    spans = [
        span(1, None, "task", 0.0, 10.0),
        span(2, 1, "session.submit", 0.5, 9.5),
        span(3, 2, "walk.route", 1.0, 6.0),
        span(4, 3, "ues.offsets_for", 1.0, 1.5),
        span(5, 2, "seal.result_provenance", 6.0, 7.0),
    ]
    wall, layers = attribute(spans)
    assert wall == pytest.approx(10.0)
    assert sum(layers.values()) == pytest.approx(wall)
    assert layers["walk"] == pytest.approx(4.5)
    assert layers == layer_self_times(spans)


def test_daemon_spans_leave_the_rest_to_the_server_layer():
    client = [span(1, None, "task", 0.0, 10.0), span(2, 1, "envelope.encode", 0.0, 1.0)]
    daemon = [span(7, None, "session.submit", 3.0, 7.0, task=7), span(8, 7, "walk.route", 4.0, 6.0, task=7)]
    wall, layers = attribute(client, daemon)
    assert layers["server"] == pytest.approx(5.0)
    assert layers["task"] == 0.0
    assert sum(layers.values()) == pytest.approx(wall)


def test_tracer_nests_spans_per_thread_and_groups_them_by_task():
    tracer = Tracer()
    inner = tracer.wrap("walk.route", lambda: "routed")
    outer = tracer.wrap("session.submit", lambda: inner())
    assert outer() == "routed" and tracer.spans == []  # inert until active
    tracer.active = True
    with tracer.span("task"):
        outer()
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded.name, []).append(recorded)
    root = by_name["task"][0]
    nested, threaded = sorted(by_name["session.submit"], key=lambda s: s.start)
    assert nested.parent == root.span and nested.task == root.span
    assert threaded.parent is None and threaded.task == threaded.span
    assert {s.task for s in by_name["walk.route"]} == {root.span, threaded.span}


def test_tracer_install_and_uninstall_restore_the_program():
    import repro.api.executors as executors

    original = executors.result_provenance
    tracer = Tracer()
    tracer.install([("repro.api.executors", "result_provenance", "seal.result_provenance", None)])
    assert executors.result_provenance is not original
    tracer.uninstall()
    assert executors.result_provenance is original


# --------------------------------------------------------------------------- #
# Percentiles with sample counts
# --------------------------------------------------------------------------- #


def test_percentile_reports_nearest_rank_and_samples_beyond():
    values = list(range(1, 101))
    p99 = percentile(values, 99)
    assert (p99.value, p99.n, p99.beyond) == (99, 100, 1)
    p50 = percentile(list(reversed(values)), 50)
    assert (p50.value, p50.beyond) == (50, 50)
    assert percentile([7.0], 99).value == 7.0 and percentile([7.0], 99).beyond == 0


def test_percentile_rejects_empty_samples_and_bad_levels():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# --------------------------------------------------------------------------- #
# The output oracle
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def served_results():
    from repro.analysis.experiments import ScenarioSpec
    from repro.api import ConnectivityRequest, CountRequest, RouteRequest, Session

    rings = ScenarioSpec(name="rings", family="two-rings", size=12)
    grid = ScenarioSpec(name="grid", family="grid", size=9)
    oracle = Oracle()
    oracle.learn(rings)
    oracle.learn(grid)
    session = Session()
    requests = [
        RouteRequest(scenario=rings, source=0, target=1),
        RouteRequest(scenario=rings, source=0, target=7),
        ConnectivityRequest(scenario=rings, source=0, target=7),
        CountRequest(scenario=grid, source=4),
    ]
    return oracle, [(request, session.submit(request)) for request in requests]


def test_oracle_accepts_correct_results(served_results):
    oracle, results = served_results
    assert [oracle.check(request, result) for request, result in results] == [None] * len(results)


def test_oracle_flags_a_deliberately_wrong_result(served_results):
    import dataclasses

    oracle, results = served_results
    for request, result in results:
        payload = dict(result.payload)
        for key in ("delivered", "connected"):
            if key in payload:
                payload[key] = not payload[key]
        if "original_count" in payload:
            payload["original_count"] += 1
        wrong = dataclasses.replace(result, payload=payload)
        assert oracle.check(request, wrong) is not None, request


def test_oracle_flags_an_unconfirmed_failure(served_results):
    import dataclasses

    oracle, results = served_results
    request, result = results[1]  # disconnected pair
    cut_short = dict(result.payload, forward_virtual_steps=result.payload["sequence_length"] - 1)
    assert oracle.check(request, dataclasses.replace(result, payload=cut_short)) is not None


def test_masked_wire_ignores_timing_and_chain_position(served_results):
    import dataclasses

    _oracle, results = served_results
    _request, result = results[0]
    moved = dataclasses.replace(
        result, elapsed_seconds=result.elapsed_seconds + 1, provenance=dict(result.provenance, parent="ab" * 32)
    )
    assert masked_wire(moved) == masked_wire(result)
    changed = dataclasses.replace(result, physical_steps=(result.physical_steps or 0) + 1)
    assert masked_wire(changed) != masked_wire(result)


@pytest.fixture(scope="module")
def schedule_result():
    from repro.analysis.experiments import ScenarioSpec
    from repro.api import ScheduleRouteRequest, Session

    spec = ScenarioSpec(
        name="relabel", family="grid", size=9, extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 16))
    )
    oracle = Oracle()
    oracle.learn(spec)
    request = ScheduleRouteRequest(scenario=spec, num_pairs=6, pair_seed=4)
    return oracle, request, Session().submit(request)


def test_oracle_accepts_a_correct_schedule_batch(schedule_result):
    oracle, request, result = schedule_result
    assert oracle.check(request, result) is None
    assert oracle.check_reference(request, result, range(6)) is None


def test_oracle_flags_stranded_missing_and_altered_schedule_results(schedule_result):
    import dataclasses

    oracle, request, result = schedule_result
    results = result.payload["results"]
    stranded = [dict(results[0], outcome="stranded", sound=False)] + results[1:]
    short = dict(result.payload, pairs=result.payload["pairs"][:-1], results=results[:-1])
    assert oracle.check(request, dataclasses.replace(result, payload=dict(result.payload, results=stranded))) is not None
    assert oracle.check(request, dataclasses.replace(result, payload=short)) is not None
    altered = [dict(results[0], steps_taken=results[0]["steps_taken"] + 1)] + results[1:]
    wrong = dataclasses.replace(result, payload=dict(result.payload, results=altered))
    assert oracle.check_reference(request, wrong, [0]) is not None


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #


def test_calibrator_scales_work_by_the_samples_around_it():
    calibrator = Calibrator()
    try:
        assert [calibrator.sample(), calibrator.sample()] == [0, 1]
        assert all(sample > 0 for sample in calibrator.samples)
    finally:
        calibrator.close()
    calibrator.samples = [2 * NOMINAL_S, NOMINAL_S, NOMINAL_S]
    assert calibrator.scale(0) == pytest.approx(1 / 1.5)
    assert calibrator.scale(1) == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# The benchmark definition and its command line
# --------------------------------------------------------------------------- #


def test_benchmark_json_matches_the_reported_metrics():
    from run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == {"route-warm", "cold-start", "batch", "served"}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_a_second_seed_reports_the_same_metric_set(tmp_path):
    def metrics(seed):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold-start", "--seed", str(seed), "--seconds", "0.1"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {name: metric["unit"] for name, metric in result["metrics"].items()}

    assert metrics(1) == metrics(2)
