"""End-to-end, layer-by-layer benchmark of the routing stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload route-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is a separate run that wraps every layer
boundary with span recorders and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit and sample count.  A full report (machine
fingerprint, seed, counters, self-checks, sample counts) is written to
``.perfbench/reports/`` in the checkout.

Times are reported at a fixed reference host speed (see ``calibrate.py``):
the run samples a benchmark-owned reference loop between its tasks and
scales each task's time by how much slower or faster the host ran than the
reference around it.  The report keeps the raw median latency as well.

This file is the parent: it starts the workload in fresh child processes
(``--role setup`` measures set-up only, ``--role worker`` sets up and then
measures), so ``setup_s`` — from the child's first step, before the program
is imported, until the first timed task can be sent, scaled like the tasks
— is the median of several cold starts.  (Interpreter start and the
benchmark's own imports, about 50 ms, are not in it; the report also keeps
each child's wall time from process start.)  Workloads, the output oracle,
span recording and per-layer metrics live in the sibling modules; see
``NOTES.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3

#: Longest a whole run may take before its children are killed, in seconds.
RUN_TIMEOUT = 170

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("routes_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
]

#: The workloads, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("route-warm", "cold-start", "batch", "served")

_READY = "PERFBENCH-READY"
_RESULT = "PERFBENCH-RESULT "


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end, layer-by-layer routing benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_NAMES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["parent", "setup", "worker"], default="parent", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Child side: set up, then (worker only) measure and report
# --------------------------------------------------------------------------- #


def end_to_end_metrics(workload, measured, rss_mb: float) -> dict:
    from stats import median, percentile

    tail = percentile(measured.latencies, workload.tail)
    # Rates are medians over passes, so one slow moment moves one pass only.
    return {
        "p50_ms": median(measured.latencies) * 1e3,
        "tail_ms": tail.value * 1e3,
        "heavy_p50_ms": median(measured.heavy) * 1e3,
        "tasks_per_s": median([tasks / seconds for seconds, tasks, _routes in measured.passes]),
        "routes_per_s": median([routes / seconds for seconds, _tasks, routes in measured.passes]),
        "peak_rss_mb": rss_mb,
        "ok_ratio": (measured.attempted - measured.failed) / measured.attempted,
    }


def child(args: argparse.Namespace) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, os.path.join(os.getcwd(), ".perfbench", "tmp"), tracer)
    try:
        # Set-up is timed here, between host-speed samples, so it can be
        # scaled like the tasks are; the program is first imported in setup().
        first = workload.calibrate(now=True)
        workload.setup()
        raw, scaled = workload.calibrator.elapsed(first, workload.calibrate(now=True))
        print(f"{_READY} {raw!r} {scaled!r}", flush=True)
        if args.role == "setup":
            return 0
        report = measure(workload, args, tracer)
    finally:
        workload.close()
    print(_RESULT + json.dumps(report), flush=True)
    return 0


def measure(workload, args, tracer) -> dict:
    from bench_utils import machine_fingerprint
    from layers import attribute, dominant_layers, layer_metrics
    from stats import median, percentile

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if tracer is None:
        before = workload.start_counters()
        measured = workload.run_phase(args.seconds)
        workload.finish(measured, before)
        rss = workload.program_rss_mb()
        workload.deep_checks(measured)
        report["metrics"] = end_to_end_metrics(workload, measured, rss)
        report["raw_p50_ms"] = median(measured.raw_latencies) * 1e3
        report["speed_scale"] = {
            "median": median(measured.scales),
            "min": min(measured.scales),
            "max": max(measured.scales),
            "samples": len(workload.calibrator.samples),
        }
        tail = percentile(measured.latencies, workload.tail)
        report["samples"] = {
            "latencies": tail.n,
            "tail_percentile": tail.q,
            "beyond_tail": tail.beyond,
            "heavy": len(measured.heavy),
            "passes": len(measured.passes),
            "median_pass_s": median([seconds for seconds, _tasks, _routes in measured.passes]),
        }
    else:
        inert = workload.run_phase(args.seconds / 2)
        if args.workload == "served":
            workload.set_daemon_tracing()
        before = workload.start_counters()
        tracer.active = True
        measured = workload.run_phase(args.seconds / 2)
        tracer.active = False
        workload.finish(measured, before)
        workload.deep_checks(measured)
        spans = list(tracer.spans)
        daemon_spans = workload.daemon_spans()
        extra = workload.traced_extra(measured)
        extra["trace.overhead_pct"] = (measured.mean_latency() / inert.mean_latency() - 1) * 100
        report["metrics"] = layer_metrics(spans, measured.tasks, workload.counters, daemon_spans, extra)
        workload.check_layers(report["metrics"])
        wall, layers = attribute(spans, daemon_spans)
        gap = abs(sum(layers.values()) - wall)
        report["attribution"] = {"wall_s": wall, "layers_s": layers, "unattributed_s": gap}
        if gap > 1e-6 * max(1, len(spans)) + 1e-3 * wall:
            workload.self_checks.append(f"layer self times miss the traced wall time by {gap:.6f}s")
        report["dominant_layers"] = dominant_layers(report["metrics"])
        report["untraced_phase_mean_ms"] = inert.mean_latency() * 1e3
        report["traced_phase_mean_ms"] = measured.mean_latency() * 1e3
    report.update(
        {
            "attempted": measured.attempted,
            "failed": measured.failed,
            "problems": measured.problems,
            "self_checks": workload.self_checks[:8],
            "counters": workload.counters,
        }
    )
    return report


# --------------------------------------------------------------------------- #
# Parent side: set-up samples, one measured child, the result line
# --------------------------------------------------------------------------- #


def child_env(root: str) -> dict:
    env = dict(os.environ)
    # No kernel disk tier (cold-start must really be cold) and no bench log.
    env.pop("REPRO_KERNEL_CACHE_DIR", None)
    env.pop("REPRO_BENCH_LOG", None)
    paths = [os.path.join(root, "src"), os.path.join(root, "benchmarks"), HERE]
    env["PYTHONPATH"] = os.pathsep.join(paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: argparse.Namespace, role: str, env: dict, deadline: float):
    """Start one child; return ``(set-up times, report or None)``.

    The set-up times are the wall seconds from process start to ready, and
    the child's own raw and speed-scaled set-up seconds.
    """
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    started = time.perf_counter()
    # Own process group, so a kill also stops the daemon a served child started.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # A hung child must not hang the run: kill it at the run's deadline.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    watchdog.start()
    setup_s = None
    report = None
    try:
        for line in process.stdout:
            if line.startswith(_READY):
                raw, scaled = (float(value) for value in line.split()[1:])
                setup_s = {"wall": time.perf_counter() - started, "raw": raw, "scaled": scaled}
            elif line.startswith(_RESULT):
                report = json.loads(line[len(_RESULT):])
            else:
                sys.stderr.write(line)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or setup_s is None or (role == "worker" and report is None):
        raise RuntimeError(f"{role} child for {args.workload} exited with {process.returncode}")
    return setup_s, report


def print_report(report: dict, metrics: dict, units: dict) -> None:
    samples = report.get("samples", {})
    counts = {
        "p50_ms": samples.get("latencies"),
        "tail_ms": f"{samples.get('latencies')} (p{samples.get('tail_percentile'):g}, {samples.get('beyond_tail')} beyond)"
        if samples else None,
        "heavy_p50_ms": samples.get("heavy"),
        "tasks_per_s": samples.get("passes"),
        "routes_per_s": samples.get("passes"),
        "setup_s": SETUP_SAMPLES,
    }
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"nproc={report['nproc']} machine={json.dumps(report['machine'], sort_keys=True)}")
    for name, value in metrics.items():
        count = counts.get(name)
        suffix = f"  n={count}" if count is not None else ""
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6}{suffix}")
    if report.get("dominant_layers"):
        top = ", ".join(f"{layer} {share:.1f}%" for layer, share in report["dominant_layers"])
        print(f"  dominant layers: {top}")
    for problem in report["problems"] + report["self_checks"]:
        print(f"  PROBLEM: {problem}")


def parent(args: argparse.Namespace) -> int:
    from stats import median

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a repository checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = [run_child(args, "setup", env, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, report = run_child(args, "worker", env, deadline)
    setups.append(setup_s)
    report["setup_samples_s"] = setups
    if args.trace:
        from layers import PER_LAYER

        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
        report["metrics"]["setup_s"] = median([setup["scaled"] for setup in setups])
    metrics = {name: report["metrics"][name] for name in units}
    correct = report["failed"] == 0 and not report["self_checks"] and report["attempted"] > 0
    report["correct"] = correct
    out_dir = os.path.join(root, ".perfbench", "reports")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print_report(report, metrics, units)
    print(f"  report: {os.path.relpath(path, root)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "parent":
        return child(args)
    if args.workload != "all":
        return parent(args)
    status = 0
    for name in WORKLOAD_NAMES:
        status = max(status, parent(argparse.Namespace(**dict(vars(args), workload=name))))
    return status


if __name__ == "__main__":
    sys.exit(main())
