"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment of EXPERIMENTS.md: it
computes the experiment's reproduction table, writes it to
``benchmarks/output/<experiment>.txt`` (and echoes it to stdout), and times a
representative operation with ``pytest-benchmark`` so the harness also tracks
raw performance.  Run the whole harness with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Dict, Iterable, Sequence

from repro.analysis.reporting import format_table
from repro.core.engine import PreparedNetwork, prepare
from repro.core.universal import RandomSequenceProvider

#: Output directory for the reproduction tables.
OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

#: One shared provider across all benchmarks so sequence caches are reused.
PROVIDER = RandomSequenceProvider(seed=2008)

#: True when the harness runs in CI smoke mode (small instances, no timing
#: assertions); set ``ENGINE_BENCH_SMOKE=1`` to enable.
SMOKE = os.environ.get("ENGINE_BENCH_SMOKE", "") not in ("", "0")

#: Version of the BENCH_*.json report envelope.  ``tools/check_bench.py``
#: rejects reports and baselines whose version it does not understand, so a
#: format change cannot silently pass the regression gate.
BENCH_SCHEMA_VERSION = 1


def prepared(network_or_graph) -> PreparedNetwork:
    """Shared prepared routing engine for a benchmark graph.

    Thin re-export of :func:`repro.core.engine.prepare` so every benchmark
    module lands on the same per-graph cache (reduction, size tables, compiled
    walk kernel) instead of re-deriving topology state per measurement.
    """
    return prepare(network_or_graph)


def machine_fingerprint() -> Dict[str, object]:
    """Identify the measuring host, so persisted timings can be interpreted.

    Regression gating (``tools/check_bench.py``) compares fresh
    ``BENCH_<name>.json`` reports against committed baselines; the
    fingerprint travels with both sides so a cross-machine comparison is
    visible in the artifacts rather than silently misleading.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy.__version__,
    }


def emit_bench_json(name: str, payload: Dict[str, object]) -> str:
    """Persist one machine-readable benchmark report; return its path.

    Writes ``benchmarks/output/BENCH_<name>.json`` containing ``payload``
    plus the shared envelope (benchmark name, machine fingerprint).  Every
    benchmark module calls this next to its human-readable table so CI can
    upload the JSON artifacts and gate on them with ``tools/check_bench.py``.
    Timing fields are seconds (floats); ``payload`` must be JSON-serialisable.

    When ``REPRO_BENCH_LOG`` names a file, the report is also appended to
    that hash-chained provenance log (:mod:`repro.provenance`) as one
    ``bench`` record — CI points it at ``benchmarks/trajectory/`` so the
    repository accumulates an auditable performance history across PRs.
    """
    report = {
        "benchmark": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "machine": machine_fingerprint(),
    }
    report.update(payload)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench json written to {path}]")
    log_path = os.environ.get("REPRO_BENCH_LOG")
    if log_path:
        from repro.provenance.log import ResultLog
        from repro.provenance.records import content_address

        address = content_address(
            {
                "benchmark": name,
                "mode": report.get("mode", "full"),
                "schema_version": BENCH_SCHEMA_VERSION,
            }
        )
        with ResultLog(log_path, "a") as log:
            log.append("bench", {"report": report}, address=address)
        print(f"[bench record appended to {log_path}]")
    return path


def emit_table(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Render, print and persist one experiment table; return the rendering."""
    table = format_table(headers, rows, title=title)
    if notes:
        table = f"{table}\n\n{notes.strip()}"
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(f"\n{table}\n[written to {path}]")
    return table
