"""The tiered kernel store: LRU bounds, disk persistence, corruption fallback.

The store replaces PR 5's unbounded module-level ``prepare`` /
``prepare_schedule`` dicts.  Three properties matter and are pinned here:

* **Invisibility** — eviction, persistence, reload and every fallback must
  leave routing results bitwise identical; the caches are optimisations, not
  semantics.
* **Self-healing** — a corrupt or truncated kernel file is detected
  (``disk_errors``), silently recompiled, and overwritten with a fresh valid
  copy.
* **Worker adoption** — clearing the caches re-reads the ``REPRO_KERNEL_*``
  environment, which is how pool workers inherit the parent's configuration
  and warm-start from the shared disk tier (``kernel_compiles == 0``).
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import (
    clear_prepared_caches,
    configure_kernel_store,
    prepare,
    prepare_schedule,
    prepared_cache_info,
)
from repro.core.kernel_store import (
    DEFAULT_ENGINE_CAPACITY,
    ENV_KERNEL_CACHE_DIR,
    ENV_KERNEL_CACHE_SIZE,
    LRUCache,
    kernel_file,
    kernel_store,
)
from repro.core.walk_kernel import CompiledWalk, rotation_hash
from repro.graphs import generators
from repro.network.dynamics import TopologySchedule


@pytest.fixture
def clean_store():
    """A cold store with no inherited environment; everything restored after."""
    saved = {
        name: os.environ.pop(name, None)
        for name in (ENV_KERNEL_CACHE_DIR, ENV_KERNEL_CACHE_SIZE)
    }
    clear_prepared_caches()
    yield kernel_store()
    for name, value in saved.items():
        os.environ.pop(name, None)
        if value is not None:
            os.environ[name] = value
    clear_prepared_caches()


def _route(graph, provider, count=6):
    engine = prepare(graph)
    vertices = list(graph.vertices)
    pairs = [
        (vertices[i % len(vertices)], vertices[(i * 5 + 3) % len(vertices)])
        for i in range(count)
    ]
    return engine.route_many(pairs, provider=provider)


# --------------------------------------------------------------------------- #
# LRUCache unit behaviour
# --------------------------------------------------------------------------- #


def test_lru_counts_hits_misses_and_evicts_in_order():
    cache = LRUCache(2)
    assert cache.get("a") is None and cache.misses == 1
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1 and cache.hits == 1
    cache.put("c", 3)  # evicts "b": "a" was refreshed by the hit
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1 and len(cache) == 2


def test_lru_peek_and_touch_keep_counters_truthful():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.hits == 0 and cache.misses == 0  # peek is uncounted
    cache.touch("a")
    assert cache.hits == 1
    cache.record_miss()
    assert cache.misses == 1
    cache.put("c", 3)  # "b" is now the LRU tail
    assert "b" not in cache


def test_lru_resize_evicts_and_pop_clear_reset():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key)
    cache.resize(1)
    assert len(cache) == 1 and cache.evictions == 2
    assert cache.pop("c") == "c" and cache.pop("c", "gone") == "gone"
    cache.clear()
    assert len(cache) == 0 and cache.hits == cache.misses == cache.evictions == 0
    with pytest.raises(ValueError):
        LRUCache(0)
    with pytest.raises(ValueError):
        cache.resize(0)


# --------------------------------------------------------------------------- #
# Bounded prepare caches: eviction is invisible
# --------------------------------------------------------------------------- #


def test_engine_eviction_recompiles_bitwise_identical(clean_store, provider):
    configure_kernel_store(capacity=2)
    graph = generators.grid_graph(4, 4)
    before = _route(graph, provider)
    # Two more graphs push the first engine out of the bounded LRU.
    prepare(generators.cycle_graph(7))
    prepare(generators.cycle_graph(8))
    assert prepared_cache_info()["engine_evictions"] >= 1
    assert _route(graph, provider) == before


def test_schedule_eviction_reprepares_bitwise_identical(clean_store, provider):
    store = clean_store
    store.schedules.resize(1)
    first = TopologySchedule(
        snapshots=(generators.cycle_graph(6), generators.cycle_graph(6)),
        switch_times=(0, 4),
    )
    second = TopologySchedule.static(generators.grid_graph(3, 3))
    pairs = [(0, 3), (1, 5), (2, 2)]
    before = prepare_schedule(first).route_many(pairs, provider=provider)
    prepare_schedule(second)  # evicts the first schedule engine
    assert store.schedules.evictions >= 1
    assert prepare_schedule(first).route_many(pairs, provider=provider) == before


def test_capacity_validation():
    with pytest.raises(ValueError):
        configure_kernel_store(capacity=0)


# --------------------------------------------------------------------------- #
# Disk tier: persist -> clear -> reload -> identical
# --------------------------------------------------------------------------- #


def test_round_trip_reloads_without_recompiling(clean_store, tmp_path, provider):
    cache_dir = str(tmp_path / "kernels")
    configure_kernel_store(cache_dir=cache_dir)
    clear_prepared_caches()

    graph = generators.grid_graph(4, 4)
    before = _route(graph, provider)
    info = prepared_cache_info()
    assert info["kernel_disk_enabled"] == 1
    assert info["kernel_compiles"] == 1
    assert info["disk_saves"] == 1
    path = kernel_file(cache_dir, graph)
    assert os.path.exists(path)

    # Cold process, same content: an *equal* graph built from scratch maps to
    # the same content-addressed file and loads instead of compiling.
    clear_prepared_caches()
    rebuilt = generators.grid_graph(4, 4)
    assert rotation_hash(rebuilt) == rotation_hash(graph)
    after = _route(rebuilt, provider)
    info = prepared_cache_info()
    assert info["kernel_compiles"] == 0
    assert info["disk_hits"] == 1
    assert after == before


def test_disk_loaded_kernel_recomputes_reduction_lazily(clean_store, tmp_path):
    configure_kernel_store(cache_dir=str(tmp_path))
    clear_prepared_caches()
    graph = generators.grid_graph(3, 3)
    prepare(graph)
    clear_prepared_caches()
    engine = prepare(generators.grid_graph(3, 3))
    assert engine.kernel.reduction is None  # loaded from disk, not compiled
    reduction = engine.reduction  # lazy recompute for reduction-needing callers
    assert reduction is not None
    assert engine.kernel.num_vertices == CompiledWalk(reduction).num_vertices


@pytest.mark.parametrize("corruption", ["garbage", "truncated", "bad-magic"])
def test_corrupt_kernel_file_recompiles_and_self_heals(
    clean_store, tmp_path, provider, corruption
):
    import numpy as np

    cache_dir = str(tmp_path)
    configure_kernel_store(cache_dir=cache_dir)
    clear_prepared_caches()
    graph = generators.grid_graph(4, 4)
    before = _route(graph, provider)
    path = kernel_file(cache_dir, graph)

    if corruption == "garbage":
        with open(path, "wb") as handle:
            handle.write(b"not a numpy file at all")
    elif corruption == "truncated":
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
    else:
        with open(path, "wb") as handle:
            np.save(handle, np.arange(5, dtype=np.int64))

    clear_prepared_caches()
    after = _route(generators.grid_graph(4, 4), provider)
    info = prepared_cache_info()
    assert info["disk_errors"] >= 1
    assert info["kernel_compiles"] == 1  # fell back to tier 3
    assert after == before
    # Self-healed: the recompiled kernel was written back and now loads clean.
    clear_prepared_caches()
    _route(generators.grid_graph(4, 4), provider)
    info = prepared_cache_info()
    assert info["kernel_compiles"] == 0 and info["disk_hits"] == 1


def test_kernel_arrays_round_trip_exactly():
    graph = generators.petersen_graph()
    kernel = prepare(graph).kernel
    clone = CompiledWalk.from_arrays(kernel.to_arrays())
    assert clone.to_arrays() == kernel.to_arrays()
    assert clone.clusters == kernel.clusters
    assert clone.num_vertices == kernel.num_vertices
    assert clone.reduction is None


# --------------------------------------------------------------------------- #
# Configuration: environment adoption and the disabled path
# --------------------------------------------------------------------------- #


def test_clear_adopts_environment_like_a_pool_worker(clean_store, tmp_path):
    # The sweep runner's worker initialiser only calls clear_prepared_caches;
    # the exported environment is all a worker gets.
    os.environ[ENV_KERNEL_CACHE_DIR] = str(tmp_path)
    os.environ[ENV_KERNEL_CACHE_SIZE] = "5"
    clear_prepared_caches()
    store = kernel_store()
    assert store.cache_dir == str(tmp_path)
    assert store.engines.capacity == 5


def test_configure_empty_dir_disables_the_disk_tier(clean_store, tmp_path):
    configure_kernel_store(cache_dir=str(tmp_path))
    assert kernel_store().cache_dir == str(tmp_path)
    assert os.environ[ENV_KERNEL_CACHE_DIR] == str(tmp_path)
    configure_kernel_store(cache_dir="")
    assert kernel_store().cache_dir is None
    assert ENV_KERNEL_CACHE_DIR not in os.environ
    assert not kernel_store().disk_enabled


def test_defaults_without_environment(clean_store):
    store = kernel_store()
    assert store.cache_dir is None
    assert not store.disk_enabled
    assert store.engines.capacity == DEFAULT_ENGINE_CAPACITY


# --------------------------------------------------------------------------- #
# Stale temp-file sweep: crash debris is collected when the disk tier opens
# --------------------------------------------------------------------------- #


def test_sweep_removes_dead_pid_and_ancient_tmp_files(clean_store, tmp_path):
    import subprocess
    import sys
    import time as time_module

    from repro.core.kernel_store import STALE_TMP_SECONDS, sweep_stale_tmp_files

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    dead_pid = child.pid

    dead = tmp_path / f"abc123.npy.tmp.{dead_pid}"
    dead.write_bytes(b"orphan")
    mine = tmp_path / f"def456.npy.tmp.{os.getpid()}"
    mine.write_bytes(b"in-progress")
    ancient = tmp_path / "fff999.npy.tmp.1"  # pid 1 is alive but not the writer
    ancient.write_bytes(b"ancient")
    old = time_module.time() - STALE_TMP_SECONDS - 60
    os.utime(ancient, (old, old))
    real_kernel = tmp_path / "0123abcd.npy"
    real_kernel.write_bytes(b"not a tmp file")
    unparseable = tmp_path / "aaa.npy.tmp.notapid"
    unparseable.write_bytes(b"weird name")

    removed = sweep_stale_tmp_files(str(tmp_path))
    assert removed == 2
    assert not dead.exists()  # dead writer: swept
    assert not ancient.exists()  # live pid but older than the threshold: swept
    assert mine.exists()  # current process' own write must never be touched
    assert real_kernel.exists()  # completed kernels are not tmp files
    assert unparseable.exists()  # defensive: unrecognised names are left alone


def test_opening_the_disk_tier_sweeps_and_counts(clean_store, tmp_path):
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    orphan = tmp_path / f"feed00.npy.tmp.{child.pid}"
    orphan.write_bytes(b"orphan")

    configure_kernel_store(cache_dir=str(tmp_path))
    store = kernel_store()
    assert not orphan.exists()
    assert store.disk_tmp_swept == 1
    assert store.info()["disk_tmp_swept"] == 1


def test_fresh_live_pid_tmp_files_survive_the_sweep(clean_store, tmp_path):
    from repro.core.kernel_store import sweep_stale_tmp_files

    # A freshly written temp file whose writer (pid 1, always alive) might
    # still be mid-write: the sweep must leave it for the age threshold.
    fresh = tmp_path / "bead22.npy.tmp.1"
    fresh.write_bytes(b"mid-write")
    assert sweep_stale_tmp_files(str(tmp_path)) == 0
    assert fresh.exists()
