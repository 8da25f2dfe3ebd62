"""Every bounded cache is one ``LRUCache``: thread-safe, bounded and counted.

The daemon drives one shared session, and the process-wide caches behind
it, from a thread pool; inline sweeps and ``route-many`` batches run on
executor threads too.  Each cache below is shrunk with ``resize`` and then
hammered from several threads over more keys than it can hold.  No lookup
may raise, the bound must hold, and every lookup must be counted exactly
once, as a hit or as a miss.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.analysis import runner
from repro.analysis.experiments import ScenarioSpec
from repro.api import executors
from repro.api.executors import ScenarioStore
from repro.core import batch_kernel
from repro.core.batch_kernel import BatchedWalk, batched_walk_for, multigraph_walk_for
from repro.core.engine import clear_prepared_caches, prepare
from repro.core.kernel_store import LRUCache, kernel_store
from repro.graphs import generators

THREADS = 6
LOOKUPS = 120  # per thread
CAPACITY = 2


def _graphs():
    return [generators.cycle_graph(n) for n in range(3, 10)]


def _hammer(cache: LRUCache, lookup, keys) -> None:
    """Run ``THREADS`` x ``LOOKUPS`` random lookups; check bound and counters."""
    cache.clear()
    cache.resize(CAPACITY)
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            barrier.wait()
            for _ in range(LOOKUPS):
                lookup(keys[rng.randrange(len(keys))])
        except BaseException as error:  # surfaced in the main thread below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert len(cache) <= cache.capacity == CAPACITY
    assert cache.hits + cache.misses == THREADS * LOOKUPS
    assert cache.evictions >= 1


@pytest.fixture
def restore_caches():
    """Put every module-level cache back to its bound and a cold state."""
    saved = [
        (cache, cache.capacity)
        for cache in (
            batch_kernel._BATCH_CACHE,
            batch_kernel._MULTI_CACHE,
            runner._SCENARIO_CACHE,
            kernel_store().engines,
        )
    ]
    yield
    for cache, capacity in saved:
        cache.resize(capacity)
    runner._SCENARIO_CACHE.clear()
    clear_prepared_caches()


def test_batched_stepper_cache_under_threads(restore_caches):
    kernels = [prepare(graph).kernel for graph in _graphs()]

    def lookup(kernel):
        assert batched_walk_for(kernel).kernel is kernel

    _hammer(batch_kernel._BATCH_CACHE, lookup, kernels)


def test_multigraph_stepper_cache_under_threads(restore_caches):
    steppers = [BatchedWalk(prepare(graph).kernel) for graph in _graphs()]
    keys = [(a, b) for a, b in zip(steppers, steppers[1:])]

    def lookup(members):
        assert tuple(multigraph_walk_for(members).steppers) == members

    _hammer(batch_kernel._MULTI_CACHE, lookup, keys)


def test_sweep_scenario_cache_under_threads(restore_caches):
    specs = [ScenarioSpec(name=f"ring-{n}", family="ring", size=n) for n in range(3, 10)]
    built = {}

    def lookup(spec):
        value = runner._SCENARIO_CACHE.get_or_build(
            ("network", spec), lambda _: built.setdefault(spec, object())
        )
        assert value is built[spec]

    _hammer(runner._SCENARIO_CACHE, lookup, specs)
    info = runner.sweep_cache_info()
    assert info["sweep_scenario_hits"] + info["sweep_scenario_misses"] == THREADS * LOOKUPS


def test_session_scenario_store_under_threads(monkeypatch):
    # The store must look the builder up by its module-level name on every
    # miss: the traced benchmark wraps ``executors.build_scenario`` in place.
    monkeypatch.setattr(executors, "build_scenario", lambda spec: ("built", spec))
    store = ScenarioStore()
    specs = [ScenarioSpec(name=f"ring-{n}", family="ring", size=n) for n in range(3, 10)]

    def lookup(spec):
        assert store.network(spec) == ("built", spec)

    _hammer(store._networks, lookup, specs)
    info = store.info()
    assert info["session_hits"] + info["session_misses"] == THREADS * LOOKUPS
    assert info["session_networks"] <= CAPACITY
    assert info["session_evictions"] >= 1


def test_engine_cache_under_threads(restore_caches):
    # ``prepare`` counts through peek/touch/record_miss rather than ``get``.
    graphs = _graphs()

    def lookup(graph):
        assert prepare(graph).graph is graph

    _hammer(kernel_store().engines, lookup, graphs)
