"""One byte buffer per exploration sequence.

``T_n`` is a string over {0, 1, 2} (Section 2 of the paper) and is stored
exactly once: the provider's :class:`ExplicitSequence` owns a ``bytes``
buffer, the engine's ``(provider, bound)`` cache holds that same object, and
the lockstep kernels read it through a zero-copy ``int8`` view.  Offsets
outside {0, 1, 2} are rejected up front, so the scalar and lockstep walks
can never disagree on them.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    ScenarioSpec,
    build_schedule,
    dynamic_schedule_scenarios,
)
from repro.api import RouteRequest, Session
from repro.core.batch_kernel import np_offsets_for
from repro.core.engine import (
    clear_prepared_caches,
    prepare,
    prepare_schedule,
    prepared_cache_info,
)
from repro.core.exploration import ExplicitSequence
from repro.core.universal import (
    CertifiedSequenceProvider,
    RandomSequenceProvider,
    SequenceProvider,
    default_sequence_length,
    randrange3_bytes,
)
from repro.errors import SequenceError, SequenceExhaustedError
from repro.graphs import generators


def test_provider_sequences_are_byte_buffers(provider):
    offsets = provider.sequence_for(12).offsets()
    assert type(offsets) is bytes
    assert set(offsets) <= {0, 1, 2}
    assert len(offsets) == provider.length_for(12)


def test_engine_and_kernels_share_the_provider_buffer(provider, grid_4x4):
    buffer = provider.sequence_for(16).offsets()
    assert prepare(grid_4x4).offsets_for(16, provider) is buffer
    view = np_offsets_for(buffer)
    assert view.dtype == np.int8 and view.base is buffer
    assert np.shares_memory(view, np.frombuffer(buffer, dtype=np.uint8))
    assert view.tolist() == list(buffer)


def _randrange_oracle(key, length):
    """The stream the provider once drew offset by offset: the test oracle."""
    rng = random.Random(key)
    return bytes(rng.randrange(3) for _ in range(length))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    n=st.integers(min_value=1, max_value=300),
    length=st.integers(min_value=0, max_value=3000),
)
@example(seed=5, n=3, length=120)
def test_random_provider_offsets_match_the_randrange_stream(seed, n, length):
    provider = RandomSequenceProvider(seed=seed, length_fn=lambda _: length)
    assert provider.sequence_for(n).offsets() == _randrange_oracle(f"{seed}:{n}:1", length)


# One MT19937 block is 624 words and an offset takes 4/3 words on average,
# so lengths from 623 on read past the first block into later ones.
@pytest.mark.parametrize("multiplier", [1, 2])
@pytest.mark.parametrize("length", [1, 623, 624, 625, 5000, default_sequence_length(56)])
def test_random_provider_buffer_equals_the_randrange_oracle(length, multiplier):
    provider = RandomSequenceProvider(
        seed=3, length_fn=lambda n: length, length_multiplier=multiplier
    )
    expected = _randrange_oracle(f"3:56:{multiplier}", length * multiplier)
    assert provider.sequence_for(56).offsets() == expected


def test_certified_provider_doubling_keeps_the_randrange_stream():
    base = RandomSequenceProvider(seed=1, length_fn=lambda n: 8)
    sequence = CertifiedSequenceProvider(base).sequence_for(6)
    multiplier = len(sequence) // 8
    assert multiplier > 1  # certification rejected the first candidate
    assert sequence.offsets() == _randrange_oracle(f"1:6:{multiplier}", len(sequence))


@pytest.mark.parametrize("drawn", [1, 227, 396, 397, 623, 624, 1000])
def test_randrange3_bytes_continues_a_partly_used_state(drawn):
    rng = random.Random(drawn)
    for _ in range(drawn):
        rng.getrandbits(32)
    assert rng.getstate()[1][-1] == (drawn - 1) % 624 + 1  # words used of the block
    state = rng.getstate()
    offsets = randrange3_bytes(rng, 2000)
    assert rng.getstate() == state  # the generator itself is not advanced
    assert offsets == bytes(rng.randrange(3) for _ in range(2000))


def test_explicit_sequence_reads_like_the_offsets():
    sequence = ExplicitSequence([0, 2, 1])
    assert sequence.offsets() == b"\x00\x02\x01"
    assert list(sequence) == [0, 2, 1] and sequence[1] == 2
    assert ExplicitSequence(b"\x00\x02\x01") == sequence
    with pytest.raises(SequenceExhaustedError):
        sequence[3]


@pytest.mark.parametrize("offsets", [[3], b"\x00\x05", [0, -1], [1.0], range(4)])
def test_explicit_sequence_rejects_offsets_outside_0_1_2(offsets):
    with pytest.raises(SequenceError):
        ExplicitSequence(offsets)


class _ShiftedProvider(SequenceProvider):
    """Offsets ``randrange(3) + 3``: same walk modulo 3, but outside {0, 1, 2}."""

    def __init__(self, wrap):
        self._wrap = wrap

    def sequence_for(self, n):
        rng = random.Random(n)
        return self._wrap([rng.randrange(3) + 3 for _ in range(6 * n * n)])


@pytest.mark.parametrize("wrap", [ExplicitSequence, list])
@pytest.mark.parametrize("lockstep", [False, True])
def test_out_of_range_offsets_fail_alike_on_both_walks(wrap, lockstep):
    # The scalar walk used to reduce such offsets mod 3 and deliver, while
    # the lockstep kernel indexed past its three transition tables; both
    # paths now reject the sequence before walking.
    graph = generators.grid_graph(6, 6)
    pairs = [(0, target) for target in range(1, 36)]
    with pytest.raises(SequenceError):
        prepare(graph).route_many(
            pairs, provider=_ShiftedProvider(wrap), lockstep=lockstep
        )


def test_cold_session_route_materialises_one_sequence():
    clear_prepared_caches()
    session = Session()
    spec = ScenarioSpec("grid16", "grid", 16)
    result = session.submit(RouteRequest(scenario=spec, source=0, target=15))
    assert result.status == "success"
    info = session.cache_info()
    assert info["offset_misses"] == 1
    assert info["offset_entries"] == 1
    assert "np_offset_entries" not in info


def test_offset_misses_count_generated_offsets_and_time():
    clear_prepared_caches()
    session = Session()
    spec = ScenarioSpec("grid16", "grid", 16)
    result = session.submit(RouteRequest(scenario=spec, source=0, target=15))
    info = session.cache_info()
    assert info["offsets_generated"] == result.payload["sequence_length"]
    assert info["offset_generation_s"] > 0
    session.submit(RouteRequest(scenario=spec, source=3, target=12))
    assert session.cache_info()["offsets_generated"] == info["offsets_generated"]
    clear_prepared_caches()
    info = session.cache_info()
    assert info["offsets_generated"] == 0 and info["offset_generation_s"] == 0.0


def test_generation_counters_lose_no_update_across_threads(grid_4x4):
    # The daemon fetches offsets from several dispatch threads at once.
    clear_prepared_caches()
    engine = prepare(grid_4x4)
    providers = [RandomSequenceProvider(seed=seed, length_fn=lambda n: n) for seed in range(8)]
    bounds = range(1, 41)

    def fetch_all(provider):
        for bound in bounds:
            engine.offsets_for(bound, provider)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch_all, args=(p,)) for p in providers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert prepared_cache_info()["offsets_generated"] == len(providers) * sum(bounds)


def test_schedule_batches_equal_the_reference(provider):
    [spec] = dynamic_schedule_scenarios(families=("grid",), sizes=(16,))
    engine = prepare_schedule(build_schedule(spec))
    rng = random.Random(3)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(40)]
    reference = engine.reference_route_many(pairs, provider=provider)
    assert engine.route_many(pairs, provider=provider, lockstep=True) == reference
