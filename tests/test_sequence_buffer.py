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

import numpy as np
import pytest

from repro.analysis.experiments import (
    ScenarioSpec,
    build_schedule,
    dynamic_schedule_scenarios,
)
from repro.api import RouteRequest, Session
from repro.core.batch_kernel import np_offsets_for
from repro.core.engine import clear_prepared_caches, prepare, prepare_schedule
from repro.core.exploration import ExplicitSequence
from repro.core.universal import RandomSequenceProvider, SequenceProvider
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


def test_random_provider_offsets_match_the_randrange_stream():
    provider = RandomSequenceProvider(seed=5, length_fn=lambda n: 40 * n)
    rng = random.Random("5:3:1")
    expected = bytes(rng.randrange(3) for _ in range(120))
    assert provider.sequence_for(3).offsets() == expected


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


def test_schedule_batches_equal_the_reference(provider):
    [spec] = dynamic_schedule_scenarios(families=("grid",), sizes=(16,))
    engine = prepare_schedule(build_schedule(spec))
    rng = random.Random(3)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(40)]
    reference = engine.reference_route_many(pairs, provider=provider)
    assert engine.route_many(pairs, provider=provider, lockstep=True) == reference
