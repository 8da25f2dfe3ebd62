"""Universal exploration sequences (Definition 3 / Theorem 4 of the paper).

A sequence is *universal* for connected 3-regular graphs of size ``<= n`` when
following it from any start edge, on any such graph, under any labeling,
visits every vertex.  Reingold's theorem says such sequences of polynomial
length can be produced deterministically in logarithmic space; the paper uses
them as a black box.

This module provides the black box in three practical forms, together with the
certification machinery that keeps the delivery guarantee *checkable* instead
of assumed:

* :class:`RandomSequenceProvider` — pseudo-random offsets of length
  ``Theta(n^3)``; universal with overwhelming probability (the probabilistic
  argument the paper sketches), and deterministic for a fixed seed, so every
  node of the network recomputes identical entries.
* :class:`CertifiedSequenceProvider` — wraps any provider and *certifies*
  coverage against a family of 3-regular graphs (exhaustive for very small
  ``n``, a structured + randomised family otherwise), doubling the sequence
  length until certification passes.  This is the reproduction's stand-in for
  the log-space construction of [Reingold 2004]: the routing layer gets a
  concrete sequence whose coverage property has been verified rather than
  derived from the zig-zag analysis.  (The zig-zag machinery itself is
  implemented in :mod:`repro.expander` and can serve as the wrapped provider.)
* :func:`certify_covers` / :func:`exhaustive_cubic_graphs` — the verification
  primitives, usable on their own in tests and experiments.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphStructureError, UniversalityCertificationError
from repro.core.exploration import ExplicitSequence, ExplorationSequence, covers_component
from repro.graphs.connectivity import is_connected
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs import generators
from repro.graphs.degree_reduction import reduce_to_three_regular

__all__ = [
    "SequenceProvider",
    "RandomSequenceProvider",
    "CertifiedSequenceProvider",
    "CertificationReport",
    "CoverageFailure",
    "certify_covers",
    "standard_certification_family",
    "exhaustive_cubic_graphs",
    "default_sequence_length",
    "randrange3_bytes",
]


def default_sequence_length(n: int, factor: int = 6) -> int:
    """Default length budget for a candidate sequence for graphs of size ``<= n``.

    A random walk covers a 3-regular graph of ``n`` vertices in ``O(n^2)``
    expected steps (the paper cites Feige / Lovász), and on any *fixed* graph
    a sequence of independent uniform offsets induces exactly a simple random
    walk, so ``Theta(n^2 log n)`` steps cover with high probability.  The
    default budget is ``factor * n^2 * ceil(log2 n)`` with a small floor for
    tiny graphs; callers needing the (much larger) fully-universal budget can
    pass their own ``length_fn``.
    """
    n = max(1, n)
    return max(32, factor * n * n * max(1, n.bit_length()))


# CPython's MT19937 (Modules/_randommodule.c): state of _MT_N words, twist
# offset _MT_M.  A new word depends on the word _MT_LAG places back, so one
# vector operation can produce at most _MT_LAG words of the xor chain, and
# on the words 624 and 623 places back, so one twist can span _MT_N - 1.
_MT_N = 624
_MT_M = 397
_MT_LAG = _MT_N - _MT_M
_MT_STAGE = _MT_N - 1
_MT_BLOCK = 24 * _MT_STAGE
_MT_UPPER = np.uint32(0x80000000)
_MT_LOWER = np.uint32(0x7FFFFFFF)
_MT_MATRIX_A = np.uint32(0x9908B0DF)
_MT_TEMPER_B = np.uint32(0x9D2C5680)
_MT_TEMPER_C = np.uint32(0xEFC60000)


def randrange3_bytes(rng: random.Random, length: int) -> bytes:
    """The next ``length`` values of ``rng.randrange(3)``, one byte each.

    Bit-identical to ``bytes(rng.randrange(3) for _ in range(length))``
    (``rng`` itself is not advanced) but computed in NumPy: CPython draws
    ``randrange(3)`` as ``genrand_uint32() >> 30``, redrawn while it equals
    3, so this continues the generator's 624-word state with the MT19937
    recurrence ``w[k+624] = w[k+397] ^ twist(w[k], w[k+1])`` one rolling
    block at a time, tempers each block, keeps its top two bits and deletes
    the 3s.  ``numpy.random`` is deliberately not used: importing it costs
    about 2 MiB of resident memory in every process.
    """
    _, internal, _ = rng.getstate()
    out = np.empty(length, dtype=np.uint8)
    words = np.empty(_MT_N + _MT_BLOCK, dtype=np.uint32)
    words[:_MT_N] = internal[:_MT_N]
    filled = _emit_below3(words[internal[_MT_N]:_MT_N], out, 0)
    twist = np.empty(_MT_STAGE, dtype=np.uint32)
    part = np.empty(_MT_STAGE, dtype=np.uint32)
    chain = [(j, min(j + _MT_LAG, _MT_STAGE)) for j in range(0, _MT_STAGE, _MT_LAG)]
    while filled < length:
        for k in range(0, _MT_BLOCK, _MT_STAGE):
            following = words[k + 1:k + 1 + _MT_STAGE]
            np.bitwise_and(words[k:k + _MT_STAGE], _MT_UPPER, out=twist)
            np.bitwise_and(following, _MT_LOWER, out=part)
            twist |= part
            twist >>= 1
            np.bitwise_and(following, 1, out=part)
            part *= _MT_MATRIX_A
            twist ^= part
            for start, stop in chain:
                np.bitwise_xor(
                    twist[start:stop],
                    words[k + _MT_M + start:k + _MT_M + stop],
                    out=words[k + _MT_N + start:k + _MT_N + stop],
                )
        filled = _emit_below3(words[_MT_N:], out, filled)
        words[:_MT_N] = words[_MT_BLOCK:]
    return out.tobytes()


def _emit_below3(block: np.ndarray, out: np.ndarray, filled: int) -> int:
    """Temper ``block``, append its ``x >> 30`` draws below 3 to ``out``."""
    value = block >> 11
    value ^= block
    mixed = value << 7
    mixed &= _MT_TEMPER_B
    value ^= mixed
    np.left_shift(value, 15, out=mixed)
    mixed &= _MT_TEMPER_C
    value ^= mixed
    # The last tempering step, value ^= value >> 18, leaves the top two bits alone.
    value >>= 30
    kept = value.astype(np.uint8).tobytes().translate(None, b"\x03")
    take = min(len(kept), len(out) - filled)
    out[filled:filled + take] = np.frombuffer(kept, dtype=np.uint8, count=take)
    return filled + take


class SequenceProvider(ABC):
    """Produces exploration sequences ``T_n`` indexed by the size bound ``n``.

    Providers must be deterministic: repeated calls with the same ``n`` return
    identical sequences.  This mirrors the paper's model where every node
    recomputes ``T_n[i]`` locally from scratch.
    """

    @abstractmethod
    def sequence_for(self, n: int) -> ExplorationSequence:
        """Return a sequence intended to be universal for 3-regular graphs of size <= n."""

    def length_for(self, n: int) -> int:
        """Length ``L_n`` of the sequence for bound ``n`` (the paper's ``|T_n|``)."""
        return len(self.sequence_for(n))

    def offset(self, n: int, index: int) -> int:
        """Return ``T_n[index]`` — the per-step lookup a node performs locally."""
        return self.sequence_for(n)[index]


class RandomSequenceProvider(SequenceProvider):
    """Pseudo-random exploration sequences, deterministic per (seed, n).

    The offsets are uniform over ``{0, 1, 2}``; the length defaults to
    ``default_sequence_length(n)`` and can be scaled with ``length_multiplier``
    (the knob :class:`CertifiedSequenceProvider` turns when certification
    fails).
    """

    def __init__(
        self,
        seed: int = 0,
        length_fn: Callable[[int], int] = default_sequence_length,
        length_multiplier: int = 1,
    ) -> None:
        self._seed = seed
        self._length_fn = length_fn
        self._length_multiplier = max(1, length_multiplier)
        self._cache: Dict[int, ExplicitSequence] = {}

    @property
    def seed(self) -> int:
        """Seed of the deterministic pseudo-random generator."""
        return self._seed

    def with_multiplier(self, multiplier: int) -> "RandomSequenceProvider":
        """Return a provider identical to this one but with a longer budget."""
        return RandomSequenceProvider(
            seed=self._seed,
            length_fn=self._length_fn,
            length_multiplier=multiplier,
        )

    def sequence_for(self, n: int) -> ExplicitSequence:
        if n not in self._cache:
            length = self._length_fn(n) * self._length_multiplier
            rng = random.Random(f"{self._seed}:{n}:{self._length_multiplier}")
            self._cache[n] = ExplicitSequence(randrange3_bytes(rng, length))
        return self._cache[n]

    def clear_cache(self) -> None:
        """Drop the materialised sequences.

        Purely a memory/measurement hook: sequences are deterministic per
        ``(seed, n, multiplier)``, so a cleared cache regenerates the exact
        same offsets.  The sweep runner's worker cold-start uses this so a
        forked worker cannot inherit the parent's amortised generation work.
        """
        self._cache.clear()


@dataclass(frozen=True)
class CoverageFailure:
    """A single certification counterexample."""

    graph_index: int
    num_vertices: int
    start_vertex: int
    start_port: int


@dataclass
class CertificationReport:
    """Outcome of checking one sequence against a family of graphs."""

    n: int
    sequence_length: int
    graphs_checked: int
    starts_checked: int
    failures: List[CoverageFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no start edge on any checked graph escaped coverage."""
        return not self.failures


def certify_covers(
    sequence: ExplorationSequence,
    graphs: Sequence[LabeledGraph],
    all_starts: bool = True,
    all_ports: bool = False,
) -> CertificationReport:
    """Check that ``sequence`` covers every graph of ``graphs``.

    ``all_starts`` walks from every vertex (otherwise only the smallest
    vertex); ``all_ports`` additionally tries every possible entry port at the
    start (Definition 3 quantifies over the initial *edge*, so the thorough
    mode checks all of them).
    """
    report = CertificationReport(
        n=max((g.num_vertices for g in graphs), default=0),
        sequence_length=len(sequence),
        graphs_checked=len(graphs),
        starts_checked=0,
    )
    for graph_index, graph in enumerate(graphs):
        starts = graph.vertices if all_starts else graph.vertices[:1]
        for start in starts:
            ports = range(graph.degree(start)) if all_ports else (0,)
            for port in ports:
                report.starts_checked += 1
                if not covers_component(graph, sequence, start, port):
                    report.failures.append(
                        CoverageFailure(
                            graph_index=graph_index,
                            num_vertices=graph.num_vertices,
                            start_vertex=start,
                            start_port=port,
                        )
                    )
    return report


def standard_certification_family(
    n: int,
    seed: int = 0,
    labelings_per_graph: int = 2,
) -> List[LabeledGraph]:
    """A structured + randomised family of connected 3-regular graphs of size <= n.

    The family mixes natively 3-regular topologies (prisms, Petersen,
    Möbius–Kantor, random cubic graphs) with degree reductions of common ad
    hoc topologies (paths, stars, grids), each under several random port
    relabelings — exercising the "for any labeling" quantifier of
    Definition 3.  All members are connected and have at most ``n`` vertices.
    """
    rng = random.Random(seed)
    candidates: List[LabeledGraph] = []

    def add(graph: LabeledGraph) -> None:
        if graph.num_vertices <= n and graph.num_vertices >= 1 and is_connected(graph):
            candidates.append(graph)
            for _ in range(max(0, labelings_per_graph - 1)):
                candidates.append(graph.with_relabeled_ports(rng))

    # Natively 3-regular graphs.
    add(generators.complete_graph(4))
    for k in range(3, max(4, n // 2) + 1):
        if 2 * k <= n:
            add(generators.prism_graph(k))
    if n >= 10:
        add(generators.petersen_graph())
    if n >= 16:
        add(generators.moebius_kantor_graph())
    for size in range(4, n + 1, 2):
        if size >= 4 and size <= n and size > 3:
            try:
                add(generators.random_regular_graph(size, 3, seed=rng.randrange(2 ** 30)))
            except (GraphStructureError, ValueError, ImportError):
                # Infeasible parameters (n*d odd, degree >= n) or networkx
                # unavailable: skip this family member.  Anything else — a
                # typo, API drift in the generator — must propagate; a bare
                # except here once hid real failures as "skipped graphs".
                continue

    # Degree reductions of non-regular topologies (these are what routing
    # actually runs on).
    reducible = [
        generators.path_graph(max(2, n // 3)),
        generators.star_graph(min(6, max(1, n // 4))),
        generators.grid_graph(2, max(2, n // 8)) if n >= 16 else None,
        generators.binary_tree(2) if n >= 14 else None,
    ]
    for graph in reducible:
        if graph is None:
            continue
        reduced = reduce_to_three_regular(graph).graph
        add(reduced)

    return [g for g in candidates if g.num_vertices <= n]


def _involutions(elements: Sequence[int]) -> Iterator[Dict[int, int]]:
    """All involutions (fixed points allowed) on ``elements``."""
    if not elements:
        yield {}
        return
    first, rest = elements[0], list(elements[1:])
    # first is a fixed point
    for partial in _involutions(rest):
        mapping = dict(partial)
        mapping[first] = first
        yield mapping
    # first is matched with some other element
    for index, partner in enumerate(rest):
        remaining = rest[:index] + rest[index + 1:]
        for partial in _involutions(remaining):
            mapping = dict(partial)
            mapping[first] = partner
            mapping[partner] = first
            yield mapping


def exhaustive_cubic_graphs(num_vertices: int, connected_only: bool = True) -> List[LabeledGraph]:
    """Every labeled 3-regular multigraph on exactly ``num_vertices`` vertices.

    Enumerates all rotation maps, i.e. all involutions on the ``3 * n`` half
    edges, so *every* labeling appears.  The count grows super-exponentially;
    this is intended for ``num_vertices <= 4`` (the test-suite uses 2 and 3),
    which is where genuinely exhaustive universality certification is feasible.
    """
    half_edges = [(v, p) for v in range(num_vertices) for p in range(3)]
    index = {he: i for i, he in enumerate(half_edges)}
    graphs: List[LabeledGraph] = []
    for involution in _involutions(list(range(len(half_edges)))):
        rotation = {
            half_edges[a]: half_edges[b] for a, b in involution.items()
        }
        graph = LabeledGraph(rotation)
        if connected_only and not is_connected(graph):
            continue
        graphs.append(graph)
    del index
    return graphs


class CertifiedSequenceProvider(SequenceProvider):
    """Wraps a provider and certifies its sequences before handing them out.

    For every requested bound ``n`` the wrapped provider's candidate sequence
    is checked against a certification family (``standard_certification_family``
    by default, or the exhaustive family for tiny ``n``).  If certification
    fails the candidate is regenerated with a doubled length budget, up to
    ``max_doublings`` times; persistent failure raises
    :class:`UniversalityCertificationError`.

    This keeps the guarantee of Theorem 1 *operational*: routing built on a
    certified provider cannot silently miss the target because the sequence
    was too short.
    """

    def __init__(
        self,
        base: Optional[SequenceProvider] = None,
        family: Callable[[int], Sequence[LabeledGraph]] = standard_certification_family,
        exhaustive_up_to: int = 3,
        max_doublings: int = 8,
        all_ports: bool = True,
    ) -> None:
        # The base provider must expose ``with_multiplier`` so certification
        # can retry with a longer budget; both RandomSequenceProvider and
        # ExpanderSequenceProvider do.
        self._base = base if base is not None else RandomSequenceProvider()
        self._family = family
        self._exhaustive_up_to = exhaustive_up_to
        self._max_doublings = max_doublings
        self._all_ports = all_ports
        self._cache: Dict[int, ExplorationSequence] = {}
        self._reports: Dict[int, CertificationReport] = {}

    def certification_report(self, n: int) -> Optional[CertificationReport]:
        """The report of the certification that admitted ``sequence_for(n)``."""
        return self._reports.get(n)

    def _certification_graphs(self, n: int) -> List[LabeledGraph]:
        graphs: List[LabeledGraph] = []
        for size in range(1, min(n, self._exhaustive_up_to) + 1):
            graphs.extend(exhaustive_cubic_graphs(size))
        graphs.extend(self._family(n))
        return graphs

    def sequence_for(self, n: int) -> ExplorationSequence:
        if n in self._cache:
            return self._cache[n]
        graphs = self._certification_graphs(n)
        multiplier = 1
        last_report: Optional[CertificationReport] = None
        for _ in range(self._max_doublings + 1):
            provider = (
                self._base
                if multiplier == 1
                else self._base.with_multiplier(multiplier)
            )
            candidate = provider.sequence_for(n)
            report = certify_covers(candidate, graphs, all_starts=True, all_ports=self._all_ports)
            last_report = report
            if report.passed:
                self._cache[n] = candidate
                self._reports[n] = report
                return candidate
            multiplier *= 2
        raise UniversalityCertificationError(
            f"could not certify a sequence for n={n} after {self._max_doublings} doublings; "
            f"last report had {len(last_report.failures) if last_report else '?'} failures"
        )
