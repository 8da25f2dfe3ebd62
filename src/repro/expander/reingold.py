"""The main transformation and a deterministic exploration-sequence provider.

Reingold's algorithm turns any connected 3-regular graph into a constant-gap
expander by iterating

    ``G_{i+1} = (G_i ⓩ H) ^ k``

for a fixed base expander ``H`` and powering exponent ``k`` chosen so the
degrees stay type-consistent (``deg(H)^(2k) = deg(G_i)``).  After
``O(log n)`` rounds the result has logarithmic diameter, which is what makes
log-space exploration — and hence universal exploration sequences — possible.

:func:`main_transformation` implements the recursion literally (on graphs
small enough to enumerate), reporting the spectral gap after every round so
the amplification is observable.  As DESIGN.md documents, the reproduction
uses small base expanders, far below the constants the theorem requires, so
the gap amplification is an empirical observation here rather than a proved
invariant.

:class:`ExpanderSequenceProvider` is the derandomized counterpart of
:class:`repro.core.universal.RandomSequenceProvider`: its offsets are produced
with no randomness at all, by walking a fixed certified base expander and
reading off vertex labels.  Wrapped in a
:class:`~repro.core.universal.CertifiedSequenceProvider` it gives a fully
deterministic, certification-backed sequence source for the routing layer —
the practical stand-in for Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.exploration import ExplicitSequence
from repro.core.universal import SequenceProvider, default_sequence_length
from repro.errors import GraphStructureError
from repro.expander.base import complete_with_self_loops
from repro.expander.rotation_ops import add_self_loops, graph_power, zigzag_product
from repro.expander.spectral import SpectralCertificate, certify_expander
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["MainTransformationResult", "main_transformation", "ExpanderSequenceProvider"]


@dataclass(frozen=True)
class MainTransformationResult:
    """The rounds of the main transformation and their spectral certificates."""

    rounds: Tuple[LabeledGraph, ...]
    certificates: Tuple[SpectralCertificate, ...]
    base_expander: LabeledGraph
    powering_exponent: int

    @property
    def final_graph(self) -> LabeledGraph:
        """The graph after the last round."""
        return self.rounds[-1]

    @property
    def gap_history(self) -> Tuple[float, ...]:
        """Spectral gap after every round (round 0 = the regularised input)."""
        return tuple(certificate.gap for certificate in self.certificates)


def main_transformation(
    graph: LabeledGraph,
    base_expander: Optional[LabeledGraph] = None,
    rounds: int = 3,
    powering_exponent: int = 1,
) -> MainTransformationResult:
    """Iterate ``G_{i+1} = (G_i ⓩ H) ^ k`` for ``rounds`` rounds.

    Parameters
    ----------
    graph:
        Any connected regular graph (3-regular in the paper's pipeline).
    base_expander:
        The fixed small expander ``H``.  Its vertex count must equal the
        degree ``D`` of the regularised input, and its degree ``d`` must
        satisfy ``d ** (2 * powering_exponent) == D`` so the recursion is
        type-consistent.  When omitted, ``H`` is the complete graph with
        self-loops on ``d**(2k)`` vertices with ``d`` chosen as the smallest
        value making ``d**(2k)`` at least the input's degree.
    rounds:
        Number of recursion rounds (the theory needs ``O(log n)``).
    powering_exponent:
        The ``k`` of the recursion.

    Notes
    -----
    The vertex count multiplies by ``|V(H)|`` every round, so keep the inputs
    small (tests use graphs with at most a few dozen vertices and 2 rounds).
    """
    if rounds < 1:
        raise GraphStructureError("main_transformation requires at least one round")
    if powering_exponent < 1:
        raise GraphStructureError("powering_exponent must be at least 1")
    input_degree = graph.require_regular()

    if base_expander is None:
        # Default H: the 4-regular circulant on 16^k vertices.  It is
        # connected and non-bipartite (both required for the product to stay
        # connected with lambda < 1) and satisfies the type constraint
        # d^(2k) = |V(H)| with d = 4.  Its spectral gap is modest; pass a
        # stronger expander (e.g. margulis_expander or
        # certified_random_expander) for the gap-amplification ablation.
        from repro.graphs.generators import circulant_graph

        size = 16 ** powering_exponent
        if size < max(2, input_degree):
            raise GraphStructureError(
                "no default base expander fits this input degree; pass one explicitly"
            )
        base_expander = circulant_graph(size, offsets=(1, 2))
    small_degree = base_expander.require_regular()
    big_degree = base_expander.num_vertices
    if small_degree ** (2 * powering_exponent) != big_degree:
        raise GraphStructureError(
            "type mismatch: the base expander must have d^(2k) vertices where d is "
            f"its degree and k the powering exponent (got {big_degree} vertices, "
            f"degree {small_degree}, k={powering_exponent})"
        )

    current = add_self_loops(graph, big_degree) if input_degree < big_degree else graph
    if current.require_regular() != big_degree:
        raise GraphStructureError(
            f"input degree {current.require_regular()} exceeds the base expander size {big_degree}"
        )
    history: List[LabeledGraph] = [current]
    for _ in range(rounds):
        product = zigzag_product(current, base_expander)
        current = graph_power(product, powering_exponent)
        history.append(current)
    certificates = tuple(certify_expander(g) for g in history)
    return MainTransformationResult(
        rounds=tuple(history),
        certificates=certificates,
        base_expander=base_expander,
        powering_exponent=powering_exponent,
    )


class ExpanderSequenceProvider(SequenceProvider):
    """Deterministic exploration sequences from walks on a fixed expander.

    The offset ``T_n[i]`` is computed by walking the base expander ``H`` from
    vertex 0, choosing at step ``j`` the port given by the ``j``-th digit of a
    deterministic counter, and emitting the visited vertex labels modulo 3.
    The construction involves no randomness whatsoever — every node of the
    network recomputes the same values, as the paper's model requires — and
    the walk's rapid mixing on ``H`` is what makes the emitted offsets
    behave pseudo-randomly.  Universality is then established per size bound
    by certification (see module docstring).
    """

    def __init__(
        self,
        base_expander: Optional[LabeledGraph] = None,
        length_multiplier: int = 1,
    ) -> None:
        self._base = base_expander if base_expander is not None else complete_with_self_loops(16)
        self._degree = self._base.require_regular()
        self._length_multiplier = max(1, length_multiplier)
        self._cache: Dict[int, ExplicitSequence] = {}

    def with_multiplier(self, multiplier: int) -> "ExpanderSequenceProvider":
        """Return a provider identical to this one but with a longer budget."""
        return ExpanderSequenceProvider(self._base, length_multiplier=multiplier)

    def _offsets(self, length: int, stride: int) -> bytes:
        offsets = bytearray()
        vertex = 0
        entry = 0
        counter = stride
        for _ in range(length):
            # Deterministic port choice: mix the counter with the current
            # entry port; the walk on the expander scrambles the low-entropy
            # counter into well-spread vertex labels.
            port = (counter + entry * 31) % self._degree
            vertex, entry = self._base.rotation(vertex, port)
            offsets.append((vertex + entry) % 3)
            counter = (counter * 2862933555777941757 + 3037000493) % (2 ** 63)
        return bytes(offsets)

    def sequence_for(self, n: int) -> ExplicitSequence:
        if n not in self._cache:
            length = default_sequence_length(n) * self._length_multiplier
            self._cache[n] = ExplicitSequence(self._offsets(length, stride=n + 1))
        return self._cache[n]
