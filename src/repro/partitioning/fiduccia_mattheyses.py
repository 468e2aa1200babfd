"""Fiduccia–Mattheyses (FM) bisection refinement.

FM improves on KL by moving one vertex at a time (instead of swapping pairs)
using a gain-bucket structure, subject to a balance constraint.  It is the
refinement engine used at every level of the multilevel partitioner, which
mirrors how METIS refines its coarsened graphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.partitioning.interaction_graph import InteractionGraph
from repro.partitioning.partition import Partition
from repro.exceptions import PartitionError

__all__ = ["fm_refine", "fm_bisection"]


class _GainBuckets:
    """Bucket list keyed by (rounded) gain for O(1) best-vertex selection.

    Gains in this problem are sums of integer-ish edge weights, so bucketing
    by rounded gain is exact for integer weights and a good approximation for
    fractional ones.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, Set[int]] = defaultdict(set)
        self._gain_of: Dict[int, float] = {}

    def insert(self, vertex: int, gain: float) -> None:
        self._gain_of[vertex] = gain
        self._buckets[self._key(gain)].add(vertex)

    def remove(self, vertex: int) -> None:
        gain = self._gain_of.pop(vertex, None)
        if gain is None:
            return
        key = self._key(gain)
        self._buckets[key].discard(vertex)
        if not self._buckets[key]:
            del self._buckets[key]

    def update(self, vertex: int, new_gain: float) -> None:
        self.remove(vertex)
        self.insert(vertex, new_gain)

    def gain(self, vertex: int) -> float:
        return self._gain_of[vertex]

    def pop_best(self, allowed: Set[int]) -> Optional[int]:
        """Return (without removing) the allowed vertex with maximal gain."""
        for key in sorted(self._buckets, reverse=True):
            candidates = self._buckets[key] & allowed
            if candidates:
                # Deterministic tie-break by vertex index.
                return min(candidates)
        return None

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._gain_of

    @staticmethod
    def _key(gain: float) -> int:
        return int(round(gain))


def _move_gain(adjacency: Dict[int, Dict[int, float]], vertex: int,
               assignment: Dict[int, int]) -> float:
    """Cut-weight reduction from moving ``vertex`` to the other side."""
    own = assignment[vertex]
    external = 0.0
    internal = 0.0
    for neighbor, weight in adjacency[vertex].items():
        if assignment[neighbor] == own:
            internal += weight
        else:
            external += weight
    return external - internal


def _balance_ok(block_weights: Dict[int, float], moving_from: int, moving_to: int,
                vertex_weight: float, max_weights: Tuple[float, float]) -> bool:
    """Whether moving a vertex keeps both sides within their capacity."""
    new_to = block_weights[moving_to] + vertex_weight
    return new_to <= max_weights[moving_to] + 1e-9


def fm_refine(graph: InteractionGraph, partition: Partition,
              balance_tolerance: float = 0.1,
              max_passes: int = 10) -> Partition:
    """Refine a bisection with FM passes under a balance constraint.

    Parameters
    ----------
    graph:
        Graph being partitioned.
    partition:
        Initial bisection (2 blocks).
    balance_tolerance:
        Each side may hold at most ``(1 + tolerance) * total_weight / 2``
        vertex weight.
    max_passes:
        Maximum number of full FM passes.
    """
    if partition.num_blocks != 2:
        raise PartitionError("FM refinement only supports bisections")

    assignment = dict(partition.assignment)
    # Built once: every gain evaluation reads a vertex's neighbours.
    adjacency = graph.adjacency()
    total_weight = graph.total_vertex_weight
    max_side = (1.0 + balance_tolerance) * total_weight / 2.0
    max_weights = (max_side, max_side)

    for _ in range(max_passes):
        block_weights = {
            0: sum(graph.vertex_weights[v] for v, b in assignment.items() if b == 0),
            1: sum(graph.vertex_weights[v] for v, b in assignment.items() if b == 1),
        }
        buckets = _GainBuckets()
        for vertex in range(graph.num_vertices):
            buckets.insert(vertex, _move_gain(adjacency, vertex, assignment))
        unlocked: Set[int] = set(range(graph.num_vertices))

        move_sequence: List[int] = []
        gain_sequence: List[float] = []
        trial_assignment = dict(assignment)
        trial_block_weights = dict(block_weights)

        while unlocked:
            candidate = None
            # Find the best-gain vertex whose move keeps balance.
            allowed = {
                v for v in unlocked
                if _balance_ok(
                    trial_block_weights, trial_assignment[v],
                    1 - trial_assignment[v], graph.vertex_weights[v], max_weights
                )
            }
            if not allowed:
                break
            candidate = buckets.pop_best(allowed)
            if candidate is None:
                break

            gain = buckets.gain(candidate)
            source = trial_assignment[candidate]
            destination = 1 - source
            trial_assignment[candidate] = destination
            trial_block_weights[source] -= graph.vertex_weights[candidate]
            trial_block_weights[destination] += graph.vertex_weights[candidate]
            move_sequence.append(candidate)
            gain_sequence.append(gain)
            unlocked.discard(candidate)
            buckets.remove(candidate)

            # Update gains of unlocked neighbours.
            for neighbor in adjacency[candidate]:
                if neighbor in unlocked:
                    buckets.update(
                        neighbor,
                        _move_gain(adjacency, neighbor, trial_assignment),
                    )

        # Apply the best prefix of moves.
        best_total = 0.0
        best_k = 0
        running = 0.0
        for k, gain in enumerate(gain_sequence, start=1):
            running += gain
            if running > best_total + 1e-12:
                best_total = running
                best_k = k
        if best_k == 0:
            break
        for vertex in move_sequence[:best_k]:
            assignment[vertex] = 1 - assignment[vertex]

    return Partition(assignment, 2, method="fiduccia-mattheyses")


def fm_bisection(graph: InteractionGraph, seed: Optional[int] = 0,
                 balance_tolerance: float = 0.1,
                 max_passes: int = 10) -> Partition:
    """Bisect a graph: contiguous start followed by FM refinement."""
    import random

    vertices = list(range(graph.num_vertices))
    rng = random.Random(seed)
    rng.shuffle(vertices)
    half = graph.num_vertices // 2
    start = Partition.from_blocks(
        [sorted(vertices[:half]), sorted(vertices[half:])], method="fm-start"
    )
    return fm_refine(graph, start, balance_tolerance=balance_tolerance,
                     max_passes=max_passes)
