"""Kernighan–Lin graph bisection.

Classic KL refinement: starting from an initial balanced bisection, repeated
passes greedily select pairs of vertices to swap between the two halves so as
to maximise the cumulative gain (reduction in cut weight), then apply the
best prefix of swaps.  Used both as a standalone bisection algorithm and as a
refinement step inside the multilevel partitioner.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.partitioning.interaction_graph import InteractionGraph
from repro.partitioning.partition import Partition
from repro.exceptions import PartitionError

__all__ = ["kernighan_lin_bisection", "kl_refine"]


def _initial_split(num_vertices: int, seed: Optional[int]) -> Tuple[Set[int], Set[int]]:
    """Random balanced split of vertex indices into two halves."""
    vertices = list(range(num_vertices))
    rng = random.Random(seed)
    rng.shuffle(vertices)
    half = num_vertices // 2
    return set(vertices[:half]), set(vertices[half:])


def _external_internal(neighbors: Dict[int, float],
                       own: Set[int]) -> Tuple[float, float]:
    """External and internal weights of a vertex's ``neighbors`` w.r.t. its side."""
    external = 0.0
    internal = 0.0
    for neighbor, weight in neighbors.items():
        if neighbor in own:
            internal += weight
        else:
            external += weight
    return external, internal


def _d_values(adjacency: Dict[int, Dict[int, float]], side_a: Set[int],
              side_b: Set[int]) -> Dict[int, float]:
    """D(v) = external(v) - internal(v) for every vertex."""
    values: Dict[int, float] = {}
    for vertex in side_a:
        external, internal = _external_internal(adjacency[vertex], side_a)
        values[vertex] = external - internal
    for vertex in side_b:
        external, internal = _external_internal(adjacency[vertex], side_b)
        values[vertex] = external - internal
    return values


def _kl_pass(graph: InteractionGraph, adjacency: Dict[int, Dict[int, float]],
             side_a: Set[int],
             side_b: Set[int]) -> Tuple[float, List[Tuple[int, int]]]:
    """One KL pass over ``graph`` and its :meth:`~InteractionGraph.adjacency`.

    Returns the best cumulative gain and the list of swaps realising it.
    """
    a = set(side_a)
    b = set(side_b)
    d_values = _d_values(adjacency, a, b)
    unlocked_a = set(a)
    unlocked_b = set(b)
    gains: List[float] = []
    swaps: List[Tuple[int, int]] = []

    while unlocked_a and unlocked_b:
        best_gain = None
        best_pair = None
        for va in unlocked_a:
            neighbors_va = adjacency[va]
            for vb in unlocked_b:
                gain = d_values[va] + d_values[vb] - 2.0 * neighbors_va.get(vb, 0.0)
                if best_gain is None or gain > best_gain:
                    best_gain = gain
                    best_pair = (va, vb)
        assert best_pair is not None and best_gain is not None
        va, vb = best_pair
        gains.append(best_gain)
        swaps.append(best_pair)
        unlocked_a.discard(va)
        unlocked_b.discard(vb)
        # Update D values of remaining unlocked vertices as if swapped.
        for vertex in list(unlocked_a):
            d_values[vertex] += 2.0 * graph.weight(vertex, va) - 2.0 * graph.weight(vertex, vb)
        for vertex in list(unlocked_b):
            d_values[vertex] += 2.0 * graph.weight(vertex, vb) - 2.0 * graph.weight(vertex, va)

    # Best prefix of swaps.
    best_total = 0.0
    best_k = 0
    running = 0.0
    for k, gain in enumerate(gains, start=1):
        running += gain
        if running > best_total + 1e-12:
            best_total = running
            best_k = k
    return best_total, swaps[:best_k]


def kl_refine(graph: InteractionGraph, partition: Partition,
              max_passes: int = 10) -> Partition:
    """Refine a bisection in place with repeated KL passes.

    The input partition must have exactly two blocks; block sizes are
    preserved (KL swaps pairs).
    """
    if partition.num_blocks != 2:
        raise PartitionError("KL refinement only supports bisections")
    side_a = set(partition.block_members(0))
    side_b = set(partition.block_members(1))
    adjacency = graph.adjacency()
    for _ in range(max_passes):
        gain, swaps = _kl_pass(graph, adjacency, side_a, side_b)
        if gain <= 1e-12 or not swaps:
            break
        for va, vb in swaps:
            side_a.discard(va)
            side_a.add(vb)
            side_b.discard(vb)
            side_b.add(va)
    return Partition.from_blocks([sorted(side_a), sorted(side_b)],
                                 method="kernighan-lin")


def kernighan_lin_bisection(graph: InteractionGraph, seed: Optional[int] = 0,
                            max_passes: int = 10,
                            restarts: int = 3) -> Partition:
    """Bisect a graph with Kernighan–Lin from random balanced starts.

    Parameters
    ----------
    graph:
        Interaction graph to bisect.
    seed:
        Base seed; each restart perturbs it deterministically.
    max_passes:
        Maximum KL passes per restart.
    restarts:
        Number of random restarts; the lowest-cut result is returned.
    """
    if graph.num_vertices < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    best: Optional[Partition] = None
    best_cut = float("inf")
    for restart in range(max(1, restarts)):
        restart_seed = None if seed is None else seed + restart * 7919
        side_a, side_b = _initial_split(graph.num_vertices, restart_seed)
        start = Partition.from_blocks([sorted(side_a), sorted(side_b)],
                                      method="kl-start")
        refined = kl_refine(graph, start, max_passes=max_passes)
        cut = refined.cut_weight(graph)
        if cut < best_cut:
            best_cut = cut
            best = refined
    assert best is not None
    return best
