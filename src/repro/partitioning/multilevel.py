"""Multilevel graph partitioning (METIS-style).

The paper's baseline partitions the qubit-interaction graph with METIS.
METIS is a multilevel scheme: (1) *coarsen* the graph by collapsing a
heavy-edge matching until it is small, (2) compute an *initial partition* of
the coarsest graph, and (3) *uncoarsen*, projecting the partition back level
by level and refining it with FM/KL moves at each level.  This module
implements that scheme for bisection and extends it to k-way partitioning by
recursive bisection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.partitioning.fiduccia_mattheyses import fm_refine
from repro.partitioning.interaction_graph import InteractionGraph
from repro.partitioning.kernighan_lin import kl_refine
from repro.partitioning.partition import Partition
from repro.partitioning.spectral import spectral_bisection
from repro.exceptions import PartitionError

__all__ = ["MultilevelPartitioner", "multilevel_bisection", "partition_graph"]


@dataclass
class _CoarseLevel:
    """One level of the coarsening hierarchy."""

    graph: InteractionGraph
    # Mapping from each coarse vertex to the fine vertices it represents.
    fine_vertices: Dict[int, List[int]]


def _heavy_edge_matching(graph: InteractionGraph, seed: int) -> List[Tuple[int, int]]:
    """Greedy heavy-edge matching: visit vertices in random order and match
    each unmatched vertex with its heaviest unmatched neighbour."""
    rng = random.Random(seed)
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    matched: set = set()
    matching: List[Tuple[int, int]] = []
    adjacency = graph.adjacency()
    for vertex in order:
        if vertex in matched:
            continue
        candidates = [
            (weight, neighbor)
            for neighbor, weight in adjacency[vertex].items()
            if neighbor not in matched
        ]
        if not candidates:
            continue
        candidates.sort(key=lambda item: (-item[0], item[1]))
        _, partner = candidates[0]
        matching.append((vertex, partner))
        matched.add(vertex)
        matched.add(partner)
    return matching


def _coarsen_once(graph: InteractionGraph, seed: int) -> Tuple[InteractionGraph, Dict[int, List[int]]]:
    """Collapse a heavy-edge matching into super-vertices."""
    matching = _heavy_edge_matching(graph, seed)
    merged_with: Dict[int, int] = {}
    for a, b in matching:
        merged_with[a] = b
        merged_with[b] = a

    coarse_index: Dict[int, int] = {}
    fine_vertices: Dict[int, List[int]] = {}
    next_index = 0
    for vertex in range(graph.num_vertices):
        if vertex in coarse_index:
            continue
        group = [vertex]
        partner = merged_with.get(vertex)
        if partner is not None and partner not in coarse_index:
            group.append(partner)
        for member in group:
            coarse_index[member] = next_index
        fine_vertices[next_index] = sorted(group)
        next_index += 1

    weights: Dict[Tuple[int, int], float] = {}
    vertex_weights: Dict[int, float] = {i: 0.0 for i in range(next_index)}
    for vertex, members in fine_vertices.items():
        vertex_weights[vertex] = sum(graph.vertex_weights[m] for m in members)
    for (a, b), weight in graph.weights.items():
        ca, cb = coarse_index[a], coarse_index[b]
        if ca == cb:
            continue
        key = (min(ca, cb), max(ca, cb))
        weights[key] = weights.get(key, 0.0) + weight

    coarse = InteractionGraph(next_index, weights, vertex_weights)
    return coarse, fine_vertices


class MultilevelPartitioner:
    """METIS-style multilevel bisection / k-way partitioner.

    Parameters
    ----------
    coarsen_until:
        Stop coarsening when the graph has at most this many vertices.
    balance_tolerance:
        Allowed relative imbalance of each side during FM refinement.
    initial_method:
        ``"spectral"`` (default) or ``"random"`` initial partition of the
        coarsest graph.
    refine_method:
        ``"fm"`` (default) or ``"kl"`` refinement at each uncoarsening level.
    seed:
        Seed controlling matching order and random initial partitions.
    """

    def __init__(
        self,
        coarsen_until: int = 16,
        balance_tolerance: float = 0.1,
        initial_method: str = "spectral",
        refine_method: str = "fm",
        seed: int = 0,
    ) -> None:
        if initial_method not in {"spectral", "random"}:
            raise PartitionError(f"unknown initial method {initial_method!r}")
        if refine_method not in {"fm", "kl"}:
            raise PartitionError(f"unknown refine method {refine_method!r}")
        self.coarsen_until = max(4, coarsen_until)
        self.balance_tolerance = balance_tolerance
        self.initial_method = initial_method
        self.refine_method = refine_method
        self.seed = seed

    # ------------------------------------------------------------------
    def bisect(self, graph: InteractionGraph) -> Partition:
        """Bisect ``graph`` into two balanced blocks minimising the cut."""
        if graph.num_vertices < 2:
            raise PartitionError("cannot bisect fewer than 2 vertices")

        # 1. Coarsening phase.
        levels: List[_CoarseLevel] = []
        current = graph
        level_seed = self.seed
        while current.num_vertices > self.coarsen_until:
            coarse, fine_vertices = _coarsen_once(current, level_seed)
            if coarse.num_vertices == current.num_vertices:
                break  # matching made no progress (e.g. no edges)
            levels.append(_CoarseLevel(graph=current, fine_vertices=fine_vertices))
            current = coarse
            level_seed += 1

        # 2. Initial partition of the coarsest graph.
        partition = self._initial_partition(current)
        partition = self._refine(current, partition)

        # 3. Uncoarsening with refinement.
        for level in reversed(levels):
            projected: Dict[int, int] = {}
            for coarse_vertex, block in partition.assignment.items():
                for fine_vertex in level.fine_vertices[coarse_vertex]:
                    projected[fine_vertex] = block
            partition = Partition(projected, 2, method="multilevel-projected")
            partition = self._refine(level.graph, partition)

        return partition.renamed("multilevel")

    # ------------------------------------------------------------------
    def k_way(self, graph: InteractionGraph, num_blocks: int) -> Partition:
        """Partition into ``num_blocks`` blocks by recursive bisection.

        Any ``num_blocks >= 1`` is supported: even splits recurse on the
        balanced bisection directly (bit-identical to the historical
        power-of-two path), while odd splits rebalance the bisection to the
        proportional ``k1 : k2`` vertex ratio before recursing, as METIS
        does for non-power-of-two k.
        """
        if num_blocks < 1:
            raise PartitionError("need at least one block")
        if num_blocks == 1:
            return Partition({v: 0 for v in range(graph.num_vertices)}, 1,
                             method="multilevel")

        assignment: Dict[int, int] = {}
        self._recursive_bisect(graph, list(range(graph.num_vertices)),
                               0, num_blocks, assignment)
        return Partition(assignment, num_blocks, method="multilevel")

    def _recursive_bisect(self, graph: InteractionGraph, vertices: List[int],
                          block_offset: int, num_blocks: int,
                          assignment: Dict[int, int]) -> None:
        if num_blocks == 1:
            for vertex in vertices:
                assignment[vertex] = block_offset
            return
        subgraph, back_map = graph.subgraph(set(vertices))
        bisection = self.bisect(subgraph)
        left_blocks = num_blocks // 2
        right_blocks = num_blocks - left_blocks
        if left_blocks != right_blocks:
            # Odd split: the balanced bisection must shed vertices to the
            # proportional k1:k2 ratio so downstream blocks end up even.
            from repro.partitioning.assigner import rebalance_partition

            left_target = round(len(vertices) * left_blocks / num_blocks)
            targets = [left_target, len(vertices) - left_target]
            if bisection.block_sizes() != targets:
                bisection = rebalance_partition(subgraph, bisection, targets)
        left = [back_map[v] for v in bisection.block_members(0)]
        right = [back_map[v] for v in bisection.block_members(1)]
        self._recursive_bisect(graph, left, block_offset, left_blocks,
                               assignment)
        self._recursive_bisect(graph, right, block_offset + left_blocks,
                               right_blocks, assignment)

    # ------------------------------------------------------------------
    def _initial_partition(self, graph: InteractionGraph) -> Partition:
        if graph.num_vertices < 2:
            return Partition({0: 0}, 2, method="initial")
        if self.initial_method == "spectral" and graph.num_edges > 0:
            return spectral_bisection(graph)
        rng = random.Random(self.seed)
        vertices = list(range(graph.num_vertices))
        rng.shuffle(vertices)
        half = graph.num_vertices // 2
        return Partition.from_blocks(
            [sorted(vertices[:half]), sorted(vertices[half:])], method="random"
        )

    def _refine(self, graph: InteractionGraph, partition: Partition) -> Partition:
        if self.refine_method == "kl":
            return kl_refine(graph, partition)
        return fm_refine(graph, partition,
                         balance_tolerance=self.balance_tolerance)


def multilevel_bisection(graph: InteractionGraph, seed: int = 0,
                         balance_tolerance: float = 0.1) -> Partition:
    """Convenience wrapper: METIS-style bisection with default settings."""
    partitioner = MultilevelPartitioner(seed=seed,
                                        balance_tolerance=balance_tolerance)
    return partitioner.bisect(graph)


def partition_graph(graph: InteractionGraph, num_blocks: int = 2,
                    seed: int = 0, method: str = "multilevel") -> Partition:
    """Partition a graph with the requested algorithm.

    A convenience front-end to the partitioner registry
    (:mod:`repro.partitioning.registry`): ``method`` is any registered name
    or alias — ``"multilevel"`` (default, METIS substitute),
    ``"kernighan_lin"`` / ``"kl"``, ``"fiduccia_mattheyses"`` / ``"fm"``,
    ``"spectral"``, ``"contiguous"`` — or a :class:`Partitioner` instance.
    ``multilevel`` and ``contiguous`` support any ``num_blocks``; the
    bisection-only algorithms reject ``num_blocks != 2``.
    """
    from repro.partitioning.registry import get_partitioner

    return get_partitioner(method).partition(graph, num_blocks=num_blocks,
                                             seed=seed)
