"""Partition results and quality metrics.

A :class:`Partition` assigns every qubit (graph vertex) to a block (QPU
node).  It records cut weight and balance metrics so the different
partitioning algorithms (KL, FM, multilevel, spectral) can be compared on a
common footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.partitioning.interaction_graph import InteractionGraph
from repro.exceptions import PartitionError

__all__ = ["Partition"]


@dataclass
class Partition:
    """Assignment of vertices to blocks.

    Attributes
    ----------
    assignment:
        Mapping of vertex index to block index ``0 .. num_blocks-1``.
    num_blocks:
        Number of blocks (QPU nodes).
    method:
        Name of the algorithm that produced the partition (for reports).
    """

    assignment: Dict[int, int]
    num_blocks: int
    method: str = "unknown"

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise PartitionError("partition needs at least one block")
        for vertex, block in self.assignment.items():
            if not (0 <= block < self.num_blocks):
                raise PartitionError(
                    f"vertex {vertex} assigned to invalid block {block}"
                )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of assigned vertices."""
        return len(self.assignment)

    def block_of(self, vertex: int) -> int:
        """Block index of a vertex."""
        try:
            return self.assignment[vertex]
        except KeyError as exc:
            raise PartitionError(f"vertex {vertex} is not assigned") from exc

    def block_members(self, block: int) -> List[int]:
        """Sorted vertices assigned to ``block``."""
        return sorted(v for v, b in self.assignment.items() if b == block)

    def blocks(self) -> List[List[int]]:
        """All blocks as lists of vertices."""
        return [self.block_members(b) for b in range(self.num_blocks)]

    def block_sizes(self) -> List[int]:
        """Number of vertices per block."""
        return [len(self.block_members(b)) for b in range(self.num_blocks)]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def cut_weight(self, graph: InteractionGraph) -> float:
        """Total weight of cut edges for a given interaction graph."""
        return graph.cut_weight(self.assignment)

    def imbalance(self) -> float:
        """Relative imbalance: ``max_block / ideal_block - 1`` (0 = perfect)."""
        sizes = self.block_sizes()
        ideal = self.num_vertices / self.num_blocks
        if ideal == 0:
            return 0.0
        return max(sizes) / ideal - 1.0

    def satisfies_capacity(self, capacities: Sequence[int]) -> bool:
        """Whether every block fits within the given per-block capacities."""
        if len(capacities) != self.num_blocks:
            raise PartitionError("capacity list length must equal num_blocks")
        return all(
            size <= capacity
            for size, capacity in zip(self.block_sizes(), capacities)
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]],
                    method: str = "explicit") -> "Partition":
        """Build a partition from explicit per-block vertex lists."""
        assignment: Dict[int, int] = {}
        for block_index, members in enumerate(blocks):
            for vertex in members:
                if vertex in assignment:
                    raise PartitionError(f"vertex {vertex} appears in two blocks")
                assignment[vertex] = block_index
        return cls(assignment, len(blocks), method=method)

    @classmethod
    def contiguous(cls, num_vertices: int, num_blocks: int,
                   method: str = "contiguous") -> "Partition":
        """Split ``0..num_vertices-1`` into contiguous equal chunks.

        This is the natural partition for linear-connectivity circuits such
        as TLIM and a useful deterministic baseline in tests.
        """
        if num_vertices % num_blocks != 0:
            raise PartitionError(
                f"{num_vertices} vertices cannot be split evenly into "
                f"{num_blocks} blocks"
            )
        per_block = num_vertices // num_blocks
        assignment = {v: v // per_block for v in range(num_vertices)}
        return cls(assignment, num_blocks, method=method)

    def renamed(self, method: str) -> "Partition":
        """Copy with a different ``method`` label."""
        return Partition(dict(self.assignment), self.num_blocks, method=method)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.assignment == other.assignment
            and self.num_blocks == other.num_blocks
        )
