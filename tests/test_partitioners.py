"""Unit tests for the KL / FM / spectral / multilevel partitioners."""

import pytest

from repro.benchmarks import qft_circuit, random_regular_graph, tlim_circuit
from repro.partitioning import (
    InteractionGraph,
    MultilevelPartitioner,
    Partition,
    fm_bisection,
    fm_refine,
    kernighan_lin_bisection,
    kl_refine,
    multilevel_bisection,
    partition_graph,
    spectral_bisection,
)
from repro.partitioning.spectral import fiedler_vector
from repro.exceptions import PartitionError


def two_cluster_graph(cluster_size=8, bridge_weight=1.0):
    """Two dense clusters joined by a single weighted bridge edge."""
    edges = {}
    offset = cluster_size
    for i in range(cluster_size):
        for j in range(i + 1, cluster_size):
            edges[(i, j)] = 1.0
            edges[(offset + i, offset + j)] = 1.0
    edges[(0, offset)] = bridge_weight
    return InteractionGraph(2 * cluster_size, edges)


class TestKernighanLin:
    def test_finds_natural_bisection(self):
        graph = two_cluster_graph()
        partition = kernighan_lin_bisection(graph, seed=1)
        assert partition.cut_weight(graph) == pytest.approx(1.0)
        assert partition.block_sizes() == [8, 8]

    def test_refine_never_worsens_cut(self):
        graph = two_cluster_graph()
        start = Partition.contiguous(16, 2)
        refined = kl_refine(graph, start)
        assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9

    def test_requires_bisection(self):
        graph = two_cluster_graph()
        bad = Partition({v: v % 4 for v in range(16)}, 4)
        with pytest.raises(PartitionError):
            kl_refine(graph, bad)

    def test_too_small_graph(self):
        with pytest.raises(PartitionError):
            kernighan_lin_bisection(InteractionGraph(1))


class TestFiducciaMattheyses:
    def test_refine_finds_natural_bisection_from_contiguous_start(self):
        graph = two_cluster_graph()
        refined = fm_refine(graph, Partition.contiguous(16, 2))
        assert refined.cut_weight(graph) == pytest.approx(1.0)

    def test_bisection_produces_valid_balanced_partition(self):
        graph = two_cluster_graph()
        partition = fm_bisection(graph, seed=4)
        assert partition.num_vertices == 16
        assert partition.num_blocks == 2
        # FM from a random start may hit a local optimum on twin cliques, but
        # it must never be worse than the worst balanced cut.
        assert partition.cut_weight(graph) <= graph.total_edge_weight

    def test_balance_respected(self):
        graph = two_cluster_graph()
        partition = fm_bisection(graph, seed=4, balance_tolerance=0.1)
        sizes = partition.block_sizes()
        assert max(sizes) <= (1.1 * 16 / 2) + 1e-9

    def test_refine_never_worsens_cut(self):
        graph = InteractionGraph.from_circuit(tlim_circuit(16, num_steps=2))
        start = Partition.contiguous(16, 2)
        refined = fm_refine(graph, start)
        assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9

    def test_requires_bisection(self):
        with pytest.raises(PartitionError):
            fm_refine(two_cluster_graph(), Partition({v: 0 for v in range(16)}, 1))


class TestNeighbourLookups:
    """Refinement reads neighbours from one adjacency map per call."""

    def test_refinement_never_scans_the_edge_list_per_vertex(
            self, monkeypatch):
        from repro.partitioning import rebalance_partition

        calls = []
        neighbors = InteractionGraph.neighbors

        def counted(graph, vertex):
            calls.append(vertex)
            return neighbors(graph, vertex)

        monkeypatch.setattr(InteractionGraph, "neighbors", counted)
        graph = InteractionGraph.from_circuit(qft_circuit(16))
        fm_refine(graph, Partition.contiguous(16, 2))
        kl_refine(graph, Partition.contiguous(16, 2))
        rebalance_partition(graph, Partition({v: int(v >= 10)
                                              for v in range(16)}, 2), [8, 8])
        multilevel_bisection(graph, seed=1)
        assert calls == []

    def test_adjacency_keeps_each_vertex_neighbour_order(self):
        # Gains sum neighbour weights in this order, so it fixes the floats.
        graph = InteractionGraph.from_circuit(qft_circuit(12))
        adjacency = graph.adjacency()
        for vertex in range(graph.num_vertices):
            assert list(adjacency[vertex].items()) == \
                list(graph.neighbors(vertex).items())


class TestSpectral:
    def test_balanced_split(self):
        graph = two_cluster_graph()
        partition = spectral_bisection(graph)
        assert partition.block_sizes() == [8, 8]
        assert partition.cut_weight(graph) == pytest.approx(1.0)

    def test_fiedler_vector_orthogonal_to_constant(self):
        import numpy as np

        graph = two_cluster_graph()
        vector = fiedler_vector(graph)
        assert abs(np.sum(vector)) < 1e-6

    def test_small_graph_rejected(self):
        with pytest.raises(PartitionError):
            spectral_bisection(InteractionGraph(1))


class TestMultilevel:
    def test_finds_natural_bisection(self):
        graph = two_cluster_graph(cluster_size=12)
        partition = multilevel_bisection(graph, seed=0)
        assert partition.cut_weight(graph) == pytest.approx(1.0)

    def test_tlim_chain_cut_is_one(self):
        graph = InteractionGraph.from_circuit(tlim_circuit(32, num_steps=1))
        partition = multilevel_bisection(graph, seed=0)
        # The optimal bisection of a path graph cuts exactly one bond.
        assert partition.cut_weight(graph) == pytest.approx(1.0)

    def test_qft_cut_lower_bound(self):
        graph = InteractionGraph.from_circuit(qft_circuit(16))
        partition = multilevel_bisection(graph, seed=0)
        # Complete graph: any balanced bisection cuts exactly (n/2)^2 edges.
        assert partition.cut_weight(graph) == pytest.approx(64.0)

    def test_beats_or_matches_random_regular_baseline(self):
        edges = random_regular_graph(32, 4, seed=2)
        graph = InteractionGraph.from_edges(32, edges)
        multilevel = multilevel_bisection(graph, seed=0)
        contiguous = Partition.contiguous(32, 2)
        assert multilevel.cut_weight(graph) <= contiguous.cut_weight(graph)

    def test_k_way_power_of_two(self):
        graph = InteractionGraph.from_circuit(tlim_circuit(16, num_steps=1))
        partition = MultilevelPartitioner(seed=0).k_way(graph, 4)
        assert partition.num_blocks == 4
        assert sorted(partition.block_sizes()) == [4, 4, 4, 4]

    def test_k_way_odd_block_count(self):
        graph = InteractionGraph.from_circuit(tlim_circuit(18, num_steps=1))
        partition = MultilevelPartitioner(seed=0).k_way(graph, 3)
        assert partition.num_blocks == 3
        assert sorted(partition.block_sizes()) == [6, 6, 6]

    def test_k_way_rejects_zero_blocks(self):
        graph = two_cluster_graph()
        with pytest.raises(PartitionError):
            MultilevelPartitioner().k_way(graph, 0)

    def test_partition_graph_dispatch(self):
        graph = two_cluster_graph()
        for method in ("multilevel", "kl", "fm", "spectral", "contiguous"):
            partition = partition_graph(graph, 2, seed=0, method=method)
            assert partition.num_blocks == 2
        with pytest.raises(PartitionError):
            partition_graph(graph, 2, method="bogus")
        with pytest.raises(PartitionError):
            partition_graph(graph, 4, method="kl")

    def test_invalid_configuration(self):
        with pytest.raises(PartitionError):
            MultilevelPartitioner(initial_method="wrong")
        with pytest.raises(PartitionError):
            MultilevelPartitioner(refine_method="wrong")


class TestPartitionObject:
    def test_from_blocks_and_accessors(self):
        partition = Partition.from_blocks([[0, 2], [1, 3]])
        assert partition.block_of(2) == 0
        assert partition.block_members(1) == [1, 3]
        assert partition.block_sizes() == [2, 2]
        assert partition.is_crossing(0, 1)
        assert not partition.is_crossing(0, 2)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(PartitionError):
            Partition.from_blocks([[0, 1], [1, 2]])

    def test_contiguous_requires_divisibility(self):
        with pytest.raises(PartitionError):
            Partition.contiguous(10, 3)

    def test_imbalance(self):
        partition = Partition.from_blocks([[0, 1, 2], [3]])
        assert partition.imbalance() == pytest.approx(0.5)

    def test_capacity_check(self):
        partition = Partition.from_blocks([[0, 1, 2], [3]])
        assert partition.satisfies_capacity([3, 2])
        assert not partition.satisfies_capacity([2, 2])
        with pytest.raises(PartitionError):
            partition.satisfies_capacity([3])

    def test_invalid_block_index(self):
        with pytest.raises(PartitionError):
            Partition({0: 5}, 2)

    def test_unassigned_vertex_raises(self):
        partition = Partition({0: 0}, 1)
        with pytest.raises(PartitionError):
            partition.block_of(3)
