"""Tests for the topology registry, link normalisation, and SystemConfig wiring."""

import pytest

from repro.core.config import SystemConfig
from repro.engine.compiler import CellCompiler
from repro.hardware import DQCArchitecture, QPUNode
from repro.hardware.topology import (
    TOPOLOGIES,
    Topology,
    get_topology,
    list_topologies,
    register_topology,
    validate_remote_pairs,
)
from repro.exceptions import (
    ArchitectureError,
    ConfigurationError,
    TopologyError,
)


def _nodes(count):
    return [QPUNode(i, 4, 2, 2) for i in range(count)]


class TestTopologyRegistry:
    def test_builtins_listed(self):
        assert list_topologies() == ["all_to_all", "line", "ring", "star"]

    def test_lookup_is_case_insensitive(self):
        assert get_topology("RING") is get_topology("ring")

    def test_instance_passthrough(self):
        topology = get_topology("line")
        assert get_topology(topology) is topology

    def test_unknown_name_lists_registry_and_family(self):
        with pytest.raises(TopologyError, match="grid-RxC"):
            get_topology("torus")

    def test_register_and_duplicate_rejected(self):
        custom = Topology("test-pair-only", lambda n: [(0, 1)])
        try:
            register_topology(custom)
            assert get_topology("test-pair-only") is custom
            with pytest.raises(TopologyError, match="already registered"):
                register_topology(Topology("test-pair-only", lambda n: None))
        finally:
            TOPOLOGIES.pop("test-pair-only", None)

    def test_grid_family_synthesised_and_cached(self):
        grid = get_topology("grid-2x3")
        assert grid is get_topology("GRID-2x3")
        assert "grid-2x3" not in list_topologies()


class TestTopologyLinks:
    def test_all_to_all_is_native_none(self):
        assert get_topology("all_to_all").links(4) is None

    @pytest.mark.parametrize("name, num_nodes, expected", [
        ("line", 2, [(0, 1)]),
        ("line", 4, [(0, 1), (1, 2), (2, 3)]),
        ("ring", 2, [(0, 1)]),
        ("ring", 3, [(0, 1), (0, 2), (1, 2)]),
        ("ring", 4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
        ("star", 3, [(0, 1), (0, 2)]),
        ("star", 4, [(0, 1), (0, 2), (0, 3)]),
        ("grid-2x2", 4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ("grid-2x3", 6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5),
                         (3, 4), (4, 5)]),
    ])
    def test_link_lists(self, name, num_nodes, expected):
        assert get_topology(name).links(num_nodes) == expected

    def test_ring_3_equals_all_pairs(self):
        # At three nodes the ring is the complete interconnect.
        links = get_topology("ring").links(3)
        assert links == [(0, 1), (0, 2), (1, 2)]

    def test_grid_node_count_mismatch(self):
        with pytest.raises(TopologyError, match="exactly 6 nodes"):
            get_topology("grid-2x3").links(4)

    def test_too_few_nodes(self):
        with pytest.raises(TopologyError, match="at least 2"):
            get_topology("ring").links(1)


class TestLinkNormalisation:
    def test_reversed_and_duplicate_links_collapse(self):
        architecture = DQCArchitecture(
            nodes=_nodes(3), links=[(1, 0), (0, 1), (2, 1), (1, 2)],
        )
        assert architecture.links == [(0, 1), (1, 2)]
        assert architecture.node_pairs() == [(0, 1), (1, 2)]

    def test_disconnected_links_raise_named_error(self):
        with pytest.raises(TopologyError, match="disconnected"):
            DQCArchitecture(nodes=_nodes(4), links=[(0, 1), (2, 3)])

    def test_empty_links_disconnected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            DQCArchitecture(nodes=_nodes(2), links=[])

    def test_invalid_link_still_rejected(self):
        with pytest.raises(ArchitectureError):
            DQCArchitecture(nodes=_nodes(2), links=[(0, 0)])
        with pytest.raises(ArchitectureError):
            DQCArchitecture(nodes=_nodes(2), links=[(0, 5)])

    def test_none_links_stay_all_to_all(self):
        architecture = DQCArchitecture(nodes=_nodes(3))
        assert architecture.links is None
        assert architecture.node_pairs() == [(0, 1), (0, 2), (1, 2)]


class TestSystemConfigTopology:
    def test_defaults_unchanged(self):
        system = SystemConfig()
        assert system.topology == "all_to_all"
        assert system.partition_method == "multilevel"
        assert system.build_architecture().links is None

    def test_unknown_names_fail_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            SystemConfig(topology="bogus")
        with pytest.raises(ConfigurationError,
                           match="unknown partitioning method"):
            SystemConfig(partition_method="bogus")

    def test_topology_arity_checked_at_construction(self):
        with pytest.raises(ConfigurationError, match="exactly 6 nodes"):
            SystemConfig(num_nodes=4, topology="grid-2x3")

    @pytest.mark.parametrize("num_nodes", [2, 3, 4])
    @pytest.mark.parametrize("topology",
                             ["all_to_all", "line", "ring", "star"])
    def test_build_architecture_every_topology(self, num_nodes, topology):
        system = SystemConfig(num_nodes=num_nodes, topology=topology)
        architecture = system.build_architecture()
        assert architecture.num_nodes == num_nodes
        pairs = architecture.node_pairs()
        expected = get_topology(topology).links(num_nodes)
        if expected is None:
            expected = [(a, b) for a in range(num_nodes)
                        for b in range(a + 1, num_nodes)]
        assert pairs == expected
        # Every pair is connected both ways round.
        for a, b in pairs:
            assert architecture.are_connected(a, b)
            assert architecture.are_connected(b, a)

    def test_grid_topology_via_config(self):
        system = SystemConfig(num_nodes=4, topology="grid-2x2")
        assert system.build_architecture().node_pairs() == [
            (0, 1), (0, 2), (1, 3), (2, 3)]


class TestRemotePairValidation:
    def test_validate_remote_pairs_passes_when_linked(self):
        architecture = DQCArchitecture(nodes=_nodes(3),
                                       links=[(0, 1), (1, 2)])
        validate_remote_pairs(architecture, [(0, 1), (1, 2), (0, 1)])

    def test_validate_remote_pairs_names_missing_links(self):
        architecture = DQCArchitecture(nodes=_nodes(3),
                                       links=[(0, 1), (1, 2)])
        with pytest.raises(TopologyError, match=r"\(0, 2\)"):
            validate_remote_pairs(architecture, [(0, 2)], context="test cell")

    def test_compile_rejects_unlinked_partition(self):
        system = SystemConfig(num_nodes=4, topology="ring")
        compiler = CellCompiler(system=system)
        with pytest.raises(TopologyError, match="topology 'ring'"):
            compiler.compile("QAOA-r4-32", "adapt_buf")

    def test_ideal_design_needs_no_interconnect(self):
        system = SystemConfig(num_nodes=4, topology="ring")
        compiler = CellCompiler(system=system)
        cell = compiler.compile("QAOA-r4-32", "ideal")
        assert cell.execute_batch([1])[0].makespan > 0

    def test_line_topology_runs_contiguous_chain(self):
        # TLIM is a 1D chain: contiguous blocks only touch neighbours, which
        # is exactly what a line interconnect provides.
        system = SystemConfig(num_nodes=4, topology="line",
                              partition_method="contiguous")
        compiler = CellCompiler(system=system)
        cell = compiler.compile("TLIM-32", "adapt_buf")
        assert set(cell.program.remote_pairs()) <= {(0, 1), (1, 2), (2, 3)}
        assert cell.execute_batch([1])[0].makespan > 0
