"""Unit tests for segmentation, ASAP/ALAP variants, policies, and lookup."""

import pytest

from repro.benchmarks import qft_circuit
from repro.circuits import QuantumCircuit
from repro.partitioning import distribute_circuit
from repro.scheduling import (
    AdaptivePolicy,
    ScheduleLookupTable,
    SchedulingVariant,
    build_lookup_table,
    compile_segment_variants,
    default_segment_length,
    segment_circuit,
)
from repro.scheduling.segmentation import reassemble
from repro.exceptions import SchedulingError


def remote_positions(circuit):
    return [i for i, g in enumerate(circuit.gates) if g.is_remote]


@pytest.fixture
def remote_heavy_circuit():
    """Distributed QFT-8: plenty of remote gates for segmentation tests."""
    return distribute_circuit(qft_circuit(8), num_nodes=2, seed=0).circuit


class TestSegmentation:
    def test_segments_cover_whole_circuit(self, remote_heavy_circuit):
        segments = segment_circuit(remote_heavy_circuit, 3)
        total_gates = sum(s.num_gates for s in segments)
        assert total_gates == remote_heavy_circuit.num_gates
        rebuilt = reassemble(segments, remote_heavy_circuit.num_qubits)
        assert [g.name for g in rebuilt.gates] == [
            g.name for g in remote_heavy_circuit.gates
        ]

    def test_each_segment_has_at_most_m_remote(self, remote_heavy_circuit):
        m = 4
        segments = segment_circuit(remote_heavy_circuit, m)
        assert all(s.num_remote <= m for s in segments)
        # All but possibly the last remote-bearing segment are full.
        full = [s for s in segments if s.num_remote == m]
        assert len(full) >= len(segments) - 2

    def test_boundaries_are_contiguous(self, remote_heavy_circuit):
        segments = segment_circuit(remote_heavy_circuit, 5)
        for before, after in zip(segments, segments[1:]):
            assert before.end_gate == after.start_gate

    def test_circuit_without_remote_gates(self, bell_circuit):
        segments = segment_circuit(bell_circuit, 2)
        assert len(segments) == 1
        assert segments[0].num_remote == 0

    def test_invalid_segment_length(self, bell_circuit):
        with pytest.raises(SchedulingError):
            segment_circuit(bell_circuit, 0)

    def test_default_segment_length(self):
        assert default_segment_length(10, 0.4) == 4
        assert default_segment_length(1, 0.1) == 1
        with pytest.raises(SchedulingError):
            default_segment_length(-1, 0.4)
        with pytest.raises(SchedulingError):
            default_segment_length(10, 0.0)


class TestVariants:
    def test_variants_are_equivalent(self, remote_heavy_circuit):
        segments = segment_circuit(remote_heavy_circuit, 4)
        for segment in segments[:3]:
            variants = compile_segment_variants(segment)
            assert variants.verify_equivalence()

    def test_asap_not_later_than_alap(self, remote_heavy_circuit):
        segments = segment_circuit(remote_heavy_circuit, 4)
        for segment in segments:
            if segment.num_remote == 0:
                continue
            variants = compile_segment_variants(segment)
            # Both variants hold the same remote gates, so comparing the
            # summed positions compares the mean positions.
            assert sum(remote_positions(variants.asap)) <= \
                sum(remote_positions(variants.alap))

    def test_get_by_name(self, small_remote_circuit):
        segments = segment_circuit(small_remote_circuit, 2)
        variants = compile_segment_variants(segments[0])
        assert variants.get("original") is variants.original
        assert variants.get("asap") is variants.asap
        with pytest.raises(SchedulingError):
            variants.get("bogus")


class TestPolicies:
    def test_adaptive_rule_of_the_paper(self):
        policy = AdaptivePolicy()
        threshold = policy.effective_threshold(segment_remote_count=4)
        assert threshold == 4
        assert policy.choose(5, threshold) == SchedulingVariant.ASAP
        assert policy.choose(0, threshold) == SchedulingVariant.ALAP
        assert policy.choose(2, threshold) == SchedulingVariant.ORIGINAL

    def test_explicit_thresholds(self):
        policy = AdaptivePolicy(asap_threshold=10, alap_threshold=2)
        assert policy.effective_threshold(4) == 10
        assert policy.choose(11, 10) == SchedulingVariant.ASAP
        assert policy.choose(2, 10) == SchedulingVariant.ALAP
        assert policy.choose(5, 10) == SchedulingVariant.ORIGINAL

    def test_invalid_thresholds(self):
        with pytest.raises(SchedulingError):
            AdaptivePolicy(asap_threshold=-1)
        with pytest.raises(SchedulingError):
            AdaptivePolicy(asap_threshold=1, alap_threshold=3)
        with pytest.raises(SchedulingError):
            AdaptivePolicy().choose(-1, 2)


class TestLookupTable:
    def test_build_and_select(self, remote_heavy_circuit):
        table = build_lookup_table(remote_heavy_circuit, 4)
        assert table.num_segments >= 2
        chosen_asap = table.variant_for(0, available_epr=100)
        chosen_alap = table.variant_for(0, available_epr=0)
        assert (chosen_asap, chosen_alap) == (SchedulingVariant.ASAP,
                                              SchedulingVariant.ALAP)
        assert table.variants[0].get(chosen_asap) is table.variants[0].asap
        assert table.variants[0].get(chosen_alap) is table.variants[0].alap

    def test_segment_index_validated(self, remote_heavy_circuit):
        table = build_lookup_table(remote_heavy_circuit, 4)
        with pytest.raises(SchedulingError):
            table.variant_for(99, 1)
        with pytest.raises(SchedulingError):
            table.variant_for(-1, 1)

    def test_empty_table_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduleLookupTable([])
