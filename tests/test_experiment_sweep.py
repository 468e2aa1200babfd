"""Tests for the communication/buffer qubit sweep (Fig. 7 machinery)."""

import pytest

from repro.analysis import sweep_report
from repro.core import SystemConfig
from repro.engine import ArtifactCache, ProcessPoolBackend
from repro.study import Axis, Study

SWEEP_SYSTEM = SystemConfig(
    data_qubits_per_node=16, comm_qubits_per_node=4, buffer_qubits_per_node=4
)


def comm_sweep(counts, **kwargs):
    """Fig. 7 sweep: ``n`` communication and ``n`` buffer qubits per count."""
    axis = Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                [(count, count) for count in counts])
    with Study(benchmarks="TLIM-32", axes=[axis], system=SWEEP_SYSTEM,
               **kwargs) as study:
        return study.run().to_comparisons(by="comm_qubits_per_node")


@pytest.fixture(scope="module")
def small_sweep():
    return comm_sweep([4, 8], designs=["async_buf", "adapt_buf", "ideal"],
                      num_runs=2, base_seed=3)


class TestCommQubitSweep:
    def test_sweep_shape(self, small_sweep):
        assert sorted(small_sweep) == [4, 8]
        for comparison in small_sweep.values():
            assert comparison.benchmark == "TLIM-32"
            assert set(comparison.designs) == {"async_buf", "adapt_buf", "ideal"}
            assert comparison.design("adapt_buf").num_runs == 2

    def test_more_comm_qubits_do_not_hurt(self, small_sweep):
        for design in ("async_buf", "adapt_buf"):
            fewer = small_sweep[4].depth_table()[design]
            more = small_sweep[8].depth_table()[design]
            assert more <= fewer + 1e-9

    def test_ideal_unaffected_by_comm_count(self, small_sweep):
        assert small_sweep[4].depth_table()["ideal"] == pytest.approx(
            small_sweep[8].depth_table()["ideal"]
        )

    def test_sweep_reuses_partitioned_program(self):
        cache = ArtifactCache()
        comm_sweep([4, 8], designs=["adapt_buf"], num_runs=1, cache=cache)
        # One partition for the whole sweep, one lookup-bearing cell per step.
        assert cache.count("program") == 1
        assert cache.count("cell") == 2

    def test_sweep_deterministic_across_backends(self):
        kwargs = dict(designs=["adapt_buf"], num_runs=2, base_seed=11)
        serial = comm_sweep([4, 8], backend="serial", **kwargs)
        with ProcessPoolBackend(max_workers=2) as backend:
            parallel = comm_sweep([4, 8], backend=backend, **kwargs)
        for count in (4, 8):
            serial_summary = serial[count].design("adapt_buf")
            parallel_summary = parallel[count].design("adapt_buf")
            assert serial_summary.depth.mean == parallel_summary.depth.mean
            assert serial_summary.fidelity.mean == parallel_summary.fidelity.mean

    def test_design_comparison_accepts_shared_cache(self):
        cache = ArtifactCache()

        def comparison():
            study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                          num_runs=1, system=SWEEP_SYSTEM, cache=cache)
            return study.run().to_comparisons()

        first = comparison()
        misses_after_first = cache.misses
        second = comparison()
        assert cache.misses == misses_after_first  # fully served from cache
        a = first["TLIM-32"].design("adapt_buf")
        b = second["TLIM-32"].design("adapt_buf")
        assert a.depth.mean == b.depth.mean


class TestSweepReport:
    def test_report_contains_counts_and_designs(self, small_sweep):
        text = sweep_report(small_sweep, "depth")
        assert "TLIM-32" in text
        assert "4/4" in text and "8/8" in text
        assert "adapt_buf" in text

    def test_fidelity_metric(self, small_sweep):
        text = sweep_report(small_sweep, "fidelity")
        assert "fidelity" in text

    def test_unknown_metric_rejected(self, small_sweep):
        with pytest.raises(ValueError):
            sweep_report(small_sweep, "volume")

    def test_empty_sweep(self):
        assert sweep_report({}) == "(no results)"
