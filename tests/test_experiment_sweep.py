"""Tests for the communication/buffer qubit sweep (Fig. 7 machinery)."""

import pytest

from repro.analysis import sweep_report
from repro.core import SystemConfig
from repro.engine import ArtifactCache, ProcessPoolBackend
from repro.study import Axis, ResultSet, RunRecord, Study

SWEEP_SYSTEM = SystemConfig(
    data_qubits_per_node=16, comm_qubits_per_node=4, buffer_qubits_per_node=4
)


def comm_sweep(counts, **kwargs):
    """Fig. 7 sweep: ``n`` communication and ``n`` buffer qubits per count."""
    axis = Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                [(count, count) for count in counts])
    with Study(benchmarks="TLIM-32", axes=[axis], system=SWEEP_SYSTEM,
               **kwargs) as study:
        return study.run()


def means(results, metric="depth"):
    """Statistics of ``metric`` per (communication qubit count, design)."""
    return results.aggregate(metric, by=["comm_qubits_per_node", "design"])


@pytest.fixture(scope="module")
def small_sweep():
    return comm_sweep([4, 8], designs=["async_buf", "adapt_buf", "ideal"],
                      num_runs=2, base_seed=3)


class TestCommQubitSweep:
    def test_sweep_shape(self, small_sweep):
        assert small_sweep.benchmarks() == ["TLIM-32"]
        depth = means(small_sweep)
        assert set(depth) == {(count, design) for count in (4, 8)
                              for design in ("async_buf", "adapt_buf", "ideal")}
        assert depth[(4, "adapt_buf")].count == 2

    def test_more_comm_qubits_do_not_hurt(self, small_sweep):
        depth = means(small_sweep)
        for design in ("async_buf", "adapt_buf"):
            fewer = depth[(4, design)].mean
            more = depth[(8, design)].mean
            assert more <= fewer + 1e-9

    def test_ideal_unaffected_by_comm_count(self, small_sweep):
        depth = means(small_sweep)
        assert depth[(4, "ideal")].mean == pytest.approx(depth[(8, "ideal")].mean)

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
        for metric in ("depth", "fidelity"):
            assert means(serial, metric) == means(parallel, metric)

    def test_design_comparison_accepts_shared_cache(self):
        cache = ArtifactCache()

        def comparison():
            study = Study(benchmarks=["TLIM-32"], designs=["adapt_buf"],
                          num_runs=1, system=SWEEP_SYSTEM, cache=cache)
            return study.run().aggregate("depth", by="design")

        first = comparison()
        misses_after_first = cache.misses
        second = comparison()
        assert cache.misses == misses_after_first  # fully served from cache
        assert first["adapt_buf"].mean == second["adapt_buf"].mean


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
        assert sweep_report(ResultSet([])) == "(no results)"

    def test_columns_name_the_swept_values(self):
        """The title names the swept key and each column the values the
        records carry, whatever the key: not ``0.2/0.2`` for a psucc sweep
        or ``2/2`` for communication qubits swept alone."""
        def sweep(keys, points):
            """Ideal and original TLIM-16 runs at each swept point."""
            return ResultSet([
                RunRecord(benchmark="TLIM-16", design=design, seed=0,
                          depth=depth, fidelity=0.5, num_remote=0,
                          mean_remote_wait=0.0, mean_link_fidelity=0.0,
                          epr_generated=0, epr_wasted=0,
                          params=dict(zip(keys, values)))
                for values, depths in points
                for design, depth in zip(("ideal", "original"), depths)
            ])

        assert sweep_report(sweep(["epr_success_probability"], [
            ((0.2,), (10.0, 40.0)), ((0.8,), (10.0, 20.0))])) == (
            "TLIM-16 — depth vs epr_success_probability\n"
            "Design    0.2    0.8  \n"
            "--------  -----  -----\n"
            "ideal     10.00  10.00\n"
            "original  40.00  20.00"
        )
        assert sweep_report(sweep(["comm_qubits_per_node"], [
            ((2,), (10.0, 30.0)), ((4,), (10.0, 25.0))])).splitlines()[:2] == [
            "TLIM-16 — depth vs comm_qubits_per_node",
            "Design    2      4    ",
        ]
        zipped = sweep(["comm_qubits_per_node", "buffer_qubits_per_node"], [
            ((10, 10), (10.0, 30.0)), ((15, 15), (10.0, 25.0)),
            ((20, 20), (10.0, 20.0))])
        assert sweep_report(zipped, "fidelity").splitlines()[:2] == [
            "TLIM-16 — fidelity vs buffer_qubits_per_node/comm_qubits_per_node",
            "Design    10/10   15/15   20/20 ",
        ]
