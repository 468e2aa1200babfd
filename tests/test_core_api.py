"""Tests for the high-level DQCSimulator API, configs, experiments, analysis."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    comparison_report,
    format_table,
    relative_change,
    relative_depth_report,
    summarize,
    table1_report,
    table2_report,
)
from repro.benchmarks import tlim_circuit
from repro.core import (
    DQCSimulator,
    PAPER_32Q_SYSTEM,
    PAPER_64Q_SYSTEM,
    SystemConfig,
)
from repro.core.results import BenchmarkComparison, DesignSummary
from repro.exceptions import ConfigurationError
from repro.study import Axis, Study

REPO_ROOT = Path(__file__).resolve().parent.parent


def design_comparisons(designs, num_runs, system):
    """TLIM-32 under ``designs``, as comparisons keyed by benchmark."""
    with Study(benchmarks=["TLIM-32"], designs=designs, num_runs=num_runs,
               system=system) as study:
        return study.run().to_comparisons()


class TestSystemConfig:
    def test_paper_configurations(self):
        assert PAPER_32Q_SYSTEM.total_data_qubits == 32
        assert PAPER_64Q_SYSTEM.total_data_qubits == 64
        assert PAPER_64Q_SYSTEM.comm_qubits_per_node == 20

    def test_build_architecture(self, small_system):
        architecture = small_system.build_architecture()
        assert architecture.total_data_qubits == small_system.total_data_qubits
        assert architecture.physics.epr_success_probability == pytest.approx(0.4)

    def test_with_comm_and_buffer(self):
        tweaked = PAPER_32Q_SYSTEM.with_comm_and_buffer(15, 15)
        assert tweaked.comm_qubits_per_node == 15
        assert PAPER_32Q_SYSTEM.comm_qubits_per_node == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_nodes=1)
        with pytest.raises(ConfigurationError):
            SystemConfig(data_qubits_per_node=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(comm_qubits_per_node=0)

    def test_experiment_config(self, small_system):
        study = Study(benchmarks=["TLIM-32"], num_runs=3, base_seed=10,
                      system=small_system)
        assert study.seeds() == [10, 11, 12]
        with pytest.raises(ConfigurationError):
            Study(benchmarks=[])
        with pytest.raises(ConfigurationError):
            Study(benchmarks=["TLIM-32"], num_runs=0)


class TestSimulatorAPI:
    def test_simulate_benchmark_by_name(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        result = small_simulator.simulate(circuit, design="async_buf", seed=1)
        assert result.depth > 0
        assert 0 < result.fidelity <= 1

    def test_program_cache_reused(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        program = small_simulator.prepare(circuit)
        assert small_simulator.prepare(program) is program

    def test_named_benchmark_cached(self):
        simulator = DQCSimulator()
        first = simulator.prepare("TLIM-32")
        second = simulator.prepare("tlim-32")
        assert first is second

    def test_simulate_all_designs(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        results = small_simulator.simulate_all_designs(circuit, seed=2)
        assert set(results) == {"original", "sync_buf", "async_buf", "adapt_buf",
                                "init_buf", "ideal"}

    def test_negative_seed_rejected(self, small_simulator):
        with pytest.raises(ConfigurationError, match="non-negative"):
            small_simulator.simulate("TLIM-32", design="original", seed=-5)

    def test_circuit_too_large_rejected(self, small_simulator):
        with pytest.raises(ConfigurationError):
            small_simulator.prepare(tlim_circuit(40, num_steps=1))

    def test_invalid_input_type(self, small_simulator):
        with pytest.raises(ConfigurationError):
            small_simulator.prepare(42)

    def test_describe(self, small_simulator):
        description = small_simulator.describe()
        assert description["system"]["psucc"] == pytest.approx(0.4)
        assert "adapt_buf" in description["designs"]

    def test_ideal_reference(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        ideal = small_simulator.ideal_reference(circuit)
        assert ideal.design == "ideal"


class TestStudyComparisons:
    def test_runner_aggregates(self):
        comparisons = design_comparisons(
            ["ideal"], num_runs=2,
            system=SystemConfig(data_qubits_per_node=16,
                                comm_qubits_per_node=4,
                                buffer_qubits_per_node=4))
        assert comparisons["TLIM-32"].design("ideal").num_runs == 2

    def test_design_comparison(self):
        comparisons = design_comparisons(
            ["sync_buf", "async_buf", "ideal"], num_runs=2,
            system=SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=6,
                                buffer_qubits_per_node=6),
        )
        comparison = comparisons["TLIM-32"]
        relative = comparison.relative_depth_table()
        assert relative["ideal"] == pytest.approx(1.0)
        assert relative["sync_buf"] >= 1.0
        assert comparison.depth_reduction_vs("sync_buf", "async_buf") > -0.5

    def test_comm_qubit_sweep(self):
        study = Study(
            benchmarks="TLIM-32", designs=["async_buf", "ideal"], num_runs=1,
            axes=[Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                       [(4, 4), (8, 8)])],
            system=SystemConfig(data_qubits_per_node=16,
                                comm_qubits_per_node=4,
                                buffer_qubits_per_node=4),
        )
        sweep = study.run().to_comparisons(by="comm_qubits_per_node")
        assert set(sweep) == {4, 8}
        more = sweep[8].design("async_buf").depth.mean
        fewer = sweep[4].design("async_buf").depth.mean
        assert more <= fewer + 1e-9


class TestAnalysis:
    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        low, high = stats.confidence_interval()
        assert low < stats.mean < high
        assert stats.standard_error > 0

    def test_summarize_single_sample(self):
        stats = summarize([2.0])
        assert stats.std == 0.0
        assert stats.confidence_interval() == (2.0, 2.0)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_relative_change(self):
        assert relative_change(10.0, 5.0) == pytest.approx(0.5)
        assert relative_change(0.0, 5.0) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table_reports(self):
        table2 = table2_report()
        assert "EPR pair preparation" in table2
        table1 = table1_report(
            {"X": {"qubits": 4, "local_2q": 3, "remote_2q": 1,
                   "single_q": 2, "depth": 5}},
            paper_values={"X": {"local_2q": 3, "remote_2q": 1, "single_q": 2,
                                "depth": 5}},
        )
        assert "(paper)" in table1

    def test_comparison_report(self, small_system):
        comparisons = design_comparisons(
            ["async_buf", "ideal"], num_runs=1,
            system=SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                                buffer_qubits_per_node=4),
        )
        comparison = comparisons["TLIM-32"]
        depth_text = comparison_report(comparison, metric="depth")
        fidelity_text = comparison_report(comparison, metric="fidelity")
        assert "async_buf" in depth_text and "ideal" in fidelity_text
        with pytest.raises(ValueError):
            comparison_report(comparison, metric="volume")
        summary_text = relative_depth_report([comparison])
        assert "TLIM-32" in summary_text

    def test_design_summary_from_results(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        results = [small_simulator.simulate(circuit, design="async_buf", seed=s)
                   for s in (1, 2)]
        summary = DesignSummary.from_results(results)
        assert summary.num_runs == 2
        assert summary.depth.mean > 0
        comparison = BenchmarkComparison(benchmark="toy")
        comparison.add(summary)
        assert comparison.designs == ["async_buf"]
        with pytest.raises(ValueError):
            DesignSummary.from_results([])


class TestApiRegistration:
    """The api facade's benchmark / design registration entry points."""

    def test_register_benchmark_round_trip(self):
        from repro import api
        from repro.benchmarks.registry import BENCHMARKS

        spec = api.BenchmarkSpec(
            name="GHZ-TEST-12", num_qubits=12,
            builder=lambda: tlim_circuit(12, num_steps=1),
            description="registration test benchmark")
        try:
            assert api.register_benchmark(spec) is spec
            assert api.get_benchmark("ghz-test-12") is spec
            assert "GHZ-TEST-12" in api.list_benchmarks()
            with pytest.raises(Exception, match="already registered"):
                api.register_benchmark(spec)
            replacement = api.BenchmarkSpec(
                name="GHZ-TEST-12", num_qubits=12,
                builder=lambda: tlim_circuit(12, num_steps=2))
            assert api.register_benchmark(replacement, overwrite=True) \
                is replacement
        finally:
            BENCHMARKS.pop("GHZ-TEST-12", None)

    def test_register_design_round_trip(self):
        from repro import api
        from repro.runtime.designs import DESIGNS, DESIGN_ORDER

        spec = api.get_design("adapt_buf").with_overrides(
            name="adapt_test_cutoff", buffer_cutoff=40.0)
        try:
            assert api.register_design(spec) is spec
            assert api.get_design("adapt_test_cutoff") is spec
            assert api.list_designs()[-1] == "adapt_test_cutoff"
            with pytest.raises(ConfigurationError, match="already registered"):
                api.register_design(spec)
        finally:
            DESIGNS.pop("adapt_test_cutoff", None)
            if "adapt_test_cutoff" in DESIGN_ORDER:
                DESIGN_ORDER.remove("adapt_test_cutoff")


class TestFacades:
    """``repro`` holds the run-and-read API, ``repro.api`` every registry."""

    def test_facades_share_no_name(self):
        import repro
        import repro.api

        assert set(repro.__all__) & set(repro.api.__all__) == set()

    def test_every_exported_name_resolves(self):
        import repro
        import repro.api
        import repro.core
        import repro.engine

        for module in (repro, repro.api, repro.core, repro.engine):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_documented_imports_resolve(self):
        import repro
        import repro.api  # noqa: F401 - the docs import it as `from repro import api`

        sources = [REPO_ROOT / "README.md",
                   REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
                   *sorted((REPO_ROOT / "docs").glob("*.md")),
                   *sorted((REPO_ROOT / "examples").glob("*.py"))]
        imported = []
        for path in sources:
            text = path.read_text(encoding="utf-8")
            for match in re.finditer(r"from repro import (\([^)]*\)|[^\n]+)",
                                     text):
                body = re.sub(r"#[^\n]*", "", match.group(1)).strip("()")
                for piece in body.split(","):
                    # "X as Y" imports X; a trailing backtick or
                    # parenthesis is markup, not part of the name.
                    name = re.match(r"\s*(\w*)", piece).group(1)
                    if name:
                        imported.append((path.name, name))
        assert imported
        missing = [(source, name) for source, name in imported
                   if not hasattr(repro, name)]
        assert missing == []
