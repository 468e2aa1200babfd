"""Tests for the high-level DQCSimulator API, configs, experiments, analysis."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    comparison_report,
    format_table,
    relative_depth_report,
    summarize,
    sweep_report,
    table1_report,
    table2_report,
)
from repro.benchmarks import tlim_circuit
from repro.core import (
    PAPER_32Q_SYSTEM,
    PAPER_64Q_SYSTEM,
    SystemConfig,
)
from repro.engine import CellCompiler
from repro.exceptions import ConfigurationError
from repro.study import Axis, ResultSet, RunRecord, Study

REPO_ROOT = Path(__file__).resolve().parent.parent


def design_means(designs, num_runs, system):
    """Mean TLIM-32 depth statistics of each of ``designs``."""
    with Study(benchmarks=["TLIM-32"], designs=designs, num_runs=num_runs,
               system=system) as study:
        return study.run().aggregate("depth", by="design")


def record(benchmark, design, seed, depth, fidelity, **params):
    """A hand-made run record with the given depth and fidelity."""
    return RunRecord(benchmark=benchmark, design=design, seed=seed,
                     depth=depth, fidelity=fidelity, num_remote=0,
                     mean_remote_wait=0.0, mean_link_fidelity=0.0,
                     epr_generated=0, epr_wasted=0, params=params)


#: Two benchmarks, two runs of each design on ``A``, one on ``B``.
HAND_MADE = ResultSet([
    record("A", "original", 0, 30.0, 0.5),
    record("A", "original", 1, 36.0, 0.7),
    record("A", "ideal", 0, 11.0, 0.8),
    record("A", "ideal", 1, 11.0, 0.8),
    record("B", "original", 0, 20.0, 0.4),
    record("B", "ideal", 0, 10.0, 0.9),
])


class TestSystemConfig:
    def test_paper_configurations(self):
        assert PAPER_32Q_SYSTEM.total_data_qubits == 32
        assert PAPER_64Q_SYSTEM.total_data_qubits == 64
        assert PAPER_64Q_SYSTEM.comm_qubits_per_node == 20

    def test_build_architecture(self, small_system):
        architecture = small_system.build_architecture()
        assert architecture.total_data_qubits == small_system.total_data_qubits
        assert architecture.physics.epr_success_probability == pytest.approx(0.4)

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

    def test_program_cache_reused(self, small_system):
        compiler = CellCompiler(system=small_system)
        circuit = tlim_circuit(12, num_steps=1)
        program = compiler.resolve_program(circuit)
        assert compiler.resolve_program(program) is program
        assert compiler.resolve_program(tlim_circuit(12, num_steps=1)) \
            is program

    def test_named_benchmark_cached(self):
        compiler = CellCompiler()
        first = compiler.resolve_program("TLIM-32")
        second = compiler.resolve_program("tlim-32")
        assert first is second

    def test_negative_seed_rejected(self, small_simulator):
        with pytest.raises(ConfigurationError, match="non-negative"):
            small_simulator.simulate("TLIM-32", design="original", seed=-5)

    def test_circuit_too_large_rejected(self, small_simulator):
        with pytest.raises(ConfigurationError):
            small_simulator.simulate(tlim_circuit(40, num_steps=1),
                                     design="original")

    def test_invalid_input_type(self, small_simulator):
        with pytest.raises(ConfigurationError):
            small_simulator.simulate(42, design="original")


class TestStudyComparisons:
    def test_runner_aggregates(self):
        depth = design_means(
            ["ideal"], num_runs=2,
            system=SystemConfig(data_qubits_per_node=16,
                                comm_qubits_per_node=4,
                                buffer_qubits_per_node=4))
        assert depth["ideal"].count == 2

    def test_design_comparison(self):
        depth = design_means(
            ["sync_buf", "async_buf", "ideal"], num_runs=2,
            system=SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=6,
                                buffer_qubits_per_node=6),
        )
        assert depth["sync_buf"].mean >= depth["ideal"].mean
        assert 1.0 - depth["async_buf"].mean / depth["sync_buf"].mean > -0.5

    def test_comm_qubit_sweep(self):
        study = Study(
            benchmarks="TLIM-32", designs=["async_buf", "ideal"], num_runs=1,
            axes=[Axis(("comm_qubits_per_node", "buffer_qubits_per_node"),
                       [(4, 4), (8, 8)])],
            system=SystemConfig(data_qubits_per_node=16,
                                comm_qubits_per_node=4,
                                buffer_qubits_per_node=4),
        )
        depth = study.run().aggregate(
            "depth", by=["comm_qubits_per_node", "design"])
        assert {count for count, _ in depth} == {4, 8}
        more = depth[(8, "async_buf")].mean
        fewer = depth[(4, "async_buf")].mean
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

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table_reports(self):
        # Table II, printed from the GateTimes / GateFidelities defaults.
        assert table2_report() == (
            "Name                  Latency  Fidelity\n"
            "--------------------  -------  --------\n"
            "1Q gates              0.1      99.99%  \n"
            "Local CNOT gates      1.0      99.90%  \n"
            "Measurement           5.0      99.80%  \n"
            "EPR pair preparation  10.0     99.00%  "
        )
        table1 = table1_report(
            {"X": {"qubits": 4, "local_2q": 3, "remote_2q": 1,
                   "single_q": 2, "depth": 5}},
            paper_values={"X": {"local_2q": 3, "remote_2q": 1, "single_q": 2,
                                "depth": 5}},
        )
        assert "(paper)" in table1

    def test_comparison_report(self):
        panel = HAND_MADE.filter(benchmark="A")
        assert comparison_report(panel, metric="depth") == (
            "A — depth\n"
            "Design    Mean   Std   Relative to ideal\n"
            "--------  -----  ----  -----------------\n"
            "original  33.00  4.24  3.000            \n"
            "ideal     11.00  0.00  1.000            "
        )
        assert comparison_report(panel, metric="fidelity") == (
            "A — fidelity\n"
            "Design    Mean    Std     Relative to ideal\n"
            "--------  ------  ------  -----------------\n"
            "original  0.6000  0.1414  0.750            \n"
            "ideal     0.8000  0.0000  1.000            "
        )
        # Without an ideal run there is nothing to be relative to.
        assert comparison_report(panel.filter(design="original")).endswith(
            "original  33.00  4.24  nan              ")
        with pytest.raises(ValueError):
            comparison_report(panel, metric="volume")
        assert relative_depth_report(HAND_MADE) == (
            "Benchmark  original  ideal\n"
            "---------  --------  -----\n"
            "A          3.00      1.00 \n"
            "B          2.00      1.00 "
        )
        assert comparison_report(ResultSet([])) == "(no results)"
        assert relative_depth_report(ResultSet([])) == "(no results)"

    def test_design_summary_from_results(self, small_simulator):
        circuit = tlim_circuit(12, num_steps=1)
        results = [small_simulator.simulate(circuit, design="async_buf", seed=s)
                   for s in (1, 2)]
        runs = ResultSet([RunRecord.from_execution_result(result)
                          for result in results])
        assert runs.designs() == ["async_buf"]
        depth = runs.aggregate("depth", by="design")["async_buf"]
        assert depth.count == 2
        assert depth.mean > 0
        assert depth.mean == pytest.approx(
            sum(result.makespan for result in results) / 2)
        fidelity = runs.aggregate("fidelity")[()]
        assert fidelity.minimum == min(result.fidelity for result in results)
        with pytest.raises(ConfigurationError):
            ResultSet([]).aggregate("depth")

    def test_reports_reject_mixed_groups(self):
        # Averaging across benchmarks or system variants is meaningless.
        with pytest.raises(ConfigurationError, match="benchmark"):
            comparison_report(HAND_MADE)
        with pytest.raises(ConfigurationError, match="benchmark"):
            sweep_report(HAND_MADE)
        variants = ResultSet([
            record("A", "ideal", 0, 11.0, 0.8, comm_qubits_per_node=4),
            record("A", "ideal", 0, 10.0, 0.8, comm_qubits_per_node=8),
        ])
        with pytest.raises(ConfigurationError, match="comm_qubits_per_node"):
            comparison_report(variants)
        with pytest.raises(ConfigurationError, match="comm_qubits_per_node"):
            relative_depth_report(variants)
        for panel in variants.group_by("comm_qubits_per_node").values():
            assert comparison_report(panel).startswith("A — depth\n")


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
