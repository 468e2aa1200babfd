"""Golden physics pins: simulated depth, fidelity and EPR counts.

``tests/data/golden_physics.json`` was written by ``tools/golden_physics.py
--write``.  Every execution core, backend and store shard format must
reproduce it byte for byte, so a change to the entanglement process or the
fidelity model cannot move a paper number without regenerating the fixture
(which needs the flag and a CHANGES.md line).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.engine.backends import ProcessPoolBackend
from repro.runtime import designs as design_registry
from repro.runtime.execmode import EXEC_ENV_VAR

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_physics.py"
_spec = importlib.util.spec_from_file_location("golden_physics_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = golden.load_fixture()


def assert_matches_golden(texts):
    assert list(texts) == list(GOLDEN)
    for name, text in texts.items():
        assert text == GOLDEN[name], f"group {name!r} moved off the golden"


@pytest.mark.parametrize("core", ["batched", "legacy", "vector"])
def test_every_core_reproduces_the_golden(monkeypatch, core):
    monkeypatch.setenv(EXEC_ENV_VAR, core)
    assert_matches_golden(golden.render())


def test_process_backend_reproduces_the_golden():
    backend = ProcessPoolBackend(max_workers=2)
    try:
        assert_matches_golden(golden.render(backend=backend))
    finally:
        backend.close()


@pytest.mark.parametrize("shard_format", ["jsonl", "npz"])
def test_store_shard_formats_reproduce_the_golden(tmp_path, shard_format):
    assert_matches_golden(golden.render(store_root=tmp_path,
                                        store_format=shard_format))


def test_golden_covers_the_paper_grid_and_the_edge_cells():
    groups = {name: json.loads(text)["records"]
              for name, text in GOLDEN.items()}
    fig56 = {(r["benchmark"], r["design"]) for r in groups["fig56"]}
    assert fig56 == {(b, d) for b in golden.FIG56_BENCHMARKS
                     for d in golden.PAPER_DESIGNS}
    assert all(len(records) == golden.SEEDS * (24 if name == "fig56" else 1)
               for name, records in groups.items())
    # Every async16 run outlasts the first 128-attempt block of every pair,
    # so the golden pins successes drawn across block boundaries.
    golden.check_async16_extent(GOLDEN["async16"])


def test_cutoff_registration_does_not_leak():
    before = list(design_registry.DESIGN_ORDER)
    with golden.registered_cutoff_design():
        assert golden.CUTOFF_DESIGN in design_registry.list_designs()
    assert design_registry.DESIGN_ORDER == before
    assert golden.CUTOFF_DESIGN not in design_registry.DESIGNS


def test_check_mode_exits_zero_on_a_matching_checkout(capsys):
    assert golden.main([]) == 0
    assert "all 5 groups match" in capsys.readouterr().out
