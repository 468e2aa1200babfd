#!/usr/bin/env python3
"""Golden physics fixture: simulated depth, fidelity and EPR counts, pinned.

``tests/data/golden_physics.json`` holds ``ResultSet.to_json`` of a small
grid of paper configurations, one entry per group:

* ``fig56`` — TLIM-32, QAOA-r4-32, QAOA-r8-32 and QFT-32 × all six designs
  × 3 seeds on the paper's 2-node, 32-qubit system (Figs. 5 and 6);
* ``fig8`` — one 64-qubit cell (QAOA-r8-64 × adapt_buf) on the Sec. V-C
  system;
* ``ring`` — one cell (QAOA-r4-32 × async_buf) on a 3-node ``ring``
  interconnect;
* ``cutoff`` — one cell (QAOA-r8-32) of a *registered* design, ``init_buf``
  with ``buffer_cutoff=40.0``, on 4 communication and 40 buffer qubits per
  node: the buffer turns over slower than the cutoff, so links expire and
  every run differs from the same design without a cutoff;
* ``async16`` — one cell (QFT-32) of an ``async_groups=16`` design on 16
  communication qubits per node at psucc 0.1.  Its 16 attempt sub-groups
  have first completions 1..15 against a 10-unit cycle, and every run
  lasts past the first 128-attempt block of every pair, so it pins the
  entanglement process across block boundaries where successes of a new
  block land before the tail of the previous one.

``tests/test_golden_physics.py`` asserts the same bytes from the batched
core, the reference ``DesignExecutor`` (through a test-side backend), the
process backend and a run store.  Usage::

    python tools/golden_physics.py           # compare; exit 1 naming each group that differs
    python tools/golden_physics.py --write   # regenerate the fixture

Regenerating moves pinned paper numbers: do it only together with a
``CHANGES.md`` line that says which simulated floats moved and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import PAPER_64Q_SYSTEM, SystemConfig  # noqa: E402
from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule  # noqa: E402
from repro.runtime import designs as design_registry  # noqa: E402
from repro.study import ResultSet, Study  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "golden_physics.json"

SEEDS = 3
FIG56_BENCHMARKS = ["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"]
PAPER_DESIGNS = ["original", "sync_buf", "async_buf", "adapt_buf", "init_buf",
                 "ideal"]
CUTOFF_DESIGN = "golden_init_cutoff40"
CUTOFF_SYSTEM = SystemConfig(comm_qubits_per_node=4, buffer_qubits_per_node=40)
ASYNC16_DESIGN = "golden_async_g16"
ASYNC16_SYSTEM = SystemConfig(comm_qubits_per_node=16,
                              buffer_qubits_per_node=16,
                              epr_success_probability=0.1)


def _async16_spec():
    return design_registry.get_design("async_buf").with_overrides(
        name=ASYNC16_DESIGN, async_groups=16)


def async16_first_block_end() -> float:
    """Latest completion of any pair's first 128 attempts in ``async16``."""
    times = ASYNC16_SYSTEM.gate_times
    schedule = AttemptSchedule(
        num_pairs=ASYNC16_SYSTEM.comm_qubits_per_node,
        cycle_time=times.epr_generation_cycle,
        policy=AttemptPolicy.ASYNCHRONOUS, num_groups=16,
        stagger=times.local_cnot)
    return max(schedule.attempt_completion(pair, 127)
               for pair in range(schedule.num_pairs))


@contextmanager
def registered_cutoff_design() -> Iterator[None]:
    """Register the cutoff design for the duration of the block.

    Studies with ``designs=None`` run every registered design, so the
    registry is restored on exit instead of leaking into other callers.
    """
    spec = design_registry.get_design("init_buf").with_overrides(
        name=CUTOFF_DESIGN, buffer_cutoff=40.0)
    saved = (dict(design_registry.DESIGNS), list(design_registry.DESIGN_ORDER))
    design_registry.register_design(spec, overwrite=True)
    try:
        yield
    finally:
        design_registry.DESIGNS.clear()
        design_registry.DESIGNS.update(saved[0])
        design_registry.DESIGN_ORDER[:] = saved[1]


def golden_studies(backend=None) -> List[Tuple[str, Study]]:
    """The fixture's groups as ``(name, study)``, in fixture order."""
    ring = SystemConfig(num_nodes=3, topology="ring")
    return [
        ("fig56", Study(benchmarks=FIG56_BENCHMARKS,
                        designs=PAPER_DESIGNS,
                        num_runs=SEEDS, backend=backend)),
        ("fig8", Study(benchmarks="QAOA-r8-64", designs="adapt_buf",
                       num_runs=SEEDS, system=PAPER_64Q_SYSTEM,
                       backend=backend)),
        ("ring", Study(benchmarks="QAOA-r4-32", designs="async_buf",
                       num_runs=SEEDS, system=ring, backend=backend)),
        ("cutoff", Study(benchmarks="QAOA-r8-32", designs=CUTOFF_DESIGN,
                         num_runs=SEEDS, system=CUTOFF_SYSTEM,
                         backend=backend)),
        ("async16", Study(benchmarks="QFT-32", designs=[_async16_spec()],
                          num_runs=SEEDS, system=ASYNC16_SYSTEM,
                          backend=backend)),
    ]


def render(backend=None, store_root: Optional[Path] = None) -> Dict[str, str]:
    """``to_json`` text per group.

    With ``store_root`` every group runs into a run store under it, and the
    text is that of the set reloaded from the store.
    """
    texts: Dict[str, str] = {}
    with registered_cutoff_design():
        for name, study in golden_studies(backend):
            try:
                if store_root is None:
                    results = study.run()
                else:
                    path = Path(store_root) / name
                    study.run(store=path)
                    results = ResultSet.from_store(path)
            finally:
                study.close()
            texts[name] = results.to_json()
    return texts


def load_fixture(path: Path = FIXTURE) -> Dict[str, str]:
    """The fixture as ``to_json`` text per group."""
    groups = json.loads(path.read_text())["groups"]
    return {name: json.dumps(payload, indent=2) + "\n"
            for name, payload in groups.items()}


def check_async16_extent(text: str) -> None:
    """Fail unless every ``async16`` run outlasts the first attempt block."""
    bound = async16_first_block_end()
    depths = [record["depth"] for record in json.loads(text)["records"]]
    short = [depth for depth in depths if depth <= bound]
    if short:
        raise SystemExit(f"async16 runs end at {short}, inside the first "
                         f"128-attempt block (<= {bound})")


def write_fixture(texts: Dict[str, str], path: Path = FIXTURE) -> None:
    check_async16_extent(texts["async16"])
    groups = {name: json.loads(text) for name, text in texts.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "groups": groups}, indent=1)
                    + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the fixture from this checkout")
    args = parser.parse_args(argv)
    texts = render()
    if args.write:
        write_fixture(texts)
        print(f"wrote {FIXTURE.relative_to(ROOT)} "
              f"({sum(len(json.loads(t)['records']) for t in texts.values())}"
              f" records in {len(texts)} groups)")
        return 0
    golden = load_fixture()
    differing = [name for name in golden if texts.get(name) != golden[name]]
    for name in differing:
        print(f"group {name!r} differs from the golden fixture",
              file=sys.stderr)
    if not differing:
        print(f"all {len(golden)} groups match the golden fixture")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
