#!/usr/bin/env python3
"""Chaos soak runner — the CI entry point for ``repro chaos``.

Runs N seeded random fault schedules over the store and service layers
(a store run resumed on a two-worker process pool, and a job on a real
``repro serve`` daemon) and byte-compares every surviving run against a
clean serial baseline (see ``src/repro/faults/chaos.py`` and
``docs/robustness.md``).
Exits non-zero if any schedule diverges or fails to complete::

    python tools/chaos_soak.py --schedules 3 --seed 9 --out soak_report.json

Equivalent to ``python -m repro chaos`` with the same flags; this wrapper
only adds the ``src/`` path bootstrap so CI can invoke it from a bare
checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    from repro.study.cli import main as repro_main

    return repro_main(["chaos", *(argv if argv is not None
                                  else sys.argv[1:])])


if __name__ == "__main__":
    sys.exit(main())
