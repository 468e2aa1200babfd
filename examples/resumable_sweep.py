"""Resumable sweeps: durable run stores, interruption, and recovery.

Runs one study four ways to demonstrate the store life-cycle:

1. an *interrupted* invocation that persists only its first chunks
   (``max_chunks`` stands in for a kill signal — a real ``kill -9`` leaves
   the store in exactly the same state),
2. a ``status``-style inspection of the half-finished store,
3. a *resuming* invocation that executes only the missing chunks, and
4. the uninterrupted in-memory reference the resumed result must match
   **byte for byte**.

The equivalent command-line session:

    python -m repro sweep --benchmark TLIM-32 --design ideal --design original \\
        --runs 6 --store runs/demo --store-chunk-size 2 --max-chunks 2
    python -m repro status --store runs/demo
    python -m repro sweep --benchmark TLIM-32 --design ideal --design original \\
        --runs 6 --store runs/demo --resume --out demo.json

Run with:  python examples/resumable_sweep.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import ResultSet, RunStore, Study, aggregate_stream
from repro.analysis import store_status_report

NUM_RUNS = max(int(os.environ.get("REPRO_RUNS", 6)), 2)


def make_study() -> Study:
    """A fresh study per invocation, as separate processes would build it."""
    return Study(benchmarks="TLIM-32", designs=["ideal", "original"],
                 num_runs=NUM_RUNS, base_seed=1, name="resumable-demo")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="resumable-sweep-"))
    store = workdir / "store"

    # 1. Start the sweep, "crashing" after two chunks are durable.
    print("step 1 — interrupted invocation (2 chunks, then stop)")
    with make_study() as study:
        partial = study.run(store=store, store_chunk_size=2, max_chunks=2,
                            progress=lambda e: print(
                                f"  chunks {e.done_chunks}/{e.total_chunks}  "
                                f"runs {e.done_tasks}/{e.total_tasks}"))
    print(f"  partial result holds {len(partial)} of "
          f"{RunStore.load(store).summary()['total_tasks']} runs\n")

    # 2. Inspect the half-finished store (what `repro status` prints).
    print("step 2 — store status")
    print("  " + store_status_report(store).replace("\n", "\n  ") + "\n")

    # 3. Resume: only the chunks missing from the manifest execute.
    print("step 3 — resuming invocation")
    with make_study() as study:
        resumed = study.run(store=store, progress=lambda e: print(
            f"  chunks {e.done_chunks}/{e.total_chunks}"
            f"  ({e.resumed_chunks} resumed from the store)"))
    print()

    # 4. The interrupted-then-resumed sweep equals the uninterrupted one.
    print("step 4 — byte-identity check")
    with make_study() as study:
        uninterrupted = study.run()
    assert resumed.to_json() == uninterrupted.to_json()
    assert ResultSet.from_store(store).to_json() == uninterrupted.to_json()
    print("  resumed result is byte-identical to the uninterrupted run")

    # Bonus: aggregate the store without materialising its records.
    stats = aggregate_stream(store, "depth", by="design")
    for design, summary in stats.items():
        print(f"  {design:9s} depth {summary.mean:7.2f} ± {summary.std:.2f}")
    print(f"\nstore kept at {store} — delete when done, or point "
          f"`python -m repro status --store` at it.")


if __name__ == "__main__":
    main()
