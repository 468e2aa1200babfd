"""Engine benchmark — compile-cache speedup and parallel backend wall-clock.

Measures the two wins of the compile-once / execute-many engine:

* **compile cache** — wall-clock of compiling the benchmarks × designs grid
  cold versus re-compiling it against a warm artifact cache (the situation
  of every repetition after the first, and of sweep steps that share a
  cache),
* **persistent compile cache** — wall-clock of a *fresh* cache instance
  compiling the grid against a populated ``--cache-dir`` /
  ``REPRO_CACHE_DIR`` directory (the cross-process situation: a new CLI
  invocation starting with compilation already paid), asserting the second
  instance compiles with zero misses, and
* **execution backends** — wall-clock of replaying the full seed × cell
  grid through :class:`SerialBackend` versus :class:`ProcessPoolBackend`,
  asserting the results are identical.

Emits ``BENCH_engine.json`` next to the repository root so runs can be
archived and compared.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import emit, repetitions
from repro.core import SystemConfig
from repro.engine import (
    ArtifactCache,
    CellCompiler,
    PersistentArtifactCache,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.backends import ExecutionTask
from repro.study import Study

BENCHMARKS = ("TLIM-32", "QAOA-r4-32")
DESIGNS = ("original", "async_buf", "adapt_buf", "init_buf")
SYSTEM = SystemConfig()
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _compile_grid(cache: ArtifactCache) -> float:
    compiler = CellCompiler(system=SYSTEM, cache=cache)
    start = time.perf_counter()
    for benchmark in BENCHMARKS:
        for design in DESIGNS:
            compiler.compile(benchmark, design)
    return time.perf_counter() - start


def test_engine_benchmark():
    """Time the compile cache and the execution backends, emit JSON."""
    num_runs = repetitions(default=3)

    # --- compile stage: cold vs warm cache -----------------------------
    cold_s = _compile_grid(ArtifactCache())
    warm_cache = ArtifactCache()
    _compile_grid(warm_cache)
    warm_s = _compile_grid(warm_cache)
    compile_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    # --- persistent cache: fresh instance against a populated dir ------
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        persist_cold_s = _compile_grid(PersistentArtifactCache(cache_dir))
        # A brand-new instance has an empty memory tier — every artifact
        # must come off disk, which is exactly what a new process pays.
        persist_warm_cache = PersistentArtifactCache(cache_dir)
        persist_warm_s = _compile_grid(persist_warm_cache)
        persist_stats = persist_warm_cache.stats()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    persist_speedup = (persist_cold_s / persist_warm_s if persist_warm_s > 0
                       else float("inf"))

    # --- execute stage: serial vs process pool -------------------------
    study = Study(benchmarks=list(BENCHMARKS), designs=list(DESIGNS),
                  num_runs=num_runs, base_seed=1, system=SYSTEM)
    cells = study.compile_plan()
    tasks = [ExecutionTask(cell, seed)
             for cell in cells for seed in study.seeds()]
    serial = SerialBackend()
    serial.execute(tasks)  # warm up (first-touch allocations)
    start = time.perf_counter()
    serial_results = serial.execute(tasks)
    serial_s = time.perf_counter() - start

    workers = min(4, os.cpu_count() or 1)
    with ProcessPoolBackend(max_workers=workers) as backend:
        # Warm the pool (worker spawn) outside the timed region with one
        # real task; an empty batch would return before creating workers.
        backend.execute(tasks[:1])
        start = time.perf_counter()
        process_results = backend.execute(tasks)
        process_s = time.perf_counter() - start

    assert len(serial_results) == len(process_results) == len(tasks)
    for serial_run, process_run in zip(serial_results, process_results):
        assert serial_run.makespan == process_run.makespan
        assert serial_run.fidelity == process_run.fidelity

    # --- report ---------------------------------------------------------
    payload = {
        "benchmarks": list(BENCHMARKS),
        "designs": list(DESIGNS),
        "num_runs": num_runs,
        "tasks": len(tasks),
        "compile": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": compile_speedup,
            "cache_stats": warm_cache.stats(),
        },
        "compile_persistent": {
            "cold_s": persist_cold_s,
            "warm_s": persist_warm_s,
            "speedup": persist_speedup,
            "cache_stats": persist_stats,
        },
        "execute": {
            "serial_s": serial_s,
            "process_s": process_s,
            "process_workers": workers,
            "speedup": serial_s / process_s if process_s > 0 else float("inf"),
            "identical_results": True,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "Engine — compile cache and backend wall-clock",
        "\n".join([
            f"grid: {len(BENCHMARKS)} benchmarks x {len(DESIGNS)} designs "
            f"x {num_runs} runs ({len(tasks)} tasks)",
            f"compile cold:   {cold_s * 1e3:8.1f} ms",
            f"compile warm:   {warm_s * 1e3:8.1f} ms  "
            f"(speedup {compile_speedup:.0f}x)",
            f"compile disk:   {persist_warm_s * 1e3:8.1f} ms  "
            f"(fresh instance, speedup {persist_speedup:.0f}x, "
            f"misses={persist_stats['misses']})",
            f"execute serial: {serial_s * 1e3:8.1f} ms",
            f"execute pool:   {process_s * 1e3:8.1f} ms  "
            f"({workers} workers, identical results)",
            f"written: {OUTPUT_PATH.name}",
        ]),
    )

    # The warm compile must be served from the cache, i.e. dramatically
    # cheaper than the cold compile.
    assert compile_speedup > 5
    # The fresh instance must compile nothing at all — every artifact comes
    # off disk (the cross-process contract of the persistent tier).
    assert persist_stats["misses"] == 0
    assert persist_stats["disk_hits"] > 0
