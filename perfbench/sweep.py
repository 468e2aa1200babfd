"""One sweep workload in a fresh process: the unit ``run.py`` times.

    python3 perfbench/sweep.py fig56-paper --seed 1 --out DIR [--trace]

Runs the workload's study (``spec.json``) against a jsonl run store in
``DIR/store``, then the analysis step of ``docs/reproduction.md``: load the
store, aggregate depth and fidelity by benchmark and design, serialise.
Then it resubmits the identical study against the completed store a few
times, sharing the compile cache, which is the store-read path.
``DIR/result.json`` gets monotonic timestamps, the results digest and, with
``--trace``, the spans.
Needs ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    grid = json.loads((HERE / "spec.json").read_text())[
        "workloads"][args.workload]["study"]

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        import_span = tracer.begin("import")
    from repro.study import ResultSet, Study
    if tracer is not None:
        tracer.end(import_span)
        tracer.install(layers.LAYER_TARGETS)

    store = args.out / "store"
    events = []

    def progress(event) -> None:
        events.append([time.monotonic(), event.done_chunks, event.done_tasks])

    def study(cache=None) -> Study:
        return Study(benchmarks=grid["benchmarks"], num_runs=grid["num_runs"],
                     base_seed=args.seed, axes=grid.get("axes"), cache=cache)

    first = study()
    first.run(store=store, progress=progress, store_format="jsonl")
    results = ResultSet.from_store(store)
    summary = {
        metric: {f"{bench} {design}": stats.mean for (bench, design), stats
                 in results.aggregate(metric, by=["benchmark", "design"])
                 .items()}
        for metric in ("depth", "fidelity")
    }
    text = results.to_json()
    (args.out / "results.json").write_text(text)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1))
    written = time.monotonic()

    resubmits, digests = [], set()
    for _ in range(grid["resubmits"]):
        started = time.monotonic()
        again = study(cache=first.cache).run(store=store).to_json()
        resubmits.append(time.monotonic() - started)
        digests.add(hashlib.sha256(again.encode()).hexdigest())

    log = [json.loads(line) for line in
           (store / "chunks.log").read_text().splitlines()]
    payload = {
        "events": events,
        "chunks": [[entry["id"], entry["cell"], entry["sha256"]]
                   for entry in log],
        "written": written,
        "results_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "resubmit_s": resubmits,
        "resubmit_sha256": sorted(digests),
        "end": time.monotonic(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        payload["trace"] = tracer.dump()
    (args.out / "result.json").write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
