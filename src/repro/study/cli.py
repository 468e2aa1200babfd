"""``python -m repro`` — run studies from the command line.

Subcommands
-----------
``run``
    Execute one benchmarks × designs study and write the ResultSet::

        python -m repro run --benchmark QAOA-r4-16 --runs 2 --out /tmp/rs.json

``sweep``
    Execute a study with extra axes, from flags or a JSON spec file::

        python -m repro sweep --benchmark QAOA-r8-32 \\
            --axis comm_qubits_per_node,buffer_qubits_per_node=10:10,15:15,20:20
        python -m repro sweep --spec study.json --out results.json

    With ``--store DIR`` results stream to a durable run store as chunks
    complete, and re-running the identical command *resumes* — chunks the
    store already holds are skipped, and the final output is byte-identical
    to an uninterrupted run::

        python -m repro sweep --spec study.json --store runs/fig5
        # ... killed mid-way ...
        python -m repro sweep --spec study.json --store runs/fig5  # resumes

``status``
    Summarise a run store's manifest (progress, benchmarks, fingerprint)::

        python -m repro status --store runs/fig5

``cache``
    Inspect or clear a persistent compile cache (``--cache-dir`` on the
    study commands, or the ``REPRO_CACHE_DIR`` environment variable)::

        python -m repro cache stats --cache-dir ~/.cache/repro
        python -m repro cache clear --cache-dir ~/.cache/repro

``serve``
    Run the long-lived study service: an HTTP job queue over a durable
    data root (see :mod:`repro.service` and ``docs/service.md``)::

        python -m repro serve --data-root /var/lib/repro --port 8765

``chaos``
    Run the chaos soak: seeded random fault schedules (``REPRO_FAULTS``
    failpoints; see ``docs/robustness.md``) over a store run on a process
    pool and a service job, each byte-compared against a serial
    baseline::

        python -m repro chaos --schedules 3 --seed 9 --out soak_report.json

    ``run``/``sweep``/``serve`` also accept ``--faults SPEC``
    / ``--faults-seed S`` directly to arm a single deterministic fault
    schedule for one invocation.

``submit`` / ``jobs`` / ``job`` / ``cancel`` / ``fetch``
    The client side of the service — submit a spec file as a job, list
    jobs (with per-client quota accounting), inspect one job's state and
    progress, cancel it cooperatively, and fetch finished results::

        python -m repro submit --spec study.json --wait
        python -m repro jobs
        python -m repro job job-000001
        python -m repro fetch job-000001 --format csv --out results.csv

    The service URL defaults to ``$REPRO_SERVICE_URL`` (else the local
    daemon's default port); the tenant name to ``$REPRO_CLIENT``.

``list-benchmarks`` / ``list-designs`` / ``list-partitioners`` / ``list-topologies``
    Show the registered benchmark suite, the paper's designs, the pluggable
    partitioning strategies, and the interconnect topologies.

Axis syntax: ``field=v1,v2,v3`` for one field, or
``fieldA,fieldB=a1:b1,a2:b2`` for fields swept together (zipped).  Values
are parsed as JSON scalars where possible (``0.4`` → float, ``10`` → int);
registry-name axes stay strings, e.g.
``--axis partition_method=multilevel,spectral --axis topology=all_to_all,ring``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Sequence, TextIO

from repro.analysis.report import format_table, store_status_report, summary_report
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.config import SystemConfig
from repro.engine.backends import list_backends
from repro.engine.cache import (
    CACHE_ENV_VAR,
    PersistentArtifactCache,
    default_cache,
    resolve_cache_dir,
)
from repro.exceptions import ReproError, SpecValidationError
from repro.hardware.topology import TOPOLOGIES, list_topologies
from repro.partitioning.registry import PARTITIONERS, list_partitioners
from repro.runtime.designs import DESIGNS, list_designs
from repro.study.grid import Axis
from repro.study.results import ResultSet
from repro.study.store import ProgressEvent, RunStore
from repro.study.study import Study

__all__ = ["main", "build_parser", "parse_axis"]


def parse_axis(text: str) -> Axis:
    """Parse one ``--axis`` argument into an :class:`Axis`."""
    if "=" not in text:
        raise ValueError(
            f"axis {text!r} must look like field=v1,v2 "
            f"or fieldA,fieldB=a1:b1,a2:b2"
        )
    fields_part, values_part = text.split("=", 1)
    fields = [f.strip() for f in fields_part.split(",") if f.strip()]
    if not fields or not values_part.strip():
        raise ValueError(f"axis {text!r} needs fields and values")
    points: List[Any] = []
    for chunk in values_part.split(","):
        entries = [_parse_scalar(v) for v in chunk.split(":")]
        if len(fields) == 1:
            if len(entries) != 1:
                raise ValueError(
                    f"axis {text!r}: single-field points take one value each"
                )
            points.append(entries[0])
        else:
            if len(entries) != len(fields):
                raise ValueError(
                    f"axis {text!r}: point {chunk!r} has {len(entries)} "
                    f"entries for {len(fields)} fields"
                )
            points.append(tuple(entries))
    return Axis(fields if len(fields) > 1 else fields[0], points)


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _add_study_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", "-b", action="append", default=None,
                        metavar="NAME",
                        help="benchmark to run (repeatable); Table I names or "
                             "family names like TLIM-16 / QAOA-r4-16 / QFT-16")
    parser.add_argument("--design", "-d", action="append", default=None,
                        metavar="NAME",
                        help="design to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=None, metavar="N",
                        help="stochastic repetitions per cell (default 3)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="seed of the first repetition (default 1)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help=f"execution backend ({', '.join(list_backends())}; "
                             f"default: $REPRO_BACKEND or serial)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="QPU node count (default 2)")
    parser.add_argument("--data-qubits", type=int, default=None, metavar="N",
                        help="data qubits per node (default 16)")
    parser.add_argument("--comm-qubits", type=int, default=None, metavar="N",
                        help="communication qubits per node (default 10)")
    parser.add_argument("--buffer-qubits", type=int, default=None, metavar="N",
                        help="buffer qubits per node (default 10)")
    parser.add_argument("--psucc", type=float, default=None, metavar="P",
                        help="per-attempt EPR success probability (default 0.4)")
    parser.add_argument("--partition-method", default=None, metavar="NAME",
                        help="partitioning strategy (see list-partitioners; "
                             "default multilevel)")
    parser.add_argument("--topology", default=None, metavar="NAME",
                        help="interconnect topology (see list-topologies; "
                             "default all_to_all)")
    parser.add_argument("--partition-seed", type=int, default=None, metavar="S",
                        help="graph-partitioner seed (default 0)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent compile-cache directory: compiled "
                             "artifacts are pickled there keyed by their "
                             "configuration fingerprints, so a later run of "
                             "an overlapping study skips compilation "
                             f"(default: ${CACHE_ENV_VAR} if set, else "
                             "in-memory only)")
    parser.add_argument("--out", "-o", default=None, metavar="PATH",
                        help="write the ResultSet as JSON (or CSV if the "
                             "path ends in .csv)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="durable run store directory: results stream "
                             "to append-only shards as chunks complete, and "
                             "re-running the same study against the same "
                             "store resumes, skipping completed chunks")
    parser.add_argument("--resume", action="store_true",
                        help="require --store to already hold a started "
                             "study (guards against a typo'd store path "
                             "silently starting from scratch)")
    parser.add_argument("--max-chunks", type=int, default=None, metavar="N",
                        help="execute at most N new chunks this invocation, "
                             "then stop; with --store the progress is kept "
                             "and the next invocation continues")
    parser.add_argument("--store-chunk-size", type=int, default=None,
                        metavar="N",
                        help="seeds per store chunk for a fresh store "
                             "(default 32; an existing store keeps its "
                             "committed layout)")
    parser.add_argument("--json-progress", action="store_true",
                        help="emit one JSON progress object per completed "
                             "chunk on stdout (suppresses the summary "
                             "table)")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the summary table and progress line")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    from repro.faults import FAULTS_ENV_VAR, FAULTS_SEED_ENV_VAR

    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="arm deterministic failpoints, e.g. "
                             "'store.log.append:count=1;store.fsync:p=0.5' "
                             f"(default: ${FAULTS_ENV_VAR}; see "
                             f"docs/robustness.md for the site catalogue)")
    parser.add_argument("--faults-seed", type=int, default=None, metavar="S",
                        help="fault-schedule seed for exact replay "
                             f"(default: ${FAULTS_SEED_ENV_VAR} or 0)")


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    from repro.service.client import CLIENT_ENV_VAR, SERVICE_URL_ENV_VAR

    parser.add_argument("--url", default=None, metavar="URL",
                        help=f"service base URL (default: "
                             f"${SERVICE_URL_ENV_VAR} or the local daemon's "
                             f"default port)")
    parser.add_argument("--client", default=None, metavar="NAME",
                        help=f"tenant name sent as X-Client (default: "
                             f"${CLIENT_ENV_VAR} or 'anonymous')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run declarative DQC co-design studies "
                    "(benchmarks x designs x system parameters).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmarks x designs study")
    _add_study_options(run)
    _add_fault_options(run)

    sweep = sub.add_parser("sweep", help="run a study with extra sweep axes")
    _add_study_options(sweep)
    _add_fault_options(sweep)
    sweep.add_argument("--axis", "-a", action="append", default=None,
                       metavar="FIELD=V1,V2",
                       help="sweep axis (repeatable); zip fields with "
                            "fieldA,fieldB=a1:b1,a2:b2")
    sweep.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON study spec file (flags override its "
                            "runs/seed/backend)")

    cache = sub.add_parser(
        "cache", help="inspect or clear a persistent compile cache")
    cache.add_argument("action", choices=("stats", "show", "clear"),
                       help="stats: entry/byte totals; show: one line per "
                            "cached artifact; clear: delete every entry")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: $" + CACHE_ENV_VAR + ")")
    cache.add_argument("--json", action="store_true",
                       help="print stats as JSON instead of a table")

    status = sub.add_parser(
        "status", help="summarise a run store's manifest")
    status.add_argument("--store", required=True, metavar="DIR",
                        help="run store directory to inspect")
    status.add_argument("--json", action="store_true",
                        help="print the summary as JSON instead of a table")

    serve = sub.add_parser(
        "serve", help="run the long-lived study service daemon")
    serve.add_argument("--data-root", required=True, metavar="DIR",
                       help="service state directory: jobs journal, one run "
                            "store per plan, and the shared compile cache")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="bind port (default 8765; 0 picks a free port)")
    serve.add_argument("--concurrency", type=int, default=1, metavar="N",
                       help="jobs run at once (default 1; studies already "
                            "parallelise inside a job via --backend)")
    serve.add_argument("--max-jobs-per-client", type=int, default=16,
                       metavar="N",
                       help="active (queued+running) jobs allowed per "
                            "X-Client tenant (default 16)")
    serve.add_argument("--backend", default=None, metavar="NAME",
                       help=f"execution backend for every job "
                            f"({', '.join(list_backends())}; default: "
                            f"$REPRO_BACKEND or serial)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared persistent compile cache (default: "
                            "<data-root>/cache)")
    serve.add_argument("--store-chunk-size", type=int, default=None,
                       metavar="N",
                       help="seeds per store chunk for fresh job stores "
                            "(default 32)")
    serve.add_argument("--job-ttl", default=None, metavar="DUR",
                       help="garbage-collect done/failed/cancelled jobs "
                            "(and their orphaned stores) older than DUR "
                            "(e.g. 90s, 30m, 12h, 7d)")
    _add_fault_options(serve)

    chaos = sub.add_parser(
        "chaos", help="run the chaos soak: seeded random fault schedules "
                      "over the store and service layers, every "
                      "surviving run byte-compared to a serial baseline")
    chaos.add_argument("--schedules", type=int, default=None, metavar="N",
                       help="random fault schedules to run (default 3)")
    chaos.add_argument("--seed", type=int, default=None, metavar="S",
                       help="soak seed; the same seed replays the same "
                            "schedules exactly (default 9)")
    chaos.add_argument("--root", default=None, metavar="DIR",
                       help="working directory for stores, logs, and "
                            "per-schedule results (default: a temp dir, "
                            "removed afterwards)")
    chaos.add_argument("--keep", action="store_true",
                       help="keep the working directory for post-mortems")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON soak report to PATH (the CI "
                            "artifact)")
    chaos.add_argument("--phase-timeout", type=float, default=300.0,
                       metavar="S",
                       help="give up on one schedule's service phase after "
                            "S seconds (default 300)")
    chaos.add_argument("--quiet", "-q", action="store_true",
                       help="suppress per-schedule progress lines")

    submit = sub.add_parser(
        "submit", help="submit a study spec to the service as a job")
    _add_client_options(submit)
    submit.add_argument("--spec", required=True, metavar="FILE",
                        help="JSON study spec file to submit")
    submit.add_argument("--priority", type=int, default=0, metavar="N",
                        help="queue priority (higher runs first; default 0)")
    submit.add_argument("--wait", action="store_true",
                        help="wait until the job reaches a terminal state")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up waiting after S seconds (with --wait)")
    submit.add_argument("--json", action="store_true",
                        help="print the job as JSON instead of one line")

    jobs = sub.add_parser("jobs", help="list the service's jobs")
    _add_client_options(jobs)
    jobs.add_argument("--state", default=None, metavar="STATE",
                      help="filter by state (queued, running, done, failed, "
                           "cancelled)")
    jobs.add_argument("--json", action="store_true",
                      help="print the listing as JSON instead of a table")

    job = sub.add_parser("job", help="show one job's state and progress")
    _add_client_options(job)
    job.add_argument("id", help="job id (e.g. job-000001)")
    job.add_argument("--json", action="store_true",
                     help="print the full status as JSON")

    cancel = sub.add_parser(
        "cancel", help="cancel a job (cooperative; the store stays "
                       "resumable)")
    _add_client_options(cancel)
    cancel.add_argument("id", help="job id to cancel")

    fetch = sub.add_parser(
        "fetch", help="download a finished job's results from the service")
    _add_client_options(fetch)
    fetch.add_argument("id", help="job id to fetch")
    fetch.add_argument("--format", choices=("json", "csv"), default="json",
                       help="result serialisation (default json)")
    fetch.add_argument("--out", "-o", default=None, metavar="PATH",
                       help="write to PATH instead of stdout")

    bench = sub.add_parser(
        "bench", help="record and gate BENCH_*.json perf results against "
                      "an append-only history ledger")
    bench.add_argument("action", choices=("record", "check", "show"),
                       help="record: append the payloads' metrics to the "
                            "ledger; check: fail (exit 1) if a gated "
                            "metric regressed vs the rolling-median "
                            "baseline; show: print the recorded history")
    bench.add_argument("files", nargs="*", metavar="BENCH_JSON",
                       help="benchmark payloads (e.g. BENCH_runtime.json); "
                            "metrics are namespaced by file name")
    bench.add_argument("--ledger", default="BENCH_ledger.jsonl",
                       metavar="PATH",
                       help="history ledger file (default "
                            "BENCH_ledger.jsonl)")
    bench.add_argument("--window", type=int, default=None, metavar="N",
                       help="rolling-median window in runs (default 5)")
    bench.add_argument("--allowance", type=float, default=None, metavar="F",
                       help="fractional noise allowance around the "
                            "baseline (default 0.2 = 20%%)")
    bench.add_argument("--run-id", default=None, metavar="ID",
                       help="label recorded with the entry (e.g. the CI "
                            "run id; default: $GITHUB_RUN_ID if set)")
    bench.add_argument("--json", action="store_true",
                       help="print the outcome as JSON instead of text")

    sub.add_parser("list-benchmarks", help="show the registered benchmarks")
    sub.add_parser("list-designs", help="show the paper's designs")
    sub.add_parser("list-partitioners",
                   help="show the registered partitioning strategies")
    sub.add_parser("list-topologies",
                   help="show the registered interconnect topologies")
    return parser


# ----------------------------------------------------------------------
def _system_overrides(args: argparse.Namespace) -> dict:
    overrides = {
        "num_nodes": args.nodes,
        "data_qubits_per_node": args.data_qubits,
        "comm_qubits_per_node": args.comm_qubits,
        "buffer_qubits_per_node": args.buffer_qubits,
        "epr_success_probability": args.psucc,
        "partition_method": args.partition_method,
        "topology": args.topology,
    }
    return {key: value for key, value in overrides.items()
            if value is not None}


def _study_from_args(args: argparse.Namespace) -> Study:
    spec_path = getattr(args, "spec", None)
    axes = [parse_axis(text) for text in (getattr(args, "axis", None) or [])]
    if spec_path is not None:
        # Flags layer on top of the spec for quick what-if runs: overrides
        # are applied to the spec dictionary (a --benchmark / --design flag
        # replaces the spec's matching axis), then one Study is built.
        spec = json.loads(Path(spec_path).read_text())
        effective = dict(spec)
        spec_axes = list(spec.get("axes") or [])
        if args.benchmark:
            effective["benchmarks"] = args.benchmark
            spec_axes = [a for a in spec_axes
                         if list(a.get("fields", [])) != ["benchmark"]]
        if args.design:
            effective["designs"] = args.design
            spec_axes = [a for a in spec_axes
                         if list(a.get("fields", [])) != ["design"]]
        if args.runs is not None or args.seed is not None:
            # A seed axis would take precedence over num_runs/base_seed,
            # silently ignoring the flags; the flags replace it instead.
            spec_axes = [a for a in spec_axes
                         if list(a.get("fields", [])) != ["seed"]]
        effective["axes"] = [*spec_axes, *(a.to_spec() for a in axes)]
        if args.runs is not None:
            effective["num_runs"] = args.runs
        elif "num_runs" not in effective:
            effective["num_runs"] = 3  # match the flags path / --help default
        if args.seed is not None:
            effective["base_seed"] = args.seed
        if args.partition_seed is not None:
            effective["partition_seed"] = args.partition_seed
        overrides = _system_overrides(args)
        if overrides:
            effective["system"] = {**(spec.get("system") or {}), **overrides}
        return Study.from_spec(effective, backend=args.backend,
                               cache_dir=args.cache_dir)
    if not args.benchmark and not any(a.fields == ("benchmark",)
                                      for a in axes):
        raise ReproError("no benchmark given (use --benchmark, an "
                         "--axis benchmark=..., or --spec)")
    from dataclasses import replace
    overrides = _system_overrides(args)
    return Study(
        benchmarks=args.benchmark,
        designs=args.design,
        axes=axes,
        num_runs=args.runs if args.runs is not None else 3,
        base_seed=args.seed if args.seed is not None else 1,
        system=(replace(SystemConfig(), **overrides) if overrides
                else SystemConfig()),
        partition_seed=args.partition_seed or 0,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )


def _write_output(results: ResultSet, path: str) -> None:
    if path.endswith(".csv"):
        results.to_csv(path)
    else:
        results.to_json(path)


class _ProgressLine:
    """Render progress events as a live line (TTY) or a sparse log.

    A terminal gets a single carriage-return-updated line; a pipe (CI log)
    gets the first event, every tenth, and the last, so long sweeps do not
    flood the log with one line per chunk.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._width = 0
        self._events = 0

    def __call__(self, event: ProgressEvent) -> None:
        line = (f"chunks {event.done_chunks}/{event.total_chunks}"
                f"  runs {event.done_tasks}/{event.total_tasks}")
        if event.runs_per_second > 0:
            line += f"  {event.runs_per_second:.1f} runs/s"
        if event.resumed_chunks:
            line += f"  ({event.resumed_chunks} chunks resumed)"
        self._events += 1
        if self._tty:
            self._width = max(self._width, len(line))
            print("\r" + line.ljust(self._width), end="",
                  file=self._stream, flush=True)
        elif self._events == 1 or self._events % 10 == 0 or event.complete:
            print(line, file=self._stream, flush=True)

    def close(self) -> None:
        """Terminate the live line so later output starts on a fresh row."""
        if self._tty and self._width:
            print(file=self._stream)
            self._width = 0


def _json_progress(event: ProgressEvent) -> None:
    print(json.dumps(event.to_dict()), flush=True)


def _cmd_run(args: argparse.Namespace) -> int:
    store_path = getattr(args, "store", None)
    if args.resume:
        if store_path is None:
            raise ReproError("--resume needs --store DIR")
        if not RunStore(store_path).is_started:
            raise ReproError(
                f"--resume: {store_path} holds no started study; drop "
                f"--resume to start one, or check the store path"
            )
    if args.max_chunks is not None and args.max_chunks < 0:
        raise ReproError("--max-chunks cannot be negative")
    study = _study_from_args(args)
    plan = study.plan()
    store = (RunStore(store_path, chunk_size=args.store_chunk_size)
             if store_path is not None else None)
    # Only runs that persist or stop early draw the progress line.
    streamed = store is not None or args.max_chunks is not None
    line: Optional[_ProgressLine] = None
    progress = None
    if args.json_progress:
        progress = _json_progress
    elif streamed and not args.quiet:
        line = _ProgressLine()
        progress = line
    try:
        results = study.run(plan, store=store, progress=progress,
                            max_chunks=args.max_chunks,
                            store_chunk_size=args.store_chunk_size)
    except KeyboardInterrupt:
        if store is not None:
            print(f"repro: interrupted — completed chunks are durable in "
                  f"{store_path}; re-run the same command to resume",
                  file=sys.stderr)
        return 130
    finally:
        # Terminate the live progress line on every exit path (including
        # errors) so diagnostics never append to a half-drawn row.
        if line is not None:
            line.close()
        study.close()
    if args.out:
        _write_output(results, args.out)
    if not args.quiet and not args.json_progress:
        print(f"study: {len(plan)} cells, {plan.num_tasks} runs, "
              f"{len(plan.systems())} system configuration(s)")
        print(summary_report(results))
        if args.out:
            print(f"written: {args.out}")
    if store is not None and not store.is_complete:
        summary = store.summary()
        print(f"repro: store {store_path} is at "
              f"{summary['done_chunks']}/{summary['total_chunks']} chunks; "
              f"re-run the same command to resume", file=sys.stderr)
    if isinstance(study.cache, PersistentArtifactCache):
        stats = study.cache.stats()
        print(f"compile cache: hits={stats['hits']} "
              f"misses={stats['misses']} "
              f"hit_rate={stats['hit_rate']:.2f} "
              f"disk_entries={stats['disk_entries']} "
              f"dir={study.cache.directory}", file=sys.stderr)
    return 0


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_duration(text: str) -> float:
    """Parse ``"90"``/``"90s"``/``"30m"``/``"12h"``/``"7d"`` into seconds."""
    text = str(text).strip().lower()
    scale = 1.0
    if text and text[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ReproError(
            f"cannot parse duration {text!r}; use e.g. 90s, 30m, 12h, 7d"
        ) from None
    if seconds < 0:
        raise ReproError("durations cannot be negative")
    return seconds


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.daemon import DEFAULT_PORT, ServiceConfig, StudyDaemon

    config = ServiceConfig(
        data_root=args.data_root,
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        concurrency=args.concurrency,
        max_jobs_per_client=args.max_jobs_per_client,
        backend=args.backend,
        cache_dir=args.cache_dir,
        store_chunk_size=args.store_chunk_size,
        job_ttl=(_parse_duration(args.job_ttl)
                 if args.job_ttl is not None else None),
    )
    daemon = StudyDaemon(config)
    daemon.start()
    # `kill <pid>` should wind down like Ctrl-C: running jobs re-queue and
    # resume on the next start (kill -9 skips this and still recovers).
    def _sigterm(_signo, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(f"repro service listening on {daemon.address} "
          f"(data root: {args.data_root})", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
        print("repro service stopped; interrupted jobs re-queue on the "
              "next serve", file=sys.stderr)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url, client=args.client)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = json.loads(Path(args.spec).read_text())
    client = _service_client(args)
    job = client.submit(spec, priority=args.priority)
    if args.json and not args.wait:
        print(json.dumps(job, indent=2))
    else:
        print(f"submitted {job['id']} (state {job['state']}, "
              f"{job['total_tasks']} runs, priority {job['priority']})")
    if not args.wait:
        return 0
    status = client.wait(job["id"], timeout=args.timeout)
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        line = f"{status['id']}: {status['state']}"
        if status.get("error"):
            line += f" — {status['error']}"
        print(line)
    return 0 if status["state"] == "done" else 1


def _ellipsize(text: Optional[str], width: int = 32) -> str:
    if not text:
        return ""
    return text if len(text) <= width else text[: width - 1] + "…"


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _service_client(args)
    listing = client.jobs(state=args.state)
    if args.json:
        print(json.dumps(listing, indent=2))
        return 0
    health = client.health()
    print(f"service: {health.get('queue_depth', 0)} queued, "
          f"{health.get('running', 0)} running, "
          f"{health.get('done', 0)} done")
    rows = [[job["id"], job["state"], job["client"], job["priority"],
             job["total_tasks"], job["requeues"],
             _ellipsize(job.get("last_failure")), job.get("name") or ""]
            for job in listing["jobs"]]
    if rows:
        print(format_table(
            ["id", "state", "client", "priority", "runs", "requeues",
             "last failure", "name"], rows))
    else:
        print("no jobs")
    quota = listing["quota"]
    print(f"\nclient {quota['client']}: {quota['active']}/{quota['limit']} "
          f"active job(s)")
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    status = _service_client(args).job(args.id)
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    rows = [[key, status.get(key)] for key in
            ("id", "state", "client", "priority", "cells", "total_tasks",
             "requeues", "last_failure", "store", "error")
            if status.get(key) is not None]
    print(format_table(["field", "value"], rows))
    latest = (status.get("progress") or {}).get("latest")
    if latest:
        print(f"\nprogress: chunks {latest['done_chunks']}"
              f"/{latest['total_chunks']}  runs {latest['done_tasks']}"
              f"/{latest['total_tasks']}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    result = _service_client(args).cancel(args.id)
    print(f"{result['id']}: {result['state']}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    text = _service_client(args).results(args.id, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text)
        print(f"written: {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import DEFAULT_SCHEDULES, DEFAULT_SEED, run_chaos

    report = run_chaos(
        schedules=(args.schedules if args.schedules is not None
                   else DEFAULT_SCHEDULES),
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        root=Path(args.root) if args.root else None,
        keep=args.keep,
        out=Path(args.out) if args.out else None,
        phase_timeout=args.phase_timeout,
        quiet=args.quiet,
    )
    sites = report["sites_covered"]
    layers = report["layers_covered"]
    verdict = "byte-identical" if report["identical"] else "DIVERGED"
    print(f"chaos soak (seed {report['seed']}): "
          f"{len(report['schedules'])} schedule(s), {len(sites)} fault "
          f"site(s) across {len(layers)} layer(s) — {verdict}")
    if args.out:
        print(f"report: {args.out}")
    return 0 if report["identical"] else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = resolve_cache_dir(args.cache_dir)
    if directory is None:
        raise ReproError(
            f"no cache directory given (use --cache-dir or set "
            f"${CACHE_ENV_VAR})"
        )
    cache = PersistentArtifactCache(directory)
    if args.action == "clear":
        removed = cache.disk_count()
        cache.clear()
        print(f"cleared {removed} cached artifact(s) from {directory}")
        return 0
    if args.action == "show":
        rows = [[namespace, key[:16], size, f"{mtime:.0f}"]
                for namespace, key, size, mtime in cache.disk_entries()]
        if rows:
            print(format_table(["namespace", "fingerprint", "bytes", "mtime"],
                               rows))
        else:
            print(f"cache at {directory} is empty")
        return 0
    summary = {
        "directory": str(directory),
        "version": cache.version,
        "disk_entries": cache.disk_count(),
        "disk_bytes": cache.disk_bytes(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_table(
            ["field", "value"],
            [[key, value] for key, value in summary.items()],
        ))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    store = RunStore.load(args.store)
    if args.json:
        print(json.dumps(store.summary(), indent=2))
    else:
        print(store_status_report(store))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.ledger import (
        DEFAULT_ALLOWANCE, DEFAULT_WINDOW, BenchLedger, check_metrics,
        classify_metric, load_bench_file, unmatched_namespaces,
    )

    ledger = BenchLedger(args.ledger)
    window = args.window if args.window is not None else DEFAULT_WINDOW
    allowance = (args.allowance if args.allowance is not None
                 else DEFAULT_ALLOWANCE)
    if args.action == "show":
        entries = ledger.entries()
        if args.json:
            print(json.dumps(entries, indent=2))
            return 0
        if not entries:
            print(f"bench ledger {ledger.path}: no recorded runs")
            return 0
        gated = sorted({metric for entry in entries
                        for metric in entry["metrics"]
                        if classify_metric(metric) is not None})
        rows = []
        for entry in entries:
            metrics = entry["metrics"]
            rows.append([
                time.strftime("%Y-%m-%d %H:%M",
                              time.localtime(entry.get("ts", 0))),
                entry.get("run") or "-",
                *(f"{metrics[m]:.6g}" if m in metrics else "-"
                  for m in gated),
            ])
        print(format_table(["recorded", "run", *gated], rows))
        return 0
    if not args.files:
        raise ReproError(f"bench {args.action} needs at least one "
                         f"BENCH_*.json payload")
    current: dict = {}
    for path in args.files:
        current.update(load_bench_file(path))
    if args.action == "record":
        run_id = args.run_id or os.environ.get("GITHUB_RUN_ID")
        entry = ledger.record(current, run=run_id)
        if args.json:
            print(json.dumps(entry, indent=2))
        else:
            print(f"bench ledger {ledger.path}: recorded "
                  f"{len(current)} metric(s) from {len(args.files)} "
                  f"payload(s) (history: {len(ledger.entries())} run(s))")
        return 0
    history = ledger.history()
    regressions = check_metrics(current, history, window=window,
                                allowance=allowance)
    unmatched = unmatched_namespaces(current, history)
    failed = bool(regressions) or unmatched is not None
    gated = [name for name in sorted(current)
             if classify_metric(name) is not None]
    unmatched_message = None
    if unmatched is not None:
        payload, recorded = unmatched
        unmatched_message = (
            f"no gated metric of payload namespace(s) {', '.join(payload)} "
            f"has recorded history; the ledger records namespace(s) "
            f"{', '.join(recorded)} (a namespace is the payload's file name "
            f"without BENCH_ and .json)")
    if args.json:
        print(json.dumps({
            "ok": not failed,
            "gated_metrics": gated,
            "history_runs": len(history),
            "unmatched": unmatched_message,
            "regressions": [
                {"metric": r.metric, "value": r.value,
                 "baseline": r.baseline, "direction": r.direction,
                 "ratio": r.ratio}
                for r in regressions
            ],
        }, indent=2))
    else:
        for regression in regressions:
            print(f"bench: REGRESSION {regression.describe()}",
                  file=sys.stderr)
        if unmatched_message is not None:
            print(f"bench: UNMATCHED {unmatched_message}", file=sys.stderr)
        print(f"bench ledger {ledger.path}: checked {len(gated)} gated "
              f"metric(s) against {len(history)} recorded run(s) "
              f"— {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


def _cmd_list_benchmarks() -> int:
    rows = []
    for name in list_benchmarks():
        spec = get_benchmark(name)
        rows.append([spec.name, spec.num_qubits, spec.description])
    print(format_table(["name", "qubits", "description"], rows))
    print("\nFamily names synthesise further sizes on demand: "
          "TLIM-<n>, QAOA-r<d>-<n>, QFT-<n> (e.g. QAOA-r4-16).")
    return 0


def _cmd_list_designs() -> int:
    rows = []
    for name in list_designs():
        spec = DESIGNS[name]
        rows.append([
            name,
            "yes" if spec.use_buffer else "no",
            spec.attempt_policy.name.lower(),
            "yes" if spec.adaptive_scheduling else "no",
            "yes" if spec.prefill_buffers else "no",
            "ideal" if spec.ideal else "",
        ])
    print(format_table(
        ["name", "buffers", "attempts", "adaptive", "pre-filled", "note"],
        rows,
    ))
    return 0


def _cmd_list_partitioners() -> int:
    rows = []
    for name in list_partitioners():
        partitioner = PARTITIONERS[name]
        rows.append([
            name,
            "any k" if partitioner.supports_k_way else "bisection",
            partitioner.description,
        ])
    print(format_table(["name", "blocks", "description"], rows))
    print("\nAliases: kl = kernighan_lin, fm = fiduccia_mattheyses. "
          "Register custom strategies via repro.api.register_partitioner().")
    return 0


def _cmd_list_topologies() -> int:
    rows = []
    for name in list_topologies():
        topology = TOPOLOGIES[name]
        try:
            links = topology.links(4)
            preview = ("all pairs" if links is None else
                       " ".join(f"{a}-{b}" for a, b in links))
        except ReproError:
            # Third-party topologies may be defined for specific node
            # counts only; the preview must not break the listing.
            preview = "n/a at 4 nodes"
        rows.append([name, preview, topology.description])
    print(format_table(["name", "links (4 nodes)", "description"], rows))
    print("\nFamily names synthesise meshes on demand: grid-RxC "
          "(e.g. grid-2x3 for 6 nodes). Register custom topologies via "
          "repro.api.register_topology().")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Arm failpoints first — from the explicit flags where the command
        # has them, else from $REPRO_FAULTS, so `repro serve` subprocesses
        # inherit a chaos schedule through their environment.  With
        # neither present every failpoint stays inert.
        from repro.faults import install_faults, install_faults_from_env

        if getattr(args, "faults", None):
            install_faults(args.faults,
                           seed=getattr(args, "faults_seed", None) or 0)
        else:
            install_faults_from_env()
        if args.command in ("run", "sweep"):
            return _cmd_run(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "job":
            return _cmd_job(args)
        if args.command == "cancel":
            return _cmd_cancel(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "list-benchmarks":
            return _cmd_list_benchmarks()
        if args.command == "list-designs":
            return _cmd_list_designs()
        if args.command == "list-partitioners":
            return _cmd_list_partitioners()
        if args.command == "list-topologies":
            return _cmd_list_topologies()
        parser.error(f"unknown command {args.command!r}")
    except (ReproError, ValueError, OSError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        _print_spec_diagnosis(error)
        return 2
    return 0


def _print_spec_diagnosis(error: Exception) -> None:
    """Surface the structured field/allowed payload of a spec error.

    Both a local :class:`SpecValidationError` and the service's 400
    response (a :class:`~repro.service.client.ServiceError` carrying the
    same payload) name the offending spec field and, where the set is
    known, the allowed values.
    """
    payload = None
    if isinstance(error, SpecValidationError):
        payload = error.to_dict()
    else:
        candidate = getattr(error, "payload", None)
        if isinstance(candidate, dict) and candidate.get("error"):
            payload = candidate
    if not payload:
        return
    if payload.get("field"):
        print(f"repro: spec field: {payload['field']}", file=sys.stderr)
    if payload.get("allowed"):
        allowed = ", ".join(str(value) for value in payload["allowed"])
        print(f"repro: allowed: {allowed}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
