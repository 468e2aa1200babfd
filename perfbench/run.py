"""The repository benchmark: workloads timed from outside the program.

    python3 perfbench/run.py --workload fig56-paper --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src`` and
exits with status 2 when there is none.  Workloads (``spec.json``):

* ``fig56-paper``: the Fig. 5/6 grid, 1200 runs, one ``Study.run`` batch;
* ``service-jobs``: a ``python -m repro serve`` daemon and one closed-loop
  client submitting 40 small jobs, every 4th a resubmission;
* ``explore-grid``: a 216-cell design-space grid at 3 seeds per cell.  It
  is not in ``BENCHMARK.json``, so no regression is gated on it: its
  ``resubmit_p50_s`` spreads from run to run by more than any allowed
  bound on a shared host (``README.md``).  Run it by hand for per-layer
  compile figures.

Each run warms the machine's caches with one small untimed process, then
repeats the workload in fresh processes until ``--seconds`` have passed
(at least three times), computes every metric per repetition and reports
its mean over the repetitions (``end_to_end`` says why).  Every
repetition's outputs are checked: store chunk digests and the results
digest must equal the pins in ``pins.json`` for the default seed, and the
first repetition's for any other seed, so every seed's repetitions are
compared byte for byte.  A mismatching chunk or job, or a job not
``done``, is a failed operation.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones, with the names and units ``BENCHMARK.json`` declares.  ``--trace 1``
alternates untraced and traced repetitions; the traced ones run with the
wrappers of ``layers.py`` installed in the workload process (or the
daemon, through ``serve_traced.py``).  Human-readable lines
come first; the last line of standard output is the JSON result.
``--pin`` rewrites the default seed's digests in ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
PINS_PATH = HERE / "pins.json"
#: Metric names and units, as ``BENCHMARK.json`` at the checkout root
#: declares them; the output is printed in this order.
BENCHMARK_PATH = HERE.parent / "BENCHMARK.json"

#: Measured repetitions every run makes at least (with --trace 1, two
#: untraced and one traced), so each seed is checked at least three times.
MIN_REPS = 3
#: Untimed work in a fresh process before the first repetition: it imports
#: the program and runs a tiny study, so the first measured process does not
#: pay for the machine's cold file and code caches (the first process after
#: an idle spell runs up to 40% slower on a shared host).
WARM_UP = ("import repro.service.daemon, repro.study.cli\n"
           "from repro.study import Study\n"
           "Study(benchmarks='QFT-8', designs=['original', 'ideal'],"
           " num_runs=3).run()")
#: Wall-clock cap of one workload process or daemon.
CHILD_TIMEOUT_S = 150
#: How often a sweep process is moved to the next CPU (``run_rotated``).
ROTATE_S = 0.1


def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    declared = json.loads(BENCHMARK_PATH.read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, sample count)``; needs 11 samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {count}")
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def failed_ops(digests: Dict[str, Any], reference: Dict[str, Any]) -> int:
    """Failed operations of one repetition against the reference digests.

    Both map operation ids (store chunks, or jobs by position) under
    ``"ops"`` to digests; ``None`` marks an operation that failed outright.
    ``digests["outputs"]`` lists digests of whole outputs that must all
    equal ``reference["output"]``.  An operation fails when its digest is
    ``None``, missing or different; a wrong whole output fails every
    operation.
    """
    expected = reference["ops"]
    got = digests["ops"]
    if any(value != reference["output"] for value in digests["outputs"]):
        return len(expected)
    return sum(1 for op, digest in expected.items()
               if got.get(op) is None or got[op] != digest)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env(root: Path) -> Dict[str, str]:
    """The default program: no REPRO_* knobs, ``src`` on the path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_rotated(name: str, command: List[str], root: Path,
                log: Path) -> None:
    """Run the ``name`` process, moving it to the next CPU every ROTATE_S.

    On a shared VM each CPU flips between a fast and a ~1.7x slower state
    every second or so, independently of the other.  A single-threaded
    sweep process stays on one CPU (0-4 migrations in a 5-s repetition),
    so its speed is that one CPU's state, drawn afresh each repetition.
    Moving it round the CPUs averages their states, as the service
    daemon's worker thread does by itself (~15 migrations a second): in
    interleaved fig56-paper repetitions it halved the spread of wall time
    (coefficient of variation 0.14 -> 0.075) and cost ~2% of wall.  The
    mask is widened again at once, so the scheduler keeps every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    with open(log, "w") as err:
        child = subprocess.Popen(command, cwd=root, env=child_env(root),
                                 stdout=subprocess.DEVNULL, stderr=err)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    turn = 0
    try:
        while child.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{name} process ran past {CHILD_TIMEOUT_S} s")
            turn += 1
            try:
                os.sched_setaffinity(child.pid, {cpus[turn % len(cpus)]})
                os.sched_setaffinity(child.pid, cpus)
            except OSError:  # it has just exited
                pass
            time.sleep(ROTATE_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"{name} process failed:\n"
                           f"{log.read_text()[-3000:]}")


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def merge_traces(*traces: Dict[str, Any]) -> Dict[str, Any]:
    """One trace from several processes' traces, span ids kept distinct."""
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, int] = {}
    for offset, trace in enumerate(traces):
        shift = offset * 10 ** 9
        for span in trace["spans"]:
            span = dict(span, id=span["id"] + shift)
            if span["parent"] is not None:
                span["parent"] += shift
            spans.append(span)
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def cell_times(chunks: Sequence[Sequence[Any]],
               events: Sequence[Sequence[float]]) -> List[float]:
    """Per grid cell, the commit before its first chunk to its last commit.

    ``chunks`` are chunk-log lines ``[id, cell, digest]``; ``events`` the
    progress events ``[time, done_chunks, done_tasks]``.  The serial backend
    commits chunks in plan order, one progress event each after the opening
    one, so event i+1 is the commit of chunk-log line i.
    """
    cells: Dict[int, List[float]] = {}
    for (_, cell, _), before, after in zip(chunks, events, events[1:]):
        cells.setdefault(cell, [before[0], after[0]])[1] = after[0]
    return [end - start for start, end in cells.values()]


def sweep_rep(root: Path, work: Path, name: str, seed: int,
              traced: bool) -> Dict[str, Any]:
    """One sweep repetition in a fresh ``sweep.py`` process."""
    out = work / "sweep"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    command = [sys.executable, str(HERE / "sweep.py"), name,
               "--seed", str(seed), "--out", str(out)]
    if traced:
        command.append("--trace")
    spawned = time.monotonic()
    run_rotated(name, command, root, work / "sweep.log")
    result = json.loads((out / "result.json").read_text())
    events = result["events"]
    first = events[0][0]
    return {
        "setup_s": first - spawned,
        "wall_s": result["written"] - spawned,
        "runs_per_s": (events[-1][2] - events[0][2]) / (events[-1][0] - first),
        "chunks": [b[0] - a[0] for a, b in zip(events, events[1:])],
        "jobs": cell_times(result["chunks"], events),
        "resubmits": result["resubmit_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "digests": {
            "ops": {chunk: digest for chunk, _, digest in result["chunks"]},
            "outputs": [result["results_sha256"],
                        *result["resubmit_sha256"]],
        },
        "traced_wall_s": result["end"] - spawned,
        "trace": result.get("trace"),
        "process_trace": result.get("trace"),
        "extra": {"store.bytes": tree_bytes(out / "store")},
    }


def service_jobs(workload: Dict[str, Any], seed: int
                 ) -> List[Tuple[Optional[int], Dict[str, Any]]]:
    """``(original position or None, spec)`` per job, in submit order.

    Every ``resubmit_every``-th job resubmits the spec of an earlier fresh
    job, named by that job's position.
    """
    rng = random.Random(seed)
    fresh: List[int] = []
    jobs: List[Tuple[Optional[int], Dict[str, Any]]] = []
    benchmarks = workload["benchmarks"]
    runs = workload["runs_per_job"]
    for index in range(workload["jobs"]):
        if (index + 1) % workload["resubmit_every"] == 0:
            original = rng.choice(fresh)
            jobs.append((original, jobs[original][1]))
            continue
        number = len(fresh)
        fresh.append(index)
        jobs.append((None, {
            "benchmarks": [benchmarks[number % len(benchmarks)]],
            "num_runs": runs, "base_seed": seed * 100_000 + number * runs}))
    return jobs


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def service_rep(root: Path, work: Path, workload: Dict[str, Any], seed: int,
                traced: bool) -> Dict[str, Any]:
    """One service repetition: a fresh daemon and one closed-loop client."""
    from repro.service.client import ServiceClient, ServiceError

    data = work / "service"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    spans_path = work / "daemon-spans.json"
    serve = ["serve", "--data-root", str(data), "--port", "0"]
    if traced:
        command = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans_path), *serve]
    else:
        command = [sys.executable, "-m", "repro", *serve]
    tracer = layers.Tracer() if traced else None
    spawned = time.monotonic()
    with open(work / "daemon.log", "w") as log:
        daemon = subprocess.Popen(command, cwd=root, env=child_env(root),
                                  stdout=subprocess.PIPE, stderr=log,
                                  text=True)
    try:
        banner = daemon.stdout.readline()
        if " on http://" not in banner:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        client = ServiceClient(banner.split(" on ", 1)[1].split()[0],
                               client="perfbench")
        deadline = spawned + CHILD_TIMEOUT_S
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.001)
        ready = time.monotonic()
        if tracer is not None:
            tracer.install(layers.CLIENT_TARGETS)
        poll = workload["poll_s"]
        ops: Dict[str, str] = {}
        fresh, resubmits, chunks = [], [], []
        queue_wait = job_run = 0.0
        fresh_runs = 0
        submitted_first = None
        for position, (original, spec) in enumerate(
                service_jobs(workload, seed)):
            submitted = time.monotonic()
            submitted_first = submitted_first or submitted
            status = client.wait(client.submit(spec)["id"],
                                 timeout=CHILD_TIMEOUT_S, poll=poll)
            digest = None
            if status["state"] == "done":
                text = client.results(status["id"])
                digest = hashlib.sha256(text.encode()).hexdigest()
            turnaround = time.monotonic() - submitted
            started = status["started"] or status["created"]
            queue_wait += started - status["created"]
            job_run += status["finished"] - started
            if original is not None:
                resubmits.append(turnaround)
                if digest != ops[str(original)]:
                    digest = None
                ops[str(position)] = digest
                continue
            ops[str(position)] = digest
            fresh.append(turnaround)
            fresh_runs += status["total_tasks"]
            stamps = [event["ts"] for event in status["progress"]["events"]]
            chunks.extend(b - a for a, b in zip(stamps, stamps[1:]))
        last = time.monotonic()
        peak = _peak_rss_mb(daemon.pid)
    finally:
        if tracer is not None:
            tracer.uninstall()
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
    trace = daemon_trace = None
    if traced:
        daemon_trace = json.loads(spans_path.read_text())
        trace = merge_traces(daemon_trace, tracer.dump())
    return {
        "setup_s": ready - spawned,
        "wall_s": last - spawned,
        "runs_per_s": fresh_runs / (last - submitted_first),
        "chunks": chunks,
        "jobs": fresh,
        "resubmits": resubmits,
        "peak_rss_mb": peak,
        "digests": {"ops": ops, "outputs": []},
        "traced_wall_s": last - spawned,
        "trace": trace,
        "process_trace": daemon_trace,
        "extra": {"store.bytes": tree_bytes(data / "stores"),
                  "service.queue_wait.s": queue_wait,
                  "service.job_run.s": job_run},
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def rep_metrics(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one repetition."""
    values = {name: rep[name]
              for name in ("setup_s", "wall_s", "runs_per_s", "peak_rss_mb")}
    values["resubmit_p50_s"] = median(rep["resubmits"])
    for key, p50, tail_name in (("chunks", "chunk_p50_s", "chunk_tail_s"),
                                ("jobs", "job_p50_s", "job_tail_s")):
        values[p50] = median(rep[key])
        values[tail_name] = tail(rep[key])[0]
    return values


def end_to_end(reps: List[Dict[str, Any]]) -> Tuple[Dict[str, float],
                                                     List[str]]:
    """Every end-to-end metric over the repetitions, plus notes.

    Each metric is the mean of its per-repetition values.  The shared host
    switches between a fast and a ~1.6x slower state for seconds at a time,
    so per-repetition values fall into two groups; the median of a few of
    them jumps between the groups, while the mean moves with the share of
    time spent in each and spreads less from run to run.
    """
    per_rep = [rep_metrics(rep) for rep in reps]
    values = {name: mean([metrics[name] for metrics in per_rep])
              for name in per_rep[0]}
    notes = []
    for key, tail_name in (("chunks", "chunk_tail_s"), ("jobs", "job_tail_s")):
        _, percentile, count = tail(reps[0][key])
        notes.append(f"{tail_name}: p{percentile:.1f} of {count} samples "
                     f"per repetition, over {len(reps)} repetitions")
    return values, notes


def per_layer(traced: List[Dict[str, Any]], plain: List[Dict[str, Any]]
              ) -> Tuple[Dict[str, float], List[str]]:
    """Median over traced repetitions of every per-layer metric.

    Self-time shares and ``trace.uncovered_s`` (traced wall during which
    no span is open) are taken over the workload process alone: the sweep
    process, or the daemon for the service.  The daemon's threads overlap,
    so its shares can add up to more than 100%.
    """
    series: Dict[str, List[float]] = {}
    shares: Dict[str, List[float]] = {}
    for rep in traced:
        spans = rep["trace"]["spans"]
        metrics = layers.layer_metrics(spans, rep["trace"]["counters"])
        metrics.setdefault("service.queue_wait.s", 0.0)
        metrics.setdefault("service.job_run.s", 0.0)
        metrics.update(rep["extra"])
        own = layers.layer_self_times(rep["process_trace"]["spans"])
        metrics["trace.uncovered_s"] = (
            rep["traced_wall_s"]
            - layers.covered_time(rep["process_trace"]["spans"]))
        for name, value in metrics.items():
            series.setdefault(name, []).append(value)
        for layer, seconds in own.items():
            shares.setdefault(layer, []).append(seconds / rep["traced_wall_s"])
    result = {name: median(values) for name, values in series.items()}
    result["trace.overhead_s"] = (
        median([rep["traced_wall_s"] for rep in traced])
        - median([rep["traced_wall_s"] for rep in plain]))
    notes = [f"layer self time, share of traced wall: " + ", ".join(
        f"{layer} {100 * median(values):.1f}%"
        for layer, values in sorted(shares.items(),
                                    key=lambda item: -median(item[1])))]
    return result, notes


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned one)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the default seed's digests in pins.json")
    args = parser.parse_args(argv)
    # A killed run still stops its workload processes (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    workload = SPEC["workloads"][args.workload]
    seed = workload["default_seed"] if args.seed is None else args.seed
    pinned = seed == workload["default_seed"]
    if args.pin and not pinned:
        parser.error("--pin needs the workload's default seed")
    pins = load_pins()
    reference = None if args.pin else (pins.get(args.workload)
                                       if pinned else None)
    if pinned and reference is None and not args.pin:
        print(f"run.py: no pins for {args.workload}; run with --pin",
              file=sys.stderr)
        return 2

    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    last_rep_s = 0.0
    try:
        subprocess.run([sys.executable, "-c", WARM_UP], cwd=root,
                       env=child_env(root), check=True, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
        # Stop before a repetition that would end past --seconds.
        while (len(reps) < MIN_REPS
               or time.monotonic() - started + last_rep_s < args.seconds):
            rep_started = time.monotonic()
            traced = bool(args.trace) and len(reps) % 2 == 1
            if workload["kind"] == "sweep":
                rep = sweep_rep(root, work, args.workload, seed, traced)
            else:
                rep = service_rep(root, work, workload, seed, traced)
            rep["traced"] = traced
            if reference is None:
                reference = {"ops": rep["digests"]["ops"],
                             "output": next(iter(rep["digests"]["outputs"]),
                                            None)}
                if args.pin:
                    if None in reference["ops"].values():
                        raise RuntimeError("a job failed; nothing pinned")
                    pins[args.workload] = reference
                    PINS_PATH.write_text(json.dumps(pins, indent=1,
                                                    sort_keys=True) + "\n")
            attempted += len(reference["ops"])
            failed += failed_ops(rep["digests"], reference)
            reps.append(rep)
            last_rep_s = time.monotonic() - rep_started
            print(f"repetition {len(reps)}{' traced' if traced else ''}: "
                  + " ".join(f"{name}={value:.6g}" for name, value
                             in rep_metrics(rep).items())
                  + f" first_chunk_s={rep['chunks'][0]:.6g}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    plain = [rep for rep in reps if not rep["traced"]]
    if args.trace:
        values, notes = per_layer([rep for rep in reps if rep["traced"]],
                                  plain)
    else:
        values, notes = end_to_end(plain)
    names = list(units)
    print(f"{args.workload} seed {seed}: {len(reps)} repetitions "
          f"({len(plain)} untraced), {time.monotonic() - started:.1f} s")
    for note in notes:
        print(note)
    for name in names:
        print(f"  {name:28s} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
