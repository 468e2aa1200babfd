"""Chaos soak: seeded random fault schedules over the full stack.

The tier above single-site failpoint tests: generate N random (but fully
seeded — same ``--seed`` → same schedules) fault plans from the site
catalogue, run each one against a small reference study through **both**
durable paths, and require every surviving run to be **byte-identical**
to a clean serial baseline:

* **store phase** — the store faults (``ENOSPC`` on fsync, torn shard and
  chunk-log appends) are installed in the soak process itself, which runs
  the study on a two-worker
  :class:`~repro.engine.backends.ProcessPoolBackend` streaming to a
  :class:`~repro.study.store.RunStore` in chunks of two seeds.  The
  store commits chunks as the pool finishes them, which is not task
  order.  After each injected failure the study is simply *re-run* from
  the store until it completes — the committed chunks resume.
* **service phase** — a real ``python -m repro serve`` daemon subprocess
  with service-side faults (torn journal appends, scheduler crash at a
  chunk boundary).  The harness restarts the daemon when a fault kills it
  and waits for the recovered, re-queued job to finish, then fetches the
  results over HTTP.

Faults are *count-limited* by construction, and the daemon is restarted
with faults stripped after a few injected deaths, so every schedule
terminates; what byte-identity then proves is that no injected failure —
at any catalogued site — can corrupt or duplicate a committed result.

Entry point: ``python -m repro chaos`` (``PYTHONPATH=src python -m repro
chaos`` from a source checkout), a thin wrapper over :func:`run_chaos`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional

from repro.engine.backends import ProcessPoolBackend, SerialBackend
from repro.exceptions import FaultError, ReproError
from repro.faults.core import (
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    FAULTS_SEED_ENV_VAR,
    SITES,
    fault_stats,
    install_faults,
    uninstall_faults,
)

__all__ = ["run_chaos", "build_schedules", "DEFAULT_STUDY_SPEC",
           "DEFAULT_SCHEDULES", "DEFAULT_SEED"]

DEFAULT_SCHEDULES = 3
DEFAULT_SEED = 9

#: The reference study every schedule runs: a few cells × a few seeds,
#: seconds of serial work, so the soak's wall-clock is dominated by the
#: injected failures rather than the simulation itself.
DEFAULT_STUDY_SPEC: Dict[str, Any] = {
    "benchmarks": ["TLIM-32", "QAOA-r4-16"],
    "designs": ["ideal", "original"],
    "num_runs": 4,
    "system": {"data_qubits_per_node": 16, "comm_qubits_per_node": 4,
               "buffer_qubits_per_node": 4},
}

#: Daemon restarts that still carry faults; later lives run clean so
#: every schedule converges.
_FAULTY_RESPAWNS = 2

#: Store-phase attempts before the soak gives up on a schedule.  Every
#: store rule fires once (``count=1``), so at most three attempts fail.
_MAX_STORE_ATTEMPTS = 8

#: The phases of one schedule, named by the layer whose sites each arms:
#: store sites fire in the soak process, service sites in the daemon.
_PHASES = ("store", "service")


def _rule_for(site: str, rng: Random) -> str:
    """A converging (count-limited) spec rule for one catalogued site.

    The ``after`` offsets are drawn from the schedule RNG so different
    schedules hit the same site at different points of the run; the
    bounded ``count`` is what guarantees the soak terminates.
    """
    if site == "store.fsync":
        return (f"{site}:kind=error,errno=ENOSPC,count=1,"
                f"after={rng.randint(1, 4)}")
    if site == "store.shard.write":
        return f"{site}:kind=torn,count=1,after={rng.randint(0, 3)}"
    if site == "store.log.append":
        return f"{site}:kind=torn,count=1,after={rng.randint(0, 3)}"
    if site == "service.journal.append":
        # Fires on an early journal append (job creation / queued→running)
        # so the daemon provably dies and recovers within the schedule.
        return f"{site}:kind=torn,count=1,after={rng.randint(1, 2)}"
    if site == "service.job.chunk":
        return f"{site}:kind=crash,count=1,after={rng.randint(1, 3)}"
    raise FaultError(f"no chaos rule template for site {site!r}")


def build_schedules(schedules: int, seed: int) -> List[Dict[str, Any]]:
    """Deterministically partition the site catalogue into fault plans.

    The shuffled catalogue is dealt round-robin across the schedules, so
    the *union* over a soak covers every site once ``schedules >= 1`` —
    the coverage the CI smoke asserts — while each schedule stays small
    enough to diagnose when it trips.
    """
    if schedules < 1:
        raise FaultError("chaos soak needs at least one schedule")
    rng = Random(f"chaos:{seed}")
    names = sorted(SITES)
    rng.shuffle(names)
    plans: List[Dict[str, Any]] = []
    for index in range(schedules):
        sites = sorted(names[index::schedules])
        site_rng = Random(f"chaos:{seed}:schedule:{index}")
        rules = {site: _rule_for(site, site_rng) for site in sites}
        grouped = {phase: ";".join(rules[s] for s in sites
                                   if SITES[s].layer == phase)
                   for phase in _PHASES}
        plans.append({
            "index": index,
            "seed": seed * 1000 + index,
            "sites": sites,
            "rules": rules,
            "specs": grouped,
        })
    return plans


def _src_pythonpath() -> str:
    """A ``PYTHONPATH`` under which subprocesses can import ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def _free_port() -> int:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class _Log:
    def __init__(self, quiet: bool) -> None:
        self.quiet = quiet

    def __call__(self, message: str) -> None:
        if not self.quiet:
            print(f"chaos: {message}", flush=True)


# ----------------------------------------------------------------------
# store phase
# ----------------------------------------------------------------------
def _run_store_phase(plan: Dict[str, Any], spec: Dict[str, Any],
                     baseline: str, root: Path, log: _Log) -> Dict[str, Any]:
    from repro.study.study import Study

    backend = ProcessPoolBackend(max_workers=2)
    store_path = root / "store"
    errors: List[str] = []
    result_json: Optional[str] = None
    install_faults(plan["specs"]["store"] or None, seed=plan["seed"])
    try:
        for attempts in range(1, _MAX_STORE_ATTEMPTS + 1):
            try:
                with Study.from_spec(spec, backend=backend) as study:
                    results = study.run(store=store_path,
                                        store_chunk_size=2)
                result_json = results.to_json()
                break
            except (ReproError, OSError) as error:
                errors.append(f"{type(error).__name__}: {error}")
                log(f"  store run attempt {attempts} failed "
                    f"({type(error).__name__}); resuming from store")
        stats = fault_stats()
    finally:
        uninstall_faults()
        backend.close()
    identical = result_json == baseline
    if result_json is not None:
        (root / "store-results.json").write_text(result_json)
    return {
        "spec": plan["specs"]["store"],
        "completed": result_json is not None,
        "identical": identical,
        "attempts": attempts,
        "injected_errors": errors,
        "fault_stats": stats,
    }


# ----------------------------------------------------------------------
# service phase
# ----------------------------------------------------------------------
class _Daemon:
    """One supervised ``repro serve`` subprocess on a pinned port."""

    def __init__(self, data_root: Path, port: int, spec: str, seed: int,
                 root: Path) -> None:
        self.data_root = data_root
        self.port = port
        self.spec = spec
        self.seed = seed
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.starts = 0
        self.crashes = 0

    def start(self, faulty: bool) -> None:
        env = os.environ.copy()
        env["PYTHONPATH"] = _src_pythonpath()
        env.pop(FAULTS_ENV_VAR, None)
        env.pop(FAULTS_SEED_ENV_VAR, None)
        if faulty and self.spec:
            env[FAULTS_ENV_VAR] = self.spec
            env[FAULTS_SEED_ENV_VAR] = str(self.seed)
        log = open(self.root / "daemon.log", "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--data-root", str(self.data_root),
                 "--host", "127.0.0.1", "--port", str(self.port)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.starts += 1

    def dead(self) -> bool:
        return self.proc is None or self.proc.poll() is not None

    def note_exit(self) -> None:
        if self.proc is not None \
                and self.proc.returncode == CRASH_EXIT_CODE:
            self.crashes += 1

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=10)


def _run_service_phase(plan: Dict[str, Any], spec: Dict[str, Any],
                       baseline: str, root: Path, timeout: float,
                       log: _Log) -> Dict[str, Any]:
    from repro.service.client import ServiceClient, ServiceError

    port = _free_port()
    daemon = _Daemon(root / "service-root", port, plan["specs"]["service"],
                     plan["seed"], root)
    client = ServiceClient(f"http://127.0.0.1:{port}", client="chaos",
                           timeout=10.0)
    job_id: Optional[str] = None
    failures: List[str] = []
    result_text: Optional[str] = None
    final_status: Optional[Dict[str, Any]] = None
    daemon.start(faulty=True)
    try:
        deadline = time.monotonic() + timeout
        while result_text is None and time.monotonic() < deadline:
            if daemon.dead():
                daemon.note_exit()
                log(f"  service daemon exited "
                    f"(code {daemon.proc.returncode}); restarting")
                # Recovery re-queues the interrupted job from the journal;
                # later lives run clean so the schedule converges.
                daemon.start(faulty=daemon.starts <= _FAULTY_RESPAWNS)
                time.sleep(0.2)
                continue
            try:
                if job_id is None:
                    job_id = client.submit(spec)["id"]
                    log(f"  service job {job_id} submitted")
                # Held until the job ends, for at most a second, so the
                # loop still looks for a dead daemon that often.
                status = client.job(job_id, wait=1.0)
                if status["state"] == "done":
                    final_status = status
                    result_text = client.results(job_id, fmt="json")
                elif status["state"] in ("failed", "cancelled"):
                    failures.append(
                        f"{job_id}: {status['state']}: "
                        f"{status.get('error') or status.get('last_failure')}")
                    job_id = None  # resubmit; the shared store resumes
            except ServiceError as error:
                # A crash cuts a held request as it cuts any other: status
                # 0, and the loop restarts the daemon.
                if error.status == 0:
                    time.sleep(0.2)
                    continue
                if error.status == 404:
                    job_id = None
                    continue
                raise
    finally:
        daemon.stop()
    identical = result_text == baseline
    if result_text is not None:
        (root / "service-results.json").write_text(result_text)
    return {
        "spec": plan["specs"]["service"],
        "completed": result_text is not None,
        "identical": identical,
        "daemon_starts": daemon.starts,
        "daemon_crashes": daemon.crashes,
        "job_requeues": (final_status or {}).get("requeues"),
        "job_last_failure": (final_status or {}).get("last_failure"),
        "job_failures": failures,
    }


# ----------------------------------------------------------------------
# the soak
# ----------------------------------------------------------------------
def run_chaos(schedules: int = DEFAULT_SCHEDULES, seed: int = DEFAULT_SEED,
              *, spec: Optional[Dict[str, Any]] = None,
              root: Optional[Path] = None, keep: bool = False,
              out: Optional[Path] = None, phase_timeout: float = 300.0,
              quiet: bool = False) -> Dict[str, Any]:
    """Run the chaos soak and return (and optionally write) its report.

    Every schedule must *complete* (the fault plans are count-limited and
    daemon restarts shed faults, so a hang is a bug) and its store- and
    service-phase results must be byte-identical to the serial baseline;
    ``report["identical"]`` is the overall verdict.
    """
    log = _Log(quiet)
    plans = build_schedules(schedules, seed)
    study_spec = dict(spec or DEFAULT_STUDY_SPEC)
    work_root = Path(root) if root is not None \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    work_root.mkdir(parents=True, exist_ok=True)
    cleanup = root is None and not keep

    from repro.study.study import Study

    log(f"soak seed {seed}: {schedules} schedule(s), "
        f"{len(SITES)} catalogued sites")
    with Study.from_spec(study_spec, backend=SerialBackend()) as study:
        baseline = study.run().to_json()
    (work_root / "baseline.json").write_text(baseline)
    baseline_sha = hashlib.sha256(baseline.encode("utf-8")).hexdigest()
    log(f"serial baseline: {len(baseline)} bytes, "
        f"sha256 {baseline_sha[:12]}…")

    report: Dict[str, Any] = {
        "seed": seed,
        "requested_schedules": schedules,
        "study_spec": study_spec,
        "baseline_bytes": len(baseline),
        "baseline_sha256": baseline_sha,
        "schedules": [],
    }
    try:
        for plan in plans:
            sched_root = work_root / f"schedule-{plan['index']}"
            sched_root.mkdir(parents=True, exist_ok=True)
            log(f"schedule {plan['index']}: sites "
                f"{', '.join(plan['sites'])}")
            store = _run_store_phase(plan, study_spec, baseline,
                                     sched_root, log)
            log(f"  store: completed={store['completed']} "
                f"identical={store['identical']} "
                f"attempts={store['attempts']}")
            service = _run_service_phase(plan, study_spec, baseline,
                                         sched_root, phase_timeout, log)
            log(f"  service: completed={service['completed']} "
                f"identical={service['identical']} "
                f"daemon_starts={service['daemon_starts']}")
            report["schedules"].append({
                "index": plan["index"],
                "seed": plan["seed"],
                "sites": plan["sites"],
                "rules": plan["rules"],
                "store": store,
                "service": service,
            })
    finally:
        sites_covered = sorted({site for entry in report["schedules"]
                                for site in entry["sites"]})
        report["sites_covered"] = sites_covered
        report["layers_covered"] = sorted(
            {SITES[s].layer for s in sites_covered})
        report["identical"] = bool(report["schedules"]) and all(
            entry["store"]["identical"] and entry["service"]["identical"]
            for entry in report["schedules"])
        if out is not None:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps(report, indent=2) + "\n")
        elif keep or root is not None:
            (work_root / "chaos_report.json").write_text(
                json.dumps(report, indent=2) + "\n")
        if cleanup:
            shutil.rmtree(work_root, ignore_errors=True)
    log(f"verdict: identical={report['identical']} over "
        f"{len(report['sites_covered'])} site(s) in "
        f"{len(report['layers_covered'])} layer(s)")
    return report
