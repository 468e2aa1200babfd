"""The study daemon: data-root layout, job lifecycle, and service glue.

A :class:`StudyDaemon` owns one **data root** directory::

    <data-root>/
        jobs.journal            append-only job journal (JobJournal)
        jobs/<id>/spec.json     submitted spec, one readable copy per job
        stores/<fingerprint>/   one RunStore per distinct *plan* — identical
                                specs share a store, so a cancelled job's
                                resubmission (and a restarted daemon's
                                re-queue) resume from the committed chunks
        cache/                  the shared persistent compile cache
                                (unless the config points elsewhere)

and wires the service layers together: journal-backed
:class:`~repro.service.jobs.JobRegistry`, priority
:class:`~repro.service.jobqueue.JobQueue`,
:class:`~repro.service.scheduler.Scheduler` worker pool, and the
:mod:`~repro.service.httpapi` HTTP surface.  Restart recovery is the
composition of two existing guarantees: the journal re-queues jobs that
were running when the daemon died, and the run store resumes each of them
chunk-exactly — so a ``kill -9``'d daemon finishes its interrupted jobs
with results byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.cache import default_cache
from repro.exceptions import ConfigurationError, ReproError, StoreError
from repro.service.jobqueue import JobQueue
from repro.service.jobs import Job, JobJournal, JobRegistry, JobState
from repro.service.scheduler import Scheduler
from repro.study.store import RunStore
from repro.study.study import Study

__all__ = ["ServiceConfig", "StudyDaemon", "QuotaError", "JobNotReady",
           "DaemonStopped"]

#: Default TCP port of the service (REPRO, loosely, on a phone keypad).
DEFAULT_PORT = 8765

#: Seconds between the HTTP serve loop's checks for a shutdown request, so
#: the longest ``stop()`` waits for the loop to end (``http.server``'s
#: default is 0.5 s).
SERVE_POLL_S = 0.05

#: The progress fields a job status reports as its resume point.
_RESUME_KEYS = ("done_chunks", "total_chunks", "done_tasks", "total_tasks",
                "complete")


class QuotaError(ReproError):
    """A client exceeded its active-job quota (HTTP 429)."""

    def __init__(self, client: str, active: int, limit: int) -> None:
        super().__init__(
            f"client {client!r} has {active} active job(s), the per-client "
            f"limit is {limit}; wait for one to finish or cancel it"
        )
        self.client = client
        self.active = active
        self.limit = limit

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload of the 429 response."""
        return {"error": "quota-exceeded", "client": self.client,
                "active": self.active, "limit": self.limit,
                "message": str(self)}


class JobNotReady(ReproError):
    """Results were requested before the job reached ``done`` (HTTP 409)."""

    def __init__(self, job: Job) -> None:
        super().__init__(
            f"job {job.id} is {job.state}; results are served once it is "
            f"done" + (f" ({job.error})" if job.error else "")
        )
        self.job = job

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload of the 409 response."""
        return {"error": "job-not-ready", "id": self.job.id,
                "state": self.job.state.value, "message": str(self)}


class DaemonStopped(ReproError):
    """:meth:`StudyDaemon.start` was called after :meth:`StudyDaemon.stop`."""

    def __init__(self, data_root: Path) -> None:
        super().__init__(
            f"this daemon was stopped, which closed its job queue and "
            f"journal; start a new StudyDaemon on {data_root}: it replays "
            f"the journal and resumes the jobs"
        )


@dataclass
class ServiceConfig:
    """Tunable knobs of one daemon instance.

    ``job_ttl`` enables the garbage collector: terminal
    (done/failed/cancelled) jobs older than the TTL are pruned —
    journalled, job dir deleted, orphaned stores removed.
    """

    data_root: Union[str, Path]
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    concurrency: int = 1
    max_jobs_per_client: int = 16
    backend: Optional[str] = None
    cache_dir: Union[None, str, Path] = None
    store_chunk_size: Optional[int] = None
    job_ttl: Optional[float] = None


class StudyDaemon:
    """One service instance: submit, schedule, observe, and serve studies."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.job_ttl is not None and config.job_ttl < 0:
            raise ConfigurationError("job TTL cannot be negative")
        self.config = config
        self.data_root = Path(config.data_root)
        self.journal = JobJournal(self.data_root / "jobs.journal")
        self.registry = JobRegistry(self.journal)
        self.queue = JobQueue()
        cache_dir = (Path(config.cache_dir) if config.cache_dir is not None
                     else self.data_root / "cache")
        #: One artifact cache shared by every job of the daemon — compiled
        #: cells persist on disk, so repeat submissions start in
        #: milliseconds instead of recompiling.
        self.cache = default_cache(cache_dir)
        self.scheduler = Scheduler(
            self.registry, self.queue, self.data_root,
            cache=self.cache,
            backend=config.backend,
            concurrency=config.concurrency,
            store_chunk_size=config.store_chunk_size,
        )
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self._gc_thread: Optional[threading.Thread] = None
        self._gc_stop = threading.Event()
        self._started = time.time()
        self._submit_lock = threading.Lock()
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover journalled jobs, start the workers, bind the API.

        Raises :class:`DaemonStopped` on a daemon that was stopped: a new
        :class:`StudyDaemon` on the same data root is the restart.
        """
        from repro.service.httpapi import build_server

        if self._stopped:
            raise DaemonStopped(self.data_root)
        self.data_root.mkdir(parents=True, exist_ok=True)
        (self.data_root / "jobs").mkdir(exist_ok=True)
        (self.data_root / "stores").mkdir(exist_ok=True)
        self._started = time.time()
        for job in self.registry.load():
            self.queue.push(job)
        self.scheduler.start()
        self._server = build_server(self, self.config.host, self.config.port)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="repro-http",
            kwargs={"poll_interval": SERVE_POLL_S}, daemon=True,
        )
        self._server_thread.start()
        if self.config.job_ttl is not None:
            self._gc_stop.clear()
            self._gc_thread = threading.Thread(
                target=self._gc_loop, name="repro-gc", daemon=True)
            self._gc_thread.start()

    @property
    def address(self) -> str:
        """The bound base URL (resolves a ``port=0`` ephemeral bind)."""
        if self._server is None:
            return f"http://{self.config.host}:{self.config.port}"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the API, wind down workers, close the journal.

        Jobs mid-run are re-queued (their committed chunks are durable),
        so a new daemon started on the same data root resumes them; this
        one cannot start again.
        Held status requests (``GET /jobs/<id>?wait=``) are answered first,
        with their job's current state: the server's close waits for every
        request thread.
        """
        self._stopped = True
        self.registry.release_waiters()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=timeout)
            self._server_thread = None
        self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=timeout)
            self._gc_thread = None
        self.scheduler.stop(timeout=timeout)
        self.journal.close()

    # ------------------------------------------------------------------
    # the service operations (HTTP handlers call these)
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], *, client: str = "anonymous",
               priority: int = 0) -> Job:
        """Validate a spec and enqueue it as a new job.

        Raises :class:`~repro.exceptions.SpecValidationError` (the API's
        structured 400) for an invalid spec and :class:`QuotaError` (429)
        when the client is at its active-job limit.  Validation expands
        the plan once — which also yields the plan fingerprint that names
        the job's run store, so identical plans share one store.
        """
        study = Study.from_spec(spec)
        plan = study.plan()
        fingerprint = study.plan_fingerprint(plan)
        with self._submit_lock:
            active = self.registry.active_count(client)
            if active >= self.config.max_jobs_per_client:
                raise QuotaError(client, active,
                                 self.config.max_jobs_per_client)
            index = self.registry.next_index()
            job = Job(
                id=f"job-{index + 1:06d}",
                spec=dict(spec),
                client=client,
                priority=int(priority),
                state=JobState.QUEUED,
                created=time.time(),
                submit_index=index,
                store=f"stores/{fingerprint[:16]}",
                fingerprint=fingerprint,
                cells=len(plan),
                total_tasks=plan.num_tasks,
                name=spec.get("name"),
            )
            job_dir = self.data_root / "jobs" / job.id
            job_dir.mkdir(parents=True, exist_ok=True)
            (job_dir / "spec.json").write_text(
                json.dumps(spec, indent=2) + "\n")
            self.registry.add(job)
        self.queue.push(job)
        return job

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """Full status of one job: fields, live progress, resume point.

        The resume point comes from the scheduler's live progress, which
        fires right after each chunk commits, so it lags the durable store
        by at most one chunk.  Only a job without live progress (queued,
        just started, or finished before a daemon restart) reads its store
        for it.
        """
        job = self.registry.get(job_id)
        status = job.to_dict()
        progress = self.scheduler.progress(job_id)
        if progress["latest"] is not None:
            resume = {key: progress["latest"][key] for key in _RESUME_KEYS}
        else:
            resume = self._store_resume_point(job)
            progress["latest"] = resume
        status["progress"] = progress
        status["resume_point"] = resume
        return status

    def _store_resume_point(self, job: Job) -> Optional[Dict[str, Any]]:
        store_path = self.data_root / job.store
        try:
            summary = RunStore.load(store_path).summary()
        except StoreError:
            return None
        return {key: summary[key] for key in _RESUME_KEYS}

    def results(self, job_id: str, fmt: str = "json") -> str:
        """Serialised results of a finished job, straight from its store."""
        job = self.registry.get(job_id)
        if job.state is not JobState.DONE:
            raise JobNotReady(job)
        results = RunStore.load(self.data_root / job.store).load_results()
        if fmt == "csv":
            return results.to_csv()
        return results.to_json()

    def cancel(self, job_id: str) -> JobState:
        """Cancel a job (immediate if queued, cooperative if running)."""
        return self.scheduler.request_cancel(job_id)

    def list_jobs(self, *, client: Optional[str] = None,
                  state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Compact job summaries, in submission order."""
        state_filter = JobState(state) if state else None
        return [job.summary()
                for job in self.registry.jobs(client=client,
                                              state=state_filter)]

    def quota(self, client: str) -> Dict[str, Any]:
        """The caller's quota accounting (returned with ``GET /jobs``)."""
        return {
            "client": client,
            "active": self.registry.active_count(client),
            "limit": self.config.max_jobs_per_client,
        }

    def health(self) -> Dict[str, Any]:
        """The liveness payload (``GET /healthz``).

        Besides liveness, this is the operator's one-glance view: queue
        depth and per-state job counts (``running``/``done``/… are hoisted
        to the top level for the ``repro jobs`` header line).
        """
        counts = self.registry.state_counts()
        payload = {
            "status": "ok",
            "uptime": round(time.time() - self._started, 3),
            "queued": len(self.queue),
            "queue_depth": len(self.queue),
            "running": counts["running"],
            "done": counts["done"],
            "failed": counts["failed"],
            "jobs": counts,
            "data_root": str(self.data_root),
        }
        if self.config.job_ttl is not None:
            payload["job_ttl"] = self.config.job_ttl
        return payload

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def prune(self, ttl: Optional[float] = None) -> Dict[str, Any]:
        """Garbage-collect terminal jobs older than ``ttl`` seconds.

        A prune removes, in a crash-safe order: the job itself (a
        ``prune`` event in the journal, so a restart forgets it too, and
        its progress in the scheduler), the job's directory under
        ``jobs/``, and finally any store under ``stores/`` that no
        surviving job references —
        *surviving* includes queued/running jobs and fresher terminal
        jobs, so shared-fingerprint stores outlive individual prunes.
        A pruned job's spec can simply be resubmitted; with its store
        gone it recomputes from scratch (same bytes — the pipeline is
        deterministic).
        """
        ttl = self.config.job_ttl if ttl is None else ttl
        if ttl is None:
            raise ConfigurationError(
                "no TTL given (pass one, or serve with --job-ttl)")
        cutoff = time.time() - ttl
        pruned: List[str] = []
        with self._submit_lock:
            for job in self.registry.jobs():
                finished = job.finished if job.finished is not None \
                    else job.created
                if job.is_terminal and finished <= cutoff:
                    self.registry.prune(job.id)
                    self.scheduler.forget(job.id)
                    shutil.rmtree(self.data_root / "jobs" / job.id,
                                  ignore_errors=True)
                    pruned.append(job.id)
            removed_stores: List[str] = []
            if pruned:
                live = {job.store for job in self.registry.jobs()}
                stores_dir = self.data_root / "stores"
                if stores_dir.is_dir():
                    for store_dir in sorted(stores_dir.iterdir()):
                        relative = f"stores/{store_dir.name}"
                        if store_dir.is_dir() and relative not in live:
                            shutil.rmtree(store_dir, ignore_errors=True)
                            removed_stores.append(relative)
        return {"pruned": pruned, "stores_removed": removed_stores}

    def _gc_loop(self) -> None:
        ttl = self.config.job_ttl or 0.0
        interval = max(1.0, min(ttl / 4 if ttl else 60.0, 60.0))
        while not self._gc_stop.wait(interval):
            try:
                self.prune()
            except ReproError:  # pragma: no cover - GC must never kill serve
                pass
