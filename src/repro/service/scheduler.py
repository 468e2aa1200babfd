"""Scheduler loop: drain the job queue into the execution backend.

A fixed pool of worker threads (``concurrency``, default one — studies
already parallelise *inside* a job via the execution backend) pops job ids
off the priority queue, re-reads each job from the registry (skipping jobs
cancelled while queued), and runs it through the ordinary
:meth:`Study.run(store=…) <repro.study.study.Study.run>` streaming path:

* every job writes its own :class:`~repro.study.store.RunStore`, so chunks
  are durable the moment they complete and an interrupted job resumes
  chunk-exactly on the next attempt;
* every :class:`~repro.study.store.ProgressEvent` lands in a per-job ring
  buffer the status endpoint serves;
* cancellation is **cooperative**: a cancel request sets the job's event,
  and the progress callback — which fires between store chunks — raises,
  unwinding the run after the current chunk committed.  The store stays
  resumable, which is what lets a cancelled job's resubmission continue.

Each worker thread owns one :class:`ExecutionBackend` instance for its
whole lifetime, so a process-pool backend keeps its warm workers (and their
compiled-cell caches) across consecutive jobs instead of paying the pool
start-up per job.  All jobs share the daemon's one artifact cache.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.engine.backends import get_backend
from repro.engine.cache import ArtifactCache
from repro.exceptions import ReproError
from repro.faults import failpoint
from repro.service.jobqueue import JobQueue
from repro.service.jobs import Job, JobRegistry, JobState
from repro.study.store import ProgressEvent
from repro.study.study import Study

__all__ = ["Scheduler", "JobCancelled"]

#: Progress events kept per job for the status endpoint.
DEFAULT_RING_SIZE = 64


class JobCancelled(Exception):
    """Internal control-flow signal: unwind a run at a chunk boundary."""


class Scheduler:
    """Worker pool turning queued jobs into streamed study runs."""

    def __init__(self, registry: JobRegistry, queue: JobQueue,
                 data_root: Path, *,
                 cache: ArtifactCache,
                 backend: Optional[str] = None,
                 concurrency: int = 1,
                 store_chunk_size: Optional[int] = None,
                 ring_size: int = DEFAULT_RING_SIZE) -> None:
        if concurrency < 1:
            raise ValueError("scheduler needs at least one worker")
        self.registry = registry
        self.queue = queue
        self.data_root = Path(data_root)
        self.cache = cache
        self.backend_name = backend
        self.concurrency = concurrency
        self.store_chunk_size = store_chunk_size
        self._ring_size = ring_size
        self._events: Dict[str, deque] = {}
        self._latest: Dict[str, Dict[str, Any]] = {}
        self._cancel: Dict[str, threading.Event] = {}
        self._state_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the worker threads."""
        for index in range(self.concurrency):
            thread = threading.Thread(
                target=self._worker, name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting work and wait for the workers to wind down.

        A job mid-run is asked to stop cooperatively (same path as a
        cancel, but the job is *re-queued*, not cancelled, so the next
        daemon start resumes it); its committed chunks are already
        durable either way.
        """
        self._stopping.set()
        self.queue.close()
        with self._state_lock:
            for event in self._cancel.values():
                event.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # ------------------------------------------------------------------
    # observation / control
    # ------------------------------------------------------------------
    def request_cancel(self, job_id: str) -> JobState:
        """Cancel a job: immediately if queued, cooperatively if running.

        Returns the job's state after the request (terminal states are
        left untouched — cancelling a finished job is a no-op).
        """
        job = self.registry.get(job_id)
        if job.state is JobState.QUEUED:
            if self.registry.try_transition(job_id, JobState.CANCELLED):
                return JobState.CANCELLED
            job = self.registry.get(job_id)  # lost the race to a worker
        if job.state is JobState.RUNNING:
            with self._state_lock:
                event = self._cancel.get(job_id)
            if event is not None:
                event.set()
        return self.registry.get(job_id).state

    def progress(self, job_id: str) -> Dict[str, Any]:
        """Latest progress snapshot and recent events of one job."""
        with self._state_lock:
            latest = self._latest.get(job_id)
            events = list(self._events.get(job_id, ()))
        return {"latest": latest, "events": events}

    def forget(self, job_id: str) -> None:
        """Drop a job's progress ring and last event (the job was pruned)."""
        with self._state_lock:
            self._events.pop(job_id, None)
            self._latest.pop(job_id, None)

    # ------------------------------------------------------------------
    # the worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        backend = get_backend(self.backend_name)
        try:
            while not self._stopping.is_set():
                job_id = self.queue.pop(timeout=0.2)
                if job_id is None:
                    if self._stopping.is_set() and len(self.queue) == 0:
                        return
                    continue
                # Claim the job; a cancel that beat us leaves it terminal
                # and the id is simply dropped (lazy queue removal).
                if not self.registry.try_transition(job_id,
                                                    JobState.RUNNING):
                    continue
                self._run_job(self.registry.get(job_id), backend)
        finally:
            backend.close()

    def _run_job(self, job: Job, backend) -> None:
        cancel = threading.Event()
        ring: deque = deque(maxlen=self._ring_size)
        with self._state_lock:
            self._cancel[job.id] = cancel
            self._events[job.id] = ring

        def observe(event: ProgressEvent) -> None:
            # Failpoint between store chunks: ``kind=crash`` kills the
            # daemon exactly where a real power cut could (the chunk that
            # just committed is durable, the journal says ``running``, and
            # the next daemon start re-queues + resumes); ``kind=error``
            # fails the job through the ordinary error path.
            failpoint("service.job.chunk")
            payload = event.to_dict()
            payload["ts"] = time.time()
            with self._state_lock:
                self._latest[job.id] = payload
                ring.append(payload)
            if cancel.is_set():
                # Raised between chunks: the chunk that just committed is
                # durable, nothing half-written follows.
                raise JobCancelled()

        study: Optional[Study] = None
        try:
            study = Study.from_spec(job.spec, backend=backend,
                                    cache=self.cache)
            study.run(store=self.data_root / job.store, progress=observe,
                      store_chunk_size=self.store_chunk_size)
        except JobCancelled:
            if self._stopping.is_set():
                # Daemon shutdown, not a user cancel: hand the job back to
                # the queue so the next start resumes it.
                self.registry.try_transition(
                    job.id, JobState.QUEUED, requeued=True,
                    failure="daemon stopped mid-run")
            else:
                self.registry.try_transition(job.id, JobState.CANCELLED)
        except ReproError as error:
            self.registry.try_transition(job.id, JobState.FAILED,
                                         error=str(error))
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            self.registry.try_transition(
                job.id, JobState.FAILED,
                error=f"{type(error).__name__}: {error}")
        else:
            self.registry.try_transition(job.id, JobState.DONE)
        finally:
            with self._state_lock:
                self._cancel.pop(job.id, None)
            if study is not None:
                study.close()  # no-op for the worker-owned backend
