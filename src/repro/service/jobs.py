"""Job model, state machine, and durable journal of the study daemon.

A submitted study spec becomes a :class:`Job`: identity, tenancy (the
``X-Client`` header), priority, the spec itself, and the path of the job's
:class:`~repro.study.store.RunStore` under the daemon's data root.  Every
job mutation — submission and each state transition — is one fsynced JSON
line in the append-only **jobs journal**, so a restarted daemon replays the
journal, finds jobs that were ``running`` when it died, and re-queues them;
the run store then resumes the actual work chunk-exactly.

The state machine::

    queued ──────► running ──────► done
      │               │ ├────────► failed
      │               │ └────────► cancelled
      └► cancelled    └► queued   (daemon restart re-queue only)

Transitions are validated under one registry lock, which is what makes a
racing cancel-vs-start well defined: exactly one of ``queued → running``
and ``queued → cancelled`` wins, and the loser observes the new state.
A condition over the same lock wakes status requests held until their
job ends (:meth:`JobRegistry.wait_until_terminal`) the moment a
transition is recorded.
"""

from __future__ import annotations

import enum
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.exceptions import ReproError
from repro.faults import crash_now, failpoint
from repro.study.store import open_for_append, read_committed_lines

__all__ = ["Job", "JobState", "JobJournal", "JobRegistry", "JobError"]


class JobError(ReproError):
    """Raised for invalid job operations (unknown id, bad transition)."""


class JobState(str, enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # "queued", not "JobState.QUEUED"
        return self.value


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.CANCELLED))

#: Allowed state transitions (see the module docstring's diagram).
_TRANSITIONS = {
    JobState.QUEUED: frozenset((JobState.RUNNING, JobState.CANCELLED)),
    JobState.RUNNING: frozenset(
        (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
         JobState.QUEUED)),  # running → queued is the restart re-queue
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


@dataclass
class Job:
    """One submitted study: spec, tenancy, priority, and durable state.

    ``store`` is the job's run-store directory *relative to the daemon's
    data root*; identical plans share a store (it is keyed by the plan
    fingerprint), which is what lets a cancelled job's resubmission resume
    from the chunks the first attempt committed.
    """

    id: str
    spec: Dict[str, Any]
    client: str
    priority: int
    state: JobState
    created: float
    submit_index: int
    store: str
    fingerprint: str
    cells: int
    total_tasks: int
    name: Optional[str] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    requeues: int = field(default=0)
    #: Most recent failure/requeue reason.  Unlike ``error`` (which only a
    #: terminal FAILED state carries), this survives recovery: a job that
    #: was re-queued after a daemon crash and then succeeded still shows
    #: why it flapped, so operators can spot unstable jobs from the
    #: listing without reading the journal.
    last_failure: Optional[str] = None

    @property
    def is_terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.state in TERMINAL_STATES

    @property
    def is_active(self) -> bool:
        """Whether the job still counts against its client's quota."""
        return not self.is_terminal

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (journal line and API payload)."""
        return {
            "id": self.id,
            "spec": self.spec,
            "client": self.client,
            "priority": self.priority,
            "state": self.state.value,
            "created": self.created,
            "submit_index": self.submit_index,
            "store": self.store,
            "fingerprint": self.fingerprint,
            "cells": self.cells,
            "total_tasks": self.total_tasks,
            "name": self.name,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "requeues": self.requeues,
            "last_failure": self.last_failure,
        }

    def summary(self) -> Dict[str, Any]:
        """The compact listing form (``GET /jobs``): everything but the spec."""
        row = self.to_dict()
        del row["spec"]
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "Job":
        """Rebuild a job from its :meth:`to_dict` form."""
        try:
            return cls(
                id=str(row["id"]),
                spec=dict(row["spec"]),
                client=str(row["client"]),
                priority=int(row["priority"]),
                state=JobState(row["state"]),
                created=float(row["created"]),
                submit_index=int(row["submit_index"]),
                store=str(row["store"]),
                fingerprint=str(row["fingerprint"]),
                cells=int(row["cells"]),
                total_tasks=int(row["total_tasks"]),
                name=row.get("name"),
                started=row.get("started"),
                finished=row.get("finished"),
                error=row.get("error"),
                requeues=int(row.get("requeues", 0)),
                last_failure=row.get("last_failure"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JobError(f"not a job record: {error}") from None


class JobJournal:
    """Append-only, fsynced JSONL journal of job events.

    Three event kinds: ``{"event": "submit", "job": {…}}`` records a new
    job in full, ``{"event": "state", "id", "state", "ts", …}`` records one
    transition, and ``{"event": "prune", "id", "ts"}`` records a terminal
    job garbage-collected by the TTL sweep (replay forgets the job, but
    ``submit_index`` numbering is preserved so resubmissions get fresh
    ids).  Like the run store's chunk log, a line is committed only
    once its trailing newline is on disk — a torn tail left by a kill is
    truncated away on the next open, an unreadable *committed* line raises.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[Dict[str, Any]]:
        """Yield every committed event, oldest first."""
        for line in read_committed_lines(self.path)[0]:
            try:
                event = json.loads(line.decode("utf-8"))
                str(event["event"])
            except (ValueError, KeyError) as error:
                raise JobError(
                    f"jobs journal {self.path} holds an unreadable "
                    f"committed entry: {error}; the journal is corrupt"
                ) from None
            yield event

    def open(self) -> None:
        """Open for appending, truncating any torn tail first.

        Creating the journal fsyncs its directory once, so the file
        itself, not just its later appends, survives a power cut.
        """
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open_for_append(self.path)

    def append(self, event: Mapping[str, Any]) -> None:
        """Durably append one event (fsynced before returning).

        Failpoint ``service.journal.append`` can fail the append cleanly
        (``kind=error``, nothing written) or tear it (``kind=torn``: half
        the line reaches disk and the process dies, exactly the crash
        window the torn-tail truncation in :meth:`open` repairs).
        """
        action = failpoint("service.journal.append")
        if self._handle is None:
            self.open()
        line = (json.dumps(dict(event), separators=(",", ":"))
                + "\n").encode("utf-8")
        if action is not None and action.kind == "torn":
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            crash_now(action)
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle (events stay durable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class JobRegistry:
    """Thread-safe job table backed by the journal.

    All mutation goes through :meth:`add` and :meth:`try_transition`, both
    of which append the corresponding journal event *before* publishing
    the in-memory change — a crash between the two replays to the same
    state the mutation committed.
    """

    def __init__(self, journal: JobJournal) -> None:
        self.journal = journal
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        #: Notified on every recorded transition and by
        #: :meth:`release_waiters`; held status requests sleep on it.
        self._changed = threading.Condition(self._lock)
        self._released = False
        self._next_index = 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def load(self) -> List[Job]:
        """Replay the journal and re-queue jobs interrupted mid-run.

        Returns the jobs that should (re-)enter the scheduler queue, in
        submission order: every job still ``queued``, plus every job found
        ``running`` — the daemon died under it — flipped back to
        ``queued`` (journalled, with its ``requeues`` count bumped).
        """
        with self._lock:
            for event in self.journal.replay():
                kind = event["event"]
                if kind == "submit":
                    job = Job.from_dict(event["job"])
                    self._jobs[job.id] = job
                    self._next_index = max(self._next_index,
                                           job.submit_index + 1)
                elif kind == "state":
                    job = self._jobs.get(str(event["id"]))
                    if job is None:
                        raise JobError(
                            f"jobs journal transitions unknown job "
                            f"{event.get('id')!r}; the journal is corrupt"
                        )
                    self._apply(job, event)
                elif kind == "prune":
                    self._jobs.pop(str(event["id"]), None)
            self.journal.open()
            pending: List[Job] = []
            for job in sorted(self._jobs.values(),
                              key=lambda j: j.submit_index):
                if job.state is JobState.RUNNING:
                    # The previous daemon died mid-job; its store holds the
                    # chunks that completed, so re-queue for a resume.
                    self._record_transition(job, JobState.QUEUED,
                                            requeued=True)
                if job.state is JobState.QUEUED:
                    pending.append(job)
            return pending

    @staticmethod
    def _apply(job: Job, event: Mapping[str, Any]) -> None:
        job.state = JobState(event["state"])
        if "started" in event:
            job.started = event["started"]
        if "finished" in event:
            job.finished = event["finished"]
        if event.get("error") is not None:
            job.error = str(event["error"])
            job.last_failure = str(event["error"])
        if event.get("requeued"):
            job.requeues += 1
            job.last_failure = str(
                event.get("failure") or "daemon restarted mid-run")

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, job: Job) -> None:
        """Journal and publish a freshly submitted job."""
        with self._lock:
            if job.id in self._jobs:
                raise JobError(f"duplicate job id {job.id!r}")
            self.journal.append({"event": "submit", "job": job.to_dict()})
            self._jobs[job.id] = job
            self._next_index = max(self._next_index, job.submit_index + 1)

    def next_index(self) -> int:
        """Reserve the next submission index (also names the job)."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
            return index

    def try_transition(self, job_id: str, state: JobState, *,
                       error: Optional[str] = None,
                       requeued: bool = False,
                       failure: Optional[str] = None) -> bool:
        """Atomically move a job to ``state`` if the move is legal.

        Returns ``False`` (without journalling) when the job is not in a
        state that allows the transition — the caller lost a race (e.g.
        cancel beat start) and should re-read the job.  Raises for an
        unknown job id.  ``failure`` records a requeue reason in the
        job's ``last_failure`` without marking it failed.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            if state not in _TRANSITIONS[job.state]:
                return False
            self._record_transition(job, state, error=error,
                                    requeued=requeued, failure=failure)
            return True

    def _record_transition(self, job: Job, state: JobState, *,
                           error: Optional[str] = None,
                           requeued: bool = False,
                           failure: Optional[str] = None) -> None:
        event: Dict[str, Any] = {
            "event": "state",
            "id": job.id,
            "state": state.value,
            "ts": time.time(),
        }
        if state is JobState.RUNNING:
            event["started"] = event["ts"]
        if state in TERMINAL_STATES:
            event["finished"] = event["ts"]
        if error is not None:
            event["error"] = error
        if requeued:
            event["requeued"] = True
        if failure is not None:
            event["failure"] = failure
        self.journal.append(event)
        self._apply(job, event)
        self._changed.notify_all()

    def prune(self, job_id: str) -> Job:
        """Journal and forget a *terminal* job (the TTL garbage collector).

        The prune event is appended before the in-memory removal, so a
        crash between the two replays to the pruned state.  Returns the
        removed job so the caller can delete its on-disk artifacts.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            if not job.is_terminal:
                raise JobError(
                    f"job {job_id} is {job.state}; only done/failed/"
                    f"cancelled jobs can be pruned"
                )
            self.journal.append({"event": "prune", "id": job.id,
                                 "ts": time.time()})
            del self._jobs[job.id]
            return job

    def wait_until_terminal(self, job_id: str, timeout: float) -> None:
        """Block until the job ends or ``timeout`` seconds pass.

        Returns at once for a terminal job, and once :meth:`release_waiters`
        was called; the caller reads the job's status afterwards.  Raises
        :class:`JobError` for an unknown id.  (Only terminal jobs are
        pruned, so a pruned job has no wait left to end.)
        """
        with self._changed:
            job = self.get(job_id)
            self._changed.wait_for(
                lambda: job.is_terminal or self._released, timeout)

    def release_waiters(self) -> None:
        """End every held wait now, and every later one at once (shutdown)."""
        with self._changed:
            self._released = True
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (raises :class:`JobError` if unknown)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            return job

    def jobs(self, *, client: Optional[str] = None,
             state: Optional[JobState] = None) -> List[Job]:
        """All jobs (optionally filtered), in submission order."""
        with self._lock:
            selected = [
                job for job in self._jobs.values()
                if (client is None or job.client == client)
                and (state is None or job.state is state)
            ]
        return sorted(selected, key=lambda j: j.submit_index)

    def active_count(self, client: str) -> int:
        """Queued + running jobs of one client (the quota measure)."""
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.client == client and job.is_active)

    def state_counts(self) -> Dict[str, int]:
        """Number of jobs per state (the health endpoint's payload)."""
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts
