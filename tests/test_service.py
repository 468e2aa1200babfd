"""End-to-end tests for the study service (daemon, HTTP API, recovery).

The contract under test is the PR's acceptance criterion: a job running
under the daemon survives cancellation, daemon restarts, and a hard
``kill -9``, and in every case the results finally served are **byte
identical** (``to_json``) to the same study run uninterrupted in the
foreground.  Around that sit the API-surface tests: structured 400s for
bad specs, 429 quota rejection, 409 before completion, and the progress
wire format's schema pin.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import (
    ConfigurationError,
    ReproError,
    SpecValidationError,
    StoreError,
)
from repro.service import (
    JobJournal,
    JobRegistry,
    JobState,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    StudyDaemon,
)
from repro.service.httpapi import ServiceRequestHandler
from repro.service.jobqueue import JobQueue
from repro.service.jobs import Job
from repro.study.store import ProgressEvent, RunStore
from repro.study.study import Study

ROOT = Path(__file__).resolve().parents[1]

SMALL_SYSTEM = {"data_qubits_per_node": 16, "comm_qubits_per_node": 4,
                "buffer_qubits_per_node": 4}


def small_spec(**overrides):
    """A spec that finishes in well under a second (6 tasks)."""
    spec = {"benchmarks": ["TLIM-32"], "designs": ["ideal", "original"],
            "num_runs": 3, "system": dict(SMALL_SYSTEM)}
    spec.update(overrides)
    return spec


def slow_spec():
    """A spec with enough chunk-1 tasks to interrupt mid-run reliably."""
    return {"benchmarks": ["TLIM-32", "QAOA-r4-16"],
            "designs": ["ideal", "original"],
            "num_runs": 32, "system": dict(SMALL_SYSTEM)}


def foreground_json(spec):
    """The uninterrupted in-memory run the service must reproduce."""
    with Study.from_spec(spec) as study:
        return study.run().to_json()


@pytest.fixture(scope="module")
def slow_baseline():
    return foreground_json(slow_spec())


@pytest.fixture
def daemon(tmp_path):
    instance = StudyDaemon(ServiceConfig(
        data_root=tmp_path / "svc", port=0, store_chunk_size=1))
    instance.start()
    yield instance
    instance.stop(timeout=5)


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.address, client="tester")


@pytest.fixture
def idle_daemon(tmp_path, monkeypatch):
    """A daemon whose scheduler never starts: jobs stay queued forever,
    which makes the queued-state API behaviour deterministic."""
    instance = StudyDaemon(ServiceConfig(
        data_root=tmp_path / "svc", port=0, max_jobs_per_client=2))
    monkeypatch.setattr(instance.scheduler, "start", lambda: None)
    instance.start()
    yield instance
    instance.stop(timeout=1)


@pytest.fixture
def idle_client(idle_daemon):
    return ServiceClient(idle_daemon.address, client="tester")


def poll_until(condition, timeout=60.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


# ----------------------------------------------------------------------
# satellite: the progress wire format is pinned and round-trips
# ----------------------------------------------------------------------
class TestProgressEventWireFormat:
    EVENT = ProgressEvent(done_chunks=3, total_chunks=12, done_tasks=6,
                          total_tasks=24, resumed_chunks=1, resumed_tasks=2,
                          elapsed=1.2345678)

    def test_schema_is_pinned(self):
        # The service status endpoint serves exactly these keys; renaming
        # or dropping one breaks deployed pollers.  Extend, don't mutate.
        assert set(self.EVENT.to_dict()) == {
            "event", "done_chunks", "total_chunks", "done_tasks",
            "total_tasks", "resumed_chunks", "resumed_tasks", "elapsed",
            "runs_per_second", "complete",
        }
        assert self.EVENT.to_dict()["event"] == "progress"

    def test_round_trip(self):
        rebuilt = ProgressEvent.from_dict(self.EVENT.to_dict())
        assert rebuilt.done_chunks == self.EVENT.done_chunks
        assert rebuilt.total_chunks == self.EVENT.total_chunks
        assert rebuilt.done_tasks == self.EVENT.done_tasks
        assert rebuilt.total_tasks == self.EVENT.total_tasks
        assert rebuilt.resumed_chunks == self.EVENT.resumed_chunks
        assert rebuilt.resumed_tasks == self.EVENT.resumed_tasks
        assert rebuilt.elapsed == pytest.approx(self.EVENT.elapsed, abs=1e-3)
        # Derived fields are recomputed, not trusted from the payload.
        assert rebuilt.complete is False
        assert rebuilt.executed_tasks == 4

    def test_round_trip_survives_json(self):
        payload = json.loads(json.dumps(self.EVENT.to_dict()))
        assert ProgressEvent.from_dict(payload).done_tasks == 6

    def test_bad_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="progress-event"):
            ProgressEvent.from_dict({"done_chunks": 1})


# ----------------------------------------------------------------------
# satellite: lock contention names the holder
# ----------------------------------------------------------------------
class TestLockContentionDiagnosis:
    def test_error_names_pid_path_and_status_hint(self, tmp_path):
        store_dir = tmp_path / "st"
        cells = [{"benchmark": "TLIM-32", "design": "ideal", "num_seeds": 2}]
        holder = RunStore(store_dir)
        holder.begin("f" * 64, {}, cells)
        try:
            contender = RunStore(store_dir)
            with pytest.raises(StoreError) as excinfo:
                contender.begin("f" * 64, {}, cells)
            message = str(excinfo.value)
            assert f"held by PID {os.getpid()}" in message
            assert str(store_dir) in message
            assert f"repro status --store {store_dir}" in message
        finally:
            holder.release()

    def test_lock_released_after_run(self, tmp_path):
        store_dir = tmp_path / "st"
        with Study.from_spec(small_spec()) as study:
            study.run(store=store_dir)
        # A released lock means the next begin() succeeds immediately.
        reopened = RunStore(store_dir)
        reopened.begin(json.loads((store_dir / "manifest.json").read_text())
                       ["fingerprint"], {}, [])
        reopened.release()


# ----------------------------------------------------------------------
# the job state machine and journal recovery (unit level)
# ----------------------------------------------------------------------
def make_job(index=0, state=JobState.QUEUED, client="tester", priority=0):
    return Job(id=f"job-{index + 1:06d}", spec=small_spec(), client=client,
               priority=priority, state=state, created=0.0,
               submit_index=index, store="stores/abc", fingerprint="f" * 64,
               cells=2, total_tasks=6)


class TestJobRegistry:
    def test_illegal_transitions_rejected(self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        registry.add(make_job())
        assert not registry.try_transition("job-000001", JobState.DONE)
        assert registry.try_transition("job-000001", JobState.RUNNING)
        assert registry.try_transition("job-000001", JobState.DONE)
        # Terminal states are sticky.
        assert not registry.try_transition("job-000001", JobState.QUEUED)

    def test_cancel_vs_start_race_is_atomic(self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        registry.add(make_job())
        assert registry.try_transition("job-000001", JobState.CANCELLED)
        # The worker that pops the id afterwards loses the claim.
        assert not registry.try_transition("job-000001", JobState.RUNNING)

    def test_every_held_wait_wakes_when_its_job_ends(self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        ids = []
        for index in range(8):
            registry.add(make_job(index))
            ids.append(f"job-{index + 1:06d}")
        woke = {}

        def hold(job_id):
            registry.wait_until_terminal(job_id, 30)
            woke[job_id] = registry.get(job_id).state

        threads = [threading.Thread(target=hold, args=(job_id,), daemon=True)
                   for job_id in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for job_id in ids:
                registry.try_transition(job_id, JobState.RUNNING)
                registry.try_transition(job_id, JobState.DONE)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert woke == {job_id: JobState.DONE for job_id in ids}

    def test_restart_requeues_running_jobs(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        registry = JobRegistry(journal)
        registry.load()
        registry.add(make_job(0))
        registry.add(make_job(1))
        registry.try_transition("job-000001", JobState.RUNNING)
        registry.try_transition("job-000002", JobState.RUNNING)
        registry.try_transition("job-000002", JobState.DONE)
        journal.close()

        revived = JobRegistry(JobJournal(tmp_path / "j"))
        pending = revived.load()
        assert [job.id for job in pending] == ["job-000001"]
        assert pending[0].state is JobState.QUEUED
        assert pending[0].requeues == 1
        assert revived.get("job-000002").state is JobState.DONE
        assert revived.next_index() == 2

    def test_torn_journal_tail_is_discarded(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        registry = JobRegistry(journal)
        registry.load()
        registry.add(make_job())
        journal.close()
        with open(tmp_path / "j", "ab") as handle:
            handle.write(b'{"event": "state", "id": "job-0')  # no newline

        revived = JobRegistry(JobJournal(tmp_path / "j"))
        pending = revived.load()
        assert [job.id for job in pending] == ["job-000001"]
        assert pending[0].state is JobState.QUEUED

    def test_journal_creation_fsyncs_its_directory_once(
            self, tmp_path, directory_fsyncs):
        journal = JobJournal(tmp_path / "j")
        registry = JobRegistry(journal)
        registry.load()
        registry.add(make_job())
        assert directory_fsyncs(tmp_path) == directory_fsyncs() == 1
        registry.try_transition("job-000001", JobState.RUNNING)
        journal.close()
        reopened = JobRegistry(JobJournal(tmp_path / "j"))
        reopened.load()
        reopened.try_transition("job-000001", JobState.DONE)
        assert directory_fsyncs() == 1

    def test_active_count_is_queued_plus_running(self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        registry.add(make_job(0))
        registry.add(make_job(1))
        registry.add(make_job(2, client="other"))
        registry.try_transition("job-000001", JobState.RUNNING)
        assert registry.active_count("tester") == 2
        registry.try_transition("job-000001", JobState.DONE)
        assert registry.active_count("tester") == 1
        assert registry.active_count("other") == 1


class TestJobQueue:
    def test_priority_then_submission_order(self):
        queue = JobQueue()
        queue.push(make_job(0, priority=0))
        queue.push(make_job(1, priority=5))
        queue.push(make_job(2, priority=0))
        assert queue.pop(timeout=1) == "job-000002"  # highest priority
        assert queue.pop(timeout=1) == "job-000001"  # then FIFO
        assert queue.pop(timeout=1) == "job-000003"

    def test_closed_queue_unblocks_pop(self):
        queue = JobQueue()
        queue.close()
        assert queue.pop(timeout=5) is None


# ----------------------------------------------------------------------
# HTTP API surface (live in-process daemon)
# ----------------------------------------------------------------------
class TestSubmitPollFetch:
    def test_lifecycle_json_and_csv(self, client):
        spec = small_spec()
        job = client.submit(spec)
        assert job["id"].startswith("job-")
        assert job["total_tasks"] == 6
        status = client.wait(job["id"], timeout=60)
        assert status["state"] == "done"
        assert status["progress"]["latest"]["complete"] is True
        assert status["resume_point"]["done_chunks"] == 6

        fetched = client.results(job["id"], "json")
        assert fetched == foreground_json(spec)
        csv_text = client.results(job["id"], "csv")
        assert csv_text.splitlines()[0].startswith("benchmark,")
        assert len(csv_text.splitlines()) == 7  # header + 6 runs

    def test_health_and_listing(self, client):
        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        listing = client.jobs()
        assert [row["id"] for row in listing["jobs"]] == [job["id"]]
        assert "spec" not in listing["jobs"][0]
        assert listing["quota"] == {"client": "tester", "active": 0,
                                    "limit": 16}

    def test_repeat_submission_resumes_from_shared_store(self, client):
        spec = small_spec()
        first = client.submit(spec)
        client.wait(first["id"], timeout=60)
        again = client.submit(spec)
        status = client.wait(again["id"], timeout=60)
        assert status["state"] == "done"
        # Same plan → same store → zero new work, all chunks resumed.
        assert status["progress"]["latest"]["resumed_chunks"] == 6
        assert client.results(again["id"]) == client.results(first["id"])

    def test_status_body_is_one_json_line(self, daemon, client):
        # Compact JSON (the C encoder), not an indented document.
        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        url = f"{daemon.address}/jobs/{job['id']}"
        with urllib.request.urlopen(url) as response:
            body = response.read().decode("utf-8")
        assert body.count("\n") == 1 and body.endswith("\n")
        assert json.loads(body)["state"] == "done"


class TestApiErrors:
    def test_malformed_spec_is_structured_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_spec(bogus=1))
        assert excinfo.value.status == 400
        payload = excinfo.value.payload
        assert payload["error"] == "invalid-spec"
        assert payload["field"] == "bogus"
        assert "benchmarks" in payload["allowed"]

    def test_bad_design_reports_allowed_values(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_spec(designs=["no-such-design"]))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "designs"
        assert "ideal" in excinfo.value.payload["allowed"]

    def test_negative_seed_is_structured_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_spec(base_seed=-5000))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "base_seed"
        # A fractional run count is refused, not truncated to 2 runs.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_spec(num_runs=2.5))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "num_runs"

    def test_non_object_body_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", body=None,
                            headers={"Content-Type": "application/json"})
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "unknown-job"

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_results_format_400(self, client):
        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServiceError) as excinfo:
            client.results(job["id"], "xml")
        assert excinfo.value.status == 400

    def test_bad_state_filter_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.jobs(state="bogus")
        assert excinfo.value.status == 400


def drop_after_request(reset):
    """A one-connection server that reads a request, then closes the socket.

    With ``reset`` it closes with ``SO_LINGER`` 0, so the client sees a
    connection reset instead of an orderly end of stream.  Returns the
    server's URL and its thread.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        with listener:
            connection, _ = listener.accept()
            with connection:
                request = b""
                while b"\r\n\r\n" not in request:
                    data = connection.recv(65536)
                    if not data:
                        break
                    request += data
                if reset:
                    connection.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_LINGER,
                                          struct.pack("ii", 1, 0))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", thread


class TestClientConnectionErrors:
    @pytest.mark.parametrize("reset", [False, True], ids=["closed", "reset"])
    @pytest.mark.parametrize("call", [
        lambda client: client.health(),
        lambda client: client.job("job-1"),
        lambda client: client.job("job-1", wait=1.0),
    ], ids=["health", "job", "held-job"])
    def test_dropped_connection_is_an_unreachable_error(self, reset, call):
        url, server = drop_after_request(reset)
        with pytest.raises(ServiceError) as caught:
            call(ServiceClient(url, client="tester", timeout=10))
        server.join(timeout=10)
        assert caught.value.status == 0
        assert caught.value.payload["error"] == "unreachable"


class TestQueuedJobs:
    def test_results_before_done_409(self, idle_client):
        job = idle_client.submit(small_spec())
        with pytest.raises(ServiceError) as excinfo:
            idle_client.results(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "job-not-ready"
        assert excinfo.value.payload["state"] == "queued"

    def test_cancel_queued_job_is_immediate(self, idle_client):
        job = idle_client.submit(small_spec())
        assert idle_client.cancel(job["id"])["state"] == "cancelled"
        assert idle_client.job(job["id"])["state"] == "cancelled"

    def test_quota_rejection_and_release(self, idle_client):
        first = idle_client.submit(small_spec())
        idle_client.submit(small_spec(num_runs=4))
        with pytest.raises(ServiceError) as excinfo:
            idle_client.submit(small_spec(num_runs=5))
        assert excinfo.value.status == 429
        payload = excinfo.value.payload
        assert payload["error"] == "quota-exceeded"
        assert payload["active"] == payload["limit"] == 2
        # Another tenant is unaffected; cancelling frees the caller's slot.
        other = ServiceClient(idle_client.url, client="other")
        other.submit(small_spec(num_runs=6))
        idle_client.cancel(first["id"])
        idle_client.submit(small_spec(num_runs=5))


# ----------------------------------------------------------------------
# held status requests: GET /jobs/<id>?wait=<s> answers when the job ends
# ----------------------------------------------------------------------
def hold_in_thread(client, job_id, wait=60.0):
    """Send ``GET /jobs/<id>?wait=`` from a thread; returns (thread, box)."""
    box = []
    thread = threading.Thread(
        target=lambda: box.append(client.job(job_id, wait=wait)),
        daemon=True)
    thread.start()
    return thread, box


def assert_held_then_answered(thread, box, end_hold, within=10.0):
    """The request is still held, then answers soon after ``end_hold()``."""
    time.sleep(0.3)
    assert thread.is_alive(), f"request answered at once: {box[0]['state']}"
    ended = time.monotonic()
    end_hold()
    thread.join(timeout=within)
    assert not thread.is_alive(), "held request never answered"
    return box[0], time.monotonic() - ended


def get_status(url, job_id, query):
    """``GET /jobs/<id>?<query>`` as (HTTP status, payload, seconds)."""
    started = time.monotonic()
    try:
        with urllib.request.urlopen(f"{url}/jobs/{job_id}?{query}",
                                    timeout=30) as response:
            code, payload = response.status, json.load(response)
    except urllib.error.HTTPError as error:
        code, payload = error.code, json.load(error)
    return code, payload, time.monotonic() - started


def slow_down_chunks(monkeypatch, seconds=0.05):
    """Pause every job for ``seconds`` after each chunk it commits."""
    run = Study.run

    def slowed(study, *args, progress, **kwargs):
        def observe(event):
            progress(event)
            time.sleep(seconds)
        return run(study, *args, progress=observe, **kwargs)

    monkeypatch.setattr(Study, "run", slowed)


def count_status_builds(daemon, monkeypatch):
    """Record the time of every status the daemon builds."""
    stamps = []
    original = daemon.job_status

    def counting(job_id):
        stamps.append(time.monotonic())
        return original(job_id)

    monkeypatch.setattr(daemon, "job_status", counting)
    return stamps


class TestHeldStatusRequests:
    def test_wait_returns_when_the_job_ends_not_after_a_poll(
            self, daemon, client, monkeypatch):
        stamps = count_status_builds(daemon, monkeypatch)
        started = time.monotonic()
        job = client.submit(small_spec(designs=["original"]))
        status = client.wait(job["id"], timeout=60, poll=30)
        assert status["state"] == "done"
        assert time.monotonic() - started < 10
        assert 1 <= len(stamps) <= 2

    def test_cancel_of_a_running_job_answers_the_hold(
            self, daemon, client, monkeypatch):
        slow_down_chunks(monkeypatch)
        job = client.submit(slow_spec())
        poll_until(lambda: daemon.scheduler.progress(job["id"])["latest"])
        thread, box = hold_in_thread(client, job["id"])
        status, _ = assert_held_then_answered(
            thread, box, lambda: client.cancel(job["id"]))
        assert status["state"] == "cancelled"

    def test_failure_of_a_running_job_answers_the_hold(
            self, daemon, client, monkeypatch):
        fail = threading.Event()

        def failing_run(study, *args, **kwargs):
            fail.wait(30)
            raise ReproError("injected run failure")

        monkeypatch.setattr(Study, "run", failing_run)
        job = client.submit(small_spec())
        poll_until(lambda: client.job(job["id"])["state"] == "running")
        thread, box = hold_in_thread(client, job["id"])
        status, _ = assert_held_then_answered(thread, box, fail.set)
        assert status["state"] == "failed"
        assert status["error"] == "injected run failure"

    def test_daemon_stop_answers_the_hold_with_the_current_state(
            self, idle_daemon, idle_client):
        job = idle_client.submit(small_spec())
        thread, box = hold_in_thread(idle_client, job["id"])
        status, seconds = assert_held_then_answered(
            thread, box, lambda: idle_daemon.stop(timeout=5), within=1.0)
        assert status["state"] == "queued"
        assert seconds < 1.0

    def test_immediate_answers_and_rejected_waits(self, idle_client):
        url = idle_client.url
        queued = idle_client.submit(small_spec())["id"]
        ended = idle_client.submit(small_spec(num_runs=4))["id"]
        idle_client.cancel(ended)
        code, payload, seconds = get_status(url, queued, "wait=0")
        assert (code, payload["state"]) == (200, "queued")
        assert seconds < 5
        for wait in ("0", "0.5", "60", "1e9"):
            code, payload, seconds = get_status(url, ended, f"wait={wait}")
            assert (code, payload["state"]) == (200, "cancelled")
            assert seconds < 5
        code, payload, seconds = get_status(url, "job-999999", "wait=60")
        assert (code, payload["error"]) == (404, "unknown-job")
        assert seconds < 5
        for wait in ("-1", "abc", "nan"):
            code, payload, _ = get_status(url, queued, f"wait={wait}")
            assert (code, payload["error"]) == (400, "invalid-wait")

    def test_wait_polls_a_daemon_that_ignores_wait(
            self, daemon, client, monkeypatch):
        original = ServiceRequestHandler._get_job
        monkeypatch.setattr(
            ServiceRequestHandler, "_get_job",
            lambda handler, job_id, query: original(handler, job_id, {}))
        stamps = count_status_builds(daemon, monkeypatch)
        release = threading.Event()
        run = Study.run

        def gated_run(study, *args, **kwargs):
            release.wait(30)
            return run(study, *args, **kwargs)

        monkeypatch.setattr(Study, "run", gated_run)
        job = client.submit(small_spec())
        box = []
        waiter = threading.Thread(
            target=lambda: box.append(
                client.wait(job["id"], timeout=60, poll=0.1)),
            daemon=True)
        waiter.start()
        poll_until(lambda: len(stamps) >= 3)
        release.set()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert box[0]["state"] == "done"
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert min(gaps) >= 0.1


# ----------------------------------------------------------------------
# a finished job costs one read: status from live progress, results from
# one read of the store
# ----------------------------------------------------------------------
class TestFinishedJobCostsOneRead:
    def test_status_of_running_and_done_jobs_never_loads_the_store(
            self, daemon, client, monkeypatch):
        job = client.submit(slow_spec())
        poll_until(lambda: daemon.scheduler.progress(job["id"])["latest"])
        loads = []
        original = RunStore.load.__func__
        monkeypatch.setattr(RunStore, "load", classmethod(
            lambda cls, path: loads.append(path) or original(cls, path)))
        states = set()
        while True:
            status = client.job(job["id"])
            states.add(status["state"])
            latest = status["progress"]["latest"]
            assert status["resume_point"] == {
                key: latest[key] for key in status["resume_point"]}
            if status["state"] == "done":
                break
            time.sleep(0.01)
        assert states == {"running", "done"}
        assert loads == []
        assert status["resume_point"]["complete"] is True
        assert status["resume_point"]["done_chunks"] == 128

    def test_job_without_live_progress_reports_the_store(self, tmp_path):
        data_root = tmp_path / "svc"
        first = StudyDaemon(ServiceConfig(data_root=data_root, port=0,
                                          store_chunk_size=1))
        first.start()
        try:
            client = ServiceClient(first.address, client="tester")
            job = client.submit(small_spec())
            assert client.wait(job["id"], timeout=60)["state"] == "done"
        finally:
            first.stop(timeout=30)
        # A restarted daemon has no live progress for the finished job.
        second = StudyDaemon(ServiceConfig(data_root=data_root, port=0))
        second.start()
        try:
            status = second.job_status(job["id"])
        finally:
            second.stop(timeout=5)
        assert status["resume_point"] == {
            "done_chunks": 6, "total_chunks": 6, "done_tasks": 6,
            "total_tasks": 6, "complete": True}
        assert status["progress"]["latest"] == status["resume_point"]

    def test_fetches_return_one_stores_bytes(self, daemon, client,
                                             monkeypatch):
        # Specs that differ only in name share one store, and serve the
        # metadata that store recorded: the first job's.
        first = client.submit(small_spec(name="first"))
        second = client.submit(small_spec(name="second"))
        for job in (first, second):
            assert client.wait(job["id"], timeout=60)["state"] == "done"
        assert first["store"] == second["store"]
        reads = []
        original = RunStore.load_results
        monkeypatch.setattr(
            RunStore, "load_results",
            lambda self, *a, **k: reads.append(1) or original(self, *a, **k))
        fetched = [client.results(first["id"]), client.results(first["id"]),
                   client.results(second["id"])]
        assert len(reads) == 3
        assert fetched[0] == fetched[1] == fetched[2]
        assert fetched[0] == foreground_json(small_spec(name="first"))


# ----------------------------------------------------------------------
# cancellation mid-sweep, then resubmit resumes
# ----------------------------------------------------------------------
class TestCancelAndResume:
    def test_cancel_mid_run_then_resubmit_resumes(self, client,
                                                  slow_baseline):
        spec = slow_spec()
        job = client.submit(spec)

        def mid_run():
            latest = client.job(job["id"])["progress"]["latest"]
            return latest if latest and latest["done_chunks"] >= 2 else None

        poll_until(mid_run)
        client.cancel(job["id"])
        status = client.wait(job["id"], timeout=60)
        assert status["state"] == "cancelled"
        resume = status["resume_point"]
        assert 0 < resume["done_chunks"] < resume["total_chunks"]
        with pytest.raises(ServiceError) as excinfo:
            client.results(job["id"])
        assert excinfo.value.status == 409

        # Resubmitting the identical spec lands on the same store and
        # resumes from the committed chunks rather than starting over.
        retry = client.submit(spec)
        status = client.wait(retry["id"], timeout=120)
        assert status["state"] == "done"
        assert status["progress"]["latest"]["resumed_chunks"] >= 2
        assert client.results(retry["id"]) == slow_baseline


# ----------------------------------------------------------------------
# the acceptance criterion: kill -9 the daemon, restart, byte-identical
# ----------------------------------------------------------------------
def read_line_with_deadline(stream, timeout=60.0):
    box = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    assert box and box[0], "daemon never announced its address"
    return box[0]


class TestKillDashNineRecovery:
    def test_killed_daemon_restart_finishes_byte_identical(
            self, tmp_path, slow_baseline):
        data_root = tmp_path / "svc"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-root", str(data_root), "--port", "0",
             "--store-chunk-size", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = read_line_with_deadline(process.stdout)
            assert "repro service listening on " in banner
            url = banner.split()[4]
            client = ServiceClient(url, client="tester", timeout=10)
            job = client.submit(slow_spec())

            def mid_run():
                latest = client.job(job["id"])["progress"]["latest"]
                return latest if latest and latest["done_chunks"] >= 2 else None

            interrupted_at = poll_until(mid_run)
            assert not interrupted_at["complete"]
        finally:
            process.kill()  # SIGKILL: no cleanup, no cooperative anything
            process.wait(timeout=30)

        # A fresh daemon on the same data root replays the journal, finds
        # the job that was running when the process died, re-queues it,
        # and the run store resumes it chunk-exactly.
        revived = StudyDaemon(ServiceConfig(
            data_root=data_root, port=0, store_chunk_size=1))
        revived.start()
        try:
            client = ServiceClient(revived.address, client="tester")
            status = client.wait(job["id"], timeout=120)
            assert status["state"] == "done"
            assert status["requeues"] >= 1
            assert status["progress"]["latest"]["resumed_chunks"] >= 2
            assert client.results(job["id"]) == slow_baseline
        finally:
            revived.stop(timeout=5)


# ----------------------------------------------------------------------
# graceful shutdown re-queues (in-process restart)
# ----------------------------------------------------------------------
class TestGracefulRestart:
    def test_stop_and_restart_same_data_root(self, tmp_path):
        data_root = tmp_path / "svc"
        spec = small_spec()
        first = StudyDaemon(ServiceConfig(data_root=data_root, port=0,
                                          store_chunk_size=1))
        first.start()
        try:
            job = ServiceClient(first.address, client="tester").submit(spec)
        finally:
            first.stop(timeout=30)

        second = StudyDaemon(ServiceConfig(data_root=data_root, port=0,
                                           store_chunk_size=1))
        second.start()
        try:
            client = ServiceClient(second.address, client="tester")
            status = client.wait(job["id"], timeout=60)
            assert status["state"] == "done"
            assert client.results(job["id"]) == foreground_json(spec)
        finally:
            second.stop(timeout=5)

    def test_a_stopped_daemon_refuses_to_start(self, tmp_path):
        # stop() closed the queue and the journal: a restarted object
        # would answer /healthz and fail every submit.
        daemon = StudyDaemon(ServiceConfig(data_root=tmp_path / "svc",
                                           port=0))
        daemon.start()
        daemon.stop(timeout=5)
        with pytest.raises(ReproError, match="start a new StudyDaemon"):
            daemon.start()


class TestPromptStop:
    def test_idle_daemon_stops_within_the_serve_poll(self, tmp_path):
        spent = 0.0
        for _ in range(10):
            daemon = StudyDaemon(ServiceConfig(data_root=tmp_path / "svc",
                                               port=0))
            daemon.start()
            started = time.monotonic()
            daemon.stop(timeout=5)
            spent += time.monotonic() - started
        assert spent < 1.0


# ----------------------------------------------------------------------
# satellite: /healthz as the operator's one-glance view
# ----------------------------------------------------------------------
class TestHealthzOperatorView:
    def test_health_reports_queue_and_state_counts(self, client):
        health = client.health()
        assert health["queue_depth"] == 0
        assert health["running"] == 0
        assert health["done"] == 0
        assert set(health) == {"status", "uptime", "queued", "queue_depth",
                               "running", "done", "failed", "jobs",
                               "data_root"}
        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        health = client.health()
        assert health["done"] == 1
        assert health["jobs"]["done"] == 1

    def test_queued_jobs_show_in_queue_depth(self, idle_client):
        idle_client.submit(small_spec())
        idle_client.submit(small_spec(num_runs=2))
        health = idle_client.health()
        assert health["queue_depth"] == 2
        assert health["jobs"]["queued"] == 2

    def test_jobs_cli_header_line(self, client, capsys):
        from repro.study.cli import main as cli_main

        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        assert cli_main(["jobs", "--url", client.url]) == 0
        out = capsys.readouterr().out
        assert "service: 0 queued, 0 running, 1 done" in out.splitlines()[0]


# ----------------------------------------------------------------------
# satellite: job TTL and store garbage collection
# ----------------------------------------------------------------------
class TestJobTTLPrune:
    def test_prune_without_ttl_rejected(self, daemon):
        with pytest.raises(ConfigurationError, match="TTL"):
            daemon.prune()

    def test_prune_spares_active_jobs(self, idle_daemon):
        ServiceClient(idle_daemon.address, client="tester").submit(
            small_spec())
        report = idle_daemon.prune(ttl=0)
        assert report == {"pruned": [], "stores_removed": []}

    def test_prune_removes_job_dir_store_and_journal_entry(self, daemon):
        client = ServiceClient(daemon.address, client="tester")
        job = client.submit(small_spec())
        done = client.wait(job["id"], timeout=60)
        store_dir = daemon.data_root / done["store"]
        job_dir = daemon.data_root / "jobs" / job["id"]
        assert store_dir.is_dir() and job_dir.is_dir()

        report = daemon.prune(ttl=0)
        assert report["pruned"] == [job["id"]]
        assert report["stores_removed"] == [done["store"]]
        assert not job_dir.exists()
        assert not store_dir.exists()
        with pytest.raises(ServiceError):
            client.job(job["id"])
        events = [json.loads(line)["event"]
                  for line in (daemon.data_root / "jobs.journal")
                  .read_text().splitlines()]
        assert "prune" in events

    def test_prune_drops_the_jobs_progress(self, daemon):
        client = ServiceClient(daemon.address, client="tester")
        job = client.submit(small_spec())
        client.wait(job["id"], timeout=60)
        assert daemon.scheduler.progress(job["id"])["latest"] is not None
        daemon.prune(ttl=0)
        assert job["id"] not in daemon.scheduler._events
        assert job["id"] not in daemon.scheduler._latest
        assert daemon.scheduler.progress(job["id"]) == {
            "latest": None, "events": []}
        assert not (daemon.data_root / job["store"]).exists()

    def test_prune_survives_restart(self, tmp_path):
        data_root = tmp_path / "svc"
        daemon = StudyDaemon(ServiceConfig(data_root=data_root, port=0,
                                           store_chunk_size=1))
        daemon.start()
        try:
            client = ServiceClient(daemon.address, client="tester")
            job = client.submit(small_spec())
            client.wait(job["id"], timeout=60)
            daemon.prune(ttl=0)
        finally:
            daemon.stop(timeout=5)
        # The journal replay must forget the pruned job too.
        reborn = StudyDaemon(ServiceConfig(data_root=data_root, port=0,
                                           store_chunk_size=1))
        reborn.start()
        try:
            listing = ServiceClient(reborn.address, client="tester").jobs()
            assert listing["jobs"] == []
        finally:
            reborn.stop(timeout=5)

    def test_pruned_spec_resubmits_fresh_and_recomputes(self, daemon):
        client = ServiceClient(daemon.address, client="tester")
        spec = small_spec()
        first = client.submit(spec)
        client.wait(first["id"], timeout=60)
        baseline = client.results(first["id"])
        daemon.prune(ttl=0)

        again = client.submit(spec)
        # Job ids are never recycled: the submit-index replay includes
        # pruned submissions.
        assert again["id"] != first["id"]
        status = client.wait(again["id"], timeout=60)
        assert status["state"] == "done"
        # The store was recomputed from scratch, not resumed.
        assert status["progress"]["latest"]["resumed_chunks"] == 0
        assert client.results(again["id"]) == baseline

    def test_shared_store_outlives_partial_prune(self, daemon):
        client = ServiceClient(daemon.address, client="tester")
        spec = small_spec()
        first = client.submit(spec)
        client.wait(first["id"], timeout=60)
        second = client.submit(spec)  # same fingerprint, same store
        done = client.wait(second["id"], timeout=60)
        store_dir = daemon.data_root / done["store"]
        # Age only the first job into the TTL window.
        daemon.registry.get(first["id"]).finished = time.time() - 3600
        report = daemon.prune(ttl=60)
        assert report["pruned"] == [first["id"]]
        assert report["stores_removed"] == []
        assert store_dir.is_dir()  # the younger job still references it

    def test_negative_ttl_config_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="negative"):
            StudyDaemon(ServiceConfig(data_root=tmp_path / "svc", port=0,
                                      job_ttl=-1))

    def test_gc_loop_runs_from_serve(self, tmp_path):
        daemon = StudyDaemon(ServiceConfig(
            data_root=tmp_path / "svc", port=0, store_chunk_size=1,
            job_ttl=0.0))
        daemon.start()
        try:
            assert daemon.health()["job_ttl"] == 0.0
            client = ServiceClient(daemon.address, client="tester")
            job = client.submit(small_spec())
            client.wait(job["id"], timeout=60)
            # The background loop wakes at >=1s intervals; don't wait for
            # it — call the same entry point it calls.
            daemon.prune()
            assert (ServiceClient(daemon.address, client="tester")
                    .jobs()["jobs"] == [])
        finally:
            daemon.stop(timeout=5)


# ----------------------------------------------------------------------
# requeue provenance: last_failure survives the journal and the listing
# ----------------------------------------------------------------------
class TestLastFailureProvenance:
    def test_restart_requeue_records_the_reason(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        registry = JobRegistry(journal)
        registry.load()
        registry.add(make_job())
        registry.try_transition("job-000001", JobState.RUNNING)
        journal.close()

        revived = JobRegistry(JobJournal(tmp_path / "j"))
        (job,) = revived.load()
        assert job.requeues == 1
        assert job.last_failure == "daemon restarted mid-run"

    def test_explicit_failure_reason_is_kept_and_journalled(self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        registry.add(make_job())
        registry.try_transition("job-000001", JobState.RUNNING)
        assert registry.try_transition(
            "job-000001", JobState.QUEUED, requeued=True,
            failure="daemon stopped mid-run")
        job = registry.get("job-000001")
        assert job.requeues == 1
        assert job.last_failure == "daemon stopped mid-run"
        assert job.error is None  # a requeue is not a failure verdict

        # The reason replays from the journal and rides the listing row
        # (GET /jobs and `repro jobs` render summary()).
        revived = JobRegistry(JobJournal(tmp_path / "j"))
        revived.load()
        row = revived.get("job-000001").summary()
        assert row["last_failure"] == "daemon stopped mid-run"
        assert row["requeues"] == 1
        assert "spec" not in row

    def test_terminal_failure_sets_both_error_and_last_failure(
            self, tmp_path):
        registry = JobRegistry(JobJournal(tmp_path / "j"))
        registry.load()
        registry.add(make_job())
        registry.try_transition("job-000001", JobState.RUNNING)
        registry.try_transition("job-000001", JobState.FAILED,
                                error="unknown benchmark 'TLIM-33'")
        job = registry.get("job-000001")
        assert job.error == "unknown benchmark 'TLIM-33'"
        assert job.last_failure == "unknown benchmark 'TLIM-33'"
