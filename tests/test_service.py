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
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, SpecValidationError, StoreError
from repro.service import (
    JobJournal,
    JobRegistry,
    JobState,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    StudyDaemon,
)
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
    ], ids=["health", "job"])
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


# ----------------------------------------------------------------------
# satellite: /healthz as the operator's one-glance view
# ----------------------------------------------------------------------
class TestHealthzOperatorView:
    def test_health_reports_queue_and_state_counts(self, client):
        health = client.health()
        assert health["queue_depth"] == 0
        assert health["running"] == 0
        assert health["done"] == 0
        assert "fleet_workers" not in health  # no fleet configured
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
# tentpole glue: the daemon running every job on a worker fleet
# ----------------------------------------------------------------------
class TestFleetService:
    def test_fleet_requires_single_scheduler_worker(self, tmp_path):
        with pytest.raises(ConfigurationError, match="concurrency 1"):
            StudyDaemon(ServiceConfig(data_root=tmp_path / "svc", port=0,
                                      fleet="127.0.0.1:0", concurrency=2))

    def test_fleet_daemon_serves_jobs_and_counts_workers(self, tmp_path):
        from repro.engine.cache import ArtifactCache
        from repro.fleet import FleetWorker

        daemon = StudyDaemon(ServiceConfig(
            data_root=tmp_path / "svc", port=0, store_chunk_size=1,
            fleet="127.0.0.1:0"))
        daemon.start()
        worker = None
        worker_thread = None
        try:
            client = ServiceClient(daemon.address, client="tester")
            # The scheduler binds the coordinator eagerly, before any job.
            backend = poll_until(
                lambda: next(iter(daemon.scheduler._backends), None))
            assert client.health()["fleet_workers"] == 0
            worker = FleetWorker(backend.address, name="svc-w0", quiet=True,
                                 cache=ArtifactCache())
            worker_thread = threading.Thread(target=worker.run, daemon=True)
            worker_thread.start()
            poll_until(
                lambda: client.health()["fleet_workers"] == 1, timeout=30)
            spec = small_spec()
            job = client.submit(spec)
            status = client.wait(job["id"], timeout=120)
            assert status["state"] == "done"
            assert client.results(job["id"]) == foreground_json(spec)
        finally:
            if worker is not None:
                worker.stop()
            daemon.stop(timeout=10)
            if worker_thread is not None:
                worker_thread.join(timeout=10)


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
