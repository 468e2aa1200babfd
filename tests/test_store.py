"""Tests for the durable run store and resumable studies.

The contract under test is the tentpole guarantee: a study executed
against a store — including one interrupted and resumed across several
invocations — produces a ``ResultSet`` whose ``to_json`` text is byte
identical to the same study run uninterrupted in memory, and any
corruption of the durable state is detected loudly rather than silently
altering results.
"""

import errno
import json
from pathlib import Path

import pytest

from repro import Study, SystemConfig
from repro.analysis.report import load_results, store_status_report, summary_report
from repro.engine.backends import (
    ExecutionBackend, ProcessPoolBackend, SerialBackend,
)
from repro.engine.cache import ArtifactCache
from repro.engine.compiler import CellCompiler
from repro.exceptions import (
    ConfigurationError, StoreError, StoreWriteError, TopologyError,
)
from repro.faults import failpoint, install_faults, uninstall_faults
from repro.study import ResultSet, RunStore, aggregate_stream
from repro.study.store import DEFAULT_CHUNK_SIZE, StoreChunk, chunk_layout

SMALL = SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                     buffer_qubits_per_node=4)


def small_study(**overrides):
    kwargs = dict(benchmarks=["TLIM-32"], designs=["ideal", "original"],
                  num_runs=4, system=SMALL)
    kwargs.update(overrides)
    return Study(**kwargs)


@pytest.fixture(scope="module")
def baseline_json():
    """The uninterrupted in-memory run every store variant must match."""
    with small_study() as study:
        return study.run().to_json()


def first_shard(store_dir: Path) -> Path:
    return sorted((store_dir / "shards").glob("*.jsonl"))[0]


# ----------------------------------------------------------------------
class TestChunkLayout:
    def test_chunks_cover_cells_in_order(self):
        layout = chunk_layout([5, 2], chunk_size=2)
        assert [(c.cell, c.start, c.count) for c in layout] == [
            (0, 0, 2), (0, 2, 2), (0, 4, 1), (1, 0, 2)]

    def test_chunk_ids_are_stable(self):
        assert StoreChunk(cell=3, start=64, count=32).id == "3:64"

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            chunk_layout([4], chunk_size=0)
        with pytest.raises(ConfigurationError):
            RunStore("anywhere", chunk_size=0)


class TestStoreLifecycle:
    def test_fresh_store_writes_manifest_and_chunk_log(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2)
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["schema"] == RunStore.SCHEMA_VERSION
        assert manifest["format"] == "jsonl"
        assert manifest["chunk_size"] == 2
        assert manifest["total_tasks"] == 8
        assert manifest["total_chunks"] == 4
        # Chunk commits live in the O(1) append-only log, not the manifest.
        log_lines = (store / "chunks.log").read_text().splitlines()
        assert len(log_lines) == 4
        assert all("sha256" in json.loads(line) for line in log_lines)

    def test_created_files_fsync_their_directory_once(self, tmp_path,
                                                      directory_fsyncs):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        # The manifest and the chunk log in the store, one shard in shards/.
        assert directory_fsyncs(store) == 2
        assert directory_fsyncs(store / "shards") == 1
        with small_study() as study:
            study.run(store=store)  # appends 3 chunks, creates 1 shard
        assert directory_fsyncs(store) == 2
        assert directory_fsyncs(store / "shards") == 2
        assert directory_fsyncs() == 4

    def test_load_rejects_non_store_directory(self, tmp_path):
        with pytest.raises(StoreError, match="not a run store"):
            RunStore.load(tmp_path)

    def test_existing_store_keeps_committed_chunk_size(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        # A different requested size on resume must not shift the layout.
        with small_study() as study:
            study.run(store=store, store_chunk_size=3)
        assert RunStore.load(store).chunk_size == 2

    def test_mismatched_plan_rejected(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        with small_study(num_runs=5) as other:
            with pytest.raises(StoreError, match="different study"):
                other.run(store=store)

    def test_default_chunk_size(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store)
        assert RunStore.load(store).chunk_size == DEFAULT_CHUNK_SIZE

    def test_negative_max_chunks_rejected(self):
        with small_study() as study:
            with pytest.raises(ConfigurationError):
                study.run(max_chunks=-1)

    def test_concurrent_writer_rejected(self, tmp_path):
        store = tmp_path / "st"
        hijack_errors = []

        def hijack(event):
            # While the first study holds the writer lock, a second
            # invocation against the same store must fail fast instead of
            # interleaving appends.
            if event.done_chunks == 1 and not hijack_errors:
                with small_study() as other:
                    with pytest.raises(StoreError, match="locked"):
                        other.run(store=store)
                hijack_errors.append("raised")

        with small_study() as study:
            study.run(store=store, store_chunk_size=2, progress=hijack)
        assert hijack_errors == ["raised"]
        # The lock is released after the run: resuming works normally.
        with small_study() as study:
            study.run(store=store)


# ----------------------------------------------------------------------
class TestStaleLockTakeover:
    """A held flock whose recorded holder PID is dead is broken, not obeyed.

    The scenario is a flock surviving on a file descriptor another
    process inherited: the lock is genuinely held at the fcntl level, but
    the advertised holder is gone.
    """

    @staticmethod
    def _hold_lock(store: Path, holder_pid: int):
        """Flock the store's lock file on a private fd and write a PID."""
        import fcntl

        handle = open(store / "lock", "a+")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        handle.truncate(0)
        handle.write(str(holder_pid))
        handle.flush()
        return handle  # keep open: closing would drop the flock

    @staticmethod
    def _dead_pid() -> int:
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_live_holder_still_rejected(self, tmp_path):
        import os

        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        handle = self._hold_lock(store, os.getpid())
        try:
            with small_study() as study:
                with pytest.raises(StoreError,
                                   match=f"PID {os.getpid()}"):
                    study.run(store=store)
        finally:
            handle.close()

    def test_dead_holder_is_taken_over(self, tmp_path, baseline_json):
        import os

        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        handle = self._hold_lock(store, self._dead_pid())
        try:
            # The flock is *held* (on the old inode) but its holder is
            # dead: the resume breaks the lock and finishes the study.
            with small_study() as study:
                results = study.run(store=store, store_chunk_size=2)
            assert results.to_json() == baseline_json
            # The fresh lock file now advertises the new writer.
            assert (store / "lock").read_text().strip() == str(os.getpid())
        finally:
            handle.close()

    def test_unparseable_holder_counts_as_alive(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        handle = self._hold_lock(store, 0)  # then scribble garbage
        handle.truncate(0)
        handle.write("not-a-pid")
        handle.flush()
        try:
            with small_study() as study:
                with pytest.raises(StoreError, match="locked"):
                    study.run(store=store)
        finally:
            handle.close()


    def test_pool_workers_do_not_keep_the_lock(self, tmp_path,
                                               baseline_json):
        # The pool forks its workers while the first run holds the lock;
        # they close their copies, so the next run on the same warm pool
        # (same process, live PID) takes the lock and finishes.
        store = tmp_path / "st"
        with ProcessPoolBackend(max_workers=2) as backend:
            with small_study(backend=backend) as study:
                study.run(store=store, store_chunk_size=2, max_chunks=1)
                results = study.run(store=store, store_chunk_size=2)
        assert results.to_json() == baseline_json


# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    def test_store_run_matches_in_memory(self, tmp_path, baseline_json):
        with small_study() as study:
            results = study.run(store=tmp_path / "st", store_chunk_size=2)
        assert results.to_json() == baseline_json

    def test_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path, baseline_json):
        store = tmp_path / "st"
        # Fresh Study objects per invocation, as separate processes would be.
        with small_study() as study:
            partial = study.run(store=store, max_chunks=1, store_chunk_size=2)
        assert len(partial) == 2  # only the first chunk is complete
        with small_study() as study:
            resumed = study.run(store=store)
        assert resumed.to_json() == baseline_json
        assert ResultSet.from_store(store).to_json() == baseline_json

    def test_crash_mid_chunk_leaves_resumable_store(
            self, tmp_path, baseline_json):
        store = tmp_path / "st"

        class Interrupted(RuntimeError):
            pass

        def bomb(event):
            # Let the initial event and two chunk commits through, then die
            # the way a kill signal would — after durable commits, before
            # the study finishes.
            if event.done_chunks >= 2:
                raise Interrupted()

        with small_study() as study:
            with pytest.raises(Interrupted):
                study.run(store=store, store_chunk_size=2, progress=bomb)
        assert len(RunStore.load(store).completed_ids()) >= 2
        with small_study() as study:
            resumed = study.run(store=store)
        assert resumed.to_json() == baseline_json

    def test_orphaned_shard_tail_is_discarded(self, tmp_path, baseline_json):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=2, store_chunk_size=2)
        # A kill between the shard append and the manifest commit leaves a
        # partial line past the committed range; resume must discard it.
        with open(first_shard(store), "ab") as handle:
            handle.write(b'{"benchmark": "TLIM-32", "trunca')
        with small_study() as study:
            resumed = study.run(store=store)
        assert resumed.to_json() == baseline_json

    def test_completed_store_resume_executes_nothing(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2)
        events = []
        with small_study() as study:
            study.run(store=store, progress=events.append)
        assert all(e.resumed_chunks == e.total_chunks for e in events)
        assert all(e.executed_tasks == 0 for e in events)

    def test_max_chunks_zero_loads_without_executing(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        with small_study() as study:
            loaded = study.run(store=store, max_chunks=0)
        assert len(loaded) == 2

    def test_swept_params_round_trip(self, tmp_path):
        def sweep():
            return small_study(
                designs=["ideal"],
                axes={"epr_success_probability": [0.2, 0.8]})

        with sweep() as study:
            expected = study.run().to_json()
        store = tmp_path / "st"
        with sweep() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        with sweep() as study:
            assert study.run(store=store).to_json() == expected
        reloaded = ResultSet.from_store(store)
        assert reloaded.values("epr_success_probability") == [
            0.2, 0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.8]


# ----------------------------------------------------------------------
class TestFinishedStudyCostsOneRead:
    """A store decides what gets compiled: only cells with chunks left to
    run, and a store with nothing left is answered by one read."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """``(benchmark, design)`` of every ``CellCompiler.compile`` call."""
        calls = []
        original = CellCompiler.compile

        def compile(self, benchmark, design, **kwargs):
            calls.append((benchmark, design))
            return original(self, benchmark, design, **kwargs)

        monkeypatch.setattr(CellCompiler, "compile", compile)
        return calls

    @pytest.fixture
    def reads(self, monkeypatch):
        """Counts of the store's two read paths."""
        counts = {"load_results": 0, "read_chunk": 0}
        for name in counts:
            original = getattr(RunStore, name)

            def counted(self, *args, _name=name, _original=original,
                        **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(RunStore, name, counted)
        return counts

    def test_complete_store_compiles_nothing(self, tmp_path, compiled, reads):
        store = tmp_path / "st"
        cache = ArtifactCache()
        with small_study(cache=cache) as study:
            first = study.run(store=store, store_chunk_size=2).to_json()
        assert compiled == [("TLIM-32", "ideal"), ("TLIM-32", "original")]
        compiled.clear()
        reads.update(load_results=0, read_chunk=0)
        lookups = cache.hits + cache.misses
        events = []
        with small_study(cache=cache) as study:
            again = study.run(store=store, progress=events.append)
        assert compiled == []
        assert cache.hits + cache.misses == lookups
        assert reads == {"load_results": 1, "read_chunk": 0}
        assert again.to_json() == first
        assert [(e.done_chunks, e.resumed_chunks, e.complete)
                for e in events] == [(4, 4, True)]

    def test_complete_store_answers_with_this_studys_metadata(self,
                                                            tmp_path):
        store = tmp_path / "st"
        with small_study(name="first") as study:
            study.run(store=store)
        with small_study(name="second") as study:
            again = study.run(store=store)
            assert again.metadata == study.describe()
        assert RunStore.load(store).study["name"] == "first"

    def test_complete_store_takes_no_lock(self, tmp_path, baseline_json):
        import fcntl

        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store)
        # Another process holding the writer lock does not stop a read.
        with open(store / "lock", "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            with small_study() as study:
                assert study.run(store=store).to_json() == baseline_json

    def test_partial_store_compiles_exactly_the_pending_cells(
            self, tmp_path, compiled, baseline_json):
        store = tmp_path / "st"
        with small_study() as study:
            # Chunks 0:0 and 0:2 finish the first cell ("ideal").
            study.run(store=store, store_chunk_size=2, max_chunks=2)
        compiled.clear()
        with small_study() as study:
            results = study.run(store=store)
        assert compiled == [("TLIM-32", "original")]
        assert results.to_json() == baseline_json

    def test_max_chunks_zero_compiles_nothing(self, tmp_path, compiled):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        compiled.clear()
        with small_study() as study:
            partial = study.run(store=store, max_chunks=0)
        assert compiled == []
        assert [r.seed for r in partial] == [1, 2]

    def test_fresh_run_compiles_every_cell_before_its_first_event(
            self, tmp_path, compiled):
        seen = []
        with small_study() as study:
            study.run(store=tmp_path / "st", store_chunk_size=2,
                      progress=lambda event: seen.append(len(compiled)))
        assert seen[0] == 2

    @pytest.mark.parametrize("partial", [False, True])
    def test_failing_compile_leaves_no_store_and_no_lock(
            self, tmp_path, monkeypatch, baseline_json, partial):
        import fcntl

        store = tmp_path / "st"
        if partial:
            with small_study() as study:
                study.run(store=store, store_chunk_size=2, max_chunks=1)
            log = (store / "chunks.log").read_bytes()

        def broken(self, *args, **kwargs):
            raise TopologyError("no link between the nodes")

        with monkeypatch.context() as patch:
            patch.setattr(CellCompiler, "compile", broken)
            with small_study() as study:
                with pytest.raises(TopologyError):
                    study.run(store=store, store_chunk_size=2)
        if not partial:
            assert not store.exists()
        else:
            assert (store / "chunks.log").read_bytes() == log
            with open(store / "lock", "a+") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        with small_study() as study:
            assert study.run(store=store,
                             store_chunk_size=2).to_json() == baseline_json

    @pytest.mark.parametrize("max_chunks", [None, 1])
    def test_store_created_after_the_look_keeps_its_layout(
            self, tmp_path, monkeypatch, baseline_json, max_chunks):
        # Another invocation, with another chunk size, creates the store
        # between this run's read-only look and its begin(): the run must
        # adopt the store's layout instead of appending chunks of its own.
        store = tmp_path / "st"
        original = RunStore.committed_for

        def look_then_race(self, fingerprint):
            committed = original(self, fingerprint)
            monkeypatch.setattr(RunStore, "committed_for", original)
            with small_study() as other:
                other.run(store=store, store_chunk_size=3,
                          max_chunks=max_chunks)
            return committed

        monkeypatch.setattr(RunStore, "committed_for", look_then_race)
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=2)
        assert results.to_json() == baseline_json
        loaded = RunStore.load(store)
        assert loaded.chunk_size == 3
        assert loaded.completed_ids() == {c.id for c in loaded.chunks()}
        assert loaded.load_results().to_json() == baseline_json

    def test_chunks_committed_after_the_look_compile_under_the_lock(
            self, tmp_path, monkeypatch, compiled, baseline_json):
        # Another invocation commits the chunks this run's look planned to
        # run, so the chunk max_chunks now picks is in an uncompiled cell.
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, max_chunks=1)
        original = RunStore.committed_for

        def look_then_race(self, fingerprint):
            committed = original(self, fingerprint)
            monkeypatch.setattr(RunStore, "committed_for", original)
            with small_study() as other:
                other.run(store=store, max_chunks=1)  # chunk 0:2
            return committed

        monkeypatch.setattr(RunStore, "committed_for", look_then_race)
        compiled.clear()
        with small_study() as study:
            partial = study.run(store=store, max_chunks=1)
        assert compiled == [("TLIM-32", "ideal"), ("TLIM-32", "ideal"),
                            ("TLIM-32", "original")]
        assert [(r.design, r.seed) for r in partial] == [
            ("ideal", 1), ("ideal", 2), ("ideal", 3), ("ideal", 4),
            ("original", 1), ("original", 2)]
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json


# ----------------------------------------------------------------------
class TestCorruptionDetection:
    def _complete_store(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2)
        return store

    def test_flipped_byte_fails_checksum(self, tmp_path):
        store = self._complete_store(tmp_path)
        shard = first_shard(store)
        data = bytearray(shard.read_bytes())
        data[10] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            ResultSet.from_store(store)

    def test_truncated_shard_rejected_on_resume(self, tmp_path):
        store = self._complete_store(tmp_path)
        shard = first_shard(store)
        shard.write_bytes(shard.read_bytes()[:5])
        with small_study() as study:
            with pytest.raises(StoreError, match="corrupt"):
                study.run(store=store)

    def test_missing_shard_rejected(self, tmp_path):
        store = self._complete_store(tmp_path)
        first_shard(store).unlink()
        with small_study() as study:
            with pytest.raises(StoreError, match="corrupt|missing"):
                study.run(store=store)

    def test_partial_store_load_refused_by_default(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        with pytest.raises(StoreError, match="incomplete"):
            ResultSet.from_store(store)
        assert len(ResultSet.from_store(store, allow_partial=True)) == 2

    def test_garbage_manifest_rejected(self, tmp_path):
        store = tmp_path / "st"
        store.mkdir()
        (store / "manifest.json").write_text("{not json")
        with pytest.raises(StoreError, match="cannot read store manifest"):
            RunStore.load(store)


# ----------------------------------------------------------------------
class TestStreamingAggregation:
    def test_matches_in_memory_aggregate(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=2)
        loaded = RunStore.load(store)
        for by in ("design", ["benchmark", "design"], ()):
            assert (aggregate_stream(loaded.iter_records(), "depth", by=by)
                    == results.aggregate("depth", by=by))
        assert (aggregate_stream(loaded.iter_records(), "fidelity",
                                 by="design")
                == results.aggregate("fidelity", by="design"))

    def test_empty_stream_raises_like_aggregate(self):
        with pytest.raises(ConfigurationError):
            aggregate_stream(iter(()), "depth")


# ----------------------------------------------------------------------
class TestProgressEvents:
    def test_events_are_monotonic_and_complete(self, tmp_path):
        events = []
        with small_study() as study:
            study.run(store=tmp_path / "st", store_chunk_size=2,
                      progress=events.append)
        assert events[0].done_chunks == 0  # the initial resume-point event
        done = [e.done_chunks for e in events]
        assert done == sorted(done)
        assert events[-1].complete
        assert events[-1].done_tasks == events[-1].total_tasks == 8
        payload = events[-1].to_dict()
        assert payload["event"] == "progress"
        assert payload["complete"] is True

    def test_progress_without_store(self):
        events = []
        with small_study() as study:
            results = study.run(progress=events.append, store_chunk_size=2)
        assert len(results) == 8
        assert events[-1].complete


# ----------------------------------------------------------------------
class _SinklessBackend(ExecutionBackend):
    """A pre-streaming backend: ``execute`` does not accept a sink."""

    name = "sinkless"

    def execute(self, tasks):  # noqa: D102 - intentionally sink-less
        return SerialBackend().execute(tasks)


class TestSinklessBackend:
    def test_fails_before_committing_a_chunk(self, tmp_path, baseline_json):
        store = tmp_path / "st"
        with small_study(backend=_SinklessBackend()) as study:
            with pytest.raises(TypeError, match="sink"):
                study.run(store=store, store_chunk_size=2)
        assert RunStore.load(store).completed_ids() == set()
        with small_study(backend=SerialBackend()) as study:
            results = study.run(store=store, store_chunk_size=2)
        assert results.to_json() == baseline_json
        assert RunStore.load(store).is_complete


# ----------------------------------------------------------------------
class TestReportsAcceptStores:
    def test_load_results_from_store_dir_and_json(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=2)
        out = tmp_path / "rs.json"
        results.to_json(out)
        assert load_results(store) == results
        assert load_results(out) == results
        assert load_results(results) is results

    def test_summary_report_from_store(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=2)
        assert summary_report(store) == summary_report(results)
        assert "mean depth" in summary_report(store)

    def test_store_status_report(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2)
        text = store_status_report(store)
        assert "in progress" in text
        assert "1/4" in text  # chunks
        assert "TLIM-32" in text
        with small_study() as study:
            study.run(store=store)
        assert "complete" in store_status_report(store)


# ----------------------------------------------------------------------
# Injected write failures: the store must fail loudly, keep committed
# chunks durable, and resume byte-identically after a reopen.
# ----------------------------------------------------------------------
class TestInjectedWriteFailures:
    @pytest.fixture(autouse=True)
    def inert_faults(self):
        yield
        uninstall_faults()

    def test_enospc_on_fsync_reports_committed_state(self, tmp_path,
                                                     baseline_json):
        store = tmp_path / "st"
        install_faults("store.fsync:errno=ENOSPC,after=2,count=1")
        with small_study() as study:
            with pytest.raises(StoreWriteError) as excinfo:
                study.run(store=store, store_chunk_size=2)
        error = excinfo.value
        assert error.errno == errno.ENOSPC
        assert error.committed_chunks >= 1
        assert error.committed_runs >= 2
        assert "remain durable" in str(error)
        assert isinstance(error, StoreError)
        uninstall_faults()
        # The durable prefix survives and the rerun completes the study.
        reopened = RunStore.load(store)
        assert len(reopened.completed_ids()) == error.committed_chunks
        reopened.release()
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json

    def test_torn_shard_append_is_repaired_on_resume(self, tmp_path,
                                                     baseline_json):
        store = tmp_path / "st"
        install_faults("store.shard.write:kind=torn,after=1,count=1")
        with small_study() as study:
            with pytest.raises(StoreWriteError):
                study.run(store=store, store_chunk_size=2)
        uninstall_faults()
        # The shard file carries a torn half-chunk past the committed
        # prefix; reopening must not surface it as results.
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json

    def test_torn_log_append_is_repaired_on_resume(self, tmp_path,
                                                   baseline_json):
        store = tmp_path / "st"
        install_faults("store.log.append:kind=torn,after=1,count=1")
        with small_study() as study:
            with pytest.raises(StoreWriteError):
                study.run(store=store, store_chunk_size=2)
        uninstall_faults()
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json

    def test_unset_env_means_no_failpoints(self, tmp_path, baseline_json):
        assert failpoint("store.fsync") is None
        store = tmp_path / "st"
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json
