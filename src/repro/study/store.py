"""Durable, resumable run store for studies.

A :class:`RunStore` is a directory that accumulates study results as they
are produced, so a long sweep survives a kill and re-enters where it left
off instead of losing everything held in memory:

* every ``(cell, seed-chunk)`` batch is appended to an **append-only
  shard** (one shard per plan cell) the moment the backend completes it —
  one JSON line per run record,
* an immutable **manifest** (``manifest.json``, written once via temp-file
  + ``os.replace``) records the store's identity — plan fingerprint, study
  description, cell layout, chunk size — and
* an append-only **chunk log** (``chunks.log``, one fsynced JSON line per
  committed chunk with its shard byte range and checksum) records which
  chunks are durably complete.  Committing a chunk is therefore O(1)
  regardless of how many chunks the study has — a million-run sweep never
  rewrites its full state per chunk.

The store is keyed by the study's *plan fingerprint* — a SHA-256 over every
plan cell's configuration fingerprint (benchmark, design, full
``SystemConfig``, scheduling knobs, seeds) plus the partition seed — so a
directory can only ever be resumed by the exact same plan; anything else is
rejected with :class:`~repro.exceptions.StoreError`.  Because execution is
deterministic per seed, a resumed study reproduces the uninterrupted run
bit for bit: completed chunks are read back from the shards, missing chunks
are executed, and the merged :class:`~repro.study.results.ResultSet`
serialises byte-identically to a run without a store.

Crash safety relies on ordering: shard bytes are flushed and fsynced
*before* the chunk-log line commits them, so a kill at any point leaves at
worst an orphaned shard tail and/or a torn final log line: readers skip
both, :meth:`RunStore.begin` truncates the shard tail, and the next
commit truncates the torn log line (:func:`open_for_append`, the same
appender the service journal and the bench ledger use).  The store is
single-writer — :meth:`begin` takes an exclusive advisory lock (``flock``
on ``lock``) so a second concurrent invocation fails immediately with
:class:`~repro.exceptions.StoreError` instead of silently interleaving
appends; reads need no lock.  A shard shorter than its committed length, a
checksum mismatch, or an unparsable committed line all raise
:class:`~repro.exceptions.StoreError` naming the file.

Every read decodes shard bytes through one column decoder,
:func:`decode_chunk_columns`: :meth:`RunStore.load_results` keeps its
columns, :meth:`RunStore.read_chunk` and :meth:`RunStore.iter_records`
build records from them.  The manifest carries ``"schema": 1`` and
``"format": "jsonl"``; a manifest of the retired binary ``npz`` format
(schema 2) is refused with :class:`~repro.exceptions.StoreError`, never
misread.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, BinaryIO, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, StoreError, StoreWriteError
from repro.faults import failpoint
from repro.study.results import (
    FIXED_FIELDS, KEY_FIELDS, METRIC_FIELDS, ResultSet, RunRecord,
)

__all__ = [
    "RunStore",
    "StoreChunk",
    "ProgressEvent",
    "chunk_layout",
    "encode_chunk",
    "decode_chunk",
    "DEFAULT_CHUNK_SIZE",
    "sync_directory",
    "read_committed_lines",
    "open_for_append",
]

#: Seeds per store chunk when the caller does not choose one.  Small enough
#: that an interrupted study rarely loses more than a few seconds of work,
#: large enough that per-chunk commit overhead stays a negligible fraction
#: of execution time.
DEFAULT_CHUNK_SIZE = 32

_MANIFEST = "manifest.json"
_CHUNK_LOG = "chunks.log"
_LOCK = "lock"
_SHARD_DIR = "shards"


# ----------------------------------------------------------------------
# chunk codec
# ----------------------------------------------------------------------
def _missing_column_error(field: str, available: Sequence[str]) -> StoreError:
    metrics = [name for name in METRIC_FIELDS if name in available]
    params = [name for name in available
              if name not in METRIC_FIELDS and name not in KEY_FIELDS
              and name != "params"]
    return StoreError(
        f"store has no column {field!r}; available metrics: "
        f"{', '.join(metrics) or 'none'}; swept parameters: "
        f"{', '.join(params) or 'none'}"
    )


def encode_chunk(records: Sequence[RunRecord]) -> bytes:
    """Serialise one chunk's records into shard bytes: one compact JSON
    line per record."""
    lines = [json.dumps(record.to_dict(), separators=(",", ":"))
             for record in records]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def decode_chunk(data: bytes) -> List[RunRecord]:
    """Rebuild one chunk's records from shard bytes (``encode_chunk``'s
    inverse), through :func:`decode_chunk_columns`.  Raises
    :class:`~repro.exceptions.StoreError` on malformed bytes or a missing
    column."""
    return _records(*decode_chunk_columns(data))


def _records(columns: Mapping[str, List[Any]],
             params: List[Dict[str, Any]]) -> List[RunRecord]:
    return [
        RunRecord(**{name: columns[name][i] for name in FIXED_FIELDS},
                  params=params[i])
        for i in range(len(params))
    ]


def decode_chunk_columns(data: bytes, fields: Optional[Sequence[str]] = None
                         ) -> Tuple[Dict[str, List[Any]],
                                    List[Dict[str, Any]]]:
    """Decode one chunk's shard bytes into columns: the store's one decoder.

    Returns ``(columns, params)``.  ``columns`` maps each field to its value
    list: every fixed column when ``fields`` is None, otherwise each
    requested field, which may also name a swept parameter.  ``params``
    holds one parameter mapping per record.  The chunk's lines are parsed
    in one ``json.loads``; malformed bytes, or a field no record holds,
    raise :class:`~repro.exceptions.StoreError`, the latter naming what is
    available.
    """
    try:
        lines = data.decode("utf-8").splitlines()
        # One parse per chunk: the lines joined into one JSON array.
        rows = json.loads("[" + ",".join(lines) + "]")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreError(f"unreadable record: {error}") from None
    if len(rows) != len(lines) or not all(type(row) is dict for row in rows):
        raise StoreError("unreadable record: a line is not one JSON object")
    # Like RunRecord.from_dict: a row without params swept nothing.
    params = [row.get("params", {}) for row in rows]
    if fields is None:
        try:
            columns = {name: [row[name] for row in rows]
                       for name in FIXED_FIELDS}
        except KeyError as error:
            raise StoreError(
                f"record row is missing column {error.args[0]!r}"
            ) from None
        return columns, params
    columns = {}
    for field in fields:
        values = []
        for row in rows:
            if field in row and field != "params":
                values.append(row[field])
            else:
                row_params = row.get("params") or {}
                if field not in row_params:
                    raise _missing_column_error(
                        field, [*row, *row_params])
                values.append(row_params[field])
        columns[field] = values
    return columns, params


def sync_directory(directory: Union[str, Path]) -> None:
    """Fsync a directory, so the files created or renamed in it survive a
    power cut.

    Fsyncing a new file persists its bytes but not its directory entry;
    every durable file the library creates (store manifests, shards and
    chunk logs, the service journal, the bench ledger) is pinned with one
    call here when it is created.  Best-effort on filesystems that refuse
    to fsync a directory handle.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(fd)


def read_committed_lines(path: Union[str, Path]) -> Tuple[List[bytes], int]:
    """The committed lines of an append-only JSON-lines file, and their
    byte length.

    Every such file the library writes (a store's chunk log, the service
    journal, the bench ledger) appends one fsynced line per record, and
    the newline that ends a line is its commit marker.  Bytes after the
    last newline are an append a crash interrupted: never committed, so
    left out of the lines, and the committed length ends before them.
    Lines come back stripped, blank ones skipped; a missing file has
    none.  Each caller parses and validates its own records.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    committed = data.rfind(b"\n") + 1
    lines = [line.strip() for line in data[:committed].split(b"\n")]
    return [line for line in lines if line], committed


def open_for_append(path: Union[str, Path]) -> BinaryIO:
    """Open an append-only JSON-lines file for the next record.

    A torn tail is truncated away first, so the record starts on a line
    boundary instead of completing the torn bytes into one corrupt line;
    creating the file fsyncs its directory, so the file itself survives a
    power cut.  Only the last byte is read to look for a tail, so an
    append stays O(record); a file that does end mid-line is read once
    to find its committed length.  The caller writes and fsyncs.
    """
    path = Path(path)
    created = not path.exists()
    handle = open(path, "ab+")
    try:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.truncate(read_committed_lines(path)[1])
                handle.seek(0, os.SEEK_END)
    except BaseException:
        handle.close()
        raise
    if created:
        sync_directory(path.parent)
    return handle


#: Writer-lock handles this process holds.  ``flock`` belongs to the open
#: file description, which a forked child (a process-pool worker) shares,
#: so a worker that outlives :meth:`RunStore.release` would keep the store
#: locked under its writer's live PID.  Each child closes its copies at
#: fork: a plain ``close``, never ``LOCK_UN``, which would also release the
#: parent's lock.
_HELD_LOCKS: "weakref.WeakSet" = weakref.WeakSet()


def _close_inherited_locks() -> None:
    for handle in list(_HELD_LOCKS):
        handle.close()
    _HELD_LOCKS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_locks)


def _holder_alive(holder: str) -> bool:
    """Whether the PID recorded in a lock file is a live local process.

    Anything unparseable counts as alive — takeover must be the provably
    safe path, never the default.  ``EPERM`` means the PID exists under
    another user, i.e. alive.
    """
    try:
        pid = int(holder)
    except ValueError:
        return True
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user PIDs
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


@dataclass(frozen=True)
class StoreChunk:
    """One durable unit of study progress: a seed range of one plan cell."""

    cell: int
    start: int
    count: int

    @property
    def id(self) -> str:
        """Stable chunk identifier used as the chunk-log key."""
        return f"{self.cell}:{self.start}"


def chunk_layout(seeds_per_cell: Sequence[int],
                 chunk_size: int) -> List[StoreChunk]:
    """Split every cell's seed range into fixed-size store chunks.

    The layout is a pure function of the plan shape and the chunk size, so
    a resuming process derives exactly the chunk boundaries the store
    committed — chunks never straddle cells, and within a cell they cover
    ``[0, chunk_size), [chunk_size, 2*chunk_size), ...`` in seed order.
    """
    if chunk_size < 1:
        raise ConfigurationError("store chunk size must be positive")
    chunks: List[StoreChunk] = []
    for cell, num_seeds in enumerate(seeds_per_cell):
        for start in range(0, num_seeds, chunk_size):
            chunks.append(StoreChunk(cell=cell, start=start,
                                     count=min(chunk_size, num_seeds - start)))
    return chunks


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of study progress, delivered after every completed chunk.

    ``done_*`` counts include chunks served from the store at start-up
    (``resumed_*``), so ``done_chunks == total_chunks`` always means the
    study is complete regardless of how many invocations it took.
    """

    done_chunks: int
    total_chunks: int
    done_tasks: int
    total_tasks: int
    resumed_chunks: int
    resumed_tasks: int
    elapsed: float

    @property
    def executed_tasks(self) -> int:
        """Runs executed by this invocation (excludes resumed ones)."""
        return self.done_tasks - self.resumed_tasks

    @property
    def runs_per_second(self) -> float:
        """Throughput of this invocation (0.0 before any run completes)."""
        if self.elapsed <= 0.0 or self.executed_tasks <= 0:
            return 0.0
        return self.executed_tasks / self.elapsed

    @property
    def complete(self) -> bool:
        """Whether every chunk of the plan is done."""
        return self.done_chunks >= self.total_chunks

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the ``--json-progress`` line format and the
        service status endpoint's wire format).

        ``elapsed`` is rounded to milliseconds; everything else round-trips
        exactly through :meth:`from_dict`.
        """
        return {
            "event": "progress",
            "done_chunks": self.done_chunks,
            "total_chunks": self.total_chunks,
            "done_tasks": self.done_tasks,
            "total_tasks": self.total_tasks,
            "resumed_chunks": self.resumed_chunks,
            "resumed_tasks": self.resumed_tasks,
            "elapsed": round(self.elapsed, 3),
            "runs_per_second": round(self.runs_per_second, 3),
            "complete": self.complete,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProgressEvent":
        """Rebuild an event from its :meth:`to_dict` wire form.

        Derived fields (``runs_per_second``, ``complete``, ``event``) are
        recomputed from the counters, not trusted from the payload.
        """
        try:
            return cls(
                done_chunks=int(payload["done_chunks"]),
                total_chunks=int(payload["total_chunks"]),
                done_tasks=int(payload["done_tasks"]),
                total_tasks=int(payload["total_tasks"]),
                resumed_chunks=int(payload["resumed_chunks"]),
                resumed_tasks=int(payload["resumed_tasks"]),
                elapsed=float(payload["elapsed"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"not a progress-event payload: {error}"
            ) from None


class RunStore:
    """Append-only, resumable on-disk store of one study's run records.

    Parameters
    ----------
    path:
        Store directory (created on :meth:`begin` if missing).
    chunk_size:
        Seeds per chunk for a *fresh* store.  A store that already holds a
        manifest keeps its committed layout — chunk boundaries are part of
        the durable state — and this argument is ignored on resume.

    A store is bound to one plan: :meth:`begin` either initialises the
    directory with the study's plan fingerprint or verifies that the
    existing manifest carries the same fingerprint (and discards any
    partially-appended shard/log tail left by a kill).  Reading back —
    :meth:`iter_records`, :meth:`load_results`, :meth:`read_chunk` —
    verifies byte lengths, checksums, and record counts, and raises
    :class:`~repro.exceptions.StoreError` on any corruption.
    """

    SCHEMA_VERSION = 1

    def __init__(self, path: Union[str, Path],
                 chunk_size: Optional[int] = None) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("store chunk size must be positive")
        self.path = Path(path)
        self._requested_chunk_size = chunk_size
        self._manifest: Optional[Dict[str, Any]] = None
        self._chunks: Optional[Dict[str, Dict[str, Any]]] = None
        self._lock_handle = None

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Location of the (immutable) manifest file."""
        return self.path / _MANIFEST

    @property
    def chunk_log_path(self) -> Path:
        """Location of the append-only chunk-commit log."""
        return self.path / _CHUNK_LOG

    @property
    def is_started(self) -> bool:
        """Whether the directory already holds a committed manifest."""
        return self.manifest_path.is_file()

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunStore":
        """Open an existing store for reading (status, reports, analysis)."""
        store = cls(path)
        if not store.is_started:
            raise StoreError(
                f"{store.path} is not a run store (no {_MANIFEST}); "
                f"start one with Study.run(store=...) or --store"
            )
        store._manifest = store._read_manifest()
        store._chunks = store._read_chunk_log()
        return store

    def begin(self, fingerprint: str, study: Mapping[str, Any],
              cells: Sequence[Mapping[str, Any]]) -> None:
        """Initialise a fresh store or re-open an existing one for writing.

        ``cells`` describes the plan in order — one
        ``{"benchmark", "design", "num_seeds"}`` mapping per plan cell —
        and, with ``fingerprint`` and the study description, becomes the
        durable identity of the store.  Re-opening verifies the
        fingerprint and discards any uncommitted shard tail (the sign of a
        kill mid-append; a torn chunk-log line goes with the next
        commit).  Writing is single-writer: the exclusive store lock is
        held until :meth:`release`.
        """
        if self.is_started:
            self._manifest = self._read_plan_manifest(fingerprint)
            self._acquire_lock()
            self._chunks = self._read_chunk_log()
            self._repair_shards()
            return
        (self.path / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        total_tasks = sum(int(cell["num_seeds"]) for cell in cells)
        chunk_size = self._requested_chunk_size or DEFAULT_CHUNK_SIZE
        self._manifest = {
            "schema": self.SCHEMA_VERSION,
            "format": "jsonl",
            "fingerprint": fingerprint,
            "chunk_size": chunk_size,
            "study": dict(study),
            "cells": [
                {
                    "benchmark": str(cell["benchmark"]),
                    "design": str(cell["design"]),
                    "num_seeds": int(cell["num_seeds"]),
                    "shard": f"{_SHARD_DIR}/cell-{index:05d}.jsonl",
                }
                for index, cell in enumerate(cells)
            ],
            "total_tasks": total_tasks,
            "total_chunks": len(chunk_layout(
                [int(cell["num_seeds"]) for cell in cells], chunk_size)),
            "created": time.time(),
        }
        self._chunks = {}
        self._write_manifest()

    def committed_for(self, fingerprint: str) -> set:
        """Read-only look: the chunk ids this store has committed for the
        plan ``fingerprint`` (empty for a directory with no store yet).

        Takes no lock and repairs nothing, so it is safe beside a running
        writer; a store of another plan raises
        :class:`~repro.exceptions.StoreError` as :meth:`begin` would.
        Committed chunks only ever grow, so the set this returns is a
        subset of what a later :meth:`begin` finds.
        """
        if not self.is_started:
            return set()
        self._manifest = self._read_plan_manifest(fingerprint)
        self._chunks = self._read_chunk_log()
        return set(self._chunks)

    def _read_plan_manifest(self, fingerprint: str) -> Dict[str, Any]:
        manifest = self._read_manifest()
        if manifest.get("fingerprint") != fingerprint:
            raise StoreError(
                f"store {self.path} holds a different study "
                f"(plan fingerprint {str(manifest.get('fingerprint'))[:12]}… "
                f"!= {fingerprint[:12]}…); point --store at a fresh "
                f"directory or re-run the original plan"
            )
        return manifest

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        """Take the exclusive writer lock, failing fast if another process
        (or another handle in this one) is mid-study on the same store.

        A contended lock whose recorded holder PID is *dead* is stale —
        ``flock`` normally dies with its process, so a held lock under a
        dead PID means the flock survives on a file descriptor another
        process inherited, or on an odd filesystem.  The takeover breaks it
        by unlinking the lock file and locking a fresh inode: the stale
        flock keeps guarding the orphaned inode, nobody else can reach it,
        and the store proceeds.  (Two
        simultaneous takeovers of the same dead holder have the classic
        tiny pidfile race; chunk commits being idempotent bounds the harm.)
        """
        if self._lock_handle is not None:
            return
        for takeover in (False, True):
            handle = open(self.path / _LOCK, "a+")
            try:
                import fcntl
            except ImportError:  # pragma: no cover - non-POSIX platforms
                self._lock_handle = handle
                return
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                # The holder wrote its PID into the lock file on acquire, so
                # the error can name who to wait for (or kill).
                try:
                    handle.seek(0)
                    holder = handle.read(64).strip() or "unknown"
                except OSError:  # pragma: no cover - lock file unreadable
                    holder = "unknown"
                handle.close()
                if not takeover and not _holder_alive(holder):
                    try:
                        os.unlink(self.path / _LOCK)
                    except OSError:  # pragma: no cover - raced takeover
                        pass
                    continue
                raise StoreError(
                    f"store {self.path} is locked by another running study "
                    f"(held by PID {holder}); two concurrent writers would "
                    f"corrupt the store — wait for that invocation to finish "
                    f"(or kill it) and re-run to resume; inspect progress "
                    f"with `repro status --store {self.path}`"
                ) from None
            # Advertise ourselves as the holder for later contenders.
            handle.truncate(0)
            handle.write(str(os.getpid()))
            handle.flush()
            _HELD_LOCKS.add(handle)
            self._lock_handle = handle
            return

    def release(self) -> None:
        """Release the writer lock (held from :meth:`begin`; reads never
        lock).  Dropped automatically when the process exits, so a killed
        study leaves the store immediately resumable."""
        if self._lock_handle is not None:
            _HELD_LOCKS.discard(self._lock_handle)
            self._lock_handle.close()
            self._lock_handle = None

    # ------------------------------------------------------------------
    # manifest / chunk-log plumbing
    # ------------------------------------------------------------------
    def _read_manifest(self) -> Dict[str, Any]:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(
                f"cannot read store manifest {self.manifest_path}: {error}"
            ) from None
        if not isinstance(manifest, dict) or "cells" not in manifest:
            raise StoreError(
                f"{self.manifest_path} is not a run-store manifest"
            )
        schema = manifest.get("schema")
        fmt = manifest.get("format", "jsonl")
        # Schema 2 is the manifest of the retired binary npz format.
        if schema == 2 or fmt == "npz":
            raise StoreError(
                f"{self.path} is an npz-format run store, and npz shards "
                f"are no longer read; re-run the study into a fresh --store "
                f"directory (execution is deterministic per seed, so the "
                f"re-run reproduces the same results)"
            )
        if schema != self.SCHEMA_VERSION:
            raise StoreError(
                f"unsupported store schema {schema!r} in {self.manifest_path} "
                f"(this build reads schema {self.SCHEMA_VERSION}); the store "
                f"was written by a newer repro — upgrade this checkout, or "
                f"re-run the study into a fresh --store directory to "
                f"rewrite it in a supported format"
            )
        if fmt != "jsonl":
            raise StoreError(
                f"unknown shard format {fmt!r} in "
                f"{self.manifest_path} (this build reads jsonl)"
            )
        return manifest

    def _write_manifest(self) -> None:
        """Write the immutable store identity, atomically (once, at begin)."""
        data = json.dumps(self._require_manifest(),
                          separators=(",", ":")).encode("utf-8")
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        sync_directory(self.path)

    def _read_chunk_log(self) -> Dict[str, Dict[str, Any]]:
        """Parse the committed lines of the chunk-commit log.

        A torn tail (kill mid-append) was never committed: it is left
        out here, and the next commit's :func:`open_for_append` truncates
        it away.  An unreadable *committed* line means committed data was
        damaged and raises.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        path = self.chunk_log_path
        for line in read_committed_lines(path)[0]:
            try:
                entry = json.loads(line.decode("utf-8"))
                chunk_id = str(entry["id"])
                for key in ("cell", "start", "count", "offset", "length"):
                    entry[key] = int(entry[key])
                str(entry["sha256"])
            except (ValueError, KeyError) as error:
                raise StoreError(
                    f"store chunk log {path} holds an unreadable "
                    f"committed entry: {error}; the store is corrupt"
                ) from None
            entries[chunk_id] = entry
        return entries

    def _require_manifest(self) -> Dict[str, Any]:
        if self._manifest is None:
            if not self.is_started:
                raise StoreError(
                    f"{self.path} is not a run store (no {_MANIFEST}); "
                    f"start one with Study.run(store=...) or --store"
                )
            self._manifest = self._read_manifest()
        return self._manifest

    def _require_chunks(self) -> Dict[str, Dict[str, Any]]:
        if self._chunks is None:
            self._require_manifest()
            self._chunks = self._read_chunk_log()
        return self._chunks

    def _repair_shards(self) -> None:
        """Truncate uncommitted shard tails; reject shards missing data.

        The append protocol fsyncs shard bytes before the chunk log
        commits them, so extra bytes past the last committed range are an
        interrupted append (safe to discard) while *missing* bytes mean
        committed data itself is gone (unrecoverable corruption).
        """
        manifest = self._require_manifest()
        committed: Dict[int, int] = {}
        for entry in self._require_chunks().values():
            end = entry["offset"] + entry["length"]
            committed[entry["cell"]] = max(committed.get(entry["cell"], 0), end)
        for cell, end in committed.items():
            shard = self.path / manifest["cells"][cell]["shard"]
            try:
                size = shard.stat().st_size
            except OSError:
                raise StoreError(
                    f"store shard {shard} is missing but the chunk log "
                    f"commits {end} bytes of it; the store is corrupt"
                ) from None
            if size < end:
                raise StoreError(
                    f"store shard {shard} holds {size} bytes but the "
                    f"chunk log commits {end}; the store is corrupt"
                )
            if size > end:
                with open(shard, "rb+") as handle:
                    handle.truncate(end)

    # ------------------------------------------------------------------
    # layout / progress
    # ------------------------------------------------------------------
    @property
    def chunk_size(self) -> int:
        """Seeds per chunk (the committed layout once the store is open)."""
        if self._manifest is not None:
            return int(self._manifest["chunk_size"])
        return self._requested_chunk_size or DEFAULT_CHUNK_SIZE

    @property
    def fingerprint(self) -> str:
        """Plan fingerprint the store is bound to."""
        return str(self._require_manifest()["fingerprint"])

    @property
    def study(self) -> Dict[str, Any]:
        """The stored study description (result-set metadata on load)."""
        return self._require_manifest()["study"]

    def chunks(self) -> List[StoreChunk]:
        """The full chunk layout of the plan, in plan order."""
        manifest = self._require_manifest()
        return chunk_layout(
            [int(cell["num_seeds"]) for cell in manifest["cells"]],
            int(manifest["chunk_size"]),
        )

    def completed_ids(self) -> set:
        """Identifiers of the chunks the log has committed."""
        return set(self._require_chunks())

    @property
    def is_complete(self) -> bool:
        """Whether every chunk of the plan has been committed."""
        return (len(self._require_chunks())
                >= int(self._require_manifest()["total_chunks"]))

    def summary(self) -> Dict[str, Any]:
        """Flat store summary (the ``status`` subcommand's payload)."""
        manifest = self._require_manifest()
        chunks = self._require_chunks()
        done_tasks = sum(entry["count"] for entry in chunks.values())
        benchmarks = list(dict.fromkeys(
            cell["benchmark"] for cell in manifest["cells"]))
        designs = list(dict.fromkeys(
            cell["design"] for cell in manifest["cells"]))
        try:
            updated = self.chunk_log_path.stat().st_mtime
        except OSError:
            updated = manifest.get("created")
        return {
            "path": str(self.path),
            "name": manifest["study"].get("name"),
            "fingerprint": manifest["fingerprint"],
            "chunk_size": int(manifest["chunk_size"]),
            "cells": len(manifest["cells"]),
            "benchmarks": benchmarks,
            "designs": designs,
            "done_chunks": len(chunks),
            "total_chunks": int(manifest["total_chunks"]),
            "done_tasks": done_tasks,
            "total_tasks": int(manifest["total_tasks"]),
            "complete": self.is_complete,
            "updated": updated,
        }

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append_chunk(self, chunk: StoreChunk,
                     records: Sequence[RunRecord]) -> None:
        """Durably commit one completed chunk (shard append, then log line).

        The records must be the chunk's runs in seed order.  Once this
        method returns, the chunk survives a kill: its bytes are fsynced
        in the shard and the fsynced chunk-log line names them.  Both
        writes are O(chunk), never O(store).

        Degrades gracefully when the filesystem fails (``ENOSPC``, I/O
        errors, injected faults at the ``store.fsync``,
        ``store.shard.write``, and ``store.log.append`` failpoints): the
        failing chunk is simply *not committed* and a structured
        :class:`~repro.exceptions.StoreWriteError` carries the resume
        point — every previously committed chunk stays durable, and a
        freshly loaded store resumes from exactly there after repairing
        any torn tail this failure left.
        """
        manifest = self._require_manifest()
        chunks = self._require_chunks()
        if len(records) != chunk.count:
            raise StoreError(
                f"chunk {chunk.id} expects {chunk.count} records, "
                f"got {len(records)}"
            )
        if chunk.id in chunks:
            return  # already durable; re-commits are harmless no-ops
        data = encode_chunk(records)
        shard = self.path / manifest["cells"][chunk.cell]["shard"]
        try:
            shard_is_new = not shard.exists()
            with open(shard, "ab") as handle:
                offset = handle.tell()
                action = failpoint("store.shard.write")
                if action is not None and action.kind == "torn":
                    # Tear the append: part of the payload reaches the
                    # shard, the commit record never follows.  Reopen
                    # truncates the orphaned tail (_repair_shards).
                    handle.write(data[: max(1, len(data) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise action.error()
                handle.write(data)
                handle.flush()
                failpoint("store.fsync")
                os.fsync(handle.fileno())
            if shard_is_new:
                # A fsynced file whose directory entry is lost to a power
                # cut would make the committed chunk unreadable; pin the
                # creation before the log line commits it.
                sync_directory(shard.parent)
            entry = {
                "id": chunk.id,
                "cell": chunk.cell,
                "start": chunk.start,
                "count": chunk.count,
                "offset": offset,
                "length": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            line = (json.dumps(entry, separators=(",", ":"))
                    + "\n").encode("utf-8")
            with open_for_append(self.chunk_log_path) as handle:
                action = failpoint("store.log.append")
                if action is not None and action.kind == "torn":
                    # Tear the commit line itself; without its trailing
                    # newline it is not committed, and the next commit's
                    # open truncates it.
                    handle.write(line[: max(1, len(line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise action.error()
                handle.write(line)
                handle.flush()
                failpoint("store.fsync")
                os.fsync(handle.fileno())
        except OSError as error:
            committed_runs = sum(e["count"] for e in chunks.values())
            raise StoreWriteError(
                f"cannot durably append chunk {chunk.id} to store "
                f"{self.path}: {error}; the {len(chunks)} committed "
                f"chunk(s) covering {committed_runs} run(s) remain "
                f"durable — reload the store to resume from there",
                errno=getattr(error, "errno", None),
                committed_chunks=len(chunks),
                committed_runs=committed_runs,
            ) from error
        chunks[chunk.id] = entry

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read_chunk_bytes(self, chunk: StoreChunk) -> tuple:
        """Fetch one committed chunk's verified bytes (+ shard path, entry)."""
        manifest = self._require_manifest()
        entry = self._require_chunks().get(chunk.id)
        if entry is None:
            raise StoreError(
                f"chunk {chunk.id} is not committed in store {self.path}"
            )
        shard = self.path / manifest["cells"][chunk.cell]["shard"]
        try:
            with open(shard, "rb") as handle:
                handle.seek(entry["offset"])
                data = handle.read(entry["length"])
        except OSError as error:
            raise StoreError(
                f"cannot read store shard {shard}: {error}"
            ) from None
        if len(data) != entry["length"]:
            raise StoreError(
                f"store shard {shard} is truncated: chunk {chunk.id} "
                f"expects {entry['length']} bytes at offset "
                f"{entry['offset']}, got {len(data)}; the store is corrupt"
            )
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise StoreError(
                f"store shard {shard} fails its checksum for chunk "
                f"{chunk.id}; the store is corrupt — delete the store "
                f"directory and re-run to recompute"
            )
        return data, shard, entry

    def _read_chunk_block(self, chunk: StoreChunk,
                          fields: Optional[Sequence[str]] = None
                          ) -> Tuple[Dict[str, List[Any]],
                                     List[Dict[str, Any]]]:
        """One committed chunk, verified and decoded by
        :func:`decode_chunk_columns` into ``(columns, params)``."""
        data, shard, entry = self._read_chunk_bytes(chunk)
        try:
            columns, params = decode_chunk_columns(data, fields)
        except StoreError as error:
            if "has no column" in str(error):
                raise StoreError(f"store {self.path}: {error}") from None
            raise StoreError(
                f"store shard {shard} holds an unreadable record in chunk "
                f"{chunk.id}: {error}; the store is corrupt"
            ) from None
        if len(params) != entry["count"]:
            raise StoreError(
                f"store shard {shard} holds {len(params)} records for "
                f"chunk {chunk.id}, expected {entry['count']}; the store "
                f"is corrupt"
            )
        return columns, params

    def read_chunk(self, chunk: StoreChunk) -> List[RunRecord]:
        """Read back one committed chunk, verifying its integrity."""
        return _records(*self._read_chunk_block(chunk))

    def read_chunk_columns(self, chunk: StoreChunk,
                           fields: Sequence[str]) -> Dict[str, List[Any]]:
        """Read only the requested columns of one committed chunk.

        ``fields`` may name fixed record columns or swept parameters.  A
        field absent from the store raises
        :class:`~repro.exceptions.StoreError` naming the available metric
        columns and swept parameters.
        """
        return self._read_chunk_block(chunk, list(fields))[0]

    def iter_column_blocks(self, fields: Sequence[str]
                           ) -> Iterator[Dict[str, List[Any]]]:
        """Stream the requested columns chunk by chunk, in plan order.

        The columnar analogue of :meth:`iter_records`: one block — a
        ``{field: values}`` mapping covering one committed chunk — is
        materialised at a time, so streaming aggregation
        (:func:`~repro.study.results.aggregate_stream`) runs in bounded
        memory and never builds record objects at all.
        """
        completed = self.completed_ids()
        fields = list(fields)
        for chunk in self.chunks():
            if chunk.id in completed:
                yield self.read_chunk_columns(chunk, fields)

    def iter_records(self) -> Iterator[RunRecord]:
        """Stream every committed record in plan order, chunk by chunk.

        Only one chunk is materialised at a time, so incremental consumers
        run in bounded memory.  Uncommitted chunks are skipped; use
        :meth:`load_results` (or check :attr:`is_complete`) when
        completeness matters.
        """
        completed = self.completed_ids()
        for chunk in self.chunks():
            if chunk.id in completed:
                yield from self.read_chunk(chunk)

    def load_results(self, allow_partial: bool = False) -> ResultSet:
        """Materialise the stored records as a :class:`ResultSet`.

        The result is byte-identical (``to_json``) to what
        :meth:`Study.run` returned for the same plan — records in plan
        order, metadata from the stored study description.  An incomplete
        store raises unless ``allow_partial`` is set.  Chunks decode
        straight into the result set's columns through
        :func:`decode_chunk_columns`; no record object is built.
        """
        if not allow_partial and not self.is_complete:
            raise StoreError(
                f"store {self.path} is incomplete "
                f"({len(self._require_chunks())}"
                f"/{self._require_manifest()['total_chunks']} chunks); "
                f"resume the study to finish it, or pass allow_partial=True "
                f"to load what exists"
            )
        columns: Dict[str, List[Any]] = {name: [] for name in FIXED_FIELDS}
        params: List[Dict[str, Any]] = []
        completed = self.completed_ids()
        for chunk in self.chunks():
            if chunk.id not in completed:
                continue
            block, block_params = self._read_chunk_block(chunk)
            for name, values in block.items():
                columns[name].extend(values)
            params.extend(block_params)
        return ResultSet._from_columns(columns, params, metadata=self.study)

    def __repr__(self) -> str:
        state = "unopened"
        if self._manifest is not None and self._chunks is not None:
            state = (f"{len(self._chunks)}"
                     f"/{self._manifest['total_chunks']} chunks")
        return f"RunStore({str(self.path)!r}, {state})"
