"""Compile-artifact caches keyed by configuration fingerprints.

The compile stage of the engine is deterministic: the same (system,
partitioning, benchmark, design, scheduling parameters) always produces the
same :class:`~repro.engine.compiler.CompiledCell`.  The caches therefore key
artifacts by a SHA-256 fingerprint of the *configuration that produced them*
rather than by object identity, so a :class:`~repro.study.study.Study`
sweeping system fields (the Fig. 7 communication-qubit axis, say) shares
one cache across its system variants and only recompiles what actually
changed (the partitioned program survives a communication-qubit change;
the schedule lookup table does not).

Two tiers are available:

* :class:`ArtifactCache` — in-memory only; dies with the process.
* :class:`PersistentArtifactCache` — the same interface with a disk tier:
  artifacts are pickled under a cache directory (layout
  ``<dir>/v<N>/<namespace>/<fingerprint>.pkl``, where ``v<N>`` is the
  on-disk format version), written atomically (temp file + rename), and
  read back across processes.  Corrupted or truncated entries are treated
  as misses and removed.  ``REPRO_CACHE_DIR`` (or the CLI's ``--cache-dir``)
  selects the directory; see :func:`default_cache`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "ArtifactCache",
    "PersistentArtifactCache",
    "fingerprint",
    "resolve_cache_dir",
    "default_cache",
    "CACHE_ENV_VAR",
    "CACHE_FORMAT_VERSION",
]

#: Environment variable selecting the persistent cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: On-disk format version; bump when pickled artifact layouts change so
#: stale entries from older code are invalidated wholesale (they live under
#: a different ``v<N>`` directory and are simply never read again).  4: QPU
#: nodes pickle as qubit counts, without per-qubit clock objects.
CACHE_FORMAT_VERSION = 4

#: Internal sentinel distinguishing "nothing stored" from a stored ``None``.
_MISSING = object()

_PRIMITIVES = frozenset({str, int, float, bool, type(None)})


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, repr-stable structure."""
    if type(value) in _PRIMITIVES:
        return value  # the common case, ahead of the subclass checks
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, _canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return (type(value).__name__, fields)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot fingerprint {type(value).__name__}; pass primitives, "
        f"dataclasses, enums, or containers of them"
    )


def fingerprint(*parts: Any) -> str:
    """SHA-256 fingerprint of a canonicalised tuple of configuration parts."""
    canonical = repr(tuple(_canonical(part) for part in parts))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactCache:
    """In-memory store of compile artifacts with hit / miss accounting.

    Entries are namespaced (``"program"``, ``"cell"``, ...) so one cache can
    hold every artifact kind of the compile stage.  The cache is unbounded:
    a sweep compiles each distinct cell once, and a process keeps them all.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], Any] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Any]:
        """Look up an artifact, counting the hit or miss.

        A stored ``None`` artifact is a *hit* (distinguished from an absent
        entry by an internal sentinel), so the hit/miss statistics stay
        truthful for caches that legitimately store ``None`` values.
        """
        entry = self._entries.get((namespace, key), _MISSING)
        if entry is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, namespace: str, key: str, artifact: Any) -> Any:
        """Store an artifact and return it (for call-site chaining)."""
        self._entries[(namespace, key)] = artifact
        return artifact

    def count(self, namespace: Optional[str] = None) -> int:
        """Number of stored artifacts, optionally within one namespace."""
        if namespace is None:
            return len(self._entries)
        return sum(1 for space, _ in self._entries if space == namespace)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit / miss counters without touching the entries.

        Benchmarks call this between phases so each phase's ``stats()``
        reflects only its own lookups instead of the warm-up's.
        """
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache.

        An idle cache (no lookups yet — in particular an *empty* one) has no
        meaningful rate; the division is guarded and reported as 0.0 rather
        than raising or pretending a rate exists.
        """
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def stats(self) -> Dict[str, Union[int, float]]:
        """Flat statistics summary (used by benchmarks and reports).

        Counter values are plain ``int``; only ``hit_rate`` is a float.
        """
        return {
            "entries": int(len(self._entries)),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "lookups": int(self.hits + self.misses),
            "hit_rate": float(self.hit_rate),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._entries


class PersistentArtifactCache(ArtifactCache):
    """Two-tier artifact cache: an in-memory front over a disk store.

    Artifacts are pickled under ``directory/v<version>/<namespace>/<key>.pkl``
    so a fresh process (or machine reboot) starts sweeps with compilation
    already paid.  The fingerprint keys are stable across processes (SHA-256
    of the canonicalised configuration), and the ``v<version>`` path segment
    acts as a format-version salt: bumping
    :data:`CACHE_FORMAT_VERSION` orphans old entries instead of unpickling
    incompatible layouts.

    Writes are atomic (temp file in the target directory, then
    ``os.replace``), so concurrent writers of the same key leave one valid
    entry and readers never observe a torn file.  Unreadable or corrupted
    entries are treated as misses and deleted.  Disk write failures (e.g. a
    full disk) degrade the cache to memory-only for the affected entries and
    are counted in ``disk_errors`` rather than aborting the sweep.  A disk
    hit is promoted to the memory front.
    """

    def __init__(self, directory: Union[str, Path],
                 version: int = CACHE_FORMAT_VERSION) -> None:
        super().__init__()
        self.directory = Path(directory).expanduser()
        self.version = int(version)
        self.memory_hits = 0
        self.disk_hits = 0
        self.disk_errors = 0

    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The versioned root all entries of this cache live under."""
        return self.directory / f"v{self.version}"

    def entry_path(self, namespace: str, key: str) -> Path:
        """On-disk location of one artifact."""
        return self.root / namespace / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Any]:
        entry = self._entries.get((namespace, key), _MISSING)
        if entry is not _MISSING:
            self.hits += 1
            self.memory_hits += 1
            return entry
        artifact = self._read_disk(namespace, key)
        if artifact is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self.disk_hits += 1
        self._entries[(namespace, key)] = artifact
        return artifact

    def put(self, namespace: str, key: str, artifact: Any) -> Any:
        self._entries[(namespace, key)] = artifact
        self._write_disk(namespace, key, artifact)
        return artifact

    # ------------------------------------------------------------------
    def _read_disk(self, namespace: str, key: str) -> Any:
        path = self.entry_path(namespace, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISSING
        except Exception:
            # Truncated write from a killed process, bit rot, or an entry
            # pickled by incompatible code: any unpickling failure is a
            # miss, and the bad file is removed so it is re-written clean.
            self.disk_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return _MISSING

    def _write_disk(self, namespace: str, key: str, artifact: Any) -> None:
        path = self.entry_path(namespace, key)
        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            tmp = None
        except Exception:
            # A full/read-only disk (OSError) or an artifact that cannot be
            # pickled (closures, open handles) must not fail the compile —
            # the cache degrades to memory-only for that entry.
            self.disk_errors += 1
        finally:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def disk_entries(self) -> Iterator[Tuple[str, str, int, float]]:
        """Yield ``(namespace, key, size_bytes, mtime)`` per disk entry."""
        root = self.root
        if not root.is_dir():
            return
        for ns_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for path in sorted(ns_dir.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced deletion
                    continue
                yield ns_dir.name, path.stem, int(stat.st_size), stat.st_mtime

    def disk_count(self) -> int:
        """Number of artifacts stored on disk (current format version)."""
        return sum(1 for _ in self.disk_entries())

    def disk_bytes(self) -> int:
        """Total pickled size on disk (current format version)."""
        return sum(size for _, _, size, _ in self.disk_entries())

    def clear(self) -> None:
        """Drop the memory front, the stats, and this version's disk tree."""
        super().clear()
        self.memory_hits = 0
        self.disk_hits = 0
        self.disk_errors = 0
        shutil.rmtree(self.root, ignore_errors=True)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.memory_hits = 0
        self.disk_hits = 0
        self.disk_errors = 0

    def stats(self) -> Dict[str, Union[int, float]]:
        data = super().stats()
        data.update({
            "memory_hits": int(self.memory_hits),
            "disk_hits": int(self.disk_hits),
            "disk_errors": int(self.disk_errors),
            "disk_entries": int(self.disk_count()),
            "disk_bytes": int(self.disk_bytes()),
        })
        return data


# ----------------------------------------------------------------------
def resolve_cache_dir(override: Union[None, str, Path] = None
                      ) -> Optional[Path]:
    """Resolve the persistent cache directory, if any.

    ``override`` (a CLI flag or API argument) wins; otherwise the
    ``REPRO_CACHE_DIR`` environment variable applies.  ``None`` / empty
    means no disk tier.
    """
    if override is not None and str(override) != "":
        return Path(override).expanduser()
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return None


def default_cache(cache_dir: Union[None, str, Path] = None) -> ArtifactCache:
    """Build the default artifact cache, honouring ``REPRO_CACHE_DIR``.

    Returns a :class:`PersistentArtifactCache` when a cache directory is
    configured (argument or environment), else a plain in-memory
    :class:`ArtifactCache`.
    """
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return ArtifactCache()
    return PersistentArtifactCache(directory)
