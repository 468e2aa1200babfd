"""Append-only benchmark history ledger with regression detection.

Every CI perf-smoke run produces ``BENCH_*.json`` payloads (written by the
scripts under ``benchmarks/``).  The ledger turns those one-shot snapshots
into a *history*: ``repro bench record`` appends each payload's numeric
metrics as one fsynced JSON line, and ``repro bench check`` compares the
current payloads against a **rolling-median baseline** over the last few
recorded entries, failing loudly — naming the metric, its value, and the
baseline — when a gated metric regresses past a noise allowance.  The
rolling median absorbs single noisy runs on shared CI hardware; the
allowance absorbs run-to-run jitter; a genuine slowdown shifts the whole
distribution and trips the gate.

Only metrics whose *direction* is recognisable from their name are gated:

* **lower is better** — timings (``*_s``, ``*_ms``, ``*_seconds``,
  ``*latency*``),
* **higher is better** — rates and ratios (``*speedup*``, ``*_per_s``,
  ``*_per_second``, ``*throughput*``, ``*rate*``).

Everything else (counts, sizes, configuration echoes) is recorded for the
history but never gated.  The first recording of a metric has no history
and passes (bootstrap), but a check against a ledger with history must
match at least one recorded gated metric: a payload whose file was renamed
lands in a namespace the ledger never saw, and comparing nothing would
pass (:func:`unmatched_namespaces`).  Ledger reads tolerate a torn final
line — the fsync-before-newline append protocol means a torn tail is an
interrupted append, never committed history — and the next record
truncates it before appending, while an unparsable *committed* line
raises: the run-store chunk log's protocol, through the same helpers
(:func:`~repro.study.store.read_committed_lines`,
:func:`~repro.study.store.open_for_append`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError

__all__ = [
    "BenchLedger",
    "LedgerError",
    "Regression",
    "check_metrics",
    "classify_metric",
    "flatten_metrics",
    "unmatched_namespaces",
    "DEFAULT_WINDOW",
    "DEFAULT_ALLOWANCE",
]

#: History entries the rolling-median baseline looks back over.
DEFAULT_WINDOW = 5

#: Fractional noise allowance around the baseline (0.2 = 20%).  Chosen
#: below the 30% drift the CI self-test injects, and above the few-percent
#: jitter shared runners exhibit.
DEFAULT_ALLOWANCE = 0.2

_LOWER_SUFFIXES = ("_s", "_ms", "_seconds")
_HIGHER_SUFFIXES = ("_per_s", "_per_second")
_HIGHER_TOKENS = ("speedup", "throughput", "rate")


class LedgerError(ReproError):
    """A bench ledger could not be read or holds corrupt committed data."""


def classify_metric(name: str) -> Optional[str]:
    """Gate direction of a metric name: ``"lower"``, ``"higher"``, or
    ``None`` for metrics that are recorded but never gated."""
    leaf = name.rsplit(".", 1)[-1].lower()
    # Rates first: ``runs_per_s`` also ends with the ``_s`` timing suffix.
    if leaf.endswith(_HIGHER_SUFFIXES) or any(token in leaf
                                              for token in _HIGHER_TOKENS):
        return "higher"
    if leaf.endswith(_LOWER_SUFFIXES) or "latency" in leaf:
        return "lower"
    return None


def flatten_metrics(payload: Mapping[str, Any],
                    prefix: str = "") -> Dict[str, float]:
    """Flatten a ``BENCH_*.json`` payload to dotted numeric leaves.

    Nested mappings join their keys with ``.``; int/float leaves are kept
    (bools and everything non-numeric are dropped).
    """
    flat: Dict[str, float] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = float(value)
    return flat


def _source_key(path: Union[str, Path]) -> str:
    """Stable per-payload namespace: ``BENCH_runtime.json`` → ``runtime``."""
    stem = Path(path).stem
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem


def load_bench_file(path: Union[str, Path]) -> Dict[str, float]:
    """Load one ``BENCH_*.json`` payload as namespaced flat metrics."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise LedgerError(f"cannot read bench payload {path}: {error}"
                          ) from None
    if not isinstance(payload, dict):
        raise LedgerError(f"bench payload {path} is not a JSON object")
    return flatten_metrics(payload, prefix=f"{_source_key(path)}.")


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past its allowance."""

    metric: str
    value: float
    baseline: float
    direction: str
    allowance: float
    window: int

    @property
    def ratio(self) -> float:
        """Current value relative to the baseline (1.0 = unchanged)."""
        if self.baseline == 0.0:
            return float("inf") if self.value > 0.0 else 1.0
        return self.value / self.baseline

    def describe(self) -> str:
        worse = ("slower" if self.direction == "lower" else "lower")
        return (
            f"{self.metric}: {self.value:.6g} vs rolling-median baseline "
            f"{self.baseline:.6g} (last {self.window} runs) — "
            f"{abs(self.ratio - 1.0) * 100.0:.1f}% {worse}, allowance "
            f"{self.allowance * 100.0:.0f}%"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_metrics(current: Mapping[str, float],
                  history: Sequence[Mapping[str, float]],
                  window: int = DEFAULT_WINDOW,
                  allowance: float = DEFAULT_ALLOWANCE) -> List[Regression]:
    """Gated metrics of ``current`` that regressed vs the rolling median.

    ``history`` is oldest-first (the ledger's order); the baseline for a
    metric is the median of its last ``window`` recorded values.  Metrics
    with no recorded history bootstrap silently.
    """
    if window < 1:
        raise LedgerError("ledger window must be positive")
    if allowance < 0:
        raise LedgerError("ledger allowance cannot be negative")
    regressions: List[Regression] = []
    for metric in sorted(current):
        direction = classify_metric(metric)
        if direction is None:
            continue
        past = [entry[metric] for entry in history if metric in entry]
        if not past:
            continue  # first recording: nothing to compare against yet
        baseline = _median(past[-window:])
        value = current[metric]
        if direction == "lower":
            regressed = value > baseline * (1.0 + allowance)
        else:
            regressed = value < baseline * (1.0 - allowance)
        if regressed:
            regressions.append(Regression(
                metric=metric, value=value, baseline=baseline,
                direction=direction, allowance=allowance,
                window=min(window, len(past)),
            ))
    return regressions


def _namespaces(metrics) -> List[str]:
    return sorted({name.split(".", 1)[0] for name in metrics})


def unmatched_namespaces(current: Mapping[str, float],
                         history: Sequence[Mapping[str, float]],
                         ) -> Optional[Tuple[List[str], List[str]]]:
    """``(payload, recorded)`` namespaces of a check that compares nothing.

    A payload's metrics are namespaced by its file name
    (``BENCH_runtime.json`` → ``runtime.*``), so a renamed payload matches
    no recorded metric and every one of its metrics would bootstrap.
    Returns ``None`` when the ledger is empty, when ``current`` gates
    nothing, or when at least one gated metric has history — a new metric
    next to matched ones still bootstraps.
    """
    gated = [name for name in current if classify_metric(name) is not None]
    if not history or not gated:
        return None
    recorded = {name for entry in history for name in entry}
    if any(name in recorded for name in gated):
        return None
    return _namespaces(gated), _namespaces(recorded)


class BenchLedger:
    """Append-only JSONL history of benchmark metrics.

    One line per recorded run: ``{"ts": ..., "run": ..., "metrics":
    {dotted-name: value, ...}}``.  Appends are fsynced with the newline as
    the commit marker, so reads drop a torn final line (interrupted
    append), the next :meth:`record` truncates it, and an unparsable
    committed line raises :class:`LedgerError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def entries(self) -> List[Dict[str, Any]]:
        """All committed entries, oldest first (empty if no ledger yet)."""
        from repro.study.store import read_committed_lines

        try:
            lines, _ = read_committed_lines(self.path)
        except OSError as error:
            raise LedgerError(
                f"cannot read bench ledger {self.path}: {error}") from None
        entries: List[Dict[str, Any]] = []
        for line in lines:
            try:
                entry = json.loads(line.decode("utf-8"))
                metrics = entry["metrics"]
                if not isinstance(metrics, dict):
                    raise ValueError("metrics is not an object")
            except (ValueError, KeyError, UnicodeDecodeError) as error:
                raise LedgerError(
                    f"bench ledger {self.path} holds an unreadable "
                    f"committed entry: {error}; the ledger is corrupt — "
                    f"delete it to restart the history"
                ) from None
            entries.append(entry)
        return entries

    def history(self) -> List[Dict[str, float]]:
        """Just the metric mappings of every committed entry, oldest first."""
        return [entry["metrics"] for entry in self.entries()]

    def record(self, metrics: Mapping[str, float],
               run: Optional[str] = None,
               timestamp: Optional[float] = None) -> Dict[str, Any]:
        """Durably append one run's metrics; returns the committed entry.

        The append that creates the ledger also fsyncs its directory, so
        a power cut cannot lose the file itself.
        """
        from repro.study.store import open_for_append

        entry = {
            "ts": float(timestamp if timestamp is not None else time.time()),
            "run": run,
            "metrics": dict(metrics),
        }
        line = (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open_for_append(self.path) as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        return entry

    def check(self, current: Mapping[str, float],
              window: int = DEFAULT_WINDOW,
              allowance: float = DEFAULT_ALLOWANCE) -> List[Regression]:
        """Compare ``current`` against this ledger's committed history."""
        return check_metrics(current, self.history(),
                             window=window, allowance=allowance)
