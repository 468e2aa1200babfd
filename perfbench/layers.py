"""Spans around the public entry points of each ``repro`` layer.

The traced benchmark run installs these wrappers, records one span per call
and uninstalls them again.  Timed runs never import this module.  Each
wrapper patches the name where its caller looks it up: the compiler calls
``build_benchmark`` through ``repro.engine.compiler``, so that module
attribute is replaced; methods are replaced on their class.

A span is ``{"id", "name", "start", "end", "parent", "thread"}`` on the
``time.monotonic`` clock, which all processes of one machine share.  Two
kinds of call are not worth a span each:

* per-gate leaves (``EntanglementService.acquire``, ``FidelityModel.estimate``)
  get a full span on their first call in the process, so a cold first call
  stays visible, and after that add ``[calls, seconds]`` to their parent
  span's ``"leaves"``;
* counters (compile-cache lookups, store fsyncs) only count.

A layer's self time is its spans' durations minus the part covered by child
spans and aggregated leaves (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name, kind) of every wrapped entry point.
#: Kinds: ``span`` records every call, ``leaf`` aggregates after the first
#: call, ``count`` only increments counters.
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.study.study", "Study.plan", "study.plan", "span"),
    ("repro.study.study", "Study.run", "study.run", "span"),
    ("repro.study.study", "_ChunkSink.__call__", "study.sink", "span"),
    ("repro.study.study", "Study.compile_plan", "compile", "span"),
    ("repro.engine.compiler", "CellCompiler.compile", "compile.cell", "span"),
    ("repro.engine.compiler", "build_benchmark",
     "compile.build_benchmark", "span"),
    ("repro.engine.compiler", "distribute_circuit", "compile.partition",
     "span"),
    ("repro.runtime.executor", "DesignExecutor.build_lookup",
     "compile.lookup", "span"),
    ("repro.engine.compiler", "lower_cell", "compile.lower", "span"),
    ("repro.engine.cache", "ArtifactCache.get", "compile.cache", "count"),
    ("repro.engine.cache", "PersistentArtifactCache.get", "compile.cache",
     "count"),
    ("repro.engine.backends", "SerialBackend.execute", "execute.backend",
     "span"),
    ("repro.engine.compiler", "CompiledCell.execute_batch", "execute.batch",
     "span"),
    ("repro.entanglement.service", "EntanglementService.acquire",
     "entanglement.acquire", "leaf"),
    ("repro.noise.fidelity", "FidelityModel.estimate", "fidelity.estimate",
     "leaf"),
    ("repro.study.store", "RunStore.begin", "store.begin", "span"),
    ("repro.study.store", "RunStore.append_chunk", "store.append", "span"),
    ("repro.study.store", "RunStore.load", "store.read", "span"),
    ("repro.study.store", "RunStore.read_chunk", "store.read", "span"),
    ("repro.study.store", "RunStore.load_results", "store.read", "span"),
    ("os", "fsync", "store.fsyncs", "count"),
    ("repro.study.results", "ResultSet.from_store", "results.load", "span"),
    ("repro.study.results", "ResultSet.aggregate", "results.aggregate",
     "span"),
    ("repro.study.results", "ResultSet.to_json", "results.to_json", "span"),
)

#: The daemon side of the service layer (installed by ``serve_traced.py``).
DAEMON_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.daemon", "StudyDaemon.submit", "service.daemon.submit",
     "span"),
    ("repro.service.daemon", "StudyDaemon.job_status",
     "service.daemon.status", "span"),
    ("repro.service.daemon", "StudyDaemon.results", "service.daemon.results",
     "span"),
)

#: The client side of the service layer (installed in the run.py process).
CLIENT_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.client", "ServiceClient.submit", "service.submit", "span"),
    ("repro.service.client", "ServiceClient.job", "service.poll", "span"),
    ("repro.service.client", "ServiceClient.results", "service.fetch", "span"),
)

def layer_of(name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]


def _batch_counts(result: Any) -> Dict[str, int]:
    """Work counts of one ``CompiledCell.execute_batch`` call."""
    counts = {"seeds": len(result), "remote_gates": 0,
              "epr_generated": 0, "epr_wasted": 0}
    for run in result:
        counts["remote_gates"] += run.num_remote
        counts["epr_generated"] += int(run.epr_statistics.get("generated", 0))
        counts["epr_wasted"] += int(run.epr_statistics.get("wasted", 0))
    return counts


def _count_cache(args: tuple, result: Any) -> Optional[str]:
    return "compile.cache_misses" if result is None else "compile.cache_hits"


def _count_store_fsync(args: tuple, result: Any) -> Optional[str]:
    # Only the run store's fsyncs; the service journal fsyncs too.
    caller = sys._getframe(2).f_globals.get("__name__")
    return "store.fsyncs" if caller == "repro.study.store" else None


_RESULT_COUNTS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "execute.batch": _batch_counts,
}
_COUNTERS: Dict[str, Callable[[tuple, Any], Optional[str]]] = {
    "compile.cache": _count_cache,
    "store.fsyncs": _count_store_fsync,
}


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_leaves: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict[str, Any]:
        """Open a span on the calling thread."""
        stack = self._stack()
        span = {"id": next(self._ids), "name": name, "start": self.clock(),
                "end": None, "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident()}
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        """Close the innermost span of the calling thread."""
        span["end"] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def dump(self) -> Dict[str, Any]:
        """The JSON-ready trace: closed spans and counters."""
        return {"spans": [s for s in self.spans if s["end"] is not None],
                "counters": dict(self.counters)}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrapper(self, func: Callable, name: str, kind: str) -> Callable:
        if kind == "count":
            classify = _COUNTERS[name]

            @functools.wraps(func)
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                counter = classify(args, result)
                if counter is not None:
                    self.counters[counter] += 1
                return result
            return counted

        on_result = _RESULT_COUNTS.get(name)

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            stack = self._stack()
            if kind == "leaf" and stack and name in self._seen_leaves:
                start = self.clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = self.clock() - start
                    leaves = stack[-1].setdefault("leaves", {})
                    entry = leaves.get(name)
                    if entry is None:
                        leaves[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed
            self._seen_leaves.add(name)
            span = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                span["counts"] = on_result(result)
            return result
        return spanned

    def install(self, targets: Iterable[Tuple[str, str, str, str]]) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, path, name, kind in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func, rewrap = raw, None
            if isinstance(raw, (classmethod, staticmethod)):
                func, rewrap = raw.__func__, type(raw)
            wrapper = self._wrapper(func, name, kind)
            setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name not covered by child spans or leaves.

    Aggregated leaves have no children, so their whole time is their own.
    """
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += _duration(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        leaves = span.get("leaves", {})
        leaf_time = sum(seconds for _, seconds in leaves.values())
        totals[span["name"]] += (_duration(span) - children[span["id"]]
                                 - leaf_time)
        for leaf, (_, seconds) in leaves.items():
            totals[leaf] += seconds
    return dict(totals)


def inclusive_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name, counting nested same-name spans once."""
    by_id = {span["id"]: span for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            totals[span["name"]] += _duration(span)
        for leaf, (_, seconds) in span.get("leaves", {}).items():
            totals[leaf] += seconds
    return dict(totals)


def call_counts(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Calls per span name, aggregated leaves included."""
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span["name"]] += 1
        for leaf, (calls, _) in span.get("leaves", {}).items():
            totals[leaf] += calls
    return dict(totals)


def covered_time(spans: List[Dict[str, Any]]) -> float:
    """Seconds during which at least one span is open, on any thread."""
    covered = 0.0
    reach = None
    for span in sorted(spans, key=lambda s: s["start"]):
        start, end = span["start"], span["end"]
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        layers[layer_of(name)] += seconds
    return dict(layers)


def first_duration(spans: List[Dict[str, Any]], name: str) -> float:
    """Duration of the earliest span of ``name`` (0.0 if none)."""
    named = [span for span in spans if span["name"] == name]
    return _duration(min(named, key=lambda s: s["start"])) if named else 0.0


def layer_metrics(spans: List[Dict[str, Any]],
                  counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics a trace yields directly.

    Metrics named ``*.s`` are inclusive seconds of the wrapped call,
    ``*self_s`` are self seconds.  The caller adds what a trace cannot
    see: store bytes, service queue and run times, and trace overhead.
    """
    incl = inclusive_times(spans)
    own = self_times(spans)
    calls = call_counts(spans)
    batch = defaultdict(int)
    for span in spans:
        for key, value in span.get("counts", {}).items():
            batch[key] += value
    execute_s = incl.get("execute.batch", 0.0)
    return {
        "import.s": incl.get("import", 0.0),
        "compile.cells": calls.get("compile.cell", 0),
        "compile.s": incl.get("compile", 0.0),
        "compile.cache_hits": counters.get("compile.cache_hits", 0),
        "compile.cache_misses": counters.get("compile.cache_misses", 0),
        "compile.build_benchmark.s": incl.get("compile.build_benchmark", 0.0),
        "compile.partition.s": incl.get("compile.partition", 0.0),
        "compile.lookup.s": incl.get("compile.lookup", 0.0),
        "compile.lower.s": incl.get("compile.lower", 0.0),
        "execute.batches": calls.get("execute.batch", 0),
        "execute.seeds": batch["seeds"],
        "execute.s": execute_s,
        "execute.first_batch_s": first_duration(spans, "execute.batch"),
        "backend.self_s": own.get("execute.backend", 0.0),
        "execute.s_per_remote_gate": (execute_s / batch["remote_gates"]
                                      if batch["remote_gates"] else 0.0),
        "entanglement.acquire.calls": calls.get("entanglement.acquire", 0),
        "entanglement.acquire.s": incl.get("entanglement.acquire", 0.0),
        "entanglement.epr_generated": batch["epr_generated"],
        "entanglement.epr_wasted": batch["epr_wasted"],
        "fidelity.calls": calls.get("fidelity.estimate", 0),
        "fidelity.s": incl.get("fidelity.estimate", 0.0),
        "fidelity.first_call_s": first_duration(spans, "fidelity.estimate"),
        "store.chunks": calls.get("store.append", 0),
        "store.append.s": incl.get("store.append", 0.0),
        "store.fsyncs": counters.get("store.fsyncs", 0),
        "store.read.s": incl.get("store.read", 0.0),
        "results.load.s": incl.get("results.load", 0.0),
        "results.aggregate.s": incl.get("results.aggregate", 0.0),
        "results.to_json.s": incl.get("results.to_json", 0.0),
        "study.plan.s": incl.get("study.plan", 0.0),
        "study.run.self_s": (own.get("study.run", 0.0)
                             + own.get("study.sink", 0.0)),
        "service.submit.s": incl.get("service.submit", 0.0),
        "service.poll.calls": calls.get("service.poll", 0),
        "service.fetch.s": incl.get("service.fetch", 0.0),
    }


def dump_to(tracer: Tracer, path: str) -> None:
    """Write the trace as JSON (used at process exit)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(tracer.dump(), handle)
    os.replace(tmp, path)
