"""Flat, serialisable study results, backed by columnar numpy arrays.

Every simulated run of a study becomes one :class:`RunRecord` — a flat
(benchmark, design, seed, swept-parameters, metrics) row — and a whole study
one :class:`ResultSet`.  The flat shape replaces the nested
``Dict[str, BenchmarkComparison]`` / ``Dict[int, BenchmarkComparison]``
returns of the legacy helpers: any grouping can be recovered with
:meth:`ResultSet.group_by` / :meth:`ResultSet.aggregate`, the legacy shapes
with :meth:`ResultSet.to_comparisons`, and the whole set round-trips through
JSON (:meth:`to_json` / :meth:`from_json`) so grids can be re-analysed
without re-simulation.

Internally a :class:`ResultSet` holds one numpy array per column — float64 /
int64 for uniformly-typed metric columns, object arrays for string axes and
mixed columns — plus an object array of per-record parameter mappings.
:class:`RunRecord` views are materialised lazily (and cached), so both the
record-level API and the columnar fast paths (``values`` / ``filter`` /
``group_by`` / ``aggregate`` / ``to_json`` / ``to_csv``) observe exactly the
same data.  Columnar aggregation feeds the *same* ``summarize`` reduction
(``math.fsum``) with the same values in the same order as the record path,
so every statistic — and every serialised byte — is identical to the
pre-columnar implementation.

Aggregation formulas mirror
:meth:`~repro.core.results.DesignSummary.from_results` exactly (``summarize``
for depth / fidelity, arithmetic means for the rest, in seed order), so
comparisons rebuilt from records are bit-identical to ones aggregated
directly from :class:`~repro.runtime.metrics.ExecutionResult` lists.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from repro.analysis.statistics import SampleStatistics, ordered_sum, summarize
from repro.core.results import BenchmarkComparison, DesignSummary
from repro.exceptions import ConfigurationError, StoreError
from repro.runtime.metrics import ExecutionResult

__all__ = ["RunRecord", "ResultSet", "aggregate_stream"]

#: Metric columns of a record, in stable serialisation order.
METRIC_FIELDS: Tuple[str, ...] = (
    "depth", "fidelity", "num_remote", "mean_remote_wait",
    "mean_link_fidelity", "epr_generated", "epr_wasted",
)

#: Identity columns of a record, in stable serialisation order.
KEY_FIELDS: Tuple[str, ...] = ("benchmark", "design", "seed")

#: Every fixed (non-parameter) column, in serialisation order.
FIXED_FIELDS: Tuple[str, ...] = (*KEY_FIELDS, *METRIC_FIELDS)


@dataclass(frozen=True)
class RunRecord:
    """One simulated run: identity, swept parameters, and flat metrics.

    ``params`` holds the coordinates of the run on every non-reserved study
    axis (e.g. ``{"comm_qubits_per_node": 15}``), already reduced to
    JSON-compatible values so records compare equal across a
    serialisation round-trip.
    """

    benchmark: str
    design: str
    seed: int
    depth: float
    fidelity: float
    num_remote: int
    mean_remote_wait: float
    mean_link_fidelity: float
    epr_generated: float
    epr_wasted: float
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_execution_result(cls, result: ExecutionResult,
                              params: Optional[Mapping[str, Any]] = None
                              ) -> "RunRecord":
        """Flatten one :class:`ExecutionResult` into a record."""
        return cls(
            benchmark=result.benchmark,
            design=result.design,
            seed=result.seed,
            depth=result.makespan,
            fidelity=result.fidelity,
            num_remote=result.num_remote,
            mean_remote_wait=result.mean_remote_wait(),
            mean_link_fidelity=result.mean_link_fidelity(),
            epr_generated=result.epr_statistics.get("generated", 0),
            epr_wasted=result.epr_statistics.get("wasted", 0),
            params=dict(params or {}),
        )

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Value of a column: a record field or a swept parameter."""
        if key in KEY_FIELDS or key in METRIC_FIELDS:
            return getattr(self, key)
        if key in self.params:
            return self.params[key]
        raise KeyError(_unknown_column_message(key, self.params))

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-friendly form (params kept as a sub-mapping)."""
        row = {name: getattr(self, name) for name in KEY_FIELDS}
        row["params"] = dict(self.params)
        row.update({name: getattr(self, name) for name in METRIC_FIELDS})
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        known = {f.name for f in dataclass_fields(cls)}
        missing = (known - {"params"}) - set(row)
        if missing:
            raise ConfigurationError(
                f"record row is missing columns: {', '.join(sorted(missing))}"
            )
        return cls(**{key: row[key] for key in known if key in row})


def _unknown_column_message(key: str, params: Mapping[str, Any]) -> str:
    return (
        f"record has no column {key!r}; known: "
        f"{', '.join((*KEY_FIELDS, *sorted(params), *METRIC_FIELDS))}"
    )


def _pack_column(values: Sequence[Any]) -> np.ndarray:
    """Pick the tightest dtype that represents a column *exactly*.

    Uniform float columns become float64 and uniform int columns int64
    (both of which ``tolist`` back to the identical python values, so
    serialisation stays byte-exact); anything else — strings, bools,
    mixed int/float, None, out-of-range ints — stays an object array
    holding the original python objects untouched.
    """
    has_float = False
    has_int = False
    uniform = True
    for value in values:
        kind = type(value)
        if kind is float:
            has_float = True
        elif kind is int:
            has_int = True
        else:
            uniform = False
            break
    if uniform and values:
        if has_float and not has_int:
            return np.asarray(values, dtype=np.float64)
        if has_int and not has_float:
            try:
                return np.asarray(values, dtype=np.int64)
            except OverflowError:
                pass
    return _object_column(values)


def _object_column(values: Sequence[Any]) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = list(values)
    return column


GroupKey = Union[Any, Tuple[Any, ...]]


# ----------------------------------------------------------------------
# JSON text straight from columns (ResultSet.to_json)
# ----------------------------------------------------------------------
_INFINITY = float("inf")


def _float_json(value: float) -> str:
    """``json.dumps`` of one float: its repr, or the non-finite spellings."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: ``json.dumps`` of the scalar types, keyed by exact type (a ``bool`` is
#: not encoded as an ``int``, nor a ``str`` subclass as a ``str``).
_SCALAR_JSON: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_newlines(indent: Union[None, int, str]) -> List[str]:
    """What ``json.dumps`` puts before an item at nesting depth 0..4."""
    if indent is None:
        return [""] * 5
    unit = indent if isinstance(indent, str) else " " * indent
    return ["\n" + unit * depth for depth in range(5)]


def _value_json(value: Any, indent: Union[None, int, str],
                newline: str) -> str:
    """``json.dumps`` of one value nested where ``newline`` indents.

    Scalars take the fast path; anything else goes through ``json.dumps``
    itself, whose continuation lines are re-indented to the value's depth
    (JSON strings never hold a raw newline, so that is exact).
    """
    encode = _SCALAR_JSON.get(type(value))
    if encode is not None:
        return encode(value)
    return json.dumps(value, indent=indent).replace("\n", newline)


def _column_json(column: np.ndarray, indent: Union[None, int, str],
                 newline: str) -> List[str]:
    """The ``json.dumps`` text of every value of one column."""
    values = column.tolist()
    if column.dtype.kind == "f" and np.isfinite(column).all():
        return list(map(float.__repr__, values))
    if column.dtype.kind == "i":
        return list(map(int.__repr__, values))
    if all(type(value) is str for value in values):
        # Axis-like columns repeat a few names: escape each name once.
        escaped = {value: encode_basestring_ascii(value)
                   for value in set(values)}
        return list(map(escaped.__getitem__, values))
    return [_value_json(value, indent, newline) for value in values]


def _params_json(params: Any, indent: Union[None, int, str],
                 newlines: Sequence[str], sep: str) -> str:
    """``json.dumps`` of one record's params mapping at record depth."""
    if type(params) is not dict:
        return _value_json(params, indent, newlines[0])
    if not params:
        return "{}"
    items = []
    for key, value in params.items():
        if type(key) is not str:
            return _value_json(params, indent, newlines[0])
        items.append(encode_basestring_ascii(key) + ": "
                     + _value_json(value, indent, newlines[1]))
    return "{" + newlines[1] + sep.join(items) + newlines[0] + "}"


class ResultSet:
    """Ordered collection of :class:`RunRecord` with analysis helpers.

    Records keep the execution order of the study grid (axes slowest-first,
    seeds innermost), which downstream aggregation relies on for
    deterministic floating-point sums.

    Storage is columnar: one numpy array per fixed column plus an object
    array of per-record parameter dicts.  The ``records`` list is a lazy
    view — sets loaded from run stores or produced by ``filter`` /
    ``group_by`` never materialise python record objects until something
    actually touches ``records``.
    """

    SCHEMA_VERSION = 1

    def __init__(self, records: Sequence[RunRecord],
                 metadata: Optional[Mapping[str, Any]] = None) -> None:
        records = list(records)
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._records: Optional[List[RunRecord]] = records
        self._n = len(records)
        self._columns: Dict[str, np.ndarray] = {
            name: _pack_column([getattr(r, name) for r in records])
            for name in FIXED_FIELDS
        }
        self._params: np.ndarray = _object_column([r.params for r in records])

    @classmethod
    def _from_columns(cls, columns: Mapping[str, Sequence[Any]],
                      params: Sequence[Mapping[str, Any]],
                      metadata: Optional[Mapping[str, Any]] = None
                      ) -> "ResultSet":
        """Build a set straight from column value sequences (no records).

        ``columns`` must hold every fixed field; ``params`` is one mapping
        per record.  Used by the run-store loader, which decodes columns
        off disk and never pays for record materialisation.
        """
        rs = cls.__new__(cls)
        rs.metadata = dict(metadata or {})
        rs._records = None
        rs._params = _object_column([dict(p) for p in params])
        rs._n = len(rs._params)
        rs._columns = {}
        for name in FIXED_FIELDS:
            if name not in columns:
                raise ConfigurationError(
                    f"columnar result set is missing column {name!r}"
                )
            packed = _pack_column(list(columns[name]))
            if len(packed) != rs._n:
                raise ConfigurationError(
                    f"column {name!r} holds {len(packed)} values for "
                    f"{rs._n} records"
                )
            rs._columns[name] = packed
        return rs

    def _slice(self, indices: Sequence[int]) -> "ResultSet":
        idx = np.asarray(indices, dtype=np.intp)
        rs = ResultSet.__new__(ResultSet)
        rs.metadata = dict(self.metadata)
        rs._n = len(idx)
        rs._columns = {name: column[idx]
                       for name, column in self._columns.items()}
        rs._params = self._params[idx]
        if self._records is not None:
            rs._records = [self._records[i] for i in idx.tolist()]
        else:
            rs._records = None
        return rs

    # ------------------------------------------------------------------
    # lazy record views
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[RunRecord]:
        """The records as python objects (materialised lazily, cached)."""
        if self._records is None:
            lists = {name: self._columns[name].tolist()
                     for name in FIXED_FIELDS}
            params = self._params
            self._records = [
                RunRecord(**{name: lists[name][i] for name in FIXED_FIELDS},
                          params=params[i])
                for i in range(self._n)
            ]
        return self._records

    def column(self, name: str) -> np.ndarray:
        """The backing numpy array of one fixed column (read it, don't
        mutate it — the set shares these arrays with its slices)."""
        if name not in self._columns:
            raise KeyError(_unknown_column_message(name, {}))
        return self._columns[name]

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return (self.records == other.records
                and self.metadata == other.metadata)

    def __repr__(self) -> str:
        return (f"ResultSet({self._n} records, "
                f"benchmarks={self.benchmarks()}, designs={self.designs()})")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def benchmarks(self) -> List[str]:
        """Distinct benchmark names, in first-seen order."""
        return list(dict.fromkeys(self._columns["benchmark"].tolist()))

    def designs(self) -> List[str]:
        """Distinct design names, in first-seen order."""
        return list(dict.fromkeys(self._columns["design"].tolist()))

    def param_keys(self) -> List[str]:
        """Sorted union of swept-parameter names across all records."""
        keys: set = set()
        for params in self._params.tolist():
            keys.update(params)
        return sorted(keys)

    def values(self, key: str) -> List[Any]:
        """Column values of every record, in record order."""
        if key in self._columns:
            return self._columns[key].tolist()
        return self._param_values(key)

    def _param_values(self, key: str,
                      indices: Optional[Iterable[int]] = None) -> List[Any]:
        params = self._params
        out = []
        for i in (range(self._n) if indices is None else indices):
            row = params[i]
            if key not in row:
                raise KeyError(_unknown_column_message(key, row))
            out.append(row[key])
        return out

    def _column_list(self, key: str) -> List[Any]:
        if key in self._columns:
            return self._columns[key].tolist()
        return self._param_values(key)

    # ------------------------------------------------------------------
    # relational helpers
    # ------------------------------------------------------------------
    def filter(self, predicate: Optional[Callable[[RunRecord], bool]] = None,
               **equalities: Any) -> "ResultSet":
        """Records matching a predicate and/or column equalities.

        >>> rs.filter(design="adapt_buf", comm_qubits_per_node=15)  # doctest: +SKIP
        """
        if predicate is not None:
            # A callable predicate needs record objects; evaluate exactly
            # like the pre-columnar implementation did.
            def matches(record: RunRecord) -> bool:
                if not predicate(record):
                    return False
                return all(record.get(key) == value
                           for key, value in equalities.items())

            return ResultSet([r for r in self.records if matches(r)],
                             metadata=self.metadata)
        mask = np.ones(self._n, dtype=bool)
        for key, value in equalities.items():
            if key in self._columns:
                eq = self._columns[key] == value
                if not isinstance(eq, np.ndarray):
                    eq = np.full(self._n, bool(eq))
                mask &= eq.astype(bool, copy=False)
            else:
                keep = np.zeros(self._n, dtype=bool)
                params = self._params
                for i in np.nonzero(mask)[0].tolist():
                    row = params[i]
                    if key not in row:
                        raise KeyError(_unknown_column_message(key, row))
                    keep[i] = row[key] == value
                mask = keep
        return self._slice(np.nonzero(mask)[0])

    def _group_indices(self, keys: Sequence[str]) -> Dict[GroupKey, List[int]]:
        if not keys:
            raise ConfigurationError("group_by needs at least one column")
        columns = [self._column_list(key) for key in keys]
        groups: Dict[GroupKey, List[int]] = {}
        if len(keys) == 1:
            only = columns[0]
            for i in range(self._n):
                groups.setdefault(only[i], []).append(i)
        else:
            for i in range(self._n):
                groups.setdefault(tuple(col[i] for col in columns),
                                  []).append(i)
        return groups

    def group_by(self, *keys: str) -> Dict[GroupKey, "ResultSet"]:
        """Partition records by one or more columns, preserving order.

        A single key yields scalar group keys; several yield tuples.
        """
        return {group: self._slice(indices)
                for group, indices in self._group_indices(keys).items()}

    def aggregate(self, metric: str, by: Union[str, Sequence[str]] = ()
                  ) -> Dict[GroupKey, SampleStatistics]:
        """Summary statistics of one metric per group.

        ``by`` is one column name or a sequence of them; with no ``by``
        columns the whole set is one group keyed ``()``.  Group keys,
        value order, and therefore every statistic are identical to the
        record-by-record evaluation — the metric values are sliced out of
        the backing column and fed to the same ``summarize`` reduction.
        """
        if isinstance(by, str):
            by = [by]
        if not by:
            return {(): summarize(self.values(metric))}
        groups = self._group_indices(list(by))
        column = self._columns.get(metric)
        if column is not None:
            return {
                group: summarize(
                    column[np.asarray(indices, dtype=np.intp)].tolist())
                for group, indices in groups.items()
            }
        return {
            group: summarize(self._param_values(metric, indices))
            for group, indices in groups.items()
        }

    # ------------------------------------------------------------------
    # legacy shape
    # ------------------------------------------------------------------
    def _summary(self, records: Sequence[RunRecord]) -> DesignSummary:
        # Mirrors DesignSummary.from_results term for term so the rebuilt
        # aggregate is bit-identical to one computed from ExecutionResults.
        first = records[0]
        return DesignSummary(
            design=first.design,
            benchmark=first.benchmark,
            depth=summarize([r.depth for r in records]),
            fidelity=summarize([r.fidelity for r in records]),
            mean_remote_wait=ordered_sum(r.mean_remote_wait for r in records)
            / len(records),
            mean_link_fidelity=ordered_sum(r.mean_link_fidelity
                                           for r in records) / len(records),
            epr_generated=sum(r.epr_generated for r in records) / len(records),
            epr_wasted=sum(r.epr_wasted for r in records) / len(records),
            num_runs=len(records),
        )

    def _comparison(self, records: Sequence[RunRecord]) -> BenchmarkComparison:
        benchmarks = list(dict.fromkeys(r.benchmark for r in records))
        if len(benchmarks) != 1:
            raise ConfigurationError(
                f"comparison group spans several benchmarks: {benchmarks}; "
                f"group by 'benchmark' first or filter the set"
            )
        variants = {tuple(sorted(r.params.items())) for r in records}
        if len(variants) > 1:
            varied = sorted({key for variant in variants for key, _ in variant})
            raise ConfigurationError(
                f"comparison group mixes several swept-parameter variants "
                f"({', '.join(varied)}); averaging across system variants "
                f"would be meaningless — use to_comparisons(by=...), "
                f"group_by, or filter to isolate one variant per group"
            )
        comparison = BenchmarkComparison(benchmark=benchmarks[0])
        by_design: Dict[str, List[RunRecord]] = {}
        for record in records:
            by_design.setdefault(record.design, []).append(record)
        for design_records in by_design.values():
            comparison.add(self._summary(design_records))
        return comparison

    def to_comparisons(self, by: Optional[str] = None
                       ) -> Dict[Any, BenchmarkComparison]:
        """Group the records into the comparisons the analysis reports read.

        ``by=None`` maps each benchmark to its
        :class:`~repro.core.results.BenchmarkComparison` (the Fig. 5/6/8
        shape, for ``comparison_report``); ``by="<param>"`` maps each value
        of a swept parameter to the comparison of its one benchmark (the
        Fig. 7 shape with ``by="comm_qubits_per_node"``, for
        ``sweep_report``).
        """
        if not self._n:
            return {}
        key = by if by is not None else "benchmark"
        return {
            group: self._comparison(subset.records)
            for group, subset in self.group_by(key).items()
        }

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """Fully flat rows: params merged into the columns.

        Column order is stable: identity, sorted params, metrics.
        """
        param_keys = self.param_keys()
        lists = {name: self._columns[name].tolist() for name in FIXED_FIELDS}
        params = self._params
        rows = []
        for i in range(self._n):
            row = {name: lists[name][i] for name in KEY_FIELDS}
            row_params = params[i]
            for key in param_keys:
                row[key] = row_params.get(key)
            for name in METRIC_FIELDS:
                row[name] = lists[name][i]
            rows.append(row)
        return rows

    def to_json(self, path: Optional[Union[str, Path]] = None,
                indent: Optional[int] = 2) -> str:
        """Serialise to JSON text, optionally also writing ``path``.

        The text is exactly ``json.dumps(payload, indent=indent) + "\\n"``
        of ``{"schema", "metadata", "records"}``, each record shaped like
        :meth:`RunRecord.to_dict`, but it is built from the columns: every
        column is encoded once (float and int reprs, ASCII-escaped
        strings) and every record fills one template.
        """
        newline = _json_newlines(indent)
        sep = [("," + nl) if indent is not None else ", " for nl in newline]
        fields = (*KEY_FIELDS, "params", *METRIC_FIELDS)
        keys = [encode_basestring_ascii(name) + ": " for name in fields]
        between = ["{" + newline[3] + keys[0],
                   *(sep[3] + key for key in keys[1:]), newline[2] + "}"]
        template = "%s".join(text.replace("%", "%%") for text in between)
        columns = {name: _column_json(column, indent, newline[3])
                   for name, column in self._columns.items()}
        columns["params"] = [_params_json(params, indent, newline[3:5], sep[4])
                             for params in self._params.tolist()]
        rows = [template % row
                for row in zip(*(columns[name] for name in fields))]
        records = ("[" + newline[2] + sep[2].join(rows) + newline[1] + "]"
                   if rows else "[]")
        text = ("{" + newline[1]
                + '"schema": ' + _value_json(self.SCHEMA_VERSION, indent, "")
                + sep[1] + '"metadata": '
                + _value_json(self.metadata, indent, newline[1])
                + sep[1] + '"records": ' + records + newline[0] + "}\n")
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: Union[str, Mapping[str, Any]]) -> "ResultSet":
        """Rebuild a set from :meth:`to_json` output (text or parsed dict)."""
        payload = json.loads(source) if isinstance(source, str) else dict(source)
        if not isinstance(payload, dict) or "records" not in payload:
            raise ConfigurationError("not a serialised ResultSet (no 'records')")
        schema = payload.get("schema", cls.SCHEMA_VERSION)
        if schema != cls.SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported ResultSet schema {schema!r} "
                f"(supported: {cls.SCHEMA_VERSION})"
            )
        records = [RunRecord.from_dict(row) for row in payload["records"]]
        return cls(records, metadata=payload.get("metadata", {}))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultSet":
        """Read a set previously written with ``to_json(path)``."""
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_store(cls, source: Union[str, Path, Any],
                   allow_partial: bool = False) -> "ResultSet":
        """Load a set from a durable :class:`~repro.study.store.RunStore`.

        ``source`` is a store directory (or an open store).  Records are
        streamed shard by shard in plan order, so the result — including
        its ``to_json`` text — is byte-identical to what ``Study.run``
        returned for the same plan.  An incomplete store raises
        :class:`~repro.exceptions.StoreError` unless ``allow_partial``;
        for aggregation that never materialises the set at all, pass the
        store straight to :func:`aggregate_stream` instead.
        """
        from repro.study.store import RunStore

        store = source if isinstance(source, RunStore) else RunStore.load(source)
        return store.load_results(allow_partial=allow_partial)

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise to CSV with the stable :meth:`to_records` columns."""
        columns = [*KEY_FIELDS, *self.param_keys(), *METRIC_FIELDS]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns,
                                lineterminator="\n")
        writer.writeheader()
        for row in self.to_records():
            writer.writerow({
                key: json.dumps(value) if isinstance(value, (dict, list))
                else value
                for key, value in row.items()
            })
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


def _aggregate_record_stream(records: Iterator[RunRecord], metric: str,
                             by: List[str]
                             ) -> Dict[GroupKey, List[Any]]:
    groups: Dict[GroupKey, List[Any]] = {}
    for record in records:
        try:
            if not by:
                group: GroupKey = ()
            else:
                values = tuple(record.get(key) for key in by)
                group = values[0] if len(by) == 1 else values
            groups.setdefault(group, []).append(record.get(metric))
        except KeyError as error:
            raise StoreError(error.args[0]) from None
    return groups


def aggregate_stream(source: Any, metric: str,
                     by: Union[str, Sequence[str]] = ()
                     ) -> Dict[GroupKey, SampleStatistics]:
    """Incremental :meth:`ResultSet.aggregate` over a record *stream*.

    ``source`` is an open :class:`~repro.study.store.RunStore`, a store
    directory path, or any iterable of records.  Given a store, only the
    requested columns are decoded — one shard chunk at a time — and only
    the grouped metric values (floats) are held, never the records
    themselves, so a million-run store aggregates in bounded memory.
    Group keys, value order, and therefore the statistics are identical to
    materialising the set and calling ``aggregate``.

    A metric or group column absent from the store raises
    :class:`~repro.exceptions.StoreError` naming the available columns.
    """
    from repro.study.store import RunStore

    if isinstance(by, str):
        by = [by]
    by = list(by)
    if isinstance(source, (str, Path)):
        source = RunStore.load(source)
    if isinstance(source, RunStore):
        groups: Dict[GroupKey, List[Any]] = {}
        for block in source.iter_column_blocks([metric, *by]):
            metric_values = block[metric]
            if not by:
                groups.setdefault((), []).extend(metric_values)
                continue
            group_columns = [block[key] for key in by]
            if len(by) == 1:
                only = group_columns[0]
                for i, value in enumerate(metric_values):
                    groups.setdefault(only[i], []).append(value)
            else:
                for i, value in enumerate(metric_values):
                    groups.setdefault(
                        tuple(col[i] for col in group_columns),
                        []).append(value)
    else:
        groups = _aggregate_record_stream(iter(source), metric, by)
    if not groups and not by:
        # Match ResultSet.aggregate on an empty set, which lets summarize
        # raise its explicit empty-sample error instead of returning {}.
        return {(): summarize([])}
    return {group: summarize(values) for group, values in groups.items()}
