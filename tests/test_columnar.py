"""Equivalence suite pinning the columnar ResultSet and the store codec.

The columnar backing and the run store's column decoder exist purely for
speed: every observable — ``to_json`` bytes, filter/group_by/aggregate
results, chunk round-trips — must be *identical* to the record-by-record
implementation they replaced.  The reference implementations live in this
file, written the naive way (python loops over ``RunRecord`` objects), and
every test is an equality between the fast path and the naive path.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro import Study, SystemConfig
from repro.analysis.statistics import summarize
from repro.exceptions import ConfigurationError, StoreError
from repro.study import ResultSet, RunStore, aggregate_stream
from repro.study.results import KEY_FIELDS, METRIC_FIELDS, RunRecord
from repro.study.store import decode_chunk, encode_chunk

SMALL = SystemConfig(data_qubits_per_node=16, comm_qubits_per_node=4,
                     buffer_qubits_per_node=4)

ALL_DESIGNS = ("original", "sync_buf", "async_buf", "adapt_buf",
               "init_buf", "ideal")


def mixed_grid():
    """A hand-built grid exercising every columnar edge at once.

    All six designs, two benchmarks, a string axis and a numeric axis,
    and metric values including NaN, infinities, None, bools, and
    mixed int/float columns — everything that forces object-dtype
    fallbacks next to the typed fast paths.
    """
    records = []
    seed = 0
    for benchmark in ("TLIM-16", "QFT-8"):
        for design in ALL_DESIGNS:
            for policy in ("sync", "async"):
                for chi in (0.01, 0.05):
                    seed += 1
                    records.append(RunRecord(
                        benchmark=benchmark,
                        design=design,
                        seed=seed,
                        depth=float(seed) * 1.5,
                        fidelity=(float("nan") if seed % 7 == 0
                                  else 1.0 - chi),
                        num_remote=seed % 5,
                        mean_remote_wait=(float("inf") if seed % 11 == 0
                                          else 0.25 * seed),
                        mean_link_fidelity=(None if seed % 13 == 0
                                            else 0.9),
                        epr_generated=(seed if seed % 2 else float(seed)),
                        epr_wasted=(True if seed % 17 == 0 else 0.0),
                        params={"policy": policy,
                                "depolarizing_rate": chi},
                    ))
    return records


def reference_to_json(records, metadata=None, indent=2):
    """``to_json`` the way the pre-columnar implementation produced it."""
    payload = {
        "schema": ResultSet.SCHEMA_VERSION,
        "metadata": dict(metadata or {}),
        "records": [r.to_dict() for r in records],
    }
    return json.dumps(payload, indent=indent) + "\n"


def unicode_grid():
    """Records with non-ASCII names and nested / list parameter values."""
    return [
        RunRecord(benchmark="QFT-Ω", design="adapt_buf", seed=1,
                  depth=2.5, fidelity=-0.0, num_remote=2**70,
                  mean_remote_wait=float("-inf"), mean_link_fidelity=1e-300,
                  epr_generated=3, epr_wasted=0.0,
                  params={"policy": "café ☃ \U0001F600",
                          "pairs": [[0, 1], [1, 2]],
                          "nested": {"a": [], "b": {}, "é": None},
                          "quote\"d\\key%s": "tab\tline\nnul\x00"}),
        RunRecord(benchmark="TLIM-16", design="naïve", seed=2,
                  depth=1.0, fidelity=0.5, num_remote=0,
                  mean_remote_wait=0.0, mean_link_fidelity=[1.0, 0.5],
                  epr_generated={"generated": 1}, epr_wasted="none",
                  params={}),
    ]


def reference_aggregate(records, metric, by=()):
    """Naive record-loop aggregation (the replaced implementation)."""
    if isinstance(by, str):
        by = [by]
    by = list(by)
    if not by:
        return {(): summarize([r.get(metric) for r in records])}
    groups = {}
    for r in records:
        values = tuple(r.get(key) for key in by)
        group = values[0] if len(by) == 1 else values
        groups.setdefault(group, []).append(r.get(metric))
    return {g: summarize(vals) for g, vals in groups.items()}


def small_study(**overrides):
    kwargs = dict(benchmarks=["TLIM-32"], designs=["ideal", "original"],
                  num_runs=4, system=SMALL)
    kwargs.update(overrides)
    return Study(**kwargs)


# ----------------------------------------------------------------------
class TestMixedGridEquivalence:
    def test_to_json_byte_identity(self):
        records = mixed_grid()
        rs = ResultSet(records, metadata={"name": "mixed"})
        assert rs.to_json() == reference_to_json(records,
                                                 {"name": "mixed"})

    def test_to_json_byte_identity_without_record_cache(self):
        # A set whose records were never materialised (the from_store
        # shape) serialises from columns alone; bytes must not differ.
        records = mixed_grid()
        rs = ResultSet(records)
        cold = ResultSet._from_columns(
            {name: [getattr(r, name) for r in records]
             for name in KEY_FIELDS + METRIC_FIELDS},
            [r.params for r in records])
        assert cold._records is None
        assert cold.to_json() == rs.to_json()

    def test_lazy_records_round_trip_values(self):
        records = mixed_grid()
        cold = ResultSet._from_columns(
            {name: [getattr(r, name) for r in records]
             for name in KEY_FIELDS + METRIC_FIELDS},
            [r.params for r in records])
        for rebuilt, original in zip(cold.records, records):
            # NaN != NaN breaks dataclass equality; compare serialised.
            assert json.dumps(rebuilt.to_dict()) == \
                json.dumps(original.to_dict())

    def test_filter_equalities_match_record_loop(self):
        records = mixed_grid()
        rs = ResultSet(records)
        cases = [
            {"design": "adapt_buf"},
            {"benchmark": "QFT-8", "design": "ideal"},
            {"policy": "async"},                       # string param axis
            {"depolarizing_rate": 0.05},               # numeric param axis
            {"design": "sync_buf", "policy": "sync",
             "depolarizing_rate": 0.01},
            {"design": "no_such_design"},              # empty result
            {"num_remote": 3},                         # int column
        ]
        for equalities in cases:
            expected = [r for r in records
                        if all(r.get(k) == v
                               for k, v in equalities.items())]
            got = rs.filter(**equalities)
            assert got.to_json() == reference_to_json(expected)

    def test_filter_with_predicate_matches_record_loop(self):
        records = mixed_grid()
        rs = ResultSet(records)
        predicate = lambda r: r.seed % 3 == 0  # noqa: E731
        expected = [r for r in records
                    if predicate(r) and r.get("policy") == "sync"]
        got = rs.filter(predicate, policy="sync")
        assert got.to_json() == reference_to_json(expected)

    def test_filter_unknown_param_still_raises_keyerror(self):
        rs = ResultSet(mixed_grid())
        with pytest.raises(KeyError, match="no column 'nope'"):
            rs.filter(nope=1)
        # ...but not when an earlier equality already emptied the match,
        # mirroring the record loop's short-circuit evaluation.
        assert len(rs.filter(design="no_such_design", nope=1)) == 0

    def test_group_by_matches_record_loop(self):
        records = mixed_grid()
        rs = ResultSet(records)
        for keys in (("design",), ("benchmark", "design"),
                     ("policy",), ("design", "depolarizing_rate")):
            groups = rs.group_by(*keys)
            expected = {}
            for r in records:
                values = tuple(r.get(k) for k in keys)
                key = values[0] if len(keys) == 1 else values
                expected.setdefault(key, []).append(r)
            assert list(groups) == list(expected)
            for key, subset in groups.items():
                assert subset.to_json() == reference_to_json(
                    expected[key])

    def test_aggregate_matches_record_loop(self):
        records = mixed_grid()
        rs = ResultSet(records)
        for metric in ("depth", "num_remote", "depolarizing_rate"):
            for by in ((), "design", ("benchmark", "design"), "policy"):
                assert rs.aggregate(metric, by=by) == \
                    reference_aggregate(records, metric, by=by)

    def test_aggregate_nan_statistics_match(self):
        # NaN-poisoned groups must flow the same NaNs through summarize.
        records = mixed_grid()
        rs = ResultSet(records)
        got = rs.aggregate("fidelity", by="design")
        expected = reference_aggregate(records, "fidelity", by="design")
        assert list(got) == list(expected)
        for key in got:
            for attr in ("mean", "std", "minimum", "maximum"):
                a = getattr(got[key], attr)
                b = getattr(expected[key], attr)
                assert a == b or (math.isnan(a) and math.isnan(b))

    def test_values_and_introspection_match_records(self):
        records = mixed_grid()
        rs = ResultSet(records)
        assert rs.benchmarks() == list(dict.fromkeys(
            r.benchmark for r in records))
        assert rs.designs() == list(ALL_DESIGNS)
        assert rs.param_keys() == ["depolarizing_rate", "policy"]
        assert rs.values("seed") == [r.seed for r in records]
        assert rs.values("policy") == [r.params["policy"] for r in records]

    def test_csv_and_flat_records_match(self):
        records = mixed_grid()
        rs = ResultSet(records)
        flat = rs.to_records()
        assert len(flat) == len(records)
        assert list(flat[0]) == [*KEY_FIELDS, "depolarizing_rate",
                                 "policy", *METRIC_FIELDS]
        assert rs.to_csv().splitlines()[0] == \
            "benchmark,design,seed,depolarizing_rate,policy," + \
            ",".join(METRIC_FIELDS)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("indent", [None, 0, 2, 4, "\t"])
class TestToJsonMatchesJsonDumps:
    """``to_json`` is built from the columns, never through ``json.dumps``
    of the payload; its text must still be exactly that of ``json.dumps``
    at every indent."""

    METADATA = {"name": "größe", "axes": [{"fields": ["policy"],
                                           "values": ["a", "b"]}],
                "designs": None, "empty": {}, "list": []}

    def test_mixed_grid(self, indent):
        records = mixed_grid()
        rs = ResultSet(records, metadata=self.METADATA)
        assert rs.to_json(indent=indent) == reference_to_json(
            records, self.METADATA, indent)

    def test_non_ascii_and_nested_params(self, indent):
        records = unicode_grid()
        rs = ResultSet(records, metadata=self.METADATA)
        assert rs.to_json(indent=indent) == reference_to_json(
            records, self.METADATA, indent)

    def test_columns_without_records(self, indent):
        # The from_store shape: value lists and no materialised records.
        records = mixed_grid() + unicode_grid()
        columns = {name: [getattr(r, name) for r in records]
                   for name in KEY_FIELDS + METRIC_FIELDS}
        cold = ResultSet._from_columns(columns, [r.params for r in records])
        assert cold._records is None
        assert cold.to_json(indent=indent) == reference_to_json(
            records, None, indent)

    def test_empty_set(self, indent):
        for metadata in ({}, self.METADATA):
            assert ResultSet([], metadata=metadata).to_json(
                indent=indent) == reference_to_json([], metadata, indent)


# ----------------------------------------------------------------------
class TestChunkCodecEquivalence:
    def test_round_trip_preserves_json_bytes(self):
        records = mixed_grid() + unicode_grid()
        rebuilt = decode_chunk(encode_chunk(records))
        assert reference_to_json(rebuilt) == reference_to_json(records)

    def test_records_get_independent_params(self):
        records = [RunRecord(benchmark="b", design="d", seed=s,
                             depth=1.0, fidelity=1.0, num_remote=0,
                             mean_remote_wait=0.0, mean_link_fidelity=1.0,
                             epr_generated=0.0, epr_wasted=0.0,
                             params={"x": 1})
                   for s in (1, 2)]
        first, second = decode_chunk(encode_chunk(records))
        first.params["x"] = 99
        assert second.params["x"] == 1

    def test_garbage_chunk_raises_store_error(self):
        for garbage in (b"\x00\x01 not json\n", b"\xff\xfe\n",
                        b"[1, 2]\n", b'{"a": 1}, {"b": 2}\n'):
            with pytest.raises(StoreError, match="unreadable record"):
                decode_chunk(garbage)


# ----------------------------------------------------------------------
class TestStoreFormatEquivalence:
    @pytest.fixture(scope="class")
    def baseline_json(self):
        with small_study() as study:
            return study.run().to_json()

    def test_store_loads_as_columns(self, tmp_path, baseline_json):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=3)
        loaded = RunStore.load(store).load_results()
        assert loaded._records is None  # no RunRecord was built
        assert loaded.to_json() == baseline_json

    def test_unknown_format_rejected(self, tmp_path, baseline_json):
        # "jsonl" is the one shard encoding the keyword still accepts.
        with small_study() as study:
            ran = study.run(store=tmp_path / "st", store_format="jsonl")
            assert ran.to_json() == baseline_json
            with pytest.raises(ConfigurationError, match="shard format"):
                study.run(store=tmp_path / "other", store_format="npz")
        assert not (tmp_path / "other").exists()


# ----------------------------------------------------------------------
class TestManifestCompatibility:
    """A store this build cannot read is refused with guidance, never
    half-read."""

    #: A store of the retired binary npz format (manifest schema 2).
    NPZ_STORE = Path(__file__).parent / "data" / "golden_npz_store"

    @pytest.fixture(scope="class")
    def jsonl_store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("manifest") / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2)
        return store

    def rewritten(self, source, destination, **fields):
        shutil.copytree(source, destination)
        manifest = json.loads((destination / "manifest.json").read_text())
        manifest.update(fields)
        (destination / "manifest.json").write_text(json.dumps(manifest))
        return destination

    def test_npz_store_is_refused_with_rerun_remedy(self, tmp_path,
                                                    jsonl_store):
        stores = [self.NPZ_STORE,
                  self.rewritten(jsonl_store, tmp_path / "tagged",
                                 format="npz"),
                  self.rewritten(jsonl_store, tmp_path / "schema2",
                                 schema=2)]
        for store in stores:
            for read in (ResultSet.from_store, RunStore.load,
                         lambda path: aggregate_stream(path, "depth")):
                with pytest.raises(StoreError) as excinfo:
                    read(store)
                message = str(excinfo.value)
                assert "npz" in message
                assert "re-run the study into a fresh --store" in message

    def test_newer_schema_fails_with_migration_guidance(self, tmp_path,
                                                        jsonl_store):
        copy = self.rewritten(jsonl_store, tmp_path / "future", schema=99)
        with pytest.raises(StoreError) as excinfo:
            ResultSet.from_store(copy)
        message = str(excinfo.value)
        assert "unsupported store schema 99" in message
        assert "this build reads schema 1" in message
        assert "upgrade this checkout" in message
        assert "re-run the study into a fresh --store directory" in message

    def test_unknown_format_tag_fails_loudly(self, tmp_path, jsonl_store):
        copy = self.rewritten(jsonl_store, tmp_path / "weird",
                              format="parquet")
        with pytest.raises(StoreError, match="unknown shard format"):
            ResultSet.from_store(copy)


# ----------------------------------------------------------------------
class TestAggregateStreamEquivalence:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("agg") / "st"
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=3)
        return store, results

    def test_matches_in_memory_aggregate(self, stored):
        store, results = stored
        for by in ("design", ["benchmark", "design"], ()):
            assert aggregate_stream(store, "depth", by=by) == \
                results.aggregate("depth", by=by)
        assert aggregate_stream(RunStore.load(store), "fidelity",
                                by="design") == \
            results.aggregate("fidelity", by="design")

    def test_missing_metric_raises_typed_error(self, stored):
        store, _ = stored
        with pytest.raises(StoreError) as excinfo:
            aggregate_stream(store, "latency_ms", by="design")
        message = str(excinfo.value)
        assert "latency_ms" in message
        assert "depth" in message and "fidelity" in message

    def test_missing_group_column_raises_typed_error(self, stored):
        store, _ = stored
        with pytest.raises(StoreError, match="no_such_axis"):
            aggregate_stream(store, "depth", by="no_such_axis")

    def test_record_iterator_source_raises_same_type(self, stored):
        store, _ = stored
        records = RunStore.load(store).iter_records()
        with pytest.raises(StoreError, match="latency_ms"):
            aggregate_stream(records, "latency_ms")
