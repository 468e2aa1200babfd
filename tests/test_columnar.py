"""Equivalence suite pinning the columnar ResultSet and npz shard format.

The columnar backing and the binary store exist purely for speed: every
observable — ``to_json`` bytes, filter/group_by/aggregate results, resume
behaviour — must be *identical* to the record-by-record implementation
they replaced.  The reference implementations live in this file, written
the naive way (python loops over ``RunRecord`` objects), and every test
is an equality between the fast path and the naive path.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import Study, SystemConfig
from repro.analysis.statistics import summarize
from repro.exceptions import StoreError
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
        # The from_store shape: typed arrays, a numpy unicode column
        # (what npz shards hold) and no materialised records.
        records = mixed_grid() + unicode_grid()
        columns = {name: [getattr(r, name) for r in records]
                   for name in KEY_FIELDS + METRIC_FIELDS}
        columns["benchmark"] = np.array(columns["benchmark"], dtype=np.str_)
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
    def test_npz_round_trip_preserves_json_bytes(self):
        records = mixed_grid()
        rebuilt = decode_chunk(encode_chunk(records, "npz"), "npz")
        assert reference_to_json(rebuilt) == reference_to_json(records)

    def test_jsonl_and_npz_decode_identically(self):
        records = mixed_grid()
        via_jsonl = decode_chunk(encode_chunk(records, "jsonl"), "jsonl")
        via_npz = decode_chunk(encode_chunk(records, "npz"), "npz")
        assert reference_to_json(via_jsonl) == reference_to_json(via_npz)

    def test_npz_records_get_independent_params(self):
        records = [RunRecord(benchmark="b", design="d", seed=s,
                             depth=1.0, fidelity=1.0, num_remote=0,
                             mean_remote_wait=0.0, mean_link_fidelity=1.0,
                             epr_generated=0.0, epr_wasted=0.0,
                             params={"x": 1})
                   for s in (1, 2)]
        first, second = decode_chunk(encode_chunk(records, "npz"), "npz")
        first.params["x"] = 99
        assert second.params["x"] == 1

    def test_garbage_npz_chunk_raises_store_error(self):
        with pytest.raises(StoreError, match="not an npz chunk"):
            decode_chunk(b"\x00\x01 not a zip", "npz")


# ----------------------------------------------------------------------
class TestStoreFormatEquivalence:
    @pytest.fixture(scope="class")
    def baseline_json(self):
        with small_study() as study:
            return study.run().to_json()

    @pytest.mark.parametrize("shard_format", ["jsonl", "npz"])
    def test_store_loads_as_columns(self, tmp_path, baseline_json,
                                    shard_format):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=3,
                      store_format=shard_format)
        loaded = RunStore.load(store).load_results()
        assert loaded._records is None  # no RunRecord was built
        assert loaded.to_json() == baseline_json

    def test_jsonl_and_npz_stores_serialise_identically(
            self, tmp_path, baseline_json):
        outputs = {}
        for shard_format in ("jsonl", "npz"):
            store = tmp_path / shard_format
            with small_study() as study:
                ran = study.run(store=store, store_chunk_size=2,
                                store_format=shard_format)
            loaded = ResultSet.from_store(store)
            assert ran.to_json() == baseline_json
            outputs[shard_format] = loaded.to_json()
        assert outputs["jsonl"] == outputs["npz"] == baseline_json

    def test_npz_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path, baseline_json):
        store = tmp_path / "st"
        with small_study() as study:
            partial = study.run(store=store, max_chunks=1,
                                store_chunk_size=2, store_format="npz")
        assert len(partial) == 2
        # Resume does not need the format repeated: the manifest owns it.
        with small_study() as study:
            resumed = study.run(store=store)
        assert resumed.to_json() == baseline_json
        assert ResultSet.from_store(store).to_json() == baseline_json
        assert RunStore.load(store).shard_format == "npz"

    def test_npz_crash_mid_run_leaves_resumable_store(
            self, tmp_path, baseline_json):
        store = tmp_path / "st"

        class Interrupted(RuntimeError):
            pass

        def bomb(event):
            if event.done_chunks >= 2:
                raise Interrupted()

        with small_study() as study:
            with pytest.raises(Interrupted):
                study.run(store=store, store_chunk_size=2,
                          store_format="npz", progress=bomb)
        assert len(RunStore.load(store).completed_ids()) >= 2
        with small_study() as study:
            assert study.run(store=store).to_json() == baseline_json

    def test_npz_flipped_byte_fails_checksum(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, store_format="npz")
        shard = sorted((store / "shards").glob("*.npz"))[0]
        data = bytearray(shard.read_bytes())
        data[40] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            ResultSet.from_store(store)

    def test_npz_manifest_records_format_and_schema(self, tmp_path):
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, store_chunk_size=2, store_format="npz")
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["format"] == "npz"
        assert manifest["schema"] == RunStore.NPZ_SCHEMA_VERSION
        loaded = RunStore.load(store)
        assert loaded.summary()["format"] == "npz"
        assert all(c.id for c in loaded.chunks())

    def test_committed_format_wins_on_resume(self, tmp_path,
                                             baseline_json):
        # Like chunk_size, the committed format is part of the store's
        # durable identity: a different request on resume must not
        # switch encodings mid-store.
        store = tmp_path / "st"
        with small_study() as study:
            study.run(store=store, max_chunks=1, store_chunk_size=2,
                      store_format="npz")
        with small_study() as study:
            resumed = study.run(store=store, store_format="jsonl")
        assert resumed.to_json() == baseline_json
        assert RunStore.load(store).shard_format == "npz"
        assert not list((store / "shards").glob("*.jsonl"))

    def test_unknown_format_rejected(self, tmp_path):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError, match="shard format"):
            RunStore(tmp_path / "st", shard_format="parquet")

    def test_swept_params_round_trip_npz(self, tmp_path):
        def sweep():
            return small_study(
                designs=["ideal"],
                axes={"epr_success_probability": [0.2, 0.8]})

        with sweep() as study:
            expected = study.run().to_json()
        store = tmp_path / "st"
        with sweep() as study:
            study.run(store=store, store_chunk_size=2, store_format="npz")
        reloaded = ResultSet.from_store(store)
        assert reloaded.to_json() == expected
        assert reloaded.values("epr_success_probability") == [
            0.2, 0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.8]


# ----------------------------------------------------------------------
class TestGoldenNpzFixture:
    """A committed npz store must keep loading byte-identically forever.

    The fixture under ``tests/data/golden_npz_store`` was written once by
    a known-good build; any codec or layout change that alters a single
    serialised byte of its load is a format break and must show up here,
    not in a user's archived results.
    """

    FIXTURE = Path(__file__).parent / "data" / "golden_npz_store"
    EXPECTED = Path(__file__).parent / "data" / \
        "golden_npz_store.expected.json"

    def test_load_is_byte_identical(self):
        loaded = ResultSet.from_store(self.FIXTURE)
        assert loaded.to_json() == self.EXPECTED.read_text()

    def test_aggregate_stream_reads_fixture(self):
        stats = aggregate_stream(self.FIXTURE, "depth", by="design")
        loaded = ResultSet.from_store(self.FIXTURE)
        assert stats == loaded.aggregate("depth", by="design")

    def test_newer_schema_fails_with_migration_guidance(self, tmp_path):
        # A store written by a future build must be refused with the
        # documented migration message, never half-read.
        copy = tmp_path / "future"
        shutil.copytree(self.FIXTURE, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["schema"] = 99
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as excinfo:
            ResultSet.from_store(copy)
        message = str(excinfo.value)
        assert "unsupported store schema 99" in message
        assert "this build reads schemas 1, 2" in message
        assert "upgrade this checkout" in message
        assert "re-run the study into a fresh --store directory" in message

    def test_unknown_format_tag_fails_loudly(self, tmp_path):
        copy = tmp_path / "weird"
        shutil.copytree(self.FIXTURE, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["format"] = "parquet"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="unknown shard format"):
            ResultSet.from_store(copy)


# ----------------------------------------------------------------------
class TestAggregateStreamEquivalence:
    @pytest.fixture(scope="class", params=["jsonl", "npz"])
    def stored(self, request, tmp_path_factory):
        store = tmp_path_factory.mktemp("agg") / request.param
        with small_study() as study:
            results = study.run(store=store, store_chunk_size=3,
                                store_format=request.param)
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
