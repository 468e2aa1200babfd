"""Self-tests of the benchmark's statistics, span arithmetic and wrappers.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def span(id, name, start, end, parent=None, **extra):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": 1, **extra}


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile, count = run.tail(list(range(100, 0, -1)))
    assert (value, percentile, count) == (90, 90.0, 100)


def test_tail_of_eleven_samples_is_the_minimum():
    assert run.tail([5.0, *range(10, 20)]) == (5.0, 100.0 / 11, 11)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
SPANS = [
    span(1, "study.run", 0.0, 10.0),
    span(2, "compile", 1.0, 4.0, parent=1),
    span(3, "compile.lower", 2.0, 3.0, parent=2),
    span(4, "execute.batch", 5.0, 6.0, parent=1,
         leaves={"entanglement.acquire": [3, 0.5]}),
]


def test_self_times_subtract_children_and_leaves():
    assert layers.self_times(SPANS) == {
        "study.run": 6.0, "compile": 2.0, "compile.lower": 1.0,
        "execute.batch": 0.5, "entanglement.acquire": 0.5,
    }
    assert sum(layers.self_times(SPANS).values()) == 10.0


def test_layer_self_times_group_by_layer():
    assert layers.layer_self_times(SPANS) == {
        "study": 6.0, "compile": 3.0, "execute": 0.5, "entanglement": 0.5}


def test_inclusive_times_count_nested_same_name_spans_once():
    nested = [span(1, "store.read", 0.0, 4.0),
              span(2, "store.read", 1.0, 2.0, parent=1)]
    assert layers.inclusive_times(nested) == {"store.read": 4.0}
    assert layers.call_counts(nested) == {"store.read": 2}


def test_covered_time_merges_overlapping_threads():
    spans = [span(1, "a", 0.0, 2.0), span(2, "b", 1.0, 3.0),
             span(3, "c", 5.0, 6.0)]
    assert layers.covered_time(spans) == 4.0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
REFERENCE = {"ops": {"0:0": "a", "0:32": "b", "1:0": "c"}, "output": "r"}


def test_matching_digests_fail_nothing():
    got = {"ops": dict(REFERENCE["ops"]), "outputs": ["r", "r"]}
    assert run.failed_ops(got, REFERENCE) == 0


def test_digest_mismatch_or_missing_op_is_a_failed_op():
    got = {"ops": {"0:0": "a", "0:32": "x"}, "outputs": ["r"]}
    assert run.failed_ops(got, REFERENCE) == 2


def test_op_that_failed_outright_fails_even_against_itself():
    reference = {"ops": {"0": None, "1": "b"}, "output": None}
    got = {"ops": {"0": None, "1": "b"}, "outputs": []}
    assert run.failed_ops(got, reference) == 1


def test_wrong_whole_output_fails_every_op():
    got = {"ops": dict(REFERENCE["ops"]), "outputs": ["r", "other"]}
    assert run.failed_ops(got, REFERENCE) == 3


def test_cell_times_run_from_the_commit_before_a_cells_first_chunk():
    chunks = [["0:0", 0, "a"], ["0:32", 0, "b"], ["1:0", 1, "c"]]
    events = [[10.0, 0, 0], [11.0, 1, 32], [13.0, 2, 50], [17.0, 3, 82]]
    assert run.cell_times(chunks, events) == [3.0, 4.0]


def test_spec_documents_exactly_the_declared_metrics():
    documented = {name for name in run.SPEC["end_to_end"]
                  if name not in ("tail", "aggregation")}
    assert documented == set(run.declared_metrics("end_to_end"))
    assert set(run.SPEC["per_layer"]) == set(run.declared_metrics("per_layer"))


def test_service_jobs_resubmit_every_fourth_an_earlier_spec():
    workload = run.SPEC["workloads"]["service-jobs"]
    jobs = run.service_jobs(workload, 5)
    assert jobs == run.service_jobs(workload, 5)
    assert len(jobs) == workload["jobs"]
    for position, (original, spec) in enumerate(jobs):
        if (position + 1) % workload["resubmit_every"] == 0:
            assert original < position and jobs[original] == (None, spec)
        else:
            assert original is None
    fresh = [spec["base_seed"] for original, spec in jobs if original is None]
    assert len(set(fresh)) == len(fresh)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
ALL_TARGETS = (layers.LAYER_TARGETS + layers.DAEMON_TARGETS
               + layers.CLIENT_TARGETS)


def _owner_and_raw(module_name, path):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def test_wrappers_uninstall_back_to_the_original_functions():
    originals = [_owner_and_raw(module, path)
                 for module, path, _, _ in ALL_TARGETS]
    tracer = layers.Tracer()
    tracer.install(ALL_TARGETS)
    try:
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw


def test_traced_study_records_layer_spans():
    from repro.study import Study

    tracer = layers.Tracer()
    tracer.install(layers.LAYER_TARGETS)
    try:
        Study(benchmarks="QFT-8", designs=["original", "ideal"],
              num_runs=3).run(progress=lambda event: None)
    finally:
        tracer.uninstall()
    trace = tracer.dump()
    metrics = layers.layer_metrics(trace["spans"], trace["counters"])
    assert metrics["compile.cells"] == 2
    assert metrics["execute.batches"] == 2
    assert metrics["execute.seeds"] == 6
    assert metrics["entanglement.acquire.calls"] > 1
    # One estimate per distributed run, one per ideal batch.
    assert metrics["fidelity.calls"] == 4
    assert 0 < metrics["fidelity.first_call_s"] <= metrics["fidelity.s"]
    assert metrics["compile.cache_misses"] > 0
