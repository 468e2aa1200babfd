"""Property-based tests (hypothesis) for core data structures and invariants."""

import json
import math

from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitDAG, QuantumCircuit
from repro.circuits.transforms import (
    alap_variant,
    asap_variant,
    canonical_gate_multiset,
    reorder_is_equivalent,
)
from repro.entanglement import AttemptPolicy, AttemptSchedule, werner_fidelity_after
from repro.noise import depolarizing_kraus, validate_kraus
from repro.partitioning import InteractionGraph, Partition, fm_refine, kl_refine
from repro.runtime import DataQubitTracker
from repro.analysis import summarize


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def random_circuits(draw, max_qubits=6, max_gates=25, remote_fraction=0.3):
    """Random circuits over a small gate set with some remote labels."""
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["h", "rz", "rx", "cx", "cz", "rzz"]))
        if kind in ("h", "rz", "rx"):
            qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            if kind == "h":
                circuit.h(qubit)
            else:
                circuit.add_gate(kind, (qubit,), (draw(st.floats(0.1, 3.0)),))
        else:
            a = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            b = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            if a == b:
                continue
            label = "remote" if draw(st.floats(0, 1)) < remote_fraction else None
            params = (draw(st.floats(0.1, 3.0)),) if kind == "rzz" else ()
            circuit.add_gate(kind, (a, b), params, label=label)
    if circuit.num_gates == 0:
        circuit.h(0)
    return circuit


@st.composite
def random_graphs(draw, max_vertices=14):
    """Random interaction graphs with at least two vertices."""
    num_vertices = draw(st.integers(min_value=4, max_value=max_vertices))
    if num_vertices % 2:
        num_vertices += 1
    num_edges = draw(st.integers(min_value=1, max_value=3 * num_vertices))
    weights = {}
    for _ in range(num_edges):
        a = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        b = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if a == b:
            continue
        weights[(min(a, b), max(a, b))] = float(draw(st.integers(1, 5)))
    return InteractionGraph(num_vertices, weights)


# ---------------------------------------------------------------------------
# circuit IR invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_dag_is_acyclic_and_complete(circuit):
    dag = CircuitDAG(circuit)
    order = dag.topological_order()
    assert sorted(order) == list(range(circuit.num_gates))
    assert dag.is_legal_order(order)


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_layers_cover_all_gates_once(circuit):
    dag = CircuitDAG(circuit)
    flattened = sorted(i for layer in dag.layers() for i in layer)
    assert flattened == list(range(circuit.num_gates))


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_alap_never_before_asap(circuit):
    dag = CircuitDAG(circuit)
    asap = dag.asap_levels()
    alap = dag.alap_levels()
    assert all(alap[i] >= asap[i] - 1e-9 for i in asap)


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_asap_alap_variants_are_equivalent_reorderings(circuit):
    asap = asap_variant(circuit)
    alap = alap_variant(circuit)
    assert canonical_gate_multiset(asap) == canonical_gate_multiset(circuit)
    assert canonical_gate_multiset(alap) == canonical_gate_multiset(circuit)
    assert reorder_is_equivalent(circuit, asap)
    assert reorder_is_equivalent(circuit, alap)


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_variant_depth_unchanged_gate_counts(circuit):
    asap = asap_variant(circuit)
    assert asap.num_two_qubit_gates() == circuit.num_two_qubit_gates()
    assert asap.num_single_qubit_gates() == circuit.num_single_qubit_gates()


# ---------------------------------------------------------------------------
# partitioning invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_kl_refinement_never_increases_cut(graph):
    start = Partition.contiguous(graph.num_vertices, 2)
    refined = kl_refine(graph, start)
    assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9
    assert sorted(refined.block_sizes()) == sorted(start.block_sizes())


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_fm_refinement_respects_balance(graph):
    start = Partition.contiguous(graph.num_vertices, 2)
    refined = fm_refine(graph, start, balance_tolerance=0.2)
    assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9
    max_side = (1.2 * graph.num_vertices / 2.0) + 1e-9
    assert max(refined.block_sizes()) <= max_side
    assert refined.num_vertices == graph.num_vertices


# ---------------------------------------------------------------------------
# entanglement invariants
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.25, max_value=1.0),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_werner_decay_bounded(initial, elapsed, kappa):
    fidelity = werner_fidelity_after(initial, elapsed, kappa)
    assert 0.25 - 1e-9 <= fidelity <= max(initial, 0.25) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([AttemptPolicy.SYNCHRONOUS, AttemptPolicy.ASYNCHRONOUS]),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_attempt_completion_strictly_after_query(num_pairs, policy, time):
    schedule = AttemptSchedule(num_pairs=num_pairs, policy=policy)
    for pair in range(num_pairs):
        index = schedule.attempt_index_completing_after(pair, time)
        assert schedule.attempt_completion(pair, index) > time
        if index > 0:
            assert schedule.attempt_completion(pair, index - 1) <= time + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 2))
def test_depolarizing_channels_trace_preserving(probability, qubits):
    assert validate_kraus(depolarizing_kraus(probability, qubits))


# ---------------------------------------------------------------------------
# runtime invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25))
def test_tracker_makespan_at_least_total_of_longest_qubit(durations):
    tracker = DataQubitTracker(3)
    for duration in durations:
        tracker.occupy((0,), tracker.available_time(0), duration)
    assert tracker.makespan == tracker.available_time(0)
    # Back-to-back gates on one qubit end at their summed durations.
    assert math.isclose(tracker.makespan, sum(durations), rel_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
def test_summarize_bounds(samples):
    stats = summarize(samples)
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.std >= 0


# ---------------------------------------------------------------------------
# columnar results / store chunk round-trips
# ---------------------------------------------------------------------------

# Any JSON-encodable text (no surrogates — they cannot reach UTF-8
# shards); NULs, line separators and other control characters are
# deliberately *allowed*: escaped by JSON, they must never split a line.
_axis_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)

_metric_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**6, max_value=10**6).map(float),
)

_param_values = st.one_of(
    _axis_text,
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.booleans(),
    st.none(),
)


@st.composite
def run_records(draw):
    from repro.study.results import RunRecord

    return RunRecord(
        benchmark=draw(_axis_text),
        design=draw(_axis_text),
        seed=draw(st.integers(min_value=-2**40, max_value=2**40)),
        depth=draw(_metric_floats),
        fidelity=draw(_metric_floats),
        num_remote=draw(st.integers(min_value=0, max_value=2**31)),
        mean_remote_wait=draw(_metric_floats),
        mean_link_fidelity=draw(st.one_of(_metric_floats, st.none())),
        epr_generated=draw(st.one_of(_metric_floats,
                                     st.integers(0, 10**6))),
        epr_wasted=draw(_metric_floats),
        params=draw(st.dictionaries(
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                    min_size=1, max_size=8),
            _param_values, max_size=3)),
    )


#: Batches cover the empty set, single-run cells, and mixed-type columns.
_record_batches = st.lists(run_records(), min_size=0, max_size=12)


def _canonical_json(records):
    """Reference serialisation: per-record dicts, NaN-safe comparison."""
    return json.dumps([r.to_dict() for r in records])


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_chunk_round_trip_is_lossless(records):
    from repro.study.store import decode_chunk, encode_chunk

    rebuilt = decode_chunk(encode_chunk(records))
    assert _canonical_json(rebuilt) == _canonical_json(records)


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_chunk_decode_matches_per_line_reference(records):
    from repro.study.results import RunRecord
    from repro.study.store import decode_chunk, encode_chunk

    data = encode_chunk(records)
    # The record-by-record decode the column decoder replaced.
    reference = [RunRecord.from_dict(json.loads(line))
                 for line in data.decode("utf-8").splitlines()]
    assert _canonical_json(decode_chunk(data)) == _canonical_json(reference)


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_result_set_json_round_trip_is_lossless(records):
    from repro.study import ResultSet

    original = ResultSet(records, metadata={"name": "prop"})
    text = original.to_json()
    assert ResultSet.from_json(text).to_json() == text


@settings(max_examples=40, deadline=None)
@given(_record_batches)
def test_columnar_construction_matches_record_construction(records):
    from repro.study import ResultSet
    from repro.study.results import KEY_FIELDS, METRIC_FIELDS

    direct = ResultSet(records)
    columnar = ResultSet._from_columns(
        {name: [getattr(r, name) for r in records]
         for name in KEY_FIELDS + METRIC_FIELDS},
        [r.params for r in records])
    assert columnar.to_json() == direct.to_json()
    assert _canonical_json(columnar.records) == _canonical_json(records)
