"""The merged success tape against a brute-force per-attempt scan.

The reference draws each pair's uniforms straight from its own
``SeedSequence(entropy=seed, spawn_key=(pair,))`` stream and scans attempt
by attempt with :class:`AttemptSchedule`'s own grid arithmetic, so it
shares no code with the tape's lockstep blocks, merges, bisects or its
attempt-bound window, nor with the variate table the generators share.
"""

import gc
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    EntanglementGenerator,
    VariateTable,
)
from repro.entanglement.generator import VARIATE_TABLE_SIZE
from repro.exceptions import EntanglementError

REFERENCE_ATTEMPTS = 2048


class Reference:
    """Per-attempt scan over each pair's raw uniform stream."""

    def __init__(self, schedule, psucc, seed):
        self.schedule = schedule
        self.outcomes = [
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(pair,))
            ).random(REFERENCE_ATTEMPTS) < psucc
            for pair in range(schedule.num_pairs)
        ]
        self.successes = sorted(
            (time, pair, attempt)
            for pair, outcomes in enumerate(self.outcomes)
            for attempt, time in zip(
                np.flatnonzero(outcomes).tolist(),
                schedule.completion_times(pair, np.flatnonzero(outcomes))
                .tolist())
        )

    def _scan(self, pair, start):
        """(completion, pair, attempt) of pair's successes after ``start``."""
        attempt = self.schedule.attempt_index_completing_after(pair, start)
        while attempt < REFERENCE_ATTEMPTS:
            completion = self.schedule.attempt_completion(pair, attempt)
            if completion > start + 1e-12 and self.outcomes[pair][attempt]:
                yield completion, pair, attempt
            attempt += 1

    def between(self, start, end):
        events = []
        for pair in range(self.schedule.num_pairs):
            for event in self._scan(pair, start):
                if event[0] > end + 1e-12:
                    break
                events.append(event)
        return sorted(events)

    def first_fresh(self, start, excluded):
        candidates = []
        for pair in range(self.schedule.num_pairs):
            for event in self._scan(pair, start):
                if (event[1], event[2]) not in excluded:
                    candidates.append(event)
                    break
        return min(candidates)


def tape(generator):
    return list(zip(generator.times, generator.pairs, generator.attempts))


def assert_tape_consistent(generator, reference):
    entries = tape(generator)
    assert entries == sorted(entries)
    assert generator.drawn <= REFERENCE_ATTEMPTS
    # Exactly the reference's successes of the drawn attempts, so none
    # before the frontier is missing.
    assert entries == [event for event in reference.successes
                       if event[2] < generator.drawn]
    below = set(entries[:bisect_left(entries, (generator.frontier,))])
    assert all(event in below for event in reference.successes
               if event[0] < generator.frontier)


schedules = st.builds(
    AttemptSchedule,
    num_pairs=st.integers(1, 16),
    cycle_time=st.sampled_from([10.0, 3.0, 7.3]),
    policy=st.sampled_from(list(AttemptPolicy)),
    num_groups=st.integers(1, 16),
    stagger=st.sampled_from([1.0, 0.7, 2.5]),
    steady_state=st.booleans(),
)

#: Offsets, in units of 1e-9 * cycle, of starts placed on a completion.
near_offsets = st.sampled_from([-1.5, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5,
                                0.999, 1.0, 1.001, 1.5, 2.5])


@st.composite
def queries(draw, schedule):
    """A start time: uniform, or within about 1e-9 * cycle of a completion."""
    if draw(st.booleans()):
        return draw(st.floats(0.0, 400.0))
    pair = draw(st.integers(0, schedule.num_pairs - 1))
    completion = schedule.attempt_completion(pair, draw(st.integers(0, 60)))
    return completion + draw(near_offsets) * 1e-9 * schedule.cycle_time


def check_query(data, generator, reference, kind):
    """Draw one query of ``kind`` and check it against the reference."""
    schedule = generator.schedule
    start = data.draw(queries(schedule))
    if kind == "between":
        end = start + data.draw(st.floats(0.0, 200.0))
        assert [tuple(event) for event in
                generator.successes_between(start, end)] == \
            reference.between(start, end)
    elif kind == "fresh":
        ahead = reference.between(start, start + 30 * schedule.cycle_time)
        excluded = {(pair, attempt) for _, pair, attempt in
                    data.draw(st.lists(st.sampled_from(ahead), max_size=4)
                              if ahead else st.just([]))}
        assert tuple(generator.first_fresh_success(start, excluded)) == \
            reference.first_fresh(start, excluded)
    elif kind == "ensure":
        # Far ahead, but within the reference's attempts: frontier
        # first_min + drawn * cycle passes 1000 cycles at drawn = 1024.
        generator.ensure(data.draw(st.floats(0.0, 1000.0))
                         * schedule.cycle_time)
    else:
        for pair in range(schedule.num_pairs):
            assert generator.attempt_after(pair, start) == \
                schedule.attempt_index_completing_after(pair, start)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), schedule=schedules,
       psucc=st.sampled_from([1.0, 0.4, 0.05]), seed=st.integers(0, 2**32))
def test_tape_queries_match_attempt_scan(data, schedule, psucc, seed):
    generator = EntanglementGenerator(schedule, psucc, seed=seed)
    reference = Reference(schedule, psucc, seed)
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["between", "fresh", "bound"]))
        check_query(data, generator, reference, kind)
        assert_tape_consistent(generator, reference)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), num_pairs=st.integers(1, 16),
       cycle_time=st.sampled_from([10.0, 3.0, 7.3]),
       num_groups=st.integers(1, 16),
       stagger=st.sampled_from([1.0, 0.7, 2.5]),
       steady_state=st.booleans(),
       psucc=st.sampled_from([1.0, 0.4, 0.05]), seed=st.integers(0, 2**32))
def test_sync_and_async_generators_share_one_table(
        data, num_pairs, cycle_time, num_groups, stagger, steady_state,
        psucc, seed):
    # Two generators per schedule read one tape; one of them draws ahead
    # first, and every later query of either is checked against its own
    # reference.
    variates = VariateTable()
    generators, references = [], []
    for policy in (AttemptPolicy.SYNCHRONOUS, AttemptPolicy.ASYNCHRONOUS):
        schedule = AttemptSchedule(num_pairs=num_pairs, cycle_time=cycle_time,
                                   policy=policy, num_groups=num_groups,
                                   stagger=stagger, steady_state=steady_state)
        for _ in range(2):
            generators.append(EntanglementGenerator(
                schedule, psucc, seed=seed, variates=variates))
            references.append(Reference(schedule, psucc, seed))
    assert len(variates) == 1
    assert generators[0].tape is generators[1].tape
    assert generators[2].tape is generators[3].tape
    ahead = data.draw(st.integers(0, len(generators) - 1))
    check_query(data, generators[ahead], references[ahead], "ensure")
    for _ in range(data.draw(st.integers(1, 12))):
        which = data.draw(st.integers(0, len(generators) - 1))
        kind = data.draw(st.sampled_from(["between", "fresh", "ensure"]))
        check_query(data, generators[which], references[which], kind)
        for generator, reference in zip(generators, references):
            assert_tape_consistent(generator, reference)


def test_variate_table_keeps_its_bound_and_redraws_evicted_sources():
    table = VariateTable()
    first = table.source(0, 3, 0.4)
    blocks = [first.blocks.block(index) for index in range(3)]
    assert [drawn for drawn, _, _ in blocks] == [128, 256, 512]
    for entropy in range(1, VARIATE_TABLE_SIZE):
        table.source(entropy, 3, 0.4)
    assert len(table) == VARIATE_TABLE_SIZE
    # A hit refreshes the source, so the next miss evicts entropy 1 instead.
    assert table.source(0, 3, 0.4) is first
    table.source(VARIATE_TABLE_SIZE, 3, 0.4)
    assert len(table) == VARIATE_TABLE_SIZE
    assert table.source(0, 3, 0.4) is first
    for entropy in range(VARIATE_TABLE_SIZE + 1, 2 * VARIATE_TABLE_SIZE + 1):
        table.source(entropy, 3, 0.4)
    assert len(table) == VARIATE_TABLE_SIZE
    again = table.source(0, 3, 0.4)
    assert again is not first
    for index, (drawn, pairs, attempts) in enumerate(blocks):
        redrawn, redrawn_pairs, redrawn_attempts = again.blocks.block(index)
        assert redrawn == drawn
        assert np.array_equal(redrawn_pairs, pairs)
        assert np.array_equal(redrawn_attempts, attempts)
        for array in (pairs, attempts, redrawn_pairs, redrawn_attempts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_generators_of_one_key_read_the_same_block_arrays():
    variates = VariateTable()
    generators = [
        EntanglementGenerator(AttemptSchedule(num_pairs=4, policy=policy),
                              0.4, seed=9, variates=variates)
        for policy in AttemptPolicy
    ]
    for generator in generators:
        generator.ensure(2000.0)
    assert len(variates) == 1
    source = variates.source(9, 4, 0.4)
    # One tape per schedule, both over the source's blocks.
    assert generators[0].tape is not generators[1].tape
    assert all(generator.tape._blocks is source.blocks
               for generator in generators)
    assert all(generator.tape.blocks_read == 2 for generator in generators)
    # A generator of an existing schedule joins its tape, drawn or not.
    again = EntanglementGenerator(AttemptSchedule(num_pairs=4), 0.4, seed=9,
                                  variates=variates)
    assert again.tape is generators[1].tape and again.drawn == 256
    # Another psucc or pair count is another key.
    EntanglementGenerator(AttemptSchedule(num_pairs=4), 0.3, seed=9,
                          variates=variates)
    EntanglementGenerator(AttemptSchedule(num_pairs=5), 0.4, seed=9,
                          variates=variates)
    assert len(variates) == 3


def test_a_dropped_table_leaves_no_reference_cycles():
    # Sources and tapes go by reference counting as soon as the table and
    # its generators do; in a cycle, a daemon running jobs back to back
    # would keep every finished job's tapes until a full collection.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = VariateTable()
        for policy in AttemptPolicy:
            EntanglementGenerator(AttemptSchedule(num_pairs=4, policy=policy),
                                  0.4, seed=1, variates=table).ensure(3000.0)
        EntanglementGenerator(AttemptSchedule(num_pairs=4), 0.4,
                              seed=2).ensure(100.0)
        del table
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_variate_source_bytes():
    # The VariateTable docstring states about 12 KB per source of 10 pairs
    # with one 128-attempt block, and about 8.5 KB for each of its sync and
    # async tapes over that block (about 512 successes of 14 bytes).
    schedules = [AttemptSchedule(num_pairs=10, policy=policy)
                 for policy in AttemptPolicy]
    warm = VariateTable().source(10**6, 10, 0.4)  # first-use allocations
    for schedule in schedules:
        warm.tape(schedule).draw_block()
    count = 32
    per_source = {}
    for tapes in ((), schedules):
        tracemalloc.start()
        try:
            table = VariateTable()
            before = tracemalloc.get_traced_memory()[0]
            for entropy in range(count):
                source = table.source(entropy, 10, 0.4)
                source.blocks.block(0)
                for schedule in tapes:
                    source.tape(schedule).draw_block()
            per_source[len(tapes)] = \
                (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
    assert 10 * 1024 < per_source[0] < 15 * 1024
    assert 14 * 1024 < per_source[2] - per_source[0] < 20 * 1024


def test_pair_indices_fit_sixteen_bits():
    # Blocks and tapes store pair indices as 16-bit integers.
    with pytest.raises(EntanglementError, match="at most 65536"):
        EntanglementGenerator(AttemptSchedule(num_pairs=65537), 0.4)


def test_negative_seed_is_rejected():
    with pytest.raises(EntanglementError, match="non-negative"):
        EntanglementGenerator(AttemptSchedule(num_pairs=2), 0.4, seed=-1)


def test_blocks_merge_when_first_completions_span_more_than_a_cycle():
    # 16 sub-groups staggered by 1 against a 10-unit cycle: first
    # completions 1..15, so each new block lands before the previous tail.
    schedule = AttemptSchedule(num_pairs=16, cycle_time=10.0, num_groups=16,
                               policy=AttemptPolicy.ASYNCHRONOUS, stagger=1.0)
    firsts = [schedule.first_completion(pair) for pair in range(16)]
    assert max(firsts) - min(firsts) > schedule.cycle_time
    for seed in range(5):
        generator = EntanglementGenerator(schedule, 0.4, seed=seed)
        reference = Reference(schedule, 0.4, seed)
        generator.ensure(3000.0)
        assert generator.drawn > 256
        assert_tape_consistent(generator, reference)
        assert [tuple(e) for e in generator.successes_between(1270.0, 1300.0)] \
            == reference.between(1270.0, 1300.0)


def test_fresh_success_waits_for_the_frontier_on_ties():
    # With psucc = 1 and first completions 1..15, the first block ends at
    # frontier 1281, where pair 11's drawn attempt 127 ties with pair 1's
    # undrawn attempt 128.  The lower pair wins, so it must be drawn first.
    schedule = AttemptSchedule(num_pairs=16, cycle_time=10.0, num_groups=16,
                               policy=AttemptPolicy.ASYNCHRONOUS, stagger=1.0)
    generator = EntanglementGenerator(schedule, 1.0, seed=0)
    generator.ensure(1280.5)
    assert generator.frontier == 1281.0
    assert (1281.0, 11, 127) in tape(generator)
    assert tuple(generator.first_fresh_success(1280.5)) == (1281.0, 1, 128)


def test_sync_ties_are_ordered_by_pair():
    schedule = AttemptSchedule(num_pairs=6, policy=AttemptPolicy.SYNCHRONOUS)
    generator = EntanglementGenerator(schedule, 1.0, seed=2)
    events = generator.successes_between(0.0, 20.0)
    assert [(e.time, e.pair_index) for e in events] == \
        [(t, pair) for t in (10.0, 20.0) for pair in range(6)]


def test_block_draws_are_lockstep_and_lazy():
    schedule = AttemptSchedule(num_pairs=4)
    generator = EntanglementGenerator(schedule, 0.4, seed=1)
    assert generator.drawn == 0 and len(generator.times) == 0
    generator.successes_between(0.0, 5.0)
    assert generator.drawn == 128
    generator.ensure(2000.0)
    assert generator.drawn == 128 + 128
    assert generator.frontier == min(
        schedule.first_completion(pair) for pair in range(4)) + 256 * 10.0


def test_no_pairs_never_succeed():
    generator = EntanglementGenerator(AttemptSchedule(num_pairs=0), 0.4)
    assert generator.successes_between(0.0, 1e6) == []
    with pytest.raises(EntanglementError):
        generator.first_fresh_success(0.0)
