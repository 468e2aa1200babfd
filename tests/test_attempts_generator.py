"""Unit tests for attempt schedules and the stochastic EPR generator."""

import pytest

from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    EntanglementGenerator,
)
from repro.exceptions import EntanglementError


class TestAttemptSchedule:
    def test_synchronous_all_pairs_aligned(self):
        schedule = AttemptSchedule(num_pairs=8, policy=AttemptPolicy.SYNCHRONOUS)
        assert {schedule.first_completion(i) for i in range(8)} == {10.0}
        assert schedule.effective_groups == 1

    def test_asynchronous_staggered_first_completions(self):
        schedule = AttemptSchedule(num_pairs=10, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=10, stagger=1.0)
        completions = sorted(schedule.first_completion(i) for i in range(10))
        assert completions == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_group_assignment_round_robin(self):
        schedule = AttemptSchedule(num_pairs=8, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=4)
        assert schedule.group_of(0) == schedule.group_of(4)
        assert schedule.group_of(1) != schedule.group_of(2)

    def test_groups_capped_by_pairs(self):
        schedule = AttemptSchedule(num_pairs=3, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=10)
        assert schedule.effective_groups == 3

    def test_completion_grid_period(self):
        schedule = AttemptSchedule(num_pairs=4, policy=AttemptPolicy.ASYNCHRONOUS)
        completions = [schedule.attempt_completion(2, k) for k in range(3)]
        assert completions[1] - completions[0] == pytest.approx(10.0)
        assert completions[2] - completions[1] == pytest.approx(10.0)

    def test_non_steady_state_first_cycle(self):
        schedule = AttemptSchedule(num_pairs=4, policy=AttemptPolicy.ASYNCHRONOUS,
                                   steady_state=False)
        assert min(schedule.first_completion(i) for i in range(4)) >= 10.0

    def test_index_completing_after(self):
        schedule = AttemptSchedule(num_pairs=2, policy=AttemptPolicy.SYNCHRONOUS)
        assert schedule.attempt_index_completing_after(0, 0.0) == 0
        assert schedule.attempt_index_completing_after(0, 10.0) == 1
        assert schedule.attempt_index_completing_after(0, 15.0) == 1
        index = schedule.attempt_index_completing_after(0, 25.0)
        assert schedule.attempt_completion(0, index) > 25.0

    def test_completions_between(self):
        schedule = AttemptSchedule(num_pairs=1, policy=AttemptPolicy.SYNCHRONOUS)
        assert schedule.completions_between(0, 0.0, 35.0) == [10.0, 20.0, 30.0]
        assert schedule.completions_between(0, 10.0, 20.0) == [20.0]

    def test_completion_stream(self):
        schedule = AttemptSchedule(num_pairs=1, policy=AttemptPolicy.SYNCHRONOUS)
        stream = schedule.completion_stream(0)
        assert [next(stream) for _ in range(3)] == [10.0, 20.0, 30.0]

    def test_validation(self):
        with pytest.raises(EntanglementError):
            AttemptSchedule(num_pairs=-1)
        with pytest.raises(EntanglementError):
            AttemptSchedule(num_pairs=1, cycle_time=0.0)
        schedule = AttemptSchedule(num_pairs=2)
        with pytest.raises(EntanglementError):
            schedule.offset(5)
        with pytest.raises(EntanglementError):
            schedule.completions_between(0, 5.0, 1.0)


class TestGenerator:
    def _generator(self, policy=AttemptPolicy.SYNCHRONOUS, psucc=0.4, seed=0,
                   pairs=10):
        schedule = AttemptSchedule(num_pairs=pairs, policy=policy)
        return EntanglementGenerator(schedule, psucc, seed=seed)

    def test_outcomes_are_memoised(self):
        generator = self._generator()
        first = [generator.attempt_succeeds(0, k) for k in range(50)]
        interval = generator.successes_between(0, 500)
        second = [generator.attempt_succeeds(0, k) for k in range(50)]
        assert first == second
        assert generator.successes_between(0, 500) == interval

    def test_reproducible_across_instances(self):
        a = self._generator(seed=7).successes_between(0, 200)
        b = self._generator(seed=7).successes_between(0, 200)
        assert a == b

    def test_different_seeds_differ(self):
        a = self._generator(seed=1).successes_between(0, 300)
        b = self._generator(seed=2).successes_between(0, 300)
        assert [(e.time, e.pair_index) for e in a] != [(e.time, e.pair_index) for e in b]

    def test_empirical_rate_close_to_psucc(self):
        generator = self._generator(psucc=0.4, seed=3, pairs=10)
        events = generator.successes_between(0, 2000)
        # 10 pairs * 200 attempts * 0.4 = 800 expected successes.
        assert 700 <= len(events) <= 900

    def test_unit_probability_always_succeeds(self):
        generator = self._generator(psucc=1.0)
        events = generator.successes_between(0, 100)
        assert len(events) == 100
        assert [e.time for e in events if e.pair_index == 0] == \
            [10.0 * k for k in range(1, 11)]

    def test_first_success_after(self):
        generator = self._generator(psucc=1.0)
        event = generator.first_fresh_success(25.0)
        assert (event.time, event.pair_index) == (30.0, 0)
        # Excluded successes are skipped in (time, pair) order.
        event = generator.first_fresh_success(25.0, {(0, 2), (1, 2)})
        assert (event.time, event.pair_index) == (30.0, 2)

    def test_merged_events_sorted(self):
        generator = self._generator(policy=AttemptPolicy.ASYNCHRONOUS, seed=5)
        events = generator.successes_between(0, 500)
        keys = [(e.time, e.pair_index) for e in events]
        assert keys == sorted(keys)

    def test_expected_rate(self):
        generator = self._generator(psucc=0.4, pairs=10)
        assert generator.expected_rate() == pytest.approx(0.4)
        assert generator.expected_wait_for_next_success() > 0

    def test_invalid_probability(self):
        schedule = AttemptSchedule(num_pairs=1)
        with pytest.raises(EntanglementError):
            EntanglementGenerator(schedule, 0.0)
        with pytest.raises(EntanglementError):
            EntanglementGenerator(schedule, 1.5)

    def test_negative_attempt_rejected(self):
        generator = self._generator()
        with pytest.raises(EntanglementError):
            generator.attempt_succeeds(0, -1)
