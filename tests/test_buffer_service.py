"""Unit tests for the buffer pool and the entanglement supply service."""

import pytest

from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    BufferPool,
    EntanglementGenerator,
    EntanglementService,
    werner_fidelity_after,
)
from repro.exceptions import BufferError, EntanglementError


def make_service(policy=AttemptPolicy.ASYNCHRONOUS, capacity=10, psucc=0.4,
                 seed=0, prefill=0, pairs=10, **kwargs):
    schedule = AttemptSchedule(num_pairs=pairs, policy=policy)
    generator = EntanglementGenerator(schedule, psucc, seed=seed)
    return EntanglementService(generator, buffer_capacity=capacity, kappa=0.002,
                               prefill=prefill, **kwargs)


class TestBufferPool:
    def test_store_and_consume(self):
        pool = BufferPool(capacity=2)
        assert pool.store(0.0, 1.0)
        assert len(pool) == 1
        assert pool.count_available(0.5) == 0
        assert pool.count_available(1.0) == 1
        assert pool.pop_available(2.0) == (0.0, 2.0)
        assert pool.statistics.consumed_total == 1

    def test_zero_capacity_rejects(self):
        pool = BufferPool(capacity=0)
        assert not pool.store(0.0, 1.0)
        assert pool.statistics.rejected_total == 1

    def test_replace_oldest_when_full(self):
        pool = BufferPool(capacity=1)
        pool.store(0.0, 1.0)
        assert pool.store(5.0, 6.0)
        assert pool.stored_links == [(5.0, 6.0)]
        assert pool.statistics.expired_total == 1

    def test_lifo_returns_freshest(self):
        pool = BufferPool(capacity=3)
        for created in (0.0, 5.0, 10.0):
            pool.store(created, created + 1.0)
        assert pool.pop_available(20.0) == (10.0, 10.0)

    def test_pop_without_available_raises(self):
        pool = BufferPool(capacity=2)
        with pytest.raises(BufferError):
            pool.pop_available(1.0)
        pool.store(5.0, 6.0)
        with pytest.raises(BufferError):
            pool.pop_available(2.0)

    def test_cutoff_expiry(self):
        pool = BufferPool(capacity=4, cutoff=10.0)
        pool.store(0.0, 1.0)
        pool.store(8.0, 9.0)
        expired = pool.expire_until(15.0)
        assert expired == 1
        assert len(pool) == 1

    def test_flush(self):
        pool = BufferPool(capacity=4)
        pool.store(0.0, 1.0)
        pool.store(1.0, 2.0)
        assert pool.flush(10.0) == 2
        assert len(pool) == 0

    def test_mean_consumed_age(self):
        pool = BufferPool(capacity=2)
        pool.store(0.0, 1.0)
        pool.pop_available(5.0)
        assert pool.statistics.mean_consumed_age == pytest.approx(5.0)

    def test_invalid_configuration(self):
        with pytest.raises(BufferError):
            BufferPool(capacity=-1)
        with pytest.raises(BufferError):
            BufferPool(capacity=1, cutoff=0.0)

    def test_take_prefers_available_then_earliest_pending(self):
        pool = BufferPool(capacity=4)
        for created, buffered in [(0.0, 1.0), (2.0, 3.0), (4.0, 9.0),
                                  (5.0, 7.0)]:
            pool.store(created, buffered)
        assert pool.take(3.5) == (3.5, 2.0, 1.5)     # freshest available
        assert pool.take(3.5) == (3.5, 0.0, 3.5)
        assert pool.take(3.5) == (7.0, 5.0, 2.0)     # earliest swap to finish
        assert pool.take(3.5) == (9.0, 4.0, 5.0)
        assert pool.take(3.5) is None


class TestEntanglementService:
    def test_buffered_acquire_is_immediate_when_stocked(self):
        service = make_service(psucc=1.0)
        ready, created, fidelity = service.acquire(50.0)
        assert ready == pytest.approx(50.0)
        assert created <= 50.0
        assert fidelity == werner_fidelity_after(0.99, ready - created, 0.002)

    def test_acquire_waits_when_nothing_generated_yet(self):
        service = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0)
        ready, _, _ = service.acquire(0.0)
        assert ready >= 10.0

    def test_acquires_are_distinct_links(self):
        service = make_service(psucc=1.0)
        # Ten pairs in ten sub-groups: each success has its own time.
        successes = {event.time: (event.pair_index, event.attempt_index)
                     for event in service.generator.successes_between(0, 200)}
        consumed = [successes[service.acquire(100.0)[1]] for _ in range(20)]
        assert len(set(consumed)) == 20

    def test_unbuffered_waits_for_fresh_success(self):
        service = make_service(capacity=0, psucc=1.0,
                               policy=AttemptPolicy.SYNCHRONOUS)
        ready, _, _ = service.acquire(12.0)
        assert ready == pytest.approx(20.0)
        assert service.statistics.consumed_direct == 1

    def test_prefill_serves_at_time_zero(self):
        service = make_service(prefill=5, psucc=0.4)
        ready, created, _ = service.acquire(0.0)
        assert ready == pytest.approx(0.0)
        assert created == 0.0

    def test_prefill_bounded_by_capacity(self):
        with pytest.raises(EntanglementError):
            make_service(capacity=2, prefill=3)

    def test_count_available_monotone_while_unconsumed(self):
        service = make_service(psucc=1.0)
        early = service.count_available(5.0)
        late = service.count_available(50.0)
        assert late >= early

    def test_consumed_links_not_counted(self):
        service = make_service(psucc=1.0)
        before = service.count_available(40.0)
        service.acquire(40.0)
        after = service.count_available(40.0)
        assert after == before - 1

    def test_waste_accounting(self):
        service = make_service(psucc=1.0, capacity=3)
        service.advance_to(500.0)
        service.finalize(500.0)
        stats = service.statistics
        assert stats.generated_total > 3
        assert service.total_wasted > 0
        assert stats.consumed_total == 0

    def test_finalize_flushes_buffer(self):
        service = make_service(psucc=1.0)
        service.advance_to(100.0)
        service.finalize(100.0)
        assert service.count_available(100.0) == 0

    def test_mean_consumed_fidelity_reasonable(self):
        service = make_service(psucc=0.8, seed=2)
        for t in range(20, 120, 10):
            service.acquire(float(t))
        fidelity = service.mean_consumed_fidelity()
        assert 0.9 < fidelity <= 0.99

    def test_async_waits_shorter_than_sync_when_empty(self):
        sync = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0, seed=1)
        async_service = make_service(policy=AttemptPolicy.ASYNCHRONOUS, psucc=1.0,
                                     seed=1)
        sync_ready, _, _ = sync.acquire(0.5)
        async_ready, _, _ = async_service.acquire(0.5)
        assert async_ready <= sync_ready

    def test_invalid_acquire_time(self):
        service = make_service()
        with pytest.raises(EntanglementError):
            service.acquire(-1.0)

    def test_negative_kappa_rejected(self):
        schedule = AttemptSchedule(num_pairs=1)
        generator = EntanglementGenerator(schedule, 0.5)
        with pytest.raises(EntanglementError):
            EntanglementService(generator, buffer_capacity=1, kappa=-0.1)

    def test_node_pair_is_normalised(self):
        assert make_service(node_pair=(1, 0)).node_pair == (0, 1)

    def test_same_node_pair_rejected(self):
        with pytest.raises(EntanglementError):
            make_service(node_pair=(2, 2))

    def test_initial_fidelity_validated(self):
        with pytest.raises(EntanglementError):
            make_service(initial_fidelity=0.0)

    def test_link_fidelity_decays_with_age(self):
        service = make_service(prefill=2, psucc=0.05, seed=3)
        start, created, fresh = service.acquire(0.0)
        assert (start, created, fresh) == (0.0, 0.0, 0.99)
        start, created, aged = service.acquire(8.0)
        assert created == 0.0 and start == 8.0
        assert aged == werner_fidelity_after(0.99, 8.0, 0.002) < 0.99

    def test_links_are_never_served_before_creation(self):
        import random

        rng = random.Random(4)
        for capacity, psucc in [(0, 0.4), (3, 0.4), (10, 0.05)]:
            service = make_service(capacity=capacity, psucc=psucc, seed=9)
            for _ in range(60):
                after = rng.uniform(0.0, 400.0)
                start, created, fidelity = service.acquire(after)
                assert start >= after and start >= created
                assert fidelity == werner_fidelity_after(
                    0.99, start - created, 0.002)

    def test_directly_consumed_success_is_never_buffered(self):
        service = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0,
                               pairs=1, capacity=5)
        ready, created, _ = service.acquire(5.0)
        assert (ready, created) == (10.0, 10.0)
        assert service.statistics.consumed_direct == 1
        service.advance_to(35.0)
        assert [link[0] for link in service.buffer.stored_links] == \
            [20.0, 30.0]
        service.finalize(35.0)
        assert service._delivered == set()

    def test_success_inside_the_grid_hit_tolerance_is_dropped(self):
        # The frontier stops 5e-10 cycles short of the completion at 20, so
        # the attempt bound of the next interval skips that attempt: the
        # success is neither buffered nor wasted.
        service = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0,
                               pairs=1, capacity=5)
        assert service.count_available(20.0 - 5e-9) == 1
        assert service.count_available(35.0) == 2
        assert [link[0] for link in service.buffer.stored_links] == \
            [10.0, 30.0]
        assert service.statistics.generated_total == 2

    def test_backwards_acquire_is_served_buffer_then_swaps_then_fresh(self):
        """An acquire earlier than a prior query, served in contract order."""
        service = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0,
                               pairs=2, capacity=10)
        # Successes of both pairs at 10 and 20 are buffered (swaps done at
        # 11 and 21); the frontier is now 25.
        assert service.count_available(25.0) == 4
        # 1. Buffered links whose swap finished by 15 (the 10.0 links).
        assert service.acquire(15.0)[:2] == (15.0, 10.0)
        assert service.acquire(15.0)[:2] == (15.0, 10.0)
        # 2. Then the swaps finishing first after 15 (the 20.0 links).
        assert service.acquire(15.0)[:2] == (21.0, 20.0)
        assert service.acquire(15.0)[:2] == (21.0, 20.0)
        assert service.statistics.consumed_from_buffer == 4
        # 3. Then a fresh success after the frontier, never one before it.
        assert service.acquire(15.0)[:2] == (30.0, 30.0)
        assert service.statistics.consumed_direct == 1
