"""The link-supply path against a straightforward model of it.

:class:`ModelService` and :class:`ModelBufferPool` keep an earlier, plainer
form of :class:`EntanglementService` and :class:`BufferPool`: one helper
call per step (advance, store per success, expire, freshest, consume), the
interval and fresh-success queries as separate functions over the
generator's tape, and the Werner decay in NumPy scalar arithmetic.  The
production classes fold those steps into a few flat calls; this module
checks that every returned ``(start, created, fidelity)`` triple and every
counter stay exactly equal over random operation sequences.

The model reads the tape through the generator's public surface (``times``,
``pairs``, ``attempts``, ``frontier``, ``ensure``, ``attempt_after``), which
``tests/test_entanglement_tape.py`` checks against a per-attempt scan.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAPER_32Q_SYSTEM, PAPER_64Q_SYSTEM
from repro.engine.compiler import CellCompiler
from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    EntanglementGenerator,
    EntanglementService,
)


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
def model_werner(initial_fidelity: float, elapsed: float,
                 kappa: float) -> float:
    if elapsed == 0.0:
        return float(initial_fidelity)
    decay = np.exp(-2.0 * kappa * elapsed)
    return float(initial_fidelity * decay + (1.0 - decay) / 4.0)


def model_indices_between(generator, start: float, end: float):
    if end < start:
        return range(0)
    generator.ensure(end + 1e-12)
    times = generator.times
    low = bisect_right(times, start + 1e-12)
    high = bisect_right(times, end + 1e-12)
    if low == high:
        return range(low, high)

    def fails(index):
        return generator.attempts[index] < generator.attempt_after(
            generator.pairs[index], start)

    edge = bisect_right(times, start + 2e-9 * generator.cycle, low, high)
    for index in range(low, edge):
        if fails(index):
            return [i for i in range(low, high) if i >= edge or not fails(i)]
    return range(low, high)


def model_first_fresh(generator, time: float,
                      excluded) -> Tuple[float, int, int]:
    threshold = time + 1e-12
    generator.ensure(threshold)
    times, pairs, attempts = (generator.times, generator.pairs,
                              generator.attempts)
    window = time + 2e-9 * generator.cycle
    index = bisect_right(times, threshold)
    while True:
        if index < len(times) and times[index] < generator.frontier:
            fails = attempts[index] < generator.attempt_after(pairs[index],
                                                              time)
            if ((times[index] <= window and fails)
                    or (pairs[index], attempts[index]) in excluded):
                index += 1
                continue
            return times[index], pairs[index], attempts[index]
        generator.ensure(generator.frontier)  # one more block


class ModelBufferPool:
    def __init__(self, capacity: int, cutoff: Optional[float]) -> None:
        self.capacity = capacity
        self.cutoff = cutoff
        self.stored: List[Tuple[float, float]] = []
        self.stored_total = 0
        self.consumed_total = 0
        self.expired_total = 0
        self.rejected_total = 0

    def count_available(self, time: float) -> int:
        return sum(1 for _, buffered in self.stored
                   if buffered <= time + 1e-12)

    def store(self, created: float, buffered: float) -> None:
        self.expire_until(buffered)
        if len(self.stored) >= self.capacity:
            if self.capacity == 0:
                self.rejected_total += 1
                return
            self.stored.pop(0)
            self.expired_total += 1
        self.stored.append((created, buffered))
        self.stored_total += 1

    def _consume(self, position: int, time: float) -> Tuple[float, float]:
        created, _ = self.stored.pop(position)
        age = max(0.0, time - created)
        self.consumed_total += 1
        return created, age

    def _freshest(self, threshold: float) -> int:
        best = -1
        best_created = 0.0
        for position, (created, buffered) in enumerate(self.stored):
            if buffered <= threshold and (best < 0 or created > best_created):
                best, best_created = position, created
        return best

    def take(self, time: float) -> Optional[Tuple[float, float, float]]:
        self.expire_until(time)
        position = self._freshest(time + 1e-12)
        if position >= 0:
            return (time, *self._consume(position, time))
        if not self.stored:
            return None
        ready = min(buffered for _, buffered in self.stored)
        self.expire_until(ready)
        return (ready, *self._consume(self._freshest(ready + 1e-12), ready))

    def expire_until(self, time: float) -> None:
        if self.cutoff is None:
            return
        limit = self.cutoff + 1e-12
        remaining = [link for link in self.stored if time - link[1] <= limit]
        self.expired_total += len(self.stored) - len(remaining)
        self.stored = remaining

    def flush(self) -> None:
        self.expired_total += len(self.stored)
        self.stored = []


class ModelService:
    def __init__(self, generator, capacity: int, kappa: float,
                 swap_latency: float, cutoff: Optional[float],
                 prefill: int) -> None:
        self.generator = generator
        self.buffer = ModelBufferPool(capacity, cutoff)
        self.kappa = kappa
        self.swap_latency = swap_latency
        self.frontier = 0.0
        self.delivered: set = set()
        self.generated_total = 0
        self.consumed_from_buffer = 0
        self.consumed_direct = 0
        for _ in range(prefill):
            self.buffer.store(0.0, 0.0)

    def advance_to(self, time: float) -> None:
        start = self.frontier
        if time <= start + 1e-12:
            return
        generator = self.generator
        for index in model_indices_between(generator, start, time):
            key = (generator.pairs[index], generator.attempts[index])
            if key in self.delivered:
                self.delivered.remove(key)
                continue
            created = generator.times[index]
            self.buffer.store(created, created + self.swap_latency)
            self.generated_total += 1
        self.frontier = time
        self.buffer.expire_until(time)

    def count_available(self, time: float) -> int:
        self.advance_to(time)
        return self.buffer.count_available(time)

    def acquire(self, after: float) -> Tuple[float, float, float]:
        self.advance_to(after)
        taken = self.buffer.take(after)
        if taken is not None:
            start, created, age = taken
            self.consumed_from_buffer += 1
        else:
            created, pair, attempt = model_first_fresh(
                self.generator, max(after, self.frontier), self.delivered)
            self.delivered.add((pair, attempt))
            start = max(after, created)
            age = max(0.0, start - created)
            self.generated_total += 1
            self.consumed_direct += 1
        return start, created, model_werner(0.99, age, self.kappa)

    def finalize(self, time: float) -> None:
        self.advance_to(time)
        self.buffer.flush()


def assert_same_state(service: EntanglementService,
                      model: ModelService) -> None:
    statistics = service.statistics
    assert (statistics.generated_total, statistics.consumed_from_buffer,
            statistics.consumed_direct) == (
        model.generated_total, model.consumed_from_buffer,
        model.consumed_direct)
    pool, reference = service.buffer.statistics, model.buffer
    assert (pool.stored_total, pool.consumed_total, pool.expired_total,
            pool.rejected_total) == (
        reference.stored_total, reference.consumed_total,
        reference.expired_total, reference.rejected_total)
    assert service.buffer.stored_links == reference.stored
    assert service._materialized_until == model.frontier
    assert service._delivered == model.delivered


# ----------------------------------------------------------------------
# operation sequences
# ----------------------------------------------------------------------
@st.composite
def configurations(draw):
    if draw(st.booleans()):
        schedule = AttemptSchedule(
            num_pairs=draw(st.integers(1, 10)),
            policy=draw(st.sampled_from(list(AttemptPolicy))))
    else:
        # 16 sub-groups staggered by one unit against a 10-unit cycle: the
        # first completions span more than a cycle, so blocks merge.
        schedule = AttemptSchedule(num_pairs=draw(st.integers(11, 16)),
                                   policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=16)
    capacity = draw(st.sampled_from([0, 1, 10]))
    return {
        "schedule": schedule,
        "psucc": draw(st.sampled_from([1.0, 0.4, 0.05])),
        "seed": draw(st.integers(0, 2**32)),
        "capacity": capacity,
        "prefill": draw(st.sampled_from(sorted({0, capacity}))),
        "cutoff": draw(st.sampled_from([None, None, 4.0, 15.0])),
        "swap_latency": draw(st.sampled_from([1.0, 0.0, 2.5])),
    }


@st.composite
def times(draw, schedule, swap_latency, last):
    """Uniform, backwards, repeated, or on (or near) a completion."""
    kind = draw(st.sampled_from(["uniform", "back", "repeat", "on", "swap",
                                 "near"]))
    if kind == "uniform":
        return draw(st.floats(0.0, 400.0))
    if kind == "back":
        return draw(st.floats(0.0, last))
    if kind == "repeat":
        return last
    pair = draw(st.integers(0, schedule.num_pairs - 1))
    completion = schedule.attempt_completion(pair, draw(st.integers(0, 40)))
    if kind == "on":
        return completion
    if kind == "swap":
        return completion + swap_latency
    return max(0.0, completion + draw(st.sampled_from(
        [-1e-9, -1e-12, 5e-13, 1e-11, 1e-9])) * schedule.cycle_time)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), config=configurations())
def test_service_matches_the_model(data, config):
    schedule = config["schedule"]
    service = EntanglementService(
        EntanglementGenerator(schedule, config["psucc"], seed=config["seed"]),
        buffer_capacity=config["capacity"], kappa=0.002,
        swap_latency=config["swap_latency"], buffer_cutoff=config["cutoff"],
        prefill=config["prefill"])
    model = ModelService(
        EntanglementGenerator(schedule, config["psucc"], seed=config["seed"]),
        config["capacity"], 0.002, config["swap_latency"], config["cutoff"],
        config["prefill"])
    last = 0.0
    for _ in range(data.draw(st.integers(1, 40))):
        time = data.draw(times(schedule, config["swap_latency"], last))
        operation = data.draw(st.sampled_from(
            ["acquire", "acquire", "acquire", "count", "advance"]))
        if operation == "acquire":
            assert service.acquire(time) == model.acquire(time)
        elif operation == "count":
            assert service.count_available(time) == \
                model.count_available(time)
        else:
            service.advance_to(time)
            model.advance_to(time)
        assert_same_state(service, model)
        last = time
    end = last + data.draw(st.floats(0.0, 100.0))
    service.finalize(end)
    model.finalize(end)
    assert_same_state(service, model)
    assert service.total_wasted == (model.buffer.expired_total
                                    + model.buffer.rejected_total)


# ----------------------------------------------------------------------
# link conservation per run, through the batched core
# ----------------------------------------------------------------------
def test_links_are_conserved_per_run():
    """Every remote gate consumes one link, and every link is accounted for.

    Over the five distributed designs of the Fig. 5/6 benchmarks (10
    seeds) and of the Fig. 8 benchmarks on the 64-qubit system (5 seeds),
    each run consumes exactly ``num_remote`` links, and the links it
    generated plus those pre-filled into the buffers (``init_buf`` only)
    equal the links it consumed plus those it wasted.
    """
    for system, benchmarks, seeds in (
            (PAPER_32Q_SYSTEM, ("TLIM-32", "QAOA-r4-32", "QAOA-r8-32",
                                "QFT-32"), range(10)),
            (PAPER_64Q_SYSTEM, ("QAOA-r4-64", "QAOA-r8-64"), range(5))):
        compiler = CellCompiler(system=system)
        architecture = compiler.architecture
        capacity = sum(architecture.buffer_capacity_between(a, b)
                       for a, b in architecture.node_pairs())
        for benchmark in benchmarks:
            for design in ("original", "sync_buf", "async_buf", "adapt_buf",
                           "init_buf"):
                cell = compiler.compile(benchmark, design)
                prefilled = capacity if cell.design.prefill_buffers else 0
                for result in cell.execute_batch(seeds):
                    links = result.epr_statistics
                    consumed = (links["consumed_from_buffer"]
                                + links["consumed_direct"])
                    assert consumed == result.num_remote, (benchmark, design)
                    assert (links["generated"] + prefilled
                            == consumed + links["wasted"]), (benchmark,
                                                             design)
