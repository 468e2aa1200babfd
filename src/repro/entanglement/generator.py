"""Stochastic heralded entanglement generation on shared success tapes.

Combines an :class:`~repro.entanglement.attempts.AttemptSchedule` with a
Bernoulli success model: every attempt of every communication-qubit pair
succeeds independently with probability ``psucc`` (0.4 in the paper's
evaluation).

*Variates.*  Attempt ``k`` of pair ``p`` succeeds iff the ``k``-th uniform
of that pair's own stream, ``SeedSequence(entropy=seed, spawn_key=(p,))``,
is below ``psucc``.  All pairs are drawn in lockstep blocks: one
``Generator.random(n)`` call per pair covers attempts ``[N, N + n)``.
NumPy draws the identical variates whether ``random()`` is called ``n``
times or once with ``size=n``, so no block partition changes an outcome,
and drawing further ahead than a query needs never changes a result.
The streams and the success indices of every block drawn so far live in
the :class:`LockstepBlocks` of a :class:`VariateSource` of a
:class:`VariateTable`, keyed by ``(seed, num_pairs, psucc)`` and not by
the attempt schedule: block sizes depend only on the attempts already
drawn, so every generator of one key reads the same read-only blocks,
whichever design, schedule or benchmark it belongs to.  A generator given
no table makes a private one.

*Tape.*  A :class:`SuccessTape` holds the successes of all pairs as three
parallel columns — completion time, pair, attempt — sorted by
``(time, pair)``.  It depends only on the source and on the schedule's
first completions and cycle time, so a source owns one tape per
``(first_completions, cycle_time)`` and every generator of that schedule
reads it: the designs and benchmarks of one run seed share a sync and an
async tape.  After ``N`` attempts per pair the tape is final below its
:attr:`~SuccessTape.frontier` ``min_p first_p + N * cycle``: every undrawn
attempt completes at or after it.  When the pairs' first completions span
more than one cycle, the earliest successes of a new block land before the
tail of the previous one, so a block is merged into the tape, not
appended.  Entries below the frontier never move, and a query's answer
depends only on final entries, so drawing further for one generator never
changes another's answers.

*Interval semantics.*  A success ``(t, p, k)`` lies in ``(start, end]`` iff
``t > start + 1e-12``, ``t <= end + 1e-12`` and
``k >= attempt_after(p, start)``, the grid-hit bound of
:meth:`AttemptSchedule.attempt_index_completing_after`.  Its ``1e-9``
tolerance can drop a completion that lies just after ``start``; only tape
entries within about ``1e-9 * cycle`` of ``start`` can fail the bound, so
queries bisect the tape and check the bound only within ``2e-9 * cycle``
after ``start``.  :meth:`indices_between` and
:meth:`first_fresh_index` are the only places that apply this rule;
:meth:`successes_between` and :meth:`first_fresh_success` are event views
over them.  Both queries run without helper calls unless they must draw a
block or check the attempt bound, since the entanglement service asks one
of them per remote gate.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import (Collection, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
from numpy.random import SeedSequence, default_rng

from repro.entanglement.attempts import AttemptSchedule
from repro.exceptions import EntanglementError

__all__ = ["GenerationEvent", "EntanglementGenerator", "SuccessTape",
           "VariateTable"]

#: First lockstep block (attempts per pair); later blocks double up to
#: :data:`_MAX_BLOCK` so long simulations stay O(log) in RNG calls.
_MIN_BLOCK = 128
_MAX_BLOCK = 8192

#: Most sources one :class:`VariateTable` holds.
VARIATE_TABLE_SIZE = 128

#: Most communication-qubit pairs of one node pair: pair indices are
#: stored in 16 bits.
_MAX_PAIRS = 1 << 16

#: Integer types of the pair and attempt indices in blocks and tapes, with
#: their ``array`` typecodes.  Attempt indices stay far below the range of
#: a C ``int``: 2**31 attempts of one pair would take 16 GB of uniforms.
_PAIR_DTYPE, _PAIR_CODE = np.uint16, "H"
_ATTEMPT_DTYPE, _ATTEMPT_CODE = np.intc, "i"

#: One lockstep block: the attempts per pair drawn through it, then the
#: pair and attempt indices of its successes (read-only arrays).
Block = Tuple[int, np.ndarray, np.ndarray]


class GenerationEvent(NamedTuple):
    """One successful entanglement-generation attempt."""

    time: float
    pair_index: int
    attempt_index: int


class LockstepBlocks:
    """The per-pair streams of one variate key and the blocks drawn so far."""

    __slots__ = ("_streams", "_psucc", "_blocks", "_drawn")

    def __init__(self, entropy: int, num_pairs: int, psucc: float) -> None:
        if num_pairs > _MAX_PAIRS:
            raise EntanglementError(
                f"at most {_MAX_PAIRS} communication-qubit pairs per node "
                f"pair, got {num_pairs}")
        self._streams = [
            default_rng(SeedSequence(entropy=entropy, spawn_key=(pair,)))
            for pair in range(num_pairs)
        ]
        self._psucc = psucc
        self._blocks: List[Block] = []
        self._drawn = 0

    def block(self, index: int) -> Block:
        """Lockstep block ``index``, drawing the blocks up to it in order."""
        blocks = self._blocks
        while len(blocks) <= index:
            drawn = self._drawn
            size = min(_MAX_BLOCK, max(_MIN_BLOCK, drawn))
            uniforms = np.empty((len(self._streams), size))
            for row, rng in zip(uniforms, self._streams):
                rng.random(out=row)
            pairs, offsets = np.nonzero(uniforms < self._psucc)
            pairs = pairs.astype(_PAIR_DTYPE)
            attempts = offsets.astype(_ATTEMPT_DTYPE)
            attempts += drawn
            pairs.flags.writeable = False
            attempts.flags.writeable = False
            self._drawn = drawn + size
            blocks.append((self._drawn, pairs, attempts))
        return blocks[index]


class VariateSource:
    """One variate key's lockstep blocks and the success tapes over them.

    A tape reads the blocks, not the source, so a source and its tapes
    form no reference cycle: they are freed as soon as the last table,
    generator or service holding them lets go, not at the next cyclic
    garbage collection.
    """

    __slots__ = ("blocks", "_tapes")

    def __init__(self, entropy: int, num_pairs: int, psucc: float) -> None:
        self.blocks = LockstepBlocks(entropy, num_pairs, psucc)
        self._tapes: Dict[Tuple[Tuple[float, ...], float], SuccessTape] = {}

    def tape(self, schedule: AttemptSchedule) -> "SuccessTape":
        """The success tape of ``schedule``, shared by every caller of it.

        Keyed by the schedule's first completions and cycle time, the only
        parts of it a tape reads.
        """
        key = (schedule.first_completions, schedule.cycle_time)
        found = self._tapes.get(key)
        if found is None:
            found = self._tapes[key] = SuccessTape(self.blocks, *key)
        return found


class SuccessTape:
    """The successes of one variate source under one attempt schedule.

    Attributes
    ----------
    times / pairs / attempts:
        Parallel columns (``array('d')``, ``array('H')``, ``array('i')``)
        of every success drawn so far, sorted by ``(time, pair)``.  They are
        only ever extended or have a suffix above the frontier replaced, in
        place, so a caller may hold on to them across draws.
    frontier:
        Every success completing before this time is on the tape.
    drawn:
        Attempts per pair drawn into the tape.
    blocks_read:
        Lockstep blocks of the source merged into the tape.
    """

    __slots__ = ("times", "pairs", "attempts", "frontier", "drawn",
                 "blocks_read", "_blocks", "_firsts", "_first_min", "_cycle")

    def __init__(self, blocks: LockstepBlocks,
                 first_completions: Tuple[float, ...],
                 cycle_time: float) -> None:
        self._blocks = blocks
        self._firsts = np.asarray(first_completions, dtype=float)
        self._first_min = min(first_completions, default=float("inf"))
        self._cycle = cycle_time
        self.times = array("d")
        self.pairs = array(_PAIR_CODE)
        self.attempts = array(_ATTEMPT_CODE)
        self.frontier = self._first_min
        self.drawn = 0
        self.blocks_read = 0

    def ensure(self, threshold: float) -> None:
        """Draw until the tape is final at and below ``threshold``."""
        while self.frontier <= threshold:
            self.draw_block()

    def draw_block(self) -> None:
        """Merge the source's next lockstep block into the tape."""
        drawn, pairs, attempts = self._blocks.block(self.blocks_read)
        self.blocks_read += 1
        # first + k * cycle: the float arithmetic of
        # AttemptSchedule.attempt_completion, element by element.
        times = self._firsts[pairs] + attempts * self._cycle
        order = np.lexsort((pairs, times))
        self._merge(times[order], pairs[order], attempts[order])
        self.drawn = drawn
        self.frontier = self._first_min + drawn * self._cycle

    def _merge(self, times: np.ndarray, pairs: np.ndarray,
               attempts: np.ndarray) -> None:
        """Merge one sorted block into the tape, in place."""
        if not len(times):
            return
        tape_times, tape_pairs, tape_attempts = (self.times, self.pairs,
                                                 self.attempts)
        first = float(times[0])
        cut = len(tape_times)
        if cut and (first, int(pairs[0])) < (tape_times[-1], tape_pairs[-1]):
            # The block starts before the tail: re-sort the overlapping
            # suffix with it.  (time, pair) is unique, so the order is
            # the tuple order of the entries.
            cut = bisect_left(tape_times, first)
            times = np.concatenate((np.frombuffer(tape_times[cut:]), times))
            pairs = np.concatenate((np.frombuffer(tape_pairs[cut:],
                                                  dtype=_PAIR_DTYPE), pairs))
            attempts = np.concatenate((np.frombuffer(
                tape_attempts[cut:], dtype=_ATTEMPT_DTYPE), attempts))
            order = np.lexsort((pairs, times))
            times, pairs, attempts = times[order], pairs[order], \
                attempts[order]
            del tape_times[cut:], tape_pairs[cut:], tape_attempts[cut:]
        tape_times.frombytes(times.tobytes())
        tape_pairs.frombytes(pairs.tobytes())
        tape_attempts.frombytes(attempts.tobytes())


class VariateTable:
    """Bounded table of variate sources, keyed by ``(entropy, num_pairs, psucc)``.

    The entropy is a generator's seed, which
    :class:`~repro.runtime.resources.EntanglementDirectory` derives from the
    run seed and the node pair, so the generators of one run seed and node
    pair that read one table share its streams, blocks and tapes, whatever
    their design, schedule or benchmark.  The table holds at most
    :data:`VARIATE_TABLE_SIZE` sources and evicts the least recently used
    one; a generator keeps reading the source it was given after that.  A
    source of 10 pairs with one 128-attempt block takes about 12 KB, most
    of it the 10 NumPy ``Generator`` objects.  Its tapes are most of the
    rest: 14 bytes per success, so a sync and an async tape over that
    block (about 512 successes at ``psucc`` 0.4) add about 8.5 KB each,
    and a full table of such sources is about 4 MB.
    A study whose cells each need more sources than the bound (seeds per
    cell times node pairs) evicts every source before the next design asks
    for it: it shares nothing, and draws every stream once per run, as
    generators with private tables do.

    A table is not thread-safe: each serial execute call owns one, and so
    does each process worker.
    """

    def __init__(self) -> None:
        self._sources: "OrderedDict[Tuple[int, int, float], VariateSource]" \
            = OrderedDict()

    def __len__(self) -> int:
        return len(self._sources)

    def source(self, entropy: int, num_pairs: int,
               psucc: float) -> VariateSource:
        """The source of one key, made (and the oldest evicted) on a miss."""
        key = (entropy, num_pairs, psucc)
        sources = self._sources
        found = sources.get(key)
        if found is not None:
            sources.move_to_end(key)
            return found
        found = sources[key] = VariateSource(entropy, num_pairs, psucc)
        if len(sources) > VARIATE_TABLE_SIZE:
            sources.popitem(last=False)
        return found


class EntanglementGenerator:
    """Bernoulli success process of all pairs of one node pair, as a tape.

    Parameters
    ----------
    schedule:
        The deterministic attempt timing (sync or async phasing).
    success_probability:
        Per-attempt success probability ``psucc``.
    seed:
        Non-negative seed of the underlying PRNG; every pair gets an
        independent, reproducible sub-stream.
    variates:
        The :class:`VariateTable` to read the streams from; ``None`` makes
        a private one.

    Attributes
    ----------
    tape:
        The :class:`SuccessTape` of this generator's source and schedule,
        shared with every generator of both.
    times / pairs / attempts:
        The tape's columns, sorted by ``(time, pair)``.
    """

    def __init__(self, schedule: AttemptSchedule,
                 success_probability: float = 0.4,
                 seed: int = 0,
                 variates: Optional[VariateTable] = None) -> None:
        if not (0.0 < success_probability <= 1.0):
            raise EntanglementError("success probability must be in (0, 1]")
        if seed < 0:
            raise EntanglementError(f"seed must be non-negative, got {seed}")
        self.schedule = schedule
        self.success_probability = success_probability
        self.seed = seed
        self.cycle = schedule.cycle_time
        #: Entries this far after a query's start may fail its attempt bound.
        self._window = 2e-9 * self.cycle
        self._firsts = schedule.first_completions
        if variates is None:
            variates = VariateTable()
        tape = self.tape = variates.source(
            seed, schedule.num_pairs, success_probability).tape(schedule)
        self.times = tape.times
        self.pairs = tape.pairs
        self.attempts = tape.attempts

    @property
    def frontier(self) -> float:
        """Every success completing before this time is on the tape."""
        return self.tape.frontier

    @property
    def drawn(self) -> int:
        """Attempts per pair drawn into the tape."""
        return self.tape.drawn

    def ensure(self, threshold: float) -> None:
        """Draw until the tape is final at and below ``threshold``."""
        self.tape.ensure(threshold)

    # ------------------------------------------------------------------
    # interval semantics
    # ------------------------------------------------------------------
    def attempt_after(self, pair_index: int, time: float) -> int:
        """Inline replica of :meth:`AttemptSchedule.attempt_index_completing_after`.

        Identical float arithmetic (including the grid-hit rounding
        tolerance) on the cached first-completion time.
        """
        first = self._firsts[pair_index]
        if time < first - 1e-12:
            return 0
        elapsed = (time - first) / self.cycle
        if abs(elapsed - round(elapsed)) < 1e-9:
            return int(round(elapsed)) + 1
        return int(elapsed) + 1

    def _fails_bound(self, index: int, start: float) -> bool:
        """Whether tape entry ``index`` fails the attempt bound of ``start``."""
        return self.attempts[index] < self.attempt_after(self.pairs[index],
                                                         start)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def indices_between(self, start: float, end: float) -> Sequence[int]:
        """Tape indices of the successes in ``(start, end]``, in tape order.

        A ``range`` unless an entry within ``2e-9 * cycle`` after ``start``
        fails the attempt bound; then a list without those entries.
        """
        if end < start:
            return range(0)
        threshold = end + 1e-12
        tape = self.tape
        if tape.frontier <= threshold:
            tape.ensure(threshold)
        times = self.times
        low = bisect_right(times, start + 1e-12)
        high = bisect_right(times, threshold, low)
        window = start + self._window
        if low == high or times[low] > window:
            return range(low, high)
        edge = bisect_right(times, window, low, high)
        for index in range(low, edge):
            if self._fails_bound(index, start):
                return [i for i in range(low, high)
                        if i >= edge or not self._fails_bound(i, start)]
        return range(low, high)

    def successes_between(self, start: float,
                          end: float) -> List[GenerationEvent]:
        """Successes of all pairs in ``(start, end]``, in ``(time, pair)`` order."""
        indices = self.indices_between(start, end)
        times, pairs, attempts = self.times, self.pairs, self.attempts
        return [GenerationEvent(times[i], pairs[i], attempts[i])
                for i in indices]

    def first_fresh_index(self, time: float, excluded: Collection = ()) -> int:
        """Tape index of the earliest success after ``time`` not excluded.

        ``excluded`` holds ``(pair, attempt)`` keys.  "After" has the
        interval semantics of :meth:`indices_between`; ties in time go to
        the lower pair.  Draws as far ahead as needed.
        """
        if not self._firsts:
            raise EntanglementError("no communication-qubit pairs to draw from")
        threshold = time + 1e-12
        tape = self.tape
        if tape.frontier <= threshold:
            tape.ensure(threshold)
        times, pairs, attempts = self.times, self.pairs, self.attempts
        window = time + self._window
        index = bisect_right(times, threshold)
        while True:
            # An entry at the frontier could still tie with an undrawn
            # attempt of a lower pair; only entries below it are final.
            if index < len(times) and times[index] < tape.frontier:
                if ((times[index] <= window and self._fails_bound(index, time))
                        or (excluded
                            and (pairs[index], attempts[index]) in excluded)):
                    index += 1
                    continue
                return index
            tape.draw_block()

    def first_fresh_success(self, time: float,
                            excluded: Collection = ()) -> GenerationEvent:
        """The success at :meth:`first_fresh_index`, as an event."""
        index = self.first_fresh_index(time, excluded)
        return GenerationEvent(self.times[index], self.pairs[index],
                               self.attempts[index])

    def attempt_succeeds(self, pair_index: int, attempt_index: int) -> bool:
        """Whether the given attempt of the given pair succeeds."""
        if attempt_index < 0:
            raise EntanglementError("attempt index must be non-negative")
        if not (0 <= pair_index < len(self._firsts)):
            raise EntanglementError(
                f"pair index {pair_index} out of range for "
                f"{len(self._firsts)} pairs"
            )
        completion = self._firsts[pair_index] + attempt_index * self.cycle
        self.ensure(completion)
        times = self.times
        index = bisect_left(times, completion)
        while index < len(times) and times[index] == completion:
            if (self.pairs[index] == pair_index
                    and self.attempts[index] == attempt_index):
                return True
            index += 1
        return False
