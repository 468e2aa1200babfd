"""Stochastic heralded entanglement generation on one merged success tape.

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
The streams and the success indices of every block drawn so far live in a
source of a :class:`VariateTable`, keyed by ``(seed, num_pairs, psucc)``
and not by the attempt schedule: block sizes depend only on the attempts
already drawn, so every generator of one key reads the same read-only
blocks, whichever design, schedule or benchmark it belongs to, and each
still builds its own tape from them.  A generator given no table makes a
private one.

*Tape.*  The successes of all pairs are kept as three parallel lists —
completion time, pair, attempt — sorted by ``(time, pair)``.  After ``N``
attempts per pair the tape is final below the :attr:`frontier`
``min_p first_p + N * cycle``: every undrawn attempt completes at or after
it.  When the pairs' first completions span more than one cycle, the
earliest successes of a new block land before the tail of the previous
one, so a block is merged into the tape, not appended.

*Interval semantics.*  A success ``(t, p, k)`` lies in ``(start, end]`` iff
``t > start + 1e-12``, ``t <= end + 1e-12`` and
``k >= attempt_after(p, start)``, the grid-hit bound of
:meth:`AttemptSchedule.attempt_index_completing_after`.  Its ``1e-9``
tolerance can drop a completion that lies just after ``start``; only tape
entries within about ``1e-9 * cycle`` of ``start`` can fail the bound, so
queries bisect the tape and check the bound only within ``2e-9 * cycle``
after ``start``.  :meth:`indices_between` and
:meth:`first_fresh_success` are the only places that apply this rule;
:meth:`successes_between` is an event view over the former.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Collection, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from repro.entanglement.attempts import AttemptSchedule
from repro.exceptions import EntanglementError

__all__ = ["GenerationEvent", "EntanglementGenerator", "VariateTable"]

#: First lockstep block (attempts per pair); later blocks double up to
#: :data:`_MAX_BLOCK` so long simulations stay O(log) in RNG calls.
_MIN_BLOCK = 128
_MAX_BLOCK = 8192

#: Most sources one :class:`VariateTable` holds.
VARIATE_TABLE_SIZE = 128

#: One lockstep block: the attempts per pair drawn through it, then the
#: pair and attempt indices of its successes (read-only arrays).
Block = Tuple[int, np.ndarray, np.ndarray]


class GenerationEvent(NamedTuple):
    """One successful entanglement-generation attempt."""

    time: float
    pair_index: int
    attempt_index: int


class VariateSource:
    """The per-pair streams of one variate key and the blocks drawn so far."""

    __slots__ = ("_streams", "_psucc", "_blocks", "_drawn")

    def __init__(self, entropy: int, num_pairs: int, psucc: float) -> None:
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
            attempts = offsets + drawn
            pairs.flags.writeable = False
            attempts.flags.writeable = False
            self._drawn = drawn + size
            blocks.append((self._drawn, pairs, attempts))
        return blocks[index]


class VariateTable:
    """Bounded table of variate sources, keyed by ``(entropy, num_pairs, psucc)``.

    The entropy is a generator's seed, which
    :class:`~repro.runtime.resources.EntanglementDirectory` derives from the
    run seed and the node pair, so the generators of one run seed and node
    pair that read one table share its streams and blocks, whatever their
    design, schedule or benchmark.  The table holds at most
    :data:`VARIATE_TABLE_SIZE` sources and evicts the least recently used
    one; a generator keeps reading the source it was given after that.  A
    source of 10 pairs with one 128-attempt block takes about 22 KB, most
    of it the 10 NumPy ``Generator`` objects, so a full table is about
    3 MB.  A study whose cells each need more sources than the bound (seeds
    per cell times node pairs) evicts every source before the next design
    asks for it: it shares nothing, and draws every stream once per run,
    as generators with private tables do.

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
    times / pairs / attempts:
        The tape: parallel lists of every success drawn so far, sorted by
        ``(time, pair)``.  Lists are only ever extended or have a suffix
        replaced, so a caller may hold on to them across draws.
    frontier:
        Every success completing before this time is on the tape.
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
        self._firsts = [schedule.first_completion(pair)
                        for pair in range(schedule.num_pairs)]
        self._first_min = min(self._firsts, default=float("inf"))
        if variates is None:
            variates = VariateTable()
        self._variates = variates.source(seed, schedule.num_pairs,
                                         success_probability)
        self._blocks_read = 0
        self.drawn = 0
        self.times: List[float] = []
        self.pairs: List[int] = []
        self.attempts: List[int] = []
        self.frontier = self._first_min

    # ------------------------------------------------------------------
    # drawing
    # ------------------------------------------------------------------
    def _draw_block(self) -> None:
        """Merge the next lockstep block of every pair into the tape."""
        drawn, pair_index, attempts = self._variates.block(self._blocks_read)
        self._blocks_read += 1
        # first + k * cycle: the float arithmetic of
        # AttemptSchedule.attempt_completion, element by element.
        times = np.asarray(self._firsts)[pair_index] + attempts * self.cycle
        order = np.lexsort((pair_index, times))
        self._merge(times[order].tolist(), pair_index[order].tolist(),
                    attempts[order].tolist())
        self.drawn = drawn
        self.frontier = self._first_min + drawn * self.cycle

    def _merge(self, times: List[float], pairs: List[int],
               attempts: List[int]) -> None:
        """Merge one sorted block into the tape, in place."""
        if not times:
            return
        tape_times, tape_pairs = self.times, self.pairs
        if not tape_times or (times[0], pairs[0]) > (tape_times[-1],
                                                     tape_pairs[-1]):
            tape_times.extend(times)
            tape_pairs.extend(pairs)
            self.attempts.extend(attempts)
            return
        # The block starts before the tail: re-sort the overlapping suffix.
        cut = bisect_left(tape_times, times[0])
        merged = sorted(zip(tape_times[cut:] + times, tape_pairs[cut:] + pairs,
                            self.attempts[cut:] + attempts))
        tape_times[cut:] = [entry[0] for entry in merged]
        tape_pairs[cut:] = [entry[1] for entry in merged]
        self.attempts[cut:] = [entry[2] for entry in merged]

    def ensure(self, threshold: float) -> None:
        """Draw until the tape is final at and below ``threshold``."""
        while self.frontier <= threshold:
            self._draw_block()

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

    def _bound_window(self, start: float) -> float:
        """Entries after ``start`` up to this time may fail the attempt bound."""
        return start + 2e-9 * self.cycle

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
        self.ensure(end + 1e-12)
        times = self.times
        low = bisect_right(times, start + 1e-12)
        high = bisect_right(times, end + 1e-12)
        if low == high:
            return range(low, high)
        edge = bisect_right(times, self._bound_window(start), low, high)
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

    def first_fresh_success(self, time: float,
                            excluded: Collection = ()) -> GenerationEvent:
        """Earliest success after ``time`` whose ``(pair, attempt)`` is not excluded.

        "After" has the interval semantics of :meth:`successes_between`;
        ties in time go to the lower pair.  Draws as far ahead as needed.
        """
        if not self._firsts:
            raise EntanglementError("no communication-qubit pairs to draw from")
        threshold = time + 1e-12
        self.ensure(threshold)
        times, pairs, attempts = self.times, self.pairs, self.attempts
        window = self._bound_window(time)
        index = bisect_right(times, threshold)
        while True:
            # An entry at the frontier could still tie with an undrawn
            # attempt of a lower pair; only entries below it are final.
            if index < len(times) and times[index] < self.frontier:
                if ((times[index] <= window and self._fails_bound(index, time))
                        or (pairs[index], attempts[index]) in excluded):
                    index += 1
                    continue
                return GenerationEvent(times[index], pairs[index],
                                       attempts[index])
            self._draw_block()

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
        index = bisect_left(self.times, completion)
        while index < len(self.times) and self.times[index] == completion:
            if (self.pairs[index] == pair_index
                    and self.attempts[index] == attempt_index):
                return True
            index += 1
        return False

    # ------------------------------------------------------------------
    def expected_rate(self) -> float:
        """Expected number of successes per time unit across all pairs."""
        return (
            self.schedule.num_pairs
            * self.success_probability
            / self.schedule.cycle_time
        )

    def expected_wait_for_next_success(self) -> float:
        """Mean waiting time for the next success from a random instant.

        With ``n`` pairs attempting continuously, successes form an
        approximately periodic thinned process of rate
        ``n * psucc / T_EG``; the mean residual waiting time is roughly half
        an inter-arrival period plus half a cycle of heralding alignment.
        Used only for analytical sanity checks and examples.
        """
        rate = self.expected_rate()
        if rate == 0:
            return float("inf")
        return 0.5 / rate + 0.5 * self.schedule.cycle_time / max(
            1, self.schedule.effective_groups
        )
