"""A fixed computation that measures the machine's speed next to each timing.

The benchmark runs on a few cores of a shared host whose speed changes by
10-30 % from second to second and by up to 1.5x for minutes at a time, and
the change reaches tribraid's code and any other Python code alike (the
process is not descheduled: its CPU time slows as much as its wall time).
So the runner follows every timed call with LAPS of a fixed piece of plain
Python and scales the call's time by NOMINAL_S over the median lap time
around it: the laps just before the call and the laps just after it.  A
scaled time is the time the call would take with the machine at the speed
it had when NOMINAL_S was measured, and a change to tribraid moves it just
as it moves the raw time, since a lap runs no tribraid code.

A lap does the three kinds of work the workloads do, on `reference.py`
alone: a relation-neighbourhood search over words (tuple building and
hashing, as in `bounded_equal`), letter statuses along a realisable word
(frozenset lookups, as in `classify_word`) and orientation tests on
`Fraction` points (as in the geometry).  The cyclic garbage collector is
paused during a lap, so that the size of tribraid's heap cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque
from fractions import Fraction
from itertools import combinations

import reference as ref

# a typical median time of one lap on the machine the benchmark was built
# on (Python 3.11, 2 shared cores), where single runs' medians ranged over
# 1.15-1.86 ms; it sets the scale of the scaled times, not their spread
NOMINAL_S = 0.00125
# laps after a timed call take at least this share of the call's time
SHARE = 0.15

_rng = random.Random(2210)
_LETTERS5 = ref.triples(5)
_WORD5 = tuple(_rng.choice(_LETTERS5) for _ in range(6))
_WALK8 = ref.good_letter_walk(8, 12, _rng)
_POINTS = [(Fraction(_rng.randint(-99, 99), _rng.randint(1, 50)),
            Fraction(_rng.randint(-99, 99), _rng.randint(1, 50))) for _ in range(8)]


def lap() -> None:
    seen = {_WORD5}
    queue = deque([_WORD5])
    for _ in range(3):
        word = queue.popleft()
        moves = [(ref.SQUARE_INSERT, p, g) for p in range(len(word) + 1) for g in _LETTERS5]
        moves += [(kind, p, None) for p in range(len(word) - 1)
                  for kind in (ref.SQUARE_DELETE, ref.FAR_COMMUTE)]
        for kind, pos, letter in moves:
            try:
                nxt = ref.rewrite(word, kind, pos, letter)
            except ValueError:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    ref.word_centrals(8, _WALK8)
    for p, q, r in combinations(_POINTS, 3):
        ref.orient(p, q, r)


def laps(seconds: float) -> list:
    """Times of laps run back to back until they add up to `seconds`
    (at least one lap)."""
    times = []
    total = 0.0
    gc.disable()
    try:
        while not times or total < seconds:
            start = time.perf_counter()
            lap()
            times.append(time.perf_counter() - start)
            total += times[-1]
    finally:
        gc.enable()
    return times


class Yardstick:
    """Scales each timed call by the laps on either side of it; the laps
    after one call are the laps before the next."""

    def __init__(self):
        self.before = laps(0.01)
        self.all = list(self.before)

    def scale(self, elapsed: float) -> float:
        after = laps(SHARE * elapsed)
        self.all += after
        scaled = elapsed * NOMINAL_S / statistics.median(self.before + after)
        self.before = after
        return scaled

    def speed(self) -> float:
        """The machine's speed over the run, relative to nominal."""
        return NOMINAL_S / statistics.median(self.all)
