"""Shared word/state builders for the test suite."""

import random

from tribraid import (
    GWord,
    GenTriple,
    OrientationState,
    all_generators,
    generator_ranks,
    signed_index,
)
from tribraid.index_state import _central


def word(n, *triples):
    return GWord(n, tuple(GenTriple(n, t) for t in triples))


def random_word(rng: random.Random, n: int, max_len: int) -> GWord:
    gens = all_generators(n)
    return GWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len))))


def good_walk(rng: random.Random, n: int, length: int) -> GWord:
    """A realisable word: each step draws generators until one is good at
    the running state, and appends it.  The walk carries the pair rows of
    the running state, as `classify_word` does, so a draw is read in O(1)."""
    gens = all_generators(n)
    full = (2 << n) - 2
    rows = {}  # (x, y) -> the row of pair x<y: bit p is the bit of {x,y,p}
    letters = []
    for _ in range(length):
        while True:
            g = rng.choice(gens)
            i, j, k = g.elems
            ij, ik, jk = rows.get((i, j), 0), rows.get((i, k), 0), rows.get((j, k), 0)
            if _central(ij, ik, jk, full, i, j, k):
                break
        letters.append(g)
        rows[i, j], rows[i, k], rows[j, k] = ij ^ 1 << k, ik ^ 1 << j, jk ^ 1 << i
    return GWord(n, tuple(letters))


def gap_table(gap: int) -> tuple[int, ...]:
    """The centrals one outside strand p admits, read from the definition.

    p lies in gap `gap` of the letter i<j<k (that many of i, j, k are below
    p).  Entry `key` is for the state where {i,j,p}, {i,k,p} and {j,k,p}
    carry -1 as bits 0, 1 and 2 of `key` say; it is a bitset over the
    centrals (bit 0: i, bit 1: j, bit 2: k).  Only these three triples and
    the order of i, j, k, p enter the central conditions, so the tables at
    n=4 hold for every n.
    """
    p = gap + 1
    i, j, k = (e for e in (1, 2, 3, 4) if e != p)
    first, second = generator_ranks(4)
    triples = [sorted(pair + (p,)) for pair in ((i, j), (i, k), (j, k))]
    bits = [first[a] - second[b] + c for a, b, c in triples]
    table = []
    for key in range(8):
        s = OrientationState(4, sum(1 << t for b, t in enumerate(bits) if key >> b & 1))
        entry = 0
        for bit, (c, x, y) in enumerate(((i, j, k), (j, i, k), (k, i, j))):
            if signed_index(s, x, c, p) == signed_index(s, x, y, p) == signed_index(s, c, y, p):
                entry |= 1 << bit
        table.append(entry)
    return tuple(table)


GAP_TABLES = tuple(gap_table(gap) for gap in range(4))
