"""Shared word/state builders for the test suite."""

import random

from tribraid import GWord, GenTriple, all_generators
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
