"""Shared word/state builders for the test suite."""

import random

from tribraid import GWord, GenTriple, all_generators, flip, initial_state, letter_status


def word(n, *triples):
    return GWord(n, tuple(GenTriple(n, t) for t in triples))


def random_word(rng: random.Random, n: int, max_len: int) -> GWord:
    gens = all_generators(n)
    return GWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len))))


def good_walk(rng: random.Random, n: int, length: int) -> GWord:
    """A realisable word: each step draws generators until one is good at
    the running state, and appends it."""
    gens = all_generators(n)
    s = initial_state(n)
    letters = []
    for _ in range(length):
        g = rng.choice(gens)
        while not letter_status(s, g).good:
            g = rng.choice(gens)
        letters.append(g)
        s = flip(s, g)
    return GWord(n, tuple(letters))
