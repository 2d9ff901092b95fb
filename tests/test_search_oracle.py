"""The block search of `bounded_equal` against the per-word search it
replaced (`reference_equal` in helpers): the same verdict, path, witness
and stats on every pair."""

import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import random_word, reference_equal
from tribraid import GWord, GenTriple, applicable_moves, apply_move, bounded_equal, group_core


def same_search(w1, w2, depth, max_len):
    v, r = bounded_equal(w1, w2, depth, max_len), reference_equal(w1, w2, depth, max_len)
    assert (v, v.stats) == (r, r.stats), (str(w1), str(w2), depth, max_len)
    return v


def equality_corpus(seed):
    """The pairs of the `equality` benchmark for `seed`, rebuilt here:
    the benchmark's corpus (seed 2210; random words at n=4..6, each with a
    copy moved by random relations, two pairs per n given an extra letter),
    each pair relabelled and perhaps reversed by `seed`.  Returns (n, w1,
    w2, equal by construction, max_len) per pair."""
    rng = random.Random(2210)
    corpus = []
    for n, pairs, (base, moves) in ((4, 60, (4, 6)), (5, 80, (6, 8)), (6, 120, (6, 8))):
        letters = list(combinations(range(1, n + 1), 3))
        for k in range(pairs + 2):
            w1 = tuple(rng.choice(letters) for _ in range(base))
            w2 = relation_walk(w1, moves, rng, letters, base + 4)
            if k >= pairs:
                w2 += (rng.choice(letters),)
            if rng.random() < 0.5:
                w1, w2 = w2, w1
            corpus.append((n, w1, w2, k < pairs, base + 4))
    rng = random.Random(seed)
    for n, w1, w2, equal, max_len in corpus:
        relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        w1, w2 = (tuple(tuple(sorted(relabel[s] for s in g)) for g in w) for w in (w1, w2))
        if rng.random() < 0.5:
            w1, w2 = w1[::-1], w2[::-1]
        yield n, w1, w2, equal, max_len


def relation_walk(word, k, rng, letters, max_len):
    """k relation moves on a tuple of triples, each a kind drawn uniformly
    among those that apply (in name order: del, ins, swap, tetra), then a
    position, and a letter for an insertion."""
    for _ in range(k):
        far = [p for p in range(len(word) - 1) if len(set(word[p]) & set(word[p + 1])) <= 1]
        tetra = [
            p
            for p in range(len(word) - 3)
            if len(set(word[p : p + 4])) == 4 and len(set().union(*word[p : p + 4])) == 4
        ]
        options = {
            "del": [p for p in range(len(word) - 1) if word[p] == word[p + 1]],
            "ins": list(range(len(word) + 1)) if len(word) + 2 <= max_len else [],
            "swap": far,
            "tetra": tetra,
        }
        kind = rng.choice([kind for kind in sorted(options) if options[kind]])
        p = rng.choice(options[kind])
        if kind == "del":
            word = word[:p] + word[p + 2 :]
        elif kind == "ins":
            g = rng.choice(letters)
            word = word[:p] + (g, g) + word[p:]
        elif kind == "swap":
            word = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
        else:
            word = word[:p] + word[p : p + 4][::-1] + word[p + 4 :]
    return word


def gword(n, triples):
    return GWord(n, tuple(GenTriple(n, t) for t in triples))


@pytest.mark.parametrize("seed, proven", [(1, 246), (2, 247), (3, 246)])
def test_equality_corpus(seed, proven):
    # the benchmark reads `equality.proven` as the distinct pairs proven
    pairs = {}
    for n, w1, w2, equal, max_len in equality_corpus(seed):
        v = same_search(gword(n, w1), gword(n, w2), 30, max_len)
        assert v.is_distinct != equal
        pairs[w1, w2] = v.is_equal
    assert sum(pairs.values()) == proven


def seeded_pairs(count, seed):
    """(w1, w2, depth, max_len) at n=4..9: a random word on a few strands,
    which makes relations common, and the same word after 1 to 6 relation
    moves (an insertion, or else any other move that applies, 7 in 10), one
    pair in 20 with a letter appended (a parity pair); depth is log-uniform
    in 0..1,000 and max_len uniform in 0..14."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 9)
        strands = sorted(rng.sample(range(1, n + 1), rng.randint(4, n)))
        gens = [GenTriple(n, c) for c in combinations(strands, 3)]
        w1 = GWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 8))))
        w2 = w1
        for _ in range(rng.randint(1, 6)):
            moves = applicable_moves(w2)
            if moves and rng.random() < 0.7:
                w2 = apply_move(w2, rng.choice(moves))
            else:
                p, g = rng.randint(0, len(w2)), rng.choice(gens)
                w2 = GWord(n, w2.letters[:p] + (g, g) + w2.letters[p:])
        if rng.random() < 0.05:
            w2 = GWord(n, w2.letters + (rng.choice(gens),))
        if rng.random() < 0.5:
            w1, w2 = w2, w1
        yield w1, w2, int(1001 ** rng.random()) - 1, rng.randint(0, 14)


def test_seeded_pairs():
    stops = Counter()
    for w1, w2, depth, max_len in seeded_pairs(4_000, 2301):
        stops[same_search(w1, w2, depth, max_len).stats.stop] += 1
    assert all(stops[stop] > 100 for stop in ("found", "depth", "exhausted", "identical", "parity"))


@pytest.mark.parametrize("cap", [200, 2_000, 20_000])
def test_under_a_letter_cap(monkeypatch, cap):
    # the cap is crossed by explicit words and inside blocks, at every size
    monkeypatch.setattr(group_core, "MAX_STORED_LETTERS", cap)
    stops = Counter()
    for n, w1, w2, _, max_len in equality_corpus(cap):
        stops[same_search(gword(n, w1), gword(n, w2), 30, max_len).stats.stop] += 1
    for w1, w2, _, max_len in seeded_pairs(500, cap):
        stops[same_search(w1, w2, 1000, max_len).stats.stop] += 1
    assert stops["limit"] > 10
