"""Shared word/state builders for the test suite."""

import random
from collections import Counter, deque

from tribraid import (
    EqualityVerdict,
    GWord,
    GenTriple,
    MoveKind,
    OrientationState,
    RelationMove,
    SearchStats,
    all_generators,
    applicable_moves,
    apply_move,
    generator_ranks,
    signed_index,
)
from tribraid import group_core
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


def reference_equal(w1: GWord, w2: GWord, depth: int, max_len: int) -> EqualityVerdict:
    """`bounded_equal` as a per-word search: every neighbour, square
    insertions included, is built, hashed and stored one by one, and the
    letter cap is read from `group_core.MAX_STORED_LETTERS` at the call.
    The library's search must return the same verdict, path and stats."""
    n = w1.n
    first, second = generator_ranks(n)
    start, goal = (
        "".join(chr(first[i] - second[j] + k) for i, j, k in (g.elems for g in w.letters))
        for w in (w1, w2)
    )
    odd = {c for c, count in Counter(start).items() if count % 2}
    if odd != {c for c, count in Counter(goal).items() if count % 2}:
        return EqualityVerdict.distinct("parity mismatch", SearchStats(0, 0, 0, "parity"))
    if start == goal:
        return EqualityVerdict.equal((), SearchStats(0, 0, 0, "identical"))
    gens = all_generators(n)
    masks = [sum(1 << s for s in g.elems) for g in gens]
    doubled = [chr(c) * 2 for c in range(len(gens))]

    def neighbours(word):
        length = len(word)
        for p in range(length - 1):
            if word[p] == word[p + 1]:
                yield word[:p] + word[p + 2 :]
        m = [masks[ord(x)] for x in word]
        for p in range(length - 1):
            shared = m[p] & m[p + 1]
            if not shared & (shared - 1):
                yield word[:p] + word[p + 1] + word[p] + word[p + 2 :]
        for p in range(length - 3):
            a, b, c, d = m[p : p + 4]
            if len({a, b, c, d}) == 4 and (a | b | c | d).bit_count() == 4:
                yield word[:p] + word[p : p + 4][::-1] + word[p + 4 :]
        if length + 2 <= max_len:
            for p in range(length + 1):
                for pair in doubled:
                    yield word[:p] + pair + word[p:]

    def chain(parents, word):
        out = [word]
        while parents[out[-1]] is not None:
            out.append(parents[out[-1]])
        return out

    def move(prev, word):
        # the first public move, in enumeration order, that rewrites prev
        # into word; insertions come by position and then by generator
        if len(word) > len(prev):
            p = next(p for p in range(len(word)) if prev[:p] + word[p] * 2 + prev[p:] == word)
            return RelationMove(MoveKind.SQUARE_INSERT, p, gens[ord(word[p])])
        before, after = (GWord(n, tuple(gens[ord(x)] for x in w)) for w in (prev, word))
        return next(m for m in applicable_moves(before) if apply_move(before, m) == after)

    fore, back = {start: None}, {goal: None}
    fore_queue, back_queue = deque([start]), deque([goal])
    expanded, peak, letters = 0, 2, len(start) + len(goal)

    def stats(stop):
        frontier = max(peak, len(fore_queue) + len(back_queue))
        return SearchStats(expanded, len(fore) + len(back), frontier, stop)

    while fore_queue and back_queue and expanded < depth:
        if len(fore_queue) <= len(back_queue):
            parents, other, queue = fore, back, fore_queue
        else:
            parents, other, queue = back, fore, back_queue
        word = queue.popleft()
        expanded += 1
        for nxt in neighbours(word):
            if nxt in parents:
                continue
            parents[nxt] = word
            letters += len(nxt)
            if nxt in other:
                path = chain(fore, nxt)[::-1] + chain(back, nxt)[1:]
                moves = tuple(move(*step) for step in zip(path, path[1:]))
                return EqualityVerdict.equal(moves, stats("found"))
            if letters > group_core.MAX_STORED_LETTERS:
                return EqualityVerdict.unknown(stats("limit"))
            queue.append(nxt)
        peak = max(peak, len(fore_queue) + len(back_queue))
    return EqualityVerdict.unknown(stats("depth" if fore_queue and back_queue else "exhausted"))
