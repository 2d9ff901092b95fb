"""Shared word/state builders for the test suite."""

import random
from collections import Counter, deque
from itertools import combinations

from tribraid import (
    NONTRIVIAL_BY_LINKING,
    NONTRIVIAL_BY_PARITY,
    TRIVIAL_CONSISTENT,
    Configuration,
    EqualityVerdict,
    GWord,
    GenTriple,
    KernelVerdict,
    MoveKind,
    NotRealisable,
    OrientationState,
    RelationMove,
    SearchStats,
    all_generators,
    applicable_moves,
    apply_move,
    classify_word,
    generator_ranks,
    initial_cyclic_order,
    orientation,
)
from tribraid import group_core
from tribraid.index_state import _central
from tribraid.reconstruction import _swaps

Triple = tuple[int, int, int]


def all_triples(n: int) -> list[Triple]:
    return list(combinations(range(1, n + 1), 3))


def signed_index(s: OrientationState, i: int, j: int, k: int) -> int:
    """Sign of the ordered triple (i,j,k) of distinct strands, checked as a
    generator's are: antisymmetric in its arguments."""
    elems = GenTriple(s.n, (i, j, k)).elems
    odd = (i > j) ^ (i > k) ^ (j > k)
    return -s.value(elems) if odd else s.value(elems)


def configuration_state(c: Configuration) -> OrientationState:
    """The orientation state a configuration realises.

    A compiled word is realisable when classified from the state of its
    program's initial configuration; programs starting at the regular
    configuration realise the all-plus initial state.
    """
    minus = sum(
        1 << b
        for b, t in enumerate(all_triples(c.n))
        if orientation(c.point(t[0]), c.point(t[1]), c.point(t[2])) < 0
    )
    return OrientationState(c.n, minus)


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


def encode(w: GWord) -> str:
    """The search's form of a word: one code point per letter, the
    generator's index in lexicographic order (`generator_ranks`)."""
    first, second = generator_ranks(w.n)
    return "".join(chr(first[i] - second[j] + k) for i, j, k in (g.elems for g in w.letters))


def _squared(longer: str, p: int, shorter: str) -> bool:
    """True when `longer` is `shorter` with a square inserted at p."""
    return longer[p] == longer[p + 1] and longer[:p] + longer[p + 2 :] == shorter


def first_move(n: int, prev: str, word: str) -> RelationMove:
    """The first move, in enumeration order, that rewrites `prev` into
    `word` (as `encode` writes words), one move away, found by trying each
    position in turn: `bounded_equal`'s path steps must match it.  A swap
    or tetrahedron window fits only at the first letter that differs;
    deletions and insertions of a repeated letter may fit at several
    positions, and an insertion at p can only be of word[p]."""
    if len(word) < len(prev):
        p = next(p for p in range(len(prev) - 1) if _squared(prev, p, word))
        return RelationMove(MoveKind.SQUARE_DELETE, p)
    if len(word) > len(prev):
        p = next(p for p in range(len(prev) + 1) if _squared(word, p, prev))
        return RelationMove(MoveKind.SQUARE_INSERT, p, all_generators(n)[ord(word[p])])
    p = next(p for p, (a, b) in enumerate(zip(prev, word)) if a != b)
    kind = MoveKind.FAR_COMMUTE if prev[p + 2 :] == word[p + 2 :] else MoveKind.TETRA_REVERSE
    return RelationMove(kind, p)


def reference_equal(w1: GWord, w2: GWord, depth: int, max_len: int) -> EqualityVerdict:
    """`bounded_equal` as a per-word search: every neighbour, square
    insertions included, is built, hashed and stored one by one, and the
    letter cap is read from `group_core.MAX_STORED_LETTERS` at the call.
    The library's search must return the same verdict, path and stats."""
    n = w1.n
    start, goal = encode(w1), encode(w2)
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


def dense_deviating_pair(start, order, sums):
    """`_deviating_pair` as it was when it read the sum of every pair: the
    oracle for reading only the pairs that swapped."""
    moved = min(((src, dst) for src, dst in zip(start, order) if src != dst), default=None)
    if moved:
        return tuple(sorted(moved))
    pairs = list(combinations(sorted(start), 2))
    values = [sums.get(pair, 0) for pair in pairs]
    counts = Counter(values)
    if len(counts) == 1:
        return None if values[0] % 2 == 0 else pairs[0]
    mode = max(counts.items(), key=lambda kv: (kv[1], -abs(kv[0])))[0]
    return next(pair for pair, value in zip(pairs, values) if value != mode)


def reference_kernel_witness(w: GWord) -> tuple[KernelVerdict, str]:
    """`kernel_witness` as it was before its ray orders kept each strand's
    slot: a list order per axis searched with `list.index`, a `Counter` of
    signed swap sums keyed by pair per axis, and every axis judged by
    `dense_deviating_pair`.  Also returns the route of the verdict:
    "parity", "moved slot", "off the mode", "odd common sum" or "all even"
    (every axis has one common even sum and no slot moved)."""
    cw = classify_word(w)
    if not cw.realisable:
        raise NotRealisable("kernel witness requires a realisable word")
    if cw.final_state.minus:
        return KernelVerdict(NONTRIVIAL_BY_PARITY), "parity"
    axes = range(1, w.n + 1)
    orders = {axis: list(initial_cyclic_order(w.n, axis)) for axis in axes}
    sums = {axis: Counter() for axis in axes}
    for axis, inner, outer, sign in _swaps(cw, axes):
        order = orders[axis]
        pa, pb = order.index(inner), order.index(outer)
        assert abs(pa - pb) == 1 or {pa, pb} == {0, len(order) - 1}, (axis, order, inner, outer)
        order[pa], order[pb] = order[pb], order[pa]
        sums[axis][min(inner, outer), max(inner, outer)] += sign
    for axis in axes:
        start = initial_cyclic_order(w.n, axis)
        pair = dense_deviating_pair(start, orders[axis], sums[axis])
        if pair:
            if orders[axis] != list(start):
                route = "moved slot"
            elif len({sums[axis][p] for p in combinations(sorted(start), 2)}) == 1:
                route = "odd common sum"
            else:
                route = "off the mode"
            return KernelVerdict(NONTRIVIAL_BY_LINKING, axis, pair), route
    return KernelVerdict(TRIVIAL_CONSISTENT), "all even"
