"""`equality` workload: bounded relation-path search, no geometry.

A round runs `bounded_equal` on PAIRS[n] word pairs for each n in 4..6.
Each pair is a random word and the same word after random relation moves
applied by the reference rewriter, so it is equal by construction;
PARITY_PAIRS_PER_N more pairs get one extra letter appended to one word,
so their parities differ.  With DEPTH expansions most pairs at n=4 are
proven and about half at n=5 and n=6 end `unknown`, which is a valid
outcome.

Whether a pair is proven within the budget varies a lot from pair to pair,
and an `unknown` costs the whole budget, so pairs drawn afresh for every
seed would make the round's cost follow a binomial count.  The pairs
therefore come from one fixed corpus, and the seed draws an isomorphic
copy of each pair: a random relabelling of the strands and a reversal of
both words, drawn for every pair apart.  Both preserve every relation,
hence each pair's relation distance, and the number of moves that apply to
every word, while the words themselves change.  Which side the search
starts from is fixed by the corpus, because it sets the search's cost:
starting from the longer word leaves fewer insertions within `max_len`.
"""

from __future__ import annotations

import random

import reference as ref
from checks import CheckFailure, Op, expect, gword

NS = (4, 5, 6)
PAIRS = {4: 60, 5: 80, 6: 120}
PARITY_PAIRS_PER_N = 2
# (base word length, relation moves) per n; words may grow to base + 4
SHAPES = {4: (4, 6), 5: (6, 8), 6: (6, 8)}
DEPTH = 30
CORPUS_SEED = 2210


def corpus():
    """(n, w1, w2, equal by construction) for every pair, before relabelling."""
    rng = random.Random(CORPUS_SEED)
    pairs = []
    for n in NS:
        letters = ref.triples(n)
        base, moves = SHAPES[n]
        for k in range(PAIRS[n] + PARITY_PAIRS_PER_N):
            w1 = tuple(rng.choice(letters) for _ in range(base))
            w2 = ref.random_relation_moves(n, w1, moves, rng, base + 4)
            if k >= PAIRS[n]:
                w2 += (rng.choice(letters),)
            if rng.random() < 0.5:
                w1, w2 = w2, w1
            pairs.append((n, w1, w2, k < PAIRS[n]))
    return pairs


def make_inputs(seed: int):
    """The seeded isomorphic copy of the corpus (untimed)."""
    rng = random.Random(seed)
    pairs = []
    for n, w1, w2, equal in corpus():
        relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        w1, w2 = (tuple(tuple(sorted(relabel[s] for s in g)) for g in w) for w in (w1, w2))
        if rng.random() < 0.5:
            w1, w2 = w1[::-1], w2[::-1]
        pairs.append((n, w1, w2, equal))
    return pairs


class Workload:
    def __init__(self, tb, inputs, tracer):
        self.tb = tb
        self.tr = tracer
        self.proven = set()  # pairs whose `equal` path replays
        self.pairs = [
            (n, w1, w2, equal, gword(tb, n, w1), gword(tb, n, w2))
            for n, w1, w2, equal in inputs
        ]

    def warm_up(self) -> None:
        n, _, _, _, g1, g2 = self.pairs[0]
        self.search(n, g1, g2)

    def round(self):
        for n, w1, w2, equal, g1, g2 in self.pairs:
            yield Op(
                "search",
                lambda n=n, g1=g1, g2=g2: self.search(n, g1, g2),
                lambda out, w1=w1, w2=w2, equal=equal: self.check(w1, w2, equal, out),
            )

    def report(self, tally):
        yield f"equality.searches_per_s {tally.rate('search'):.6g} 1/s"
        yield f"equality.proven {len(self.proven)} pairs"

    def search(self, n, g1, g2):
        with self.tr.span("group_core.bounded_equal", n=n) as c:
            verdict = self.tb.bounded_equal(g1, g2, depth=DEPTH, max_len=SHAPES[n][0] + 4)
            c["verdict"] = verdict.status
        return verdict

    def check(self, w1, w2, equal, verdict) -> bool:
        if not equal:
            expect(verdict.is_distinct, f"{w1} vs {w2}: parity differs but verdict {verdict.status}")
            return False
        expect(not verdict.is_distinct, f"{w1} vs {w2}: equal by construction, called distinct")
        if verdict.is_equal:
            word = w1
            for m in verdict.path:
                letter = m.letter.elems if m.letter is not None else None
                try:
                    word = ref.rewrite(word, m.kind.value, m.position, letter)
                except ValueError as exc:
                    raise CheckFailure(f"{w1} -> {w2}: path does not replay: {exc}") from exc
            expect(word == w2, f"{w1} -> {w2}: path ends at {word}")
            self.proven.add((w1, w2))
        return False
