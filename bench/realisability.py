"""`realisability` workload: the orientation-state layer without geometry.

A round, on inputs built before set-up by the reference good-letter walk:
parse and classify WORDS_PER_N realisable words of WORD_LEN letters for
each n in 8, 16, 32; stable-project and format a noisy copy of each
(NOISE random letters inserted); run `kernel_witness` on one identity word
w.reverse(w) (w the first half of a walk word) and one odd-parity walk
word per n; run the square and tetra censuses at n=4, the exhaustive
commute census at n=5 and a sampled one (COMMUTE6_SAMPLES states) at n=6.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import reference as ref
from checks import Op, expect, gword

NS = (8, 16, 32)
WORDS_PER_N = 2
WORD_LEN = 200
NOISE = 40
COMMUTE6_SAMPLES = 64
CENSUSES = (("square4", 4, "square"), ("tetra4", 4, "tetra"),
            ("commute5", 5, "commute"), ("commute6", 6, "commute"))


def make_inputs(seed: int):
    """The seeded words, built with the reference code only (untimed)."""
    rng = random.Random(seed)
    words = []        # (n, letters, text)
    noisy = []        # (n, noisy letters)
    witness = []      # (n, letters, expected verdict)
    for n in NS:
        walks = [ref.good_letter_walk(n, WORD_LEN, rng) for _ in range(WORDS_PER_N)]
        letters = ref.triples(n)
        for w in walks:
            words.append((n, w, ref.format_word(n, w)))
            copy = list(w)
            for _ in range(NOISE):
                copy.insert(rng.randrange(len(copy) + 1), rng.choice(letters))
            noisy.append((n, tuple(copy)))
        # a prefix of a realisable word is realisable, and so is its
        # mirror after it: a letter's status ignores its own triple
        half = walks[0][: WORD_LEN // 2]
        odd = walks[-1]
        expect(bool(ref.odd_letters(odd)), f"n={n}: walk word has even parity")
        witness.append((n, half + half[::-1], "trivial-consistent"))
        witness.append((n, odd, "nontrivial-by-parity"))
    return words, noisy, witness, rng.randrange(2**32)


# reference results by input, computed at their first check; the run sets
# up a fresh Workload several times, and they all share this
EXPECTED = {}


class Workload:
    def __init__(self, tb, inputs, tracer):
        self.tb = tb
        self.tr = tracer
        self.words, noisy, witness, self.commute6_seed = inputs
        self.noisy = [(n, w, gword(tb, n, w)) for n, w in noisy]
        self.witness = [(n, gword(tb, n, w), verdict) for n, w, verdict in witness]

    def warm_up(self) -> None:
        n, _, text = self.words[0]
        self.classify(n, text)
        n, _, gw = self.noisy[0]
        self.project(n, gw)
        n, gw, _ = self.witness[1]
        self.kernel(n, gw)
        self.census(*CENSUSES[0])

    def round(self):
        for n, w, text in self.words:
            yield Op("classify", lambda n=n, t=text: self.classify(n, t),
                     lambda out, n=n, w=w: self.check_classify(n, w, out), len(w))
        for n, noisy, gw in self.noisy:
            yield Op("projection", lambda n=n, gw=gw: self.project(n, gw),
                     lambda out, n=n, w=noisy: self.check_projection(n, w, out))
        for n, gw, verdict in self.witness:
            yield Op("witness", lambda n=n, gw=gw: self.kernel(n, gw),
                     lambda out, v=verdict: self.check_witness(v, out))
        for name, n, lemma in CENSUSES:
            yield Op("census", lambda a=(name, n, lemma): self.census(*a),
                     lambda out, a=(name, n, lemma): self.check_census(*a, out),
                     self.total_rows(name, n))

    def report(self, tally):
        yield f"realisability.letters_classified_per_s {tally.rate('classify'):.6g} letters/s"
        yield f"realisability.projections_per_s {tally.rate('projection'):.6g} 1/s"
        yield f"realisability.witnesses_per_s {tally.rate('witness'):.6g} 1/s"
        yield f"realisability.census_rows_per_s {tally.rate('census'):.6g} rows/s"

    # -- operations -----------------------------------------------------------

    def classify(self, n: int, text: str):
        letters = len(text.split())
        with self.tr.span("group_core.parse_word", n=n, letters=letters):
            w = self.tb.parse_word(text, n)
        with self.tr.span("index_state.classify_word", n=n, letters=letters):
            return w, self.tb.classify_word(w)

    def project(self, n: int, gw):
        with self.tr.span("index_state.stable_projection", n=n, letters=len(gw)) as c:
            result, passes = self.tb.stable_projection(gw)
            c["passes"] = passes
        with self.tr.span("group_core.format_word", n=n, letters=len(result)):
            text = self.tb.format_word(result)
        return result, passes, text

    def kernel(self, n: int, gw):
        with self.tr.span("reconstruction.kernel_witness", n=n, letters=len(gw)):
            return self.tb.kernel_witness(gw)

    def census(self, name: str, n: int, lemma: str):
        with self.tr.span("index_state.relation_census", census=name) as c:
            report = self.tb.relation_census(
                n, lemma, samples=COMMUTE6_SAMPLES, seed=self.commute6_seed
            )
            c["rows"] = len(report.rows)
            c["violations"] = len(report.violations)
        return report

    # -- checks ---------------------------------------------------------------

    def check_classify(self, n, w, out) -> bool:
        gw, cw = out
        expect(tuple(g.elems for g in gw.letters) == w, f"n={n}: parsed word differs")
        if (n, w) not in EXPECTED:
            EXPECTED[n, w] = ref.word_centrals(n, w)[0]
        expect(
            [st.centrals for st in cw.statuses] == EXPECTED[n, w],
            f"n={n}: statuses differ from the reference",
        )
        return False

    def check_projection(self, n, noisy, out) -> bool:
        result, passes, text = out
        letters = tuple(g.elems for g in result.letters)
        expect(text == ref.format_word(n, letters), f"n={n}: format_word output differs")
        expect(ref.is_subsequence(letters, noisy), f"n={n}: projection is not a subsequence")
        expect(1 <= passes <= len(noisy) + 1, f"n={n}: {passes} passes for {len(noisy)} letters")
        if (n, letters) not in EXPECTED:
            EXPECTED[n, letters] = ref.is_realisable(n, letters)
        # realisable means no letter is bad, so one more pass keeps them all
        expect(EXPECTED[n, letters], f"n={n}: projection is not realisable (reference)")
        return False

    def check_witness(self, verdict, out) -> bool:
        expect(out.kind == verdict, f"kernel_witness gave {out.kind}, expected {verdict}")
        return False

    @staticmethod
    def total_rows(name, n) -> int:
        letters = ref.triples(n)
        if name == "square4":
            return 2 ** len(letters) * len(letters)
        if name == "tetra4":
            return 2 ** len(letters) * len(list(permutations(range(4))))
        far_pairs = sum(1 for a, b in combinations(letters, 2) if ref.far(a, b))
        states = 2 ** len(letters) if n == 5 else COMMUTE6_SAMPLES
        return states * far_pairs

    def check_census(self, name, n, lemma, report) -> bool:
        total = self.total_rows(name, n)
        expect(report.cases == len(report.rows) == total,
               f"{name}: {report.cases} cases, {len(report.rows)} rows, expected {total}")
        if lemma != "tetra":
            expect(report.ok, f"{name}: {len(report.violations)} violations")
            return False
        if name not in EXPECTED:
            EXPECTED[name] = self.tetra_reference(report)
        verdicts = EXPECTED[name]
        expect(len(verdicts) == len(report.rows)
               and all(verdicts.get((row.state, row.case)) == row.ok for row in report.rows),
               f"{name}: violations are not exactly the count-2 windows")
        return False

    @staticmethod
    def tetra_reference(report):
        """The reference verdict of every row: each window must have good
        count 2 or 4 on both sides, and a row holds exactly when it has 4."""
        verdicts = {}
        for row in report.rows:
            minus = ref.state_from_mask(4, row.state)
            tup = tuple(int(ch) for ch in row.case)
            lhs = tuple(tuple(sorted(set(tup) - {x})) for x in tup)
            left = sum(1 for c in ref.word_centrals(4, lhs, minus)[0] if c)
            right = sum(1 for c in ref.word_centrals(4, lhs[::-1], minus)[0] if c)
            expect(left in (2, 4) and right in (2, 4),
                   f"tetra window {row.case} at state {row.state}: good counts {left}, {right}")
            verdicts[row.state, row.case] = left == 4
        expect(set(verdicts.values()) == {True, False}, "tetra census has no count-2 or no count-4 window")
        return verdicts
