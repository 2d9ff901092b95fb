import hashlib
import random
import tracemalloc
from itertools import combinations, permutations
from math import comb

import pytest

from helpers import GAP_TABLES, all_triples, good_walk, random_word, signed_index, word
from tribraid import (
    BadTriple,
    CensusRow,
    DimensionMismatch,
    FullTwistMove,
    GWord,
    GenTriple,
    InvalidBudget,
    InvalidMove,
    InvalidN,
    LetterStatus,
    MoveKind,
    OrientationState,
    UnsupportedN,
    all_generators,
    applicable_moves,
    apply_move,
    classify_word,
    enumerate_states,
    far_commutes,
    generator_ranks,
    initial_state,
    is_realisable,
    letter_status,
    project_once,
    relation_census,
    run_word,
    stable_projection,
    tetra_letters,
)
from tribraid import index_state
from tribraid.index_state import (
    _columns,
    _flipped,
    _sliced_centrals,
    commute_census_rows,
)


class TestInitialState:
    def test_all_plus_for_n4(self):
        s = initial_state(4)
        for t in combinations(range(1, 5), 3):
            assert s.value(t) == 1

    def test_ordered_lookups(self):
        assert signed_index(initial_state(5), 2, 1, 3) == -1
        assert signed_index(initial_state(4), 2, 3, 1) == 1

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            initial_state(3)


class TestSignedIndex:
    def test_full_antisymmetry(self):
        s = initial_state(5)
        base = {(i, j, k): signed_index(s, i, j, k) for i, j, k in permutations(range(1, 6), 3)}
        for (i, j, k), v in base.items():
            assert base[(j, k, i)] == v
            assert base[(j, i, k)] == -v

    def test_bad_arguments(self):
        s = initial_state(4)
        with pytest.raises(BadTriple):
            signed_index(s, 1, 1, 2)
        with pytest.raises(BadTriple):
            signed_index(s, 1, 2, 5)

    @pytest.mark.parametrize(
        "read, args",
        [
            ("value", ((1, 2, 3.0),)),
            ("value", (5,)),
            ("value", ((True, 2, 3),)),
            ("signed_index", (1, 2, 3.0)),
            ("signed_index", ("1", 2, 3)),
            ("signed_index", (True, 2, 3)),
        ],
    )
    def test_only_int_strands(self, read, args):
        # as for GenTriple, a bool, a float or a str is not a strand
        s = initial_state(4)
        with pytest.raises(BadTriple):
            s.value(*args) if read == "value" else signed_index(s, *args)


class TestFlip:
    def test_flips_exactly_one_entry(self):
        s = run_word(initial_state(4), GWord(4, (GenTriple(4, (1, 2, 3)),)))
        assert s.value((1, 2, 3)) == -1
        assert s.value((1, 2, 4)) == s.value((1, 3, 4)) == s.value((2, 3, 4)) == 1

    def test_involution(self):
        g = GenTriple(4, (1, 2, 3))
        once = run_word(initial_state(4), GWord(4, (g,)))
        assert once != initial_state(4)
        assert run_word(once, GWord(4, (g,))) == initial_state(4)

    def test_untouched_triple(self):
        s = run_word(initial_state(4), GWord(4, (GenTriple(4, (1, 2, 4)),)))
        assert s.value((1, 3, 4)) == 1

    def test_dimension_mismatch(self):
        g = GenTriple(4, (1, 2, 3))
        with pytest.raises(DimensionMismatch):
            run_word(initial_state(5), GWord(4, (g,)))
        with pytest.raises(DimensionMismatch):
            letter_status(initial_state(5), g)
        with pytest.raises(DimensionMismatch):
            classify_word(GWord(4, (g,)), start=initial_state(5))


class TestRunWord:
    def test_empty_word_identity(self):
        s = initial_state(4)
        assert run_word(s, GWord(4)) == s

    def test_tetra_sides_same_end_state(self):
        for s in enumerate_states(4):
            for tup in permutations((1, 2, 3, 4)):
                lhs = GWord(4, tetra_letters(4, tup))
                rhs = GWord(4, tuple(reversed(lhs.letters)))
                assert run_word(s, lhs) == run_word(s, rhs)


class TestLetterStatus:
    def test_initial_a123_central_2(self):
        st = letter_status(initial_state(4), GenTriple(4, (1, 2, 3)))
        assert st.centrals == frozenset({2}) and st.good

    def test_initial_a134_central_4(self):
        st = letter_status(initial_state(4), GenTriple(4, (1, 3, 4)))
        assert st.centrals == frozenset({4})

    def test_a123_bad_after_a134(self):
        s = run_word(initial_state(4), GWord(4, (GenTriple(4, (1, 3, 4)),)))
        st = letter_status(s, GenTriple(4, (1, 2, 3)))
        assert st.centrals == frozenset() and not st.good and st.central == 0

    def test_one_central_or_none(self):
        assert LetterStatus(2).centrals == frozenset({2}) and LetterStatus(2).good
        assert LetterStatus(0).centrals == frozenset() and not LetterStatus(0).good
        # the set is a view of the central: it cannot be set apart from it
        with pytest.raises(AttributeError):
            LetterStatus(2).centrals = frozenset({3})

    def test_status_unchanged_by_own_flip(self):
        # the central conditions only read triples containing an outside strand
        for s in enumerate_states(4):
            for g in all_generators(4):
                assert letter_status(s, g) == letter_status(run_word(s, GWord(4, (g,))), g)

    def test_centrals_always_at_most_one(self):
        # per outside strand the three central conditions are mutually exclusive
        for s in enumerate_states(4):
            for g in all_generators(4):
                assert len(letter_status(s, g).centrals) <= 1
        rng = random.Random(3)
        gens5 = all_generators(5)
        states5 = list(enumerate_states(5))
        for _ in range(500):
            s = rng.choice(states5)
            assert len(letter_status(s, rng.choice(gens5)).centrals) <= 1


class TestBitmaskOracle:
    """The mask-native code against the sign-by-sign definition."""

    NS = (*range(4, 13), 16, 32)

    @staticmethod
    def random_mask(rng, width):
        if rng.random() < 0.5:
            return rng.randrange(1 << width)
        # few minus signs leave most letters good
        mask = 0
        for _ in range(rng.randrange(4)):
            mask |= 1 << rng.randrange(width)
        return mask

    @staticmethod
    def reference_centrals(s, g):
        i, j, k = g.elems
        outside = [p for p in range(1, s.n + 1) if p not in g.elems]
        return {
            c
            for c, x, y in ((i, j, k), (j, i, k), (k, i, j))
            if all(
                signed_index(s, x, c, p) == signed_index(s, x, y, p) == signed_index(s, c, y, p)
                for p in outside
            )
        }

    def test_letter_status_matches_definition(self):
        rng = random.Random(41)
        for n in self.NS:
            triples = list(combinations(range(1, n + 1), 3))
            gens = all_generators(n)
            for _ in range(200):
                mask = self.random_mask(rng, len(triples))
                s = OrientationState(n, mask)
                for b in rng.sample(range(len(triples)), 3):
                    assert s.value(triples[b]) == (-1 if mask >> b & 1 else 1)
                g = rng.choice(gens)
                assert letter_status(s, g).centrals == self.reference_centrals(s, g)

    def test_run_word_is_xor_fold(self):
        rng = random.Random(43)
        for n in self.NS:
            rank = {t: b for b, t in enumerate(combinations(range(1, n + 1), 3))}
            for _ in range(20):
                mask = self.random_mask(rng, len(rank))
                w = random_word(rng, n, 30)
                expected = mask
                for g in w.letters:
                    expected ^= 1 << rank[g.elems]
                assert run_word(OrientationState(n, mask), w).minus == expected
                cw = classify_word(w, start=OrientationState(n, mask))
                assert cw.final_state.minus == expected

    def test_classify_word_matches_definition(self):
        # every letter at its prefix state, from random starts; random
        # letters are mostly bad, and three consecutive strands mostly good
        # near the all-plus state
        rng = random.Random(47)

        def letter(n):
            if rng.random() < 0.5:
                return GenTriple(n, tuple(rng.sample(range(1, n + 1), 3)))
            i = rng.randrange(1, n - 1)
            return GenTriple(n, (i, i + 1, i + 2))

        for n in self.NS:
            seen = set()
            for t in range(6):
                width = comb(n, 3)
                mask = rng.getrandbits(width) if t % 2 else 1 << rng.randrange(width)
                cur = start = OrientationState(n, mask)
                w = GWord(n, tuple(letter(n) for _ in range(12)))
                cw = classify_word(w, start=start)
                for g, st in zip(w.letters, cw.statuses):
                    assert st.centrals == self.reference_centrals(cur, g)
                    seen.add(st.good)
                    cur = run_word(cur, GWord(n, (g,)))
                assert cw.final_state == cur
            assert seen == {True, False}

    def test_gap_tables_give_the_row_rule(self):
        # the tables read the definition (tests/helpers.py); each (gap,
        # central) entry admits one complementary key pair {κ, 7-κ}, so
        # outside strand p reads only x_p = κ0 ^ κ1 and y_p = κ1 ^ κ2, and
        # these are the targets of `_central`'s rule, which the census
        # kernel applies too, by the region p lies in (gap 0 or 3: O, 1: G1,
        # 2: G2)
        regions = ("O", "G1", "G2", "O")
        targets = {  # central bit: (X, Y) as unions of regions
            0: ({"O", "G1"}, {"G1"}),
            1: ({"G2"}, {"G1"}),
            2: ({"G2"}, {"O", "G2"}),
        }
        for gap, table in enumerate(GAP_TABLES):
            for bit, (x_target, y_target) in targets.items():
                keys = [key for key in range(8) if table[key] >> bit & 1]
                assert len(keys) == 2 and sum(keys) == 7
                kappa = keys[0]
                assert (kappa ^ kappa >> 1) & 1 == (regions[gap] in x_target)
                assert (kappa >> 1 ^ kappa >> 2) & 1 == (regions[gap] in y_target)

    def test_gap_tables_admit_at_most_one_central(self):
        # by the definition, the status is the AND of these entries over
        # the outside strands, so a letter never admits two centrals
        assert len(GAP_TABLES) == 4
        for table in GAP_TABLES:
            assert len(table) == 8
            for entry in table:
                assert 0 <= entry < 8 and entry & (entry - 1) == 0

    def test_value_rejects_unsorted_or_out_of_range(self):
        s = initial_state(4)
        for bad in ((2, 1, 3), (1, 1, 2), (0, 1, 2), (2, 3, 5), (1, 2)):
            with pytest.raises(BadTriple):
                s.value(bad)


class TestClassifyWord:
    def test_good_then_bad(self):
        cw = classify_word(word(4, (1, 3, 4), (1, 2, 3)))
        assert [st.good for st in cw.statuses] == [True, False]
        assert cw.statuses[0].centrals == frozenset({4})
        assert not cw.realisable

    def test_doubled_letter_both_good(self):
        cw = classify_word(word(4, (1, 2, 3), (1, 2, 3)))
        assert all(st.good for st in cw.statuses)
        assert cw.statuses[0] == cw.statuses[1]

    def test_empty_word_realisable(self):
        cw = classify_word(GWord(4))
        assert cw.realisable and cw.statuses == ()

    def test_keeps_no_state_per_letter(self):
        # one prefix state is a C(n,3)-bit mask, about 10 KB at n = 80; 300
        # letters must not keep 300 of them
        n, length = 80, 300
        rng = random.Random(11)
        w = GWord(
            n,
            tuple(GenTriple(n, tuple(rng.sample(range(1, n + 1), 3))) for _ in range(length)),
        )
        tracemalloc.start()
        try:
            classify_word(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * comb(n, 3) // 8


class TestProjection:
    def test_single_pass_drops_bad(self):
        w = word(4, (1, 3, 4), (1, 2, 3))
        assert project_once(w) == word(4, (1, 3, 4))

    def test_realisable_word_fixed(self):
        w = word(4, (1, 2, 3), (1, 2, 3))
        assert project_once(w) == w

    def test_stable_projection_examples(self):
        out, passes = stable_projection(word(4, (1, 3, 4), (1, 2, 3)))
        assert out == word(4, (1, 3, 4)) and passes == 2
        w = word(4, (1, 2, 3), (1, 2, 3))
        assert stable_projection(w) == (w, 1)
        assert stable_projection(GWord(4)) == (GWord(4), 1)

    def test_stable_projection_properties(self):
        rng = random.Random(29)
        for _ in range(300):
            w = random_word(rng, rng.choice((4, 5)), 12)
            out, passes = stable_projection(w)
            assert passes <= len(w) + 1
            assert project_once(out) == out
            assert is_realisable(out)
            assert stable_projection(out) == (out, 1)


class TestStatusLocality:
    def test_moves_do_not_change_statuses_outside_window(self):
        rng = random.Random(31)
        for _ in range(300):
            w = random_word(rng, 4, 10)
            moves = applicable_moves(w, allow_insert=True, max_len=12)
            m = rng.choice(moves)
            before = classify_word(w).statuses
            after = classify_word(apply_move(w, m)).statuses
            p = m.position
            if m.kind is MoveKind.SQUARE_INSERT:
                assert after[:p] == before[:p] and after[p + 2 :] == before[p:]
            elif m.kind is MoveKind.SQUARE_DELETE:
                assert after[:p] == before[:p] and after[p:] == before[p + 2 :]
            elif m.kind is MoveKind.FAR_COMMUTE:
                assert after[:p] == before[:p] and after[p + 2 :] == before[p + 2 :]
            else:
                assert after[:p] == before[:p] and after[p + 4 :] == before[p + 4 :]


class TestCensuses:
    def test_square_census_clean(self):
        report = relation_census(4, "square")
        assert report.cases == 64 and report.ok

    def test_commute_census_clean_n5(self):
        report = relation_census(5, "commute")
        assert report.cases == 15360 and report.ok

    def test_commute_census_rows_are_counted_exactly(self):
        for n, samples in ((5, 7), (6, 3), (7, 2)):
            rows = relation_census(n, "commute", samples=samples).rows
            assert commute_census_rows(n, samples) == len(rows)

    def test_commute_census_sampled_n6(self):
        report = relation_census(6, "commute", samples=32, seed=1)
        assert report.ok
        assert tuple(report.rows) == tuple(relation_census(6, "commute", samples=32, seed=1).rows)

    def test_negative_samples_are_refused(self):
        with pytest.raises(InvalidBudget):
            relation_census(6, "commute", samples=-5)
        report = relation_census(6, "commute", samples=0)
        assert report.cases == 0 and tuple(report.rows) == ()

    @pytest.mark.parametrize("samples", [1.5, 2.0, "2", True, None])
    def test_samples_that_are_not_ints_are_refused(self, samples):
        with pytest.raises(InvalidBudget):
            relation_census(6, "commute", samples=samples)

    # the flipped column sets each census builds, one per flip set that a
    # letter is read at: one per letter for commute, since each
    # far-commutes with another, and none without states; each letter's
    # own for square; and each set of one to three letters for tetra
    COLUMN_SETS = {
        (5, "commute"): 10,
        (6, "commute"): 20,
        (14, "commute"): 0,
        (4, "square"): 4,
        (4, "tetra"): 4 + 6 + 4,
    }

    @pytest.mark.parametrize(
        "n, lemma, samples, calls",
        [
            # every letter at the census states, then, per far-commuting
            # pair, each letter at the states with the other one flipped
            (5, "commute", 512, 10 + 2 * 15),
            (6, "commute", 64, 20 + 2 * 100),
            (6, "commute", 1, 20 + 2 * 100),
            # no states, no reads, whatever the number of letters
            (14, "commute", 0, 0),
            # each letter, then each letter with its own triple flipped
            (4, "square", 512, 4 + 4),
            # each letter once per set of earlier letters that leaves it
            # out, since flips commute: 4 letters times 2^3 sets
            (4, "tetra", 512, 4 * 2**3),
        ],
    )
    def test_kernel_calls_are_counted(self, monkeypatch, n, lemma, samples, calls):
        counts = {"_sliced_centrals": 0, "_flipped": 0}

        def counted(name):
            function = getattr(index_state, name)

            def call(*args):
                counts[name] += 1
                return function(*args)

            return call

        for name in counts:
            monkeypatch.setattr(index_state, name, counted(name))
        relation_census(n, lemma, samples=samples)
        assert counts == {"_sliced_centrals": calls, "_flipped": self.COLUMN_SETS[n, lemma]}

    def test_building_holds_little_beyond_the_report(self):
        # the engine takes the commute cases as they come and keeps one
        # entry per flip set: the build peaks about 1.2x above what the
        # report keeps, and 2.5x when every case is listed first and each
        # read is kept under a (flip set, letter) key
        relation_census(6, "commute", samples=1)
        tracemalloc.start()
        try:
            report = relation_census(10, "commute", samples=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cases == 5880 and peak <= 1.6 * kept

    def test_violations_are_the_failing_rows(self, monkeypatch):
        # a123 reads bad everywhere once a345 is flipped, although a
        # one-letter flip outside a letter's strands cannot change it
        kernel = index_state._sliced_centrals
        plain = _columns(range(2**10), 10)
        flipped = all_triples(5).index((3, 4, 5))

        def altered(ranks, cols, size, n, i, j, k):
            moved = [t for t, (c, p) in enumerate(zip(cols, plain)) if c != p]
            if (i, j, k) == (1, 2, 3) and moved == [flipped]:
                return 0
            return kernel(ranks, cols, size, n, i, j, k)

        monkeypatch.setattr(index_state, "_sliced_centrals", altered)
        report = relation_census(5, "commute")
        failing = [r for r in report.rows if not r.ok]
        assert failing and list(report.violations) == failing
        assert {(r.case, r.detail) for r in failing} == {("a123|a345", "statuses change under swap")}
        assert not report.ok and f"violations={len(failing)}" in report.to_table()

    def test_rows_are_a_read_only_sequence_of_rendered_rows(self):
        report = relation_census(6, "commute", samples=5, seed=3)
        rows = report.rows
        listed = tuple(rows)
        assert len(rows) == len(listed) == report.cases == 500
        assert all(type(r) is CensusRow for r in listed)
        assert [rows[r] for r in range(len(rows))] == list(listed)
        assert rows[-1] == listed[-1] and rows[-len(rows)] == listed[0]
        for bad in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[bad]
        with pytest.raises(TypeError):
            rows[0] = listed[0]
        assert listed == tuple(relation_census(6, "commute", samples=5, seed=3).rows)
        assert listed != tuple(relation_census(6, "commute", samples=5, seed=4).rows)

    def test_rows_slice_to_a_tuple(self):
        rows = relation_census(4, "square").rows
        listed = tuple(rows)
        assert rows[0:2] == listed[0:2] and type(rows[0:2]) is tuple
        assert rows[::-3] == listed[::-3] and rows[5:1] == ()

    def test_lines_render_rows_as_they_are_read(self, monkeypatch):
        report = relation_census(6, "commute", samples=64)
        table = report.to_table(full=True)
        rendered = 0
        row = index_state._CensusRows._row

        def counted(*args):
            nonlocal rendered
            rendered += 1
            return row(*args)

        monkeypatch.setattr(index_state._CensusRows, "_row", counted)
        lines = report.lines(full=True)
        assert next(lines) == table.split("\n", 1)[0] and rendered == 0
        next(lines)
        assert rendered == 1

    @pytest.mark.parametrize(
        "n, lemma", [(5.0, "commute"), ("5", "commute"), (4.0, "tetra"), (True, "square")]
    )
    def test_census_n_must_be_an_int(self, n, lemma):
        with pytest.raises(InvalidN):
            relation_census(n, lemma)

    def test_unsupported_ranges(self):
        with pytest.raises(UnsupportedN):
            relation_census(5, "tetra")
        with pytest.raises(UnsupportedN):
            relation_census(5, "square")
        with pytest.raises(UnsupportedN):
            relation_census(4, "commute")
        # an unknown lemma is a typed error too, not a bare ValueError
        for n in (4, 5):
            with pytest.raises(UnsupportedN, match="unknown lemma census 'nonsense'"):
                relation_census(n, "nonsense")

    @pytest.mark.parametrize(
        "n, lemma, kwargs, digest",
        [
            (4, "square", {}, "5fd4b4defeb9e9077bf218e644c3c47d7d7adab8fd0ebb35b9c22efc238102a5"),
            (4, "tetra", {}, "d3d789d2555a53350aac90f145ca062b0c481fa0e42a41aa4b2f0d6fb95862cc"),
            (5, "commute", {}, "89c8292e4a32795b3daf35254b8e7b70b8af7b0898c714326d6163b482dfc79c"),
            (
                6,
                "commute",
                {"samples": 64, "seed": 0},
                "aaeda77a9673539c9ec39d2894a905198878a5fdaddeb76336a9115ea11e2518",
            ),
            # most letters are bad at all 8 states, so most reads stop early
            (
                10,
                "commute",
                {"samples": 8, "seed": 0},
                "a44e1207ec13ad1dd2042e49a60b80f786ffdf751035dd0738682e3d4017d826",
            ),
        ],
    )
    def test_full_tables_pinned(self, n, lemma, kwargs, digest):
        table = relation_census(n, lemma, **kwargs).to_table(full=True)
        assert hashlib.sha256(table.encode()).hexdigest() == digest

    def test_tetra_census_structure(self):
        report = relation_census(4, "tetra")
        assert report.cases == 384
        assert "census lemma=tetra" in report.to_table()

    def test_tetra_observed_law(self):
        # what actually holds over all 16 states x 24 orderings: good counts
        # are 2 or 4, equal on both sides, with identical good (letter,
        # central) sets; count-4 cases admit one common realising order.
        # the 0/1/4 law asserted for this census fails on the count-2 half.
        observed = set()
        for s in enumerate_states(4):
            for tup in permutations((1, 2, 3, 4)):
                lhs = GWord(4, tetra_letters(4, tup))
                rhs = GWord(4, tuple(reversed(lhs.letters)))
                cl, cr = classify_word(lhs, start=s), classify_word(rhs, start=s)
                nl = sum(st.good for st in cl.statuses)
                nr = sum(st.good for st in cr.statuses)
                observed.add(nl)
                assert nl == nr
                goods_l = {
                    (g, st.centrals)
                    for g, st in zip(lhs.letters, cl.statuses)
                    if st.good
                }
                goods_r = {
                    (g, st.centrals)
                    for g, st in zip(rhs.letters, cr.statuses)
                    if st.good
                }
                assert goods_l == goods_r
        assert observed == {2, 4}


class TestSlicedKernel:
    """The census kernel, all states of a column set at once, against the
    single-state `letter_status`."""

    @staticmethod
    def state_sets(rng, n):
        width = comb(n, 3)
        sparse = sum(1 << b for b in rng.sample(range(width), 2))
        dense = (1 << width) - 1 ^ sum(1 << b for b in rng.sample(range(width), 2))
        yield [rng.getrandbits(width)]
        yield [dense, sparse, *(rng.getrandbits(width) for _ in range(rng.randrange(1, 40)))]

    @staticmethod
    def code(status, g):
        """A status as the census kernel's centrals bitset over g's strands."""
        return 1 << g.elems.index(status.central) if status.good else 0

    def test_bytes_are_single_state_codes(self):
        # every state at n=4 and n=5, then seeded sets up to n=9; each set
        # also with one triple flipped
        rng = random.Random(1997)
        sets = [(n, range(1 << comb(n, 3))) for n in (4, 5)]
        sets += [(n, masks) for n in range(4, 10) for masks in self.state_sets(rng, n)]
        for n, masks in sets:
            ranks, width = generator_ranks(n), comb(n, 3)
            size = len(masks)
            cols = _columns(masks, width)
            b = rng.randrange(width)
            reads = ((cols, masks), (_flipped(cols, b, size), [m ^ 1 << b for m in masks]))
            for columns, states in reads:
                for g in all_generators(n):
                    sliced = _sliced_centrals(ranks, columns, size, n, *g.elems)
                    codes = sliced.to_bytes(size, "little")
                    assert set(codes) <= {0, 1, 2, 4}
                    assert codes == bytes(
                        self.code(letter_status(OrientationState(n, m), g), g) for m in states
                    )

    def test_stops_once_every_central_is_ruled_out(self, monkeypatch):
        # outside strand 4 of a123 rules out all three centrals where only
        # {1,3,4} of its triples carries -1, (x, y) = (1, 1) in region O;
        # the all-plus state leaves j, so strands 5 and 6 are read too
        n, width = 6, comb(6, 3)
        ranks = generator_ranks(n)
        misses = index_state._misses
        read = []

        def counted(*args):
            for column in misses(*args):
                read.append(column)
                yield column

        monkeypatch.setattr(index_state, "_misses", counted)
        ruled_out = 1 << all_triples(n).index((1, 3, 4))
        for masks, strands, codes in (([ruled_out] * 3, 1, bytes(3)), ([ruled_out, 0], 3, b"\0\2")):
            read.clear()
            sliced = _sliced_centrals(ranks, _columns(masks, width), len(masks), n, 1, 2, 3)
            assert len(read) == strands and sliced.to_bytes(len(masks), "little") == codes


class TestStateEnumeration:
    def test_round_trip_ids(self):
        # a state's id is its mask, and the constructor takes it back
        for mask, s in enumerate(enumerate_states(4)):
            assert s.minus == mask and OrientationState(4, s.minus) == s

    def test_constructor_checks_the_state(self):
        for mask in (-1, 1 << 4, 1 << 100):
            with pytest.raises(BadTriple, match=f"state id {mask} out of range for n=4"):
                OrientationState(4, mask)
        OrientationState(4, (1 << 4) - 1)
        OrientationState(250, (1 << comb(250, 3)) - 1)
        too_wide = "state id <int of 2573001 bits> out of range for n=250"
        with pytest.raises(BadTriple, match=too_wide):
            OrientationState(250, 1 << comb(250, 3))
        with pytest.raises(InvalidN, match="strand count must be >= 4, got 3"):
            OrientationState(3, 0)

    @pytest.mark.parametrize(
        "build, args, error",
        [
            (OrientationState, (4.0, 0), InvalidN),
            (OrientationState, ("4", 0), InvalidN),
            (OrientationState, (True, 0), InvalidN),
            (OrientationState, (4, 1.0), BadTriple),
            (OrientationState, (4, True), BadTriple),
            (LetterStatus, (-3,), BadTriple),
            (LetterStatus, (2.0,), BadTriple),
            (LetterStatus, (False,), BadTriple),
            (FullTwistMove, (True,), InvalidMove),
        ],
    )
    def test_wrong_types_raise_typed_errors(self, build, args, error):
        # a bool is an int to Python, but not a strand count, mask, central
        # or turn count here
        with pytest.raises(error):
            build(*args)

    def test_count(self):
        assert sum(1 for _ in enumerate_states(4)) == 16
        assert sum(1 for _ in enumerate_states(5)) == 1024

    def test_states_are_counted_as_they_are_reached(self):
        # the bound 2^C(1000,3) alone is a 166-million-bit int
        tracemalloc.start()
        try:
            first = next(enumerate_states(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == OrientationState(1000, 0) and peak < 1 << 20
        assert next(enumerate_states(10**5)).minus == 0

    @pytest.mark.parametrize("n", [4.0, "4", True, 3])
    def test_enumeration_checks_n_at_the_call(self, n):
        with pytest.raises(InvalidN):
            enumerate_states(n)


class TestActionWellDefined:
    def test_square_and_commute_patterns(self):
        for n in (4, 5):
            gens = all_generators(n)
            states = list(enumerate_states(n))
            for g in gens:
                w = GWord(n, (g, g))
                for s in states:
                    assert run_word(s, w) == s
            for a, b in combinations(gens, 2):
                if not far_commutes(a, b):
                    continue
                for s in states:
                    assert run_word(s, GWord(n, (a, b))) == run_word(s, GWord(n, (b, a)))


class TestByteTablePins:
    """SHA-256 of outputs taken when every state read shifted the int mask."""

    @staticmethod
    def _starts(rng, n):
        # the initial state, then a dense and a sparse random state: a
        # nonzero start is turned into one byte per triple
        width = comb(n, 3)
        yield None
        yield OrientationState(n, rng.getrandbits(width))
        yield OrientationState(n, sum(1 << b for b in rng.sample(range(width), 3)))

    @classmethod
    def _corpus(cls):
        rng = random.Random(6464)
        for n in (4, 8, 16, 32, 64):
            words = [good_walk(rng, n, 40) for _ in range(2)]
            words += [random_word(rng, n, 60) for _ in range(2)]
            for w in words:
                for start in cls._starts(rng, n):
                    yield w, start

    def test_classify_word_pinned(self):
        h = hashlib.sha256()
        for w, start in self._corpus():
            cw = classify_word(w, start)
            centrals = " ".join(str(min(st.centrals, default=0)) for st in cw.statuses)
            h.update(f"{w.n} {centrals} {cw.final_state.minus:x}\n".encode())
        assert h.hexdigest() == "267b3d0456c0e2024ea228703746ee86f723042126a91fa835fbbf9f64df1457"

    def test_statuses_are_single_letter_statuses(self):
        rng = random.Random(6565)
        for n in (4, 5, 8, 16, 32):
            for _ in range(4):
                w = random_word(rng, n, 30) if rng.random() < 0.5 else good_walk(rng, n, 30)
                for start in self._starts(rng, n):
                    s = initial_state(n) if start is None else start
                    cw = classify_word(w, start)
                    for t, g in enumerate(w.letters):
                        pre = run_word(s, GWord(n, w.letters[:t]))
                        assert cw.statuses[t] == letter_status(pre, g)
                    assert cw.final_state == run_word(s, w)
