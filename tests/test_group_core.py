import hashlib
import random
import re
import tracemalloc
from collections import Counter, deque
from itertools import combinations
from math import comb

import pytest

from helpers import all_triples, encode, random_word, word
from tribraid import (
    BadTriple,
    DimensionMismatch,
    EqualityVerdict,
    GWord,
    GenTriple,
    InvalidBudget,
    InvalidMove,
    InvalidN,
    MoveKind,
    RelationMove,
    SearchStats,
    WordParseError,
    all_generators,
    applicable_moves,
    apply_move,
    bounded_equal,
    far_commutes,
    format_word,
    generator_parity,
    generator_ranks,
    parse_indices,
    parse_word,
)
from tribraid import group_core


class TestGenTriple:
    def test_canonicalises_any_ordering(self):
        assert GenTriple(4, (2, 1, 3)) == GenTriple(4, (1, 2, 3))
        assert GenTriple(4, (3, 2, 1)).elems == (1, 2, 3)

    def test_str_compact_and_general(self):
        # one digit per index up to n=9, parenthesised from n=10 on
        assert str(GenTriple(4, (3, 1, 2))) == "a123"
        assert str(GenTriple(9, (9, 8, 7))) == "a789"
        assert str(GenTriple(10, (10, 9, 8))) == "a(8,9,10)"
        assert str(GenTriple(12, (11, 2, 1))) == "a(1,2,11)"

    def test_rejects_bad_indices(self):
        with pytest.raises(BadTriple):
            GenTriple(4, (1, 1, 2))
        with pytest.raises(BadTriple):
            GenTriple(4, (1, 2, 5))
        with pytest.raises(BadTriple):
            GenTriple(4, (0, 2, 3))
        with pytest.raises(InvalidN):
            GenTriple(3, (1, 2, 3))

    @pytest.mark.parametrize(
        "build, args, error",
        [
            (GenTriple, (4, (1, 2, 3.0)), BadTriple),
            (GenTriple, (4, (True, 2, 3)), BadTriple),
            (GenTriple, (4, (1, "2", 3)), BadTriple),
            (GenTriple, (4, 123), BadTriple),
            (GenTriple, (4.0, (1, 2, 3)), InvalidN),
            (GenTriple, (True, (1, 2, 3)), InvalidN),
            (GWord, (4.0, ()), InvalidN),
            (GWord, (4, (1,)), BadTriple),
            (GWord, (4, ((1, 2, 3),)), BadTriple),
            (GWord, (4, 5), BadTriple),
            (parse_word, (None, 4), WordParseError),
            (parse_indices, ("a123", object()), WordParseError),
            (parse_indices, ("a(1,2,3)", "4"), WordParseError),
            (parse_indices, (123, 4), WordParseError),
        ],
    )
    def test_wrong_types_raise_typed_errors(self, build, args, error):
        # the letter kernels shift by a letter's indices, so an index must
        # be an int (not a bool or a float) before any of them reads it
        with pytest.raises(error):
            build(*args)

    @pytest.mark.parametrize("n", [4.0, "4", True, 3, 2, -1])
    def test_generator_lists_need_a_group(self, n):
        # below n=4 there is no 3-subset generator group to list or index
        with pytest.raises(InvalidN):
            all_generators(n)
        with pytest.raises(InvalidN):
            generator_ranks(n)

    class Strand(int):
        pass

    @pytest.mark.parametrize(
        "elems, message",
        [
            ((0, 1, 2), "indices (0, 1, 2) out of range 1..4"),
            ((1, 2, 5), "indices (1, 2, 5) out of range 1..4"),
            ((True, 2, 3), "need three int indices, got (True, 2, 3)"),
            ((1, 1, 2), "need three distinct indices, got (1, 1, 2)"),
            ((Strand(1), 2, 3), "need three int indices, got (1, 2, 3)"),
            ((1, 2, Strand(3)), "need three int indices, got (1, 2, 3)"),
        ],
    )
    def test_near_sorted_triples_keep_their_errors(self, elems, message):
        # only a sorted tuple of three ints in 1..n skips the general checks
        with pytest.raises(BadTriple, match=re.escape(message)):
            GenTriple(4, elems)

    def test_only_a_sorted_tuple_is_kept_as_given(self):
        elems = (1, 2, 3)
        assert GenTriple(4, elems).elems is elems
        for given in ((3, 1, 2), [1, 2, 3]):
            g = GenTriple(4, given)
            assert type(g.elems) is tuple and g.elems == (1, 2, 3)
        with pytest.raises(InvalidN, match="got 3$"):
            GenTriple(3, elems)


class TestParsing:
    def test_round_trip_compact(self):
        w = parse_word("a312 a134", 4)
        assert w.letters == (GenTriple(4, (1, 2, 3)), GenTriple(4, (1, 3, 4)))
        assert format_word(w) == "a123 a134"

    def test_a_word_prints_as_its_format(self):
        w = parse_word("a312 a(4,1,3)", 4)
        assert str(w) == format_word(w) == "a123 a134"
        assert str(GWord(10, ())) == ""

    def test_round_trip_general(self):
        w = parse_word("a(11,2,1) a(3,4,10)", 12)
        assert format_word(w) == "a(1,2,11) a(3,4,10)"

    def test_round_trip_seeded_words(self):
        # on both sides of the compact boundary at n=9/10
        rng = random.Random(9)
        for n in (4, 9, 10, 32):
            for _ in range(20):
                w = random_word(rng, n, 12)
                assert parse_word(format_word(w), n) == w

    def test_compact_rejected_for_large_n(self):
        with pytest.raises(WordParseError):
            parse_word("a123", 12)

    def test_parenthesised_accepted_for_small_n(self):
        assert parse_word("a(1,2,3)", 4) == word(4, (1, 2, 3))

    def test_empty_text_is_identity(self):
        assert parse_word("  ", 4) == GWord(4)
        assert format_word(GWord(4)) == ""

    def test_parse_indices_takes_exactly_three(self):
        assert parse_indices("a(3,1,2)", 5) == (3, 1, 2)
        assert parse_indices("a412", 4) == (4, 1, 2)
        for token, k in (("a(1,2,3,4)", 4), ("a12", 2), ("a(7)", 1)):
            message = re.escape(f"{token!r} has {k} indices; words use 3-index generators")
            with pytest.raises(WordParseError, match=message):
                parse_indices(token, 8)
            with pytest.raises(WordParseError, match=message):
                parse_word(f"a123 {token}", 8)

    def test_indices_are_ascii_digits(self):
        # `int` reads any script's digits; a token reads only 0-9
        for token in ("a(\u0661,2,3)", "a\u066123", "a(1,\uff12,3)", "a1\u09e83"):
            with pytest.raises(WordParseError, match="cannot parse generator token"):
                parse_indices(token, 4)
            with pytest.raises(WordParseError):
                parse_word(token, 4)

    def test_an_index_too_long_to_read_is_a_parse_error(self):
        # Python refuses to read an int of over 4,300 digits
        for token in (f"a({'9' * 5000},1,2)", f"a(1,2,{'0' * 4400}3)"):
            with pytest.raises(WordParseError, match="has too many digits"):
                parse_indices(token, 4)
            with pytest.raises(WordParseError, match="has too many digits"):
                parse_word(f"a123 {token}", 4)
        # within the limit, a long index is read and is out of range
        with pytest.raises(WordParseError, match="out of range"):
            parse_word(f"a({'9' * 4000},1,2)", 4)

    def test_bad_tokens(self):
        with pytest.raises(WordParseError):
            parse_word("b123", 4)
        with pytest.raises(WordParseError):
            parse_word("a125", 4)

    def test_repeated_tokens_spelled_differently_are_equal_letters(self):
        w = parse_word("a321 a123 a(3,2,1) a123", 4)
        assert w.letters == (GenTriple(4, (1, 2, 3)),) * 4
        assert format_word(w) == "a123 a123 a123 a123"

    @pytest.mark.parametrize(
        "text, bad, message",
        [
            ("a123 a12x a124 a12x", "a12x", "cannot parse generator token 'a12x' (n=4)"),
            ("a125 a123 a125", "a125", "indices (1, 2, 5) out of range 1..4"),
            ("a123 a(1,1,2) a(1,1,2)", "a(1,1,2)", "need three distinct indices, got (1, 1, 2)"),
            ("a1234 a1234", "a1234", "'a1234' has 4 indices; words use 3-index generators"),
        ],
    )
    def test_a_repeated_bad_token_raises_at_its_first_occurrence(
        self, monkeypatch, text, bad, message
    ):
        tokens = []
        read = group_core.parse_indices
        monkeypatch.setattr(group_core, "parse_indices", lambda t, n: tokens.append(t) or read(t, n))
        with pytest.raises(WordParseError, match=f"^{re.escape(message)}$"):
            parse_word(text, 4)
        assert tokens[-1] == bad and tokens.count(bad) == 1

    @pytest.mark.parametrize("n", [3, 0, -1, 4.0, True, "4"])
    def test_bad_n_is_a_parse_error_whatever_the_word(self, n):
        for text in ("", "  ", "a123", "zzz"):
            with pytest.raises(WordParseError, match=re.escape(f"strand count must be >= 4, got {n!r}")):
                parse_word(text, n)
        # a token alone is checked against n as a word is, compact or not
        for token in ("a123", "a(1,2,3)"):
            with pytest.raises(WordParseError, match=re.escape(f"strand count must be >= 4, got {n!r}")):
                parse_indices(token, n)

    def test_word_rejects_mixed_n(self):
        with pytest.raises(DimensionMismatch):
            GWord(5, (GenTriple(4, (1, 2, 3)),))


class TestApplicableMoves:
    def test_tetra_window_detected(self):
        w = word(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert RelationMove(MoveKind.TETRA_REVERSE, 0) in applicable_moves(w)

    def test_far_commute_detected(self):
        w = word(5, (1, 2, 3), (1, 4, 5))
        assert RelationMove(MoveKind.FAR_COMMUTE, 0) in applicable_moves(w)

    def test_no_far_commute_at_n4(self):
        # two distinct 3-subsets of a 4-set always share 2 elements
        gens = all_generators(4)
        for a in gens:
            for b in gens:
                if a != b:
                    assert not far_commutes(a, b)
        rng = random.Random(11)
        for _ in range(100):
            w = random_word(rng, 4, 12)
            assert all(
                m.kind is not MoveKind.FAR_COMMUTE for m in applicable_moves(w)
            )

    def test_insert_gating(self):
        w = GWord(4)
        assert applicable_moves(w, allow_insert=True, max_len=1) == []
        ins = applicable_moves(w, allow_insert=True, max_len=2)
        assert len(ins) == 4 and all(m.kind is MoveKind.SQUARE_INSERT for m in ins)


def plain_moves(w, allow_insert=False, max_len=0):
    """The relation moves of w by nested loops over positions and generators."""
    letters, moves = w.letters, []
    for p in range(len(letters) - 1):
        if letters[p] == letters[p + 1]:
            moves.append(RelationMove(MoveKind.SQUARE_DELETE, p))
    for p in range(len(letters) - 1):
        if len(set(letters[p].elems) & set(letters[p + 1].elems)) <= 1:
            moves.append(RelationMove(MoveKind.FAR_COMMUTE, p))
    for p in range(len(letters) - 3):
        window = letters[p : p + 4]
        strands = {s for g in window for s in g.elems}
        if len(set(window)) == 4 and len(strands) == 4:
            moves.append(RelationMove(MoveKind.TETRA_REVERSE, p))
    if allow_insert and len(letters) + 2 <= max_len:
        for p in range(len(letters) + 1):
            for c in combinations(range(1, w.n + 1), 3):
                moves.append(RelationMove(MoveKind.SQUARE_INSERT, p, GenTriple(w.n, c)))
    return moves


def move_corpus():
    """300 seeded words at n=4..6 whose letters come from a few strands,
    which makes squares and tetra windows common."""
    rng = random.Random(31)
    for _ in range(300):
        n = rng.choice((4, 5, 6))
        strands = rng.sample(range(1, n + 1), rng.randint(4, n))
        gens = [GenTriple(n, c) for c in combinations(strands, 3)]
        yield GWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 9))))


def search_neighbours(w, max_len):
    """The words the search reaches from w in one move, as GWords: the
    deletions, swaps and tetrahedron windows it builds, then every position
    of the insertion block it keeps, repeated words included."""
    gens = all_generators(w.n)
    rows = generator_ranks(w.n)
    code, codes = encode(w), {}
    masks = [group_core._code(g.elems) for g in w.letters]
    found = list(group_core._neighbours(code, masks, group_core._squares(code)))
    if len(w) + 2 <= max_len:
        found += group_core._block(code, len(gens), set(), codes, rows)
        assert codes == {c: group_core._code(g.elems) for c, g in enumerate(gens)}
    return [GWord(w.n, tuple(gens[ord(c)] for c in nxt)) for nxt in found]


class TestMoveEnumeration:
    def test_matches_nested_loops_and_every_move_applies(self):
        kinds = Counter()
        for w in move_corpus():
            for allow_insert in (False, True):
                moves = applicable_moves(w, allow_insert=allow_insert, max_len=len(w) + 2)
                assert moves == plain_moves(w, allow_insert, len(w) + 2)
                for m in moves:
                    apply_move(w, m)  # raises InvalidMove if the pattern is not there
                kinds.update(m.kind for m in moves)
        assert all(kinds[kind] >= 50 for kind in MoveKind)

    def test_search_enumerates_exactly_the_public_moves(self):
        for w in move_corpus():
            moves = applicable_moves(w, True, len(w) + 2)
            assert search_neighbours(w, len(w) + 2) == [apply_move(w, m) for m in moves]

    def test_path_moves_are_the_first_public_move_to_each_neighbour(self):
        g, h, f = (1, 2, 3), (1, 4, 5), (2, 3, 6)
        runs = [word(6, g, g, g), word(6, h, g, g, g, h), word(6, g, h), word(6, g, h, f, g)]
        for w in [*move_corpus(), *runs]:
            rows = generator_ranks(w.n)
            prev = encode(w)
            first = {}
            for m in applicable_moves(w, True, len(w) + 2):
                first.setdefault(apply_move(w, m), m)
            for x, m in first.items():
                assert group_core._move(w.n, rows, prev, encode(x)) == m


class TestSearchAlphabet:
    def test_rank_is_the_generator_order(self):
        for n in range(4, 41):
            first, second = generator_ranks(n)
            ranks = [first[i] - second[j] + k for i, j, k in (g.elems for g in all_generators(n))]
            assert ranks == list(range(comb(n, 3)))
            assert [first[i] - second[j] + k for i, j, k in all_triples(n)] == ranks
        # at n=500, without listing its C(500,3) triples: in lexicographic
        # order each pair (i, j) runs k = j+1..n on consecutive ranks, from
        # one past the last rank of the pair before it
        n = 500
        first, second = generator_ranks(n)
        rank = -1
        for i, j in combinations(range(1, n), 2):
            assert first[i] - second[j] + j + 1 == rank + 1
            rank = first[i] - second[j] + n
        assert rank == comb(n, 3) - 1

    def test_no_generator_table_in_any_search(self, monkeypatch):
        # a table over the generators has 161,700 entries at n=100; a search
        # builds none, and keeps an expansion's square insertions as one
        # block, so even one that reaches the letter cap stays small: these
        # searches peak at 13-19 KiB under tracemalloc, hence the 64 KiB bound
        built = Counter()

        def counted(n):
            built[n] += 1
            return generators(n)

        generators = group_core.all_generators
        monkeypatch.setattr(group_core, "all_generators", counted)
        g, h = (1, 2, 3), (1, 2, 4)
        tetra = word(100, g, h, (1, 3, 4), (2, 3, 4))
        abc = word(100, (1, 2, 3), (4, 5, 6), (7, 8, 9))
        sq_abc = word(100, (1, 5, 9), (1, 5, 9), *(g.elems for g in abc))
        cases = [
            (word(100, g), word(100, h), 10, 6, "parity", []),
            (tetra, tetra, 10, 6, "identical", []),
            (tetra, GWord(100, tetra.letters[::-1]), 10, 5, "found", ["tetra@0"]),
            (word(100, g, h), word(100, h, g), 10, 3, "exhausted", []),
            # w1's two swaps make its frontier the larger, and w2's side then
            # deletes a square, which the path replays as an insertion
            (abc, sq_abc, 10, 4, "found", ["ins@0:a(1,5,9)"]),
            # the same square met inside w1's first insertion block
            (abc, sq_abc, 1, 5, "found", ["ins@0:a(1,5,9)"]),
            # three blocks, 1,323,397 words, take the letters past the cap
            (word(100, g, h), word(100, h, g), 1000, 12, "limit", []),
        ]
        for w1, w2, depth, max_len, stop, path in cases:
            tracemalloc.start()
            try:
                v = bounded_equal(w1, w2, depth, max_len)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (v.stats.stop, [str(m) for m in v.path or ()]) == (stop, path)
            assert peak < 64 * 1024, (stop, peak)
        assert v.stats.stored == 1_323_401
        assert built == Counter()

    @pytest.mark.parametrize("n, first", [(13, 256), (72, 0xD800)])
    def test_letters_wider_than_a_byte(self, n, first):
        # from `first` on, a letter takes two bytes at n=13, and at n=72
        # ranks 55,296-57,343 are surrogate code points
        gens = all_generators(n)[first:]
        g = gens[0]
        h = next(x for x in gens if far_commutes(g, x))
        for x in (g, h):
            code_point = ord(encode(GWord(n, (x,))))
            assert code_point >= first and (n == 13 or code_point <= 0xDFFF)
        cases = [
            (GWord(n, (g, h)), GWord(n, (h, g)), 2, ["swap@0"]),
            (GWord(n, (g, g, h)), GWord(n, (h,)), 3, ["del@0"]),
            (GWord(n, (h, g)), GWord(n, (h, h, h, g)), 4, [f"ins@0:{h}"]),
        ]
        for w1, w2, max_len, path in cases:
            v = bounded_equal(w1, w2, 10, max_len)
            assert [str(m) for m in v.path] == path
            replay = w1
            for m in v.path:
                replay = apply_move(replay, m)
            assert replay == w2


class TestApplyMove:
    def test_tetra_reverse(self):
        w = word(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        out = apply_move(w, RelationMove(MoveKind.TETRA_REVERSE, 0))
        assert format_word(out) == "a234 a134 a124 a123"

    def test_far_commute_swap(self):
        w = word(5, (1, 2, 3), (1, 4, 5))
        out = apply_move(w, RelationMove(MoveKind.FAR_COMMUTE, 0))
        assert format_word(out) == "a145 a123"

    def test_square_delete(self):
        w = word(4, (1, 2, 3), (1, 2, 3))
        assert apply_move(w, RelationMove(MoveKind.SQUARE_DELETE, 0)) == GWord(4)

    def test_insert_then_delete_is_identity(self):
        w = word(4, (1, 2, 4))
        g = GenTriple(4, (1, 3, 4))
        w2 = apply_move(w, RelationMove(MoveKind.SQUARE_INSERT, 1, g))
        assert len(w2) == 3
        assert apply_move(w2, RelationMove(MoveKind.SQUARE_DELETE, 1)) == w

    def test_involutions(self):
        rng = random.Random(13)
        for _ in range(200):
            w = random_word(rng, rng.choice((4, 5)), 12)
            for m in applicable_moves(w):
                if m.kind in (MoveKind.TETRA_REVERSE, MoveKind.FAR_COMMUTE):
                    assert apply_move(apply_move(w, m), m) == w

    def test_invalid_moves_raise(self):
        w = word(4, (1, 2, 3), (1, 2, 4))
        with pytest.raises(InvalidMove):
            apply_move(w, RelationMove(MoveKind.SQUARE_DELETE, 0))
        with pytest.raises(InvalidMove):
            apply_move(w, RelationMove(MoveKind.TETRA_REVERSE, 0))
        with pytest.raises(InvalidMove):
            apply_move(w, RelationMove(MoveKind.FAR_COMMUTE, 0))
        with pytest.raises(InvalidMove):
            apply_move(w, RelationMove(MoveKind.SQUARE_INSERT, 5, GenTriple(4, (1, 2, 3))))
        with pytest.raises(InvalidMove):
            apply_move(w, RelationMove(MoveKind.SQUARE_INSERT, 0, None))
        with pytest.raises(InvalidMove, match="has n=5, word has n=4"):
            apply_move(w, RelationMove(MoveKind.SQUARE_INSERT, 0, GenTriple(5, (1, 2, 5))))
        with pytest.raises(InvalidMove, match="unknown move kind 'swap'"):
            apply_move(w, RelationMove("swap", 0))

    @pytest.mark.parametrize("kind", list(MoveKind))
    @pytest.mark.parametrize("position", ["0", 1.0, None, True])
    def test_positions_that_are_not_ints_are_refused(self, kind, position):
        # a bool is an int to Python, but not a position here: True would
        # insert at 1
        w = word(4, (1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        with pytest.raises(InvalidMove, match="move position must be an int, got "):
            apply_move(w, RelationMove(kind, position, GenTriple(4, (1, 2, 3))))

    def test_a_move_that_is_not_a_relation_move_is_refused(self):
        # a move's text, or a word in place of the word, is refused before
        # any other work, where it raised AttributeError
        w = word(4, (1, 2, 3), (1, 2, 3))
        with pytest.raises(InvalidMove, match="need a relation move, got 'del@0'"):
            apply_move(w, "del@0")
        with pytest.raises(BadTriple, match="need a word of generators, got 'a123 a123'"):
            apply_move("a123 a123", RelationMove(MoveKind.SQUARE_DELETE, 0))


class TestParity:
    def test_a_word_that_is_not_a_gword_is_refused(self):
        for w in ("x", (GenTriple(4, (1, 2, 3)),), None):
            with pytest.raises(BadTriple, match="need a word of generators, got "):
                generator_parity(w)

    def test_odd_single_generator(self):
        w = word(4, (1, 2, 3), (1, 2, 4), (1, 2, 3))
        pv = generator_parity(w)
        assert pv.odd == frozenset({(1, 2, 4)})

    def test_tetra_sides_share_parity(self):
        w = word(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        rev = GWord(4, tuple(reversed(w.letters)))
        assert generator_parity(w) == generator_parity(rev)

    def test_empty_word_zero(self):
        assert generator_parity(GWord(4)).is_zero

    def test_invariant_under_moves(self):
        rng = random.Random(17)
        for _ in range(300):
            w = random_word(rng, rng.choice((4, 5)), 12)
            moves = applicable_moves(w, allow_insert=True, max_len=14)
            m = rng.choice(moves)
            assert generator_parity(apply_move(w, m)) == generator_parity(w)


class TestBoundedEqual:
    def test_tetra_pair_equal_one_move(self):
        w1 = word(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        w2 = GWord(4, tuple(reversed(w1.letters)))
        v = bounded_equal(w1, w2, depth=100, max_len=8)
        assert v.is_equal and len(v.path) == 1
        cur = w1
        for m in v.path:
            cur = apply_move(cur, m)
        assert cur == w2

    def test_distinct_by_parity(self):
        assert bounded_equal(word(4, (1, 2, 3)), word(4, (1, 2, 4)), 10, 6).is_distinct
        v = bounded_equal(word(4, (1, 2, 3)), GWord(4), 10, 6)
        assert v.is_distinct and v.witness == "parity mismatch"

    def test_unknown_when_budget_exhausted(self):
        w1 = word(4, (1, 2, 3), (1, 2, 4))
        w2 = word(4, (1, 2, 4), (1, 2, 3))
        assert bounded_equal(w1, w2, depth=50, max_len=6).is_unknown

    def test_equal_words_trivially(self):
        w = word(4, (1, 2, 3))
        v = bounded_equal(w, w, depth=1, max_len=4)
        assert v.is_equal and v.path == ()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bounded_equal(GWord(4), GWord(5), 10, 6)

    def test_a_word_that_is_not_a_gword_is_refused(self):
        # on either side, before the budgets are read
        w = word(4, (1, 2, 3))
        for w1, w2 in (("a123", w), (w, "a123"), (w.letters, w), (w, None)):
            with pytest.raises(BadTriple, match="need a word of generators, got "):
                bounded_equal(w1, w2, depth=3, max_len=4)
        with pytest.raises(BadTriple):
            bounded_equal("a123", w, depth=-1, max_len=4)

    def test_soundness_on_random_reachable_words(self):
        rng = random.Random(23)
        for _ in range(20):
            w1 = random_word(rng, 4, 5)
            cur = w1
            for _ in range(2):
                moves = applicable_moves(cur, allow_insert=True, max_len=9)
                cur = apply_move(cur, rng.choice(moves))
            v = bounded_equal(w1, cur, depth=4000, max_len=9)
            assert v.is_equal
            replay = w1
            for m in v.path:
                replay = apply_move(replay, m)
            assert replay == cur

    @staticmethod
    def seeded_pairs(count):
        """Seeded pairs a few relation moves apart, with their length budget."""
        rng = random.Random(4242)
        for n in (4, 5, 6):
            for _ in range(count):
                w1 = random_word(rng, n, 6)
                longest = len(w1) + 4
                w2 = w1
                for _ in range(rng.randint(2, 5)):
                    w2 = apply_move(w2, rng.choice(applicable_moves(w2, True, longest)))
                yield w1, w2, longest

    def test_paths_pinned(self):
        # verdicts and move paths of the seeded pairs under two expansion
        # budgets; the digest was taken when the search became bidirectional
        h = hashlib.sha256()
        for w1, w2, longest in self.seeded_pairs(12):
            for depth in (20, 200):
                v = bounded_equal(w1, w2, depth, longest)
                h.update(repr((v.status, [str(m) for m in v.path or ()])).encode())
        assert h.hexdigest() == "b4a53ab3afeb931265636e4f29b615e05ba57ad4ba2b7d09b6b939527e0f7107"

    def test_proves_what_a_one_sided_search_proves(self):
        # a one-sided breadth-first search over the public move API, with
        # the same expansion budget; the bidirectional search proves every
        # pair it proves, with a path no longer
        def one_sided(w1, w2, depth, max_len):
            dist, queue = {w1: 0}, deque([w1])
            for _ in range(depth):
                if not queue:
                    return None
                w = queue.popleft()
                for m in applicable_moves(w, True, max_len):
                    nxt = apply_move(w, m)
                    if nxt not in dist:
                        dist[nxt] = dist[w] + 1
                        if nxt == w2:
                            return dist[nxt]
                        queue.append(nxt)
            return None

        pairs = one_sided_proven = proven = 0
        for w1, w2, longest in self.seeded_pairs(20):
            if w1 == w2 or generator_parity(w1) != generator_parity(w2):
                continue
            v = bounded_equal(w1, w2, 20, longest)
            moves = one_sided(w1, w2, 20, longest)
            if moves is not None:
                assert v.is_equal and len(v.path) <= moves, (format_word(w1), format_word(w2))
                one_sided_proven += 1
            pairs += 1
            proven += v.is_equal
        assert (pairs, one_sided_proven, proven) == (58, 37, 58)

    def test_goal_side_moves_come_back_inverted(self):
        # each pair meets after one expansion per side, and the last move was
        # found from w2's side as the inverse step: a deletion from the
        # longer w2 replays as an insertion, an insertion into the shorter w2
        # as a deletion
        a123, a145, a234 = (1, 2, 3), (1, 4, 5), (2, 3, 4)
        cases = [
            (word(5, a123), word(5, a145, a145, a123, a234, a234), ["ins@1:a234", "ins@0:a145"]),
            (word(5, a145, a123, a145), word(5, a123), ["swap@1", "del@0"]),
        ]
        for w1, w2, path in cases:
            v = bounded_equal(w1, w2, depth=100, max_len=3)
            assert [str(m) for m in v.path] == path
            assert (v.stats.expanded, v.stats.stop) == (2, "found")
            replay = w1
            for m in v.path:
                replay = apply_move(replay, m)
            assert replay == w2

    def test_negative_budgets_rejected(self):
        w = word(4, (1, 2, 3))
        with pytest.raises(InvalidBudget):
            bounded_equal(w, w, depth=-1, max_len=4)
        with pytest.raises(InvalidBudget):
            bounded_equal(w, w, depth=10, max_len=-1)

    @pytest.mark.parametrize(
        "depth, max_len",
        [("3", 5), (3, "5"), (3.0, 5), (3, 5.5), (True, 5)],
        ids=["str-depth", "str-max_len", "float-depth", "float-max_len", "bool-depth"],
    )
    def test_budgets_that_are_not_ints_rejected(self, depth, max_len):
        w1, w2 = word(4, (1, 2, 3)), word(4, (1, 2, 4))
        with pytest.raises(InvalidBudget):
            bounded_equal(w1, w2, depth, max_len)


class TestSearchStats:
    def test_stop_reasons(self):
        w1 = word(4, (1, 2, 3), (1, 2, 4))
        w2 = word(4, (1, 2, 4), (1, 2, 3))
        # each end reaches 11 words within length 4, and neither reaches the
        # other: after one expansion per side, w1's side expands its other
        # 10 words and its frontier empties
        assert bounded_equal(w1, w2, depth=1000, max_len=4).stats == SearchStats(
            12, 22, 20, "exhausted"
        )
        assert bounded_equal(w1, w2, depth=10, max_len=4).stats == SearchStats(
            10, 22, 20, "depth"
        )
        tetra = word(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        found = bounded_equal(tetra, GWord(4, tetra.letters[::-1]), 100, 8).stats
        assert (found.expanded, found.stop) == (1, "found")
        assert bounded_equal(w1, w1, 0, 0).stats.stop == "identical"
        assert bounded_equal(w1, word(4, (1, 2, 3)), 10, 6).stats.stop == "parity"

    def test_exhausted_on_either_side(self):
        # with max_len 3, `stuck` has no move at all, and `free` takes 7
        # square insertions; the smaller frontier is expanded first, w1's
        # on a tie, so w1's side empties first in one order and w2's in
        # the other
        stuck, free = word(4, (1, 2, 3), (1, 2, 4), (1, 2, 3)), word(4, (1, 2, 4))
        assert bounded_equal(stuck, free, 1000, 3).stats == SearchStats(1, 2, 2, "exhausted")
        assert bounded_equal(free, stuck, 1000, 3).stats == SearchStats(2, 9, 8, "exhausted")

    def test_stats_take_no_part_in_equality(self):
        stats = SearchStats(3, 4, 2, "found")
        assert EqualityVerdict.equal((), stats) == EqualityVerdict.equal(())
        assert hash(EqualityVerdict.unknown(stats)) == hash(EqualityVerdict.unknown())

    def test_stored_letter_cap(self, monkeypatch):
        monkeypatch.setattr(group_core, "MAX_STORED_LETTERS", 1000)
        stored = []
        for length in (2, 10):
            w1 = word(12, *((1, 2, k) for k in range(3, 3 + length)))
            stats = bounded_equal(w1, GWord(12, w1.letters[::-1]), 1000, length + 2).stats
            assert (stats.expanded, stats.stop) == (1, "limit")
            stored.append(stats.stored)
        # letters are counted over both ends as each word is stored, and
        # every word of the first expansion is a square inserted into w1:
        # 2*2 + 250*4 and 2*10 + 82*12 letters are the first counts past
        # the cap
        assert stored == [252, 84]
        # w1's first expansion stores 660 words of 4 letters and fits under
        # 3,000; the letters of w2's side go on the same count, which its
        # 90th word takes past the cap
        monkeypatch.setattr(group_core, "MAX_STORED_LETTERS", 3000)
        w1 = word(12, (1, 2, 3), (1, 2, 4))
        stats = bounded_equal(w1, GWord(12, w1.letters[::-1]), 1000, 4).stats
        assert (stats.expanded, stats.stored, stats.stop) == (2, 2 + 660 + 90, "limit")
