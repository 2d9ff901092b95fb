import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tribraid import (
    BadTriple,
    Configuration,
    DegeneratePath,
    FullTwistMove,
    GWord,
    GenericityError,
    InvalidMove,
    InvalidN,
    LinearMove,
    MoveProgram,
    NotClosed,
    ProgramParseError,
    RationalPoint,
    annular_invariants,
    boundary_configurations,
    compile_program,
    concat_programs,
    configuration_state,
    embed_at_infinity,
    far_commutes,
    free_reduce,
    full_twist_program,
    geometric_linking,
    initial_state,
    inverse_program,
    is_realisable,
    orientation,
    program_from_json,
    program_power,
    program_to_json,
    pure_braid_generator_program,
    random_closed_program,
    reconstruct_axis,
    regular_rational_configuration,
    run_word,
    segment_events,
    signed_index,
)
from tribraid.index_state import classify_word

F = Fraction


def P(x, y):
    return RationalPoint(F(x), F(y))


class TestOrientation:
    def test_basic_signs(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1

    def test_antisymmetry(self):
        rng = random.Random(41)
        for _ in range(100):
            pts = [P(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
            a, b, c = pts
            assert orientation(a, b, c) == -orientation(b, a, c) == -orientation(a, c, b)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RationalPoint(0.5, 0)


class TestRegularConfiguration:
    def test_n4_exact_square(self):
        cfg = regular_rational_configuration(4)
        assert cfg.points == (P(0, 1), P(-1, 0), P(0, -1), P(1, 0))

    def test_unit_circle(self):
        for n in range(4, 9):
            cfg = regular_rational_configuration(n)
            assert all(pt.norm2() == 1 for pt in cfg.points)

    def test_orientations_match_initial_state(self):
        for n in range(4, 9):
            cfg = regular_rational_configuration(n)
            s = initial_state(n)
            for i, j, k in permutations(range(1, n + 1), 3):
                assert orientation(cfg.point(i), cfg.point(j), cfg.point(k)) == signed_index(s, i, j, k)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            regular_rational_configuration(3)


class TestConfiguration:
    def test_rejects_collinear_and_duplicate(self):
        with pytest.raises(GenericityError):
            Configuration(4, (P(0, 0), P(1, 0), P(2, 0), P(0, 1)))
        with pytest.raises(GenericityError):
            Configuration(4, (P(0, 1), P(0, 1), P(1, 0), P(2, 3)))

    def test_strand_lookup(self):
        cfg = regular_rational_configuration(4)
        assert cfg.point(2) == P(-1, 0)
        with pytest.raises(BadTriple):
            cfg.point(5)

    def test_moved_matches_full_check(self):
        # moved re-checks only the triples through the moved strand; on a
        # generic source it must agree with the full check on every target
        rng = random.Random(53)
        rejected = 0
        for _ in range(300):
            n = rng.randint(4, 7)
            while True:
                pts = [P(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)]
                try:
                    cfg = Configuration(n, pts)
                    break
                except GenericityError:
                    continue
            s = rng.randint(1, n)
            a, b = rng.sample([k for k in range(1, n + 1) if k != s], 2)
            za, zb = cfg.point(a), cfg.point(b)
            target = rng.choice([
                P(rng.randint(-6, 6), rng.randint(-6, 6)),
                za + (zb - za) * F(rng.randint(-5, 5), rng.randint(1, 4)),
                za,
            ])
            full = pts[: s - 1] + [target] + pts[s:]
            try:
                expected = Configuration(n, full)
            except GenericityError as exc:
                rejected += 1
                with pytest.raises(GenericityError, match=re.escape(str(exc))):
                    cfg.moved(s, target)
                continue
            assert cfg.moved(s, target) == expected
        assert 100 < rejected < 250  # both outcomes are well exercised


class TestSegmentEvents:
    def test_single_event_exact(self):
        cfg = regular_rational_configuration(4)
        events = segment_events(cfg, 4, P(F(-1, 2), 0))
        assert len(events) == 1
        e = events[0]
        assert e.t == F(2, 3)
        assert e.triple.elems == (1, 3, 4)
        assert e.central == 4

    def test_no_event_move(self):
        cfg = regular_rational_configuration(4)
        assert segment_events(cfg, 4, P(F(1, 2), F(1, 2))) == []

    def test_endpoint_collision(self):
        cfg = regular_rational_configuration(4)
        with pytest.raises(GenericityError):
            segment_events(cfg, 4, P(-1, 0))

    def test_endpoint_collinearity(self):
        cfg = regular_rational_configuration(4)
        with pytest.raises(GenericityError):
            segment_events(cfg, 4, P(0, 2))

    def test_simultaneous_events_far_commute(self):
        # aim strand 5 so it crosses the (1,2) and (3,4) chords at one moment:
        # by mirror symmetry both chords meet the x-axis at the same point Q
        cfg = regular_rational_configuration(5)
        p1, p2 = cfg.point(1), cfg.point(2)
        d = p2 - p1
        s = -p1.y / d.y
        qx = p1.x + s * d.x
        target = P(2 * qx - 1, 0)
        events = segment_events(cfg, 5, target)
        by_time = {}
        for e in events:
            by_time.setdefault(e.t, []).append(str(e.triple))
        assert by_time[F(29, 142)] == ["a135", "a245"]
        assert by_time[F(1, 2)] == ["a125", "a345"]
        assert [e.t for e in events] == sorted(e.t for e in events)
        for e1, e2 in zip(events, events[1:]):
            if e1.t == e2.t:
                assert e1.triple < e2.triple and far_commutes(e1.triple, e2.triple)

    def test_event_counts_match_orientation_flips(self):
        rng = random.Random(43)
        for seed in range(15):
            prog = random_closed_program(5, seed=seed)
            cur = prog.initial
            for idx, mv in enumerate(prog.moves):
                events = segment_events(cur, mv.strand, mv.target, move_index=idx)
                nxt = cur.moved(mv.strand, mv.target)
                by_triple = Counter(e.triple.elems for e in events)
                for t in combinations(range(1, 6), 3):
                    o0 = orientation(*(cur.point(s) for s in t))
                    o1 = orientation(*(nxt.point(s) for s in t))
                    assert by_triple.get(t, 0) == (1 if o0 != o1 else 0)
                cur = nxt

    def test_event_times_are_exact_roots(self):
        prog = random_closed_program(4, seed=9)
        cur = prog.initial
        for mv in prog.moves:
            p0 = cur.point(mv.strand)
            d = mv.target - p0
            for e in segment_events(cur, mv.strand, mv.target):
                a, b = (s for s in e.triple.elems if s != mv.strand)
                pos = p0 + d * e.t
                assert orientation(pos, cur.point(a), cur.point(b)) == 0
            cur = cur.moved(mv.strand, mv.target)


class TestCompile:
    def test_out_and_back(self):
        cfg = regular_rational_configuration(4)
        prog = MoveProgram(
            cfg, (LinearMove(4, P(F(-1, 2), 0)), LinearMove(4, P(1, 0))), closed=True
        )
        out = compile_program(prog)
        assert [g.elems for g in out.word.letters] == [(1, 3, 4), (1, 3, 4)]
        assert free_reduce(out.word) == GWord(4)
        assert run_word(initial_state(4), out.word) == initial_state(4)

    def test_full_twist_emits_nothing(self):
        out = compile_program(full_twist_program(4, 1))
        assert out.word == GWord(4) and out.twist_turns == 1
        assert compile_program(full_twist_program(4, -2)).twist_turns == -2
        compile_program(full_twist_program(5, 1))

    def test_twist_requires_common_circle(self):
        cfg = regular_rational_configuration(4)
        prog = MoveProgram(cfg, (LinearMove(4, P(F(1, 2), 0)), FullTwistMove(1)))
        with pytest.raises(GenericityError):
            compile_program(prog)

    def test_twist_turns_nonzero(self):
        with pytest.raises(InvalidMove):
            FullTwistMove(0)

    def test_not_closed_detected(self):
        cfg = regular_rational_configuration(4)
        prog = MoveProgram(cfg, (LinearMove(4, P(F(-1, 2), 0)),), closed=True)
        with pytest.raises(NotClosed):
            compile_program(prog)

    def test_empty_program(self):
        cfg = regular_rational_configuration(4)
        out = compile_program(MoveProgram(cfg, (), closed=True))
        assert out.word == GWord(4) and out.events == () and out.twist_turns == 0


class TestGeometricLinking:
    def test_full_twist_links_every_pair(self):
        prog = full_twist_program(4, 1)
        for i, j in combinations(range(1, 5), 2):
            assert geometric_linking(prog, i, j) == 1
        prog = full_twist_program(4, -2)
        assert geometric_linking(prog, 1, 3) == -2

    def test_empty_program_zero(self):
        prog = MoveProgram(regular_rational_configuration(4), (), closed=True)
        assert geometric_linking(prog, 1, 2) == 0

    def test_generator_program_matrix(self):
        prog = pure_braid_generator_program(4, 1, 3)
        expected = {(1, 3): 1}
        for i, j in combinations(range(1, 5), 2):
            assert geometric_linking(prog, i, j) == expected.get((i, j), 0)

    def test_interleaved_programs_match_fresh_calls(self):
        progs = [pure_braid_generator_program(5, 1, 3), random_closed_program(5, seed=1)]
        pairs = list(combinations(range(1, 6), 2))
        fresh = {
            (k, pair): geometric_linking(dataclasses.replace(prog), *pair)
            for k, prog in enumerate(progs)
            for pair in pairs
        }
        for pair in pairs:
            for k, prog in enumerate(progs):
                assert geometric_linking(prog, *pair) == fresh[k, pair]
                assert geometric_linking(prog, *pair[::-1]) == fresh[k, pair]

    def test_invalid_program_raises_on_every_call(self):
        good = pure_braid_generator_program(4, 1, 3)
        cfg = regular_rational_configuration(4)
        bad = MoveProgram(cfg, (LinearMove(4, P(0, 2)),))  # collinear with 1 and 3
        for _ in range(3):
            with pytest.raises(GenericityError):
                geometric_linking(bad, 1, 2)
            assert geometric_linking(good, 1, 3) == 1
        with pytest.raises(BadTriple):
            geometric_linking(good, 1, 5)

    def test_degenerate_path(self):
        cfg = regular_rational_configuration(4)
        through = cfg.point(2) * 2 - cfg.point(1)
        prog = MoveProgram(cfg, (LinearMove(1, through),))
        with pytest.raises(DegeneratePath):
            geometric_linking(prog, 1, 2)

    def test_subdivision_invariance(self):
        rng = random.Random(47)
        for seed in range(8):
            prog = random_closed_program(4, seed=seed)
            k = rng.randrange(len(prog.moves))
            configs = boundary_configurations(prog)
            mv = prog.moves[k]
            start = configs[k].point(mv.strand)
            mid = start + (mv.target - start) * F(1, 3)
            try:
                split = MoveProgram(
                    prog.initial,
                    prog.moves[:k] + (LinearMove(mv.strand, mid), mv) + prog.moves[k + 1 :],
                    closed=True,
                )
                compile_program(split)
            except GenericityError:
                continue  # midpoint landed on a boundary degeneracy; skip
            for i, j in combinations(range(1, 5), 2):
                assert geometric_linking(split, i, j) == geometric_linking(prog, i, j)


class TestGeneratorProgram:
    def test_closed_and_realisable(self):
        for i, j in ((1, 3), (1, 2), (2, 4)):
            prog = pure_braid_generator_program(4, i, j)
            assert prog.closed
            out = compile_program(prog)
            assert is_realisable(out.word)
            assert run_word(initial_state(4), out.word) == initial_state(4)
            assert all(c % 2 == 0 for c in Counter(out.word.letters).values())

    def test_inverse_concat_cancels(self):
        prog = pure_braid_generator_program(4, 1, 3)
        both = concat_programs(prog, inverse_program(prog))
        assert both.closed
        w = compile_program(both).word
        assert free_reduce(w) == GWord(4)
        assert run_word(initial_state(4), w) == initial_state(4)

    def test_powers(self):
        prog = pure_braid_generator_program(4, 1, 3)
        for k in (-2, -1, 0, 1, 2):
            pk = program_power(prog, k)
            assert pk.closed
            assert geometric_linking(pk, 1, 3) == k

    def test_every_pair_round_trips(self):
        for n in range(4, 8):
            for i, j in permutations(range(1, n + 1), 2):
                prog = pure_braid_generator_program(n, i, j)
                assert prog.closed
                word = compile_program(prog).word  # checks that it closes
                cw = classify_word(word)
                assert cw.realisable and cw.final_state == initial_state(n)
                row = [geometric_linking(prog, i, k) for k in range(1, n + 1) if k != i]
                assert row == [int(k == j) for k in range(1, n + 1) if k != i]
                axis = min(k for k in range(1, n + 1) if k not in (i, j))
                inv = annular_invariants(reconstruct_axis(word, axis))
                assert inv.is_identity
                linked = {pair for pair, value in inv.linking if value}
                assert linked == {tuple(sorted((i, j)))}
                assert inv.linking_of(i, j) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(BadTriple):
            pure_braid_generator_program(4, 2, 2)
        with pytest.raises(InvalidN):
            pure_braid_generator_program(3, 1, 2)


class TestEmbedding:
    def test_restriction_recovers_original(self):
        for seed in range(10):
            base = random_closed_program(4, seed=seed)
            emb = embed_at_infinity(base)
            assert emb.n == 5 and emb.closed == base.closed
            w4 = compile_program(base).word
            w5 = compile_program(emb).word
            kept = tuple(g.elems for g in w5.letters if 5 not in g.elems)
            assert kept == tuple(g.elems for g in w4.letters)

    def test_embedded_word_realisable_from_its_configuration(self):
        base = pure_braid_generator_program(4, 1, 2)
        emb = embed_at_infinity(base)
        w5 = compile_program(emb).word
        assert classify_word(w5, start=configuration_state(emb.initial)).realisable

    def test_empty_program(self):
        base = MoveProgram(regular_rational_configuration(4), (), closed=True)
        emb = embed_at_infinity(base)
        assert compile_program(emb).word == GWord(5)

    def test_open_program_stays_open(self):
        cfg = regular_rational_configuration(4)
        base = MoveProgram(cfg, (LinearMove(4, P(F(1, 2), F(1, 2))),), closed=False)
        assert not embed_at_infinity(base).closed

    def test_rejects_full_twists(self):
        with pytest.raises(InvalidMove):
            embed_at_infinity(full_twist_program(4, 1))


class TestRandomPrograms:
    def test_deterministic_and_valid(self):
        assert random_closed_program(4, seed=3) == random_closed_program(4, seed=3)
        seen = set()
        for n in (4, 5):
            for seed in range(20):
                prog = random_closed_program(n, seed=seed)
                assert len(prog.moves) <= 10
                out = compile_program(prog)
                seen.add(out.word)
                assert run_word(initial_state(n), out.word) == initial_state(n)
        assert len(seen) > 10  # seeds genuinely vary

    def test_compiled_state_tracks_configuration(self):
        prog = random_closed_program(4, seed=12)
        out = compile_program(prog)
        cw = classify_word(out.word)
        assert cw.final_state == configuration_state(boundary_configurations(prog)[-1])


class TestProgramJson:
    def test_round_trip(self):
        prog = pure_braid_generator_program(4, 1, 3)
        obj = json.loads(json.dumps(program_to_json(prog)))
        assert program_from_json(obj) == prog

    def test_twist_round_trip(self):
        prog = full_twist_program(5, -2)
        assert program_from_json(program_to_json(prog)) == prog

    def test_handwritten_json_document(self):
        obj = {
            "n": 4,
            "initial": [["0", "1"], ["-1", "0"], ["0", "-1"], ["1", "0"]],
            "moves": [
                {"type": "line", "strand": 4, "to": ["-1/2", "0"]},
                {"type": "line", "strand": 4, "to": ["1", "0"]},
            ],
            "closed": True,
        }
        prog = program_from_json(obj)
        out = compile_program(prog)
        assert [g.elems for g in out.word.letters] == [(1, 3, 4), (1, 3, 4)]

    def test_parse_errors(self):
        with pytest.raises(ProgramParseError):
            program_from_json([])
        with pytest.raises(ProgramParseError):
            program_from_json({"n": 4, "initial": "nope"})
        with pytest.raises(ProgramParseError):
            program_from_json({"n": 4, "initial": [["0", "1"]] * 4})  # duplicates
        good = program_to_json(full_twist_program(4, 1))
        bad = dict(good, moves=[{"type": "warp"}])
        with pytest.raises(ProgramParseError):
            program_from_json(bad)
        bad = dict(good, moves=[{"type": "line", "strand": 9, "to": ["0", "0"]}])
        with pytest.raises(ProgramParseError):
            program_from_json(bad)
