import dataclasses
import hashlib
import json
import random
import re
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from helpers import configuration_state, signed_index
from tribraid import (
    BadTriple,
    CollinearityEvent,
    Configuration,
    DimensionMismatch,
    FullTwistMove,
    GWord,
    GenTriple,
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
    embed_at_infinity,
    far_commutes,
    format_word,
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
)
from tribraid import geometry
from tribraid.errors import TribraidError
from tribraid.index_state import classify_word

F = Fraction


def P(x, y):
    return RationalPoint(F(x), F(y))


# ---------------------------------------------------------------------------
# A pure-Fraction oracle: the geometric predicates written directly on the
# rational coordinates, the reference the integer kernels must match.
# Configurations are tuples of points, strands are 1-based.


def _oracle_raise_if_collinear(points, s, others):
    px, py = points[s].x, points[s].y
    rel = [(k, points[k].x - px, points[k].y - py) for k in others]
    for (a, ax, ay), (b, bx, by) in combinations(rel, 2):
        if ax * by == ay * bx:
            a, b, c = sorted((a + 1, b + 1, s + 1))
            raise GenericityError(f"strands {a},{b},{c} are collinear")


def _oracle_full_check(points):
    n = len(points)
    for a, b in combinations(range(n), 2):
        if points[a] == points[b]:
            raise GenericityError(f"strands {a + 1} and {b + 1} coincide")
    for a in range(n - 2):
        _oracle_raise_if_collinear(points, a, range(a + 1, n))
    return points


def _oracle_moved(points, strand, target):
    pts = points[: strand - 1] + (target,) + points[strand:]
    others = [k for k in range(len(pts)) if k != strand - 1]
    for k in others:
        if pts[k] == target:
            a, b = sorted((k + 1, strand))
            raise GenericityError(f"strands {a} and {b} coincide")
    _oracle_raise_if_collinear(pts, strand - 1, others)
    return pts


def _oracle_dot(u, v):
    return u.x * v.x + u.y * v.y


def _oracle_central(ids_points):
    (i0, z0), (i1, z1), (i2, z2) = ids_points
    for mid_id, mid, o1, o2 in ((i0, z0, z1, z2), (i1, z1, z0, z2), (i2, z2, z0, z1)):
        d = _oracle_dot(o1 - mid, o2 - mid)
        if d == 0:
            raise GenericityError("moving strand meets another strand")
        if d < 0:
            return mid_id
    raise AssertionError("three distinct collinear points have a middle one")


def _oracle_segment_events(points, s, target):
    """Sorted (t, sorted triple, central) of the move, as the library's
    events are ordered by (t, triple)."""
    p0 = points[s - 1]
    d = target - p0
    rel = []
    for k, z in enumerate(points, start=1):
        if k != s:
            rx, ry = z.x - p0.x, z.y - p0.y
            rel.append((k, rx, ry, rx * d.y - ry * d.x))
    roots = []
    for (a, ax, ay, ad), (b, bx, by, bd) in combinations(rel, 2):
        num = ax * by - ay * bx
        den = bd - ad
        if num + den == 0:
            _oracle_moved(points, s, target)
        if den == 0:
            continue
        t = -num / den
        if 0 < t < 1:
            roots.append((t, a, b))
    events = [
        (
            t,
            tuple(sorted((s, a, b))),
            _oracle_central(((s, p0 + d * t), (a, points[a - 1]), (b, points[b - 1]))),
        )
        for t, a, b in roots
    ]
    return sorted(events)


def _oracle_ray_crossing(u, v):
    c = u.x * v.y - u.y * v.x
    # the moves are checked, so the difference path misses the origin
    assert u.norm2() and v.norm2() and not (c == 0 and _oracle_dot(u, v) < 0)
    if u.y <= 0 < v.y and c > 0:
        return 1
    if v.y <= 0 < u.y and c < 0:
        return -1
    return 0


def _oracle_linking(prog, i, j):
    """The winding of z_i - z_j, once every move is checked as the compiler
    checks it."""
    configs = [prog.initial.points]
    for mv in prog.moves:
        pts = configs[-1]
        if isinstance(mv, LinearMove):
            _oracle_segment_events(pts, mv.strand, mv.target)
            pts = _oracle_moved(pts, mv.strand, mv.target)
        elif len({pt.norm2() for pt in pts}) != 1:
            raise GenericityError(
                "full twist requires all strands on a common circle about the origin"
            )
        configs.append(pts)
    wn = sum(mv.turns for mv in prog.moves if isinstance(mv, FullTwistMove))
    for prev, cur in zip(configs, configs[1:]):
        wn += _oracle_ray_crossing(prev[i - 1] - prev[j - 1], cur[i - 1] - cur[j - 1])
    return wn


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GenericityError as exc:
        return type(exc).__name__, str(exc)


def _error_of(fn, *args):
    """None, or the type and message of the domain error `fn` raises."""
    try:
        fn(*args)
    except TribraidError as exc:
        return type(exc).__name__, str(exc)
    return None


def _random_generic_points(rng, n):
    """n generic points whose coordinates have small, mixed denominators."""
    while True:
        pts = tuple(
            P(
                F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))),
                F(rng.randint(-9, 9), rng.choice((1, 2, 5))),
            )
            for _ in range(n)
        )
        if _outcome(_oracle_full_check, pts)[0] == "ok":
            return pts


def _parabola_points(rng, n):
    """n points of the parabola y = x^2, which no line meets three times, in
    random strand order."""
    xs = set()
    while len(xs) < n:
        xs.add(F(rng.randint(-200, 200), rng.choice((1, 2, 3))))
    xs = rng.sample(sorted(xs), n)
    return tuple(P(x, x * x) for x in xs)


def _oracle_target(rng, pts, s):
    """A random target, one on a line through two static strands (an end
    configuration that is degenerate), one on a static strand, or one on the
    far side of a static strand from the mover (the mover meets it)."""
    statics = [k for k in range(1, len(pts) + 1) if k != s]
    kind = rng.randrange(4)
    if kind == 0:
        return P(
            F(rng.randint(-20, 20), rng.randint(1, 6)), F(rng.randint(-20, 20), rng.randint(1, 6))
        )
    a, b = rng.sample(statics, 2)
    za, zb = pts[a - 1], pts[b - 1]
    if kind == 1:
        return za + (zb - za) * F(rng.randint(-6, 6), rng.randint(1, 4))
    if kind == 2:
        return za
    return pts[s - 1] + (za - pts[s - 1]) * F(rng.randint(5, 12), 4)


class TestOrientation:
    def test_basic_signs(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1

    def test_a_point_prints_its_coordinates(self):
        assert str(P(F(1, 2), -3)) == "(1/2,-3)"

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

    def test_passes_the_full_check(self):
        # built without the check, which it must pass
        for n in range(4, 41):
            cfg = regular_rational_configuration(n)
            assert Configuration(n, cfg.points) == cfg

    @staticmethod
    def _half_angle_oracle(n):
        """The points by the tangent-half-angle map on Fractions."""
        pts = []
        for j in range(1, n + 1):
            beta = F(j, n)
            if beta > F(1, 2):
                beta -= 1
            if beta == F(1, 2):
                pts.append(P(-1, 0))
            else:
                t = 3 * beta / (1 - 4 * beta * beta)
                den = 1 + t * t
                pts.append(P((1 - t * t) / den, 2 * t / den))
        return tuple(pts)

    def test_matches_the_half_angle_oracle(self):
        for n in range(4, 101):
            assert regular_rational_configuration(n).points == self._half_angle_oracle(n)


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

    @pytest.mark.parametrize(
        "call, error",
        [
            # a bool is an int to Python, but not a strand or a strand count
            (lambda cfg: cfg.point(True), BadTriple),
            (lambda cfg: cfg.point(2.0), BadTriple),
            (lambda cfg: cfg.point("2"), BadTriple),
            (lambda cfg: compile_program(MoveProgram(cfg, [LinearMove(True, P(0, 2))])), BadTriple),
            (lambda cfg: geometric_linking(MoveProgram(cfg), 2, True), BadTriple),
            (lambda cfg: pure_braid_generator_program(4, 1.0, 2), BadTriple),
            (lambda cfg: Configuration("4", cfg.points), InvalidN),
            (lambda cfg: Configuration(4.0, cfg.points), InvalidN),
            (lambda cfg: Configuration(True, cfg.points), InvalidN),
            (lambda cfg: regular_rational_configuration("4"), InvalidN),
            (lambda cfg: regular_rational_configuration(4.0), InvalidN),
            (lambda cfg: random_closed_program("5"), InvalidN),
            (lambda cfg: pure_braid_generator_program("4", 1, 2), InvalidN),
            # each value refused where it is built, and anything but a point,
            # configuration or program refused by the readers of one
            (lambda cfg: RationalPoint("nan", 0), ProgramParseError),
            (lambda cfg: RationalPoint("3/0", 0), ProgramParseError),
            (lambda cfg: RationalPoint(0, "1e-4300"), ProgramParseError),
            (lambda cfg: RationalPoint(10**5000, 0), ProgramParseError),
            (lambda cfg: Configuration(4, (1, 2, 3, 4)), ProgramParseError),
            (lambda cfg: Configuration(4, None), ProgramParseError),
            (lambda cfg: Configuration(4, iter(cfg.points)), ProgramParseError),
            (lambda cfg: LinearMove(1, (0, 0)), ProgramParseError),
            (lambda cfg: LinearMove(1.0, P(0, 2)), BadTriple),
            (lambda cfg: LinearMove("1", P(0, 2)), BadTriple),
            (lambda cfg: MoveProgram("x", ()), ProgramParseError),
            (lambda cfg: MoveProgram(cfg, 5), InvalidMove),
            (lambda cfg: MoveProgram(cfg, ("x",)), InvalidMove),
            (lambda cfg: MoveProgram(cfg, (LinearMove(5, P(0, 2)),)), BadTriple),
            (lambda cfg: MoveProgram(cfg, (LinearMove(0, P(0, 2)),)), BadTriple),
            (lambda cfg: MoveProgram(cfg, (), closed=1), ProgramParseError),
            (lambda cfg: MoveProgram(cfg, (), closed=None), ProgramParseError),
            (lambda cfg: segment_events(cfg, 1, (0, 0)), ProgramParseError),
            (lambda cfg: segment_events(cfg.points, 1, P(0, 2)), ProgramParseError),
            (lambda cfg: orientation(P(0, 0), P(1, 0), (0, 1)), ProgramParseError),
            (lambda cfg: compile_program(cfg), ProgramParseError),
            (lambda cfg: program_to_json(cfg), ProgramParseError),
            (lambda cfg: program_power(cfg, 2), ProgramParseError),
            (lambda cfg: concat_programs(MoveProgram(cfg), cfg), ProgramParseError),
        ],
        ids=[
            "point-bool",
            "point-float",
            "point-str",
            "move-bool",
            "linking-bool",
            "gadget-float",
            "config-str",
            "config-float",
            "config-bool",
            "regular-str",
            "regular-float",
            "random-str",
            "gadget-str",
            "nan-text",
            "zero-denominator",
            "unprintable-text",
            "unprintable-int",
            "config-ints",
            "config-none",
            "config-iterator",
            "move-tuple-target",
            "move-float-strand",
            "move-str-strand",
            "program-str-initial",
            "program-int-moves",
            "program-str-move",
            "program-strand-above",
            "program-strand-zero",
            "program-int-closed",
            "program-none-closed",
            "segment-tuple-target",
            "segment-tuple-config",
            "orientation-tuple",
            "compile-config",
            "to-json-config",
            "power-config",
            "concat-config",
        ],
    )
    def test_wrong_types_raise_typed_errors(self, call, error):
        with pytest.raises(error):
            call(regular_rational_configuration(4))


class TestValuesAreCheckedWhereBuilt:
    """Each constructor owns the rules of the value it makes, so a bad part
    of a program raises when the program is built, not when it compiles."""

    def test_only_exact_types_are_coordinates(self):
        # a float, a bool or a subclass of Fraction or int is refused
        half = type("Half", (Fraction,), {})(1, 2)
        for value in (0.5, True, False, None, [1], half):
            with pytest.raises(TypeError):
                RationalPoint(value, 0)

    def test_decimals_and_text_read_as_the_json_reader_reads_them(self):
        assert RationalPoint(Decimal("0.25"), Decimal("-1E+2")) == P(F(1, 4), -100)
        for text in ("-12/8", "1e-400", " 3/4", "1_000", "0x10", "", "7" * 4301, "1e5000"):
            try:
                expected = geometry._point_from_json([text, "0"])
            except ProgramParseError:
                with pytest.raises(ProgramParseError):
                    RationalPoint(text, 0)
            else:
                assert RationalPoint(text, 0) == expected

    def test_a_huge_exponent_is_refused_before_it_is_built(self):
        # Fraction("1e2000000") builds a 6.6-Mbit numerator in about 0.5 s
        for value in ("1e2000000", Decimal("1e2000000"), "-1E-2000000"):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(ProgramParseError, match="exponent beyond 4300"):
                    RationalPoint(value, 0)
                best = min(best, time.perf_counter() - start)
            assert best < 0.01

    def test_a_bad_strand_raises_when_built_not_when_compiled(self, monkeypatch):
        cfg = regular_rational_configuration(4)
        walked = []
        monkeypatch.setattr(geometry, "_move_events", lambda *args: walked.append(args))
        with pytest.raises(BadTriple, match="strand 9 out of range 1..4"):
            MoveProgram(cfg, (LinearMove(1, P(0, 2)), LinearMove(9, P(0, 2))))
        assert walked == []


class TestIntegerKernelOracle:
    """The integer kernels against the pure-Fraction oracle above: the same
    events, configurations and winding numbers, and the same error type and
    message."""

    def test_segment_events_moved_and_full_check(self):
        rng = random.Random(61)
        seen = Counter()
        for trial in range(506):
            if trial < 500:
                n = rng.randint(4, 8)
                pts = _random_generic_points(rng, n)
            else:
                # 30-40 strands, and the full check also on two planted
                # collinear triples through one strand
                n = rng.randint(30, 40)
                pts = _parabola_points(rng, n)
                planted = list(pts)
                a, b, c, d, e = rng.sample(range(n), 5)
                for x, y in ((b, c), (d, e)):
                    t = F(rng.randint(-6, 6), rng.randint(1, 4))
                    planted[y] = pts[a] + (pts[x] - pts[a]) * t
                got = _outcome(Configuration, n, planted)
                assert got[0] == "GenericityError"
                assert got == _outcome(_oracle_full_check, tuple(planted))
            cfg = Configuration(n, pts)
            s = rng.randint(1, n)
            target = _oracle_target(rng, pts, s)
            expected = _outcome(_oracle_segment_events, pts, s, target)
            got = _outcome(segment_events, cfg, s, target)
            if got[0] == "ok":
                assert all(e.move_index == 0 for e in got[1])
                got = "ok", [(e.t, e.triple.elems, e.central) for e in got[1]]
                seen["events" if got[1] else "no events"] += 1
            else:
                seen[re.sub(r"[0-9]+", "#", got[1])] += 1
            assert got == expected
            full = pts[: s - 1] + (target,) + pts[s:]
            got = _outcome(Configuration, n, full)
            got = (got[0], got[1].points) if got[0] == "ok" else got
            assert got == _outcome(_oracle_full_check, full)
        # every outcome, including each error the kernels raise, is exercised
        assert min(seen.values()) >= 10 and set(seen) == {
            "events",
            "no events",
            "strands # and # coincide",
            "strands #,#,# are collinear",
            "moving strand meets another strand",
        }

    def test_full_check_names_the_first_of_many_degeneracies(self):
        # several coinciding pairs and collinear triples at once, which no
        # move end has: the one check still names the oracle's first
        rng = random.Random(67)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(5, 9)
            pts = list(_random_generic_points(rng, n))
            for _ in range(rng.randint(2, 4)):
                a, b, c = rng.sample(range(n), 3)
                if rng.randrange(2):
                    pts[b] = pts[a]
                else:
                    pts[c] = pts[a] + (pts[b] - pts[a]) * F(rng.randint(-6, 6), rng.randint(1, 4))
            got = _outcome(Configuration, n, pts)
            got = ("ok", got[1].points) if got[0] == "ok" else got
            assert got == _outcome(_oracle_full_check, tuple(pts))
            seen[re.sub(r"[0-9]+", "#", got[1]) if got[0] != "ok" else "ok"] += 1
        assert min(seen.values()) >= 20 and set(seen) == {
            "strands # and # coincide",
            "strands #,#,# are collinear",
        }

    def test_geometric_linking(self):
        rng = random.Random(71)
        progs = [random_closed_program(n, seed=seed) for n in (4, 6, 8) for seed in range(4)]
        progs += [pure_braid_generator_program(5, i, j) for i, j in ((1, 3), (4, 2))]
        for _ in range(150):
            n = rng.randint(4, 7)
            if rng.randrange(2):
                # a twist only where every strand is on the unit circle
                pts = regular_rational_configuration(n).points
                twist = (FullTwistMove(rng.choice((-1, 1))),)
            else:
                pts, twist = _random_generic_points(rng, n), ()
            s = rng.randint(1, n)
            target = _oracle_target(rng, pts, s)
            moves = (*twist, LinearMove(s, target), LinearMove(s, pts[s - 1]))
            progs.append(MoveProgram(Configuration(n, pts), moves))
        seen = Counter()
        for prog in progs:
            for i, j in permutations(range(1, prog.n + 1), 2):
                expected = _outcome(_oracle_linking, prog, i, j)
                assert _outcome(geometric_linking, prog, i, j) == expected
                seen[expected[0]] += 1
        assert min(seen.values()) >= 20
        assert set(seen) == {"ok", "GenericityError"}


class TestOneWalk:
    """Every reader of a program's configurations reads the one checked walk
    of its moves that `compile_program` reads."""

    def test_readers_fail_as_compile_fails(self):
        rng = random.Random(89)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(4, 6)
            if rng.randrange(2):
                pts = regular_rational_configuration(n).points
            else:
                pts = _random_generic_points(rng, n)
            cur, moves = pts, []
            for _ in range(rng.randint(1, 3)):
                if rng.randrange(4) == 0:  # off the circle unless nothing moved yet
                    moves.append(FullTwistMove(rng.choice((-1, 1))))
                else:
                    s = rng.randint(1, n)
                    target = _oracle_target(rng, cur, s)
                    moves.append(LinearMove(s, target))
                    cur = cur[: s - 1] + (target,) + cur[s:]
            prog = MoveProgram(Configuration(n, pts), tuple(moves))
            expected = _error_of(compile_program, dataclasses.replace(prog))
            seen[re.sub(r"[0-9]+", "#", expected[1]) if expected else "ok"] += 1
            for read in (boundary_configurations, inverse_program):
                assert _error_of(read, dataclasses.replace(prog)) == expected
            assert _error_of(geometric_linking, dataclasses.replace(prog), 1, 2) == expected
            if expected is None and any(isinstance(mv, FullTwistMove) for mv in moves):
                expected = "InvalidMove", "cannot embed a program containing full twists"
            assert _error_of(embed_at_infinity, dataclasses.replace(prog)) == expected
        assert min(seen.values()) >= 10 and set(seen) == {
            "ok",
            "strands # and # coincide",
            "strands #,#,# are collinear",
            "moving strand meets another strand",
            "full twist requires all strands on a common circle about the origin",
        }

    def test_compiled_program_is_not_checked_again(self, monkeypatch):
        progs = [
            pure_braid_generator_program(5, 2, 4),
            random_closed_program(6, seed=3),
            full_twist_program(4, 1),
        ]
        for prog in progs:
            compile_program(prog)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the integer kernel every linear move of a walk goes through
        monkeypatch.setattr(geometry, "_move_events", counted("events", geometry._move_events))
        monkeypatch.setattr(geometry, "_grid", counted("grid", geometry._grid))
        for prog in progs:
            for i, j in permutations(range(1, prog.n + 1), 2):
                geometric_linking(prog, i, j)
            boundary_configurations(prog)
            inverse_program(prog)
            program_power(prog, 3)
            program_power(prog, -2)
            concat_programs(prog, prog)
        assert calls == Counter()
        # the counters do count: a fresh copy is walked once, on one grid,
        # with one kernel call per linear move
        fresh = dataclasses.replace(progs[0])
        geometric_linking(fresh, 1, 2)
        compile_program(fresh)
        boundary_configurations(fresh)
        assert calls == Counter(events=len(fresh.moves), grid=1)


class TestGenericityProbe:
    """`random_closed_program` asks only whether a move is generic, and reads
    the answer off the root kernel `_move_roots`, on one grid of the regular
    points and its draws, without building any event."""

    def test_root_kernel_accepts_exactly_what_segment_events_accepts(self):
        seen = Counter()
        for n in range(5, 11):
            rng = random.Random(n)
            for cfg in boundary_configurations(random_closed_program(n, seed=n)):
                for _ in range(20):
                    s = rng.randint(1, n)
                    a, b = rng.sample([k for k in range(1, n + 1) if k != s], 2)
                    zs, za, zb = cfg.point(s), cfg.point(a), cfg.point(b)
                    drawn = P(
                        F(rng.randint(-2400, 2400), 1200), F(rng.randint(-2400, 2400), 1200)
                    )
                    # a target from the generator's draw grid, an end on the
                    # line ab, a path through strand a, and a target on it
                    for target in (drawn, za + (zb - za) * 2, zs + (za - zs) * 2, za):
                        got = _outcome(segment_events, cfg, s, target)
                        grid, _ = geometry._grid(cfg.points + (target,))
                        end = grid.pop()
                        roots = _outcome(geometry._move_roots, grid, s, end)
                        if got[0] != "ok":
                            assert roots == got
                            seen[re.sub(r"[0-9]+", "#", got[1])] += 1
                            continue
                        assert roots[0] == "ok"
                        assert all(den > 0 and gcd(num, den) == 1 for num, den, *_ in roots[1])
                        assert got[1] == [
                            CollinearityEvent(0, F(num, den), GenTriple(n, (s, x, y)), central)
                            for num, den, x, y, central in roots[1]
                        ]
                        seen["events" if got[1] else "no events"] += 1
        assert min(seen.values()) >= 10 and set(seen) == {
            "events",
            "no events",
            "strands # and # coincide",
            "strands #,#,# are collinear",
            "moving strand meets another strand",
        }

    def test_random_program_draws_on_one_grid(self, monkeypatch):
        # the regular points are gridded once, with room for every draw,
        # and each draw is probed on that grid, however many are redrawn
        calls = []
        grid = geometry._grid
        monkeypatch.setattr(geometry, "_grid", lambda points: calls.append(1) or grid(points))
        for n in range(4, 11):
            for seed in range(6):
                calls.clear()
                random_closed_program(n, seed=seed)
                assert calls == [1]


class TestEventPins:
    """SHA-256 of every compiled event (move, time, triple, central), taken
    from the pure-Fraction implementation of the predicates."""

    @staticmethod
    def _digest(programs) -> str:
        h = hashlib.sha256()
        for label, prog in programs:
            h.update(f"{label}\n".encode())
            for e in compile_program(prog).events:
                h.update(f"{e.move_index} {e.t} {e.triple} {e.central}\n".encode())
        return h.hexdigest()

    def test_gadget_events_pinned(self):
        programs = (
            (f"gadget {n} {i} {j}", pure_braid_generator_program(n, i, j))
            for n in range(4, 10)
            for i, j in permutations(range(1, n + 1), 2)
        )
        assert self._digest(programs) == (
            "d6e838e17b96d363f4b3a025835c6f0326b98679a0bc7ff930a1291cebc77523"
        )

    def test_random_program_events_pinned(self):
        programs = (
            (f"random {n} {seed}", random_closed_program(n, seed=seed))
            for n in range(4, 11)
            for seed in range(40)
        )
        assert self._digest(programs) == (
            "2bf17168ceaa4f45e311fe6fe4e41357dbb43dad2c3e55746e418dfd902a87fd"
        )


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
        for seed in range(15):
            prog = random_closed_program(5, seed=seed)
            configs = boundary_configurations(prog)
            for mv, cur, nxt in zip(prog.moves, configs, configs[1:]):
                events = segment_events(cur, mv.strand, mv.target)
                by_triple = Counter(e.triple.elems for e in events)
                for t in combinations(range(1, 6), 3):
                    o0 = orientation(*(cur.point(s) for s in t))
                    o1 = orientation(*(nxt.point(s) for s in t))
                    assert by_triple.get(t, 0) == (1 if o0 != o1 else 0)

    def test_event_times_are_exact_roots(self):
        prog = random_closed_program(4, seed=9)
        for mv, cur in zip(prog.moves, boundary_configurations(prog)):
            p0 = cur.point(mv.strand)
            d = mv.target - p0
            for e in segment_events(cur, mv.strand, mv.target):
                a, b = (s for s in e.triple.elems if s != mv.strand)
                pos = p0 + d * e.t
                assert orientation(pos, cur.point(a), cur.point(b)) == 0


class TestCompile:
    def test_out_and_back(self):
        cfg = regular_rational_configuration(4)
        prog = MoveProgram(
            cfg, (LinearMove(4, P(F(-1, 2), 0)), LinearMove(4, P(1, 0))), closed=True
        )
        out = compile_program(prog)
        assert [g.elems for g in out.word.letters] == [(1, 3, 4), (1, 3, 4)]
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

    def test_a_strand_does_not_link_itself(self):
        with pytest.raises(BadTriple, match="two distinct strands"):
            geometric_linking(full_twist_program(4, 1), 2, 2)

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
        # strand 1 runs through strand 2: linking raises what compiling raises
        cfg = regular_rational_configuration(4)
        through = cfg.point(2) * 2 - cfg.point(1)
        prog = MoveProgram(cfg, (LinearMove(1, through),))
        with pytest.raises(GenericityError) as compiled:
            compile_program(prog)
        with pytest.raises(GenericityError) as linked:
            geometric_linking(dataclasses.replace(prog), 1, 2)
        assert str(linked.value) == str(compiled.value) == "moving strand meets another strand"

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
        # the return run reads the outward letters backwards
        assert len(w) % 2 == 0 and w.letters == w.letters[::-1]
        assert run_word(initial_state(4), w) == initial_state(4)

    def test_concat_needs_the_second_to_start_where_the_first_ends(self):
        prog = pure_braid_generator_program(4, 1, 3)
        away = MoveProgram(prog.initial, (LinearMove(4, P(F(-1, 2), 0)),))
        elsewhere = MoveProgram(boundary_configurations(away)[-1])
        assert concat_programs(away, elsewhere).moves == away.moves
        with pytest.raises(DimensionMismatch, match="does not start at the first one's end"):
            concat_programs(prog, elsewhere)

    def test_powers(self):
        prog = pure_braid_generator_program(4, 1, 3)
        for k in (-2, -1, 0, 1, 2):
            pk = program_power(prog, k)
            assert pk.closed
            assert geometric_linking(pk, 1, 3) == k

    def test_power_of_an_open_program_raises_not_closed(self):
        cfg = regular_rational_configuration(4)
        away = (LinearMove(4, P(F(-1, 2), 0)),)
        for closed in (True, False):
            prog = MoveProgram(cfg, away, closed=closed)
            for k in (-2, -1, 0, 1, 2):
                with pytest.raises(NotClosed):
                    program_power(prog, k)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2", True, False, None])
    def test_power_needs_an_int_exponent(self, k):
        # a bool is not a count: True would run as k=1
        with pytest.raises(InvalidMove):
            program_power(pure_braid_generator_program(4, 1, 3), k)

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

    @pytest.mark.parametrize(
        "n, i, j",
        # diametric pairs need the smallest loops, adjacent ones the largest
        [
            (n, i, j)
            for n in (16, 32, 64)
            for i, j in ((1, n // 2), (1, n // 2 + 1), (n // 2 + 1, 1), (1, 2), (n, 1))
        ]
        # the smallest pairs where the largest loop that holds no other strand
        # has a corner on a line through two strands
        + [(20, 10, 5), (20, 10, 15), (20, 10, 20), (24, 3, 12)],
    )
    def test_links_exactly_its_pair_once(self, n, i, j):
        # the shapes are computed without compiling them
        prog = pure_braid_generator_program(n, i, j)
        assert is_realisable(compile_program(prog).word)
        row = [geometric_linking(prog, i, k) for k in range(1, n + 1) if k != i]
        assert row == [int(k == j) for k in range(1, n + 1) if k != i]

    def test_programs_pinned(self):
        # SHA-256 of every gadget's JSON at n = 4..12, taken from the
        # construction that built its waypoints from RationalPoint arithmetic
        # and compared every shear's scale
        h = hashlib.sha256()
        for n in range(4, 13):
            for i, j in permutations(range(1, n + 1), 2):
                h.update(json.dumps(program_to_json(pure_braid_generator_program(n, i, j))).encode())
        assert h.hexdigest() == "69b4d213078d485aa21a657399332d74469bdce9a216256babec8f5f7020b60c"

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

    def test_invalid_base_raises_its_own_error(self):
        cfg = regular_rational_configuration(4)
        collinear = MoveProgram(cfg, (LinearMove(4, P(0, 2)),))  # with strands 1 and 3
        with pytest.raises(GenericityError) as info:
            embed_at_infinity(collinear)
        assert str(info.value) == "strands 1,3,4 are collinear"
        open_but_marked_closed = MoveProgram(cfg, (LinearMove(4, P(F(1, 2), 0)),), closed=True)
        with pytest.raises(NotClosed):
            embed_at_infinity(open_but_marked_closed)

    def test_far_point(self):
        # R is the smallest power of two >= 8 right of every point a program
        # visits; d = 1 unless (R, 1) is on a line through two of its points
        cfg = regular_rational_configuration(4)
        assert embed_at_infinity(MoveProgram(cfg, ())).initial.point(5) == P(8, 1)
        for x, far in ((F(15, 2), P(8, 1)), (8, P(16, 1)), (17, P(32, 1))):
            out_and_back = (LinearMove(4, P(x, F(1, 3))), LinearMove(4, cfg.point(4)))
            emb = embed_at_infinity(MoveProgram(cfg, out_and_back, closed=True))
            assert emb.initial.point(5) == far
            compile_program(emb)

    def test_embeddings_pinned(self):
        # SHA-256 of the embedded programs, taken from the construction that
        # compiled each candidate far point in turn
        h = hashlib.sha256()
        bases = [random_closed_program(n, seed) for n in range(4, 11) for seed in (0, 147)]
        bases += [pure_braid_generator_program(4, 3, j) for j in (1, 2, 4)]
        for base in bases:
            h.update(json.dumps(program_to_json(embed_at_infinity(base))).encode())
        assert h.hexdigest() == "70a79576d2dd047fcdce36a1245974666c02872e4cc26e6ed2e4fdb136103013"


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

    def test_rejected_wander_move_is_redrawn(self):
        # seed 1604's first wander draw is not generic; the second is kept
        prog = random_closed_program(4, seed=1604)
        assert program_to_json(prog) == {
            "n": 4,
            "initial": [["0", "1"], ["-1", "0"], ["0", "-1"], ["1", "0"]],
            "moves": [
                {"type": "line", "strand": 2, "to": ["83/1200", "1207/1200"]},
                {"type": "line", "strand": 2, "to": ["-1", "0"]},
            ],
            "closed": True,
        }
        assert prog.closed and format_word(compile_program(prog).word) == "a123 a124 a124 a123"

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

    def test_coordinates_read_as_fraction_reads_them(self):
        texts = ["1_000", " 3/4", "+3", "-0", "--1", "\u0663/4", "3/0", "1/-2", "1e5", "0x10"]
        texts += ["7" * 4301, "-12/8", "007/010", "-", "3/", "/4", "2/3/4", "-5"]
        for text in texts:
            try:
                expected = F(text)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(ProgramParseError):
                    geometry._point_from_json([text, "0"])
            else:
                assert geometry._point_from_json([text, text]) == P(expected, expected)

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
        # int() would load 1.5 turns as one, strand 1.9 as strand 1 and "4"
        # or 4.2 strands as 4, and bool() would read "no" as closed
        line = program_to_json(pure_braid_generator_program(4, 1, 3))["moves"][0]
        bads = [dict(good, n=value) for value in (4.2, 4.0, "4", True)]
        bads += [dict(good, moves=[dict(line, strand=value)]) for value in (1.9, 1.0, "1", True)]
        bads += [dict(good, moves=[{"type": "twist", "turns": v}]) for v in (1.5, 1.0, "1", True)]
        bads += [dict(good, closed=value) for value in ("no", "false", 0, 1, None)]
        for bad in bads:
            with pytest.raises(ProgramParseError):
                program_from_json(bad)

    def test_shape_errors(self):
        good = program_to_json(pure_braid_generator_program(4, 1, 3))
        line = good["moves"][0]
        for bad in (
            dict(good, initial=[["0", "1"], ["-1"], ["0", "-1"], ["1", "0"]]),
            dict(good, initial=[["0", "1"], "-1 0", ["0", "-1"], ["1", "0"]]),
            dict(good, moves=[dict(line, to=["0", "1", "2"])]),
            dict(good, moves=[dict(line, to=None)]),
            dict(good, moves=[{k: v for k, v in line.items() if k != "type"}]),
            dict(good, moves=[["line", 1, ["0", "0"]]]),
            {k: v for k, v in good.items() if k != "n"},
            {k: v for k, v in good.items() if k != "initial"},
        ):
            with pytest.raises(ProgramParseError, match="point must|move must|program:|initial"):
                program_from_json(bad)
