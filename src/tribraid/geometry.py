"""Exact rational plane geometry for one-strand-at-a-time motions.

Inputs and outputs are `fractions.Fraction`s, and no float is used
anywhere.  Every predicate is the sign of an integer polynomial: the points
it reads are first scaled to integer numerators over one common
denominator (`_grid`), which changes no sign and no event time.  Because
only one strand moves per segment, each triple's collinearity condition is
linear in the time parameter, so event times are exact rationals with an
exact total order.  A program is walked on one grid: its initial points and
every move's target share the denominator, and `Fraction`s are built only
for the event times the walk returns; `boundary_configurations` is built on
request from the checked walk's points.  A random program's draws share one
grid with the regular configuration.  One grid check, `_check_generic`,
reports every degeneracy, of a configuration and of a move's end alike.
Orientation is +1 for positively oriented (counterclockwise) triangles,
calibrated so that the rational regular configuration carries the all-plus
initial orientation state on sorted triples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, cmp_to_key
from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm

from .errors import (
    BadTriple,
    ConstructionFailure,
    DimensionMismatch,
    GenericityError,
    InvalidMove,
    NotClosed,
    ProgramParseError,
    TribraidError,
    check_n,
    clip,
)
from .group_core import GWord, GenTriple


# the largest power of ten a coordinate's text may carry, as many as the
# digits Python reads into an int by default: Fraction("1e999999999") would
# build a billion-digit integer
_MAX_EXPONENT = 4300


def _rational(value) -> Fraction:
    """A coordinate, read exactly from its text: an int, a string such as
    "3/10" or "1e-400", or a JSON number kept as its text (a `Decimal`);
    one Python cannot read or print raises `ProgramParseError`."""
    try:
        text = str(value)
        # the int and "p/q" branch is a fast path, not a second reading: without
        # it `motion` fell about 3.5 % over 4 alternating 10-s pairs (all four
        # worse), and 1.6-3.4 % over 3 more, on a shared 2-core x86-64 machine
        num, slash, den = text.partition("/")
        digits = num.removeprefix("-") + den
        if digits.isascii() and digits.isdigit():
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProgramParseError(f"bad rational {clip(value)}: {exc}") from None
    try:  # "1e-4300" reads, but its denominator has one digit more than prints
        str(value)
    except ValueError:
        raise ProgramParseError(f"{clip(text)} has more digits than Python prints") from None
    return value


def _frac(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if type(value) in (str, int, Decimal):  # a bool is no coordinate
        return _rational(value)
    # floats are banned: one rounding error would corrupt event order
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _check_point(value: object) -> None:
    """Refuse anything but a `RationalPoint` with `ProgramParseError`."""
    if not isinstance(value, RationalPoint):
        raise ProgramParseError(f"need a RationalPoint, got {clip(value)}")


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar) -> "RationalPoint":
        f = _frac(scalar)
        return RationalPoint(self.x * f, self.y * f)

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def cross(u: RationalPoint, v: RationalPoint) -> Fraction:
    return u.x * v.y - u.y * v.x


def dot(u: RationalPoint, v: RationalPoint) -> Fraction:
    return u.x * v.x + u.y * v.y


def orientation(p: RationalPoint, q: RationalPoint, r: RationalPoint) -> int:
    """Sign of det(q-p, r-p): +1 counterclockwise, -1 clockwise, 0 collinear.

    Antisymmetric under swapping any two arguments.
    """
    for point in (p, q, r):
        _check_point(point)
    d = cross(q - p, r - p)
    return (d > 0) - (d < 0)


def _grid(points) -> tuple[list[tuple[int, int]], int]:
    """The points as integer numerators over their least common denominator,
    and that denominator: every predicate here is the sign of a polynomial
    homogeneous in the coordinates, and every event time a ratio of two of
    one degree."""
    den = 1
    for p in points:
        den = lcm(den, p.x.denominator, p.y.denominator)
    grid = [
        (p.x.numerator * (den // p.x.denominator), p.y.numerator * (den // p.y.denominator))
        for p in points
    ]
    return grid, den


def _collinear_pair(c: tuple[int, int], points) -> tuple[int, int] | None:
    """The lexicographically first index pair i < j of `points` on a line
    through the integer point c, or None, in O(len(points)): two offsets
    from c are on one line exactly when their primitive directions agree up
    to sign.  No point may equal c."""
    cx, cy = c
    first: dict[tuple[int, int], int] = {}
    best = None
    for k, (x, y) in enumerate(points):
        dx, dy = x - cx, y - cy
        g = gcd(dx, dy) if (dx, dy) > (0, 0) else -gcd(dx, dy)
        i = first.setdefault((dx // g, dy // g), k)
        if i != k and (best is None or i < best[0]):
            best = i, k
    return best


def _check_generic(grid: list[tuple[int, int]]) -> None:
    """Raise the error of the lexicographically first coinciding pair, else
    of the first collinear triple, of the integer configuration `grid`, in
    O(n^2): the one degeneracy check of every configuration and move end."""
    for a, b in combinations(range(len(grid)), 2):
        if grid[a] == grid[b]:
            raise GenericityError(f"strands {a + 1} and {b + 1} coincide")
    for a in range(len(grid) - 2):
        pair = _collinear_pair(grid[a], grid[a + 1 :])
        if pair:
            b, c = pair
            raise GenericityError(f"strands {a + 1},{a + b + 2},{a + c + 2} are collinear")


@dataclass(frozen=True)
class Configuration:
    """n labelled `RationalPoint`s with no three collinear (hence pairwise
    distinct), checked in O(n^2)."""

    n: int
    points: tuple[RationalPoint, ...]

    def __post_init__(self):
        check_n(self.n)
        if not isinstance(self.points, (tuple, list)):
            raise ProgramParseError(f"need a sequence of points, got {clip(self.points)}")
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            _check_point(p)
        if len(self.points) != self.n:
            raise DimensionMismatch(f"{len(self.points)} points for n={clip(self.n)}")
        _check_generic(_grid(self.points)[0])

    def point(self, strand: int) -> RationalPoint:
        """The point of `strand`; every geometry reader's range check, which
        refuses a strand that is not an int or is a bool."""
        if type(strand) is not int or not 1 <= strand <= self.n:
            raise BadTriple(f"strand {clip(strand)} out of range 1..{self.n}")
        return self.points[strand - 1]


def _trusted_configuration(n: int, points: tuple[RationalPoint, ...]) -> Configuration:
    """A configuration of points already known generic, built unchecked."""
    cfg = object.__new__(Configuration)
    object.__setattr__(cfg, "n", n)
    object.__setattr__(cfg, "points", points)
    return cfg


@dataclass(frozen=True)
class LinearMove:
    """One strand travels in a straight line to `target`; the others stay put."""

    strand: int
    target: RationalPoint

    def __post_init__(self):
        if type(self.strand) is not int:
            raise BadTriple(f"strand must be an int, got {clip(self.strand)}")
        _check_point(self.target)


@dataclass(frozen=True)
class FullTwistMove:
    """All strands rotate rigidly about the origin by `turns` full turns.

    Requires every point on a common circle centred at the origin; three
    concyclic points are never collinear, so the move emits no events and
    is handled symbolically.
    """

    turns: int

    def __post_init__(self):
        if type(self.turns) is not int or self.turns == 0:
            raise InvalidMove(
                f"full twist needs a nonzero integer turn count, got {clip(self.turns)}"
            )


# not typing.Union: its process-wide cache would keep these classes, and
# through them every module of a re-imported package, alive
Move = LinearMove | FullTwistMove


@dataclass(frozen=True)
class MoveProgram:
    """A pure braid as an initial configuration plus a move sequence.  The
    constructor checks the parts; the walk checks genericity."""

    initial: Configuration
    moves: tuple[Move, ...] = ()
    closed: bool = False

    def __post_init__(self):
        if not isinstance(self.initial, Configuration):
            raise ProgramParseError(f"need an initial configuration, got {clip(self.initial)}")
        if not isinstance(self.moves, (tuple, list)):
            raise InvalidMove(f"need a sequence of moves, got {clip(self.moves)}")
        object.__setattr__(self, "moves", tuple(self.moves))
        for mv in self.moves:
            if isinstance(mv, LinearMove):
                self.initial.point(mv.strand)  # range check
            elif not isinstance(mv, FullTwistMove):
                raise InvalidMove(f"unknown move {clip(mv)}")
        if type(self.closed) is not bool:
            raise ProgramParseError(f"'closed' must be True or False, got {clip(self.closed)}")

    @property
    def n(self) -> int:
        return self.initial.n

    @cached_property
    def _walk(self) -> tuple[tuple[CollinearityEvent, ...], int, tuple, int]:
        """The events, the total twist and the boundary configurations on
        one integer grid, with the grid's denominator, from the one pass
        that checks genericity: `_move_events` for a linear move, the common
        circle for a full twist.  The initial points and every target share
        the grid, so a move replaces one entry of it, and two boundary
        configurations are equal exactly when their grids are.  A nongeneric
        program caches nothing and raises on every call."""
        ends = tuple(mv.target for mv in self.moves if isinstance(mv, LinearMove))
        flat, den = _grid(self.initial.points + ends)
        grid, targets = flat[: self.n], iter(flat[self.n :])
        grids = [tuple(grid)]
        events: list[CollinearityEvent] = []
        twist = 0
        for idx, mv in enumerate(self.moves):
            if isinstance(mv, FullTwistMove):
                if len({x * x + y * y for x, y in grid}) != 1:
                    raise GenericityError(
                        "full twist requires all strands on a common circle about the origin"
                    )
                twist += mv.turns
            else:
                end = next(targets)
                events.extend(_move_events(grid, mv.strand, end, idx))
                grid[mv.strand - 1] = end
            grids.append(tuple(grid))
        return tuple(events), twist, tuple(grids), den


@dataclass(frozen=True)
class CollinearityEvent:
    move_index: int
    t: Fraction
    triple: GenTriple
    central: int


@dataclass(frozen=True)
class CompileOutput:
    """The word read off a motion: one letter per event, in time order."""

    word: GWord
    events: tuple[CollinearityEvent, ...]
    twist_turns: int


def regular_rational_configuration(n: int) -> Configuration:
    """Rational stand-in for the regular n-gon on the unit circle.

    Strand j sits in the angular sector of the true vertex at turn fraction
    beta = b/n, with b = j for 2j <= n and b = j - n otherwise, so beta is in
    (-1/2, 1/2].  Beta = 1/2 is the point (-1, 0).  Any other beta is placed
    by the tangent-half-angle map ((1-t^2)/(1+t^2), 2t/(1+t^2)) at
    t = 3*beta/(1 - 4*beta^2), which is strictly monotone on (-1/2, 1/2) and
    exact at the rational vertices 0 and +-1/4.  Scaled by n^2, t = p/q with
    p = 3bn and q = n^2 - 4b^2 > 0, so the point is
    ((q^2 - p^2)/(q^2 + p^2), 2pq/(q^2 + p^2)), computed here in integers.
    Cyclic order (and therefore every triple's orientation) matches the true
    n-gon.

    The result is built without the O(n^2) check, because it cannot fail:
    every point lies exactly on the unit circle, and a line meets a circle
    in at most two points, so no three are collinear; the parameters of
    distinct strands are distinct, the half-angle map is injective and
    never reaches (-1, 0), which only j = n/2 takes, so no two coincide.
    """
    check_n(n)
    pts = []
    for j in range(1, n + 1):
        b = j if 2 * j <= n else j - n
        if 2 * b == n:
            pts.append(RationalPoint(Fraction(-1), Fraction(0)))
        else:
            p, q = 3 * b * n, n * n - 4 * b * b
            r = q * q + p * p
            pts.append(RationalPoint(Fraction(q * q - p * p, r), Fraction(2 * p * q, r)))
    return _trusted_configuration(n, tuple(pts))


def _central(s, a, b, mx, my, ax, ay, bx, by) -> int:
    """Strand id of the middle one of three collinear integer points: the
    mover s at (mx, my) and static strands a and b."""
    d = (ax - mx) * (bx - mx) + (ay - my) * (by - my)
    if d == 0:
        raise GenericityError("moving strand meets another strand")
    if d < 0:
        return s
    # three distinct collinear points: a is the middle one or b is
    return a if (mx - ax) * (bx - ax) + (my - ay) * (by - ay) < 0 else b


def segment_events(c: Configuration, s: int, target: RationalPoint) -> list[CollinearityEvent]:
    """Collinearity events while strand s moves linearly to `target`.

    For each static pair {a,b} the condition det(z_a - p(t), z_b - p(t)) = 0
    is linear in t, giving at most one exact rational root; roots strictly
    inside (0,1) become events, sorted by (time, triple).  The start
    configuration is trusted generic; the end configuration is checked
    (its orientation on (s,a,b) is the root's numerator plus denominator),
    and the mover must not meet a static point.  Events may share a time:
    their static pairs are then disjoint (a shared strand would put it on
    two distinct lines through the mover, or the mover on it), so their
    letters far-commute and either order reads the same braid.  Every
    event's `move_index` is 0: only a program's walk numbers its moves.
    The roots and centrals come from the integer kernel `_move_roots` on
    one grid of the points and `target`; only the events are built here.
    """
    if not isinstance(c, Configuration):
        raise ProgramParseError(f"need a configuration, got {clip(c)}")
    _check_point(target)
    c.point(s)  # range check
    *grid, end = _grid(c.points + (target,))[0]
    return _move_events(grid, s, end, 0)


def _earlier(r, u) -> int:
    """The sign of r's time minus u's, for roots (num, den, ...) with den > 0
    at time num/den."""
    return r[0] * u[1] - u[0] * r[1]


_BY_TIME = cmp_to_key(_earlier)


def _move_roots(
    grid: list[tuple[int, int]], s: int, end: tuple[int, int]
) -> list[tuple[int, int, int, int, int]]:
    """The integer kernel of `segment_events`: strand s moves from grid[s-1]
    to the integer point `end`, and each event is (num, den, a, b, central)
    at time num/den in lowest terms with den > 0, for the static pair a < b,
    sorted by (time, triple).  It builds no `Fraction` and no letter, so a
    caller that asks only whether a move is generic pays for the roots
    alone.  A degenerate end raises `_check_generic`'s error on the end
    configuration, and a mover that meets a strand `_central`'s.  `grid` is
    trusted generic and left as it is, so every degenerate pair or triple of
    the end holds s."""
    px, py = grid[s - 1]
    dx, dy = end[0] - px, end[1] - py
    # each static strand relative to the mover's start, with its cross with d
    rel = []
    for k, (x, y) in enumerate(grid, 1):
        if k != s:
            rx, ry = x - px, y - py
            rel.append((k, rx, ry, rx * dy - ry * dx))
    roots = []
    for (a, ax, ay, ad), (b, bx, by, bd) in combinations(rel, 2):
        # the orientation of (p0 + t*d, z_a, z_b) has the sign of num + t*den
        num = ax * by - ay * bx  # nonzero: the start configuration is generic
        den = bd - ad
        if num + den == 0:  # the end configuration is degenerate: say how
            _check_generic(grid[: s - 1] + [end] + grid[s:])
        if 0 < -num < den or den < -num < 0:  # 0 < -num/den < 1
            # in lowest terms with den > 0: the grid's numerators can be long
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            roots.append((-num // g, den // g, a, ax, ay, b, bx, by))
    # pairs come in lexicographic order, which for a fixed s is also the
    # order of the triples, so a stable sort by time alone gives (t, triple)
    roots.sort(key=_BY_TIME)
    # the central from positions at t = num/den relative to p0, times den
    return [
        (
            num,
            den,
            a,
            b,
            _central(s, a, b, num * dx, num * dy, ax * den, ay * den, bx * den, by * den),
        )
        for num, den, a, ax, ay, b, bx, by in roots
    ]


def _move_events(
    grid: list[tuple[int, int]], s: int, end: tuple[int, int], move_index: int
) -> list[CollinearityEvent]:
    """`segment_events` on one integer grid: the events of `_move_roots`,
    each letter's indices given sorted (s placed among a < b)."""
    n = len(grid)
    return [
        CollinearityEvent(
            move_index,
            Fraction(num, den),
            GenTriple(n, (s, a, b) if s < a else (a, s, b) if s < b else (a, b, s)),
            central,
        )
        for num, den, a, b, central in _move_roots(grid, s, end)
    ]


def _check_program(p: object) -> None:
    """Refuse anything but a `MoveProgram` with `ProgramParseError`."""
    if not isinstance(p, MoveProgram):
        raise ProgramParseError(f"need a motion program, got {clip(p)}")


def boundary_configurations(p: MoveProgram) -> list[Configuration]:
    """Configurations before each move and after the last one, as compiled:
    built on request from the initial points and the move targets, once the
    walk has checked them all generic."""
    _check_program(p)
    p._walk  # raises for a program that does not compile
    points = list(p.initial.points)
    configs = [p.initial]
    for mv in p.moves:
        if isinstance(mv, LinearMove):
            points[mv.strand - 1] = mv.target
            configs.append(_trusted_configuration(p.n, tuple(points)))
        else:
            configs.append(configs[-1])
    return configs


def compile_program(p: MoveProgram) -> CompileOutput:
    """Read the word of a program: concatenated segment events in move order.

    Full twists contribute no letters (concyclic points are never three
    collinear) but add to the twist count; their common-circle precondition
    is checked.  A program marked closed must end exactly where it started.
    """
    _check_program(p)
    events, twist, grids, _ = p._walk
    if p.closed and grids[-1] != grids[0]:
        raise NotClosed("program marked closed but the final configuration differs")
    return CompileOutput(GWord(p.n, tuple(e.triple for e in events)), events, twist)


def _ray_crossing(ux: int, uy: int, vx: int, vy: int) -> int:
    """Signed crossing of the directed segment u->v over the ray x>0, y=0.

    The segment misses the origin: its ends are differences in generic
    boundary configurations, and only one strand moves per segment, so the
    difference of i and j can reach 0 only where the mover meets the other
    strand, which `segment_events` rejects.
    """
    c = ux * vy - uy * vx
    if uy <= 0 < vy and c > 0:
        return 1
    if vy <= 0 < uy and c < 0:
        return -1
    return 0


def geometric_linking(p: MoveProgram, i: int, j: int) -> Fraction:
    """Winding number of the difference z_i - z_j about the origin.

    Computed as signed crossings of the positive x-ray over the piecewise
    linear difference path, plus one turn per full twist (a rigid rotation
    winds every nonzero difference exactly once per turn).  Integer-valued
    for closed programs; counterclockwise is positive.  Reads only the
    boundary grids and twist of the compiler's walk, kept for the many pairs
    callers ask about: an invalid program raises as it does when compiled.
    """
    _check_program(p)
    if i == j:
        raise BadTriple("linking needs two distinct strands")
    p.initial.point(i)  # range checks
    p.initial.point(j)
    _, wn, grids, _ = p._walk
    ux, uy = grids[0][i - 1][0] - grids[0][j - 1][0], grids[0][i - 1][1] - grids[0][j - 1][1]
    for k in range(1, len(grids)):
        vx, vy = grids[k][i - 1][0] - grids[k][j - 1][0], grids[k][i - 1][1] - grids[k][j - 1][1]
        wn += _ray_crossing(ux, uy, vx, vy)
        ux, uy = vx, vy
    return Fraction(wn)


_SHEARS = (Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5), Fraction(-1, 5))


def pure_braid_generator_program(n: int, i: int, j: int) -> MoveProgram:
    """Closed motion linking strands i and j once and nothing else.

    Strand i runs along its chord to z_j + w/m, once around the loop
    |a| + |b| = 1/m, where z = z_j + a*w + b*v, and back; w = z_i - z_j and
    v = perp(w) + s*w, with perp(w) the quarter turn of w counterclockwise.
    Shears s in `_SHEARS` with v parallel to some z_k - z_j are skipped; for
    the others m(s) is the smallest power of two >= 4 with (a)
    |a_k| + |b_k| > 1/m for every other strand k and (b) no corner on a line
    through two strands other than i and j.  The smallest m(s) wins, the
    earlier shear on ties, so the scan stops at the first m(s) = 4.

    Proof: the chord legs lie inside the unit circle that holds every
    strand, so they meet none, and they cancel in every winding number.
    The loop winds +1 about its inside (cross(w, v) = |w|^2 > 0), and by
    (a) j is the only strand inside it and none is on it: i links j once,
    every other strand zero times, and touches none.  Every boundary
    configuration is generic: a corner z_j +- w/m is on the line ij, which
    holds no other strand; z_j +- v/m is on a line through j and k only at
    a skipped shear; (b) covers the remaining lines.
    """
    cfg = regular_rational_configuration(n)  # checks n
    if i == j:
        raise BadTriple("generator needs two distinct strands")
    pi = cfg.point(i)
    cfg.point(j)  # range check
    grid, den = _grid(cfg.points)
    (xi, yi), (xj, yj) = grid[i - 1], grid[j - 1]
    wx, wy = xi - xj, yi - yj
    rel = [(x - xj, y - yj) for k, (x, y) in enumerate(grid, 1) if k not in (i, j)]
    best = None
    for shear in _SHEARS:
        p, q = shear.numerator, shear.denominator
        vx, vy = p * wx - q * wy, p * wy + q * wx  # q*v
        if any(x * vy == y * vx for x, y in rel):
            continue
        # (a): q*|w|^2 * (|a_k| + |b_k|) = |cross(z_k - z_j, q*v)| + q*|cross(w, z_k - z_j)|
        span = min(abs(x * vy - y * vx) + q * abs(wx * y - wy * x) for x, y in rel)
        m = max(4, 1 << (q * (wx * wx + wy * wy) // span).bit_length())
        # (b), on the grid moved to z_j and scaled by q*m
        corners = ((q * wx, q * wy), (vx, vy), (-q * wx, -q * wy), (-vx, -vy))
        while True:
            scaled = [(q * m * x, q * m * y) for x, y in rel]
            if not any(_collinear_pair(c, scaled) for c in corners):
                break
            m *= 2
        if best is None or m < best[0]:
            best = m, q, vx, vy
        if m == 4:  # no scale is smaller, and the earlier shear wins ties
            break
    if best is None:
        raise ConstructionFailure(f"every shear puts a loop corner on a line through strand {j}")
    m, q, vx, vy = best
    # z_j +- u over m*den and z_j +- v over q*m*den, where u = w/m and q*v
    # is (vx, vy) on the grid
    around = (
        (m * xj + wx, m * yj + wy, m * den),
        (q * m * xj + vx, q * m * yj + vy, q * m * den),
        (m * xj - wx, m * yj - wy, m * den),
        (q * m * xj - vx, q * m * yj - vy, q * m * den),
    )
    loop = [RationalPoint(Fraction(x, d), Fraction(y, d)) for x, y, d in around]
    waypoints = (*loop, loop[0], pi)
    return MoveProgram(cfg, tuple(LinearMove(i, w) for w in waypoints), closed=True)


def full_twist_program(n: int, m: int) -> MoveProgram:
    """All strands of the regular configuration rotate rigidly m full turns."""
    return MoveProgram(
        regular_rational_configuration(n), (FullTwistMove(m),), closed=True
    )


def embed_at_infinity(p: MoveProgram) -> MoveProgram:
    """Add a stationary strand n+1 at a far point (R, d).

    R is the smallest power of two >= 8 with every boundary point at x < R,
    so no move passes through (R, d), and d the first of 1, -1, 2, -2, ...
    on no line through two points of one boundary configuration.  The far
    strand keeps every configuration generic, so the augmented program
    compiles if `p` does; `p` is compiled first, and an invalid one raises
    the error of its walk.  Letters not containing n+1 are exactly the
    original program's letters, in the original order.  Full twists are
    rejected: the far strand leaves the common circle.
    """
    compile_program(p)
    if any(isinstance(mv, FullTwistMove) for mv in p.moves):
        raise InvalidMove("cannot embed a program containing full twists")
    # every boundary configuration on the walk's one grid
    grids, den = p._walk[2:]
    R = 8
    while any(x >= R * den for grid in grids for x, _ in grid):
        R *= 2
    d = next(
        d
        for k in count(1)
        for d in (k, -k)
        if not any(_collinear_pair((R * den, d * den), grid) for grid in grids)
    )
    cfg = _trusted_configuration(p.n + 1, p.initial.points + (RationalPoint(R, d),))
    return MoveProgram(cfg, p.moves, closed=p.closed)


def inverse_program(p: MoveProgram) -> MoveProgram:
    """The same motion traversed backwards."""
    configs = boundary_configurations(p)
    rev = tuple(
        FullTwistMove(-mv.turns)
        if isinstance(mv, FullTwistMove)
        else LinearMove(mv.strand, configs[idx].point(mv.strand))
        for idx, mv in reversed(list(enumerate(p.moves)))
    )
    return MoveProgram(configs[-1], rev, closed=p.closed)


def concat_programs(a: MoveProgram, b: MoveProgram) -> MoveProgram:
    """Run a, then b; b must start where a ends."""
    end = boundary_configurations(a)[-1]
    _check_program(b)
    if end != b.initial:
        raise DimensionMismatch("second program does not start at the first one's end")
    final = boundary_configurations(b)[-1]
    return MoveProgram(a.initial, a.moves + b.moves, closed=final == a.initial)


def program_power(p: MoveProgram, k: int) -> MoveProgram:
    """k-fold repetition of a closed program (inverse for negative k); one not
    marked closed, or not ending where it starts, raises `NotClosed`, and a
    k that is not an int (or is a bool) raises `InvalidMove`."""
    if type(k) is not int:
        raise InvalidMove(f"program power needs an integer exponent, got {clip(k)}")
    _check_program(p)
    if not p.closed or p._walk[2][-1] != p._walk[2][0]:
        raise NotClosed("powers are defined for closed programs")
    base = p if k >= 0 else inverse_program(p)
    return MoveProgram(p.initial, base.moves * abs(k), closed=True)


_WANDER_MOVES = 3  # at most this many random displacements
_MAX_ATTEMPTS = 200  # draws per move before giving up


def random_closed_program(n: int, seed: int = 0) -> MoveProgram:
    """Seeded random closed program: a few random strand displacements from
    the regular configuration, then return moves back home.

    Targets are drawn from a fine rational grid; candidates violating
    genericity are redrawn, and a blocked return move detours through one
    random waypoint.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    cfg = regular_rational_configuration(n)
    # the regular points and every draw, k/1200 for an int k, on one grid
    home, den = _grid(cfg.points)
    unit = lcm(den, 1200)
    home = [(x * (unit // den), y * (unit // den)) for x, y in home]
    step = unit // 1200

    def draw() -> tuple[tuple[int, int], RationalPoint]:
        x, y = rng.randint(-2400, 2400), rng.randint(-2400, 2400)
        return (x * step, y * step), RationalPoint(Fraction(x, 1200), Fraction(y, 1200))

    def clear(grid: list[tuple[int, int]], s: int, end: tuple[int, int]) -> bool:
        # whether `segment_events` would raise, without building its events
        try:
            _move_roots(grid, s, end)
        except GenericityError:
            return False
        return True

    cur = list(home)
    moves: list[Move] = []
    for _ in range(rng.randint(1, _WANDER_MOVES)):
        for _ in range(_MAX_ATTEMPTS):
            s, (end, target) = rng.randint(1, n), draw()
            if clear(cur, s, end):
                break
        else:
            raise ConstructionFailure("could not draw a generic wander move")
        moves.append(LinearMove(s, target))
        cur[s - 1] = end
    # the displaced strands home, the first displaced last
    for s in reversed(dict.fromkeys(mv.strand for mv in moves)):
        if cur[s - 1] == home[s - 1]:
            continue
        route = [(home[s - 1], cfg.point(s))]
        if not clear(cur, s, home[s - 1]):
            for _ in range(_MAX_ATTEMPTS):
                via, point = draw()
                moved = cur[: s - 1] + [via] + cur[s:]
                if clear(cur, s, via) and clear(moved, s, home[s - 1]):
                    break
            else:
                raise ConstructionFailure("could not route a strand back home")
            route.insert(0, (via, point))
        for end, target in route:
            moves.append(LinearMove(s, target))
            cur[s - 1] = end
    return MoveProgram(cfg, tuple(moves), closed=True)


# ---------------------------------------------------------------------------
# Program JSON format


def _point_from_json(obj) -> RationalPoint:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ProgramParseError(f"point must be a 2-element list, got {clip(obj)}")
    return RationalPoint(*obj)


def _move_from_json(obj) -> Move:
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "line":
        return LinearMove(obj.get("strand"), _point_from_json(obj.get("to")))
    if kind == "twist":
        return FullTwistMove(obj.get("turns"))
    raise ProgramParseError(f"move must be an object of type line or twist, got {clip(obj)}")


def program_to_json(p: MoveProgram) -> dict:
    _check_program(p)
    moves = []
    for mv in p.moves:
        if isinstance(mv, FullTwistMove):
            moves.append({"type": "twist", "turns": mv.turns})
        else:
            moves.append(
                {"type": "line", "strand": mv.strand, "to": [str(mv.target.x), str(mv.target.y)]}
            )
    return {
        "n": p.n,
        "initial": [[str(pt.x), str(pt.y)] for pt in p.initial.points],
        "moves": moves,
        "closed": p.closed,
    }


def program_from_json(obj) -> MoveProgram:
    """The program of a JSON document, whose shape is checked here and whose
    values by the constructors: any error is raised as `ProgramParseError`."""
    if not isinstance(obj, dict):
        raise ProgramParseError("program JSON must be an object")
    initial, moves = obj.get("initial"), obj.get("moves", [])
    if not isinstance(initial, list):
        raise ProgramParseError("'initial' must be a list of points")
    if not isinstance(moves, list):
        raise ProgramParseError(f"'moves' must be a list, got {type(moves).__name__}")
    try:
        cfg = Configuration(obj.get("n"), [_point_from_json(pt) for pt in initial])
        return MoveProgram(cfg, [_move_from_json(mv) for mv in moves], obj.get("closed", False))
    except (TribraidError, TypeError) as exc:  # a RationalPoint of no text is a TypeError
        raise ProgramParseError(f"bad program: {exc}") from exc
