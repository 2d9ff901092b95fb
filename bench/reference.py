"""Reference computations the benchmark checks tribraid's outputs against.

Everything here is written from the definitions on plain tuples and
`fractions.Fraction`s and imports nothing from tribraid, so a fault in the
library cannot hide itself by also being present in its checker.

Conventions shared with the library's documentation (not its code):
points are (x, y) pairs of Fractions; a triple or letter is a sorted
3-tuple of strand numbers 1..n; an orientation state is the set of sorted
triples that carry the sign -1; words are tuples of letters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# Exact plane geometry


def orient(p, q, r) -> int:
    """Sign of twice the signed area of triangle p, q, r: +1 counterclockwise,
    -1 clockwise, 0 collinear."""
    area2 = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (area2 > 0) - (area2 < 0)


def winding(path, twist_turns: int = 0) -> int:
    """Winding number about the origin of the closed polygon `path`.

    `path` lists the polygon's vertices with the first repeated at the end.
    Each edge that crosses the positive x-axis upwards adds one and each
    that crosses it downwards subtracts one (half-open rule on y, so a
    vertex on the axis counts once); `twist_turns` rigid full turns add
    their count.  Raises ValueError when an edge touches the origin, where
    the winding number is undefined.
    """
    total = 0
    for (ux, uy), (vx, vy) in zip(path, path[1:]):
        if _touches_origin(ux, uy, vx, vy):
            raise ValueError(f"edge ({ux},{uy})->({vx},{vy}) touches the origin")
        if (uy <= 0 < vy) or (vy <= 0 < uy):
            x_at_axis = ux + (vx - ux) * (-uy) / (vy - uy)
            if x_at_axis > 0:
                total += 1 if vy > uy else -1
    return total + twist_turns


def _touches_origin(ux, uy, vx, vy) -> bool:
    if ux * vy - uy * vx != 0:
        return False
    return min(ux, vx) <= 0 <= max(ux, vx) and min(uy, vy) <= 0 <= max(uy, vy)


def positions_along(initial, moves):
    """Point tuples before each linear move and after the last one.

    `moves` holds (strand, target) pairs; strands are numbered from 1.
    """
    cur = tuple(initial)
    out = [cur]
    for strand, target in moves:
        pts = list(cur)
        pts[strand - 1] = target
        cur = tuple(pts)
        out.append(cur)
    return out


def move_flips(before, after, strand: int) -> set:
    """Sorted triples containing the mover whose orientation differs between
    the configurations `before` and `after` (both must be generic)."""
    others = [k for k in range(1, len(before) + 1) if k != strand]
    out = set()
    for a, b in combinations(others, 2):
        s0 = orient(before[strand - 1], before[a - 1], before[b - 1])
        s1 = orient(after[strand - 1], after[a - 1], after[b - 1])
        if s0 == 0 or s1 == 0:
            raise ValueError(f"triple {(strand, a, b)} is collinear at a move endpoint")
        if s0 != s1:
            out.add(tuple(sorted((strand, a, b))))
    return out


def collinear_at(p0, p1, t: Fraction, za, zb) -> bool:
    """True when the point p0 + t (p1 - p0) lies on the line through za, zb."""
    pt = (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))
    return orient(pt, za, zb) == 0


def pair_winding(configs, i: int, j: int) -> int:
    """Winding number of z_i - z_j about the origin along a closed motion
    given by its configurations (`positions_along`)."""
    path = [(c[i - 1][0] - c[j - 1][0], c[i - 1][1] - c[j - 1][1]) for c in configs]
    return winding(path)


# ---------------------------------------------------------------------------
# Orientation states and letter status


def triples(n: int):
    """All sorted triples of 1..n in lexicographic order."""
    return list(combinations(range(1, n + 1), 3))


def state_from_mask(n: int, mask: int) -> frozenset:
    """State whose minus set holds triple number b (lexicographic order)
    exactly when bit b of `mask` is set."""
    return frozenset(t for b, t in enumerate(triples(n)) if mask >> b & 1)


def sign(minus, i: int, j: int, k: int) -> int:
    """Sign of the ordered triple (i, j, k): the stored sign of its sorted
    form, negated for an odd permutation."""
    odd = False  # parity of the swaps that sort (i, j, k)
    if i > j:
        i, j, odd = j, i, not odd
    if j > k:
        j, k, odd = k, j, not odd
    if i > j:
        i, j, odd = j, i, not odd
    stored = -1 if (i, j, k) in minus else 1
    return -stored if odd else stored


def centrals(minus, n: int, letter) -> frozenset:
    """Strands c of `letter` that can be central: with x, y the other two,
    every outside strand p sees equal signs on (x,c,p), (x,y,p), (c,y,p).
    The letter is good when this set is nonempty."""
    found = set()
    for c in letter:
        x, y = (e for e in letter if e != c)
        if all(
            sign(minus, x, c, p) == sign(minus, x, y, p) == sign(minus, c, y, p)
            for p in range(1, n + 1)
            if p not in letter
        ):
            found.add(c)
    return frozenset(found)


def word_centrals(n: int, word, start=frozenset()):
    """Central sets of every letter at its prefix state, and the final state."""
    minus = set(start)
    out = []
    for letter in word:
        out.append(centrals(minus, n, letter))
        minus ^= {letter}
    return out, frozenset(minus)


def is_realisable(n: int, word) -> bool:
    return all(word_centrals(n, word)[0])


def odd_letters(word) -> frozenset:
    """Letters occurring an odd number of times."""
    odd = set()
    for letter in word:
        odd ^= {letter}
    return frozenset(odd)


def good_letter_walk(n: int, length: int, rng):
    """A realisable word: each step draws letters uniformly until one is
    good at the current state (so the step is uniform over good letters)
    and appends it."""
    letters = triples(n)
    minus: set = set()
    word = []
    for _ in range(length):
        letter = rng.choice(letters)
        while not centrals(minus, n, letter):
            letter = rng.choice(letters)
        word.append(letter)
        minus ^= {letter}
    return tuple(word)


def is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def format_letter(n: int, letter) -> str:
    """`a134` for n <= 9, `a(1,3,14)` beyond."""
    if n <= 9:
        return "a" + "".join(map(str, letter))
    return "a(" + ",".join(map(str, letter)) + ")"


def format_word(n: int, word) -> str:
    return " ".join(format_letter(n, g) for g in word)


# ---------------------------------------------------------------------------
# Relation rewriting: squares, far commutation, tetrahedron reversal

SQUARE_DELETE, SQUARE_INSERT, FAR_COMMUTE, TETRA_REVERSE = "del", "ins", "swap", "tetra"


def far(a, b) -> bool:
    """Two letters far-commute when they share at most one strand."""
    return len(set(a) & set(b)) <= 1


def is_tetra_window(window) -> bool:
    """Four distinct letters inside one 4-set of strands (hence all four
    3-subsets of it)."""
    return len(window) == 4 and len(set(window)) == 4 and len(set().union(*window)) == 4


def rewrite(word, kind: str, pos: int, letter=None):
    """Apply one relation at `pos`; raises ValueError when it does not apply."""
    word = tuple(word)
    if kind == SQUARE_DELETE:
        if 0 <= pos < len(word) - 1 and word[pos] == word[pos + 1]:
            return word[:pos] + word[pos + 2 :]
    elif kind == SQUARE_INSERT:
        if letter is not None and 0 <= pos <= len(word):
            return word[:pos] + (letter, letter) + word[pos:]
    elif kind == FAR_COMMUTE:
        if 0 <= pos < len(word) - 1 and far(word[pos], word[pos + 1]):
            return word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
    elif kind == TETRA_REVERSE:
        if 0 <= pos <= len(word) - 4 and is_tetra_window(word[pos : pos + 4]):
            return word[:pos] + word[pos : pos + 4][::-1] + word[pos + 4 :]
    raise ValueError(f"relation {kind}@{pos} does not apply to {word}")


def random_relation_moves(n: int, word, k: int, rng, max_len: int):
    """Apply k relation moves drawn at random: a kind is chosen uniformly
    among those that apply, then a position (and an inserted letter)."""
    word = tuple(word)
    letters = triples(n)
    for _ in range(k):
        options = {}
        dels = [p for p in range(len(word) - 1) if word[p] == word[p + 1]]
        swaps = [p for p in range(len(word) - 1) if far(word[p], word[p + 1])]
        tetras = [p for p in range(len(word) - 3) if is_tetra_window(word[p : p + 4])]
        if dels:
            options[SQUARE_DELETE] = dels
        if swaps:
            options[FAR_COMMUTE] = swaps
        if tetras:
            options[TETRA_REVERSE] = tetras
        if len(word) + 2 <= max_len:
            options[SQUARE_INSERT] = list(range(len(word) + 1))
        kind = rng.choice(sorted(options))
        pos = rng.choice(options[kind])
        letter = rng.choice(letters) if kind == SQUARE_INSERT else None
        word = rewrite(word, kind, pos, letter)
    return word
