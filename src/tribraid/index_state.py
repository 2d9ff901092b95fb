"""Orientation states on strand triples and the realisability machinery.

A state assigns a sign to every sorted triple of strands; reading a word
left to right, each generator flips the sign of its own triple.  A letter
is *realisable* at a state when one of its three strands can serve as the
central element: with central c flanked by x and y, every outside strand p
must see the same sign on (x,c,p), (x,y,p) and (c,y,p).  Realisability
drives the good/bad split of letters, the bad-letter projection, and the
exhaustive census checks over all states.

A state is an int bitmask over the sorted triples in lexicographic order
(the order of `all_triples`): bit b is set when triple b carries -1.  Code
that reads a state many times reads a byte table instead, one byte per
triple (`_bits`), because every read of an int's bit copies the whole int.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, permutations
from math import comb
from typing import NamedTuple

from .errors import BadTriple, DimensionMismatch, InvalidBudget, InvalidN, UnsupportedN
from .group_core import GWord, GenTriple, all_generators, far_commutes

Triple = tuple[int, int, int]


def all_triples(n: int) -> list[Triple]:
    return list(combinations(range(1, n + 1), 3))


@cache
def _bit_base(n: int) -> tuple[tuple[int, ...], ...]:
    """Row offsets of the triple order: a<b<c is bit `base[a][b] + c`.

    O(n^2) entries, where a table of every triple would hold C(n,3).
    """
    base = [[0] * (n + 1) for _ in range(n + 1)]
    rank = 0
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            base[a][b] = rank - b - 1
            rank += n - b
    return tuple(map(tuple, base))


def _bit(base, g: GenTriple) -> int:
    """The index of g's triple: its bit in a mask, its byte in a table."""
    i, j, k = g.elems
    return base[i][j] + k


_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")
_BITS_ASCII = bytes.maketrans(b"\0\1", b"01")


def _bits(mask: int, width: int) -> bytearray:
    """The byte table of `mask`: byte b is bit b, for b < width.  O(width)
    at C speed, the cost of one bit read of the int."""
    if not mask:
        return bytearray(width)
    return bytearray(f"{mask:0{width}b}"[::-1], "ascii").translate(_ASCII_BITS)


def _mask(bits: bytearray) -> int:
    """The mask of a byte table; the inverse of `_bits`."""
    digits = bits.translate(_BITS_ASCII)
    digits.reverse()
    return int(digits, 2)


@dataclass(frozen=True)
class OrientationState:
    """Signs on sorted strand triples; `minus` is the bitmask of the
    triples at -1, so it is 0 exactly at the all-plus state."""

    n: int
    minus: int

    @cached_property
    def _table(self) -> bytes:
        """The byte table, built at the first read of a letter or a triple
        and kept, since callers often read many letters at one state (a
        walk draws letters until one is good)."""
        return bytes(_bits(self.minus, comb(self.n, 3)))

    def value(self, triple: Triple) -> int:
        """Sign stored on a *sorted* triple."""
        if len(triple) != 3 or not 1 <= triple[0] < triple[1] < triple[2] <= self.n:
            raise BadTriple(f"{tuple(triple)} is not a sorted triple of 1..{self.n}")
        a, b, c = triple
        return -1 if self._table[_bit_base(self.n)[a][b] + c] else 1


def initial_state(n: int) -> OrientationState:
    """State of the uniform circular configuration.

    Around the circle, strand j sits in angular position j, so for any
    sorted triple i<j<k the arc from i to j is shorter than the arc from i
    to k and the stored sign is +1.
    """
    if n < 4:
        raise InvalidN(f"strand count must be >= 4, got {n}")
    return OrientationState(n, 0)


def _sign(base, bits, i: int, j: int, k: int) -> int:
    """Sign of the ordered triple (i,j,k) of distinct strands at the state
    whose byte table is `bits`."""
    odd = (i > j) ^ (i > k) ^ (j > k)
    a, b, c = sorted((i, j, k))
    return -1 if bits[base[a][b] + c] ^ odd else 1


def signed_index(s: OrientationState, i: int, j: int, k: int) -> int:
    """Sign of the ordered triple (i,j,k): antisymmetric in its arguments."""
    if i == j or i == k or j == k:
        raise BadTriple(f"triple ({i},{j},{k}) has repeated indices")
    for idx in (i, j, k):
        if not 1 <= idx <= s.n:
            raise BadTriple(f"index {idx} out of range 1..{s.n}")
    return _sign(_bit_base(s.n), s._table, i, j, k)


def flip(s: OrientationState, g: GenTriple) -> OrientationState:
    """Negate exactly the entry of g's triple; an involution."""
    if g.n != s.n:
        raise DimensionMismatch(f"generator n={g.n}, state n={s.n}")
    return OrientationState(s.n, s.minus ^ 1 << _bit(_bit_base(s.n), g))


def run_word(s: OrientationState, w: GWord) -> OrientationState:
    """Left-to-right composition of flips."""
    if w.n != s.n:
        raise DimensionMismatch(f"word n={w.n}, state n={s.n}")
    base = _bit_base(s.n)
    cur = s.minus
    for g in w.letters:
        cur ^= 1 << _bit(base, g)
    return OrientationState(s.n, cur)


def _gap_table(gap: int) -> tuple[int, ...]:
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
    triples = [tuple(sorted(pair + (p,))) for pair in ((i, j), (i, k), (j, k))]
    table = []
    for key in range(8):
        s = OrientationState(
            4, sum(1 << all_triples(4).index(t) for b, t in enumerate(triples) if key >> b & 1)
        )
        entry = 0
        for bit, (c, x, y) in enumerate(((i, j, k), (j, i, k), (k, i, j))):
            if signed_index(s, x, c, p) == signed_index(s, x, y, p) == signed_index(s, c, y, p):
                entry |= 1 << bit
        table.append(entry)
    return tuple(table)


# every entry admits at most one central (tests check this), so the AND of
# entries over the outside strands does too
_GAP_TABLES = tuple(_gap_table(gap) for gap in range(4))


def _centrals(base, bits, n: int, i: int, j: int, k: int) -> int:
    """The centrals of letter i<j<k at the state whose byte table is `bits`,
    as a bitset over (i, j, k): the AND over the outside strands of their
    gap table entries."""
    below, ij, jk, above = _GAP_TABLES
    bi, bj = base[i], base[j]
    acc = 7
    for p in range(1, i):
        bp = base[p]
        r = bp[i]
        acc &= below[bits[r + j] | bits[r + k] << 1 | bits[bp[j] + k] << 2]
        if not acc:
            return 0
    for p in range(i + 1, j):
        r = bi[p]
        acc &= ij[bits[r + j] | bits[r + k] << 1 | bits[base[p][j] + k] << 2]
        if not acc:
            return 0
    rij = bi[j]
    for p in range(j + 1, k):
        acc &= jk[bits[rij + p] | bits[bi[p] + k] << 1 | bits[bj[p] + k] << 2]
        if not acc:
            return 0
    rik, rjk = bi[k], bj[k]
    for p in range(k + 1, n + 1):
        acc &= above[bits[rij + p] | bits[rik + p] << 1 | bits[rjk + p] << 2]
        if not acc:
            return 0
    return acc


@dataclass(frozen=True)
class LetterStatus:
    """The set of admissible central elements; good means nonempty.

    Membership is unchanged by reversing the flanking order, so the set is
    well defined.  For any single outside strand the three central
    conditions are mutually exclusive (every gap table entry has at most
    one bit), and n >= 4 leaves at least one outside strand, so the set
    holds at most one element.
    """

    centrals: frozenset[int]

    @property
    def good(self) -> bool:
        return bool(self.centrals)


@cache
def _status(central: int) -> LetterStatus:
    """The status admitting `central` alone, or the bad status for 0."""
    return LetterStatus(frozenset((central,)) if central else frozenset())


def _status_at(base, bits, n: int, g: GenTriple) -> LetterStatus:
    code = _centrals(base, bits, n, *g.elems)
    return _status(g.elems[code >> 1] if code else 0)


def letter_status(s: OrientationState, g: GenTriple) -> LetterStatus:
    """Classify one letter at a state."""
    if g.n != s.n:
        raise DimensionMismatch(f"generator n={g.n}, state n={s.n}")
    return _status_at(_bit_base(s.n), s._table, s.n, g)


@dataclass(frozen=True)
class ClassifiedWord:
    """A word's letter statuses, each at its prefix state, and its final state.

    Every letter acts on the running state, good or bad; the action is
    defined for all words, and the stable projection only converges under
    this reading.  No prefix state is kept: classifying holds one running
    state, a table of C(n,3) bytes (2.5 MiB at n=250), and turns it into
    the final mask once.
    """

    word: GWord
    statuses: tuple[LetterStatus, ...]
    final_state: OrientationState

    @property
    def realisable(self) -> bool:
        return all(st.good for st in self.statuses)


def classify_word(w: GWord, start: OrientationState | None = None) -> ClassifiedWord:
    """Statuses of every letter at its prefix state.

    `start` defaults to the initial state; any state may be given, to read
    a relation window in isolation.
    """
    s = initial_state(w.n) if start is None else start
    if s.n != w.n:
        raise DimensionMismatch(f"word n={w.n}, state n={s.n}")
    n = w.n
    base = _bit_base(n)
    bits = _bits(s.minus, comb(n, 3))
    statuses: list[LetterStatus] = []
    for g in w.letters:
        statuses.append(_status_at(base, bits, n, g))
        bits[_bit(base, g)] ^= 1
    return ClassifiedWord(w, tuple(statuses), OrientationState(n, _mask(bits)))


def is_realisable(w: GWord) -> bool:
    return classify_word(w).realisable


def project_once(w: GWord) -> GWord:
    """Delete exactly the bad letters, preserving the order of the rest."""
    cw = classify_word(w)
    return GWord(w.n, tuple(g for g, st in zip(w.letters, cw.statuses) if st.good))


def stable_projection(w: GWord) -> tuple[GWord, int]:
    """Iterate the projection to its fixed point.

    Returns the fixed point and the number of passes, including the final
    confirming pass.  Each non-final pass deletes at least one letter, so
    the count is at most len(w)+1; the result has no bad letters.
    """
    passes = 0
    cur = w
    while True:
        passes += 1
        nxt = project_once(cur)
        if nxt == cur:
            return cur, passes
        cur = nxt


# ---------------------------------------------------------------------------
# State enumeration and lemma censuses


def enumerate_states(n: int):
    """All 2^C(n,3) orientation states, in the order of their masks."""
    for mask in range(1 << comb(n, 3)):
        yield OrientationState(n, mask)


def state_id(s: OrientationState) -> int:
    return s.minus


def state_from_id(n: int, mask: int) -> OrientationState:
    if not 0 <= mask < 1 << comb(n, 3):
        raise BadTriple(f"state id {mask} out of range for n={n}")
    return OrientationState(n, mask)


class CensusRow(NamedTuple):
    state: int
    case: str
    statuses: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CensusReport:
    n: int
    lemma: str
    cases: int
    rows: tuple[CensusRow, ...]

    @cached_property
    def violations(self) -> tuple[CensusRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_table(self, full: bool = False) -> str:
        lines = [
            f"census lemma={self.lemma} n={self.n} cases={self.cases} "
            f"violations={len(self.violations)}"
        ]
        rows = self.rows if full else self.violations
        for r in rows:
            flag = "ok" if r.ok else "VIOLATION"
            line = f"state={r.state} case={r.case} statuses={r.statuses} {flag}"
            if r.detail:
                line += f" ({r.detail})"
            lines.append(line)
        return "\n".join(lines)


def _tags(g: GenTriple) -> tuple[str, ...]:
    """The `letter:status` renderings of g, indexed by centrals bitset."""
    i, j, k = g.elems
    return (f"{g}:bad", f"{g}:g{i}", f"{g}:g{j}", "", f"{g}:g{k}")


_UNREAD = 0xFF


def _census_reader(n: int):
    """`read(mask, b)`: the centrals bitset of the letter whose triple index
    is b, at state `mask`.  A census reads every status through one reader.
    Its memo holds one byte row per state: the state's byte table, then one
    code per letter, filled as letters are read, so each (state, letter)
    status is computed once."""
    base = _bit_base(n)
    width = comb(n, 3)
    triples = all_triples(n)
    memo: dict[int, bytearray] = {}

    def read(mask: int, b: int) -> int:
        try:
            row = memo[mask]
        except KeyError:
            row = memo[mask] = _bits(mask, width) + bytearray((_UNREAD,)) * width
        code = row[width + b]
        if code == _UNREAD:
            code = row[width + b] = _centrals(base, row, n, *triples[b])
        return code

    return read


def tetra_letters(n: int, tup: tuple[int, int, int, int]) -> tuple[GenTriple, ...]:
    """The four letters of the tetrahedron word for an ordered 4-tuple:
    letter j omits the j-th tuple entry."""
    u = set(tup)
    return tuple(GenTriple(n, tuple(sorted(u - {x}))) for x in tup)


def _middle_under_order(g: GenTriple, order: tuple[int, ...]) -> int:
    rank = {v: i for i, v in enumerate(order)}
    return sorted(g.elems, key=rank.__getitem__)[1]


@cache
def _tetra_windows() -> tuple[tuple[str, tuple, tuple, frozenset], ...]:
    """Per ordering of 1..4: its case name, its two sides, and the centrals
    of all eight letters (left side, then right) under every total order."""
    orders = list(permutations((1, 2, 3, 4)))
    windows = []
    for tup in orders:
        lhs = tetra_letters(4, tup)
        rhs = lhs[::-1]
        middles = frozenset(
            tuple(_middle_under_order(g, order) for g in lhs + rhs) for order in orders
        )
        windows.append(("".join(map(str, tup)), lhs, rhs, middles))
    return tuple(windows)


def _tetra_codes(read, base, mask: int, word: tuple[GenTriple, ...]) -> list[int]:
    codes = []
    for g in word:
        b = _bit(base, g)
        codes.append(read(mask, b))
        mask ^= 1 << b
    return codes


def _tetra_case(read, base, mask: int, lhs, rhs, middles, tags) -> tuple[bool, str, str]:
    cl, cr = _tetra_codes(read, base, mask, lhs), _tetra_codes(read, base, mask, rhs)
    rendered = "|".join(
        ",".join(tags[g][c] for g, c in zip(word, codes)) for word, codes in ((lhs, cl), (rhs, cr))
    )
    n_l = sum(1 for c in cl if c)
    n_r = sum(1 for c in cr if c)
    if n_l not in (0, 1, 4):
        return False, rendered, f"good count {n_l} not in {{0,1,4}}"
    if n_l != n_r:
        return False, rendered, f"good counts differ: {n_l} vs {n_r}"
    if n_l == 1:
        g_l = next(g for g, c in zip(lhs, cl) if c)
        g_r = next(g for g, c in zip(rhs, cr) if c)
        if g_l != g_r:
            return False, rendered, f"lone good letters differ: {g_l} vs {g_r}"
    if n_l == 4:
        centrals = tuple(g.elems[c >> 1] for g, c in zip(lhs + rhs, cl + cr))
        if centrals not in middles:
            return False, rendered, "no total order realises all eight letters"
    return True, rendered, ""


def _tetra_census() -> CensusReport:
    read = _census_reader(4)
    base = _bit_base(4)
    tags = {g: _tags(g) for g in all_generators(4)}
    rows = []
    for mask in range(1 << comb(4, 3)):
        for case, lhs, rhs, middles in _tetra_windows():
            ok, rendered, detail = _tetra_case(read, base, mask, lhs, rhs, middles, tags)
            rows.append(CensusRow(mask, case, rendered, ok, detail))
    return CensusReport(4, "tetra", len(rows), tuple(rows))


def _square_census() -> CensusReport:
    read = _census_reader(4)
    base = _bit_base(4)
    plan = [(str(g), _bit(base, g), _tags(g)) for g in all_generators(4)]
    rows = []
    for mask in range(1 << comb(4, 3)):
        for case, b, tags in plan:
            first = read(mask, b)
            second = read(mask ^ 1 << b, b)
            ok = first == second
            rows.append(
                CensusRow(
                    mask,
                    case,
                    f"{tags[first]},{tags[second]}",
                    ok,
                    "" if ok else "square copies disagree",
                )
            )
    return CensusReport(4, "square", len(rows), tuple(rows))


def _commute_census(n: int, samples: int, seed: int) -> CensusReport:
    read = _census_reader(n)
    base = _bit_base(n)
    gens = all_generators(n)
    plan = [
        (f"{a}|{b}", _bit(base, a), _bit(base, b), _tags(a), _tags(b))
        for a, b in combinations(gens, 2)
        if far_commutes(a, b)
    ]
    width = comb(n, 3)
    if n == 5:
        masks = range(1 << width)
    else:
        # the full state space is 2^C(n,3); sample it with a fixed seed
        rng = random.Random(seed)
        masks = [rng.randrange(1 << width) for _ in range(samples)]
    rows = []
    for mask in masks:
        # every letter far-commutes with another, so all are read here
        here = [read(mask, b) for b in range(width)]
        for case, a, b, tags_a, tags_b in plan:
            # a then b, and b then a, each letter read at its prefix state
            fa, rb = here[a], here[b]
            fb = read(mask ^ 1 << a, b)
            ra = read(mask ^ 1 << b, a)
            ok = fa == ra and fb == rb
            rows.append(
                CensusRow(
                    mask,
                    case,
                    f"{tags_a[fa]},{tags_b[fb]}|{tags_b[rb]},{tags_a[ra]}",
                    ok,
                    "" if ok else "statuses change under swap",
                )
            )
    return CensusReport(n, "commute", len(rows), tuple(rows))


def commute_census_rows(n: int, samples: int) -> int:
    """The rows of `relation_census(n, "commute", samples=samples)`, counted
    without building them: one per state and pair of generators that share
    at most one strand."""
    pairs = comb(comb(n, 3), 2) - comb(n, 2) * comb(n - 2, 2)
    return (1 << comb(n, 3) if n == 5 else samples) * pairs


def relation_census(n: int, lemma: str, *, samples: int = 512, seed: int = 0) -> CensusReport:
    """Exhaustively check one relation family's status behaviour.

    ``tetra``: over all 16 states of n=4 and all 24 tuple orderings, good
    counts lie in {0,1,4}, match on both sides, lone survivors coincide,
    and count-4 cases admit one total order realising every letter.
    ``square``: both copies of a doubled letter share status.
    ``commute``: far-commuting letters keep their statuses under the swap
    (exhaustive at n=5, `samples` seeded states for n >= 6; a negative
    count raises `InvalidBudget`).
    """
    if lemma in ("tetra", "square"):
        if n != 4:
            raise UnsupportedN(f"{lemma} census is exhaustive for n=4 only")
        return _tetra_census() if lemma == "tetra" else _square_census()
    if lemma == "commute":
        if n < 5:
            raise UnsupportedN("no far-commuting pairs below n=5")
        if n > 5 and samples < 0:
            raise InvalidBudget(f"census samples must be >= 0, got {samples}")
        return _commute_census(n, samples, seed)
    raise ValueError(f"unknown lemma census {lemma!r}")
