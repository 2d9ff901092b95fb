"""Orientation states on strand triples and the realisability machinery.

A state assigns a sign to every sorted triple of strands; reading a word
left to right, each generator flips the sign of its own triple.  A letter
is *realisable* at a state when one of its three strands can serve as the
central element: with central c flanked by x and y, every outside strand p
must see the same sign on (x,c,p), (x,y,p) and (c,y,p).  Realisability
drives the good/bad split of letters, the bad-letter projection, and the
exhaustive census checks over all states.

A state is an int bitmask over the sorted triples in lexicographic order
(the order of `all_generators`, so letter b flips bit b): bit b is set
when triple b carries -1.  Triple i<j<k is bit `first[i] - second[j] + k`
for the two O(n) rows of `generator_ranks(n)`, which each reader takes
once per call.  A state holds only n and its mask; a call that reads it
many times builds its own byte table, one byte per triple (`_bits`),
because every read of an int's bit copies the whole int.

A letter is read from three pair rows: the row of x<y is an int whose bit p
is the bit of triple {x,y,p}.  Its status is a few whole-int operations on
the rows of its pairs ij, ik and jk (`_central`), whatever n is, and the
letter flips one bit in each of them.  `classify_word` keeps only the rows
the word touches; `letter_status` is the one-letter `classify_word`.

A census reads a letter at many states at once, sliced by triple
(`_columns`): triple b's column is an int whose byte s is bit b of state s,
so one whole-int operation acts on every state, and `_sliced_centrals`
applies `_central`'s XOR rule to the columns, one lane per central.  This
is bit-slicing (Biham, "A fast new DES implementation in software", 1997).
Every census is a stream of cases, each with one or two sides of letters,
read by one engine (`_census`) as they come.  Flips commute, so a letter's
prefix state is fixed by its *flip set*, the set of letters flipped before
it: the engine keeps one table entry per flip set, its columns, built once
(`_flipped`), and the code of each letter read there, read once.  Square
makes 8 reads and 4 column sets, tetra 32 and 14, commute
C(n,3) + 2 * (far pairs) and C(n,3).  A census computes a suspect row's
detail once, for the row it renders.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, count, permutations, takewhile
from math import comb
from typing import NamedTuple

from .errors import (
    BadTriple,
    DimensionMismatch,
    InvalidBudget,
    InvalidN,
    UnsupportedN,
    check_n,
    clip,
)
from .group_core import GWord, GenTriple, all_generators, check_word, far_commutes, generator_ranks

Triple = tuple[int, int, int]


_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int, width: int) -> bytearray:
    """The byte table of `mask`: byte b is bit b, for b < width.  O(width)
    at C speed, the cost of one bit read of the int."""
    return bytearray(f"{mask:0{width}b}"[::-1], "ascii").translate(_ASCII_BITS)


@dataclass(frozen=True)
class OrientationState:
    """Signs on sorted strand triples; `minus` is the bitmask of the
    triples at -1, so it is 0 exactly at the all-plus state.  It is the id
    censuses print, and the constructor checks it: n and minus are ints
    (not bools), n >= 4 and 0 <= minus < 2^C(n,3)."""

    n: int
    minus: int

    def __post_init__(self):
        check_n(self.n)
        if type(self.minus) is not int:
            raise BadTriple(f"state id must be an int, got {clip(self.minus)}")
        # the bit length, not a compare with 1 << C(n,3): that bound alone
        # would be a 2.6 Mbit int at n = 250
        if self.minus < 0 or self.minus.bit_length() > comb(self.n, 3):
            raise BadTriple(f"state id {clip(self.minus)} out of range for n={clip(self.n)}")

    def value(self, triple: Triple) -> int:
        """Sign stored on a *sorted* triple, whose strands are checked as a
        generator's are."""
        a, b, c = GenTriple(self.n, triple).elems
        if (a, b, c) != tuple(triple):
            raise BadTriple(f"{clip(tuple(triple))} is not a sorted triple of 1..{clip(self.n)}")
        first, second = generator_ranks(self.n)
        return -1 if self.minus >> (first[a] - second[b] + c) & 1 else 1


def _check_state(s: object) -> None:
    """Refuse anything but an `OrientationState` with `BadTriple`, as
    `check_word` refuses anything but a word."""
    if type(s) is not OrientationState:
        raise BadTriple(f"need an orientation state, got {clip(s)}")


def initial_state(n: int) -> OrientationState:
    """State of the uniform circular configuration.

    Around the circle, strand j sits in angular position j, so for any
    sorted triple i<j<k the arc from i to j is shorter than the arc from i
    to k and the stored sign is +1.
    """
    return OrientationState(n, 0)


def run_word(s: OrientationState, w: GWord) -> OrientationState:
    """Left-to-right composition of flips."""
    _check_state(s)
    check_word(w)
    if w.n != s.n:
        raise DimensionMismatch(f"word n={clip(w.n)}, state n={clip(s.n)}")
    first, second = generator_ranks(s.n)
    cur = s.minus
    for g in w.letters:
        i, j, k = g.elems
        cur ^= 1 << (first[i] - second[j] + k)
    return OrientationState(s.n, cur)


def _row(ranks, table, n: int, x: int, y: int) -> int:
    """The pair row of x<y at the state whose byte table is `table`: bit p
    is the bit of the sorted triple {x,y,p}, found by the rows `ranks` of
    `generator_ranks(n)`.  O(n); classifying reads it once per pair it
    touches, and only from a start other than all-plus."""
    first, second = ranks
    row = 0
    r = second[x] - y
    for p in range(1, x):
        row |= table[first[p] - r] << p
    r = first[x] + y
    for p in range(x + 1, y):
        row |= table[r - second[p]] << p
    r = first[x] - second[y]
    for p in range(y + 1, n + 1):
        row |= table[r + p] << p
    return row


def _central(ij: int, ik: int, jk: int, full: int, i: int, j: int, k: int) -> int:
    """The central of letter i<j<k, 0 when it has none, from its pair rows
    `ij`, `ik` and `jk`; `full` has the bits of strands 1..n.

    The rule: outside strand p admits central c exactly when the XORs
    x_p = ij_p ^ ik_p and y_p = ik_p ^ jk_p equal c's targets for the
    region of p, where O holds the strands below i or above k, G1 those
    strictly between i and j, and G2 those strictly between j and k:

        central   O       G1      G2
        i         (1,0)   (1,1)   (0,0)
        j         (0,0)   (0,1)   (1,0)
        k         (0,1)   (0,0)   (1,1)

    Proof: an ordered triple's sign is (-1)^(its sorted triple's bit + the
    parity of the sort), so each of the two equalities among a central's
    three signs sets one XOR of ij_p, ik_p, jk_p to a parity of order
    tests: i (flanked by j and k) needs x_p = 1 + [p<j] + [p<k] and
    y_p = [p<i] + [p<j], j needs [p<j] + [p<k] and [p<i] + [p<j], and k
    needs [p<j] + [p<k] and 1 + [p<i] + [p<j], mod 2.  Reversed flanks
    negate all three signs, so they admit the same.  The three targets of
    a region differ, so p admits at most one central, and n >= 4 leaves at
    least one outside strand.  With U the outside strands and X, Y the
    XORs over U, the AND over p reads: i is central iff X == O|G1 and
    Y == G1, j iff X == G2 and Y == G1, k iff X == G2 and Y == O|G2.
    Censuses apply the rule to columns of states (`_sliced_centrals`)."""
    u = full ^ (1 << i | 1 << j | 1 << k)
    x = (ij ^ ik) & u
    y = (ik ^ jk) & u
    g1 = (1 << j) - (2 << i)
    g2 = (1 << k) - (2 << j)
    if x == g2:
        if y == g1:
            return j
        if y == u ^ g1:
            return k
    elif y == g1 and x == u ^ g2:
        return i
    return 0


@dataclass(frozen=True)
class LetterStatus:
    """The admissible central element, 0 when there is none; good means
    there is one.

    Admissibility is unchanged by reversing the flanking order, so the
    central is well defined, and at most one strand is admissible: the
    three central conditions are mutually exclusive for each outside
    strand, and n >= 4 leaves at least one (`_central` proves both).
    """

    central: int

    def __post_init__(self):
        if type(self.central) is not int or self.central < 0:
            raise BadTriple(f"central must be 0 or a strand id, got {clip(self.central)}")

    @property
    def good(self) -> bool:
        return self.central != 0

    @cached_property
    def centrals(self) -> frozenset[int]:
        """The admissible centrals as a set: {central}, or empty when bad."""
        return frozenset((self.central,) if self.central else ())


# one status per central, shared by every letter that admits it
_status = cache(LetterStatus)


def letter_status(s: OrientationState, g: GenTriple) -> LetterStatus:
    """Classify one letter at a state: the one-letter `classify_word`."""
    _check_state(s)
    return classify_word(GWord(s.n, (g,)), s).statuses[0]


@dataclass(frozen=True)
class ClassifiedWord:
    """A word's letter statuses, each at its prefix state, and its final state.

    Every letter acts on the running state, good or bad; the action is
    defined for all words, and the stable projection only converges under
    this reading.  No prefix state is kept: classifying holds the rows of
    the pairs the word touches (three per letter, n+1 bits each) and one
    bit per triple for the letters seen an odd number of times (C(n,3)/8
    bytes, 321 KB at n=250), which it XORs into the start's mask once.
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
    a relation window in isolation.  Each letter reads its three pair rows
    (`_central`) and flips one bit in each; the rows of a start other than
    all-plus come from its byte table (`_bits`), built for the call.
    """
    check_word(w)
    s = initial_state(w.n) if start is None else start
    _check_state(s)
    if s.n != w.n:
        raise DimensionMismatch(f"word n={clip(w.n)}, state n={clip(s.n)}")
    n = w.n
    ranks = first, second = generator_ranks(n)
    full = (2 << n) - 2
    m = n + 1  # the row of x<y is keyed x * m + y
    if s.minus:
        table = _bits(s.minus, comb(n, 3))
        pairs = {pair for g in w.letters for pair in combinations(g.elems, 2)}
        rows = {x * m + y: _row(ranks, table, n, x, y) for x, y in pairs}
    else:  # every row of the all-plus start is 0
        rows = {}
    get = rows.get
    odd = bytearray(comb(n, 3) + 7 >> 3)
    statuses: list[LetterStatus] = []
    for g in w.letters:
        i, j, k = g.elems
        a, b, c = i * m + j, i * m + k, j * m + k
        ij, ik, jk = get(a, 0), get(b, 0), get(c, 0)
        statuses.append(_status(_central(ij, ik, jk, full, i, j, k)))
        rows[a], rows[b], rows[c] = ij ^ 1 << k, ik ^ 1 << j, jk ^ 1 << i
        t = first[i] - second[j] + k
        odd[t >> 3] ^= 1 << (t & 7)
    final = s.minus ^ int.from_bytes(odd, "little")
    return ClassifiedWord(w, tuple(statuses), OrientationState(n, final))


def is_realisable(w: GWord) -> bool:
    return classify_word(w).realisable


def project_once(w: GWord) -> GWord:
    """Delete exactly the bad letters, preserving the order of the rest."""
    cw = classify_word(w)
    return GWord(w.n, tuple(g for g, st in zip(w.letters, cw.statuses) if st.good))


def stable_projection(w: GWord) -> tuple[GWord, int]:
    """Iterate the projection to its fixed point.

    Returns the fixed point and the number of passes, including the final
    pass, the first to keep the length: a pass only deletes letters.  The
    count is at most len(w)+1; the result has no bad letters.
    """
    passes = 0
    cur = w
    while True:
        passes += 1
        nxt = project_once(cur)
        if len(nxt) == len(cur):
            return cur, passes
        cur = nxt


# ---------------------------------------------------------------------------
# State enumeration and lemma censuses


def enumerate_states(n: int) -> Iterator[OrientationState]:
    """All 2^C(n,3) orientation states, in the order of their masks, each
    counted when it is reached; n is checked at the call, as
    `OrientationState` checks it."""
    check_n(n)
    width = comb(n, 3)
    masks = takewhile(lambda mask: mask.bit_length() <= width, count())
    return (OrientationState(n, mask) for mask in masks)


class CensusRow(NamedTuple):
    state: int
    case: str
    statuses: str
    ok: bool
    detail: str = ""


def _columns(masks: Sequence[int], width: int) -> list[int]:
    """The states `masks` sliced by triple: column b is an int whose byte s
    is bit b of masks[s]."""
    digits = "".join(f"{mask:0{width}b}" for mask in masks).encode().translate(_ASCII_BITS)
    return [int.from_bytes(digits[width - 1 - b :: width], "little") for b in range(width)]


def _flipped(cols: list[int], b: int, size: int) -> list[int]:
    """The columns of the `size` states of `cols`, each with triple b flipped:
    a column of ones XORed into column b."""
    out = list(cols)
    out[b] ^= int.from_bytes(b"\1" * size, "little")
    return out


def _misses(ranks, cols: list[int], ones: int, n: int, i: int, j: int, k: int):
    """Per outside strand p of letter i<j<k, the states where p rules out
    each central: bit c of byte s (0: i, 1: j, 2: k) is set where p's XOR
    columns x_p and y_p (`_central`), read through the rows `ranks` of
    `generator_ranks(n)`, differ at state s from c's targets for p's region.
    A column of 0/1 bytes times 7 fills the three lanes, and the targets
    are `ones` times their lane bits."""
    first, second = ranks
    fi, fj, si = first[i], first[j], second[i]
    pjk = k - second[j]  # p<j: {p,j,k} is bit first[p] + pjk
    tx, ty = ones, 4 * ones  # O: i needs (1,0), j (0,0), k (0,1)
    for p in range(1, i):
        r = first[p] - si
        ik = cols[r + k]
        yield (cols[r + j] ^ ik) * 7 ^ tx | (ik ^ cols[first[p] + pjk]) * 7 ^ ty
    tx, ty = ones, 3 * ones  # G1: i needs (1,1), j (0,1), k (0,0)
    for p in range(i + 1, j):
        r = fi - second[p]
        ik = cols[r + k]
        yield (cols[r + j] ^ ik) * 7 ^ tx | (ik ^ cols[first[p] + pjk]) * 7 ^ ty
    rij = fi - second[j]
    tx, ty = 6 * ones, 4 * ones  # G2: i needs (0,0), j (1,0), k (1,1)
    for p in range(j + 1, k):
        r = k - second[p]
        ik = cols[fi + r]
        yield (cols[rij + p] ^ ik) * 7 ^ tx | (ik ^ cols[fj + r]) * 7 ^ ty
    rik, rjk = fi - second[k], fj - second[k]
    tx, ty = ones, 4 * ones  # O
    for p in range(k + 1, n + 1):
        ik = cols[rik + p]
        yield (cols[rij + p] ^ ik) * 7 ^ tx | (ik ^ cols[rjk + p]) * 7 ^ ty


def _sliced_centrals(ranks, cols: list[int], size: int, n: int, i: int, j: int, k: int) -> int:
    """The centrals bitset of letter i<j<k at all `size` states of `cols`
    (from `_columns`) at once: byte s of the result is its bitset at state s
    (bit 0: i, bit 1: j, bit 2: k), by `_central`'s rule.  Lane c of `miss`
    is central c's miss column, the OR of every outside strand's misses
    (`_misses`); the read stops once every lane of every state is set."""
    ones = int.from_bytes(b"\1" * size, "little")
    sevens = 7 * ones
    miss = 0
    for column in _misses(ranks, cols, ones, n, i, j, k):
        miss |= column
        if miss == sevens:
            return 0
    return sevens ^ miss


class _Case(NamedTuple):
    """One census case at every census state.  `codes` holds its letters'
    centrals bitsets letter by letter, a run of one byte per state, so the
    row at state s is `codes[s::states]`; `tags[t][code]` renders letter t.
    `detail` maps a row's codes to its detail, "" when the row holds, and
    `suspects` is nonzero in byte s wherever the row at state s may fail."""

    name: str
    codes: bytes
    tags: tuple[tuple[str, ...], ...]
    detail: Callable[[bytes], str]
    suspects: int


class _CensusRows(Sequence):
    """The rows of a census, rendered when read: row r is case
    r % len(cases) at state r // len(cases), its letters' renderings joined
    by `template`."""

    def __init__(self, states: Sequence[int], template: str, cases: tuple[_Case, ...]):
        self._states = states
        self._template = template
        self._cases = cases

    def _row(self, s: int, case: _Case, codes: bytes, detail: str) -> CensusRow:
        statuses = self._template.format(*(tags[c] for tags, c in zip(case.tags, codes)))
        return CensusRow(self._states[s], case.name, statuses, not detail, detail)

    def _read(self, s: int, case: _Case) -> CensusRow:
        codes = case.codes[s :: len(self._states)]
        return self._row(s, case, codes, case.detail(codes))

    def __len__(self) -> int:
        return len(self._states) * len(self._cases)

    def __getitem__(self, index: int | slice) -> CensusRow | tuple[CensusRow, ...]:
        if isinstance(index, slice):
            return tuple(self[r] for r in range(len(self))[index])
        s, c = divmod(range(len(self))[index], len(self._cases))
        return self._read(s, self._cases[c])

    def __iter__(self):
        for s in range(len(self._states)):
            for case in self._cases:
                yield self._read(s, case)

    def violations(self) -> tuple[CensusRow, ...]:
        """The rows that fail, in row order, read only at suspect states;
        a suspect row's detail is computed once and kept by its row."""
        size = len(self._states)
        suspect = [
            (case, case.suspects.to_bytes(size, "little")) for case in self._cases if case.suspects
        ]
        rows = []
        for s in range(size):
            for case, flags in suspect:
                if flags[s]:
                    codes = case.codes[s::size]
                    if detail := case.detail(codes):
                        rows.append(self._row(s, case, codes, detail))
        return tuple(rows)


@dataclass(frozen=True, eq=False)
class CensusReport:
    """A census's verdicts: one row per state and case.

    A census computes each letter's codes at all of its states at once
    (`_sliced_centrals`) and keeps those columns, not rows: `rows` is a
    read-only sequence that renders a row whenever one is read.
    `violations` is found from the columns, so only the failing rows are
    ever rendered for it.
    """

    n: int
    lemma: str
    rows: _CensusRows

    @property
    def cases(self) -> int:
        return len(self.rows)

    @cached_property
    def violations(self) -> tuple[CensusRow, ...]:
        return self.rows.violations()

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self, full: bool = False) -> Iterator[str]:
        """The table's lines, each rendered when it is reached: a header,
        then every row with `full`, else the violations."""
        yield (
            f"census lemma={self.lemma} n={self.n} cases={self.cases} "
            f"violations={len(self.violations)}"
        )
        for r in self.rows if full else self.violations:
            flag = "ok" if r.ok else "VIOLATION"
            line = f"state={r.state} case={r.case} statuses={r.statuses} {flag}"
            yield f"{line} ({r.detail})" if r.detail else line

    def to_table(self, full: bool = False) -> str:
        return "\n".join(self.lines(full))


def _tags(g: GenTriple) -> tuple[str, ...]:
    """The `letter:status` renderings of g, indexed by centrals bitset."""
    name = str(g)
    i, j, k = g.elems
    return (f"{name}:bad", f"{name}:g{i}", f"{name}:g{j}", "", f"{name}:g{k}")


def _census(n: int, lemma: str, states: Sequence[int], template: str, cases) -> CensusReport:
    """The census of `cases` at `states`, taken as they come, each case a
    tuple (name, sides, detail, suspects): every side is a tuple of letter
    indices (letter b is `all_generators(n)[b]` and flips triple b), read
    left to right from each state; `template` joins the renderings of all
    sides' letters, `detail` is `_Case`'s, and `suspects(codes)` gives
    `_Case.suspects` from the case's code columns, in side order.

    Flips commute, so a letter's prefix state is fixed by its flip set, the
    bitmask of the letters flipped before it on its side.  `table` maps a
    flip set to its columns and a slot per letter for its code there: the
    columns are built once (`_flipped`), from those of the set before it on
    the side, which has been read at, and each letter is read once per flip
    set (`_sliced_centrals`)."""
    ranks = generator_ranks(n)
    size = len(states)
    gens = all_generators(n)
    tags = [_tags(g) for g in gens]
    table = {0: (_columns(states, len(gens)), [None] * len(gens))}
    built = []
    for name, sides, detail, suspects in cases:
        codes, letters = [], []
        for side in sides:
            done = 0
            for b in side:
                at = table.get(done)
                if at is None:
                    cols = _flipped(table[done ^ 1 << last][0], last, size)
                    at = table[done] = (cols, [None] * len(gens))
                cols, read = at
                code = read[b]
                if code is None:
                    code = read[b] = _sliced_centrals(ranks, cols, size, n, *gens[b].elems)
                codes.append(code)
                letters.append(tags[b])
                done ^= 1 << b
                last = b
        runs = b"".join([code.to_bytes(size, "little") for code in codes])
        built.append(_Case(name, runs, tuple(letters), detail, suspects(codes)))
    return CensusReport(n, lemma, _CensusRows(states, template, tuple(built)))


def tetra_letters(n: int, tup: tuple[int, int, int, int]) -> tuple[GenTriple, ...]:
    """The four letters of the tetrahedron word for an ordered 4-tuple:
    letter j omits the j-th tuple entry."""
    try:
        u = set(tup)
    except TypeError:
        raise BadTriple(f"need four strands, got {clip(tup)}") from None
    return tuple(GenTriple(n, tuple(sorted(u - {x}))) for x in tup)


def _middle_code(g: GenTriple, order: tuple[int, ...]) -> int:
    """The centrals bitset that makes g's middle strand under `order` its
    central."""
    rank = {v: i for i, v in enumerate(order)}
    return 1 << g.elems.index(sorted(g.elems, key=rank.__getitem__)[1])


@cache
def _tetra_windows() -> tuple[frozenset[bytes], tuple[tuple[str, tuple[int, ...], tuple], ...]]:
    """The codes of the four letters of n=4, in triple order, that some
    total order of 1..4 realises; and per ordering of 1..4, its case name,
    its left side as letter indices and where each letter is on it."""
    gens = all_generators(4)  # the letter omitting strand x is gens[4 - x]
    orders = list(permutations((1, 2, 3, 4)))
    realised = frozenset(bytes(_middle_code(g, order) for g in gens) for order in orders)
    windows = []
    for tup in orders:
        lhs = tuple(4 - x for x in tup)
        windows.append(("".join(map(str, tup)), lhs, tuple(map(lhs.index, range(4)))))
    return realised, tuple(windows)


def _tetra_detail(lhs, where, realised, codes: bytes) -> str:
    cl, cr = codes[:4], codes[4:]
    n_l, n_r = 4 - cl.count(0), 4 - cr.count(0)
    if n_l not in (0, 1, 4):
        return f"good count {n_l} not in {{0,1,4}}"
    if n_l != n_r:
        return f"good counts differ: {n_l} vs {n_r}"
    if n_l == 1:
        g_l = next(g for g, c in zip(lhs, cl) if c)
        g_r = next(g for g, c in zip(lhs[::-1], cr) if c)
        if g_l != g_r:
            gens = all_generators(4)
            return f"lone good letters differ: {gens[g_l]} vs {gens[g_r]}"
    # the right side holds the left's letters reversed, so all eight are
    # realised when each letter has one central on both sides and one total
    # order makes the four centrals middles
    if n_l == 4 and (cl != cr[::-1] or bytes(map(cl.__getitem__, where)) not in realised):
        return "no total order realises all eight letters"
    return ""


def _tetra_census() -> CensusReport:
    states = range(1 << comb(4, 3))
    # a window's verdict needs all eight codes, so every row is suspect
    every = int.from_bytes(b"\1" * len(states), "little")
    realised, windows = _tetra_windows()
    cases = [
        (name, (lhs, lhs[::-1]), partial(_tetra_detail, lhs, where, realised), lambda _: every)
        for name, lhs, where in windows
    ]
    return _census(4, "tetra", states, "{},{},{},{}|{},{},{},{}", cases)


def _square_detail(codes: bytes) -> str:
    return "" if codes[0] == codes[1] else "square copies disagree"


def _square_census() -> CensusReport:
    # each letter, then the same letter with its own triple flipped
    cases = [
        (str(g), ((b, b),), _square_detail, lambda codes: codes[0] ^ codes[1])
        for b, g in enumerate(all_generators(4))
    ]
    return _census(4, "square", range(1 << comb(4, 3)), "{},{}", cases)


def _commute_detail(codes: bytes) -> str:
    fa, fb, rb, ra = codes
    return "" if fa == ra and fb == rb else "statuses change under swap"


def _commute_suspects(codes: list[int]) -> int:
    fa, fb, rb, ra = codes
    return (fa ^ ra) | (fb ^ rb)


def _commute_census(n: int, samples: int, seed: int) -> CensusReport:
    width = comb(n, 3)
    if n == 5:
        states = range(1 << width)
    else:
        # the full state space is 2^C(n,3); sample it with a fixed seed
        rng = random.Random(seed)
        states = [rng.randrange(1 << width) for _ in range(samples)]
    if not states:
        return CensusReport(n, "commute", _CensusRows(states, "", ()))
    # a then b, and b then a, for every far-commuting pair
    gens = all_generators(n)
    names = [str(g) for g in gens]
    cases = (
        (f"{names[a]}|{names[b]}", ((a, b), (b, a)), _commute_detail, _commute_suspects)
        for a, b in combinations(range(width), 2)
        if far_commutes(gens[a], gens[b])
    )
    return _census(n, "commute", states, "{},{}|{},{}", cases)


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
    (exhaustive at n=5, `samples` seeded states for n >= 6; a count that
    is not an int >= 0 raises `InvalidBudget`).  An n that is not an int,
    or is a bool, raises `InvalidN`; another lemma raises `UnsupportedN`.
    """
    if type(n) is not int:
        raise InvalidN(f"strand count must be an int, got {clip(n)}")
    if lemma in ("tetra", "square"):
        if n != 4:
            raise UnsupportedN(f"{lemma} census is exhaustive for n=4 only")
        return _tetra_census() if lemma == "tetra" else _square_census()
    if lemma == "commute":
        if n < 5:
            raise UnsupportedN("no far-commuting pairs below n=5")
        if n > 5 and (type(samples) is not int or samples < 0):
            raise InvalidBudget(f"census samples must be >= 0, got {clip(samples)}")
        return _commute_census(n, samples, seed)
    raise UnsupportedN(f"unknown lemma census {clip(lemma)}")
