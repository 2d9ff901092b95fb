"""Orientation states on strand triples and the realisability machinery.

A state assigns a sign to every sorted triple of strands; reading a word
left to right, each generator flips the sign of its own triple.  A letter
is *realisable* at a state when one of its three strands can serve as the
central element: with central c flanked by x and y, every outside strand p
must see the same sign on (x,c,p), (x,y,p) and (c,y,p).  Realisability
drives the good/bad split of letters, the bad-letter projection, and the
exhaustive census checks over all states.

A state is an int bitmask over the sorted triples in lexicographic order
(the order of `all_triples`, and of `all_generators`, so letter b flips
bit b): bit b is set when triple b carries -1.  Triple i<j<k is bit
`first[i] - second[j] + k` for the two O(n) rows of `generator_ranks(n)`,
which each reader takes once per call; no table outlives the call.  Code
that reads a state many times reads a byte table instead, one byte per
triple (`_bits`), because every read of an int's bit copies the whole int.

A letter is read from three pair rows: the row of x<y is an int whose bit p
is the bit of triple {x,y,p}.  Its status is a few whole-int operations on
the rows of its pairs ij, ik and jk (`_central`), whatever n is, and the
letter flips one bit in each of them.  `classify_word` keeps only the rows
the word touches; `letter_status` reads its three from the byte table.

A census reads a letter at many states at once, sliced by triple
(`_columns`): triple b's column is an int whose byte s is bit b of state s,
so one whole-int operation acts on every state, and `_sliced_centrals`
applies `_central`'s XOR rule to the columns, one lane per central.  This
is bit-slicing (Biham, "A fast new DES implementation in software", 1997).
Flips commute, so a census reads a letter once per *set* of letters flipped
before it, not once per window that reaches that set, and it computes a
suspect row's detail once, for the row it renders.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, permutations
from math import comb
from typing import NamedTuple

from .errors import BadTriple, DimensionMismatch, InvalidBudget, InvalidN, UnsupportedN
from .group_core import GWord, GenTriple, all_generators, far_commutes, generator_ranks

Triple = tuple[int, int, int]


def all_triples(n: int) -> list[Triple]:
    return list(combinations(range(1, n + 1), 3))


_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int, width: int) -> bytearray:
    """The byte table of `mask`: byte b is bit b, for b < width.  O(width)
    at C speed, the cost of one bit read of the int."""
    if not mask:
        return bytearray(width)
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
        if type(self.n) is not int or self.n < 4:
            raise InvalidN(f"strand count must be >= 4, got {self.n!r}")
        if type(self.minus) is not int:
            raise BadTriple(f"state id must be an int, got {self.minus!r}")
        # the bit length, not a compare with 1 << C(n,3): that bound alone
        # would be a 2.6 Mbit int at n = 250
        width = self.minus.bit_length()
        if self.minus < 0 or width > comb(self.n, 3):
            # Python will not print an int of over 4,300 digits
            shown = self.minus if width <= 256 else f"of {width} bits"
            raise BadTriple(f"state id {shown} out of range for n={self.n}")

    @cached_property
    def _table(self) -> bytes:
        """The byte table, built at the first read of a letter or a triple
        and kept, since callers often read many letters at one state (a
        walk draws letters until one is good)."""
        return bytes(_bits(self.minus, comb(self.n, 3)))

    def value(self, triple: Triple) -> int:
        """Sign stored on a *sorted* triple, whose strands are checked as a
        generator's are."""
        a, b, c = GenTriple(self.n, triple).elems
        if (a, b, c) != tuple(triple):
            raise BadTriple(f"{tuple(triple)} is not a sorted triple of 1..{self.n}")
        first, second = generator_ranks(self.n)
        return -1 if self._table[first[a] - second[b] + c] else 1


def initial_state(n: int) -> OrientationState:
    """State of the uniform circular configuration.

    Around the circle, strand j sits in angular position j, so for any
    sorted triple i<j<k the arc from i to j is shorter than the arc from i
    to k and the stored sign is +1.
    """
    return OrientationState(n, 0)


def signed_index(s: OrientationState, i: int, j: int, k: int) -> int:
    """Sign of the ordered triple (i,j,k) of distinct strands, checked as a
    generator's are: antisymmetric in its arguments."""
    elems = GenTriple(s.n, (i, j, k)).elems
    odd = (i > j) ^ (i > k) ^ (j > k)
    return -s.value(elems) if odd else s.value(elems)


def flip(s: OrientationState, g: GenTriple) -> OrientationState:
    """Negate exactly the entry of g's triple; an involution."""
    if g.n != s.n:
        raise DimensionMismatch(f"generator n={g.n}, state n={s.n}")
    return run_word(s, GWord(s.n, (g,)))


def run_word(s: OrientationState, w: GWord) -> OrientationState:
    """Left-to-right composition of flips."""
    if w.n != s.n:
        raise DimensionMismatch(f"word n={w.n}, state n={s.n}")
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
            raise BadTriple(f"central must be 0 or a strand id, got {self.central!r}")

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
    """Classify one letter at a state: its three pair rows, read from the
    state's byte table."""
    if g.n != s.n:
        raise DimensionMismatch(f"generator n={g.n}, state n={s.n}")
    n, ranks, table = s.n, generator_ranks(s.n), s._table
    ij, ik, jk = (_row(ranks, table, n, x, y) for x, y in combinations(g.elems, 2))
    i, j, k = g.elems
    return _status(_central(ij, ik, jk, (2 << n) - 2, i, j, k))


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
    (`_central`) and flips one bit in each.
    """
    s = initial_state(w.n) if start is None else start
    if s.n != w.n:
        raise DimensionMismatch(f"word n={w.n}, state n={s.n}")
    n = w.n
    ranks = first, second = generator_ranks(n)
    full = (2 << n) - 2
    m = n + 1  # the row of x<y is keyed x * m + y
    if s.minus:
        pairs = {pair for g in w.letters for pair in combinations(g.elems, 2)}
        rows = {x * m + y: _row(ranks, s._table, n, x, y) for x, y in pairs}
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


def enumerate_states(n: int) -> Iterator[OrientationState]:
    """All 2^C(n,3) orientation states, in the order of their masks; n is
    checked at the call, as `OrientationState` checks it."""
    if type(n) is not int or n < 4:
        raise InvalidN(f"strand count must be >= 4, got {n!r}")
    return (OrientationState(n, mask) for mask in range(1 << comb(n, 3)))


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
    centrals bitsets state by state (`_interleaved`); `tags[t][code]`
    renders letter t, and `template` joins the renderings.  `detail(codes)`
    is the row's detail, "" when the row holds, and `suspects` is nonzero in
    byte s wherever the row at state s may fail."""

    name: str
    codes: bytes
    tags: tuple[tuple[str, ...], ...]
    template: str
    detail: Callable[[bytes], str]
    suspects: int

    def codes_at(self, s: int) -> bytes:
        return self.codes[s * len(self.tags) : (s + 1) * len(self.tags)]


def _interleaved(size: int, columns: Sequence[int]) -> bytes:
    """The code columns of one case's L letters regrouped by state: bytes
    L*s to L*s+L-1 hold their codes at state s, so one slice reads a row."""
    out = bytearray(size * len(columns))
    for t, column in enumerate(columns):
        out[t :: len(columns)] = column.to_bytes(size, "little")
    return bytes(out)


class _CensusRows(Sequence):
    """The rows of a census, rendered when read: row r is case
    r % len(cases) at state r // len(cases)."""

    def __init__(self, states: Sequence[int], cases: tuple[_Case, ...]):
        self._states = states
        self._cases = cases

    def _row(self, s: int, case: _Case, codes: bytes, detail: str) -> CensusRow:
        statuses = case.template.format(*(tags[c] for tags, c in zip(case.tags, codes)))
        return CensusRow(self._states[s], case.name, statuses, not detail, detail)

    def _read(self, s: int, case: _Case) -> CensusRow:
        codes = case.codes_at(s)
        return self._row(s, case, codes, case.detail(codes))

    def __len__(self) -> int:
        return len(self._states) * len(self._cases)

    def __getitem__(self, index: int) -> CensusRow:
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
                    codes = case.codes_at(s)
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


def tetra_letters(n: int, tup: tuple[int, int, int, int]) -> tuple[GenTriple, ...]:
    """The four letters of the tetrahedron word for an ordered 4-tuple:
    letter j omits the j-th tuple entry."""
    u = set(tup)
    return tuple(GenTriple(n, tuple(sorted(u - {x}))) for x in tup)


def _middle_code(g: GenTriple, order: tuple[int, ...]) -> int:
    """The centrals bitset that makes g's middle strand under `order` its
    central."""
    rank = {v: i for i, v in enumerate(order)}
    return 1 << g.elems.index(sorted(g.elems, key=rank.__getitem__)[1])


@cache
def _tetra_windows() -> tuple[frozenset[bytes], tuple[tuple[str, tuple, tuple, tuple], ...]]:
    """The codes of the four letters of n=4, in triple order, that some
    total order of 1..4 realises; and per ordering of 1..4, its case name,
    its two sides and where each of the four letters is on its left side."""
    gens = all_generators(4)  # the letter omitting strand x is gens[4 - x]
    orders = list(permutations((1, 2, 3, 4)))
    realised = frozenset(bytes(_middle_code(g, order) for g in gens) for order in orders)
    windows = []
    for tup in orders:
        lhs = tuple(gens[4 - x] for x in tup)
        windows.append(("".join(map(str, tup)), lhs, lhs[::-1], tuple(map(lhs.index, gens))))
    return realised, tuple(windows)


def _tetra_detail(lhs, rhs, where, realised, codes: bytes) -> str:
    cl, cr = codes[:4], codes[4:]
    n_l, n_r = 4 - cl.count(0), 4 - cr.count(0)
    if n_l not in (0, 1, 4):
        return f"good count {n_l} not in {{0,1,4}}"
    if n_l != n_r:
        return f"good counts differ: {n_l} vs {n_r}"
    if n_l == 1:
        g_l = next(g for g, c in zip(lhs, cl) if c)
        g_r = next(g for g, c in zip(rhs, cr) if c)
        if g_l != g_r:
            return f"lone good letters differ: {g_l} vs {g_r}"
    # the right side holds the left's letters reversed, so all eight are
    # realised when each letter has one central on both sides and one total
    # order makes the four centrals middles
    if n_l == 4 and (cl != cr[::-1] or bytes(map(cl.__getitem__, where)) not in realised):
        return "no total order realises all eight letters"
    return ""


def _tetra_census() -> CensusReport:
    ranks = generator_ranks(4)
    states = range(1 << comb(4, 3))
    size = len(states)
    cols = _columns(states, comb(4, 3))
    gens = all_generators(4)  # letter b flips triple b
    bit = {g: b for b, g in enumerate(gens)}
    tags = {g: _tags(g) for g in gens}
    # flips commute, so a letter's prefix state is fixed by the set of the
    # letters before it, a bitmask over triples: every window reads its
    # letters at the 15 sets of at most three, each letter once per set
    # that leaves it out
    flipped = [cols]
    for done in range(1, 15):
        b = done.bit_length() - 1
        flipped.append(_flipped(flipped[done ^ 1 << b], b, size))
    reads = {
        (done, b): _sliced_centrals(ranks, flipped[done], size, 4, *g.elems)
        for done in range(15)
        for b, g in enumerate(gens)
        if not done >> b & 1
    }
    # a window's verdict needs all eight codes, so every row is suspect
    every = int.from_bytes(b"\1" * size, "little")
    cases = []
    realised, windows = _tetra_windows()
    for name, lhs, rhs, where in windows:
        codes = []
        for word in (lhs, rhs):
            done = 0
            for g in word:
                b = bit[g]
                codes.append(reads[done, b])
                done |= 1 << b
        cases.append(
            _Case(
                name,
                _interleaved(size, codes),
                tuple(tags[g] for g in lhs + rhs),
                "{},{},{},{}|{},{},{},{}",
                partial(_tetra_detail, lhs, rhs, where, realised),
                every,
            )
        )
    rows = _CensusRows(states, tuple(cases))
    return CensusReport(4, "tetra", rows)


def _square_detail(codes: bytes) -> str:
    return "" if codes[0] == codes[1] else "square copies disagree"


def _square_census() -> CensusReport:
    ranks = generator_ranks(4)
    states = range(1 << comb(4, 3))
    size = len(states)
    cols = _columns(states, comb(4, 3))
    cases = []
    for b, g in enumerate(all_generators(4)):  # letter b flips triple b
        first = _sliced_centrals(ranks, cols, size, 4, *g.elems)
        second = _sliced_centrals(ranks, _flipped(cols, b, size), size, 4, *g.elems)
        tags = _tags(g)
        cases.append(
            _Case(
                str(g),
                _interleaved(size, (first, second)),
                (tags, tags),
                "{},{}",
                _square_detail,
                first ^ second,
            )
        )
    rows = _CensusRows(states, tuple(cases))
    return CensusReport(4, "square", rows)


def _commute_detail(codes: bytes) -> str:
    fa, fb, rb, ra = codes
    return "" if fa == ra and fb == rb else "statuses change under swap"


def _commute_census(n: int, samples: int, seed: int) -> CensusReport:
    ranks = generator_ranks(n)
    width = comb(n, 3)
    if n == 5:
        states = range(1 << width)
    else:
        # the full state space is 2^C(n,3); sample it with a fixed seed
        rng = random.Random(seed)
        states = [rng.randrange(1 << width) for _ in range(samples)]
    if not states:
        return CensusReport(n, "commute", _CensusRows(states, ()))
    size = len(states)
    cols = _columns(states, width)
    # letters by triple index; every letter far-commutes with another, so
    # all are read here
    gens = all_generators(n)
    here = [_sliced_centrals(ranks, cols, size, n, *g.elems) for g in gens]
    flips = [_flipped(cols, b, size) for b in range(width)]
    names = [str(g) for g in gens]
    tags = [_tags(g) for g in gens]
    cases = []
    for a, b in combinations(range(width), 2):
        ga, gb = gens[a], gens[b]
        if not far_commutes(ga, gb):
            continue
        # a then b, and b then a, each letter read at its prefix state
        fa, rb = here[a], here[b]
        fb = _sliced_centrals(ranks, flips[a], size, n, *gb.elems)
        ra = _sliced_centrals(ranks, flips[b], size, n, *ga.elems)
        cases.append(
            _Case(
                f"{names[a]}|{names[b]}",
                _interleaved(size, (fa, fb, rb, ra)),
                (tags[a], tags[b], tags[b], tags[a]),
                "{},{}|{},{}",
                _commute_detail,
                (fa ^ ra) | (fb ^ rb),
            )
        )
    rows = _CensusRows(states, tuple(cases))
    return CensusReport(n, "commute", rows)


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
    count raises `InvalidBudget`).  An n that is not an int, or is a bool,
    raises `InvalidN`; another lemma raises `UnsupportedN`.
    """
    if type(n) is not int:
        raise InvalidN(f"strand count must be an int, got {n!r}")
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
    raise UnsupportedN(f"unknown lemma census {lemma!r}")
