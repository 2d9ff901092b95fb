"""Words over involutive generators indexed by 3-subsets of {1..n}.

The group carries three relation families: every generator squares to the
identity, two generators whose index sets share at most one strand commute
(far commutativity), and the four generators drawn from any 4 strands
satisfy the tetrahedron relation, i.e. their product may be reversed.
Words are immutable; relation moves produce rewritten copies.
"""

from __future__ import annotations

import functools
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .errors import (
    BadTriple,
    DimensionMismatch,
    InvalidBudget,
    InvalidMove,
    InvalidN,
    WordParseError,
)


@dataclass(frozen=True, order=True, slots=True)
class GenTriple:
    """One generator: an unordered 3-subset of {1..n}, stored sorted.

    Any ordering of the three indices constructs the same value.
    """

    n: int
    elems: tuple[int, int, int]

    def __post_init__(self):
        n, elems = self.n, self.elems
        # a sorted tuple of three ints in 1..n: exactly the input the checks
        # below accept and keep as given, so it skips their sort and copy
        if type(elems) is tuple and len(elems) == 3 and type(n) is int and n > 3:
            i, j, k = elems
            if type(i) is type(j) is type(k) is int and 0 < i < j < k <= n:
                return
        if type(n) is not int or n < 4:
            raise InvalidN(f"strand count must be >= 4, got {n!r}")
        try:
            elems = tuple(sorted(self.elems))
        except TypeError:  # not a sequence, or indices that do not compare
            raise BadTriple(f"need three int indices, got {self.elems!r}") from None
        if len(elems) != 3 or len(set(elems)) != 3:
            raise BadTriple(f"need three distinct indices, got {tuple(self.elems)}")
        i, j, k = elems
        if not type(i) is type(j) is type(k) is int:  # a bool or a float is not a strand
            raise BadTriple(f"need three int indices, got {tuple(self.elems)}")
        if i < 1 or k > self.n:
            raise BadTriple(f"indices {elems} out of range 1..{self.n}")
        if self.elems != elems:  # a sorted tuple is kept, not copied
            object.__setattr__(self, "elems", elems)

    def __str__(self) -> str:
        if self.n <= 9:
            return "a" + "".join(str(i) for i in self.elems)
        return "a(" + ",".join(str(i) for i in self.elems) + ")"


def _code(elems: tuple[int, ...]) -> int:
    """A generator's code: the bitmask of its strands, bit s for strand s."""
    i, j, k = elems
    return 1 << i | 1 << j | 1 << k


def generator_ranks(n: int) -> tuple[list[int], list[int]]:
    """The two O(n) rows of the generator order: generator i<j<k of
    `all_generators(n)`, and triple i<j<k of a state's mask, has index
    `first[i] - second[j] + k`, where first[t] = C(n,3) - C(n-t,3) and
    second[t] = C(n-t+1,2) + t + 1.  C(n,3) - C(n-i+1,3) triples have a
    smaller first index and C(n-i,2) - C(n-j+1,2) have first index i and a
    smaller second; by Pascal's rule, C(n-i+1,3) - C(n-i,2) = C(n-i,3)."""
    total = n * (n - 1) * (n - 2) // 6
    first, second = [], []
    for m in range(n, -1, -1):  # m = n - t
        first.append(total - m * (m - 1) * (m - 2) // 6)
        second.append(m * (m + 1) // 2 + n - m + 1)
    return first, second


@functools.cache
def _generators(n: int) -> tuple[GenTriple, ...]:
    """Every generator, in lexicographic index order."""
    return tuple(GenTriple(n, c) for c in combinations(range(1, n + 1), 3))


def all_generators(n: int) -> list[GenTriple]:
    """All C(n,3) generators, in lexicographic index order."""
    return list(_generators(n))


def _far(a: int, b: int) -> bool:
    """True when two codes share at most one strand bit."""
    shared = a & b
    return not shared & (shared - 1)


def far_commutes(a: GenTriple, b: GenTriple) -> bool:
    """True when the index sets share at most one strand."""
    return _far(_code(a.elems), _code(b.elems))


@dataclass(frozen=True, slots=True)
class GWord:
    """A word in the generators; the empty word is the identity element."""

    n: int
    letters: tuple[GenTriple, ...] = ()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 4:
            raise InvalidN(f"strand count must be >= 4, got {self.n!r}")
        try:
            object.__setattr__(self, "letters", tuple(self.letters))
        except TypeError:
            raise BadTriple(f"letters must be a sequence of generators, got {self.letters!r}") from None
        for g in self.letters:
            if type(g) is not GenTriple:
                raise BadTriple(f"letter {g!r} is not a generator")
            if g.n != self.n:
                raise DimensionMismatch(f"letter {g} has n={g.n}, word has n={self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)


# ASCII digits only: `\d` also matches other scripts' digits, which `int` reads
_GENERAL_TOKEN = re.compile(r"^a\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)$")
_COMPACT_TOKEN = re.compile(r"^a([0-9]+)$")


def parse_indices(token: str, n: int) -> tuple[int, int, int]:
    """The three indices of one generator token, in the order written.

    Compact tokens like ``a123`` use one digit per index and are only
    unambiguous when n <= 9; parenthesised tokens ``a(1,2,3)`` work for
    any n.
    """
    m = _GENERAL_TOKEN.match(token)
    if m:
        try:
            idx = tuple(int(part) for part in m.group(1).split(","))
        except ValueError:  # Python reads no int of over 4,300 digits
            raise WordParseError(f"an index of {token[:16]!r}... has too many digits") from None
    elif n <= 9 and _COMPACT_TOKEN.match(token):
        idx = tuple(int(ch) for ch in token[1:])
    else:
        raise WordParseError(f"cannot parse generator token {token!r} (n={n})")
    if len(idx) != 3:
        raise WordParseError(f"{token!r} has {len(idx)} indices; words use 3-index generators")
    return idx  # type: ignore[return-value]


def parse_word(text: str, n: int) -> GWord:
    """Parse whitespace-separated generator tokens into a word; indices may
    appear in any order.  A bad n is refused before any token is read, so
    the empty word is no exception."""
    if type(n) is not int or n < 4:
        raise WordParseError(f"strand count must be >= 4, got {n!r}")
    letters = []
    for token in text.split():
        try:
            letters.append(GenTriple(n, parse_indices(token, n)))
        except BadTriple as exc:
            raise WordParseError(str(exc)) from exc
    return GWord(n, tuple(letters))


def format_word(w: GWord) -> str:
    return " ".join(str(g) for g in w.letters)


class MoveKind(Enum):
    SQUARE_DELETE = "del"
    SQUARE_INSERT = "ins"
    FAR_COMMUTE = "swap"
    TETRA_REVERSE = "tetra"


@dataclass(frozen=True, order=True)
class RelationMove:
    """A single relation applied at a position in a word."""

    kind: MoveKind
    position: int
    letter: GenTriple | None = None

    def __str__(self) -> str:
        if self.kind is MoveKind.SQUARE_INSERT:
            return f"ins@{self.position}:{self.letter}"
        return f"{self.kind.value}@{self.position}"


def _tetra(a: int, b: int, c: int, d: int) -> bool:
    # 4 pairwise distinct letters whose union has 4 strands: then they are
    # exactly the four 3-subsets of that 4-set
    return (a | b | c | d).bit_count() == 4 and len({a, b, c, d}) == 4


def _alphabet(n: int) -> tuple[list[int], list[str]]:
    """For a search that may insert: every generator's code, indexed by its
    letter's code point, and every letter doubled, in generator order.
    Built per search, and freed when the search returns."""
    codes = [1 << i | 1 << j | 1 << k for i, j, k in combinations(range(1, n + 1), 3)]
    return codes, [c + c for c in map(chr, range(len(codes)))]


def _encode(w: GWord) -> str:
    """The search's form of a word: one code point per letter, the
    generator's index in lexicographic order."""
    first, second = generator_ranks(w.n)
    return "".join(chr(first[i] - second[j] + k) for i, j, k in (g.elems for g in w.letters))


def _neighbours(word: str, codes, doubled: list[str], max_len: int):
    """Every word one relation move from `word`: square deletions, swaps
    and tetrahedron windows by position, then, when the result fits in
    `max_len`, square insertions by position and then by generator, the
    order of `applicable_moves`.  `codes[ord(letter)]` is a letter's code
    and `doubled` lists every letter doubled.  Lazy, since a search that
    finds its goal stops partway through an expansion."""
    length = len(word)
    for p in range(length - 1):
        if word[p] == word[p + 1]:
            yield word[:p] + word[p + 2 :]
    masks = [codes[x] for x in map(ord, word)]
    for p in range(length - 1):
        if _far(masks[p], masks[p + 1]):
            yield word[:p] + word[p + 1] + word[p] + word[p + 2 :]
    for p in range(length - 3):
        if _tetra(*masks[p : p + 4]):
            yield word[:p] + word[p : p + 4][::-1] + word[p + 4 :]
    if length + 2 <= max_len:
        for p in range(length + 1):
            head, tail = word[:p], word[p:]
            for pair in doubled:
                yield head + pair + tail


def applicable_moves(w: GWord, allow_insert: bool = False, max_len: int = 0) -> list[RelationMove]:
    """Every relation move applicable to w, in a fixed deterministic order:
    square deletions, swaps and tetrahedron windows by position, then
    square insertions by position and then by generator.

    Square insertions are only listed when `allow_insert` is set and the
    resulting length stays within `max_len`; unrestricted insertion would
    make move enumeration infinite.
    """
    masks = [_code(g.elems) for g in w.letters]
    pairs = list(enumerate(zip(masks, masks[1:])))
    moves = [RelationMove(MoveKind.SQUARE_DELETE, p) for p, (a, b) in pairs if a == b]
    moves += [RelationMove(MoveKind.FAR_COMMUTE, p) for p, (a, b) in pairs if _far(a, b)]
    moves += [
        RelationMove(MoveKind.TETRA_REVERSE, p)
        for p in range(len(masks) - 3)
        if _tetra(*masks[p : p + 4])
    ]
    if allow_insert and len(masks) + 2 <= max_len:
        moves += [
            RelationMove(MoveKind.SQUARE_INSERT, p, g)
            for p in range(len(masks) + 1)
            for g in _generators(w.n)
        ]
    return moves


def apply_move(w: GWord, m: RelationMove) -> GWord:
    """Rewrite w by one relation move; raises InvalidMove when the pattern
    does not match at the position."""
    letters = w.letters
    p = m.position
    if m.kind is MoveKind.SQUARE_DELETE:
        if not (0 <= p <= len(letters) - 2 and letters[p] == letters[p + 1]):
            raise InvalidMove(f"no equal adjacent pair at position {p}")
        return GWord(w.n, letters[:p] + letters[p + 2 :])
    if m.kind is MoveKind.SQUARE_INSERT:
        if m.letter is None:
            raise InvalidMove("square insertion needs a generator")
        if m.letter.n != w.n:
            raise InvalidMove(f"generator {m.letter} has n={m.letter.n}, word has n={w.n}")
        if not 0 <= p <= len(letters):
            raise InvalidMove(f"insertion position {p} out of range")
        return GWord(w.n, letters[:p] + (m.letter, m.letter) + letters[p:])
    if m.kind is MoveKind.FAR_COMMUTE:
        if not (0 <= p <= len(letters) - 2 and far_commutes(letters[p], letters[p + 1])):
            raise InvalidMove(f"letters at position {p} do not far-commute")
        return GWord(w.n, letters[:p] + (letters[p + 1], letters[p]) + letters[p + 2 :])
    if m.kind is MoveKind.TETRA_REVERSE:
        window = letters[p : p + 4]
        if not (0 <= p <= len(letters) - 4 and _tetra(*(_code(g.elems) for g in window))):
            raise InvalidMove(f"no tetrahedron window at position {p}")
        return GWord(w.n, letters[:p] + window[::-1] + letters[p + 4 :])
    raise InvalidMove(f"unknown move kind {m.kind!r}")


@dataclass(frozen=True)
class ParityVector:
    """Per-generator occurrence counts mod 2.

    Every relation preserves each generator count mod 2 (squares remove a
    pair of equal letters; the other relations permute letters), so this is
    an invariant of the group element.
    """

    n: int
    odd: frozenset[tuple[int, int, int]]

    @property
    def is_zero(self) -> bool:
        return not self.odd


def generator_parity(w: GWord) -> ParityVector:
    counts = Counter(g.elems for g in w.letters)
    return ParityVector(w.n, frozenset(t for t, c in counts.items() if c % 2))


# A bounded search stops once the words it stores, on both sides, hold more
# letters than this, whatever its depth and length budgets allow.  A stored
# word is a str of one code point per letter, 1 byte each up to n=12, 2 up to
# n=74 and 4 above, after a header of 49-76 bytes, and its dict entry and
# queue slot take about 40 bytes more, so short words cost the most per
# letter: at n=20, "a(1,2,3) a(1,2,4)" against its reverse with max_len 6
# stops after 1,002,317 words of at most 6 letters at a 140 MiB peak (as a
# process), and a random 200-letter word at n=6 (`random.Random(1)`) against
# its reverse (depth 300, max_len 200) after 30,010 words at 24 MiB.  The
# largest searches in the tests and the `equality` benchmark corpus store
# 3,642 and 30,734 letters, apart from one n=72 test that stores 221,228.
MAX_STORED_LETTERS = 6_000_000


@dataclass(frozen=True)
class SearchStats:
    """What a bounded equality search did.

    The search runs from both words, and every count is summed over both
    sides; ``peak_frontier`` is the largest sum of the two frontiers.
    ``stop`` names what ended it: ``found`` (the two sides met), ``depth``
    (the expansion budget ran out), ``exhausted`` (one side's frontier
    emptied: every word within the length budget reachable from that
    side's word was searched), ``limit`` (more than MAX_STORED_LETTERS
    letters stored), or, without a search, ``parity`` or ``identical``.
    """

    expanded: int
    stored: int
    peak_frontier: int
    stop: str

    def __str__(self) -> str:
        return (
            f"expanded={self.expanded} stored={self.stored} "
            f"peak_frontier={self.peak_frontier} stop={self.stop}"
        )


@dataclass(frozen=True)
class EqualityVerdict:
    """Three-valued outcome of a bounded equality search.

    ``equal`` carries a replayable move path from the first word to the
    second; ``distinct`` carries an invariant witness; ``unknown`` means
    the search limits were reached without a decision.  ``stats`` reports
    the search and takes no part in comparing verdicts.
    """

    status: str
    path: tuple[RelationMove, ...] | None = None
    witness: str | None = None
    stats: SearchStats | None = field(default=None, compare=False)

    @classmethod
    def equal(
        cls, path: tuple[RelationMove, ...], stats: SearchStats | None = None
    ) -> "EqualityVerdict":
        return cls("equal", path=path, stats=stats)

    @classmethod
    def distinct(cls, witness: str, stats: SearchStats | None = None) -> "EqualityVerdict":
        return cls("distinct", witness=witness, stats=stats)

    @classmethod
    def unknown(cls, stats: SearchStats | None = None) -> "EqualityVerdict":
        return cls("unknown", stats=stats)

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.status == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


def bounded_equal(w1: GWord, w2: GWord, depth: int, max_len: int) -> EqualityVerdict:
    """Breadth-first search for a move path from w1 to w2, from both ends.

    Each end keeps its own frontier, and the search always expands a word
    from the smaller one, w1's on a tie.  It stops as soon as a word one
    side stores is already stored by the other.  Insertions are allowed up
    to word length `max_len` on either side, so read from w1 a path may
    lengthen a word beyond it only while undoing deletions from a longer
    w2.  At most `depth` words are expanded, counted over both sides, and
    the search stops once the words both sides store hold more than
    MAX_STORED_LETTERS letters.  The verdict never claims inequality
    without a parity witness, because no complete decision procedure is
    known.  Deterministic for fixed inputs and limits.
    """
    if w1.n != w2.n:
        raise DimensionMismatch(f"cannot compare words with n={w1.n} and n={w2.n}")
    if depth < 0 or max_len < 0:
        raise InvalidBudget(f"search budgets must be >= 0, got depth={depth}, max_len={max_len}")
    start, goal = _encode(w1), _encode(w2)
    odd = _odd_letters(start)
    if odd != _odd_letters(goal):
        return EqualityVerdict.distinct("parity mismatch", SearchStats(0, 0, 0, "parity"))
    if start == goal:
        return EqualityVerdict.equal((), SearchStats(0, 0, 0, "identical"))
    if max_len < len(odd) + 2:
        # every word holds each odd letter, so none has room for an
        # insertion, and the letters of w1 and w2 are all there are
        codes = {ord(c): _code(g.elems) for c, g in zip(start + goal, w1.letters + w2.letters)}
        doubled: list[str] = []
    else:
        codes, doubled = _alphabet(w1.n)
    # per side, each stored word maps to the word it was first reached from
    fore: dict[str, str | None] = {start: None}
    back: dict[str, str | None] = {goal: None}
    fore_queue, back_queue = deque([start]), deque([goal])
    expanded, peak, letters = 0, 2, len(start) + len(goal)

    def stats(stop: str) -> SearchStats:
        frontier = max(peak, len(fore_queue) + len(back_queue))
        return SearchStats(expanded, len(fore) + len(back), frontier, stop)

    while fore_queue and back_queue and expanded < depth:
        if len(fore_queue) <= len(back_queue):
            parents, other, queue = fore, back, fore_queue
        else:
            parents, other, queue = back, fore, back_queue
        word = queue.popleft()
        expanded += 1
        for nxt in _neighbours(word, codes, doubled, max_len):
            if nxt in parents:
                continue
            parents[nxt] = word
            letters += len(nxt)
            if nxt in other:
                chain = _chain(fore, nxt)[::-1] + _chain(back, nxt)[1:]
                path = tuple(_move(w1.n, codes, *step) for step in zip(chain, chain[1:]))
                return EqualityVerdict.equal(path, stats("found"))
            if letters > MAX_STORED_LETTERS:
                return EqualityVerdict.unknown(stats("limit"))
            queue.append(nxt)
        peak = max(peak, len(fore_queue) + len(back_queue))
    return EqualityVerdict.unknown(stats("depth" if fore_queue and back_queue else "exhausted"))


def _odd_letters(word: str) -> set[str]:
    """The letters that occur an odd number of times: the parity vector."""
    return {c for c, count in Counter(word).items() if count % 2}


def _chain(parents, word: str) -> list[str]:
    """`word` and its stored predecessors, back to the end it was reached from."""
    chain = [word]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain


def _squared(longer: str, p: int, shorter: str) -> bool:
    """True when `longer` is `shorter` with a square inserted at p."""
    return longer[p] == longer[p + 1] and longer[:p] + longer[p + 2 :] == shorter


def _move(n: int, codes, prev: str, word: str) -> RelationMove:
    """The first move, in enumeration order, that rewrites `prev` into
    `word`, one move away.  The search stores only each word's predecessor.
    On w1's side this is the move that first reached `word`; on w2's side
    the search found the reverse step, and this is its inverse: a deletion
    for an insertion and back, the same swap or tetrahedron window
    otherwise.  A swap changes two adjacent letters and a tetrahedron
    window four, so at most one of them fits, at the first letter that
    differs; deletions and insertions of a repeated letter may fit at
    several positions, and an insertion at p can only be of word[p]."""
    if len(word) < len(prev):
        p = next(p for p in range(len(prev) - 1) if _squared(prev, p, word))
        return RelationMove(MoveKind.SQUARE_DELETE, p)
    if len(word) > len(prev):
        p = next(p for p in range(len(prev) + 1) if _squared(word, p, prev))
        code = codes[ord(word[p])]
        letter = GenTriple(n, tuple(s for s in range(1, n + 1) if code >> s & 1))
        return RelationMove(MoveKind.SQUARE_INSERT, p, letter)
    p = next(p for p, (a, b) in enumerate(zip(prev, word)) if a != b)
    kind = MoveKind.FAR_COMMUTE if prev[p + 2 :] == word[p + 2 :] else MoveKind.TETRA_REVERSE
    return RelationMove(kind, p)
