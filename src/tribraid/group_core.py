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
        if type(self.n) is not int or self.n < 4:
            raise InvalidN(f"strand count must be >= 4, got {self.n!r}")
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


@functools.cache
def _generators(n: int) -> dict[int, GenTriple]:
    """Every generator keyed by its code, in lexicographic index order."""
    return {_code(c): GenTriple(n, c) for c in combinations(range(1, n + 1), 3)}


def all_generators(n: int) -> list[GenTriple]:
    """All C(n,3) generators, in lexicographic index order."""
    return list(_generators(n).values())


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


_GENERAL_TOKEN = re.compile(r"^a\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)$")
_COMPACT_TOKEN = re.compile(r"^a(\d+)$")


def parse_indices(token: str, n: int) -> tuple[int, int, int]:
    """The three indices of one generator token, in the order written.

    Compact tokens like ``a123`` use one digit per index and are only
    unambiguous when n <= 9; parenthesised tokens ``a(1,2,3)`` work for
    any n.
    """
    m = _GENERAL_TOKEN.match(token)
    if m:
        idx = tuple(int(part) for part in m.group(1).split(","))
    elif n <= 9 and _COMPACT_TOKEN.match(token):
        idx = tuple(int(ch) for ch in token[1:])
    else:
        raise WordParseError(f"cannot parse generator token {token!r} (n={n})")
    if len(idx) != 3:
        raise WordParseError(f"{token!r} has {len(idx)} indices; words use 3-index generators")
    return idx  # type: ignore[return-value]


def parse_word(text: str, n: int) -> GWord:
    """Parse whitespace-separated generator tokens into a word; indices may
    appear in any order."""
    letters = []
    for token in text.split():
        try:
            letters.append(GenTriple(n, parse_indices(token, n)))
        except (BadTriple, InvalidN) as exc:
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


def _neighbours(word: tuple[int, ...], n: int, max_len: int):
    """(move key, rewritten word) for every relation move on a word of
    generator codes: square deletions, swaps and tetrahedron windows by
    position, then, when the result fits in `max_len`, square insertions by
    position and then by generator.  A key is (kind, position, code of the
    inserted generator or None)."""
    length = len(word)
    for p in range(length - 1):
        if word[p] == word[p + 1]:
            yield (MoveKind.SQUARE_DELETE, p, None), word[:p] + word[p + 2 :]
    for p in range(length - 1):
        a, b = word[p], word[p + 1]
        if _far(a, b):
            yield (MoveKind.FAR_COMMUTE, p, None), word[:p] + (b, a) + word[p + 2 :]
    for p in range(length - 3):
        a, b, c, d = word[p : p + 4]
        if _tetra(a, b, c, d):
            yield (MoveKind.TETRA_REVERSE, p, None), word[:p] + (d, c, b, a) + word[p + 4 :]
    if length + 2 <= max_len:
        codes, insert = _generators(n), MoveKind.SQUARE_INSERT
        for p in range(length + 1):
            head, tail = word[:p], word[p:]
            for g in codes:
                yield (insert, p, g), head + (g, g) + tail


def _encode(w: GWord) -> tuple[int, ...]:
    return tuple(_code(g.elems) for g in w.letters)


def _relation_move(n: int, key) -> RelationMove:
    kind, p, g = key
    return RelationMove(kind, p, None if g is None else _generators(n)[g])


def applicable_moves(w: GWord, allow_insert: bool = False, max_len: int = 0) -> list[RelationMove]:
    """Every relation move applicable to w, in a fixed deterministic order.

    Square insertions are only listed when `allow_insert` is set and the
    resulting length stays within `max_len`; unrestricted insertion would
    make move enumeration infinite.
    """
    limit = max_len if allow_insert else 0
    return [_relation_move(w.n, key) for key, _ in _neighbours(_encode(w), w.n, limit)]


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
# letters than this, whatever its depth and length budgets allow.  A word
# costs about 110 bytes plus 8 per letter, so short words cost the most per
# letter: at n=20, "a(1,2,3) a(1,2,4)" against its reverse with max_len 6
# stops after 1,002,317 words of at most 6 letters at a 156 MiB peak, and a
# random 200-letter word at n=6 (`random.Random(1)`) against its reverse
# (depth 300, max_len 200) after 30,010 words at 64 MiB, where a cap of a
# million words let such a search reach 711 MiB.  The largest searches in
# the tests and the `equality` benchmark corpus store 1,321 and 30,758
# letters.
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
    if generator_parity(w1) != generator_parity(w2):
        return EqualityVerdict.distinct("parity mismatch", SearchStats(0, 0, 0, "parity"))
    if w1 == w2:
        return EqualityVerdict.equal((), SearchStats(0, 0, 0, "identical"))
    n = w1.n
    start, goal = _encode(w1), _encode(w2)
    # per side, each stored word maps to the word it was first reached from
    fore: dict[tuple[int, ...], tuple[int, ...] | None] = {start: None}
    back: dict[tuple[int, ...], tuple[int, ...] | None] = {goal: None}
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
        for _, nxt in _neighbours(word, n, max_len):
            if nxt in parents:
                continue
            parents[nxt] = word
            letters += len(nxt)
            if nxt in other:
                chain = _chain(fore, nxt)[::-1] + _chain(back, nxt)[1:]
                # undoing w2's side's deletions may lengthen a word up to w2
                path = _path(chain, n, max(max_len, len(goal)))
                return EqualityVerdict.equal(path, stats("found"))
            if letters > MAX_STORED_LETTERS:
                return EqualityVerdict.unknown(stats("limit"))
            queue.append(nxt)
        peak = max(peak, len(fore_queue) + len(back_queue))
    return EqualityVerdict.unknown(stats("depth" if fore_queue and back_queue else "exhausted"))


def _chain(parents, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """`word` and its stored predecessors, back to the end it was reached from."""
    chain = [word]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain


def _path(chain, n: int, max_len: int) -> tuple[RelationMove, ...]:
    """The moves along a chain of words, each one move from the next.  The
    search stores only each word's predecessor; the move between two words
    is the first one, in enumeration order, that rewrites the earlier into
    the later.  On w1's side that is the move that first reached the later
    word.  On w2's side the search found the reverse step, and the move
    found here is its inverse: a deletion for an insertion and back, the
    same swap or tetrahedron window otherwise."""
    return tuple(
        _relation_move(n, next(key for key, nxt in _neighbours(prev, n, max_len) if nxt == word))
        for prev, word in zip(chain, chain[1:])
    )
