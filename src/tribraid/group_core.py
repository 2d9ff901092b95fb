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
from bisect import bisect_right
from collections import Counter, defaultdict, deque
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
            raise BadTriple(f"need three int indices, got {_clip(repr(self.elems))}") from None
        if len(elems) != 3 or len(set(elems)) != 3:
            raise BadTriple(f"need three distinct indices, got {_clip(str(tuple(self.elems)))}")
        i, j, k = elems
        if not type(i) is type(j) is type(k) is int:  # a bool or a float is not a strand
            raise BadTriple(f"need three int indices, got {_clip(str(tuple(self.elems)))}")
        if i < 1 or k > self.n:
            raise BadTriple(f"indices {_clip(str(elems))} out of range 1..{self.n}")
        if self.elems != elems:  # a sorted tuple is kept, not copied
            object.__setattr__(self, "elems", elems)

    def __str__(self) -> str:
        if self.n <= 9:
            return "a" + "".join(str(i) for i in self.elems)
        return "a(" + ",".join(str(i) for i in self.elems) + ")"


def _clip(text: str) -> str:
    """Input echoed in an error message, cut to its first 40 characters."""
    return text if len(text) <= 40 else text[:40] + "..."


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
        raise WordParseError(f"cannot parse generator token {_clip(repr(token))} (n={n})")
    if len(idx) != 3:
        raise WordParseError(
            f"{_clip(repr(token))} has {len(idx)} indices; words use 3-index generators"
        )
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


def _encode(w: GWord, rows: tuple[list[int], list[int]]) -> str:
    """The search's form of a word: one code point per letter, the
    generator's index in lexicographic order, from the `generator_ranks`
    rows of w.n."""
    first, second = rows
    return "".join(chr(first[i] - second[j] + k) for i, j, k in (g.elems for g in w.letters))


def _letter(rows: tuple[list[int], list[int]], rank: int) -> tuple[int, int, int]:
    """The generator i<j<k whose index is `rank`, read back from the rows of
    `generator_ranks`: i is the first index with first[i] > rank, and
    k = second[j] - (first[i] - rank) for the least j that puts k at most
    n, since each j covers the ranks first[i] - second[j] + (j+1..n)."""
    first, second = rows
    n = len(first) - 1
    i = bisect_right(first, rank)
    below = first[i] - rank
    j = next(j for j in range(i + 1, n) if second[j] - below <= n)
    return i, j, second[j] - below


def _neighbours(word: str, masks: list[int]):
    """Every word one square deletion, swap or tetrahedron reversal from
    `word`, by position: the order of `applicable_moves` before its
    insertions.  `masks` holds the codes of the word's letters.  Lazy,
    since a search that finds its goal stops partway through an expansion."""
    length = len(word)
    for p in range(length - 1):
        if word[p] == word[p + 1]:
            yield word[:p] + word[p + 2 :]
    for p in range(length - 1):
        if _far(masks[p], masks[p + 1]):
            yield word[:p] + word[p + 1] + word[p] + word[p + 2 :]
    for p in range(length - 3):
        if _tetra(*masks[p : p + 4]):
            yield word[:p] + word[p : p + 4][::-1] + word[p + 4 :]


def _block(word: str, width: int, skip: set[int], codes: dict[int, int], rows):
    """The square insertions into `word`, by position and then by generator
    as `applicable_moves` lists them, apart from the positions in `skip`:
    position t = p * width + c is word[:p] + chr(c) * 2 + word[p:], and
    `width` is C(n,3).  The code of each yielded word's inserted letter is
    put in `codes`, read from the rank `rows`."""
    t = 0
    for p in range(len(word) + 1):
        head, tail = word[:p], word[p:]
        for c in range(width):
            if t not in skip:
                if c not in codes:
                    codes[c] = _code(_letter(rows, c))
                yield head + chr(c) * 2 + tail
            t += 1


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
# letters than this, whatever its depth and length budgets allow.  The words
# of an insertion block are counted but not kept, so memory goes to the words
# stored one by one: a str of one code point per letter, 1 byte each up to
# n=12, 2 up to n=74 and 4 above, after a header of 49-76 bytes, plus a dict
# entry and queue slot of about 40 bytes, so short words cost the most per
# letter.  As processes, a random word (`random.Random(1)`) at n=100 against
# its reverse, with max_len its length and no room to insert, stops after
# 600,001 words at a 106 MiB peak in 7-11 s with 10 letters, and after
# 30,001 words at 42 MiB with 200.  Where blocks hold most words the count
# is reached with little kept: at n=20, "a(1,2,3) a(1,2,4)" against its
# reverse with max_len 6 stops after 1,002,317 words at 17.5 MiB.  The
# `equality` benchmark corpus stores at most 30,734 letters per search.
MAX_STORED_LETTERS = 6_000_000


@dataclass(frozen=True)
class SearchStats:
    """What a bounded equality search did.

    The search runs from both words, and every count is summed over both
    sides; ``stored`` counts the words of insertion blocks, which are
    counted but not kept, and ``peak_frontier`` is the largest sum of the
    two frontiers, the unread words of queued blocks included.
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
    MAX_STORED_LETTERS letters.  An expansion with room for an insertion
    keeps its square insertions as one block (see `_Side`), not as words:
    the search works out which of them are new, where the sides meet and
    where the letter cap is crossed, so its verdict, path and stats are
    those of storing the words one by one in enumeration order.  The
    verdict never claims inequality without a parity witness, because no
    complete decision procedure is known.  Deterministic for fixed inputs
    and limits.
    """
    if w1.n != w2.n:
        raise DimensionMismatch(f"cannot compare words with n={w1.n} and n={w2.n}")
    if depth < 0 or max_len < 0:
        raise InvalidBudget(f"search budgets must be >= 0, got depth={depth}, max_len={max_len}")
    n = w1.n
    rows = generator_ranks(n)
    start, goal = _encode(w1, rows), _encode(w2, rows)
    if _odd_letters(start) != _odd_letters(goal):
        return EqualityVerdict.distinct("parity mismatch", SearchStats(0, 0, 0, "parity"))
    if start == goal:
        return EqualityVerdict.equal((), SearchStats(0, 0, 0, "identical"))
    width = n * (n - 1) * (n - 2) // 6
    # the codes of the letters read so far, by code point
    codes = {ord(c): _code(g.elems) for c, g in zip(start + goal, w1.letters + w2.letters)}
    fore, back = _Side(start, width), _Side(goal, width)
    lengths: set[int] = set()  # the lengths of the words with blocks, on either side
    expanded, peak, letters = 0, 2, len(start) + len(goal)

    def stop(reason: str, queued: int = 0, meet: str | None = None) -> EqualityVerdict:
        # `queued` words of a block were queued before the one that stopped it
        stored = len(fore.parents) + fore.block_words + len(back.parents) + back.block_words
        stats = SearchStats(expanded, stored, max(peak, fore.size + back.size + queued), reason)
        if meet is None:
            return EqualityVerdict.unknown(stats)
        chain = fore.chain(meet)[::-1] + back.chain(meet)[1:]
        path = tuple(_move(n, rows, *step) for step in zip(chain, chain[1:]))
        return EqualityVerdict.equal(path, stats)

    while fore.size and back.size and expanded < depth:
        side, other = (fore, back) if fore.size <= back.size else (back, fore)
        word = side.pop()
        expanded += 1
        for nxt in _neighbours(word, [codes[x] for x in map(ord, word)]):
            if nxt in side.parents:
                continue
            # a word can be a block word only if a block is 2 letters shorter
            squares = _squares(nxt) if len(nxt) - 2 in lengths else None
            if squares and side.in_block(squares):
                continue
            side.store(nxt, word, squares)
            letters += len(nxt)
            if nxt in other.parents or squares and other.in_block(squares):
                return stop("found", meet=nxt)
            if letters > MAX_STORED_LETTERS:
                return stop("limit")
            side.queue.append(nxt)
            side.size += 1
        size = len(word) + 2
        if size <= max_len:
            # the block stores its words in position order, skipping repeated
            # positions and the words this side holds; the first word the
            # other side holds is where the two sides meet
            if len(word) not in lengths:
                lengths.add(len(word))
                fore.read_squares(size)
                back.read_squares(size)
            squares = _squares(word)
            skip = {p * width + ord(word[p - 1]) for p in range(1, size - 1)}
            skip |= side.positions(word, squares)
            meets = other.positions(word, squares)
            new = (size - 1) * width - len(skip)
            last = (MAX_STORED_LETTERS - letters) // size  # the new word that crosses the cap
            side.add_block(word, squares, _block(word, width, skip, codes, rows))
            if meets:
                t = min(meets)
                k = t - sum(s < t for s in skip)
                if k <= last:
                    side.block_words += k + 1
                    p, c = divmod(t, width)
                    return stop("found", k, word[:p] + chr(c) * 2 + word[p:])
            if last < new:
                side.block_words += last + 1
                return stop("limit", last)
            side.size += new
            side.block_words += new
            letters += new * size
        peak = max(peak, fore.size + back.size)
    return stop("depth" if fore.size and back.size else "exhausted")


# every position where a square starts: a run of three letters holds two
_SQUARE = re.compile(r"(?=(.)\1)", re.DOTALL)


def _squares(word: str) -> list[tuple[int, str]]:
    """(q, `word` with its square at q deleted) for every square of `word`."""
    squares = []
    found = _SQUARE.search(word)
    while found is not None:
        q = found.start()
        squares.append((q, word[:q] + word[q + 2 :]))
        found = _SQUARE.search(word, q + 1)
    return squares


class _Side:
    """One end of a bounded search.

    A word is stored here when it is a key of `parents`, which maps it to
    the word it was first reached from, or when deleting one of its squares
    gives a key of `blocks`: a word expanded with room for an insertion,
    whose square insertions (see `_block`) are all stored from then on.  A
    block word's parent is the earliest block that holds it.  A word in two
    blocks holds two squares apart, so the two block words share the
    deletion d of both: `shared[d]` lists the squares (r, letter) of the
    block words that delete to d at r, and `inserted[d]` the positions in
    d's block of the words of `parents` that delete to d; the squares of a
    word are read only once some block is 2 letters shorter.  `size` counts
    the queued words, the unread ones of queued blocks included."""

    __slots__ = ("width", "parents", "blocks", "shared", "inserted", "queue", "size", "block_words")

    def __init__(self, word: str, width: int):
        self.width = width
        self.parents: dict[str, str | None] = {word: None}
        self.blocks: dict[str, int] = {}  # the order in which blocks were made
        self.shared: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)
        self.inserted: defaultdict[str, list[int]] = defaultdict(list)
        self.queue: deque = deque([word])
        self.size, self.block_words = 1, 0  # queued words, and block words stored

    def in_block(self, squares) -> bool:
        """Whether the word with these squares is a block word here."""
        for _, d in squares:
            if d in self.blocks:
                return True
        return False

    def store(self, word: str, parent: str | None, squares) -> None:
        self.parents[word] = parent
        self.index(word, squares or ())

    def index(self, word: str, squares) -> None:
        for q, d in squares:
            self.inserted[d].append(q * self.width + ord(word[q]))

    def read_squares(self, length: int) -> None:
        """Index the stored words of `length` letters, whose squares were
        not read, since no block was 2 letters shorter."""
        for word in self.parents:
            if len(word) == length:
                self.index(word, _squares(word))

    def positions(self, word: str, squares) -> set[int]:
        """The first positions of the words of `word`'s block held here;
        `squares` are the squares of `word`."""
        width = self.width
        found = list(self.inserted.get(word, ()))
        for q, d in squares:
            for r, c in self.shared.get(d, ()):
                # d with both squares, inserted at q and r of d
                if r <= q:
                    found.append(r * width + c)
                if r >= q:
                    found.append((r + 2) * width + c)
        first = set()
        for p, c in (divmod(t, width) for t in found):
            while p and ord(word[p - 1]) == c:  # c inserted at p-1 gives the same word
                p -= 1
            first.add(p * width + c)
        return first

    def add_block(self, word: str, squares, queued) -> None:
        self.blocks[word] = len(self.blocks)
        for q, d in squares:
            self.shared[d].append((q, ord(word[q])))
        self.queue.append(queued)

    def pop(self) -> str:
        self.size -= 1
        while True:
            item = self.queue[0]
            if type(item) is str:
                return self.queue.popleft()
            word = next(item, None)
            if word is not None:
                return word
            self.queue.popleft()  # a block read to its end

    def chain(self, word: str) -> list[str]:
        """`word` and its stored predecessors, back to this side's word."""
        chain = [word]
        while True:
            if word in self.parents:
                word = self.parents[word]
            else:
                word = min((d for _, d in _squares(word) if d in self.blocks), key=self.blocks.get)
            if word is None:
                return chain
            chain.append(word)


def _odd_letters(word: str) -> set[str]:
    """The letters that occur an odd number of times: the parity vector."""
    return {c for c, count in Counter(word).items() if count % 2}


def _squared(longer: str, p: int, shorter: str) -> bool:
    """True when `longer` is `shorter` with a square inserted at p."""
    return longer[p] == longer[p + 1] and longer[:p] + longer[p + 2 :] == shorter


def _move(n: int, rows, prev: str, word: str) -> RelationMove:
    """The first move, in enumeration order, that rewrites `prev` into
    `word`, one move away.  The search stores only each word's predecessor.
    On w1's side this is the move that first reached `word`; on w2's side
    the search found the reverse step, and this is its inverse: a deletion
    for an insertion and back, the same swap or tetrahedron window
    otherwise.  A swap changes two adjacent letters and a tetrahedron
    window four, so at most one of them fits, at the first letter that
    differs; deletions and insertions of a repeated letter may fit at
    several positions, and an insertion at p can only be of word[p], whose
    generator is read from the rank `rows`."""
    if len(word) < len(prev):
        p = next(p for p in range(len(prev) - 1) if _squared(prev, p, word))
        return RelationMove(MoveKind.SQUARE_DELETE, p)
    if len(word) > len(prev):
        p = next(p for p in range(len(prev) + 1) if _squared(word, p, prev))
        return RelationMove(MoveKind.SQUARE_INSERT, p, GenTriple(n, _letter(rows, ord(word[p]))))
    p = next(p for p, (a, b) in enumerate(zip(prev, word)) if a != b)
    kind = MoveKind.FAR_COMMUTE if prev[p + 2 :] == word[p + 2 :] else MoveKind.TETRA_REVERSE
    return RelationMove(kind, p)
