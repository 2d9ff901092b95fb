"""Annular (cylindrical) braid shadow of a realisable word.

Fix an axis strand.  Each letter containing the axis whose central element
is not the axis swaps two rays from the axis that are adjacent in the
running cyclic order; letters with the axis in the centre are disregarded.
The resulting swap word yields a permutation of the non-axis strands and a
half-signed-count linking number per strand pair, which together act as a
computable isotopy shadow.  For closed motions around an axis no strand
winds about, the linking entries equal the planar winding numbers of the
motion exactly; the shadow is blind to full twists (rigid rotations cross
no rays).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .errors import AdjacencyViolation, BadTriple, DimensionMismatch, NotRealisable, check_n, clip
from .group_core import GWord, check_word
from .index_state import ClassifiedWord, classify_word


def initial_cyclic_order(n: int, axis: int) -> tuple[int, ...]:
    """(axis+1, ..., n, 1, ..., axis-1): the order in which chords from the
    axis vertex of the regular configuration sweep the other strands."""
    check_n(n)
    if type(axis) is not int or not 1 <= axis <= n:
        raise BadTriple(f"axis {clip(axis)} out of range 1..{clip(n)}")
    return (*range(axis + 1, n + 1), *range(1, axis))


@dataclass(frozen=True)
class CylLetter:
    """One ray swap: `inner` is the central point, closer to the axis.  The
    constructor checks the letter alone: two distinct int strands and a
    sign of +1 or -1 (no bools)."""

    inner: int
    outer: int
    sign: int

    def __post_init__(self):
        if not type(self.inner) is type(self.outer) is int or self.inner == self.outer:
            raise BadTriple(f"a swap needs two distinct int strands, got {clip(self)}")
        if type(self.sign) is not int or self.sign not in (-1, 1):
            raise BadTriple(f"swap sign must be ±1, got {clip(self.sign)}")

    def __str__(self) -> str:
        return f"b({self.inner},{self.outer},{'+' if self.sign > 0 else '-'})"


@dataclass(frozen=True)
class CylWord:
    """A cylindrical braid word; every swap must be cyclically adjacent.
    `final_order` is the ray order the swaps leave, computed by replaying
    them on a `_RayOrder`: O(n) to set up, then O(1) per swap."""

    n: int
    axis: int
    letters: tuple[CylLetter, ...]
    final_order: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "letters", tuple(self.letters))
        except TypeError:
            raise BadTriple(
                f"letters must be a sequence of swaps, got {clip(self.letters)}"
            ) from None
        object.__setattr__(self, "final_order", _replay_order(self.n, self.axis, self.letters))

    def __str__(self) -> str:
        return " ".join(str(lt) for lt in self.letters)


class _RayOrder:
    """The running ray order around one axis, kept with each strand's ray
    slot: `order[t]` is the strand in slot t and `slot[s]` the slot of
    strand s.  A swap reads both slots, so it costs O(1), not a scan."""

    __slots__ = ("order", "slot")

    def __init__(self, start: tuple[int, ...]):
        self.order = list(start)
        self.slot = {s: t for t, s in enumerate(start)}

    def swap(self, a: int, b: int) -> None:
        """Exchange the rays of a and b, which must be cyclically adjacent:
        next to each other, or in the first and the last slot."""
        slot = self.slot
        try:
            pa, pb = slot[a], slot[b]
        except KeyError:
            raise BadTriple(
                f"swap of {clip(a)} and {clip(b)} names a strand missing from "
                f"{clip(tuple(self.order))}"
            ) from None
        if abs(pa - pb) not in (1, len(slot) - 1):
            raise AdjacencyViolation(
                f"strands {clip(a)} and {clip(b)} are not adjacent in the cyclic order "
                f"{clip(tuple(self.order))}"
            )
        order = self.order
        order[pa], order[pb] = b, a
        slot[a], slot[b] = pb, pa


def _replay_order(n: int, axis: int, letters) -> tuple[int, ...]:
    rays = _RayOrder(initial_cyclic_order(n, axis))
    for lt in letters:
        if type(lt) is not CylLetter or axis in (lt.inner, lt.outer):
            raise BadTriple(f"bad swap letter {clip(lt)} for axis {axis}")
        rays.swap(lt.inner, lt.outer)
    return tuple(rays.order)


def empty_cyl_word(n: int, axis: int) -> CylWord:
    return CylWord(n, axis, ())


def reconstruct_axis(w: GWord, axis: int) -> CylWord:
    """Extract the swap word of a realisable word around one axis strand.

    The central element of each axis letter is read from its status (the
    outside-point sign patterns identify it uniquely); a letter with the
    axis in the centre crosses no ray and is disregarded.  The swap sign is
    the orientation of (axis, outer, inner) at the letter's prefix state,
    calibrated so a counterclockwise revolution of one strand about another
    contributes +1 to their linking number.
    """
    check_word(w)
    initial_cyclic_order(w.n, axis)  # a bad axis raises before classifying
    cw = classify_word(w)
    if not cw.realisable:
        bad = [i for i, st in enumerate(cw.statuses) if not st.good]
        raise NotRealisable(f"letters at positions {clip(bad)} are not realisable")
    letters = tuple(CylLetter(inner, outer, sign) for _, inner, outer, sign in _swaps(cw, (axis,)))
    return CylWord(w.n, axis, letters)


def _swaps(cw: ClassifiedWord, axes: Container[int]):
    """Yield every ray swap around the axes in `axes` of a word classified
    realisable from the initial state, as (axis, inner, outer, sign) in
    word order.  A letter with central c swaps c (inner) with its third
    strand (outer) at its two other strands.  No ray order is kept here:
    a `CylWord` replays its own, and `kernel_witness` makes the swaps on its
    orders.

    The sign around axis a is that of the ordered triple (a, outer, inner)
    at the letter's prefix state, and it reads no state: that triple is the
    letter's own, which starts at +1 (the initial state is all-plus) and
    which only the earlier copies of the same letter have flipped, so its
    stored sign is -1 exactly when they are odd in number.  For the letter
    i<j<k the ordering (a, outer, inner) with a < outer is (j,k,i), (i,k,j)
    or (i,j,k) as the central is i, j or k, an odd permutation exactly when
    the central is the middle index j.  So the sign is -1 exactly when (the
    earlier copies are odd) XOR (the central is j), and the other axis,
    which reads (outer, a, inner), gets the opposite sign."""
    odd: set[tuple[int, int, int]] = set()
    for g, st in zip(cw.word.letters, cw.statuses):
        inner = st.central
        elems = i, j, k = g.elems
        a, b = (j, k) if inner == i else (i, k) if inner == j else (i, j)
        flipped = elems in odd
        if flipped:
            odd.remove(elems)
        else:
            odd.add(elems)
        sign = -1 if flipped != (inner == j) else 1
        if a in axes:
            yield a, inner, b, sign
        if b in axes:
            yield b, inner, a, -sign


@dataclass(frozen=True)
class AnnularInvariants:
    """Permutation plus pairwise half-signed swap counts.

    `perm` maps the strand that starts in each ray slot to the strand that
    ends there; `linking` holds, for every unordered non-axis pair, half
    the signed sum of its swaps.  For swap words of closed motions around
    an axis no strand winds about, every pair crosses an even number of
    times and the entries are integers.
    """

    axis: int
    strands: tuple[int, ...]
    perm: tuple[tuple[int, int], ...]
    linking: tuple[tuple[tuple[int, int], Fraction], ...]

    @cached_property
    def _by_pair(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.linking)

    def linking_of(self, i: int, j: int) -> Fraction:
        if not type(i) is type(j) is int:  # a bool or 2.0 would find pair 1, 2
            raise BadTriple(f"a pair needs two int strands, got {clip((i, j))}")
        key = (i, j) if i < j else (j, i)
        try:
            return self._by_pair[key]
        except KeyError:
            raise BadTriple(f"pair {clip(key)} not covered by axis {self.axis}") from None

    @property
    def is_identity(self) -> bool:
        return all(src == dst for src, dst in self.perm)

    def to_text(self) -> str:
        lines = [f"axis {self.axis}, strands {' '.join(map(str, self.strands))}"]
        lines.append(f"permutation: {_cycle_notation(dict(self.perm))}")
        lines.append("linking:")
        lines.append("     " + "".join(f"{s:>6}" for s in self.strands))
        # each pair's cell text once, under both orders of the pair
        cells = {(i, i): "     ." for i in self.strands}
        for (i, j), value in self.linking:
            cells[i, j] = cells[j, i] = f"{str(value):>6}"
        for i in self.strands:
            lines.append(f"{i:>5}" + "".join(cells[i, j] for j in self.strands))
        return "\n".join(lines)


def _cycle_notation(mapping: dict[int, int]) -> str:
    seen: set[int] = set()
    cycles = []
    for start in sorted(mapping):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = mapping[start]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


def annular_invariants(c: CylWord) -> AnnularInvariants:
    """Net permutation and per-pair half-signed swap sums of a swap word.

    Each pair gets its own exact `Fraction`, sum/2: an even sum takes the
    integer constructor, `Fraction(sum >> 1)`, which skips the gcd that
    `Fraction(sum, 2)` runs, and an odd one is the half-integer sum/2.  Most
    sums are even (a gadget's word swaps one pair, and 0 is even)."""
    if type(c) is not CylWord:
        raise BadTriple(f"need a swap word, got {clip(c)}")
    start = initial_cyclic_order(c.n, c.axis)
    perm = tuple(sorted(zip(start, c.final_order)))
    strands = tuple(sorted(start))
    sums: Counter[tuple[int, int]] = Counter()
    for lt in c.letters:
        sums[min(lt.inner, lt.outer), max(lt.inner, lt.outer)] += lt.sign
    linking = []
    for pair in combinations(strands, 2):
        v = sums.get(pair, 0)
        linking.append((pair, Fraction(v, 2) if v & 1 else Fraction(v >> 1)))
    return AnnularInvariants(c.axis, strands, perm, tuple(linking))


def invariants_equal_mod_full_twist(a: AnnularInvariants, b: AnnularInvariants):
    """The integer m with b = a + m full twists, or None.

    A full twist adds one to every pairwise linking number and fixes the
    permutation, so the test is: equal permutations and a common integer
    difference on every pair.
    """
    if type(a) is not AnnularInvariants or type(b) is not AnnularInvariants:
        raise BadTriple(f"need two sets of invariants, got {clip(a)} and {clip(b)}")
    if a.axis != b.axis or a.strands != b.strands:
        raise DimensionMismatch("invariants cover different strand sets")
    if a.perm != b.perm:
        return None
    diffs = {b._by_pair[pair] - value for pair, value in a.linking}
    if len(diffs) != 1:
        return None
    (m,) = diffs
    return int(m) if m.denominator == 1 else None


NONTRIVIAL_BY_PARITY = "nontrivial-by-parity"
NONTRIVIAL_BY_LINKING = "nontrivial-by-linking"
TRIVIAL_CONSISTENT = "trivial-consistent"


@dataclass(frozen=True)
class KernelVerdict:
    kind: str
    axis: int | None = None
    pair: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.kind == NONTRIVIAL_BY_LINKING:
            return f"{self.kind} (axis {self.axis}, pair {self.pair})"
        return self.kind


def _deviating_pair(start, order, sums: dict[tuple[int, int], int]) -> tuple[int, int] | None:
    """None when one axis's swap word may be a power of the full twist: no
    ray slot moved and every pair has one common even sum (`sums` maps a
    pair x<y that swapped to its signed swap sum, twice its linking number;
    a pair missing from it sums to 0).  Otherwise the first moved slot,
    else the first pair off the commonest sum (ties to the smaller |sum|,
    then to the value met first in pair order), else the smallest pair.

    Only the swapped pairs are read: every other pair, and every entry back
    at 0, sums to 0, so their count stands in for them.  A value v != 0
    ties only with -v, and 0 with nothing, so only the nonzero values need
    their pair order."""
    moved = min(((src, dst) for src, dst in zip(start, order) if src != dst), default=None)
    if moved:
        return tuple(sorted(moved))  # type: ignore[return-value]
    nonzero = sorted((pair, value) for pair, value in sums.items() if value)
    counts = list(Counter(value for _, value in nonzero).items())
    pairs = combinations(sorted(start), 2)
    untouched = len(start) * (len(start) - 1) // 2 - len(nonzero)
    if untouched:
        counts.append((0, untouched))
    if len(counts) == 1:
        return None if counts[0][0] % 2 == 0 else next(pairs)
    mode = max(counts, key=lambda kv: (kv[1], -abs(kv[0])))[0]
    if mode == 0:
        return nonzero[0][0]
    # among the first len(nonzero) + 1 pairs one is untouched, hence off the mode
    return next(pair for pair in pairs if sums.get(pair, 0) != mode)


def kernel_witness(w: GWord) -> KernelVerdict:
    """Best-effort nontriviality check for a realisable word.

    Parity is checked first, off the classified word: from the all-plus
    start, the final state's mask has the bits of the letters that occur an
    odd number of times.  Otherwise one pass over the word reconstructs it
    around every axis (covering every strand pair), and the axes are
    compared in order with the empty word's invariants modulo full twists.
    A consistent outcome makes no triviality claim: these invariants are
    blind beyond parity, winding and the ray permutation.

    The pass keeps one `_RayOrder` per axis, an O(n^2) slot table built
    once per call, so each swap costs O(1), and one flat table of signed
    swap sums keyed by ints.  An axis with no slot moved and no nonzero sum
    is skipped: `_deviating_pair` would find every sum 0, which is even.

    Reading every axis first raises no `AdjacencyViolation` that an earlier
    verdict would hide, because no realisable word breaks adjacency: around
    an axis a the running order stays the order of ray angles whose
    half-turn tests are the signs on (a,x,y).  A good letter {a,x,y} with
    central x asks sign(a,x,p) = sign(a,y,p) of every other p, so no ray
    lies between x and y or their opposites; with central a, the same holds
    for x and the opposite of y.
    """
    cw = classify_word(w)
    if not cw.realisable:
        raise NotRealisable("kernel witness requires a realisable word")
    if cw.final_state.minus:
        return KernelVerdict(NONTRIVIAL_BY_PARITY)
    n = w.n
    m = n + 1
    axes = range(1, m)
    starts = {axis: initial_cyclic_order(n, axis) for axis in axes}
    rays = {axis: _RayOrder(start) for axis, start in starts.items()}
    sums: dict[int, int] = {}  # (axis*m + x)*m + y -> the signed swap sum of pair x<y
    for axis, inner, outer, sign in _swaps(cw, axes):
        rays[axis].swap(inner, outer)
        key = (axis * m + inner) * m + outer if inner < outer else (axis * m + outer) * m + inner
        sums[key] = sums.get(key, 0) + sign
    nonzero: dict[int, dict[tuple[int, int], int]] = {}  # axis -> pair -> sum
    for key, value in sums.items():
        if value:
            axis, xy = divmod(key, m * m)
            nonzero.setdefault(axis, {})[divmod(xy, m)] = value
    for axis, start in starts.items():
        order = rays[axis].order
        if axis in nonzero or order != list(start):
            pair = _deviating_pair(start, order, nonzero.get(axis, {}))
            if pair:
                return KernelVerdict(NONTRIVIAL_BY_LINKING, axis, pair)
    return KernelVerdict(TRIVIAL_CONSISTENT)
