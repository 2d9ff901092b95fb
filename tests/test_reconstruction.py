import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from helpers import good_walk, signed_index, word
from tribraid import (
    NONTRIVIAL_BY_LINKING,
    NONTRIVIAL_BY_PARITY,
    TRIVIAL_CONSISTENT,
    AdjacencyViolation,
    AnnularInvariants,
    BadTriple,
    CylLetter,
    CylWord,
    DimensionMismatch,
    FullTwistMove,
    GWord,
    InvalidN,
    MoveProgram,
    NotRealisable,
    annular_invariants,
    classify_word,
    compile_program,
    empty_cyl_word,
    enumerate_states,
    full_twist_program,
    geometric_linking,
    initial_cyclic_order,
    initial_state,
    invariants_equal_mod_full_twist,
    is_realisable,
    kernel_witness,
    pure_braid_generator_program,
    reconstruct_axis,
    run_word,
    tetra_letters,
)
from tribraid.reconstruction import _deviating_pair, _swaps


class TestCyclicOrder:
    def test_initial_orders(self):
        assert initial_cyclic_order(4, 4) == (1, 2, 3)
        assert initial_cyclic_order(4, 1) == (2, 3, 4)
        assert initial_cyclic_order(5, 2) == (3, 4, 5, 1)
        with pytest.raises(BadTriple):
            initial_cyclic_order(4, 5)


class TestCylWord:
    def test_replay_validation(self):
        # ring of three: all pairs adjacent, opposite swaps cancel
        c = CylWord(4, 4, (CylLetter(1, 2, 1), CylLetter(1, 2, -1)))
        assert c.final_order == (1, 2, 3)
        # the final order is the replay's, never declared
        with pytest.raises(TypeError):
            CylWord(4, 4, (), (1, 2, 3))

    def test_adjacency_violation_on_ring_of_four(self):
        with pytest.raises(AdjacencyViolation):
            CylWord(5, 5, (CylLetter(1, 3, 1),))

    def test_wrap_adjacency_allowed(self):
        c = CylWord(5, 5, (CylLetter(1, 4, 1),))
        assert c.final_order == (4, 2, 3, 1)

    def test_rejects_axis_and_bad_ids(self):
        with pytest.raises(BadTriple):
            CylWord(4, 4, (CylLetter(1, 4, 1),))
        with pytest.raises(BadTriple):
            CylWord(4, 4, (CylLetter(2, 2, 1),))
        with pytest.raises(BadTriple):
            CylWord(4, 4, (CylLetter(1, 2, 2),))
        # a strand outside 1..n is missing from the ray order
        with pytest.raises(BadTriple):
            CylWord(4, 4, (CylLetter(1, 9, 1),))

    @pytest.mark.parametrize(
        "build, args, error",
        [
            (CylLetter, (1, 2, True), BadTriple),
            (CylLetter, (1.0, 2, 1), BadTriple),
            (CylLetter, (1, 2, 1.0), BadTriple),
            (CylWord, (4, 4.0, ()), BadTriple),
            (CylWord, ("4", 4, ()), InvalidN),
            (CylWord, (4.0, 4, ()), InvalidN),
            (CylWord, (4, 4, ((1, 2, 1),)), BadTriple),
            (CylWord, (4, 4, 7), BadTriple),
        ],
    )
    def test_wrong_types_raise_typed_errors(self, build, args, error):
        with pytest.raises(error):
            build(*args)

    def test_text_format(self):
        c = CylWord(4, 4, (CylLetter(1, 2, 1), CylLetter(1, 2, -1)))
        assert str(c) == "b(1,2,+) b(1,2,-)"


class TestReconstructAxis:
    def test_axis_central_letters_disregarded(self):
        w = word(4, (1, 3, 4), (1, 3, 4))
        c = reconstruct_axis(w, 4)
        assert c.letters == () and c.final_order == (1, 2, 3)

    def test_empty_word(self):
        c = reconstruct_axis(GWord(5), 2)
        assert c.letters == () and c.final_order == (3, 4, 5, 1)

    def test_not_realisable_rejected(self):
        with pytest.raises(NotRealisable):
            reconstruct_axis(word(4, (1, 3, 4), (1, 2, 3)), 4)

    def test_generator_word_axis4(self):
        prog = pure_braid_generator_program(4, 1, 3)
        w = compile_program(prog).word
        inv = annular_invariants(reconstruct_axis(w, 4))
        assert inv.is_identity
        assert inv.linking_of(1, 3) == 1
        assert inv.linking_of(1, 2) == 0 and inv.linking_of(2, 3) == 0


class TestAnnularInvariants:
    def test_empty_is_trivial(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        assert inv.is_identity
        assert all(v == 0 for _, v in inv.linking)

    def test_opposite_swaps_cancel(self):
        c = CylWord(4, 4, (CylLetter(1, 2, 1), CylLetter(1, 2, -1)))
        inv = annular_invariants(c)
        assert inv.is_identity and inv.linking_of(1, 2) == 0

    def test_half_integer_single_swap(self):
        c = CylWord(4, 4, (CylLetter(1, 2, 1),))
        inv = annular_invariants(c)
        assert not inv.is_identity
        assert inv.linking_of(1, 2) == Fraction(1, 2)

    def test_linking_of_is_the_pair_entry(self):
        # each pair's entry of `linking`, as a scan finds it, and the same
        # BadTriple for a pair the axis does not cover
        def scan(inv, i, j):
            key = (i, j) if i < j else (j, i)
            for pair, value in inv.linking:
                if pair == key:
                    return value
            raise BadTriple(f"pair {key} not covered by axis {inv.axis}")

        for n in range(6, 17, 2):
            w = compile_program(pure_braid_generator_program(n, 1, n // 2 + 1)).word
            for axis in (1, 2, n):
                inv = annular_invariants(reconstruct_axis(w, axis))
                for i, j in permutations(range(0, n + 2), 2):
                    try:
                        expected = scan(inv, i, j)
                    except BadTriple as exc:
                        with pytest.raises(BadTriple) as got:
                            inv.linking_of(i, j)
                        assert str(got.value) == str(exc)
                    else:
                        assert inv.linking_of(i, j) == expected
            assert inv.linking_of(1, n // 2 + 1) == 1  # the gadget's pair, about axis n

    @pytest.mark.parametrize("pair", [("1", 2), (object(), object()), (True, 2), (1, 2.0)])
    def test_linking_of_refuses_a_strand_that_is_not_an_int(self, pair):
        inv = annular_invariants(CylWord(4, 4, (CylLetter(1, 2, 1),)))
        with pytest.raises(BadTriple, match="a pair needs two int strands"):
            inv.linking_of(*pair)

    def test_text_rendering(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        text = inv.to_text()
        assert "permutation: ()" in text and "linking:" in text

    def test_half_integer_linking(self):
        # realisable words that are not closed swap some pairs an odd number
        # of times: each entry is its own exact Fraction, sum/2, and an
        # integer exactly when the signed sum is even
        odd = 0
        for n in (6, 10):
            for seed in range(10):
                w = good_walk(random.Random(seed), n, 30)
                for axis in range(1, n + 1):
                    cyl = reconstruct_axis(w, axis)
                    sums = Counter()
                    for lt in cyl.letters:
                        sums[min(lt.inner, lt.outer), max(lt.inner, lt.outer)] += lt.sign
                    inv = annular_invariants(cyl)
                    for pair, value in inv.linking:
                        v = sums[pair]
                        assert type(value) is Fraction and value == Fraction(v, 2)
                        assert (value.denominator == 1) == (v % 2 == 0)
                        odd += v % 2
                    assert len({id(value) for _, value in inv.linking}) == len(inv.linking)
        assert odd > 100

    def test_text_of_negative_and_half_integer_entries(self):
        L = CylLetter
        inv = annular_invariants(CylWord(5, 5, (L(1, 2, 1),) * 3 + (L(3, 4, -1),)))
        assert inv.to_text().splitlines() == [
            "axis 5, strands 1 2 3 4",
            "permutation: (1 2)(3 4)",
            "linking:",
            "          1     2     3     4",
            "    1     .   3/2     0     0",
            "    2   3/2     .     0     0",
            "    3     0     0     .  -1/2",
            "    4     0     0  -1/2     .",
        ]
        letters = (L(9, 10, -1),) * 3 + (L(2, 3, 1),) + (L(5, 4, -1),) * 2
        inv = annular_invariants(CylWord(10, 1, letters))
        assert inv.to_text().splitlines() == [
            "axis 1, strands 2 3 4 5 6 7 8 9 10",
            "permutation: (2 3)(9 10)",
            "linking:",
            "          2     3     4     5     6     7     8     9    10",
            "    2     .   1/2     0     0     0     0     0     0     0",
            "    3   1/2     .     0     0     0     0     0     0     0",
            "    4     0     0     .    -1     0     0     0     0     0",
            "    5     0     0    -1     .     0     0     0     0     0",
            "    6     0     0     0     0     .     0     0     0     0",
            "    7     0     0     0     0     0     .     0     0     0",
            "    8     0     0     0     0     0     0     .     0     0",
            "    9     0     0     0     0     0     0     0     .  -3/2",
            "   10     0     0     0     0     0     0     0  -3/2     .",
        ]


class TestModFullTwist:
    def _shift(self, inv, m):
        return AnnularInvariants(
            inv.axis,
            inv.strands,
            inv.perm,
            tuple((pair, value + m) for pair, value in inv.linking),
        )

    def test_equal_gives_zero(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        assert invariants_equal_mod_full_twist(inv, inv) == 0

    def test_uniform_shift_detected(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        assert invariants_equal_mod_full_twist(inv, self._shift(inv, 1)) == 1
        assert invariants_equal_mod_full_twist(self._shift(inv, 2), inv) == -2

    def test_single_entry_change_rejected(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        bumped = AnnularInvariants(
            inv.axis,
            inv.strands,
            inv.perm,
            ((inv.linking[0][0], inv.linking[0][1] + 1),) + inv.linking[1:],
        )
        assert invariants_equal_mod_full_twist(inv, bumped) is None

    def test_non_integer_shift_rejected(self):
        inv = annular_invariants(empty_cyl_word(4, 4))
        assert invariants_equal_mod_full_twist(inv, self._shift(inv, Fraction(1, 2))) is None

    def test_mismatched_strands_rejected(self):
        a = annular_invariants(empty_cyl_word(4, 4))
        b = annular_invariants(empty_cyl_word(4, 1))
        with pytest.raises(DimensionMismatch):
            invariants_equal_mod_full_twist(a, b)

    def test_twist_shift_against_geometry(self):
        # appending a full twist shifts every geometric linking number by one
        # but adds no letters, so the reconstruction lags by exactly m twists
        prog = pure_braid_generator_program(4, 1, 3)
        twisted = MoveProgram(prog.initial, prog.moves + (FullTwistMove(1),), closed=True)
        w = compile_program(twisted).word
        inv = annular_invariants(reconstruct_axis(w, 4))
        geometric = AnnularInvariants(
            inv.axis,
            inv.strands,
            inv.perm,
            tuple(
                (pair, geometric_linking(twisted, *pair)) for pair, _ in inv.linking
            ),
        )
        assert invariants_equal_mod_full_twist(inv, geometric) == 1


class TestKernelWitness:
    def test_empty_word_consistent(self):
        assert kernel_witness(GWord(4)).kind == TRIVIAL_CONSISTENT

    def test_full_twist_word_consistent(self):
        w = compile_program(full_twist_program(4, 2)).word
        assert w == GWord(4)
        assert kernel_witness(w).kind == TRIVIAL_CONSISTENT

    def test_odd_word_by_parity(self):
        assert kernel_witness(word(4, (1, 2, 3))).kind == NONTRIVIAL_BY_PARITY

    def test_generators_by_linking(self):
        for i, j in combinations(range(1, 5), 2):
            w = compile_program(pure_braid_generator_program(4, i, j)).word
            v = kernel_witness(w)
            assert v.kind == NONTRIVIAL_BY_LINKING
            assert v.axis is not None and v.pair is not None

    def test_requires_realisable(self):
        with pytest.raises(NotRealisable):
            kernel_witness(word(4, (1, 3, 4), (1, 2, 3)))


class TestOnePassPins:
    """SHA-256 of outputs taken when every axis was rebuilt on its own from
    `Fraction` invariants and per-letter prefix masks."""

    @staticmethod
    def _kernel_corpus():
        # walks, their mirrors and squares; gadgets, their squares and, at
        # n = 4 and 5, every gadget times the inverse of another (the
        # linking mode ties there); two identity words at n = 32
        rng = random.Random(8080)
        for n in range(4, 9):
            for _ in range(12):
                w = good_walk(rng, n, rng.randint(1, 24))
                yield w
                yield GWord(n, w.letters + w.letters[::-1])
                if is_realisable(GWord(n, w.letters * 2)):
                    yield GWord(n, w.letters * 2)
        for n in (4, 5, 6):
            gadgets = [
                compile_program(pure_braid_generator_program(n, i, j)).word
                for i, j in permutations(range(1, n + 1), 2)
            ]
            for g in gadgets:
                yield g
                yield GWord(n, g.letters * 2)
                if n < 6:
                    for h in gadgets:
                        yield GWord(n, g.letters + h.letters[::-1])
        for _ in range(2):
            w = good_walk(rng, 32, 40)
            yield GWord(32, w.letters + w.letters[::-1])

    def test_kernel_verdicts_pinned(self):
        h = hashlib.sha256()
        kinds = []
        slots_fixed = set()
        for w in self._kernel_corpus():
            v = kernel_witness(w)
            h.update(f"{w.n} {v.kind} {v.axis} {v.pair}\n".encode())
            kinds.append(v.kind)
            if v.kind == NONTRIVIAL_BY_LINKING:
                slots_fixed.add(annular_invariants(reconstruct_axis(w, v.axis)).is_identity)
        assert (
            len(kinds),
            kinds.count(NONTRIVIAL_BY_LINKING),
            kinds.count(NONTRIVIAL_BY_PARITY),
        ) == (808, 613, 52)
        # linking verdicts from a moved ray slot and from a pair off the mode
        assert slots_fixed == {True, False}
        assert h.hexdigest() == (
            "17c610978299863b8c7f0ebd0f7c85aff7f04fa2f81a6520dc7d99d0009ffb2a"
        )

    def test_swap_words_pinned(self):
        rng = random.Random(8181)
        words = [good_walk(rng, n, rng.randint(1, 30)) for n in range(4, 9) for _ in range(10)]
        words += [
            compile_program(pure_braid_generator_program(n, i, j)).word
            for n in (4, 5, 6)
            for i, j in permutations(range(1, n + 1), 2)
        ]
        h = hashlib.sha256()
        for w in words:
            for axis in range(1, w.n + 1):
                c = reconstruct_axis(w, axis)
                h.update(f"{axis} {c} {c.final_order}\n".encode())
        assert h.hexdigest() == (
            "e6cf0b4424b2cf17f65110b50ccd4ce6de06c6f461e42b43f31eea9a167e9f15"
        )


def _dense_deviating_pair(start, order, sums):
    """`_deviating_pair` as it was when it read the sum of every pair: the
    oracle for reading only the pairs that swapped."""
    moved = min(((src, dst) for src, dst in zip(start, order) if src != dst), default=None)
    if moved:
        return tuple(sorted(moved))
    pairs = list(combinations(sorted(start), 2))
    values = [sums.get(pair, 0) for pair in pairs]
    counts = Counter(values)
    if len(counts) == 1:
        return None if values[0] % 2 == 0 else pairs[0]
    mode = max(counts.items(), key=lambda kv: (kv[1], -abs(kv[0])))[0]
    return next(pair for pair, value in zip(pairs, values) if value != mode)


class TestLocality:
    """The two local facts the swap pass and the kernel verdict rest on."""

    def test_swap_sign_is_the_prefix_state_sign(self):
        # the sign read from letter parity is the orientation of
        # (axis, outer, inner) at the letter's prefix state
        rng = random.Random(4032)
        checked = Counter()
        for n in (4, 5, 6, 7, 8, 12, 16, 24, 32):
            for _ in range(3):
                w = good_walk(rng, n, 30)
                for v in (w, GWord(n, w.letters + w.letters[::-1])):
                    swaps = list(_swaps(classify_word(v), range(1, n + 1)))
                    assert len(swaps) == 2 * len(v.letters)
                    s = initial_state(n)
                    for pos, g in enumerate(v.letters):
                        for axis, inner, outer, sign in swaps[2 * pos : 2 * pos + 2]:
                            assert {axis, inner, outer} == set(g.elems)
                            assert sign == signed_index(s, axis, outer, inner)
                            checked[sign] += 1
                        s = run_word(s, GWord(n, (g,)))
        assert min(checked.values()) > 1000

    def test_sparse_verdict_matches_the_dense_one(self):
        rng = random.Random(4133)
        seen = Counter()
        for _ in range(3000):
            n = rng.randint(4, 9)
            start = initial_cyclic_order(n, rng.randint(1, n))
            pairs = list(combinations(sorted(start), 2))
            order = list(start)
            sums = Counter()
            kind = rng.choice(("sparse", "tie", "all equal", "moved"))
            if kind == "sparse":
                for pair in rng.sample(pairs, rng.randint(0, len(pairs))):
                    sums[pair] = rng.randint(-3, 3)
            elif kind == "tie":
                # v on k pairs and -v on k others, the rest 0, so v, -v and
                # (when k is small) 0 compete for the mode
                v = rng.choice((-3, -2, -1, 1, 2, 3))
                k = rng.randint(1, len(pairs) // 2)
                chosen = rng.sample(pairs, 2 * k)
                for pair in chosen[:k]:
                    sums[pair] = v
                for pair in chosen[k:]:
                    sums[pair] = -v
            elif kind == "all equal":
                v = rng.randint(-3, 3)
                for pair in pairs:
                    sums[pair] = v
            else:
                rng.shuffle(order)
                for pair in rng.sample(pairs, rng.randint(0, len(pairs))):
                    sums[pair] = rng.randint(-2, 2)
            # Counter entries back at 0, as cancelled swaps leave them
            for pair in rng.sample(pairs, rng.randint(0, 2)):
                if pair not in sums:
                    sums[pair] = 0
            expected = _dense_deviating_pair(start, order, sums)
            assert _deviating_pair(start, order, sums) == expected, (start, order, sums)
            values = Counter(sums.get(pair, 0) for pair in pairs)
            tied = [v for v, c in values.items() if c == max(values.values())]
            if order != list(start):
                seen["moved"] += 1
            elif len(values) == 1:
                seen["all even" if next(iter(values)) % 2 == 0 else "all odd"] += 1
            elif len(tied) == 2 and tied[0] == -tied[1]:
                seen["v/-v tie"] += 1
            else:
                seen["off the mode"] += 1
            seen["0 entry"] += 0 in sums.values()
        assert min(seen.values()) >= 50, seen


class TestTetraSurvivors:
    def test_one_or_three_survivors_in_good_windows(self):
        # in a window whose four letters are all good, the letters holding
        # the axis with a non-axis central number 1 or 3; the lone survivor
        # carries identical (inner, outer, sign) on both sides, and with 3
        # survivors the per-pair signed sums agree.
        checked = 0
        for s in enumerate_states(4):
            for tup in permutations((1, 2, 3, 4)):
                lhs = GWord(4, tetra_letters(4, tup))
                rhs = GWord(4, tuple(reversed(lhs.letters)))
                cl = classify_word(lhs, start=s)
                cr = classify_word(rhs, start=s)
                if not (cl.realisable and cr.realisable):
                    continue
                checked += 1
                for axis in range(1, 5):
                    def swaps(cw):
                        out = []
                        pre = s
                        for g, st in zip(cw.word.letters, cw.statuses):
                            (c,) = st.centrals
                            if axis in g.elems and c != axis:
                                (outer,) = (e for e in g.elems if e not in (axis, c))
                                out.append((c, outer, signed_index(pre, axis, outer, c)))
                            pre = run_word(pre, GWord(4, (g,)))
                        return out

                    sw_l, sw_r = swaps(cl), swaps(cr)
                    assert len(sw_l) == len(sw_r)
                    assert len(sw_l) in (1, 3)
                    if len(sw_l) == 1:
                        assert sw_l == sw_r
                    else:
                        def pair_sums(sw):
                            sums = {}
                            for inner, outer, sign in sw:
                                key = tuple(sorted((inner, outer)))
                                sums[key] = sums.get(key, 0) + sign
                            return sums

                        assert pair_sums(sw_l) == pair_sums(sw_r)
        assert checked == 192  # the all-good windows


class TestAxisInsideLinkedPair:
    def test_ray_winding_shows_half_integers(self):
        # when the axis strand participates in the linking, rays from it
        # complete full revolutions: swap counts go odd, sums go half-integer,
        # and the final order returns only as a cyclic rotation
        w = compile_program(pure_braid_generator_program(4, 1, 3)).word
        inv = annular_invariants(reconstruct_axis(w, 1))
        assert not inv.is_identity
        assert inv.linking_of(2, 3) == Fraction(-1, 2)


class TestByteTablePins:
    """SHA-256 of swap words and verdicts taken when every sign read shifted
    the int mask."""

    @staticmethod
    def _corpus():
        # walks, identity words w.reverse(w), squares w.w and one gadget
        # at n = 8, 16, 32
        rng = random.Random(3232)
        for n in (8, 16, 32):
            yield compile_program(pure_braid_generator_program(n, 1, n // 2 + 1)).word
            for _ in range(3):
                w = good_walk(rng, n, 60)
                yield w
                yield GWord(n, w.letters + w.letters[::-1])
                if is_realisable(GWord(n, w.letters * 2)):
                    yield GWord(n, w.letters * 2)

    def test_swap_words_and_verdicts_pinned(self):
        swaps, verdicts = hashlib.sha256(), hashlib.sha256()
        kinds = set()
        for w in self._corpus():
            for axis in range(1, w.n + 1):
                c = reconstruct_axis(w, axis)
                swaps.update(f"{w.n} {axis} {c} {c.final_order}\n".encode())
            v = kernel_witness(w)
            kinds.add(v.kind)
            verdicts.update(f"{w.n} {v}\n".encode())
        assert kinds == {NONTRIVIAL_BY_PARITY, NONTRIVIAL_BY_LINKING, TRIVIAL_CONSISTENT}
        assert swaps.hexdigest() == "827b3bf9b6254c02add82e629111ebffad5a066e4a4ee9bd7b1ca7b0351bd745"
        assert verdicts.hexdigest() == "1bf08262adb57c52196d4f173cf865d12521b63da7ba46c2ddbe78bd0e9c3ab6"
