"""Tests of the reference computations, on cases small enough to check by hand.

    python3 -m unittest discover -s bench
"""

import random
import unittest
from fractions import Fraction as F

import reference as ref


def square(cx, cy, r, turns=1):
    """Closed counterclockwise square path around (cx, cy), `turns` times."""
    corners = [(cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r), (cx - r, cy - r)]
    return corners * turns + [corners[0]]


class TestGeometry(unittest.TestCase):
    def test_orient_signs(self):
        a, b, c = (F(0), F(0)), (F(1), F(0)), (F(0), F(1))
        self.assertEqual(ref.orient(a, b, c), 1)
        self.assertEqual(ref.orient(a, c, b), -1)
        self.assertEqual(ref.orient(a, b, (F(3), F(0))), 0)

    def test_winding_counts_turns_and_direction(self):
        self.assertEqual(ref.winding(square(0, 0, 1)), 1)
        self.assertEqual(ref.winding(square(0, 0, 1, turns=2)), 2)
        self.assertEqual(ref.winding(square(0, 0, 1)[::-1]), -1)
        self.assertEqual(ref.winding(square(5, 0, 1)), 0)
        self.assertEqual(ref.winding(square(5, 0, 1), twist_turns=1), 1)

    def test_winding_with_vertex_on_the_ray(self):
        path = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)), (F(1), F(0))]
        self.assertEqual(ref.winding(path), 1)

    def test_winding_rejects_the_origin(self):
        with self.assertRaises(ValueError):
            ref.winding([(F(-1), F(0)), (F(1), F(0)), (F(0), F(1)), (F(-1), F(0))])

    def test_pair_winding_of_a_loop_around_a_strand(self):
        initial = [(F(0), F(0)), (F(4), F(0)), (F(0), F(4))]
        loop = [(1, p) for p in [(F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)), (F(-1), F(-1)), (F(0), F(0))]]
        # a loop around strand 1's own start encloses no other strand
        self.assertEqual(ref.pair_winding(ref.positions_along(initial, loop), 1, 2), 0)
        around_2 = [(1, p) for p in [(F(3), F(-1)), (F(5), F(-1)), (F(5), F(1)), (F(3), F(1)), (F(0), F(0))]]
        configs = ref.positions_along(initial, around_2)
        self.assertEqual(ref.pair_winding(configs, 1, 2), 1)
        self.assertEqual(ref.pair_winding(configs, 2, 1), 1)
        self.assertEqual(ref.pair_winding(configs, 1, 3), 0)

    def test_move_flips_and_event_time(self):
        before = ((F(0), F(-1)), (F(-1), F(0)), (F(1), F(0)), (F(0), F(5)))
        after = ref.positions_along(before, [(1, (F(0), F(1)))])[1]
        # strand 1 crosses the line through 2 and 3 only
        self.assertEqual(ref.move_flips(before, after, 1), {(1, 2, 3)})
        self.assertTrue(ref.collinear_at(before[0], after[0], F(1, 2), before[1], before[2]))
        self.assertFalse(ref.collinear_at(before[0], after[0], F(1, 3), before[1], before[2]))


class TestStatus(unittest.TestCase):
    def test_sign_is_antisymmetric(self):
        minus = {(1, 2, 4)}
        self.assertEqual(ref.sign(minus, 1, 2, 4), -1)
        self.assertEqual(ref.sign(minus, 2, 1, 4), 1)
        self.assertEqual(ref.sign(minus, 4, 1, 2), -1)
        self.assertEqual(ref.sign(minus, 3, 2, 1), -1)

    def test_state_from_mask_uses_lexicographic_triples(self):
        self.assertEqual(ref.state_from_mask(4, 0b0010), frozenset({(1, 2, 4)}))
        self.assertEqual(ref.state_from_mask(4, 0b1000), frozenset({(2, 3, 4)}))

    def test_good_then_bad(self):
        statuses, final = ref.word_centrals(4, [(1, 3, 4), (1, 2, 3)])
        self.assertEqual(statuses, [frozenset({4}), frozenset()])
        self.assertEqual(final, frozenset({(1, 3, 4), (1, 2, 3)}))

    def test_tetra_window_with_two_good_letters(self):
        lhs = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        start = frozenset({(1, 2, 4)})
        left = [bool(c) for c in ref.word_centrals(4, lhs, start)[0]]
        right = [bool(c) for c in ref.word_centrals(4, lhs[::-1], start)[0]]
        self.assertEqual(left, [True, True, False, False])
        self.assertEqual(right, [False, False, True, True])

    def test_walk_is_realisable(self):
        rng = random.Random(3)
        for n in (5, 9):
            w = ref.good_letter_walk(n, 40, rng)
            self.assertEqual(len(w), 40)
            self.assertTrue(ref.is_realisable(n, w))

    def test_odd_letters_and_subsequence(self):
        self.assertEqual(ref.odd_letters([(1, 2, 3), (1, 2, 4), (1, 2, 3)]), {(1, 2, 4)})
        self.assertTrue(ref.is_subsequence([1, 3], [1, 2, 3]))
        self.assertFalse(ref.is_subsequence([3, 1], [1, 2, 3]))

    def test_format(self):
        self.assertEqual(ref.format_word(9, [(1, 3, 9), (2, 4, 5)]), "a139 a245")
        self.assertEqual(ref.format_word(12, [(1, 3, 12)]), "a(1,3,12)")


class TestRewriter(unittest.TestCase):
    W = ((1, 2, 3), (1, 4, 5), (1, 2, 3), (1, 2, 3))

    def test_each_relation(self):
        self.assertEqual(ref.rewrite(self.W, "del", 2), self.W[:2])
        self.assertEqual(ref.rewrite(self.W, "ins", 0, (2, 3, 4)), ((2, 3, 4), (2, 3, 4)) + self.W)
        self.assertEqual(ref.rewrite(self.W, "swap", 0), ((1, 4, 5), (1, 2, 3), (1, 2, 3), (1, 2, 3)))
        tetra = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        self.assertEqual(ref.rewrite(tetra, "tetra", 0), tetra[::-1])

    def test_rejects_what_does_not_apply(self):
        for kind, pos in (("del", 0), ("swap", 2), ("tetra", 0), ("del", 3), ("swap", -1)):
            with self.assertRaises(ValueError):
                ref.rewrite(self.W, kind, pos)
        with self.assertRaises(ValueError):
            ref.rewrite(self.W, "ins", 5, (1, 2, 3))

    def test_random_moves_keep_parity_and_length_bound(self):
        rng = random.Random(7)
        for n in (4, 5, 6):
            w = tuple(rng.choice(ref.triples(n)) for _ in range(5))
            w2 = ref.random_relation_moves(n, w, 8, rng, max_len=11)
            self.assertEqual(ref.odd_letters(w), ref.odd_letters(w2))
            self.assertLessEqual(len(w2), 11)


if __name__ == "__main__":
    unittest.main()
