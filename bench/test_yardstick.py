"""Tests of the yardstick's scaling, with the laps replaced by fixed times.

    python3 -m unittest discover -s bench
"""

import unittest
from unittest import mock

import yardstick


class TestYardstick(unittest.TestCase):
    def test_lap_runs(self):
        self.assertEqual(len(yardstick.laps(0)), 1)

    def test_scale_uses_the_laps_on_both_sides(self):
        nominal = yardstick.NOMINAL_S
        with mock.patch.object(yardstick, "laps", side_effect=[
            [nominal] * 3,                  # before the first call
            [2 * nominal] * 3,              # after it: the machine is slower
            [2 * nominal] * 5,              # after the second call
        ]):
            ys = yardstick.Yardstick()
            # laps before and after at 1x and 2x: median 1.5x
            self.assertAlmostEqual(ys.scale(3.0), 2.0)
            # both sides at 2x
            self.assertAlmostEqual(ys.scale(3.0), 1.5)
            self.assertAlmostEqual(ys.speed(), 0.5)


if __name__ == "__main__":
    unittest.main()
