"""BENCHMARK.json names exactly the workloads and metrics the code reports.

    python3 -m unittest discover -s bench
"""

import json
import unittest
from pathlib import Path

import run
from layers import PER_LAYER

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestSpec(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END))

    def test_per_layer(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]], PER_LAYER)


if __name__ == "__main__":
    unittest.main()
