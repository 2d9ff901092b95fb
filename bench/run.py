"""Run one benchmark workload against the tribraid sources of this checkout.

    python3 bench/run.py --workload motion --seed 1 --seconds 20 --trace 0

The seeded inputs are built once with the benchmark's own reference code,
untimed.  The run then repeats whole rounds of the workload's operations
until `--seconds` have passed, checking every output against the reference
computations in `reference.py`.  It sets up afresh SETUPS times, spread
over the run (import tribraid, turn the inputs into tribraid objects, one
untimed warm-up call of each kind), and `setup_s` is the median set-up
time.  Every timed call is scaled to the machine's nominal speed by the
laps of `yardstick.py` run on either side of it.  The last line of
standard output is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`.

Failure accounting: an operation that hits the one named fault (see the
README) counts in `failed`; any other error or any check mismatch stops
the run with exit code 1 and no result line.  A missing tribraid source
tree exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import equality
import motion
import realisability
from checks import CheckFailure
from layers import PER_LAYER, layer_metrics
from spans import Tracer
from yardstick import Yardstick

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# a fixed count, because every fresh import keeps some memory that
# peak_rss_mib then shows
SETUPS = 9
WORKLOADS = {"motion": motion, "realisability": realisability, "equality": equality}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("scaled_ops_per_s", "1/s"),
)


def import_tribraid():
    """Import tribraid afresh from this checkout's `src`, dropping any copy
    already loaded, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "tribraid" or m.startswith("tribraid.")]:
        del sys.modules[name]
    tb = importlib.import_module("tribraid")
    importlib.import_module("tribraid.cli")
    if Path(tb.__file__).resolve().parent != ROOT / "src" / "tribraid":
        raise ImportError(f"tribraid imported from {tb.__file__}, not from {ROOT / 'src'}")
    return tb


def set_up(module, inputs, tracer: Tracer, yardstick: Yardstick):
    start = time.perf_counter()
    wl = module.Workload(import_tribraid(), inputs, tracer)
    wl.warm_up()
    return wl, yardstick.scale(time.perf_counter() - start)


class Tally:
    """Scaled operation times per position in the round, plus attempted and
    failed counts.  Every round runs the same operations, so a position's
    median across rounds is that operation's time without the bursts of
    load that the scaling leaves; a round's time is the sum of those
    medians."""

    def __init__(self):
        self.times = defaultdict(list)
        self.kinds = {}
        self.units = {}
        self.failed_at = set()  # positions whose operation hit the named fault
        self.attempted = 0
        self.failed = 0

    def seconds(self, kind=None) -> float:
        return sum(
            statistics.median(ts)
            for i, ts in self.times.items()
            if kind is None or self.kinds[i] == kind
        )

    def rate(self, kind) -> float:
        """Work of one kind per second of its round time: completed
        operations weighted by their units (letters, rows or 1)."""
        units = sum(u for i, u in self.units.items() if self.kinds[i] == kind)
        return units / self.seconds(kind)

    def ops_per_s(self) -> float:
        """Completed operations per second of round time."""
        return (len(self.times) - len(self.failed_at)) / self.seconds()


def run_round(wl, tracer: Tracer, tally: Tally, yardstick: Yardstick) -> None:
    for index, op in enumerate(wl.round()):
        start = time.perf_counter()
        with tracer.span(f"bench.{op.kind}"):
            out = op.run()
        elapsed = yardstick.scale(time.perf_counter() - start)
        failed = op.check(out)
        tally.times[index].append(elapsed)
        tally.kinds[index] = op.kind
        tally.units[index] = 0 if failed else op.units
        tally.attempted += 1
        if failed:
            tally.failed_at.add(index)
            tally.failed += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tribraid" / "__init__.py").is_file():
        print(f"error: no tribraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    module = WORKLOADS[args.workload]
    tracer = Tracer()
    try:
        start = time.perf_counter()
        inputs = module.make_inputs(args.seed)
        inputs_s = time.perf_counter() - start
        plain, traced = Tally(), Tally()
        setup_times = []
        yardstick = Yardstick()
        rounds = 0
        start = time.perf_counter()
        while rounds < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
            # set-ups are spread over the run, as the operations are, so
            # that a fast or slow spell of the machine moves both alike;
            # the round runs on the modules that the last set-up imported
            tracer.enabled = False
            due = 1 + int((SETUPS - 1) * (time.perf_counter() - start) / args.seconds)
            while len(setup_times) < min(due, SETUPS):
                wl, took = set_up(module, inputs, tracer, yardstick)
                setup_times.append(took)
            # a traced run alternates untraced and traced rounds, so the
            # tracing overhead is measured on the same inputs in the same process
            tracer.enabled = bool(args.trace) and rounds % 2 == 1
            run_round(wl, tracer, traced if tracer.enabled else plain, yardstick)
            rounds += 1
        tracer.enabled = False
        while len(setup_times) < SETUPS:
            setup_times.append(set_up(module, inputs, tracer, yardstick)[1])
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    print(f"inputs_s {inputs_s:.6g} s (reference input building, not in setup_s)")
    print(f"machine_speed {yardstick.speed():.4g} x nominal (median over the run's laps)")
    for line in wl.report(plain):
        print(line)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if args.trace:
        overhead = 100 * (traced.seconds() / plain.seconds() - 1)
        values = layer_metrics(tracer.spans, rounds // 2, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "scaled_ops_per_s": plain.ops_per_s(),
        }
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"attempted {attempted} failed {failed}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
