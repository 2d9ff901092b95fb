"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 bench/steady.py

Reads the command, run length, workloads and end-to-end bounds from
BENCHMARK.json at the repository root and runs SETS sets of RUNS runs of
every workload, one process at a time, each run with its own seed.  For
every workload and end-to-end metric it prints each set's median and
spread (distance between the first and third quartile as a share of the
median).  A metric agrees when the second set's median differs from the
first set's by at most its bound, either way, and every set's spread is
within the bound; the share of failed operations must be identical in every
run.  Exits 1 if anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = 1
    for s in range(SETS):
        for _ in range(RUNS):
            # interleave workloads so a slow spell of the machine is shared
            for w in workloads:
                res = run_once(spec, w, seed)
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
            seed += 1

    ok = True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        same = len(shares) == 1
        ok &= same
        print(f"\n{w}: failed share {sorted(shares)} {'same in every run' if same else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = medians[1] / medians[0] - 1
            spread_ok = all(sp <= bound for sp in spreads)
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            print(f"  {name:16} bound {bound:.2f}  "
                  + "  ".join(f"median {m:.5g} spread {sp:.3f}" for m, sp in zip(medians, spreads))
                  + f"  drift {drift:+.3f}"
                  + ("" if spread_ok and drift_ok else "  DISAGREES"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
