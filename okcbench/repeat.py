"""Repeat ``run.py`` over several seeds and summarise each metric.

Usage: ``python3 okcbench/repeat.py --workload NAME [--seeds 1-10] [--seconds 20] [--trace 0]``

Runs the benchmark once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the quartile spread as a share of the median, followed by the
share of failed operations. The raw results go to stdout as JSON lines
first, so a run can be kept and compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed} | res), flush=True)
        results.append(res)

    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:34s} median {med:14.6g} {first['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
              f"  spread {spread:7.2%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
