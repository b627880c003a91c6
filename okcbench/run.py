"""okc benchmark: ``python3 okcbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Runs one workload of okc from outside, through its public Python API and the
``okc`` CLI, in fresh worker processes with BLAS pinned to one thread. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics. Before that it prints the provenance of the run and the
outcome of each correctness check; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up is measured in ``SETUPS`` separate processes (the timed worker's own
set-up is one of them) and reported as their median. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("slide_w1000", "select_ring500", "cli_w150")
SETUPS = 3
DEADLINE_S = 170.0
UNITS = {
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "okc" / "__init__.py").is_file():
        print(f"okc sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()

    def worker(role: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role]
        budget = DEADLINE_S - (time.monotonic() - started)
        # its own process group, so that a timeout also stops the okc CLI children
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{role} worker exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    try:
        # compile okc's bytecode once so that no measured set-up pays for it
        subprocess.run([sys.executable, "-c", "import okc.cli"], env=env, check=True,
                       timeout=60)
        setups = [] if args.trace else [worker("setup")["setup_s"] for _ in range(SETUPS - 1)]
        main_run = worker("main")
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("provenance " + json.dumps(main_run["provenance"] | {"seed": args.seed,
                                                              "workload": args.workload}))
    for failure in main_run["failures"]:
        print(f"check FAILED: {failure}")
    print(f"checks: {'all passed' if not main_run['failures'] else 'some failed'}")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(main_run["metrics"].items())}
    else:
        values = main_run["metrics"] | {"setup_s": statistics.median(setups + [main_run["setup_s"]])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    print(json.dumps({
        "correct": not main_run["failures"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
