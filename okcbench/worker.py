"""One workload process: set up, warm up, time the operations, check them.

Started by ``run.py`` with BLAS pinned to one thread. ``--role setup`` stops
after set-up and reports its duration; ``--role main`` goes on to a warm-up
operation, the timed phase and the correctness checks. With ``--trace 1`` the
timed phase is split: its first half runs untraced, its second half with
spans around okc's layers, and the per-layer figures are derived from those
spans. Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first line of the workload process

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# op-phase span name -> per-layer metric (per operation)
OP_LAYERS = {
    "kernel.gram": "kernel.gram_ms",
    "gram_window.retract": "gram_window.retract_ms",
    "gram_window.extend": "gram_window.extend_ms",
    "gram_window.init": "gram_window.init_ms",
    "models.refit": "models.refit_ms",
    "models.scores": "models.scores_ms",
    "selection.select": "selection.select_ms",
    "streams.load_csv": "streams.load_csv_ms",
    "evaluation.run_stream": "evaluation.run_stream_self_ms",
    "cli.import": "cli.import_ms",
    "cli.report_write": "cli.report_write_ms",
    "op": "trace.uncovered_ms",
}
# set-up span name -> per-layer metric (per set-up)
SETUP_LAYERS = {
    "import": "setup.import_ms",
    "streams.gen_stream": "setup.streams.gen_stream_ms",
    "streams.save_csv": "setup.streams.save_csv_ms",
    "kernel.gram": "setup.kernel.gram_ms",
    "gram_window.init": "setup.gram_window.init_ms",
    "models.refit": "setup.models.refit_ms",
    "setup": "setup.uncovered_ms",
}


def blas_threads() -> dict:
    """Threads in force in each loaded OpenBLAS, read through its own API."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def timed_phase(wl, okc, seconds: float, tracer, OpFailed) -> dict:
    """Whole rounds of operations until ``seconds`` have passed."""
    durations, items, attempted, failed = [], 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and not wl.exhausted():
        for _ in range(wl.round_size):
            attempted += 1
            try:
                if tracer is None:
                    t = time.perf_counter()
                    result = wl.op(None)
                    d = time.perf_counter() - t
                else:
                    with okc.track_inversions() as log, tracer.span("op") as rec:
                        result = wl.op(tracer)
                    d = rec[2] - rec[1]
                    tracer.counters["inversions"] += len(log)
                    tracer.counters["inverted_rows"] += sum(log)
                items += wl.items(result)
                durations.append(d)
            except (OpFailed, okc.OkcError) as exc:
                failed += 1
                print(f"operation failed: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    return {"durations": durations, "items": items, "attempted": attempted,
            "failed": failed, "elapsed": elapsed}


def layer_figures(tracer, wl, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    import numpy as np

    from tracing import self_times

    self_s, counts, roots, root_total = self_times(tracer.spans)
    fails = []
    n_ops = max(roots.get("op", 0), 1)
    out = {metric: 0.0 for metric in OP_LAYERS.values()}
    for name, secs in self_s.get("op", {}).items():
        if name not in OP_LAYERS:
            fails.append(f"trace: span {name!r} inside an operation has no layer metric")
            continue
        out[OP_LAYERS[name]] = 1e3 * secs / n_ops
    op_ms = 1e3 * root_total.get("op", 0.0) / n_ops
    accounted = sum(out.values())
    if abs(accounted - op_ms) > 1e-6 * max(op_ms, 1.0):
        fails.append(f"trace: layers sum to {accounted:.6f} ms, operations take {op_ms:.6f} ms")
    out["trace.op_ms"] = op_ms
    out["kernel.entries"] = counts.get("op", {}).get("kernel.gram", 0) / n_ops
    out["gram_window.inversions"] = tracer.counters["inversions"] / n_ops
    out["gram_window.inverted_rows"] = tracer.counters["inverted_rows"] / n_ops
    depths = getattr(wl, "depths", [])
    out["selection.candidates"] = float(np.mean(depths)) if depths else 0.0
    timing = getattr(wl, "timing", [])
    for key in ("train_s", "forget_s", "test_s"):
        out[f"evaluation.{key}"] = float(np.mean([t[key] for t in timing])) if timing else 0.0
    out["trace.overhead_ms"] = 1e3 * (float(np.median(traced["durations"]))
                                      - float(np.median(untraced["durations"])))
    setup = {metric: 0.0 for metric in SETUP_LAYERS.values()}
    for name, secs in self_s.get("setup", {}).items():
        if name not in SETUP_LAYERS:
            fails.append(f"trace: span {name!r} inside set-up has no layer metric")
            continue
        setup[SETUP_LAYERS[name]] = 1e3 * secs
    setup["setup.total_ms"] = 1e3 * root_total.get("setup", 0.0)
    return out | setup, fails


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    from tracing import Tracer, instrument

    tracer = Tracer() if args.trace else None
    t_import = time.perf_counter()
    import okc

    t_imported = time.perf_counter()
    if Path(okc.__file__).resolve().parent != (SRC / "okc").resolve():
        print(f"okc was imported from {okc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, OpFailed

    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tracer.span("setup") if tracer is not None else nullcontext() as rec:
        if tracer is not None:
            rec[1] = T0
            tracer.spans.append(["import", t_import, t_imported, tracer.current(), 0])
            instrument(tracer, okc)
        wl.setup(okc, args.seed, OUT)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.restore()
    if args.role == "setup":
        getattr(wl, "cleanup", lambda: None)()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.warmup()
    if tracer is None:
        phase = timed_phase(wl, okc, args.seconds, None, OpFailed)
    else:
        untraced = timed_phase(wl, okc, args.seconds / 2, None, OpFailed)
        instrument(tracer, okc)
        traced = timed_phase(wl, okc, args.seconds / 2, tracer, OpFailed)
        tracer.restore()
        phase = {key: untraced[key] + traced[key] for key in ("attempted", "failed")}
    # read before the checks, whose own arrays are not part of the workload
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_w150" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    fails, accuracy = wl.finish()
    getattr(wl, "cleanup", lambda: None)()
    result = {"attempted": phase["attempted"], "failed": phase["failed"],
              "failures": fails, "provenance": provenance()}
    if tracer is None:
        import numpy as np

        d = np.asarray(phase["durations"]) * 1e3
        result["metrics"] = {
            "items_per_s": phase["items"] / phase["elapsed"],
            "op_ms_p50": float(np.percentile(d, 50)),
            "op_ms_p90": float(np.percentile(d, 90)),
            "accuracy": accuracy,
            "peak_rss_mb": peak_rss_mb,
        }
        result["setup_s"] = setup_s
    else:
        figures, trace_fails = layer_figures(tracer, wl, untraced, traced)
        result["metrics"] = figures
        result["failures"] += trace_fails
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json", counters=tracer.counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
