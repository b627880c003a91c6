"""``okc`` CLI launcher for traced runs of the cli_w150 workload.

Usage: ``python cli_child.py <spans.json> <okc arguments...>``. It times the
import of ``okc.cli``, wraps okc's layer functions with spans, calls
``okc.cli.main`` with the remaining arguments and writes the spans, plus the
inversion counts from ``track_inversions``, to ``<spans.json>``. Untraced
runs call ``python -m okc.cli`` instead.
"""

import time

T0 = time.perf_counter()

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, instrument  # noqa: E402

tracer = Tracer()
with tracer.span("cli.import"):
    sys.path.insert(0, str(HERE.parent / "src"))
    import okc.cli
instrument(tracer, okc)
with okc.track_inversions() as log:
    code = okc.cli.main(sys.argv[2:])
tracer.dump(sys.argv[1], counters={"inversions": len(log), "inverted_rows": sum(log)})
sys.exit(code)
