"""In-memory spans recorded around okc's public functions, from outside okc.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``count`` a work count attached by the
wrapper (kernel entries for ``kernel.gram``). Spans stay in memory while the
workload runs and are written out once at the end.

``instrument`` patches every binding of a layer function, because okc's
modules import functions by name: ``gram`` is bound in ``okc.kernel``,
``okc.gram_window`` and ``okc.models``, ``select`` in ``okc.selection``,
``okc.evaluation`` and ``okc.cli``, and so on. ``restore`` undoes it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


def _gram_entries(args, kwargs) -> int:
    # gram(spec, X, Y=None): rows(X) * rows(Y), with Y defaulting to X
    x = args[1] if len(args) > 1 else kwargs["X"]
    y = args[2] if len(args) > 2 else kwargs.get("Y")
    rows = len(x)
    return rows * (rows if y is None else len(y))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)

    def current(self) -> int:
        """Index of the innermost open span, -1 outside any span."""
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str, count: int = 0):
        rec = [name, time.perf_counter(), 0.0, self.current(), count]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, p, count in child_spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, count])

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   count(args, kwargs) if count is not None else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def instrument(tracer: Tracer, okc) -> None:
    """Wrap every binding of the okc layer functions the workloads reach."""
    import okc.cli
    import okc.evaluation
    import okc.gram_window
    import okc.kernel
    import okc.models
    import okc.selection
    import okc.streams

    for mod in (okc, okc.kernel, okc.gram_window, okc.models):
        tracer.wrap(mod, "gram", "kernel.gram", _gram_entries)
    state = okc.RegGramState
    tracer.wrap(state, "__init__", "gram_window.init")
    tracer.wrap(state, "extend", "gram_window.extend")
    tracer.wrap(state, "retract", "gram_window.retract")
    # absorb = extend + refit of weights, training scores and threshold
    tracer.wrap(okc.BoundaryModel, "absorb", "models.refit")
    tracer.wrap(okc.BoundaryModel, "scores", "models.scores")
    for mod in (okc, okc.models, okc.selection, okc.evaluation):
        tracer.wrap(mod, "fit_boundary", "models.refit")
    for mod in (okc, okc.selection, okc.evaluation, okc.cli):
        tracer.wrap(mod, "select", "selection.select")
    for mod in (okc, okc.streams, okc.cli):
        tracer.wrap(mod, "gen_stream", "streams.gen_stream")
        tracer.wrap(mod, "load_csv", "streams.load_csv")
        tracer.wrap(mod, "save_csv", "streams.save_csv")
    tracer.wrap(okc, "gen_ring", "streams.gen_stream")
    for mod in (okc, okc.evaluation, okc.cli):
        tracer.wrap(mod, "run_stream", "evaluation.run_stream")
    tracer.wrap(okc.EvalReport, "write_json", "cli.report_write")
    tracer.wrap(okc.EvalReport, "write_step_csv", "cli.report_write")


def self_times(spans: list[list]) -> tuple[dict, dict, dict, dict]:
    """Per root name: summed self time and count of each span name beneath it.

    Returns ``(self_s, counts, roots, root_total_s)``: ``self_s[root][name]``
    is the summed self time (duration minus the part its children cover) of
    spans named ``name`` under roots named ``root``, the root's own self time
    included under its own name; ``counts`` likewise sums the work counts;
    ``roots[root]`` is the number of such roots and ``root_total_s[root]``
    their summed duration.
    """
    covered = defaultdict(float)
    for name, start, end, parent, count in spans:
        if parent >= 0:
            covered[parent] += end - start
    root_of: list[int] = []
    self_s: dict = defaultdict(lambda: defaultdict(float))
    counts: dict = defaultdict(lambda: defaultdict(int))
    roots: dict = defaultdict(int)
    root_total: dict = defaultdict(float)
    for i, (name, start, end, parent, count) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
        root_name = spans[root_of[i]][0]
        self_s[root_name][name] += (end - start) - covered[i]
        counts[root_name][name] += count
        if parent < 0:
            roots[name] += 1
            root_total[name] += end - start
    return self_s, counts, roots, root_total
