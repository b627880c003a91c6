"""The workloads: inputs made from the seed, one operation, and checks.

A workload object is driven by ``worker.py``: ``setup`` builds the inputs and
the initial model, ``op`` performs one timed operation and returns a result,
``items`` (called outside the timed region) checks that result and returns
the number of work items it completed, and ``finish`` runs the end-of-run
correctness checks and returns ``(failures, accuracy)``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ETA = 0.05


class OpFailed(Exception):
    """An operation that did not complete; counted in ``failed``."""


def _arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([s.features for s in samples], dtype=float)
    y = np.array([s.label for s in samples])
    return X, y


def drift_spec(okc, total: int, seed: int):
    """The README's 2-D unimodal drift stream: targets move 0.25 per 200 samples."""
    return okc.DriftStreamSpec(family="unimodal_drift", n_dims=2, total=total,
                               drift_period=200, velocity=[0.25, 0.0],
                               class_offset=[8.0, 0.0], seed=seed)


class SlideW1000:
    """Prequential boundary model, W=1000, chunk 50: score the pending batch, then slide."""

    name = "slide_w1000"
    W, CHUNK, LAM, SIGMA = 1000, 50, 1e3, 1.0
    MAX_SLIDES = 1500  # a run that consumes them all ends early
    round_size = 1

    def setup(self, okc, seed: int, out_dir: Path) -> None:
        self.okc = okc
        self.seed = seed
        total = 2 * (self.W + self.CHUNK * self.MAX_SLIDES)
        self.X, self.y = _arrays(okc.gen_stream(drift_spec(okc, total, seed)))
        self.tpos = np.flatnonzero(self.y == 1)
        state = okc.RegGramState(self.X[self.tpos[: self.W]], self.LAM, okc.KernelSpec(sigma=self.SIGMA))
        self.model = okc.fit_boundary(state, ETA)
        self.first = int(self.tpos[self.W - 1]) + 1
        self.start = self.first
        self.slides = 0
        self.pred = np.zeros(len(self.y), dtype=int)

    def exhausted(self) -> bool:
        return self.W + (self.slides + 1) * self.CHUNK > len(self.tpos)

    def warmup(self) -> None:
        self.items(self.op(None))

    def op(self, tracer):
        lo = self.W + self.slides * self.CHUNK
        end = int(self.tpos[lo + self.CHUNK - 1]) + 1
        scores = self.model.scores(self.X[self.start:end])
        self.pred[self.start:end] = self.model.labels_for(scores)
        self.model.slide(self.X[self.tpos[lo : lo + self.CHUNK]])
        return end

    def items(self, end) -> int:
        n, self.start = end - self.start, end
        self.slides += 1
        return n

    def finish(self) -> tuple[list[str], float]:
        model, st = self.model, self.model.state
        consumed = self.X[self.tpos[: self.W + self.slides * self.CHUNK]]
        fails = checks.window_is_last_targets(st.window, consumed, self.W)
        rng = np.random.default_rng([self.seed, 1])
        probes = st.window.mean(axis=0) + rng.normal(scale=3.0, size=(300, 2))
        ref_q, ref_train = checks.boundary_reference(st.window, self.LAM, self.SIGMA, probes)
        fails += checks.scores_match(model.scores(probes), ref_q, "probe scores")
        fails += checks.labels_agree(model.labels_for(model.scores(probes)), ref_q, model.theta,
                                     "probe labels")
        fails += checks.rejection_in_bounds(ref_train, model.theta, ETA)
        acc = float(np.mean(self.pred[self.first:self.start] == self.y[self.first:self.start]))
        return fails, acc


def _annulus(rng, n: int, r_lo: float, r_hi: float) -> np.ndarray:
    r = np.sqrt(rng.random(n) * (r_hi**2 - r_lo**2) + r_lo**2)
    a = rng.random(n) * 2.0 * np.pi
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


class SelectRing500:
    """``select(ring, "boundary")`` on 500-sample rings from fixed seeds, then a fit."""

    name = "select_ring500"
    # the first three ring seeds whose scan stops at candidate 28 (sigma index 1,
    # lambda 1e-2), so that every operation does the same work
    RING_SEEDS = (0, 4, 8)
    FOLDS = 5
    round_size = len(RING_SEEDS)

    def setup(self, okc, seed: int, out_dir: Path) -> None:
        self.okc = okc
        self.seed = seed
        rings = [_arrays(okc.gen_ring(500, 1.0, 2.0, seed=s))[0] for s in self.RING_SEEDS]
        shift = seed % len(rings)  # the seed rotates the order within a round
        self.rings = rings[shift:] + rings[:shift]
        self.warm = _arrays(okc.gen_ring(100, 1.0, 2.0, seed=1))[0]
        self.results: dict[int, object] = {}
        self.depth: dict[int, int] = {}
        self.depths: list[int] = []
        self.fails: list[str] = []
        self.i = 0

    def exhausted(self) -> bool:
        return False

    def warmup(self) -> None:
        # a shallow scan on a smaller ring: a deep one would cost a whole operation
        self.okc.select(self.warm, "boundary")

    def op(self, tracer):
        return self.okc.select(self.rings[self.i % len(self.rings)], "boundary")

    def items(self, res) -> int:
        k = self.i % len(self.rings)
        self.i += 1
        pair = (res.lam, res.sigma, res.cv_error, res.consistent)
        if k not in self.results:
            self.results[k] = pair
            self.depth[k] = checks.scan_depth(self.rings[k], res.lam, res.sigma)
            if self.depth[k] == 0:
                self.fails.append(f"ring {k}: chosen pair is not on the candidate grid")
        elif self.results[k] != pair:
            self.fails.append(f"ring {k}: select gave {pair}, earlier {self.results[k]}")
        self.depths.append(self.depth[k])
        return self.depth[k]

    def finish(self) -> tuple[list[str], float]:
        okc = self.okc
        fails = list(self.fails)
        rng = np.random.default_rng([self.seed, 2])
        probes = np.vstack([_annulus(rng, 500, 0.0, 0.5), _annulus(rng, 500, 3.0, 4.0)])
        fresh = _annulus(rng, 2000, 1.0, 2.0)
        correct = total = 0
        for k, (lam, sigma, cv_error, consistent) in sorted(self.results.items()):
            X = self.rings[k]
            fails += [f"ring {k}: {m}" for m in checks.selection_valid(
                lam, sigma, cv_error, consistent, X, ETA, self.FOLDS)]
            model = okc.fit_boundary(okc.RegGramState(X, lam, okc.KernelSpec(sigma=sigma)), ETA)
            probe_labels = model.labels_for(model.scores(probes))
            fails += [f"ring {k}: {m}" for m in checks.ring_fit_valid(
                model.labels_for(model.scores(X)), probe_labels)]
            fresh_labels = model.labels_for(model.scores(fresh))
            correct += int(np.sum(probe_labels == -1) + np.sum(fresh_labels == 1))
            total += len(probes) + len(fresh)
        return fails, correct / total


class CliW150:
    """``okc run <csv> --header --target-label 1 --sigma auto`` in a child process."""

    name = "cli_w150"
    ROWS, W = 100_000, 150
    round_size = 1

    def setup(self, okc, seed: int, out_dir: Path) -> None:
        self.out = out_dir / f"cli-{os.getpid()}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.csv = self.out / "stream.csv"
        samples = okc.gen_stream(drift_spec(okc, self.ROWS, seed))
        okc.save_csv(samples, self.csv)
        y = np.array([s.label for s in samples])
        tpos = np.flatnonzero(y == 1)
        first = int(tpos[self.W - 1]) + 1
        self.rows_after = self.ROWS - first
        self.targets_after = int(np.sum(y[first:] == 1))
        self.X_init = np.array([samples[i].features for i in tpos[: self.W]])
        self.report_stem = self.out / f"{self.csv.stem}_boundary_sliding_0"
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.args = ["run", str(self.csv), "--header", "--target-label", "1",
                     "--sigma", "auto", "--out", str(self.out)]
        self.fails: list[str] = []
        self.accuracy: list[float] = []
        self.timing: list[dict] = []
        self.depths: list[int] = []
        self.spans_path = self.out / "spans.json"

    def cleanup(self) -> None:
        for p in self.out.iterdir():
            p.unlink()
        self.out.rmdir()

    def exhausted(self) -> bool:
        return False

    def warmup(self) -> None:
        self.items(self.op(None))

    def op(self, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "okc.cli", *self.args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path), *self.args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        return proc, tracer, tracer.current() if tracer is not None else -1

    def items(self, result) -> int:
        proc, tracer, op_span = result
        if tracer is not None and proc.returncode == 0:
            doc = json.loads(self.spans_path.read_text())
            tracer.adopt(doc["spans"], op_span)
            for key, value in doc["counters"].items():
                tracer.counters[key] += value
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        try:
            report = json.loads(self.report_stem.with_suffix(".json").read_text())
            steps = self.report_stem.with_suffix(".csv").read_text()
        except (OSError, json.JSONDecodeError):
            report = steps = None
        self.fails += checks.cli_run_valid(proc.returncode, proc.stdout, report, steps,
                                           self.rows_after, self.targets_after)
        if report is not None:
            self.accuracy.append(report["overall_accuracy"])
            self.timing.append(report["timing"])
            cfg = report["config"]
            self.depths.append(checks.scan_depth(
                self.X_init, cfg["resolved_lambda"], cfg["resolved_sigma"]))
            self.report_stem.with_suffix(".json").unlink()
            self.report_stem.with_suffix(".csv").unlink()
        if proc.returncode != 0:
            raise OpFailed(f"okc run exited with {proc.returncode}")
        return self.ROWS

    def finish(self) -> tuple[list[str], float]:
        fails = list(dict.fromkeys(self.fails))
        if len(set(self.accuracy)) > 1:
            fails.append(f"accuracy differs between invocations: {sorted(set(self.accuracy))}")
        if 0 in self.depths:
            fails.append("resolved (lambda, sigma) is not on the candidate grid")
        return fails, float(np.median(self.accuracy)) if self.accuracy else 0.0


WORKLOADS = {w.name: w for w in (SlideW1000, SelectRing500, CliW150)}
