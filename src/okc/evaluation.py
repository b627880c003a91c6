"""Experiment drivers, metrics and the slide-cost benchmark.

Two protocols are implemented. The stationary protocol shuffles the data per
run, trains on 70% of the target samples and scores the remaining targets
plus every outlier, reporting the balanced AUC averaged over runs. The stream
protocol fills a window with the first W target samples, then walks the rest
of the stream prequentially: every sample is scored by the model as it stood
on arrival, and in sliding mode the model slides each time a fresh chunk of
target samples has accumulated. Scoring never mutates the model, so samples
between two slides are scored as one batch without changing the semantics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, UndefinedMetricError
from .gram_window import RegGramState, direct_inverse_oracle
from .kernel import KernelSpec
from .models import fit_boundary, fit_reconstruction
from .selection import FRAMEWORKS, SelectionConfig, select
from .streams import features_of, labels_of


@dataclass
class RunConfig:
    framework: str = "boundary"  # boundary | reconstruction
    mode: str = "sliding"  # static | sliding
    window: int = 150
    chunk: int = 50
    eta: float = 0.05
    lam: float = 1.0
    sigma: float | str = "auto"  # "auto" triggers consistency-based selection
    runs: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.framework not in FRAMEWORKS:
            raise InvalidInputError(f"framework must be one of {FRAMEWORKS}, got {self.framework!r}")
        if self.mode not in ("static", "sliding"):
            raise InvalidInputError(f"mode must be 'static' or 'sliding', got {self.mode!r}")
        if self.window < 1:
            raise InvalidInputError(f"window must be >= 1, got {self.window}")
        if self.mode == "sliding" and not 0 < self.chunk < self.window:
            raise InvalidInputError(
                f"sliding mode needs 0 < chunk < window, got chunk={self.chunk}, window={self.window}"
            )
        if self.runs < 1:
            raise InvalidInputError(f"runs must be >= 1, got {self.runs}")
        if self.sigma != "auto" and float(self.sigma) <= 0:
            raise InvalidInputError(f"sigma must be positive or 'auto', got {self.sigma!r}")
        if self.lam <= 0:
            raise InvalidInputError(f"lambda must be positive, got {self.lam}")

    def to_json_dict(self) -> dict:
        return {
            "framework": self.framework,
            "mode": self.mode,
            "window": self.window,
            "chunk": self.chunk,
            "eta": self.eta,
            "lambda": self.lam,
            "sigma": self.sigma,
            "runs": self.runs,
            "seed": self.seed,
        }


@dataclass
class EvalReport:
    overall_accuracy: float
    auc: float | None
    step_accuracy: list[float] | None
    confusion: dict[str, int]
    timing: dict[str, float]
    config: dict = field(default_factory=dict)
    run_aucs: list[float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "auc": self.auc,
            "step_accuracy": self.step_accuracy,
            "confusion": self.confusion,
            "timing": self.timing,
            "config": self.config,
            "run_aucs": self.run_aucs,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2))

    def write_step_csv(self, path) -> None:
        with Path(path).open("w") as fh:
            fh.write("step,accuracy\n")
            for i, a in enumerate(self.step_accuracy or []):
                fh.write(f"{i},{a!r}\n")

    def summary_line(self) -> str:
        return json.dumps(
            {
                "accuracy": round(self.overall_accuracy, 4),
                "auc": None if self.auc is None else round(self.auc, 2),
                "timing": {k: round(v, 4) for k, v in self.timing.items()},
            }
        )


def auc(confusion: dict[str, int]) -> float:
    """Balanced AUC in percent: 50 * (sensitivity + specificity)."""
    positives = confusion["tp"] + confusion["fn"]
    negatives = confusion["tn"] + confusion["fp"]
    if positives == 0 or negatives == 0:
        raise UndefinedMetricError("AUC needs at least one sample of each class")
    return 50.0 * (confusion["tp"] / positives + confusion["tn"] / negatives)


def batch_sizes(n: int, steps: int) -> list[int]:
    """Sizes of ``steps`` contiguous near-equal batches covering ``n`` items.

    The remainder is spread over the leading batches, one extra item each.
    """
    q, r = divmod(n, steps)
    return [q + 1] * r + [q] * (steps - r)


def stepwise_accuracy(correct, steps: int = 100) -> np.ndarray:
    """Per-batch accuracy over ``steps`` contiguous batches of the results."""
    correct = np.asarray(correct, dtype=float)
    if correct.size < steps:
        raise InsufficientDataError(f"need at least {steps} results, got {correct.size}")
    out = np.empty(steps)
    pos = 0
    for i, size in enumerate(batch_sizes(correct.size, steps)):
        out[i] = correct[pos : pos + size].mean()
        pos += size
    return out


def _confusion(actual: np.ndarray, predicted: np.ndarray) -> dict[str, int]:
    pos = actual == 1
    pred_pos = predicted == 1
    return {
        "tp": int(np.sum(pos & pred_pos)),
        "fn": int(np.sum(pos & ~pred_pos)),
        "tn": int(np.sum(~pos & ~pred_pos)),
        "fp": int(np.sum(~pos & pred_pos)),
    }


def _fit(framework: str, X, lam: float, sigma: float, eta: float):
    state = RegGramState(X, lam, KernelSpec(sigma=sigma))
    if framework == "boundary":
        return fit_boundary(state, eta)
    return fit_reconstruction(state, eta)


def _resolve_hyperparams(cfg: RunConfig, train_X: np.ndarray) -> tuple[float, float]:
    if cfg.sigma == "auto":
        result = select(train_X, cfg.framework, SelectionConfig(eta=cfg.eta), seed=cfg.seed)
        return result.lam, result.sigma
    return cfg.lam, float(cfg.sigma)


def _maybe_steps(correct: list[bool], steps: int = 100) -> list[float] | None:
    if len(correct) < steps:
        return None
    return stepwise_accuracy(correct, steps).tolist()


def run_stationary(dataset, cfg: RunConfig) -> EvalReport:
    """Repeated-shuffle protocol on a stationary labeled dataset.

    Each run trains on 70% of the targets and tests on the remaining targets
    plus all outliers. The report pools accuracy/confusion over runs and
    averages per-run AUC.
    """
    cfg.validate()
    X, y = features_of(dataset), labels_of(dataset)
    target_idx = np.flatnonzero(y == 1)
    outlier_idx = np.flatnonzero(y == -1)
    if target_idx.size < 2 or outlier_idx.size < 1:
        raise InsufficientDataError("stationary protocol needs >= 2 targets and >= 1 outlier")
    n_train = max(1, int(0.7 * target_idx.size))
    if n_train >= target_idx.size:
        n_train = target_idx.size - 1

    lam = sigma = None
    timing = {"train_s": 0.0, "forget_s": 0.0, "test_s": 0.0}
    total = {"tp": 0, "fn": 0, "tn": 0, "fp": 0}
    run_aucs: list[float] = []
    correct: list[bool] = []
    for r in range(cfg.runs):
        rng = np.random.default_rng(cfg.seed + r)
        perm = rng.permutation(target_idx.size)
        train_X = X[target_idx[perm[:n_train]]]
        if lam is None:
            lam, sigma = _resolve_hyperparams(cfg, train_X)
        t0 = time.perf_counter()
        model = _fit(cfg.framework, train_X, lam, sigma, cfg.eta)
        timing["train_s"] += time.perf_counter() - t0

        test_idx = np.concatenate([target_idx[perm[n_train:]], outlier_idx])
        t0 = time.perf_counter()
        scores = model.scores(X[test_idx])
        timing["test_s"] += time.perf_counter() - t0
        predicted = model.labels_for(scores)
        actual = y[test_idx]
        conf = _confusion(actual, predicted)
        for k in total:
            total[k] += conf[k]
        run_aucs.append(auc(conf))
        correct.extend((predicted == actual).tolist())

    n_scored = sum(total.values())
    report = EvalReport(
        overall_accuracy=(total["tp"] + total["tn"]) / n_scored,
        auc=float(np.mean(run_aucs)),
        step_accuracy=_maybe_steps(correct),
        confusion=total,
        timing=timing,
        config=cfg.to_json_dict() | {"resolved_lambda": lam, "resolved_sigma": sigma},
        run_aucs=run_aucs,
    )
    return report


def run_stream(stream, cfg: RunConfig) -> EvalReport:
    """Prequential evaluation of a labeled stream, static or sliding.

    The model is initialized on the first ``cfg.window`` target samples. Every
    later sample is scored before it can influence the model; in sliding mode
    the model slides whenever ``cfg.chunk`` new target samples have arrived.
    """
    cfg.validate()
    X, y = features_of(stream), labels_of(stream)
    target_pos = np.flatnonzero(y == 1)
    if target_pos.size < cfg.window:
        raise InsufficientDataError(
            f"stream holds {target_pos.size} target samples, window needs {cfg.window}"
        )
    init_pos = target_pos[: cfg.window]
    lam, sigma = _resolve_hyperparams(cfg, X[init_pos])

    timing = {"train_s": 0.0, "forget_s": 0.0, "test_s": 0.0}
    t0 = time.perf_counter()
    model = _fit(cfg.framework, X[init_pos], lam, sigma, cfg.eta)
    timing["train_s"] += time.perf_counter() - t0

    first = int(init_pos[-1]) + 1
    predicted = np.empty(len(stream) - first, dtype=int)
    start = first

    def flush(end: int) -> None:
        # score in blocks of at most cfg.window rows, so the query x window
        # kernel block never outgrows the window's own Gram matrix
        nonlocal start
        while start < end:
            stop = min(end, start + cfg.window)
            t = time.perf_counter()
            s = model.scores(X[start:stop])
            timing["test_s"] += time.perf_counter() - t
            predicted[start - first : stop - first] = model.labels_for(s)
            start = stop

    if cfg.mode == "sliding":
        pending: list[int] = []
        for pos in range(first, len(stream)):
            if y[pos] == 1:
                pending.append(pos)
                if len(pending) == cfg.chunk:
                    flush(pos + 1)  # score the chunk-completing sample pre-slide
                    t = time.perf_counter()
                    model.forget(cfg.chunk)
                    timing["forget_s"] += time.perf_counter() - t
                    t = time.perf_counter()
                    model.absorb(X[pending])
                    timing["train_s"] += time.perf_counter() - t
                    pending = []
    flush(len(stream))

    actual = y[first:]
    if actual.size == 0:
        raise InsufficientDataError("no samples left to score after window initialization")
    conf = _confusion(actual, predicted)
    correct = (predicted == actual).tolist()
    has_both = (conf["tp"] + conf["fn"] > 0) and (conf["tn"] + conf["fp"] > 0)
    return EvalReport(
        overall_accuracy=(conf["tp"] + conf["tn"]) / actual.size,
        auc=auc(conf) if has_both else None,
        step_accuracy=_maybe_steps(correct),
        confusion=conf,
        timing=timing,
        config=cfg.to_json_dict() | {"resolved_lambda": lam, "resolved_sigma": sigma},
    )


def slide_benchmark(window: int = 1000, chunk: int = 50, dims: int = 2,
                    slides: int = 20, seed: int = 0,
                    lam: float = 1e3, sigma: float = 1.0, eta: float = 0.05) -> dict:
    """Median per-slide cost of the incremental path vs full recomputation.

    The incremental side times retract + extend + refit of a boundary model;
    the recompute side times rebuilding the regularized Gram of the slid
    window and inverting it densely. Both process identical window contents.
    """
    if slides < 1:
        raise InvalidInputError(f"slides must be >= 1, got {slides}")
    if not 0 < chunk < window:
        raise InvalidInputError(f"need 0 < chunk < window, got {chunk}, {window}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((window, dims))
    chunks = [rng.standard_normal((chunk, dims)) for _ in range(slides)]
    kernel = KernelSpec(sigma=sigma)

    model = fit_boundary(RegGramState(base, lam, kernel), eta)
    inc_times = []
    for c in chunks:
        t0 = time.perf_counter()
        model.forget(chunk)
        model.absorb(c)
        inc_times.append(time.perf_counter() - t0)

    win = base.copy()
    rec_times = []
    for c in chunks:
        t0 = time.perf_counter()
        win = np.vstack([win[chunk:], c])
        direct_inverse_oracle(win, lam, kernel)
        rec_times.append(time.perf_counter() - t0)

    inc = float(np.median(inc_times))
    rec = float(np.median(rec_times))
    return {
        "window": window,
        "chunk": chunk,
        "dims": dims,
        "slides": slides,
        "incremental_median_s": inc,
        "recompute_median_s": rec,
        "ratio": rec / inc,
    }
