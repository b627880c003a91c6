"""Experiment drivers, metrics and the slide-cost benchmark.

Three run modes (:data:`MODES`) are implemented. The stationary mode
(:func:`run_stationary`) shuffles the data per run, trains on 70% of the
target samples and scores the remaining targets plus every outlier,
reporting the balanced AUC averaged over runs. The static and sliding modes
(:func:`run_stream`) fill a window with the first W target samples, then walk
the rest of the stream prequentially: every sample is scored by the model as
it stood on arrival, and in sliding mode the model slides each time a fresh
chunk of target samples has accumulated. Scoring never mutates the model, so
samples between two slides are scored as one batch without changing the
semantics. Every mode reads a label of value 1 as a target and any other
label as an outlier (:func:`~okc.streams.to_one_class`), and pools its
decisions into one kind of :class:`EvalReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, UndefinedMetricError, check_choice, check_int, check_real
from .gram_window import RegGramState, direct_inverse_oracle
from .kernel import KernelSpec
from .models import FRAMEWORKS, MODELS, check_eta, fit_boundary
from .selection import SelectionConfig, select
from .streams import TARGET_LABEL, Dataset, to_one_class

MODES = ("sliding", "static", "stationary")


@dataclass(frozen=True)
class RunConfig:
    """Settings of a run, checked when made: each field holds what its check returns."""

    framework: str = "boundary"  # boundary | reconstruction
    mode: str = "sliding"  # one of MODES
    window: int = 150
    chunk: int = 50
    eta: float = 0.05
    lam: float = 1.0
    sigma: float | str = "auto"  # "auto" triggers consistency-based selection
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        store = super().__setattr__  # the frozen class's own __setattr__ refuses
        check_choice(self.framework, "framework", FRAMEWORKS)
        check_choice(self.mode, "mode", MODES)
        store("window", check_int(self.window, "window", 1))
        store("chunk", check_int(self.chunk, "chunk"))
        if self.mode == "sliding" and not 0 < self.chunk < self.window:
            raise InvalidInputError(
                f"sliding mode needs 0 < chunk < window, got chunk={self.chunk}, window={self.window}"
            )
        store("eta", check_eta(self.eta))
        store("runs", check_int(self.runs, "runs", 1))
        store("seed", check_int(self.seed, "seed", 0))
        if not (isinstance(self.sigma, str) and self.sigma == "auto"):
            store("sigma", check_real(self.sigma, "sigma", 0))
        store("lam", check_real(self.lam, "lambda", 0))

    def to_json_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


@dataclass
class EvalReport:
    overall_accuracy: float
    auc: float | None
    step_accuracy: list[float] | None
    confusion: dict[str, int]
    timing: dict[str, float]
    config: dict = field(default_factory=dict)
    run_aucs: list[float] | None = None

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2))

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


def stepwise_accuracy(correct, steps: int = 100) -> np.ndarray:
    """Per-batch accuracy over ``steps`` contiguous near-equal batches of the
    results; the remainder is spread over the leading batches, one extra
    result each."""
    check_int(steps, "steps", 1)
    correct = np.asarray(correct, dtype=float)
    if correct.size < steps:
        raise InsufficientDataError(f"need at least {steps} results, got {correct.size}")
    return np.array([batch.mean() for batch in np.array_split(correct, steps)])


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
    return MODELS[framework](RegGramState(X, lam, KernelSpec(sigma=sigma)), eta)


def _resolve_hyperparams(cfg: RunConfig, train_X: np.ndarray) -> tuple[float, float]:
    if cfg.sigma == "auto":
        result = select(train_X, cfg.framework, SelectionConfig(eta=cfg.eta), seed=cfg.seed)
        return result.lam, result.sigma
    return cfg.lam, cfg.sigma


def _report(actual: np.ndarray, predicted: np.ndarray, timing: dict[str, float], cfg: RunConfig,
            lam: float, sigma: float, run_aucs: list[float] | None = None) -> EvalReport:
    """The report on the pooled +-1 decisions of a run. The AUC is the
    mean of ``run_aucs`` when given, else the pooled one, None without both
    classes."""
    conf = _confusion(actual, predicted)
    if run_aucs is not None:
        roc = float(np.mean(run_aucs))
    else:
        has_both = (conf["tp"] + conf["fn"] > 0) and (conf["tn"] + conf["fp"] > 0)
        roc = auc(conf) if has_both else None
    return EvalReport(
        overall_accuracy=(conf["tp"] + conf["tn"]) / actual.size,
        auc=roc,
        step_accuracy=stepwise_accuracy(predicted == actual).tolist() if actual.size >= 100 else None,
        confusion=conf,
        timing=timing,
        config=cfg.to_json_dict() | {"resolved_lambda": lam, "resolved_sigma": sigma},
        run_aucs=run_aucs,
    )


def run_stationary(dataset: Dataset, cfg: RunConfig) -> EvalReport:
    """The stationary mode: repeated shuffled splits of a labeled dataset.

    Each run trains on 70% of the targets and tests on the remaining targets
    plus all outliers. The report pools accuracy/confusion over runs and
    averages per-run AUC. Raises InvalidInputError unless ``cfg.mode`` is
    ``"stationary"``.
    """
    if cfg.mode != "stationary":
        raise InvalidInputError(f"run_stationary runs mode 'stationary', got {cfg.mode!r}")
    X, y = dataset.X, to_one_class(dataset, {TARGET_LABEL})[0].y
    target_idx = np.flatnonzero(y == 1)
    outlier_idx = np.flatnonzero(y == -1)
    if target_idx.size < 2 or outlier_idx.size < 1:
        raise InsufficientDataError("stationary mode needs >= 2 targets and >= 1 outlier")
    n_train = min(max(1, int(0.7 * target_idx.size)), target_idx.size - 1)

    lam = sigma = None
    timing = {"train_s": 0.0, "forget_s": 0.0, "test_s": 0.0}
    run_aucs: list[float] = []
    actual: list[np.ndarray] = []
    predicted: list[np.ndarray] = []
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
        actual.append(y[test_idx])
        predicted.append(model.labels_for(scores))
        run_aucs.append(auc(_confusion(actual[-1], predicted[-1])))

    return _report(np.concatenate(actual), np.concatenate(predicted), timing, cfg, lam, sigma, run_aucs)


def run_stream(stream: Dataset, cfg: RunConfig) -> EvalReport:
    """The stream modes: prequential evaluation of a labeled stream, static or sliding.

    The model is initialized on the first ``cfg.window`` target samples. Every
    later sample is scored before it can influence the model; in sliding mode
    the model slides whenever ``cfg.chunk`` new target samples have arrived.
    Raises InvalidInputError when ``cfg.mode`` is ``"stationary"``.
    """
    if cfg.mode == "stationary":
        raise InvalidInputError("run_stream runs modes 'sliding' and 'static', got 'stationary'")
    X, y = stream.X, to_one_class(stream, {TARGET_LABEL})[0].y
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
    predicted = np.empty(len(X) - first, dtype=int)
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
        # the k-th slide happens at the target that completes the k-th chunk
        # after the initial window
        for lo in range(cfg.window, target_pos.size - cfg.chunk + 1, cfg.chunk):
            chunk_pos = target_pos[lo : lo + cfg.chunk]
            flush(int(chunk_pos[-1]) + 1)  # score the chunk-completing sample pre-slide
            # retract factors the forgotten block and writes its downdate, so
            # forget_s holds both; absorb's extend and refit go to train_s
            t = time.perf_counter()
            model.state.retract(cfg.chunk)
            timing["forget_s"] += time.perf_counter() - t
            t = time.perf_counter()
            model.absorb(X[chunk_pos])
            timing["train_s"] += time.perf_counter() - t
    flush(len(X))

    actual = y[first:]
    if actual.size == 0:
        raise InsufficientDataError("no samples left to score after window initialization")
    return _report(actual, predicted, timing, cfg, lam, sigma)


def slide_benchmark(window: int = 1000, chunk: int = 50, dims: int = 2,
                    slides: int = 20, seed: int = 0) -> dict:
    """Median per-slide cost of the incremental path vs full recomputation.

    The incremental side times retract + extend + refit of a boundary model
    at lambda 1e3, sigma 1 and eta 0.05 on standard normal samples; the
    recompute side times rebuilding the regularized Gram of the slid
    window and inverting it densely. Both process identical window contents,
    and each slide is timed back to back with the recompute of its window, so
    that load from other processes weighs on both sides alike.
    """
    for name, value in (("slides", slides), ("window", window), ("chunk", chunk), ("dims", dims)):
        check_int(value, name, 1)
    check_int(seed, "seed", 0)
    if chunk >= window:
        raise InvalidInputError(f"need 0 < chunk < window, got chunk={chunk}, window={window}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((window, dims))
    chunks = [rng.standard_normal((chunk, dims)) for _ in range(slides)]
    lam, kernel = 1e3, KernelSpec(sigma=1.0)

    model = fit_boundary(RegGramState(base, lam, kernel), 0.05)
    win = base.copy()
    inc_times, rec_times = [], []
    for c in chunks:
        t0 = time.perf_counter()
        model.slide(c)
        t1 = time.perf_counter()
        win = np.vstack([win[chunk:], c])
        direct_inverse_oracle(win, lam, kernel)
        rec_times.append(time.perf_counter() - t1)
        inc_times.append(t1 - t0)

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
