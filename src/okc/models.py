"""One-class classifiers over a sliding kernel window.

Two variants share the same machinery: the boundary model regresses every
window sample onto a constant target value and flags samples whose prediction
strays too far from it, while the reconstruction model auto-encodes each
sample and flags large squared reconstruction error. Both derive their
rejection threshold from the distribution of training-sample scores, and both
slide by forgetting the oldest chunk, absorbing the new one, and refitting
weights and threshold on the updated window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .gram_window import RegGramState
from .kernel import KernelSpec, gram

SNAPSHOT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Prediction:
    """Score (distance) and decision for one sample: +1 target, -1 outlier."""

    score: float
    label: int


def rejection_threshold(distances, eta: float) -> float:
    """Threshold below which a score is accepted as target.

    The training distances are sorted in decreasing order and the threshold is
    the floor(eta * N)-th largest (1-based). When floor(eta * N) is 0 the
    maximum distance is used, so no training sample is rejected.
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidInputError(f"eta must lie in (0, 1], got {eta!r}")
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise InvalidInputError("distances must be a non-empty vector")
    ordered = _sort_descending(d)
    k = int(np.floor(eta * d.size))
    return float(ordered[max(k - 1, 0)])


def _sort_descending(d: np.ndarray) -> np.ndarray:
    # stable on the arrival index, so equal distances keep a fixed order and
    # the threshold is deterministic
    return d[np.argsort(-d, kind="stable")]


class _WindowedModel:
    """Behavior common to both classifiers: threshold, decision, sliding."""

    def __init__(self, state: RegGramState, eta: float):
        self.state = state
        self.eta = float(eta)
        self.train_distances: np.ndarray = np.empty(0)
        self.theta: float = 0.0
        self._refit()

    # subclasses fill these in
    def _recompute_weights(self) -> None:
        raise NotImplementedError

    def _training_scores(self) -> np.ndarray:
        raise NotImplementedError

    def scores(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _refit(self) -> None:
        self._recompute_weights()
        d = self._training_scores()
        self.train_distances = _sort_descending(d)
        self.theta = rejection_threshold(d, self.eta)

    def labels_for(self, scores: np.ndarray) -> np.ndarray:
        """+1 where theta - score >= 0, else -1 (ties accept)."""
        return np.where(np.asarray(scores) <= self.theta, 1, -1)

    def decide(self, Z) -> list[Prediction]:
        s = self.scores(Z)
        return [Prediction(float(si), int(li)) for si, li in zip(s, self.labels_for(s))]

    def forget(self, f: int) -> None:
        """Drop the oldest f samples without refitting (half of a slide)."""
        self.state.retract(f)

    def absorb(self, chunk) -> None:
        """Append a chunk and refit weights, training scores and threshold."""
        self.state.extend(chunk)
        self._refit()

    def slide(self, chunk) -> "_WindowedModel":
        """Forget as many samples as the chunk holds, then absorb it."""
        chunk = np.atleast_2d(np.asarray(chunk, dtype=float))
        if chunk.shape[0] == 0:
            return self
        self.forget(chunk.shape[0])
        self.absorb(chunk)
        return self

    def _kernel_rows(self, Z) -> np.ndarray:
        """Kernel values of each query against the window, one row per query."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return gram(self.state.kernel, Z, self.state.window)


class BoundaryModel(_WindowedModel):
    """Single-output model: predict a constant, score by |prediction - constant|."""

    def __init__(self, state: RegGramState, eta: float, target_value: float = 1.0):
        self.target_value = float(target_value)
        self.beta: np.ndarray = np.empty(0)
        super().__init__(state, eta)

    def _recompute_weights(self) -> None:
        targets = np.full(self.state.size, self.target_value)
        self.beta = self.state.p @ targets

    def _training_scores(self) -> np.ndarray:
        predicted = self.state.gram_matrix() @ self.beta
        return np.abs(predicted - self.target_value)

    def scores(self, Z) -> np.ndarray:
        predicted = self._kernel_rows(Z) @ self.beta
        return np.abs(predicted - self.target_value)


class ReconstructionModel(_WindowedModel):
    """Auto-encoding model: score by squared reconstruction error."""

    def __init__(self, state: RegGramState, eta: float):
        self.b_matrix: np.ndarray = np.empty((0, 0))
        super().__init__(state, eta)

    def _recompute_weights(self) -> None:
        self.b_matrix = self.state.p @ self.state.window

    def _training_scores(self) -> np.ndarray:
        reconstructed = self.state.gram_matrix() @ self.b_matrix
        err = self.state.window - reconstructed
        return np.einsum("ij,ij->i", err, err)

    def scores(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        reconstructed = self._kernel_rows(Z) @ self.b_matrix
        err = Z - reconstructed
        return np.einsum("ij,ij->i", err, err)


def fit_boundary(state: RegGramState, eta: float, target_value: float = 1.0) -> BoundaryModel:
    """Fit the boundary classifier on the window currently held by ``state``."""
    return BoundaryModel(state, eta, target_value)


def fit_reconstruction(state: RegGramState, eta: float) -> ReconstructionModel:
    """Fit the reconstruction classifier on the window currently held by ``state``."""
    return ReconstructionModel(state, eta)


def to_snapshot(model: _WindowedModel) -> dict:
    """Serializable snapshot of a fitted model.

    Holds kernel spec, lambda, eta, the window samples and theta; the Gram
    matrix and its inverse are rebuilt on load.
    """
    doc = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "framework": "boundary" if isinstance(model, BoundaryModel) else "reconstruction",
        "kernel": {"kind": model.state.kernel.kind, "sigma": model.state.kernel.sigma},
        "lambda": model.state.lam,
        "eta": model.eta,
        "theta": model.theta,
        "window": model.state.window.tolist(),
    }
    if isinstance(model, BoundaryModel):
        doc["target_value"] = model.target_value
    return doc


_SNAPSHOT_KEYS = ("framework", "kernel", "lambda", "eta", "theta", "window")


def _finite(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"snapshot {name} must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise InvalidInputError(f"snapshot {name} must be finite, got {value!r}")
    return x


def _snapshot_window(rows) -> np.ndarray:
    try:
        window = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError("snapshot window must be a rectangular list of numeric rows") from None
    if window.ndim != 2 or window.size == 0:
        raise InvalidInputError(f"snapshot window must be a non-empty 2-D list, got shape {window.shape}")
    if not np.isfinite(window).all():
        raise InvalidInputError("snapshot window contains NaN or Inf")
    return window


def from_snapshot(doc: dict) -> _WindowedModel:
    """Rebuild a model from :func:`to_snapshot` output.

    Raises
    ------
    InvalidInputError
        If the document is not a version-1 snapshot: a key is missing, the
        kernel is not an object, the window is ragged, empty or non-finite, or
        a scalar is not a finite number.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError(f"snapshot must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise InvalidInputError(f"unsupported snapshot format_version: {version!r}")
    missing = [k for k in _SNAPSHOT_KEYS if k not in doc]
    if missing:
        raise InvalidInputError(f"snapshot lacks {', '.join(missing)}")
    spec = doc["kernel"]
    if not isinstance(spec, dict) or not {"kind", "sigma"} <= spec.keys():
        raise InvalidInputError(f"snapshot kernel must be an object with kind and sigma, got {spec!r}")
    kernel = KernelSpec(spec["kind"], _finite(spec["sigma"], "kernel sigma"))
    lam = _finite(doc["lambda"], "lambda")
    if lam <= 0:
        raise InvalidInputError(f"snapshot lambda must be positive, got {lam!r}")
    eta = _finite(doc["eta"], "eta")
    theta = _finite(doc["theta"], "theta")
    state = RegGramState(_snapshot_window(doc["window"]), lam, kernel)
    if doc["framework"] == "boundary":
        target = _finite(doc.get("target_value", 1.0), "target_value")
        model: _WindowedModel = BoundaryModel(state, eta, target)
    elif doc["framework"] == "reconstruction":
        model = ReconstructionModel(state, eta)
    else:
        raise InvalidInputError(f"unknown framework: {doc['framework']!r}")
    # the stored threshold is authoritative for the snapshot
    model.theta = theta
    return model


def save_model(model: _WindowedModel, path) -> None:
    Path(path).write_text(json.dumps(to_snapshot(model)))


def load_model(path) -> _WindowedModel:
    return from_snapshot(json.loads(Path(path).read_text()))
