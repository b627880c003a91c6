"""One-class classifiers over a sliding kernel window.

Both frameworks solve one regularized kernel regression of the window onto
its targets, and differ only in the targets and in how a residual is scored.
A framework is a :data:`MODELS` class with three attributes:

- ``targets(X)``: what each row is regressed onto. The boundary model
  regresses every row onto the constant 1; the reconstruction model regresses
  each row onto itself.
- ``score(r)``: the outlier score of a residual ``r``: ``|r|`` for boundary,
  the squared error ``||r||^2`` for reconstruction.
- ``power``: the degree of ``score``, ``score(r / lambda) = score(r) /
  lambda**power`` (1 and 2).

With ``phi = K + I / lambda`` and ``p = phi^-1`` the weights are ``beta = p
targets(window)``, and a query ``z`` scores ``score(targets(z) - k(z) beta)``.
The training scores need no kernel matrix: ``phi beta = targets`` gives
``targets - K beta = beta / lambda``, so a window row scores ``score(beta_i) /
lambda**power``, which also keeps the digits that the subtractive form loses
when ``beta`` is large. :func:`okc.selection.select` scores its folds with the
same three attributes. Equal rows have exactly equal scores, so every copy of
a window row takes the score of its first copy (:func:`first_copies`).

Both reject a score above the floor(eta * N)-th largest training score
(:func:`rejection_threshold`, also used by :func:`okc.selection.select`), so
queries are decided by ``labels_for(scores(Z))``, and both slide by forgetting
the oldest chunk, absorbing the new one, and refitting weights and threshold.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, check_real
from .gram_window import RegGramState
from .kernel import RBF, KernelSpec, as_samples, gram

SNAPSHOT_FORMAT_VERSION = 1


def check_eta(eta) -> float:
    """``eta``, the fraction of training scores a model rejects, as a float in (0, 1]."""
    return check_real(eta, "eta", 0, 1, high_open=False)


def rejection_threshold(distances, eta: float) -> float | np.ndarray:
    """Threshold below which a score is accepted as target.

    The threshold is the floor(eta * N)-th largest (1-based) of the N training
    distances. When floor(eta * N) is 0 the maximum distance is used, so no
    training sample is rejected. A vector gives a float; an (N, L) matrix
    gives the L thresholds of its columns.
    """
    eta = check_eta(eta)
    d = np.asarray(distances, dtype=float)
    if d.ndim not in (1, 2) or d.size == 0:
        raise InvalidInputError("distances must be a non-empty vector or matrix")
    n = d.shape[0]
    k = max(int(np.floor(eta * n)), 1)
    # the k-th largest is the (n - k)-th smallest, 0-based
    theta = np.partition(d, n - k, axis=0)[n - k]
    return float(theta) if d.ndim == 1 else theta


def first_copies(rows: np.ndarray) -> np.ndarray:
    """Index of the first row of ``rows`` equal to each row."""
    # one opaque item per row, so that equal rows are equal items; adding 0.0
    # turns -0.0 into 0.0, the one pair of equal floats with different bytes
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0
    items = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, row_id = np.unique(items, return_index=True, return_inverse=True)
    return first[row_id]


class _WindowedModel:
    """Behavior common to both classifiers: weights, scores, threshold,
    decision and sliding. A subclass is its framework: ``targets``, ``score``
    and ``power`` (module docstring). ``beta = p targets(window)`` holds the
    output weights, one entry or row per window sample."""

    framework: str  # the key of the class in MODELS
    power: int  # score(r / lambda) == score(r) / lambda**power

    @staticmethod
    def targets(X: np.ndarray) -> np.ndarray:
        """What each row of ``X`` is regressed onto: one entry or row per row."""
        raise NotImplementedError

    @staticmethod
    def score(residuals: np.ndarray) -> np.ndarray:
        """Outlier score of each residual. A vector target's own last axis is
        reduced and leading axes are kept, so that every lambda of a search is
        scored at once."""
        raise NotImplementedError

    def __init__(self, state: RegGramState, eta: float):
        self.state = state
        self.eta = check_eta(eta)
        self._refit()

    def _training_scores(self) -> np.ndarray:
        return self.score(self.beta) / self.state.lam**self.power

    def scores(self, Z) -> np.ndarray:
        """Outlier score of each query row: its residual ``targets(z) - k(z) beta``, scored."""
        Z = as_samples(Z)
        return self.score(self.targets(Z) - gram(self.state.kernel, Z, self.state.window) @ self.beta)

    def _refit(self) -> None:
        self.beta = self.state.solve(self.targets(self.state.window))
        d = self._training_scores()[first_copies(self.state.window)]
        self.train_distances = np.sort(d)[::-1]
        self.theta = rejection_threshold(self.train_distances, self.eta)

    def labels_for(self, scores: np.ndarray) -> np.ndarray:
        """+1 where theta - score >= 0, else -1 (ties accept)."""
        return np.where(np.asarray(scores) <= self.theta, 1, -1)

    def absorb(self, chunk) -> None:
        """Append a chunk and refit weights, training scores and threshold."""
        self.state.extend(chunk)
        self._refit()

    def slide(self, chunk) -> "_WindowedModel":
        """Forget as many samples as the chunk holds and absorb it, in one
        update of the state (:meth:`RegGramState.slide`), then refit. A
        refused chunk leaves the model as it was."""
        self.state.slide(chunk)
        self._refit()
        return self


class BoundaryModel(_WindowedModel):
    """Single-output model: regress onto the constant 1, score by |1 - prediction|."""

    framework = "boundary"
    power = 1
    score = staticmethod(np.abs)

    @staticmethod
    def targets(X: np.ndarray) -> np.ndarray:
        return np.ones(len(X))


class ReconstructionModel(_WindowedModel):
    """Auto-encoding model: regress each sample onto itself, score by squared
    reconstruction error."""

    framework = "reconstruction"
    power = 2

    @staticmethod
    def targets(X: np.ndarray) -> np.ndarray:
        return X

    @staticmethod
    def score(residuals: np.ndarray) -> np.ndarray:
        return np.einsum("...k,...k->...", residuals, residuals)


MODELS: dict[str, type[_WindowedModel]] = {m.framework: m for m in (BoundaryModel, ReconstructionModel)}
FRAMEWORKS = tuple(MODELS)


def fit_boundary(state: RegGramState, eta: float) -> BoundaryModel:
    """Fit the boundary classifier on the window currently held by ``state``."""
    return BoundaryModel(state, eta)


def fit_reconstruction(state: RegGramState, eta: float) -> ReconstructionModel:
    """Fit the reconstruction classifier on the window currently held by ``state``."""
    return ReconstructionModel(state, eta)


def to_snapshot(model: _WindowedModel) -> dict:
    """Serializable snapshot of a fitted model.

    Holds kernel spec, lambda, eta, the window samples and theta; the inverse
    of the regularized Gram matrix is recomputed from the window on load.
    """
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "framework": model.framework,
        "kernel": {"kind": RBF, "sigma": model.state.kernel.sigma},
        "lambda": model.state.lam,
        "eta": model.eta,
        "theta": model.theta,
        "window": model.state.window.tolist(),
    }


_SNAPSHOT_KEYS = ("framework", "kernel", "lambda", "eta", "theta", "window")


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
        kernel is not an object, the window is ragged, empty or non-finite,
        theta is not a finite number, the framework or kernel kind is unknown,
        or an older document's ``target_value`` is not 1 (its theta has
        another scale); or if the constructors refuse sigma, lambda or eta.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError(f"snapshot must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise InvalidInputError(f"unsupported snapshot format_version: {version!r}")
    missing = [k for k in _SNAPSHOT_KEYS if k not in doc]
    if missing:
        raise InvalidInputError(f"snapshot lacks {', '.join(missing)}")
    if doc["framework"] not in FRAMEWORKS:
        raise InvalidInputError(f"unknown framework: {doc['framework']!r}")
    if doc.get("target_value", 1.0) != 1.0:
        raise InvalidInputError(f"snapshot target_value must be 1, got {doc['target_value']!r}")
    spec = doc["kernel"]
    if not isinstance(spec, dict) or not {"kind", "sigma"} <= spec.keys():
        raise InvalidInputError(f"snapshot kernel must be an object with kind and sigma, got {spec!r}")
    if spec["kind"] != RBF:
        raise InvalidInputError(f"unsupported kernel kind: {spec['kind']!r}")
    theta = check_real(doc["theta"], "theta")
    state = RegGramState(_snapshot_window(doc["window"]), doc["lambda"], KernelSpec(spec["sigma"]))
    model = MODELS[doc["framework"]](state, doc["eta"])
    # the stored threshold is authoritative for the snapshot
    model.theta = theta
    return model


def save_model(model: _WindowedModel, path) -> None:
    Path(path).write_text(json.dumps(to_snapshot(model)))


def load_model(path) -> _WindowedModel:
    """Read a :func:`save_model` file; InvalidInputError names a file that is not JSON."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path} is not a JSON snapshot: {exc}") from None
    return from_snapshot(doc)
