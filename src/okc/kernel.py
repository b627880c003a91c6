"""Kernel evaluation and Gram-matrix construction.

Everything downstream (window maintenance, classifiers, model selection)
funnels its kernel arithmetic through this module, so the functions here are
deliberately strict: they validate shapes and reject non-finite input.

Squared distances are accumulated one feature at a time, ``sum_k (x_k -
y_k)^2`` in feature order, which is the arithmetic of
``scipy.spatial.distance.cdist(..., "sqeuclidean")`` and gives the same bits
without importing ``scipy.spatial`` (most of the package's import time). Every
entry depends only on its own pair of rows and ``(a - b)^2 == (b - a)^2``
exactly, so ``gram(X, Y)`` is the exact transpose of ``gram(Y, X)``, a block of
a Gram matrix equals the Gram matrix of the block's rows, and the self-Gram
diagonal is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError, InvalidInputError

RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    """A Mercer kernel. Currently only the Gaussian (RBF) kernel is supported.

    Parameters
    ----------
    kind : str
        Kernel family name. Only ``"rbf"``.
    sigma : float
        Kernel width, in the same units as feature-space distance. Must be > 0.
    """

    kind: str = RBF
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind != RBF:
            raise InvalidInputError(f"unsupported kernel kind: {self.kind!r}")
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise InvalidInputError(f"sigma must be a positive finite real, got {self.sigma!r}")


def _as_matrix(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D sample matrix, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return X


def _squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``d2[i, j] = sum_k (X[i, k] - Y[j, k])^2``, accumulated in feature order."""
    d2 = np.zeros((X.shape[0], Y.shape[0]))
    diff = np.empty_like(d2)
    for k in range(X.shape[1]):
        np.subtract(X[:, k, None], Y[None, :, k], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for two vectors.

    Computed as the 1 x 1 :func:`gram` of the pair, so the two agree bitwise.

    Raises
    ------
    DimensionError
        If ``x`` and ``y`` differ in length.
    InvalidInputError
        If either vector contains NaN/Inf.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"vector lengths differ: {x.shape[0]} vs {y.shape[0]}")
    return float(gram(spec, x, y)[0, 0])


def gram(spec: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(X_i, Y_j).

    With ``Y`` omitted (or equal to ``X``) the result is exactly symmetric
    with an exact unit diagonal.

    Raises
    ------
    DimensionError
        If ``X`` and ``Y`` disagree on feature dimension.
    """
    X = _as_matrix(X, "X")
    if Y is None:
        Y = X
    else:
        Y = _as_matrix(Y, "Y")
        if X.shape[1] != Y.shape[1]:
            raise DimensionError(
                f"feature dimensions differ: X has {X.shape[1]}, Y has {Y.shape[1]}"
            )
    # exp(-d2 / (2 sigma^2)) in place; negation is exact, so the bits match
    # the out-of-place expression
    k = _squared_distances(X, Y)
    np.negative(k, out=k)
    k /= 2.0 * spec.sigma**2
    return np.exp(k, out=k)


def pairwise_distance_range(X) -> tuple[float, float]:
    """Smallest strictly positive and largest pairwise Euclidean distance.

    Zero distances (duplicated rows) are excluded so the returned minimum is
    always usable as a kernel width.

    Raises
    ------
    DegenerateDataError
        If ``X`` has fewer than two rows or all rows are identical.
    """
    X = _as_matrix(X, "X")
    if X.shape[0] < 2:
        raise DegenerateDataError("need at least 2 samples to measure pairwise distances")
    d2 = _squared_distances(X, X)
    d2 = d2[d2 > 0.0]  # drops the diagonal and duplicated rows
    if d2.size == 0:
        raise DegenerateDataError("all samples are identical; pairwise distances are all zero")
    return float(np.sqrt(d2.min())), float(np.sqrt(d2.max()))
