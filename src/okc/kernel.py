"""Kernel evaluation and Gram-matrix construction.

Everything downstream (window maintenance, classifiers, model selection)
funnels its kernel arithmetic and its sample input (:func:`as_samples`) through
this module, so the functions here are deliberately strict: they validate
shapes and reject ragged, non-numeric and non-finite input.

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

from .errors import DegenerateDataError, DimensionError, InvalidInputError, check_real

RBF = "rbf"  # the kernel's name in model snapshots
# entries per row block of _squared_distances (512 KiB): a 1000 x 50 slide call is one block
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """The Gaussian (RBF) kernel.

    Parameters
    ----------
    sigma : float
        Kernel width, in the same units as feature-space distance. Must be > 0.
    """

    sigma: float = 1.0

    def __post_init__(self):
        super().__setattr__("sigma", check_real(self.sigma, "sigma", 0))


def as_samples(X, name: str = "X") -> np.ndarray:
    """``X`` as an (n, d) float sample matrix; a 1-D vector is one sample.

    Every entry point that takes samples reads them here, directly or through
    :func:`gram`. Ragged, non-numeric or non-finite input raises
    InvalidInputError; more than two dimensions or no feature column,
    DimensionError.
    """
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a rectangular array of numbers") from None
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D sample matrix, got ndim={X.ndim}")
    if X.shape[1] == 0:
        raise DimensionError(f"{name} has no feature column")
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return X


def _squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``d2[i, j] = sum_k (X[i, k] - Y[j, k])^2``, accumulated in feature order."""
    d2 = np.zeros((X.shape[0], Y.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // max(1, Y.shape[0]))  # the scratch is one block, not a matrix
    for lo in range(0, X.shape[0], rows):
        block = d2[lo : lo + rows]
        diff = np.empty_like(block)
        for k in range(X.shape[1]):
            np.subtract(X[lo : lo + rows, k, None], Y[None, :, k], out=diff)
            np.multiply(diff, diff, out=diff)
            block += diff
    return d2


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for two samples.

    Computed as the 1 x 1 :func:`gram` of the pair, so the two agree bitwise.

    Raises
    ------
    DimensionError
        If ``x`` or ``y`` is not one sample, or they differ in length.
    InvalidInputError
        If either is ragged or non-numeric, or contains NaN/Inf.
    """
    k = gram(spec, x, y)
    if k.shape != (1, 1):
        raise DimensionError(f"eval_kernel takes one sample each, got {k.shape[0]} and {k.shape[1]}")
    return float(k[0, 0])


def gram(spec: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(X_i, Y_j).

    With ``Y`` omitted (or equal to ``X``) the result is exactly symmetric
    with an exact unit diagonal.

    Raises
    ------
    DimensionError
        If ``X`` and ``Y`` disagree on feature dimension.
    InvalidInputError
        If either is not a finite numeric sample matrix (:func:`as_samples`).
    """
    X = as_samples(X)
    if Y is None:
        Y = X
    else:
        Y = as_samples(Y, "Y")
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
    X = as_samples(X)
    if X.shape[0] < 2:
        raise DegenerateDataError("need at least 2 samples to measure pairwise distances")
    d2 = _squared_distances(X, X)
    d2_max = d2.max()
    if d2_max == 0.0:
        raise DegenerateDataError("all samples are identical; pairwise distances are all zero")
    # the positive entries leave out the diagonal and duplicated rows
    d2_min = np.min(d2, where=d2 > 0.0, initial=np.inf)
    return float(np.sqrt(d2_min)), float(np.sqrt(d2_max))
