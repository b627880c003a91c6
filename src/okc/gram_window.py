"""Sliding-window regularized Gram matrix with exact inverse maintenance.

The state tracked here is ``phi = K(W, W) + (1/lambda) I`` over the current
window ``W`` together with its inverse ``p``. Growing the window appends a
block row/column to ``phi`` and updates ``p`` through the Schur complement of
the new block, so only an s x s matrix is freshly inverted:

    S   = Phi_v - Phi_uv^T p Phi_uv
    P22 = S^-1
    P12 = -p Phi_uv P22
    P11 = p + (p Phi_uv) P22 (p Phi_uv)^T

Shrinking the window (forgetting the oldest f samples) partitions the current
inverse as ``[[Fi11, Fi12], [Fi12^T, Ri22]]`` with ``Fi11`` the leading f x f
block and downdates

    p_new = Ri22 - Fi12^T Fi11^-1 Fi12

again inverting only an f x f matrix. Both identities are checked in the test
suite against ``direct_inverse_oracle``, which rebuilds ``phi`` from scratch
and inverts it densely.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, IllConditionedError, WindowUnderflowError
from .kernel import KernelSpec, gram

# Reject an inversion when norm1(A) * norm1(A^-1) exceeds this.
CONDITION_LIMIT = 1e14

# When enabled, every extend/retract asserts ||phi @ p - I||_max < 1e-6.
# The check is a full matrix product (cubic in window size), so it is kept
# behind a flag instead of a bare assert; tests that exercise the invariant
# flip it on, timing-sensitive paths leave it off.
DEBUG_CHECKS = os.environ.get("OKC_DEBUG_CHECKS", "") == "1"

_inversion_log: list[int] | None = None


@contextmanager
def track_inversions():
    """Record the size of every dense inversion performed inside the block.

    Yields the list of matrix sizes, appended to in call order. Used by tests
    to prove that extend/retract never invert a full window-sized matrix.
    """
    global _inversion_log
    previous = _inversion_log
    _inversion_log = []
    try:
        yield _inversion_log
    finally:
        _inversion_log = previous


def condition_1(a: np.ndarray, inv: np.ndarray) -> float:
    """``norm1(a) * norm1(inv)``: the 1-norm condition number of ``a``, given its inverse."""
    return float(np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())


def _invert(a: np.ndarray, what: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} is singular") from exc
    cond = condition_1(a, inv)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(f"{what} is ill-conditioned (cond_1 estimate {cond:.3e})")
    if _inversion_log is not None:
        _inversion_log.append(a.shape[0])
    return inv


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # phi is symmetric, so p must stay symmetric; this suppresses the
    # asymmetric round-off that otherwise compounds over long streams.
    return (a + a.T) * 0.5


def direct_inverse_oracle(X, lam: float, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Build ``phi = K(X, X) + (1/lam) I`` and invert it densely.

    Reference path used by tests to validate the incremental updates, and by
    the benchmark as the full-recompute baseline.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    phi = gram(kernel, X) + (1.0 / lam) * np.eye(X.shape[0])
    p = _invert(phi, "regularized Gram matrix")
    return phi, p


class RegGramState:
    """Window samples plus ``phi`` and its maintained inverse ``p``.

    The constructor computes both matrices directly; afterwards ``extend`` and
    ``retract`` keep them in sync without any full-size inversion. The state
    is owned by a single writer: both mutators update in place.

    Parameters
    ----------
    X0 : array-like, shape (N0, n)
        Initial window contents, oldest first.
    lam : float
        Regularization parameter lambda; the ridge added to the Gram diagonal
        is 1/lam.
    kernel : KernelSpec
    refresh_interval : int, optional
        If given, every ``refresh_interval`` mutating operations the inverse
        is recomputed from scratch to bound round-off accumulation on very
        long streams. Off by default.
    """

    def __init__(self, X0, lam: float, kernel: KernelSpec, refresh_interval: int | None = None):
        if lam <= 0 or not np.isfinite(lam):
            raise ValueError(f"lam must be a positive finite real, got {lam!r}")
        X0 = np.asarray(X0, dtype=float)
        if X0.ndim == 1:
            X0 = X0.reshape(1, -1)
        if X0.shape[0] < 1:
            raise ValueError("initial window must contain at least one sample")
        self.lam = float(lam)
        self.kernel = kernel
        self.window = X0.copy()
        self.refresh_interval = refresh_interval
        self._ops_since_refresh = 0
        self.phi, self.p = direct_inverse_oracle(self.window, self.lam, self.kernel)
        self._post_op_check()

    @property
    def size(self) -> int:
        return self.window.shape[0]

    def gram_matrix(self) -> np.ndarray:
        """Pure kernel matrix of the window, i.e. ``phi`` without the ridge.

        Off-diagonal entries of ``phi`` are untouched kernel values; the
        diagonal is restored to k(x, x) exactly rather than subtracting the
        ridge back out.
        """
        K = self.phi.copy()
        np.fill_diagonal(K, self.kernel.self_similarity)
        return K

    def extend(self, Xv) -> "RegGramState":
        """Append samples to the window and update ``p`` via the Schur block.

        Only the s x s Schur complement is inverted; the stored inverse plays
        the role of the old block's inverse.
        """
        Xv = np.asarray(Xv, dtype=float)
        if Xv.ndim == 1:
            Xv = Xv.reshape(1, -1)
        s = Xv.shape[0]
        if s == 0:
            return self
        if Xv.shape[1] != self.window.shape[1]:
            raise DimensionError(
                f"chunk has {Xv.shape[1]} features, window has {self.window.shape[1]}"
            )
        h = self.size
        phi_uv = gram(self.kernel, self.window, Xv)  # (h, s)
        phi_v = gram(self.kernel, Xv) + (1.0 / self.lam) * np.eye(s)

        t = self.p @ phi_uv  # (h, s)
        schur = _symmetrize(phi_v - phi_uv.T @ t)
        p22 = _symmetrize(_invert(schur, "Schur complement"))
        w = t @ p22  # (h, s)

        p_new = np.empty((h + s, h + s))
        p_new[:h, :h] = self.p + w @ t.T
        p_new[:h, h:] = -w
        p_new[h:, :h] = -w.T
        p_new[h:, h:] = p22

        phi_new = np.empty((h + s, h + s))
        phi_new[:h, :h] = self.phi
        phi_new[:h, h:] = phi_uv
        phi_new[h:, :h] = phi_uv.T
        phi_new[h:, h:] = phi_v

        self.window = np.vstack([self.window, Xv])
        self.phi = phi_new
        self.p = _symmetrize(p_new)
        self._after_mutation()
        return self

    def retract(self, f: int) -> "RegGramState":
        """Forget the oldest ``f`` samples, downdating ``p`` in place."""
        if not 1 <= f < self.size:
            raise WindowUnderflowError(f"cannot retract {f} of {self.size} window samples")
        fi11 = self.p[:f, :f]
        fi12 = self.p[:f, f:]
        ri22 = self.p[f:, f:]
        fi11_inv = _invert(fi11, "leading inverse block")
        p_new = ri22 - fi12.T @ (fi11_inv @ fi12)

        self.window = self.window[f:].copy()
        self.phi = self.phi[f:, f:].copy()
        self.p = _symmetrize(p_new)
        self._after_mutation()
        return self

    def refresh(self) -> None:
        """Recompute ``p`` (and ``phi``) from the window by direct inversion."""
        self.phi, self.p = direct_inverse_oracle(self.window, self.lam, self.kernel)
        self._ops_since_refresh = 0

    def inverse_residual(self) -> float:
        """``||phi @ p - I||_max``, the maintained-inverse error."""
        return float(np.abs(self.phi @ self.p - np.eye(self.size)).max())

    def _after_mutation(self) -> None:
        self._ops_since_refresh += 1
        if self.refresh_interval is not None and self._ops_since_refresh >= self.refresh_interval:
            self.refresh()
        self._post_op_check()

    def _post_op_check(self) -> None:
        if DEBUG_CHECKS:
            resid = self.inverse_residual()
            assert resid < 1e-6, f"maintained inverse drifted: residual {resid:.3e}"
