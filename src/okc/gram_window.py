"""Sliding-window regularized Gram inverse, maintained exactly.

The state tracked here is the window ``W`` and the inverse ``p`` of its
regularized Gram matrix ``phi = K(W, W) + (1/lambda) I``; ``phi`` itself is
not stored. Growing the window updates ``p`` through the Schur complement of
the new block, built from the kernel values of the new samples against the
window and against each other, so only an s x s matrix is freshly inverted:

    S   = Phi_v - Phi_uv^T p Phi_uv
    P22 = S^-1
    P12 = -p Phi_uv P22
    P11 = p + (p Phi_uv) P22 (p Phi_uv)^T

Shrinking the window (forgetting the oldest f samples) partitions the current
inverse as ``[[Fi11, Fi12], [Fi12^T, Ri22]]`` with ``Fi11`` the leading f x f
block and downdates

    p_new = Ri22 - Fi12^T Fi11^-1 Fi12

again inverting only an f x f matrix. This is the sliding-window kernel RLS
update (Van Vaerenbergh, Via and Santamaria, 2006). The window and ``p`` are
the whole state: ``p`` is never re-inverted from scratch, because its
round-off stays flat over thousands of slides. The test suite checks both
identities, and ``p`` after thousands of slides along a drifting stream,
against ``direct_inverse_oracle``, which builds ``phi`` from the window and
inverts it densely.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, IllConditionedError, InvalidInputError, WindowUnderflowError
from .kernel import KernelSpec, gram

# Reject an inversion when norm1(A) * norm1(A^-1) exceeds this.
CONDITION_LIMIT = 1e14

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
    """Window samples plus the maintained inverse ``p`` of their regularized
    Gram matrix ``phi = K(window, window) + (1/lam) I``.

    The constructor inverts ``phi`` directly; afterwards ``extend`` and
    ``retract`` keep ``p`` in sync with the window without any full-size
    inversion, and ``phi`` is never stored. ``window`` and ``p`` are the
    whole state, and each mutator ends by assigning both. The state is owned
    by a single writer.

    Parameters
    ----------
    X0 : array-like, shape (N0, n)
        Initial window contents, oldest first.
    lam : float
        Regularization parameter lambda; the ridge added to the Gram diagonal
        is 1/lam.
    kernel : KernelSpec

    Raises
    ------
    InvalidInputError
        If ``lam`` is not a positive finite real or ``X0`` holds no sample.
    """

    def __init__(self, X0, lam: float, kernel: KernelSpec):
        if lam <= 0 or not np.isfinite(lam):
            raise InvalidInputError(f"lam must be a positive finite real, got {lam!r}")
        X0 = np.asarray(X0, dtype=float)
        if X0.ndim == 1:
            X0 = X0.reshape(1, -1)
        if X0.shape[0] < 1:
            raise InvalidInputError("initial window must contain at least one sample")
        self.lam = float(lam)
        self.kernel = kernel
        self.window = X0.copy()
        # retract reads only the upper blocks of p, as if p were symmetric; the
        # raw inverse's asymmetry alone left 5e-7 relative error in p after
        # the first slide at W=1000, lambda=1e3, sigma=1 (1.5e-8 symmetrized)
        self.p = _symmetrize(direct_inverse_oracle(self.window, self.lam, self.kernel)[1])

    @property
    def size(self) -> int:
        return self.window.shape[0]

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

        self.window = np.vstack([self.window, Xv])
        self.p = _symmetrize(p_new)
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
        self.p = _symmetrize(p_new)
        return self

    def inverse_residual(self) -> float:
        """``||phi @ p - I||_max``, the maintained-inverse error, with ``phi``
        rebuilt from the window."""
        phi = gram(self.kernel, self.window) + (1.0 / self.lam) * np.eye(self.size)
        return float(np.abs(phi @ self.p - np.eye(self.size)).max())
