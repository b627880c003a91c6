"""Sliding-window regularized Gram inverse, maintained exactly.

The state tracked here is the window ``W`` and the inverse ``p`` of its
regularized Gram matrix ``phi = K(W, W) + (1/lambda) I``; ``phi`` itself is
not stored. Growing the window updates ``p`` through the Schur complement of
the new block, built from the kernel values of the new samples against the
window and against each other, so only an s x s matrix is freshly factored.
With ``t = p Phi_uv`` and ``g`` the inverse of the Cholesky factor of ``S``:

    S   = Phi_v - Phi_uv^T t,    g = chol(S)^-1,    S^-1 = g^T g
    z   = t g^T
    P11 = p + z z^T
    P12 = -z g
    P22 = g^T g

Shrinking the window (forgetting the oldest f samples) partitions the current
inverse as ``[[Fi11, Fi12], [Fi12^T, Ri22]]`` with ``Fi11`` the leading f x f
block and downdates

    g     = chol(Fi11)^-1,    y = g Fi12
    p_new = Ri22 - Fi12^T Fi11^-1 Fi12 = Ri22 - y^T y

again factoring only an f x f matrix. This is the sliding-window kernel RLS
update (Van Vaerenbergh, Via and Santamaria, 2006). Every rank update has
the form ``A A^T`` or ``A^T A`` of one array, which NumPy evaluates with
``syrk`` and mirrors, so it is exactly symmetric; adding it to a symmetric
block keeps ``p`` exactly symmetric without a symmetrizing pass. The
factorizations also refuse a block that is not positive definite, although
in exact arithmetic every leading block of ``p`` and every Schur complement
is.

The window and ``p`` are the whole state: ``p`` is never re-inverted from
scratch, because its round-off stays flat over thousands of slides. The test
suite checks both identities, and ``p`` after thousands of slides along a
drifting stream, against ``direct_inverse_oracle``, which builds ``phi`` from
the window and inverts it densely.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager

import numpy as np

from .errors import IllConditionedError, InvalidInputError, WindowUnderflowError
from .kernel import KernelSpec, as_samples, gram

# Reject an inversion when norm1(A) * norm1(A^-1) exceeds this.
CONDITION_LIMIT = 1e14

_inversion_log: list[int] | None = None


@contextmanager
def track_inversions():
    """Record the size of every matrix inverted or factored inside the block.

    Yields the list of matrix sizes, appended to in call order. Used by tests
    to prove that extend/retract never factor a full window-sized matrix.
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
    _check_condition(a, inv, what)
    return inv


def _check_condition(a: np.ndarray, inv: np.ndarray, what: str) -> None:
    # refuse an inverse whose cond_1 exceeds the limit; log each accepted one
    cond = condition_1(a, inv)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(f"{what} is ill-conditioned (cond_1 estimate {cond:.3e})")
    if _inversion_log is not None:
        _inversion_log.append(a.shape[0])


def _inverse_cholesky(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``g = chol(a)^-1`` and ``a^-1 = g.T @ g``, checked as ``_invert`` checks.

    With ``a = L L^T``, the Cholesky factor of the bordered matrix
    ``[[a, I], [I, c I]]`` is ``[[L, 0], [L^-T, chol(c I - a^-1)]]``, so one
    factorization yields ``g = L^-1``, at less cost than inverting ``L``
    after factoring ``a``. The trailing block only has to be positive
    definite. ``c = 2 CONDITION_LIMIT / norm1(a)`` makes it so for every
    ``a`` the condition rule accepts, since ``norm2(a^-1) <= norm1(a^-1)``.
    It also keeps ``c`` near the scale of ``a^-1``: with ``c = 1e300`` the
    discarded trailing factor divides small products by ``c`` into subnormal
    range, and the W=150 stream ran a fifth slower.
    """
    n = a.shape[0]
    bordered = np.zeros((2 * n, 2 * n))
    bordered[:n, :n] = a
    diag = np.arange(n)
    bordered[n + diag, diag] = 1.0
    bordered[n + diag, n + diag] = 2.0 * CONDITION_LIMIT / np.abs(a).sum(axis=0).max()
    try:
        g = np.linalg.cholesky(bordered)[n:, :n].T
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} is not positive definite or is ill-conditioned") from exc
    inv = g.T @ g
    _check_condition(a, inv, what)
    return g, inv


def direct_inverse_oracle(X, lam: float, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Build ``phi = K(X, X) + (1/lam) I`` and invert it densely.

    Reference path used by tests to validate the incremental updates, and by
    the benchmark as the full-recompute baseline.
    """
    K = gram(kernel, X)
    phi = K + (1.0 / lam) * np.eye(K.shape[0])
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
        X0 = as_samples(X0)
        if X0.shape[0] < 1:
            raise InvalidInputError("initial window must contain at least one sample")
        self.lam = float(lam)
        self.kernel = kernel
        self.window = X0.copy()
        # retract reads only the upper blocks of p, as if p were symmetric; the
        # raw inverse's asymmetry alone left 5e-7 relative error in p after
        # the first slide at W=1000, lambda=1e3, sigma=1 (1.5e-8 symmetrized)
        p = direct_inverse_oracle(self.window, self.lam, self.kernel)[1]
        self.p = (p + p.T) * 0.5

    @property
    def size(self) -> int:
        return self.window.shape[0]

    def extend(self, Xv) -> "RegGramState":
        """Append samples to the window and update ``p`` via the Schur block.

        Only the s x s Schur complement is factored; the stored inverse plays
        the role of the old block's inverse.
        """
        Xv = as_samples(Xv)
        s = Xv.shape[0]
        if s == 0:
            return self
        h = self.size
        phi_uv = gram(self.kernel, self.window, Xv)  # (h, s); refuses a chunk of another width
        phi_v = gram(self.kernel, Xv) + (1.0 / self.lam) * np.eye(s)

        t = self.p @ phi_uv  # (h, s)
        # the Cholesky factor reads only the lower triangle of S
        g, p22 = _inverse_cholesky(phi_v - phi_uv.T @ t, "Schur complement")
        z = t @ g.T  # (h, s)

        p_new = np.empty((h + s, h + s))
        p11 = p_new[:h, :h]
        np.matmul(z, z.T, out=p11)
        p11 += self.p
        np.matmul(z, -g, out=p_new[:h, h:])
        p_new[h:, :h] = p_new[:h, h:].T
        p_new[h:, h:] = p22

        self.window = np.vstack([self.window, Xv])
        self.p = p_new
        return self

    def retract(self, f: int) -> "RegGramState":
        """Forget the oldest ``f`` samples, downdating ``p``."""
        if not isinstance(f, numbers.Integral) or isinstance(f, bool):
            raise InvalidInputError(f"retract takes a whole number of samples, got {f!r}")
        if not 1 <= f < self.size:
            raise WindowUnderflowError(f"cannot retract {f} of {self.size} window samples")
        g, _ = _inverse_cholesky(self.p[:f, :f], "leading inverse block")
        y = g @ self.p[:f, f:]
        p_new = y.T @ y
        np.subtract(self.p[f:, f:], p_new, out=p_new)

        self.window = self.window[f:].copy()
        self.p = p_new
        return self

    def inverse_residual(self) -> float:
        """``||phi @ p - I||_max``, the maintained-inverse error, with ``phi``
        rebuilt from the window."""
        phi = gram(self.kernel, self.window) + (1.0 / self.lam) * np.eye(self.size)
        return float(np.abs(phi @ self.p - np.eye(self.size)).max())
