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
    P21 = -(z g)^T
    P22 = g^T g

The constructor takes this step from an empty window: with no rows there is
no ``Phi_uv``, ``S`` is ``phi`` itself and ``p = g^T g`` is ``phi``'s inverse
through its Cholesky factor, the stable inverse of a positive definite matrix
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 10). Every
``p`` thus comes from one factorization and one refusal rule: a Cholesky
factor, then ``cond_1 <= CONDITION_LIMIT``. ``S`` is formed and factored in
place, so the first fill peaks at about three W x W arrays.

Shrinking the window (forgetting the oldest f samples) partitions the current
inverse as ``[[Fi11, Fi21^T], [Fi21, Ri22]]`` with ``Fi11`` the leading f x f
block and downdates

    g     = chol(Fi11)^-1,    y = Fi21 g^T
    p_new = Ri22 - Fi21 Fi11^-1 Fi21^T = Ri22 - y y^T

again factoring only an f x f matrix. This is the sliding-window kernel RLS
update (Van Vaerenbergh, Via and Santamaria, 2006).

One triangle. ``p`` is symmetric, and only its lower triangle, diagonal
included, enters any computation; the strict upper triangle of its buffer
holds stale values that no result depends on. The downdate of a forget is not
written at once: the state holds ``p = C - y y^T``, with ``C`` the stored
triangle and ``y`` the downdate factors of every forget since the last write.
The next extension writes ``p`` once, into a spare buffer: copy the kept
block of ``C``, ``syrk`` ``-y y^T`` into its triangle in place, take ``t =
symm(p, Phi_uv)`` from it, form and factor ``S`` where ``P22`` goes, ``syrk``
``+z z^T`` and add the new rows. A slide therefore passes over the W x W
triangle a few times and allocates nothing of that size. The spare buffer
joins the state only after every factorization has passed, so a refused
chunk leaves the state as it was. The BLAS and LAPACK calls come from :mod:`okc._blas`, which binds
NumPy's own OpenBLAS or falls back to NumPy.

The window and ``p`` are the whole state: ``p`` is never re-inverted from
scratch, because its round-off stays flat over thousands of slides. The test
suite checks both identities, and ``p`` after thousands of slides along a
drifting stream, against ``direct_inverse_oracle``, which builds ``phi`` from
the window and inverts it densely by LU.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import _blas
from .errors import IllConditionedError, InvalidInputError, OkcError, WindowUnderflowError, check_int, check_real
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


def _check_condition(cond: float, size: int, what: str) -> None:
    # refuse an inverse whose cond_1 exceeds the limit; log each accepted one
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(f"{what} is ill-conditioned (cond_1 estimate {cond:.3e})")
    if _inversion_log is not None:
        _inversion_log.append(size)


def _regularize(K: np.ndarray, lam: float) -> np.ndarray:
    """``K + (1/lam) I``, written into ``K`` and returned. Off the diagonal
    ``x + 0.0 == x``, so the bits are those of the out-of-place sum."""
    K.flat[:: len(K) + 1] += 1.0 / lam
    return K


def _inverse_factor(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(g, a^-1)`` with ``g = chol(a)^-1`` and ``a^-1 = g.T @ g``, for the
    symmetric ``a`` held in its lower triangle.

    ``g`` is ``a`` itself, factored in place with its strict upper triangle
    zeroed. Refuses ``a`` unless it is positive definite with ``norm1(a)
    norm1(a^-1)`` at most ``CONDITION_LIMIT``.
    """
    # column sums of |a|: the lower triangle's plus the strict lower's row sums
    abs_l = np.abs(np.tril(a))
    norm1 = float((abs_l.sum(axis=0) + abs_l.sum(axis=1) - abs_l.diagonal()).max())
    del abs_l  # W x W on a first fill: freed before the inverse is formed
    try:
        _blas.potrf(a)
        _blas.trtri(a)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} is not positive definite or is ill-conditioned") from exc
    np.copyto(a, 0.0, where=~np.tri(len(a), dtype=bool))
    inv = a.T @ a
    _check_condition(norm1 * float(np.abs(inv).sum(axis=0).max()), len(a), what)
    return a, inv


def direct_inverse_oracle(X, lam: float, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Build ``phi = K(X, X) + (1/lam) I`` and invert it densely by LU.

    Reference path used by tests to validate the incremental updates, and by
    the benchmark as the full-recompute baseline. It refuses ``phi`` when it
    is singular or its ``cond_1`` exceeds ``CONDITION_LIMIT``.
    """
    phi = _regularize(gram(kernel, X), lam)
    what = "regularized Gram matrix"
    try:
        p = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} is singular") from exc
    _check_condition(float(np.abs(phi).sum(axis=0).max() * np.abs(p).sum(axis=0).max()), len(phi), what)
    return phi, p


class RegGramState:
    """Window samples plus the maintained inverse ``p`` of their regularized
    Gram matrix ``phi = K(window, window) + (1/lam) I``.

    The constructor appends ``X0`` to an empty window by ``extend``'s Schur
    step, whose complement is then ``phi`` itself; afterwards ``retract``,
    ``extend`` and ``slide`` keep ``p`` in sync with the window without any
    full-size factorization, and ``phi`` is never stored. ``p`` is held as one
    triangle plus pending downdate factors (module docstring); ``solve``
    applies it, and the ``p`` property builds the full matrix. The state is
    owned by a single writer.

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
    IllConditionedError
        If ``phi`` is not positive definite or its ``cond_1`` exceeds
        ``CONDITION_LIMIT``.
    """

    def __init__(self, X0, lam: float, kernel: KernelSpec):
        self.lam = check_real(lam, "lambda", 0)
        X0 = as_samples(X0)
        if X0.shape[0] < 1:
            raise InvalidInputError("initial window must contain at least one sample")
        self.kernel = kernel
        self.window = X0[:0]
        # p = tril(_c) - _y _y^T; _c is a view into _buf, _y has one column per pending forget
        self._buf = self._spare = self._c = np.zeros((0, 0))
        self._y = np.zeros((0, 0))
        self._append(X0, "regularized Gram matrix")

    @property
    def size(self) -> int:
        return self.window.shape[0]

    @property
    def p(self) -> np.ndarray:
        """The full, exactly symmetric inverse, built afresh from the stored
        triangle: a copy for tests and diagnostics that no update reads."""
        return _blas.full(self._c) - self._y @ self._y.T

    def solve(self, b) -> np.ndarray:
        """``phi^-1 b = p b`` for a vector or a matrix ``b`` with one row per window sample."""
        b = np.asarray(b, dtype=float)
        out = _blas.symm(self._c, b)
        if self._y.shape[1]:
            out -= self._y @ (self._y.T @ b)
        return out

    def extend(self, Xv) -> "RegGramState":
        """Append samples to the window and write ``p`` via the Schur block.

        Only the s x s Schur complement is factored. The new ``p`` is built
        in the spare buffer, which joins the state only once the factor has
        passed, so a refused chunk changes nothing. Any downdate pending from
        ``retract`` is applied in the same pass.
        """
        Xv = as_samples(Xv)
        if Xv.shape[0]:
            self._append(Xv, "Schur complement")
        return self

    def _append(self, Xv: np.ndarray, what: str) -> None:
        # extend's Schur step for s >= 1 samples; ``what`` names S in a refusal.
        # S is formed and factored in its place in the spare buffer, where P22
        # goes; on the empty window (h = 0) S is phi.
        s = Xv.shape[0]
        c, y, h, m = self._c, self._y, self.size, self.size + s
        phi_uv = gram(self.kernel, self.window, Xv)  # (h, s); refuses a chunk of another width

        # reuse the spare buffer unless it is too small or over twice the size
        buf = self._spare if m <= len(self._spare) <= 2 * m else np.zeros((m, m))
        q = buf[:m, :m]
        p11, S = q[:h, :h], q[h:, h:]
        p11[...] = c
        if y.shape[1]:
            _blas.syrk(-1.0, y, p11)  # now p11 = p
        t = _blas.symm(p11, phi_uv)  # (h, s)
        S[...] = gram(self.kernel, Xv)
        _regularize(S, self.lam)
        S -= phi_uv.T @ t
        g, p22 = _inverse_factor(S, what)  # g overwrites S
        z = t @ g.T  # (h, s)
        _blas.syrk(1.0, z, p11)
        q[h:, :h] = (z @ -g).T
        q[h:, h:] = p22

        self._buf, self._spare = buf, self._buf
        self._c, self._y = q, np.zeros((m, 0))
        self.window = np.vstack([self.window, Xv])

    def retract(self, f: int) -> "RegGramState":
        """Forget the oldest ``f`` samples. Their f x f block of ``p`` is
        factored now; the downdate ``-y y^T`` waits for the next write."""
        check_int(f, "f")
        if not 1 <= f < self.size:
            raise WindowUnderflowError(f"cannot retract {f} of {self.size} window samples")
        c, y = self._c, self._y
        lead, below = c[:f, :f].copy(), c[f:, :f]  # the factorization overwrites lead
        if y.shape[1]:  # an earlier forget is still pending
            lead -= y[:f] @ y[:f].T
            below = below - y[f:] @ y[:f].T
        g, _ = _inverse_factor(lead, "leading inverse block")
        y_new = below @ g.T

        self._c = c[f:, f:]
        self._y = np.hstack([y[f:], y_new]) if y.shape[1] else y_new
        self.window = self.window[f:]
        return self

    def slide(self, Xv) -> "RegGramState":
        """Forget as many of the oldest samples as ``Xv`` holds and append
        ``Xv``: ``retract`` then ``extend``, with one write of ``p``. A chunk
        that either refuses leaves the state as it was."""
        Xv = as_samples(Xv)
        if Xv.shape[0] == 0:
            return self
        # retract only reassigns these three and extend writes nothing before it succeeds
        before = self.window, self._c, self._y
        self.retract(Xv.shape[0])
        try:
            self.extend(Xv)
        except OkcError:
            self.window, self._c, self._y = before
            raise
        return self

    def inverse_residual(self) -> float:
        """``||phi @ p - I||_max``, the maintained-inverse error, with ``phi``
        rebuilt from the window."""
        residual = _regularize(gram(self.kernel, self.window), self.lam) @ self.p
        residual.flat[:: self.size + 1] -= 1.0
        return float(np.abs(residual).max())
