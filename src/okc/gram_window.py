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
holds stale values that no result depends on. ``p`` is the top-left corner of
the state's buffer. A forget writes its downdate at once, into a spare buffer
with room for the window as it was: copy the kept block of ``p`` to its
top-left corner, ``syrk`` ``-y y^T`` into its triangle and swap the buffers.
An extension then works in place: take ``t = symm(p, Phi_uv)``, form and
factor ``S`` in the rows below ``p``, where ``P22`` goes, and only once the
factor has passed ``syrk`` ``+z z^T`` into ``p`` and write the new rows. It
moves to a fresh buffer only when the buffer has no room for them. A slide
therefore passes over the W x W triangle a few times and allocates nothing of
that size; its forget wrote only into the spare, so a refused chunk leaves
the state as it was. The BLAS and LAPACK calls come from :mod:`okc._blas`,
which binds NumPy's own OpenBLAS or falls back to NumPy.

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
    full-size factorization, and ``phi`` is never stored. ``p`` is one triangle
    in a buffer, and a forget writes into a spare one (module docstring);
    ``solve`` applies it, and the ``p`` property builds the full matrix. The
    state is owned by a single writer.

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
        # p is the lower triangle of _buf[:size, :size]; a forget writes into _spare
        self._buf = self._spare = np.zeros((0, 0))
        self._append(X0, "regularized Gram matrix")

    @property
    def size(self) -> int:
        return self.window.shape[0]

    @property
    def p(self) -> np.ndarray:
        """The full, exactly symmetric inverse, built afresh from the stored
        triangle: a copy for tests and diagnostics that no update reads."""
        return _blas.full(self._buf[: self.size, : self.size])

    def solve(self, b) -> np.ndarray:
        """``phi^-1 b = p b`` for a vector or a matrix ``b`` with one row per window sample."""
        return _blas.symm(self._buf[: self.size, : self.size], np.asarray(b, dtype=float))

    def extend(self, Xv) -> "RegGramState":
        """Append samples to the window and write ``p`` via the Schur block.

        Only the s x s Schur complement is factored, in the rows below ``p``;
        ``p`` and the new rows are written only once the factor has passed,
        so a refused chunk changes nothing.
        """
        Xv = as_samples(Xv)
        if Xv.shape[0]:
            self._append(Xv, "Schur complement")
        return self

    def _append(self, Xv: np.ndarray, what: str) -> None:
        # extend's Schur step for s >= 1 samples; ``what`` names S in a refusal.
        # S is formed and factored in its place in the buffer, where P22 goes;
        # on the empty window (h = 0) S is phi.
        h, m = self.size, self.size + Xv.shape[0]
        phi_uv = gram(self.kernel, self.window, Xv)  # (h, s); refuses a chunk of another width

        buf = self._buf
        if len(buf) < m:  # no room for the new rows: move p to a fresh buffer
            buf = np.zeros((m, m))
            buf[:h, :h] = self._buf[:h, :h]
        q = buf[:m, :m]
        p11, S = q[:h, :h], q[h:, h:]
        t = _blas.symm(p11, phi_uv)  # (h, s)
        S[...] = gram(self.kernel, Xv)
        _regularize(S, self.lam)
        S -= phi_uv.T @ t
        g, p22 = _inverse_factor(S, what)  # g overwrites S
        z = t @ g.T  # (h, s)
        _blas.syrk(1.0, z, p11)
        q[h:, :h] = (z @ -g).T
        q[h:, h:] = p22

        self._buf = buf
        self.window = np.vstack([self.window, Xv])

    def retract(self, f: int) -> "RegGramState":
        """Forget the oldest ``f`` samples. Their f x f block of ``p`` is
        factored, and the downdated ``p`` is written into the spare buffer,
        which then becomes the state's."""
        check_int(f, "f")
        h = self.size
        if not 1 <= f < h:
            raise WindowUnderflowError(f"cannot retract {f} of {h} window samples")
        p = self._buf[:h, :h]
        g, _ = _inverse_factor(p[:f, :f].copy(), "leading inverse block")  # factored in place: a copy
        y = p[f:, :f] @ g.T
        # the spare keeps room for the window as it was, so a slide's extend fits
        spare = self._spare if len(self._spare) >= h else np.zeros((h, h))
        kept = spare[: h - f, : h - f]
        kept[...] = p[f:, f:]
        _blas.syrk(-1.0, y, kept)
        self._buf, self._spare = spare, self._buf
        self.window = self.window[f:]
        return self

    def slide(self, Xv) -> "RegGramState":
        """Forget as many of the oldest samples as ``Xv`` holds and append
        ``Xv``: ``retract`` then ``extend``. A chunk that either refuses
        leaves the state as it was."""
        Xv = as_samples(Xv)
        if Xv.shape[0] == 0:
            return self
        # retract writes only into the spare and extend nothing of p before it succeeds
        before = self.window, self._buf, self._spare
        self.retract(Xv.shape[0])
        try:
            self.extend(Xv)
        except OkcError:
            self.window, self._buf, self._spare = before
            raise
        return self

    def inverse_residual(self) -> float:
        """``||phi @ p - I||_max``, the maintained-inverse error, with ``phi``
        rebuilt from the window."""
        residual = _regularize(gram(self.kernel, self.window), self.lam) @ self.p
        residual.flat[:: self.size + 1] -= 1.0
        return float(np.abs(residual).max())
