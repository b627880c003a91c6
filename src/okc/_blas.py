"""BLAS and LAPACK primitives on one triangle of a matrix.

``syrk``, ``symm`` (``dsymv`` for a vector, ``dsymm`` for a matrix), ``potrf``
and ``trtri`` work in place. ``sytrd`` reduces a symmetric matrix to a
tridiagonal one, ``A = Q T Q^T``, ``ormtr`` applies its ``Q``, and ``ptsv``
solves a positive definite tridiagonal system. All are bound through ctypes
from the OpenBLAS that NumPy itself loaded: its wheels bundle one, with 64-bit
integers, under ``numpy.libs`` (``numpy/.dylibs`` on macOS). The file is
opened with ``RTLD_NOLOAD``, which returns a handle only to a library already
mapped into the process, so this module never loads a second BLAS;
``OPENBLAS_NUM_THREADS`` governs these calls as it governs NumPy's own. The
primitives are bound all from that library or none: where any of its symbols
is not found (an MKL or Accelerate NumPy, a 32-bit-integer OpenBLAS, a
platform without ``RTLD_NOLOAD``), every primitive is a NumPy expression with
the same contract, listed in ``FALLBACKS``. ``LIBRARY`` is the bound file, or
None.

Matrices are float64 and row-major with unit column stride; an output may be a
strided view into a larger buffer. A symmetric or triangular matrix is its
lower triangle, diagonal included: no primitive reads or uses the strict
upper triangle of such a matrix, and only ``syrk``'s fallback writes there.
``sytrd`` and ``ormtr`` form a pair: ``Q`` is held in a form only ``ormtr``
reads, Householder reflectors on the LAPACK path and the explicit orthogonal
matrix on the fallback, which is ``eigh``: an eigendecomposition is a
tridiagonalization with a zero off-diagonal and ``Q`` the eigenvectors.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

_ROW_MAJOR, _COL_MAJOR = 101, 102  # CBLAS_ORDER and LAPACK_ROW_MAJOR / LAPACK_COL_MAJOR
_NO_TRANS, _LOWER, _LEFT = 111, 122, 141

_int, _ptr, _double, _enum, _char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_char
_SIGNATURES = {
    "cblas_dsyrk": (None, [_enum, _enum, _enum, _int, _int, _double, _ptr, _int, _double, _ptr, _int]),
    "cblas_dsymm": (None, [_enum, _enum, _enum, _int, _int, _double, _ptr, _int, _ptr, _int, _double,
                           _ptr, _int]),
    "cblas_dsymv": (None, [_enum, _enum, _int, _double, _ptr, _int, _ptr, _int, _double, _ptr, _int]),
    "LAPACKE_dpotrf": (_int, [_enum, _char, _int, _ptr, _int]),
    "LAPACKE_dtrtri": (_int, [_enum, _char, _char, _int, _ptr, _int]),
    "LAPACKE_dsytrd": (_int, [_enum, _char, _int, _ptr, _int, _ptr, _ptr, _ptr]),
    "LAPACKE_dormtr": (_int, [_enum, _char, _char, _char, _int, _int, _ptr, _int, _ptr, _ptr, _int]),
    "LAPACKE_dptsv": (_int, [_enum, _int, _int, _ptr, _ptr, _ptr, _int]),
}


def full(a: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle ``a`` holds, as a new array."""
    return np.where(np.tri(len(a), dtype=bool), a, a.T)


def _syrk_numpy(alpha: float, a: np.ndarray, c: np.ndarray) -> None:
    """``lower(c) += alpha * a @ a.T``, in place."""
    # a copied operand makes NumPy run gemm, not its syrk, which mirrors slowly
    product = a @ a.T.copy()
    product *= alpha
    c += product  # the upper triangle too: writing it costs less than masking it out


def _symm_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for the symmetric ``a`` held in its lower triangle and a vector
    or matrix ``b``, as a new array."""
    return full(a) @ b


def _potrf_numpy(a: np.ndarray) -> None:
    """In place, ``lower(a)`` becomes ``L`` with ``a = L L^T``; raises
    LinAlgError unless ``a`` is positive definite."""
    np.copyto(a, np.linalg.cholesky(full(a)), where=np.tri(len(a), dtype=bool))


def _trtri_numpy(a: np.ndarray) -> None:
    """In place, the lower triangular ``lower(a)`` becomes its inverse; raises
    LinAlgError if it is singular."""
    np.copyto(a, np.linalg.inv(np.tril(a)), where=np.tri(len(a), dtype=bool))


def _sytrd_numpy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, e, q)`` with ``a = Q T Q^T``, ``T`` the symmetric tridiagonal
    matrix of diagonal ``d`` and off-diagonal ``e``, and ``Q`` orthogonal and
    held in ``q`` for :func:`ormtr`; ``a`` is left as it was."""
    d, q = np.linalg.eigh(full(a))
    return d, np.zeros(max(len(d) - 1, 0)), q


def _ormtr_numpy(q, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``Q @ b``, or ``Q.T @ b`` with ``transpose``, for the ``q`` of
    :func:`sytrd` and a matrix ``b``, as a new array."""
    return (q.T if transpose else q) @ b


def _ptsv_numpy(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``T x = b`` for the symmetric tridiagonal ``T`` of diagonal
    ``d`` and off-diagonal ``e`` and a vector or matrix ``b``, as a new array;
    raises LinAlgError unless the pivots of ``T = L D L^T`` are positive."""
    if not e.any():  # diagonal: the pivots are d
        if not (d > 0).all():
            raise np.linalg.LinAlgError("non-positive pivot")
        return b / (d if b.ndim == 1 else d[:, None])
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    np.linalg.cholesky(t)  # raises LinAlgError unless positive definite
    return np.linalg.solve(t, b)


FALLBACKS = {"syrk": _syrk_numpy, "symm": _symm_numpy, "potrf": _potrf_numpy, "trtri": _trtri_numpy,
             "sytrd": _sytrd_numpy, "ormtr": _ormtr_numpy, "ptsv": _ptsv_numpy}


def _ld(a: np.ndarray) -> int:
    # row stride in elements; BLAS needs unit column stride. An empty array's
    # strides are arbitrary (NumPy gives zeros((0, s)) zero strides) and unread.
    rows, cols = a.strides
    if a.dtype != np.float64 or a.size and (cols != 8 and a.shape[1] > 1 or rows % 8):
        raise ValueError("BLAS operands must be float64 with unit column stride")
    return max(rows // 8, a.shape[1], 1)


def _bind():
    """``(path, {name: function})`` for the NumPy-mapped OpenBLAS, or ``(None,
    {})`` unless it has every symbol of ``_SIGNATURES``."""
    no_load = getattr(os, "RTLD_NOLOAD", None)
    if no_load is None:
        return None, {}
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path), mode=no_load)
        except OSError:
            continue  # not the library this NumPy mapped
        found = {}
        for name, (restype, argtypes) in _SIGNATURES.items():
            for symbol in (f"scipy_{name}64_", f"{name}64_"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, argtypes
                    found[name] = fn
                    break
        if found.keys() == _SIGNATURES.keys():
            return str(path), found
    return None, {}


LIBRARY, _native = _bind()


def _syrk_blas(alpha: float, a: np.ndarray, c: np.ndarray) -> None:
    n, k = a.shape
    _native["cblas_dsyrk"](_ROW_MAJOR, _LOWER, _NO_TRANS, n, k, alpha, a.ctypes.data, _ld(a), 1.0,
                           c.ctypes.data, _ld(c))


def _symm_blas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(b, dtype=float)
    out = np.empty_like(b)
    if b.ndim == 1:  # dsymm on one column ran 5 to 10 times slower than dsymv
        _native["cblas_dsymv"](_ROW_MAJOR, _LOWER, len(b), 1.0, a.ctypes.data, _ld(a), b.ctypes.data, 1,
                               0.0, out.ctypes.data, 1)
        return out
    m, n = b.shape
    _native["cblas_dsymm"](_ROW_MAJOR, _LEFT, _LOWER, m, n, 1.0, a.ctypes.data, _ld(a), b.ctypes.data,
                           _ld(b), 0.0, out.ctypes.data, _ld(out))
    return out


# LAPACK works column-major: there a row-major lower triangle is an upper one,
# and the upper factor U of A = U^T U is the row-major lower factor L = U^T
def _potrf_lapack(a: np.ndarray) -> None:
    info = _native["LAPACKE_dpotrf"](_COL_MAJOR, b"U", a.shape[0], a.ctypes.data, _ld(a))
    if info:
        raise np.linalg.LinAlgError(f"dpotrf info {info}: not positive definite")


def _trtri_lapack(a: np.ndarray) -> None:
    info = _native["LAPACKE_dtrtri"](_COL_MAJOR, b"U", b"N", a.shape[0], a.ctypes.data, _ld(a))
    if info:
        raise np.linalg.LinAlgError(f"dtrtri info {info}: singular")


def _sytrd_lapack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    n = a.shape[0]
    reflectors = np.array(a, dtype=float, order="C")
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 1))
    info = _native["LAPACKE_dsytrd"](_COL_MAJOR, b"U", n, reflectors.ctypes.data, max(n, 1), d.ctypes.data,
                                     e.ctypes.data, tau.ctypes.data)
    if info:
        raise ValueError(f"dsytrd info {info}")
    return d, e, (reflectors, tau)


def _ormtr_lapack(q, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    # b row-major (n, k) is the column-major k x n matrix b^T: Q @ b = (b^T Q^T)^T
    # is Q^T applied from the right, and Q^T @ b is Q applied from the right
    reflectors, tau = q
    out = np.array(b, dtype=float, order="C")
    n, k = out.shape
    if n and k:
        info = _native["LAPACKE_dormtr"](_COL_MAJOR, b"R", b"U", b"N" if transpose else b"T", k, n,
                                         reflectors.ctypes.data, max(n, 1), tau.ctypes.data, out.ctypes.data,
                                         max(k, 1))
        if info:
            raise ValueError(f"dormtr info {info}")
    return out


def _ptsv_lapack(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    # dptsv overwrites d and e with the factor and b, read column-major, with x
    n = len(d)
    d, e = np.array(d, dtype=float), np.array(e, dtype=float)
    x = np.array(b, dtype=float, order="F")
    info = _native["LAPACKE_dptsv"](_COL_MAJOR, n, 1 if x.ndim == 1 else x.shape[1], d.ctypes.data,
                                    e.ctypes.data, x.ctypes.data, max(n, 1))
    if info:
        raise np.linalg.LinAlgError(f"dptsv info {info}: non-positive pivot")
    return x


# the BLAS and LAPACK calls share the fallbacks' contract
if _native:
    syrk, symm, potrf, trtri = _syrk_blas, _symm_blas, _potrf_lapack, _trtri_lapack
    sytrd, ormtr, ptsv = _sytrd_lapack, _ormtr_lapack, _ptsv_lapack
else:
    syrk, symm, potrf, trtri = _syrk_numpy, _symm_numpy, _potrf_numpy, _trtri_numpy
    sytrd, ormtr, ptsv = _sytrd_numpy, _ormtr_numpy, _ptsv_numpy
