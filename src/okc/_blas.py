"""Four in-place BLAS and LAPACK primitives on one triangle of a matrix.

``syrk``, ``symm`` (``dsymv`` for a vector, ``dsymm`` for a matrix), ``potrf``
and ``trtri`` are bound through ctypes from the OpenBLAS that NumPy itself
loaded: its wheels bundle one, with 64-bit integers, under ``numpy.libs``
(``numpy/.dylibs`` on macOS). The file is opened with ``RTLD_NOLOAD``, which
returns a handle only to a library already mapped into the process, so this
module never loads a second BLAS; ``OPENBLAS_NUM_THREADS`` governs these calls
as it governs NumPy's own. Each primitive whose symbol is
not found (an MKL or Accelerate NumPy, a 32-bit-integer OpenBLAS, a platform
without ``RTLD_NOLOAD``) falls back to a NumPy expression with the same
contract, listed in ``FALLBACKS``. ``LIBRARY`` is the bound file, or None.

Matrices are float64 and row-major with unit column stride; an output may be a
strided view into a larger buffer. A symmetric or triangular matrix is its
lower triangle, diagonal included: no primitive reads or uses the strict
upper triangle of such a matrix, and only ``syrk``'s fallback writes there.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

_ROW_MAJOR, _COL_MAJOR = 101, 102  # CBLAS_ORDER and LAPACK_ROW_MAJOR / LAPACK_COL_MAJOR
_NO_TRANS, _LOWER, _LEFT = 111, 122, 141

_int, _ptr, _double, _enum = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "cblas_dsyrk": (None, [_enum, _enum, _enum, _int, _int, _double, _ptr, _int, _double, _ptr, _int]),
    "cblas_dsymm": (None, [_enum, _enum, _enum, _int, _int, _double, _ptr, _int, _ptr, _int, _double,
                           _ptr, _int]),
    "cblas_dsymv": (None, [_enum, _enum, _int, _double, _ptr, _int, _ptr, _int, _double, _ptr, _int]),
    "LAPACKE_dpotrf": (_int, [_enum, ctypes.c_char, _int, _ptr, _int]),
    "LAPACKE_dtrtri": (_int, [_enum, ctypes.c_char, ctypes.c_char, _int, _ptr, _int]),
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


FALLBACKS = {"syrk": _syrk_numpy, "symm": _symm_numpy, "potrf": _potrf_numpy, "trtri": _trtri_numpy}


def _ld(a: np.ndarray) -> int:
    # row stride in elements; BLAS needs unit column stride
    rows, cols = a.strides
    if cols != 8 and a.shape[1] > 1 or rows % 8 or a.dtype != np.float64:
        raise ValueError("BLAS operands must be float64 with unit column stride")
    return max(rows // 8, a.shape[1], 1)


def _bind():
    """``(path, {name: function})`` for the NumPy-mapped OpenBLAS, or ``(None, {})``."""
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
        if found:
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


# each primitive is the BLAS or LAPACK call where its symbol was found, else its
# NumPy fallback; the two share the fallback's contract
syrk = _syrk_blas if "cblas_dsyrk" in _native else _syrk_numpy
symm = _symm_blas if {"cblas_dsymm", "cblas_dsymv"} <= _native.keys() else _symm_numpy
potrf = _potrf_lapack if "LAPACKE_dpotrf" in _native else _potrf_numpy
trtri = _trtri_lapack if "LAPACKE_dtrtri" in _native else _trtri_numpy
