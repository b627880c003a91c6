import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from okc import _blas

@pytest.fixture(params=["bound", "numpy"])
def blas(request):
    """The primitives as bound, then their NumPy fallbacks."""
    return _blas if request.param == "bound" else SimpleNamespace(**_blas.FALLBACKS)


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def stale_upper(a):
    # the strict upper triangle of a stored matrix holds values that must not be used
    return np.tril(a) + np.triu(np.full(a.shape, 1e300), 1)


def test_syrk_updates_the_lower_triangle_of_a_strided_view(blas):
    rng = np.random.default_rng(0)
    buf = rng.normal(size=(12, 12))
    before = buf.copy()
    a = rng.normal(size=(7, 3))
    blas.syrk(-2.0, a, buf[3:10, 2:9])
    want = before[3:10, 2:9] - 2.0 * a @ a.T
    lower = np.tri(7, dtype=bool)
    np.testing.assert_allclose(buf[3:10, 2:9][lower], want[lower], rtol=1e-13)
    outside = np.ones_like(buf, dtype=bool)
    outside[3:10, 2:9] = False
    assert np.array_equal(buf[outside], before[outside])


@pytest.mark.parametrize("shape", [(9,), (9, 1), (9, 4)])
def test_symm_reads_only_the_lower_triangle(blas, shape):
    rng = np.random.default_rng(1)
    full = spd(rng, 9)
    buf = np.zeros((11, 11))
    buf[2:, 2:] = stale_upper(full)
    b = rng.normal(size=shape)
    out = blas.symm(buf[2:, 2:], b)
    assert out.shape == shape
    np.testing.assert_allclose(out, full @ b, rtol=1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_syrk_and_symm_take_operands_with_zero_rows(blas, k):
    # a window's first fill is a Schur step onto an empty window; NumPy gives
    # an empty array zero strides
    empty = np.zeros((0, k))
    buf = np.ones((5, 5))
    before = buf.copy()
    for c in (np.zeros((0, 0)), buf[5:, 5:]):
        blas.syrk(1.0, empty, c)
        out = blas.symm(c, empty)
        assert out.shape == (0, k)
        assert blas.symm(c, np.zeros(0)).shape == (0,)
    assert np.array_equal(buf, before)


def test_potrf_trtri_give_the_inverse_cholesky_factor(blas):
    rng = np.random.default_rng(2)
    full = spd(rng, 6)
    g = stale_upper(full)
    blas.potrf(g)
    L = np.tril(g)
    np.testing.assert_allclose(L @ L.T, full, rtol=1e-12)
    assert np.array_equal(np.triu(g, 1), np.triu(stale_upper(full), 1))
    blas.trtri(g)
    np.testing.assert_allclose(np.tril(g) @ L, np.eye(6), atol=1e-12)
    assert np.array_equal(np.triu(g, 1), np.triu(stale_upper(full), 1))


def test_potrf_refuses_an_indefinite_matrix(blas):
    with pytest.raises(np.linalg.LinAlgError):
        blas.potrf(np.array([[1.0, 0.0], [2.0, 1.0]]))


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_sytrd_rebuilds_a_from_an_orthogonal_q_and_tridiagonal_t(blas, n):
    rng = np.random.default_rng(3)
    full = spd(rng, n)
    a = stale_upper(full)
    before = a.copy()
    d, e, q = blas.sytrd(a)
    assert np.array_equal(a, before)
    Q = blas.ormtr(q, np.eye(n))
    np.testing.assert_allclose(Q.T @ Q, np.eye(n), atol=1e-13)
    np.testing.assert_allclose(Q @ tridiagonal(d, e) @ Q.T, full, rtol=1e-12, atol=1e-12 * n)


@pytest.mark.parametrize("shape", [(9, 1), (9, 4)])
def test_ormtr_applies_q_and_its_transpose(blas, shape):
    rng = np.random.default_rng(4)
    d, e, q = blas.sytrd(stale_upper(spd(rng, 9)))
    Q = blas.ormtr(q, np.eye(9))
    b = rng.normal(size=shape)
    before = b.copy()
    np.testing.assert_allclose(blas.ormtr(q, b), Q @ b, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(blas.ormtr(q, b, transpose=True), Q.T @ b, rtol=1e-12, atol=1e-13)
    assert np.array_equal(b, before)


@pytest.mark.parametrize("off", ["random", "zero"])
def test_stebz_gives_the_extreme_eigenvalues(blas, off):
    rng = np.random.default_rng(5)
    for n in (1, 2, 30):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1) if off == "random" else np.zeros(n - 1)
        w = np.linalg.eigvalsh(tridiagonal(d, e))
        low, high = blas.stebz(d, e)
        assert low == pytest.approx(w[0], abs=1e-13) and high == pytest.approx(w[-1], abs=1e-13)


@pytest.mark.skipif(_blas.LIBRARY is None, reason="no BLAS library bound")
def test_stebz_on_near_tied_eigenvalues_gives_the_dense_extremes():
    # A tridiagonal matrix within about 1e-15 of I: on OpenBLAS, dstebz cannot
    # isolate eigenvalue n of this draw (n = 29) and returns info 2, having
    # written IBLOCK(0), before its buffer. The dense extremes stand in.
    rng = np.random.default_rng(6)
    n = int(rng.integers(20, 41))
    d, e = 1.0 + 1e-16 * rng.normal(size=n), 1e-15 * rng.normal(size=n - 1)
    assert _blas.stebz(d, e) == _blas._stebz_numpy(d, e)


@pytest.mark.parametrize("shape", [(30,), (30, 1), (30, 3)])
@pytest.mark.parametrize("off", ["random", "zero"])
def test_ptsv_matches_a_dense_solve(blas, shape, off):
    rng = np.random.default_rng(6)
    d = 3.0 + rng.random(30)
    e = rng.uniform(-1, 1, size=29) if off == "random" else np.zeros(29)
    b = rng.normal(size=shape)
    inputs = [v.copy() for v in (d, e, b)]
    x = blas.ptsv(d, e, b)
    assert x.shape == shape
    np.testing.assert_allclose(x, np.linalg.solve(tridiagonal(d, e), b), rtol=1e-12, atol=1e-14)
    assert all(np.array_equal(v, w) for v, w in zip((d, e, b), inputs))


@pytest.mark.parametrize("d, e", [([1.0, 0.5, 2.0], [1.0, 0.0]), ([1.0, -1.0, 2.0], [0.0, 0.0]),
                                  ([1.0, 0.0], [0.0])])
def test_ptsv_refuses_a_non_positive_pivot(blas, d, e):
    # pivots 1, -0.5, 2; then 1, -1, 2; then 1, 0
    with pytest.raises(np.linalg.LinAlgError):
        blas.ptsv(np.array(d), np.array(e), np.ones(len(d)))


def test_bind_binds_every_symbol_or_none(monkeypatch):
    # a library that lacks one symbol binds nothing, so no run mixes bound
    # primitives with fallbacks
    monkeypatch.setitem(_blas._SIGNATURES, "LAPACKE_dnosuchroutine", (_blas._int, []))
    assert _blas._bind() == (None, {})


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_binding_is_the_openblas_numpy_mapped():
    if _blas.LIBRARY is None:
        pytest.skip("no OpenBLAS bound: the NumPy fallback is in force")
    with open("/proc/self/maps") as fh:
        fields = [line.split(None, 5) for line in fh]
    mapped = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    assert mapped == {os.path.realpath(_blas.LIBRARY)}
    assert _blas._native.keys() == _blas._SIGNATURES.keys()
    assert all(getattr(_blas, k) is not f for k, f in _blas.FALLBACKS.items())
