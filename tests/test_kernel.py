import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from okc import (DegenerateDataError, DimensionError, InvalidInputError, KernelSpec, RegGramState, RunConfig,
                 SelectionConfig, direct_inverse_oracle, eval_kernel, gram, pairwise_distance_range, select)
from okc.models import MODELS

EXP_HALF = 0.6065306597126334  # exp(-0.5)


def test_spec_rejects_bad_sigma():
    with pytest.raises(InvalidInputError):
        KernelSpec(sigma=0.0)
    with pytest.raises(InvalidInputError):
        KernelSpec(sigma=-1.0)
    with pytest.raises(InvalidInputError):
        KernelSpec(sigma=float("nan"))


@pytest.mark.parametrize("sigma", [1e200, 1e-170])
def test_a_width_whose_two_sigma_squared_is_not_a_positive_finite_float_is_refused(sigma):
    # 2 sigma^2 overflows at 1e200 (sigma**2 raises OverflowError) and is 0 at
    # 1e-170; each setting that holds a width refuses it by name
    for make, name in [(lambda: KernelSpec(sigma), "sigma"), (lambda: RunConfig(sigma=sigma), "sigma"),
                       (lambda: SelectionConfig(sigmas=[1.0, sigma]), r"sigmas\[1\]")]:
        with pytest.raises(InvalidInputError, match=rf"^{name} must be a kernel width with 2 sigma\^2 positive"):
            make()


@pytest.mark.parametrize("sigma", [1e150, 1e-150])
def test_a_width_whose_two_sigma_squared_is_a_positive_finite_float_is_accepted(sigma):
    assert KernelSpec(sigma).sigma == RunConfig(sigma=sigma).sigma == SelectionConfig(sigmas=[sigma]).sigmas[0] == sigma
    assert eval_kernel(KernelSpec(sigma), [0.0], [0.0]) == 1.0


def test_eval_kernel_zero_distance_is_one():
    spec = KernelSpec(sigma=1.0)
    x = np.array([0.3, -2.0, 1.5])
    assert eval_kernel(spec, x, x) == 1.0


def test_eval_kernel_closed_form_unit_distance():
    # exp(-1 / (2 * 1^2)) for points 0 and 1 on the line
    assert eval_kernel(KernelSpec(sigma=1.0), [0.0], [1.0]) == pytest.approx(EXP_HALF, abs=1e-15)


def test_eval_kernel_literal_formula_oracle():
    # independent transcription of exp(-||x-y||^2 / (2 sigma^2))
    rng = np.random.default_rng(7)
    spec = KernelSpec(sigma=1.7)
    for _ in range(50):
        x, y = rng.normal(size=5), rng.normal(size=5)
        expected = np.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / (2 * 1.7**2))
        assert eval_kernel(spec, x, y) == pytest.approx(expected, rel=1e-14)


def test_eval_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(1)
    spec = KernelSpec(sigma=0.8)
    for _ in range(100):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


def test_eval_kernel_range():
    rng = np.random.default_rng(2)
    spec = KernelSpec(sigma=2.5)
    for _ in range(100):
        x, y = rng.normal(size=3) * 10, rng.normal(size=3) * 10
        k = eval_kernel(spec, x, y)
        assert 0.0 < k <= 1.0
        assert (k == 1.0) == bool(np.array_equal(x, y))


@pytest.mark.parametrize("d", [1, 2, 8, 9, 16, 20])
def test_eval_kernel_equals_gram_bitwise(d):
    rng = np.random.default_rng(d)
    spec = KernelSpec(sigma=1.3)
    X, Y = rng.normal(size=(200, d)), rng.normal(size=(200, d))
    K = gram(spec, X, Y)
    for i in range(200):
        assert eval_kernel(spec, X[i], Y[i]) == K[i, i]


def test_eval_kernel_errors():
    spec = KernelSpec(sigma=1.0)
    with pytest.raises(DimensionError):
        eval_kernel(spec, [0.0, 1.0], [0.0])
    with pytest.raises(InvalidInputError):
        eval_kernel(spec, [np.nan], [0.0])
    with pytest.raises(InvalidInputError):
        eval_kernel(spec, [0.0], [np.inf])


def test_gram_single_sample():
    assert gram(KernelSpec(sigma=1.0), [[0.0]]).tolist() == [[1.0]]


def test_gram_two_point_closed_form():
    G = gram(KernelSpec(sigma=1.0), [[0.0], [1.0]])
    expected = np.array([[1.0, EXP_HALF], [EXP_HALF, 1.0]])
    np.testing.assert_allclose(G, expected, atol=1e-15)


def test_gram_matches_entrywise_eval():
    rng = np.random.default_rng(3)
    spec = KernelSpec(sigma=1.3)
    X, Y = rng.normal(size=(6, 4)), rng.normal(size=(9, 4))
    G = gram(spec, X, Y)
    for i in range(6):
        for j in range(9):
            assert G[i, j] == pytest.approx(eval_kernel(spec, X[i], Y[j]), rel=1e-14)


def test_gram_self_symmetric_exactly():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    G = gram(KernelSpec(sigma=1.0), X)
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.diag(G), np.ones(50))


def test_gram_cross_transpose_exact():
    rng = np.random.default_rng(5)
    spec = KernelSpec(sigma=0.9)
    X, Y = rng.normal(size=(8, 5)), rng.normal(size=(13, 5))
    assert np.array_equal(gram(spec, X, Y), gram(spec, Y, X).T)


@pytest.mark.parametrize("rows_x, rows_y, dims", [(1000, 50, 2), (300, 150, 5), (64, 64, 8), (37, 53, 50)])
def test_gram_bitwise_equal_to_scipy_cdist(rows_x, rows_y, dims):
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    rng = np.random.default_rng(rows_x + dims)
    X, Y = rng.normal(size=(rows_x, dims)) * 3.0, rng.normal(size=(rows_y, dims))
    spec = KernelSpec(sigma=0.7)
    denom = 2.0 * 0.7**2
    assert np.array_equal(gram(spec, X, Y), np.exp(-cdist(X, Y, "sqeuclidean") / denom))
    assert np.array_equal(gram(spec, X), np.exp(-cdist(X, X, "sqeuclidean") / denom))


def test_pairwise_distance_range_matches_scipy_pdist():
    pdist = pytest.importorskip("scipy.spatial.distance").pdist
    X = np.random.default_rng(10).normal(size=(200, 3))
    d2 = pdist(X, "sqeuclidean")
    assert pairwise_distance_range(X) == (np.sqrt(d2.min()), np.sqrt(d2.max()))


def test_gram_block_equals_gram_of_block_rows():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    G = gram(KernelSpec(sigma=1.1), X)
    rows, cols = rng.permutation(40)[:15], rng.permutation(40)[:25]
    assert np.array_equal(G[np.ix_(rows, cols)], gram(KernelSpec(sigma=1.1), X[rows], X[cols]))


def test_import_leaves_scipy_spatial_unloaded():
    code = "import sys, okc; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_gram_equal_arrays_take_symmetric_path():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 2))
    G = gram(KernelSpec(sigma=1.0), X, X.copy())
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_regularized_gram_positive_definite(lam):
    rng = np.random.default_rng(8)
    for trial in range(5):
        X = rng.normal(size=(20, 4))
        phi = gram(KernelSpec(sigma=1.2), X) + (1.0 / lam) * np.eye(20)
        eigvals = np.linalg.eigvalsh(phi)
        assert eigvals.min() > 0


def test_gram_dimension_mismatch():
    with pytest.raises(DimensionError):
        gram(KernelSpec(sigma=1.0), [[0.0, 1.0]], [[0.0]])


@pytest.mark.parametrize("call", [
    lambda X: gram(KernelSpec(), X),
    lambda X: gram(KernelSpec(), X, X),
    pairwise_distance_range,
    lambda X: RegGramState(X, 1.0, KernelSpec()),
    select,
    lambda X: select(X, "reconstruction", SelectionConfig(sigmas=[1.0])),
], ids=["gram", "gram-cross", "distance-range", "state", "select", "select-fixed-sigma"])
def test_matrix_without_feature_columns_is_refused(call):
    # a CSV with only a label column loads as rows of width 0
    with pytest.raises(DimensionError, match="X has no feature column"):
        call(np.empty((20, 0)))


def _fitted(framework):
    return MODELS[framework](RegGramState(np.random.default_rng(3).normal(size=(20, 2)), 1.0, KernelSpec()), 0.05)


@pytest.mark.parametrize("X", [[[0.0, 1.0], [2.0]], [[0.0, 1.0], ["a", 2.0]]], ids=["ragged", "non-numeric"])
@pytest.mark.parametrize("call", [
    lambda X: gram(KernelSpec(), X),
    lambda X: gram(KernelSpec(), [[0.0, 1.0]], X),
    pairwise_distance_range,
    lambda X: eval_kernel(KernelSpec(), X, [0.0, 1.0]),
    lambda X: direct_inverse_oracle(X, 1.0, KernelSpec()),
    lambda X: RegGramState(X, 1.0, KernelSpec()),
    lambda X: _fitted("boundary").state.extend(X),
    lambda X: _fitted("boundary").scores(X),
    lambda X: _fitted("reconstruction").scores(X),
    lambda X: _fitted("boundary").slide(X),
    select,
], ids=["gram", "gram-Y", "distance-range", "eval-kernel", "oracle", "state", "extend", "boundary-scores",
        "reconstruction-scores", "slide", "select"])
def test_ragged_or_non_numeric_samples_are_refused(call, X):
    with pytest.raises(InvalidInputError, match="must be a rectangular array of numbers"):
        call(X)


def test_pairwise_distance_range_enumeration():
    assert pairwise_distance_range([[0.0], [3.0], [7.0]]) == (3.0, 7.0)


def test_pairwise_distance_range_excludes_duplicates():
    assert pairwise_distance_range([[0.0], [0.0], [5.0]]) == (5.0, 5.0)


def test_pairwise_distance_range_brute_force_oracle():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 3))
    dmin, dmax = pairwise_distance_range(X)
    sq = [
        float(np.sum((X[i] - X[j]) ** 2))
        for i in range(100)
        for j in range(i + 1, 100)
    ]
    assert dmin == np.sqrt(min(sq))
    assert dmax == np.sqrt(max(sq))


def test_squared_distances_scratch_is_small_next_to_the_result():
    # a full-size scratch array beside the result doubled the peak
    X = np.random.default_rng(12).normal(size=(2000, 3))
    one_matrix = 2000 * 2000 * 8
    for call in (lambda: gram(KernelSpec(sigma=1.0), X), lambda: pairwise_distance_range(X)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * one_matrix


def test_pairwise_distance_range_degenerate():
    with pytest.raises(DegenerateDataError):
        pairwise_distance_range([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DegenerateDataError):
        pairwise_distance_range([[1.0, 2.0]])
