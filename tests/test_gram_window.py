import numpy as np
import pytest

import okc.gram_window as gw
from okc import (
    DimensionError,
    DriftStreamSpec,
    IllConditionedError,
    InvalidInputError,
    KernelSpec,
    RegGramState,
    WindowUnderflowError,
    direct_inverse_oracle,
    gen_stream,
    gram,
    track_inversions,
)

K1 = KernelSpec(sigma=1.0)


def random_state(rng, h, n, lam, sigma=1.0):
    return RegGramState(scattered(rng, h, n), lam, KernelSpec(sigma=sigma))


def rebuilt_phi(st):
    """The regularized Gram of the state's window, built from scratch."""
    return gram(st.kernel, st.window) + (1.0 / st.lam) * np.eye(st.size)


def scattered(rng, m, n):
    # spread grows as 300^(1/n) so points stay separated relative to sigma=1
    # in low dimensions; crowded windows make the regularized Gram too
    # ill-conditioned for any inversion path to hit the 1e-8 oracle bound
    return rng.normal(size=(m, n)) * 300.0 ** (1.0 / n)


def test_init_1x1():
    st = RegGramState([[0.0]], 1.0, K1)
    assert rebuilt_phi(st).tolist() == [[2.0]]
    assert st.p.tolist() == [[0.5]]


def test_init_2x2_matches_direct_inversion():
    st = RegGramState([[0.0], [1.0]], 1.0, K1)
    k = 0.6065306597126334
    np.testing.assert_allclose(rebuilt_phi(st), [[2.0, k], [k, 2.0]], atol=1e-15)
    # direct 2x2 inversion: [[2, k], [k, 2]]^-1 = [[2, -k], [-k, 2]] / (4 - k^2)
    det = 4.0 - k * k
    np.testing.assert_allclose(st.p, np.array([[2.0, -k], [-k, 2.0]]) / det, atol=1e-12)
    np.testing.assert_allclose(st.p, [[0.5506425151936714, -0.16699078400312062],
                                      [-0.16699078400312062, 0.5506425151936714]], atol=1e-12)


def test_init_weak_regularization():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    st = RegGramState(X, 1e8, K1)
    phi = rebuilt_phi(st)
    np.testing.assert_allclose(phi, gram(K1, X) + 1e-8 * np.eye(30), atol=1e-15)
    assert np.abs(st.p @ phi - np.eye(30)).max() < 1e-6


def test_init_rejects_bad_lambda():
    with pytest.raises(InvalidInputError):
        RegGramState([[0.0]], 0.0, K1)
    with pytest.raises(InvalidInputError):
        RegGramState([[0.0]], -2.0, K1)


def test_init_rejects_empty_window():
    with pytest.raises(InvalidInputError):
        RegGramState(np.empty((0, 2)), 1.0, K1)


def test_extend_single_sample_matches_oracle():
    st = RegGramState([[0.0]], 1.0, K1)
    st.extend([[1.0]])
    _, p = direct_inverse_oracle([[0.0], [1.0]], 1.0, K1)
    assert np.abs(st.p - p).max() < 1e-10


def test_extend_empty_chunk_is_noop():
    st = RegGramState([[0.0], [1.0]], 1.0, K1)
    window, p = st.window.copy(), st.p.copy()
    st.extend(np.empty((0, 1)))
    assert np.array_equal(st.window, window)
    assert np.array_equal(st.p, p)


def test_extend_dimension_mismatch():
    st = RegGramState([[0.0, 0.0]], 1.0, K1)
    with pytest.raises(DimensionError):
        st.extend([[1.0]])


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_repeated_extends_match_oracle(lam):
    rng = np.random.default_rng(42)
    n = int(rng.integers(2, 21))
    st = random_state(rng, int(rng.integers(1, 10)), n, lam)
    for _ in range(30):
        st.extend(scattered(rng, int(rng.integers(1, 12)), n))
        if st.size > 300:
            break
    _, p = direct_inverse_oracle(st.window, lam, K1)
    assert np.abs(st.p - p).max() < 1e-8


def test_retract_back_to_single_sample():
    st = RegGramState([[0.0]], 1.0, K1)
    st.extend([[1.0]])
    st.retract(1)
    ref = RegGramState([[1.0]], 1.0, K1)
    assert np.abs(st.p - ref.p).max() < 1e-10
    assert np.array_equal(st.window, ref.window)
    assert np.abs(rebuilt_phi(st) - rebuilt_phi(ref)).max() < 1e-10


def test_retract_then_extend_restores_phi():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    st = RegGramState(X, 1.0, K1)
    chunk = st.window[:4].copy()
    st.retract(4)
    st.extend(np.vstack([st.window[:0], chunk]))  # re-insert the forgotten rows at the end
    _, p = direct_inverse_oracle(st.window, 1.0, K1)
    assert np.array_equal(st.window, np.vstack([X[4:], X[:4]]))
    assert np.abs(st.p - p).max() < 1e-10


def test_retract_large_block_matches_oracle():
    rng = np.random.default_rng(11)
    st = random_state(rng, 200, 5, 1.0)
    st.retract(50)
    assert st.size == 150
    _, p = direct_inverse_oracle(st.window, 1.0, K1)
    assert np.abs(st.p - p).max() < 1e-8


def test_retract_underflow():
    st = RegGramState([[0.0], [1.0]], 1.0, K1)
    with pytest.raises(WindowUnderflowError):
        st.retract(2)
    with pytest.raises(WindowUnderflowError):
        st.retract(0)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_interleaved_extend_retract_matches_oracle(lam):
    rng = np.random.default_rng(int(lam * 1000) % 2**31)
    n = 4
    st = random_state(rng, 20, n, lam)
    for _ in range(40):
        if rng.random() < 0.5 and st.size > 12:
            st.retract(int(rng.integers(1, 8)))
        else:
            st.extend(scattered(rng, int(rng.integers(1, 8)), n))
    _, p = direct_inverse_oracle(st.window, lam, K1)
    assert np.abs(st.p - p).max() < 1e-8


def test_inverse_residual_small_after_operations():
    rng = np.random.default_rng(5)
    st = random_state(rng, 50, 3, 10.0)
    for _ in range(10):
        st.extend(rng.normal(size=(5, 3)))
        st.retract(5)
        assert st.inverse_residual() < 1e-6


def test_extend_inverts_only_chunk_sized_matrix():
    rng = np.random.default_rng(6)
    st = random_state(rng, 120, 4, 1.0)
    with track_inversions() as log:
        st.extend(rng.normal(size=(7, 4)))
    assert log == [7]


def test_retract_inverts_only_forgotten_block():
    rng = np.random.default_rng(7)
    st = random_state(rng, 120, 4, 1.0)
    with track_inversions() as log:
        st.retract(9)
    assert log == [9]


def test_oracle_matches_init_exactly():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 6))
    st = RegGramState(X, 2.0, K1)
    phi, p = direct_inverse_oracle(X, 2.0, K1)
    assert np.array_equal(rebuilt_phi(st), phi)
    # the state keeps the symmetric part of the dense inverse
    assert not np.array_equal(p, p.T)
    assert np.array_equal(st.p, (p + p.T) * 0.5)


def test_oracle_is_layout_sensitive():
    # permuting the window permutes rows/columns, so the matrices differ even
    # though the window holds the same multiset of samples
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 2))
    _, p = direct_inverse_oracle(X, 1.0, K1)
    _, p_perm = direct_inverse_oracle(X[::-1], 1.0, K1)
    assert not np.allclose(p, p_perm)


def test_ill_conditioned_duplicate_window_rejected():
    # identical samples with a vanishing ridge: rank-1 + 1e-15 I blows past
    # the condition-estimate limit
    X = np.zeros((5, 2))
    with pytest.raises(IllConditionedError):
        RegGramState(X, 1e15, K1)


def test_extend_ill_conditioned_schur_rejected(monkeypatch):
    st = RegGramState([[0.0], [5.0]], 1.0, KernelSpec(sigma=1.0))
    monkeypatch.setattr(gw, "CONDITION_LIMIT", 0.5)  # every estimate is >= 1
    with pytest.raises(IllConditionedError):
        st.extend([[10.0]])


def test_symmetry_maintained():
    rng = np.random.default_rng(13)
    st = random_state(rng, 80, 5, 1e3)
    for _ in range(6):
        st.extend(rng.normal(size=(10, 5)))
        st.retract(10)
    assert np.array_equal(st.p, st.p.T)


@pytest.fixture(scope="module")
def drift_targets():
    # the README's drift stream, lengthened so that 2000 slides of 50 fit
    spec = DriftStreamSpec(family="unimodal_drift", total=210_000, drift_period=200,
                           velocity=[0.25, 0.0], class_offset=[8.0, 0.0], seed=42)
    return np.array([s.features for s in gen_stream(spec) if s.label == 1])


@pytest.mark.parametrize("window, slides, lam, sigma, bound", [
    (150, 2000, 10.0, 2.0, 1e-10),
    (150, 2000, 1e3, 1.0, 1e-7),
    (1000, 60, 1e3, 1.0, 1e-7),
])
def test_long_stream_keeps_inverse_close_to_oracle(drift_targets, window, slides, lam, sigma, bound):
    chunk = 50
    X = drift_targets
    assert X.shape[0] >= window + slides * chunk
    kernel = KernelSpec(sigma=sigma)
    st = RegGramState(X[:window], lam, kernel)
    checkpoints = range(slides // 5, slides + 1, slides // 5)
    errors = []
    for k in range(1, slides + 1):
        st.retract(chunk)
        st.extend(X[window + (k - 1) * chunk: window + k * chunk])
        if k in checkpoints:
            _, p = direct_inverse_oracle(st.window, lam, kernel)
            errors.append(np.abs(st.p - p).max() / np.abs(p).max())
    assert len(errors) == 5
    assert max(errors) < bound, errors
    assert errors[-1] <= 10 * errors[0], errors
