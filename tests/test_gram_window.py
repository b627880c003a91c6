import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as hs
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import okc.gram_window as gw
from okc import (
    DimensionError,
    DriftStreamSpec,
    IllConditionedError,
    InvalidInputError,
    KernelSpec,
    RegGramState,
    WindowUnderflowError,
    _blas,
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
    # p = g^T g with g = 1 / sqrt(2) rounded, within an ulp of the oracle's 1/2
    _, p = direct_inverse_oracle([[0.0]], 1.0, K1)
    assert np.array_equal(st.p, st.p.T)
    assert np.abs(st.p - p).max() <= 1e-15


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


def test_solve_applies_pending_downdates():
    # two forgets in a row each write their downdate; solve and the next
    # extension read the twice-downdated p
    rng = np.random.default_rng(21)
    st = random_state(rng, 60, 3, 10.0)
    st.retract(7)
    st.retract(11)
    b = rng.normal(size=(st.size, 2))
    _, p = direct_inverse_oracle(st.window, 10.0, K1)
    np.testing.assert_allclose(st.solve(b), p @ b, atol=1e-10)
    np.testing.assert_allclose(st.solve(b[:, 0]), p @ b[:, 0], atol=1e-10)
    st.extend(scattered(rng, 5, 3))
    _, p = direct_inverse_oracle(st.window, 10.0, K1)
    assert np.abs(st.p - p).max() < 1e-10


@pytest.mark.parametrize("chunk, error", [
    (np.ones((3, 2)), DimensionError),
    (np.ones((80, 3)), WindowUnderflowError),
])
def test_refused_slide_leaves_state_as_it_was(chunk, error):
    rng = np.random.default_rng(22)
    st = random_state(rng, 60, 3, 10.0)
    st.retract(4)  # the spare buffer now holds the p before this forget
    window, p = st.window.copy(), st.p
    with pytest.raises(error):
        st.slide(chunk)
    assert np.array_equal(st.window, window)
    assert np.array_equal(st.p, p)


def test_slide_equals_retract_then_extend_exactly():
    rng = np.random.default_rng(23)
    X = scattered(rng, 80, 3)
    slid, stepped = RegGramState(X, 1e3, K1), RegGramState(X, 1e3, K1)
    for s in (10, 10, 25, 1, 40):
        chunk = scattered(rng, s, 3)
        slid.slide(chunk)
        stepped.retract(s)
        stepped.extend(chunk)
        b = rng.normal(size=(slid.size, 2))
        assert np.array_equal(slid.window, stepped.window)
        assert np.array_equal(slid.p, stepped.p)
        assert np.array_equal(slid.solve(b), stepped.solve(b))
        assert np.array_equal(slid.solve(b[:, 0]), stepped.solve(b[:, 0]))


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
    # the state inverts phi through its Cholesky factor, the oracle by LU
    assert np.array_equal(st.p, st.p.T)
    assert np.abs(st.p - p).max() <= 1e-13 * np.abs(p).max()


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


@pytest.mark.parametrize("lam", [1e15, 1e17])
def test_refused_first_window_names_the_regularized_gram_matrix(lam):
    # J + 1e-15 I passes the Cholesky factorization and fails cond_1; the
    # factorization refuses J + 1e-17 I
    with pytest.raises(IllConditionedError, match="^regularized Gram matrix is "):
        RegGramState(np.zeros((5, 2)), lam, K1)


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


@pytest.mark.parametrize("seed", [0, 1])
def test_duplicated_rows_raise_or_keep_inverse_close_to_oracle(seed):
    # 2-D integer features from 1..6: only 36 distinct points fill a window of
    # 150, so with a 1e-8 ridge the regularized Gram is nearly singular
    window, chunk, lam, kernel = 150, 50, 1e8, KernelSpec(sigma=3.0)
    X = np.random.default_rng(seed).integers(1, 7, size=(window + 20 * chunk, 2)).astype(float)
    st = RegGramState(X[:window], lam, kernel)
    for k in range(20):
        try:
            st.retract(chunk)
            st.extend(X[window + k * chunk: window + (k + 1) * chunk])
        except IllConditionedError:
            return
        _, p = direct_inverse_oracle(st.window, lam, kernel)
        assert np.abs(st.p - p).max() / np.abs(p).max() < 1e-6, k


@pytest.mark.parametrize("lam", [
    1e4,
    pytest.param(1e6, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
])
def test_slides_over_duplicated_rows_keep_beta_close_to_a_cholesky_solve(lam):
    # 2-D integer features from 1..6 repeat at most 36 points in a window of
    # 150; after each slide, beta = p 1 must stay within 1e-5 (relative to its
    # largest entry) of a Cholesky solve of phi rebuilt from the window. At
    # lambda=1e6 the slides lose it, and nothing raises.
    linalg = pytest.importorskip("scipy.linalg")
    window, chunk, kernel = 150, 50, KernelSpec(sigma=3.0)
    for seed in range(3):
        X = np.random.default_rng(seed).integers(1, 7, size=(window + 20 * chunk, 2)).astype(float)
        st = RegGramState(X[:window], lam, kernel)
        for k in range(20):
            st.slide(X[window + k * chunk: window + (k + 1) * chunk])
            exact = linalg.cho_solve(linalg.cho_factor(rebuilt_phi(st)), np.ones(window))
            err = np.abs(st.solve(np.ones(window)) - exact).max() / np.abs(exact).max()
            assert err <= 1e-5, (seed, k, err)


@pytest.mark.parametrize("lam, bound", [(1e6, 1e-8), (1e8, 1e-6)])
def test_initial_beta_on_duplicated_rows_matches_a_40_digit_solve(lam, bound):
    # 60 rows of 2-D integer features from 1..6 repeat at most 36 points, so
    # with a 1e-6 or 1e-8 ridge phi is nearly singular; the first fill's
    # beta = p 1 must still match an exact solve
    mp = pytest.importorskip("mpmath").mp
    W, sigma = 60, 3.0
    for seed in range(3):
        X = np.random.default_rng(seed).integers(1, 7, size=(W, 2)).astype(float)
        beta = RegGramState(X, lam, KernelSpec(sigma=sigma)).solve(np.ones(W))
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2).astype(int)  # exact: integer rows
        with mp.workdps(40):
            k = {int(v): mp.exp(-mp.mpf(int(v)) / (2 * mp.mpf(sigma) ** 2)) for v in np.unique(d2)}
            phi = mp.matrix([[k[int(v)] for v in row] for row in d2]) + mp.eye(W) / mp.mpf(lam)
            exact = np.array([float(v) for v in mp.lu_solve(phi, mp.matrix([1] * W))])
        err = np.abs(beta - exact).max() / np.abs(exact).max()
        assert err <= bound, (seed, err)


def test_first_fill_peaks_below_three_and_a_half_window_squares():
    # phi is formed and factored in place in the state's own buffer
    W = 400
    X = np.random.default_rng(0).normal(size=(W, 2))
    tracemalloc.start()
    try:
        RegGramState(X, 1e3, K1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * W * W, peak / (8 * W * W)


def test_steady_state_slide_allocates_less_than_one_window_square():
    # after a warm-up slide both buffers exist, and a slide writes p into
    # them without allocating a W x W array
    if _blas.syrk is _blas._syrk_numpy:
        pytest.skip("the NumPy fallback's syrk forms a window-sized product")
    W, s = 400, 50
    rng = np.random.default_rng(0)
    st = RegGramState(rng.normal(size=(W, 2)), 1e3, K1)
    warm_up, chunk = rng.normal(size=(2, s, 2))
    st.slide(warm_up)
    tracemalloc.start()
    try:
        st.slide(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * W * W, peak / (8 * W * W)


class SlidingWindowMachine(RuleBasedStateMachine):
    """Random extend/retract/slide sequences on well-separated samples: after
    every step ``p`` matches the oracle, is exactly symmetric, and only the
    new chunk or the forgotten block was inverted."""

    MAX_SIZE = 60

    @initialize(seed=hs.integers(0, 2**32 - 1), size=hs.integers(1, 30),
                n=hs.integers(1, 5), lam=hs.sampled_from([1e-3, 1.0, 1e3]))
    def start(self, seed, size, n, lam):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.state = RegGramState(scattered(self.rng, size, n), lam, K1)
        self.inverted, self.expected = [], []

    @precondition(lambda self: self.state.size < self.MAX_SIZE)
    @rule(s=hs.integers(0, 12))
    def extend(self, s):
        with track_inversions() as log:
            self.state.extend(scattered(self.rng, s, self.n))
        self.inverted, self.expected = log, [s] if s else []

    @precondition(lambda self: self.state.size > 1)
    @rule(data=hs.data())
    def retract(self, data):
        f = data.draw(hs.integers(1, self.state.size - 1), label="f")
        with track_inversions() as log:
            self.state.retract(f)
        self.inverted, self.expected = log, [f]

    # a slide draws its chunk as extend does, at most 12 fresh samples:
    # scattered() keeps a few 1-D samples apart but not 59, which placed two
    # 0.05 apart, and the absolute 1e-8 bound presumes separated samples
    # (retract + extend also erred 1.6e-8 on that draw; the dense oracle 6e-11)
    @precondition(lambda self: self.state.size > 1)
    @rule(data=hs.data())
    def slide(self, data):
        s = data.draw(hs.integers(1, min(12, self.state.size - 1)), label="s")
        with track_inversions() as log:
            self.state.slide(scattered(self.rng, s, self.n))
        self.inverted, self.expected = log, [s, s]

    @invariant()
    def p_matches_oracle_and_is_symmetric(self):
        st = self.state
        _, p = direct_inverse_oracle(st.window, st.lam, st.kernel)
        assert np.abs(st.p - p).max() < 1e-8
        assert np.array_equal(st.p, st.p.T)
        assert self.inverted == self.expected


TestSlidingWindowMachine = SlidingWindowMachine.TestCase
TestSlidingWindowMachine.settings = settings(max_examples=40, stateful_step_count=15,
                                             deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def drift_targets():
    # the README's drift stream, lengthened so that 2000 slides of 50 fit
    spec = DriftStreamSpec(family="unimodal_drift", total=210_000, drift_period=200,
                           velocity=[0.25, 0.0], class_offset=[8.0, 0.0], seed=42)
    stream = gen_stream(spec)
    return stream.X[stream.y == 1]


LONG_STREAMS = [
    (150, 2000, 10.0, 2.0, 1e-10),
    (150, 2000, 1e3, 1.0, 1e-7),
    (1000, 60, 1e3, 1.0, 1e-7),
]


@pytest.mark.parametrize("window, slides, lam, sigma, bound", LONG_STREAMS)
def test_long_stream_keeps_inverse_close_to_oracle(drift_targets, window, slides, lam, sigma, bound):
    def retract_extend(st, chunk):
        st.retract(len(chunk))
        st.extend(chunk)
    check_long_stream(retract_extend, drift_targets, window, slides, lam, sigma, bound)


@pytest.mark.parametrize("window, slides, lam, sigma, bound", LONG_STREAMS)
def test_long_stream_slides_keep_inverse_close_to_oracle(drift_targets, window, slides, lam, sigma, bound):
    check_long_stream(RegGramState.slide, drift_targets, window, slides, lam, sigma, bound)


def check_long_stream(step, X, window, slides, lam, sigma, bound):
    chunk = 50
    assert X.shape[0] >= window + slides * chunk
    kernel = KernelSpec(sigma=sigma)
    st = RegGramState(X[:window], lam, kernel)
    checkpoints = range(slides // 5, slides + 1, slides // 5)
    errors = []
    for k in range(1, slides + 1):
        step(st, X[window + (k - 1) * chunk: window + k * chunk])
        if k in checkpoints:
            _, p = direct_inverse_oracle(st.window, lam, kernel)
            errors.append(np.abs(st.p - p).max() / np.abs(p).max())
    assert len(errors) == 5
    assert max(errors) < bound, errors
    assert errors[-1] <= 10 * errors[0], errors
