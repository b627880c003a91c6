import json

import numpy as np
import pytest

from okc import (
    DimensionError,
    DriftStreamSpec,
    IllConditionedError,
    InvalidInputError,
    KernelSpec,
    RegGramState,
    fit_boundary,
    fit_reconstruction,
    gen_stream,
    gram,
    load_model,
    rejection_threshold,
    save_model,
    select,
)
from okc.models import MODELS, from_snapshot, to_snapshot

K1 = KernelSpec(sigma=1.0)


def make_state(rng, h, n=2, lam=10.0, sigma=1.0):
    return RegGramState(rng.normal(size=(h, n)), lam, KernelSpec(sigma=sigma))


def exact_training_scores(X, lam, sigma, framework, digits=50):
    """Training scores ``|K beta - 1|`` (boundary) or ``||x_i - (K B)_i||^2``
    (reconstruction) of every row of ``X``, formed subtractively in
    ``digits``-digit arithmetic from the float inputs."""
    mp = pytest.importorskip("mpmath").mp
    X = np.asarray(X, dtype=float)
    n, dims = X.shape
    with mp.workdps(digits):
        rows = [[mp.mpf(float(v)) for v in x] for x in X]
        K = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                d2 = mp.fsum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
                K[i, j] = mp.exp(-d2 / (2 * mp.mpf(float(sigma)) ** 2))
        phi = K + mp.eye(n) / mp.mpf(float(lam))
        if framework == "boundary":
            predicted = K * mp.lu_solve(phi, mp.matrix([1] * n))
            return np.array([float(abs(predicted[i] - 1)) for i in range(n)])
        recon = [K * mp.lu_solve(phi, mp.matrix([r[c] for r in rows])) for c in range(dims)]
        return np.array([float(mp.fsum((rows[i][c] - recon[c][i]) ** 2 for c in range(dims)))
                         for i in range(n)])


def descending(d):
    return np.sort(d)[::-1]


# ---- threshold rule -------------------------------------------------------


def test_threshold_is_kth_largest():
    d = np.array([0.1, 0.9, 0.5, 0.7, 0.3, 0.2, 0.6, 0.8, 0.4, 1.0])
    # eta=0.2, N=10 -> k=2 -> second largest
    assert rejection_threshold(d, 0.2) == 0.9


def test_threshold_eta_one_is_min():
    rng = np.random.default_rng(0)
    d = rng.random(57)
    assert rejection_threshold(d, 1.0) == d.min()


def test_threshold_floor_zero_uses_max():
    d = np.array([0.3, 0.1, 0.2])
    assert rejection_threshold(d, 0.05) == 0.3  # floor(0.05 * 3) = 0


def test_threshold_sort_oracle_100_samples():
    rng = np.random.default_rng(1)
    d = rng.random(100)
    theta = rejection_threshold(d, 0.05)
    assert theta == np.sort(d)[::-1][4]  # 5th largest
    assert int(np.sum(d > theta)) == 4


def test_threshold_rejects_bad_eta():
    with pytest.raises(InvalidInputError):
        rejection_threshold([0.1], 0.0)
    with pytest.raises(InvalidInputError):
        rejection_threshold([0.1], 1.5)


def test_threshold_tie_breaking_deterministic():
    d = np.array([0.5, 0.5, 0.5, 0.1])
    assert rejection_threshold(d, 0.5) == 0.5


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 101])
def test_threshold_of_a_matrix_is_the_threshold_of_each_column(n):
    rng = np.random.default_rng(n)
    d = rng.integers(0, 4, size=(n, 6)) / 4.0  # few values, so many ties
    d[:, 5] = rng.random(n)
    for eta in [1e-3, 0.05, 0.2, 1 / 3, 0.5, 0.9, 1.0]:
        theta = rejection_threshold(d, eta)
        assert theta.shape == (6,)
        assert theta.tolist() == [rejection_threshold(d[:, j], eta) for j in range(6)]


# ---- boundary model -------------------------------------------------------


def test_boundary_single_sample_weak_regularization():
    # f(x1) = k(x1,x1) / (k(x1,x1) + 1/lam) = 1 / (1 + 1e-8)
    st = RegGramState([[0.7, -0.2]], 1e8, K1)
    m = fit_boundary(st, 0.05)
    assert m.train_distances[0] == pytest.approx(1e-8, rel=1e-3)
    assert m.theta == pytest.approx(1e-8, rel=1e-3)


def test_boundary_beta_is_p_times_targets():
    rng = np.random.default_rng(2)
    st = make_state(rng, 40)
    m = fit_boundary(st, 0.1)
    np.testing.assert_allclose(m.beta, st.p @ np.ones(40), atol=1e-10)


def test_boundary_scoring_training_sample_matches_train_distance():
    # scores() forms |k(x) beta - 1| from kernel rows, the training distances
    # come from |beta| / lambda; both must be the exact scores, and so agree
    rng = np.random.default_rng(3)
    st = make_state(rng, 30)
    m = fit_boundary(st, 0.1)
    d = m.scores(st.window)
    exact = exact_training_scores(st.window, st.lam, 1.0, "boundary")
    np.testing.assert_allclose(d, exact, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(m.train_distances, descending(exact), rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(descending(d), m.train_distances, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
@pytest.mark.parametrize("seed", range(4))
def test_training_scores_keep_their_digits_when_weights_are_large(framework, seed):
    # 43 close 1-D rows with lambda=1e8: the weights are large, and forming
    # K beta - 1 (or X - K B) in floating point cancels most digits of the
    # tiny scores; the closed forms keep them
    X = np.random.default_rng(seed).random((43, 1))
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    m = fit(RegGramState(X, 1e8, K1), 0.05)
    exact = descending(exact_training_scores(X, 1e8, 1.0, framework))
    assert np.max(np.abs(m.train_distances - exact) / exact) < 1e-3


def test_boundary_far_probe_scores_one():
    rng = np.random.default_rng(4)
    st = make_state(rng, 20)
    m = fit_boundary(st, 0.1)
    far = np.full((1, 2), 1e3)
    assert m.scores(far)[0] == pytest.approx(1.0, abs=1e-10)


def test_boundary_batch_equals_single():
    rng = np.random.default_rng(5)
    st = make_state(rng, 25)
    m = fit_boundary(st, 0.1)
    Z = rng.normal(size=(10, 2))
    batch = m.scores(Z)
    singles = np.array([m.scores(Z[i : i + 1])[0] for i in range(10)])
    # row-independent up to BLAS accumulation order (gemm vs gemv)
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


# ---- reconstruction model -------------------------------------------------


def test_reconstruction_single_sample_weak_regularization():
    x = np.array([[0.7, -0.2]])
    st = RegGramState(x, 1e8, K1)
    m = fit_reconstruction(st, 0.05)
    xhat = gram(K1, x, x) @ m.beta
    np.testing.assert_allclose(xhat, x, rtol=1e-6)
    assert m.train_distances[0] < 1e-10


def test_reconstruction_identical_window_scores_equal():
    st = RegGramState(np.tile([1.5, 2.0], (6, 1)), 1e3, K1)
    m = fit_reconstruction(st, 0.2)
    assert np.all(m.train_distances == m.train_distances[0])
    assert m.theta == m.train_distances[0]


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_copies_of_a_window_row_share_its_score(framework):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 2))
    X[[7, 19, 25]] = X[3]
    X[11], X[12] = [0.0, 0.5], [-0.0, 0.5]  # equal rows, different bytes
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    m = fit(RegGramState(X, 1e3, K1), 0.1)
    source = np.arange(30)
    source[[7, 19, 25]] = 3
    source[12] = 11
    d = m._training_scores()
    assert np.array_equal(m.train_distances, descending(d[source]))


def test_reconstruction_sse_matches_naive_loop():
    rng = np.random.default_rng(6)
    st = make_state(rng, 30, n=3)
    m = fit_reconstruction(st, 0.1)
    Z = rng.normal(size=(8, 3))
    xhat = gram(K1, Z, st.window) @ m.beta
    expected = np.array([
        sum((Z[t, j] - xhat[t, j]) ** 2 for j in range(3)) for t in range(8)
    ])
    np.testing.assert_allclose(m.scores(Z), expected, rtol=1e-12)


def test_reconstruction_b_is_p_times_window():
    rng = np.random.default_rng(7)
    st = make_state(rng, 40, n=4)
    m = fit_reconstruction(st, 0.1)
    np.testing.assert_allclose(m.beta, st.p @ st.window, atol=1e-10)


def test_reconstruction_far_probe_scores_squared_norm():
    rng = np.random.default_rng(8)
    st = make_state(rng, 20)
    m = fit_reconstruction(st, 0.1)
    z = np.array([[500.0, -500.0]])
    assert m.scores(z)[0] == pytest.approx(float(np.sum(z * z)), rel=1e-9)


def test_reconstruction_scores_nonnegative():
    rng = np.random.default_rng(9)
    st = make_state(rng, 30, n=3)
    m = fit_reconstruction(st, 0.1)
    assert np.all(m.scores(rng.normal(size=(50, 3))) >= 0)


# ---- decision -------------------------------------------------------------


def test_decide_labels():
    rng = np.random.default_rng(10)
    st = make_state(rng, 30)
    m = fit_boundary(st, 0.1)
    m.theta = 0.5
    fake_scores = np.array([0.2, 0.5, 0.5 + 1e-12])
    np.testing.assert_array_equal(m.labels_for(fake_scores), [1, 1, -1])


def test_decision_monotone_in_score():
    rng = np.random.default_rng(12)
    st = make_state(rng, 50)
    m = fit_boundary(st, 0.1)
    Z = rng.normal(size=(200, 2)) * 2
    s = m.scores(Z)
    labels = m.labels_for(s)
    accepted = s[labels == 1]
    rejected = s[labels == -1]
    if accepted.size and rejected.size:
        assert accepted.max() <= rejected.min()


# ---- sliding --------------------------------------------------------------


def batch_refit(model, framework):
    state = RegGramState(model.state.window, model.state.lam, model.state.kernel)
    if framework == "boundary":
        return fit_boundary(state, model.eta)
    return fit_reconstruction(state, model.eta)


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_slide_matches_batch_refit(framework):
    rng = np.random.default_rng(13)
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    m = fit(make_state(rng, 60, n=3), 0.05)
    for _ in range(8):
        m.slide(rng.normal(size=(15, 3)))
    ref = batch_refit(m, framework)
    probes = rng.normal(size=(300, 3)) * 2
    np.testing.assert_allclose(m.scores(probes), ref.scores(probes), atol=1e-6)
    np.testing.assert_array_equal(m.labels_for(m.scores(probes)), ref.labels_for(ref.scores(probes)))
    assert abs(m.theta - ref.theta) < 1e-6


def test_slide_keeps_window_size():
    rng = np.random.default_rng(14)
    m = fit_boundary(make_state(rng, 150), 0.05)
    m.slide(rng.normal(size=(50, 2)))
    assert m.state.size == 150


def test_slide_with_reinserted_chunk_rotates_window():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(20, 2))
    m = fit_boundary(RegGramState(X, 10.0, K1), 0.1)
    oldest = X[:5].copy()
    m.slide(oldest)
    assert np.array_equal(m.state.window, np.vstack([X[5:], X[:5]]))
    ref = fit_boundary(RegGramState(X, 10.0, K1), 0.1)
    probes = rng.normal(size=(100, 2))
    np.testing.assert_allclose(m.scores(probes), ref.scores(probes), atol=1e-8)


def _duplicated_rows_slide():
    # 36 distinct points fill a window of 150 with a 1e-8 ridge: the Schur
    # complement of the first chunk is refused after the forget has happened
    X = np.random.default_rng(0).integers(1, 7, size=(200, 2)).astype(float)
    return fit_boundary(RegGramState(X[:150], 1e8, KernelSpec(sigma=3.0)), 0.05), X[150:]


def _small_model():
    return fit_boundary(make_state(np.random.default_rng(17), 20), 0.05)


@pytest.mark.parametrize("setup, error", [
    (lambda: (_small_model(), [[np.nan, 1.0]]), InvalidInputError),
    (lambda: (_small_model(), np.ones((3, 3))), DimensionError),
    (lambda: (_small_model(), np.ones((2, 2, 2))), DimensionError),
    (_duplicated_rows_slide, IllConditionedError),
], ids=["nan", "wrong-width", "3-d", "ill-conditioned"])
def test_refused_chunk_leaves_model_as_it_was(setup, error):
    m, chunk = setup()
    probes = np.random.default_rng(18).normal(size=(30, 2)) * 3
    before = [a.tobytes() for a in (m.state.window, m.state.p, m.beta, m.scores(probes))]
    theta = m.theta
    with pytest.raises(error):
        m.slide(chunk)
    after = [a.tobytes() for a in (m.state.window, m.state.p, m.beta, m.scores(probes))]
    assert after == before
    assert m.theta == theta


def test_path_independence_of_window_contents():
    # same final window via different extend/retract paths: same theta/labels
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 2))
    a = fit_boundary(RegGramState(X[:30], 10.0, K1), 0.1)
    a.slide(X[30:])  # forget 10, absorb 10
    b_state = RegGramState(X[10:20], 10.0, K1)
    b_state.extend(X[20:])
    b = fit_boundary(b_state, 0.1)
    assert np.array_equal(a.state.window, b.state.window)
    assert abs(a.theta - b.theta) < 1e-6
    probes = rng.normal(size=(500, 2)) * 2
    np.testing.assert_array_equal(a.labels_for(a.scores(probes)), b.labels_for(b.scores(probes)))


ORIGIN_DEPENDENT = pytest.mark.xfail(strict=True, reason="ROADMAP item 7")


@pytest.mark.parametrize("framework", ["boundary", pytest.param("reconstruction", marks=ORIGIN_DEPENDENT)])
@pytest.mark.parametrize("pair", ["fixed", "selected"])
def test_shifting_window_and_probes_together_leaves_scores_and_labels(framework, pair):
    # The first window of criterion 5's stream and probes around its mean,
    # scored as they are and moved by (20, 0). The RBF kernel depends only on
    # differences, so a model should not see the move. The reconstruction
    # model regresses rows onto their own coordinates, so it does (ROADMAP
    # item 7): its scores change by about 7e2, and labels flip.
    stream = gen_stream(DriftStreamSpec(family="unimodal_drift", total=20_000, drift_period=200,
                                        class_balance=0.5, velocity=[0.25, 0.0], class_offset=[8.0, 0.0],
                                        seed=42))
    window = stream.X[stream.y == 1][:150]
    probes = window.mean(axis=0) + np.random.default_rng(0).normal(scale=3.0, size=(300, 2))
    if pair == "fixed":
        lam, sigma = 10.0, 2.0
    else:
        chosen = select(window, framework)
        lam, sigma = chosen.lam, chosen.sigma
    fitted = []
    for shift in (np.zeros(2), np.array([20.0, 0.0])):
        model = MODELS[framework](RegGramState(window + shift, lam, KernelSpec(sigma=sigma)), 0.05)
        scores = model.scores(probes + shift)
        fitted.append((scores, model.labels_for(scores), model.theta))
    (scores, labels, theta), (moved_scores, moved_labels, _) = fitted
    assert np.abs(moved_scores - scores).max() <= 1e-9
    flipped = labels != moved_labels
    assert (np.abs(scores[flipped] - theta) <= 1e-9).all()


# ---- snapshots ------------------------------------------------------------


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_snapshot_round_trip(tmp_path, framework):
    rng = np.random.default_rng(17)
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    m = fit(make_state(rng, 30, n=2, lam=5.0, sigma=1.3), 0.1)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert type(loaded) is type(m)
    assert loaded.theta == m.theta
    probes = rng.normal(size=(50, 2))
    np.testing.assert_allclose(loaded.scores(probes), m.scores(probes), atol=1e-12)


def test_snapshot_round_trip_of_a_numpy_float_sigma(tmp_path):
    # KernelSpec holds sigma as the float its check returns, so it serializes
    rng = np.random.default_rng(19)
    m = fit_boundary(RegGramState(rng.normal(size=(20, 2)), 5.0, KernelSpec(sigma=np.float32(2.0))), 0.1)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.state.kernel == KernelSpec(2.0)
    assert loaded.theta == m.theta
    probes = rng.normal(size=(50, 2))
    np.testing.assert_allclose(loaded.scores(probes), m.scores(probes), atol=1e-12)


def test_snapshot_rejects_unknown_version():
    rng = np.random.default_rng(18)
    m = fit_boundary(make_state(rng, 10), 0.1)
    doc = to_snapshot(m)
    doc["format_version"] = 99
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


def test_boundary_snapshot_has_no_target_value():
    doc = snapshot_doc()
    assert doc["framework"] == "boundary"
    assert "target_value" not in doc


def test_snapshot_with_unit_target_value_loads():
    # older version-1 documents record the boundary target, which was 1 by default
    doc = snapshot_doc()
    model = from_snapshot(doc | {"target_value": 1.0})
    probes = np.random.default_rng(21).normal(size=(20, 2))
    np.testing.assert_array_equal(model.scores(probes), from_snapshot(doc).scores(probes))


def test_snapshot_with_other_target_value_is_refused():
    with pytest.raises(InvalidInputError, match="target_value"):
        from_snapshot(snapshot_doc() | {"target_value": 3.0})


def test_load_model_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 1, "framework": ')
    with pytest.raises(InvalidInputError, match="model.json"):
        load_model(path)


def test_snapshot_theta_is_authoritative():
    rng = np.random.default_rng(19)
    m = fit_boundary(make_state(rng, 10), 0.1)
    doc = to_snapshot(m)
    doc["theta"] = 123.0
    assert from_snapshot(doc).theta == 123.0


def snapshot_doc():
    return to_snapshot(fit_boundary(make_state(np.random.default_rng(20), 10), 0.1))


@pytest.mark.parametrize("key", ["framework", "kernel", "lambda", "eta", "theta", "window"])
def test_snapshot_missing_key(key):
    doc = snapshot_doc()
    del doc[key]
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


@pytest.mark.parametrize("kernel", [1.5, "rbf", [1.0], None, {"kind": "rbf"}])
def test_snapshot_kernel_not_an_object(kernel):
    doc = snapshot_doc()
    doc["kernel"] = kernel
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


def test_snapshot_unknown_kernel_kind():
    doc = snapshot_doc()
    doc["kernel"] = {"kind": "poly", "sigma": 1}
    with pytest.raises(InvalidInputError, match="kind"):
        from_snapshot(doc)


def test_snapshot_ragged_window():
    doc = snapshot_doc()
    doc["window"][3] = doc["window"][3][:1]
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


@pytest.mark.parametrize("window", [[], [[]]])
def test_snapshot_empty_window(window):
    doc = snapshot_doc()
    doc["window"] = window
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_snapshot_non_finite_window(bad):
    doc = snapshot_doc()
    doc["window"][2][1] = bad
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


@pytest.mark.parametrize("key", ["theta", "lambda", "eta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
def test_snapshot_non_finite_scalar(key, bad):
    doc = snapshot_doc()
    doc[key] = bad
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


@pytest.mark.parametrize("lam", [0.0, -10.0])
def test_snapshot_non_positive_lambda(lam):
    doc = snapshot_doc()
    doc["lambda"] = lam
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


def test_snapshot_loaded_from_json_with_nan_theta(tmp_path):
    # JSON documents may spell NaN; load_model must still refuse them
    path = tmp_path / "model.json"
    path.write_text(json.dumps(snapshot_doc() | {"theta": float("nan")}))
    with pytest.raises(InvalidInputError):
        load_model(path)
