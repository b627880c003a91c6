import json

import numpy as np
import pytest

from okc import (
    InvalidInputError,
    KernelSpec,
    RegGramState,
    fit_boundary,
    fit_reconstruction,
    gram,
    load_model,
    rejection_threshold,
    save_model,
)
from okc.models import from_snapshot, to_snapshot

K1 = KernelSpec(sigma=1.0)


def make_state(rng, h, n=2, lam=10.0, sigma=1.0):
    return RegGramState(rng.normal(size=(h, n)), lam, KernelSpec(sigma=sigma))


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
    m2 = fit_boundary(make_state(np.random.default_rng(2), 40), 0.1, target_value=3.0)
    np.testing.assert_allclose(m2.beta, 3.0 * m.beta, atol=1e-10)


def test_boundary_scoring_training_sample_matches_train_distance():
    rng = np.random.default_rng(3)
    st = make_state(rng, 30)
    m = fit_boundary(st, 0.1)
    d = m.scores(st.window)
    np.testing.assert_array_equal(np.sort(d)[::-1], m.train_distances)


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
    xhat = gram(K1, x, x) @ m.b_matrix
    np.testing.assert_allclose(xhat, x, rtol=1e-6)
    assert m.train_distances[0] < 1e-10


def test_reconstruction_identical_window_scores_equal():
    st = RegGramState(np.tile([1.5, 2.0], (6, 1)), 1e3, K1)
    m = fit_reconstruction(st, 0.2)
    assert np.all(m.train_distances == m.train_distances[0])
    assert m.theta == m.train_distances[0]


def test_reconstruction_sse_matches_naive_loop():
    rng = np.random.default_rng(6)
    st = make_state(rng, 30, n=3)
    m = fit_reconstruction(st, 0.1)
    Z = rng.normal(size=(8, 3))
    xhat = gram(K1, Z, st.window) @ m.b_matrix
    expected = np.array([
        sum((Z[t, j] - xhat[t, j]) ** 2 for j in range(3)) for t in range(8)
    ])
    np.testing.assert_allclose(m.scores(Z), expected, rtol=1e-12)


def test_reconstruction_b_is_p_times_window():
    rng = np.random.default_rng(7)
    st = make_state(rng, 40, n=4)
    m = fit_reconstruction(st, 0.1)
    np.testing.assert_allclose(m.b_matrix, st.p @ st.window, atol=1e-10)


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


def test_decide_returns_predictions():
    rng = np.random.default_rng(11)
    st = make_state(rng, 30)
    m = fit_boundary(st, 0.1)
    preds = m.decide(rng.normal(size=(5, 2)))
    assert len(preds) == 5
    for p in preds:
        assert p.label in (1, -1)
        assert p.score >= 0
        assert (p.label == 1) == (p.score <= m.theta)


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
        return fit_boundary(state, model.eta, model.target_value)
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


def test_snapshot_rejects_unknown_version():
    rng = np.random.default_rng(18)
    m = fit_boundary(make_state(rng, 10), 0.1)
    doc = to_snapshot(m)
    doc["format_version"] = 99
    with pytest.raises(InvalidInputError):
        from_snapshot(doc)


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
