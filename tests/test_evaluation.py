from fractions import Fraction

import numpy as np
import pytest

from okc import (
    DriftStreamSpec,
    InsufficientDataError,
    InvalidInputError,
    KernelSpec,
    LabeledSample,
    RegGramState,
    RunConfig,
    UndefinedMetricError,
    auc,
    fit_boundary,
    gen_stream,
    run_stationary,
    run_stream,
    stepwise_accuracy,
)
import okc.models
from okc.evaluation import batch_sizes
from okc.models import BoundaryModel, ReconstructionModel, fit_reconstruction
from okc.streams import features_of, labels_of


# ---- auc --------------------------------------------------------------------


def test_auc_perfect():
    assert auc({"tp": 10, "fn": 0, "tn": 20, "fp": 0}) == 100.0


def test_auc_direct_formula():
    # sens 0.9, spec 0.8
    assert auc({"tp": 9, "fn": 1, "tn": 8, "fp": 2}) == pytest.approx(85.0)


def test_auc_accept_everything_is_50():
    assert auc({"tp": 40, "fn": 0, "tn": 0, "fp": 60}) == 50.0


def test_auc_undefined_without_both_classes():
    with pytest.raises(UndefinedMetricError):
        auc({"tp": 5, "fn": 1, "tn": 0, "fp": 0})
    with pytest.raises(UndefinedMetricError):
        auc({"tp": 0, "fn": 0, "tn": 5, "fp": 1})


def test_auc_invariant_under_sample_order():
    rng = np.random.default_rng(0)
    actual = rng.choice([1, -1], size=500)
    predicted = rng.choice([1, -1], size=500)
    from okc.evaluation import _confusion

    perm = rng.permutation(500)
    assert auc(_confusion(actual, predicted)) == auc(_confusion(actual[perm], predicted[perm]))


# ---- step series ------------------------------------------------------------


def test_batch_sizes_spread_remainder_leading():
    assert batch_sizes(205, 100) == [3] * 5 + [2] * 95
    assert batch_sizes(200, 100) == [2] * 100
    assert sum(batch_sizes(12345, 100)) == 12345


def test_stepwise_all_correct():
    assert np.all(stepwise_accuracy([True] * 150, 100) == 1.0)


def test_stepwise_batches_of_two():
    correct = [True, False] * 100  # 200 results
    acc = stepwise_accuracy(correct, 100)
    assert acc.shape == (100,)
    assert np.all(acc == 0.5)


def test_stepwise_weighted_mean_equals_overall_exactly():
    rng = np.random.default_rng(1)
    correct = rng.random(937) < 0.8
    acc = stepwise_accuracy(correct, 100)
    sizes = batch_sizes(937, 100)
    # recompute in exact rational arithmetic
    pos = 0
    weighted = Fraction(0)
    for size in sizes:
        hits = int(np.sum(correct[pos : pos + size]))
        weighted += Fraction(hits, 937)
        pos += size
    assert weighted == Fraction(int(np.sum(correct)), 937)
    # and the float vector reproduces each batch accuracy exactly
    pos = 0
    for i, size in enumerate(sizes):
        assert acc[i] == np.sum(correct[pos : pos + size]) / size
        pos += size


def test_stepwise_too_few_samples():
    with pytest.raises(InsufficientDataError):
        stepwise_accuracy([True] * 99, 100)


# ---- config validation ------------------------------------------------------


def test_runconfig_validation():
    with pytest.raises(InvalidInputError):
        RunConfig(mode="sliding", window=50, chunk=50).validate()
    with pytest.raises(InvalidInputError):
        RunConfig(runs=0).validate()
    with pytest.raises(InvalidInputError):
        RunConfig(framework="knn").validate()
    with pytest.raises(InvalidInputError):
        RunConfig(sigma=-1.0).validate()
    RunConfig(mode="static", window=50, chunk=50).validate()  # chunk unused in static


# ---- stationary protocol ----------------------------------------------------


def two_blob_dataset(n=400, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        if rng.random() < 0.5:
            samples.append(LabeledSample(rng.normal(size=2), 1, i))
        else:
            samples.append(LabeledSample(rng.normal(size=2) + [separation, 0.0], -1, i))
    return samples


def test_stationary_separable_blobs_high_auc():
    # 10-sigma separation with a loose rejection quantile: near-perfect AUC
    data = two_blob_dataset(n=800)
    cfg = RunConfig(framework="boundary", sigma=3.0, lam=1.0, eta=0.01, runs=5, seed=0)
    report = run_stationary(data, cfg)
    assert report.auc >= 99.0


def test_stationary_deterministic():
    data = two_blob_dataset(seed=3)
    cfg = RunConfig(framework="boundary", sigma=1.5, lam=10.0, runs=2, seed=5)
    a, b = run_stationary(data, cfg), run_stationary(data, cfg)
    assert a.overall_accuracy == b.overall_accuracy
    assert a.auc == b.auc
    assert a.confusion == b.confusion
    assert a.step_accuracy == b.step_accuracy


def test_stationary_report_invariants():
    data = two_blob_dataset(seed=4)
    cfg = RunConfig(framework="reconstruction", sigma=1.5, lam=10.0, runs=3, seed=1)
    rep = run_stationary(data, cfg)
    c = rep.confusion
    total = c["tp"] + c["fn"] + c["tn"] + c["fp"]
    assert rep.overall_accuracy == (c["tp"] + c["tn"]) / total
    assert len(rep.run_aucs) == 3
    assert rep.auc == pytest.approx(np.mean(rep.run_aucs))
    assert rep.timing["forget_s"] == 0.0
    # pooled accuracy equals the size-weighted mean of the step series
    sizes = batch_sizes(total, 100)
    weighted = sum(Fraction(a).limit_denominator(10**12) * s for a, s in zip(rep.step_accuracy, sizes))
    assert float(weighted / total) == pytest.approx(rep.overall_accuracy, abs=1e-12)


def test_stationary_single_run_auc_matches_confusion():
    data = two_blob_dataset(seed=6)
    cfg = RunConfig(framework="boundary", sigma=1.5, lam=10.0, runs=1, seed=2)
    rep = run_stationary(data, cfg)
    assert rep.auc == auc(rep.confusion)


def test_stationary_needs_both_classes():
    data = [LabeledSample(np.zeros(2), 1, i) for i in range(50)]
    with pytest.raises(InsufficientDataError):
        run_stationary(data, RunConfig(sigma=1.0))


def test_stationary_auto_sigma_resolves_once():
    data = two_blob_dataset(n=200, seed=8)
    cfg = RunConfig(framework="boundary", sigma="auto", runs=2, seed=0)
    rep = run_stationary(data, cfg)
    assert rep.config["resolved_sigma"] > 0
    assert rep.config["resolved_lambda"] > 0
    assert rep.config["sigma"] == "auto"


# ---- stream protocol --------------------------------------------------------


def drifting_stream(total=6000, velocity=0.3, seed=21):
    return gen_stream(DriftStreamSpec(
        family="unimodal_drift", total=total, drift_period=100,
        velocity=[velocity, 0.0], class_offset=[8.0, 0.0], seed=seed,
    ))


def stream_cfg(mode, **kw):
    base = dict(framework="boundary", window=150, chunk=50, eta=0.05,
                lam=10.0, sigma=2.0, seed=0)
    base.update(kw)
    return RunConfig(mode=mode, **base)


def test_stream_static_never_forgets():
    rep = run_stream(drifting_stream(3000), stream_cfg("static"))
    assert rep.timing["forget_s"] == 0.0
    assert rep.timing["train_s"] > 0.0
    assert rep.timing["test_s"] > 0.0


def test_stream_sliding_times_all_phases():
    rep = run_stream(drifting_stream(3000), stream_cfg("sliding"))
    assert rep.timing["forget_s"] > 0.0
    assert rep.timing["train_s"] > 0.0
    assert rep.timing["test_s"] > 0.0


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_stream_static_scores_in_window_sized_blocks(monkeypatch, framework):
    # static mode scores the whole rest of the stream after one fit; it must
    # do so in kernel blocks no taller than the window, with the labels of a
    # single-batch scoring
    stream = drifting_stream(2000, seed=31)
    cfg = stream_cfg("static", framework=framework, window=60)
    rows, labels = [], []
    real_gram = okc.models.gram

    def recording_gram(spec, X, Y=None):
        rows.append(len(X))
        return real_gram(spec, X, Y)

    model_cls = BoundaryModel if framework == "boundary" else ReconstructionModel
    real_labels_for = model_cls.labels_for

    def recording_labels_for(self, scores):
        out = real_labels_for(self, scores)
        labels.append(out)
        return out

    monkeypatch.setattr(okc.models, "gram", recording_gram)
    monkeypatch.setattr(model_cls, "labels_for", recording_labels_for)
    run_stream(stream, cfg)
    monkeypatch.undo()

    X, y = features_of(stream), labels_of(stream)
    init = np.flatnonzero(y == 1)[: cfg.window]
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    model = fit(RegGramState(X[init], cfg.lam, KernelSpec(sigma=cfg.sigma)), cfg.eta)
    rest = X[int(init[-1]) + 1 :]
    assert len(rows) > 1 and max(rows) <= cfg.window
    assert sum(rows) == len(rest)
    assert np.array_equal(np.concatenate(labels), model.labels_for(model.scores(rest)))


def test_stream_too_short():
    stream = drifting_stream(100)
    with pytest.raises(InsufficientDataError):
        run_stream(stream, stream_cfg("sliding"))


def test_stream_report_shape():
    rep = run_stream(drifting_stream(4000), stream_cfg("sliding"))
    c = rep.confusion
    total = sum(c.values())
    assert rep.overall_accuracy == (c["tp"] + c["tn"]) / total
    assert len(rep.step_accuracy) == 100
    assert rep.auc is not None


def test_stream_prequential_matches_per_sample_replay():
    # oracle: walk the stream one sample at a time, always scoring before the
    # model may slide, using only public model operations
    stream = drifting_stream(2500, seed=33)
    cfg = stream_cfg("sliding")
    rep = run_stream(stream, cfg)

    X, y = features_of(stream), labels_of(stream)
    tpos = np.flatnonzero(y == 1)
    init = tpos[: cfg.window]
    model = fit_boundary(RegGramState(X[init], cfg.lam, KernelSpec(sigma=cfg.sigma)), cfg.eta)
    first = int(init[-1]) + 1
    predicted, pending = [], []
    for pos in range(first, len(stream)):
        s = model.scores(X[pos : pos + 1])[0]
        predicted.append(1 if s <= model.theta else -1)
        if y[pos] == 1:
            pending.append(pos)
            if len(pending) == cfg.chunk:
                model.slide(X[pending])
                pending = []
    predicted = np.array(predicted)
    actual = y[first:]
    conf = {
        "tp": int(np.sum((actual == 1) & (predicted == 1))),
        "fn": int(np.sum((actual == 1) & (predicted == -1))),
        "tn": int(np.sum((actual == -1) & (predicted == -1))),
        "fp": int(np.sum((actual == -1) & (predicted == 1))),
    }
    assert rep.confusion == conf
    assert rep.overall_accuracy == np.mean(predicted == actual)
    assert rep.step_accuracy == stepwise_accuracy(predicted == actual, 100).tolist()


def test_stream_sliding_beats_static_under_drift():
    stream = drifting_stream(8000, velocity=0.4, seed=19)
    sliding = run_stream(stream, stream_cfg("sliding"))
    static = run_stream(stream, stream_cfg("static"))
    assert sliding.overall_accuracy - static.overall_accuracy >= 0.15


def test_stream_sliding_close_to_static_without_drift():
    stream = gen_stream(DriftStreamSpec(
        family="unimodal_drift", total=8000, drift_period=200,
        velocity=[0.0, 0.0], class_offset=[10.0, 0.0], seed=2,
    ))
    sliding = run_stream(stream, stream_cfg("sliding"))
    static = run_stream(stream, stream_cfg("static"))
    assert abs(sliding.overall_accuracy - static.overall_accuracy) <= 0.02


def test_stream_deterministic_apart_from_timing():
    stream = drifting_stream(3000, seed=29)
    a = run_stream(stream, stream_cfg("sliding"))
    b = run_stream(stream, stream_cfg("sliding"))
    assert a.confusion == b.confusion
    assert a.overall_accuracy == b.overall_accuracy
    assert a.step_accuracy == b.step_accuracy
    assert a.auc == b.auc
