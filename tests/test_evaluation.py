import json
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction

import numpy as np
import pytest

from okc import (
    Dataset,
    DatasetSchema,
    DriftStreamSpec,
    InsufficientDataError,
    InvalidInputError,
    KernelSpec,
    OkcError,
    RegGramState,
    RunConfig,
    SelectionConfig,
    SpecError,
    UndefinedMetricError,
    auc,
    consistency_threshold,
    fit_boundary,
    gen_ring,
    gen_stream,
    run_stationary,
    rejection_threshold,
    run_stream,
    select,
    sigma_grid,
    slide_benchmark,
    stepwise_accuracy,
)
import okc.models
from okc.models import BoundaryModel, ReconstructionModel, fit_reconstruction, from_snapshot, to_snapshot


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
    # one hit at each expected batch start, so batch i reads 1 / size_i
    for n, sizes in ((205, [3] * 5 + [2] * 95), (200, [2] * 100), (12345, [124] * 45 + [123] * 55)):
        assert sum(sizes) == n
        correct = np.zeros(n, dtype=bool)
        correct[np.cumsum([0] + sizes[:-1])] = True
        assert np.array_equal(stepwise_accuracy(correct, 100), 1.0 / np.array(sizes))


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
    sizes = [10] * 37 + [9] * 63
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
        RunConfig(mode="sliding", window=50, chunk=50)
    with pytest.raises(InvalidInputError):
        RunConfig(runs=0)
    with pytest.raises(InvalidInputError):
        RunConfig(framework="knn")
    with pytest.raises(InvalidInputError):
        RunConfig(sigma=-1.0)
    RunConfig(mode="static", window=50, chunk=50)  # chunk unused in static
    RunConfig(mode="stationary", window=10, chunk=50)  # and in stationary


@pytest.mark.parametrize("bad", [{"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": "wide"},
                                 {"lam": float("nan")}, {"lam": float("inf")}])
def test_runconfig_rejects_non_finite_or_non_numeric_hyperparameters(bad):
    with pytest.raises(InvalidInputError):
        RunConfig(**bad)


@pytest.mark.parametrize("settings, name", [(RunConfig(), "window"), (SelectionConfig(), "lambdas"),
                                            (DriftStreamSpec(), "total"), (DatasetSchema(), "delimiter"),
                                            (KernelSpec(), "sigma")],
                         ids=["RunConfig", "SelectionConfig", "DriftStreamSpec", "DatasetSchema", "KernelSpec"])
def test_settings_cannot_change_once_checked(settings, name):
    with pytest.raises(FrozenInstanceError):
        setattr(settings, name, getattr(settings, name))


def test_settings_hold_the_values_their_checks_return():
    # NumPy scalars and arrays are accepted as numbers and held as Python ones
    cfg = RunConfig(window=np.int64(150), chunk=np.int32(50), eta=np.float32(0.5), lam=10, sigma=np.float32(2.0),
                    runs=np.int64(2), seed=np.uint8(3))
    assert asdict(cfg) == {"framework": "boundary", "mode": "sliding", "window": 150, "chunk": 50, "eta": 0.5,
                           "lam": 10.0, "sigma": 2.0, "runs": 2, "seed": 3}
    assert [type(v) for v in asdict(cfg).values()] == [str, str, int, int, float, float, float, int, int]
    sel = SelectionConfig(folds=np.int64(3), sigma_thr=1, eta=np.float64(0.1), lambdas=[1, np.float32(10.0)],
                          sigmas=np.array([0.5, 2.0]))
    assert (sel.folds, sel.sigma_thr, sel.lambdas, sel.sigmas) == (3, 1.0, (1.0, 10.0), (0.5, 2.0))
    assert {type(v) for v in (sel.sigma_thr, sel.eta, *sel.lambdas, *sel.sigmas)} == {float}
    spec = DriftStreamSpec(total=np.int64(10), spread=np.float32(2.0), velocity=[1, 0],
                           class_offset=np.array([3.0, 0.0]))
    assert (spec.total, spec.spread, spec.velocity, spec.class_offset) == (10, 2.0, (1.0, 0.0), (3.0, 0.0))
    assert {type(v) for v in (spec.spread, *spec.velocity, *spec.class_offset)} == {float}
    assert type(spec.total) is int
    assert type(DatasetSchema(label_column=np.int64(2)).label_column) is int
    assert type(KernelSpec(np.float32(2.0)).sigma) is float


def test_numpy_typed_run_config_report_writes_python_numbers(tmp_path):
    # the report's config is the checked RunConfig, so NumPy scalars given
    # as settings reach the JSON as plain numbers
    cfg = RunConfig(window=np.int64(150), chunk=np.int64(50), sigma=np.float32(2.0), lam=10.0)
    report = run_stream(two_blob_dataset(n=600, seed=2), cfg)
    report.write_json(tmp_path / "report.json")
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config == {"framework": "boundary", "mode": "sliding", "window": 150, "chunk": 50, "eta": 0.05,
                      "lambda": 10.0, "sigma": 2.0, "runs": 1, "seed": 0, "resolved_lambda": 10.0,
                      "resolved_sigma": 2.0}
    assert [type(v) for v in config.values()] == [str, str, int, int, float, float, float, int, int, float, float]


def _snapshot_with(**changes):
    doc = to_snapshot(fit_boundary(RegGramState(np.random.default_rng(0).normal(size=(10, 2)), 1.0,
                                                KernelSpec()), 0.1))
    return doc | changes


BLOBS = np.random.default_rng(1).normal(size=(20, 2))


@pytest.mark.parametrize("call, error", [
    (lambda: gen_ring(-1, 1, 2), SpecError),
    (lambda: stepwise_accuracy(np.ones(10), 0), InvalidInputError),
    (lambda: KernelSpec("a"), InvalidInputError),
    (lambda: RegGramState(np.eye(3), 1.0, KernelSpec()).retract(2.5), InvalidInputError),
    (lambda: RunConfig(window="a"), InvalidInputError),
    (lambda: RunConfig(eta="x"), InvalidInputError),
    (lambda: RunConfig(lam="x"), InvalidInputError),
    # each raised a bare TypeError or ValueError
    (lambda: gen_ring(2.5, 1, 2), SpecError),
    (lambda: gen_ring(5, 1, 2, seed=-1), SpecError),
    (lambda: RegGramState(BLOBS, "a", KernelSpec()), InvalidInputError),
    (lambda: gen_stream(DriftStreamSpec(total="a")), SpecError),
    (lambda: gen_stream(DriftStreamSpec(total=True)), SpecError),
    (lambda: gen_stream(DriftStreamSpec(n_dims=2.0)), SpecError),
    (lambda: gen_stream(DriftStreamSpec(seed=-1)), SpecError),
    (lambda: gen_stream(DriftStreamSpec(seed=1.5)), SpecError),
    (lambda: rejection_threshold([1.0, 2.0], "a"), InvalidInputError),
    (lambda: slide_benchmark(window="a"), InvalidInputError),
    (lambda: select(BLOBS, framework=[]), InvalidInputError),
    (lambda: select(BLOBS, seed=1.5), InvalidInputError),
    (lambda: SelectionConfig(folds="a"), InvalidInputError),
    (lambda: SelectionConfig(eta="a"), InvalidInputError),
    (lambda: stepwise_accuracy(np.ones(10), "a"), InvalidInputError),
    (lambda: sigma_grid(BLOBS, "a"), InvalidInputError),
    # each was accepted
    (lambda: select(BLOBS, cfg=SelectionConfig(folds=2.5)), InvalidInputError),
    (lambda: RunConfig(eta=True), InvalidInputError),
    (lambda: RunConfig(lam=True), InvalidInputError),
    (lambda: KernelSpec(True), InvalidInputError),
    (lambda: gen_stream(DriftStreamSpec(drift_period=2.5)), SpecError),
    (lambda: gen_stream(DriftStreamSpec(spread=True)), SpecError),
    (lambda: consistency_threshold(10, 0.0, 2), InvalidInputError),
    (lambda: from_snapshot(_snapshot_with(**{"lambda": "5"})), InvalidInputError),
    (lambda: from_snapshot(_snapshot_with(eta=True)), InvalidInputError),
    (lambda: from_snapshot(_snapshot_with(theta="0.5")), InvalidInputError),
    (lambda: from_snapshot(_snapshot_with(kernel={"kind": "rbf", "sigma": "2"})), InvalidInputError),
], ids=["gen_ring-n", "stepwise_accuracy-steps", "KernelSpec-sigma", "retract-f", "RunConfig-window",
        "RunConfig-eta", "RunConfig-lam",
        "gen_ring-n-float", "gen_ring-seed", "RegGramState-lam", "spec-total-str", "spec-total-bool",
        "spec-n_dims-float", "spec-seed-negative", "spec-seed-float", "rejection_threshold-eta",
        "slide_benchmark-window", "select-framework-list", "select-seed-float", "SelectionConfig-folds",
        "SelectionConfig-eta", "stepwise_accuracy-steps-str", "sigma_grid-count",
        "select-folds-float", "RunConfig-eta-bool", "RunConfig-lam-bool", "KernelSpec-sigma-bool",
        "spec-drift_period-float", "spec-spread-bool", "consistency_threshold-eta-zero",
        "snapshot-lambda-str", "snapshot-eta-bool", "snapshot-theta-str", "snapshot-sigma-str"])
def test_malformed_argument_raises_an_okc_error(call, error):
    assert issubclass(error, OkcError)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("runner, mode", [(run_stream, "stationary"), (run_stationary, "sliding"),
                                          (run_stationary, "static")])
def test_runner_refuses_the_other_modes(runner, mode):
    # so that a report's config.mode always names what ran
    data = two_blob_dataset(n=300, seed=1)
    with pytest.raises(InvalidInputError, match=f"got '{mode}'"):
        runner(data, RunConfig(mode=mode, window=100, sigma=1.0))


def test_negative_seed_is_refused_before_any_random_draw():
    with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
        RunConfig(seed=-1)
    with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
        select(np.random.default_rng(0).normal(size=(20, 2)), seed=-1)
    with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
        slide_benchmark(window=20, chunk=5, slides=1, seed=-1)


@pytest.mark.parametrize("bad", [{"lambdas": [1.0, float("nan")]}, {"lambdas": [float("inf")]},
                                 {"sigmas": [float("nan")]}, {"sigmas": [0.5, float("inf")]}])
def test_selectionconfig_rejects_non_finite_grids(bad):
    with pytest.raises(InvalidInputError):
        SelectionConfig(**bad)


# ---- stationary protocol ----------------------------------------------------


def two_blob_dataset(n=400, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    X, y = np.empty((n, 2)), np.empty(n, dtype=int)
    for i in range(n):
        y[i] = 1 if rng.random() < 0.5 else -1
        X[i] = rng.normal(size=2) + ([0.0, 0.0] if y[i] == 1 else [separation, 0.0])
    return Dataset(X, y)


def test_stationary_separable_blobs_high_auc():
    # 10-sigma separation with a loose rejection quantile: near-perfect AUC
    data = two_blob_dataset(n=800)
    cfg = RunConfig(framework="boundary", mode="stationary", sigma=3.0, lam=1.0, eta=0.01, runs=5, seed=0)
    report = run_stationary(data, cfg)
    assert report.auc >= 99.0


def test_stationary_deterministic():
    data = two_blob_dataset(seed=3)
    cfg = RunConfig(framework="boundary", mode="stationary", sigma=1.5, lam=10.0, runs=2, seed=5)
    a, b = run_stationary(data, cfg), run_stationary(data, cfg)
    assert a.overall_accuracy == b.overall_accuracy
    assert a.auc == b.auc
    assert a.confusion == b.confusion
    assert a.step_accuracy == b.step_accuracy


def test_stationary_report_invariants():
    data = two_blob_dataset(seed=4)
    cfg = RunConfig(framework="reconstruction", mode="stationary", sigma=1.5, lam=10.0, runs=3, seed=1)
    rep = run_stationary(data, cfg)
    c = rep.confusion
    total = c["tp"] + c["fn"] + c["tn"] + c["fp"]
    assert rep.overall_accuracy == (c["tp"] + c["tn"]) / total
    assert len(rep.run_aucs) == 3
    assert rep.auc == pytest.approx(np.mean(rep.run_aucs))
    assert rep.timing["forget_s"] == 0.0
    # pooled accuracy equals the size-weighted mean of the step series
    q, r = divmod(total, 100)
    sizes = [q + 1] * r + [q] * (100 - r)
    weighted = sum(Fraction(a).limit_denominator(10**12) * s for a, s in zip(rep.step_accuracy, sizes))
    assert float(weighted / total) == pytest.approx(rep.overall_accuracy, abs=1e-12)


def _without_timing(report):
    return {k: v for k, v in asdict(report).items() if k != "timing"}


@pytest.mark.parametrize("protocol, cfg", [
    (run_stationary, RunConfig(mode="stationary", sigma=1.5, lam=10.0, runs=3, seed=1)),
    (run_stream, RunConfig(window=100, chunk=25, sigma=1.0, lam=10.0)),
    (run_stream, RunConfig(window=100, mode="static", sigma=1.0, lam=10.0)),
], ids=["stationary", "stream-sliding", "stream-static"])
def test_zero_one_labels_read_as_plus_minus_one(protocol, cfg):
    # label 1 is the target and any other label an outlier, in both protocols
    data = gen_stream(DriftStreamSpec(total=1200, velocity=[0.2, 0.0], class_offset=[3.0, 0.0], seed=3))
    zero_one = Dataset(data.X, np.where(data.y == 1, 1, 0))
    got = protocol(zero_one, cfg)
    assert got.step_accuracy is not None
    assert _without_timing(got) == _without_timing(protocol(data, cfg))


def test_stationary_single_run_auc_matches_confusion():
    data = two_blob_dataset(seed=6)
    cfg = RunConfig(framework="boundary", mode="stationary", sigma=1.5, lam=10.0, runs=1, seed=2)
    rep = run_stationary(data, cfg)
    assert rep.auc == auc(rep.confusion)


def test_stationary_needs_both_classes():
    data = Dataset(np.zeros((50, 2)), np.ones(50, dtype=int))
    with pytest.raises(InsufficientDataError):
        run_stationary(data, RunConfig(mode="stationary", sigma=1.0))


def test_stationary_auto_sigma_resolves_once():
    data = two_blob_dataset(n=200, seed=8)
    cfg = RunConfig(framework="boundary", mode="stationary", sigma="auto", runs=2, seed=0)
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

    X, y = stream.X, stream.y
    init = np.flatnonzero(y == 1)[: cfg.window]
    fit = fit_boundary if framework == "boundary" else fit_reconstruction
    model = fit(RegGramState(X[init], cfg.lam, KernelSpec(sigma=cfg.sigma)), cfg.eta)
    rest = X[int(init[-1]) + 1 :]
    assert len(rows) > 1 and max(rows) <= cfg.window
    assert sum(rows) == len(rest)
    assert np.array_equal(np.concatenate(labels), model.labels_for(model.scores(rest)))


def test_stream_scores_each_sample_before_the_slide_it_completes(monkeypatch):
    # a sample is scored after the slides that earlier targets completed and
    # before the one it completes; the stream ends with non-targets after a
    # slide, so the last slide must happen too
    full = drifting_stream(1500, seed=35)
    cfg = stream_cfg("sliding")
    tpos = np.flatnonzero(full.y == 1)
    # the last slide whose completing target is followed by a non-target
    slides = max(k for k in range(1, (tpos.size - cfg.window) // cfg.chunk)
                 if tpos[cfg.window + k * cfg.chunk] > tpos[cfg.window + k * cfg.chunk - 1] + 1)
    slide_at = tpos[cfg.window + cfg.chunk * np.arange(1, slides + 1) - 1]
    end = tpos[cfg.window + slides * cfg.chunk]
    stream = Dataset(full.X[:end], full.y[:end])
    seen, done = [], [0]  # slides done when each scored row was scored
    real_scores, real_absorb = BoundaryModel.scores, BoundaryModel.absorb

    def recording_scores(self, Z):
        seen.extend([done[0]] * len(Z))
        return real_scores(self, Z)

    def counting_absorb(self, chunk):
        done[0] += 1
        return real_absorb(self, chunk)

    monkeypatch.setattr(BoundaryModel, "scores", recording_scores)
    monkeypatch.setattr(BoundaryModel, "absorb", counting_absorb)
    run_stream(stream, cfg)
    monkeypatch.undo()

    positions = np.arange(tpos[cfg.window - 1] + 1, len(stream))
    assert done[0] == slides
    assert seen == np.searchsorted(slide_at, positions).tolist()


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

    X, y = stream.X, stream.y
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
