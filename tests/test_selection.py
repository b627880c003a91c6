from decimal import Decimal, getcontext

import numpy as np
import pytest

import okc._blas
import okc.gram_window
import okc.kernel
import okc.models
import okc.selection
from okc import (
    DegenerateDataError,
    IllConditionedError,
    InsufficientDataError,
    InsufficientMemoryError,
    InvalidInputError,
    KernelSpec,
    RegGramState,
    SelectionConfig,
    SelectionResult,
    consistency_threshold,
    fit_boundary,
    fit_reconstruction,
    gen_ring,
    gram,
    lambda_grid,
    pairwise_distance_range,
    rejection_threshold,
    select,
    sigma_grid,
)
from okc.models import FRAMEWORKS
from okc.selection import _fold_errors


# ---- consistency threshold -------------------------------------------------


def test_threshold_eta_zero_is_refused():
    # eta has one range, (0, 1], wherever it is taken
    with pytest.raises(InvalidInputError, match=r"^eta must lie in \(0, 1\], got 0.0$"):
        consistency_threshold(50, 0.0, 2.0)


def test_threshold_sigma_thr_zero():
    assert consistency_threshold(37, 0.05, 0.0) == 0.05


@pytest.mark.parametrize("sigma_thr", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_sigma_thr_is_refused(sigma_thr):
    with pytest.raises(InvalidInputError, match=r"sigma_thr must lie in \[0, inf\)"):
        consistency_threshold(20, 0.05, sigma_thr)
    with pytest.raises(InvalidInputError, match=r"sigma_thr must lie in \[0, inf\)"):
        SelectionConfig(sigma_thr=sigma_thr)


def test_threshold_reference_value():
    # 0.05 + 2 * sqrt(0.05 * 0.95 / 20), cross-checked at 50-digit precision
    assert consistency_threshold(20, 0.05, 2.0) == pytest.approx(0.14746794344808964, abs=1e-15)


def test_threshold_matches_decimal_evaluation():
    getcontext().prec = 50
    rng = np.random.default_rng(0)
    for _ in range(50):
        M = int(rng.integers(1, 10_000))
        eta = float(rng.random())
        st = float(rng.random() * 5)
        exact = Decimal(eta) + Decimal(st) * (Decimal(eta) * (1 - Decimal(eta)) / Decimal(M)).sqrt()
        assert consistency_threshold(M, eta, st) == pytest.approx(float(exact), abs=1e-12)


def test_threshold_monotonicity():
    assert consistency_threshold(40, 0.1, 3.0) > consistency_threshold(40, 0.1, 2.0)
    assert consistency_threshold(40, 0.2, 2.0) > consistency_threshold(40, 0.1, 2.0)  # eta <= 0.5
    assert consistency_threshold(80, 0.1, 2.0) < consistency_threshold(40, 0.1, 2.0)


def test_threshold_validation():
    with pytest.raises(InvalidInputError):
        consistency_threshold(0, 0.05, 2.0)
    with pytest.raises(InvalidInputError):
        consistency_threshold(10, 1.5, 2.0)
    with pytest.raises(InvalidInputError):
        consistency_threshold(10, 0.05, -1.0)


# ---- grids ------------------------------------------------------------------


def test_lambda_grid_decades():
    g = lambda_grid()
    assert len(g) == 17
    assert g[0] == 1e-8
    assert g[-1] == 1e8
    assert g == sorted(g)
    for a, b in zip(g, g[1:]):
        assert b / a == pytest.approx(10.0, rel=1e-15)
    assert g == [float(f"1e{e}") for e in range(-8, 9)]


def test_sigma_grid_arithmetic_spacing():
    X = [[0.0], [1.0], [20.0]]
    grid = sigma_grid(X, 20)
    assert grid == pytest.approx(list(np.arange(1.0, 21.0)))
    assert len(grid) == 20


def test_sigma_grid_endpoints():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    dmin, dmax = pairwise_distance_range(X)
    grid = sigma_grid(X, 20)
    assert grid[0] == dmin
    assert grid[-1] == dmax
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_sigma_grid_count_two_is_range():
    X = [[0.0], [2.0], [5.0]]
    assert sigma_grid(X, 2) == [2.0, 5.0]


def test_sigma_grid_collapses_when_distances_equal():
    assert sigma_grid([[0.0], [0.0], [5.0]], 20) == [5.0]


def test_sigma_grid_degenerate_propagates():
    with pytest.raises(DegenerateDataError):
        sigma_grid([[1.0], [1.0]], 20)


# ---- select -----------------------------------------------------------------


def blob(n=200, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 2))


# ---- dense reference: every candidate fit from scratch ---------------------


def dense_fold_error(X, train, held_out, framework, lam, sigma, eta):
    """Held-out rejection of a model fitted on ``X[train]``, with theta from
    the training scores ``|K beta - 1|`` (or ``||X - K B||^2`` row by row)
    formed with the training kernel matrix, not from the model's own theta, so
    that the reference shares no formula with ``select``; raises
    IllConditionedError as the fit does. Any other framework is looked up in
    MODELS and scored by its own ``score`` of ``targets - K beta``."""
    spec = KernelSpec(sigma=sigma)
    X_t = X[train]
    K = gram(spec, X_t)
    if framework == "boundary":
        model = fit_boundary(RegGramState(X_t, lam, spec), eta)
        train_scores = np.abs(K @ model.beta - 1.0)
    elif framework == "reconstruction":
        model = fit_reconstruction(RegGramState(X_t, lam, spec), eta)
        err = X_t - K @ model.beta
        train_scores = np.einsum("ij,ij->i", err, err)
    else:
        model = okc.models.MODELS[framework](RegGramState(X_t, lam, spec), eta)
        train_scores = model.score(model.targets(X_t) - K @ model.beta)
    theta = rejection_threshold(train_scores, eta)
    return float(np.mean(model.scores(X[held_out]) > theta))


def dense_cv_error(X, folds, framework, lam, sigma, eta):
    """Mean held-out rejection of fitted models; inf if any fold's regularized
    Gram fails the fit's condition rule."""
    errs = []
    for i, held_out in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        try:
            errs.append(dense_fold_error(X, train, held_out, framework, lam, sigma, eta))
        except IllConditionedError:
            return float("inf")
    return float(np.mean(errs))


def dense_select(X, framework, cfg, seed):
    """The consistency scan with a dense fit per candidate and fold."""
    X = np.asarray(X, dtype=float)
    folds = np.array_split(np.random.default_rng(seed).permutation(len(X)), cfg.folds)
    e_thr = consistency_threshold(len(X) // cfg.folds, cfg.eta, cfg.sigma_thr)
    sigmas = cfg.sigmas if cfg.sigmas is not None else sigma_grid(X)
    best = None
    for sigma in sorted(sigmas):
        for lam in sorted(cfg.lambdas, reverse=True):
            err = dense_cv_error(X, folds, framework, lam, sigma, cfg.eta)
            if err <= e_thr:
                return SelectionResult(lam, float(sigma), err, e_thr, True)
            if best is None or err < best.cv_error:
                best = SelectionResult(lam, float(sigma), err, e_thr, False)
    return best


def assert_same_selection(got, want):
    assert (got.lam, got.sigma, got.consistent) == (want.lam, want.sigma, want.consistent)
    assert got.cv_error == pytest.approx(want.cv_error, abs=1e-12)
    assert got.e_thr == want.e_thr


def oracle_cv_error(X, folds, framework, lam, sigma, eta, digits=30):
    """Mean held-out rejection with every score computed in ``digits``-digit
    arithmetic from the float inputs: the exact answer the two float paths
    approximate."""
    mp = pytest.importorskip("mpmath").mp

    def k_row(z, Xt):
        return [mp.exp(-mp.fsum((mp.mpf(float(a)) - mp.mpf(float(b))) ** 2 for a, b in zip(z, x))
                       / (2 * mp.mpf(float(sigma)) ** 2))
                for x in Xt]

    def solve(A, B):
        # Gaussian elimination with partial pivoting on lists of rows
        n = len(A)
        M = [a + b for a, b in zip(A, B)]
        for c in range(n):
            p = max(range(c, n), key=lambda r: abs(M[r][c]))
            M[c], M[p] = M[p], M[c]
            for r in range(c + 1, n):
                f = M[r][c] / M[c][c]
                M[r][c:] = [x - f * y for x, y in zip(M[r][c:], M[c][c:])]
        sol = [None] * n
        for r in reversed(range(n)):
            sol[r] = [(v - mp.fsum(M[r][j] * sol[j][k] for j in range(r + 1, n))) / M[r][r]
                      for k, v in enumerate(M[r][n:])]
        return sol

    errs = []
    with mp.workdps(digits):
        for i, held_out in enumerate(folds):
            train = np.concatenate([f for j, f in enumerate(folds) if j != i])
            Xt, Xc = X[train], X[held_out]
            n = len(Xt)
            Kt = [k_row(x, Xt) for x in Xt]
            phi = [[v + (1 / mp.mpf(lam) if a == b else 0) for b, v in enumerate(row)]
                   for a, row in enumerate(Kt)]
            if framework == "boundary":
                beta = [row[0] for row in solve(phi, [[mp.mpf(1)]] * n)]

                def score(z, kz):
                    return abs(mp.fsum(kb * b for kb, b in zip(kz, beta)) - 1)
            else:
                B = solve(phi, [[mp.mpf(float(v)) for v in x] for x in Xt])

                def score(z, kz):
                    return mp.fsum((z[c] - mp.fsum(kb * Bb[c] for kb, Bb in zip(kz, B))) ** 2
                                   for c in range(len(z)))
            # one formula for training and held-out rows, so that equal rows
            # get identical scores and their ties with theta stay ties
            train_scores = [score(x, kx) for x, kx in zip(Xt, Kt)]
            theta = sorted(train_scores, reverse=True)[max(int(np.floor(eta * n)) - 1, 0)]
            errs.append(sum(score(z, k_row(z, Xt)) > theta for z in Xc) / len(Xc))
    return float(np.mean(errs))


def corpus_dataset(rng, duplicates=False):
    """A small target set: blob, ring or uniform box, sometimes rescaled;
    with ``duplicates``, about a fifth of its rows are copies of others."""
    n = int(rng.integers(20, 61))
    dims = int(rng.integers(1, 5))
    kind = rng.integers(3)
    if kind == 0:
        X = rng.normal(size=(n, dims))
    elif kind == 1:
        X = rng.normal(size=(n, dims))
        X *= (1.0 + rng.random((n, 1))) / np.linalg.norm(X, axis=1, keepdims=True)
    else:
        X = rng.random((n, dims))
    if rng.random() < 0.3:
        X *= 10.0 ** rng.integers(-3, 4)
    if duplicates:
        X[rng.integers(n, size=n // 5)] = X[rng.integers(n, size=n // 5)]
    return X


def test_select_blob_is_consistent_and_rejects_about_eta():
    X = blob()
    res = select(X, "boundary", SelectionConfig(eta=0.05), seed=0)
    assert res.consistent
    assert res.cv_error <= res.e_thr
    model = fit_boundary(RegGramState(X, res.lam, KernelSpec(sigma=res.sigma)), 0.05)
    rejection = float(np.mean(model.train_distances > model.theta))
    assert 0.03 <= rejection <= 0.07


def test_select_matches_exhaustive_grid_scan():
    # independent oracle: evaluate the whole (restricted) grid with public
    # APIs and pick the first consistent candidate in complexity order
    X = blob(120, seed=3)
    cfg = SelectionConfig(
        folds=4, eta=0.1, lambdas=[1e-2, 1.0, 1e2], sigmas=list(sigma_grid(X, 6))
    )
    res = select(X, "boundary", cfg, seed=5)

    rng = np.random.default_rng(5)
    folds = np.array_split(rng.permutation(len(X)), 4)
    e_thr = consistency_threshold(len(X) // 4, 0.1, cfg.sigma_thr)
    first = None
    for sigma in sorted(cfg.sigmas):
        for lam in sorted(cfg.lambdas, reverse=True):
            errs = []
            for i in range(4):
                train = np.concatenate([f for j, f in enumerate(folds) if j != i])
                m = fit_boundary(RegGramState(X[train], lam, KernelSpec(sigma=sigma)), 0.1)
                errs.append(float(np.mean(m.labels_for(m.scores(X[folds[i]])) == -1)))
            if first is None and float(np.mean(errs)) <= e_thr:
                first = (lam, sigma, float(np.mean(errs)))
    assert first is not None
    assert (res.lam, res.sigma) == (first[0], first[1])
    assert res.cv_error == pytest.approx(first[2], abs=1e-12)
    assert res.e_thr == e_thr


def test_select_all_inconsistent_falls_back_to_min_error():
    # a single hopeless candidate: kernel width far below any pairwise
    # distance rejects every held-out sample
    X = blob(50, seed=7) * 10
    cfg = SelectionConfig(eta=0.05, lambdas=[1e4], sigmas=[1e-4])
    res = select(X, "boundary", cfg, seed=0)
    assert not res.consistent
    assert res.cv_error > res.e_thr
    assert (res.lam, res.sigma) == (1e4, 1e-4)


def test_select_deterministic_and_matches_dense_reference():
    X = blob(80, seed=9)
    cfg = SelectionConfig(folds=3, eta=0.1, lambdas=[1e-1, 10.0], sigmas=[0.3, 1.0, 3.0])
    a = select(X, "boundary", cfg, seed=11)
    b = select(X, "boundary", cfg, seed=11)
    assert a == b
    assert_same_selection(a, dense_select(X, "boundary", cfg, seed=11))


class ConstantAndFirstFeatureModel(okc.models._WindowedModel):
    """A framework defined only here: regress each row onto (2, its first
    feature) and score by the L1 error. A constant target alone would decide
    as the boundary model does, since scaling the targets scales every score
    and the threshold alike."""

    framework = "constant_and_first"

    @staticmethod
    def targets(X):
        return np.column_stack([np.full(len(X), 2.0), X[:, 0]])

    @staticmethod
    def score(residuals):
        return np.abs(residuals).sum(axis=-1)


def test_select_scores_a_framework_by_its_targets_and_score(monkeypatch):
    # select must score a framework through its class in MODELS, not by a
    # branch per known framework: its cv errors equal dense fits of the class
    # and differ from those of both built-in frameworks.
    name = ConstantAndFirstFeatureModel.framework
    monkeypatch.setitem(okc.models.MODELS, name, ConstantAndFirstFeatureModel)
    X = blob(60, seed=21)
    cfg = SelectionConfig(folds=3, eta=0.1, lambdas=[1e3, 10.0, 1e-1], sigmas=[0.3, 1.0, 3.0])
    folds = np.array_split(np.random.default_rng(4).permutation(len(X)), cfg.folds)
    errors = {fw: [okc.selection._cv_errors(X, folds, fw, cfg.lambdas, sigma, cfg.eta) for sigma in cfg.sigmas]
              for fw in (name, "boundary", "reconstruction")}
    dense = [[dense_cv_error(X, folds, name, lam, sigma, cfg.eta) for lam in cfg.lambdas] for sigma in cfg.sigmas]
    np.testing.assert_allclose(errors[name], dense, rtol=0, atol=1e-12)
    assert not np.array_equal(errors[name], errors["boundary"])
    assert not np.array_equal(errors[name], errors["reconstruction"])
    assert_same_selection(select(X, name, cfg, seed=4), dense_select(X, name, cfg, seed=4))


class LogErrorModel(ConstantAndFirstFeatureModel):
    """The same targets, scored by ``sum(log1p(|r|))``: no power of lambda
    turns this score of ``beta`` into the score of the residual ``beta /
    lambda``, so only the residual itself scores training rows right."""

    framework = "log_error"

    @staticmethod
    def score(residuals):
        return np.log1p(np.abs(residuals)).sum(axis=-1)


def test_a_non_homogeneous_score_scores_training_rows_by_their_residuals(monkeypatch):
    name = LogErrorModel.framework
    monkeypatch.setitem(okc.models.MODELS, name, LogErrorModel)
    X = blob(60, seed=21)
    # at lambda 1e3 the subtractive reference itself loses digits (2e-9 here);
    # test_training_scores_keep_their_digits_when_weights_are_large covers it
    for lam in (10.0, 1e-1):
        spec = KernelSpec(sigma=1.0)
        model = LogErrorModel(RegGramState(X, lam, spec), 0.1)
        residuals = model.targets(X) - gram(spec, X) @ model.beta
        np.testing.assert_allclose(model._training_scores(), model.score(residuals), rtol=1e-9)
    cfg = SelectionConfig(folds=3, eta=0.1, lambdas=[1e3, 10.0, 1e-1], sigmas=[0.3, 1.0, 3.0])
    folds = np.array_split(np.random.default_rng(4).permutation(len(X)), cfg.folds)
    errors = [okc.selection._cv_errors(X, folds, name, cfg.lambdas, sigma, cfg.eta) for sigma in cfg.sigmas]
    dense = [[dense_cv_error(X, folds, name, lam, sigma, cfg.eta) for lam in cfg.lambdas] for sigma in cfg.sigmas]
    np.testing.assert_allclose(errors, dense, rtol=0, atol=1e-12)
    assert_same_selection(select(X, name, cfg, seed=4), dense_select(X, name, cfg, seed=4))


def test_select_reconstruction_framework_runs():
    X = blob(100, seed=13)
    res = select(X, "reconstruction", SelectionConfig(eta=0.05), seed=0)
    assert res.consistent
    assert res.cv_error <= res.e_thr


def test_select_insufficient_data():
    with pytest.raises(InsufficientDataError):
        select(blob(8), "boundary", SelectionConfig(folds=5), seed=0)


def test_select_reads_a_vector_as_one_sample():
    # as every other entry point does: 20 numbers are one 20-feature sample
    with pytest.raises(InsufficientDataError, match="got 1"):
        select(np.arange(20.0))


def test_select_validates_inputs():
    with pytest.raises(InvalidInputError):
        select(blob(50), "boundary", SelectionConfig(folds=1), seed=0)
    with pytest.raises(InvalidInputError):
        select(blob(50), "nearest", SelectionConfig(), seed=0)
    with pytest.raises(InvalidInputError):
        select(blob(50), "boundary", SelectionConfig(lambdas=[]), seed=0)


def test_selection_result_json_shape():
    res = SelectionResult(lam=10.0, sigma=0.5, cv_error=0.04, e_thr=0.09, consistent=True)
    doc = res.to_json_dict()
    assert doc == {"lambda": 10.0, "sigma": 0.5, "cv_error": 0.04, "e_thr": 0.09, "consistent": True}


@pytest.mark.parametrize("sigmas", [None, [1.0]])
def test_select_out_of_memory_names_row_count(monkeypatch, sigmas):
    # A failed allocation of the N x N distance matrix (sigma grid) or kernel
    # matrix (fixed sigmas), as NumPy raises it for a too-large N.
    def no_memory(X, Y):
        raise MemoryError(f"Unable to allocate an array with shape ({len(X)}, {len(Y)})")

    monkeypatch.setattr(okc.kernel, "_squared_distances", no_memory)
    with pytest.raises(InsufficientMemoryError, match="on 60 rows"):
        select(blob(60), "boundary", SelectionConfig(sigmas=sigmas), seed=0)


# ---- widths proven inconsistent stop early ---------------------------------


def count_reductions(monkeypatch) -> list[int]:
    """Record the order of every per-fold tridiagonal reduction (``okc._blas.sytrd``,
    the name through which select calls it) from now on."""
    calls = []
    sytrd = okc._blas.sytrd

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return sytrd(a, *args, **kwargs)

    monkeypatch.setattr(okc._blas, "sytrd", counting)
    return calls


@pytest.mark.parametrize("seed, cv_error", [(0, 0.092), (4, 0.092), (8, 0.09)])
def test_select_stops_widths_proven_inconsistent(monkeypatch, seed, cv_error):
    # On these rings the first width is proven inconsistent by its first fold
    # and the scan stops at the second width: 1 + 5 reductions, not 5 + 5. The
    # result is the full scan's (lambda 1e-2, sigma #2 and its cv error).
    X = gen_ring(500, 1.0, 2.0, seed=seed).X
    calls = count_reductions(monkeypatch)
    res = select(X, "boundary", seed=0)
    assert calls == [400] * 6
    e_thr = consistency_threshold(100, 0.05, 2.0)
    assert res == SelectionResult(0.01, sigma_grid(X)[1], cv_error, e_thr, True)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_select_fallback_scores_skipped_widths_in_full(monkeypatch, framework):
    # Widths far below every pairwise distance reject every held-out row, so
    # every candidate's error is 1: the first fold proves each width
    # inconsistent (1/5 > e_thr), and the minimum error ties across all
    # widths. The fallback then scores every skipped width in full and still
    # returns the earliest candidate in scan order.
    X = blob(50, seed=7) * 10
    cfg = SelectionConfig(eta=0.05, lambdas=[1e2, 1e4], sigmas=[3e-4, 1e-4, 2e-4])
    calls = count_reductions(monkeypatch)
    res = select(X, framework, cfg, seed=0)
    # one fold per width in the scan, then all five per width in the fallback
    assert len(calls) == 3 * (1 + cfg.folds)
    monkeypatch.undo()
    assert (res.lam, res.sigma, res.cv_error, res.consistent) == (1e4, 1e-4, 1.0, False)
    assert res == dense_select(X, framework, cfg, seed=0)


def test_select_does_not_skip_a_width_whose_partial_mean_equals_e_thr(monkeypatch):
    # With sigma_thr = 0, e_thr = eta = 0.2 = 1/5. The first fold rejects
    # every held-out row and the other four none: after one fold the partial
    # mean equals e_thr without exceeding it, and the full mean is consistent.
    fold_errors = iter([1.0, 0.0, 0.0, 0.0, 0.0])
    monkeypatch.setattr(okc.selection, "_fold_errors",
                        lambda *args: np.full(2, next(fold_errors)))
    cfg = SelectionConfig(eta=0.2, sigma_thr=0.0, lambdas=[1.0, 10.0], sigmas=[1.0])
    res = select(blob(50), "boundary", cfg, seed=0)
    assert res == SelectionResult(10.0, 1.0, 0.2, 0.2, True)


def test_select_fallback_ties_go_to_skipped_width_scanned_first(monkeypatch):
    # The first width is skipped in the scan and the second is scored in
    # full; both reach the minimum error 0.5. The skipped width comes first
    # in scan order, so it wins the tie.
    errors = {1.0: [0.5, 0.7], 2.0: [0.6, 0.5]}

    def cv_errors(X, folds, framework, lambdas, sigma, eta, e_thr=np.inf):
        return None if sigma == 1.0 and e_thr < np.inf else np.array(errors[sigma])

    monkeypatch.setattr(okc.selection, "_cv_errors", cv_errors)
    cfg = SelectionConfig(lambdas=[1.0, 10.0], sigmas=[2.0, 1.0])
    res = select(blob(50), "boundary", cfg, seed=0)
    assert (res.lam, res.sigma, res.cv_error, res.consistent) == (10.0, 1.0, 0.5, False)


# ---- closed-form search against the dense reference ------------------------


def corpus_config(rng, X):
    return SelectionConfig(
        folds=int(rng.integers(2, 6)),
        eta=float(rng.choice([0.05, 0.1, 0.2])),
        lambdas=sorted(rng.choice(lambda_grid(), size=5, replace=False).tolist()),
        sigmas=list(sigma_grid(X, 5)),
    )


def test_select_matches_dense_reference_on_corpus():
    # 120 seeded datasets, every third with duplicated rows, each with a
    # restricted grid, both frameworks. The winner must be the dense
    # reference's. Where the cv errors differ, the closed form must match the
    # high-precision oracle: the dense fit computes training scores as
    # |K beta - 1|, which loses digits when beta is large (lambda near 1e8
    # with a wide kernel), and breaks by round-off the exact ties between a
    # held-out copy of a training row and theta.
    rng = np.random.default_rng(2024)
    for case in range(120):
        X = corpus_dataset(rng, duplicates=case % 3 == 2)
        cfg = corpus_config(rng, X)
        for framework in ("boundary", "reconstruction"):
            got = select(X, framework, cfg, seed=case)
            want = dense_select(X, framework, cfg, seed=case)
            assert (got.lam, got.sigma, got.consistent) == (want.lam, want.sigma, want.consistent)
            assert got.e_thr == want.e_thr
            if got.cv_error == pytest.approx(want.cv_error, abs=1e-12):
                continue
            folds = np.array_split(np.random.default_rng(case).permutation(len(X)), cfg.folds)
            exact = oracle_cv_error(X, folds, framework, got.lam, got.sigma, cfg.eta)
            assert got.cv_error == pytest.approx(exact, abs=1e-12)


def near_identity_dataset():
    """A corpus draw whose kernel blocks at the smallest width lie within
    about 2e-15 of I: on OpenBLAS, dstebz cannot isolate their largest
    eigenvalue there."""
    return corpus_dataset(np.random.default_rng([99, 279]), duplicates=True)


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_select_on_near_identity_folds_matches_dense_reference(framework):
    X = near_identity_dataset()
    got = select(X, framework, seed=279)
    assert got == dense_select(X, framework, SelectionConfig(), seed=279)


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_held_out_copies_score_as_their_training_rows(framework):
    # Every held-out row copies a training row, so each ties exactly with its
    # twin's training score, and the held-out rejection equals the training
    # rejection: with theta the 8th largest of 40 distinct scores, 7 of 40 lie
    # strictly above it, for every lambda.
    rng = np.random.default_rng(3)
    X_t = rng.normal(size=(40, 2))
    order = rng.permutation(40)
    X_c = X_t[order]
    spec = KernelSpec(sigma=0.8)
    errors = _fold_errors(gram(spec, X_t), gram(spec, X_c, X_t), X_t, X_c, framework,
                          np.array(lambda_grid()), 0.2)
    assert errors.tolist() == [7 / 40] * 17


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_condition_rule_matches_dense_fits_in_band(monkeypatch, framework):
    # With the limit at 1e4 and 40 training rows, the band
    # cond_2 / n <= 1e4 < n cond_2 holds candidates on both sides of the limit,
    # and some candidates lie above it, cond_2 / n > 1e4, where the spectrum
    # alone would reject; the fit's own rule decides all of them, so the closed
    # form must reject exactly the (fold, lambda) pairs whose dense fit raises.
    limit = 1e4
    monkeypatch.setattr(okc.gram_window, "CONDITION_LIMIT", limit)
    monkeypatch.setattr(okc.selection, "CONDITION_LIMIT", limit)
    lams = np.array(lambda_grid())
    band = {"accepted": 0, "rejected": 0}
    above_band = 0
    for seed in range(4):
        X = blob(50, seed=seed)
        folds = np.array_split(np.random.default_rng(seed).permutation(50), 5)
        for sigma in sigma_grid(X, 4):
            K = gram(KernelSpec(sigma=sigma), X)
            for i, held_out in enumerate(folds):
                train = np.concatenate([f for j, f in enumerate(folds) if j != i])
                errors = _fold_errors(K[np.ix_(train, train)], K[np.ix_(held_out, train)],
                                      X[train], X[held_out], framework, lams, 0.1)
                e = np.linalg.eigvalsh(K[np.ix_(train, train)])
                for lam, err in zip(lams, errors):
                    try:
                        RegGramState(X[train], lam, KernelSpec(sigma=sigma))
                        dense_ok = True
                    except IllConditionedError:
                        dense_ok = False
                    assert np.isfinite(err) == dense_ok, (seed, sigma, i, lam)
                    d = e + 1.0 / lam
                    cond_2 = d.max() / d.min()
                    if cond_2 / len(train) <= limit < len(train) * cond_2:
                        band["accepted" if dense_ok else "rejected"] += 1
                    above_band += cond_2 / len(train) > limit
    assert band["accepted"] > 0 and band["rejected"] > 0, band
    assert above_band > 0


def refuse_pivot(d, e, b):
    raise np.linalg.LinAlgError("non-positive pivot")


@pytest.mark.parametrize("framework", ["boundary", "reconstruction"])
def test_refused_pivot_is_scored_as_a_dense_fit_decides(monkeypatch, framework):
    # Round-off can make a pivot of the tridiagonal solve non-positive. Forced
    # here for every lambda, the fit's own rule then decides alone: a lambda
    # scores inf exactly where its dense fit raises, and elsewhere as the
    # tridiagonal solve scores it.
    limit = 1e4
    monkeypatch.setattr(okc.gram_window, "CONDITION_LIMIT", limit)
    monkeypatch.setattr(okc.selection, "CONDITION_LIMIT", limit)
    lams = np.array(lambda_grid())
    for seed in range(2):
        X = blob(50, seed=seed)
        folds = np.array_split(np.random.default_rng(seed).permutation(50), 5)
        for sigma in sigma_grid(X, 3):
            K = gram(KernelSpec(sigma=sigma), X)
            for i, held_out in enumerate(folds):
                train = np.concatenate([f for j, f in enumerate(folds) if j != i])
                args = (K[np.ix_(train, train)], K[np.ix_(held_out, train)], X[train], X[held_out], framework,
                        lams, 0.1)
                solved = _fold_errors(*args)
                with monkeypatch.context() as m:
                    m.setattr(okc._blas, "ptsv", refuse_pivot)
                    refused = _fold_errors(*args)
                for lam, err in zip(lams, refused):
                    try:
                        RegGramState(X[train], lam, KernelSpec(sigma=sigma))
                        dense_ok = True
                    except IllConditionedError:
                        dense_ok = False
                    assert np.isfinite(err) == dense_ok, (seed, sigma, i, lam)
                np.testing.assert_array_equal(refused, solved)


# ---- weights at large lambda against a 30-digit solve ----------------------


@pytest.mark.parametrize("duplicates", [False, True])
def test_fold_weights_at_large_lambda_match_a_30_digit_solve(monkeypatch, duplicates):
    # One 80-row training fold of a ring, boundary targets. The relative error
    # of beta is bounded per lambda, at about 45 times eps * cond_2(phi) of the
    # fold with duplicated rows (cond_2 1e7 and 1e9; 4e6 and 6e6 without), and
    # the tridiagonal path may lose at most a factor 2 against the
    # eigendecomposition (the NumPy fallback).
    mp = pytest.importorskip("mpmath").mp
    bound = {1e6: 1e-7, 1e8: 1e-5}
    rng = np.random.default_rng(7)
    X = gen_ring(100, 1.0, 2.0, seed=7).X
    if duplicates:
        X[rng.integers(100, size=20)] = X[rng.integers(100, size=20)]
    train = np.concatenate(np.array_split(rng.permutation(100), 5)[1:])
    X_t, sigma = X[train], 0.5
    lams = np.array(list(bound))
    targets = np.ones((len(X_t), 1))
    usable, beta = okc.selection._weights(gram(KernelSpec(sigma=sigma), X_t), targets, lams)
    with monkeypatch.context() as m:
        for name, fallback in okc._blas.FALLBACKS.items():
            m.setattr(okc._blas, name, fallback)
        usable_eigh, beta_eigh = okc.selection._weights(gram(KernelSpec(sigma=sigma), X_t), targets, lams)
    assert usable.all() and usable_eigh.all()
    with mp.workdps(30):
        rows = [[mp.mpf(float(v)) for v in x] for x in X_t]
        K = mp.matrix([[mp.exp(-mp.fsum((a - b) ** 2 for a, b in zip(x, z)) / (2 * mp.mpf(sigma) ** 2))
                        for z in rows] for x in rows])
        for j, lam in enumerate(lams):
            phi = K + mp.eye(len(rows)) / mp.mpf(lam)
            exact = np.array([float(v) for v in mp.lu_solve(phi, mp.matrix([1] * len(rows)))])
            scale = np.abs(exact).max()
            err = np.abs(beta[:, j] - exact).max() / scale
            err_eigh = np.abs(beta_eigh[:, j] - exact).max() / scale
            assert err <= bound[lam], (lam, err, err_eigh)
            assert err <= 2 * err_eigh, (lam, err, err_eigh)
