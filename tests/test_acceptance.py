"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Criterion 9 needs an externally supplied UCI CSV and is skipped when absent.
"""

import os
import time
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from okc import (
    Dataset,
    DriftStreamSpec,
    KernelSpec,
    RegGramState,
    RunConfig,
    SelectionConfig,
    consistency_threshold,
    direct_inverse_oracle,
    fit_boundary,
    fit_reconstruction,
    gen_ring,
    gen_stream,
    rejection_threshold,
    run_stationary,
    run_stream,
    select,
    slide_benchmark,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def scattered(rng, m, n):
    # keep points separated relative to sigma=1 in low dimensions so the
    # regularized Gram stays well-conditioned; crowded 1-2D windows push the
    # condition number beyond what any inversion path can recover at 1e-8
    return rng.normal(size=(m, n)) * 300.0 ** (1.0 / n)


def test_criterion_1_incremental_inverse_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    lambdas = [1e-3, 1.0, 1e3]
    worst = 0.0
    for seq in range(200):
        lam = lambdas[seq % 3]
        n = int(rng.integers(2, 21))
        kernel = KernelSpec(sigma=1.0)
        state = RegGramState(scattered(rng, int(rng.integers(5, 40)), n), lam, kernel)
        for _ in range(int(rng.integers(6, 13))):
            if rng.random() < 0.45 and state.size > 65:
                state.retract(int(rng.integers(1, 61)))
            else:
                room = 300 - state.size
                if room >= 1:
                    state.extend(scattered(rng, int(rng.integers(1, min(61, room + 1))), n))
        _, p_ref = direct_inverse_oracle(state.window, lam, kernel)
        worst = max(worst, float(np.abs(state.p - p_ref).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "incremental-inverse oracle equivalence",
        worst < 1e-8 and elapsed < 120.0,
        f"max |p - oracle| = {worst:.3e} over 200 sequences, {elapsed:.1f}s",
    )


def test_criterion_2_online_equals_batch():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    # target stream with mild drift so successive windows differ
    drift = np.cumsum(rng.normal(scale=0.05, size=(1300, 3)), axis=0)
    data = rng.normal(size=(1300, 3)) + drift
    probes = rng.normal(size=(1000, 3)) * 2 + data.mean(axis=0)

    worst_score, labels_equal = 0.0, True
    for fit in (fit_boundary, fit_reconstruction):
        model = fit(RegGramState(data[:150], 10.0, KernelSpec(sigma=1.5)), 0.05)
        pos = 150
        for _ in range(20):
            model.slide(data[pos : pos + 50])
            pos += 50
        batch = fit(RegGramState(model.state.window, 10.0, KernelSpec(sigma=1.5)), 0.05)
        s_inc, s_bat = model.scores(probes), batch.scores(probes)
        worst_score = max(worst_score, float(np.abs(s_inc - s_bat).max()))
        labels_equal &= bool(
            np.array_equal(model.labels_for(s_inc), batch.labels_for(s_bat))
        )
    elapsed = time.perf_counter() - start
    report(
        2,
        "online equals batch after 20 slides",
        worst_score < 1e-6 and labels_equal and elapsed < 30.0,
        f"max score diff = {worst_score:.3e}, labels equal = {labels_equal}, {elapsed:.1f}s",
    )


def test_criterion_3_threshold_semantics():
    rng = np.random.default_rng(11)
    ok = True
    detail = ""
    for _ in range(1000):
        N = int(rng.integers(1, 401))
        eta = float(rng.uniform(0.001, 1.0))
        d = rng.random(N)
        theta = rejection_threshold(d, eta)
        ordered = np.sort(d)[::-1]
        k = int(np.floor(eta * N))
        expected = ordered[k - 1] if k >= 1 else ordered[0]
        rejection = float(np.mean(d > theta))
        lo, hi = max(0, k - 1) / N, np.ceil(eta * N) / N
        if theta != expected or not lo <= rejection <= hi:
            ok = False
            detail = f"N={N} eta={eta:.4f}: theta={theta} expected={expected} rej={rejection}"
            break
    report(3, "threshold quantile semantics", ok, detail or "1000 random vectors in bounds")


def test_criterion_4_ring_descriptor():
    start = time.perf_counter()
    X = gen_ring(500, 1.0, 2.0, seed=0).X
    chosen = select(X, "boundary", SelectionConfig(eta=0.05), seed=0)
    model = fit_boundary(RegGramState(X, chosen.lam, KernelSpec(sigma=chosen.sigma)), 0.05)
    rejection = float(np.mean(model.train_distances > model.theta))

    rng = np.random.default_rng(1)
    angles = rng.random(500) * 2.0 * np.pi
    radii = np.concatenate([
        rng.random(250) * 0.5,        # inside half the hole radius
        3.0 + rng.random(250) * 2.0,  # beyond 1.5x the outer radius
    ])
    probes = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    outlier_rate = float(np.mean(model.labels_for(model.scores(probes)) == -1))
    elapsed = time.perf_counter() - start
    report(
        4,
        "ring descriptor with selected hyperparameters",
        0.03 <= rejection <= 0.07 and outlier_rate >= 0.95 and elapsed < 60.0,
        f"training rejection = {rejection:.3f}, probe outlier rate = {outlier_rate:.3f}, "
        f"(lambda={chosen.lam:g}, sigma={chosen.sigma:.3f}), {elapsed:.1f}s",
    )


def test_criterion_5_drift_adaptation_gap():
    start = time.perf_counter()
    stream = gen_stream(DriftStreamSpec(
        family="unimodal_drift", total=20_000, drift_period=200, class_balance=0.5,
        velocity=[0.25, 0.0], class_offset=[8.0, 0.0], seed=42,
    ))
    base = dict(framework="boundary", window=150, chunk=50, eta=0.05,
                lam=10.0, sigma=2.0, seed=0)
    sliding = run_stream(stream, RunConfig(mode="sliding", **base))
    static = run_stream(stream, RunConfig(mode="static", **base))
    gap = sliding.overall_accuracy - static.overall_accuracy
    elapsed = time.perf_counter() - start
    report(
        5,
        "sliding beats static under drift",
        gap >= 0.15 and elapsed < 180.0,
        f"sliding = {sliding.overall_accuracy:.4f}, static = {static.overall_accuracy:.4f}, "
        f"gap = {100 * gap:.1f} points, {elapsed:.1f}s",
    )


def test_criterion_6_stationary_equivalence():
    stream = gen_stream(DriftStreamSpec(
        family="unimodal_drift", total=10_000, drift_period=200, class_balance=0.5,
        velocity=[0.0, 0.0], class_offset=[10.0, 0.0], seed=2,
    ))
    base = dict(framework="boundary", window=150, chunk=50, eta=0.05,
                lam=10.0, sigma=2.0, seed=0)
    sliding = run_stream(stream, RunConfig(mode="sliding", **base))
    static = run_stream(stream, RunConfig(mode="static", **base))
    gap = abs(sliding.overall_accuracy - static.overall_accuracy)
    report(
        6,
        "sliding matches static without drift",
        gap <= 0.02,
        f"sliding = {sliding.overall_accuracy:.4f}, static = {static.overall_accuracy:.4f}, "
        f"|gap| = {100 * gap:.2f} points",
    )


def test_criterion_7_consistency_formula_high_precision():
    getcontext().prec = 50
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(1, 1_000_000))
        eta = float(rng.random())
        sigma_thr = float(rng.random() * 5.0)
        exact = Decimal(eta) + Decimal(sigma_thr) * (
            Decimal(eta) * (1 - Decimal(eta)) / Decimal(M)
        ).sqrt()
        worst = max(worst, abs(consistency_threshold(M, eta, sigma_thr) - float(exact)))
    report(
        7,
        "consistency threshold matches 50-digit evaluation",
        worst < 1e-12,
        f"max |diff| = {worst:.3e} over 1000 triples",
    )


def test_criterion_8_incremental_speedup():
    result = slide_benchmark(window=1000, chunk=50, dims=2, slides=20, seed=0)
    report(
        8,
        "incremental slide at least 3x faster than recompute",
        result["ratio"] >= 3.0,
        f"incremental = {result['incremental_median_s'] * 1e3:.1f} ms, "
        f"recompute = {result['recompute_median_s'] * 1e3:.1f} ms, "
        f"ratio = {result['ratio']:.2f}",
    )


BREAST_CANCER_PATHS = [
    Path(os.environ.get("OKC_BREAST_CANCER_CSV", "")),
    Path(__file__).resolve().parent.parent / "data" / "breast-cancer-wisconsin.data",
]


def _find_breast_cancer_csv():
    for p in BREAST_CANCER_PATHS:
        if str(p) and p.is_file():
            return p
    return None


@pytest.mark.skipif(_find_breast_cancer_csv() is None,
                    reason="UCI breast cancer CSV not supplied "
                           "(set OKC_BREAST_CANCER_CSV or place data/breast-cancer-wisconsin.data)")
def test_criterion_9_breast_cancer_reproduction():
    # UCI format: sample id, 9 integer features, class (2 = benign target,
    # 4 = malignant); rows with missing '?' cells are dropped
    rows = [line.strip().split(",") for line in _find_breast_cancer_csv().read_text().splitlines()]
    rows = [cells for cells in rows if len(cells) >= 11 and "?" not in cells]
    X = np.array([[float(c) for c in cells[1:10]] for cells in rows])
    y = np.array([1 if cells[10] == "2" else -1 for cells in rows])
    cfg = RunConfig(framework="boundary", mode="stationary", sigma="auto", eta=0.05, runs=20, seed=0)
    rep = run_stationary(Dataset(X, y), cfg)
    report(
        9,
        "breast cancer 20-run mean AUC near reported value",
        abs(rep.auc - 95.22) <= 3.0,
        f"mean AUC = {rep.auc:.2f} over 20 runs (reference 95.22 +- 3.0)",
    )
