"""Correctness checks made apart from okc, with the benchmark's own NumPy.

Every check takes okc's outputs and the inputs the benchmark generated, and
returns a list of failure messages (empty when it passes). None of them
compares against a stored copy of earlier output: each recomputes the answer
independently or tests a property the method must have.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Scores recomputed here use a dense solve, okc's a maintained inverse; both
# are exact up to round-off amplified by cond(phi) <= 1 + lambda * N, about
# 1e6 at W=1000 and lambda=1e3. The gap seen over 1200 slides is below 1e-9.
SCORE_RTOL = 1e-6
LABEL_TOL = 1e-6  # a label may differ only this close to theta


def sq_dist(A: np.ndarray, B: np.ndarray, block: int = 512) -> np.ndarray:
    """Squared Euclidean distances from the coordinate differences."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(0, A.shape[0], block):
        diff = A[i : i + block, None, :] - B[None, :, :]
        out[i : i + block] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def rbf(A, B, sigma: float) -> np.ndarray:
    return np.exp(-sq_dist(A, B) / (2.0 * sigma**2))


def regularized_solve(window, lam: float, sigma: float, rhs) -> np.ndarray:
    """``phi^-1 rhs`` with ``phi = exp(-D^2 / 2 sigma^2) + I / lam`` built from the window."""
    phi = rbf(window, window, sigma)
    phi[np.diag_indices_from(phi)] += 1.0 / lam
    return np.linalg.solve(phi, rhs)


def boundary_reference(window, lam, sigma, Z, target=1.0):
    """Query scores ``|k(z) phi^-1 1 - 1|`` and training scores ``|K beta - 1|``."""
    beta = regularized_solve(window, lam, sigma, np.full(len(window), target))
    query = np.abs(rbf(Z, window, sigma) @ beta - target)
    train = np.abs(rbf(window, window, sigma) @ beta - target)
    return query, train


def scores_match(got, ref, what: str) -> list[str]:
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape} != reference {ref.shape}"]
    scale = max(1.0, float(np.abs(ref).max()))
    worst = float(np.abs(got - ref).max())
    if not worst <= SCORE_RTOL * scale:
        return [f"{what}: max |okc - reference| = {worst:.3e} > {SCORE_RTOL * scale:.1e}"]
    return []


def labels_agree(labels, ref_scores, theta: float, what: str) -> list[str]:
    """okc's labels equal ``+1 if score <= theta else -1`` away from theta."""
    ref_scores = np.asarray(ref_scores, float)
    expected = np.where(ref_scores <= theta, 1, -1)
    clear = np.abs(ref_scores - theta) > LABEL_TOL * max(1.0, abs(theta))
    bad = int(np.sum((np.asarray(labels) != expected) & clear))
    return [f"{what}: {bad} labels disagree away from theta"] if bad else []


def window_is_last_targets(window, consumed, W: int) -> list[str]:
    expected = np.asarray(consumed)[-W:]
    if window.shape != expected.shape or not np.array_equal(window, expected):
        return ["window is not the last W target samples consumed"]
    return []


def rejection_in_bounds(train_scores, theta: float, eta: float) -> list[str]:
    """Training rejection lies in [max(0, floor(eta N) - 1) / N, ceil(eta N) / N]."""
    n = len(train_scores)
    frac = float(np.mean(np.asarray(train_scores) > theta))
    lo = max(0, math.floor(eta * n) - 1) / n
    hi = math.ceil(eta * n) / n
    if not lo <= frac <= hi:
        return [f"training rejection {frac:.4f} outside [{lo:.4f}, {hi:.4f}]"]
    return []


LAMBDA_DECADES = [10.0**e for e in range(-8, 9)]
SIGMA_COUNT = 20


def distance_range(X) -> tuple[float, float]:
    d = np.sqrt(sq_dist(X, X)[np.triu_indices(len(X), 1)])
    d = d[d > 0]
    return float(d.min()), float(d.max())


def selection_valid(lam, sigma, cv_error, consistent, X, eta: float, folds: int,
                    sigma_thr: float = 2.0) -> list[str]:
    """λ is a decade, σ lies in X's distance range, and the pair is consistent."""
    out = []
    if not any(abs(lam - d) <= 1e-12 * d for d in LAMBDA_DECADES):
        out.append(f"lambda {lam!r} is not one of the 17 decades 1e-8..1e8")
    dmin, dmax = distance_range(X)
    if not dmin * (1 - 1e-9) <= sigma <= dmax * (1 + 1e-9):
        out.append(f"sigma {sigma!r} outside the pairwise distance range [{dmin}, {dmax}]")
    if consistent is not True:
        out.append("selection returned no consistent candidate")
    m = len(X) // folds
    e_thr = eta + sigma_thr * math.sqrt(eta * (1.0 - eta) / m)
    if not cv_error <= e_thr:
        out.append(f"cv_error {cv_error} above the consistency threshold {e_thr:.6f}")
    return out


def scan_depth(X, lam: float, sigma: float) -> int:
    """Candidates a most-complex-first scan examines to reach (lam, sigma).

    The grid is 20 sigmas evenly spaced over X's pairwise distance range in
    ascending order, each with the 17 lambda decades in descending order.
    Returns 0 when the pair is not on that grid.
    """
    dmin, dmax = distance_range(X)
    sigmas = np.linspace(dmin, dmax, SIGMA_COUNT)
    lams = LAMBDA_DECADES[::-1]
    si = [i for i, s in enumerate(sigmas) if abs(s - sigma) <= 1e-9 * s]
    li = [j for j, v in enumerate(lams) if abs(v - lam) <= 1e-12 * v]
    if not si or not li:
        return 0
    return si[0] * len(lams) + li[0] + 1


def ring_fit_valid(train_labels, probe_labels) -> list[str]:
    """Training rejection in [0.03, 0.07]; at least 95% of hole/rim probes rejected."""
    out = []
    rej = float(np.mean(np.asarray(train_labels) == -1))
    if not 0.03 <= rej <= 0.07:
        out.append(f"training rejection {rej:.4f} outside [0.03, 0.07]")
    caught = float(np.mean(np.asarray(probe_labels) == -1))
    if caught < 0.95:
        out.append(f"only {caught:.4f} of hole and rim probes rejected")
    return out


def batch_sizes(n: int, steps: int) -> list[int]:
    q, r = divmod(n, steps)
    return [q + 1] * r + [q] * (steps - r)


def cli_run_valid(returncode: int, stdout: str, report: dict | None, step_csv: str | None,
                  rows_after: int, targets_after: int) -> list[str]:
    """Exit 0, one JSON line, confusion totals and the step series agree."""
    out = []
    if returncode != 0:
        out.append(f"okc run exited with {returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 1:
        out.append(f"stdout holds {len(lines)} lines, expected one JSON line")
    else:
        try:
            if not isinstance(json.loads(lines[0]), dict):
                out.append("stdout line is not a JSON object")
        except json.JSONDecodeError:
            out.append("stdout line is not JSON")
    if report is None or step_csv is None:
        return out + ["report or step CSV missing"]
    conf = report["confusion"]
    if sum(conf.values()) != rows_after:
        out.append(f"confusion sums to {sum(conf.values())}, rows after the window {rows_after}")
    if conf["tp"] + conf["fn"] != targets_after:
        out.append(f"tp+fn = {conf['tp'] + conf['fn']}, target rows after the window {targets_after}")
    acc = report["overall_accuracy"]
    if abs(acc - (conf["tp"] + conf["tn"]) / rows_after) > 1e-12:
        out.append(f"overall_accuracy {acc} is not (tp + tn) / rows after the window")
    rows = [ln.split(",") for ln in step_csv.strip().splitlines()[1:]]
    if len(rows) != 100:
        out.append(f"step CSV holds {len(rows)} rows, expected 100")
    else:
        sizes = batch_sizes(rows_after, 100)
        weighted = sum(s * float(a) for s, (_, a) in zip(sizes, rows)) / rows_after
        if abs(weighted - acc) > 1e-9:
            out.append(f"step series gives accuracy {weighted:.12f}, report {acc:.12f}")
    return out
