"""Consistency-based hyperparameter selection for the one-class models.

A candidate (lambda, sigma) pair is scored by cross-validated target
rejection: the model is fit on target-only training folds and the validation
error is the fraction of held-out target samples it labels as outliers. A
candidate is *consistent* when that error stays below a threshold derived
from the expected number of rejections plus a few standard deviations of the
corresponding binomial. The search walks candidates from most complex
(smallest sigma, then largest lambda) to least complex and returns the first
consistent one.

The folds are scored in closed form, not by fitting every candidate. For one
sigma the kernel matrix ``K`` of the data is built once; for each fold one
``eigh`` of the training block, ``K_t = U diag(e) U^T``, gives the
regularized Gram ``phi(lambda) = U diag(d) U^T`` with ``d = e + 1/lambda`` for
every lambda of the grid at once (as in exact leave-one-out for LS-SVMs,
Cawley & Talbot 2004, and GCV, Golub, Heath & Wahba 1979). The weights of
every lambda, ``beta = U (U^T T / d)`` with ``T`` the framework's targets of
the training rows, are formed side by side. Training and held-out rows are
then scored as a fitted model scores them: the framework's ``targets``,
``score`` and ``power`` (:mod:`okc.models`) give the training scores from
``beta`` alone and the held-out scores from ``K_c beta``, ``K_c`` the
held-out x training block.

The threshold and the decision are the models' own:
:func:`~okc.models.rejection_threshold` over the training scores, one
threshold per lambda from one call on the (n, L) score matrix, and a held-out
sample is rejected when its score exceeds its lambda's threshold. Equal rows
have exactly equal scores, so every copy of a row takes the score of its first
copy in the training fold (:func:`~okc.models.first_copies`, the models' own
rule); a held-out copy of the training row that sets the threshold then ties
with it, as in exact arithmetic, instead of falling on either side by
round-off in two different formulas. Only one fold's factorization is held at
a time.

A fitted model rejects a regularized Gram whose 1-norm condition number
exceeds ``CONDITION_LIMIT`` (1e14), and so does the search: a candidate any
of whose folds fails the rule scores ``inf``. The eigenvalues give the exact
2-norm condition number ``cond_2 = max d / min d``, and for an n x n matrix
``cond_2 / n <= cond_1 <= n cond_2``. So a fold is accepted when
``n cond_2 <= CONDITION_LIMIT``, rejected when ``min d <= 0`` or
``cond_2 / n > CONDITION_LIMIT``, and only in the band between is the inverse
``(U / d) U^T`` formed to evaluate ``cond_1`` exactly as a fit would. RBF
kernel eigenvalues lie in [0, n] (the trace is n), so ``cond_2 <= n lambda +
1``; with lambda <= 1e8, as on the default grid, ``n cond_2`` stays below
1e14 up to n = 999 training rows, and the band is reachable only for larger
folds (or larger lambdas).

A width stops early once it is proven inconsistent: after fold k < folds,
when ``errors[:k].sum(axis=0) / folds > e_thr`` holds for every lambda, its
remaining folds are not scored. The rule is exact. The mean over folds sums
the same rows in the same order and divides by the same ``folds``; fold
errors are non-negative and floating-point rounding is monotone, so the full
sum is at least the partial one and every lambda's mean error would exceed
``e_thr`` too. None of the width's candidates could have been returned. Only
when no candidate at all is consistent are the skipped widths scored in full,
for the minimum-error fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (IllConditionedError, InsufficientDataError, InsufficientMemoryError, InvalidInputError,
                     check_choice, check_int, check_real)
from .gram_window import CONDITION_LIMIT, condition_1
from .kernel import KernelSpec, as_samples, gram, pairwise_distance_range
from .models import MODELS, check_eta, first_copies, rejection_threshold

# Not used here. Kept bound because the benchmark's tracer
# (okcbench/tracing.py) wraps the fit_boundary binding of this module by name.
from .models import fit_boundary  # noqa: F401


def lambda_grid() -> list[float]:
    """The 17 decade values 1e-8 .. 1e8, ascending."""
    return [float(f"1e{e}") for e in range(-8, 9)]


def sigma_grid(X, count: int = 20) -> list[float]:
    """``count`` kernel widths linearly spaced between the smallest and
    largest pairwise distance in ``X`` (endpoints included).

    Collapses to a single value if all pairwise distances are equal.
    """
    check_int(count, "count", 1)
    dmin, dmax = pairwise_distance_range(X)
    if dmin == dmax or count == 1:
        return [dmin]
    return list(np.linspace(dmin, dmax, count))


def consistency_threshold(M: int, eta: float, sigma_thr: float) -> float:
    """Largest acceptable validation rejection fraction.

    eta + sigma_thr * sqrt(eta * (1 - eta) / M): the expected rejection rate
    plus ``sigma_thr`` standard deviations of the rejection count, per
    validation sample.
    """
    check_int(M, "M", 1)
    eta = check_eta(eta)
    sigma_thr = check_real(sigma_thr, "sigma_thr", 0, low_open=False)
    return eta + sigma_thr * math.sqrt(eta * (1.0 - eta) / M)


@dataclass
class SelectionConfig:
    folds: int = 5
    sigma_thr: float = 2.0
    eta: float = 0.05
    lambdas: list[float] = field(default_factory=lambda_grid)
    sigmas: list[float] | None = None  # None: derive from the data via sigma_grid

    def validate(self) -> None:
        check_int(self.folds, "folds", 2)
        check_eta(self.eta)
        check_real(self.sigma_thr, "sigma_thr", 0, low_open=False)
        for name in ("lambdas", "sigmas"):
            grid = getattr(self, name)
            if grid is None and name == "sigmas":
                continue
            if not isinstance(grid, (list, tuple, np.ndarray)) or len(grid) == 0:
                raise InvalidInputError(f"{name} must be a non-empty list of numbers, got {grid!r}")
            for i, value in enumerate(grid):
                check_real(value, f"{name}[{i}]", 0)


@dataclass
class SelectionResult:
    lam: float
    sigma: float
    cv_error: float
    e_thr: float
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "sigma": self.sigma,
            "cv_error": self.cv_error,
            "e_thr": self.e_thr,
            "consistent": self.consistent,
        }


def _usable(K: np.ndarray, e: np.ndarray, U: np.ndarray, lam: float) -> bool:
    """Whether ``phi = K + I / lam``, with ``K = U diag(e) U^T``, passes the
    fitted models' 1-norm condition rule."""
    d = e + 1.0 / lam
    n = d.size
    if d.min() <= 0:
        return False
    cond_2 = d.max() / d.min()
    if n * cond_2 <= CONDITION_LIMIT:
        return True
    if cond_2 / n > CONDITION_LIMIT:
        return False
    phi = K + (1.0 / lam) * np.eye(n)
    return condition_1(phi, (U / d) @ U.T) <= CONDITION_LIMIT


def _fold_errors(K_t: np.ndarray, K_c: np.ndarray, X_t: np.ndarray, X_c: np.ndarray,
                 framework: str, lams: np.ndarray, eta: float) -> np.ndarray:
    """Held-out target rejection of one fold for every lambda; inf where the
    regularized Gram is numerically unusable.

    ``K_t`` is the training block of the kernel matrix, ``K_c`` the held-out x
    training block, ``X_t`` and ``X_c`` the training and held-out samples;
    ``framework`` names the :data:`~okc.models.MODELS` class whose targets and
    score are used.
    """
    # Copies are found before the factorization: made between the large arrays
    # below, the small temporaries of first_copies raised the peak RSS of a
    # select on 500 rows by 3.4 MB in most runs.
    n = len(X_t)
    copy_t, copy_c = np.split(first_copies(np.concatenate([X_t, X_c])), [n])
    e, U = np.linalg.eigh(K_t)
    errors = np.full(lams.size, np.inf)
    usable = np.array([_usable(K_t, e, U, lam) for lam in lams])
    if not usable.any():
        return errors
    lams = lams[usable]
    d = e[:, None] + 1.0 / lams  # (n, L): eigenvalues of phi, one column per lambda
    model = MODELS[framework]
    targets = model.targets(X_t)
    # beta of every lambda side by side, (n, L * m) for m target columns, so
    # one product serves all; a row reshaped to ``per_row`` holds one per lambda
    per_row = (lams.size, *targets.shape[1:])
    beta = U @ ((U.T @ targets.reshape(n, -1))[:, None, :] / d[:, :, None]).reshape(n, -1)
    train_scores = model.score(beta.reshape(n, *per_row)) / lams**model.power
    held_scores = model.score(model.targets(X_c)[:, None] - (K_c @ beta).reshape(len(X_c), *per_row))
    # Equal rows have, exactly, equal scores: a held-out copy of a training row
    # scores as that row. Taking every copy's score from one row keeps the
    # ties with theta that round-off in the formulas above would break. The
    # training rows come first, so a held-out row copies one when its first
    # copy's index is below n.
    train_scores = train_scores[copy_t]
    copies = copy_c < n
    held_scores[copies] = train_scores[copy_c[copies]]
    errors[usable] = np.mean(held_scores > rejection_threshold(train_scores, eta), axis=0)
    return errors


def _cv_errors(X: np.ndarray, folds: list[np.ndarray], framework: str,
               lambdas: list[float], sigma: float, eta: float,
               e_thr: float = math.inf) -> np.ndarray | None:
    """Mean held-out target rejection across folds for every lambda at one
    sigma; inf where any fold's regularized Gram is numerically unusable.

    None once the folds scored so far prove that every lambda's mean exceeds
    ``e_thr`` (never, with the default); the remaining folds are skipped.
    """
    K = gram(KernelSpec(sigma=sigma), X)
    lams = np.asarray(lambdas, dtype=float)
    errors = np.empty((len(folds), lams.size))
    for i, held_out in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        errors[i] = _fold_errors(K[np.ix_(train_idx, train_idx)], K[np.ix_(held_out, train_idx)],
                                 X[train_idx], X[held_out], framework, lams, eta)
        # the prefix sum of mean below, divided as mean divides (module docstring)
        if i + 1 < len(folds) and (errors[:i + 1].sum(axis=0) / len(folds) > e_thr).all():
            return None
    return errors.mean(axis=0)


def _scan(X: np.ndarray, folds: list[np.ndarray], framework: str, lambdas: list[float],
          sigmas: list[float], eta: float, e_thr: float) -> SelectionResult:
    """The first consistent candidate in scan order (``sigmas`` ascending, then
    ``lambdas`` descending), else the minimum-error one, the earliest on ties."""
    scanned = []  # (sigma, errors or None when skipped), in scan order
    for sigma in sigmas:
        errors = _cv_errors(X, folds, framework, lambdas, sigma, eta, e_thr)
        scanned.append((sigma, errors))
        if errors is None:
            continue
        for lam, err in zip(lambdas, errors):
            if err <= e_thr:
                return SelectionResult(float(lam), float(sigma), float(err), float(e_thr), True)
    best: SelectionResult | None = None
    for sigma, errors in scanned:
        if errors is None:
            errors = _cv_errors(X, folds, framework, lambdas, sigma, eta)
        for lam, err in zip(lambdas, errors):
            if best is None or err < best.cv_error:
                best = SelectionResult(float(lam), float(sigma), float(err), float(e_thr), False)
    if best is None or not np.isfinite(best.cv_error):
        raise IllConditionedError("every candidate's regularized Gram was numerically unusable")
    return best


def select(X, framework: str = "boundary", cfg: SelectionConfig | None = None,
           seed: int = 0) -> SelectionResult:
    """Pick (lambda, sigma) for target-only data ``X`` by consistency.

    Candidates are evaluated in complexity order and the first one whose
    cross-validated rejection stays below the consistency threshold is
    returned. If none qualifies the minimum-error candidate is returned with
    ``consistent=False``.

    Raises InsufficientMemoryError when the N x N distance or kernel arrays of
    the N rows cannot be allocated.
    """
    check_choice(framework, "framework", tuple(MODELS))
    cfg = cfg or SelectionConfig()
    cfg.validate()
    check_int(seed, "seed", 0)
    X = as_samples(X)
    N = X.shape[0]
    if N < 2 * cfg.folds:
        raise InsufficientDataError(f"need at least {2 * cfg.folds} samples for {cfg.folds} folds, got {N}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(N)
    folds = np.array_split(order, cfg.folds)
    e_thr = consistency_threshold(N // cfg.folds, cfg.eta, cfg.sigma_thr)
    try:
        sigmas = cfg.sigmas if cfg.sigmas is not None else sigma_grid(X)
        # most complex first: tightest kernel, then weakest regularization
        return _scan(X, folds, framework, sorted(cfg.lambdas, reverse=True), sorted(sigmas),
                     cfg.eta, e_thr)
    except MemoryError as exc:
        raise InsufficientMemoryError(
            f"out of memory selecting on {N} rows: the search holds {N} x {N} distance and "
            f"kernel arrays of {N * N * 8 / 2**30:.1f} GiB each"
        ) from exc
