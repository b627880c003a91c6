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
Cawley & Talbot 2004, and GCV, Golub, Heath & Wahba 1979):

- boundary: ``beta = U (U^T 1 / d)``. Since ``phi beta = 1``, the training
  scores ``|K_t beta - 1|`` equal ``|beta| / lambda``; the held-out scores are
  ``|K_c beta - 1|`` with ``K_c`` the held-out x training block.
- reconstruction: ``B = U (U^T X_t / d)``; the training errors
  ``||X_t - K_t B||^2`` row by row equal ``||B_i||^2 / lambda^2``; the held-out
  errors are ``||z - k(z) B||^2``.

The threshold and the decision are the models' own:
:func:`~okc.models.rejection_threshold` over the training scores, and a
held-out sample is rejected when its score exceeds it. Equal rows have
exactly equal scores, so every copy of a row takes the score of its first
copy in the training fold; a held-out copy of the training row that sets the
threshold then ties with it, as in exact arithmetic, instead of falling on
either side by round-off in two different formulas. Only one fold's
factorization is held at a time.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, InsufficientDataError, InvalidInputError
from .gram_window import CONDITION_LIMIT, condition_1
from .kernel import KernelSpec, gram, pairwise_distance_range
from .models import rejection_threshold

# Not used here. Kept bound because the benchmark's tracer
# (okcbench/tracing.py) wraps the fit_boundary binding of this module by name.
from .models import fit_boundary  # noqa: F401

FRAMEWORKS = ("boundary", "reconstruction")


def lambda_grid() -> list[float]:
    """The 17 decade values 1e-8 .. 1e8, ascending."""
    return [float(f"1e{e}") for e in range(-8, 9)]


def sigma_grid(X, count: int = 20) -> list[float]:
    """``count`` kernel widths linearly spaced between the smallest and
    largest pairwise distance in ``X`` (endpoints included).

    Collapses to a single value if all pairwise distances are equal.
    """
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
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
    if M < 1:
        raise InvalidInputError(f"M must be >= 1, got {M}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidInputError(f"eta must lie in [0, 1], got {eta!r}")
    if sigma_thr < 0:
        raise InvalidInputError(f"sigma_thr must be >= 0, got {sigma_thr!r}")
    return eta + sigma_thr * math.sqrt(eta * (1.0 - eta) / M)


@dataclass
class SelectionConfig:
    folds: int = 5
    sigma_thr: float = 2.0
    eta: float = 0.05
    lambdas: list[float] = field(default_factory=lambda_grid)
    sigmas: list[float] | None = None  # None: derive from the data via sigma_grid

    def validate(self) -> None:
        if self.folds < 2:
            raise InvalidInputError(f"folds must be >= 2, got {self.folds}")
        if not self.lambdas or any(l <= 0 for l in self.lambdas):
            raise InvalidInputError("lambdas must be a non-empty list of positive reals")
        if self.sigmas is not None and (not self.sigmas or any(s <= 0 for s in self.sigmas)):
            raise InvalidInputError("sigmas must be a non-empty list of positive reals")


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
                 copy_t: np.ndarray, copy_c: np.ndarray, framework: str, lams: np.ndarray,
                 eta: float) -> np.ndarray:
    """Held-out target rejection of one fold for every lambda; inf where the
    regularized Gram is numerically unusable.

    ``K_t`` is the training block of the kernel matrix, ``K_c`` the held-out x
    training block, ``X_t`` and ``X_c`` the training and held-out samples;
    ``copy_t`` and ``copy_c`` are from :func:`_first_copies`.
    """
    e, U = np.linalg.eigh(K_t)
    errors = np.full(lams.size, np.inf)
    usable = np.array([_usable(K_t, e, U, lam) for lam in lams])
    if not usable.any():
        return errors
    lams = lams[usable]
    d = e[:, None] + 1.0 / lams  # (n, L): eigenvalues of phi, one column per lambda
    if framework == "boundary":
        beta = U @ (U.sum(axis=0)[:, None] / d)
        train_scores = np.abs(beta) / lams
        held_scores = np.abs(K_c @ beta - 1.0)
    else:
        n, dims = X_t.shape
        # B of every lambda side by side, (n, L * dims), so one product serves all
        B = U @ ((U.T @ X_t)[:, None, :] / d[:, :, None]).reshape(n, -1)
        B3 = B.reshape(n, lams.size, dims)
        train_scores = np.einsum("ilk,ilk->il", B3, B3) / lams**2
        err = X_c[:, None, :] - (K_c @ B).reshape(len(X_c), lams.size, dims)
        held_scores = np.einsum("ilk,ilk->il", err, err)
    # Equal rows have, exactly, equal scores: a held-out copy of a training row
    # scores as that row. Taking every copy's score from one row keeps the
    # ties with theta that round-off in the formulas above would break.
    train_scores = train_scores[copy_t]
    copies = copy_c >= 0
    held_scores[copies] = train_scores[copy_c[copies]]
    errors[usable] = [
        np.mean(held_scores[:, j] > rejection_threshold(train_scores[:, j], eta))
        for j in range(lams.size)
    ]
    return errors


def _first_copies(X: np.ndarray, train_idx: np.ndarray, held_out: np.ndarray):
    """Position in ``train_idx`` of the first training row equal to each
    training row, and to each held-out row (-1 where none is equal)."""
    _, row_id = np.unique(X, axis=0, return_inverse=True)
    ids, first = np.unique(row_id[train_idx], return_index=True)
    position = np.full(row_id.max() + 1, -1)
    position[ids] = first
    return position[row_id[train_idx]], position[row_id[held_out]]


def _cv_errors(X: np.ndarray, folds: list[np.ndarray], framework: str,
               lambdas: list[float], sigma: float, eta: float) -> np.ndarray:
    """Mean held-out target rejection across folds for every lambda at one
    sigma; inf where any fold's regularized Gram is numerically unusable."""
    K = gram(KernelSpec(sigma=sigma), X)
    lams = np.asarray(lambdas, dtype=float)
    errors = np.empty((len(folds), lams.size))
    for i, held_out in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        errors[i] = _fold_errors(K[np.ix_(train_idx, train_idx)], K[np.ix_(held_out, train_idx)],
                                 X[train_idx], X[held_out], *_first_copies(X, train_idx, held_out),
                                 framework, lams, eta)
    return errors.mean(axis=0)


def select(X, framework: str = "boundary", cfg: SelectionConfig | None = None,
           seed: int = 0) -> SelectionResult:
    """Pick (lambda, sigma) for target-only data ``X`` by consistency.

    Candidates are evaluated in complexity order and the first one whose
    cross-validated rejection stays below the consistency threshold is
    returned. If none qualifies the minimum-error candidate is returned with
    ``consistent=False``.
    """
    if framework not in FRAMEWORKS:
        raise InvalidInputError(f"framework must be one of {FRAMEWORKS}, got {framework!r}")
    cfg = cfg or SelectionConfig()
    cfg.validate()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    N = X.shape[0]
    if N < 2 * cfg.folds:
        raise InsufficientDataError(f"need at least {2 * cfg.folds} samples for {cfg.folds} folds, got {N}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(N)
    folds = np.array_split(order, cfg.folds)
    e_thr = consistency_threshold(N // cfg.folds, cfg.eta, cfg.sigma_thr)

    sigmas = cfg.sigmas if cfg.sigmas is not None else sigma_grid(X)
    # most complex first: tightest kernel, then weakest regularization
    lambdas = sorted(cfg.lambdas, reverse=True)

    best: SelectionResult | None = None
    for sigma in sorted(sigmas):
        for lam, err in zip(lambdas, _cv_errors(X, folds, framework, lambdas, sigma, cfg.eta)):
            if err <= e_thr:
                return SelectionResult(float(lam), float(sigma), float(err), float(e_thr), True)
            if best is None or err < best.cv_error:
                best = SelectionResult(float(lam), float(sigma), float(err), float(e_thr), False)
    if best is None or not np.isfinite(best.cv_error):
        raise IllConditionedError("every candidate's regularized Gram was numerically unusable")
    return best
