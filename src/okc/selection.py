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
Householder tridiagonalization of the training block, ``K_t = Q T Q^T``
(LAPACK ``dsytrd``), serves every lambda of the grid: the regularized Gram is
``phi(lambda) = Q (T + I / lambda) Q^T``, so its weights are ``beta = Q y``
with ``(T + I / lambda) y = Q^T T_f``, ``T_f`` the framework's targets of the
training rows. ``Q^T`` is applied to the targets once, each lambda solves its
tridiagonal system in O(n) (``dptsv``), and ``Q`` is applied once to the
weights of all lambdas side by side (``dormtr``). One reduction for many
regularization parameters is Elden's (BIT 1977) device for Tikhonov problems,
of the same family as exact leave-one-out for LS-SVMs (Cawley & Talbot 2004)
and GCV (Golub, Heath & Wahba 1979). Training and held-out rows are then
scored as a fitted model scores them: a framework is its ``targets`` and its
``score`` (:mod:`okc.models`), the training rows score their closed-form
residuals ``beta / lambda`` (``score_training``, the models' own rule), and
the held-out rows their residuals ``targets - K_c beta``, ``K_c`` the
held-out x training block. The LAPACK calls come from :mod:`okc._blas`;
where they are not bound, its fallback reduces by ``eigh``, a
tridiagonalization with a zero off-diagonal.

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
of whose folds fails the rule scores ``inf``. The rule is two-way, and its
proof needs no spectrum. An RBF block is positive semi-definite with entries
in [0, 1], so its eigenvalues lie in [0, r], ``r`` its largest row sum
(Gershgorin), and the 2-norm condition number of ``phi`` is ``cond_2 <=
lambda r + 1``; for an n x n matrix ``cond_1 <= n cond_2``. Where ``n (lambda
r + 1) <= CONDITION_LIMIT``, the fit would accept ``phi`` and the tridiagonal
system is solved. Every other lambda, and one whose tridiagonal pivot
round-off makes non-positive, is decided and solved as a fit decides: ``phi``
is inverted by Cholesky (``_inverse_factor``), refused unless it is positive
definite with ``cond_1`` within the limit. A row sum is at most n, so with
lambda <= 1e8, as on the default grid, every fold of up to 999 training rows
is proven whatever the data, and only larger folds (or larger lambdas) can
reach the Cholesky path.

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

from . import _blas
from .errors import (IllConditionedError, InsufficientDataError, InsufficientMemoryError, InvalidInputError,
                     check_choice, check_int, check_real)
from .gram_window import CONDITION_LIMIT, _inverse_factor, _regularize
from .kernel import KernelSpec, as_samples, check_sigma, gram, pairwise_distance_range
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


@dataclass(frozen=True)
class SelectionConfig:
    """Settings of a search, checked when made: each field holds what its check returns."""

    folds: int = 5
    sigma_thr: float = 2.0
    eta: float = 0.05
    lambdas: tuple[float, ...] = field(default_factory=lambda_grid)
    sigmas: tuple[float, ...] | None = None  # None: derive from the data via sigma_grid

    def __post_init__(self):
        store = super().__setattr__  # the frozen class's own __setattr__ refuses
        store("folds", check_int(self.folds, "folds", 2))
        store("eta", check_eta(self.eta))
        store("sigma_thr", check_real(self.sigma_thr, "sigma_thr", 0, low_open=False))
        for name, check in (("lambdas", lambda value, at: check_real(value, at, 0)), ("sigmas", check_sigma)):
            grid = getattr(self, name)
            if grid is None and name == "sigmas":
                continue
            if not isinstance(grid, (list, tuple, np.ndarray)) or len(grid) == 0:
                raise InvalidInputError(f"{name} must be a non-empty list of numbers, got {grid!r}")
            store(name, tuple(check(value, f"{name}[{i}]") for i, value in enumerate(grid)))


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


def _weights(K_t: np.ndarray, targets: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(usable, beta)`` for the (n, m) ``targets`` of the rows of ``K_t``:
    which ``lams`` pass the fitted models' condition rule, and the weights
    ``beta = (K_t + I / lam)^-1 targets`` of those lambdas side by side, an
    (n, U * m) array for U usable lambdas, so that one product serves all.

    ``K_t`` is a whole RBF block, both triangles. A lambda that its largest
    row sum ``r`` proves, ``n (lam r + 1) <= CONDITION_LIMIT``, is solved by
    the tridiagonal system; every other one, and one whose pivot round-off
    refuses, is decided and solved by a fit's own rule: the Cholesky inverse
    and ``cond_1`` (module docstring)."""
    n, m = targets.shape
    diagonal, off_diagonal, q = _blas.sytrd(K_t)
    rotated = _blas.ormtr(q, targets, transpose=True)  # Q^T targets
    # n cond_2 <= n (lam r + 1) <= limit
    proven = n * (lams * K_t.sum(axis=1).max() + 1.0) <= CONDITION_LIMIT
    usable = np.ones(lams.size, dtype=bool)
    y = np.zeros((n, lams.size, m))
    for j, lam in enumerate(lams):
        if proven[j]:
            try:
                y[:, j] = _blas.ptsv(diagonal + 1.0 / lam, off_diagonal, rotated)
                continue
            except np.linalg.LinAlgError:
                pass  # a pivot that round-off made non-positive
        try:
            inverse = _inverse_factor(_regularize(K_t.copy(), lam), "regularized Gram matrix")[1]
        except IllConditionedError:
            usable[j] = False
            continue
        y[:, j] = _blas.ormtr(q, inverse @ targets, transpose=True)
    return usable, _blas.ormtr(q, y[:, usable].reshape(n, -1))


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
    model = MODELS[framework]
    targets = model.targets(X_t)
    usable, beta = _weights(K_t, targets.reshape(n, -1), lams)
    errors = np.full(lams.size, np.inf)
    if not usable.any():
        return errors
    lams = lams[usable]
    per_row = (lams.size, *targets.shape[1:])  # a row of beta holds one weight per lambda
    # each lambda divides its own weights: (L,) against a vector target's, (L, 1) against a matrix's
    lam_shape = (lams.size, *[1] * (targets.ndim - 1))
    train_scores = model.score_training(beta.reshape(n, *per_row), lams.reshape(lam_shape))
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
