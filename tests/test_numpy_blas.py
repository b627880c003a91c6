"""The state, model, selection and criterion 1, 2 and 8 tests again, with
every ``okc._blas`` primitive on its NumPy fallback (``numpy_blas`` in
conftest.py).

A NumPy built on MKL or Accelerate, or one whose OpenBLAS uses 32-bit
integers, always runs the fallback, so it is tested here as a path of its own.
There ``select`` reduces each fold by ``eigh``. The tests are imported by name,
so they are collected and run again in this module; their ids here are
``tests.test_numpy_blas::<name>``.
"""

import pytest

from test_acceptance import (  # noqa: F401
    test_criterion_1_incremental_inverse_oracle_equivalence,
    test_criterion_2_online_equals_batch,
    test_criterion_8_incremental_speedup,
)
from test_gram_window import *  # noqa: F401,F403
from test_models import *  # noqa: F401,F403
from test_selection import (  # noqa: F401
    test_a_non_homogeneous_score_scores_training_rows_by_their_residuals,
    test_condition_rule_matches_dense_fits_in_band,
    test_held_out_copies_score_as_their_training_rows,
    test_refused_pivot_is_scored_as_a_dense_fit_decides,
    test_row_sums_prove_every_fold_of_up_to_999_rows_at_lambda_1e8,
    test_select_deterministic_and_matches_dense_reference,
    test_select_fallback_scores_skipped_widths_in_full,
    test_select_matches_dense_reference_on_corpus,
    test_select_on_near_identity_folds_matches_dense_reference,
    test_select_stops_widths_proven_inconsistent,
)


@pytest.fixture(autouse=True)
def _fallback(numpy_blas):
    pass
