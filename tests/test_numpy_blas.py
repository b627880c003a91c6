"""The state, model and criterion 1, 2 and 8 tests again, with every
``okc._blas`` primitive on its NumPy fallback (``numpy_blas`` in conftest.py).

A NumPy built on MKL or Accelerate, or one whose OpenBLAS uses 32-bit
integers, always runs the fallback, so it is tested here as a path of its own.
The tests are imported by name, so they are collected and run again in this
module; their ids here are ``tests.test_numpy_blas::<name>``.
"""

import pytest

from test_acceptance import (  # noqa: F401
    test_criterion_1_incremental_inverse_oracle_equivalence,
    test_criterion_2_online_equals_batch,
    test_criterion_8_incremental_speedup,
)
from test_gram_window import *  # noqa: F401,F403
from test_models import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _fallback(numpy_blas):
    pass
