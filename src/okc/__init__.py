"""Streaming one-class classification with sliding-window regularized kernel models."""

from .errors import (
    DegenerateDataError,
    DimensionError,
    EmptyTargetError,
    FormatError,
    IllConditionedError,
    InsufficientDataError,
    InsufficientMemoryError,
    InvalidInputError,
    OkcError,
    SchemaError,
    SpecError,
    UndefinedMetricError,
    WindowUnderflowError,
)
from .evaluation import EvalReport, RunConfig, auc, run_stationary, run_stream, slide_benchmark, stepwise_accuracy
from .gram_window import RegGramState, direct_inverse_oracle, track_inversions
from .kernel import KernelSpec, eval_kernel, gram, pairwise_distance_range
from .models import (
    BoundaryModel,
    ReconstructionModel,
    fit_boundary,
    fit_reconstruction,
    load_model,
    rejection_threshold,
    save_model,
)
from .selection import SelectionConfig, SelectionResult, consistency_threshold, lambda_grid, select, sigma_grid
from .streams import (
    Dataset,
    DatasetSchema,
    DriftStreamSpec,
    LabeledSample,
    gen_ring,
    gen_stream,
    load_csv,
    minmax_normalize,
    save_csv,
    to_one_class,
)

__version__ = "0.1.0"
