"""Synthetic stream generation, CSV ingestion and one-class relabeling.

Every producer returns one columnar :class:`Dataset`: features ``X`` in
stream order and labels ``y``, which the run modes in :mod:`okc.evaluation`
read directly.

Generators cover four drift families: a stationary ring, a unimodal Gaussian
pair whose means translate (optionally with a sinusoidal transverse wobble),
a multimodal Gaussian pair with alternating mode dominance, and a pair of
classes rotating on opposite sides of a circle. All randomness flows from the
spec's seed, so equal specs produce bitwise-identical streams.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (EmptyTargetError, FormatError, InvalidInputError, SchemaError, SpecError, check_choice, check_int,
                     check_real)

FAMILIES = ("ring", "unimodal_drift", "multimodal_drift", "rotating")

# CSV rows parsed or written at a time; bounds the cells held besides the arrays
_CHUNK_ROWS = 4096
# what the surrogateescape error handler reads an undecodable byte as
_UNDECODED = re.compile("[\udc80-\udcff]")


class LabeledSample(NamedTuple):
    features: np.ndarray
    label: object


@dataclass(frozen=True, eq=False)
class Dataset:
    """Features ``X`` (n x d floats) and labels ``y``: +1/-1 ints (from the
    generators and :func:`to_one_class`), or the int/float/str values of a
    CSV's label cells in an object array (from :func:`load_csv`). ``ds[i]``
    and iteration give ``(features, label)`` rows, the features a view into
    ``X``. Checked when made: ``X`` is held as a float array and ``y`` as an
    array (a list of labels as an object array, its values kept), and
    InvalidInputError refuses an ``X`` that is ragged or not numeric, an ``X``
    that is not 2-D, a ``y`` that is not 1-D, or a ``y`` with another number
    of rows. An array that is already so is held as it is, without a copy."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        try:
            X = np.asarray(self.X)  # NumPy refuses a ragged nested list with ValueError
            if X.dtype.kind not in "biuf":
                raise ValueError
        except ValueError:
            raise InvalidInputError("a dataset's X must be real numbers in rows of one length") from None
        store = super().__setattr__  # the frozen class's own __setattr__ refuses
        store("X", X.astype(float, copy=False))
        store("y", self.y if isinstance(self.y, np.ndarray) else np.array(self.y, dtype=object))
        x_shape, y_shape = self.X.shape, self.y.shape
        if len(x_shape) != 2 or len(y_shape) != 1 or x_shape[0] != y_shape[0]:
            raise InvalidInputError(f"a dataset needs a 2-D X and a 1-D y of as many rows, "
                                    f"got X {x_shape} and y {y_shape}")

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i) -> LabeledSample:
        return LabeledSample(self.X[i], self.y.item(i))

    def __iter__(self):
        return map(LabeledSample, self.X, self.y.tolist())


@dataclass(frozen=True)
class DriftStreamSpec:
    """Parametric description of a labeled synthetic stream, checked when made:
    SpecError refuses a field of the wrong type, or out of its range. Every
    field is checked for its type and finiteness and held as its check returns
    it (a vector as a tuple of floats); the mode, rotation and ring parameters
    are checked for their range only in their family, and a ring is 2-D.

    ``velocity`` is the displacement of the target-class mean per drift step;
    ``class_offset`` positions the outlier class relative to the target class.
    Mode and rotation parameters apply only to their families and are ignored
    elsewhere.
    """

    family: str = "unimodal_drift"
    n_dims: int = 2
    total: int = 10000
    drift_period: int = 200
    class_balance: float = 0.5
    seed: int = 0
    spread: float = 1.0
    velocity: tuple[float, ...] | None = None
    wave_amplitude: float = 0.0
    wave_period: float = 25.0
    class_offset: tuple[float, ...] | None = None
    mode_count: int = 2
    mode_spacing: float = 6.0
    dominance_period: int = 10
    dominant_weight: float = 0.7
    rotation_period: float = 40.0
    orbit_radius: float = 8.0
    r_inner: float = 1.0
    r_outer: float = 2.0

    def __post_init__(self):
        store = super().__setattr__  # the frozen class's own __setattr__ refuses
        check_choice(self.family, "family", FAMILIES, error=SpecError)
        ring, rotating, multimodal = (self.family == f for f in ("ring", "rotating", "multimodal_drift"))
        for name, minimum in (("n_dims", 2 if ring or rotating else 1), ("total", 1), ("drift_period", 1), ("seed", 0),
                              ("mode_count", 2 if multimodal else -math.inf),
                              ("dominance_period", 1 if multimodal else -math.inf)):
            store(name, check_int(getattr(self, name), name, minimum, error=SpecError))
        if ring and self.n_dims != 2:
            raise SpecError(f"the ring family is 2-D: n_dims must be 2, got {self.n_dims}")
        store("class_balance", check_real(self.class_balance, "class_balance", 0, 1, error=SpecError))
        store("dominant_weight", check_real(self.dominant_weight, "dominant_weight", 0 if multimodal else -math.inf,
                                            1 if multimodal else math.inf, error=SpecError))
        for name in ("spread", "wave_period"):
            store(name, check_real(getattr(self, name), name, 0, error=SpecError))
        store("rotation_period", check_real(self.rotation_period, "rotation_period",
                                            0 if rotating else -math.inf, error=SpecError))
        store("r_inner", check_real(self.r_inner, "r_inner", 0 if ring else -math.inf, error=SpecError))
        store("r_outer", check_real(self.r_outer, "r_outer", self.r_inner if ring else -math.inf, error=SpecError))
        for name in ("wave_amplitude", "mode_spacing", "orbit_radius"):
            store(name, check_real(getattr(self, name), name, error=SpecError))
        for name in ("velocity", "class_offset"):
            vec = getattr(self, name)
            if vec is None:
                continue
            if not isinstance(vec, (list, tuple, np.ndarray)) or len(vec) != self.n_dims:
                raise SpecError(f"{name} must be null or a list of {self.n_dims} numbers, got {vec!r}")
            store(name, tuple(check_real(value, f"{name}[{i}]", error=SpecError) for i, value in enumerate(vec)))

    def _velocity(self) -> np.ndarray:
        return np.zeros(self.n_dims) if self.velocity is None else np.asarray(self.velocity, float)

    def _class_offset(self) -> np.ndarray:
        if self.class_offset is not None:
            return np.asarray(self.class_offset, float)
        off = np.zeros(self.n_dims)
        off[0] = 6.0 * self.spread  # default: outliers sit 6 spreads away along axis 0
        return off


def gen_ring(n: int, r_inner: float, r_outer: float, seed: int = 0) -> Dataset:
    """``n`` target samples drawn uniformly from the 2-D annulus."""
    check_int(n, "n", 0, error=SpecError)
    check_real(r_inner, "r_inner", 0, error=SpecError)
    check_real(r_outer, "r_outer", r_inner, error=SpecError)
    check_int(seed, "seed", 0, error=SpecError)
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(n) * (r_outer**2 - r_inner**2) + r_inner**2)
    angle = rng.random(n) * 2.0 * math.pi
    xy = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return Dataset(xy, np.ones(n, dtype=int))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def gen_stream(spec: DriftStreamSpec) -> Dataset:
    """Generate the labeled stream described by ``spec``, in stream order.

    Raises SpecError when the stream's features overflow.
    """
    rng = np.random.default_rng(spec.seed)
    total, dims = spec.total, spec.n_dims
    labels = np.where(rng.random(total) < spec.class_balance, 1, -1)
    steps = np.arange(total) // spec.drift_period

    if spec.family == "ring":
        X = _ring_positions(spec, rng, labels)
    else:
        means = _class_means(spec, rng, steps, labels)
        X = means + spec.spread * rng.standard_normal((total, dims))
    if not np.isfinite(X).all():
        raise SpecError("the stream overflows: its features are not all finite")
    return Dataset(X, labels)


def _ring_positions(spec, rng, labels) -> np.ndarray:
    total = labels.shape[0]
    u = rng.random(total)
    angle = rng.random(total) * 2.0 * math.pi
    inner_side = rng.random(total) < 0.5
    r_in, r_out = spec.r_inner, spec.r_outer
    radius = np.sqrt(u * (r_out**2 - r_in**2) + r_in**2)  # targets: uniform annulus
    # outliers: half inside the hole, half beyond the rim
    r_hole = 0.5 * r_in * np.sqrt(u)
    r_rim = np.sqrt(u * ((2 * r_out) ** 2 - (1.5 * r_out) ** 2) + (1.5 * r_out) ** 2)
    out_radius = np.where(inner_side, r_hole, r_rim)
    radius = np.where(labels == 1, radius, out_radius)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def _class_means(spec, rng, steps, labels) -> np.ndarray:
    total, dims = labels.shape[0], spec.n_dims
    if spec.family == "rotating":
        # classes orbit the origin half a revolution apart
        theta = 2.0 * math.pi * steps / spec.rotation_period
        target_mean = np.zeros((total, dims))
        target_mean[:, 0] = spec.orbit_radius * np.cos(theta)
        target_mean[:, 1] = spec.orbit_radius * np.sin(theta)
        return np.where(labels[:, None] == 1, target_mean, -target_mean)

    target_mean = steps[:, None] * spec._velocity()[None, :]
    if spec.wave_amplitude != 0.0:
        axis = 1 if dims >= 2 else 0
        target_mean[:, axis] += spec.wave_amplitude * np.sin(
            2.0 * math.pi * steps / spec.wave_period
        )
    means = np.where(labels[:, None] == 1, target_mean, target_mean + spec._class_offset()[None, :])
    if spec.family == "multimodal_drift":
        means = means + _mode_offsets(spec, rng, steps)
    return means


def _mode_offsets(spec, rng, steps) -> np.ndarray:
    total, dims, m = steps.shape[0], spec.n_dims, spec.mode_count
    dominant = (steps // spec.dominance_period) % m
    u = rng.random(total)
    others = rng.integers(0, m - 1, total)
    minor = np.where(others >= dominant, others + 1, others)
    mode = np.where(u < spec.dominant_weight, dominant, minor)
    axis = dims - 1  # modes spread along the last axis
    offsets = np.zeros((total, dims))
    offsets[:, axis] = (mode - (m - 1) / 2.0) * spec.mode_spacing
    return offsets


def check_delimiter(delimiter) -> str:
    """``delimiter``, if the csv module can split on it; else InvalidInputError."""
    try:
        csv.reader([], delimiter=delimiter)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"unusable CSV delimiter {delimiter!r}: {exc}") from None
    return delimiter


@dataclass(frozen=True)
class DatasetSchema:
    """How to read a labeled CSV: its delimiter, where the label lives (a
    column index, or a header name), and whether the first row is a header.
    Checked when made: a path that is neither text nor path-like, an unusable
    delimiter, a label column that is neither text nor an integer, or a header
    flag that is not a bool raises InvalidInputError."""

    path: str | Path = ""
    delimiter: str = ","
    label_column: int | str = -1
    header: bool = False

    def __post_init__(self):
        if not isinstance(self.path, (str, os.PathLike)):
            raise InvalidInputError(f"path must be text or a path, got {self.path!r}")
        check_delimiter(self.delimiter)
        if not isinstance(self.label_column, str):
            super().__setattr__("label_column", check_int(self.label_column, "label_column"))
        if not isinstance(self.header, bool):
            raise InvalidInputError(f"header must be a bool, got {self.header!r}")


def _parse_raw_label(label):
    """A label's value: text, stripped, reads as an int, else a float, else as
    itself (``1``, ``1.0`` and `` 01`` are all 1); any other label as itself."""
    if not isinstance(label, str):
        return label
    label = label.strip()
    for cast in (int, float):
        try:
            return cast(label)
        except ValueError:
            continue
    return label


def load_csv(schema: DatasetSchema) -> Dataset:
    """Read ``schema.path`` into a dataset, preserving row order; blank lines are skipped.

    It only reads: the labels are the values of the label cells
    (:func:`_parse_raw_label`) in an object array, and :func:`to_one_class`
    decides which are targets.

    Rows are parsed ``_CHUNK_ROWS`` at a time, so ingest holds one chunk of
    cells besides the arrays. Raises FormatError on non-numeric features,
    ragged rows, bytes that are not text and CSV syntax errors, and
    SchemaError when the label column cannot be resolved; the error names
    the first bad line, whatever its fault.
    """
    path = Path(schema.path)
    label_idx = schema.label_column
    X_parts: list[np.ndarray] = []
    label_parts: list[np.ndarray] = []
    # Bytes that do not decode are read as lone surrogates and refused with the
    # row that holds them, so the first bad line is named whatever its fault.
    with path.open(newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            offset = 0  # rows read before the current chunk
            if schema.header:
                header = next(reader, None)
                if header is None:
                    raise FormatError(f"{path}: empty file, expected a header row")
                _check_text(header, 1, path, fh.encoding)
                offset = 1
                if isinstance(label_idx, str):
                    if label_idx not in header:
                        raise SchemaError(f"label column {label_idx!r} not in header {header}")
                    label_idx = header.index(label_idx)
            elif isinstance(label_idx, str):
                raise SchemaError("label column given by name but the file has no header")

            width = None  # cells in the first data row
            for chunk in _chunks(reader):
                data = [row for row in chunk if row]
                if data:
                    width = width or len(data[0])
                    try:
                        X, labels = _columns(data, label_idx, width)
                    except ValueError:
                        _raise_first_bad_row(chunk, offset, label_idx, schema.label_column, width,
                                             path, fh.encoding)
                        raise
                    X_parts.append(X)
                    label_parts.append(labels)
                offset += len(chunk)
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None

    X = np.concatenate(X_parts) if X_parts else np.empty((0, 0))
    y = np.concatenate(label_parts) if label_parts else np.empty(0, object)
    return Dataset(X, y)


def _chunks(reader):
    """The reader's rows, ``_CHUNK_ROWS`` at a time. The rows read before a CSV
    syntax error are yielded before the error is raised."""
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(itertools.islice(reader, _CHUNK_ROWS))
        except csv.Error:
            yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _columns(rows: list[list[str]], label_idx: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows' features and label values; a malformed row raises ValueError.

    Every row must have ``width`` cells, the width of the file's first data row.
    """
    if any(len(row) != width for row in rows) or not -width <= label_idx < width:
        raise ValueError("rows differ in width or lack the label column")
    columns = list(zip(*rows))
    cells = columns.pop(label_idx)
    values = {cell: _parse_raw_label(cell) for cell in set(cells)}  # each distinct cell parsed once
    if any(map(_UNDECODED.search, values)):
        raise ValueError("a label cell holds bytes that did not decode")
    X = np.empty((len(rows), width - 1))
    for j, column in enumerate(columns):
        X[:, j] = np.fromiter(map(float, column), float, len(rows))
    return X, np.fromiter(map(values.__getitem__, cells), object, len(rows))


def _raise_first_bad_row(rows, offset: int, label_idx: int, label_column, width: int,
                         path: Path, encoding: str) -> None:
    """Raise the error of the first malformed row of a chunk, naming its line.

    ``offset`` rows of the file precede the chunk, and ``width`` is the cell
    count of the file's first data row.
    """
    for lineno, row in enumerate(rows, start=offset + 1):
        if not row:
            continue
        _check_text(row, lineno, path, encoding)
        if not -len(row) <= label_idx < len(row):
            raise SchemaError(f"line {lineno}: no column {label_column!r} in {len(row)}-cell row")
        if len(row) != width:
            raise FormatError(f"line {lineno}: expected {width - 1} features, got {len(row) - 1}")
        resolved = label_idx % len(row)
        for cell in row[:resolved] + row[resolved + 1 :]:
            try:
                float(cell)
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric feature {cell!r}") from None


def _check_text(row: list[str], lineno: int, path: Path, encoding: str) -> None:
    """Raise FormatError if ``row`` holds bytes that did not decode."""
    if _UNDECODED.search("".join(row)):
        raise FormatError(f"{path}: line {lineno}: not {encoding} text")


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as ``f1..fn,label`` with a header, full float precision."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i + 1}" for i in range(ds.X.shape[1])] + ["label"])
        for lo in range(0, len(ds), _CHUNK_ROWS):
            block = slice(lo, lo + _CHUNK_ROWS)
            writer.writerows([*map(repr, row), label]
                             for row, label in zip(ds.X[block].tolist(), ds.y[block].tolist()))


def minmax_normalize(ds: Dataset) -> Dataset:
    """Rescale every feature to [0, 1] over all rows (constant columns map to 0)."""
    if not len(ds):
        return ds
    lo, hi = ds.X.min(axis=0), ds.X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return Dataset((ds.X - lo) / span, ds.y)


TARGET_LABEL = 1  # the label read as the target class unless another is named


def to_one_class(ds: Dataset, target_labels) -> tuple[Dataset, dict[str, int]]:
    """Map labels to int8 +1 (equal in value to one of ``target_labels``) / -1,
    sharing ``X``; returns the class counts too. A text target is read as a
    label cell is (:func:`_parse_raw_label`): ``"1"`` matches the labels 1 and 1.0.
    """
    targets = set(map(_parse_raw_label, target_labels))
    if not targets:
        raise EmptyTargetError("target label set is empty")
    mask = np.fromiter(map(targets.__contains__, ds.y.tolist()), bool, len(ds))
    n_target = int(mask.sum())
    if n_target == 0:
        raise EmptyTargetError(f"no sample carries a label in {sorted(map(str, targets))}")
    y = np.where(mask, np.int8(1), np.int8(-1))  # int8: 0.1 MB per 100k labels, not 0.8
    return Dataset(ds.X, y), {"target": n_target, "outlier": len(ds) - n_target}
