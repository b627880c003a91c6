import re
import tracemalloc

import numpy as np
import pytest

import okc.streams as streams
from okc import (
    Dataset,
    DatasetSchema,
    DriftStreamSpec,
    EmptyTargetError,
    FormatError,
    InvalidInputError,
    SchemaError,
    SpecError,
    gen_ring,
    gen_stream,
    load_csv,
    minmax_normalize,
    save_csv,
    to_one_class,
)


# ---- ring -------------------------------------------------------------------


def test_ring_radii_within_annulus():
    ring = gen_ring(2000, 1.0, 2.0, seed=0)
    radii = np.linalg.norm(ring.X, axis=1)
    assert radii.min() >= 1.0
    assert radii.max() <= 2.0
    assert np.all(ring.y == 1)


def test_ring_mean_radius_matches_annulus_expectation():
    n = 10_000
    r_in, r_out = 1.0, 2.0
    radii = np.linalg.norm(gen_ring(n, r_in, r_out, seed=1).X, axis=1)
    # E[r] for a uniform annulus, with its standard error
    mean = 2.0 * (r_out**3 - r_in**3) / (3.0 * (r_out**2 - r_in**2))
    second = (r_out**4 - r_in**4) / (2.0 * (r_out**2 - r_in**2))
    se = np.sqrt((second - mean**2) / n)
    assert abs(radii.mean() - mean) < 3.0 * se


def test_ring_deterministic():
    a = gen_ring(100, 0.5, 1.5, seed=7)
    b = gen_ring(100, 0.5, 1.5, seed=7)
    assert np.array_equal(a.X, b.X)


def test_ring_validates_radii():
    with pytest.raises(SpecError):
        gen_ring(10, 2.0, 1.0)
    with pytest.raises(SpecError):
        gen_ring(10, 0.0, 1.0)


# ---- drift streams ----------------------------------------------------------


def test_stream_deterministic_bitwise():
    spec = DriftStreamSpec(family="unimodal_drift", total=500, seed=3, velocity=[0.2, 0.0])
    a, b = gen_stream(spec), gen_stream(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_stream_features_finite():
    for family in ("ring", "unimodal_drift", "multimodal_drift", "rotating"):
        spec = DriftStreamSpec(family=family, total=400, seed=5, velocity=[0.1, 0.1])
        assert np.isfinite(gen_stream(spec).X).all()


def test_stationary_degenerate_first_last_blocks_match():
    # zero velocity: the first and last drift_period of targets share a mean
    spec = DriftStreamSpec(
        family="unimodal_drift", total=8000, drift_period=1000, seed=11, velocity=[0.0, 0.0]
    )
    ds = gen_stream(spec)
    X, y = ds.X, ds.y
    first = X[:1000][y[:1000] == 1]
    last = X[-1000:][y[-1000:] == 1]
    # two-sample z-test on the mean at alpha = 0.01 (crit 2.58 per coordinate)
    z = (first.mean(axis=0) - last.mean(axis=0)) / np.sqrt(
        first.var(axis=0) / len(first) + last.var(axis=0) / len(last)
    )
    assert np.all(np.abs(z) < 2.58 * 1.5)  # slack for two coordinates


def test_unimodal_mean_moves_with_velocity():
    v = np.array([0.5, -0.25])
    spec = DriftStreamSpec(
        family="unimodal_drift", total=40_000, drift_period=4000, seed=13, velocity=list(v)
    )
    ds = gen_stream(spec)
    X, y = ds.X, ds.y
    steps = np.arange(40_000) // 4000
    for step in (0, 4, 9):
        block = X[(steps == step) & (y == 1)]
        np.testing.assert_allclose(block.mean(axis=0), v * step, atol=0.15)


def test_class_balance_binomial():
    spec = DriftStreamSpec(family="unimodal_drift", total=16_000, class_balance=0.5, seed=17)
    labels = gen_stream(spec).y
    targets = int((labels == 1).sum())
    # 8000 +- 4 binomial standard deviations
    assert abs(targets - 8000) < 4 * np.sqrt(16_000 * 0.25)


def test_multimodal_dominance_alternates():
    spec = DriftStreamSpec(
        family="multimodal_drift", total=30_000, drift_period=100, dominance_period=1,
        mode_count=2, mode_spacing=20.0, seed=19, class_balance=0.5,
    )
    ds = gen_stream(spec)
    X, y = ds.X, ds.y
    steps = np.arange(30_000) // 100
    tgt = y == 1
    # dominant mode flips with step parity: the mean along the mode axis flips sign
    even = X[tgt & (steps % 2 == 0), -1].mean()
    odd = X[tgt & (steps % 2 == 1), -1].mean()
    assert even * odd < 0
    assert abs(even - odd) > 5.0


def test_rotating_means_orbit():
    spec = DriftStreamSpec(
        family="rotating", total=40_000, drift_period=100, rotation_period=4,
        orbit_radius=10.0, seed=23, spread=0.5,
    )
    ds = gen_stream(spec)
    X, y = ds.X, ds.y
    steps = np.arange(40_000) // 100
    block0 = X[(steps == 0) & (y == 1)]
    block2 = X[(steps == 2) & (y == 1)]  # half a revolution later
    np.testing.assert_allclose(block0.mean(axis=0), [10.0, 0.0], atol=0.3)
    np.testing.assert_allclose(block2.mean(axis=0), [-10.0, 0.0], atol=0.3)
    # outliers sit on the opposite side
    out0 = X[(steps == 0) & (y == -1)]
    np.testing.assert_allclose(out0.mean(axis=0), [-10.0, 0.0], atol=0.3)


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(family="brownian"))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(total=0))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(class_balance=1.0))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(family="unimodal_drift", velocity=[1.0, 2.0, 3.0]))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(family="unimodal_drift", velocity=[np.inf, 0.0]))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(family="multimodal_drift", mode_count=1))
    with pytest.raises(SpecError):
        gen_stream(DriftStreamSpec(family="ring", r_inner=3.0, r_outer=1.0))


@pytest.mark.parametrize("n_dims", [3, 5])
def test_ring_family_is_two_dimensional(n_dims):
    with pytest.raises(SpecError, match=rf"^the ring family is 2-D: n_dims must be 2, got {n_dims}$"):
        gen_stream(DriftStreamSpec(family="ring", n_dims=n_dims, total=10))


# ---- CSV ingestion ----------------------------------------------------------


def test_load_csv_with_header_and_target_label(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,cls\n1.0,2.0,g\n3.5,-1.0,h\n")
    samples = to_one_class(load_csv(DatasetSchema(path=path, label_column="cls", header=True)), {"g"})[0]
    assert len(samples) == 2
    assert samples[0].label == 1 and samples[1].label == -1
    assert samples[0].features.tolist() == [1.0, 2.0]
    assert samples.X.shape == (2, 2)


def test_load_csv_label_by_index(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,0.5,9\n2,0.25,4\n")
    samples = to_one_class(load_csv(DatasetSchema(path=path, label_column=-1)), {"9"})[0]
    assert samples[0].label == 1 and samples[1].label == -1
    assert samples[1].features.tolist() == [2.0, 0.25]


def test_load_csv_keeps_raw_labels_without_target(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1.0,3\n2.0,jack\n")
    samples = load_csv(DatasetSchema(path=path))
    assert samples[0].label == 3
    assert samples[1].label == "jack"


@pytest.mark.parametrize("bad, named", [
    ({"delimiter": ""}, "unusable CSV delimiter ''"),
    ({"delimiter": ";;"}, "unusable CSV delimiter ';;'"),
    ({"label_column": 1.5}, "label_column must be an integer, got 1.5"),
    ({"label_column": None}, "label_column must be an integer, got None"),
    ({"header": "no"}, "header must be a bool, got 'no'"),
    ({"header": 1}, "header must be a bool, got 1"),
    ({"path": None}, "path must be text or a path, got None"),
    ({"path": b"d.csv"}, "path must be text or a path, got b'd.csv'"),
], ids=["delimiter-empty", "delimiter-two-characters", "label_column-float", "label_column-None", "header-text",
        "header-int", "path-None", "path-bytes"])
def test_malformed_schema_is_refused_when_made(tmp_path, bad, named):
    p = tmp_path / "d.csv"
    p.write_text("0.0,1.0,1\n")
    with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}"):
        load_csv(DatasetSchema(**{"path": p, **bad}))


def test_load_csv_non_numeric_feature_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,cls\n1.0,a\noops,b\n")
    with pytest.raises(FormatError, match="line 3"):
        load_csv(DatasetSchema(path=path, label_column="cls", header=True))


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,a\n1.0,b\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        load_csv(DatasetSchema(path=path, label_column="cls", header=True))
    with pytest.raises(SchemaError):
        load_csv(DatasetSchema(path=path, label_column="cls", header=False))


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(29)
    ds = Dataset(rng.normal(size=(20, 3)), np.where(np.arange(20) % 2, 1, -1))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    loaded = to_one_class(load_csv(DatasetSchema(path=path, label_column="label", header=True)), {"1"})[0]
    assert np.array_equal(loaded.X, ds.X)
    assert np.array_equal(loaded.y, ds.y)


def test_minmax_normalize_option(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("0.0,10.0,x\n5.0,20.0,x\n10.0,10.0,y\n")
    X = minmax_normalize(load_csv(DatasetSchema(path=path))).X
    assert X.min() == 0.0 and X.max() == 1.0
    np.testing.assert_allclose(X[:, 0], [0.0, 0.5, 1.0])


def test_minmax_normalize_constant_column():
    ds = Dataset(np.column_stack([np.full(4, 3.0), np.arange(4.0)]), np.ones(4, dtype=int))
    X = minmax_normalize(ds).X
    assert np.all(X[:, 0] == 0.0)
    np.testing.assert_allclose(X[:, 1], [0.0, 1 / 3, 2 / 3, 1.0])


def test_load_csv_without_data_rows_gives_an_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,cls\n\n")
    for read in (load_csv, lambda schema: minmax_normalize(load_csv(schema))):
        ds = read(DatasetSchema(path=path, label_column="cls", header=True))
        assert len(ds) == 0
        assert ds.X.shape == (0, 0) and ds.y.shape == (0,)


def test_minmax_normalize_without_rows_returns_the_dataset():
    ds = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
    assert minmax_normalize(ds) is ds


@pytest.mark.parametrize("X, y", [
    (np.zeros((40, 2)), np.ones(3)),  # fewer labels than rows
    (np.zeros((3, 2)), np.ones(4)),  # more labels than rows
    (np.zeros(3), np.ones(3)),  # X a vector
    (np.zeros((3, 2, 1)), np.ones(3)),  # X 3-D
    (np.zeros((3, 2)), np.ones((3, 1))),  # y a column
])
def test_dataset_refuses_X_and_y_that_disagree(X, y):
    with pytest.raises(InvalidInputError, match="2-D X and a 1-D y"):
        Dataset(X, y)


def test_an_empty_csv_and_an_empty_ring_make_datasets(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    empty_csv = load_csv(DatasetSchema(path=path))
    assert empty_csv.X.shape == (0, 0) and empty_csv.y.shape == (0,)
    ring = gen_ring(0, 1.0, 2.0)
    assert ring.X.shape == (0, 2) and ring.y.shape == (0,)


# ---- row access -------------------------------------------------------------


def raw_label_csv(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x,y,cls\n1.5,-2.0,3\n0.25,4.0,jack\n-1.0,0.5,2.5\n")
    return load_csv(DatasetSchema(path=path, label_column="cls", header=True))


ROW_SOURCES = {
    "gen_stream": lambda tmp_path: gen_stream(DriftStreamSpec(total=300, velocity=[0.1, 0.0], seed=41)),
    "gen_ring": lambda tmp_path: gen_ring(200, 1.0, 2.0, seed=43),
    "load_csv_target": lambda tmp_path: to_one_class(raw_label_csv(tmp_path), {"3"})[0],
    "load_csv_raw": raw_label_csv,
}


@pytest.mark.parametrize("source", sorted(ROW_SOURCES))
def test_iterating_rows_rebuilds_the_columns_bitwise(tmp_path, source):
    ds = ROW_SOURCES[source](tmp_path)
    rows = list(ds)
    X = np.array([row.features for row in rows], dtype=float)
    labels = [row.label for row in rows]
    assert X.shape == ds.X.shape and X.tobytes() == ds.X.tobytes()
    assert labels == ds.y.tolist()
    assert [type(label) for label in labels] == [type(label) for label in ds.y.tolist()]
    if ds.y.dtype != object:  # rows carry Python ints, so the column's int width is given back
        assert np.array_equal(np.array(labels, dtype=ds.y.dtype), ds.y)


@pytest.mark.parametrize("source", sorted(ROW_SOURCES))
def test_rows_by_numpy_integer_index(tmp_path, source):
    ds = ROW_SOURCES[source](tmp_path)
    assert len(ds) == ds.X.shape[0] == ds.y.shape[0]
    for i in np.arange(len(ds))[::7]:
        row = ds[i]
        assert np.array_equal(row.features, ds.X[i]) and np.shares_memory(row.features, ds.X)
        assert row.label == ds.y.tolist()[i]
        assert type(row.label) is type(ds.y.tolist()[i])
    assert np.array_equal(ds[np.int64(-1)].features, ds.X[-1])


def test_raw_labels_keep_their_types(tmp_path):
    ds = raw_label_csv(tmp_path)
    assert [(type(row.label), row.label) for row in ds] == [(int, 3), (str, "jack"), (float, 2.5)]
    assert ds[np.int64(0)].label == 3 and type(ds[np.int64(0)].label) is int
    assert ds[1].label == "jack"


def test_to_one_class_shares_the_csv_features(tmp_path):
    ds = raw_label_csv(tmp_path)
    relabeled, counts = to_one_class(ds, {3, "jack"})
    assert relabeled.X is ds.X
    assert relabeled.y.tolist() == [1, 1, -1]
    assert counts == {"target": 2, "outlier": 1}


# ---- one-class relabeling ---------------------------------------------------


def test_to_one_class_reads_a_text_target_as_a_label_cell(tmp_path):
    ds = raw_label_csv(tmp_path)  # labels 3, "jack", 2.5
    for target in ("3", " 03", "3.0", 3, 3.0):
        relabeled, counts = to_one_class(ds, {target})
        assert relabeled.y.tolist() == [1, -1, -1] and relabeled.y.dtype == np.int8
    assert to_one_class(ds, {"2.5", " jack "})[0].y.tolist() == [-1, 1, 1]


def test_label_one_matches_by_value_whatever_its_text(tmp_path):
    path = tmp_path / "ones.csv"
    path.write_text("0.0,1\n1.0,1.0\n2.0,-1\n3.0, 01\n")
    raw = load_csv(DatasetSchema(path=path))
    assert [(type(v), v) for v in raw.y.tolist()] == [(int, 1), (float, 1.0), (int, -1), (int, 1)]
    for target in ("1", 1):
        assert to_one_class(raw, {target})[0].y.tolist() == [1, 1, -1, 1]


def test_to_one_class_poker_style():
    rng = np.random.default_rng(31)
    raw = Dataset(rng.normal(size=(500, 2)), rng.integers(0, 10, 500))
    relabeled, counts = to_one_class(raw, {0})
    assert counts["target"] == int(np.sum(raw.y == 0))
    assert counts["target"] + counts["outlier"] == 500
    assert relabeled.y.tolist() == [1 if label == 0 else -1 for label in raw.y.tolist()]
    assert relabeled.X is raw.X


def test_to_one_class_all_targets():
    raw = Dataset(np.zeros((3, 1)), np.array([5, 5, 5], dtype=object))
    relabeled, counts = to_one_class(raw, {5})
    assert np.all(relabeled.y == 1)
    assert counts == {"target": 3, "outlier": 0}


def test_to_one_class_disjoint_set_raises():
    raw = Dataset(np.zeros((1, 1)), np.array([5], dtype=object))
    with pytest.raises(EmptyTargetError):
        to_one_class(raw, {7})
    with pytest.raises(EmptyTargetError):
        to_one_class(raw, set())


# ---- load errors name the first bad line ------------------------------------


def write_rows(path, rows):
    path.write_text("\n".join(rows) + "\n")
    return path


def test_load_csv_non_numeric_cell_deep_in_file_names_its_line(tmp_path):
    # header on line 1, data on lines 2..2001, blank lines among the data
    rows = ["x,y,cls"] + [f"{i}.5,{-i}.25,{'a' if i % 3 else 'b'}" for i in range(2000)]
    rows[10] = rows[11] = rows[700] = ""
    rows[1499] = "7.0,oops,a"  # line 1500
    rows[1800] = "nope,1.0,b"  # a later bad cell must not be the one named
    path = write_rows(tmp_path / "deep.csv", rows)
    with pytest.raises(FormatError, match=r"^line 1500: non-numeric feature 'oops'$"):
        load_csv(DatasetSchema(path=path, label_column="cls", header=True))


def test_load_csv_ragged_row_after_blank_rows_names_its_line(tmp_path):
    path = write_rows(tmp_path / "ragged.csv",
                      ["1.0,2.0,a", "", "", "3.0,4.0,b", "5.0,a", "6.0,7.0,8.0,a"])
    with pytest.raises(FormatError, match=r"^line 5: expected 2 features, got 1$"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_label_index_out_of_range_on_short_row(tmp_path):
    path = write_rows(tmp_path / "short.csv", ["1.0,2.0,a", "", "3.0,4.0,b", "5.0", "x,y,a"])
    with pytest.raises(SchemaError, match=r"^line 4: no column 2 in 1-cell row$"):
        load_csv(DatasetSchema(path=path, label_column=2))


def test_load_csv_first_bad_line_wins_across_error_kinds(tmp_path):
    path = write_rows(tmp_path / "mixed.csv", ["1.0,2.0,a", "", "3.0,bad,b", "5.0,a"])
    with pytest.raises(FormatError, match=r"^line 3: non-numeric feature 'bad'$"):
        load_csv(DatasetSchema(path=path))


@pytest.mark.parametrize("line5, named", [
    (b"1.0,\xff,a", r"line 3: non-numeric feature 'bad'"),
    (b'1.0,"' + b"9" * 200_000 + b'",a', r"line 3: non-numeric feature 'bad'"),
    (b"1.0,2.0,\xff", r"line 3: non-numeric feature 'bad'"),
])
def test_load_csv_names_a_malformed_row_ahead_of_later_bytes_that_do_not_decode(tmp_path, line5, named):
    # undecodable bytes and CSV syntax errors are found as the text is read,
    # before the rows ahead of them are converted
    path = tmp_path / "order.csv"
    path.write_bytes(b"1.0,2.0,a\n1.0,2.0,a\nbad,2.0,a\n1.0,2.0,a\n" + line5 + b"\n")
    with pytest.raises(FormatError, match=rf"^{named}$"):
        load_csv(DatasetSchema(path=path))


@pytest.mark.parametrize("content, line", [
    (b"1.0,2.0,a\n1.0,2.0,b\xff\n", 2),
    (b"x,y\xfe,cls\n1.0,2.0,a\n", 1),
])
def test_load_csv_undecodable_label_or_header_cell_names_its_line(tmp_path, content, line):
    path = tmp_path / "bytes.csv"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=rf"^{path}: line {line}: not utf-8 text$"):
        load_csv(DatasetSchema(path=path, header=content.startswith(b"x")))


# ---- chunked ingest ---------------------------------------------------------

CHUNK = streams._CHUNK_ROWS
LONG = 3 * CHUNK + 500  # data rows of a file longer than three chunks


def long_rows():
    return [f"{i}.5,{-i}.25,{'a' if i % 3 else 'b'}" for i in range(LONG)]


def test_load_csv_non_numeric_cell_in_a_later_chunk_names_its_line(tmp_path):
    rows = long_rows()
    rows[3 * CHUNK + 7] = "7.0,oops,a"
    rows[3 * CHUNK + 90] = "nope,1.0,b"
    path = write_rows(tmp_path / "late.csv", rows)
    with pytest.raises(FormatError, match=rf"^line {3 * CHUNK + 8}: non-numeric feature 'oops'$"):
        load_csv(DatasetSchema(path=path))


@pytest.mark.parametrize("row, got", [("7.0,a", 1), ("7.0,1.0,2.0,a", 3)])
def test_load_csv_ragged_row_in_a_later_chunk_is_checked_against_the_first_row(tmp_path, row, got):
    rows = long_rows()
    rows[2 * CHUNK + 5] = row
    path = write_rows(tmp_path / "ragged.csv", rows)
    with pytest.raises(FormatError, match=rf"^line {2 * CHUNK + 6}: expected 2 features, got {got}$"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_short_row_in_a_later_chunk_lacks_the_label_column(tmp_path):
    rows = long_rows()
    rows[3 * CHUNK + 1] = "5.0"
    path = write_rows(tmp_path / "short.csv", ["x,y,cls"] + rows)
    with pytest.raises(SchemaError, match=rf"^line {3 * CHUNK + 3}: no column 'cls' in 1-cell row$"):
        load_csv(DatasetSchema(path=path, label_column="cls", header=True))


def test_load_csv_first_data_row_in_a_later_chunk_sets_the_width(tmp_path):
    path = write_rows(tmp_path / "late.csv", [""] * (CHUNK + 5) + long_rows()[:10] + ["1,2,3,a"])
    with pytest.raises(FormatError, match=rf"^line {CHUNK + 16}: expected 2 features, got 3$"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_skips_blank_rows_across_a_chunk_boundary(tmp_path):
    rows = long_rows()
    rows[CHUNK - 3 : CHUNK + 3] = [""] * 6
    rows[2 * CHUNK - 1] = ""  # the last row of the second chunk
    path = write_rows(tmp_path / "blanks.csv", rows)
    ds = to_one_class(load_csv(DatasetSchema(path=path)), {"a"})[0]
    kept = [i for i, row in enumerate(rows) if row]
    assert ds.X.tolist() == [[float(cell) for cell in rows[i].split(",")[:2]] for i in kept]
    assert ds.y.tolist() == [1 if i % 3 else -1 for i in kept]


def test_load_csv_mixed_raw_labels_across_chunks_equal_a_single_chunk_load(tmp_path, monkeypatch):
    kinds = [lambda i: str(i), lambda i: f"{i}.5", lambda i: f"lab{i % 5}", lambda i: " 3 "]
    path = write_rows(tmp_path / "mixed.csv",
                      [f"{i}.0,{i % 7}.5,{kinds[i % 4](i)}" for i in range(LONG)])
    chunked = load_csv(DatasetSchema(path=path))
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 10 * LONG)
    whole = load_csv(DatasetSchema(path=path))
    assert chunked.X.tobytes() == whole.X.tobytes() and chunked.X.shape == whole.X.shape
    assert chunked.y.dtype == whole.y.dtype == object
    assert [(type(v), v) for v in chunked.y.tolist()] == [(type(v), v) for v in whole.y.tolist()]
    assert {type(v) for v in chunked.y.tolist()} == {int, float, str}


def test_load_csv_header_only_and_empty_files(tmp_path):
    header_only = write_rows(tmp_path / "header.csv", ["x,y,cls"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for path, header in ((header_only, True), (empty, False)):
        ds = load_csv(DatasetSchema(path=path, header=header))
        assert ds.X.shape == (0, 0) and ds.y.shape == (0,) and ds.y.dtype == object
        with pytest.raises(EmptyTargetError):
            to_one_class(ds, {"1"})
    with pytest.raises(FormatError, match="empty file, expected a header row"):
        load_csv(DatasetSchema(path=empty, header=True))


def test_load_csv_bytes_that_are_not_text_name_path_and_line(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(("\n".join(long_rows()[:5000]) + "\n").encode() + b"1.0,\xff\xfe,a\n2.0,3.0,a\n")
    with pytest.raises(FormatError, match=rf"^{path}: line 5001: not utf-8 text"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_oversized_field_names_path_and_line(tmp_path):
    path = write_rows(tmp_path / "big.csv", long_rows()[:20] + ['1.0,"' + "9" * 200_000 + '",a'])
    with pytest.raises(FormatError, match=rf"^{path}: line 21: field larger than field limit"):
        load_csv(DatasetSchema(path=path))


def test_load_csv_peak_memory_is_bounded_by_a_few_times_the_arrays(tmp_path):
    rng = np.random.default_rng(5)
    rows = [f"{a!r},{b!r},{i % 2}" for i, (a, b) in enumerate(rng.normal(size=(50_000, 2)).tolist())]
    path = write_rows(tmp_path / "big.csv", rows)
    tracemalloc.start()
    try:
        ds = load_csv(DatasetSchema(path=path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 50_000
    assert peak <= 5 * (ds.X.nbytes + ds.y.nbytes)


def test_save_csv_in_blocks_writes_the_bytes_of_one_block(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(2 * CHUNK + 3, 2)), np.where(rng.random(2 * CHUNK + 3) < 0.5, 1, -1))
    save_csv(ds, tmp_path / "blocks.csv")
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 10 * len(ds))
    save_csv(ds, tmp_path / "whole.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
