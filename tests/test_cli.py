import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import okc.kernel
import okc.cli
from okc import (Dataset, DatasetSchema, RunConfig, SelectionConfig, SelectionResult, load_csv, save_csv, select,
                 slide_benchmark, to_one_class)
from okc.cli import _build_parser, _run_config, main
from test_selection import near_identity_dataset

RING_SPEC = {"family": "ring", "total": 300, "seed": 4, "r_inner": 1.0, "r_outer": 2.0}
DRIFT_SPEC = {
    "family": "unimodal_drift",
    "total": 4000,
    "drift_period": 100,
    "velocity": [0.3, 0.0],
    "class_offset": [8.0, 0.0],
    "seed": 11,
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(args, capsys):
    """Run ``okc args``; the stdout of a successful command other than
    ``version`` must be lines of strict JSON (no NaN or Infinity)."""
    code = main(args)
    out = capsys.readouterr()
    if code == 0 and args[0] != "version":
        for line in out.out.splitlines():
            json.loads(line, parse_constant=_refuse_constant)
    return code, out.out, out.err


def write_spec(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


# ---- gen --------------------------------------------------------------------


def test_gen_writes_csv_and_counts(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    out_csv = tmp_path / "stream.csv"
    code, out, err = run_cli(["gen", str(spec), str(out_csv)], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["total"] == 4000
    assert info["targets"] + info["outliers"] == 4000
    assert out_csv.exists()
    assert len(out_csv.read_text().splitlines()) == 4001  # header + rows


def test_gen_deterministic_bytes(tmp_path, capsys):
    spec = write_spec(tmp_path, RING_SPEC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["gen", str(spec), str(a)], capsys)[0] == 0
    assert run_cli(["gen", str(spec), str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["gen", str(bad), str(tmp_path / "o.csv")], capsys)
    assert code == 2
    assert "spec" in err


def test_gen_unknown_field_named_in_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "ring", "total": 10, "wobble": 3})
    code, out, err = run_cli(["gen", str(spec), str(tmp_path / "o.csv")], capsys)
    assert code == 2
    assert "wobble" in err


def test_gen_invalid_value_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "ring", "total": -5})
    code, out, err = run_cli(["gen", str(spec), str(tmp_path / "o.csv")], capsys)
    assert code == 2
    assert "total" in err


def test_gen_missing_spec_file_exits_1(tmp_path, capsys):
    code, out, err = run_cli(["gen", str(tmp_path / "none.json"), str(tmp_path / "o.csv")], capsys)
    assert code == 1


# ---- select -----------------------------------------------------------------


@pytest.fixture
def blob_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "unimodal_drift", "total": 300, "velocity": [0.0, 0.0],
        "class_offset": [50.0, 0.0], "class_balance": 0.65, "seed": 2,
    }, "blob.json")
    path = tmp_path / "blob.csv"
    assert run_cli(["gen", str(spec), str(path)], capsys)[0] == 0
    return path


def test_select_outputs_json(blob_csv, capsys):
    code, out, err = run_cli([
        "select", str(blob_csv), "--header", "--label-column", "label",
        "--target-label", "1", "--seed", "3",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"lambda", "sigma", "cv_error", "e_thr", "consistent"}
    assert doc["consistent"] is True


def test_select_deterministic_stdout(blob_csv, capsys):
    args = ["select", str(blob_csv), "--header", "--label-column", "label",
            "--target-label", "1", "--seed", "3"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_select_folds_one_is_usage_error(blob_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", str(blob_csv), "--header", "--target-label", "1", "--folds", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["select", "run"])
def test_normalize_without_data_rows_is_insufficient_data(tmp_path, capsys, command):
    path = tmp_path / "empty.csv"
    path.write_text("f1,f2,label\n")
    flags = {"select": [], "run": ["--sigma", "1", "--out", str(tmp_path)]}[command]
    code, out, err = run_cli([command, str(path), "--header", "--normalize", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["select", "run"])
def test_select_out_of_memory_exits_1(blob_csv, tmp_path, capsys, monkeypatch, command):
    # select's N x N arrays cannot be allocated (as for 50k target rows,
    # 18.7 GiB each): one line naming the row count, no traceback. run
    # selects on its initial window of 150 targets.
    def no_memory(X, Y):
        raise MemoryError(f"Unable to allocate an array with shape ({len(X)}, {len(Y)})")

    raw = load_csv(DatasetSchema(path=str(blob_csv), header=True, label_column="label"))
    targets = to_one_class(raw, {"1"})[1]["target"]
    monkeypatch.setattr(okc.kernel, "_squared_distances", no_memory)
    flags = {"select": [], "run": ["--sigma", "auto", "--out", str(tmp_path)]}[command]
    code, out, err = run_cli([command, str(blob_csv), "--header", "--label-column", "label",
                              "--target-label", "1", *flags], capsys)
    assert code == 1
    assert out == ""
    rows = {"select": targets, "run": 150}[command]
    assert err.startswith(f"error: out of memory selecting on {rows} rows") and "Traceback" not in err


NO_MEMORY = "Unable to allocate 11.9 GiB for an array with shape (40000, 40000) and data type float64"


@pytest.mark.parametrize("command, callee", [("gen", "gen_stream"), ("run", "run_stream"),
                                             ("bench", "slide_benchmark")])
def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, command, callee):
    # an array too large for the machine: one line, no traceback. The callee
    # raises as NumPy does; no test allocates for real, since under
    # overcommit a huge allocation can succeed and end the run later.
    def no_memory(*args, **kwargs):
        raise MemoryError(NO_MEMORY)

    monkeypatch.setattr(okc.cli, callee, no_memory)
    spec = str(write_spec(tmp_path, RING_SPEC))
    argv = {"gen": ["gen", spec, str(tmp_path / "o.csv")],
            "run": ["run", spec, "--sigma", "1", "--out", str(tmp_path)],
            "bench": ["bench"]}[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: out of memory: {NO_MEMORY}\n"


# ---- run --------------------------------------------------------------------


def test_run_stream_spec_defaults(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    out_dir = tmp_path / "reports"
    code, out, err = run_cli([
        "run", str(spec), "--sigma", "2.0", "--lambda", "10.0", "--out", str(out_dir),
    ], capsys)
    assert code == 0
    summary = json.loads(out)
    assert 0.0 <= summary["accuracy"] <= 1.0
    report_path = out_dir / "spec_boundary_sliding_0.json"
    step_path = out_dir / "spec_boundary_sliding_0.csv"
    assert report_path.exists() and step_path.exists()
    report = json.loads(report_path.read_text())
    # defaults from the experiment protocol
    assert report["config"]["window"] == 150
    assert report["config"]["chunk"] == 50
    assert report["config"]["eta"] == 0.05
    assert len(report["step_accuracy"]) == 100
    assert step_path.read_text().splitlines()[0] == "step,accuracy"


def test_run_static_mode_has_zero_forget_time(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    code, out, err = run_cli([
        "run", str(spec), "--mode", "static", "--sigma", "2.0", "--lambda", "10.0",
        "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    report = json.loads((tmp_path / "spec_boundary_static_0.json").read_text())
    assert report["timing"]["forget_s"] == 0.0


def test_run_stationary_protocol(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "unimodal_drift", "total": 500, "velocity": [0.0, 0.0],
        "class_offset": [10.0, 0.0], "seed": 5,
    })
    code, out, err = run_cli([
        "run", str(spec), "--mode", "stationary", "--runs", "3", "--window", "10",
        "--sigma", "2.0", "--lambda", "1.0", "--out", str(tmp_path),
    ], capsys)
    assert code == 0, err  # the window and chunk settings are the stream modes'
    report = json.loads((tmp_path / "spec_boundary_stationary_0.json").read_text())
    assert len(report["run_aucs"]) == 3
    assert report["config"]["mode"] == "stationary"


def test_run_stationary_on_zero_one_labels_without_target_label(tmp_path, capsys):
    # label 1 is the target and label 0 an outlier when --target-label is omitted
    spec = write_spec(tmp_path, DRIFT_SPEC)
    plus_minus, zero_one = tmp_path / "pm.csv", tmp_path / "zo.csv"
    assert run_cli(["gen", str(spec), str(plus_minus)], capsys)[0] == 0
    zero_one.write_text(plus_minus.read_text().replace(",-1\n", ",0\n"))
    code, out, err = run_cli(["run", str(zero_one), "--header", "--mode", "stationary", "--sigma", "1",
                              "--out", str(tmp_path)], capsys)
    assert code == 0, err
    report = json.loads((tmp_path / "zo_boundary_stationary_0.json").read_text())
    assert run_cli(["run", str(plus_minus), "--header", "--mode", "stationary", "--sigma", "1",
                    "--out", str(tmp_path)], capsys)[0] == 0
    expected = json.loads((tmp_path / "pm_boundary_stationary_0.json").read_text())
    assert report["confusion"] == expected["confusion"]


@pytest.fixture
def label_texts(tmp_path, capsys):
    """One small drift stream saved twice: with +-1 labels, and with each
    target's label written as 1, 1.0 or ' 01' in turn (outliers stay -1)."""
    spec = write_spec(tmp_path, {**DRIFT_SPEC, "total": 400})
    plus_minus, mixed = tmp_path / "pm.csv", tmp_path / "mixed.csv"
    assert run_cli(["gen", str(spec), str(plus_minus)], capsys)[0] == 0
    header, *rows = plus_minus.read_text().splitlines()
    texts = iter(["1", "1.0", " 01"] * len(rows))
    rows = [row if row.endswith(",-1") else row[: -len("1")] + next(texts) for row in rows]
    mixed.write_text("\n".join([header, *rows]) + "\n")
    return plus_minus, mixed


@pytest.mark.parametrize("command", [
    ["run", "--window", "40", "--chunk", "10", "--sigma", "1"],
    ["run", "--mode", "stationary", "--sigma", "1"],
    ["select"],
])
def test_target_label_one_matches_every_text_of_label_one(label_texts, tmp_path, capsys, command):
    # without --target-label, --target-label 1, and on the +-1 file, the same rows are the targets
    outputs = []
    for data, flags in [(label_texts[0], []), (label_texts[1], []), (label_texts[1], ["--target-label", "1"]),
                        (label_texts[0], ["--target-label", "1"])]:
        out_dir = tmp_path / f"out{len(outputs)}"
        argv = [command[0], str(data), "--header", *command[1:], *flags]
        code, out, err = run_cli(argv + (["--out", str(out_dir)] if command[0] == "run" else []), capsys)
        assert code == 0, err
        if command[0] == "run":
            report = json.loads(next(out_dir.glob("*.json")).read_text())
            out = {k: v for k, v in report.items() if k != "timing"}
        outputs.append(out)
    assert outputs[1:] == outputs[:1] * 3


def test_select_reads_a_spec_as_run_does(tmp_path, capsys):
    spec = write_spec(tmp_path, {**DRIFT_SPEC, "total": 300})
    data = tmp_path / "spec.csv"
    assert run_cli(["gen", str(spec), str(data)], capsys)[0] == 0
    from_spec = run_cli(["select", str(spec)], capsys)
    assert from_spec[0] == 0
    assert from_spec == run_cli(["select", str(data), "--header"], capsys)


@pytest.mark.parametrize("command", [["select"], ["run", "--sigma", "1"]])
def test_no_target_row_is_a_data_error(tmp_path, capsys, command):
    data = tmp_path / "zero_two.csv"
    data.write_text("".join(f"{i}.0,{i % 5}.5,{2 * (i % 2)}\n" for i in range(200)))
    flags = ["--out", str(tmp_path)] if command[0] == "run" else []
    assert main([command[0], str(data), *command[1:], *flags]) == 1
    assert capsys.readouterr() == ("", "error: no sample carries a label in ['1']\n")


def test_run_refusing_the_first_window_exits_1(tmp_path, capsys):
    # one repeated point with a 1e-15 ridge: the first window's regularized
    # Gram matrix is refused when the state is built
    data = tmp_path / "constant.csv"
    data.write_text("0.0,0.0,1\n" * 300)
    code, out, err = run_cli(["run", str(data), "--sigma", "1", "--lambda", "1e15", "--out", str(tmp_path)],
                             capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: regularized Gram matrix is ")


def test_run_missing_file_exits_1(tmp_path, capsys):
    code, out, err = run_cli(["run", str(tmp_path / "nope.csv"), "--sigma", "1.0"], capsys)
    assert code == 1
    assert "nope.csv" in err


def test_run_csv_input(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    csv_path = tmp_path / "data.csv"
    assert run_cli(["gen", str(spec), str(csv_path)], capsys)[0] == 0
    code, out, err = run_cli([
        "run", str(csv_path), "--header", "--target-label", "1",
        "--sigma", "2.0", "--lambda", "10.0", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    assert (tmp_path / "data_boundary_sliding_0.json").exists()


def test_run_rejects_bad_sigma(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(spec), "--sigma", "wide"])
    assert exc.value.code == 2


def test_run_config_file_layering(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"window": 100, "chunk": 25, "sigma": 2.0, "lambda": 5.0}))
    code, out, err = run_cli([
        "run", str(spec), "--config", str(cfg_file), "--chunk", "20", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    report = json.loads((tmp_path / "spec_boundary_sliding_0.json").read_text())
    assert report["config"]["window"] == 100  # from config file
    assert report["config"]["chunk"] == 20  # flag overrides config file
    assert report["config"]["eta"] == 0.05  # built-in default
    assert report["config"]["lambda"] == 5.0


def test_run_config_unknown_field_usage_error(tmp_path, capsys):
    spec = write_spec(tmp_path, DRIFT_SPEC)
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"windows": 100}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(spec), "--config", str(cfg_file)])
    assert exc.value.code == 2


# ---- bench ------------------------------------------------------------------


def test_bench_outputs_timings(capsys):
    code, out, err = run_cli([
        "bench", "--window", "120", "--chunk", "30", "--dims", "2", "--slides", "3",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["incremental_median_s"] > 0
    assert doc["recompute_median_s"] > 0
    assert doc["ratio"] == pytest.approx(doc["recompute_median_s"] / doc["incremental_median_s"])


def test_bench_zero_slides_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--slides", "0"])
    assert exc.value.code == 2


# ---- misc -------------------------------------------------------------------


def test_version_prints_version(capsys):
    code, out, err = run_cli(["version"], capsys)
    assert code == 0
    assert out.strip()


def test_import_leaves_package_metadata_unloaded():
    # only `okc version` reads the package metadata; every other command
    # would pay for the import
    code = "import sys, okc.cli; print('importlib.metadata' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_help_documents_experiment_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "150" in text and "50" in text and "0.05" in text

    with pytest.raises(SystemExit):
        main(["select", "--help"])
    text = " ".join(capsys.readouterr().out.split())  # undo argparse line wrapping
    assert "0.05" in text  # eta default
    assert "default 2" in text  # sigma_thr
    assert "17" in text and "20" in text  # grid sizes


def defaults(func) -> dict:
    return {name: p.default for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


def test_run_and_select_without_flags_parse_to_library_defaults(tmp_path, capsys, monkeypatch):
    parser = _build_parser()
    assert _run_config(parser.parse_args(["run", "d.csv"]), parser) == RunConfig()
    calls = []

    def fake_select(X, framework, cfg, seed):
        calls.append((framework, cfg, seed))
        return SelectionResult(1.0, 1.0, 0.0, 0.0, True)

    def fake_bench(**kwargs):
        calls.append(kwargs)
        return {}

    monkeypatch.setattr(okc.cli, "select", fake_select)
    monkeypatch.setattr(okc.cli, "slide_benchmark", fake_bench)
    spec = write_spec(tmp_path, RING_SPEC)
    assert run_cli(["select", str(spec)], capsys)[0] == 0
    assert run_cli(["bench"], capsys)[0] == 0
    select_defaults = defaults(select)
    assert calls == [(select_defaults["framework"], SelectionConfig(), select_defaults["seed"]),
                     defaults(slide_benchmark)]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--warp-speed"])
    assert exc.value.code == 2


def python_m_okc(*args):
    """``python -m okc.cli args`` in a child process, importing okc from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "okc.cli", *args], capture_output=True, text=True, env=env)


def test_console_entry_point_runs():
    proc = python_m_okc("version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_python_m_okc_select_on_near_identity_folds(tmp_path):
    # In a child process, so that a fault fails this test and does not end the
    # run: on this data LAPACK's bisection (dstebz, which select no longer
    # calls) once wrote before its buffer and corrupted the heap
    X = near_identity_dataset()
    path = tmp_path / "near_identity.csv"
    save_csv(Dataset(X, np.ones(len(X), dtype=int)), path)
    proc = python_m_okc("select", str(path), "--header", "--seed", "279")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_refuse_constant) == select(X, seed=279).to_json_dict()


@pytest.mark.parametrize("mode", ["sliding", "static", "stationary"])
def test_python_m_okc_cli_run_smoke(tmp_path, mode):
    spec = write_spec(tmp_path, {**DRIFT_SPEC, "total": 1000})
    proc = python_m_okc("run", str(spec), "--mode", mode, "--sigma", "2.0", "--lambda", "10",
                        "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    json.loads(lines[0], parse_constant=_refuse_constant)
    report = json.loads((tmp_path / f"spec_boundary_{mode}_0.json").read_text())
    assert report["config"]["mode"] == mode
    assert (tmp_path / f"spec_boundary_{mode}_0.csv").exists()
