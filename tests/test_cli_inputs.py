"""Malformed JSON documents and flags: each is a usage error (exit 2) that
names what is wrong, never a traceback."""

import json

import pytest

from okc.cli import RUN_DEFAULTS, main
from okc.errors import InvalidInputError
from okc.evaluation import RunConfig

SPEC = {"family": "ring", "total": 300, "seed": 4}
# A case with an explicit id keeps its test name when its expected text changes.


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("doc, named", [
    ("[1, 2]", "not a JSON object"),
    ('"abc"', "not a JSON object"),
    pytest.param('{"window": "big"}', "window must be an integer, got 'big'", id="""{"window": "big"}-'window'"""),
    pytest.param('{"window": 150.5}', "window must be an integer, got 150.5", id="""{"window": 150.5}-'window'"""),
    pytest.param('{"window": true}', "window must be an integer, got True", id="""{"window": true}-'window'"""),
    pytest.param('{"eta": "x"}', "eta must be a number, got 'x'", id="""{"eta": "x"}-'eta'"""),
    pytest.param('{"runs": null}', "runs must be an integer, got None", id="""{"runs": null}-'runs'"""),
    pytest.param('{"lambda": "5"}', "lambda must be a number, got '5'", id="""{"lambda": "5"}-'lambda'"""),
    pytest.param('{"sigma": "wide"}', "sigma must be a number, got 'wide'", id="""{"sigma": "wide"}-'sigma'"""),
    pytest.param('{"framework": 3}', "framework must be one of ('boundary', 'reconstruction'), got 3",
                 id="""{"framework": 3}-'framework'"""),
    ('{"mode": "statinary"}', "'statinary'"),
    ('{"lam": 10}', "field(s): lam"),
    ('{"protocol": "stationary"}', "field(s): protocol"),
])
def test_run_config_wrong_type_is_a_usage_error(tmp_path, capsys, doc, named):
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    cfg = write(tmp_path, "run.json", doc)
    err = usage_error(["run", spec, "--config", cfg, "--out", str(tmp_path)], capsys)
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [{"window": "big"}, {"window": 150.5}, {"window": True}, {"eta": "x"},
                                 {"runs": None}, {"lambda": "5"}, {"sigma": "wide"}, {"framework": 3},
                                 {"mode": "statinary"}])
def test_run_config_value_error_is_the_library_message(tmp_path, capsys, doc):
    # the CLI has no type rule of its own: RunConfig checks every --config value
    settings = {("lam" if k == "lambda" else k): v for k, v in (RUN_DEFAULTS | doc).items()}
    with pytest.raises(InvalidInputError) as exc:
        RunConfig(**settings)
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    cfg = write(tmp_path, "run.json", json.dumps(doc))
    err = usage_error(["run", spec, "--config", cfg, "--out", str(tmp_path)], capsys)
    assert err.endswith(f"error: {exc.value}\n")


def test_run_config_accepts_numbers_for_real_fields(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    cfg = write(tmp_path, "run.json", json.dumps({"eta": 0, "lambda": 10, "sigma": 1, "window": 60,
                                                  "chunk": 20}))
    assert main(["run", spec, "--config", cfg, "--eta", "0.1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spec_boundary_sliding_0.json").read_text())
    assert report["config"]["lambda"] == 10
    assert report["config"]["sigma"] == 1.0
    assert report["config"]["eta"] == 0.1


def test_protocol_flag_is_a_usage_error(tmp_path, capsys):
    # --mode alone chooses the sliding, static or stationary mode
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    err = usage_error(["run", spec, "--protocol", "stationary"], capsys)
    assert "unrecognized arguments: --protocol" in err


@pytest.mark.parametrize("doc, named", [
    pytest.param({"family": "ring", "total": "10"}, "total must be an integer, got '10'", id="doc0-'total'"),
    pytest.param({"family": "ring", "total": 100, "velocity": "ab"},
                 "velocity must be null or a list of 2 numbers, got 'ab'", id="doc1-'velocity'"),
    pytest.param({"family": "ring", "total": 100, "class_offset": [1, "x"]},
                 "class_offset[1] must be a number, got 'x'", id="doc2-'class_offset'"),
    pytest.param({"family": "ring", "total": 100, "spread": None}, "spread must be a number, got None",
                 id="doc3-'spread'"),
    pytest.param({"family": 1, "total": 100},
                 "family must be one of ('ring', 'unimodal_drift', 'multimodal_drift', 'rotating'), got 1",
                 id="doc4-'family'"),
    ({"family": "ring", "total": 100, "seed": -1}, "seed must be >= 0, got -1"),
    ({"family": "ring", "total": 100, "n_dims": 2.0}, "n_dims must be an integer, got 2.0"),
    ({"family": "ring", "total": True}, "total must be an integer, got True"),
    ({"family": "ring", "total": 10, "n_dims": 5}, "the ring family is 2-D: n_dims must be 2, got 5"),
])
def test_spec_wrong_type_exits_2(tmp_path, capsys, doc, named):
    spec = write(tmp_path, "spec.json", json.dumps(doc))
    assert main(["gen", spec, str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid spec: {named}\n"
    assert main(["run", spec, "--sigma", "1", "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("doc, named", [
    pytest.param('{"spread": NaN}', "spread must lie in (0, inf), got nan",
                 id='{"spread": NaN}-spread must be finite, got nan'),
    pytest.param('{"wave_amplitude": -Infinity}', "wave_amplitude must lie in (-inf, inf), got -inf",
                 id='{"wave_amplitude": -Infinity}-wave_amplitude must be finite, got -inf'),
    pytest.param('{"wave_amplitude": 1, "wave_period": 0}', "wave_period must lie in (0, inf), got 0",
                 id='{"wave_amplitude": 1, "wave_period": 0}-wave_period must be positive, got 0'),
    pytest.param('{"family": "rotating", "rotation_period": NaN}', "rotation_period must lie in (0, inf), got nan",
                 id='{"family": "rotating", "rotation_period": NaN}-rotation_period must be finite, got nan'),
    pytest.param('{"family": "rotating", "rotation_period": 0}', "rotation_period must lie in (0, inf), got 0",
                 id='{"family": "rotating", "rotation_period": 0}-rotation_period must be positive, got 0'),
    ('{"spread": 1e308}', "the stream overflows"),
    ('{"velocity": [1e307, 0], "total": 20000}', "the stream overflows"),
])
def test_spec_with_non_finite_features_exits_2(tmp_path, capsys, doc, named):
    spec = write(tmp_path, "spec.json", doc)
    assert main(["gen", spec, str(tmp_path / "o.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"invalid spec: {named}")
    assert main(["run", spec, "--sigma", "1", "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists() and not list(tmp_path.glob("spec_*"))


def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", "[1, 2]")
    assert main(["gen", spec, str(tmp_path / "o.csv")]) == 2
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "select"])
@pytest.mark.parametrize("delimiter", [";;", ""])
def test_unusable_delimiter_is_a_usage_error(tmp_path, capsys, command, delimiter):
    data = write(tmp_path, "d.csv", "0.0,1.0,1\n1.0,0.0,1\n")
    err = usage_error([command, data, "--delimiter", delimiter], capsys)
    assert "--delimiter" in err


@pytest.mark.parametrize("flags, doc, named", [
    (["--window", "0"], None, "window must be >= 1"),
    ([], {"window": 0}, "window must be >= 1"),
    (["--chunk", "200", "--window", "150"], None, "chunk=200, window=150"),
    (["--eta", "1.5"], None, "eta must lie in (0, 1]"),
    pytest.param(["--sigma", "nan"], None, "sigma must lie in (0, inf), got nan",
                 id="flags4-None-sigma must be a positive finite number"),
    pytest.param(["--sigma", "inf"], None, "sigma must lie in (0, inf), got inf",
                 id="flags5-None-sigma must be a positive finite number"),
    pytest.param(["--lambda", "nan"], None, "lambda must lie in (0, inf), got nan",
                 id="flags6-None-lambda must be a positive finite number"),
    pytest.param(["--lambda", "inf"], None, "lambda must lie in (0, inf), got inf",
                 id="flags7-None-lambda must be a positive finite number"),
    pytest.param([], {"lambda": 1e400}, "lambda must lie in (0, inf), got inf",
                 id="flags8-doc8-lambda must be a positive finite number"),
    (["--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["--sigma", "auto", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["--mode", "stationary", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["--sigma", "1e200"], None, "sigma must be a kernel width with 2 sigma^2 positive and finite, got 1e+200"),
    (["--sigma", "1e-170"], None, "sigma must be a kernel width with 2 sigma^2 positive and finite, got 1e-170"),
])
def test_run_setting_out_of_range_is_a_usage_error(tmp_path, capsys, flags, doc, named):
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    argv = ["run", spec, "--sigma", "1", "--out", str(tmp_path), *flags]
    if doc is not None:
        argv += ["--config", write(tmp_path, "run.json", json.dumps(doc))]
    err = usage_error(argv, capsys)
    assert named in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("spec_*"))


@pytest.mark.parametrize("flags, named", [
    (["--eta", "1.5"], "eta must lie in (0, 1], got 1.5"),
    (["--eta", "0"], "eta must lie in (0, 1], got 0.0"),
    pytest.param(["--sigma-thr", "-1"], "sigma_thr must lie in [0, inf), got -1.0",
                 id="flags2-sigma_thr must be >= 0, got -1.0"),
    (["--folds", "1"], "folds must be >= 2, got 1"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    pytest.param(["--sigma-thr", "nan"], "sigma_thr must lie in [0, inf), got nan",
                 id="flags5-sigma_thr must be >= 0, got nan"),
    pytest.param(["--sigma-thr", "inf"], "sigma_thr must lie in [0, inf), got inf",
                 id="flags6-sigma_thr must be >= 0, got inf"),
])
def test_select_setting_out_of_range_is_a_usage_error(tmp_path, capsys, flags, named):
    data = write(tmp_path, "d.csv", "".join(f"{i}.0,{i % 3}.5,1\n" for i in range(20)))
    err = usage_error(["select", data, "--target-label", "1", *flags], capsys)
    assert named in err
    assert "Traceback" not in err
    # the settings are checked before the data is read
    assert named in usage_error(["select", str(tmp_path / "missing.csv"), *flags], capsys)


@pytest.mark.parametrize("flags, named", [
    (["--dims", "0"], "dims must be >= 1, got 0"),
    (["--dims", "-1"], "dims must be >= 1, got -1"),
    (["--chunk", "200", "--window", "150"], "chunk=200, window=150"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_bench_setting_out_of_range_is_a_usage_error(capsys, flags, named):
    err = usage_error(["bench", "--slides", "1", *flags], capsys)
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run", "--sigma", "1"], ["select"]])
@pytest.mark.parametrize("content, named", [
    (b"0.0,1.0,1\n1.0,\xff\xfe,1\n", "line 2: not utf-8 text"),
    (b'0.0,1.0,1\n0.5,0.5,1\n1.0,"' + b"9" * 200_000 + b'",1\n', "line 3: field larger than field limit"),
])
def test_malformed_csv_bytes_are_a_data_error(tmp_path, capsys, command, content, named):
    data = tmp_path / "d.csv"
    data.write_bytes(content)
    assert main([command[0], str(data), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: {named}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "run", "run --config"])
def test_spec_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"family": "ring", "total": 300\xff}')
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    argv = {
        "gen": ["gen", str(bad), str(tmp_path / "o.csv")],
        "run": ["run", str(bad), "--sigma", "1", "--out", str(tmp_path)],
        "run --config": ["run", spec, "--config", str(bad), "--out", str(tmp_path)],
    }[command]
    try:
        code = main(argv)
    except SystemExit as exc:  # --config errors are argparse usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad} is not utf-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run", "--sigma", "1"], ["run", "--sigma", "auto"], ["select"]])
def test_csv_without_feature_columns_is_a_data_error(tmp_path, capsys, command):
    data = write(tmp_path, "labels.csv", "label\n" + "1\n" * 300)
    flags = ["--out", str(tmp_path)] if command[0] == "run" else []
    assert main([command[0], data, "--header", *command[1:], *flags]) == 1
    assert capsys.readouterr() == ("", "error: X has no feature column\n")
