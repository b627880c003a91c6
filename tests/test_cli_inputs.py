"""Malformed JSON documents and flags: each is a usage error (exit 2) that
names what is wrong, never a traceback."""

import json

import pytest

from okc.cli import main

SPEC = {"family": "ring", "total": 300, "seed": 4}


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
    ('{"window": "big"}', "'window'"),
    ('{"window": 150.5}', "'window'"),
    ('{"window": true}', "'window'"),
    ('{"eta": "x"}', "'eta'"),
    ('{"runs": null}', "'runs'"),
    ('{"lambda": "5"}', "'lambda'"),
    ('{"sigma": "wide"}', "'sigma'"),
    ('{"framework": 3}', "'framework'"),
    ('{"protocol": "statinary"}', "'statinary'"),
])
def test_run_config_wrong_type_is_a_usage_error(tmp_path, capsys, doc, named):
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    cfg = write(tmp_path, "run.json", doc)
    err = usage_error(["run", spec, "--config", cfg, "--out", str(tmp_path)], capsys)
    assert named in err
    assert "Traceback" not in err


def test_run_config_accepts_numbers_for_real_fields(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", json.dumps(SPEC))
    cfg = write(tmp_path, "run.json", json.dumps({"eta": 0, "lambda": 10, "sigma": 1, "window": 60,
                                                  "chunk": 20, "lam": 10}))
    assert main(["run", spec, "--config", cfg, "--eta", "0.1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spec_boundary_sliding_0.json").read_text())
    assert report["config"]["lambda"] == 10
    assert report["config"]["sigma"] == 1.0
    assert report["config"]["eta"] == 0.1


@pytest.mark.parametrize("doc, named", [
    ({"family": "ring", "total": "10"}, "'total'"),
    ({"family": "ring", "total": 100, "velocity": "ab"}, "'velocity'"),
    ({"family": "ring", "total": 100, "class_offset": [1, "x"]}, "'class_offset'"),
    ({"family": "ring", "total": 100, "spread": None}, "'spread'"),
    ({"family": 1, "total": 100}, "'family'"),
])
def test_spec_wrong_type_exits_2(tmp_path, capsys, doc, named):
    spec = write(tmp_path, "spec.json", json.dumps(doc))
    assert main(["gen", spec, str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert main(["run", spec, "--sigma", "1", "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


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
