"""Tests of the benchmark itself: each check passes on okc's right answer and
fails when fed a deliberately wrong one; the trace accounts for its time.

Run from the repository root: ``python3 -m pytest -q okcbench/test_checks.py``
"""

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import okc  # noqa: E402
import okc.cli  # noqa: E402
from tracing import Tracer, instrument, self_times  # noqa: E402

LAM, SIGMA, ETA = 1e3, 1.0, 0.05


@pytest.fixture
def slid():
    """A boundary model with W=200 slid twice by 30, its stream and probes."""
    rng = np.random.default_rng(0)
    stream = rng.normal(size=(260, 2))
    model = okc.fit_boundary(okc.RegGramState(stream[:200], LAM, okc.KernelSpec(sigma=SIGMA)), ETA)
    model.slide(stream[200:230])
    model.slide(stream[230:260])
    probes = rng.normal(scale=2.0, size=(80, 2))
    ref_q, ref_train = checks.boundary_reference(stream[60:], LAM, SIGMA, probes)
    return model, stream, probes, ref_q, ref_train


def test_boundary_checks_pass_on_okc_output(slid):
    model, stream, probes, ref_q, ref_train = slid
    assert checks.window_is_last_targets(model.state.window, stream, 200) == []
    assert checks.scores_match(model.scores(probes), ref_q, "scores") == []
    assert checks.labels_agree(model.labels_for(model.scores(probes)), ref_q, model.theta, "labels") == []
    assert checks.rejection_in_bounds(ref_train, model.theta, ETA) == []


def test_perturbed_beta_fails_the_score_check(slid):
    model, _, probes, ref_q, _ = slid
    model.beta = model.beta * (1.0 + 1e-4)
    assert checks.scores_match(model.scores(probes), ref_q, "scores")


def test_window_missing_its_newest_chunk_fails(slid):
    model, stream, probes, ref_q, _ = slid
    assert checks.window_is_last_targets(stream[30:230], stream, 200)
    stale = okc.fit_boundary(okc.RegGramState(stream[30:230], LAM, okc.KernelSpec(sigma=SIGMA)), ETA)
    assert checks.scores_match(stale.scores(probes), ref_q, "scores")


def test_wrong_theta_fails_rejection_and_label_checks(slid):
    model, _, probes, ref_q, ref_train = slid
    assert checks.rejection_in_bounds(ref_train, model.theta * 0.5, ETA)
    flipped = -model.labels_for(model.scores(probes))
    assert checks.labels_agree(flipped, ref_q, model.theta, "labels")


@pytest.fixture(scope="module")
def ring_selection():
    X = np.array([s.features for s in okc.gen_ring(100, 1.0, 2.0, seed=3)])
    return X, okc.select(X, "boundary")


def test_selection_checks_pass_on_okc_output(ring_selection):
    X, res = ring_selection
    assert checks.selection_valid(res.lam, res.sigma, res.cv_error, res.consistent, X, ETA, 5) == []
    assert checks.scan_depth(X, res.lam, res.sigma) > 0


@pytest.mark.parametrize("field, wrong", [
    ("lam", 3e2),  # off the decade grid
    ("sigma", 1e3),  # beyond the largest pairwise distance
    ("cv_error", 0.5),  # above eta + 2 sqrt(eta (1 - eta) / M)
    ("consistent", False),
])
def test_wrong_selection_fails(ring_selection, field, wrong):
    X, res = ring_selection
    got = {"lam": res.lam, "sigma": res.sigma, "cv_error": res.cv_error, "consistent": res.consistent}
    got[field] = wrong
    assert checks.selection_valid(got["lam"], got["sigma"], got["cv_error"], got["consistent"],
                                  X, ETA, 5)


def test_scan_depth_orders_candidates_most_complex_first(ring_selection):
    X, _ = ring_selection
    dmin, dmax = checks.distance_range(X)
    second_sigma = np.linspace(dmin, dmax, 20)[1]
    assert checks.scan_depth(X, 1e8, dmin) == 1
    assert checks.scan_depth(X, 1e-8, dmin) == 17
    assert checks.scan_depth(X, 1e-2, second_sigma) == 17 + 11
    assert checks.scan_depth(X, 3e2, dmin) == 0


def test_ring_fit_check():
    train = np.array([1] * 95 + [-1] * 5)
    assert checks.ring_fit_valid(train, -np.ones(100)) == []
    assert checks.ring_fit_valid(train, np.array([-1] * 90 + [1] * 10))  # probes accepted
    assert checks.ring_fit_valid(np.array([1] * 85 + [-1] * 15), -np.ones(100))


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A real ``okc run`` on a small stream, with the counts the benchmark makes itself."""
    tmp = tmp_path_factory.mktemp("cli")
    samples = okc.gen_stream(okc.DriftStreamSpec(total=3000, velocity=[0.25, 0.0],
                                                 class_offset=[8.0, 0.0], seed=5))
    okc.save_csv(samples, tmp / "s.csv")
    y = np.array([s.label for s in samples])
    first = int(np.flatnonzero(y == 1)[149]) + 1
    buf = StringIO()
    with redirect_stdout(buf):
        code = okc.cli.main(["run", str(tmp / "s.csv"), "--header", "--target-label", "1",
                             "--sigma", "2.0", "--lambda", "10", "--out", str(tmp)])
    report = json.loads((tmp / "s_boundary_sliding_0.json").read_text())
    steps = (tmp / "s_boundary_sliding_0.csv").read_text()
    return code, buf.getvalue(), report, steps, len(y) - first, int(np.sum(y[first:] == 1))


def test_cli_check_passes_on_okc_output(cli_run):
    assert checks.cli_run_valid(*cli_run) == []


def test_miscounted_confusion_fails(cli_run):
    code, out, report, steps, rows, targets = cli_run
    wrong = json.loads(json.dumps(report))
    wrong["confusion"]["tp"] += 1
    wrong["confusion"]["tn"] -= 1  # total kept, tp + fn is off by one
    assert checks.cli_run_valid(code, out, wrong, steps, rows, targets)
    wrong["confusion"]["tn"] += 2  # now the total is off too
    assert checks.cli_run_valid(code, out, wrong, steps, rows, targets)


def test_wrong_cli_output_fails(cli_run):
    code, out, report, steps, rows, targets = cli_run
    assert checks.cli_run_valid(1, out, report, steps, rows, targets)
    assert checks.cli_run_valid(code, out + "extra line\n", report, steps, rows, targets)
    assert checks.cli_run_valid(code, "not json\n", report, steps, rows, targets)
    lines = steps.splitlines()
    lines[5] = lines[5].split(",")[0] + ",0.0"
    assert checks.cli_run_valid(code, out, report, "\n".join(lines), rows, targets)
    assert checks.cli_run_valid(code, out, report, steps, rows + 1, targets)


def test_trace_self_times_account_for_root_time():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["models.refit", 1.0, 6.0, 0, 0],
        ["gram_window.extend", 1.5, 5.0, 1, 0],
        ["kernel.gram", 2.0, 3.0, 2, 40],
        ["models.scores", 7.0, 8.0, 0, 0],
        ["op", 20.0, 21.0, -1, 0],
    ]
    self_s, counts, roots, total = self_times(spans)
    assert roots["op"] == 2 and total["op"] == 11.0
    assert self_s["op"] == {"op": 5.0, "models.refit": 1.5, "gram_window.extend": 2.5,
                            "kernel.gram": 1.0, "models.scores": 1.0}
    assert sum(self_s["op"].values()) == total["op"]
    assert counts["op"]["kernel.gram"] == 40


def test_instrument_records_layers_and_restores_okc():
    original = (okc.gram_window.gram, okc.RegGramState.extend, okc.BoundaryModel.__dict__.get("absorb"))
    tracer = Tracer()
    instrument(tracer, okc)
    try:
        model = okc.fit_boundary(okc.RegGramState(np.random.default_rng(2).normal(size=(40, 2)),
                                                  LAM, okc.KernelSpec(sigma=SIGMA)), ETA)
        with tracer.span("op"):
            model.slide(np.random.default_rng(3).normal(size=(10, 2)))
    finally:
        tracer.restore()
    names = {s[0] for s in tracer.spans}
    assert {"gram_window.init", "models.refit", "gram_window.retract",
            "gram_window.extend", "kernel.gram"} <= names
    now = (okc.gram_window.gram, okc.RegGramState.extend, okc.BoundaryModel.__dict__.get("absorb"))
    assert now == original
