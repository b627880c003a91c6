"""Command-line front end.

Subcommands: ``gen`` (write a synthetic stream to CSV), ``select``
(consistency-based hyperparameter search), ``run`` (stationary or stream
evaluation, reports written as JSON plus a per-step CSV), ``bench``
(incremental-vs-recompute slide cost) and ``version``.

stdout carries machine-readable results only; diagnostics go to stderr.
Exit codes: 0 on success, 1 for runtime/data failures, 2 for usage errors
and malformed specs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from .errors import OkcError, SpecError
from .evaluation import RunConfig, run_stationary, run_stream, slide_benchmark
from .selection import SelectionConfig, select
from .streams import DatasetSchema, DriftStreamSpec, gen_stream, load_csv, save_csv


PROTOCOLS = ("stream", "stationary")


def _package_version() -> str:
    try:
        return version("okc")
    except PackageNotFoundError:
        return "0.0.0+unpackaged"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okc",
        description="Streaming one-class classification with sliding-window regularized kernel models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled stream from a JSON spec")
    p_gen.add_argument("spec", help="path to a stream spec JSON document")
    p_gen.add_argument("out", help="CSV file to write (header: f1..fn,label)")

    grid_doc = (
        "consistency-based (lambda, sigma) selection on target samples; the grid "
        "spans the 17 decade lambdas 1e-8..1e8 and 20 sigmas between the minimum "
        "and maximum pairwise distance"
    )
    p_sel = sub.add_parser("select", help=grid_doc, description=grid_doc)
    p_sel.add_argument("data", help="CSV dataset path")
    _add_schema_flags(p_sel)
    p_sel.add_argument("--framework", choices=("boundary", "reconstruction"), default="boundary")
    p_sel.add_argument("--folds", type=int, default=5, help="cross-validation folds (default 5)")
    p_sel.add_argument("--sigma-thr", type=float, default=2.0,
                       help="consistency threshold width in std deviations (default 2)")
    p_sel.add_argument("--eta", type=float, default=0.05,
                       help="target rejection fraction (default 0.05)")
    p_sel.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser(
        "run",
        help="evaluate a model on a dataset (CSV) or generated stream (spec JSON)",
    )
    p_run.add_argument("input", help="CSV dataset, or a stream spec JSON to generate from")
    _add_schema_flags(p_run)
    # run-config flags default to SUPPRESS so explicit flags can be layered
    # over --config values over the built-in defaults
    sup = argparse.SUPPRESS
    p_run.add_argument("--config", default=None,
                       help="JSON file of run settings; flags given here override it")
    p_run.add_argument("--framework", choices=("boundary", "reconstruction"), default=sup,
                       help="(default boundary)")
    p_run.add_argument("--protocol", choices=PROTOCOLS, default=sup,
                       help="prequential stream walk or repeated shuffled-split runs (default stream)")
    p_run.add_argument("--mode", choices=("sliding", "static"), default=sup,
                       help="stream protocol only: slide the window or train once (default sliding)")
    p_run.add_argument("--window", type=int, default=sup, help="sliding window size (default 150)")
    p_run.add_argument("--chunk", type=int, default=sup, help="slide chunk size (default 50)")
    p_run.add_argument("--eta", type=float, default=sup,
                       help="target rejection fraction (default 0.05)")
    p_run.add_argument("--lambda", dest="lam", type=float, default=sup,
                       help="regularization parameter (default 1.0; ignored when --sigma auto)")
    p_run.add_argument("--sigma", default=sup,
                       help="kernel width, or 'auto' for consistency-based selection (default auto)")
    p_run.add_argument("--runs", type=int, default=sup,
                       help="stationary protocol repetitions (default 1)")
    p_run.add_argument("--seed", type=int, default=sup, help="(default 0)")
    p_run.add_argument("--out", default=".", help="directory for the report JSON and step CSV")

    p_bench = sub.add_parser("bench", help="incremental vs full-recompute slide cost")
    p_bench.add_argument("--window", type=int, default=1000)
    p_bench.add_argument("--chunk", type=int, default=50)
    p_bench.add_argument("--dims", type=int, default=2)
    p_bench.add_argument("--slides", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)

    sub.add_parser("version", help="print the package version")
    return parser


def _delimiter(text: str) -> str:
    try:
        csv.reader([], delimiter=text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"unusable CSV delimiter {text!r}: {exc}") from None
    return text


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delimiter", type=_delimiter, default=",", help="CSV delimiter (default ',')")
    p.add_argument("--label-column", default="-1",
                   help="label column index or (with --header) name; default -1, the last column")
    p.add_argument("--target-label", default=None,
                   help="raw label value mapped to target (+1); all rows are targets if omitted")
    p.add_argument("--header", action="store_true", help="first row is a header")
    p.add_argument("--normalize", action="store_true", help="min-max scale features to [0, 1]")


def _schema_from_args(args, path: str) -> DatasetSchema:
    col: int | str
    try:
        col = int(args.label_column)
    except ValueError:
        col = args.label_column
    return DatasetSchema(
        path=path,
        delimiter=args.delimiter,
        label_column=col,
        target_label=args.target_label,
        header=args.header,
        normalize=args.normalize,
    )


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_mismatch(default, value) -> str | None:
    """What ``value`` should be to match the type of ``default``, or None if it does."""
    if default == "auto":
        return None if value == "auto" or _is_number(value) else "a number or 'auto'"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    if isinstance(default, int):
        return None if isinstance(value, int) and not isinstance(value, bool) else "an integer"
    if isinstance(default, float):
        return None if _is_number(value) else "a number"
    # a None default is an optional vector
    if value is None or (isinstance(value, list) and all(map(_is_number, value))):
        return None
    return "a list of numbers or null"


def _load_fields(path: str, defaults: dict, what: str) -> dict:
    """Read a JSON object whose fields are keys of ``defaults``, each value
    typed like its default. Raises SpecError naming the offending field."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{what} is not a JSON object")
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(unknown)}")
    for name, value in doc.items():
        expected = _type_mismatch(defaults[name], value)
        if expected is not None:
            raise SpecError(f"{what} field {name!r} must be {expected}, got {value!r}")
    return doc


def _load_spec(path: str) -> DriftStreamSpec:
    spec = DriftStreamSpec(**_load_fields(path, _field_defaults(DriftStreamSpec), "spec"))
    spec.validate()
    return spec


def _cmd_gen(args) -> int:
    samples = gen_stream(_load_spec(args.spec))
    save_csv(samples, args.out)
    targets = sum(1 for s in samples if s.label == 1)
    print(json.dumps({
        "path": args.out,
        "total": len(samples),
        "targets": targets,
        "outliers": len(samples) - targets,
    }))
    return 0


def _cmd_select(args, parser) -> int:
    if args.folds < 2:
        parser.error("--folds must be >= 2")
    samples = load_csv(_schema_from_args(args, args.data))
    if args.target_label is not None:
        samples = [s for s in samples if s.label == 1]
    X = [s.features for s in samples]
    cfg = SelectionConfig(folds=args.folds, sigma_thr=args.sigma_thr, eta=args.eta)
    result = select(X, args.framework, cfg, seed=args.seed)
    print(json.dumps(result.to_json_dict()))
    return 0


RUN_DEFAULTS = {"protocol": "stream", **_field_defaults(RunConfig)}


def _layered_run_settings(args, parser) -> dict:
    """Built-in defaults, overridden by --config values, overridden by flags."""
    settings = dict(RUN_DEFAULTS)
    if args.config is not None:
        try:
            doc = _load_fields(args.config, {"lambda": RUN_DEFAULTS["lam"], **RUN_DEFAULTS}, "--config")
        except SpecError as exc:
            parser.error(str(exc))
        if "lambda" in doc:
            doc["lam"] = doc.pop("lambda")
        settings.update(doc)
    for key in RUN_DEFAULTS:
        if hasattr(args, key):  # SUPPRESS: present only when the flag was given
            settings[key] = getattr(args, key)
    return settings


def _cmd_run(args, parser) -> int:
    settings = _layered_run_settings(args, parser)
    protocol = settings.pop("protocol")
    if protocol not in PROTOCOLS:
        parser.error(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if settings["sigma"] != "auto":
        try:
            settings["sigma"] = float(settings["sigma"])
        except ValueError:
            parser.error(f"--sigma must be a number or 'auto', got {settings['sigma']!r}")
    cfg = RunConfig(**settings)
    path = Path(args.input)
    if path.suffix == ".json":
        samples = gen_stream(_load_spec(args.input))
    else:
        samples = load_csv(_schema_from_args(args, args.input))
    if protocol == "stationary":
        report = run_stationary(samples, cfg)
        token = "stationary"
    else:
        report = run_stream(samples, cfg)
        token = cfg.mode
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{path.stem}_{cfg.framework}_{token}_{cfg.seed}"
    report.write_json(out_dir / f"{stem}.json")
    report.write_step_csv(out_dir / f"{stem}.csv")
    print(report.summary_line())
    return 0


def _cmd_bench(args, parser) -> int:
    if args.slides < 1:
        parser.error("--slides must be >= 1")
    if not 0 < args.chunk < args.window:
        parser.error("need 0 < --chunk < --window")
    print(json.dumps(slide_benchmark(
        window=args.window, chunk=args.chunk, dims=args.dims,
        slides=args.slides, seed=args.seed,
    )))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "select":
            return _cmd_select(args, parser)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "version":
            print(_package_version())
            return 0
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    except OkcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
