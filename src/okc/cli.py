"""Command-line front end.

Subcommands: ``gen`` (write a synthetic stream to CSV), ``select``
(consistency-based hyperparameter search), ``run`` (evaluation in the
sliding, static or stationary mode, reports written as JSON plus a per-step
CSV), ``bench``
(incremental-vs-recompute slide cost) and ``version``.

stdout carries machine-readable results only; diagnostics go to stderr.
Exit codes: 0 on success, 1 for runtime/data failures, 2 for usage errors
and malformed specs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .errors import InvalidInputError, OkcError, SpecError, check_int
from .evaluation import MODES, RunConfig, run_stationary, run_stream, slide_benchmark
from .models import FRAMEWORKS
from .selection import SelectionConfig, select
from .streams import (TARGET_LABEL, Dataset, DatasetSchema, DriftStreamSpec, check_delimiter, gen_stream, load_csv,
                      minmax_normalize, save_csv, to_one_class)


def _defaults(func) -> dict:
    """The default of each parameter of ``func`` that has one."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


# the report's config keys, which --config takes: lambda names the field lam
RUN_DEFAULTS = RunConfig().to_json_dict()
SELECT_DEFAULTS = _defaults(select)
BENCH_DEFAULTS = _defaults(slide_benchmark)


def _package_version() -> str:
    # imported here, not at the top: no other command reads package metadata,
    # so no other command pays for the import
    from importlib.metadata import PackageNotFoundError, version

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
        "consistency-based (lambda, sigma) selection on the target rows "
        "(--target-label); the grid spans the 17 decade lambdas 1e-8..1e8 and "
        "20 sigmas between the minimum and maximum pairwise distance"
    )
    p_sel = sub.add_parser("select", help=grid_doc, description=grid_doc)
    p_sel.add_argument("data", help="CSV dataset, or a stream spec JSON to generate from")
    _add_schema_flags(p_sel)
    p_sel.add_argument("--framework", choices=FRAMEWORKS, default=SELECT_DEFAULTS["framework"])
    p_sel.add_argument("--folds", type=int, default=SelectionConfig.folds,
                       help="cross-validation folds (default %(default)s)")
    p_sel.add_argument("--sigma-thr", type=float, default=SelectionConfig.sigma_thr,
                       help="consistency threshold width in std devs, finite and >= 0 (default %(default)s)")
    p_sel.add_argument("--eta", type=float, default=SelectionConfig.eta,
                       help="target rejection fraction (default %(default)s)")
    p_sel.add_argument("--seed", type=int, default=SELECT_DEFAULTS["seed"])

    p_run = sub.add_parser(
        "run",
        help="evaluate a model on a dataset (CSV) or generated stream (spec JSON)",
    )
    p_run.add_argument("input", help="CSV dataset, or a stream spec JSON to generate from")
    _add_schema_flags(p_run)
    p_run.add_argument("--config", default=None,
                       help="JSON file of run settings keyed as the report's config; flags override it")
    _add_run_flag(p_run, "framework", "", choices=FRAMEWORKS)
    _add_run_flag(p_run, "mode", "sliding: slide the window by --chunk targets; static: train once on the "
                  "first --window targets; stationary: --runs shuffled 70/30 splits", choices=MODES)
    _add_run_flag(p_run, "window", "window size of the sliding and static modes", type=int)
    _add_run_flag(p_run, "chunk", "slide chunk size of the sliding mode", type=int)
    _add_run_flag(p_run, "eta", "target rejection fraction", type=float)
    _add_run_flag(p_run, "lambda", "regularization parameter, ignored when --sigma auto", type=float)
    _add_run_flag(p_run, "sigma", "kernel width, or 'auto' for consistency-based selection", type=_sigma)
    _add_run_flag(p_run, "runs", "repetitions of the stationary mode", type=int)
    _add_run_flag(p_run, "seed", "", type=int)
    p_run.add_argument("--out", default=".", help="directory for the report JSON and step CSV")

    p_bench = sub.add_parser("bench", help="incremental vs full-recompute slide cost")
    for key, default in BENCH_DEFAULTS.items():
        p_bench.add_argument(f"--{key}", type=int, default=default, help="(default %(default)s)")

    sub.add_parser("version", help="print the package version")
    return parser


def _delimiter(text: str) -> str:
    try:
        return check_delimiter(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sigma(text: str) -> float | str:
    """'auto', or else a number, whose range RunConfig checks."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _column(text: str) -> int | str:
    """A column index, or else a column name."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delimiter", type=_delimiter, default=DatasetSchema.delimiter,
                   help="CSV delimiter (default %(default)r)")
    p.add_argument("--label-column", type=_column, default=DatasetSchema.label_column,
                   help="label column index or (with --header) name; default %(default)s, the last column")
    p.add_argument("--header", action="store_true", help="first row is a header")
    p.add_argument("--normalize", action="store_true", help="min-max scale features to [0, 1]")
    p.add_argument("--target-label", default=TARGET_LABEL,
                   help="label value of the target rows (+1); every other row is an outlier (-1). "
                        "Labels compare by value, so 1, 1.0 and 01 all match 1 (default %(default)s)")


def _add_run_flag(p: argparse.ArgumentParser, key: str, text: str, **kw) -> None:
    # SUPPRESS: the parsed args hold --key only when it was given, so that it overrides --config
    p.add_argument(f"--{key}", default=argparse.SUPPRESS,
                   help=f"{text} (default {RUN_DEFAULTS[key]})".lstrip(), **kw)


def _read_input(args, path: str) -> Dataset:
    """The rows of a CSV, or of the stream a spec JSON generates, with the
    features min-max scaled under --normalize and the labels mapped to +1/-1
    by --target-label."""
    if Path(path).suffix == ".json":
        ds = gen_stream(_load_spec(path))
    else:
        ds = load_csv(DatasetSchema(path, args.delimiter, args.label_column, args.header))
    if args.normalize:
        ds = minmax_normalize(ds)
    return to_one_class(ds, {args.target_label})[0]


def _load_fields(path: str, fields, what: str) -> dict:
    """Read a JSON object whose keys are all in ``fields``; the object that
    takes them checks their values. Raises SpecError naming an unknown key."""
    try:
        doc = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise SpecError(f"{what} {path} is not utf-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{what} is not a JSON object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(unknown)}")
    return doc


def _load_spec(path: str) -> DriftStreamSpec:
    """The spec of a JSON file, which checks itself when made."""
    fields = [f.name for f in dataclasses.fields(DriftStreamSpec)]
    return DriftStreamSpec(**_load_fields(path, fields, "spec"))


def _cmd_gen(args) -> int:
    ds = gen_stream(_load_spec(args.spec))
    save_csv(ds, args.out)
    targets = int((ds.y == 1).sum())
    print(json.dumps({"path": args.out, "total": len(ds), "targets": targets, "outliers": len(ds) - targets}))
    return 0


def _cmd_select(args, parser) -> int:
    try:
        cfg = SelectionConfig(folds=args.folds, sigma_thr=args.sigma_thr, eta=args.eta)
        check_int(args.seed, "seed", 0)
    except InvalidInputError as exc:
        parser.error(str(exc))
    ds = _read_input(args, args.data)
    result = select(ds.X[ds.y == 1], args.framework, cfg, seed=args.seed)
    print(json.dumps(result.to_json_dict()))
    return 0


def _run_config(args, parser) -> RunConfig:
    """Built-in defaults, overridden by --config values, overridden by flags."""
    settings = dict(RUN_DEFAULTS)
    if args.config is not None:
        try:
            settings.update(_load_fields(args.config, RUN_DEFAULTS, "--config"))
        except SpecError as exc:
            parser.error(str(exc))
    settings.update((key, getattr(args, key)) for key in RUN_DEFAULTS if hasattr(args, key))
    settings["lam"] = settings.pop("lambda")
    try:
        return RunConfig(**settings)
    except InvalidInputError as exc:
        parser.error(str(exc))


def _cmd_run(args, parser) -> int:
    cfg = _run_config(args, parser)
    ds = _read_input(args, args.input)
    report = (run_stationary if cfg.mode == "stationary" else run_stream)(ds, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{Path(args.input).stem}_{cfg.framework}_{cfg.mode}_{cfg.seed}"
    report.write_json(out_dir / f"{stem}.json")
    report.write_step_csv(out_dir / f"{stem}.csv")
    print(report.summary_line())
    return 0


def _cmd_bench(args, parser) -> int:
    try:
        result = slide_benchmark(**{key: getattr(args, key) for key in BENCH_DEFAULTS})
    except InvalidInputError as exc:
        parser.error(str(exc))
    print(json.dumps(result))
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
