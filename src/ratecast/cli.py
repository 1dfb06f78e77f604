"""Command-line pipeline: synth -> clean -> features -> cv -> train -> eval -> report."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .events import (
    CleaningReport,
    CsvRowError,
    CsvSchemaError,
    Stage,
    clean_events,
    dump_events,
    load_events,
    sort_by_start,
)
from .features import FeatureSpec, assemble_features, read_feature_csv, write_feature_csv
from .models import (
    HyperParams,
    feature_importance,
    load_model,
    predict,
    save_model,
)
from .synth import SynthConfig, generate_workload
from .validation import (
    CvConfig,
    HyperParamSpace,
    fit_family,
    chronological_split,
    nested_cv,
    rmse,
    subset_rows,
)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Field checks for _read_object: (predicate, what the value must be).
_INT = (lambda v: _is_number(v) and isinstance(v, int), "an integer")
_NUMBER = (_is_number, "a number")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers")
_STRINGS = (
    lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"
)


def _read_object(path: str, required: dict, optional: dict | None = None) -> dict:
    """The JSON object in ``path``, with every ``required`` field and each
    ``optional`` one it has passing its (predicate, description) check;
    raises ValueError naming the first field that is absent or wrongly typed."""
    payload = _read_json(path)
    for name, (check, what) in {**required, **(optional or {})}.items():
        if not isinstance(payload, dict) or name in required and name not in payload:
            raise ValueError(f"{path}: lacks field {name!r}")
        if name in payload and not check(payload[name]):
            raise ValueError(f"{path}: field {name!r} must be {what}")
    return payload


def _load_features(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return read_feature_csv(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_events=args.n,
        n_instruments=args.instruments,
        ar_rho=args.rho,
        state_sigma=args.state_sigma,
        noise_mbs=args.noise,
        delayed_stream_prob=args.delay_prob,
        stage=Stage(args.stage),
        inject_oversize=args.inject_oversize,
        inject_zero=args.inject_zero,
        seed=args.seed,
    )
    events, _ = generate_workload(config)
    dump_events(events, args.out)
    sidecar = args.sidecar or str(Path(args.out).with_suffix(".meta.json"))
    _write_json(sidecar, {"config": config.to_dict(), "seed": config.seed})
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    events = load_events(args.input)
    kept, report = clean_events(events)
    dump_events(kept, args.out)
    if args.report:
        _write_json(args.report, asdict(report))
    print(
        f"cleaned {report.n_input} -> {report.n_output} events "
        f"({report.n_oversize_removed} oversize, {report.n_zero_removed} zero-valued)"
    )
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    events = load_events(args.input)
    if not events:
        raise ValueError(f"{args.input}: no events")
    if args.stage:
        stage = Stage(args.stage)
        kept = np.array([s is stage for s in events.categories["stage"]], dtype=bool)
        events = events.take(kept[events.codes["stage"]])
        if not events:
            raise ValueError(f"{args.input}: no rows of stage {args.stage}")
    events = sort_by_start(events)
    spec = FeatureSpec.parse(args.groups)
    matrix = assemble_features(events, spec, tz_offset_hours=args.tz_offset_hours)
    targets = events.rates
    meta_path = args.meta or str(Path(args.out).with_suffix(".meta.json"))
    with open(args.out, "w", encoding="utf-8", newline="") as fh, open(
        meta_path, "w", encoding="utf-8"
    ) as mh:
        write_feature_csv(
            matrix,
            targets,
            fh,
            mh,
            extra_meta={
                "groups": spec.sorted_groups(),
                "tz_offset_hours": args.tz_offset_hours,
                "stage": args.stage or "all",
            },
        )
    print(f"wrote {matrix.values.shape[0]}x{matrix.values.shape[1]} matrix to {args.out}")
    return 0


def _space_from_file(path: str | None) -> HyperParamSpace:
    if path is None:
        return HyperParamSpace()
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: sampling ranges must be a JSON object, got {raw!r}")
    types = {f.name: f.type for f in fields(HyperParamSpace)}
    kwargs = {}
    for name, bounds in raw.items():
        if name not in types:
            raise ValueError(f"{path}: unknown hyperparameter {name!r}")
        allowed = int if types[name] == "tuple[int, int]" else (int, float)
        if not (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(isinstance(v, allowed) and not isinstance(v, bool) for v in bounds)
            and all(math.isfinite(v) for v in bounds)
        ):
            kind = "integers" if allowed is int else "finite numbers"
            raise ValueError(f"{path}: {name!r} must be a [lo, hi] pair of {kind}, got {bounds!r}")
        kwargs[name] = tuple(bounds)
    try:
        return HyperParamSpace(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_cv(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    X, _, _, y = _load_features(args.features)
    config = CvConfig(
        num_params=args.num_params,
        k=args.cv_k,
        train_width=args.train_width,
        test_width=args.test_width,
        train_size=args.train_size,
        test_size=args.test_size,
        seed=args.seed,
    )
    result = nested_cv(X, y, config, _space_from_file(args.space), family=args.family)
    payload = {
        "format_version": 1,
        "family": args.family,
        "config": vars(config),
        **result.to_dict(),
        "timing": {"wall_s": round(time.monotonic() - t0, 3)},
    }
    _write_json(args.out, payload)
    best = result.best_params
    print(
        f"best candidate {result.best_index}: mean RMSE "
        f"{result.mean_rmse[result.best_index]:.4f} MB/s "
        f"(depth={best.max_depth}, trees={best.n_estimators}, lr={best.learning_rate:.4f})"
    )
    return 0


def _resolve_params(args: argparse.Namespace) -> HyperParams:
    if args.params and args.from_cv:
        raise ValueError("pass either --params or --from-cv, not both")
    if args.params:
        path, payload = args.params, _read_json(args.params)
    elif args.from_cv:
        cv = _read_object(args.from_cv, {"best_params": _OBJECT})
        path, payload = args.from_cv, cv["best_params"]
    else:
        return HyperParams()
    try:
        return HyperParams.from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_train(args: argparse.Namespace) -> int:
    X, names, _, y = _load_features(args.features)
    params = _resolve_params(args)
    n_train = chronological_split(X.shape[0], args.split)
    rng = np.random.default_rng(args.seed)
    rows = subset_rows(0, n_train, args.train_subset, rng, "train_subset")
    model = fit_family(args.family, X[rows], y[rows], params, names)
    save_model(model, args.out)
    print(f"trained {args.family} on {rows.size} rows, saved to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    X, names, event_ids, y = _load_features(args.features)
    model = load_model(args.model)
    if names != model.feature_names:
        raise ValueError("feature columns do not match the model's training columns")
    n_train = chronological_split(X.shape[0], args.split)
    rng = np.random.default_rng(args.seed)
    rows = subset_rows(n_train, X.shape[0], args.test_subset, rng, "test_subset")
    preds = predict(model, X[rows])
    actual = y[rows]
    score = rmse(preds, actual)
    if args.pairs:
        with open(args.pairs, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["event_id", "actual_mbs", "predicted_mbs"])
            for i, row in enumerate(rows):
                writer.writerow(
                    [int(event_ids[row]), format(actual[i], ".17g"), format(preds[i], ".17g")]
                )
    if args.out:
        _write_json(
            args.out,
            {
                "rmse_mbs": score,
                "n_test": int(rows.size),
                "split": args.split,
                "test_subset": args.test_subset,
                "seed": args.seed,
                "timing": {"wall_s": round(time.monotonic() - t0, 3)},
            },
        )
    print(f"holdout RMSE: {score:.4f} MB/s over {rows.size} rows")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report: dict = {"format_version": 1}
    timing: dict = {}
    if args.clean_report:
        counts = dict.fromkeys((f.name for f in fields(CleaningReport)), _INT)
        report["cleaning"] = _read_object(args.clean_report, counts)
    if args.features_meta:
        meta = _read_object(
            args.features_meta, {"groups": _STRINGS, "column_meta": _LIST},
            {"tz_offset_hours": _NUMBER, "stage": _STRING},
        )
        report["feature_spec"] = {
            "groups": meta["groups"],
            "n_columns": len(meta["column_meta"]),
            "tz_offset_hours": meta.get("tz_offset_hours"),
            "stage": meta.get("stage"),
        }
    if args.cv:
        kept = {"best_index": _INT, "best_params": _OBJECT, "mean_rmse": _NUMBERS}
        cv = _read_object(args.cv, kept, {"timing": _OBJECT})
        best, n = cv["best_index"], len(cv["mean_rmse"])
        if not 0 <= best < n:
            message = f"field 'best_index' must index 'mean_rmse' of {n}, got {best}"
            raise ValueError(f"{args.cv}: {message}")
        report["cv"] = {name: cv[name] for name in kept}
        if "timing" in cv:
            timing["cv_wall_s"] = cv["timing"].get("wall_s")
    if args.eval:
        holdout = _read_object(args.eval, {"rmse_mbs": _NUMBER}, {"timing": _OBJECT})
        if "timing" in holdout:
            timing["eval_wall_s"] = holdout.pop("timing").get("wall_s")
        report["holdout"] = holdout
    if timing:
        report["timing"] = timing
    if args.model:
        model = load_model(args.model)
        ranked = feature_importance(model)[: args.top]
        report["top_importances"] = [
            {"feature": name, "share": share} for name, share in ranked
        ]
    _write_json(args.out, report)

    print("run report")
    print("----------")
    if "cleaning" in report:
        c = report["cleaning"]
        print(
            f"cleaning: {c['n_input']} in, {c['n_output']} out "
            f"({c['n_oversize_removed']} oversize, {c['n_zero_removed']} zero)"
        )
    if "feature_spec" in report:
        fs = report["feature_spec"]
        print(f"features: groups={','.join(fs['groups'])} columns={fs['n_columns']}")
    if "cv" in report:
        c = report["cv"]
        print(
            f"cv: best candidate {c['best_index']} {json.dumps(c['best_params'], sort_keys=True)} "
            f"mean RMSE {c['mean_rmse'][c['best_index']]:.4f} MB/s"
        )
    if "holdout" in report:
        print(f"holdout RMSE: {report['holdout']['rmse_mbs']:.4f} MB/s")
    if "top_importances" in report:
        print("top feature importances:")
        for entry in report["top_importances"]:
            print(f"  {entry['share'] * 100:7.3f}%  {entry['feature']}")
    return 0


def _count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _tz_offset(text: str) -> float:
    """argparse type of ``--tz-offset-hours``: a finite number of hours within ±24."""
    value = float(text)
    if not -24.0 <= value <= 24.0:
        raise argparse.ArgumentTypeError(f"must be finite and within ±24 hours, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratecast",
        description="Predict file-transfer rates from transfer-event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic transfer log")
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", default=None, help="config/seed JSON path")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--instruments", type=int, default=7)
    p.add_argument("--rho", type=float, default=0.95)
    p.add_argument("--state-sigma", type=float, default=0.25)
    p.add_argument("--noise", type=float, default=4.0)
    p.add_argument("--delay-prob", type=float, default=0.08)
    p.add_argument("--stage", default="DSS_TO_FFB", choices=[s.value for s in Stage])
    p.add_argument("--inject-oversize", type=int, default=0)
    p.add_argument("--inject-zero", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("clean", help="apply the cleaning rules to a log")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="cleaning report JSON path")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("features", help="assemble the feature matrix")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", default=None, help="sidecar column-meta JSON path")
    p.add_argument("--groups", default="A", help="comma-separated feature groups")
    p.add_argument("--stage", default=None, choices=[s.value for s in Stage])
    p.add_argument("--tz-offset-hours", type=_tz_offset, default=0.0)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("cv", help="nested cross-validation hyperparameter search")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="gbt", choices=["gbt", "rf"])
    p.add_argument("--num-params", type=int, default=10)
    p.add_argument("--cv-k", type=int, default=10)
    p.add_argument("--train-width", type=int, default=20000)
    p.add_argument("--test-width", type=int, default=2000)
    p.add_argument("--train-size", type=int, default=5000)
    p.add_argument("--test-size", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", default=None, help="JSON file of sampling ranges")
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("train", help="train a model on the chronological train side")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="gbt", choices=["gbt", "rf"])
    p.add_argument("--params", default=None, help="hyperparameters JSON file")
    p.add_argument("--from-cv", default=None, help="cv result JSON; use its best_params")
    p.add_argument("--holdout", dest="split", type=float, default=0.9)
    p.add_argument("--train-subset", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the chronological test side")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="eval result JSON path")
    p.add_argument("--pairs", default=None, help="predicted-vs-actual CSV path")
    p.add_argument("--holdout", dest="split", type=float, default=0.9)
    p.add_argument("--test-subset", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="collect artifacts into a run report")
    p.add_argument("--out", required=True)
    p.add_argument("--clean-report", default=None)
    p.add_argument("--features-meta", default=None)
    p.add_argument("--cv", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--eval", default=None)
    p.add_argument("--top", type=_count, default=10)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsvSchemaError, CsvRowError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
