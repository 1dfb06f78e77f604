"""Command-line pipeline: synth -> clean -> features -> cv -> train -> eval -> report."""

from __future__ import annotations

import argparse
import enum
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .artifacts import naming, read_json, write_json
from .events import (
    CleaningReport,
    Stage,
    clean_events,
    csv_line,
    dump_events,
    load_events,
    sort_by_start,
)
from .features import (
    FeatureSpec,
    FeaturesMeta,
    assemble_features,
    check_tz_offset,
    read_feature_csv,
    write_feature_csv,
)
from .models import (
    FAMILIES,
    HyperParams,
    feature_importance,
    fit_family,
    load_model,
    predict,
    save_model,
    _require_finite,
    _validate_training_input,
)
from .synth import SynthConfig, generate_workload
from .validation import (
    CvConfig,
    CvReport,
    EvalReport,
    HyperParamSpace,
    holdout_rows,
    nested_cv,
    rmse,
)


def _load_features(path: str):
    """``read_feature_csv`` of ``path``; a non-finite cell is named by its data row in the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh, naming(path):
        X, names, event_ids, y = read_feature_csv(fh)
        _require_finite(X, "feature value")
        _require_finite(y, "target")
        return X, names, event_ids, y


def _load_log(path: str):
    with naming(path):
        return load_events(path)


def _holdout_side(args: argparse.Namespace, side: str):
    """``_load_features`` of the feature CSV's rows on ``side`` ("train" or "test")
    of the chronological holdout that ``_add_holdout_flags`` set."""
    X, names, event_ids, y = _load_features(args.features)
    subsets = (getattr(args, "train_subset", None), getattr(args, "test_subset", None))
    rows = getattr(holdout_rows(X.shape[0], args.split, *subsets, args.seed), f"{side}_rows")
    return X[rows], names, event_ids[rows], y[rows]


def _cmd_synth(args: argparse.Namespace) -> int:
    config = args.config(args)
    events, _ = generate_workload(config)
    dump_events(events, args.out)
    sidecar = args.sidecar or str(Path(args.out).with_suffix(".meta.json"))
    write_json(sidecar, {"config": config.to_dict(), "seed": config.seed})
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    kept, report = clean_events(_load_log(args.input))
    dump_events(kept, args.out)
    if args.report:
        write_json(args.report, report.to_dict())
    print(
        f"cleaned {report.n_input} -> {report.n_output} events "
        f"({report.n_oversize_removed} oversize, {report.n_zero_removed} zero-valued)"
    )
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    spec = FeatureSpec.parse(args.groups)
    events = _load_log(args.input)
    if not events:
        raise ValueError(f"{args.input}: no events")
    if args.stage:
        stage = Stage(args.stage)
        kept = np.array([s is stage for s in events.categories["stage"]], dtype=bool)
        events = events.take(kept[events.codes["stage"]])
        if not events:
            raise ValueError(f"{args.input}: no rows of stage {args.stage}")
    events = sort_by_start(events)
    matrix = assemble_features(events, spec, tz_offset_hours=args.tz_offset_hours)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv(matrix, events.rates, fh)
    meta = FeaturesMeta(
        groups=spec.sorted_groups(),
        column_meta=[asdict(c) for c in matrix.columns],
        n_rows=len(events),
        tz_offset_hours=args.tz_offset_hours,
        stage=args.stage or "all",
    )
    write_json(args.meta or str(Path(args.out).with_suffix(".meta.json")), meta.to_dict())
    print(f"wrote {matrix.values.shape[0]}x{matrix.values.shape[1]} matrix to {args.out}")
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    config = args.config(args)
    space = read_json(args.space, HyperParamSpace.from_dict) if args.space else HyperParamSpace()
    X, _, _, y = _load_features(args.features)
    with naming(args.features):
        X, y = _validate_training_input(X, y)
        config.check_rows(len(y))
    with naming(args.space or args.features):  # past the input's checks, a fit refuses its knobs
        result = nested_cv(X, y, config, space, family=args.family)
    timing = {"wall_s": round(time.monotonic() - t0, 3)}
    report = CvReport(family=args.family, config=vars(config), timing=timing, **result.to_dict())
    write_json(args.out, report.to_dict())
    best = result.best_params
    print(
        f"best candidate {result.best_index}: mean RMSE "
        f"{result.mean_rmse[result.best_index]:.4f} MB/s "
        f"(depth={best.max_depth}, trees={best.n_estimators}, lr={best.learning_rate:.4f})"
    )
    return 0


def _resolve_params(args: argparse.Namespace) -> tuple[HyperParams, str | None]:
    """train's hyperparameters and the file they come from, None for the defaults."""
    if args.params and args.from_cv:
        raise ValueError("pass either --params or --from-cv, not both")
    if args.params:
        return read_json(args.params, HyperParams.from_dict), args.params
    if args.from_cv:  # CvReport checks that best_params is a HyperParams
        best = read_json(args.from_cv, CvReport.from_dict).best_params
        return HyperParams.from_dict(best), args.from_cv
    return HyperParams(), None


def _cmd_train(args: argparse.Namespace) -> int:
    params, source = _resolve_params(args)
    X, names, _, y = _holdout_side(args, "train")
    with naming(args.features):
        X, y = _validate_training_input(X, y)
    with naming(source or args.features):  # past the input's checks, a fit refuses its knobs
        model = fit_family(args.family, X, y, params, names)
    save_model(model, args.out)
    print(f"trained {args.family} on {len(y)} rows, saved to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    X, names, event_ids, actual = _holdout_side(args, "test")
    model = load_model(args.model)
    if names != model.feature_names:
        raise ValueError("feature columns do not match the model's training columns")
    if not actual.size:
        raise ValueError("rmse of empty arrays is undefined: --test-subset 0 scores no row")
    with naming(args.model):  # on finite input, a prediction or error past float64 is the model's
        preds = predict(model, X)
        score = rmse(preds, actual)
    if args.pairs:
        with open(args.pairs, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_line(["event_id", "actual_mbs", "predicted_mbs"]))
            fh.writelines(csv_line([str(int(event_id)), format(a, ".17g"), format(p, ".17g")])
                          for event_id, a, p in zip(event_ids, actual, preds))
    if args.out:
        timing = {"wall_s": round(time.monotonic() - t0, 3)}
        report = EvalReport(rmse_mbs=score, n_test=actual.size, split=args.split,
                            test_subset=args.test_subset, seed=args.seed, timing=timing)
        write_json(args.out, report.to_dict())
    print(f"holdout RMSE: {score:.4f} MB/s over {actual.size} rows")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report: dict = {"format_version": 1}
    timing: dict = {}
    lines = ["run report", "----------"]
    if args.clean_report:
        c = read_json(args.clean_report, CleaningReport.from_dict)
        report["cleaning"] = c.to_dict()
        lines.append(
            f"cleaning: {c.n_input} in, {c.n_output} out "
            f"({c.n_oversize_removed} oversize, {c.n_zero_removed} zero)"
        )
    if args.features_meta:
        meta = read_json(args.features_meta, FeaturesMeta.from_dict)
        report["feature_spec"] = {
            "groups": meta.groups,
            "n_columns": len(meta.column_meta),
            "tz_offset_hours": meta.tz_offset_hours,
            "stage": meta.stage,
        }
        lines.append(f"features: groups={','.join(meta.groups)} columns={len(meta.column_meta)}")
    if args.cv:
        cv = read_json(args.cv, CvReport.from_dict)
        report["cv"] = {
            "best_index": cv.best_index, "best_params": cv.best_params, "mean_rmse": cv.mean_rmse
        }
        if "wall_s" in (cv.timing or {}):
            timing["cv_wall_s"] = cv.timing["wall_s"]
        lines.append(
            f"cv: best candidate {cv.best_index} {json.dumps(cv.best_params, sort_keys=True)} "
            f"mean RMSE {cv.mean_rmse[cv.best_index]:.4f} MB/s"
        )
    if args.eval:
        holdout = read_json(args.eval, EvalReport.from_dict).to_dict()
        if "wall_s" in (eval_timing := holdout.pop("timing") or {}):
            timing["eval_wall_s"] = eval_timing["wall_s"]
        report["holdout"] = holdout
        lines.append(f"holdout RMSE: {holdout['rmse_mbs']:.4f} MB/s")
    if timing:
        report["timing"] = timing
    if args.model:
        ranked = feature_importance(load_model(args.model))[: args.top]
        report["top_importances"] = [{"feature": name, "share": share} for name, share in ranked]
        lines += ["top feature importances:"] + [f"  {s * 100:7.3f}%  {n}" for n, s in ranked]
    write_json(args.out, report)
    print("\n".join(lines))
    return 0


def _count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _tz_offset(text: str) -> float:
    """argparse type of ``--tz-offset-hours``: hours that pass ``check_tz_offset``."""
    value = float(text)
    try:
        check_tz_offset(value)
    except ValueError as exc:  # argparse names the flag
        raise argparse.ArgumentTypeError(str(exc).removeprefix("tz_offset_hours ")) from None
    return value


def _holdout(text: str) -> float:
    """argparse type of ``--holdout``: the train side's share, strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text}")
    return value


#: The flags of synth and cv that set a SynthConfig or CvConfig field, as {flag: field}.
_SYNTH_FLAGS = {
    "--n": "n_events", "--instruments": "n_instruments", "--rho": "ar_rho",
    "--state-sigma": "state_sigma", "--noise": "noise_mbs", "--delay-prob": "delayed_stream_prob",
    "--stage": "stage", "--inject-oversize": "inject_oversize", "--inject-zero": "inject_zero",
    "--seed": "seed",
}
_CV_FLAGS = {
    "--num-params": "num_params", "--cv-k": "k", "--train-width": "train_width",
    "--test-width": "test_width", "--train-size": "train_size", "--test-size": "test_size",
    "--seed": "seed",
}


def _add_config_flags(p, config_type, flags: dict[str, str], dest_is_field: bool) -> None:
    """Add ``flags``, each typed and defaulted by its ``config_type`` field's default (an
    enum's values are its choices, a seed is a count), and set ``args.config(args)`` to
    build the config from them. A flag's dest is its field, or else argparse's own."""
    defaults, dests = config_type(), {}
    for flag, field in flags.items():
        default = getattr(defaults, field)
        if isinstance(default, enum.Enum):
            kind = {"choices": [member.value for member in type(default)], "default": default.value}
        else:
            kind = {"type": _count if field == "seed" else type(default), "default": default}
        dests[field] = p.add_argument(flag, dest=field if dest_is_field else None, **kind).dest
    p.set_defaults(config=lambda args: config_type(**{
        field: type(getattr(defaults, field))(getattr(args, dest)) for field, dest in dests.items()
    }))


def _add_holdout_flags(p, side: str) -> None:
    """The flags that pick ``side`` ("train" or "test") of the holdout; see ``_holdout_side``."""
    p.add_argument("--holdout", dest="split", type=_holdout, default=0.9)
    p.add_argument(f"--{side}-subset", type=_count, default=None)
    p.add_argument("--seed", type=_count, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratecast",
        description="Predict file-transfer rates from transfer-event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic transfer log")
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", default=None, help="config/seed JSON path")
    _add_config_flags(p, SynthConfig, _SYNTH_FLAGS, dest_is_field=False)
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
    p.add_argument("--family", default="gbt", choices=FAMILIES)
    _add_config_flags(p, CvConfig, _CV_FLAGS, dest_is_field=True)
    p.add_argument("--space", default=None, help="JSON file of sampling ranges")
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("train", help="train a model on the chronological train side")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="gbt", choices=FAMILIES)
    p.add_argument("--params", default=None, help="hyperparameters JSON file")
    p.add_argument("--from-cv", default=None, help="cv result JSON; use its best_params")
    _add_holdout_flags(p, "train")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the chronological test side")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="eval result JSON path")
    p.add_argument("--pairs", default=None, help="predicted-vs-actual CSV path")
    _add_holdout_flags(p, "test")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
