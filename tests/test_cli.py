import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratecast
from ratecast import cli
from ratecast.artifacts import write_json
from ratecast.cli import build_parser, main
from ratecast.events import CSV_COLUMNS, Stage
from ratecast.features import read_feature_csv
from ratecast.models import Ensemble, HyperParams, model_to_dict, save_model
from ratecast.synth import SynthConfig
from ratecast.validation import CvConfig, fit_family, holdout_rows


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path):
    return json.loads(_read(path))


def _strip_timing(payload):
    if isinstance(payload, dict):
        return {k: _strip_timing(v) for k, v in payload.items() if k != "timing"}
    if isinstance(payload, list):
        return [_strip_timing(v) for v in payload]
    return payload


SPACE = {
    "learning_rate": [0.1, 0.3],
    "n_estimators": [10, 30],
    "max_depth": [2, 5],
    "min_samples_split": [4, 20],
    "min_samples_leaf": [2, 4],
    "max_features": [3.0, 6.0],
}


def _run_pipeline(workdir, seed=5):
    d = str(workdir)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "1500", "--seed", str(seed),
                 "--inject-oversize", "3", "--inject-zero", "5"]) == 0
    assert main(["clean", "--in", f"{d}/events.csv", "--out", f"{d}/cleaned.csv",
                 "--report", f"{d}/clean.json"]) == 0
    assert main(["features", "--in", f"{d}/cleaned.csv", "--out", f"{d}/features.csv",
                 "--meta", f"{d}/features.meta.json", "--groups", "A,B,D1,E"]) == 0
    with open(f"{d}/space.json", "w") as fh:
        json.dump(SPACE, fh)
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--num-params", "2", "--cv-k", "2", "--train-width", "600",
                 "--test-width", "150", "--train-size", "300", "--test-size", "80",
                 "--seed", "3", "--space", f"{d}/space.json"]) == 0
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 "--from-cv", f"{d}/cv.json", "--train-subset", "800", "--seed", "4"]) == 0
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--out", f"{d}/eval.json", "--pairs", f"{d}/pairs.csv",
                 "--test-subset", "100", "--seed", "6"]) == 0
    assert main(["report", "--out", f"{d}/report.json",
                 "--clean-report", f"{d}/clean.json",
                 "--features-meta", f"{d}/features.meta.json",
                 "--cv", f"{d}/cv.json", "--model", f"{d}/model.json",
                 "--eval", f"{d}/eval.json"]) == 0


def test_full_pipeline_produces_consistent_artifacts(tmp_path, capsys):
    _run_pipeline(tmp_path)
    d = str(tmp_path)

    clean = _read_json(f"{d}/clean.json")
    assert clean["n_input"] == 1508
    assert clean["n_oversize_removed"] == 3
    assert clean["n_zero_removed"] == 5
    assert clean["n_output"] == 1500

    meta = _read_json(f"{d}/features.meta.json")
    assert meta["groups"] == ["A", "B", "D1", "E"]
    with open(f"{d}/features.csv") as fh:
        assert [c["name"] for c in meta["column_meta"]] == read_feature_csv(fh)[1]

    cv = _read_json(f"{d}/cv.json")
    assert len(cv["candidates"]) == 2
    assert cv["best_index"] == int(np.argmin(cv["mean_rmse"]))
    assert cv["best_params"] == cv["candidates"][cv["best_index"]]
    for fold_scores in cv["fold_rmse"]:
        assert len(fold_scores) == 2

    ev = _read_json(f"{d}/eval.json")
    assert ev["rmse_mbs"] >= 0
    assert ev["n_test"] == 100

    report = _read_json(f"{d}/report.json")
    assert report["cleaning"] == clean
    assert report["holdout"]["rmse_mbs"] == ev["rmse_mbs"]
    shares = [entry["share"] for entry in report["top_importances"]]
    assert shares == sorted(shares, reverse=True)
    assert "timing" in report

    out = capsys.readouterr().out
    assert "holdout RMSE" in out
    assert "top feature importances" in out
    best = cv["best_index"]
    params = json.dumps(cv["best_params"], sort_keys=True)
    assert f"cv: best candidate {best} {params} mean RMSE {cv['mean_rmse'][best]:.4f} MB/s" in (
        out.splitlines()
    )

    pairs = _read(f"{d}/pairs.csv").strip().splitlines()
    assert pairs[0] == "event_id,actual_mbs,predicted_mbs"
    assert len(pairs) == 101


def test_pipeline_is_deterministic_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _run_pipeline(a)
    _run_pipeline(b)
    for name in ("events.csv", "cleaned.csv", "features.csv", "model.json", "pairs.csv"):
        assert _read(f"{a}/{name}") == _read(f"{b}/{name}"), name
    # JSON artifacts are identical apart from wall-clock timing
    for name in ("clean.json", "cv.json", "eval.json", "report.json"):
        assert _strip_timing(_read_json(f"{a}/{name}")) == _strip_timing(
            _read_json(f"{b}/{name}")
        ), name


def test_artifacts_are_reloadable_midway(tmp_path):
    # restartability: rebuilding features from the cleaned CSV reproduces the matrix
    _run_pipeline(tmp_path)
    d = str(tmp_path)
    assert main(["features", "--in", f"{d}/cleaned.csv", "--out", f"{d}/features2.csv",
                 "--meta", f"{d}/features2.meta.json", "--groups", "A,B,D1,E"]) == 0
    assert _read(f"{d}/features.csv") == _read(f"{d}/features2.csv")
    assert main(["eval", "--features", f"{d}/features2.csv", "--model", f"{d}/model.json",
                 "--out", f"{d}/eval2.json", "--test-subset", "100", "--seed", "6"]) == 0
    assert _strip_timing(_read_json(f"{d}/eval2.json")) == _strip_timing(
        _read_json(f"{d}/eval.json")
    )


def test_train_and_eval_use_the_rows_of_holdout_rows(tmp_path):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "800", "--seed", "9"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/features.csv",
                 "--groups", "A,D1"]) == 0
    params = HyperParams(n_estimators=3, max_depth=3, min_samples_split=10, seed=2)
    (tmp_path / "params.json").write_text(json.dumps(params.to_dict()))
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 "--params", f"{d}/params.json", "--holdout", "0.8",
                 "--train-subset", "300", "--seed", "5"]) == 0
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--pairs", f"{d}/pairs.csv", "--holdout", "0.8",
                 "--test-subset", "40", "--seed", "5"]) == 0
    with open(f"{d}/features.csv") as fh:
        X, names, event_ids, y = read_feature_csv(fh)
    train_rows, test_rows = holdout_rows(len(y), 0.8, 300, 40, 5)
    save_model(fit_family("gbt", X[train_rows], y[train_rows], params, names),
               f"{d}/direct.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
    listed = [int(line.split(",")[0]) for line in _read(f"{d}/pairs.csv").splitlines()[1:]]
    assert listed == event_ids[test_rows].tolist()


def test_static_only_protocol_runs(tmp_path):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "1000", "--seed", "8"]) == 0
    assert main(["clean", "--in", f"{d}/events.csv", "--out", f"{d}/cleaned.csv"]) == 0
    assert main(["features", "--in", f"{d}/cleaned.csv", "--out", f"{d}/features.csv",
                 "--groups", "A"]) == 0
    with open(f"{d}/params.json", "w") as fh:
        json.dump(
            {
                "learning_rate": 0.2, "n_estimators": 40, "max_depth": 5,
                "min_samples_split": 10, "min_samples_leaf": 5,
                "max_features": 0.999, "subsample": 1.0, "seed": 1,
            },
            fh,
        )
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 "--params", f"{d}/params.json"]) == 0
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--out", f"{d}/eval.json"]) == 0
    with open(f"{d}/features.csv") as fh:
        _, names, _, _ = read_feature_csv(fh)
    assert all(name.startswith("A.") for name in names)
    assert _read_json(f"{d}/eval.json")["rmse_mbs"] > 0


def test_eval_of_mean_model_scores_like_target_spread(tmp_path):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "1200", "--seed", "11"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/features.csv",
                 "--groups", "A"]) == 0
    with open(f"{d}/features.csv") as fh:
        X, names, _, y = read_feature_csv(fh)
    n_train = int(len(y) * 0.9 + 1e-9)
    mean_model = Ensemble(
        family="gbt",
        params=HyperParams(n_estimators=1, max_depth=1, min_samples_split=2,
                           min_samples_leaf=1),
        feature_names=names,
        base_prediction=float(np.mean(y[:n_train])),
        trees=[],
        importances=np.zeros(len(names)),
    )
    with open(f"{d}/mean_model.json", "w") as fh:
        json.dump(model_to_dict(mean_model), fh)
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/mean_model.json",
                 "--out", f"{d}/eval.json"]) == 0
    got = _read_json(f"{d}/eval.json")["rmse_mbs"]
    y_test = y[n_train:]
    expected = float(np.sqrt(np.mean((np.mean(y[:n_train]) - y_test) ** 2)))
    assert got == pytest.approx(expected, rel=1e-12)
    # a constant forecast scores close to the test-side standard deviation
    assert got == pytest.approx(float(np.std(y_test)), rel=0.25)


GOLDEN_SHA256 = {
    "events.meta.json": "d9b08e6834206717589fca4906b0f83073953d321185c5ca50d1b7b139a2cf68",
    "clean.json": "74e395316aba7116953abab98c67c56ae0d8a6af3826f25057a71c2fa323f505",
    "features.csv": "052609a365dbc565a52b9841fdabbb2f15cf474c912be4864df11a6f00109fdd",
    "features.meta.json": "a5ec5c478de6ed974866baa2b2bbe5dac32d7e49c0808921884e5b8ff6b5d801",
    "cv.json": "dc04d05bd417757c76e63f9292f5fb5211cc7b564c64e6f344095bfd9a1e9e39",
    "model.json": "4460a3780a21c30aff1d8df31b40e7de2e73336a075c6dd92eb04a16d12097d6",
    "eval.json": "5cb489cb66f674aca85bb1984b12c06bb4941333a589feba643fde6e4e8abc7f",
}


def _golden_features(d):
    """The golden chain's synth, clean and features steps, writing into ``d``."""
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "3000", "--seed", "7",
                 "--inject-oversize", "2", "--inject-zero", "3"]) == 0
    assert main(["clean", "--in", f"{d}/events.csv", "--out", f"{d}/cleaned.csv",
                 "--report", f"{d}/clean.json"]) == 0
    assert main(["features", "--in", f"{d}/cleaned.csv", "--out", f"{d}/features.csv",
                 "--meta", f"{d}/features.meta.json", "--groups", "A,B,C1,C2,D1,D2,D3,E"]) == 0


def test_artifact_bytes_are_unchanged(tmp_path):
    """SHA-256 of every artifact of a small all-groups chain, ``timing`` left out.

    Pins the serialised field sets, the column layout and the train and test
    row subsets drawn by ``train`` and ``eval``.
    """
    d = str(tmp_path)
    space = dict(SPACE, n_estimators=[5, 10], max_depth=[2, 4])
    (tmp_path / "space.json").write_text(json.dumps(space))
    _golden_features(d)
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--num-params", "2", "--cv-k", "2", "--train-width", "800",
                 "--test-width", "200", "--train-size", "400", "--test-size", "100",
                 "--seed", "3", "--space", f"{d}/space.json"]) == 0
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 "--from-cv", f"{d}/cv.json", "--train-subset", "1000", "--seed", "4"]) == 0
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--out", f"{d}/eval.json", "--test-subset", "150", "--seed", "6"]) == 0
    got = {}
    for name in GOLDEN_SHA256:
        data = (tmp_path / name).read_bytes()
        if name in ("cv.json", "eval.json"):
            payload = json.loads(data)
            del payload["timing"]
            data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN_SHA256


def test_model_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """``train`` under OpenBLAS's Haswell kernel writes the bytes it writes here.

    A fit that went through a BLAS call would sum in the kernel's order, which
    OpenBLAS picks per CPU; on these inputs a BLAS dot for a node's squared
    targets gives other bytes under Haswell than under the SkylakeX kernel.
    OpenBLAS builds without DYNAMIC_ARCH ignore OPENBLAS_CORETYPE, so there
    this test passes without checking anything.
    """
    d = str(tmp_path)
    _golden_features(d)
    (tmp_path / "params.json").write_text('{"n_estimators": 8, "max_depth": 3}')
    train = ["train", "--features", f"{d}/features.csv", "--params", f"{d}/params.json",
             "--train-subset", "1000", "--seed", "4"]
    assert main([*train, "--out", f"{d}/here.json"]) == 0
    src = str(Path(ratecast.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "ratecast.cli", *train, "--out", f"{d}/haswell.json"],
                   env=env, check=True, capture_output=True)
    assert (tmp_path / "haswell.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def test_usage_errors_exit_2_and_data_errors_exit_1(tmp_path):
    d = str(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--bogus-flag"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2

    assert main(["clean", "--in", f"{d}/missing.csv", "--out", f"{d}/out.csv"]) == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("start_time,stop_time\n1,2\n")
    assert main(["clean", "--in", str(bad), "--out", f"{d}/out.csv"]) == 1

    header = (
        "start_time,stop_time,file_size_gb,transfer_rate_mbs,instrument,experiment,"
        "target_host,target_fs,source_fs,node,file_name,stage"
    )
    bad_row = tmp_path / "badrow.csv"
    bad_row.write_text(header + "\n10,20,1.0,oops,cxi,e1,h,t,s,n,f,DSS_TO_FFB\n")
    assert main(["clean", "--in", str(bad_row), "--out", f"{d}/out.csv"]) == 1


def test_report_with_negative_top_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--out", str(out), "--top", "-2"])
    assert exit_info.value.code == 2
    assert "--top" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("synth", "--seed"), ("cv", "--seed"), ("train", "--seed"), ("eval", "--seed"),
     ("train", "--train-subset"), ("eval", "--test-subset")],
)
def test_a_negative_seed_or_subset_exits_2_naming_the_flag(tmp_path, capsys, command, flag):
    # Each exited 1 with "expected non-negative integer" or "negative dimensions".
    d = str(tmp_path)
    args = {
        "synth": ["--out", f"{d}/events.csv"],
        "cv": ["--features", f"{d}/features.csv", "--out", f"{d}/cv.json"],
        "train": ["--features", f"{d}/features.csv", "--out", f"{d}/model.json"],
        "eval": ["--features", f"{d}/features.csv", "--model", f"{d}/model.json"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, flag, "-1"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, option, code, message",
    [("cv", ["--num-params", "-1"], 1, "error: num_params must be a positive integer"),
     ("cv", ["--cv-k", "0"], 1, "error: k must be a positive integer"),
     ("train", ["--holdout", "2"], 2, "argument --holdout: must be strictly between 0 and 1"),
     ("eval", ["--holdout", "nan"], 2, "argument --holdout: must be strictly between 0 and 1"),
     ("features", ["--groups", "A,Z"], 1, "error: unknown feature groups: ['Z']"),
     ("cv", ["--space", "{d}/space.json"], 1, "space.json'"),
     ("train", ["--params", "{d}/params.json"], 1, "params.json'"),
     # Each fold's fit failed ("need at least 2 training rows"), blamed on the feature CSV.
     ("cv", ["--train-size", "1"], 1, "error: train_size must be at least 2"),
     ("train", ["--family", "xgb"], 2, "argument --family: invalid choice: 'xgb'"),
     ("cv", ["--family", "xgb"], 2, "argument --family: invalid choice: 'xgb'")],
    ids=["cv-num-params", "cv-k", "train-holdout", "eval-holdout", "features-groups",
         "cv-space", "train-params", "cv-train-size", "train-family", "cv-family"],
)
def test_a_bad_option_is_reported_before_the_input_is_read(tmp_path, capsys, command, option,
                                                           code, message):
    # Each read the whole input first, so a missing input file was reported instead.
    d = str(tmp_path)
    args = {
        "features": ["--in", f"{d}/events.csv", "--out", f"{d}/features.csv"],
        "cv": ["--features", f"{d}/features.csv", "--out", f"{d}/cv.json"],
        "train": ["--features", f"{d}/features.csv", "--out", f"{d}/model.json"],
        "eval": ["--features", f"{d}/features.csv", "--model", f"{d}/model.json"],
    }[command]
    try:
        rc = main([command, *args, *(o.format(d=d) for o in option)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _static_features_and_model(d, n):
    """A group-A feature CSV and, for its columns, a tree-less model payload."""
    assert main(["synth", "--out", f"{d}/events.csv", "--n", str(n), "--seed", "3"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/features.csv",
                 "--groups", "A"]) == 0
    with open(f"{d}/features.csv") as fh:
        _, names, _, _ = read_feature_csv(fh)
    model = Ensemble(family="gbt", params=HyperParams(), feature_names=names,
                     base_prediction=1.0, trees=[], importances=np.zeros(len(names)))
    return model_to_dict(model)


def _without_trees(model):
    del model["trees"]
    return model


def _with_bogus_param(model):
    model["params"]["bogus"] = 1
    return model


def _with_too_many_estimators(model):
    model["params"]["n_estimators"] = 100_001
    return model


_CLEAN_COUNTS = {"n_input": 3, "n_oversize_removed": 0, "n_zero_removed": 0, "n_output": 3}
_CV_RESULT = {"best_index": 0, "best_params": {}, "mean_rmse": [1.5]}
_FEATURES_META = {"groups": ["A"], "column_meta": []}


@pytest.mark.parametrize(
    "command, flag, make_payload, field",
    [
        ("train", "--from-cv", lambda model: {"best_index": 0}, "best_params"),
        ("train", "--from-cv", lambda model: dict(_CV_RESULT, best_params={"bogus": 1}), "bogus"),
        ("train", "--params", lambda model: {"bogus": 1}, "bogus"),
        ("train", "--params", lambda model: {"max_depth": "deep"}, "max_depth"),
        ("train", "--params", lambda model: {"n_estimators": 2.5}, "n_estimators"),
        ("train", "--params", lambda model: {"learning_rate": float("nan")}, "learning_rate"),
        ("train", "--params", lambda model: {"learning_rate": 10**400},
         "field 'learning_rate'"),
        ("train", "--params", lambda model: {"n_estimators": 10**400}, "n_estimators"),
        ("train", "--params", lambda model: {"n_estimators": 100_001}, "n_estimators"),
        ("train", "--params", lambda model: {"max_features": float("inf")}, "max_features"),
        ("train", "--from-cv",
         lambda model: dict(_CV_RESULT, best_params={"subsample": float("nan")}), "subsample"),
        ("eval", "--model", lambda model: dict(model, base_prediction=float("nan")),
         "base_prediction"),
        ("eval", "--model", _without_trees, "trees"),
        ("eval", "--model", _with_bogus_param, "bogus"),
        ("eval", "--model", _with_too_many_estimators, "n_estimators"),
        ("eval", "--model", lambda model: json.dumps(model)[:40], "line 1"),
        ("eval", "--model", lambda model: dict(model, trees=5), "trees"),
        ("eval", "--model", lambda model: dict(model, trees=[[1]]), "trees"),
        ("eval", "--model", lambda model: dict(model, feature_names=5), "feature_names"),
        ("eval", "--model", lambda model: dict(model, trees=[
            dict(_leaf_tree(len(model["feature_names"]), 1.0), feature=[0.5])]),
         "tree 0: field 'feature'"),
    ],
    ids=[
        "cv-without-best-params",
        "cv-with-unknown-param",
        "params-with-unknown-key",
        "params-with-string-value",
        "params-with-fractional-count",
        "params-with-nan-learning-rate",
        "params-with-learning-rate-too-large-for-a-float",
        "params-with-count-past-int64",
        "params-above-max-estimators",
        "params-with-infinite-max-features",
        "cv-with-nan-subsample",
        "model-with-nan-base-prediction",
        "model-without-trees",
        "model-with-unknown-param",
        "model-params-above-max-estimators",
        "truncated-model",
        "model-with-number-for-trees",
        "model-with-list-for-tree",
        "model-with-number-for-feature-names",
        "model-with-fractional-feature-index",
    ],
)
def test_bad_artifacts_exit_1_without_traceback(tmp_path, capsys, command, flag, make_payload,
                                                field):
    d = str(tmp_path)
    payload = make_payload(_static_features_and_model(d, 300))
    path = tmp_path / "artifact.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    capsys.readouterr()
    extra = ["--out", f"{d}/model.json"] if command == "train" else []
    assert main([command, "--features", f"{d}/features.csv", flag, str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, payload, field",
    [
        ("--clean-report", {"n_input": 3}, "n_oversize_removed"),
        ("--eval", {}, "rmse_mbs"),
        ("--eval", [1, 2], "rmse_mbs"),
        ("--eval", 7, "rmse_mbs"),
        ("--features-meta", [], "groups"),
        ("--cv", [], "best_index"),
        ("--model", lambda model: dict(model, trees=5), "trees"),
        ("--model", lambda model: dict(model, feature_names=[*model["feature_names"][1:], 1]),
         "feature_names"),
        ("--eval", {"rmse_mbs": None}, "rmse_mbs"),
        ("--eval", {"rmse_mbs": "1.0"}, "rmse_mbs"),
        ("--eval", {"rmse_mbs": 10**400}, "rmse_mbs"),
        # It blamed the report: "error: <--out>: Out of range float values ...".
        ("--eval", {"rmse_mbs": float("nan")}, "rmse_mbs"),
        ("--eval", {"rmse_mbs": 1.0, "timing": 5}, "timing"),
        ("--features-meta", dict(_FEATURES_META, groups=5), "groups"),
        ("--features-meta", dict(_FEATURES_META, groups=["A", 1]), "groups"),
        ("--features-meta", dict(_FEATURES_META, column_meta=5), "column_meta"),
        ("--features-meta", dict(_FEATURES_META, stage=5), "stage"),
        ("--clean-report", dict(_CLEAN_COUNTS, n_output="3"), "n_output"),
        ("--clean-report", dict(_CLEAN_COUNTS, n_input=True), "n_input"),
        ("--cv", dict(_CV_RESULT, best_index=0.5), "best_index"),
        ("--cv", dict(_CV_RESULT, best_params=[]), "best_params"),
        ("--cv", dict(_CV_RESULT, mean_rmse=[None]), "mean_rmse"),
        ("--cv", dict(_CV_RESULT, timing=5), "timing"),
        ("--cv", dict(_CV_RESULT, best_index=1), "best_index"),
        ("--cv", dict(_CV_RESULT, best_index=-1), "best_index"),
        ("--cv", dict(_CV_RESULT, mean_rmse=[]), "best_index"),
        # These three blamed the report too.
        ("--cv", dict(_CV_RESULT, timing={"wall_s": float("nan")}), "timing"),
        ("--cv", dict(_CV_RESULT, best_params={"subsample": float("nan")}), "best_params"),
        ("--eval", {"rmse_mbs": 1.0, "timing": {"wall_s": float("inf")}}, "timing"),
    ],
    ids=["clean-report-without-counts", "eval-without-rmse", "eval-list", "eval-number",
         "features-meta-list", "cv-list", "model-with-number-for-trees",
         "model-with-number-in-feature-names",
         "eval-null-rmse", "eval-string-rmse", "eval-rmse-too-large-for-a-float", "eval-nan-rmse",
         "eval-number-for-timing",
         "features-meta-number-for-groups", "features-meta-number-in-groups",
         "features-meta-number-for-column-meta", "features-meta-number-for-stage",
         "clean-report-string-count", "clean-report-boolean-count",
         "cv-fractional-best-index", "cv-list-for-best-params", "cv-null-rmse",
         "cv-number-for-timing", "cv-best-index-past-rmse", "cv-negative-best-index",
         "cv-empty-rmse", "cv-nan-timing", "cv-nan-best-params", "eval-infinite-timing"],
)
def test_report_of_misshapen_artifact_exits_1_without_traceback(tmp_path, capsys, flag, payload,
                                                                field):
    if callable(payload):
        payload = payload(_static_features_and_model(str(tmp_path), 60))
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "report.json"), flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert repr(field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, payload, key",
    [("--cv", _CV_RESULT, "cv_wall_s"), ("--eval", {"rmse_mbs": 1.0}, "eval_wall_s")],
    ids=["cv", "eval"],
)
def test_report_copies_a_wall_time_only_where_the_input_has_one(tmp_path, flag, payload, key):
    path, out = tmp_path / "artifact.json", tmp_path / "report.json"
    for timing, want in (({}, None), ({"other_s": 1.0}, None), ({"wall_s": 2.5}, {key: 2.5})):
        path.write_text(json.dumps(dict(payload, timing=timing)))
        assert main(["report", "--out", str(out), flag, str(path)]) == 0
        assert _read_json(out).get("timing") == want


def test_rf_family_runs_from_cv_through_train_to_eval(tmp_path):
    d = str(tmp_path)
    _static_features_and_model(d, 400)
    space = {"n_estimators": [2, 4], "max_depth": [2, 4], "min_samples_split": [4, 20],
             "min_samples_leaf": [2, 4], "max_features": [1.0, 2.0]}
    (tmp_path / "space.json").write_text(json.dumps(space))
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--family", "rf", "--num-params", "2", "--cv-k", "2", "--train-width", "150",
                 "--test-width", "40", "--train-size", "100", "--test-size", "30",
                 "--space", f"{d}/space.json"]) == 0
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 "--family", "rf", "--from-cv", f"{d}/cv.json"]) == 0
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--out", f"{d}/eval.json"]) == 0
    assert _read_json(f"{d}/cv.json")["family"] == "rf"
    model = _read_json(f"{d}/model.json")
    assert model["family"] == "rf"
    assert "base_prediction" not in model and "train_loss" not in model
    assert math.isfinite(_read_json(f"{d}/eval.json")["rmse_mbs"])


def _replace_cell(text, line, cell, value):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[cell] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def _drop_last_cell(text, line):
    lines = text.split("\n")
    lines[line] = lines[line].rsplit(",", 1)[0]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (lambda text: _replace_cell(text, 2, 3, "abc"), "line 3: could not convert string 'abc' to float64 at column 4"),
        (lambda text: _drop_last_cell(text, 3), "line 4: expected"),
        (lambda text: _replace_cell(text, 1, 0, "1.5"), "line 2: could not convert string '1.5' to int64 at column 1"),
        (lambda text: _replace_cell(text, 0, 0, "id"), "bad header"),
    ],
    ids=["non-numeric-cell", "ragged-row", "non-integer-id", "bad-header"],
)
@pytest.mark.parametrize("command", ["cv", "train", "eval"])
def test_bad_feature_csv_exits_1_naming_the_file(tmp_path, capsys, command, corrupt, detail):
    d = str(tmp_path)
    with open(f"{d}/model.json", "w") as fh:
        json.dump(_static_features_and_model(d, 60), fh)
    bad = tmp_path / "bad_features.csv"
    bad.write_text(corrupt(_read(f"{d}/features.csv")))
    capsys.readouterr()
    extra = {"cv": ["--out", f"{d}/cv.json"], "train": ["--out", f"{d}/m2.json"],
             "eval": ["--model", f"{d}/model.json"]}[command]
    assert main([command, "--features", str(bad), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert detail in err
    assert "Traceback" not in err


def test_features_of_an_absent_stage_exits_1(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "200", "--seed", "4"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/dss.csv",
                 "--stage", "DSS_TO_FFB"]) == 0
    capsys.readouterr()
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/ana.csv",
                 "--stage", "FFB_TO_ANA"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {d}/events.csv: no rows of stage FFB_TO_ANA\n"
    assert not (tmp_path / "ana.csv").exists()

def test_features_of_an_empty_log_exits_1(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "20", "--seed", "4"]) == 0
    header = _read(f"{d}/events.csv").split("\n", 1)[0]
    (tmp_path / "empty.csv").write_text(header + "\n")
    capsys.readouterr()
    assert main(["features", "--in", f"{d}/empty.csv", "--out", f"{d}/f.csv"]) == 1
    assert capsys.readouterr().err == f"error: {d}/empty.csv: no events\n"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_features_with_a_directory_for_a_file_exits_1_naming_it(tmp_path, capsys, flag):
    # Both ended in an IsADirectoryError traceback.
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "20", "--seed", "4"]) == 0
    paths = {"--in": f"{d}/events.csv", "--out": f"{d}/f.csv", flag: d}
    capsys.readouterr()
    assert main(["features", "--in", paths["--in"], "--out", paths["--out"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err and repr(d) in err


def _write_log(path, times):
    """A one-key event log with one row per (start_time, stop_time) pair."""
    header = (
        "start_time,stop_time,file_size_gb,transfer_rate_mbs,instrument,experiment,"
        "target_host,target_fs,source_fs,node,file_name,stage"
    )
    rows = [
        f"{start},{stop},1.5,100.0,cxi,cxi00001,psana201,ffb21,dss-feh,cxidss01,"
        f"e1-r1-s0-c{i}.xtc,DSS_TO_FFB"
        for i, (start, stop) in enumerate(times)
    ]
    path.write_text("\n".join([header, *rows]) + "\n")


def test_features_of_a_start_time_past_int64_exits_1(tmp_path, capsys):
    # It parsed, then ended in an OverflowError traceback in the lag lookups'
    # int64 conversion.
    _write_log(tmp_path / "e.csv", [(1500000000, 1500000010), (10**20 - 1, 10**20 - 1)])
    assert main(["features", "--in", str(tmp_path / "e.csv"), "--out", str(tmp_path / "f.csv"),
                 "--groups", "A,B,D1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'e.csv'}: row 1: start_time 99999999999999999999 is outside"
        " the supported range of ±2**61 s\n"
    )
    assert not (tmp_path / "f.csv").exists()


def test_features_of_a_start_time_near_int64_with_tz_offset_exits_1(tmp_path, capsys):
    # It exited 0: the tz shift wrapped in int64 and group B held the hour of
    # the wrapped clock.
    _write_log(tmp_path / "e.csv", [(9223372036854775000, 9223372036854775000)])
    assert main(["features", "--in", str(tmp_path / "e.csv"), "--out", str(tmp_path / "f.csv"),
                 "--groups", "A,B", "--tz-offset-hours", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'e.csv'}: row 0: start_time 9223372036854775000 is outside"
        " the supported range of ±2**61 s\n"
    )


_LOG_ROW = "10,20,1.0,50.0,cxi,e1,h,t,s,n,f,DSS_TO_FFB\n"
#: An event log whose first data row opens a quote that 20,000 rows never close.
_UNCLOSED_QUOTE = ",".join(CSV_COLUMNS) + "\n" + _LOG_ROW.replace("cxi", '"cxi') + _LOG_ROW * 20_000


@pytest.mark.parametrize(
    "text, detail",
    [
        ("start_time,stop_time\n1,2\n", "missing column 'file_size_gb'"),
        (None, "row 0: stop_time 10 precedes start_time 20"),
        # csv's field-size error on a quote that never closes was a traceback.
        (_UNCLOSED_QUOTE, "row 0: field larger than field limit (131072)"),
        # The quote's row was named instead of the short row ahead of it.
        (_UNCLOSED_QUOTE.replace("\n", "\n1,2,3\n", 1), "row 0: expected 12 fields, got 3"),
    ],
    ids=["bad-header", "bad-row", "quote-never-closes", "short-row-ahead-of-quote"],
)
def test_clean_of_a_bad_log_exits_1_naming_the_file(tmp_path, capsys, text, detail):
    path = tmp_path / "e.csv"
    if text is None:
        _write_log(path, [(20, 10)])
    else:
        path.write_text(text)
    assert main(["clean", "--in", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {detail}\n"
    assert not (tmp_path / "out.csv").exists()


def _write_log_with_a_bare_cr(path):
    """A 40-row event log, written as ratecast writes one, whose quoted
    instruments hold a bare CR, and a comma and a quote."""
    header = (
        "start_time,stop_time,file_size_gb,transfer_rate_mbs,instrument,experiment,"
        "target_host,target_fs,source_fs,node,file_name,stage"
    )
    instruments = ['"cx\ri"', '"x,""y"', "xpp"]
    rows = [
        f"{10 * i},{10 * i + 5},1.5,{50 + i}.25,{instruments[i % 3]},e{i % 3},h1,ffb,dss,n1,"
        f"e1-r1-s{i}-c0.xtc,DSS_TO_FFB"
        for i in range(40)
    ]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", newline="")


def test_clean_then_features_of_a_category_holding_a_bare_cr(tmp_path):
    # clean wrote the CR bare, and features read it as a line end:
    # "error: c.csv: row 0: expected 12 fields, got 5".
    e, c, f = (str(tmp_path / name) for name in ("e.csv", "c.csv", "f.csv"))
    _write_log_with_a_bare_cr(tmp_path / "e.csv")
    assert main(["clean", "--in", e, "--out", c]) == 0
    assert Path(c).read_bytes() == Path(e).read_bytes()
    assert main(["features", "--in", c, "--out", f]) == 0
    with open(f, encoding="utf-8", newline="") as fh:
        names = read_feature_csv(fh)[1]
    assert [n for n in names if n.startswith("A.instrument.")] == [
        "A.instrument.cx\ri", 'A.instrument.x,"y', "A.instrument.xpp"
    ]


def test_features_then_train_of_a_category_holding_a_bare_cr(tmp_path):
    # features wrote the CR bare into its header, which train then refused:
    # "not a feature matrix CSV (bad header)".
    e, f, m = (str(tmp_path / name) for name in ("e.csv", "f.csv", "m.json"))
    _write_log_with_a_bare_cr(tmp_path / "e.csv")
    assert main(["features", "--in", e, "--out", f, "--groups", "A,B,D1"]) == 0
    assert main(["train", "--features", f, "--out", m]) == 0
    assert main(["eval", "--features", f, "--model", m]) == 0
    assert "A.instrument.cx\ri" in _read_json(m)["feature_names"]


def test_features_at_the_timestamp_bounds_match_exact_arithmetic(tmp_path):
    limit = 2**61
    _write_log(tmp_path / "e.csv", [(-limit, -limit), (limit, limit)])
    for offset in (-24, 24):
        out = tmp_path / f"f{offset}.csv"
        assert main(["features", "--in", str(tmp_path / "e.csv"), "--out", str(out),
                     "--groups", "A,B,D1", "--tz-offset-hours", str(offset)]) == 0
        with open(out, newline="") as fh:
            X, names, _, _ = read_feature_csv(fh)
        for row, start in enumerate((-limit, limit)):
            days, seconds = divmod(start + offset * 3600, 86400)
            assert X[row, names.index("B.day_of_week")] == (days + 3) % 7
            assert X[row, names.index("B.hour_of_day")] == seconds // 3600
        assert X[1, names.index("D1.overall.lag1.file_size")] == 1.5
        assert X[1, names.index("D1.same_instrument.lag1.time_diff")] == float(2 * limit)


@pytest.mark.parametrize("offset", ["inf", "-inf", "nan", "1e20", "24.5", "-25"])
def test_features_rejects_a_tz_offset_beyond_a_day_as_a_bad_flag(tmp_path, capsys, offset):
    # inf and 1e20 ended in OverflowError tracebacks, and nan exited 1.
    _write_log(tmp_path / "e.csv", [(1500000000, 1500000010)])
    with pytest.raises(SystemExit) as exit_info:
        main(["features", "--in", str(tmp_path / "e.csv"), "--out", str(tmp_path / "f.csv"),
              "--groups", "A,B", f"--tz-offset-hours={offset}"])
    assert exit_info.value.code == 2
    assert "argument --tz-offset-hours: must be finite and within ±24 hours" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "line, cell, detail",
    # Mid-file rows, so every cv fold's training region (40 of 60 rows) holds them.
    [(30, 2, "non-finite feature value nan at row"), (31, -1, "non-finite target inf at row")],
    ids=["feature", "target"],
)
@pytest.mark.parametrize("command", ["cv", "train"])
def test_non_finite_training_data_exits_1(tmp_path, capsys, command, line, cell, detail):
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    value = "nan" if cell > 0 else "inf"
    (tmp_path / "bad.csv").write_text(_replace_cell(_read(f"{d}/features.csv"), line, cell, value))
    capsys.readouterr()
    extra = ["--num-params", "1", "--cv-k", "1", "--train-width", "40", "--test-width", "10",
             "--train-size", "40", "--test-size", "10"] if command == "cv" else []
    assert main([command, "--features", f"{d}/bad.csv", "--out", f"{d}/out.json", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and detail in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_whose_fit_overflows_exits_1_and_writes_no_model(tmp_path, capsys):
    # It wrote "base_prediction": Infinity, which load_model then refused; then
    # it fitted through overflow warnings and blamed the model file (--out).
    rows = [f"{i},{i % 3},1.7e308" for i in range(10)]
    (tmp_path / "f.csv").write_text("\n".join(["meta.event_id,A.x,target.transfer_rate_mbs",
                                               *rows]) + "\n")
    (tmp_path / "params.json").write_text('{"n_estimators": 2, "max_depth": 2, "max_features": 1}')
    out = tmp_path / "model.json"
    assert main(["train", "--features", str(tmp_path / "f.csv"), "--out", str(out),
                 "--params", str(tmp_path / "params.json")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'f.csv'}: target 1.7e+308 at row 0 is past "
                   "±1.11111e+149, the bound on 9 rows\n")
    assert not out.exists()


_DIVERGING = {"learning_rate": 1e308, "n_estimators": 3, "min_samples_split": 4,
              "min_samples_leaf": 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flag, payload, detail",
    [
        # It fitted NaN trees through RuntimeWarnings, then blamed --out.
        ("--params", _DIVERGING, "the fit overflows at tree 0: training loss inf"),
        ("--from-cv", dict(_CV_RESULT, best_params=_DIVERGING), "the fit overflows at tree 0"),
        # HyperParams ended in numpy's TypeError on an integer past the uint64 range.
        ("--params", {"max_features": 10**29},
         "max_features rounds to 100000000000000000000000000000 but only"),
    ],
    ids=["params-learning-rate", "cv-learning-rate", "params-huge-max-features"],
)
def test_train_names_the_hyperparameter_file_whose_fit_fails(tmp_path, capsys, flag, payload,
                                                             detail):
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    path = tmp_path / "knobs.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
                 flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {detail}") and err.count("\n") == 1
    assert not (tmp_path / "model.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_with_default_hyperparameters_names_the_features_whose_fit_overflows(tmp_path,
                                                                                   capsys):
    # Targets sum to a finite number, but their squared errors pass float64.
    _write_huge_targets(tmp_path / "f.csv")
    assert main(["train", "--features", str(tmp_path / "f.csv"), "--out",
                 str(tmp_path / "model.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'f.csv'}: {_HUGE_TARGETS_ON_9_ROWS}\n"


_HUGE_TARGETS_ON_9_ROWS = "target 1e+200 at row 0 is past ±1.11111e+149, the bound on 9 rows"


def _write_huge_targets(path):
    """A 10-row feature CSV of four columns whose targets are ±1e200."""
    rows = [f"{i},{i % 3},{i % 4},{i % 5},{i % 6},{'-' if i % 2 else ''}1e200" for i in range(10)]
    header = "meta.event_id,A.a,A.b,A.c,A.d,target.transfer_rate_mbs"
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", ["gbt", "rf"])
def test_train_refuses_targets_whose_squares_overflow_naming_the_features(tmp_path, capsys,
                                                                         family):
    # With splits allowed, the split search warned of overflow; rf then saved
    # a constant model with exit 0, and gbt failed only at tree 0.
    _write_huge_targets(tmp_path / "f.csv")
    (tmp_path / "params.json").write_text(
        '{"n_estimators": 2, "max_depth": 3, "min_samples_split": 2, "min_samples_leaf": 1}')
    out = tmp_path / "model.json"
    assert main(["train", "--features", str(tmp_path / "f.csv"), "--out", str(out),
                 "--family", family, "--params", str(tmp_path / "params.json")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'f.csv'}: {_HUGE_TARGETS_ON_9_ROWS}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cv_names_the_file_behind_a_failed_fit(tmp_path, capsys):
    # It printed "error: the fit overflows at tree 0: training loss inf", naming no file.
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"learning_rate": [1e300, 1e308], "min_samples_split": [2, 4],
                                 "min_samples_leaf": [1, 2]}))
    capsys.readouterr()
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--space", str(space), "--num-params", "2", "--cv-k", "1", "--train-width", "40",
                 "--test-width", "10", "--train-size", "40", "--test-size", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {space}: the fit overflows at tree 0: ") and err.count("\n") == 1
    # The input is checked under the feature CSV's name before any fit.
    _write_huge_targets(tmp_path / "f.csv")
    assert main(["cv", "--features", str(tmp_path / "f.csv"), "--out", f"{d}/cv.json",
                 "--num-params", "1", "--cv-k", "1", "--train-width", "6", "--test-width", "2",
                 "--train-size", "6", "--test-size", "2"]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'f.csv'}: target 1e+200 at row 0 is "
                                       "past ±1e+149, the bound on 10 rows\n")
    assert not (tmp_path / "cv.json").exists()


def _leaf_tree(n_features, value):
    return {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [value],
            "n_node_samples": [1], "feature_gains": [0.0] * n_features}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "change, detail",
    [
        # It printed "holdout RMSE: inf MB/s" and exited 0.
        (lambda model: dict(model, base_prediction=1e308), "RMSE is inf: "),
        (lambda model: dict(model, base_prediction=1.7e308,
                            trees=[_leaf_tree(len(model["feature_names"]), 1e308)]),
         "non-finite prediction inf at row 0"),
    ],
    ids=["base-prediction", "tree-value"],
)
def test_eval_names_the_model_whose_scores_overflow(tmp_path, capsys, change, detail):
    d = str(tmp_path)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(change(_static_features_and_model(d, 60))))
    capsys.readouterr()
    assert main(["eval", "--features", f"{d}/features.csv", "--model", str(path),
                 "--out", f"{d}/eval.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {detail}") and err.count("\n") == 1
    assert not (tmp_path / "eval.json").exists()


def test_eval_of_a_non_finite_target_exits_1_without_blaming_the_model(tmp_path, capsys):
    d = str(tmp_path)
    with open(f"{d}/model.json", "w") as fh:
        json.dump(_static_features_and_model(d, 60), fh)
    # Line 58 holds row 57, the fourth of the six rows the default 0.9 split tests on.
    (tmp_path / "bad.csv").write_text(_replace_cell(_read(f"{d}/features.csv"), 58, -1, "nan"))
    capsys.readouterr()
    assert main(["eval", "--features", f"{d}/bad.csv", "--model", f"{d}/model.json"]) == 1
    # It named neither the file nor the file's row: "non-finite target nan at row 3".
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'bad.csv'}: non-finite target nan at row 57\n"


def test_non_finite_feature_at_scoring_exits_1(tmp_path, capsys):
    d = str(tmp_path)
    with open(f"{d}/model.json", "w") as fh:
        json.dump(_static_features_and_model(d, 60), fh)
    # Line 58 holds row 57, the fourth of the six rows the default 0.9 split tests on.
    (tmp_path / "bad.csv").write_text(_replace_cell(_read(f"{d}/features.csv"), 58, 2, "nan"))
    capsys.readouterr()
    assert main(["eval", "--features", f"{d}/bad.csv", "--model", f"{d}/model.json"]) == 1
    err = capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    assert err == f"error: {bad}: non-finite feature value nan at row 57, column 1\n"


def test_train_on_a_subset_names_the_file_row_of_a_non_finite_cell(tmp_path, capsys):
    d = str(tmp_path)
    _static_features_and_model(d, 800)
    # Line 701 holds row 700, which the 715-row draw from the 720-row train side keeps;
    # the message counted rows within the draw.
    (tmp_path / "bad.csv").write_text(_replace_cell(_read(f"{d}/features.csv"), 701, -1, "nan"))
    capsys.readouterr()
    assert main(["train", "--features", f"{d}/bad.csv", "--out", f"{d}/model.json",
                 "--train-subset", "715"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'bad.csv'}: non-finite target nan at row 700\n"
    assert not (tmp_path / "model.json").exists()


def test_non_finite_target_in_a_test_only_row_exits_1(tmp_path, capsys):
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    # No fold trains on the last row and one tests on it. Checked only per fit,
    # it made candidate 0's mean RMSE NaN, and that candidate won with exit 0.
    (tmp_path / "bad.csv").write_text(_replace_cell(_read(f"{d}/features.csv"), 60, -1, "nan"))
    capsys.readouterr()
    assert main(["cv", "--features", f"{d}/bad.csv", "--out", f"{d}/cv.json", "--num-params",
                 "2", "--cv-k", "1", "--train-width", "40", "--test-width", "10",
                 "--train-size", "40", "--test-size", "10"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'bad.csv'}: non-finite target nan at row 59\n"
    assert not (tmp_path / "cv.json").exists()


@pytest.mark.parametrize("with_space", [False, True])
def test_cv_names_the_feature_csv_too_short_for_one_fold(tmp_path, capsys, with_space):
    # With --space it blamed the space file: the width check ran inside the search.
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    (tmp_path / "space.json").write_text(json.dumps(SPACE))
    space = ["--space", f"{d}/space.json"] if with_space else []
    capsys.readouterr()
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--num-params", "1", "--cv-k", "1", *space]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {d}/features.csv: train_width + test_width = 22000 exceeds 60 rows\n"
    assert not (tmp_path / "cv.json").exists()


@pytest.mark.parametrize(
    "space, detail",
    [
        ([1, 2], "must be a JSON object"),
        ({"max_depth": 3}, "'max_depth' must be a [lo, hi] pair of integers"),
        ({"max_depth": [3.5, 5]}, "'max_depth' must be a [lo, hi] pair of integers"),
        ({"max_depth": [2, 3, 4]}, "'max_depth' must be a [lo, hi] pair"),
        ({"max_depth": [2, 10**400]}, "'max_depth' must be a [lo, hi] pair of integers"),
        ({"n_estimators": [1, 10**30]}, "'n_estimators' must be a [lo, hi] pair of integers"),
        ({"learning_rate": ["a", 0.3]}, "'learning_rate' must be a [lo, hi] pair of finite"),
        ({"learning_rate": [0.1, float("inf")]}, "'learning_rate' must be a [lo, hi] pair"),
        ({"bogus": [1, 2]}, "unknown hyperparameter 'bogus'"),
        ({"max_depth": [5, 3]}, "empty range for max_depth"),
        ({"n_estimators": [10, 100_001]}, "n_estimators range must stay within [1, 100000]"),
    ],
    ids=["list", "scalar", "fractional-int", "triple", "too-large-for-a-float", "past-int64",
         "string", "infinite", "unknown-key", "empty-range", "above-max-estimators"],
)
def test_bad_space_file_exits_1(tmp_path, capsys, space, detail):
    d = str(tmp_path)
    _static_features_and_model(d, 60)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    capsys.readouterr()
    assert main(["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
                 "--space", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and detail in err
    assert "Traceback" not in err


def test_eval_of_empty_test_subset_exits_1(tmp_path, capsys):
    d = str(tmp_path)
    with open(f"{d}/model.json", "w") as fh:
        json.dump(_static_features_and_model(d, 50), fh)
    capsys.readouterr()
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
                 "--test-subset", "0"]) == 1
    assert "error: rmse of empty arrays" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case, detail", [
    ("header-only", "a chronological split needs at least 2 rows, got 0"),
    ("subset", "_subset 99999 exceeds side of "),
], ids=["header-only", "subset"])
def test_a_holdout_that_cannot_be_drawn_names_the_feature_csv(tmp_path, capsys, command,
                                                              case, detail):
    d = str(tmp_path)
    with open(f"{d}/model.json", "w") as fh:
        json.dump(_static_features_and_model(d, 300), fh)
    features = f"{d}/features.csv"
    if case == "header-only":
        with open(features) as fh:
            header = fh.readline()
        features = f"{d}/header-only.csv"
        with open(features, "w") as fh:
            fh.write(header)
    side = {"train": ["--out", f"{d}/out.json"], "eval": ["--model", f"{d}/model.json"]}[command]
    subset = ["--train-subset" if command == "train" else "--test-subset", "99999"]
    capsys.readouterr()
    assert main([command, "--features", features, *side,
                 *(subset if case == "subset" else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {features}: ") and detail in err and err.count("\n") == 1


@pytest.mark.parametrize("groups, detail", [
    ("A", "18 feature columns, the model has 20"),
    ("A,C1", "feature column 19 is 'C1.same_experiment.active_jobs', "
             "the model's is 'B.day_of_week'"),
], ids=["count", "name"])
def test_eval_of_mismatched_columns_names_both_files_and_the_difference(tmp_path, capsys,
                                                                       groups, detail):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "600", "--seed", "2"]) == 0
    for name, spec in (("model-features", "A,B"), ("features", groups)):
        assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/{name}.csv",
                     "--groups", spec]) == 0
    with open(f"{d}/params.json", "w") as fh:
        json.dump({"n_estimators": 2, "max_depth": 2}, fh)
    assert main(["train", "--features", f"{d}/model-features.csv", "--out", f"{d}/model.json",
                 "--params", f"{d}/params.json"]) == 0
    capsys.readouterr()
    assert main(["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json"]) == 1
    assert capsys.readouterr().err == (
        f"error: {d}/features.csv: feature columns do not match those of {d}/model.json: "
        f"{detail}\n"
    )


def test_eval_rejects_mismatched_feature_columns(tmp_path):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "600", "--seed", "2"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/fa.csv",
                 "--groups", "A"]) == 0
    assert main(["features", "--in", f"{d}/events.csv", "--out", f"{d}/fb.csv",
                 "--groups", "A,B"]) == 0
    with open(f"{d}/params.json", "w") as fh:
        json.dump(
            {
                "learning_rate": 0.3, "n_estimators": 5, "max_depth": 3,
                "min_samples_split": 4, "min_samples_leaf": 2,
                "max_features": 2.0, "subsample": 1.0, "seed": 0,
            },
            fh,
        )
    assert main(["train", "--features", f"{d}/fa.csv", "--out", f"{d}/model.json",
                 "--params", f"{d}/params.json"]) == 0
    assert main(["eval", "--features", f"{d}/fb.csv", "--model", f"{d}/model.json"]) == 1


@pytest.mark.parametrize("flag, value, detail", [
    # wrote "noise_mbs": Infinity, which is not JSON, into the sidecar
    ("--noise", "inf", "noise_mbs must be finite, got inf"),
    # wrote a log of wrapped stop times that features rejected at row 0
    ("--state-sigma", "inf", "state_sigma must be finite, got inf"),
    # ended in an OverflowError traceback from exp()
    ("--state-sigma", "1e300", "state_sigma must be at most 10, got 1e+300"),
])
def test_synth_rejects_a_scale_that_is_not_finite_or_overflows(tmp_path, capsys, flag, value,
                                                               detail):
    assert main(["synth", "--out", f"{tmp_path}/events.csv", "--n", "50", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert not list(tmp_path.iterdir())


def test_json_artifacts_refuse_nan_and_infinity(tmp_path):
    path = tmp_path / "a.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{path}: Out of range float values"):
            write_json(str(path), {"x": bad})
        assert not path.exists()


def test_synth_writes_sidecar_with_config(tmp_path):
    d = str(tmp_path)
    assert main(["synth", "--out", f"{d}/events.csv", "--n", "50", "--seed", "123"]) == 0
    sidecar = _read_json(f"{d}/events.meta.json")
    assert sidecar["seed"] == 123
    assert sidecar["config"]["n_events"] == 50
    assert sidecar["config"]["stage"] == "DSS_TO_FFB"


# ------------------------------------------------------------ flag tables


#: (flag, dest, type) of every flag that sets a config field or picks holdout rows.
_PINNED_FLAGS = {
    "synth": [("--n", "n_events", int), ("--instruments", "n_instruments", int),
              ("--rho", "ar_rho", float), ("--state-sigma", "state_sigma", float),
              ("--noise", "noise_mbs", float), ("--delay-prob", "delayed_stream_prob", float),
              ("--stage", "stage", None),
              ("--inject-oversize", "inject_oversize", int),
              ("--inject-zero", "inject_zero", int), ("--seed", "seed", cli._count)],
    "cv": [("--num-params", "num_params", int), ("--cv-k", "k", int),
           ("--train-width", "train_width", int), ("--test-width", "test_width", int),
           ("--train-size", "train_size", int), ("--test-size", "test_size", int),
           ("--seed", "seed", cli._count)],
    "train": [("--holdout", "split", cli._holdout), ("--train-subset", "train_subset", cli._count),
              ("--seed", "seed", cli._count)],
    "eval": [("--holdout", "split", cli._holdout), ("--test-subset", "test_subset", cli._count),
             ("--seed", "seed", cli._count)],
}


@pytest.mark.parametrize("command", list(_PINNED_FLAGS))
def test_table_flags_keep_their_names_dests_and_types(command):
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    actions = {a.option_strings[0]: a for a in parser._actions if a.option_strings}
    assert [(f, actions[f].dest, actions[f].type) for f, _, _ in _PINNED_FLAGS[command]] == (
        _PINNED_FLAGS[command]
    )
    table = {"synth": cli._SYNTH_FLAGS, "cv": cli._CV_FLAGS}.get(command)
    if table is not None:
        assert list(table) == [flag for flag, _, _ in _PINNED_FLAGS[command]]
    if command == "synth":
        assert actions["--stage"].choices == ["DSS_TO_FFB", "FFB_TO_ANA"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["synth", "--out", "e.csv"], SynthConfig()),
        (["cv", "--features", "f.csv", "--out", "cv.json"], CvConfig()),
        (["synth", "--out", "e.csv", "--n", "5", "--rho", "0.5", "--stage", "FFB_TO_ANA",
          "--inject-zero", "2", "--seed", "7"],
         SynthConfig(n_events=5, ar_rho=0.5, stage=Stage.FFB_TO_ANA, inject_zero=2, seed=7)),
        (["cv", "--features", "f.csv", "--out", "cv.json", "--cv-k", "3", "--test-size", "9"],
         CvConfig(k=3, test_size=9)),
    ],
    ids=["synth-defaults", "cv-defaults", "synth-set", "cv-set"],
)
def test_table_flags_build_their_config_field_for_field(argv, config):
    args = build_parser().parse_args(argv)
    built = args.config(args)
    for f in dataclasses.fields(config):
        want = getattr(config, f.name)
        assert (getattr(built, f.name), type(getattr(built, f.name))) == (want, type(want)), f.name
