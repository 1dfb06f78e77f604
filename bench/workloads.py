"""The benchmark's workloads: how each builds its inputs, runs one pass and checks it.

Every workload generates its transfer log with ``generate_workload`` from the
seed it is given; the package only ever sees those generated inputs. Set-up
work (log generation and whatever the table in README.md lists) is timed as
``setup_s``; a pass is timed as ``run_s``. Checks run after a pass, outside
its timing, and a pass whose checks find a problem counts as failed.

Sizes are those of the acceptance workload (50k events). ``n_events`` other
than 50k scales every row count with it; the self-test uses that to run each
workload at a few hundred events.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np

import oracles
import ratecast as rc
from ratecast.models import model_from_dict, model_to_dict

FULL_EVENTS = 50_000
AR_RHO = 0.95
ORACLE_PREFIX = 1_000

ALL_GROUPS = "A,B,C1,C2,D1,D2,D3,E"
MODEL_GROUPS = "A,B,C2,D1,D3,E"

# The acceptance suite's holdout protocol and model shape. max_features=0.999
# resolves to every feature, so no per-split random draws happen.
SPLIT = 0.9
TRAIN_SUBSET = 10_000
TEST_SUBSET = 3_000
SUBSET_SEED = 1
GBT_PARAMS = dict(
    learning_rate=0.1,
    n_estimators=2,  # cut from 150 so that several passes fit in one run
    max_depth=7,
    min_samples_split=40,
    min_samples_leaf=20,
    max_features=0.999,
    subsample=1.0,
    seed=7,
)

# The CLI's fold shape with a small search; the default space except for the
# tree count, which is narrowed so that several passes fit in one run.
CV_FOLDS = dict(train_width=20_000, test_width=2_000, train_size=5_000, test_size=500)
CV_SEARCH = dict(num_params=2, k=2, seed=1)
CV_N_ESTIMATORS = (5, 10)


def _scaled(count: int, n_events: int) -> int:
    return max(1, round(count * n_events / FULL_EVENTS))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def synth_events(seed: int, n_events: int, tr) -> list:
    with tr.span("synth.generate"):
        events, _ = rc.generate_workload(
            rc.SynthConfig(n_events=n_events, ar_rho=AR_RHO, seed=seed)
        )
    tr.count("synth.events", len(events))
    return events


def record_matrix(tr, matrix) -> None:
    """Column count and the share of lag cells with no history."""
    if not tr.enabled:
        return
    tr.count("features.columns", matrix.values.shape[1])
    index = {name: j for j, name in enumerate(matrix.column_names)}
    lag_cols = [c.name for c in matrix.columns if c.origin.startswith("lag:")]
    if lag_cols and matrix.values.shape[0]:
        missing = sum(
            float(matrix.values[:, index[name.rsplit(".", 1)[0] + ".missing"]].sum())
            for name in lag_cols
        )
        tr.count("lags.missing_share", missing / (matrix.values.shape[0] * len(lag_cols)))


def record_model(tr, model, n_features: int) -> None:
    """Tree sizes and the rows x candidate features that split search scanned."""
    if not tr.enabled:
        return
    candidates = model.params.resolve_max_features(n_features)
    tr.count("models.trees", len(model.trees))
    for tree in model.trees:
        split = tree.feature >= 0
        tr.count("tree.nodes", tree.n_nodes)
        tr.count("tree.leaves", int((~split).sum()))
        tr.count("tree.split_row_features", int(tree.n_node_samples[split].sum()) * candidates)


def probe_filenames(events, tr) -> None:
    """``parse_filename`` once per event, outside set-up and passes."""
    unparsed = 0
    with tr.span("filenames.parse"):
        for e in events:
            try:
                rc.parse_filename(e.file_name)
            except rc.FilenameParseError:
                unparsed += 1
    tr.count("filenames.unparsed", unparsed)


_LAG_STATS = {"rate": "transfer_rate_mbs", "file_size": "file_size_gb", "time_diff": "time_diff_s"}


def check_prefix(events, matrix, groups: str) -> list[str]:
    """Leak-freedom and oracle equality on the first start-sorted events.

    Assembling only the first ``ORACLE_PREFIX`` events must reproduce the
    full matrix's first rows (one-hot columns of categories the prefix never
    sees must be zero there), and every lag and concurrency column must
    equal the brute-force oracles of ``tests/oracles.py`` on that prefix.
    Events that start at the same second see each other as concurrent, so
    the prefix is extended to the end of its last start second.
    """
    n = min(ORACLE_PREFIX, len(events) // 2)
    last_start = events[n - 1].start_time
    while n < len(events) and events[n].start_time == last_start:
        n += 1
    prefix = events[:n]
    head = matrix.values[:n]
    full = {name: j for j, name in enumerate(matrix.column_names)}
    sub = rc.assemble_features(prefix, rc.FeatureSpec.parse(groups))
    problems = []
    for j, name in enumerate(sub.column_names):
        if name not in full:
            problems.append(f"prefix matrix has column {name} that the full matrix lacks")
        elif not bits_equal(sub.values[:, j], head[:, full[name]]):
            problems.append(f"column {name}: first {n} rows depend on later events")
    for name in full.keys() - set(sub.column_names):
        if head[:, full[name]].any():
            problems.append(f"column {name}: nonzero on a prefix that never sees it")

    lag_orders: dict[str, set[int]] = {}
    for c in matrix.columns:
        if c.origin.startswith("lag:"):
            _, kind, order, _ = c.origin.split(":")
            lag_orders.setdefault(kind, set()).add(int(order))
    lags = {
        kind: oracles.brute_force_lags(prefix, rc.LagKeyKind(kind), sorted(orders))
        for kind, orders in lag_orders.items()
    }
    concurrency = {}
    for c in matrix.columns:
        column = head[:, full[c.name]]
        if c.origin.startswith("lag:"):
            _, kind, order, stat = c.origin.split(":")
            infos = [per_order[int(order)] for per_order in lags[kind]]
            want = [getattr(i, _LAG_STATS[stat]) if i.present else -1.0 for i in infos]
            absent = [0.0 if i.present else 1.0 for i in infos]
            indicator = head[:, full[c.name.rsplit(".", 1)[0] + ".missing"]]
            if not (bits_equal(column, want) and bits_equal(indicator, absent)):
                problems.append(f"column {c.name} differs from the lag oracle")
        elif c.origin.startswith("concurrency:"):
            _, kind, stat = c.origin.split(":")
            if kind not in concurrency:
                concurrency[kind] = oracles.brute_force_concurrency(prefix, rc.LagKeyKind(kind))
            total, unique = concurrency[kind]
            want = total if stat == "total" else unique
            if not bits_equal(column, want.astype(float)):
                problems.append(f"column {c.name} differs from the concurrency oracle")
    return problems


class FeaturesFull:
    name = "features_full"
    groups = ALL_GROUPS

    def __init__(self, n_events: int = FULL_EVENTS):
        self.n_events = n_events

    def params(self) -> dict:
        return {"n_events": self.n_events, "ar_rho": AR_RHO, "groups": self.groups}

    def setup(self, seed: int, tr) -> dict:
        events = synth_events(seed, self.n_events, tr)
        with tr.span("events.write"):
            sink = io.StringIO()
            rc.write_event_csv(events, sink)
            text = sink.getvalue()
        return {"event_csv": text}

    def run_pass(self, state: dict, tr) -> dict:
        with tr.span("events.parse"):
            parsed = rc.parse_event_csv(io.StringIO(state["event_csv"], newline=""))
        with tr.span("events.clean"):
            cleaned, report = rc.clean_events(parsed)
        with tr.span("events.sort"):
            events = rc.sort_by_start(cleaned)
        with tr.span("features.assemble"):
            matrix = rc.assemble_features(events, rc.FeatureSpec.parse(self.groups))
        targets = np.array([e.transfer_rate_mbs for e in events])
        with tr.span("features.csv_write"):
            sink = io.StringIO()
            rc.write_feature_csv(matrix, targets, sink)
            text = sink.getvalue()
        with tr.span("features.csv_read"):
            read_back = rc.read_feature_csv(io.StringIO(text, newline=""))
        tr.count("events.rows_in", report.n_input)
        tr.count("events.rows_dropped", report.n_input - report.n_output)
        tr.count("features.csv_mb", len(text) / 1e6)
        record_matrix(tr, matrix)
        return {
            "events": events,
            "matrix": matrix,
            "targets": targets,
            "csv": text,
            "read_back": read_back,
        }

    def check(self, state: dict, out: dict) -> list[str]:
        X, names, ids, targets = out["read_back"]
        matrix = out["matrix"]
        problems = []
        if names != matrix.column_names:
            problems.append("feature CSV header differs from the matrix columns")
        if not bits_equal(X, matrix.values):
            problems.append("feature CSV values differ from the matrix")
        if not np.array_equal(ids, matrix.event_ids):
            problems.append("feature CSV event ids differ")
        if not bits_equal(targets, out["targets"]):
            problems.append("feature CSV targets differ")
        return problems

    def identity(self, out: dict) -> dict[str, str]:
        return {"feature_csv_sha256": sha256(out["csv"])}

    def quality(self, out: dict) -> dict[str, float]:
        return {}

    def prefix_inputs(self, state: dict, out: dict):
        return out["events"], out["matrix"]


class ModelFits:
    """The acceptance matrix (groups A,B,C2,D1,D3,E) and split, then both model paths.

    A pass makes one GBT holdout fit with big nodes on the all-features path,
    then a random-forest nested CV: many small fits with 1-8 candidate
    features per split, bootstrap rows and deep trees with small nodes.
    """

    name = "model_fits"
    groups = MODEL_GROUPS

    def __init__(self, n_events: int = FULL_EVENTS):
        self.n_events = n_events

    def config(self) -> rc.CvConfig:
        folds = {k: _scaled(v, self.n_events) for k, v in CV_FOLDS.items()}
        return rc.CvConfig(**CV_SEARCH, **folds)

    def params(self) -> dict:
        return {
            "n_events": self.n_events,
            "ar_rho": AR_RHO,
            "groups": self.groups,
            "split": SPLIT,
            "train_subset": _scaled(TRAIN_SUBSET, self.n_events),
            "test_subset": _scaled(TEST_SUBSET, self.n_events),
            "subset_seed": SUBSET_SEED,
            "gbt_params": GBT_PARAMS,
            "cv_family": "rf",
            "cv_config": vars(self.config()),
            "cv_space_n_estimators": list(CV_N_ESTIMATORS),
        }

    def setup(self, seed: int, tr) -> dict:
        events = synth_events(seed, self.n_events, tr)
        with tr.span("events.sort"):
            events = rc.sort_by_start(events)
        tr.count("events.rows_in", len(events))
        with tr.span("features.assemble"):
            matrix = rc.assemble_features(events, rc.FeatureSpec.parse(self.groups))
        record_matrix(tr, matrix)
        y = np.array([e.transfer_rate_mbs for e in events])
        n_train = rc.chronological_split(len(y), SPLIT)
        rng = np.random.default_rng(SUBSET_SEED)
        train_rows = np.sort(
            rng.choice(n_train, size=_scaled(TRAIN_SUBSET, self.n_events), replace=False)
        )
        test_rows = np.sort(
            n_train
            + rng.choice(len(y) - n_train, size=_scaled(TEST_SUBSET, self.n_events), replace=False)
        )
        return {
            "events": events,
            "matrix": matrix,
            "y": y,
            "train_rows": train_rows,
            "test_rows": test_rows,
        }

    def run_pass(self, state: dict, tr) -> dict:
        matrix = state["matrix"]
        train, test = state["train_rows"], state["test_rows"]
        params = rc.HyperParams(**GBT_PARAMS)
        with tr.span("models.fit"):
            model = rc.fit_gbt(
                matrix.values[train], state["y"][train], params, matrix.column_names
            )
        with tr.span("models.json_roundtrip"):
            text = json.dumps(model_to_dict(model), sort_keys=True) + "\n"
            loaded = model_from_dict(json.loads(text))
        with tr.span("models.predict"):
            preds = rc.predict(loaded, matrix.values[test])
        with tr.span("validation.rmse"):
            score = rc.rmse(preds, state["y"][test])
        record_model(tr, model, matrix.values.shape[1])

        space = rc.HyperParamSpace(n_estimators=CV_N_ESTIMATORS)
        with tr.span("validation.nested_cv"):
            result = rc.nested_cv(matrix.values, state["y"], self.config(), space, family="rf")
        best = result.fold_rmse[result.best_index]
        tr.count("validation.fits", sum(len(scores) for scores in result.fold_rmse))
        tr.count("validation.fold_rmse_spread", max(best) - min(best))
        return {"model": model, "model_json": text, "preds": preds, "rmse": score, "cv": result}

    def check(self, state: dict, out: dict) -> list[str]:
        preds = out["preds"]
        problems = []
        if not np.all(np.isfinite(preds)):
            problems.append("non-finite prediction")
        if np.any(preds < 0):
            problems.append("negative prediction")
        direct = rc.predict(out["model"], state["matrix"].values[state["test_rows"]])
        if not bits_equal(direct, preds):
            problems.append("model JSON round trip changes predictions")
        if not math.isfinite(out["rmse"]):
            problems.append("non-finite holdout RMSE")
        scores = [s for per_candidate in out["cv"].fold_rmse for s in per_candidate]
        if not scores or not all(math.isfinite(s) for s in scores):
            problems.append("non-finite fold RMSE")
        return problems

    def identity(self, out: dict) -> dict[str, str]:
        return {
            "model_json_sha256": sha256(out["model_json"]),
            "cv_json_sha256": sha256(json.dumps(out["cv"].to_dict(), sort_keys=True)),
        }

    def quality(self, out: dict) -> dict[str, float]:
        """Holdout RMSE of the GBT fit and the best CV candidate's mean fold RMSE."""
        cv = out["cv"]
        return {"holdout": out["rmse"], "cv_best": cv.mean_rmse[cv.best_index]}

    def prefix_inputs(self, state: dict, out: dict):
        return state["events"], state["matrix"]


WORKLOADS = {w.name: w for w in (FeaturesFull, ModelFits)}
