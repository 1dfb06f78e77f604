"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The effect-reproduction criteria share one seeded 50k-event workload
through a lazy fixture; every criterion's runtime budget is checked against
the wall time attributed to the artifacts it actually uses plus its own work.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import mk_event, random_log
from oracles import assert_same_lags, brute_force_concurrency, brute_force_lags
from ratecast.events import EventLog, clean_events, sort_by_start
from ratecast.features import FeatureSpec, assemble_features
from ratecast.filenames import FileNameParts, format_filename, parse_filename
from ratecast.lags import LagKeyKind, compute_chunk_time_offset, compute_concurrency, compute_keyed_lags
from ratecast.models import (
    HyperParams,
    feature_importance,
    fit_gbt,
    model_to_dict,
    predict,
    predict_raw,
)
from ratecast.synth import SynthConfig, generate_workload
from ratecast.validation import CvConfig, chronological_split, fit_family, holdout_rows, make_folds

WORKLOAD_SEED = 20250808
N_EVENTS = 50_000
TRAIN_SUBSET = 10_000
TEST_SUBSET = 3_000
SUBSET_SEED = 1

EXPERIMENT_PARAMS = HyperParams(
    learning_rate=0.1,
    n_estimators=150,
    max_depth=7,
    min_samples_split=40,
    min_samples_leaf=20,
    max_features=0.999,
    subsample=1.0,
    seed=7,
)


@contextmanager
def criterion(num: int, name: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} {name}: FAIL ({time.monotonic() - t0:.1f}s)", flush=True)
        raise
    print(f"\nACCEPTANCE {num:2d} {name}: PASS ({time.monotonic() - t0:.1f}s)", flush=True)


class SharedWorkload:
    """Lazily built artifacts with per-artifact wall times for budget checks."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self._cache: dict[str, object] = {}

    def _timed(self, key, build):
        if key not in self._cache:
            t0 = time.monotonic()
            self._cache[key] = build()
            self.times[key] = time.monotonic() - t0
        return self._cache[key]

    def attributed(self, keys) -> float:
        return sum(self.times.get(k, 0.0) for k in keys)

    def events_and_targets(self):
        def build():
            events, _ = generate_workload(
                SynthConfig(n_events=N_EVENTS, ar_rho=0.95, seed=WORKLOAD_SEED)
            )
            events = sort_by_start(events)
            return events, np.array([e.transfer_rate_mbs for e in events])

        return self._timed("workload", build)

    def split_rows(self):
        def build():
            _, y = self.events_and_targets()
            n_train = chronological_split(len(y), 0.9)
            rng = np.random.default_rng(SUBSET_SEED)
            train_rows = np.sort(rng.choice(n_train, size=TRAIN_SUBSET, replace=False))
            test_rows = np.sort(
                n_train + rng.choice(len(y) - n_train, size=TEST_SUBSET, replace=False)
            )
            return train_rows, test_rows

        return self._timed("split", build)

    def features(self, groups: str):
        def build():
            events, _ = self.events_and_targets()
            return assemble_features(events, FeatureSpec.parse(groups))

        return self._timed(f"features:{groups}", build)

    def model(self, groups: str):
        def build():
            matrix = self.features(groups)
            _, y = self.events_and_targets()
            train_rows, _ = self.split_rows()
            return fit_gbt(
                matrix.values[train_rows], y[train_rows], EXPERIMENT_PARAMS,
                matrix.column_names,
            )

        return self._timed(f"model:{groups}", build)

    def holdout_rmse(self, groups: str) -> float:
        matrix = self.features(groups)
        _, y = self.events_and_targets()
        _, test_rows = self.split_rows()
        preds = predict(self.model(groups), matrix.values[test_rows])
        return float(np.sqrt(np.mean((preds - y[test_rows]) ** 2)))

    def keys_for(self, groups_list) -> list[str]:
        keys = ["workload", "split"]
        for groups in groups_list:
            keys.extend([f"features:{groups}", f"model:{groups}"])
        return keys


@pytest.fixture(scope="module")
def shared() -> SharedWorkload:
    return SharedWorkload()


def test_criterion_01_lag_oracle_equivalence():
    with criterion(1, "lag oracle equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2025)
        events = sort_by_start(random_log(rng, 1000))
        orders = list(range(1, 21))
        for kind in LagKeyKind:
            got = compute_keyed_lags(events, kind, orders)
            want = brute_force_lags(events, kind, orders)
            assert_same_lags(events, got, want)
        assert time.monotonic() - t0 < 30.0


def test_criterion_02_concurrency_oracle_equivalence():
    with criterion(2, "concurrency oracle equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2026)
        events = sort_by_start(random_log(rng, 1000, time_span=2000, max_duration=120))
        c1_c2_kinds = [
            LagKeyKind.SAME_EXPERIMENT,
            LagKeyKind.SAME_INSTRUMENT,
            LagKeyKind.SAME_TARGET_FS,
            LagKeyKind.SAME_TARGET_HOST,
            LagKeyKind.SAME_NODE,
        ]
        for kind in c1_c2_kinds:
            total, unique = compute_concurrency(events, kind)
            want_total, want_unique = brute_force_concurrency(events, kind)
            np.testing.assert_array_equal(total, want_total)
            np.testing.assert_array_equal(unique, want_unique)
        assert time.monotonic() - t0 < 30.0


def test_criterion_03_order_preservation_and_leak_freedom():
    with criterion(3, "order preservation and leak freedom"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n_rows = int(rng.integers(30, 400))
            train_width = int(rng.integers(5, n_rows - 10))
            test_width = int(rng.integers(1, n_rows - train_width))
            config = CvConfig(
                k=int(rng.integers(1, 5)),
                train_width=train_width,
                test_width=test_width,
                train_size=int(rng.integers(1, train_width + 1)),
                test_size=int(rng.integers(1, test_width + 1)),
                seed=int(rng.integers(0, 10**6)),
            )
            for fold in make_folds(n_rows, config, rng):
                assert fold.train_rows.max() < fold.test_rows.min()

        # differential leak test: perturbing a future event leaves earlier rows
        # bit-identical
        import dataclasses

        spec = FeatureSpec.parse("A,B,C1,C2,D1,D2,D3,E")
        events = sort_by_start(random_log(np.random.default_rng(77), 300))
        baseline = assemble_features(events, spec)
        for _ in range(5):
            idx = int(rng.integers(50, len(events)))
            target = events[idx]
            mutated = dataclasses.replace(
                target,
                stop_time=target.stop_time + int(rng.integers(1, 100)),
                file_size_gb=target.file_size_gb * 2.0 + 1.0,
                transfer_rate_mbs=target.transfer_rate_mbs * 0.5 + 1.0,
                experiment="exp0" if target.experiment != "exp0" else "exp1",
                node="node0" if target.node != "node0" else "node1",
            )
            rows = list(events)
            rows[idx] = mutated
            perturbed = sort_by_start(EventLog.from_events(rows))
            other = assemble_features(perturbed, spec)
            by_id = {int(other.event_ids[i]): i for i in range(len(perturbed))}
            for i, e in enumerate(events):
                if e.start_time < target.start_time:
                    j = by_id[int(baseline.event_ids[i])]
                    assert baseline.values[i].tobytes() == other.values[j].tobytes()


def test_criterion_04_clamp_contract():
    with criterion(4, "prediction clamp at zero"):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, size=(600, 3))
        y = -(X[:, 0] * 20 + 10 + rng.normal(0, 1, 600))  # negated targets
        params = HyperParams(
            learning_rate=0.2, n_estimators=40, max_depth=4,
            min_samples_split=4, min_samples_leaf=2, max_features=3.0, seed=0,
        )
        model = fit_gbt(X[:500], y[:500], params)
        assert predict_raw(model, X[500:]).min() < 0  # the model does emit negatives
        assert predict(model, X[500:]).min() >= 0.0
        train_rows, test_rows = holdout_rows(600, 0.9, None, None, 0)
        holdout_model = fit_family("gbt", X[train_rows], y[train_rows], params)
        assert predict(holdout_model, X[test_rows]).min() >= 0.0


def test_criterion_05_dynamic_lags_beat_static_features(shared):
    with criterion(5, "A+D1 at least 10% below static-only RMSE"):
        rmse_a = shared.holdout_rmse("A")
        rmse_d1 = shared.holdout_rmse("A,D1")
        attributed = shared.attributed(shared.keys_for(["A", "A,D1"]))
        reduction = 1.0 - rmse_d1 / rmse_a
        print(
            f"  static RMSE {rmse_a:.2f} MB/s, +D1 {rmse_d1:.2f} MB/s, "
            f"reduction {reduction:.1%} (runtime {attributed:.0f}s)"
        )
        assert reduction >= 0.10
        assert attributed < 180.0


def test_criterion_06_full_feature_set_beats_static_features(shared):
    with criterion(6, "full groups at least 25% below static-only RMSE"):
        rmse_a = shared.holdout_rmse("A")
        rmse_full = shared.holdout_rmse("A,B,C2,D1,D3,E")
        attributed = shared.attributed(shared.keys_for(["A", "A,B,C2,D1,D3,E"]))
        reduction = 1.0 - rmse_full / rmse_a
        print(
            f"  static RMSE {rmse_a:.2f} MB/s, full {rmse_full:.2f} MB/s, "
            f"reduction {reduction:.1%} (runtime {attributed:.0f}s)"
        )
        assert reduction >= 0.25
        assert attributed < 300.0


def test_criterion_07_importance_sanity(shared):
    with criterion(7, "importance ranking sanity"):
        no_lag = feature_importance(shared.model("A,B,C2,E"))
        assert no_lag[0][0] == "A.file_size", f"top feature was {no_lag[0][0]}"
        full = feature_importance(shared.model("A,B,C2,D1,D3,E"))
        top3 = [name for name, _ in full[:3]]
        assert any(
            ".lag" in name and name.endswith(".rate") for name in top3
        ), f"no lag-rate feature in top 3: {top3}"


def test_criterion_08_model_correctness():
    with criterion(8, "model correctness and determinism"):
        # noiseless single-feature target fits essentially exactly
        rng = np.random.default_rng(0)
        levels = rng.uniform(0, 10, 50)
        X = np.column_stack([levels[rng.integers(0, 50, 400)], rng.normal(0, 1, 400)])
        y = X[:, 0].copy()
        params = HyperParams(
            learning_rate=0.5, n_estimators=100, max_depth=3,
            min_samples_split=2, min_samples_leaf=1, max_features=2.0, seed=3,
        )
        model = fit_gbt(X, y, params)
        train_rmse = float(np.sqrt(np.mean((predict(model, X) - y) ** 2)))
        assert train_rmse < 1e-3 * np.std(y)

        # training loss is non-increasing over 600 boosting rounds
        rng = np.random.default_rng(2)
        X2 = rng.uniform(0, 10, size=(500, 4))
        y2 = 3 * X2[:, 0] - X2[:, 1] ** 2 + rng.normal(0, 1, 500)
        params600 = HyperParams(
            learning_rate=0.1, n_estimators=600, max_depth=4,
            min_samples_split=10, min_samples_leaf=5, max_features=4.0,
            subsample=1.0, seed=0,
        )
        model600 = fit_gbt(X2, y2, params600)
        losses = np.array(model600.train_loss)
        assert len(losses) == 600
        assert np.all(np.diff(losses) <= 1e-9 * max(1.0, losses[0]))

        # seeded refits serialize byte-identically
        params_det = HyperParams(
            learning_rate=0.1, n_estimators=20, max_depth=5,
            min_samples_split=10, min_samples_leaf=5, max_features=2.0,
            subsample=0.8, seed=123,
        )
        dump_a = json.dumps(model_to_dict(fit_gbt(X2, y2, params_det)), sort_keys=True)
        dump_b = json.dumps(model_to_dict(fit_gbt(X2, y2, params_det)), sort_keys=True)
        assert dump_a.encode() == dump_b.encode()


def test_criterion_09_filename_grammar_and_chunk_offsets():
    with criterion(9, "filename grammar and chunk timing"):
        assert parse_filename("e991-r0002-s01-c00.xtc") == FileNameParts(991, 2, 1, 0)

        rng = np.random.default_rng(7)
        for _ in range(10_000):
            parts = FileNameParts(*(int(v) for v in rng.integers(0, 10**6, size=4)))
            assert parse_filename(format_filename(parts, ext="xtc")) == parts

        # chunk with two streams nearly three hours late: offset 9984 s
        base = 1498066922
        late = base + 9984
        events = sort_by_start(
            EventLog.from_events([
                mk_event(id=0, start=base, stop=base + 24, file_name="e991-r2-s0-c0.xtc"),
                mk_event(id=1, start=base, stop=base + 24, file_name="e991-r2-s1-c0.xtc"),
                mk_event(id=2, start=late, stop=late + 2, file_name="e991-r2-s4-c0.xtc"),
                mk_event(id=3, start=late, stop=late + 2, file_name="e991-r2-s5-c0.xtc"),
            ])
        )
        offsets, missing = compute_chunk_time_offset(events)
        assert offsets.tolist() == [0.0, 0.0, 9984.0, 9984.0]
        assert not missing.any()

        # chunk whose last stream lags by about two minutes: offset 401 s
        base = 1506109706
        events = sort_by_start(
            EventLog.from_events([
                mk_event(id=0, start=base, stop=base + 511, file_name="e7-r3-s0-c1.xtc"),
                mk_event(id=1, start=base, stop=base + 511, file_name="e7-r3-s1-c1.xtc"),
                mk_event(id=2, start=base + 401, stop=base + 755, file_name="e7-r3-s4-c1.xtc"),
            ])
        )
        offsets, _ = compute_chunk_time_offset(events)
        assert offsets.tolist() == [0.0, 0.0, 401.0]


def test_criterion_10_cleaning_class_counts():
    with criterion(10, "cleaning removes injected records with exact counts"):
        config = SynthConfig(
            n_events=10_000, seed=10, inject_oversize=12, inject_zero=76
        )
        events, _ = generate_workload(config)
        assert len(events) == 10_088
        kept, report = clean_events(events)
        assert report.n_input == 10_088
        assert report.n_oversize_removed == 12
        assert report.n_zero_removed == 76
        assert report.n_output == 10_000
        assert len(kept) == 10_000
        again, report2 = clean_events(kept)
        assert list(again) == list(kept)
        assert report2.n_oversize_removed == report2.n_zero_removed == 0
