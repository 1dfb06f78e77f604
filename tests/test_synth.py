import hashlib
import io

import numpy as np
import pytest

from ratecast.events import Stage, clean_events, sort_by_start, write_event_csv
from ratecast.features import FeatureSpec, assemble_features
from ratecast.filenames import parse_filename
from ratecast.models import HyperParams, predict
from ratecast.synth import SynthConfig, generate_workload
from ratecast.validation import fit_family, holdout_rows, rmse


def _csv_bytes(events) -> bytes:
    sink = io.StringIO()
    write_event_csv(events, sink)
    return sink.getvalue().encode("utf-8")


# SHA-256 of the event CSV text and of the source_fs, target_host and node
# hidden arrays' bytes, concatenated in that order. Recorded before the
# generator was rewritten to take its normal draws as one block, so a change
# to the draw order or to the arithmetic on a draw shows here.
_GOLDEN_CONFIGS = {
    "ar-0.95": ({}, "785722b408a6da52e8e338b02e3b6ffda7127cb844e3080a1eab12cd8413c0e4",
                "594d9e7f417015911ed210d2062eeb8b14b96bb098dd4cb1cc215a974921f954"),
    "injected": ({"inject_oversize": 7, "inject_zero": 41},
                 "6dda9d00b393218d84c517f36509db1ac9bf2b6b0aa96a41e694e7729b7c25d9",
                 "db00fea66b7a233bd905e78a58c1e2ebc4966757d13e62bda472c14199a76fe9"),
    "no-normal-draws": ({"state_sigma": 0.0, "noise_mbs": 0.0},
                        "0e95b61df9aa27f53e8cb861bf0afc9b90acbf6875c1fe94eeb854cf89a51e88",
                        "ae1540add9c234916f31b6123fad8b4a84c5beafd26eaf7e6185fde3ca2599d8"),
    "ar-0": ({"ar_rho": 0.0}, "e9d465ea391ba6f2d485134e6cdbcde31a71f55788bf4962b75318859dd6f0f3",
             "83af305ad2c8e6341101327cf8cd5497779eb80023dd78120d254baa0d0bd5cb"),
    "ffb-to-ana": ({"stage": Stage.FFB_TO_ANA, "n_instruments": 9},
                   "7931b2dfed63addedb4ecdd15be038d6ed05cfc3ae925b17ddd81d13006f7a2e",
                   "2169fb85a7b0a037708880dea6229e429429fcd761438e6c9387dd87f44d2f5f"),
}


@pytest.mark.parametrize("name", list(_GOLDEN_CONFIGS))
def test_seeded_log_bytes_are_unchanged(name):
    overrides, csv_sha, hidden_sha = _GOLDEN_CONFIGS[name]
    config = SynthConfig(**{"n_events": 5000, "ar_rho": 0.95, "seed": 20250808, **overrides})
    events, hidden = generate_workload(config)
    assert hashlib.sha256(_csv_bytes(events)).hexdigest() == csv_sha
    hidden_bytes = b"".join(hidden[key].tobytes() for key in ("source_fs", "target_host", "node"))
    assert hashlib.sha256(hidden_bytes).hexdigest() == hidden_sha


def test_zero_events_gives_empty_log():
    events, hidden = generate_workload(SynthConfig(n_events=0))
    assert len(events) == 0
    assert all(arr.size == 0 for arr in hidden.values())


def test_seed_replay_is_byte_identical():
    config = SynthConfig(n_events=1500, seed=99)
    events_a, hidden_a = generate_workload(config)
    events_b, hidden_b = generate_workload(config)
    assert _csv_bytes(events_a) == _csv_bytes(events_b)
    for key in hidden_a:
        np.testing.assert_array_equal(hidden_a[key], hidden_b[key])
    events_c, _ = generate_workload(SynthConfig(n_events=1500, seed=100))
    assert _csv_bytes(events_c) != _csv_bytes(events_a)


def test_generated_events_are_sorted_with_dense_ids():
    events, _ = generate_workload(SynthConfig(n_events=800, seed=1))
    assert len(events) == 800
    assert [e.id for e in events] == list(range(800))
    assert list(events) == list(sort_by_start(events))


def test_generated_log_passes_cleaning_untouched():
    events, _ = generate_workload(SynthConfig(n_events=2000, seed=2))
    kept, report = clean_events(events)
    assert report.n_oversize_removed == 0
    assert report.n_zero_removed == 0
    assert list(kept) == list(events)


def test_every_generated_filename_parses():
    events, _ = generate_workload(SynthConfig(n_events=1000, seed=3))
    for e in events:
        parts = parse_filename(e.file_name)
        assert e.file_name.startswith(f"e{parts.experiment_num}-")


def test_hidden_factors_are_positive_for_real_events():
    events, hidden = generate_workload(SynthConfig(n_events=500, seed=4))
    for key in ("source_fs", "target_host", "node"):
        assert hidden[key].shape == (500,)
        assert (hidden[key] > 0).all()


def test_injection_adds_exactly_the_corrupt_records():
    config = SynthConfig(n_events=1000, seed=5, inject_oversize=12, inject_zero=76)
    events, hidden = generate_workload(config)
    assert len(events) == 1088
    assert [e.id for e in events] == list(range(1088))
    kept, report = clean_events(events)
    assert report.n_oversize_removed == 12
    assert report.n_zero_removed == 76
    assert report.n_output == 1000
    # injected rows carry NaN hidden factors, real rows do not
    assert int(np.isnan(hidden["node"]).sum()) == 88


def test_config_validation():
    with pytest.raises(ValueError, match="ar_rho"):
        SynthConfig(ar_rho=1.0)
    with pytest.raises(ValueError, match="streams"):
        SynthConfig(streams_min=4, streams_max=3)
    with pytest.raises(ValueError, match="probabilities"):
        SynthConfig(delayed_stream_prob=1.5)
    for name in ("chunk_cap_gb", "noise_mbs", "rate_cap_mbs", "delay_boost"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            SynthConfig(**{name: float("nan")})
    for value in (10**400, -(10**400)):  # math.isfinite raised OverflowError
        with pytest.raises(ValueError, match="^noise_mbs must be finite, got [-]?1000"):
            SynthConfig(noise_mbs=value)
    assert SynthConfig(state_sigma=10.0).state_sigma == 10.0
    with pytest.raises(ValueError, match="^state_sigma must be at most 10, got 10.5$"):
        SynthConfig(state_sigma=10.5)


def test_without_dynamics_rate_is_a_pure_function_of_file_size():
    # no hidden-state variance, no noise, no delays: the static model nails it
    config = SynthConfig(
        n_events=4000, seed=6, ar_rho=0.0, state_sigma=0.0,
        noise_mbs=0.0, delayed_stream_prob=0.0,
    )
    events, _ = generate_workload(config)
    events = sort_by_start(events)
    y = np.array([e.transfer_rate_mbs for e in events])
    params = HyperParams(
        learning_rate=0.3, n_estimators=150, max_depth=8,
        min_samples_split=4, min_samples_leaf=2, max_features=0.999, seed=0,
    )
    train_rows, test_rows = holdout_rows(len(y), 0.9, None, None, 0)

    def holdout_rmse(groups):
        X = assemble_features(events, FeatureSpec.parse(groups)).values
        model = fit_family("gbt", X[train_rows], y[train_rows], params)
        return rmse(predict(model, X[test_rows]), y[test_rows])

    rmse_a = holdout_rmse("A")
    # near-zero against the rate scale; the residual is interpolation error in
    # the steep small-file region of the size curve
    assert rmse_a < 0.01 * np.mean(y)
    assert rmse_a < 0.10 * np.std(y)
    # lag features carry no extra signal by construction
    rmse_d1 = holdout_rmse("A,D1")
    assert rmse_d1 > 0.5 * rmse_a or rmse_d1 < 1e-9
