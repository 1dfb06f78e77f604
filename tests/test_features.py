import dataclasses
import io
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecast.events
import ratecast.lags
from helpers import mk_event, random_log, traced_peak
from oracles import assert_same_lags, brute_force_concurrency, brute_force_lags
from ratecast import SynthConfig, generate_workload
from ratecast.events import EventLog, sort_by_start
from ratecast.features import (
    ALL_GROUPS,
    FeatureSpec,
    assemble_features,
    compute_time_features,
    encode_categoricals,
    read_feature_csv,
    write_feature_csv,
)
from ratecast.lags import (
    LagKeyKind,
    compute_chunk_time_offset,
    compute_concurrency,
    compute_keyed_lags,
)

ALL_KINDS = list(LagKeyKind)
C_KINDS = [
    LagKeyKind.SAME_EXPERIMENT,
    LagKeyKind.SAME_INSTRUMENT,
    LagKeyKind.SAME_TARGET_FS,
    LagKeyKind.SAME_TARGET_HOST,
    LagKeyKind.SAME_NODE,
]


# ---------------------------------------------------------------- time features


def _time_features(start, tz_offset_hours=0.0):
    log = EventLog.from_events([mk_event(start=start)])
    dows, hours = compute_time_features(log, tz_offset_hours)
    return int(dows[0]), int(hours[0])


def test_time_features_at_epoch():
    # 1970-01-01 00:00 was a Thursday
    assert _time_features(0) == (3, 0)


def test_time_features_one_day_later():
    assert _time_features(86400) == (4, 0)


@pytest.mark.parametrize("offset_hours", [0.0, -7.0, 5.5, -12.0])
def test_time_features_match_calendar_oracle(offset_hours):
    rng = np.random.default_rng(11)
    starts = [int(s) for s in rng.integers(0, 2_000_000_000, size=200)]
    log = EventLog.from_events([mk_event(start=s) for s in starts])
    dows, hours = compute_time_features(log, offset_hours)
    tz = timezone(timedelta(hours=offset_hours))
    for start, dow, hour in zip(starts, dows, hours):
        moment = datetime.fromtimestamp(start, tz=tz)
        assert dow == moment.weekday()
        assert hour == moment.hour


def test_time_features_known_timestamp_with_offset():
    dow, hour = _time_features(1498066922, tz_offset_hours=-7.0)
    moment = datetime.fromtimestamp(1498066922, tz=timezone(timedelta(hours=-7)))
    assert (dow, hour) == (moment.weekday(), moment.hour)


# ---------------------------------------------------------------------- lags


def test_first_event_has_no_lag():
    events = sort_by_start(EventLog.from_events([mk_event(id=0, start=0)]))
    for kind in ALL_KINDS:
        result = compute_keyed_lags(events, kind, [1])
        assert result[1].tolist() == [-1]


def test_lag_of_completed_predecessor():
    a = mk_event(id=0, start=0, stop=10, rate=100.0, size=2.0)
    b = mk_event(id=1, start=20, stop=30)
    events = EventLog.from_events([a, b])
    result = compute_keyed_lags(events, LagKeyKind.SAME_INSTRUMENT, [1])
    assert result[1].tolist() == [-1, 0]
    want = brute_force_lags(events, LagKeyKind.SAME_INSTRUMENT, [1])
    assert want[1][1] == (True, 100.0, 2.0, 10.0)
    assert_same_lags(events, result, want)


def test_lag_requires_strict_completion_before_start():
    a = mk_event(id=0, start=0, stop=20)
    b = mk_event(id=1, start=20, stop=30)  # a stops exactly when b starts
    result = compute_keyed_lags(EventLog.from_events([a, b]), LagKeyKind.OVERALL, [1])
    assert result[1].tolist() == [-1, -1]


def test_lag_ties_on_stop_prefer_larger_id():
    a = mk_event(id=0, start=0, stop=10, rate=1.0)
    b = mk_event(id=1, start=0, stop=10, rate=2.0)
    c = mk_event(id=2, start=50, stop=60)
    result = compute_keyed_lags(EventLog.from_events([a, b, c]), LagKeyKind.OVERALL, [1, 2])
    assert result[1][2] == 1  # b, rate 2.0
    assert result[2][2] == 0  # a, rate 1.0


def test_lag_unparseable_filename_is_unkeyed_for_chunk():
    a = mk_event(id=0, start=0, stop=5, file_name="e1-r1-s0-c0.xtc")
    b = mk_event(id=1, start=10, stop=20, file_name="garbage.dat")
    c = mk_event(id=2, start=30, stop=40, file_name="e1-r1-s1-c0.xtc")
    result = compute_keyed_lags(EventLog.from_events([a, b, c]), LagKeyKind.SAME_CHUNK, [1])
    assert result[1][1] == -1  # unkeyed event gets no lag
    assert result[1][2] == 0  # skips the unkeyed middle event: 30 - 5 = 25 s


def test_lags_require_sorted_input():
    events = EventLog.from_events([mk_event(id=0, start=10), mk_event(id=1, start=0)])
    with pytest.raises(ValueError, match="sort_by_start"):
        compute_keyed_lags(events, LagKeyKind.OVERALL, [1])


def test_lags_reject_bad_orders():
    with pytest.raises(ValueError):
        compute_keyed_lags(EventLog.from_events([]), LagKeyKind.OVERALL, [0])
    with pytest.raises(ValueError):
        compute_keyed_lags(EventLog.from_events([]), LagKeyKind.OVERALL, [])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_lag_sweep_matches_brute_force(kind):
    rng = np.random.default_rng(123)
    events = sort_by_start(random_log(rng, 1000))
    orders = [1, 5]
    got = compute_keyed_lags(events, kind, orders)
    want = brute_force_lags(events, kind, orders)
    assert_same_lags(events, got, want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 60))
def test_lag_sweep_matches_brute_force_fuzzed(seed, n):
    rng = np.random.default_rng(seed)
    events = sort_by_start(random_log(rng, n, time_span=80, max_duration=30))
    for kind in ALL_KINDS:
        got = compute_keyed_lags(events, kind, [1, 2, 3])
        want = brute_force_lags(events, kind, [1, 2, 3])
        assert_same_lags(events, got, want)


# --------------------------------------------------------------- concurrency


def test_concurrency_single_event_is_zero():
    events = EventLog.from_events([mk_event(id=0)])
    total, unique = compute_concurrency(events, LagKeyKind.SAME_TARGET_HOST)
    assert total.tolist() == [0]
    assert unique.tolist() == [0]


def test_concurrency_counts_only_already_started_overlaps():
    a = mk_event(id=0, start=0, stop=100)
    b = mk_event(id=1, start=50, stop=60)
    total, _ = compute_concurrency(EventLog.from_events([a, b]), LagKeyKind.SAME_TARGET_HOST)
    assert total.tolist() == [0, 1]  # B starts after A, so A sees nothing


def test_concurrency_same_start_events_see_each_other():
    a = mk_event(id=0, start=10, stop=20, experiment="e1")
    b = mk_event(id=1, start=10, stop=30, experiment="e2")
    total, unique = compute_concurrency(EventLog.from_events([a, b]), LagKeyKind.SAME_TARGET_HOST)
    assert total.tolist() == [1, 1]
    assert unique.tolist() == [1, 1]


def test_concurrency_zero_duration_event_is_never_active():
    a = mk_event(id=0, start=10, stop=10)
    b = mk_event(id=1, start=10, stop=30)
    total, _ = compute_concurrency(EventLog.from_events([a, b]), LagKeyKind.SAME_TARGET_HOST)
    assert total.tolist() == [1, 0]  # a sees b; b does not see a


def test_concurrency_unique_experiments_excludes_self_only_experiment():
    a = mk_event(id=0, start=0, stop=100, experiment="e1")
    b = mk_event(id=1, start=10, stop=100, experiment="e1")
    c = mk_event(id=2, start=20, stop=100, experiment="e2")
    events = EventLog.from_events([a, b, c])
    total, unique = compute_concurrency(events, LagKeyKind.SAME_TARGET_HOST)
    # c sees both e1 events -> 1 distinct; b sees a (same experiment) -> 1
    assert total.tolist() == [0, 1, 2]
    assert unique.tolist() == [0, 1, 1]


@pytest.mark.parametrize("kind", C_KINDS, ids=lambda k: k.value)
def test_concurrency_matches_brute_force(kind):
    rng = np.random.default_rng(321)
    events = sort_by_start(random_log(rng, 1000, time_span=2000, max_duration=120))
    total, unique = compute_concurrency(events, kind)
    want_total, want_unique = brute_force_concurrency(events, kind)
    np.testing.assert_array_equal(total, want_total)
    np.testing.assert_array_equal(unique, want_unique)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 60))
def test_concurrency_matches_brute_force_fuzzed(seed, n):
    rng = np.random.default_rng(seed)
    events = sort_by_start(random_log(rng, n, time_span=50, max_duration=40))
    for kind in C_KINDS + [LagKeyKind.SAME_CHUNK]:
        total, unique = compute_concurrency(events, kind)
        want_total, want_unique = brute_force_concurrency(events, kind)
        np.testing.assert_array_equal(total, want_total)
        np.testing.assert_array_equal(unique, want_unique)


# --------------------------------------------------------------- chunk offset


def test_chunk_offset_first_stream_is_zero():
    events = sort_by_start(
        EventLog.from_events([mk_event(id=0, start=100, file_name="e1-r1-s0-c0.xtc")])
    )
    offsets, missing = compute_chunk_time_offset(events)
    assert offsets[0] == 0.0
    assert not missing[0]


def test_chunk_offset_hours_late_streams():
    # two streams at 16:02:02 and two more at 18:48:26 on the same chunk
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


def test_chunk_offset_minutes_late_stream():
    # first streams at 19:48:26, the last one at 19:55:07
    base = 1506109706
    events = sort_by_start(
        EventLog.from_events([
            mk_event(id=0, start=base, stop=base + 511, file_name="e7-r3-s0-c1.xtc"),
            mk_event(id=1, start=base, stop=base + 511, file_name="e7-r3-s1-c1.xtc"),
            mk_event(id=2, start=base + 136, stop=base + 512, file_name="e7-r3-s2-c1.xtc"),
            mk_event(id=3, start=base + 305, stop=base + 679, file_name="e7-r3-s3-c1.xtc"),
            mk_event(id=4, start=base + 401, stop=base + 755, file_name="e7-r3-s4-c1.xtc"),
        ])
    )
    offsets, _ = compute_chunk_time_offset(events)
    assert offsets.tolist() == [0.0, 0.0, 136.0, 305.0, 401.0]


def test_chunk_offset_unparseable_is_missing():
    events = EventLog.from_events([mk_event(id=0, start=0, file_name="nope.dat")])
    offsets, missing = compute_chunk_time_offset(events)
    assert missing[0]
    assert np.isnan(offsets[0])


def test_chunk_offset_groups_by_run_and_chunk():
    events = sort_by_start(
        EventLog.from_events([
            mk_event(id=0, start=0, file_name="e1-r1-s0-c0.xtc"),
            mk_event(id=1, start=50, file_name="e1-r2-s0-c0.xtc"),  # other run
            mk_event(id=2, start=70, file_name="e1-r1-s0-c1.xtc"),  # other chunk
            mk_event(id=3, start=90, file_name="e1-r1-s1-c0.xtc"),  # same chunk as id 0
        ])
    )
    offsets, _ = compute_chunk_time_offset(events)
    assert offsets.tolist() == [0.0, 0.0, 0.0, 90.0]


# ------------------------------------------------------------------ encoding


def test_one_hot_block_has_single_one_per_row():
    events = EventLog.from_events(
        [mk_event(id=i, start=i, instrument=ins) for i, ins in enumerate("abcabc")]
    )
    values, metas = encode_categoricals(events)
    instrument_cols = [
        j for j, m in enumerate(metas) if m.origin.startswith("one_hot:instrument")
    ]
    assert len(instrument_cols) == 3
    np.testing.assert_array_equal(values[:, instrument_cols].sum(axis=1), np.ones(6))


def test_experiment_codes_assigned_by_first_appearance():
    events = EventLog.from_events([
        mk_event(id=0, experiment="e1"),
        mk_event(id=1, experiment="e2"),
        mk_event(id=2, experiment="e1"),
    ])
    values, metas = encode_categoricals(events)
    assert metas[0].name == "A.experiment_code"
    assert values[:, 0].tolist() == [0.0, 1.0, 0.0]


# ------------------------------------------------------------------ assembly


def test_feature_spec_requires_group_a():
    with pytest.raises(ValueError, match="group A"):
        FeatureSpec.parse("B,D1")
    with pytest.raises(ValueError, match="unknown"):
        FeatureSpec.parse("A,Z9")


def test_static_only_matrix_has_no_indicator_columns():
    rng = np.random.default_rng(5)
    events = sort_by_start(random_log(rng, 50))
    matrix = assemble_features(events, FeatureSpec.parse("A"))
    assert all(c.group == "A" for c in matrix.columns)
    assert not any(c.origin == "indicator" for c in matrix.columns)
    assert matrix.column_names[0] == "A.file_size"
    assert "A.experiment_code" in matrix.column_names
    assert not any(c.name.startswith("A.node.") for c in matrix.columns)
    assert not (matrix.values == -1.0).any()


def test_d1_column_set_matches_definition():
    rng = np.random.default_rng(6)
    events = sort_by_start(random_log(rng, 50))
    matrix = assemble_features(events, FeatureSpec.parse("A,D1"))
    d1 = [c.name for c in matrix.columns if c.group == "D1"]
    assert d1 == [
        "D1.same_instrument.lag1.rate",
        "D1.same_instrument.lag1.time_diff",
        "D1.same_instrument.lag1.missing",
        "D1.same_experiment.lag1.rate",
        "D1.same_experiment.lag1.time_diff",
        "D1.same_experiment.lag1.missing",
        "D1.same_source_fs.lag1.rate",
        "D1.same_source_fs.lag1.time_diff",
        "D1.same_source_fs.lag1.missing",
        "D1.same_target_fs.lag1.rate",
        "D1.same_target_fs.lag1.time_diff",
        "D1.same_target_fs.lag1.missing",
        "D1.overall.lag1.rate",
        "D1.overall.lag1.file_size",
        "D1.overall.lag1.missing",
        "D1.overall.lag5.rate",
        "D1.overall.lag5.missing",
    ]


def test_missing_lag_cells_carry_sentinel_and_indicator():
    rows = [mk_event(id=0, start=0), mk_event(id=1, start=100)]
    events = sort_by_start(EventLog.from_events(rows))
    matrix = assemble_features(events, FeatureSpec.parse("A,D1"))
    rate, indicator = (
        matrix.values[:, matrix.column_names.index(name)]
        for name in ("D1.overall.lag1.rate", "D1.overall.lag1.missing")
    )
    assert rate[0] == -1.0 and indicator[0] == 1.0
    assert rate[1] == 100.0 and indicator[1] == 0.0


def test_assembly_requires_sorted_events():
    events = EventLog.from_events([mk_event(id=0, start=10), mk_event(id=1, start=0)])
    with pytest.raises(ValueError, match="sort_by_start"):
        assemble_features(events, FeatureSpec.parse("A"))


def test_assembly_is_deterministic():
    rng = np.random.default_rng(9)
    events = sort_by_start(random_log(rng, 200))
    spec = FeatureSpec.parse("A,B,C1,C2,D1,D2,D3,E")
    m1 = assemble_features(events, spec)
    m2 = assemble_features(events, spec)
    assert m1.column_names == m2.column_names
    assert np.array_equal(m1.values, m2.values)
    assert m1.values.tobytes() == m2.values.tobytes()


def _perturb_future_event(rng, events, idx):
    """Replace one event with different values but the same start time."""
    e = events[idx]
    return dataclasses.replace(
        e,
        stop_time=e.stop_time + int(rng.integers(1, 100)),
        file_size_gb=e.file_size_gb * 2.0 + 1.0,
        transfer_rate_mbs=e.transfer_rate_mbs * 0.5 + 1.0,
        instrument="mec" if e.instrument != "mec" else "cxi",
        experiment="exp0" if e.experiment != "exp0" else "exp1",
        target_host="psana100" if e.target_host != "psana100" else "psana101",
        node="node0" if e.node != "node0" else "node1",
        file_name="e3-r3-s5-c2.xtc" if e.file_name != "e3-r3-s5-c2.xtc" else "e2-r1-s0-c1.xtc",
    )


def test_rows_are_leak_free_under_future_perturbations():
    rng = np.random.default_rng(77)
    spec = FeatureSpec.parse("A,B,C1,C2,D1,D2,D3,E")
    events = sort_by_start(random_log(rng, 300))
    baseline = assemble_features(events, spec)
    for _ in range(8):
        idx = int(rng.integers(50, len(events)))
        perturbed = list(events)
        perturbed[idx] = _perturb_future_event(rng, events, idx)
        perturbed = sort_by_start(EventLog.from_events(perturbed))
        other = assemble_features(perturbed, spec)
        cutoff = events[idx].start_time
        rows = [i for i, e in enumerate(events) if e.start_time < cutoff]
        # categorical vocabularies are unchanged by construction, so columns align
        assert baseline.column_names == other.column_names
        by_id = {int(other.event_ids[i]): i for i in range(len(perturbed))}
        for i in rows:
            j = by_id[int(baseline.event_ids[i])]
            assert baseline.values[i].tobytes() == other.values[j].tobytes()


def test_chunk_file_names_parse_once_per_assembly():
    events = sort_by_start(random_log(np.random.default_rng(8), 120))
    parse = ratecast.lags.parse_filename
    calls = []

    def counting(name):
        calls.append(name)
        return parse(name)

    with mock.patch.object(ratecast.lags, "parse_filename", counting):
        matrix = assemble_features(events, FeatureSpec.parse(",".join(ALL_GROUPS)))
    assert len(calls) == len(events)
    # A fresh log of the same rows has no chunk codes yet, so each of these parses once more.
    with mock.patch.object(ratecast.lags, "parse_filename", counting):
        alone = [
            assemble_features(EventLog.from_events(events), FeatureSpec.parse(groups)).values
            for groups in ("A,D3", "A,E")
        ]
    assert len(calls) == 3 * len(events)
    # The log keeps its chunk codes: assembling it again parses nothing.
    with mock.patch.object(ratecast.lags, "parse_filename", counting):
        again = assemble_features(events, FeatureSpec.parse(",".join(ALL_GROUPS)))
    assert len(calls) == 3 * len(events)
    assert again.values.tobytes() == matrix.values.tobytes()
    d3_and_e = [
        matrix.values[:, [j for j, c in enumerate(matrix.columns) if c.group in groups]]
        for groups in (("A", "D3"), ("A", "E"))
    ]
    for got, want in zip(d3_and_e, alone):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group", [g for g in ALL_GROUPS if g != "A"])
def test_shared_table_columns_equal_single_group_assembly(group):
    events = sort_by_start(random_log(np.random.default_rng(21), 400))
    full = assemble_features(events, FeatureSpec.parse(",".join(ALL_GROUPS)))
    alone = assemble_features(events, FeatureSpec.parse(f"A,{group}"))
    assert [c for c in full.columns if c.group in ("A", group)] == alone.columns
    picked = [j for j, c in enumerate(full.columns) if c.group in ("A", group)]
    assert full.values[:, picked].tobytes() == alone.values.tobytes()
    assert full.event_ids.tobytes() == alone.event_ids.tobytes()


def test_assembly_factorises_each_key_kind_at_most_once():
    events = sort_by_start(random_log(np.random.default_rng(22), 300))
    factorise = ratecast.events._factorise
    spec = FeatureSpec.parse(",".join(ALL_GROUPS))
    calls = []

    def counting(values):
        calls.append(1)
        return factorise(values)

    with mock.patch.object(ratecast.events, "_factorise", counting), mock.patch.object(
        ratecast.lags, "_factorise", counting
    ):
        # A fresh log of the rows codes the six categorical fields and the stage;
        # the chunk key is factorised once. No per-event dict is built for
        # the concurrency (key, experiment) pairs.
        assemble_features(EventLog.from_events(events), spec)
        assert len(calls) == (len(LagKeyKind) - 2) + 1 + 1
        # A log already holds its categorical codes and keeps its chunk codes.
        assemble_features(events, spec)
        assemble_features(events, spec)
        assert len(calls) == (len(LagKeyKind) - 2) + 1 + 1 + 1


def test_assembly_peak_memory_stays_near_the_matrix_size():
    # Columns are written into one preallocated matrix, so assembly never
    # holds the matrix twice.
    events, _ = generate_workload(SynthConfig(n_events=5000, seed=20250808))
    events = sort_by_start(events)
    spec = FeatureSpec.parse(",".join(ALL_GROUPS))
    peak, matrix = traced_peak(assemble_features, events, spec)
    assert matrix.values.shape == (len(events), 115)
    assert peak <= 1.75 * matrix.values.nbytes


# -------------------------------------------------------------------- export


def test_feature_csv_round_trip():
    rng = np.random.default_rng(13)
    events = sort_by_start(random_log(rng, 40))
    matrix = assemble_features(events, FeatureSpec.parse("A,D1,E"))
    targets = np.array([e.transfer_rate_mbs for e in events])
    sink = io.StringIO()
    write_feature_csv(matrix, targets, sink)
    X, names, ids, y = read_feature_csv(io.StringIO(sink.getvalue()))
    assert names == matrix.column_names
    np.testing.assert_array_equal(X, matrix.values)
    np.testing.assert_array_equal(ids, matrix.event_ids)
    np.testing.assert_array_equal(y, targets)
