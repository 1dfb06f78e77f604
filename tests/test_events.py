import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mk_event
from ratecast.events import (
    CSV_COLUMNS,
    CleaningReport,
    CsvRowError,
    CsvSchemaError,
    Stage,
    clean_events,
    parse_event_csv,
    sort_by_start,
    write_event_csv,
)

HEADER = ",".join(CSV_COLUMNS)


def _parse(text: str):
    return parse_event_csv(io.BytesIO(text.encode("utf-8")))


def test_parse_header_only_gives_empty_sequence():
    assert _parse(HEADER + "\n") == []


def test_parse_real_row_values():
    row = (
        "1498066922,1498066946,0.3168954,13.73635,mfx,mfx12345,"
        "psana201,ffb21,dss-feh,mfxdss02,e991-r2-s1-c0.xtc,DSS_TO_FFB"
    )
    events = _parse(f"{HEADER}\n{row}\n")
    assert len(events) == 1
    e = events[0]
    assert e.id == 0
    assert e.start_time == 1498066922
    assert e.stop_time == 1498066946
    assert e.file_size_gb == pytest.approx(0.3168954)
    assert e.transfer_rate_mbs == pytest.approx(13.73635)
    assert e.target_host == "psana201"
    assert e.node == "mfxdss02"
    assert e.stage is Stage.DSS_TO_FFB


def test_parse_bad_numeric_reports_row_index():
    rows = [
        "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
        "10,20,1.0,abc,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
    ]
    with pytest.raises(CsvRowError) as err:
        _parse(HEADER + "\n" + "\n".join(rows) + "\n")
    assert err.value.row_index == 1


@pytest.mark.parametrize(
    "size, rate",
    [("nan", "50.0"), ("1.0", "inf"), ("-inf", "50.0"), ("1.0", "NaN"), ("nan", "inf")],
)
def test_parse_rejects_non_finite_numbers(size, rate):
    rows = [
        "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
        f"10,20,{size},{rate},cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
    ]
    with pytest.raises(CsvRowError, match="non-finite") as err:
        _parse(HEADER + "\n" + "\n".join(rows) + "\n")
    assert err.value.row_index == 1


def test_parse_missing_column_is_schema_error():
    bad_header = ",".join(c for c in CSV_COLUMNS if c != "node")
    with pytest.raises(CsvSchemaError, match="node"):
        _parse(bad_header + "\n")


def test_parse_unknown_column_is_schema_error():
    with pytest.raises(CsvSchemaError, match="bogus"):
        _parse(HEADER + ",bogus\n")


def test_parse_rejects_unknown_stage_and_bad_times():
    with pytest.raises(CsvRowError, match="stage"):
        _parse(HEADER + "\n10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,SIDEWAYS\n")
    with pytest.raises(CsvRowError, match="precedes"):
        _parse(HEADER + "\n20,10,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB\n")


def test_parse_rejects_short_row():
    with pytest.raises(CsvRowError, match="expected 12 fields"):
        _parse(HEADER + "\n10,20,1.0\n")


def test_parse_shares_one_str_per_category_value():
    rows = [
        "10,20,1.0,50.0,cxi,cxi00001,psana201,ffb21,dss-feh,cxidss01,e1-r1-s0-c0.xtc,DSS_TO_FFB",
        "11,21,2.0,60.0,cxi,cxi00001,psana201,ffb21,dss-feh,cxidss01,e1-r1-s1-c0.xtc,DSS_TO_FFB",
        "12,22,3.0,70.0,xpp,xpp00002,psana201,ffb21,dss-neh,xppdss01,e2-r1-s0-c0.xtc,DSS_TO_FFB",
    ]
    a, b, c = _parse(HEADER + "\n" + "\n".join(rows) + "\n")
    for name in ("instrument", "experiment", "target_host", "target_fs", "source_fs", "node"):
        assert getattr(a, name) is getattr(b, name)
    assert a.target_host is c.target_host and a.target_fs is c.target_fs
    assert (c.instrument, c.experiment, c.source_fs, c.node) == (
        "xpp", "xpp00002", "dss-neh", "xppdss01"
    )


def test_events_have_slots_and_still_check_time_order():
    event = mk_event(start=10)
    assert not hasattr(event, "__dict__")
    with pytest.raises(ValueError, match="stop_time 5 precedes start_time 10"):
        dataclasses.replace(event, stop_time=5)
    assert dataclasses.replace(event, stop_time=10).stop_time == 10


def test_clean_removes_both_rule_classes():
    events = [
        mk_event(id=0, start=0, size=0.5),
        mk_event(id=1, start=1, size=1200.0),
        mk_event(id=2, start=2, size=0.0),
    ]
    kept, report = clean_events(events)
    assert [e.id for e in kept] == [0]
    assert report == CleaningReport(3, 1, 1, 1)


def test_clean_identity_on_valid_events():
    events = [mk_event(id=i, start=i) for i in range(5)]
    kept, report = clean_events(events)
    assert kept == events
    assert report == CleaningReport(5, 0, 0, 5)


def test_clean_oversize_wins_when_both_rules_match():
    events = [mk_event(id=0, size=2000.0, rate=0.0)]
    _, report = clean_events(events)
    assert report.n_oversize_removed == 1
    assert report.n_zero_removed == 0


def test_clean_removes_exactly_injected_records():
    rng = np.random.default_rng(42)
    events = []
    for i in range(10_000):
        events.append(
            mk_event(
                id=i,
                start=int(rng.integers(0, 100000)),
                size=float(rng.uniform(0.01, 1000.0)),
                rate=float(rng.uniform(0.1, 400.0)),
            )
        )
    positions = rng.choice(len(events), size=88, replace=False)
    for k, pos in enumerate(positions):
        base = events[pos]
        if k < 12:
            bad = mk_event(id=base.id, start=base.start_time, size=1500.0, rate=10.0)
        elif k % 2:
            bad = mk_event(id=base.id, start=base.start_time, size=0.0, rate=10.0)
        else:
            bad = mk_event(id=base.id, start=base.start_time, size=1.0, rate=0.0)
        events[pos] = bad
    # independent oracle: plain filter over the same records
    expect_kept = [
        e
        for e in events
        if e.file_size_gb <= 1000.0 and e.file_size_gb > 0 and e.transfer_rate_mbs > 0
    ]
    kept, report = clean_events(events)
    assert kept == expect_kept
    assert report.n_oversize_removed == 12
    assert report.n_zero_removed == 76
    assert report.n_output == 10_000 - 88


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        ),
        max_size=50,
    )
)
def test_clean_is_idempotent(size_rate_pairs):
    events = [
        mk_event(id=i, start=i, size=s, rate=r)
        for i, (s, r) in enumerate(size_rate_pairs)
    ]
    once, report1 = clean_events(events)
    twice, report2 = clean_events(once)
    assert twice == once
    assert report2 == CleaningReport(len(once), 0, 0, len(once))
    assert report1.n_output == len(once)


def test_sort_already_sorted_is_identity():
    events = [mk_event(id=i, start=i * 10) for i in range(6)]
    assert sort_by_start(events) == events


def test_sort_breaks_start_ties_by_stop():
    a = mk_event(id=0, start=5, stop=15)
    b = mk_event(id=1, start=5, stop=10)
    assert sort_by_start([a, b]) == [b, a]


def test_sort_reversed_input_is_exactly_reversed():
    events = [mk_event(id=i, start=100 - i) for i in range(10)]
    assert sort_by_start(events) == events[::-1]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=40))
def test_sort_is_a_permutation(times):
    events = [mk_event(id=i, start=s, stop=s + d) for i, (s, d) in enumerate(times)]
    out = sort_by_start(events)
    assert sorted(e.id for e in out) == list(range(len(events)))
    for prev, cur in zip(out, out[1:]):
        assert (prev.start_time, prev.stop_time, prev.id) <= (
            cur.start_time,
            cur.stop_time,
            cur.id,
        )


@settings(max_examples=200)
@given(
    size=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, max_value=1e12),
    rate=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, max_value=1e12),
    start=st.integers(0, 2**40),
    duration=st.integers(0, 10**6),
)
def test_csv_round_trip_is_bit_exact(size, rate, start, duration):
    event = mk_event(id=0, start=start, stop=start + duration, size=size, rate=rate)
    sink = io.StringIO()
    write_event_csv([event], sink)
    parsed = parse_event_csv(io.BytesIO(sink.getvalue().encode("utf-8")))
    assert parsed == [event]
