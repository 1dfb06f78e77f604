import csv
import dataclasses
import gc
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mk_event, random_events, random_log, traced_held, traced_peak
from oracles import reference_clean_events, reference_parse_event_csv, reference_sort_by_start
from ratecast import SynthConfig, generate_workload
from ratecast.events import (
    CSV_COLUMNS,
    TIME_LIMIT_S,
    CleaningReport,
    CsvRowError,
    CsvSchemaError,
    EventLog,
    Stage,
    TransferEvent,
    clean_events,
    csv_line,
    load_events,
    parse_event_csv,
    sort_by_start,
    write_event_csv,
)
from ratecast.features import ColumnMeta, FeatureMatrix, read_feature_csv, write_feature_csv

HEADER = ",".join(CSV_COLUMNS)


def _parse(text: str):
    return parse_event_csv(io.StringIO(text, newline=""))


def test_parse_header_only_gives_empty_sequence():
    assert list(_parse(HEADER + "\n")) == []


def test_load_events_leaves_no_file_open(tmp_path):
    # Each clean and features run warned: unclosed file <_io.TextIOWrapper name='e.csv'>.
    path = tmp_path / "e.csv"
    path.write_text(HEADER + "\n10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(load_events(str(path))) == 1
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_parse_skips_blank_lines_but_counts_them_in_ids():
    row = "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB"
    # Two parse blocks' worth of blank lines, then a second row.
    events = _parse(HEADER + "\n" + row + "\n" + "\n" * 9000 + row + "\n")
    assert [e.id for e in events] == [0, 9001]


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


def test_parse_names_the_row_whose_quote_never_closes():
    # The quoted field swallowed the rest of the file, and csv's field-size
    # error escaped as a traceback instead of a CsvRowError.
    good = "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB"
    rest = "\n".join([good] * 20000) + "\n"
    with pytest.raises(CsvRowError, match=r"^row 2: field larger than field limit") as err:
        _parse(HEADER + "\n" + good + "\n\n" + good.replace("cxi", '"cxi') + "\n" + rest)
    assert err.value.row_index == 2
    with pytest.raises(CsvSchemaError, match="^header: field larger than field limit"):
        _parse('"' + HEADER + "\n" + rest)


@pytest.mark.parametrize("ahead, between", [(0, 0), (0, 5000), (4100, 0)])
def test_a_bad_row_ahead_of_a_quote_that_never_closes_is_named_first(ahead, between):
    # The csv error aborted the block's read before its rows were checked, so
    # with nothing between them the later row 1 was named instead of row 0.
    good = "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB\n"
    text = (HEADER + "\n" + good * ahead + "10,20,1.0\n" + good * between
            + good.replace("cxi", '"cxi') + good * 20000)
    with pytest.raises(CsvRowError, match=f"^row {ahead}: expected 12 fields, got 3$"):
        _parse(text)


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
    kept, report = clean_events(EventLog.from_events(events))
    assert [e.id for e in kept] == [0]
    assert report == CleaningReport(3, 1, 1, 1)


def test_clean_identity_on_valid_events():
    events = [mk_event(id=i, start=i) for i in range(5)]
    kept, report = clean_events(EventLog.from_events(events))
    assert list(kept) == events
    assert report == CleaningReport(5, 0, 0, 5)


def test_clean_oversize_wins_when_both_rules_match():
    events = [mk_event(id=0, size=2000.0, rate=0.0)]
    _, report = clean_events(EventLog.from_events(events))
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
    kept, report = clean_events(EventLog.from_events(events))
    assert list(kept) == expect_kept
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
    once, report1 = clean_events(EventLog.from_events(events))
    twice, report2 = clean_events(once)
    assert list(twice) == list(once)
    assert report2 == CleaningReport(len(once), 0, 0, len(once))
    assert report1.n_output == len(once)


def test_sort_already_sorted_is_identity():
    events = [mk_event(id=i, start=i * 10) for i in range(6)]
    assert list(sort_by_start(EventLog.from_events(events))) == events


def test_sort_breaks_start_ties_by_stop():
    a = mk_event(id=0, start=5, stop=15)
    b = mk_event(id=1, start=5, stop=10)
    assert list(sort_by_start(EventLog.from_events([a, b]))) == [b, a]


def test_sort_reversed_input_is_exactly_reversed():
    events = [mk_event(id=i, start=100 - i) for i in range(10)]
    assert list(sort_by_start(EventLog.from_events(events))) == events[::-1]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=40))
def test_sort_is_a_permutation(times):
    events = [mk_event(id=i, start=s, stop=s + d) for i, (s, d) in enumerate(times)]
    out = sort_by_start(EventLog.from_events(events))
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
    write_event_csv(EventLog.from_events([event]), sink)
    parsed = parse_event_csv(io.StringIO(sink.getvalue(), newline=""))
    assert list(parsed) == [event]


# ------------------------------------------------------- the CSV field rule


_FIELD_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "é", "日", "a", " "]),
                       max_size=5).map("".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT), min_size=1, max_size=12))
def test_written_fields_round_trip_through_both_readers(texts):
    events = [
        mk_event(id=i, start=i, instrument=a, experiment=b, target_host=a + b, target_fs=b + a,
                 source_fs=a, node=b, file_name=f"{a}|{b}")
        for i, (a, b) in enumerate(texts)
    ]
    log = EventLog.from_events(events)
    sink = io.StringIO()
    write_event_csv(log, sink)
    parsed = parse_event_csv(io.StringIO(sink.getvalue(), newline=""))
    assert parsed.categories == log.categories
    for field, codes in log.codes.items():
        assert parsed.codes[field].tolist() == codes.tolist(), field
    assert parsed.file_names.tolist() == log.file_names.tolist()
    for name in ("ids", "starts", "stops", "sizes", "rates"):
        assert getattr(parsed, name).tolist() == getattr(log, name).tolist(), name

    names = [f"A.{a}" for a, _ in texts]
    matrix = FeatureMatrix(np.zeros((2, len(names))), [ColumnMeta(n, "A", "test") for n in names],
                           np.arange(2))
    sink = io.StringIO()
    write_feature_csv(matrix, np.zeros(2), sink)
    assert read_feature_csv(io.StringIO(sink.getvalue(), newline=""))[1] == names

    # Where a field holds no CR, the line is what the csv module's writer makes.
    cells = [a + b for a, b in texts if "\r" not in a + b]
    standard = io.StringIO()
    csv.writer(standard, lineterminator="\n").writerow(["x", *cells])
    assert csv_line(["x", *cells]) == standard.getvalue()


# ------------------------------------------------------------------ the log


def _assert_codes_follow_first_appearance(log: EventLog) -> None:
    """Each coded field holds first-appearance codes of exactly the values in the log."""
    rows = list(log)
    for field in ("instrument", "experiment", "target_host", "target_fs", "source_fs", "node",
                  "stage"):
        values = [getattr(e, field) for e in rows]
        categories = list(dict.fromkeys(values))
        assert log.categories[field] == categories, field
        assert log.codes[field].tolist() == [categories.index(v) for v in values], field


def test_log_rows_round_trip_through_from_events():
    events = random_events(np.random.default_rng(3), 60)
    log = EventLog.from_events(events)
    assert len(log) == 60
    assert list(log) == events
    assert [log[i] for i in range(60)] == events
    assert log[-1] == events[-1] and log[np.int64(7)] == events[7]
    with pytest.raises(IndexError):
        log[60]
    assert log.starts.dtype == np.int64 and log.sizes.dtype == np.float64
    _assert_codes_follow_first_appearance(log)


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("instrument", None, "instrument must be a str, got None"),
        ("node", 7, "node must be a str, got 7"),
        ("file_name", None, "file_name must be a str, got None"),
        ("stage", "DSS_TO_FFB", "stage must be a Stage, got 'DSS_TO_FFB'"),
    ],
    ids=["instrument", "node", "file_name", "stage"],
)
def test_from_events_refuses_a_row_whose_text_field_or_stage_has_another_type(field, value,
                                                                              detail):
    # A None instrument was coded -1 and read back as the last category; the
    # others entered the log and failed later, in write_event_csv.
    events = [mk_event(instrument="cxi"), mk_event(id=1, start=1, **{field: value})]
    with pytest.raises(TypeError, match=f"^row 1: {detail}$"):
        EventLog.from_events(events)


@pytest.mark.parametrize(
    "field, error, detail",
    [
        (dict(size=None), TypeError, "file_size_gb must be a real number, got None"),
        (dict(rate=float("nan")), ValueError, "non-finite transfer_rate_mbs nan"),
        (dict(size="2"), TypeError, "file_size_gb must be a real number, got '2'"),
        (dict(start=1.5), TypeError, "start_time must be an int, got 1.5"),
        (dict(id=True), TypeError, "id must be an int, got True"),
    ],
    ids=["none-size", "nan-rate", "str-size", "float-start", "bool-id"],
)
def test_from_events_refuses_a_row_whose_number_has_another_type_or_is_not_finite(field, error,
                                                                                  detail):
    # A None size or NaN rate entered the log as nan, and its own CSV then failed to
    # parse; "2" became 2.0 and a start of 1.5 became 1.
    events = [mk_event(), mk_event(**{"id": 1, "start": 1, **field})]
    with pytest.raises(error, match=f"^row 1: {re.escape(detail)}$"):
        EventLog.from_events(events)


def test_from_events_takes_numpy_numbers():
    event = mk_event(id=np.int64(3), start=np.int32(5), size=np.float32(1.5), rate=np.float64(2))
    assert list(EventLog.from_events([event])) == [mk_event(id=3, start=5, size=1.5, rate=2.0)]


def test_log_slices_and_takes_are_logs_with_their_own_codes():
    events = random_events(np.random.default_rng(4), 80)
    log = EventLog.from_events(events)
    for rows, want in (
        (slice(10, 30), events[10:30]),
        (slice(None, None, -3), events[::-3]),
        (slice(5, 5), []),
    ):
        part = log[rows]
        assert isinstance(part, EventLog)
        assert list(part) == want
        _assert_codes_follow_first_appearance(part)
    mask = np.arange(80) % 3 == 0
    assert list(log.take(mask)) == [e for e, keep in zip(events, mask) if keep]
    _assert_codes_follow_first_appearance(log.take(mask))
    assert list(log.take(np.array([5, 2, 5]))) == [events[5], events[2], events[5]]


def test_log_columns_are_read_only():
    log = EventLog.from_events(random_events(np.random.default_rng(5), 5))
    for column in (log.ids, log.starts, log.stops, log.sizes, log.rates, log.file_names,
                   log.codes["node"], log[1:].starts):
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_rows_from_a_log_skip_the_constructor_check_but_equal_checked_rows():
    log = EventLog.from_events([mk_event(id=3, start=5, stop=9)])
    row = log[0]
    assert type(row) is TransferEvent and not hasattr(row, "__dict__")
    assert row == mk_event(id=3, start=5, stop=9)
    assert hash(row) == hash(mk_event(id=3, start=5, stop=9))
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.start_time = 1


def test_clean_and_sort_return_an_untouched_log_as_is():
    log = sort_by_start(random_log(np.random.default_rng(6), 50))
    assert sort_by_start(log) is log
    kept, report = clean_events(log)
    assert kept is log and report == CleaningReport(50, 0, 0, 50)


def test_a_generated_log_is_already_sorted():
    log, _ = generate_workload(SynthConfig(n_events=300, seed=8))
    assert sort_by_start(log) is log
    _assert_codes_follow_first_appearance(log)


def test_logs_hold_under_200_bytes_per_event():
    # Each event costs its int64 and float64 columns, seven int64 codes and a
    # file-name str (71 bytes for a 22-character name); a TransferEvent object
    # per event cost about 400 bytes.
    config = SynthConfig(n_events=5000, seed=20250808)
    generate_workload(config)  # imports and first-call caches are not the log's
    held, log = traced_held(lambda: generate_workload(config)[0])
    assert len(log) == 5000
    assert held <= 200 * len(log)

    sink = io.StringIO()
    write_event_csv(log, sink)
    held, parsed = traced_held(parse_event_csv, io.StringIO(sink.getvalue(), newline=""))
    assert list(parsed) == list(log)
    assert held <= 200 * len(parsed)


def test_parse_peak_memory_stays_near_the_log_size():
    log, _ = generate_workload(SynthConfig(n_events=20_000, seed=20250808))
    sink = io.StringIO()
    write_event_csv(log, sink)
    peak, parsed = traced_peak(parse_event_csv, io.StringIO(sink.getvalue(), newline=""))
    assert len(parsed) == len(log)
    # Coded once for the whole file, the category cells of every block are held
    # until the log is built: interned, the parse peaked at 453 bytes per event,
    # and at 785 with one str per cell.
    assert peak <= 600 * len(parsed)


# ------------------------------------------------------- timestamp range


@pytest.mark.parametrize("start, stop, accepted", [
    (-TIME_LIMIT_S, -TIME_LIMIT_S, True),
    (-TIME_LIMIT_S, TIME_LIMIT_S, True),
    (-TIME_LIMIT_S - 1, 0, False),
    (0, TIME_LIMIT_S + 1, False),
    (2**63, 2**63, False),
    (10**20 - 1, 10**20 - 1, False),
])
def test_parse_bounds_timestamps_to_the_supported_range(start, stop, accepted):
    rows = [
        "10,20,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
        f"{start},{stop},1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB",
    ]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    if accepted:
        assert (_parse(text)[1].start_time, _parse(text)[1].stop_time) == (start, stop)
        return
    with pytest.raises(CsvRowError, match="outside the supported range of ±2\\*\\*61 s") as err:
        _parse(text)
    assert err.value.row_index == 1
    with pytest.raises(ValueError, match="outside the supported range"):
        mk_event(start=start, stop=stop)


# ------------------------------------------- columnar ingest vs row-wise


_CATEGORY = st.text(alphabet='ab ,"\n\ré日', max_size=3)
_BAD_CELLS = st.sampled_from([
    "abc", "", "nan", "inf", "-inf", "1.5", "1_0", " 8", "+2", "-1", "SIDEWAYS",
    str(TIME_LIMIT_S + 1), str(-TIME_LIMIT_S - 1), "99999999999999999999",
    "9223372036854775000", str(-2**63),
])


@st.composite
def _event_rows(draw):
    """One CSV row: mostly valid, with start and stop ties, or a blank line (None)."""
    if draw(st.integers(0, 9)) == 0:
        return None
    start = draw(st.integers(0, 6))
    cells = [
        str(start),
        str(start + draw(st.integers(0, 3))),
        draw(st.sampled_from(["0.5", "1", "1e3", "1000", "1000.5", "0", "-2", "7.25"])),
        draw(st.sampled_from(["3", "0", "-1", "120.5", "2e2"])),
        *(draw(_CATEGORY) for _ in range(6)),
        draw(st.one_of(_CATEGORY, st.sampled_from(["e1-r2-s0-c1.xtc", "é.dat"]))),
        draw(st.sampled_from(["DSS_TO_FFB", "FFB_TO_ANA"])),
    ]
    if draw(st.integers(0, 7)) == 0:
        position = draw(st.integers(0, len(cells)))
        if position == len(cells):
            cells.pop(draw(st.integers(0, len(cells) - 1)))
        else:
            cells[position] = draw(_BAD_CELLS)
    return cells


@st.composite
def _event_csvs(draw) -> str:
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator=eol)
    writer.writerow(CSV_COLUMNS)
    for row in draw(st.lists(_event_rows(), max_size=30)):
        if row is None:
            sink.write(eol)
        else:
            writer.writerow(row)
    return sink.getvalue()


def _outcome(parse, data: str):
    try:
        return list(parse(io.StringIO(data, newline=""))), None
    except Exception as exc:
        return None, (type(exc), str(exc), getattr(exc, "row_index", None))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_event_csvs())
def test_columnar_ingest_matches_the_row_wise_reference(data):
    want_rows, want_error = _outcome(reference_parse_event_csv, data)
    got_rows, got_error = _outcome(parse_event_csv, data)
    assert got_error == want_error
    if want_error is not None:
        return
    assert got_rows == want_rows
    log = parse_event_csv(io.StringIO(data, newline=""))
    _assert_codes_follow_first_appearance(log)

    kept, report = clean_events(log)
    want_kept, want_report = reference_clean_events(want_rows)
    assert list(kept) == want_kept
    assert report == want_report
    _assert_codes_follow_first_appearance(kept)

    ordered = sort_by_start(kept)
    assert list(ordered) == reference_sort_by_start(want_kept)
    _assert_codes_follow_first_appearance(ordered)


def test_a_bad_row_past_the_first_parse_block_is_named_like_the_row_wise_parse():
    # Rows are parsed 4,096 non-blank rows at a time, and blank lines count in
    # the row index. The first bad row fails two checks and a later one a
    # third, so the error must name that row and its first check.
    rows = [f"{i},{i + 5},1.0,50.0,cxi,e1,h,tfs,sfs,n,f,DSS_TO_FFB" for i in range(6000)]
    rows[4500] = "4500,4400,1.0,50.0,cxi,e1,h,tfs,sfs,n,f,SIDEWAYS"
    rows[4600] = "4600,4605,1.0"
    lines = (row if i % 700 else "\n" + row for i, row in enumerate(rows))
    data = HEADER + "\n" + "\n".join(lines) + "\n"
    want = _outcome(reference_parse_event_csv, data)[1]
    assert want == (CsvRowError, "row 4507: unknown stage 'SIDEWAYS'", 4507)
    assert _outcome(parse_event_csv, data)[1] == want


def _assert_same_log(a: EventLog, b: EventLog) -> None:
    assert a.codes.keys() == b.codes.keys()
    for field in a.codes:
        assert a.codes[field].tolist() == b.codes[field].tolist(), field
    assert a.categories == b.categories
    for column in ("ids", "starts", "stops", "sizes", "rates", "file_names"):
        assert getattr(a, column).tolist() == getattr(b, column).tolist(), column


def test_a_parse_codes_the_whole_file_and_not_each_block():
    # Rows are parsed 4,096 non-blank rows at a time. Instruments, experiments and
    # nodes first seen in the second and third blocks are coded after the first
    # block's, whose values keep coming back.
    lines, want = [], {"instrument": [], "experiment": [], "node": []}
    for i in range(9000):
        block = i // 4096
        instrument = ("cxi", "xpp", "mec", "xcs")[i % (2 + block)]
        experiment = f"{instrument}{i % (3 + block):05d}"
        node = f"node{(i // 7) % (2 + 2 * block)}"
        for field, value in zip(want, (instrument, experiment, node)):
            want[field].append(value)
        lines.append(f"{i},{i + 3},1.5,{50 + i % 9}.25,{instrument},{experiment},h,tfs,sfs,"
                     f"{node},e1-r1-s0-c{i}.xtc,DSS_TO_FFB")
        if i % 500 == 499:
            lines.append("")
    log = _parse(HEADER + "\n" + "\n".join(lines) + "\n")
    assert len(log) == 9000 and log.ids[-1] == 8999 + 17
    for field in want:
        values = [log.categories[field][code] for code in log.codes[field].tolist()]
        assert values == want[field], field
        blocks = [set(values[lo:lo + 4096]) for lo in (0, 4096, 8192)]
        assert blocks[1] - blocks[0] and blocks[2] - blocks[0] - blocks[1], field
        assert blocks[0] <= blocks[1] and blocks[0] <= blocks[2], field
    _assert_codes_follow_first_appearance(log)
    _assert_same_log(EventLog.from_events(list(log)), log)
    _assert_same_log(log.take(np.arange(len(log))), log)


def test_iterating_a_log_holds_one_block_of_rows():
    log, _ = generate_workload(SynthConfig(n_events=20_000, seed=1))
    peak, count = traced_peak(lambda: sum(1 for _ in log))
    assert count == len(log)
    # Building every row, and a list per field, before the first was yielded peaked at 7.8 MB.
    assert peak <= 2.5e6
    # Rows on each side of a block edge come in order.
    rows = list(log)
    for i in (0, 4095, 4096, 8191, 8192, len(log) - 1):
        assert rows[i] == log[i]
