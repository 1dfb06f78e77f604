"""Feature CSV format: byte identity with the cell-at-a-time oracle, bit-exact
reading, and the edge cases of the block writer and the structured reader."""

import csv
import hashlib
import io
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ratecast.features as features
from ratecast import SynthConfig, generate_workload, sort_by_start
from helpers import traced_peak
from oracles import reference_feature_csv, reference_read_feature_csv
from ratecast.features import (
    ALL_GROUPS,
    ColumnMeta,
    FeatureMatrix,
    FeatureSpec,
    assemble_features,
    read_feature_csv,
    write_feature_csv,
)

EDGE_VALUES = [
    0.0,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
    -1.0,
]

INT64 = np.iinfo(np.int64)


def _matrix(values, ids) -> FeatureMatrix:
    columns = [ColumnMeta(f"G.f{j}", "G", "test") for j in range(values.shape[1])]
    return FeatureMatrix(values=values, columns=columns, event_ids=ids)


def _texts(matrix, targets) -> tuple[str, str]:
    new, old = io.StringIO(), io.StringIO()
    write_feature_csv(matrix, targets, new)
    reference_feature_csv(matrix, targets, old)
    return new.getvalue(), old.getvalue()


def _assert_same_read(got, want) -> None:
    X, names, ids, targets = got
    X_want, names_want, ids_want, targets_want = want
    assert names == names_want
    assert X.shape == X_want.shape and X.dtype == np.float64
    assert X.tobytes() == X_want.tobytes()
    assert ids.dtype == np.int64 and np.array_equal(ids, ids_want)
    assert targets.tobytes() == targets_want.tobytes()


def _assert_round_trip(read_back, values, targets) -> None:
    # %.17g round-trips every float; a NaN comes back as the canonical NaN.
    for got, want in ((read_back[0], values), (read_back[3], targets)):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 12),
    k=st.integers(0, 6),
    block=st.sampled_from([1, 3, 5, 1024]),
)
def test_writer_matches_oracle_and_reader_is_bit_exact(data, n, k, block):
    values = data.draw(hnp.arrays(np.float64, (n, k), elements=floats))
    targets = data.draw(hnp.arrays(np.float64, n, elements=floats))
    id_elements = st.integers(int(INT64.min), int(INT64.max)) | st.just(2**53 + 1)
    ids = data.draw(hnp.arrays(np.int64, n, elements=id_elements))
    matrix = _matrix(values, ids)
    with mock.patch.object(features, "_CSV_BLOCK_ROWS", block):
        text, want_text = _texts(matrix, targets)
    assert text == want_text
    got = read_feature_csv(io.StringIO(text, newline=""))
    _assert_same_read(got, reference_read_feature_csv(io.StringIO(text, newline="")))
    assert got[1] == matrix.column_names
    assert np.array_equal(got[2], ids)
    _assert_round_trip(got, values, targets)


def test_row_count_not_a_multiple_of_the_block_size():
    n = 2 * features._CSV_BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    values = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-300, 300, size=(n, 4))
    values[::97, 1] = np.nan
    targets = rng.uniform(0.0, 400.0, n)
    ids = rng.integers(INT64.min, INT64.max, size=n, dtype=np.int64)
    text, want_text = _texts(_matrix(values, ids), targets)
    assert text == want_text
    assert text.count("\n") == n + 1
    got = read_feature_csv(io.StringIO(text, newline=""))
    _assert_same_read(got, reference_read_feature_csv(io.StringIO(text, newline="")))
    _assert_round_trip(got, values, targets)


@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_row_matrices(n):
    values = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    targets = np.full(n, 2.5)
    ids = np.full(n, 2**62, dtype=np.int64)
    text, want_text = _texts(_matrix(values, ids), targets)
    assert text == want_text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, names, got_ids, y = read_feature_csv(io.StringIO(text, newline=""))
    assert X.shape == (n, 3) and got_ids.shape == (n,) and y.shape == (n,)
    assert names == ["G.f0", "G.f1", "G.f2"]
    assert X.tobytes() == values.tobytes()
    assert np.array_equal(got_ids, ids)


def test_read_returns_contiguous_writable_arrays():
    text, _ = _texts(_matrix(np.ones((4, 3)), np.arange(4)), np.ones(4))
    for array in (a for a in read_feature_csv(io.StringIO(text)) if isinstance(a, np.ndarray)):
        assert array.flags.c_contiguous and array.flags.writeable


def test_read_accepts_blank_lines_and_crlf():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, 3))
    text, _ = _texts(_matrix(values, np.arange(6) + 2**60), rng.normal(size=6))
    lines = text.splitlines()
    messy = "\r\n".join(lines[:3] + ["", ""] + lines[3:] + [""]) + "\r\n"
    got = read_feature_csv(io.StringIO(messy, newline=""))
    _assert_same_read(got, reference_read_feature_csv(io.StringIO(messy, newline="")))
    _assert_same_read(got, read_feature_csv(io.StringIO(text, newline="")))


HEADER = "meta.event_id,G.a,G.b,target.transfer_rate_mbs\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (HEADER + "1,2,3,4\n2,x,3,4\n", "line 3: could not convert string 'x' to float64 at column 2"),
        (HEADER + "1,2,3,4\n2,3,4\n", "line 3: expected 4 cells, found 3"),
        (HEADER + "1.5,2,3,4\n", "line 2: could not convert string '1.5' to int64"),
        (HEADER + "9223372036854775808,2,3,4\n", "line 2: could not convert string"),
        (HEADER + "#1,2,3,4\n", "line 2: could not convert string '#1'"),
        (HEADER + "1,2,3,4\r\n\r\n\r\n2,3,4,y\r\n", "line 5: could not convert string 'y'"),
        (HEADER + "1,2,3,4\n \n", "line 3: expected 4 cells, found 1"),
        ("id,G.a,G.b,target.transfer_rate_mbs\n1,2,3,4\n", "bad header"),
        ("", "bad header"),
        (HEADER + "1,2,3,4\n2,3,4,5\n3,4\n", "line 4: expected 4 cells, found 2"),
        (HEADER + "1,2,3,4\r2,3,4,5\r3,4,5,z", "line 4: could not convert string 'z'"),
        # csv's field-size error escaped the reader as a traceback.
        ('"' + HEADER + "1,2,3,4\n" * 20000, "line 1: field larger than field limit"),
    ],
    ids=["non-numeric", "ragged", "fractional-id", "id-overflow", "comment",
         "after-blank-crlf-lines", "whitespace-line", "bad-header", "empty",
         "last-line-ragged", "last-line-unended-after-cr-lines", "header-quote-never-closes"],
)
def test_read_rejects_malformed_input(text, message):
    with pytest.raises(ValueError) as info:
        read_feature_csv(io.StringIO(text, newline=""))
    assert message in str(info.value)


def test_a_text_file_advanced_by_readline_reads_from_its_position_and_by_next_raises(tmp_path):
    # A text file cannot tell() after next(), and the reader needs its position.
    path = tmp_path / "features.csv"
    path.write_text("junk\n" + HEADER + "1,2,3,4\n2,3,4,5\n", newline="")
    with open(path, newline="") as fh:
        fh.readline()
        X, names, ids, y = read_feature_csv(fh)
    assert X.tolist() == [[2.0, 3.0], [3.0, 4.0]] and names == ["G.a", "G.b"]
    assert ids.tolist() == [1, 2] and y.tolist() == [4.0, 5.0]
    path.write_text("junk\n" + HEADER + "1,2,3,4\n2,x,3,4\n", newline="")
    with open(path, newline="") as fh, pytest.raises(ValueError, match="^line 3: .*'x'"):
        fh.readline()
        read_feature_csv(fh)
    with open(path, newline="") as fh, pytest.raises(OSError, match="disabled by next"):
        next(fh)
        read_feature_csv(fh)


def test_a_pipe_raises_its_own_os_error():
    read_end, write_end = os.pipe()
    with open(write_end, "w") as fh:
        fh.write(HEADER + "1,2,3,4\n")
    with open(read_end, newline="") as fh, pytest.raises(OSError, match="not seekable"):
        read_feature_csv(fh)


def test_a_body_error_counts_lines_from_the_header_where_reading_began():
    source = io.StringIO("junk\n" + HEADER + "1,2,3,4\n2,x,3,4\n", newline="")
    next(source)
    with pytest.raises(ValueError, match="^line 3: could not convert string 'x' to float64"):
        read_feature_csv(source)


@pytest.mark.parametrize("body, message", [
    ("1,2,3,4\n2,x,3,4\n", "^line 5: could not convert string 'x' to float64 at column 2"),
    ("1,2,3,4\n2,3,4\n", "^line 5: expected 4 cells, found 3$"),
], ids=["non-numeric", "ragged"])
def test_a_body_error_counts_the_lines_of_a_quoted_header(body, message):
    # Names holding a LF and a CR put the header on three lines; the re-read
    # skipped one of them and blamed the header's second line.
    text = 'meta.event_id,"G.a\nb","G.c\r",target.transfer_rate_mbs\n' + body
    with pytest.raises(ValueError, match=message):
        read_feature_csv(io.StringIO(text, newline=""))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 6),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
    final_end=st.booleans(),
)
def test_any_line_ends_and_blank_lines_read_alike_with_or_without_seeking(data, n, end,
                                                                          final_end):
    values = data.draw(hnp.arrays(np.float64, (n, 2), elements=floats))
    targets = data.draw(hnp.arrays(np.float64, n, elements=floats))
    sink = io.StringIO()
    write_feature_csv(_matrix(values, np.arange(n, dtype=np.int64)), targets, sink)
    clean = read_feature_csv(io.StringIO(sink.getvalue(), newline=""))
    lines = []
    for line in sink.getvalue().splitlines():
        lines += [line] + [""] * data.draw(st.integers(0, 2))
    text = end.join(lines) + (end if final_end else "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns of blank lines when given max_rows
        _assert_same_read(read_feature_csv(io.StringIO(text, newline="")), clean)
    # The oracle reads row by row, never seeking.
    _assert_same_read(reference_read_feature_csv(io.StringIO(text, newline="")), clean)


def _text_file(text, newline):
    fh = tempfile.TemporaryFile("w+", encoding="utf-8", newline=newline)
    fh.write(text)
    fh.seek(0)
    return fh


@pytest.mark.parametrize("stream", [io.StringIO, _text_file])
def test_a_seekable_read_passes_loadtxt_a_row_bound(stream):
    text = HEADER + "1,2,3,4\r\n\r\n2,3,4,5\r3,4,5,6"
    with stream(text, newline="") as source, mock.patch.object(
        features.np, "loadtxt", wraps=np.loadtxt
    ) as loadtxt:
        X, _, _, _ = read_feature_csv(source)
    assert X.shape == (3, 2)
    max_rows = loadtxt.call_args.kwargs.get("max_rows")
    assert max_rows is not None and max_rows >= len(X) + 1


def _structured_read(text):
    """The structured body's fields, each copied out: what the reader's
    in-place move of the x cells must reproduce bit for bit."""
    source = io.StringIO(text, newline="")
    names = next(csv.reader(source))[1:-1]
    dtype = [("id", np.int64), ("x", np.float64, (len(names),)), ("y", np.float64)]
    body = features._load_body(source, dtype)
    return body["x"].copy(), names, body["id"].copy(), body["y"].copy()


def _block_plus_one_row():
    n = features._CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(11)
    values = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
    return _texts(_matrix(values, np.arange(n) * 7 - 3), rng.normal(size=n))[0]


@pytest.mark.parametrize(
    "text",
    [
        "meta.event_id,target.transfer_rate_mbs\n1,2.5\n-4,0.5\n",
        HEADER,
        _block_plus_one_row(),
        HEADER + "1,-0,0,-0.0\n2,nan,-nan,NaN\n3,-NAN,-inf,-0\n",
    ],
    ids=["no-feature-columns", "header-only", "one-row-past-a-block", "signed-zeros-and-nans"],
)
def test_in_place_read_equals_the_copied_structured_body(text):
    got = read_feature_csv(io.StringIO(text, newline=""))
    _assert_same_read(got, _structured_read(text))
    for array in (got[0], got[2], got[3]):
        assert array.flags.c_contiguous and array.flags.writeable
    if "-nan" in text:
        signs = got[0].view(np.uint64) >> 63
        assert signs.tolist() == [[1, 0], [0, 1], [1, 1]]


def test_read_peak_memory_stays_near_the_matrix_size():
    # The structured body becomes X's buffer: beyond it, a read holds only the
    # id and target copies and one block of moved cells.
    events, _ = generate_workload(SynthConfig(n_events=5000, seed=20250808))
    events = sort_by_start(events)
    matrix = assemble_features(events, FeatureSpec.parse(",".join(ALL_GROUPS)))
    sink = io.StringIO()
    write_feature_csv(matrix, np.array([e.transfer_rate_mbs for e in events]), sink)
    peak, (X, *_) = traced_peak(read_feature_csv, io.StringIO(sink.getvalue(), newline=""))
    assert X.tobytes() == matrix.values.tobytes()
    assert peak <= 1.5 * X.nbytes



# Each block formats every distinct bit pattern once; these cases would show a
# dedup that merged patterns printing differently, or split one value's text.
_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF800000000BEEF]


def _signed_zeros():
    values = np.zeros((5, 3))
    values[::2, 0] = -0.0
    values[1, 1:] = -0.0
    return values, np.array([0.0, -0.0, 0.0, -0.0, 1.0])


def _nan_payloads():
    values = np.array(_NAN_BITS * 3, dtype=np.uint64).view(np.float64).reshape(4, 3)
    targets = np.array(_NAN_BITS, dtype=np.uint64).view(np.float64)[::-1].copy()
    return values, targets


def _repeated_value():
    values = np.full((9, 4), 1 / 3)
    values[4, 2] = -1 / 3
    values[7] = [0.1, 1 / 3, 0.1, 1e300]
    return values, np.full(9, 1 / 3)


def _integer_targets():
    values = np.arange(21, dtype=np.float64).reshape(7, 3) / 7
    targets = np.array([0, -3, 7, 2**53 + 1, 2**62 + 3, INT64.min, INT64.max], dtype=np.int64)
    return values, targets


@pytest.mark.parametrize("block", [1, 3, 1024])
@pytest.mark.parametrize(
    "make",
    [_signed_zeros, _nan_payloads, _repeated_value, _integer_targets],
    ids=["signed-zeros", "nan-payloads", "repeated-value", "integer-targets"],
)
def test_writer_edge_cases_match_oracle(make, block):
    values, targets = make()
    ids = np.arange(len(values), dtype=np.int64) * 3 - 5
    with mock.patch.object(features, "_CSV_BLOCK_ROWS", block):
        text, want_text = _texts(_matrix(values, ids), targets)
    assert text == want_text
    if make is _signed_zeros:
        assert "-0," in text and ",0," in text
    if make is _integer_targets:
        assert text.endswith(",9.2233720368547758e+18\n")


# SHA-256 of the all-groups feature CSV of a 2,000-event synthetic log. It was
# recorded from the cell-at-a-time writer and the per-call key factorisation;
# any change to what a features pass computes or prints changes it.
GOLDEN_SHA256 = "c4db9fc5a7635973a5b3ba50492864cff137aef71744c94ce978301c4ac5e399"


def test_feature_csv_text_of_synth_log_is_unchanged():
    events, _ = generate_workload(SynthConfig(n_events=2000, seed=20250808))
    events = sort_by_start(events)
    matrix = assemble_features(events, FeatureSpec.parse(",".join(ALL_GROUPS)))
    sink = io.StringIO()
    write_feature_csv(matrix, np.array([e.transfer_rate_mbs for e in events]), sink)
    assert matrix.values.shape == (2000, 115)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == GOLDEN_SHA256
