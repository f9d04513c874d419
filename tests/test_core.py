"""Windowing, chronological split, impact series invariants and the CSV format."""

import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from side.core import (
    DETERMINANT_COUNT,
    SeveritySeries,
    Windows,
    check_impacts,
    chronological_split,
    make_windows,
    read_csv,
    split_sizes,
    training_cutoff,
    write_csv,
)
from side.errors import AlignmentError, InsufficientDataError, ParseError

WEEK0 = date(2017, 1, 2)


def make_series(total, start_value=100.0):
    return SeveritySeries(start=WEEK0, values=start_value + np.arange(total) % 300)


def zero_impacts(total):
    return np.zeros((total, 2 * DETERMINANT_COUNT))


def onehot_impacts(total):
    """Impact rows whose social part marks the timestep, t mod DETERMINANT_COUNT."""
    impacts = zero_impacts(total)
    impacts[np.arange(total), np.arange(total) % DETERMINANT_COUNT] = 1.0
    return impacts


def impact_row(social=None, news=None):
    """One (1, 22) impact series from two parts, zeros where omitted."""
    zeros = (0.0,) * DETERMINANT_COUNT
    return np.array([tuple(social or zeros) + tuple(news or zeros)])


def test_window_count_identity():
    samples = make_windows(make_series(10), zero_impacts(10), 3, 2)
    assert len(samples) == 10 - 3 - 2 + 1 == 6
    assert samples.starts.tolist() == list(range(6))
    middle = samples[1:3]
    assert isinstance(middle, Windows)
    assert middle.starts.tolist() == [1, 2]
    with pytest.raises(TypeError):
        samples[0]


def test_window_contents_are_consecutive():
    samples = make_windows(make_series(10), onehot_impacts(10), 3, 2)
    assert samples.severity_in[0].tolist() == [100.0, 101.0, 102.0]
    assert samples.severity_out[0].tolist() == [103.0, 104.0]
    assert samples.impact_in.shape == (6, 3, 2 * DETERMINANT_COUNT)
    assert samples.impact_out.shape == (6, 2, 2 * DETERMINANT_COUNT)
    social = slice(0, DETERMINANT_COUNT)
    assert samples.impact_in[0, :, social].argmax(axis=1).tolist() == [0, 1, 2]
    assert samples.impact_out[0, :, social].argmax(axis=1).tolist() == [3, 4]
    assert samples.impact_in[5, :, social].argmax(axis=1).tolist() == [5, 6, 7]
    assert not samples.impact_in[..., DETERMINANT_COUNT:].any()


def test_insufficient_data_error():
    with pytest.raises(InsufficientDataError):
        make_windows(make_series(56), zero_impacts(56), 52, 5)


def test_alignment_error_on_length_mismatch():
    with pytest.raises(AlignmentError):
        make_windows(make_series(10), zero_impacts(9), 3, 2)


def test_windows_are_read_only_views_of_one_copy_per_series():
    series, impacts = make_series(10), onehot_impacts(10)
    samples = make_windows(series, impacts, 3, 2)
    for name in ("starts", "severity_in", "severity_out", "impact_in", "impact_out"):
        assert not getattr(samples, name).flags.writeable, name
    assert np.shares_memory(samples.severity_in, samples.severity_out)
    assert np.shares_memory(samples.impact_in, samples.impact_out)
    assert not np.shares_memory(samples.severity_in, samples.impact_in)
    assert not np.shares_memory(samples.severity_in, series.values)
    assert not np.shares_memory(samples.impact_in, impacts)
    with pytest.raises(ValueError, match="read-only"):
        samples.impact_in[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        samples.severity_out[1] += 1.0


def test_windows_do_not_follow_later_writes_to_the_impacts():
    impacts = onehot_impacts(10)
    samples = make_windows(make_series(10), impacts, 3, 2)
    before = samples.impact_in.copy(), samples.impact_out.copy()
    impacts[:] = 0.0
    assert np.array_equal(samples.impact_in, before[0])
    assert np.array_equal(samples.impact_out, before[1])


def test_make_windows_allocates_about_the_series_not_the_windows():
    # A window copy per lookback and horizon (the gathered layout) peaks at
    # about 2.9 MB here; two series copies of 330 weeks are about 60 KB.
    series, impacts = make_series(330), onehot_impacts(330)
    tracemalloc.start()
    try:
        samples = make_windows(series, impacts, 52, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.impact_in.shape == (274, 52, 2 * DETERMINANT_COUNT)
    assert peak < 256 * 1024, f"make_windows peaked at {peak / 1024:.0f} KB"


@given(
    total=st.integers(min_value=2, max_value=80),
    lookback=st.integers(min_value=1, max_value=30),
    horizon=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=100, deadline=None)
def test_window_count_formula_property(total, lookback, horizon):
    series = make_series(total)
    impacts = onehot_impacts(total)
    if total < lookback + horizon:
        with pytest.raises(InsufficientDataError):
            make_windows(series, impacts, lookback, horizon)
        return
    samples = make_windows(series, impacts, lookback, horizon)
    assert len(samples) == total - lookback - horizon + 1
    assert np.all(np.diff(samples.starts) == 1)
    into = samples.starts[:, None] + np.arange(lookback)
    out = samples.starts[:, None] + np.arange(lookback, lookback + horizon)
    assert np.array_equal(samples.severity_in, series.values[into])
    assert np.array_equal(samples.severity_out, series.values[out])
    assert np.array_equal(samples.impact_in, impacts[into])
    assert np.array_equal(samples.impact_out, impacts[out])


def test_split_330_samples():
    # floor rule: 330 * 7/10 = 231, 33, 66; sums back to 330
    samples = make_windows(make_series(340), zero_impacts(340), 6, 5)
    assert len(samples) == 330
    train, val, test = chronological_split(samples)
    assert (len(train), len(val), len(test)) == (231, 33, 66)
    assert len(train) + len(val) + len(test) == 330


def test_split_exact_ratio():
    assert split_sizes(10) == (7, 1, 2)


def test_split_tiny_remainder_to_train():
    # floor(3*7/10)=2, floor(3*1/10)=0, floor(3*2/10)=0; remainder 1 -> train
    assert split_sizes(3) == (3, 0, 0)
    assert sum(split_sizes(3)) == 3


def test_split_rejects_empty():
    with pytest.raises(ValueError):
        chronological_split([])


@given(n=st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_split_partition_property(n):
    total = n + 10
    samples = make_windows(make_series(total), zero_impacts(total), 6, 5)
    train, val, test = chronological_split(samples)
    assert len(train) + len(val) + len(test) == len(samples)
    assert len(train) >= 1
    rebuilt = np.concatenate([train.starts, val.starts, test.starts])
    assert rebuilt.tolist() == samples.starts.tolist()
    if val:
        assert train.starts.max() < val.starts.min()
    if test:
        upper = np.concatenate([train.starts, val.starts]).max()
        assert upper < test.starts.min()


def test_training_cutoff_matches_last_train_window():
    total, lookback, horizon = 330, 52, 5
    n = total - lookback - horizon + 1
    n_train = split_sizes(n)[0]
    cutoff = training_cutoff(total, lookback, horizon)
    assert cutoff == (n_train - 1) + lookback + horizon
    assert cutoff <= total


def test_training_cutoff_short_series_covers_all():
    assert training_cutoff(10, 52, 5) == 10


def test_impact_vector_accepts_zero_or_normalized():
    check_impacts(impact_row())
    uniform = (1.0 / DETERMINANT_COUNT,) * DETERMINANT_COUNT
    check_impacts(impact_row(social=uniform))
    check_impacts(np.zeros((0, 2 * DETERMINANT_COUNT)))


def test_impact_vector_rejects_bad_sums_and_bounds():
    half = (0.5,) + (0.0,) * (DETERMINANT_COUNT - 1)
    with pytest.raises(ValueError, match="row 0: social part sums to 0.5"):
        check_impacts(impact_row(social=half))
    over = (1.5,) + (0.0,) * (DETERMINANT_COUNT - 1)
    with pytest.raises(ValueError, match="social part has components outside"):
        check_impacts(impact_row(social=over))
    for bad in (np.nan, np.inf):
        part = (bad,) + (0.0,) * (DETERMINANT_COUNT - 1)
        with pytest.raises(ValueError, match="news part has components outside"):
            check_impacts(impact_row(news=part))
    # the first bad row is named, whichever half fails
    impacts = np.concatenate([impact_row(), impact_row(news=half), impact_row(social=over)])
    with pytest.raises(ValueError, match="row 1: news part"):
        check_impacts(impacts)
    for shape in ((3, 2 * DETERMINANT_COUNT - 1), (2 * DETERMINANT_COUNT,)):
        with pytest.raises(ValueError, match="shape"):
            check_impacts(np.zeros(shape))


@given(counts=st.lists(st.integers(min_value=0, max_value=40), min_size=11, max_size=11))
@settings(max_examples=100, deadline=None)
def test_impact_vector_from_counts_property(counts):
    # any document count histogram yields a valid part (zero or normalized)
    total = sum(counts)
    if total == 0:
        part = (0.0,) * DETERMINANT_COUNT
    else:
        part = tuple(c / total for c in counts)
    row = impact_row(social=part)
    check_impacts(row)
    assert np.all((0.0 <= row) & (row <= 1.0))
    s = row[0, :DETERMINANT_COUNT].sum()
    assert s == 0.0 or abs(s - 1.0) <= 1e-6


def test_series_rejects_gap_and_nonfinite():
    # a gap cannot be represented: week i always starts 7 * i days after start
    series = SeveritySeries(start=WEEK0, values=[1.0, 2.0])
    assert series.timestep_of(WEEK0 + timedelta(days=13)) == 1
    for bad in (np.inf, np.nan, -1.0, 501.0):
        with pytest.raises(ValueError, match="index 1 outside"):
            SeveritySeries(start=WEEK0, values=[1.0, bad])
    with pytest.raises(ValueError, match="1-D"):
        SeveritySeries(start=WEEK0, values=[[1.0]])
    with pytest.raises(ValueError, match="read-only"):
        series.values[0] = 3.0


def test_timestep_of_brackets_weeks():
    series = make_series(3)
    assert series.timestep_of(WEEK0) == 0
    assert series.timestep_of(WEEK0 + timedelta(days=6)) == 0
    assert series.timestep_of(WEEK0 + timedelta(days=7)) == 1
    assert series.timestep_of(WEEK0 + timedelta(days=27)) is None
    assert series.timestep_of(WEEK0 - timedelta(days=1)) is None


def test_csv_float_round_trip_is_bit_exact(tmp_path):
    floats = [-0.0, 5e-324, np.float64(0.1) + np.float64(0.2), np.float64(-1e308), 1 / 3, float("inf")]
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "label", "x"), [(i, '"q"', x) for i, x in enumerate(floats)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,label,x"
    assert lines[1] == '0,"q",-0.0' and "np.float64" not in path.read_text(encoding="utf-8")
    rows = read_csv(path, ("i", "label", "x"))
    assert [lineno for lineno, _ in rows] == list(range(2, 2 + len(floats)))
    back = np.array([float(cells[2]) for _, cells in rows])
    assert back.tobytes() == np.array(floats, dtype=np.float64).tobytes()  # -0.0 keeps its sign bit


def test_read_csv_rejects_wrong_header_at_line_1(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,c\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"t\.csv:1: expected header 'a,b', got 'a,c'"):
        read_csv(path, ("a", "b"))
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match=r"t\.csv:1: expected header"):
        read_csv(path, ("a", "b"))


def test_read_csv_rejects_wrong_column_count_with_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,4,5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"t\.csv:4: expected 2 columns, got 3"):
        read_csv(path, ("a", "b"))


def test_read_csv_skips_blank_lines_and_strips_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a, b\r\n\r\n1 ,2\r\n   \n3,\t4\n\n")
    assert read_csv(path, ("a", "b")) == [(3, ["1", "2"]), (5, ["3", "4"])]


def test_read_csv_names_line_of_non_utf8_byte(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n\r\n3,\xe94\r\n")
    with pytest.raises(ParseError, match=r"t\.csv:4: not UTF-8 text"):
        read_csv(path, ("a", "b"))
