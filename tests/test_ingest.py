"""File parsing, weekly bucketing, and geographic filtering."""

import json
import logging
import sys
from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from side import ingest
from side.core import SeveritySeries
from side.errors import ParseError
from side.ingest import EntityList, geofilter, load_documents, load_severity

WEEK0 = date(2017, 1, 2)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def series(total):
    return SeveritySeries(start=WEEK0, values=[100.0] * total)


class TestLoadSeverity:
    def test_single_row_echo(self, tmp_path):
        path = write(tmp_path / "dsci.csv", "week_start,dsci\n2017-01-02,310.5\n")
        loaded = load_severity(path)
        assert len(loaded) == 1
        assert loaded.values[0] == 310.5
        assert loaded.start == date(2017, 1, 2)

    def test_out_of_range_clamped_with_warning(self, tmp_path, caplog):
        path = write(tmp_path / "dsci.csv", "week_start,dsci\n2017-01-02,612.0\n")
        with caplog.at_level(logging.WARNING):
            loaded = load_severity(path)
        assert loaded.values[0] == 500.0
        assert any("clamped" in r.message for r in caplog.records)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write(
            tmp_path / "dsci.csv",
            "week_start,dsci\n2017-01-02,10.0\n2017-01-02,11.0\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_severity(path)

    def test_gap_rejected_with_line_number(self, tmp_path):
        path = write(
            tmp_path / "dsci.csv",
            "week_start,dsci\n2017-01-02,10.0\n2017-01-16,11.0\n",
        )
        with pytest.raises(ParseError, match=r":3"):
            load_severity(path)

    def test_non_monotonic_rejected(self, tmp_path):
        path = write(
            tmp_path / "dsci.csv",
            "week_start,dsci\n2017-01-09,10.0\n2017-01-02,11.0\n",
        )
        with pytest.raises(ParseError, match="ascending"):
            load_severity(path)

    def test_unparseable_float_names_line(self, tmp_path):
        path = write(tmp_path / "dsci.csv", "week_start,dsci\n2017-01-02,oops\n")
        with pytest.raises(ParseError, match=r":2"):
            load_severity(path)

    def test_crlf_and_spaced_cells_accepted(self, tmp_path):
        path = tmp_path / "dsci.csv"
        path.write_bytes(b"week_start , dsci\r\n 2017-01-02, 10.5 \r\n\r\n2017-01-09 ,11.0\r\n")
        loaded = load_severity(path)
        assert loaded.start == date(2017, 1, 2)
        assert loaded.values.tolist() == [10.5, 11.0]

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "dsci.csv", "date,value\n2017-01-02,10.0\n")
        with pytest.raises(ParseError, match="header"):
            load_severity(path)

    @pytest.mark.parametrize(
        "rows, match",
        [
            # Python 3.11's date.fromisoformat reads these three; 3.10 does not
            ("20170102,10.0\n", r"dsci\.csv:2: bad date '20170102'"),
            ("2017-W01-1,10.0\n", r"dsci\.csv:2: bad date '2017-W01-1'"),
            ("2017W011,10.0\n", r"dsci\.csv:2: bad date '2017W011'"),
            ("2017-01-02,10.0\n2017-01-09,nan\n", r"dsci\.csv:3: non-finite DSCI value 'nan'"),
            ("", r"dsci\.csv: no data rows"),
        ],
        ids=["basic_date", "week_date", "basic_week_date", "nan_value", "header_only"],
    )
    def test_rejected_file_names_path_and_line(self, tmp_path, rows, match):
        path = write(tmp_path / "dsci.csv", "week_start,dsci\n" + rows)
        with pytest.raises(ParseError, match=match):
            load_severity(path)


class TestLoadDocuments:
    def test_bucketing_by_week(self, tmp_path):
        # timestamp inside week 7 lands in timestep 7
        stamp = (WEEK0 + timedelta(days=7 * 7 + 3)).isoformat() + "T14:00:00Z"
        path = write(
            tmp_path / "posts.jsonl",
            f'{{"id": "a", "timestamp": "{stamp}", "text": "dry fields"}}\n',
        )
        result = load_documents(path, series(10))
        assert result.documents == ["dry fields"]
        assert result.timesteps == [7]

    def test_empty_text_dropped_and_counted(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "timestamp": "2017-01-03T00:00:00Z", "text": "  "}\n',
        )
        result = load_documents(path, series(4))
        assert result.documents == [] and result.timesteps == []
        assert result.empty_text_count == 1

    def test_lenient_mode_counts_malformed(self, tmp_path):
        good = '{"id": "%d", "timestamp": "2017-01-03T10:00:00Z", "text": "dust"}'
        lines = [good % 1, "{not json", good % 2, good % 3]
        path = write(tmp_path / "posts.jsonl", "\n".join(lines) + "\n")
        # A line that is not UTF-8 counts as malformed too, and is not read as UTF-16.
        path.write_bytes(path.read_bytes() + b"\xff\xfe junk line\n")
        result = load_documents(path, series(4))
        assert result.documents == ["dust"] * 3 and result.timesteps == [0] * 3
        assert result.malformed_count == 2

    def test_out_of_range_dropped_and_counted(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "timestamp": "2030-01-01T00:00:00Z", "text": "late"}\n'
            '{"id": "b", "timestamp": "2017-01-03T00:00:00Z", "text": "ok"}\n',
        )
        result = load_documents(path, series(4))
        assert result.documents == ["ok"] and result.timesteps == [0]
        assert result.out_of_range_count == 1

    def test_missing_key_is_malformed(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "text": "no stamp"}\n'
            '{"timestamp": "2017-01-03T00:00:00Z", "text": "no id"}\n',  # id is required, though not kept
        )
        result = load_documents(path, series(4))
        assert result.documents == [] and result.timesteps == []
        assert result.malformed_count == 2

    @pytest.mark.parametrize(
        "fields",
        [
            '"timestamp": "2017-01-03T00:00:00Z", "text": ["dust", "crop failure"]',
            '"timestamp": 20170103, "text": "dust"',  # str() of it is an ISO-8601 basic date
        ],
        ids=["text", "timestamp"],
    )
    def test_non_string_field_is_malformed(self, tmp_path, fields):
        path = write(tmp_path / "posts.jsonl", '{"id": "a", %s}\n' % fields)
        result = load_documents(path, series(4))
        assert result.documents == [] and result.timesteps == []
        assert result.malformed_count == 1


    def test_timestamps_read_the_same_on_every_python(self, tmp_path):
        read = ["2017-01-03", "2017-01-03T10", "2017-01-03 10:00", "2017-01-03T10:00:00.500Z",
                "2017-01-03T10:00:00.500000+05:30", "2017-01-03T10:00:00-07:00:00", "2017-01-03t10:00:00z"]
        # From Python 3.11 on, fromisoformat reads these as well; 3.10's does not.
        newer = ["2017-01-03T10:00:00.5Z", "20170103T100000Z", "2017-W01-2T10:00:00Z", "2017-01-03T10:00:00,500Z",
                 "2017-01-03T10:00:00+0530", "2017-01-03T1000"]
        if sys.version_info >= (3, 11):
            for stamp in newer:
                datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        malformed = newer + ["2017-01-03T", "2017-01-03T10:"]
        stamps = read + malformed
        lines = [json.dumps({"id": str(i), "timestamp": stamp, "text": stamp}) for i, stamp in enumerate(stamps)]
        path = write(tmp_path / "posts.jsonl", "".join(line + "\n" for line in lines))
        result = load_documents(path, series(4))
        assert result.documents == read and result.timesteps == [0] * len(read)
        assert result.malformed_count == len(malformed)


class TestGeofilter:
    def test_entity_match_retained(self):
        kept = geofilter(["Drought hits Fresno farms"], EntityList.from_terms(["fresno"]))
        assert kept.tolist() == [0]

    def test_token_boundary_drops_substring(self):
        docs = ["refresno is not a place", "dallastown diner"]
        kept = geofilter(docs, EntityList.from_terms(["fresno", "dallas"]))
        assert kept.tolist() == []

    def test_no_hits_gives_empty_list(self):
        docs = ["nothing to see", "still nothing"]
        assert geofilter(docs, EntityList.from_terms(["fresno"])).tolist() == []

    def test_multi_word_entity(self):
        docs = ["conditions in mercer valley worsen", "mercer report"]
        kept = geofilter(docs, EntityList.from_terms(["mercer valley"]))
        assert [docs[i] for i in kept] == ["conditions in mercer valley worsen"]

    def test_case_insensitive_and_order_preserved(self):
        docs = ["FRESNO update", "fresno again", "elsewhere"]
        kept = geofilter(docs, EntityList.from_terms(["Fresno"]))
        assert [docs[i] for i in kept] == ["FRESNO update", "fresno again"]

    def test_idempotent(self):
        docs = ["fresno a", "other", "bakersfield b"]
        entities = EntityList.from_terms(["fresno", "bakersfield"])
        once = [docs[i] for i in geofilter(docs, entities)]
        assert once == ["fresno a", "bakersfield b"]
        # filtering the kept texts keeps them all
        assert geofilter(once, entities).tolist() == list(range(len(once)))


def test_parallel_lists_stay_aligned_when_lines_are_dropped(tmp_path):
    def line(week, text):
        stamp = (WEEK0 + timedelta(weeks=week, days=week % 7)).isoformat() + "T09:30:00Z"
        return '{"id": "%d", "timestamp": "%s", "text": "%s"}' % (week, stamp, text)

    good = {5: "dust in fresno", 0: "dry wells elsewhere", 3: "fresno crops fail", 9: "rain at last", 1: "fresno again"}
    dropped = iter([
        "{not json",
        line(2, "   "),  # empty text
        line(40, "fresno after the series ends"),  # out of range
        '{"id": "x", "text": "no stamp in fresno"}',
        line(-3, "fresno before the series starts"),  # out of range
    ])
    lines = []
    for week, text in good.items():
        lines += [line(week, text), next(dropped)]
    path = write(tmp_path / "posts.jsonl", "\n".join(lines) + "\n")

    result = load_documents(path, series(10))
    assert (result.malformed_count, result.empty_text_count, result.out_of_range_count) == (2, 1, 2)
    assert result.documents == list(good.values())
    assert result.timesteps == list(good)
    kept = geofilter(result.documents, EntityList.from_terms(["fresno"]))
    assert kept.tolist() == [0, 2, 4]
    assert [(result.timesteps[i], result.documents[i]) for i in kept] == [
        (week, text) for week, text in good.items() if "fresno" in text
    ]


def test_entity_list_from_file_with_comments(tmp_path):
    path = tmp_path / "entities.txt"
    path.write_text("# header comment\nFresno\n  dallas  # inline\n\nfresno\n", encoding="utf-8")
    entities = EntityList.from_file(path)
    assert entities.entities == frozenset({"fresno", "dallas"})


def test_entity_list_rejects_empty(tmp_path):
    path = tmp_path / "entities.txt"
    path.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(ParseError):
        EntityList.from_file(path)


#: A small dump: two kept documents, an empty text, one after the series and one before it.
_DUMP = [
    {"id": "a", "timestamp": "2017-01-03T10:00:00Z", "text": "dust in fresno"},
    {"id": 2, "timestamp": "2017-01-20", "text": "dry wells"},
    {"id": "c", "timestamp": "2017-01-10T00:00:00+05:30", "text": " "},
    {"id": "d", "timestamp": "2030-01-01T00:00:00Z", "text": "late"},
    {"id": "e", "timestamp": "2016-12-31T23:59:59Z", "text": "early"},
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_dumps(draw):
    """The bytes of ``_DUMP`` with one line flipped, truncated, short of a key, or with a field swapped or nested."""
    lines = [json.dumps(row).encode() for row in _DUMP]
    i = draw(st.integers(0, len(lines) - 1))
    row, line = dict(_DUMP[i]), lines[i]
    key = draw(st.sampled_from(sorted(row)))
    kind = draw(st.sampled_from(["flip", "truncate", "drop", "swap", "nest"]))
    if kind == "flip":
        at = draw(st.integers(0, len(line) - 1))
        lines[i] = line[:at] + bytes([line[at] ^ draw(st.integers(1, 255))]) + line[at + 1:]
    elif kind == "truncate":
        lines[i] = line[:draw(st.integers(0, len(line) - 1))]
    elif kind == "drop":
        del row[key]
        lines[i] = json.dumps(row).encode()
    elif kind == "swap":
        row[key] = draw(_JSON.filter(lambda value: type(value) is not type(row[key])))
        lines[i] = json.dumps(row).encode()
    else:
        row[key] = None
        lines[i] = json.dumps(row).encode().replace(b"null", b"[" * 100_000 + b"]" * 100_000)
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=_mutated_dumps())
def test_one_mutated_line_is_counted_never_raised(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(data)
    result = load_documents(path, series(4))
    counted = len(result.documents) + result.malformed_count + result.empty_text_count + result.out_of_range_count
    assert counted == sum(1 for line in data.split(b"\n") if line.strip())
    assert len(result.timesteps) == len(result.documents) and set(result.timesteps) <= set(range(4))


#: What may stand before or after a line's JSON value: JSON whitespace, or also characters that are not JSON
#: whitespace (a BOM, a no-break space, a vertical tab, a form feed, an ideographic space).
_EDGES = st.text(st.sampled_from(" \t\r"), max_size=3) | st.text(
    st.sampled_from(" \t\r\ufeff\u00a0\x0b\x0c\u3000"), min_size=1, max_size=3)


@st.composite
def _respaced_dumps(draw):
    """The bytes of ``_DUMP`` with edged lines, CRLF or no line ends, trailing data, NaN, Infinity or deep nesting."""
    lines = []
    for row in _DUMP:
        line = json.dumps(row)
        if draw(st.booleans()):
            row = dict(row, **{draw(st.sampled_from(sorted(row))): None})
            value = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "[" * 100_000 + "]" * 100_000]))
            line = json.dumps(row).replace("null", value)
        tail = draw(st.just("") | st.sampled_from(["x", "0", "{}", "]", json.dumps(_DUMP[0])]))
        # No line end joins this line to the next: two objects on one line.
        end = draw(st.sampled_from(["\n", "\r\n", "\n", ""]))
        lines.append(draw(_EDGES) + line + tail + draw(_EDGES) + end)
    return "".join(lines).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=_respaced_dumps())
def test_one_scan_keeps_drops_and_counts_as_json_loads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "respaced.jsonl"
    path.write_bytes(data)

    def refuse(line):
        raise ValueError("every line goes to json.loads")

    got = load_documents(path, series(4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_raw_decode", refuse)
        want = load_documents(path, series(4))
    assert got == want
