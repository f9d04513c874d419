"""File parsing, weekly bucketing, and geographic filtering."""

import logging
from datetime import date, timedelta

import pytest

from side.core import Document, SeveritySeries
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


class TestLoadDocuments:
    def test_bucketing_by_week(self, tmp_path):
        # timestamp inside week 7 lands in timestep 7
        stamp = (WEEK0 + timedelta(days=7 * 7 + 3)).isoformat() + "T14:00:00Z"
        path = write(
            tmp_path / "posts.jsonl",
            f'{{"id": "a", "timestamp": "{stamp}", "text": "dry fields"}}\n',
        )
        result = load_documents(path, series(10))
        assert len(result.documents) == 1
        assert result.documents[0].timestep == 7

    def test_empty_text_dropped_and_counted(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "timestamp": "2017-01-03T00:00:00Z", "text": "  "}\n',
        )
        result = load_documents(path, series(4))
        assert result.documents == []
        assert result.empty_text_count == 1

    def test_lenient_mode_counts_malformed(self, tmp_path):
        good = '{"id": "%d", "timestamp": "2017-01-03T10:00:00Z", "text": "dust"}'
        lines = [good % 1, "{not json", good % 2, good % 3]
        path = write(tmp_path / "posts.jsonl", "\n".join(lines) + "\n")
        # A line that is not UTF-8 counts as malformed too, and is not read as UTF-16.
        path.write_bytes(path.read_bytes() + b"\xff\xfe junk line\n")
        result = load_documents(path, series(4))
        assert len(result.documents) == 3
        assert result.malformed_count == 2

    def test_out_of_range_dropped_and_counted(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "timestamp": "2030-01-01T00:00:00Z", "text": "late"}\n'
            '{"id": "b", "timestamp": "2017-01-03T00:00:00Z", "text": "ok"}\n',
        )
        result = load_documents(path, series(4))
        assert [d.text for d in result.documents] == ["ok"]
        assert result.out_of_range_count == 1

    def test_missing_key_is_malformed(self, tmp_path):
        path = write(
            tmp_path / "posts.jsonl",
            '{"id": "a", "text": "no stamp"}\n'
            '{"timestamp": "2017-01-03T00:00:00Z", "text": "no id"}\n',  # id is required, though not kept
        )
        result = load_documents(path, series(4))
        assert result.documents == []
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
        assert result.documents == []
        assert result.malformed_count == 1


class TestGeofilter:
    def docs(self, *texts):
        return [Document(0, t) for t in texts]

    def test_entity_match_retained(self):
        docs = self.docs("Drought hits Fresno farms")
        kept = geofilter(docs, EntityList.from_terms(["fresno"]))
        assert len(kept) == 1

    def test_token_boundary_drops_substring(self):
        docs = self.docs("refresno is not a place", "dallastown diner")
        kept = geofilter(docs, EntityList.from_terms(["fresno", "dallas"]))
        assert kept == []

    def test_no_hits_gives_empty_list(self):
        docs = self.docs("nothing to see", "still nothing")
        assert geofilter(docs, EntityList.from_terms(["fresno"])) == []

    def test_multi_word_entity(self):
        docs = self.docs("conditions in mercer valley worsen", "mercer report")
        kept = geofilter(docs, EntityList.from_terms(["mercer valley"]))
        assert [d.text for d in kept] == ["conditions in mercer valley worsen"]

    def test_case_insensitive_and_order_preserved(self):
        docs = self.docs("FRESNO update", "fresno again", "elsewhere")
        kept = geofilter(docs, EntityList.from_terms(["Fresno"]))
        assert [d.text for d in kept] == ["FRESNO update", "fresno again"]

    def test_idempotent(self):
        docs = self.docs("fresno a", "other", "bakersfield b")
        entities = EntityList.from_terms(["fresno", "bakersfield"])
        once = geofilter(docs, entities)
        twice = geofilter(once, entities)
        assert once == twice


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
