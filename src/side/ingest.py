"""File parsing and geographic filtering for severity and document inputs.

Severity comes from ``dsci.csv`` (``week_start,dsci``), documents from
JSONL dumps with ``id``/``timestamp``/``text`` per line, and the
state-specific location entities from a plain text file.  Real dumps
contain junk lines, so JSONL parsing is lenient: it counts what it drops.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

from .core import DSCI_MAX, DSCI_MIN, Document, SeveritySeries, not_utf8, read_csv
from .errors import ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EntityList:
    """Lowercased, deduplicated location entities for one state."""

    entities: frozenset[str]

    def __post_init__(self):
        if not self.entities:
            raise ValueError("entity list must not be empty")

    @classmethod
    def from_terms(cls, terms) -> "EntityList":
        cleaned = {t.strip().lower() for t in terms if t.strip()}
        return cls(frozenset(cleaned))

    @classmethod
    def from_file(cls, path) -> "EntityList":
        terms = []
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        terms.append(line)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
        if not terms:
            raise ParseError(f"{path}: no entities found")
        return cls.from_terms(terms)


def load_severity(path) -> SeveritySeries:
    """Parse a ``week_start,dsci`` CSV into a weekly severity series.

    Dates must be ISO-8601, strictly ascending in exact 7-day steps; a
    gap or duplicate is an error rather than something to impute, since
    a silently missing week would shift every downstream window.
    Values outside [0, 500] are clamped with a warning.

    Raises:
        ParseError: structural problems (see :func:`side.core.read_csv`) and
            bad values, with the offending line number.
    """
    values: list[float] = []
    start = prev = None
    for lineno, (day_cell, value_cell) in read_csv(path, ("week_start", "dsci")):
        try:
            day = date.fromisoformat(day_cell)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad date {day_cell!r}: {exc}") from exc
        try:
            value = float(value_cell)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad DSCI value {value_cell!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: non-finite DSCI value {value_cell!r}")
        if prev is None:
            start = day
        elif day == prev:
            raise ParseError(f"{path}:{lineno}: duplicate date {day.isoformat()}")
        elif day < prev:
            raise ParseError(f"{path}:{lineno}: dates not ascending ({day} after {prev})")
        elif day - prev != timedelta(days=7):
            raise ParseError(
                f"{path}:{lineno}: gap between {prev} and {day}; "
                "missing weeks are rejected, not imputed"
            )
        if value < DSCI_MIN or value > DSCI_MAX:
            clamped = min(max(value, DSCI_MIN), DSCI_MAX)
            log.warning("%s:%d: DSCI %s clamped to %s", path, lineno, value, clamped)
            value = clamped
        values.append(value)
        prev = day
    if not values:
        raise ParseError(f"{path}: no data rows")
    return SeveritySeries(start=start, values=values)


@dataclass
class DocumentLoadResult:
    """Documents plus counters for everything the lenient parser dropped."""

    documents: list[Document] = field(default_factory=list)
    malformed_count: int = 0
    empty_text_count: int = 0
    out_of_range_count: int = 0


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def load_documents(path, series: SeveritySeries) -> DocumentLoadResult:
    """Read one JSONL document dump and bucket rows into weekly timesteps.

    Each document lands in the timestep whose week contains its
    timestamp; documents outside the severity date range and documents
    with empty text are dropped and counted.  Malformed lines are dropped
    and counted too: invalid JSON, a missing key, a ``timestamp`` or
    ``text`` that is not a JSON string, a timestamp that is not ISO-8601,
    or bytes that are not UTF-8.
    """
    result = DocumentLoadResult()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                # Decode first: json.loads would take a \xff\xfe prefix for UTF-16.
                row = json.loads(line.decode("utf-8"))
                _, stamp, text = row["id"], row["timestamp"], row["text"]  # id is required, but unused
                if not (isinstance(stamp, str) and isinstance(text, str)):
                    raise TypeError("timestamp and text must be strings")
                stamp = _parse_timestamp(stamp)
            except (KeyError, TypeError, ValueError):  # JSONDecodeError, UnicodeDecodeError are ValueErrors
                result.malformed_count += 1
                continue
            if not text.strip():
                result.empty_text_count += 1
                continue
            timestep = series.timestep_of(stamp.date())
            if timestep is None:
                result.out_of_range_count += 1
                continue
            result.documents.append(Document(timestep, text))
    if result.malformed_count:
        log.info("%s: skipped %d malformed lines", path, result.malformed_count)
    return result


def geofilter(docs: list[Document], entities: EntityList) -> list[Document]:
    """Keep documents that mention at least one location entity.

    Matching is case-insensitive at token boundaries, so the entity
    "dallas" does not match "dallastown".  Order is preserved; filtering
    twice equals filtering once.
    """
    alternatives = "|".join(re.escape(e) for e in sorted(entities.entities))
    pattern = re.compile(r"(?<![a-z0-9])(?:" + alternatives + r")(?![a-z0-9])")
    return [d for d in docs if pattern.search(d.text.lower())]
