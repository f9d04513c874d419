"""Synthetic severity series and document corpora for pipeline testing.

Severity is a seasonal sinusoid plus AR(1) noise clamped to the DSCI
range.  Documents are drawn per week with a rate that rises with
severity, and each document's determinant is sampled from a mixture
that shifts toward Agriculture / Water Utilities / Wildfire Management
as conditions worsen.  Social documents reflect severity ``SOCIAL_LEAD``
weeks ahead (social discourse leads the physical signal), news
documents reflect the current week.

Everything is driven by one seeded generator, so output files are
reproducible byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .core import DETERMINANT_NAMES, DSCI_MAX, DSCI_MIN, OTHER_INDEX, atomic_write, write_csv
from .dsiq import load_lexicon

#: In-state location entities embedded in generated texts (and written to
#: entities.txt).  Multi-word entries exercise token-boundary matching.
IN_STATE_PLACES = (
    "fresno",
    "bakersfield",
    "riverbend",
    "lakeport",
    "mercer valley",
    "dustin county",
    "palo verde",
    "sierra flats",
)

#: Out-of-state places; documents mentioning only these must be geofiltered out.
OUT_OF_STATE_PLACES = ("reno", "phoenix", "tulsa")

FILLERS = (
    "officials",
    "residents",
    "week",
    "local",
    "amid",
    "continues",
    "latest",
    "county",
    "community",
    "ongoing",
    "concerns",
    "impacts",
)

#: Neutral vocabulary for documents sampled under the "Other" determinant.
OTHER_TERMS = (
    "announcement",
    "meeting",
    "update",
    "statement",
    "review",
    "report",
    "notice",
    "schedule",
    "forum",
    "broadcast",
    "newsletter",
    "bulletin",
)


#: The first week (a Monday); the level, amplitude and period (in weeks) of
#: the seasonal sinusoid; the AR(1) coefficient and scale of its noise; how
#: many weeks social documents run ahead of severity; and the share of
#: documents placed out of state.
START = date(2017, 1, 2)
BASE_SEVERITY = 220.0
SEASONAL_AMPLITUDE = 120.0
SEASONAL_PERIOD = 52.0
AR_COEFF = 0.85
NOISE_SCALE = 18.0
SOCIAL_LEAD = 4
OUT_OF_STATE_FRACTION = 0.1

#: A week draws its document count from a Poisson rate of at most 1.65 times
#: ``docs_per_week``.  numpy refuses rates near the largest int64 (about
#: 9.2e18), and may refuse them from 2**31 where a C long has 32 bits, after
#: ``dsci.csv`` is written; 1.65e9 is below both.
MAX_DOCS_PER_WEEK = 1e9


def generate_severity(weeks: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(weeks)
    seasonal = BASE_SEVERITY + SEASONAL_AMPLITUDE * np.sin(
        2.0 * np.pi * t / SEASONAL_PERIOD
    )
    noise = np.zeros(weeks)
    for i in range(weeks):
        prev = noise[i - 1] if i else 0.0
        noise[i] = AR_COEFF * prev + NOISE_SCALE * rng.standard_normal()
    return np.clip(seasonal + noise, DSCI_MIN, DSCI_MAX)


def determinant_mixture(severity_value: float) -> np.ndarray:
    """Determinant sampling weights as a function of severity.

    High-severity weeks tilt hard toward Agriculture, Water Utilities
    and Wildfire Management while recreation chatter dries up, giving
    the impact channel a strong, learnable coupling to severity.
    """
    s = float(severity_value) / DSCI_MAX
    weights = np.array(
        [
            0.25 + 2.2 * s,  # Agriculture
            0.35 + 0.4 * s,  # Ecosystems
            0.18 + 0.5 * s,  # Energy
            0.14 + 0.7 * s,  # Hazard Planning & Preparedness
            0.12,  # Manufacturing
            0.10,  # Navigation and Transportation
            0.22 + 0.6 * s,  # Public Health
            max(0.55 - 0.45 * s, 0.08),  # Recreation and Tourism
            0.30 + 2.6 * s,  # Water Utilities
            0.08 + 1.4 * s * s,  # Wildfire Management
            0.25,  # Other
        ]
    )
    return weights / weights.sum()


#: Topic words per document.  Every topic pool (the lexicon's terms, or
#: ``OTHER_TERMS``) holds more, so each bound of :func:`_choice_bounds` is at least 2.
TOPIC_WORDS = 3

#: Documents drawn at a time.  A chunk reads ``8 * CHUNK_DOCS`` raw generator
#: outputs in one call, and a week yields its first document after one chunk.
CHUNK_DOCS = 4096


def _sample_without_replacement(draws: np.ndarray, n, size: int) -> np.ndarray:
    """Rows of ``Generator.choice(n, size, replace=False)`` rebuilt from their bounded draws.

    For ``n <= 10000`` numpy picks with Floyd's algorithm (Bentley & Floyd,
    CACM 1987), then shuffles the picks; each row of ``draws`` holds its
    ``2 * size - 1`` integers, drawn below :func:`_choice_bounds` in that
    order.  ``n`` is one population size or one per row.
    """
    rows = np.arange(len(draws))
    picks = draws[:, :size].copy()
    for i in range(1, size):  # pick n - size + i where the draw is taken already
        taken = (picks[:, :i] == draws[:, i, None]).any(axis=1)
        picks[:, i] = np.where(taken, n - size + i, draws[:, i])
    for col, i in enumerate(range(size - 1, 0, -1), start=size):
        d = draws[:, col]
        picks[rows, i], picks[rows, d] = picks[rows, d], picks[rows, i]
    return picks


def _choice_bounds(n: int, size: int) -> tuple[int, ...]:
    """Exclusive highs of the draws :func:`_sample_without_replacement` reads."""
    return (*range(n - size + 1, n + 1), *range(size, 1, -1))


def _draw_chunk(rng: np.random.Generator, n: int, cdf: np.ndarray, bounds: np.ndarray):
    """Determinants, out-of-state flags and bounded integers of ``n`` documents.

    Document i draws what ``det = bisect_right(cdf, rng.random())``,
    ``out = rng.random() < OUT_OF_STATE_FRACTION`` and ``rng.integers(0,
    bounds[det, out])`` would, and leaves ``rng`` in the state those calls
    leave.  ``bounds`` is an int64 array of shape ``(len(cdf), 2, width)``
    with an even ``width`` and every bound within [2, 2**32].

    numpy's ``random()`` is a PCG64 output ``x`` as ``(x >> 11) * 2**-53``;
    a bounded integer takes the next 32-bit half, low half first (a half
    left over by the last call comes first), as Lemire's ``(u * b) >> 32``
    (ACM TOMACS 2019), and draws again where ``(u * b) mod 2**32 < (2**32 -
    b) mod b``.  So one ``random_raw`` call gives each document ``2 + width
    / 2`` outputs.  A chunk with a draw to repeat (1.2-1.4e-8 per document
    at the bounds of :func:`generate_documents`) is drawn again with the
    calls themselves.
    """
    bitgen = rng.bit_generator
    before = bitgen.state
    width = bounds.shape[-1]
    raw = bitgen.random_raw(n * (2 + width // 2)).reshape(n, -1)
    doubles = (raw[:, :2] >> 11) * 2.0**-53
    det = np.searchsorted(cdf, doubles[:, 0], side="right")
    out_of_state = doubles[:, 1] < OUT_OF_STATE_FRACTION
    halves = np.stack((raw[:, 2:] & 0xFFFFFFFF, raw[:, 2:] >> 32), axis=-1).ravel()
    if before["has_uint32"]:
        halves = np.concatenate((np.array([before["uinteger"]], dtype=np.uint64), halves[:-1]))
    rows = bounds[det, out_of_state.astype(np.intp)].view(np.uint64)
    product = halves.reshape(n, width) * rows
    if ((product & 0xFFFFFFFF) < (2**32 - rows) % rows).any():
        bitgen.state = before
        ints = np.empty((n, width), dtype=np.int64)
        for i in range(n):
            det[i] = np.searchsorted(cdf, rng.random(), side="right")
            out_of_state[i] = rng.random() < OUT_OF_STATE_FRACTION
            ints[i] = rng.integers(0, bounds[det[i], int(out_of_state[i])])
        return det, out_of_state, ints
    after = bitgen.state
    after["uinteger"] = int(raw[-1, -1] >> 32)  # numpy keeps the last high half, read or not
    bitgen.state = after
    return det, out_of_state, (product >> 32).view(np.int64)


def generate_documents(
    severity: np.ndarray, docs_per_week: float, source: str, rng: np.random.Generator
) -> Iterator[str]:
    """Weekly documents (id, text, timestamp) of one source as JSON lines, one week of ``severity`` after another.

    Each document draws, in order: its determinant, as ``rng.choice(11,
    p=mixture)`` would; whether it is out of state; then its day, hour,
    minute, topic words, fillers and place, as scalar ``integers`` and
    ``choice(pool, k, replace=False)`` calls would.  The documents are drawn
    :data:`CHUNK_DOCS` at a time by :func:`_draw_chunk`, from the same
    stream, so the lines, and the state ``rng`` is left in after the last
    week, are those of the calls.  A line is the bytes
    ``json.dumps(doc, sort_keys=True)`` writes, without a newline.

    Raises:
        TypeError: ``rng``'s bit generator is not a ``PCG64``, whose outputs
            the chunks rebuild the calls from; nothing is drawn then.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"generate_documents needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    return _document_lines(severity, docs_per_week, source, rng)


def _escaped(*word_lists) -> np.ndarray:
    """The words JSON-escaped, one row per list, padded with empty strings."""
    width = max(map(len, word_lists))
    rows = [[json.dumps(w)[1:-1] for w in words] + [""] * (width - len(words)) for words in word_lists]
    return np.array(rows, dtype=object)


def _document_lines(severity, docs_per_week, source, rng) -> Iterator[str]:
    lexicon = load_lexicon()
    pools = [OTHER_TERMS if d == OTHER_INDEX else tuple(lexicon[name]) for d, name in enumerate(DETERMINANT_NAMES)]
    pool_sizes = np.array([len(pool) for pool in pools])
    topic_words, (fillers,) = _escaped(*pools), _escaped(FILLERS)
    place_lists = (IN_STATE_PLACES, OUT_OF_STATE_PLACES)
    places = _escaped(*place_lists)
    # a document's draws: day, hour, minute, 2 * TOPIC_WORDS - 1 for its topic words, 3 for its fillers, its place
    filler_bounds = _choice_bounds(len(FILLERS), 2)
    bounds = np.array(
        [
            [(7, 24, 60, *_choice_bounds(len(pool), TOPIC_WORDS), *filler_bounds, len(p)) for p in place_lists]
            for pool in pools
        ],
        dtype=np.int64,
    )
    topic_draws = slice(3, 2 + 2 * TOPIC_WORDS)
    filler_draws = slice(topic_draws.stop, topic_draws.stop + len(filler_bounds))
    src = json.dumps(source)[1:-1]
    weeks = len(severity)
    lead = SOCIAL_LEAD if source == "social" else 0
    for t in range(weeks):
        driver = severity[min(t + lead, weeks - 1)]
        s = driver / DSCI_MAX
        lam = docs_per_week * (0.35 + 1.3 * s)
        count = int(rng.poisson(lam))
        cdf = determinant_mixture(driver).cumsum()
        cdf /= cdf[-1]
        week_start = START + timedelta(days=7 * t)
        days = [(week_start + timedelta(days=d)).isoformat() for d in range(7)]
        for first in range(0, count, CHUNK_DOCS):
            det, out_of_state, draws = _draw_chunk(rng, min(CHUNK_DOCS, count - first), cdf, bounds)
            picks = _sample_without_replacement(draws[:, topic_draws], pool_sizes[det], TOPIC_WORDS)
            topics = topic_words[det[:, None], picks]
            fills = fillers[_sample_without_replacement(draws[:, filler_draws], len(FILLERS), 2)]
            doc_places = places[out_of_state.astype(np.intp), draws[:, -1]]
            for i, (day, hour, minute), (f0, f1), topic, place in zip(
                range(first, count), draws[:, :3].tolist(), fills.tolist(), topics.tolist(), doc_places.tolist()
            ):
                yield (
                    f'{{"id": "{src}-{t:04d}-{i:03d}", "text": "{f0} {" ".join(topic)} in {place} {f1}", '
                    f'"timestamp": "{days[day]}T{hour:02d}:{minute:02d}:00Z"}}'
                )


def write_dataset(out_dir, weeks: int, docs_per_week: float, seed: int) -> dict[str, Path]:
    """Generate and write dsci.csv, posts.jsonl, news.jsonl, entities.txt.

    Each source's documents are written as they are drawn, social first.

    Raises:
        ValueError: ``weeks`` below 1 or so many that the last week ends
            after ``date.max``, or ``docs_per_week`` negative, not finite or
            above ``MAX_DOCS_PER_WEEK``; nothing is created then.
    """
    max_weeks = ((date.max - START).days + 1) // 7  # week t runs from START + 7t to START + 7t + 6 days
    if not 1 <= weeks <= max_weeks:
        raise ValueError(f"weeks must be within [1, {max_weeks}], got {weeks}")
    if not 0 <= docs_per_week <= MAX_DOCS_PER_WEEK:  # NaN fails every comparison
        raise ValueError(f"docs_per_week must be within [0, {MAX_DOCS_PER_WEEK:g}], got {docs_per_week!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    severity = generate_severity(weeks, rng)
    paths = {
        "dsci": out / "dsci.csv",
        "social": out / "posts.jsonl",
        "news": out / "news.jsonl",
        "entities": out / "entities.txt",
    }
    week_starts = ((START + timedelta(days=7 * t)).isoformat() for t in range(weeks))
    write_csv(paths["dsci"], ("week_start", "dsci"), zip(week_starts, severity.tolist()))
    for source in ("social", "news"):
        with atomic_write(paths[source]) as fh:
            for line in generate_documents(severity, docs_per_week, source, rng):
                fh.write(line + "\n")
    with atomic_write(paths["entities"]) as fh:
        fh.write("# synthetic in-state location entities\n")
        for place in IN_STATE_PLACES:
            fh.write(place + "\n")
    return paths
