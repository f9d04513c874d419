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
from bisect import bisect_right
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


def _sample_without_replacement(draws, n: int, size: int) -> list[int]:
    """``Generator.choice(n, size, replace=False)`` rebuilt from its bounded draws.

    For ``n <= 10000`` numpy picks with Floyd's algorithm (Bentley & Floyd,
    CACM 1987), then shuffles the picks; ``draws`` are its ``2 * size - 1``
    integers, drawn below :func:`_choice_bounds` in that order.
    """
    picks: list[int] = []
    for j, d in zip(range(n - size, n), draws):
        picks.append(j if d in picks else d)
    for i, d in zip(range(size - 1, 0, -1), draws[size:]):
        picks[i], picks[d] = picks[d], picks[i]
    return picks


def _choice_bounds(n: int, size: int) -> tuple[int, ...]:
    """Exclusive highs of the draws :func:`_sample_without_replacement` reads."""
    return (*range(n - size + 1, n + 1), *range(size, 1, -1))


def generate_documents(
    severity: np.ndarray, docs_per_week: float, source: str, rng: np.random.Generator
) -> Iterator[dict]:
    """Weekly document dicts (id, timestamp, text) for one source, one week of ``severity`` after another.

    Each document draws, in order: its determinant, as ``rng.choice(11,
    p=mixture)`` would; whether it is out of state; then one array of
    bounded integers for day, hour, minute, topic words, fillers and place,
    the same draws as the scalar ``integers`` and ``choice(pool, k,
    replace=False)`` calls they stand for.  The stream, and so the output,
    is the same as with those calls.
    """
    lexicon = load_lexicon()
    pools = [OTHER_TERMS if d == OTHER_INDEX else tuple(lexicon[name]) for d, name in enumerate(DETERMINANT_NAMES)]
    sizes = [min(3, len(pool)) for pool in pools]
    filler_bounds = _choice_bounds(len(FILLERS), 2)
    bounds = [
        [
            np.array((7, 24, 60, *_choice_bounds(len(pool), k), *filler_bounds, len(places)), dtype=np.int64)
            for places in (IN_STATE_PLACES, OUT_OF_STATE_PLACES)
        ]
        for pool, k in zip(pools, sizes)
    ]
    weeks = len(severity)
    lead = SOCIAL_LEAD if source == "social" else 0
    for t in range(weeks):
        driver = severity[min(t + lead, weeks - 1)]
        s = driver / DSCI_MAX
        lam = docs_per_week * (0.35 + 1.3 * s)
        count = int(rng.poisson(lam))
        cdf = determinant_mixture(driver).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        week_start = START + timedelta(days=7 * t)
        days = [(week_start + timedelta(days=d)).isoformat() for d in range(7)]
        for i in range(count):
            det = bisect_right(cdf, rng.random())
            out_of_state = rng.random() < OUT_OF_STATE_FRACTION
            day, hour, minute, *draws = rng.integers(0, bounds[det][out_of_state]).tolist()
            pool, k = pools[det], sizes[det]
            topic_words = [pool[j] for j in _sample_without_replacement(draws, len(pool), k)]
            fillers = [FILLERS[j] for j in _sample_without_replacement(draws[2 * k - 1 :], len(FILLERS), 2)]
            place = (OUT_OF_STATE_PLACES if out_of_state else IN_STATE_PLACES)[draws[-1]]
            yield {
                "id": f"{source}-{t:04d}-{i:03d}",
                "timestamp": f"{days[day]}T{hour:02d}:{minute:02d}:00Z",
                "text": f"{fillers[0]} {topic_words[0]} {' '.join(topic_words[1:])} in {place} {fillers[1]}",
            }


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
    encode = json.JSONEncoder(sort_keys=True).encode
    for source in ("social", "news"):
        with atomic_write(paths[source]) as fh:
            for doc in generate_documents(severity, docs_per_week, source, rng):
                fh.write(encode(doc) + "\n")
    with atomic_write(paths["entities"]) as fh:
        fh.write("# synthetic in-state location entities\n")
        for place in IN_STATE_PLACES:
            fh.write(place + "\n")
    return paths
