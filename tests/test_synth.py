"""Synthetic dataset generator: shapes, coupling, reproducibility."""

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from side.core import DETERMINANT_NAMES, DSCI_MAX, OTHER_INDEX
from side.dsiq import load_lexicon
from side.ingest import EntityList, geofilter, load_documents, load_severity
from side.synth import (
    FILLERS,
    IN_STATE_PLACES,
    OTHER_TERMS,
    OUT_OF_STATE_PLACES,
    SynthSpec,
    _choice_bounds,
    _sample_without_replacement,
    determinant_mixture,
    generate_documents,
    generate_severity,
    write_dataset,
)


def _make_text(det_index, lexicon, rng, out_of_state):
    name = DETERMINANT_NAMES[det_index]
    pool = OTHER_TERMS if det_index == OTHER_INDEX else tuple(lexicon[name])
    topic_words = list(rng.choice(pool, size=min(3, len(pool)), replace=False))
    fillers = list(rng.choice(FILLERS, size=2, replace=False))
    places = OUT_OF_STATE_PLACES if out_of_state else IN_STATE_PLACES
    place = places[rng.integers(len(places))]
    return f"{fillers[0]} {topic_words[0]} {' '.join(topic_words[1:])} in {place} {fillers[1]}"


def _reference_generate_documents(spec, severity, source, rng):
    """One ``choice`` or ``integers`` call per random value and a datetime
    stamp per document: the documents ``generate_documents`` must match."""
    lexicon = load_lexicon()
    lead = spec.social_lead if source == "social" else 0
    docs = []
    for t in range(spec.weeks):
        driver = severity[min(t + lead, spec.weeks - 1)]
        lam = spec.docs_per_week * (0.35 + 1.3 * driver / DSCI_MAX)
        count = int(rng.poisson(lam))
        mixture = determinant_mixture(driver)
        week_start = spec.start + timedelta(days=7 * t)
        for i in range(count):
            det = int(rng.choice(len(mixture), p=mixture))
            out_of_state = rng.random() < spec.out_of_state_fraction
            stamp = datetime.combine(
                week_start + timedelta(days=int(rng.integers(7))),
                datetime.min.time(),
                tzinfo=timezone.utc,
            ) + timedelta(hours=int(rng.integers(24)), minutes=int(rng.integers(60)))
            docs.append(
                {
                    "id": f"{source}-{t:04d}-{i:03d}",
                    "timestamp": stamp.isoformat().replace("+00:00", "Z"),
                    "text": _make_text(det, lexicon, rng, out_of_state),
                }
            )
    return docs


@pytest.mark.parametrize("docs_per_week", [0.5, 12.0, 120.0])
@pytest.mark.parametrize("social_lead", [0, 4])
@pytest.mark.parametrize("out_of_state_fraction", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 7, 1001])
def test_documents_match_the_reference_generator(docs_per_week, social_lead, out_of_state_fraction, seed):
    weeks = 6 if docs_per_week > 100 else 40
    spec = SynthSpec(
        weeks=weeks, docs_per_week=docs_per_week, social_lead=social_lead,
        out_of_state_fraction=out_of_state_fraction,
    )
    severity = generate_severity(spec, np.random.default_rng(seed))
    fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for source in ("social", "news"):
        got = generate_documents(spec, severity, source, fast)
        want = _reference_generate_documents(spec, severity, source, slow)
        assert got == want
        # the next source (or the next draw of any kind) continues from the same state
        assert fast.bit_generator.state == slow.bit_generator.state


def test_written_lines_match_the_reference(tmp_path):
    spec = SynthSpec(weeks=20, docs_per_week=12.0)
    paths = write_dataset(tmp_path, spec, seed=3)
    rng = np.random.default_rng(3)
    severity = generate_severity(spec, rng)
    for source in ("social", "news"):
        docs = _reference_generate_documents(spec, severity, source, rng)
        assert paths[source].read_text() == "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)


@pytest.mark.parametrize("n", range(1, 21))
def test_sample_without_replacement_is_generator_choice(n):
    for size in range(min(n, 4) + 1):
        bounds = np.array(_choice_bounds(n, size), dtype=np.int64)
        for seed in range(50):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_without_replacement(fast.integers(0, bounds).tolist(), n, size)
            assert got == slow.choice(n, size, replace=False).tolist(), (n, size, seed)
            assert fast.bit_generator.state == slow.bit_generator.state, (n, size, seed)


def test_zero_noise_is_exactly_periodic():
    spec = SynthSpec(weeks=104, noise_scale=0.0, seasonal_period=52.0)
    severity = generate_severity(spec, np.random.default_rng(0))
    np.testing.assert_allclose(severity[:52], severity[52:], atol=1e-9)


def test_severity_stays_in_dsci_range():
    spec = SynthSpec(weeks=200, noise_scale=80.0, seasonal_amplitude=300.0)
    severity = generate_severity(spec, np.random.default_rng(1))
    assert severity.min() >= 0.0 and severity.max() <= 500.0


def test_mixture_is_distribution_and_shifts_with_severity():
    low = determinant_mixture(50.0)
    high = determinant_mixture(450.0)
    for mix in (low, high):
        assert mix.shape == (len(DETERMINANT_NAMES),)
        assert abs(mix.sum() - 1.0) < 1e-12
        assert np.all(mix > 0)
    agri, water, recreation = 0, 8, 7
    assert high[agri] > low[agri]
    assert high[water] > low[water]
    assert high[recreation] < low[recreation]


def test_document_rate_rises_with_severity():
    spec = SynthSpec(weeks=60, docs_per_week=12.0, noise_scale=0.0)
    rng = np.random.default_rng(2)
    severity = generate_severity(spec, rng)
    docs = generate_documents(spec, severity, "news", rng)
    by_week = np.zeros(spec.weeks)
    for d in docs:
        week = int(d["id"].split("-")[1])
        by_week[week] += 1
    hi = severity > np.median(severity)
    assert by_week[hi].mean() > by_week[~hi].mean()


def test_write_dataset_reproducible_byte_for_byte(tmp_path):
    spec = SynthSpec(weeks=30, docs_per_week=4.0)
    a = write_dataset(tmp_path / "a", spec, seed=7)
    b = write_dataset(tmp_path / "b", spec, seed=7)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_different_seed_changes_output(tmp_path):
    spec = SynthSpec(weeks=30, docs_per_week=4.0)
    a = write_dataset(tmp_path / "a", spec, seed=7)
    b = write_dataset(tmp_path / "b", spec, seed=8)
    assert a["dsci"].read_bytes() != b["dsci"].read_bytes()


def test_outputs_feed_the_ingest_pipeline(tmp_path):
    spec = SynthSpec(weeks=40, docs_per_week=6.0)
    paths = write_dataset(tmp_path, spec, seed=0)
    series = load_severity(paths["dsci"])
    assert len(series) == 40
    entities = EntityList.from_file(paths["entities"])
    assert entities.entities == frozenset(IN_STATE_PLACES)
    result = load_documents(paths["social"], series)
    assert result.malformed_count == 0
    assert len(result.documents) > 0
    kept = geofilter(result.documents, entities)
    # out-of-state docs exist and are dropped; most docs survive
    assert 0 < len(kept) < len(result.documents)
    assert len(kept) > 0.7 * len(result.documents)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(weeks=0)
    with pytest.raises(ValueError):
        SynthSpec(social_lead=-1)
    with pytest.raises(ValueError):
        SynthSpec(out_of_state_fraction=1.5)
    for field, value in (
        ("base_severity", float("nan")),
        ("seasonal_amplitude", float("inf")),
        ("seasonal_period", float("-inf")),
        ("noise_scale", float("nan")),
        ("ar_coeff", float("inf")),
        ("docs_per_week", float("nan")),
        ("docs_per_week", float("inf")),
        ("out_of_state_fraction", float("nan")),
        ("seasonal_period", 0.0),
        ("seasonal_period", -52.0),
    ):
        with pytest.raises(ValueError, match=field):
            SynthSpec(**{field: value})


def test_zero_lead_makes_sources_statistically_identical():
    # same mixture driver for both sources: aggregate determinant
    # frequencies agree up to sampling noise
    spec = SynthSpec(weeks=150, docs_per_week=20.0, social_lead=0)
    rng = np.random.default_rng(9)
    severity = generate_severity(spec, rng)
    social = generate_documents(spec, severity, "social", rng)
    news = generate_documents(spec, severity, "news", rng)

    lexicon = {name: set(terms) for name, terms in
               __import__("side.dsiq", fromlist=["load_lexicon"]).load_lexicon().items()}

    def det_freq(docs):
        counts = np.zeros(len(DETERMINANT_NAMES))
        for d in docs:
            words = set(d["text"].split())
            for i, name in enumerate(DETERMINANT_NAMES):
                if words & lexicon[name]:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        return counts / counts.sum()

    gap = np.abs(det_freq(social) - det_freq(news)).max()
    assert gap < 0.03, f"sources diverged by {gap:.3f}"
