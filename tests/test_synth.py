"""Synthetic dataset generator: shapes, coupling, reproducibility."""

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from side import synth
from side.core import DETERMINANT_NAMES, DSCI_MAX, OTHER_INDEX
from side.dsiq import load_lexicon
from side.ingest import EntityList, geofilter, load_documents, load_severity
from side.synth import (
    FILLERS,
    IN_STATE_PLACES,
    OTHER_TERMS,
    OUT_OF_STATE_PLACES,
    _choice_bounds,
    _draw_chunk,
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


def _reference_generate_documents(severity, docs_per_week, source, rng):
    """One ``choice`` or ``integers`` call per random value and a datetime
    stamp per document: the documents ``generate_documents`` must match."""
    lexicon = load_lexicon()
    weeks = len(severity)
    lead = synth.SOCIAL_LEAD if source == "social" else 0
    docs = []
    for t in range(weeks):
        driver = severity[min(t + lead, weeks - 1)]
        lam = docs_per_week * (0.35 + 1.3 * driver / DSCI_MAX)
        count = int(rng.poisson(lam))
        mixture = determinant_mixture(driver)
        week_start = synth.START + timedelta(days=7 * t)
        for i in range(count):
            det = int(rng.choice(len(mixture), p=mixture))
            out_of_state = rng.random() < synth.OUT_OF_STATE_FRACTION
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
def test_documents_match_the_reference_generator(monkeypatch, docs_per_week, social_lead, out_of_state_fraction, seed):
    weeks = 6 if docs_per_week > 100 else 40
    monkeypatch.setattr(synth, "SOCIAL_LEAD", social_lead)
    monkeypatch.setattr(synth, "OUT_OF_STATE_FRACTION", out_of_state_fraction)
    severity = generate_severity(weeks, np.random.default_rng(seed))
    slow = np.random.default_rng(seed + 1)
    want = []
    for source in ("social", "news"):
        want.append((source, _reference_generate_documents(severity, docs_per_week, source, slow), slow.bit_generator.state))
    # one document a chunk, and chunks that split weeks, count ids on across them
    for chunk_docs in (synth.CHUNK_DOCS, 1, 5):
        monkeypatch.setattr(synth, "CHUNK_DOCS", chunk_docs)
        fast = np.random.default_rng(seed + 1)
        for source, docs, state in want:
            lines = list(generate_documents(severity, docs_per_week, source, fast))
            assert [json.loads(line) for line in lines] == docs
            assert lines == [json.dumps(doc, sort_keys=True) for doc in docs]
            # the next source (or the next draw of any kind) continues from the same state
            assert fast.bit_generator.state == state



def test_document_numbers_past_999_match_the_reference_generator(monkeypatch):
    # ids past 999 are formatted, not looked up; at 997 documents a chunk,
    # one chunk runs from 997 to 1993 and the next starts at 1994
    severity = generate_severity(2, np.random.default_rng(4))
    slow = np.random.default_rng(5)
    want = []
    for source in ("social", "news"):
        want.append((source, _reference_generate_documents(severity, 3000.0, source, slow), slow.bit_generator.state))
    assert {len(doc["id"].rsplit("-", 1)[1]) for _, docs, _ in want for doc in docs} == {3, 4}
    for chunk_docs in (synth.CHUNK_DOCS, 997):
        monkeypatch.setattr(synth, "CHUNK_DOCS", chunk_docs)
        fast = np.random.default_rng(5)
        for source, docs, state in want:
            assert list(generate_documents(severity, 3000.0, source, fast)) == [
                json.dumps(doc, sort_keys=True) for doc in docs
            ]
            assert fast.bit_generator.state == state


def test_written_lines_match_the_reference(tmp_path):
    paths = write_dataset(tmp_path, 20, 12.0, seed=3)
    rng = np.random.default_rng(3)
    severity = generate_severity(20, rng)
    for source in ("social", "news"):
        docs = _reference_generate_documents(severity, 12.0, source, rng)
        assert paths[source].read_text() == "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)


@pytest.mark.parametrize("n", range(1, 21))
def test_sample_without_replacement_is_generator_choice(n):
    for size in range(min(n, 4) + 1):
        bounds = np.array(_choice_bounds(n, size), dtype=np.int64)
        for seed in range(50):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_without_replacement(fast.integers(0, bounds)[None], n, size)
            assert got.tolist() == [slow.choice(n, size, replace=False).tolist()], (n, size, seed)
            assert fast.bit_generator.state == slow.bit_generator.state, (n, size, seed)


def test_zero_noise_is_exactly_periodic(monkeypatch):
    monkeypatch.setattr(synth, "NOISE_SCALE", 0.0)
    assert synth.SEASONAL_PERIOD == 52.0
    severity = generate_severity(104, np.random.default_rng(0))
    np.testing.assert_allclose(severity[:52], severity[52:], atol=1e-9)


def test_severity_stays_in_dsci_range(monkeypatch):
    monkeypatch.setattr(synth, "NOISE_SCALE", 80.0)
    monkeypatch.setattr(synth, "SEASONAL_AMPLITUDE", 300.0)
    severity = generate_severity(200, np.random.default_rng(1))
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


def test_document_rate_rises_with_severity(monkeypatch):
    monkeypatch.setattr(synth, "NOISE_SCALE", 0.0)
    rng = np.random.default_rng(2)
    severity = generate_severity(60, rng)
    docs = generate_documents(severity, 12.0, "news", rng)
    by_week = np.zeros(60)
    for line in docs:
        week = int(json.loads(line)["id"].split("-")[1])
        by_week[week] += 1
    hi = severity > np.median(severity)
    assert by_week[hi].mean() > by_week[~hi].mean()


def test_write_dataset_reproducible_byte_for_byte(tmp_path):
    a = write_dataset(tmp_path / "a", 30, 4.0, seed=7)
    b = write_dataset(tmp_path / "b", 30, 4.0, seed=7)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_different_seed_changes_output(tmp_path):
    a = write_dataset(tmp_path / "a", 30, 4.0, seed=7)
    b = write_dataset(tmp_path / "b", 30, 4.0, seed=8)
    assert a["dsci"].read_bytes() != b["dsci"].read_bytes()


def test_outputs_feed_the_ingest_pipeline(tmp_path):
    paths = write_dataset(tmp_path, 40, 6.0, seed=0)
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


def test_spec_validation(tmp_path):
    # the week after 2017-01-02 + 416,532 weeks would end past date.max (9999-12-31)
    for weeks, docs_per_week, field in (
        (0, 4.0, "weeks"),
        (416_533, 0.0, "weeks"),
        (10, float("nan"), "docs_per_week"),
        (10, float("inf"), "docs_per_week"),
        (10, -1.0, "docs_per_week"),
        (10, 1e19, "docs_per_week"),
    ):
        with pytest.raises(ValueError, match=field):
            write_dataset(tmp_path / "d", weeks, docs_per_week, seed=0)
        assert not (tmp_path / "d").exists()


def test_documents_stream_one_at_a_time():
    # a billion documents a week: the first arrives without the week being drawn
    severity = generate_severity(3, np.random.default_rng(0))
    line = next(generate_documents(severity, 1e9, "social", np.random.default_rng(1)))
    assert json.loads(line)["id"] == "social-0000-000"


def _outputs_between(before, after):
    """How many raw outputs a PCG64 generator drew from state ``before`` to ``after``."""
    clone = np.random.PCG64()
    clone.state = before
    drawn = 0
    while clone.state["state"] != after["state"]:
        clone.random_raw()
        drawn += 1
    return drawn


def test_draw_chunk_matches_the_calls_through_rejections():
    # a bound of 3 * 2**30 repeats a draw whose (u * b) mod 2**32 is below
    # 2**30, a quarter of them; 2**32 takes the half as it is
    cdf = determinant_mixture(300.0).cumsum()
    cdf /= cdf[-1]
    bounds = np.empty((len(cdf), 2, 12), dtype=np.int64)
    bounds[...] = (7, 24, 60, 3 * 2**30, 14, 15, 3, 2, 11, 12, 2**32, 8)
    bounds[:, :, 0] = 2 + np.arange(2 * len(cdf)).reshape(len(cdf), 2)
    fast, slow = np.random.default_rng(5), np.random.default_rng(5)
    seen = set()
    for chunk in range(300):
        n = 1 + chunk % 3
        before = slow.bit_generator.state
        det, out_of_state, draws = _draw_chunk(fast, n, cdf, bounds)
        for i in range(n):
            d = np.searchsorted(cdf, slow.random(), side="right")
            o = slow.random() < synth.OUT_OF_STATE_FRACTION
            assert (det[i], out_of_state[i]) == (d, o), chunk
            assert draws[i].tolist() == slow.integers(0, bounds[d, int(o)]).tolist(), chunk
        after = slow.bit_generator.state
        assert fast.bit_generator.state == after, chunk
        # eight outputs a document and the same leftover half: no draw was repeated
        repeated = _outputs_between(before, after) != 8 * n or after["has_uint32"] != before["has_uint32"]
        seen.add((before["has_uint32"], repeated))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_a_generator_other_than_pcg64_is_refused():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        generate_documents(np.full(3, 200.0), 12.0, "news", rng)
    assert rng.random() == np.random.Generator(np.random.MT19937(0)).random()


def test_zero_lead_makes_sources_statistically_identical(monkeypatch):
    # same mixture driver for both sources: aggregate determinant
    # frequencies agree up to sampling noise
    monkeypatch.setattr(synth, "SOCIAL_LEAD", 0)
    rng = np.random.default_rng(9)
    severity = generate_severity(150, rng)
    social = list(generate_documents(severity, 20.0, "social", rng))
    news = list(generate_documents(severity, 20.0, "news", rng))

    lexicon = {name: set(terms) for name, terms in
               __import__("side.dsiq", fromlist=["load_lexicon"]).load_lexicon().items()}

    def det_freq(docs):
        counts = np.zeros(len(DETERMINANT_NAMES))
        for line in docs:
            words = set(json.loads(line)["text"].split())
            for i, name in enumerate(DETERMINANT_NAMES):
                if words & lexicon[name]:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        return counts / counts.sum()

    gap = np.abs(det_freq(social) - det_freq(news)).max()
    assert gap < 0.03, f"sources diverged by {gap:.3f}"
