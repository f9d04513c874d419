"""Synthetic dataset generator: shapes, coupling, reproducibility."""

import numpy as np
import pytest

from side.core import Source
from side.core import DETERMINANT_NAMES
from side.ingest import EntityList, geofilter, load_documents, load_severity
from side.synth import (
    IN_STATE_PLACES,
    SynthSpec,
    determinant_mixture,
    generate_documents,
    generate_severity,
    write_dataset,
)


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
    result = load_documents(paths["social"], Source.SOCIAL, series)
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
