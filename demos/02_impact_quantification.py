"""
From raw text to weekly impact distributions
============================================

Documents are clustered into topics per source, each topic is mapped to
one of the eleven societal impact determinants, and weekly document
counts become a normalized impact series, one row per week.  Here the corpus is synthetic,
so we can see the machinery end to end without any remote service: the
shipped lexicon provides the topic -> determinant scores.
"""

import tempfile

from side import dsiq, ingest, synth
from side.core import DETERMINANT_COUNT, DETERMINANT_NAMES, training_cutoff

# Generate a small corpus: severity drives both how much gets written
# and what it is about (high weeks tilt toward agriculture and water).
spec = synth.SynthSpec(weeks=80, docs_per_week=8.0, social_lead=3)
with tempfile.TemporaryDirectory() as tmp:
    paths = synth.write_dataset(tmp, spec, seed=1)

    series = ingest.load_severity(paths["dsci"])
    entities = ingest.EntityList.from_file(paths["entities"])

    # A document's source is the file it came from: one list per source.
    social = ingest.load_documents(paths["social"], series)
    news = ingest.load_documents(paths["news"], series)
    print(f"loaded {len(social.documents)} posts, {len(news.documents)} articles")

    # Geographic filtering keeps only documents naming an in-state place.
    social_docs = ingest.geofilter(social.documents, entities)
    news_docs = ingest.geofilter(news.documents, entities)
    print(f"after geofilter: {len(social_docs)} posts, {len(news_docs)} articles")

# Topic models are fitted on the training date range only and then
# frozen, so validation/test weeks never leak into the vocabulary.
backend = dsiq.LexiconBackend()
cutoff = training_cutoff(len(series), lookback=20, horizon=4)

social_model = dsiq.fit_topic_model(
    [d for d in social_docs if d.timestep < cutoff],
    backend, topic_count=20, seed=0,
)
news_model = dsiq.fit_topic_model(
    [d for d in news_docs if d.timestep < cutoff],
    backend, topic_count=20, seed=0,
)

print("\nfirst social topics:")
for cluster in social_model.clusters[:5]:
    name = DETERMINANT_NAMES[cluster.determinant_index]
    print(f"  topic {cluster.id:2d} -> {name:30s} keywords: {', '.join(cluster.keywords[:5])}")

# One impact row per week: social and news halves, each either
# normalized to 1 or all-zero when that source was silent.
impacts = dsiq.build_impact_series(social_docs, news_docs, len(series), social_model, news_model)
print(f"\nimpact series: {impacts.shape[0]} weeks x {impacts.shape[1]} components")

week = impacts[10]
print(f"week 10 severity={series.values[10]:.0f}")
social_part, news_part = week[:DETERMINANT_COUNT], week[DETERMINANT_COUNT:]
for name, s_val, n_val in zip(DETERMINANT_NAMES, social_part, news_part):
    bar = "#" * int(40 * s_val)
    print(f"  {name:32s} social={s_val:.2f} news={n_val:.2f} {bar}")
