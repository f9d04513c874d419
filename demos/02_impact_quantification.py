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

import numpy as np

from side import dsiq, ingest, synth
from side.core import DETERMINANT_COUNT, DETERMINANT_NAMES, SOURCES, training_cutoff

# Generate a small corpus: severity drives both how much gets written
# and what it is about (high weeks tilt toward agriculture and water).
with tempfile.TemporaryDirectory() as tmp:
    paths = synth.write_dataset(tmp, weeks=80, docs_per_week=8.0, seed=1)

    series = ingest.load_severity(paths["dsci"])
    entities = ingest.EntityList.from_file(paths["entities"])

    # A document's source is the file it came from.  Per source, the
    # documents naming no in-state place are dropped, a topic model is
    # fitted on the training date range only and then frozen (so
    # validation/test weeks never leak into the vocabulary), and every
    # week's documents become that source's half of the impact row.
    backend = dsiq.LexiconBackend()
    cutoff = training_cutoff(len(series), lookback=20, horizon=4)
    models, halves = {}, []
    for source in SOURCES:
        counts, model, half = dsiq.quantify_source(
            source, paths[source], series, entities, backend, cutoff, topic_count=20, seed=0
        )
        print(f"{source}: read {counts['read']}, kept {counts['kept']} after the geofilter")
        models[source] = model
        halves.append(half)

print("\nfirst social topics:")
for topic_id, cluster in enumerate(models["social"].clusters[:5]):
    name = DETERMINANT_NAMES[cluster.determinant_index]
    print(f"  topic {topic_id:2d} -> {name:30s} keywords: {', '.join(cluster.keywords[:5])}")

# One impact row per week: social and news halves side by side, each
# either normalized to 1 or all-zero when that source was silent.
impacts = np.hstack(halves)
print(f"\nimpact series: {impacts.shape[0]} weeks x {impacts.shape[1]} components")

week = impacts[10]
print(f"week 10 severity={series.values[10]:.0f}")
social_part, news_part = week[:DETERMINANT_COUNT], week[DETERMINANT_COUNT:]
for name, s_val, n_val in zip(DETERMINANT_NAMES, social_part, news_part):
    bar = "#" * int(40 * s_val)
    print(f"  {name:32s} social={s_val:.2f} news={n_val:.2f} {bar}")
