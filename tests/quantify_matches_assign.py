"""Check that ``side quantify``'s topic fits give each fit document the topic ``assign_clusters`` gives it.

Usage, from the root of a checkout:

    side synth --out DIR --seed SEED --weeks WEEKS --docs-per-week DOCS
    PYTHONPATH=src python tests/quantify_matches_assign.py DIR

``quantify_source`` counts the training-range documents under the topics
their fit returns and assigns only the later ones.  For each source of
``DIR``, fitted as ``side quantify`` fits it at the default config, the
fit's topics must equal ``assign_clusters`` over the same documents,
``BLOCK_ROWS`` at a time; otherwise the script exits 1 naming the source
and the first document that differs.
"""

import sys
from pathlib import Path

import numpy as np

from side import dsiq, ingest
from side.config import RunConfig
from side.core import SOURCES, training_cutoff


def main(out_dir):
    cfg = RunConfig()
    series = ingest.load_severity(Path(out_dir, "dsci.csv"))
    entities = ingest.EntityList.from_file(Path(out_dir, "entities.txt"))
    cutoff = training_cutoff(len(series), cfg.model.lookback, cfg.model.horizon)
    fit_topic_model = dsiq.fit_topic_model
    fits = []

    def recorded(tokens, *args, **kwargs):
        fit = fit_topic_model(tokens, *args, **kwargs)
        fits.append((tokens, fit))
        return fit

    dsiq.fit_topic_model = recorded
    for source, name in zip(SOURCES, ("posts.jsonl", "news.jsonl")):
        dsiq.quantify_source(source, Path(out_dir, name), series, entities, dsiq.LexiconBackend(), cutoff,
                             cfg.topic_count, cfg.train.seed)
        tokens, (model, topics) = fits.pop()
        blocks = tokens.in_vocabulary(model.vocabulary).blocks()
        assigned = np.concatenate([dsiq.assign_clusters(block, model) for block in blocks])
        differ = np.flatnonzero(topics != assigned)
        if len(differ):
            i = differ[0]
            sys.exit(f"{source}: fit document {i} of {len(topics)} has topic {topics[i]} from the fit and "
                     f"{assigned[i]} from assign_clusters ({len(differ)} documents differ)")
        print(f"{source}: {len(topics)} fit documents, {len(model.clusters)} topics, equal")


if __name__ == "__main__":
    main(*sys.argv[1:])
