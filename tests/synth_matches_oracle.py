"""Check that a ``side synth`` output directory holds the per-call generator's lines.

Usage, from the root of a checkout:

    side synth --out DIR --seed SEED --weeks WEEKS --docs-per-week DOCS
    PYTHONPATH=src python tests/synth_matches_oracle.py DIR SEED WEEKS DOCS

``posts.jsonl`` and ``news.jsonl`` must equal, byte for byte, the lines of
``test_synth._reference_generate_documents``, which makes one numpy
``choice`` or ``integers`` call per random value.
"""

import json
import sys
from pathlib import Path

import numpy as np
from test_synth import _reference_generate_documents

from side.synth import generate_severity


def main(out_dir, seed, weeks, docs_per_week):
    rng = np.random.default_rng(int(seed))
    severity = generate_severity(int(weeks), rng)
    for source, name in (("social", "posts.jsonl"), ("news", "news.jsonl")):
        docs = _reference_generate_documents(severity, float(docs_per_week), source, rng)
        lines = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
        if Path(out_dir, name).read_bytes() != lines.encode():
            sys.exit(f"{name} differs from the per-call generator's {len(docs)} lines")
        print(f"{name}: {len(docs)} lines equal")


if __name__ == "__main__":
    main(*sys.argv[1:])
