"""The benchmark's counting hooks against the functions they wrap.

``bench/spans.py`` is loaded as a module, without running the harness, so
that an API change which would break the traced benchmark run fails here.
"""

import importlib
import importlib.util
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

from side.core import SeveritySeries
from side.ingest import EntityList, geofilter, load_documents

_spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


#: Traced names whose function is gone from ``side``; the tracer skips them,
#: and the benchmark drops them from ``TRACED`` when it next changes.
RETIRED = {"side.dsiq.build_impact_series"}


def test_every_traced_name_is_a_side_function():
    # a renamed or removed function would silently drop its per-layer metric
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(module_name)
        for fn_name in functions:
            if f"{module_name}.{fn_name}" not in RETIRED:
                assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_every_hook_names_a_traced_side_function():
    for name in spans.HOOKS:
        module_name, fn_name = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module_name), fn_name, None)), name
        assert fn_name in spans.TRACED[module_name], name


def test_ingest_hooks_count_the_real_return_values(tmp_path):
    week0 = date(2017, 1, 2)
    lines = [
        '{"id": "a", "timestamp": "%sT10:00:00Z", "text": "dust in fresno"}' % week0,
        "{not json",
        '{"id": "b", "timestamp": "%sT10:00:00Z", "text": " "}' % (week0 + timedelta(weeks=1)),
        '{"id": "c", "timestamp": "2030-01-01T00:00:00Z", "text": "fresno, later"}',
        '{"id": "d", "timestamp": "%sT10:00:00Z", "text": "rain elsewhere"}' % (week0 + timedelta(weeks=2)),
        '{"id": "e", "timestamp": "%sT10:00:00Z", "text": "Fresno wells"}' % (week0 + timedelta(weeks=3)),
    ]
    path = tmp_path / "posts.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    series = SeveritySeries(start=week0, values=[100.0] * 4)
    entities = EntityList.from_terms(["fresno"])

    counts = Counter()
    loaded = load_documents(path, series)
    spans._count_load(counts, (path, series), {}, loaded)
    assert counts == {"ingest.docs_read": 6, "ingest.docs_dropped": 3}

    kept = geofilter(loaded.documents, entities)
    spans._count_geofilter(counts, (loaded.documents, entities), {}, kept)
    assert counts == {
        "ingest.docs_read": 6,
        "ingest.docs_dropped": 4,
        "ingest.geofilter.in": 3,
        "ingest.geofilter.kept": 2,
    }

    # the hook also finds the documents when they are passed by keyword
    by_keyword = Counter()
    kwargs = {"docs": loaded.documents, "entities": entities}
    spans._count_geofilter(by_keyword, (), kwargs, geofilter(**kwargs))
    assert by_keyword == {"ingest.geofilter.in": 3, "ingest.geofilter.kept": 2, "ingest.docs_dropped": 1}
