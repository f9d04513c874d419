"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``side`` layers from outside
the package: it replaces each function object, wherever a ``side`` module
holds a reference to it, with a wrapper that records one span (name,
start, end, parent) per call.  Counting hooks run after selected calls;
their own cost is recorded as ``trace.hooks`` spans so that it is not
charged to a layer.

Run as a script, this file executes one ``side`` CLI stage with tracing
on and writes the spans as two JSON lines (payload, then the time the
payload was written):

    python3 bench/spans.py SPANS.jsonl SPAWN_TIME quantify --config run.json

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so the span
``stage.startup`` covers interpreter start-up and imports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

clock = time.monotonic

#: Layer modules and the public functions wrapped in each.  The tensor op
#: constructors of ``side.numerics`` (add, matmul, tanh, ...) and
#: ``side.dsiq.tokenize`` are left out: they run thousands of times per
#: window or per corpus, a span costs about as much as one of them, and
#: their time stays in the self time of the function that calls them.
TRACED = {
    "side.core": ("make_windows", "chronological_split", "split_sizes", "training_cutoff"),
    "side.ingest": ("load_severity", "load_documents", "geofilter"),
    "side.dsiq": (
        "load_lexicon",
        "backend_from_env",
        "fit_topic_model",
        "doc_matrix",
        "kmeans",
        "cluster_keywords",
        "map_topic",
        "assign_clusters",
        "quantify",
        "build_impact_series",
        "write_impact_csv",
        "read_impact_csv",
    ),
    "side.model": (
        "init_params",
        "sinusoidal_positions",
        "apply_input_mask",
        "forward",
        "encode",
        "cross_attend",
        "decode",
        "joint_loss",
    ),
    "side.numerics": ("backward", "adam_step", "decay_learning_rate", "save_checkpoint", "load_checkpoint"),
    "side.train_eval": (
        "train",
        "evaluate",
        "run_ablation",
        "compute_metrics",
        "baseline_persistence",
        "baseline_linear_ar",
        "save_run_checkpoint",
        "load_run_checkpoint",
        "write_history_csv",
        "write_metrics_csv",
    ),
}


def graph_size(root) -> int:
    """Nodes reachable from ``root`` through ``Node.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_load(counts, args, kwargs, result):
    dropped = result.malformed_count + result.empty_text_count + result.out_of_range_count
    counts["ingest.docs_read"] += len(result.documents) + dropped
    counts["ingest.docs_dropped"] += dropped


def _count_geofilter(counts, args, kwargs, result):
    docs = args[0] if args else kwargs["docs"]
    counts["ingest.geofilter.in"] += len(docs)
    counts["ingest.geofilter.kept"] += len(result)
    counts["ingest.docs_dropped"] += len(docs) - len(result)


def _count_topics(fn):
    signature = inspect.signature(fn)

    def hook(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["dsiq.topics.requested"] += bound.arguments["topic_count"]
        counts["dsiq.topics.live"] += len(result.clusters)

    return hook


def _count_loss_graph(counts, args, kwargs, result):
    counts["model.loss_graph_nodes"] += graph_size(result)


def _count_checkpoint(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["numerics.checkpoint_bytes"] += os.path.getsize(path)


def _count_train(counts, args, kwargs, result):
    counts["train_eval.epochs"] += len(result.history)


HOOKS = {
    "side.ingest.load_documents": _count_load,
    "side.ingest.geofilter": _count_geofilter,
    "side.model.joint_loss": _count_loss_graph,
    "side.numerics.save_checkpoint": _count_checkpoint,
    "side.train_eval.train": _count_train,
}


class Tracer:
    """Spans kept in memory as parallel lists; the open spans form a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(clock() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                h = tracer.open("trace.hooks")
                try:
                    hook(tracer.counts, args, kwargs, result)
                finally:
                    tracer.close(h)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind every reference to it."""
        replacements = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.removeprefix("side.")
            for fn_name in functions:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                full = f"{module_name}.{fn_name}"
                hook = HOOKS.get(full)
                if full == "side.dsiq.fit_topic_model":
                    hook = _count_topics(fn)
                replacements[id(fn)] = self.wrap(f"{layer}.{fn_name}", fn, hook)
        for module_name, module in list(sys.modules.items()):
            if module_name != "side" and not module_name.startswith("side."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def payload(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def self_times(names, starts, ends, parents) -> tuple[dict, Counter]:
    """Per-name total self time (duration minus children) and call counts."""
    child_time = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for i, name in enumerate(names):
        totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i]) - child_time[i]
        calls[name] += 1
    return totals, calls


def read_spans(path) -> tuple[dict, float]:
    """The payload a traced stage wrote, and the time it finished writing it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.loads(fh.readline())
        written = json.loads(fh.readline())["written"]
    return payload, written


def main(argv: list[str]) -> int:
    out_path, spawn_time, cli_args = argv[0], float(argv[1]), argv[2:]
    tracer = Tracer()
    startup = tracer.open("stage.startup", start=spawn_time)
    from side import cli

    install = tracer.open("trace.install")
    tracer.install()
    tracer.close(install)
    tracer.close(startup)

    root = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.payload()) + "\n")
            fh.flush()
            fh.write(json.dumps({"written": clock()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
