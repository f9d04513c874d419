"""Command-line surface tying the pipeline together.

Subcommands: ``quantify``, ``train``, ``evaluate``, ``ablate``,
``synth``, ``export-plots``.  Exit codes: 0 success, 2 user error
(bad config, missing files, parse failures), 3 numerical failure
(training divergence).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dsiq, ingest, synth, train_eval
from .core import (
    DETERMINANT_NAMES, SOURCES, chronological_split, make_windows, read_csv, training_cutoff, write_csv,
)
from .errors import ConfigError, DivergenceError, NumericsError, ParseError, SideError
from .model import ModelConfig, param_shapes

USER_ERROR = 2
NUMERIC_ERROR = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

#: ``*_predictions.csv``, written by ``evaluate`` and read by ``export-plots``.
PREDICTIONS_HEADER = ("start", "step", "timestep", "severity_true", "severity_pred") + tuple(
    f"{kind}_{name}" for kind in ("true", "pred") for name in dsiq.impact_csv_header()[1:]
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="side", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--log-level", choices=LOG_LEVELS, default="WARNING",
                       help="lowest level of log records printed to stderr (default WARNING)")
        return p

    def with_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--backend", choices=cfgmod.BACKENDS, default=None)
        p.add_argument("--state", choices=cfgmod.STATES, default=None)
        return p

    with_common(add_parser("quantify", help="text -> weekly impact distributions"))
    with_common(add_parser("train", help="fit the joint forecaster"))
    with_common(add_parser("evaluate", help="metrics on the test split"))
    with_common(add_parser("ablate", help="train/evaluate all four variants"))

    sp = add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weeks", type=int, default=330)
    sp.add_argument("--amplitude", type=float, default=120.0)
    sp.add_argument("--period", type=float, default=52.0)
    sp.add_argument("--noise", type=float, default=18.0)
    sp.add_argument("--lead", type=int, default=4)
    sp.add_argument("--docs-per-week", type=float, default=10.0)

    ep = add_parser("export-plots", help="plot-ready CSVs from a finished run")
    ep.add_argument("--run", required=True, help="run directory holding predictions")
    ep.add_argument("--state", choices=cfgmod.STATES, default="synth")
    return parser


def _load_config(args) -> cfgmod.RunConfig:
    cfg = cfgmod.load(args.config)
    return cfgmod.apply_overrides(cfg, seed=args.seed, backend=args.backend, state=args.state)


def _require_files(*paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise ConfigError(f"missing input files: {', '.join(missing)}")


def _out_path(cfg: cfgmod.RunConfig, suffix: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{cfg.state}_{suffix}"


def cmd_quantify(cfg: cfgmod.RunConfig) -> int:
    _require_files(cfg.dsci_path, cfg.social_path, cfg.news_path, cfg.entities_path)
    lexicon = dsiq.load_lexicon(cfg.lexicon_path)
    series = ingest.load_severity(cfg.dsci_path)
    entities = ingest.EntityList.from_file(cfg.entities_path)
    backend = dsiq.backend_from_env(cfg.backend, lexicon)
    cutoff = training_cutoff(len(series), cfg.model.lookback, cfg.model.horizon, cfg.split)

    docs, models = {}, {}
    for source, path in zip(SOURCES, (cfg.social_path, cfg.news_path)):
        result = ingest.load_documents(path, series)
        kept = docs[source] = ingest.geofilter(result.documents, entities)
        dropped = result.malformed_count + result.empty_text_count + result.out_of_range_count
        print(
            f"{source}: read {len(result.documents) + dropped}, malformed {result.malformed_count}, "
            f"empty {result.empty_text_count}, out of range {result.out_of_range_count}, "
            f"outside the state {len(result.documents) - len(kept)}, kept {len(kept)}"
        )
        del result  # the documents the geofilter dropped need not live through the topic fits
        # Topic models see training-range text only, never validation or test text.
        fit_docs = [d for d in kept if d.timestep < cutoff]
        if not fit_docs:
            raise ConfigError(
                f"no {source} document falls in the training range (before week {cutoff})"
            )
        models[source] = dsiq.fit_topic_model(
            fit_docs,
            backend,
            topic_count=cfg.topic_count,
            seed=cfg.train.seed,
            map_threshold=cfg.map_threshold,
        )

    impacts = dsiq.build_impact_series(docs["social"], docs["news"], len(series), models["social"], models["news"])
    impact_path = _out_path(cfg, "impact.csv")
    dsiq.write_impact_csv(impact_path, impacts)

    topics_path = _out_path(cfg, "topics.csv")
    rows = [(source, c.id, f'"{DETERMINANT_NAMES[c.determinant_index]}"', c.doc_count, " ".join(c.keywords))
            for source in SOURCES for c in models[source].clusters]
    write_csv(topics_path, ("source", "cluster_id", "determinant", "doc_count", "keywords"), rows)
    print(f"wrote {impact_path} and {topics_path}")
    return 0


def _provenance(cfg: cfgmod.RunConfig) -> dict:
    """What ``train`` records in the checkpoint and ``evaluate`` checks: the split and the input digests."""
    def sha256(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    return {"split": list(cfg.split), "dsci_sha256": sha256(cfg.dsci_path),
            "impact_sha256": sha256(_out_path(cfg, "impact.csv"))}


def _load_windows(cfg: cfgmod.RunConfig):
    impact_path = _out_path(cfg, "impact.csv")
    _require_files(cfg.dsci_path, impact_path)
    series = ingest.load_severity(cfg.dsci_path)
    impacts = dsiq.read_impact_csv(impact_path)
    windows = make_windows(series, impacts, cfg.model.lookback, cfg.model.horizon)
    return chronological_split(windows, cfg.split)


#: glibc ``mallopt`` parameters (malloc.h) and the trim threshold training sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES = 64 << 20


def _keep_freed_heap(model_cfg: ModelConfig) -> None:
    """Let freed heap memory stay in the process for the rest of its life.

    Training builds and frees one autodiff graph per few windows, and each
    backward pass allocates the weight gradients afresh.  These must come
    from kept heap, not from a fresh mmap that the next graph faults in
    again at more system time than the graph's arithmetic.  So freed
    memory goes back to the OS only once 64 MB of it sits at the top of
    the heap, and blocks up to the byte size of the largest parameter of
    ``model_cfg``, rounded up to a whole MiB (at least 1 MiB), come from
    the heap.  A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to open by this name
        return
    if mallopt is not None:
        largest_bytes = 8 * max(math.prod(shape) for shape in param_shapes(model_cfg).values())
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
        mallopt(_M_MMAP_THRESHOLD, max(1, math.ceil(largest_bytes / (1 << 20))) << 20)


def cmd_train(cfg: cfgmod.RunConfig) -> int:
    _keep_freed_heap(cfg.model)
    train_s, val_s, _ = _load_windows(cfg)
    provenance = _provenance(cfg)
    diverged = None
    try:
        result = train_eval.train(train_s, val_s, cfg.model, cfg.train)
    except DivergenceError as exc:
        result, diverged = exc.result, exc
    train_eval.save_run_checkpoint(_out_path(cfg, "checkpoint.json"), result, provenance)
    train_eval.write_history_csv(_out_path(cfg, "history.csv"), result.history)
    if diverged:
        print(f"training diverged: {diverged}", file=sys.stderr)
        return NUMERIC_ERROR
    print(
        f"trained {len(result.history)} epochs, best val loss "
        f"{result.best_val_loss:.6f} at epoch {result.best_epoch}"
    )
    return 0


def _write_predictions_csv(path, predictions, lookback: int) -> None:
    p = predictions
    severity = [p.severity_true[..., None], p.severity_pred[..., None]]
    values = np.concatenate(severity + [p.impact_true, p.impact_pred], axis=2)
    rows = ([start, step, start + lookback + step, *values[i, step].tolist()]
            for i, start in enumerate(p.starts.tolist()) for step in range(values.shape[1]))
    write_csv(path, PREDICTIONS_HEADER, rows)


def cmd_evaluate(cfg: cfgmod.RunConfig) -> int:
    checkpoint_path = _out_path(cfg, "checkpoint.json")
    _require_files(checkpoint_path)
    train_s, _, test_s = _load_windows(cfg)
    params, standardizer = train_eval.load_run_checkpoint(checkpoint_path, cfg.model, _provenance(cfg))

    result = train_eval.evaluate(params, cfg.model, standardizer, test_s)
    reports = {
        cfg.model.ablation: result.report,
        "persistence": train_eval.baseline_persistence(test_s),
        "linear_ar": train_eval.baseline_linear_ar(train_s, test_s),
    }
    train_eval.write_metrics_csv(_out_path(cfg, "metrics.csv"), reports)
    _write_predictions_csv(_out_path(cfg, "predictions.csv"), result.predictions, cfg.model.lookback)
    severity = result.report.per_target["severity"]
    print(
        f"severity MAE {severity.mae:.3f} RMSE {severity.rmse:.3f} MFA {severity.mfa:.3f}"
    )
    return 0


def cmd_ablate(cfg: cfgmod.RunConfig) -> int:
    _keep_freed_heap(cfg.model)
    train_s, val_s, test_s = _load_windows(cfg)
    results = train_eval.run_ablation(train_s, val_s, test_s, cfg.model, cfg.train)
    reports = {variant: res.report for variant, res in results.items()}
    train_eval.write_metrics_csv(_out_path(cfg, "metrics.csv"), reports)
    for variant, res in results.items():
        sev = res.report.per_target["severity"]
        print(f"{variant}: severity MAE {sev.mae:.3f}")
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        weeks=args.weeks,
        seasonal_amplitude=args.amplitude,
        seasonal_period=args.period,
        noise_scale=args.noise,
        social_lead=args.lead,
        docs_per_week=args.docs_per_week,
    )
    paths = synth.write_dataset(args.out, spec, args.seed)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_export_plots(run_dir, state: str) -> int:
    run = Path(run_dir)
    pred_path = run / f"{state}_predictions.csv"
    if not pred_path.exists():
        raise ConfigError(f"missing evaluation artifact: {pred_path}")

    rows = read_csv(pred_path, PREDICTIONS_HEADER)
    if not rows:
        raise ParseError(f"{pred_path}: no data rows")
    table = []
    for lineno, cells in rows:
        try:
            table.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"{pred_path}:{lineno}: {exc}") from exc
    table = np.array(table)

    severity_path = run / f"{state}_plot_severity.csv"
    write_csv(severity_path, ("start", "step", "timestep", "actual", "predicted"), [c[:5] for _, c in rows])

    # true_* then pred_* columns; np.mean per 1-D column, as mean(axis=0) sums in another order
    means = [float(np.mean(table[:, j])) for j in range(5, table.shape[1])]
    labels = [(source, f'"{name}"') for source in SOURCES for name in DETERMINANT_NAMES]
    bars = [(*label, means[len(labels) + k], means[k]) for k, label in enumerate(labels)]
    bars_path = run / f"{state}_plot_determinants.csv"
    write_csv(bars_path, ("source", "determinant", "predicted", "actual"), bars)
    print(f"wrote {severity_path} and {bars_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The handler and level sit on the package logger only for this call, so
    # calling main again in one process (as the tests do) stacks no handlers.
    logger = logging.getLogger("side")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.setLevel(args.log_level)
    logger.addHandler(handler)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _run(args) -> int:
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "export-plots":
            return cmd_export_plots(args.run, args.state)
        commands = {"quantify": cmd_quantify, "train": cmd_train, "evaluate": cmd_evaluate, "ablate": cmd_ablate}
        return commands[args.command](_load_config(args))
    except (DivergenceError, NumericsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (SideError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
