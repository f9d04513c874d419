"""Benchmark of the side pipeline: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_default --seed 0 --seconds 25 --trace 0

The run builds its inputs with ``side synth`` from the seed, runs the
workload's CLI stages as fresh processes for about ``--seconds`` (every
data set at least once), checks every stage's outputs, and prints a
report.  Times are in reference seconds: the harness probes the CPU's
speed while each process runs (see ``harness.SpeedProbe``).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each pass runs once untraced and once traced, and the metrics are the
per-layer ones.  The full record (samples, digests, environment) goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result, harness) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    env = result.env
    print(
        f"env nproc={env['nproc']} cpus_usable={env['cpus_usable']} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas']!r} blas_threads={env['blas_threads']}"
        f" reference_rate={env['reference_rate']} seed={env['seed']}"
    )
    error_rate = result.failed / result.attempted
    print(f"error_rate {error_rate:.6g} ratio ({result.failed} of {result.attempted} stage runs failed)")
    for problem in result.problems:
        print(f"problem: {problem}")
    if result.untraced:
        print(f"note: traced functions not found, so not traced: {', '.join(result.untraced)}")

    setup = harness.summary(result.setup_s) if result.setup_s else None
    metrics = {}
    if setup:
        metrics["setup_s"] = {"value": setup["median"], "unit": "s"}
        print(f"setup_s {fmt(setup['median'])} s (median of n={setup['n']} set-ups)")
        print(f"setup_wall_s {fmt(statistics.median(result.setup_wall_s))} s (median of n={setup['n']} set-ups)")
    for name, unit in {**harness.END_TO_END, **harness.STAGE_METRICS}.items():
        values = result.samples.get(name)
        if not values:
            continue
        s = harness.summary(values)
        value = harness.run_value(values, result.sample_datasets)
        tail = ", ".join(f"{k} {fmt(v)}" for k, v in s.items() if k.startswith("p")) or "no tail percentile"
        print(
            f"{name} {fmt(value)} {unit} (mean over {len(set(result.sample_datasets))} data sets of the median"
            f" over their passes, n={s['n']} passes; median {fmt(s['median'])}; {tail})"
        )
        if name in harness.END_TO_END:
            metrics[name] = {"value": value, "unit": unit}

    for dataset, base in result.baselines.items():
        print(
            f"quality {dataset}: severity_mae {fmt(base['model'])} DSCI vs persistence {fmt(base['persistence'])}"
            f", linear_ar {fmt(base['linear_ar'])} (test split)"
        )
    for dataset, digests in result.digests.items():
        for suffix, digest in sorted(digests.items()):
            print(f"sha256 {dataset} {harness.STATE}_{suffix} {digest}")

    if result.trace:
        metrics = {}
        for name, unit in harness.PER_LAYER.items():
            values = [layer[name] for layer in result.layers]
            if not values:
                continue
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {fmt(value)} {unit} (median of n={len(values)} traced passes)")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind normally so that running stages are killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "side" / "cli.py").is_file():
        print(f"error: no side sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    # Before numpy is imported here; stage processes get the same setting.
    os.environ.update({var: str(harness.BLAS_THREADS) for var in harness.BLAS_ENV})
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(result, harness)

    results_dir = harness.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(vars(result), indent=1))

    line = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
