"""Self-test of the benchmark harness on the seconds-long ``smoke`` workload.

    python3 bench/selftest.py

Asserts that:
- every named metric is emitted with its unit, untraced and traced;
- a deliberately corrupted output raises error_rate above 0;
- traced self-times add up to each traced stage's wall time within
  trace.overhead_s, and the exact counts repeat between two traced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402


def emitted(result) -> dict:
    """Run the report on ``result`` and parse its printed lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        metrics = run.report(result, harness)
    units = {}
    for line in out.getvalue().splitlines():
        parts = line.split()
        if len(parts) >= 3:
            units[parts[0]] = parts[2]
    return metrics, units


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    plain = harness.run_workload("smoke", seed=0, seconds=0.0, trace=False)
    check(plain.correct and plain.failed == 0, f"smoke run is correct ({plain.problems})")
    metrics, units = emitted(plain)
    for name, unit in {**harness.END_TO_END, **harness.STAGE_METRICS}.items():
        check(units.get(name) == unit, f"{name} printed in {unit}")
    for name, unit in harness.END_TO_END.items():
        check(metrics.get(name, {}).get("unit") == unit and metrics[name]["value"] > 0, f"{name} in the JSON metrics")

    def corrupt(stage, out_dir):
        if stage == "quantify":
            topics = out_dir / f"{harness.STATE}_topics.csv"
            lines = topics.read_text(encoding="utf-8").splitlines(keepends=True)
            topics.write_text("".join(lines + lines[-1:]), encoding="utf-8")

    broken = harness.run_workload("smoke", seed=0, seconds=0.0, trace=False, corrupt=corrupt)
    check(broken.failed > 0 and not broken.correct, f"a corrupted topics file fails a check: {broken.problems[:1]}")
    _, units = emitted(broken)
    check(units.get("error_rate") == "ratio", "error_rate is printed for the broken run")

    traced = [harness.run_workload("smoke", seed=0, seconds=0.0, trace=True) for _ in range(2)]
    for result in traced:
        check(result.correct, f"traced smoke run is correct ({result.problems})")
    metrics, _ = emitted(traced[0])
    for name, unit in harness.PER_LAYER.items():
        check(metrics.get(name, {}).get("unit") == unit, f"{name} in the traced JSON metrics")
    check(
        harness.layer_counts(traced[0].layers[0]) == harness.layer_counts(traced[1].layers[0]),
        "exact per-layer counts repeat between traced runs",
    )
    overhead = traced[0].layers[0]["trace.overhead_s"]
    for stage, gap in traced[0].gaps:
        check(
            abs(gap) <= max(overhead, 1e-3),
            f"{stage}: self-times sum to the traced wall time (gap {gap:.2e} s, overhead {overhead:.3f} s)",
        )
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
