"""Workloads, stage runner, output checks and metrics of the side benchmark.

Every stage runs as a fresh ``python3 -m side.cli`` process, one after the
other, the way a user runs the pipeline at a shell (closed loop, one
caller).  The benchmark process only prepares inputs, waits for each
stage, and checks what the stage wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"

#: BLAS threads for every process; fixed, and below nproc on any machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0

STATE = "synth"
ABLATION_VARIANTS = ("full", "no_social", "no_news", "no_attention")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    weeks: int
    docs_per_week: float
    stages: tuple[str, ...]
    setup_stages: tuple[str, ...] = ()
    #: Set-ups per run.  Each builds its own data set from the run seed,
    #: and setup_s is their median.
    setups: int = 3
    #: How many of those data sets the run measures, each at least once.
    measured: int = 1
    #: "windows", "dsiq", "model" and "train" blocks of the run config.
    config: dict = field(default_factory=dict)


# Early stopping is off (patience = max_epochs) so that every seed trains
# the same number of epochs: otherwise the seed, not the code, decides how
# much training work a run does.
FIXED_EPOCHS = {"max_epochs": 20, "patience": 20}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="paper_default",
            why="paper-default run: quantify, train, evaluate at CLI model defaults on 330 weeks x 12 docs",
            weeks=330,
            docs_per_week=12.0,
            stages=("quantify", "train", "evaluate"),
            config={"train": dict(FIXED_EPOCHS)},
        ),
        Workload(
            name="corpus_10x",
            why="text-heavy: quantify alone on a 10x corpus (120 docs/week), the network never runs",
            weeks=330,
            docs_per_week=120.0,
            stages=("quantify",),
            # k-means iterations depend on the data: one data set's quantify
            # time differs from another's by up to a quarter.  A run reports
            # the mean over three data sets.
            measured=3,
        ),
        # Runnable, but not in BENCHMARK.json: a run of it takes about 50 s
        # at least, and with it the benchmark's runs would not fit the time
        # allowed for all of them.
        Workload(
            name="ablate_w16",
            why="network at width 16: four trainings and evaluations in one process, per-op overhead over BLAS",
            weeks=330,
            docs_per_week=12.0,
            setup_stages=("quantify",),
            stages=("ablate",),
            config={"model": {"width": 16, "hidden": 32}, "train": {"learning_rate": 3e-3, **FIXED_EPOCHS}},
        ),
        # Harness self-test only; not a benchmark workload.
        Workload(
            name="smoke",
            why="seconds-long self-test of the harness",
            weeks=40,
            docs_per_week=6.0,
            stages=("quantify", "train", "evaluate", "ablate"),
            setups=1,
            config={
                "windows": {"lookback": 8, "horizon": 2},
                "dsiq": {"topic_count": 8},
                "model": {"width": 4, "hidden": 8},
                "train": {"max_epochs": 1, "patience": 1},
            },
        ),
    )
}

#: End-to-end metrics printed on every workload (the gated set).  Times are
#: in reference seconds: wall time at the probe's reference CPU speed.
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: End-to-end metrics of single stages; printed where the workload runs them.
STAGE_METRICS = {
    "pipeline_wall_s": "s",
    "cpu_speed": "ratio",
    "quantify_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "ablate_s": "s",
    "quantify_docs_per_s": "docs/s",
    "train_windows_per_s": "windows/s",
    "severity_mae": "DSCI",
    "impact_mae": "share",
    "error_rate": "ratio",
}

PER_LAYER = {
    "ingest.load_documents.self_s": "s",
    "ingest.geofilter.self_s": "s",
    "ingest.docs_read": "count",
    "ingest.docs_dropped": "count",
    "ingest.geofilter.kept_ratio": "ratio",
    "dsiq.doc_matrix.self_s": "s",
    "dsiq.kmeans.self_s": "s",
    "dsiq.kmeans.calls": "count",
    "dsiq.topics.live_ratio": "ratio",
    "dsiq.cluster_keywords.self_s": "s",
    "dsiq.map_topic.self_s": "s",
    "dsiq.map_topic.calls": "count",
    "dsiq.assign_clusters.self_s": "s",
    "dsiq.assign_clusters.calls": "count",
    "dsiq.fit_topic_model.self_s": "s",
    "dsiq.build_impact_series.self_s": "s",
    "model.encode.self_s": "s",
    "model.cross_attend.self_s": "s",
    "model.decode.self_s": "s",
    "model.joint_loss.self_s": "s",
    "model.forward.calls": "count",
    "numerics.backward.self_s": "s",
    "numerics.backward.calls": "count",
    "numerics.graph_nodes_per_backward": "count",
    "numerics.backward_per_step": "ratio",
    "numerics.adam_step.self_s": "s",
    "numerics.adam_step.calls": "count",
    "numerics.save_checkpoint.self_s": "s",
    "numerics.load_checkpoint.self_s": "s",
    "numerics.checkpoint_bytes": "bytes",
    "train_eval.train.self_s": "s",
    "train_eval.evaluate.self_s": "s",
    "train_eval.epochs": "count",
    "train_eval.baselines.self_s": "s",
    "core.make_windows.self_s": "s",
    "stage.startup.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: Span names whose self time is the tracer's own cost.
TRACE_SPANS = ("trace.install", "trace.hooks", "trace.write")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


class SpeedProbe:
    """A fixed kernel whose rate measures how fast the CPU runs right now.

    The host's vCPUs change speed for seconds at a time (by a third and
    more) while staying scheduled, so wall time and CPU time alike follow
    the host, not the code.  The kernel mixes what the stages do: small
    matrix products and ``tanh``, dict work in the interpreter, and sums
    over a buffer larger than the L2 cache.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 32))
        self.w = rng.standard_normal((32, 32))
        self.buf = rng.standard_normal((64, 8192))  # 4 MiB, one 64 KiB row per unit
        self.row = 0

    def unit(self) -> float:
        h = self.np.tanh(self.x @ self.w)
        d = {k: k * 2 for k in range(40)}
        self.row = (self.row + 1) % len(self.buf)
        return sum(d.values()) + float(h.sum()) + float(self.buf[self.row].sum())

    def rate(self) -> float:
        """Kernel units per second over about ``PROBE_S``, after ``PROBE_WARMUP_S`` untimed.

        The warm-up refills the caches the stage process evicted, so that
        the rate follows the CPU and not what the stage left behind.
        """
        end = time.monotonic() + PROBE_WARMUP_S
        while time.monotonic() < end:
            self.unit()
        n, start = 0, time.monotonic()
        end = start + PROBE_S
        while True:
            for _ in range(4):
                self.unit()
            n += 4
            now = time.monotonic()
            if now >= end:
                return n / (now - start)


#: Stage run time between two probes, and the untimed warm-up and timed
#: length of one probe.
PROBE_EVERY_S = 0.45
PROBE_WARMUP_S = 0.02
PROBE_S = 0.04
#: Probe units per second that make one reference second: about the
#: probe's typical rate on the development VM (see README).
REFERENCE_RATE = 50000.0


@dataclass
class Proc:
    code: int
    start: float
    end: float
    rss_mb: float
    #: Time the process spent stopped while the CPU speed was probed.
    stopped: float = 0.0
    #: Run time in reference seconds: each slice of run time weighted by
    #: the probe rate measured right after it.  The wall time when the
    #: process was not probed.
    ref_s: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start - self.stopped


def run_process(cmd: list[str], log_path: Path, deadline: float, speed: SpeedProbe | None = None) -> Proc:
    """Run ``cmd`` to completion; kill it at ``deadline``.  Waits in every case.

    With a ``speed`` probe, the process is stopped every ``PROBE_EVERY_S``
    of run time while the probe runs on the same CPU (the harness pins
    itself and its children to one CPU), and its run time is also given in
    reference seconds.  The stopped time is not part of its wall time.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        stopped, units, resumed = 0.0, 0.0, start
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = max(deadline - time.monotonic(), 0.0)
                    wait = left if speed is None else min(PROBE_EVERY_S, left)
                    ready, _, _ = select.select([pidfd], [], [], wait)
                    if ready:
                        break
                    if time.monotonic() >= deadline:
                        proc.kill()
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    paused = time.monotonic()
                    if state.si_code != os.CLD_STOPPED:
                        break
                    try:
                        units += (paused - resumed) * speed.rate()
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    resumed = time.monotonic()
                    stopped += resumed - paused
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if speed is None:
        ref_s = end - start - stopped
    else:
        units += (end - resumed) * speed.rate()
        ref_s = units / REFERENCE_RATE
    return Proc(
        code=proc.returncode, start=start, end=end, rss_mb=usage.ru_maxrss / 1024.0, stopped=stopped, ref_s=ref_s
    )


def side_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "side.cli", *args]


# ---------------------------------------------------------------------------
# Data sets and stage passes
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    root: Path
    seed: int
    setup_s: float = 0.0  # reference seconds of the set-up processes
    setup_wall_s: float = 0.0  # wall time of the whole set-up
    docs: int = 0  # document lines written by synth
    attempted: int = 0  # set-up processes started
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def setup_out(self) -> Path:
        return self.root / "setup"

    def config(self, wl: Workload, out_dir: Path) -> dict:
        data = self.root / "data"
        cfg = {
            "seed": self.seed,
            "state": STATE,
            "backend": "lexicon",
            "paths": {
                "dsci": str(data / "dsci.csv"),
                "social": str(data / "posts.jsonl"),
                "news": str(data / "news.jsonl"),
                "entities": str(data / "entities.txt"),
                "out_dir": str(out_dir),
            },
        }
        cfg.update(json.loads(json.dumps(wl.config)))
        return cfg


def data_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def build_dataset(wl: Workload, seed: int, index: int, work: Path, deadline: float, speed: SpeedProbe) -> Dataset:
    """synth plus the workload's set-up stages, timed together."""
    root = work / f"data{index}"
    root.mkdir(parents=True)
    ds = Dataset(root=root, seed=data_seed(seed, index))
    start = time.monotonic()
    synth = run_process(
        side_cmd(
            "synth", "--out", str(root / "data"), "--seed", str(ds.seed),
            "--weeks", str(wl.weeks), "--docs-per-week", str(wl.docs_per_week),
        ),
        root / "synth.log",
        deadline,
        speed,
    )
    ds.attempted = 1
    if synth.code != 0:
        ds.failed = 1
        ds.problems.append(f"synth exited {synth.code}")
        return ds
    ds.setup_s = synth.ref_s
    if wl.setup_stages:
        passed = run_pass(wl, ds, ds.setup_out, wl.setup_stages, deadline, speed, traced=False)
        ds.attempted += len(passed.stages) + passed.skipped
        ds.failed += passed.failed
        ds.problems.extend(p for s in passed.stages for p in s.problems)
        ds.setup_s += passed.ref_s
    ds.setup_wall_s = time.monotonic() - start
    ds.docs = sum(1 for name in ("posts.jsonl", "news.jsonl") for _ in open(root / "data" / name, "rb"))
    return ds


@dataclass
class StageRun:
    name: str
    proc: Proc
    problems: list[str]
    spans: dict | None = None  # aggregated self times, calls and counts

    @property
    def failed(self) -> bool:
        return self.proc.code != 0 or bool(self.problems)


@dataclass
class Pass:
    stages: list[StageRun]
    digests: dict[str, str]
    skipped: int = 0  # stages not started because an earlier one failed

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.stages) + self.skipped

    @property
    def wall(self) -> float:
        return sum(s.proc.wall for s in self.stages)

    @property
    def ref_s(self) -> float:
        return sum(s.proc.ref_s for s in self.stages)


DIGESTED = ("impact.csv", "topics.csv", "metrics.csv", "history.csv")
PRODUCER = {"impact.csv": "quantify", "topics.csv": "quantify", "metrics.csv": None, "history.csv": "train"}


def run_pass(wl, ds: Dataset, out_dir: Path, stages, deadline, speed: SpeedProbe, traced: bool, corrupt=None) -> Pass:
    """Run ``stages`` in order in a fresh ``out_dir`` seeded with set-up outputs."""
    out_dir.mkdir(parents=True)
    if ds.setup_out.is_dir() and out_dir != ds.setup_out:
        for f in ds.setup_out.iterdir():
            if f.is_file() and f.name.startswith(f"{STATE}_"):
                shutil.copy2(f, out_dir / f.name)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(ds.config(wl, out_dir), indent=1))

    result = Pass(stages=[], digests={})
    for i, stage in enumerate(stages):
        log = out_dir / f"{stage}.log"
        if traced:
            spans_path = out_dir / f"{stage}.spans.jsonl"
            spawn = time.monotonic()
            cmd = [sys.executable, str(SPANS_SCRIPT), str(spans_path), repr(spawn), stage, "--config", str(cfg_path)]
        else:
            cmd = side_cmd(stage, "--config", str(cfg_path))
        # Probing stops the process, which the spans of a traced stage would count.
        proc = run_process(cmd, log, deadline, None if traced else speed)
        if traced:
            proc.start = spawn
        run = StageRun(name=stage, proc=proc, problems=[])
        if proc.code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            run.problems.append(f"{stage} exited {proc.code}: {tail.strip()}")
        else:
            if corrupt is not None:
                corrupt(stage, out_dir)
            run.problems.extend(check_stage(stage, wl, out_dir))
            if traced:
                run.spans = aggregate_spans(spans_path, proc, run.problems)
        result.stages.append(run)
        if run.failed:
            result.skipped = len(stages) - i - 1
            break
    for suffix in DIGESTED:
        path = out_dir / f"{STATE}_{suffix}"
        if path.exists():
            result.digests[suffix] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def aggregate_spans(path: Path, proc: Proc, problems: list[str]) -> dict:
    """Self times per span name for one traced stage, plus pseudo-spans.

    ``trace.write`` covers writing the spans and ``stage.exit`` the
    interpreter's exit, so the self times add up to the stage wall time.
    """
    payload, written = spans.read_spans(path)
    totals, calls = spans.self_times(payload["names"], payload["starts"], payload["ends"], payload["parents"])
    root_end = max(payload["ends"])
    totals["trace.write"] = written - root_end
    totals["stage.exit"] = proc.end - written
    negative = [n for n, v in totals.items() if v < 0.0]
    if negative:
        problems.append(f"negative self time in {negative}")
    gap = proc.wall - sum(totals.values())
    return {"self": totals, "calls": dict(calls), "counts": payload["counts"], "gap": gap, "missing": payload["missing"]}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_impact(path: Path, weeks: int) -> list[str]:
    """Every half-row is a distribution (sums to 1) or all zeros."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    delta = (len(header) - 1) // 2
    problems = []
    if len(body) != weeks:
        problems.append(f"{path.name}: {len(body)} rows, expected {weeks}")
    for i, row in enumerate(body):
        if int(row[0]) != i:
            problems.append(f"{path.name}: row {i} has timestep {row[0]}")
            break
        values = [float(c) for c in row[1:]]
        for half in (values[:delta], values[delta:]):
            total = sum(half)
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in half) or (
                total != 0.0 and abs(total - 1.0) > 1e-6
            ):
                problems.append(f"{path.name}: timestep {i} half-row is neither a distribution nor zeros")
                return problems
    return problems


def check_topics(path: Path, topic_count: int) -> list[str]:
    """One row per live cluster: ids 0..n-1 per source, each with members."""
    by_source: dict[str, list[tuple[int, int]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            by_source.setdefault(row["source"], []).append((int(row["cluster_id"]), int(row["doc_count"])))
    problems = []
    for source in ("social", "news"):
        rows = by_source.get(source, [])
        ids = [cid for cid, _ in rows]
        if not rows or len(rows) > topic_count or ids != list(range(len(rows))):
            problems.append(f"{path.name}: {source} cluster ids {ids} are not one row per live cluster")
        if any(count < 1 for _, count in rows):
            problems.append(f"{path.name}: {source} has a cluster without members")
    return problems


def read_metrics(path: Path) -> dict[tuple[str, str], dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            (row["variant"], row["target"]): {k: float(row[k]) for k in ("MAE", "MSE", "RMSE", "MFA")}
            for row in csv.DictReader(fh)
        }


def check_metrics(path: Path, variants, baselines: bool) -> list[str]:
    rows = read_metrics(path)
    problems = [f"{path.name}: non-finite value in {key}" for key, v in rows.items() if not all(map(math.isfinite, v.values()))]
    required = [(v, "severity") for v in variants] + [(v, "impact_all") for v in variants]
    if baselines:
        required += [("persistence", "severity"), ("linear_ar", "severity")]
    problems += [f"{path.name}: missing row {key}" for key in required if key not in rows]
    return problems


def check_history(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path.name}: no epochs"]
    if not all(math.isfinite(float(r["train_loss"])) and math.isfinite(float(r["val_loss"])) for r in rows):
        return [f"{path.name}: non-finite loss"]
    return []


def check_checkpoint(path: Path) -> list[str]:
    """A reloaded checkpoint re-saves to the same bytes."""
    from side import numerics

    payload = numerics.load_checkpoint(path)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        again = Path(tmp) / path.name
        numerics.save_checkpoint(again, payload["params"], payload["config"], payload["extras"])
        if again.read_bytes() != path.read_bytes():
            return [f"{path.name}: reloaded checkpoint does not re-save bit-identically"]
    return []


def check_stage(stage: str, wl: Workload, out_dir: Path) -> list[str]:
    def out(suffix: str) -> Path:
        return out_dir / f"{STATE}_{suffix}"

    topic_count = wl.config.get("dsiq", {}).get("topic_count", 50)
    try:
        if stage == "quantify":
            return check_impact(out("impact.csv"), wl.weeks) + check_topics(out("topics.csv"), topic_count)
        if stage == "train":
            return check_checkpoint(out("checkpoint.json")) + check_history(out("history.csv"))
        if stage == "evaluate":
            missing = [] if out("predictions.csv").exists() else ["predictions.csv missing"]
            return missing + check_metrics(out("metrics.csv"), ("full",), baselines=True)
        if stage == "ablate":
            return check_metrics(out("metrics.csv"), ABLATION_VARIANTS, baselines=False)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{stage} outputs unreadable: {exc!r}"]
    return []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


def run_value(values: list[float], datasets: list[str]) -> float:
    """A run's value: the median over passes on each data set, averaged over data sets.

    Medians filter the host's noise between passes on the same data; the
    mean over data sets weighs each data set's own amount of work alike.
    """
    by_dataset: dict[str, list[float]] = {}
    for value, dataset in zip(values, datasets):
        by_dataset.setdefault(dataset, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_dataset.values())


def windows_per_epoch(wl: Workload) -> int:
    from side.core import split_sizes

    windows = wl.config.get("windows", {})
    lookback, horizon = windows.get("lookback", 52), windows.get("horizon", 5)
    return split_sizes(wl.weeks - lookback - horizon + 1)[0]


def stage_values(wl: Workload, ds: Dataset, passed: Pass, out_dir: Path) -> dict[str, float]:
    """Stage-level end-to-end values of one successful pass."""
    times = {s.name: s.proc.ref_s for s in passed.stages}
    values = {f"{name}_s": t for name, t in times.items()}
    values["pipeline_s"] = passed.ref_s
    values["pipeline_wall_s"] = passed.wall
    values["cpu_speed"] = passed.ref_s / passed.wall
    values["peak_rss_mb"] = max(s.proc.rss_mb for s in passed.stages)
    if "quantify" in times:
        values["quantify_docs_per_s"] = ds.docs / times["quantify"]
    epochs = wl.config.get("train", {}).get("max_epochs", 20)
    if "train" in times:
        with open(out_dir / f"{STATE}_history.csv", encoding="utf-8") as fh:
            epochs = sum(1 for _ in fh) - 1
        values["train_windows_per_s"] = windows_per_epoch(wl) * epochs / times["train"]
    if "ablate" in times:
        # patience == max_epochs, so every variant trains every epoch
        values["train_windows_per_s"] = len(ABLATION_VARIANTS) * windows_per_epoch(wl) * epochs / times["ablate"]
    metrics_path = out_dir / f"{STATE}_metrics.csv"
    if metrics_path.exists():
        rows = read_metrics(metrics_path)
        values["severity_mae"] = rows[("full", "severity")]["MAE"]
        values["impact_mae"] = rows[("full", "impact_all")]["MAE"]
    return values


def baselines(wl: Workload, ds: Dataset, out_dir: Path) -> dict[str, float]:
    """Persistence and linear-AR severity MAE on the test split."""
    metrics_path = out_dir / f"{STATE}_metrics.csv"
    rows = read_metrics(metrics_path) if metrics_path.exists() else {}
    if ("persistence", "severity") in rows:
        return {name: rows[(name, "severity")]["MAE"] for name in ("persistence", "linear_ar")}
    from side import dsiq, ingest, train_eval
    from side.core import chronological_split, make_windows

    windows = wl.config.get("windows", {})
    series = ingest.load_severity(ds.root / "data" / "dsci.csv")
    impacts = dsiq.read_impact_csv(out_dir / f"{STATE}_impact.csv")
    samples = make_windows(series, impacts, windows.get("lookback", 52), windows.get("horizon", 5))
    train_s, _, test_s = chronological_split(samples)
    return {
        "persistence": train_eval.baseline_persistence(test_s).per_target["severity"].mae,
        "linear_ar": train_eval.baseline_linear_ar(train_s, test_s).per_target["severity"].mae,
    }


def layer_values(passed: Pass, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_s, calls, counts = Counter(), Counter(), Counter()
    for stage in passed.stages:
        self_s.update(stage.spans["self"])
        calls.update(stage.spans["calls"])
        counts.update(stage.spans["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s[name.removesuffix(".self_s")]
        elif name.endswith(".calls"):
            values[name] = calls[name.removesuffix(".calls")]
    values["train_eval.baselines.self_s"] = self_s["train_eval.baseline_persistence"] + self_s["train_eval.baseline_linear_ar"]
    for name in ("ingest.docs_read", "ingest.docs_dropped", "numerics.checkpoint_bytes", "train_eval.epochs"):
        values[name] = counts[name]
    values["ingest.geofilter.kept_ratio"] = ratio(counts["ingest.geofilter.kept"], counts["ingest.geofilter.in"])
    values["dsiq.topics.live_ratio"] = ratio(counts["dsiq.topics.live"], counts["dsiq.topics.requested"])
    # Every loss the training loop backpropagates comes from joint_loss; the
    # validation losses have graphs of the same size.
    values["numerics.graph_nodes_per_backward"] = ratio(counts["model.loss_graph_nodes"], calls["model.joint_loss"])
    values["numerics.backward_per_step"] = ratio(calls["numerics.backward"], calls["numerics.adam_step"])
    values["trace.overhead_s"] = passed.wall - untraced_wall
    values["trace.unattributed_s"] = sum(self_s[n] for n in TRACE_SPANS)
    return values


def layer_counts(values: dict[str, float]) -> dict[str, float]:
    """The per-layer values that must repeat exactly from run to run."""
    return {k: v for k, v in values.items() if PER_LAYER[k] in ("count", "bytes", "ratio")}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "reference_rate": REFERENCE_RATE,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    sample_datasets: list[str] = field(default_factory=list)  # the data set of each untraced pass
    baselines: dict[str, dict[str, float]] = field(default_factory=dict)  # per data set: model and baseline MAE
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)
    gaps: list[tuple[str, float]] = field(default_factory=list)  # traced wall minus summed self times
    untraced: list[str] = field(default_factory=list)  # functions in spans.TRACED that no longer exist

    def record(self, passed: Pass) -> None:
        self.attempted += len(passed.stages) + passed.skipped
        self.failed += passed.failed
        self.problems.extend(p for s in passed.stages for p in s.problems)

    def add(self, values: dict[str, float]) -> None:
        for k, v in values.items():
            self.samples.setdefault(k, []).append(v)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_repeat(result: RunResult, ds: Dataset, passed: Pass, stages) -> None:
    """Outputs of a data set must not change between passes."""
    earlier = result.digests.setdefault(ds.root.name, dict(passed.digests))
    for suffix, digest in passed.digests.items():
        if earlier.get(suffix, digest) != digest:
            producer = PRODUCER[suffix] or stages[-1]
            for s in passed.stages:
                if s.name == producer and not s.problems:
                    s.problems.append(f"{STATE}_{suffix} differs from an earlier pass on the same data")


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt=None) -> RunResult:
    """Set up, measure every data set once and then for about ``seconds``, check, summarise."""
    wl = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    result = RunResult(workload=name, seed=seed, trace=trace, env=environment(seed))
    # One CPU for the harness and every process it starts: the speed probe
    # must run on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = SpeedProbe()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    try:
        datasets = []
        for i in range(1 if trace else wl.setups):
            ds = build_dataset(wl, seed, i, work, deadline, speed)
            result.setup_s.append(ds.setup_s)
            result.setup_wall_s.append(ds.setup_wall_s)
            result.attempted += ds.attempted
            result.failed += ds.failed
            result.problems.extend(ds.problems)
            if ds.failed:
                return result
            datasets.append(ds)
        datasets = datasets[: wl.measured]

        measure_start = time.monotonic()
        n = 0
        while True:
            ds = datasets[n % len(datasets)]
            out_dir = work / f"pass{n}"
            passed = run_pass(wl, ds, out_dir, wl.stages, deadline, speed, traced=False, corrupt=corrupt)
            check_repeat(result, ds, passed, wl.stages)
            result.record(passed)
            if passed.failed:
                break
            values = stage_values(wl, ds, passed, out_dir)
            result.add(values)
            result.sample_datasets.append(ds.root.name)
            if "severity_mae" in values and ds.root.name not in result.baselines:
                result.baselines[ds.root.name] = {"model": values["severity_mae"], **baselines(wl, ds, out_dir)}
            if trace:
                traced = run_pass(wl, ds, work / f"pass{n}.traced", wl.stages, deadline, speed, traced=True)
                check_repeat(result, ds, traced, wl.stages)
                result.record(traced)
                if traced.failed:
                    break
                result.layers.append(layer_values(traced, passed.wall))
                result.gaps.extend((s.name, s.spans["gap"]) for s in traced.stages)
                result.untraced = sorted({m for s in traced.stages for m in s.spans["missing"]})
                if layer_counts(result.layers[-1]) != layer_counts(result.layers[0]):
                    result.problems.append("per-layer counts differ between traced passes")
            n += 1
            # Once every data set has had a pass, stop before a pass that
            # would end after ``seconds``.
            elapsed = time.monotonic() - measure_start
            next_end = elapsed + elapsed / n
            if (n >= len(datasets) and next_end > seconds) or measure_start + next_end > deadline:
                break
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
