"""Training loop, forecasting metrics, ablation harness, and baselines.

Severity is standardized by the training-set mean/std before entering
the network and de-standardized before any metric is computed, so
reported errors stay in DSCI points.  Impact targets already live in
[0, 1] and are left alone, which puts the two loss terms on comparable
scales.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest

import numpy as np

from . import model as mdl
from . import numerics as nm
from .config import ABLATIONS, ModelConfig, TrainConfig
from .core import DETERMINANT_NAMES, SOURCES, Windows, write_csv
from .errors import ConfigError, DivergenceError, NumericsError

MFA_EPSILON = 1e-6

#: Consecutive epochs without validation improvement before halving the lr.
LR_PLATEAU_EPOCHS = 3

#: Most windows in one autodiff graph; training, validation and evaluate
#: all run in graphs of at most this many.  Larger graphs take fewer,
#: larger numpy calls but hold more memory: at model defaults, `side train`
#: on `side synth --seed 1001 --weeks 330 --docs-per-week 12` (one CPU, one
#: BLAS thread) peaked at 55.6 MB of RSS with 4 windows per graph, 55.1 MB
#: with 8 and 63.2 MB with 16.  At 8, the `paper_default` benchmark's
#: pipeline, mostly training, took about 11 % less time than at 4.  One
#: forward and backward pass of 8 windows peaks at 6.8 MiB of numpy
#: allocations (tracemalloc), 13.3 MiB at 16.
GRAPH_WINDOWS = 8


@dataclass(frozen=True)
class Standardizer:
    """Training-set severity mean/std: finite real numbers, std positive."""

    mean: float
    std: float

    def __post_init__(self):
        for name, value in (("mean", self.mean), ("std", self.std)):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"standardizer {name} must be a finite number, got {value!r}")
        if not self.std > 0:
            raise ValueError(f"standardizer std must be > 0, got {self.std}")

    @classmethod
    def fit(cls, windows: Windows) -> "Standardizer":
        values = np.concatenate([windows.severity_in, windows.severity_out], axis=1).ravel()
        std = float(values.std())
        if std == 0.0:
            std = 1.0
        return cls(mean=float(values.mean()), std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * self.std + self.mean


@dataclass(frozen=True)
class TargetMetrics:
    mae: float
    mse: float
    rmse: float
    mfa: float


@dataclass
class MetricReport:
    """MAE/MSE/RMSE/MFA per target, pooled over (sample, horizon-step) points."""

    per_target: dict[str, TargetMetrics] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float, float, float, float]]:
        return [
            (target, m.mae, m.mse, m.rmse, m.mfa) for target, m in self.per_target.items()
        ]


def compute_metrics(pred: np.ndarray, true: np.ndarray) -> TargetMetrics:
    """Pooled MAE/MSE/RMSE and median forecast accuracy.

    MFA is the median over points of ``max(0, 1 - |err| / max(|y|, eps))``,
    so 1 is a perfect forecast and the score never goes below 0.
    """
    pred = np.asarray(pred, dtype=np.float64).ravel()
    true = np.asarray(true, dtype=np.float64).ravel()
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError(f"metric inputs misaligned or empty: {pred.shape} vs {true.shape}")
    err = pred - true
    mse = float(np.mean(err * err))
    accuracy = np.maximum(0.0, 1.0 - np.abs(err) / np.maximum(np.abs(true), MFA_EPSILON))
    return TargetMetrics(
        mae=float(np.mean(np.abs(err))),
        mse=mse,
        rmse=float(np.sqrt(mse)),
        mfa=float(np.median(accuracy)),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: nm.Params
    model_config: ModelConfig
    train_config: TrainConfig
    standardizer: Standardizer
    history: list[dict]
    best_val_loss: float
    best_epoch: int


def _model_units(windows: Windows, standardizer: Standardizer) -> Windows:
    """The windows with standardized severity; the impact arrays stay the windows' own views.

    An input ablation masks each gathered chunk of impact inputs, not the
    whole window stack.
    """
    return replace(
        windows,
        severity_in=standardizer.transform(windows.severity_in),
        severity_out=standardizer.transform(windows.severity_out),
    )


def _chunks(order: np.ndarray):
    """Consecutive runs of at most GRAPH_WINDOWS window indices of ``order``."""
    return (order[lo : lo + GRAPH_WINDOWS] for lo in range(0, len(order), GRAPH_WINDOWS))


def _chunk_loss(params, cfg, train_cfg: TrainConfig, windows: Windows, idx: np.ndarray) -> nm.Node:
    """Mean joint loss of windows ``idx`` of ``windows`` (in model units), as one graph."""
    impact_in = mdl.apply_input_mask(windows.impact_in[idx], cfg.ablation)
    sev_pred, imp_pred = mdl.forward(params, cfg, windows.severity_in[idx], impact_in)
    return mdl.joint_loss(
        sev_pred, windows.severity_out[idx], imp_pred, windows.impact_out[idx],
        train_cfg.lambda_severity, train_cfg.lambda_impact,
    )


def _accumulate_batch(params, cfg, train_cfg: TrainConfig, windows: Windows, batch: np.ndarray) -> float:
    """Add the gradient of the mean loss over ``batch`` into ``params.grad``.

    Each chunk's graph gives the mean over its windows, so its share of
    the batch mean is ``len(chunk) / len(batch)``.  Returns the summed
    loss of the batch's windows; at the first non-finite chunk loss it
    returns at once, before that chunk's backward pass.
    """
    total = 0.0
    for idx in _chunks(batch):
        loss = _chunk_loss(params, cfg, train_cfg, windows, idx)
        total += float(loss.value) * len(idx)
        if not np.isfinite(total):
            break
        nm.backward(nm.scale(loss, len(idx) / len(batch)))
        del loss  # free this graph before the next chunk's forward pass
    return total


def _mean_loss(params, cfg, train_cfg: TrainConfig, windows: Windows) -> float:
    total = 0.0
    for idx in _chunks(np.arange(len(windows))):
        total += float(_chunk_loss(params, cfg, train_cfg, windows, idx).value) * len(idx)
    return total / len(windows)


def train(
    train_windows: Windows,
    val_windows: Windows,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Minibatch Adam with early stopping on validation loss.

    Runs at most ``max_epochs`` epochs, halves the learning rate after
    every ``LR_PLATEAU_EPOCHS`` stagnant epochs in a row, stops after ``patience``
    of them, and returns the parameters of the best-validation epoch.

    Raises:
        DivergenceError: a loss went non-finite; its ``result`` is this
            TrainResult of the epochs so far (``best_epoch`` 0 if none finished).
    """
    if not train_windows or not val_windows:
        raise ValueError("train and val splits must both be non-empty")
    standardizer = Standardizer.fit(train_windows)
    rng = np.random.default_rng(train_cfg.seed)
    params = mdl.init_params(model_cfg, rng)

    train_units = _model_units(train_windows, standardizer)
    val_units = _model_units(val_windows, standardizer)

    adam = nm.AdamState(learning_rate=train_cfg.learning_rate)
    best = params.value.copy()
    best_val = float("inf")
    best_epoch = 0
    stale = 0
    history: list[dict] = []

    def result() -> TrainResult:
        params.value[...] = best
        return TrainResult(params, model_cfg, train_cfg, standardizer, history, best_val, best_epoch)

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(len(train_units))
        epoch_loss = 0.0
        try:
            for lo in range(0, len(order), train_cfg.batch_size):
                params.grad.fill(0.0)
                batch_loss = _accumulate_batch(
                    params, model_cfg, train_cfg, train_units, order[lo : lo + train_cfg.batch_size]
                )
                if not np.isfinite(batch_loss):
                    raise DivergenceError(f"non-finite training loss at epoch {epoch}", result())
                epoch_loss += batch_loss
                nm.adam_step(params, adam)
        except NumericsError as exc:
            raise DivergenceError(f"aborted at epoch {epoch}: {exc}", result()) from exc

        train_loss = epoch_loss / len(train_units)
        val_loss = _mean_loss(params, model_cfg, train_cfg, val_units)
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "lr": adam.learning_rate,
            }
        )
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}", result())

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = params.value.copy()
            stale = 0
        else:
            stale += 1
            if stale % LR_PLATEAU_EPOCHS == 0:
                nm.decay_learning_rate(adam)
            if stale >= train_cfg.patience:
                break

    return result()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class PredictionSet:
    """De-standardized severity and [0,1]-clamped impact forecasts."""

    starts: np.ndarray  # (n,) int
    severity_true: np.ndarray  # (n, horizon)
    severity_pred: np.ndarray
    impact_true: np.ndarray  # (n, horizon, IMPACT_DIM)
    impact_pred: np.ndarray


@dataclass
class EvalResult:
    report: MetricReport
    predictions: PredictionSet


def impact_target_names() -> list[str]:
    return [f"{source}:{name}" for source in SOURCES for name in DETERMINANT_NAMES]


def evaluate(
    params: nm.Params,
    model_cfg: ModelConfig,
    standardizer: Standardizer,
    test_windows: Windows,
) -> EvalResult:
    """Metrics over every (test window, horizon step) pair.

    Severity predictions are de-standardized first; impact predictions
    are clamped to [0, 1] at this reporting boundary.  The report holds
    one row per target: severity, each per-source determinant, and the
    pooled impact aggregate.
    """
    if not test_windows:
        raise ValueError("test split is empty")

    units = _model_units(test_windows, standardizer)

    sev_pred, imp_pred = [], []
    for idx in _chunks(np.arange(len(units))):
        impact_in = mdl.apply_input_mask(units.impact_in[idx], model_cfg.ablation)
        s_node, i_node = mdl.forward(params, model_cfg, units.severity_in[idx], impact_in)
        sev_pred.append(s_node.value)
        imp_pred.append(i_node.value)
        del s_node, i_node  # free this graph before the next chunk's forward pass

    predictions = PredictionSet(
        starts=test_windows.starts,
        severity_true=test_windows.severity_out,
        severity_pred=standardizer.inverse(np.concatenate(sev_pred)),
        impact_true=test_windows.impact_out,
        impact_pred=np.clip(np.concatenate(imp_pred), 0.0, 1.0),
    )

    report = MetricReport()
    report.per_target["severity"] = compute_metrics(
        predictions.severity_pred, predictions.severity_true
    )
    for j, name in enumerate(impact_target_names()):
        report.per_target[name] = compute_metrics(
            predictions.impact_pred[:, :, j], predictions.impact_true[:, :, j]
        )
    report.per_target["impact_all"] = compute_metrics(
        predictions.impact_pred, predictions.impact_true
    )
    return EvalResult(report=report, predictions=predictions)


# ---------------------------------------------------------------------------
# Ablations and baselines
# ---------------------------------------------------------------------------


def run_ablation(
    train_windows, val_windows, test_windows, model_cfg: ModelConfig, train_cfg: TrainConfig, results=None
) -> dict[str, EvalResult]:
    """Train and evaluate the four variants on shared splits and seed, into ``results`` as each finishes."""
    results = {} if results is None else results
    for variant in ABLATIONS:
        cfg = replace(model_cfg, ablation=variant)
        try:
            trained = train(train_windows, val_windows, cfg, train_cfg)
        except DivergenceError as exc:
            raise DivergenceError(f"{variant}: {exc}", exc.result) from exc
        results[variant] = evaluate(trained.params, cfg, trained.standardizer, test_windows)
        del trained  # its parameter and gradient vectors, before the next variant trains
    return results


def baseline_persistence(test_windows: Windows) -> MetricReport:
    """Repeat the last observed severity across the horizon; no training."""
    if not test_windows:
        raise ValueError("test split is empty")
    true = test_windows.severity_out
    pred = np.repeat(test_windows.severity_in[:, -1:], true.shape[1], axis=1)
    report = MetricReport()
    report.per_target["severity"] = compute_metrics(pred, true)
    return report


def baseline_linear_ar(train_windows: Windows, test_windows: Windows) -> MetricReport:
    """Least-squares map from the raw severity lookback to the horizon."""
    if not train_windows or not test_windows:
        raise ValueError("both splits must be non-empty")

    def design(windows):
        return np.hstack([windows.severity_in, np.ones((len(windows), 1))])

    coef, *_ = np.linalg.lstsq(design(train_windows), train_windows.severity_out, rcond=None)
    pred = design(test_windows) @ coef
    report = MetricReport()
    report.per_target["severity"] = compute_metrics(pred, test_windows.severity_out)
    return report


# ---------------------------------------------------------------------------
# Checkpoint and CSV plumbing
# ---------------------------------------------------------------------------


def save_run_checkpoint(path, result: TrainResult, provenance: dict | None = None) -> None:
    """Write ``result`` as a checkpoint; ``provenance`` (what it was trained on) goes into its extras."""
    config = {
        "model": asdict(result.model_config),
        "train": asdict(result.train_config),
    }
    extras = {
        "standardizer": {"mean": result.standardizer.mean, "std": result.standardizer.std},
        "best_val_loss": result.best_val_loss if result.best_epoch else None,
        "best_epoch": result.best_epoch,
        **(provenance or {}),
    }
    nm.save_checkpoint(path, result.params, config, extras)


def load_run_checkpoint(path, model_cfg: ModelConfig, provenance: dict | None = None):
    """Returns (params, Standardizer) of a checkpoint trained for ``model_cfg``.

    The checkpoint's model block and each field of ``provenance`` must
    equal what the checkpoint recorded.

    Raises:
        NumericsError: the file is not a well-formed checkpoint, its
            parameters are not those of ``model_cfg`` (naming the first
            that differs), its standardizer is missing or invalid, or no
            training epoch finished before it was written.
        ConfigError: the checkpoint's model block (missing, or written by
            an older version, say) or a ``provenance`` field differs from
            this run's or is missing; evaluating it would report on a model
            other than the one configured, or on data it was not trained for.
    """
    payload = nm.load_checkpoint(path)
    recorded = {"model": payload["config"].get("model"), **payload["extras"]}
    for key, value in {"model": asdict(model_cfg), **(provenance or {})}.items():
        if recorded.get(key) != value:
            raise ConfigError(
                f"{path}: checkpoint was trained for {key} {recorded.get(key)!r}, "
                f"but this run has {value!r}; retrain"
            )
    layout = ((name, node.shape) for name, node in payload["params"].items())
    for got, want in zip_longest(layout, mdl.param_shapes(model_cfg).items(), fillvalue=(None, None)):
        if got != want:
            raise NumericsError(
                f"{path}: checkpoint parameter {got[0]!r} {got[1]} is not the model's {want[0]!r} {want[1]}"
            )
    try:
        std = payload["extras"]["standardizer"]
        standardizer = Standardizer(mean=std["mean"], std=std["std"])
    except (KeyError, TypeError, ValueError) as exc:
        raise NumericsError(f"{path}: checkpoint has no valid standardizer ({exc!r})") from exc
    if payload["extras"].get("best_epoch") == 0:
        raise NumericsError(f"{path}: no training epoch finished before this checkpoint was written; retrain")
    return payload["params"], standardizer


def write_history_csv(path, history: list[dict]) -> None:
    columns = ("epoch", "train_loss", "val_loss", "lr")
    write_csv(path, columns, ([row[c] for c in columns] for row in history))


def write_metrics_csv(path, reports: dict[str, MetricReport]) -> None:
    """One row per (variant, target)."""
    rows = ((variant, *row) for variant, report in reports.items() for row in report.rows())
    write_csv(path, ("variant", "target", "MAE", "MSE", "RMSE", "MFA"), rows)
