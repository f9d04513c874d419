"""Training loop behavior, metrics arithmetic, baselines."""

import json
import math
from dataclasses import asdict, replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from side import model as mdl
from side import numerics as nm
from side import train_eval
from side.core import (
    DETERMINANT_COUNT,
    SeveritySeries,
    chronological_split,
    make_windows,
)
from side.errors import ConfigError, DivergenceError
from side.model import ModelConfig, init_params
from side.numerics import load_checkpoint
from side.train_eval import (
    GRAPH_WINDOWS,
    MetricReport,
    Standardizer,
    TrainConfig,
    TrainResult,
    baseline_linear_ar,
    baseline_persistence,
    compute_metrics,
    evaluate,
    load_run_checkpoint,
    run_ablation,
    save_run_checkpoint,
    train,
    write_history_csv,
    write_metrics_csv,
    _accumulate_batch,
    _chunk_loss,
    _model_units,
)

from test_numerics import rel_err

WEEK0 = date(2017, 1, 2)


def synthetic_samples(total=60, lookback=8, horizon=2, seed=0, linear=False):
    rng = np.random.default_rng(seed)
    t = np.arange(total)
    if linear:
        values = 1.0 * t + 10.0
    else:
        values = 250.0 + 100.0 * np.sin(2 * np.pi * t / 26.0) + 5.0 * rng.standard_normal(total)
    values = np.clip(values, 0.0, 500.0)
    series = SeveritySeries(start=WEEK0, values=values)

    draws = (rng.uniform(0.0, 1.0, size=DETERMINANT_COUNT) for _ in range(total))
    parts = np.stack([raw / raw.sum() for raw in draws])
    return make_windows(series, np.concatenate([parts, parts], axis=1), lookback, horizon)


def small_cfg(**kw):
    defaults = dict(lookback=8, horizon=2, width=8, hidden=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestMetrics:
    def test_hand_case(self):
        m = compute_metrics(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
        assert m.mae == 1.0
        assert m.mse == 2.0
        assert m.rmse == math.sqrt(2.0)

    def test_table_consistency_mse_to_rmse(self):
        # reported MSE 1823.20 must reproduce RMSE 42.69 within 0.01
        err = math.sqrt(1823.20)
        m = compute_metrics(np.array([err]), np.array([0.0]))
        assert abs(m.rmse - 42.69) < 0.01

    def test_perfect_forecast_mfa_one(self):
        m = compute_metrics(np.array([5.0, 7.0]), np.array([5.0, 7.0]))
        assert m.mfa == 1.0

    def test_mfa_bounded(self):
        m = compute_metrics(np.array([1000.0]), np.array([1.0]))
        assert m.mfa == 0.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rmse_is_sqrt_mse_property(self, true_values, seed):
        rng = np.random.default_rng(seed)
        true = np.array(true_values)
        pred = true + rng.normal(size=true.shape)
        m = compute_metrics(pred, true)
        assert abs(m.rmse - math.sqrt(m.mse)) <= 1e-9 * max(1.0, m.rmse)


class TestStandardizer:
    def test_fit_uses_train_values(self):
        samples = synthetic_samples()
        std = Standardizer.fit(samples)
        values = []
        for i in range(len(samples)):
            values += samples.severity_in[i].tolist() + samples.severity_out[i].tolist()
        assert std.mean == float(np.mean(values))
        assert std.std == float(np.std(values))

    @given(st.floats(-1e5, 1e5), st.floats(1e-3, 1e4), st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, mean, sd, x):
        std = Standardizer(mean=mean, std=sd)
        back = float(std.inverse(std.transform(np.array([x])))[0])
        assert abs(back - x) <= 1e-9 * max(1.0, abs(x))

    def test_constant_split_is_scaled_by_one(self):
        series = SeveritySeries(start=WEEK0, values=[120.0] * 20)
        parts = np.tile(np.eye(DETERMINANT_COUNT)[0], (20, 2))
        std = Standardizer.fit(make_windows(series, parts, 8, 2))
        assert (std.mean, std.std) == (120.0, 1.0)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            Standardizer(mean=0.0, std=0.0)


class TestTrain:
    def test_early_stopping_and_best_epoch(self):
        samples = synthetic_samples()
        train_s, val_s, _ = chronological_split(samples)
        cfg = small_cfg()
        result = train(train_s, val_s, cfg, TrainConfig(max_epochs=8, patience=3, seed=0))
        assert len(result.history) <= 8
        val_losses = [row["val_loss"] for row in result.history]
        assert result.best_val_loss <= min(val_losses) + 1e-12
        assert result.history[result.best_epoch - 1]["val_loss"] == result.best_val_loss

    def test_same_seed_identical_history(self):
        samples = synthetic_samples()
        train_s, val_s, _ = chronological_split(samples)
        cfg = small_cfg()
        tc = TrainConfig(max_epochs=4, patience=4, seed=11)
        h1 = train(train_s, val_s, cfg, tc).history
        h2 = train(train_s, val_s, cfg, tc).history
        assert h1 == h2

    def test_divergence_carries_last_good_checkpoint(self):
        # a learning rate this size overflows float64 within a few steps
        samples = synthetic_samples()
        train_s, val_s, _ = chronological_split(samples)
        cfg = small_cfg()
        tc = TrainConfig(max_epochs=5, patience=5, seed=0, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as excinfo:
            train(train_s, val_s, cfg, tc)
        # the training parameters, put back to the values of the last finite epoch
        result = excinfo.value.result
        assert isinstance(result.params, nm.Params)
        assert np.all(np.isfinite(result.params.value))

    def test_divergence_after_an_epoch_keeps_that_epoch(self, monkeypatch):
        samples = synthetic_samples()
        train_s, val_s, _ = chronological_split(samples)
        real_mean_loss = train_eval._mean_loss
        epoch_one = []

        def mean_loss(params, *args):
            if epoch_one:
                return float("nan")
            epoch_one.append(params.value.copy())
            return real_mean_loss(params, *args)

        monkeypatch.setattr(train_eval, "_mean_loss", mean_loss)
        tc = TrainConfig(max_epochs=5, patience=5, seed=0)
        with pytest.raises(DivergenceError, match="validation loss at epoch 2") as excinfo:
            train(train_s, val_s, small_cfg(), tc)
        result = excinfo.value.result
        assert result.best_epoch == 1
        assert result.best_val_loss == result.history[0]["val_loss"]
        assert len(result.history) == 2 and math.isnan(result.history[1]["val_loss"])
        assert result.params.value.tobytes() == epoch_one[0].tobytes()

    def test_patience_stale_epochs_stop_training(self, monkeypatch):
        # an improvement at epochs 1 and 2, then stale epochs: patience 3 stops after epoch 5
        val_losses = iter([3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        seen = []

        def mean_loss(params, *args):
            seen.append(params.value.copy())
            return next(val_losses)

        monkeypatch.setattr(train_eval, "_mean_loss", mean_loss)
        train_s, val_s, _ = chronological_split(synthetic_samples())
        result = train(train_s, val_s, small_cfg(), TrainConfig(max_epochs=8, patience=3, seed=0))
        assert len(result.history) == 5
        assert result.best_epoch == 2 and result.best_val_loss == 2.0
        assert result.params.value.tobytes() == seen[1].tobytes()

    def test_non_finite_gradient_aborts_with_last_good_epoch(self, monkeypatch):
        # the loss stays finite; from epoch 2 on, backward leaves an inf in one gradient
        real_backward, real_mean_loss = nm.backward, train_eval._mean_loss
        epochs = []

        def mean_loss(params, *args):
            epochs.append((params, params.value.copy()))
            return real_mean_loss(params, *args)

        def backward(root):
            real_backward(root)
            if epochs:
                epochs[0][0]["dec.w2"].grad[0, 0] = np.inf

        monkeypatch.setattr(train_eval, "_mean_loss", mean_loss)
        monkeypatch.setattr(nm, "backward", backward)
        train_s, val_s, _ = chronological_split(synthetic_samples())
        tc = TrainConfig(max_epochs=5, patience=5, seed=0)
        message = "^aborted at epoch 2: non-finite gradient in parameter 'dec.w2'"
        with pytest.raises(DivergenceError, match=message) as excinfo:
            train(train_s, val_s, small_cfg(), tc)
        result = excinfo.value.result
        assert result.best_epoch == 1 and len(result.history) == 1
        assert result.params.value.tobytes() == epochs[0][1].tobytes()

    @pytest.mark.parametrize(
        "lr_plateau, halvings",
        [(2, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3]), (3, [0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2])],
    )
    def test_learning_rate_halves_every_lr_plateau_stale_epochs(self, monkeypatch, lr_plateau, halvings):
        # improvements at epochs 1, 2 and 6; every other epoch is stale
        val_losses = iter([3.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        monkeypatch.setattr(train_eval, "_mean_loss", lambda *args: next(val_losses))
        train_s, val_s, _ = chronological_split(synthetic_samples())
        monkeypatch.setattr(train_eval, "LR_PLATEAU_EPOCHS", lr_plateau)
        tc = TrainConfig(max_epochs=12, patience=12, seed=0)
        history = train(train_s, val_s, small_cfg(), tc).history
        assert [row["lr"] for row in history] == [tc.learning_rate * 0.5**k for k in halvings]

    def test_patience_must_not_exceed_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=5, patience=10)

    def test_overfits_four_samples(self, monkeypatch):
        # memorization sanity: with the epoch cap lifted the loss collapses
        samples = synthetic_samples(total=16, lookback=4, horizon=1, seed=3)[:4]
        cfg = small_cfg(lookback=4, horizon=1, width=8, hidden=32)
        tc = TrainConfig(
            max_epochs=200,
            patience=200,
            batch_size=1,
            learning_rate=1e-2,
            seed=0,
        )
        monkeypatch.setattr(train_eval, "LR_PLATEAU_EPOCHS", 200)  # the learning rate never halves
        result = train(samples, samples, cfg, tc)
        assert min(row["train_loss"] for row in result.history) < 1e-3


@pytest.mark.parametrize("batch_size", [16, 7, 1])
def test_minibatch_gradient_is_mean_of_window_gradients(batch_size, monkeypatch):
    # 16: a full minibatch; 7: a ragged last graph; 1: the last minibatch
    # of the 193 training windows at defaults (193 % 16 = 1).  Graphs of 3
    # windows, so that 16 and 7 each span several graphs, one of them ragged.
    monkeypatch.setattr(train_eval, "GRAPH_WINDOWS", 3)
    _check_minibatch_gradient(batch_size)


@pytest.mark.parametrize("batch_size", [16, 11])
def test_minibatch_gradient_at_shipped_graph_windows(batch_size):
    # two graphs at the shipped size: two full ones, or a full and a ragged one
    assert GRAPH_WINDOWS < batch_size <= 2 * GRAPH_WINDOWS
    _check_minibatch_gradient(batch_size)


def _check_minibatch_gradient(batch_size):
    windows = synthetic_samples(total=40)
    cfg = small_cfg()
    units = _model_units(windows, Standardizer.fit(windows))
    params = init_params(cfg, np.random.default_rng(0))
    train_cfg = TrainConfig(lambda_severity=0.7, lambda_impact=1.3)
    batch = np.random.default_rng(1).permutation(len(units))[:batch_size]

    params.grad.fill(0.0)
    total = _accumulate_batch(params, cfg, train_cfg, units, batch)
    accumulated = params.grad.copy()

    grads, losses = [], []
    for i in batch:
        params.grad.fill(0.0)
        sev, imp = mdl.forward(params, cfg, units.severity_in[i : i + 1], units.impact_in[i : i + 1])
        loss = mdl.joint_loss(sev, units.severity_out[i : i + 1], imp, units.impact_out[i : i + 1], 0.7, 1.3)
        nm.backward(loss)
        grads.append(params.grad.copy())
        losses.append(float(loss.value))
    assert rel_err(accumulated, np.mean(grads, axis=0)) < 1e-12
    assert math.isclose(total, sum(losses), rel_tol=1e-12)


@pytest.mark.parametrize("ablation", ["no_social", "no_news"])
def test_input_ablation_masks_each_chunk_not_the_window_stack(ablation):
    windows = synthetic_samples(total=40)
    standardizer = Standardizer.fit(windows)
    units = _model_units(windows, standardizer)
    assert np.shares_memory(units.impact_in, windows.impact_in)

    # training and evaluation still see the masked inputs: the model's
    # outputs are those of the full model on the masked chunk
    cfg = small_cfg(ablation=ablation)
    params = init_params(cfg, np.random.default_rng(0))
    train_cfg = TrainConfig(lambda_severity=0.7, lambda_impact=1.3)
    idx = np.arange(3, 3 + GRAPH_WINDOWS)
    masked = mdl.apply_input_mask(windows.impact_in[idx], ablation)
    assert not np.array_equal(masked, windows.impact_in[idx])
    sev, imp = mdl.forward(params, small_cfg(), units.severity_in[idx], masked)
    loss = mdl.joint_loss(sev, units.severity_out[idx], imp, units.impact_out[idx], 0.7, 1.3)
    assert float(_chunk_loss(params, cfg, train_cfg, units, idx).value) == float(loss.value)
    predictions = evaluate(params, cfg, standardizer, windows[3 : 3 + GRAPH_WINDOWS]).predictions
    np.testing.assert_array_equal(predictions.severity_pred, standardizer.inverse(sev.value))
    np.testing.assert_array_equal(predictions.impact_pred, np.clip(imp.value, 0.0, 1.0))


class TestEvaluate:
    def trained(self):
        samples = synthetic_samples()
        train_s, val_s, test_s = chronological_split(samples)
        cfg = small_cfg()
        result = train(train_s, val_s, cfg, TrainConfig(max_epochs=3, patience=3, seed=0))
        return result, cfg, test_s, train_s

    def test_report_targets_and_rmse_identity(self):
        result, cfg, test_s, _ = self.trained()
        ev = evaluate(result.params, cfg, result.standardizer, test_s)
        report = ev.report
        assert "severity" in report.per_target
        assert "social:Agriculture" in report.per_target
        assert "news:Other" in report.per_target
        assert "impact_all" in report.per_target
        assert len(report.per_target) == 1 + 22 + 1
        for metrics in report.per_target.values():
            assert abs(metrics.rmse - math.sqrt(metrics.mse)) <= 1e-9

    def test_sample_order_invariance(self):
        result, cfg, test_s, _ = self.trained()
        forward = evaluate(result.params, cfg, result.standardizer, test_s).report
        backward = evaluate(result.params, cfg, result.standardizer, test_s[::-1]).report
        for target, metrics in forward.per_target.items():
            other = backward.per_target[target]
            assert math.isclose(metrics.mae, other.mae)
            assert math.isclose(metrics.mfa, other.mfa)

    def test_impact_predictions_clamped(self):
        result, cfg, test_s, _ = self.trained()
        ev = evaluate(result.params, cfg, result.standardizer, test_s)
        assert np.all(ev.predictions.impact_pred >= 0.0)
        assert np.all(ev.predictions.impact_pred <= 1.0)

    def test_empty_test_set_is_error(self):
        result, cfg, test_s, _ = self.trained()
        with pytest.raises(ValueError):
            evaluate(result.params, cfg, result.standardizer, test_s[:0])

    def test_checkpoint_round_trip(self, tmp_path):
        result, cfg, test_s, _ = self.trained()
        path = tmp_path / "ckpt.json"
        save_run_checkpoint(path, result)
        params, std = load_run_checkpoint(path, cfg)
        assert std == result.standardizer
        before = evaluate(result.params, cfg, result.standardizer, test_s).report
        after = evaluate(params, cfg, std, test_s).report
        assert before.per_target["severity"] == after.per_target["severity"]
        with pytest.raises(ConfigError, match="trained for"):
            load_run_checkpoint(path, replace(cfg, hidden=cfg.hidden + 1))

    def test_checkpoint_with_a_retired_train_key_still_evaluates(self, tmp_path):
        # checkpoints written while the learning-rate plateau was a train
        # setting hold "lr_plateau" in config.train, which evaluation never reads
        result, cfg, test_s, _ = self.trained()
        path = tmp_path / "ckpt.json"
        save_run_checkpoint(path, result)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config"]["train"]["lr_plateau"] = 3
        payload["config_hash"] = nm.config_hash(payload["config"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        params, std = load_run_checkpoint(path, cfg)
        assert std == result.standardizer
        before = evaluate(result.params, cfg, result.standardizer, test_s).report
        assert evaluate(params, cfg, std, test_s).report.rows() == before.rows()

    def test_checkpoint_records_every_train_setting(self, tmp_path):
        cfg = small_cfg()
        train_cfg = TrainConfig(batch_size=7)
        result = TrainResult(
            params=init_params(cfg, np.random.default_rng(0)),
            model_config=cfg,
            train_config=train_cfg,
            standardizer=Standardizer(mean=0.0, std=1.0),
            history=[],
            best_val_loss=1.0,
            best_epoch=1,
        )
        path = tmp_path / "ckpt.json"
        save_run_checkpoint(path, result)
        config = load_checkpoint(path)["config"]
        assert config["train"] == asdict(train_cfg)
        assert config["model"] == asdict(cfg)


def test_failed_csv_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "history.csv"
    row = {"epoch": 1, "train_loss": 0.5, "val_loss": 0.6, "lr": 1e-3}
    write_history_csv(path, [row])
    before = path.read_bytes()
    with pytest.raises(KeyError):
        write_history_csv(path, [dict(row, epoch=2), {"epoch": 3}])  # fails after one row
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


class TestBaselines:
    def test_persistence_on_constant_series(self):
        t = 30
        series = SeveritySeries(start=WEEK0, values=np.full(t, 42.0))
        samples = make_windows(series, np.zeros((t, 2 * DETERMINANT_COUNT)), 5, 2)
        report = baseline_persistence(samples)
        assert report.per_target["severity"].mae == 0.0

    def test_linear_ar_nails_linear_series(self):
        samples = synthetic_samples(total=60, linear=True)
        train_s, _, test_s = chronological_split(samples)
        ar = baseline_linear_ar(train_s, test_s)
        persistence = baseline_persistence(test_s)
        assert ar.per_target["severity"].mae < 1e-6
        assert persistence.per_target["severity"].mae > 0.5

    def test_persistence_deterministic(self):
        samples = synthetic_samples()
        _, _, test_s = chronological_split(samples)
        a = baseline_persistence(test_s).per_target["severity"]
        b = baseline_persistence(test_s).per_target["severity"]
        assert a == b


def test_run_ablation_covers_all_variants():
    samples = synthetic_samples(total=40)
    train_s, val_s, test_s = chronological_split(samples)
    cfg = small_cfg(width=4, hidden=8)
    results = run_ablation(train_s, val_s, test_s, cfg, TrainConfig(max_epochs=2, patience=2, seed=0))
    assert set(results) == {"full", "no_social", "no_news", "no_attention"}
    severities = {v: r.report.per_target["severity"].mae for v, r in results.items()}
    assert all(np.isfinite(list(severities.values())))


def test_run_ablation_divergence_names_the_variant_and_keeps_its_result():
    train_s, val_s, test_s = chronological_split(synthetic_samples(total=40))
    tc = TrainConfig(max_epochs=2, patience=2, seed=0, learning_rate=1e200)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="^full: non-finite") as excinfo:
        run_ablation(train_s, val_s, test_s, small_cfg(width=4, hidden=8), tc)
    assert excinfo.value.result.model_config.ablation == "full"


def test_csv_writers(tmp_path):
    history = [{"epoch": 1, "train_loss": 0.5, "val_loss": 0.6, "lr": 1e-3}]
    hpath = tmp_path / "history.csv"
    write_history_csv(hpath, history)
    lines = hpath.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert lines[1].startswith("1,0.5,0.6,")

    report = MetricReport()
    report.per_target["severity"] = compute_metrics(np.array([1.0]), np.array([2.0]))
    mpath = tmp_path / "metrics.csv"
    write_metrics_csv(mpath, {"full": report})
    lines = mpath.read_text().splitlines()
    assert lines[0] == "variant,target,MAE,MSE,RMSE,MFA"
    assert lines[1].startswith("full,severity,1.0,1.0,1.0,")
