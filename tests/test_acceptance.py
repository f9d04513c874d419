"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance N] ... PASS/FAIL` line (run with -s to
see them live).  Criteria 6 and 7 share one module-scoped run of the
full synthetic pipeline: text generation -> ingest/geofilter -> topic
quantification -> windowing -> training of the ablation variants.
"""

import json
import math
import time

import numpy as np
import pytest

from side import dsiq, ingest
from side import model as mdl
from side import numerics as nm
from side import synth as sy
from side.cli import main as cli_main
from side.core import IMPACT_DIM, chronological_split, make_windows, training_cutoff
from side.model import ModelConfig
from side.train_eval import (
    Standardizer,
    TrainConfig,
    baseline_persistence,
    compute_metrics,
    evaluate,
    train,
)

from test_model import brute_force_cross_attention, cross_params
from test_numerics import finite_diff, rel_err


def report(num, name, ok, detail=""):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_metric_identity():
    t0 = time.time()
    checks = []
    for mse, rmse in ((1823.20, 42.69), (4369.98, 66.10)):
        metrics = compute_metrics(np.array([math.sqrt(mse)]), np.array([0.0]))
        checks.append(abs(metrics.rmse - rmse) <= 0.01 and abs(metrics.mse - mse) < 1e-9)
    elapsed = time.time() - t0
    report(
        1,
        "metric identity (reported MSE -> RMSE)",
        all(checks) and elapsed < 1.0,
        f"elapsed {elapsed:.3f}s",
    )


# -- 2 ----------------------------------------------------------------------


def _check_op_gradients(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0

    def fd_against(build, *shapes):
        nonlocal worst
        values = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]
        nodes = [nm.parameter(v.copy(), f"x{i}") for i, v in enumerate(values)]
        nm.backward(build(nodes))
        for i, v in enumerate(values):
            def f(x, i=i):
                probe = [
                    nm.constant(values[j]) if j != i else nm.constant(x)
                    for j in range(len(values))
                ]
                return float(build(probe).value)

            worst = max(worst, rel_err(nodes[i].grad, finite_diff(f, v.copy())))

    fd_against(lambda n: nm.mean_all(nm.matmul(n[0], n[1])), (3, 4), (4, 2))
    fd_against(lambda n: nm.mean_all(nm.square(nm.matmul(n[0], n[1]))), (2, 3, 4), (4, 2))
    fd_against(lambda n: nm.mean_all(nm.square(nm.matmul(n[0], n[1]))), (2, 3, 4), (2, 4, 2))
    fd_against(lambda n: nm.mean_all(nm.square(nm.add(n[0], n[1]))), (3, 3), (3, 3))
    fd_against(lambda n: nm.mean_all(nm.square(nm.scale(n[0], -1.3))), (2, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.transpose(n[0]))), (2, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.transpose(n[0]))), (3, 2, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.concat_last_dim(n[0], n[1]))), (2, 3), (2, 2))
    fd_against(lambda n: nm.mean_all(nm.square(nm.concat_last_dim(n[0], n[1]))), (2, 3, 2), (2, 3, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.slice_last_dim(n[0], 1, 3))), (3, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.slice_last_dim(n[0], 1, 3))), (2, 3, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.reshape(n[0], (2, 6)))), (3, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.tanh(n[0]))), (3, 3))
    fd_against(lambda n: nm.mean_all(nm.square(nm.softmax_rows(n[0]))), (3, 4))
    fd_against(lambda n: nm.mean_all(nm.square(nm.layer_norm_rows(n[0]))), (3, 5))
    fd_against(lambda n: nm.mean_all(nm.square(nm.layer_norm_rows(n[0]))), (2, 3, 5))
    return worst


def _check_full_path_gradient(seed, coords_per_tensor=4):
    # one graph of 3 windows, as training builds them
    cfg = ModelConfig(lookback=6, horizon=2, width=4, hidden=8)
    rng = np.random.default_rng(seed)
    params = mdl.init_params(cfg, rng)
    sev_in = rng.normal(size=(3, cfg.lookback))
    imp_in = rng.uniform(0, 1, size=(3, cfg.lookback, IMPACT_DIM))
    sev_out = rng.normal(size=(3, cfg.horizon))
    imp_out = rng.uniform(0, 1, size=(3, cfg.horizon, IMPACT_DIM))

    sev_pred, imp_pred = mdl.forward(params, cfg, sev_in, imp_in)
    nm.backward(mdl.joint_loss(sev_pred, sev_out, imp_pred, imp_out, 1.0, 1.0))

    values = {k: p.value for k, p in params.items()}

    def loss_at(probe_values):
        probe = {k: nm.constant(v) for k, v in probe_values.items()}
        s, i = mdl.forward(probe, cfg, sev_in, imp_in)
        return float(mdl.joint_loss(s, sev_out, i, imp_out, 1.0, 1.0).value)

    h = 1e-5
    worst = 0.0
    for name, value in values.items():
        flat = value.ravel()
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_at(values)
            flat[idx] = orig - h
            lo = loss_at(values)
            flat[idx] = orig
            fd = (hi - lo) / (2 * h)
            an = params[name].grad.ravel()[idx]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, _check_op_gradients(seed))
        worst = max(worst, _check_full_path_gradient(seed))
    elapsed = time.time() - t0
    report(
        2,
        "gradients vs finite differences (20 seeds)",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, elapsed {elapsed:.1f}s",
    )


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_cross_attention_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        params = cross_params(rng, d)
        h_m = rng.normal(size=(t, d))
        h_d = rng.normal(size=(t, d))
        got_md, got_dm = mdl.cross_attend(nm.constant(h_m), nm.constant(h_d), params, d)
        want_md, want_dm = brute_force_cross_attention(
            h_m, h_d, {k: p.value for k, p in params.items()}
        )
        worst = max(
            worst,
            float(np.max(np.abs(got_md.value - want_md))),
            float(np.max(np.abs(got_dm.value - want_dm))),
        )
    elapsed = time.time() - t0
    report(
        3,
        "cross-attention equals explicit-loop oracle (100 instances)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst abs diff {worst:.2e}, elapsed {elapsed:.1f}s",
    )


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ok = True

    # softmax row sums
    for _ in range(100):
        x = rng.uniform(-40, 40, size=(int(rng.integers(1, 6)), int(rng.integers(2, 8))))
        ok &= bool(np.allclose(nm.softmax_rows(nm.constant(x)).value.sum(axis=-1), 1.0, atol=1e-6))

    # impact vector bounds and sum rule via quantify over random doc counts
    from test_dsiq import _toy_model, doc

    model = _toy_model()
    words = ["crop", "clinic", "zzz"]
    for _ in range(100):
        n = int(rng.integers(0, 15))
        docs = [doc(words[int(rng.integers(3))]) for _ in range(n)]
        out = dsiq.quantify(docs, model)
        total = out.sum()
        ok &= bool(np.all(out >= 0.0) and np.all(out <= 1.0))
        ok &= total == 0.0 or abs(total - 1.0) <= 1e-6

    # permutation invariance of quantify
    docs = [doc(words[int(rng.integers(3))]) for _ in range(12)]
    base = dsiq.quantify(docs, model)
    for _ in range(100):
        perm = rng.permutation(len(docs))
        ok &= bool(np.array_equal(dsiq.quantify([docs[i] for i in perm], model), base))

    # standardizer round trip
    for _ in range(100):
        std = Standardizer(mean=float(rng.uniform(-1e4, 1e4)), std=float(rng.uniform(1e-3, 1e3)))
        x = rng.uniform(-1e5, 1e5, size=10)
        back = std.inverse(std.transform(x))
        ok &= bool(np.all(np.abs(back - x) <= 1e-9 * np.maximum(1.0, np.abs(x))))

    # RMSE = sqrt(MSE)
    for _ in range(100):
        true = rng.uniform(-1e3, 1e3, size=int(rng.integers(1, 40)))
        pred = true + rng.normal(size=true.shape)
        m = compute_metrics(pred, true)
        ok &= abs(m.rmse - math.sqrt(m.mse)) <= 1e-9

    elapsed = time.time() - t0
    report(4, "invariant property suite (>=100 cases each)", ok and elapsed < 60.0, f"elapsed {elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_overfit_sanity():
    t0 = time.time()
    rng = np.random.default_rng(3)
    total, lookback, horizon = 16, 4, 1
    t = np.arange(total)
    values = np.clip(250.0 + 100.0 * np.sin(2 * np.pi * t / 26.0) + 5.0 * rng.standard_normal(total), 0, 500)
    from datetime import date

    from side.core import SeveritySeries

    series = SeveritySeries(start=date(2017, 1, 2), values=values)
    parts = np.stack([raw / raw.sum() for raw in (rng.uniform(0, 1, size=11) for _ in range(total))])
    samples = make_windows(series, np.concatenate([parts, parts], axis=1), lookback, horizon)[:4]

    cfg = ModelConfig(lookback=lookback, horizon=horizon, width=8, hidden=32)
    tc = TrainConfig(
        max_epochs=200, patience=200, batch_size=1, learning_rate=1e-2, seed=0, lr_plateau=200
    )
    result = train(samples, samples, cfg, tc)
    best = min(row["train_loss"] for row in result.history)
    elapsed = time.time() - t0
    report(
        5,
        "overfit sanity (4 windows, 200 epochs)",
        best < 1e-3 and elapsed < 120.0,
        f"best train loss {best:.2e}, elapsed {elapsed:.1f}s",
    )


# -- 6 and 7 ----------------------------------------------------------------


def _pipeline_severity_mae(seed, tmp_dir, variants):
    """Full pipeline: synth text -> DSIQ -> windows -> train -> severity MAE."""
    spec = sy.SynthSpec(weeks=330, social_lead=4, docs_per_week=12.0)
    paths = sy.write_dataset(tmp_dir / f"seed{seed}", spec, seed)
    series = ingest.load_severity(paths["dsci"])
    entities = ingest.EntityList.from_file(paths["entities"])
    social = ingest.geofilter(
        ingest.load_documents(paths["social"], series).documents, entities
    )
    news = ingest.geofilter(
        ingest.load_documents(paths["news"], series).documents, entities
    )

    backend = dsiq.LexiconBackend()
    cutoff = training_cutoff(len(series), 52, 5)
    social_model = dsiq.fit_topic_model(
        [d for d in social if d.timestep < cutoff], backend, 50, seed
    )
    news_model = dsiq.fit_topic_model(
        [d for d in news if d.timestep < cutoff], backend, 50, seed
    )
    impacts = dsiq.build_impact_series([(social, social_model), (news, news_model)], len(series))

    samples = make_windows(series, impacts, 52, 5)
    train_s, val_s, test_s = chronological_split(samples)

    maes = {}
    for variant in variants:
        cfg = ModelConfig(lookback=52, horizon=5, width=16, hidden=32, ablation=variant)
        tc = TrainConfig(max_epochs=20, patience=10, seed=seed, learning_rate=3e-3)
        result = train(train_s, val_s, cfg, tc)
        ev = evaluate(result.params, cfg, result.standardizer, test_s)
        maes[variant] = ev.report.per_target["severity"].mae
    maes["persistence"] = baseline_persistence(test_s).per_target["severity"].mae
    return maes


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("ablation")
    started = time.time()
    runs = [
        _pipeline_severity_mae(seed, tmp_dir, ("full", "no_social", "no_attention"))
        for seed in range(5)
    ]
    return {"runs": runs, "elapsed": time.time() - started}


def test_criterion_6_ablation_direction(ablation_runs):
    runs = ablation_runs["runs"]
    mean = {k: float(np.mean([r[k] for r in runs])) for k in runs[0]}
    ok = mean["full"] < mean["no_social"] and mean["no_attention"] >= mean["full"]
    detail = (
        f"severity MAE: full {mean['full']:.2f}, no_social {mean['no_social']:.2f}, "
        f"no_attention {mean['no_attention']:.2f}; elapsed {ablation_runs['elapsed']:.0f}s"
    )
    report(6, "ablation direction on synthetic data (5 seeds)", ok and ablation_runs["elapsed"] < 600, detail)


def test_criterion_7_baseline_sanity(ablation_runs):
    runs = ablation_runs["runs"]
    wins = sum(r["full"] < r["persistence"] for r in runs)
    detail = f"full beats persistence in {wins}/5 seeds"
    report(7, "full model vs persistence baseline", wins >= 4, detail)


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--seed", "4", "--weeks", "100", "--docs-per-week", "6"]) == 0
    cfg = {
        "seed": 4,
        "paths": {
            "dsci": str(data / "dsci.csv"),
            "social": str(data / "posts.jsonl"),
            "news": str(data / "news.jsonl"),
            "entities": str(data / "entities.txt"),
            "out_dir": str(tmp_path / "run"),
        },
        "windows": {"lookback": 16, "horizon": 3},
        "dsiq": {"topic_count": 12},
        "model": {"width": 8, "hidden": 16},
        "train": {"max_epochs": 3, "patience": 3, "learning_rate": 0.003},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    digests = []
    assert cli_main(["quantify", "--config", str(cfg_path)]) == 0
    for _ in range(2):
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
        digests.append((tmp_path / "run" / "synth_metrics.csv").read_bytes())
    ok = digests[0] == digests[1]
    report(8, "train+evaluate byte-identical under fixed seed", ok, f"{len(digests[0])} bytes")
