"""Network components vs hand computations and brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from side import model as mdl
from side import numerics as nm
from side.config import ABLATIONS
from side.core import IMPACT_DIM
from side.model import ModelConfig

from test_numerics import finite_diff, rel_err, unfused_attention, unfused_feed_forward


def tiny_cfg(**kw):
    defaults = dict(lookback=6, horizon=2, width=4, hidden=8)
    defaults.update(kw)
    return ModelConfig(**defaults)


def brute_force_cross_attention(h_m, h_d, w):
    """Independent explicit-loop implementation of the cross-attention path."""
    t, d = h_m.shape

    def mm(a, b):
        rows, inner = len(a), len(a[0])
        cols = len(b[0])
        out = [[0.0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                acc = 0.0
                for k in range(inner):
                    acc += a[i][k] * b[k][j]
                out[i][j] = acc
        return out

    def softmax_row(row):
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        s = sum(exps)
        return [e / s for e in exps]

    hm = h_m.tolist()
    hd = h_d.tolist()
    q_m = mm(hm, w["cross.wq_m"].tolist())
    k_d = mm(hd, w["cross.wk_d"].tolist())
    v_d = mm(hd, w["cross.wv_d"].tolist())
    q_d = mm(hd, w["cross.wq_d"].tolist())
    k_m = mm(hm, w["cross.wk_m"].tolist())
    v_m = mm(hm, w["cross.wv_m"].tolist())

    inv = 1.0 / math.sqrt(d)
    scores_md = [[inv * sum(q_m[i][k] * k_d[j][k] for k in range(d)) for j in range(t)] for i in range(t)]
    scores_dm = [[inv * sum(q_d[i][k] * k_m[j][k] for k in range(d)) for j in range(t)] for i in range(t)]
    a_md = [softmax_row(r) for r in scores_md]
    a_dm = [softmax_row(r) for r in scores_dm]
    h_md = mm(a_md, v_d)
    h_dm = mm(a_dm, v_m)
    return np.array(h_md), np.array(h_dm)


def cross_params(rng, d):
    names = ("cross.wq_m", "cross.wk_d", "cross.wv_d", "cross.wq_d", "cross.wk_m", "cross.wv_m")
    return nm.Params({n: rng.normal(size=(d, d)) for n in names})


class TestCrossAttend:
    def test_hand_case_one_by_one(self):
        # d=1, T_L=1: softmax of a 1x1 matrix is 1, so outputs swap channels
        params = nm.Params({n: np.array([[1.0]]) for n in cross_params(np.random.default_rng(0), 1)})
        h_m = nm.constant([[2.0]])
        h_d = nm.constant([[3.0]])
        h_md, h_dm = mdl.cross_attend(h_m, h_d, params)
        np.testing.assert_allclose(h_md.value, [[3.0]])
        np.testing.assert_allclose(h_dm.value, [[2.0]])

    def test_matches_brute_force_oracle_100_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            t = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            params = cross_params(rng, d)
            h_m = rng.normal(size=(t, d))
            h_d = rng.normal(size=(t, d))
            got_md, got_dm = mdl.cross_attend(nm.constant(h_m), nm.constant(h_d), params)
            want_md, want_dm = brute_force_cross_attention(
                h_m, h_d, {k: p.value for k, p in params.items()}
            )
            np.testing.assert_allclose(got_md.value, want_md, atol=1e-10, rtol=0)
            np.testing.assert_allclose(got_dm.value, want_dm, atol=1e-10, rtol=0)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        d, t = 3, 4
        params = cross_params(rng, d)
        h_m = nm.constant(rng.normal(size=(t, d)))
        h_d = nm.constant(rng.normal(size=(t, d)))
        inv = 1.0 / math.sqrt(d)
        a_md = nm.softmax_rows(
            nm.scale(nm.matmul(nm.matmul(h_m, params["cross.wq_m"]), nm.transpose(nm.matmul(h_d, params["cross.wk_d"]))), inv)
        )
        np.testing.assert_allclose(a_md.value.sum(axis=1), np.ones(t), atol=1e-6)


class TestEncode:
    def test_output_shape_and_determinism(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(0)
        params = mdl.init_params(cfg, rng)
        seq = rng.normal(size=(cfg.lookback, IMPACT_DIM))
        h1 = mdl.encode(nm.constant(seq), params, "enc_impact")
        h2 = mdl.encode(nm.constant(seq.copy()), params, "enc_impact")
        assert h1.value.shape == (cfg.lookback, cfg.width)
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_gradient_wrt_input_matches_finite_differences(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(1)
        params = mdl.init_params(cfg, rng)
        seq_value = rng.normal(size=(cfg.lookback, 1))

        seq = nm.Params({"seq": seq_value})["seq"]
        loss = nm.mean_all(nm.square(mdl.encode(seq, params, "enc_severity")))
        nm.backward(loss)

        def f(x):
            out = mdl.encode(nm.constant(x), params, "enc_severity")
            return float(nm.mean_all(nm.square(out)).value)

        fd = finite_diff(f, seq_value.copy())
        assert rel_err(seq.grad, fd) < 1e-4


class TestDecode:
    def test_output_shapes_paper_defaults(self):
        cfg = ModelConfig(lookback=52, horizon=5, width=8, hidden=16)
        params = mdl.init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        h_md = nm.constant(rng.normal(size=(3, 52, 8)))
        h_dm = nm.constant(rng.normal(size=(3, 52, 8)))
        sev, imp = mdl.decode(h_md, h_dm, params)
        assert sev.value.shape == (3, 5)
        assert imp.value.shape == (3, 5, 22)

    def test_zero_parameters_give_zero_outputs(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, np.random.default_rng(0))
        params.value.fill(0.0)
        sev, imp = mdl.forward(params, cfg, np.zeros((2, cfg.lookback)), np.zeros((2, cfg.lookback, 22)))
        np.testing.assert_array_equal(sev.value, np.zeros((2, cfg.horizon)))
        np.testing.assert_array_equal(imp.value, np.zeros((2, cfg.horizon, 22)))


class TestForwardNoAttention:
    def test_ablation_config_routes_around_attention(self):
        cfg = tiny_cfg(ablation="no_attention")
        params = mdl.init_params(cfg, np.random.default_rng(0))
        # zero every cross-attention weight: outputs must be unaffected
        rng = np.random.default_rng(2)
        sev_in = rng.normal(size=(3, cfg.lookback))
        imp_in = rng.normal(size=(3, cfg.lookback, IMPACT_DIM))
        base_sev, base_imp = mdl.forward(params, cfg, sev_in, imp_in)
        for name, p in params.items():
            if name.startswith("cross."):
                p.value.fill(0.0)
        sev, imp = mdl.forward(params, cfg, sev_in, imp_in)
        np.testing.assert_array_equal(sev.value, base_sev.value)
        np.testing.assert_array_equal(imp.value, base_imp.value)


class TestJointLoss:
    def test_perfect_prediction_zero(self):
        pred_s = nm.constant(np.array([1.0, 2.0]))
        pred_i = nm.constant(np.ones((2, 22)) / 22)
        loss = mdl.joint_loss(pred_s, np.array([1.0, 2.0]), pred_i, np.ones((2, 22)) / 22, 1.0, 1.0)
        assert float(loss.value) == 0.0

    def test_hand_case_single_step(self):
        # T_P=1, pred 2 vs true 0, severity weight only: loss is 4
        loss = mdl.joint_loss(
            nm.constant(np.array([2.0])),
            np.array([0.0]),
            nm.constant(np.zeros((1, 22))),
            np.zeros((1, 22)),
            1.0,
            0.0,
        )
        assert float(loss.value) == 4.0

    def test_impact_weight_zero_leaves_severity_term(self):
        rng = np.random.default_rng(0)
        pred_s = nm.constant(rng.normal(size=3))
        true_s = rng.normal(size=3)
        pred_i = nm.constant(rng.normal(size=(3, 22)))
        true_i = rng.normal(size=(3, 22))
        loss = mdl.joint_loss(pred_s, true_s, pred_i, true_i, 2.0, 0.0)
        expected = 2.0 * np.sum((pred_s.value - true_s) ** 2)
        np.testing.assert_allclose(float(loss.value), expected)

    def test_matches_per_step_mse_sum(self):
        rng = np.random.default_rng(3)
        horizon = 4
        pred_s, true_s = rng.normal(size=horizon), rng.normal(size=horizon)
        pred_i, true_i = rng.normal(size=(horizon, 22)), rng.normal(size=(horizon, 22))
        loss = mdl.joint_loss(
            nm.constant(pred_s), true_s, nm.constant(pred_i), true_i, 0.7, 1.3
        )
        expected = sum(
            0.7 * (pred_s[i] - true_s[i]) ** 2
            + 1.3 * np.mean((pred_i[i] - true_i[i]) ** 2)
            for i in range(horizon)
        )
        np.testing.assert_allclose(float(loss.value), expected, rtol=1e-12)


def end_to_end_loss(param_values, cfg, sev_in, imp_in, sev_out, imp_out):
    params = {k: nm.constant(v) for k, v in param_values.items()}
    sev_pred, imp_pred = mdl.forward(params, cfg, sev_in, imp_in)
    return float(mdl.joint_loss(sev_pred, sev_out, imp_pred, imp_out, 1.0, 1.0).value)


@pytest.mark.parametrize("seed", [0, 1])
def test_end_to_end_gradient_matches_finite_differences(seed):
    cfg = tiny_cfg()
    rng = np.random.default_rng(seed)
    params = mdl.init_params(cfg, rng)
    sev_in = rng.normal(size=(2, cfg.lookback))
    imp_in = rng.uniform(0, 1, size=(2, cfg.lookback, IMPACT_DIM))
    sev_out = rng.normal(size=(2, cfg.horizon))
    imp_out = rng.uniform(0, 1, size=(2, cfg.horizon, IMPACT_DIM))

    sev_pred, imp_pred = mdl.forward(params, cfg, sev_in, imp_in)
    nm.backward(mdl.joint_loss(sev_pred, sev_out, imp_pred, imp_out, 1.0, 1.0))

    values = {k: p.value for k, p in params.items()}
    for name in values:
        def f(x, name=name):
            probe = dict(values)
            probe[name] = x
            return end_to_end_loss(probe, cfg, sev_in, imp_in, sev_out, imp_out)

        fd = finite_diff(f, values[name].copy())
        assert rel_err(params[name].grad, fd) < 1e-4, name


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_batched_forward_rows_equal_single_window_forward(ablation):
    # 7 windows: fewer than the 8 windows per graph that training uses
    cfg = tiny_cfg(ablation=ablation)
    rng = np.random.default_rng(11)
    params = mdl.init_params(cfg, rng)
    sev_in = rng.normal(size=(7, cfg.lookback))
    imp_in = mdl.apply_input_mask(rng.uniform(0, 1, size=(7, cfg.lookback, IMPACT_DIM)), ablation)
    sev, imp = mdl.forward(params, cfg, sev_in, imp_in)
    assert sev.value.shape == (7, cfg.horizon) and imp.value.shape == (7, cfg.horizon, IMPACT_DIM)
    for i in range(7):
        one_sev, one_imp = mdl.forward(params, cfg, sev_in[i : i + 1], imp_in[i : i + 1])
        assert rel_err(sev.value[i], one_sev.value[0]) < 1e-12, i
        assert rel_err(imp.value[i], one_imp.value[0]) < 1e-12, i


def test_severity_path_invariant_to_impact_targets_when_masked():
    # lambda_M = 0 and zeroed impact inputs: severity forecast ignores impact
    cfg = tiny_cfg()
    rng = np.random.default_rng(7)
    params = mdl.init_params(cfg, rng)
    sev_in = rng.normal(size=(1, cfg.lookback))
    zeros = np.zeros((1, cfg.lookback, IMPACT_DIM))
    sev_a, imp_a = mdl.forward(params, cfg, sev_in, zeros)
    sev_b, imp_b = mdl.forward(params, cfg, sev_in, zeros.copy())
    np.testing.assert_array_equal(sev_a.value, sev_b.value)
    targets = rng.normal(size=(1, cfg.horizon))
    imp_targets_1 = rng.normal(size=(1, cfg.horizon, IMPACT_DIM))
    imp_targets_2 = rng.normal(size=(1, cfg.horizon, IMPACT_DIM))
    l1 = mdl.joint_loss(sev_a, targets, imp_a, imp_targets_1, 1.0, 0.0)
    l2 = mdl.joint_loss(sev_b, targets, imp_b, imp_targets_2, 1.0, 0.0)
    assert float(l1.value) == float(l2.value)


def test_input_mask_zeroes_correct_half():
    imp = np.ones((3, 22))
    social_masked = mdl.apply_input_mask(imp, "no_social")
    news_masked = mdl.apply_input_mask(imp, "no_news")
    assert social_masked[:, :11].sum() == 0 and social_masked[:, 11:].sum() == 33
    assert news_masked[:, 11:].sum() == 0 and news_masked[:, :11].sum() == 33
    np.testing.assert_array_equal(mdl.apply_input_mask(imp, "full"), imp)


def test_positional_table_shape_and_range():
    table = mdl.sinusoidal_positions(10, 8)
    assert table.shape == (10, 8)
    assert np.all(np.abs(table) <= 1.0)
    assert table[0, 0] == 0.0 and table[0, 1] == 1.0  # sin(0), cos(0)
    # built once and shared by every forward pass, so nobody may write into it
    assert mdl.sinusoidal_positions(10, 8) is table and not table.flags.writeable


def reference_forward(params, cfg, severity_in, impact_in):
    """:func:`side.model.forward` from primitives only, attention and feed-forward unfused."""
    table = mdl.sinusoidal_positions(cfg.lookback, cfg.width)
    positions = nm.constant(np.broadcast_to(table, (severity_in.shape[0], *table.shape)))

    def encode(seq, prefix):
        w = {name.removeprefix(prefix + "."): p for name, p in params.items() if name.startswith(prefix)}
        x = nm.add(nm.matmul(nm.constant(seq), w["proj"]), positions)
        q, k, v = (nm.matmul(x, w[f"attn.{name}"]) for name in ("wq", "wk", "wv"))
        x = nm.layer_norm_rows(nm.add(x, nm.matmul(unfused_attention(q, k, v), w["attn.wo"])))
        return nm.layer_norm_rows(nm.add(x, unfused_feed_forward(x, w["ff.w1"], w["ff.w2"])))

    h_m, h_d = encode(impact_in, "enc_impact"), encode(severity_in[..., None], "enc_severity")
    if cfg.ablation != "no_attention":
        def mm(h, w):
            return nm.matmul(h, params[f"cross.{w}"])

        h_m, h_d = (
            unfused_attention(mm(h_m, "wq_m"), mm(h_d, "wk_d"), mm(h_d, "wv_d")),
            unfused_attention(mm(h_d, "wq_d"), mm(h_m, "wk_m"), mm(h_m, "wv_m")),
        )
    return mdl.decode(h_m, h_d, params)


def reference_backward(root):
    """Backward as it ran before leaves took their gradients early: each waits in ``local`` for its turn."""
    local = {id(root): np.ones(())}
    for node in reversed(nm._topo_order(root)):
        g = local.pop(id(node), None)
        if g is None:
            continue
        if node.vjp is None:
            if node.grad is not None:
                node.grad += g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            local[id(parent)] = local[id(parent)] + pg if id(parent) in local else pg


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_fused_forward_and_backward_are_bit_equal_to_primitives(ablation):
    # a minibatch of 4 chunks of 8 windows, each chunk's gradient added into
    # params.grad, at model defaults
    cfg = ModelConfig(ablation=ablation)
    rng = np.random.default_rng(21)
    fused, ref = (mdl.init_params(cfg, np.random.default_rng(3)) for _ in range(2))
    for _ in range(4):
        sev_in, sev_out = rng.normal(size=(8, cfg.lookback)), rng.normal(size=(8, cfg.horizon))
        imp_in = mdl.apply_input_mask(rng.uniform(0, 1, size=(8, cfg.lookback, IMPACT_DIM)), ablation)
        imp_out = rng.uniform(0, 1, size=(8, cfg.horizon, IMPACT_DIM))
        outputs = []
        for params, fwd, bwd in ((fused, mdl.forward, nm.backward), (ref, reference_forward, reference_backward)):
            sev, imp = fwd(params, cfg, sev_in, imp_in)
            loss = mdl.joint_loss(sev, sev_out, imp, imp_out, 0.7, 1.3)
            bwd(nm.scale(loss, 0.25))
            outputs.append(sev.value.tobytes() + imp.value.tobytes() + loss.value.tobytes())
        assert outputs[0] == outputs[1]
    assert fused.grad.tobytes() == ref.grad.tobytes()
    assert np.count_nonzero(fused.grad) > fused.grad.size // 2


def test_eight_window_pass_stays_in_its_memory():
    # one forward and backward pass of 8 windows at model defaults; with
    # every intermediate the primitive chains keep, this peaked at 10.9 MiB
    cfg = ModelConfig()
    rng = np.random.default_rng(8)
    params = mdl.init_params(cfg, rng)
    sev_in, sev_out = rng.normal(size=(8, cfg.lookback)), rng.normal(size=(8, cfg.horizon))
    imp_in = rng.uniform(0, 1, size=(8, cfg.lookback, IMPACT_DIM))
    imp_out = rng.uniform(0, 1, size=(8, cfg.horizon, IMPACT_DIM))
    tracemalloc.start()
    try:
        sev, imp = mdl.forward(params, cfg, sev_in, imp_in)
        loss = mdl.joint_loss(sev, sev_out, imp, imp_out, 1.0, 1.0)
        nm.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    # the graph survives its backward pass: a second one adds the same gradient
    once = params.grad.copy()
    nm.backward(loss)
    assert np.array_equal(params.grad, 2.0 * once)
