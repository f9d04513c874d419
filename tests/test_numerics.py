"""Autodiff engine: forward values, gradients vs finite differences, Adam."""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from side import numerics as nm
from side.errors import NumericsError, ShapeError

RNG = np.random.default_rng(1234)


def finite_diff(fn, x, h=1e-5):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-6)
    return np.max(np.abs(a - b)) / denom


def check_grad(build, shapes, seed):
    """build(nodes) -> scalar Node; compares backward grads to FD."""
    rng = np.random.default_rng(seed)
    values = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]
    nodes = list(nm.Params({f"x{i}": v for i, v in enumerate(values)}).values())
    loss = build(nodes)
    nm.backward(loss)
    for i, v in enumerate(values):
        def scalar_fn(x, i=i):
            probe = [nm.constant(values[j]) if j != i else nm.constant(x) for j in range(len(values))]
            return float(build(probe).value)

        fd = finite_diff(scalar_fn, v.copy())
        assert rel_err(nodes[i].grad, fd) < 1e-4, f"operand {i} gradient mismatch"


def test_matmul_identity():
    a = nm.constant([[1.0, 2.0], [3.0, 4.0]])
    out = nm.matmul(a, nm.constant(np.eye(2)))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_mean_square_hand_gradient():
    # d(mean(x^2))/dx at x=[1,2] is [1.0, 2.0]
    x = nm.Params({"x": np.array([1.0, 2.0])})["x"]
    sq = nm.square(x)
    nm.backward(nm.mean_all(sq))
    np.testing.assert_allclose(x.grad, [1.0, 2.0], rtol=0, atol=0)
    assert sq.grad is None, "only leaves keep a gradient"


def test_concat_shape():
    out = nm.concat_last_dim(nm.constant(np.zeros((2, 3))), nm.constant(np.ones((2, 4))))
    assert out.value.shape == (2, 7)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nm.matmul(nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        nm.add(nm.constant(np.zeros(2)), nm.constant(np.zeros(3)))


@pytest.mark.parametrize("seed", range(5))
def test_op_gradients_match_finite_differences(seed):
    check_grad(lambda n: nm.mean_all(nm.matmul(n[0], n[1])), [(3, 4), (4, 2)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.matmul(n[0], n[1]))), [(2, 3, 4), (4, 2)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.matmul(n[0], n[1]))), [(2, 3, 4), (2, 4, 2)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.add(n[0], n[1]))), [(3, 3), (3, 3)], seed)
    check_grad(lambda n: nm.mean_all(nm.scale(n[0], -1.7)), [(2, 5)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.transpose(n[0]))), [(2, 4)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.transpose(n[0]))), [(3, 2, 4)], seed)
    for shapes in ([(2, 3), (2, 4)], [(2, 3, 2), (2, 3, 4)]):
        check_grad(lambda n: nm.mean_all(nm.square(nm.concat_last_dim(n[0], n[1]))), shapes, seed)
    for shape in ((3, 4), (2, 3, 4)):
        check_grad(lambda n: nm.mean_all(nm.square(nm.slice_last_dim(n[0], 1, 3))), [shape], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.reshape(n[0], (6, 2)))), [(3, 4)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.tanh(n[0]))), [(3, 3)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.softmax_rows(n[0]))), [(3, 4)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.softmax_rows(n[0]))), [(2, 3, 4)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.layer_norm_rows(n[0]))), [(3, 5)], seed)
    check_grad(lambda n: nm.mean_all(nm.square(nm.layer_norm_rows(n[0]))), [(2, 3, 5)], seed)


def test_batched_ops_equal_per_matrix_ops():
    rng = np.random.default_rng(5)
    a, b, w = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 5))
    shared = nm.matmul(nm.constant(a), nm.constant(w)).value
    stacked = nm.matmul(nm.constant(a), nm.constant(b)).value
    swapped = nm.transpose(nm.constant(a)).value
    normed = nm.layer_norm_rows(nm.constant(a)).value
    for i in range(3):
        np.testing.assert_allclose(shared[i], a[i] @ w, rtol=1e-14)
        np.testing.assert_allclose(stacked[i], a[i] @ b[i], rtol=1e-14)
        np.testing.assert_array_equal(swapped[i], a[i].T)
        np.testing.assert_allclose(normed[i], nm.layer_norm_rows(nm.constant(a[i])).value, rtol=1e-14)
    np.testing.assert_array_equal(nm.slice_last_dim(nm.constant(a), 1, 3).value, a[..., 1:3])


def test_matmul_rejects_broadcasting():
    x = nm.constant(np.zeros((3, 2, 4)))
    with pytest.raises(ShapeError, match=r"\(3, 2, 4\).*\(2, 4, 5\)"):
        nm.matmul(x, nm.constant(np.zeros((2, 4, 5))))
    with pytest.raises(ShapeError):
        nm.matmul(nm.constant(np.zeros((2, 4))), nm.constant(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError):
        nm.concat_last_dim(x, nm.constant(np.zeros((2, 4))))


def test_softmax_uniform_row():
    out = nm.softmax_rows(nm.constant([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_large_logits_stable():
    out = nm.softmax_rows(nm.constant([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.value))
    np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one_many_cases():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-50, 50, size=(rng.integers(1, 6), rng.integers(2, 7)))
        y = nm.softmax_rows(nm.constant(x)).value
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(y >= 0) and np.all(y <= 1)


def test_softmax_rows_open_interval_on_moderate_logits():
    # strict (0, 1) bounds need logit gaps small enough for float64
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.uniform(-15, 15, size=(rng.integers(1, 6), rng.integers(2, 7)))
        y = nm.softmax_rows(nm.constant(x)).value
        assert np.all(y > 0) and np.all(y < 1)


def test_backward_linearity():
    # backward of (l1 + l2) equals backward(l1) then backward(l2)
    value = RNG.uniform(-1, 1, size=(3, 3))
    p1 = nm.Params({"p": value})["p"]
    l1 = nm.mean_all(nm.square(p1))
    l2 = nm.mean_all(nm.tanh(p1))
    nm.backward(nm.add(l1, l2))
    combined = p1.grad.copy()

    p2 = nm.Params({"p": value})["p"]
    nm.backward(nm.mean_all(nm.square(p2)))
    nm.backward(nm.mean_all(nm.tanh(p2)))
    np.testing.assert_allclose(p2.grad, combined, rtol=1e-12)


def test_shared_constant_keeps_no_gradient():
    # a constant, as the positional table is, takes no gradient in any graph it joins
    table = nm.constant(np.ones((2, 2)))
    w = nm.Params({"w": np.eye(2)})["w"]
    for _ in range(2):
        nm.backward(nm.mean_all(nm.square(nm.add(nm.matmul(table, w), table))))
    assert table.grad is None
    assert np.all(w.grad != 0.0)


#: A fresh interpreter, as ``side train`` is, so the allocator setting stays
#: out of the test process.  argv[1] is the model width.
_KEPT_HEAP_PROBE = """
import resource, sys
import numpy as np
from side import cli, numerics as nm
from side.model import ModelConfig, param_shapes

cfg = ModelConfig(width=int(sys.argv[1]))
cli._keep_freed_heap(cfg)
rows, cols = param_shapes(cfg)["dec.w1"]
rng = np.random.default_rng(11)
w = nm.Params({"dec.w1": rng.normal(size=(rows, cols))})["dec.w1"]
loss = nm.mean_all(nm.square(nm.matmul(nm.constant(rng.normal(size=(4, rows))), w)))
nm.backward(loss)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    nm.backward(loss)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, w.value.nbytes)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
@pytest.mark.parametrize("width", [32, 64])
def test_weight_gradient_comes_from_kept_heap(width):
    # after a warm-up pass, the largest weight's gradient reuses freed heap
    # each pass instead of faulting in a fresh mmap of its size
    env = dict(os.environ, PYTHONPATH=str(Path(nm.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _KEPT_HEAP_PROBE, str(width)],
                         env=env, capture_output=True, text=True, check=True)
    faults, nbytes = map(int, out.stdout.split())
    assert faults < nbytes // 4096, f"{faults} minor faults in 20 backward passes"


@pytest.mark.parametrize("seed", range(3))
def test_weight_used_twice_gets_both_contributions(seed):
    # two shared-weight matmuls, and a matmul plus an elementwise use
    check_grad(
        lambda n: nm.mean_all(nm.square(nm.add(nm.matmul(n[0], n[1]), nm.matmul(nm.tanh(n[2]), n[1])))),
        [(2, 3, 4), (4, 5), (2, 3, 4)],
        seed,
    )
    check_grad(lambda n: nm.mean_all(nm.square(nm.add(nm.matmul(n[0], n[1]), n[1]))), [(4, 4), (4, 4)], seed)


def test_weight_gradient_adds_each_pass_in_place():
    rng = np.random.default_rng(12)
    w0, a1, a2 = rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 4)), rng.normal(size=(6, 4))
    w = nm.Params({"w": w0})["w"]
    for a in (a1, a2):
        nm.backward(nm.mean_all(nm.square(nm.matmul(nm.constant(a), w))))
    # the gradient of mean(square(a @ w)) at the product, as the vjp of square builds it
    g1, g2 = (np.full(out.shape, 1.0 / out.size) * 2.0 * out for out in (a1 @ w0, a2 @ w0))
    expected = (a1.reshape(-1, 4).T @ g1.reshape(-1, 5)) + (a2.reshape(-1, 4).T @ g2.reshape(-1, 5))
    assert np.array_equal(w.grad, expected)


def unfused_attention(q, k, v):
    scores = nm.scale(nm.matmul(q, nm.transpose(k)), 1.0 / math.sqrt(q.value.shape[-1]))
    return nm.matmul(nm.softmax_rows(scores), v)


def unfused_feed_forward(x, w1, w2):
    return nm.matmul(nm.tanh(nm.matmul(x, w1)), w2)


def tanh_of_first(nodes):
    return [nm.tanh(nodes[0]), *nodes[1:]]


def _attention_loss(n, attend):
    # as in the model, q, k and v come from one node through three weights,
    # and a residual add uses that node too: it sums four gradients, in the
    # order its consumers' VJPs run, and the key gradient enters a matmul VJP
    x, wq, wk, wv = tanh_of_first(n)
    q, k, v = (nm.matmul(x, w) for w in (wq, wk, wv))
    return nm.mean_all(nm.square(nm.add(x, attend(q, k, v))))


def _feed_forward_loss(n, ff):
    x, w1, w2 = tanh_of_first(n)
    return nm.mean_all(nm.square(nm.add(x, ff(x, w1, w2))))


def _fused_and_unfused_gradients(loss_of, fused, unfused, shapes, seed):
    rng = np.random.default_rng(seed)
    values = {f"x{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
    out = []
    for op in (fused, unfused):
        params = nm.Params(values)
        loss = loss_of(list(params.values()), op)
        nm.backward(loss)
        out.append((loss.value.tobytes(), params.grad.tobytes()))
    return out


@pytest.mark.parametrize("lead", [(), (1,), (3,), (8,)])
def test_fused_ops_are_bit_equal_to_their_primitive_chains(lead):
    # the model's shapes: 52 steps of width 32, a feed-forward 4 times wider
    x = (*lead, 52, 32)
    fused, unfused = _fused_and_unfused_gradients(
        _attention_loss, nm.attention, unfused_attention, [x] + [(32, 32)] * 3, seed=sum(lead)
    )
    assert fused == unfused, "attention value or gradients differ from the chain's"
    fused, unfused = _fused_and_unfused_gradients(
        _feed_forward_loss, nm.feed_forward, unfused_feed_forward, [x, (32, 128), (128, 32)], seed=sum(lead)
    )
    assert fused == unfused, "feed-forward value or gradients differ from the chain's"


@pytest.mark.parametrize("seed", range(3))
def test_fused_op_gradients_match_finite_differences(seed):
    for shapes in ([(3, 4), (5, 4), (5, 2)], [(2, 3, 4), (2, 5, 4), (2, 5, 2)]):
        check_grad(lambda n: nm.mean_all(nm.square(nm.attention(n[0], n[1], n[2]))), shapes, seed)
    for lead in ((), (2,)):
        check_grad(
            lambda n: nm.mean_all(nm.square(nm.feed_forward(n[0], n[1], n[2]))),
            [(*lead, 3, 4), (4, 6), (6, 2)],
            seed,
        )


def test_fused_ops_reject_mismatched_shapes():
    def z(*shape):
        return nm.constant(np.zeros(shape))

    with pytest.raises(ShapeError, match="attention"):
        nm.attention(z(2, 3, 4), z(2, 5, 4), z(2, 6, 4))
    with pytest.raises(ShapeError, match="attention"):
        nm.attention(z(2, 3, 4), z(5, 4), z(5, 4))
    with pytest.raises(ShapeError, match="feed_forward"):
        nm.feed_forward(z(2, 3, 4), z(4, 6), z(5, 2))
    with pytest.raises(ShapeError, match="feed_forward"):
        nm.feed_forward(z(2, 3, 4), z(2, 4, 6), z(6, 2))


def test_params_are_views_of_two_flat_vectors():
    params = nm.Params({"a": np.arange(6.0).reshape(2, 3), "b": [7.0, 8.0]})
    np.testing.assert_array_equal(params.value, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    np.testing.assert_array_equal(params.grad, np.zeros(8))
    params.value[6] = -1.0
    params["a"].grad[1, 2] = 5.0
    assert params["b"].value[0] == -1.0 and params.grad[5] == 5.0
    snapshot = params.value.copy()
    arrays = params.arrays(snapshot)
    assert list(arrays) == ["a", "b"] and arrays["a"].shape == (2, 3)
    assert all(np.shares_memory(a, snapshot) for a in arrays.values())
    np.testing.assert_array_equal(arrays["b"], [-1.0, 8.0])


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        nm.backward(nm.constant(np.zeros((2, 2))))


def test_adam_first_step_hand_value():
    # g=1, lr=0.1: bias-corrected update is -0.1 / (1 + 1e-8)
    params = nm.Params({"w": np.array([0.0])})
    params["w"].grad[0] = 1.0
    state = nm.AdamState(learning_rate=0.1)
    nm.adam_step(params, state)
    expected = -0.1 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(params["w"].value, [expected], rtol=0, atol=1e-15)


def test_adam_zero_gradient_no_change():
    params = nm.Params({"w": np.array([1.5, -2.0])})
    np.testing.assert_array_equal(params["w"].grad, np.zeros(2))
    nm.adam_step(params, nm.AdamState(learning_rate=0.1))
    np.testing.assert_array_equal(params["w"].value, [1.5, -2.0])


def test_adam_nan_gradient_names_parameter():
    params = nm.Params({"enc.w0": np.array([0.0]), "enc.w1": np.array([0.0]), "enc.w2": np.array([0.0])})
    params["enc.w0"].grad[0] = 1.0
    params["enc.w1"].grad[0] = np.nan
    params["enc.w2"].grad[0] = np.inf
    state = nm.AdamState()
    with pytest.raises(NumericsError, match="'enc.w1'"):
        nm.adam_step(params, state)
    np.testing.assert_array_equal(params.value, np.zeros(3))  # nothing was updated
    assert state.step == 0


def test_adam_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(42)
        params = nm.Params({"w": rng.normal(size=(4, 4))})
        state = nm.AdamState(learning_rate=0.01)
        for _ in range(25):
            params.grad.fill(0.0)
            nm.backward(nm.mean_all(nm.square(nm.tanh(params["w"]))))
            nm.adam_step(params, state)
        return params.value

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_adam_flat_update_equals_per_name_loop():
    rng = np.random.default_rng(3)
    # "big" makes the flat vector span three blocks of adam_step
    shapes = {"a": (3, 4), "big": (2 * nm._ADAM_BLOCK + 7,), "b": (5,), "frozen": (2, 2), "c": (4, 1)}
    params = nm.Params({name: rng.normal(size=shape) for name, shape in shapes.items()})
    state = nm.AdamState(learning_rate=0.05)
    initial = params.arrays(params.value.copy())
    ref = {name: p.value.copy() for name, p in params.items()}
    first, second = {}, {}
    for t in range(1, 26):
        if t == 10:
            nm.decay_learning_rate(state)
        params.grad.fill(0.0)
        fit = nm.mean_all(nm.square(nm.tanh(nm.matmul(params["a"], params["c"]))))
        rest = nm.add(nm.mean_all(nm.square(params["b"])), nm.mean_all(nm.tanh(params["big"])))
        nm.backward(nm.add(fit, rest))
        grads = {name: p.grad.copy() for name, p in params.items()}
        grads["frozen"] = None  # never reached by backward
        nm.adam_step(params, state)

        # the per-name update that the flat one replaced
        bc1 = 1.0 - nm.ADAM_BETA1**t
        bc2 = 1.0 - nm.ADAM_BETA2**t
        for name, g in grads.items():
            if g is None:
                g = np.zeros_like(ref[name])
            m = first.get(name)
            v = second.get(name)
            if m is None:
                m = np.zeros_like(ref[name])
                v = np.zeros_like(ref[name])
            m = nm.ADAM_BETA1 * m + (1.0 - nm.ADAM_BETA1) * g
            v = nm.ADAM_BETA2 * v + (1.0 - nm.ADAM_BETA2) * (g * g)
            first[name] = m
            second[name] = v
            m_hat = m / bc1
            v_hat = v / bc2
            ref[name] = ref[name] - state.learning_rate * m_hat / (np.sqrt(v_hat) + nm.ADAM_EPSILON)
        for name, p in params.items():
            assert np.array_equal(p.value, ref[name]), (t, name)
    assert not np.array_equal(params["a"].value, initial["a"])
    assert not np.array_equal(params["big"].value, initial["big"])
    np.testing.assert_array_equal(params["frozen"].value, initial["frozen"])


def test_learning_rate_decay_factor():
    state = nm.AdamState(learning_rate=0.5)
    assert nm.decay_learning_rate(state) == 0.25
    assert state.learning_rate == 0.25


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    params = nm.Params({
        "a.w": rng.normal(size=(3, 5)),
        "b.w": np.array([0.1, 1.0 / 3.0, 1e-308, 5e-324, 1.7976931348623157e308, -0.0]),
    })
    config = {"model": {"width": 4}, "train": {"lr": 0.001}}
    path = tmp_path / "ckpt.json"
    nm.save_checkpoint(path, params, config, extras={"note": 1})
    loaded = nm.load_checkpoint(path)
    assert loaded["config"] == config
    assert loaded["extras"] == {"note": 1}
    assert list(loaded["params"]) == list(params)
    for name, node in params.items():
        restored = loaded["params"][name].value
        assert restored.shape == node.shape
        # tobytes, not array_equal, which counts -0.0 equal to 0.0
        assert restored.tobytes() == node.value.tobytes(), "float64 round trip must be bit-exact"


def test_checkpoint_failed_save_keeps_earlier_file(tmp_path, monkeypatch):
    from side import core

    path = tmp_path / "ckpt.json"
    nm.save_checkpoint(path, nm.Params({"w": np.zeros(2)}), {"d": 4})
    before = path.read_bytes()

    class HalfWrite:
        """The file atomic_write opens, on a disk that fills halfway through the write."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(core, "open", lambda *a, **kw: HalfWrite(real_open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        nm.save_checkpoint(path, nm.Params({"w": np.ones(2)}), {"d": 4})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_checkpoint_rejects_tampered_config(tmp_path):
    import json

    path = tmp_path / "ckpt.json"
    nm.save_checkpoint(path, nm.Params({"w": np.zeros(2)}), {"d": 4})
    payload = json.loads(path.read_text())
    payload["config"]["d"] = 8
    path.write_text(json.dumps(payload))
    with pytest.raises(NumericsError, match="hash"):
        nm.load_checkpoint(path)


def test_checkpoint_with_non_finite_extras_is_not_written(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError):
        nm.save_checkpoint(path, nm.Params({"w": np.zeros(2)}), {"d": 4}, {"loss": float("nan")})
    assert not path.exists()
