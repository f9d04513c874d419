"""Dense float64 tensors with reverse-mode autodiff and Adam.

A Node wraps a numpy array plus the vector-Jacobian rule of the op that
produced it.  Graphs are built eagerly by the op functions below and
differentiated by :func:`backward` into the parameters, which live
in :class:`Params` as views of one flat value and one flat gradient
vector.  Only the shapes the forecasting networks need are supported:
matmul of stacked matrices by one weight matrix or by a stack of the same
batch shape, last-axis ops (softmax, layer norm, concatenation, slicing),
same-shape elementwise ops and scalar scaling -- no other broadcasting,
so every backward rule stays auditable.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import atomic_write
from .errors import ConfigError, NumericsError, ShapeError


class Node:
    """One vertex of the computation graph.

    ``value`` is a float64 array.  ``grad`` is None except on parameters
    (see :class:`Params`), where it is a buffer that backward adds into.
    ``vjp`` maps the output gradient to one gradient per parent, in parent
    order.
    """

    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


class Params(dict):
    """Name -> parameter Node, in insertion order, backed by two flat vectors.

    Each node's ``value`` and ``grad`` are reshaped views of ``self.value``
    and ``self.grad``, so one vector operation resets every gradient
    (``params.grad.fill(0.0)``) or updates every value (:func:`adam_step`).
    Gradients start at zero.
    """

    def __init__(self, arrays: dict):
        super().__init__((name, Node(a)) for name, a in arrays.items())
        self.value = np.zeros(sum(node.value.size for node in self.values()))
        self.grad = np.zeros_like(self.value)
        views = zip(self.values(), self.arrays(self.value).values(), self.arrays(self.grad).values())
        for node, value, grad in views:
            value[...] = node.value
            node.value, node.grad = value, grad

    def arrays(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> reshaped view of ``flat``, a vector laid out like ``value``."""
        out, lo = {}, 0
        for name, node in self.items():
            out[name] = flat[lo : lo + node.value.size].reshape(node.value.shape)
            lo += node.value.size
        return out


def constant(value) -> Node:
    """Leaf node with no gradient (inputs, targets, fixed tables)."""
    return Node(value)


def _topo_order(root: Node) -> list[Node]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Add d(root)/d(p) in place into ``grad`` of every parameter ancestor p.

    Constants and intermediate nodes keep ``grad`` None.  ``root`` must be
    scalar.  Gradients add onto whatever is already in ``grad``, so
    backward of a sum of losses equals the sum of backward passes.  A
    parameter adds each consumer's gradient as soon as that consumer's VJP
    returns it, so none is held until the end of the pass; a parameter
    with several consumers therefore sums their gradients into ``grad``
    one at a time.
    """
    if root.value.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")
    if root.vjp is None:
        if root.grad is not None:
            root.grad += 1.0
        return
    order = _topo_order(root)
    local = {id(root): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        # every consumer of a node comes before it here, so its gradient is
        # complete; popping it frees each one as soon as it has been used
        out_grad = local.pop(id(node), None)
        if out_grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(out_grad)):
            if parent.vjp is None:
                # a leaf: a parameter adds its gradient now, a constant drops it
                if parent.grad is not None:
                    parent.grad += g
                continue
            key = id(parent)
            if key in local:
                local[key] = local[key] + g
            else:
                local[key] = g


def _require_rank(x: Node, rank: int, op: str) -> None:
    if x.value.ndim < rank:
        raise ShapeError(f"{op}: expected rank >= {rank}, got shape {x.value.shape}")


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: Node, factor: float) -> Node:
    c = float(factor)
    return Node(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Node, b: Node) -> Node:
    """``(..., n, k) @ (k, m)``, or ``(..., n, k) @ (..., k, m)`` with equal leading axes.

    In the first form ``b`` is a weight shared by every leading index of
    ``a``, and its gradient is one GEMM over all of them.
    """
    _require_rank(a, 2, "matmul")
    _require_rank(b, 2, "matmul")
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2] or not (bv.ndim == 2 or av.shape[:-2] == bv.shape[:-2]):
        raise ShapeError(f"matmul: {av.shape} x {bv.shape}")

    return Node(av @ bv, (a, b), lambda g: _matmul_grads(av, bv, g))


def _matmul_grads(av: np.ndarray, bv: np.ndarray, g: np.ndarray):
    """Gradients of ``av @ bv`` w.r.t. both operands, given ``g`` of the product."""
    if bv.ndim == 2:
        k, m = bv.shape
        return g @ bv.T, av.reshape(-1, k).T @ g.reshape(-1, m)
    return g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g


def transpose(a: Node) -> Node:
    """Swap the last two axes."""
    _require_rank(a, 2, "transpose")
    return Node(np.swapaxes(a.value, -1, -2).copy(), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def concat_last_dim(a: Node, b: Node) -> Node:
    _require_rank(a, 1, "concat_last_dim")
    if a.value.shape[:-1] != b.value.shape[:-1] or a.value.ndim != b.value.ndim:
        raise ShapeError(f"concat_last_dim: {a.value.shape} vs {b.value.shape}")
    na = a.value.shape[-1]
    return Node(
        np.concatenate([a.value, b.value], axis=-1),
        (a, b),
        lambda g: (g[..., :na], g[..., na:]),
    )


def slice_last_dim(a: Node, start: int, stop: int) -> Node:
    """``a[..., start:stop]`` as a copy; the gradient is zero outside the slice."""
    _require_rank(a, 1, "slice_last_dim")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[..., start:stop] = g
        return (full,)

    return Node(a.value[..., start:stop].copy(), (a,), vjp)


def reshape(a: Node, shape) -> Node:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.value.size:
        raise ShapeError(f"reshape: {a.value.shape} -> {shape}")
    old = a.value.shape
    return Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def mean_all(a: Node) -> Node:
    n = a.value.size
    if n == 0:
        raise ShapeError("mean_all: empty tensor")
    shape = a.value.shape
    return Node(a.value.mean(), (a,), lambda g: (np.full(shape, g / n),))


def square(a: Node) -> Node:
    av = a.value
    return Node(av * av, (a,), lambda g: (g * 2.0 * av,))


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    return Node(y, (a,), lambda g: (_tanh_grad(y, g),))


def _tanh_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g * (1.0 - y * y)``, each step written into the one new array."""
    out = y * y
    np.subtract(1.0, out, out=out)
    out *= g
    return out


def softmax_rows(a: Node) -> Node:
    """Rowwise softmax along the last axis, max-subtracted for stability."""
    if a.value.ndim < 2:
        raise ShapeError(f"softmax_rows: rank must be >= 2, got shape {a.value.shape}")
    y = _softmax(a.value)
    return Node(y, (a,), lambda g: (_softmax_grad(y, g),))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * y).sum(axis=-1, keepdims=True)
    out = g - inner
    out *= y
    return out


def layer_norm_rows(a: Node) -> Node:
    """Normalize along the last axis to zero mean, unit variance (no affine params; variance offset 1e-5)."""
    _require_rank(a, 1, "layer_norm_rows")
    mu = a.value.mean(axis=-1, keepdims=True)
    centered = a.value - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = centered * inv

    def vjp(g):
        g_mean = g.mean(axis=-1, keepdims=True)
        gy_mean = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - g_mean - y * gy_mean),)

    return Node(y, (a,), vjp)


# ---------------------------------------------------------------------------
# Fused blocks
# ---------------------------------------------------------------------------
#
# Each fused op runs the numpy calls of its primitive chain, on the same
# operand layouts and in the same order, forward and backward, so its value
# and gradients are bit for bit those of the chain; an elementwise step may
# write into a temporary instead of a new array, which changes no bit.  It
# is one node, though, and keeps fewer arrays alive until backward: the
# chain's intermediate values are recomputed or never kept.  Its parents
# come in the order the chain's backward pass reaches them, so an input
# that other nodes use too sums its gradients in the chain's order.


def attention(q: Node, k: Node, v: Node) -> Node:
    """``softmax_rows(q @ k^T / sqrt(d)) @ v`` within each leading index.

    ``q`` is ``(..., n, d)``, ``k`` is ``(..., t, d)`` and ``v`` is
    ``(..., t, m)`` with equal leading axes.  Equals
    ``matmul(softmax_rows(scale(matmul(q, transpose(k)), 1 / sqrt(d))), v)``, but
    keeps only ``q``, ``k``, ``v`` and the probabilities, not the transposed
    keys or the raw and scaled scores.
    """
    _require_rank(q, 2, "attention")
    qv, kv, vv = q.value, k.value, v.value
    if not (
        qv.ndim == kv.ndim == vv.ndim
        and qv.shape[:-2] == kv.shape[:-2] == vv.shape[:-2]
        and qv.shape[-1] == kv.shape[-1]
        and kv.shape[-2] == vv.shape[-2]
    ):
        raise ShapeError(f"attention: {qv.shape}, {kv.shape}, {vv.shape}")
    c = 1.0 / math.sqrt(qv.shape[-1])
    p = _softmax(qv @ np.swapaxes(kv, -1, -2).copy() * c)

    def vjp(g):
        dp, dv = _matmul_grads(p, vv, g)
        ds = _softmax_grad(p, dp)
        del dp
        ds *= c
        dq, dkt = _matmul_grads(qv, np.swapaxes(kv, -1, -2).copy(), ds)
        return dq, np.swapaxes(dkt, -1, -2), dv

    return Node(p @ vv, (q, k, v), vjp)


def feed_forward(x: Node, w1: Node, w2: Node) -> Node:
    """``tanh(x @ w1) @ w2`` for ``x`` of shape ``(..., n, k)`` and weights ``(k, h)``, ``(h, m)``.

    Equals ``matmul(tanh(matmul(x, w1)), w2)``, but keeps only ``x`` and the
    tanh output, not the pre-activation.
    """
    _require_rank(x, 2, "feed_forward")
    xv, w1v, w2v = x.value, w1.value, w2.value
    if w1v.ndim != 2 or w2v.ndim != 2 or xv.shape[-1] != w1v.shape[0] or w1v.shape[1] != w2v.shape[0]:
        raise ShapeError(f"feed_forward: {xv.shape} x {w1v.shape} x {w2v.shape}")
    y = xv @ w1v
    np.tanh(y, out=y)

    def vjp(g):
        dy, dw2 = _matmul_grads(y, w2v, g)
        dh = _tanh_grad(y, dy)
        del dy
        dx, dw1 = _matmul_grads(xv, w1v, dh)
        return dx, dw1, dw2

    return Node(y @ w2v, (x, w1, w2), vjp)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


#: Elements per pass of :func:`adam_step`.  One block of its six vectors
#: (value, gradient, two moments, two scratch) is 768 KB and stays in a
#: core's cache across the update's eleven operations, where whole-vector
#: passes would each stream from memory.  The two 128 KB scratch vectors
#: add less to peak memory than two kept vectors of the full length.
_ADAM_BLOCK = 16384

#: Adam's moment decay rates and denominator offset (Kingma & Ba, 2015), and
#: the factor by which :func:`decay_learning_rate` scales the learning rate.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
LR_DECAY = 0.5


@dataclass
class AdamState:
    """Adam moments (flat, laid out like ``Params.value``), step count and learning rate.

    ``scratch`` holds the two block-sized work vectors of :func:`adam_step`,
    allocated once with the moments instead of afresh every step.
    """

    learning_rate: float = 1e-3
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    scratch: np.ndarray | None = None


def adam_step(params: Params, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params.value``, in place.

    Per element this is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``
    and ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, evaluated in that
    order, block by block of the flat vector, in the scratch vectors of
    ``state``.  A parameter that received no gradient has a zero one and
    stays unchanged.

    Raises:
        NumericsError: a gradient contains NaN/inf, naming the first such
            parameter; nothing is updated.
    """
    g = params.grad
    if not np.all(np.isfinite(g)):
        name = next(k for k, p in params.items() if not np.all(np.isfinite(p.grad)))
        raise NumericsError(f"non-finite gradient in parameter {name!r}")
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(g), np.zeros_like(g)
        state.scratch = np.empty((2, min(g.size, _ADAM_BLOCK)))
    state.step += 1
    bc1, bc2 = 1.0 - ADAM_BETA1**state.step, 1.0 - ADAM_BETA2**state.step
    for lo in range(0, g.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        gb, p = g[block], params.value[block]
        m, v = state.first_moment[block], state.second_moment[block]
        a, b = state.scratch[:, : gb.size]
        np.multiply(1.0 - ADAM_BETA1, gb, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(gb, gb, out=a)
        a *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += a
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPSILON
        np.divide(m, bc1, out=a)
        a *= state.learning_rate
        a /= b
        p -= a


def decay_learning_rate(state: AdamState) -> float:
    """Apply the plateau decay factor; returns the new learning rate."""
    state.learning_rate *= LR_DECAY
    return state.learning_rate


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "side-checkpoint-v2"


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config block."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path, params: Params, config: dict, extras: dict | None = None) -> None:
    """Write parameters + config as JSON.

    ``layout`` lists ``[name, shape]`` in :class:`Params` order and
    ``values`` is ``params.value`` as base64 of little-endian float64, so
    a round trip through :func:`load_checkpoint` is bit-exact.  The JSON
    is strict: a non-finite float in ``config`` or ``extras`` raises
    ``ValueError`` before anything is written.  The write is atomic
    (:func:`side.core.atomic_write`): a failed save leaves any earlier
    checkpoint at ``path`` intact.
    """
    text = json.dumps({
        "format": _CHECKPOINT_FORMAT,
        "config": config,
        "config_hash": config_hash(config),
        "extras": extras or {},
        "layout": [[name, list(node.shape)] for name, node in params.items()],
        "values": base64.b64encode(params.value.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }, allow_nan=False)
    with atomic_write(path) as fh:
        fh.write(text)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; returns params (a :class:`Params`), config, extras.

    Raises:
        ConfigError: a ``side-checkpoint-v1`` file, which must be retrained.
        NumericsError: not a checkpoint of this format (invalid JSON, a key
            missing or of the wrong type, a bad shape or base64, too few or
            too many values), or a config that fails its hash.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            fmt = payload.get("format") if isinstance(payload, dict) else None
            if fmt == "side-checkpoint-v1":
                raise ConfigError(f"{path} is a {fmt} checkpoint, which this version does not read; retrain")
            if fmt != _CHECKPOINT_FORMAT:
                raise NumericsError(f"unrecognized checkpoint format in {path}")
            if not (isinstance(payload["config"], dict) and isinstance(payload["extras"], dict)):
                raise NumericsError(f"checkpoint config or extras in {path} is not a JSON object")
            if config_hash(payload["config"]) != payload["config_hash"]:
                raise NumericsError(f"checkpoint config hash mismatch in {path}")
            layout = {name: tuple(shape) for name, shape in payload["layout"]}
            for name, shape in layout.items():
                if any(dim < 0 for dim in shape):  # reshape would read -1 as "the rest"
                    raise ValueError(f"parameter {name!r} has a negative dimension in {shape}")
            values = np.frombuffer(base64.b64decode(payload["values"], validate=True), dtype="<f8")
            sizes = [math.prod(shape) for shape in layout.values()]
            if values.size != sum(sizes):  # checked before allocating
                raise ValueError(f"{values.size} values do not fill the layout")
            # Params copies each parameter's slice of the decoded vector into its own buffer.
            params = Params({name: values[lo : lo + size].reshape(shape)
                             for (name, shape), lo, size in zip(layout.items(), accumulate(sizes, initial=0), sizes)})
            return {"params": params, "config": payload["config"], "extras": payload["extras"]}
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise NumericsError(f"malformed checkpoint {path}: {exc!r}") from exc
