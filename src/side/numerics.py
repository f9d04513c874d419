"""Dense float64 tensors with reverse-mode autodiff and Adam.

A Node wraps a numpy array plus the vector-Jacobian rule of the op that
produced it.  Graphs are built eagerly by the op functions below and
differentiated by :func:`backward` into the parameters, which live
in :class:`Params` as views of one flat value and one flat gradient
vector.  Only the shapes the forecasting networks need are supported:
2-D matmul, same-shape elementwise ops and scalar scaling -- no implicit
broadcasting, so every backward rule stays auditable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import atomic_write
from .errors import NumericsError, ShapeError


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


def parameter(value, name: str) -> Node:
    """Trainable leaf: the one node of a one-entry :class:`Params`."""
    return Params({name: value})[name]


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
    backward of a sum of losses equals the sum of backward passes.
    """
    if root.value.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    local = {id(root): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        out_grad = local.get(id(node))
        if out_grad is None:
            continue
        if node.vjp is None:
            if node.grad is not None:
                node.grad += out_grad
            continue
        for parent, g in zip(node.parents, node.vjp(out_grad)):
            key = id(parent)
            if key in local:
                local[key] = local[key] + g
            else:
                local[key] = g


def _require_2d(x: Node, op: str) -> None:
    if x.value.ndim != 2:
        raise ShapeError(f"{op}: expected a 2-D operand, got shape {x.value.shape}")


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: Node, factor: float) -> Node:
    c = float(factor)
    return Node(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Node, b: Node) -> Node:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    return Node(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def transpose(a: Node) -> Node:
    _require_2d(a, "transpose")
    return Node(a.value.T.copy(), (a,), lambda g: (g.T,))


def concat_last_dim(a: Node, b: Node) -> Node:
    _require_2d(a, "concat_last_dim")
    _require_2d(b, "concat_last_dim")
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"concat_last_dim: {a.value.shape} vs {b.value.shape}")
    na = a.value.shape[1]
    return Node(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        lambda g: (g[:, :na], g[:, na:]),
    )


def slice2d(a: Node, rows: slice, cols: slice) -> Node:
    _require_2d(a, "slice2d")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[rows, cols] = g
        return (full,)

    return Node(a.value[rows, cols].copy(), (a,), vjp)


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
    return Node(y, (a,), lambda g: (g * (1.0 - y * y),))


def softmax_rows(a: Node) -> Node:
    """Rowwise softmax along the last axis, max-subtracted for stability."""
    if a.value.ndim < 2:
        raise ShapeError(f"softmax_rows: rank must be >= 2, got shape {a.value.shape}")
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return Node(y, (a,), vjp)


def layer_norm_rows(a: Node, eps: float = 1e-5) -> Node:
    """Normalize each row to zero mean, unit variance (no affine params)."""
    _require_2d(a, "layer_norm_rows")
    mu = a.value.mean(axis=1, keepdims=True)
    centered = a.value - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def vjp(g):
        g_mean = g.mean(axis=1, keepdims=True)
        gy_mean = (g * y).mean(axis=1, keepdims=True)
        return (inv * (g - g_mean - y * gy_mean),)

    return Node(y, (a,), vjp)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments (flat, laid out like ``Params.value``) plus the plateau-halving schedule."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lr_decay: float = 0.5
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adam_step(params: Params, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params.value``, in place.

    Per element this is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``
    and ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, evaluated in that
    order over the whole vector with two scratch arrays.  A parameter
    that received no gradient has a zero one and stays unchanged.

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
    state.step += 1
    m, v, t = state.first_moment, state.second_moment, state.step
    a = np.multiply(1.0 - state.beta1, g)
    m *= state.beta1
    m += a
    np.multiply(g, g, out=a)
    a *= 1.0 - state.beta2
    v *= state.beta2
    v += a
    b = np.divide(v, 1.0 - state.beta2**t)
    np.sqrt(b, out=b)
    b += state.epsilon
    np.divide(m, 1.0 - state.beta1**t, out=a)
    a *= state.learning_rate
    a /= b
    params.value -= a


def decay_learning_rate(state: AdamState) -> float:
    """Apply the plateau decay factor; returns the new learning rate."""
    state.learning_rate *= state.lr_decay
    return state.learning_rate


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "side-checkpoint-v1"


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config block."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path, params: dict[str, np.ndarray], config: dict, extras: dict | None = None) -> None:
    """Write parameters + config as JSON.

    Floats are serialized via repr, so a float64 round trip through
    :func:`load_checkpoint` is bit-exact.  The write is atomic
    (:func:`side.core.atomic_write`): a failed save leaves any earlier
    checkpoint at ``path`` intact.
    """
    records = []
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        records.append(
            {"name": name, "shape": list(arr.shape), "values": arr.ravel(order="C").tolist()}
        )
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "config": config,
        "config_hash": config_hash(config),
        "extras": extras or {},
        "params": records,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; returns params (name -> float64 array), config, extras.

    Raises:
        NumericsError: not a checkpoint of this format (invalid JSON, a key
            missing or of the wrong type), or a config that fails its hash.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
                raise NumericsError(f"unrecognized checkpoint format in {path}")
            if config_hash(payload["config"]) != payload["config_hash"]:
                raise NumericsError(f"checkpoint config hash mismatch in {path}")
            params = {
                rec["name"]: np.asarray(rec["values"], dtype=np.float64).reshape(rec["shape"])
                for rec in payload["params"]
            }
            return {"params": params, "config": payload["config"], "extras": payload["extras"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise NumericsError(f"malformed checkpoint {path}: {exc!r}") from exc
