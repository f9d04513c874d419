"""Dense float64 tensors with reverse-mode autodiff and Adam.

A Node wraps a numpy array plus the vector-Jacobian rule of the op that
produced it.  Graphs are built eagerly by the op functions below and
differentiated by :func:`backward`.  Only the shapes the forecasting
networks need are supported: 2-D matmul, same-shape elementwise ops and
scalar scaling -- no implicit broadcasting, so every backward rule stays
auditable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import atomic_write
from .errors import NumericsError, ShapeError

__all__ = [
    "Node",
    "constant",
    "parameter",
    "backward",
    "zero_grads",
    "add",
    "scale",
    "matmul",
    "transpose",
    "concat_last_dim",
    "slice2d",
    "reshape",
    "mean_all",
    "square",
    "tanh",
    "softmax_rows",
    "layer_norm_rows",
    "AdamState",
    "adam_step",
    "decay_learning_rate",
    "config_hash",
    "save_checkpoint",
    "load_checkpoint",
]


class Node:
    """One vertex of the computation graph.

    ``value`` is a float64 array.  ``grad`` is set only on leaves (nodes
    without ``vjp``) and stays None until backward reaches them.  ``vjp``
    maps the output gradient to one gradient per parent, in parent order.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name")

    def __init__(self, value, parents=(), vjp=None, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.vjp = vjp
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Node{tag}(shape={self.value.shape})"


def constant(value) -> Node:
    """Leaf node with no gradient rule (targets, fixed tables)."""
    return Node(value)


def parameter(value, name: str) -> Node:
    """Named trainable leaf; Adam updates it in place."""
    return Node(value, name=name)


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
    """Accumulate d(root)/d(leaf) into ``grad`` of every leaf ancestor.

    Leaves are the nodes without a ``vjp``: parameters and constants.
    Intermediate nodes pass their gradient on and keep ``grad`` None.
    ``root`` must be scalar.  Gradients add onto whatever is already in
    ``grad``, so backward of a sum of losses equals the sum of backward
    passes.
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
            node.grad = out_grad.copy() if node.grad is None else node.grad + out_grad
            continue
        for parent, g in zip(node.parents, node.vjp(out_grad)):
            key = id(parent)
            if key in local:
                local[key] = local[key] + g
            else:
                local[key] = g


def zero_grads(nodes) -> None:
    for node in nodes:
        node.grad = None


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
    """Adam moments plus the plateau-halving learning-rate schedule."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lr_decay: float = 0.5
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(params: dict[str, Node], state: AdamState) -> None:
    """One bias-corrected Adam update over every parameter, in place.

    Parameters with no accumulated gradient are treated as zero-gradient
    and stay unchanged.

    Raises:
        NumericsError: a gradient contains NaN/inf, naming the parameter.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient in parameter {name!r}")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            v = np.zeros_like(p.value)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / bc1
        v_hat = v / bc2
        p.value = p.value - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


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
