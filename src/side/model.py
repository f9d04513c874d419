"""Joint severity-impact forecasting network.

Two transformer-style sequence encoders (one for the impact channel,
one for severity) feed a bidirectional single-head cross-attention
block; the decoder flattens both cross-attended representations and
regresses the next ``horizon`` steps of severity plus the full impact
vector in one shot.  The two-task loss weighs the per-step severity and
impact MSE terms.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics as nm
from .config import ModelConfig
from .core import DETERMINANT_COUNT, IMPACT_DIM, SOURCES
from .errors import ShapeError
from .numerics import Node


@functools.cache
def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    """Fixed sin/cos positional table, shape (length, width).

    Built once per ``(length, width)`` and shared by every later call, so
    the returned array is read-only.
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(width, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (i // 2) / width)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
    return table


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Parameter name -> shape, in the order :func:`init_params` draws and lays them out."""
    d = cfg.width
    shapes = {}
    for prefix, in_dim in (("enc_impact", IMPACT_DIM), ("enc_severity", 1)):
        shapes[f"{prefix}.proj"] = (in_dim, d)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{w}"] = (d, d)
        shapes[f"{prefix}.ff.w1"] = (d, 4 * d)
        shapes[f"{prefix}.ff.w2"] = (4 * d, d)
    for w in ("wq_m", "wk_d", "wv_d", "wq_d", "wk_m", "wv_m"):
        shapes[f"cross.{w}"] = (d, d)
    shapes["dec.w1"] = (cfg.lookback * 2 * d, cfg.hidden)
    shapes["dec.w2"] = (cfg.hidden, cfg.horizon * (1 + IMPACT_DIM))
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> nm.Params:
    """Fresh Glorot-normal parameter set, drawn in :func:`param_shapes` order."""
    return nm.Params({
        name: rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=(rows, cols))
        for name, (rows, cols) in param_shapes(cfg).items()
    })


def encode(seq: Node, params: dict[str, Node], prefix: str) -> Node:
    """Project, add positions, then one self-attention + feed-forward block.

    ``seq`` is ``(..., lookback, features)``; the sinusoidal table is sized
    from the projection, and each window attends only within itself.
    Residual connections wrap both sub-blocks; each is followed by layer
    normalization over the last axis.
    """
    x = nm.matmul(seq, params[f"{prefix}.proj"])
    x = nm.add(x, nm.constant(np.broadcast_to(sinusoidal_positions(*x.value.shape[-2:]), x.value.shape)))

    q = nm.matmul(x, params[f"{prefix}.attn.wq"])
    k = nm.matmul(x, params[f"{prefix}.attn.wk"])
    v = nm.matmul(x, params[f"{prefix}.attn.wv"])
    attended = nm.matmul(nm.attention(q, k, v), params[f"{prefix}.attn.wo"])
    x = nm.layer_norm_rows(nm.add(x, attended))

    ff = nm.feed_forward(x, params[f"{prefix}.ff.w1"], params[f"{prefix}.ff.w2"])
    return nm.layer_norm_rows(nm.add(x, ff))


def cross_attend(h_impact: Node, h_severity: Node, params: dict[str, Node]) -> tuple[Node, Node]:
    """Bidirectional single-head cross-attention between the two channels.

    Returns the impact representation cross-attended onto severity and
    vice versa, each shaped like the inputs, ``(..., lookback, width)``.
    No output projection; one head; rowwise softmax over scores scaled by
    1/sqrt(width), within each window.
    """
    if h_impact.value.shape != h_severity.value.shape:
        raise ShapeError(f"cross_attend: {h_impact.value.shape} vs {h_severity.value.shape}")

    q_m = nm.matmul(h_impact, params["cross.wq_m"])
    k_d = nm.matmul(h_severity, params["cross.wk_d"])
    v_d = nm.matmul(h_severity, params["cross.wv_d"])
    q_d = nm.matmul(h_severity, params["cross.wq_d"])
    k_m = nm.matmul(h_impact, params["cross.wk_m"])
    v_m = nm.matmul(h_impact, params["cross.wv_m"])
    return nm.attention(q_m, k_d, v_d), nm.attention(q_d, k_m, v_m)


def decode(h_md: Node, h_dm: Node, params: dict[str, Node]) -> tuple[Node, Node]:
    """Two-layer readout of the concatenated representations.

    The inputs are ``(n, lookback, width)``.  Returns the severity forecast
    (standardized units, shape (n, horizon)) and the impact forecast
    (shape (n, horizon, IMPACT_DIM)).  Impact outputs are plain
    linear; clamping to [0, 1] is a reporting concern, not a model one.
    """
    joined = nm.concat_last_dim(h_md, h_dm)
    if joined.value.ndim != 3:
        raise ShapeError(f"decode: expected (n, lookback, width) inputs, got {h_md.value.shape}")
    n, lookback, joint_width = joined.value.shape
    flat = nm.reshape(joined, (n, lookback * joint_width))
    hidden = nm.tanh(nm.matmul(flat, params["dec.w1"]))
    horizon = params["dec.w2"].value.shape[1] // (1 + IMPACT_DIM)
    out = nm.reshape(nm.matmul(hidden, params["dec.w2"]), (n, horizon, 1 + IMPACT_DIM))
    severity = nm.reshape(nm.slice_last_dim(out, 0, 1), (n, horizon))
    impact = nm.slice_last_dim(out, 1, 1 + IMPACT_DIM)
    return severity, impact


def apply_input_mask(impact_in: np.ndarray, ablation: str) -> np.ndarray:
    """Zero one source's half of the impact inputs (last axis) for a ``no_<source>`` ablation."""
    source = ablation.removeprefix("no_")
    if source not in SOURCES:
        return impact_in
    masked = impact_in.copy()
    start = SOURCES.index(source) * DETERMINANT_COUNT
    masked[..., start:start + DETERMINANT_COUNT] = 0.0
    return masked


def forward(
    params: dict[str, Node],
    cfg: ModelConfig,
    severity_in: np.ndarray,
    impact_in: np.ndarray,
) -> tuple[Node, Node]:
    """Full network pass for a stack of ``n`` windows, as one graph.

    Args:
        severity_in: standardized severity lookbacks, shape (n, lookback).
        impact_in: impact lookbacks, shape (n, lookback, IMPACT_DIM),
            already masked for input ablations.

    Returns:
        (severity forecast, impact forecast) nodes, shapes (n, horizon)
        and (n, horizon, IMPACT_DIM); row ``i`` depends on
        window ``i`` only.
    """
    severity_in = np.asarray(severity_in, dtype=np.float64)
    impact_in = np.asarray(impact_in, dtype=np.float64)
    if severity_in.ndim != 2 or severity_in.shape[1] != cfg.lookback:
        raise ShapeError(f"severity_in shape {severity_in.shape}, expected (n, {cfg.lookback})")
    n = severity_in.shape[0]
    if impact_in.shape != (n, cfg.lookback, IMPACT_DIM):
        raise ShapeError(
            f"impact_in shape {impact_in.shape}, expected ({n}, {cfg.lookback}, {IMPACT_DIM})"
        )
    h_m = encode(nm.constant(impact_in), params, "enc_impact")
    h_d = encode(nm.constant(severity_in[..., None]), params, "enc_severity")

    if cfg.ablation == "no_attention":
        # Ablation path: hand the encoder outputs straight to the decoder.
        h_md, h_dm = h_m, h_d
    else:
        h_md, h_dm = cross_attend(h_m, h_d, params)

    return decode(h_md, h_dm, params)


def joint_loss(
    severity_pred: Node,
    severity_true: np.ndarray,
    impact_pred: Node,
    impact_true: np.ndarray,
    lambda_severity: float,
    lambda_impact: float,
) -> Node:
    """Weighted two-task objective, averaged over the windows.

    Per step, the severity term is the squared error and the impact term
    is the MSE over vector components, weighted by ``lambda_severity`` and
    ``lambda_impact``; a window's steps are summed, not averaged.  Shapes
    are ``(..., horizon)`` for severity and ``(..., horizon, components)``
    for impact, the leading axes indexing windows.
    """
    severity_true = np.asarray(severity_true, dtype=np.float64)
    impact_true = np.asarray(impact_true, dtype=np.float64)
    if severity_pred.value.shape != severity_true.shape:
        raise ShapeError(f"joint_loss: {severity_pred.value.shape} vs {severity_true.shape}")
    if impact_pred.value.shape != impact_true.shape:
        raise ShapeError(f"joint_loss: {impact_pred.value.shape} vs {impact_true.shape}")
    horizon = severity_true.shape[-1]

    sev_err = nm.square(nm.add(severity_pred, nm.constant(-severity_true)))
    imp_err = nm.square(nm.add(impact_pred, nm.constant(-impact_true)))
    sev_term = nm.scale(nm.mean_all(sev_err), lambda_severity * horizon)
    imp_term = nm.scale(nm.mean_all(imp_err), lambda_impact * horizon)
    return nm.add(sev_term, imp_term)
