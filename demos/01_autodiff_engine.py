"""
The tensor engine: graphs, gradients, Adam
==========================================

Everything the forecaster trains with sits on a small reverse-mode
autodiff core over float64 numpy arrays.  This script walks through the
moving parts.
"""

import tempfile
from pathlib import Path

import numpy as np

from side import numerics as nm

# Build a tiny computation: loss = mean((tanh(x @ w))^2).
# Params holds the trainable leaves: every value and every gradient is a
# view of one of two flat vectors, params.value and params.grad.
# constant() marks data, which never gets a gradient.
rng = np.random.default_rng(0)
x = nm.constant(rng.normal(size=(4, 3)))
params = nm.Params({"w": rng.normal(size=(3, 2))})
w = params["w"]

loss = nm.mean_all(nm.square(nm.tanh(nm.matmul(x, w))))
print("loss value:", float(loss.value))

# One backward call adds into .grad of every parameter the loss depends on.
nm.backward(loss)
print("dloss/dw:\n", w.grad)

# Sanity-check a single coordinate against a central finite difference.
h = 1e-6
probe = w.value.copy()
probe[0, 0] += h
hi = float(nm.mean_all(nm.square(nm.tanh(nm.matmul(x, nm.constant(probe))))).value)
probe[0, 0] -= 2 * h
lo = float(nm.mean_all(nm.square(nm.tanh(nm.matmul(x, nm.constant(probe))))).value)
print("analytic grad[0,0]:", w.grad[0, 0], " finite difference:", (hi - lo) / (2 * h))

# Adam drives parameters toward lower loss: one in-place update of the
# flat value vector, with the flat moments kept in AdamState.
state = nm.AdamState(learning_rate=0.05)
for step in range(50):
    params.grad.fill(0.0)
    loss = nm.mean_all(nm.square(nm.tanh(nm.matmul(x, w))))
    nm.backward(loss)
    nm.adam_step(params, state)
print("loss after 50 Adam steps:", float(loss.value))

# Checkpoints round-trip float64 exactly, so retrained and reloaded
# models produce bit-identical outputs.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_ckpt.json"
    nm.save_checkpoint(path, {"w": w.value}, config={"demo": True})
    restored = nm.load_checkpoint(path)["params"]["w"]
print("checkpoint round trip exact:", bool(np.array_equal(restored, w.value)))
