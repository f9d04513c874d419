"""
The tensor engine: graphs, gradients, Adam
==========================================

Everything the forecaster trains with sits on a small reverse-mode
autodiff core over float64 numpy arrays.  This script walks through the
moving parts.
"""

import numpy as np

from side import numerics as nm

# Build a tiny computation: loss = mean((tanh(x @ w))^2).
# parameter() marks leaves we want gradients for; constant() marks data.
rng = np.random.default_rng(0)
x = nm.constant(rng.normal(size=(4, 3)))
w = nm.parameter(rng.normal(size=(3, 2)), name="w")

loss = nm.mean_all(nm.square(nm.tanh(nm.matmul(x, w))))
print("loss value:", float(loss.value))

# One backward call fills .grad on every leaf the loss depends on.
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

# Adam drives parameters toward lower loss; moments live in AdamState.
state = nm.AdamState(learning_rate=0.05)
for step in range(50):
    nm.zero_grads([w])
    loss = nm.mean_all(nm.square(nm.tanh(nm.matmul(x, w))))
    nm.backward(loss)
    nm.adam_step({"w": w}, state)
print("loss after 50 Adam steps:", float(loss.value))

# Checkpoints round-trip float64 exactly, so retrained and reloaded
# models produce bit-identical outputs.
nm.save_checkpoint("/tmp/demo_ckpt.json", {"w": w.value}, config={"demo": True})
restored = nm.load_checkpoint("/tmp/demo_ckpt.json")["params"]["w"]
print("checkpoint round trip exact:", bool(np.array_equal(restored, w.value)))
