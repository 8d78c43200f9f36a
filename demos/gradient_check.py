"""Check backpropagation through the full model against finite differences.

Perturbs a few coordinates of every parameter tensor and compares the
resulting loss slope with what the tape reports. Biases start at exact
zero where ReLU kinks sit, so parameters are first moved to a generic
random point. The model is built in float64, where central differences
are accurate enough to compare against; training defaults to float32.
"""

import numpy as np

from labmlm.corpus import LabBag, mask_bag, pad_batch
from labmlm.model import ModelConfig, forward_continuous, init_params
from labmlm.tape import Tape, backward
from labmlm.training import multitask_loss

rng = np.random.default_rng(0)
cfg = ModelConfig("continuous", vocab_size=12, d_model=16,
                  num_layers=2, num_heads=2, ff_dim=32)
params = init_params(cfg, seed=0, dtype=np.float64)
for t in params.tensors():
    t.data[...] = rng.normal(scale=0.5, size=t.shape)

# two bags, one masked position each
bags = []
for i in range(2):
    L = 5 + i
    bag = LabBag(f"p{i}", 0.0,
                 rng.integers(1, cfg.num_codes + 1, size=L).astype(np.int64),
                 rng.uniform(0, 1, size=L), np.zeros(L, dtype=bool))
    bags.append(mask_bag(bag, cfg.mask_token, rng))
batch = pad_batch(bags)


def loss_value():
    probs, preds = forward_continuous(params, batch)
    return multitask_loss(probs, preds, batch).total


with Tape():
    loss = loss_value()
    backward(loss)
print(f"loss {loss.item():.6f}")

h = 1e-5
worst = 0.0
for name, t in params.named_tensors():
    if name.endswith("attn.bk"):
        # shifting every key by a constant moves all scores of a query
        # equally, so softmax cancels it: this bias truly has zero gradient
        continue
    flat = t.data.reshape(-1)
    grad = t.grad.reshape(-1)
    coords = rng.choice(flat.size, size=min(3, flat.size), replace=False)
    rel_max = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        up = loss_value().item()
        flat[i] = orig - h
        down = loss_value().item()
        flat[i] = orig
        numeric = (up - down) / (2 * h)
        rel = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-6)
        rel_max = max(rel_max, rel)
    worst = max(worst, rel_max)
    print(f"  {name:24s} rel err {rel_max:.2e}")

print(f"\nworst relative error {worst:.2e} (tolerance 1e-4)")
assert worst < 1e-4
