"""Multi-head scaled dot-product attention with padding masks.

No positional information anywhere: the layer is permutation-equivariant over
the length axis, which is what lets the models treat inputs as bags. Padded
key positions get an additive `tape.PAD_LOGIT` (-1e9) before the softmax
(their weights underflow to exactly zero in float32 and float64 alike; the
bias takes the scores' dtype); padded query rows are zeroed on output.

The layer records the four projections, one `tape.attention` node for the
heads and, when the batch has padding, the output pad mask: six tape nodes.

The layer's parameters are a mapping from `attention_spec` name (`wq` ... `bo`)
to tensor; a model block passes its own `attn.` entries under those names.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from . import tape


def attention_spec(d_model: int, num_heads: int, key_dim: int) -> list:
    """The layer's parameters as (name, shape, init), in draw order."""
    if num_heads < 1 or key_dim < 1:
        raise ConfigError(f"num_heads and key_dim must be >= 1, got {num_heads}, {key_dim}")
    hk = num_heads * key_dim
    return [("wq", (d_model, hk), "glorot"), ("bq", (hk,), "zeros"),
            ("wk", (d_model, hk), "glorot"), ("bk", (hk,), "zeros"),
            ("wv", (d_model, hk), "glorot"), ("bv", (hk,), "zeros"),
            ("wo", (hk, d_model), "glorot"), ("bo", (d_model,), "zeros")]


def multi_head_attention(
    x,
    params: dict,
    num_heads: int,
    key_dim: int,
    pad_mask: np.ndarray | None = None,
):
    """Self-attention over x [b, L, d_model] -> [b, L, d_model].

    params maps each `attention_spec` name to its tensor.

    pad_mask [b, L] marks padding with True; padded positions neither attend
    nor get attended to, and a fully padded row comes out all zero.
    """
    if num_heads < 1 or key_dim < 1:
        raise ConfigError(f"num_heads and key_dim must be >= 1, got {num_heads}, {key_dim}")
    b, length, d_model = x.shape
    if params["wq"].shape[0] != d_model:
        raise DimensionError(
            f"input feature size {d_model} does not match projection {params['wq'].shape}"
        )

    q = tape.linear(x, params["wq"], params["bq"])
    k = tape.linear(x, params["wk"], params["bk"])
    v = tape.linear(x, params["wv"], params["bv"])
    ctx = tape.attention(q, k, v, pad_mask, num_heads, key_dim)
    out = tape.linear(ctx, params["wo"], params["bo"])
    if pad_mask is not None and pad_mask.any():
        out = out * (~pad_mask).astype(out.data.dtype)[:, :, None]
    return out
