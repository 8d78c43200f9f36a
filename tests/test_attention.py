"""Multi-head attention: oracles, masking, equivariance, gradients."""

import numpy as np
import pytest

from labmlm.attention import attention_spec, multi_head_attention
from labmlm.errors import ConfigError
from labmlm.tape import Tape, TapeTensor, init_tensors

from gradcheck import assert_grads_close


def _loop_oracle(x, p, num_heads, key_dim, pad_mask=None):
    """Straight-line single-example attention, one head at a time."""
    b, L, d = x.shape
    out = np.zeros((b, L, d))
    for bi in range(b):
        q = x[bi] @ p["wq"].data + p["bq"].data
        k = x[bi] @ p["wk"].data + p["bk"].data
        v = x[bi] @ p["wv"].data + p["bv"].data
        ctx = np.zeros((L, num_heads * key_dim))
        for h in range(num_heads):
            sl = slice(h * key_dim, (h + 1) * key_dim)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(key_dim)
            if pad_mask is not None:
                scores = scores + np.where(pad_mask[bi], -1e9, 0.0)[None, :]
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            ctx[:, sl] = w @ v[:, sl]
        o = ctx @ p["wo"].data + p["bo"].data
        if pad_mask is not None:
            o = o * (~pad_mask[bi]).astype(float)[:, None]
        out[bi] = o
    return out


def _composite_oracle(x, p, num_heads, key_dim, pad_mask):
    """The op sequence attention ran as separate tape ops, in numpy."""
    b, L, _ = x.shape
    dtype = x.dtype

    def split(w, bias):
        return (x @ p[w].data + p[bias].data).reshape(b, L, num_heads, key_dim).swapaxes(1, 2)

    q, k, v = split("wq", "bq"), split("wk", "bk"), split("wv", "bv")
    scores = (q @ k.swapaxes(-1, -2)) * np.asarray(1.0 / np.sqrt(key_dim), dtype=dtype)
    if pad_mask.any():
        scores = scores + np.where(pad_mask, -1e9, 0.0).astype(dtype)[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    ctx = (w @ v).swapaxes(1, 2).reshape(b, L, num_heads * key_dim)
    out = ctx @ p["wo"].data + p["bo"].data
    if pad_mask.any():
        out = out * (~pad_mask).astype(dtype)[:, :, None]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, L, d, h, k", [(32, 5, 64, 2, 64), (32, 5, 64, 2, 32), (3, 6, 8, 2, 4)])
def test_forward_bit_identical_to_composite_oracle(dtype, b, L, d, h, k):
    rng = np.random.default_rng(b + L + k)
    p = init_tensors(rng, attention_spec(d, h, k), dtype)
    x = rng.normal(size=(b, L, d)).astype(dtype)
    pad = np.arange(L) >= rng.integers(1, L + 1, size=b)[:, None]
    pad[1] = True                      # one fully padded row
    for mask in (pad, np.zeros_like(pad)):
        got = multi_head_attention(TapeTensor(x), p, h, k, mask).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, _composite_oracle(x, p, h, k, mask))


def test_single_element_bag_reduces_to_value_path():
    """With L=1 the softmax weight is 1, so output = Wo(Wv x + bv) + bo."""
    rng = np.random.default_rng(0)
    d = 6
    p = init_tensors(rng, attention_spec(d, 2, 3), np.float64)
    x = rng.normal(size=(1, 1, d))
    y = multi_head_attention(TapeTensor(x), p, 2, 3).data
    want = (x[0] @ p["wv"].data + p["bv"].data) @ p["wo"].data + p["bo"].data
    np.testing.assert_allclose(y[0], want, atol=1e-12)


def test_matches_loop_oracle():
    rng = np.random.default_rng(1)
    d, h, k = 4, 1, 4
    p = init_tensors(rng, attention_spec(d, h, k), np.float64)
    x = rng.normal(size=(1, 3, d))
    got = multi_head_attention(TapeTensor(x), p, h, k).data
    np.testing.assert_allclose(got, _loop_oracle(x, p, h, k), atol=1e-10)


def test_matches_loop_oracle_multihead_masked():
    rng = np.random.default_rng(2)
    d, h, k = 8, 2, 4
    p = init_tensors(rng, attention_spec(d, h, k), np.float64)
    x = rng.normal(size=(3, 5, d))
    pad = np.zeros((3, 5), bool)
    pad[0, 4:] = True
    pad[2, 2:] = True
    got = multi_head_attention(TapeTensor(x), p, h, k, pad).data
    np.testing.assert_allclose(got, _loop_oracle(x, p, h, k, pad), atol=1e-10)


def test_fully_padded_row_outputs_zero():
    rng = np.random.default_rng(3)
    p = init_tensors(rng, attention_spec(4, 2, 2), np.float64)
    x = rng.normal(size=(2, 3, 4))
    pad = np.zeros((2, 3), bool)
    pad[1, :] = True
    y = multi_head_attention(TapeTensor(x), p, 2, 2, pad).data
    assert np.all(np.isfinite(y))
    np.testing.assert_array_equal(y[1], 0.0)


def _padded_and_short(dtype):
    """Outputs of a bag with two padded keys and of the same bag cut to its real keys."""
    rng = np.random.default_rng(4)
    p = init_tensors(rng, attention_spec(4, 1, 4), dtype)
    x = rng.normal(size=(1, 4, 4)).astype(dtype)
    pad = np.array([[False, False, True, True]])
    y_masked = multi_head_attention(TapeTensor(x), p, 1, 4, pad).data
    y_short = multi_head_attention(TapeTensor(x[:, :2, :]), p, 1, 4).data
    return y_masked[0, :2], y_short[0]


def test_padded_keys_get_exactly_zero_weight():
    """-1e9 logits underflow in float64, so masked keys contribute nothing."""
    np.testing.assert_array_equal(*_padded_and_short(np.float64))


def test_padded_keys_get_exactly_zero_weight_float32():
    """The -1e9 pad logit underflows to an exact zero weight in float32 too."""
    masked, short = _padded_and_short(np.float32)
    assert masked.dtype == np.float32
    np.testing.assert_array_equal(masked, short)


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    d, h, k = 6, 3, 2
    p = init_tensors(rng, attention_spec(d, h, k), np.float64)
    x = rng.normal(size=(2, 7, d))
    y = multi_head_attention(TapeTensor(x), p, h, k).data
    for _ in range(10):
        perm = rng.permutation(7)
        y_perm = multi_head_attention(TapeTensor(x[:, perm]), p, h, k).data
        np.testing.assert_allclose(y_perm, y[:, perm], rtol=0, atol=1e-12)


def test_invalid_heads_rejected():
    rng = np.random.default_rng(6)
    p = init_tensors(rng, attention_spec(4, 2, 2), np.float64)
    with pytest.raises(ConfigError):
        multi_head_attention(TapeTensor(np.zeros((1, 2, 4))), p, 0, 2)
    with pytest.raises(ConfigError):
        attention_spec(4, 2, 0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    d, h, k = 4, 2, 2
    p = init_tensors(rng, attention_spec(d, h, k), np.float64)
    x = TapeTensor(rng.normal(size=(2, 3, d)), trainable=True, name="x")
    pad = np.array([[False, False, True], [False, False, False]])
    w = rng.normal(size=(2, 3, d))
    tensors = [x, p["wq"], p["bq"], p["wk"], p["bk"], p["wv"], p["bv"], p["wo"], p["bo"]]

    def f():
        return (multi_head_attention(x, p, h, k, pad) * w).sum()

    assert_grads_close(f, tensors)
