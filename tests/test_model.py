"""Model module tests: embeddings, backbone, heads, forwards, checkpoints.

Each computation is checked against a straight-line numpy oracle written
independently of the tape implementation.
"""

import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from labmlm import corpus, tape
from labmlm.corpus import Batch, LabBag, mask_bag, pad_batch
from labmlm.errors import ConfigError, ContractError, DataError, FormatError, VocabError
from labmlm.finetune import init_finetune_head
from labmlm.model import (
    ModelConfig,
    backbone_forward,
    categorical_embed,
    categorical_head,
    continuous_embed,
    continuous_head,
    count_params,
    dropout_keep,
    dropout_shape,
    forward_continuous,
    forward_decile,
    forward_masked,
    init_params,
    load_checkpoint,
    param_spec,
    save_checkpoint,
)
from labmlm.optim import AdamState, adam_step
from labmlm.tape import Tape, TapeTensor, backward
from labmlm.training import decile_mlm_loss, multitask_loss

from gradcheck import assert_grads_close


def tiny_config(mode="continuous", vocab_size=12, **kw):
    args = dict(d_model=8, num_layers=1, num_heads=2, ff_dim=16)
    args.update(kw)
    return ModelConfig(mode=mode, vocab_size=vocab_size, **args)


def randomize_params(params, rng, scale=0.5):
    """Move parameters to a generic point before finite-difference checks.

    Fresh init has exact-zero biases and tiny embeddings, which parks ReLU
    inputs at their kinks and layer-norm variances near zero; central
    differences are unreliable there even though backprop is correct.
    """
    for t in params.tensors():
        t.data[...] = rng.normal(scale=scale, size=t.shape)


def random_batch(rng, cfg, lengths, n_mask=1, with_null=False):
    """Build a padded batch of synthetic bags over a config's real tokens."""
    bags = []
    for i, L in enumerate(lengths):
        tokens = rng.integers(1, cfg.mask_token, size=L)
        values = rng.uniform(0.0, 1.0, size=L)
        nulls = np.zeros(L, dtype=bool)
        if with_null and L >= 2:
            nulls[1] = True
            values[1] = 0.0
        bag = LabBag(patient_id=f"p{i}", chart_time=0.0,
                     tokens=tokens.astype(np.int64), values=values,
                     null_flags=nulls, mask_positions=np.array([], dtype=np.int64),
                     truth_tokens=np.array([], dtype=np.int64),
                     truth_values=np.array([]), truth_nulls=np.array([], dtype=bool))
        if n_mask:
            bag = mask_bag(bag, cfg.mask_token, rng, n_mask=min(n_mask, L))
        bags.append(bag)
    return pad_batch(bags)


class TestModelConfig:
    def test_key_dim_defaults_by_mode(self):
        cont = ModelConfig("continuous", 12, 64, 2, 4, 128)
        dec = ModelConfig("decile", 12, 64, 2, 4, 128)
        assert cont.key_dim == 64
        assert dec.key_dim == 16

    def test_explicit_key_dim_wins(self):
        cfg = ModelConfig("decile", 12, 64, 2, 4, 128, key_dim=7)
        assert cfg.key_dim == 7

    def test_special_token_layout(self):
        cfg = tiny_config(vocab_size=12)
        assert cfg.num_codes == 10
        assert cfg.mask_token == 11
        assert cfg.null_token == 12
        assert cfg.embed_rows == 13
        assert cfg.head_width == 10

    def test_decile_head_covers_whole_vocab(self):
        cfg = tiny_config(mode="decile", vocab_size=34)
        assert cfg.mask_token == 34
        assert cfg.head_width == 34
        with pytest.raises(ConfigError):
            cfg.null_token

    def test_dict_round_trip(self):
        cfg = tiny_config(dropout_rate=0.3)
        clone = ModelConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            ModelConfig("tfidf", 12, 8, 1, 2, 16)
        with pytest.raises(ConfigError):
            ModelConfig("continuous", 2, 8, 1, 2, 16)
        with pytest.raises(ConfigError):
            tiny_config(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            tiny_config(num_layers=-1)


class TestCategoricalEmbed:
    def test_lookup_matches_rows(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        tokens = np.array([[1, 5, cfg.mask_token], [2, 2, 0]])
        out = categorical_embed(tokens, params)
        table = params.by_name["embedding"].data
        assert np.array_equal(out.data[0, 0], table[1])
        assert np.array_equal(out.data[0, 2], table[cfg.mask_token])

    def test_pad_token_embeds_to_exact_zero(self):
        params = init_params(tiny_config(), seed=3)
        out = categorical_embed(np.array([[0, 0, 4]]), params)
        assert np.all(out.data[0, :2] == 0.0)
        assert np.any(out.data[0, 2] != 0.0)

    def test_out_of_range_token_rejected(self):
        params = init_params(tiny_config(), seed=3)
        with pytest.raises(VocabError):
            categorical_embed(np.array([[99]]), params)
        with pytest.raises(VocabError):
            categorical_embed(np.array([[-1]]), params)

    def test_gradient_reaches_only_looked_up_rows(self):
        params = init_params(tiny_config(), seed=3)
        tokens = np.array([[3, 0]])
        with Tape():
            out = categorical_embed(tokens, params)
            backward(tape.tsum(out))
        g = params.by_name["embedding"].grad
        assert np.all(g[3] == 1.0)
        assert np.all(np.delete(g, 3, axis=0) == 0.0)


class TestContinuousEmbed:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(11)
        cfg = tiny_config()
        params = init_params(cfg, seed=7, dtype=np.float64)
        b, L, d = 2, 4, cfg.d_model
        values = rng.uniform(0, 1, (b, L))
        nulls = np.zeros((b, L), dtype=bool)
        tok = TapeTensor(rng.normal(size=(b, L, d)))

        got = continuous_embed(values, tok, nulls, params).data

        p = params.by_name
        proj = values[..., None] @ p["value_w"].data + p["value_b"].data
        x = proj + tok.data
        x = np.maximum(x @ p["vdense_w"].data + p["vdense_b"].data, 0.0)
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * p["vln_gain"].data + p["vln_bias"].data
        assert np.max(np.abs(got - want)) < 1e-10

    def test_value_out_of_range_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        tok = TapeTensor(np.zeros((1, 2, cfg.d_model)))
        nulls = np.array([[False, False]])
        with pytest.raises(DataError):
            continuous_embed(np.array([[0.5, 1.5]]), tok, nulls, params)

    def test_null_positions_skip_range_check(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        tok = TapeTensor(np.zeros((1, 2, cfg.d_model), dtype=params.dtype))
        nulls = np.array([[False, True]])
        continuous_embed(np.array([[0.5, -3.0]]), tok, nulls, params)


class TestBackbone:
    def test_zero_layers_is_identity(self):
        cfg = tiny_config(num_layers=0)
        params = init_params(cfg, seed=0)
        x = TapeTensor(np.random.default_rng(0).normal(size=(2, 3, cfg.d_model)))
        pad = np.zeros((2, 3), dtype=bool)
        out = backbone_forward(x, pad, params)
        assert out is x

    def test_one_block_matches_oracle(self):
        rng = np.random.default_rng(5)
        cfg = tiny_config(num_layers=1, num_heads=2)
        params = init_params(cfg, seed=9, dtype=np.float64)
        b, L, d = 2, 5, cfg.d_model
        x = rng.normal(size=(b, L, d))
        pad = np.zeros((b, L), dtype=bool)
        pad[1, 3:] = True

        got = backbone_forward(TapeTensor(x), pad, params).data
        want = _block_oracle(x, params.by_name, "block0.", cfg.num_heads, cfg.key_dim, pad)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_dropout_keep_is_one_uniform_draw_per_mask(self, seed):
        """Mask by mask, the same bits and generator state as one draw of every uniform."""
        cfg = tiny_config(num_layers=3, dropout_rate=0.3)
        shape = (5, 7)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        keep = dropout_keep(cfg, rng, shape)
        u = ref.random(dropout_shape(cfg, shape))
        assert keep.dtype == bool and np.array_equal(keep, u >= 0.3)
        assert rng.bit_generator.state == ref.bit_generator.state
        out = np.zeros(dropout_shape(cfg, shape), dtype=bool)
        assert dropout_keep(cfg, np.random.default_rng(seed), shape, out=out) is out
        assert np.array_equal(out, keep)

    def test_keep_masks_must_fit_the_forward(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, seed=0)
        x = TapeTensor(np.zeros((1, 2, cfg.d_model), dtype=np.float32))
        pad = np.zeros((1, 2), dtype=bool)
        keep = dropout_keep(cfg, np.random.default_rng(0), (1, 2))
        assert keep.shape == dropout_shape(cfg, (1, 2)) == (4, 1, 2, cfg.d_model)
        backbone_forward(x, pad, params, keep)
        for bad in (keep[:3], keep[:, :, :1]):
            with pytest.raises(ContractError, match="do not fit a forward over"):
                backbone_forward(x, pad, params, bad)


def _softmax_np(s, axis=-1):
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm_np(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _mha_oracle(x, p, pre, num_heads, key_dim, pad):
    b, L, _ = x.shape

    def split(z):
        return z.reshape(b, L, num_heads, key_dim).transpose(0, 2, 1, 3)

    q = split(x @ p[pre + "wq"].data + p[pre + "bq"].data)
    k = split(x @ p[pre + "wk"].data + p[pre + "bk"].data)
    v = split(x @ p[pre + "wv"].data + p[pre + "bv"].data)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(key_dim)
    scores = scores + np.where(pad, -1e9, 0.0)[:, None, None, :]
    attn = _softmax_np(scores)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, L, num_heads * key_dim)
    out = out @ p[pre + "wo"].data + p[pre + "bo"].data
    return out * (~pad)[:, :, None]


def _block_oracle(x, p, pre, num_heads, key_dim, pad):
    a = _mha_oracle(x, p, pre + "attn.", num_heads, key_dim, pad)
    x = _layer_norm_np(x + a, p[pre + "ln1_gain"].data, p[pre + "ln1_bias"].data)
    f = (np.maximum(x @ p[pre + "ff1_w"].data + p[pre + "ff1_b"].data, 0.0)
         @ p[pre + "ff2_w"].data + p[pre + "ff2_b"].data)
    return _layer_norm_np(x + f, p[pre + "ln2_gain"].data, p[pre + "ln2_bias"].data)


class TestHeads:
    def test_categorical_rows_are_distributions(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1, dtype=np.float64)
        h = TapeTensor(np.random.default_rng(1).normal(size=(2, 3, cfg.d_model)))
        probs = categorical_head(h, params).data
        assert probs.shape == (2, 3, cfg.num_codes)
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(-1) - 1.0)) < 1e-9

    def test_zero_weights_give_uniform(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1, dtype=np.float64)
        for name in ("head_w1", "head_b1", "head_w2", "head_b2"):
            params.by_name[name].data[...] = 0.0
        h = TapeTensor(np.random.default_rng(2).normal(size=(1, 2, cfg.d_model)))
        probs = categorical_head(h, params).data
        assert np.max(np.abs(probs - 1.0 / cfg.num_codes)) < 1e-12

    def test_categorical_matches_oracle(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=4, dtype=np.float64)
        h = np.random.default_rng(4).normal(size=(2, 3, cfg.d_model))
        got = categorical_head(TapeTensor(h), params).data
        p = params.by_name
        z = np.maximum(h @ p["head_w1"].data + p["head_b1"].data, 0.0)
        want = _softmax_np(z @ p["head_w2"].data + p["head_b2"].data)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_continuous_matches_oracle_and_range(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(6)
        h = rng.normal(size=(2, 3, cfg.d_model))
        probs = _softmax_np(rng.normal(size=(2, 3, cfg.num_codes)))
        got = continuous_head(TapeTensor(h), TapeTensor(probs), params).data
        z = np.concatenate([h, probs], axis=-1)
        p = params.by_name
        z = np.maximum(z @ p["chead_w1"].data + p["chead_b1"].data, 0.0)
        want = 1.0 / (1.0 + np.exp(-(z @ p["chead_w2"].data + p["chead_b2"].data)))
        assert got.shape == (2, 3)
        assert np.max(np.abs(got - want[..., 0])) < 1e-10
        assert np.all((got > 0.0) & (got < 1.0))


class TestForwards:
    def test_shapes_and_rows_continuous(self):
        rng = np.random.default_rng(0)
        cfg = tiny_config()
        params = init_params(cfg, seed=0, dtype=np.float64)
        batch = random_batch(rng, cfg, [3, 5], with_null=True)
        probs, preds = forward_continuous(params, batch)
        b, L = batch.tokens.shape
        assert probs.shape == (b, L, cfg.num_codes)
        assert preds.shape == (b, L)
        assert np.max(np.abs(probs.data.sum(-1) - 1.0)) < 1e-9
        assert np.all((preds.data > 0) & (preds.data < 1))

    def test_mode_mismatch_rejected(self):
        cont = init_params(tiny_config(), seed=0)
        dec = init_params(tiny_config(mode="decile"), seed=0)
        batch = random_batch(np.random.default_rng(1), tiny_config(), [3])
        with pytest.raises(ConfigError):
            forward_decile(cont, batch)
        with pytest.raises(ConfigError):
            forward_continuous(dec, batch)

    def test_shape_totality(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(2)
        for b in (1, 3, 8):
            for L in (1, 2, 7, 23, 64):
                lengths = rng.integers(1, L + 1, size=b)
                lengths[0] = L
                batch = random_batch(rng, cfg, lengths.tolist(), n_mask=0)
                probs, preds = forward_continuous(params, batch)
                assert probs.shape == (b, L, cfg.num_codes)
                assert preds.shape == (b, L)

    def test_permutation_equivariance_is_bit_exact(self):
        rng = np.random.default_rng(12)
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, seed=12)
        batch = random_batch(rng, cfg, [6, 6], with_null=True)
        probs, preds = forward_continuous(params, batch)

        L = batch.tokens.shape[1]
        perm = rng.permutation(L)
        shuffled = Batch(
            tokens=batch.tokens[:, perm], values=batch.values[:, perm],
            null_flags=batch.null_flags[:, perm], pad_mask=batch.pad_mask[:, perm],
            lengths=batch.lengths, mask_rows=batch.mask_rows,
            mask_cols=np.argsort(perm)[batch.mask_cols],
            truth_tokens=batch.truth_tokens, truth_values=batch.truth_values,
            truth_nulls=batch.truth_nulls)
        probs2, preds2 = forward_continuous(params, shuffled)
        assert np.array_equal(probs2.data, probs.data[:, perm])
        assert np.array_equal(preds2.data, preds.data[:, perm])

    def test_decile_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config(mode="decile", vocab_size=34)
        params = init_params(cfg, seed=13)
        tokens = rng.integers(1, 34, size=(2, 5))
        batch = Batch(tokens=tokens, values=np.zeros((2, 5)),
                      null_flags=np.zeros((2, 5), dtype=bool),
                      pad_mask=np.zeros((2, 5), dtype=bool),
                      lengths=np.array([5, 5]),
                      mask_rows=np.array([], dtype=np.int64),
                      mask_cols=np.array([], dtype=np.int64),
                      truth_tokens=np.array([], dtype=np.int64),
                      truth_values=np.array([]), truth_nulls=np.array([], dtype=bool))
        out = forward_decile(params, batch)
        perm = rng.permutation(5)
        shuffled = Batch(tokens=tokens[:, perm], values=batch.values,
                         null_flags=batch.null_flags, pad_mask=batch.pad_mask,
                         lengths=batch.lengths, mask_rows=batch.mask_rows,
                         mask_cols=batch.mask_cols, truth_tokens=batch.truth_tokens,
                         truth_values=batch.truth_values, truth_nulls=batch.truth_nulls)
        out2 = forward_decile(params, shuffled)
        assert np.array_equal(out2.data, out.data[:, perm])

    def test_multi_mask_positions_predict_identically(self):
        rng = np.random.default_rng(14)
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, seed=14)
        batch = random_batch(rng, cfg, [7], n_mask=3)
        probs, preds = forward_continuous(params, batch)
        cols = batch.mask_cols
        assert len(cols) == 3
        for c in cols[1:]:
            assert np.array_equal(probs.data[0, c], probs.data[0, cols[0]])
            assert preds.data[0, c] == preds.data[0, cols[0]]

    def test_batch_rows_do_not_interact(self):
        rng = np.random.default_rng(15)
        cfg = tiny_config()
        params = init_params(cfg, seed=15)
        joint = random_batch(rng, cfg, [3, 6])
        solo = Batch(
            tokens=joint.tokens[:1], values=joint.values[:1],
            null_flags=joint.null_flags[:1], pad_mask=joint.pad_mask[:1],
            lengths=joint.lengths[:1], mask_rows=np.array([0]),
            mask_cols=joint.mask_cols[joint.mask_rows == 0],
            truth_tokens=joint.truth_tokens[:1], truth_values=joint.truth_values[:1],
            truth_nulls=joint.truth_nulls[:1])
        probs_j, preds_j = forward_continuous(params, joint)
        probs_s, preds_s = forward_continuous(params, solo)
        assert np.array_equal(probs_s.data[0], probs_j.data[0])
        assert np.array_equal(preds_s.data[0], preds_j.data[0])

    def test_padding_length_does_not_change_outputs(self):
        rng = np.random.default_rng(16)
        cfg = tiny_config()
        params = init_params(cfg, seed=16)
        short = random_batch(rng, cfg, [4])
        wide = Batch(
            tokens=np.pad(short.tokens, ((0, 0), (0, 3))),
            values=np.pad(short.values, ((0, 0), (0, 3))),
            null_flags=np.pad(short.null_flags, ((0, 0), (0, 3))),
            pad_mask=np.pad(short.pad_mask, ((0, 0), (0, 3)), constant_values=True),
            lengths=short.lengths, mask_rows=short.mask_rows, mask_cols=short.mask_cols,
            truth_tokens=short.truth_tokens, truth_values=short.truth_values,
            truth_nulls=short.truth_nulls)
        probs_a, preds_a = forward_continuous(params, short)
        probs_b, preds_b = forward_continuous(params, wide)
        assert np.array_equal(probs_b.data[:, :4], probs_a.data)
        assert np.array_equal(preds_b.data[:, :4], preds_a.data)

    def test_dropout_training_changes_outputs_eval_does_not(self):
        rng = np.random.default_rng(17)
        cfg = tiny_config(dropout_rate=0.5)
        params = init_params(cfg, seed=17)
        batch = random_batch(rng, cfg, [4, 4])
        a = forward_continuous(params, batch)[1].data
        b = forward_continuous(params, batch)[1].data
        assert np.array_equal(a, b)
        keep = dropout_keep(cfg, np.random.default_rng(0), batch.tokens.shape)
        c = forward_continuous(params, batch, keep)[1].data
        assert not np.array_equal(a, c)
        assert dropout_keep(tiny_config(dropout_rate=0.0), np.random.default_rng(0),
                            batch.tokens.shape) is None


class TestForwardMasked:
    """Heads on the masked rows agree with the full forwards at those rows."""

    @staticmethod
    def _loss_and_grads(params, batch, full):
        for t in params.tensors():
            t.grad = None
        cont = params.config.mode == "continuous"
        with Tape():
            if full:
                outs = (forward_continuous(params, batch) if cont
                        else (forward_decile(params, batch), None))
            else:
                outs = forward_masked(params, batch)
            loss = (multitask_loss(*outs, batch).total if cont
                    else decile_mlm_loss(outs[0], batch))
        backward(loss)
        return outs, loss.item(), {n: t.grad for n, t in params.named_tensors()}

    @pytest.mark.parametrize("mode, vocab_size", [("continuous", 12), ("decile", 23)])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-5)])
    def test_rows_losses_and_gradients_match_to_rounding(self, mode, vocab_size, dtype, tol):
        rng = np.random.default_rng(41)
        cfg = tiny_config(mode, vocab_size, num_layers=2)
        params = init_params(cfg, seed=4, dtype=dtype)
        randomize_params(params, rng)
        for seed in range(4):
            batch = random_batch(np.random.default_rng(seed), cfg, [3, 6, 1, 5, 6],
                                 n_mask=2, with_null=True)
            (probs, preds), full_loss, full_grads = self._loss_and_grads(params, batch, True)
            (m_probs, m_preds), loss, grads = self._loss_and_grads(params, batch, False)
            at = (batch.mask_rows, batch.mask_cols)
            assert m_probs.shape == (len(batch.mask_rows), cfg.head_width)
            np.testing.assert_allclose(m_probs.data, probs.data[at], rtol=tol, atol=tol)
            if mode == "continuous":
                np.testing.assert_allclose(m_preds.data, preds.data[at], rtol=tol, atol=tol)
            else:
                assert m_preds is None
            assert loss == pytest.approx(full_loss, rel=tol)
            for name, g in grads.items():
                scale = np.max(np.abs(full_grads[name])) + 1.0
                np.testing.assert_allclose(g, full_grads[name], rtol=0, atol=tol * scale,
                                           err_msg=name)


class TestGradientFlow:
    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_every_trainable_gets_gradient(self, mode):
        """Dead-parameter screen over a full forward with masks (and nulls).

        Every param_spec entry must get a gradient, so a spec entry that no
        forward reads fails here. Key biases are excluded: shifting every key
        by a constant moves all scores for a query equally, which the softmax
        cancels, so their gradient vanishes identically by construction.
        """
        rng = np.random.default_rng(18)
        cont = mode == "continuous"
        cfg = tiny_config(mode=mode, vocab_size=12 if cont else 23, num_layers=2)
        params = init_params(cfg, seed=18)
        batch = random_batch(rng, cfg, [4, 6], with_null=cont)
        w = rng.normal(size=(1, 1, cfg.head_width))
        with Tape():
            if cont:
                probs, preds = forward_continuous(params, batch)
                loss = tape.tmean(tape.mul(probs, w)) + tape.tmean(preds)
            else:
                loss = tape.tmean(tape.mul(forward_decile(params, batch), w))
            backward(loss)
        for name, t in params.named_tensors():
            assert t.grad is not None, name
            if name.endswith("attn.bk"):
                continue
            assert np.max(np.abs(t.grad)) > 1e-12, name

    def test_full_forward_gradcheck(self):
        rng = np.random.default_rng(19)
        cfg = tiny_config()
        params = init_params(cfg, seed=19, dtype=np.float64)
        randomize_params(params, rng)
        batch = random_batch(rng, cfg, [3, 4], with_null=True)
        w = rng.normal(size=(1, 1, cfg.num_codes))
        tensors = [t for name, t in params.named_tensors()
                   if not name.endswith("attn.bk")]

        def f():
            probs, preds = forward_continuous(params, batch)
            return tape.tmean(tape.mul(probs, w)) + tape.tmean(preds)

        assert_grads_close(f, tensors, rel_tol=1e-4, h=1e-5,
                           coords_per_tensor=3, rng=np.random.default_rng(20))

    def test_decile_forward_gradcheck(self):
        rng = np.random.default_rng(21)
        cfg = tiny_config(mode="decile", vocab_size=23)
        params = init_params(cfg, seed=21, dtype=np.float64)
        randomize_params(params, rng)
        tokens = rng.integers(1, 23, size=(2, 4))
        batch = Batch(tokens=tokens, values=np.zeros((2, 4)),
                      null_flags=np.zeros((2, 4), dtype=bool),
                      pad_mask=np.array([[False] * 4, [False, False, False, True]]),
                      lengths=np.array([4, 3]),
                      mask_rows=np.array([], dtype=np.int64),
                      mask_cols=np.array([], dtype=np.int64),
                      truth_tokens=np.array([], dtype=np.int64),
                      truth_values=np.array([]), truth_nulls=np.array([], dtype=bool))
        w = rng.normal(size=(1, 1, cfg.head_width))
        tensors = [t for name, t in params.named_tensors()
                   if not name.endswith("attn.bk")]

        def f():
            probs = forward_decile(params, batch)
            return tape.tmean(tape.mul(probs, w))

        assert_grads_close(f, tensors, rel_tol=1e-4, h=1e-5,
                           coords_per_tensor=3, rng=np.random.default_rng(22))


def _manifest(path):
    """(format version, stored dtype) of a checkpoint file."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[5:9])
    return raw[4], json.loads(raw[9 : 9 + mlen])["dtype"]


class TestFloat32:
    """float32 is a property of a model's tensors: init, training and checkpoints keep it."""

    def test_train_step_stays_float32(self, tmp_path, monkeypatch):
        self.check_one_step("continuous", tmp_path, monkeypatch)

    def test_decile_train_step_stays_float32(self, tmp_path, monkeypatch):
        self.check_one_step("decile", tmp_path, monkeypatch)

    @staticmethod
    def check_one_step(mode, tmp_path, monkeypatch):
        """Every recorded activation, gradient, Adam moment and the checkpoint are float32."""
        rng = np.random.default_rng(28)
        cont = mode == "continuous"
        cfg = tiny_config(mode=mode, vocab_size=12 if cont else 23)
        params = init_params(cfg, seed=28)
        batch = random_batch(rng, cfg, [3, 5, 4], n_mask=2, with_null=cont)
        adam = AdamState(params.tensors(), learning_rate=1e-3)
        recorded = []
        add = Tape._add

        def record(self, out, fn):
            recorded.append(out.data.dtype)
            add(self, out, fn)

        monkeypatch.setattr(Tape, "_add", record)
        keep = dropout_keep(cfg, rng, batch.tokens.shape)
        with Tape():
            if cont:
                probs, preds = forward_continuous(params, batch, keep)
                loss = multitask_loss(probs, preds, batch).total
            else:
                loss = decile_mlm_loss(forward_decile(params, batch, keep), batch)
        backward(loss)
        adam_step(adam)
        assert recorded and set(recorded) == {np.dtype(np.float32)}
        assert np.isfinite(loss.item())
        for name, t in params.named_tensors():
            assert t.data.dtype == np.float32, name
            assert t.grad is not None and t.grad.dtype == np.float32, name
        assert {m.dtype for m in adam.m + adam.v} == {np.dtype(np.float32)}
        save_checkpoint(tmp_path / "m.ckpt", params)
        assert _manifest(tmp_path / "m.ckpt") == (1, "<f4")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.dtype == np.float32
        for (name, t), (_, u) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(t.data, u.data), name

    def test_float32_init_is_float64_init_rounded(self):
        for cfg in (tiny_config(num_layers=2), tiny_config(mode="decile", vocab_size=23)):
            wide = init_params(cfg, seed=5, dtype=np.float64)
            narrow = init_params(cfg, seed=5)
            assert narrow.dtype == np.float32 and wide.dtype == np.float64
            for (name, a), (_, b) in zip(wide.named_tensors(), narrow.named_tensors()):
                assert b.data.dtype == np.float32, name
                assert a.data.astype(np.float32).tobytes() == b.data.tobytes(), name

    def test_only_float32_and_float64_models(self):
        with pytest.raises(ConfigError, match="unsupported dtype"):
            init_params(tiny_config(), dtype=np.float16)

    def test_float64_checkpoint_still_loads_as_float64(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = init_params(tiny_config(), seed=6, dtype=np.float64)
        save_checkpoint(path, params)
        assert _manifest(path) == (1, "<f8")
        loaded = load_checkpoint(path)
        assert loaded.dtype == np.float64
        for (name, t), (_, u) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(t.data, u.data), name


class TestCountParams:
    def test_breakdown_sums_to_total(self):
        for cfg in (tiny_config(), tiny_config(mode="decile", vocab_size=34)):
            total, breakdown = count_params(cfg)
            assert total == sum(breakdown.values())

    def test_matches_instantiated_model(self):
        for cfg in (tiny_config(num_layers=3),
                    tiny_config(mode="decile", vocab_size=34, num_layers=2)):
            total, _ = count_params(cfg)
            params = init_params(cfg, seed=0)
            assert total == sum(t.size for t in params.tensors())
            assert ([(name, shape) for name, shape, _ in param_spec(cfg)]
                    == [(name, t.shape) for name, t in params.named_tensors()])

    def test_reference_scale_decile_count(self):
        # 372 numeric codes * 11 + 157 binary + 1 mask = 4250 assigned tokens;
        # d=1024, 10 layers, 4 heads, ff 1024, key_dim = 1024 // 4.
        cfg = ModelConfig("decile", 4250, 1024, 10, 4, 1024)
        total, breakdown = count_params(cfg)
        assert breakdown["embedding"] == 4251 * 1024
        assert total == 72_775_834


class TestGoldenInit:
    """Fresh inits pinned by digest.

    Old checkpoints load only while every parameter keeps its name and shape,
    and a seed reproduces a run only while the random draws keep their order.
    """

    @pytest.mark.parametrize("mode, vocab_size, layers, digest", [
        ("continuous", 12, 0, "50d614694539850c70b682bd3e05a69c583a6ebd2bfa0b8aa73dbe7fd8918669"),
        ("continuous", 12, 2, "a9e781e710c4bc43ed90506ee357d36a179c72180788aa16185cb9802f2bb880"),
        ("decile", 23, 0, "8994893c260dd5914ce382d0ca7113e4c4d34aaedfa85e0c304c035dc4160dd8"),
        ("decile", 23, 2, "8e5b3e4b978a2dbb0fd64030de06e4fd6c592c426370a3c1ffc0d95f709ef630"),
    ])
    def test_checkpoint_bytes(self, tmp_path, mode, vocab_size, layers, digest):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(tiny_config(mode, vocab_size, num_layers=layers), seed=3,
                                          dtype=np.float64))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("mode, vocab_size, layers, expected", [
        ("continuous", 12, 0, {"embedding": 104, "continuous_embed": 104, "blocks": 0,
                               "categorical_head": 162, "continuous_head": 361}),
        ("continuous", 12, 2, {"embedding": 104, "continuous_embed": 104, "blocks": 1760,
                               "categorical_head": 162, "continuous_head": 361}),
        ("decile", 23, 0, {"embedding": 192, "blocks": 0, "categorical_head": 279}),
        ("decile", 23, 2, {"embedding": 192, "blocks": 1200, "categorical_head": 279}),
    ])
    def test_count_params(self, mode, vocab_size, layers, expected):
        total, breakdown = count_params(tiny_config(mode, vocab_size, num_layers=layers))
        assert breakdown == expected
        assert list(breakdown) == list(expected)
        assert total == sum(expected.values())

    @pytest.mark.parametrize("task, n_extra, digest", [
        ("binary", 0, "2d1a578a2a90f5cf5457ca8447fa3bd52039dfc85c475047dc98c0781857dd91"),
        ("binary", 3, "7d8bb3dd76b61ba7dd17da057734139cc9b3483dbccdcc4942c5d309bab79184"),
        ("multiclass", 0, "cd1643e8f9e7b5f6aa5bec6eb4a0aaa89359ee3302bc1065346284a249285e92"),
        ("multiclass", 3, "2ae2e3b761bf53d14b74ef23996fbc004b877fe0e8fb1ac3747955f358c90f72"),
        ("regression", 0, "2d1a578a2a90f5cf5457ca8447fa3bd52039dfc85c475047dc98c0781857dd91"),
        ("regression", 3, "7d8bb3dd76b61ba7dd17da057734139cc9b3483dbccdcc4942c5d309bab79184"),
    ])
    def test_finetune_head(self, task, n_extra, digest):
        head = init_finetune_head([np.random.default_rng(4)], 8, n_extra, task, n_classes=3,
                                  dtype=np.float64)
        h = hashlib.sha256()
        for name, t in head.named_tensors():
            # the one member, with a bias as the (fan_out,) vector it is drawn as
            member = t.data[0, 0] if name.endswith("_b") else t.data[0]
            h.update(str(member.shape).encode())
            h.update(np.ascontiguousarray(member, dtype="<f8").tobytes())
        assert h.hexdigest() == digest


def _edit_manifest(edit):
    """A checkpoint-bytes rewrite that applies `edit` to the parsed manifest."""
    def rewrite(raw):
        (mlen,) = struct.unpack("<I", raw[5:9])
        manifest = json.loads(raw[9 : 9 + mlen])
        edit(manifest)
        new = json.dumps(manifest).encode()
        return raw[:5] + struct.pack("<I", len(new)) + new + raw[9 + mlen :]
    return rewrite


def _set(key, value, index=0):
    """An edit that sets one field of the index-th tensor entry."""
    def edit(m):
        m["tensors"][index][key] = value
    return edit


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), name
            assert b.trainable

    def test_resave_is_byte_identical(self, tmp_path):
        params = init_params(tiny_config(), seed=24)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_decile_round_trip(self, tmp_path):
        params = init_params(tiny_config(mode="decile", vocab_size=34), seed=25)
        path = tmp_path / "dec.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.by_name["embedding"].data, params.by_name["embedding"].data)
        assert "value_w" not in loaded.by_name

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        params = init_params(tiny_config(), seed=26)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError, match="past end"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(tiny_config(), seed=29))
        before = path.read_bytes()

        class DiskFull:
            """File that takes the first half of a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        # save_checkpoint writes through corpus.write_atomic
        monkeypatch.setattr(corpus, "open", lambda p, mode: DiskFull(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, init_params(tiny_config(), seed=30))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_unsupported_version_rejected(self, tmp_path):
        params = init_params(tiny_config(), seed=27)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rewrite, match", [
        (_edit_manifest(lambda m: m.update(dtype="<i8")), "unsupported dtype '<i8'"),
        (_edit_manifest(lambda m: m.update(dtype="|O")), "unsupported dtype '|O'"),
        (_edit_manifest(lambda m: m["tensors"].append(
            {"name": "block7.ff1_w", "shape": [8, 16], "offset": 0, "nbytes": 1024})),
         "unexpected tensor 'block7.ff1_w'"),
        (_edit_manifest(lambda m: m["tensors"].append(dict(m["tensors"][0]))),
         "unexpected tensor 'embedding'"),
        (_edit_manifest(lambda m: m["tensors"].pop()), "missing tensor 'chead_b2'"),
        (_edit_manifest(_set("shape", [26, 4])), "has shape"),
        (_edit_manifest(_set("nbytes", 96 * 8)), "and 768 bytes"),
        (_edit_manifest(_set("offset", -8, index=1)), "offset -8"),
        (_edit_manifest(_set("offset", 0, index=1)), "'value_w' has offset 0"),
        (_edit_manifest(_set("shape", 104)), "bad manifest"),
        (_edit_manifest(lambda m: m.pop("config")), "bad manifest"),
        (_edit_manifest(lambda m: m["config"].update(depth=3)), "bad manifest"),
        (_edit_manifest(lambda m: m["config"].update(vocab_size=1)), "bad manifest"),
        (_edit_manifest(lambda m: m["tensors"][0].pop("name")), "bad manifest"),
        (lambda raw: raw[:7], "manifest length"),
    ], ids=["int-dtype", "object-dtype", "extra-tensor", "duplicate-tensor",
            "missing-tensor", "wrong-shape", "nbytes-disagree", "negative-offset",
            "overlapping-offset", "scalar-shape", "no-config", "unknown-config-key",
            "bad-config-value", "nameless-entry", "cut-in-length"])
    def test_malformed_file_raises_format_error(self, tmp_path, rewrite, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(tiny_config(), seed=31))
        path.write_bytes(rewrite(path.read_bytes()))
        with pytest.raises(FormatError, match=re.escape(match)):
            load_checkpoint(path)
