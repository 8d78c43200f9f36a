"""Autodiff engine: forward oracles, backward vs finite differences, dropout."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labmlm.errors import ConfigError, ContractError, DimensionError, NumericError
from labmlm import tape
from labmlm.model import dropout_keep, forward_continuous, init_params
from labmlm.optim import AdamState, adam_step, zero_param_grads
from labmlm.tape import Tape, TapeTensor, backward
from labmlm.training import multitask_loss

from gradcheck import assert_grads_close
from test_model import random_batch, tiny_config


class TestMatmul:
    def test_identity(self):
        a = TapeTensor(np.eye(4))
        b = TapeTensor(np.arange(16.0).reshape(4, 4))
        np.testing.assert_array_equal(tape.matmul(a, b).data, b.data)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = tape.matmul(TapeTensor(a), TapeTensor(b)).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(4, 6))
        got = tape.matmul(TapeTensor(a), TapeTensor(b)).data
        np.testing.assert_allclose(got, a @ b, atol=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            tape.matmul(TapeTensor(np.zeros((2, 3))), TapeTensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_single_logit(self):
        np.testing.assert_array_equal(tape.softmax(TapeTensor([3.0])).data, [1.0])

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        want = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(tape.softmax(TapeTensor(x)).data, want, atol=1e-12)

    def test_extreme_logits_no_overflow(self):
        y = tape.softmax(TapeTensor([1000.0, 0.0])).data
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericError):
            tape.softmax(TapeTensor([np.nan, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-60, 60), min_size=1, max_size=16))
    def test_rows_are_distributions(self, logits):
        y = tape.softmax(TapeTensor(logits)).data
        assert np.all(y >= 0) and np.all(y <= 1)
        assert abs(y.sum() - 1.0) < 1e-12


class TestSoftplusLogSoftmax:
    def test_softplus_formula(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(tape.softplus(TapeTensor(x)).data,
                                   np.log1p(np.exp(x)), atol=1e-12)

    def test_softplus_extremes(self):
        y = tape.softplus(TapeTensor([-1000.0, 1000.0])).data
        assert y[0] == 0.0
        assert y[1] == 1000.0

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(3).normal(size=(2, 5))
        got = tape.log_softmax(TapeTensor(x)).data
        want = np.log(tape.softmax(TapeTensor(x)).data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_log_softmax_extreme_logits_stay_finite(self):
        y = tape.log_softmax(TapeTensor([[900.0, 0.0, -900.0]])).data
        assert np.all(np.isfinite(y))
        assert abs(np.exp(y).sum() - 1.0) < 1e-12

    def test_log_softmax_nonfinite_raises(self):
        with pytest.raises(NumericError):
            tape.log_softmax(TapeTensor([np.inf, 0.0]))


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        d = 6
        gain = TapeTensor(np.ones(d))
        bias = TapeTensor(np.full(d, 0.25))
        y = tape.layer_norm(TapeTensor(np.full((2, d), 7.0)), gain, bias).data
        np.testing.assert_allclose(y, 0.25, atol=1e-9)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        x = TapeTensor(rng.normal(3.0, 2.0, size=(4, 32)))
        gain = TapeTensor(np.ones(32))
        bias = TapeTensor(np.zeros(32))
        y = tape.layer_norm(x, gain, bias).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            tape.layer_norm(TapeTensor(np.ones((1, 4))), TapeTensor(np.ones(4)),
                            TapeTensor(np.zeros(4)), eps=0.0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = TapeTensor(np.arange(6.0).reshape(2, 3), trainable=True)
        with Tape():
            loss = w.sum()
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_half_sum_of_squares_gradient_is_w(self):
        rng = np.random.default_rng(7)
        w = TapeTensor(rng.normal(size=(3, 4)), trainable=True)
        with Tape():
            loss = (w * w).sum() * 0.5
        backward(loss)
        np.testing.assert_allclose(w.grad, w.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = TapeTensor(np.ones(3))
        with Tape():
            y = w * 2.0
        with pytest.raises(ContractError):
            backward(y)

    def test_loss_outside_tape_rejected(self):
        w = TapeTensor(np.ones(()))
        with pytest.raises(ContractError):
            backward(w)

    def test_reused_operand_accumulates(self):
        w = TapeTensor(np.array(3.0), trainable=True)
        with Tape():
            loss = w * w
        backward(loss)
        np.testing.assert_allclose(w.grad, 6.0)

    def test_second_backward_on_swept_tape_rejected(self):
        w = TapeTensor(np.array(3.0), trainable=True)
        with Tape():
            loss = w * w
        backward(loss)
        with pytest.raises(ContractError, match="already consumed"):
            backward(loss)
        np.testing.assert_allclose(w.grad, 6.0)

    def test_len_counts_recorded_nodes_after_backward(self):
        w = TapeTensor(np.ones((2, 3)), trainable=True)
        with Tape() as t:
            loss = (w * 2.0 + 1.0).sum()
        recorded = len(t)
        assert recorded == 3
        backward(loss)
        assert len(t) == recorded


def _train_peak_bytes(steps):
    """tracemalloc peak over `steps` tiny-model train steps with the cyclic GC off."""
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = random_batch(rng, cfg, [3, 5, 4], n_mask=2)
    adam = AdamState(params.tensors(), 1e-3)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(steps):
            zero_param_grads(params.tensors())
            with Tape():
                probs, preds = forward_continuous(params, batch,
                                                  dropout_keep(cfg, rng, batch.tokens.shape))
                loss = multitask_loss(probs, preds, batch).total
            backward(loss)
            adam_step(adam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_train_step_memory_does_not_grow_with_steps():
    # Refcounting alone must free each step's graph: if records outlived
    # backward(), every step would stay alive until a cyclic collection and
    # the peak would grow about fourfold from 5 to 20 steps.
    assert _train_peak_bytes(20) < 1.5 * _train_peak_bytes(5)


class TestGradChecks:
    """Every differentiable primitive against central finite differences."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(10)
        x = TapeTensor(rng.uniform(0.5, 2.0, size=(3, 4)), trainable=True, name="x")
        y = TapeTensor(rng.uniform(0.5, 2.0, size=(3, 4)), trainable=True, name="y")

        def f():
            z = tape.log(x) + tape.log(y) * tape.sigmoid(x * y)
            z = tape.softplus(z * 0.3) + tape.relu(x - y)
            return z.mean()

        assert_grads_close(f, [x, y])

    def test_matmul_and_div(self):
        rng = np.random.default_rng(11)
        a = TapeTensor(rng.normal(size=(3, 4)), trainable=True)
        b = TapeTensor(rng.normal(size=(4, 2)), trainable=True)
        c = TapeTensor(rng.uniform(1.0, 2.0, size=(3, 2)), trainable=True)

        def f():
            return (tape.matmul(a, b) / c).sum()

        assert_grads_close(f, [a, b, c])

    def test_softmax_gradient(self):
        rng = np.random.default_rng(12)
        x = TapeTensor(rng.normal(size=(2, 5)), trainable=True)
        w = rng.normal(size=(2, 5))

        def f():
            return (tape.softmax(x, axis=-1) * w).sum()

        assert_grads_close(f, [x])

    def test_softplus_gradient(self):
        rng = np.random.default_rng(21)
        x = TapeTensor(rng.normal(size=(3, 4)), trainable=True)
        w = rng.normal(size=(3, 4))

        def f():
            return (tape.softplus(x) * w).sum()

        assert_grads_close(f, [x])

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(22)
        x = TapeTensor(rng.normal(size=(2, 6)), trainable=True)
        w = rng.normal(size=(2, 6))

        def f():
            return (tape.log_softmax(x, axis=-1) * w).sum()

        assert_grads_close(f, [x])

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(13)
        x = TapeTensor(rng.normal(size=(2, 3, 6)), trainable=True)
        gain = TapeTensor(rng.uniform(0.5, 1.5, size=6), trainable=True)
        bias = TapeTensor(rng.normal(size=6), trainable=True)
        w = rng.normal(size=(2, 3, 6))

        def f():
            return (tape.layer_norm(x, gain, bias) * w).sum()

        assert_grads_close(f, [x, gain, bias])

    def test_gather_ops_gradient(self):
        rng = np.random.default_rng(14)
        table = TapeTensor(rng.normal(size=(7, 4)), trainable=True)
        ids = np.array([[1, 3, 1], [0, 6, 2]])
        x = TapeTensor(rng.normal(size=(2, 3, 4)), trainable=True)
        rows = np.array([0, 1, 1])
        cols = np.array([2, 0, 1])
        w = rng.normal(size=(3, 4))

        def f():
            e = tape.embedding_lookup(table, ids) + x
            picked = tape.take_bl(e, rows, cols)
            return (picked * w).sum()

        assert_grads_close(f, [table, x])

    def test_permute_and_concat_gradient(self):
        rng = np.random.default_rng(15)
        x = TapeTensor(rng.normal(size=(2, 4, 3)), trainable=True)
        y = TapeTensor(rng.normal(size=(2, 4, 2)), trainable=True)
        perm = np.array([[2, 0, 3, 1], [1, 3, 0, 2]])
        w = rng.normal(size=(2, 4, 5))

        def f():
            z = tape.concat([tape.permute_l(x, perm), y], axis=-1)
            return (z * w).sum()

        assert_grads_close(f, [x, y])

    def test_reductions_gradient(self):
        rng = np.random.default_rng(16)
        x = TapeTensor(rng.normal(size=(3, 4, 2)), trainable=True)

        def f():
            return (x.sum(axis=1) * x.mean(axis=(0, 2), keepdims=True).sum()).mean()

        assert_grads_close(f, [x])

    def test_random_composite_graphs(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            a = TapeTensor(rng.uniform(0.5, 1.5, size=(2, 3)), trainable=True)
            b = TapeTensor(rng.uniform(0.5, 1.5, size=(3, 3)), trainable=True)

            def f():
                h = tape.sigmoid(tape.matmul(a, b))
                h = tape.softmax(h + a, axis=-1)
                return tape.log(h.sum(axis=0) + 1.0).sum()

            assert_grads_close(f, [a, b])


def _keep(rng, shape, rate):
    return rng.random(shape) >= rate


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = TapeTensor(np.arange(12.0).reshape(3, 4))
        y = tape.dropout(x, 0.0, np.ones((3, 4), dtype=bool))
        np.testing.assert_array_equal(y.data, x.data)

    def test_eval_mode_is_identity(self):
        x = TapeTensor(np.arange(12.0).reshape(3, 4))
        y = tape.dropout(x, 0.9, None)
        np.testing.assert_array_equal(y.data, x.data)

    def test_drop_statistics(self):
        rng = np.random.default_rng(3)
        x = TapeTensor(np.ones((400, 400)))
        y = tape.dropout(x, 0.5, _keep(rng, x.shape, 0.5)).data
        dropped = np.mean(y == 0.0)
        assert abs(dropped - 0.5) < 0.02
        assert abs(y.mean() - 1.0) < 0.02  # inverted scaling preserves expectation

    def test_invalid_rate(self):
        x = TapeTensor(np.ones(3))
        for rate in (-0.1, 1.0, 1.5, [0.1, 1.0]):
            with pytest.raises(ConfigError):
                tape.dropout(x, rate, np.ones(3, dtype=bool))

    def test_same_seed_bit_identical(self):
        x = TapeTensor(np.ones((8, 8)))
        y1 = tape.dropout(x, 0.3, _keep(np.random.default_rng(9), x.shape, 0.3)).data
        y2 = tape.dropout(x, 0.3, _keep(np.random.default_rng(9), x.shape, 0.3)).data
        np.testing.assert_array_equal(y1, y2)

    def test_keep_mask_must_be_boolean_and_fit(self):
        x = TapeTensor(np.ones((2, 3)))
        for keep in (np.ones((2, 3)), np.ones((3, 2), dtype=bool)):
            with pytest.raises(ContractError, match="boolean keep mask of shape"):
                tape.dropout(x, 0.5, keep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rates_per_member_scale_in_the_tensor_dtype(self, dtype):
        """An (M, 1, 1) float64 rate array divides in the activation's dtype."""
        x = TapeTensor(np.ones((2, 3, 4), dtype=dtype))
        keep = np.ones(x.shape, dtype=bool)
        keep[1, 0, 0] = False
        rates = np.array([0.0, 0.3]).reshape(-1, 1, 1)
        y = tape.dropout(x, rates, keep).data
        assert y.dtype == dtype
        np.testing.assert_array_equal(y[0], 1)
        assert y[1, 0, 0] == 0 and y[1, 2, 3] == dtype(1) / dtype(0.7)


class TestUntracked:
    def test_no_recording_inside_untracked(self):
        x = TapeTensor(np.ones(3), trainable=True)
        with Tape() as t:
            with tape.untracked():
                y = (x * 2.0).sum()
            assert len(t) == 0
            assert y._tape is None


class TestLinear:
    def test_forward_is_matmul_plus_bias(self):
        rng = np.random.default_rng(30)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        got = tape.linear(TapeTensor(x), TapeTensor(w), TapeTensor(b)).data
        np.testing.assert_array_equal(got, x @ w + b)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_gradient(self, x_shape):
        rng = np.random.default_rng(31)
        x = TapeTensor(rng.normal(size=x_shape), trainable=True)
        w = TapeTensor(rng.normal(size=(4, 5)), trainable=True)
        b = TapeTensor(rng.normal(size=5), trainable=True)
        c = rng.normal(size=(*x_shape[:-1], 5))

        def f():
            return (tape.linear(x, w, b) * c).sum()

        assert_grads_close(f, [x, w, b])

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((4,), (4,)),            # weight not 2-d
        ((2, 4, 5), (5,)),       # weight not 2-d
        ((4, 5), (4,)),          # bias is not (d_out,)
        ((4, 5), (1, 5)),        # bias is not (d_out,)
    ])
    def test_bad_weight_or_bias_names_both_shapes(self, w_shape, b_shape):
        pattern = rf"weight {re.escape(str(w_shape))} and bias {re.escape(str(b_shape))}"
        with pytest.raises(DimensionError, match=pattern):
            tape.linear(TapeTensor(np.ones((3, 4))), TapeTensor(np.ones(w_shape)),
                        TapeTensor(np.ones(b_shape)))

    def test_input_width_must_match_weight(self):
        with pytest.raises(DimensionError, match=r"\(3, 6\).*\(4, 5\)"):
            tape.linear(TapeTensor(np.ones((3, 6))), TapeTensor(np.ones((4, 5))),
                        TapeTensor(np.ones(5)))


def _composite_layer_norm(x, gain, bias, eps=1e-5):
    """The unfused op sequence layer_norm replaced, transcribed to numpy."""
    inv_n = np.asarray(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x + -mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + np.full_like(var, eps))
    return centered / std * gain + bias


class TestFusedLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 16), (2, 6, 64), (3, 1)])
    def test_forward_bit_identical_to_composite(self, shape):
        rng = np.random.default_rng(32)
        x = rng.normal(1.0, 3.0, size=shape)
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        want = _composite_layer_norm(x, gain, bias)
        for recorded in (False, True):
            with Tape() if recorded else tape.untracked():
                got = tape.layer_norm(TapeTensor(x), TapeTensor(gain), TapeTensor(bias)).data
            assert np.array_equal(got, want)

    def test_one_node(self):
        x = TapeTensor(np.random.default_rng(33).normal(size=(2, 3, 8)), trainable=True)
        with Tape() as t:
            tape.layer_norm(x, TapeTensor(np.ones(8)), TapeTensor(np.zeros(8)))
        assert len(t) == 1

    @pytest.mark.parametrize("gain_shape, bias_shape", [
        ((1,), (6,)),        # would broadcast over d
        ((4, 6), (6,)),      # (L, d) would broadcast over rows
        ((7,), (6,)),        # (d+1,)
        ((6,), (1,)),
        ((6,), (4, 6)),
    ])
    def test_gain_and_bias_must_be_d(self, gain_shape, bias_shape):
        pattern = (rf"gain {re.escape(str(gain_shape))} and bias "
                   rf"{re.escape(str(bias_shape))}.*\(6,\)")
        with pytest.raises(DimensionError, match=pattern):
            tape.layer_norm(TapeTensor(np.ones((4, 6))), TapeTensor(np.ones(gain_shape)),
                            TapeTensor(np.zeros(bias_shape)))


def _swapaxes(t, ax1, ax2):
    """The tape's swapaxes op, which the fused attention node made unused."""
    return tape._unary(t, t.data.swapaxes(ax1, ax2), lambda g: g.swapaxes(ax1, ax2))


def _composite_attention(q, k, v, pad, num_heads, key_dim):
    """The tape ops attention recorded one by one before it was fused."""
    b, L, width = q.shape

    def split(t):
        return _swapaxes(tape.reshape(t, (b, L, num_heads, key_dim)), 1, 2)

    scores = tape.matmul(split(q), _swapaxes(split(k), -1, -2)) * (1.0 / np.sqrt(key_dim))
    if pad.any():
        scores = scores + np.where(pad, tape.PAD_LOGIT, 0.0)[:, None, None, :]
    ctx = tape.matmul(tape.softmax(scores, axis=-1), split(v))
    return tape.reshape(_swapaxes(ctx, 1, 2), (b, L, width))


class TestFusedAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b, L, h, k", [(32, 5, 2, 64), (32, 5, 2, 32), (3, 6, 2, 4)])
    def test_bit_identical_to_composite(self, dtype, b, L, h, k):
        rng = np.random.default_rng(b * L + k)
        pad = np.arange(L) >= rng.integers(1, L + 1, size=b)[:, None]
        pad[1] = True                      # one fully padded row
        w = rng.normal(size=(b, L, h * k)).astype(dtype)
        data = [rng.normal(size=(b, L, h * k)).astype(dtype) for _ in range(3)]
        for mask in (pad, np.zeros_like(pad)):
            outs, grads = [], []
            for op in (tape.attention, _composite_attention):
                qkv = [TapeTensor(d.copy(), trainable=True) for d in data]
                with Tape():
                    out = op(*qkv, mask, h, k)
                    loss = tape.tsum(tape.mul(out, w))
                backward(loss)
                outs.append(out.data)
                grads.append([t.grad for t in qkv])
            assert outs[0].dtype == dtype
            np.testing.assert_array_equal(outs[0], outs[1])
            for fused, composite in zip(*grads):
                np.testing.assert_array_equal(fused, composite)

    def test_one_node(self):
        qkv = [TapeTensor(np.random.default_rng(i).normal(size=(2, 3, 8)), trainable=True)
               for i in range(3)]
        with Tape() as t:
            tape.attention(*qkv, np.array([[False, False, True], [False] * 3]), 2, 4)
        assert len(t) == 1

    def test_shapes_must_agree_with_the_heads(self):
        x = TapeTensor(np.ones((2, 3, 8)))
        with pytest.raises(DimensionError, match="attention"):
            tape.attention(x, x, x, None, 2, 3)
        with pytest.raises(DimensionError, match="attention"):
            tape.attention(x, x, TapeTensor(np.ones((2, 4, 8))), None, 2, 4)

    def test_non_finite_scores_raise(self):
        x = TapeTensor(np.full((1, 2, 4), np.nan))
        with pytest.raises(NumericError, match="non-finite"):
            tape.attention(x, x, x, None, 1, 4)


class TestFirstWriteGradient:
    def test_first_write_is_a_fresh_buffer_in_the_tensors_layout(self):
        t = TapeTensor(np.zeros((2, 3)), trainable=True)
        g = np.arange(6.0).reshape(3, 2).T       # Fortran-ordered incoming gradient
        tape._accumulate(t, g)
        assert t.grad.shape == t.data.shape
        assert t.grad.flags.c_contiguous
        assert not np.shares_memory(t.grad, g)
        np.testing.assert_array_equal(t.grad, g)
        tape._accumulate(t, g)
        np.testing.assert_array_equal(t.grad, 2 * g)

    def test_broadcast_gradient_fills_the_whole_buffer(self):
        w = TapeTensor(np.ones((4, 3)), trainable=True)
        with Tape():
            loss = w.sum(axis=0).sum()
        backward(loss)
        assert w.grad.flags.c_contiguous and w.grad.shape == (4, 3)
        np.testing.assert_array_equal(w.grad, np.ones((4, 3)))


def _acceptance_step_nodes(mode, step):
    """Tape nodes of one step at d_model 64, 4 layers, 2 heads, ff 128, batch 32.

    ``step`` is "full" (the full-width forward and its loss) or "training"
    (the training loop's own forward and loss, heads on the masked rows).
    """
    from labmlm import training
    from labmlm.corpus import LabBag, mask_bag, pad_batch
    from labmlm.model import ModelConfig, forward_decile

    cfg = ModelConfig(mode, 22, d_model=64, num_layers=4, num_heads=2, ff_dim=128)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    top = cfg.num_codes if mode == "continuous" else cfg.vocab_size - 1
    bags = []
    for i in range(32):
        L = int(rng.integers(3, 6))
        bag = LabBag(f"p{i}", 0.0, rng.integers(1, top + 1, size=L).astype(np.int64),
                     rng.uniform(0.0, 1.0, size=L), np.zeros(L, dtype=bool))
        bags.append(mask_bag(bag, cfg.mask_token, rng))
    batch = pad_batch(bags)
    keep = dropout_keep(cfg, rng, batch.tokens.shape)
    with Tape() as t:
        if step == "training":
            training._forward_and_loss(params, batch, keep)
        elif mode == "continuous":
            multitask_loss(*forward_continuous(params, batch, keep), batch)
        else:
            training.decile_mlm_loss(forward_decile(params, batch, keep), batch)
    return len(t)


@pytest.mark.parametrize("mode, most", [("continuous", 150), ("decile", 130)])
def test_acceptance_config_step_node_count(mode, most):
    assert _acceptance_step_nodes(mode, "full") <= most


# One attention node per layer and heads on the masked rows: 88 and 72 nodes
# (145 and 126 with the composite attention and full-width heads).
@pytest.mark.parametrize("mode, most", [("continuous", 88), ("decile", 72)])
def test_acceptance_config_training_step_node_count(mode, most):
    assert _acceptance_step_nodes(mode, "training") <= most


class TestDtypeRule:
    """A tensor keeps float32 or float64; constants follow the tensor they meet."""

    @pytest.mark.parametrize("data, want", [
        (np.ones(2, np.float32), np.float32), (np.ones(2), np.float64),
        (np.ones(2, np.int64), np.float64), (np.ones(2, bool), np.float64),
        (np.ones(2, np.float16), np.float64), ([1, 2], np.float64), (0.5, np.float64),
    ])
    def test_tensor_keeps_float32_and_float64_only(self, data, want):
        assert TapeTensor(data).data.dtype == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constants_take_the_tensor_dtype(self, dtype):
        rng = np.random.default_rng(0)
        t = TapeTensor(rng.normal(size=(2, 3)).astype(dtype), trainable=True)
        other = np.float64 if dtype == np.float32 else np.float32
        const = rng.normal(size=(2, 3)).astype(other)
        w = rng.normal(size=(3, 3)).astype(other)
        with Tape():
            outs = [t + const, const + t, t - const, const - t, t * const, t / 2.0,
                    2.0 / (t * t + 1.0), t * np.float64(0.5), tape.matmul(t, w),
                    tape.linear(t, w, np.zeros(3)), tape.linear(const, t.reshape(3, 2),
                                                                np.zeros(2)),
                    tape.layer_norm(t, np.ones(3), np.zeros(3)), tape.tmean(t),
                    tape.concat([t, const], axis=-1), tape.relu(t), tape.sigmoid(t),
                    tape.softmax(t), tape.log_softmax(t), tape.softplus(t),
                    tape.dropout(t, 0.5, rng.random(t.shape) >= 0.5)]
            loss = tape.tsum(tape.concat([o.reshape(-1) for o in outs], axis=0))
        backward(loss)
        assert [o.data.dtype for o in outs] == [np.dtype(dtype)] * len(outs)
        assert loss.data.dtype == dtype and t.grad.dtype == dtype

    @pytest.mark.parametrize("op", [tape.add, tape.mul, tape.div, tape.matmul,
                                    lambda a, b: tape.concat([a, b])])
    def test_mixed_tensor_dtypes_raise_naming_both(self, op):
        a = TapeTensor(np.ones((2, 2), np.float32))
        b = TapeTensor(np.ones((2, 2)))
        with pytest.raises(ContractError, match="float32.*float64"):
            op(a, b)

    def test_mixed_dtypes_in_fused_ops_raise(self):
        x = TapeTensor(np.ones((2, 3), np.float32))
        with pytest.raises(ContractError, match="float32.*float64"):
            tape.linear(x, TapeTensor(np.ones((3, 2))), np.zeros(2))
        with pytest.raises(ContractError, match="float32.*float64"):
            tape.layer_norm(x, TapeTensor(np.ones(3)), np.zeros(3))
