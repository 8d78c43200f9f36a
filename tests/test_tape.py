"""Autodiff engine: forward oracles, backward vs finite differences, dropout."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labmlm.errors import ConfigError, ContractError, DimensionError, NumericError
from labmlm import tape
from labmlm.model import forward_continuous, init_params
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
                probs, preds = forward_continuous(params, batch, training=True, rng=rng)
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
            z = tape.log(x) + tape.sqrt(y) * tape.sigmoid(x * y)
            z = tape.exp(z * 0.3) + tape.relu(x - y)
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


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = TapeTensor(np.arange(12.0).reshape(3, 4))
        y = tape.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(y.data, x.data)

    def test_eval_mode_is_identity(self):
        x = TapeTensor(np.arange(12.0).reshape(3, 4))
        y = tape.dropout(x, 0.9, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(y.data, x.data)

    def test_drop_statistics(self):
        rng = np.random.default_rng(3)
        x = TapeTensor(np.ones((400, 400)))
        y = tape.dropout(x, 0.5, rng, training=True).data
        dropped = np.mean(y == 0.0)
        assert abs(dropped - 0.5) < 0.02
        assert abs(y.mean() - 1.0) < 0.02  # inverted scaling preserves expectation

    def test_invalid_rate(self):
        x = TapeTensor(np.ones(3))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                tape.dropout(x, rate, np.random.default_rng(0), training=True)

    def test_same_seed_bit_identical(self):
        x = TapeTensor(np.ones((8, 8)))
        y1 = tape.dropout(x, 0.3, np.random.default_rng(9), training=True).data
        y2 = tape.dropout(x, 0.3, np.random.default_rng(9), training=True).data
        np.testing.assert_array_equal(y1, y2)


class TestUntracked:
    def test_no_recording_inside_untracked(self):
        x = TapeTensor(np.ones(3), trainable=True)
        with Tape() as t:
            with tape.untracked():
                y = (x * 2.0).sum()
            assert len(t) == 0
            assert y._tape is None
