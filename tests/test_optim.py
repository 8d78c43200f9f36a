"""Adam optimizer contracts."""

import numpy as np
import pytest

from labmlm.errors import ConfigError, ContractError
from labmlm.optim import AdamState, adam_step, gather_grads
from labmlm.tape import Tape, TapeTensor, backward


def test_zero_gradient_is_fixed_point():
    p = TapeTensor(np.array([1.0, -2.0, 3.0]), trainable=True)
    state = AdamState([p], learning_rate=0.1)
    before = p.data.copy()
    p.grad = np.zeros(3)
    adam_step(state)
    np.testing.assert_array_equal(p.data, before)


def test_none_gradient_skips_parameter():
    p = TapeTensor(np.ones(2), trainable=True)
    state = AdamState([p], learning_rate=0.5)
    p.grad = None
    adam_step(state)
    np.testing.assert_array_equal(p.data, np.ones(2))


def test_first_step_magnitude():
    p = TapeTensor(np.array(0.0), trainable=True)
    state = AdamState([p], learning_rate=0.1)
    p.grad = np.array(1.0)
    adam_step(state)
    np.testing.assert_allclose(p.data, -0.1 * 1.0 / (1.0 + 1e-8), rtol=0, atol=1e-15)


def _reference_scalar_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return theta


def test_quadratic_descent_matches_scalar_reference():
    """Minimize (theta - 3)^2 for 100 steps; compare against a scalar oracle."""
    p = TapeTensor(np.array(0.0), trainable=True)
    state = AdamState([p], learning_rate=0.1)
    ref_theta = 0.0
    ref_grads = []
    for _ in range(100):
        with Tape():
            loss = (p - 3.0) * (p - 3.0)
        p.grad = None
        backward(loss)
        ref_grads.append(2.0 * (ref_theta - 3.0))
        adam_step(state)
        ref_theta = _reference_scalar_adam(0.0, ref_grads, 0.1)
        assert abs(float(p.data) - ref_theta) < 1e-12
    assert abs(float(p.data) - 3.0) < 0.05


def test_bad_hyperparameters_rejected():
    p = TapeTensor(np.zeros(1), trainable=True)
    with pytest.raises(ConfigError):
        AdamState([p], learning_rate=-0.1)
    with pytest.raises(ConfigError):
        AdamState([p], learning_rate=0.1, beta1=1.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), np.array([0.1, -0.1, 0.2])])
def test_non_finite_or_negative_learning_rate_rejected(lr):
    p = TapeTensor(np.zeros(3), trainable=True)
    with pytest.raises(ConfigError):
        AdamState([p], learning_rate=lr)


def test_per_member_learning_rates_match_separate_states():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(2, 3, 4))
    grads = [rng.normal(size=(2, 3, 4)) for _ in range(5)]
    lrs = np.array([0.1, 0.03])
    stacked = TapeTensor(w.copy(), trainable=True)
    state = AdamState([stacked], learning_rate=lrs.reshape(-1, 1, 1))
    alone = [TapeTensor(w[m].copy(), trainable=True) for m in range(2)]
    states = [AdamState([alone[m]], learning_rate=float(lrs[m])) for m in range(2)]
    for g in grads:
        stacked.grad = g
        adam_step(state)
        for m in range(2):
            alone[m].grad = g[m]
            adam_step(states[m])
    for m in range(2):
        np.testing.assert_array_equal(stacked.data[m], alone[m].data)


def test_zero_learning_rate_is_a_no_op():
    p = TapeTensor(np.array([1.0, -2.0]), trainable=True)
    state = AdamState([p], learning_rate=0.0)
    p.grad = np.array([0.3, -0.7])
    adam_step(state)
    assert np.array_equal(p.data, np.array([1.0, -2.0]))


def _per_tensor_adam(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam one tensor at a time, in the per-element op order of the flat update."""
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, g in enumerate(grads):
            if g is None:
                continue
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * (g * g)
            data[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
    return data, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate_dtype", [None, "params", np.float64])
def test_flat_update_is_bit_identical_to_per_tensor_reference(dtype, rate_dtype):
    """A scalar rate, and (M, 1, 1) rates in the parameters' dtype or in float64."""
    rng = np.random.default_rng(11)
    shapes = [(3, 4, 5), (3, 1, 5), (3, 2, 2)]
    init = [rng.normal(size=s).astype(dtype) for s in shapes]
    lr = 1e-3 if rate_dtype is None else np.asarray(
        [0.1, 3e-3, 0.02], dtype=dtype if rate_dtype == "params" else rate_dtype).reshape(-1, 1, 1)
    steps = [[rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s).astype(dtype)
              for s in shapes] for _ in range(6)]
    steps[2][1] = None                                 # one skipped parameter
    params = [TapeTensor(x.copy(), trainable=True) for x in init]
    state = AdamState(params, learning_rate=lr)
    for grads in steps:
        for p, g in zip(params, grads):
            p.grad = g
        adam_step(state)
    want, want_m, want_v = _per_tensor_adam(init, steps, lr)
    for i, p in enumerate(params):
        assert p.data.dtype == dtype and p.data.flags.c_contiguous
        np.testing.assert_array_equal(p.data, want[i])
        np.testing.assert_array_equal(state.m[i], want_m[i])
        np.testing.assert_array_equal(state.v[i], want_v[i])


def test_parameters_become_views_of_one_buffer():
    params = [TapeTensor(np.ones((2, 3)), trainable=True), TapeTensor(np.zeros(4), trainable=True)]
    state = AdamState(params, learning_rate=0.1)
    assert params[0].data.flags.c_contiguous and params[1].data.shape == (4,)
    assert np.shares_memory(params[0].data, params[1].data) is False
    assert params[0].data.base is params[1].data.base is not None
    assert [m.shape for m in state.m] == [(2, 3), (4,)]
    params[0].grad, params[1].grad = np.full((2, 3), 2.0), np.arange(4.0)
    g = gather_grads(state)
    np.testing.assert_array_equal(g, [2.0] * 6 + [0.0, 1.0, 2.0, 3.0])


def test_rebound_data_is_copied_back_into_the_buffer():
    p = TapeTensor(np.zeros(3), trainable=True)
    state = AdamState([p], learning_rate=0.1)
    p.data = np.full(3, 5.0)
    p.grad = np.zeros(3)
    adam_step(state)
    np.testing.assert_array_equal(p.data, 5.0)
    assert p.data.base is not None


def test_mixed_dtypes_raise_naming_both():
    params = [TapeTensor(np.zeros(2, np.float32), trainable=True),
              TapeTensor(np.zeros(2, np.float64), trainable=True)]
    with pytest.raises(ContractError, match="float32.*float64"):
        AdamState(params, learning_rate=0.1)
