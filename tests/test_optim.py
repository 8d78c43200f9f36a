"""Adam optimizer contracts."""

import numpy as np
import pytest

from labmlm.errors import ConfigError
from labmlm.optim import AdamState, adam_step
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
