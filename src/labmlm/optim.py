"""Adam optimizer over lists of TapeTensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tape import TapeTensor


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step counter.

    `learning_rate` is a float, or an array that broadcasts against every
    parameter, such as one rate per member of a stack shaped (M, 1, 1).
    """

    params: list
    learning_rate: float | np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def __post_init__(self):
        lr = np.asarray(self.learning_rate)
        if not np.all(np.isfinite(lr) & (lr >= 0)):
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in self.params]
            self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update in place, from each parameter's .grad.

    A parameter whose gradient is None is skipped entirely. A fresh state
    stepped with zero gradients leaves parameters unchanged.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for i, p in enumerate(state.params):
        g = p.grad
        if g is None:
            continue
        m = state.m[i]
        v = state.v[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.epsilon)


def zero_param_grads(params: list[TapeTensor]) -> None:
    for p in params:
        p.grad = None
