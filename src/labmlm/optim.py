"""Adam over one flat buffer per optimizer.

`AdamState` moves its parameters into one flat array: each parameter's
`.data` becomes a C-contiguous view into it, and the moments and scratch
space are flat arrays of the same length. A step gathers every gradient with
one `np.concatenate(..., out=)` and updates all parameters with a fixed
handful of numpy calls. Each element sees the per-tensor update's op
sequence, so the results are the same bits as updating tensor by tensor.
Gradients stay per-tensor arrays, fresh on each backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .tape import TapeTensor


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter, over flat buffers.

    `learning_rate` is a float, or an array that broadcasts against every
    parameter, such as one rate per member of a stack shaped (M, 1, 1); it
    is expanded to one rate per element once. The parameters must share one
    dtype. `m` and `v` are per-parameter views into the flat moments.
    """

    params: list
    learning_rate: float | np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lr = np.asarray(self.learning_rate)
        if not np.all(np.isfinite(lr) & (lr >= 0)):
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        # Python floats stay weak scalars, so they never widen a float32 update.
        self.beta1, self.beta2, self.epsilon = map(float, (self.beta1, self.beta2, self.epsilon))
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ContractError(f"Adam parameters mix dtypes {sorted(map(str, dtypes))}; "
                                "cast them to one first")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        data = _flatten([p.data for p in self.params], dtype)
        views = _views(data, self.params)
        for p, view in zip(self.params, views):
            p.data = view
        m = _flatten(self.m, dtype) if self.m else np.zeros_like(data)
        v = _flatten(self.v, dtype) if self.v else np.zeros_like(data)
        self.m, self.v = _views(m, self.params), _views(v, self.params)
        rate = self.learning_rate
        if np.ndim(rate):
            rate = np.asarray(rate)
            rate = _flatten([np.broadcast_to(rate, p.shape) for p in self.params], rate.dtype)
        scratch = np.empty_like(data)
        work_dtype = np.result_type(rate, data)
        self._flat = {"data": data, "views": views, "m": m, "v": v, "rate": rate,
                      "grads": np.empty_like(data), "scratch": scratch,
                      "work": scratch if work_dtype == dtype else np.empty(data.size, work_dtype)}


def _flatten(arrays, dtype) -> np.ndarray:
    return (np.concatenate([np.asarray(a, dtype=dtype).reshape(-1) for a in arrays])
            if arrays else np.zeros(0, dtype=dtype))


def _views(flat, params) -> list:
    """C-contiguous views of `flat`, one per parameter in order, shaped like it."""
    out, start = [], 0
    for p in params:
        out.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    return out


def gather_grads(state: AdamState) -> np.ndarray:
    """Every parameter's .grad in one flat buffer, zeros where it is None.

    The buffer is the state's own and the next gather or step overwrites it.
    """
    flat = state._flat
    parts = [np.zeros(p.size, flat["data"].dtype) if p.grad is None else p.grad.reshape(-1)
             for p in state.params]
    if parts:
        np.concatenate(parts, out=flat["grads"])
    return flat["grads"]


def adam_step(state: AdamState, grads: np.ndarray | None = None) -> None:
    """One bias-corrected Adam update in place, from each parameter's .grad.

    `grads` is `gather_grads(state)`'s buffer when the caller gathered this
    step's gradients already. A parameter whose gradient is None is skipped
    entirely: its value and moments stay as they were. A fresh state stepped
    with zero gradients leaves parameters unchanged. A parameter whose .data
    was rebound since the state was built is copied back into the buffer.
    """
    flat = state._flat
    for p, view in zip(state.params, flat["views"]):
        if p.data is not view:
            view[...] = p.data
            p.data = view
    g = gather_grads(state) if grads is None else grads
    skipped = [i for i, p in enumerate(state.params) if p.grad is None]
    kept = [(i, state.m[i].copy(), state.v[i].copy(), flat["views"][i].copy()) for i in skipped]

    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v, tmp, work = flat["m"], flat["v"], flat["scratch"], flat["work"]
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=tmp)
    v *= b2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - b2
    v += tmp
    # data -= lr (m / c1) / (sqrt(v / c2) + eps), in the rate's dtype if it is wider
    np.multiply(np.divide(m, c1, out=tmp), flat["rate"], out=work)
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += state.epsilon
    work /= g
    flat["data"] -= work

    for i, mi, vi, di in kept:
        state.m[i][...] = mi
        state.v[i][...] = vi
        flat["views"][i][...] = di


def zero_param_grads(params: list[TapeTensor]) -> None:
    for p in params:
        p.grad = None
