"""Dense float tensors with tape-based reverse-mode automatic differentiation.

A TapeTensor wraps a numpy array. While a Tape is active (``with Tape():``),
every op appends a backward closure to it; ``backward(loss)`` replays the tape
in reverse and accumulates gradients into each input tensor's ``.grad``. Ops
executed with no active tape run untracked, which is the inference path.

Each tape supports one ``backward()``. The sweep releases every record as it
consumes it, so a step's activations, closures and intermediate gradients are
freed by refcount during the sweep rather than by the cyclic GC; a second
``backward()`` on the same tape raises ContractError. ``len(tape)`` still
counts the nodes recorded.

Constant operands may be plain numpy arrays or Python scalars; they receive no
gradient. Test builds run in float64 so finite-difference checks are
meaningful; ``set_default_dtype(np.float32)`` switches the fast path.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError, VocabError

_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Select the dtype used by every tensor created afterwards."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported dtype {dt}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


# The stack may hold None entries: untracked() pushes one so nested code runs
# without recording even when an outer tape is active.
_TAPE_STACK: list = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Single-writer record of executed ops, replayed in reverse by backward()."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._records)

    def _add(self, out, backward_fn):
        out.node_id = len(self._records)
        out._tape = self
        self._records.append((out, backward_fn))


@contextlib.contextmanager
def untracked():
    """Run a block with recording disabled even if a tape is active."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class TapeTensor:
    """Numpy array plus gradient slot and tape bookkeeping."""

    __slots__ = ("data", "grad", "trainable", "name", "node_id", "_tape")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.trainable = trainable
        self.name = name
        self.node_id = -1
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        backward(self)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"TapeTensor(shape={self.data.shape}{tag})"

    # Arithmetic sugar; constants on either side stay constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, _neg_const(other))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _neg_const(x):
    if isinstance(x, TapeTensor):
        return neg(x)
    return -np.asarray(x, dtype=_DEFAULT_DTYPE)


def _data(x):
    if isinstance(x, TapeTensor):
        return x.data
    return np.asarray(x, dtype=_DEFAULT_DTYPE)


def _accumulate(t, g):
    if not isinstance(t, TapeTensor):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: TapeTensor) -> None:
    """Reverse sweep from a scalar loss, accumulating .grad on the way down."""
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss._tape is None:
        raise ContractError("loss was not recorded on a tape; run the forward pass inside `with Tape():`")
    records = loss._tape._records
    if records[0] is None:
        raise ContractError("this tape was already consumed by backward(); record a new one")
    loss.grad = np.ones_like(loss.data)
    for i in range(loss.node_id, -1, -1):
        out, fn = records[i]
        records[i] = None
        if out.grad is not None:
            fn(out.grad)


# ---------------------------------------------------------------------------
# Primitives


def add(a, b) -> TapeTensor:
    da, db = _data(a), _data(b)
    out = TapeTensor(da + db)
    tape = _active_tape()
    if tape is not None:
        a_shape, b_shape = da.shape, db.shape

        def bwd(g):
            if isinstance(a, TapeTensor):
                _accumulate(a, _unbroadcast(g, a_shape))
            if isinstance(b, TapeTensor):
                _accumulate(b, _unbroadcast(g, b_shape))

        tape._add(out, bwd)
    return out


def neg(a) -> TapeTensor:
    out = TapeTensor(-_data(a))
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, -g))
    return out


def mul(a, b) -> TapeTensor:
    da, db = _data(a), _data(b)
    out = TapeTensor(da * db)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                _accumulate(a, _unbroadcast(g * db, da.shape))
            if isinstance(b, TapeTensor):
                _accumulate(b, _unbroadcast(g * da, db.shape))

        tape._add(out, bwd)
    return out


def div(a, b) -> TapeTensor:
    da, db = _data(a), _data(b)
    out = TapeTensor(da / db)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                _accumulate(a, _unbroadcast(g / db, da.shape))
            if isinstance(b, TapeTensor):
                _accumulate(b, _unbroadcast(-g * da / (db * db), db.shape))

        tape._add(out, bwd)
    return out


def matmul(a, b) -> TapeTensor:
    da, db = _data(a), _data(b)
    if da.ndim < 2 or db.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {da.shape} x {db.shape}")
    if da.shape[-1] != db.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {da.shape} x {db.shape}")
    out = TapeTensor(da @ db)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                _accumulate(a, _unbroadcast(g @ db.swapaxes(-1, -2), da.shape))
            if isinstance(b, TapeTensor):
                _accumulate(b, _unbroadcast(da.swapaxes(-1, -2) @ g, db.shape))

        tape._add(out, bwd)
    return out


def relu(a) -> TapeTensor:
    da = _data(a)
    out = TapeTensor(np.maximum(da, 0.0))
    tape = _active_tape()
    if tape is not None:
        keep = (da > 0).astype(da.dtype)
        tape._add(out, lambda g: _accumulate(a, g * keep))
    return out


def sigmoid(a) -> TapeTensor:
    da = _data(a)
    with np.errstate(over="ignore"):
        y = np.where(da >= 0, 1.0 / (1.0 + np.exp(-da)), np.exp(da) / (1.0 + np.exp(da)))
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, g * y * (1.0 - y)))
    return out


def softplus(a) -> TapeTensor:
    """log(1 + exp(a)) computed without overflow; gradient is sigmoid(a)."""
    da = _data(a)
    out = TapeTensor(np.logaddexp(0.0, da))
    tape = _active_tape()
    if tape is not None:
        with np.errstate(over="ignore"):
            s = np.where(da >= 0, 1.0 / (1.0 + np.exp(-da)), np.exp(da) / (1.0 + np.exp(da)))
        tape._add(out, lambda g: _accumulate(a, g * s))
    return out


def log_softmax(a, axis: int = -1) -> TapeTensor:
    """Log probabilities along `axis`, stable for logits of any magnitude."""
    da = _data(a)
    if not np.all(np.isfinite(da)):
        raise NumericError("log_softmax input contains non-finite values")
    shifted = da - da.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:
        p = np.exp(y)
        tape._add(out, lambda g: _accumulate(a, g - p * g.sum(axis=axis, keepdims=True)))
    return out


def exp(a) -> TapeTensor:
    y = np.exp(_data(a))
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, g * y))
    return out


def log(a) -> TapeTensor:
    da = _data(a)
    out = TapeTensor(np.log(da))
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, g / da))
    return out


def sqrt(a) -> TapeTensor:
    y = np.sqrt(_data(a))
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, g / (2.0 * y)))
    return out


def tsum(a, axis=None, keepdims=False) -> TapeTensor:
    da = _data(a)
    out = TapeTensor(da.sum(axis=axis, keepdims=keepdims))
    tape = _active_tape()
    if tape is not None:
        shape = da.shape

        def bwd(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accumulate(a, np.broadcast_to(gg, shape).copy())

        tape._add(out, bwd)
    return out


def tmean(a, axis=None, keepdims=False) -> TapeTensor:
    da = _data(a)
    if axis is None:
        count = da.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= da.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def softmax(a, axis: int = -1) -> TapeTensor:
    """Max-subtracted softmax along `axis`; rows of the result sum to one."""
    da = _data(a)
    if not np.all(np.isfinite(da)):
        raise NumericError("softmax input contains non-finite values")
    shifted = da - da.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            gy = g * y
            _accumulate(a, gy - y * gy.sum(axis=axis, keepdims=True))

        tape._add(out, bwd)
    return out


def reshape(a, shape) -> TapeTensor:
    da = _data(a)
    out = TapeTensor(da.reshape(shape))
    tape = _active_tape()
    if tape is not None:
        orig = da.shape
        tape._add(out, lambda g: _accumulate(a, g.reshape(orig)))
    return out


def swapaxes(a, ax1: int, ax2: int) -> TapeTensor:
    out = TapeTensor(_data(a).swapaxes(ax1, ax2))
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, g.swapaxes(ax1, ax2)))
    return out


def concat(parts, axis: int = -1) -> TapeTensor:
    datas = [_data(p) for p in parts]
    out = TapeTensor(np.concatenate(datas, axis=axis))
    tape = _active_tape()
    if tape is not None:
        sizes = [d.shape[axis] for d in datas]
        splits = np.cumsum(sizes)[:-1]

        def bwd(g):
            for p, gp in zip(parts, np.split(g, splits, axis=axis)):
                _accumulate(p, gp)

        tape._add(out, bwd)
    return out


def embedding_lookup(table, ids) -> TapeTensor:
    """Rows of `table` selected by an integer array; gradient scatter-adds."""
    ids = np.asarray(ids)
    dt = _data(table)
    if ids.size and (ids.min() < 0 or ids.max() >= dt.shape[0]):
        raise VocabError(
            f"embedding id out of range [0, {dt.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    out = TapeTensor(dt[ids])
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(table, TapeTensor):
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                np.add.at(table.grad, ids, g)

        tape._add(out, bwd)
    return out


def permute_l(a, perm) -> TapeTensor:
    """Reorder axis 1 of a [b, L, ...] tensor row-wise: out[i, l] = a[i, perm[i, l]]."""
    da = _data(a)
    perm = np.asarray(perm)
    rows = np.arange(da.shape[0])[:, None]
    out = TapeTensor(da[rows, perm])
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, (rows, perm), g)

        tape._add(out, bwd)
    return out


def take_bl(a, rows, cols) -> TapeTensor:
    """Gather positions from a [b, L, ...] tensor: out[n] = a[rows[n], cols[n]]."""
    da = _data(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = TapeTensor(da[rows, cols])
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, (rows, cols), g)

        tape._add(out, bwd)
    return out


def take_along_last(a, ids) -> TapeTensor:
    """Per-row gather along the last axis: out[..., n] = a[..., n, ids[..., n]].

    `ids` has the shape of `a` without its last axis, e.g. [n] for an [n, V]
    tensor or [M, n] for [M, n, V].
    """
    da = _data(a)
    ids = np.asarray(ids)
    rows = (*np.indices(ids.shape, sparse=True), ids)
    out = TapeTensor(da[rows])
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, rows, g)

        tape._add(out, bwd)
    return out


def dropout(a, rate: float, rng, training: bool) -> TapeTensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Identity when training is false or rate is 0; expectation-preserving
    otherwise. rate must lie in [0, 1).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a if isinstance(a, TapeTensor) else TapeTensor(a)
    da = _data(a)
    keep = (rng.random(da.shape) >= rate).astype(da.dtype) / (1.0 - rate)
    return mul(a, keep)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> TapeTensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    da = _data(a)
    if da.shape[-1] < 1:
        raise ConfigError("layer_norm needs a non-empty last axis")
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    mu = tmean(a, axis=-1, keepdims=True)
    centered = add(a, neg(mu))
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    std = sqrt(add(var, np.full_like(var.data, eps)))
    return add(mul(div(centered, std), gain), bias)


# ---------------------------------------------------------------------------
# Parameter initializers


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(_DEFAULT_DTYPE)


_INITS = {
    "glorot": lambda rng, shape: glorot_uniform(rng, shape, *shape),
    "normal": lambda rng, shape: rng.normal(0.0, 0.02, size=shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
}


def init_tensors(rng, spec) -> dict:
    """Fresh trainable tensors for a spec of (name, shape, init), keyed by name.

    init is a key of _INITS; "glorot" takes a (fan_in, fan_out) shape. Only
    "glorot" and "normal" draw from rng, in spec order, so a spec fixes the draws.
    """
    return {name: TapeTensor(_INITS[init](rng, shape), trainable=True, name=name)
            for name, shape, init in spec}
