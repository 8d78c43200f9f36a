"""Dense float tensors with tape-based reverse-mode automatic differentiation.

A TapeTensor wraps a numpy array. While a Tape is active (``with Tape():``),
every op appends a backward closure to it; ``backward(loss)`` replays the tape
in reverse and accumulates gradients into each input tensor's ``.grad``. Ops
executed with no active tape run untracked, which is the inference path.

Dense layers, layer norms and attention are fused primitives, one node each.
``linear(x, w, b)`` takes its weight gradient as one 2-D GEMM over the rows
of ``x``; ``layer_norm`` has the analytic backward (Ba et al. 2016), and
``attention`` does split heads, scores, scale, pad bias, softmax, context and
merge with the analytic softmax backward (Vaswani et al. 2017). Each keeps the
forward op sequence of the composite it replaced, so its outputs are the same
bits. An attention layer records six nodes where the composite recorded 19,
and a training step at the acceptance config (d_model 64, 4 layers, batch
32) records 88 nodes (continuous) or 72 (decile), down from 145 and 126. The
four gathers share one fancy-index forward and one ``np.add.at`` backward.

A tensor's first gradient is written into a fresh buffer laid out like
``t.data`` (a gradient in another layout would reach later GEMMs in that
layout, which BLAS rounds differently); later gradients add in place.

Each tape supports one ``backward()``. The sweep releases every record as it
consumes it, so a step's activations, closures and intermediate gradients are
freed by refcount during the sweep rather than by the cyclic GC; a second
``backward()`` on the same tape raises ContractError. ``len(tape)`` still
counts the nodes recorded.

Constant operands may be plain numpy arrays or Python scalars; they receive no
gradient.

The dtype belongs to the tensors, not to the process. A TapeTensor keeps
float32 or float64 data as given and stores anything else as float64. A
constant operand takes the dtype of the tensor it meets, so a float64 array or
scalar never upcasts a float32 op. Two tensor operands of different dtypes
raise ContractError. Models train in float32 by default; the finite-difference
checks build float64 tensors, where central differences mean something.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError, VocabError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Additive score bias of a padded key; its softmax weight underflows to exactly
# zero in float32 and float64 alike.
PAD_LOGIT = -1e9


def _as_float(data) -> np.ndarray:
    """float32 and float64 data as given; anything else as float64."""
    data = np.asarray(data)
    return data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)


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
    # numpy defers to the reflected operators, so `array - tensor` records a node
    # instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        self.data = _as_float(data)
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
        return add(self, neg(other) if isinstance(other, TapeTensor) else -_data(other))

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


def _operands(*xs) -> list:
    """Each operand's array, constants cast to the dtype of the tensors among them.

    With no tensor among them, constants follow the TapeTensor rule.
    """
    dtype = None
    for x in xs:
        if isinstance(x, TapeTensor):
            if dtype is None:
                dtype = x.data.dtype
            elif x.data.dtype != dtype:
                raise ContractError(f"tensor operands mix {dtype} and {x.data.dtype}; "
                                    "cast one of them first")
    return [x.data if isinstance(x, TapeTensor)
            else _as_float(x) if dtype is None else np.asarray(x, dtype=dtype)
            for x in xs]


def _data(x):
    """One operand's array; a lone constant follows the TapeTensor rule."""
    return x.data if isinstance(x, TapeTensor) else _as_float(x)


def _accumulate(t, g):
    if not isinstance(t, TapeTensor):
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
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
    da, db = _operands(a, b)
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


def _unary(a, y, grad) -> TapeTensor:
    """Record y = f(a); backward sends grad(g) to a."""
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:
        tape._add(out, lambda g: _accumulate(a, grad(g)))
    return out


def neg(a) -> TapeTensor:
    return _unary(a, -_data(a), lambda g: -g)


def mul(a, b) -> TapeTensor:
    da, db = _operands(a, b)
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
    da, db = _operands(a, b)
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
    da, db = _operands(a, b)
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


def linear(x, w, b) -> TapeTensor:
    """x @ w + b for x [..., d_in], a (d_in, d_out) weight and a (d_out,) bias."""
    dx, dw, db = _operands(x, w, b)
    if dw.ndim != 2 or db.shape != dw.shape[1:]:
        raise DimensionError(f"linear needs a 2-d weight and a (d_out,) bias, "
                             f"got weight {dw.shape} and bias {db.shape}")
    if dx.ndim < 1 or dx.shape[-1] != dw.shape[0]:
        raise DimensionError(f"linear input {dx.shape} does not match weight {dw.shape}")
    y = dx @ dw
    y += db
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(x, TapeTensor):
                _accumulate(x, g @ dw.T)
            rows = g.reshape(-1, g.shape[-1])
            if isinstance(w, TapeTensor):
                _accumulate(w, dx.reshape(-1, dw.shape[0]).T @ rows)
            if isinstance(b, TapeTensor):
                _accumulate(b, rows.sum(axis=0))

        tape._add(out, bwd)
    return out


def relu(a) -> TapeTensor:
    da = _data(a)
    return _unary(a, np.maximum(da, 0.0), lambda g: g * (da > 0).astype(da.dtype))


def _sigmoid(da):
    with np.errstate(over="ignore"):
        return np.where(da >= 0, 1.0 / (1.0 + np.exp(-da)), np.exp(da) / (1.0 + np.exp(da)))


def sigmoid(a) -> TapeTensor:
    y = _sigmoid(_data(a))
    return _unary(a, y, lambda g: g * y * (1.0 - y))


def softplus(a) -> TapeTensor:
    """log(1 + exp(a)) computed without overflow; gradient is sigmoid(a)."""
    da = _data(a)
    return _unary(a, np.logaddexp(0.0, da), lambda g: g * _sigmoid(da))


def log_softmax(a, axis: int = -1) -> TapeTensor:
    """Log probabilities along `axis`, stable for logits of any magnitude."""
    da = _data(a)
    if not np.all(np.isfinite(da)):
        raise NumericError("log_softmax input contains non-finite values")
    shifted = da - da.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _unary(a, y, lambda g: g - np.exp(y) * g.sum(axis=axis, keepdims=True))


def exp(a) -> TapeTensor:
    y = np.exp(_data(a))
    return _unary(a, y, lambda g: g * y)


def log(a) -> TapeTensor:
    da = _data(a)
    return _unary(a, np.log(da), lambda g: g / da)


def sqrt(a) -> TapeTensor:
    y = np.sqrt(_data(a))
    return _unary(a, y, lambda g: g / (2.0 * y))


def tsum(a, axis=None, keepdims=False) -> TapeTensor:
    # _accumulate broadcasts the gradient back over the summed axes.
    expand = axis is not None and not keepdims
    return _unary(a, _data(a).sum(axis=axis, keepdims=keepdims),
                  lambda g: np.expand_dims(g, axis) if expand else g)


def tmean(a, axis=None, keepdims=False) -> TapeTensor:
    da = _data(a)
    count = da.size if axis is None else math.prod(da.shape[ax] for ax in np.atleast_1d(axis))
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


def attention(q, k, v, pad_mask, num_heads: int, key_dim: int) -> TapeTensor:
    """softmax(q k^T / sqrt(key_dim) + pad bias) v per head, as one node.

    q, k and v are [b, L, num_heads * key_dim]; the heads are split from the
    last axis and merged back into it, so the output has the same shape.
    pad_mask [b, L] marks padded keys with True (None or all False: no bias).
    The forward runs the op sequence of the composite it replaced (split
    heads, scores, scale, pad bias, softmax, context, merge), so its bits are
    the same; the backward is the analytic softmax one.
    """
    dq, dk, dv = _operands(q, k, v)
    if not (dq.ndim == 3 and dq.shape == dk.shape == dv.shape
            and dq.shape[-1] == num_heads * key_dim):
        raise DimensionError(f"attention needs q, k, v of one shape [b, L, {num_heads} * "
                             f"{key_dim}], got {dq.shape}, {dk.shape}, {dv.shape}")
    b, length, width = dq.shape
    split = (b, length, num_heads, key_dim)
    qh, kh, vh = (d.reshape(split).swapaxes(1, 2) for d in (dq, dk, dv))
    scale = np.asarray(1.0 / np.sqrt(key_dim), dtype=dq.dtype)
    y = qh @ kh.swapaxes(-1, -2)
    y *= scale
    if pad_mask is not None and pad_mask.any():
        y += np.where(pad_mask, PAD_LOGIT, 0.0).astype(dq.dtype)[:, None, None, :]
    if not np.all(np.isfinite(y)):
        raise NumericError("attention scores contain non-finite values")
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = TapeTensor((y @ vh).swapaxes(1, 2).reshape(b, length, width))
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            # contiguous, as the composite's first-write gradient was: BLAS
            # rounds a GEMM by its operands' layout
            gc = np.ascontiguousarray(g.reshape(split).swapaxes(1, 2))
            gv = y.swapaxes(-1, -2) @ gc
            gs = gc @ vh.swapaxes(-1, -2)
            gs *= y
            gs -= np.multiply(y, gs.sum(axis=-1, keepdims=True), out=y)   # y's last read
            gs *= scale
            _accumulate(q, (gs @ kh).swapaxes(1, 2).reshape(b, length, width))
            _accumulate(k, (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).swapaxes(1, 2)
                        .reshape(b, length, width))
            _accumulate(v, gv.swapaxes(1, 2).reshape(b, length, width))

        tape._add(out, bwd)
    return out


def reshape(a, shape) -> TapeTensor:
    da = _data(a)
    return _unary(a, da.reshape(shape), lambda g: g.reshape(da.shape))


def swapaxes(a, ax1: int, ax2: int) -> TapeTensor:
    return _unary(a, _data(a).swapaxes(ax1, ax2), lambda g: g.swapaxes(ax1, ax2))


def concat(parts, axis: int = -1) -> TapeTensor:
    datas = _operands(*parts)
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


def _gather(a, index) -> TapeTensor:
    """a[index] for a numpy fancy index; the gradient scatter-adds back."""
    out = TapeTensor(_data(a)[index])
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(a, TapeTensor):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, index, g)

        tape._add(out, bwd)
    return out


def embedding_lookup(table, ids) -> TapeTensor:
    """Rows of `table` selected by an integer array; gradient scatter-adds."""
    ids = np.asarray(ids)
    n = _data(table).shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise VocabError(f"embedding id out of range [0, {n}): min={ids.min()}, max={ids.max()}")
    return _gather(table, ids)


def permute_l(a, perm) -> TapeTensor:
    """Reorder axis 1 of a [b, L, ...] tensor row-wise: out[i, l] = a[i, perm[i, l]]."""
    return _gather(a, (np.arange(_data(a).shape[0])[:, None], np.asarray(perm)))


def take_bl(a, rows, cols) -> TapeTensor:
    """Gather positions from a [b, L, ...] tensor: out[n] = a[rows[n], cols[n]]."""
    return _gather(a, (np.asarray(rows), np.asarray(cols)))


def take_along_last(a, ids) -> TapeTensor:
    """Per-row gather along the last axis: out[..., n] = a[..., n, ids[..., n]].

    `ids` has the shape of `a` without its last axis, e.g. [n] for an [n, V]
    tensor or [M, n] for [M, n, V].
    """
    ids = np.asarray(ids)
    return _gather(a, (*np.indices(ids.shape, sparse=True), ids))


def dropout(a, rate: float, rng, training: bool) -> TapeTensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Identity when training is false or rate is 0; expectation-preserving
    otherwise. rate must lie in [0, 1). The mask comes from one
    `rng.random(a.shape)` call, so rng may be anything with that method.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a if isinstance(a, TapeTensor) else TapeTensor(a)
    da = _data(a)
    keep = (rng.random(da.shape) >= rate).astype(da.dtype) / (1.0 - rate)
    return mul(a, keep)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> TapeTensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    gain and bias have shape (d,) for an input [..., d]. One node with the
    analytic backward. The forward's op order (sum times 1/n, a + -mu, squared
    sum times 1/n, sqrt(var + eps), divide, scale, shift) is what fixes its
    output bits; reordering it changes them.
    """
    da, dg, db = _operands(a, gain, bias)
    d = da.shape[-1] if da.ndim else 0
    if d < 1:
        raise ConfigError("layer_norm needs a non-empty last axis")
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    if dg.shape != (d,) or db.shape != (d,):
        raise DimensionError(f"layer_norm gain {dg.shape} and bias {db.shape} must both "
                             f"have shape ({d},) for input {da.shape}")
    inv_n = np.asarray(1.0 / d, dtype=da.dtype)
    xhat = da + -(da.sum(axis=-1, keepdims=True) * inv_n)
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + np.full_like(var, eps))
    xhat /= std
    y = xhat * dg
    y += db
    out = TapeTensor(y)
    tape = _active_tape()
    if tape is not None:

        def bwd(g):
            if isinstance(gain, TapeTensor):
                _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
            if isinstance(bias, TapeTensor):
                _accumulate(bias, g.reshape(-1, d).sum(axis=0))
            if isinstance(a, TapeTensor):
                gx = g * dg
                proj = (gx * xhat).sum(axis=-1, keepdims=True) * inv_n
                gx -= gx.sum(axis=-1, keepdims=True) * inv_n
                gx -= xhat * proj
                gx /= std
                _accumulate(a, gx)

        tape._add(out, bwd)
    return out


# ---------------------------------------------------------------------------
# Parameter initializers


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


_INITS = {
    "glorot": lambda rng, shape: glorot_uniform(rng, shape, *shape),
    "normal": lambda rng, shape: rng.normal(0.0, 0.02, size=shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
}


def _check_dtype(dtype) -> np.dtype:
    """dtype as a numpy dtype; anything but float32 or float64 raises ConfigError."""
    dt = None
    if dtype is not None:   # np.dtype(None) would mean float64
        try:
            dt = np.dtype(dtype)
        except (TypeError, ValueError):
            pass
    if dt is None or dt not in _FLOAT_DTYPES:
        raise ConfigError(f"unsupported dtype {dtype!r}; use float32 or float64")
    return dt


def init_tensors(rng, spec, dtype) -> dict:
    """Fresh trainable tensors for a spec of (name, shape, init), keyed by name.

    init is a key of _INITS; "glorot" takes a (fan_in, fan_out) shape. Only
    "glorot" and "normal" draw from rng, in spec order, so a spec fixes the draws.
    Values are drawn in float64 and cast once to `dtype`, so a float32 tensor is
    its float64 twin rounded.
    """
    dtype = _check_dtype(dtype)
    return {name: TapeTensor(_INITS[init](rng, shape).astype(dtype, copy=False),
                             trainable=True, name=name)
            for name, shape, init in spec}
