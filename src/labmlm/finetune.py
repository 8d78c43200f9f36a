"""Frozen-base fine-tuning: task heads, grid search, and linear baselines.

The pre-trained model is never updated here. Each sample's lab panel runs
through the base encoder with gradient recording disabled, final embeddings
are mean-pooled over real positions, and only a small task head trains on
top. Extra (non-lab) features join through a width-preserving ReLU dense
before the head. Heads are scored with k-fold cross-validation over an
exhaustive hyperparameter grid, and a regularized logistic (or plain least
squares) baseline can be fit on the same folds for comparison.

Every head is a stack of M >= 1 members along a leading member axis:
`init_finetune_head` draws one member per generator, weights are
(M, fan_in, fan_out) and biases (M, 1, fan_out). One forward, backward and
Adam step train every member at once, each with its own learning rate,
dropout rate and generator, and one untracked forward scores them all. A lone
head is a one-member stack. The grid search trains the learning-rate x
dropout cells that share a replicate, a fold, epochs and a batch size as one
stack; every member ends bit-identical to the same cell trained as a
one-member stack. Each (replicate, fold, stack) unit shares nothing with the
others but the read-only pooled embeddings, so the units run in a pool of
forked workers, one per usable CPU, and the rows are bit-identical for any
CPU count at a fixed BLAS thread count. On Python >= 3.12, forking while
BLAS threads are running raises a DeprecationWarning.

A head's tensors live in one mapping keyed by the names that
`init_finetune_head`'s spec declares (`extra_w`, `extra_b`, `dense_w`, ...),
in spec order, and the forward reads them by name.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import parallel, tape
from .corpus import LabBag, pad_batch
from .ecdf import MODE_CONTINUOUS, ecdf_apply_many
from .errors import ConfigError, ContractError, DataError
from .model import ModelParams, encode
from .optim import AdamState, adam_step, zero_param_grads
from .tape import Tape, TapeTensor, backward, init_tensors, untracked

TASK_BINARY = "binary"
TASK_MULTICLASS = "multiclass"
TASK_REGRESSION = "regression"
_TASKS = (TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION)

DEFAULT_EPOCHS_GRID = (30, 60, 90)
DEFAULT_BATCH_GRID = (16, 32, 64)
DEFAULT_LR_GRID = (1e-4, 3e-4, 5e-4, 1e-3)
DEFAULT_DROPOUT_GRID = (0.1, 0.3, 0.5, 0.7)
DEFAULT_L2_GRID = (0.0001, 0.001, 0.01, 0.1)


@dataclass
class FinetuneConfig:
    task_kind: str = TASK_BINARY
    n_classes: int = 2
    epochs_grid: tuple = DEFAULT_EPOCHS_GRID
    batch_grid: tuple = DEFAULT_BATCH_GRID
    lr_grid: tuple = DEFAULT_LR_GRID
    dropout_grid: tuple = DEFAULT_DROPOUT_GRID

    def __post_init__(self):
        if self.task_kind not in _TASKS:
            raise ConfigError(f"unknown task kind {self.task_kind!r}")
        if self.task_kind == TASK_MULTICLASS and self.n_classes < 2:
            raise ConfigError(f"multiclass needs n_classes >= 2, got {self.n_classes}")
        for name in ("epochs_grid", "batch_grid", "lr_grid", "dropout_grid"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        for name in ("epochs_grid", "batch_grid"):
            if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in getattr(self, name)):
                raise ConfigError(f"{name} must hold integers >= 1, got {getattr(self, name)}")
        # Checked here, not in train_head: a bad rate would otherwise surface
        # only after pooling, inside a grid worker.
        for v in self.lr_grid:
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"lr_grid must hold finite rates >= 0, got {v!r}")
        for v in self.dropout_grid:
            if not 0 <= v < 1:
                raise ConfigError(f"dropout_grid must hold rates in [0, 1), got {v!r}")


@dataclass
class FinetuneDataset:
    lab_values: np.ndarray        # (n, n_lab) raw values, NaN where missing
    labels: np.ndarray            # (n,)
    lab_codes: list
    extras: np.ndarray            # (n, n_extra)
    extra_names: list

    def __len__(self):
        return len(self.labels)


def load_finetune_csv(csv_path, sidecar_path, vocab) -> FinetuneDataset:
    """Read a labeled feature table; the sidecar says which columns are labs.

    Declared lab columns whose code is not in the vocabulary are routed to
    the extra-feature path instead of being dropped. An empty or NaN lab
    value means missing; an infinite lab value, or a non-finite extra
    feature, raises DataError naming its line and column.
    """
    label_col, lab_cols, extra_cols = _read_sidecar(sidecar_path)

    in_vocab = [c for c in lab_cols if vocab.contains(c)]
    rerouted = [c for c in lab_cols if not vocab.contains(c)]
    extra_cols = extra_cols + rerouted

    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{csv_path}: empty file")
        missing = [c for c in [label_col, *in_vocab, *extra_cols]
                   if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{csv_path}: missing columns {missing}")
        labels, labs, extras = [], [], []
        for ln, row in enumerate(reader, start=2):
            if None in row.values():
                raise DataError(f"{csv_path} line {ln}: fewer fields than the header")
            try:
                labels.append(float(row[label_col]))
                labs.append([np.nan if row[c] == "" else float(row[c]) for c in in_vocab])
                extras.append([float(row[c]) for c in extra_cols])
            except ValueError as exc:
                raise DataError(f"{csv_path} line {ln}: {exc}") from None
            bad = [c for c, v in zip(in_vocab, labs[-1]) if np.isinf(v)]
            bad += [c for c, v in zip(extra_cols, extras[-1]) if not np.isfinite(v)]
            if bad:
                raise DataError(f"{csv_path} line {ln}: column {bad[0]!r} has "
                                f"non-finite value {row[bad[0]]!r}")
    if not labels:
        raise DataError(f"{csv_path}: no data rows")
    return FinetuneDataset(
        lab_values=np.asarray(labs, dtype=float).reshape(len(labels), len(in_vocab)),
        labels=np.asarray(labels, dtype=float),
        lab_codes=in_vocab,
        extras=np.asarray(extras, dtype=float).reshape(len(labels), len(extra_cols)),
        extra_names=extra_cols,
    )


def _read_sidecar(path) -> tuple:
    """(label column, lab columns, extra columns) from a column-role JSON object."""
    try:
        with open(path, "rb") as fh:
            sidecar = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(sidecar, dict) or not isinstance(sidecar.get("label"), str):
        raise DataError(f'{path}: sidecar must be a JSON object whose "label" names a column')
    roles = {key: sidecar.get(key, []) for key in ("lab_codes", "extra_features")}
    for key, cols in roles.items():
        if not isinstance(cols, list) or not all(isinstance(c, str) for c in cols):
            raise DataError(f"{path}: {key!r} must be a list of column names")
    return sidecar["label"], roles["lab_codes"], roles["extra_features"]


# ---------------------------------------------------------------------------
# Base encoding (frozen) and the task head


def dataset_bags(dataset: FinetuneDataset, vocab, ecdfs) -> list:
    """One unmasked bag per sample from its non-missing lab columns."""
    if vocab.mode != MODE_CONTINUOUS:
        raise ConfigError("fine-tuning bags need a continuous vocabulary")
    labs = dataset.lab_values
    present = ~np.isnan(labs)
    no_ecdf = np.array([c not in ecdfs for c in dataset.lab_codes], dtype=bool)
    # Errors in sample order, as a per-sample scan would meet them.
    unmapped = present & no_ecdf
    failing = unmapped.any(axis=1) | ~present.any(axis=1)
    if failing.any():
        i = int(np.argmax(failing))
        if unmapped[i].any():
            raise DataError(f"no eCDF for lab code {dataset.lab_codes[np.argmax(unmapped[i])]!r}")
        raise DataError(f"sample {i} has no usable lab values")
    tokens = np.zeros(len(dataset.lab_codes), dtype=np.int64)
    probs = np.zeros(labs.shape, dtype=np.float64)
    for j, code in enumerate(dataset.lab_codes):
        if present[:, j].any():
            tokens[j] = vocab.token_for_code(code)
            probs[present[:, j], j] = ecdf_apply_many(ecdfs[code], labs[present[:, j], j])
    bags = []
    for i in range(len(dataset)):
        cols = np.flatnonzero(present[i])
        bags.append(LabBag(f"s{i}", 0.0, tokens[cols], probs[i, cols],
                           np.zeros(cols.size, dtype=bool)))
    return bags


def _pool(base: ModelParams, batch) -> np.ndarray:
    """Each bag's mean final embedding over its real positions, in the base's dtype."""
    with untracked():
        h = encode(base, batch, training=False).data
    keep = (~batch.pad_mask)[:, :, None]
    return ((h * keep).sum(axis=1) / batch.lengths[:, None]).astype(h.dtype, copy=False)


def pool_embeddings(base: ModelParams, bags, batch_size: int = 128) -> np.ndarray:
    """Mean over non-pad final embeddings, with the base kept off the tape."""
    return np.concatenate([_pool(base, pad_batch(bags[start : start + batch_size]))
                           for start in range(0, len(bags), batch_size)], axis=0)


@dataclass
class FinetuneHead:
    """A stack of M >= 1 task heads along a leading member axis.

    Tensors are keyed by init_finetune_head's spec names, in spec order:
    weights are (M, fan_in, fan_out) and biases (M, 1, fan_out), so a bias
    broadcasts over each member's batch rows.
    """
    task_kind: str
    by_name: dict = field(repr=False)

    @property
    def members(self) -> int:
        return self.by_name["dense_w"].shape[0]

    def named_tensors(self):
        return list(self.by_name.items())

    def tensors(self):
        return list(self.by_name.values())


def init_finetune_head(rngs, d_model, n_extra, task_kind, n_classes=2,
                       dtype=np.float32) -> FinetuneHead:
    """A fresh stack with one member per generator in `rngs`.

    Member m draws from rngs[m] alone, so it holds what a one-member stack
    drawn from that generator holds. Like init_params, values are drawn in
    float64 and cast to `dtype`.
    """
    if task_kind not in _TASKS:
        raise ConfigError(f"unknown task kind {task_kind!r}")
    out_dim = n_classes if task_kind == TASK_MULTICLASS else 1

    spec = []
    width = d_model
    if n_extra > 0:
        spec += [("extra_w", (n_extra, n_extra), "glorot"), ("extra_b", (1, n_extra), "zeros")]
        width += n_extra
    spec += [("dense_w", (width, width), "glorot"), ("dense_b", (1, width), "zeros"),
             ("out_w", (width, out_dim), "glorot"), ("out_b", (1, out_dim), "zeros")]
    members = [init_tensors(rng, spec, dtype) for rng in rngs]
    return FinetuneHead(task_kind, {
        name: TapeTensor(np.stack([m[name].data for m in members]), trainable=True, name=name)
        for name, _, _ in spec})


def _per_member(a, members) -> np.ndarray:
    """[b, width] inputs that every member shares as a read-only [M, b, width] view."""
    a = np.asarray(a)
    return a if a.ndim == 3 else np.broadcast_to(a, (members, *a.shape))


def _member_dropout(z, rates, rngs, training) -> TapeTensor:
    """`tape.dropout` on each member of a [M, b, width] activation.

    Member m draws its mask from rngs[m]; a member with rate 0 draws nothing
    and keeps every unit, as `tape.dropout` does. A single rate applies to
    every member.
    """
    rates = np.broadcast_to(np.asarray(rates, dtype=float), z.shape[:1])
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or not any(rates):
        return z
    draws = np.zeros(z.shape)       # a member left at 0 keeps every unit
    for m, (rate, rng) in enumerate(zip(rates, rngs)):
        if rate > 0.0:
            rng.random(out=draws[m])
    rates = rates[:, None, None]
    dtype = z.data.dtype
    return tape.mul(z, (draws >= rates).astype(dtype) / (1.0 - rates).astype(dtype))


def head_logits(head: FinetuneHead, pooled, extras=None, training=False,
                rng=None, dropout=0.0) -> TapeTensor:
    """[M, b] logits ([M, b, C] for multiclass) from numpy inputs.

    Inputs are [b, width], shared by every member, or [M, b, width], one
    batch per member. They stay constants, so they take the head's dtype and
    get no gradient. Training dropout takes one generator per member in `rng`
    and one rate per member, or one rate for all.
    """
    p = head.by_name
    x = _per_member(pooled, head.members)
    if "extra_w" in p:
        width = p["extra_w"].shape[-2]
        if extras is None or np.asarray(extras).shape[-1] != width:
            raise ConfigError(f"head expects extra features of width {width}")
        e = tape.relu(tape.matmul(_per_member(extras, head.members), p["extra_w"])
                      + p["extra_b"])
        x = tape.concat([x, e], axis=-1)
    z = tape.relu(tape.matmul(x, p["dense_w"]) + p["dense_b"])
    z = _member_dropout(z, dropout, rng, training)
    logits = tape.matmul(z, p["out_w"]) + p["out_b"]
    if head.task_kind != TASK_MULTICLASS:
        logits = tape.reshape(logits, logits.shape[:-1])
    return logits


def finetune_forward(base: ModelParams, batch, extras, head: FinetuneHead,
                     training=False, rng=None, dropout=0.0) -> TapeTensor:
    """Frozen base encode, pool, head, task activation: [M, b] or [M, b, C]."""
    logits = head_logits(head, _pool(base, batch), extras, training, rng, dropout)
    if head.task_kind == TASK_BINARY:
        return tape.sigmoid(logits)
    if head.task_kind == TASK_MULTICLASS:
        return tape.softmax(logits, axis=-1)
    return logits


def _member_losses(head: FinetuneHead, logits, labels) -> TapeTensor:
    """Each member's mean loss, shape (M,), for [b] shared or [M, b] labels."""
    labels = np.asarray(labels, dtype=float)
    if head.task_kind == TASK_BINARY:
        # -[y log p + (1-y) log(1-p)] = softplus(z) - y z
        return tape.tmean(tape.softplus(logits) - tape.mul(logits, labels), axis=-1)
    if head.task_kind == TASK_MULTICLASS:
        logp = tape.log_softmax(logits, axis=-1)
        ids = np.broadcast_to(labels.astype(np.int64), logp.shape[:-1])
        return tape.neg(tape.tmean(tape.take_along_last(logp, ids), axis=-1))
    diff = logits - labels
    return tape.tmean(tape.mul(diff, diff), axis=-1)


def head_loss(head: FinetuneHead, logits, labels) -> TapeTensor:
    """The sum of the members' mean losses.

    Each member's loss is a mean CE (from logits) for classification and a
    mean squared error for regression. Summing gives each member exactly the
    gradient it would get alone.
    """
    return tape.tsum(_member_losses(head, logits, labels))


def train_head(head: FinetuneHead, pooled, extras, labels, *, epochs, batch_size,
               learning_rate, dropout, seed) -> np.ndarray:
    """Adam over minibatches; returns each member's final-epoch mean training loss.

    `learning_rate`, `dropout` and `seed` are sequences with one entry per
    member. Every member shares the training rows but draws its own epoch
    orders and dropout masks from its own generator, so it ends bit-identical
    to a one-member stack trained alone.
    """
    n = len(labels)
    if batch_size > n:
        raise ConfigError(f"batch_size {batch_size} exceeds {n} training samples")
    members = head.members
    if not len(learning_rate) == len(dropout) == len(seed) == members:
        raise ConfigError(f"a stack of {members} heads needs {members} learning rates, "
                          "dropout rates and seeds")
    rngs = [np.random.default_rng(s) for s in seed]
    tensors = head.tensors()
    dtype = head.by_name["dense_w"].data.dtype
    adam = AdamState(tensors, np.asarray(learning_rate, dtype=dtype).reshape(-1, 1, 1))
    pooled = np.asarray(pooled, dtype=dtype)
    extras = None if extras is None else np.asarray(extras, dtype=dtype)
    labels = np.asarray(labels)
    last = np.full(members, np.nan)
    for _ in range(epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        losses = []
        for start in range(0, n, batch_size):
            idx = orders[:, start : start + batch_size]
            zero_param_grads(tensors)
            with Tape():
                logits = head_logits(head, pooled[idx],
                                     None if extras is None else extras[idx],
                                     training=True, rng=rngs, dropout=dropout)
                member = _member_losses(head, logits, labels[idx])
                backward(tape.tsum(member))
            adam_step(adam)
            losses.append(member.data)
        # one mean per member over its own list, the order a lone head sums in
        last = np.array([np.mean(col) for col in zip(*losses)])
    return last


def eval_head(head: FinetuneHead, pooled, extras, labels) -> np.ndarray:
    """Each member's mean loss on shared inputs, shape (M,), from one untracked forward."""
    with untracked():
        return _member_losses(head, head_logits(head, pooled, extras), labels).data


# ---------------------------------------------------------------------------
# Grid search


def _check_labels(labels, task_kind, n_classes=None) -> None:
    """Raise DataError at the first label the task cannot train on.

    Every label must be finite; binary labels must be 0 or 1; multiclass
    labels must be integers in [0, n_classes), or >= 0 when n_classes is None.
    """
    labels = np.asarray(labels, dtype=float)
    bad = ~np.isfinite(labels)
    if task_kind == TASK_BINARY:
        bad |= (labels != 0.0) & (labels != 1.0)
        want = "binary labels must be 0 or 1"
    elif task_kind == TASK_MULTICLASS:
        bad |= (labels != np.floor(labels)) | (labels < 0)
        if n_classes is None:
            want = "multiclass labels must be integers >= 0"
        else:
            bad |= labels >= n_classes
            want = f"multiclass labels must be integers in [0, {n_classes})"
    else:
        want = "regression labels must be finite"
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"row {i} has label {labels[i]}: {want}")


def make_folds(n: int, k: int, rng) -> np.ndarray:
    """Balanced fold ids in {0..k-1}; sizes differ by at most one."""
    if not 2 <= k <= n:
        raise ConfigError(f"need 2 <= k <= n, got k={k}, n={n}")
    fold = np.empty(n, dtype=np.int64)
    fold[rng.permutation(n)] = np.arange(n) % k
    return fold


@dataclass
class GridSearchResult:
    rows: list          # one dict per grid cell, with per-replicate metrics
    best: dict
    metric: str
    k_folds: int
    replicates: int
    seed: int


def _fit_unit(pooled, extras, labels, cfg, cells, unit) -> list:
    """Train one grid unit's stack on its fold's training rows; score it on the rest.

    `unit` is (replicate seed, fold ids, held-out fold, the stack's cell
    indices into `cells`). Returns each member's held-out loss as a Python
    float, so fold means sum in float64. Pool workers run this, so it stays
    private and module-level: it pickles by name.
    """
    rep_seed, fold, f, members = unit
    train, test = fold != f, fold == f
    epochs, batch_size = cells[members[0]][:2]
    head = init_finetune_head(
        [np.random.default_rng((rep_seed * 1009 + ci) * 31 + f) for ci in members],
        pooled.shape[1], 0 if extras is None else extras.shape[1],
        cfg.task_kind, cfg.n_classes, pooled.dtype)
    train_head(head, pooled[train], None if extras is None else extras[train],
               labels[train], epochs=epochs, batch_size=batch_size,
               learning_rate=[cells[ci][2] for ci in members],
               dropout=[cells[ci][3] for ci in members],
               seed=[(rep_seed * 7919 + ci) * 31 + f for ci in members])
    return eval_head(head, pooled[test], None if extras is None else extras[test],
                     labels[test]).tolist()


def grid_search_finetune(base: ModelParams, dataset: FinetuneDataset, vocab, ecdfs,
                         cfg: FinetuneConfig, k_folds: int = 5, replicates: int = 5,
                         seed: int = 0) -> GridSearchResult:
    """Exhaustive grid, k-fold CV per cell, replicated over reseeded runs.

    The base model is encoded once up front (it is frozen, so its pooled
    embeddings never change); every grid cell trains only a head. Replicates
    vary the seed alone, which redraws fold assignments and head inits.
    Within a replicate and a fold, the learning-rate x dropout cells that
    share epochs and a batch size train as one stack of heads, and one
    forward scores the whole stack on the held-out rows. Each cell's member
    keeps its own init and training seed, so every row matches training and
    scoring that cell as a one-member stack. The (replicate, fold, stack)
    units share nothing but the pooled embeddings, so they run on the usable
    CPUs (`parallel.map_on_cpus`), and the rows are the same bits for any CPU
    count at a fixed BLAS thread count. The winner has the lowest mean held-out metric; ties
    prefer fewer epochs, then a smaller learning rate.
    """
    labels = dataset.labels
    _check_labels(labels, cfg.task_kind, cfg.n_classes)
    n = len(dataset)
    min_train = n - (n + k_folds - 1) // k_folds
    too_big = [b for b in cfg.batch_grid if b > min_train]
    if too_big:
        raise ConfigError(f"batch sizes {too_big} exceed the smallest training fold "
                          f"({min_train} samples)")

    bags = dataset_bags(dataset, vocab, ecdfs)
    pooled = pool_embeddings(base, bags)
    extras = dataset.extras if dataset.extras.shape[1] else None

    cells = list(itertools.product(cfg.epochs_grid, cfg.batch_grid,
                                   cfg.lr_grid, cfg.dropout_grid))
    stacks = {}     # (epochs, batch size) -> the cells that train as one stack
    for ci, (epochs, batch_size, _, _) in enumerate(cells):
        stacks.setdefault((epochs, batch_size), []).append(ci)
    units = []
    for rep in range(replicates):
        fold = make_folds(n, k_folds, np.random.default_rng(seed + rep))
        units += [(seed + rep, fold, f, members)
                  for f in range(k_folds) for members in stacks.values()]
    losses = parallel.map_on_cpus(
        functools.partial(_fit_unit, pooled, extras, labels, cfg, cells), units)

    held_out = [[] for _ in cells]      # per cell: replicate-major, then fold
    for (*_, members), unit_losses in zip(units, losses):
        for ci, loss in zip(members, unit_losses):
            held_out[ci].append(loss)
    rows = []
    for (epochs, batch_size, lr, dropout), metrics in zip(cells, held_out):
        reps = [float(np.mean(metrics[start : start + k_folds]))
                for start in range(0, len(metrics), k_folds)]
        rows.append({"epochs": epochs, "batch_size": batch_size,
                     "learning_rate": lr, "dropout": dropout,
                     "replicate_metrics": reps, "mean": float(np.mean(reps)),
                     "min": float(np.min(reps)), "max": float(np.max(reps))})
    best = min(rows, key=lambda r: (r["mean"], r["epochs"], r["learning_rate"]))
    metric = "mse" if cfg.task_kind == TASK_REGRESSION else "ce"
    return GridSearchResult(rows, best, metric, k_folds, replicates, seed)


# ---------------------------------------------------------------------------
# Linear baselines


def _normalize(train_x, test_x):
    """Standardize by training statistics; constant columns become zeros.

    NaNs (missing labs) are filled with the training mean, i.e. zero after
    standardizing.
    """
    mu = np.nanmean(train_x, axis=0)
    mu = np.where(np.isnan(mu), 0.0, mu)
    sd = np.nanstd(train_x, axis=0)
    sd = np.where((sd == 0) | np.isnan(sd), 1.0, sd)

    def apply(x):
        z = (x - mu) / sd
        return np.where(np.isnan(z), 0.0, z)

    return apply(train_x), apply(test_x), mu, sd


def _logistic_newton(x, y, c, max_iter=100, tol=1e-10):
    """Binary logistic fit: mean CE plus (c/2)·||w||², intercept unpenalized."""
    n, d = x.shape
    xb = np.concatenate([np.ones((n, 1)), x], axis=1)
    beta = np.zeros(d + 1)
    ridge = np.full(d + 1, c)
    ridge[0] = 0.0
    for _ in range(max_iter):
        z = xb @ beta
        with np.errstate(over="ignore"):
            p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        grad = xb.T @ (p - y) / n + ridge * beta
        if np.max(np.abs(grad)) < tol:
            break
        w = p * (1.0 - p)
        hess = (xb * w[:, None]).T @ xb / n + np.diag(ridge)
        beta = beta - np.linalg.solve(hess, grad)
    return beta


def _logistic_ce(x, y, beta):
    xb = np.concatenate([np.ones((len(x), 1)), x], axis=1)
    z = xb @ beta
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _softmax_regression(x, y, c, n_classes, steps=400, lr=0.3):
    """Multiclass logistic via full-batch Adam on the tape."""
    n, d = x.shape
    w = TapeTensor(np.zeros((d, n_classes)), trainable=True)
    b = TapeTensor(np.zeros(n_classes), trainable=True)
    adam = AdamState([w, b], lr)
    y_idx = y.astype(np.int64)
    for _ in range(steps):
        zero_param_grads([w, b])
        with Tape():
            logp = tape.log_softmax(tape.matmul(x, w) + b, axis=-1)
            ce = tape.neg(tape.tmean(tape.take_along_last(logp, y_idx)))
            penalty = tape.mul(tape.tsum(tape.mul(w, w)), c / 2.0)
            backward(ce + penalty)
        adam_step(adam)
    return w.data, b.data


def _multiclass_ce(x, y, w, b):
    z = x @ w + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(y)), y.astype(np.int64)]))


@dataclass
class LinearBaselineResult:
    task_kind: str
    cv_metric: float
    best_c: float | None
    per_c: list
    coef: np.ndarray
    intercept: np.ndarray | float


def fit_linear_baseline(dataset: FinetuneDataset, task_kind: str,
                        l2_grid=DEFAULT_L2_GRID, k_folds: int = 5,
                        seed: int = 0) -> LinearBaselineResult:
    """Cross-validated linear baseline on raw tabular features.

    Classification tunes the L2 penalty over `l2_grid`; regression is plain
    least squares (no penalty). Features are standardized with the training
    statistics of each fold. The returned model is refit on all data at the
    winning penalty, with coefficients mapped back to raw feature scale.
    """
    if task_kind not in _TASKS:
        raise ConfigError(f"unknown task kind {task_kind!r}")
    y = dataset.labels
    _check_labels(y, task_kind)
    x_all = np.concatenate([dataset.lab_values, dataset.extras], axis=1)
    n = len(y)
    fold = make_folds(n, k_folds, np.random.default_rng(seed))
    n_classes = int(y.max()) + 1 if task_kind == TASK_MULTICLASS else 2

    def cv_for(c):
        scores = []
        for f in range(k_folds):
            tr, te = fold != f, fold == f
            xt, xe, _, _ = _normalize(x_all[tr], x_all[te])
            if task_kind == TASK_BINARY:
                beta = _logistic_newton(xt, y[tr], c)
                scores.append(_logistic_ce(xe, y[te], beta))
            elif task_kind == TASK_MULTICLASS:
                w, b = _softmax_regression(xt, y[tr], c, n_classes)
                scores.append(_multiclass_ce(xe, y[te], w, b))
            else:
                beta, *_ = np.linalg.lstsq(
                    np.concatenate([np.ones((tr.sum(), 1)), xt], axis=1), y[tr],
                    rcond=None)
                pred = np.concatenate([np.ones((te.sum(), 1)), xe], axis=1) @ beta
                scores.append(float(np.mean((pred - y[te]) ** 2)))
        return float(np.mean(scores))

    if task_kind == TASK_REGRESSION:
        per_c = [{"c": None, "metric": cv_for(None)}]
        best_c = None
    else:
        per_c = [{"c": c, "metric": cv_for(c)} for c in l2_grid]
        best = min(per_c, key=lambda e: e["metric"])
        best_c = best["c"]

    xn, _, mu, sd = _normalize(x_all, x_all)
    if task_kind == TASK_BINARY:
        beta = _logistic_newton(xn, y, best_c)
        coef = beta[1:] / sd
        intercept = float(beta[0] - np.sum(beta[1:] * mu / sd))
    elif task_kind == TASK_MULTICLASS:
        w, b = _softmax_regression(xn, y, best_c, n_classes)
        coef = w / sd[:, None]
        intercept = b - (mu / sd) @ w
    else:
        design = np.concatenate([np.ones((n, 1)), xn], axis=1)
        rank = np.linalg.matrix_rank(design)
        if rank < design.shape[1]:
            warnings.warn("singular design matrix; returning the least-norm solution")
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        coef = beta[1:] / sd
        intercept = float(beta[0] - np.sum(beta[1:] * mu / sd))

    cv_metric = min(e["metric"] for e in per_c)
    return LinearBaselineResult(task_kind, cv_metric, best_c, per_c, coef, intercept)


def mean_min_max(values) -> tuple:
    vals = np.asarray(list(values), dtype=float)
    return float(vals.mean()), float(vals.min()), float(vals.max())
