"""Pre-training loop, losses, and intrinsic imputation evaluation.

The continuous model trains on the sum of a cross-entropy over masked code
identities and a mean-squared error over masked values; the decile baseline
trains on cross-entropy alone. Both losses read only masked positions, so
supervision never leaks from unmasked inputs except through the network; the
loop, validation and imputation therefore run the heads on the masked rows
alone (`model.forward_masked`).

A step's randomness is drawn before the step runs, in one process: the
batch's bags, their mask positions and the dropout keep masks
(`model.dropout_keep`). The forwards draw nothing. Every batch, whether for
training, validation or imputation, is masked one way: `_masked_batch`
writes drawn positions into the padded arrays. `pretrain` runs each step as
`BLOCKS` fixed row blocks of its batch, whose loss sums over the whole
batch's counts add up to the batch loss. With two usable CPUs the second
block runs in a worker forked for the call; the bits do not depend on the
CPU count, since the blocks are fixed.

Imputation evaluation masks one valued position per test bag, predicts it,
and reports Pearson correlations globally and per code. Decile predictions
are decoded either as a probability-weighted average of decile lower bounds
or as the argmax decile's lower bound.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tape
from .corpus import Batch, pad_batch, unmask_bag
from .ecdf import MODE_CONTINUOUS, MODE_DECILE, Vocab
from .errors import ConfigError, ContractError, DecodeError, NumericError, VocabError
from .model import (ModelParams, check_bag_tokens, dropout_keep, dropout_shape, forward_masked,
                    init_params, save_checkpoint)
from .optim import (AdamState, adam_spans, adam_step, gather_grads, share_buffers,
                    zero_param_grads)
from .parallel import Worker, shared_array
from .tape import Tape, TapeTensor, backward, untracked

DECODE_CONTINUOUS = "continuous"
DECODE_WEIGHTED = "weighted-quantile"
DECODE_ARGMAX = "argmax"

METRICS_HEADER = ("step", "split", "ce", "mse", "perplexity")


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 256
    learning_rate: float = 1e-5
    seed: int = 0
    checkpoint_interval: int = 14000
    mask_count: int = 1
    remask: bool = False     # resample mask positions every time a bag is drawn
    val_batches: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1 or self.mask_count < 1 or self.checkpoint_interval < 1:
            raise ConfigError("batch_size, mask_count, checkpoint_interval must be >= 1")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.val_batches is not None and self.val_batches < 1:
            raise ConfigError(f"val_batches must be >= 1 or None, got {self.val_batches}")


@dataclass
class LossParts:
    total: TapeTensor
    ce: TapeTensor
    mse: TapeTensor


def multitask_loss(code_probs, value_preds, batch: Batch) -> LossParts:
    """CE over masked code identities plus MSE over masked non-null values.

    The outputs are the masked rows, code_probs [m, C] and value_preds [m]
    with row n for mask n, as `forward_masked` returns them; every position's
    outputs ([b, L, C] and [b, L]) are gathered at the masks first. Both terms
    are means over their contributing positions; a batch whose masked truths
    are all null has MSE exactly 0.
    """
    return _multitask_loss(code_probs, value_preds, batch, _loss_counts(batch))


def _multitask_loss(code_probs, value_preds, batch: Batch, counts) -> LossParts:
    """multitask_loss with its sums divided by counts = (masks, live masks).

    With a whole batch's counts, a row block's terms add up to the batch's.
    """
    ce = _masked_ce(code_probs, batch, "multitask_loss", counts[0])
    live = ~batch.truth_nulls
    if live.any():
        preds = _at_masks(value_preds, batch, 1)
        if not live.all():
            preds = tape.embedding_lookup(preds, np.flatnonzero(live))   # a row gather
        diff = preds - batch.truth_values[live]
        mse = _mean_over(tape.mul(diff, diff), counts[1])
    else:
        mse = TapeTensor(np.zeros((), dtype=ce.data.dtype))
    return LossParts(ce + mse, ce, mse)


def decile_mlm_loss(token_probs, batch: Batch) -> TapeTensor:
    """CE over masked token identities in the decile vocabulary.

    token_probs are the masked rows [m, V], or every position's [b, L, V].
    """
    return _masked_ce(token_probs, batch, "decile_mlm_loss", len(batch.mask_rows))


def _loss_counts(batch: Batch) -> tuple:
    """(masked positions, masked positions with a value): the losses' denominators."""
    return len(batch.mask_rows), int((~batch.truth_nulls).sum())


def _mean_over(x, count: int) -> TapeTensor:
    """sum(x) / count, with `tape.tmean`'s ops: the mean when count is x's size."""
    return tape.mul(tape.tsum(x), 1.0 / count)


def _at_masks(out, batch: Batch, row_ndim: int):
    """`out` as one row per mask: masked rows as given, [b, L, ...] gathered."""
    if out.ndim == row_ndim + 1:
        return tape.take_bl(out, batch.mask_rows, batch.mask_cols)
    if out.ndim != row_ndim or out.shape[0] != len(batch.mask_rows):
        raise ContractError(f"outputs of shape {out.shape} are neither one row per mask "
                            f"({len(batch.mask_rows)}) nor the batch's {batch.tokens.shape}")
    return out


def _masked_ce(probs, batch: Batch, loss_name: str, count: int) -> TapeTensor:
    """-sum log p of each masked position's truth token / count; token t is column t - 1."""
    if len(batch.mask_rows) == 0:
        raise ContractError(f"{loss_name} needs at least one masked position")
    width = probs.shape[-1]
    if batch.truth_tokens.min() < 1 or batch.truth_tokens.max() > width:
        raise VocabError(f"masked truth token outside [1, {width}]")
    p_true = tape.take_along_last(_at_masks(probs, batch, 2), batch.truth_tokens - 1)
    return tape.neg(_mean_over(tape.log(p_true), count))


def perplexity(mean_ce: float) -> float:
    return math.exp(mean_ce)


def pearson_r(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ContractError(f"pearson_r needs two equal-length 1-d arrays of >= 2 points, "
                            f"got shapes {xs.shape} and {ys.shape}")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise NumericError("correlation undefined: an input has zero variance")
    return float((dx * dy).sum()) / denom


# ---------------------------------------------------------------------------
# Pre-training


@dataclass
class PretrainResult:
    history: list
    checkpoints: list
    final_checkpoint: str
    metrics_path: str


def _draw_positions(lengths, rng, mask_count) -> np.ndarray:
    """min(mask_count, L) mask positions for each bag of length L, bag after bag.

    With mask_count 1, one `rng.integers(0, lengths)` draws them all: the same
    positions, and the same generator state after, as one
    `rng.choice(L, 1, replace=False)` per bag. Otherwise each bag draws
    `np.sort(rng.choice(L, n, replace=False))`, as `corpus.mask_bag` does.
    """
    if lengths.size and lengths.min() < 1:
        raise ContractError("cannot mask an empty bag")
    if mask_count == 1:
        return rng.integers(0, lengths)
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [np.sort(rng.choice(n, size=min(mask_count, n), replace=False))
                             for n in lengths.tolist()])


def _draw_masks(bags, rng, mask_count) -> tuple:
    """(first, count, cols): where each bag gets masked, drawn in bag order.

    Bag i gets count[i] masks, at cols[first[i] : first[i] + count[i]]. A bag
    that arrives masked keeps its masks and gets none.
    """
    lengths = np.array([len(bag) for bag in bags], dtype=np.int64)
    todo = np.array([not len(bag.mask_positions) for bag in bags], dtype=bool)
    count = np.where(todo, np.minimum(mask_count, lengths), 0)
    return np.cumsum(count) - count, count, _draw_positions(lengths[todo], rng, mask_count)


def _take(masks, idx) -> tuple:
    """(count, cols) of `_draw_masks`'s masks for the bags at idx, in idx order."""
    first, count, cols = masks
    n = count[idx]
    return n, cols[np.repeat(first[idx] - (np.cumsum(n) - n), n) + np.arange(n.sum())]


def _masked_batch(bags, count, cols, mask_token) -> Batch:
    """pad_batch(bags) with count[j] masks written into row j, at its next count[j] cols.

    Each row's cols are sorted and distinct, and a row that gets masks brings
    none of its own, so the batch is `pad_batch` of the bags each masked with
    `corpus.mask_bag` at those positions.
    """
    batch = pad_batch(bags)
    rows = np.repeat(np.arange(len(count)), count)
    if not rows.size:
        return batch
    truths = [a[rows, cols] for a in (batch.tokens, batch.values, batch.null_flags)]
    batch.tokens[rows, cols] = mask_token
    batch.values[rows, cols] = 0.0
    batch.null_flags[rows, cols] = False
    mask_rows = np.concatenate([batch.mask_rows, rows])
    order = np.argsort(mask_rows, kind="stable")
    merged = [np.concatenate([old, new])[order] for old, new in
              zip((batch.mask_cols, batch.truth_tokens, batch.truth_values, batch.truth_nulls),
                  (cols, *truths))]
    return Batch(batch.tokens, batch.values, batch.null_flags, batch.pad_mask, batch.lengths,
                 mask_rows[order], *merged)


def _forward_and_loss(params, batch, keep, counts=None):
    """The loss parts of a batch, or of a row block given its batch's `counts`."""
    probs, preds = forward_masked(params, batch, keep)
    counts = _loss_counts(batch) if counts is None else counts
    if params.config.mode == MODE_CONTINUOUS:
        return _multitask_loss(probs, preds, batch, counts)
    ce = _masked_ce(probs, batch, "decile_mlm_loss", counts[0])
    return LossParts(ce, ce, TapeTensor(np.full((), np.nan, dtype=ce.data.dtype)))


def _validate(params, batches, worker=None):
    """Mean CE/MSE over all masked positions of the validation batches.

    With a forked `worker`, which holds the same batches, it scores every
    other batch; the sums still run in batch order, so the result is the same
    bits.
    """
    if worker is not None and worker.forked:
        worker.submit(("validate", slice(1, None, 2)))
        terms = [None] * len(batches)
        terms[0::2] = _val_terms(params, batches[0::2])
        terms[1::2] = worker.result()
    else:
        terms = _val_terms(params, batches)
    ce_sum = mse_sum = 0.0
    n_ce = n_mse = 0
    for ce, k, mse, live in terms:
        ce_sum += ce * k
        n_ce += k
        if params.config.mode == MODE_CONTINUOUS and live:
            mse_sum += mse * live
            n_mse += live
    ce = ce_sum / max(n_ce, 1)
    mse = mse_sum / n_mse if n_mse else float("nan")
    return ce, mse


def _val_terms(params, batches) -> list:
    """(ce, masks, mse, live masks) of each validation batch."""
    terms = []
    with untracked():
        for batch in batches:
            parts = _forward_and_loss(params, batch, None)
            n_ce, n_mse = _loss_counts(batch)
            terms.append((parts.ce.item(), n_ce, parts.mse.item(), n_mse))
    return terms


def _append_metrics(path, rows):
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(METRICS_HEADER)
        for step, split, ce, mse, ppl in rows:
            writer.writerow([step, split, repr(float(ce)), repr(float(mse)), repr(float(ppl))])


def _first_nonfinite_grad(named):
    """Name of the first tensor whose gradient holds a NaN or an infinity, else None.

    One sum per tensor; a tensor whose sum is not finite is then scanned
    element by element, since large finite float32 values can overflow a sum.
    `pretrain` runs this scan only when the sum of all gradients is not finite.
    """
    with np.errstate(over="ignore"):
        for name, t in named:
            g = t.grad
            if g is not None and not math.isfinite(g.sum()) and not np.isfinite(g).all():
                return name
    return None


def _abort_step(why, step, batch, out_dir):
    """Dump the step's batch next to the log and raise NumericError."""
    dump = os.path.join(out_dir, f"diagnostic-step{step}.npz")
    np.savez(dump, tokens=batch.tokens, values=batch.values,
             null_flags=batch.null_flags, pad_mask=batch.pad_mask,
             mask_rows=batch.mask_rows, mask_cols=batch.mask_cols,
             truth_tokens=batch.truth_tokens, truth_values=batch.truth_values)
    raise NumericError(f"{why} at step {step}; batch dumped to {dump}")


# Row blocks per pre-training step. A constant, not the CPU count: the
# blocks fix the bits, so a run writes the same bytes on any number of CPUs.
# `pretrain` runs block 0 itself and the other block in one forked worker.
BLOCKS = 2


def _row_blocks(batch_size: int) -> list:
    """(first, stop) rows of each of a step's BLOCKS blocks, at most one per row."""
    k = min(BLOCKS, batch_size)
    bounds = [batch_size * j // k for j in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _block(batch: Batch, first: int, stop: int) -> Batch:
    """Rows first..stop-1 of a batch, at the batch's padded length, with their masks."""
    a, z = np.searchsorted(batch.mask_rows, (first, stop))
    rows = slice(first, stop)
    return Batch(batch.tokens[rows], batch.values[rows], batch.null_flags[rows],
                 batch.pad_mask[rows], batch.lengths[rows], batch.mask_rows[a:z] - first,
                 batch.mask_cols[a:z], batch.truth_tokens[a:z], batch.truth_values[a:z],
                 batch.truth_nulls[a:z])


def _block_grads(params, adam, block, rows, keep, counts, out):
    """Forward and backward of one row block, its gradients gathered into `out`.

    The block reads its `rows` of the step's keep masks (None: no dropout).
    Returns (ce, mse, total, ungraded): the block's loss parts in the model's
    dtype, its total loss as a float, and the indices of the parameters it
    gave no gradient. A block whose loss is not finite skips its backward.
    """
    zero_param_grads(adam.params)
    with Tape():
        parts = _forward_and_loss(params, block, None if keep is None else keep[:, slice(*rows)],
                                  counts)
        total = parts.total.item()
        if math.isfinite(total):
            backward(parts.total)
    gather_grads(adam, out)
    return (parts.ce.data, parts.mse.data, total,
            [i for i, p in enumerate(adam.params) if p.grad is None])


def _add_in_order(bufs) -> np.ndarray:
    """bufs[0] + bufs[1] + ..., left to right, into bufs[0]; the order fixes the bits."""
    for buf in bufs[1:]:
        bufs[0] += buf
    return bufs[0]


class _Blocks:
    """A step's row blocks and the buffers they share with the worker.

    Block 0 runs in this process and the later blocks in `worker`, which is
    forked or runs them here afterwards. The gradient buffers and the two
    keep-mask arenas are shared memory, mapped before the fork; `serve` is
    the worker's side. Steps alternate arenas, so the next step's masks can
    be drawn while the worker still reads this step's. The worker scores
    validation batches from `val_batches`, built before the fork.
    """

    def __init__(self, params, adam, config: TrainConfig, longest: int, val_batches):
        cfg = params.config
        self.params, self.adam, self.val_batches = params, adam, val_batches
        self.rows = _row_blocks(config.batch_size)
        size = sum(p.size for p in adam.params)
        self.grads = [shared_array(size, params.dtype) for _ in self.rows]
        most = (math.prod(dropout_shape(cfg, (config.batch_size, longest)))
                if cfg.dropout_rate > 0.0 else 0)
        self.arenas = [shared_array(most, bool) for _ in range(2)]
        self.spans = adam_spans(adam, 2)
        self.worker = None
        self._turn = 0
        self._adam_out = False

    def draw(self, rng, batch: Batch) -> tuple:
        """(batch, arena): the batch's dropout keep masks, drawn from rng into
        the arena the last step did not use.
        """
        self._turn ^= 1
        dropout_keep(self.params.config, rng, batch.tokens.shape,
                     out=self._keep(self._turn, batch.tokens.shape))
        return batch, self._turn

    def _keep(self, arena: int, batch_shape):
        """A step's keep masks in `arena`, for a batch of (rows, length); None without dropout."""
        if not self.arenas[arena].size:
            return None
        shape = dropout_shape(self.params.config, batch_shape)
        return self.arenas[arena][: math.prod(shape)].reshape(shape)

    def serve(self, request):
        """The worker's side: a step's later blocks, its half of Adam, or validation batches."""
        kind, *args = request
        if kind == "grads":
            blocks, arena, batch_shape, counts = args
            keep = self._keep(arena, batch_shape)
            return [_block_grads(self.params, self.adam, block, self.rows[k], keep, counts,
                                 self.grads[k]) for k, block in enumerate(blocks, start=1)]
        if kind == "adam":
            return adam_step(self.adam, self.grads[0], args[0], self.spans[1])
        return _val_terms(self.params, self.val_batches[args[0]])

    def gradients(self, step: tuple, meanwhile=None) -> tuple:
        """(each block's `_block_grads` result in block order, `meanwhile()`).

        `step` is `draw`'s (batch, arena). `meanwhile` runs after block 0,
        while the worker may still run the rest.
        """
        self.settle()
        batch, arena = step
        counts = _loss_counts(batch)
        blocks = [_block(batch, *rows) for rows in self.rows]
        if len(blocks) > 1:
            self.worker.submit(("grads", blocks[1:], arena, batch.tokens.shape, counts))
        results = [_block_grads(self.params, self.adam, blocks[0], self.rows[0],
                                self._keep(arena, batch.tokens.shape), counts, self.grads[0])]
        extra = meanwhile() if meanwhile is not None else None
        if len(blocks) > 1:
            results += self.worker.result()
        return results, extra

    def update(self, grads, skip) -> None:
        """One Adam step; a forked worker steps its half of the parameters.

        The worker's half runs while this process steps its own and logs the
        step; `settle` waits for it before anything reads the parameters.
        """
        if self.worker.forked:
            self.worker.submit(("adam", skip))
            adam_step(self.adam, grads, skip, self.spans[0])
            self._adam_out = True
        else:
            adam_step(self.adam, grads, skip)

    def settle(self) -> None:
        if self._adam_out:
            self._adam_out = False
            self.worker.result()


def pretrain(params: ModelParams, train_bags, val_bags, config: TrainConfig,
             out_dir) -> PretrainResult:
    """Adam pre-training with per-step train rows and periodic validation.

    Everything is driven by config.seed: batch sampling, masking, dropout.
    The run trains in the dtype of `params`, at its `config.dropout_rate`.
    A rerun with the same inputs, dtype, numpy and BLAS builds and BLAS
    thread count writes byte-identical logs and checkpoints, on any number
    of CPUs. Every token of the train and validation bags is checked before
    the first step (`model.check_bag_tokens`). A non-finite loss or gradient
    aborts before the Adam step, with the offending batch dumped next to the
    log. However the loop ends, every logged row reaches `metrics.csv`.

    This process draws each step's batch, mask positions and dropout keep
    masks, then splits the batch into `BLOCKS` fixed row blocks. Each
    block's CE and MSE are its sums divided by the whole batch's counts, so
    their gradients add up, in block order, to the batch loss's. With two
    usable CPUs a worker forked inside the call runs block 1 while this
    process runs block 0; the parameters, the Adam moments and each block's
    flat gradient live in shared memory, and each process then steps Adam
    over its half of the parameters. Otherwise block 1 runs here after block
    0, with the same bits. The worker also scores every other validation
    batch; those are built once, before the fork. It is joined before the
    call returns or raises, and the parameters end in private memory again.
    """
    if not train_bags:
        raise ContractError("pretrain needs a nonempty training set")
    if not val_bags:
        raise ContractError("pretrain needs a nonempty validation set")
    check_bag_tokens(params.config, train_bags, "training")
    check_bag_tokens(params.config, val_bags, "validation")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)

    rng = np.random.default_rng(config.seed)
    mask_token = params.config.mask_token
    train_masks = _draw_masks(train_bags, rng, config.mask_count)
    val_masks = _draw_masks(val_bags, rng, config.mask_count)
    if config.remask:   # the train masks above go unused; drawing them keeps the stream
        train_bags = [unmask_bag(bag) if len(bag.mask_positions) else bag for bag in train_bags]
        train_lengths = np.array([len(bag) for bag in train_bags], dtype=np.int64)
    # Validation reads the same leading bags every time: batch them once.
    n_val = len(val_bags)
    if config.val_batches is not None:
        n_val = min(n_val, config.val_batches * config.batch_size)
    val_batches = []
    for start in range(0, n_val, config.batch_size):
        idx = np.arange(start, min(start + config.batch_size, n_val))
        val_batches.append(_masked_batch([val_bags[i] for i in idx], *_take(val_masks, idx),
                                         mask_token))

    trainables = params.tensors()
    adam = AdamState(trainables, config.learning_rate)
    share_buffers(adam)
    blocks = _Blocks(params, adam, config, max(bag.tokens.size for bag in train_bags),
                     val_batches)
    offsets = np.cumsum([p.size for p in trainables])[:-1]

    history = []
    checkpoints = []
    pending = []    # train rows not yet in metrics.csv

    def run_validation(step):
        blocks.settle()
        ce, mse = _validate(params, val_batches, blocks.worker)
        row = (step, "val", ce, mse, perplexity(ce))
        history.append(row)
        _append_metrics(metrics_path, [row])

    def draw_next():
        idx = rng.integers(0, len(train_bags), size=config.batch_size)
        if config.remask:
            lengths = train_lengths[idx]
            masks = (np.minimum(config.mask_count, lengths),
                     _draw_positions(lengths, rng, config.mask_count))
        else:
            masks = _take(train_masks, idx)
        return blocks.draw(rng, _masked_batch([train_bags[i] for i in idx], *masks, mask_token))

    try:
        with Worker(blocks.serve) as blocks.worker:
            run_validation(0)
            drawn = draw_next()
            for step in range(1, config.steps + 1):
                # The next step's draws follow this step's in rng, as in a
                # serial loop; they run while the worker finishes its block.
                batch = drawn[0]
                results, drawn = blocks.gradients(
                    drawn, draw_next if step < config.steps else None)
                total = sum(r[2] for r in results)
                if not math.isfinite(total):
                    _abort_step(f"non-finite loss {total}", step, batch, out_dir)
                grads = _add_in_order(blocks.grads)
                with np.errstate(over="ignore"):
                    finite = math.isfinite(grads.sum())
                if not finite:
                    # name the tensor from the summed gradient, not one block's
                    for p, g in zip(trainables, np.split(grads, offsets)):
                        p.grad = g.reshape(p.shape)
                    bad = _first_nonfinite_grad(params.named_tensors())
                    if bad is not None:
                        _abort_step(f"non-finite gradient in {bad!r}", step, batch, out_dir)
                blocks.update(grads, sorted(set.intersection(*(set(r[3]) for r in results))))

                ce, mse = results[0][:2]
                for r in results[1:]:
                    ce, mse = ce + r[0], mse + r[1]
                row = (step, "train", float(ce), float(mse), perplexity(float(ce)))
                history.append(row)
                pending.append(row)
                if len(pending) >= 200:
                    _append_metrics(metrics_path, pending)
                    pending = []

                if step % config.checkpoint_interval == 0 or step == config.steps:
                    _append_metrics(metrics_path, pending)
                    pending = []
                    run_validation(step)
                    if step % config.checkpoint_interval == 0:
                        path = os.path.join(ckpt_dir, f"step-{step:08d}.ckpt")
                        save_checkpoint(path, params)
                        checkpoints.append(path)
    finally:
        if pending:
            _append_metrics(metrics_path, pending)
        for p in trainables:
            p.data = p.data.copy()

    final_path = os.path.join(ckpt_dir, "final.ckpt")
    save_checkpoint(final_path, params)
    return PretrainResult(history, checkpoints, final_path, metrics_path)


# ---------------------------------------------------------------------------
# Decoding and imputation evaluation


def weighted_quantile_decode(probs_row, code, vocab: Vocab) -> float:
    """Probability-weighted average of the code's decile lower bounds."""
    start, _ = vocab.decile_block(code)
    w = np.asarray(probs_row, dtype=float)[start - 1 : start - 1 + 10]
    total = w.sum()
    if total <= 0.0:
        raise DecodeError(f"no probability mass on the deciles of code {code}")
    w = w / total
    return float(np.dot(w, np.arange(10) / 10.0))


def argmax_decode(probs_row, code, vocab: Vocab) -> float:
    """Lower bound of the most probable decile; ties pick the lowest decile."""
    start, _ = vocab.decile_block(code)
    w = np.asarray(probs_row, dtype=float)[start - 1 : start - 1 + 10]
    if w.sum() <= 0.0:
        raise DecodeError(f"no probability mass on the deciles of code {code}")
    return float(np.argmax(w)) / 10.0


def _imputation_targets(bags, vocab: Vocab, seed: int) -> list:
    """(bag, position) for each bag with a valued position: the bag unmasked, the one to mask.

    A decile bag's candidates are its decile tokens; binary tokens decode to
    no value. One `rng.integers` call draws every position: the same ones, and
    the same generator state after, as one `rng.choice(candidates)` per bag.
    """
    bags = [unmask_bag(bag) if len(bag.mask_positions) else bag for bag in bags]
    numeric = _numeric_tokens(vocab, bags) if vocab.mode == MODE_DECILE else None
    kept, candidates = [], []
    for bag in bags:
        live = ~bag.null_flags
        if numeric is not None:
            live &= numeric[bag.tokens]
        if live.any():
            kept.append(bag)
            candidates.append(np.flatnonzero(live))
    if not kept:
        raise ContractError("no bag has a non-null value to impute")
    draws = np.random.default_rng(seed).integers(0, [len(c) for c in candidates])
    return [(bag, c[d]) for bag, c, d in zip(kept, candidates, draws)]


def _numeric_tokens(vocab: Vocab, bags) -> np.ndarray:
    """Lookup by decile token id: does the token's code decode to a value?

    A token of the bags that maps to no code raises VocabError.
    """
    tokens = np.unique(np.concatenate([bag.tokens for bag in bags]))
    numeric = np.zeros(max(int(tokens.max()), vocab.vocab_size) + 1, dtype=bool)
    numeric[tokens] = [vocab.is_numeric(vocab.code_for_token(t)) for t in tokens]
    return numeric


@dataclass
class ImputationReport:
    r: float
    r2: float
    mse: float
    n: int
    per_code: list
    decode: str
    ablation: bool

    def to_json(self) -> dict:
        return {"r": self.r, "r2": self.r2, "mse": self.mse, "n": self.n,
                "decode": self.decode, "ablation": self.ablation,
                "per_code": self.per_code}


def evaluate_imputation(params: ModelParams, bags, vocab: Vocab, decode: str,
                        seed: int = 0, ablation: bool = False,
                        batch_size: int = 64) -> ImputationReport:
    """Mask one valued position per bag and score predictions against truth.

    With ablation=true the model weights are re-initialized from `seed`, in
    the model's dtype, before evaluating, so the report measures what
    pre-training added.
    """
    mode = params.config.mode
    if decode == DECODE_CONTINUOUS:
        if mode != MODE_CONTINUOUS:
            raise ConfigError("continuous decoding needs a continuous model")
    elif decode in (DECODE_WEIGHTED, DECODE_ARGMAX):
        if mode != MODE_DECILE:
            raise ConfigError(f"{decode} decoding needs a decile model")
    else:
        raise ConfigError(f"unknown decode method {decode!r}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not bags:
        raise ContractError("evaluate_imputation needs a nonempty test set")
    check_bag_tokens(params.config, bags, "imputation")

    if ablation:
        params = init_params(params.config, seed=seed, dtype=params.dtype)

    targets = _imputation_targets(bags, vocab, seed)
    codes, truths, preds = [], [], []
    with untracked():
        for start in range(0, len(targets), batch_size):
            chunk = targets[start : start + batch_size]
            batch = _masked_batch([bag for bag, _ in chunk], np.ones(len(chunk), dtype=np.int64),
                                  np.array([pos for _, pos in chunk], dtype=np.int64),
                                  vocab.mask_token)
            probs, value_preds = forward_masked(params, batch)
            code_ids = [vocab.code_for_token(t) for t in batch.truth_tokens]
            if mode == MODE_CONTINUOUS:
                got = value_preds.data
            else:
                fn = weighted_quantile_decode if decode == DECODE_WEIGHTED else argmax_decode
                got = [fn(row, code, vocab) for row, code in zip(probs.data, code_ids)]
            codes.extend(code_ids)
            truths.extend(batch.truth_values.tolist())
            preds.extend(np.asarray(got, dtype=float).tolist())

    r = pearson_r(truths, preds)
    per_code = []
    order = {}
    for c, t, p in zip(codes, truths, preds):
        order.setdefault(c, ([], []))
        order[c][0].append(t)
        order[c][1].append(p)
    for c in sorted(order):
        ts, ps = order[c]
        if len(ts) < 2:
            continue
        try:
            rc = pearson_r(ts, ps)
        except NumericError:
            continue
        per_code.append({"code": c, "r": rc, "n": len(ts)})
    per_code.sort(key=lambda e: (-e["r"], e["code"]))
    mse = float(np.mean((np.asarray(preds) - np.asarray(truths)) ** 2))
    return ImputationReport(r=r, r2=r * r, mse=mse, n=len(truths),
                            per_code=per_code, decode=decode, ablation=ablation)
