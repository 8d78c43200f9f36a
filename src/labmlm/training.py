"""Pre-training loop, losses, and intrinsic imputation evaluation.

The continuous model trains on the sum of a cross-entropy over masked code
identities and a mean-squared error over masked values; the decile baseline
trains on cross-entropy alone. Both losses read only masked positions, so
supervision never leaks from unmasked inputs except through the network; the
loop, validation and imputation therefore run the heads on the masked rows
alone (`model.forward_masked`).

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
from .corpus import Batch, mask_bag, pad_batch, unmask_bag
from .ecdf import MODE_CONTINUOUS, MODE_DECILE, Vocab
from .errors import ConfigError, ContractError, DecodeError, NumericError, VocabError
from .model import ModelParams, forward_masked, init_params, save_checkpoint
from .optim import AdamState, adam_step, gather_grads, zero_param_grads
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
    ce = _masked_ce(code_probs, batch, "multitask_loss")
    live = ~batch.truth_nulls
    if live.any():
        preds = _at_masks(value_preds, batch, 1)
        if not live.all():
            preds = tape.embedding_lookup(preds, np.flatnonzero(live))   # a row gather
        diff = preds - batch.truth_values[live]
        mse = tape.tmean(tape.mul(diff, diff))
    else:
        mse = TapeTensor(np.zeros((), dtype=ce.data.dtype))
    return LossParts(ce + mse, ce, mse)


def decile_mlm_loss(token_probs, batch: Batch) -> TapeTensor:
    """CE over masked token identities in the decile vocabulary.

    token_probs are the masked rows [m, V], or every position's [b, L, V].
    """
    return _masked_ce(token_probs, batch, "decile_mlm_loss")


def _at_masks(out, batch: Batch, row_ndim: int):
    """`out` as one row per mask: masked rows as given, [b, L, ...] gathered."""
    if out.ndim == row_ndim + 1:
        return tape.take_bl(out, batch.mask_rows, batch.mask_cols)
    if out.ndim != row_ndim or out.shape[0] != len(batch.mask_rows):
        raise ContractError(f"outputs of shape {out.shape} are neither one row per mask "
                            f"({len(batch.mask_rows)}) nor the batch's {batch.tokens.shape}")
    return out


def _masked_ce(probs, batch: Batch, loss_name: str) -> TapeTensor:
    """-mean log p of each masked position's truth token; token t is column t - 1."""
    if len(batch.mask_rows) == 0:
        raise ContractError(f"{loss_name} needs at least one masked position")
    width = probs.shape[-1]
    if batch.truth_tokens.min() < 1 or batch.truth_tokens.max() > width:
        raise VocabError(f"masked truth token outside [1, {width}]")
    p_true = tape.take_along_last(_at_masks(probs, batch, 2), batch.truth_tokens - 1)
    return tape.neg(tape.tmean(tape.log(p_true)))


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


def _draw_masks(bags, mask_token, rng, mask_count):
    """(bags, pos): where each bag gets its masks, drawn in bag order.

    A bag that arrives masked keeps its masks. With mask_count 1, one
    `rng.integers(0, lengths)` call draws a position for every other bag; it
    gives the same positions, and leaves rng in the same state, as one
    `rng.choice(L, 1, replace=False)` per bag, and `_masked` builds a masked
    bag only when a batch draws it. With mask_count > 1 each of those bags is
    masked here, one `mask_bag` draw per bag. pos is -1 for a bag that needs
    no further masking.
    """
    pos = np.full(len(bags), -1, dtype=np.int64)
    todo = [i for i, bag in enumerate(bags) if not len(bag.mask_positions)]
    if mask_count > 1:
        bags = list(bags)
        for i in todo:
            bags[i] = mask_bag(bags[i], mask_token, rng, n_mask=min(mask_count, len(bags[i])))
        return bags, pos
    lengths = np.array([len(bags[i]) for i in todo], dtype=np.int64)
    if lengths.size and lengths.min() < 1:
        raise ContractError("cannot mask an empty bag")
    pos[todo] = rng.integers(0, lengths)
    return bags, pos


def _masked(bags, pos, idx, mask_token):
    """The bags at `idx`, each masked where `_draw_masks` put it."""
    return [bags[i] if pos[i] < 0 else mask_bag(bags[i], mask_token, None, positions=[pos[i]])
            for i in idx]


def _forward_and_loss(params, batch, training, rng):
    probs, preds = forward_masked(params, batch, training=training, rng=rng)
    if params.config.mode == MODE_CONTINUOUS:
        return multitask_loss(probs, preds, batch)
    ce = decile_mlm_loss(probs, batch)
    return LossParts(ce, ce, TapeTensor(np.full((), np.nan, dtype=ce.data.dtype)))


def _validate(params, val_bags, batch_size, max_batches=None):
    """Mean CE/MSE over all masked positions of the validation bags."""
    ce_sum = mse_sum = 0.0
    n_ce = n_mse = 0
    n_batches = 0
    with untracked():
        for start in range(0, len(val_bags), batch_size):
            if max_batches is not None and n_batches >= max_batches:
                break
            batch = pad_batch(val_bags[start : start + batch_size])
            parts = _forward_and_loss(params, batch, training=False, rng=None)
            k = len(batch.mask_rows)
            ce_sum += parts.ce.item() * k
            n_ce += k
            live = int((~batch.truth_nulls).sum())
            if params.config.mode == MODE_CONTINUOUS and live:
                mse_sum += parts.mse.item() * live
                n_mse += live
            n_batches += 1
    ce = ce_sum / max(n_ce, 1)
    mse = mse_sum / n_mse if n_mse else float("nan")
    return ce, mse


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


def _abort_step(why, step, batch, out_dir, metrics_path, pending):
    """Dump the step's batch next to the log, flush pending rows, raise NumericError."""
    dump = os.path.join(out_dir, f"diagnostic-step{step}.npz")
    np.savez(dump, tokens=batch.tokens, values=batch.values,
             null_flags=batch.null_flags, pad_mask=batch.pad_mask,
             mask_rows=batch.mask_rows, mask_cols=batch.mask_cols,
             truth_tokens=batch.truth_tokens, truth_values=batch.truth_values)
    _append_metrics(metrics_path, pending)
    raise NumericError(f"{why} at step {step}; batch dumped to {dump}")


def pretrain(params: ModelParams, train_bags, val_bags, config: TrainConfig,
             out_dir) -> PretrainResult:
    """Adam pre-training with per-step train rows and periodic validation.

    Everything is driven by config.seed: batch sampling, masking, dropout.
    The run trains in the dtype of `params`, at its `config.dropout_rate`.
    A rerun with the same inputs, dtype, numpy and BLAS builds and BLAS
    thread count writes byte-identical logs and checkpoints. A non-finite
    loss or gradient aborts before the Adam step, with the offending batch
    dumped next to the log.
    """
    if not train_bags:
        raise ContractError("pretrain needs a nonempty training set")
    if not val_bags:
        raise ContractError("pretrain needs a nonempty validation set")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)

    rng = np.random.default_rng(config.seed)
    mask_token = params.config.mask_token
    train_bags, train_pos = _draw_masks(train_bags, mask_token, rng, config.mask_count)
    val_bags, val_pos = _draw_masks(val_bags, mask_token, rng, config.mask_count)
    # Validation reads the same leading bags every time: mask them once.
    n_val = len(val_bags)
    if config.val_batches is not None:
        n_val = min(n_val, config.val_batches * config.batch_size)
    val_bags = _masked(val_bags, val_pos, range(n_val), mask_token)

    trainables = params.tensors()
    adam = AdamState(trainables, config.learning_rate)

    history = []
    checkpoints = []

    def run_validation(step):
        ce, mse = _validate(params, val_bags, config.batch_size, config.val_batches)
        row = (step, "val", ce, mse, perplexity(ce))
        history.append(row)
        _append_metrics(metrics_path, [row])

    run_validation(0)
    pending = []
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(train_bags), size=config.batch_size)
        if config.remask:
            drawn = [mask_bag(unmask_bag(train_bags[i]), mask_token, rng,
                              n_mask=min(config.mask_count, len(train_bags[i]))) for i in idx]
        else:
            drawn = _masked(train_bags, train_pos, idx, mask_token)
        batch = pad_batch(drawn)

        zero_param_grads(trainables)
        with Tape():
            parts = _forward_and_loss(params, batch, training=True, rng=rng)
            total = parts.total.item()
            if not np.isfinite(total):
                _abort_step(f"non-finite loss {total}", step, batch, out_dir,
                            metrics_path, pending)
            backward(parts.total)
        grads = gather_grads(adam)
        with np.errstate(over="ignore"):
            finite = math.isfinite(grads.sum())
        bad = None if finite else _first_nonfinite_grad(params.named_tensors())
        if bad is not None:
            _abort_step(f"non-finite gradient in {bad!r}", step, batch, out_dir,
                        metrics_path, pending)
        adam_step(adam, grads)

        ce = parts.ce.item()
        row = (step, "train", ce, parts.mse.item(), perplexity(ce))
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

    _append_metrics(metrics_path, pending)
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
    if not bags:
        raise ContractError("evaluate_imputation needs a nonempty test set")

    if ablation:
        params = init_params(params.config, seed=seed, dtype=params.dtype)

    targets = _imputation_targets(bags, vocab, seed)
    codes, truths, preds = [], [], []
    with untracked():
        for start in range(0, len(targets), batch_size):
            batch = pad_batch([mask_bag(bag, vocab.mask_token, None, positions=[pos])
                               for bag, pos in targets[start : start + batch_size]])
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
