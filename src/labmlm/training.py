"""Pre-training loop, losses, and intrinsic imputation evaluation.

The continuous model trains on the sum of a cross-entropy over masked code
identities and a mean-squared error over masked values; the decile baseline
trains on cross-entropy alone. Both losses read only masked positions, so
supervision never leaks from unmasked inputs except through the network.

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
from .model import (
    ModelParams,
    forward_continuous,
    forward_decile,
    init_params,
    save_checkpoint,
)
from .optim import AdamState, adam_step, zero_param_grads
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
    dropout: float = 0.1
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
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class LossParts:
    total: TapeTensor
    ce: TapeTensor
    mse: TapeTensor


def multitask_loss(code_probs, value_preds, batch: Batch) -> LossParts:
    """CE over masked code identities plus MSE over masked non-null values.

    Both terms are means over their contributing positions; a batch whose
    masked truths are all null has MSE exactly 0.
    """
    rows, cols = batch.mask_rows, batch.mask_cols
    if len(rows) == 0:
        raise ContractError("multitask_loss needs at least one masked position")
    width = code_probs.shape[-1]
    if batch.truth_tokens.min() < 1 or batch.truth_tokens.max() > width:
        raise VocabError(f"masked truth token outside [1, {width}]")

    p_rows = tape.take_bl(code_probs, rows, cols)
    p_true = tape.take_along_last(p_rows, batch.truth_tokens - 1)
    ce = tape.neg(tape.tmean(tape.log(p_true)))

    live = ~batch.truth_nulls
    if live.any():
        preds = tape.take_bl(value_preds, rows[live], cols[live])
        diff = preds - batch.truth_values[live]
        mse = tape.tmean(tape.mul(diff, diff))
    else:
        mse = TapeTensor(np.asarray(0.0))
    return LossParts(ce + mse, ce, mse)


def decile_mlm_loss(token_probs, batch: Batch) -> TapeTensor:
    """CE over masked token identities in the decile vocabulary."""
    rows, cols = batch.mask_rows, batch.mask_cols
    if len(rows) == 0:
        raise ContractError("decile_mlm_loss needs at least one masked position")
    width = token_probs.shape[-1]
    if batch.truth_tokens.min() < 1 or batch.truth_tokens.max() > width:
        raise VocabError(f"masked truth token outside [1, {width}]")
    p_rows = tape.take_bl(token_probs, rows, cols)
    p_true = tape.take_along_last(p_rows, batch.truth_tokens - 1)
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


def _ensure_masked(bags, mask_token, rng, mask_count):
    out = []
    for bag in bags:
        if len(bag.mask_positions):
            out.append(bag)
        else:
            out.append(mask_bag(bag, mask_token, rng, n_mask=min(mask_count, len(bag))))
    return out


def _forward_and_loss(params, batch, training, rng):
    if params.config.mode == MODE_CONTINUOUS:
        probs, preds = forward_continuous(params, batch, training=training, rng=rng)
        return multitask_loss(probs, preds, batch)
    probs = forward_decile(params, batch, training=training, rng=rng)
    ce = decile_mlm_loss(probs, batch)
    return LossParts(ce, ce, TapeTensor(np.asarray(float("nan"))))


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


def pretrain(params: ModelParams, train_bags, val_bags, config: TrainConfig,
             out_dir) -> PretrainResult:
    """Adam pre-training with per-step train rows and periodic validation.

    Everything is driven by config.seed: batch sampling, masking, dropout.
    A 64-bit rerun with the same inputs writes byte-identical logs. A
    non-finite loss aborts with the offending batch dumped next to the log.
    The run trains with config.dropout, and its checkpoints record that rate;
    params.config gets the caller's rate back when pretrain returns or raises.
    """
    caller_dropout = params.config.dropout_rate
    try:
        return _pretrain(params, train_bags, val_bags, config, out_dir)
    finally:
        params.config.dropout_rate = caller_dropout


def _pretrain(params, train_bags, val_bags, config, out_dir):
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
    train_bags = _ensure_masked(train_bags, mask_token, rng, config.mask_count)
    val_bags = _ensure_masked(val_bags, mask_token, rng, config.mask_count)

    trainables = params.tensors()
    adam = AdamState(trainables, config.learning_rate)
    params.config.dropout_rate = config.dropout

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
        drawn = [train_bags[i] for i in idx]
        if config.remask:
            drawn = [mask_bag(unmask_bag(b), mask_token, rng,
                              n_mask=min(config.mask_count, len(b))) for b in drawn]
        batch = pad_batch(drawn)

        zero_param_grads(trainables)
        with Tape():
            parts = _forward_and_loss(params, batch, training=True, rng=rng)
            total = parts.total.item()
            if not np.isfinite(total):
                dump = os.path.join(out_dir, f"diagnostic-step{step}.npz")
                np.savez(dump, tokens=batch.tokens, values=batch.values,
                         null_flags=batch.null_flags, pad_mask=batch.pad_mask,
                         mask_rows=batch.mask_rows, mask_cols=batch.mask_cols,
                         truth_tokens=batch.truth_tokens, truth_values=batch.truth_values)
                _append_metrics(metrics_path, pending)
                raise NumericError(f"non-finite loss {total} at step {step}; batch dumped to {dump}")
            backward(parts.total)
        adam_step(adam)

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

    With ablation=true the model weights are re-initialized from `seed`
    before evaluating, so the report measures what pre-training added.
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
        params = init_params(params.config, seed=seed)

    rng = np.random.default_rng(seed)
    prepared = []
    for bag in bags:
        if len(bag.mask_positions):
            bag = unmask_bag(bag)
        candidates = np.flatnonzero(~bag.null_flags)
        if mode == MODE_DECILE:
            # only decile tokens decode to a value; binary tokens do not
            numeric = [p for p in candidates
                       if vocab.is_numeric(vocab.code_for_token(bag.tokens[p]))]
            candidates = np.asarray(numeric, dtype=np.int64)
        if len(candidates) == 0:
            continue
        pos = int(rng.choice(candidates))
        prepared.append(mask_bag(bag, vocab.mask_token, rng, positions=[pos]))
    if not prepared:
        raise ContractError("no bag has a non-null value to impute")

    codes, truths, preds = [], [], []
    with untracked():
        for start in range(0, len(prepared), batch_size):
            batch = pad_batch(prepared[start : start + batch_size])
            if mode == MODE_CONTINUOUS:
                _, value_preds = forward_continuous(params, batch, training=False)
                got = value_preds.data[batch.mask_rows, batch.mask_cols]
                code_ids = [vocab.code_for_token(t) for t in batch.truth_tokens]
            else:
                probs = forward_decile(params, batch, training=False)
                rows = probs.data[batch.mask_rows, batch.mask_cols]
                code_ids = [vocab.code_for_token(t) for t in batch.truth_tokens]
                fn = weighted_quantile_decode if decode == DECODE_WEIGHTED else argmax_decode
                got = [fn(row, code, vocab) for row, code in zip(rows, code_ids)]
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
