"""The two bag models: continuous (code, value) pairs and decile tokens.

Both share the same transformer backbone: post-norm blocks in the order
attention, dropout, layer norm, feedforward, dropout, layer norm, with no
positional terms anywhere. The continuous model embeds values through a
position-wise linear layer added to the code-token embedding, and carries two
heads: a softmax over codes and a sigmoid value regressor fed by the final
embeddings concatenated with those code probabilities. The decile model is a
plain token lookup into the same backbone with a single softmax head over the
full token vocabulary, and a narrower per-head key dimension (d_model divided
by the head count, versus d_model itself for the continuous model).

Bag order is meaningless, so forwards canonicalize it: positions are sorted
row-wise by (pad, token, null, value) before the network runs and outputs are
unsorted afterwards. Reordering a bag therefore permutes outputs bit-exactly,
not just to rounding tolerance.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tape
from .attention import AttentionParams, init_attention_params, multi_head_attention
from .corpus import Batch
from .ecdf import MODE_CONTINUOUS, MODE_DECILE
from .errors import ConfigError, DataError, FormatError, VocabError
from .tape import TapeTensor, embedding_init, glorot_uniform

CHECKPOINT_MAGIC = b"LBCP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    mode: str
    vocab_size: int          # assigned tokens excluding the reserved pad id 0
    d_model: int
    num_layers: int
    num_heads: int
    ff_dim: int
    key_dim: int | None = None
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.mode not in (MODE_CONTINUOUS, MODE_DECILE):
            raise ConfigError(f"unknown model mode {self.mode!r}")
        if min(self.d_model, self.num_heads, self.ff_dim) < 1 or self.num_layers < 0:
            raise ConfigError("d_model, num_heads, ff_dim must be >= 1 and num_layers >= 0")
        min_vocab = 3 if self.mode == MODE_CONTINUOUS else 2
        if self.vocab_size < min_vocab:
            raise ConfigError(f"vocab_size {self.vocab_size} too small for mode {self.mode}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.key_dim is None:
            # Continuous mode keys are full width; the decile baseline splits
            # d_model across heads. Both defaults can be overridden.
            self.key_dim = self.d_model if self.mode == MODE_CONTINUOUS else self.d_model // self.num_heads
        if self.key_dim < 1:
            raise ConfigError(f"key_dim must be >= 1, got {self.key_dim}")

    @property
    def num_codes(self) -> int:
        if self.mode != MODE_CONTINUOUS:
            raise ConfigError("num_codes is a continuous-mode property")
        return self.vocab_size - 2

    @property
    def mask_token(self) -> int:
        return self.vocab_size - 1 if self.mode == MODE_CONTINUOUS else self.vocab_size

    @property
    def null_token(self) -> int:
        if self.mode != MODE_CONTINUOUS:
            raise ConfigError("null_token is a continuous-mode property")
        return self.vocab_size

    @property
    def head_width(self) -> int:
        return self.num_codes if self.mode == MODE_CONTINUOUS else self.vocab_size

    @property
    def embed_rows(self) -> int:
        return self.vocab_size + 1

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)

    @staticmethod
    def from_vocab(vocab, d_model, num_layers, num_heads, ff_dim,
                   key_dim=None, dropout_rate=0.1) -> "ModelConfig":
        return ModelConfig(vocab.mode, vocab.vocab_size, d_model, num_layers,
                           num_heads, ff_dim, key_dim, dropout_rate)


@dataclass
class BlockParams:
    attn: AttentionParams
    ln1_gain: TapeTensor
    ln1_bias: TapeTensor
    ff1_w: TapeTensor
    ff1_b: TapeTensor
    ff2_w: TapeTensor
    ff2_b: TapeTensor
    ln2_gain: TapeTensor
    ln2_bias: TapeTensor

    def named_tensors(self, prefix: str):
        out = self.attn.named_tensors(prefix + "attn.")
        out += [
            (prefix + "ln1_gain", self.ln1_gain), (prefix + "ln1_bias", self.ln1_bias),
            (prefix + "ff1_w", self.ff1_w), (prefix + "ff1_b", self.ff1_b),
            (prefix + "ff2_w", self.ff2_w), (prefix + "ff2_b", self.ff2_b),
            (prefix + "ln2_gain", self.ln2_gain), (prefix + "ln2_bias", self.ln2_bias),
        ]
        return out


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: TapeTensor
    blocks: list
    head_w1: TapeTensor
    head_b1: TapeTensor
    head_w2: TapeTensor
    head_b2: TapeTensor
    value_w: TapeTensor | None = None
    value_b: TapeTensor | None = None
    vdense_w: TapeTensor | None = None
    vdense_b: TapeTensor | None = None
    vln_gain: TapeTensor | None = None
    vln_bias: TapeTensor | None = None
    chead_w1: TapeTensor | None = None
    chead_b1: TapeTensor | None = None
    chead_w2: TapeTensor | None = None
    chead_b2: TapeTensor | None = None

    def named_tensors(self):
        out = [("embedding", self.embedding)]
        if self.config.mode == MODE_CONTINUOUS:
            out += [
                ("value_w", self.value_w), ("value_b", self.value_b),
                ("vdense_w", self.vdense_w), ("vdense_b", self.vdense_b),
                ("vln_gain", self.vln_gain), ("vln_bias", self.vln_bias),
            ]
        for i, blk in enumerate(self.blocks):
            out += blk.named_tensors(f"block{i}.")
        out += [
            ("head_w1", self.head_w1), ("head_b1", self.head_b1),
            ("head_w2", self.head_w2), ("head_b2", self.head_b2),
        ]
        if self.config.mode == MODE_CONTINUOUS:
            out += [
                ("chead_w1", self.chead_w1), ("chead_b1", self.chead_b1),
                ("chead_w2", self.chead_w2), ("chead_b2", self.chead_b2),
            ]
        return out

    def tensors(self):
        return [t for _, t in self.named_tensors()]


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Fresh trainable parameters: glorot-uniform denses, N(0, 0.02^2) embeddings."""
    rng = np.random.default_rng(seed)
    d = config.d_model

    def dense(fan_in, fan_out):
        w = TapeTensor(glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out), trainable=True)
        b = TapeTensor(np.zeros(fan_out), trainable=True)
        return w, b

    def ln_pair():
        return (TapeTensor(np.ones(d), trainable=True),
                TapeTensor(np.zeros(d), trainable=True))

    embedding = TapeTensor(embedding_init(rng, (config.embed_rows, d)), trainable=True)

    value_w = value_b = vdense_w = vdense_b = vln_gain = vln_bias = None
    if config.mode == MODE_CONTINUOUS:
        value_w, value_b = dense(1, d)
        vdense_w, vdense_b = dense(d, d)
        vln_gain, vln_bias = ln_pair()

    blocks = []
    for _ in range(config.num_layers):
        attn = init_attention_params(rng, d, config.num_heads, config.key_dim)
        ln1_gain, ln1_bias = ln_pair()
        ff1_w, ff1_b = dense(d, config.ff_dim)
        ff2_w, ff2_b = dense(config.ff_dim, d)
        ln2_gain, ln2_bias = ln_pair()
        blocks.append(BlockParams(attn, ln1_gain, ln1_bias, ff1_w, ff1_b,
                                  ff2_w, ff2_b, ln2_gain, ln2_bias))

    head_w1, head_b1 = dense(d, d)
    head_w2, head_b2 = dense(d, config.head_width)

    chead_w1 = chead_b1 = chead_w2 = chead_b2 = None
    if config.mode == MODE_CONTINUOUS:
        wide = d + config.head_width
        chead_w1, chead_b1 = dense(wide, wide)
        chead_w2, chead_b2 = dense(wide, 1)

    return ModelParams(config, embedding, blocks, head_w1, head_b1, head_w2, head_b2,
                       value_w, value_b, vdense_w, vdense_b, vln_gain, vln_bias,
                       chead_w1, chead_b1, chead_w2, chead_b2)


def count_params(config: ModelConfig):
    """(total, breakdown) computed from shapes alone; nothing is allocated."""
    d, ff = config.d_model, config.ff_dim
    hk = config.num_heads * config.key_dim
    breakdown = {"embedding": config.embed_rows * d}
    if config.mode == MODE_CONTINUOUS:
        breakdown["continuous_embed"] = (1 * d + d) + (d * d + d) + 2 * d
    per_block = (3 * (d * hk + hk) + (hk * d + d)) + 2 * d + (d * ff + ff) + (ff * d + d) + 2 * d
    breakdown["blocks"] = config.num_layers * per_block
    breakdown["categorical_head"] = (d * d + d) + (d * config.head_width + config.head_width)
    if config.mode == MODE_CONTINUOUS:
        wide = d + config.head_width
        breakdown["continuous_head"] = (wide * wide + wide) + (wide * 1 + 1)
    return sum(breakdown.values()), breakdown


def count_params_instance(params: ModelParams) -> int:
    return sum(t.size for t in params.tensors())


# ---------------------------------------------------------------------------
# Forward passes


def categorical_embed(tokens: np.ndarray, params: ModelParams) -> TapeTensor:
    """Token lookup with the pad row forced to the zero vector."""
    tokens = np.asarray(tokens)
    rows = params.config.embed_rows
    if tokens.size and (tokens.min() < 0 or tokens.max() >= rows):
        raise VocabError(f"token out of range [0, {rows}): min={tokens.min()}, max={tokens.max()}")
    emb = tape.embedding_lookup(params.embedding, tokens)
    keep = (tokens != 0).astype(params.embedding.data.dtype)[..., None]
    return tape.mul(emb, keep)


def continuous_embed(values, token_embeddings, null_flags: np.ndarray,
                     params: ModelParams) -> TapeTensor:
    """Value channel added to token embeddings, then ReLU dense and layer norm.

    values [b, L] must lie in [0,1] wherever null_flags is false (nulls, masks
    and pads all carry 0.0, the uninformative point of the eCDF scale).
    """
    vals_data = values.data if isinstance(values, TapeTensor) else np.asarray(values, dtype=float)
    live = ~np.asarray(null_flags)
    if vals_data[live].size and (vals_data[live].min() < 0.0 or vals_data[live].max() > 1.0):
        raise DataError("value outside [0, 1] at a non-null position")
    if not isinstance(values, TapeTensor):
        values = TapeTensor(vals_data)
    proj = tape.matmul(tape.reshape(values, (*vals_data.shape, 1)), params.value_w) + params.value_b
    x = proj + token_embeddings
    x = tape.relu(tape.matmul(x, params.vdense_w) + params.vdense_b)
    return tape.layer_norm(x, params.vln_gain, params.vln_bias)


def backbone_forward(x, pad_mask, params: ModelParams, training: bool = False,
                     rng=None) -> TapeTensor:
    """num_layers post-norm blocks; identity when num_layers is 0."""
    cfg = params.config
    if training and cfg.dropout_rate > 0.0 and rng is None:
        raise ConfigError("training with dropout needs an rng")
    for blk in params.blocks:
        a = multi_head_attention(x, blk.attn, cfg.num_heads, cfg.key_dim, pad_mask)
        a = tape.dropout(a, cfg.dropout_rate, rng, training)
        x = tape.layer_norm(x + a, blk.ln1_gain, blk.ln1_bias)
        f = tape.matmul(tape.relu(tape.matmul(x, blk.ff1_w) + blk.ff1_b), blk.ff2_w) + blk.ff2_b
        f = tape.dropout(f, cfg.dropout_rate, rng, training)
        x = tape.layer_norm(x + f, blk.ln2_gain, blk.ln2_bias)
    return x


def categorical_head(h, params: ModelParams) -> TapeTensor:
    """ReLU dense then softmax; rows are probability vectors."""
    z = tape.relu(tape.matmul(h, params.head_w1) + params.head_b1)
    logits = tape.matmul(z, params.head_w2) + params.head_b2
    return tape.softmax(logits, axis=-1)


def continuous_head(h, probs, params: ModelParams) -> TapeTensor:
    """Sigmoid value prediction from final embeddings joined with code probs."""
    z = tape.concat([h, probs], axis=-1)
    z = tape.relu(tape.matmul(z, params.chead_w1) + params.chead_b1)
    out = tape.sigmoid(tape.matmul(z, params.chead_w2) + params.chead_b2)
    return tape.reshape(out, out.shape[:-1])


def _canonical_perm(tokens, values, null_flags, pad_mask):
    """Row-wise content sort making reduction order independent of bag order."""
    perm = np.lexsort((values, null_flags, tokens, pad_mask), axis=-1)
    inv = np.argsort(perm, axis=-1)
    return perm, inv


def _encode_canonical(params: ModelParams, batch: Batch, training: bool = False, rng=None):
    """Backbone output in canonical bag order, plus the inverse permutation.

    Everything downstream of the sort sees identical arrays for any input
    ordering of the same bag, which is what makes permutation equivariance
    bit-exact; callers undo the sort with `inv` as their last step.
    """
    cfg = params.config
    vals_data = batch.values.data if isinstance(batch.values, TapeTensor) else batch.values
    perm, inv = _canonical_perm(batch.tokens, vals_data, batch.null_flags, batch.pad_mask)
    rows = np.arange(batch.tokens.shape[0])[:, None]
    tokens = batch.tokens[rows, perm]
    nulls = batch.null_flags[rows, perm]
    pad = batch.pad_mask[rows, perm]
    values = tape.permute_l(batch.values if isinstance(batch.values, TapeTensor)
                            else TapeTensor(batch.values), perm)

    if cfg.mode == MODE_CONTINUOUS:
        lookup = np.where(nulls, cfg.null_token, tokens)
        tok_emb = categorical_embed(lookup, params)
        x = continuous_embed(values, tok_emb, nulls, params)
    else:
        x = categorical_embed(tokens, params)

    h = backbone_forward(x, pad, params, training, rng)
    return h, inv


def encode(params: ModelParams, batch: Batch, training: bool = False, rng=None) -> TapeTensor:
    """Embed a batch and run the backbone; output order matches the input bags."""
    h, inv = _encode_canonical(params, batch, training, rng)
    return tape.permute_l(h, inv)


def forward_continuous(params: ModelParams, batch: Batch, training: bool = False, rng=None):
    """(code_probs [b,L,C], value_preds [b,L]) for a continuous-mode batch."""
    if params.config.mode != MODE_CONTINUOUS:
        raise ConfigError(f"forward_continuous needs a continuous model, got {params.config.mode}")
    h, inv = _encode_canonical(params, batch, training, rng)
    probs = categorical_head(h, params)
    preds = continuous_head(h, probs, params)
    return tape.permute_l(probs, inv), tape.permute_l(preds, inv)


def forward_decile(params: ModelParams, batch: Batch, training: bool = False, rng=None):
    """token_probs [b,L,V] for a decile-mode batch."""
    if params.config.mode != MODE_DECILE:
        raise ConfigError(f"forward_decile needs a decile model, got {params.config.mode}")
    h, inv = _encode_canonical(params, batch, training, rng)
    return tape.permute_l(categorical_head(h, params), inv)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    """Single-file checkpoint: magic, JSON manifest, raw little-endian blob.

    The file appears at `path` only once it is complete.
    """
    named = params.named_tensors()
    dtype = "<f8" if params.embedding.data.dtype == np.float64 else "<f4"
    index = []
    offset = 0
    blobs = []
    for name, t in named:
        raw = np.ascontiguousarray(t.data, dtype=dtype).tobytes()
        index.append({"name": name, "shape": list(t.shape), "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({"config": params.config.to_dict(), "dtype": dtype, "tensors": index},
                          sort_keys=True).encode()
    # Write beside the target and rename over it, so an interrupted save
    # leaves the previous checkpoint whole.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(bytes([CHECKPOINT_VERSION]))
            fh.write(struct.pack("<I", len(manifest)))
            fh.write(manifest)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        head = fh.read(5)
        if len(head) < 5 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic {head[:4]!r})")
        if head[4] != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {head[4]}")
        (mlen,) = struct.unpack("<I", fh.read(4))
        try:
            manifest = json.loads(fh.read(mlen).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt manifest: {exc}") from None
        blob = fh.read()

    config = ModelConfig.from_dict(manifest["config"])
    dtype = np.dtype(manifest["dtype"])
    tensors = {}
    for ent in manifest["tensors"]:
        start, n = ent["offset"], ent["nbytes"]
        if start + n > len(blob):
            raise FormatError(f"{path}: tensor {ent['name']!r} extends past end of file")
        arr = np.frombuffer(blob[start : start + n], dtype=dtype).reshape(ent["shape"])
        tensors[ent["name"]] = TapeTensor(arr.copy(), trainable=True, name=ent["name"])

    for name, shape in _expected_shapes(config):
        if name not in tensors:
            raise FormatError(f"{path}: checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                              f"expected {shape}")
    return _assemble_params(config, tensors)


def _expected_shapes(config: ModelConfig):
    d, ff = config.d_model, config.ff_dim
    hk = config.num_heads * config.key_dim
    out = [("embedding", (config.embed_rows, d))]
    if config.mode == MODE_CONTINUOUS:
        out += [("value_w", (1, d)), ("value_b", (d,)),
                ("vdense_w", (d, d)), ("vdense_b", (d,)),
                ("vln_gain", (d,)), ("vln_bias", (d,))]
    for i in range(config.num_layers):
        p = f"block{i}."
        out += [(p + "attn.wq", (d, hk)), (p + "attn.bq", (hk,)),
                (p + "attn.wk", (d, hk)), (p + "attn.bk", (hk,)),
                (p + "attn.wv", (d, hk)), (p + "attn.bv", (hk,)),
                (p + "attn.wo", (hk, d)), (p + "attn.bo", (d,)),
                (p + "ln1_gain", (d,)), (p + "ln1_bias", (d,)),
                (p + "ff1_w", (d, ff)), (p + "ff1_b", (ff,)),
                (p + "ff2_w", (ff, d)), (p + "ff2_b", (d,)),
                (p + "ln2_gain", (d,)), (p + "ln2_bias", (d,))]
    w = config.head_width
    out += [("head_w1", (d, d)), ("head_b1", (d,)),
            ("head_w2", (d, w)), ("head_b2", (w,))]
    if config.mode == MODE_CONTINUOUS:
        wide = d + w
        out += [("chead_w1", (wide, wide)), ("chead_b1", (wide,)),
                ("chead_w2", (wide, 1)), ("chead_b2", (1,))]
    return out


def _assemble_params(config: ModelConfig, tensors: dict[str, TapeTensor]) -> ModelParams:
    def g(name):
        return tensors[name]

    blocks = []
    for i in range(config.num_layers):
        p = f"block{i}."
        attn = AttentionParams(
            g(p + "attn.wq"), g(p + "attn.bq"), g(p + "attn.wk"), g(p + "attn.bk"),
            g(p + "attn.wv"), g(p + "attn.bv"), g(p + "attn.wo"), g(p + "attn.bo"),
        )
        blocks.append(BlockParams(attn, g(p + "ln1_gain"), g(p + "ln1_bias"),
                                  g(p + "ff1_w"), g(p + "ff1_b"), g(p + "ff2_w"), g(p + "ff2_b"),
                                  g(p + "ln2_gain"), g(p + "ln2_bias")))
    kw = {}
    if config.mode == MODE_CONTINUOUS:
        kw = {k: g(k) for k in ("value_w", "value_b", "vdense_w", "vdense_b",
                                "vln_gain", "vln_bias",
                                "chead_w1", "chead_b1", "chead_w2", "chead_b2")}
    return ModelParams(config, g("embedding"), blocks,
                       g("head_w1"), g("head_b1"), g("head_w2"), g("head_b2"), **kw)
