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

`param_spec` is the one declaration of the parameters: each one's name, shape
and init, in order. A model's tensors live in one mapping keyed by those names,
and the forwards read them by name (`embedding`, `block0.attn.wq`, ...).
Initialization, counting, `named_tensors` and the checkpoint checks all derive
from the spec, so old checkpoints keep loading and a seed keeps drawing the
same weights.

`forward_continuous` and `forward_decile` return every position's outputs.
Training, validation and imputation read only the masked positions, so they
call `forward_masked`, which gathers each mask's canonical backbone row and
runs the heads on those rows alone.

The forwards draw nothing: a training forward takes the keep masks that
`dropout_keep` draws (indexed in the backbone's canonical position order),
and None means no dropout. So the caller can split one step's masks
between row blocks.

A model's dtype is its tensors' dtype: float32 by default, float64 on request
(`init_params(..., dtype=np.float64)`), and whatever a checkpoint stores. A
batch's values enter as a constant cast to it; the tape casts every other
numpy constant the forwards meet (truths, masks, the pad bias) to it too.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tape
from .attention import attention_spec, multi_head_attention
from .corpus import Batch, write_atomic
from .ecdf import MODE_CONTINUOUS, MODE_DECILE
from .errors import ConfigError, ContractError, DataError, FormatError, VocabError
from .tape import TapeTensor, init_tensors

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
class ModelParams:
    """A model's tensors keyed by param_spec name, in spec order.

    `blocks` holds, per backbone block, its tensors keyed by the rest of
    their name and its attention layer's keyed by `attention_spec` name. It
    is built once from `by_name`, so change a tensor's data in place rather
    than replacing its entry.
    """
    config: ModelConfig
    by_name: dict = field(repr=False)
    blocks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.blocks = []
        for i in range(self.config.num_layers):
            blk = _scope(self.by_name, f"block{i}.")
            self.blocks.append((blk, _scope(blk, "attn.")))

    @property
    def dtype(self) -> np.dtype:
        return self.by_name["embedding"].data.dtype

    def named_tensors(self):
        return list(self.by_name.items())

    def tensors(self):
        return list(self.by_name.values())


def param_spec(config: ModelConfig) -> list:
    """Every model parameter as (name, shape, init), in checkpoint and draw order."""
    return [entry for group in _spec_groups(config).values() for entry in group]


def _spec_groups(config: ModelConfig) -> dict:
    """param_spec's entries in order, under count_params's breakdown groups."""
    d, ff, w = config.d_model, config.ff_dim, config.head_width
    cont = config.mode == MODE_CONTINUOUS
    groups = {"embedding": [("embedding", (config.embed_rows, d), "normal")]}
    if cont:
        groups["continuous_embed"] = [
            ("value_w", (1, d), "glorot"), ("value_b", (d,), "zeros"),
            ("vdense_w", (d, d), "glorot"), ("vdense_b", (d,), "zeros"),
            ("vln_gain", (d,), "ones"), ("vln_bias", (d,), "zeros")]
    block = [("attn." + name, shape, init)
             for name, shape, init in attention_spec(d, config.num_heads, config.key_dim)]
    block += [("ln1_gain", (d,), "ones"), ("ln1_bias", (d,), "zeros"),
              ("ff1_w", (d, ff), "glorot"), ("ff1_b", (ff,), "zeros"),
              ("ff2_w", (ff, d), "glorot"), ("ff2_b", (d,), "zeros"),
              ("ln2_gain", (d,), "ones"), ("ln2_bias", (d,), "zeros")]
    groups["blocks"] = [(f"block{i}.{name}", shape, init)
                        for i in range(config.num_layers) for name, shape, init in block]
    groups["categorical_head"] = [("head_w1", (d, d), "glorot"), ("head_b1", (d,), "zeros"),
                                  ("head_w2", (d, w), "glorot"), ("head_b2", (w,), "zeros")]
    if cont:
        wide = d + w
        groups["continuous_head"] = [
            ("chead_w1", (wide, wide), "glorot"), ("chead_b1", (wide,), "zeros"),
            ("chead_w2", (wide, 1), "glorot"), ("chead_b2", (1,), "zeros")]
    return groups


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Fresh trainable parameters: glorot-uniform denses, N(0, 0.02^2) embeddings.

    The draws are the same for every dtype: float64 values, cast once to `dtype`.
    """
    return ModelParams(config, init_tensors(np.random.default_rng(seed), param_spec(config),
                                            dtype))


def count_params(config: ModelConfig):
    """(total, breakdown) summed over param_spec's shapes; nothing is allocated."""
    breakdown = {group: sum(math.prod(shape) for _, shape, _ in entries)
                 for group, entries in _spec_groups(config).items()}
    return sum(breakdown.values()), breakdown


def check_bag_tokens(config: ModelConfig, bags, where: str) -> None:
    """Raise VocabError naming the first bag of `where` that the model cannot read.

    A token at an unmasked position can be drawn as a masked truth, so it
    must lie in [1, head_width], as every truth token must; a masked
    position must hold the mask token. Checked up front, a bad bag is named
    before any step runs, not on the step that happens to draw it.
    """
    if not bags:
        return
    lengths = np.array([bag.tokens.size for bag in bags], dtype=np.int64)
    ends = np.cumsum(lengths)
    tokens = np.concatenate([bag.tokens for bag in bags]).astype(np.int64, copy=False)
    n_mask = [bag.mask_positions.size for bag in bags]
    at = (np.concatenate([bag.mask_positions for bag in bags]).astype(np.int64)
          + np.repeat(ends - lengths, n_mask))
    held = tokens[at]
    tokens[at] = np.concatenate([bag.truth_tokens for bag in bags])
    bad = (tokens < 1) | (tokens > config.head_width)
    bad[at] |= held != config.mask_token
    if bad.any():
        k = int(np.argmax(bad))
        i = int(np.searchsorted(ends, k, side="right"))
        held_k = held[at == k]      # empty unless position k is masked
        fault = (f"masked, but holds token {held_k[0]}, not {config.mask_token}"
                 if held_k.size and held_k[0] != config.mask_token else
                 f"{'truth ' * held_k.size}token {tokens[k]} outside [1, {config.head_width}]")
        raise VocabError(f"{where} bag {i}, position {k - int(ends[i] - lengths[i])}: {fault}")


# ---------------------------------------------------------------------------
# Forward passes


def categorical_embed(tokens: np.ndarray, params: ModelParams) -> TapeTensor:
    """Token lookup with the pad row forced to the zero vector."""
    tokens = np.asarray(tokens)
    rows = params.config.embed_rows
    if tokens.size and (tokens.min() < 0 or tokens.max() >= rows):
        raise VocabError(f"token out of range [0, {rows}): min={tokens.min()}, max={tokens.max()}")
    table = params.by_name["embedding"]
    emb = tape.embedding_lookup(table, tokens)
    keep = (tokens != 0).astype(table.data.dtype)[..., None]
    return tape.mul(emb, keep)


def continuous_embed(values, token_embeddings, null_flags: np.ndarray,
                     params: ModelParams) -> TapeTensor:
    """Value channel added to token embeddings, then ReLU dense and layer norm.

    values [b, L] must lie in [0,1] wherever null_flags is false (nulls, masks
    and pads all carry 0.0, the uninformative point of the eCDF scale). They
    are a constant in the model's dtype: no gradient flows back to them.
    """
    vals = np.asarray(values.data if isinstance(values, TapeTensor) else values,
                      dtype=params.dtype)
    live = vals[~np.asarray(null_flags)]
    if live.size and (live.min() < 0.0 or live.max() > 1.0):
        raise DataError("value outside [0, 1] at a non-null position")
    p = params.by_name
    proj = tape.linear(vals.reshape(*vals.shape, 1), p["value_w"], p["value_b"])
    x = proj + token_embeddings
    x = tape.relu(tape.linear(x, p["vdense_w"], p["vdense_b"]))
    return tape.layer_norm(x, p["vln_gain"], p["vln_bias"])


def dropout_shape(config: ModelConfig, batch_shape) -> tuple:
    """The shape of a training forward's keep masks for a batch of (rows, length)."""
    return (2 * config.num_layers, *batch_shape, config.d_model)


def dropout_keep(config: ModelConfig, rng, batch_shape, out=None):
    """The keep masks of one training forward, or None at dropout rate 0.

    This is the one place that knows the draw schedule. Per block, the mask
    after attention, then the one after the feedforward layer, each from one
    `rng.random((rows, length, d_model))`; a unit survives where its uniform
    is >= the rate. `out`, a bool array of `dropout_shape`, receives the
    masks in place of a fresh array.
    """
    if config.dropout_rate == 0.0:
        return None
    shape = dropout_shape(config, batch_shape)
    keep = np.empty(shape, dtype=bool) if out is None else out
    u = np.empty(shape[1:])
    for mask in keep:
        rng.random(out=u)
        np.greater_equal(u, config.dropout_rate, out=mask)
    return keep


def backbone_forward(x, pad_mask, params: ModelParams, keep=None) -> TapeTensor:
    """num_layers post-norm blocks; identity when num_layers is 0.

    keep holds `dropout_keep`'s masks for x's rows and positions, or is None
    for no dropout.
    """
    cfg = params.config
    if keep is not None and keep.shape != dropout_shape(cfg, x.shape[:2]):
        raise ContractError(f"keep masks of shape {keep.shape} do not fit a forward over "
                            f"{x.shape[:2]}; expected {dropout_shape(cfg, x.shape[:2])}")
    for i, (blk, attn) in enumerate(params.blocks):
        a = multi_head_attention(x, attn, cfg.num_heads, cfg.key_dim, pad_mask)
        a = tape.dropout(a, cfg.dropout_rate, None if keep is None else keep[2 * i])
        x = tape.layer_norm(x + a, blk["ln1_gain"], blk["ln1_bias"])
        f = tape.linear(tape.relu(tape.linear(x, blk["ff1_w"], blk["ff1_b"])),
                        blk["ff2_w"], blk["ff2_b"])
        f = tape.dropout(f, cfg.dropout_rate, None if keep is None else keep[2 * i + 1])
        x = tape.layer_norm(x + f, blk["ln2_gain"], blk["ln2_bias"])
    return x


def _scope(tensors: dict, prefix: str) -> dict:
    """The entries under `prefix`, keyed by the rest of their name."""
    return {n[len(prefix):]: t for n, t in tensors.items() if n.startswith(prefix)}


def categorical_head(h, params: ModelParams) -> TapeTensor:
    """ReLU dense then softmax; rows are probability vectors."""
    p = params.by_name
    z = tape.relu(tape.linear(h, p["head_w1"], p["head_b1"]))
    logits = tape.linear(z, p["head_w2"], p["head_b2"])
    return tape.softmax(logits, axis=-1)


def continuous_head(h, probs, params: ModelParams) -> TapeTensor:
    """Sigmoid value prediction from final embeddings joined with code probs."""
    z = tape.concat([h, probs], axis=-1)
    p = params.by_name
    z = tape.relu(tape.linear(z, p["chead_w1"], p["chead_b1"]))
    out = tape.sigmoid(tape.linear(z, p["chead_w2"], p["chead_b2"]))
    return tape.reshape(out, out.shape[:-1])


def _canonical_perm(tokens, values, null_flags, pad_mask):
    """Row-wise content sort making reduction order independent of bag order."""
    perm = np.lexsort((values, null_flags, tokens, pad_mask), axis=-1)
    inv = np.argsort(perm, axis=-1)
    return perm, inv


def _encode_canonical(params: ModelParams, batch: Batch, keep=None):
    """Backbone output in canonical bag order, plus the inverse permutation.

    Everything downstream of the sort sees identical arrays for any input
    ordering of the same bag, which is what makes permutation equivariance
    bit-exact; callers undo the sort with `inv` as their last step.
    """
    cfg = params.config
    perm, inv = _canonical_perm(batch.tokens, batch.values, batch.null_flags, batch.pad_mask)
    rows = np.arange(batch.tokens.shape[0])[:, None]
    tokens = batch.tokens[rows, perm]
    nulls = batch.null_flags[rows, perm]
    pad = batch.pad_mask[rows, perm]

    if cfg.mode == MODE_CONTINUOUS:
        lookup = np.where(nulls, cfg.null_token, tokens)
        tok_emb = categorical_embed(lookup, params)
        x = continuous_embed(batch.values[rows, perm], tok_emb, nulls, params)
    else:
        x = categorical_embed(tokens, params)

    h = backbone_forward(x, pad, params, keep)
    return h, inv


def encode(params: ModelParams, batch: Batch, keep=None) -> TapeTensor:
    """Embed a batch and run the backbone; output order matches the input bags."""
    h, inv = _encode_canonical(params, batch, keep)
    return tape.permute_l(h, inv)


def forward_continuous(params: ModelParams, batch: Batch, keep=None):
    """(code_probs [b,L,C], value_preds [b,L]) for a continuous-mode batch."""
    if params.config.mode != MODE_CONTINUOUS:
        raise ConfigError(f"forward_continuous needs a continuous model, got {params.config.mode}")
    h, inv = _encode_canonical(params, batch, keep)
    probs = categorical_head(h, params)
    preds = continuous_head(h, probs, params)
    return tape.permute_l(probs, inv), tape.permute_l(preds, inv)


def forward_decile(params: ModelParams, batch: Batch, keep=None):
    """token_probs [b,L,V] for a decile-mode batch."""
    if params.config.mode != MODE_DECILE:
        raise ConfigError(f"forward_decile needs a decile model, got {params.config.mode}")
    h, inv = _encode_canonical(params, batch, keep)
    return tape.permute_l(categorical_head(h, params), inv)


def forward_masked(params: ModelParams, batch: Batch, keep=None):
    """Head outputs at the batch's masked positions only: (probs [m, C or V], preds).

    Row n is position (mask_rows[n], mask_cols[n]). preds [m] holds the
    continuous model's value predictions and is None for a decile model. The
    heads run on those m backbone rows alone, which is all the losses and the
    imputation report read; the rows equal the full forwards' outputs at the
    same positions up to rounding, since a GEMM over m rows may round
    differently from one over every position.
    """
    h, inv = _encode_canonical(params, batch, keep)
    rows = tape.take_bl(h, batch.mask_rows, inv[batch.mask_rows, batch.mask_cols])
    probs = categorical_head(rows, params)
    if params.config.mode == MODE_CONTINUOUS:
        return probs, continuous_head(rows, probs, params)
    return probs, None


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    """Single-file checkpoint: magic, JSON manifest, raw little-endian blob.

    The file appears at `path` only once it is complete.
    """
    named = params.named_tensors()
    dtype = "<f8" if params.dtype == np.float64 else "<f4"
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
    write_atomic(path, b"".join([CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION]),
                                 struct.pack("<I", len(manifest)), manifest, *blobs]))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint in the dtype it was saved in (<f4: float32, <f8: float64).

    A file that breaks the format raises FormatError.
    """
    with open(path, "rb") as fh:
        head = fh.read(9)
        if len(head) < 5 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic {head[:4]!r})")
        if head[4] != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {head[4]}")
        if len(head) < 9:
            raise FormatError(f"{path}: file ends inside the manifest length")
        try:
            manifest = json.loads(fh.read(struct.unpack("<I", head[5:])[0]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt manifest: {exc}") from None
        blob = fh.read()

    # A missing key or a wrong type anywhere in the manifest is a format fault too.
    try:
        config = ModelConfig.from_dict(manifest["config"])
        dtype = manifest["dtype"]
        if dtype not in ("<f8", "<f4"):
            raise FormatError(f"{path}: unsupported dtype {dtype!r}, expected '<f8' or '<f4'")
        spec = {name: shape for name, shape, _ in param_spec(config)}
        entries = {}
        for ent in manifest["tensors"]:
            if ent["name"] not in spec or ent["name"] in entries:
                raise FormatError(f"{path}: checkpoint has unexpected tensor {ent['name']!r}")
            entries[ent["name"]] = ent
        tensors, offset = {}, 0
        for name, shape in spec.items():
            if name not in entries:
                raise FormatError(f"{path}: checkpoint is missing tensor {name!r}")
            ent, size = entries[name], math.prod(shape)
            if tuple(ent["shape"]) != shape:
                raise FormatError(f"{path}: tensor {name!r} has shape {tuple(ent['shape'])}, "
                                  f"expected {shape}")
            # save_checkpoint packs tensors back to back in spec order, so
            # any other offset means overlapping or misplaced bytes.
            start, n = ent["offset"], ent["nbytes"]
            if start != offset or n != size * np.dtype(dtype).itemsize:
                raise FormatError(f"{path}: tensor {name!r} has offset {start} and {n} bytes, "
                                  f"expected offset {offset} and {size} {dtype} values")
            if start + n > len(blob):
                raise FormatError(f"{path}: tensor {name!r} extends past end of file")
            arr = np.frombuffer(blob, dtype=dtype, count=size, offset=start).reshape(shape)
            tensors[name] = TapeTensor(arr.copy(), trainable=True, name=name)
            offset += n
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: bad manifest: {exc!r}") from None
    return ModelParams(config, tensors)
