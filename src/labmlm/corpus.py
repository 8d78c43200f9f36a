"""Lab-event streams, order-set bags, masking, shards, synthetic corpora.

Events are grouped into bags by exact (patient_id, chart_time) equality; a bag
is the unit the models consume. Bags shorter than 3 are dropped. Values are
eCDF probabilities in [0,1]; a recorded event with no value carries a null
flag. Masking replaces the token with the vocabulary's mask token, zeroes the
value, and records the truth for the loss.

Shards are a framed binary format (magic ``LBSH``, version 1, little-endian
u32 length framing) so preprocess output streams straight into training.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .ecdf import (
    MODE_CONTINUOUS,
    MODE_DECILE,
    PAD_TOKEN,
    CompressedECDF,
    Vocab,
    ecdf_apply,
    value_to_decile_token,
)
from .errors import ConfigError, ContractError, DataError, FormatError

SHARD_MAGIC = b"LBSH"
SHARD_VERSION = 1
MIN_BAG_SIZE = 3

_REC_HEAD = struct.Struct("<II")
_REC_EVENT = struct.Struct("<IdB")
_REC_MASK = struct.Struct("<IIdB")


@dataclass(frozen=True)
class LabEvent:
    patient_id: str
    chart_time: int
    code_id: str
    value: float | None


@dataclass
class LabBag:
    """One order set: parallel token/value/null arrays plus masking state."""

    patient_id: str
    chart_time: int
    tokens: np.ndarray
    values: np.ndarray
    null_flags: np.ndarray
    mask_positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    truth_tokens: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    truth_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    truth_nulls: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __len__(self):
        return int(self.tokens.size)


def bag_payload_equal(a: LabBag, b: LabBag) -> bool:
    """Equality over the fields the shard format persists."""
    return (
        np.array_equal(a.tokens, b.tokens)
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.null_flags, b.null_flags)
        and np.array_equal(a.mask_positions, b.mask_positions)
        and np.array_equal(a.truth_tokens, b.truth_tokens)
        and np.array_equal(a.truth_values, b.truth_values)
        and np.array_equal(a.truth_nulls, b.truth_nulls)
    )


@dataclass(frozen=True)
class ShardFile:
    path: str
    count: int
    split: str


# ---------------------------------------------------------------------------
# Event CSV


def read_events_csv(path) -> list[LabEvent]:
    """Parse `patient_id,chart_time,code_id,value` rows; empty value = missing."""
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["patient_id", "chart_time", "code_id", "value"]:
            raise DataError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            pid, t, code, val = row
            if not code:
                raise DataError(f"{path}:{lineno}: empty code_id")
            try:
                t_int = int(t)
            except ValueError:
                raise DataError(f"{path}:{lineno}: chart_time {t!r} is not an integer") from None
            if t_int < 0:
                raise DataError(f"{path}:{lineno}: negative chart_time")
            if val == "":
                value = None
            else:
                try:
                    value = float(val)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {val!r}") from None
            events.append(LabEvent(pid, t_int, code, value))
    return events


def write_events_csv(path, events) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["patient_id", "chart_time", "code_id", "value"])
        for e in events:
            w.writerow([e.patient_id, e.chart_time, e.code_id, "" if e.value is None else repr(e.value)])


# ---------------------------------------------------------------------------
# Filtering, splitting, bagging


def filter_rare_codes(events, min_count: int = 500) -> list[LabEvent]:
    """Drop every event whose code occurs min_count times or fewer."""
    if min_count < 0:
        raise ConfigError(f"min_count must be >= 0, got {min_count}")
    counts = Counter(e.code_id for e in events)
    return [e for e in events if counts[e.code_id] > min_count]


def split_patients(patient_ids, fractions=(0.7, 0.1, 0.2), seed: int = 0):
    """Random disjoint patient partition with exact largest-remainder sizes."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be three non-negatives summing to 1, got {fractions}")
    ids = sorted(set(patient_ids))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n = len(ids)
    exact = [f * n for f in fr]
    sizes = [int(x) for x in exact]
    remainders = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[remainders[i % 3]] += 1
    shuffled = [ids[i] for i in order]
    a, b = sizes[0], sizes[0] + sizes[1]
    return set(shuffled[:a]), set(shuffled[a:b]), set(shuffled[b:])


def code_frequencies(events) -> dict[str, int]:
    return dict(Counter(e.code_id for e in events))


def build_bags(events, vocab: Vocab, ecdfs: dict[str, CompressedECDF]):
    """Group events into bags and tokenize them under `vocab`.

    Returns (bags, stats). Out-of-vocab events are dropped and counted; bags
    that end up shorter than 3 are dropped and counted. In decile mode the
    eCDF probability is also kept in the value channel so imputation decoding
    can be scored against it; the decile model itself reads tokens only.
    """
    groups: dict[tuple[str, int], list[LabEvent]] = {}
    dropped_oov = 0
    for e in events:
        if not vocab.contains(e.code_id):
            dropped_oov += 1
            continue
        groups.setdefault((e.patient_id, e.chart_time), []).append(e)

    bags = []
    dropped_small = 0
    for (pid, t), evs in sorted(groups.items()):
        if len(evs) < MIN_BAG_SIZE:
            dropped_small += 1
            continue
        L = len(evs)
        tokens = np.zeros(L, dtype=np.int64)
        values = np.zeros(L, dtype=np.float64)
        nulls = np.zeros(L, dtype=bool)
        for i, ev in enumerate(evs):
            p = None
            if ev.value is not None:
                e_cdf = ecdfs.get(ev.code_id)
                if e_cdf is None:
                    if vocab.mode == MODE_DECILE and ev.code_id in vocab.binary_token:
                        p = None  # declared binary: the value carries no meaning
                    else:
                        raise DataError(f"code {ev.code_id!r} has a value but no eCDF")
                else:
                    p = ecdf_apply(e_cdf, ev.value)
            if vocab.mode == MODE_CONTINUOUS:
                tokens[i] = vocab.token_for_code(ev.code_id)
            else:
                tokens[i] = value_to_decile_token(vocab, ev.code_id, p)
            values[i] = 0.0 if p is None else p
            nulls[i] = p is None
        bags.append(LabBag(pid, t, tokens, values, nulls))

    stats = {
        "events_in": len(events),
        "events_dropped_oov": dropped_oov,
        "bags_kept": len(bags),
        "bags_dropped_small": dropped_small,
    }
    return bags, stats


def mask_bag(bag: LabBag, mask_token: int, rng, n_mask: int = 1, positions=None) -> LabBag:
    """New bag with n_mask uniformly chosen positions masked and truth recorded.

    Masked positions get the mask token and value 0.0. `positions` overrides
    the random choice (used by the imputation evaluator).
    """
    L = len(bag)
    if not 1 <= n_mask <= L:
        raise ContractError(f"n_mask must be in [1, {L}], got {n_mask}")
    if positions is None:
        # Distinct and in range by construction.
        positions = np.sort(rng.choice(L, size=n_mask, replace=False))
    else:
        positions = np.sort(np.asarray(positions, dtype=np.int64))
        if positions.size != n_mask or np.any(positions[1:] == positions[:-1]):
            raise ContractError("mask positions must be distinct")
        if positions.size and (positions[0] < 0 or positions[-1] >= L):
            raise ContractError(f"mask position out of range [0, {L})")

    tokens = bag.tokens.copy()
    values = bag.values.copy()
    nulls = bag.null_flags.copy()
    truth_tokens = tokens[positions]
    truth_values = values[positions]
    truth_nulls = nulls[positions]
    tokens[positions] = mask_token
    values[positions] = 0.0
    nulls[positions] = False
    return LabBag(bag.patient_id, bag.chart_time, tokens, values, nulls,
                  positions, truth_tokens, truth_values, truth_nulls)


def unmask_bag(bag: LabBag) -> LabBag:
    """Restore the pre-mask bag from recorded truths."""
    tokens = bag.tokens.copy()
    values = bag.values.copy()
    nulls = bag.null_flags.copy()
    tokens[bag.mask_positions] = bag.truth_tokens
    values[bag.mask_positions] = bag.truth_values
    nulls[bag.mask_positions] = bag.truth_nulls
    return LabBag(bag.patient_id, bag.chart_time, tokens, values, nulls)


# ---------------------------------------------------------------------------
# Batching


@dataclass
class Batch:
    """Padded arrays for a list of bags plus flattened mask bookkeeping."""

    tokens: np.ndarray        # [b, L] int64, 0 at padding
    values: np.ndarray        # [b, L] float64, 0.0 at padding
    null_flags: np.ndarray    # [b, L] bool
    pad_mask: np.ndarray      # [b, L] bool, True at padding
    lengths: np.ndarray       # [b] int64
    mask_rows: np.ndarray     # [m] int64 batch row of each masked position
    mask_cols: np.ndarray     # [m] int64 position of each masked position
    truth_tokens: np.ndarray  # [m] int64
    truth_values: np.ndarray  # [m] float64
    truth_nulls: np.ndarray   # [m] bool


def pad_batch(bags) -> Batch:
    bags = list(bags)
    if not bags:
        raise ContractError("pad_batch needs at least one bag")
    b = len(bags)
    L = max(len(bag) for bag in bags)
    tokens = np.full((b, L), PAD_TOKEN, dtype=np.int64)
    values = np.zeros((b, L), dtype=np.float64)
    nulls = np.zeros((b, L), dtype=bool)
    pad = np.ones((b, L), dtype=bool)
    lengths = np.zeros(b, dtype=np.int64)
    rows, cols, tts, tvs, tns = [], [], [], [], []
    for i, bag in enumerate(bags):
        n = len(bag)
        tokens[i, :n] = bag.tokens
        values[i, :n] = bag.values
        nulls[i, :n] = bag.null_flags
        pad[i, :n] = False
        lengths[i] = n
        for j in range(bag.mask_positions.size):
            rows.append(i)
            cols.append(int(bag.mask_positions[j]))
            tts.append(int(bag.truth_tokens[j]))
            tvs.append(float(bag.truth_values[j]))
            tns.append(bool(bag.truth_nulls[j]))
    return Batch(
        tokens, values, nulls, pad, lengths,
        np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
        np.asarray(tts, dtype=np.int64), np.asarray(tvs, dtype=np.float64),
        np.asarray(tns, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Shards


def _encode_bag(bag: LabBag) -> bytes:
    L = len(bag)
    n_mask = int(bag.mask_positions.size)
    masked = np.zeros(L, dtype=bool)
    masked[bag.mask_positions] = True
    buf = io.BytesIO()
    buf.write(_REC_HEAD.pack(L, n_mask))
    for i in range(L):
        flags = (1 if bag.null_flags[i] else 0) | (2 if masked[i] else 0)
        buf.write(_REC_EVENT.pack(int(bag.tokens[i]), float(bag.values[i]), flags))
    for j in range(n_mask):
        buf.write(_REC_MASK.pack(
            int(bag.mask_positions[j]), int(bag.truth_tokens[j]),
            float(bag.truth_values[j]), 1 if bag.truth_nulls[j] else 0,
        ))
    return buf.getvalue()


def write_shards(bags, out_dir, shard_size: int = 1000, split: str = "train") -> list[ShardFile]:
    """Write bags into shard-NNNNN.bin files of at most shard_size records."""
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    os.makedirs(out_dir, exist_ok=True)
    bags = list(bags)
    shards = []
    for si in range(0, len(bags), shard_size):
        chunk = bags[si : si + shard_size]
        path = os.path.join(out_dir, f"shard-{si // shard_size:05d}.bin")
        with open(path, "wb") as fh:
            fh.write(SHARD_MAGIC)
            fh.write(bytes([SHARD_VERSION]))
            for bag in chunk:
                payload = _encode_bag(bag)
                fh.write(struct.pack("<I", len(payload)))
                fh.write(payload)
        shards.append(ShardFile(path, len(chunk), split))
    return shards


def _decode_bag(payload: bytes, path: str, record_index: int) -> LabBag:
    try:
        L, n_mask = _REC_HEAD.unpack_from(payload, 0)
        off = _REC_HEAD.size
        tokens = np.zeros(L, dtype=np.int64)
        values = np.zeros(L, dtype=np.float64)
        nulls = np.zeros(L, dtype=bool)
        masked_flag = np.zeros(L, dtype=bool)
        for i in range(L):
            tok, val, flags = _REC_EVENT.unpack_from(payload, off)
            off += _REC_EVENT.size
            tokens[i] = tok
            values[i] = val
            nulls[i] = bool(flags & 1)
            masked_flag[i] = bool(flags & 2)
        pos = np.zeros(n_mask, dtype=np.int64)
        tts = np.zeros(n_mask, dtype=np.int64)
        tvs = np.zeros(n_mask, dtype=np.float64)
        tns = np.zeros(n_mask, dtype=bool)
        for j in range(n_mask):
            p, tt, tv, tn = _REC_MASK.unpack_from(payload, off)
            off += _REC_MASK.size
            pos[j] = p
            tts[j] = tt
            tvs[j] = tv
            tns[j] = bool(tn)
    except struct.error:
        raise FormatError(f"{path}: record {record_index} payload truncated") from None
    if off != len(payload):
        raise FormatError(f"{path}: record {record_index} has {len(payload) - off} trailing bytes")
    if not np.array_equal(np.flatnonzero(masked_flag), pos):
        raise FormatError(f"{path}: record {record_index} mask flags disagree with mask records")
    # Patient metadata is not part of the shard format.
    return LabBag("", 0, tokens, values, nulls, pos, tts, tvs, tns)


def read_shards(shard_dir):
    """Yield bags from every shard-*.bin under shard_dir, in filename order."""
    if not os.path.isdir(shard_dir):
        raise DataError(f"shard directory {shard_dir!r} does not exist")
    names = sorted(n for n in os.listdir(shard_dir) if n.startswith("shard-") and n.endswith(".bin"))
    for name in names:
        path = os.path.join(shard_dir, name)
        with open(path, "rb") as fh:
            head = fh.read(5)
            if len(head) < 5 or head[:4] != SHARD_MAGIC:
                raise FormatError(f"{path}: bad magic at byte 0: {head[:4]!r}")
            if head[4] != SHARD_VERSION:
                raise FormatError(f"{path}: unsupported version {head[4]} at byte 4")
            record_index = 0
            while True:
                offset = fh.tell()
                raw_len = fh.read(4)
                if not raw_len:
                    break
                if len(raw_len) < 4:
                    raise FormatError(f"{path}: truncated length field at byte {offset} "
                                      f"(record {record_index})")
                (plen,) = struct.unpack("<I", raw_len)
                payload = fh.read(plen)
                if len(payload) < plen:
                    raise FormatError(f"{path}: truncated payload at byte {offset} "
                                      f"(record {record_index})")
                yield _decode_bag(payload, path, record_index)
                record_index += 1


# ---------------------------------------------------------------------------
# Synthetic data


def generate_synthetic_corpus(
    n_patients: int,
    n_codes: int,
    bag_rate: float = 3.0,
    latent_dim: int = 2,
    seed: int = 0,
    loadings_seed: int | None = None,
    loadings=None,
    sigmas=None,
    n_panels: int | None = None,
    min_bag: int = MIN_BAG_SIZE,
    max_bag: int | None = None,
    missing_rate: float = 0.0,
):
    """Latent-factor lab corpus with known structure.

    Each (patient, time) draws z ~ N(0, I); the raw value of code j is
    a_j . z + sigma_j * noise. Bags are random subsets of codes, or, with
    `n_panels`, subsets of one code panel (codes assigned round-robin), which
    makes the masked code predictable from its companions. Returns
    (events, truth) where truth = {"codes": [{"id", "loadings", "sigma"}]}.
    """
    if n_codes < 3:
        raise ConfigError(f"need at least 3 codes, got {n_codes}")
    rng = np.random.default_rng(seed)
    lrng = np.random.default_rng(seed if loadings_seed is None else loadings_seed)

    code_ids = [f"C{j:03d}" for j in range(n_codes)]
    if loadings is None:
        direction = lrng.normal(size=(n_codes, latent_dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        loadings = direction
    else:
        loadings = np.asarray(loadings, dtype=np.float64)
    if sigmas is None:
        sigmas = np.full(n_codes, 0.1)
    else:
        sigmas = np.asarray(sigmas, dtype=np.float64)

    panels = None
    if n_panels is not None:
        panels = [list(range(p, n_codes, n_panels)) for p in range(n_panels)]
        smallest = min(len(p) for p in panels)
        if smallest < min_bag:
            raise ConfigError(f"panel of {smallest} codes cannot host bags of {min_bag}")

    hi = n_codes if max_bag is None else min(max_bag, n_codes)
    events = []
    for pi in range(n_patients):
        pid = f"P{pi:05d}"
        n_bags = max(1, int(rng.poisson(bag_rate)))
        for k in range(n_bags):
            z = rng.normal(size=latent_dim)
            if panels is None:
                pool = np.arange(n_codes)
            else:
                pool = np.asarray(panels[int(rng.integers(len(panels)))])
            size = int(rng.integers(min_bag, min(hi, len(pool)) + 1))
            chosen = rng.choice(pool, size=size, replace=False)
            for j in chosen:
                if missing_rate > 0.0 and rng.random() < missing_rate:
                    value = None
                else:
                    value = float(loadings[j] @ z + sigmas[j] * rng.normal())
                events.append(LabEvent(pid, 3600 * (k + 1), code_ids[j], value))

    truth = {
        "codes": [
            {"id": code_ids[j], "loadings": [float(x) for x in loadings[j]], "sigma": float(sigmas[j])}
            for j in range(n_codes)
        ]
    }
    return events, truth


def generate_outcome_dataset(truth: dict, n_samples: int, seed: int = 0,
                             task: str = "binary", noise: float = 0.25, n_classes: int = 3):
    """Labeled rows whose lab values share the corpus' latent structure.

    Returns (lab_values [n, n_codes] raw floats, labels, code_ids). The label
    depends on the first latent coordinate, so a model that recovers the
    latent state from the labs can predict it.
    """
    codes = truth["codes"]
    code_ids = [c["id"] for c in codes]
    loadings = np.asarray([c["loadings"] for c in codes])
    sigmas = np.asarray([c["sigma"] for c in codes])
    latent_dim = loadings.shape[1]
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_samples, latent_dim))
    vals = z @ loadings.T + sigmas[None, :] * rng.normal(size=(n_samples, len(codes)))
    signal = z[:, 0] + noise * rng.normal(size=n_samples)
    if task == "binary":
        labels = (signal > 0).astype(np.int64)
    elif task == "multiclass":
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        labels = np.digitize(signal, edges).astype(np.int64)
    elif task == "regression":
        labels = signal.astype(np.float64)
    else:
        raise ConfigError(f"unknown task {task!r}")
    return vals, labels, code_ids


def write_outcome_csv(csv_path, sidecar_path, lab_values, labels, code_ids,
                      extras=None, extra_names=()) -> None:
    """Fine-tuning dataset CSV plus its JSON sidecar declaring column roles."""
    import json

    lab_values = np.asarray(lab_values)
    extras = None if extras is None else np.asarray(extras)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", *code_ids, *extra_names])
        for i in range(lab_values.shape[0]):
            row = [repr(float(labels[i])) if isinstance(labels[i], (float, np.floating)) else int(labels[i])]
            for v in lab_values[i]:
                row.append("" if np.isnan(v) else repr(float(v)))
            if extras is not None:
                row.extend(repr(float(x)) for x in extras[i])
            w.writerow(row)
    with open(sidecar_path, "w") as fh:
        json.dump({"label": "label", "lab_codes": list(code_ids),
                   "extra_features": list(extra_names)}, fh, sort_keys=True)
