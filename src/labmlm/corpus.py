"""Lab-event tables, order-set bags, masking, shards, synthetic corpora.

Events are held as an `EventTable`: one row per event in typed numpy columns
(patient index, int64 chart time, code index, float64 value, has-value
flag), with patient and code ids factorized into lists. `read_event_table`
is the one CSV parser; `LabEvent` lists convert to and from tables at the
API boundary.

Events are grouped into bags by exact (patient_id, chart_time) equality; a bag
is the unit the models consume. Bags shorter than 3 are dropped. Values are
eCDF probabilities in [0,1]; a recorded event with no value carries a null
flag. Masking replaces the token with the vocabulary's mask token, zeroes the
value, and records the truth for the loss.

Shards are a framed binary format (magic ``LBSH``, version 1, little-endian
u32 length framing) so preprocess output streams straight into training.
Each record is a u32 payload length, then u32 event and mask counts, then
packed 13-byte event records (u32 token, f8 value, u8 flags: 1 null,
2 masked) and 17-byte mask records (u32 position, u32 truth token,
f8 truth value, u8 truth null). A shard is encoded and decoded whole
through numpy structured dtypes, and written atomically.
"""

from __future__ import annotations

import array
import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .ecdf import (
    MODE_CONTINUOUS,
    MODE_DECILE,
    PAD_TOKEN,
    CompressedECDF,
    Vocab,
    ecdf_apply_many,
)
from .errors import ConfigError, ContractError, DataError, FormatError

SHARD_MAGIC = b"LBSH"
SHARD_VERSION = 1
MIN_BAG_SIZE = 3

CSV_HEADER = ["patient_id", "chart_time", "code_id", "value"]
_INT64_MAX = 2**63 - 1
_U32_MAX = 2**32 - 1

# Record framing: u32 payload length, then the payload's u32 event and mask
# counts. Packed (align=False) dtypes, so they match the byte layout exactly.
_REC_HEAD = struct.Struct("<III")
_HEAD_DTYPE = np.dtype([("length", "<u4"), ("n_events", "<u4"), ("n_mask", "<u4")])
_EVENT_DTYPE = np.dtype([("token", "<u4"), ("value", "<f8"), ("flags", "u1")])
_MASK_DTYPE = np.dtype([("position", "<u4"), ("token", "<u4"), ("value", "<f8"), ("null", "u1")])
_PAYLOAD_HEAD = _REC_HEAD.size - 4


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
# Event tables and the event CSV


@dataclass
class EventTable:
    """Events as columns, one row per event.

    `patient` and `code` index `patient_ids` and `code_ids`, which list ids
    in order of first appearance; a table taken from another keeps its lists,
    so they may name ids that none of its rows use. `value` is 0.0 where
    `has_value` is False.
    """

    patient: np.ndarray      # [n] int64
    chart_time: np.ndarray   # [n] int64
    code: np.ndarray         # [n] int64
    value: np.ndarray        # [n] float64
    has_value: np.ndarray    # [n] bool
    patient_ids: list[str]
    code_ids: list[str]

    def __len__(self):
        return int(self.patient.size)

    def take(self, rows) -> EventTable:
        """The rows a boolean mask or an index array selects, in that order."""
        return EventTable(self.patient[rows], self.chart_time[rows], self.code[rows],
                          self.value[rows], self.has_value[rows],
                          self.patient_ids, self.code_ids)

    def values_by_code(self, skip=()) -> dict[str, np.ndarray]:
        """Recorded values of each code not in `skip`, in row order."""
        skipped = np.array([c in skip for c in self.code_ids], dtype=bool)
        keep = self.has_value & ~skipped[self.code]
        code, value = self.code[keep], self.value[keep]
        return {self.code_ids[c]: value[rows] for c, rows in _group_rows(code)}

    @staticmethod
    def from_events(events) -> EventTable:
        pids, codes = {}, {}
        n = len(events)
        return EventTable(
            np.fromiter((pids.setdefault(e.patient_id, len(pids)) for e in events), np.int64, n),
            np.fromiter((e.chart_time for e in events), np.int64, n),
            np.fromiter((codes.setdefault(e.code_id, len(codes)) for e in events), np.int64, n),
            np.fromiter((0.0 if e.value is None else e.value for e in events), np.float64, n),
            np.fromiter((e.value is not None for e in events), bool, n),
            list(pids), list(codes))

    def to_events(self) -> list[LabEvent]:
        pids, codes = self.patient_ids, self.code_ids
        return [LabEvent(pids[p], t, codes[c], v if h else None)
                for p, t, c, v, h in zip(self.patient.tolist(), self.chart_time.tolist(),
                                         self.code.tolist(), self.value.tolist(),
                                         self.has_value.tolist())]


def _as_table(events) -> EventTable:
    return events if isinstance(events, EventTable) else EventTable.from_events(events)


def _group_rows(keys):
    """(key, row indices in input order) for each distinct key, keys ascending."""
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return [(int(keys[rows[0]]), rows) for rows in np.split(order, cuts) if rows.size]


def _parse_chart_time(path, lineno, text) -> int:
    try:
        t = int(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: chart_time {text!r} is not an integer") from None
    if t < 0:
        raise DataError(f"{path}:{lineno}: negative chart_time")
    if t > _INT64_MAX:
        raise DataError(f"{path}:{lineno}: chart_time {text!r} does not fit in int64")
    return t


def read_event_table(path) -> EventTable:
    """Parse `patient_id,chart_time,code_id,value` rows; empty value = missing.

    Rows stream straight into typed columns. The first bad row raises a
    DataError naming `path:line`, with the first check it fails: field count,
    empty code_id, chart_time not an integer, negative or past int64, value
    not a number or not finite.
    """
    pids, codes, times = {}, {}, {}
    patient, chart_time, code, value = (array.array(t) for t in "qqqd")
    add_patient, add_time, add_code, add_value = (
        patient.append, chart_time.append, code.append, value.append)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DataError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            pid, t, c, v = row
            if not c:
                raise DataError(f"{path}:{lineno}: empty code_id")
            t_int = times.get(t)
            if t_int is None:
                t_int = times[t] = _parse_chart_time(path, lineno, t)
            if v:
                try:
                    x = float(v)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {v!r}") from None
                if not math.isfinite(x):
                    raise DataError(f"{path}:{lineno}: non-finite value {v!r}")
                add_value(x)
            else:
                add_value(math.nan)   # finite values only, so NaN marks a missing one
            p = pids.get(pid)
            if p is None:
                p = pids[pid] = len(pids)
            add_patient(p)
            add_time(t_int)
            k = codes.get(c)
            if k is None:
                k = codes[c] = len(codes)
            add_code(k)
    value = np.frombuffer(value, np.float64)
    has_value = ~np.isnan(value)
    value[~has_value] = 0.0
    return EventTable(np.frombuffer(patient, np.int64), np.frombuffer(chart_time, np.int64),
                      np.frombuffer(code, np.int64), value, has_value, list(pids), list(codes))


def read_events_csv(path) -> list[LabEvent]:
    """`read_event_table` as a list of LabEvents (None for a missing value)."""
    return read_event_table(path).to_events()


def write_events_csv(path, events) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for e in events:
            w.writerow([e.patient_id, e.chart_time, e.code_id, "" if e.value is None else repr(e.value)])


# ---------------------------------------------------------------------------
# Filtering, splitting, bagging


def filter_rare_codes(events, min_count: int = 500):
    """Drop every event whose code occurs min_count times or fewer.

    Takes an EventTable or a list of LabEvents and returns the same kind.
    """
    if min_count < 0:
        raise ConfigError(f"min_count must be >= 0, got {min_count}")
    table = _as_table(events)
    keep = np.bincount(table.code, minlength=len(table.code_ids))[table.code] > min_count
    if isinstance(events, EventTable):
        return table.take(keep)
    return [e for e, k in zip(events, keep.tolist()) if k]


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
    """Event count per code present, in order of first appearance."""
    table = _as_table(events)
    counts = np.bincount(table.code, minlength=len(table.code_ids))
    present, first = np.unique(table.code, return_index=True)
    return {table.code_ids[c]: int(counts[c]) for c in present[np.argsort(first)].tolist()}


def build_bags(events, vocab: Vocab, ecdfs: dict[str, CompressedECDF]):
    """Group events into bags and tokenize them under `vocab`.

    Takes an EventTable or a list of LabEvents. Returns (bags, stats). Bags
    come in (patient_id, chart_time) order, patient ids compared as strs,
    and keep their events in input order. Out-of-vocab events are dropped
    and counted; bags that end up shorter than 3 are dropped and counted
    before any value is looked up. In decile mode the eCDF probability is
    also kept in the value channel so imputation decoding can be scored
    against it; the decile model itself reads tokens only.
    """
    table = _as_table(events)
    codes = table.code_ids
    in_vocab = np.array([vocab.contains(c) for c in codes], dtype=bool)
    rows = np.flatnonzero(in_vocab[table.code])
    dropped_oov = len(table) - rows.size

    # lexsort is stable, so each bag keeps its events in input order.
    rank = np.empty(len(table.patient_ids), dtype=np.int64)
    rank[sorted(range(rank.size), key=table.patient_ids.__getitem__)] = np.arange(rank.size)
    rows = rows[np.lexsort((table.chart_time[rows], rank[table.patient[rows]]))]
    patient, chart_time = table.patient[rows], table.chart_time[rows]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (patient[1:] != patient[:-1]) | (chart_time[1:] != chart_time[:-1])
    sizes = np.diff(np.append(np.flatnonzero(first), rows.size))
    keep = sizes >= MIN_BAG_SIZE
    rows, sizes = rows[np.repeat(keep, sizes)], sizes[keep]

    code, value = table.code[rows], table.value[rows]
    has_ecdf = np.array([c in ecdfs for c in codes], dtype=bool)
    binary = np.array([vocab.mode == MODE_DECILE and c in vocab.binary_token for c in codes],
                      dtype=bool)
    mapped = table.has_value[rows] & has_ecdf[code]
    # Declared binary codes carry no meaningful value in decile mode.
    unmapped = table.has_value[rows] & ~has_ecdf[code] & ~binary[code]
    if unmapped.any():
        raise DataError(f"code {codes[code[np.argmax(unmapped)]]!r} has a value but no eCDF")
    probs = np.zeros(rows.size, dtype=np.float64)
    hit = np.flatnonzero(mapped)
    for c, at in _group_rows(code[hit]):
        probs[hit[at]] = ecdf_apply_many(ecdfs[codes[c]], value[hit[at]])

    if vocab.mode == MODE_CONTINUOUS:
        tokens = np.array([vocab.code_to_token.get(c, 0) for c in codes], dtype=np.int64)[code]
    else:
        block = np.array([vocab.block_start.get(c, 0) for c in codes], dtype=np.int64)
        single = np.array([vocab.binary_token.get(c, 0) for c in codes], dtype=np.int64)
        offset = np.where(mapped, np.minimum((probs * 10.0).astype(np.int64), 9), 10)
        tokens = np.where(binary[code], single[code], block[code] + offset)
    nulls = ~mapped

    ends = np.cumsum(sizes)
    starts = ends - sizes
    pids = table.patient_ids
    bags = [LabBag(pids[p], t, tokens[a:b], probs[a:b], nulls[a:b])
            for p, t, a, b in zip(table.patient[rows[starts]].tolist(),
                                  table.chart_time[rows[starts]].tolist(),
                                  starts.tolist(), ends.tolist())]
    stats = {
        "events_in": len(table),
        "events_dropped_oov": int(dropped_oov),
        "bags_kept": len(bags),
        "bags_dropped_small": int(keep.size - np.count_nonzero(keep)),
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
    lengths = np.array([len(bag) for bag in bags], dtype=np.int64)
    pad = np.arange(lengths.max()) >= lengths[:, None]
    fill = ~pad   # row-major, so bag after bag
    tokens = np.full(pad.shape, PAD_TOKEN, dtype=np.int64)
    values = np.zeros(pad.shape, dtype=np.float64)
    nulls = np.zeros(pad.shape, dtype=bool)
    tokens[fill] = np.concatenate([bag.tokens for bag in bags])
    values[fill] = np.concatenate([bag.values for bag in bags])
    nulls[fill] = np.concatenate([bag.null_flags for bag in bags])
    n_mask = [bag.mask_positions.size for bag in bags]
    return Batch(
        tokens, values, nulls, pad, lengths,
        np.repeat(np.arange(len(bags), dtype=np.int64), n_mask),
        np.concatenate([bag.mask_positions for bag in bags]).astype(np.int64),
        np.concatenate([bag.truth_tokens for bag in bags]).astype(np.int64),
        np.concatenate([bag.truth_values for bag in bags]).astype(np.float64),
        np.concatenate([bag.truth_nulls for bag in bags]).astype(bool),
    )


# ---------------------------------------------------------------------------
# Shards


def write_atomic(path, data: bytes) -> None:
    """Write `<path>.tmp` and rename it over `path`.

    An interrupted or failed write leaves the previous file whole and no
    temp file behind.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _byte_ranges(starts, sizes):
    """Indices of the byte ranges [start, start + size), concatenated."""
    sizes = np.broadcast_to(sizes, starts.shape)
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def _check_u32(what, a):
    if a.size and (a.min() < 0 or a.max() > _U32_MAX):
        raise ContractError(f"{what} outside the shard format's u32 range")
    return a


def _encode_shard(bags) -> bytes:
    n_events = np.array([len(bag) for bag in bags], dtype=np.int64)
    n_mask = np.array([bag.mask_positions.size for bag in bags], dtype=np.int64)
    positions = np.concatenate([bag.mask_positions for bag in bags]).astype(np.int64)
    own_length = np.repeat(n_events, n_mask)
    if np.any((positions < 0) | (positions >= own_length)):
        raise ContractError("mask position out of its bag's range")

    event_start = np.cumsum(n_events) - n_events
    masked = np.zeros(int(n_events.sum()), dtype=np.uint8)
    masked[np.repeat(event_start, n_mask) + positions] = 2
    events = np.empty(masked.size, dtype=_EVENT_DTYPE)
    events["token"] = _check_u32("token", np.concatenate([bag.tokens for bag in bags]))
    events["value"] = np.concatenate([bag.values for bag in bags])
    events["flags"] = np.concatenate([bag.null_flags for bag in bags]).astype(bool) | masked
    masks = np.empty(positions.size, dtype=_MASK_DTYPE)
    masks["position"] = positions
    masks["token"] = _check_u32("truth token", np.concatenate([bag.truth_tokens for bag in bags]))
    masks["value"] = np.concatenate([bag.truth_values for bag in bags])
    masks["null"] = np.concatenate([bag.truth_nulls for bag in bags]).astype(bool)

    event_bytes = n_events * _EVENT_DTYPE.itemsize
    mask_bytes = n_mask * _MASK_DTYPE.itemsize
    heads = np.empty(len(bags), dtype=_HEAD_DTYPE)
    heads["length"] = _PAYLOAD_HEAD + event_bytes + mask_bytes
    heads["n_events"] = n_events
    heads["n_mask"] = n_mask
    record_bytes = _HEAD_DTYPE.itemsize + event_bytes + mask_bytes
    head_at = np.cumsum(record_bytes) - record_bytes
    events_at = head_at + _HEAD_DTYPE.itemsize
    records = np.empty(int(record_bytes.sum()), dtype=np.uint8)
    records[_byte_ranges(head_at, _HEAD_DTYPE.itemsize)] = heads.view(np.uint8)
    records[_byte_ranges(events_at, event_bytes)] = events.view(np.uint8)
    records[_byte_ranges(events_at + event_bytes, mask_bytes)] = masks.view(np.uint8)
    return SHARD_MAGIC + bytes([SHARD_VERSION]) + records.tobytes()


def write_shards(bags, out_dir, shard_size: int = 1000, split: str = "train") -> list[ShardFile]:
    """Write bags into shard-NNNNN.bin files of at most shard_size records.

    Each shard is encoded whole and written atomically (`write_atomic`).
    """
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    os.makedirs(out_dir, exist_ok=True)
    bags = list(bags)
    shards = []
    for si in range(0, len(bags), shard_size):
        chunk = bags[si : si + shard_size]
        path = os.path.join(out_dir, f"shard-{si // shard_size:05d}.bin")
        write_atomic(path, _encode_shard(chunk))
        shards.append(ShardFile(path, len(chunk), split))
    return shards


def _frame_records(data: bytes, path):
    """Walk a shard's record framing.

    Returns ([(event offset, event count, mask count)] of the records before
    the first framing fault, that fault's message or None).
    """
    records, off = [], len(SHARD_MAGIC) + 1
    while off < len(data):
        i = len(records)
        if len(data) - off < 4:
            return records, f"{path}: truncated length field at byte {off} (record {i})"
        (length,) = struct.unpack_from("<I", data, off)
        if off + 4 + length > len(data):
            return records, f"{path}: truncated payload at byte {off} (record {i})"
        if length < _PAYLOAD_HEAD:
            return records, f"{path}: record {i} payload truncated"
        _, n_events, n_mask = _REC_HEAD.unpack_from(data, off)
        need = _PAYLOAD_HEAD + n_events * _EVENT_DTYPE.itemsize + n_mask * _MASK_DTYPE.itemsize
        if length < need:
            return records, f"{path}: record {i} payload truncated"
        if length > need:
            return records, f"{path}: record {i} has {length - need} trailing bytes"
        records.append((off + _REC_HEAD.size, n_events, n_mask))
        off += 4 + length
    return records, None


def _decode_shard(data: bytes, path) -> list[LabBag]:
    if len(data) < 5 or data[:4] != SHARD_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0: {data[:4]!r}")
    if data[4] != SHARD_VERSION:
        raise FormatError(f"{path}: unsupported version {data[4]} at byte 4")
    records, fault = _frame_records(data, path)
    offsets, n_events, n_mask = np.array(records, dtype=np.int64).reshape(-1, 3).T

    buf = np.frombuffer(data, dtype=np.uint8)
    event_bytes = n_events * _EVENT_DTYPE.itemsize
    events = buf[_byte_ranges(offsets, event_bytes)].view(_EVENT_DTYPE)
    masks = buf[_byte_ranges(offsets + event_bytes, n_mask * _MASK_DTYPE.itemsize)].view(_MASK_DTYPE)
    positions = masks["position"].astype(np.int64)

    # A record's mask records must list exactly its masked-flag events, in
    # order: as many of them, each in range and flagged, strictly increasing.
    n_records = n_events.size
    record = np.repeat(np.arange(n_records), n_mask)
    event_start = np.cumsum(n_events) - n_events
    masked = (events["flags"] & 2) != 0
    count = np.bincount(np.repeat(np.arange(n_records), n_events)[masked], minlength=n_records)
    ok = positions < n_events[record]
    ok[ok] = masked[(event_start[record] + positions)[ok]]
    ok[1:] &= (positions[1:] > positions[:-1]) | (record[1:] != record[:-1])
    bad = count != n_mask
    bad[record[~ok]] = True
    if bad.any():
        raise FormatError(f"{path}: record {int(np.argmax(bad))} mask flags disagree with mask records")
    if fault is not None:
        raise FormatError(fault)

    tokens = events["token"].astype(np.int64)
    values = events["value"].astype(np.float64)
    nulls = (events["flags"] & 1).astype(bool)
    truth_tokens = masks["token"].astype(np.int64)
    truth_values = masks["value"].astype(np.float64)
    truth_nulls = masks["null"] != 0
    mask_start = np.cumsum(n_mask) - n_mask
    # Patient metadata is not part of the shard format.
    return [LabBag("", 0, tokens[a:b], values[a:b], nulls[a:b], positions[c:d],
                   truth_tokens[c:d], truth_values[c:d], truth_nulls[c:d])
            for a, b, c, d in zip(event_start.tolist(), (event_start + n_events).tolist(),
                                  mask_start.tolist(), (mask_start + n_mask).tolist())]


def read_shards(shard_dir):
    """Yield bags from every shard-*.bin under shard_dir, in filename order.

    Each shard is read and decoded whole, so a corrupt shard raises its
    FormatError (naming the first bad record) before yielding any of its
    records.
    """
    if not os.path.isdir(shard_dir):
        raise DataError(f"shard directory {shard_dir!r} does not exist")
    names = sorted(n for n in os.listdir(shard_dir) if n.startswith("shard-") and n.endswith(".bin"))
    for name in names:
        path = os.path.join(shard_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        yield from _decode_shard(data, path)


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
