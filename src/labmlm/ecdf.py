"""Per-code empirical CDFs and the two token vocabularies.

Lab values are mapped to [0,1] through the eCDF of their code, computed on the
training split only. The eCDF is stored compressed (unique values + cumulative
probabilities), which is lossless: querying any training observation gives
exactly rank/n.

Two tokenization schemes share this module:

- continuous: each code is one token, ranked by descending training frequency
  and indexed at 1; two specials follow the codes (mask = C+1, null = C+2).
  Values stay continuous and ride in a separate channel.
- decile: each numeric code owns a block of 11 consecutive tokens (10 eCDF
  deciles + 1 missing), binary codes own a single token, blocks ordered by
  descending frequency, and one global mask token closes the vocabulary.
  Token 0 is reserved for padding in both schemes and is never assigned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError, VocabError

MODE_CONTINUOUS = "continuous"
MODE_DECILE = "decile"
PAD_TOKEN = 0


@dataclass(frozen=True)
class CompressedECDF:
    """Empirical CDF of one code, stored as unique values + cumulative probs."""

    code_id: str
    values: np.ndarray
    probs: np.ndarray
    n_train: int


def build_ecdf(code_id: str, values) -> CompressedECDF:
    """Compress raw training observations of one code into an eCDF.

    Args:
        code_id: the lab code these observations belong to.
        values: at least one finite float.

    Returns:
        CompressedECDF with strictly increasing unique values and cumulative
        probabilities p_i = (#observations <= v_i) / n, final prob exactly 1.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DataError(f"code {code_id!r}: cannot build an eCDF from zero observations")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"code {code_id!r}: non-finite value in eCDF input")
    uniq, counts = np.unique(arr, return_counts=True)
    probs = np.cumsum(counts) / arr.size
    probs[-1] = 1.0
    return CompressedECDF(code_id, uniq, probs, int(arr.size))


def ecdf_apply(e: CompressedECDF, x: float) -> float:
    """Fraction of training observations <= x; 0.0 below the support."""
    return float(ecdf_apply_many(e, x))


def ecdf_apply_many(e: CompressedECDF, xs) -> np.ndarray:
    """`ecdf_apply` elementwise over an array of queries; NaN raises DataError."""
    xs = np.asarray(xs, dtype=np.float64)
    if np.isnan(xs).any():
        raise DataError(f"code {e.code_id!r}: NaN query to ecdf_apply")
    idx = np.searchsorted(e.values, xs, side="right")
    return np.where(idx > 0, e.probs[idx - 1], 0.0)


def ecdf_invert(e: CompressedECDF, p: float) -> float:
    """Smallest unique training value whose cumulative probability >= p."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"ecdf_invert needs p in [0, 1], got {p}")
    idx = np.searchsorted(e.probs, p, side="left")
    if idx >= e.values.size:
        idx = e.values.size - 1
    return float(e.values[idx])


def save_ecdfs(path, ecdfs: dict[str, CompressedECDF]) -> None:
    entries = [
        {
            "code": code,
            "n": e.n_train,
            "values": e.values.tolist(),
            "probs": e.probs.tolist(),
        }
        for code, e in sorted(ecdfs.items())
    ]
    with open(path, "w") as fh:
        fh.write(json.dumps(entries, sort_keys=True))


def load_ecdfs(path) -> dict[str, CompressedECDF]:
    with open(path) as fh:
        entries = json.load(fh)
    out = {}
    for ent in entries:
        out[ent["code"]] = CompressedECDF(
            ent["code"],
            np.asarray(ent["values"], dtype=np.float64),
            np.asarray(ent["probs"], dtype=np.float64),
            int(ent["n"]),
        )
    return out


# ---------------------------------------------------------------------------
# Vocabularies


def _rank_codes(code_counts: dict[str, int]) -> list[str]:
    # Descending frequency; ties broken by ascending raw code id for
    # deterministic builds.
    return [c for c, _ in sorted(code_counts.items(), key=lambda kv: (-kv[1], kv[0]))]


@dataclass
class Vocab:
    """Token assignments for one scheme; immutable after construction."""

    mode: str
    codes: list[str]
    code_to_token: dict[str, int] = field(default_factory=dict)
    block_start: dict[str, int] = field(default_factory=dict)
    binary_token: dict[str, int] = field(default_factory=dict)
    mask_token: int = 0
    null_token: int | None = None
    decile_bounds: dict[str, list[float]] = field(default_factory=dict)
    _token_to_code: dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def vocab_size(self) -> int:
        """Number of assigned tokens, excluding the reserved pad id 0."""
        top = self.mask_token
        if self.null_token is not None:
            top = max(top, self.null_token)
        return top

    @property
    def num_codes(self) -> int:
        return len(self.codes)

    def token_for_code(self, code: str) -> int:
        if self.mode != MODE_CONTINUOUS:
            raise VocabError("token_for_code is a continuous-mode lookup")
        try:
            return self.code_to_token[code]
        except KeyError:
            raise VocabError(f"unknown code {code!r}") from None

    def code_for_token(self, token: int) -> str:
        try:
            return self._token_to_code[int(token)]
        except KeyError:
            raise VocabError(f"token {token} maps to no code") from None

    def is_numeric(self, code: str) -> bool:
        return code in self.block_start if self.mode == MODE_DECILE else code in self.code_to_token

    def decile_block(self, code: str) -> tuple[int, int]:
        """[start, end) token range of a numeric code's 10 decile tokens."""
        try:
            start = self.block_start[code]
        except KeyError:
            raise VocabError(f"code {code!r} has no decile block") from None
        return start, start + 10

    def contains(self, code: str) -> bool:
        return code in self.code_to_token or code in self.block_start or code in self.binary_token

    def to_json(self) -> dict:
        out = {"mode": self.mode, "codes": self.codes, "mask_token": self.mask_token}
        if self.mode == MODE_CONTINUOUS:
            out["code_to_token"] = self.code_to_token
            out["null_token"] = self.null_token
        else:
            out["block_start"] = self.block_start
            out["binary_token"] = self.binary_token
            out["decile_bounds"] = self.decile_bounds
        return out

    @staticmethod
    def from_json(d: dict) -> "Vocab":
        mode = d["mode"]
        if mode == MODE_CONTINUOUS:
            v = Vocab(
                mode=mode,
                codes=list(d["codes"]),
                code_to_token={k: int(t) for k, t in d["code_to_token"].items()},
                mask_token=int(d["mask_token"]),
                null_token=int(d["null_token"]),
            )
        elif mode == MODE_DECILE:
            v = Vocab(
                mode=mode,
                codes=list(d["codes"]),
                block_start={k: int(t) for k, t in d["block_start"].items()},
                binary_token={k: int(t) for k, t in d["binary_token"].items()},
                mask_token=int(d["mask_token"]),
                decile_bounds={k: [float(x) for x in b] for k, b in d["decile_bounds"].items()},
            )
        else:
            raise ConfigError(f"unknown vocab mode {mode!r}")
        v._index_tokens()
        return v

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True))

    @staticmethod
    def load(path) -> "Vocab":
        with open(path) as fh:
            return Vocab.from_json(json.load(fh))

    def _index_tokens(self) -> None:
        t2c = {}
        for code, tok in self.code_to_token.items():
            t2c[tok] = code
        for code, start in self.block_start.items():
            for t in range(start, start + 11):
                t2c[t] = code
        for code, tok in self.binary_token.items():
            t2c[tok] = code
        self._token_to_code = t2c


def build_continuous_vocab(code_counts: dict[str, int]) -> Vocab:
    """Frequency-ranked code tokens starting at 1, then mask and null specials."""
    if not code_counts:
        raise DataError("cannot build a vocabulary from an empty frequency table")
    ranked = _rank_codes(code_counts)
    code_to_token = {c: i + 1 for i, c in enumerate(ranked)}
    n = len(ranked)
    v = Vocab(
        mode=MODE_CONTINUOUS,
        codes=ranked,
        code_to_token=code_to_token,
        mask_token=n + 1,
        null_token=n + 2,
    )
    v._index_tokens()
    return v


def build_decile_vocab(
    ecdfs: dict[str, CompressedECDF],
    code_counts: dict[str, int],
    binary_codes=(),
) -> Vocab:
    """Blocks of 11 tokens per numeric code, 1 per binary code, then mask.

    Numeric codes must come with an eCDF (their decile boundaries are stored
    for reporting); binariness is declared via `binary_codes`, never inferred.
    """
    if not code_counts:
        raise DataError("cannot build a vocabulary from an empty frequency table")
    binary = set(binary_codes)
    ranked = _rank_codes(code_counts)
    block_start: dict[str, int] = {}
    binary_token: dict[str, int] = {}
    bounds: dict[str, list[float]] = {}
    next_token = 1
    for code in ranked:
        if code in binary:
            binary_token[code] = next_token
            next_token += 1
            continue
        e = ecdfs.get(code)
        if e is None:
            raise ConfigError(f"numeric code {code!r} has no eCDF; cannot lay out decile block")
        block_start[code] = next_token
        next_token += 11
        bounds[code] = [ecdf_invert(e, d / 10.0) for d in range(10)]
    v = Vocab(
        mode=MODE_DECILE,
        codes=ranked,
        block_start=block_start,
        binary_token=binary_token,
        mask_token=next_token,
        decile_bounds=bounds,
    )
    v._index_tokens()
    return v
