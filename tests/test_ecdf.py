"""eCDF transform and vocabulary construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labmlm.ecdf import (
    CompressedECDF,
    Vocab,
    build_continuous_vocab,
    build_decile_vocab,
    build_ecdf,
    ecdf_apply,
    ecdf_apply_many,
    ecdf_invert,
    load_ecdfs,
    save_ecdfs,
)
from labmlm.corpus import LabEvent, build_bags
from labmlm.errors import ConfigError, ContractError, DataError, VocabError


def _rank_oracle(raw, x):
    """Uncompressed step-function eCDF: count of raw observations <= x over n."""
    raw = np.asarray(raw)
    return float(np.sum(raw <= x)) / raw.size


class TestBuildECDF:
    def test_counting_definition(self):
        e = build_ecdf("A", [1, 2, 2, 4])
        np.testing.assert_array_equal(e.values, [1, 2, 4])
        np.testing.assert_array_equal(e.probs, [0.25, 0.75, 1.0])
        assert e.n_train == 4

    def test_single_value(self):
        e = build_ecdf("A", [5])
        np.testing.assert_array_equal(e.values, [5.0])
        np.testing.assert_array_equal(e.probs, [1.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_ecdf("A", [])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            build_ecdf("A", [1.0, np.nan])

    def test_invariants_on_random_input(self):
        rng = np.random.default_rng(0)
        e = build_ecdf("A", rng.normal(size=500).round(1))
        assert np.all(np.diff(e.values) > 0)
        assert np.all(np.diff(e.probs) > 0)
        assert e.probs[-1] == 1.0

    def test_lossless_vs_full_rank_oracle(self):
        """Compressed apply equals count(<=x)/n on every training point."""
        rng = np.random.default_rng(1)
        raw = np.concatenate([rng.normal(size=5000), rng.normal(size=5000).round(2)])
        e = build_ecdf("A", raw)
        got = ecdf_apply_many(e, raw)
        want = np.searchsorted(np.sort(raw), raw, side="right") / raw.size
        np.testing.assert_array_equal(got, want)


class TestApply:
    def test_training_point(self):
        e = build_ecdf("A", [1, 2, 2, 4])
        assert ecdf_apply(e, 2) == 0.75

    def test_below_support(self):
        e = build_ecdf("A", [1, 2, 2, 4])
        assert ecdf_apply(e, 0.5) == 0.0

    def test_between_uniques_uses_step_function(self):
        raw = [1, 2, 2, 4]
        e = build_ecdf("A", raw)
        assert ecdf_apply(e, 3) == _rank_oracle(raw, 3) == 0.75

    def test_above_support(self):
        e = build_ecdf("A", [1, 2, 2, 4])
        assert ecdf_apply(e, 100.0) == 1.0

    def test_nan_rejected(self):
        e = build_ecdf("A", [1.0])
        with pytest.raises(DataError):
            ecdf_apply(e, float("nan"))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40), st.data())
    def test_monotone(self, raw, data):
        e = build_ecdf("A", raw)
        a = data.draw(st.floats(-200, 200))
        b = data.draw(st.floats(-200, 200))
        lo, hi = min(a, b), max(a, b)
        assert ecdf_apply(e, lo) <= ecdf_apply(e, hi)


class TestInvert:
    def test_examples(self):
        e = build_ecdf("A", [1, 2, 2, 4])
        assert ecdf_invert(e, 0.75) == 2
        assert ecdf_invert(e, 0.0) == 1
        assert ecdf_invert(e, 1.0) == 4

    def test_out_of_range_rejected(self):
        e = build_ecdf("A", [1.0])
        for p in (-0.01, 1.01):
            with pytest.raises(ContractError):
                ecdf_invert(e, p)

    def test_round_trip_on_training_values(self):
        """invert(apply(x)) recovers x's equivalence-class representative."""
        rng = np.random.default_rng(2)
        raw = rng.normal(size=300).round(1)
        e = build_ecdf("A", raw)
        for x in raw:
            assert ecdf_invert(e, ecdf_apply(e, x)) == x

    def test_monotone(self):
        rng = np.random.default_rng(3)
        e = build_ecdf("A", rng.normal(size=100))
        ps = np.linspace(0, 1, 41)
        vals = [ecdf_invert(e, p) for p in ps]
        assert np.all(np.diff(vals) >= 0)


class TestSerialization:
    def test_ecdf_json_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        ecdfs = {c: build_ecdf(c, rng.normal(size=50)) for c in ("A", "B")}
        path = tmp_path / "ecdfs.json"
        save_ecdfs(path, ecdfs)
        loaded = load_ecdfs(path)
        for c in ecdfs:
            np.testing.assert_array_equal(loaded[c].values, ecdfs[c].values)
            np.testing.assert_array_equal(loaded[c].probs, ecdfs[c].probs)
            assert loaded[c].n_train == ecdfs[c].n_train

    def test_vocab_json_round_trip(self, tmp_path):
        cont = build_continuous_vocab({"A": 10, "B": 5})
        path = tmp_path / "vocab.json"
        cont.save(path)
        back = Vocab.load(path)
        assert back.code_to_token == cont.code_to_token
        assert back.mask_token == cont.mask_token and back.null_token == cont.null_token

        ecdfs = {c: build_ecdf(c, range(10)) for c in ("A", "B")}
        dec = build_decile_vocab(ecdfs, {"A": 10, "B": 5, "Z": 1}, binary_codes={"Z"})
        dec.save(path)
        back = Vocab.load(path)
        assert back.block_start == dec.block_start
        assert back.binary_token == dec.binary_token
        assert back.mask_token == dec.mask_token
        assert back.decile_bounds == dec.decile_bounds


class TestContinuousVocab:
    def test_direct_ranking(self):
        v = build_continuous_vocab({"A": 10, "B": 5, "C": 1})
        assert v.code_to_token == {"A": 1, "B": 2, "C": 3}
        assert v.mask_token == 4 and v.null_token == 5
        assert v.vocab_size == 5

    def test_most_frequent_code_gets_token_one(self):
        counts = {f"C{i}": 1000 - i for i in range(529)}
        v = build_continuous_vocab(counts)
        assert v.token_for_code("C0") == 1
        assert v.mask_token == 530 and v.null_token == 531

    def test_frequency_tie_broken_by_code_id(self):
        v1 = build_continuous_vocab({"B": 5, "A": 5, "C": 9})
        v2 = build_continuous_vocab({"A": 5, "C": 9, "B": 5})
        assert v1.code_to_token == v2.code_to_token == {"C": 1, "A": 2, "B": 3}

    def test_bijective_maps(self):
        v = build_continuous_vocab({"A": 3, "B": 2, "C": 1})
        for code, tok in v.code_to_token.items():
            assert v.code_for_token(tok) == code
        with pytest.raises(VocabError):
            v.code_for_token(v.mask_token)


class TestDecileVocab:
    def _vocab(self, n_numeric, n_binary=0):
        counts = {}
        for i in range(n_numeric):
            counts[f"N{i:03d}"] = 10_000 - i
        for j in range(n_binary):
            counts[f"B{j:03d}"] = 100 - j
        ecdfs = {c: build_ecdf(c, range(100)) for c in counts if c.startswith("N")}
        return build_decile_vocab(ecdfs, counts, binary_codes={c for c in counts if c.startswith("B")})

    def test_block_layout(self):
        v = self._vocab(2)
        assert v.decile_block("N000") == (1, 11)
        assert v.code_for_token(11) == "N000"       # the missing-value slot
        assert v.decile_block("N001") == (12, 22)
        assert v.code_for_token(22) == "N001"
        assert v.mask_token == 23

    def test_single_numeric_code(self):
        v = self._vocab(1)
        assert v.mask_token == 12
        assert v.vocab_size == 12  # 11-token block + mask

    def test_full_scale_arithmetic(self):
        v = self._vocab(372, 157)
        assert v.vocab_size == 372 * 11 + 157 + 1  # = 4250 including mask

    def test_missing_ecdf_rejected(self):
        with pytest.raises(ConfigError):
            build_decile_vocab({}, {"A": 3})

    def test_blocks_disjoint_and_bijective(self):
        v = self._vocab(5, 3)
        seen = {}
        for code in v.block_start:
            start, end = v.decile_block(code)
            for t in range(start, end + 1):      # ten deciles, then the missing slot
                assert t not in seen
                seen[t] = code
                assert v.code_for_token(t) == code
        for code, t in v.binary_token.items():
            assert t not in seen
            seen[t] = code
        assert sorted(seen) == list(range(1, v.mask_token))


class TestDecileTokens:
    """Decile tokens as `build_bags` assigns them from each value's eCDF probability."""

    def _tokens(self, values):
        counts = {"A": 10, "B": 5}
        ecdfs = {c: build_ecdf(c, range(10)) for c in counts}
        v = build_decile_vocab(ecdfs, counts)
        events = [LabEvent("P", 0, "A", x) for x in values] + [LabEvent("P", 0, "B", 1.0)] * 2
        (bag,), _ = build_bags(events, v, ecdfs)
        return v, bag.tokens[: len(values)]

    def test_boundaries(self):
        v, tokens = self._tokens([-1.0, 9.0, 2.5, None])    # p = 0, 1 (clamped), 0.3, missing
        start, _ = v.decile_block("A")
        assert tokens.tolist() == [start, start + 9, start + 3, start + 10]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5.0, 15.0))
    def test_every_probability_maps_into_the_block(self, x):
        v, tokens = self._tokens([x])
        start, end = v.decile_block("A")
        assert start <= tokens[0] < end
