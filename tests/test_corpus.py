"""Event ingestion, bagging, masking, padding, shards, synthetic data."""

import hashlib
import os
import re
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labmlm import corpus
from labmlm.corpus import (
    EventTable,
    LabBag,
    LabEvent,
    bag_payload_equal,
    build_bags,
    filter_rare_codes,
    generate_synthetic_corpus,
    mask_bag,
    pad_batch,
    read_event_table,
    read_events_csv,
    read_shards,
    split_patients,
    unmask_bag,
    write_events_csv,
    write_shards,
)
from labmlm.ecdf import build_continuous_vocab, build_decile_vocab, build_ecdf, ecdf_apply
from labmlm.errors import ConfigError, ContractError, DataError, FormatError


def _toy_vocab_and_ecdfs():
    counts = {"A": 30, "B": 20, "C": 10}
    ecdfs = {c: build_ecdf(c, np.arange(1, 11, dtype=float)) for c in counts}
    return build_continuous_vocab(counts), ecdfs


def _toy_bags(n, rng, vocab, L=4):
    bags = []
    for i in range(n):
        tokens = rng.integers(1, vocab.num_codes + 1, size=L)
        values = rng.random(L)
        nulls = rng.random(L) < 0.2
        values[nulls] = 0.0
        bags.append(LabBag(f"P{i}", 3600, tokens.astype(np.int64), values, nulls))
    return bags


MESSY_CODES = ("A", "B", "C", "D", "BIN", "FLAG", "Z9")   # Z9 is out of vocabulary


def _messy_corpus(seed):
    """Shuffled events with out-of-vocab codes, duplicate codes in a bag,
    missing values, bags shorter than 3 and two declared binary codes.

    Returns (events, {mode: (vocab, ecdfs)}). BIN has an eCDF in both modes;
    FLAG has one only in continuous mode, so in decile mode its values are
    ignored.
    """
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(300):
        pid = f"P{int(rng.integers(30))}"   # "P10" sorts before "P2"
        t = 3600 * int(rng.integers(4))
        for _ in range(int(rng.integers(1, 7))):
            code = MESSY_CODES[int(rng.integers(len(MESSY_CODES)))]
            value = None if rng.random() < 0.2 else round(float(rng.normal()), 2)
            events.append(LabEvent(pid, t, code, value))
    events = [events[i] for i in rng.permutation(len(events))]
    in_vocab = [e for e in events if e.code_id != "Z9"]
    counts = corpus.code_frequencies(in_vocab)
    # eCDFs from the first half only, so later values fall outside the support.
    by_code = {}
    for e in in_vocab[: len(in_vocab) // 2]:
        if e.value is not None:
            by_code.setdefault(e.code_id, []).append(e.value)
    ecdfs = {c: build_ecdf(c, v) for c, v in sorted(by_code.items())}
    decile_ecdfs = {c: e for c, e in ecdfs.items() if c != "FLAG"}
    return events, {
        "continuous": (build_continuous_vocab(counts), ecdfs),
        "decile": (build_decile_vocab(decile_ecdfs, counts, ("BIN", "FLAG")), decile_ecdfs),
    }


def _bags_digest(h, bags, stats):
    h.update(repr(sorted(stats.items())).encode())
    for bag in bags:
        h.update(repr((bag.patient_id, bag.chart_time)).encode())
        for a in (bag.tokens, bag.values, bag.null_flags):
            h.update(a.dtype.str.encode() + a.tobytes())


def _bags_equal(a, b):
    (bags_a, stats_a), (bags_b, stats_b) = a, b
    return stats_a == stats_b and len(bags_a) == len(bags_b) and all(
        x.patient_id == y.patient_id and x.chart_time == y.chart_time
        and all(u.dtype == v.dtype for u, v in ((x.tokens, y.tokens), (x.values, y.values),
                                                (x.null_flags, y.null_flags)))
        and bag_payload_equal(x, y)
        for x, y in zip(bags_a, bags_b))


class TestEventsCSV:
    def test_round_trip(self, tmp_path):
        events = [
            LabEvent("P1", 0, "A", 1.25),
            LabEvent("P1", 3600, "B", None),
            LabEvent("P2", 60, "C", -3.5),
        ]
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        assert read_events_csv(path) == events

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient_id,chart_time,code_id,value\nP1,notatime,A,1.0\n")
        with pytest.raises(DataError, match="2"):
            read_events_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(DataError):
            read_events_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("P1,0,A", "expected 4 fields, got 3"),
        ("P1,0,A,1.0,x", "expected 4 fields, got 5"),
        ("P1,0,,1.0", "empty code_id"),
        ("P1,1.5,A,1.0", "chart_time '1.5' is not an integer"),
        ("P1,-5,A,1.0", "negative chart_time"),
        ("P1,9223372036854775808,A,1.0",
         "chart_time '9223372036854775808' does not fit in int64"),
        ("P1,0,A,abc", "bad value 'abc'"),
        ("P1,0,A,nan", "non-finite value 'nan'"),
        ("P1,0,A,inf", "non-finite value 'inf'"),
        ("P1,0,A,-Infinity", "non-finite value '-Infinity'"),
        # Within a row the first failing check wins.
        ("P1,x,,abc", "empty code_id"),
        ("P1,x,A,abc", "chart_time 'x' is not an integer"),
        ("P1,-1,A,nan", "negative chart_time"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"patient_id,chart_time,code_id,value\nP0,3600,A,1.0\n{row}\n"
                        "P2,-1,A,nan\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_event_table(path)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_events_csv(path)

    def test_largest_int64_chart_time_accepted(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("patient_id,chart_time,code_id,value\nP1,9223372036854775807,A,\n")
        table = read_event_table(path)
        assert table.chart_time.tolist() == [2**63 - 1]
        assert read_events_csv(path) == [LabEvent("P1", 2**63 - 1, "A", None)]

    def test_table_columns(self, tmp_path):
        events = [LabEvent("Q", 7, "B", 2.5), LabEvent("P", 0, "A", None),
                  LabEvent("Q", 7, "A", -1.0)]
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        t = read_event_table(path)
        assert (t.patient_ids, t.code_ids) == (["Q", "P"], ["B", "A"])
        assert t.patient.tolist() == [0, 1, 0] and t.code.tolist() == [0, 1, 1]
        assert t.chart_time.dtype == np.int64 and t.chart_time.tolist() == [7, 0, 7]
        assert t.value.dtype == np.float64 and t.has_value.tolist() == [True, False, True]
        assert t.to_events() == events
        assert len(t) == 3


class TestFilterRareCodes:
    def test_min_count_zero_is_identity(self):
        events = [LabEvent("P", 0, "A", 1.0)]
        assert filter_rare_codes(events, 0) == events

    def test_boundary_count_removed(self):
        events = [LabEvent("P", i, "A", 1.0) for i in range(5)]
        events += [LabEvent("P", i, "B", 1.0) for i in range(6)]
        kept = filter_rare_codes(events, 5)
        assert {e.code_id for e in kept} == {"B"}

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        events = [LabEvent("P", i, f"C{rng.integers(8)}", 1.0) for i in range(400)]
        kept = filter_rare_codes(events, 50)
        from collections import Counter

        counts = Counter(e.code_id for e in events)
        want = {c for c, n in counts.items() if n > 50}
        assert {e.code_id for e in kept} == want


class TestSplitPatients:
    def test_exact_sizes(self):
        ids = [f"P{i}" for i in range(10)]
        tr, va, te = split_patients(ids, (0.7, 0.1, 0.2), seed=1)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_deterministic(self):
        ids = [f"P{i}" for i in range(50)]
        assert split_patients(ids, seed=9) == split_patients(ids, seed=9)

    def test_disjoint_and_complete(self):
        ids = [f"P{i}" for i in range(123)]
        tr, va, te = split_patients(ids, seed=3)
        assert tr | va | te == set(ids)
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_invalid_fractions(self):
        for fr in [(0.5, 0.5, 0.5), (0.9, 0.2, -0.1)]:
            with pytest.raises(ConfigError):
                split_patients(["a"], fr)


class TestBuildBags:
    def test_small_bag_dropped(self):
        vocab, ecdfs = _toy_vocab_and_ecdfs()
        events = [LabEvent("P", 0, "A", 1.0), LabEvent("P", 0, "B", 2.0)]
        bags, stats = build_bags(events, vocab, ecdfs)
        assert bags == [] and stats["bags_dropped_small"] == 1

    def test_null_flag_for_valueless_event(self):
        vocab, ecdfs = _toy_vocab_and_ecdfs()
        events = [
            LabEvent("P", 0, "A", 5.0),
            LabEvent("P", 0, "B", None),
            LabEvent("P", 0, "C", 2.0),
        ]
        bags, _ = build_bags(events, vocab, ecdfs)
        (bag,) = bags
        assert len(bag) == 3
        np.testing.assert_array_equal(bag.null_flags, [False, True, False])
        assert bag.values[1] == 0.0
        assert bag.values[0] == ecdf_apply(ecdfs["A"], 5.0)

    def test_oov_event_dropped_and_counted(self):
        vocab, ecdfs = _toy_vocab_and_ecdfs()
        events = [LabEvent("P", 0, c, 1.0) for c in ("A", "B", "C", "ZZZ")]
        bags, stats = build_bags(events, vocab, ecdfs)
        assert stats["events_dropped_oov"] == 1
        assert len(bags[0]) == 3

    def test_bag_count_matches_groupby_oracle(self):
        vocab, ecdfs = _toy_vocab_and_ecdfs()
        rng = np.random.default_rng(1)
        events = []
        for _ in range(500):
            pid = f"P{rng.integers(20)}"
            t = int(rng.integers(5)) * 3600
            events.append(LabEvent(pid, t, "ABC"[rng.integers(3)], float(rng.random())))
        bags, _ = build_bags(events, vocab, ecdfs)
        groups = {}
        for e in events:
            groups.setdefault((e.patient_id, e.chart_time), []).append(e)
        want = sum(1 for evs in groups.values() if len(evs) >= 3)
        assert len(bags) == want

    def test_decile_mode_tokenization(self):
        counts = {"A": 30, "B": 20}
        ecdfs = {c: build_ecdf(c, np.arange(1, 11, dtype=float)) for c in counts}
        vocab = build_decile_vocab(ecdfs, counts)
        events = [
            LabEvent("P", 0, "A", 1.0),   # p=0.1 -> decile 1
            LabEvent("P", 0, "B", 10.0),  # p=1.0 -> decile 9 (clamped)
            LabEvent("P", 0, "A", None),  # missing
        ]
        bags, _ = build_bags(events, vocab, ecdfs)
        (bag,) = bags
        start_a, _ = vocab.decile_block("A")
        start_b, _ = vocab.decile_block("B")
        np.testing.assert_array_equal(
            bag.tokens, [start_a + 1, start_b + 9, start_a + 10]      # A's missing slot
        )
        np.testing.assert_array_equal(bag.null_flags, [False, False, True])
        assert bag.values[0] == 0.1 and bag.values[1] == 1.0

    def test_valued_code_without_ecdf_in_dropped_small_bag(self):
        counts = {"A": 30, "B": 20, "C": 10, "D": 5}
        ecdfs = {c: build_ecdf(c, np.arange(1, 11, dtype=float)) for c in "ABC"}
        vocab = build_continuous_vocab(counts)
        events = [LabEvent("P", 0, c, 1.0) for c in "ABC"]
        events += [LabEvent("Q", 0, "D", 4.0), LabEvent("Q", 0, "A", 2.0)]
        bags, stats = build_bags(events, vocab, ecdfs)
        assert len(bags) == 1 and stats["bags_dropped_small"] == 1
        with pytest.raises(DataError, match="'D' has a value but no eCDF"):
            build_bags(events + [LabEvent("Q", 0, "B", None)], vocab, ecdfs)

    # Recorded before the columnar rewrite; any change in bag order, token,
    # value, null flag, dtype or count shows here.
    GOLDEN = {"continuous": "8d953689d66e767f70e27b9e9b64fffbffee58ac1efeb43c4e20986440259dac",
              "decile": "35ba43d705cd3718368184df6250e654e7cfcf319cc965e4f731f75688caaad7"}

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_golden_digest_of_messy_corpora(self, mode):
        h = hashlib.sha256()
        for seed in range(3):
            events, by_mode = _messy_corpus(seed)
            vocab, ecdfs = by_mode[mode]
            _bags_digest(h, *build_bags(events, vocab, ecdfs))
        assert h.hexdigest() == self.GOLDEN[mode]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.sampled_from(["P1", "P10", "P2", "Q"]),
                              st.sampled_from([0, 60, 3600]),
                              st.sampled_from(["A", "B", "C", "Z"]),
                              st.one_of(st.none(), st.floats(-20, 20))),
                    max_size=60),
           st.sampled_from(["continuous", "decile"]))
    def test_table_read_from_csv_equals_event_list(self, rows, mode):
        counts = {"A": 30, "B": 20, "C": 10}
        ecdfs = {c: build_ecdf(c, np.arange(1, 11, dtype=float)) for c in counts}
        vocab = (build_continuous_vocab(counts) if mode == "continuous"
                 else build_decile_vocab(ecdfs, counts, ("C",)))
        events = [LabEvent(*row) for row in rows]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "events.csv")
            write_events_csv(path, events)
            table = read_event_table(path)
        assert isinstance(table, EventTable) and table.to_events() == events
        assert _bags_equal(build_bags(table, vocab, ecdfs), build_bags(events, vocab, ecdfs))


class TestMasking:
    def _bag(self):
        return LabBag("P", 0, np.array([1, 2, 3], dtype=np.int64),
                      np.array([0.1, 0.5, 0.9]), np.zeros(3, bool))

    def test_single_mask_truth_recoverable(self):
        bag = self._bag()
        masked = mask_bag(bag, mask_token=4, rng=np.random.default_rng(0))
        assert masked.mask_positions.size == 1
        pos = masked.mask_positions[0]
        assert masked.tokens[pos] == 4 and masked.values[pos] == 0.0
        assert masked.truth_tokens[0] == bag.tokens[pos]
        assert masked.truth_values[0] == bag.values[pos]
        restored = unmask_bag(masked)
        assert bag_payload_equal(restored, bag)

    def test_mask_all_positions(self):
        masked = mask_bag(self._bag(), 4, np.random.default_rng(0), n_mask=3)
        assert np.all(masked.tokens == 4) and np.all(masked.values == 0.0)

    def test_too_many_masks_rejected(self):
        with pytest.raises(ContractError):
            mask_bag(self._bag(), 4, np.random.default_rng(0), n_mask=4)

    def test_deterministic_per_seed(self):
        a = mask_bag(self._bag(), 4, np.random.default_rng(7))
        b = mask_bag(self._bag(), 4, np.random.default_rng(7))
        assert bag_payload_equal(a, b)

    def test_null_truth_preserved(self):
        bag = LabBag("P", 0, np.array([1, 2, 3], dtype=np.int64),
                     np.array([0.1, 0.0, 0.9]), np.array([False, True, False]))
        masked = mask_bag(bag, 4, np.random.default_rng(0), positions=[1])
        assert masked.truth_nulls[0]
        assert not masked.null_flags[1]  # input channel must not leak nullness
        assert bag_payload_equal(unmask_bag(masked), bag)


class TestPadBatch:
    def test_equal_lengths_no_padding(self):
        rng = np.random.default_rng(0)
        vocab, _ = _toy_vocab_and_ecdfs()
        batch = pad_batch(_toy_bags(3, rng, vocab, L=4))
        assert batch.tokens.shape == (3, 4)
        assert not batch.pad_mask.any()

    def test_mixed_lengths(self):
        b1 = LabBag("P", 0, np.array([1, 2, 3], dtype=np.int64), np.zeros(3), np.zeros(3, bool))
        b2 = LabBag("Q", 0, np.array([1, 2, 3, 1, 2], dtype=np.int64), np.zeros(5), np.zeros(5, bool))
        batch = pad_batch([b1, b2])
        assert batch.tokens.shape == (2, 5)
        np.testing.assert_array_equal(batch.pad_mask[0], [False, False, False, True, True])
        np.testing.assert_array_equal(batch.tokens[0, 3:], [0, 0])
        np.testing.assert_array_equal(batch.values[0, 3:], [0.0, 0.0])

    def test_mask_bookkeeping_flattened(self):
        rng = np.random.default_rng(1)
        vocab, _ = _toy_vocab_and_ecdfs()
        bags = [mask_bag(b, vocab.mask_token, rng) for b in _toy_bags(4, rng, vocab)]
        batch = pad_batch(bags)
        assert batch.mask_rows.size == 4
        np.testing.assert_array_equal(batch.mask_rows, [0, 1, 2, 3])
        for i in range(4):
            assert batch.tokens[batch.mask_rows[i], batch.mask_cols[i]] == vocab.mask_token

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            pad_batch([])


class TestShards:
    def test_round_trip_1000_bags(self, tmp_path):
        rng = np.random.default_rng(2)
        vocab, _ = _toy_vocab_and_ecdfs()
        bags = []
        for i, b in enumerate(_toy_bags(1000, rng, vocab, L=int(rng.integers(3, 9)))):
            bags.append(mask_bag(b, vocab.mask_token, rng) if i % 2 == 0 else b)
        shards = write_shards(bags, tmp_path / "shards", shard_size=256)
        assert sum(s.count for s in shards) == 1000
        assert len(shards) == 4
        back = list(read_shards(tmp_path / "shards"))
        assert len(back) == 1000
        for a, b in zip(bags, back):
            assert bag_payload_equal(a, b)

    def test_empty_dir_is_empty_stream(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert list(read_shards(d)) == []

    def test_bad_magic_names_offset(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        (d / "shard-00000.bin").write_bytes(b"WXYZ\x01")
        with pytest.raises(FormatError, match="byte 0"):
            list(read_shards(d))

    def test_truncated_file_names_record(self, tmp_path):
        rng = np.random.default_rng(3)
        vocab, _ = _toy_vocab_and_ecdfs()
        bags = _toy_bags(3, rng, vocab)
        (shard,) = write_shards(bags, tmp_path / "s", shard_size=10)
        data = open(shard.path, "rb").read()
        open(shard.path, "wb").write(data[:-7])
        with pytest.raises(FormatError, match="record 2"):
            list(read_shards(tmp_path / "s"))

    def test_identical_bytes_for_identical_input(self, tmp_path):
        rng = np.random.default_rng(4)
        vocab, _ = _toy_vocab_and_ecdfs()
        bags = _toy_bags(10, rng, vocab)
        (s1,) = write_shards(bags, tmp_path / "a", shard_size=100)
        (s2,) = write_shards(bags, tmp_path / "b", shard_size=100)
        assert open(s1.path, "rb").read() == open(s2.path, "rb").read()

    def test_failed_write_keeps_old_shard_and_no_temp_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        vocab, _ = _toy_vocab_and_ecdfs()
        (shard,) = write_shards(_toy_bags(3, rng, vocab), tmp_path, shard_size=10)
        before = open(shard.path, "rb").read()

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, data):
                raise OSError("no space left on device")

        monkeypatch.setattr(corpus, "open", lambda p, mode: DiskFull(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            write_shards(_toy_bags(5, rng, vocab), tmp_path, shard_size=10)
        assert open(shard.path, "rb").read() == before
        assert os.listdir(tmp_path) == ["shard-00000.bin"]


class TestGradientThroughPadding:
    def test_loss_gradient_at_pad_positions_is_zero(self):
        """Padded values must not influence the loss at all.

        Values enter the model as a constant, so this moves them instead of
        reading their gradient: any change inside the padded region leaves
        the loss bit-identical, while moving a real value changes it.
        """
        from labmlm.model import ModelConfig, forward_continuous, init_params
        from labmlm.training import multitask_loss

        vocab, _ = _toy_vocab_and_ecdfs()
        rng = np.random.default_rng(5)
        b1 = LabBag("P", 0, np.array([1, 2, 3], dtype=np.int64),
                    np.array([0.2, 0.4, 0.6]), np.zeros(3, bool))
        b2 = LabBag("Q", 0, np.array([3, 1, 2, 1, 3], dtype=np.int64),
                    rng.random(5), np.zeros(5, bool))
        bags = [mask_bag(b1, vocab.mask_token, rng), mask_bag(b2, vocab.mask_token, rng)]
        batch = pad_batch(bags)
        # Plant nonzero values inside the padded region and take gradients
        # through the value channel.
        cfg = ModelConfig(mode="continuous", vocab_size=vocab.vocab_size,
                          d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        params = init_params(cfg, seed=0)

        def loss(values):
            batch.values = values
            probs, preds = forward_continuous(params, batch)
            return multitask_loss(probs, preds, batch).total.item()

        values = batch.values.copy()
        values[0, 3:] = 0.77
        base = loss(values)
        for pad_value in (0.0, 0.1, 0.77 + 1e-3, 1.0):
            moved = values.copy()
            moved[0, 3:] = pad_value
            assert loss(moved) == base, pad_value
        real = [c for c in range(3) if c not in batch.mask_cols[batch.mask_rows == 0]]
        moved = values.copy()
        moved[0, real] += 0.1
        assert loss(moved) != base


class TestSyntheticCorpus:
    def test_degenerate_generator_perfect_rank_correlation(self):
        events, _ = generate_synthetic_corpus(
            n_patients=50, n_codes=3, latent_dim=1, seed=0,
            loadings=np.ones((3, 1)), sigmas=np.zeros(3),
        )
        groups = {}
        for e in events:
            groups.setdefault((e.patient_id, e.chart_time), []).append(e)
        for evs in groups.values():
            vals = [e.value for e in evs]
            assert max(vals) - min(vals) < 1e-12  # identical loadings, zero noise

    def test_orthogonal_groups_uncorrelated(self):
        n_codes = 4
        loadings = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        events, _ = generate_synthetic_corpus(
            n_patients=4000, n_codes=n_codes, bag_rate=3.0, latent_dim=2, seed=1,
            loadings=loadings, sigmas=np.zeros(n_codes), min_bag=4, max_bag=4,
        )
        by_code = {}
        for e in events:
            by_code.setdefault(e.code_id, {})[(e.patient_id, e.chart_time)] = e.value
        keys = sorted(set(by_code["C000"]) & set(by_code["C002"]))
        assert len(keys) >= 10_000
        a = np.array([by_code["C000"][k] for k in keys])
        b = np.array([by_code["C002"][k] for k in keys])
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_fixed_seed_identical_corpus(self):
        e1, t1 = generate_synthetic_corpus(20, 5, seed=11)
        e2, t2 = generate_synthetic_corpus(20, 5, seed=11)
        assert e1 == e2 and t1 == t2

    def test_truth_schema(self):
        _, truth = generate_synthetic_corpus(5, 4, latent_dim=3, seed=0)
        assert set(truth) == {"codes"}
        assert len(truth["codes"]) == 4
        for c in truth["codes"]:
            assert set(c) == {"id", "loadings", "sigma"}
            assert len(c["loadings"]) == 3

    def test_panel_bags_stay_within_panel(self):
        events, _ = generate_synthetic_corpus(30, 12, seed=2, n_panels=3)
        panels = [{f"C{j:03d}" for j in range(p, 12, 3)} for p in range(3)]
        groups = {}
        for e in events:
            groups.setdefault((e.patient_id, e.chart_time), set()).add(e.code_id)
        for codes in groups.values():
            assert any(codes <= p for p in panels)

    def test_transformed_training_values_uniform(self):
        """KS statistic of eCDF-transformed values vs U[0,1] below 0.01."""
        events, _ = generate_synthetic_corpus(5500, 3, bag_rate=2.0, seed=3,
                                              min_bag=3, max_bag=3)
        vals = np.array([e.value for e in events if e.code_id == "C000"])
        vals = vals[:10_000]
        assert vals.size == 10_000
        e = build_ecdf("C000", vals)
        transformed = np.array([ecdf_apply(e, v) for v in vals])
        stat = scipy.stats.kstest(transformed, "uniform").statistic
        assert stat < 0.01
