"""Loss, metric, decoding, pre-training loop, and imputation-report tests."""

import csv
import math
import multiprocessing
import os

import numpy as np
import pytest
from panel_corpus import panel_corpus

from labmlm import parallel, tape, training
from labmlm.corpus import (
    LabBag,
    bag_payload_equal,
    build_bags,
    generate_synthetic_corpus,
    mask_bag,
    pad_batch,
    unmask_bag,
)
from labmlm.ecdf import build_continuous_vocab, build_decile_vocab, build_ecdf
from labmlm.errors import (
    ConfigError,
    ContractError,
    DecodeError,
    NumericError,
    VocabError,
)
from labmlm.model import ModelConfig, init_params, load_checkpoint
from labmlm.optim import AdamState, gather_grads
from labmlm.tape import Tape, TapeTensor
from labmlm.training import (
    DECODE_ARGMAX,
    DECODE_CONTINUOUS,
    DECODE_WEIGHTED,
    TrainConfig,
    argmax_decode,
    decile_mlm_loss,
    evaluate_imputation,
    multitask_loss,
    pearson_r,
    perplexity,
    pretrain,
    weighted_quantile_decode,
)


def toy_batch(rng, n_codes=6, b=3, L=5, n_mask=1, mask_token=7):
    bags = []
    for i in range(b):
        tokens = rng.integers(1, n_codes + 1, size=L).astype(np.int64)
        values = rng.uniform(0, 1, size=L)
        bag = LabBag(f"p{i}", 0.0, tokens, values, np.zeros(L, dtype=bool),
                     np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                     np.array([]), np.array([], dtype=bool))
        bags.append(mask_bag(bag, mask_token, rng, n_mask=n_mask))
    return pad_batch(bags)


class TestMultitaskLoss:
    def test_uniform_probs_give_log_vocab(self):
        rng = np.random.default_rng(0)
        batch = toy_batch(rng, n_codes=6)
        b, L = batch.tokens.shape
        probs = TapeTensor(np.full((b, L, 6), 1.0 / 6.0))
        preds = TapeTensor(batch.values.copy())
        parts = multitask_loss(probs, preds, batch)
        assert abs(parts.ce.item() - math.log(6)) < 1e-12

    def test_perfect_predictions(self):
        rng = np.random.default_rng(1)
        batch = toy_batch(rng, n_codes=6)
        b, L = batch.tokens.shape
        probs = np.zeros((b, L, 6))
        probs[batch.mask_rows, batch.mask_cols, batch.truth_tokens - 1] = 1.0
        preds = np.zeros((b, L))
        preds[batch.mask_rows, batch.mask_cols] = batch.truth_values
        parts = multitask_loss(TapeTensor(probs), TapeTensor(preds), batch)
        assert parts.ce.item() == 0.0
        assert parts.mse.item() == 0.0
        assert parts.total.item() == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        batch = toy_batch(rng, n_codes=8, b=4, L=6, n_mask=2, mask_token=9)
        b, L = batch.tokens.shape
        probs = rng.dirichlet(np.ones(8), size=(b, L))
        preds = rng.uniform(0, 1, size=(b, L))
        parts = multitask_loss(TapeTensor(probs), TapeTensor(preds), batch)

        ce_terms, mse_terms = [], []
        for n in range(len(batch.mask_rows)):
            r, c = batch.mask_rows[n], batch.mask_cols[n]
            ce_terms.append(-math.log(probs[r, c, batch.truth_tokens[n] - 1]))
            if not batch.truth_nulls[n]:
                mse_terms.append((preds[r, c] - batch.truth_values[n]) ** 2)
        assert abs(parts.ce.item() - np.mean(ce_terms)) < 1e-10
        assert abs(parts.mse.item() - np.mean(mse_terms)) < 1e-10

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(3)
        batch = toy_batch(rng, n_codes=5, mask_token=6)
        b, L = batch.tokens.shape
        probs = rng.dirichlet(np.ones(5), size=(b, L))
        preds = rng.uniform(0, 1, size=(b, L))
        parts = multitask_loss(TapeTensor(probs), TapeTensor(preds), batch)
        assert parts.total.item() == parts.ce.item() + parts.mse.item()
        assert parts.ce.item() >= 0.0
        assert parts.mse.item() >= 0.0

    def test_null_truths_contribute_ce_only(self):
        rng = np.random.default_rng(4)
        L = 4
        tokens = np.array([2, 3, 1, 2], dtype=np.int64)
        values = np.array([0.0, 0.2, 0.9, 0.4])
        nulls = np.array([True, False, False, False])
        bag = LabBag("p", 0.0, tokens, values, nulls,
                     np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                     np.array([]), np.array([], dtype=bool))
        masked = mask_bag(bag, 5, rng, positions=[0])
        batch = pad_batch([masked])
        probs = rng.dirichlet(np.ones(4), size=(1, L))
        preds = rng.uniform(0, 1, size=(1, L))
        parts = multitask_loss(TapeTensor(probs), TapeTensor(preds), batch)
        assert parts.mse.item() == 0.0
        assert parts.total.item() == parts.ce.item()

    def test_zero_masked_positions_rejected(self):
        rng = np.random.default_rng(5)
        batch = toy_batch(rng, n_mask=1)
        empty = batch.mask_rows[:0]
        from labmlm.corpus import Batch
        nomask = Batch(batch.tokens, batch.values, batch.null_flags, batch.pad_mask,
                       batch.lengths, empty, empty, empty.astype(np.int64),
                       batch.truth_values[:0], batch.truth_nulls[:0])
        probs = TapeTensor(np.full((*batch.tokens.shape, 6), 1 / 6))
        preds = TapeTensor(batch.values)
        with pytest.raises(ContractError):
            multitask_loss(probs, preds, nomask)

    def test_truth_token_out_of_range_rejected(self):
        rng = np.random.default_rng(6)
        batch = toy_batch(rng, n_codes=6)
        batch.truth_tokens[0] = 99
        probs = TapeTensor(np.full((*batch.tokens.shape, 6), 1 / 6))
        with pytest.raises(VocabError):
            multitask_loss(probs, TapeTensor(batch.values), batch)

    def test_loss_reads_only_masked_positions(self):
        rng = np.random.default_rng(7)
        batch = toy_batch(rng, n_codes=6, b=2, L=5)
        b, L = batch.tokens.shape
        probs = rng.dirichlet(np.ones(6), size=(b, L))
        preds = rng.uniform(0, 1, size=(b, L))
        base = multitask_loss(TapeTensor(probs), TapeTensor(preds), batch)

        masked = set(zip(batch.mask_rows.tolist(), batch.mask_cols.tolist()))
        probs2, preds2 = probs.copy(), preds.copy()
        for r in range(b):
            for c in range(L):
                if (r, c) not in masked:
                    probs2[r, c] = rng.dirichlet(np.ones(6))
                    preds2[r, c] = rng.uniform()
        again = multitask_loss(TapeTensor(probs2), TapeTensor(preds2), batch)
        assert again.total.item() == base.total.item()


class TestDecileMlmLoss:
    def test_uniform_probs_give_log_vocab(self):
        rng = np.random.default_rng(8)
        batch = toy_batch(rng, n_codes=11, mask_token=12)
        b, L = batch.tokens.shape
        probs = TapeTensor(np.full((b, L, 12), 1.0 / 12.0))
        assert abs(decile_mlm_loss(probs, batch).item() - math.log(12)) < 1e-12

    def test_certain_prediction_gives_zero(self):
        rng = np.random.default_rng(9)
        batch = toy_batch(rng, n_codes=11, mask_token=12, b=1, L=4)
        probs = np.zeros((1, 4, 12))
        probs[batch.mask_rows, batch.mask_cols, batch.truth_tokens - 1] = 1.0
        assert decile_mlm_loss(TapeTensor(probs), batch).item() == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        batch = toy_batch(rng, n_codes=11, mask_token=12, b=3, L=6, n_mask=2)
        b, L = batch.tokens.shape
        probs = rng.dirichlet(np.ones(12), size=(b, L))
        got = decile_mlm_loss(TapeTensor(probs), batch).item()
        want = np.mean([-math.log(probs[r, c, t - 1]) for r, c, t in
                        zip(batch.mask_rows, batch.mask_cols, batch.truth_tokens)])
        assert abs(got - want) < 1e-10


class TestMetrics:
    def test_perplexity_identities(self):
        assert perplexity(0.0) == 1.0
        assert abs(perplexity(math.log(530)) - 530.0) < 1e-9
        assert round(perplexity(0.0198), 2) == 1.02

    def test_pearson_endpoints(self):
        xs = np.array([0.1, 0.4, 0.5, 0.8, 0.95])
        assert pearson_r(xs, xs) == pytest.approx(1.0, abs=1e-15)
        assert pearson_r(xs, -xs) == pytest.approx(-1.0, abs=1e-15)

    def test_pearson_matches_formula_oracle(self):
        xs = np.array([1.0, 2.0, 3.5, 4.0, 7.25])
        ys = np.array([0.9, 2.2, 2.9, 4.4, 6.8])
        assert abs(pearson_r(xs, ys) - np.corrcoef(xs, ys)[0, 1]) < 1e-12

    def test_pearson_contract_errors(self):
        with pytest.raises(ContractError):
            pearson_r([1.0], [2.0])
        with pytest.raises(ContractError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(NumericError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def decile_fixture():
    rng = np.random.default_rng(11)
    ecdfs = {c: build_ecdf(c, rng.uniform(0, 100, size=200)) for c in ("alpha", "beta")}
    vocab = build_decile_vocab(ecdfs, {"alpha": 10, "beta": 5})
    return vocab


class TestDecoding:
    def test_all_mass_on_first_decile(self):
        vocab = decile_fixture()
        start, _ = vocab.decile_block("alpha")
        row = np.zeros(vocab.vocab_size)
        row[start - 1] = 1.0
        assert weighted_quantile_decode(row, "alpha", vocab) == 0.0

    def test_uniform_mass_averages_lower_bounds(self):
        vocab = decile_fixture()
        start, _ = vocab.decile_block("beta")
        row = np.zeros(vocab.vocab_size)
        row[start - 1 : start + 9] = 0.1
        assert abs(weighted_quantile_decode(row, "beta", vocab) - 0.45) < 1e-12

    def test_weighted_matches_hand_formula(self):
        vocab = decile_fixture()
        rng = np.random.default_rng(12)
        row = rng.dirichlet(np.ones(vocab.vocab_size))
        start, _ = vocab.decile_block("alpha")
        w = row[start - 1 : start + 9]
        want = float(np.sum(w / w.sum() * np.arange(10) / 10.0))
        assert abs(weighted_quantile_decode(row, "alpha", vocab) - want) < 1e-12

    def test_renormalization_ignores_other_tokens(self):
        vocab = decile_fixture()
        start, _ = vocab.decile_block("alpha")
        row = np.zeros(vocab.vocab_size)
        row[start - 1] = 0.01
        row[start] = 0.03
        row[vocab.mask_token - 1] = 0.96
        want = (0.01 * 0.0 + 0.03 * 0.1) / 0.04
        assert abs(weighted_quantile_decode(row, "alpha", vocab) - want) < 1e-12

    def test_argmax_picks_decile_lower_bound(self):
        vocab = decile_fixture()
        start, _ = vocab.decile_block("alpha")
        row = np.zeros(vocab.vocab_size)
        row[start - 1 + 7] = 0.9
        row[start - 1 + 2] = 0.1
        assert argmax_decode(row, "alpha", vocab) == 0.7

    def test_argmax_tie_takes_lowest(self):
        vocab = decile_fixture()
        start, _ = vocab.decile_block("alpha")
        row = np.zeros(vocab.vocab_size)
        row[start - 1 + 2] = 0.5
        row[start - 1 + 3] = 0.5
        assert argmax_decode(row, "alpha", vocab) == pytest.approx(0.2)

    def test_zero_mass_rejected(self):
        vocab = decile_fixture()
        row = np.zeros(vocab.vocab_size)
        row[vocab.mask_token - 1] = 1.0
        with pytest.raises(DecodeError):
            weighted_quantile_decode(row, "alpha", vocab)
        with pytest.raises(DecodeError):
            argmax_decode(row, "alpha", vocab)


def small_corpus(n_patients=120, n_codes=5, seed=3):
    events, truth = generate_synthetic_corpus(n_patients, n_codes, seed=seed)
    counts = {}
    for ev in events:
        counts[ev.code_id] = counts.get(ev.code_id, 0) + 1
    vocab = build_continuous_vocab(counts)
    by_code = {}
    for ev in events:
        by_code.setdefault(ev.code_id, []).append(ev.value)
    ecdfs = {c: build_ecdf(c, np.asarray(vs)) for c, vs in by_code.items()}
    bags, _ = build_bags(events, vocab, ecdfs)
    return bags, vocab, ecdfs


class TestTrainConfig:
    def test_defaults_match_reference_settings(self):
        cfg = TrainConfig(steps=10)
        assert cfg.batch_size == 256
        assert cfg.learning_rate == 1e-5
        assert cfg.checkpoint_interval == 14000

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, learning_rate=-1e-4)

    @pytest.mark.parametrize("val_batches", [0, -2])
    def test_val_batches_below_one_rejected(self, val_batches):
        # 0 would log CE 0.0 and perplexity 1.0 on every validation row
        with pytest.raises(ConfigError, match=f"val_batches .*got {val_batches}"):
            TrainConfig(steps=1, val_batches=val_batches)

    def test_val_batches_none_or_positive_accepted(self):
        assert TrainConfig(steps=1).val_batches is None
        assert TrainConfig(steps=1, val_batches=1).val_batches == 1


def _bags_of_lengths(rng, lengths, mask_token, premasked=()):
    bags = []
    for i, L in enumerate(lengths):
        bag = LabBag(f"p{i}", 0.0, rng.integers(1, 6, size=L).astype(np.int64),
                     rng.uniform(0, 1, size=L), rng.random(L) < 0.2)
        bags.append(mask_bag(bag, mask_token, rng) if i in premasked else bag)
    return bags


class TestMaskDraws:
    """One rng.integers call gives the masks one mask_bag call per bag gave."""

    def _per_bag(self, bags, rng, mask_count=1):
        return [b if len(b.mask_positions) else mask_bag(b, 9, rng, n_mask=min(mask_count, len(b)))
                for b in bags]

    @pytest.mark.parametrize("mask_count", [1, 3])
    def test_same_masks_and_generator_state_as_per_bag_draws(self, mask_count):
        lengths = np.random.default_rng(0).integers(1, 10, size=5000)
        premasked = set(range(0, 5000, 7))
        bags = _bags_of_lengths(np.random.default_rng(1), lengths, 9, premasked=premasked)
        ref_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        want = self._per_bag(bags, ref_rng, mask_count)
        drawn, pos = training._draw_masks(bags, 9, rng, mask_count)
        got = training._masked(drawn, pos, range(len(bags)), 9)
        assert all(bag_payload_equal(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # with one mask per bag, the unmasked bags stay unmasked until drawn
        deferred = np.flatnonzero(pos >= 0)
        assert len(deferred) == (0 if mask_count > 1 else len(bags) - len(premasked))
        assert all(not len(drawn[i].mask_positions) for i in deferred)

    @pytest.mark.parametrize("remask", [False, True])
    def test_pretrain_batches_match_per_bag_masking(self, remask):
        """pretrain's batch sequence, with and without remask, is the per-bag one."""
        rng0 = np.random.default_rng(3)
        train = _bags_of_lengths(rng0, rng0.integers(1, 8, size=300), 9, premasked={4, 5, 90})
        val = _bags_of_lengths(rng0, rng0.integers(1, 8, size=40), 9)
        ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
        ref_train = self._per_bag(train, ref_rng)
        ref_val = self._per_bag(val, ref_rng)
        train_bags, train_pos = training._draw_masks(train, 9, rng, 1)
        val_bags, val_pos = training._draw_masks(val, 9, rng, 1)
        val_got = training._masked(val_bags, val_pos, range(len(val)), 9)
        assert all(bag_payload_equal(a, b) for a, b in zip(val_got, ref_val))
        for _ in range(20):
            idx = rng.integers(0, len(train), size=16)
            ref_idx = ref_rng.integers(0, len(train), size=16)
            assert np.array_equal(idx, ref_idx)
            if remask:
                got = [mask_bag(unmask_bag(train_bags[i]), 9, rng) for i in idx]
                want = [mask_bag(unmask_bag(ref_train[i]), 9, ref_rng) for i in idx]
            else:
                got = training._masked(train_bags, train_pos, idx, 9)
                want = [ref_train[i] for i in idx]
            assert all(bag_payload_equal(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_masked_batch_is_the_padded_per_bag_masking(self):
        rng = np.random.default_rng(5)
        bags = _bags_of_lengths(rng, rng.integers(1, 8, size=200), 9, premasked={3, 50, 51})
        for i in (4, 52, 120):      # bags that arrive with several masks
            bags[i] = mask_bag(bags[i], 9, rng, n_mask=len(bags[i]))
        drawn, pos = training._draw_masks(bags, 9, np.random.default_rng(6), 1)
        for idx in (np.arange(60), rng.integers(0, 200, size=40), [3], [7], [4, 4, 7, 3]):
            want = pad_batch(training._masked(drawn, pos, idx, 9))
            got = training._masked_batch(drawn, pos, np.asarray(idx), 9)
            for name in want.__dataclass_fields__:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_empty_bag_rejected(self):
        empty = LabBag("p", 0.0, np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool))
        with pytest.raises(ContractError, match="empty bag"):
            training._draw_masks([empty], 9, np.random.default_rng(0), 1)


class TestPretrain:
    def model_and_bags(self, seed=13, dropout_rate=0.0):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16,
                                     dropout_rate=dropout_rate)
        params = init_params(cfg, seed=seed)
        return params, bags, vocab

    def test_zero_learning_rate_freezes_parameters(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        cfg = TrainConfig(steps=3, batch_size=2, learning_rate=0.0, seed=0)
        result = pretrain(params, bags[:1], bags[:1], cfg, tmp_path / "run")
        for n, t in params.named_tensors():
            assert np.array_equal(t.data, before[n]), n
        train_ces = [r[2] for r in result.history if r[1] == "train"]
        assert len(set(train_ces)) == 1

    def test_metrics_csv_layout(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        cfg = TrainConfig(steps=5, batch_size=4, learning_rate=1e-3,
                          seed=1, checkpoint_interval=2)
        result = pretrain(params, bags[:20], bags[20:30], cfg, tmp_path / "run")
        with open(result.metrics_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "split", "ce", "mse", "perplexity"]
        assert rows[1][0] == "0" and rows[1][1] == "val"
        train_rows = [r for r in rows[1:] if r[1] == "train"]
        val_rows = [r for r in rows[1:] if r[1] == "val"]
        assert [int(r[0]) for r in train_rows] == [1, 2, 3, 4, 5]
        assert [int(r[0]) for r in val_rows] == [0, 2, 4, 5]
        for r in rows[1:]:
            ce = float(r[2])
            assert abs(float(r[4]) - math.exp(ce)) < 1e-9

    def test_checkpoints_written_and_loadable(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        cfg = TrainConfig(steps=4, batch_size=4, learning_rate=1e-3,
                          seed=2, checkpoint_interval=2)
        result = pretrain(params, bags[:20], bags[20:24], cfg, tmp_path / "run")
        names = [os.path.basename(p) for p in result.checkpoints]
        assert names == ["step-00000002.ckpt", "step-00000004.ckpt"]
        loaded = load_checkpoint(result.final_checkpoint)
        for (n, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), n

    def test_runs_are_bit_identical_per_seed(self, tmp_path):
        cfgkw = dict(steps=4, batch_size=4, learning_rate=1e-3, seed=7,
                     checkpoint_interval=10)
        outs = []
        for name in ("a", "b"):
            params, bags, _ = self.model_and_bags(seed=21, dropout_rate=0.1)
            result = pretrain(params, bags[:20], bags[20:28],
                              TrainConfig(**cfgkw), tmp_path / name)
            outs.append(open(result.metrics_path, "rb").read())
        assert outs[0] == outs[1]

    def test_training_reduces_loss_on_tiny_corpus(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        cfg = TrainConfig(steps=60, batch_size=8, learning_rate=3e-3,
                          seed=3, checkpoint_interval=60)
        result = pretrain(params, bags[:60], bags[60:80], cfg, tmp_path / "run")
        val = [r for r in result.history if r[1] == "val"]
        assert val[-1][2] < val[0][2]

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_loss_dumps_batch(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        params.by_name["head_w2"].data *= 1e6
        cfg = TrainConfig(steps=2, batch_size=8, learning_rate=1e-3, seed=4)
        with pytest.raises(NumericError, match="non-finite"):
            pretrain(params, bags[:20], bags[20:24], cfg, tmp_path / "run")
        dumps = [f for f in os.listdir(tmp_path / "run") if f.startswith("diagnostic")]
        assert len(dumps) == 1

    def test_nonfinite_gradient_stops_before_the_update(self, tmp_path, monkeypatch):
        params, bags, _ = self.model_and_bags()
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        real_backward = training.backward

        def poisoned(loss):
            real_backward(loss)
            params.by_name["block0.ff1_w"].grad[0, 0] = np.inf

        monkeypatch.setattr(training, "backward", poisoned)
        cfg = TrainConfig(steps=2, batch_size=4, learning_rate=1e-3, seed=4)
        with pytest.raises(NumericError,
                           match="non-finite gradient in 'block0.ff1_w' at step 1"):
            pretrain(params, bags[:20], bags[20:24], cfg, tmp_path / "run")
        for n, t in params.named_tensors():
            assert np.array_equal(t.data, before[n]), n
        dumps = [f for f in os.listdir(tmp_path / "run") if f.startswith("diagnostic")]
        assert dumps == ["diagnostic-step1.npz"]

    def test_gradient_check_finds_the_first_bad_tensor_only(self):
        def named(*grads):
            out = []
            for i, g in enumerate(grads):
                t = TapeTensor(np.zeros(2, np.float32))
                t.grad = None if g is None else np.asarray(g, np.float32)
                out.append((f"t{i}", t))
            return out

        # float32 sums of large finite values overflow, but nothing is non-finite
        assert training._first_nonfinite_grad(named(None, [3e38, 3e38], [1, 2])) is None
        assert training._first_nonfinite_grad(named([1, 2], [0, np.nan], [np.inf, 0])) == "t1"

    def test_caller_config_unchanged(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        before = params.config.to_dict()
        cfg = TrainConfig(steps=2, batch_size=4, learning_rate=1e-3, seed=5)
        result = pretrain(params, bags[:20], bags[20:24], cfg, tmp_path / "run")
        assert params.config.to_dict() == before
        # The checkpoint still records the rate the run trained with.
        assert load_checkpoint(result.final_checkpoint).config.dropout_rate == 0.0

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_caller_config_unchanged_when_pretrain_raises(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        params.by_name["head_w2"].data *= 1e6
        before = params.config.to_dict()
        cfg = TrainConfig(steps=2, batch_size=8, learning_rate=1e-3, seed=4)
        with pytest.raises(NumericError):
            pretrain(params, bags[:20], bags[20:24], cfg, tmp_path / "run")
        assert params.config.to_dict() == before

    def test_empty_sets_rejected(self, tmp_path):
        params, bags, _ = self.model_and_bags()
        cfg = TrainConfig(steps=1, batch_size=2)
        with pytest.raises(ContractError):
            pretrain(params, [], bags[:2], cfg, tmp_path / "x")
        with pytest.raises(ContractError):
            pretrain(params, bags[:2], [], cfg, tmp_path / "y")


class TestEvaluateImputation:
    def test_report_structure_and_determinism(self):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        params = init_params(cfg, seed=5)
        r1 = evaluate_imputation(params, bags[:120], vocab, DECODE_CONTINUOUS, seed=9)
        r2 = evaluate_imputation(params, bags[:120], vocab, DECODE_CONTINUOUS, seed=9)
        assert r1.n == 120
        assert r1.r == r2.r
        assert r1.r2 == pytest.approx(r1.r ** 2)
        assert -1.0 <= r1.r <= 1.0
        assert r1.decode == DECODE_CONTINUOUS
        rs = [e["r"] for e in r1.per_code]
        assert rs == sorted(rs, reverse=True)
        assert all(e["n"] >= 2 for e in r1.per_code)

    def test_ablation_equals_fresh_init(self):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        trained = init_params(cfg, seed=6)
        for t in trained.tensors():
            t.data += 0.05
        ablated = evaluate_imputation(trained, bags[:60], vocab, DECODE_CONTINUOUS,
                                      seed=11, ablation=True)
        fresh = evaluate_imputation(init_params(cfg, seed=11), bags[:60], vocab,
                                    DECODE_CONTINUOUS, seed=11)
        assert ablated.r == fresh.r
        assert ablated.ablation and not fresh.ablation

    def test_decile_paths_decode_values(self):
        rng = np.random.default_rng(30)
        events, _ = generate_synthetic_corpus(100, 4, seed=8)
        counts = {}
        by_code = {}
        for ev in events:
            counts[ev.code_id] = counts.get(ev.code_id, 0) + 1
            by_code.setdefault(ev.code_id, []).append(ev.value)
        ecdfs = {c: build_ecdf(c, np.asarray(v)) for c, v in by_code.items()}
        vocab = build_decile_vocab(ecdfs, counts)
        bags, _ = build_bags(events, vocab, ecdfs)
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        params = init_params(cfg, seed=7)
        for decode in (DECODE_WEIGHTED, DECODE_ARGMAX):
            report = evaluate_imputation(params, bags[:80], vocab, decode, seed=12)
            assert report.n == 80
            assert report.decode == decode

    def test_mode_decode_mismatch_rejected(self):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        params = init_params(cfg, seed=5)
        with pytest.raises(ConfigError):
            evaluate_imputation(params, bags[:10], vocab, DECODE_WEIGHTED)
        with pytest.raises(ConfigError):
            evaluate_imputation(params, bags[:10], vocab, "fancy")

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_targets_are_the_per_bag_choice_draws(self, mode):
        events, _ = generate_synthetic_corpus(400, 5, seed=8, missing_rate=0.3)
        counts, by_code = {}, {}
        for ev in events:
            counts[ev.code_id] = counts.get(ev.code_id, 0) + 1
            if ev.value is not None:
                by_code.setdefault(ev.code_id, []).append(ev.value)
        ecdfs = {c: build_ecdf(c, np.asarray(v)) for c, v in by_code.items()}
        vocab = (build_continuous_vocab(counts) if mode == "continuous"
                 else build_decile_vocab(ecdfs, counts, binary_codes={"C001"}))
        bags, _ = build_bags(events, vocab, ecdfs)
        bags[3] = mask_bag(bags[3], vocab.mask_token, np.random.default_rng(0))
        # the per-bag draws the one-call draw replaced
        rng = np.random.default_rng(5)
        want_bags, want_pos = [], []
        for bag in bags:
            bag = unmask_bag(bag)
            cands = [p for p in np.flatnonzero(~bag.null_flags)
                     if mode == "continuous"
                     or vocab.is_numeric(vocab.code_for_token(bag.tokens[p]))]
            if cands:
                want_bags.append(bag)
                want_pos.append(int(rng.choice(np.asarray(cands, dtype=np.int64))))
        got = training._imputation_targets(bags, vocab, seed=5)
        assert len(want_bags) < len(bags)      # some bags have nothing to impute
        assert [int(pos) for _, pos in got] == want_pos
        assert len(got) == len(want_bags)
        assert all(bag_payload_equal(a, b) for (a, _), b in zip(got, want_bags))

    def test_empty_test_set_rejected(self):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        with pytest.raises(ContractError):
            evaluate_imputation(init_params(cfg, seed=0), [], vocab, DECODE_CONTINUOUS)

    @pytest.mark.parametrize("size", [0, -4])
    def test_batch_size_below_one_rejected(self, size):
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
        with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {size}"):
            evaluate_imputation(init_params(cfg, seed=0), bags[:10], vocab, DECODE_CONTINUOUS,
                                batch_size=size)


def _run_bytes(root) -> dict:
    """Every file a pretrain run wrote, by path relative to its directory."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestRowBlocks:
    """Each step's batch runs as `training.BLOCKS` row blocks on the usable CPUs."""

    def run(self, tmp_path, monkeypatch, name, cpus, **kw):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=2, num_heads=2, ff_dim=16,
                                     dropout_rate=0.1)
        params = init_params(cfg, seed=3)
        tcfg = TrainConfig(steps=6, batch_size=7, learning_rate=1e-3, seed=2,
                           checkpoint_interval=3, **kw)
        pretrain(params, bags[:40], bags[40:63], tcfg, tmp_path / name)
        assert multiprocessing.active_children() == []
        return _run_bytes(tmp_path / name)

    @pytest.mark.parametrize("kw", [{}, {"remask": True}, {"mask_count": 3},
                                    {"mask_count": 2, "remask": True}, {"val_batches": 2}])
    def test_one_and_two_cpus_write_the_same_bytes(self, tmp_path, monkeypatch, kw):
        one = self.run(tmp_path, monkeypatch, "one", 1, **kw)
        two = self.run(tmp_path, monkeypatch, "two", 2, **kw)
        assert sorted(one) == ["checkpoints/final.ckpt", "checkpoints/step-00000003.ckpt",
                               "checkpoints/step-00000006.ckpt", "metrics.csv"]
        assert one == two

    def test_three_blocks_on_one_and_two_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "BLOCKS", 3)
        one = self.run(tmp_path, monkeypatch, "one", 1)
        assert one == self.run(tmp_path, monkeypatch, "two", 2)
        monkeypatch.setattr(training, "BLOCKS", 2)
        assert one["metrics.csv"] != self.run(tmp_path, monkeypatch, "k2", 2)["metrics.csv"]

    def test_gradient_sum_runs_in_block_order(self):
        # float32 sums that depend on the order: (a + b) + c = 1, (c + b) + a = 0
        bufs = [np.array([v], np.float32) for v in (1e8, -1e8, 1.0)]
        assert training._add_in_order(bufs)[0] == 1.0
        assert bufs[0] is training._add_in_order([bufs[0]])

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_blocks_add_up_to_the_batch_loss_and_gradient(self, mode):
        """Per-block sums over the whole batch's counts give the batch's loss and gradient."""
        events, _ = generate_synthetic_corpus(150, 5, seed=8, missing_rate=0.3)
        counts, by_code = {}, {}
        for e in events:
            counts[e.code_id] = counts.get(e.code_id, 0) + 1
            if e.value is not None:
                by_code.setdefault(e.code_id, []).append(e.value)
        ecdfs = {c: build_ecdf(c, np.asarray(v)) for c, v in by_code.items()}
        vocab = (build_continuous_vocab(counts) if mode == "continuous"
                 else build_decile_vocab(ecdfs, counts))
        bags, _ = build_bags(events, vocab, ecdfs)
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16,
                                     dropout_rate=0.0)
        params = init_params(cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(9)
        batch = pad_batch([mask_bag(b, vocab.mask_token, rng, n_mask=min(2, len(b)))
                           for b in bags[:13]])
        assert batch.truth_nulls.any() or mode == "decile"
        adam = AdamState(params.tensors(), 0.0)

        with Tape():
            whole = training._forward_and_loss(params, batch, True, None)
            tape.backward(whole.total)
        want = gather_grads(adam).copy()

        batch_counts = training._loss_counts(batch)
        draws = np.zeros((0, *batch.tokens.shape, cfg.d_model))
        rows = training._row_blocks(13)
        bufs = [np.empty_like(want) for _ in rows]
        parts = [training._block_grads(params, adam, training._block(batch, *r), r, draws,
                                       batch_counts, buf) for r, buf in zip(rows, bufs)]
        assert [r[1] - r[0] for r in rows] == [6, 7]
        assert sum(p[0] for p in parts) == pytest.approx(whole.ce.item(), rel=1e-12)
        if mode == "continuous":
            assert sum(p[1] for p in parts) == pytest.approx(whole.mse.item(), rel=1e-12)
        np.testing.assert_allclose(training._add_in_order(bufs), want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blocks_match_one_unsplit_step_with_dropout(self, monkeypatch, cpus):
        """Drawing a step's uniforms up front and handing each block its rows
        gives the dropout masks, and the generator state, of one unsplit step."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        bags, vocab, _ = small_corpus()
        cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=2, num_heads=2, ff_dim=16,
                                     dropout_rate=0.3)
        params = init_params(cfg, seed=6, dtype=np.float64)
        batch = pad_batch([mask_bag(b, vocab.mask_token, np.random.default_rng(i))
                           for i, b in enumerate(bags[:9])])
        adam = AdamState(params.tensors(), 0.0)
        serial = np.random.default_rng(11)
        with Tape():
            whole = training._forward_and_loss(params, batch, True, serial)
            tape.backward(whole.total)
        want = gather_grads(adam).copy()

        tcfg = TrainConfig(steps=1, batch_size=9)
        blocks = training._Blocks(params, adam, tcfg, batch.tokens.shape[1], bags[:9])
        rng = np.random.default_rng(11)
        with parallel.Worker(blocks.serve) as blocks.worker:
            results, _ = blocks.gradients(blocks.draw(rng, batch))
        assert rng.bit_generator.state == serial.bit_generator.state
        assert sum(r[0] for r in results) == pytest.approx(whole.ce.item(), rel=1e-12)
        np.testing.assert_allclose(training._add_in_order(blocks.grads), want,
                                   rtol=1e-9, atol=1e-15)

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        parent = os.getpid()
        real = training._block_grads

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise NumericError(f"block failed in process {os.getpid()}")
            return real(*args)

        monkeypatch.setattr(training, "_block_grads", fail_in_worker)   # the fork inherits it
        with pytest.raises(NumericError, match="block failed in process") as info:
            self.run(tmp_path, monkeypatch, "w", 2)
        assert int(str(info.value).split()[-1]) != parent
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nonfinite_gradient_of_the_second_block_is_named(self, tmp_path, monkeypatch,
                                                            cpus):
        real = training._block_grads
        names = [n for n, _ in init_params(ModelConfig.from_vocab(
            small_corpus()[1], d_model=8, num_layers=2, num_heads=2, ff_dim=16)).named_tensors()]

        def poison_block_one(params, adam, block, rows, draws, counts, out):
            result = real(params, adam, block, rows, draws, counts, out)
            if rows[0] > 0:
                start = sum(p.size for p in adam.params[: names.index("block1.ff2_w")])
                out[start + 5] = np.nan
            return result

        monkeypatch.setattr(training, "_block_grads", poison_block_one)
        with pytest.raises(NumericError, match="non-finite gradient in 'block1.ff2_w' at step 1"):
            self.run(tmp_path, monkeypatch, "nan", cpus)
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def seed1_corpus():
    return panel_corpus(seed=1, fractions=(0.8, 0.1, 0.1))


class TestFloat32Trajectory:
    """40 acceptance-config steps in float32 track the float64 run's losses."""

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_float32_tracks_float64_and_reruns_byte_identically(self, seed1_corpus,
                                                                 tmp_path, mode):
        _, counts, ecdfs, splits = seed1_corpus
        vocab = (build_continuous_vocab(counts) if mode == "continuous"
                 else build_decile_vocab(ecdfs, counts))
        train_bags, val_bags = (build_bags(splits[s], vocab, ecdfs)[0] for s in ("train", "val"))
        cfg = ModelConfig.from_vocab(vocab, d_model=64, num_layers=4, num_heads=2, ff_dim=128)
        tcfg = TrainConfig(steps=40, batch_size=32, learning_rate=1e-3, seed=1, val_batches=4)
        runs = {}
        for name, dtype in (("f64", np.float64), ("f32", np.float32), ("f32b", np.float32)):
            params = init_params(cfg, seed=1, dtype=dtype)
            result = pretrain(params, train_bags, val_bags, tcfg, tmp_path / name)
            ckpt = open(result.final_checkpoint, "rb").read()
            runs[name] = (result.history, open(result.metrics_path, "rb").read(), ckpt)
        wide, narrow = runs["f64"][0], runs["f32"][0]
        assert [r[:2] for r in wide] == [r[:2] for r in narrow]
        assert len(narrow) == 40 + 2
        for w, n in zip(wide, narrow):
            assert abs(n[2] - w[2]) <= 1e-5 * abs(w[2]), (w, n)
        assert runs["f32"][1:] == runs["f32b"][1:]
        assert runs["f32"][2] != runs["f64"][2]
