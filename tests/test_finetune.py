"""Fine-tuning wrapper tests: heads, freezing, grid search, linear baselines."""

import csv
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy import optimize

from labmlm import finetune, parallel, tape
from labmlm.corpus import LabBag, build_bags, generate_synthetic_corpus, pad_batch
from labmlm.ecdf import build_continuous_vocab, build_ecdf
from labmlm.errors import ConfigError, DataError, NumericError
from labmlm.finetune import (
    FinetuneConfig,
    FinetuneDataset,
    FinetuneHead,
    DEFAULT_L2_GRID,
    TASK_BINARY,
    TASK_MULTICLASS,
    TASK_REGRESSION,
    _logistic_ce,
    _logistic_newton,
    dataset_bags,
    eval_head,
    finetune_forward,
    fit_linear_baseline,
    grid_search_finetune,
    head_logits,
    head_loss,
    init_finetune_head,
    load_finetune_csv,
    make_folds,
    mean_min_max,
    pool_embeddings,
    train_head,
)
from labmlm.model import ModelConfig, init_params
from labmlm.optim import AdamState, adam_step, zero_param_grads
from labmlm.tape import Tape, TapeTensor, backward


def corpus_fixture(n_patients=60, n_codes=4, seed=2):
    events, truth = generate_synthetic_corpus(n_patients, n_codes, seed=seed)
    counts, by_code = {}, {}
    for ev in events:
        counts[ev.code_id] = counts.get(ev.code_id, 0) + 1
        by_code.setdefault(ev.code_id, []).append(ev.value)
    vocab = build_continuous_vocab(counts)
    ecdfs = {c: build_ecdf(c, np.asarray(v)) for c, v in by_code.items()}
    return vocab, ecdfs, truth


def base_fixture(vocab, seed=0, dtype=np.float32):
    cfg = ModelConfig.from_vocab(vocab, d_model=8, num_layers=1, num_heads=2, ff_dim=16)
    return init_params(cfg, seed=seed, dtype=dtype)


def toy_dataset(vocab, n=24, seed=5):
    rng = np.random.default_rng(seed)
    codes = list(vocab.codes)
    labs = rng.uniform(0, 1, size=(n, len(codes)))
    labels = (labs[:, 0] > 0.5).astype(float)
    return FinetuneDataset(labs, labels, codes, np.zeros((n, 0)), [])


class TestFinetuneConfig:
    def test_default_grid_matches_reference(self):
        cfg = FinetuneConfig()
        assert cfg.epochs_grid == (30, 60, 90)
        assert cfg.batch_grid == (16, 32, 64)
        assert cfg.lr_grid == (1e-4, 3e-4, 5e-4, 1e-3)
        assert cfg.dropout_grid == (0.1, 0.3, 0.5, 0.7)
        assert DEFAULT_L2_GRID == (0.0001, 0.001, 0.01, 0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(task_kind="ranking")
        with pytest.raises(ConfigError):
            FinetuneConfig(lr_grid=())
        with pytest.raises(ConfigError):
            FinetuneConfig(task_kind=TASK_MULTICLASS, n_classes=1)

    @pytest.mark.parametrize("grid", [dict(epochs_grid=(1.5,)), dict(epochs_grid=(0,)),
                                      dict(batch_grid=(8, -1)), dict(batch_grid=("8",))])
    def test_epochs_and_batch_grids_need_positive_integers(self, grid):
        with pytest.raises(ConfigError, match="must hold integers >= 1"):
            FinetuneConfig(**grid)

    @pytest.mark.parametrize("grid, want", [
        (dict(lr_grid=(1e-3, -1e-3)), "lr_grid must hold finite rates >= 0, got -0.001"),
        (dict(lr_grid=(math.nan,)), "lr_grid must hold finite rates >= 0, got nan"),
        (dict(lr_grid=(math.inf,)), "lr_grid must hold finite rates >= 0, got inf"),
        (dict(dropout_grid=(1.0,)), r"dropout_grid must hold rates in \[0, 1\), got 1.0"),
        (dict(dropout_grid=(0.1, -0.2)), r"dropout_grid must hold rates in \[0, 1\), got -0.2"),
    ])
    def test_rates_out_of_range_are_rejected_up_front(self, grid, want):
        with pytest.raises(ConfigError, match=want):
            FinetuneConfig(**grid)


class TestDatasetIO:
    def write_files(self, tmp_path, rows, lab_codes, extra_cols, header):
        csv_path = tmp_path / "data.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        sidecar = tmp_path / "data.json"
        sidecar.write_text(json.dumps(
            {"label": "y", "lab_codes": lab_codes, "extra_features": extra_cols}))
        return csv_path, sidecar

    def test_round_trip_with_oov_rerouting(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        known = vocab.codes[0]
        csv_path, sidecar = self.write_files(
            tmp_path,
            [[1, 3.5, 9.0, 40.0], [0, "", 7.5, 40.5]],
            lab_codes=[known, "XWZ999"], extra_cols=["age"],
            header=["y", known, "XWZ999", "age"])
        ds = load_finetune_csv(csv_path, sidecar, vocab)
        assert ds.lab_codes == [known]
        assert ds.extra_names == ["age", "XWZ999"]
        assert ds.extras.shape == (2, 2)
        assert ds.extras[0].tolist() == [40.0, 9.0]
        assert np.isnan(ds.lab_values[1, 0])
        assert ds.labels.tolist() == [1.0, 0.0]

    def test_missing_column_rejected(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0]], lab_codes=[vocab.codes[0]],
            extra_cols=["age"], header=["y", vocab.codes[0]])
        with pytest.raises(DataError, match="age"):
            load_finetune_csv(csv_path, sidecar, vocab)

    def test_bad_float_names_line(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0], ["oops", 3.0]], lab_codes=[vocab.codes[0]],
            extra_cols=[], header=["y", vocab.codes[0]])
        with pytest.raises(DataError, match="line 3"):
            load_finetune_csv(csv_path, sidecar, vocab)

    def test_nan_lab_is_missing(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        code = vocab.codes[0]
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, "nan"], [0, "NaN"], [1, 2.0]], lab_codes=[code],
            extra_cols=[], header=["y", code])
        ds = load_finetune_csv(csv_path, sidecar, vocab)
        assert np.isnan(ds.lab_values[:2, 0]).all() and ds.lab_values[2, 0] == 2.0

    def test_infinite_lab_names_line_and_column(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        code = vocab.codes[0]
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0], [0, "inf"]], lab_codes=[code],
            extra_cols=[], header=["y", code])
        with pytest.raises(DataError, match=rf"data\.csv line 3: column '{code}' "
                                            r"has non-finite value 'inf'"):
            load_finetune_csv(csv_path, sidecar, vocab)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_extra_names_line_and_column(self, tmp_path, value):
        vocab, _, _ = corpus_fixture()
        code = vocab.codes[0]
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0, 40.0], [0, 3.0, value]], lab_codes=[code],
            extra_cols=["age"], header=["y", code, "age"])
        with pytest.raises(DataError, match=rf"data\.csv line 3: column 'age' "
                                            rf"has non-finite value '{value}'"):
            load_finetune_csv(csv_path, sidecar, vocab)

    def test_short_row_names_line(self, tmp_path):
        vocab, _, _ = corpus_fixture()
        code = vocab.codes[0]
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0, 40.0], [0, 3.0]], lab_codes=[code],
            extra_cols=["age"], header=["y", code, "age"])
        with pytest.raises(DataError, match="line 3: fewer fields than the header"):
            load_finetune_csv(csv_path, sidecar, vocab)

    @pytest.mark.parametrize("text, why", [
        ('{"lab_codes": []}', '"label" names a column'),
        ("[1, 2]", '"label" names a column'),
        ('{"label": 3}', '"label" names a column'),
        ('{"label": "y", "lab_codes": "C000"}', "'lab_codes' must be a list"),
        ('{"label": "y", "extra_features": [1]}', "'extra_features' must be a list"),
        ("{oops", "not valid JSON"),
    ])
    def test_bad_sidecar_is_a_data_error(self, tmp_path, text, why):
        vocab, _, _ = corpus_fixture()
        csv_path, sidecar = self.write_files(
            tmp_path, [[1, 2.0]], lab_codes=[vocab.codes[0]],
            extra_cols=[], header=["y", vocab.codes[0]])
        sidecar.write_text(text)
        with pytest.raises(DataError, match=why):
            load_finetune_csv(csv_path, sidecar, vocab)

    def test_bags_skip_missing_and_need_one_value(self):
        vocab, ecdfs, _ = corpus_fixture()
        codes = list(vocab.codes)[:2]
        labs = np.array([[1.0, np.nan], [np.nan, np.nan]])
        ds = FinetuneDataset(labs, np.array([0.0, 1.0]), codes, np.zeros((2, 0)), [])
        with pytest.raises(DataError, match="sample 1"):
            dataset_bags(ds, vocab, ecdfs)
        ds2 = FinetuneDataset(labs[:1], np.array([0.0]), codes, np.zeros((1, 0)), [])
        bags = dataset_bags(ds2, vocab, ecdfs)
        assert len(bags[0]) == 1
        assert bags[0].tokens[0] == vocab.token_for_code(codes[0])


class TestPooling:
    def test_identical_rows_pool_to_the_row(self):
        vocab, _, _ = corpus_fixture()
        base = base_fixture(vocab)
        bag = LabBag("p", 0.0, np.array([2, 2, 2], dtype=np.int64),
                     np.array([0.4, 0.4, 0.4]), np.zeros(3, dtype=bool))
        pooled = pool_embeddings(base, [bag])
        from labmlm.model import encode
        from labmlm.tape import untracked
        with untracked():
            h = encode(base, pad_batch([bag])).data
        np.testing.assert_array_equal(h[0, 0], h[0, 1])
        np.testing.assert_allclose(pooled[0], h[0, 0], atol=1e-12)

    def test_padding_excluded_from_pool(self):
        vocab, _, _ = corpus_fixture()
        base = base_fixture(vocab)
        short = LabBag("p", 0.0, np.array([1, 2, 3], dtype=np.int64),
                       np.array([0.1, 0.5, 0.9]), np.zeros(3, dtype=bool))
        longer = LabBag("q", 0.0, np.array([1, 2, 3, 1, 2], dtype=np.int64),
                        np.linspace(0.1, 0.9, 5), np.zeros(5, dtype=bool))
        joint = pool_embeddings(base, [short, longer])
        alone = pool_embeddings(base, [short])
        np.testing.assert_array_equal(joint[0], alone[0])


def one_head(task_kind, seed, d_model, n_extra=0, n_classes=2):
    """A one-member stack drawn from default_rng(seed)."""
    return init_finetune_head([np.random.default_rng(seed)], d_model, n_extra, task_kind,
                              n_classes=n_classes)


class TestHead:
    def test_no_extras_skips_concat(self):
        head = one_head(TASK_BINARY, 0, 8)
        assert "extra_w" not in head.by_name
        assert head.by_name["dense_w"].shape == (1, 8, 8)
        logits = head_logits(head, np.random.default_rng(1).normal(size=(4, 8)))
        assert logits.shape == (1, 4)

    def test_extras_widen_the_head(self):
        head = one_head(TASK_BINARY, 0, 8, n_extra=3)
        assert head.by_name["extra_w"].shape == (1, 3, 3)
        assert head.by_name["dense_w"].shape == (1, 11, 11)
        rng = np.random.default_rng(1)
        logits = head_logits(head, rng.normal(size=(4, 8)), rng.normal(size=(4, 3)))
        assert logits.shape == (1, 4)
        with pytest.raises(ConfigError):
            head_logits(head, rng.normal(size=(4, 8)), rng.normal(size=(4, 2)))

    def test_task_activations(self):
        vocab, ecdfs, _ = corpus_fixture()
        base = base_fixture(vocab)
        ds = toy_dataset(vocab, n=6)
        batch = pad_batch(dataset_bags(ds, vocab, ecdfs))
        rng = np.random.default_rng(3)
        binary = init_finetune_head([rng], 8, 0, TASK_BINARY)
        multi = init_finetune_head([rng], 8, 0, TASK_MULTICLASS, n_classes=3)
        regress = init_finetune_head([rng], 8, 0, TASK_REGRESSION)
        p = finetune_forward(base, batch, None, binary).data
        assert p.shape == (1, 6)
        assert np.all((p > 0) & (p < 1))
        q = finetune_forward(base, batch, None, multi).data
        assert q.shape == (1, 6, 3)
        np.testing.assert_allclose(q.sum(axis=-1), 1.0, atol=1e-12)
        r = finetune_forward(base, batch, None, regress).data
        assert r.shape == (1, 6)

    def test_base_gradients_stay_zero(self):
        vocab, ecdfs, _ = corpus_fixture()
        base = base_fixture(vocab)
        ds = toy_dataset(vocab, n=6)
        batch = pad_batch(dataset_bags(ds, vocab, ecdfs))
        head = one_head(TASK_BINARY, 4, 8)
        with Tape():
            out = finetune_forward(base, batch, None, head, training=False)
            loss = head_loss(head, out, ds.labels)
            backward(loss)
        for name, t in base.named_tensors():
            assert t.grad is None, name
        assert all(t.grad is not None for t in head.tensors())

    def test_binary_loss_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        head = init_finetune_head([rng], 4, 0, TASK_BINARY)
        z = rng.normal(size=6)
        y = rng.integers(0, 2, size=6).astype(float)
        got = head_loss(head, TapeTensor(z[None]), y).item()
        p = 1.0 / (1.0 + np.exp(-z))
        want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(got - want) < 1e-12

    def test_multiclass_loss_matches_loop(self):
        rng = np.random.default_rng(6)
        head = init_finetune_head([rng], 4, 0, TASK_MULTICLASS, n_classes=3)
        z = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5).astype(float)
        got = head_loss(head, TapeTensor(z[None]), y).item()
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.mean([math.log(p[i, int(y[i])]) for i in range(5)])
        assert abs(got - want) < 1e-12

    def test_regression_loss_is_mse(self):
        head = one_head(TASK_REGRESSION, 7, 4)
        z = np.array([0.5, 1.5, -1.0])
        y = np.array([0.0, 1.0, -1.0])
        assert head_loss(head, TapeTensor(z[None]), y).item() == pytest.approx(
            np.mean((z - y) ** 2))

    def test_training_learns_and_is_deterministic(self):
        rng = np.random.default_rng(8)
        pooled = rng.normal(size=(40, 6))
        labels = (pooled[:, 0] > 0).astype(float)
        runs = []
        for _ in range(2):
            head = one_head(TASK_BINARY, 9, 6)
            train_head(head, pooled, None, labels, epochs=60, batch_size=10,
                       learning_rate=[0.01], dropout=[0.0], seed=[1])
            runs.append([t.data.copy() for t in head.tensors()])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)
        ce = eval_head(head, pooled, None, labels)
        assert ce.shape == (1,) and ce[0] < 0.2

    def test_batch_larger_than_train_set_rejected(self):
        head = one_head(TASK_BINARY, 10, 4)
        with pytest.raises(ConfigError):
            train_head(head, np.zeros((5, 4)), None, np.zeros(5), epochs=1,
                       batch_size=8, learning_rate=[0.01], dropout=[0.0], seed=[0])


# (learning rate, dropout) per member: two rates and one dropout-0 member.
STACK_MEMBERS = ((0.01, 0.0), (0.03, 0.3), (0.01, 0.5))


def stack_task(task_kind, n=22, seed=30):
    rng = np.random.default_rng(seed)
    pooled = rng.normal(size=(n, 6))
    extras = rng.normal(size=(n, 2))
    if task_kind == TASK_BINARY:
        labels = (pooled[:, 0] + extras[:, 0] > 0).astype(float)
    elif task_kind == TASK_MULTICLASS:
        labels = rng.integers(0, 3, size=n).astype(float)
    else:
        labels = pooled[:, 1] + 0.5 * extras[:, 1]
    return pooled, extras, labels


def member_view(name, t, m):
    """Member m of a stacked tensor, with a bias as a (fan_out,) vector."""
    return t.data[m, 0] if name.endswith("_b") else t.data[m]


class TestStackedHeads:
    def fresh(self, task_kind, m):
        """Member m alone: a one-member stack."""
        return one_head(task_kind, 40 + m, 6, n_extra=2, n_classes=3)

    def stack(self, task_kind, members):
        return init_finetune_head([np.random.default_rng(40 + m) for m in range(members)],
                                  6, 2, task_kind, n_classes=3)

    def test_stack_shapes_and_member_draws(self):
        stack = self.stack(TASK_MULTICLASS, 3)
        assert stack.members == 3
        assert stack.by_name["extra_w"].shape == (3, 2, 2)
        assert stack.by_name["dense_b"].shape == (3, 1, 8)
        assert stack.by_name["out_w"].shape == (3, 8, 3)
        for m in range(3):
            for (name, a), (_, b) in zip(stack.named_tensors(),
                                         self.fresh(TASK_MULTICLASS, m).named_tensors()):
                np.testing.assert_array_equal(a.data[m], b.data[0])

    @pytest.mark.parametrize("task_kind", [TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION])
    def test_stack_trains_exactly_like_its_members_alone(self, task_kind):
        pooled, extras, labels = stack_task(task_kind)
        lrs = [lr for lr, _ in STACK_MEMBERS]
        rates = [rate for _, rate in STACK_MEMBERS]
        seeds = [50 + m for m in range(len(STACK_MEMBERS))]
        stack = self.stack(task_kind, len(STACK_MEMBERS))
        losses = train_head(stack, pooled, extras, labels, epochs=3, batch_size=5,
                            learning_rate=lrs, dropout=rates, seed=seeds)
        assert losses.shape == (len(STACK_MEMBERS),)
        for m in range(len(STACK_MEMBERS)):
            alone = self.fresh(task_kind, m)
            loss = train_head(alone, pooled, extras, labels, epochs=3, batch_size=5,
                              learning_rate=lrs[m:m + 1], dropout=rates[m:m + 1],
                              seed=seeds[m:m + 1])
            assert loss[0] == losses[m]
            for a, b in zip(stack.tensors(), alone.tensors()):
                np.testing.assert_array_equal(a.data[m], b.data[0])

    def test_one_head_matches_a_plain_training_loop(self):
        """The oracle is the unstacked arithmetic: 2-D matmuls and tape.dropout."""
        pooled, extras, labels = stack_task(TASK_BINARY)
        head = self.fresh(TASK_BINARY, 0)
        train_head(head, pooled, extras, labels, epochs=3, batch_size=5,
                   learning_rate=[0.03], dropout=[0.3], seed=[7])
        ref = {name: TapeTensor(member_view(name, t, 0).copy(), trainable=True)
               for name, t in self.fresh(TASK_BINARY, 0).named_tensors()}
        rng = np.random.default_rng(7)
        adam = AdamState(list(ref.values()), 0.03)
        for _ in range(3):
            order = rng.permutation(len(labels))
            for start in range(0, len(labels), 5):
                idx = order[start : start + 5]
                zero_param_grads(list(ref.values()))
                with Tape():
                    e = tape.relu(tape.matmul(extras[idx], ref["extra_w"]) + ref["extra_b"])
                    x = tape.concat([pooled[idx], e], axis=-1)
                    z = tape.relu(tape.matmul(x, ref["dense_w"]) + ref["dense_b"])
                    z = tape.dropout(z, 0.3, rng, training=True)
                    logits = tape.matmul(z, ref["out_w"]) + ref["out_b"]
                    logits = tape.reshape(logits, logits.shape[:-1])
                    y = labels[idx]
                    backward(tape.tmean(tape.softplus(logits) - tape.mul(logits, y)))
                adam_step(adam)
        for name, t in head.named_tensors():
            np.testing.assert_array_equal(member_view(name, t, 0), ref[name].data)

    def test_stacked_loss_sums_member_means(self):
        pooled, extras, labels = stack_task(TASK_MULTICLASS)
        stack = self.stack(TASK_MULTICLASS, 2)
        got = head_loss(stack, head_logits(stack, pooled, extras), labels).item()
        want = sum(head_loss(h, head_logits(h, pooled, extras), labels).item()
                   for h in (self.fresh(TASK_MULTICLASS, m) for m in range(2)))
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("task_kind", [TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION])
    def test_eval_scores_each_member_like_a_one_member_stack(self, task_kind):
        """One forward over a stack equals each member scored alone, bit for bit."""
        pooled, extras, labels = stack_task(task_kind, n=31)
        train, held = slice(0, 22), slice(22, 31)     # 9 held-out rows, not a batch multiple
        stack = self.stack(task_kind, len(STACK_MEMBERS))
        train_head(stack, pooled[train], extras[train], labels[train], epochs=2, batch_size=5,
                   learning_rate=[lr for lr, _ in STACK_MEMBERS],
                   dropout=[rate for _, rate in STACK_MEMBERS], seed=[60, 61, 62])
        got = eval_head(stack, pooled[held], extras[held], labels[held])
        assert got.shape == (len(STACK_MEMBERS),)
        for m in range(len(STACK_MEMBERS)):
            alone = FinetuneHead(task_kind, {name: TapeTensor(t.data[m : m + 1].copy(),
                                                              trainable=True)
                                             for name, t in stack.named_tensors()})
            (want,) = eval_head(alone, pooled[held], extras[held], labels[held])
            assert got[m] == want

    def test_stack_needs_one_setting_per_member(self):
        pooled, extras, labels = stack_task(TASK_BINARY)
        stack = self.stack(TASK_BINARY, 2)
        with pytest.raises(ConfigError, match="2 heads"):
            train_head(stack, pooled, extras, labels, epochs=1, batch_size=5,
                       learning_rate=[0.01], dropout=[0.0, 0.0], seed=[1, 2])
        with pytest.raises(ConfigError, match="dropout"):
            train_head(stack, pooled, extras, labels, epochs=1, batch_size=5,
                       learning_rate=[0.01, 0.01], dropout=[0.0, 1.0], seed=[1, 2])


class TestFolds:
    def test_sizes_balanced_and_deterministic(self):
        f1 = make_folds(23, 5, np.random.default_rng(3))
        f2 = make_folds(23, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(f1, f2)
        counts = np.bincount(f1, minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 23

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            make_folds(3, 5, np.random.default_rng(0))


class TestGridSearch:
    def small_cfg(self):
        return FinetuneConfig(task_kind=TASK_BINARY, epochs_grid=(100,),
                              batch_grid=(8,), lr_grid=(0.02,), dropout_grid=(0.0,))

    def test_learns_separable_task(self):
        vocab, ecdfs, _ = corpus_fixture()
        base = base_fixture(vocab)
        ds = toy_dataset(vocab, n=48, seed=6)
        bags = dataset_bags(ds, vocab, ecdfs)
        pooled = pool_embeddings(base, bags)
        ds.labels = (pooled[:, 0] > np.median(pooled[:, 0])).astype(float)
        result = grid_search_finetune(base, ds, vocab, ecdfs, self.small_cfg(),
                                      k_folds=3, replicates=2, seed=0)
        assert len(result.rows) == 1
        assert result.best is result.rows[0]
        assert result.best["mean"] < math.log(2)
        assert result.metric == "ce"
        assert len(result.best["replicate_metrics"]) == 2

    def test_deterministic_per_seed(self):
        vocab, ecdfs, _ = corpus_fixture()
        base = base_fixture(vocab)
        ds = toy_dataset(vocab, n=20, seed=7)
        tables = []
        for _ in range(2):
            res = grid_search_finetune(base, ds, vocab, ecdfs, self.small_cfg(),
                                       k_folds=2, replicates=2, seed=3)
            tables.append(res.rows)
        assert tables[0] == tables[1]

    def test_oversized_batch_rejected_upfront(self):
        vocab, ecdfs, _ = corpus_fixture()
        base = base_fixture(vocab)
        ds = toy_dataset(vocab, n=20, seed=8)
        cfg = FinetuneConfig(task_kind=TASK_BINARY, batch_grid=(64,),
                             epochs_grid=(30,), lr_grid=(1e-3,), dropout_grid=(0.1,))
        with pytest.raises(ConfigError, match="smallest training fold"):
            grid_search_finetune(base, ds, vocab, ecdfs, cfg, k_folds=5)

    def test_tie_break_prefers_cheaper_cells(self):
        rows = [
            {"mean": 0.5, "epochs": 90, "learning_rate": 1e-4},
            {"mean": 0.5, "epochs": 30, "learning_rate": 3e-4},
            {"mean": 0.5, "epochs": 30, "learning_rate": 1e-4},
        ]
        best = min(rows, key=lambda r: (r["mean"], r["epochs"], r["learning_rate"]))
        assert best == rows[2]


def golden_dataset(vocab, task_kind, n=23, seed=21):
    rng = np.random.default_rng(seed)
    codes = list(vocab.codes)
    labs = rng.uniform(0, 1, size=(n, len(codes)))
    extras = rng.normal(size=(n, 2))
    if task_kind == TASK_BINARY:
        labels = (labs[:, 0] + 0.3 * extras[:, 0] > 0.5).astype(float)
    elif task_kind == TASK_MULTICLASS:
        labels = np.digitize(labs[:, 0], [1 / 3, 2 / 3]).astype(float)
    else:
        labels = 2.0 * labs[:, 0] + extras[:, 1]
    return FinetuneDataset(labs, labels, codes, extras, ["e0", "e1"])


# replicate_metrics of each row, in grid order, recorded from training every
# head alone; any drift in the fine-tune arithmetic changes them.
GOLDEN_ROWS = {
    TASK_BINARY: [
        [0.7734783463499707, 0.7407188084099182], [0.6971368980312007, 0.7114759982865768],
        [0.7591067458369123, 0.7588151817592277], [0.7505409255819508, 0.7522347525554686],
        [0.7079373833424446, 0.79398323485318], [0.7729007832078787, 0.8153506338918127],
        [0.7194517870334983, 0.757587568354112], [0.7023144281714881, 0.7617642521512963],
    ],
    TASK_MULTICLASS: [
        [1.172066065346775, 1.2509217384079878], [1.1040130680010194, 1.2485853210351108],
        [1.1390805872382566, 1.2478130546975872], [1.1873280987849664, 1.214471188552657],
        [1.1195492281197699, 1.17639429567839], [1.0974191365781671, 1.240017459412369],
        [1.2943918947078612, 1.3418010820269661], [1.113302563883504, 1.2945217324692722],
    ],
    TASK_REGRESSION: [
        [1.719571619185685, 1.8016639567577606], [1.666045990866016, 1.9426720959071044],
        [1.2187910763466607, 1.2576475388541335], [1.3145469427316725, 1.4839631726273452],
        [1.5563003340244914, 1.7103794452278396], [1.932085530036781, 2.003342242082922],
        [0.989109264448498, 1.4616631985755804], [1.2838216856596643, 1.9716477313982395],
    ],
}


@pytest.mark.parametrize("task_kind", [TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION])
def test_golden_grid_rows(task_kind, monkeypatch):
    """Unequal folds (23 rows, k=5), a dropout-0 cell, two extras, two stacks.

    The 20 units run inline with one usable CPU and in a pool of two forked
    workers with two; both give the same bits, and no worker outlives the call.
    """
    vocab, ecdfs, _ = corpus_fixture()
    base = base_fixture(vocab, dtype=np.float64)
    cfg = FinetuneConfig(task_kind=task_kind, n_classes=3, epochs_grid=(3,),
                         batch_grid=(5, 8), lr_grid=(0.01, 0.05), dropout_grid=(0.0, 0.4))
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        result = grid_search_finetune(base, golden_dataset(vocab, task_kind), vocab, ecdfs,
                                      cfg, k_folds=5, replicates=2, seed=4)
        assert [r["replicate_metrics"] for r in result.rows] == GOLDEN_ROWS[task_kind], cpus
        assert multiprocessing.active_children() == []


def test_grid_unit_error_reaches_the_caller(monkeypatch):
    def fail(*args, **kwargs):
        raise NumericError(f"unit failed in process {os.getpid()}")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(finetune, "train_head", fail)     # forked workers inherit it
    vocab, ecdfs, _ = corpus_fixture()
    cfg = FinetuneConfig(task_kind=TASK_BINARY, epochs_grid=(2,), batch_grid=(4, 8),
                         lr_grid=(0.01,), dropout_grid=(0.0,))
    with pytest.raises(NumericError, match="unit failed in process") as info:
        grid_search_finetune(base_fixture(vocab), toy_dataset(vocab, n=20), vocab, ecdfs,
                             cfg, k_folds=2, replicates=2)
    assert int(str(info.value).split()[-1]) != os.getpid()    # raised in a worker
    assert multiprocessing.active_children() == []


class TestLabelValidation:
    def grid(self, labels, task_kind=TASK_BINARY):
        vocab, ecdfs, _ = corpus_fixture()
        ds = toy_dataset(vocab, n=len(labels))
        ds.labels = np.asarray(labels, dtype=float)
        cfg = FinetuneConfig(task_kind=task_kind, n_classes=3, epochs_grid=(1,),
                             batch_grid=(2,), lr_grid=(0.01,), dropout_grid=(0.0,))
        return grid_search_finetune(base_fixture(vocab), ds, vocab, ecdfs, cfg, k_folds=2)

    def baseline(self, labels, task_kind):
        labels = np.asarray(labels, dtype=float)
        x = np.linspace(0, 1, len(labels)).reshape(-1, 1)
        ds = FinetuneDataset(x, labels, ["c"], np.zeros((len(labels), 0)), [])
        return fit_linear_baseline(ds, task_kind, k_folds=2)

    def test_binary_label_outside_zero_one(self):
        with pytest.raises(DataError, match="row 3 has label 2.0"):
            self.grid([0, 1, 0, 2, 1, 0])
        with pytest.raises(DataError, match="row 3 has label 2.0"):
            self.baseline([0, 1, 0, 2, 1, 0], TASK_BINARY)

    def test_fractional_multiclass_label(self):
        with pytest.raises(DataError, match="row 2 has label 1.7"):
            self.grid([0, 1, 1.7, 2, 1, 0], TASK_MULTICLASS)
        with pytest.raises(DataError, match="row 2 has label 1.7"):
            self.baseline([0, 1, 1.7, 2, 1, 0], TASK_MULTICLASS)

    def test_nan_label(self):
        for task_kind in (TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION):
            with pytest.raises(DataError, match="row 4 has label nan"):
                self.grid([0, 1, 0, 1, np.nan, 0], task_kind)
            with pytest.raises(DataError, match="row 4 has label nan"):
                self.baseline([0, 1, 0, 1, np.nan, 0], task_kind)

    def test_multiclass_label_outside_n_classes(self):
        with pytest.raises(DataError, match=r"row 1 has label 3.0.*\[0, 3\)"):
            self.grid([0, 3, 1, 2, 1, 0], TASK_MULTICLASS)
        with pytest.raises(DataError, match="row 5 has label -1.0"):
            self.grid([0, 2, 1, 2, 1, -1], TASK_MULTICLASS)

    def test_baseline_infers_classes_but_rejects_negatives(self):
        with pytest.raises(DataError, match="row 5 has label -1.0"):
            self.baseline([0, 2, 1, 2, 1, -1], TASK_MULTICLASS)


class TestLinearBaseline:
    def test_ols_recovers_exact_line(self):
        x = np.linspace(-2, 3, 12).reshape(-1, 1)
        ds = FinetuneDataset(x, 2.0 * x[:, 0] + 1.0, ["c"], np.zeros((12, 0)), [])
        result = fit_linear_baseline(ds, TASK_REGRESSION, k_folds=3, seed=0)
        assert abs(result.coef[0] - 2.0) < 1e-8
        assert abs(result.intercept - 1.0) < 1e-8
        assert result.best_c is None
        assert result.cv_metric < 1e-12

    def test_newton_matches_independent_bfgs_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 3))
        true_beta = np.array([0.5, -1.0, 2.0, 0.75])
        z = true_beta[0] + x @ true_beta[1:]
        y = (rng.uniform(size=50) < 1 / (1 + np.exp(-z))).astype(float)
        c = 0.01
        beta = _logistic_newton(x, y, c)

        def objective(b):
            xb = np.concatenate([np.ones((50, 1)), x], axis=1)
            zz = xb @ b
            return np.mean(np.logaddexp(0.0, zz) - y * zz) + c / 2 * np.sum(b[1:] ** 2)

        ref = optimize.minimize(objective, np.zeros(4), method="BFGS",
                                options={"gtol": 1e-12}).x
        np.testing.assert_allclose(beta, ref, atol=1e-4)

    def test_weaker_penalty_fits_separable_data_tighter(self):
        x = np.concatenate([np.linspace(-2, -1, 5), np.linspace(1, 2, 5)]).reshape(-1, 1)
        y = np.array([0.0] * 5 + [1.0] * 5)
        ces = [_logistic_ce(x, y, _logistic_newton(x, y, c))
               for c in (0.1, 0.01, 0.001, 0.0001)]
        assert all(a > b for a, b in zip(ces, ces[1:]))
        assert ces[-1] < 0.05

    def test_binary_cv_selects_a_grid_c(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        ds = FinetuneDataset(x, y, ["a", "b"], np.zeros((60, 0)), [])
        result = fit_linear_baseline(ds, TASK_BINARY, k_folds=4, seed=1)
        assert result.best_c in DEFAULT_L2_GRID
        assert len(result.per_c) == 4
        assert result.cv_metric == min(e["metric"] for e in result.per_c)
        assert result.cv_metric < math.log(2)

    def test_multiclass_path(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(45, 2))
        y = np.argmax(np.stack([x[:, 0], x[:, 1], -x[:, 0] - x[:, 1]]), axis=0).astype(float)
        ds = FinetuneDataset(x, y, ["a", "b"], np.zeros((45, 0)), [])
        result = fit_linear_baseline(ds, TASK_MULTICLASS, l2_grid=(0.01,),
                                     k_folds=3, seed=2)
        assert result.coef.shape == (2, 3)
        assert np.isfinite(result.cv_metric)
        assert result.cv_metric < math.log(3)

    def test_singular_design_warns(self):
        x = np.ones((8, 2))
        x[:, 1] = 2.0
        ds = FinetuneDataset(x, np.arange(8, dtype=float), ["a", "b"],
                             np.zeros((8, 0)), [])
        with pytest.warns(UserWarning, match="least-norm"):
            fit_linear_baseline(ds, TASK_REGRESSION, k_folds=2, seed=0)

    def test_missing_labs_are_mean_filled(self):
        x = np.array([[1.0], [2.0], [np.nan], [4.0], [3.0], [np.nan]])
        ds = FinetuneDataset(x, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
                             ["c"], np.zeros((6, 0)), [])
        result = fit_linear_baseline(ds, TASK_BINARY, l2_grid=(0.01,), k_folds=2, seed=3)
        assert np.isfinite(result.cv_metric)


def test_mean_min_max():
    m, lo, hi = mean_min_max([0.3, 0.1, 0.5])
    assert (m, lo, hi) == (pytest.approx(0.3), 0.1, 0.5)
