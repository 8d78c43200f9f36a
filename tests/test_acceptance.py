"""Acceptance suite: one test per advertised guarantee.

Each test records a single `[acceptance N] ...: PASS` or `FAIL` verdict,
replayed as a summary section at the end of the run. The heavyweight
fixtures, one continuous and one decile pre-training run on a
panel-structured synthetic corpus, are shared across the tests that need
them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gradcheck import assert_grads_close
from panel_corpus import panel_corpus
from labmlm import tape
from labmlm.corpus import (
    Batch,
    LabBag,
    bag_payload_equal,
    build_bags,
    generate_outcome_dataset,
    mask_bag,
    pad_batch,
    read_shards,
    write_shards,
)
from labmlm.ecdf import (
    build_continuous_vocab,
    build_decile_vocab,
    build_ecdf,
    ecdf_apply_many,
)
from labmlm.finetune import (
    FinetuneConfig,
    FinetuneDataset,
    TASK_BINARY,
    _member_losses,
    dataset_bags,
    fit_linear_baseline,
    grid_search_finetune,
    head_logits,
    init_finetune_head,
    pool_embeddings,
)
from labmlm.model import (
    ModelConfig,
    forward_continuous,
    forward_decile,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from labmlm.tape import Tape, TapeTensor, backward
from labmlm.training import (
    TrainConfig,
    evaluate_imputation,
    multitask_loss,
    perplexity,
    pretrain,
)


VERDICTS = []


def _announce(line):
    # collected lines are replayed by conftest's terminal-summary hook,
    # which is how they survive pytest's fd-level capture
    VERDICTS.append(line)
    print(line)


@contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        _announce(f"[acceptance {n}] {desc}: FAIL")
        raise
    _announce(f"[acceptance {n}] {desc}: PASS")


def randomize(params, rng, scale=0.5):
    # fresh init sits at ReLU kinks with near-zero layer-norm variance, where
    # central differences are unreliable; move to a generic point first
    for t in params.tensors():
        t.data[...] = rng.normal(scale=scale, size=t.shape)


def make_bag(rng, n_codes, length, pid="p"):
    return LabBag(pid, 0.0, rng.integers(1, n_codes + 1, size=length).astype(np.int64),
                  rng.uniform(0.0, 1.0, size=length), np.zeros(length, dtype=bool))


# ---------------------------------------------------------------------------
# Shared desk-scale experiment fixtures


@pytest.fixture(scope="module")
def corpus():
    return panel_corpus(seed=0, fractions=(0.9, 0.1, 0.0))


def _pretrain_run(vocab, ecdfs, splits, out_dir):
    train_bags, _ = build_bags(splits["train"], vocab, ecdfs)
    val_bags, _ = build_bags(splits["val"], vocab, ecdfs)
    cfg = ModelConfig.from_vocab(vocab, d_model=64, num_layers=4,
                                 num_heads=2, ff_dim=128)
    params = init_params(cfg, seed=0)
    tcfg = TrainConfig(steps=5000, batch_size=32, learning_rate=1e-3,
                       seed=0, checkpoint_interval=5000)
    start = time.monotonic()
    result = pretrain(params, train_bags, val_bags, tcfg, out_dir)
    elapsed = time.monotonic() - start
    return params, result, elapsed, val_bags


@pytest.fixture(scope="module")
def continuous_run(corpus, tmp_path_factory):
    truth, counts, ecdfs, splits = corpus
    vocab = build_continuous_vocab(counts)
    out = tmp_path_factory.mktemp("pretrain-continuous")
    return (vocab,) + _pretrain_run(vocab, ecdfs, splits, out)


@pytest.fixture(scope="module")
def decile_run(corpus, tmp_path_factory):
    truth, counts, ecdfs, splits = corpus
    vocab = build_decile_vocab(ecdfs, counts)
    out = tmp_path_factory.mktemp("pretrain-decile")
    return (vocab,) + _pretrain_run(vocab, ecdfs, splits, out)


# ---------------------------------------------------------------------------
# 1. Gradient suite


def _op_cases(rng):
    a = TapeTensor(rng.normal(size=(2, 6, 16)))
    b = TapeTensor(rng.normal(size=(2, 6, 16)))
    pos = TapeTensor(rng.uniform(0.5, 2.0, size=(2, 6, 16)))
    m1 = TapeTensor(rng.normal(size=(6, 16)))
    m2 = TapeTensor(rng.normal(size=(16, 6)))
    emb = TapeTensor(rng.normal(size=(9, 16)))
    gain = TapeTensor(rng.normal(size=(16,)))
    bias = TapeTensor(rng.normal(size=(16,)))
    x2 = TapeTensor(rng.normal(size=(3, 16)))
    tok = rng.integers(0, 9, size=(2, 6))
    perm = np.stack([rng.permutation(6) for _ in range(2)])
    rows = np.array([0, 1, 1])
    cols = np.array([2, 0, 5])
    ids = rng.integers(0, 16, size=3)
    w = rng.normal(size=(2, 6, 16))
    w2 = rng.normal(size=(3, 16))
    # attention over 2 heads of 8: bag 0 has two padded positions, bag 1 is all
    # padding. As in the layer, padded query rows are zeroed on output: their
    # scores sit near the -1e9 pad bias, where central differences are noise.
    qkv = [TapeTensor(rng.normal(size=(2, 6, 16))) for _ in range(3)]
    pad = np.zeros((2, 6), dtype=bool)
    pad[0, 4:] = True
    pad[1] = True
    w_live = w * ~pad[:, :, None]
    return [
        ("arithmetic", lambda: tape.tsum((a + b) * a - b / pos), [a, b, pos]),
        ("matmul", lambda: tape.tsum(tape.matmul(m1, m2)), [m1, m2]),
        ("relu", lambda: tape.tsum(tape.relu(a)), [a]),
        ("sigmoid", lambda: tape.tsum(tape.mul(tape.sigmoid(a), w)), [a]),
        ("log", lambda: tape.tsum(tape.log(pos)), [pos]),
        ("softplus", lambda: tape.tsum(tape.mul(tape.softplus(a), w)), [a]),
        ("tmean", lambda: tape.tmean(tape.mul(a, w)), [a]),
        ("softmax", lambda: tape.tsum(tape.mul(tape.softmax(a), w)), [a]),
        ("log_softmax", lambda: tape.tsum(tape.mul(tape.log_softmax(a), w)), [a]),
        ("reshape", lambda: tape.tsum(tape.mul(tape.reshape(a, (2, 96)),
                                               w.reshape(2, 96))), [a]),
        ("concat", lambda: tape.tsum(tape.mul(tape.concat([a, b], axis=-1),
                                              np.concatenate([w, w], -1))), [a, b]),
        ("embedding_lookup", lambda: tape.tsum(tape.mul(
            tape.embedding_lookup(emb, tok), w)), [emb]),
        ("permute_l", lambda: tape.tsum(tape.mul(tape.permute_l(a, perm), w)), [a]),
        ("take_bl", lambda: tape.tsum(tape.mul(tape.take_bl(a, rows, cols), w2)), [a]),
        ("take_along_last", lambda: tape.tsum(tape.take_along_last(x2, ids)), [x2]),
        ("layer_norm", lambda: tape.tsum(tape.mul(
            tape.layer_norm(a, gain, bias), w)), [a, gain, bias]),
        ("attention", lambda: tape.tsum(tape.mul(tape.attention(*qkv, pad, 2, 8), w_live)),
         qkv),
        ("dropout", lambda: tape.tsum(tape.dropout(
            a, 0.3, np.random.default_rng(7).random(a.shape) >= 0.3)), [a]),
    ]


def test_criterion_1_gradient_suite():
    with criterion(1, "ops and full forward match finite differences"):
        start = time.monotonic()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for name, f, tensors in _op_cases(rng):
                assert_grads_close(f, tensors, rel_tol=1e-4, h=1e-5,
                                   coords_per_tensor=2, rng=rng)

            cfg = ModelConfig("continuous", 12, 16, 2, 2, 16)
            params = init_params(cfg, seed=seed, dtype=np.float64)
            randomize(params, rng)
            bags = [mask_bag(make_bag(rng, cfg.num_codes, 6), cfg.mask_token, rng)
                    for _ in range(2)]
            batch = pad_batch(bags)
            # the key bias shifts every attention score equally, so softmax
            # provably ignores it; its true gradient is identically zero
            tensors = [t for n, t in params.named_tensors()
                       if not n.endswith("attn.bk")]

            def f():
                probs, preds = forward_continuous(params, batch)
                return multitask_loss(probs, preds, batch).total

            assert_grads_close(f, tensors, rel_tol=1e-4, h=1e-5,
                               coords_per_tensor=2, rng=rng)
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Permutation equivariance


def test_criterion_2_permutation_equivariance():
    with criterion(2, "forward commutes with bag permutations exactly"):
        rng = np.random.default_rng(2)
        cont_cfg = ModelConfig("continuous", 12, 16, 2, 2, 16)
        cont = init_params(cont_cfg, seed=2)
        randomize(cont, rng)
        dec_cfg = ModelConfig("decile", 23, 16, 2, 2, 16)
        dec = init_params(dec_cfg, seed=3)
        randomize(dec, rng)
        for trial in range(100):
            L = int(rng.integers(3, 13))
            perm = rng.permutation(L)
            bag = make_bag(rng, cont_cfg.num_codes, L)
            permuted = LabBag("p", 0.0, bag.tokens[perm], bag.values[perm],
                              bag.null_flags[perm])
            p1, v1 = forward_continuous(cont, pad_batch([bag]))
            p2, v2 = forward_continuous(cont, pad_batch([permuted]))
            assert np.array_equal(p2.data[0], p1.data[0][perm])
            assert np.array_equal(v2.data[0], v1.data[0][perm])

            dbag = make_bag(rng, 22, L)
            dperm = LabBag("p", 0.0, dbag.tokens[perm], dbag.values[perm],
                           dbag.null_flags[perm])
            q1 = forward_decile(dec, pad_batch([dbag]))
            q2 = forward_decile(dec, pad_batch([dperm]))
            assert np.array_equal(q2.data[0], q1.data[0][perm])


# ---------------------------------------------------------------------------
# 3. Multi-mask symmetry


def test_criterion_3_multimask_symmetry():
    with criterion(3, "three masks in one bag predict identically"):
        rng = np.random.default_rng(4)
        cfg = ModelConfig("continuous", 12, 16, 2, 2, 16)
        params = init_params(cfg, seed=4)
        randomize(params, rng)
        bag = mask_bag(make_bag(rng, cfg.num_codes, 8), cfg.mask_token, rng, n_mask=3)
        batch = pad_batch([bag])
        probs, preds = forward_continuous(params, batch)
        cols = batch.mask_cols
        assert len(cols) == 3
        p = probs.data[0, cols]
        v = preds.data[0, cols]
        assert np.max(np.abs(p - p[0])) <= 1e-12
        assert np.max(np.abs(v - v[0])) <= 1e-12

        dcfg = ModelConfig("decile", 23, 16, 2, 2, 16)
        dparams = init_params(dcfg, seed=5)
        randomize(dparams, rng)
        dbag = mask_bag(make_bag(rng, 22, 8), dcfg.mask_token, rng, n_mask=3)
        dbatch = pad_batch([dbag])
        dprobs = forward_decile(dparams, dbatch)
        dp = dprobs.data[0, dbatch.mask_cols]
        assert np.max(np.abs(dp - dp[0])) <= 1e-12


# ---------------------------------------------------------------------------
# 4. eCDF losslessness


def test_criterion_4_ecdf_losslessness():
    with criterion(4, "compressed eCDF equals the full-rank oracle"):
        for j in range(20):
            rng = np.random.default_rng(100 + j)
            vals = np.concatenate([rng.normal(size=5000),
                                   np.round(rng.normal(size=5000), 1)])
            e = build_ecdf(f"code{j}", vals)
            queries = np.concatenate([vals, rng.normal(size=1000),
                                      np.round(rng.normal(size=500), 1)])
            ranked = np.sort(vals)
            oracle = np.searchsorted(ranked, queries, side="right") / vals.size
            got = ecdf_apply_many(e, queries)
            assert np.array_equal(got, oracle)


# ---------------------------------------------------------------------------
# 5. Desk-scale continuous pre-training


def test_criterion_5_continuous_pretraining(continuous_run):
    vocab, params, result, elapsed, val_bags = continuous_run
    with criterion(5, "continuous pre-training learns values and codes"):
        val_rows = [r for r in result.history if r[1] == "val"]
        step0, final = val_rows[0], val_rows[-1]
        mse0, mse1 = step0[3], final[3]
        ppl0, ppl1 = step0[4], final[4]
        assert mse1 < 1.0 / 12.0, f"val mse {mse1}"
        assert mse1 < 0.5 * mse0, f"val mse {mse1} vs step-0 {mse0}"
        assert ppl1 < 0.5 * ppl0, f"val perplexity {ppl1} vs step-0 {ppl0}"
        trained = evaluate_imputation(params, val_bags, vocab, "continuous", seed=0)
        ablated = evaluate_imputation(params, val_bags, vocab, "continuous",
                                      seed=0, ablation=True)
        assert trained.r > 0.6, f"imputation r {trained.r}"
        assert abs(ablated.r) < 0.2, f"ablation r {ablated.r}"
        assert elapsed < 1200.0, f"pre-training took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. Decile baseline counterpart


def test_criterion_6_decile_counterpart(decile_run):
    vocab, params, result, elapsed, val_bags = decile_run
    with criterion(6, "decile pipeline learns; weighted beats argmax decoding"):
        val_rows = [r for r in result.history if r[1] == "val"]
        assert val_rows[-1][4] < 0.5 * val_rows[0][4]
        weighted = evaluate_imputation(params, val_bags, vocab,
                                       "weighted-quantile", seed=0)
        hard = evaluate_imputation(params, val_bags, vocab, "argmax", seed=0)
        ablated = evaluate_imputation(params, val_bags, vocab,
                                      "weighted-quantile", seed=0, ablation=True)
        assert weighted.mse < hard.mse, (weighted.mse, hard.mse)
        assert weighted.r > ablated.r, (weighted.r, ablated.r)


# ---------------------------------------------------------------------------
# 7. Round trips


def test_criterion_7_round_trips(tmp_path):
    with criterion(7, "shards and checkpoints round-trip exactly"):
        rng = np.random.default_rng(6)
        bags = []
        for i in range(1000):
            L = int(rng.integers(3, 13))
            bag = make_bag(rng, 10, L, pid=f"p{i}")
            if L >= 2 and rng.random() < 0.5:
                bag.null_flags[rng.integers(0, L)] = True
            if rng.random() < 0.5:
                bag = mask_bag(bag, 11, rng)
            bags.append(bag)
        write_shards(bags, tmp_path / "shards", shard_size=128)
        back = list(read_shards(tmp_path / "shards"))
        assert len(back) == len(bags)
        assert all(bag_payload_equal(a, b) for a, b in zip(bags, back))

        cfg = ModelConfig("continuous", 12, 16, 2, 2, 16)
        params = init_params(cfg, seed=7)
        randomize(params, rng)
        batch = pad_batch([mask_bag(make_bag(rng, cfg.num_codes, 5),
                                    cfg.mask_token, rng) for _ in range(3)])
        p1, v1 = forward_continuous(params, batch)
        save_checkpoint(tmp_path / "m.ckpt", params)
        reloaded = load_checkpoint(tmp_path / "m.ckpt")
        p2, v2 = forward_continuous(reloaded, batch)
        assert np.array_equal(p1.data, p2.data)
        assert np.array_equal(v1.data, v2.data)


# ---------------------------------------------------------------------------
# 8. Fine-tune protocol


def test_criterion_8_finetune_protocol(corpus, continuous_run):
    truth, counts, ecdfs, splits = corpus
    vocab, base, _, _, _ = continuous_run
    with criterion(8, "frozen-base grid search beats chance; baseline on same folds"):
        vals, labels, code_ids = generate_outcome_dataset(
            truth, 120, seed=1, task="binary", noise=0.25)
        dataset = FinetuneDataset(vals, labels.astype(float), code_ids,
                                  np.zeros((120, 0)), [])

        # the base stays frozen: a full forward+backward leaves every base
        # parameter without a gradient
        bags = dataset_bags(dataset, vocab, ecdfs)
        head = init_finetune_head([np.random.default_rng(0)],
                                  base.config.d_model, 0, TASK_BINARY)
        for _, t in base.named_tensors():
            t.grad = None
        with Tape():
            logits = head_logits(head, pool_embeddings(base, bags[:8]))
            backward(tape.tsum(_member_losses(head, logits, dataset.labels[:8])))
        assert all(t.grad is None for _, t in base.named_tensors())
        assert all(t.grad is not None for t in head.tensors())

        cfg = FinetuneConfig(task_kind=TASK_BINARY)
        result = grid_search_finetune(base, dataset, vocab, ecdfs, cfg,
                                      k_folds=5, replicates=5, seed=0)
        assert len(result.rows) == 3 * 3 * 4 * 4
        assert result.best["mean"] < math.log(2), result.best

        baseline_ces = [fit_linear_baseline(dataset, TASK_BINARY,
                                            k_folds=5, seed=rep).cv_metric
                        for rep in range(5)]
        table = [(name, (float(np.mean(ces)), float(np.min(ces)), float(np.max(ces))))
                 for name, ces in (("transformer head (frozen base)",
                                    result.best["replicate_metrics"]),
                                   ("logistic regression", baseline_ces))]
        _announce("")
        _announce(f"{'model':38s}  ce mean (min, max), 5 replicates")
        for name, (m, lo, hi) in table:
            _announce(f"{name:38s}  {m:.4f} ({lo:.4f}, {hi:.4f})")
        assert all(math.isfinite(m) for _, (m, _, _) in table)


# ---------------------------------------------------------------------------
# 9. Loss identities


def test_criterion_9_loss_identities():
    with criterion(9, "uniform CE equals ln V; perplexity endpoints exact"):
        rng = np.random.default_rng(8)
        cfg = ModelConfig("continuous", 532, 16, 1, 2, 16)
        params = init_params(cfg, seed=8, dtype=np.float64)
        params.by_name["head_w2"].data[...] = 0.0
        params.by_name["head_b2"].data[...] = 0.0
        bag = mask_bag(make_bag(rng, cfg.num_codes, 6), cfg.mask_token, rng, n_mask=2)
        batch = pad_batch([bag])
        probs, preds = forward_continuous(params, batch)
        parts = multitask_loss(probs, preds, batch)
        assert abs(parts.ce.item() - math.log(530)) < 1e-9
        assert perplexity(0.0) == 1.0
        assert abs(perplexity(math.log(530)) - 530.0) < 1e-9
        assert abs(perplexity(math.log(cfg.num_codes)) - cfg.num_codes) < 1e-9
