"""The three benchmark workloads: pretrain, ingest and finetune.

Each workload builds its inputs from the seed in `setup()`, then runs whole
rounds of the job a user waits for. `round()` returns the round's timings;
`check()` verifies its outputs afterwards, outside the timed region. Calls go
through module attributes (`training.pretrain`, `cli.main`, ...) so that a
traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from labmlm import cli, corpus, ecdf, finetune, model, training
from labmlm.tape import untracked

clock = time.perf_counter

# Acceptance config of the pretraining suite.
D_MODEL, NUM_LAYERS, NUM_HEADS, FF_DIM, BATCH = 64, 4, 2, 128, 32


def _digest(root: Path) -> str:
    """sha256 over every file under root, in sorted relative-path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Round(dict):
    """One round's measurements; `counts` feed per-layer metrics."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.counts = {}
        self.state = {}


class Pretrain:
    """Masked pre-training and imputation at the acceptance config."""

    name = "pretrain"
    steps = 40            # per mode per round
    val_batches = 4
    impute_repeat = 4     # imputation runs over the test split this many times

    # Final val CE / MSE bands around this commit's values, with margin. Seeds
    # 0..19 gave cont CE 1.71-2.95, MSE 0.071-0.098 and decile CE 4.82-5.22,
    # with final/step-0 CE at most 0.79 (cont) and 0.94 (decile); a model
    # that does not learn keeps a ratio near 1. A fused op or float32 may
    # move these bits but not out of the bands.
    bands = {"cont": {"ce": (1.4, 3.3), "mse": (0.05, 0.13)},
             "decile": {"ce": (4.5, 5.5)}}
    max_ce_ratio = {"cont": 0.85, "decile": 0.97}

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        angles = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
        loadings = np.stack([(-1.0 if j // 4 == 1 else 1.0)
                             * np.array([np.cos(angles[j % 4]), np.sin(angles[j % 4])])
                             for j in range(20)])
        events, _ = corpus.generate_synthetic_corpus(
            2000, 20, latent_dim=2, seed=self.seed, n_panels=4,
            loadings=loadings, sigmas=np.full(20, 0.05))
        counts = corpus.code_frequencies(events)
        by_code = {}
        for e in events:
            if e.value is not None:
                by_code.setdefault(e.code_id, []).append(e.value)
        ecdfs = {c: ecdf.build_ecdf(c, np.asarray(v)) for c, v in sorted(by_code.items())}
        ids = corpus.split_patients({e.patient_id for e in events}, (0.8, 0.1, 0.1),
                                    seed=self.seed)
        splits = [[e for e in events if e.patient_id in part] for part in ids]
        self.data = {}
        for mode, vocab in (("cont", ecdf.build_continuous_vocab(counts)),
                            ("decile", ecdf.build_decile_vocab(ecdfs, counts))):
            train, val, test = (corpus.build_bags(s, vocab, ecdfs)[0] for s in splits)
            cfg = model.ModelConfig.from_vocab(vocab, d_model=D_MODEL, num_layers=NUM_LAYERS,
                                               num_heads=NUM_HEADS, ff_dim=FF_DIM)
            self.data[mode] = (vocab, cfg, train, val, test * self.impute_repeat)
        self.first = {}

    def warmup(self):
        self._run(steps=3)

    def round(self, tracer=None):
        return self._run(self.steps, tracer)

    def _run(self, steps, tracer=None):
        r = Round()
        job = clock()
        for mode, (vocab, cfg, train, val, test) in self.data.items():
            decode = training.DECODE_CONTINUOUS if mode == "cont" else training.DECODE_WEIGHTED
            params = model.init_params(cfg, seed=self.seed)
            tcfg = training.TrainConfig(steps=steps, batch_size=BATCH, learning_rate=1e-3,
                                        seed=self.seed, val_batches=self.val_batches)
            with tracer.span(f"bench.{mode}") if tracer else contextlib.nullcontext():
                t0 = clock()
                res = training.pretrain(params, train, val, tcfg, self.work / mode)
                t1 = clock()
                rep = training.evaluate_imputation(params, test, vocab, decode, seed=self.seed)
                t2 = clock()
            r[f"{mode}_steps_per_s"] = steps / (t1 - t0)
            r[f"{mode}_impute_bags_per_s"] = rep.n / (t2 - t1)
            r.counts[f"bags_imputed.{mode}"] = rep.n
            r.state[mode] = (params, res.history, rep)
        r["job_s"] = clock() - job
        steps_s = sum(steps / r[f"{m}_steps_per_s"] for m in self.data)
        r["items_per_s"] = 2 * steps / steps_s
        return r

    def check(self, r):
        out = []
        for mode, (params, history, rep) in r.state.items():
            vals = [row for row in history if row[1] == "val"]
            losses = [row[2] for row in history] + ([row[3] for row in history] if mode == "cont" else [])
            out.append((f"{mode}: losses finite", all(math.isfinite(x) for x in losses)))
            out.append((f"{mode}: final val ce below step 0", vals[-1][2] < vals[0][2]))
            ratio = vals[-1][2] / vals[0][2]
            out.append((f"{mode}: final / step-0 val ce {ratio:.3f} <= {self.max_ce_ratio[mode]}",
                        ratio <= self.max_ce_ratio[mode]))
            for key, col in (("ce", 2), ("mse", 3)):
                if key in self.bands[mode]:
                    lo, hi = self.bands[mode][key]
                    out.append((f"{mode}: final val {key} {vals[-1][col]:.4f} in [{lo}, {hi}]",
                                lo <= vals[-1][col] <= hi))
            out.append((f"{mode}: imputation r finite", math.isfinite(rep.r)))
            out.append((f"{mode}: permuted probe permutes outputs exactly",
                        self._equivariant(mode, params)))
            key = repr((vals[-1], rep.r, rep.mse))   # repr: nan == nan
            out.append((f"{mode}: rerun reproduces the first round bit for bit",
                        key == self.first.setdefault(mode, key)))
        return out

    def _equivariant(self, mode, params):
        _, _, _, _, test = self.data[mode]
        rng = np.random.default_rng(self.seed)
        bags = test[:16]
        perms = [rng.permutation(len(b)) for b in bags]
        moved = [corpus.LabBag("p", 0, b.tokens[p], b.values[p], b.null_flags[p])
                 for b, p in zip(bags, perms)]
        fwd = model.forward_continuous if mode == "cont" else model.forward_decile
        with untracked():
            a, b = fwd(params, corpus.pad_batch(bags)), fwd(params, corpus.pad_batch(moved))
        a = a if isinstance(a, tuple) else (a,)
        b = b if isinstance(b, tuple) else (b,)
        return all(np.array_equal(y.data[i, : len(p)], x.data[i, p])
                   for x, y in zip(a, b) for i, p in enumerate(perms))


class Ingest:
    """`labmlm preprocess` in both modes, then reading every shard back."""

    name = "ingest"
    patients = 2500
    codes = 30
    # This commit's output digests for the fixed golden corpus below; the shard,
    # vocab and eCDF formats are byte-stable, so any change shows here.
    golden = {"continuous": "30de5431c4dfae21dbf8c81186fdbd1e1ff1996ff7af6aa876da1ef403dc91ec",
              "decile": "1f96015478ca2183ab244504c15b29470d165b21e93a6230ed98f15581cad205"}

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        self.events_csv = self.work / "events.csv"
        events, _ = corpus.generate_synthetic_corpus(
            self.patients, self.codes, seed=self.seed, missing_rate=0.05)
        corpus.write_events_csv(self.events_csv, events)
        self.n_events = len(events)
        self.digests = None

    def warmup(self):
        # The warm-up round also captures the bags preprocess builds, so that
        # check() can compare them with what the shards read back.
        built = {}
        orig = cli.build_bags

        def capture(events, vocab, ecdfs):
            bags, stats = orig(events, vocab, ecdfs)
            built.setdefault(vocab.mode, []).append(bags)
            return bags, stats

        cli.build_bags = capture
        try:
            r = self.round()
        finally:
            cli.build_bags = orig
        self.built = built
        self.warm_read = r.state["read"]

    def round(self, tracer=None):
        r = Round()
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        job = clock()
        rcs = [_quiet_main(["preprocess", "--events", self.events_csv, "--min-count", 0,
                            "--mode", mode, "--seed", self.seed, "--out", out / mode])
               for mode in ("continuous", "decile")]
        t1 = clock()
        read, n_bags = {}, 0
        for mode in ("continuous", "decile"):
            for split in cli.SPLITS:
                bags = list(corpus.read_shards(out / mode / split))
                for i in range(0, len(bags), BATCH):
                    corpus.pad_batch(bags[i : i + BATCH])
                read[mode, split] = bags
                n_bags += len(bags)
        t2 = clock()
        r["job_s"] = t2 - job
        r["items_per_s"] = 2 * self.n_events / (t1 - job)
        r["preprocess_events_per_s"] = r["items_per_s"]
        r["shard_read_bags_per_s"] = n_bags / (t2 - t1)
        r.counts["corpus.shard_bytes"] = sum(p.stat().st_size for p in out.rglob("shard-*.bin"))
        r.state.update(rcs=rcs, read=read, digest=_digest(out))
        return r

    def check(self, r):
        out = [("preprocess exit codes are 0", r.state["rcs"] == [0, 0])]
        if self.digests is None:
            self.digests = r.state["digest"]
        out.append(("rerun writes byte-identical shards, vocab and eCDFs",
                    r.state["digest"] == self.digests))
        return out

    def final_check(self):
        out = []
        for mode, per_split in self.built.items():
            read = [self.warm_read[mode, s] for s in cli.SPLITS]
            ok = (len(per_split) == len(read)
                  and all(len(a) == len(b) and all(corpus.bag_payload_equal(x, y)
                                                   for x, y in zip(a, b))
                          for a, b in zip(per_split, read)))
            out.append((f"{mode}: shards read back equal the bags built", ok))
        self.built = self.warm_read = None
        for mode, digest in golden_digests(self.work / "golden").items():
            out.append((f"{mode}: golden corpus digest equals this commit's",
                        digest == self.golden[mode]))
        return out


def golden_digests(work: Path) -> dict:
    """Digests of preprocess output for a small fixed corpus, per mode."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    events, _ = corpus.generate_synthetic_corpus(150, 12, seed=20231219, missing_rate=0.1)
    corpus.write_events_csv(work / "events.csv", events)
    out = {}
    for mode in ("continuous", "decile"):
        rc = _quiet_main(["preprocess", "--events", work / "events.csv", "--min-count", 0,
                          "--mode", mode, "--shard-size", 100, "--out", work / mode])
        out[mode] = _digest(work / mode) if rc == 0 else f"exit {rc}"
    shutil.rmtree(work, ignore_errors=True)
    return out


class Finetune:
    """`labmlm finetune` over a 16-cell lr x dropout grid on a frozen base."""

    name = "finetune"
    samples = 120
    replicates = 1
    folds = 5
    grid = {"epochs_grid": [30], "batch_grid": [16]}   # lr and dropout grids stay default

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        w = self.work
        events, truth = corpus.generate_synthetic_corpus(
            400, 20, latent_dim=2, seed=self.seed, n_panels=4)
        corpus.write_events_csv(w / "events.csv", events)
        rc = _quiet_main(["preprocess", "--events", w / "events.csv", "--min-count", 0,
                          "--seed", self.seed, "--out", w / "data"])
        if rc != 0:
            raise RuntimeError(f"finetune setup: preprocess exited {rc}")
        vocab = ecdf.Vocab.load(w / "data" / "vocab.json")
        cfg = model.ModelConfig.from_vocab(vocab, d_model=D_MODEL, num_layers=NUM_LAYERS,
                                           num_heads=NUM_HEADS, ff_dim=FF_DIM)
        # Untrained: the frozen-base cost does not depend on the weights.
        model.save_checkpoint(w / "base.ckpt", model.init_params(cfg, seed=self.seed))
        self.ckpt_sha = hashlib.sha256((w / "base.ckpt").read_bytes()).hexdigest()
        vals, labels, code_ids = corpus.generate_outcome_dataset(
            truth, self.samples, seed=self.seed, task="binary")
        corpus.write_outcome_csv(w / "outcome.csv", w / "outcome.json", vals, labels, code_ids)
        (w / "grid.json").write_text(json.dumps(self.grid))
        self.cells = (len(self.grid["epochs_grid"]) * len(self.grid["batch_grid"])
                      * len(finetune.DEFAULT_LR_GRID) * len(finetune.DEFAULT_DROPOUT_GRID))
        self.heads = self.cells * self.folds * self.replicates
        self.report = None

    def warmup(self):
        self.round()

    def round(self, tracer=None):
        r = Round()
        w, out = self.work, self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        t0 = clock()
        rc = _quiet_main(["finetune", "--checkpoint", w / "base.ckpt", "--data", w / "data",
                          "--dataset", w / "outcome.csv", "--grid", w / "grid.json",
                          "--k-folds", self.folds, "--replicates", self.replicates,
                          "--seed", self.seed, "--out", out])
        r["job_s"] = clock() - t0
        r["items_per_s"] = self.heads / r["job_s"]
        r["finetune_heads_per_s"] = r["items_per_s"]
        r.state["rc"] = rc
        return r

    def check(self, r):
        out_dir = self.work / "out"
        out = [("finetune exit code is 0", r.state["rc"] == 0)]
        if r.state["rc"] != 0:
            return out
        with open(out_dir / "grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        out.append((f"grid.csv has {self.cells} rows", len(rows) == self.cells))
        report = (out_dir / "report.json").read_text()
        out.append(("best mean is finite", math.isfinite(json.loads(report)["best"]["mean"])))
        sha = hashlib.sha256((self.work / "base.ckpt").read_bytes()).hexdigest()
        out.append(("base checkpoint bytes unchanged", sha == self.ckpt_sha))
        if self.report is None:
            self.report = report
        out.append(("rerun writes the same report", report == self.report))
        return out


WORKLOADS = {w.name: w for w in (Pretrain, Ingest, Finetune)}
