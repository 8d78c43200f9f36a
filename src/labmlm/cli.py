"""Command-line pipeline: synth, preprocess, pretrain, impute, finetune, dump-embeddings.

Every command is a thin wrapper over the library. Outputs are deterministic
given the same inputs and seeds (no timestamps), and a failing command removes
whatever it had already written so reruns start clean.
"""

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import parallel
from .corpus import (
    build_bags,
    code_frequencies,
    filter_rare_codes,
    generate_synthetic_corpus,
    pad_batch,
    read_event_table,
    read_shards,
    split_patients,
    write_atomic,
    write_events_csv,
    write_shards,
)
from .ecdf import (
    MODE_CONTINUOUS,
    MODE_DECILE,
    Vocab,
    build_continuous_vocab,
    build_decile_vocab,
    build_ecdf,
    load_ecdfs,
    save_ecdfs,
)
from .errors import ConfigError, DataError, LabMLMError
from .finetune import (
    FinetuneConfig,
    fit_linear_baseline,
    grid_search_finetune,
    load_finetune_csv,
)
from .model import ModelConfig, check_bag_tokens, encode, init_params, load_checkpoint
from .tape import untracked
from .training import (
    DECODE_CONTINUOUS,
    DECODE_WEIGHTED,
    TrainConfig,
    evaluate_imputation,
    pretrain,
)

SPLITS = ("train", "val", "test")


class _Outputs:
    """Tracks artifacts as they are created so a failed run leaves nothing."""

    def __init__(self):
        self._files = []
        self._dirs = []

    def mkdir(self, path) -> Path:
        p = Path(path)
        if not p.exists():
            root = p
            while root.parent != root and not root.parent.exists():
                root = root.parent
            self._dirs.append(root)
        p.mkdir(parents=True, exist_ok=True)
        return p

    def file(self, path) -> Path:
        p = Path(path)
        self._files.append(p)
        return p

    def discard(self):
        for p in self._files:
            p.unlink(missing_ok=True)
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)


# Thread settings that change BLAS reduction order, and so the output bits.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _runtime(dtype) -> dict:
    """What byte-identical reruns depend on besides the inputs and seeds.

    With no thread variable set, BLAS sizes its thread pool from the CPUs the
    process may run on, so that count is recorded too; the fine-tune grid
    sizes its worker pool from the same count.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "cpus": parallel.usable_cpus(),
            "dtype": np.dtype(dtype).name}


def _write_json(path, obj):
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _read_json_object(path, what: str) -> dict:
    try:
        loaded = json.loads(Path(path).read_bytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return loaded


def _resolve_config(defaults: dict, config_path, args) -> dict:
    """Layer a JSON config file over defaults, then let explicit flags win."""
    resolved = dict(defaults)
    if config_path is not None:
        loaded = _read_json_object(config_path, "config")
        unknown = sorted(set(loaded) - set(resolved))
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys {unknown}")
        resolved.update(loaded)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _load_vocab(data_dir) -> Vocab:
    path = Path(data_dir) / "vocab.json"
    if not path.exists():
        raise DataError(f"{data_dir} has no vocab.json; run preprocess first")
    return Vocab.load(path)


def _check_checkpoint_matches(params, checkpoint_path, vocab, vocab_path):
    if params.config.mode != vocab.mode or params.config.vocab_size != vocab.vocab_size:
        raise ConfigError(
            f"checkpoint {checkpoint_path} (mode {params.config.mode}, "
            f"vocab size {params.config.vocab_size}) does not match "
            f"{vocab_path} (mode {vocab.mode}, vocab size {vocab.vocab_size})")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args, out: _Outputs) -> int:
    events, truth = generate_synthetic_corpus(
        args.patients, args.codes, bag_rate=args.bag_rate,
        latent_dim=args.latent_dim, seed=args.seed, n_panels=args.panels,
        missing_rate=args.missing_rate)
    out_dir = out.mkdir(args.out)
    write_events_csv(out.file(out_dir / "events.csv"), events)
    _write_json(out.file(out_dir / "truth.json"), truth)
    print(f"wrote {len(events)} events for {args.patients} patients to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# preprocess


def _parse_splits(text: str):
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--splits must be three comma-separated numbers, got {text!r}") from None
    if len(parts) != 3:
        raise ConfigError(f"--splits must name train,val,test fractions, got {text!r}")
    return parts


def cmd_preprocess(args, out: _Outputs) -> int:
    events = read_event_table(args.events)
    total_codes = len(events.code_ids)
    kept = filter_rare_codes(events, args.min_count)
    if not len(kept):
        raise DataError(f"--min-count {args.min_count} left no events")

    fractions = _parse_splits(args.splits)
    pids = kept.patient_ids
    splits = split_patients([pids[i] for i in np.unique(kept.patient).tolist()],
                            fractions, seed=args.seed)
    split_of = {pid: k for k, ids in enumerate(splits) for pid in ids}
    row_split = np.array([split_of.get(pid, -1) for pid in pids], dtype=np.int64)[kept.patient]
    by_split = {split: kept.take(row_split == k) for k, split in enumerate(SPLITS)}

    # Tokenizer statistics come from the training split only; a code that
    # never shows up there is dropped from every split.
    counts = code_frequencies(by_split["train"])
    if not counts:
        raise DataError("training split has no events; adjust --splits")
    binary_codes = [c for c in args.binary_codes.split(",") if c]
    values = by_split["train"].values_by_code(skip=binary_codes)
    ecdfs = {c: build_ecdf(c, v) for c, v in sorted(values.items())}
    if args.mode == MODE_CONTINUOUS:
        vocab = build_continuous_vocab(counts)
    else:
        vocab = build_decile_vocab(ecdfs, counts, binary_codes)

    out_dir = out.mkdir(args.out)
    save_ecdfs(out.file(out_dir / "ecdfs.json"), ecdfs)
    vocab.save(out.file(out_dir / "vocab.json"))

    summary = {}
    for split in SPLITS:
        bags, stats = build_bags(by_split[split], vocab, ecdfs)
        write_shards(bags, out.mkdir(out_dir / split), args.shard_size, split=split)
        summary[split] = stats

    print(f"codes kept: {vocab.num_codes} of {total_codes}")
    print(f"vocab size: {vocab.vocab_size}")
    for split in SPLITS:
        s = summary[split]
        print(f"{split}: {s['bags_kept']} bags kept, {s['bags_dropped_small']} dropped small, "
              f"{s['events_dropped_oov']} events out of vocabulary")
    return 0


# ---------------------------------------------------------------------------
# pretrain


PRETRAIN_DEFAULTS = {
    "d_model": 64,
    "num_layers": 2,
    "num_heads": 2,
    "ff_dim": 128,
    "key_dim": None,
    "steps": 1000,
    "batch_size": 256,
    "learning_rate": 1e-5,
    "dropout": 0.1,
    "seed": 0,
    "checkpoint_interval": 14000,
    "mask_count": 1,
    "remask": False,
    "val_batches": None,
}


def cmd_pretrain(args, out: _Outputs) -> int:
    cfg = _resolve_config(PRETRAIN_DEFAULTS, args.config, args)
    data = Path(args.data)
    vocab = _load_vocab(data)
    train_bags = list(read_shards(data / "train"))
    val_bags = list(read_shards(data / "val"))

    model_cfg = ModelConfig.from_vocab(
        vocab, d_model=cfg["d_model"], num_layers=cfg["num_layers"],
        num_heads=cfg["num_heads"], ff_dim=cfg["ff_dim"], key_dim=cfg["key_dim"],
        dropout_rate=cfg["dropout"])
    train_cfg = TrainConfig(
        steps=cfg["steps"], batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"], seed=cfg["seed"],
        checkpoint_interval=cfg["checkpoint_interval"], mask_count=cfg["mask_count"],
        remask=cfg["remask"], val_batches=cfg["val_batches"])
    check_bag_tokens(model_cfg, train_bags, str(data / "train"))
    check_bag_tokens(model_cfg, val_bags, str(data / "val"))

    out_dir = out.mkdir(args.out)
    out.mkdir(out_dir / "checkpoints")
    params = init_params(model_cfg, seed=cfg["seed"])
    _write_json(out.file(out_dir / "config.json"),
                {"data": str(data), "model": model_cfg.to_dict(), "train": cfg,
                 "runtime": _runtime(params.dtype)})
    out.file(out_dir / "metrics.csv")

    result = pretrain(params, train_bags, val_bags, train_cfg, out_dir)

    final_val = [row for row in result.history if row[1] == "val"][-1]
    report = {
        "steps": cfg["steps"],
        "final_checkpoint": str(Path(result.final_checkpoint).relative_to(out_dir)),
        "checkpoints": [str(Path(p).relative_to(out_dir)) for p in result.checkpoints],
        "final_val": {"step": final_val[0], "ce": final_val[2],
                      "mse": final_val[3], "perplexity": final_val[4]},
    }
    _write_json(out.file(out_dir / "report.json"), report)
    print(f"step {final_val[0]} val ce {final_val[2]:.6f} mse {final_val[3]:.6f} "
          f"perplexity {final_val[4]:.4f}")
    print(f"final checkpoint: {result.final_checkpoint}")
    return 0


# ---------------------------------------------------------------------------
# impute


def _check_at_least_one(**flags) -> None:
    """ConfigError naming the first flag that is set and below 1."""
    for name, value in flags.items():
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def cmd_impute(args, out: _Outputs) -> int:
    _check_at_least_one(batch_size=args.batch_size)
    params = load_checkpoint(args.checkpoint)
    data = Path(args.data)
    vocab = _load_vocab(data)
    _check_checkpoint_matches(params, args.checkpoint, vocab, data / "vocab.json")
    bags = list(read_shards(data / args.split))
    check_bag_tokens(params.config, bags, str(data / args.split))
    decode = args.decode
    if decode is None:
        decode = DECODE_CONTINUOUS if vocab.mode == MODE_CONTINUOUS else DECODE_WEIGHTED
    report = evaluate_imputation(params, bags, vocab, decode, seed=args.seed,
                                 ablation=args.ablation, batch_size=args.batch_size)
    out_dir = out.mkdir(args.out)
    _write_json(out.file(out_dir / "config.json"),
                {"checkpoint": str(args.checkpoint), "data": str(data),
                 "split": args.split, "decode": decode, "ablation": args.ablation,
                 "seed": args.seed})
    _write_json(out.file(out_dir / "report.json"), report.to_json())
    print(f"imputation r {report.r:.4f} (r2 {report.r2:.4f}) over {report.n} bags, "
          f"decode {decode}, ablation {str(report.ablation).lower()}")
    return 0


# ---------------------------------------------------------------------------
# finetune


def _load_grid(path) -> dict:
    allowed = {"epochs_grid", "batch_grid", "lr_grid", "dropout_grid"}
    loaded = _read_json_object(path, "grid")
    unknown = sorted(set(loaded) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown grid keys {unknown}")
    for key, values in loaded.items():
        if not (isinstance(values, list) and values
                and all(isinstance(v, (int, float)) for v in values)):
            raise ConfigError(f"{path}: {key} must be a non-empty list of numbers, "
                              f"got {values!r}")
    return {k: tuple(v) for k, v in loaded.items()}


def cmd_finetune(args, out: _Outputs) -> int:
    params = load_checkpoint(args.checkpoint)
    data = Path(args.data)
    vocab = _load_vocab(data)
    _check_checkpoint_matches(params, args.checkpoint, vocab, data / "vocab.json")
    if vocab.mode != MODE_CONTINUOUS:
        raise ConfigError(
            f"finetune needs a {MODE_CONTINUOUS}-mode checkpoint; "
            f"{args.checkpoint} and {data / 'vocab.json'} are {vocab.mode}")
    ecdfs = load_ecdfs(data / "ecdfs.json")
    sidecar = args.sidecar or Path(args.dataset).with_suffix(".json")
    dataset = load_finetune_csv(args.dataset, sidecar, vocab)

    grid = _load_grid(args.grid) if args.grid else {}
    cfg = FinetuneConfig(task_kind=args.task, n_classes=args.classes, **grid)
    result = grid_search_finetune(params, dataset, vocab, ecdfs, cfg,
                                  k_folds=args.k_folds, replicates=args.replicates,
                                  seed=args.seed)

    out_dir = out.mkdir(args.out)
    _write_json(out.file(out_dir / "config.json"),
                {"checkpoint": str(args.checkpoint), "data": str(data),
                 "dataset": str(args.dataset), "task": args.task,
                 "n_classes": args.classes, "k_folds": args.k_folds,
                 "replicates": args.replicates, "seed": args.seed,
                 "epochs_grid": list(cfg.epochs_grid),
                 "batch_grid": list(cfg.batch_grid),
                 "lr_grid": list(cfg.lr_grid),
                 "dropout_grid": list(cfg.dropout_grid)})
    with open(out.file(out_dir / "grid.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epochs", "batch_size", "learning_rate", "dropout",
                         "mean", "min", "max"])
        for row in result.rows:
            writer.writerow([row["epochs"], row["batch_size"],
                             repr(row["learning_rate"]), repr(row["dropout"]),
                             repr(row["mean"]), repr(row["min"]), repr(row["max"])])

    report = {"task": args.task, "metric": result.metric,
              "best": {k: result.best[k] for k in
                       ("epochs", "batch_size", "learning_rate", "dropout",
                        "mean", "min", "max")},
              "runtime": _runtime(params.dtype)}
    if args.baseline:
        baseline = fit_linear_baseline(dataset, args.task,
                                       k_folds=args.k_folds, seed=args.seed)
        report["baseline"] = {"metric": baseline.cv_metric, "best_c": baseline.best_c}
    _write_json(out.file(out_dir / "report.json"), report)

    b = result.best
    print(f"grid rows: {len(result.rows)}")
    print(f"best cell: epochs {b['epochs']} batch {b['batch_size']} "
          f"lr {b['learning_rate']} dropout {b['dropout']} -> "
          f"{result.metric} {b['mean']:.6f} (min {b['min']:.6f}, max {b['max']:.6f})")
    if args.baseline:
        print(f"linear baseline {result.metric} {report['baseline']['metric']:.6f} "
              f"(c {report['baseline']['best_c']})")
    return 0


# ---------------------------------------------------------------------------
# dump-embeddings


def cmd_dump_embeddings(args, out: _Outputs) -> int:
    _check_at_least_one(batch_size=args.batch_size, limit=args.limit)
    params = load_checkpoint(args.checkpoint)
    data = Path(args.data)
    vocab = _load_vocab(data)
    _check_checkpoint_matches(params, args.checkpoint, vocab, data / "vocab.json")
    bags = list(read_shards(data / args.split))
    if args.limit is not None:
        bags = bags[: args.limit]
    if not bags:
        raise DataError(f"{data / args.split} holds no bags")
    check_bag_tokens(params.config, bags, str(data / args.split))

    out_dir = out.mkdir(args.out)
    d = params.config.d_model
    rows = 0
    with open(out.file(out_dir / "embeddings.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag", "position", "code"] + [f"e{i}" for i in range(d)])
        for start in range(0, len(bags), args.batch_size):
            chunk = bags[start : start + args.batch_size]
            with untracked():
                h = encode(params, pad_batch(chunk)).data
            for i, bag in enumerate(chunk):
                for j in range(len(bag)):
                    code = vocab.code_for_token(int(bag.tokens[j]))
                    writer.writerow([start + i, j, code]
                                    + [repr(float(x)) for x in h[i, j]])
                    rows += 1
    print(f"wrote {rows} embedding rows for {len(bags)} bags to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labmlm",
        description="Masked-language-model pipeline over bags of lab (code, value) pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic lab corpus")
    p.add_argument("--patients", type=int, required=True)
    p.add_argument("--codes", type=int, required=True)
    p.add_argument("--latent-dim", type=int, default=2)
    p.add_argument("--bag-rate", type=float, default=3.0)
    p.add_argument("--panels", type=int, default=None)
    p.add_argument("--missing-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="tokenize an events CSV into shards")
    p.add_argument("--events", required=True)
    p.add_argument("--min-count", type=int, default=500)
    p.add_argument("--splits", default="0.7,0.1,0.2")
    p.add_argument("--mode", choices=[MODE_CONTINUOUS, MODE_DECILE],
                   default=MODE_CONTINUOUS)
    p.add_argument("--binary-codes", default="",
                   help="comma-separated codes carrying no numeric value (decile mode)")
    p.add_argument("--shard-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="run masked pre-training on shards")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--config", default=None, help="JSON config; flags override it")
    p.add_argument("--d-model", type=int, default=None)
    p.add_argument("--num-layers", type=int, default=None)
    p.add_argument("--num-heads", type=int, default=None)
    p.add_argument("--ff-dim", type=int, default=None)
    p.add_argument("--key-dim", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint-interval", type=int, default=None)
    p.add_argument("--mask-count", type=int, default=None)
    p.add_argument("--remask", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--val-batches", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("impute", help="score masked-value imputation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--decode", choices=["continuous", "weighted-quantile", "argmax"],
                   default=None)
    p.add_argument("--ablation", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("finetune", help="grid-search a task head on a frozen base")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dataset", required=True, help="task CSV")
    p.add_argument("--sidecar", default=None,
                   help="column-role JSON (default: dataset with .json suffix)")
    p.add_argument("--task", choices=["binary", "multiclass", "regression"],
                   default="binary")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--grid", default=None, help="JSON overriding the search grids")
    p.add_argument("--k-folds", type=int, default=5)
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--baseline", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("dump-embeddings", help="write contextual embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Outputs()
    try:
        return args.func(args, out)
    except (LabMLMError, OSError) as e:
        out.discard()
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
