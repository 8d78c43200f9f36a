"""Per-layer metrics derived from one traced round's spans.

Every workload reports every metric, so the set is fixed: a metric of a
layer the workload does not touch reads 0. On `pretrain`, per-step metrics
carry a `.cont` or `.decile` suffix. "Recorded" means the forward or loss
call that owns the span ran on an active tape, i.e. inside a training step;
eval passes run untracked.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS

MODES = ("cont", "decile")

PER_MODE = {
    "tape.nodes_per_step": "count",
    "tape.backward_ms_per_step": "ms",
    "tape.fwd_self_ms_per_step": "ms",
    "tape.matmul.calls_per_step": "count",
    "tape.matmul.self_ms_per_step": "ms",
    "tape.add.self_ms_per_step": "ms",
    "tape.mul.self_ms_per_step": "ms",
    "tape.layer_norm.ms_per_step": "ms",
    "tape.layer_norm.nodes_per_step": "count",
    "tape.gather.ms_per_step": "ms",
    "tape.gc_gen2_collections": "count",
    "tape.gc_pause_ms": "ms",
    "attention.mha_ms_per_step": "ms",
    "model.embed_ms_per_step": "ms",
    "model.backbone_ms_per_step": "ms",
    "model.heads_ms_per_step": "ms",
    "model.forward_self_ms_per_step": "ms",
    "model.eval_forward_ms_per_batch": "ms",
    "training.loss_ms_per_step": "ms",
    "training.loop_self_ms_per_step": "ms",
    "training.impute_self_ms": "ms",
    "training.decode_us_per_bag": "us",
    "optim.adam_ms_per_step": "ms",
    "corpus.mask_bag.calls": "count",
    "corpus.mask_bag_ms": "ms",
}

SHARED = {
    "corpus.pad_batch_us_per_batch": "us",
    # ingest
    "cli.preprocess_self_ms": "ms",
    "corpus.read_events_csv_ms": "ms",
    "corpus.build_bags_ms": "ms",
    "corpus.write_shards_ms": "ms",
    "ecdf.build_ecdf_ms": "ms",
    "ecdf.vocab_ms": "ms",
    "ecdf.save_ms": "ms",
    "ecdf.apply.calls": "count",
    "ecdf.apply_us_per_call": "us",
    "corpus.shard_bytes": "count",
    "corpus.read_shards_ms": "ms",
    # finetune
    "finetune.heads_trained": "count",
    "finetune.head_steps": "count",
    "finetune.train_head_ms_per_head": "ms",
    "finetune.eval_head_ms_per_head": "ms",
    "tape.nodes_per_head_step": "count",
    "tape.backward_us_per_head_step": "us",
    "optim.adam_us_per_head_step": "us",
    "finetune.pool_ms": "ms",
    "finetune.dataset_bags_ms": "ms",
    "finetune.linear_baseline_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "cli.finetune_self_ms": "ms",
    # the tracer itself
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict:
    units = {}
    for name, unit in PER_MODE.items():
        for mode in MODES:
            units[f"{name}.{mode}"] = unit
    units.update(SHARED)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    return units


FORWARDS = {"model.forward_continuous", "model.forward_decile", "model.encode"}
LOSSES = {"training.multitask_loss", "training.decile_mlm_loss"}
GATHERS = {"tape.embedding_lookup", "tape.permute_l", "tape.take_bl", "tape.take_along_last"}


def _div(a, b):
    return float(a) / b if b else 0.0


class Trace:
    """Columnar view of a tracer's spans with self times and ancestry."""

    def __init__(self, tracer):
        name, parent, start, end, extra = tracer.arrays()
        self.name = np.asarray(tracer.names, dtype=object)[name]
        self.parent = parent
        self.extra = extra
        self.dur = end - start
        cover = np.zeros(len(self.dur))
        has = parent >= 0
        np.add.at(cover, parent[has], self.dur[has])
        self.self_time = self.dur - cover
        self.tape_exits = tracer.tape_exits
        self.gc_events = tracer.gc_events

    def __len__(self):
        return len(self.dur)

    def named(self, *names):
        return np.isin(self.name, list(names))

    def prefixed(self, prefix):
        return np.asarray([n.startswith(prefix) for n in self.name], dtype=bool)

    def owner(self, names):
        """Index of each span's nearest ancestor-or-self in `names`, else -1."""
        hit = self.named(*names)
        res = np.where(hit, np.arange(len(self)), -1)
        cur = self.parent.copy()
        todo = np.flatnonzero(~hit & (cur >= 0))
        while todo.size:
            c = cur[todo]
            found = hit[c]
            res[todo[found]] = c[found]
            rest = todo[~found]
            cur[rest] = self.parent[cur[rest]]
            todo = rest[cur[rest] >= 0]
        return res

    def at(self, owners, parents):
        """Map event parent indices through an owner() array; -1 stays -1."""
        parents = np.asarray(parents, dtype=np.int64)
        out = np.full(parents.shape, -1)
        ok = parents >= 0
        out[ok] = owners[parents[ok]]
        return out

    def ms(self, mask, self_time=False):
        return 1e3 * float((self.self_time if self_time else self.dur)[mask].sum())


def per_layer(tracer, counts: dict) -> dict:
    """Every per-layer metric for one traced round.

    `counts` carries what the workload knows and the spans do not:
    `bags_imputed.<mode>` and `corpus.shard_bytes`.
    """
    tr = Trace(tracer)
    out = {name: 0.0 for name in metric_units()}
    out["trace.spans"] = float(len(tr))

    for layer in LAYERS:
        mask = tr.prefixed(layer + ".")
        out[f"{layer}.calls"] = float(mask.sum())
        out[f"{layer}.self_ms"] = tr.ms(mask, self_time=True)

    exit_parent = np.asarray([p for p, _ in tr.tape_exits], dtype=np.int64)
    exit_nodes = np.asarray([n for _, n in tr.tape_exits], dtype=float)
    gc_parent = np.asarray([e[0] for e in tr.gc_events], dtype=np.int64)
    gc_gen = np.asarray([e[1] for e in tr.gc_events], dtype=np.int64)
    gc_ms = np.asarray([1e3 * (e[3] - e[2]) for e in tr.gc_events])

    _pretrain(tr, out, counts, exit_parent, exit_nodes, gc_parent, gc_gen, gc_ms)
    _ingest(tr, out)
    _finetune(tr, out, exit_parent, exit_nodes)
    out["corpus.shard_bytes"] = float(counts.get("corpus.shard_bytes", 0))
    return out


def _pretrain(tr, out, counts, exit_parent, exit_nodes, gc_parent, gc_gen, gc_ms):
    phase = tr.owner({f"bench.{m}" for m in MODES})
    loop = tr.owner({"training.pretrain"})
    ctx = tr.owner(FORWARDS | LOSSES)
    recorded = (ctx >= 0) & (tr.extra[np.maximum(ctx, 0)] >= 0)
    is_fwd_call = tr.named(*FORWARDS) & ~tr.named("model.encode")

    tape_op = tr.prefixed("tape.") & ~tr.named("tape.backward")
    ex_phase, ex_loop = tr.at(phase, exit_parent), tr.at(loop, exit_parent)
    gc_phase, gc_loop = tr.at(phase, gc_parent), tr.at(loop, gc_parent)

    for mode in MODES:
        ph = np.flatnonzero(tr.name == f"bench.{mode}")
        if not ph.size:
            continue
        in_mode = np.isin(phase, ph)
        step = in_mode & (loop >= 0)
        fwd = step & recorded
        sel = np.isin(ex_phase, ph) & (ex_loop >= 0)
        steps = int(sel.sum())
        g = np.isin(gc_phase, ph) & (gc_loop >= 0)

        def put(name, value):
            out[f"{name}.{mode}"] = float(value)

        put("tape.nodes_per_step", _div(exit_nodes[sel].sum(), steps))
        put("tape.backward_ms_per_step", _div(tr.ms(step & tr.named("tape.backward")), steps))
        put("tape.fwd_self_ms_per_step", _div(tr.ms(fwd & tape_op, True), steps))
        put("tape.matmul.calls_per_step", _div((fwd & tr.named("tape.matmul")).sum(), steps))
        for op in ("matmul", "add", "mul"):
            put(f"tape.{op}.self_ms_per_step", _div(tr.ms(fwd & tr.named(f"tape.{op}"), True), steps))
        ln = fwd & tr.named("tape.layer_norm")
        put("tape.layer_norm.ms_per_step", _div(tr.ms(ln), steps))
        put("tape.layer_norm.nodes_per_step", _div(tr.extra[ln].sum(), steps))
        put("tape.gather.ms_per_step", _div(tr.ms(fwd & tr.named(*GATHERS)), steps))
        put("tape.gc_gen2_collections", (g & (gc_gen == 2)).sum())
        put("tape.gc_pause_ms", gc_ms[g].sum())
        put("attention.mha_ms_per_step",
            _div(tr.ms(fwd & tr.named("attention.multi_head_attention")), steps))
        put("model.embed_ms_per_step",
            _div(tr.ms(fwd & tr.named("model.categorical_embed", "model.continuous_embed")), steps))
        put("model.backbone_ms_per_step", _div(tr.ms(fwd & tr.named("model.backbone_forward")), steps))
        put("model.heads_ms_per_step",
            _div(tr.ms(fwd & tr.named("model.categorical_head", "model.continuous_head")), steps))
        put("model.forward_self_ms_per_step",
            _div(tr.ms(step & is_fwd_call & (tr.extra >= 0), True), steps))
        ev = in_mode & is_fwd_call & (tr.extra < 0)
        put("model.eval_forward_ms_per_batch", _div(tr.ms(ev), ev.sum()))
        put("training.loss_ms_per_step", _div(tr.ms(step & tr.named(*LOSSES) & (tr.extra >= 0)), steps))
        put("training.loop_self_ms_per_step",
            _div(tr.ms(in_mode & tr.named("training.pretrain"), True), steps))
        put("training.impute_self_ms", tr.ms(in_mode & tr.named("training.evaluate_imputation"), True))
        dec = in_mode & tr.named("training.weighted_quantile_decode", "training.argmax_decode")
        put("training.decode_us_per_bag", 1e3 * _div(tr.ms(dec), counts.get(f"bags_imputed.{mode}", 0)))
        put("optim.adam_ms_per_step", _div(tr.ms(step & tr.named("optim.adam_step")), steps))
        mb = in_mode & tr.named("corpus.mask_bag")
        put("corpus.mask_bag.calls", mb.sum())
        put("corpus.mask_bag_ms", tr.ms(mb))

    pb = tr.named("corpus.pad_batch")
    out["corpus.pad_batch_us_per_batch"] = 1e3 * _div(tr.ms(pb), pb.sum())


def _ingest(tr, out):
    out["cli.preprocess_self_ms"] = tr.ms(tr.named("cli.cmd_preprocess"), True)
    for metric, fn in (("corpus.read_events_csv_ms", "corpus.read_events_csv"),
                       ("corpus.build_bags_ms", "corpus.build_bags"),
                       ("corpus.write_shards_ms", "corpus.write_shards"),
                       ("corpus.read_shards_ms", "corpus.read_shards"),
                       ("ecdf.build_ecdf_ms", "ecdf.build_ecdf"),
                       ("ecdf.save_ms", "ecdf.save_ecdfs")):
        out[metric] = tr.ms(tr.named(fn))
    out["ecdf.vocab_ms"] = tr.ms(tr.named("ecdf.build_continuous_vocab",
                                          "ecdf.build_decile_vocab", "ecdf.Vocab.save"))
    ap = tr.named("ecdf.ecdf_apply")
    out["ecdf.apply.calls"] = float(ap.sum())
    out["ecdf.apply_us_per_call"] = 1e3 * _div(tr.ms(ap), ap.sum())


def _finetune(tr, out, exit_parent, exit_nodes):
    head = tr.owner({"finetune.train_head"})
    in_head = head >= 0
    heads = tr.named("finetune.train_head")
    n_heads = int(heads.sum())
    sel = tr.at(head, exit_parent) >= 0
    steps = int(sel.sum())
    evals = tr.named("finetune.eval_head")
    out["finetune.heads_trained"] = float(n_heads)
    out["finetune.head_steps"] = float(steps)
    out["finetune.train_head_ms_per_head"] = _div(tr.ms(heads), n_heads)
    out["finetune.eval_head_ms_per_head"] = _div(tr.ms(evals), evals.sum())
    out["tape.nodes_per_head_step"] = _div(exit_nodes[sel].sum(), steps)
    out["tape.backward_us_per_head_step"] = 1e3 * _div(tr.ms(in_head & tr.named("tape.backward")), steps)
    out["optim.adam_us_per_head_step"] = 1e3 * _div(tr.ms(in_head & tr.named("optim.adam_step")), steps)
    out["finetune.pool_ms"] = tr.ms(tr.named("finetune.pool_embeddings"))
    out["finetune.dataset_bags_ms"] = tr.ms(tr.named("finetune.dataset_bags"))
    out["finetune.linear_baseline_ms"] = tr.ms(tr.named("finetune.fit_linear_baseline"))
    out["model.load_checkpoint_ms"] = tr.ms(tr.named("model.load_checkpoint"))
    out["cli.finetune_self_ms"] = tr.ms(tr.named("cli.cmd_finetune"), True)
