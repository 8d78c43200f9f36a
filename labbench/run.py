"""labmlm benchmark: one workload per process, closed loop, one thread.

    python3 labbench/run.py --workload pretrain --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's inputs come from --seed. After
set-up (done several times, median reported) and a warm-up round, whole
rounds run until --seconds have passed; each metric is the median over
rounds. Every round's outputs are checked. With --trace 1, traced and
untraced rounds alternate: the traced ones give the per-layer metrics and the
gap between the two kinds gives the tracing overhead. The last line of
stdout is the JSON result; the lines before it print every metric by name.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "job_s": "s", "items_per_s": "1/s"}
DETAIL_UNITS = {
    "cont_steps_per_s": "1/s", "decile_steps_per_s": "1/s",
    "cont_impute_bags_per_s": "1/s", "decile_impute_bags_per_s": "1/s",
    "preprocess_events_per_s": "1/s", "shard_read_bags_per_s": "1/s",
    "finetune_heads_per_s": "1/s",
}


def _import_labmlm():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import labmlm
    except ImportError as exc:
        sys.exit(f"labbench: cannot import labmlm from {src}: {exc}")
    if Path(labmlm.__file__).resolve().parent != (src / "labmlm").resolve():
        sys.exit(f"labbench: labmlm imported from {labmlm.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_labmlm()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"labbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    out_dir = Path.cwd() / ".labbench_out"
    work_root = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        return _run(args, WORKLOADS[args.workload], work_root, out_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _run(args, wl_cls, work_root, out_dir) -> int:
    import layers
    from tracer import Tracer

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    # Set-up runs several times in fresh directories; the last one is used.
    setup_times = []
    for i in range(SETUPS):
        shutil.rmtree(work_root, ignore_errors=True)
        work_root.mkdir(parents=True)
        wl = wl_cls(work_root, args.seed)
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            del wl
            gc.collect()

    attempted = failed = 0

    def record(checks):
        nonlocal attempted, failed
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}")

    wl.warmup()
    if hasattr(wl, "final_check"):
        record(wl.final_check())
    gc.collect()

    tracer = Tracer() if args.trace else None
    plain, traced, layer_rows = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not plain or (tracer and not traced):
        trace_this = tracer is not None and len(traced) < len(plain)
        attempted += 1
        try:
            if trace_this:
                tracer.reset()
                tracer.install()
                try:
                    r = wl.round(tracer)
                finally:
                    tracer.uninstall()
                layer_rows.append(layers.per_layer(tracer, r.counts))
                if len(traced) == 0:
                    out_dir.mkdir(exist_ok=True)
                    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
            else:
                r = wl.round()
        except Exception:
            failed += 1
            traceback.print_exc()
            break
        record(wl.check(r))
        r.state.clear()   # outputs kept for checking must not pile up in peak_rss_mb
        (traced if trace_this else plain).append(r)

    if not plain or (tracer and not traced):
        print("labbench: no round completed", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb,
           "job_s": _median(plain, "job_s"), "items_per_s": _median(plain, "items_per_s")}
    detail = {k: _median(plain, k) for k in DETAIL_UNITS if k in plain[0]}
    detail["error_rate"] = failed / attempted
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced rounds, "
          f"{len(traced)} traced rounds, setups {[round(t, 3) for t in setup_times]}")
    for k, v in e2e.items():
        print(f"  {k} = {v:.6g} {E2E_UNITS[k]}")
    for k, v in detail.items():
        print(f"  {k} = {v:.6g} {DETAIL_UNITS.get(k, '1')}")

    if tracer:
        units = layers.metric_units()
        metrics = {}
        for name, unit in units.items():
            vals = [row[name] for row in layer_rows]
            # counts come from the first traced round, which always follows
            # the same warm-up and untraced round, so they repeat exactly
            metrics[name] = vals[0] if unit == "count" else statistics.median(vals)
        metrics["trace.overhead_pct"] = 100.0 * (
            _median(traced, "job_s") / _median(plain, "job_s") - 1.0)
        for k in sorted(metrics):
            print(f"  {k} = {metrics[k]:.6g} {units[k]}")
        result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
