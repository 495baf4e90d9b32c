#!/usr/bin/env python3
"""promptscan benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``; no
install is needed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (units alternate untraced/traced so the
tracing overhead is measured in the same run). The last line of stdout
is one JSON object; the lines before it are a readable summary with the
machine settings. A run exits 1 when any correctness check failed.
Results and, for traced runs, every span go to ``perfbench/results/``.
"""

import os

# BLAS reads these when numpy loads, so they are set before any import
# that could load it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "promptscan").is_dir():
    sys.exit(f"error: {SRC / 'promptscan'} not found; run from a promptscan checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import CPUS, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
TRACE_EXTRA = {
    "network.model_forward.traced_peak_mib": "MiB",
    "trace.overhead_ms": "ms",
    "trace.self_ms": "ms",
}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; pct=100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(CPUS),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def traced_peak_mib(probe) -> float:
    """Peak bytes allocated during one forward, under tracemalloc."""
    tracemalloc.start()
    try:
        probe()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def end_to_end(wl, res) -> dict:
    ops = res.op_ms
    return {
        "setup_s": statistics.median(res.setup_s),
        "op_ms_p50": statistics.median(ops),
        "op_ms_tail": percentile(ops, wl.tail_pct),
        "items_per_s": res.items / (sum(ops) / 1000.0),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, res, tracer) -> dict:
    values = tracer.layer_metrics()
    values["network.model_forward.traced_peak_mib"] = traced_peak_mib(wl.memory_probe())
    values["trace.overhead_ms"] = (
        statistics.median(res.traced_op_ms) - statistics.median(res.op_ms)
    )
    values["trace.self_ms"] = tracer.op_self_ms()
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one op's output (benchmark self-test)")
    args = p.parse_args(argv)

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        wl = WORKLOADS[args.workload](work, args.seed, inject_fault=args.inject_fault)
        tracer = Tracer() if args.trace else None
        res = wl.run(args.seconds, tracer)
        if not res.op_ms or (tracer is not None and not res.traced_op_ms):
            res.fail(0, "too short: no untraced op, or no traced op; raise --seconds")
        if res.errors:
            values = {}
        elif tracer is None:
            values = end_to_end(wl, res)
        else:
            values = per_layer(wl, res, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    units = dict(END_TO_END) if tracer is None else {
        **{k: v[0] for k, v in LAYER_METRICS.items()}, **TRACE_EXTRA}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    correct = not res.errors
    error_rate = res.failed / max(res.attempted, 1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print(f"machine  nproc {env['nproc']}  numpy {env['numpy']}  blas {env['blas']}  "
          + "  ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}")
    if tracer is None and correct:
        print(f"  {'(op_ms_tail percentile)':40s} {wl.tail_pct:16g} "
              f"p, of {len(res.op_ms)} ops")
    else:
        print(f"  {'(untraced / traced op_ms_p50)':40s} "
              f"{statistics.median(res.op_ms) if res.op_ms else math.nan:16.3f} / "
              f"{statistics.median(res.traced_op_ms) if res.traced_op_ms else math.nan:.3f} ms"
              f"  ({len(res.op_ms)} / {len(res.traced_op_ms)} ops,"
              f" {res.crosschecks} traced outputs matched untraced ones)")
        if tracer is not None and tracer.missing:
            print(f"  not traced (absent from the program): {', '.join(tracer.missing)}")
    print(f"  {'error_rate':40s} {error_rate:16.6f} 1  "
          f"({res.failed} failed of {res.attempted} attempted)")
    for err in res.errors:
        print(f"  FAILED: {err}")

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.tsv")
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": metrics}
    detail = {**result, "error_rate": error_rate, "tail_pct": wl.tail_pct,
              "ops": len(res.op_ms), "traced_ops": len(res.traced_op_ms),
              "crosschecks": res.crosschecks, "errors": res.errors, "environment": env,
              "setup_s": res.setup_s, "op_ms": res.op_ms, "traced_op_ms": res.traced_op_ms,
              "unit_cpus": res.cpus}
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
