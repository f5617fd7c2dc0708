#!/usr/bin/env python3
"""Benchmark of the laha package: training, all-label scoring, label embedding, quality.

Run from the root of a checkout:

    python3 bench/run.py --workload aapd-train --seed 1 --seconds 5 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off, each timing
calibrated against a reference kernel (see workloads.py).  `--trace 1`
runs the workload's own phase twice on the same inputs, untraced and
then traced, and reports the per-layer metrics of the traced pass plus
the tracing overhead.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record,
with the environment and, for traced runs, the spans, goes to
`.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a 2-vCPU machine a second OpenBLAS thread spins between
# calls and competes with the interpreter thread, which made timings about
# three times noisier.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# Quality figures printed and recorded beside the bounded metrics of
# BENCHMARK.json; their seed-to-seed spread is too wide for a bound.
REPORTED_UNITS = {"p_at_1": "fraction", "p_at_3": "fraction", "ndcg_at_3": "fraction",
                  "g1_ndcg_at_5": "fraction", "final_loss": "nats"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("aapd-train", "eurlex-score", "aapd-quality"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads(numpy_dir: Path) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it exposes one."""
    for lib in sorted((numpy_dir.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not let git search the parent directories
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(Path(np.__file__).resolve().parent),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------


def untraced(wl, workload, args, ops) -> tuple[dict, dict]:
    run = workload.sample(wl.Run(args.seed, args.seconds, ops))
    print(json.dumps(run.info["corpus"]))
    if "quality_gate" in run.info:
        print(json.dumps(run.info["quality_gate"]["corpus"]))
    run.info["samples"] = run.samples
    run.info["raw_and_reference_seconds"] = run.raw
    run.measures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run.measures, run.info


def install(tracer) -> None:
    from laha import data, labelgraph, metrics, model, numeric, training

    def labels_scored(args, kwargs):
        subset = args[4] if len(args) > 4 else kwargs.get("subset", ())
        tracer.counts["model.labels_scored"] += len(subset)

    for owner, attrs in (
        (training, ("train", "encode_document", "sample_labels", "bce_loss", "adam_step")),
        (data, ("encode_document",)),
        (model, ("wrap_params", "bilstm_forward", "self_attention", "interaction_attention",
                 "fuse", "predict")),
        (numeric, ("backward",)),
        (metrics, ("evaluate",)),
        (labelgraph, ("build_cooccurrence_graph", "sample_walks", "train_skipgram")),
    ):
        for attr in attrs:
            tracer.wrap(owner, attr, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
    tracer.wrap(model, "forward", "model.forward", observe=labels_scored)
    tracer.count_constructions(getattr(numeric, "Node", None), "numeric.Node")
    tracer.install_gc_timer()


def layer_metrics(tr, untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures of one traced pass; a layer that did not run reads 0."""
    docs = tr.calls["model.forward"]               # documents through the model
    train_docs = tr.calls["training.sample_labels"]  # one label draw per trained document
    batches = tr.calls["training.bce_loss"]
    scored = tr.calls["bench.score_fn"]

    def per(amount: float, base: float, scale: float = 1.0) -> float:
        return amount * scale / base if base else 0.0

    def ms(name: str, base: float) -> float:
        return per(tr.total_s.get(name, 0.0), base, 1000.0)

    def self_ms(name: str, base: float) -> float:
        return per(tr.self_s.get(name, 0.0), base, 1000.0)

    # label-embedding figures are per embedding run
    embeds = tr.calls["labelgraph.sample_walks"]
    walk_s = per(tr.total_s.get("labelgraph.sample_walks", 0.0), embeds)
    sgns_s = per(tr.total_s.get("labelgraph.train_skipgram", 0.0), embeds)
    steps = per(tr.counts["labelgraph.walk_steps"], embeds)
    pairs = per(tr.counts["labelgraph.sgns_pairs"], embeds)
    return {
        "model.bilstm_forward.ms_per_doc": ms("model.bilstm_forward", docs),
        "model.self_attention.ms_per_doc": ms("model.self_attention", docs),
        "model.interaction_attention.ms_per_doc": ms("model.interaction_attention", docs),
        "model.fuse.ms_per_doc": ms("model.fuse", docs),
        "model.predict.ms_per_doc": ms("model.predict", docs),
        "model.forward.self_ms_per_doc": self_ms("model.forward", docs),
        "model.wrap_params.ms_per_call": ms("model.wrap_params", tr.calls["model.wrap_params"]),
        "model.labels_scored_per_doc": per(tr.counts["model.labels_scored"], docs),
        "numeric.backward.ms_per_doc": ms("numeric.backward", train_docs),
        "numeric.nodes_per_doc": per(tr.counts["numeric.Node"], docs),
        "runtime.gc_ms_per_doc": per(tr.gc_s, docs, 1000.0),
        "training.train.self_ms_per_doc": self_ms("training.train", train_docs),
        "training.sample_labels.ms_per_doc": ms("training.sample_labels", train_docs),
        "training.bce_loss.ms_per_batch": ms("training.bce_loss", batches),
        "training.adam_step.ms_per_batch": ms("training.adam_step",
                                              tr.calls["training.adam_step"]),
        "labelgraph.build_cooccurrence_graph.s":
            per(tr.total_s.get("labelgraph.build_cooccurrence_graph", 0.0), embeds),
        "labelgraph.sample_walks.s": walk_s,
        "labelgraph.walk_steps": steps,
        "labelgraph.walk_steps_per_s": per(steps, walk_s),
        "labelgraph.train_skipgram.s": sgns_s,
        "labelgraph.sgns_pairs": pairs,
        "labelgraph.sgns_pairs_per_s": per(pairs, sgns_s),
        "metrics.evaluate.self_ms_per_doc": self_ms("metrics.evaluate", scored),
        "trace.wall_s": traced_s,
        "trace.remainder_s": tr.self_s.get("bench.run", 0.0),
        "trace.overhead_pct": per(100.0 * (traced_s - untraced_s), untraced_s),
    }


def traced(wl, workload, args, ops) -> tuple[dict, dict]:
    import corpus
    from tracer import Tracer

    run = wl.Run(args.seed, args.seconds, ops, calibrate=False)
    state = workload.setup(args.seed)
    print(json.dumps(corpus.describe(state.corpus)))
    start = time.perf_counter()
    units = workload.measure(run, state)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    state = workload.setup(args.seed)
    run = wl.Run(args.seed, args.seconds, ops, tracer=tracer, calibrate=False)
    install(tracer)
    tracer.enter("bench.run")
    try:
        workload.measure(run, state, units)
    finally:
        tracer.exit()
        tracer.uninstall()
    traced_s = tracer.total_s["bench.run"]
    run.tracer = None
    workload.verify(run, state)

    table = sorted(((tr_name, tracer.calls[tr_name], tracer.total_s[tr_name], s)
                    for tr_name, s in tracer.self_s.items()), key=lambda row: -row[3])
    print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, calls, total, self_s in table:
        print(f"{name:40s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    self_sum = sum(row[3] for row in table)
    print(f"self times incl. remainder {self_sum:.4f} s; traced wall {traced_s:.4f} s; "
          f"untraced wall {untraced_s:.4f} s")
    info = {
        "units_replayed": units,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_time_sum_s": self_sum,
        "absent": tracer.absent,
        "gc_collections": tracer.counts["gc.collections"],
        "spans": [{"name": n, "calls": c, "total_s": t, "self_s": s} for n, c, t, s in table],
    }
    if tracer.absent:
        print("absent (not traced): " + ", ".join(tracer.absent))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"),
                 {"workload": args.workload, "seed": args.seed})
    return layer_metrics(tracer, untraced_s, traced_s), info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "laha" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'laha'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import laha

    if Path(laha.__file__).resolve().parent != (src / "laha").resolve():
        print(f"bench: imported laha from {laha.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = wl.WORKLOADS[args.workload]
    ops = wl.Ops()
    env = environment(args.seed)
    measures, info = (traced if args.trace else untraced)(wl, workload, args, ops)

    result_metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measures:
            ops.check(False, f"metric {name} was not measured")
        result_metrics[name] = {"value": float(measures.get(name, 0.0)), "unit": metric["unit"]}
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": result_metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "measures": measures, "info": info, "errors": ops.errors,
              "result": result}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(env))
    for error in ops.errors:
        print(f"FAILED: {error}")
    from_gate = set(info.get("from_gate", ()))

    def show(name, value, unit, note=""):
        if name in from_gate:
            note = f"{note} (from aapd-quality gate)".lstrip()
        print(f"{args.workload:14s} {name:42s} {value:14.6g} {unit} {note}".rstrip())

    for name, metric in result_metrics.items():
        show(name, metric["value"], metric["unit"])
    for name, unit in REPORTED_UNITS.items():
        if not args.trace and name in measures:
            show(name, measures[name], unit, "(unbounded)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
