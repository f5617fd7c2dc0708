"""Bench runs over seeds, of this tree and optionally of a revision beside it, in one loop.

    python3 scripts/experiments.py --seeds 1-10 [--trace] [--against REV]

For each seed S, workload W of BENCHMARK.json's workloads, and trace T, 0
or, with --trace, 0 then 1, it runs

    python3 bench/run.py --workload W --seed S --seconds R --trace T

with R its run_seconds, one subprocess per run, and reads the record it
leaves in .bench_out/W-seedS-traceT.json.  It writes, from this tree's runs:

    BENCH_labelembed.json  label_embed_s     eurlex-score, aapd-quality
    BENCH_score.json       score_docs_per_s  eurlex-score, aapd-quality
    BENCH_setup.json       setup_s           aapd-train, eurlex-score, aapd-quality
    BENCH_train.json       train_docs_per_s  aapd-train, aapd-quality
    BENCH_layers.json      ms_per_base       every workload, with --trace only

Each of the first four covers one end-to-end metric, from the untraced
runs of the workloads that measure it themselves: a workload's first
record has the metric and does not list it in info["from_gate"], the
metrics it took from aapd-quality's quality gate.  It holds the commit, the environment, each
run's calibrated figure, the median raw seconds of its samples (a sample
is one timed call: a set-up, an embedding, a chunk of scored documents, a
batch or epoch of training) and their count, its peak RSS (`peak_rss_mb`,
the whole run's), its operation counts and, for aapd-quality (the only
workload that trains a model to the quality check), its quality figures,
and each workload's median and quartiles.

BENCH_layers.json records, for every span of each traced run, its
milliseconds per unit of its base, and that base beside it: "run" for
the spans that run once per run (labelgraph.* and bench.run), "trained"
documents (one training.sample_labels call each) for the training.*
spans and numeric.backward, "scored" documents (one model.forward call
each) for model.forward, metrics.evaluate and bench.score_fn, and
"both" (their sum) for the rest.

With --against REV, each run is paired with the same run of revision
REV, resolved to its commit once before the first run and exported with
`git archive` (its committed files only) into a temporary directory
removed on exit, on SIGTERM too; nothing is registered in the repository,
so a killed run leaves no worktree behind.  The tree that runs first
swaps from one pair of a workload and trace to the next, REV first.  This tree runs as
it stands, uncommitted edits included.  BENCH_compare.json holds both
commits (REV's as resolved: its export is no checkout, so its bench
records read "unknown") and, from the untraced pairs, per workload and
end-to-end metric of BENCHMARK.json, both trees' medians and quartiles,
each pair's figures, the pairs this tree won, how many of this tree's
runs read better than every run of REV and how many read worse than
every one (where the runs spread wider than a bound, all runs better is
what resolves the metric), the median raw seconds of each run's samples
where the metric is timed, and the median's move against the metric's
bound (positive is worse).  It also holds whether each quality figure
(P@1/3/5, nDCG@3/5 and G1 nDCG@5) was float-equal on every pair and,
with --trace, each tree's BENCH_layers.json summary and, per span, how
many traced pairs this tree won (`layer_wins`: fewer milliseconds per
unit of the span's base).
`--against HEAD` gives the noise floor.

It exits 1, once its files are written, if any run of either tree did
not end correct or had a failed operation, and names each such run on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())  # the benchmark the pipeline runs
QUALITY = ("p_at_1", "p_at_3", "p_at_5", "ndcg_at_3", "ndcg_at_5", "g1_ndcg_at_5")
# file -> (prefix of its per-run keys, the calibrated metric)
BENCH_FILES = {
    "BENCH_labelembed.json": ("label_embed", "label_embed_s"),
    "BENCH_score.json": ("score", "score_docs_per_s"),
    "BENCH_setup.json": ("setup", "setup_s"),
    "BENCH_train.json": ("train", "train_docs_per_s"),
}
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
SCORED_SPANS = ("model.forward", "metrics.evaluate", "bench.score_fn")  # for scored docs only


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `3,5,8` or a mix of both; an empty range, a range missing an end (`1-`) or a
    repeated seed raises ValueError."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        span = range(int(first), int(last if dash else first) + 1)
        if not span:
            raise ValueError(f"seed range {part!r} is empty")
        seeds += span
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seed list {text!r} names a seed twice")
    return seeds


def bench_run(workload: str, seed: int, trace: int = 0, tree: Path = ROOT) -> dict:
    """The record of one bench run of a checkout, untraced or traced."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                      .read_text())


def measures_itself(record: dict, metric: str) -> bool:
    """Whether a run measured `metric` in its own phase, not took it from the quality gate."""
    return metric in record["measures"] and metric not in record["info"].get("from_gate", ())


def run_row(record: dict, prefix: str, metric: str) -> dict:
    """One run's figures for one bench file."""
    measures, result = record["measures"], record["result"]
    samples = len(record["info"]["raw_and_reference_seconds"][metric])
    return {"seed": record["environment"]["seed"], metric: measures[metric],
            f"{prefix}_raw_s": raw_median(record, metric), f"{prefix}_samples": samples,
            "peak_rss_mb": measures["peak_rss_mb"],
            **{name: measures[name] for name in QUALITY if record["workload"] == "aapd-quality"},
            **{name: result[name] for name in ("correct", "attempted", "failed")}}


def span_base(name: str) -> str:
    """What a span's time is divided by: "run", or its documents: "trained", "scored", "both"."""
    if name.startswith("labelgraph.") or name == "bench.run":
        return "run"
    if name.startswith("training.") or name == "numeric.backward":
        return "trained"
    return "scored" if name in SCORED_SPANS else "both"


def layer_row(record: dict) -> dict:
    """One traced run's documents, each span's milliseconds per unit of its base, and its
    operation counts; a span whose base has no documents reads 0."""
    spans = {span["name"]: span for span in record["info"]["spans"]}
    trained, scored = (spans[name]["calls"] if name in spans else 0
                       for name in ("training.sample_labels", "model.forward"))
    documents = {"trained": trained, "scored": scored, "both": trained + scored}
    units = {**documents, "run": 1}
    per_unit = {}
    for name, span in spans.items():
        base = span_base(name)
        count = units[base]
        per_unit[name] = {"ms": 1000.0 * span["total_s"] / count if count else 0.0, "base": base}
    return {"seed": record["environment"]["seed"], "documents": documents, "spans": per_unit,
            **{name: record["result"][name] for name in ("correct", "attempted", "failed")}}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def span_ms(row: dict, name: str) -> float:
    """A layer row's milliseconds per unit of a span's base, 0 where its run has no such span."""
    return row["spans"][name]["ms"] if name in row["spans"] else 0.0


def summarize_layers(rows: list[dict]) -> dict:
    """Median and quartiles of each span's milliseconds per unit of its base over the runs."""
    return {name: {"base": first["base"], **quartiles([span_ms(row, name) for row in rows])}
            for name, first in rows[0]["spans"].items()}


def span_wins(base: list[dict], change: list[dict]) -> dict:
    """Per span of a workload's traced (base, change) layer rows, paired by seed, the pairs in
    which the change took fewer milliseconds per unit of its base."""
    names = sorted({name for row in base + change for name in row["spans"]})
    return {name: {"wins": sum(span_ms(c, name) < span_ms(b, name) for b, c in zip(base, change)),
                   "pairs": len(base)} for name in names}


def summarize(rows: list[dict], prefix: str, metric: str) -> dict:
    """Median and quartiles of each figure over the runs, and the operation totals."""
    out = {}
    for name in (metric, f"{prefix}_raw_s", "peak_rss_mb") + tuple(
            name for name in QUALITY if name in rows[0]):
        out[name] = quartiles([row[name] for row in rows])
    out["runs"] = len(rows)
    out["correct_runs"] = sum(row["correct"] for row in rows)
    for name in ("attempted", "failed"):
        out[name] = sum(row[name] for row in rows)
    return out


def raw_median(record: dict, metric: str) -> float | None:
    """Median raw seconds of a run's samples of a timed metric, None for an untimed one."""
    samples = record["info"]["raw_and_reference_seconds"].get(metric)
    return None if samples is None else float(np.median([raw_s for raw_s, _ in samples]))


def exit_code(records: list[dict]) -> int:
    """0, or 1 once each run among `records` that did not end correct or had a failed operation
    is named on stderr."""
    bad = [record for record in records
           if record["result"]["correct"] is not True or record["result"]["failed"]]
    for record in bad:
        print(f"{record['workload']} seed {record['environment']['seed']} trace {record['trace']}:"
              f" correct {record['result']['correct']}, {record['result']['failed']} failed "
              f"operations", file=sys.stderr)
    return 1 if bad else 0


def compare(pairs: list[tuple[dict, dict]], declared: list[dict]) -> dict:
    """One workload's (base, change) record pairs, summed up per metric `declared` as
    BENCHMARK.json's end_to_end lists them; a pair is won where the change is strictly better,
    and a change run is beyond the base where it is strictly better (or worse) than every base
    run."""
    sides = dict(zip(("base", "change"), zip(*pairs)))
    metrics = {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base, change = ([record["measures"][name] for record in sides[side]]
                        for side in ("base", "change"))
        move = sign * (np.median(change) / np.median(base) - 1.0)
        metrics[name] = {
            "base": quartiles(base), "change": quartiles(change),
            "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)), "pairs": len(pairs),
            "better_than_every_base": sum(all(sign * (c - b) < 0 for b in base) for c in change),
            "worse_than_every_base": sum(all(sign * (c - b) > 0 for b in base) for c in change),
            "move": move, "bound": metric["bound"], "within_bound": bool(move <= metric["bound"]),
            "base_runs": base, "change_runs": change}
        raw = {side: [raw_median(record, name) for record in records]
               for side, records in sides.items()}
        if None not in raw["base"] + raw["change"]:
            metrics[name]["raw_s"] = raw
    return {"metrics": metrics,
            "quality_equal": {name: all(b["measures"][name] == c["measures"][name]
                                        for b, c in pairs) for name in QUALITY},
            **{key: {side: sum(record["result"][key] for record in records)
                     for side, records in sides.items()} for key in ("attempted", "failed")}}


@contextlib.contextmanager
def export(rev: str):
    """(REV's commit, its committed files exported into a temporary directory removed on exit).

    `git archive` writes the files, so the repository registers nothing that a killed run
    would leave behind.  While it is open SIGTERM raises SystemExit, which kills and reaps a
    running bench child and removes the directory; the previous handler returns on exit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with tempfile.TemporaryDirectory(prefix="laha-against-") as tmp:
            tree = Path(tmp) / "base"
            tree.mkdir()
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
            yield commit, tree
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds to run, as 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload and seed traced; write BENCH_layers.json")
    parser.add_argument("--against", metavar="REV",
                        help="pair every run with one of revision REV; write BENCH_compare.json")
    args = parser.parse_args(argv)
    traces = (0, 1) if args.trace else (0,)
    sides = ("base", "change") if args.against else ("change",)
    records = {}  # (side, workload, trace) -> that tree's records, a seed each
    with export(args.against) if args.against else contextlib.nullcontext((None, None)) as (
            base_commit, base_tree):
        trees = {"base": base_tree, "change": ROOT}
        for index, seed in enumerate(args.seeds):
            for workload in WORKLOADS:
                for trace in traces:
                    # each seed makes one pair a workload and trace, so this swaps per pair
                    for side in sides[::-1] if index % 2 else sides:
                        record = bench_run(workload, seed, trace, trees[side])
                        records.setdefault((side, workload, trace), []).append(record)
                        print(json.dumps({"side": side, "workload": workload, "seed": seed,
                                          "trace": trace, **record["result"]}), flush=True)
    environments = {side: records[side, WORKLOADS[0], 0][0]["environment"] for side in sides}
    env = {key: value for key, value in environments["change"].items()
           if key not in ("seed", "git_commit")}
    head = {"commit": environments["change"]["git_commit"], "environment": env}

    def write(path: str, report: dict) -> None:
        (ROOT / path).write_text(json.dumps(report, indent=1) + "\n")

    def command(trace: int) -> str:
        seconds = BENCHMARK["run_seconds"]
        return f"bench/run.py --workload W --seed S --seconds {seconds} --trace {trace}"

    for path, (prefix, metric) in BENCH_FILES.items():
        runs = {name: [run_row(record, prefix, metric) for record in records["change", name, 0]]
                for name in WORKLOADS if measures_itself(records["change", name, 0][0], metric)}
        write(path, {**head, "command": command(0), "metric": metric, "seeds": args.seeds,
                     "workloads": {name: {"summary": summarize(rows, prefix, metric), "runs": rows}
                                   for name, rows in runs.items()}})
    if args.trace:
        layers = {(side, name): [layer_row(record) for record in records[side, name, 1]]
                  for side in sides for name in WORKLOADS}
        write("BENCH_layers.json", {
            **head, "command": command(1), "metric": "ms_per_base", "seeds": args.seeds,
            "workloads": {name: {"summary": summarize_layers(layers["change", name]),
                                 "runs": layers["change", name]} for name in WORKLOADS}})
    if args.against:
        workloads = {name: compare(list(zip(records["base", name, 0], records["change", name, 0])),
                                   BENCHMARK["end_to_end"])
                     for name in WORKLOADS}
        for name, compared in workloads.items() if args.trace else ():
            compared["layers"] = {side: summarize_layers(layers[side, name]) for side in sides}
            compared["layer_wins"] = span_wins(layers["base", name], layers["change", name])
        write("BENCH_compare.json", {
            "against": args.against,
            "commits": {"base": base_commit, "change": environments["change"]["git_commit"]},
            "environment": env,
            "command": " and ".join(map(command, traces)) + ", alternating the two trees",
            "seeds": args.seeds, "workloads": workloads})
    return exit_code([record for runs in records.values() for record in runs])


if __name__ == "__main__":
    sys.exit(main())
