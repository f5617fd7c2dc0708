"""Bench runs over seeds, summarized in BENCH_labelembed.json, BENCH_score.json, BENCH_train.json.

For each seed, runs

    python3 bench/run.py --workload W --seed S --seconds 5 --trace 0

for W in aapd-quality, eurlex-score and aapd-train, one subprocess per
run, and reads the record it leaves in .bench_out/W-seedS-trace0.json.
Each file at the repo root covers one end-to-end metric on the workloads
that measure it themselves (not through aapd-quality's quality gate):

    BENCH_labelembed.json  label_embed_s     aapd-quality, eurlex-score
    BENCH_score.json       score_docs_per_s  eurlex-score, aapd-quality
    BENCH_train.json       train_docs_per_s  aapd-train, aapd-quality

and holds the commit, the environment, each run's calibrated figure, the
median raw seconds of its samples (a sample is one timed call: an
embedding, a chunk of scored documents, a batch or epoch of training)
and their count, its operation counts and, for aapd-quality (the only
workload that trains a model to the quality check), its quality figures,
and each workload's median and quartiles.

    python3 scripts/experiments.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 5
QUALITY = ("p_at_1", "p_at_3", "p_at_5", "ndcg_at_3", "ndcg_at_5", "g1_ndcg_at_5")
# file -> (prefix of its per-run keys, the calibrated metric, its workloads)
BENCH_FILES = {
    "BENCH_labelembed.json": ("label_embed", "label_embed_s", ("aapd-quality", "eurlex-score")),
    "BENCH_score.json": ("score", "score_docs_per_s", ("eurlex-score", "aapd-quality")),
    "BENCH_train.json": ("train", "train_docs_per_s", ("aapd-train", "aapd-quality")),
}
WORKLOADS = ("aapd-quality", "eurlex-score", "aapd-train")


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `3,5,8` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bench_run(workload: str, seed: int) -> dict:
    """The record of one untraced bench run."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())


def run_row(record: dict, prefix: str, metric: str) -> dict:
    """One run's figures for one bench file."""
    measures, result = record["measures"], record["result"]
    raw = [raw_s for raw_s, _ in record["info"]["raw_and_reference_seconds"][metric]]
    return {"seed": record["environment"]["seed"], metric: measures[metric],
            f"{prefix}_raw_s": float(np.median(raw)), f"{prefix}_samples": len(raw),
            **{name: measures[name] for name in QUALITY if record["workload"] == "aapd-quality"},
            **{name: result[name] for name in ("correct", "attempted", "failed")}}


def summarize(rows: list[dict], prefix: str, metric: str) -> dict:
    """Median and quartiles of each figure over the runs, and the operation totals."""
    out = {}
    for name in (metric, f"{prefix}_raw_s") + tuple(name for name in QUALITY if name in rows[0]):
        q1, median, q3 = np.percentile([row[name] for row in rows], [25, 50, 75])
        out[name] = {"median": median, "q1": q1, "q3": q3}
    out["runs"] = len(rows)
    out["correct_runs"] = sum(row["correct"] for row in rows)
    for name in ("attempted", "failed"):
        out[name] = sum(row[name] for row in rows)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds to run, as 1-10 or 3,5,8")
    args = parser.parse_args(argv)

    records = {workload: [] for workload in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            record = bench_run(workload, seed)
            records[workload].append(record)
            print(json.dumps({"workload": workload, "seed": seed, **record["result"]}), flush=True)
    env = {key: value for key, value in record["environment"].items() if key != "seed"}
    commit = env.pop("git_commit")
    for path, (prefix, metric, workloads) in BENCH_FILES.items():
        runs = {workload: [run_row(record, prefix, metric) for record in records[workload]]
                for workload in workloads}
        report = {
            "commit": commit,
            "environment": env,
            "command": f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
            "metric": metric,
            "seeds": args.seeds,
            "workloads": {workload: {"summary": summarize(rows, prefix, metric), "runs": rows}
                          for workload, rows in runs.items()},
        }
        (ROOT / path).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
