"""Label-embedding runs of the benchmark over seeds, summarized in BENCH_labelembed.json.

For each seed, runs

    python3 bench/run.py --workload W --seed S --seconds 5 --trace 0

for W in aapd-quality and eurlex-score, one subprocess per run, and reads
the record it leaves in .bench_out/W-seedS-trace0.json.  The file written
at the repo root holds the commit, the environment, each run's calibrated
and raw label_embed_s, its operation counts and, for aapd-quality (the
only workload that trains a model), its quality figures, and each
workload's median and quartiles.

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
WORKLOADS = ("aapd-quality", "eurlex-score")
SECONDS = 5
QUALITY = ("p_at_1", "p_at_3", "p_at_5", "ndcg_at_3", "ndcg_at_5", "g1_ndcg_at_5")
TIMINGS = ("label_embed_s", "label_embed_raw_s")


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `3,5,8` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bench_run(workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced bench run: its figures, and the environment it recorded."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    measures, result = record["measures"], record["result"]
    raw = [raw_s for raw_s, _ in record["info"]["raw_and_reference_seconds"]["label_embed_s"]]
    row = {"seed": seed, "label_embed_s": measures["label_embed_s"],
           "label_embed_raw_s": float(np.median(raw)), "label_embed_samples": len(raw),
           **{name: measures[name] for name in QUALITY if workload == "aapd-quality"},
           **{name: result[name] for name in ("correct", "attempted", "failed")}}
    return row, record["environment"]


def summarize(rows: list[dict]) -> dict:
    """Median and quartiles of each figure over the runs, and the operation totals."""
    out = {}
    for name in TIMINGS + tuple(name for name in QUALITY if name in rows[0]):
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

    runs = {workload: [] for workload in WORKLOADS}
    env = {}
    for seed in args.seeds:
        for workload in WORKLOADS:
            row, env = bench_run(workload, seed)
            runs[workload].append(row)
            print(json.dumps({"workload": workload, **row}), flush=True)
    env = {key: value for key, value in env.items() if key != "seed"}
    report = {
        "commit": env.pop("git_commit"),
        "environment": env,
        "command": f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "seeds": args.seeds,
        "workloads": {workload: {"summary": summarize(rows), "runs": rows}
                      for workload, rows in runs.items()},
    }
    (ROOT / "BENCH_labelembed.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
