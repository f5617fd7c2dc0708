"""The experiment runner's seed parser and summary, loaded from scripts/ by path."""

import contextlib
import importlib.util
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "experiments.py"


@pytest.fixture(scope="module")
def experiments():
    spec = importlib.util.spec_from_file_location("experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds_takes_ranges_and_single_seeds(experiments):
    assert experiments.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_summarize_two_runs(experiments):
    rows = [
        {"seed": 1, "score_docs_per_s": 4.0, "score_raw_s": 0.5, "score_samples": 3,
         "peak_rss_mb": 200.0, "correct": True, "attempted": 10, "failed": 0},
        {"seed": 2, "score_docs_per_s": 6.0, "score_raw_s": 0.25, "score_samples": 4,
         "peak_rss_mb": 204.0, "correct": False, "attempted": 12, "failed": 1},
    ]
    assert experiments.summarize(rows, "score", "score_docs_per_s") == {
        "score_docs_per_s": {"median": 5.0, "q1": 4.5, "q3": 5.5},
        "score_raw_s": {"median": 0.375, "q1": 0.3125, "q3": 0.4375},
        "peak_rss_mb": {"median": 202.0, "q1": 201.0, "q3": 203.0},
        "runs": 2, "correct_runs": 1, "attempted": 22, "failed": 1,
    }


def test_summarize_reports_quality_where_the_runs_have_it(experiments):
    quality = dict.fromkeys(experiments.QUALITY, 0.5)
    rows = [{"seed": s, "train_docs_per_s": 2.0, "train_raw_s": 1.0, "peak_rss_mb": 40.0,
             "correct": True, "attempted": 1, "failed": 0, **quality} for s in (1, 2)]
    summary = experiments.summarize(rows, "train", "train_docs_per_s")
    for name in experiments.QUALITY:
        assert summary[name] == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_run_row_records_the_runs_peak_rss(experiments):
    # a hand-made aapd-train record: the row takes the run's peak RSS from its measures
    record = {"workload": "aapd-train", "environment": {"seed": 3},
              "measures": {"train_docs_per_s": 22.5, "peak_rss_mb": 241.6, "setup_s": 0.08},
              "info": {"raw_and_reference_seconds": {"train_docs_per_s": [[0.7, 0.01],
                                                                          [0.9, 0.01]]}},
              "result": {"correct": True, "attempted": 2, "failed": 0}}
    assert experiments.run_row(record, "train", "train_docs_per_s") == {
        "seed": 3, "train_docs_per_s": 22.5, "train_raw_s": 0.8, "train_samples": 2,
        "peak_rss_mb": 241.6, "correct": True, "attempted": 2, "failed": 0}


@pytest.mark.parametrize("text", ["5-3", "1,1", "1-3,2", "4,2-5", "1-"])
def test_parse_seeds_rejects_an_empty_range_or_a_repeated_seed(experiments, text, capsys):
    with pytest.raises(ValueError):
        experiments.parse_seeds(text)
    with pytest.raises(SystemExit) as exit_info:  # argparse reports it before any run starts
        experiments.main(["--seeds", text])
    assert exit_info.value.code == 2 and "--seeds" in capsys.readouterr().err


def test_layer_row_counts_a_document_per_forward_and_per_label_draw(experiments):
    # 2 scored and 3 trained documents; each span is divided by the documents of its phase,
    # or by the run where it runs once per run
    record = {"environment": {"seed": 4}, "result": {"correct": True, "attempted": 3, "failed": 0},
              "info": {"spans": [
                  {"name": "model.forward", "calls": 2, "total_s": 0.5, "self_s": 0.1},
                  {"name": "training.sample_labels", "calls": 3, "total_s": 0.06, "self_s": 0.06},
                  {"name": "model.bilstm_forward", "calls": 2, "total_s": 0.25, "self_s": 0.25},
                  {"name": "numeric.backward", "calls": 1, "total_s": 1.2, "self_s": 1.2},
                  {"name": "metrics.evaluate", "calls": 1, "total_s": 0.6, "self_s": 0.1},
                  {"name": "bench.score_fn", "calls": 2, "total_s": 0.55, "self_s": 0.05},
                  {"name": "training.adam_step", "calls": 1, "total_s": 0.3, "self_s": 0.3},
                  {"name": "labelgraph.sample_walks", "calls": 1, "total_s": 0.02, "self_s": 0.02},
                  {"name": "labelgraph.train_skipgram", "calls": 1, "total_s": 0.04,
                   "self_s": 0.04},
                  {"name": "bench.run", "calls": 1, "total_s": 3.0, "self_s": 0.2}]}}
    row = experiments.layer_row(record)
    assert row["documents"] == {"trained": 3, "scored": 2, "both": 5}
    assert {name: span["base"] for name, span in row["spans"].items()} == {
        "model.forward": "scored", "training.sample_labels": "trained",
        "model.bilstm_forward": "both", "numeric.backward": "trained",
        "metrics.evaluate": "scored", "bench.score_fn": "scored", "training.adam_step": "trained",
        "labelgraph.sample_walks": "run", "labelgraph.train_skipgram": "run", "bench.run": "run"}
    assert {name: span["ms"] for name, span in row["spans"].items()} == pytest.approx({
        "model.forward": 250.0, "training.sample_labels": 20.0, "model.bilstm_forward": 50.0,
        "numeric.backward": 400.0, "metrics.evaluate": 300.0, "bench.score_fn": 275.0,
        "training.adam_step": 100.0, "labelgraph.sample_walks": 20.0,
        "labelgraph.train_skipgram": 40.0, "bench.run": 3000.0}, rel=1e-12)
    assert experiments.summarize_layers([row, row])["numeric.backward"] == pytest.approx({
        "base": "trained", "median": 400.0, "q1": 400.0, "q3": 400.0}, rel=1e-12)


def test_span_wins_counts_the_traced_pairs_the_change_took_less_time_in(experiments):
    # three seeds: the change is faster on fuse in two and ties in one; a span that only one
    # side's run has reads 0 on the other, so the side without it wins that pair
    def row(**ms):
        return {"spans": {name.replace("_", "."): {"ms": value, "base": "both"}
                          for name, value in ms.items()}}

    base = [row(model_fuse=2.0, model_predict=1.0), row(model_fuse=2.0, model_predict=1.0),
            row(model_fuse=2.0)]
    change = [row(model_fuse=1.0, model_predict=1.5), row(model_fuse=2.0, model_predict=0.5),
              row(model_fuse=1.5, model_predict=0.5)]
    assert experiments.span_wins(base, change) == {
        "model.fuse": {"wins": 2, "pairs": 3}, "model.predict": {"wins": 1, "pairs": 3}}


def test_layer_row_of_a_run_that_only_scores_reads_0_for_training_spans(experiments):
    record = {"environment": {"seed": 1}, "result": {"correct": True, "attempted": 1, "failed": 0},
              "info": {"spans": [
                  {"name": "model.forward", "calls": 4, "total_s": 2.0, "self_s": 0.1},
                  {"name": "training.encode_document", "calls": 1, "total_s": 0.1, "self_s": 0.1}]}}
    row = experiments.layer_row(record)
    assert row["documents"] == {"trained": 0, "scored": 4, "both": 4}
    assert row["spans"]["training.encode_document"] == {"ms": 0.0, "base": "trained"}
    assert row["spans"]["model.forward"]["ms"] == 500.0


def test_bench_files_cover_every_timed_end_to_end_metric(experiments):
    # a time or rate claim counts only from a committed bench file, so each needs one
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    timed = {metric["name"] for metric in declared if metric["unit"] in ("s", "docs/s")}
    assert timed <= {metric for _, metric in experiments.BENCH_FILES.values()}


def test_a_run_measures_a_metric_itself_unless_it_took_it_from_the_quality_gate(experiments):
    record = _run_record("aapd-train", 1, 0)
    assert [metric for _, metric in experiments.BENCH_FILES.values()
            if experiments.measures_itself(record, metric)] == ["setup_s", "train_docs_per_s"]
    del record["info"]["from_gate"]  # aapd-quality's record lists none
    assert experiments.measures_itself(record, "label_embed_s")
    assert not experiments.measures_itself(record, "no_such_metric")


def _record(measures: dict, raw: dict, failed: int = 0) -> dict:
    """A hand-made bench record: its measures and, per timed metric, raw and reference seconds."""
    return {"measures": measures, "info": {"raw_and_reference_seconds": raw},
            "result": {"correct": not failed, "attempted": 4, "failed": failed}}


def test_compare_sums_up_record_pairs_against_the_bounds(experiments):
    declared = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                {"name": "train_docs_per_s", "better": "higher", "bound": 0.25},
                {"name": "p_at_5", "better": "higher", "bound": 0.25},
                {"name": "ndcg_at_5", "better": "higher", "bound": 0.25}]
    pairs = []
    for base_rss, change_rss, base_rate, change_rate, change_p in [
            (236.0, 219.0, 20.0, 21.0, 0.3), (235.0, 218.0, 22.0, 19.0, 0.3),
            (234.0, 240.0, 21.0, 24.0, 0.5)]:
        quality = dict.fromkeys(experiments.QUALITY, 0.5) | {"p_at_5": 0.3, "ndcg_at_5": 0.6}
        base = _record({"peak_rss_mb": base_rss, "train_docs_per_s": base_rate, **quality},
                       {"train_docs_per_s": [[0.8, 0.01], [1.0, 0.01], [0.9, 0.01]]})
        change = _record({"peak_rss_mb": change_rss, "train_docs_per_s": change_rate,
                          **quality, "p_at_5": change_p, "g1_ndcg_at_5": 0.5 + change_p - 0.3},
                         {"train_docs_per_s": [[0.5, 0.01], [0.7, 0.01]]}, failed=1)
        pairs.append((base, change))
    out = experiments.compare(pairs, declared)
    rss, rate = out["metrics"]["peak_rss_mb"], out["metrics"]["train_docs_per_s"]
    assert rss["base"] == {"median": 235.0, "q1": 234.5, "q3": 235.5}
    assert rss["change"] == {"median": 219.0, "q1": 218.5, "q3": 229.5}
    assert rss["wins"] == 2 and rss["pairs"] == 3
    # 219 and 218 read below every base run, 240 above every one
    assert rss["better_than_every_base"] == 2 and rss["worse_than_every_base"] == 1
    assert rss["move"] == pytest.approx(219.0 / 235.0 - 1.0) and rss["within_bound"] is True
    assert rss["base_runs"] == [236.0, 235.0, 234.0] and "raw_s" not in rss
    # a higher-is-better metric moves by the fall of its median: 21 -> 21 is no move
    assert rate["wins"] == 2 and rate["move"] == 0.0 and rate["bound"] == 0.25
    assert rate["raw_s"] == {"base": [0.9] * 3, "change": [0.6] * 3}
    # higher is better: 24 reads above every base run, 19 below every one, 21 within them
    assert rate["better_than_every_base"] == 1 and rate["worse_than_every_base"] == 1
    p_at_5 = out["metrics"]["p_at_5"]
    assert p_at_5["move"] == pytest.approx(-0.0)  # median 0.3 on both sides
    assert p_at_5["better_than_every_base"] == 1 and p_at_5["worse_than_every_base"] == 0  # ties
    # every figure of `QUALITY` is checked: G1 nDCG@5 moves with P@5, the other four stay
    assert out["quality_equal"] == {"p_at_1": True, "p_at_3": True, "p_at_5": False,
                                    "ndcg_at_3": True, "ndcg_at_5": True, "g1_ndcg_at_5": False}
    assert out["attempted"] == {"base": 12, "change": 12}
    assert out["failed"] == {"base": 0, "change": 3}


def test_compare_marks_a_move_beyond_the_bound(experiments):
    declared = [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    quality = dict.fromkeys(experiments.QUALITY, 0.5)
    pairs = [(_record({"setup_s": 0.1, **quality}, {}), _record({"setup_s": 0.2, **quality}, {}))]
    setup = experiments.compare(pairs, declared)["metrics"]["setup_s"]
    assert setup["move"] == pytest.approx(1.0) and setup["within_bound"] is False
    assert setup["wins"] == 0


QUALITY_NAMES = ("g1_ndcg_at_5", "ndcg_at_3", "ndcg_at_5", "p_at_1", "p_at_3", "p_at_5")
# the metrics a workload's record takes from aapd-quality's gate, as bench runs list them
FROM_GATE = {"aapd-train": ["final_loss", "label_embed_s", "score_docs_per_s", *QUALITY_NAMES],
             "eurlex-score": ["final_loss", "train_docs_per_s", *QUALITY_NAMES]}
# the workloads whose own phase measures each root file's metric
OWN_WORKLOADS = {"BENCH_labelembed.json": ["eurlex-score", "aapd-quality"],
                 "BENCH_score.json": ["eurlex-score", "aapd-quality"],
                 "BENCH_setup.json": ["aapd-train", "eurlex-score", "aapd-quality"],
                 "BENCH_train.json": ["aapd-train", "aapd-quality"]}


def _run_record(workload: str, seed: int, trace: int, correct=True, failed: int = 0) -> dict:
    """A hand-made bench record with every figure the root files read."""
    timed = ("label_embed_s", "score_docs_per_s", "setup_s", "train_docs_per_s")
    gate = {"from_gate": FROM_GATE[workload]} if workload in FROM_GATE else {}
    return {"workload": workload, "trace": trace,
            "environment": {"seed": seed, "git_commit": "0" * 40},
            "measures": {**dict.fromkeys(timed, 2.0), "peak_rss_mb": 40.0, "final_loss": 0.1,
                         **dict.fromkeys(QUALITY_NAMES, 0.5)},
            "info": {"raw_and_reference_seconds": {name: [[0.1, 0.01]] for name in timed},
                     "spans": [{"name": "bench.run", "calls": 1, "total_s": 1.0, "self_s": 1.0}],
                     **gate},
            "result": {"correct": correct, "attempted": 4, "failed": failed}}


def test_exit_code_names_each_run_that_is_not_correct_or_failed_an_operation(experiments, capsys):
    assert experiments.exit_code([_run_record("aapd-train", 1, 0),
                                  _run_record("aapd-train", 1, 1)]) == 0
    assert capsys.readouterr().err == ""
    runs = [_run_record("aapd-train", 1, 0), _run_record("aapd-quality", 3, 1, correct=False),
            _run_record("eurlex-score", 4, 0, failed=2)]
    assert experiments.exit_code(runs) == 1
    assert capsys.readouterr().err.splitlines() == [
        "aapd-quality seed 3 trace 1: correct False, 0 failed operations",
        "eurlex-score seed 4 trace 0: correct True, 2 failed operations"]


def test_root_files_are_written_and_the_runner_exits_1_on_an_incorrect_run(
        experiments, monkeypatch, tmp_path, capsys):
    def bench_run(workload, seed, trace=0, tree=None):
        return _run_record(workload, seed, trace, correct=workload != "eurlex-score" or trace == 0)

    monkeypatch.setattr(experiments, "ROOT", tmp_path)
    monkeypatch.setattr(experiments, "bench_run", bench_run)
    assert experiments.main(["--seeds", "1", "--trace"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "eurlex-score seed 1 trace 1: correct False, 0 failed operations"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*experiments.BENCH_FILES, "BENCH_layers.json"])
    monkeypatch.setattr(experiments, "bench_run",
                        lambda workload, seed, trace, tree: _run_record(workload, seed, trace))
    assert experiments.main(["--seeds", "1-2"]) == 0


def test_against_interleaves_both_trees_traced_and_untraced_in_one_loop(
        experiments, monkeypatch, tmp_path, capsys):
    root, rev_tree, calls = tmp_path / "root", tmp_path / "rev", []
    root.mkdir()

    @contextlib.contextmanager
    def export(rev):
        assert rev == "REV"
        yield "base", rev_tree

    def bench_run(workload, seed, trace, tree):
        # REV's runs are told apart by their commit, peak RSS and span time; one of them fails
        side = "base" if tree == rev_tree else "change"
        calls.append((workload, seed, trace, side))
        failed = (side, workload, seed, trace) == ("base", "aapd-train", 2, 1)
        record = _run_record(workload, seed, trace, failed=int(failed))
        record["environment"]["git_commit"] = side
        record["measures"]["peak_rss_mb"] = {"base": 50.0, "change": 40.0}[side]
        record["info"]["spans"][0]["total_s"] = {"base": 2.0, "change": 1.0}[side]
        return record

    monkeypatch.setattr(experiments, "ROOT", root)
    monkeypatch.setattr(experiments, "export", export)
    monkeypatch.setattr(experiments, "bench_run", bench_run)
    assert experiments.main(["--against", "REV", "--seeds", "1-2", "--trace"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "aapd-train seed 2 trace 1: correct True, 1 failed operations"]
    # REV runs first on each workload and trace's first pair, this tree on the second
    assert calls == [(workload, seed, trace, side)
                     for seed, order in ((1, ("base", "change")), (2, ("change", "base")))
                     for workload in experiments.WORKLOADS for trace in (0, 1) for side in order]
    assert sorted(p.name for p in root.iterdir()) == sorted(
        [*experiments.BENCH_FILES, "BENCH_layers.json", "BENCH_compare.json"])

    def read(name):
        return json.loads((root / name).read_text())

    for path in experiments.BENCH_FILES:
        report = read(path)
        assert report["commit"] == "change" and report["command"].endswith("--trace 0")
        assert {name: [(row["seed"], row["peak_rss_mb"]) for row in entry["runs"]]
                for name, entry in report["workloads"].items()} == dict.fromkeys(
                    OWN_WORKLOADS[path], [(1, 40.0), (2, 40.0)])
        assert list(report["workloads"]) == OWN_WORKLOADS[path]
    layers = read("BENCH_layers.json")
    assert layers["commit"] == "change"
    for entry in layers["workloads"].values():
        assert [row["spans"]["bench.run"]["ms"] for row in entry["runs"]] == [1000.0, 1000.0]
    compared = read("BENCH_compare.json")
    assert compared["commits"] == {"base": "base", "change": "change"}
    assert compared["seeds"] == [1, 2]
    for entry in compared["workloads"].values():
        rss = entry["metrics"]["peak_rss_mb"]
        assert rss["base_runs"] == [50.0, 50.0] and rss["change_runs"] == [40.0, 40.0]
        assert {side: summary["bench.run"]["median"] for side, summary in
                entry["layers"].items()} == {"base": 2000.0, "change": 1000.0}
        assert entry["layer_wins"] == {"bench.run": {"wins": 2, "pairs": 2}}


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                           "commit.gpgsign=false", *args], cwd=repo, check=True,
                          capture_output=True, text=True).stdout


def _worktrees(repo: Path) -> list[str]:
    return [line for line in _git(repo, "worktree", "list", "--porcelain").splitlines()
            if line.startswith("worktree ")]


def test_against_exports_the_committed_files_and_registers_no_worktree(
        experiments, monkeypatch, tmp_path):
    # a throwaway repository: one committed file edited since, one in a directory, one untracked
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "bench" / "run.py").write_text("# committed\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    (repo / "kept.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("untracked\n")
    monkeypatch.setattr(experiments, "ROOT", repo)
    handler = signal.getsignal(signal.SIGTERM)
    with experiments.export("HEAD") as (commit, tree):
        assert commit == _git(repo, "rev-parse", "HEAD").strip()
        assert sorted(str(path.relative_to(tree)) for path in tree.rglob("*")) == [
            "bench", "bench/run.py", "kept.txt"]
        assert (tree / "kept.txt").read_text() == "committed\n"
        assert _worktrees(repo) == [f"worktree {repo}"]
    assert not tree.exists() and not tree.parent.exists()
    assert _worktrees(repo) == [f"worktree {repo}"]
    assert signal.getsignal(signal.SIGTERM) is handler
    with pytest.raises(subprocess.CalledProcessError):  # resolved before anything is exported
        with experiments.export("no-such-rev"):
            pass

    # a run stopped by SIGTERM inside the export leaves neither its directory nor a worktree
    code = (f"import importlib.util, pathlib, time\n"
            f"spec = importlib.util.spec_from_file_location('experiments', {str(SCRIPT)!r})\n"
            f"module = importlib.util.module_from_spec(spec)\n"
            f"spec.loader.exec_module(module)\n"
            f"module.ROOT = pathlib.Path({str(repo)!r})\n"
            f"with module.export('HEAD') as (commit, tree):\n"
            f"    print(tree, flush=True)\n"
            f"    time.sleep(60)\n")
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as run:
        tree = Path(run.stdout.readline().strip())
        run.terminate()
    assert run.returncode != 0 and tree.name == "base"
    assert not tree.parent.exists()
    assert _worktrees(repo) == [f"worktree {repo}"]
