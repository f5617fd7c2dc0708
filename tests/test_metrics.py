import math

import numpy as np
import pytest

from laha.data import Document
from laha.errors import ValidationError
from laha.metrics import (
    EvalReport,
    LabelGroupSpec,
    evaluate,
    fusion_weight_histogram,
    label_frequencies,
    ndcg_at_k,
    precision_at_k,
    rank_labels,
)


# ---------------------------------------------------------------------------
# independent brute-force oracle (kept deliberately separate from the
# library path: explicit comparator sort, plain loops, natural logs)
# ---------------------------------------------------------------------------


def brute_ranking(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def brute_precision(scores, truth, tau):
    hits = 0
    for label in brute_ranking(scores)[:tau]:
        if label in truth:
            hits += 1
    return hits / tau


def brute_ndcg(scores, truth, tau):
    gain = 0.0
    for rank, label in enumerate(brute_ranking(scores)[:tau], start=1):
        if label in truth:
            gain += math.log(2.0) / math.log(rank + 1.0)
    ideal = 0.0
    for rank in range(1, min(tau, len(truth)) + 1):
        ideal += math.log(2.0) / math.log(rank + 1.0)
    return gain / ideal


def test_precision_hand_case():
    # truth {1,3}, ranking [1,2,3]: two of the top three are relevant
    scores = np.array([0.0, 0.9, 0.8, 0.7])
    assert precision_at_k(scores, {1, 3}, 3) == pytest.approx(2 / 3, abs=1e-15)


def test_precision_all_relevant():
    assert precision_at_k(np.array([0.9, 0.8, 0.1]), {0, 1}, 2) == 1.0


def test_precision_no_overlap():
    assert precision_at_k(np.array([0.9, 0.8, 0.1]), {2}, 2) == 0.0


def test_precision_tie_breaks_to_lower_index():
    scores = np.array([0.5, 0.5, 0.5])
    assert precision_at_k(scores, {0}, 1) == 1.0
    assert precision_at_k(scores, {2}, 1) == 0.0


def test_ndcg_hand_case():
    # truth labels land at ranks 1 and 3 with tau=3 and |truth|=2:
    # (1/log2(2) + 1/log2(4)) / (1/log2(2) + 1/log2(3)) ~= 0.9197
    scores = np.array([0.9, 0.5, 0.4, 0.1])
    truth = {0, 2}
    assert list(rank_labels(scores)[:3]) == [0, 1, 2]
    value = ndcg_at_k(scores, truth, 3)
    expected = (1 / math.log2(2) + 1 / math.log2(4)) / (1 / math.log2(2) + 1 / math.log2(3))
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.9197, abs=5e-5)


def test_ndcg_perfect_ranking_is_one():
    assert ndcg_at_k(np.array([0.9, 0.8, 0.1, 0.0]), {0, 1}, 3) == pytest.approx(1.0)


def test_p1_equals_ndcg1_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(2, 20))
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        assert precision_at_k(scores, truth, 1) == ndcg_at_k(scores, truth, 1)


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = int(rng.integers(2, 25))
        scores = rng.normal(size=k)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # provoke ties
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        tau = int(rng.integers(1, k + 1))
        assert abs(precision_at_k(scores, truth, tau)
                   - brute_precision(scores.tolist(), truth, tau)) <= 1e-12
        assert abs(ndcg_at_k(scores, truth, tau)
                   - brute_ndcg(scores.tolist(), truth, tau)) <= 1e-12


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = 10
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=3, replace=False).tolist())
        transformed = np.exp(2.0 * scores) + 1.0
        for tau in (1, 3, 5):
            assert precision_at_k(scores, truth, tau) == precision_at_k(
                transformed, truth, tau
            )
            assert ndcg_at_k(scores, truth, tau) == pytest.approx(
                ndcg_at_k(transformed, truth, tau), abs=1e-12
            )


def test_metrics_bounded():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 12))
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        tau = int(rng.integers(1, k + 1))
        assert 0.0 <= precision_at_k(scores, truth, tau) <= 1.0
        assert 0.0 <= ndcg_at_k(scores, truth, tau) <= 1.0


def test_metric_validation_errors():
    with pytest.raises(ValidationError):
        precision_at_k(np.array([0.1, 0.2]), set(), 1)
    with pytest.raises(ValidationError):
        precision_at_k(np.array([0.1, 0.2]), {0}, 3)
    with pytest.raises(ValidationError):
        ndcg_at_k(np.array([0.1, 0.2]), {5}, 1)
    for tau in (0, 1.5, True, "1"):  # int() would truncate 1.5 to P@1 and read True as 1
        with pytest.raises(ValidationError, match="tau"):
            precision_at_k(np.array([0.1, 0.2]), {0}, tau)
        with pytest.raises(ValidationError, match="tau"):
            ndcg_at_k(np.array([0.1, 0.2]), {0}, tau)


def test_precision_at_k_rejects_non_finite_scores():
    # ranked silently, the NaN would sort last and label 1 would score P@1 = 1
    with pytest.raises(ValidationError, match="finite"):
        precision_at_k(np.array([np.nan, 0.5, 0.1]), {1}, 1)


def test_ndcg_at_k_rejects_non_finite_scores():
    with pytest.raises(ValidationError, match="finite"):
        ndcg_at_k(np.array([np.inf, np.nan, 0.1]), {1}, 3)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------


def test_group_spec_boundaries():
    spec = LabelGroupSpec((5, 50))
    assert spec.group_of(1) == 0
    assert spec.group_of(5) == 0
    assert spec.group_of(6) == 1
    assert spec.group_of(50) == 1
    assert spec.group_of(51) == 2
    assert spec.names == ["G1(F<=5)", "G2(5<F<=50)", "G3(F>50)"]


def test_group_spec_rejects_unsorted():
    with pytest.raises(ValidationError):
        LabelGroupSpec((50, 5))


def test_label_frequencies_counts():
    docs = [
        Document("a", ["x"], {0, 1}),
        Document("b", ["x"], {1}),
        Document("c", ["x"], {1, 2}),
    ]
    np.testing.assert_array_equal(label_frequencies(docs, 4), [1, 3, 1, 0])


def test_label_frequencies_rejects_negative_label():
    with pytest.raises(ValidationError):
        label_frequencies([Document("a", ["x"], {-1, 2})], 4)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _score_fn_from_table(table):
    return lambda doc: table[doc.doc_id]


def test_evaluate_perfect_single_doc():
    doc = Document("d", ["x"], {2})
    scores = np.array([0.1, 0.2, 0.9, 0.3])
    report = evaluate(
        _score_fn_from_table({"d": scores}),
        [doc],
        taus=(1, 3),
        train_corpus=[doc],
        k=4,
    )
    assert report.overall["P@1"] == 1.0
    assert report.overall["nDCG@1"] == 1.0
    assert report.documents == 1


def test_evaluate_report_structure():
    docs = [Document(f"d{i}", ["x"], {i % 3}) for i in range(6)]
    table = {
        doc.doc_id: np.random.default_rng(i).normal(size=5)
        for i, doc in enumerate(docs)
    }
    report = evaluate(
        _score_fn_from_table(table), docs, taus=(1, 3), group_spec=LabelGroupSpec((1,)),
        train_corpus=docs, k=5,
    )
    assert set(report.overall) == {"P@1", "P@3", "nDCG@1", "nDCG@3"}
    assert len(report.groups) == 2
    for group in report.groups:
        if group.doc_count:
            assert set(group.metrics) == set(report.overall)
    payload = report.to_dict()
    assert payload["documents"] == 6


def test_evaluate_zero_presence_group_is_null():
    docs = [Document("d", ["x"], {0})]
    report = evaluate(
        _score_fn_from_table({"d": np.array([0.9, 0.1])}),
        docs,
        taus=(1,),
        group_spec=LabelGroupSpec((100,)),
        train_corpus=docs,
        k=2,
    )
    # all labels fall in G1, so G2 has no labels and no docs
    assert report.groups[1].metrics is None
    assert report.groups[1].doc_count == 0
    assert report.groups[1].label_count == 0


def test_evaluate_group_assignment_matches_hand_counts():
    train = [
        Document("t0", ["x"], {0, 1}),
        Document("t1", ["x"], {0}),
        Document("t2", ["x"], {0, 2}),
    ]
    # frequencies: label0=3, label1=1, label2=1, label3=0
    spec = LabelGroupSpec((1, 2))
    freqs = label_frequencies(train, 4)
    groups = [spec.group_of(int(f)) for f in freqs]
    assert groups == [2, 0, 0, 0]


def test_evaluate_label_space_mismatch():
    docs = [Document("d", ["x"], {7})]
    with pytest.raises(ValidationError):
        evaluate(_score_fn_from_table({"d": np.zeros(3)}), docs, taus=(1,), k=3)


@pytest.mark.parametrize("taus", [(0,), (1.5, 2.9), (True,), (1, "3")])
def test_evaluate_rejects_non_integer_or_non_positive_taus(taus):
    docs = [Document("d", ["x"], {0})]
    with pytest.raises(ValidationError, match="tau"):
        evaluate(_score_fn_from_table({"d": np.arange(3.0)}), docs, taus=taus, k=3)


def test_evaluate_macro_average_against_brute_force():
    rng = np.random.default_rng(5)
    k = 12
    docs = []
    table = {}
    for i in range(30):
        truth = set(rng.choice(k, size=int(rng.integers(1, 5)), replace=False).tolist())
        docs.append(Document(f"d{i}", ["x"], truth))
        table[f"d{i}"] = rng.normal(size=k)
    report = evaluate(_score_fn_from_table(table), docs, taus=(1, 3, 5), k=k)
    for tau in (1, 3, 5):
        expected_p = np.mean(
            [brute_precision(table[d.doc_id].tolist(), d.labels, tau) for d in docs]
        )
        expected_n = np.mean(
            [brute_ndcg(table[d.doc_id].tolist(), d.labels, tau) for d in docs]
        )
        assert report.overall[f"P@{tau}"] == pytest.approx(expected_p, abs=1e-12)
        assert report.overall[f"nDCG@{tau}"] == pytest.approx(expected_n, abs=1e-12)


def _brute_group_means(table, docs, train, k, boundaries, taus):
    """Per-group macro means from plain loops: each group's labels, ranked alone."""
    freqs = [sum(label in d.labels for d in train) for label in range(k)]
    group = [sum(f > b for b in boundaries) for f in freqs]
    means = []
    for gid in range(len(boundaries) + 1):
        members = [label for label in range(k) if group[label] == gid]
        rows = []
        for d in docs:
            truth = {members.index(label) for label in d.labels if label in members}
            if not truth:
                continue
            scores = [table[d.doc_id][label] for label in members]
            rows.append({f"P@{t}": brute_precision(scores, truth, min(t, len(members)))
                         for t in taus}
                        | {f"nDCG@{t}": brute_ndcg(scores, truth, min(t, len(members)))
                           for t in taus})
        means.append((len(members), len(rows),
                      {m: np.mean([r[m] for r in rows]) for m in rows[0]} if rows else None))
    return means


@pytest.mark.parametrize("boundaries", [(1, 3), (2,), ()])
def test_evaluate_groups_match_brute_force_oracle(boundaries):
    rng = np.random.default_rng(8)
    k, taus = 14, (1, 3, 5, 20)

    def draw(prefix, n):
        return [Document(f"{prefix}{i}", ["x"], set(
            rng.choice(k, size=int(rng.integers(1, 4)), replace=False).tolist()))
            for i in range(n)]

    train, docs = draw("r", 12), draw("d", 40)
    # integer-valued scores, so most rankings contain ties
    table = {d.doc_id: rng.integers(0, 3, size=k).astype(float) for d in docs}
    report = evaluate(_score_fn_from_table(table), docs, taus=taus,
                      group_spec=LabelGroupSpec(boundaries), train_corpus=train, k=k)
    expected = _brute_group_means(table, docs, train, k, boundaries, taus)
    assert len(report.groups) == len(expected)
    for group, (label_count, doc_count, means) in zip(report.groups, expected):
        assert (group.label_count, group.doc_count) == (label_count, doc_count)
        assert (group.metrics is None) == (means is None)
        for name, value in (means or {}).items():
            assert abs(group.metrics[name] - value) <= 1e-12
    # tau 20 exceeds every group's size; some documents miss some group
    assert max(g.label_count for g in report.groups) < max(taus)
    if boundaries:
        assert min(g.doc_count for g in report.groups if g.label_count) < len(docs)
    else:
        assert report.groups[0].metrics == pytest.approx(report.overall, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_scores(bad):
    docs = [Document("a", ["x"], {0}), Document("b", ["x"], {1})]
    table = {"a": np.array([0.9, 0.5, 0.1]), "b": np.array([bad, 0.5, 0.1])}
    with pytest.raises(ValidationError, match="'b'"):
        evaluate(_score_fn_from_table(table), docs, taus=(1,), k=3)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


class _FakeTraceRow:
    def __init__(self, values):
        self.value = np.asarray(values).reshape(1, -1)


class _FakeTrace:
    def __init__(self, subset, alphas):
        self.subset = subset
        self.alpha = _FakeTraceRow(alphas)
        self.beta = _FakeTraceRow(1.0 - np.asarray(alphas))


def test_histogram_all_half():
    docs = [Document(f"d{i}", ["x"], {0, 1}) for i in range(3)]
    trace_fn = lambda doc: _FakeTrace([0, 1], [0.5, 0.5])
    counts = fusion_weight_histogram(trace_fn, docs)
    assert counts["alpha"][5] == 6
    assert sum(counts["alpha"]) == 6


def test_histogram_counts_match_pairs():
    docs = [
        Document("a", ["x"], {0}),
        Document("b", ["x"], {0, 2}),
        Document("c", ["x"], {1, 2, 0}),
    ]
    trace_fn = lambda doc: _FakeTrace([0, 1, 2], [0.05, 0.55, 0.95])
    counts = fusion_weight_histogram(trace_fn, docs)
    n_pairs = sum(len(d.labels) for d in docs)
    assert sum(counts["alpha"]) == n_pairs
    assert sum(counts["beta"]) == n_pairs


def test_histogram_alpha_beta_mirror():
    rng = np.random.default_rng(6)
    alphas = rng.uniform(0.011, 0.989, size=8)  # keep off bin edges
    docs = [Document(f"d{i}", ["x"], {j for j in range(8)}) for i in range(4)]
    trace_fn = lambda doc: _FakeTrace(list(range(8)), alphas)
    counts = fusion_weight_histogram(trace_fn, docs)
    assert counts["beta"] == counts["alpha"][::-1]


def test_histogram_right_closed_last_bin():
    docs = [Document("d", ["x"], {0})]
    trace_fn = lambda doc: _FakeTrace([0], [1.0])
    counts = fusion_weight_histogram(trace_fn, docs)
    assert counts["alpha"][9] == 1


def test_histogram_empty_documents():
    with pytest.raises(ValidationError):
        fusion_weight_histogram(lambda d: None, [])
