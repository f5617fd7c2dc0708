import math

import numpy as np
import pytest

from laha.data import Document
from laha.errors import ValidationError
from laha.labelgraph import build_cooccurrence_graph
from laha.metrics import (
    GROUP_NAMES,
    evaluate,
    fusion_weight_histogram,
    label_frequencies,
    rank_labels,
)

from extra_ops import evaluate_oracle


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


def _one_doc(scores, truth, tau):
    """(P@tau, nDCG@tau) of one document, from `evaluate` over a one-document corpus."""
    scores = np.asarray(scores, dtype=np.float64)
    report = evaluate(lambda doc: scores, [Document("d", ["x"], set(truth))], scores.size)
    return report.overall[f"P@{tau}"], report.overall[f"nDCG@{tau}"]


def test_precision_hand_case():
    # truth {1,3}, ranking [1,2,3]: two of the top three are relevant
    scores = np.array([0.0, 0.9, 0.8, 0.7])
    assert _one_doc(scores, {1, 3}, 3)[0] == pytest.approx(2 / 3, abs=1e-15)


def test_precision_all_relevant():
    assert _one_doc(np.array([0.9, 0.8, 0.7, 0.1]), {0, 1, 2}, 3)[0] == 1.0


def test_precision_no_overlap():
    assert _one_doc(np.array([0.9, 0.8, 0.7, 0.1]), {3}, 3)[0] == 0.0


def test_precision_tie_breaks_to_lower_index():
    scores = np.array([0.5, 0.5, 0.5])
    assert _one_doc(scores, {0}, 1)[0] == 1.0
    assert _one_doc(scores, {2}, 1)[0] == 0.0


def test_ndcg_hand_case():
    # truth labels land at ranks 1 and 3 with tau=3 and |truth|=2:
    # (1/log2(2) + 1/log2(4)) / (1/log2(2) + 1/log2(3)) ~= 0.9197
    scores = np.array([0.9, 0.5, 0.4, 0.1])
    truth = {0, 2}
    assert list(rank_labels(scores)[:3]) == [0, 1, 2]
    value = _one_doc(scores, truth, 3)[1]
    expected = (1 / math.log2(2) + 1 / math.log2(4)) / (1 / math.log2(2) + 1 / math.log2(3))
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.9197, abs=5e-5)


def test_ndcg_perfect_ranking_is_one():
    assert _one_doc(np.array([0.9, 0.8, 0.1, 0.0]), {0, 1}, 3)[1] == pytest.approx(1.0)


def test_p1_equals_ndcg1_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(2, 20))
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        p1, ndcg1 = _one_doc(scores, truth, 1)
        assert p1 == ndcg1


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = int(rng.integers(2, 25))
        scores = rng.normal(size=k)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # provoke ties
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        for tau in (1, 3, 5):  # capped at k, as for a group smaller than the cutoff
            precision, ndcg = _one_doc(scores, truth, tau)
            assert abs(precision - brute_precision(scores.tolist(), truth, min(tau, k))) <= 1e-12
            assert abs(ndcg - brute_ndcg(scores.tolist(), truth, min(tau, k))) <= 1e-12


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = 10
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=3, replace=False).tolist())
        transformed = np.exp(2.0 * scores) + 1.0
        for tau in (1, 3, 5):
            before, after = _one_doc(scores, truth, tau), _one_doc(transformed, truth, tau)
            assert before[0] == after[0]
            assert before[1] == pytest.approx(after[1], abs=1e-12)


def test_metrics_bounded():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 12))
        scores = rng.normal(size=k)
        truth = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
        for tau in (1, 3, 5):
            precision, ndcg = _one_doc(scores, truth, tau)
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= ndcg <= 1.0


def test_metric_validation_errors():
    with pytest.raises(ValidationError, match="no labels"):
        _one_doc(np.array([0.1, 0.2]), set(), 1)
    with pytest.raises(ValidationError, match="label"):
        _one_doc(np.array([0.1, 0.2]), {5}, 1)


def test_truth_labels_must_be_integers_in_range():
    # a float or bool label would otherwise never match a rank and score 0.0
    scores = np.array([0.1, 0.2, 0.3])
    for bad in (1.5, True, 2.0, "2", -1, 3):
        with pytest.raises(ValidationError, match="label"):
            _one_doc(scores, {bad}, 1)
    assert _one_doc(scores, {np.int64(2)}, 1) == (1.0, 1.0)


def test_precision_at_k_rejects_non_finite_scores():
    # ranked silently, the NaN would sort last and label 1 would score P@1 = 1
    with pytest.raises(ValidationError, match="non-finite"):
        _one_doc(np.array([np.nan, 0.5, 0.1]), {1}, 1)


def test_ndcg_at_k_rejects_non_finite_scores():
    with pytest.raises(ValidationError, match="non-finite"):
        _one_doc(np.array([np.inf, np.nan, 0.1]), {1}, 3)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------


def _train_with_frequencies(freqs):
    """max(freqs) training documents; document i carries label j iff i < freqs[j]."""
    return [Document(f"t{i}", ["x"], {j for j, f in enumerate(freqs) if i < f})
            for i in range(max(freqs))]


def test_group_spec_boundaries():
    # frequencies on both sides of 5 and of 50: G1 F<=5, G2 5<F<=50, G3 F>50
    train = _train_with_frequencies([1, 5, 6, 50, 51])
    docs = [Document(f"d{j}", ["x"], {j}) for j in range(5)]
    report = evaluate(lambda doc: np.zeros(5), docs, 5, train_corpus=train)
    assert [g.name for g in report.groups] == list(GROUP_NAMES)
    assert GROUP_NAMES == ("G1(F<=5)", "G2(5<F<=50)", "G3(F>50)")
    assert [(g.label_count, g.doc_count) for g in report.groups] == [(2, 2), (2, 2), (1, 1)]


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
    report = evaluate(_score_fn_from_table(table), docs, train_corpus=docs, k=5)
    assert set(report.overall) == {"P@1", "P@3", "P@5", "nDCG@1", "nDCG@3", "nDCG@5"}
    assert len(report.groups) == 3
    for group in report.groups:
        if group.doc_count:
            assert set(group.metrics) == set(report.overall)
    assert report.documents == 6


def test_evaluate_zero_presence_group_is_null():
    docs = [Document("d", ["x"], {0})]
    report = evaluate(
        _score_fn_from_table({"d": np.array([0.9, 0.1])}),
        docs,
        train_corpus=docs,
        k=2,
    )
    # all labels fall in G1, so G2 and G3 have no labels and no docs
    for group in report.groups[1:]:
        assert group.metrics is None
        assert group.doc_count == 0
        assert group.label_count == 0


def test_evaluate_group_assignment_matches_hand_counts():
    train = _train_with_frequencies([60, 7, 2, 0])  # groups G3, G2, G1, G1
    docs = [Document("a", ["x"], {0, 2}), Document("b", ["x"], {1}), Document("c", ["x"], {3})]
    report = evaluate(lambda doc: np.arange(4.0), docs, 4, train_corpus=train)
    np.testing.assert_array_equal(label_frequencies(train, 4), [60, 7, 2, 0])
    assert [(g.label_count, g.doc_count) for g in report.groups] == [(2, 2), (1, 1), (1, 1)]
    # in-group rankings: G1 ranks label 3 over 2, so "a" misses at 1 and "c" hits
    assert report.groups[0].metrics["P@1"] == 0.5


def test_evaluate_label_space_mismatch():
    docs = [Document("d", ["x"], {7})]
    with pytest.raises(ValidationError):
        evaluate(_score_fn_from_table({"d": np.zeros(3)}), docs, k=3)


def test_evaluate_rejects_an_empty_test_corpus():
    with pytest.raises(ValidationError, match="test corpus must be nonempty"):
        evaluate(lambda doc: np.zeros(3), [], k=3)


@pytest.mark.parametrize("length", [2, 4])
def test_evaluate_rejects_a_score_vector_of_another_length(length):
    docs = [Document("d", ["x"], {1})]
    with pytest.raises(ValidationError, match=f"score vector length {length} != label count 3"):
        evaluate(lambda doc: np.zeros(length), docs, k=3)


@pytest.mark.parametrize("scores", [["a"] * 3, [[0.1, 0.2], [0.3]]], ids=["strings", "ragged"])
def test_evaluate_and_rank_labels_reject_scores_that_are_not_numbers(scores):
    docs = [Document("d", ["x"], {1})]
    with pytest.raises(ValidationError, match="expected an array of numbers"):
        evaluate(lambda doc: scores, docs, k=3)
    with pytest.raises(ValidationError, match="expected an array of numbers"):
        rank_labels(scores)


def test_evaluate_macro_average_against_brute_force():
    rng = np.random.default_rng(5)
    k = 12
    docs = []
    table = {}
    for i in range(30):
        truth = set(rng.choice(k, size=int(rng.integers(1, 5)), replace=False).tolist())
        docs.append(Document(f"d{i}", ["x"], truth))
        table[f"d{i}"] = rng.normal(size=k)
    report = evaluate(_score_fn_from_table(table), docs, k=k)
    for tau in (1, 3, 5):
        expected_p = np.mean(
            [brute_precision(table[d.doc_id].tolist(), d.labels, tau) for d in docs]
        )
        expected_n = np.mean(
            [brute_ndcg(table[d.doc_id].tolist(), d.labels, tau) for d in docs]
        )
        assert report.overall[f"P@{tau}"] == pytest.approx(expected_p, abs=1e-12)
        assert report.overall[f"nDCG@{tau}"] == pytest.approx(expected_n, abs=1e-12)


def _brute_group_means(table, docs, train, k):
    """Per-group macro means from plain loops: each group's labels, ranked alone."""
    freqs = [sum(label in d.labels for d in train) for label in range(k)]
    group = [0 if f <= 5 else 1 if f <= 50 else 2 for f in freqs]
    means = []
    for gid in range(3):
        members = [label for label in range(k) if group[label] == gid]
        rows = []
        for d in docs:
            truth = {members.index(label) for label in d.labels if label in members}
            if not truth:
                continue
            scores = [table[d.doc_id][label] for label in members]
            rows.append({f"P@{t}": brute_precision(scores, truth, min(t, len(members)))
                         for t in (1, 3, 5)}
                        | {f"nDCG@{t}": brute_ndcg(scores, truth, min(t, len(members)))
                           for t in (1, 3, 5)})
        means.append((len(members), len(rows),
                      {m: np.mean([r[m] for r in rows]) for m in rows[0]} if rows else None))
    return means


# frequencies of the labels added at the fixed bounds (5, 50): on and one past both
# bounds, one past each bound only, and none
_EDGE_LABELS = {(51, 50, 6, 5, 5): [9, 3, 2], (6, 51): [7, 2, 2], (): [7, 1, 1]}


@pytest.mark.parametrize("boundaries", list(_EDGE_LABELS))
def test_evaluate_groups_match_brute_force_oracle(boundaries):
    rng = np.random.default_rng(8)
    # 60 training documents: labels 0-8 have frequencies away from the bounds
    freqs = [60, 20, 3, 1, 0, 2, 4, 1, 0, *boundaries]
    k, train = len(freqs), _train_with_frequencies(freqs)
    g2 = {j for j, f in enumerate(freqs) if 5 < f <= 50}
    docs = [Document(f"d{i}", ["x"], set(
        rng.choice(k, size=int(rng.integers(1, 4)), replace=False).tolist())) for i in range(40)]
    # integer-valued scores, so most rankings contain ties
    table = {d.doc_id: rng.integers(0, 3, size=k).astype(float) for d in docs}
    # the second corpus leaves G2 with labels but no documents
    for test in (docs, [d for d in docs if not d.labels & g2]):
        report = evaluate(_score_fn_from_table(table), test, train_corpus=train, k=k)
        expected = _brute_group_means(table, test, train, k)
        for group, (label_count, doc_count, means) in zip(report.groups, expected, strict=True):
            assert (group.label_count, group.doc_count) == (label_count, doc_count)
            assert (group.metrics is None) == (means is None)
            for name, value in (means or {}).items():
                assert abs(group.metrics[name] - value) <= 1e-12
    # G2 and G3 hold fewer than 5 labels, so their P@5 and nDCG@5 are capped
    assert [g.label_count for g in report.groups] == _EDGE_LABELS[boundaries]
    assert report.groups[1].doc_count == 0 and min(g.doc_count for g in report.groups) == 0


def _random_chunk(rng, docs, k, train_docs, ties):
    """A seeded chunk of `docs` documents over k labels, and a training corpus of `train_docs`
    documents (None for 0) whose label frequencies spread over the groups."""
    def labels(most, weights=None):
        size = int(rng.integers(1, min(k, most) + 1))
        return set(rng.choice(k, size=size, replace=False, p=weights).tolist())

    test = [Document(f"d{i}", ["x"], labels(6)) for i in range(docs)]
    table = {d.doc_id: rng.integers(0, 3, size=k).astype(float) if ties else rng.normal(size=k)
             for d in test}
    weights = rng.pareto(1.0, k) + 1e-3
    train = [Document(f"t{i}", ["x"], labels(8, weights / weights.sum()))
             for i in range(train_docs)] or None
    return _score_fn_from_table(table), test, k, train


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_equals_the_per_document_oracle_on_random_chunks(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        chunk = _random_chunk(rng, int(rng.integers(1, 25)), int(rng.integers(1, 40)),
                              int(rng.choice([0, 3, 60, 200])), ties=bool(rng.random() < 0.5))
        assert evaluate(*chunk) == evaluate_oracle(*chunk)


def test_evaluate_equals_the_per_document_oracle_on_edge_chunks():
    rng = np.random.default_rng(9)
    # labels 0-5 in G1 and 6-7 in G2; G3 has no labels, and no truth below meets G2
    train = _train_with_frequencies([1, 2, 3, 4, 5, 0, 6, 50])
    docs = [Document(f"d{i}", ["x"], {i % 6, (i + 2) % 6}) for i in range(12)]
    tied = {d.doc_id: rng.integers(0, 2, size=8).astype(float) for d in docs}
    for train_corpus, counts in ((train, [(6, 12), (2, 0), (0, 0)]), (None, [(0, 0)] * 3)):
        chunk = _score_fn_from_table(tied), docs, 8, train_corpus
        report = evaluate(*chunk)
        assert report == evaluate_oracle(*chunk)
        assert [(g.label_count, g.doc_count) for g in report.groups] == counts
    # one document over EUR-Lex's label count, with and without groups
    chunk = _random_chunk(rng, 1, 3956, 0, ties=False)
    assert evaluate(*chunk) == evaluate_oracle(*chunk)
    chunk = _random_chunk(rng, 1, 3956, 400, ties=True)
    assert evaluate(*chunk) == evaluate_oracle(*chunk)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_scores(bad):
    docs = [Document("a", ["x"], {0}), Document("b", ["x"], {1})]
    table = {"a": np.array([0.9, 0.5, 0.1]), "b": np.array([bad, 0.5, 0.1])}
    with pytest.raises(ValidationError, match="'b'"):
        evaluate(_score_fn_from_table(table), docs, k=3)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


class _FakeTraceRow:
    def __init__(self, values):
        self.value = np.asarray(values).reshape(1, -1)


class _FakeTrace:
    def __init__(self, subset, alphas):
        self.subset = subset
        self.alpha = _FakeTraceRow(alphas)  # a trace holds alpha alone; beta is 1 - alpha


def test_histogram_all_half():
    docs = [Document(f"d{i}", ["x"], {0, 1}) for i in range(3)]
    trace_fn = lambda doc: _FakeTrace([0, 1], [0.5, 0.5])
    counts = fusion_weight_histogram(trace_fn, docs)
    assert counts[5] == 6
    assert sum(counts) == 6


def test_histogram_counts_match_pairs():
    docs = [
        Document("a", ["x"], {0}),
        Document("b", ["x"], {0, 2}),
        Document("c", ["x"], {1, 2, 0}),
    ]
    trace_fn = lambda doc: _FakeTrace([0, 1, 2], [0.05, 0.55, 0.95])
    counts = fusion_weight_histogram(trace_fn, docs)
    n_pairs = sum(len(d.labels) for d in docs)
    assert sum(counts) == n_pairs
    assert counts == [3, 0, 0, 0, 0, 1, 0, 0, 0, 2]  # label 0 three times, label 2 twice


def test_histogram_right_closed_last_bin():
    docs = [Document("d", ["x"], {0})]
    trace_fn = lambda doc: _FakeTrace([0], [1.0])
    counts = fusion_weight_histogram(trace_fn, docs)
    assert counts[9] == 1 and sum(counts) == 1


def test_histogram_rejects_a_trace_that_misses_a_positive_label():
    docs = [Document("a", ["x"], {0}), Document("b", ["x"], {0, 2})]
    with pytest.raises(ValidationError, match="'b' is missing label 2"):
        fusion_weight_histogram(lambda doc: _FakeTrace([0, 1], [0.5, 0.5]), docs)


def test_histogram_empty_documents():
    with pytest.raises(ValidationError):
        fusion_weight_histogram(lambda d: None, [])


_DOCS = [Document("a", ["x"], {0, 2}), Document("b", ["x"], {1})]
_SCORES = _score_fn_from_table({"a": np.arange(3.0), "b": np.arange(3.0)})


@pytest.mark.parametrize("call", [
    lambda: evaluate(_SCORES, _DOCS, train_corpus=_DOCS, k=2.5),
    lambda: evaluate(_SCORES, _DOCS, k=3.0),
    lambda: label_frequencies(_DOCS, 3.0),
    lambda: build_cooccurrence_graph(_DOCS, 3.0),
    lambda: build_cooccurrence_graph([Document("g", ["x"], {0, 3.0})], 4),  # a float label
    lambda: evaluate(_SCORES, [Document("a", ["x"], {1.0})], train_corpus=_DOCS, k=3),
    lambda: evaluate(_SCORES, _DOCS, train_corpus=[Document("t", ["x"], {0.0})], k=3),
    lambda: fusion_weight_histogram(lambda doc: _FakeTrace([0, 1, 2], [0.5] * 3), _DOCS, bins=2.5),
], ids=["k=2.5", "k=3.0", "label_frequencies k=3.0", "build_cooccurrence_graph k=3.0",
        "LabelGraph k=3.0", "float test label", "float train label", "bins=2.5"])
def test_malformed_integer_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError, match="integer"):
        call()
