"""Ranking metrics at fixed cutoffs, frequency-group breakdowns, gate-weight histograms.

`evaluate` reports P@t and nDCG@t at `TAUS` = (1, 3, 5), overall and per
label group by training-corpus frequency F at `GROUP_BOUNDS`: G1 F<=5, G2
5<F<=50, G3 F>50.  P@t is the fraction of the top-t scored labels that
are relevant; nDCG@t discounts hits by log2(rank + 1) and normalizes by
the ideal ordering truncated at min(t, #relevant).  Ties in scores break
toward the lower label index.  A group's metrics restrict both the truth
and the ranking to the group's labels, t capped at the group's size:
`evaluate` ranks each score vector once, and the stable tie order makes
that ranking, restricted, equal to ranking the group's own scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Corpus, Document, doc_labels
from .errors import ValidationError, check_int
from .numeric import as_floats

TAUS = (1, 3, 5)
GROUP_BOUNDS = (5, 50)
GROUP_NAMES = ("G1(F<=5)", "G2(5<F<=50)", "G3(F>50)")
_KEYS = [f"P@{t}" for t in TAUS] + [f"nDCG@{t}" for t in TAUS]


def rank_labels(scores: np.ndarray) -> np.ndarray:
    """Label indices by descending score; ties go to the lower index."""
    return np.argsort(-as_floats(scores), kind="stable")


def _ranked_metrics(ranking: np.ndarray, truth: set[int]) -> list[float]:
    """P@t for every t in TAUS, then nDCG@t for every t, over one ranking.

    Each t is capped at the ranking's length.  P@t is the hit count over t;
    nDCG@t sums 1/log2(rank + 2) over the hits in rank order and divides by
    the same sum over the first min(t, |truth|) ranks.
    """
    caps = [min(t, ranking.size) for t in TAUS]
    gains = [1.0 / math.log2(rank + 2) for rank in range(max(caps))]
    hits = [label in truth for label in ranking[: max(caps)].tolist()]
    precision = [sum(hits[:t]) / t for t in caps]
    ndcg = [sum(g for g, hit in zip(gains[:t], hits) if hit) / sum(gains[: min(t, len(truth))])
            for t in caps]
    return precision + ndcg


def label_frequencies(corpus: Corpus, k: int) -> np.ndarray:
    """Occurrences of each label over the corpus documents."""
    check_int("k", k, 1)
    labels = [label for doc in corpus for label in doc_labels(doc, k)]
    return np.bincount(np.array(labels, dtype=np.int64), minlength=k)


@dataclass
class GroupReport:
    name: str
    label_count: int
    doc_count: int
    metrics: dict[str, float] | None


@dataclass
class EvalReport:
    overall: dict[str, float]
    groups: list[GroupReport]
    documents: int


def evaluate(
    score_fn: Callable[[Document], np.ndarray],
    test_corpus: Corpus,
    k: int,
    train_corpus: Corpus | None = None,
) -> EvalReport:
    """Macro-averaged P@t / nDCG@t at `TAUS`, overall and per frequency group.

    `score_fn` maps a document to a length-k score vector over the full
    label set.  Without a training corpus every group is empty; a document
    counts in a group only if its truth meets the group's labels.
    """
    if not test_corpus:
        raise ValidationError("test corpus must be nonempty")
    check_int("k", k, 1)
    all_scores = [as_floats(score_fn(doc)).ravel() for doc in test_corpus]
    group_ids = (np.searchsorted(GROUP_BOUNDS, label_frequencies(train_corpus, k))
                 if train_corpus is not None else None)

    # Row 0 sums the overall metrics, row 1 + g those of group g.
    sums = np.zeros((1 + len(GROUP_NAMES), len(_KEYS)))
    doc_counts = [0] * (1 + len(GROUP_NAMES))
    for doc, scores in zip(test_corpus, all_scores):
        if scores.size != k:
            raise ValidationError(f"score vector length {scores.size} != label count {k}")
        if not np.isfinite(scores).all():
            raise ValidationError(f"document {doc.doc_id!r} has a non-finite score")
        if not doc.labels:
            raise ValidationError(f"document {doc.doc_id!r} has no labels")
        labels = doc_labels(doc, k)
        ranking = rank_labels(scores)
        sums[0] += _ranked_metrics(ranking, doc.labels)
        doc_counts[0] += 1
        if group_ids is None:
            continue
        ranked_groups = group_ids[ranking]
        for gid in np.unique(group_ids[labels]).tolist():
            truth = {label for label in doc.labels if group_ids[label] == gid}
            sums[1 + gid] += _ranked_metrics(ranking[ranked_groups == gid], truth)
            doc_counts[1 + gid] += 1

    means = [dict(zip(_KEYS, (row / n).tolist())) if n else None
             for row, n in zip(sums, doc_counts)]
    label_counts = (np.bincount(group_ids, minlength=len(GROUP_NAMES)).tolist()
                    if group_ids is not None else [0] * len(GROUP_NAMES))
    groups = [GroupReport(name, label_counts[g], doc_counts[1 + g], means[1 + g])
              for g, name in enumerate(GROUP_NAMES)]
    return EvalReport(overall=means[0], groups=groups, documents=len(test_corpus))


def fusion_weight_histogram(
    trace_fn: Callable[[Document], "object"],
    documents: Corpus,
    bins: int = 10,
) -> list[int]:
    """Histogram of the gate weight alpha over (document, positive label) pairs.

    Bin b covers [b/bins, (b+1)/bins), except the last bin which also
    includes 1.0.  beta = 1 - alpha needs no histogram of its own: off the
    bin edges it is this one reversed.  `trace_fn` must return a forward
    trace whose subset covers the document's labels.
    """
    if not documents:
        raise ValidationError("need at least one document")
    check_int("bins", bins, 1)
    counts = [0] * bins
    for doc in documents:
        trace = trace_fn(doc)
        positions = {label: idx for idx, label in enumerate(trace.subset)}
        for label in sorted(doc.labels):
            if label not in positions:
                raise ValidationError(
                    f"trace subset for {doc.doc_id!r} is missing label {label}"
                )
            alpha = float(trace.alpha.value[0, positions[label]])
            counts[min(int(alpha * bins), bins - 1)] += 1
    return counts
