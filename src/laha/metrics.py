"""Ranking metrics, frequency-group breakdowns, gate-weight histograms.

Precision@tau is the fraction of the top-tau scored labels that are
relevant; nDCG@tau discounts hits by log2(rank + 1) and normalizes by the
ideal ordering truncated at min(tau, #relevant).  Ties in scores break
toward the lower label index.  Group evaluation restricts both the truth
and the candidate ranking to the labels of a frequency group computed
from the training corpus.  `evaluate` ranks each score vector once; a
group's ranking is that ranking restricted to the group's labels, which
the stable tie order makes equal to ranking the group's own scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Corpus, Document
from .errors import ValidationError, check_int

DEFAULT_TAUS = (1, 3, 5)


def rank_labels(scores: np.ndarray) -> np.ndarray:
    """Label indices by descending score; ties go to the lower index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _ranked_metrics(ranking: np.ndarray, truth: set[int], taus: Sequence[int]) -> list[float]:
    """P@t for every t in taus, then nDCG@t for every t, over one ranking.

    Each t is capped at the ranking's length.  P@t is the hit count over t;
    nDCG@t sums 1/log2(rank + 2) over the hits in rank order and divides by
    the same sum over the first min(t, |truth|) ranks.
    """
    caps = [min(t, ranking.size) for t in taus]
    gains = [1.0 / math.log2(rank + 2) for rank in range(max(caps))]
    hits = [label in truth for label in ranking[: max(caps)].tolist()]
    precision = [sum(hits[:t]) / t for t in caps]
    ndcg = [sum(g for g, hit in zip(gains[:t], hits) if hit) / sum(gains[: min(t, len(truth))])
            for t in caps]
    return precision + ndcg


@dataclass
class LabelGroupSpec:
    """Frequency boundaries; (5, 50) means G1 F<=5, G2 5<F<=50, G3 F>50."""

    boundaries: tuple[int, ...] = (5, 50)

    def __post_init__(self):
        if not isinstance(self.boundaries, Iterable):
            raise ValidationError(f"group boundaries must be integers, got {self.boundaries!r}")
        self.boundaries = tuple(self.boundaries)
        for b in self.boundaries:
            check_int("group boundary", b, 0)
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValidationError("group boundaries must be strictly increasing")

    @property
    def names(self) -> list[str]:
        b = self.boundaries
        ranges = [f"F<={hi}" for hi in b[:1]] + [f"{lo}<F<={hi}" for lo, hi in zip(b, b[1:])]
        ranges.append(f"F>{b[-1]}" if b else "all")
        return [f"G{i + 1}({r})" for i, r in enumerate(ranges)]

    def group_of(self, frequency: int | np.ndarray):
        """Group index of a frequency, or an array of them for an array."""
        return np.searchsorted(self.boundaries, frequency)


def label_frequencies(corpus: Corpus, k: int) -> np.ndarray:
    """Occurrences of each label over the corpus documents."""
    check_int("k", k, 1)
    freqs = np.zeros(k, dtype=np.int64)
    for doc in corpus:
        for label in doc.labels:
            check_int(f"document {doc.doc_id!r} label", label, 0, k)
            freqs[label] += 1
    return freqs


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
    taus: Sequence[int] = DEFAULT_TAUS,
    group_spec: LabelGroupSpec | None = None,
    train_corpus: Corpus | None = None,
    k: int | None = None,
) -> EvalReport:
    """Macro-averaged P@tau / nDCG@tau overall and per frequency group.

    `score_fn` maps a document to a length-k score vector over the full
    label set.  Group frequencies count label occurrences in the training
    corpus; a document contributes to a group only if its truth intersects
    the group's labels, and the in-group ranking considers only that
    group's labels (with tau capped at the group size).
    """
    if not test_corpus:
        raise ValidationError("test corpus must be nonempty")
    for t in taus:
        check_int("tau", t, 1)
    taus = sorted(set(int(t) for t in taus))
    if not taus:
        raise ValidationError("taus must name at least one cutoff")
    keys = [f"P@{t}" for t in taus] + [f"nDCG@{t}" for t in taus]
    all_scores = [np.asarray(score_fn(doc), dtype=np.float64).ravel() for doc in test_corpus]
    k = all_scores[0].size if k is None else k
    check_int("k", k, 1)
    group_spec = group_spec or LabelGroupSpec()
    names = group_spec.names
    group_ids = (group_spec.group_of(label_frequencies(train_corpus, k))
                 if train_corpus is not None else None)

    # Row 0 sums the overall metrics, row 1 + g those of group g.
    sums = np.zeros((1 + len(names), len(keys)))
    doc_counts = [0] * (1 + len(names))
    for doc, scores in zip(test_corpus, all_scores):
        if scores.size != k:
            raise ValidationError(f"score vector length {scores.size} != label count {k}")
        if not np.isfinite(scores).all():
            raise ValidationError(f"document {doc.doc_id!r} has a non-finite score")
        if not doc.labels:
            raise ValidationError(f"document {doc.doc_id!r} has no labels")
        for label in doc.labels:
            check_int(f"document {doc.doc_id!r} label", label, 0, k)
        ranking = rank_labels(scores)
        sums[0] += _ranked_metrics(ranking, doc.labels, taus)
        doc_counts[0] += 1
        if group_ids is None:
            continue
        ranked_groups = group_ids[ranking]
        for gid in np.unique(group_ids[list(doc.labels)]).tolist():
            truth = {label for label in doc.labels if group_ids[label] == gid}
            sums[1 + gid] += _ranked_metrics(ranking[ranked_groups == gid], truth, taus)
            doc_counts[1 + gid] += 1

    means = [dict(zip(keys, (row / n).tolist())) if n else None
             for row, n in zip(sums, doc_counts)]
    label_counts = (np.bincount(group_ids, minlength=len(names)).tolist()
                    if group_ids is not None else [0] * len(names))
    groups = [GroupReport(name, label_counts[g], doc_counts[1 + g], means[1 + g])
              for g, name in enumerate(names)]
    return EvalReport(overall=means[0], groups=groups, documents=len(test_corpus))


def fusion_weight_histogram(
    trace_fn: Callable[[Document], "object"],
    documents: Corpus,
    bins: int = 10,
) -> dict[str, list[int]]:
    """Histogram of gate weights alpha and beta = 1 - alpha over (document, positive label) pairs.

    Bin b covers [b/bins, (b+1)/bins), except the last bin which also
    includes 1.0.  `trace_fn` must return a forward trace whose subset
    covers the document's labels.
    """
    if not documents:
        raise ValidationError("need at least one document")
    check_int("bins", bins, 1)
    counts = {"alpha": [0] * bins, "beta": [0] * bins}
    for doc in documents:
        trace = trace_fn(doc)
        positions = {label: idx for idx, label in enumerate(trace.subset)}
        for label in sorted(doc.labels):
            if label not in positions:
                raise ValidationError(
                    f"trace subset for {doc.doc_id!r} is missing label {label}"
                )
            j = positions[label]
            alpha = float(trace.alpha.value[0, j])
            for key, w in (("alpha", alpha), ("beta", 1.0 - alpha)):
                counts[key][min(int(w * bins), bins - 1)] += 1
    return counts
