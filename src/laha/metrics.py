"""Ranking metrics, frequency-group breakdowns, gate-weight histograms.

Precision@tau is the fraction of the top-tau scored labels that are
relevant; nDCG@tau discounts hits by log2(rank + 1) and normalizes by the
ideal ordering truncated at min(tau, #relevant).  Ties in scores break
toward the lower label index.  Group evaluation restricts both the truth
and the candidate ranking to the labels of a frequency group computed
from the training corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import Corpus, Document
from .errors import ValidationError

DEFAULT_TAUS = (1, 3, 5)


def rank_labels(scores: np.ndarray) -> np.ndarray:
    """Label indices by descending score; ties go to the lower index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def precision_at_k(scores: np.ndarray, truth: set[int], tau: int) -> float:
    """Fraction of the top-tau ranked labels present in truth."""
    scores = np.asarray(scores, dtype=np.float64)
    _validate_metric_args(scores, truth, tau)
    top = rank_labels(scores)[:tau]
    return sum(1.0 for label in top if label in truth) / tau


def ndcg_at_k(scores: np.ndarray, truth: set[int], tau: int) -> float:
    """Discounted cumulative gain over the top tau, against the ideal ranking."""
    scores = np.asarray(scores, dtype=np.float64)
    _validate_metric_args(scores, truth, tau)
    top = rank_labels(scores)[:tau]
    dcg = sum(
        1.0 / math.log2(rank + 2)
        for rank, label in enumerate(top)
        if label in truth
    )
    ideal = sum(
        1.0 / math.log2(rank + 2) for rank in range(min(tau, len(truth)))
    )
    return dcg / ideal


def _validate_metric_args(scores: np.ndarray, truth: set[int], tau: int) -> None:
    if not truth:
        raise ValidationError("ground-truth label set must be nonempty")
    if tau < 1:
        raise ValidationError("tau must be >= 1")
    if tau > scores.size:
        raise ValidationError(f"tau {tau} exceeds label count {scores.size}")
    for label in truth:
        if not (0 <= label < scores.size):
            raise ValidationError(f"truth label {label} outside score range")


@dataclass
class LabelGroupSpec:
    """Frequency boundaries; (5, 50) means G1 F<=5, G2 5<F<=50, G3 F>50."""

    boundaries: tuple[int, ...] = (5, 50)

    def __post_init__(self):
        self.boundaries = tuple(self.boundaries)
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValidationError("group boundaries must be strictly increasing")

    @property
    def names(self) -> list[str]:
        names = []
        prev = None
        for i, b in enumerate(self.boundaries):
            names.append(f"G{i + 1}(F<={b})" if prev is None else f"G{i + 1}({prev}<F<={b})")
            prev = b
        names.append(f"G{len(self.boundaries) + 1}(F>{prev})" if prev is not None
                     else "G1(all)")
        return names

    def group_of(self, frequency: int) -> int:
        for i, b in enumerate(self.boundaries):
            if frequency <= b:
                return i
        return len(self.boundaries)


def label_frequencies(corpus: Corpus, k: int) -> np.ndarray:
    """Occurrences of each label over the corpus documents."""
    freqs = np.zeros(k, dtype=np.int64)
    for doc in corpus:
        for label in doc.labels:
            if not (0 <= label < k):
                raise ValidationError(f"label {label} outside range [0,{k})")
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
    histograms: dict[str, list[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "groups": [
                {
                    "name": g.name,
                    "label_count": g.label_count,
                    "doc_count": g.doc_count,
                    "metrics": g.metrics,
                }
                for g in self.groups
            ],
            "documents": self.documents,
            "histograms": self.histograms,
        }


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
    taus = sorted(set(int(t) for t in taus))
    if any(t < 1 for t in taus):
        raise ValidationError("every tau must be >= 1")

    first = np.asarray(score_fn(test_corpus[0]), dtype=np.float64).ravel()
    if k is None:
        k = first.size
    if first.size != k:
        raise ValidationError(f"score vector length {first.size} != label count {k}")

    overall_acc = {f"P@{t}": 0.0 for t in taus} | {f"nDCG@{t}": 0.0 for t in taus}
    group_spec = group_spec or LabelGroupSpec()
    if train_corpus is not None:
        freqs = label_frequencies(train_corpus, k)
        group_ids = np.array([group_spec.group_of(int(f)) for f in freqs])
    else:
        group_ids = None
    n_groups = len(group_spec.names)
    group_acc = [dict.fromkeys(overall_acc, 0.0) for _ in range(n_groups)]
    group_docs = [0] * n_groups

    scores_cache = [first] + [
        np.asarray(score_fn(doc), dtype=np.float64).ravel() for doc in test_corpus[1:]
    ]
    for doc, scores in zip(test_corpus, scores_cache):
        if scores.size != k:
            raise ValidationError(
                f"score vector length {scores.size} != label count {k}"
            )
        for label in doc.labels:
            if not (0 <= label < k):
                raise ValidationError(
                    f"document {doc.doc_id!r} label {label} outside range [0,{k})"
                )
        for t in taus:
            overall_acc[f"P@{t}"] += precision_at_k(scores, doc.labels, min(t, k))
            overall_acc[f"nDCG@{t}"] += ndcg_at_k(scores, doc.labels, min(t, k))
        if group_ids is None:
            continue
        for gid in range(n_groups):
            members = np.flatnonzero(group_ids == gid)
            local_truth = {
                int(np.searchsorted(members, l)) for l in doc.labels if group_ids[l] == gid
            }
            if not local_truth:
                continue
            group_docs[gid] += 1
            local_scores = scores[members]
            for t in taus:
                t_eff = min(t, members.size)
                group_acc[gid][f"P@{t}"] += precision_at_k(local_scores, local_truth, t_eff)
                group_acc[gid][f"nDCG@{t}"] += ndcg_at_k(local_scores, local_truth, t_eff)

    n_docs = len(test_corpus)
    overall = {name: value / n_docs for name, value in overall_acc.items()}
    groups = []
    for gid, name in enumerate(group_spec.names):
        label_count = int((group_ids == gid).sum()) if group_ids is not None else 0
        if group_ids is None or group_docs[gid] == 0:
            groups.append(GroupReport(name, label_count, 0, None))
        else:
            groups.append(
                GroupReport(
                    name,
                    label_count,
                    group_docs[gid],
                    {m: v / group_docs[gid] for m, v in group_acc[gid].items()},
                )
            )
    return EvalReport(overall=overall, groups=groups, documents=n_docs)


def fusion_weight_histogram(
    trace_fn: Callable[[Document], "object"],
    documents: Corpus,
    bins: int = 10,
) -> dict[str, list[int]]:
    """Histogram of gate weights over (document, positive label) pairs.

    Bin b covers [b/bins, (b+1)/bins), except the last bin which also
    includes 1.0.  `trace_fn` must return a forward trace whose subset
    covers the document's labels.
    """
    if not documents:
        raise ValidationError("need at least one document")
    if bins < 1:
        raise ValidationError("bins must be >= 1")
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
            for key, row in (("alpha", trace.alpha), ("beta", trace.beta)):
                w = float(row.value[0, j])
                counts[key][min(int(w * bins), bins - 1)] += 1
    return counts
