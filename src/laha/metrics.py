"""Ranking metrics at fixed cutoffs, frequency-group breakdowns, gate-weight histograms.

`evaluate` reports P@t and nDCG@t at `TAUS` = (1, 3, 5), overall and per
label group by training-corpus frequency F at `GROUP_BOUNDS`: G1 F<=5, G2
5<F<=50, G3 F>50.  P@t is the fraction of the top-t scored labels that
are relevant; nDCG@t discounts hits by log2(rank + 1) and normalizes by
the ideal ordering truncated at min(t, #relevant).  Ties in scores break
toward the lower label index.  `evaluate` ranks a chunk's scores once, a
document a row; a group keeps its own labels of each row, which the stable
tie order makes equal to ranking the group's scores, t capped at its size.
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


def _ranked_metrics(ranking: np.ndarray, truth: np.ndarray) -> tuple[int, dict[str, float] | None]:
    """How many rows of a docs x m ranking have a relevant label in docs x k `truth`, and their
    mean P@t for every t in TAUS, then nDCG@t, t capped at m (None for no row).  P@t is the hit
    count over t; nDCG@t sums 1/log2(rank + 2) over the hits in rank order, over that sum at
    min(t, |truth|) ranks.  The mean sums row by row, as numpy reduces a row-major matrix."""
    meets = truth.any(axis=1)
    if not meets.any():
        return 0, None
    ranking, truth = ranking[meets], truth[meets]
    caps = np.minimum(TAUS, ranking.shape[1])
    gains = np.array([1.0 / math.log2(rank + 2) for rank in range(caps.max())])
    hits = np.take_along_axis(truth, ranking[:, : caps.max()], axis=1)
    found, ideal = np.cumsum(np.where(hits, gains, 0.0), axis=1), np.cumsum(gains)
    ideal_at = ideal[np.minimum.outer(truth.sum(axis=1), caps) - 1]
    rows = np.hstack([np.cumsum(hits, axis=1)[:, caps - 1] / caps, found[:, caps - 1] / ideal_at])
    return len(rows), dict(zip(_KEYS, rows.mean(axis=0).tolist()))


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


def evaluate(score_fn: Callable[[Document], np.ndarray], test_corpus: Corpus, k: int,
             train_corpus: Corpus | None = None) -> EvalReport:
    """Macro-averaged P@t / nDCG@t at `TAUS`, overall and per frequency group.  `score_fn` maps
    a document to a length-k score vector over the full label set.  Without a training corpus
    every group is empty; a document counts in a group if its truth meets the group's labels."""
    if not test_corpus:
        raise ValidationError("test corpus must be nonempty")
    check_int("k", k, 1)
    all_scores = [as_floats(score_fn(doc)).ravel() for doc in test_corpus]
    group_ids = (np.searchsorted(GROUP_BOUNDS, label_frequencies(train_corpus, k))
                 if train_corpus is not None else None)
    truth = np.zeros((len(test_corpus), k), dtype=bool)
    for row, doc, scores in zip(truth, test_corpus, all_scores):
        if scores.size != k:
            raise ValidationError(f"score vector length {scores.size} != label count {k}")
        if not np.isfinite(scores).all():
            raise ValidationError(f"document {doc.doc_id!r} has a non-finite score")
        if not doc.labels:
            raise ValidationError(f"document {doc.doc_id!r} has no labels")
        row[doc_labels(doc, k)] = True
    ranking = rank_labels(np.stack(all_scores))
    groups = [GroupReport(name, 0, 0, None) for name in GROUP_NAMES]
    for g, name in enumerate(GROUP_NAMES if group_ids is not None else ()):
        in_group = group_ids == g  # each row keeps the group's labels, in the chunk's rank order
        ranked = ranking[in_group[ranking]].reshape(len(truth), -1)
        groups[g] = GroupReport(name, ranked.shape[1], *_ranked_metrics(ranked, truth & in_group))
    return EvalReport(_ranked_metrics(ranking, truth)[1], groups, len(truth))


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
