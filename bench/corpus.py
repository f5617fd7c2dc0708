"""Seeded synthetic multi-label corpora with planted label structure.

Labels fall into co-occurrence clusters and are drawn with Zipfian
frequencies, so the frequency groups G1 (F<=5), G2 (5<F<=50) and G3 (F>50)
of `laha.metrics` are all populated.  Every label owns a few trigger words;
a document carries trigger words of each of its labels, scattered through
filler text drawn from a Zipfian filler vocabulary.  The same shape and
seed always give the same documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from laha.data import Corpus, Document


@dataclass(frozen=True)
class CorpusShape:
    name: str
    k: int                  # label count
    n_train: int
    n_test: int
    doc_len: tuple[int, int]  # inclusive token-count range
    cluster_size: int       # labels per co-occurrence cluster
    extra_labels: float     # mean labels per document beyond the first
    max_labels: int
    same_cluster: float     # chance an extra label comes from the first label's cluster
    zipf: float             # label-frequency exponent
    filler_words: int
    triggers_per_label: int = 3
    trigger_hits: int = 3   # trigger tokens planted per document label
    noise_triggers: int = 1  # trigger tokens of random other labels per document


AAPD_TRAIN = CorpusShape(
    name="aapd-train", k=54, n_train=256, n_test=0, doc_len=(140, 200),
    cluster_size=6, extra_labels=1.4, max_labels=6, same_cluster=0.75,
    zipf=1.1, filler_words=3000,
)

AAPD_QUALITY = CorpusShape(
    name="aapd-quality", k=54, n_train=160, n_test=360, doc_len=(10, 14),
    cluster_size=6, extra_labels=1.4, max_labels=6, same_cluster=0.75,
    zipf=1.1, filler_words=400, noise_triggers=0,
)

EURLEX_SCORE = CorpusShape(
    name="eurlex-score", k=3956, n_train=2000, n_test=64, doc_len=(260, 340),
    cluster_size=12, extra_labels=4.3, max_labels=12, same_cluster=0.6,
    zipf=0.9, filler_words=6000, trigger_hits=2,
)


@dataclass
class SyntheticCorpus:
    shape: CorpusShape
    train: Corpus
    test: Corpus


def generate(shape: CorpusShape, seed: int) -> SyntheticCorpus:
    """Train and test splits drawn from one seeded stream."""
    rng = np.random.default_rng((seed, shape.k, shape.n_train))
    k = shape.k
    # label id -> frequency rank is a seeded permutation, so id carries no signal
    rank = rng.permutation(k)
    label_w = (rank + 1.0) ** -shape.zipf
    label_cdf = np.cumsum(label_w)
    cluster_of = rng.permutation(k) // shape.cluster_size
    members = [np.flatnonzero(cluster_of == c) for c in range(cluster_of.max() + 1)]
    member_cdf = [np.cumsum(label_w[m]) for m in members]
    filler_cdf = np.cumsum(np.arange(1, shape.filler_words + 1, dtype=np.float64) ** -1.0)
    filler = np.array([f"w{i}" for i in range(shape.filler_words)], dtype=object)
    triggers = np.array(
        [f"t{j}x{i}" for j in range(k) for i in range(shape.triggers_per_label)],
        dtype=object,
    ).reshape(k, shape.triggers_per_label)

    def pick(cdf: np.ndarray, size=None):
        return np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")

    def draw_labels() -> list[int]:
        first = int(pick(label_cdf))
        labels = [first]
        want = min(shape.max_labels, 1 + rng.poisson(shape.extra_labels))
        cluster = cluster_of[first]
        for _ in range(4 * want):
            if len(labels) >= want:
                break
            if rng.random() < shape.same_cluster:
                cand = int(members[cluster][pick(member_cdf[cluster])])
            else:
                cand = int(pick(label_cdf))
            if cand not in labels:
                labels.append(cand)
        return labels

    def draw_doc(doc_id: str) -> Document:
        labels = draw_labels()
        n = int(rng.integers(shape.doc_len[0], shape.doc_len[1] + 1))
        tokens = filler[pick(filler_cdf, n)]
        planted = [
            triggers[j, rng.integers(shape.triggers_per_label, size=shape.trigger_hits)]
            for j in labels
        ]
        noise = rng.integers(k, size=shape.noise_triggers)
        planted.append(triggers[noise, rng.integers(shape.triggers_per_label,
                                                     size=shape.noise_triggers)])
        planted = np.concatenate(planted)
        positions = rng.choice(n, size=min(n, planted.size), replace=False)
        tokens[positions] = planted[: positions.size]
        return Document(doc_id=doc_id, tokens=tokens.tolist(), labels=set(labels))

    train = [draw_doc(f"train-{i}") for i in range(shape.n_train)]
    test = [draw_doc(f"test-{i}") for i in range(shape.n_test)]
    return SyntheticCorpus(shape=shape, train=train, test=test)


def describe(corpus: SyntheticCorpus) -> dict:
    """Shape summary of the training split, computed without the package."""
    k = corpus.shape.k
    freqs = np.zeros(k, dtype=np.int64)
    edges: set[tuple[int, int]] = set()
    for doc in corpus.train:
        labels = sorted(doc.labels)
        freqs[labels] += 1
        edges.update((a, b) for i, a in enumerate(labels) for b in labels[i + 1:])
    touched = np.zeros(k, dtype=bool)
    for a, b in edges:
        touched[a] = touched[b] = True
    docs = corpus.train + corpus.test
    return {
        "corpus": corpus.shape.name,
        "train_docs": len(corpus.train),
        "test_docs": len(corpus.test),
        "labels": k,
        "labels_per_doc": round(sum(len(d.labels) for d in docs) / len(docs), 3),
        "tokens_per_doc": round(sum(len(d.tokens) for d in docs) / len(docs), 1),
        "g1_labels": int((freqs <= 5).sum()),
        "g2_labels": int(((freqs > 5) & (freqs <= 50)).sum()),
        "g3_labels": int((freqs > 50).sum()),
        "graph_edges": len(edges),
        "isolated_labels": int((~touched).sum()),
    }


def word_vector_lines(shape: CorpusShape, d: int, seed: int) -> list[str]:
    """GloVe-style lines standing in for pretrained vectors of the trigger words.

    The trigger words of one label lie close to one random unit direction,
    as related words do in pretrained vectors; filler words get no line, so
    the loader gives them its seeded random vectors.
    """
    rng = np.random.default_rng((seed, shape.k, d))
    directions = rng.normal(size=(shape.k, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    lines = []
    for j in range(shape.k):
        for i in range(shape.triggers_per_label):
            vec = directions[j] + 0.05 * rng.normal(size=d)
            lines.append(f"t{j}x{i} " + " ".join(repr(float(x)) for x in vec))
    return lines
