"""Label co-occurrence graph and structure-preserving label embeddings.

Two labels are connected whenever they tag at least one common document;
edge weight is the number of shared documents.  Labels embed into a dense
low-dimensional space by running second-order biased random walks over the
graph (return parameter p, in-out parameter q) and training skip-gram with
negative sampling on the walk corpus, so nearby labels end up with similar
vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Corpus
from .errors import DataFormatError, ValidationError


class LabelGraph:
    """Undirected weighted graph over label ids 0..k-1, no self-loops."""

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError("label count must be >= 1")
        self.k = k
        self._adj: list[dict[int, int]] = [dict() for _ in range(k)]

    def add_edge(self, i: int, j: int, weight: int = 1) -> None:
        if i == j:
            raise ValidationError("self-loops are not allowed")
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise ValidationError(f"edge ({i},{j}) outside label range [0,{self.k})")
        if weight < 1:
            raise ValidationError("edge weight must be >= 1")
        self._adj[i][j] = self._adj[i].get(j, 0) + weight
        self._adj[j][i] = self._adj[i][j]

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        """(neighbor, weight) pairs sorted by neighbor id."""
        return sorted(self._adj[i].items())

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def weight(self, i: int, j: int) -> int:
        return self._adj[i].get(j, 0)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    @property
    def isolated(self) -> list[int]:
        return [i for i in range(self.k) if not self._adj[i]]

    def edges(self) -> list[tuple[int, int, int]]:
        """(i, j, weight) with i < j, sorted."""
        out = []
        for i in range(self.k):
            for j, w in sorted(self._adj[i].items()):
                if i < j:
                    out.append((i, j, w))
        return out


def build_cooccurrence_graph(corpus: Corpus, k: int) -> LabelGraph:
    """Edge (i, j) weighted by the number of documents containing both labels."""
    graph = LabelGraph(k)
    for doc in corpus:
        labels = sorted(doc.labels)
        for label in labels:
            if not (0 <= label < k):
                raise ValidationError(
                    f"document {doc.doc_id!r} has label {label} outside range [0,{k})"
                )
        for a_idx in range(len(labels)):
            for b_idx in range(a_idx + 1, len(labels)):
                graph.add_edge(labels[a_idx], labels[b_idx])
    return graph


@dataclass
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 40
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValidationError("p and q must be positive")
        if self.walk_length < 1 or self.walks_per_node < 1:
            raise ValidationError("walk_length and walks_per_node must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def sample_walks(graph: LabelGraph, config: WalkConfig) -> list[list[int]]:
    """Second-order biased walks, walks_per_node from every node.

    From prev t at cur v the next candidate x gets weight
    w(v,x) * (1/p if x == t, 1 if x neighbors t, 1/q otherwise); the first
    step is plain weight-proportional.  Each (node, walk index) pair draws
    from its own seeded stream, so output is reproducible and per-walk
    generation could run in parallel.
    """
    walks = []
    for node in range(graph.k):
        for walk_idx in range(config.walks_per_node):
            rng = np.random.default_rng((config.seed, node, walk_idx))
            walks.append(_one_walk(graph, node, config, rng))
    return walks


def _one_walk(graph: LabelGraph, start: int, config: WalkConfig, rng) -> list[int]:
    walk = [start]
    nbrs = graph.neighbors(start)
    if not nbrs:
        return walk
    walk.append(_weighted_pick(rng, nbrs))
    while len(walk) < config.walk_length:
        cur = walk[-1]
        prev = walk[-2]
        nbrs = graph.neighbors(cur)
        if not nbrs:
            break
        biased = []
        for nxt, w in nbrs:
            if nxt == prev:
                bias = 1.0 / config.p
            elif graph.has_edge(prev, nxt):
                bias = 1.0
            else:
                bias = 1.0 / config.q
            biased.append((nxt, w * bias))
        walk.append(_weighted_pick(rng, biased))
    return walk


def _weighted_pick(rng, weighted: list[tuple[int, float]]) -> int:
    cum = np.cumsum([w for _, w in weighted])
    r = rng.random() * cum[-1]
    return weighted[int(np.searchsorted(cum, r, side="right"))][0]


@dataclass
class LabelEmbedding:
    """Dense label vectors as columns: matrix of shape (r, k)."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValidationError("label embedding must be a 2-D matrix")

    @property
    def r(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


def train_skipgram(
    walks: list[list[int]],
    k: int,
    r: int,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    lr: float = 0.025,
    seed: int = 0,
) -> LabelEmbedding:
    """Skip-gram with negative sampling over walk windows.

    Negatives draw from the unigram^0.75 distribution of walk occurrences.
    Nodes absent from every walk keep their seeded random initialization;
    epochs=0 returns that initialization unchanged.  Learning rate decays
    linearly per epoch.
    """
    if r < 1 or window < 1:
        raise ValidationError("r and window must be >= 1")
    if negatives < 0 or epochs < 0:
        raise ValidationError("negatives and epochs must be >= 0")
    if not walks:
        raise ValidationError("cannot embed labels from zero walks")

    rng = np.random.default_rng(seed)
    vec_in = (rng.random((k, r)) - 0.5) / r
    vec_out = np.zeros((k, r))

    counts = Counter()
    for walk in walks:
        counts.update(walk)
    for node in counts:
        if not (0 <= node < k):
            raise ValidationError(f"walk node {node} outside label range [0,{k})")
    noise_nodes = np.array(sorted(counts), dtype=np.int64)
    noise_weights = np.array([counts[n] for n in noise_nodes], dtype=np.float64) ** 0.75
    noise_cum = np.cumsum(noise_weights)
    noise_total = noise_cum[-1]

    for epoch in range(epochs):
        step = lr * max(1.0 - epoch / epochs, 1e-4)
        order = rng.permutation(len(walks))
        for wi in order:
            walk = walks[wi]
            for pos, center in enumerate(walk):
                lo = max(0, pos - window)
                hi = min(len(walk), pos + window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    _sgns_pair(
                        vec_in, vec_out, center, walk[ctx_pos],
                        negatives, step, rng, noise_nodes, noise_cum, noise_total,
                    )
    return LabelEmbedding(vectors=vec_in.T.copy())


def _sgns_pair(vec_in, vec_out, center, context, negatives, lr, rng,
               noise_nodes, noise_cum, noise_total):
    v = vec_in[center]
    accum = np.zeros_like(v)
    targets = [(context, 1.0)]
    if negatives > 0:
        draws = noise_nodes[np.searchsorted(noise_cum, rng.random(negatives) * noise_total,
                                            side="right")]
        targets.extend((int(n), 0.0) for n in draws if n != context)
    for node, label in targets:
        u = vec_out[node]
        score = 1.0 / (1.0 + np.exp(-np.dot(v, u)))
        g = lr * (label - score)
        accum += g * u
        vec_out[node] = u + g * v
    vec_in[center] = v + accum


def save_embedding(path: str, embedding: LabelEmbedding) -> None:
    """Text format: header `r k`, then k lines of r floats (line i = label i)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{embedding.r} {embedding.k}\n")
        for i in range(embedding.k):
            fh.write(" ".join(repr(float(x)) for x in embedding.vectors[:, i]) + "\n")


def load_embedding(path: str) -> LabelEmbedding:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataFormatError("embedding header must be `r k`", line=1)
        try:
            r, k = int(header[0]), int(header[1])
        except ValueError as err:
            raise DataFormatError("embedding header must be two integers", line=1) from err
        if r < 1 or k < 1:
            raise DataFormatError("embedding dimensions must be positive", line=1)
        vectors = np.zeros((r, k))
        for i in range(k):
            line = fh.readline()
            if not line:
                raise DataFormatError(
                    f"expected {k} embedding rows, file ends after {i}", line=i + 2
                )
            parts = line.split()
            if len(parts) != r:
                raise DataFormatError(
                    f"expected {r} floats, got {len(parts)}", line=i + 2
                )
            try:
                vectors[:, i] = [float(x) for x in parts]
            except ValueError as err:
                raise DataFormatError(f"bad float ({err})", line=i + 2) from err
            if not np.isfinite(vectors[:, i]).all():
                raise DataFormatError("non-finite float", line=i + 2)
    return LabelEmbedding(vectors=vectors)
