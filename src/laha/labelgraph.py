"""Label co-occurrence graph and structure-preserving label embeddings.

Two labels are connected whenever they tag at least one common document;
edge weight is the number of shared documents.  The graph is an immutable
CSR matrix.  Labels embed into a dense low-dimensional space by node2vec:
second-order biased random walks over the graph (return parameter p,
in-out parameter q), all stepped together as arrays, then skip-gram with
negative sampling on the walk corpus, updated in blocks of pairs, so
nearby labels end up with similar vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Corpus, atomic_write_bytes
from .errors import DataFormatError, ValidationError, check_int, check_positive
from .numeric import sigmoid


class LabelGraph:
    """Undirected weighted graph over label ids 0..k-1, no self-loops, as CSR.

    Built once from (i, j, weight) triples; duplicate edges add their
    weights.  Row i's neighbours are `indices[indptr[i]:indptr[i + 1]]`,
    sorted by id, with their `weights`.
    """

    def __init__(self, k: int, edges=()):
        if k < 1:
            raise ValidationError("label count must be >= 1")
        e = np.asarray(edges).reshape(-1, 3)
        if e.size and e.dtype.kind not in "iu":
            raise ValidationError(f"edge ids and weights must be integers, got {e.dtype}")
        e = e.astype(np.int64)
        i, j, w = e.T
        if (i == j).any():
            raise ValidationError("self-loops are not allowed")
        bad = np.flatnonzero(((e[:, :2] < 0) | (e[:, :2] >= k)).any(axis=1))
        if bad.size:
            raise ValidationError(
                f"edge ({i[bad[0]]},{j[bad[0]]}) outside label range [0,{k})")
        if (w < 1).any():
            raise ValidationError("edge weight must be >= 1")
        keys, slot = np.unique(np.concatenate([i * k + j, j * k + i]), return_inverse=True)
        self.k = k
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // k, minlength=k))])
        self.indices = keys % k
        self.weights = np.bincount(slot, weights=np.concatenate([w, w])).astype(np.int64)
        # one sorted key per entry, plus a sentinel past every real key
        self._keys = np.append(keys, k * k)
        for a in (self.indptr, self.indices, self.weights, self._keys):
            a.flags.writeable = False

    def _find(self, i, j):
        """Entry positions of (i, j) in `indices`/`weights`, and which exist."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        inside = (i >= 0) & (i < self.k) & (j >= 0) & (j < self.k)
        key = np.where(inside, i * self.k + j, self.k * self.k)
        pos = np.searchsorted(self._keys, key)
        return pos, inside & (self._keys[pos] == key)

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        """(neighbor, weight) pairs sorted by neighbor id."""
        s = slice(self.indptr[i], self.indptr[i + 1])
        return list(zip(self.indices[s].tolist(), self.weights[s].tolist()))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._find(i, j)[1])

    def weight(self, i: int, j: int) -> int:
        pos, found = self._find(i, j)
        return int(self.weights[pos]) if found else 0

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    @property
    def isolated(self) -> list[int]:
        return np.flatnonzero(np.diff(self.indptr) == 0).tolist()


def build_cooccurrence_graph(corpus: Corpus, k: int) -> LabelGraph:
    """Edge (i, j) weighted by the number of documents containing both labels."""
    edges = []
    for doc in corpus:
        labels = sorted(doc.labels)
        for label in labels:
            if not (0 <= label < k):
                raise ValidationError(
                    f"document {doc.doc_id!r} has label {label} outside range [0,{k})"
                )
        edges.extend((a, b, 1) for a, b in combinations(labels, 2))
    return LabelGraph(k, edges)


@dataclass
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 40
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        check_positive("p", self.p)
        check_positive("q", self.q)
        check_int("walk_length", self.walk_length, 1)
        check_int("walks_per_node", self.walks_per_node, 1)
        check_int("seed", self.seed, 0)


def sample_walks(graph: LabelGraph, config: WalkConfig) -> list[list[int]]:
    """Second-order biased walks of walk_length nodes, walks_per_node from every node.

    Walks come out grouped by start node in id order; a walk from an
    isolated node is the singleton [node].  From prev t at cur v the next
    node x has probability proportional to w(v,x) * bias, with bias 1/p if
    x == t, 1 if x neighbors t and 1/q otherwise; the first step is plain
    weight-proportional.  Every walk takes each step at once under one
    generator seeded with config.seed.  A weight-proportional step is one
    draw from a cumulative-weight array over all rows; a biased step
    (p or q != 1) draws from each walk's exact biased row.
    """
    rng = np.random.default_rng(config.seed)
    starts = np.repeat(np.arange(graph.k), config.walks_per_node)
    moving = np.diff(graph.indptr)[starts] > 0
    steps = np.empty((int(moving.sum()), config.walk_length), dtype=np.int64)
    steps[:, 0] = starts[moving]
    cum = np.concatenate([[0.0], np.cumsum(graph.weights, dtype=np.float64)])
    for s in range(1, config.walk_length):
        lo, hi = graph.indptr[steps[:, s - 1]], graph.indptr[steps[:, s - 1] + 1]
        if s == 1 or config.p == config.q == 1:
            steps[:, s] = graph.indices[_inverse_cdf(cum, lo, hi, rng)]
            continue
        lens = hi - lo
        seg = np.cumsum(lens) - lens
        entry = np.repeat(lo - seg, lens) + np.arange(lens.sum())
        prev, nxt = np.repeat(steps[:, s - 2], lens), graph.indices[entry]
        bias = np.where(nxt == prev, 1 / config.p,
                        np.where(graph._find(prev, nxt)[1], 1.0, 1 / config.q))
        biased = graph.weights[entry] * bias
        # each row scaled to sum 1, so one running total resolves every row alike
        biased /= np.repeat(np.add.reduceat(biased, seg), lens)
        cum_biased = np.concatenate([[0.0], np.cumsum(biased)])
        steps[:, s] = nxt[_inverse_cdf(cum_biased, seg, seg + lens, rng)]
    rows = iter(steps.tolist())
    return [next(rows) if m else [node] for node, m in zip(starts.tolist(), moving.tolist())]


def _inverse_cdf(cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, rng) -> np.ndarray:
    """Per row, an entry in [lo, hi) drawn by weight; cum is the running total from 0."""
    u = cum[lo] + rng.random(lo.size) * (cum[hi] - cum[lo])
    return np.clip(np.searchsorted(cum, u, side="right") - 1, lo, hi - 1)


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
    """Skip-gram with negative sampling over walk windows, updated in blocks.

    Each epoch visits the walks in a seeded random order and, in each walk,
    every (center, context) pair at most `window` positions apart, by
    center then context position.  Each pair draws `negatives` noise nodes
    from the unigram^0.75 distribution of walk occurrences and drops those
    equal to its context.  Pairs run in blocks of at most 256 consecutive
    pairs, sized so that the most frequent node is expected about 4 times
    per block as a context or negative: each pair's gradient is taken at
    the vectors as they were at its block's start, and the block's
    gradients are summed, so a row met twice gets both.  Nodes absent from
    every walk keep their seeded random initialization; epochs=0 returns
    that initialization unchanged.
    Learning rate decays linearly per epoch.
    """
    if r < 1 or window < 1:
        raise ValidationError("r and window must be >= 1")
    if negatives < 0 or epochs < 0:
        raise ValidationError("negatives and epochs must be >= 0")
    if not walks:
        raise ValidationError("cannot embed labels from zero walks")
    lens = np.array([len(walk) for walk in walks])
    if lens.min() == 0:
        raise ValidationError("walks must not be empty")
    flat = np.concatenate(walks)
    if flat.dtype.kind not in "iu":
        raise ValidationError(f"walk nodes must be integers, got {flat.dtype}")
    outside = flat[(flat < 0) | (flat >= k)]
    if outside.size:
        raise ValidationError(f"walk node {outside[0]} outside label range [0,{k})")

    rng = np.random.default_rng(seed)
    vec_in = (rng.random((k, r)) - 0.5) / r
    vec_out = np.zeros((k, r))
    counts = np.bincount(flat, minlength=k)
    noise_nodes = np.flatnonzero(counts)
    noise_cum = np.cumsum(counts[noise_nodes] ** 0.75)
    # block sums track sequential SGD only while no row recurs often in a block,
    # so expect the busiest vec_out row (context or negative) about 4 times
    busiest = (counts / flat.size + negatives * counts ** 0.75 / noise_cum[-1]).max()
    label, cols, block = np.eye(1, negatives + 1), np.arange(r), int(np.clip(4 / busiest, 1, 256))

    for epoch in range(epochs):
        step = lr * max(1.0 - epoch / epochs, 1e-4)
        order = rng.permutation(len(walks))
        n = lens[order]
        start = np.repeat(np.cumsum(n) - n, n)
        pos = np.arange(n.sum())
        nodes = flat[np.repeat(np.cumsum(lens)[order] - np.cumsum(n), n) + pos]
        lo = np.maximum(start, pos - window)
        count = np.minimum(start + np.repeat(n, n), pos + window + 1) - lo - 1
        first, total = np.cumsum(count) - count, count.sum()
        for b in range(0, total, block):
            pair = np.arange(b, min(b + block, total))
            at = np.searchsorted(first, pair, side="right") - 1  # center positions
            ctx = lo[at] + pair - first[at]
            ctx += ctx >= at  # skip the center itself
            center, v = nodes[at], vec_in[nodes[at]]
            neg = noise_nodes[np.searchsorted(
                noise_cum, rng.random((pair.size, negatives)) * noise_cum[-1], side="right")]
            targets = np.column_stack([nodes[ctx], neg])
            u = vec_out[targets]
            g = step * (label - sigmoid(np.matmul(u, v[:, :, None])[:, :, 0]))
            g[:, 1:] *= neg != targets[:, :1]
            np.add.at(vec_in.reshape(-1), (center[:, None] * r + cols).ravel(),
                      np.matmul(g[:, None, :], u)[:, 0].ravel())
            np.add.at(vec_out.reshape(-1), (targets[:, :, None] * r + cols).ravel(),
                      (g[:, :, None] * v[:, None, :]).ravel())
    return LabelEmbedding(vectors=vec_in.T)  # column-major, as the model reads it


def save_embedding(path: str, embedding: LabelEmbedding) -> None:
    """Text format: header `r k`, then k lines of r floats (line i = label i)."""
    lines = [f"{embedding.r} {embedding.k}"]
    lines += [" ".join(repr(float(x)) for x in column) for column in embedding.vectors.T]
    atomic_write_bytes(path, "".join(line + "\n" for line in lines).encode())


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
        for lineno, line in enumerate(fh, start=k + 2):
            if line.strip():
                raise DataFormatError(f"row after the {k} declared embedding rows", line=lineno)
    return LabelEmbedding(vectors=vectors)
