"""Label co-occurrence graph and structure-preserving label embeddings.

Two labels are connected whenever they tag at least one common document;
edge weight is the number of shared documents.  The graph is an immutable
CSR matrix.  Labels embed into a dense low-dimensional space from
weight-proportional random walks over the graph (node2vec's walk at
p = q = 1), all stepped together as arrays, then one randomized SVD of the
positive PMI of the walks' (center, context) pairs, the matrix skip-gram
implicitly factorizes, so nearby labels get similar vectors.  Its sketches'
bases come from the Gram matrix at `_GRAM_BASIS_ASPECT` rows per column or
more (eigenvalues at most 1e-12 of the largest dropped), else from QR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .data import Corpus, doc_labels
from .errors import ValidationError, check_int

_GRAM_BASIS_ASPECT = 4  # rows per column from which a Gram basis beats QR: the measured break-even


@dataclass(frozen=True)
class LabelGraph:
    """Undirected weighted graph over label ids 0..k-1, no self-loops, as read-only CSR.

    Row i's neighbours are `indices[indptr[i]:indptr[i + 1]]`, sorted by
    id, with their `weights`.
    """

    k: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def build_cooccurrence_graph(corpus: Corpus, k: int) -> LabelGraph:
    """Edge (i, j) weighted by the number of documents containing both labels."""
    check_int("k", k, 1)
    keys = [a * k + b for doc in corpus for a, b in permutations(doc_labels(doc, k), 2)]
    keys, weights = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
    csr = np.searchsorted(keys, np.arange(k + 1) * k), keys % k, weights
    for a in csr:
        a.flags.writeable = False
    return LabelGraph(k, *csr)


@dataclass
class WalkConfig:
    walk_length: int = 40
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, low in (("walk_length", 1), ("walks_per_node", 1), ("seed", 0)):
            setattr(self, name, check_int(name, getattr(self, name), low))


def sample_walks(graph: LabelGraph, config: WalkConfig) -> np.ndarray:
    """Weight-proportional walks of walk_length nodes, walks_per_node from each label with an edge.

    One walk a row of an int64 array, grouped by start label in id order; an
    isolated label starts no walk, so an edgeless graph gives (0, walk_length).
    From cur v the next node x has probability w(v,x) / sum of v's weights,
    node2vec's walk at p = q = 1.  Every walk takes each step at once under
    one generator seeded with config.seed: one draw from a cumulative-weight
    array over all rows.
    """
    rng = np.random.default_rng(config.seed)
    starts = np.repeat(np.flatnonzero(np.diff(graph.indptr)), config.walks_per_node)
    steps = np.empty((starts.size, config.walk_length), dtype=np.int64)
    steps[:, 0] = starts
    cum = np.concatenate([[0.0], np.cumsum(graph.weights, dtype=np.float64)])
    for s in range(1, config.walk_length):
        cur = steps[:, s - 1]
        steps[:, s] = graph.indices[_inverse_cdf(cum, graph.indptr[cur], graph.indptr[cur + 1], rng)]
    return steps


def _inverse_cdf(cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, rng) -> np.ndarray:
    """Per row, an entry in [lo, hi) drawn by weight; cum is the running total from 0."""
    u = cum[lo] + rng.random(lo.size) * (cum[hi] - cum[lo])
    return np.clip(np.searchsorted(cum, u, side="right") - 1, lo, hi - 1)


@dataclass
class LabelEmbedding:
    """Dense label vectors as columns: matrix of shape (r, k)."""

    vectors: np.ndarray


def train_skipgram(walks: np.ndarray, k: int, r: int, window: int = 5, negatives: int = 5,
                   epochs: int = 5, seed: int = 0) -> LabelEmbedding:
    """Label vectors from a rank-r factorization of the walks' positive PMI matrix.

    `walks` holds a walk a row: a 2-D array of label ids in [0, k), or what
    `np.asarray` makes one of.  Skip-gram implicitly factorizes this matrix
    (Levy & Goldberg, NeurIPS 2014; Qiu et al., WSDM 2018).  Nodes at most
    `window` apart in a walk pair up both ways; over the m labels in a
    pair, M[w, c] = max(log(#(w,c) / (#w * P(c))), 0), with P the pair
    counts raised to 0.75 and normalized (Levy, Goldberg & Dagan, TACL
    2015).  The vectors are U S^1/2 from a randomized SVD of M (Halko,
    Martinsson & Tropp, SIAM Review 2011) with min(r + 10, m) columns and
    `epochs - 1` power iterations, 0 past M's numerical rank, each column
    of U signed so that its largest entry is positive; a tall sketch's
    basis is from its Gram matrix, another's from QR (`_basis`).
    `negatives` is unused: a log(negatives) shift empties M on small
    graphs.  Labels in no pair keep their seeded random init, which
    epochs=0, zero rows or one column return unchanged.
    """
    for name, value, low in (("k", k, 1), ("r", r, 1), ("window", window, 1),
                             ("negatives", negatives, 0), ("epochs", epochs, 0), ("seed", seed, 0)):
        check_int(name, value, low)
    try:
        walks = np.asarray(walks)
    except ValueError as err:  # ragged rows, or a node that is a sequence
        raise ValidationError(f"walks must be equal-length rows of label ids: {err}") from None
    if walks.ndim != 2 or walks.shape[1] == 0 or walks.dtype.kind not in "iu":
        raise ValidationError(f"walks must be rows of integer label ids, one or more a row, got "
                              f"{walks.dtype} of shape {walks.shape}")
    outside = walks[(walks < 0) | (walks >= k)]
    if outside.size:
        raise ValidationError(f"walk node {outside[0]} outside label range [0,{k})")

    rng = np.random.default_rng(seed)
    vectors = (rng.random((k, r)) - 0.5) / r
    if epochs == 0 or walks.shape[0] == 0 or walks.shape[1] == 1:  # untrained, or no pair
        return LabelEmbedding(vectors=vectors.T)  # column-major, as the model reads it
    walks = walks.astype(np.int32 if k * k < 2**31 else np.int64)  # keys center * k + context
    pairs = []
    for offset in range(1, min(window, walks.shape[1] - 1) + 1):
        head, tail = walks[:, :-offset], walks[:, offset:]
        pairs += [(head * k + tail).ravel(), (tail * k + head).ravel()]
    keys, counts = np.unique(np.concatenate(pairs), return_counts=True)
    labels = np.flatnonzero(np.bincount(keys // k))
    omega = rng.standard_normal((labels.size, min(r + 10, labels.size)))
    rows, cols = np.searchsorted(labels, keys // k), np.searchsorted(labels, keys % k)
    # pairs are symmetric: #w is also w's context count, and M^T has M's entry positions
    total = np.bincount(rows, weights=counts, minlength=labels.size)
    smooth = total ** 0.75 / (total ** 0.75).sum()
    mat = rows, cols, np.maximum(np.log(counts / (total[rows] * smooth[cols])), 0)
    mat_t = rows, cols, np.maximum(np.log(counts / (total[cols] * smooth[rows])), 0)
    basis = _basis(_sparse_times(*mat, omega))
    for _ in range(epochs - 1):
        basis = _basis(_sparse_times(*mat, _basis(_sparse_times(*mat_t, basis))))
    bt = _sparse_times(*mat_t, basis)  # (basis^T M)^T
    evals, u = np.linalg.eigh(bt.T @ bt)
    evals, u = evals[:-r - 1:-1], basis @ u[:, :-r - 1:-1]  # the top r, largest first
    # a singular vector's sign is arbitrary and training follows it: fix it, not LAPACK's pick
    u *= np.sign(u[np.abs(u).argmax(axis=0), np.arange(evals.size)])
    u *= np.where(evals > 1e-12 * evals[:1], evals, 0) ** 0.25  # S^1/2, 0 past M's rank
    vectors[labels, :evals.size], vectors[labels, evals.size:] = u, 0
    return LabelEmbedding(vectors=vectors.T)


def _basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of y's range: for m >= _GRAM_BASIS_ASPECT c, y V L^-1/2 from y^T y =
    V L V^T over eigenvalues above 1e-12 L_max (the rest are rounding noise), else QR's."""
    if y.shape[0] < _GRAM_BASIS_ASPECT * y.shape[1]:
        return np.linalg.qr(y)[0]
    evals, v = np.linalg.eigh(y.T @ y)
    keep = evals > 1e-12 * evals[-1]
    return y @ (v[:, keep] / np.sqrt(evals[keep]))


def _sparse_times(rows, cols, vals, x: np.ndarray) -> np.ndarray:
    """Sparse square matrix (sorted by row) times x: 128-row blocks, dense over used columns."""
    out, n = np.empty(x.shape), x.shape[0]
    bounds = np.searchsorted(rows, np.arange(0, n + 128, 128))
    for top, lo, hi in zip(range(0, n, 128), bounds[:-1], bounds[1:]):
        used = np.flatnonzero(seen := np.bincount(cols[lo:hi], minlength=n) > 0)
        block = np.zeros((min(128, n - top), used.size))
        block[rows[lo:hi] - top, np.cumsum(seen)[cols[lo:hi]] - 1] = vals[lo:hi]
        out[top:top + 128] = block @ x[used]
    return out
