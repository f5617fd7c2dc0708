from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from extra_ops import skipgram_oracle
from laha.data import Document
from laha.errors import ValidationError
from laha.labelgraph import (
    _GRAM_BASIS_ASPECT,
    WalkConfig,
    _basis,
    build_cooccurrence_graph,
    sample_walks,
    train_skipgram,
)
from laha.metrics import label_frequencies


def _doc(i, labels):
    return Document(doc_id=f"d{i}", tokens=["x"], labels=set(labels))


def _dense(graph):
    """The k x k weight matrix of a graph, built from its CSR arrays; 0 where no edge."""
    adj = np.zeros((graph.k, graph.k), dtype=np.int64)
    adj[np.repeat(np.arange(graph.k), np.diff(graph.indptr)), graph.indices] = graph.weights
    return adj


def test_cooccurrence_shared_document_edges():
    adj = _dense(build_cooccurrence_graph([_doc(0, {1, 2}), _doc(1, {2, 3})], k=4))
    assert adj[1, 2] == 1
    assert adj[2, 3] == 1
    assert adj[1, 3] == 0


def test_cooccurrence_weight_counts_documents():
    graph = build_cooccurrence_graph([_doc(0, {1, 2}), _doc(1, {1, 2})], k=3)
    assert _dense(graph)[1, 2] == 2


def test_cooccurrence_single_label_docs_no_edges():
    graph = build_cooccurrence_graph([_doc(i, {i}) for i in range(4)], k=4)
    assert graph.indptr.tolist() == [0, 0, 0, 0, 0]  # no edge: every label isolated


def test_cooccurrence_label_out_of_range():
    with pytest.raises(ValidationError):
        build_cooccurrence_graph([_doc(0, {0, 5})], k=3)


def test_cooccurrence_negative_label_rejected():
    with pytest.raises(ValidationError):
        build_cooccurrence_graph([_doc(0, {-1, 2})], k=4)


@pytest.mark.parametrize("labels", [{1.5}, {True, 2}, {"a", 1}],
                         ids=["float label", "bool label", "string label"])
@pytest.mark.parametrize("count", [build_cooccurrence_graph, label_frequencies])
def test_non_integer_labels_raise_validation_error(count, labels):
    with pytest.raises(ValidationError, match="integer"):
        count([_doc(0, {0, 1}), _doc(1, labels)], 4)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cooccurrence_matches_brute_force_document_counts(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 25))
    docs = [_doc(i, rng.choice(k, size=int(rng.integers(1, min(k, 6) + 1)), replace=False).tolist())
            for i in range(int(rng.integers(0, 80)))]
    graph = build_cooccurrence_graph(docs, k)
    adj = _dense(graph)
    for a in range(k):
        for b in range(k):
            assert adj[a, b] == (a != b) * sum({a, b} <= doc.labels for doc in docs)
    assert not np.diag(adj).any()
    assert all((np.diff(graph.indices[lo:hi]) > 0).all()
               for lo, hi in zip(graph.indptr[:-1], graph.indptr[1:]))
    assert [a.dtype for a in (graph.indptr, graph.indices, graph.weights)] == [np.int64] * 3


def test_graph_symmetry_and_no_self_loops():
    rng = np.random.default_rng(0)
    docs = []
    for i in range(40):
        n = int(rng.integers(1, 4))
        docs.append(_doc(i, set(rng.choice(10, size=n, replace=False).tolist())))
    graph = build_cooccurrence_graph(docs, k=10)
    adj = _dense(graph)
    np.testing.assert_array_equal(adj, adj.T)
    assert not np.diag(adj).any()
    assert (graph.weights >= 1).all()
    # every row's neighbours are sorted by id
    assert all((np.diff(graph.indices[lo:hi]) > 0).all()
               for lo, hi in zip(graph.indptr[:-1], graph.indptr[1:]))


def _graph(k, edges):
    """The co-occurrence graph of w documents labelled {i, j} for each (i, j, w) edge."""
    return build_cooccurrence_graph(
        [_doc(n, {i, j}) for n, (i, j, w) in enumerate(edges) for _ in range(w)], k)


def _weighted_5_node():
    return _graph(5, [(0, 1, 3), (0, 2, 1), (1, 2, 2), (2, 3, 4), (3, 4, 1), (1, 4, 2)])


def test_graph_duplicate_edges_sum_weights():
    g = build_cooccurrence_graph([_doc(i, {0, 1}) for i in range(6)] + [_doc(6, {2, 3})], k=4)
    adj = _dense(g)
    assert adj[0, 1] == adj[1, 0] == 6
    assert g.indptr.tolist() == [0, 1, 2, 3, 4]
    assert g.indices.tolist() == [1, 0, 3, 2]
    assert g.weights.tolist() == [6, 6, 1, 1]
    assert np.count_nonzero(adj) == 4 and adj[0, 2] == 0


def test_walks_start_everywhere_and_deterministic():
    g = _weighted_5_node()
    cfg = WalkConfig(walk_length=10, walks_per_node=3, seed=9)
    walks1 = sample_walks(g, cfg)
    walks2 = sample_walks(g, cfg)
    assert np.array_equal(walks1, walks2)
    assert walks1.shape == (15, 10) and walks1.dtype == np.int64
    assert Counter(walks1[:, 0].tolist()) == {i: 3 for i in range(5)}
    # walk_length counts nodes, the start included
    one = sample_walks(g, WalkConfig(walk_length=1, walks_per_node=3, seed=9))
    assert one.tolist() == [[i] for i in range(5) for _ in range(3)]


def test_walks_of_a_fixed_seed_are_pinned():
    # a change to the step that re-draws the walks re-draws the label vectors
    # and every model trained on them
    walks = sample_walks(_weighted_5_node(), WalkConfig(walk_length=6, walks_per_node=2, seed=9))
    assert walks.tolist() == [
        [0, 2, 3, 2, 1, 0], [0, 1, 0, 2, 3, 2], [1, 2, 0, 2, 3, 2], [1, 4, 3, 4, 3, 2],
        [2, 3, 4, 3, 2, 3], [2, 3, 2, 3, 2, 3], [3, 4, 1, 2, 0, 1], [3, 4, 3, 2, 3, 2],
        [4, 1, 0, 2, 0, 1], [4, 1, 4, 1, 0, 1],
    ]


def test_isolated_label_starts_no_walk():
    g = _graph(3, [(0, 1, 1)])
    cfg = WalkConfig(walk_length=10, walks_per_node=2, seed=1)
    walks = sample_walks(g, cfg)
    assert walks.shape == (4, 10)
    assert 2 not in walks[:, 0]


def test_edgeless_graph_gives_no_walk_and_the_seeded_init():
    g = build_cooccurrence_graph([_doc(0, {1}), _doc(1, {2})], k=3)
    walks = sample_walks(g, WalkConfig(walk_length=7, walks_per_node=2, seed=1))
    assert walks.shape == (0, 7) and walks.dtype == np.int64
    np.testing.assert_array_equal(train_skipgram(walks, k=3, r=2, epochs=2, seed=4).vectors,
                                  train_skipgram(walks, k=3, r=2, epochs=0, seed=4).vectors)


def test_transition_frequencies_follow_edge_weights():
    g = _weighted_5_node()
    cfg = WalkConfig(walk_length=50, walks_per_node=450, seed=3)
    walks = sample_walks(g, cfg)
    trans = Counter()
    outgoing = Counter()
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            trans[(a, b)] += 1
            outgoing[a] += 1
    assert sum(outgoing.values()) >= 10**5
    adj = _dense(g)
    for node in range(5):
        for nxt in np.flatnonzero(adj[node]).tolist():
            expected = adj[node, nxt] / adj[node].sum()
            observed = trans[(node, nxt)] / outgoing[node]
            assert abs(observed - expected) <= 0.02


def test_chi_square_later_steps_match_first_order():
    g = _weighted_5_node()
    cfg = WalkConfig(walk_length=50, walks_per_node=120, seed=3)
    walks = sample_walks(g, cfg)
    trans = Counter()
    outgoing = Counter()
    for walk in walks:
        # steps after the first: the walk keeps no memory, so they follow the weights too
        for a, b in zip(walk[1:], walk[2:]):
            trans[(a, b)] += 1
            outgoing[a] += 1
    adj = _dense(g)
    for node in range(5):
        nbrs = np.flatnonzero(adj[node])
        if len(nbrs) < 2:
            continue
        observed = np.array([trans[(node, nxt)] for nxt in nbrs.tolist()], dtype=float)
        expected = adj[node, nbrs] / adj[node].sum() * observed.sum()
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = stats.chi2.sf(chi2, df=len(nbrs) - 1)
        assert p_value > 0.01


def test_skipgram_output_shape():
    g = _weighted_5_node()
    walks = sample_walks(g, WalkConfig(walk_length=10, walks_per_node=3, seed=0))
    emb = train_skipgram(walks, k=5, r=7, epochs=1, seed=1)
    assert emb.vectors.shape == (7, 5)
    assert np.isfinite(emb.vectors).all()


def test_skipgram_zero_epochs_returns_seeded_init():
    g = _weighted_5_node()
    walks = sample_walks(g, WalkConfig(seed=0))
    init1 = train_skipgram(walks, k=5, r=4, epochs=0, seed=5)
    init2 = train_skipgram(walks, k=5, r=4, epochs=0, seed=5)
    np.testing.assert_array_equal(init1.vectors, init2.vectors)
    trained = train_skipgram(walks, k=5, r=4, epochs=2, seed=5)
    assert not np.array_equal(init1.vectors, trained.vectors)


def test_skipgram_deterministic():
    g = _weighted_5_node()
    walks = sample_walks(g, WalkConfig(seed=2))
    e1 = train_skipgram(walks, k=5, r=6, epochs=3, seed=11)
    e2 = train_skipgram(walks, k=5, r=6, epochs=3, seed=11)
    np.testing.assert_array_equal(e1.vectors, e2.vectors)


def test_skipgram_no_walks_errors():
    with pytest.raises(ValidationError):
        train_skipgram([], k=3, r=2)


@pytest.mark.parametrize("walks", [[[]], [[0, 1], []], [[0, 1.5]], [[0, 1], [2.0]], [[0, [1]]],
                                   [0, 1], [[0, 1], 2], [[[0, 1], [1, 2]]], [[[0, 1]]],
                                   [[0, 1], [2]]])
def test_skipgram_malformed_walks_raise_validation_error(walks):
    with pytest.raises(ValidationError):
        train_skipgram(walks, k=3, r=2)


def test_skipgram_takes_equal_length_walks_as_a_2d_array():
    walks = [[0, 1, 2, 1], [2, 1, 0, 1], [1, 0, 1, 2]]
    got = train_skipgram(np.array(walks), k=3, r=2, window=2, epochs=2, seed=3).vectors
    np.testing.assert_array_equal(
        got, train_skipgram(walks, k=3, r=2, window=2, epochs=2, seed=3).vectors)


@pytest.mark.parametrize("node", [3, 7])
def test_skipgram_rejects_a_walk_node_past_the_label_count(node):
    with pytest.raises(ValidationError, match=f"walk node {node} outside label range"):
        train_skipgram([[0, 1, 1], [2, node, 1]], k=3, r=2)


def _ppmi_oracle(walks, window):
    """Labels in a pair and their dense PPMI matrix, from loops over each walk's pairs."""
    pairs = Counter()
    for walk in walks:
        for i in range(len(walk)):
            for j in range(i + 1, min(len(walk), i + window + 1)):
                pairs[walk[i], walk[j]] += 1
                pairs[walk[j], walk[i]] += 1
    labels = sorted({w for w, _ in pairs})
    count = np.zeros((len(labels), len(labels)))
    for (w, c), n in pairs.items():
        count[labels.index(w), labels.index(c)] = n
    smooth = count.sum(axis=0) ** 0.75
    with np.errstate(divide="ignore"):
        pmi = np.log(count / count.sum(axis=1, keepdims=True) / (smooth / smooth.sum()))
    return labels, np.maximum(pmi, 0)


def _star_forest(sizes):
    """One star per entry of `sizes`, that many leaves round a centre: 1 + leaves labels each."""
    edges, centre = [], 0
    for leaves in sizes:
        edges += [(centre, centre + j, 1) for j in range(1, leaves + 1)]
        centre += leaves + 1
    return _graph(centre, edges)


def _random_graph(k, edges, seed):
    """A co-occurrence graph of `edges` draws of two labels, weights 1-3, self-pairs dropped."""
    rng = np.random.default_rng(seed)
    a, b, w = rng.integers(0, k, edges), rng.integers(0, k, edges), rng.integers(1, 4, edges)
    return _graph(k, [(int(i), int(j), int(n)) for i, j, n in zip(a, b, w) if i != j])


# Window 1 pairs each leaf with its centre alone, so a star's leaves share one context: M has
# rank 2 a star.  With r = 20 the sketches have 30 columns and 180 or 190 rows, so they take
# the Gram basis: 15 stars fill the sketch's rank, 10 leave 10 null directions.
STAR_CASES = [
    pytest.param(sample_walks(_star_forest(sizes), WalkConfig(walk_length=6, walks_per_node=2,
                                                              seed=3)),
                 sum(sizes) + len(sizes), 20, 1, epochs, id=f"{name}-gram-basis-{epochs}-epochs")
    for name, sizes in (("stars-full-rank", range(4, 19)), ("stars-rank-deficient", [18] * 10))
    for epochs in (1, 3)
]


@pytest.mark.parametrize("walks, k, r, window, epochs", [
    *STAR_CASES,
    pytest.param(sample_walks(_weighted_5_node(),
                              WalkConfig(walk_length=8, walks_per_node=3, seed=1)),
                 5, 3, 2, 1, id="weighted-graph"),
    pytest.param(sample_walks(_graph(9, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1), (4, 5, 2),
                                         (5, 6, 1), (6, 4, 4), (2, 5, 1)]),
                              WalkConfig(walk_length=6, walks_per_node=2, seed=3)),
                 9, 4, 3, 3, id="isolated-labels-power-iterations"),
    pytest.param([[0, 1, 2, 0, 1]], 6, 5, 1, 2, id="revisits-fewer-labels-than-r"),
    pytest.param([[4, 2, 4, 4]], 5, 2, 2, 1, id="revisits-itself-next-to-itself"),
    pytest.param([[0, 1], [2, 1]], 4, 3, 1, 1, id="rank-below-labels-in-a-pair"),
    pytest.param([[0], [2], [1]], 3, 2, 4, 2, id="all-singleton-walks"),
])
def test_skipgram_matches_dense_ppmi_svd_oracle(walks, k, r, window, epochs):
    got = train_skipgram(walks, k=k, r=r, window=window, epochs=epochs, seed=9).vectors
    init = train_skipgram(walks, k=k, r=r, window=window, epochs=0, seed=9).vectors
    labels, ppmi = _ppmi_oracle(walks, window)
    rank = np.linalg.matrix_rank(ppmi)
    assert min(len(labels), rank) <= r + 10  # the sketch spans all of M, so the result is exact
    u, s, _ = np.linalg.svd(ppmi)
    assert s.size <= r or s[r - 1] > s[r] * (1 + 1e-6)  # rank r is well defined
    np.testing.assert_allclose(got[:, labels].T @ got[:, labels],
                               (u[:, :r] * s[:r]) @ u[:, :r].T, rtol=0, atol=1e-10)
    assert (got[rank:, labels] == 0).all()
    coords = got[:, labels]  # each coordinate's largest entry over the labels is positive
    assert not labels or (coords[np.arange(r), np.abs(coords).argmax(axis=1)] >= 0).all()
    others = [c for c in range(k) if c not in labels]
    np.testing.assert_array_equal(got[:, others], init[:, others])
    np.testing.assert_array_equal(
        got, train_skipgram(walks, k=k, r=r, window=window, negatives=0, epochs=epochs,
                            seed=9).vectors)


@pytest.mark.parametrize("walks, k, r, window, epochs", [
    pytest.param(sample_walks(_weighted_5_node(), WalkConfig(seed=0)), 5, 4, 5, epochs,
                 id=f"weighted-graph-{epochs}-epochs") for epochs in (0, 1, 3)
] + [
    pytest.param([[0, 1, 2, 0, 1]], 6, 5, 1, 2, id="revisits-fewer-labels-than-r"),
    pytest.param([[0], [2], [1]], 3, 2, 4, 2, id="all-singleton-walks"),
    pytest.param(sample_walks(_random_graph(54, 200, 11), WalkConfig(walk_length=10,
                                                                     walks_per_node=2, seed=11)),
                 54, 32, 3, 1, id="aapd-quality-sized"),
    pytest.param(sample_walks(_random_graph(119, 400, 5), WalkConfig(walk_length=6, seed=5)),
                 119, 20, 2, 3, id="one-row-short-of-the-gram-basis"),
] + [
    pytest.param(sample_walks(_star_forest([12] * 8), WalkConfig(walk_length=8, seed=7)),
                 104, 94, 2, epochs, id=f"square-sketch-{epochs}-epochs") for epochs in (1, 5)
])
def test_skipgram_below_the_break_even_is_bit_identical_to_the_qr_oracle(walks, k, r, window,
                                                                          epochs):
    labels = np.unique(np.concatenate(walks))
    assert labels.size < _GRAM_BASIS_ASPECT * min(r + 10, labels.size)
    np.testing.assert_array_equal(
        train_skipgram(walks, k=k, r=r, window=window, epochs=epochs, seed=4).vectors,
        skipgram_oracle(walks, k=k, r=r, window=window, epochs=epochs, seed=4))


def _refuse(*args, **kwargs):
    raise AssertionError("the other basis ran")


@pytest.mark.parametrize("k, r, edges, epochs", [(600, 100, 3000, 1), (600, 100, 3000, 3),
                                                 (1200, 256, 6000, 1)])
def test_skipgram_above_the_break_even_stays_within_1e_10_of_the_qr_oracle(monkeypatch, k, r,
                                                                           edges, epochs):
    walks = sample_walks(_random_graph(k, edges, k + epochs),
                         WalkConfig(walk_length=5, walks_per_node=2, seed=epochs))
    want = skipgram_oracle(walks, k=k, r=r, window=2, epochs=epochs, seed=epochs)
    monkeypatch.setattr(np.linalg, "qr", _refuse)  # every sketch takes the Gram basis
    got = train_skipgram(walks, k=k, r=r, window=2, epochs=epochs, seed=epochs).vectors
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert ((got * want).sum(axis=1) > 0).all()  # no coordinate's sign flips


@pytest.mark.parametrize("m, c, gram", [(54, 42, False), (2731, 266, True), (119, 30, False),
                                        (120, 30, True), (266, 266, False)])
def test_basis_takes_qr_below_the_break_even_and_the_gram_matrix_from_it(monkeypatch, m, c,
                                                                          gram):
    y = np.random.default_rng(m + c).standard_normal((m, c))
    monkeypatch.setattr(np.linalg, "qr" if gram else "eigh", _refuse)
    q = _basis(y)
    np.testing.assert_allclose(q.T @ q, np.eye(c), rtol=0, atol=1e-12)
    np.testing.assert_allclose(q @ (q.T @ y), y, rtol=0, atol=1e-12 * np.abs(y).max())


def test_gram_basis_drops_the_null_directions_of_a_rank_deficient_sketch():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((190, 20)) @ rng.standard_normal((20, 30))
    q = _basis(y)
    assert q.shape == (190, 20)
    np.testing.assert_allclose(q.T @ q, np.eye(20), rtol=0, atol=1e-12)
    np.testing.assert_allclose(q @ (q.T @ y), y, rtol=0, atol=1e-12 * np.abs(y).max())


def _link_auc(vectors, edges, non_edges):
    unit = vectors / np.linalg.norm(vectors, axis=0)
    pos = np.array([unit[:, i] @ unit[:, j] for i, j in edges])
    neg = np.array([unit[:, i] @ unit[:, j] for i, j in non_edges])
    return float(np.mean((pos[:, None] > neg) + 0.5 * (pos[:, None] == neg)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("epochs", [1, 5])
def test_skipgram_ranks_planted_cluster_edges_above_non_edges(seed, epochs):
    rng = np.random.default_rng(seed)
    members = np.arange(48).reshape(8, 6)
    edges = {(int(a), int(b)) for c in members for a, b in combinations(c, 2)}
    while len(edges) < 8 * 15 + 10:
        a, b = sorted(rng.choice(48, size=2, replace=False).tolist())
        if a // 6 != b // 6:
            edges.add((a, b))
    non_edges = [pair for pair in combinations(range(48), 2) if pair not in edges]
    edges = sorted(edges)
    non_edges = [non_edges[i] for i in rng.choice(len(non_edges), len(edges), replace=False)]
    walks = sample_walks(_graph(48, [(a, b, 1) for a, b in edges]), WalkConfig(seed=seed))
    vectors = train_skipgram(walks, k=48, r=8, epochs=epochs, seed=seed).vectors
    assert _link_auc(vectors, edges, non_edges) >= 0.95


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_skipgram_separates_disconnected_cliques():
    g = _graph(6, [(c + i, c + j, 3) for c in (0, 3) for i in range(3) for j in range(i + 1, 3)])
    walks = sample_walks(g, WalkConfig(walk_length=20, walks_per_node=20, seed=4))
    emb = train_skipgram(walks, k=6, r=8, epochs=10, seed=4).vectors
    intra, inter = [], []
    for i in range(6):
        for j in range(i + 1, 6):
            sim = _cosine(emb[:, i], emb[:, j])
            (intra if (i < 3) == (j < 3) else inter).append(sim)
    assert np.mean(intra) > np.mean(inter)


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(walk_length=0)


def test_walk_config_keeps_numpy_integers_as_plain_ints():
    cfg = WalkConfig(walk_length=np.int64(5), walks_per_node=np.int32(2), seed=np.uint8(1))
    assert (cfg.walk_length, cfg.walks_per_node, cfg.seed) == (5, 2, 1)
    assert {type(value) for value in vars(cfg).values()} == {int}


@pytest.mark.parametrize("fields", [
    {"walk_length": "40"}, {"walks_per_node": 0}, {"seed": -1}, {"walk_length": 2.5},
    {"walks_per_node": True}, {"seed": 1.5},
])
def test_walk_config_rejects_malformed_values(fields):
    with pytest.raises(ValidationError):
        WalkConfig(**fields)


@pytest.mark.parametrize("fields", [
    {"k": 2.0}, {"k": 0}, {"r": 2.5}, {"r": 0}, {"window": "2"}, {"window": 0},
    {"negatives": -1}, {"epochs": 1.0}, {"epochs": -1}, {"seed": -1}, {"seed": None},
    {"seed": True},
])
def test_skipgram_rejects_malformed_arguments(fields):
    args = {"k": 3, "r": 2, "window": 1, "negatives": 0, "epochs": 1, "seed": 0, **fields}
    with pytest.raises(ValidationError):
        train_skipgram([[0, 1, 2]], **args)
