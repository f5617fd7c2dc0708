from collections import Counter

import numpy as np
import pytest
from scipy import stats

from laha.data import Document
from laha.errors import DataFormatError, ValidationError
from laha.labelgraph import (
    LabelEmbedding,
    LabelGraph,
    WalkConfig,
    build_cooccurrence_graph,
    load_embedding,
    sample_walks,
    save_embedding,
    train_skipgram,
)


def _doc(i, labels):
    return Document(doc_id=f"d{i}", tokens=["x"], labels=set(labels))


def test_cooccurrence_shared_document_edges():
    graph = build_cooccurrence_graph([_doc(0, {1, 2}), _doc(1, {2, 3})], k=4)
    assert graph.weight(1, 2) == 1
    assert graph.weight(2, 3) == 1
    assert not graph.has_edge(1, 3)


def test_cooccurrence_weight_counts_documents():
    graph = build_cooccurrence_graph([_doc(0, {1, 2}), _doc(1, {1, 2})], k=3)
    assert graph.weight(1, 2) == 2


def test_cooccurrence_single_label_docs_no_edges():
    graph = build_cooccurrence_graph([_doc(i, {i}) for i in range(4)], k=4)
    assert graph.num_edges == 0
    assert graph.isolated == [0, 1, 2, 3]


def test_cooccurrence_label_out_of_range():
    with pytest.raises(ValidationError):
        build_cooccurrence_graph([_doc(0, {0, 5})], k=3)


def test_cooccurrence_negative_label_rejected():
    with pytest.raises(ValidationError):
        build_cooccurrence_graph([_doc(0, {-1, 2})], k=4)


def test_graph_symmetry_and_no_self_loops():
    rng = np.random.default_rng(0)
    docs = []
    for i in range(40):
        n = int(rng.integers(1, 4))
        docs.append(_doc(i, set(rng.choice(10, size=n, replace=False).tolist())))
    graph = build_cooccurrence_graph(docs, k=10)
    for i in range(10):
        assert not graph.has_edge(i, i)
        for j, w in graph.neighbors(i):
            assert graph.weight(j, i) == w
            assert w >= 1


def _path_graph():
    g = LabelGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def _weighted_5_node():
    g = LabelGraph(5)
    g.add_edge(0, 1, 3)
    g.add_edge(0, 2, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(2, 3, 4)
    g.add_edge(3, 4, 1)
    g.add_edge(1, 4, 2)
    return g


def test_walks_start_everywhere_and_deterministic():
    g = _weighted_5_node()
    cfg = WalkConfig(walk_length=10, walks_per_node=3, seed=9)
    walks1 = sample_walks(g, cfg)
    walks2 = sample_walks(g, cfg)
    assert walks1 == walks2
    assert len(walks1) == 15
    assert Counter(w[0] for w in walks1) == {i: 3 for i in range(5)}


def test_isolated_node_walk_is_singleton():
    g = LabelGraph(3)
    g.add_edge(0, 1)
    cfg = WalkConfig(walk_length=10, walks_per_node=2, seed=1)
    walks = sample_walks(g, cfg)
    assert [2] in walks
    for w in walks:
        if w[0] == 2:
            assert w == [2]


def test_first_order_transition_frequencies_p_q_1():
    # with p = q = 1 every step is plain weight-proportional
    g = _weighted_5_node()
    cfg = WalkConfig(p=1.0, q=1.0, walk_length=50, walks_per_node=450, seed=3)
    walks = sample_walks(g, cfg)
    trans = Counter()
    outgoing = Counter()
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            trans[(a, b)] += 1
            outgoing[a] += 1
    assert sum(outgoing.values()) >= 10**5
    for node in range(5):
        nbrs = g.neighbors(node)
        total_w = sum(w for _, w in nbrs)
        for nxt, w in nbrs:
            expected = w / total_w
            observed = trans[(node, nxt)] / outgoing[node]
            assert abs(observed - expected) <= 0.02


def test_chi_square_second_order_matches_first_order():
    g = _weighted_5_node()
    cfg = WalkConfig(p=1.0, q=1.0, walk_length=50, walks_per_node=120, seed=3)
    walks = sample_walks(g, cfg)
    trans = Counter()
    outgoing = Counter()
    for walk in walks:
        # skip the first step: it is first-order by construction either way
        for a, b in zip(walk[1:], walk[2:]):
            trans[(a, b)] += 1
            outgoing[a] += 1
    for node in range(5):
        nbrs = g.neighbors(node)
        if len(nbrs) < 2:
            continue
        total_w = sum(w for _, w in nbrs)
        observed = np.array([trans[(node, nxt)] for nxt, _ in nbrs], dtype=float)
        expected = np.array([w / total_w for _, w in nbrs]) * observed.sum()
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = stats.chi2.sf(chi2, df=len(nbrs) - 1)
        assert p_value > 0.01


def test_huge_q_returns_to_previous_node():
    g = _path_graph()
    cfg = WalkConfig(p=1.0, q=1e9, walk_length=3, walks_per_node=5000, seed=17)
    walks = [w for w in sample_walks(g, cfg) if w[0] == 0]
    # from 0 the only step is to 1; with q -> inf the walk bounces back
    returns = sum(1 for w in walks if len(w) == 3 and w[2] == 0)
    assert returns / len(walks) >= 0.999


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


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_skipgram_separates_disconnected_cliques():
    g = LabelGraph(6)
    for clique in ([0, 1, 2], [3, 4, 5]):
        for i in range(3):
            for j in range(i + 1, 3):
                g.add_edge(clique[i], clique[j], 3)
    walks = sample_walks(g, WalkConfig(walk_length=20, walks_per_node=20, seed=4))
    emb = train_skipgram(walks, k=6, r=8, epochs=10, seed=4).vectors
    intra, inter = [], []
    for i in range(6):
        for j in range(i + 1, 6):
            sim = _cosine(emb[:, i], emb[:, j])
            (intra if (i < 3) == (j < 3) else inter).append(sim)
    assert np.mean(intra) > np.mean(inter)


def test_embedding_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(8)
    emb = LabelEmbedding(vectors=rng.normal(size=(5, 3)))
    path = tmp_path / "labels.emb"
    save_embedding(str(path), emb)
    loaded = load_embedding(str(path))
    np.testing.assert_array_equal(loaded.vectors, emb.vectors)
    assert loaded.r == 5 and loaded.k == 3


def test_embedding_roundtrip_single_label(tmp_path):
    emb = LabelEmbedding(vectors=np.array([[0.1], [0.2]]))
    path = tmp_path / "one.emb"
    save_embedding(str(path), emb)
    loaded = load_embedding(str(path))
    np.testing.assert_array_equal(loaded.vectors, emb.vectors)


def test_embedding_truncated_file(tmp_path):
    rng = np.random.default_rng(8)
    emb = LabelEmbedding(vectors=rng.normal(size=(4, 3)))
    path = tmp_path / "labels.emb"
    save_embedding(str(path), emb)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(DataFormatError):
        load_embedding(str(path))


def test_embedding_header_mismatch(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_text("3\n0.0 0.0 0.0\n")
    with pytest.raises(DataFormatError):
        load_embedding(str(path))


def test_embedding_non_finite_rejected_with_line(tmp_path):
    path = tmp_path / "bad.emb"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"2 2\n0.1 0.2\n0.3 {bad}\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_embedding(str(path))


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(p=0.0)
    with pytest.raises(ValidationError):
        WalkConfig(walk_length=0)
