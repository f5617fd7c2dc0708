import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laha import numeric as nm
from laha.errors import NumericalError, ShapeError, ValidationError
from laha.model import (
    ForwardTrace,
    ModelConfig,
    bilstm_forward,
    export_attention,
    forward,
    forward_batch,
    fuse,
    init_params,
    interaction_attention,
    param_table,
    predict,
    self_attention,
    wrap_params,
)
from laha.numeric import Node
from laha.training import bce_loss

from extra_ops import bilstm_oracle


def _cfg(k=4, max_len=4, d=5, r=3, d_a=3):
    return ModelConfig(k=k, max_len=max_len, d=d, r=r, d_a=d_a)


def _params(cfg, vocab_size=9, seed=0):
    rng = np.random.default_rng(seed + 1000)
    emb = rng.uniform(-0.3, 0.3, size=(vocab_size, cfg.d))
    emb[0] = 0.0
    return init_params(cfg, emb, seed)


def _label_vectors(cfg, seed=0):
    return np.random.default_rng(seed + 2000).normal(size=(cfg.r, cfg.k))


def test_config_rejects_nonpositive():
    with pytest.raises(ValidationError):
        ModelConfig(k=0, max_len=4)


@pytest.mark.parametrize("fields", [
    {"k": 3, "max_len": 2.5}, {"k": True, "max_len": 3}, {"k": 3, "max_len": 3, "d": "8"},
    {"k": 3, "max_len": 3, "r": float("nan")},
])
def test_config_rejects_non_integer_fields(fields):
    with pytest.raises(ValidationError):
        ModelConfig(**fields)


def test_bilstm_zero_weights_zero_states():
    cfg = _cfg()
    r, d, n = cfg.r, cfg.d, 4
    zeros = lambda *s: Node(np.zeros(s))
    emb = Node(np.random.default_rng(0).normal(size=(d, n)))
    h = bilstm_forward(
        emb,
        zeros(4 * r, d), zeros(4 * r, r), zeros(4 * r, 1),
        zeros(4 * r, d), zeros(4 * r, r), zeros(4 * r, 1),
    )
    np.testing.assert_array_equal(h.value, np.zeros((2 * r, n)))


def test_bilstm_output_shape():
    cfg = _cfg()
    params = _params(cfg)
    pn = wrap_params(params)
    n = 6
    emb = Node(np.random.default_rng(1).normal(size=(cfg.d, n)))
    h = bilstm_forward(
        emb, pn["lstm_wx_f"], pn["lstm_wh_f"], pn["lstm_b_f"],
        pn["lstm_wx_b"], pn["lstm_wh_b"], pn["lstm_b_b"],
    )
    assert h.value.shape == (2 * cfg.r, n)


def test_lstm_single_step_scalar_oracle():
    # r = 1, d = 1, one token: with zero initial state the update is
    # c = sigmoid(wi*e + bi) * tanh(wg*e + bg); h = sigmoid(wo*e + bo) * tanh(c)
    e, wi, wf, wg, wo = 0.7, 0.3, -0.4, 0.9, 0.2
    bi, bf, bg, bo = 0.1, 0.2, -0.3, 0.05
    sig = lambda x: 1.0 / (1.0 + math.exp(-x))
    c_hand = sig(wi * e + bi) * math.tanh(wg * e + bg)
    h_hand = sig(wo * e + bo) * math.tanh(c_hand)

    wx = Node(np.array([[wi], [wf], [wg], [wo]]))
    wh = Node(np.zeros((4, 1)))
    b = Node(np.array([[bi], [bf], [bg], [bo]]))
    emb = Node(np.array([[e]]))
    h = bilstm_forward(emb, wx, wh, b, wx, wh, b)
    assert h.value[0, 0] == pytest.approx(h_hand, abs=1e-12)


def _reference_lstm(x, wx, wh, b):
    """Per-step LSTM in plain numpy: the oracle for each direction of `nm.bilstm`."""
    r = wh.shape[1]
    h, c = np.zeros((r, 1)), np.zeros((r, 1))
    out = []
    for t in range(x.shape[1]):
        z = (wx @ x[:, t : t + 1] + wh @ h) + b
        i, f, o = nm.sigmoid(z[:r]), nm.sigmoid(z[r : 2 * r]), nm.sigmoid(z[3 * r :])
        c = f * c + i * np.tanh(z[2 * r : 3 * r])
        h = o * np.tanh(c)
        out.append(h)
    return np.hstack(out)


@pytest.mark.parametrize("d, r, n", [(1, 1, 1), (5, 3, 4), (4, 2, 9), (300, 256, 20)])
def test_bilstm_matches_per_step_reference(d, r, n):
    rng = np.random.default_rng(d + r + n)
    x = rng.normal(size=(d, n))
    weights = []
    for _ in range(2):
        limit = math.sqrt(6.0 / (d + r))
        weights += [rng.uniform(-limit, limit, size=(4 * r, d)),
                    rng.uniform(-limit, limit, size=(4 * r, r)),
                    rng.normal(scale=0.5, size=(4 * r, 1))]
    h = bilstm_forward(Node(x), *map(Node, weights))
    ref_fwd = _reference_lstm(x, *weights[:3])
    ref_bwd = _reference_lstm(x[:, ::-1], *weights[3:])[:, ::-1]
    assert h.value.shape == (2 * r, n)
    np.testing.assert_allclose(h.value[:r], ref_fwd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h.value[r:], ref_bwd, rtol=0, atol=1e-12)


def test_bilstm_forward_hands_the_bilstm_node_itself_to_the_trace():
    # one document: H is the `nm.bilstm` node, and its trace reads it without a copy
    cfg = _cfg()
    built, bilstm = [], nm.bilstm

    def recording_bilstm(*args):
        built.append(bilstm(*args))
        return built[-1]

    with mock.patch.object(nm, "bilstm", recording_bilstm):
        trace = _forward(cfg, _params(cfg), _label_vectors(cfg), "laha")
    assert len(built) == 1 and trace.h is built[0]
    assert np.shares_memory(trace.h.value, built[0].value)


def test_forward_node_count_independent_of_max_len(monkeypatch):
    counts = []
    node_init = Node.__init__

    def counting_init(self, *args, **kwargs):
        counts[-1] += 1
        node_init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counting_init)
    for max_len in (4, 40):
        cfg = _cfg(max_len=max_len)
        counts.append(0)
        _forward(cfg, _params(cfg), _label_vectors(cfg), "laha")
    assert counts[0] == counts[1]


def test_self_attention_single_word():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    h = Node(np.random.default_rng(2).normal(size=(2 * cfg.r, 1)))
    attn = self_attention(h, pn["w_s1"], pn["w_s2"], [0, 2], np.array([True]))
    np.testing.assert_array_equal(attn.value, np.ones((1, 2)))
    ctx = h.value @ attn.value
    np.testing.assert_allclose(ctx, np.column_stack([h.value[:, 0]] * 2))


def test_self_attention_zero_scores_uniform():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    n = 5
    h = Node(np.random.default_rng(3).normal(size=(2 * cfg.r, n)))
    w_s2 = Node(np.zeros((cfg.k, cfg.d_a)))
    mask = np.array([True, True, True, True, False])
    attn = self_attention(h, pn["w_s1"], w_s2, [1], mask)
    np.testing.assert_allclose(attn.value[:4, 0], np.full(4, 0.25), atol=1e-15)
    assert attn.value[4, 0] == 0.0
    ctx = h.value @ attn.value
    np.testing.assert_allclose(ctx[:, 0], h.value[:, :4].mean(axis=1), atol=1e-12)


def test_self_attention_columns_normalized():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    h = Node(np.random.default_rng(4).normal(size=(2 * cfg.r, 6)))
    attn = self_attention(h, pn["w_s1"], pn["w_s2"], [0, 1, 3], np.ones(6, bool))
    np.testing.assert_allclose(attn.value.sum(axis=0), np.ones(3), atol=1e-9)


def test_interaction_attention_identity_oracle():
    # H_f = H_b = I (r = n), W_q = I, label vector = e_1: the match scores
    # are (I + I)^T e_1 = 2 e_1, so attention = softmax([2, 0, 0])
    n = 3
    h = Node(np.vstack([np.eye(n), np.eye(n)]))
    w_q = Node(np.eye(n))
    label_vectors = np.zeros((n, 2))
    label_vectors[0, 0] = 1.0
    attn = interaction_attention(h, label_vectors, w_q, [0], np.ones(n, bool))
    e = np.exp(np.array([2.0, 0.0, 0.0]))
    np.testing.assert_allclose(attn.value[:, 0], e / e.sum(), atol=1e-12)


def test_interaction_attention_single_word():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    rng = np.random.default_rng(5)
    h_fwd = rng.normal(size=(cfg.r, 1))
    h_bwd = rng.normal(size=(cfg.r, 1))
    lv = _label_vectors(cfg)
    attn = interaction_attention(Node(np.vstack([h_fwd, h_bwd])), lv, pn["w_q"], [0, 1, 2],
                                 [True])
    ctx = np.vstack([h_fwd, h_bwd]) @ attn.value
    h1 = np.concatenate([h_fwd[:, 0], h_bwd[:, 0]])
    for j in range(3):
        np.testing.assert_allclose(ctx[:, j], h1, atol=1e-12)


def test_interaction_attention_columns_normalized():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    rng = np.random.default_rng(6)
    n = 5
    h_fwd = rng.normal(size=(cfg.r, n))
    h_bwd = rng.normal(size=(cfg.r, n))
    mask = np.array([True, True, False, True, True])
    attn = interaction_attention(
        Node(np.vstack([h_fwd, h_bwd])), _label_vectors(cfg), pn["w_q"], [0, 3], mask
    )
    np.testing.assert_allclose(attn.value.sum(axis=0), np.ones(2), atol=1e-9)
    assert (attn.value[2, :] == 0.0).all()


def test_interaction_attention_bad_label_matrix():
    cfg = _cfg()
    pn = wrap_params(_params(cfg))
    h = Node(np.ones((2 * cfg.r, 2)))
    with pytest.raises(ShapeError):
        interaction_attention(h, np.ones((cfg.r + 1, cfg.k)), pn["w_q"], [0], [1, 1])


def test_block_identity_of_interaction_scores():
    # [H_f^T H_b^T][Q; Q] == (H_f + H_b)^T Q
    rng = np.random.default_rng(7)
    for _ in range(50):
        r, n, kp = rng.integers(1, 6), rng.integers(1, 7), rng.integers(1, 5)
        hf = rng.normal(size=(r, n))
        hb = rng.normal(size=(r, n))
        q = rng.normal(size=(r, kp))
        literal = np.hstack([hf.T, hb.T]) @ np.vstack([q, q])
        collapsed = (hf + hb).T @ q
        np.testing.assert_allclose(literal, collapsed, atol=1e-12)


def test_fuse_symmetric_inputs_give_half_half():
    rng = np.random.default_rng(8)
    h = Node(rng.normal(size=(6, 4)))
    attn = Node(rng.normal(size=(4, 3)))
    w = Node(rng.normal(size=(1, 6)))
    b = Node(np.array([[0.2]]))
    mix, alpha, beta = fuse(h, attn, Node(attn.value.copy()), w, b, w, b)
    np.testing.assert_allclose(alpha.value, np.full((1, 3), 0.5), atol=1e-15)
    np.testing.assert_allclose(mix.value, attn.value, atol=1e-15)


def test_fuse_hand_normalization():
    # raw gates 0.6 and 0.2 normalize to 0.75 / 0.25
    logit = lambda p: math.log(p / (1 - p))
    h = Node(np.zeros((4, 3)))
    attn_a = Node(np.zeros((3, 2)))
    attn_b = Node(np.zeros((3, 2)))
    w = Node(np.zeros((1, 4)))
    _, alpha, beta = fuse(
        h, attn_a, attn_b, w, Node(np.array([[logit(0.6)]])), w,
        Node(np.array([[logit(0.2)]])),
    )
    np.testing.assert_allclose(alpha.value, np.full((1, 2), 0.75), atol=1e-12)
    np.testing.assert_allclose(beta.value, np.full((1, 2), 0.25), atol=1e-12)


def test_fuse_weights_sum_to_one_exactly():
    rng = np.random.default_rng(9)
    for _ in range(100):
        h = Node(rng.normal(size=(4, 3)))
        attn_a = Node(rng.normal(size=(3, 5)))
        attn_b = Node(rng.normal(size=(3, 5)))
        w1 = Node(rng.normal(size=(1, 4)))
        w2 = Node(rng.normal(size=(1, 4)))
        b1 = Node(rng.normal(size=(1, 1)))
        b2 = Node(rng.normal(size=(1, 1)))
        _, alpha, beta = fuse(h, attn_a, attn_b, w1, b1, w2, b2)
        assert (alpha.value + beta.value == 1.0).all()


def test_fuse_shape_mismatch():
    w = Node(np.zeros((1, 4)))
    b = Node(np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        fuse(Node(np.zeros((4, 4))), Node(np.zeros((4, 2))), Node(np.zeros((4, 3))),
             w, b, w, b)


def test_predict_zero_head_gives_half():
    # a zero output layer yields logit 0, i.e. probability 1/2
    rng = np.random.default_rng(10)
    h = Node(rng.normal(size=(6, 4)))
    mix = Node(rng.normal(size=(4, 5)))
    z = predict(h, mix, Node(np.ones((3, 6))), Node(np.zeros((1, 3))), Node(np.zeros((1, 1))))
    np.testing.assert_array_equal(z.value, np.zeros((1, 5)))
    np.testing.assert_allclose(nm.sigmoid(z.value), np.full((1, 5), 0.5), atol=1e-15)


def test_predict_monotone_in_logit():
    # the output bias shifts every logit, so the probabilities rise with it
    rng = np.random.default_rng(11)
    h = Node(rng.normal(size=(4, 5)))
    mix = Node(rng.normal(size=(5, 3)))
    w_f = Node(rng.normal(size=(2, 4)))
    w_o = Node(rng.normal(size=(1, 2)))
    z_lo = predict(h, mix, w_f, w_o, Node(np.array([[0.0]])))
    z_hi = predict(h, mix, w_f, w_o, Node(np.array([[0.5]])))
    np.testing.assert_allclose(z_hi.value - z_lo.value, 0.5, atol=1e-15)
    p_lo, p_hi = nm.sigmoid(z_lo.value), nm.sigmoid(z_hi.value)
    assert (p_hi > p_lo).all()
    assert ((p_lo > 0) & (p_lo < 1)).all()


def _forward(cfg, params, lv, variant, subset=None, seed=12):
    rng = np.random.default_rng(seed)
    n_real = 3
    ids = np.zeros(cfg.max_len, dtype=np.int64)
    ids[:n_real] = rng.integers(2, params["embedding"].shape[0], size=n_real)
    mask = np.arange(cfg.max_len) < n_real
    subset = list(range(cfg.k)) if subset is None else subset
    return forward(ids, mask, wrap_params(params), lv, subset, variant)


def test_forward_variant_field_population():
    cfg = _cfg()
    params = _params(cfg)
    lv = _label_vectors(cfg)
    t_sa = _forward(cfg, params, None, "sa")
    assert t_sa.attn_inter is None
    assert t_sa.attn_self is not None and t_sa.mix is t_sa.attn_self
    assert (t_sa.alpha.value == 1.0).all() and (t_sa.beta.value == 0.0).all()

    t_ia = _forward(cfg, params, lv, "ia")
    assert t_ia.attn_self is None
    assert t_ia.attn_inter is not None and t_ia.mix is t_ia.attn_inter

    t_mix = _forward(cfg, params, lv, "sa+ia")
    assert (t_mix.alpha.value == 0.5).all()
    np.testing.assert_allclose(
        t_mix.mix.value,
        0.5 * t_mix.attn_self.value + 0.5 * t_mix.attn_inter.value,
        atol=1e-15,
    )

    t_full = _forward(cfg, params, lv, "laha")
    assert t_full.attn_self is not None and t_full.attn_inter is not None
    assert (t_full.alpha.value + t_full.beta.value == 1.0).all()


def test_forward_requires_embedding_for_interaction():
    cfg = _cfg()
    params = _params(cfg)
    with mock.patch.object(nm, "bilstm", wraps=nm.bilstm) as bilstm, \
            pytest.raises(ValidationError, match="label embedding"):
        _forward(cfg, params, None, "ia")
    bilstm.assert_not_called()  # checked before the Bi-LSTM runs


def test_forward_rejects_one_dimensional_label_vectors():
    cfg = _cfg()
    with pytest.raises(ShapeError):
        _forward(cfg, _params(cfg), _label_vectors(cfg)[0], "laha")


def test_forward_takes_nested_list_label_vectors_and_rejects_a_misshapen_one():
    cfg = _cfg()
    params, lv = _params(cfg), _label_vectors(cfg)
    listed = _forward(cfg, params, lv.tolist(), "laha")
    np.testing.assert_array_equal(listed.scores(), _forward(cfg, params, lv, "laha").scores())
    with pytest.raises(ShapeError):
        _forward(cfg, params, lv[:, 1:].tolist(), "laha")


@pytest.mark.parametrize("subset", [[0, 1.5], [0, True], [0, "1"], []],
                         ids=["1.5", "True", "1", "empty"])
def test_forward_rejects_non_integer_label(subset):
    cfg = _cfg()
    with pytest.raises(ValidationError):
        _forward(cfg, _params(cfg), _label_vectors(cfg), "laha", subset=subset)


def test_forward_unknown_variant():
    cfg = _cfg()
    params = _params(cfg)
    with pytest.raises(ValidationError):
        _forward(cfg, params, None, "hybrid")


def test_forward_deterministic():
    cfg = _cfg()
    params = _params(cfg)
    lv = _label_vectors(cfg)
    t1 = _forward(cfg, params, lv, "laha")
    t2 = _forward(cfg, params, lv, "laha")
    np.testing.assert_array_equal(t1.logits.value, t2.logits.value)
    np.testing.assert_array_equal(t1.mix.value, t2.mix.value)


def test_forward_full_subset_scores_every_label():
    cfg = _cfg()
    params = _params(cfg)
    trace = _forward(cfg, params, _label_vectors(cfg), "laha")
    scores = trace.scores()
    assert scores.shape == (cfg.k,)
    assert ((scores > 0) & (scores < 1)).all()
    np.testing.assert_array_equal(scores, nm.sigmoid(trace.logits.value).ravel())


def test_forward_label_equivariance():
    cfg = _cfg()
    params = _params(cfg)
    lv = _label_vectors(cfg)
    sub = [0, 1, 2, 3]
    perm = [2, 0, 3, 1]
    t_base = _forward(cfg, params, lv, "laha", subset=sub)
    t_perm = _forward(cfg, params, lv, "laha", subset=[sub[i] for i in perm])
    np.testing.assert_allclose(
        t_perm.scores(), t_base.scores()[perm], atol=1e-12
    )


def test_forward_convexity_of_mixed_context():
    cfg = _cfg()
    params = _params(cfg)
    trace = _forward(cfg, params, _label_vectors(cfg), "laha")
    h = trace.h.value
    recombined = (
        (h @ trace.attn_self.value) * trace.alpha.value
        + (h @ trace.attn_inter.value) * trace.beta.value
    )
    assert np.abs(h @ trace.mix.value - recombined).max() <= 1e-12


def _context_form_logits(ids, mask, params, lv, subset, variant):
    """The paper's context form in plain numpy: C = H A, gates on F C, W_f on the mix."""
    a = params.arrays()
    emb = a["embedding"][ids].T
    hf = _reference_lstm(emb, a["lstm_wx_f"], a["lstm_wh_f"], a["lstm_b_f"])
    hb = _reference_lstm(emb[:, ::-1], a["lstm_wx_b"], a["lstm_wh_b"], a["lstm_b_b"])[:, ::-1]
    h = np.vstack([hf, hb])

    def softmax(scores):
        e = np.where(mask[:, None], np.exp(scores - scores[mask].max(axis=0)), 0.0)
        return e / e.sum(axis=0)

    c_s = h @ softmax((a["w_s2"][subset] @ np.tanh(a["w_s1"] @ h)).T)
    c_i = h @ softmax((hf + hb).T @ (a["w_q"] @ lv[:, subset]))
    if variant == "laha":
        g1 = nm.sigmoid(a["fuse1_w"] @ c_s + a["fuse1_b"])
        g2 = nm.sigmoid(a["fuse2_w"] @ c_i + a["fuse2_b"])
        alpha = g1 / (g1 + g2)
    else:
        alpha = {"sa": 1.0, "ia": 0.0, "sa+ia": 0.5}[variant]
    ctx = alpha * c_s + (1.0 - alpha) * c_i
    return a["w_o"] @ np.maximum(a["w_f"] @ ctx, 0.0) + a["b_o"]


@pytest.mark.parametrize("variant", ["sa", "ia", "sa+ia", "laha"])
@pytest.mark.parametrize("k, n, r, head_order", [(4, 40, 16, "a(bc)"), (400, 8, 16, "(ab)c")])
def test_forward_matches_context_form_oracle(monkeypatch, variant, k, n, r, head_order):
    # k' far below n builds H @ mix and W_q L; k' far above n builds W_f H and H^T W_q
    orders = []
    chain = nm.matmul_chain

    def recording_chain(a, b, c):
        out = chain(a, b, c)
        orders.append("a(bc)" if out._parents[0] is a else "(ab)c")
        return out

    monkeypatch.setattr(nm, "matmul_chain", recording_chain)
    cfg = ModelConfig(k=k, max_len=n, d=10, r=r, d_a=r)
    rng = np.random.default_rng(k + n)
    emb = rng.uniform(-0.5, 0.5, size=(20, cfg.d))
    emb[0] = 0.0
    params = init_params(cfg, emb, seed=3)
    lv = rng.normal(size=(r, k))
    ids = rng.integers(1, 20, size=n)
    mask = np.arange(n) < n - 3
    ids[~mask] = 0
    subset = list(rng.permutation(k))
    trace = forward(ids, mask, wrap_params(params), lv, subset, variant)
    oracle = _context_form_logits(ids, mask, params, lv, subset, variant)
    np.testing.assert_allclose(trace.logits.value, oracle, rtol=0, atol=1e-12)
    assert orders[-1] == head_order
    if variant != "sa":
        assert orders[0] == head_order  # the interaction match


def _batch(cfg, vocab_size, docs, seed):
    """Encoded documents with 1..max_len real tokens and a random label subset each."""
    rng = np.random.default_rng(seed)
    rows, masks, subsets = [], [], []
    for _ in range(docs):
        n_real = int(rng.integers(1, cfg.max_len + 1))
        ids = np.zeros(cfg.max_len, dtype=np.int64)
        ids[:n_real] = rng.integers(1, vocab_size, size=n_real)
        rows.append(ids)
        masks.append(np.arange(cfg.max_len) < n_real)
        subsets.append(list(rng.permutation(cfg.k)[: int(rng.integers(1, cfg.k + 1))]))
    return rows, masks, subsets


@pytest.mark.parametrize("variant", ["sa", "ia", "sa+ia", "laha"])
@pytest.mark.parametrize("dims", [{"d": 5, "r": 3, "d_a": 3}, {"d": 40, "r": 24, "d_a": 16}])
def test_forward_batch_matches_forward_per_document(variant, dims):
    cfg = ModelConfig(k=6, max_len=7, **dims)
    params, lv = _params(cfg, vocab_size=15), _label_vectors(cfg)
    rows, masks, subsets = _batch(cfg, 15, docs=4, seed=len(variant))
    batched = forward_batch(rows, masks, wrap_params(params), lv, subsets, variant)
    assert len(batched) == 4
    for trace, ids, mask, subset in zip(batched, rows, masks, subsets):
        alone = forward(ids, mask, wrap_params(params), lv, subset, variant)
        assert trace.subset == subset and trace.h.value.shape == (2 * cfg.r, cfg.max_len)
        np.testing.assert_allclose(trace.logits.value, alone.logits.value, rtol=0, atol=1e-12)


def _batch_gradients(params, lv, batch, variant, encoder):
    """Parameter gradients of the batch's mean BCE loss, the Bi-LSTM built by `encoder`."""
    rows, masks, subsets = batch
    pn = wrap_params(params)
    with mock.patch("laha.model.bilstm_forward", encoder):
        traces = forward_batch(rows, masks, pn, lv, subsets, variant)
    targets = [np.arange(len(t.subset)) % 2 for t in traces]
    nm.backward(bce_loss([t.logits for t in traces], targets))
    return {name: node.grad for name, node in pn.items()}


@pytest.mark.parametrize("variant", ["sa", "ia", "sa+ia", "laha"])
@pytest.mark.parametrize("docs", [1, 3])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(r=st.integers(1, 40), d=st.integers(1, 12), d_a=st.integers(1, 8),
       k=st.integers(1, 6), max_len=st.integers(1, 12), threaded=st.booleans())
def test_forward_batch_gradients_are_bit_identical_to_the_two_lstm_oracle(
        variant, docs, r, d, d_a, k, max_len, threaded):
    cfg = ModelConfig(k=k, max_len=max_len, d=d, r=r, d_a=d_a)
    params, lv = _params(cfg, vocab_size=11), _label_vectors(cfg)
    batch = _batch(cfg, 11, docs, seed=r + d + k)
    with mock.patch.object(nm, "_WORKER_MIN", 0 if threaded else math.inf), \
            mock.patch.object(nm.os, "sched_getaffinity", lambda pid: {0, 1}):
        got = _batch_gradients(params, lv, batch, variant, bilstm_forward)
    want = _batch_gradients(params, lv, batch, variant, bilstm_oracle)
    for name in param_table(cfg, 11):
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_forward_batch_rejects_ragged_or_mismatched_batches():
    cfg = _cfg()
    pn, lv = wrap_params(_params(cfg)), _label_vectors(cfg)
    rows, masks, subsets = _batch(cfg, 9, docs=2, seed=0)
    with pytest.raises(ShapeError, match="differ in length"):
        forward_batch([rows[0], rows[1][:-1]], masks, pn, lv, subsets)
    with pytest.raises(ShapeError):
        forward_batch(rows, masks[:1], pn, lv, subsets)
    with pytest.raises(ShapeError):
        forward_batch([], [], pn, lv, [])


def test_forward_only_pass_allocates_no_gradient():
    cfg = _cfg()
    trace = _forward(cfg, _params(cfg), _label_vectors(cfg), "laha")
    reached = nm._toposort(trace.logits)
    assert len(reached) > 20
    assert all(node._grad is None for node in reached)


def test_unreached_leaf_gets_no_gradient_buffer():
    # under "sa" the interaction route is never built, so w_q gets no buffer
    cfg = _cfg()
    params = _params(cfg)
    pn = wrap_params(params)
    ids = np.array([3, 5, 2, 0])
    trace = forward(ids, ids > 0, pn, None, [0, 2], "sa")
    nm.backward(nm.bce_with_logits(trace.logits, np.array([[1.0, 0.0]])))
    assert pn["w_q"]._grad is None
    np.testing.assert_array_equal(pn["w_q"].grad, np.zeros_like(params["w_q"]))
    assert np.abs(pn["w_s2"].grad).sum() > 0


def test_forward_rejects_a_gate_that_computes_zero_over_zero():
    # both raw gates underflow to 0, so alpha = 0 / 0 reaches every logit
    cfg = _cfg()
    params = _params(cfg)
    params["fuse1_b"][:] = params["fuse2_b"][:] = -1e4
    with np.errstate(invalid="ignore", under="ignore"), pytest.raises(NumericalError):
        _forward(cfg, params, _label_vectors(cfg), "laha")


def test_export_attention_single_token():
    cfg = _cfg(max_len=1)
    params = _params(cfg)
    trace = forward(
        np.array([2]), np.array([True]), wrap_params(params),
        _label_vectors(cfg), [0, 1], "laha",
    )
    report = export_attention(trace, ["word"], ["zero", "one"], doc_id="d0")
    assert report["doc_id"] == "d0"
    for entry in report["labels"]:
        assert entry["tokens"] == [["word", 1.0]]


def test_export_attention_weights_sum_to_one_and_sorted():
    cfg = _cfg()
    params = _params(cfg)
    trace = _forward(cfg, params, _label_vectors(cfg), "laha")
    tokens = ["alpha", "beta", "gamma"]
    report = export_attention(trace, tokens, [str(i) for i in range(cfg.k)])
    fused = trace.mix.value
    for j, entry in enumerate(report["labels"]):
        weights = [w for _, w in entry["tokens"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert weights == sorted(weights, reverse=True)
        top_token = entry["tokens"][0][0]
        assert top_token == tokens[int(np.argmax(fused[:3, j]))]


def test_params_canonical_order_stable():
    cfg = _cfg()
    params = init_params(cfg, np.zeros((9, cfg.d)), 7)
    assert list(params) == list(param_table(cfg, 9))
    assert list(params)[0] == "embedding"
    assert len(params) == 17


# sha256 of every init_params array for _cfg() with a 9-row embedding, seed 7
INIT_DIGESTS = {
    "embedding": "3548a04901ae322e27874dc5b4abaaef288b94d520db8669e4479db6f34afdb1",
    "lstm_wx_f": "516630eb1796a598347683971cf013e0cefe10d14853deb8d4527dc81acfe511",
    "lstm_wh_f": "14ad8a49f1966c4ee1b46ea3ef1c1b124342878f7c5136c9f3335cbec1dd35bb",
    "lstm_b_f": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
    "lstm_wx_b": "c7539fa67764581951293135d5f493e3e1b8b7f6359708f29501d9dcc4e946e7",
    "lstm_wh_b": "39f600e82f5879cd10a976530bb70dc36910f83cbdeb14f21f7b6fd3e795c7ea",
    "lstm_b_b": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
    "w_s1": "579bc89dbdea649a0b9afe8a7a341113911eff911e3f2b146d2c4c32a5872d04",
    "w_s2": "20a3296f955d0e52231abecdfb9291118e3122d2d8b665df20880e038af42f27",
    "w_q": "34e144ade3915fa03560f4c17df20ab605dc0d2ab4ebe506cafdc64e39d02bf3",
    "fuse1_w": "90eb2c86b57ad3bcde31ec05e80b98acecc1f6ede62079f6b6dcd6f155d9276d",
    "fuse1_b": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "fuse2_w": "ab9894b46c32c94bf8596cc822a842ef6e327d8059a9e707a5ff6a8902d73257",
    "fuse2_b": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "w_f": "96cb21b243e332f3b14ade078b0d493994b9565807894c53ba82c4a8343de8db",
    "w_o": "614e9d2923275dca8d85f4970dfbf06d5fb1fc6166405bb67a8d48fad9fff1e1",
    "b_o": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
}


def test_init_params_bit_identical_to_pinned_digests():
    emb = np.random.default_rng(1000).uniform(-0.3, 0.3, size=(9, 5))
    params = init_params(_cfg(), emb, seed=7)
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()
        for name, arr in params.arrays().items()
    }
    assert digests == INIT_DIGESTS
