import math
from pathlib import Path

import numpy as np
import pytest

from laha import model as model_mod
from laha import numeric as nm
from laha.data import Document, Vocabulary
from laha.errors import (
    CheckpointError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from laha.model import ModelConfig, ModelParams, forward, init_params, wrap_params
from laha.numeric import Node
from laha.training import (
    AdamState,
    TrainConfig,
    adam_step,
    bce_loss,
    load_checkpoint,
    sample_labels,
    save_checkpoint,
    train,
)


# ---------------------------------------------------------------------------
# label sampling
# ---------------------------------------------------------------------------


def test_sample_labels_contains_positives_no_duplicates():
    rng = np.random.default_rng(0)
    for _ in range(200):
        subset = sample_labels({1, 3}, negatives_per_doc=3, k=100, rng=rng)
        assert len(subset) == 5
        assert len(set(subset)) == 5
        assert subset[:2] == [1, 3]
        assert all(s not in (1, 3) for s in subset[2:])


def test_sample_labels_whole_complement():
    rng = np.random.default_rng(1)
    subset = sample_labels({2}, negatives_per_doc=50, k=6, rng=rng)
    assert sorted(subset) == list(range(6))


def test_sample_labels_zero_negatives():
    rng = np.random.default_rng(2)
    assert sample_labels({4, 0}, 0, 10, rng) == [0, 4]


def test_sample_labels_empty_positives():
    with pytest.raises(ValidationError):
        sample_labels(set(), 3, 10, np.random.default_rng(0))


def test_sample_labels_size_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        npos = int(rng.integers(1, 5))
        positives = set(rng.choice(12, size=npos, replace=False).tolist())
        nneg = int(rng.integers(0, 15))
        subset = sample_labels(positives, nneg, 12, rng)
        assert positives.issubset(subset)
        assert len(subset) <= min(12, len(positives) + nneg)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_bce_perfect_prediction_is_tiny():
    # logits of +-30 on the right side: each label costs log1p(e^-30)
    y = np.array([1.0, 0.0, 1.0])
    logits = Node((60.0 * y - 30.0).reshape(1, -1))
    loss = bce_loss([logits], [y])
    assert 0.0 <= loss.value[0, 0] <= 3 * math.log1p(math.exp(-30.0)) + 1e-15


def test_bce_half_everywhere_is_kprime_ln2():
    # logit 0 is probability 1/2 for every label
    for kp in (1, 2, 5):
        logits = Node(np.zeros((1, kp)))
        y = (np.arange(kp) % 2).astype(float)
        loss = bce_loss([logits], [y])
        assert loss.value[0, 0] == pytest.approx(kp * math.log(2), abs=1e-12)


def test_bce_saturated_wrong_label_keeps_gradient():
    # sigmoid(50) is 1.0 in float64; the loss is still 50 and dL/dz = sigmoid(z) - y
    for z, y, grad in ((50.0, 0.0, 1.0), (-50.0, 1.0, -1.0)):
        leaf = Node(np.array([[z]]))
        loss = bce_loss([leaf], [np.array([y])])
        nm.backward(loss)
        assert loss.value[0, 0] == pytest.approx(50.0, abs=1e-12)
        assert abs(leaf.grad[0, 0] - grad) <= 1e-12


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        bce_loss([Node(np.full((1, 2), 0.5))], [np.array([1.0, 0.0, 0.0])])
    with pytest.raises(ShapeError):
        bce_loss([Node(np.full((1, 2), 0.5))], [])


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    z = rng.uniform(-3.0, 3.0, size=(1, 4))

    def f(p):
        return bce_loss([p["z"]], [y])

    err = nm.grad_check(f, {"z": z}, epsilon=1e-6)
    assert err <= 1e-6
    # closed form for one document: dloss/dz_j = sigmoid(z_j) - y_j
    leaf = Node(z)
    loss = bce_loss([leaf], [y])
    nm.backward(loss)
    np.testing.assert_allclose(leaf.grad, 1.0 / (1.0 + np.exp(-z)) - y, atol=1e-12)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_noop():
    p = {"w": np.array([[1.0, -2.0]])}
    g = {"w": np.zeros((1, 2))}
    state = AdamState.init(p)
    adam_step(p, g, state, lr=0.1)
    np.testing.assert_array_equal(p["w"], [[1.0, -2.0]])
    assert state.step == 1


def test_adam_first_step_magnitude():
    # first update is ~ -lr * sign(g): |delta| = lr * |g| / (|g| + eps)
    for g0 in (3.0, -0.7, 1e-4):
        p = {"w": np.array([[0.0]])}
        state = AdamState.init(p)
        adam_step(p, {"w": np.array([[g0]])}, state, lr=0.1)
        delta = p["w"][0, 0]
        lo = 0.1 * (1.0 - state.eps / (abs(g0) + state.eps))
        assert lo - 1e-15 <= abs(delta) <= 0.1 + 1e-15
        assert np.sign(delta) == -np.sign(g0)


def test_adam_three_steps_match_scalar_oracle():
    # independent hand-rolled scalar Adam on f(x) = x^2 from x = 1
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_hand, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 4):
        g = 2.0 * x_hand
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x_hand -= lr * m_hat / (math.sqrt(v_hat) + eps)
        trajectory.append(x_hand)

    p = {"x": np.array([[1.0]])}
    state = AdamState.init(p)
    mine = []
    for _ in range(3):
        g = {"x": 2.0 * p["x"]}
        adam_step(p, g, state, lr=lr)
        mine.append(p["x"][0, 0])
    np.testing.assert_allclose(mine, trajectory, atol=1e-12)


def test_adam_rejects_non_finite_gradient():
    p = {"bad_param": np.array([[1.0]])}
    state = AdamState.init(p)
    with pytest.raises(NumericalError, match="bad_param"):
        adam_step(p, {"bad_param": np.array([[np.nan]])}, state, lr=0.1)


# ---------------------------------------------------------------------------
# micro-model fixtures
# ---------------------------------------------------------------------------

MICRO = dict(k=4, max_len=4, d=5, r=3, d_a=3)


def micro_setup(seed=0):
    cfg = ModelConfig(**MICRO)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.4, 0.4, size=(len(vocab), cfg.d))
    emb[0] = 0.0
    params = init_params(cfg, emb, seed)
    label_vectors = rng.normal(size=(cfg.r, cfg.k)) * 0.7
    docs = [
        Document("m0", ["w0", "w1", "w2"], {0, 2}),
        Document("m1", ["w3", "w4", "w5", "w1", "w0"], {1, 3}),
    ]
    return cfg, vocab, params, label_vectors, docs


def micro_loss_builder(cfg, vocab, label_vectors, docs, variant="laha"):
    from laha.data import encode_document

    encoded = [encode_document(d, vocab, cfg.max_len) for d in docs]
    subsets = [sorted(range(cfg.k)) for _ in docs]
    targets = [
        np.array([1.0 if l in d.labels else 0.0 for l in s])
        for d, s in zip(docs, subsets)
    ]

    def f(param_nodes):
        logits = [
            forward(ids, mask, param_nodes, label_vectors, subset, variant).logits
            for (ids, mask), subset in zip(encoded, subsets)
        ]
        return bce_loss(logits, targets)

    return f


def test_full_model_gradient_check_micro():
    cfg, vocab, params, lv, docs = micro_setup(seed=3)
    f = micro_loss_builder(cfg, vocab, lv, docs)
    err = nm.grad_check(f, params.arrays(), epsilon=1e-5)
    assert err <= 1e-4


def test_descent_property_small_lr():
    violations = 0
    for seed in range(20):
        cfg, vocab, params, lv, docs = micro_setup(seed=seed)
        f = micro_loss_builder(cfg, vocab, lv, docs)
        nodes = wrap_params(params)
        loss_before = f(nodes)
        nm.backward(loss_before)
        arrays = params.arrays()
        state = AdamState.init(arrays)
        adam_step(arrays, {n: nodes[n].grad for n in arrays}, state, lr=1e-4)
        loss_after = f(wrap_params(params))
        if loss_after.value[0, 0] > loss_before.value[0, 0] + 1e-12:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def _train_setup(seed=0):
    cfg, vocab, params, lv, docs = micro_setup(seed=seed)
    tcfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=2,
                       negatives_per_doc=2, seed=seed)
    return cfg, vocab, params, lv, docs, tcfg


def test_train_two_runs_identical():
    results = []
    for _ in range(2):
        cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=5)
        _, history = train(docs, vocab, params, cfg, lv, tcfg)
        results.append((history, params.arrays()))
    assert results[0][0] == results[1][0]
    for name in results[0][1]:
        np.testing.assert_array_equal(results[0][1][name], results[1][1][name])


def test_train_zero_epochs_is_noop():
    cfg, vocab, params, lv, docs, _ = _train_setup()
    before = {n: a.copy() for n, a in params.arrays().items()}
    tcfg = TrainConfig(epochs=0, seed=0)
    _, history = train(docs, vocab, params, cfg, lv, tcfg)
    assert history == []
    for name, arr in params.arrays().items():
        np.testing.assert_array_equal(arr, before[name])


def test_train_empty_corpus_rejected():
    cfg, vocab, params, lv, _, tcfg = _train_setup()
    with pytest.raises(ValidationError):
        train([], vocab, params, cfg, lv, tcfg)


def test_train_loss_decreases_on_micro_corpus():
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=1)
    tcfg = TrainConfig(epochs=6, learning_rate=0.02, batch_size=2,
                       negatives_per_doc=3, seed=1)
    _, history = train(docs, vocab, params, cfg, lv, tcfg)
    assert history[-1] < history[0]


def test_train_frozen_word_vectors():
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=2)
    emb_before = params.embedding.copy()
    w_before = params.w_s1.copy()
    tcfg = TrainConfig(epochs=2, seed=2, finetune_word_vectors=False, batch_size=2)
    train(docs, vocab, params, cfg, lv, tcfg)
    np.testing.assert_array_equal(params.embedding, emb_before)
    assert not np.array_equal(params.w_s1, w_before)


def test_train_all_variants():
    for variant in ("sa", "ia", "sa+ia", "laha"):
        cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=7)
        _, history = train(docs, vocab, params, cfg, lv, tcfg, variant=variant)
        assert len(history) == tcfg.epochs
        assert all(np.isfinite(h) for h in history)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _checkpoint_roundtrip(tmp_path, epochs_first=1, epochs_total=2, seed=11):
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=seed)
    tcfg = TrainConfig(epochs=epochs_total, learning_rate=0.01, batch_size=2,
                       negatives_per_doc=2, seed=seed)

    # uninterrupted run
    params_full = init_params(cfg, params.embedding.copy(), seed)
    adam_full = AdamState.init(params_full.arrays())
    train(docs, vocab, params_full, cfg, lv, tcfg, adam=adam_full)

    # run to epochs_first, checkpoint, resume
    params_a = init_params(cfg, params.embedding.copy(), seed)
    adam_a = AdamState.init(params_a.arrays())
    first_cfg = TrainConfig(epochs=epochs_first, learning_rate=0.01, batch_size=2,
                            negatives_per_doc=2, seed=seed)
    train(docs, vocab, params_a, cfg, lv, first_cfg, adam=adam_a)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params_a, cfg, "laha", vocab, tcfg, adam_a, epochs_first)

    ckpt = load_checkpoint(path)
    train(docs, Vocabulary(ckpt.vocab_tokens), ckpt.params, ckpt.model_cfg, lv,
          tcfg, adam=ckpt.adam, start_epoch=ckpt.epoch)
    return params_full, ckpt.params


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=9)
    adam = AdamState.init(params.arrays())
    train(docs, vocab, params, cfg, lv, tcfg, adam=adam)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params, cfg, "laha", vocab, tcfg, adam, tcfg.epochs)
    ckpt = load_checkpoint(path)
    for name, arr in params.arrays().items():
        np.testing.assert_array_equal(ckpt.params.arrays()[name], arr)
    for name in adam.m:
        np.testing.assert_array_equal(ckpt.adam.m[name], adam.m[name])
        np.testing.assert_array_equal(ckpt.adam.v[name], adam.v[name])
    assert ckpt.adam.step == adam.step
    assert ckpt.variant == "laha"
    assert ckpt.vocab_tokens == vocab.tokens
    assert ckpt.epoch == tcfg.epochs


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    params_full, params_resumed = _checkpoint_roundtrip(tmp_path)
    for name, arr in params_full.arrays().items():
        np.testing.assert_array_equal(params_resumed.arrays()[name], arr)


def test_checkpoint_corrupted_file(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params, cfg, "laha", vocab, tcfg, adam, 0)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params, cfg, "laha", vocab, tcfg, adam, 0)
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    import json

    header = json.loads(blob[:nl])
    header["version"] = 999
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + blob[nl + 1 :])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _drop_tensors(h):
    del h["tensors"]


def _drop_adam(h):
    del h["adam"]


def _drop_variant(h):
    del h["variant"]


def _unknown_adam_param(h):
    h["adam"]["params"].append("not_a_param")


def _adam_shape_mismatch(h):
    entry = next(t for t in h["tensors"] if t[0] == "adam_m/lstm_b_f")
    entry[1:] = entry[2:0:-1]


def _negative_shape(h):
    _, r, c = h["tensors"][0]
    h["tensors"][0][1:] = [-r, -c]


def _unknown_variant(h):
    h["variant"] = "hybrid"


def _vocab_size_mismatch(h):
    h["vocab"].pop()


def _swapped_tensor_names(h):
    # fuse1_b and b_o are both 1x1, so only the names' order gives the swap away
    names = [t[0] for t in h["tensors"]]
    i, j = names.index("param/fuse1_b"), names.index("param/b_o")
    h["tensors"][i][0], h["tensors"][j][0] = names[j], names[i]


@pytest.mark.parametrize("mutate", [
    _drop_tensors, _drop_adam, _drop_variant, _unknown_adam_param,
    _adam_shape_mismatch, _negative_shape, _unknown_variant, _vocab_size_mismatch,
    _swapped_tensor_names,
])
def test_checkpoint_malformed_header_raises_checkpoint_error(tmp_path, mutate):
    import json

    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params, cfg, "laha", vocab, tcfg, adam, 0)
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    header = json.loads(blob[:nl])
    mutate(header)
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + blob[nl + 1 :])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01nonsense")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
