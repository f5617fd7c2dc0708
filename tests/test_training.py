import hashlib
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from laha import numeric as nm
from laha.data import Document, Vocabulary
from laha.errors import (
    CheckpointError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from laha.model import ModelConfig, ModelParams, forward, init_params, param_table, wrap_params
from laha.numeric import Node
from laha.training import (
    ADAM_EPS,
    _CHUNK,
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    bce_loss,
    load_checkpoint,
    sample_labels,
    save_checkpoint,
    train,
)

from extra_ops import adam_step_oracle, grad_check, packed


# ---------------------------------------------------------------------------
# label sampling
# ---------------------------------------------------------------------------


def test_sample_labels_contains_positives_no_duplicates():
    rng = np.random.default_rng(0)
    for _ in range(200):
        subset = sample_labels([1, 3], negatives_per_doc=3, k=100, rng=rng)
        assert len(subset) == 5
        assert len(set(subset)) == 5
        assert subset[:2] == [1, 3]
        assert all(s not in (1, 3) for s in subset[2:])


def test_sample_labels_whole_complement():
    rng = np.random.default_rng(1)
    subset = sample_labels([2], negatives_per_doc=50, k=6, rng=rng)
    assert sorted(subset) == list(range(6))


def test_sample_labels_zero_negatives():
    rng = np.random.default_rng(2)
    assert sample_labels([0, 4], 0, 10, rng) == [0, 4]


def test_sample_labels_empty_positives():
    with pytest.raises(ValidationError):
        sample_labels([], 3, 10, np.random.default_rng(0))


@pytest.mark.parametrize("positives", [[5], [4], [-1], [1.5], [True], [np.float64(2.0)], [1, 1],
                                       [0, 2, 0]])
def test_sample_labels_rejects_a_positive_out_of_range_not_an_integer_or_repeated(positives):
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_labels(positives, 2, 4, rng)
    assert rng.random() == np.random.default_rng(0).random()  # no draw was taken


@pytest.mark.parametrize("positives, negatives_per_doc, k", [
    ([1], 1, 3), ([1, 3], 1, 5), ([2, 0], 5, 4),
], ids=["one positive", "two positives", "whole complement"])
@pytest.mark.parametrize("container", [np.array, tuple])
def test_sample_labels_takes_array_and_tuple_positives_as_the_equal_list(
        positives, negatives_per_doc, k, container):
    rng, list_rng = np.random.default_rng(3), np.random.default_rng(3)
    subset = sample_labels(container(positives), negatives_per_doc, k, rng)
    assert type(subset) is list
    assert subset == sample_labels(positives, negatives_per_doc, k, list_rng)
    assert all(0 <= label < k for label in subset)
    assert rng.random() == list_rng.random()  # the same draws were taken

def _sample_labels_by_setdiff1d(positives, negatives_per_doc, k, rng):
    """`sample_labels` with the complement that `np.setdiff1d` gives: the reference."""
    complement = np.setdiff1d(np.arange(k), positives)
    if negatives_per_doc >= complement.size:
        return positives + complement.tolist()
    return positives + [int(x) for x in rng.choice(complement, size=negatives_per_doc,
                                                   replace=False)]


@pytest.mark.parametrize("case", ["random positives", "one positive", "every label positive"])
def test_sample_labels_draws_as_the_setdiff1d_complement_does(case):
    trials = np.random.default_rng(8)
    for seed in range(60):
        k = int(trials.integers(1, 90))
        if case == "random positives":
            positives = sorted(trials.choice(k, size=int(trials.integers(1, k + 1)),
                                             replace=False).tolist())
        else:
            positives = [int(trials.integers(k))] if case == "one positive" else list(range(k))
        negatives = int(trials.integers(0, k + 2))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (sample_labels(positives, negatives, k, rng)
                == _sample_labels_by_setdiff1d(positives, negatives, k, oracle_rng))
        assert rng.random() == oracle_rng.random()  # the same draws were taken


def test_sample_labels_size_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        npos = int(rng.integers(1, 5))
        positives = sorted(rng.choice(12, size=npos, replace=False).tolist())
        nneg = int(rng.integers(0, 15))
        subset = sample_labels(positives, nneg, 12, rng)
        assert set(positives).issubset(subset)
        assert len(subset) <= min(12, len(positives) + nneg)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_the_training_loss_is_the_autograd_op():
    assert bce_loss is nm.bce_with_logits


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

    err = grad_check(f, {"z": z})
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
    p = packed({"w": np.array([[1.0, -2.0]])})
    g = {"w": np.zeros((1, 2))}
    state = AdamState.init(p)
    adam_step(p, g, state, lr=0.1)
    np.testing.assert_array_equal(p["w"], [[1.0, -2.0]])
    assert state.step == 1


def test_adam_first_step_magnitude():
    # first update is ~ -lr * sign(g): |delta| = lr * |g| / (|g| + eps)
    for g0 in (3.0, -0.7, 1e-4):
        p = packed({"w": np.array([[0.0]])})
        state = AdamState.init(p)
        adam_step(p, {"w": np.array([[g0]])}, state, lr=0.1)
        delta = p["w"][0, 0]
        lo = 0.1 * (1.0 - ADAM_EPS / (abs(g0) + ADAM_EPS))
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

    p = packed({"x": np.array([[1.0]])})
    state = AdamState.init(p)
    mine = []
    for _ in range(3):
        g = {"x": 2.0 * p["x"]}
        adam_step(p, g, state, lr=lr)
        mine.append(p["x"][0, 0])
    np.testing.assert_allclose(mine, trajectory, atol=1e-12)


def test_adam_rejects_non_finite_gradient():
    p = packed({"bad_param": np.array([[1.0]])})
    state = AdamState.init(p)
    with pytest.raises(NumericalError, match="bad_param"):
        adam_step(p, {"bad_param": np.array([[np.nan]])}, state, lr=0.1)


def test_adam_rejects_a_gradient_of_another_shape_before_it_writes():
    p = packed({"a": np.array([[1.0]]), "b": np.ones((2, 3))})
    state = AdamState.init(p)
    for shape in [(3, 2), (6,), (1, 2, 3)]:
        with pytest.raises(ShapeError, match=r"gradient shape .* for b"):
            adam_step(p, {"a": np.array([[0.5]]), "b": np.ones(shape)}, state, lr=0.1)
    assert p.flat.tolist() == [1.0] * 7 and state.step == 0


def test_adam_checks_every_gradient_before_it_writes():
    p = packed({"a": np.array([[1.0]]), "b": np.array([[1.0]])})
    state = AdamState.init(p)
    with pytest.raises(NumericalError, match="'b'"):
        adam_step(p, {"a": np.array([[0.5]]), "b": np.array([[np.nan]])}, state, lr=0.1)
    assert p.flat.tolist() == [1.0, 1.0]
    assert state.m.flat.tolist() == state.v.flat.tolist() == [0.0, 0.0]
    assert state.step == 0


@pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.1, True])
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive_before_it_writes(lr):
    p = packed({"a": np.array([[1.0]]), "b": np.array([[1.0]])})
    state = AdamState.init(p)
    with pytest.raises(ValidationError, match="lr"):
        adam_step(p, {"a": np.array([[0.5]]), "b": np.array([[0.5]])}, state, lr=lr)
    assert p.flat.tolist() == [1.0, 1.0]
    assert state.m.flat.tolist() == state.v.flat.tolist() == [0.0, 0.0]
    assert state.step == 0


@pytest.mark.parametrize("huge", [[1e200], [1.3e154, -1.3e154]],
                         ids=["square overflows", "squares finite, their sum overflows"])
def test_adam_trains_on_a_huge_finite_gradient_as_the_per_name_loop(huge):
    # the squared norm of each gradient overflows, so only the elementwise scan can pass it
    rng = np.random.default_rng(8)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 5))}
    grads = {n: rng.normal(size=a.shape) for n, a in arrays.items()}
    grads["b"].flat[1 : 1 + len(huge)] = huge
    params, oracle = packed(arrays), {n: a.copy() for n, a in arrays.items()}
    state, oracle_state = AdamState.init(params), AdamState.init(oracle)
    with np.errstate(over="ignore"):  # g * g of 1e200 is inf in both updates
        adam_step(params, grads, state, lr=0.01)
        adam_step_oracle(oracle, grads, oracle_state, lr=0.01)
    for name in arrays:
        np.testing.assert_array_equal(params[name].view(np.int64), oracle[name].view(np.int64))
        np.testing.assert_array_equal(state.m[name], oracle_state.m[name])
        np.testing.assert_array_equal(state.v[name], oracle_state.v[name])
    assert state.step == 1 and not np.array_equal(params.flat, packed(arrays).flat)


def test_adam_refuses_gradients_that_do_not_end_the_packed_arrays():
    p = packed({"a": np.array([[1.0]]), "b": np.array([[1.0]])})
    for state, grads in [(AdamState.init(p), {"a": np.array([[0.5]])}),
                         (AdamState.init({"b": p["b"], "a": p["a"]}),
                          {"a": np.array([[0.5]]), "b": np.array([[0.5]])}),
                         (AdamState.init(p), {"nope": np.array([[0.5]])})]:
        with pytest.raises(ValidationError, match="must end"):
            adam_step(p, grads, state, lr=0.1)
        assert p.flat.tolist() == [1.0, 1.0] and state.step == 0


@pytest.mark.parametrize("moments", [{"a": (1, 1), "b": (2, 2)}, {"a": (1, 1), "b": (1, 1)}],
                         ids=["names in order, shapes swapped", "too short"])
def test_adam_refuses_moments_not_in_their_parameters_shapes_before_it_writes(moments):
    p = packed({"a": np.arange(4.0).reshape(2, 2), "b": np.array([[4.0]])})
    state = AdamState(0, *(packed({n: np.full(s, x) for n, s in moments.items()}) for x in (1, 2)))
    with pytest.raises(ValidationError, match="Adam state lacks m or v of shape .* 'a'"):
        adam_step(p, {"a": np.ones((2, 2)), "b": np.ones((1, 1))}, state, lr=0.1)
    assert p.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] and state.step == 0
    assert state.m.flat.tolist() == [1.0] * state.m.flat.size
    assert state.v.flat.tolist() == [2.0] * state.v.flat.size


@pytest.mark.parametrize("pack", ["params", "m", "v"])
def test_adam_refuses_an_entry_replaced_by_a_copy_before_it_writes(pack):
    # the update walks each pack's flat buffer, so a replaced entry would go stale unseen
    p = packed({"a": np.array([[1.0]]), "w_q": np.array([[2.0, 3.0]])})
    state = AdamState.init(p)
    packs = {"params": p, "m": state.m, "v": state.v}
    packs[pack]["w_q"] = packs[pack]["w_q"].copy()
    with pytest.raises(ValidationError, match="'w_q' of the parameters or a moment was replaced"):
        adam_step(p, {"a": np.array([[0.5]]), "w_q": np.array([[0.5, 0.5]])}, state, lr=0.1)
    assert p.flat.tolist() == [1.0, 2.0, 3.0] and state.step == 0
    assert state.m.flat.tolist() == state.v.flat.tolist() == [0.0] * 3
    assert packs[pack]["w_q"].tolist() == [[2.0, 3.0] if pack == "params" else [0.0, 0.0]]


# every parameter, in table order, of a d = r = d_a = 32 model over 54 labels and 363 words
SMALL = {n: (rows, cols) for n, (rows, cols, _) in
         param_table(ModelConfig(k=54, max_len=14, d=32, r=32, d_a=32), 363).items()}
# c straddles the first chunk boundary, d fills chunks of its own, e shares the last one
STRADDLING = {"a": (1, 21), "b": (3, 7), "c": (_CHUNK // 50, 60), "d": (2, _CHUNK), "e": (3, 3)}


@pytest.mark.parametrize("shapes, trainable, moments", [
    (STRADDLING, list(STRADDLING), list(STRADDLING)),
    (SMALL, list(SMALL), list(SMALL)),
    (SMALL, list(SMALL)[1:], list(SMALL)),
    (SMALL, list(SMALL)[1:], list(SMALL)[1:]),
], ids=["several chunks", "one gathered chunk", "frozen embedding, every moment",
        "frozen embedding, trainable moments"])
def test_adam_is_bit_identical_to_the_per_name_loop(shapes, trainable, moments):
    sizes = [rows * cols for rows, cols in shapes.values()]
    if shapes is STRADDLING:
        assert sum(sizes[:2]) < _CHUNK < sum(sizes[:3]) and sum(sizes) > 3 * _CHUNK
    else:
        assert sum(sizes) < _CHUNK
    rng = np.random.default_rng(3)
    arrays = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    params, oracle = packed(arrays), {n: a.copy() for n, a in arrays.items()}
    state = AdamState.init({n: params[n] for n in moments})
    oracle_state = AdamState.init({n: oracle[n] for n in moments})
    for step in range(3):
        grads = {n: rng.normal(scale=10.0 ** (step - 1), size=shapes[n]) for n in trainable}
        adam_step(params, grads, state, lr=0.01)
        adam_step_oracle({n: oracle[n] for n in trainable}, grads, oracle_state, lr=0.01)
    assert state.step == oracle_state.step == 3
    for name in shapes:
        np.testing.assert_array_equal(params[name], oracle[name])
    for name in moments:
        np.testing.assert_array_equal(state.m[name], oracle_state.m[name])
        np.testing.assert_array_equal(state.v[name], oracle_state.v[name])
    for name in set(shapes) - set(trainable):
        np.testing.assert_array_equal(params[name], arrays[name])


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
    err = grad_check(f, params.arrays())
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


def test_train_rejects_negative_start_epoch():
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    with pytest.raises(ValidationError, match="start_epoch"):
        train(docs, vocab, params, cfg, lv, tcfg, start_epoch=-1)


def test_train_updates_parameters_through_gates_of_very_negative_inputs():
    # fuse biases of -1e4 underflow both raw gates; alpha, sigmoid of their difference,
    # stays finite and passes a gradient to both gate rows
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    params["fuse1_b"][:] = params["fuse2_b"][:] = -1e4
    before = {n: a.copy() for n, a in params.items()}
    _, history = train(docs, vocab, params, cfg, lv, tcfg)
    assert len(history) == tcfg.epochs and np.isfinite(history).all()
    for name, arr in params.items():
        assert np.isfinite(arr).all(), name
    for name in ("fuse1_w", "fuse2_w", "fuse1_b", "fuse2_b"):
        assert not np.array_equal(params[name], before[name]), name


@pytest.mark.parametrize("name", ["lstm_wx_b", "w_s1", "w_q", "fuse1_w", "w_o"])
def test_train_stops_on_a_non_finite_parameter_before_any_update(name):
    # parameters are not scanned when wrapped, so the planted NaN must surface in the pass
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    params[name][0, 0] = np.nan
    before = {n: a.copy() for n, a in params.items()}
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="epoch 0, batch 0"):
        train(docs, vocab, params, cfg, lv, tcfg)
    for n, arr in params.items():
        np.testing.assert_array_equal(arr, before[n], err_msg=n)


@pytest.mark.parametrize("fields", [
    {"batch_size": 2.5}, {"seed": 1.5}, {"epochs": True}, {"negatives_per_doc": "2"},
    {"learning_rate": math.nan}, {"learning_rate": math.inf}, {"learning_rate": 0.0},
    {"finetune_word_vectors": "no"},
])
def test_train_config_rejects_malformed_values(fields):
    with pytest.raises(ValidationError):
        TrainConfig(**{"epochs": 1, **fields})


@pytest.mark.parametrize("labels", [{1.5}, {True, 2}, {"a", 1}], ids=["1.5", "True", "a"])
def test_train_rejects_a_label_that_is_not_an_integer_before_any_update(labels):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    before = {n: a.copy() for n, a in params.items()}
    with pytest.raises(ValidationError, match="label"):
        train(docs + [Document("bad", ["w1"], labels)], vocab, params, cfg, lv, tcfg)
    for n, arr in params.items():
        np.testing.assert_array_equal(arr, before[n], err_msg=n)


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
    emb_before = params["embedding"].copy()
    w_before = params["w_s1"].copy()
    tcfg = TrainConfig(epochs=2, seed=2, finetune_word_vectors=False, batch_size=2)
    train(docs, vocab, params, cfg, lv, tcfg)
    np.testing.assert_array_equal(params["embedding"], emb_before)
    assert not np.array_equal(params["w_s1"], w_before)


def _train_per_document(docs, vocab, params, cfg, lv, tcfg):
    """One `forward` per document, as the loop ran before batching: the oracle for `train`."""
    from laha.data import encode_document

    encoded = [encode_document(d, vocab, cfg.max_len) for d in docs]
    adam = AdamState.init(params.arrays())
    history = []
    for epoch in range(tcfg.epochs):
        rng = np.random.default_rng((tcfg.seed, epoch))
        order = rng.permutation(len(docs))
        total = 0.0
        for start in range(0, len(docs), tcfg.batch_size):
            nodes = wrap_params(params)
            logits, targets = [], []
            for i in order[start : start + tcfg.batch_size]:
                subset = sample_labels(sorted(docs[i].labels), tcfg.negatives_per_doc, cfg.k, rng)
                logits.append(forward(*encoded[i], nodes, lv, subset).logits)
                targets.append(np.array([float(l in docs[i].labels) for l in subset]))
            loss = bce_loss(logits, targets)
            nm.backward(loss)
            adam_step(params.arrays(), {n: nodes[n].grad for n in nodes}, adam,
                      tcfg.learning_rate)
            total += loss.value[0, 0] * len(logits)
        history.append(total / len(docs))
    return history


def test_train_batches_match_per_document_oracle():
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=4)
    docs = docs + [Document("m2", ["w5", "w2"], {0}), Document("m3", ["w4"], {3, 1, 2})]
    tcfg = TrainConfig(epochs=2, learning_rate=0.01, batch_size=3, negatives_per_doc=1, seed=4)
    oracle = init_params(cfg, params["embedding"], 4)
    _, history = train(docs, vocab, params, cfg, lv, tcfg)
    want = _train_per_document(docs, vocab, oracle, cfg, lv, tcfg)
    np.testing.assert_allclose(history, want, rtol=0, atol=1e-12)
    for name, arr in params.arrays().items():
        np.testing.assert_allclose(arr, oracle.arrays()[name], rtol=0, atol=1e-12)


def test_train_updates_the_callers_arrays_in_place():
    cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=5)
    arrays, flat = dict(params), params.flat
    before = flat.copy()
    returned, _ = train(docs, vocab, params, cfg, lv, tcfg)
    assert returned is params and params.flat is flat
    assert all(params[name] is arr for name, arr in arrays.items())
    assert not np.array_equal(flat, before)
    _assert_packed(params, param_table(cfg, len(vocab)))


def test_train_carries_a_given_adam_state_across_calls():
    # as the bench trains: one call per epoch, the same AdamState each time
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=6)
    whole = init_params(cfg, params["embedding"], 6)

    def epochs(n):
        return TrainConfig(epochs=n, learning_rate=0.01, batch_size=1, negatives_per_doc=2, seed=6)

    adam_whole = AdamState.init(whole.arrays())
    train(docs, vocab, whole, cfg, lv, epochs(3), adam=adam_whole)
    adam = AdamState.init(params.arrays())
    m, v = adam.m, adam.v
    for epoch in range(3):
        train(docs, vocab, params, cfg, lv, epochs(epoch + 1), adam=adam, start_epoch=epoch)
    assert adam.m is m and adam.v is v
    assert adam.step == adam_whole.step == 3 * len(docs)
    for pack, want in [(params, whole), (m, adam_whole.m), (v, adam_whole.v)]:
        np.testing.assert_array_equal(pack.flat, want.flat)


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
    params_full = init_params(cfg, params["embedding"].copy(), seed)
    adam_full = AdamState.init(params_full.arrays())
    train(docs, vocab, params_full, cfg, lv, tcfg, adam=adam_full)

    # run to epochs_first, checkpoint, resume
    params_a = init_params(cfg, params["embedding"].copy(), seed)
    adam_a = AdamState.init(params_a.arrays())
    first_cfg = TrainConfig(epochs=epochs_first, learning_rate=0.01, batch_size=2,
                            negatives_per_doc=2, seed=seed)
    train(docs, vocab, params_a, cfg, lv, first_cfg, adam=adam_a)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params_a, cfg, "laha", vocab, tcfg, adam_a, epochs_first))

    ckpt = load_checkpoint(path)
    train(docs, ckpt.vocab, ckpt.params, ckpt.model_cfg, lv,
          tcfg, adam=ckpt.adam, start_epoch=ckpt.epoch)
    return params_full, ckpt.params


def _assert_packed(pack, names):
    """`pack` holds `names`, in order, as consecutive views of its one C-contiguous buffer."""
    assert list(pack) == list(names)
    assert pack.flat.dtype == np.float64 and pack.flat.flags.c_contiguous
    offset = 0
    for arr in pack.values():
        assert arr.base is pack.flat and arr.ctypes.data == pack.flat.ctypes.data + 8 * offset
        offset += arr.size
    assert offset == pack.flat.size


def test_init_params_and_load_checkpoint_pack_each_buffer_in_table_order(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=10)
    table = param_table(cfg, len(vocab))
    _assert_packed(params, table)
    frozen = TrainConfig(epochs=1, batch_size=2, seed=10, finetune_word_vectors=False)
    adam = AdamState.init({n: a for n, a in params.items() if n != "embedding"})
    train(docs, vocab, params, cfg, lv, frozen, adam=adam)
    save_checkpoint(str(tmp_path / "ckpt.bin"),
                    Checkpoint(params, cfg, "laha", vocab, frozen, adam, 1))
    # the fixture lists its moments in sorted order; loaded, they follow the table
    for path in (tmp_path / "ckpt.bin", FIXTURES / "checkpoint_v1_tiny.bin"):
        ckpt = load_checkpoint(str(path))
        table = param_table(ckpt.model_cfg, len(ckpt.vocab))
        _assert_packed(ckpt.params, table)
        _assert_packed(ckpt.adam.m, list(table)[1:])
        _assert_packed(ckpt.adam.v, list(table)[1:])


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup(seed=9)
    adam = AdamState.init(params.arrays())
    train(docs, vocab, params, cfg, lv, tcfg, adam=adam)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params, cfg, "laha", vocab, tcfg, adam, tcfg.epochs))
    ckpt = load_checkpoint(path)
    for name, arr in params.arrays().items():
        np.testing.assert_array_equal(ckpt.params.arrays()[name], arr)
    for name in adam.m:
        np.testing.assert_array_equal(ckpt.adam.m[name], adam.m[name])
        np.testing.assert_array_equal(ckpt.adam.v[name], adam.v[name])
    assert ckpt.adam.step == adam.step
    assert ckpt.variant == "laha"
    assert ckpt.vocab.tokens == vocab.tokens
    assert ckpt.epoch == tcfg.epochs


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    params_full, params_resumed = _checkpoint_roundtrip(tmp_path)
    for name, arr in params_full.arrays().items():
        np.testing.assert_array_equal(params_resumed.arrays()[name], arr)


@pytest.mark.parametrize("case", ["frozen word vectors resumed fine-tuned", "moment reshaped"])
def test_resume_rejects_adam_state_that_does_not_fit_the_trainable_parameters(tmp_path, case):
    cfg, vocab, params, lv, docs, _ = _train_setup(seed=12)
    frozen = TrainConfig(epochs=1, batch_size=2, negatives_per_doc=2, seed=12,
                         finetune_word_vectors=False)
    adam = AdamState.init({n: a for n, a in params.items() if n != "embedding"})
    train(docs, vocab, params, cfg, lv, frozen, adam=adam)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params, cfg, "laha", vocab, frozen, adam, 1))
    ckpt = load_checkpoint(path)
    finetune = case == "frozen word vectors resumed fine-tuned"  # no moments for embedding
    resumed = TrainConfig(epochs=2, batch_size=2, negatives_per_doc=2, seed=12,
                          finetune_word_vectors=finetune)
    if not finetune:
        ckpt.adam.v["w_q"] = ckpt.adam.v["w_q"][:, :1].copy()
    saved = {n: a.copy() for n, a in ckpt.params.items()}
    with pytest.raises(ValidationError, match="'embedding'" if finetune else "'w_q'"):
        train(docs, ckpt.vocab, ckpt.params, ckpt.model_cfg, lv, resumed,
              adam=ckpt.adam, start_epoch=ckpt.epoch)
    for name, arr in ckpt.params.items():
        np.testing.assert_array_equal(arr, saved[name])
    assert ckpt.adam.step == adam.step


def test_checkpoint_corrupted_file(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 0))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 0))
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


def _vocab_as_a_string(h):
    # as many distinct characters as tokens, so only the type gives it away
    h["vocab"] = "".join(chr(ord("a") + i) for i in range(len(h["vocab"])))


def _vocab_of_integers(h):
    h["vocab"] = list(range(len(h["vocab"])))


def _swapped_tensor_names(h):
    # fuse1_b and b_o are both 1x1, so only the names' order gives the swap away
    names = [t[0] for t in h["tensors"]]
    i, j = names.index("param/fuse1_b"), names.index("param/b_o")
    h["tensors"][i][0], h["tensors"][j][0] = names[j], names[i]


def _adam_param_named_twice(h):
    # fuse1_b and b_o are both 1x1, so the Adam state can name b_o twice and keep the payload's size
    names = h["adam"]["params"]
    names[names.index("fuse1_b")] = "b_o"
    for t in h["tensors"]:
        t[0] = t[0].replace("adam_m/fuse1_b", "adam_m/b_o").replace("adam_v/fuse1_b", "adam_v/b_o")


def _setting(*keys_then_value):
    *keys, value = keys_then_value

    def mutate(h):
        for key in keys[:-1]:
            h = h[key]
        h[keys[-1]] = value

    mutate.__name__ = f"{'.'.join(keys)}={value!r}"
    return mutate


@pytest.mark.parametrize("mutate", [
    _drop_tensors, _drop_adam, _drop_variant, _unknown_adam_param,
    _adam_shape_mismatch, _negative_shape, _unknown_variant, _vocab_size_mismatch,
    _swapped_tensor_names, _vocab_as_a_string, _vocab_of_integers, _adam_param_named_twice,
    _setting("epoch", 2.7), _setting("epoch", -3), _setting("epoch", True),
    _setting("adam", "step", -1), _setting("adam", "step", 2.0), _setting("adam", "step", True),
    _setting("adam", "beta1", 1.0), _setting("adam", "beta1", -0.1),
    _setting("adam", "beta1", 0.8),
    _setting("adam", "beta2", 1.0), _setting("adam", "beta2", -0.1),
    _setting("adam", "eps", 0.0), _setting("adam", "eps", -1e-8), _setting("adam", "eps", math.inf),
    _setting("model", "max_len", 2.5), _setting("train", "batch_size", 2.5),
    _setting("train", "seed", 1.5), _setting("train", "learning_rate", math.nan),
    _setting("train", "finetune_word_vectors", "no"),
])
def test_checkpoint_malformed_header_raises_checkpoint_error(tmp_path, mutate):
    import json

    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 0))
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    header = json.loads(blob[:nl])
    mutate(header)
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + blob[nl + 1 :])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_with_an_integer_too_long_to_parse_raises_checkpoint_error(tmp_path):
    import json
    import sys

    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, tcfg,
                                          AdamState.init(params.arrays()), 0))
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    header = json.loads(blob[:nl]) | {"epoch": "EPOCH"}
    digits = "9" * (sys.get_int_max_str_digits() + 1)  # past what int() parses from a string
    text = json.dumps(header).replace('"EPOCH"', digits)
    path.write_bytes(text.encode() + b"\n" + blob[nl + 1 :])
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("tensor, value", [("param/w_q", math.nan), ("adam_v/lstm_b_f", math.inf)])
def test_checkpoint_with_a_non_finite_tensor_raises_checkpoint_error(tmp_path, tensor, value):
    import json

    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    adam = AdamState.init(params.arrays())
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 0))
    # save_checkpoint refuses a non-finite tensor, so write entry [1, 0] into the payload
    blob = bytearray(path.read_bytes())
    nl = blob.find(b"\n")
    table = json.loads(blob[:nl])["tensors"]
    i = [name for name, _, _ in table].index(tensor)
    at = nl + 1 + 8 * (sum(rows * cols for _, rows, cols in table[:i]) + table[i][2])
    blob[at : at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=tensor):
        load_checkpoint(str(path))


@pytest.mark.parametrize("variant, epoch, w_q_entry, m_edit, v_edit", [
    ("laha", 0, math.nan, {}, {}), ("laha", -1, 0.5, {}, {}), ("bogus", 0, 0.5, {}, {}),
    ("laha", 0, 0.5, {"extra": (2, 2)}, {"extra": (2, 2)}),
    ("laha", 0, 0.5, {}, {"w_q": None}), ("laha", 0, 0.5, {}, {"extra": (2, 2)}),
], ids=["non-finite parameter", "epoch=-1", "variant='bogus'", "a moment of no parameter",
        "v lacks a moment of m", "v has a moment m lacks"])
def test_save_checkpoint_refuses_what_load_rejects_and_keeps_the_earlier_file(
        tmp_path, variant, epoch, w_q_entry, m_edit, v_edit):
    cfg, vocab, params, lv, docs, tcfg = _train_setup()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, tcfg,
                                          AdamState.init(params.arrays()), 0))
    earlier = path.read_bytes()
    params["w_q"][1, 0] = w_q_entry

    def moments(edit):  # the parameters' shapes with `edit`'s entries added, replaced or dropped
        shapes = {name: a.shape for name, a in params.items()} | edit
        return ModelParams({name: shape for name, shape in shapes.items() if shape is not None})

    adam = AdamState(0, moments(m_edit), moments(v_edit))
    with pytest.raises(CheckpointError):
        save_checkpoint(str(path), Checkpoint(params, cfg, variant, vocab, tcfg, adam, epoch))
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_state():
    """The state `fixtures/checkpoint_v1_tiny.bin` holds, rebuilt from its seeds.

    The file was written by the format-1 saver that listed Adam moments in
    sorted name order; only seeded draws and elementwise products go in, so
    the rebuild is exact.
    """
    cfg = ModelConfig(k=3, max_len=4, d=2, r=2, d_a=2)
    vocab = Vocabulary(["a", "b", "c"])
    emb = np.random.default_rng(11).uniform(-0.5, 0.5, size=(len(vocab), cfg.d))
    params = init_params(cfg, emb, 11)
    adam = AdamState.init({n: a for n, a in params.items() if n != "embedding"})
    for name in adam.m:
        adam.m[name] += 0.1 * params[name]
        adam.v[name] += params[name] ** 2
    adam.step = 7
    tcfg = TrainConfig(epochs=5, learning_rate=0.01, batch_size=2, negatives_per_doc=1,
                       seed=11, finetune_word_vectors=False)
    return cfg, vocab, params, tcfg, adam


def _assert_fixture_state(ckpt):
    cfg, vocab, params, tcfg, adam = _fixture_state()
    assert (ckpt.model_cfg, ckpt.train_cfg, ckpt.variant) == (cfg, tcfg, "laha")
    assert ckpt.vocab.tokens == vocab.tokens
    assert (ckpt.epoch, ckpt.adam.step) == (3, adam.step)
    assert list(ckpt.params) == list(params)
    for name, arr in params.items():
        np.testing.assert_array_equal(ckpt.params[name], arr)
    assert sorted(ckpt.adam.m) == sorted(adam.m) and sorted(ckpt.adam.v) == sorted(adam.v)
    for name in adam.m:
        np.testing.assert_array_equal(ckpt.adam.m[name], adam.m[name])
        np.testing.assert_array_equal(ckpt.adam.v[name], adam.v[name])


def test_checkpoint_fixture_from_sorted_adam_saver_loads_identically(tmp_path):
    import json

    ckpt = load_checkpoint(str(FIXTURES / "checkpoint_v1_tiny.bin"))
    _assert_fixture_state(ckpt)
    # saved again, the Adam moments follow the parameter table's order
    path = tmp_path / "again.bin"
    save_checkpoint(str(path), ckpt)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["adam"]["params"] == list(ckpt.params)[1:]
    _assert_fixture_state(load_checkpoint(str(path)))


def test_checkpoint_bytes_are_pinned_and_a_loaded_checkpoint_saves_them_again(tmp_path):
    # the v1 bytes of the fixture's state, as the saver that took each field as an argument wrote
    cfg, vocab, params, tcfg, adam = _fixture_state()
    first, again = tmp_path / "first.bin", tmp_path / "again.bin"
    save_checkpoint(str(first), Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 3))
    assert hashlib.sha256(first.read_bytes()).hexdigest() == (
        "19eb150588cf112f6788f46410d45881fd37c0d7961dfe99ed4773c0847435b5")
    save_checkpoint(str(again), load_checkpoint(str(first)))
    assert again.read_bytes() == first.read_bytes()


def test_a_checkpoint_of_configs_built_from_numpy_integers_saves_the_plain_int_bytes(tmp_path):
    cfg, vocab, params, tcfg, adam = _fixture_state()
    np_cfg = ModelConfig(**{name: np.int64(value) for name, value in asdict(cfg).items()})
    np_tcfg = TrainConfig(epochs=np.int64(5), learning_rate=0.01, batch_size=np.int32(2),
                          negatives_per_doc=np.uint8(1), seed=np.int64(11),
                          finetune_word_vectors=False)
    assert (np_cfg, np_tcfg) == (cfg, tcfg)
    plain, numpy_built = tmp_path / "plain.bin", tmp_path / "numpy.bin"
    save_checkpoint(str(plain), Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 3))
    save_checkpoint(str(numpy_built), Checkpoint(params, np_cfg, "laha", vocab, np_tcfg, adam, 3))
    assert numpy_built.read_bytes() == plain.read_bytes()


def test_a_checkpoint_of_a_numpy_float_learning_rate_saves_and_loads_it_as_a_plain_float(
        tmp_path):
    cfg, vocab, params, tcfg, adam = _fixture_state()
    np_tcfg = TrainConfig(**{**asdict(tcfg), "learning_rate": np.float32(0.01)})
    assert type(np_tcfg.learning_rate) is float
    assert np_tcfg.learning_rate == float(np.float32(0.01)) != 0.01  # the float32's exact value
    path = tmp_path / "float32.bin"
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, np_tcfg, adam, 3))
    assert load_checkpoint(str(path)).train_cfg == np_tcfg


def test_checkpoint_declaring_a_huge_table_is_refused_before_any_allocation(tmp_path):
    import json

    cfg, vocab, params, tcfg, adam = _fixture_state()
    path = tmp_path / "huge.bin"
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, tcfg, adam, 3))
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["model"]["k"] = 10**15  # w_s2 alone would take 16 PB
    table = param_table(ModelConfig(**header["model"]), len(vocab))
    header["tensors"] = [[f"param/{n}", rows, cols] for n, (rows, cols, _) in table.items()]
    header["tensors"] += [[f"adam_{m}/{n}", *table[n][:2]]
                          for m in "mv" for n in header["adam"]["params"]]
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(64))
    with pytest.raises(CheckpointError, match="payload is 64 bytes, header declares"):
        load_checkpoint(str(path))

def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01nonsense")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("header, message", [
    (b"{nope", "unreadable checkpoint header"),
    (b'{"format": "\xff"}', "unreadable checkpoint header"),
    (b'{"format": "something-else", "version": 1}', "not a model checkpoint file"),
    (b"[1, 2]", "not a model checkpoint file"),
    (b"[" * 100000, "unreadable checkpoint header: maximum recursion depth"),
], ids=["not JSON", "not UTF-8", "another format", "not an object", "nested too deeply"])
def test_checkpoint_with_a_foreign_header_line_raises_checkpoint_error(tmp_path, header, message):
    path = tmp_path / "other.bin"
    path.write_bytes(header + b"\n" + bytes(16))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path))
