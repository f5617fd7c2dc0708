import math
import threading

import numpy as np
import pytest

from laha import numeric
from laha.errors import DegenerateInputError, NumericalError, ShapeError, ValidationError
from laha.numeric import (
    Node,
    activate,
    add,
    add_colvec,
    add_halves,
    backward,
    bce_with_logits,
    bilstm,
    const_minus,
    div,
    matmul,
    matmul_chain,
    scale,
    scale_cols,
    slice_cols,
    softmax_columns,
    sum_nodes,
    take_rows,
    transpose,
)

from extra_ops import bilstm_oracle, grad_check, lstm, mul, sum_all, vconcat


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, np.eye(2))
    np.testing.assert_array_equal(out.value, a)


def test_matmul_hand_computed():
    # [[1,2],[3,4]] @ [[5],[6]]: rows give 1*5+2*6=17 and 3*5+4*6=39
    out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.value, np.array([[17.0], [39.0]]))


def test_matmul_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, np.zeros((2, 3)))
    np.testing.assert_array_equal(out.value, np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.ones((2, 3)), np.ones((2, 2)))


def test_matmul_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        c = rng.normal(size=(2, 5))
        left = matmul(matmul(a, b), c).value
        right = matmul(a, matmul(b, c)).value
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_equal_values_uniform():
    out = softmax_columns(np.zeros((4, 1)))
    np.testing.assert_allclose(out.value, np.full((4, 1), 0.25), atol=1e-15)


def test_softmax_closed_form():
    # column [0, ln 2] -> [1/3, 2/3] because e^0 = 1 and e^{ln 2} = 2
    out = softmax_columns(np.array([[0.0], [math.log(2.0)]]))
    np.testing.assert_allclose(out.value, np.array([[1 / 3], [2 / 3]]), atol=1e-12)


def test_softmax_masked_renormalizes():
    out = softmax_columns(np.array([[5.0], [5.0], [5.0]]), mask=[1, 1, 0])
    np.testing.assert_allclose(out.value, np.array([[0.5], [0.5], [0.0]]), atol=1e-15)
    assert out.value[2, 0] == 0.0


def test_softmax_all_masked_is_degenerate():
    with pytest.raises(DegenerateInputError):
        softmax_columns(np.ones((3, 2)), mask=[0, 0, 0])


def test_softmax_columns_sum_to_one_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, k = rng.integers(1, 8), rng.integers(1, 6)
        m = rng.normal(scale=3.0, size=(n, k))
        mask = rng.integers(0, 2, size=n)
        if mask.sum() == 0:
            mask[rng.integers(0, n)] = 1
        out = softmax_columns(m, mask).value
        np.testing.assert_allclose(out.sum(axis=0), np.ones(k), atol=1e-9)
        assert (out >= 0.0).all() and (out <= 1.0).all()
        assert (out[mask == 0, :] == 0.0).all()


def test_softmax_overflow_safe():
    out = softmax_columns(np.array([[1e4], [1e4 - 700.0]]))
    assert np.isfinite(out.value).all()


def test_activation_values():
    assert activate(np.zeros((1, 1)), "tanh").value[0, 0] == 0.0
    assert activate(np.zeros((1, 1)), "sigmoid").value[0, 0] == 0.5
    assert activate(np.array([[-3.2]]), "relu").value[0, 0] == 0.0
    with pytest.raises(ValueError):
        activate(np.zeros((1, 1)), "gelu")


def test_sigmoid_is_bit_identical_to_dividing_each_branch():
    # the two-branch form 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|)
    x = np.concatenate([np.random.default_rng(5).normal(scale=s, size=2000) for s in (0.1, 10, 800)]
                       + [np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])])
    e = np.exp(-np.abs(x))
    np.testing.assert_array_equal(numeric.sigmoid(x), np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))


def test_unknown_activation_kind_raises_validation_error():
    with pytest.raises(ValidationError, match="gelu"):
        activate(np.zeros((1, 1)), "gelu")


def test_non_finite_input_rejected():
    with pytest.raises(NumericalError):
        Node(np.array([[np.inf]]))
    with pytest.raises(NumericalError):
        Node(np.array([[np.nan, 1.0]]))


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        backward(Node(np.ones((2, 2))))


def test_backward_rejects_non_finite_root():
    x = Node(np.array([[1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        backward(scale(x, 10.0))
    assert not x.grad.any()


def test_grad_check_square():
    # f(x) = x^2 at x = 3 has derivative 6; central differences are exact
    # for quadratics up to rounding
    err = grad_check(lambda p: sum_all(mul(p["x"], p["x"])), {"x": np.array([[3.0]])})
    assert err < 1e-8


def test_grad_check_constant_function():
    err = grad_check(lambda p: Node(np.array([[4.0]])), {"x": np.array([[1.0, 2.0]])})
    assert err == 0.0


def test_grad_check_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        grad_check(lambda p: sum_all(p["x"]), {"x": np.ones((1, 1))}, epsilon=0.0)


def test_grad_check_non_finite_function():
    def f(p):
        return sum_all(scale(p["x"], math.inf))

    with pytest.raises(NumericalError):
        grad_check(f, {"x": np.array([[1.0]])})


def test_bce_with_logits_closed_form():
    # z = 0 costs ln 2 whatever the target; z = ln 3, y = 1 costs ln(4/3)
    z = np.array([[0.0, 0.0, math.log(3.0)]])
    y = np.array([[0.0, 1.0, 1.0]])
    out = bce_with_logits(z, y)
    assert out.value[0, 0] == pytest.approx(2 * math.log(2.0) + math.log(4 / 3), abs=1e-15)
    with pytest.raises(ShapeError):
        bce_with_logits(z, np.zeros((1, 2)))


def test_backward_populates_reused_leaf_once_per_use():
    # y = x*x + x: dy/dx = 2x + 1 at x=2 -> 5
    x = Node(np.array([[2.0]]))
    y = add(mul(x, x), x)
    backward(y)
    assert x.grad[0, 0] == pytest.approx(5.0)


def test_backward_linearity_on_shared_parameters():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))

    def run(build):
        x = Node(a.copy())
        w = Node(b.copy())
        backward(build(x, w))
        return x.grad.copy(), w.grad.copy()

    f = lambda x, w: sum_all(matmul(x, w))
    g = lambda x, w: sum_all(activate(matmul(x, w), "tanh"))
    fg = lambda x, w: add(f(x, w), g(x, w))
    gx_f, gw_f = run(f)
    gx_g, gw_g = run(g)
    gx_fg, gw_fg = run(fg)
    np.testing.assert_allclose(gx_fg, gx_f + gx_g, atol=1e-12)
    np.testing.assert_allclose(gw_fg, gw_f + gw_g, atol=1e-12)


# ---------------------------------------------------------------------------
# randomized gradient checks, one per differentiable op
# ---------------------------------------------------------------------------

N_TRIALS = 100
TOL = 1e-6


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=shape)


def _check(f, params):
    err = grad_check(f, params)
    assert err <= TOL, f"gradient mismatch {err:.3e}"


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_grad_binary_ops(trial):
    rng = np.random.default_rng(100 + trial)
    a = _rand(rng, (2, 3))
    b = _rand(rng, (2, 3))
    pos = _rand(rng, (2, 3), 0.5, 2.0)
    _check(lambda p: sum_all(add(p["a"], p["b"])), {"a": a, "b": b})
    _check(lambda p: sum_all(mul(p["a"], p["b"])), {"a": a, "b": b})
    _check(lambda p: sum_all(div(p["a"], p["b"])), {"a": a, "b": pos})


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_grad_matmul_and_structure(trial):
    rng = np.random.default_rng(200 + trial)
    a = _rand(rng, (2, 3))
    b = _rand(rng, (3, 4))
    c = _rand(rng, (2, 3))
    _check(lambda p: sum_all(matmul(p["a"], p["b"])), {"a": a, "b": b})
    _check(lambda p: sum_all(transpose(p["a"])), {"a": a})
    _check(lambda p: sum_all(mul(vconcat([p["a"], p["c"]]), vconcat([p["c"], p["a"]]))),
           {"a": a, "c": c})
    _check(lambda p: sum_all(mul(take_rows(p["b"], [2, 0, 2]), take_rows(p["b"], [1, 1, 0]))),
           {"b": b})


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_grad_broadcast_ops(trial):
    rng = np.random.default_rng(300 + trial)
    m = _rand(rng, (3, 4))
    v = _rand(rng, (3, 1))
    r = _rand(rng, (1, 4))
    _check(lambda p: sum_all(activate(add_colvec(p["m"], p["v"]), "tanh")),
           {"m": m, "v": v})
    _check(lambda p: sum_all(activate(scale_cols(p["m"], p["r"]), "tanh")),
           {"m": m, "r": r})
    _check(lambda p: sum_all(scale(p["m"], -1.7)), {"m": m})
    _check(lambda p: sum_all(const_minus(2.5, p["m"])), {"m": m})


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_grad_activations(trial):
    rng = np.random.default_rng(400 + trial)
    x = _rand(rng, (3, 3))
    # keep relu inputs away from the kink so central differences are valid
    x_relu = np.where(np.abs(x) < 1e-2, x + np.sign(x + 0.5) * 0.1, x)
    y = rng.integers(0, 2, size=(3, 3)).astype(float)
    _check(lambda p: sum_all(activate(p["x"], "tanh")), {"x": x})
    _check(lambda p: sum_all(activate(p["x"], "sigmoid")), {"x": x})
    _check(lambda p: sum_all(activate(p["x"], "relu")), {"x": x_relu})
    _check(lambda p: bce_with_logits(p["x"], y), {"x": x})


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("trial", range(10))
def test_grad_lstm(trial, reverse):
    rng = np.random.default_rng(600 + trial)
    d, r, n = 3, 2, 4
    w = _rand(rng, (r, n))
    params = {
        "x": _rand(rng, (d, n)),
        "wx": _rand(rng, (4 * r, d), -1.0, 1.0),
        "wh": _rand(rng, (4 * r, r), -1.0, 1.0),
        "b": _rand(rng, (4 * r, 1), -1.0, 1.0),
    }
    _check(lambda p: sum_all(mul(lstm(p["x"], p["wx"], p["wh"], p["b"], reverse), w)),
           params)


def _lstm_loss(x, wx, wh, b, w, reverse, docs):
    return sum_all(mul(lstm(x, wx, wh, b, reverse, docs), w))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("d, r, n, docs", [(3, 2, 5, 3), (300, 256, 6, 3)])
def test_batched_lstm_matches_one_call_per_document(d, r, n, docs, reverse):
    rng = np.random.default_rng(d + r + n)
    limit = math.sqrt(6.0 / (d + r))
    x = rng.normal(size=(d, docs * n))
    weights = [rng.uniform(-limit, limit, size=(4 * r, d)),
               rng.uniform(-limit, limit, size=(4 * r, r)),
               rng.normal(scale=0.5, size=(4 * r, 1))]
    w = rng.normal(size=(r, docs * n))

    batched = [Node(a) for a in [x, *weights]]
    out = lstm(*batched, reverse=reverse, docs=docs)
    backward(_lstm_loss(*batched, w, reverse, docs))

    single = [Node(a) for a in weights]
    cols = [slice(j * n, (j + 1) * n) for j in range(docs)]
    xs = [Node(x[:, c]) for c in cols]
    values = [lstm(xj, *single, reverse=reverse).value for xj in xs]
    backward(sum_nodes([_lstm_loss(xj, *single, w[:, c], reverse, 1)
                        for xj, c in zip(xs, cols)]))

    np.testing.assert_allclose(out.value, np.hstack(values), rtol=0, atol=1e-12)
    np.testing.assert_allclose(batched[0].grad, np.hstack([xj.grad for xj in xs]),
                               rtol=0, atol=1e-12)
    for got, want in zip(batched[1:], single):
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("trial", range(5))
def test_grad_lstm_two_documents(trial, reverse):
    rng = np.random.default_rng(650 + trial)
    d, r, n = 3, 2, 4
    w = _rand(rng, (r, 2 * n))
    params = {
        "x": _rand(rng, (d, 2 * n)),
        "wx": _rand(rng, (4 * r, d), -1.0, 1.0),
        "wh": _rand(rng, (4 * r, r), -1.0, 1.0),
        "b": _rand(rng, (4 * r, 1), -1.0, 1.0),
    }
    _check(lambda p: _lstm_loss(p["x"], p["wx"], p["wh"], p["b"], w, reverse, 2), params)


@pytest.mark.parametrize("cols, docs", [(5, 2), (4, 0), (3, 4)])
def test_lstm_rejects_columns_that_do_not_split_into_documents(cols, docs):
    with pytest.raises(ShapeError, match="documents"):
        lstm(np.ones((2, cols)), np.ones((4, 2)), np.ones((4, 1)), np.ones((4, 1)), docs=docs)


BILSTM_WEIGHTS = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")


def _bilstm_arrays(rng, d, r, n, docs, scale=1.0):
    """x (d x docs * n), then each direction's wx, wh, b, drawn from [-scale, scale]."""
    shapes = [(d, docs * n)] + [(4 * r, d), (4 * r, r), (4 * r, 1)] * 2
    return dict(zip(("x", *BILSTM_WEIGHTS), (_rand(rng, s, -scale, scale) for s in shapes)))


@pytest.fixture
def two_cpus(monkeypatch):
    """Report CPUs 0 and 1 as usable, so a large enough `bilstm` takes a worker thread."""
    monkeypatch.setattr(numeric.os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def started(monkeypatch):
    """Every thread started during the test, recorded in a list."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("docs", [1, 2])
def test_grad_bilstm(monkeypatch, two_cpus, started, docs, threaded):
    monkeypatch.setattr(numeric, "_WORKER_MIN", 0 if threaded else math.inf)
    rng = np.random.default_rng(680 + docs)
    params = _bilstm_arrays(rng, 3, 2, 4, docs)
    params["x"] *= 2.0
    w = _rand(rng, (4, docs * 4))
    _check(lambda p: sum_all(mul(bilstm(p["x"], *(p[k] for k in BILSTM_WEIGHTS), docs), w)),
           params)
    assert bool(started) is threaded


@pytest.mark.parametrize("d, r, n, docs", [(5, 3, 6, 3), (20, 256, 5, 1), (30, 160, 4, 3)])
def test_bilstm_is_bit_identical_to_two_lstm_nodes(two_cpus, d, r, n, docs):
    rng = np.random.default_rng(d + r + n + docs)
    arrays = _bilstm_arrays(rng, d, r, n, docs, math.sqrt(6.0 / (d + r)))
    w = rng.normal(size=(2 * r, docs * n))
    got, want = [{k: Node(a) for k, a in arrays.items()} for _ in range(2)]
    node = bilstm(got["x"], *(got[k] for k in BILSTM_WEIGHTS), docs)
    h = bilstm_oracle(want["x"], *(want[k] for k in BILSTM_WEIGHTS), docs)
    np.testing.assert_array_equal(node.value, h.value)
    backward(sum_all(mul(node, w)))
    backward(sum_all(mul(h, w)))
    for k in arrays:
        np.testing.assert_array_equal(got[k].grad, want[k].grad, err_msg=k)


@pytest.mark.parametrize("cols, docs", [(5, 2), (4, 0), (3, 4)])
def test_bilstm_rejects_columns_that_do_not_split_into_documents(cols, docs):
    w = (np.ones((4, 2)), np.ones((4, 1)), np.ones((4, 1)))
    with pytest.raises(ShapeError, match="documents"):
        bilstm(np.ones((2, cols)), *w, *w, docs=docs)


def test_bilstm_rejects_a_direction_that_does_not_fit():
    fits, wide = (np.ones((4, 2)), np.ones((4, 1)), np.ones((4, 1))), np.ones((4, 3))
    with pytest.raises(ShapeError):
        bilstm(np.ones((2, 3)), *fits, wide, *fits[1:])


def test_bilstm_joins_its_worker_after_a_forward_and_a_backward(two_cpus, started):
    before = threading.active_count()
    arrays = _bilstm_arrays(np.random.default_rng(0), 6, 256, 3, 1, 0.1)
    node = bilstm(arrays["x"], *(arrays[k] for k in BILSTM_WEIGHTS))
    assert threading.active_count() == before
    backward(sum_all(node))
    assert threading.active_count() == before
    assert len(started) == 2 and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("direction", ["_f", "_b"])
def test_bilstm_overflow_in_either_direction_raises_on_the_caller(two_cpus, started, direction):
    # wx @ x and b are each 1e308 in one direction only, so its first pre-activation is inf;
    # the worker must see the caller's errstate, or the overflow warning would raise instead
    arrays = _bilstm_arrays(np.random.default_rng(1), 6, 256, 3, 1, 0.1)
    arrays["x"][:] = 1.0 / 6
    arrays["wx" + direction][:] = arrays["b" + direction][:] = 1e308
    before = threading.active_count()
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="pre-activation"):
        bilstm(arrays["x"], *(arrays[k] for k in BILSTM_WEIGHTS))
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()


@pytest.mark.parametrize("r, docs, cpus, threads", [
    (32, 1, {0, 1}, 0),         # aapd-quality: r = 32, one document per batch
    (256, 16, {0}, 0),          # aapd-train with one usable CPU
    (256, 16, {0, 1}, 2),       # aapd-train: r = 256, 16 documents per batch
    (256, 1, {0, 1}, 2),        # eurlex-score: r = 256, one document at a time
    (128, 2, {0, 1, 2, 3}, 0),
])
def test_bilstm_takes_a_worker_only_at_large_shapes_with_two_cpus(
        monkeypatch, started, r, docs, cpus, threads):
    monkeypatch.setattr(numeric.os, "sched_getaffinity", lambda pid: cpus)
    arrays = _bilstm_arrays(np.random.default_rng(2), 1, r, 1, docs, 0.1)
    backward(sum_all(bilstm(arrays["x"], *(arrays[k] for k in BILSTM_WEIGHTS), docs)))
    assert len(started) == threads


@pytest.mark.parametrize("trial", range(5))
def test_grad_add_halves(trial):
    rng = np.random.default_rng(720 + trial)
    a = _rand(rng, (6, 3))
    w = _rand(rng, (3, 3))
    _check(lambda p: add(sum_all(mul(add_halves(p["a"]), w)),
                         sum_all(activate(add_halves(p["a"]), "tanh"))), {"a": a})


def test_add_halves_equals_the_sum_of_the_halves_and_rejects_an_odd_row_count():
    a = np.random.default_rng(0).normal(size=(6, 4))
    np.testing.assert_array_equal(add_halves(a).value, add(a[:3], a[3:]).value)
    for rows in (1, 5):
        with pytest.raises(ShapeError, match="halves"):
            add_halves(np.ones((rows, 2)))


@pytest.mark.parametrize("docs", [1, 2])
def test_a_second_sweep_through_a_bilstm_node_raises_a_typed_error(docs):
    arrays = _bilstm_arrays(np.random.default_rng(3), 3, 2, 4, docs)
    x = Node(arrays["x"])
    root = sum_all(bilstm(x, *(arrays[k] for k in BILSTM_WEIGHTS), docs))
    backward(root)
    swept = x.grad.copy()
    with pytest.raises(ValidationError, match="already swept"):
        backward(root)
    np.testing.assert_array_equal(x.grad, swept)


@pytest.mark.parametrize("trial", range(10))
def test_grad_slice_cols(trial):
    rng = np.random.default_rng(700 + trial)
    a = _rand(rng, (3, 5))
    w = _rand(rng, (3, 2))
    _check(lambda p: add(sum_all(mul(slice_cols(p["a"], 1, 3), w)),
                         sum_all(activate(slice_cols(p["a"], 2, 5), "tanh"))), {"a": a})


def test_slice_cols_full_range_is_the_input_and_bad_ranges_raise():
    a = Node(np.ones((2, 3)))
    assert slice_cols(a, 0, 3) is a
    for lo, hi in [(1, 1), (2, 1), (-1, 2), (0, 4)]:
        with pytest.raises(ShapeError):
            slice_cols(a, lo, hi)


def test_backward_keeps_leaf_gradients_and_releases_intermediate_ones():
    x = Node(np.array([[1.0, -2.0]]))
    w = Node(np.array([[3.0], [4.0]]))
    hidden = activate(matmul(x, w), "tanh")
    root = scale(hidden, 2.0)
    backward(root)
    slope = 2.0 * (1.0 - math.tanh(-5.0) ** 2)
    np.testing.assert_allclose(x.grad, slope * w.value.T, rtol=1e-15)
    np.testing.assert_allclose(w.grad, slope * x.value.T, rtol=1e-15)
    for node in (root, hidden, hidden._parents[0]):
        assert node._grad is None


def test_lstm_rejects_overflow_and_bad_shapes():
    # wx @ x and b are each 1e308, so the first pre-activation overflows to inf
    big = np.full((4, 1), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        lstm(np.ones((1, 2)), big, np.zeros((4, 1)), big)
    with pytest.raises(ShapeError):
        lstm(np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 1)), np.ones((4, 1)))


@pytest.mark.parametrize("shapes, parent, parent_shape", [
    # (ab)c costs 2*4*(3+8) = 88 against a(bc) at 3*8*(4+2) = 144
    (((2, 3), (3, 4), (4, 8)), 0, (2, 4)),
    # (ab)c costs 8*3*(4+2) = 144 against a(bc) at 4*2*(3+8) = 88
    (((8, 4), (4, 3), (3, 2)), 1, (4, 2)),
])
@pytest.mark.parametrize("trial", range(10))
def test_grad_matmul_chain_each_order(trial, shapes, parent, parent_shape):
    rng = np.random.default_rng(250 + trial)
    a, b, c = (_rand(rng, s) for s in shapes)
    w = _rand(rng, (shapes[0][0], shapes[2][1]))
    out = matmul_chain(a, b, c)
    assert out.value.shape == w.shape
    assert out._parents[parent].value.shape == parent_shape
    assert out._parents[parent]._parents  # the intermediate product, not an operand
    np.testing.assert_allclose(out.value, a @ b @ c, rtol=0, atol=1e-12)
    _check(lambda p: sum_all(mul(matmul_chain(p["a"], p["b"], p["c"]), w)),
           {"a": a, "b": b, "c": c})


def test_matmul_chain_tie_keeps_left_order_and_checks_shapes():
    # square operands cost the same both ways
    out = matmul_chain(np.eye(2), 2 * np.eye(2), 3 * np.eye(2))
    assert out._parents[0]._parents
    np.testing.assert_array_equal(out.value, 6 * np.eye(2))
    with pytest.raises(ShapeError):
        matmul_chain(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 1)))


def _softmax_columns_reference(a, mask):
    """Softmax over the gathered valid rows: the oracle for `softmax_columns`."""
    valid = np.asarray(mask).astype(bool)
    x = a[valid, :]
    e = np.exp(x - x.max(axis=0, keepdims=True))
    out = np.zeros_like(a)
    out[valid, :] = e / e.sum(axis=0, keepdims=True)
    return out


def test_softmax_columns_matches_fancy_index_reference():
    rng = np.random.default_rng(41)
    for _ in range(500):
        n, k = rng.integers(1, 12), rng.integers(1, 6)
        a = rng.normal(scale=rng.choice([0.1, 3.0, 300.0]), size=(n, k))
        mask = rng.integers(0, 2, size=n).astype(bool)
        mask[rng.integers(n)] = True
        got = softmax_columns(a, mask).value
        want = _softmax_columns_reference(a, mask)
        if k >= 2:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert (got[~mask] == 0.0).all()


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_grad_softmax_columns(trial):
    rng = np.random.default_rng(500 + trial)
    x = _rand(rng, (4, 3), -3.0, 3.0)
    w = _rand(rng, (4, 3))
    mask = rng.integers(0, 2, size=4)
    if mask.sum() == 0:
        mask[0] = 1

    def f(p):
        return sum_all(mul(softmax_columns(p["x"], mask), p["w"]))

    _check(f, {"x": x, "w": w})


def test_sum_nodes_orders_terms():
    nodes = [Node(np.array([[float(i)]])) for i in range(4)]
    assert sum_nodes(nodes).value[0, 0] == 6.0
    with pytest.raises(ShapeError):
        sum_nodes([])
