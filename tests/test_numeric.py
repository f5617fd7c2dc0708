import math
import threading
import tracemalloc

import numpy as np
import pytest

from laha import numeric
from laha.errors import DegenerateInputError, NumericalError, ShapeError, ValidationError
from laha.numeric import (
    Node,
    add_colvec,
    add_halves,
    backward,
    bce_with_logits,
    bilstm,
    gate,
    matmul,
    matmul_chain,
    mix_columns,
    relu,
    slice_cols,
    softmax_product,
    take_rows,
    tanh_product,
    transpose,
)

from extra_ops import (
    add,
    bilstm_oracle,
    const_minus,
    div,
    gate_oracle,
    grad_check,
    log_sigmoid,
    lstm,
    mix_columns_oracle,
    mul,
    paper_gate,
    scale,
    scale_cols,
    softmax_columns,
    softmax_product_oracle,
    sum_all,
    sum_nodes,
    tanh,
    vconcat,
)


def _rows(x, mask):
    """`mask`, or all of x's rows where no mask is meant: the fused op takes one always."""
    return np.ones(np.shape(x)[0], dtype=bool) if mask is None else mask


# A column softmax two ways: the per-step op, and the fused op on x = (x^T)^T I^T
SOFTMAXES = {
    "softmax_columns": softmax_columns,
    "softmax_product": lambda x, mask=None: softmax_product(
        Node(np.eye(np.shape(x)[1])), Node(np.transpose(x)), _rows(x, mask)),
}


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Node(a), Node(np.eye(2)))
    np.testing.assert_array_equal(out.value, a)


def test_matmul_hand_computed():
    # [[1,2],[3,4]] @ [[5],[6]]: rows give 1*5+2*6=17 and 3*5+4*6=39
    out = matmul(Node(np.array([[1.0, 2.0], [3.0, 4.0]])), Node(np.array([[5.0], [6.0]])))
    np.testing.assert_array_equal(out.value, np.array([[17.0], [39.0]]))


def test_matmul_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Node(a), Node(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.value, np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Node(np.ones((2, 3))), Node(np.ones((2, 2))))


def test_matmul_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = Node(rng.normal(size=(3, 4)))
        b = Node(rng.normal(size=(4, 2)))
        c = Node(rng.normal(size=(2, 5)))
        left = matmul(matmul(a, b), c).value
        right = matmul(a, matmul(b, c)).value
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_equal_values_uniform():
    for softmax in SOFTMAXES.values():
        out = softmax(np.zeros((4, 1)))
        np.testing.assert_allclose(out.value, np.full((4, 1), 0.25), atol=1e-15)


def test_softmax_closed_form():
    # column [0, ln 2] -> [1/3, 2/3] because e^0 = 1 and e^{ln 2} = 2
    for softmax in SOFTMAXES.values():
        out = softmax(np.array([[0.0], [math.log(2.0)]]))
        np.testing.assert_allclose(out.value, np.array([[1 / 3], [2 / 3]]), atol=1e-12)


def test_softmax_masked_renormalizes():
    for softmax in SOFTMAXES.values():
        out = softmax(np.array([[5.0], [5.0], [5.0]]), mask=[1, 1, 0])
        np.testing.assert_allclose(out.value, np.array([[0.5], [0.5], [0.0]]), atol=1e-15)
        assert out.value[2, 0] == 0.0


def test_softmax_all_masked_is_degenerate():
    for softmax in SOFTMAXES.values():
        with pytest.raises(DegenerateInputError):
            softmax(np.ones((3, 2)), mask=[0, 0, 0])
        with pytest.raises(ShapeError):
            softmax(np.ones((3, 2)), mask=[1, 1])


def test_softmax_columns_sum_to_one_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, k = rng.integers(1, 8), rng.integers(1, 6)
        m = rng.normal(scale=3.0, size=(n, k))
        mask = rng.integers(0, 2, size=n)
        if mask.sum() == 0:
            mask[rng.integers(0, n)] = 1
        for softmax in SOFTMAXES.values():
            out = softmax(m, mask).value
            np.testing.assert_allclose(out.sum(axis=0), np.ones(k), atol=1e-9)
            assert (out >= 0.0).all() and (out <= 1.0).all()
            assert (out[mask == 0, :] == 0.0).all()


def test_softmax_overflow_safe():
    for softmax in SOFTMAXES.values():
        out = softmax(np.array([[1e4], [1e4 - 700.0]]))
        assert np.isfinite(out.value).all()


def test_activation_values():
    assert tanh(Node(np.zeros((1, 1)))).value[0, 0] == 0.0
    assert gate(Node(np.zeros((1, 1))), Node(np.zeros((1, 1)))).value[0, 0] == 0.5
    assert relu(Node(np.array([[-3.2]]))).value[0, 0] == 0.0


def test_sigmoid_is_bit_identical_to_dividing_each_branch():
    # the two-branch form 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|)
    x = np.concatenate([np.random.default_rng(5).normal(scale=s, size=2000) for s in (0.1, 10, 800)]
                       + [np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])])
    e = np.exp(-np.abs(x))
    np.testing.assert_array_equal(numeric.sigmoid(x), np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))


def test_in_place_sigmoid_is_bit_identical_to_the_two_branch_where():
    # the formula the public sigmoid used before, on a strided view, special values included
    x = np.concatenate([np.random.default_rng(6).normal(scale=s, size=1000) for s in (1, 50, 800)]
                       + [np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 745.0, -745.0,
                                    746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan])])
    e = np.exp(np.copysign(x, -1.0))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    buffer = np.zeros((x.size, 2))
    buffer[:, 1] = x
    view = buffer[:, 1]
    assert numeric._sigmoid(view, np.empty(x.size)) is view
    np.testing.assert_array_equal(view.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(numeric.sigmoid(x).view(np.int64), want.view(np.int64))
    assert not buffer[:, 0].any()


@pytest.mark.parametrize("value", [["a"], [[1.0, 2.0], [3.0]], [1.0, object()]],
                         ids=["strings", "ragged", "an object"])
def test_sigmoid_rejects_what_is_not_numbers_in_a_regular_array(value):
    with pytest.raises(ValidationError, match="expected an array of numbers"):
        numeric.sigmoid(value)


def test_sigmoid_leaves_its_input_as_it_was():
    x = np.array([[-800.0, -1.0], [0.0, 3.5]])
    before = x.copy()
    assert numeric.sigmoid(x) is not x
    np.testing.assert_array_equal(x, before)

def test_non_finite_input_rejected():
    with pytest.raises(NumericalError):
        Node(np.array([[np.inf]]))
    with pytest.raises(NumericalError):
        Node(np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize("value", [np.ones((2, 2, 2)), np.ones((2, 0)), np.ones((0, 3)), 1.0],
                         ids=["3-D", "no columns", "no rows", "0-D"])
def test_as_matrix_rejects_what_is_not_a_nonempty_matrix(value):
    with pytest.raises(ShapeError, match="2-D matrix|dimensions must be positive"):
        numeric.as_matrix(value)
    with pytest.raises(ShapeError):
        Node(value)


@pytest.mark.parametrize("value", [[["x"] * 3] * 2, [[1.0, 2.0], [3.0]], [[1.0, object()]]],
                         ids=["strings", "ragged", "an object"])
def test_as_matrix_rejects_what_is_not_numbers_in_a_regular_array(value):
    for coerce in (numeric.as_matrix, numeric.as_floats, Node):
        with pytest.raises(ValidationError, match="expected an array of numbers"):
            coerce(value)


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
    out = bce_with_logits([Node(z)], [y])
    assert out.value[0, 0] == pytest.approx(2 * math.log(2.0) + math.log(4 / 3), abs=1e-15)
    with pytest.raises(ShapeError):
        bce_with_logits([Node(z)], [np.zeros((1, 2))])
    with pytest.raises(ShapeError):
        bce_with_logits([Node(z), Node(z)], [y])
    with pytest.raises(ValidationError):
        bce_with_logits([], [])
    with pytest.raises(ValidationError, match="expected an array of numbers"):
        bce_with_logits([Node(z)], [[["y", "n", "y"]]])


@pytest.mark.parametrize("trial", range(20))
def test_bce_with_logits_is_bit_identical_to_the_mean_of_per_document_nodes(trial):
    # the batch op against one op per document, folded with `add` and scaled by 1 / documents
    rng = np.random.default_rng(900 + trial)
    docs = int(rng.integers(1, 6))
    zs = [rng.normal(scale=4.0, size=(1, int(rng.integers(1, 9)))) for _ in range(docs)]
    ys = [rng.integers(0, 2, size=z.shape).astype(float) for z in zs]
    fused = [Node(z) for z in zs]
    root = bce_with_logits(fused, ys)
    backward(root)
    alone = [Node(z) for z in zs]
    oracle = scale(sum_nodes([bce_with_logits([a], [y]) for a, y in zip(alone, ys)]), 1.0 / docs)
    want = oracle.value.copy()
    backward(oracle)
    np.testing.assert_array_equal(root.value, want)
    for got, ref in zip(fused, alone):
        np.testing.assert_array_equal(got.grad, ref.grad)


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
    g = lambda x, w: sum_all(tanh(matmul(x, w)))
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
    _check(lambda p: sum_all(tanh(add_colvec(p["m"], p["v"]))),
           {"m": m, "v": v})
    _check(lambda p: sum_all(tanh(scale_cols(p["m"], p["r"]))),
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
    _check(lambda p: sum_all(tanh(p["x"])), {"x": x})
    _check(lambda p: sum_all(mul(gate(p["x"], p["y"]), p["w"])),
           {"x": x, "y": _rand(rng, (3, 3), -4.0, 4.0), "w": _rand(rng, (3, 3))})
    _check(lambda p: sum_all(relu(p["x"])), {"x": x_relu})
    _check(lambda p: bce_with_logits([p["x"]], [y]), {"x": x})
    _check(lambda p: bce_with_logits([p["x"], slice_cols(p["x"], 1, 3)], [y, y[:, 1:]]),
           {"x": x})
    _check(lambda p: sum_all(mul(log_sigmoid(p["x"]), p["w"])), {"x": x, "w": _rand(rng, (3, 3))})


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
    """A docs * n x d table, then each direction's wx, wh, b, drawn from [-scale, scale]."""
    shapes = [(d, docs * n)] + [(4 * r, d), (4 * r, r), (4 * r, 1)] * 2
    arrays = dict(zip(("table", *BILSTM_WEIGHTS), (_rand(rng, s, -scale, scale) for s in shapes)))
    arrays["table"] = np.ascontiguousarray(arrays["table"].T)  # row t is read at position t
    return arrays


def _leaves(arrays):
    """Fresh leaves over `_bilstm_arrays`' table, then over each direction's wx, wh, b."""
    return [Node(arrays[k]) for k in ("table", *BILSTM_WEIGHTS)]


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
    params["table"] *= 2.0
    w, ids = _rand(rng, (4, docs * 4)), np.arange(docs * 4).reshape(docs, 4)
    _check(lambda p: sum_all(mul(bilstm(p["table"], ids, *(p[k] for k in BILSTM_WEIGHTS)), w)),
           params)
    assert bool(started) is threaded


@pytest.mark.parametrize("d, r, n, docs", [(5, 3, 6, 3), (20, 256, 5, 1), (30, 160, 4, 3)])
def test_bilstm_is_bit_identical_to_two_lstm_nodes(two_cpus, d, r, n, docs):
    rng = np.random.default_rng(d + r + n + docs)
    arrays = _bilstm_arrays(rng, d, r, n, docs, math.sqrt(6.0 / (d + r)))
    w, ids = rng.normal(size=(2 * r, docs * n)), np.arange(docs * n).reshape(docs, n)
    got, want = [{k: Node(a) for k, a in arrays.items()} for _ in range(2)]
    node = bilstm(got["table"], ids, *(got[k] for k in BILSTM_WEIGHTS))
    h = bilstm_oracle(want["table"], ids, *(want[k] for k in BILSTM_WEIGHTS))
    np.testing.assert_array_equal(node.value, h.value)
    backward(sum_all(mul(node, w)))
    backward(sum_all(mul(h, w)))
    for k in arrays:
        np.testing.assert_array_equal(got[k].grad, want[k].grad, err_msg=k)


# how `bilstm` steps its directions: `_WORKER_MIN`, the usable CPUs, and the worker threads a pass
# starts: in lockstep on the caller, as two stacks with the reverse one on a worker, or as two
# stacks one after the other on one CPU
SCHEDULES = {"lockstep": (math.inf, {0, 1}, 0), "worker": (0, {0, 1}, 1), "one cpu": (0, {0}, 0)}


def _force(monkeypatch, schedule: str) -> int:
    """Force a schedule on `bilstm`; return the worker threads it starts per pass."""
    worker_min, cpus, threads = SCHEDULES[schedule]
    monkeypatch.setattr(numeric, "_WORKER_MIN", worker_min)
    monkeypatch.setattr(numeric.os, "sched_getaffinity", lambda pid: cpus)
    return threads


@pytest.mark.parametrize("d, r, n", [(7, 5, 4), (32, 32, 14)])
@pytest.mark.parametrize("docs", [1, 3])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_every_bilstm_schedule_is_bit_identical_to_the_oracle(
        monkeypatch, started, schedule, d, r, n, docs):
    threads, before = _force(monkeypatch, schedule), threading.active_count()
    rng = np.random.default_rng(d + r + n + docs)
    arrays = _bilstm_arrays(rng, d, r, n, docs, math.sqrt(6.0 / (d + r)))
    w, ids = rng.normal(size=(2 * r, docs * n)), np.arange(docs * n).reshape(docs, n)
    got, want = [{k: Node(a) for k, a in arrays.items()} for _ in range(2)]
    node = bilstm(got["table"], ids, *(got[k] for k in BILSTM_WEIGHTS))
    h = bilstm_oracle(want["table"], ids, *(want[k] for k in BILSTM_WEIGHTS))
    np.testing.assert_array_equal(node.value, h.value)
    root = sum_all(mul(node, w))
    backward(root)
    backward(sum_all(mul(h, w)))
    for k in arrays:
        np.testing.assert_array_equal(got[k].grad, want[k].grad, err_msg=k)
    with pytest.raises(ValidationError, match="already swept"):
        backward(root)
    assert len(started) == 3 * threads  # the forward, the backward and the second sweep
    assert threading.active_count() == before and not any(t.is_alive() for t in started)


# with both directions' weights equal, a palindrome reads the same either way, so the reverse
# direction steps through the forward one's arithmetic: fed the forward half's upstream gradient
# reversed, its states are the forward ones reversed and its weight gradients the same bits
@pytest.mark.parametrize("docs", [1, 2, 3, 4])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bilstm_directions_are_bit_symmetric_on_palindromes(monkeypatch, schedule, docs):
    _force(monkeypatch, schedule)
    d, r, n = 7, 5, 9
    rng = np.random.default_rng(30 + docs)
    half = rng.integers(0, 3 * n, size=(docs, n // 2 + 1))
    ids = np.hstack([half, half[:, -2::-1]])
    assert (ids == ids[:, ::-1]).all()
    arrays = _bilstm_arrays(rng, d, r, n, 3, math.sqrt(6.0 / (d + r)))
    for k in ("wx", "wh", "b"):
        arrays[k + "_b"] = arrays[k + "_f"].copy()
    table, *weights = _leaves(arrays)
    node = bilstm(table, ids, *weights)
    g_f = rng.normal(size=(r, docs, n))
    backward(sum_all(mul(node, np.concatenate([g_f, g_f[:, :, ::-1]]).reshape(2 * r, -1))))
    h_f, h_b = node.value.reshape(2, r, docs, n)
    np.testing.assert_array_equal(h_b, h_f[:, :, ::-1])
    for k, fwd, rev in zip(("wx", "wh", "b"), weights[:3], weights[3:]):
        np.testing.assert_array_equal(rev.grad, fwd.grad, err_msg=k)


def _unit_bilstm(ids):
    """`bilstm` over a 4 x 1 table of ones and d = r = 1 directions of ones."""
    w = [Node(np.ones((4, 1))) for _ in range(3)]
    return bilstm(Node(np.ones((4, 1))), ids, *w, *w)


# the documents are the rows: a flat list of ids, or one with a third axis, has no rows of
# tokens, and the document count is read from the rows alone
@pytest.mark.parametrize("ids", [np.arange(4), np.arange(4).reshape(1, 2, 2)], ids=["1-D", "3-D"])
def test_bilstm_rejects_token_ids_that_are_not_a_document_a_row(ids):
    with pytest.raises(ShapeError, match="token ids"):
        _unit_bilstm(ids)
    assert _unit_bilstm(ids.reshape(2, 2)).value.shape == (2, 4)


# two documents of five positions over a table of five rows: row 1 twice in the first
# document, rows 2 and 3 in both, and the PAD row 0 at the end of each
SHARED_IDS = np.array([[1, 2, 1, 3, 0], [3, 4, 2, 0, 0]])


@pytest.mark.parametrize("schedule", ["lockstep", "worker"])
def test_grad_bilstm_through_a_column_map_that_repeats_tokens(monkeypatch, started, schedule):
    _force(monkeypatch, schedule)
    rng = np.random.default_rng(690)
    params = _bilstm_arrays(rng, 3, 2, 5, 1)
    params["table"] *= 2.0
    w = _rand(rng, (4, SHARED_IDS.size))
    _check(lambda p: sum_all(mul(bilstm(p["table"], SHARED_IDS, *(p[k] for k in BILSTM_WEIGHTS)),
                                 w)), params)
    assert bool(started) is (schedule == "worker")


# at r = 256 a step of 4 to 30 documents multiplies W_h in 8 slices of 128 rows and W_h^T in 8
# of 32: 4 and 10 documents are widths where OpenBLAS's AVX-512 kernel sums a slice in other
# last bits than the whole product, and 16 is the `aapd-train` step's.  At r = 128 a step of 16
# to 30 documents takes 2 slices of each, and one of 3 takes both whole, a width where slices
# would sum other bits; at r = 300 neither 109 nor 27 rows divides its product, so both stay
# whole.  The last shape sums dz in blocks of 1 gate row (2^15 // 48000 positions)
@pytest.mark.parametrize("d, r, n, docs", [(7, 5, 4, 1), (7, 5, 6, 3), (32, 32, 14, 2),
                                           (8, 256, 3, 4), (8, 256, 3, 10), (16, 256, 3, 16),
                                           (8, 128, 3, 3), (8, 128, 3, 18), (8, 300, 3, 4),
                                           (3, 4, 4, 12000)])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bilstm_through_a_column_map_is_bit_identical_to_the_oracle(
        monkeypatch, schedule, d, r, n, docs):
    _force(monkeypatch, schedule)
    rng = np.random.default_rng(d + r + n + docs)
    ids = rng.integers(0, n, size=docs * n).reshape(docs, n)  # n rows: tokens repeat, some unused
    arrays = _bilstm_arrays(rng, d, r, n, 1, math.sqrt(6.0 / (d + r)))
    w = rng.normal(size=(2 * r, docs * n))
    got, want = [{k: Node(a) for k, a in arrays.items()} for _ in range(2)]
    node = bilstm(got["table"], ids, *(got[k] for k in BILSTM_WEIGHTS))
    h = bilstm_oracle(want["table"], ids, *(want[k] for k in BILSTM_WEIGHTS))
    np.testing.assert_array_equal(node.value, h.value)
    backward(sum_all(mul(node, w)))
    backward(sum_all(mul(h, w)))
    for k in arrays:
        np.testing.assert_array_equal(got[k].grad, want[k].grad, err_msg=k)


# the steps of the bench's quality model (`aapd-quality`: r = 32, one or several documents) and
# of its one-document scoring at r = 256 (`eurlex-score`) take W_h and W_h^T whole, so their bits
# are those of a `_STEP_SLICE` too large to slice any product
@pytest.mark.parametrize("d, r, n, docs", [(32, 32, 14, 1), (32, 32, 14, 4), (16, 256, 5, 1)])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bilstm_takes_whole_products_at_the_bench_quality_and_scoring_shapes(
        monkeypatch, schedule, d, r, n, docs):
    _force(monkeypatch, schedule)
    rng = np.random.default_rng(d + r + n + docs)
    ids = rng.integers(0, n, size=docs * n).reshape(docs, n)
    arrays = _bilstm_arrays(rng, d, r, n, 1, math.sqrt(6.0 / (d + r)))
    w = rng.normal(size=(2 * r, docs * n))
    runs = []
    for step_slice in (numeric._STEP_SLICE, 2**40):
        monkeypatch.setattr(numeric, "_STEP_SLICE", step_slice)
        leaves = {k: Node(a) for k, a in arrays.items()}
        node = bilstm(leaves["table"], ids, *(leaves[k] for k in BILSTM_WEIGHTS))
        backward(sum_all(mul(node, w)))
        runs.append([node.value] + [leaves[k].grad for k in arrays])
    for k, default, whole in zip(("H", *arrays), *runs):
        np.testing.assert_array_equal(default, whole, err_msg=k)


# token ids, from which `bilstm` builds its column map, for two documents over a 3-row table
@pytest.mark.parametrize("ids, error", [
    ([[0.0, 1.0], [2.0, 0.0]], ValidationError), ([[True, False], [True, False]], ValidationError),
    (1, ShapeError), (np.zeros((2, 0), dtype=np.int64), ShapeError), ([[0, 1], [3, 0]], ShapeError),
    (np.array([[0, -1], [2, 0]], dtype=np.int8), ShapeError),
], ids=["float", "bool", "0-D", "empty", "past-x", "negative"])
def test_bilstm_rejects_a_malformed_column_map(ids, error):
    w = [Node(np.ones(shape)) for shape in ((4, 2), (4, 1), (4, 1))]
    with pytest.raises(error, match="token ids"):
        bilstm(Node(np.ones((3, 2))), ids, *w, *w)


def test_bilstm_rejects_a_direction_that_does_not_fit():
    fits = [Node(np.ones(shape)) for shape in ((4, 2), (4, 1), (4, 1))]
    with pytest.raises(ShapeError):
        bilstm(Node(np.ones((3, 2))), [[0, 1, 2]], *fits, Node(np.ones((4, 3))), *fits[1:])


def test_bilstm_joins_its_worker_after_a_forward_and_a_backward(two_cpus, started):
    before = threading.active_count()
    arrays = _bilstm_arrays(np.random.default_rng(0), 6, 256, 3, 1, 0.1)
    table, *weights = _leaves(arrays)
    node = bilstm(table, [[0, 1, 2]], *weights)
    assert threading.active_count() == before
    backward(sum_all(node))
    assert threading.active_count() == before
    assert len(started) == 2 and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("direction", ["_f", "_b"])
def test_bilstm_overflow_in_either_direction_raises_on_the_caller(monkeypatch, started, direction):
    # wx @ x and b are each 1e308 in one direction only, so its first pre-activation is inf;
    # the worker must see the caller's errstate, or the overflow warning would raise instead
    arrays = _bilstm_arrays(np.random.default_rng(1), 6, 256, 3, 1, 0.1)
    arrays["table"][:] = 1.0 / 6
    arrays["wx" + direction][:] = arrays["b" + direction][:] = 1e308
    before = threading.active_count()
    for schedule in SCHEDULES:
        started.clear()
        threads = _force(monkeypatch, schedule)
        table, *weights = _leaves(arrays)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="pre-activation"):
            bilstm(table, [[0, 1, 2]], *weights)
        assert threading.active_count() == before
        assert len(started) == threads and not any(t.is_alive() for t in started)


def test_bilstm_steps_through_huge_finite_pre_activations(monkeypatch):
    # the squares of 1e200 overflow the per-step check's sum, so it must look at every entry
    arrays = _bilstm_arrays(np.random.default_rng(1), 6, 3, 4, 1, 0.1)
    arrays["table"][:] = 1.0 / 6
    arrays["wx_b"][:] = 1e200
    for schedule in SCHEDULES:
        _force(monkeypatch, schedule)
        table, *weights = _leaves(arrays)
        h = bilstm(table, [[0, 1, 2, 3]], *weights).value
        # every reverse gate is 1, so its cell state counts the tokens read, from the right
        np.testing.assert_array_equal(h[3:], np.tanh([[4.0, 3.0, 2.0, 1.0]] * 3))
        assert np.isfinite(h).all()


# `bilstm`'s traced bytes in state-sized buffers, n x r x docs float64 (one direction's
# states).  The forward keeps the gates (4 a direction) and c (n + 1 steps) beyond H, and half a
# state for the column maps and the rest, such as the lockstep stack of both directions' W_h
# (4r x r: 4r / (n docs) a direction, 0.0125 states at r = 16 and 256 documents); the embedding
# rows x are gathered again for dW_x, not kept.  The backward's peak is H's gradient (2), a block
# each of f's copy, tanh(c) and dc/dh (3 x 4 of the 40 steps a direction in lockstep: 0.6; 3 x 8
# on each of two stacks at once: 1.2), both directions' dh stacked in lockstep (2), the
# step-sized buffers (dh, dc, their next steps and dz: 8 / 40 a direction) and 1/2 for the rest:
# 5.5 and 4.1, under the bounds 6.1 and 5.3 derived for blocks of twice the size (the block is
# pinned below).  It reads 5.15 in lockstep and 3.86-3.91 on the worker.  The dz sums' index,
# whole gate rows of at most `_BPTT_BLOCK` entries (3 rows, 0.2 states here) a call, comes after
# c and the blocks are freed.  At r = 128 and 30 documents both directions step sliced at once
# on either schedule, each with a row-major copy of W_h^T (4r / (n docs) = 0.43 states), and the
# blocks take the same steps as above: 6.35 and 4.95.  It reads 6.02 and 4.65-4.79.  The
# lockstep stack of W_h, 0.85 states there, is counted on its own.
@pytest.mark.parametrize("schedule, r, docs, stacked, states", [
    pytest.param("lockstep", 16, 256, 0.0, 6.1, id="lockstep-6.1"),
    pytest.param("worker", 16, 256, 0.0, 5.3, id="worker-5.3"),
    pytest.param("lockstep", 128, 30, 2 * 4 * 128 / (40 * 30), 6.35, id="lockstep-sliced-6.35"),
    pytest.param("worker", 128, 30, 0.0, 4.95, id="worker-sliced-4.95")])
def test_bilstm_holds_its_gates_and_cell_states_and_few_state_sized_buffers(
        monkeypatch, schedule, r, docs, stacked, states):
    _force(monkeypatch, schedule)
    d, n = 8, 40
    rng = np.random.default_rng(6)
    arrays = _bilstm_arrays(rng, d, r, n, 1, 0.3)
    ids = rng.integers(0, n, size=n * docs).reshape(docs, n)
    table, *weights = _leaves(arrays)
    backward(sum_all(bilstm(table, ids[:1], *weights)))  # first-call imports
    table, *weights = _leaves(arrays)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        node = bilstm(table, ids, *weights)
        kept = tracemalloc.get_traced_memory()[0] - start
        root = sum_all(node)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        backward(root)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    state = n * r * docs * 8
    assert (kept - node.value.nbytes) / state <= 2 * (4 * n + n + 1) / n + 0.5 + stacked
    assert peak / state <= states


# the backward's traced peak above the forward's end, in states, on the one-CPU schedule's two
# stacks, one after the other: H's gradient (2), the first direction's dz_u, a block each of f's
# copy, tanh(c) and dc/dh (3 x 4 of the 40 steps), and 1/2 for the step-sized buffers (dh, dc,
# their next steps and dz: 8 / 40) and the rest.  The dz sums' index (0.2 states) comes after c
# (1) is freed.  Holding the three for every step, as a single block does, would need 5.
def test_bilstm_backward_holds_one_block_of_gate_coefficients(monkeypatch):
    _force(monkeypatch, "one cpu")
    d, r, n, docs = 8, 32, 40, 256
    rng = np.random.default_rng(7)
    arrays = _bilstm_arrays(rng, d, r, n, 1, 0.3)
    ids = rng.integers(0, n, size=n * docs).reshape(docs, n)
    table, *weights = _leaves(arrays)
    backward(sum_all(bilstm(table, ids[:1], *weights)))  # first-call imports
    table, *weights = _leaves(arrays)
    tracemalloc.start()
    try:
        root = sum_all(bilstm(table, ids, *weights))
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        backward(root)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    state, span = n * r * docs * 8, numeric._BPTT_BLOCK // (r * docs)
    assert span == 4
    dz_u = 4 * r * np.unique(ids).size * 8
    assert peak / state <= 2 + dz_u / state + 3 * span / n + 0.5


# one block covers all 40 steps on the one-CPU schedule's two stacks (64 steps a block).  While
# the first direction steps back it holds H's gradient (2) and f's copy, tanh(c) and dc/dh (3)
# beside the forward's arrays, less its c (1 + 1/40), freed once the block's coefficients are
# formed, and 1/2 for the step-sized buffers (8 / 40) and the rest.  It reads 4.2; holding c
# through the steps reads 5.3.
def test_bilstm_frees_c_before_a_single_block_steps_back(monkeypatch):
    _force(monkeypatch, "one cpu")
    d, r, n, docs = 8, 16, 40, 32
    assert numeric._BPTT_BLOCK // (r * docs) >= n
    rng = np.random.default_rng(8)
    arrays = _bilstm_arrays(rng, d, r, n, 1, 0.3)
    ids = rng.integers(0, n, size=n * docs).reshape(docs, n)
    table, *weights = _leaves(arrays)
    backward(sum_all(bilstm(table, ids[:1], *weights)))  # first-call imports
    table, *weights = _leaves(arrays)
    stepping, matmul = [], np.matmul

    def traced_matmul(*args, **kwargs):  # in the backward, only each step's dh_next calls it
        stepping.append(tracemalloc.get_traced_memory()[0])
        return matmul(*args, **kwargs)

    tracemalloc.start()
    try:
        root = sum_all(bilstm(table, ids, *weights))
        start = tracemalloc.get_traced_memory()[0]
        monkeypatch.setattr(np, "matmul", traced_matmul)
        backward(root)
    finally:
        tracemalloc.stop()
    assert len(stepping) == 2 * n
    assert (max(stepping) - start) / (n * r * docs * 8) <= 2 + 3 - 1 + 0.5


# the peak of the `bilstm` node's own backward above its start, in gate buffers (4r x n x docs
# float64 a direction, both directions), with both directions' BPTT at once: in one stack, or
# the reverse one on the worker.  Every position reads a token of its own, so the dz sums per
# token (4r x U a direction) are as large as the gates: in a buffer of their own they would be a
# second gate buffer.  `_BPTT_BLOCK` at 4 r docs floats makes the block scratch (three blocks a
# stack) and the dz sums' index blocks small.  Beside them the backward holds a copy of H's
# gradient (1/4), the step-sized buffers, and the d x U input gradients (1/16 each): it reads
# 0.54-0.55.  With the dz sums in a buffer of their own it reads 1.24-1.31.
@pytest.mark.parametrize("schedule", ["lockstep", "worker"])
def test_bilstm_sums_dz_in_the_gate_buffer(monkeypatch, schedule):
    _force(monkeypatch, schedule)
    d, r, n, docs = 8, 16, 40, 8
    monkeypatch.setattr(numeric, "_BPTT_BLOCK", 4 * r * docs)
    rng = np.random.default_rng(12)
    arrays = _bilstm_arrays(rng, d, r, n, docs, 0.3)
    ids = rng.permutation(n * docs).reshape(docs, n)
    table, *weights = _leaves(arrays)
    backward(sum_all(bilstm(table, ids[:, :2], *weights)))  # first-call imports
    table, *weights = _leaves(arrays)
    node, peaks = bilstm(table, ids, *weights), []
    node_backward = node._backward

    def traced_backward(grad):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        node_backward(grad)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    node._backward = traced_backward
    root = sum_all(node)
    tracemalloc.start()
    try:
        backward(root)
    finally:
        tracemalloc.stop()
    gates, scratch = 2 * 4 * r * n * docs * 8, 2 * 3 * numeric._BPTT_BLOCK * 8
    assert len(peaks) == 1 and peaks[0] <= gates + scratch


# `_BPTT_BLOCK` at 4 r docs floats gives blocks of 4 steps a direction on two stacks and of 2
# in lockstep, so 11 steps run in 3 or 6 blocks, the last one partial; dz is summed a gate row
# a call.  At 3 n docs floats dz is summed 3 gate rows a call, so each direction's 4r = 20 rows
# end in a partial block, and a block taken over both directions' 40 rows would straddle the two
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bilstm_in_several_blocks_is_bit_identical_to_the_oracle(monkeypatch, started, schedule):
    threads = _force(monkeypatch, schedule)
    d, r, n, docs = 7, 5, 11, 3
    rng = np.random.default_rng(11)
    ids = rng.integers(0, n, size=docs * n).reshape(docs, n)
    arrays = _bilstm_arrays(rng, d, r, n, 1, math.sqrt(6.0 / (d + r)))
    w = rng.normal(size=(2 * r, docs * n))
    for block in (4 * r * docs, 3 * n * docs):
        monkeypatch.setattr(numeric, "_BPTT_BLOCK", block)
        got, want = [{k: Node(a) for k, a in arrays.items()} for _ in range(2)]
        node = bilstm(got["table"], ids, *(got[k] for k in BILSTM_WEIGHTS))
        h = bilstm_oracle(want["table"], ids, *(want[k] for k in BILSTM_WEIGHTS))
        np.testing.assert_array_equal(node.value, h.value)
        backward(sum_all(mul(node, w)))
        backward(sum_all(mul(h, w)))
        for k in arrays:
            np.testing.assert_array_equal(got[k].grad, want[k].grad, err_msg=k)
    assert len(started) == 4 * threads
    assert numeric._BPTT_BLOCK // (n * docs) == 3 and 4 * r % 3  # over 40 rows: [18, 21) straddles


@pytest.mark.parametrize("r, docs, cpus, threads", [
    (32, 1, {0, 1}, 0),         # aapd-quality: r = 32, one document per batch
    (256, 16, {0}, 0),          # aapd-train with one usable CPU
    (256, 16, {0, 1}, 2),       # aapd-train: r = 256, 16 documents per batch
    (256, 1, {0, 1}, 2),        # eurlex-score: r = 256, one document at a time
    (128, 2, {0, 1, 2, 3}, 0),
    (256, 1, 1, 0),             # affinity call missing (macOS, Windows): os.cpu_count() is 1
    (256, 1, 2, 2),             # affinity call missing, os.cpu_count() is 2
])
def test_bilstm_takes_a_worker_only_at_large_shapes_with_two_cpus(
        monkeypatch, started, r, docs, cpus, threads):
    if isinstance(cpus, int):
        monkeypatch.delattr(numeric.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(numeric.os, "cpu_count", lambda: cpus)
    else:
        monkeypatch.setattr(numeric.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    arrays = _bilstm_arrays(np.random.default_rng(2), 1, r, 1, docs, 0.1)
    table, *weights = _leaves(arrays)
    backward(sum_all(bilstm(table, np.arange(docs).reshape(docs, 1), *weights)))
    assert len(started) == threads


@pytest.mark.parametrize("trial", range(5))
def test_grad_add_halves(trial):
    rng = np.random.default_rng(720 + trial)
    a = _rand(rng, (6, 3))
    w = _rand(rng, (3, 3))
    _check(lambda p: add(sum_all(mul(add_halves(p["a"]), w)),
                         sum_all(tanh(add_halves(p["a"])))), {"a": a})


def test_add_halves_equals_the_sum_of_the_halves_and_rejects_an_odd_row_count():
    a = np.random.default_rng(0).normal(size=(6, 4))
    np.testing.assert_array_equal(add_halves(Node(a)).value, add(a[:3], a[3:]).value)
    for rows in (1, 5):
        with pytest.raises(ShapeError, match="halves"):
            add_halves(Node(np.ones((rows, 2))))


@pytest.mark.parametrize("docs", [1, 2])
def test_a_second_sweep_through_a_bilstm_node_raises_a_typed_error(docs):
    arrays = _bilstm_arrays(np.random.default_rng(3), 3, 2, 4, docs)
    table, *weights = _leaves(arrays)
    root = sum_all(bilstm(table, np.arange(docs * 4).reshape(docs, 4), *weights))
    backward(root)
    swept = table.grad.copy()
    with pytest.raises(ValidationError, match="already swept"):
        backward(root)
    np.testing.assert_array_equal(table.grad, swept)


@pytest.mark.parametrize("trial", range(10))
def test_grad_slice_cols(trial):
    rng = np.random.default_rng(700 + trial)
    a = _rand(rng, (3, 5))
    w = _rand(rng, (3, 2))
    _check(lambda p: add(sum_all(mul(slice_cols(p["a"], 1, 3), w)),
                         sum_all(tanh(slice_cols(p["a"], 2, 5)))), {"a": a})


def test_slice_cols_full_range_is_the_input_and_bad_ranges_raise():
    a = Node(np.ones((2, 3)))
    assert slice_cols(a, 0, 3) is a
    for lo, hi in [(1, 1), (2, 1), (-1, 2), (0, 4)]:
        with pytest.raises(ShapeError):
            slice_cols(a, lo, hi)


def test_backward_keeps_leaf_gradients_and_releases_intermediate_ones():
    x = Node(np.array([[1.0, -2.0]]))
    w = Node(np.array([[3.0], [4.0]]))
    hidden = tanh(matmul(x, w))
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
    out = matmul_chain(Node(a), Node(b), Node(c))
    assert out.value.shape == w.shape
    assert out._parents[parent].value.shape == parent_shape
    assert out._parents[parent]._parents  # the intermediate product, not an operand
    np.testing.assert_allclose(out.value, a @ b @ c, rtol=0, atol=1e-12)
    _check(lambda p: sum_all(mul(matmul_chain(p["a"], p["b"], p["c"]), w)),
           {"a": a, "b": b, "c": c})


def test_matmul_chain_tie_keeps_left_order_and_checks_shapes():
    # square operands cost the same both ways
    out = matmul_chain(Node(np.eye(2)), Node(2 * np.eye(2)), Node(3 * np.eye(2)))
    assert out._parents[0]._parents
    np.testing.assert_array_equal(out.value, 6 * np.eye(2))
    with pytest.raises(ShapeError):
        matmul_chain(Node(np.ones((2, 3))), Node(np.ones((2, 3))), Node(np.ones((3, 1))))


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


# More labels than words gives a wide words x labels product, fewer a tall one
@pytest.mark.parametrize("labels, words", [(4, 3), (3, 4)])
@pytest.mark.parametrize("trial", range(30))
def test_grad_softmax_product(trial, labels, words):
    rng = np.random.default_rng(600 + trial)
    a, b = _rand(rng, (labels, 2), -1.5, 1.5), _rand(rng, (2, words), -1.5, 1.5)
    w = _rand(rng, (words, labels))
    mask = rng.integers(0, 2, size=words)
    mask[rng.integers(words)] = 1
    assert softmax_product(Node(a), Node(b), mask).value.flags.c_contiguous
    _check(lambda p: sum_all(mul(softmax_product(p["a"], p["b"], mask), p["w"])),
           {"a": a, "b": b, "w": w})


@pytest.mark.parametrize("trial", range(30))
def test_grad_mix_columns(trial):
    rng = np.random.default_rng(700 + trial)
    a, b, w = (_rand(rng, (3, 4)) for _ in range(3))
    u = _rand(rng, (1, 4))
    _check(lambda p: sum_all(mul(mix_columns(p["a"], p["u"], p["b"]), p["w"])),
           {"a": a, "u": u, "b": b, "w": w})


@pytest.mark.parametrize("trial", range(30))
def test_grad_tanh_product(trial):
    rng = np.random.default_rng(750 + trial)
    a, b, w = _rand(rng, (3, 2), -1.5, 1.5), _rand(rng, (2, 4), -1.5, 1.5), _rand(rng, (3, 4))
    _check(lambda p: sum_all(mul(tanh_product(p["a"], p["b"]), p["w"])),
           {"a": a, "b": b, "w": w})


def _value_and_grads(build, arrays, weight):
    """An op's value and every operand's gradient of sum(op * weight), the graph built anew."""
    leaves = [Node(a) for a in arrays]
    out = build(*leaves)
    backward(sum_all(mul(out, weight)))
    return out.value, [leaf.grad for leaf in leaves]


def test_softmax_product_is_bit_identical_to_matmul_then_softmax_columns():
    rng = np.random.default_rng(43)
    for _ in range(60):
        m, inner, n = (int(x) for x in rng.integers(1, 40, size=3))
        a, b = rng.normal(size=(m, inner)), rng.normal(size=(inner, n))
        mask = rng.integers(0, 2, size=n).astype(bool)
        mask[rng.integers(n)] = True
        weight = rng.normal(size=(n, m))
        fused = _value_and_grads(lambda x, y: softmax_product(x, y, mask), (a, b), weight)
        oracle = _value_and_grads(lambda x, y: softmax_product_oracle(x, y, mask), (a, b), weight)
        assert fused[0].flags.c_contiguous and oracle[0].flags.c_contiguous
        np.testing.assert_array_equal(fused[0], oracle[0])
        for got, want in zip(fused[1], oracle[1]):
            np.testing.assert_array_equal(got, want)


def test_mix_columns_is_bit_identical_to_two_scale_cols_and_add():
    # two row-major attention matrices, as both routes hand them over
    rng = np.random.default_rng(44)
    for _ in range(60):
        n, k = (int(x) for x in rng.integers(1, 40, size=2))
        arrays = (rng.random((n, k)), rng.random((1, k)), rng.random((n, k)))
        weight = rng.normal(size=(n, k))
        fused = _value_and_grads(mix_columns, arrays, weight)
        oracle = _value_and_grads(mix_columns_oracle, arrays, weight)
        assert fused[0].flags.c_contiguous and oracle[0].flags.c_contiguous
        np.testing.assert_array_equal(fused[0], oracle[0])
        for got, want in zip(fused[1], oracle[1]):
            np.testing.assert_array_equal(got, want)


# W_s1 H's shapes, d_a x 2r by 2r x n: H is row-major, whole for one document and a column
# slice for each of several, and a column-major b stands for any other layout; one b has a
# single column
@pytest.mark.parametrize("m, inner, n, layout", [
    (3, 4, 5, "C"), (6, 8, 1, "C"), (16, 12, 9, "F"), (24, 64, 40, "slice"), (32, 64, 14, "F"),
    (32, 64, 14, "slice")])
def test_tanh_product_is_bit_identical_to_matmul_then_tanh(m, inner, n, layout):
    rng = np.random.default_rng(m + inner + n)
    b = rng.normal(size=(inner, 3 * n))
    b = {"C": b[:, :n].copy(), "F": np.asfortranarray(b[:, :n]), "slice": b[:, n : 2 * n]}[layout]
    arrays, weight = (rng.normal(size=(m, inner)), b), rng.normal(size=(m, n))
    fused = _value_and_grads(tanh_product, arrays, weight)
    oracle = _value_and_grads(lambda a, b: tanh(matmul(a, b)), arrays, weight)
    np.testing.assert_array_equal(fused[0], oracle[0])
    for got, want in zip(fused[1], oracle[1]):
        np.testing.assert_array_equal(got, want)


def test_tanh_product_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="tanh_product"):
        tanh_product(Node(np.ones((2, 3))), Node(np.ones((2, 2))))


def test_mix_columns_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        mix_columns(Node(np.ones((2, 3))), Node(np.ones((1, 3))), Node(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        mix_columns(Node(np.ones((2, 3))), Node(np.ones((3, 1))), Node(np.ones((2, 3))))


def test_add_colvec_rejects_a_vector_that_is_not_a_column_of_the_matrix_rows():
    for v in (np.ones((3, 1)), np.ones((1, 2)), np.ones((2, 2))):
        with pytest.raises(ShapeError, match="add_colvec"):
            add_colvec(Node(np.ones((2, 3))), Node(v))


def test_softmax_product_rejects_operands_that_do_not_fit():
    with pytest.raises(ShapeError, match="softmax_product"):
        softmax_product(Node(np.ones((2, 3))), Node(np.ones((2, 4))), np.ones(4))


def test_gate_of_saturated_inputs_is_one_half_with_finite_gradients():
    # both sigmoids round to 1 above about 37; equal inputs share any value
    z_a, z_b = np.array([[40.0, 41.0, 39.5, -40.0]]), np.array([[41.0, 40.0, 44.0, -40.0]])
    np.testing.assert_array_equal(gate(Node(z_a), Node(z_b)).value, np.full((1, 4), 0.5))
    leaves = [Node(z_a), Node(z_b)]
    backward(sum_all(mul(gate(*leaves), np.array([[1.0, -2.0, 3.0, 0.5]]))))
    assert all(np.isfinite(leaf.grad).all() for leaf in leaves)
    # on the negative side sigmoid(z) ~ e^z, so alpha is a two-way softmax: slope 1/4 at a tie
    assert leaves[0].grad[0, 3] == pytest.approx(0.5 * 0.25, rel=1e-12)
    _check(lambda p: sum_all(mul(gate(p["a"], p["b"]), np.array([[1.0, -2.0, 3.0, 0.5]]))),
           {"a": z_a, "b": z_b})
    _check(lambda p: sum_all(gate(p["a"], p["b"])),
           {"a": np.array([[-40.0, -39.0, -41.0]]), "b": np.array([[-39.0, -40.0, -42.0]])})


def test_gate_of_inputs_below_minus_354_is_sigmoid_of_their_difference():
    # both sigmoids are e^z to double precision there, and s * s underflows (s itself below
    # about -745): alpha is a two-way softmax, with finite gradients down to -1e4 and beyond
    z_a = np.array([[-400.0, -800.0, -1e4, -1e4, -500.0, 1.5]])
    z_b = np.array([[-401.0, -799.0, -1e4, -9990.0, -10.0, -0.5]])
    weight = np.array([[1.0, -2.0, 3.0, 0.5, 1.0, -1.0]])
    value, (d_a, d_b) = _value_and_grads(gate, (z_a, z_b), weight)
    alpha = value[:, :4]
    np.testing.assert_array_equal(alpha, numeric.sigmoid(z_a - z_b)[:, :4])
    np.testing.assert_array_equal(d_a[:, :4], weight[:, :4] * alpha * (1.0 - alpha))
    np.testing.assert_array_equal(d_b[:, :4], -d_a[:, :4])
    _check(lambda p: sum_all(mul(gate(p["a"], p["b"]), weight)), {"a": z_a, "b": z_b})
    # the oracle's bits hold there, and where one input is above the range
    oracle = _value_and_grads(gate_oracle, (z_a, z_b), weight)
    np.testing.assert_array_equal(value, oracle[0])
    for got, want in zip((d_a, d_b), oracle[1]):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("scale", [0.5, 5.0, 50.0, 500.0])
def test_gate_is_the_papers_ratio_up_to_rounding(scale):
    # alpha within 4 eps max(1, |z_a|, |z_b|) of sigmoid(z_a) / (sigmoid(z_a) + sigmoid(z_b)),
    # each gradient within 4 eps max(1, |z|) |w| of the ratio's, wherever the ratio's sum s has
    # a normal square; at scale 500 some draws leave the ratio's range, and the gate stays finite
    rng = np.random.default_rng(46)
    arrays = tuple(rng.normal(scale=scale, size=(1, 20000)) for _ in "ab")
    weight = rng.normal(size=(1, 20000))
    value, grads = _value_and_grads(gate, arrays, weight)
    assert np.isfinite(value).all() and all(np.isfinite(g).all() for g in grads)
    s = numeric.sigmoid(arrays[0]) + numeric.sigmoid(arrays[1])
    keep = (s * s >= np.finfo(np.float64).tiny)[0]
    assert keep.mean() > 0.9 and keep.all() == (scale < 500)
    (z_a, z_b), eps = (z[:, keep] for z in arrays), np.finfo(np.float64).eps
    paper = _value_and_grads(paper_gate, (z_a, z_b), weight[:, keep])
    bound = 4 * eps * np.maximum(1.0, np.maximum(abs(z_a), abs(z_b)))
    assert (abs(value[:, keep] - paper[0]) <= bound).all()
    for z, got, want in zip((z_a, z_b), grads, paper[1]):
        bound = 4 * eps * np.maximum(1.0, abs(z)) * abs(weight[:, keep])
        assert (abs(got[:, keep] - want) <= bound).all()


def test_gate_is_bit_identical_to_log_sigmoid_and_sigmoid_nodes():
    # random, huge and saturated inputs; zero weights give zero gradients, whose sign must match
    rng = np.random.default_rng(45)
    for _ in range(60):
        shape = tuple(int(x) for x in rng.integers(1, 12, size=2))
        arrays = tuple(rng.normal(scale=rng.choice([0.5, 5.0, 50.0]), size=shape) for _ in "ab")
        weight = rng.normal(size=shape) * rng.integers(0, 2, size=shape)
        fused = _value_and_grads(gate, arrays, weight)
        oracle = _value_and_grads(gate_oracle, arrays, weight)
        np.testing.assert_array_equal(fused[0], oracle[0])
        for got, want in zip(fused[1], oracle[1]):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_gate_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="gate"):
        gate(Node(np.ones((1, 3))), Node(np.ones((1, 2))))


@pytest.mark.parametrize("indices, error", [
    ([], ShapeError), ([[0, 1]], ShapeError), ([0, 3], ShapeError), ([-1], ShapeError),
    ([0.7, 1.2], ValidationError), ([True, False, True], ValidationError),
    (np.array([0.0, 2.0]), ValidationError), (["1"], ValidationError),
], ids=["empty", "2-D", "past the end", "negative", "float", "bool", "float array", "str"])
def test_take_rows_rejects_bad_indices(indices, error):
    with pytest.raises(error):
        take_rows(Node(np.ones((3, 2))), indices)


def test_take_rows_takes_any_integer_dtype():
    a = Node(np.arange(6.0).reshape(3, 2))
    for dtype in (np.int8, np.int32, np.uint16, np.int64):
        np.testing.assert_array_equal(take_rows(a, np.array([2, 0], dtype=dtype)).value,
                                      [[4.0, 5.0], [0.0, 1.0]])


def test_take_rows_identity_is_the_input():
    a = Node(np.arange(6.0).reshape(3, 2))
    assert take_rows(a, [0, 1, 2]) is a
    assert take_rows(a, [0, 2, 1]) is not a
    assert take_rows(a, [0, 1]) is not a


def test_sum_nodes_orders_terms():
    nodes = [Node(np.array([[float(i)]])) for i in range(4)]
    assert sum_nodes(nodes).value[0, 0] == 6.0
    with pytest.raises(ShapeError):
        sum_nodes([])
