import math

import numpy as np
import pytest

from laha import numeric
from laha.errors import DegenerateInputError, NumericalError, ShapeError
from laha.numeric import (
    Node,
    activate,
    add,
    add_colvec,
    backward,
    bce_with_logits,
    const_minus,
    div,
    grad_check,
    lstm,
    matmul,
    mul,
    scale,
    scale_cols,
    softmax_columns,
    sum_all,
    sum_nodes,
    take_rows,
    transpose,
    vconcat,
)


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


def test_non_finite_input_rejected():
    with pytest.raises(NumericalError):
        Node(np.array([[np.inf]]))
    with pytest.raises(NumericalError):
        Node(np.array([[np.nan, 1.0]]))


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        backward(Node(np.ones((2, 2))))


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


def test_lstm_rejects_overflow_and_bad_shapes():
    # wx @ x and b are each 1e308, so the first pre-activation overflows to inf
    big = np.full((4, 1), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        lstm(np.ones((1, 2)), big, np.zeros((4, 1)), big)
    with pytest.raises(ShapeError):
        lstm(np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 1)), np.ones((4, 1)))


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
