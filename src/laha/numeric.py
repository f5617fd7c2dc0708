"""Dense float64 matrices with reverse-mode differentiation.

Every tensor in the model is a 2-D numpy array wrapped in a `Node` that
carries a gradient slot and links to its operands.  `backward()` runs one
reverse sweep from a scalar output; `grad_check()` pits the resulting
gradients against central finite differences.  Ops never broadcast
implicitly (dedicated column/row-vector ops exist instead) and every
produced value is checked finite.  The loss is one fused op,
`bce_with_logits`, on raw logits; `sigmoid` maps logits to probabilities
on plain arrays, outside the graph.  `lstm` runs a whole LSTM direction as
one node: the input projection of every token is a single GEMM, only the
recurrent product and the gate math stay in the per-step loop, and its
backward is hand-written BPTT that checks its stored pre-activations and
cell states finite once instead of per node.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, NumericalError, ShapeError

ACTIVATIONS = ("tanh", "sigmoid", "relu")


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array with positive dimensions."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ShapeError(f"expected a scalar or 2-D matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    return a


class Node:
    """A matrix in the computation graph: value, gradient slot, operand links.

    Leaves wrap caller arrays without copying, so optimizer updates written
    to the original array are seen by the next graph built over it.  The
    gradient starts at zero and is filled by `backward`.
    """

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), _backward=None):
        self.value = as_matrix(value)
        if not np.isfinite(self.value).all():
            raise NumericalError("matrix contains non-finite entries")
        self.grad = np.zeros_like(self.value)
        self._parents = _parents
        self._backward = _backward

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def __repr__(self) -> str:
        kind = "leaf" if not self._parents else "op"
        return f"Node({self.rows}x{self.cols}, {kind})"


def _node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def backward(root: Node) -> None:
    """Reverse sweep from a 1x1 scalar node.

    Gradients accumulate into every reachable node exactly once per call;
    run it on a freshly built graph (a second call would double-count).
    """
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 scalar root, got {root.value.shape}")
    order = _toposort(root)
    root.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Node:
    a, b = _node(a), _node(b)
    _same_shape(a, b, "add")

    def bwd(g):
        a.grad += g
        b.grad += g

    return Node(a.value + b.value, (a, b), bwd)


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product."""
    a, b = _node(a), _node(b)
    _same_shape(a, b, "mul")

    def bwd(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Node(a.value * b.value, (a, b), bwd)


def div(a, b) -> Node:
    """Elementwise quotient a / b."""
    a, b = _node(a), _node(b)
    _same_shape(a, b, "div")
    out = Node(a.value / b.value, (a, b), None)

    def bwd(g):
        a.grad += g / b.value
        b.grad -= g * a.value / (b.value * b.value)

    out._backward = bwd
    return out


def scale(a, c: float) -> Node:
    """Multiply by a constant scalar."""
    a = _node(a)

    def bwd(g):
        a.grad += g * c

    return Node(a.value * c, (a,), bwd)


def const_minus(c: float, a) -> Node:
    """c - a for a constant scalar c."""
    a = _node(a)

    def bwd(g):
        a.grad -= g

    return Node(c - a.value, (a,), bwd)


def matmul(a, b) -> Node:
    """Matrix product a @ b; gradients flow to both operands."""
    a, b = _node(a), _node(b)
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ for {a.value.shape} x {b.value.shape}"
        )

    def bwd(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Node(a.value @ b.value, (a, b), bwd)


def transpose(a) -> Node:
    a = _node(a)

    def bwd(g):
        a.grad += g.T

    return Node(a.value.T, (a,), bwd)


def vconcat(parts: Sequence) -> Node:
    """Stack blocks vertically (same column count)."""
    nodes = [_node(p) for p in parts]
    if not nodes:
        raise ShapeError("vconcat of zero blocks")
    cols = nodes[0].cols
    for n in nodes:
        if n.cols != cols:
            raise ShapeError(f"vconcat: column counts differ ({n.cols} vs {cols})")
    offsets = np.cumsum([0] + [n.rows for n in nodes])

    def bwd(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            n.grad += g[lo:hi, :]

    return Node(np.concatenate([n.value for n in nodes], axis=0), tuple(nodes), bwd)


def take_rows(a, indices) -> Node:
    """Gather rows by index; gradient scatters back (repeats accumulate)."""
    a = _node(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("take_rows needs a nonempty 1-D index list")
    if idx.min() < 0 or idx.max() >= a.rows:
        raise ShapeError(f"take_rows: index out of range for {a.rows} rows")

    def bwd(g):
        np.add.at(a.grad, idx, g)

    return Node(a.value[idx, :], (a,), bwd)


def add_colvec(m, v) -> Node:
    """Add a (rows x 1) column vector to every column of m."""
    m, v = _node(m), _node(v)
    if v.value.shape != (m.rows, 1):
        raise ShapeError(f"add_colvec: expected {(m.rows, 1)}, got {v.value.shape}")

    def bwd(g):
        m.grad += g
        v.grad += g.sum(axis=1, keepdims=True)

    return Node(m.value + v.value, (m, v), bwd)


def scale_cols(m, v) -> Node:
    """Scale column j of m by entry j of a (1 x cols) row vector."""
    m, v = _node(m), _node(v)
    if v.value.shape != (1, m.cols):
        raise ShapeError(f"scale_cols: expected {(1, m.cols)}, got {v.value.shape}")

    def bwd(g):
        m.grad += g * v.value
        v.grad += (g * m.value).sum(axis=0, keepdims=True)

    return Node(m.value * v.value, (m, v), bwd)


def sum_all(a) -> Node:
    """Sum of all entries as a 1x1 node."""
    a = _node(a)

    def bwd(g):
        a.grad += g[0, 0]

    return Node(np.array([[a.value.sum()]]), (a,), bwd)


def sum_nodes(nodes: Sequence[Node]) -> Node:
    """Fold a nonempty sequence with `add` in index order."""
    if not nodes:
        raise ShapeError("sum_nodes of zero terms")
    total = nodes[0]
    for n in nodes[1:]:
        total = add(total, n)
    return total


# ---------------------------------------------------------------------------
# activations, softmax and loss
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of a plain array, split by sign so exp cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activate(a, kind: str) -> Node:
    """Elementwise activation: one of tanh | sigmoid | relu."""
    a = _node(a)
    if kind == "tanh":
        y = np.tanh(a.value)

        def bwd(g):
            a.grad += g * (1.0 - y * y)

    elif kind == "sigmoid":
        y = sigmoid(a.value)

        def bwd(g):
            a.grad += g * y * (1.0 - y)

    elif kind == "relu":
        y = np.maximum(a.value, 0.0)

        def bwd(g):
            a.grad += g * (a.value > 0)

    else:
        raise ValueError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")
    return Node(y, (a,), bwd)


def softmax_columns(a, mask=None) -> Node:
    """Column-wise softmax with optional row validity mask.

    Each column sums to 1 over the valid rows; masked rows come out exactly
    zero and receive zero gradient.  Uses per-column max subtraction so huge
    scores cannot overflow.
    """
    a = _node(a)
    if mask is None:
        valid = np.ones(a.rows, dtype=bool)
    else:
        valid = np.asarray(mask).astype(bool).ravel()
        if valid.shape != (a.rows,):
            raise ShapeError(f"mask length {valid.shape} does not match {a.rows} rows")
        if not valid.any():
            raise DegenerateInputError("softmax_columns: every row is masked out")

    x = a.value[valid, :]
    shifted = x - x.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=0, keepdims=True)
    out_val = np.zeros_like(a.value)
    out_val[valid, :] = probs
    out = Node(out_val, (a,), None)
    s = out.value

    def bwd(g):
        # per column: ds = s * (g - sum(g * s)); masked rows have s == 0
        dot = (g * s).sum(axis=0, keepdims=True)
        a.grad += s * (g - dot)

    out._backward = bwd
    return out


def bce_with_logits(z, y) -> Node:
    """Binary cross-entropy of logits z against constant targets y, summed to 1x1.

    Computed as max(z, 0) - z*y + log1p(exp(-|z|)), which cannot overflow;
    the gradient is sigmoid(z) - y, so a confidently wrong logit keeps a
    gradient of magnitude near 1 instead of saturating to 0.
    """
    z = _node(z)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != z.value.shape:
        raise ShapeError(
            f"bce_with_logits: target shape {y.shape} != logit shape {z.value.shape}"
        )
    x = z.value
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def bwd(g):
        z.grad += g[0, 0] * (sigmoid(x) - y)

    return Node(np.array([[loss.sum()]]), (z,), bwd)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def lstm(x, wx, wh, b, reverse: bool = False) -> Node:
    """One LSTM direction over the columns of x (d x n) as a single node.

    wx (4r x d), wh (4r x r) and b (4r x 1) stack the input, forget, cell
    and output gates.  Every column is stepped, from the right when
    `reverse`; the initial hidden and cell states are zero.  Returns the
    r x n hidden states, column t being the state after reading token t.
    The input projection wx @ x is one GEMM for all tokens; the backward
    pass is hand-written BPTT whose weight gradients are GEMMs over all
    steps.  A non-finite gate pre-activation or cell state raises
    NumericalError.
    """
    x, wx, wh, b = _node(x), _node(wx), _node(wh), _node(b)
    r = wh.cols
    if (wx.rows, wh.rows, b.value.shape, wx.cols) != (4 * r, 4 * r, (4 * r, 1), x.rows):
        raise ShapeError(
            f"lstm: wx {wx.value.shape}, wh {wh.value.shape}, b {b.value.shape} "
            f"do not fit input {x.value.shape}"
        )
    n = x.cols
    xs = x.value[:, ::-1] if reverse else x.value  # columns in stepping order
    z = (wx.value @ xs).T.copy()                    # n x 4r, becomes the pre-activations
    bias = b.value[:, 0]
    gates = np.empty((n, 4, r))                     # i, f, g, o per step
    c = np.zeros((n + 1, r))                        # c[s + 1] is the cell state after step s
    h = np.zeros((n + 1, r))
    for s in range(n):
        zs = z[s]
        zs += wh.value @ h[s]
        zs += bias
        gates[s, :2] = sigmoid(zs[: 2 * r]).reshape(2, r)
        gates[s, 2] = np.tanh(zs[2 * r : 3 * r])
        gates[s, 3] = sigmoid(zs[3 * r :])
        i, f, g, o = gates[s]
        c[s + 1] = f * c[s] + i * g
        h[s + 1] = o * np.tanh(c[s + 1])
    if not (np.isfinite(z).all() and np.isfinite(c).all()):
        raise NumericalError("lstm: non-finite gate pre-activation or cell state")
    hs = h[1:].T
    out = Node(hs[:, ::-1] if reverse else hs, (x, wx, wh, b), None)

    def bwd(grad):
        dh_out = grad.T[::-1] if reverse else grad.T   # n x r, stepping order
        i, f, g, o = gates.transpose(1, 0, 2)
        tc = np.tanh(c[1:])
        dc_dh = o * (1.0 - tc * tc)
        # dz = [dc * k[0], dc * k[1], dc * k[2], dh * k[3]] at each step
        k = np.stack([g * i * (1.0 - i), c[:-1] * f * (1.0 - f), i * (1.0 - g * g),
                      tc * o * (1.0 - o)], axis=1)
        dz = np.empty((n, 4, r))
        dh_next = np.zeros(r)
        dc_next = np.zeros(r)
        for s in range(n - 1, -1, -1):
            dh = dh_out[s] + dh_next
            dc = dc_next + dh * dc_dh[s]
            dz[s, :3] = dc * k[s, :3]
            dz[s, 3] = dh * k[s, 3]
            dh_next = dz[s].reshape(-1) @ wh.value
            dc_next = dc * f[s]
        dz = dz.reshape(n, 4 * r)
        wx.grad += dz.T @ xs.T
        wh.grad += dz.T @ h[:-1]
        b.grad += dz.sum(axis=0)[:, None]
        dx = wx.value.T @ dz.T
        x.grad += dx[:, ::-1] if reverse else dx

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[dict[str, Node]], Node],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Worst relative error of reverse-mode gradients vs central differences.

    `f` maps a dict of leaf nodes to a 1x1 output and must be deterministic.
    Every entry of every parameter is perturbed by +/- epsilon.  The error
    denominator is floored at 1e-6 so finite-difference noise on near-zero
    entries does not dominate; two exact zeros score 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arrays = {k: as_matrix(v) for k, v in params.items()}
    leaves = {k: Node(v) for k, v in arrays.items()}
    out = f(leaves)
    _check_scalar(out)
    backward(out)
    analytic = {k: leaves[k].grad.copy() for k in arrays}

    worst = 0.0
    for k, arr in arrays.items():
        flat = arr.ravel()
        ana = analytic[k].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + epsilon
            f_plus = _eval_scalar(f, arrays)
            flat[i] = keep - epsilon
            f_minus = _eval_scalar(f, arrays)
            flat[i] = keep
            numeric_grad = (f_plus - f_minus) / (2.0 * epsilon)
            denom = max(abs(ana[i]), abs(numeric_grad), 1e-6)
            worst = max(worst, abs(ana[i] - numeric_grad) / denom)
    return worst


def _check_scalar(out: Node) -> None:
    if out.value.shape != (1, 1):
        raise ShapeError(f"grad_check function must return 1x1, got {out.value.shape}")
    if not math.isfinite(out.value[0, 0]):
        raise NumericalError("grad_check function produced a non-finite value")


def _eval_scalar(f, arrays: dict[str, np.ndarray]) -> float:
    out = f({k: Node(v) for k, v in arrays.items()})
    _check_scalar(out)
    return float(out.value[0, 0])
