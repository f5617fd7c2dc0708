"""Dense float64 matrices with reverse-mode differentiation.

Every tensor in the model is a 2-D numpy array wrapped in a `Node` that
carries a lazily allocated gradient slot and links to its operands.
`backward()` runs one reverse sweep from a scalar output; the tests'
`grad_check` pits its gradients against central finite differences.  Ops
never broadcast implicitly (dedicated column/row-vector ops exist
instead).  Finiteness is checked where values enter and leave a graph:
at each leaf, in `lstm` (whose sigmoid and tanh would hide an overflow),
at the root of `backward`, and by the model on its logits and Adam on
its gradients.  A non-finite op value that reaches none of these does
not raise; with finite leaves it is an overflow near 1e308 that a later
op absorbs (a masked softmax row, tanh or relu of +-inf).  The loss is
one fused op, `bce_with_logits`, on raw logits; `sigmoid` maps logits to
probabilities on plain arrays, outside the graph.  `lstm` runs a whole
LSTM direction over a batch of documents as one node: one GEMM projects
every token, the per-step loop keeps only the recurrent GEMM over the
documents and the gate math, and the backward is hand-written BPTT.  A
backward pass consumes its graph: it overwrites the `lstm` node's stored
gates, and it releases each op node's gradient once passed on, so only
the leaves keep theirs.
"""

from __future__ import annotations

from typing import Sequence

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

    A leaf (no parents) wraps a caller array without copying, so optimizer
    updates written to the original array are seen by the next graph built
    over it; only a leaf is coerced to a 2-D float64 array and checked
    finite.  `grad` reads as zeros until `backward` fills it, and its
    buffer is made on first read, so a forward pass makes none.
    """

    __slots__ = ("value", "_grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), _backward=None):
        self.value = value if _parents else as_matrix(value)
        if not _parents and not np.isfinite(self.value).all():
            raise NumericalError("matrix contains non-finite entries")
        self._grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

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
    """Reverse sweep from a 1x1 scalar node, which must be finite; it consumes the graph.

    Gradients accumulate into every reachable leaf exactly once.  Each
    op node's gradient is released as soon as its own backward has run,
    and an `lstm` node overwrites its stored gates, so the graph cannot
    be swept again: build a fresh one for every call.
    """
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 scalar root, got {root.value.shape}")
    if not np.isfinite(root.value).all():
        raise NumericalError(f"backward from a non-finite root {root.value[0, 0]}")
    order = _toposort(root)
    root.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node._grad = None


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


def div(a, b) -> Node:
    """Elementwise quotient a / b."""
    a, b = _node(a), _node(b)
    _same_shape(a, b, "div")

    def bwd(g):
        a.grad += g / b.value
        b.grad -= g * a.value / (b.value * b.value)

    return Node(a.value / b.value, (a, b), bwd)


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


def matmul_chain(a, b, c) -> Node:
    """a @ b @ c in whichever association needs fewer multiply-adds, (ab)c on a tie."""
    a, b, c = _node(a), _node(b), _node(c)
    if a.rows * b.cols * (a.cols + c.cols) <= b.rows * c.cols * (b.cols + a.rows):
        return matmul(matmul(a, b), c)
    return matmul(a, matmul(b, c))


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


def slice_cols(a, lo: int, hi: int) -> Node:
    """Columns lo .. hi - 1 of a, as a view; the full range returns a itself."""
    a = _node(a)
    if not 0 <= lo < hi <= a.cols:
        raise ShapeError(f"slice_cols: [{lo}, {hi}) is not a column range of {a.value.shape}")
    if hi - lo == a.cols:
        return a

    def bwd(g):
        a.grad[:, lo:hi] += g

    return Node(a.value[:, lo:hi], (a,), bwd)


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
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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

    x = np.where(valid[:, None], a.value, -np.inf)
    x -= x.max(axis=0, keepdims=True)
    np.exp(x, out=x)  # masked rows: exp(-inf) == 0 exactly
    x /= x.sum(axis=0, keepdims=True)

    def bwd(g):
        # per column: ds = x * (g - sum(g * x)); masked rows have x == 0
        dot = (g * x).sum(axis=0, keepdims=True)
        a.grad += x * (g - dot)

    return Node(x, (a,), bwd)


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


def lstm(x, wx, wh, b, reverse: bool = False, docs: int = 1) -> Node:
    """One LSTM direction over `docs` equal-length documents as a single node.

    x is d x (docs * n), document j in columns j*n ... j*n + n - 1; wx
    (4r x d), wh (4r x r) and b (4r x 1) stack the input, forget, cell and
    output gates.  Each document is stepped over every column, from the
    right when `reverse`, from zero hidden and cell states.  Returns the
    r x (docs * n) hidden states in x's column order, column t of a
    document being its state after reading token t.  Internal arrays keep
    the documents on their last axis, so each step's recurrent product is
    one GEMM over them, and one document makes the BLAS calls of an
    unbatched LSTM.  wx @ x is one GEMM; the backward is hand-written BPTT
    that overwrites the stored gates, so it runs once.  A non-finite
    pre-activation or cell state raises NumericalError.
    """
    x, wx, wh, b = _node(x), _node(wx), _node(wh), _node(b)
    r, d = wh.cols, x.rows
    if (wx.rows, wh.rows, b.value.shape, wx.cols) != (4 * r, 4 * r, (4 * r, 1), d):
        raise ShapeError(
            f"lstm: wx {wx.value.shape}, wh {wh.value.shape}, b {b.value.shape} "
            f"do not fit input {x.value.shape}"
        )
    if docs < 1 or x.cols % docs:
        raise ShapeError(f"lstm: {x.cols} columns do not split into {docs} documents")
    n, step = x.cols // docs, -1 if reverse else 1
    # column s * docs + j of xs is the s-th token in stepping order of document j
    xs = x.value.reshape(d, docs, n).transpose(0, 2, 1)[:, ::step].reshape(d, n * docs)
    z = (wx.value @ xs).reshape(4 * r, n, docs).transpose(1, 0, 2).copy()  # n x 4r x docs
    gates = np.empty((n, 4, r, docs))               # i, f, g, o per step
    c, h = np.zeros((2, n + 1, r, docs))            # c[s + 1], h[s + 1]: states after step s
    for s in range(n):
        zs = z[s]
        zs += wh.value @ h[s]
        zs += b.value
        gates[s, :2] = sigmoid(zs[: 2 * r]).reshape(2, r, docs)
        gates[s, 2] = np.tanh(zs[2 * r : 3 * r])
        gates[s, 3] = sigmoid(zs[3 * r :])
        i, f, g, o = gates[s]
        c[s + 1] = f * c[s] + i * g
        h[s + 1] = o * np.tanh(c[s + 1])
    if not (np.isfinite(z).all() and np.isfinite(c).all()):
        raise NumericalError("lstm: non-finite gate pre-activation or cell state")

    def to_columns(a):  # stepping-order (n, rows, docs) -> rows x (docs * n) input order
        return a[::step].transpose(1, 2, 0).reshape(a.shape[1], docs * n)

    def bwd(grad):
        dh_out = grad.reshape(r, docs, n).transpose(2, 0, 1)[::step]  # n x r x docs
        # dz = [dc * k[0], dc * k[1], dc * k[2], dh * k[3]] at each step; each k
        # overwrites its gate in the stored buffer, and then dz overwrites k
        i, f, g, o = gates.transpose(1, 0, 2, 3)
        tc = np.tanh(c[1:])
        dc_dh = o * (1.0 - tc * tc)
        f_kept = f.copy()
        o[...] = tc * o * (1.0 - o)
        k2 = i * (1.0 - g * g)
        i[...] = g * i * (1.0 - i)
        g[...] = k2
        f[...] = c[:-1] * f * (1.0 - f)
        del tc, k2
        dh_next = dc_next = np.zeros((r, docs))
        for s in range(n - 1, -1, -1):
            dh = dh_out[s] + dh_next
            dc = dc_next + dh * dc_dh[s]
            dz = gates[s]
            dz[:3] *= dc
            dz[3] *= dh
            dh_next = wh.value.T @ dz.reshape(4 * r, docs)
            dc_next = dc * f_kept[s]
        dz = gates.reshape(n, 4 * r, docs).transpose(1, 0, 2).reshape(4 * r, n * docs)
        wx.grad += dz @ xs.T
        wh.grad += dz @ h[:-1].transpose(0, 2, 1).reshape(n * docs, r)
        b.grad += dz.sum(axis=1)[:, None]
        x.grad += to_columns((wx.value.T @ dz).reshape(d, n, docs).transpose(1, 0, 2))

    return Node(to_columns(h[1:]), (x, wx, wh, b), bwd)

