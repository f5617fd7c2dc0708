"""Dense float64 matrices with reverse-mode differentiation.

Every tensor in the model is a 2-D numpy array wrapped in a `Node` that
carries a lazily allocated gradient slot and links to its operands.
`backward()` runs one reverse sweep from a scalar output; the tests'
`grad_check` pits its gradients against central finite differences.  Ops
never broadcast implicitly (dedicated column/row-vector ops exist
instead).  Finiteness is checked where values enter and leave a graph:
at each leaf, in `bilstm` (whose sigmoid and tanh would hide an overflow),
at the root of `backward`, and by the model on its logits and Adam on
its gradients.  A non-finite op value that reaches none of these does
not raise; with finite leaves it is an overflow near 1e308 that a later
op absorbs (a masked softmax row, tanh or relu of +-inf).  The loss is
one fused op, `bce_with_logits`, on raw logits; `sigmoid` maps logits to
probabilities on plain arrays, outside the graph.  `bilstm` runs both
LSTM directions over a batch of documents as one node, whose value is
the model's H = [H_f; H_b] (`add_halves` gives H_f + H_b from it): a
GEMM per direction projects every token, the step loops keep only the
recurrent GEMM and the gate math, and the backward is hand-written
BPTT.  From r * r * docs = `_WORKER_MIN` on, with two usable CPUs, a
worker thread steps the reverse direction in both passes: it touches no
Node, runs in a copy of the caller's context (numpy's error state) and
is joined before the node returns or raises.  That overlap assumes BLAS
on one thread; with two, the serial loops are faster.  A backward pass
consumes its graph: it overwrites `bilstm`'s stored gates and releases
them, so a second sweep raises ValidationError, and it releases each op
node's gradient once passed on, so only the leaves keep theirs.
"""

from __future__ import annotations

import contextvars
import os
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, NumericalError, ShapeError, ValidationError

ACTIVATIONS = ("tanh", "sigmoid", "relu")
_WORKER_MIN = 65536  # r * r * docs from which `bilstm` uses two threads: the measured break-even


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
    and a `bilstm` node releases its stored arrays, so the graph cannot be
    swept again (a second sweep through a `bilstm` node raises
    ValidationError): build a fresh one for every call.
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


def add_halves(a) -> Node:
    """Top half of a's rows plus its bottom half: a[:r] + a[r:] for 2r rows."""
    a = _node(a)
    if a.rows % 2:
        raise ShapeError(f"add_halves: {a.rows} rows do not split into two halves")
    r = a.rows // 2

    def bwd(g):
        a.grad[:r] += g
        a.grad[r:] += g

    return Node(a.value[:r] + a.value[r:], (a,), bwd)


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
    e = np.exp(np.copysign(x, -1.0))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


_sigmoid = sigmoid  # for the LSTM worker thread, out of reach of a wrapper set on `sigmoid`


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
        raise ValidationError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")
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


def bilstm(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b, docs: int = 1) -> Node:
    """Both LSTM directions over `docs` equal-length documents as one node (see the module).

    x is d x (docs * n), document j in columns j*n ... j*n + n - 1; each direction's wx
    (4r x d), wh (4r x r) and b (4r x 1) stack the i, f, g, o gates.  The value is the
    2r x (docs * n) forward over reverse states, column t after reading token t.
    """
    x, *w = (_node(a) for a in (x, wx_f, wh_f, b_f, wx_b, wh_b, b_b))
    r, d, shapes = w[1].cols, x.rows, [a.value.shape for a in w]
    if shapes != [(4 * r, d), (4 * r, r), (4 * r, 1)] * 2 or docs < 1 or x.cols % docs:
        raise ShapeError(f"bilstm: {shapes} and {docs} documents do not fit {x.value.shape}")
    threaded = r * r * docs >= _WORKER_MIN and len(os.sched_getaffinity(0)) >= 2
    h = np.empty((2 * r, x.cols), order="F" if docs == 1 else "C")  # see `_lstm`
    bptt = _pair(lambda k: _lstm(x.value, *(a.value for a in w[3 * k : 3 * k + 3]), k == 1,
                                 docs, h[k * r : (k + 1) * r]), threaded)

    def bwd(grad):
        grads = _pair(lambda k: bptt[k](grad[k * r : (k + 1) * r]), threaded)
        for node, g in zip((*w[:3], x, *w[3:], x), (*grads[0], *grads[1])):  # forward first
            node.grad += g

    return Node(h, (x, *w), bwd)


def _pair(step, threaded: bool) -> list:
    """[step(0), step(1)], step(1) on a worker thread for this call only if threaded."""
    if not threaded:
        return [step(0), step(1)]
    from concurrent.futures import ThreadPoolExecutor  # loaded only once a worker is needed
    with ThreadPoolExecutor(1) as one_thread:  # for this call only: leaving the block joins it
        reverse = one_thread.submit(contextvars.copy_context().run, step, 1)
        return [step(0), reverse.result()]


def _lstm(x, wx, wh, b, reverse: bool, docs: int, out):
    """Step one direction, write its states to out, and return its BPTT to (dwx, dwh, db, dx).

    Operands keep the oracle's layouts (tests/extra_ops.py), as BLAS may sum others differently."""
    d, r = x.shape[0], wh.shape[1]
    n, step = x.shape[1] // docs, -1 if reverse else 1
    # column s * docs + j of xs is the s-th token in stepping order of document j
    xs = x.reshape(d, docs, n).transpose(0, 2, 1)[:, ::step].reshape(d, n * docs)
    gates = (wx @ xs).reshape(4 * r, n, docs)
    by_step = gates.transpose(1, 0, 2)  # [s]: step s's input projection, then i, f, g, o, then dz
    c, h = np.zeros((2, n + 1, r, docs))  # c[s + 1], h[s + 1]: states after step s
    zs = np.empty((4 * r, docs))  # one step's pre-activations, then its gates
    z_if, z_g, z_o = zs[: 2 * r], zs[2 * r : 3 * r], zs[3 * r :]
    i, f, g, o = zs.reshape(4, r, docs)
    for s in range(n):
        np.matmul(wh, h[s], out=zs)
        zs += by_step[s]
        zs += b
        if not np.isfinite(zs).all():
            raise NumericalError("lstm: non-finite gate pre-activation")
        z_if[...] = _sigmoid(z_if)
        np.tanh(z_g, out=z_g)
        z_o[...] = _sigmoid(z_o)
        by_step[s] = zs
        c[s + 1] = f * c[s] + i * g
        h[s + 1] = o * np.tanh(c[s + 1])
    if not np.isfinite(c).all():
        raise NumericalError("lstm: non-finite cell state")
    out.reshape(r, docs, n)[...] = h[1:][::step].transpose(1, 2, 0)
    saved = [xs, gates, c, h]

    def bptt(grad):
        if not saved:
            raise ValidationError("bilstm: the graph was already swept; build a fresh one")
        xs, gates, c, h = saved
        saved.clear()
        dh_out = grad.reshape(r, docs, n).transpose(2, 0, 1)[::step]  # n x r x docs
        # dz = [dc * k[0], dc * k[1], dc * k[2], dh * k[3]] at each step; each k overwrites its
        # gate (n x r x docs views), with products in the oracle's order, and then dz overwrites k
        i, f, g, o = gates.reshape(4, r, n, docs).transpose(0, 2, 1, 3)
        f_kept, tc = f.copy(), np.tanh(c[1:])
        dc_dh, k2 = o * (1.0 - tc * tc), i * (1.0 - g * g)
        for a, y in ((tc, o), (g, i), (c[:-1], f)):  # y <- a * y * (1 - y)
            a = a * y
            np.subtract(1.0, y, out=y)
            y *= a
        g[...] = k2
        del tc, k2, c, a
        dh_next = dc_next = np.zeros((r, docs))
        dz = np.empty((4 * r, docs))
        k_c, k_h = gates[: 3 * r].reshape(3, r, n, docs).transpose(2, 0, 1, 3), gates[3 * r :]
        dz_c, dz_h = dz[: 3 * r].reshape(3, r, docs), dz[3 * r :]
        for s in range(n - 1, -1, -1):
            dh = dh_out[s] + dh_next
            dc = dc_next + dh * dc_dh[s]
            np.multiply(k_c[s], dc, out=dz_c)
            np.multiply(k_h[:, s], dh, out=dz_h)
            dh_next = wh.T @ dz
            dc_next = dc * f_kept[s]
            gates[:, s] = dz
        del dc_dh, f_kept
        dz = np.asarray(gates.reshape(4 * r, n * docs), order="F" if docs == 1 else "C")
        dwx, dwh = dz @ xs.T, dz @ h[:-1].transpose(0, 2, 1).reshape(n * docs, r)
        del xs, h
        dx = (wx.T @ dz).reshape(d, n, docs)[:, ::step].transpose(0, 2, 1).reshape(d, docs * n)
        return dwx, dwh, dz.sum(axis=1)[:, None], dx

    return bptt
