"""Dense float64 matrices with reverse-mode differentiation.

Every tensor in the model is a 2-D numpy array wrapped in a `Node` that
carries a lazily allocated gradient slot and links to its operands.  Ops
take Nodes: a leaf enters a graph only where its owner builds `Node(...)`.
`backward()` runs one reverse sweep from a scalar output; the tests'
`grad_check` pits its gradients against central finite differences.  Ops
never broadcast (column and row-vector ops exist instead).  Finiteness is
checked where values enter and leave a graph: at each leaf but the
model's parameters (checked where they are set), in `bilstm` (whose
sigmoid and tanh would hide an overflow), at the root of `backward`, and
by the model on its logits and Adam on its gradients.
A non-finite op value that reaches none of these does not raise; with
finite leaves it is an overflow near 1e308 that a later op absorbs (a
masked softmax row, tanh or relu of +-inf).  Fused ops keep one buffer
where a chain of nodes kept several: `softmax_product` and
`tanh_product` (a softmax or a tanh in its product's buffer), `gate`
(two sigmoids' ratio, as one sigmoid in log space), `mix_columns` (forming
1 - u itself), and the loss `bce_with_logits`, one node for a batch of
documents; the `sigmoid` of logits runs on plain arrays, outside the
graph.  Label rows against a document matrix, `softmax_product` forms the
words x labels product itself, so every attention matrix is row-major.
`take_rows` gathers rows by integer index and returns its input for the
identity, as `slice_cols` does for the full column range.
`bilstm` runs both LSTM directions over a docs x n array of token ids as
one node, the model's H = [H_f; H_b] (`add_halves` gives H_f + H_b from
it); `bilstm` and `_lstm` state its layout, its worker thread and its
BPTT.  The BLAS thread count is not checked: the bench, and CI's
one-thread test steps, pin BLAS to one thread.  The gates take
the public `sigmoid`'s one formula, max(e, copysign(1, x)) / (1 + e)
with e = exp(-|x|), in place.  A backward pass consumes its graph: it
overwrites `bilstm`'s stored gates and releases them, so a second sweep
raises ValidationError, and it releases each op node's gradient once
passed on, so only the leaves keep theirs.
"""

from __future__ import annotations

import contextvars
import math
import os
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, NumericalError, ShapeError, ValidationError

_WORKER_MIN = 65536  # r * r * docs from which `bilstm` uses two threads: the measured break-even
_BPTT_BLOCK = 2**15  # floats (or index entries) in a BPTT block: steps, dz sums
_STEP_SLICE = 2**15  # floats of W_h (or W_h^T) in one GEMM of a step of several documents


def as_floats(x) -> np.ndarray:
    """x as a float64 array; what is not numbers in a regular array raises ValidationError."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as err:  # strings, other objects, or ragged rows
        raise ValidationError(f"expected an array of numbers: {err}") from None


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array (`as_floats`) with positive dimensions."""
    a = as_floats(x)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    return a


class Node:
    """A matrix in the computation graph: value, gradient slot, operand links.

    A leaf (no parents) wraps a caller array without copying, so optimizer
    updates written to the original array are seen by the next graph built
    over it; only a leaf is coerced to a 2-D float64 array and checked
    finite (unless `_scan=False`: its owner checks it).  `grad` reads as
    zeros until `backward` fills it, made on first read.
    """

    __slots__ = ("value", "_grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), _backward=None, _scan: bool = True):
        self.value = value if _parents else as_matrix(value)
        if _scan and not _parents and not np.isfinite(self.value).all():
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


def matmul(a: Node, b: Node) -> Node:
    """Matrix product a @ b; gradients flow to both operands."""
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ for {a.value.shape} x {b.value.shape}"
        )

    def bwd(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Node(a.value @ b.value, (a, b), bwd)


def associate(a: Node, b: Node, c: Node) -> tuple[Node, Node]:
    """(ab, c) or (a, bc), whichever product needs fewer multiply-adds, (ab, c) on a tie."""
    if a.rows * b.cols * (a.cols + c.cols) <= b.rows * c.cols * (b.cols + a.rows):
        return matmul(a, b), c
    return a, matmul(b, c)


def matmul_chain(a: Node, b: Node, c: Node) -> Node:
    """a @ b @ c in the association `associate` picks."""
    return matmul(*associate(a, b, c))


def transpose(a: Node) -> Node:
    def bwd(g):
        a.grad += g.T

    return Node(a.value.T, (a,), bwd)


def slice_cols(a: Node, lo: int, hi: int) -> Node:
    """Columns lo .. hi - 1 of a, as a view; the full range returns a itself."""
    if not 0 <= lo < hi <= a.cols:
        raise ShapeError(f"slice_cols: [{lo}, {hi}) is not a column range of {a.value.shape}")
    if hi - lo == a.cols:
        return a

    def bwd(g):
        a.grad[:, lo:hi] += g

    return Node(a.value[:, lo:hi], (a,), bwd)


def add_halves(a: Node) -> Node:
    """Top half of a's rows plus its bottom half: a[:r] + a[r:] for 2r rows."""
    if a.rows % 2:
        raise ShapeError(f"add_halves: {a.rows} rows do not split into two halves")
    r = a.rows // 2

    def bwd(g):
        a.grad[:r] += g
        a.grad[r:] += g

    return Node(a.value[:r] + a.value[r:], (a,), bwd)


def take_rows(a: Node, indices) -> Node:
    """Gather rows by index (the identity returns a); the gradient scatters back, repeats add."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("take_rows needs a nonempty 1-D index list")
    if idx.dtype.kind not in "iu":
        raise ValidationError(f"take_rows needs integer indices, got {idx.dtype}")
    if idx.min() < 0 or idx.max() >= a.rows:
        raise ShapeError(f"take_rows: index out of range for {a.rows} rows")
    if idx.size == a.rows and (idx == np.arange(a.rows)).all():
        return a

    def bwd(g):
        np.add.at(a.grad, idx, g)

    return Node(a.value[idx, :], (a,), bwd)


def add_colvec(m: Node, v: Node) -> Node:
    """Add a (rows x 1) column vector to every column of m."""
    if v.value.shape != (m.rows, 1):
        raise ShapeError(f"add_colvec: expected {(m.rows, 1)}, got {v.value.shape}")

    def bwd(g):
        m.grad += g
        v.grad += g.sum(axis=1, keepdims=True)

    return Node(m.value + v.value, (m, v), bwd)


def mix_columns(a: Node, u: Node, b: Node) -> Node:
    """a * u + b * (1 - u) for a 1 x cols row u."""
    if not (a.value.shape == b.value.shape and u.value.shape == (1, a.cols)):
        raise ShapeError(f"mix_columns: {[n.value.shape for n in (a, u, b)]} do not fit")
    v = 1.0 - u.value
    out = a.value * u.value
    out += b.value * v

    def bwd(g):
        a.grad += g * u.value
        b.grad += g * v
        u.grad += np.sum(g * a.value, 0, keepdims=True) - np.sum(g * b.value, 0, keepdims=True)

    return Node(out, (a, u, b), bwd)


# ---------------------------------------------------------------------------
# activations, softmax and loss
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of a plain array: `_sigmoid` of a copy of `as_floats(x)`."""
    x = as_floats(x)
    return _sigmoid(x.copy(), np.empty(x.shape))


def _sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x <- max(e, copysign(1, x)) / (1 + e) in place, through scratch e = exp(-|x|) of x's shape.

    As e <= 1 that is 1 / (1 + e) for x >= 0 and e / (1 + e) below: exp cannot overflow.
    (`sign` would give the same bits, but numpy runs it in place as a scalar loop, 4-6x slower.)"""
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.maximum(e, np.copysign(1.0, x, out=x), out=x)
    x /= np.add(e, 1.0, out=e)
    return x


def relu(a: Node) -> Node:
    """Elementwise max(a, 0), with gradient 0 at 0."""

    def bwd(g):
        a.grad += g * (a.value > 0)

    return Node(np.maximum(a.value, 0.0), (a,), bwd)


def gate(z_a: Node, z_b: Node) -> Node:
    """sigmoid(z_a) / (sigmoid(z_a) + sigmoid(z_b)), elementwise: LAHA's fusion weight alpha.

    Taken as sigmoid(log sigmoid(z_a) - log sigmoid(z_b)), log sigmoid(z) = min(z, 0) -
    log1p(exp(-|z|)): one formula, finite for every input, whose slopes are +-alpha (1 - alpha)
    sigmoid(-z).  Equal inputs, or two above 37, give exactly 1/2.
    """
    _same_shape(z_a, z_b, "gate")
    l_a, l_b = (np.minimum(z.value, 0.0) - np.log1p(np.exp(-np.abs(z.value))) for z in (z_a, z_b))
    alpha = _sigmoid(np.subtract(l_a, l_b, out=l_a), l_b)  # l_b is the sigmoid's scratch

    def bwd(g):
        g = g * alpha * (1.0 - alpha)
        z_a.grad += g * sigmoid(-z_a.value)
        z_b.grad -= g * sigmoid(-z_b.value)

    return Node(alpha, (z_a, z_b), bwd)


def tanh_product(a: Node, b: Node) -> Node:
    """tanh(a @ b) in the product's buffer; the backward repeats tanh's and matmul's arithmetic."""
    if a.cols != b.rows:
        raise ShapeError(f"tanh_product: {a.value.shape} x {b.value.shape} do not fit")
    y = a.value @ b.value
    np.tanh(y, out=y)

    def bwd(g):
        dp = g * (1.0 - y * y)
        a.grad += dp @ b.value.T
        b.grad += a.value.T @ dp

    return Node(y, (a, b), bwd)


def softmax_product(a: Node, b: Node, mask) -> Node:
    """Column softmax of P = b^T a^T (a's rows by b's columns), row-major: rows off `mask` get 0.

    Max subtraction keeps huge scores from overflowing; the backward forms dS once.
    """
    if a.cols != b.rows:
        raise ShapeError(f"softmax_product: {a.value.shape} x {b.value.shape} do not fit")
    x = b.value.T @ a.value.T
    valid = np.asarray(mask).astype(bool).ravel()
    if valid.shape != (x.shape[0],):
        raise ShapeError(f"mask length {valid.shape} does not match {x.shape[0]} rows")
    if not valid.any():
        raise DegenerateInputError("softmax_product: every row is masked out")
    x[~valid] = -np.inf
    x -= x.max(axis=0, keepdims=True)
    np.exp(x, out=x)  # masked rows: exp(-inf) == 0 exactly
    x /= x.sum(axis=0, keepdims=True)

    def bwd(g):
        ds = x * (g - (g * x).sum(axis=0, keepdims=True))  # per column; masked rows have x == 0
        a.grad += (b.value @ ds).T  # as `matmul` of b's and a's `transpose` multiplies
        b.grad += (ds @ a.value).T

    return Node(x, (a, b), bwd)


def bce_with_logits(logits: Sequence[Node], targets: Sequence) -> Node:
    """Binary cross-entropy of each document's logits against its constant targets, one 1x1 node.

    Each document's loss is summed over its labels, then the sums are added
    in document order and averaged.  Computed as max(z, 0) - z*y +
    log1p(exp(-|z|)), which cannot overflow; the gradient is (sigmoid(z) -
    y) / documents, so a confidently wrong logit keeps a gradient of
    magnitude near 1 / documents instead of saturating to 0.
    """
    if len(logits) != len(targets):
        raise ShapeError(f"bce_with_logits: {len(logits)} logit rows vs {len(targets)} targets")
    if not logits:
        raise ValidationError("bce_with_logits needs at least one document")
    zs, ys = tuple(logits), [as_floats(y) for y in targets]
    total = 0.0
    for z, y in zip(zs, ys):
        if y.shape != z.value.shape:
            raise ShapeError(f"bce_with_logits: target {y.shape} != logit {z.value.shape}")
        x = z.value
        total += (np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))).sum()
    inv = 1.0 / len(zs)

    def bwd(g):
        for z, y in zip(zs, ys):
            z.grad += (g[0, 0] * inv) * (sigmoid(z.value) - y)

    return Node(np.array([[total * inv]]), zs, bwd)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def bilstm(table: Node, ids, wx_f, wh_f, b_f, wx_b, wh_b, b_b) -> Node:
    """Both LSTM directions over a docs x n array of token ids, a document a row, as one node.

    Each id is a row of the vocab x d `table`, whose distinct rows are read in each pass (each
    direction's one GEMM projects each once, placed by its index in `np.unique`'s sorted ids)
    and take the input-side gradient.  Each direction's wx (4r x d), wh (4r x r) and b (4r x 1)
    stack the i, f, g, o gates.  The value is the 2r x (docs * n) forward over reverse states,
    document j in columns j*n ... j*n + n - 1, column t after reading token t.  Each document
    starts from zero states, and padded positions are stepped too, so the reverse direction
    reads a document's PADs first.  Below r * r * docs = `_WORKER_MIN` the directions step in
    lockstep, as one stack; from it on two 4r x r recurrent matrices would evict each other
    from the cache, so each direction is a stack of its own, the reverse one on a worker thread
    if two CPUs are usable.  That thread touches no Node, runs in a copy of the caller's
    context (numpy's error state) and is joined before the node returns or raises.  A stack's
    step makes one call per op for all its directions and allocates nothing.  The node keeps
    the gates and cell states, and the value, row-major at every batch width, is read-only:
    the BPTT reads H back.  Both directions take one layout and one summation order at every
    batch width (see `_lstm`).
    """
    w = [wx_f, wh_f, b_f, wx_b, wh_b, b_b]
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValidationError(f"bilstm: token ids must be integer indices, got {ids.dtype}")
    rows = np.unique(ids)  # sorted: its ends bound the ids, and `searchsorted` maps each id
    r, d, shapes = w[1].cols, table.cols, [a.value.shape for a in w]
    if (shapes != [(4 * r, d), (4 * r, r), (4 * r, 1)] * 2 or ids.ndim != 2 or not ids.size
            or not 0 <= rows[0] <= rows[-1] < table.rows):
        raise ShapeError(f"bilstm: {shapes} and token ids of shape {ids.shape} "
                         f"do not fit a {table.value.shape} table")
    h = np.empty((2 * r, ids.size))
    bptt = _lstm(table.value, rows, [a.value for a in w], rows.searchsorted(ids), h)
    h.flags.writeable = False  # the BPTT reads its states back from H

    def bwd(grad):
        grads = bptt(grad)  # each direction's dwx, dwh, db and dx, the forward one first
        for node, g in zip(w, grads[:3] + grads[4:7]):
            node.grad += g
        table.grad[rows] += (grads[3] + grads[7]).T  # `np.unique` rows are distinct

    return Node(h, (table, *w), bwd)


def _lstm(table, tokens, w, cols, out):
    """Step `bilstm`'s directions (w: each one's wx, wh, b), write H to out, return the BPTT.

    The BPTT returns each direction's (dwx, dwh, db, dx), the forward one first.  A stack of D
    directions makes one call per op a step, through buffers made before the loop.  Every array
    has one layout at every batch width, the BPTT's W_h^T a row-major copy; with several
    documents both GEMMs take `band`'s row slices, which OpenBLAS's AVX-512 kernel runs faster,
    some in other last bits, as the oracle does (tests/extra_ops.py).  `cols` (docs x n, each
    position's column of x = table[tokens].T) places x's projections (`take`, clip mode:
    unbuffered).  The BPTT forms the gate coefficients per block of `_BPTT_BLOCK` floats (c freed
    with the last), reads states from out, and, one direction at a time, sums dz per token and
    block of gate rows into its own gate slot's leading floats (the gates live until the last
    dwx); each direction's dwx then sums over x's columns in `np.unique`'s order.
    """
    r, (docs, n), u, x = w[1].shape[1], cols.shape, tokens.size, table[tokens].T
    stacks = [(0, 1)] if r * r * docs < _WORKER_MIN else [(0,), (1,)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    worker = len(stacks) == 2 and cpus >= 2

    def each(run, items: list) -> list:  # the second item on the worker, if there is one
        if not worker:
            return [run(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor  # loaded only once a worker is needed
        with ThreadPoolExecutor(1) as one_thread:  # for this call only: leaving the block joins it
            second = one_thread.submit(contextvars.copy_context().run, run, items[1])
            return [run(items[0]), second.result()]

    def band(m: int, k: int) -> int:  # rows a GEMM takes of an m x k step matrix: see above
        rows = _STEP_SLICE // k  # OpenBLAS's AVX-512 small-matrix GEMM: <= 10**6 multiply-adds
        small = 0 < rows * k * docs <= 10**6 < m * k * docs  # it takes a slice, not the whole
        return rows if docs > 1 and small and not m % rows else m

    def stack(ks: tuple):
        D, steps = len(ks), [-1 if k else 1 for k in ks]
        # at[j, s * docs + c] is x's column of document c's s-th token in direction j's order
        at = np.array([cols.T[::step] for step in steps]).reshape(D, n * docs)
        # gates[:, :, s]: step s's input projection, then its gates, then (in the BPTT) its dz
        gates = np.empty((D, 4 * r, n, docs))
        for j, k in enumerate(ks):
            (w[3 * k] @ x).take(at[j], 1, gates[j].reshape(4 * r, n * docs), "clip")
        wh, b = (w[3 * ks[0] + m][None] if D == 1 else np.stack(w[m::3]) for m in (1, 2))
        by_step = gates.transpose(2, 0, 1, 3)
        c, h = np.zeros((n + 1, D, r, docs)), np.zeros((n + 1, D, r, docs))  # after step s: [s + 1]
        zs, rows = np.empty((D, 4 * r, docs)), band(4 * r, r)  # one step's z, then its gates
        wh_s, zs_s = wh.reshape(D, -1, rows, r), zs.reshape(D, -1, rows, docs)
        i, f, g, o = zs.reshape(D, 4, r, docs).transpose(1, 0, 2, 3)
        e, tanh_g, flat = np.empty(zs.shape), np.empty(g.shape), zs.reshape(-1)
        with np.errstate(over="ignore"):  # an overflow leaves a non-finite value, checked below
            for x_s, c_prev, c_s, h_prev, h_s in zip(by_step, c, c[1:], h[:, :, None], h[1:]):
                np.matmul(wh_s, h_prev, out=zs_s)
                zs += x_s
                zs += b
                # finite values square to a finite sum unless some are huge: then check each
                if not math.isfinite(np.dot(flat, flat)) and not np.isfinite(zs).all():
                    raise NumericalError("lstm: non-finite gate pre-activation")
                np.tanh(g, out=tanh_g)  # one sigmoid over all four gates, then g's tanh put back
                _sigmoid(zs, e)
                g[...] = tanh_g
                x_s[...] = zs
                np.multiply(f, c_prev, out=c_s)
                np.multiply(i, g, out=tanh_g)
                c_s += tanh_g
                np.tanh(c_s, out=h_s)
                h_s *= o
        for j, (k, step) in enumerate(zip(ks, steps)):
            out[k * r : (k + 1) * r].reshape(r, docs, n)[...] = h[1:, j][::step].transpose(1, 2, 0)
        saved = [gates, c]  # not h, a buffer of its own: the BPTT reads the states back from out

        def bptt(grad):
            if not saved:
                raise ValidationError("bilstm: the graph was already swept; build a fresh one")
            gates, c = saved
            saved.clear()
            dh_out = [grad[k * r : (k + 1) * r].reshape(r, docs, n).transpose(2, 0, 1)[::step, None]
                      for k, step in zip(ks, steps)]
            dh_out = np.concatenate(dh_out, axis=1) if D == 2 else dh_out[0]  # n x D x r x docs
            # dz = [dc * k[0], dc * k[1], dc * k[2], dh * k[3]] at each step.  A block of steps at
            # a time, last block first, each k overwrites its gate (n x D x r x docs views) in
            # place, as the oracle's (a * y) * (1 - y) with a * y first, and dz then overwrites k.
            # f's copy, tanh(c) and dc/dh go to block scratch; tanh(c)'s then takes c_prev * f and
            # g's k, and g takes g * i: c stays whole until the last block has formed its k
            i, f, g, o = gates.reshape(D, 4, r, n, docs).transpose(1, 3, 0, 2, 4)
            span = max(1, _BPTT_BLOCK // (D * r * docs))  # steps a block
            scratch = np.empty((3, min(span, n), D, r, docs))
            dh, dc, dh_next, dc_next = np.zeros((4, D, r, docs))
            dz = np.empty((D, 4 * r, docs))
            dz_c, dz_h, dc_c = dz[:, : 3 * r].reshape(D, 3, r, docs), dz[:, 3 * r :], dc[:, None]
            k_c = gates[:, : 3 * r].reshape(D, 3, r, n, docs).transpose(3, 0, 1, 2, 4)
            k_h, rows = gates[:, 3 * r :].transpose(2, 0, 1, 3), band(r, 4 * r)
            wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))  # W_h^T, row-major
            wh_t, dh_s = wh_t.reshape(D, -1, rows, 4 * r), dh_next.reshape(D, -1, rows, docs)
            for hi in range(n, 0, -span):
                lo = max(0, hi - span)
                f_kept, tc, dc_dh = scratch[:, : hi - lo]
                ib, fb, gb, ob = i[lo:hi], f[lo:hi], g[lo:hi], o[lo:hi]
                np.copyto(f_kept, fb)
                np.tanh(c[lo + 1 : hi + 1], out=tc)
                np.multiply(ob, np.subtract(1.0, np.square(tc, out=dc_dh), out=dc_dh), out=dc_dh)
                np.multiply(np.multiply(tc, ob, out=tc), np.subtract(1.0, ob, out=ob), out=ob)
                np.multiply(np.multiply(c[lo:hi], fb, out=tc), np.subtract(1.0, fb, out=fb), out=fb)
                np.multiply(ib, np.subtract(1.0, np.multiply(gb, gb, out=tc), out=tc), out=tc)
                np.multiply(np.multiply(gb, ib, out=gb), np.subtract(1.0, ib, out=ib), out=ib)
                gb[...] = tc
                if not lo:
                    del c
                for s in range(hi - 1, lo - 1, -1):
                    np.add(dh_out[s], dh_next, out=dh)
                    np.multiply(dh, dc_dh[s - lo], out=dc)
                    dc += dc_next
                    np.multiply(k_c[s], dc_c, out=dz_c)
                    np.multiply(k_h[s], dh, out=dz_h)
                    np.matmul(wh_t, dz[:, None], out=dh_s)
                    np.multiply(dc, f_kept[s - lo], out=dc_next)
                    gates[:, :, s] = dz
            del dh_out, scratch, f_kept, tc, dc_dh, wh_t  # every view of the scratch, W_h^T's copy
            grads, block = [], max(1, _BPTT_BLOCK // (n * docs))
            for j, (k, step) in enumerate(zip(ks, steps)):  # h_j freed before the sums
                dz = gates[j].reshape(4 * r, n * docs)
                h_k = out[k * r : (k + 1) * r].reshape(r, docs, n)[:, :, ::step]  # stepping order
                h_j = np.zeros((n * docs, r))  # the states before each step: 0, then H's
                h_j.reshape(n, docs, r)[1:] = h_k[:, :, :-1].T
                dwh, db = dz @ h_j, dz.sum(axis=1)[:, None]
                del dz, h_j
                # dz summed per gate row and column of x into gates[j]'s first 4r u floats, a
                # bincount per block of rows: [lo, hi) fills [lo u, hi u), and the rows not yet
                # read start at hi n docs >= hi u
                dz_u = gates[j].reshape(-1)[: 4 * r * u].reshape(4 * r, u)
                for lo in range(0, 4 * r, block):
                    bins = at[j, None].repeat(min(block, 4 * r - lo), 0)  # row lo + i: at[j] + i u
                    bins += np.arange(0, len(bins) * u, u)[:, None]
                    dz_u.reshape(-1)[lo * u : (lo + block) * u] = np.bincount(
                        bins.ravel(), gates[j, lo : lo + block].ravel(), len(bins) * u)
                    del bins  # before the next block's are made
                grads += [dz_u @ table[tokens], dwh, db, w[3 * k].T @ dz_u]
            return grads

        return bptt

    bptts = each(stack, stacks)
    del x  # gathered again for each dwx, not held through the BPTT's steps
    return lambda grad: [g for grads in each(lambda bptt: bptt(grad), bptts) for g in grads]
