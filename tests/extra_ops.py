"""What only the tests need of the autograd: graph ops, an LSTM oracle and a gradient checker.

`mul` (elementwise product) and `sum_all` (full sum) reduce a matrix
output to the 1x1 scalar that `grad_check` and `backward` need, weighting
each entry, and `vconcat` stacks blocks; all three follow the op
conventions of `laha.numeric`.  `lstm` is one LSTM direction as its own
node, stepped serially, and `bilstm_oracle` stacks two of them with
`vconcat` into H: the reference that `numeric.bilstm` and
`model.bilstm_forward` must match bit for bit.  `grad_check` pits
`backward`'s gradients against central finite differences.
"""

import math
from typing import Callable, Sequence

import numpy as np

from laha.errors import NumericalError, ShapeError
from laha.numeric import Node, _node, _same_shape, as_matrix, backward, sigmoid


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product."""
    a, b = _node(a), _node(b)
    _same_shape(a, b, "mul")

    def bwd(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Node(a.value * b.value, (a, b), bwd)


def sum_all(a) -> Node:
    """Sum of all entries as a 1x1 node."""
    a = _node(a)

    def bwd(g):
        a.grad += g[0, 0]

    return Node(np.array([[a.value.sum()]]), (a,), bwd)


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


# ---------------------------------------------------------------------------
# the Bi-LSTM oracle
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


def bilstm_oracle(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b, docs: int = 1) -> Node:
    """H as the `vconcat` of two `lstm` nodes, the forward direction first."""
    return vconcat([lstm(x, wx_f, wh_f, b_f, docs=docs),
                    lstm(x, wx_b, wh_b, b_b, reverse=True, docs=docs)])


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
