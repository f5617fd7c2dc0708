"""What only the tests need of the autograd: graph ops, oracles and a gradient checker.

`mul` (elementwise product) and `sum_all` (full sum) reduce a matrix
output to the 1x1 scalar that `grad_check` and `backward` need,
weighting each entry, `add`, `div` and `const_minus` (c - a) are the
other elementwise ops, `scale` multiplies by a constant, `sum_nodes`
folds nodes with `add`, and `vconcat` stacks blocks; all of them follow
the op conventions of `laha.numeric`.  `softmax_columns`, `scale_cols`,
`sigmoid_node`, `log_sigmoid` and `tanh` are the per-step ops that
`numeric.softmax_product`, `numeric.mix_columns`, `numeric.gate` and
`numeric.tanh_product` fuse, and `softmax_product_oracle` (of the
words x labels `matmul` of two `transpose` nodes, as the fused op
multiplies), `mix_columns_oracle`, `gate_oracle` (`sigmoid_node` of
one `log_sigmoid` less the other) and `fuse_oracle` (all of
`model.fuse`) compose them, as `tanh` of a `matmul` does for
`tanh_product`: the references those fused ops must match bit for bit.
`paper_gate` is the paper's ratio of two sigmoids, a `div` node, as the
model once took it: `numeric.gate` must match it up to rounding.
`lstm` is one LSTM direction as its own node, stepped serially over the
distinct-token columns a map places, with one layout and one summation
order at every batch width.  `bilstm_oracle`
gathers a batch's distinct token rows (its ids docs x n, as
`numeric.bilstm` takes them) with `take_rows` and `transpose` and stacks
two `lstm` nodes on `np.unique`'s map with `vconcat` into H: the
reference that `numeric.bilstm`, the model's `bilstm_forward`, must
match bit for bit.
`bilstm_per_position` gathers every position's row instead, on the
identity map: equal to `bilstm_oracle` up to rounding.
`adam_step_oracle` is Adam as a loop over parameter names, one array at
a time: the reference that the chunked `training.adam_step` must match
bit for bit.  `packed` copies plain arrays into one `ModelParams` buffer.
`word_vectors_oracle` fills an embedding table a row at a time, one
`uniform` draw per uncovered row, and `vocab_order_oracle` sorts tokens by
a `(-count, token)` key: the references that `data.load_word_vectors` and
`data.build_vocab` must match exactly.  `skipgram_oracle` is
`labelgraph.train_skipgram` with a Householder QR basis for every sketch,
`np.unique`'s label and column maps and `np.pad`: the reference that
`train_skipgram` must match bit for bit where every sketch has fewer than
`_GRAM_BASIS_ASPECT` rows per column.  `evaluate_oracle` is
`metrics.evaluate` as a loop over documents, each ranked and scored by
itself, with a truth set per document and group: the reference that the
ranking-matrix `evaluate` must match exactly.  `grad_check` pits `backward`'s
gradients against four-point central finite differences.
"""

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from laha import data, metrics, numeric
from laha.errors import (
    DegenerateInputError, NumericalError, ShapeError, ValidationError, check_int,
)
from laha.model import ModelParams
from laha.numeric import (
    Node, _same_shape, add_colvec, as_matrix, backward, matmul, matmul_chain, sigmoid, take_rows,
    transpose,
)
from laha.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def _node(x) -> Node:
    """x itself if it is a Node, else a scanned leaf over it: the ops here take plain arrays too."""
    return x if isinstance(x, Node) else Node(x)


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


def const_minus(c: float, a) -> Node:
    """c - a for a constant scalar c."""
    a = _node(a)

    def bwd(g):
        a.grad -= g

    return Node(c - a.value, (a,), bwd)


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


def scale(a, c: float) -> Node:
    """Multiply by a constant scalar."""
    a = _node(a)

    def bwd(g):
        a.grad += g * c

    return Node(a.value * c, (a,), bwd)


def sum_nodes(nodes: Sequence[Node]) -> Node:
    """Fold a nonempty sequence with `add` in index order."""
    if not nodes:
        raise ShapeError("sum_nodes of zero terms")
    total = nodes[0]
    for n in nodes[1:]:
        total = add(total, n)
    return total


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
# the per-step compositions the fused ops replace
# ---------------------------------------------------------------------------


def scale_cols(m, v) -> Node:
    """Scale column j of m by entry j of a (1 x cols) row vector."""
    m, v = _node(m), _node(v)
    if v.value.shape != (1, m.cols):
        raise ShapeError(f"scale_cols: expected {(1, m.cols)}, got {v.value.shape}")

    def bwd(g):
        m.grad += g * v.value
        v.grad += (g * m.value).sum(axis=0, keepdims=True)

    return Node(m.value * v.value, (m, v), bwd)


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


def softmax_product_oracle(a, b, mask) -> Node:
    """`numeric.softmax_product` as `softmax_columns` of a `matmul` of b's and a's `transpose`."""
    return softmax_columns(matmul(transpose(b), transpose(a)), mask)


def sigmoid_node(a) -> Node:
    """Elementwise logistic function as its own node."""
    a = _node(a)
    y = sigmoid(a.value)

    def bwd(g):
        a.grad += g * y * (1.0 - y)

    return Node(y, (a,), bwd)


def tanh(a) -> Node:
    """Elementwise tanh as its own node."""
    a = _node(a)
    y = np.tanh(a.value)

    def bwd(g):
        a.grad += g * (1.0 - y * y)

    return Node(y, (a,), bwd)


def mix_columns_oracle(a, u, b) -> Node:
    """`numeric.mix_columns` as the `add` of two `scale_cols` nodes, by u and by 1 - u."""
    return add(scale_cols(a, u), scale_cols(b, const_minus(1.0, u)))


def log_sigmoid(a) -> Node:
    """Elementwise log sigmoid(a) = min(a, 0) - log1p(exp(-|a|)) as its own node."""
    a = _node(a)

    def bwd(g):
        a.grad += g * sigmoid(-a.value)

    return Node(np.minimum(a.value, 0.0) - np.log1p(np.exp(-np.abs(a.value))), (a,), bwd)


def gate_oracle(z_a, z_b) -> Node:
    """`numeric.gate` as a `sigmoid_node` of the `add` of `log_sigmoid(z_a)` and -1 times
    (`scale`) `log_sigmoid(z_b)`."""
    return sigmoid_node(add(log_sigmoid(z_a), scale(log_sigmoid(z_b), -1.0)))


def paper_gate(z_a, z_b) -> Node:
    """The paper's ratio as a `div` of one `sigmoid_node` by the `add` of both: `numeric.gate`
    up to rounding, but where both inputs are below about -354 its gradient is not finite."""
    raw_a = sigmoid_node(z_a)
    return div(raw_a, add(raw_a, sigmoid_node(z_b)))


def fuse_oracle(h, a_s, a_i, f1_w, f1_b, f2_w, f2_b) -> tuple[Node, Node]:
    """`model.fuse` as the model once composed it: (mix, alpha) through the oracles above."""
    alpha = gate_oracle(add_colvec(matmul_chain(f1_w, h, a_s), f1_b),
                        add_colvec(matmul_chain(f2_w, h, a_i), f2_b))
    return mix_columns_oracle(a_s, alpha, a_i), alpha


# ---------------------------------------------------------------------------
# the Bi-LSTM oracle
# ---------------------------------------------------------------------------


def lstm(x, wx, wh, b, reverse: bool = False, docs: int = 1, columns=None) -> Node:
    """One LSTM direction over `docs` equal-length documents as a single node.

    x is d x U, one column per distinct token, and `columns` (the identity
    if None) maps each of the docs * n positions, document j at j*n ...
    j*n + n - 1, to its column of x; wx (4r x d), wh (4r x r) and b (4r x 1)
    stack the input, forget, cell and output gates.  Each document is
    stepped over every position, from the right when `reverse`, from zero
    hidden and cell states.  Returns the r x (docs * n) hidden states in
    position order, column t of a document being its state after reading
    token t, row-major.  Internal arrays keep the documents on their last
    axis, so each step's recurrent product is one GEMM over them.  The
    backward multiplies a row-major copy of W_h^T; a step of several
    documents takes it and W_h in the row slices `numeric._lstm` takes
    (`_step_rows`), a 2-D GEMM a slice, so both sum each product's entries
    alike.  wx @ x is one GEMM whose columns are placed per position; the
    backward is hand-written BPTT that overwrites the stored gates, so it
    runs once, and adds up each distinct token's dz before the GEMMs of dwx
    and dx; dwx takes x's columns in their own order in either direction.
    A non-finite pre-activation or cell state raises NumericalError.
    """
    x, wx, wh, b = _node(x), _node(wx), _node(wh), _node(b)
    r, d = wh.cols, x.rows
    if (wx.rows, wh.rows, b.value.shape, wx.cols) != (4 * r, 4 * r, (4 * r, 1), d):
        raise ShapeError(
            f"lstm: wx {wx.value.shape}, wh {wh.value.shape}, b {b.value.shape} "
            f"do not fit input {x.value.shape}"
        )
    cols = np.arange(x.cols) if columns is None else np.asarray(columns)
    if docs < 1 or cols.size % docs:
        raise ShapeError(f"lstm: {cols.size} columns do not split into {docs} documents")
    n, step = cols.size // docs, -1 if reverse else 1
    # column s * docs + j of at is x's column of document j's s-th token in stepping order
    at = cols.reshape(docs, n).T[::step].ravel()
    z = (wx.value @ x.value)[:, at].reshape(4 * r, n, docs).transpose(1, 0, 2).copy()
    gates = np.empty((n, 4, r, docs))               # i, f, g, o per step
    fwd, back = _step_rows(4 * r, r, docs), _step_rows(r, 4 * r, docs)
    c, h = np.zeros((2, n + 1, r, docs))            # c[s + 1], h[s + 1]: states after step s
    for s in range(n):
        zs = z[s]
        for lo in range(0, 4 * r, fwd):
            zs[lo : lo + fwd] += wh.value[lo : lo + fwd] @ h[s]
        zs += b.value
        gates[s, :2] = sigmoid(zs[: 2 * r]).reshape(2, r, docs)
        gates[s, 2] = np.tanh(zs[2 * r : 3 * r])
        gates[s, 3] = sigmoid(zs[3 * r :])
        i, f, g, o = gates[s]
        c[s + 1] = f * c[s] + i * g
        h[s + 1] = o * np.tanh(c[s + 1])
    if not (np.isfinite(z).all() and np.isfinite(c).all()):
        raise NumericalError("lstm: non-finite gate pre-activation or cell state")

    def to_columns(a):  # stepping-order (n, rows, docs) -> row-major rows x (docs * n) input order
        return np.ascontiguousarray(a[::step].transpose(1, 2, 0).reshape(a.shape[1], docs * n))

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
        wh_t = wh.value.T.copy()  # row-major
        for s in range(n - 1, -1, -1):
            dh = dh_out[s] + dh_next
            dc = dc_next + dh * dc_dh[s]
            dz = gates[s]
            dz[:3] *= dc
            dz[3] *= dh
            dz_s = dz.reshape(4 * r, docs)
            dh_next = np.concatenate([wh_t[lo : lo + back] @ dz_s for lo in range(0, r, back)])
            dc_next = dc * f_kept[s]
        dz = gates.reshape(n, 4 * r, docs).transpose(1, 0, 2).copy().reshape(4 * r, n * docs)
        dz_u = np.zeros((4 * r, x.cols))
        np.add.at(dz_u, (slice(None), at), dz)  # column by column, in stepping order
        wx.grad += dz_u @ x.value.T
        wh.grad += dz @ h[:-1].transpose(0, 2, 1).reshape(n * docs, r)
        b.grad += dz.sum(axis=1)[:, None]
        x.grad += wx.value.T @ dz_u

    return Node(to_columns(h[1:]), (x, wx, wh, b), bwd)


def _step_rows(m: int, k: int, docs: int) -> int:
    """Rows of an m x k matrix per GEMM of a step over `docs` columns: `numeric._STEP_SLICE` // k
    where the step has several documents, that many rows divide m, and a slice's product has at
    most 10**6 multiply-adds but the whole product more; else m."""
    rows = numeric._STEP_SLICE // k
    small = 0 < rows * k * docs <= 10**6 < m * k * docs
    return rows if docs > 1 and small and not m % rows else m


def _two_lstms(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b, docs, columns) -> Node:
    return vconcat([lstm(x, wx_f, wh_f, b_f, docs=docs, columns=columns),
                    lstm(x, wx_b, wh_b, b_b, reverse=True, docs=docs, columns=columns)])


def bilstm_oracle(table, ids, wx_f, wh_f, b_f, wx_b, wh_b, b_b) -> Node:
    """H of `numeric.bilstm` over docs x n ids: the distinct rows, then two `lstm` nodes, the
    forward one first."""
    rows, columns = np.unique(ids, return_inverse=True)
    return _two_lstms(transpose(take_rows(table, rows)), wx_f, wh_f, b_f, wx_b, wh_b, b_b,
                      len(ids), columns.ravel())


def bilstm_per_position(table, ids, wx_f, wh_f, b_f, wx_b, wh_b, b_b) -> Node:
    """H over every position's row, a column each: no token's dz is summed before a GEMM."""
    return _two_lstms(transpose(take_rows(table, np.ravel(ids))), wx_f, wh_f, b_f, wx_b, wh_b,
                      b_b, len(ids), None)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def packed(arrays: dict[str, np.ndarray]) -> ModelParams:
    """The arrays copied, in order, into the views of one `ModelParams` buffer."""
    params = ModelParams({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        params[name][...] = a
    return params


def adam_step_oracle(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state,
                     lr: float) -> None:
    """One bias-corrected Adam update, in place, a parameter at a time in `params` order."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# set-up: word vectors and the vocabulary's order
# ---------------------------------------------------------------------------


def word_vectors_oracle(lines, vocab, d: int, seed: int) -> np.ndarray:
    """The table of `data.load_word_vectors` for well-formed lines, one row at a time."""
    found = {}
    for line in lines:
        token, *values = line.split(" ")
        if token in vocab:
            found[vocab.id(token)] = np.array([float(x) for x in values])
    rng = np.random.default_rng(seed)
    table = np.zeros((len(vocab), d))
    for token_id in range(1, len(vocab)):
        if token_id in found:
            table[token_id] = found[token_id]
        else:
            table[token_id] = rng.uniform(-0.25, 0.25, size=d)
    return table


def vocab_order_oracle(corpus) -> list[str]:
    """The tokens of `data.build_vocab`, sorted by a `(-count, token)` key per token."""
    counts = Counter(tok for doc in corpus for tok in doc.tokens)
    del counts[data.PAD_TOKEN], counts[data.UNK_TOKEN]
    return sorted(counts, key=lambda tok: (-counts[tok], tok))[:data.MAX_VOCAB]


def skipgram_oracle(walks, k: int, r: int, window: int = 5, epochs: int = 5,
                    seed: int = 0) -> np.ndarray:
    """`labelgraph.train_skipgram`'s vectors (r x k) with every sketch's basis by QR."""
    lens, flat = np.array([len(walk) for walk in walks]), np.concatenate(walks)
    rng = np.random.default_rng(seed)
    vectors = (rng.random((k, r)) - 0.5) / r
    if epochs == 0:
        return vectors.T
    flat = flat.astype(np.int32 if k * k < 2**31 else np.int64)
    after = np.repeat(np.cumsum(lens), lens) - np.arange(flat.size) - 1
    pairs = []
    for offset in range(1, min(window, lens.max()) + 1):
        head = np.flatnonzero(after >= offset)
        pairs += [flat[head] * k + flat[head + offset], flat[head + offset] * k + flat[head]]
    keys, counts = np.unique(np.concatenate(pairs), return_counts=True)
    if not keys.size:
        return vectors.T
    labels = np.unique(keys // k)
    omega = rng.standard_normal((labels.size, min(r + 10, labels.size)))
    rows, cols = np.searchsorted(labels, keys // k), np.searchsorted(labels, keys % k)
    total = np.bincount(rows, weights=counts, minlength=labels.size)
    smooth = total ** 0.75 / (total ** 0.75).sum()
    mat = rows, cols, np.maximum(np.log(counts / (total[rows] * smooth[cols])), 0)
    mat_t = rows, cols, np.maximum(np.log(counts / (total[cols] * smooth[rows])), 0)
    basis = np.linalg.qr(_sparse_times_oracle(*mat, omega))[0]
    for _ in range(epochs - 1):
        inner = np.linalg.qr(_sparse_times_oracle(*mat_t, basis))[0]
        basis = np.linalg.qr(_sparse_times_oracle(*mat, inner))[0]
    bt = _sparse_times_oracle(*mat_t, basis)
    evals, u = np.linalg.eigh(bt.T @ bt)
    evals, u = evals[:-r - 1:-1], basis @ u[:, :-r - 1:-1]
    u *= np.sign(u[np.abs(u).argmax(axis=0), np.arange(evals.size)])
    root = np.where(evals > 1e-12 * evals[:1], evals, 0) ** 0.25
    vectors[labels] = np.pad(u * root, ((0, 0), (0, r - evals.size)))
    return vectors.T


def _sparse_times_oracle(rows, cols, vals, x: np.ndarray) -> np.ndarray:
    """Sparse square matrix (sorted by row) times x in 128-row blocks, columns mapped by np.unique."""
    out, n = np.empty(x.shape), x.shape[0]
    bounds = np.searchsorted(rows, np.arange(0, n + 128, 128))
    for top, lo, hi in zip(range(0, n, 128), bounds[:-1], bounds[1:]):
        used, at = np.unique(cols[lo:hi], return_inverse=True)
        block = np.zeros((min(128, n - top), used.size))
        block[rows[lo:hi] - top, at] = vals[lo:hi]
        out[top:top + 128] = block @ x[used]
    return out


def _ranked_metrics_oracle(ranking: np.ndarray, truth: set[int]) -> list[float]:
    """P@t for every t in TAUS, then nDCG@t, over one ranking, t capped at its length."""
    caps = [min(t, ranking.size) for t in metrics.TAUS]
    gains = [1.0 / math.log2(rank + 2) for rank in range(max(caps))]
    hits = [label in truth for label in ranking[: max(caps)].tolist()]
    precision = [sum(hits[:t]) / t for t in caps]
    ndcg = [sum(g for g, hit in zip(gains[:t], hits) if hit) / sum(gains[: min(t, len(truth))])
            for t in caps]
    return precision + ndcg


def evaluate_oracle(score_fn, test_corpus, k: int, train_corpus=None) -> metrics.EvalReport:
    """`metrics.evaluate` as a loop over documents, each ranked and scored by itself."""
    if not test_corpus:
        raise ValidationError("test corpus must be nonempty")
    check_int("k", k, 1)
    all_scores = [numeric.as_floats(score_fn(doc)).ravel() for doc in test_corpus]
    group_ids = (np.searchsorted(metrics.GROUP_BOUNDS, metrics.label_frequencies(train_corpus, k))
                 if train_corpus is not None else None)
    names = metrics.GROUP_NAMES

    # Row 0 sums the overall metrics, row 1 + g those of group g.
    keys = [f"P@{t}" for t in metrics.TAUS] + [f"nDCG@{t}" for t in metrics.TAUS]
    sums = np.zeros((1 + len(names), len(keys)))
    doc_counts = [0] * (1 + len(names))
    for doc, scores in zip(test_corpus, all_scores):
        if scores.size != k:
            raise ValidationError(f"score vector length {scores.size} != label count {k}")
        if not np.isfinite(scores).all():
            raise ValidationError(f"document {doc.doc_id!r} has a non-finite score")
        if not doc.labels:
            raise ValidationError(f"document {doc.doc_id!r} has no labels")
        labels = data.doc_labels(doc, k)
        ranking = metrics.rank_labels(scores)
        sums[0] += _ranked_metrics_oracle(ranking, doc.labels)
        doc_counts[0] += 1
        if group_ids is None:
            continue
        ranked_groups = group_ids[ranking]
        for gid in np.unique(group_ids[labels]).tolist():
            truth = {label for label in doc.labels if group_ids[label] == gid}
            sums[1 + gid] += _ranked_metrics_oracle(ranking[ranked_groups == gid], truth)
            doc_counts[1 + gid] += 1

    means = [dict(zip(keys, (row / n).tolist())) if n else None
             for row, n in zip(sums, doc_counts)]
    label_counts = (np.bincount(group_ids, minlength=len(names)).tolist()
                    if group_ids is not None else [0] * len(names))
    groups = [metrics.GroupReport(name, label_counts[g], doc_counts[1 + g], means[1 + g])
              for g, name in enumerate(names)]
    return metrics.EvalReport(overall=means[0], groups=groups, documents=len(test_corpus))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[dict[str, Node]], Node],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-3,
) -> float:
    """Worst relative error of reverse-mode gradients vs four-point central differences.

    `f` maps a dict of leaf nodes to a 1x1 output and must be deterministic.
    Every entry of every parameter is perturbed by +/- h and +/- h/2, h =
    epsilon, for (8 (f(h/2) - f(-h/2)) - (f(h) - f(-h))) / (6h), whose
    truncation error is O(h^4), so h can stay large enough that rounding in
    f does not reach the check's tolerances.  The error denominator is
    floored at 1e-6 so finite-difference noise on near-zero entries does not
    dominate; two exact zeros score 0.
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
            at = []
            for step in (epsilon, -epsilon, epsilon / 2, -epsilon / 2):
                flat[i] = keep + step
                at.append(_eval_scalar(f, arrays))
            flat[i] = keep
            numeric_grad = (8.0 * (at[2] - at[3]) - (at[0] - at[1])) / (6.0 * epsilon)
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
