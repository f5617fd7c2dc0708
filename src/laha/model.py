"""Label-aware document representation via hybrid attention.

Pipeline per document: a Bi-LSTM over the token embeddings gives H =
[H_f; H_b], the forward states over the backward ones, as one node
(`numeric.bilstm` states its layout).  Two attention routes score every word
against every label: a content route tanh(W_s1 H) scored by per-label
rows of W_s2, and an interaction route matching H_f + H_b, summed from
H's halves, against projected label vectors W_q L.  Each route yields an
n x k' attention matrix A (a softmax over words per label).  A learned
gate (`fuse`) weighs the two per label, and a small feed-forward head
turns each column of the paper's mixed context H (alpha A_s + beta A_i)
into a logit.  The 2r x k' contexts H A are never built: each product of
three matrices takes the cheaper association, each route's softmax runs
in its last product's buffer, and the content route's tanh in W_s1 H's
(`numeric.tanh_product`, so no node keeps W_s1 H).  Each route is one
`numeric.softmax_product` of label rows against a document matrix: rows
of W_s2 against tanh(W_s1 H), and rows of the k x r label matrix (one
leaf per `forward_batch` call, checked finite there once) against
W_q^T (H_f + H_b), each A row-major.  Every label in index order takes
either label matrix as it is.  The model yields logits, and a non-finite logit
raises NumericalError, since every score and loss passes through them;
the sigmoid is applied only by `ForwardTrace.scores()`, and training
feeds a batch's logits straight to `numeric.bce_with_logits`, one node.
The parameters are the arrays `param_table` lists, the one place their
names, shapes and order are written down.

Ablation variants: "sa" (content route only), "ia" (interaction route
only), "sa+ia" (fixed 50/50 mix), "laha" (learned gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import numeric as nm
from .errors import NumericalError, ShapeError, ValidationError, check_int, check_labels
from .numeric import Node

VARIANTS = ("sa", "ia", "sa+ia", "laha")


@dataclass
class ModelConfig:
    k: int
    max_len: int
    d: int = 300
    r: int = 256
    d_a: int = 256

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, check_int(f.name, getattr(self, f.name), 1))


class ModelParams(dict):
    """Name -> zero-filled float64 array of the given shape, each a view of one buffer, `flat`.

    `flat` is C-contiguous, in this order, and Adam walks it in chunks: never replace an array.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes.values()]).tolist()
        self.flat = np.zeros(ends[-1])
        super().__init__((name, self.flat[start:end].reshape(shape))
                         for (name, shape), start, end in zip(shapes.items(), ends, ends[1:]))

    def arrays(self) -> dict[str, np.ndarray]:
        return self


def param_table(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, int, int | str]]:
    """(rows, cols, init) of every parameter: the one list of names, shapes and order.

    The parameters (`ModelParams`) are this table's arrays, in its order.
    `init` is the Xavier fan-out (the fan-in is always cols), "zeros" for a
    bias, or "given" for the word-embedding table.  LSTM blocks stack the
    input, forget, cell and output gates, in that order.
    """
    r, d, d_a, k = cfg.r, cfg.d, cfg.d_a, cfg.k
    return {
        "embedding": (vocab_size, d, "given"),
        "lstm_wx_f": (4 * r, d, r),
        "lstm_wh_f": (4 * r, r, r),
        "lstm_b_f": (4 * r, 1, "zeros"),
        "lstm_wx_b": (4 * r, d, r),
        "lstm_wh_b": (4 * r, r, r),
        "lstm_b_b": (4 * r, 1, "zeros"),
        "w_s1": (d_a, 2 * r, d_a),
        "w_s2": (k, d_a, k),
        "w_q": (r, r, r),
        "fuse1_w": (1, 2 * r, 1),
        "fuse1_b": (1, 1, "zeros"),
        "fuse2_w": (1, 2 * r, 1),
        "fuse2_b": (1, 1, "zeros"),
        "w_f": (r, 2 * r, r),
        "w_o": (1, r, 1),
        "b_o": (1, 1, "zeros"),
    }


def init_params(cfg: ModelConfig, embedding: np.ndarray, seed: int) -> ModelParams:
    """Seeded parameters per `param_table`, Xavier-uniform draws in table order, made in place."""
    check_int("seed", seed, 0)
    embedding = nm.as_floats(embedding)
    if embedding.ndim != 2 or embedding.shape[1] != cfg.d:
        raise ShapeError(f"embedding table must be (vocab, {cfg.d}), got {embedding.shape}")
    if not np.isfinite(embedding).all():
        raise NumericalError("embedding table has non-finite entries")
    rng = np.random.default_rng(seed)
    table = param_table(cfg, embedding.shape[0])
    params = ModelParams({name: (rows, cols) for name, (rows, cols, _) in table.items()})
    for name, (_, cols, init) in table.items():
        if init == "given":
            params[name][...] = embedding
        elif init != "zeros":  # rng.uniform(-limit, limit)'s arithmetic, drawn into the view
            limit = math.sqrt(6.0 / (cols + init))
            view = rng.random(out=params[name])
            view *= limit + limit
            view -= limit
    return params


def wrap_params(params: ModelParams) -> dict[str, Node]:
    """Leaf nodes over the parameter buffers, unscanned: init_params and load_checkpoint check."""
    return {name: Node(arr, _scan=False) for name, arr in params.items()}


@dataclass
class ForwardTrace:
    """Intermediate tensors of one document pass (nodes keep the graph alive)."""

    attn_self: Node | None
    attn_inter: Node | None
    alpha: Node  # the weight of the content route per label; beta is 1 - alpha
    logits: Node
    subset: list[int]

    def scores(self) -> np.ndarray:
        """Per-label probabilities, sigmoid of the logits, aligned with subset.

        This is the only place the model's sigmoid is applied.
        """
        return nm.sigmoid(self.logits.value).ravel()


# The model's one name for its encoder: the bench's tracer times the Bi-LSTM under it, and
# tests substitute their oracles here.
bilstm_forward = nm.bilstm


def self_attention(h: Node, w_s1, w_s2, subset: Sequence[int], mask) -> Node:
    """Content attention: rows of W_s2 score tanh(W_s1 H), made in W_s1 H's buffer, per label.

    Returns A_s, n x k' column-stochastic attention over unmasked words;
    the paper's per-label context matrix is C_s = H @ A_s.
    """
    t = nm.tanh_product(w_s1, h)
    return nm.softmax_product(nm.take_rows(w_s2, subset), t, mask)  # n x k'


def interaction_attention(h: Node, label_rows: Node, w_q, subset: Sequence[int], mask) -> Node:
    """Structure attention: words match projected label vectors.

    `label_rows` is the k x r label matrix, one row per label, and L^T its subset
    rows.  With H = [H_f; H_b], word t and label j score H[:, t] . [Q; Q][:, j],
    Q = W_q L: the block form [H_f^T H_b^T][Q; Q], collapsed to (H_f + H_b)^T Q
    (`add_halves`) and formed, as the content route's, as label rows L^T against
    W_q^T (H_f + H_b), associated as `matmul_chain` would.  Returns A_i, the
    n x k' softmax over words; the paper's context matrix is C_i = H @ A_i.
    """
    lt = nm.take_rows(label_rows, subset)
    return nm.softmax_product(*nm.associate(lt, nm.transpose(w_q), nm.add_halves(h)), mask)


def fuse(h: Node, a_s: Node, a_i: Node, f1_w, f1_b, f2_w, f2_b):
    """Adaptive convex mix of the two attention matrices, per label: (mix, alpha).

    alpha_j = a_j / (a_j + b_j) for a_j = sigmoid(F1 C_s[:, j] + b1) and b_j =
    sigmoid(F2 C_i[:, j] + b2) on the contexts C = H A, taken as F H A: one
    `numeric.gate` node, which takes it as sigmoid(log a_j - log b_j).  Column j of mix
    is alpha_j A_s[:, j] + beta_j A_i[:, j], beta_j = 1 - alpha_j: H @ mix is alpha C_s + beta C_i.
    """
    alpha = nm.gate(nm.add_colvec(nm.matmul_chain(f1_w, h, a_s), f1_b),
                    nm.add_colvec(nm.matmul_chain(f2_w, h, a_i), f2_b))
    return nm.mix_columns(a_s, alpha, a_i), alpha


def predict(h: Node, mix: Node, w_f, w_o, b_o) -> Node:
    """Logits per label: W_o relu(W_f H mix) + b, a 1 x k' row (no sigmoid)."""
    hidden = nm.relu(nm.matmul_chain(w_f, h, mix))
    return nm.add_colvec(nm.matmul(w_o, hidden), b_o)


def forward(
    token_ids: np.ndarray, mask: np.ndarray, param_nodes: dict[str, Node],
    label_vectors: np.ndarray | None, subset: Sequence[int], variant: str = "laha",
) -> ForwardTrace:
    """Full pass over one encoded document for the labels in `subset`: a batch of one."""
    return forward_batch([token_ids], [mask], param_nodes, label_vectors, [subset], variant)[0]


def forward_batch(
    token_rows: Sequence[np.ndarray], masks: Sequence[np.ndarray],
    param_nodes: dict[str, Node], label_vectors: np.ndarray | None,
    subsets: Sequence[Sequence[int]], variant: str = "laha",
) -> list[ForwardTrace]:
    """Full pass over equal-length encoded documents, each with its label subset.

    The one place the model's inputs are checked.  One `bilstm_forward`
    call embeds and steps every document; attention, fuse and predict then
    run per document on its column slice of H (H itself for one document).
    Returns one trace per document, in order.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant != "sa" and label_vectors is None:
        raise ValidationError(f"variant {variant!r} needs a label embedding")
    docs = len(token_rows)
    if docs == 0 or len(masks) != docs or len(subsets) != docs:
        raise ShapeError(f"{docs} token rows, {len(masks)} masks, {len(subsets)} label subsets")
    n = len(token_rows[0])
    if any(len(ids) != n for ids in token_rows):
        raise ShapeError(f"token rows differ in length: {[len(ids) for ids in token_rows]}")
    k = param_nodes["w_s2"].rows
    subsets = [_valid_subset(subset, k) for subset in subsets]
    label_rows = None
    if label_vectors is not None:
        label_vectors = nm.as_floats(label_vectors)
        expected = (param_nodes["w_q"].cols, k)
        if label_vectors.shape != expected:
            raise ShapeError(f"label embedding must be {expected}, got {label_vectors.shape}")
        label_rows = Node(np.ascontiguousarray(label_vectors.T))  # scanned once per call

    h = bilstm_forward(
        param_nodes["embedding"], np.stack(token_rows),
        param_nodes["lstm_wx_f"], param_nodes["lstm_wh_f"], param_nodes["lstm_b_f"],
        param_nodes["lstm_wx_b"], param_nodes["lstm_wh_b"], param_nodes["lstm_b_b"],
    )
    return [
        _attend(nm.slice_cols(h, j * n, (j + 1) * n), mask, param_nodes, label_rows,
                subset, variant)
        for j, (mask, subset) in enumerate(zip(masks, subsets))
    ]


def _attend(h, mask, param_nodes, label_rows, subset, variant):
    """Attention routes, gate and head of one document over its Bi-LSTM states H."""
    attn_self = attn_inter = None
    if variant != "ia":
        attn_self = self_attention(h, param_nodes["w_s1"], param_nodes["w_s2"], subset, mask)
    if variant != "sa":
        attn_inter = interaction_attention(h, label_rows, param_nodes["w_q"], subset, mask)

    if variant == "laha":
        mix, alpha = fuse(h, attn_self, attn_inter, param_nodes["fuse1_w"], param_nodes["fuse1_b"],
                          param_nodes["fuse2_w"], param_nodes["fuse2_b"])
    else:
        alpha = Node(np.full((1, len(subset)), {"sa": 1.0, "ia": 0.0, "sa+ia": 0.5}[variant]))
        if variant == "sa+ia":
            mix = nm.mix_columns(attn_self, alpha, attn_inter)
        else:
            mix = attn_self if variant == "sa" else attn_inter

    logits = predict(h, mix, param_nodes["w_f"], param_nodes["w_o"], param_nodes["b_o"])
    if not np.isfinite(logits.value).all():
        raise NumericalError("non-finite logit")
    return ForwardTrace(attn_self=attn_self, attn_inter=attn_inter, alpha=alpha, logits=logits,
                        subset=subset)


def _valid_subset(subset: Sequence[int], k: int) -> list[int]:
    subset = list(subset)
    if not subset:
        raise ValidationError("label subset must be nonempty")
    return check_labels("label", subset, k)
