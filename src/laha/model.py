"""Label-aware document representation via hybrid attention.

Pipeline per document: token embeddings (d x n) run through a Bi-LSTM
giving forward/backward context matrices H_f, H_b (r x n each) stacked
into H (2r x n).  Two attention routes score every word against every
label: a content route tanh(W_s1 H) scored by per-label rows of W_s2, and
an interaction route matching (H_f + H_b) against projected label vectors
Q = W_q L.  Each route yields per-label context vectors (columns of a
2r x k' matrix); a learned gate mixes the two convexly per label, and a
small feed-forward head turns each mixed column into a logit.  The model
yields logits; the sigmoid is applied only by `ForwardTrace.scores()`, and
training feeds the logits straight to `numeric.bce_with_logits`.

Ablation variants: "sa" (content route only), "ia" (interaction route
only), "sa+ia" (fixed 50/50 mix), "laha" (learned gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import numeric as nm
from .errors import ShapeError, ValidationError
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
            if getattr(self, f.name) < 1:
                raise ValidationError(f"{f.name} must be a positive integer")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ModelParams:
    """Every trainable matrix, in canonical (checkpoint) order; see `param_table`."""

    embedding: np.ndarray
    lstm_wx_f: np.ndarray
    lstm_wh_f: np.ndarray
    lstm_b_f: np.ndarray
    lstm_wx_b: np.ndarray
    lstm_wh_b: np.ndarray
    lstm_b_b: np.ndarray
    w_s1: np.ndarray
    w_s2: np.ndarray
    w_q: np.ndarray
    fuse1_w: np.ndarray
    fuse1_b: np.ndarray
    fuse2_w: np.ndarray
    fuse2_b: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def names() -> list[str]:
        return [f.name for f in fields(ModelParams)]


def param_table(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, int, int | str]]:
    """(rows, cols, init) of every parameter, in ModelParams field order.

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
    """Seeded parameters per `param_table`, Xavier-uniform draws in table order."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != cfg.d:
        raise ShapeError(
            f"embedding table must be (vocab, {cfg.d}), got {embedding.shape}"
        )
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, (rows, cols, init) in param_table(cfg, embedding.shape[0]).items():
        if init == "given":
            arrays[name] = embedding.copy()
        elif init == "zeros":
            arrays[name] = np.zeros((rows, cols))
        else:
            limit = math.sqrt(6.0 / (cols + init))
            arrays[name] = rng.uniform(-limit, limit, size=(rows, cols))
    return ModelParams(**arrays)


def wrap_params(params: ModelParams) -> dict[str, Node]:
    """Leaf nodes sharing the parameter buffers (grads land on the nodes)."""
    return {name: Node(arr) for name, arr in params.arrays().items()}


@dataclass
class ForwardTrace:
    """Intermediate tensors of one document pass (nodes keep the graph alive)."""

    h_fwd: Node
    h_bwd: Node
    h: Node
    attn_self: Node | None
    attn_inter: Node | None
    ctx_self: Node | None
    ctx_inter: Node | None
    ctx: Node
    alpha: Node
    beta: Node
    logits: Node
    subset: list[int]
    variant: str
    mask: np.ndarray

    def scores(self) -> np.ndarray:
        """Per-label probabilities, sigmoid of the logits, aligned with subset.

        This is the only place the model's sigmoid is applied.
        """
        return nm.sigmoid(self.logits.value).ravel()

    def fused_attention(self) -> np.ndarray:
        """n x k' convex mix of the two attention matrices (variant-aware)."""
        alpha = self.alpha.value
        beta = self.beta.value
        out = np.zeros((self.h.cols, len(self.subset)))
        if self.attn_self is not None:
            out += self.attn_self.value * alpha
        if self.attn_inter is not None:
            out += self.attn_inter.value * beta
        return out


def bilstm_forward(embedded: Node, wx_f, wh_f, b_f, wx_b, wh_b, b_b):
    """Run both LSTM directions over embedded tokens (d x n), one node each.

    Returns (H_f, H_b, H): r x n forward states, r x n backward states
    (column t = state after reading token t from the right), and their
    2r x n vertical stack.  Initial hidden and cell states are zero.  Every
    one of the n columns is stepped, padded positions included, so the
    backward direction starts at column n - 1 whatever the padding.
    """
    h_fwd = nm.lstm(embedded, wx_f, wh_f, b_f)
    h_bwd = nm.lstm(embedded, wx_b, wh_b, b_b, reverse=True)
    return h_fwd, h_bwd, nm.vconcat([h_fwd, h_bwd])


def self_attention(h: Node, w_s1, w_s2, subset: Sequence[int], mask) -> tuple[Node, Node]:
    """Content attention: rows of W_s2 score tanh(W_s1 H) per label.

    Returns (A_s, C_s): n x k' column-stochastic attention over unmasked
    words and the 2r x k' per-label context matrix H @ A_s.
    """
    subset = _valid_subset(subset, w_s2.rows)
    t = nm.activate(nm.matmul(w_s1, h), "tanh")
    scores = nm.matmul(nm.take_rows(w_s2, subset), t)          # k' x n
    attn = nm.softmax_columns(nm.transpose(scores), mask)      # n x k'
    return attn, nm.matmul(h, attn)


def interaction_attention(
    h_fwd: Node, h_bwd: Node, label_vectors: np.ndarray, w_q,
    subset: Sequence[int], mask,
) -> tuple[Node, Node]:
    """Structure attention: words match projected label vectors.

    Queries are Q = W_q L restricted to the subset; the matching score for
    word t and label j is (H_f + H_b)[:, t] . Q[:, j], i.e. the block form
    [H_f^T H_b^T][Q; Q] collapsed.  Softmax over words gives A_i; context
    is [H_f; H_b] @ A_i.
    """
    label_vectors = np.asarray(label_vectors, dtype=np.float64)
    if label_vectors.ndim != 2 or label_vectors.shape[0] != w_q.cols:
        raise ShapeError(
            f"label embedding must be ({w_q.cols}, k), got {label_vectors.shape}"
        )
    subset = _valid_subset(subset, label_vectors.shape[1])
    queries = nm.matmul(w_q, Node(label_vectors[:, subset]))   # r x k'
    summed = nm.add(h_fwd, h_bwd)                              # r x n
    match = nm.matmul(nm.transpose(summed), queries)           # n x k'
    attn = nm.softmax_columns(match, mask)
    h = nm.vconcat([h_fwd, h_bwd])
    return attn, nm.matmul(h, attn)


def fuse(ctx_self: Node, ctx_inter: Node, f1_w, f1_b, f2_w, f2_b):
    """Adaptive convex mix of the two context matrices, per label.

    Raw gate values a_j = sigmoid(F1(C_s[:, j])), b_j = sigmoid(F2(C_i[:, j]))
    normalize to alpha_j = a_j / (a_j + b_j), beta_j = 1 - alpha_j; the mixed
    column is alpha_j * C_s[:, j] + beta_j * C_i[:, j].  Sigmoid positivity
    keeps the normalization well-defined.
    """
    if ctx_self.value.shape != ctx_inter.value.shape:
        raise ShapeError(
            f"fuse: context shapes {ctx_self.value.shape} and "
            f"{ctx_inter.value.shape} differ"
        )
    raw_a = nm.activate(nm.add_colvec(nm.matmul(f1_w, ctx_self), f1_b), "sigmoid")
    raw_b = nm.activate(nm.add_colvec(nm.matmul(f2_w, ctx_inter), f2_b), "sigmoid")
    alpha = nm.div(raw_a, nm.add(raw_a, raw_b))
    beta = nm.const_minus(1.0, alpha)
    mixed = nm.add(nm.scale_cols(ctx_self, alpha), nm.scale_cols(ctx_inter, beta))
    return mixed, alpha, beta


def predict(ctx: Node, w_f, w_o, b_o) -> Node:
    """Logits per label: W_o relu(W_f C) + b, a 1 x k' row (no sigmoid)."""
    hidden = nm.activate(nm.matmul(w_f, ctx), "relu")
    return nm.add_colvec(nm.matmul(w_o, hidden), b_o)


def forward(
    token_ids: np.ndarray,
    mask: np.ndarray,
    param_nodes: dict[str, Node],
    label_vectors: np.ndarray | None,
    subset: Sequence[int],
    variant: str = "laha",
) -> ForwardTrace:
    """Full pass over one encoded document for the labels in `subset`."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    subset = list(subset)
    k = param_nodes["w_s2"].rows
    _valid_subset(subset, k)
    if label_vectors is not None and label_vectors.shape[1] != k:
        raise ShapeError(
            f"label embedding has {label_vectors.shape[1]} columns, expected {k}"
        )

    embedded = nm.transpose(nm.take_rows(param_nodes["embedding"], token_ids))
    h_fwd, h_bwd, h = bilstm_forward(
        embedded,
        param_nodes["lstm_wx_f"], param_nodes["lstm_wh_f"], param_nodes["lstm_b_f"],
        param_nodes["lstm_wx_b"], param_nodes["lstm_wh_b"], param_nodes["lstm_b_b"],
    )

    attn_self = ctx_self = attn_inter = ctx_inter = None
    if variant != "ia":
        attn_self, ctx_self = self_attention(
            h, param_nodes["w_s1"], param_nodes["w_s2"], subset, mask
        )
    if variant != "sa":
        if label_vectors is None:
            raise ValidationError(f"variant {variant!r} needs a label embedding")
        attn_inter, ctx_inter = interaction_attention(
            h_fwd, h_bwd, label_vectors, param_nodes["w_q"], subset, mask
        )

    k_sub = len(subset)
    if variant == "sa":
        ctx = ctx_self
        alpha, beta = Node(np.ones((1, k_sub))), Node(np.zeros((1, k_sub)))
    elif variant == "ia":
        ctx = ctx_inter
        alpha, beta = Node(np.zeros((1, k_sub))), Node(np.ones((1, k_sub)))
    elif variant == "sa+ia":
        ctx = nm.add(nm.scale(ctx_self, 0.5), nm.scale(ctx_inter, 0.5))
        alpha, beta = Node(np.full((1, k_sub), 0.5)), Node(np.full((1, k_sub), 0.5))
    else:
        ctx, alpha, beta = fuse(
            ctx_self, ctx_inter,
            param_nodes["fuse1_w"], param_nodes["fuse1_b"],
            param_nodes["fuse2_w"], param_nodes["fuse2_b"],
        )

    logits = predict(ctx, param_nodes["w_f"], param_nodes["w_o"], param_nodes["b_o"])
    return ForwardTrace(
        h_fwd=h_fwd, h_bwd=h_bwd, h=h,
        attn_self=attn_self, attn_inter=attn_inter,
        ctx_self=ctx_self, ctx_inter=ctx_inter, ctx=ctx,
        alpha=alpha, beta=beta, logits=logits,
        subset=subset, variant=variant, mask=np.asarray(mask).astype(bool),
    )


def export_attention(
    trace: ForwardTrace, tokens: Sequence[str], label_names: Sequence[str],
    doc_id: str = "",
) -> dict:
    """Per-label (token, fused weight) lists, heaviest token first.

    Weights are the variant-aware convex mix of the two attention columns,
    so each label's weights over the real tokens sum to 1.
    """
    if len(label_names) != len(trace.subset):
        raise ShapeError(
            f"{len(label_names)} label names for {len(trace.subset)} subset labels"
        )
    fused = trace.fused_attention()
    n_real = int(trace.mask.sum())
    shown = list(tokens)[:n_real]
    report = {"doc_id": doc_id, "labels": []}
    for j, name in enumerate(label_names):
        weighted = sorted(
            ((tok, float(fused[t, j])) for t, tok in enumerate(shown)),
            key=lambda tw: -tw[1],
        )
        report["labels"].append({"label": name, "tokens": [[t, w] for t, w in weighted]})
    return report


def _valid_subset(subset: Sequence[int], k: int) -> list[int]:
    subset = list(subset)
    if not subset:
        raise ValidationError("label subset must be nonempty")
    for label in subset:
        if not (0 <= label < k):
            raise ValidationError(f"label {label} outside range [0,{k})")
    return subset
