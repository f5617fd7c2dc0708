"""Label-aware document representation via hybrid attention.

Pipeline per document: token embeddings (d x n) run through a Bi-LSTM
giving H = [H_f; H_b] (2r x n), the forward context states (r x n) over
the backward ones, as one node.  Two attention routes score every word
against every label: a content route tanh(W_s1 H) scored by per-label
rows of W_s2, and an interaction route matching H_f + H_b, summed from
H's halves, against projected label vectors W_q L.  Each route yields an
n x k' attention matrix A (a softmax over words per label).  A learned
gate mixes the two per label, and a small feed-forward head turns each
column of the paper's mixed context H (alpha A_s + beta A_i) into a
logit.  The 2r x k' contexts H A are never built: every product of three
matrices goes through `numeric.matmul_chain`, which takes the cheaper
association.  The model yields logits, and a non-finite logit raises
NumericalError, since every score and loss passes through them; the
sigmoid is applied only by `ForwardTrace.scores()`, and training feeds
the logits straight to `numeric.bce_with_logits`.  The parameters are
the arrays `param_table` lists, the one place their names, shapes and
order are written down.

`forward_batch` checks its inputs, then runs equal-length documents
through one embedding gather and one Bi-LSTM node (both directions, the
documents side by side as column blocks), then the rest per document on
its column slice of H; `forward` is a batch of one.

Ablation variants: "sa" (content route only), "ia" (interaction route
only), "sa+ia" (fixed 50/50 mix), "laha" (learned gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import numeric as nm
from .errors import NumericalError, ShapeError, ValidationError, check_int
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
            check_int(f.name, getattr(self, f.name), 1)


class ModelParams(dict):
    """Parameter name -> array, one entry per `param_table` row, in its order."""

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
    return ModelParams(arrays)


def wrap_params(params: ModelParams) -> dict[str, Node]:
    """Leaf nodes sharing the parameter buffers (grads land on the nodes)."""
    return {name: Node(arr) for name, arr in params.items()}


@dataclass
class ForwardTrace:
    """Intermediate tensors of one document pass (nodes keep the graph alive)."""

    h: Node
    attn_self: Node | None
    attn_inter: Node | None
    mix: Node
    alpha: Node
    beta: Node
    logits: Node
    subset: list[int]
    mask: np.ndarray

    def scores(self) -> np.ndarray:
        """Per-label probabilities, sigmoid of the logits, aligned with subset.

        This is the only place the model's sigmoid is applied.
        """
        return nm.sigmoid(self.logits.value).ravel()


def bilstm_forward(embedded: Node, wx_f, wh_f, b_f, wx_b, wh_b, b_b, docs: int = 1) -> Node:
    """Run both LSTM directions over embedded tokens: H, one `numeric.bilstm` node.

    `embedded` is d x (docs * n), document j in columns j*n ... j*n + n - 1.
    Returns H = [H_f; H_b], 2r x (docs * n) in that column order: the
    forward states over the backward ones (column t = state after reading
    token t from the right), each document from zero states.  Padded
    positions are stepped too, so the backward direction starts at a
    document's last column whatever the padding.  At large shapes, with two
    usable CPUs, the node steps the reverse direction on a worker thread
    that touches no Node.
    """
    return nm.bilstm(embedded, wx_f, wh_f, b_f, wx_b, wh_b, b_b, docs)


def self_attention(h: Node, w_s1, w_s2, subset: Sequence[int], mask) -> Node:
    """Content attention: rows of W_s2 score tanh(W_s1 H) per label.

    Returns A_s, n x k' column-stochastic attention over unmasked words;
    the paper's per-label context matrix is C_s = H @ A_s.
    """
    t = nm.activate(nm.matmul(w_s1, h), "tanh")
    scores = nm.matmul(nm.take_rows(w_s2, subset), t)          # k' x n
    return nm.softmax_columns(nm.transpose(scores), mask)      # n x k'


def interaction_attention(
    h: Node, label_vectors: np.ndarray, w_q, subset: Sequence[int], mask,
) -> Node:
    """Structure attention: words match projected label vectors.

    With H = [H_f; H_b], the matching score for word t and label j is
    H[:, t] . [Q; Q][:, j], Q = W_q L over the subset: the block form
    [H_f^T H_b^T][Q; Q], collapsed to (H_f + H_b)^T Q (`add_halves`) and
    built by `matmul_chain`.  Returns A_i, the n x k' softmax over words;
    the paper's context matrix is C_i = H @ A_i.
    """
    match = nm.matmul_chain(nm.transpose(nm.add_halves(h)), w_q, label_vectors[:, subset])
    return nm.softmax_columns(match, mask)                     # n x k'


def fuse(h: Node, a_s: Node, a_i: Node, f1_w, f1_b, f2_w, f2_b):
    """Adaptive convex mix of the two attention matrices, per label.

    Raw gates a_j = sigmoid(F1 C_s[:, j]), b_j = sigmoid(F2 C_i[:, j]) on the
    contexts C = H A, taken as F H A, normalize to alpha_j = a_j / (a_j + b_j)
    and beta_j = 1 - alpha_j (sigmoid positivity keeps this well-defined).
    Returns (mix, alpha, beta): column j of mix is alpha_j A_s[:, j] +
    beta_j A_i[:, j], so H @ mix is the mixed context alpha C_s + beta C_i.
    """
    raw_a = nm.activate(nm.add_colvec(nm.matmul_chain(f1_w, h, a_s), f1_b), "sigmoid")
    raw_b = nm.activate(nm.add_colvec(nm.matmul_chain(f2_w, h, a_i), f2_b), "sigmoid")
    alpha = nm.div(raw_a, nm.add(raw_a, raw_b))
    beta = nm.const_minus(1.0, alpha)
    mix = nm.add(nm.scale_cols(a_s, alpha), nm.scale_cols(a_i, beta))
    return mix, alpha, beta


def predict(h: Node, mix: Node, w_f, w_o, b_o) -> Node:
    """Logits per label: W_o relu(W_f H mix) + b, a 1 x k' row (no sigmoid)."""
    hidden = nm.activate(nm.matmul_chain(w_f, h, mix), "relu")
    return nm.add_colvec(nm.matmul(w_o, hidden), b_o)


def forward(
    token_ids: np.ndarray, mask: np.ndarray, param_nodes: dict[str, Node],
    label_vectors: np.ndarray | None, subset: Sequence[int], variant: str = "laha",
) -> ForwardTrace:
    """Full pass over one encoded document for the labels in `subset`."""
    return forward_batch([token_ids], [mask], param_nodes, label_vectors, [subset], variant)[0]


def forward_batch(
    token_rows: Sequence[np.ndarray], masks: Sequence[np.ndarray],
    param_nodes: dict[str, Node], label_vectors: np.ndarray | None,
    subsets: Sequence[Sequence[int]], variant: str = "laha",
) -> list[ForwardTrace]:
    """Full pass over equal-length encoded documents, each with its label subset.

    The one place the model's inputs are checked.  One embedding gather and
    one `bilstm_forward` call step every document; attention, fuse and
    predict then run per document on its column slice of H.  Returns one
    trace per document, in order.
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
    if label_vectors is not None:
        label_vectors = np.asarray(label_vectors, dtype=np.float64)
        expected = (param_nodes["w_q"].cols, k)
        if label_vectors.shape != expected:
            raise ShapeError(f"label embedding must be {expected}, got {label_vectors.shape}")

    embedded = nm.transpose(nm.take_rows(param_nodes["embedding"], np.concatenate(token_rows)))
    h = bilstm_forward(
        embedded,
        param_nodes["lstm_wx_f"], param_nodes["lstm_wh_f"], param_nodes["lstm_b_f"],
        param_nodes["lstm_wx_b"], param_nodes["lstm_wh_b"], param_nodes["lstm_b_b"],
        docs=docs,
    )
    return [
        _attend(nm.slice_cols(h, j * n, (j + 1) * n), mask, param_nodes, label_vectors,
                subset, variant)
        for j, (mask, subset) in enumerate(zip(masks, subsets))
    ]


def _attend(h, mask, param_nodes, label_vectors, subset, variant):
    """Attention routes, gate and head of one document over its Bi-LSTM states H."""
    attn_self = attn_inter = None
    if variant != "ia":
        attn_self = self_attention(h, param_nodes["w_s1"], param_nodes["w_s2"], subset, mask)
    if variant != "sa":
        attn_inter = interaction_attention(h, label_vectors, param_nodes["w_q"], subset, mask)

    if variant == "laha":
        mix, alpha, beta = fuse(
            h, attn_self, attn_inter,
            param_nodes["fuse1_w"], param_nodes["fuse1_b"],
            param_nodes["fuse2_w"], param_nodes["fuse2_b"],
        )
    else:
        weight = {"sa": 1.0, "ia": 0.0, "sa+ia": 0.5}[variant]  # fixed alpha
        alpha, beta = (Node(np.full((1, len(subset)), a)) for a in (weight, 1.0 - weight))
        if variant == "sa+ia":
            mix = nm.add(nm.scale(attn_self, 0.5), nm.scale(attn_inter, 0.5))
        else:
            mix = attn_self if variant == "sa" else attn_inter

    logits = predict(h, mix, param_nodes["w_f"], param_nodes["w_o"], param_nodes["b_o"])
    if not np.isfinite(logits.value).all():
        raise NumericalError("non-finite logit")
    return ForwardTrace(
        h=h, attn_self=attn_self, attn_inter=attn_inter, mix=mix, alpha=alpha, beta=beta,
        logits=logits, subset=subset, mask=np.asarray(mask).astype(bool),
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
    fused = trace.mix.value
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
        if type(label) is not int or not 0 <= label < k:  # plain in-range ids skip the full check
            check_int("label", label, 0, k)
    return subset
