"""Negative-sampled training loop, Adam optimizer, checkpointing.

Each document trains against its positive labels plus a small random set
of negatives; the loss is binary cross-entropy on the model's logits (one
fused `bce_with_logits` op per document), summed over that subset and
averaged over the batch.  All randomness derives from (seed, epoch), so a
run is a pure function of its config and resuming from a checkpoint
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import model as model_mod
from . import numeric as nm
from .data import Corpus, Vocabulary, encode_document
from .errors import CheckpointError, NumericalError, ShapeError, ValidationError
from .model import ModelConfig, ModelParams
from .numeric import Node

CHECKPOINT_FORMAT = "laha-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float = 0.001
    batch_size: int = 64
    negatives_per_doc: int = 10
    seed: int = 0
    finetune_word_vectors: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.negatives_per_doc < 0:
            raise ValidationError("negatives_per_doc must be >= 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class AdamState:
    """First/second moment accumulators and shared step counter."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    @classmethod
    def init(cls, params: dict[str, np.ndarray], **kwargs) -> "AdamState":
        state = cls(**kwargs)
        for name, arr in params.items():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def sample_labels(
    positives: set[int], negatives_per_doc: int, k: int, rng
) -> list[int]:
    """All positives plus distinct uniform negatives from the complement.

    Positives come first (sorted), then negatives in draw order.  When the
    complement is not larger than the request, the subset is all k labels.
    """
    if not positives:
        raise ValidationError("cannot sample labels for an empty positive set")
    pos = sorted(positives)
    if pos[0] < 0 or pos[-1] >= k:
        raise ValidationError(f"positive labels {pos} outside range [0,{k})")
    if negatives_per_doc < 0:
        raise ValidationError("negatives_per_doc must be >= 0")
    complement = np.setdiff1d(np.arange(k), pos, assume_unique=False)
    if negatives_per_doc >= complement.size:
        return pos + complement.tolist()
    drawn = rng.choice(complement, size=negatives_per_doc, replace=False)
    return pos + [int(x) for x in drawn]


def bce_loss(logits: Sequence[Node], targets: Sequence[np.ndarray]) -> Node:
    """Binary cross-entropy on logits, summed per document, averaged over the batch.

    Takes the head's logits, not probabilities: each document is one
    `numeric.bce_with_logits` op, so a saturated logit keeps its gradient.
    """
    if len(logits) != len(targets):
        raise ShapeError(f"{len(logits)} predictions vs {len(targets)} target vectors")
    if not logits:
        raise ValidationError("bce_loss needs at least one document")
    per_doc = [
        nm.bce_with_logits(z, np.asarray(y, dtype=np.float64).reshape(1, -1))
        for z, y in zip(logits, targets)
    ]
    return nm.scale(nm.sum_nodes(per_doc), 1.0 / len(per_doc))


def train(
    corpus: Corpus,
    vocab: Vocabulary,
    params: ModelParams,
    model_cfg: ModelConfig,
    label_vectors: np.ndarray | None,
    cfg: TrainConfig,
    variant: str = "laha",
    adam: AdamState | None = None,
    start_epoch: int = 0,
) -> tuple[ModelParams, list[float]]:
    """Epoch loop: shuffle, sample label subsets, forward, backward, Adam.

    Mutates `params` in place and returns it with the per-epoch mean loss
    history.  The label embedding is held fixed; the word-embedding table
    updates only when cfg.finetune_word_vectors.  Epoch randomness comes
    from a stream seeded by (cfg.seed, epoch), so training from epoch e of
    a checkpoint continues the original run exactly.
    """
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    trainable = list(params.arrays())
    if not cfg.finetune_word_vectors:
        trainable.remove("embedding")
    if adam is None:
        adam = AdamState.init({n: params.arrays()[n] for n in trainable})

    encoded = [encode_document(doc, vocab, model_cfg.max_len) for doc in corpus]
    history: list[float] = []
    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(len(corpus))
        loss_sum = 0.0
        docs_seen = 0
        for batch_no, start in enumerate(range(0, len(corpus), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            arrays = params.arrays()
            param_nodes = model_mod.wrap_params(params)
            try:
                logits, targets = [], []
                for doc_idx in batch:
                    doc = corpus[doc_idx]
                    ids, mask = encoded[doc_idx]
                    subset = sample_labels(
                        doc.labels, cfg.negatives_per_doc, model_cfg.k, rng
                    )
                    trace = model_mod.forward(
                        ids, mask, param_nodes, label_vectors, subset, variant
                    )
                    logits.append(trace.logits)
                    targets.append(
                        np.array([1.0 if l in doc.labels else 0.0 for l in subset])
                    )
                loss = bce_loss(logits, targets)
                nm.backward(loss)
            except NumericalError as err:
                raise NumericalError(
                    f"non-finite value at epoch {epoch}, batch {batch_no}: {err}"
                ) from err
            adam_step(
                {n: arrays[n] for n in trainable},
                {n: param_nodes[n].grad for n in trainable},
                adam,
                cfg.learning_rate,
            )
            loss_sum += float(loss.value[0, 0]) * len(batch)
            docs_seen += len(batch)
        history.append(loss_sum / docs_seen)
    return params, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: ModelParams
    model_cfg: ModelConfig
    variant: str
    vocab_tokens: list[str]
    train_cfg: TrainConfig
    adam: AdamState
    epoch: int


def save_checkpoint(
    path: str,
    params: ModelParams,
    model_cfg: ModelConfig,
    variant: str,
    vocab: Vocabulary,
    train_cfg: TrainConfig,
    adam: AdamState,
    epoch: int,
) -> None:
    """JSON header line, then raw little-endian float64 payloads in header order."""
    arrays = params.arrays()
    tensors: list[tuple[str, np.ndarray]] = [(f"param/{n}", a) for n, a in arrays.items()]
    adam_names = sorted(adam.m)
    tensors += [(f"adam_m/{n}", adam.m[n]) for n in adam_names]
    tensors += [(f"adam_v/{n}", adam.v[n]) for n in adam_names]
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": model_cfg.to_dict(),
        "variant": variant,
        "vocab": vocab.tokens,
        "train": train_cfg.to_dict(),
        "epoch": epoch,
        "rng": {"seed": train_cfg.seed, "next_epoch": epoch},
        "adam": {
            "step": adam.step,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
            "params": adam_names,
        },
        "tensors": [[name, arr.shape[0], arr.shape[1]] for name, arr in tensors],
    }
    blob = json.dumps(header).encode() + b"\n"
    blob += b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in tensors)
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str) -> Checkpoint:
    """All-or-nothing load; any inconsistency raises CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("checkpoint has no header line")
    try:
        header = json.loads(raw[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"unreadable checkpoint header: {err}") from err
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a model checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {header.get('version')} is incompatible "
            f"with supported version {CHECKPOINT_VERSION}"
        )
    try:
        return _parse_checkpoint(header, raw[newline + 1 :])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed checkpoint: {err!r}") from err


def _parse_checkpoint(header: dict, payload: bytes) -> Checkpoint:
    declared = header["tensors"]
    if any(r < 0 or c < 0 for _, r, c in declared):
        raise CheckpointError("checkpoint declares a negative tensor shape")
    adam_names = header["adam"]["params"]
    saved_order = [f"param/{n}" for n in ModelParams.names()]
    saved_order += [f"adam_{m}/{n}" for m in "mv" for n in adam_names]
    if [name for name, _, _ in declared] != saved_order:
        raise CheckpointError("checkpoint tensor table is not in the order it is saved in")
    expected_bytes = sum(r * c for _, r, c in declared) * 8
    if len(payload) != expected_bytes:
        raise CheckpointError(
            f"payload is {len(payload)} bytes, header declares {expected_bytes}"
        )
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, r, c in declared:
        count = r * c
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(r, c).astype(np.float64)
        offset += count * 8

    model_cfg = ModelConfig(**header["model"])
    train_cfg = TrainConfig(**header["train"])
    variant = header["variant"]
    if variant not in model_mod.VARIANTS:
        raise CheckpointError(f"unknown variant {variant!r}")
    vocab_tokens = list(header["vocab"])
    param_arrays = {}
    table = model_mod.param_table(model_cfg, len(Vocabulary(vocab_tokens)))
    for name, (rows, cols, _) in table.items():
        param_arrays[name] = tensors[f"param/{name}"]
        if param_arrays[name].shape != (rows, cols):
            raise CheckpointError(
                f"tensor {name!r} has shape {param_arrays[name].shape}, "
                f"config and vocabulary imply {(rows, cols)}"
            )
    adam_info = header["adam"]
    adam = AdamState(beta1=adam_info["beta1"], beta2=adam_info["beta2"],
                     eps=adam_info["eps"])
    adam.step = adam_info["step"]
    for name in adam_names:
        if name not in param_arrays:
            raise CheckpointError(f"Adam state names unknown parameter {name!r}")
        adam.m[name] = tensors[f"adam_m/{name}"]
        adam.v[name] = tensors[f"adam_v/{name}"]
        if not adam.m[name].shape == adam.v[name].shape == param_arrays[name].shape:
            raise CheckpointError(f"Adam state for {name!r} does not match its shape")
    return Checkpoint(
        params=ModelParams(**param_arrays),
        model_cfg=model_cfg,
        variant=variant,
        vocab_tokens=vocab_tokens,
        train_cfg=train_cfg,
        adam=adam,
        epoch=int(header["epoch"]),
    )


def atomic_write_bytes(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
