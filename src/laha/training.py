"""Negative-sampled training loop, Adam in chunks over packed buffers, checkpointing.

Each document trains against its positive labels plus a small random set
of negatives; a batch runs through one `model.forward_batch` call, and
the loss is binary cross-entropy on the model's logits (one fused
`bce_with_logits` op per batch), summed over each subset and averaged
over the batch.  All randomness derives from (seed, epoch), so a
run is a pure function of its config and resuming from a checkpoint
reproduces the uninterrupted run bit for bit.  A checkpoint is one value,
a `Checkpoint`: `save_checkpoint` writes it and `load_checkpoint` returns it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np

from . import model as model_mod
from . import numeric as nm
from .data import Corpus, Vocabulary, atomic_write_bytes, doc_labels, encode_document
from .errors import CheckpointError, NumericalError, ShapeError, ValidationError
from .errors import check_int, check_labels, check_positive
from .model import ModelConfig, ModelParams
from .numeric import Node

CHECKPOINT_FORMAT = "laha-checkpoint"
CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # a checkpoint records them, and must match
_CHUNK = 1 << 16  # floats per Adam pass: all of a d = r = 32 model; five such arrays stay cached


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float = 0.001
    batch_size: int = 64
    negatives_per_doc: int = 10
    seed: int = 0
    finetune_word_vectors: bool = True

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("negatives_per_doc", 0), ("seed", 0)):
            setattr(self, name, check_int(name, getattr(self, name), low))
        self.learning_rate = check_positive("learning_rate", self.learning_rate)
        if not isinstance(self.finetune_word_vectors, bool):
            raise ValidationError("finetune_word_vectors must be a bool")


@dataclass
class AdamState:
    """The shared step counter, and moments m and v packed in the order of their parameters."""

    step: int
    m: ModelParams
    v: ModelParams

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(0, *(ModelParams({n: a.shape for n, a in params.items()}) for _ in "mv"))


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float):
    """One bias-corrected Adam update, in place, of the parameters `grads` names.

    They end `params`, `state.m` and `state.v` in order and shape as views of each `flat`, checked
    with `lr` and every gradient before anything is written.  The tail spans go in chunks of
    `_CHUNK` floats, gathering the gradients a chunk spans; each element takes Adam's ops in order.
    """
    check_positive("lr", lr)
    packs = (params, state.m, state.v)
    if any(list(pack)[len(pack) - len(grads):] != list(grads) for pack in packs):
        raise ValidationError(f"{list(grads)} must end the parameters and both moments, in order")
    with np.errstate(over="ignore"):  # finite entries square to a finite sum unless some are huge
        for name, g in grads.items():
            if g.shape != params[name].shape:
                raise ShapeError(f"gradient shape {g.shape} != {params[name].shape} for {name}")
            if state.m[name].shape != g.shape or state.v[name].shape != g.shape:
                raise ValidationError(f"Adam state lacks m or v of shape {g.shape} for {name!r}")
            for pack in packs:  # the update walks each pack's flat, not its entries
                if pack[name].base is not pack.flat:
                    raise ValidationError(f"{name!r} of the parameters or a moment was replaced")
            if not math.isfinite(np.vdot(g, g)) and not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
    starts = np.cumsum([0] + [g.size for g in grads.values()]).tolist()
    p_all, m_all, v_all = (pack.flat[pack.flat.size - starts[-1]:] for pack in packs)
    state.step += 1
    bc1, bc2 = 1.0 - ADAM_BETA1 ** state.step, 1.0 - ADAM_BETA2 ** state.step
    scratch = np.empty((2, min(starts[-1], _CHUNK)))
    for lo in range(0, starts[-1], _CHUNK):
        hi = min(lo + _CHUNK, starts[-1])
        pieces = [g.reshape(-1)[max(lo - start, 0) : hi - start] for g, start, end
                  in zip(grads.values(), starts, starts[1:]) if start < hi and end > lo]
        u, t = scratch[:, : hi - lo]  # u holds a gathered g until the moments are updated
        g = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, out=u)
        p, m, v = p_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=t), 1.0 - ADAM_BETA2, out=t)
        np.add(np.sqrt(np.divide(v, bc2, out=t), out=t), ADAM_EPS, out=t)
        p -= np.divide(np.multiply(np.divide(m, bc1, out=u), lr, out=u), t, out=u)


def sample_labels(positives: Sequence[int], negatives_per_doc: int, k: int, rng) -> list[int]:
    """All positives plus distinct uniform negatives from the complement, as a list.

    `positives` are a document's distinct labels in [0, k), as `data.doc_labels`
    returns them; they come first, then negatives in draw order.  When the
    complement is not larger than the request, the subset is all k labels.
    """
    positives = list(positives)
    check_int("negatives_per_doc", negatives_per_doc, 0)
    check_int("k", k, 1)
    if not positives or len(set(check_labels("positive label", positives, k))) < len(positives):
        raise ValidationError(f"positives must be distinct labels, at least one, got {positives}")
    complement = np.flatnonzero(np.bincount(positives, minlength=k) == 0)
    if negatives_per_doc >= complement.size:
        return positives + complement.tolist()
    drawn = rng.choice(complement, size=negatives_per_doc, replace=False)
    return positives + [int(x) for x in drawn]


def bce_loss(logits: Sequence[Node], targets: Sequence[np.ndarray]) -> Node:
    """Binary cross-entropy on logits, summed per document, averaged over the batch.

    Takes the head's logits, not probabilities, and the batch is one
    `numeric.bce_with_logits` op, so a saturated logit keeps its gradient.
    """
    return nm.bce_with_logits(logits, [nm.as_floats(y).reshape(1, -1) for y in targets])


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
    a checkpoint continues the original run exactly.  A given `adam` must
    end with m and v of every trainable parameter's shape, in order: `adam_step` enforces it.
    """
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    check_int("start_epoch", start_epoch, 0)
    trainable = list(params)
    if not cfg.finetune_word_vectors:
        trainable.remove("embedding")
    if adam is None:
        adam = AdamState.init({n: params[n] for n in trainable})

    positives = [doc_labels(doc, model_cfg.k) for doc in corpus]
    encoded = [encode_document(doc, vocab, model_cfg.max_len) for doc in corpus]
    history: list[float] = []
    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(len(corpus))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(corpus), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            param_nodes = model_mod.wrap_params(params)
            labels = [positives[doc_idx] for doc_idx in batch]
            subsets = [sample_labels(p, cfg.negatives_per_doc, model_cfg.k, rng) for p in labels]
            try:
                ids, masks = zip(*(encoded[doc_idx] for doc_idx in batch))
                traces = model_mod.forward_batch(
                    ids, masks, param_nodes, label_vectors, subsets, variant
                )
                # a subset lists its positives first
                targets = [np.arange(len(s)) < len(p) for p, s in zip(labels, subsets)]
                loss = bce_loss([trace.logits for trace in traces], targets)
                nm.backward(loss)
            except NumericalError as err:
                raise NumericalError(
                    f"non-finite value at epoch {epoch}, batch {batch_no}: {err}"
                ) from err
            loss_value = float(loss.value[0, 0])
            grads = {n: param_nodes[n].grad for n in trainable}
            del traces, loss, param_nodes  # free the graph before Adam's temporaries
            adam_step(params, grads, adam, cfg.learning_rate)
            loss_sum += loss_value * len(batch)
        history.append(loss_sum / len(corpus))  # every document, once an epoch
    return params, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """A run's state after `epoch` epochs, what `save_checkpoint` writes and `load_checkpoint`
    returns; `train(corpus, ckpt.vocab, ckpt.params, ...)` resumes it from `epoch` on."""

    params: ModelParams
    model_cfg: ModelConfig
    variant: str
    vocab: Vocabulary
    train_cfg: TrainConfig
    adam: AdamState
    epoch: int


def _tensors(params: dict, adam: AdamState, adam_names: list[str]) -> list[tuple[str, np.ndarray]]:
    """(file name, array) of every tensor, in file order: each parameter, then m and v of each
    of `adam_names`.  Shapes in place of arrays give the tensor table without allocating."""
    return [(f"param/{n}", a) for n, a in params.items()] + [
        (f"adam_{m}/{n}", getattr(adam, m)[n]) for m in "mv" for n in adam_names]


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """JSON header line, then raw little-endian float64 payloads in header order."""
    adam_names = [n for n in ckpt.params if n in ckpt.adam.m]
    tensors = _tensors(ckpt.params, ckpt.adam, adam_names)
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": asdict(ckpt.model_cfg),
        "variant": ckpt.variant,
        "vocab": ckpt.vocab.tokens,
        "train": asdict(ckpt.train_cfg),
        "epoch": ckpt.epoch,
        "adam": {"step": ckpt.adam.step, "beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                 "eps": ADAM_EPS, "params": adam_names},
        "tensors": [[name, arr.shape[0], arr.shape[1]] for name, arr in tensors],
    }
    blob = json.dumps(header).encode() + b"\n"
    blob += b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in tensors)
    _read_checkpoint(blob)  # the write replaces the file: refuse what the loader would reject
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str) -> Checkpoint:
    """All-or-nothing load; any inconsistency raises CheckpointError."""
    with open(path, "rb") as fh:
        return _read_checkpoint(fh.read())


def _read_checkpoint(raw: bytes) -> Checkpoint:
    """The checkpoint in a file's bytes; any inconsistency raises CheckpointError."""
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("checkpoint has no header line")
    try:
        header = json.loads(raw[:newline].decode())
    except (ValueError, RecursionError) as err:  # ValueError: bad UTF-8 or JSON, a huge integer
        raise CheckpointError(f"unreadable checkpoint header: {err}") from err
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a model checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {header.get('version')} is incompatible "
                              f"with supported version {CHECKPOINT_VERSION}")
    try:
        return _parse_checkpoint(header, raw[newline + 1 :])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed checkpoint: {err!r}") from err


def _parse_checkpoint(header: dict, payload: bytes) -> Checkpoint:
    model_cfg = ModelConfig(**header["model"])
    train_cfg = TrainConfig(**header["train"])
    variant = header["variant"]
    if variant not in model_mod.VARIANTS:
        raise CheckpointError(f"unknown variant {variant!r}")
    tokens = header["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError("vocab must be a list of strings")
    vocab = Vocabulary(tokens)
    table = model_mod.param_table(model_cfg, len(vocab))
    shapes = {n: [rows, cols] for n, (rows, cols, _) in table.items()}
    adam_info = header["adam"]
    adam_names = adam_info["params"]
    for i, name in enumerate(adam_names):
        if name not in shapes or name in adam_names[:i]:
            raise CheckpointError(f"Adam state names an unknown or repeated parameter {name!r}")
    # the tensor table this config, vocabulary and Adam state imply, checked before allocating
    expected = [[name, *shape] for name, shape in
                _tensors(shapes, AdamState(0, shapes, shapes), adam_names)]
    declared = header["tensors"]
    if declared != expected:
        i, (got, want) = next((i, pair) for i, pair in enumerate(zip_longest(declared, expected))
                              if pair[0] != pair[1])
        raise CheckpointError(f"tensor table entry {i} is {got}, the config implies {want}")
    expected_bytes = sum(rows * cols for _, rows, cols in expected) * 8
    if len(payload) != expected_bytes:
        raise CheckpointError(f"payload is {len(payload)} bytes, header declares {expected_bytes}")
    moments = {n: shape for n, shape in shapes.items() if n in adam_names}  # in table order
    adam = AdamState(adam_info["step"], ModelParams(moments), ModelParams(moments))
    params, offset = ModelParams(shapes), 0
    for name, arr in _tensors(params, adam, adam_names):  # filled in file order
        values = np.frombuffer(payload, dtype="<f8", count=arr.size, offset=offset)
        if not np.isfinite(values).all():
            raise CheckpointError(f"tensor {name} has non-finite entries")
        arr[...] = values.reshape(arr.shape)
        offset += arr.size * 8

    for name, count in (("epoch", header["epoch"]), ("adam step", adam.step)):
        if type(count) is not int or count < 0:
            raise CheckpointError(f"{name} must be a non-negative integer, got {count!r}")
    if [adam_info[key] for key in ("beta1", "beta2", "eps")] != [ADAM_BETA1, ADAM_BETA2, ADAM_EPS]:
        raise CheckpointError(f"Adam's beta1, beta2 and eps must be {ADAM_BETA1}, {ADAM_BETA2} "
                              f"and {ADAM_EPS}")
    return Checkpoint(params, model_cfg, variant, vocab, train_cfg, adam, header["epoch"])
