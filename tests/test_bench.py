"""The bench's tracer finds every function it traces, loaded from bench/ by path.

The tracer records nothing for a name the package no longer has, so a
renamed traced function (`model.bilstm_forward`, say) would read 0 in its
per-layer metric without an error; `install` must leave `absent` empty.
Nor may the model call its encoder, or `train` its loss, past the name
the tracer wraps: the training and the scoring path each run the Bi-LSTM
under `model.bilstm_forward`, and `train` runs each batch's loss under
`training.bce_loss`, which the bench's `training.bce_loss.ms_per_batch`
and its batch count read.
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np

from laha import model, numeric, training
from laha.data import Document, Vocabulary, encode_document

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed():
    """bench/run.py's `install` and a fresh tracer."""
    with mock.patch.dict(os.environ):  # bench/run.py pins BLAS to one thread as it loads
        run = _load("run")
    return run.install, _load("tracer").Tracer()


def test_the_bench_tracer_finds_every_function_it_traces():
    install, tracer = _installed()
    originals = model.bilstm_forward, numeric.Node.__init__
    try:
        install(tracer)
        assert tracer.absent == []
        assert model.bilstm_forward is not originals[0]
    finally:
        tracer.uninstall()
    assert (model.bilstm_forward, numeric.Node.__init__) == originals


def test_the_bench_tracer_times_the_bilstm_of_a_trained_batch_and_of_a_scored_document():
    cfg = model.ModelConfig(k=4, max_len=5, d=3, r=2, d_a=2)
    vocab = Vocabulary(["a", "b", "c"])
    corpus = [Document("0", ["a", "b"], {0, 2}), Document("1", ["c", "a", "b"], {1})]
    rng = np.random.default_rng(0)
    params = model.init_params(cfg, rng.normal(size=(len(vocab), cfg.d)), seed=0)
    label_vectors = rng.normal(size=(cfg.r, cfg.k))
    install, tracer = _installed()
    try:
        install(tracer)
        training.train(corpus, vocab, params, cfg, label_vectors,
                       training.TrainConfig(epochs=1, batch_size=2, negatives_per_doc=1))
        ids, mask = encode_document(corpus[0], vocab, cfg.max_len)
        model.forward(ids, mask, model.wrap_params(params), label_vectors, range(cfg.k))
    finally:
        tracer.uninstall()
    assert tracer.calls["training.adam_step"] == tracer.calls["model.forward"] == 1
    assert tracer.calls["training.bce_loss"] == 1
    assert tracer.calls["model.bilstm_forward"] == 2
