"""The bench's tracer finds every function it traces, loaded from bench/ by path.

The tracer records nothing for a name the package no longer has, so a
renamed traced function (`model.bilstm_forward`, say) would read 0 in its
per-layer metric without an error; `install` must leave `absent` empty.
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

from laha import model, numeric

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_finds_every_function_it_traces():
    with mock.patch.dict(os.environ):  # bench/run.py pins BLAS to one thread as it loads
        run = _load("run")
    tracer = _load("tracer").Tracer()
    originals = model.bilstm_forward, numeric.Node.__init__
    try:
        run.install(tracer)
        assert tracer.absent == []
        assert model.bilstm_forward is not originals[0]
    finally:
        tracer.uninstall()
    assert (model.bilstm_forward, numeric.Node.__init__) == originals
