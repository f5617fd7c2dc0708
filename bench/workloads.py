"""The three benchmark workloads, driven through the package's public API.

Every call into the package goes through a module attribute
(`training.train`, `model.forward`, ...), so the tracer can wrap it.

An untraced run (`sample_*`) spreads the samples of each timing metric
over the whole run.  It has a main sequence of units (training batches,
epochs, evaluation chunks); after each unit it takes one more sample of
each of its short measurements (set-up, label embedding, a scoring chunk)
whose spacing has passed since that measurement's last sample.  The
machines this runs on switch between faster and slower phases every few
seconds, and a median over samples taken across the run damps that far
better than the same number of samples taken back to back.

A traced run replays a workload's own phase (`measure`): time-bounded
loops take `units`, None runs until the time budget is spent, a number
replays exactly that much work.
"""

from __future__ import annotations

import itertools
import math
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from laha import data, labelgraph, metrics, model, training

import corpus as corpus_mod


class Ops:
    """Attempted and failed operations; a raised error or failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def error(self, what: str, err: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(err).__name__}: {err}")


# Calibration.  The machines this runs on also drift in speed over minutes,
# by up to 1.7x from one run to the next, and every kind of work in a run
# moves together.  So each sample is scaled by the speed of a fixed
# reference kernel timed around it: just before, just after, and, for a
# sample that lasts longer than PROBE_EVERY_S, every PROBE_EVERY_S during
# it from a timer signal (the probe's own time is taken out of the
# sample).  A timing then reads as it would on a machine where the kernel
# takes REF_SECONDS.  The kernel mixes small matrix products and ufuncs
# with interpreter work, as the package's autograd does, and allocates no
# objects the cyclic GC tracks, so the program's heap does not change it.
REF_SECONDS = 0.012
REF_ITERATIONS = 1000
PROBE_ITERATIONS = 250
PROBE_EVERY_S = 0.25
_REF_MATRIX = np.random.default_rng(0).standard_normal((32, 32)) * 0.2


def reference_seconds(iterations: int = REF_ITERATIONS) -> float:
    """Wall time of the reference kernel, scaled to REF_ITERATIONS iterations."""
    start = time.perf_counter()
    x, acc = _REF_MATRIX, 0
    for i in range(iterations):
        x = np.tanh(x @ _REF_MATRIX) + 0.5 * x
        acc += i * i % 7
    return (time.perf_counter() - start) * REF_ITERATIONS / iterations


class SpeedProbe:
    """Times the reference kernel every PROBE_EVERY_S while the block runs."""

    def __enter__(self):
        self.refs: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(reference_seconds(PROBE_ITERATIONS))
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Filler:
    """A short measurement sampled between main units, at most once per `every_s`."""
    sample: object  # () -> None, records one sample
    every_s: float
    last: float = -math.inf


@dataclass
class Run:
    seed: int
    seconds: float
    ops: Ops
    tracer: object | None = None
    calibrate: bool = True
    fillers: list[Filler] = field(default_factory=list)
    measures: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # metric -> per-sample values
    raw: dict = field(default_factory=dict)  # metric -> [(seconds, reference seconds)]

    def span(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def timed(self, metric: str, work: float | None, fn, *args, **kwargs):
        """Run fn once and record its seconds (or work per second) as a sample.

        With `calibrate`, the seconds are scaled by REF_SECONDS over the
        mean reference-kernel time around and during the call.  The metric
        is the median of its samples so far.  Returns (result, seconds).
        """
        if not self.calibrate:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds, ref = time.perf_counter() - start, REF_SECONDS
        else:
            before = reference_seconds()
            with SpeedProbe() as probe:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - start - probe.spent
            ref = statistics.fmean([before, *probe.refs, reference_seconds()])
        self.raw.setdefault(metric, []).append((seconds, ref))
        scaled = seconds * REF_SECONDS / ref
        self.samples.setdefault(metric, []).append(scaled if work is None else work / scaled)
        self.measures[metric] = statistics.median(self.samples[metric])
        return result, seconds

    def tick(self) -> None:
        """Between main units: sample every filler whose spacing has passed."""
        for filler in self.fillers:
            if time.perf_counter() - filler.last >= filler.every_s:
                filler.sample()
                filler.last = time.perf_counter()


def no_tick() -> None:
    pass


def finite(a) -> bool:
    return bool(np.isfinite(np.asarray(a, dtype=np.float64)).all())


# ---------------------------------------------------------------------------
# shared stages
# ---------------------------------------------------------------------------


@dataclass
class State:
    corpus: corpus_mod.SyntheticCorpus
    vocab: data.Vocabulary
    cfg: model.ModelConfig
    params: model.ModelParams
    label_vectors: np.ndarray | None = None


def setup(shape: corpus_mod.CorpusShape, seed: int, cfg_kwargs: dict,
          word_vectors: str) -> State:
    """Corpus generation, vocabulary, word vectors and init_params."""
    corpus = corpus_mod.generate(shape, seed)
    vocab = data.build_vocab(corpus.train)
    cfg = model.ModelConfig(k=shape.k, **cfg_kwargs)
    if word_vectors == "pretrained":
        lines = corpus_mod.word_vector_lines(shape, cfg.d, seed)
        vectors = data.load_word_vectors(lines, vocab, cfg.d, seed)
    else:
        vectors = data.random_word_vectors(vocab, cfg.d, seed)
    params = model.init_params(cfg, vectors.table, seed)
    return State(corpus=corpus, vocab=vocab, cfg=cfg, params=params)


def setup_filler(run: Run, make, every_s: float) -> Filler:
    """One more timed set-up per sample; the state it builds is dropped at once."""
    def sample():
        run.timed("setup_s", None, make, run.seed)

    return Filler(sample, every_s)


def sgns_pairs(walks: list[list[int]], window: int, epochs: int) -> int:
    """(center, context) pairs train_skipgram visits for these walks."""
    total = 0
    for walk in walks:
        n = len(walk)
        for pos in range(n):
            total += min(n, pos + window + 1) - max(0, pos - window) - 1
    return total * epochs


def embed_labels(run: Run, train: data.Corpus, k: int, r: int, walk: dict,
                 sgns: dict) -> np.ndarray | None:
    """Co-occurrence graph -> node2vec walks -> skip-gram: one label_embed_s sample.

    Every call does the same seeded work.
    """
    def embed():
        graph = labelgraph.build_cooccurrence_graph(train, k)
        walks = labelgraph.sample_walks(graph, labelgraph.WalkConfig(seed=run.seed, **walk))
        return walks, labelgraph.train_skipgram(walks, k, r, seed=run.seed, **sgns).vectors

    try:
        (walks, vectors), _ = run.timed("label_embed_s", None, embed)
    except Exception as err:  # noqa: BLE001 - a failed stage is a counted failure
        run.ops.error("label embedding", err)
        return None
    if not run.ops.check(vectors.shape == (r, k) and finite(vectors),
                         f"label embedding shape {vectors.shape}, expected ({r}, {k}), "
                         "finite"):
        return None
    if run.tracer is not None:
        run.tracer.counts["labelgraph.walk_steps"] += sum(len(w) - 1 for w in walks)
        run.tracer.counts["labelgraph.sgns_pairs"] += sgns_pairs(
            walks, sgns["window"], sgns["epochs"])
    return vectors


def make_scorer(run: Run, state: State):
    """score_fn for metrics.evaluate: all k labels, each vector checked."""
    k = state.cfg.k
    labels = list(range(k))

    def score(doc: data.Document) -> np.ndarray:
        ids, mask = data.encode_document(doc, state.vocab, state.cfg.max_len)
        nodes = model.wrap_params(state.params)
        scores = model.forward(ids, mask, nodes, state.label_vectors, labels).scores()
        run.ops.check(
            scores.shape == (k,) and finite(scores)
            and bool(((scores >= 0) & (scores <= 1)).all()),
            f"scores of {doc.doc_id}: length {scores.size} of {k}, finite, in [0, 1]")
        return scores

    return lambda doc: run.span("bench.score_fn", score, doc)


def check_permutation(run: Run, state: State, doc: data.Document) -> None:
    """Scoring a permuted label subset gives the permuted scores."""
    k = state.cfg.k
    perm = np.random.default_rng((run.seed, k)).permutation(k).tolist()
    ids, mask = data.encode_document(doc, state.vocab, state.cfg.max_len)
    try:
        nodes = model.wrap_params(state.params)
        full = model.forward(ids, mask, nodes, state.label_vectors, list(range(k))).scores()
        permuted = model.forward(ids, mask, nodes, state.label_vectors, perm).scores()
    except Exception as err:  # noqa: BLE001
        run.ops.error("permutation check", err)
        return
    run.ops.check(bool(np.allclose(permuted, full[perm], rtol=1e-9, atol=1e-12)),
                  "scores under a permuted label subset are the permuted scores")


def score_chunk(run: Run, state: State, part: data.Corpus, train: data.Corpus | None = None):
    """metrics.evaluate over part, scoring all k labels: one score_docs_per_s sample.

    Returns the report, or None after a counted failure.
    """
    try:
        report, _ = run.timed("score_docs_per_s", len(part), metrics.evaluate,
                              make_scorer(run, state), part, train_corpus=train,
                              k=state.cfg.k)
    except Exception as err:  # noqa: BLE001
        run.ops.error(f"scoring {part[0].doc_id} and the next {len(part) - 1}", err)
        return None
    return report


def score_filler(run: Run, state: State, docs: data.Corpus, chunk: int,
                 every_s: float) -> Filler:
    """Scores the next `chunk` of docs (cycling through them) per sample, once
    state has label vectors."""
    chunks = itertools.count()

    def sample():
        if state.label_vectors is not None:
            first = next(chunks) * chunk % len(docs)
            score_chunk(run, state, docs[first:first + chunk])

    return Filler(sample, every_s)


def evaluate_chunks(run: Run, state: State, docs: data.Corpus, chunk: int,
                    train: data.Corpus | None = None, budget: float | None = None,
                    units: int | None = None, tick=no_tick) -> list:
    """metrics.evaluate over consecutive chunks of docs, each chunk one sample.

    Stops after `units` chunks, else once `budget` seconds are spent (at
    least one chunk), else at the end of docs.  Returns the chunk reports.
    """
    done = []
    start = time.perf_counter()
    for first in range(0, len(docs), chunk):
        if units is not None and len(done) >= units:
            break
        if (units is None and budget is not None and done
                and time.perf_counter() - start >= budget):
            break
        report = score_chunk(run, state, docs[first:first + chunk], train)
        if report is None:
            break
        done.append(report)
        tick()
    return done


def combine(reports: list) -> tuple[dict, list[tuple[int, dict | None]]]:
    """Exact document-weighted merge of chunk reports: overall and per group."""
    total = sum(r.documents for r in reports)
    overall = {m: sum(r.overall[m] * r.documents for r in reports) / total
               for m in reports[0].overall}
    groups = []
    for gid in range(len(reports[0].groups)):
        parts = [r.groups[gid] for r in reports if r.groups[gid].metrics]
        docs = sum(g.doc_count for g in parts)
        groups.append((docs, {m: sum(g.metrics[m] * g.doc_count for g in parts) / docs
                              for m in parts[0].metrics} if parts else None))
    return overall, groups


# ---------------------------------------------------------------------------
# aapd-quality: the full pipeline on a trained model (the quality gate)
# ---------------------------------------------------------------------------

QUALITY_DIMS = {"max_len": corpus_mod.AAPD_QUALITY.doc_len[1], "d": 32, "r": 32, "d_a": 32}
QUALITY_WALK = {"walk_length": 10, "walks_per_node": 2}
QUALITY_SGNS = {"window": 3, "negatives": 5, "epochs": 1}
QUALITY_EPOCHS = 6
# Every label is a training target (negatives_per_doc >= k - 1): at these dims the
# extra labels cost little and the model learns in few epochs.  Batches of one
# document give four times the Adam steps of batches of four at nearly the same
# cost; with batches of four and 4 epochs some seeds had not yet learned to beat
# the most-frequent-label ranking.
QUALITY_TRAIN = {"learning_rate": 0.01, "batch_size": 1,
                 "negatives_per_doc": corpus_mod.AAPD_QUALITY.k}
QUALITY_EVAL_CHUNK = 20
QUALITY_EVERY_S = 1.5  # filler spacing: set-up, label embedding, scoring chunk


def quality_setup(seed: int) -> State:
    return setup(corpus_mod.AAPD_QUALITY, seed, QUALITY_DIMS, "pretrained")


def quality_fillers(run: Run, state: State) -> list[Filler]:
    """Label-embedding and scoring samples of the quality pipeline."""
    train, k, r = state.corpus.train, state.cfg.k, state.cfg.r
    return [Filler(lambda: embed_labels(run, train, k, r, QUALITY_WALK, QUALITY_SGNS),
                   QUALITY_EVERY_S),
            score_filler(run, state, state.corpus.test, QUALITY_EVAL_CHUNK, QUALITY_EVERY_S)]


def quality_pipeline(run: Run, state: State, units=None, tick=no_tick) -> int:
    """Label embedding, QUALITY_EPOCHS epochs, evaluation with frequency groups.

    One training.train call per epoch with the Adam state carried over,
    which trains exactly as one call over all epochs would.  `tick` runs
    between units.
    """
    train, test, k = state.corpus.train, state.corpus.test, state.cfg.k
    state.label_vectors = embed_labels(run, train, k, state.cfg.r, QUALITY_WALK,
                                       QUALITY_SGNS)
    if state.label_vectors is None:
        return 0
    tick()
    adam = training.AdamState.init(state.params.arrays())
    history = []
    for epoch in range(QUALITY_EPOCHS):
        cfg = training.TrainConfig(epochs=epoch + 1, seed=run.seed, **QUALITY_TRAIN)
        try:
            (_, losses), _ = run.timed(
                "train_docs_per_s", len(train), training.train, train, state.vocab,
                state.params, state.cfg, state.label_vectors, cfg, adam=adam,
                start_epoch=epoch)
        except Exception as err:  # noqa: BLE001
            run.ops.error(f"training epoch {epoch}", err)
            return 0
        if not run.ops.check(len(losses) == 1 and finite(losses),
                             f"epoch {epoch} loss {losses} finite"):
            return 0
        history += losses
        tick()
    run.measures["final_loss"] = history[-1]
    run.info["epoch_losses"] = history

    chunks = evaluate_chunks(run, state, test, QUALITY_EVAL_CHUNK, train=train, tick=tick)
    if sum(report.documents for report in chunks) < len(test):
        return 0  # a chunk failed; the error is counted
    overall, groups = combine(chunks)
    _, g1 = groups[0]
    run.ops.check(g1 is not None, "G1 tail group has held-out documents")
    run.measures.update({
        "p_at_1": overall["P@1"],
        "p_at_3": overall["P@3"],
        "p_at_5": overall["P@5"],
        "ndcg_at_3": overall["nDCG@3"],
        "ndcg_at_5": overall["nDCG@5"],
        "g1_ndcg_at_5": g1["nDCG@5"] if g1 else 0.0,
    })
    run.info["group_docs"] = [docs for docs, _ in groups]
    return len(test)


def quality_verify(run: Run, state: State) -> None:
    """Permutation check; the trained model beats the most-frequent-label ranking on P@1."""
    check_permutation(run, state, state.corpus.test[0])
    if "p_at_1" not in run.measures:
        return
    k = state.cfg.k
    freqs = metrics.label_frequencies(state.corpus.train, k).astype(np.float64)
    baseline = metrics.evaluate(lambda doc: freqs, state.corpus.test, k=k).overall["P@1"]
    run.info["p_at_1_most_frequent_baseline"] = baseline
    run.ops.check(run.measures["p_at_1"] > baseline,
                  f"p_at_1 {run.measures['p_at_1']} beats the most-frequent-label "
                  f"baseline {baseline}")


def sample_quality(run: Run) -> Run:
    """Untraced aapd-quality: the pipeline, with set-up, embedding and scoring fillers."""
    state, _ = run.timed("setup_s", None, quality_setup, run.seed)
    run.info["corpus"] = corpus_mod.describe(state.corpus)
    run.fillers = [setup_filler(run, quality_setup, QUALITY_EVERY_S),
                   *quality_fillers(run, state)]
    quality_pipeline(run, state, tick=run.tick)
    quality_verify(run, state)
    return run


def quality_gate(run: Run) -> tuple[Run, State]:
    """A quality pipeline run of its own, the gate of the other workloads."""
    gate = Run(run.seed, run.seconds, run.ops)
    state = quality_setup(run.seed)
    gate.info["corpus"] = corpus_mod.describe(state.corpus)
    return gate, state


def finish_gate(run: Run, gate: Run, gate_state: State) -> None:
    """Verify the gate and take from it the metrics the workload's own phase lacks."""
    quality_verify(gate, gate_state)
    from_gate = sorted(set(gate.measures) - set(run.measures))
    for name in from_gate:
        run.measures[name] = gate.measures[name]
        if name in gate.samples:
            run.samples[name] = gate.samples[name]
            run.raw[name] = gate.raw[name]
    run.info["from_gate"] = from_gate
    run.info["quality_gate"] = gate.info


# ---------------------------------------------------------------------------
# aapd-train: paper-size training, random label vectors, no label graph
# ---------------------------------------------------------------------------

PAPER_DIMS = {"d": 300, "r": 256, "d_a": 256}
TRAIN_BATCH = 16
TRAIN_EVERY_S = 1.5


def train_setup(seed: int) -> State:
    state = setup(corpus_mod.AAPD_TRAIN, seed, {"max_len": 160, **PAPER_DIMS}, "random")
    state.label_vectors = np.random.default_rng(seed).uniform(
        -0.5, 0.5, size=(state.cfg.r, state.cfg.k))
    return state


def train_phase(run: Run, state: State, units=None, tick=no_tick) -> int:
    """One training.train call per batch of 16, Adam state carried across calls.

    Runs `units` batches, else batches until run.seconds are spent (at
    least one).
    """
    pool = state.corpus.train
    adam = training.AdamState.init(state.params.arrays())
    batches, busy = 0, 0.0
    while (batches < units) if units is not None else (not batches or busy < run.seconds):
        first = (batches * TRAIN_BATCH) % len(pool)
        batch = pool[first:first + TRAIN_BATCH]
        # each call is one epoch over one batch, so the epoch index numbers the batch
        cfg = training.TrainConfig(epochs=batches + 1, batch_size=TRAIN_BATCH,
                                   negatives_per_doc=10, seed=run.seed)
        try:
            (_, losses), seconds = run.timed(
                "train_docs_per_s", len(batch), training.train, batch, state.vocab,
                state.params, state.cfg, state.label_vectors, cfg, adam=adam,
                start_epoch=batches)
        except Exception as err:  # noqa: BLE001
            run.ops.error(f"training batch {batches}", err)
            break
        busy += seconds
        batches += 1
        if not run.ops.check(len(losses) == 1 and finite(losses),
                             f"batch {batches} loss {losses} finite"):
            break
        tick()
    return batches


def train_verify(run: Run, state: State) -> None:
    make_scorer(run, state)(state.corpus.train[0])
    check_permutation(run, state, state.corpus.train[0])


def sample_train(run: Run) -> Run:
    """Untraced aapd-train: batches, then the quality gate.

    Set-up samples and the gate's embedding and scoring samples are taken
    between batches and between the gate's units.
    """
    state, _ = run.timed("setup_s", None, train_setup, run.seed)
    run.info["corpus"] = corpus_mod.describe(state.corpus)
    gate, gate_state = quality_gate(run)
    run.fillers = [setup_filler(run, train_setup, TRAIN_EVERY_S),
                   *quality_fillers(gate, gate_state)]
    run.tick()
    train_phase(run, state, tick=run.tick)
    train_verify(run, state)
    quality_pipeline(gate, gate_state, tick=run.tick)
    finish_gate(run, gate, gate_state)
    return run


# ---------------------------------------------------------------------------
# eurlex-score: label embedding at k=3956, then all-label scoring
# ---------------------------------------------------------------------------

EURLEX_WALK = {"walk_length": 3, "walks_per_node": 1}
EURLEX_SGNS = {"window": 2, "negatives": 5, "epochs": 1}
SCORE_CHUNK = 1
# filler spacing: a set-up takes about 0.7 s, an embedding 1.8 s, one document 0.8 s
EURLEX_SETUP_EVERY_S = 5.0
EURLEX_EMBED_EVERY_S = 8.0
EURLEX_SCORE_EVERY_S = 1.5


def score_setup(seed: int) -> State:
    return setup(corpus_mod.EURLEX_SCORE, seed, {"max_len": 300, **PAPER_DIMS}, "random")


def eurlex_embed(run: Run, state: State) -> np.ndarray | None:
    return embed_labels(run, state.corpus.train, state.cfg.k, state.cfg.r,
                        EURLEX_WALK, EURLEX_SGNS)


def score_phase(run: Run, state: State, units=None) -> int:
    """Embed labels, then metrics.evaluate over held-out chunks until time is up."""
    state.label_vectors = eurlex_embed(run, state)
    if state.label_vectors is None:
        return 0
    return len(evaluate_chunks(run, state, state.corpus.test, SCORE_CHUNK,
                               budget=run.seconds, units=units))


def score_verify(run: Run, state: State) -> None:
    check_permutation(run, state, state.corpus.test[0])


def sample_score(run: Run) -> Run:
    """Untraced eurlex-score: set-up, embedding and scoring samples taken
    between the units of the quality gate."""
    state, _ = run.timed("setup_s", None, score_setup, run.seed)
    run.info["corpus"] = corpus_mod.describe(state.corpus)
    state.label_vectors = eurlex_embed(run, state)
    gate, gate_state = quality_gate(run)
    run.fillers = [
        setup_filler(run, score_setup, EURLEX_SETUP_EVERY_S),
        Filler(lambda: eurlex_embed(run, state), EURLEX_EMBED_EVERY_S),
        score_filler(run, state, state.corpus.test, SCORE_CHUNK, EURLEX_SCORE_EVERY_S),
    ]
    quality_pipeline(gate, gate_state, tick=run.tick)
    if state.label_vectors is not None:
        score_verify(run, state)
    finish_gate(run, gate, gate_state)
    return run


@dataclass(frozen=True)
class Workload:
    sample: object   # untraced run: (Run) -> Run
    setup: object    # seed -> State
    measure: object  # the workload's own phase, replayed by the traced run
    verify: object


WORKLOADS = {
    "aapd-train": Workload(sample_train, train_setup, train_phase, train_verify),
    "eurlex-score": Workload(sample_score, score_setup, score_phase, score_verify),
    "aapd-quality": Workload(sample_quality, quality_setup, quality_pipeline, quality_verify),
}
