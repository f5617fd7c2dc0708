"""Corpus ingestion, vocabulary, token encoding, word vectors, atomic file writes.

Corpora are JSON-lines files with one document per line:
``{"id": "..." or int, "labels": [int, ...], "text": "..."}``.  Tokenization is
lowercase + whitespace split.  Word vectors load from GloVe-style text
(``token float*d`` per line, no header).
"""

from __future__ import annotations

import json
import os
import secrets
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataFormatError, ValidationError, check_int, check_labels

PAD = 0
UNK = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
MAX_VOCAB = 100000  # non-reserved tokens `build_vocab` keeps


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    labels: set[int]


Corpus = list[Document]


def doc_labels(doc: Document, k: int) -> list[int]:
    """The document's labels, sorted, once each is checked to be an integer in [0, k)."""
    return sorted(check_labels(f"document {doc.doc_id!r} label", doc.labels, k))


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def load_corpus(lines: Iterable[str]) -> Corpus:
    """Parse JSON-lines into documents; reject bad ids and empty-label or empty-text docs."""
    docs: Corpus = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as err:  # bad JSON, a huge integer; nested too deeply
            reason = getattr(err, "msg", err)
            raise DataFormatError(f"invalid JSON ({reason})", line=lineno) from err
        if not isinstance(obj, dict):
            raise DataFormatError("expected a JSON object", line=lineno)
        for key in ("id", "labels", "text"):
            if key not in obj:
                raise DataFormatError(f"missing field {key!r}", line=lineno)
        labels_raw = obj["labels"]
        if not isinstance(labels_raw, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in labels_raw
        ):
            raise DataFormatError("labels must be a list of integers", line=lineno)
        if any(x < 0 for x in labels_raw):
            raise DataFormatError("negative label index", line=lineno)
        labels = set(labels_raw)
        if not labels:
            raise DataFormatError("document has an empty label set", line=lineno)
        if not isinstance(obj["text"], str):
            raise DataFormatError("text must be a string", line=lineno)
        if type(obj["id"]) not in (str, int):
            raise DataFormatError("id must be a string or an integer", line=lineno)
        tokens = tokenize(obj["text"])
        if not tokens:
            raise DataFormatError("document has no tokens", line=lineno)
        docs.append(Document(doc_id=str(obj["id"]), tokens=tokens, labels=labels))
    return docs


class Vocabulary:
    """token <-> id map with reserved PAD=0 and UNK=1 ids."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {PAD_TOKEN: PAD, UNK_TOKEN: UNK}  # in id order
        for tok in tokens:
            if tok in self._token_to_id:
                raise ValidationError(f"duplicate vocabulary token {tok!r}")
            self._token_to_id[tok] = len(self._token_to_id)

    def __len__(self) -> int:
        return len(self._token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    @property
    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order (for serialization)."""
        return list(self._token_to_id)[2:]


def build_vocab(corpus: Corpus) -> Vocabulary:
    """Every token of the corpus, at most MAX_VOCAB, in `(-count, token)` order: sorted by token,
    then stably by count, where `reverse` keeps tokens of equal count in the order they came."""
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.tokens)
    del counts[PAD_TOKEN], counts[UNK_TOKEN]  # in a text they keep their reserved ids
    return Vocabulary(sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:MAX_VOCAB])


@dataclass
class WordVectors:
    """Embedding table; row id matches the vocabulary, PAD row all-zero."""

    table: np.ndarray


def load_word_vectors(lines: Iterable[str], vocab: Vocabulary, d: int, seed: int) -> WordVectors:
    """Fill the table from a GloVe-style stream.

    In-vocabulary tokens take their file vector (last occurrence wins).  The rest draw from one
    seeded stream in id order, as uniform(-0.25, 0.25) would: each run of consecutive uncovered
    ids is one in-place draw of U in [0, 1), row after row, then -0.25 + 0.5 * U.  So two calls
    with the same seed agree exactly.  PAD stays zero.
    """
    check_int("d", d, 1)
    check_int("seed", seed, 0)
    found: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.rstrip("\n").split(" ")
        if len(parts) != d + 1:
            raise DataFormatError(f"expected a token and {d} floats, got {len(parts)} fields",
                                  line=lineno)
        token = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as err:
            raise DataFormatError(f"bad float value ({err})", line=lineno) from err
        if not np.isfinite(vec).all():
            raise DataFormatError("non-finite float value", line=lineno)
        if token in vocab and token != PAD_TOKEN:
            found[vocab.id(token)] = vec
    rng = np.random.default_rng(seed)
    table = np.zeros((len(vocab), d), dtype=np.float64)
    covered = sorted(found)
    for before, stop in zip([PAD, *covered], [*covered, len(vocab)]):
        if before + 1 < stop:  # ids before + 1 ... stop - 1 are a run of uncovered ids
            rows = rng.random(out=table[before + 1 : stop])
            rows *= 0.5
            rows -= 0.25
    for token_id, vec in found.items():
        table[token_id] = vec
    return WordVectors(table=table)


def random_word_vectors(vocab: Vocabulary, d: int, seed: int) -> WordVectors:
    """All-random table (no pretrained file); same convention as load."""
    return load_word_vectors([], vocab, d, seed)


def encode_document(
    doc: Document, vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length token ids plus validity mask.

    Truncates to the first max_len tokens or right-pads with PAD; unknown
    tokens map to UNK.  mask is True exactly at real token positions.
    """
    check_int("max_len", max_len, 1)
    tokens, lookup = doc.tokens[:max_len], vocab._token_to_id.get
    ids = np.zeros(max_len, dtype=np.int64)  # PAD is 0
    ids[: len(tokens)] = [lookup(tok, UNK) for tok in tokens]
    return ids, np.arange(max_len) < len(tokens)


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write `blob` to `path` through a temporary file, so `path` is old or new, never partial."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)  # less the umask, as open()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())  # else a crash after the rename can leave `path` empty
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fd = os.open(os.path.dirname(tmp), os.O_RDONLY)  # else a crash can lose the rename itself
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
