"""Corpus ingestion, vocabulary building, token encoding, word vectors.

Corpora are JSON-lines files with one document per line:
``{"id": "...", "labels": [int, ...], "text": "..."}``.  Tokenization is
lowercase + whitespace split.  Word vectors load from GloVe-style text
(``token float*d`` per line, no header).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DataFormatError, ValidationError

PAD = 0
UNK = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    labels: set[int]


Corpus = list[Document]


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def load_corpus(lines: Iterable[str]) -> Corpus:
    """Parse JSON-lines into documents; reject empty-label or empty-text docs."""
    docs: Corpus = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise DataFormatError(f"invalid JSON ({err.msg})", line=lineno) from err
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
            raise ValidationError(f"line {lineno}: negative label index")
        labels = set(labels_raw)
        if not labels:
            raise DataFormatError("document has an empty label set", line=lineno)
        tokens = tokenize(str(obj["text"]))
        if not tokens:
            raise DataFormatError("document has no tokens", line=lineno)
        docs.append(Document(doc_id=str(obj["id"]), tokens=tokens, labels=labels))
    return docs


def load_corpus_file(path: str) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return load_corpus(fh)


class Vocabulary:
    """token <-> id map with reserved PAD=0 and UNK=1 ids."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN]
        self._token_to_id: dict[str, int] = {PAD_TOKEN: PAD, UNK_TOKEN: UNK}
        for tok in tokens:
            if tok in self._token_to_id:
                raise ValidationError(f"duplicate vocabulary token {tok!r}")
            self._token_to_id[tok] = len(self._id_to_token)
            self._id_to_token.append(tok)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    @property
    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order (for serialization)."""
        return self._id_to_token[2:]


def build_vocab(corpus: Corpus, min_freq: int = 1, max_size: int = 100000) -> Vocabulary:
    """Keep tokens with frequency >= min_freq, most frequent first.

    Ties break lexicographically; at most max_size non-reserved tokens kept.
    """
    if min_freq < 1:
        raise ValidationError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.tokens)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept[:max_size])


@dataclass
class WordVectors:
    """Embedding table; row id matches the vocabulary, PAD row all-zero."""

    table: np.ndarray
    d: int = field(init=False)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        self.d = self.table.shape[1]


def load_word_vectors(
    lines: Iterable[str], vocab: Vocabulary, d: int, seed: int
) -> WordVectors:
    """Fill the table from a GloVe-style stream.

    In-vocabulary tokens take their file vector (last occurrence wins);
    the rest draw uniform(-0.25, 0.25) from one seeded stream in id order,
    so two calls with the same seed agree exactly.  PAD stays zero.
    """
    if d < 1:
        raise ValidationError("word vector dimension must be >= 1")
    found: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.rstrip("\n").split(" ")
        if len(parts) != d + 1:
            raise DataFormatError(
                f"expected a token and {d} floats, got {len(parts)} fields", line=lineno
            )
        token = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as err:
            raise DataFormatError(f"bad float value ({err})", line=lineno) from err
        if not np.isfinite(vec).all():
            raise DataFormatError("non-finite float value", line=lineno)
        if token in vocab:
            found[vocab.id(token)] = vec
    rng = np.random.default_rng(seed)
    table = np.zeros((len(vocab), d), dtype=np.float64)
    for token_id in range(1, len(vocab)):
        if token_id in found:
            table[token_id] = found[token_id]
        else:
            table[token_id] = rng.uniform(-0.25, 0.25, size=d)
    return WordVectors(table=table)


def load_word_vectors_file(path: str, vocab: Vocabulary, d: int, seed: int) -> WordVectors:
    with open(path, encoding="utf-8") as fh:
        return load_word_vectors(fh, vocab, d, seed)


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
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    ids = np.full(max_len, PAD, dtype=np.int64)
    mask = np.zeros(max_len, dtype=bool)
    for i, tok in enumerate(doc.tokens[:max_len]):
        ids[i] = vocab.id(tok)
        mask[i] = True
    return ids, mask


def decode_document(ids: np.ndarray, mask: np.ndarray, vocab: Vocabulary) -> list[str]:
    """Tokens at masked-true positions (inverse of encode for in-vocab docs)."""
    return [vocab.token(int(i)) for i, m in zip(ids, mask) if m]
