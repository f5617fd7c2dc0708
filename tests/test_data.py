import numpy as np
import pytest

from laha import data
from laha.data import (
    Document,
    PAD,
    UNK,
    Vocabulary,
    build_vocab,
    decode_document,
    encode_document,
    load_corpus,
    load_word_vectors,
)
from laha.errors import DataFormatError, ValidationError


def _docs(*texts_labels):
    return [
        Document(doc_id=f"d{i}", tokens=t.lower().split(), labels=set(ls))
        for i, (t, ls) in enumerate(texts_labels)
    ]


def test_load_corpus_basic():
    docs = load_corpus(['{"id":"d1","labels":[0,2],"text":"A b a"}'])
    assert len(docs) == 1
    assert docs[0].doc_id == "d1"
    assert docs[0].tokens == ["a", "b", "a"]
    assert docs[0].labels == {0, 2}


def test_load_corpus_empty_labels_rejected():
    with pytest.raises(DataFormatError, match="line 1"):
        load_corpus(['{"id":"d1","labels":[],"text":"a"}'])


def test_load_corpus_empty_text_rejected():
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(['{"id":"d0","labels":[1],"text":"x"}',
                     '{"id":"d1","labels":[1],"text":"   "}'])


def test_load_corpus_empty_input():
    assert load_corpus([]) == []


def test_load_corpus_malformed_json_reports_line():
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(['{"id":"a","labels":[1],"text":"x"}', "{nope"])


def test_load_corpus_negative_label():
    with pytest.raises(ValidationError, match="line 1"):
        load_corpus(['{"id":"a","labels":[-1],"text":"x"}'])


def test_load_corpus_non_integer_labels():
    with pytest.raises(DataFormatError):
        load_corpus(['{"id":"a","labels":["x"],"text":"x"}'])


def test_build_vocab_frequency_order():
    # counts: a=2, b=2, c=1 -> a and b (tie broken lexicographically) before c
    corpus = _docs(("a b a", [0]), ("b c", [1]))
    vocab = build_vocab(corpus, min_freq=1, max_size=100)
    assert len(vocab) == 5
    assert vocab.id("a") == 2
    assert vocab.id("b") == 3
    assert vocab.id("c") == 4


def test_build_vocab_min_freq_filters():
    corpus = _docs(("a b a", [0]), ("b c", [1]))
    vocab = build_vocab(corpus, min_freq=2, max_size=100)
    assert len(vocab) == 4
    assert "c" not in vocab
    assert vocab.id("c") == UNK


def test_build_vocab_empty_corpus():
    vocab = build_vocab([], min_freq=1, max_size=10)
    assert len(vocab) == 2
    assert vocab.token(PAD) == data.PAD_TOKEN
    assert vocab.token(UNK) == data.UNK_TOKEN


def test_build_vocab_max_size_cap():
    corpus = _docs(("a a a b b c", [0]),)
    vocab = build_vocab(corpus, min_freq=1, max_size=2)
    assert len(vocab) == 4
    assert "c" not in vocab


def test_build_vocab_deterministic():
    corpus = _docs(("x y z y", [0]), ("z q", [1]))
    v1 = build_vocab(corpus, 1, 100)
    v2 = build_vocab(corpus, 1, 100)
    assert v1.tokens == v2.tokens


def test_build_vocab_bad_min_freq():
    with pytest.raises(ValidationError):
        build_vocab([], min_freq=0)


def test_word_vectors_from_file():
    vocab = Vocabulary(["hot", "cold"])
    wv = load_word_vectors(["hot 1.0 2.0", "unseen 9.0 9.0"], vocab, d=2, seed=1)
    np.testing.assert_array_equal(wv.table[vocab.id("hot")], [1.0, 2.0])
    assert wv.table.shape == (4, 2)


def test_word_vectors_pad_row_zero():
    vocab = Vocabulary(["a"])
    wv = load_word_vectors(["a 1.0 1.0"], vocab, d=2, seed=0)
    np.testing.assert_array_equal(wv.table[PAD], [0.0, 0.0])


def test_word_vectors_oov_deterministic():
    vocab = Vocabulary(["a", "b"])
    wv1 = load_word_vectors(["a 1.0 1.0"], vocab, d=2, seed=42)
    wv2 = load_word_vectors(["a 1.0 1.0"], vocab, d=2, seed=42)
    np.testing.assert_array_equal(wv1.table, wv2.table)
    assert (np.abs(wv1.table[vocab.id("b")]) <= 0.25).all()


def test_word_vectors_wrong_field_count():
    vocab = Vocabulary(["a"])
    with pytest.raises(DataFormatError, match="line 1"):
        load_word_vectors(["a 1.0"], vocab, d=2, seed=0)


def test_word_vectors_bad_float():
    vocab = Vocabulary(["a"])
    with pytest.raises(DataFormatError, match="line 1"):
        load_word_vectors(["a 1.0 oops"], vocab, d=2, seed=0)


def test_word_vectors_non_finite_rejected_with_line():
    vocab = Vocabulary(["a", "b"])
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(DataFormatError, match="line 2"):
            load_word_vectors(["a 1.0 2.0", f"b 0.5 {bad}"], vocab, d=2, seed=0)


def test_encode_pads_and_masks():
    vocab = Vocabulary(["t1", "t2", "t3"])
    doc = Document("d", ["t1", "t2", "t3"], {0})
    ids, mask = encode_document(doc, vocab, max_len=5)
    np.testing.assert_array_equal(ids, [2, 3, 4, PAD, PAD])
    np.testing.assert_array_equal(mask, [True, True, True, False, False])


def test_encode_truncates():
    vocab = Vocabulary([f"t{i}" for i in range(7)])
    doc = Document("d", [f"t{i}" for i in range(7)], {0})
    ids, mask = encode_document(doc, vocab, max_len=5)
    assert ids.shape == (5,)
    assert mask.all()


def test_encode_unknown_token():
    vocab = Vocabulary(["a"])
    ids, _ = encode_document(Document("d", ["zzz"], {0}), vocab, max_len=2)
    assert ids[0] == UNK


def test_encode_decode_roundtrip_and_mask_sum():
    rng = np.random.default_rng(5)
    vocab = Vocabulary([f"w{i}" for i in range(20)])
    for _ in range(50):
        n = int(rng.integers(1, 12))
        toks = [f"w{rng.integers(0, 20)}" for _ in range(n)]
        doc = Document("d", toks, {0})
        max_len = int(rng.integers(1, 10))
        ids, mask = encode_document(doc, vocab, max_len)
        assert mask.sum() == min(n, max_len)
        assert decode_document(ids, mask, vocab) == toks[: min(n, max_len)]
