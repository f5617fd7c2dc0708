import os
import stat
import tracemalloc

import numpy as np
import pytest

from laha import data
from laha.data import (
    Document,
    PAD,
    UNK,
    Vocabulary,
    build_vocab,
    encode_document,
    load_corpus,
    load_word_vectors,
    random_word_vectors,
)
from laha.errors import DataFormatError, ValidationError
from laha.model import ModelConfig, init_params
from laha.training import AdamState, Checkpoint, TrainConfig, sample_labels, save_checkpoint

from extra_ops import vocab_order_oracle, word_vectors_oracle


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


@pytest.mark.parametrize("text", ["null", "12", '["a", "b"]'], ids=["null", "number", "list"])
def test_load_corpus_rejects_non_string_text(text):
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(['{"id":"d0","labels":[1],"text":"x"}',
                     f'{{"id":"d1","labels":[1],"text":{text}}}'])


@pytest.mark.parametrize("doc_id", ["null", "[1, 2]", "1.5", "true"],
                         ids=["null", "list", "float", "bool"])
def test_load_corpus_rejects_ids_that_are_not_strings_or_integers(doc_id):
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(['{"id":7,"labels":[1],"text":"x"}',
                     f'{{"id":{doc_id},"labels":[1],"text":"y"}}'])
    assert load_corpus(['{"id":7,"labels":[1],"text":"x"}'])[0].doc_id == "7"


def _save_tiny_checkpoint(path, seed=0):
    cfg = ModelConfig(k=2, max_len=2, d=2, r=1, d_a=1)
    vocab = Vocabulary(["a"])
    params = init_params(cfg, np.zeros((len(vocab), cfg.d)), seed)
    save_checkpoint(str(path), Checkpoint(params, cfg, "laha", vocab, TrainConfig(epochs=1),
                                          AdamState.init(params), 0))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_saved_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        _save_tiny_checkpoint(tmp_path / "ckpt.bin")
    finally:
        os.umask(previous)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
    assert stat.S_IMODE((tmp_path / "ckpt.bin").stat().st_mode) == mode


def test_interrupted_checkpoint_save_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    _save_tiny_checkpoint(path, seed=0)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        _save_tiny_checkpoint(path, seed=1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_atomic_write_syncs_the_whole_temporary_file_before_the_rename(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    data.atomic_write_bytes(str(tmp_path / "out.bin"), b"abc")
    assert [call[0] for call in calls] == ["fsync", "replace", "fsync"]
    assert calls[0][1:] == calls[1][1:] == ((tmp_path / "out.bin").stat().st_ino, 3)
    assert calls[2][1] == tmp_path.stat().st_ino  # then the directory, so the rename lasts
    assert (tmp_path / "out.bin").read_bytes() == b"abc"


def test_load_corpus_empty_input():
    assert load_corpus([]) == []


def test_load_corpus_malformed_json_reports_line():
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(['{"id":"a","labels":[1],"text":"x"}', "{nope"])


def test_load_corpus_negative_label():
    with pytest.raises(DataFormatError, match="line 1: negative label index") as err:
        load_corpus(['{"id":"a","labels":[-1],"text":"x"}'])
    assert err.value.line == 1


def test_load_corpus_non_integer_labels():
    with pytest.raises(DataFormatError):
        load_corpus(['{"id":"a","labels":["x"],"text":"x"}'])


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "expected a JSON object"), ('"x"', "expected a JSON object"),
    ('{"id":"d1","labels":[1]}', "missing field 'text'"),
    ("[" * 100000 + "]" * 100000, "invalid JSON \\(maximum recursion depth"),
], ids=["list", "string", "no text", "nested too deeply"])
def test_load_corpus_rejects_a_line_that_is_not_a_document_object(line, message):
    with pytest.raises(DataFormatError, match=f"line 2: {message}") as err:
        load_corpus(['{"id":"d0","labels":[1],"text":"x"}', line])
    assert err.value.line == 2


@pytest.mark.parametrize("field", ["labels", "id"])
def test_load_corpus_rejects_an_integer_too_long_to_parse(field):
    import sys

    digits = "1" * (sys.get_int_max_str_digits() + 1)  # past what int() parses from a string
    line = {"labels": f'{{"id":"d1","labels":[{digits}],"text":"x"}}',
            "id": f'{{"id":{digits},"labels":[1],"text":"x"}}'}[field]
    with pytest.raises(DataFormatError, match="line 2: invalid JSON") as err:
        load_corpus(['{"id":"d0","labels":[1],"text":"x"}', line])
    assert err.value.line == 2


def test_load_corpus_skips_blank_lines_but_counts_them():
    docs = load_corpus(["", '{"id":"d0","labels":[1],"text":"x"}', " \t\n"])
    assert [doc.doc_id for doc in docs] == ["d0"]
    with pytest.raises(DataFormatError, match="line 3"):
        load_corpus(["", "  ", "{nope"])


def test_build_vocab_frequency_order():
    # counts: a=2, b=2, c=1 -> a and b (tie broken lexicographically) before c
    corpus = _docs(("a b a", [0]), ("b c", [1]))
    vocab = build_vocab(corpus)
    assert len(vocab) == 5
    assert vocab.id("a") == 2
    assert vocab.id("b") == 3
    assert vocab.id("c") == 4


def test_build_vocab_empty_corpus():
    vocab = build_vocab([])
    assert len(vocab) == 2
    assert vocab.tokens == []
    assert vocab.id(data.PAD_TOKEN) == PAD
    assert vocab.id(data.UNK_TOKEN) == UNK


@pytest.mark.parametrize("reserved, reserved_id", [(data.PAD_TOKEN, PAD), (data.UNK_TOKEN, UNK)])
def test_build_vocab_leaves_reserved_names_in_the_text_their_ids(reserved, reserved_id):
    # tokenize lowercases, so "<UNK>" in a text is the reserved "<unk>"
    corpus = _docs((f"the {reserved.upper()} cat", [0]), (f"the {reserved}", [1]))
    vocab = build_vocab(corpus)
    assert vocab.tokens == ["the", "cat"]
    assert vocab.id(reserved) == reserved_id


def test_build_vocab_max_size_cap(monkeypatch):
    monkeypatch.setattr(data, "MAX_VOCAB", 2)
    corpus = _docs(("a a a b b c", [0]),)
    vocab = build_vocab(corpus)
    assert len(vocab) == 4
    assert "c" not in vocab
    assert vocab.id("c") == UNK


def test_build_vocab_deterministic():
    corpus = _docs(("x y z y", [0]), ("z q", [1]))
    v1 = build_vocab(corpus)
    v2 = build_vocab(corpus)
    assert v1.tokens == v2.tokens


@pytest.mark.parametrize("max_vocab", [1, 5, 40, 100000])
@pytest.mark.parametrize("seed", range(4))
def test_build_vocab_matches_the_count_then_token_key_on_ties(monkeypatch, max_vocab, seed):
    # 60 distinct tokens over 4 counts: most counts are shared, and the cap cuts inside a tie
    monkeypatch.setattr(data, "MAX_VOCAB", max_vocab)
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in rng.permutation(60)]
    tokens = [w for w in words for _ in range(int(rng.integers(1, 5)))]
    corpus = [Document(f"d{j}", list(part), {0})
              for j, part in enumerate(np.array_split(rng.permutation(tokens), 7))]
    assert build_vocab(corpus).tokens == vocab_order_oracle(corpus)


@pytest.mark.parametrize("tokens, repeated", [(["a", "b", "a"], "a"), (["<pad>"], "<pad>"),
                                              (["x", "<unk>"], "<unk>")])
def test_vocabulary_rejects_a_repeated_token_by_name(tokens, repeated):
    with pytest.raises(ValidationError, match=f"duplicate vocabulary token '{repeated}'"):
        Vocabulary(tokens)


_CORPUS = [Document("d", ["a", "b", "a"], {0})]
_TINY_CFG = ModelConfig(k=2, max_len=2, d=2, r=1, d_a=1)


@pytest.mark.parametrize("call", [
    lambda: encode_document(_CORPUS[0], Vocabulary(["a"]), 2.5),
    lambda: encode_document(_CORPUS[0], Vocabulary(["a"]), True),
    lambda: load_word_vectors([], Vocabulary(["a"]), 2.5, 0),
    lambda: load_word_vectors([], Vocabulary(["a"]), 2, 1.5),
    lambda: load_word_vectors([], Vocabulary(["a"]), 2, -1),
    lambda: sample_labels({0}, 1.5, 4, np.random.default_rng(0)),
    lambda: sample_labels({0}, 1, 2.5, np.random.default_rng(0)),
    lambda: sample_labels({0}, -1, 4, np.random.default_rng(0)),
    # numpy would raise its own ValueError for -1 and TypeError for 1.5, and read True as 1
    lambda: init_params(_TINY_CFG, np.zeros((3, 2)), -1),
    lambda: init_params(_TINY_CFG, np.zeros((3, 2)), 1.5),
    lambda: init_params(_TINY_CFG, np.zeros((3, 2)), True),
], ids=["max_len float", "max_len bool", "d float", "seed float", "seed negative",
        "negatives float", "k float", "negatives negative", "init_params seed negative",
        "init_params seed float", "init_params seed bool"])
def test_integer_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


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


def _vector_line(token: str, values) -> str:
    return " ".join([token, *(repr(float(x)) for x in values)])


_WORDS = Vocabulary([f"t{i}" for i in range(30)])
_SCATTERED = [_vector_line("t3", [1.5, -0.0, 2.0]), _vector_line("elsewhere", [9.0, 9.0, 9.0]),
              _vector_line("t4", [0.5, 0.5, 0.5]), _vector_line("t20", [-1.0, 3.0, 0.0]),
              _vector_line("<pad>", [7.0, 7.0, 7.0]), _vector_line("t3", [-2.0, 0.25, 1e-3]),
              _vector_line("t29", [4.0, 4.0, 4.0]), _vector_line("t0", [0.0, -0.0, 1.0])]


@pytest.mark.parametrize("lines, vocab, d", [
    ([], _WORDS, 3),
    (_SCATTERED, _WORDS, 3),
    ([_vector_line(tok, [i, -i, 0.5]) for i, tok in enumerate(["<unk>", *_WORDS.tokens])],
     _WORDS, 3),
    ([], Vocabulary(), 4),
    ([_vector_line("<unk>", [2.0])], Vocabulary(), 1),
    ([_vector_line(tok, [0.125]) for tok in ("t1", "t2", "t7", "t8", "t9")], _WORDS, 1),
], ids=["no file", "scattered rows, a repeat, an unknown token and <pad>", "every row covered",
        "only the reserved rows", "only the reserved rows, covered, d = 1", "d = 1"])
@pytest.mark.parametrize("seed", [0, 7])
def test_word_vectors_are_bit_identical_to_one_uniform_draw_per_row(lines, vocab, d, seed):
    table = load_word_vectors(lines, vocab, d, seed).table
    oracle = word_vectors_oracle(lines, vocab, d, seed)
    assert table.shape == oracle.shape == (len(vocab), d) and table.dtype == np.float64
    np.testing.assert_array_equal(table.view(np.int64), oracle.view(np.int64))  # -0.0 != 0.0
    if not lines:
        np.testing.assert_array_equal(table, random_word_vectors(vocab, d, seed).table)


def test_random_word_vectors_peak_at_about_one_table():
    vocab = Vocabulary([f"w{i}" for i in range(4000)])
    tracemalloc.start()
    try:
        table = random_word_vectors(vocab, 64, 0).table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes <= peak < 1.1 * table.nbytes


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


@pytest.mark.parametrize("tokens, want_ids, want_mask", [
    ([], [PAD, PAD], [False, False]),
    (["a"], [2, PAD], [True, False]),
    (["a", "zz", "a"], [2, UNK], [True, True]),
])
def test_encode_returns_int64_ids_and_a_bool_mask_for_any_length(tokens, want_ids, want_mask):
    ids, mask = encode_document(Document("d", tokens, {0}), Vocabulary(["a"]), max_len=2)
    assert (ids.dtype, ids.shape, mask.dtype, mask.shape) == (np.int64, (2,), bool, (2,))
    assert ids.tolist() == want_ids and mask.tolist() == want_mask


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
        assert ids[mask].tolist() == [vocab.id(tok) for tok in toks[:max_len]]
        assert not mask[mask.sum():].any() and (ids[~mask] == PAD).all()
