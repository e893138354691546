"""Vocabulary construction, lookup, and serialization."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrslab.vocab import (
    EOS_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    build_vocabulary,
    read_corpus,
)


class TestBuildVocabulary:
    def test_frequency_order_with_reserved(self):
        vocab = build_vocabulary(["a", "b", "a"], min_count=1)
        assert vocab.tokens[:2] == ["a", "b"]
        assert set(vocab.tokens) == {"a", "b", UNK_TOKEN, EOS_TOKEN}

    def test_min_count_drops_to_unk(self):
        vocab = build_vocabulary(["a", "b", "a"], min_count=2)
        assert "b" not in vocab
        assert vocab.id("b") == vocab.unk_id
        assert set(vocab.tokens) == {"a", UNK_TOKEN, EOS_TOKEN}

    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary(["b", "a", "c", "a", "c", "b"], min_count=1)
        assert vocab.tokens[:3] == ["a", "b", "c"]

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_count=1)
        with pytest.raises(ValueError):
            build_vocabulary(["a"], min_count=0)

    def test_no_word_at_min_count_refused(self):
        # only the reserved tokens would be left: every id would be <unk> or <eos>
        with pytest.raises(ValueError, match="no corpus word besides <unk> and <eos> occurs "
                                             "min_count = 3 times"):
            build_vocabulary(["a", "b", "a", EOS_TOKEN, EOS_TOKEN, EOS_TOKEN, UNK_TOKEN],
                             min_count=3)
        assert build_vocabulary(["a", "b", "a"], min_count=2).tokens[0] == "a"

    def test_reserved_counts_from_corpus(self):
        vocab = build_vocabulary(["a", EOS_TOKEN, EOS_TOKEN], min_count=1)
        assert vocab.counts[vocab.eos_id] == 2
        assert vocab.counts[vocab.unk_id] == 0

    def test_repeated_builds_identical(self, rng):
        # determinism oracle: run twice, compare serializations
        tokens = ["t%d" % rng.integers(50) for _ in range(5000)]
        a = build_vocabulary(tokens, min_count=2)
        b = build_vocabulary(list(tokens), min_count=2)
        assert a.to_text() == b.to_text()


class TestVocabularyLookup:
    def test_index_inverse(self):
        vocab = build_vocabulary(["x", "y", "z", "y"], min_count=1)
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i
            assert vocab.tokens[vocab.id(tok)] == tok

    def test_encode_decode(self):
        vocab = build_vocabulary(["x", "y"], min_count=1)
        ids = vocab.encode(["x", "missing", "y"])
        assert ids.dtype == np.int64
        assert ids[1] == vocab.unk_id
        assert [vocab.tokens[i] for i in ids] == ["x", UNK_TOKEN, "y"]

    @settings(max_examples=60, deadline=None)
    @given(corpus=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=20),
           tokens=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "zz", UNK_TOKEN,
                                            EOS_TOKEN]), max_size=30),
           min_count=st.integers(1, 3))
    def test_encode_equals_per_token_id(self, corpus, tokens, min_count):
        # tokens outside the corpus, or below min_count, are unknown words;
        # a corpus with no word at min_count is refused
        if max(corpus.count(w) for w in corpus) < min_count:
            with pytest.raises(ValueError, match="no corpus word"):
                build_vocabulary(corpus, min_count=min_count)
            return
        vocab = build_vocabulary(corpus, min_count=min_count)
        ids = vocab.encode(tokens)
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, np.array([vocab.id(t) for t in tokens], dtype=np.int64))
        assert ids.shape == (len(tokens),)  # an empty list gives an empty int64 array

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a", UNK_TOKEN, EOS_TOKEN], [1, 1, 0, 0])

    def test_reserved_required(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"], [1, 1])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        vocab = build_vocabulary(["alpha", "beta", "alpha", "gamma"], min_count=1)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.tokens == vocab.tokens
        assert again.counts == vocab.counts
        assert again.to_text() == vocab.to_text()
        assert again.content_hash() == vocab.content_hash()

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.tsv"
        build_vocabulary(["a", "b"], min_count=1).save(path)
        before = path.read_bytes()
        vocab = build_vocabulary(["c", "d", "d"], min_count=1)

        def fails():
            raise OSError("disk full")

        monkeypatch.setattr(vocab, "to_text", fails)  # raises with the new file open
        with pytest.raises(OSError, match="disk full"):
            vocab.save(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["vocab.tsv"]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1\nnot-a-count-line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            Vocabulary.load(path)

    def test_content_hash_changes_with_counts(self):
        a = build_vocabulary(["a", "b"], min_count=1)
        b = build_vocabulary(["a", "b", "b"], min_count=1)
        assert a.content_hash() != b.content_hash()


class TestReadCorpus:
    def test_eos_per_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n", encoding="utf-8")
        assert read_corpus(path) == ["a", "b", EOS_TOKEN, "c", EOS_TOKEN]

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_corpus(path)
