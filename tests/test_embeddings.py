"""word2vec text loading and row normalization."""

import tracemalloc

import numpy as np
import pytest

from nnrslab.embeddings import EmbeddingMatrix, load_embeddings
from nnrslab.trainer import TrainConfig, _load_run_embeddings, rng_streams
from nnrslab.vocab import build_vocabulary


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_basic_two_words(self, tmp_path):
        vocab = build_vocabulary(["a", "b", "a"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nb 0 1\n")
        emb = load_embeddings(path, vocab, dim=2)
        np.testing.assert_array_equal(emb.vectors[vocab.id("a")], [1.0, 0.0])
        np.testing.assert_array_equal(emb.vectors[vocab.id("b")], [0.0, 1.0])
        assert len(emb) == len(vocab)
        assert emb.dim == 2

    def test_header_line_accepted(self, tmp_path):
        vocab = build_vocabulary(["a"], min_count=1)
        path = _write(tmp_path / "e.txt", "1 3\na 1 2 3\n")
        emb = load_embeddings(path, vocab, dim=3)
        np.testing.assert_array_equal(emb.vectors[vocab.id("a")], [1.0, 2.0, 3.0])

    def test_header_dim_mismatch_errors(self, tmp_path):
        vocab = build_vocabulary(["a"], min_count=1)
        path = _write(tmp_path / "e.txt", "1 4\na 1 2 3 4\n")
        with pytest.raises(ValueError, match="dim"):
            load_embeddings(path, vocab, dim=3)

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocabulary(["a", "b"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nb 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path, vocab, dim=2)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_line_reports_number(self, tmp_path, bad):
        vocab = build_vocabulary(["a", "b", "c"], min_count=1)
        path = _write(tmp_path / "e.txt", "2 2\na 1 0\nb 1 %s\nc 0 %s\n" % (bad, bad))
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(path, vocab, dim=2)

    def test_non_finite_out_of_vocab_line_ignored(self, tmp_path):
        vocab = build_vocabulary(["a"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nzz nan 1\n")
        emb = load_embeddings(path, vocab, dim=2)
        assert np.isfinite(emb.vectors).all()

    def test_fallback_rows_deterministic(self, tmp_path):
        vocab = build_vocabulary(["a", "b"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\n")
        one = load_embeddings(path, vocab, dim=2, fallback_seed=7)
        two = load_embeddings(path, vocab, dim=2, fallback_seed=7)
        np.testing.assert_array_equal(one.vectors, two.vectors)
        wid = vocab.id("b")
        assert np.abs(one.vectors[wid]).max() <= 0.5 / 2
        other = load_embeddings(path, vocab, dim=2, fallback_seed=8)
        assert not np.array_equal(one.vectors[wid], other.vectors[wid])

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_fallback_rows_equal_per_row_draws(self, tmp_path, dim):
        # both callers of the one fallback rule, each against one uniform
        # draw per row in id order: the words an embeddings file lacks, from
        # the fallback seed, and every row of a run without a file, from the
        # model stream
        words = ["w%d" % i for i in range(9)]
        vocab = build_vocabulary(words, min_count=1)
        given = {vocab.id(w) for w in words[::3]}
        path = _write(tmp_path / "e.txt", "".join(
            "w%d %s\n" % (i, " 1" * dim) for i in range(0, 9, 3)))
        span = 0.5 / dim
        loaded = load_embeddings(path, vocab, dim, fallback_seed=11).vectors
        rng = np.random.default_rng(11)
        for wid in range(len(vocab)):
            expected = np.ones(dim) if wid in given else rng.uniform(-span, span, size=dim)
            assert loaded[wid].tobytes() == expected.tobytes(), wid

        cfg = TrainConfig(corpus=str(path), dim=dim, seed=11)
        drawn = _load_run_embeddings(cfg, vocab, rng_streams(cfg.seed)[0]).vectors
        rng = rng_streams(cfg.seed)[0]
        for wid in range(len(vocab)):
            assert drawn[wid].tobytes() == rng.uniform(-span, span, size=dim).tobytes(), wid

    def test_out_of_vocab_file_words_ignored(self, tmp_path):
        vocab = build_vocabulary(["a"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nzzz 9 9\n")
        emb = load_embeddings(path, vocab, dim=2)
        assert len(emb) == len(vocab)
        assert not np.any(emb.vectors == 9.0)

    def test_matches_independent_parse(self, tmp_path, rng):
        # parse oracle: plain line-by-line reader, permuted by vocab order
        words = ["w%02d" % i for i in range(50)]
        vecs = rng.normal(size=(50, 8))
        text = "".join(
            "%s %s\n" % (w, " ".join(repr(float(v)) for v in row))
            for w, row in zip(words, vecs)
        )
        path = _write(tmp_path / "e.txt", text)
        vocab = build_vocabulary(words * 2, min_count=1)
        emb = load_embeddings(path, vocab, dim=8)
        by_word = {}
        for line in text.splitlines():
            parts = line.split()
            by_word[parts[0]] = np.array([float(v) for v in parts[1:]])
        for w in words:
            np.testing.assert_array_equal(emb.vectors[vocab.id(w)], by_word[w])

    def test_malformed_line_wins_over_earlier_non_finite(self, tmp_path):
        vocab = build_vocabulary(["a", "b", "c"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nb inf 0\nc 1\n")
        with pytest.raises(ValueError, match="malformed embedding line 3"):
            load_embeddings(path, vocab, dim=2)

    def test_first_occurrence_wins_over_later_non_finite(self, tmp_path):
        vocab = build_vocabulary(["a", "b"], min_count=1)
        path = _write(tmp_path / "e.txt", "a 1 0\nb 0 1\na nan 1\nb 7 7\n")
        emb = load_embeddings(path, vocab, dim=2)
        np.testing.assert_array_equal(emb.vectors[vocab.id("a")], [1.0, 0.0])
        np.testing.assert_array_equal(emb.vectors[vocab.id("b")], [0.0, 1.0])

    def test_memory_near_the_matrix_size(self, tmp_path, rng):
        # 2k x 64 rows, about 1 MB as a matrix: the file's lines and a
        # per-word array each took several times that
        words = ["w%d" % i for i in range(2000)]
        lines = ["2000 64"] + ["%s %s" % (w, " ".join(repr(float(v)) for v in rng.normal(size=64)))
                               for w in words]
        path = _write(tmp_path / "e.txt", "\n".join(lines) + "\n")
        vocab = build_vocabulary(words, min_count=1)
        tracemalloc.start()
        try:
            emb = load_embeddings(path, vocab, dim=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * emb.vectors.nbytes  # about 1.16x


class TestNormalizeRows:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_from_vectors_rejects_non_finite_rows(self, bad):
        vecs = np.ones((4, 3))
        vecs[2, 1] = bad
        vecs[3, 0] = bad
        with pytest.raises(ValueError, match="row 2 "):
            EmbeddingMatrix.from_vectors(vecs)

    def test_from_vectors_blocks_keep_norm_bits_and_row_numbers(self, rng):
        # more rows than one block of checks: the norms have the bits of
        # one whole-matrix norm and a bad row is named by its own index
        vecs = rng.normal(size=(5000, 8)) * rng.uniform(0.1, 1e3, size=(5000, 1))
        emb = EmbeddingMatrix.from_vectors(vecs)
        assert emb.norms.tobytes() == np.linalg.norm(vecs, axis=1).tobytes()
        vecs[4500, 3] = np.nan
        with pytest.raises(ValueError, match="row 4500 "):
            EmbeddingMatrix.from_vectors(vecs)

    def test_from_vectors_requires_2d(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix.from_vectors(np.zeros(3))
