"""Neighbor and transition tables: construction, sampling, serialization."""

import contextlib
import csv
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nnrslab.neighbors as neighbors_mod
from nnrslab.embeddings import EmbeddingMatrix
from nnrslab.neighbors import (
    NeighborTable,
    TransitionTable,
    build_neighbor_table,
    build_transition_table,
    clamp_tau,
    default_k,
    load_table,
    renormalize,
    sample_neighbor,
    sample_neighbors,
    save_table,
    save_table_csv,
)
from nnrslab.vocab import build_vocabulary
from synth import brute_force_topk, reference_transition_table


@st.composite
def quarter_cosine_embeddings(draw):
    """Rows with exactly four +-1 entries (norm 2) or all zeros.

    Every cosine is an exact multiple of 1/4 in any summation order, so
    ties are exact and the table can be compared bit for bit.
    """
    dim = draw(st.integers(4, 7))
    n = draw(st.integers(2, 16))
    vectors = np.zeros((n, dim))
    for row in range(n):
        if draw(st.integers(0, 4)) == 0:
            continue  # zero row, flagged
        cols = draw(st.lists(st.integers(0, dim - 1), min_size=4, max_size=4, unique=True))
        vectors[row, cols] = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                           min_size=4, max_size=4))
    valid = int((np.abs(vectors).sum(axis=1) > 0).sum())
    assume(valid >= 2)
    k = draw(st.integers(1, valid - 1))
    block_rows = draw(st.integers(1, 3))
    return vectors, k, block_rows * valid


# cosine of this vector with itself rounds to 1.0000000000000002 with
# OpenBLAS's Haswell kernels
PAST_ONE = [0.9034701816518086, 0.09401229776087457, -0.7434992493538084]


@st.composite
def near_tie_embeddings(draw):
    """Gaussian rows plus exact copies and negations of them, and zero rows.

    Copies and negations have cosines of +-1 that can round past the
    clip, and they tie with each other. Returns (vectors, k, block
    elements, chunk count); the chunk count lies in [k + 1, m + 2] for m
    valid rows, so it can exceed m.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 5)), 3))
    if draw(st.booleans()):
        base[0] = PAST_ONE
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                     st.sampled_from([1.0, -1.0])), max_size=8))
    rows = list(base) + [sign * base[i] for i, sign in copies]
    rows += [np.zeros(3)] * draw(st.integers(0, 2))
    vectors = np.array(rows)[rng.permutation(len(rows))]
    m = int((np.abs(vectors).sum(axis=1) > 0).sum())
    assume(m >= 2)
    k = draw(st.one_of(st.just(m - 1), st.integers(1, m - 1)))
    return vectors, k, draw(st.integers(1, 3)) * m, draw(st.integers(k + 1, m + 2))


@st.composite
def tables_and_taus(draw):
    """(vectors, k, ascending temperatures in [TAU_MIN, TAU_MAX])."""
    n = draw(st.integers(3, 12))
    vectors = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(
        size=(n, draw(st.integers(2, 6))))
    taus = draw(st.lists(st.floats(0.5, 10.0), min_size=2, max_size=5))
    return vectors, draw(st.integers(1, n - 1)), sorted(taus)


class TestDefaultK:
    def test_power_of_two(self):
        assert default_k(1024) == 10

    def test_rounding(self):
        assert default_k(10000) == 13  # log2 = 13.29

    def test_floor(self):
        assert default_k(2) == 1

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            default_k(1)


class TestBuildNeighborTable:
    def test_orthonormal_tie_rule(self):
        emb = EmbeddingMatrix.from_vectors(np.eye(3))
        table = build_neighbor_table(emb, k=1)
        # all pairwise sims are 0; the smaller id wins each tie
        np.testing.assert_array_equal(table.ids[:, 0], [1, 0, 0])
        np.testing.assert_array_equal(table.sims[:, 0], [0.0, 0.0, 0.0])

    def test_duplicate_vector_is_top_neighbor(self):
        emb = EmbeddingMatrix.from_vectors(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        )
        table = build_neighbor_table(emb, k=1)
        assert table.ids[0, 0] == 1 and table.sims[0, 0] == 1.0
        assert table.ids[1, 0] == 0 and table.sims[1, 0] == 1.0

    def test_sims_clipped_to_one(self):
        emb = EmbeddingMatrix.from_vectors(np.array([PAST_ONE, PAST_ONE, [1.0, 0.0, 0.0]]))
        table = build_neighbor_table(emb, k=1)
        np.testing.assert_array_equal(table.sims[:2, 0], [1.0, 1.0])

    def test_matches_brute_force(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(50, 16)))
        table = build_neighbor_table(emb, k=6)
        ids, sims = brute_force_topk(emb.vectors, 6)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_allclose(table.sims, sims, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(quarter_cosine_embeddings())
    def test_blocked_build_matches_brute_force_exactly(self, case):
        vectors, k, block_elems = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors_mod, "_BLOCK_ELEMS", block_elems)  # 1-3 rows per block
            table = build_neighbor_table(EmbeddingMatrix.from_vectors(vectors), k)
        ids, sims = brute_force_topk(vectors, k)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.sims, sims)

    @settings(max_examples=300, deadline=None)
    @given(near_tie_embeddings())
    def test_chunk_bound_keeps_exact_top_k(self, case):
        vectors, k, block_elems, chunks = case
        emb = EmbeddingMatrix.from_vectors(vectors)
        m = len(emb) - len(emb.zero_rows)
        tables = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors_mod, "_BLOCK_ELEMS", block_elems)
            mp.setattr(neighbors_mod, "_CHUNKS_PER_K", 1)
            for count in (chunks, m, k + 1):  # min(m, count) chunks
                mp.setattr(neighbors_mod, "_MIN_CHUNKS", count)
                tables.append(build_neighbor_table(emb, k))
        ids, sims = brute_force_topk(vectors, k)
        np.testing.assert_array_equal(tables[0].ids, ids)
        np.testing.assert_allclose(tables[0].sims, sims, rtol=0, atol=1e-12)
        assert np.all(np.abs(tables[0].sims) <= 1.0)
        for other in tables[1:]:
            assert other.ids.tobytes() == tables[0].ids.tobytes()
            assert other.sims.tobytes() == tables[0].sims.tobytes()

    def test_self_never_joins_a_tie_at_minus_one(self):
        # row 0's k-th similarity is -1, so every finite entry is a
        # candidate; self (-inf) must not be clipped into that tie
        emb = EmbeddingMatrix.from_vectors(np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]))
        table = build_neighbor_table(emb, k=2)
        np.testing.assert_array_equal(table.ids[0], [1, 2])
        np.testing.assert_array_equal(table.sims[0], [-1.0, -1.0])

    @staticmethod
    def _exact_cosines(xs):
        """Rows [x, 0] stored with norm 1: each cosine is the one rounded
        product x_i * x_j, so it sits past +-1 on any BLAS kernel."""
        return EmbeddingMatrix(vectors=np.array([[x, 0.0] for x in xs]), dim=2,
                               norms=np.ones(len(xs)), zero_rows=frozenset())

    @pytest.mark.parametrize("xs", [(1.0, 1.0, 1.0 + 2 ** -52), (1.0, -1.0 - 2 ** -52, -1.0)])
    def test_clip_tie_past_one_goes_to_smaller_id(self, xs):
        # row 0's cosines with rows 1 and 2 differ by one ulp and both clip
        # to +-1, so the tie goes to row 1 although row 2 is larger
        table = build_neighbor_table(self._exact_cosines(xs), k=1)
        assert table.ids[0, 0] == 1 and table.sims[0, 0] == np.sign(xs[2])

    def test_peak_memory_is_one_block(self):
        m = 4000
        emb = EmbeddingMatrix.from_vectors(np.random.default_rng(7).normal(size=(m, 8)))
        k = default_k(m)
        block = (neighbors_mod._BLOCK_ELEMS // m) * m * 8
        tables = 3 * m * k * 8  # ids, sims, probs
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build_neighbor_table(emb, k)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a second block-sized array (a partition copy, a fresh product per
        # block) would add 8 MB; the 1 MB candidate mask fits in the slack
        assert peak < block + tables + block // 4

    def test_block_size_keeps_ids(self, rng, monkeypatch):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(40, 8)))
        whole = build_neighbor_table(emb, k=5)
        monkeypatch.setattr(neighbors_mod, "_BLOCK_ELEMS", 3 * 40)
        blocked = build_neighbor_table(emb, k=5)
        np.testing.assert_array_equal(blocked.ids, whole.ids)
        np.testing.assert_allclose(blocked.sims, whole.sims, rtol=0, atol=1e-15)

    def test_k_bounds(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(5, 3)))
        with pytest.raises(ValueError):
            build_neighbor_table(emb, k=0)
        with pytest.raises(ValueError):
            build_neighbor_table(emb, k=5)

    def test_zero_rows_flagged_and_skipped(self, rng):
        vecs = rng.normal(size=(6, 4))
        vecs[2] = 0.0
        emb = EmbeddingMatrix.from_vectors(vecs)
        table = build_neighbor_table(emb, k=2)
        assert table.flagged == frozenset({2})
        assert 2 not in set(table.ids[[0, 1, 3, 4, 5]].ravel())
        np.testing.assert_array_equal(table.ids[2], [2, 2])  # placeholder row

    def test_row_sums_and_sorting(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(30, 8)))
        table = build_neighbor_table(emb, k=5, tau=2.0)
        np.testing.assert_allclose(table.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diff(table.sims, axis=1) <= 0)


class TestRenormalize:
    def _table(self, sims):
        sims = np.asarray(sims, dtype=np.float64)[None, :]
        k = sims.shape[1]
        return NeighborTable(
            k=k, ids=np.arange(1, k + 1, dtype=np.int64)[None, :], sims=sims,
            probs=np.full((1, k), 1.0 / k), tau=1.0, flagged=frozenset(),
        )

    def test_equal_sims_uniform(self):
        table = self._table([0.9, 0.9, 0.9])
        for tau in (0.5, 1.0, 10.0):
            out = renormalize(table, tau)
            np.testing.assert_allclose(out.probs, 1.0 / 3.0)

    def test_softmax_hand_value(self):
        out = renormalize(self._table([1.0, 0.5]), 0.5)
        np.testing.assert_allclose(out.probs[0], [0.73106, 0.26894], atol=1e-5)

    def test_high_tau_flattens(self):
        out = renormalize(self._table([1.0, 0.0]), 10.0)
        np.testing.assert_allclose(out.probs[0], [0.5, 0.5], atol=0.03)

    def test_tau_bounds(self):
        table = self._table([1.0, 0.0])
        for tau in (0.49, 10.01, 0.0, -1.0):
            with pytest.raises(ValueError):
                renormalize(table, tau)

    def test_monotone_in_sims(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(20, 6)))
        table = build_neighbor_table(emb, k=4)
        for tau in (0.5, 1.0, 2.0, 10.0):
            out = renormalize(table, tau)
            assert np.all(np.diff(out.probs, axis=1) <= 1e-15)

    def test_temperature_limits(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(15, 5)))
        table = build_neighbor_table(emb, k=4)
        cold = renormalize(table, 0.5).probs
        hot = renormalize(table, 10.0).probs
        assert np.all(cold.max(axis=1) >= hot.max(axis=1) - 1e-12)
        spread = table.sims.max(axis=1) - table.sims.min(axis=1)
        ratio = hot.max(axis=1) / hot.min(axis=1)
        np.testing.assert_allclose(ratio, np.exp(spread / 10.0), rtol=1e-10)
        assert np.all(ratio <= np.exp(0.2 * spread) + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(tables_and_taus())
    def test_rows_normalized_and_entropy_rises_with_tau(self, case):
        vectors, k, taus = case
        emb = EmbeddingMatrix.from_vectors(vectors)
        base = build_neighbor_table(emb, k, tau=taus[0])
        entropies = []
        for tau in taus:
            for probs in (build_neighbor_table(emb, k, tau=tau).probs,
                          renormalize(base, tau).probs):
                assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
            probs = renormalize(base, tau).probs
            entropies.append(-(probs * np.log(probs)).sum(axis=1))
        for cold, hot in zip(entropies, entropies[1:]):
            assert np.all(hot >= cold - 1e-12)

    def test_clamp_tau(self):
        assert clamp_tau(0.1) == 0.5
        assert clamp_tau(50.0) == 10.0
        assert clamp_tau(3.2) == 3.2


class TestSampleNeighbor:
    def test_degenerate_row(self, rng):
        table = NeighborTable(
            k=3, ids=np.array([[7, 8, 9]]), sims=np.zeros((1, 3)),
            probs=np.array([[1.0, 0.0, 0.0]]), tau=1.0, flagged=frozenset(),
        )
        assert all(sample_neighbor(table, 0, rng) == 7 for _ in range(100))

    def test_uniform_frequencies(self, rng):
        table = NeighborTable(
            k=4, ids=np.array([[1, 2, 3, 4]]), sims=np.zeros((1, 4)),
            probs=np.full((1, 4), 0.25), tau=1.0, flagged=frozenset(),
        )
        draws = np.array([sample_neighbor(table, 0, rng) for _ in range(100_000)])
        for wid in (1, 2, 3, 4):
            assert abs(np.mean(draws == wid) - 0.25) < 0.01

    def test_fixed_seed_reproducible(self):
        table = NeighborTable(
            k=3, ids=np.array([[1, 2, 3]]), sims=np.zeros((1, 3)),
            probs=np.array([[0.2, 0.5, 0.3]]), tau=1.0, flagged=frozenset(),
        )
        a = [sample_neighbor(table, 0, np.random.default_rng(9)) for _ in range(1)]
        run1 = [sample_neighbor(table, 0, np.random.default_rng(42)) for _ in range(20)]
        run2 = [sample_neighbor(table, 0, np.random.default_rng(42)) for _ in range(20)]
        assert run1 == run2 and a  # determinism under a fixed seed

    def test_flagged_word_returns_self(self, rng):
        table = NeighborTable(
            k=2, ids=np.array([[1, 2], [0, 2]]), sims=np.zeros((2, 2)),
            probs=np.full((2, 2), 0.5), tau=1.0, flagged=frozenset({1}),
        )
        assert sample_neighbor(table, 1, rng) == 1

    def test_batched_row_frequencies(self, rng):
        # criterion 04's tolerance, per row, on the trainer's batched draw
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3],
                          [0.6, 0.2, 0.2]])
        ids = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        table = NeighborTable(k=3, ids=ids, sims=np.zeros((4, 3)), probs=probs,
                              tau=1.0, flagged=frozenset({3}))
        words = np.tile(np.arange(4), 4)  # a batch of 16 rows, each word 4 times
        draws = np.array([sample_neighbors(table, words, rng) for _ in range(25_000)])
        for word in range(3):
            got = draws[:, words == word]
            for slot, target in zip(ids[word], probs[word]):
                assert abs(np.mean(got == slot) - target) <= 0.01, (word, slot)
        assert np.all(draws[:, words == 3] == 3)  # flagged: the teacher id back

    def test_works_on_transition_table(self, rng):
        trans = TransitionTable(k=2, ids=np.array([[1, 2]]),
                                probs=np.array([[1.0, 0.0]]))
        assert sample_neighbor(trans, 0, rng) == 1


class TestBuildTransitionTable:
    def _vocab(self, tokens):
        return build_vocabulary(tokens, min_count=1)

    def test_alternating_corpus(self):
        vocab = self._vocab(["a", "b"])
        ids = vocab.encode(["a", "b", "a", "b"])
        table = build_transition_table(ids, vocab, k=1)
        a, b = vocab.id("a"), vocab.id("b")
        assert table.ids[a, 0] == b and table.probs[a, 0] == 1.0
        assert table.ids[b, 0] == a and table.probs[b, 0] == 1.0

    def test_split_successors(self):
        vocab = self._vocab(["a", "b", "c"])
        ids = vocab.encode(["a", "b", "a", "c"])
        table = build_transition_table(ids, vocab, k=2)
        a = vocab.id("a")
        got = dict(zip(table.ids[a], table.probs[a]))
        assert got == {vocab.id("b"): 0.5, vocab.id("c"): 0.5}

    def test_no_successor_self_loop(self):
        vocab = self._vocab(["a", "b"])
        ids = vocab.encode(["a", "b"])  # b is final, never followed
        table = build_transition_table(ids, vocab, k=1)
        b = vocab.id("b")
        assert table.ids[b, 0] == b and table.probs[b, 0] == 1.0

    def test_count_tie_smaller_id(self):
        vocab = self._vocab(["a", "b", "c"])
        ids = vocab.encode(["a", "c", "a", "b"])  # a->c and a->b once each
        table = build_transition_table(ids, vocab, k=1)
        a = vocab.id("a")
        assert table.ids[a, 0] == min(vocab.id("b"), vocab.id("c"))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=60),
        st.integers(1, 4))))
    def test_matches_dict_reference(self, case):
        n, corpus, k = case  # small vocabularies make count ties common
        vocab = ["w%d" % i for i in range(n)]
        table = build_transition_table(corpus, vocab, k)
        ids, probs = reference_transition_table(corpus, n, k)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.probs, probs)

    def test_out_of_range_ids_error(self):
        vocab = self._vocab(["a", "b"])
        for bad in ([0, len(vocab), 1], [0, -1, 1]):
            with pytest.raises(ValueError, match="corpus ids"):
                build_transition_table(bad, vocab, k=1)

    def test_row_sums(self, rng):
        vocab = self._vocab(["t%d" % i for i in range(20)])
        ids = rng.integers(0, len(vocab), size=500)
        table = build_transition_table(ids, vocab, k=3)
        np.testing.assert_allclose(table.probs.sum(axis=1), 1.0, atol=1e-9)


class TestSerialization:
    def test_binary_round_trip_neighbor(self, tmp_path, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(10, 4)))
        table = build_neighbor_table(emb, k=3, tau=2.0)
        path = tmp_path / "t.bin"
        save_table(path, table)
        again = load_table(path)
        assert isinstance(again, NeighborTable)
        assert again.k == table.k and again.tau == table.tau
        np.testing.assert_array_equal(again.ids, table.ids)
        np.testing.assert_array_equal(again.sims, table.sims)
        np.testing.assert_array_equal(again.probs, table.probs)

    def test_binary_round_trip_transition(self, tmp_path):
        vocab = build_vocabulary(["a", "b", "a"], min_count=1)
        table = build_transition_table(vocab.encode(["a", "b", "a"]), vocab, k=2)
        path = tmp_path / "t.bin"
        save_table(path, table)
        again = load_table(path)
        assert isinstance(again, TransitionTable)
        np.testing.assert_array_equal(again.ids, table.ids)
        np.testing.assert_array_equal(again.probs, table.probs)

    def test_load_checks_row_sums(self, tmp_path, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(8, 3)))
        table = build_neighbor_table(emb, k=2)
        broken = dataclasses.replace(table, probs=table.probs * 0.5)
        path = tmp_path / "bad.bin"
        save_table(path, broken)
        with pytest.raises(ValueError, match="row sums"):
            load_table(path)

    def test_load_rejects_nan_rows(self, tmp_path, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(8, 3)))
        table = build_neighbor_table(emb, k=2)
        probs = table.probs.copy()
        probs[3] = np.nan
        path = tmp_path / "nan.bin"
        save_table(path, dataclasses.replace(table, probs=probs))
        with pytest.raises(ValueError, match="row sums"):
            load_table(path)

    @staticmethod
    def _rowwise_csv(path, table):
        """The one-writerow-per-slot writer the CSV bytes are pinned to."""
        has_sims = isinstance(table, NeighborTable)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["word_id", "neighbor_id", "sim", "prob"] if has_sims
                            else ["word_id", "neighbor_id", "prob"])
            for wid in range(len(table)):
                for slot in range(table.k):
                    row = [wid, table.ids[wid, slot]]
                    if has_sims:
                        row.append(repr(float(table.sims[wid, slot])))
                    row.append(repr(float(table.probs[wid, slot])))
                    writer.writerow(row)

    @staticmethod
    def _tables(rng):
        vecs = rng.normal(size=(25, 6))
        vecs[4] = 0.0  # flagged placeholder row
        neigh = build_neighbor_table(EmbeddingMatrix.from_vectors(vecs), k=4, tau=0.7)
        vocab = build_vocabulary(["t%d" % i for i in range(15)], min_count=1)
        trans = build_transition_table(rng.integers(0, 15, size=200), vocab, k=3)
        return (("n", neigh), ("t", trans))

    def test_csv_bytes_match_rowwise_writer(self, tmp_path, rng):
        for name, table in self._tables(rng):
            slow = tmp_path / (name + "_slow.csv")
            self._rowwise_csv(slow, table)
            # chunks of 1, 3 and 7 words (25 and 15 words cross them) and the default
            for words in (1, 3, 7, None):
                fast = tmp_path / ("%s_fast_%s.csv" % (name, words))
                with pytest.MonkeyPatch.context() as mp:
                    if words is not None:
                        mp.setattr(neighbors_mod, "_CSV_CHUNK_ROWS", words * table.k)
                    save_table_csv(fast, table)
                assert fast.read_bytes() == slow.read_bytes(), words

    def test_failed_csv_write_keeps_old_file(self, tmp_path, rng, monkeypatch):
        (_, table), _ = self._tables(rng)
        path = tmp_path / "neighbors.csv"
        path.write_bytes(b"previous contents\r\n")
        real = neighbors_mod.replacing

        class SecondChunkFails:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:  # header, first chunk, second chunk
                    raise OSError("disk full")
                return self.fh.write(text)

        @contextlib.contextmanager
        def failing(*args, **kwargs):
            with real(*args, **kwargs) as fh:
                yield SecondChunkFails(fh)

        monkeypatch.setattr(neighbors_mod, "replacing", failing)
        monkeypatch.setattr(neighbors_mod, "_CSV_CHUNK_ROWS", table.k)  # one word a chunk
        with pytest.raises(OSError, match="disk full"):
            save_table_csv(path, table)
        assert path.read_bytes() == b"previous contents\r\n"
        assert os.listdir(tmp_path) == ["neighbors.csv"]

    def test_csv_transition_has_no_sim_column(self, tmp_path):
        vocab = build_vocabulary(["a", "b"], min_count=1)
        table = build_transition_table(vocab.encode(["a", "b", "a"]), vocab, k=1)
        path = tmp_path / "t.csv"
        save_table_csv(path, table)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "word_id,neighbor_id,prob"
