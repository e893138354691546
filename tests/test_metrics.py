"""BLEU, WMD, the KL diagnostic, and the model evaluation protocol."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrslab.embeddings import EmbeddingMatrix
from nnrslab.metrics import (
    METRICS,
    ScoreReport,
    ToyChain,
    bleu4,
    evaluate_model,
    kl_decomposition,
    reports_from_csv,
    reports_to_csv,
    self_bleu4,
    self_wmd,
    wmd_score,
)
import nnrslab.metrics as metrics_mod
import nnrslab.model as model_mod
from nnrslab.model import LstmLm, step
from nnrslab.trainer import (
    TrainConfig,
    make_batches,
    rng_streams,
    validate,
    run_training,
    _load_run_inputs,
)
from synth import bigram_cycle_lines, write_lines


class TestBleu4:
    def test_identity(self):
        assert bleu4(["a", "b", "c", "d"], [["a", "b", "c", "d"]]) == 1.0

    def test_disjoint_under_floor(self):
        assert bleu4(["a", "b", "c", "d"], [["x", "y", "z", "w"]]) < 1e-6

    def test_hand_oracle(self):
        # candidate "the cat sat" vs reference "the cat sat down":
        # p1 = 3/3, p2 = 2/2, p3 = 1/1 (n_max = 3), bp = exp(1 - 4/3)
        got = bleu4("the cat sat".split(), ["the cat sat down".split()])
        assert got == pytest.approx(np.exp(-1.0 / 3.0), abs=1e-9)

    def test_clipping(self):
        # "the the the" vs "the cat": count of "the" clips at 1
        got = bleu4(["the", "the", "the"], [["the", "cat"]])
        # p1 = 1/3, p2 = eps/2, p3 = eps/1; bp = 1 (c=3 > r=2)
        expected = np.exp((np.log(1 / 3) + np.log(1e-9 / 2) + np.log(1e-9)) / 3)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_brevity_tie_prefers_shorter(self):
        # refs of lengths 2 and 4 are equally distant from c=3; picking the
        # shorter one (r=2) leaves no penalty, the longer would give exp(-1/3)
        got = bleu4(["a", "b", "a"], [["a", "b"], ["a", "b", "a", "b"]])
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got > math.exp(-1.0 / 3.0) + 0.1
        got = bleu4(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])
        shorter_only = bleu4(["a", "b", "c"], [["a", "b"]])
        assert got >= shorter_only  # same bp=1, more reference n-grams

    def test_short_candidate_limits_order(self):
        assert bleu4(["a"], [["a"]]) == 1.0
        assert bleu4(["a", "b"], [["a", "b"]]) == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            bleu4([], [["a"]])
        with pytest.raises(ValueError):
            bleu4(["a"], [])
        with pytest.raises(ValueError):
            bleu4(["a"], [[]])


class TestSelfBleu4:
    def test_identical_batch(self):
        batch = [["a", "b", "c"]] * 4
        assert self_bleu4(batch) == 1.0

    def test_disjoint_batch(self):
        assert self_bleu4([["a", "b"], ["c", "d"], ["e", "f"]]) < 1e-6

    def test_matches_pairwise_bruteforce(self):
        batch = [["a", "b", "c"], ["b", "c", "d"], ["a", "c", "d"]]
        expected = np.mean([
            bleu4(batch[0], [batch[1], batch[2]]),
            bleu4(batch[1], [batch[0], batch[2]]),
            bleu4(batch[2], [batch[0], batch[1]]),
        ])
        assert self_bleu4(batch) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariant(self):
        batch = [["a", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]
        forward_order = self_bleu4(batch)
        assert self_bleu4(batch[::-1]) == pytest.approx(forward_order, abs=1e-12)

    def test_singleton_warns_and_skips(self):
        with pytest.warns(UserWarning):
            assert self_bleu4([["a", "b"]]) is None


@st.composite
def token_batches(draw, alphabet, min_len=1):
    """2-9 sequences over a 1-4 token alphabet, some repeated verbatim."""
    tokens = st.sampled_from(alphabet[:draw(st.integers(1, 4))])
    batch = draw(st.lists(st.lists(tokens, min_size=min_len, max_size=8),
                          min_size=2, max_size=6))
    repeats = draw(st.lists(st.integers(0, len(batch) - 1), max_size=3))
    return batch + [list(batch[i]) for i in repeats]


def _pairwise_self_wmd(batch, emb, exclude=()):
    """The per-pair definition self_wmd batches: per sequence, the mean
    of its defined wmd_score against every other sequence."""
    per_seq = []
    for i, seq in enumerate(batch):
        vals = [wmd_score(seq, other, emb, exclude)
                for j, other in enumerate(batch) if j != i]
        vals = [v for v in vals if v is not None]
        if vals:
            per_seq.append(float(np.mean(vals)))
    return float(np.mean(per_seq)) if per_seq else None


class TestBatchedScoresEqualPairwise:
    @pytest.mark.parametrize("alphabet", [["a", "b", "c", "d"], [3, 0, 2, 1]],
                             ids=["str", "int"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_self_bleu4_bit_identical(self, alphabet, data):
        batch = data.draw(token_batches(alphabet))
        expected = float(np.mean([bleu4(seq, batch[:i] + batch[i + 1:])
                                  for i, seq in enumerate(batch)]))
        assert self_bleu4(batch) == expected

    @settings(max_examples=200, deadline=None)
    @given(batch=token_batches(list(range(6)), min_len=0),
           zero=st.sets(st.integers(0, 5), max_size=2),
           exclude=st.sets(st.integers(0, 5), max_size=2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_self_wmd_within_1e12(self, batch, zero, exclude, seed):
        vecs = np.random.default_rng(seed).normal(size=(6, 8))
        vecs[sorted(zero)] = 0.0
        emb = EmbeddingMatrix.from_vectors(vecs)
        expected = _pairwise_self_wmd(batch, emb, exclude)
        got = self_wmd(batch, emb, exclude)
        if expected is None:  # fewer than two sequences keep a token
            assert got is None
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_self_bleu4_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            self_bleu4([["a"], []])


def _basis_embeddings(n=6):
    return EmbeddingMatrix.from_vectors(np.eye(n))


class TestWmdScore:
    def test_identity(self):
        emb = _basis_embeddings()
        assert wmd_score([0, 1, 2], [0, 1, 2], emb) == 1.0
        assert wmd_score([0, 1, 2], [0, 1, 2], emb, exact=True) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_singletons(self):
        emb = _basis_embeddings()
        assert wmd_score([0], [1], emb) == pytest.approx(0.5)

    def test_symmetry(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(10, 4)))
        a = [0, 3, 5, 7]
        b = [1, 2, 5]
        assert wmd_score(a, b, emb) == pytest.approx(wmd_score(b, a, emb), abs=1e-12)

    def test_three_token_matching_oracle(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(8, 4)))
        pred, target = [0, 2, 4], [1, 3, 5]
        unit = emb.vectors / emb.norms[:, None]
        sims = np.clip(unit[pred] @ unit[target].T, -1.0, 1.0)
        raw = 0.5 * (sims.max(axis=1).mean() + sims.max(axis=0).mean())
        assert wmd_score(pred, target, emb) == pytest.approx((raw + 1) / 2, abs=1e-12)

    def test_relaxed_upper_bounds_exact(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(20, 6)))
        for _ in range(10):
            pred = rng.integers(0, 20, size=rng.integers(2, 8)).tolist()
            target = rng.integers(0, 20, size=rng.integers(2, 8)).tolist()
            relaxed = wmd_score(pred, target, emb)
            exact = wmd_score(pred, target, emb, exact=True)
            assert relaxed >= exact - 1e-9

    def test_exclusions_and_empty(self):
        emb = _basis_embeddings()
        assert wmd_score([0], [0], emb, exclude={0}) is None
        assert wmd_score([], [0], emb) is None

    def test_zero_embedding_rows_dropped(self):
        vecs = np.eye(4)
        vecs[2] = 0.0
        emb = EmbeddingMatrix.from_vectors(vecs)
        assert wmd_score([2], [2], emb) is None
        assert wmd_score([0, 2], [0], emb) == 1.0

    def test_exact_size_limit(self):
        emb = _basis_embeddings(20)
        long = list(range(13))
        with pytest.raises(ValueError):
            wmd_score(long, [0], emb, exact=True)

    def test_self_wmd(self, rng):
        emb = EmbeddingMatrix.from_vectors(rng.normal(size=(10, 4)))
        batch = [[0, 1], [0, 1], [0, 1]]
        assert self_wmd(batch, emb) == pytest.approx(1.0)
        with pytest.warns(UserWarning):
            assert self_wmd([[0, 1]], emb) is None


class TestToyChain:
    def test_from_transitions_solves_stationary(self):
        trans = np.array([[0.9, 0.1], [0.2, 0.8]])
        chain = ToyChain.from_transitions(trans)
        np.testing.assert_allclose(chain.marginal @ trans, chain.marginal, atol=1e-12)
        np.testing.assert_allclose(chain.marginal.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(chain.marginal, [2 / 3, 1 / 3], atol=1e-12)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            ToyChain(np.array([[0.5, 0.6], [0.2, 0.8]]), np.array([0.5, 0.5]))

    def test_rejects_non_stationary_marginal(self):
        trans = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="stationary"):
            ToyChain(trans, np.array([0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ToyChain(np.array([[1.1, -0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))


class TestKlDecomposition:
    def _chains(self):
        p = ToyChain.from_transitions(np.array([[0.9, 0.1], [0.2, 0.8]]))
        q = ToyChain.from_transitions(np.array([[0.6, 0.4], [0.5, 0.5]]))
        return p, q

    def test_identical_chains_zero(self):
        p, _ = self._chains()
        terms = kl_decomposition(p, p, 0.5, 0.5)
        for value in terms.values():
            assert abs(value) < 1e-12

    def test_matches_direct_oracle(self):
        # independent arithmetic: KL sums written out longhand
        p, q = self._chains()
        eps = gam = 0.5

        def kl(a, b):
            return float(sum(ai * np.log(ai / bi) for ai, bi in zip(a, b)))

        row = [kl(p.trans[h], q.trans[h]) for h in range(2)]
        under_q = sum(q.marginal[h] * row[h] for h in range(2))
        under_p = sum(p.marginal[h] * row[h] for h in range(2))
        expected = {
            "marginal": kl(p.marginal, q.marginal),
            "ss_teacher": (1 - eps) * under_q,
            "ss_model": eps * under_p,
            "nnrs_teacher": (1 - gam) * under_q,
            "nnrs_neighbor": gam * under_p,
        }
        expected["total"] = sum(expected.values())
        got = kl_decomposition(p, q, eps, gam)
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, abs=1e-12)

    def test_zero_rates_weighting(self):
        p, q = self._chains()
        terms = kl_decomposition(p, q, 0.0, 0.0)
        assert terms["ss_model"] == 0.0 and terms["nnrs_neighbor"] == 0.0
        assert terms["ss_teacher"] == terms["nnrs_teacher"]
        assert terms["total"] == pytest.approx(
            terms["marginal"] + 2 * terms["ss_teacher"], abs=1e-12)

    def test_total_nonnegative(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = ToyChain.from_transitions(_random_positive_chain(rng, n))
            q = ToyChain.from_transitions(_random_positive_chain(rng, n))
            terms = kl_decomposition(p, q, float(rng.uniform()), float(rng.uniform()))
            assert terms["total"] >= -1e-12

    def test_requires_positive_chains(self):
        degenerate = ToyChain.from_transitions(np.array([[1.0, 0.0], [0.5, 0.5]]))
        p, _ = self._chains()
        with pytest.raises(ValueError, match="positive"):
            kl_decomposition(degenerate, p, 0.1, 0.1)

    def test_rate_and_shape_validation(self):
        p, q = self._chains()
        with pytest.raises(ValueError):
            kl_decomposition(p, q, 1.5, 0.0)
        r3 = ToyChain.from_transitions(_random_positive_chain(np.random.default_rng(0), 3))
        with pytest.raises(ValueError):
            kl_decomposition(p, r3, 0.1, 0.1)


def _random_positive_chain(rng, n):
    trans = rng.uniform(0.1, 1.0, size=(n, n))
    return trans / trans.sum(axis=1, keepdims=True)


def _stepwise_continuations(model, inputs, prefix):
    """Greedy continuations with every position through the full `step`."""
    state = model.zero_state(inputs.shape[0])
    for t in range(prefix):
        log_probs, state, _ = step(model, inputs[:, t], state)
    expected = []
    for _ in range(inputs.shape[1] - prefix + 1):
        expected.append(log_probs.argmax(axis=1))
        log_probs, state, _ = step(model, expected[-1], state)
    return np.stack(expected, axis=1)


@pytest.fixture(scope="module")
def memorized(tmp_path_factory):
    """A model trained to memorize the deterministic cycle corpus."""
    tmp = tmp_path_factory.mktemp("memorized")
    corpus = write_lines(tmp / "cycle.txt", bigram_cycle_lines())
    cfg = TrainConfig(corpus=corpus, epochs=20, batch_size=4, bptt_len=10,
                      hidden=32, dim=16, base_lr=5.0, seed=7)
    model, _ = run_training(cfg)
    rng_model, _ = rng_streams(cfg.seed)
    vocab, _train, val_ids, emb = _load_run_inputs(cfg, rng_model)
    windows = make_batches(val_ids, 4, cfg.bptt_len)
    return model, vocab, emb, windows


class TestEvaluateModel:
    def test_memorization_reaches_bleu_one(self, memorized):
        model, vocab, emb, windows = memorized
        reports = evaluate_model(model, windows, emb, ["ppl", "bleu4", "wmd"],
                                 exclude={vocab.unk_id})
        by_name = {r.metric: r.value for r in reports}
        assert by_name["bleu4"] == pytest.approx(1.0, abs=1e-9)
        assert by_name["wmd"] == pytest.approx(1.0, abs=1e-9)
        assert by_name["ppl"] < 1.3

    def test_collapsed_model_maximizes_self_similarity(self, memorized):
        # a zero model continues every prefix with the same constant token,
        # so the batch continuations are identical
        model, vocab, emb, windows = memorized
        diversity = ["self_bleu4", "self_wmd"]
        mem = {r.metric: r.value for r in evaluate_model(
            model, windows, emb, diversity, exclude={vocab.unk_id})}
        collapsed = LstmLm.zeros(len(vocab), 16, 32)
        col = {r.metric: r.value for r in evaluate_model(
            collapsed, windows, emb, diversity, exclude={vocab.unk_id})}
        assert col["self_bleu4"] == pytest.approx(1.0, abs=1e-12)
        assert mem["self_bleu4"] < col["self_bleu4"]

    def test_all_values_finite(self, memorized):
        model, vocab, emb, windows = memorized
        reports = evaluate_model(model, windows, emb, METRICS)
        assert [rep.metric for rep in reports] == list(METRICS)
        for rep in reports:
            assert np.isfinite(rep.value)

    def test_all_metrics_equal_each_alone(self, memorized):
        # one report per name, in METRICS order, whatever order or repeats are asked for
        model, vocab, emb, windows = memorized
        kw = dict(prefix_len=3, exclude={vocab.unk_id})
        alone = [evaluate_model(model, windows, emb, [name], **kw) for name in METRICS]
        assert [len(reports) for reports in alone] == [1] * len(METRICS)
        asked = list(reversed(METRICS)) + ["wmd"]
        assert evaluate_model(model, windows, emb, asked, **kw) == sum(alone, [])

    def test_ppl_mode_does_not_decode(self, memorized, monkeypatch):
        model, _, emb, windows = memorized
        expected = [ScoreReport("ppl", "valid", validate(model, windows), "")]
        bleu = evaluate_model(model, windows, emb, ["bleu4"])

        def refuse(*_args):
            raise AssertionError("ran a pass no asked metric needs")

        monkeypatch.setattr(metrics_mod, "_greedy_continuations", refuse)
        assert evaluate_model(model, windows, emb, ["ppl"]) == expected
        monkeypatch.undo()
        monkeypatch.setattr(metrics_mod, "validate", refuse)
        assert evaluate_model(model, windows, emb, ["bleu4"]) == bleu

    def test_continuations_match_stepwise_reference(self, memorized):
        _, vocab, _, windows = memorized
        model = LstmLm.init(len(vocab), 16, 32, np.random.default_rng(5))
        inputs = windows[0][0]
        for prefix in (1, 4, inputs.shape[1]):
            np.testing.assert_array_equal(
                metrics_mod._greedy_continuations(model, inputs, prefix),
                _stepwise_continuations(model, inputs, prefix))

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=8), batch=st.integers(2, 4),
           vocab=st.integers(2, 30), prefix=st.one_of(st.none(), st.integers(1, 5)),
           block=st.integers(2, 9), seed=st.integers(0, 2 ** 16))
    def test_batched_decode_equals_per_window(self, widths, batch, vocab, prefix, block, seed):
        # windows of one width are stacked into chunks of at most `block`
        # rows (or one window) and decoded together
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 3, 5, rng)
        split = [(rng.integers(0, vocab, size=(batch, w)), rng.integers(0, vocab, size=(batch, w)))
                 for w in widths]
        chunk_rows = []
        real = metrics_mod._greedy_continuations

        def recording(model, inputs, prefix_len):
            chunk_rows.append(inputs.shape[0])
            return real(model, inputs, prefix_len)

        with mock.patch.object(model_mod, "_ROW_BUDGET", block * vocab), \
                mock.patch.object(metrics_mod, "_greedy_continuations", recording):
            decoded = metrics_mod._decode_windows(model, split, prefix)
        assert max(chunk_rows) <= max(block, batch)
        assert len(chunk_rows) == sum(-(-widths.count(w) // max(1, block // batch))
                                      for w in set(widths))
        for (inputs, _), (p, gen) in zip(split, decoded):
            width = inputs.shape[1]
            assert p == min(max(1, width // 2) if prefix is None else prefix, width)
            np.testing.assert_array_equal(gen, _stepwise_continuations(model, inputs, p))

    def test_metric_validation(self, memorized):
        model, _, emb, windows = memorized
        with pytest.raises(ValueError, match="speed"):
            evaluate_model(model, windows, emb, ["ppl", "speed"])
        with pytest.raises(ValueError):
            evaluate_model(model, [], emb, ["bleu4"])
        with pytest.raises(ValueError, match="prefix_len"):
            evaluate_model(model, windows, emb, ["bleu4"], prefix_len=0)
        inputs = windows[0][0].copy()
        inputs[1, 2] = -1  # a teacher id after the first position
        with pytest.raises(ValueError, match="out of range"):
            evaluate_model(model, [(inputs, windows[0][1])], emb, ["bleu4"], prefix_len=5)


class TestReportsCsv:
    def test_round_trip(self, tmp_path):
        reports = [ScoreReport("bleu4", "valid", 0.25, "run-a"),
                   ScoreReport("ppl", "test", 13.5, "run-a")]
        path = tmp_path / "reports.csv"
        reports_to_csv(reports, path)
        assert reports_from_csv(path) == reports

    def test_failed_write_keeps_old_file(self, tmp_path):
        class DiskFull:
            def __float__(self):
                raise OSError("disk full")

        path = tmp_path / "reports.csv"
        reports_to_csv([ScoreReport("ppl", "valid", 13.5, "old")], path)
        before = path.read_bytes()
        # the header and the first row are written before the second raises
        with pytest.raises(OSError, match="disk full"):
            reports_to_csv([ScoreReport("bleu4", "valid", 0.25, "new"),
                            ScoreReport("wmd", "valid", DiskFull(), "new")], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["reports.csv"]
