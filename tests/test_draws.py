"""Batched policy draws equal per-row draws: same ids, same rng state.

The training loop draws all B rows of a Neighbor step at once
(sample_neighbors, gumbel_sample) and all B scheduled-sampling rows of a
Prediction step at once (model.greedy_or_sample_predict over (B, |V|)
log-probs). Each must return what a loop over one-row calls returns, and
leave the generator where that loop leaves it, so the policy stream,
decisions.csv and resumed runs do not depend on which form ran.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrslab.model import greedy_or_sample_predict
from nnrslab.neighbors import (
    NeighborTable,
    build_transition_table,
    categorical_draw,
    categorical_draws,
    sample_neighbor,
    sample_neighbors,
)
from nnrslab.policy import GumbelLogits, gumbel_sample


def _neighbor_table(rng, n, k):
    ids = rng.integers(0, n, size=(n, k))
    sims = np.sort(rng.uniform(-1.0, 1.0, size=(n, k)), axis=1)[:, ::-1]
    probs = np.exp(sims / 0.5)
    probs /= probs.sum(axis=1, keepdims=True)
    return NeighborTable(k=k, ids=ids, sims=sims, probs=probs, tau=0.5, flagged=frozenset())


@st.composite
def draw_cases(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 9))
    return dict(
        k=k, n=n, seed=draw(st.integers(0, 2 ** 32 - 1)),
        words=draw(st.lists(st.integers(0, n - 1), max_size=8)),
        flagged=frozenset(draw(st.sets(st.integers(0, n - 1), max_size=3))),
        corpus=draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=40)),
    )


def _same_draws(batched, one_row, seed):
    """(batched ids, looped ids) from two generators at one seed, after
    asserting both generators end in the same state."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = batched(a)
    want = [one_row(b, r) for r in range(len(got))]
    assert a.bit_generator.state == b.bit_generator.state
    return np.asarray(got).tolist(), want


class TestBatchedEqualsPerRow:
    @settings(max_examples=150, deadline=None)
    @given(draw_cases())
    def test_neighbor_draws(self, case):
        words = np.array(case["words"], dtype=np.int64)
        rng = np.random.default_rng(case["seed"])
        transitions = build_transition_table(np.array(case["corpus"]), range(case["n"]),
                                             case["k"])  # zero-probability padding slots
        for table in (_neighbor_table(rng, case["n"], case["k"]), transitions):
            for flagged in (frozenset(), case["flagged"]):
                table = replace(table, flagged=flagged)
                got, want = _same_draws(lambda g: sample_neighbors(table, words, g),
                                        lambda g, r: sample_neighbor(table, int(words[r]), g),
                                        case["seed"])
                assert got == want

                # and the rule itself: the one-row draw on each unflagged row
                ref_rng = np.random.default_rng(case["seed"])
                ref = [int(w) if int(w) in flagged
                       else int(table.ids[w, categorical_draw(table.probs[w], ref_rng)])
                       for w in words]
                assert got == ref

    @settings(max_examples=150, deadline=None)
    @given(draw_cases())
    def test_gumbel_sample_batched_equals_per_word(self, case):
        # the same slots and the same relaxation rows, bit for bit
        words = np.array(case["words"], dtype=np.int64)
        log_alpha = np.random.default_rng(case["seed"]).normal(size=(case["n"], case["k"]))
        logits = GumbelLogits(log_alpha)
        got, want = _same_draws(lambda g: gumbel_sample(logits, words, 0.5, g)[0],
                                lambda g, r: gumbel_sample(logits, int(words[r]), 0.5, g)[0],
                                case["seed"])
        assert got == want
        got, want = _same_draws(lambda g: gumbel_sample(logits, words, 0.5, g)[1],
                                lambda g, r: gumbel_sample(logits, int(words[r]), 0.5, g)[1],
                                case["seed"])
        assert got == np.asarray(want).reshape(len(words), case["k"]).tolist()

    @settings(max_examples=150, deadline=None)
    @given(draw_cases())
    def test_predict_sample_draws(self, case):
        probs = np.random.default_rng(case["seed"]).dirichlet(np.ones(case["n"]),
                                                             size=len(case["words"]) + 1)
        probs[:, case["n"] // 2] = 0.0  # a zero-probability column
        probs /= probs.sum(axis=1, keepdims=True)
        log_probs = np.log(np.maximum(probs, 1e-300))
        got, want = _same_draws(lambda g: greedy_or_sample_predict(log_probs, True, g),
                                lambda g, r: int(greedy_or_sample_predict(log_probs[r:r + 1],
                                                                          True, g)[0]),
                                case["seed"])
        assert got == want
        # and the rule itself: the one-row draw on each row's probabilities
        got, want = _same_draws(lambda g: greedy_or_sample_predict(log_probs, True, g),
                                lambda g, r: categorical_draw(np.exp(log_probs[r]), g),
                                case["seed"])
        assert got == want
        got, want = _same_draws(lambda g: categorical_draws(probs, g),
                                lambda g, r: categorical_draw(probs[r], g), case["seed"])
        assert got == want


def test_flagged_words_draw_nothing():
    table = replace(_neighbor_table(np.random.default_rng(0), 4, 3), flagged=frozenset({1, 2}))
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    np.testing.assert_array_equal(sample_neighbors(table, [1, 2, 2], rng), [1, 2, 2])
    assert rng.bit_generator.state == before


class _FixedRandom:
    """A generator stand-in whose random(n) returns preset doubles."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size=None):
        return self.values.copy() if size is not None else float(self.values[0])


def test_draw_landing_on_a_running_sum_takes_the_next_slot():
    # searchsorted side="right": u * total equal to a running sum skips
    # past it, so a zero-probability slot is never drawn
    probs = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    got = categorical_draws(probs, _FixedRandom([0.0, 0.5, 0.5]))
    np.testing.assert_array_equal(got, [1, 1, 2])
    for row, u, want in zip(probs, (0.0, 0.5, 0.5), (1, 1, 2)):
        assert categorical_draw(row, _FixedRandom([u])) == want
