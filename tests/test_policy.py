"""Token-source decisions, the temperature controller, and the Gumbel path."""

import math

import numpy as np
import pytest

from nnrslab.neighbors import NeighborTable, sample_neighbor
from nnrslab.policy import (
    MODES,
    GumbelLogits,
    PolicyState,
    Source,
    decide_batch_positions,
    decide_token,
    gumbel_backward,
    gumbel_sample,
    gumbel_update,
    update_temperature,
)
from nnrslab.schedules import Schedule
from nnrslab.trainer import TrainConfig

_FORBIDDEN = {("MLE", "epsilon"), ("MLE", "gamma"), ("SS", "gamma"),
              ("NNRS", "epsilon"), ("TPRS", "epsilon"), ("GSNS", "epsilon")}


def _toy_table(k: int = 3) -> NeighborTable:
    ids = np.arange(1, k + 1, dtype=np.int64)[None, :]
    return NeighborTable(k=k, ids=ids, sims=np.zeros((1, k)),
                         probs=np.full((1, k), 1.0 / k), tau=1.0,
                         flagged=frozenset())


class TestPolicyState:
    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            PolicyState(mode="RL", rng=rng)
        with pytest.raises(ValueError, match="unknown mode"):
            TrainConfig(corpus="c.txt", mode="RL").check()

    def test_mode_rate_constraints(self, rng):
        with pytest.raises(ValueError):
            PolicyState(mode="MLE", rng=rng, epsilon=0.1)
        with pytest.raises(ValueError):
            PolicyState(mode="SS", rng=rng, gamma=0.1)
        with pytest.raises(ValueError):
            PolicyState(mode="NNRS", rng=rng, epsilon=0.1)
        PolicyState(mode="SS_NNRS", rng=rng, epsilon=0.3, gamma=0.3)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rate", ["epsilon", "gamma"])
    def test_one_rule_for_rates_and_schedules(self, rng, mode, rate):
        # a nonzero rate and a nonzero schedule are refused for the same pairs
        rates = (0.3, 0.0) if rate == "epsilon" else (0.0, 0.3)
        schedule = {"ss" if rate == "epsilon" else "nnrs": Schedule("linear", 0.0, 0.3)}
        state = PolicyState(mode=mode, rng=rng)
        config = TrainConfig(corpus="c.txt", mode=mode, **schedule)
        if (mode, rate) in _FORBIDDEN:
            with pytest.raises(ValueError, match="mode %s requires %s" % (mode, rate)):
                state.set_rates(*rates)
            with pytest.raises(ValueError, match="mode %s requires %s" % (mode, rate)):
                config.check()
        else:
            state.set_rates(*rates)
            config.check()

    def test_rate_bounds(self, rng):
        state = PolicyState(mode="SS", rng=rng)
        with pytest.raises(ValueError):
            state.set_rates(1.1, 0.0)
        with pytest.raises(ValueError):
            state.set_rates(-0.1, 0.0)

    def test_source_labels(self):
        assert Source.TEACHER.label == "Teacher"
        assert Source.PREDICTION.label == "Prediction"
        assert Source.NEIGHBOR.label == "Neighbor"


class TestDecideToken:
    def test_zero_rates_always_teacher(self, rng):
        state = PolicyState(mode="MLE", rng=rng)
        for _ in range(50):
            dec = decide_token(state, teacher=5)
            assert dec.source == Source.TEACHER and dec.chosen_id == 5

    def test_gamma_one_always_neighbor(self, rng):
        state = PolicyState(mode="NNRS", rng=rng, gamma=1.0)
        table = _toy_table()
        for _ in range(50):
            dec = decide_token(state, teacher=0, table=table)
            assert dec.source == Source.NEIGHBOR
            assert dec.chosen_id in (1, 2, 3)

    def test_epsilon_one_always_prediction(self, rng):
        state = PolicyState(mode="SS", rng=rng, epsilon=1.0)
        for _ in range(50):
            dec = decide_token(state, teacher=0, prediction=9)
            assert dec.source == Source.PREDICTION and dec.chosen_id == 9

    def test_missing_inputs_error(self):
        state = PolicyState(mode="SS", rng=np.random.default_rng(0), epsilon=1.0)
        with pytest.raises(ValueError):
            decide_token(state, teacher=0)
        state = PolicyState(mode="NNRS", rng=np.random.default_rng(0), gamma=1.0)
        with pytest.raises(ValueError):
            decide_token(state, teacher=0, prediction=1)

    def test_is_the_batch_rule_at_length_one(self):
        # decide_token draws the three doubles decide_batch_positions(state, 1)
        # draws and applies its rule: the same source, the generator left
        # where that call (and a Neighbor step's sample_neighbor) leaves it
        table = _toy_table()
        seen = set()
        for seed in range(100):
            for eps, gam in ((0.5, 0.5), (0.3, 0.8), (1.0, 1.0)):
                one, batch = (PolicyState(mode="SS_NNRS", rng=np.random.default_rng(seed),
                                          epsilon=eps, gamma=gam) for _ in range(2))
                want = int(decide_batch_positions(batch, 1)[0])
                if want == Source.NEIGHBOR:
                    sample_neighbor(table, 0, batch.rng)
                assert decide_token(one, 0, prediction=9, table=table).source == want
                assert one.rng.bit_generator.state == batch.rng.bit_generator.state
                seen.add(want)
        assert seen == set(Source)

    def test_frequencies_hand_case(self, rng):
        # eps=0.5, gamma=0.2: P(pred) = 0.5*0.8 + 0.5*0.5*0.2 = 0.45,
        # P(neigh) = 0.2*0.5 + 0.05 = 0.15, P(teacher) = 0.4
        state = PolicyState(mode="SS_NNRS", rng=rng, epsilon=0.5, gamma=0.2)
        table = _toy_table()
        counts = {s: 0 for s in Source}
        n = 100_000
        for _ in range(n):
            counts[decide_token(state, 0, prediction=7, table=table).source] += 1
        assert abs(counts[Source.PREDICTION] / n - 0.45) < 0.01
        assert abs(counts[Source.NEIGHBOR] / n - 0.15) < 0.01
        assert abs(counts[Source.TEACHER] / n - 0.40) < 0.01


class TestDecideBatchPositions:
    def test_zero_rates_all_teacher(self, rng):
        state = PolicyState(mode="MLE", rng=rng)
        mask = decide_batch_positions(state, 3)
        np.testing.assert_array_equal(mask, [Source.TEACHER] * 3)

    def test_epsilon_one_all_prediction(self, rng):
        state = PolicyState(mode="SS", rng=rng, epsilon=1.0)
        mask = decide_batch_positions(state, 5)
        assert np.all(mask == Source.PREDICTION)

    def test_same_seed_same_mask(self):
        a = PolicyState(mode="SS_NNRS", rng=np.random.default_rng(3),
                        epsilon=0.5, gamma=0.5)
        b = PolicyState(mode="SS_NNRS", rng=np.random.default_rng(3),
                        epsilon=0.5, gamma=0.5)
        np.testing.assert_array_equal(decide_batch_positions(a, 64),
                                      decide_batch_positions(b, 64))

    def test_marginals(self, rng):
        # criterion 04's 25 (epsilon, gamma) pairs and analytic map, on the
        # trainer's path: a joint fire splits 50/50
        for eps in (0.0, 0.2, 0.5, 0.8, 1.0):
            for gam in (0.0, 0.2, 0.5, 0.8, 1.0):
                state = PolicyState(mode="SS_NNRS", rng=rng, epsilon=eps, gamma=gam)
                mask = np.concatenate([decide_batch_positions(state, 1000)
                                       for _ in range(100)])
                expected = {
                    Source.TEACHER: (1.0 - eps) * (1.0 - gam),
                    Source.PREDICTION: eps * (1.0 - gam) + eps * gam / 2.0,
                    Source.NEIGHBOR: gam * (1.0 - eps) + eps * gam / 2.0,
                }
                for source, target in expected.items():
                    assert abs(np.mean(mask == source) - target) <= 0.01, (eps, gam, source)

    def test_bad_length(self, rng):
        with pytest.raises(ValueError):
            decide_batch_positions(PolicyState(mode="MLE", rng=rng), 0)


class TestUpdateTemperature:
    def _state(self, tau, best=math.inf):
        return PolicyState(mode="NNRS", rng=np.random.default_rng(0),
                           tau=tau, best_val_loss=best)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_tau_refused(self, tau):
        # tau = inf used to be accepted, and the next update set it to NaN
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            self._state(tau)

    def test_tau_one_fixed_point(self):
        for loss in (0.5, 5.0, 500.0):
            state = self._state(1.0, best=10.0)
            update_temperature(state, loss)
            assert state.tau == 1.0

    def test_no_improvement_increases(self):
        state = self._state(2.0, best=10.0)
        update_temperature(state, 10.0)  # equal counts as no improvement
        assert state.tau == pytest.approx(3.0)  # 2 + |2 - 3|

    def test_improvement_decreases_and_clamps(self):
        state = self._state(0.5, best=10.0)
        update_temperature(state, 5.0)
        # 0.5 - |0.5 - 0.41421| = 0.41421, clamped back to 0.5
        assert state.tau == 0.5

    def test_upper_clamp(self):
        state = self._state(9.0, best=1.0)
        update_temperature(state, 2.0)  # worse: 9 + |9 - 511| >> 10
        assert state.tau == 10.0

    def test_best_tracks_minimum(self):
        state = self._state(2.0, best=8.0)
        update_temperature(state, 6.0)
        assert state.best_val_loss == 6.0
        update_temperature(state, 7.0)
        assert state.best_val_loss == 6.0

    def test_sign_matches_comparison(self, rng):
        for _ in range(50):
            tau = float(rng.uniform(0.5, 10.0))
            best = float(rng.uniform(1.0, 50.0))
            loss = float(rng.uniform(1.0, 50.0))
            state = self._state(tau, best=best)
            update_temperature(state, loss)
            assert 0.5 <= state.tau <= 10.0
            delta = abs(tau - (2.0 ** tau - 1.0))
            want = tau + delta if loss >= best else tau - delta
            assert state.tau == min(max(want, 0.5), 10.0)

    def test_bad_loss_errors(self):
        state = self._state(2.0)
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError):
                update_temperature(state, bad)


class TestGumbelSample:
    def test_dominant_logit_wins(self, rng):
        logits = GumbelLogits(np.array([[10.0, 0.0, 0.0]]))
        hits = sum(gumbel_sample(logits, 0, rng=rng)[0] == 0 for _ in range(10_000))
        assert hits / 10_000 > 0.99

    def test_uniform_logits_uniform_slots(self, rng):
        logits = GumbelLogits(np.zeros((1, 4)))
        draws = np.array([gumbel_sample(logits, 0, rng=rng)[0]
                          for _ in range(100_000)])
        for slot in range(4):
            assert abs(np.mean(draws == slot) - 0.25) < 0.01

    def test_soft_probs_normalized(self, rng):
        logits = GumbelLogits(rng.normal(size=(5, 6)))
        for word in range(5):
            _, soft = gumbel_sample(logits, word, rng=rng)
            assert abs(soft.sum() - 1.0) < 1e-9
            assert np.all(soft >= 0.0)

    def test_tau_bounds_and_rng_required(self, rng):
        logits = GumbelLogits(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            gumbel_sample(logits, 0, tau=0.4, rng=rng)
        with pytest.raises(ValueError):
            gumbel_sample(logits, 0, tau=11.0, rng=rng)
        with pytest.raises(ValueError):
            gumbel_sample(logits, 0)

    def test_from_table_matches_probs(self):
        table = NeighborTable(
            k=3, ids=np.array([[1, 2, 3]]), sims=np.array([[0.9, 0.5, 0.1]]),
            probs=np.array([[0.6, 0.3, 0.1]]), tau=1.0, flagged=frozenset(),
        )
        logits = GumbelLogits.from_table(table)
        np.testing.assert_allclose(np.exp(logits.log_alpha), table.probs, atol=1e-12)


class TestGumbelBackward:
    def test_matches_finite_differences(self, rng):
        # soft = softmax((log_alpha + g) / tau); check d(loss)/d(log_alpha)
        tau = 0.5
        k = 5
        log_alpha = rng.normal(size=k)
        g = rng.gumbel(size=k)
        grad_soft = rng.normal(size=k)

        def soft_of(la):
            z = (la + g) / tau
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        analytic = gumbel_backward(soft_of(log_alpha), grad_soft, tau)
        eps = 1e-6
        for j in range(k):
            bump = np.zeros(k)
            bump[j] = eps
            plus = float(np.dot(grad_soft, soft_of(log_alpha + bump)))
            minus = float(np.dot(grad_soft, soft_of(log_alpha - bump)))
            fd = (plus - minus) / (2 * eps)
            assert abs(fd - analytic[j]) < 1e-4 * max(1.0, abs(fd))


class TestGumbelUpdate:
    def test_zero_grad_scales(self):
        logits = GumbelLogits(np.array([[2.0, -2.0]]), beta=0.9)
        out = gumbel_update(logits, np.zeros((1, 2)), {0})
        np.testing.assert_allclose(out.log_alpha, [[1.8, -1.8]])

    def test_beta_one_noop(self):
        logits = GumbelLogits(np.array([[2.0, -2.0]]), beta=1.0)
        out = gumbel_update(logits, np.ones((1, 2)), {0})
        np.testing.assert_array_equal(out.log_alpha, logits.log_alpha)

    def test_hand_value(self):
        logits = GumbelLogits(np.zeros((1, 2)), beta=0.9)
        out = gumbel_update(logits, np.array([[1.0, -1.0]]), {0})
        np.testing.assert_allclose(out.log_alpha, [[-0.1, 0.1]])

    def test_rows_restriction(self):
        logits = GumbelLogits(np.ones((3, 2)), beta=0.5)
        grad = np.full((3, 2), 2.0)
        out = gumbel_update(logits, grad, {1})
        np.testing.assert_array_equal(out.log_alpha[0], [1.0, 1.0])
        np.testing.assert_allclose(out.log_alpha[1], [-0.5, -0.5])
        np.testing.assert_array_equal(out.log_alpha[2], [1.0, 1.0])

    def test_shape_mismatch(self):
        logits = GumbelLogits(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gumbel_update(logits, np.zeros((3, 2)), {0})
