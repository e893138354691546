"""LSTM language model: forward, loss, BPTT gradients, SGD."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnrslab import model as model_mod
from nnrslab.model import (
    ForwardCache,
    LstmLm,
    backward,
    cosine_lr,
    forward_cached,
    forward_segment,
    greedy_or_sample_predict,
    loss_from_cache,
    sgd_step,
    step,
    step_logits,
)
from synth import (
    assert_like_step,
    assert_views_of_flat,
    finite_difference_grads,
    max_rel_error,
    per_key_sgd_step,
    reference_backward,
    sum_of_squares_norm,
)


def _small_model(rng, vocab=6, dim=3, hidden=4):
    return LstmLm.init(vocab, dim, hidden, rng)


class TestInit:
    def test_shapes_and_forget_bias(self, rng):
        model = LstmLm.init(7, 3, 5, rng)
        p = model.params
        assert p["embed"].shape == (7, 3)
        assert p["lstm1_Wx"].shape == (3, 20) and p["lstm2_Wx"].shape == (5, 20)
        assert p["W_out"].shape == (5, 7) and p["b_out"].shape == (7,)
        for key in ("lstm1_b", "lstm2_b"):
            np.testing.assert_array_equal(p[key][5:10], 1.0)
            np.testing.assert_array_equal(p[key][:5], 0.0)

    def test_bounds(self, rng):
        model = LstmLm.init(10, 4, 16, rng)
        s = 1.0 / 4.0
        for key in ("embed", "lstm1_Wx", "W_out"):
            assert np.abs(model.params[key]).max() <= s

    def test_pretrained_embed(self, rng):
        vecs = rng.normal(size=(5, 3))
        model = LstmLm.init(5, 3, 4, rng, embed=vecs)
        np.testing.assert_array_equal(model.params["embed"], vecs)
        with pytest.raises(ValueError):
            LstmLm.init(5, 3, 4, rng, embed=np.zeros((4, 3)))

    def test_same_seed_same_params(self):
        a = LstmLm.init(6, 3, 4, np.random.default_rng(5))
        b = LstmLm.init(6, 3, 4, np.random.default_rng(5))
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])


def _probs(model, ids, init_state=None):
    """exp of forward_cached's log-probs (T, B, |V|), and the final state."""
    cache = forward_cached(model, ids, init_state)
    return np.exp(cache.log_probs), cache.final_state


class TestForward:
    def test_distributions_normalized(self, rng):
        model = _small_model(rng)
        probs, _ = _probs(model, np.array([[0, 1, 2, 3]]))
        assert probs.shape == (4, 1, 6)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-9)

    def test_zero_model_uniform(self):
        model = LstmLm.zeros(8, 3, 4)
        probs, _ = _probs(model, np.array([[0, 1, 2]]))
        np.testing.assert_allclose(probs, 1.0 / 8.0, atol=1e-12)

    def test_deterministic(self, rng):
        model = _small_model(rng)
        ids = np.array([[1, 2, 3], [4, 5, 0]])
        a, _ = _probs(model, ids)
        b, _ = _probs(model, ids)
        np.testing.assert_array_equal(a, b)

    def test_id_out_of_range(self, rng):
        model = _small_model(rng)
        with pytest.raises(ValueError, match="out of range"):
            forward_cached(model, np.array([[0, 99]]))
        with pytest.raises(ValueError, match="out of range"):
            forward_cached(model, np.array([[0, -1]]))

    def test_float_inputs_refused(self, rng):
        # token ids are the only input: vectors and float-typed ids are refused
        model = _small_model(rng)
        state = model.zero_state(2)
        for bad in (rng.normal(size=(2, 3)), np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match="token ids"):
                step(model, bad, state)
        for bad in (rng.normal(size=(2, 4)), np.array([[1.0, 2.0], [3.0, 0.0]])):
            with pytest.raises(ValueError, match="token ids"):
                forward_cached(model, bad)
        with pytest.raises(ValueError):
            forward_cached(model, np.array([1, 2, 3]))  # one sequence is (1, T), not (T,)

    def test_state_carries(self, rng):
        model = _small_model(rng)
        ids = np.array([[1, 2, 3, 4]])
        whole, _ = _probs(model, ids)
        first, state = _probs(model, ids[:, :2])
        second, _ = _probs(model, ids[:, 2:], init_state=state)
        np.testing.assert_allclose(np.concatenate([first, second]), whole, atol=1e-12)


class TestLoss:
    def test_uniform_bound(self):
        model = LstmLm.zeros(10, 3, 4)
        targets = np.array([[0, 5, 9]])
        cache = forward_cached(model, np.array([[1, 2, 3]]))
        assert loss_from_cache(cache, targets) == pytest.approx(np.log(10))

    def test_batched_matches_cache(self, rng):
        model = _small_model(rng)
        inputs = rng.integers(0, 6, size=(3, 5))
        targets = rng.integers(0, 6, size=(3, 5))
        cache = forward_cached(model, inputs)
        probs = np.exp(cache.log_probs)  # (T, B, |V|)
        picked = [probs[t, b, targets[b, t]] for b in range(3) for t in range(5)]
        assert loss_from_cache(cache, targets) == pytest.approx(-np.log(picked).mean())


class TestBackward:
    def test_finite_differences_single_instance(self, rng):
        model = _small_model(rng, vocab=6, dim=3, hidden=4)
        inputs = rng.integers(0, 6, size=(2, 4))
        targets = rng.integers(0, 6, size=(2, 4))
        cache = forward_cached(model, inputs)
        analytic = backward(model, cache, targets)
        fd = finite_difference_grads(model, inputs, targets)
        assert max_rel_error(analytic, fd) < 1e-4

    def test_untouched_embedding_row_zero_grad(self, rng):
        model = _small_model(rng)
        inputs = np.array([[0, 1, 0, 1]])
        targets = np.array([[1, 0, 1, 0]])
        cache = forward_cached(model, inputs)
        grads = backward(model, cache, targets)
        np.testing.assert_array_equal(grads["embed"][3], 0.0)
        np.testing.assert_array_equal(grads["embed"][5], 0.0)
        assert np.any(grads["embed"][0] != 0.0)

    def test_duplicated_batch_same_mean_grads(self, rng):
        # the loss is a mean, so replicating every sequence changes nothing
        model = _small_model(rng)
        one = rng.integers(0, 6, size=(1, 5))
        tgt = rng.integers(0, 6, size=(1, 5))
        g1 = backward(model, forward_cached(model, one), tgt)
        two = np.repeat(one, 2, axis=0)
        g2 = backward(model, forward_cached(model, two), np.repeat(tgt, 2, axis=0))
        for key in g1:
            np.testing.assert_allclose(g2[key], g1[key], atol=1e-12)

    def test_input_grads_shape(self, rng):
        model = _small_model(rng)
        inputs = rng.integers(0, 6, size=(2, 3))
        cache = forward_cached(model, inputs)
        backward(model, cache, rng.integers(0, 6, size=(2, 3)))
        assert cache.input_grads.shape == (3, 2, 3)

    def test_input_grads_match_finite_differences(self, rng):
        # input_grads is dL/dx per (t, b), which the GSNS straight-through
        # update reads. Every id of the window is distinct, so perturbing
        # an id's embed row perturbs exactly one input vector.
        model = _small_model(rng, vocab=10)
        inputs = rng.permutation(10)[:8].reshape(2, 4)
        targets = rng.integers(0, 10, size=(2, 4))
        cache = forward_cached(model, inputs)
        grads = backward(model, cache, targets)
        embed = model.params["embed"]
        h = 1e-5
        fd = np.zeros((4, 2, 3))
        for (b, t), word in np.ndenumerate(inputs):
            np.testing.assert_array_equal(grads["embed"][word], cache.input_grads[t, b])
            for j in range(3):
                orig = embed[word, j]
                embed[word, j] = orig + h
                plus = loss_from_cache(forward_cached(model, inputs), targets)
                embed[word, j] = orig - h
                minus = loss_from_cache(forward_cached(model, inputs), targets)
                embed[word, j] = orig
                fd[t, b, j] = (plus - minus) / (2.0 * h)
        assert max_rel_error({"x": cache.input_grads}, {"x": fd}) < 1e-4

    def test_leaves_forward_cached_log_probs(self, rng):
        # forward_cached's log_probs are the cache's own array, outside the
        # buffer backward runs in; |V| = 30 > 6H, so the buffer holds the
        # output block
        model = _small_model(rng, vocab=30)
        inputs = rng.integers(0, 30, size=(3, 5))
        targets = rng.integers(0, 30, size=(3, 5))
        cache = forward_cached(model, inputs)
        before = cache.log_probs.copy()
        loss = loss_from_cache(cache, targets)
        backward(model, cache, targets)
        assert not np.shares_memory(cache.log_probs, cache.buffer)
        assert cache.log_probs.tobytes() == before.tobytes()
        assert loss_from_cache(cache, targets) == loss == cache.nll

    def test_cells_only_cache_refused(self, rng):
        # no log-probs, and its gates, tanh(c) and c hold only the last step
        model = _small_model(rng)
        ids = rng.integers(0, 6, size=(2, 5))
        cache = ForwardCache.window(model, model.zero_state(2), ids.T)
        forward_segment(model, cache, 0, 5)
        with pytest.raises(ValueError, match="cells-only"):
            backward(model, cache, ids)

    def test_finite_differences_batch_with_repeated_ids(self, rng):
        # B=3, T=5: rows are stacked in (t, b) order, and a token
        # repeated within a timestep scatters twice into one embed row
        model = _small_model(rng, vocab=6, dim=3, hidden=4)
        inputs = rng.integers(0, 6, size=(3, 5))
        inputs[:, 2] = [4, 1, 4]
        inputs[:, 4] = 5
        targets = rng.integers(0, 6, size=(3, 5))
        cache = forward_cached(model, inputs)
        analytic = backward(model, cache, targets)
        fd = finite_difference_grads(model, inputs, targets)
        assert max_rel_error(analytic, fd) < 1e-4


def _segmented(model, ids, state, cuts, feed=False):
    """The training forward: a training cache run by one forward_segment
    call per run of steps between cuts. With feed, a cut step's ids are
    first set to the greedy choice from step_logits of the step
    before, as SS feedback does. The window's log_probs, which
    loss_from_cache reads, are then one output layer over every step,
    as forward_cached's are."""
    cache = ForwardCache.window(model, state, ids, train=True)
    starts = [0] + sorted(cuts)
    for lo, hi in zip(starts, starts[1:] + [ids.shape[0]]):
        if feed and lo:
            cache.ids[lo] = greedy_or_sample_predict(step_logits(model, cache, lo - 1))
        forward_segment(model, cache, lo, hi)
    top = cache.h[1][1:].reshape(ids.size, model.hidden)
    log_probs = model_mod._output_layer(model, top, np.empty((ids.size, model.vocab_size)))
    cache.log_probs = log_probs.reshape(ids.shape + (model.vocab_size,))
    return cache


def _random_state(rng, batch, hidden):
    return [(0.5 * rng.normal(size=(batch, hidden)), 0.5 * rng.normal(size=(batch, hidden)))
            for _ in range(2)]


@st.composite
def segmented_windows(draw):
    width = draw(st.integers(1, 12))
    cuts = draw(st.sets(st.integers(1, width - 1))) if width > 1 else set()
    return dict(batch=draw(st.integers(1, 4)), width=width, cuts=cuts,
                hidden=draw(st.sampled_from([1, 3, 8])),
                vocab=draw(st.sampled_from([2, 7, 24])), dim=draw(st.sampled_from([1, 4])),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestSegmentedForward:
    @settings(max_examples=120, deadline=None)
    @given(segmented_windows())
    def test_equals_step_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        batch, width = case["batch"], case["width"]
        model = LstmLm.init(case["vocab"], case["dim"], case["hidden"], rng)
        state = _random_state(rng, batch, case["hidden"])
        ids = rng.integers(0, case["vocab"], size=(width, batch))
        targets = rng.integers(0, case["vocab"], size=(batch, width))
        window = _segmented(model, ids, state, case["cuts"], feed=True)

        steps, ref_state = [], state
        for t in range(width):
            _lp, ref_state, one = step(model, window.ids[t], ref_state)
            steps.append(one)
        ref = ForwardCache(steps, ref_state, batch)

        same = assert_like_step(batch)
        for t in case["cuts"]:  # each cut read the previous segment's last rows
            np.testing.assert_array_equal(window.ids[t], ref.log_probs[t - 1].argmax(axis=1))
        same(window.log_probs, ref.log_probs)
        for (h, c), (ref_h, ref_c) in zip(window.final_state, ref.final_state):
            same(h, ref_h)
            same(c, ref_c)
        same(loss_from_cache(window, targets), loss_from_cache(ref, targets))
        grads = backward(model, window, targets)
        ref_grads = backward(model, ref, targets)
        for key in model.params:
            same(grads[key], ref_grads[key])
        same(window.input_grads, ref.input_grads)

    def test_gradcheck_segmented_batch(self, rng):
        # B=3, T=7 cut into [0, 2), [2, 3), [3, 6), [6, 7), nonzero initial state
        model = _small_model(rng, vocab=6, dim=3, hidden=4)
        ids = rng.integers(0, 6, size=(7, 3))
        targets = rng.integers(0, 6, size=(3, 7))
        state = _random_state(rng, 3, 4)
        cuts = {2, 3, 6}
        analytic = backward(model, _segmented(model, ids, state, cuts), targets)
        fd = {}
        h = 1e-5
        for key, arr in model.params.items():
            flat = arr.ravel()
            out = np.zeros_like(flat)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                plus = loss_from_cache(_segmented(model, ids, state, cuts), targets)
                flat[idx] = orig - h
                minus = loss_from_cache(_segmented(model, ids, state, cuts), targets)
                flat[idx] = orig
                out[idx] = (plus - minus) / (2.0 * h)
            fd[key] = out.reshape(arr.shape)
        assert max_rel_error(analytic, fd) < 1e-4

    def test_memory_training_window(self):
        # desk shape: a training cache's input projections run in its idle
        # buffer, so forward_segment over the whole window makes no
        # (T*B, 4H) array (2.29 MB), only the embedding gather (0.29 MB)
        rng = np.random.default_rng(9)
        model = LstmLm.init(2000, 64, 128, rng)
        state = model.zero_state(16)
        cache = ForwardCache.window(model, state, rng.integers(0, 2000, size=(35, 16)),
                                    train=True)
        tracemalloc.start()
        try:
            forward_segment(model, cache, 0, 35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35 * 16 * 4 * 128 * 8


@st.composite
def workspace_windows(draw):
    width = draw(st.integers(1, 12))
    return dict(batch=draw(st.integers(1, 4)), width=width,
                ws_width=width + draw(st.sampled_from([0, 1, 5])),
                cuts=draw(st.sets(st.integers(1, width - 1))) if width > 1 else set(),
                hidden=draw(st.sampled_from([1, 3, 8])),
                vocab=draw(st.sampled_from([2, 7, 24, 60])), dim=draw(st.sampled_from([1, 4])),
                block=draw(st.sampled_from([2, 3, 5, 128])), train=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestBackwardInWindowBuffer:
    @settings(max_examples=100, deadline=None)
    @given(workspace_windows())
    def test_equals_reference_bit_for_bit(self, case):
        # |V| 2 lies below every 6H drawn and 60 above, so the buffer is
        # sized by either; backward's output blocks of 2, 3 or 5 rows give
        # windows of one block, of several and with a one-row tail. The
        # training window runs in views of a workspace whose whole buffer
        # backward has used once already, and the gradients land in the
        # FlatParams that window wrote; the workspace is a training window
        # or a forward_cached cache, whose log_probs the window does not take
        rng = np.random.default_rng(case["seed"])
        batch, width, vocab = case["batch"], case["width"], case["vocab"]
        model = LstmLm.init(vocab, case["dim"], case["hidden"], rng)
        with mock.patch.object(model_mod, "_BACKWARD_ROWS", case["block"]):
            ws_state = _random_state(rng, batch, case["hidden"])
            ws_ids = rng.integers(0, vocab, size=(case["ws_width"], batch))
            if case["train"]:
                workspace = ForwardCache.window(model, ws_state, ws_ids, train=True)
                forward_segment(model, workspace, 0, case["ws_width"])
            else:
                workspace = forward_cached(model, ws_ids.T, ws_state)
            grads = backward(model, workspace,
                             rng.integers(0, vocab, size=(batch, case["ws_width"])))

            state = _random_state(rng, batch, case["hidden"])
            ids = rng.integers(0, vocab, size=(width, batch))
            targets = rng.integers(0, vocab, size=(batch, width))
            cache = ForwardCache.window(model, state, ids, workspace=workspace, train=True)
            starts = [0] + sorted(case["cuts"])
            for lo, hi in zip(starts, starts[1:] + [width]):
                forward_segment(model, cache, lo, hi)
            assert np.shares_memory(cache.buffer, workspace.buffer)
            assert cache.log_probs is None
            ref, ref_input_grads, ref_nll = reference_backward(model, cache, targets)
            assert backward(model, cache, targets, out=grads) is grads
        for key in model.params:
            assert grads[key].tobytes() == ref[key].tobytes(), key
        assert cache.input_grads.tobytes() == ref_input_grads.tobytes()
        assert cache.nll == ref_nll

        # the GSNS straight-through read comes after backward, so the input
        # gradients must not live in the buffer backward reused
        assert not np.shares_memory(cache.input_grads, workspace.buffer)
        swapped = sorted(rng.choice(width, size=rng.integers(1, width + 1), replace=False))
        words = ids[swapped].reshape(-1)
        embed_rows = model.params["embed"][words][:, None, :]
        slot = embed_rows @ cache.input_grads[swapped].reshape(-1, model.dim, 1)
        ref_slot = embed_rows @ ref_input_grads[swapped].reshape(-1, model.dim, 1)
        assert slot.tobytes() == ref_slot.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 3), width=st.integers(1, 14), block=st.sampled_from([2, 3, 4]),
           hidden=st.sampled_from([1, 2]), vocab=st.sampled_from([3, 30]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(batch=1, width=1, block=2, hidden=1, vocab=3, seed=1)  # one row
    @example(batch=1, width=4, block=3, hidden=1, vocab=30, seed=2)  # at block + H: one block
    @example(batch=1, width=5, block=3, hidden=1, vocab=30, seed=3)  # one past it
    @example(batch=1, width=7, block=3, hidden=2, vocab=3, seed=4)  # a one-row tail block
    @example(batch=2, width=4, block=4, hidden=1, vocab=3, seed=5)  # ends at a block edge
    def test_nll_equals_loss_from_cache(self, batch, width, block, hidden, vocab, seed):
        # backward's NLL, from its blocks of a training cache, against the
        # whole-window log-probs of forward_cached; 6H is 6 or 12, so |V|
        # lies on either side of it
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 2, hidden, rng)
        state = _random_state(rng, batch, hidden)
        ids = rng.integers(0, vocab, size=(batch, width))
        targets = rng.integers(0, vocab, size=(batch, width))
        with mock.patch.object(model_mod, "_BACKWARD_ROWS", block):
            cache = ForwardCache.window(model, state, ids.T, train=True)
            forward_segment(model, cache, 0, width)
            grads = backward(model, cache, targets)
            whole = forward_cached(model, ids, state)
            expected = loss_from_cache(whole, targets)
            whole_grads = backward(model, whole, targets)
        assert cache.nll == expected
        assert whole.nll == expected
        assert grads.flat.tobytes() == whole_grads.flat.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 3), width=st.integers(1, 6), hidden=st.sampled_from([3, 8]),
           vocab=st.sampled_from([5, 60]), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_logits_equal_whole_window_rows(self, batch, width, hidden, vocab, seed):
        # the logit rows scheduled sampling feeds back from a training
        # cache, against one logit product over every top-layer row the
        # cache holds (the initial state's too, so it has two rows or
        # more); at B = 1 each step runs with the row before it, so no
        # product has one
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 4, hidden, rng)
        state = _random_state(rng, batch, hidden)
        ids = rng.integers(0, vocab, size=(width, batch))
        cache = ForwardCache.window(model, state, ids, train=True)
        forward_segment(model, cache, 0, width)
        whole = cache.h[1].reshape(-1, hidden) @ model.params["W_out"] + model.params["b_out"]
        for t in range(width):
            rows = whole[(t + 1) * batch:(t + 2) * batch]
            assert step_logits(model, cache, t).tobytes() == rows.tobytes()

    def test_memory_backward_and_sgd_step(self):
        # desk shape, the gradient buffer reused on a second window: the
        # output blocks, their exps, the W_out term and the reverse
        # recurrence all run in the cache's buffer, so backward's peak is
        # its (T*B, H) products and W_h^T, about 1.19 MB, where a
        # log-softmax exp block added 0.3 MB, per-window gate factors took
        # about 8.7 MB and numpy's iterator buffers for the reverse loop's
        # strided per-step products 0.13 MB; sgd_step sums squares through
        # one 64 KB leaf, where one key's squares took 2.05 MB (W_out) and a
        # parameter-sized scratch and a finiteness mask about 4.9 MB
        rng = np.random.default_rng(9)
        model = LstmLm.init(2000, 64, 128, rng)
        ids = rng.integers(0, 2000, size=(16, 35))
        targets = rng.integers(0, 2000, size=(16, 35))
        grads = backward(model, forward_cached(model, ids), targets)
        cache = forward_cached(model, ids)
        tracemalloc.start()
        try:
            backward(model, cache, targets, out=grads)
            backward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sgd_step(model, grads, lr=0.5, clip=5.0)
            sgd_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert backward_peak < 1.26e6
        assert sgd_peak < 256 * 1024

    def test_memory_backward_recomputes_tanh_and_inputs(self):
        # a training cache keeps one step of tanh(c) and no embedded inputs;
        # backward recomputes both and writes layer 1's dL/dh over the
        # output layer's, so its peak is one (T*B, H) array (0.57 MB) and
        # W_h^T, plus numpy's ufunc buffers (two of 8192 doubles) and
        # per-step and per-row scraps, about 140 KB (149 KB when the reverse
        # loop's per-step products also took iterator buffers); a second
        # (T*B, H) array exceeds it
        rng = np.random.default_rng(9)
        vocab, dim, hidden, batch, width = 500, 16, 32, 32, 70
        model = LstmLm.init(vocab, dim, hidden, rng)
        ids = rng.integers(0, vocab, size=(width, batch))
        targets = rng.integers(0, vocab, size=(batch, width))
        cache = ForwardCache.window(model, model.zero_state(batch), ids, train=True)
        forward_segment(model, cache, 0, width)
        grads = backward(model, cache, targets)
        cache = ForwardCache.window(model, model.zero_state(batch), ids, workspace=cache,
                                    train=True)
        forward_segment(model, cache, 0, width)
        assert not hasattr(cache, "x")
        for tc in cache.tc:
            assert tc.shape == (width, batch, hidden) and tc.strides[0] == 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(model, cache, targets, out=grads)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * (width * batch * hidden + 4 * hidden * hidden) + 240 * 1024


@settings(max_examples=200, deadline=None)
@given(t_len=st.integers(1, 9), batch=st.integers(1, 6), hidden=st.integers(1, 41),
       scales=st.lists(st.sampled_from([5e-324, 1e-300, 1e-9, 1e-3, 1.0, 4.0, 19.0, 40.0, 1e300]),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tanh_of_a_stacked_block_equals_per_step_calls(t_len, batch, hidden, scales, seed):
    # backward recomputes every step's tanh(c) in one call over the stacked
    # cell states, where the forward pass took it one (B, H) step at a
    # time; the recompute keeps the forward bits only if numpy's tanh gives
    # each element the same bits whatever the block's size and its offset
    # in it. Values run from subnormal to saturated, both signs
    rng = np.random.default_rng(seed)
    shape = (t_len + 1, batch, hidden)
    c = rng.choice(scales, size=shape) * rng.uniform(0.5, 2.0, shape)
    c *= rng.choice([-1.0, 1.0], size=shape)
    n = t_len * batch * hidden  # into the dc/dh slot of backward's scratch, as backward does
    stacked = np.tanh(c[1:], out=np.empty(6 * n)[4 * n:5 * n].reshape(t_len, batch, hidden))
    step_out = np.empty((batch, hidden))
    for t in range(t_len):
        np.tanh(c[t + 1], out=step_out)
        assert step_out.tobytes() == stacked[t].tobytes(), t


class TestSgdStep:
    def test_zero_grads_noop(self, rng):
        model = _small_model(rng)
        before = {k: v.copy() for k, v in model.params.items()}
        sgd_step(model, model.params.like(), lr=0.5, clip=5.0)
        for key in before:
            np.testing.assert_array_equal(model.params[key], before[key])

    def test_plain_update(self):
        model = LstmLm.zeros(2, 1, 1)
        model.params["b_out"][:] = 1.0
        grads = model.params.like()
        grads["b_out"][:] = 2.0
        sgd_step(model, grads, lr=0.1, clip=0.0)
        np.testing.assert_allclose(model.params["b_out"], 0.8)

    def test_clip_scales_global_norm(self, rng):
        model = _small_model(rng)
        before = {k: v.copy() for k, v in model.params.items()}
        grads = model.params.like()
        grads.flat[:] = rng.normal(size=grads.flat.size)
        assert sum_of_squares_norm(grads) > 5.0
        lr = 0.3
        sgd_step(model, grads, lr=lr, clip=5.0)
        delta = {k: before[k] - model.params[k] for k in before}
        assert sum_of_squares_norm(delta) == pytest.approx(5.0 * lr, abs=1e-9)

    def test_non_finite_aborts_untouched(self, rng):
        model = _small_model(rng)
        before = {k: v.copy() for k, v in model.params.items()}
        grads = model.params.like()
        grads["W_out"][0, 0] = np.nan
        with pytest.raises(ValueError, match="'W_out'"):
            sgd_step(model, grads, lr=0.1, clip=5.0)
        for key in before:
            np.testing.assert_array_equal(model.params[key], before[key])

    def test_momentum_accumulates(self):
        model = LstmLm.zeros(2, 1, 1)
        velocity = model.params.like()
        for _ in range(2):  # sgd_step consumes its grads, so each step gets fresh ones
            grads = model.params.like()
            grads["b_out"][:] = 1.0
            sgd_step(model, grads, lr=1.0, clip=0.0, momentum=0.5, velocity=velocity)
        # steps: v=1 then v=1.5 -> total displacement 2.5
        np.testing.assert_allclose(model.params["b_out"], -2.5)

    def test_momentum_needs_velocity(self, rng):
        model = _small_model(rng)
        with pytest.raises(ValueError, match="velocity"):
            sgd_step(model, model.params.like(), lr=0.1, clip=1.0, momentum=0.5)

    @pytest.mark.parametrize("momentum", [0.0, 0.3])
    def test_overflowing_squares_scale_to_zero(self, rng, momentum):
        # finite gradients whose squares overflow: the norm is infinite, so
        # the clip scale is 0 and only the momentum term moves, with no error
        model = _small_model(rng)
        ref = LstmLm.zeros(model.vocab_size, model.dim, model.hidden)
        ref.params.flat[:] = model.params.flat
        before = model.params.flat.copy()
        velocity, ref_velocity = model.params.like(), model.params.like()
        velocity.flat[:] = ref_velocity.flat[:] = rng.normal(size=velocity.flat.size)
        grads = model.params.like()
        grads.flat[:] = rng.normal(size=grads.flat.size)
        grads["W_out"][0, 0] = 1e200
        per_key = {k: v.copy() for k, v in grads.items()}
        with np.errstate(over="ignore"):
            assert np.isfinite(grads.flat).all() and sum_of_squares_norm(grads) == np.inf
            sgd_step(model, grads, 0.7, 5.0, momentum, velocity)
            per_key_sgd_step(ref, per_key, 0.7, 5.0, momentum, ref_velocity)
        assert model.params.flat.tobytes() == ref.params.flat.tobytes()
        assert velocity.flat.tobytes() == ref_velocity.flat.tobytes()
        if not momentum:
            assert model.params.flat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("clip", [0.0, 5.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_aborts_at_any_clip(self, rng, clip, bad):
        # the scan runs when the norm is not taken (clip 0) or not finite
        model = _small_model(rng)
        before = model.params.flat.copy()
        velocity = model.params.like()
        grads = model.params.like()
        grads.flat[:] = rng.normal(size=grads.flat.size)
        grads["lstm2_Wh"][1, 2] = bad
        grads["W_out"][0, 0] = bad
        with pytest.raises(ValueError, match="'lstm2_Wh'"):
            sgd_step(model, grads, lr=0.1, clip=clip, momentum=0.3, velocity=velocity)
        assert model.params.flat.tobytes() == before.tobytes()
        assert not velocity.flat.any()

    def test_lr_positive(self, rng):
        model = _small_model(rng)
        with pytest.raises(ValueError):
            sgd_step(model, model.params.like(), lr=0.0, clip=1.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), grad_scale=st.sampled_from([1e-3, 1.0, 30.0]),
           clip=st.sampled_from([0.0, 1.0, 5.0]), momentum=st.sampled_from([0.0, 0.3]),
           shape=st.tuples(st.integers(2, 39), st.integers(1, 5), st.integers(1, 8)))
    # W_out of 34993 and embed of 14997 elements: sums of squares split
    # over leaves of at most 8192, in two levels and in one
    @example(seed=11, grad_scale=30.0, clip=5.0, momentum=0.3, shape=(4999, 3, 7))
    def test_flat_equals_per_key_rule(self, seed, grad_scale, clip, momentum, shape):
        # the flat update and clip norm have the bits of the per-key rule;
        # the clip is inactive at grad_scale 1e-3 and active at 30
        rng = np.random.default_rng(seed)
        model = LstmLm.init(*shape, rng)
        ref = LstmLm.zeros(model.vocab_size, model.dim, model.hidden)
        ref.params.flat[:] = model.params.flat
        velocity, ref_velocity = model.params.like(), model.params.like()
        for _ in range(3):
            grads = model.params.like()
            grads.flat[:] = grad_scale * rng.normal(size=grads.flat.size)
            per_key = {k: v.copy() for k, v in grads.items()}
            sgd_step(model, grads, 0.7, clip, momentum, velocity)
            per_key_sgd_step(ref, per_key, 0.7, clip, momentum, ref_velocity)
            assert model.params.flat.tobytes() == ref.params.flat.tobytes()
            assert velocity.flat.tobytes() == ref_velocity.flat.tobytes()

    @pytest.mark.parametrize("vocab", [4096, 4097, 4100, 8193, 12289, 20001, 61729])
    def test_returns_the_norm_of_the_per_key_rule(self, rng, vocab):
        # W_out of 2 |V| elements: one leaf of 8192, one just past it, and
        # splits of one to four levels, some where n // 2 is rounded down to
        # a multiple of 8; the norm has the bits of per-key (g * g).sum()
        model = LstmLm.zeros(vocab, 1, 2)
        grads = model.params.like()
        grads.flat[:] = rng.normal(size=grads.flat.size) * rng.choice([1e-3, 1.0, 30.0])
        expected = sum_of_squares_norm(grads)
        assert sgd_step(model, grads, lr=0.1, clip=5.0) == expected
        assert math.isnan(sgd_step(model, model.params.like(), lr=0.1, clip=0.0))


class TestFlatParams:
    def test_views_of_one_vector_in_key_order(self, rng):
        model = _small_model(rng)
        assert list(model.params) == ["embed", "lstm1_Wx", "lstm1_Wh", "lstm1_b", "lstm2_Wx",
                                      "lstm2_Wh", "lstm2_b", "W_out", "b_out"]
        for params in (model.params, model.params.like(), LstmLm.zeros(5, 2, 3).params):
            assert_views_of_flat(params)
        cache = forward_cached(model, rng.integers(0, 6, size=(2, 3)))
        assert_views_of_flat(backward(model, cache, rng.integers(0, 6, size=(2, 3))))

    def test_assignment_copies_into_the_view(self, rng):
        model = _small_model(rng)
        view = model.params["W_out"]
        model.params["W_out"] = np.ones((4, 6))
        lo, hi = model.params.spans[-2]
        assert model.params["W_out"] is view and (model.params.flat[lo:hi] == 1.0).all()
        with pytest.raises(ValueError, match=r"W_out has shape \(6,\), not \(4, 6\)"):
            model.params["W_out"] = np.ones(6)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(2.0, 0, 10) == pytest.approx(2.0)
        assert cosine_lr(2.0, 10, 10) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(2.0, 5, 10) == pytest.approx(1.0)

    def test_total_bound(self):
        with pytest.raises(ValueError):
            cosine_lr(1.0, 0, 0)


class TestPredict:
    """greedy_or_sample_predict, the one rule for the token the model picks:
    fed back at a Prediction step and emitted by the greedy decoder."""

    def test_one_hot_both_modes(self, rng):
        log_probs = np.full((1, 5), -np.inf)
        log_probs[0, 3] = 0.0
        for sample in (False, True):
            got = greedy_or_sample_predict(log_probs, sample=sample, rng=rng)
            np.testing.assert_array_equal(got, [3])
            assert got.dtype == np.int64

    def test_uniform_tie_rule(self):
        got = greedy_or_sample_predict(np.log(np.full((2, 4), 0.25)))
        np.testing.assert_array_equal(got, [0, 0])

    def test_sampling_frequencies(self, rng):
        log_probs = np.log(np.tile([0.7, 0.3], (100_000, 1)))
        draws = greedy_or_sample_predict(log_probs, sample=True, rng=rng)
        assert abs(np.mean(draws == 0) - 0.7) < 0.01

    def test_logit_rows_need_not_be_normalized(self, rng):
        # a row shifted by a constant is the same distribution; exp of
        # these logits overflows unless the row max is taken off first
        logits = np.tile([np.log(0.7) + 1000.0, np.log(0.3) + 1000.0], (100_000, 1))
        draws = greedy_or_sample_predict(logits, sample=True, rng=rng)
        assert abs(np.mean(draws == 0) - 0.7) < 0.01
        np.testing.assert_array_equal(greedy_or_sample_predict(logits[:2] - 2000.0), [0, 0])

    def test_sampling_needs_rng(self):
        with pytest.raises(ValueError):
            greedy_or_sample_predict(np.zeros((1, 1)), sample=True)

    def test_greedy_matches_argmax_of_probs(self, rng):
        model = LstmLm.init(50, 4, 6, rng)
        log_probs, _, _ = step(model, rng.integers(0, 50, size=64), model.zero_state(64))
        got = greedy_or_sample_predict(log_probs)
        np.testing.assert_array_equal(got, np.exp(log_probs).argmax(axis=1))
        assert got.dtype == np.int64

    def test_greedy_ties_pick_lower_id(self):
        log_probs = np.log(np.array([
            [0.1, 0.4, 0.1, 0.4],
            [0.25, 0.25, 0.25, 0.25],
            [0.1, 0.1, 0.4, 0.4],
        ]))
        got = greedy_or_sample_predict(log_probs)
        np.testing.assert_array_equal(got, [1, 0, 2])
        np.testing.assert_array_equal(got, np.exp(log_probs).argmax(axis=1))
        zero = LstmLm.zeros(9, 2, 3)
        uniform, _, _ = step(zero, np.arange(4), zero.zero_state(4))
        np.testing.assert_array_equal(greedy_or_sample_predict(uniform), 0)

    def test_sampling_draws_from_probs(self):
        log_probs = np.log(np.array([[1e-12, 1.0, 1e-12], [1e-12, 1e-12, 1.0]]))
        got = greedy_or_sample_predict(log_probs, True, np.random.default_rng(0))
        np.testing.assert_array_equal(got, [1, 2])


class TestOverfitSanity:
    def test_memorizes_five_sentences(self, rng):
        # 200 SGD steps on one tiny batch must push train perplexity < 1.5
        sentences = "the cat sat . a dog ran . birds fly high . fish swim deep . suns set late ."
        words = sentences.split()
        vocab = sorted(set(words))
        ids = np.array([vocab.index(w) for w in words], dtype=np.int64)
        inputs = ids[:-1][None, :]
        targets = ids[1:][None, :]
        model = LstmLm.init(len(vocab), 8, 24, rng)
        nll = None
        for _ in range(200):
            cache = forward_cached(model, inputs)
            nll = loss_from_cache(cache, targets)
            grads = backward(model, cache, targets)
            sgd_step(model, grads, lr=3.0, clip=5.0)
        assert np.exp(nll) < 1.5

    def test_step_outputs_stay_normalized(self, rng):
        model = _small_model(rng)
        state = model.zero_state(2)
        for t in range(4):
            log_probs, state, _ = step(model, np.array([t % 6, (t + 1) % 6]), state)
            np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), 1.0, atol=1e-9)
