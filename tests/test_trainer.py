"""Training loop: config parsing, batching, validation, checkpoints, runs."""

import csv
import math
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnrslab.model as model_mod
import nnrslab.trainer as trainer_mod
from nnrslab.arrayio import load_arrays, save_arrays
from nnrslab.embeddings import EmbeddingMatrix
from nnrslab.model import (
    ForwardCache,
    LstmLm,
    backward,
    forward_cached,
    greedy_or_sample_predict,
    loss_from_cache,
    sgd_step,
    step,
)
from nnrslab.neighbors import (
    build_neighbor_table,
    build_transition_table,
    clamp_tau,
    sample_neighbor,
)
from nnrslab.schedules import Schedule
from nnrslab.trainer import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    make_batches,
    model_from_checkpoint,
    parse_config_file,
    records_from_csv,
    records_to_csv,
    rng_streams,
    run_training,
    save_checkpoint,
    validate,
    _load_run_inputs,
    CHECKPOINT_FILE,
    RECORDS_FILE,
    TRACE_FILE,
)
from nnrslab.policy import (
    GUMBEL_TAU,
    GumbelLogits,
    PolicyState,
    Source,
    decide_batch_positions,
    gumbel_backward,
    gumbel_sample,
)
from synth import (
    assert_like_step,
    assert_same_checkpoint,
    assert_views_of_flat,
    bigram_cycle_lines,
    per_key_sgd_step,
    write_lines,
)


def _quick_config(corpus, mode="MLE", epochs=3, **kw):
    base = dict(corpus=corpus, mode=mode, epochs=epochs, batch_size=4,
                bptt_len=10, hidden=16, dim=8, base_lr=1.0, seed=7)
    base.update(kw)
    return TrainConfig(**base)


_RESUME_POLICIES = {
    "MLE": {},
    "SS": dict(ss=Schedule("linear", 0.0, 0.5)),
    "NNRS": dict(nnrs=Schedule("static", 0.3, 0.3), tau_init=1.5),
    "TPRS": dict(nnrs=Schedule("static", 0.3, 0.3)),
    "SS_NNRS": dict(ss=Schedule("linear", 0.0, 0.5), nnrs=Schedule("static", 0.2, 0.2),
                    tau_init=1.5),
    "GSNS": dict(nnrs=Schedule("static", 0.3, 0.3), k=3),
}


class TestConfig:
    def test_parse_file(self, tmp_path, cycle_corpus):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# training setup\n"
            "corpus = %s\n"
            "mode = SS  # scheduled sampling\n"
            "ss_kind = linear\n"
            "ss_end = 0.5\n"
            "epochs = 4\n"
            "predict_sample = true\n" % cycle_corpus,
            encoding="utf-8",
        )
        cfg = parse_config_file(path)
        assert cfg.mode == "SS" and cfg.epochs == 4
        assert cfg.ss.kind == "linear" and cfg.ss.end_rate == 0.5
        assert cfg.predict_sample is True

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\nepochs = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_file(path)

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ValueError) as err:
            config_from_dict({"corpus": "c.txt", "learning_rate": "1"})
        assert "learning_rate" in str(err.value)
        assert "base_lr" in str(err.value)  # the message names the valid keys

    def test_mode_schedule_consistency(self, cycle_corpus):
        with pytest.raises(ValueError):
            _quick_config(cycle_corpus, mode="MLE",
                          ss=Schedule("linear", 0.0, 0.5)).check()
        with pytest.raises(ValueError):
            _quick_config(cycle_corpus, mode="SS",
                          nnrs=Schedule("static", 0.2, 0.2)).check()
        with pytest.raises(ValueError):
            _quick_config(cycle_corpus, mode="NNRS",
                          ss=Schedule("linear", 0.0, 0.5)).check()

    def test_round_trip_dict(self, cycle_corpus):
        cfg = _quick_config(cycle_corpus, mode="SS_NNRS",
                            ss=Schedule("linear", 0.0, 0.5),
                            nnrs=Schedule("static", 0.2, 0.2))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_every_field_off_default_round_trips(self, cycle_corpus):
        cfg = TrainConfig(
            corpus=cycle_corpus, out_dir="runs/x", embeddings="e.txt", val_corpus="v.txt",
            epochs=5, batch_size=3, bptt_len=7, mode="SS_NNRS",
            ss=Schedule("linear", 0.1, 0.5), nnrs=Schedule("exponential", 0.05, 0.3),
            base_lr=0.7, clip=2.5, momentum=0.3, seed=9, k=4, tau_init=1.5,
            gumbel_beta=0.7, hidden=12, dim=6, min_count=2,
            val_fraction=0.2, predict_sample=True, freeze_embeddings=True)
        default = TrainConfig(corpus="")
        for f in fields(TrainConfig):
            if f.name != "corpus":
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        flat = config_to_dict(cfg)
        assert config_from_dict(flat) == cfg
        assert config_from_dict({key: str(v) for key, v in flat.items()}) == cfg

    def test_unknown_key_error_lists_every_key(self):
        with pytest.raises(ValueError) as err:
            config_from_dict({"corpus": "c.txt", "learning_rate": "1"})
        listed = str(err.value).split("valid keys: ")[1].split(", ")
        assert listed == [
            "base_lr", "batch_size", "bptt_len", "clip", "corpus", "dim", "embeddings",
            "epochs", "freeze_embeddings", "gumbel_beta", "hidden", "k",
            "min_count", "mode", "momentum", "nnrs_end", "nnrs_kind", "nnrs_start",
            "out_dir", "predict_sample", "seed", "ss_end", "ss_kind", "ss_start",
            "tau_init", "val_corpus", "val_fraction"]

    def test_value_validation(self, cycle_corpus):
        for bad in (dict(epochs=0), dict(base_lr=0.0), dict(momentum=1.0),
                    dict(val_fraction=0.0), dict(clip=-1.0), dict(k=-1)):
            with pytest.raises(ValueError):
                _quick_config(cycle_corpus, **bad).check()

    @pytest.mark.parametrize("key, value", [
        ("tau_init", "0"), ("tau_init", "-0.5"), ("tau_init", "nan"), ("tau_init", "inf"),
        ("base_lr", "nan"), ("base_lr", "inf"), ("clip", "nan")])
    def test_non_finite_or_non_positive_refused(self, cycle_corpus, key, value):
        # each passed the check once and then failed in epoch 1, or, for a
        # NaN clip, turned clipping off, as `norm > nan` is always False
        with pytest.raises(ValueError, match="%s must be" % key):
            config_from_dict({"corpus": cycle_corpus, key: value})

    def test_gumbel_beta_range(self, cycle_corpus):
        gsns = dict(mode="GSNS", nnrs=Schedule("static", 0.3, 0.3))
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="gumbel_beta"):
                _quick_config(cycle_corpus, gumbel_beta=beta, **gsns).check()
        for beta in (1e-9, 0.5, 1.0):
            _quick_config(cycle_corpus, gumbel_beta=beta, **gsns).check()


class TestRecords:
    def test_csv_round_trip(self, tmp_path):
        records = [
            EpochRecord(1, 0.0, 0.1, 0.5, 12.0, 11.5, 11.5, 2.0, wall_time=0.3),
            EpochRecord(2, 0.1, 0.2, 1.0, 10.0, 9.5, 9.5, 1.8, wall_time=0.4),
        ]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records

    def test_wall_time_excluded_from_equality(self):
        a = EpochRecord(1, 0.0, 0.0, 0.5, 2.0, 2.0, 2.0, 1.0, wall_time=0.1)
        b = EpochRecord(1, 0.0, 0.0, 0.5, 2.0, 2.0, 2.0, 1.0, wall_time=9.9)
        assert a == b

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        records_to_csv([EpochRecord(7, 0.0, 0.0, 0.5, 9.0, 8.0, 8.0, 1.0)], path)
        before = path.read_bytes()
        records = [EpochRecord(e, 0.0, 0.0, 0.5, 9.0, 8.0, 8.0, 1.0) for e in (1, 2)]
        real, calls = trainer_mod._record_row, []

        def fail_second(rec):
            calls.append(1)
            if len(calls) == 2:  # the header and the first row are already written
                raise OSError("disk full")
            return real(rec)

        monkeypatch.setattr(trainer_mod, "_record_row", fail_second)
        with pytest.raises(OSError, match="disk full"):
            records_to_csv(records, path)
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            records_from_csv(path)


class TestMakeBatches:
    def test_hand_layout(self):
        batches = make_batches(np.arange(1, 13), batch_size=2, bptt_len=3)
        inputs, targets = batches[0]
        np.testing.assert_array_equal(inputs, [[1, 2, 3], [7, 8, 9]])
        np.testing.assert_array_equal(targets, [[2, 3, 4], [8, 9, 10]])
        # trailing window is shorter
        inputs, targets = batches[1]
        np.testing.assert_array_equal(inputs, [[4, 5], [10, 11]])
        np.testing.assert_array_equal(targets, [[5, 6], [11, 12]])

    def test_target_token_budget(self, rng):
        ids = rng.integers(0, 9, size=101)
        batches = make_batches(ids, batch_size=4, bptt_len=7)
        total = sum(t.size for _, t in batches)
        assert total <= ids.size - 4

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_batches(np.arange(5), batch_size=2, bptt_len=10)
        with pytest.raises(ValueError):
            make_batches(np.arange(4), batch_size=4, bptt_len=1)


class TestValidate:
    def test_zero_model_vocab_perplexity(self):
        model = LstmLm.zeros(20, 4, 6)
        batches = make_batches(np.arange(50) % 20, batch_size=1, bptt_len=8)
        assert validate(model, batches) == pytest.approx(20.0, abs=1e-6)

    def test_matches_independent_accumulation(self, rng):
        model = LstmLm.init(9, 4, 6, rng)
        batches = make_batches(rng.integers(0, 9, size=80), 1, 12)
        total_nll, total_tok = 0.0, 0
        state = model.zero_state(1)
        for inputs, targets in batches:
            cache = forward_cached(model, inputs, state)
            lp = cache.log_probs
            for t in range(targets.shape[1]):
                total_nll -= lp[t, 0, targets[0, t]]
            total_tok += targets.size
            state = cache.final_state
        expected = float(np.exp(total_nll / total_tok))
        assert validate(model, batches) == pytest.approx(expected, rel=1e-12)

    def test_matches_cached_forward_on_multiwindow_split(self, rng):
        # B=3, T=7 over 71 ids: 23 steps per stream, last window 1 step
        model = LstmLm.init(11, 4, 6, rng)
        batches = make_batches(rng.integers(0, 11, size=71), 3, 7)
        assert len(batches) > 2 and batches[-1][1].shape[1] < 7
        total_nll, total_tok = 0.0, 0
        state = model.zero_state(3)
        for inputs, targets in batches:
            cache = forward_cached(model, inputs, state)
            total_nll += loss_from_cache(cache, targets) * targets.size
            total_tok += targets.size
            state = cache.final_state
        expected = float(np.exp(total_nll / total_tok))
        assert validate(model, batches) == pytest.approx(expected, rel=1e-12)

    def test_does_not_mutate_parameters(self, rng):
        model = LstmLm.init(9, 4, 6, rng)
        before = {k: v.copy() for k, v in model.params.items()}
        validate(model, make_batches(rng.integers(0, 9, size=60), 1, 10))
        for key in before:
            np.testing.assert_array_equal(model.params[key], before[key])

    def test_empty_split_errors(self, rng):
        with pytest.raises(ValueError):
            validate(LstmLm.zeros(5, 2, 3), [])

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 4), bptt=st.integers(1, 12), vocab=st.integers(2, 30),
           windows=st.integers(1, 3), tail=st.integers(0, 11), block=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2 ** 16))
    def test_blocked_equals_whole_window(self, batch, bptt, vocab, windows, tail, block, seed):
        # budget block * |V| gives 2- or 3-row blocks (a 1-row budget still
        # gives 2); `tail` > 0 adds a short last window
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 3, 5, rng)
        stream = windows * bptt + tail % bptt + 1
        batches = make_batches(rng.integers(0, vocab, size=batch * stream), batch, bptt)
        with mock.patch.object(model_mod, "_ROW_BUDGET", block * vocab):
            assert model_mod.block_rows(model) == max(2, block)
            state, total_nll, total_tokens = None, 0.0, 0
            for inputs, targets in batches:  # the whole (T, B, |V|) output layer per window
                cache = forward_cached(model, inputs, state)
                picked = np.take_along_axis(cache.log_probs, targets.T[:, :, None], axis=2)
                top = cache.h[1][1:].reshape(targets.size, -1)
                np.testing.assert_array_equal(  # each term, not just the sum
                    model_mod.target_log_probs(model, top, targets.T.reshape(-1)),
                    picked.reshape(-1))
                total_nll -= picked.sum()
                total_tokens += targets.size
                state = cache.final_state
            blocks = []
            real_logits = model_mod._logits

            def recording(model, h, out):  # every scored block's logits
                blocks.append(h.shape[0])
                return real_logits(model, h, out)

            with mock.patch.object(model_mod, "_logits", recording):
                assert validate(model, batches) == float(np.exp(total_nll / total_tokens))
        # a one-row product goes to BLAS's matrix-vector kernel, whose last bits differ
        assert max(blocks) <= max(2, block)
        assert min(blocks) >= min(2, min(t.size for _, t in batches))

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 4), bptt=st.integers(1, 12), vocab=st.integers(2, 30),
           windows=st.integers(1, 3), tail=st.integers(1, 11), seed=st.integers(0, 2 ** 16))
    def test_one_step_cache_equals_full_history(self, batch, bptt, vocab, windows, tail, seed):
        # validate's cells-only cache against full-history forward_cached
        # caches: every window's top-layer h, final state and target
        # log-probs, then the perplexity; bptt > 1 adds a short last window
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 3, 5, rng)
        stream = windows * bptt + tail % bptt + 1
        batches = make_batches(rng.integers(0, vocab, size=batch * stream), batch, bptt)
        seen, scored = [], []
        real_segment, real_target = trainer_mod.forward_segment, trainer_mod.target_log_probs

        def recording_segment(model, cache, lo, hi):
            real_segment(model, cache, lo, hi)
            seen.append((cache.h[1][1:].copy(),  # the next window overwrites the cache
                         [(h.copy(), c.copy()) for h, c in cache.final_state]))
            return cache

        def recording_target(model, top, targets):
            scored.append(real_target(model, top, targets))
            return scored[-1]

        with mock.patch.object(trainer_mod, "forward_segment", recording_segment), \
                mock.patch.object(trainer_mod, "target_log_probs", recording_target):
            ppl = validate(model, batches)
        assert len(seen) == len(scored) == len(batches)
        state, total_nll, total_tokens = None, 0.0, 0
        for (inputs, targets), (top, final), picked in zip(batches, seen, scored):
            ref = forward_cached(model, inputs, state)
            np.testing.assert_array_equal(top, ref.h[1][1:])
            for (h, c), (ref_h, ref_c) in zip(final, ref.final_state):
                np.testing.assert_array_equal(h, ref_h)
                np.testing.assert_array_equal(c, ref_c)
            ref_picked = np.take_along_axis(ref.log_probs, targets.T[:, :, None], axis=2)
            np.testing.assert_array_equal(picked, ref_picked.reshape(-1))
            total_nll -= ref_picked[:, :, 0].T.ravel().sum()  # in targets' (b, t) order
            total_tokens += targets.size
            state = ref.final_state
        assert ppl == float(np.exp(total_nll / total_tokens))

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 4), steps=st.integers(2, 4), extra=st.integers(1, 9),
           vocab=st.integers(2, 30), windows=st.integers(1, 3), tail=st.integers(0, 12),
           seed=st.integers(0, 2 ** 16))
    @example(batch=1, steps=2, extra=1, vocab=7, windows=2, tail=0, seed=0)  # 2 + a 1-step tail
    @example(batch=1, steps=2, extra=3, vocab=7, windows=1, tail=0, seed=1)  # 2, 2 + a 1-step tail
    def test_sub_windows_equal_whole_window(self, batch, steps, extra, vocab, windows, tail,
                                            seed):
        # a row budget of `steps` sub-window steps, below the bptt length:
        # every target's log-prob and the perplexity equal the whole-window
        # forward_cached values bit for bit, each sub-window has at most
        # `steps` steps (one more where a B = 1 one-step tail joined it), and
        # no projection or scoring product has one row unless its window has
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, 3, 5, rng)
        bptt = steps + extra
        stream = windows * bptt + tail % bptt + 1
        batches = make_batches(rng.integers(0, vocab, size=batch * stream), batch, bptt)
        budget = 4 * model.hidden * batch * steps
        state, ref_picked, total_nll, total_tokens = None, [], 0.0, 0
        for inputs, targets in batches:
            cache = forward_cached(model, inputs, state)
            picked = np.take_along_axis(cache.log_probs, targets.T[:, :, None], axis=2)
            ref_picked.append(picked.reshape(-1))  # in (t, b) order
            total_nll -= picked[:, :, 0].T.ravel().sum()  # in targets' (b, t) order
            total_tokens += targets.size
            state = cache.final_state
        segments, products, scored = [], [], []
        real_segment, real_target = trainer_mod.forward_segment, trainer_mod.target_log_probs
        real_logits = model_mod._logits

        def recording_segment(model, cache, lo, hi):
            segments.append(hi - lo)
            products.append((hi - lo) * cache.batch_size)  # rows of its input projections
            return real_segment(model, cache, lo, hi)

        def recording_target(model, top, targets):
            scored.append(real_target(model, top, targets))
            return scored[-1]

        def recording_logits(model, h, out):
            products.append(h.shape[0])
            return real_logits(model, h, out)

        with mock.patch.object(model_mod, "_ROW_BUDGET", budget), \
                mock.patch.object(model_mod, "_logits", recording_logits), \
                mock.patch.object(trainer_mod, "forward_segment", recording_segment), \
                mock.patch.object(trainer_mod, "target_log_probs", recording_target):
            ppl = validate(model, batches)
        assert ppl == float(np.exp(total_nll / total_tokens))
        np.testing.assert_array_equal(np.concatenate(scored), np.concatenate(ref_picked))
        assert sum(segments) == sum(t.shape[1] for _, t in batches)
        assert max(segments) <= steps + (batch == 1)
        # a one-row product goes to BLAS's matrix-vector kernel, whose last
        # bits differ: only a one-row window runs one (its projections and
        # its one scoring block)
        assert products.count(1) == 2 * sum(t.size == 1 for _, t in batches)

    def test_memory_wide_batch_window(self):
        # one B = 64, T = 35 window at H = 128, |V| = 2000: the whole window's
        # (2240, 512) input projection and h alone would take 13.9 MB; in
        # sub-windows of at most 4 steps the peak is about 3.2 MB
        model = LstmLm.init(2000, 64, 128, np.random.default_rng(5))
        batches = make_batches(np.arange(64 * 36) % 2000, 64, 35)
        assert [t.shape for _, t in batches] == [(64, 35)]
        validate(model, batches)  # warm the lazily built gate constants
        tracemalloc.start()
        try:
            validate(model, batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_memory_one_step_of_cell_history(self):
        # desk shape, three windows of 16-step sub-windows: the peak is about
        # 2.2 MB; per-step gates, tanh(c) and c of both layers would add about
        # 3 MB, and whole-window projections and h about 2 MB
        model = LstmLm.init(2000, 64, 128, np.random.default_rng(5))
        batches = make_batches(np.arange(16 * (3 * 35 + 1)) % 2000, 16, 35)
        assert [t.shape for _, t in batches] == [(16, 35)] * 3
        validate(model, batches[:1])  # warm the lazily built gate constants
        tracemalloc.start()
        try:
            validate(model, batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_memory_bounded_by_row_budget(self):
        # |V| = 5000 and one 1024-row window: the whole-window output layer
        # alone would take 1024 * 5000 * 8 bytes, about 41 MB
        model = LstmLm.init(5000, 4, 8, np.random.default_rng(3))
        batches = make_batches(np.arange(4 * 257) % 5000, 4, 256)
        assert [t.size for _, t in batches] == [1024]
        budget_bytes = model_mod._ROW_BUDGET * 8
        tracemalloc.start()
        try:
            validate(model, batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget_bytes  # about 3 MB: two output blocks and the cells


class _Rows:
    """Stands in for the decision trace: keeps every row in memory."""

    def __init__(self):
        self.kept = []

    def rows(self, epoch, step_idx, t, source, teachers, chosen):
        self.kept.append((epoch, step_idx, t, int(source), list(teachers), list(chosen)))


def _stepwise_epoch(model, state, cfg, table, gumbel, batches, lr, trace):
    """Reference epoch, one timestep and one batch row at a time: step
    per timestep, sample_neighbor / gumbel_sample / greedy_or_sample_predict
    per row (one log-prob row per call), the window's step caches joined
    for backward, and each Gumbel draw's gradient chained through
    gumbel_backward on its own."""
    hidden, prev, total, count = None, None, 0.0, 0
    gsns_grad = np.zeros_like(gumbel.log_alpha) if gumbel is not None else None
    gsns_rows = set()
    for step_idx, (inputs, targets) in enumerate(batches):
        batch, width = inputs.shape
        if hidden is None:
            hidden = model.zero_state(batch)
        mask = decide_batch_positions(state, width)
        caches, touched = [], []
        for t in range(width):
            teachers = inputs[:, t]
            src = int(mask[t])
            if src == Source.PREDICTION and prev is None:
                src = int(Source.TEACHER)
            if src == Source.TEACHER:
                xs = teachers
            elif src == Source.PREDICTION:
                xs = np.concatenate([greedy_or_sample_predict(prev[b:b + 1], cfg.predict_sample,
                                                              state.rng) for b in range(batch)])
            elif gumbel is not None:
                xs = []
                for b, w in enumerate(teachers.tolist()):
                    slot, soft = gumbel_sample(gumbel, w, rng=state.rng)
                    xs.append(table.ids[w, slot])
                    touched.append((t, b, w, soft))
                xs = np.array(xs)
            else:
                xs = np.array([sample_neighbor(table, w, state.rng) for w in teachers.tolist()])
            prev, hidden, cache = step(model, xs, hidden)
            caches.append(cache)
            trace.rows(1, step_idx, t, src, teachers, xs)
        window = ForwardCache(caches, hidden, batch)
        total += loss_from_cache(window, targets) * targets.size
        count += targets.size
        grads = backward(model, window, targets)
        for t, b, w, soft in touched:
            slot_grads = window.input_grads[t, b] @ model.params["embed"][table.ids[w]].T
            gsns_grad[w] += gumbel_backward(soft, slot_grads, GUMBEL_TAU)
            gsns_rows.add(w)
        sgd_step(model, grads, lr, cfg.clip)
    return total / count, gsns_grad, gsns_rows


class TestSegmentedEpoch:
    @pytest.mark.parametrize("mode, batch, sample", [
        ("SS_NNRS", 3, True), ("SS_NNRS", 1, False), ("SS", 2, False),
        ("TPRS", 3, False), ("GSNS", 2, False),
    ])
    def test_matches_stepwise_reference(self, cycle_corpus, mode, batch, sample):
        # cut windows, batched draws and array backward against the
        # one-step-at-a-time loop: same decisions, rng state and weights
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 12, size=200)
        vectors = rng.normal(size=(12, 5))
        vectors[7] = 0.0  # a flagged word
        cfg = _quick_config(cycle_corpus, mode=mode, batch_size=batch, predict_sample=sample,
                            dim=5, hidden=6)
        if mode == "TPRS":
            table = build_transition_table(ids, range(12), 3)
        else:
            table = build_neighbor_table(EmbeddingMatrix.from_vectors(vectors), 3, tau=0.7)
        gumbel = GumbelLogits.from_table(table) if mode == "GSNS" else None
        batches = trainer_mod.make_batches(ids, batch, 7)
        runs = []
        for epoch_fn in (trainer_mod._train_epoch, _stepwise_epoch):
            model = LstmLm.init(12, 5, 6, np.random.default_rng(3), embed=vectors)
            state = PolicyState(mode=mode, rng=np.random.default_rng(4),
                                epsilon=0.0 if mode in ("TPRS", "GSNS") else 0.4,
                                gamma=0.0 if mode == "SS" else 0.4)
            trace = _Rows()
            if epoch_fn is _stepwise_epoch:
                out = epoch_fn(model, state, cfg, table, gumbel, batches, 0.7, trace)
            else:
                out = epoch_fn(model, state, cfg, table, gumbel, batches, 0.7, None, trace, 1)
            runs.append((out, model, state, trace))
        (nll, grad, rows), model, state, trace = runs[0]
        (ref_nll, ref_grad, ref_rows), ref_model, ref_state, ref_trace = runs[1]
        assert trace.kept == ref_trace.kept
        assert {row[3] for row in trace.kept} > {int(Source.TEACHER)}
        assert state.rng.bit_generator.state == ref_state.rng.bit_generator.state
        same = assert_like_step(batch)
        same(nll, ref_nll)
        for key in model.params:
            same(model.params[key], ref_model.params[key])
        if gumbel is not None:
            assert rows == ref_rows
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)

    def test_gsns_gradient_is_finite_difference_of_relaxation(self, cycle_corpus,
                                                                 monkeypatch):
        # the whole straight-through chain on one window: the epoch's logit
        # gradient is d/dalpha of sum_d sum_j soft_dj(alpha) g_dj, with
        # g_dj = dL/dx_d . embed[neighbor_dj] from backward and each draw's
        # Gumbel noise replayed from the generator state it started at
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 6, size=11)
        vectors = rng.normal(size=(6, 4))
        table = build_neighbor_table(EmbeddingMatrix.from_vectors(vectors), 2, tau=0.7)
        gumbel = GumbelLogits(rng.normal(size=(6, 2)))
        batches = trainer_mod.make_batches(ids, 2, 5)
        assert [inputs.shape for inputs, _ in batches] == [(2, 4)]
        model = LstmLm.init(6, 4, 5, np.random.default_rng(3), embed=vectors)
        state = PolicyState(mode="GSNS", rng=np.random.default_rng(4), gamma=1.0)
        cfg = _quick_config(cycle_corpus, mode="GSNS", batch_size=2, dim=4, hidden=5)
        draws, taken = [], []

        def sample(logits, words, tau, g):
            draws.append((words.copy(), tau, g.bit_generator.state))
            return gumbel_sample(logits, words, tau, g)

        def taking_backward(model, cache, targets, out=None):
            grads = backward(model, cache, targets, out=out)
            taken.append((cache.input_grads.copy(), model.params["embed"].copy()))
            return grads

        monkeypatch.setattr(trainer_mod, "gumbel_sample", sample)
        monkeypatch.setattr(trainer_mod, "backward", taking_backward)
        _, grad, rows = trainer_mod._train_epoch(model, state, cfg, table, gumbel, batches,
                                                 0.7, None, None, 1)
        (dx, embed), = taken
        assert len(draws) == 4  # every step is a Neighbor step at gamma = 1
        assert rows == set(batches[0][0].ravel().tolist())

        def relaxed(log_alpha):
            total = 0.0
            for t, (words, tau, start) in enumerate(draws):
                replay = np.random.default_rng()
                replay.bit_generator.state = start
                soft = gumbel_sample(GumbelLogits(log_alpha), words, tau, replay)[1]
                slot_grads = np.einsum("bd,bkd->bk", dx[t], embed[table.ids[words]])
                total += float((soft * slot_grads).sum())
            return total

        h = 1e-6
        fd = np.zeros_like(gumbel.log_alpha)
        for idx in np.ndindex(fd.shape):
            bump = np.zeros_like(fd)
            bump[idx] = h
            fd[idx] = (relaxed(gumbel.log_alpha + bump)
                       - relaxed(gumbel.log_alpha - bump)) / (2 * h)
        assert np.abs(fd).max() > 1e-4
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)


class TestRunTraining:
    def test_mle_smoke(self, cycle_corpus):
        cfg = _quick_config(cycle_corpus)
        model, records = run_training(cfg)
        assert len(records) == cfg.epochs
        for i, rec in enumerate(records, start=1):
            assert rec.epoch == i
            assert rec.epsilon == 0.0 and rec.gamma == 0.0
            assert np.isfinite(rec.train_loss) and np.isfinite(rec.val_loss)
        lrs = [trainer_mod.cosine_lr(cfg.base_lr, i - 1, cfg.epochs)
               for i in range(1, cfg.epochs + 1)]
        assert [r.lr for r in records] == lrs

    def test_same_seed_identical_records(self, cycle_corpus):
        cfg = dict(mode="SS_NNRS", ss=Schedule("linear", 0.0, 0.5),
                   nnrs=Schedule("static", 0.2, 0.2))
        _, a = run_training(_quick_config(cycle_corpus, **cfg))
        _, b = run_training(_quick_config(cycle_corpus, **cfg))
        assert a == b

    def test_nnrs_invariants(self, cycle_corpus):
        cfg = _quick_config(cycle_corpus, mode="NNRS",
                            nnrs=Schedule("static", 0.2, 0.2), epochs=4)
        _, records = run_training(cfg)
        best = [r.best for r in records]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
        assert all(0.5 <= r.tau <= 10.0 for r in records)

    def test_tprs_static_controller(self, cycle_corpus):
        cfg = _quick_config(cycle_corpus, mode="TPRS",
                            nnrs=Schedule("static", 0.3, 0.3), k=2)
        _, records = run_training(cfg)
        assert all(r.tau == cfg.tau_init for r in records)

    @pytest.mark.parametrize("mode", ["NNRS", "TPRS", "SS_NNRS", "GSNS"])
    def test_k_at_vocabulary_size_refused(self, cycle_corpus, mode):
        # one k rule for every mode with a table, applied where k is resolved:
        # TPRS used to build a (|V|, k) table of padding slots
        cfg = _quick_config(cycle_corpus, mode=mode, nnrs=Schedule("static", 0.3, 0.3))
        n_vocab = len(_load_run_inputs(cfg, np.random.default_rng(0))[0])
        for k in (n_vocab, 500):
            with pytest.raises(ValueError, match="k must be below the vocabulary size %d, got %d"
                                                 % (n_vocab, k)):
                run_training(replace(cfg, k=k))

    def test_gsns_smoke(self, cycle_corpus):
        cfg = _quick_config(cycle_corpus, mode="GSNS",
                            nnrs=Schedule("static", 0.3, 0.3), k=2, epochs=2)
        _, records = run_training(cfg)
        assert len(records) == 2

    def test_schedule_columns_match_evaluation(self, cycle_corpus):
        ss = Schedule("linear", 0.0, 0.5)
        nnrs = Schedule("static", 0.2, 0.2)
        cfg = _quick_config(cycle_corpus, mode="SS_NNRS", ss=ss, nnrs=nnrs,
                            epochs=4)
        _, records = run_training(cfg)
        for rec in records:
            assert rec.epsilon == pytest.approx(ss.rate(rec.epoch / 4))
            assert rec.gamma == pytest.approx(0.2)
        assert records[-1].epsilon == pytest.approx(0.5)

    def test_stop_after_bounds(self, cycle_corpus):
        with pytest.raises(ValueError):
            run_training(_quick_config(cycle_corpus), stop_after=0)
        with pytest.raises(ValueError):
            run_training(_quick_config(cycle_corpus, epochs=2), stop_after=3)

    @pytest.mark.parametrize("momentum", [0.0, 0.3])
    def test_freeze_embeddings(self, cycle_corpus, momentum):
        cfg = _quick_config(cycle_corpus, epochs=2, momentum=momentum,
                            freeze_embeddings=True)
        rng_model, _ = rng_streams(cfg.seed)  # run_training's own initialization
        vocab, _, _, emb = _load_run_inputs(cfg, rng_model)
        initial = LstmLm.init(len(vocab), cfg.dim, cfg.hidden, rng_model,
                              embed=emb.vectors).params
        model, _ = run_training(cfg)
        for key, value in model.params.items():
            if key == "embed":
                assert value.tobytes() == initial[key].tobytes()
            else:
                assert not np.array_equal(value, initial[key]), key

    def test_run_dir_written_each_epoch(self, cycle_corpus, tmp_path, monkeypatch):
        out_dir = tmp_path / "run"
        cfg = _quick_config(cycle_corpus, out_dir=str(out_dir))
        seen = []
        real_records_to_csv = trainer_mod.records_to_csv

        def watching_records_to_csv(records, path):
            # checkpoint.bin already holds every epoch records.csv is about to name
            seen.append(len(load_checkpoint(out_dir / "checkpoint.bin")["records"]))
            real_records_to_csv(records, path)

        monkeypatch.setattr(trainer_mod, "records_to_csv", watching_records_to_csv)
        _, records = run_training(cfg)
        assert seen == [1, 2, 3]
        assert records_from_csv(out_dir / "records.csv") == records
        assert load_checkpoint(out_dir / "checkpoint.bin")["records"] == records

    def test_divergence_carries_records(self, cycle_corpus, monkeypatch):
        cfg = _quick_config(cycle_corpus, epochs=2)
        monkeypatch.setattr(trainer_mod, "validate", lambda *a, **k: 1e9)
        with pytest.raises(DivergenceError) as err:
            run_training(cfg)
        assert len(err.value.records) == 1
        assert err.value.records[0].val_loss == 1e9

    @staticmethod
    def _diverge_in_epoch_2(cfg, val_ppl):
        """Run cfg with epoch 2's validation perplexity replaced by val_ppl;
        returns the DivergenceError's records."""
        real_validate = trainer_mod.validate
        calls = []

        def diverging_validate(*args, **kwargs):
            calls.append(True)
            return real_validate(*args, **kwargs) if len(calls) == 1 else val_ppl

        with mock.patch.object(trainer_mod, "validate", diverging_validate), \
                pytest.raises(DivergenceError) as err:
            run_training(cfg)
        assert len(calls) == 2
        assert "epoch 2" in str(err.value)
        return err.value.records

    @pytest.mark.parametrize("mode", sorted(_RESUME_POLICIES))
    def test_nan_validation_diverges(self, cycle_corpus, tmp_path, mode):
        # a NaN perplexity in epoch 2 ends the run alike in every mode: the
        # epoch is recorded with tau and best unchanged, records.csv holds
        # it, and the checkpoint keeps epoch 1
        cfg = _quick_config(cycle_corpus, mode=mode, epochs=3, out_dir=str(tmp_path),
                            **_RESUME_POLICIES[mode])
        records = self._diverge_in_epoch_2(cfg, float("nan"))
        assert [r.epoch for r in records] == [1, 2]
        assert math.isnan(records[1].val_loss)
        assert (records[1].tau, records[1].best) == (records[0].tau, records[0].best)
        written = records_from_csv(tmp_path / RECORDS_FILE)
        assert written[0] == records[0] and math.isnan(written[1].val_loss)
        assert replace(written[1], val_loss=0.0) == replace(records[1], val_loss=0.0)
        assert [r.epoch for r in load_checkpoint(tmp_path / CHECKPOINT_FILE)["records"]] == [1]

    def test_divergence_above_ten_vocab_keeps_tau(self, cycle_corpus, tmp_path):
        # a perplexity above 10 |V| runs no temperature step before the run ends
        cfg = _quick_config(cycle_corpus, mode="NNRS", epochs=3, out_dir=str(tmp_path),
                            **_RESUME_POLICIES["NNRS"])
        records = self._diverge_in_epoch_2(cfg, 1e9)
        assert [r.epoch for r in records] == [1, 2]
        assert records[1].val_loss == 1e9
        assert (records[1].tau, records[1].best) == (records[0].tau, records[0].best)
        assert records_from_csv(tmp_path / RECORDS_FILE) == records
        assert [r.epoch for r in load_checkpoint(tmp_path / CHECKPOINT_FILE)["records"]] == [1]

    def test_inputs_dropped_before_validate(self, cycle_corpus, monkeypatch):
        # the model holds a copy of the embedding matrix and the run reads
        # only |V| and the vocabulary hash, so neither input object is
        # referenced by the first validation
        refs, checked = [], []
        real_load, real_validate = trainer_mod._load_run_inputs, trainer_mod.validate

        def tracked_load(*args, **kwargs):
            vocab, train_ids, val_ids, emb = real_load(*args, **kwargs)
            refs.extend([weakref.ref(vocab), weakref.ref(emb)])
            return vocab, train_ids, val_ids, emb

        def checked_validate(*args, **kwargs):
            checked.append([ref() is None for ref in refs])
            return real_validate(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "_load_run_inputs", tracked_load)
        monkeypatch.setattr(trainer_mod, "validate", checked_validate)
        run_training(_quick_config(cycle_corpus, mode="NNRS", epochs=1,
                                   **_RESUME_POLICIES["NNRS"]))
        assert checked == [[True, True]]


class TestTrace:
    def test_mle_all_teacher(self, cycle_corpus, tmp_path):
        cfg = _quick_config(cycle_corpus, epochs=1, out_dir=str(tmp_path))
        trace_path = tmp_path / "decisions.csv"
        run_training(cfg, trace=True)
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert row["source"] == "Teacher"
            assert row["teacher_id"] == row["chosen_id"]

    def test_nnrs_chosen_ids_are_tabled_neighbors(self, cycle_corpus, tmp_path):
        cfg = _quick_config(cycle_corpus, mode="NNRS", k=3,
                            nnrs=Schedule("static", 0.5, 0.5), epochs=2,
                            out_dir=str(tmp_path))
        trace_path = tmp_path / "decisions.csv"
        run_training(cfg, trace=True)

        rng_model, _ = rng_streams(cfg.seed)
        _, _, _, emb = _load_run_inputs(cfg, rng_model)
        table = build_neighbor_table(emb, cfg.k, tau=clamp_tau(cfg.tau_init))

        saw_neighbor = False
        with open(trace_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                teacher = int(row["teacher_id"])
                chosen = int(row["chosen_id"])
                assert row["source"] in ("Teacher", "Neighbor")  # eps = 0
                if row["source"] == "Neighbor":
                    saw_neighbor = True
                    assert chosen in set(table.ids[teacher])
                else:
                    assert chosen == teacher
        assert saw_neighbor

    def test_needs_out_dir(self, cycle_corpus):
        with pytest.raises(ValueError, match="out_dir"):
            run_training(_quick_config(cycle_corpus, epochs=1), trace=True)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng, cycle_corpus):
        model = LstmLm.init(6, 3, 4, rng)
        state = PolicyState(mode="NNRS", rng=np.random.default_rng(1),
                            gamma=0.2, tau=1.5, best_val_loss=8.0)
        records = [EpochRecord(1, 0.0, 0.2, 1.5, 9.0, 8.0, 8.0, 1.0)]
        cfg = _quick_config(cycle_corpus, mode="NNRS", dim=3, hidden=4,  # the model's
                            nnrs=Schedule("static", 0.2, 0.2))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, state.rng, records, "hash123", cfg)
        ck = load_checkpoint(path, vocab_hash="hash123")
        assert sorted(ck["meta"]) == ["config", "magic", "records", "rng_policy",
                                      "version", "vocab_hash", "vocab_size"]
        assert ck["meta"]["config"]["mode"] == "NNRS"
        assert ck["meta"]["rng_policy"] == state.rng.bit_generator.state
        assert ck["records"] == records
        assert ck["velocity"] is None and ck["gumbel_log_alpha"] is None
        for key in model.params:
            np.testing.assert_array_equal(ck["params"][key], model.params[key])
        loaded, _ = model_from_checkpoint(path)
        assert (loaded.vocab_size, loaded.dim, loaded.hidden) == (6, 3, 4)

    def test_vocab_hash_mismatch_refused(self, tmp_path, rng, cycle_corpus):
        model = LstmLm.init(6, 3, 4, rng)
        state = PolicyState(mode="MLE", rng=np.random.default_rng(1))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, state.rng, [], "aaaa",
                        _quick_config(cycle_corpus, dim=3, hidden=4))
        with pytest.raises(ValueError, match="hash"):
            load_checkpoint(path, vocab_hash="bbbb")

    def test_model_of_another_shape_refused_before_writing(self, tmp_path, rng, cycle_corpus):
        # load_checkpoint lays the vectors out from the config, so such a
        # checkpoint could only be refused when read back
        model = LstmLm.init(6, 3, 4, rng)
        path = tmp_path / "ck.bin"
        with pytest.raises(ValueError, match=re.escape(
                "model has dim 3, hidden 4 but the config says dim 8, hidden 16")):
            save_checkpoint(path, model, np.random.default_rng(1), [], "aaaa",
                            _quick_config(cycle_corpus))
        assert [p.name for p in tmp_path.iterdir()] == ["cycle.txt"]  # nothing written

    @settings(max_examples=40, deadline=None)
    @given(vocab=st.integers(2, 9), dim=st.integers(1, 6), hidden=st.integers(1, 6),
           momentum=st.booleans(), gsns=st.booleans(), k=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_layout_round_trip(self, vocab, dim, hidden, momentum, gsns, k, seed):
        # the flat vectors come back at the layout load_checkpoint derives
        # from the meta, whatever the shape
        rng = np.random.default_rng(seed)
        model = LstmLm.init(vocab, dim, hidden, rng)
        velocity = gumbel = None
        if momentum:
            velocity = model.params.like()
            velocity.flat[:] = rng.standard_normal(velocity.flat.size)
        if gsns:
            gumbel = GumbelLogits(rng.standard_normal((vocab, k)), beta=0.9)
        kw = dict(mode="GSNS", nnrs=Schedule("static", 0.2, 0.2)) if gsns else {}
        cfg = TrainConfig(corpus="train.txt", dim=dim, hidden=hidden,
                          momentum=0.3 if momentum else 0.0, **kw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / CHECKPOINT_FILE
            save_checkpoint(path, model, rng, [], "hash", cfg, velocity=velocity, gumbel=gumbel)
            ck = load_checkpoint(path)
            loaded, _ = model_from_checkpoint(path)
        assert (loaded.vocab_size, loaded.dim, loaded.hidden) == (vocab, dim, hidden)
        assert ck["params"].flat.tobytes() == model.params.flat.tobytes()
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
        if momentum:
            assert ck["velocity"].flat.tobytes() == velocity.flat.tobytes()
        else:
            assert ck["velocity"] is None
        if gsns:
            assert ck["gumbel_log_alpha"].tobytes() == gumbel.log_alpha.tobytes()
            assert ck["gumbel_log_alpha"].shape == (vocab, k)
        else:
            assert ck["gumbel_log_alpha"] is None

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            load_checkpoint(path)

    def test_resume_matches_uninterrupted(self, cycle_corpus, tmp_path):
        kw = dict(mode="SS_NNRS", ss=Schedule("linear", 0.0, 0.5),
                  nnrs=Schedule("static", 0.2, 0.2), epochs=6, momentum=0.3)
        full_model, full_records = run_training(_quick_config(cycle_corpus, **kw))

        mid = tmp_path / "mid"
        run_training(_quick_config(cycle_corpus, out_dir=str(mid), **kw), stop_after=3)
        resumed_model, resumed_records = run_training(
            _quick_config(cycle_corpus, **kw), resume_from=str(mid / "checkpoint.bin"))

        assert resumed_records == full_records
        for key in full_model.params:
            np.testing.assert_array_equal(resumed_model.params[key],
                                          full_model.params[key])

    def test_resume_mode_mismatch(self, cycle_corpus, tmp_path):
        run_training(_quick_config(cycle_corpus, epochs=2, out_dir=str(tmp_path)),
                     stop_after=1)
        bad = _quick_config(cycle_corpus, mode="NNRS",
                            nnrs=Schedule("static", 0.2, 0.2), epochs=2)
        with pytest.raises(ValueError, match="mode"):
            run_training(bad, resume_from=str(tmp_path / "checkpoint.bin"))

    @pytest.mark.parametrize("field, value, message", [
        ("hidden", 8, "lstm1_Wx has shape (8, 64), the config's model (8, 32)"),
        ("dim", 4, "embed has shape (12, 8), the config's model (12, 4)"),  # |V| = 12
    ], ids=["hidden", "dim"])
    def test_resume_shape_mismatch_refused_before_any_epoch(self, cycle_corpus, tmp_path,
                                                            monkeypatch, field, value, message):
        run_training(_quick_config(cycle_corpus, epochs=2, out_dir=str(tmp_path)),
                     stop_after=1)
        monkeypatch.setattr(trainer_mod, "_train_epoch", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="checkpoint parameter " + re.escape(message)):
            run_training(_quick_config(cycle_corpus, epochs=2, **{field: value}),
                         resume_from=str(tmp_path / CHECKPOINT_FILE))

    def test_params_stay_views_after_resume_and_load(self, cycle_corpus, tmp_path):
        cfg = _quick_config(cycle_corpus, epochs=2, momentum=0.3, out_dir=str(tmp_path))
        run_training(cfg, stop_after=1)
        model, _ = run_training(cfg, resume_from=str(tmp_path / CHECKPOINT_FILE))
        assert_views_of_flat(model.params)
        loaded, ck = model_from_checkpoint(tmp_path / CHECKPOINT_FILE)
        assert_views_of_flat(loaded.params)
        assert_views_of_flat(ck["velocity"])
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    def test_resume_of_finished_run_rewrites_records(self, cycle_corpus, tmp_path):
        # a run killed after its last checkpoint replace, before its
        # records.csv replace: records.csv lacks the last epoch and a
        # temporary file is left. The resume runs no epoch and rewrites
        # records.csv from the checkpoint, wall times included.
        cfg = _quick_config(cycle_corpus, mode="SS_NNRS", momentum=0.3, predict_sample=True,
                            out_dir=str(tmp_path), **_RESUME_POLICIES["SS_NNRS"])
        checkpoint = str(tmp_path / CHECKPOINT_FILE)
        files = (RECORDS_FILE, CHECKPOINT_FILE, TRACE_FILE)
        for stop in (2, None):  # last epoch 2 by --stop-after, then 3 by epochs
            _, records = run_training(cfg, stop_after=stop, trace=True,
                                      resume_from=None if stop else checkpoint)
            saved = {name: (tmp_path / name).read_bytes() for name in files}
            records_to_csv(records[:-1], tmp_path / RECORDS_FILE)
            (tmp_path / (RECORDS_FILE + ".99999.tmp")).write_bytes(saved[RECORDS_FILE][:40])
            with mock.patch.object(trainer_mod, "_train_epoch",
                                   mock.Mock(side_effect=AssertionError)):
                _, repaired = run_training(cfg, stop_after=stop, resume_from=checkpoint,
                                           trace=True)
            assert [r.epoch for r in repaired] == [r.epoch for r in records] == list(
                range(1, (stop or 3) + 1))
            assert repaired == records
            assert {name: (tmp_path / name).read_bytes() for name in files} == saved
        # into another out_dir: both files, as if the run had been there
        other = tmp_path / "other"
        with mock.patch.object(trainer_mod, "_train_epoch", mock.Mock(side_effect=AssertionError)):
            run_training(replace(cfg, out_dir=str(other)), resume_from=checkpoint)
        assert (other / RECORDS_FILE).read_bytes() == saved[RECORDS_FILE]
        assert_same_checkpoint(other / CHECKPOINT_FILE, tmp_path / CHECKPOINT_FILE)

    def test_resume_writes_its_checkpoints_files_first(self, cycle_corpus, tmp_path):
        # before its first epoch, a resume puts back the files its checkpoint
        # was written with, whatever it finds in out_dir
        cfg = _quick_config(cycle_corpus, momentum=0.3, out_dir=str(tmp_path))
        run_training(cfg, stop_after=1)
        files = (RECORDS_FILE, CHECKPOINT_FILE)
        saved = {name: (tmp_path / name).read_bytes() for name in files}
        checkpoint = tmp_path / "kept.bin"
        (tmp_path / CHECKPOINT_FILE).rename(checkpoint)
        (tmp_path / RECORDS_FILE).write_bytes(saved[RECORDS_FILE][:40])
        with mock.patch.object(trainer_mod, "_train_epoch",
                               mock.Mock(side_effect=RuntimeError("killed in epoch 2"))):
            with pytest.raises(RuntimeError, match="killed in epoch 2"):
                run_training(cfg, resume_from=str(checkpoint))
        assert {name: (tmp_path / name).read_bytes() for name in files} == saved

    def test_resume_past_stop_after_refused_before_any_epoch(self, cycle_corpus, tmp_path,
                                                             monkeypatch):
        cfg = _quick_config(cycle_corpus, epochs=3, out_dir=str(tmp_path))
        run_training(cfg, stop_after=2)
        checkpoint = (tmp_path / CHECKPOINT_FILE).read_bytes()
        monkeypatch.setattr(trainer_mod, "_train_epoch", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="the run ends at epoch 1, before the checkpoint's "
                                             "last epoch, 2"):
            run_training(cfg, stop_after=1, resume_from=str(tmp_path / CHECKPOINT_FILE))
        assert (tmp_path / CHECKPOINT_FILE).read_bytes() == checkpoint

    def test_archive_without_parameters_refused(self, cycle_corpus, tmp_path):
        cfg = _quick_config(cycle_corpus, epochs=2, out_dir=str(tmp_path / "run"))
        run_training(cfg, stop_after=1)
        path = tmp_path / "meta_only.bin"
        save_arrays(path, meta=load_arrays(tmp_path / "run" / CHECKPOINT_FILE)["meta"])
        with pytest.raises(ValueError, match="holds no model parameters"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="holds no model parameters"):
            run_training(cfg, resume_from=str(path))

    @pytest.mark.parametrize("member", ["params", "param_embed", "param_W_out",
                                        "vel_embed", "vel_lstm2_b"])
    def test_archive_missing_a_member_refused(self, cycle_corpus, tmp_path, member):
        # neither the velocity and the meta alone nor a params or velocity
        # vector short of one parameter's block is a checkpoint to resume from
        cfg = _quick_config(cycle_corpus, epochs=2, momentum=0.3, out_dir=str(tmp_path / "run"))
        run_training(cfg, stop_after=1)
        arrays = load_arrays(tmp_path / "run" / CHECKPOINT_FILE)
        if member == "params":
            del arrays["params"]
            message = "partial.bin holds no model parameters"
        else:
            sizes = {key: math.prod(shape) for key, shape in LstmLm.layout(12, 8, 16).items()}
            keys = list(sizes)
            prefix, key = member.split("_", 1)
            vector = {"param": "params", "vel": "velocity"}[prefix]
            start = sum(sizes[k] for k in keys[:keys.index(key)])
            arrays[vector] = np.delete(arrays[vector], np.s_[start:start + sizes[key]])
            total = sum(sizes.values())
            message = re.escape("partial.bin: checkpoint member %s is a (%d,) float64 "
                                "array, not the layout's (%d,) float64 vector"
                                % (vector, total - sizes[key], total))
        path = tmp_path / "partial.bin"
        save_arrays(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
        with pytest.raises(ValueError, match=message):
            run_training(cfg, resume_from=str(path))

    @pytest.mark.parametrize("member", ["params", "velocity"])
    @pytest.mark.parametrize("change", ["truncated", "extended"])
    def test_member_of_wrong_size_refused(self, cycle_corpus, tmp_path, member, change):
        # the layout comes from the meta (|V| = 12, d = 8, H = 16), not from
        # the vector, so a vector one value short or long is refused
        cfg = _quick_config(cycle_corpus, epochs=2, momentum=0.3, out_dir=str(tmp_path / "run"))
        run_training(cfg, stop_after=1)
        arrays = load_arrays(tmp_path / "run" / CHECKPOINT_FILE)
        size = sum(math.prod(shape) for shape in LstmLm.layout(12, 8, 16).values())
        assert arrays[member].shape == (size,)
        arrays[member] = (arrays[member][:-1] if change == "truncated"
                          else np.append(arrays[member], 0.0))
        path = tmp_path / "resized.bin"
        save_arrays(path, **arrays)
        message = re.escape("resized.bin: checkpoint member %s is a (%d,) float64 array, not "
                            "the layout's (%d,) float64 vector"
                            % (member, arrays[member].size, size))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
        with pytest.raises(ValueError, match=message):
            run_training(cfg, resume_from=str(path))

    def test_per_member_layout_refused(self, cycle_corpus, tmp_path):
        # earlier versions stored one param_<key> and one vel_<key> member
        # per parameter; such a checkpoint is refused, not read
        cfg = _quick_config(cycle_corpus, epochs=2, momentum=0.3, out_dir=str(tmp_path / "run"))
        run_training(cfg, stop_after=1)
        ck = load_checkpoint(tmp_path / "run" / CHECKPOINT_FILE)
        arrays = {"meta": load_arrays(tmp_path / "run" / CHECKPOINT_FILE)["meta"]}
        for prefix, flat in (("param_", ck["params"]), ("vel_", ck["velocity"])):
            arrays.update({prefix + key: view for key, view in flat.items()})
        path = tmp_path / "old.bin"
        save_arrays(path, **arrays)
        message = "old.bin stores its parameters one member each, a layout this version does not read"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
        with pytest.raises(ValueError, match=message):
            run_training(cfg, resume_from=str(path))


@pytest.fixture(scope="module")
def resume_runs(tmp_path_factory):
    """(scratch dir, config maker, uninterrupted traced run dir per
    (mode, momentum, predict_sample), each run on first use)."""
    root = tmp_path_factory.mktemp("resume")
    corpus = write_lines(root / "cycle.txt", bigram_cycle_lines())
    runs = {}

    def config(out_dir, mode, momentum, sample):
        return _quick_config(corpus, mode=mode, out_dir=str(out_dir), momentum=momentum,
                             predict_sample=sample, **_RESUME_POLICIES[mode])

    def full(key):
        if key not in runs:
            runs[key] = Path(tempfile.mkdtemp(dir=root))
            run_training(config(runs[key], *key), trace=True)
        return runs[key]

    return root, config, full


class TestStopAndResume:
    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(sorted(_RESUME_POLICIES)), momentum=st.sampled_from([0.0, 0.3]),
           sample=st.booleans(), stop=st.integers(1, 2), cut=st.floats(0.0, 1.0))
    def test_equals_uninterrupted(self, resume_runs, mode, momentum, sample, stop, cut):
        # stopped after epoch `stop`, then left with what a kill in the next
        # epoch leaves in the trace (a prefix of its rows, the last one torn)
        root, config, full = resume_runs
        full_dir = full((mode, momentum, sample))
        run_dir = Path(tempfile.mkdtemp(dir=root))
        cfg = config(run_dir, mode, momentum, sample)
        run_training(cfg, stop_after=stop, trace=True)
        trace_path = run_dir / TRACE_FILE
        whole = (full_dir / TRACE_FILE).read_bytes()
        done = trace_path.stat().st_size
        assert whole[:done] == trace_path.read_bytes()
        after = whole.find(b"\n%d," % (stop + 2))  # the end of epoch stop + 1's rows
        end = len(whole) if after < 0 else after + 1
        with open(trace_path, "ab") as fh:
            fh.write(whole[done:done + int(cut * (end - done))])

        run_training(cfg, resume_from=str(run_dir / CHECKPOINT_FILE), trace=True)
        assert (records_from_csv(run_dir / RECORDS_FILE)
                == records_from_csv(full_dir / RECORDS_FILE))
        assert_same_checkpoint(run_dir / CHECKPOINT_FILE, full_dir / CHECKPOINT_FILE)
        assert trace_path.read_bytes() == whole


class TestWindowWorkspace:
    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(sorted(_RESUME_POLICIES)), momentum=st.sampled_from([0.0, 0.3]),
           freeze=st.booleans(), sample=st.booleans(), batch=st.sampled_from([1, 2, 3]),
           bptt=st.sampled_from([6, 7, 10]))
    def test_equals_fresh_arrays_per_window(self, resume_runs, mode, momentum, freeze, sample,
                                            batch, bptt):
        # one reused cache, one gradient buffer and the flat SGD step against
        # a new cache per window, per-key gradient copies and the per-key rule
        root, config, _full = resume_runs
        run_dir, ref_dir = (Path(tempfile.mkdtemp(dir=root)) for _ in range(2))
        kw = dict(epochs=2, freeze_embeddings=freeze, batch_size=batch, bptt_len=bptt)
        cfg = replace(config(run_dir, mode, momentum, sample), **kw)
        _, train_ids, _, _ = _load_run_inputs(cfg, rng_streams(cfg.seed)[0])
        widths = [t.shape[1] for _, t in make_batches(train_ids, batch, bptt)]
        assert widths[-1] < widths[0] == bptt  # a short last window
        run_training(cfg)

        real_window, real_backward = ForwardCache.window, trainer_mod.backward

        def fresh_window(model, state, ids, workspace=None, train=False):
            return real_window(model, state, ids, train=train)

        def per_key_backward(model, cache, targets, out=None):
            return {key: g.copy() for key, g in real_backward(model, cache, targets).items()}

        with mock.patch.object(ForwardCache, "window", fresh_window), \
                mock.patch.object(trainer_mod, "backward", per_key_backward), \
                mock.patch.object(trainer_mod, "sgd_step", per_key_sgd_step):
            run_training(replace(config(ref_dir, mode, momentum, sample), **kw))
        assert records_from_csv(run_dir / RECORDS_FILE) == records_from_csv(ref_dir / RECORDS_FILE)
        assert_same_checkpoint(run_dir / CHECKPOINT_FILE, ref_dir / CHECKPOINT_FILE)

    def test_window_arrays_freed_before_validate(self, cycle_corpus, tmp_path):
        # the epoch's window cache and gradient FlatParams are _train_epoch's
        # locals: neither is referenced once it returns, so neither is held
        # through validate or save_checkpoint
        refs, checked = [], []
        real_window, real_backward = ForwardCache.window, trainer_mod.backward

        def tracked_window(*args, **kwargs):
            cache = real_window(*args, **kwargs)
            refs.append(weakref.ref(cache))
            return cache

        def tracked_backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            refs.append(weakref.ref(grads))
            return grads

        def freed_first(fn):
            def wrapped(*args, **kwargs):
                assert refs and all(ref() is None for ref in refs), fn.__name__
                checked.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        cfg = _quick_config(cycle_corpus, mode="SS", ss=Schedule("static", 0.3, 0.3),
                            epochs=2, out_dir=str(tmp_path))
        with mock.patch.object(ForwardCache, "window", tracked_window), \
                mock.patch.object(trainer_mod, "backward", tracked_backward), \
                mock.patch.object(trainer_mod, "validate", freed_first(trainer_mod.validate)), \
                mock.patch.object(trainer_mod, "save_checkpoint",
                                  freed_first(trainer_mod.save_checkpoint)):
            run_training(cfg)
        assert checked == ["validate", "save_checkpoint"] * 2

    def test_window_holds_one_output_array(self, cycle_corpus):
        # |V| = 5000, windows of 64 x 4 = 256 rows, the last one shorter:
        # one (256, |V|) array is 10.24 MB, and the window's buffer holds
        # one of backward's 128-row output blocks and the (H, |V|) W_out
        # term, 5.44 MB. Besides it the epoch holds the gradient vector
        # (0.53 MB), sgd_step's 64 KB sum-of-squares leaf and the window's
        # small state arrays. Whole-window log-probs (12.3 MB), a fresh
        # cache per window, a fresh softmax gradient or an exp temporary
        # of even 26 rows (1.04 MB) each break the bound.
        model = LstmLm.init(5000, 4, 8, np.random.default_rng(3))
        batches = make_batches(np.arange(4 * (2 * 64 + 20 + 1)) % 5000, 4, 64)
        assert [t.shape[1] for _, t in batches] == [64, 64, 20]
        state = PolicyState(mode="MLE", rng=np.random.default_rng(4))
        cfg = _quick_config(cycle_corpus, momentum=0.3)
        velocity = model.params.like()
        tracemalloc.start()
        try:
            trainer_mod._train_epoch(model, state, cfg, None, None, batches, 0.5,
                                     velocity, None, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_and_term = (model_mod._BACKWARD_ROWS + 8) * 5000 * 8
        gradients = model.params.flat.nbytes
        leaf = model_mod._NORM_LEAF * 8
        assert peak < block_and_term + gradients + leaf + 500_000  # 6.53 MB; it peaks near 6.32
