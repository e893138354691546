"""Training loop: config parsing, batching, validation, checkpoints, runs."""

import csv
from dataclasses import fields

import numpy as np
import pytest

import nnrslab.trainer as trainer_mod
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
    default_k,
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
)
from nnrslab.policy import (
    GumbelLogits,
    PolicyState,
    Source,
    decide_batch_positions,
    gumbel_sample,
)
from synth import assert_like_step


def _quick_config(corpus, mode="MLE", epochs=3, **kw):
    base = dict(corpus=corpus, mode=mode, epochs=epochs, batch_size=4,
                bptt_len=10, hidden=16, dim=8, base_lr=1.0, seed=7)
    base.update(kw)
    return TrainConfig(**base)


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
            gumbel_beta=0.7, gumbel_tau=2.0, hidden=12, dim=6, min_count=2,
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
            "epochs", "freeze_embeddings", "gumbel_beta", "gumbel_tau", "hidden", "k",
            "min_count", "mode", "momentum", "nnrs_end", "nnrs_kind", "nnrs_start",
            "out_dir", "predict_sample", "seed", "ss_end", "ss_kind", "ss_start",
            "tau_init", "val_corpus", "val_fraction"]

    def test_value_validation(self, cycle_corpus):
        for bad in (dict(epochs=0), dict(base_lr=0.0), dict(momentum=1.0),
                    dict(val_fraction=0.0), dict(clip=-1.0), dict(k=-1)):
            with pytest.raises(ValueError):
                _quick_config(cycle_corpus, **bad).check()

    def test_gumbel_tau_range_in_gsns_only(self, cycle_corpus):
        gsns = dict(mode="GSNS", nnrs=Schedule("static", 0.3, 0.3))
        for tau in (0.4, 10.5):
            with pytest.raises(ValueError, match="gumbel_tau"):
                _quick_config(cycle_corpus, gumbel_tau=tau, **gsns).check()
            _quick_config(cycle_corpus, gumbel_tau=tau).check()  # unused outside GSNS
        for tau in (0.5, 10.0):
            _quick_config(cycle_corpus, gumbel_tau=tau, **gsns).check()
        with pytest.raises(ValueError, match="gumbel_tau"):
            run_training(_quick_config(cycle_corpus, gumbel_tau=0.1, **gsns))


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


class TestFeedback:
    def test_greedy_matches_argmax_of_probs(self, rng):
        model = LstmLm.init(50, 4, 6, rng)
        log_probs, _, _ = step(model, rng.integers(0, 50, size=64), model.zero_state(64))
        got = trainer_mod._feedback(log_probs, False, None)
        np.testing.assert_array_equal(got, np.exp(log_probs).argmax(axis=1))
        assert got.dtype == np.int64

    def test_greedy_ties_pick_lower_id(self):
        log_probs = np.log(np.array([
            [0.1, 0.4, 0.1, 0.4],
            [0.25, 0.25, 0.25, 0.25],
            [0.1, 0.1, 0.4, 0.4],
        ]))
        got = trainer_mod._feedback(log_probs, False, None)
        np.testing.assert_array_equal(got, [1, 0, 2])
        np.testing.assert_array_equal(got, np.exp(log_probs).argmax(axis=1))
        zero = LstmLm.zeros(9, 2, 3)
        uniform, _, _ = step(zero, np.arange(4), zero.zero_state(4))
        np.testing.assert_array_equal(trainer_mod._feedback(uniform, False, None), 0)

    def test_sampling_draws_from_probs(self):
        log_probs = np.log(np.array([[1e-12, 1.0, 1e-12], [1e-12, 1e-12, 1.0]]))
        got = trainer_mod._feedback(log_probs, True, np.random.default_rng(0))
        np.testing.assert_array_equal(got, [1, 2])


class _Rows:
    """Stands in for the decision trace: keeps every row in memory."""

    def __init__(self):
        self.kept = []

    def rows(self, epoch, step_idx, t, source, teachers, chosen):
        self.kept.append((epoch, step_idx, t, int(source), list(teachers), list(chosen)))


def _stepwise_epoch(model, state, cfg, table, gumbel, batches, lr, trace):
    """Reference epoch, one timestep and one batch row at a time: step
    per timestep, sample_neighbor / gumbel_sample / greedy_or_sample_predict
    per row, the window's step caches joined for backward."""
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
                xs = np.array([greedy_or_sample_predict(row, cfg.predict_sample, state.rng)
                               for row in np.exp(prev)])
            elif gumbel is not None:
                xs = np.array([table.ids[w, gumbel_sample(gumbel, w, cfg.gumbel_tau, state.rng)[0]]
                               for w in teachers.tolist()])
                touched += [(t, b, w) for b, w in enumerate(teachers.tolist())]
            else:
                xs = np.array([sample_neighbor(table, w, state.rng) for w in teachers.tolist()])
            prev, hidden, cache = step(model, xs, hidden)
            caches.append(cache)
            trace.rows(1, step_idx, t, src, teachers, xs)
        window = ForwardCache(caches, hidden, batch)
        total += loss_from_cache(window, targets) * targets.size
        count += targets.size
        grads = backward(model, window, targets)
        for t, b, w in touched:
            gsns_grad[w] += window.input_grads[t, b] @ model.params["embed"][table.ids[w]].T
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
        real_save = trainer_mod.save_checkpoint

        def watching_save(path, model, rng_policy, records, *args, **kwargs):
            # records.csv is already on disk when the checkpoint is written
            seen.append(len(records_from_csv(out_dir / "records.csv")))
            real_save(path, model, rng_policy, records, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "save_checkpoint", watching_save)
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
        cfg = _quick_config(cycle_corpus, mode="NNRS",
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
        save_checkpoint(path, model, state.rng, [], "aaaa", _quick_config(cycle_corpus))
        with pytest.raises(ValueError, match="hash"):
            load_checkpoint(path, vocab_hash="bbbb")

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

    def test_resume_of_finished_run_refused(self, cycle_corpus, tmp_path):
        cfg = _quick_config(cycle_corpus, epochs=2, out_dir=str(tmp_path))
        run_training(cfg)
        with pytest.raises(ValueError, match="all 2 epochs"):
            run_training(cfg, resume_from=str(tmp_path / "checkpoint.bin"))
