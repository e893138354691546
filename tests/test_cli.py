"""Command-line surface: exit codes, artifacts, determinism."""

import csv
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import nnrslab.cli as cli_mod
import nnrslab.metrics as metrics_mod
import nnrslab.trainer as trainer_mod
from nnrslab.arrayio import load_arrays, save_arrays
from nnrslab.cli import main
from nnrslab.metrics import ScoreReport, kl_decomposition, reports_to_csv, ToyChain
from nnrslab.neighbors import NeighborTable, TransitionTable, load_table
from nnrslab.schedules import Schedule
from nnrslab.trainer import EpochRecord, load_checkpoint, records_from_csv, records_to_csv
from synth import assert_same_checkpoint, bigram_cycle_lines, write_lines


@pytest.fixture()
def corpus(tmp_path):
    return write_lines(tmp_path / "cycle.txt", bigram_cycle_lines())


@pytest.fixture()
def embeddings(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for i in range(10):
        vec = rng.normal(size=4)
        lines.append("w%d " % i + " ".join(repr(float(v)) for v in vec))
    return write_lines(tmp_path / "emb.txt", lines)


def _write_config(path, corpus, out_dir, **overrides):
    fields = {"corpus": corpus, "out_dir": out_dir, "epochs": 3,
              "batch_size": 4, "bptt_len": 10, "hidden": 16, "dim": 8,
              "base_lr": 1.0, "seed": 7}
    fields.update(overrides)
    path.write_text("".join("%s = %s\n" % kv for kv in fields.items()),
                    encoding="utf-8")
    return str(path)


def _child_env():
    """The environment for a child `python -m nnrslab.cli`, which does not
    inherit pytest's pythonpath setting."""
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))


_TRACED_POLICIES = pytest.mark.parametrize("policy", [
    dict(mode="SS_NNRS", ss_kind="linear", ss_end="0.5", nnrs_kind="static",
         nnrs_start="0.2", nnrs_end="0.2", predict_sample="true", momentum="0.3",
         tau_init="1.5"),  # off the clamp, so tau moves every epoch
    dict(mode="GSNS", nnrs_kind="static", nnrs_start="0.3", nnrs_end="0.3", k="3"),
], ids=["SS_NNRS", "GSNS"])


class TestEntryPoint:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_module_invocation(self):
        out = subprocess.run([sys.executable, "-m", "nnrslab.cli", "--version"],
                             capture_output=True, text=True, env=_child_env())
        assert out.returncode == 0

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestIndex:
    def _run(self, corpus, embeddings, out_dir):
        return main(["index", "--corpus", corpus, "--embeddings", embeddings,
                     "--dim", "4", "--out-dir", str(out_dir), "--k", "3"])

    def test_writes_valid_tables(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        assert self._run(corpus, embeddings, out) == 0
        capsys.readouterr()
        table = load_table(out / "neighbors.bin")
        assert isinstance(table, NeighborTable) and table.k == 3
        trans = load_table(out / "transitions.bin")
        assert isinstance(trans, TransitionTable)
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["k"] == 3 and stats["vocab_size"] == len(table.ids)
        assert sum(stats["sim_histogram"]["counts"]) == table.sims.size
        assert (out / "vocab.tsv").exists()
        assert (out / "neighbors.csv").exists()
        assert not (out / ".lock").exists()  # released

    def test_rerun_byte_identical(self, corpus, embeddings, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(corpus, embeddings, a) == 0
        assert self._run(corpus, embeddings, b) == 0
        capsys.readouterr()
        for name in ("vocab.tsv", "neighbors.bin", "neighbors.csv",
                     "transitions.bin", "transitions.csv", "stats.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_k_is_usage_error(self, corpus, embeddings, tmp_path, capsys):
        code = main(["index", "--corpus", corpus, "--embeddings", embeddings,
                     "--dim", "4", "--out-dir", str(tmp_path / "x"), "--k", "0"])
        assert code == 2
        capsys.readouterr()

    def test_no_word_at_min_count_is_usage_error(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["index", "--corpus", corpus, "--embeddings", embeddings,
                     "--dim", "4", "--out-dir", str(out), "--min-count", "100000"])
        assert code == 2
        assert "no corpus word besides <unk> and <eos> occurs min_count = 100000 times" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_missing_corpus_is_usage_error(self, embeddings, tmp_path, capsys):
        code = main(["index", "--corpus", str(tmp_path / "nope.txt"),
                     "--embeddings", embeddings, "--dim", "4",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        capsys.readouterr()

    def test_locked_dir_is_usage_error(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        out.mkdir()
        (out / ".lock").write_text("%d\n" % os.getpid())  # a live owner
        assert self._run(corpus, embeddings, out) == 2
        capsys.readouterr()

    def test_unreadable_lock_is_usage_error(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        out.mkdir()
        for text in ("not a pid\n", "", "0\n", "-1\n"):
            (out / ".lock").write_text(text)
            assert self._run(corpus, embeddings, out) == 2
            assert (out / ".lock").read_text() == text
        capsys.readouterr()

    def test_lock_of_other_users_process_is_usage_error(self, corpus, embeddings, tmp_path,
                                                        capsys, monkeypatch):
        out = tmp_path / "index"
        out.mkdir()
        (out / ".lock").write_text("4242\n")

        def kill(pid, sig):
            raise PermissionError("not permitted")  # alive, owned by someone else

        monkeypatch.setattr(cli_mod.os, "kill", kill)
        assert self._run(corpus, embeddings, out) == 2
        capsys.readouterr()

    def test_stale_lock_is_replaced(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        out.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0  # reaped: its pid names no process
        (out / ".lock").write_text("%d\n" % child.pid)
        assert self._run(corpus, embeddings, out) == 0
        assert not (out / ".lock").exists()
        assert (out / "neighbors.bin").exists()
        capsys.readouterr()


class TestTrain:
    def test_mle_artifacts(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        assert main(["train", "--config", config]) == 0
        capsys.readouterr()
        records = records_from_csv(out_dir / "records.csv")
        assert [r.epoch for r in records] == [1, 2, 3]
        assert (out_dir / "checkpoint.bin").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7
        assert corpus in manifest["inputs"] and config in manifest["inputs"]
        assert len(manifest["inputs"][corpus]) == 64  # sha256 hex
        assert "records.csv" in manifest["outputs"]
        assert not (out_dir / ".lock").exists()

    def test_curriculum_columns_match_schedules(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(
            tmp_path / "run.cfg", corpus, out_dir, mode="SS_NNRS", epochs=4,
            ss_kind="linear", ss_start="0", ss_end="0.5",
            nnrs_kind="static", nnrs_start="0", nnrs_end="0.2")
        assert main(["train", "--config", config]) == 0
        capsys.readouterr()
        ss = Schedule("linear", 0.0, 0.5)
        for rec in records_from_csv(out_dir / "records.csv"):
            assert rec.epsilon == pytest.approx(ss.rate(rec.epoch / 4))
            assert rec.gamma == pytest.approx(0.2)

    def test_unknown_config_key_is_usage_error(self, corpus, tmp_path, capsys):
        config = _write_config(tmp_path / "run.cfg", corpus, tmp_path / "run",
                               momentum_rate="0.5")
        assert main(["train", "--config", config]) == 2
        assert "momentum_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["1.5", "0"])
    def test_bad_gumbel_beta_is_usage_error(self, corpus, tmp_path, capsys, beta):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, mode="GSNS",
                               nnrs_kind="static", nnrs_start="0.3", nnrs_end="0.3",
                               gumbel_beta=beta)
        assert main(["train", "--config", config]) == 2
        assert "gumbel_beta must be in (0, 1]" in capsys.readouterr().err
        assert not (out_dir / "records.csv").exists()
        assert not (out_dir / "checkpoint.bin").exists()

    @pytest.mark.parametrize("bad", [
        dict(tau_init="0"), dict(base_lr="nan"), dict(clip="nan"),
        dict(mode="NNRS", nnrs_kind="static", nnrs_start="0.2", nnrs_end="0.2", tau_init="inf"),
    ], ids=["tau_init-0", "base_lr-nan", "clip-nan", "NNRS-tau_init-inf"])
    def test_bad_lr_clip_or_tau_is_usage_error(self, corpus, tmp_path, capsys, bad):
        # refused by the config check, before the lock and the manifest
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, **bad)
        assert main(["train", "--config", config]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (out_dir / "manifest.json").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(mode="TPRS", nnrs_kind="static", nnrs_start="0.3", nnrs_end="0.3", k="500"),
         "k must be below the vocabulary size"),
        (dict(min_count="100000"), "no corpus word besides <unk> and <eos> occurs"),
    ], ids=["TPRS-k-500", "min_count-100000"])
    def test_bad_k_or_min_count_fails_the_run(self, corpus, tmp_path, capsys, bad, message):
        # found while reading the inputs, inside run_training: exit 3, with
        # the manifest segment holding the error, and no epoch run
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, **bad)
        assert main(["train", "--config", config]) == 3
        assert message in capsys.readouterr().err
        segment = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))[
            "segments"][-1]
        assert segment["exit_status"] == 3 and message in segment["error"]
        assert not (out_dir / "records.csv").exists()

    def test_missing_out_dir_is_usage_error(self, corpus, tmp_path, capsys):
        config = _write_config(tmp_path / "run.cfg", corpus, "")
        assert main(["train", "--config", config]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "trace"])
    @pytest.mark.parametrize("stop", ["0", "3"])
    def test_stop_after_out_of_range_is_usage_error(self, corpus, tmp_path, capsys, command,
                                                     stop):
        # epochs = 2: refused before the lock, the manifest or any epoch
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=2)
        assert main([command, "--config", config, "--stop-after", stop]) == 2
        assert "stop_after must be in [1, epochs = 2], got %s" % stop in capsys.readouterr().err
        assert not out_dir.exists()

    def test_resume_matches_uninterrupted(self, corpus, tmp_path, capsys):
        kw = dict(mode="SS_NNRS", epochs="6", ss_kind="linear", ss_end="0.5",
                  nnrs_kind="static", nnrs_end="0.2")
        full_dir = tmp_path / "full"
        assert main(["train", "--config",
                     _write_config(tmp_path / "full.cfg", corpus, full_dir, **kw)]) == 0
        part_dir = tmp_path / "part"
        assert main(["train", "--config",
                     _write_config(tmp_path / "part.cfg", corpus, part_dir, **kw),
                     "--stop-after", "3"]) == 0
        resumed_dir = tmp_path / "resumed"
        assert main(["train", "--config",
                     _write_config(tmp_path / "res.cfg", corpus, resumed_dir, **kw),
                     "--resume", str(part_dir / "checkpoint.bin")]) == 0
        capsys.readouterr()
        assert (records_from_csv(resumed_dir / "records.csv")
                == records_from_csv(full_dir / "records.csv"))

    def test_manifest_records_each_segment(self, corpus, tmp_path, capsys):
        def manifest(out_dir):
            return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))

        fresh_dir = tmp_path / "fresh"
        assert main(["train", "--config",
                     _write_config(tmp_path / "fresh.cfg", corpus, fresh_dir)]) == 0
        (segment,) = manifest(fresh_dir)["segments"]
        assert segment["command"] == "train" and segment["stop_after"] is None
        assert segment["resume_from"] is None and segment["resume_sha256"] is None

        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        assert main(["train", "--config", config, "--stop-after", "1"]) == 0
        first = manifest(out_dir)
        checkpoint = str(out_dir / "checkpoint.bin")
        stopped_sha = cli_mod._sha256(checkpoint)
        assert main(["train", "--config", config, "--resume", checkpoint]) == 0
        capsys.readouterr()
        resumed = manifest(out_dir)
        head, tail = resumed["segments"]
        assert head == first["segments"][0] and head["stop_after"] == 1
        assert tail["resume_from"] == checkpoint and tail["resume_sha256"] == stopped_sha
        assert tail["stop_after"] is None and tail["created_unix"] >= head["created_unix"]
        assert cli_mod._sha256(checkpoint) != stopped_sha  # epochs 2-3 were saved
        del first["segments"], resumed["segments"]
        assert resumed == first  # the first invocation's keys are kept as written

        (out_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        assert main(["train", "--config", config, "--resume", checkpoint]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_manifest_closes_each_segment(self, corpus, tmp_path, capsys, monkeypatch):
        def segments():
            return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["segments"]

        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        assert main(["train", "--config", config, "--stop-after", "1"]) == 0
        (clean,) = segments()
        assert clean["exit_status"] == 0 and clean["last_epoch"] == 1
        assert clean["error"] is None and clean["duration_s"] > 0.0

        # a config of another model shape is refused before any epoch runs
        checkpoint = str(out_dir / "checkpoint.bin")
        wide = _write_config(tmp_path / "wide.cfg", corpus, out_dir, hidden=32)
        assert main(["train", "--config", wide, "--resume", checkpoint]) == 3
        err = capsys.readouterr().err
        assert "lstm1_Wx has shape (8, 64), the config's model (8, 128)" in err
        refused = segments()[-1]
        assert refused["exit_status"] == 3 and refused["last_epoch"] is None
        assert refused["error"] and refused["error"] in err

        # epoch 2 diverges: a DivergenceError, whose records end at epoch 2
        monkeypatch.setattr(trainer_mod, "validate", lambda *args, **kwargs: 1e9)
        assert main(["train", "--config", config, "--resume", checkpoint]) == 3
        capsys.readouterr()
        diverged = segments()[-1]
        assert diverged["exit_status"] == 3 and diverged["last_epoch"] == 2
        assert "exceeded 10x vocabulary size at epoch 2" in diverged["error"]
        assert diverged["resume_from"] == checkpoint and len(segments()) == 3

    def test_resume_past_stop_after_is_refused(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        assert main(["train", "--config", config, "--stop-after", "2"]) == 0
        checkpoint = out_dir / "checkpoint.bin"
        saved = checkpoint.read_bytes(), (out_dir / "records.csv").read_bytes()
        capsys.readouterr()
        assert main(["train", "--config", config, "--resume", str(checkpoint),
                     "--stop-after", "1"]) == 3
        captured = capsys.readouterr()
        assert "stop_after 1 is before the checkpoint's next epoch, 3" in captured.err
        assert "trained" not in captured.out
        segment = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))[
            "segments"][-1]
        assert segment["exit_status"] == 3 and segment["last_epoch"] is None
        assert segment["stop_after"] == 1
        assert (checkpoint.read_bytes(), (out_dir / "records.csv").read_bytes()) == saved

    def test_runtime_failure_exit_code(self, corpus, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path / "run.cfg", corpus, tmp_path / "run")
        monkeypatch.setattr(cli_mod, "run_training",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["train", "--config", config]) == 3
        capsys.readouterr()

    def test_divergence_writes_partial_records(self, corpus, tmp_path, capsys,
                                               monkeypatch):
        # epoch 2's validation perplexity passes 10 |V|: its row is kept,
        # the checkpoint stays at epoch 1
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        real_validate = trainer_mod.validate
        calls = []

        def diverging_validate(*args, **kwargs):
            calls.append(True)
            return real_validate(*args, **kwargs) if len(calls) == 1 else 1e9

        monkeypatch.setattr(trainer_mod, "validate", diverging_validate)
        assert main(["train", "--config", config]) == 3
        assert "exceeded 10x vocabulary size at epoch 2" in capsys.readouterr().err
        records = records_from_csv(out_dir / "records.csv")
        assert [r.epoch for r in records] == [1, 2] and records[1].val_loss == 1e9
        assert load_checkpoint(out_dir / "checkpoint.bin")["records"] == records[:1]

    def test_nan_validation_is_divergence(self, corpus, tmp_path, capsys, monkeypatch):
        # a NaN validation perplexity in epoch 2 ends the run as divergence:
        # exit 3, its row recorded, the checkpoint left at epoch 1
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        real_validate = trainer_mod.validate
        calls = []

        def nan_validate(*args, **kwargs):
            calls.append(True)
            return real_validate(*args, **kwargs) if len(calls) == 1 else float("nan")

        monkeypatch.setattr(trainer_mod, "validate", nan_validate)
        assert main(["train", "--config", config]) == 3
        assert "validation perplexity nan is NaN at epoch 2" in capsys.readouterr().err
        records = records_from_csv(out_dir / "records.csv")
        assert [r.epoch for r in records] == [1, 2] and np.isnan(records[1].val_loss)
        assert load_checkpoint(out_dir / "checkpoint.bin")["records"] == records[:1]

    def test_non_finite_gradient_keeps_completed_records(self, corpus, tmp_path, capsys,
                                                          monkeypatch):
        # a NaN gradient in epoch 2 aborts sgd_step; epoch 1's record survives
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        validated = []
        real_validate, real_backward = trainer_mod.validate, trainer_mod.backward

        def counting_validate(*args, **kwargs):
            validated.append(True)
            return real_validate(*args, **kwargs)

        def poisoned_backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            if validated:
                grads["W_out"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_mod, "validate", counting_validate)
        monkeypatch.setattr(trainer_mod, "backward", poisoned_backward)
        assert main(["train", "--config", config]) == 3
        assert "epoch 2 failed: non-finite gradient" in capsys.readouterr().err
        assert [r.epoch for r in records_from_csv(out_dir / "records.csv")] == [1]
        checkpoint = out_dir / "checkpoint.bin"
        assert [r.epoch for r in load_checkpoint(checkpoint)["records"]] == [1]

        # without the poison, resuming epoch 1 equals an uninterrupted run
        monkeypatch.undo()
        assert main(["train", "--config", config, "--resume", str(checkpoint)]) == 0
        full_dir = tmp_path / "full"
        assert main(["train", "--config",
                     _write_config(tmp_path / "full.cfg", corpus, full_dir)]) == 0
        capsys.readouterr()
        assert (records_from_csv(out_dir / "records.csv")
                == records_from_csv(full_dir / "records.csv"))
        assert_same_checkpoint(checkpoint, full_dir / "checkpoint.bin")


class TestTrace:
    def test_mle_trace_all_teacher(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1)
        assert main(["trace", "--config", config]) == 0
        capsys.readouterr()
        with open(out_dir / "decisions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["source"] == "Teacher" for r in rows)

    def test_trace_is_train_with_trace_on(self, corpus, tmp_path, capsys):
        # the alias takes every train option, --resume included, and the
        # manifest records the command as typed
        policy = dict(mode="SS_NNRS", ss_kind="linear", ss_end="0.5", nnrs_kind="static",
                      nnrs_start="0.2", nnrs_end="0.2")
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        assert main(["train", "--trace", "--config", _write_config(
            tmp_path / "full.cfg", corpus, full_dir, **policy)]) == 0
        part = _write_config(tmp_path / "part.cfg", corpus, part_dir, **policy)
        assert main(["trace", "--config", part, "--stop-after", "1"]) == 0
        assert main(["trace", "--config", part, "--resume", str(part_dir / "checkpoint.bin")]) == 0
        capsys.readouterr()
        assert ((part_dir / "decisions.csv").read_bytes()
                == (full_dir / "decisions.csv").read_bytes())
        assert_same_checkpoint(part_dir / "checkpoint.bin", full_dir / "checkpoint.bin")

        def commands(out_dir):
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            return [manifest["command"]] + [seg["command"] for seg in manifest["segments"]]

        assert commands(part_dir) == ["trace", "trace", "trace"]
        assert commands(full_dir) == ["train", "train"]

    @_TRACED_POLICIES
    def test_resumed_trace_matches_uninterrupted(self, corpus, tmp_path, capsys, policy):
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        assert main(["train", "--trace", "--config", _write_config(
            tmp_path / "full.cfg", corpus, full_dir, epochs=4, **policy)]) == 0
        part = _write_config(tmp_path / "part.cfg", corpus, part_dir, epochs=4, **policy)
        assert main(["train", "--trace", "--config", part, "--stop-after", "2"]) == 0
        assert main(["train", "--trace", "--config", part,
                     "--resume", str(part_dir / "checkpoint.bin")]) == 0
        capsys.readouterr()
        trace = (part_dir / "decisions.csv").read_bytes()
        assert trace == (full_dir / "decisions.csv").read_bytes()
        assert b",Neighbor," in trace
        assert_same_checkpoint(part_dir / "checkpoint.bin", full_dir / "checkpoint.bin")

    @_TRACED_POLICIES
    def test_killed_trace_resumes_as_uninterrupted(self, corpus, tmp_path, capsys, policy):
        # a child killed in the middle of its run leaves rows of the epoch it
        # was in, possibly a torn one; the resumed trace must not repeat them
        epochs = 8
        run_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, run_dir, epochs=epochs,
                               **policy)
        records_path, checkpoint = run_dir / "records.csv", run_dir / "checkpoint.bin"
        child = subprocess.Popen(
            [sys.executable, "-m", "nnrslab.cli", "train", "--trace", "--config", config],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while not records_path.exists():  # written after epoch 1's checkpoint.bin
                assert child.poll() is None, "the child exited before epoch 1 was saved"
                assert time.monotonic() < deadline, "epoch 1 was never saved"
                time.sleep(0.001)
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait(timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert len(records_from_csv(records_path)) < epochs
        with open(run_dir / "decisions.csv", "a", encoding="utf-8", newline="") as fh:
            fh.write("%d,0,0,Neigh" % epochs)  # a torn last line, whatever the kill left

        assert main(["train", "--trace", "--config", config, "--resume", str(checkpoint)]) == 0
        full_dir = tmp_path / "full"
        assert main(["train", "--trace", "--config", _write_config(
            tmp_path / "full.cfg", corpus, full_dir, epochs=epochs, **policy)]) == 0
        capsys.readouterr()
        assert records_from_csv(records_path) == records_from_csv(full_dir / "records.csv")
        assert_same_checkpoint(checkpoint, full_dir / "checkpoint.bin")
        assert ((run_dir / "decisions.csv").read_bytes()
                == (full_dir / "decisions.csv").read_bytes())


class TestEval:
    def test_memorization_bleu_100(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir,
                               epochs=20, base_lr="5.0", hidden=32, dim=16)
        assert main(["train", "--config", config]) == 0
        report = tmp_path / "report.csv"
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
                     "--out", str(report), "--metrics", "ppl,bleu,wmd"]) == 0
        capsys.readouterr()
        with open(report, newline="", encoding="utf-8") as fh:
            values = {row["metric"]: float(row["value"])
                      for row in csv.DictReader(fh)}
        assert values["bleu4"] == pytest.approx(100.0, abs=1e-6)
        assert values["ppl"] < 1.3
        assert 0.0 <= values["wmd"] <= 1.0

        ppl_only = tmp_path / "ppl.csv"
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
                     "--out", str(ppl_only), "--metrics", "ppl"]) == 0
        capsys.readouterr()
        with open(ppl_only, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["metric"], float(r["value"])) for r in rows] == [("ppl", values["ppl"])]

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", "x.bin", "--out",
                     str(tmp_path / "r.csv"), "--metrics", "rouge"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--batch-size", "--prefix-len"])
    def test_non_positive_batch_or_prefix_is_usage_error(self, corpus, tmp_path, capsys, flag):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1)
        assert main(["train", "--config", config]) == 0
        report = tmp_path / "r.csv"
        args = ["eval", "--checkpoint", str(out_dir / "checkpoint.bin"), "--out", str(report),
                "--metrics", "ppl,bleu", flag]
        for value in ("0", "-2"):
            capsys.readouterr()
            assert main(args + [value]) == 2
            assert "must be >= 1" in capsys.readouterr().err
            assert not report.exists()
        assert main(args + ["1"]) == 0
        capsys.readouterr()

    def test_checkpoint_without_parameters_is_usage_error(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1)
        assert main(["train", "--config", config]) == 0
        meta_only = tmp_path / "meta_only.bin"
        save_arrays(meta_only, meta=load_arrays(out_dir / "checkpoint.bin")["meta"])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(meta_only), "--out",
                     str(tmp_path / "r.csv")]) == 2
        assert "holds no model parameters" in capsys.readouterr().err

    def test_checkpoint_missing_a_parameter_is_usage_error(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1)
        assert main(["train", "--config", config]) == 0
        arrays = load_arrays(out_dir / "checkpoint.bin")
        del arrays["param_W_out"]
        partial = tmp_path / "partial.bin"
        save_arrays(partial, **arrays)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(partial), "--out",
                     str(tmp_path / "r.csv")]) == 2
        assert "lacks checkpoint member param_W_out" in capsys.readouterr().err

    @staticmethod
    def _train_with_embeddings(corpus, embeddings, tmp_path):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=2, dim=4,
                               embeddings=embeddings)
        assert main(["train", "--config", config]) == 0
        return str(out_dir / "checkpoint.bin")

    @staticmethod
    def _spy_model_passes(monkeypatch):
        """Names of the model passes evaluate_model runs, in call order."""
        calls = []

        def spy(name, real):
            def called(*args):
                calls.append(name)
                return real(*args)
            return called

        for name in ("validate", "_decode_windows"):
            monkeypatch.setattr(metrics_mod, name, spy(name, getattr(metrics_mod, name)))
        return calls

    @pytest.mark.parametrize("metrics", ["wmd", "ppl,self_wmd"])
    def test_embeddings_file_read_only_for_wmd(self, corpus, embeddings, tmp_path, capsys,
                                               monkeypatch, metrics):
        # only the WMD scores read the config's embeddings file: once it is
        # gone the other metrics report the same bytes, and a WMD metric is
        # refused before any model pass
        checkpoint = self._train_with_embeddings(corpus, embeddings, tmp_path)
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        others = ["eval", "--checkpoint", checkpoint, "--metrics", "ppl,bleu,self_bleu"]
        assert main(others + ["--out", str(before)]) == 0
        os.remove(embeddings)
        assert main(others + ["--out", str(after)]) == 0
        assert after.read_bytes() == before.read_bytes()
        capsys.readouterr()

        calls = self._spy_model_passes(monkeypatch)
        report = tmp_path / "wmd.csv"
        assert main(["eval", "--checkpoint", checkpoint, "--out", str(report),
                     "--metrics", metrics]) == 2
        assert "No such file" in capsys.readouterr().err
        assert calls == [] and not report.exists()

    def test_malformed_embeddings_refused_when_parsed(self, corpus, embeddings, tmp_path,
                                                      capsys, monkeypatch):
        # a malformed line is found when a WMD score parses the file, after
        # decoding; metrics that never read it are not affected
        checkpoint = self._train_with_embeddings(corpus, embeddings, tmp_path)
        with open(embeddings, "a", encoding="utf-8") as fh:
            fh.write("w3 1.0 2.0\n")
        capsys.readouterr()
        calls = self._spy_model_passes(monkeypatch)
        report = tmp_path / "r.csv"
        args = ["eval", "--checkpoint", checkpoint, "--out", str(report)]
        assert main(args + ["--metrics", "ppl,wmd"]) == 2
        assert "malformed embedding line 11" in capsys.readouterr().err
        assert calls == ["validate", "_decode_windows"] and not report.exists()
        assert main(args + ["--metrics", "ppl,bleu"]) == 0
        capsys.readouterr()
        assert report.exists()

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        capsys.readouterr()


class TestSchedule:
    def test_static_table(self, tmp_path, capsys):
        out = tmp_path / "sched.csv"
        assert main(["schedule", "--kind", "static", "--start", "0.2",
                     "--end", "0.2", "--epochs", "40", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        assert all(float(r["rate"]) == 0.2 for r in rows)
        assert rows[0]["epoch"] == "0" and rows[-1]["epoch"] == "40"

    def test_rates_match_oracle(self, tmp_path, capsys):
        out = tmp_path / "sched.csv"
        assert main(["schedule", "--kind", "exponential", "--start", "0",
                     "--end", "0.5", "--epochs", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        sched = Schedule("exponential", 0.0, 0.5)
        with open(out, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                z = float(row["z"])
                assert float(row["rate"]) == pytest.approx(sched.rate(z), abs=1e-12)

    def test_bad_rate_is_usage_error(self, tmp_path, capsys):
        code = main(["schedule", "--kind", "linear", "--start", "0",
                     "--end", "1.5", "--epochs", "10",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        capsys.readouterr()


class TestTableWritersReplace:
    """schedule and kl-diag write through a temporary file renamed into place."""

    @pytest.mark.parametrize("command", ["schedule", "kl-diag"])
    def test_failed_write_keeps_old_file(self, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "out.csv"
        if command == "schedule":
            argv = ["schedule", "--kind", "linear", "--start", "0", "--end", "0.5",
                    "--epochs", "10", "--out", str(out)]
        else:
            chains = []
            for name, trans in (("p", [[0.9, 0.1], [0.2, 0.8]]), ("q", [[0.6, 0.4], [0.5, 0.5]])):
                np.savetxt(tmp_path / ("%s.txt" % name), np.asarray(trans), delimiter=",")
                chains += ["--%s" % name, str(tmp_path / ("%s.txt" % name))]
            argv = ["kl-diag", *chains, "--eps", "0.5", "--gamma", "0.5", "--out", str(out)]
        out.write_bytes(b"old contents\n")
        real_writer = csv.writer

        def failing_writer(fh, *args, **kwargs):
            writer = real_writer(fh, *args, **kwargs)
            rows = []

            class Failing:
                def writerow(self, row):
                    rows.append(row)
                    if len(rows) == 3:  # the header and one row are already written
                        raise OSError("disk full")
                    return writer.writerow(row)

            return Failing()

        monkeypatch.setattr(csv, "writer", failing_writer)
        assert main(argv) == 3
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == b"old contents\n"
        assert not list(tmp_path.glob("*.tmp"))


class TestCsvBytes:
    """The four CSV writers (records, eval reports, schedule, kl-diag) share
    one format: a header row, CRLF line ends, floats as their repr."""

    def test_bytes(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records_to_csv([EpochRecord(1, 0.0, 0.1, 0.5, 12.0, 11.5, 1 / 3, 2.0, wall_time=0.25)],
                       records)
        assert records.read_bytes() == (
            b"epoch,epsilon,gamma,tau,train_loss,val_loss,best,lr,wall_time\r\n"
            b"1,0.0,0.1,0.5,12.0,11.5,0.3333333333333333,2.0,0.25\r\n")

        reports = tmp_path / "reports.csv"
        reports_to_csv([ScoreReport("ppl", "valid", 13.5, "run-a"),
                        ScoreReport("bleu4", "test", np.float64(2 / 3), "")], reports)
        assert reports.read_bytes() == (
            b"metric,split,value,config_id\r\n"
            b"ppl,valid,13.5,run-a\r\n"
            b"bleu4,test,0.6666666666666666,\r\n")

        schedule = tmp_path / "schedule.csv"
        assert main(["schedule", "--kind", "linear", "--start", "0", "--end", "0.5",
                     "--epochs", "3", "--out", str(schedule)]) == 0
        assert schedule.read_bytes() == (
            b"epoch,z,rate\r\n"
            b"0,0.0,0.0\r\n"
            b"1,0.3333333333333333,0.16666666666666666\r\n"
            b"2,0.6666666666666666,0.3333333333333333\r\n"
            b"3,1.0,0.5\r\n")

        p, q = [[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.5, 0.5]]
        chains = []
        for name, trans in (("p", p), ("q", q)):
            np.savetxt(tmp_path / ("%s.txt" % name), np.asarray(trans), delimiter=",")
            chains += ["--%s" % name, str(tmp_path / ("%s.txt" % name))]
        kl = tmp_path / "kl.csv"
        assert main(["kl-diag", *chains, "--eps", "0.25", "--gamma", "0.5",
                     "--out", str(kl)]) == 0
        capsys.readouterr()
        terms = kl_decomposition(ToyChain.from_transitions(np.array(p)),
                                 ToyChain.from_transitions(np.array(q)), 0.25, 0.5)
        names = ("marginal", "ss_teacher", "ss_model", "nnrs_teacher", "nnrs_neighbor", "total")
        assert kl.read_bytes() == b"term,value\r\n" + b"".join(
            b"%s,%s\r\n" % (name.encode(), repr(terms[name]).encode()) for name in names)


class TestKlDiag:
    def _write_chain(self, path, trans):
        np.savetxt(path, np.asarray(trans), delimiter=",")
        return str(path)

    def test_terms_match_library(self, tmp_path, capsys):
        p = [[0.9, 0.1], [0.2, 0.8]]
        q = [[0.6, 0.4], [0.5, 0.5]]
        out = tmp_path / "kl.csv"
        code = main(["kl-diag", "--p", self._write_chain(tmp_path / "p.csv", p),
                     "--q", self._write_chain(tmp_path / "q.csv", q),
                     "--eps", "0.5", "--gamma", "0.5", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["term"] for r in rows] == ["marginal", "ss_teacher", "ss_model",
                                             "nnrs_teacher", "nnrs_neighbor", "total"]
        got = {r["term"]: float(r["value"]) for r in rows}
        expected = kl_decomposition(ToyChain.from_transitions(np.array(p)),
                                    ToyChain.from_transitions(np.array(q)),
                                    0.5, 0.5)
        assert got == pytest.approx(expected)
        assert got["total"] == pytest.approx(
            sum(v for k, v in got.items() if k != "total"))

    def test_bad_chain_is_usage_error(self, tmp_path, capsys):
        bad = self._write_chain(tmp_path / "p.csv", [[0.7, 0.7], [0.5, 0.5]])
        ok = self._write_chain(tmp_path / "q.csv", [[0.6, 0.4], [0.5, 0.5]])
        code = main(["kl-diag", "--p", bad, "--q", ok, "--eps", "0",
                     "--gamma", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        capsys.readouterr()

    def test_nan_chain_is_usage_error(self, tmp_path, capsys):
        # a NaN entry used to print NaN terms, write them and exit 0
        bad = tmp_path / "p.csv"
        bad.write_text("0.5,nan\n0.5,0.5\n", encoding="utf-8")
        ok = self._write_chain(tmp_path / "q.csv", [[0.6, 0.4], [0.5, 0.5]])
        out = tmp_path / "o.csv"
        code = main(["kl-diag", "--p", str(bad), "--q", ok, "--eps", "0.5",
                     "--gamma", "0.5", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()
