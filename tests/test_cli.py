"""Command-line surface: exit codes, artifacts, determinism."""

import csv
import fcntl
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnrslab.cli as cli_mod
import nnrslab.metrics as metrics_mod
import nnrslab.trainer as trainer_mod
from nnrslab.arrayio import load_arrays, save_arrays
from nnrslab.cli import main
from nnrslab.metrics import ScoreReport, kl_decomposition, reports_to_csv, ToyChain
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


# what index writes, in the order it writes them
_INDEX_FILES = ("vocab.tsv", "neighbors.bin", "neighbors.csv",
                "transitions.bin", "transitions.csv", "stats.json")


class TestIndex:
    def _run(self, corpus, embeddings, out_dir):
        return main(["index", "--corpus", corpus, "--embeddings", embeddings,
                     "--dim", "4", "--out-dir", str(out_dir), "--k", "3"])

    def test_writes_valid_tables(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        assert self._run(corpus, embeddings, out) == 0
        capsys.readouterr()
        table = load_arrays(out / "neighbors.bin")
        trans = load_arrays(out / "transitions.bin")
        assert sorted(table) == ["flagged", "ids", "k", "probs", "sims", "tau"]
        assert sorted(trans) == ["flagged", "ids", "k", "probs"]
        for arrays in (table, trans):
            assert arrays["k"] == 3 and arrays["ids"].shape == arrays["probs"].shape
            np.testing.assert_allclose(arrays["probs"].sum(axis=1), 1.0, atol=1e-9)
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["k"] == 3 and stats["vocab_size"] == len(table["ids"])
        assert sum(stats["sim_histogram"]["counts"]) == table["sims"].size
        assert (out / "vocab.tsv").exists()
        assert (out / "neighbors.csv").exists()
        assert not (out / ".lock").exists()  # released

    def test_rerun_byte_identical(self, corpus, embeddings, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(corpus, embeddings, a) == 0
        assert self._run(corpus, embeddings, b) == 0
        capsys.readouterr()
        for name in _INDEX_FILES:
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
        with open(out / ".lock", "w") as held:  # another open file: flock refuses it
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert self._run(corpus, embeddings, out) == 2
            assert "is locked" in capsys.readouterr().err
        assert not (out / "neighbors.bin").exists()

    def test_lock_holding_own_pid_does_not_refuse(self, corpus, embeddings, tmp_path, capsys):
        # a run restarted under the pid of the run that left the .lock
        out = tmp_path / "index"
        out.mkdir()
        (out / ".lock").write_text("%d\n" % os.getpid())
        assert self._run(corpus, embeddings, out) == 0
        assert not (out / ".lock").exists()
        capsys.readouterr()

    def test_unreadable_lock_refuses_nothing(self, corpus, embeddings, tmp_path, capsys):
        out = tmp_path / "index"
        out.mkdir()
        for text in ("not a pid\n", "", "0\n", "-1\n"):  # nothing reads it
            (out / ".lock").write_text(text)
            assert self._run(corpus, embeddings, out) == 0
            assert not (out / ".lock").exists()
        capsys.readouterr()

    def test_lock_removes_killed_writes_temporary_files_only(self, corpus, embeddings,
                                                              tmp_path, capsys):
        out = tmp_path / "index"
        out.mkdir()
        left = ["stats.json.4242.tmp", "checkpoint.bin.7.tmp"]  # arrayio.replacing's names
        kept = ["notes.tmp", "stats.json.tmp", "a.b.tmp", "x.12.tmpx", "x.12a.tmp", ".12.tmp"]
        for name in left + kept:
            (out / name).write_text("x")
        assert self._run(corpus, embeddings, out) == 0
        assert sorted(p.name for p in out.glob("*tmp*")) == sorted(kept)
        capsys.readouterr()

    @staticmethod
    def _lock_in_child(path, text):
        """A child process that holds the flock on `path`, having written
        `text` there, until a line arrives on its stdin; it then dies by
        os._exit, closing nothing itself."""
        child = subprocess.Popen([sys.executable, "-c", (
            "import fcntl, os, sys\n"
            "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY | os.O_TRUNC)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "os.write(fd, sys.argv[2].encode())\n"
            "print('locked', flush=True)\n"
            "sys.stdin.readline()\n"
            "os._exit(0)\n"), str(path), text],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        assert child.stdout.readline() == "locked\n"
        return child

    def test_lock_held_by_live_child_refuses(self, corpus, embeddings, tmp_path, capsys):
        # whatever the file says: here the pid of a process already reaped
        out = tmp_path / "index"
        out.mkdir()
        reaped = subprocess.Popen([sys.executable, "-c", "pass"])
        assert reaped.wait(timeout=60) == 0
        with self._lock_in_child(out / ".lock", "%d\n" % reaped.pid) as child:
            assert self._run(corpus, embeddings, out) == 2
            assert "is locked" in capsys.readouterr().err
            child.communicate("\n", timeout=60)
        assert child.returncode == 0
        assert not (out / "neighbors.bin").exists()

    def test_lock_free_once_holder_killed(self, corpus, embeddings, tmp_path, capsys):
        # the killed holder's pid is now this live process's, as after a restart
        out = tmp_path / "index"
        out.mkdir()
        with self._lock_in_child(out / ".lock", "%d\n" % os.getpid()) as child:
            child.communicate("\n", timeout=60)
        assert child.returncode == 0
        assert (out / ".lock").exists()
        assert self._run(corpus, embeddings, out) == 0
        assert not (out / ".lock").exists()
        assert (out / "neighbors.bin").exists()
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
        (dict(mode="NNRS", nnrs_kind="static", nnrs_start="0.3", nnrs_end="0.3", k="500"),
         "k must be below the vocabulary size"),
        (dict(batch_size="100000"), "corpus too short: 594 ids for batch_size=100000"),
        (dict(bptt_len="100000"), "corpus too short to split off a validation tail"),
        (dict(embeddings="CORPUS"), "malformed embedding line 1: expected 8 values, got 9"),
        (dict(val_corpus="THREE_IDS"), "corpus too short: 3 ids for batch_size=1, bptt_len=10"),
    ], ids=["TPRS-k-500", "min_count-100000", "NNRS-k-500", "batch_size-100000",
            "bptt_len-100000", "corpus-as-embeddings", "val_corpus-3-ids"])
    def test_bad_k_or_min_count_fails_the_run(self, corpus, tmp_path, capsys, bad, message):
        # found while reading the inputs, in the setup phase before the lock:
        # exit 2, nothing written
        files = {"CORPUS": corpus,
                 "THREE_IDS": write_lines(tmp_path / "val.txt", ["w0 w1"])}  # + <eos>
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir,
                               **{key: files.get(value, value) for key, value in bad.items()})
        assert main(["train", "--config", config]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

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
        assert "the run ends at epoch 1, before the checkpoint's last epoch, 2" in captured.err
        assert "trained" not in captured.out
        segment = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))[
            "segments"][-1]
        assert segment["exit_status"] == 3 and segment["last_epoch"] is None
        assert segment["stop_after"] == 1
        assert (checkpoint.read_bytes(), (out_dir / "records.csv").read_bytes()) == saved

        # at the checkpoint's last epoch, the resume trains nothing and exits 0
        assert main(["train", "--config", config, "--resume", str(checkpoint),
                     "--stop-after", "2"]) == 0
        assert "trained 2 epoch(s)" in capsys.readouterr().out
        assert (checkpoint.read_bytes(), (out_dir / "records.csv").read_bytes()) == saved

    def test_runtime_failure_exit_code(self, corpus, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir)
        monkeypatch.setattr(trainer_mod, "_train_epoch",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["train", "--config", config]) == 3
        capsys.readouterr()
        segment = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))[
            "segments"][-1]
        assert segment["exit_status"] == 3 and segment["error"] == "boom"

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


@pytest.fixture(scope="module")
def drawn_inputs(tmp_path_factory):
    """(scratch dir, corpus files by name) for TestTrainInputs."""
    root = tmp_path_factory.mktemp("drawn")
    return root, {
        "cycle": write_lines(root / "cycle.txt", bigram_cycle_lines()),
        "empty": write_lines(root / "empty.txt", []),
        "one-line": write_lines(root / "one.txt", ["w0 w1 w2"]),
        "all-oov": write_lines(root / "oov.txt", ["x y z"] * 20),  # no training word
    }


_BAD_NUMBERS = ["0", "-1", "nan", "inf", "1e300"]
# per key: values a run can take, then values it may refuse. hidden and dim
# get no huge value, which would ask for that much memory
_DRAWN_VALUES = {
    "epochs": ["1", "2", "1000000000"] + _BAD_NUMBERS,
    "batch_size": ["1", "3", "1000000000"] + _BAD_NUMBERS,
    "bptt_len": ["2", "7", "1000000000"] + _BAD_NUMBERS,
    "hidden": ["2", "6", "0", "-1", "nan", "inf"],
    "dim": ["1", "5", "0", "-1", "nan", "inf"],
    "k": ["0", "2", "1000000000"] + _BAD_NUMBERS,
    "min_count": ["2", "60", "1000000000"] + _BAD_NUMBERS,
    "base_lr": ["0.5", "1e300"] + _BAD_NUMBERS,
    "clip": ["0", "1"] + _BAD_NUMBERS,
    "momentum": ["0.5", "1"] + _BAD_NUMBERS,
    "tau_init": ["1.5"] + _BAD_NUMBERS,
    "val_fraction": ["0.5", "0.99", "1"] + _BAD_NUMBERS,
    "gumbel_beta": ["0.5", "1", "2"] + _BAD_NUMBERS,
    "ss_end": ["0.5", "1", "2"] + _BAD_NUMBERS,
    "nnrs_end": ["0.5", "1", "2"] + _BAD_NUMBERS,
    "mode": ["MLE", "SS", "NNRS", "TPRS", "SS_NNRS", "GSNS", ""],
    "corpus": ["cycle", "empty", "one-line", "all-oov"],
    "val_corpus": ["cycle", "empty", "one-line", "all-oov"],
}


@st.composite
def _drawn_config(draw):
    """A few keys of a tiny one-epoch config set to drawn values."""
    keys = draw(st.lists(st.sampled_from(sorted(_DRAWN_VALUES)), max_size=3, unique=True))
    return {key: draw(st.sampled_from(_DRAWN_VALUES[key])) for key in keys}


class TestTrainInputs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a diverging run overflows
    @settings(max_examples=60, deadline=None)
    @given(drawn=_drawn_config())
    @example(drawn={"base_lr": "1e300"})  # diverges in its epoch
    @example(drawn={"val_corpus": "all-oov", "mode": "SS_NNRS", "ss_end": "0.5",
                    "nnrs_end": "0.5"})
    def test_exit_code_and_what_it_leaves(self, drawn_inputs, drawn):
        # exit 2 writes nothing. With no checkpoint to resume, exit 3 is an
        # epoch that failed or diverged, closing its manifest segment with
        # the error. Exit 0 recorded its one epoch
        root, corpora = drawn_inputs
        run_dir = Path(tempfile.mkdtemp(dir=root))
        out_dir = run_dir / "run"
        fields = {"corpus": "cycle", "epochs": "1", "batch_size": "2", "bptt_len": "5",
                  "hidden": "4", "dim": "3", **drawn}
        for key in ("corpus", "val_corpus"):
            if key in fields:
                fields[key] = corpora[fields[key]]
        config = _write_config(run_dir / "run.cfg", fields.pop("corpus"), out_dir, **fields)
        code = main(["train", "--config", config, "--stop-after", "1"])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out_dir.exists()
            return
        segment = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))[
            "segments"][-1]
        assert segment["exit_status"] == code
        if code == 3:
            assert "epoch 1" in segment["error"]
        else:
            assert segment["last_epoch"] == 1 and segment["error"] is None
            assert [r.epoch for r in records_from_csv(out_dir / "records.csv")] == [1]


    @pytest.mark.parametrize("case", ["model-too-large", "out_dir-is-a-file", "resume-missing",
                                      "index-out_dir-is-a-file"])
    def test_setup_failure_exits_2_and_writes_nothing(self, corpus, embeddings, tmp_path,
                                                      capsys, monkeypatch, case):
        # found outside the config and input checks, still before out_dir is
        # made: exit 2, and no directory, manifest or lock
        out_dir = tmp_path / "run"
        argv = ["train", "--config", _write_config(tmp_path / "run.cfg", corpus, out_dir)]
        message = "File exists"
        if case == "model-too-large":  # as numpy refuses an allocation; none is made
            monkeypatch.setattr(trainer_mod.LstmLm, "init",
                                mock.Mock(side_effect=MemoryError("Unable to allocate 87.3 TiB")))
            message = "Unable to allocate"
        elif case == "resume-missing":
            argv += ["--resume", str(tmp_path / "missing.bin")]
            message = "No such file or directory"
        elif case == "index-out_dir-is-a-file":
            argv = ["index", "--corpus", corpus, "--embeddings", embeddings, "--dim", "4",
                    "--out-dir", str(out_dir), "--k", "3"]
        if "out_dir-is-a-file" in case:
            out_dir.write_text("not a directory", encoding="utf-8")
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["cycle.txt", "emb.txt", "run.cfg"] + (["run"] if out_dir.exists() else []))


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


_KILLED = 137
# per run: its config keys, then the arguments of each `train` invocation
# it makes; an invocation resumes from checkpoint.bin when there is one
_KILL_RUNS = {
    "SS_NNRS-trace": (dict(mode="SS_NNRS", ss_kind="linear", ss_end="0.5", nnrs_kind="static",
                           nnrs_start="0.2", nnrs_end="0.2", predict_sample="true",
                           tau_init="1.5"), [["--trace"]]),
    "GSNS-momentum": (dict(mode="GSNS", nnrs_kind="static", nnrs_start="0.3", nnrs_end="0.3",
                           k="3", momentum="0.3"), [[]]),
    "NNRS-stop-after-2": (dict(mode="NNRS", nnrs_kind="static", nnrs_start="0.3",
                               nnrs_end="0.3", momentum="0.3", tau_init="1.5"),
                          [["--trace", "--stop-after", "2"], ["--trace"]]),
}


def _watch_writes(monkeypatch, watch):
    """Route every os.replace and every decisions.csv flush through
    watch(label, write), where write() does it and label names the file."""
    real_replace, real_flush = os.replace, trainer_mod._Trace.flush
    monkeypatch.setattr(os, "replace", lambda src, dst: watch(
        "replace " + os.path.basename(dst), lambda: real_replace(src, dst)))
    monkeypatch.setattr(trainer_mod._Trace, "flush", lambda self: watch(
        "flush " + trainer_mod.TRACE_FILE, lambda: real_flush(self)))


def _kill_child_at(monkeypatch, n, when, body, point) -> int:
    """Fork a child that runs body() until its n-th write seen by
    _watch_writes and dies by os._exit just `when` ("before" or "after")
    that write, so a temporary file is left behind as a real kill leaves
    it; the child's pid, once it has died there."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            count = itertools.count()

            def kill(label, write):
                at = next(count) == n
                if at and when == "before":
                    os._exit(_KILLED)
                write()
                if at and when == "after":
                    os._exit(_KILLED)

            _watch_writes(monkeypatch, kill)
            body()
            code = 0
        finally:
            os._exit(code)
    assert _wait_for_child(pid) == _KILLED, point
    return pid


def _wait_for_child(pid, seconds=60.0) -> int:
    """The exit code of the forked child `pid`, killed after `seconds`."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("child %d did not end in %g s" % (pid, seconds))
        time.sleep(0.001)


class TestKillPoints:
    @pytest.mark.parametrize("run", sorted(_KILL_RUNS))
    def test_killed_at_any_write_resumes_as_uninterrupted(self, corpus, tmp_path, capsys,
                                                          monkeypatch, run):
        # a 3-epoch run killed just before and just after each of its file
        # replaces and trace flushes (a resume's own writes included) by
        # os._exit in a forked child, so that a temporary file is left
        # behind as a real kill leaves it, then run again from there: its
        # run files equal those of the run never killed, and the lock the
        # rerun took removed the temporary file
        keys, invocations = _KILL_RUNS[run]
        run_dir, ref_dir = tmp_path / "run", tmp_path / "ref"
        config = _write_config(tmp_path / "run.cfg", corpus, run_dir, **keys)
        checkpoint = run_dir / "checkpoint.bin"

        def invoke(args):
            resume = ["--resume", str(checkpoint)] if checkpoint.exists() else []
            return main(["train", "--config", config] + args + resume)

        def run_all():
            for args in invocations:
                invoke(args)

        writes, ends = [], []  # every write's label; each invocation's end in it

        def record(label, write):
            writes.append(label)
            write()

        with monkeypatch.context() as patch:
            _watch_writes(patch, record)
            for args in invocations:
                assert invoke(args) == 0
                ends.append(len(writes))
        run_dir.rename(ref_dir)

        for n, label in enumerate(writes):
            for when in ("before", "after"):
                point = (n, label, when)
                pid = _kill_child_at(monkeypatch, n, when, run_all, point)
                if when == "before" and label.startswith("replace"):
                    assert list(run_dir.glob("*.%d.tmp" % pid)), point

                killed_in = sum(n >= end for end in ends)
                for args in invocations[killed_in:]:
                    assert invoke(args) == 0, point
                assert not list(run_dir.glob("*.tmp")), point  # the rerun's lock removed it
                assert (records_from_csv(run_dir / "records.csv")
                        == records_from_csv(ref_dir / "records.csv")), point
                assert_same_checkpoint(checkpoint, ref_dir / "checkpoint.bin")
                if any("--trace" in args for args in invocations):
                    assert ((run_dir / "decisions.csv").read_bytes()
                            == (ref_dir / "decisions.csv").read_bytes()), point
                shutil.rmtree(run_dir)
        capsys.readouterr()

    def test_killed_index_reruns_as_unkilled(self, corpus, embeddings, tmp_path, capsys,
                                             monkeypatch):
        # index killed just before and just after each of its file replaces,
        # then run again: its outputs equal those of the run never killed,
        # and the lock the rerun took removed the temporary file
        out, ref = tmp_path / "index", tmp_path / "ref"
        args = ["index", "--corpus", corpus, "--embeddings", embeddings, "--dim", "4",
                "--out-dir", str(out), "--k", "3"]
        writes = []

        def record(label, write):
            writes.append(label)
            write()

        with monkeypatch.context() as patch:
            _watch_writes(patch, record)
            assert main(args) == 0
        assert writes == ["replace " + name for name in _INDEX_FILES]
        out.rename(ref)

        for n, label in enumerate(writes):
            for when in ("before", "after"):
                point = (n, label, when)
                pid = _kill_child_at(monkeypatch, n, when, lambda: main(args), point)
                if when == "before":
                    assert list(out.glob("*.%d.tmp" % pid)), point
                assert main(args) == 0, point
                assert not list(out.glob("*.tmp")), point
                for name in _INDEX_FILES:
                    assert (out / name).read_bytes() == (ref / name).read_bytes(), point
                shutil.rmtree(out)
        capsys.readouterr()


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
        # the params member gone, the velocity and the meta kept
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1, momentum=0.3)
        assert main(["train", "--config", config]) == 0
        arrays = load_arrays(out_dir / "checkpoint.bin")
        del arrays["params"]
        partial = tmp_path / "partial.bin"
        save_arrays(partial, **arrays)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(partial), "--out",
                     str(tmp_path / "r.csv")]) == 2
        assert "partial.bin holds no model parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("member", ["params", "velocity"])
    def test_checkpoint_member_of_wrong_size_is_usage_error(self, corpus, tmp_path, capsys,
                                                            member):
        out_dir = tmp_path / "run"
        config = _write_config(tmp_path / "run.cfg", corpus, out_dir, epochs=1, momentum=0.3)
        assert main(["train", "--config", config]) == 0
        arrays = load_arrays(out_dir / "checkpoint.bin")
        size = arrays[member].size
        arrays[member] = arrays[member][:-3]
        cut = tmp_path / "cut.bin"
        save_arrays(cut, **arrays)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(cut), "--out", str(tmp_path / "r.csv")]) == 2
        assert ("cut.bin: checkpoint member %s is a (%d,) float64 array, not the layout's "
                "(%d,) float64 vector" % (member, size - 3, size)) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

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
