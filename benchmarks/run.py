"""nnrslab benchmark: four closed-loop workloads, timed end to end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. One
client starts one nnrslab process at a time (benchmarks/child.py) and
waits for it to exit before starting the next, so with BLAS pinned to
BLAS_THREADS threads the run never uses more threads than that plus an
idle parent. Inputs are generated from --seed in untimed set-up under
.bench_work/, which is removed at the end.

--trace 0 times untraced commands and prints the end-to-end metrics.
--trace 1 alternates untraced and traced commands and prints per-layer
metrics from the traced ones, plus the tracing overhead. Every command's
outputs are checked; the last stdout line is the JSON result. See
benchmarks/README.md for the definition of every metric.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from dataclasses import dataclass
from importlib import metadata

# Set before numpy loads; every child inherits it. One thread keeps runs
# comparable across machines and steadier on a shared one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402
from child import TARGETS  # noqa: E402

SPANS = {target[0] for target in TARGETS}

RUN_LIMIT_S = 170.0  # a run must exit within 180 s
MIN_UNITS = 2        # repeats needed for the determinism checks

# (name, unit, better) - the lists BENCHMARK.json declares
END_TO_END = [
    ("epoch_tok_s", "tok/s", "higher"),
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("val_ppl", "ppl", "lower"),
]
PER_LAYER = [
    ("model.train_step.calls", "count", "lower"), ("model.train_step.s", "s", "lower"),
    ("model.backward.calls", "count", "lower"), ("model.backward.s", "s", "lower"),
    ("model.sgd_step.s", "s", "lower"), ("model.loss_from_cache.s", "s", "lower"),
    ("model.infer_step.calls", "count", "lower"), ("model.infer_step.s", "s", "lower"),
    ("model.decode_step.calls", "count", "lower"), ("model.decode_step.s", "s", "lower"),
    ("model.greedy_or_sample_predict.calls", "count", "lower"),
    ("model.greedy_or_sample_predict.s", "s", "lower"),
    ("trainer.epoch.s", "s", "lower"),
    ("trainer.validate.calls", "count", "lower"), ("trainer.validate.s", "s", "lower"),
    ("trainer.validate.tok_s", "tok/s", "higher"),
    ("trainer.train_windows.s", "s", "lower"),
    ("trainer.save_checkpoint.s", "s", "lower"),
    ("trainer.model_from_checkpoint.s", "s", "lower"),
    ("trainer.make_batches.s", "s", "lower"),
    ("trainer.hot_share", "frac", "higher"),
    ("policy.decide_batch_positions.calls", "count", "lower"),
    ("policy.decide_batch_positions.s", "s", "lower"),
    ("policy.gumbel_sample.calls", "count", "lower"), ("policy.gumbel_sample.s", "s", "lower"),
    ("policy.gumbel_update.s", "s", "lower"),
    ("policy.update_temperature.calls", "count", "lower"),
    ("policy.src.teacher", "count", "lower"), ("policy.src.prediction", "count", "lower"),
    ("policy.src.neighbor", "count", "lower"),
    ("policy.src_expected.teacher", "count", "lower"),
    ("policy.src_expected.prediction", "count", "lower"),
    ("policy.src_expected.neighbor", "count", "lower"),
    ("neighbors.sample_neighbor.calls", "count", "lower"),
    ("neighbors.sample_neighbor.s", "s", "lower"),
    ("neighbors.sample_neighbor.noop_frac", "frac", "lower"),
    ("neighbors.build_neighbor_table.s", "s", "lower"),
    ("neighbors.build_neighbor_table.peak_mb", "MB", "lower"),
    ("neighbors.build_transition_table.s", "s", "lower"),
    ("neighbors.renormalize.calls", "count", "lower"), ("neighbors.renormalize.s", "s", "lower"),
    ("neighbors.save_table.s", "s", "lower"), ("neighbors.save_table.bytes", "B", "lower"),
    ("neighbors.save_table_csv.s", "s", "lower"), ("neighbors.save_table_csv.bytes", "B", "lower"),
    ("embeddings.load_embeddings.s", "s", "lower"),
    ("embeddings.load_embeddings.rows_per_s", "rows/s", "higher"),
    ("vocab.read_corpus.s", "s", "lower"), ("vocab.build_vocabulary.s", "s", "lower"),
    ("vocab.encode.s", "s", "lower"),
    ("metrics.evaluate_model.calls", "count", "lower"), ("metrics.evaluate_model.s", "s", "lower"),
    ("metrics.bleu4.calls", "count", "lower"), ("metrics.bleu4.s", "s", "lower"),
    ("metrics.self_bleu4.s", "s", "lower"),
    ("metrics.wmd_score.calls", "count", "lower"), ("metrics.wmd_score.s", "s", "lower"),
    ("metrics.self_wmd.s", "s", "lower"),
    ("arrayio.save_arrays.s", "s", "lower"), ("arrayio.save_arrays.bytes", "B", "lower"),
    ("arrayio.load_arrays.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class CheckError(Exception):
    """A command's outputs failed a correctness check."""


# ---------------------------------------------------------------- workloads

@dataclass
class Command:
    """One nnrslab invocation plus the check that reads its outputs.

    `inspect(timing)` returns {"digest", "work_s", "val_ppl", "tokens"}
    or raises CheckError; `clear` is removed before every repeat.
    """

    label: str
    cli_args: list
    clear: str
    inspect: object


def _train_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write("%s = %s\n" % (key, value))


def _train_tokens(n_tokens, batch, bptt, val_fraction=0.1):
    """Target positions one epoch trains on (nnrslab's split and batching)."""
    n_val = max(bptt + 1, int(round(n_tokens * val_fraction)))
    return batch * ((n_tokens - n_val) // batch - 1)


def _checkpoint_digest(path, digest):
    """Digest parameters, optimizer and policy state, wall times dropped;
    returns the checkpoint's meta entry."""
    with zipfile.ZipFile(path) as zf:
        for name in sorted(zf.namelist()):
            data = zf.read(name)
            if name == "meta.npy":
                meta = json.loads(bytes(np.lib.format.read_array(io.BytesIO(data))))
                meta["records"] = [row[:-1] for row in meta["records"]]
                data = json.dumps(meta, sort_keys=True).encode("utf-8")
            digest.update(name.encode("utf-8") + b"\0" + data)
    return meta


def _train_command(label, work, cfg, tokens):
    """A `train` command; `tokens` is the corpus token count."""
    cfg_path = os.path.join(work, label + ".cfg")
    _train_config(cfg_path, **cfg)
    per_epoch = _train_tokens(tokens, int(cfg["batch_size"]), int(cfg["bptt_len"]))

    def inspect(_timing):
        out = cfg["out_dir"]
        with open(os.path.join(out, "records.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != int(cfg["epochs"]):
            raise CheckError("%s: %d records for %s epochs" % (label, len(rows), cfg["epochs"]))
        digest = hashlib.sha256()
        walls = []
        for row in rows:
            walls.append(float(row.pop("wall_time")))
            values = [float(v) for v in row.values()]
            if not all(math.isfinite(v) for v in values):
                raise CheckError("%s: non-finite record %r" % (label, row))
            digest.update(repr(values).encode("ascii"))
        meta = _checkpoint_digest(os.path.join(out, "checkpoint.bin"), digest)
        val_ppl = float(rows[-1]["val_loss"])
        if not val_ppl < meta["vocab_size"]:  # worse than the uniform model
            raise CheckError("%s: validation perplexity %r >= |V|" % (label, val_ppl))
        return {"digest": digest.hexdigest(), "work_s": sum(walls), "val_ppl": val_ppl,
                "tokens": per_epoch * len(rows)}

    return Command(label, ["train", "--config", cfg_path], cfg["out_dir"], inspect)


def _desk_config(work, label, corpus, vectors, epochs, smoke, **extra):
    cfg = dict(corpus=corpus, embeddings=vectors, out_dir=os.path.join(work, label),
               hidden=16 if smoke else 128, dim=64, batch_size=4 if smoke else 16,
               bptt_len=8 if smoke else 35, epochs=epochs, base_lr=0.5, seed=0)
    cfg.update(extra)
    return cfg


def train_desk(work, rng, smoke, _spawn_once):
    """SS_NNRS at desk scale: |V| about 2k, H=128, B=16, T=35."""
    n_types, n_words = (50, 600) if smoke else (2000, 9000)
    corpus, vectors = os.path.join(work, "desk.txt"), os.path.join(work, "desk.vec")
    # the validation split (last 10%) falls inside the held-out tail
    lines = (inputs.zipf_lines(rng, n_words, n_types, cover=True)
             + inputs.zipf_lines(inputs.held_out_rng(), n_words // 8, n_types))
    inputs.write_lines(corpus, lines)
    tokens = inputs.count_tokens(lines)
    inputs.gaussian_vectors(vectors, rng, n_types, 64)
    cfg = _desk_config(work, "desk", corpus, vectors, 1, smoke, mode="SS_NNRS",
                       ss_kind="static", ss_start=0.25, ss_end=0.25,
                       nnrs_kind="static", nnrs_start=0.25, nnrs_end=0.25)
    return [_train_command("desk", work, cfg, tokens)], cfg["batch_size"]


def train_tiny(work, rng, smoke, _spawn_once):
    """Four acceptance-scale runs (criterion-09 shape), one per policy path."""
    corpus, vectors = os.path.join(work, "tiny.txt"), os.path.join(work, "tiny.vec")
    n_lines = 20 if smoke else 300
    # the validation split (last 10%) is exactly the held-out lines
    lines = (inputs.cluster_markov_lines(rng, n_lines - n_lines // 10)
             + inputs.cluster_markov_lines(inputs.held_out_rng(), n_lines // 10))
    inputs.write_lines(corpus, lines)
    tokens = inputs.count_tokens(lines)
    inputs.cluster_vectors(vectors, rng)
    base = dict(corpus=corpus, embeddings=vectors, hidden=32, dim=16, batch_size=4,
                bptt_len=10, base_lr=3.0, epochs=1 if smoke else 3, seed=0, k=4)
    modes = {
        "MLE": {},
        "SS_NNRS": dict(ss_kind="linear", ss_start=0.0, ss_end=0.5, nnrs_kind="static",
                        nnrs_start=0.5, nnrs_end=0.5, predict_sample="true"),
        "TPRS": dict(nnrs_kind="static", nnrs_start=0.5, nnrs_end=0.5),
        "GSNS": dict(nnrs_kind="static", nnrs_start=0.5, nnrs_end=0.5),
    }
    cmds = []
    for mode, extra in modes.items():
        label = "tiny-" + mode.lower()
        cfg = dict(base, mode=mode, out_dir=os.path.join(work, label), **extra)
        cmds.append(_train_command(label, work, cfg, tokens))
    return cmds, base["batch_size"]


def _read_tokens(path):
    """The token stream nnrslab reads: words plus <eos> per line."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                tokens.extend(parts)
                tokens.append("<eos>")
    return tokens


def _check_neighbors(out, vectors_path, rng, n_rows=48):
    """Sampled rows of neighbors.bin are the exact top-k by cosine.

    Checks slot similarities against a recomputation, descending order,
    and that no word outside a row beats its k-th similarity. Words
    without a vector in the file (<unk>, <eos>) are left out.
    """
    with open(os.path.join(out, "vocab.tsv"), encoding="utf-8") as fh:
        index = {line.split("\t")[0]: i for i, line in enumerate(fh)}
    with open(vectors_path, encoding="utf-8") as fh:
        next(fh)
        rows = [line.split() for line in fh]
    word_ids = np.array([index[r[0]] for r in rows])
    unit = np.array([[float(v) for v in r[1:]] for r in rows])
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    with np.load(os.path.join(out, "neighbors.bin")) as data:
        ids, sims, probs = data["ids"], data["sims"], data["probs"]
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
        raise CheckError("index: neighbor probability rows do not sum to 1")
    pos = np.full(ids.shape[0], -1)
    pos[word_ids] = np.arange(word_ids.size)
    for r in rng.choice(word_ids.size, size=min(n_rows, word_ids.size), replace=False):
        w = word_ids[r]
        cos = np.clip(unit @ unit[r], -1.0, 1.0)
        if np.any(np.diff(sims[w]) > 0.0):
            raise CheckError("index: row %d not sorted by similarity" % w)
        known = pos[ids[w]] >= 0
        if np.abs(cos[pos[ids[w][known]]] - sims[w][known]).max() > 1e-9:
            raise CheckError("index: row %d similarities do not match the vectors" % w)
        outside = np.ones(word_ids.size, dtype=bool)
        outside[r] = False
        outside[pos[ids[w][known]]] = False
        if cos[outside].max() > sims[w, -1] + 1e-12:
            raise CheckError("index: row %d misses a nearer neighbor" % w)


def _transition_ppl(out, corpus_path):
    """Perplexity of the corpus under 0.5 * transitions + 0.5 * unigram."""
    with open(os.path.join(out, "vocab.tsv"), encoding="utf-8") as fh:
        pairs = [line.rstrip("\n").split("\t") for line in fh]
    index = {tok: i for i, (tok, _) in enumerate(pairs)}
    counts = np.array([int(c) for _, c in pairs], dtype=np.float64)
    ids = np.array([index[t] for t in _read_tokens(corpus_path)])
    with np.load(os.path.join(out, "transitions.bin")) as data:
        t_ids, t_probs = data["ids"], data["probs"]
    prev, nxt = ids[:-1], ids[1:]
    trans = (t_probs[prev] * (t_ids[prev] == nxt[:, None])).sum(axis=1)
    p = 0.5 * trans + 0.5 * counts[nxt] / counts.sum()
    return float(np.exp(-np.log(p).mean()))


def _tree_digest(out):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode("utf-8") + b"\0" + fh.read())
    return digest.hexdigest()


def index_large(work, rng, smoke, _spawn_once):
    """`index` on a large Zipf corpus: the dense |V|^2 table build."""
    n_types, n_words = (60, 500) if smoke else (7500, 200000)
    corpus, vectors = os.path.join(work, "large.txt"), os.path.join(work, "large.vec")
    lines = inputs.zipf_lines(rng, n_words, n_types, cover=True)
    inputs.write_lines(corpus, lines)
    tokens = inputs.count_tokens(lines)
    inputs.gaussian_vectors(vectors, rng, n_types, 64)
    out = os.path.join(work, "index")
    check_rng = np.random.default_rng(rng.integers(2 ** 32))
    reference = {}

    def inspect(timing):
        digest = _tree_digest(out)
        if not reference:  # first repeat: full check; later ones must match its bytes
            _check_neighbors(out, vectors, check_rng)
            reference.update(digest=digest, val_ppl=_transition_ppl(out, corpus))
        return {"digest": digest, "work_s": timing["main_s"], "val_ppl": reference["val_ppl"],
                "tokens": tokens}

    cmd = Command("index", ["index", "--corpus", corpus, "--embeddings", vectors,
                            "--dim", "64", "--out-dir", out], out, inspect)
    return [cmd], None


EVAL_METRICS = {"ppl": "ppl", "bleu": "bleu4", "wmd": "wmd",
                "self_bleu": "self_bleu4", "self_wmd": "self_wmd"}


def eval_desk(work, rng, smoke, spawn_once):
    """`eval` of a desk-shape checkpoint trained once in set-up."""
    n_types, n_train, n_eval = (50, 600, 400) if smoke else (2000, 9000, 5600)
    corpus, vectors = os.path.join(work, "desk.txt"), os.path.join(work, "desk.vec")
    held_out = os.path.join(work, "held_out.txt")
    inputs.write_lines(corpus, inputs.zipf_lines(rng, n_train, n_types, cover=True))
    inputs.gaussian_vectors(vectors, rng, n_types, 64)
    lines = inputs.zipf_lines(inputs.held_out_rng(), n_eval, n_types)
    inputs.write_lines(held_out, lines)
    tokens = inputs.count_tokens(lines)
    cfg = _desk_config(work, "ckpt", corpus, vectors, 2, smoke, mode="MLE")
    cfg_path = os.path.join(work, "ckpt.cfg")
    _train_config(cfg_path, **cfg)
    spawn_once(["train", "--config", cfg_path])
    checkpoint = os.path.join(cfg["out_dir"], "checkpoint.bin")
    report = os.path.join(work, "report.csv")

    def inspect(timing):
        with open(report, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = {row["metric"]: float(row["value"]) for row in rows}
        if sorted(values) != sorted(EVAL_METRICS.values()):
            raise CheckError("eval: report has %s" % sorted(values))
        if not all(math.isfinite(v) for v in values.values()) or values["ppl"] <= 1.0:
            raise CheckError("eval: bad values %r" % values)
        digest = hashlib.sha256(repr(sorted(values.items())).encode("ascii")).hexdigest()
        return {"digest": digest, "work_s": timing["main_s"], "val_ppl": values["ppl"],
                "tokens": tokens}

    cmd = Command("eval", ["eval", "--checkpoint", checkpoint, "--out", report,
                           "--metrics", ",".join(EVAL_METRICS), "--corpus", held_out],
                  report, inspect)
    return [cmd], None


WORKLOADS = {
    "train-desk": train_desk,
    "train-tiny": train_tiny,
    "index-large": index_large,
    "eval-desk": eval_desk,
}


# ---------------------------------------------------------------- processes

class Runner:
    """Spawns one child at a time and reads its own peak RSS via wait4."""

    def __init__(self, root, work, deadline):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.count = 0
        self.attempted = 0  # measured commands, set-up ones excluded

    def spawn(self, cli_args, traced):
        """Run one command; returns (exit code, wall s, peak RSS MB, timing, spans)."""
        self.count += 1
        stem = os.path.join(self.work, "cmd%04d" % self.count)
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--src", self.src,
                "--timing", stem + ".timing.json"]
        if traced:
            argv += ["--spans", stem + ".spans.json"]
        argv += ["--"] + cli_args
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stem + ".log", "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # WNOWAIT leaves the child unreaped, so the timer can never
                # signal a recycled pid; wait4 then reaps it with its rusage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - started
            finally:
                timer.cancel()
                timer.join()
                if proc.returncode is None and sys.exc_info()[0] is not None:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        timing = spans = None
        if os.path.exists(stem + ".timing.json"):
            with open(stem + ".timing.json", encoding="utf-8") as fh:
                timing = json.load(fh)
        if traced and os.path.exists(stem + ".spans.json"):
            with open(stem + ".spans.json", encoding="utf-8") as fh:
                spans = json.load(fh)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, timing, spans, stem + ".log"

    def spawn_once(self, cli_args):
        """Untimed set-up command that must succeed."""
        code, _wall, _rss, _timing, _spans, log = self.spawn(cli_args, traced=False)
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError("set-up command %s exited %d:\n%s" % (cli_args, code, fh.read()))


def run_unit(runner, commands, traced, references):
    """Run every command of one unit; returns the unit's measurements.

    Raises CheckError on a non-zero exit, a failed output check or output
    that differs from the first repeat of the same command.
    """
    unit = {"wall": 0.0, "setup": 0.0, "work": 0.0, "tokens": 0, "rss": 0.0,
            "val_ppl": [], "import_s": [], "spans": [], "commands": 0}
    for cmd in commands:
        if os.path.isdir(cmd.clear):
            shutil.rmtree(cmd.clear)
        elif os.path.exists(cmd.clear):
            os.remove(cmd.clear)
        runner.attempted += 1
        code, wall, rss, timing, spans, log = runner.spawn(cmd.cli_args, traced)
        unit["commands"] += 1
        if code != 0 or timing is None:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise CheckError("%s exited %s:\n%s" % (cmd.label, code, tail))
        try:
            outcome = cmd.inspect(timing)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckError("%s: unreadable outputs: %r" % (cmd.label, exc)) from exc
        ref = references.setdefault(cmd.label, outcome["digest"])
        if outcome["digest"] != ref:
            raise CheckError("%s: outputs differ from the first repeat (%s run)"
                             % (cmd.label, "traced" if traced else "untraced"))
        unit["wall"] += wall
        unit["work"] += outcome["work_s"]
        unit["setup"] += wall - outcome["work_s"]
        unit["tokens"] += outcome["tokens"]
        unit["rss"] = max(unit["rss"], rss)
        unit["val_ppl"].append(outcome["val_ppl"])
        unit["import_s"].append(timing["import_s"])
        if spans is not None:
            unit["spans"].append(spans)
    return unit


# ---------------------------------------------------------------- metrics

def describe(values):
    """Median plus the highest standard percentile with >= 10 samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10.0:
            rank = min(len(values) - 1, math.ceil(pct / 100.0 * len(values)) - 1)
            out["p%g" % pct] = values[rank]
            break
    return out


def end_to_end(units):
    """Per-unit samples of each end-to-end metric (times are per command)."""
    n = [u["commands"] for u in units]
    return {
        "epoch_tok_s": [u["tokens"] / u["work"] for u in units],
        "run_s": [u["wall"] / c for u, c in zip(units, n)],
        "setup_s": [u["setup"] / c for u, c in zip(units, n)],
        "peak_rss_mb": [u["rss"] for u in units],
        "val_ppl": [statistics.mean(u["val_ppl"]) for u in units],
    }


def layer_totals(spans):
    """name -> {"calls", "s" (self), "incl", counters...} for one command."""
    child = [0.0] * len(spans)
    for parent, _name, start, end, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (_parent, name, start, end, counts) in enumerate(spans):
        agg = totals.setdefault(name, {"calls": 0, "s": 0.0, "incl": 0.0})
        agg["calls"] += 1
        agg["s"] += (end - start) - child[i]
        agg["incl"] += end - start
        for key, value in (counts or {}).items():
            if key == "peak_mb":
                agg[key] = max(agg.get(key, 0.0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return totals


def per_layer(unit, batch):
    """Per-layer metrics of one traced unit (all its commands summed)."""
    totals = {}
    for spans in unit["spans"]:
        for name, agg in layer_totals(spans).items():
            into = totals.setdefault(name, {})
            for key, value in agg.items():
                into[key] = max(into.get(key, 0.0), value) if key == "peak_mb" \
                    else into.get(key, 0) + value

    def get(span, key):
        return totals.get(span, {}).get(key, 0)

    out = {}
    for name, _unit, _better in PER_LAYER:
        span, _, key = name.rpartition(".")
        if span in SPANS:
            out[name] = get(span, key)
    epoch = unit["work"] if batch is not None else 0.0  # only train units have epochs
    controller = sum(get(s, "incl") for s in ("policy.update_temperature", "neighbors.renormalize",
                                               "policy.gumbel_update"))
    val_incl = get("trainer.validate", "incl")
    out["trainer.epoch.s"] = epoch
    out["trainer.validate.tok_s"] = get("trainer.validate", "tokens") / val_incl if val_incl else 0.0
    out["trainer.train_windows.s"] = epoch - val_incl - controller if epoch else 0.0
    hot = sum(get(s, "s") for s in ("model.train_step", "model.backward", "model.infer_step",
                                    "trainer.validate"))
    out["trainer.hot_share"] = hot / epoch if epoch else 0.0
    for src in ("teacher", "prediction", "neighbor"):
        out["policy.src." + src] = get("policy.decide_batch_positions", src) * (batch or 0)
        out["policy.src_expected." + src] = (get("policy.decide_batch_positions", "exp_" + src)
                                             * (batch or 0))
    draws = get("neighbors.sample_neighbor", "calls")
    out["neighbors.sample_neighbor.noop_frac"] = (get("neighbors.sample_neighbor", "noop") / draws
                                                  if draws else 0.0)
    load_s = get("embeddings.load_embeddings", "incl")
    out["embeddings.load_embeddings.rows_per_s"] = (get("embeddings.load_embeddings", "rows") / load_s
                                                    if load_s else 0.0)
    out["cli.import_s"] = statistics.median(unit["import_s"])
    return out


def machine_info():
    np_cfg = np.show_config(mode="dicts")
    blas = np_cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------- driver

@contextlib.contextmanager
def workspace(root, name):
    """A fresh directory under .bench_work/, removed afterwards."""
    if not os.path.isfile(os.path.join(root, "src", "nnrslab", "cli.py")):
        raise FileNotFoundError("no nnrslab source under %s" % os.path.join(root, "src"))
    work = os.path.join(root, ".bench_work", "%s-p%d" % (name, os.getpid()))
    os.makedirs(work)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(work))


def run_workload(name, seed, seconds, trace, root, smoke=False):
    """Set up, measure for `seconds`, check; returns (result, report lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with workspace(root, "%s-s%d" % (name, seed)) as work:
        runner = Runner(root, work, deadline)
        runner.spawn_once(["--version"])  # fills __pycache__ and the page cache
        commands, batch = WORKLOADS[name](work, np.random.default_rng(seed), smoke,
                                          runner.spawn_once)
        return measure(runner, commands, batch, seconds, trace)


def measure(runner, commands, batch, seconds, trace):
    """Closed loop over whole units until `seconds` is used; stops at the
    first failed command. Returns (result object, report lines)."""
    references = {}
    plain, traced = [], []
    error = None
    started = time.monotonic()
    while True:
        sides = (False, True) if trace else (False,)
        try:
            for side in sides:
                (traced if side else plain).append(
                    run_unit(runner, commands, side, references))
        except CheckError as exc:
            error = str(exc)
            break
        elapsed = time.monotonic() - started
        per_round = elapsed / len(plain)
        if len(plain) >= (1 if trace else MIN_UNITS) and elapsed + per_round > seconds:
            break
        if time.monotonic() + per_round > runner.deadline:
            break

    attempted, failed = runner.attempted, int(error is not None)
    metrics = {}
    lines = []
    if plain and not trace:
        samples = end_to_end(plain)
        for name, unit, _better in END_TO_END:
            desc = describe(samples[name])
            metrics[name] = {"value": desc["median"], "unit": unit}
            tail = ", ".join("%s %.6g" % (k, v) for k, v in desc.items() if k.startswith("p"))
            lines.append("%-14s %14.6g %-6s median of n=%d%s"
                         % (name, desc["median"], unit, desc["n"], "; " + tail if tail else ""))
        lines.append("%-14s %14.6g %-6s failed/attempted = %d/%d"
                     % ("failed_frac", failed / attempted, "frac", failed, attempted))
    if traced:
        per_unit = [per_layer(u, batch) for u in traced]
        units = {name: unit for name, unit, _better in PER_LAYER}
        for name in units:
            if name == "trace.overhead_s":
                continue
            metrics[name] = {"value": statistics.median(p[name] for p in per_unit),
                             "unit": units[name]}
        overhead = (statistics.median(end_to_end(traced)["run_s"])
                    - statistics.median(end_to_end(plain)["run_s"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name in units:
            lines.append("%-40s %14.6g %s" % (name, metrics[name]["value"], units[name]))
    if error:
        lines.append("FAILED: " + error)
    result = {"correct": failed == 0 and bool(plain), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="nnrslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (FileNotFoundError, RuntimeError) as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
