"""Training loop: schedules in, policy-driven inputs, records out.

Per epoch: evaluate the replacement schedules at progress
epoch / total_epochs (so the final epoch sits exactly at the schedule
endpoints), train over contiguous BPTT windows with the per-timestep
source mask deciding teacher / prediction / neighbor inputs, then
compute teacher-forced validation perplexity and run the controller
(temperature update + table renormalization, or the Gumbel logits
update in GSNS mode).

Two independent RNG streams are spawned from the config seed: one for
parameter and embedding initialization, one for every policy draw.
Because the streams are separate, a run at epsilon = gamma = 0 is
float-identical to a plain teacher-forcing loop with the policy layer
absent.

run_training writes its run files into `out_dir` after every completed
epoch: checkpoint.bin unless that epoch diverged (its validation
perplexity is NaN or above 10 |V|), then records.csv, so a run that
fails or is killed in epoch N resumes from epoch N - 1, and every epoch
in records.csv is in a checkpoint unless it diverged. It also writes the
optional decision trace, decisions.csv, which on resume loses the rows
of the epochs run again, then is appended to. The CLI's train command
(cli.cmd_train) writes the other two files there: .lock, held while the
command runs, and manifest.json, written before training starts and
again when it ends.

A run holds only what it still reads. Its inputs load in two steps: the
vocabulary and the id splits (_load_run_splits, which draws nothing),
then the embedding matrix (_load_run_embeddings: the file, or draws
from the model stream when there is none). Training takes both at once;
eval parses the matrix only for a WMD score, after decoding. Once the
model and the replacement table are built, run_training drops the
embedding matrix (the model's embed parameters are a copy of it) and
the vocabulary (|V| and its hash are kept). Each epoch's windows run in
one training cache (model.ForwardCache) and one gradient FlatParams,
freed before validation. The only logit rows held across backward and
sgd_step are the window's last step, which the next window feeds back
in modes that take epsilon.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .arrayio import load_arrays, replacing, save_arrays, write_csv
from .embeddings import EmbeddingMatrix, load_embeddings
from .model import (
    ForwardCache,
    LstmLm,
    backward,
    cosine_lr,
    forward_segment,
    greedy_or_sample_predict,
    sgd_step,
    step_logits,
    sub_windows,
    target_log_probs,
)
from .neighbors import (
    build_neighbor_table,
    build_transition_table,
    clamp_tau,
    default_k,
    renormalize,
    sample_neighbors,
)
from .policy import (
    GUMBEL_TAU,
    MODES,
    GumbelLogits,
    PolicyState,
    Source,
    check_mode_rates,
    check_positive_finite,
    decide_batch_positions,
    gumbel_backward,
    gumbel_sample,
    gumbel_update,
    update_temperature,
)
from .schedules import Schedule, rates_for_epoch
from .vocab import build_vocabulary, read_corpus


class DivergenceError(RuntimeError):
    """Validation perplexity blew past 10x vocabulary size or is NaN, or
    an epoch failed part way (a non-finite gradient aborts its SGD step).

    Carries the records of the epochs completed so far as a diagnostic.
    """

    def __init__(self, message: str, records):
        super().__init__(message)
        self.records = records


def _static_zero() -> Schedule:
    return Schedule("static", 0.0, 0.0)


@dataclass
class TrainConfig:
    """One run, fully determined by these fields plus input files."""

    corpus: str
    out_dir: str = ""
    embeddings: str = ""
    val_corpus: str = ""
    epochs: int = 20
    batch_size: int = 8
    bptt_len: int = 35
    mode: str = "MLE"
    ss: Schedule = field(default_factory=_static_zero)
    nnrs: Schedule = field(default_factory=_static_zero)
    base_lr: float = 2.0
    clip: float = 5.0
    momentum: float = 0.0
    seed: int = 0
    k: int = 0  # 0 -> default_k(|V|)
    tau_init: float = 0.1
    gumbel_beta: float = 0.9
    hidden: int = 128
    dim: int = 64
    min_count: int = 1
    val_fraction: float = 0.1
    predict_sample: bool = False
    freeze_embeddings: bool = False

    def check(self) -> None:
        if not self.corpus:
            raise ValueError("corpus path is required")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("batch_size", "bptt_len", "hidden", "dim", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        check_positive_finite("base_lr", self.base_lr)
        if not self.clip >= 0.0:  # a NaN clip would turn clipping off
            raise ValueError("clip must be >= 0, got %g" % self.clip)
        check_positive_finite("tau_init", self.tau_init)
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.k < 0:
            raise ValueError("k must be >= 0 (0 selects the default)")
        if not 0.0 < self.gumbel_beta <= 1.0:
            raise ValueError("gumbel_beta must be in (0, 1], got %g" % self.gumbel_beta)
        check_mode_rates(self.mode,
                         self.ss.start_rate != 0.0 or self.ss.end_rate != 0.0,
                         self.nnrs.start_rate != 0.0 or self.nnrs.end_rate != 0.0)


_SCHEDULE_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.type is Schedule)
_SCHEDULE_PARTS = (("_kind", str), ("_start", float), ("_end", float))
# flat config key -> type: one per field, a Schedule field as its three parts
_CONFIG_KEYS = {f.name + suffix: typ for f in fields(TrainConfig)
                for suffix, typ in (_SCHEDULE_PARTS if f.type is Schedule else [("", f.type)])}


def _parse_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % v)


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from flat string-or-typed values.

    Unknown keys are an error that lists every valid key, so config
    file typos fail loudly.
    """
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(
            "unknown config key(s) %s; valid keys: %s"
            % (", ".join(unknown), ", ".join(sorted(_CONFIG_KEYS)))
        )
    vals = {}
    for key, value in raw.items():
        typ = _CONFIG_KEYS[key]
        vals[key] = _parse_bool(value) if typ is bool else typ(value)
    for name in _SCHEDULE_FIELDS:
        vals[name] = Schedule(vals.pop(name + "_kind", "static"),
                              vals.pop(name + "_start", 0.0),
                              vals.pop(name + "_end", 0.0))
    cfg = TrainConfig(**vals)
    cfg.check()
    return cfg


def config_to_dict(cfg: TrainConfig) -> dict:
    out = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    for name in _SCHEDULE_FIELDS:
        sched = out.pop(name)
        out.update({name + "_kind": sched.kind, name + "_start": sched.start_rate,
                    name + "_end": sched.end_rate})
    return out


def parse_config_file(path) -> TrainConfig:
    """Flat "key = value" lines; # starts a comment; blank lines ok."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
            key, value = (part.strip() for part in text.split("=", 1))
            if key in raw:
                raise ValueError("%s:%d: duplicate key %r" % (path, lineno, key))
            raw[key] = value
    return config_from_dict(raw)


@dataclass
class EpochRecord:
    """One epoch's summary row.

    train_loss and val_loss are perplexities (exp of mean NLL) - the
    controller compares validation perplexity against best, which
    starts at the uniform-model value |V|. tau is the controller state
    after this epoch's update; wall_time is excluded from equality.
    """

    epoch: int
    epsilon: float
    gamma: float
    tau: float
    train_loss: float
    val_loss: float
    best: float
    lr: float
    wall_time: float = field(default=0.0, compare=False)


_RECORD_FIELDS = tuple(f.name for f in fields(EpochRecord))


def _record_row(rec: EpochRecord) -> list:
    """[epoch, then every other field as a float], in _RECORD_FIELDS order:
    one records.csv row, and one entry of a checkpoint's records."""
    return [rec.epoch] + [float(getattr(rec, f)) for f in _RECORD_FIELDS[1:]]


def _record_from_row(row) -> EpochRecord:
    """Inverse of _record_row; the values may also be their str forms."""
    return EpochRecord(int(row[0]), *(float(v) for v in row[1:]))


def records_to_csv(records, path) -> None:
    """Header plus one row per record, replacing `path` atomically."""
    write_csv(path, _RECORD_FIELDS, (_record_row(rec) for rec in records))


def records_from_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _RECORD_FIELDS:
            raise ValueError("unexpected records header: %r" % (header,))
        return [_record_from_row(row) for row in reader]


def rng_streams(seed: int):
    """(model/init stream, policy stream), spawned from one seed."""
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def make_batches(corpus_ids, batch_size: int, bptt_len: int):
    """Contiguous-stream LM batching.

    The id stream is cut into batch_size equal contiguous streams
    (trailing remainder dropped), then sliced into (input, target)
    windows of up to bptt_len steps with target = input shifted by one.
    The final window may be shorter. Hidden state is meant to carry
    across consecutive windows; resets are the caller's business.
    """
    ids = np.asarray(corpus_ids, dtype=np.int64)
    if batch_size < 1 or bptt_len < 1:
        raise ValueError("batch_size and bptt_len must be >= 1")
    stream_len = ids.size // batch_size
    if ids.size < batch_size * bptt_len or stream_len < 2:
        raise ValueError(
            "corpus too short: %d ids for batch_size=%d, bptt_len=%d"
            % (ids.size, batch_size, bptt_len)
        )
    data = ids[: stream_len * batch_size].reshape(batch_size, stream_len)
    batches = []
    for start in range(0, stream_len - 1, bptt_len):
        targets = data[:, start + 1: start + 1 + bptt_len]
        inputs = data[:, start: start + targets.shape[1]]
        batches.append((inputs, targets))
    return batches


def validate(model: LstmLm, val_batches) -> float:
    """Teacher-forced perplexity over a window list, state carried.

    exp(total NLL / total tokens); never touches parameters and never
    applies a sampling policy. Each window runs as the consecutive
    sub-windows of model.sub_windows, at most max(2, 2^17 // (4H * B))
    steps each (16 at H = 128, B = 16), with the state carried from one
    to the next, zeros for the first. A sub-window runs cells-only
    through model.forward_segment (one input projection per layer, the
    recurrence per step) in one reused cache, sized by the longest
    sub-window run, which keeps one step of gates and c and every step
    of h. model.target_log_probs scores each sub-window's top-layer
    rows in blocks of a fixed budget through one buffer, into
    the window's log-probs, whose negated sum in targets' (b, t) order
    is the window's NLL. So no (T, B, |V|) array is built, only those
    (T * B,) log-probs grow with B * T, and the result has the bits of
    the whole-window forward pass and output layer.
    """
    if not val_batches:
        raise ValueError("empty validation split")
    batch = val_batches[0][0].shape[0]
    spans = [sub_windows(model, inputs.shape[1], batch) for inputs, _ in val_batches]
    longest = max(hi - lo for window in spans for lo, hi in window)
    state = model.zero_state(batch)
    work = ForwardCache.window(model, state, np.zeros((longest, batch), np.int64))
    total_nll = 0.0
    total_tokens = 0
    for (inputs, targets), window in zip(val_batches, spans):
        picked = np.empty(targets.size)  # rows in (t, b) order
        for lo, hi in window:
            cache = ForwardCache.window(model, state, inputs[:, lo:hi].T, workspace=work)
            forward_segment(model, cache, 0, hi - lo)
            top = cache.h[1][1:].reshape(-1, model.hidden)
            picked[lo * batch:hi * batch] = target_log_probs(
                model, top, targets[:, lo:hi].T.reshape(-1))
            state = cache.final_state
        total_nll -= picked.reshape(targets.T.shape).T.ravel().sum()  # in targets' (b, t) order
        total_tokens += targets.size
    return float(np.exp(total_nll / total_tokens))


def _load_run_inputs(cfg: TrainConfig, rng_model: np.random.Generator):
    """Corpus, vocab, splits, embeddings - everything data-side:
    _load_run_splits, then _load_run_embeddings, whose draws (with no
    embeddings file) are rng_model's first."""
    vocab, train_ids, val_ids = _load_run_splits(cfg)
    return vocab, train_ids, val_ids, _load_run_embeddings(cfg, vocab, rng_model)


def _load_run_splits(cfg: TrainConfig):
    """(vocab, train ids, validation ids); reads the corpora, draws nothing."""
    tokens = read_corpus(cfg.corpus)
    vocab = build_vocabulary(tokens, cfg.min_count)
    ids = vocab.encode(tokens)
    if cfg.val_corpus:
        train_ids = ids
        val_ids = vocab.encode(read_corpus(cfg.val_corpus))
    else:
        n_val = max(cfg.bptt_len + 1, int(round(ids.size * cfg.val_fraction)))
        if n_val >= ids.size:
            raise ValueError("corpus too short to split off a validation tail")
        train_ids = ids[:-n_val]
        val_ids = ids[-n_val:]
    return vocab, train_ids, val_ids


def _load_run_embeddings(cfg: TrainConfig, vocab, rng_model: np.random.Generator):
    """The (|V|, dim) embedding matrix: cfg.embeddings parsed for `vocab`,
    or, with no file, uniform draws from rng_model."""
    if cfg.embeddings:
        return load_embeddings(cfg.embeddings, vocab, cfg.dim, fallback_seed=cfg.seed)
    span = 0.5 / cfg.dim
    return EmbeddingMatrix.from_vectors(rng_model.uniform(-span, span, (len(vocab), cfg.dim)))


RECORDS_FILE = "records.csv"
CHECKPOINT_FILE = "checkpoint.bin"
TRACE_FILE = "decisions.csv"

CHECKPOINT_MAGIC = "nnrslab-checkpoint"


def save_checkpoint(path, model: LstmLm, rng_policy: np.random.Generator, records,
                    vocab_hash: str, config: TrainConfig,
                    velocity=None, gumbel=None) -> None:
    """All state needed to continue the run exactly, each value once:
    parameters, velocity, Gumbel logits, config, policy RNG, and the
    records (the last holds the epoch, tau and best to resume from)."""
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": __version__,
        "vocab_hash": vocab_hash,
        "config": config_to_dict(config),
        "records": [_record_row(r) for r in records],
        "rng_policy": rng_policy.bit_generator.state,
        "vocab_size": model.vocab_size,
    }
    arrays = {"param_" + k: v for k, v in model.params.items()}
    if velocity is not None:
        arrays.update({"vel_" + k: v for k, v in velocity.items()})
    if gumbel is not None:
        arrays["gumbel_log_alpha"] = gumbel.log_alpha
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    save_arrays(path, **arrays)


def load_checkpoint(path, vocab_hash: str = None) -> dict:
    """Read a checkpoint; refuses a vocab-hash mismatch outright. params
    and velocity are FlatParams in the model's layout, each read straight
    into its flat vector. velocity and gumbel_log_alpha are None when the
    run had no momentum or GSNS. An archive that lacks one parameter, or
    holds only part of the velocity, is refused, naming the first member
    missing."""
    flats = {}

    def into(shapes):
        if "param_embed" not in shapes or "param_lstm1_Wh" not in shapes:
            return {}  # not a checkpoint: refused below
        vocab_size, dim = shapes["param_embed"]
        for prefix in ("param_", "vel_"):
            if prefix + "embed" in shapes:
                flats[prefix] = LstmLm.zeros(vocab_size, dim, shapes["param_lstm1_Wh"][0]).params
        return {prefix + key: view for prefix, flat in flats.items() for key, view in flat.items()}

    data = load_arrays(path, into)
    if "meta" not in data:
        raise ValueError("%s is not a checkpoint (no meta entry)" % path)
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    if meta.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError("%s is not a checkpoint" % path)
    keys = LstmLm.zeros(1, 1, 1).params  # the parameter names, in layout order
    for prefix in ("param_", "vel_"):
        missing = [prefix + key for key in keys if prefix + key not in data]
        if prefix == "param_" and len(missing) == len(keys):
            raise ValueError("%s holds no model parameters" % path)
        if len(missing) not in (0, len(keys)):
            raise ValueError("%s lacks checkpoint member %s" % (path, missing[0]))
    if vocab_hash is not None and meta["vocab_hash"] != vocab_hash:
        raise ValueError(
            "checkpoint vocabulary hash %s does not match current vocabulary %s"
            % (meta["vocab_hash"][:12], vocab_hash[:12])
        )
    return {
        "meta": meta,
        "params": flats.get("param_"),
        "velocity": flats.get("vel_"),
        "gumbel_log_alpha": data.get("gumbel_log_alpha"),
        "records": [_record_from_row(row) for row in meta["records"]],
    }


def model_from_checkpoint(path, vocab_hash: str = None):
    """(model, checkpoint dict) for evaluation-style consumers; the model's
    params are the checkpoint's."""
    ck = load_checkpoint(path, vocab_hash)
    params = ck["params"]
    vocab_size, dim = params["embed"].shape
    model = LstmLm(vocab_size, dim, params["lstm1_Wh"].shape[0], params)
    return model, ck


class _Trace:
    """Optional decision trace: epoch,step,t,source,teacher_id,chosen_id.

    A run starting at epoch 1 writes a new file. A resumed run first drops
    the rows of `start_epoch` and later, and a torn last line, which a run
    killed in that epoch left behind; it then appends. The header goes
    only into an empty file.
    """

    def __init__(self, path, start_epoch: int):
        resumed = start_epoch > 1 and os.path.exists(path)
        if resumed:  # streamed, so memory stays bounded
            with open(path, encoding="utf-8", newline="") as old, \
                    replacing(path, "w", encoding="utf-8", newline="") as new:
                for lineno, line in enumerate(old):
                    if line.endswith("\n") and (
                            lineno == 0 or int(line.split(",", 1)[0]) < start_epoch):
                        new.write(line)
        self._fh = open(path, "a" if resumed else "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh)
        if self._fh.tell() == 0:
            self._writer.writerow(["epoch", "step", "t", "source", "teacher_id", "chosen_id"])

    def rows(self, epoch, step_idx, t, source, teachers, chosen):
        label = Source(source).label
        for teach, chose in zip(teachers, chosen):
            self._writer.writerow([epoch, step_idx, t, label, int(teach), int(chose)])

    def flush(self):
        self._fh.flush()

    def close(self):
        self._fh.close()


def _train_epoch(model, state, cfg, table, gumbel, train_batches, lr,
                 velocity, trace, epoch):
    """One pass over the training windows. Returns (train nll, gsns grad parts).

    Each window's source mask is drawn first, then the window is cut
    before every Prediction step: within a segment every input id is
    known (teacher or neighbor), so it runs layer-wise in one
    forward_segment call, without the output layer. Logit rows
    (model.step_logits) are computed only where a prediction is fed
    back: the step before a cut, and in modes that take epsilon the
    window's last step, before sgd_step moves the parameters. No
    log-softmax is built for them. backward runs the output layer over
    the whole window and reports its NLL. Draws happen in timestep
    order, as a loop over timesteps would make them: a cut's
    predict_sample draws, then each Neighbor step's draws for all B rows
    at once. In GSNS mode a Neighbor step keeps its draws' relaxation
    rows, and after backward each draw's straight-through gradient is
    chained through gumbel_backward into the epoch's logit gradient.
    Every window runs in the first window's training cache,
    which no later window is longer than, and backward writes every
    window's gradients into the first window's FlatParams, which
    sgd_step consumes; both are freed when the epoch returns.
    """
    first = grads = None
    hidden = None
    feeds_back = MODES[cfg.mode][0]
    prev_logits = None  # the previous window's last step, for SS feedback
    total_nll = 0.0
    total_tokens = 0
    gsns_grad = np.zeros_like(gumbel.log_alpha) if gumbel is not None else None
    gsns_rows = set()

    for step_idx, (inputs, targets) in enumerate(train_batches):
        batch, width = inputs.shape
        if hidden is None:
            hidden = model.zero_state(batch)
        mask = decide_batch_positions(state, width)
        if mask[0] == Source.PREDICTION and prev_logits is None:
            mask[0] = Source.TEACHER  # nothing to feed back yet
        sources = mask.tolist()
        cache = ForwardCache.window(model, hidden, inputs.T, workspace=first, train=True)
        first = cache if first is None else first
        ids = cache.ids
        starts = [0] + [t for t in range(1, width) if sources[t] == Source.PREDICTION]
        soft = []  # each GSNS Neighbor step's relaxation rows, in timestep order
        for lo, hi in zip(starts, starts[1:] + [width]):
            if sources[lo] == Source.PREDICTION:  # a cut's logits are freed once read
                ids[lo] = greedy_or_sample_predict(
                    step_logits(model, cache, lo - 1) if lo else prev_logits,
                    cfg.predict_sample, state.rng)
            for t in range(lo, hi):
                if sources[t] != Source.NEIGHBOR:
                    continue
                if gumbel is not None:
                    slots, relaxed = gumbel_sample(gumbel, inputs[:, t], GUMBEL_TAU, state.rng)
                    ids[t] = table.ids[inputs[:, t], slots]
                    soft.append(relaxed)
                else:
                    ids[t] = sample_neighbors(table, inputs[:, t], state.rng)
            forward_segment(model, cache, lo, hi)
        if feeds_back:
            prev_logits = step_logits(model, cache, width - 1)
        hidden = cache.final_state
        if trace is not None:
            for t, src in enumerate(sources):
                trace.rows(epoch, step_idx, t, src, inputs[:, t], ids[t])

        grads = backward(model, cache, targets, out=grads)  # consumes the buffer
        total_nll += cache.nll * targets.size
        total_tokens += targets.size
        swapped = [t for t, src in enumerate(sources) if src == Source.NEIGHBOR]
        if gumbel is not None and swapped:
            # straight-through: dL/dsoft_j = dL/dx . embed[neighbor_j], then
            # the tempered-softmax Jacobian at each draw's relaxation
            words = inputs[:, swapped].T.reshape(-1)
            dx = cache.input_grads[swapped].reshape(-1, model.dim, 1)
            slot_grads = (model.params["embed"][table.ids[words]] @ dx)[:, :, 0]
            np.add.at(gsns_grad, words,
                      gumbel_backward(np.concatenate(soft), slot_grads, GUMBEL_TAU))
            gsns_rows.update(words.tolist())
        if cfg.freeze_embeddings:
            grads["embed"][:] = 0.0
        sgd_step(model, grads, lr, cfg.clip, cfg.momentum, velocity)  # consumes grads

    return total_nll / total_tokens, gsns_grad, gsns_rows


def check_stop_after(stop_after, epochs: int) -> None:
    """Refuse a stop_after outside [1, epochs]; None runs every epoch."""
    if stop_after is not None and not 1 <= stop_after <= epochs:
        raise ValueError("stop_after must be in [1, epochs = %d], got %d" % (epochs, stop_after))


def run_training(config: TrainConfig, stop_after: int = None,
                 resume_from: str = None, trace: bool = False):
    """Run the full curriculum loop. Returns (model, records).

    Epoch i in 1..epochs evaluates the schedules at z = i / epochs (the
    final epoch sits on the schedule endpoints) and the learning rate
    at cosine_lr(base_lr, i - 1, epochs) (the first epoch trains at
    base_lr). A scheduled-sampling position at the very first step of
    an epoch falls back to the teacher token since no prediction
    exists yet. policy.MODES gives each mode's table, whose k must be
    below |V|: neighbor tables are (re)built at the clamped temperature
    and follow the controller (GSNS: its Gumbel logits), transition
    tables are static. A resume
    past stop_after is refused. A ValueError inside an epoch, such as a
    non-finite gradient, is re-raised as DivergenceError carrying the
    records of the epochs before it. An epoch whose validation
    perplexity is NaN or above 10 |V| diverges alike in every mode: it
    runs no controller step, is recorded with tau and best unchanged
    (records.csv included, no checkpoint), and raises DivergenceError.
    The run directory and `trace` are described in the module docstring.
    """
    cfg = config
    cfg.check()
    check_stop_after(stop_after, cfg.epochs)
    if trace and not cfg.out_dir:
        raise ValueError("a decision trace needs out_dir")

    rng_model, rng_policy = rng_streams(cfg.seed)
    vocab, train_ids, val_ids, emb = _load_run_inputs(cfg, rng_model)
    n_vocab = len(vocab)
    vocab_hash = vocab.content_hash()

    table = gumbel = None
    table_kind, k = MODES[cfg.mode][1], cfg.k or default_k(n_vocab)
    if table_kind is not None and k >= n_vocab:
        raise ValueError("k must be below the vocabulary size %d, got %d" % (n_vocab, k))
    if table_kind == "neighbor":
        table = build_neighbor_table(emb, k, tau=clamp_tau(cfg.tau_init))
    elif table_kind == "transition":
        table = build_transition_table(train_ids, vocab, k)
    if cfg.mode == "GSNS":
        gumbel = GumbelLogits.from_table(table, beta=cfg.gumbel_beta)

    model = LstmLm.init(n_vocab, cfg.dim, cfg.hidden, rng_model, embed=emb.vectors)
    del vocab, emb  # the model holds a copy of the matrix; only |V| and the hash are read below
    state = PolicyState(mode=cfg.mode, rng=rng_policy, tau=cfg.tau_init,
                        best_val_loss=float(n_vocab))
    velocity = model.params.like() if cfg.momentum > 0.0 else None
    records = []
    start_epoch = 1

    if resume_from:
        ck = load_checkpoint(resume_from, vocab_hash)
        stored_mode = ck["meta"]["config"]["mode"]
        if stored_mode != cfg.mode:
            raise ValueError("checkpoint mode %s does not match config mode %s"
                             % (stored_mode, cfg.mode))
        for key, view in model.params.items():  # refused before any epoch runs
            if ck["params"][key].shape != view.shape:
                raise ValueError("checkpoint parameter %s has shape %s, the config's model %s"
                                 % (key, ck["params"][key].shape, view.shape))
        model.params.flat[:] = ck["params"].flat
        if ck["velocity"] is not None:
            velocity = ck["velocity"]
        records = ck["records"]
        last = records[-1]
        state.tau = last.tau
        state.best_val_loss = last.best
        state.rng.bit_generator.state = ck["meta"]["rng_policy"]
        if ck["gumbel_log_alpha"] is not None:
            gumbel = GumbelLogits(ck["gumbel_log_alpha"], beta=cfg.gumbel_beta)
        del ck  # its parameters are in the model's now
        if table_kind == "neighbor":
            table = renormalize(table, clamp_tau(state.tau))
        start_epoch = last.epoch + 1
        if start_epoch > cfg.epochs:
            raise ValueError("checkpoint already holds all %d epochs" % cfg.epochs)
        if stop_after is not None and stop_after < start_epoch:
            raise ValueError("stop_after %d is before the checkpoint's next epoch, %d"
                             % (stop_after, start_epoch))

    train_batches = make_batches(train_ids, cfg.batch_size, cfg.bptt_len)
    val_batches = make_batches(val_ids, 1, cfg.bptt_len)

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    tracer = _Trace(os.path.join(cfg.out_dir, TRACE_FILE), start_epoch) if trace else None
    try:
        for epoch in range(start_epoch, cfg.epochs + 1):
            epsilon, gamma = rates_for_epoch(cfg.ss, cfg.nnrs, epoch, cfg.epochs)
            state.set_rates(epsilon, gamma)
            lr = cosine_lr(cfg.base_lr, epoch - 1, cfg.epochs)
            started = time.perf_counter()

            try:
                train_nll, gsns_grad, gsns_rows = _train_epoch(
                    model, state, cfg, table, gumbel, train_batches, lr,
                    velocity, tracer, epoch,
                )
                val_ppl = validate(model, val_batches)
                diverged = math.isnan(val_ppl) or val_ppl > 10.0 * n_vocab
                if not diverged:  # a diverged epoch keeps tau, the table and best
                    if gumbel is not None:
                        gumbel = gumbel_update(gumbel, gsns_grad, gsns_rows)
                    elif table_kind == "neighbor":
                        update_temperature(state, val_ppl)
                        table = renormalize(table, state.tau)
                    state.best_val_loss = min(state.best_val_loss, val_ppl)
            except ValueError as exc:  # e.g. sgd_step refusing a non-finite gradient
                raise DivergenceError("epoch %d failed: %s" % (epoch, exc), records) from exc

            records.append(EpochRecord(
                epoch=epoch, epsilon=epsilon, gamma=gamma, tau=state.tau,
                train_loss=float(np.exp(train_nll)), val_loss=val_ppl,
                best=state.best_val_loss, lr=lr,
                wall_time=time.perf_counter() - started,
            ))
            if tracer is not None:
                tracer.flush()  # before the checkpoint that resumes after this epoch
            if cfg.out_dir:  # checkpoint first: no recorded epoch is missing from it
                if not diverged:
                    save_checkpoint(os.path.join(cfg.out_dir, CHECKPOINT_FILE), model,
                                    state.rng, records, vocab_hash, cfg,
                                    velocity=velocity, gumbel=gumbel)
                records_to_csv(records, os.path.join(cfg.out_dir, RECORDS_FILE))
            if diverged:
                reason = "is NaN" if math.isnan(val_ppl) else "exceeded 10x vocabulary size"
                raise DivergenceError("validation perplexity %.3g %s at epoch %d"
                                      % (val_ppl, reason, epoch), records)
            if stop_after is not None and epoch >= stop_after:
                break
    finally:
        if tracer is not None:
            tracer.close()
    return model, records
