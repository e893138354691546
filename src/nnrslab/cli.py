"""Command-line surface.

    nnrslab index    --corpus C --embeddings E --dim D --out-dir O
                     [--k K] [--tau T] [--min-count N]
    nnrslab train    --config F [--resume CKPT] [--stop-after N] [--trace]
    nnrslab trace    ...               (an alias of train --trace)
    nnrslab eval     --checkpoint CKPT --out R.csv [--metrics ppl,bleu,wmd]
                     [--corpus C] [--split NAME] [--batch-size B]
                     [--prefix-len P]
    nnrslab schedule --kind linear --start 0 --end 0.5 --epochs 40 --out S.csv
    nnrslab kl-diag  --p P.csv --q Q.csv --eps 0.5 --gamma 0.5 --out D.csv

Exit codes: 0 success, 2 usage or validation problem, 3 runtime
failure. `train` runs the trainer's setup phase (trainer.prepare_run:
the config, the input files, the table, the model, the windows) before
anything else, so a bad config or input exits 2 and writes nothing. So
does a model too large to allocate, a --resume file that cannot be read
(it is hashed right after the setup phase, before training rewrites
it) and, for `train` and `index` alike, an output directory that names
an existing file. Then `train` and `index` take an exclusive kernel lock
on the output directory's .lock file, so two runs cannot write into the
same place; the kernel releases it however the holder exits, and its
new holder first removes the temporary files a killed write left
behind. A directory locked by a running command exits 2. `train` then
writes a manifest.json (config snapshot, seed, input hashes, output
names) before the resume and the epochs run; what fails from there on
(a checkpoint that does not fit the config, divergence) exits 3. The
manifest's `segments` list holds one entry per invocation (command,
start time, --stop-after, --resume and the resumed checkpoint's
sha256); a resumed run appends its entry to the manifest already
there. When the
invocation ends, however it ends, its entry is closed with the
exit status, the last completed epoch (null when the run recorded
none), the duration in seconds and, on failure, the error text.
BLEU-style scores are printed and written x100 in eval output; every
other artifact keeps the internal [0, 1] scale.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .arrayio import TMP_NAME, replacing, write_csv
from .embeddings import load_embeddings
from .metrics import EMBEDDING_METRICS, ToyChain, evaluate_model, kl_decomposition, reports_to_csv
from .neighbors import build_neighbor_table, build_transition_table, default_k, save_table, save_table_csv
from .schedules import KINDS, Schedule
from .trainer import (
    CHECKPOINT_FILE,
    RECORDS_FILE,
    TRACE_FILE,
    _load_run_embeddings,
    _load_run_splits,
    config_from_dict,
    config_to_dict,
    make_batches,
    model_from_checkpoint,
    parse_config_file,
    prepare_run,
    rng_streams,
)
from .vocab import build_vocabulary, read_corpus


class UsageError(Exception):
    """Bad arguments, bad config, missing inputs: exit code 2."""


def _exit_code(exc: Exception) -> int:
    """The exit status of a command that raised `exc`: anything but a
    UsageError is a runtime failure."""
    return 2 if isinstance(exc, UsageError) else 3


def _checked(fn, *args, **kwargs):
    """Run a setup-phase callable, converting failures to UsageError."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError, MemoryError) as exc:
        raise UsageError(str(exc)) from exc


def _check_readable(path) -> None:
    """Raise the OSError that reading `path` would: missing, a directory,
    no permission."""
    with open(path, "rb"):
        pass


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _DirLock:
    """An exclusive flock on out_dir/.lock while a command writes out_dir;
    concurrent runs must use distinct out dirs. POSIX only.

    The kernel drops the lock when its holder exits, however it exits, so
    the .lock a killed run leaves refuses nothing. Once the lock is held
    nothing else writes out_dir, so the temporary files a killed write
    left there (arrayio.TMP_NAME) are removed.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, ".lock")

    def __enter__(self):
        while True:
            self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                with contextlib.suppress(FileNotFoundError):
                    if os.path.samestat(os.fstat(self.fd), os.stat(self.path)):
                        break
            except BaseException as exc:
                os.close(self.fd)
                if isinstance(exc, BlockingIOError):
                    raise UsageError("output directory is locked (%s is held); another run "
                                     "is active" % self.path) from None
                raise
            os.close(self.fd)  # its holder unlinked the file we locked: lock the new one
        try:
            for name in os.listdir(self.out_dir):
                if TMP_NAME.match(name):
                    os.unlink(os.path.join(self.out_dir, name))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)  # first: a run that opened it before then locks a new one
        os.close(self.fd)
        return False


def _write_json(path, payload) -> None:
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_index(args) -> int:
    k_arg = args.k
    if k_arg is not None and k_arg < 1:
        raise UsageError("--k must be >= 1")
    tokens = _checked(read_corpus, args.corpus)
    vocab = _checked(build_vocabulary, tokens, args.min_count)
    ids = vocab.encode(tokens)
    del tokens  # the encoded ids are all that is used from here on
    emb = _checked(load_embeddings, args.embeddings, vocab, args.dim)
    k = k_arg if k_arg is not None else default_k(len(vocab))
    table = _checked(build_neighbor_table, emb, k, args.tau)
    trans = _checked(build_transition_table, ids, vocab, k)

    _checked(os.makedirs, args.out_dir, exist_ok=True)
    with _DirLock(args.out_dir):
        base = args.out_dir
        vocab.save(os.path.join(base, "vocab.tsv"))
        save_table(os.path.join(base, "neighbors.bin"), table)
        save_table_csv(os.path.join(base, "neighbors.csv"), table)
        save_table(os.path.join(base, "transitions.bin"), trans)
        save_table_csv(os.path.join(base, "transitions.csv"), trans)
        counts, edges = np.histogram(table.sims, bins=20, range=(-1.0, 1.0))
        _write_json(os.path.join(base, "stats.json"), {
            "k": k,
            "vocab_size": len(vocab),
            "tau": args.tau,
            "flagged_words": len(table.flagged),
            "sim_histogram": {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            },
        })
    print("indexed %d words, k=%d -> %s" % (len(vocab), k, args.out_dir))
    return 0


def _read_manifest(path):
    """The manifest a resumed run appends its segment to; None if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from exc
    if not isinstance(manifest, dict):
        raise UsageError("%s is not a run manifest" % path)
    if not isinstance(manifest.setdefault("segments", []), list):
        raise UsageError("%s: segments is not a list" % path)
    return manifest


def cmd_train(args) -> int:
    """`train`, or its alias `trace`, which turns the decision trace on."""
    cfg = _checked(parse_config_file, args.config)
    if not cfg.out_dir:
        raise UsageError("config must set out_dir")
    trace = args.trace or args.command == "trace"
    stop_after, resume = args.stop_after, args.resume
    run = _checked(prepare_run, cfg, stop_after, resume, trace)  # before the lock and the manifest
    resume_sha256 = _checked(_sha256, resume) if resume else None  # before run() rewrites it
    _checked(os.makedirs, cfg.out_dir, exist_ok=True)

    with _DirLock(cfg.out_dir):
        segment = {
            "command": args.command,  # as typed: train or trace
            "created_unix": time.time(),
            "stop_after": stop_after,
            "resume_from": resume,
            "resume_sha256": resume_sha256,
        }
        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        manifest = _read_manifest(manifest_path) if resume else None
        if manifest is None:
            inputs = {args.config: _sha256(args.config), cfg.corpus: _checked(_sha256, cfg.corpus)}
            for extra in (cfg.embeddings, cfg.val_corpus):
                if extra:
                    inputs[extra] = _checked(_sha256, extra)
            manifest = {
                "command": args.command,
                "version": __version__,
                "created_unix": segment["created_unix"],
                "seed": cfg.seed,
                "config": config_to_dict(cfg),
                "inputs": inputs,
                "outputs": [RECORDS_FILE, CHECKPOINT_FILE] + ([TRACE_FILE] if trace else []),
                "segments": [],
            }
        manifest["segments"].append(segment)
        _write_json(manifest_path, manifest)
        started = time.perf_counter()
        records, status, error = [], None, None
        try:
            _, records = run()
            status = 0
        except BaseException as exc:  # an interrupt leaves exit_status null
            records = getattr(exc, "records", records)  # a DivergenceError's
            status = _exit_code(exc) if isinstance(exc, Exception) else None
            error = str(exc) or type(exc).__name__
            raise
        finally:
            segment.update(exit_status=status,
                           last_epoch=records[-1].epoch if records else None,
                           duration_s=time.perf_counter() - started, error=error)
            _write_json(manifest_path, manifest)
    last = records[-1]
    print("trained %d epoch(s), final val perplexity %.4f -> %s"
          % (last.epoch, last.val_loss, cfg.out_dir))
    return 0


_METRIC_NAMES = {
    "ppl": "ppl",
    "bleu": "bleu4",
    "wmd": "wmd",
    "self_bleu": "self_bleu4",
    "self_wmd": "self_wmd",
}
_BLEU_LIKE = ("bleu4", "self_bleu4")


def cmd_eval(args) -> int:
    if args.prefix_len is not None and args.prefix_len < 1:
        raise UsageError("--prefix-len must be >= 1")
    wanted = []
    for name in args.metrics.split(","):
        name = name.strip()
        if name not in _METRIC_NAMES:
            raise UsageError(
                "unknown metric %r (choose from %s)" % (name, ", ".join(sorted(_METRIC_NAMES)))
            )
        wanted.append(_METRIC_NAMES[name])

    model, ck = _checked(model_from_checkpoint, args.checkpoint)
    cfg = _checked(config_from_dict, ck["meta"]["config"])
    vocab, _train_ids, val_ids = _checked(_load_run_splits, cfg)
    if vocab.content_hash() != ck["meta"]["vocab_hash"]:
        raise UsageError("checkpoint vocabulary does not match the config corpus")

    if args.corpus:
        eval_ids = vocab.encode(_checked(read_corpus, args.corpus))
    else:
        eval_ids = val_ids
    batch = cfg.batch_size if args.batch_size is None else args.batch_size
    windows = _checked(make_batches, eval_ids, batch, cfg.bptt_len)  # refuses batch < 1
    if cfg.embeddings and set(EMBEDDING_METRICS) & set(wanted):
        _checked(_check_readable, cfg.embeddings)  # before any model pass; parsed after decoding

    def embeddings():  # training's matrix: same file, or the same seeded draws
        return _checked(_load_run_embeddings, cfg, vocab, rng_streams(cfg.seed)[0])

    reports = evaluate_model(model, windows, embeddings, wanted,
                             prefix_len=args.prefix_len, split_name=args.split,
                             config_id=args.checkpoint, exclude={vocab.unk_id})
    reports = [replace(rep, value=rep.value * 100.0) if rep.metric in _BLEU_LIKE else rep
               for rep in reports]
    reports_to_csv(reports, args.out)
    for rep in reports:
        print("%-12s %-6s %.4f" % (rep.metric, rep.split, rep.value))
    return 0


def cmd_schedule(args) -> int:
    schedule = _checked(Schedule, args.kind, args.start, args.end)
    if args.epochs < 1:
        raise UsageError("--epochs must be >= 1")
    rates = schedule.table(args.epochs)
    write_csv(args.out, ["epoch", "z", "rate"],
              ([epoch, epoch / args.epochs, float(rate)] for epoch, rate in enumerate(rates)))
    print("wrote %d rows -> %s" % (len(rates), args.out))
    return 0


def _load_chain(path) -> ToyChain:
    trans = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return ToyChain.from_transitions(trans)


def cmd_kl_diag(args) -> int:
    p_chain = _checked(_load_chain, args.p)
    q_chain = _checked(_load_chain, args.q)
    terms = _checked(kl_decomposition, p_chain, q_chain, args.eps, args.gamma)
    write_csv(args.out, ["term", "value"], terms.items())
    for name, value in terms.items():
        print("%-14s %.6g" % (name, value))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnrslab",
        description="Nearest-neighbor replacement sampling: tables, training, evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save neighbor + transition tables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=None, help="neighbors per word (default: log2 |V|)")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--min-count", type=int, default=1)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train", aliases=["trace"],
                       help="run a training config (trace: with --trace on)")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--stop-after", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="also write decisions.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--split", default="valid", help="label recorded in the report")
    p.add_argument("--metrics", default="ppl,bleu,wmd")
    p.add_argument("--corpus", default=None, help="evaluation text (default: config's validation split)")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--prefix-len", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("schedule", help="emit a rate table for a schedule")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("kl-diag", help="KL decomposition of two toy chains")
    p.add_argument("--p", required=True, help="CSV transition matrix of the data chain")
    p.add_argument("--q", required=True, help="CSV transition matrix of the model chain")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kl_diag)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
