"""Run one nnrslab CLI command in this fresh interpreter, optionally traced.

    python3 benchmarks/child.py --src SRC --timing T.json [--spans S.json] -- CLI-ARGS...

Writes T.json with `import_s` (importing nnrslab.cli here) and `main_s`
(the CLI's main call). With --spans it first installs wrappers around
the package's public functions at the names their callers look up, and
writes every span (parent index, name, start, end, counts) to S.json
when the command ends. No file of the package is changed.
"""

import argparse
import functools
import json
import os
import sys
import time
import tracemalloc


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _mask_counts(args, kwargs, mask):
    """Sources in a decide_batch_positions mask, next to the shares the
    state's epsilon and gamma predict (both firing splits 50/50)."""
    state, seq_len = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "seq_len")
    eps, gam = state.epsilon, state.gamma
    both = eps * gam / 2.0
    values = mask.tolist()
    return {
        "teacher": values.count(0), "prediction": values.count(1), "neighbor": values.count(2),
        "exp_teacher": seq_len * (1.0 - eps) * (1.0 - gam),
        "exp_prediction": seq_len * (eps * (1.0 - gam) + both),
        "exp_neighbor": seq_len * (gam * (1.0 - eps) + both),
    }


def _noop_draw(args, kwargs, chosen):
    return {"noop": int(chosen == int(_arg(args, kwargs, 1, "word")))}


def _bytes_written(args, kwargs, _out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _rows_loaded(_args, _kwargs, emb):
    return {"rows": len(emb)}


def _tokens_scored(args, kwargs, _out):
    return {"tokens": sum(int(t.size) for _, t in _arg(args, kwargs, 1, "val_batches"))}


# (span name, defining module, attribute, lookup modules or None for
# every nnrslab module that holds the same function, counter, trace memory)
# `step` is one function with three callers, so each caller's lookup name
# gets its own span name.
TARGETS = [
    ("model.train_step", "nnrslab.model", "step", ("nnrslab.trainer",), None, False),
    ("model.infer_step", "nnrslab.model", "step", ("nnrslab.model",), None, False),
    ("model.decode_step", "nnrslab.model", "step", ("nnrslab.metrics",), None, False),
    ("model.backward", "nnrslab.model", "backward", None, None, False),
    ("model.sgd_step", "nnrslab.model", "sgd_step", None, None, False),
    ("model.loss_from_cache", "nnrslab.model", "loss_from_cache", None, None, False),
    ("model.greedy_or_sample_predict", "nnrslab.model", "greedy_or_sample_predict", None, None, False),
    ("trainer.validate", "nnrslab.trainer", "validate", None, _tokens_scored, False),
    ("trainer.save_checkpoint", "nnrslab.trainer", "save_checkpoint", None, None, False),
    ("trainer.model_from_checkpoint", "nnrslab.trainer", "model_from_checkpoint", None, None, False),
    ("trainer.make_batches", "nnrslab.trainer", "make_batches", None, None, False),
    ("policy.decide_batch_positions", "nnrslab.policy", "decide_batch_positions", None, _mask_counts, False),
    ("policy.gumbel_sample", "nnrslab.policy", "gumbel_sample", None, None, False),
    ("policy.gumbel_update", "nnrslab.policy", "gumbel_update", None, None, False),
    ("policy.update_temperature", "nnrslab.policy", "update_temperature", None, None, False),
    ("neighbors.sample_neighbor", "nnrslab.neighbors", "sample_neighbor", None, _noop_draw, False),
    ("neighbors.build_neighbor_table", "nnrslab.neighbors", "build_neighbor_table", None, None, True),
    ("neighbors.build_transition_table", "nnrslab.neighbors", "build_transition_table", None, None, False),
    ("neighbors.renormalize", "nnrslab.neighbors", "renormalize", None, None, False),
    ("neighbors.save_table", "nnrslab.neighbors", "save_table", None, _bytes_written, False),
    ("neighbors.save_table_csv", "nnrslab.neighbors", "save_table_csv", None, _bytes_written, False),
    ("embeddings.load_embeddings", "nnrslab.embeddings", "load_embeddings", None, _rows_loaded, False),
    ("vocab.read_corpus", "nnrslab.vocab", "read_corpus", None, None, False),
    ("vocab.build_vocabulary", "nnrslab.vocab", "build_vocabulary", None, None, False),
    ("vocab.encode", "nnrslab.vocab", "Vocabulary.encode", None, None, False),
    ("metrics.evaluate_model", "nnrslab.metrics", "evaluate_model", None, None, False),
    ("metrics.bleu4", "nnrslab.metrics", "bleu4", None, None, False),
    ("metrics.self_bleu4", "nnrslab.metrics", "self_bleu4", None, None, False),
    ("metrics.wmd_score", "nnrslab.metrics", "wmd_score", None, None, False),
    ("metrics.self_wmd", "nnrslab.metrics", "self_wmd", None, None, False),
    ("arrayio.save_arrays", "nnrslab.arrayio", "save_arrays", None, _bytes_written, False),
    ("arrayio.load_arrays", "nnrslab.arrayio", "load_arrays", None, None, False),
]


class Tracer:
    """In-memory spans: [parent index or -1, name, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, name, count=None, memory=False):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [open_[-1] if open_ else -1, name, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(rec)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if memory:
                    rec[4] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2.0 ** 20}
            finally:
                rec[2], rec[3] = start, time.perf_counter()
                open_.pop()
                if memory:
                    tracemalloc.stop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Replace each target at its callers' lookup names."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "nnrslab" or name.startswith("nnrslab.")}
        # resolve every original first: step is wrapped three times
        originals = {(home, attr): getattr(modules[home], attr)
                     for _, home, attr, *_ in TARGETS if "." not in attr}
        for span, home, attr, callers, count, memory in TARGETS:
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), span, count, memory))
                continue
            orig = originals[home, attr]
            wrapped = self.wrap(orig, span, count, memory)
            for mod_name in callers or modules:
                mod = modules[mod_name]
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapped)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    started = time.perf_counter()
    import nnrslab.cli
    import_s = time.perf_counter() - started
    if not os.path.realpath(nnrslab.cli.__file__).startswith(src + os.sep):
        print("nnrslab was imported from %s, not from %s" % (nnrslab.cli.__file__, src),
              file=sys.stderr)
        return 4

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    code = None
    started = time.perf_counter()
    try:
        code = nnrslab.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - started
        with open(args.timing, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "exit": code}, fh)
        if tracer is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
