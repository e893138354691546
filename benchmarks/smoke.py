"""Fast smoke test of the benchmark harness, and the desk-epoch sanity check.

    python3 benchmarks/smoke.py              # every workload at minimal sizes
    python3 benchmarks/smoke.py --desk-epoch # one traced 50k-token desk MLE epoch

Run from the repository root. The smoke test runs each workload for
about a second, untraced and traced, at the smallest input sizes, and
fails unless every output check passes and each result carries exactly
the metrics BENCHMARK.json declares. It takes about a minute and is not
part of the tier-1 suite (pytest does not collect this file name).

--desk-epoch times one MLE epoch at the ROADMAP's desk scale (about 50k
tokens, |V| about 2k, H=128, B=16, T=35) and compares epoch, step,
backward and validate seconds with the figures the ROADMAP recorded for
the seed commit (18.7, 10.0, 7.3 and 3.2 s). It fails when a figure is
off by more than a factor of DESK_TOLERANCE either way.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402
import run  # noqa: E402

DESK_FIGURES = {"epoch": 18.7, "step": 10.0, "backward": 7.3, "validate": 3.2}
DESK_TOLERANCE = 1.5


def check_declaration(root):
    """BENCHMARK.json declares exactly what run.py measures."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if got != declared:
            raise SystemExit("BENCHMARK.json %s differs from run.py: %s"
                             % (key, sorted(set(got) ^ set(declared))))
    return spec


def smoke(root):
    spec = check_declaration(root)
    names = {False: {m["name"] for m in spec["end_to_end"]},
             True: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for traced in (False, True):
            started = time.monotonic()
            result, lines = run.run_workload(workload, 0, 1, traced, root, smoke=True)
            ok = result["correct"] and set(result["metrics"]) == names[traced]
            print("%-12s trace=%d %-4s %d commands, %.1f s"
                  % (workload, traced, "ok" if ok else "FAIL", result["attempted"],
                     time.monotonic() - started))
            if not ok:
                print("\n".join(lines))
                return 1
    return 0


def desk_epoch(root):
    with run.workspace(root, "desk-epoch") as work:
        rng = run.np.random.default_rng(0)
        corpus, vectors = os.path.join(work, "desk.txt"), os.path.join(work, "desk.vec")
        lines = inputs.zipf_lines(rng, 45000, 2000, cover=True)
        inputs.write_lines(corpus, lines)
        tokens = inputs.count_tokens(lines)
        inputs.gaussian_vectors(vectors, rng, 2000, 64)
        cfg = run._desk_config(work, "mle", corpus, vectors, 1, False, mode="MLE")
        runner = run.Runner(root, work, time.monotonic() + 600.0)
        unit = run.run_unit(runner, [run._train_command("mle", work, cfg, tokens)], True, {})
    totals = run.layer_totals(unit["spans"][0])
    measured = {
        "epoch": unit["work"],
        "step": totals["model.train_step"]["incl"] + totals["model.infer_step"]["incl"],
        "backward": totals["model.backward"]["incl"],
        "validate": totals["trainer.validate"]["incl"],
    }
    print("machine " + json.dumps(run.machine_info(), sort_keys=True))
    print("desk MLE epoch: %d tokens read, traced" % tokens)
    bad = 0
    for name, figure in DESK_FIGURES.items():
        ratio = measured[name] / figure
        ok = 1.0 / DESK_TOLERANCE <= ratio <= DESK_TOLERANCE
        bad += not ok
        print("  %-9s %7.2f s   ROADMAP %5.1f s   ratio %.2f %s"
              % (name, measured[name], figure, ratio, "ok" if ok else "OFF"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--desk-epoch", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    return desk_epoch(root) if args.desk_epoch else smoke(root)


if __name__ == "__main__":
    sys.exit(main())
