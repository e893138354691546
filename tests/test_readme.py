"""The README's code runs as written."""

import re
from pathlib import Path

import numpy as np

from synth import cluster_markov, write_lines

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index("\n## %s\n" % section):]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_use_block_runs(tmp_path):
    # its data/ paths point at a small cluster-chain corpus and held-out text
    lines, _emb_lines, _words = cluster_markov(np.random.default_rng(3), n_lines=40)
    held_out, _, _ = cluster_markov(np.random.default_rng(4), n_lines=10)
    code = _python_block("Library use")
    assert "data/train.txt" in code and "data/valid.txt" in code
    code = (code.replace("data/train.txt", write_lines(tmp_path / "train.txt", lines))
            .replace("data/valid.txt", write_lines(tmp_path / "valid.txt", held_out)))
    scope = {}
    exec(compile(code, str(README) + ":Library use", "exec"), scope)

    model, cache = scope["model"], scope["cache"]
    assert len(scope["records"]) == 10
    assert scope["log_probs"].shape == (35, 4, model.vocab_size)
    assert cache.nll == scope["nll"]
    assert set(scope["grads"]) == set(model.params)
    assert scope["next_ids"].shape == (4,)
    assert np.isfinite(scope["norm"]) and scope["norm"] > 0.0
    assert [r.metric for r in scope["reports"]] == ["ppl", "bleu4", "self_bleu4"]
