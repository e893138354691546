"""Seeded synthetic inputs for the benchmark workloads.

Everything the program under test reads is generated here: the same
seed writes the same bytes, and nothing is downloaded.

- Zipf corpora: i.i.d. Zipf(s) draws, optionally after a shuffled prefix
  holding every type once, so that |V| does not depend on the seed.
- Gaussian vectors: one N(0, 1) row per type in word2vec text format.
- Cluster-Markov corpora and vectors: the construction the acceptance
  tests use (synonym clusters whose members share a base vector).

Held-out text is drawn from HELD_OUT_SEED, not from the workload seed,
so every seed is scored on the same tokens and a perplexity varies
across seeds only through the model trained on the seeded part.
"""

import numpy as np

HELD_OUT_SEED = 20210122


def held_out_rng():
    return np.random.default_rng(HELD_OUT_SEED)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def count_tokens(lines):
    """Tokens nnrslab's reader sees: the words plus one <eos> per line."""
    return sum(len(line.split()) + 1 for line in lines)


def zipf_lines(rng, n_words, n_types, s=1.1, cover=False, min_len=8, max_len=24):
    """`n_words` Zipf(s) words over types w0..w{n_types-1}, cut into lines
    of random length. With `cover` every type occurs at least once."""
    words = ["w%d" % i for i in range(n_types)]
    p = np.arange(1, n_types + 1, dtype=np.float64) ** -s
    p /= p.sum()
    head = rng.permutation(n_types) if cover else np.zeros(0, dtype=np.int64)
    if n_words < head.size:
        raise ValueError("n_words must be at least n_types when covering every type")
    ids = np.concatenate([head, rng.choice(n_types, size=n_words - head.size, p=p)])
    lines = []
    pos = 0
    while pos < ids.size:
        width = int(rng.integers(min_len, max_len + 1))
        lines.append(" ".join(words[i] for i in ids[pos:pos + width]))
        pos += width
    return lines


def gaussian_vectors(path, rng, n_types, dim):
    """Write N(0, 1) word2vec-text vectors (with header) for w0..w{n-1}."""
    vecs = rng.normal(0.0, 1.0, (n_types, dim))
    lines = ["%d %d" % (n_types, dim)]
    lines += ["w%d %s" % (i, " ".join("%.6f" % v for v in row)) for i, row in enumerate(vecs)]
    write_lines(path, lines)


def _cluster_words(n_clusters, members):
    return [["c%dw%d" % (c, m) for m in range(members)] for c in range(n_clusters)]


def cluster_markov_lines(rng, n_lines, n_clusters=6, members=4, line_len=20, stay=0.8):
    """Lines from a Markov chain over synonym clusters.

    Cluster c hops to (c + 1) mod C with probability `stay`, anywhere
    else uniformly; the emitted word is a uniform member of the target
    cluster.
    """
    words = _cluster_words(n_clusters, members)
    trans = np.full((n_clusters, n_clusters), (1.0 - stay) / (n_clusters - 1))
    for c in range(n_clusters):
        trans[c, c] = 0.0
        trans[c, (c + 1) % n_clusters] = stay
    trans /= trans.sum(axis=1, keepdims=True)
    lines = []
    cluster = 0
    for _ in range(n_lines):
        toks = []
        for _ in range(line_len):
            cluster = int(rng.choice(n_clusters, p=trans[cluster]))
            toks.append(words[cluster][int(rng.integers(members))])
        lines.append(" ".join(toks))
    return lines


def cluster_vectors(path, rng, n_clusters=6, members=4, dim=16, noise=0.05):
    """Members share a unit base vector plus small noise, so they are one
    another's nearest neighbors."""
    words = _cluster_words(n_clusters, members)
    lines = []
    for c in range(n_clusters):
        base = rng.normal(0.0, 1.0, dim)
        base /= np.linalg.norm(base)
        for m in range(members):
            vec = base + noise * rng.normal(0.0, 1.0, dim)
            lines.append(words[c][m] + " " + " ".join(repr(float(v)) for v in vec))
    write_lines(path, lines)
