"""Pretrained embedding loading, restricted to a vocabulary.

Reads word2vec text format (optional "count dim" header, then one
"word v1 ... vd" line per word). Vocabulary words missing from the file
get a deterministic seeded fallback row so neighbor construction stays
total over the vocabulary; words in the file but outside the vocabulary
are ignored (replacement sampling never leaves the vocabulary).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmbeddingMatrix:
    """|V| x d embedding block with cached row norms.

    `zero_rows` flags rows whose raw L2 norm is zero; these are excluded
    from neighbor candidacy instead of erroring. Rows holding inf or NaN
    are rejected: they would turn whole neighbor rows into NaN.
    """

    vectors: np.ndarray
    dim: int
    norms: np.ndarray
    zero_rows: frozenset[int]

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "EmbeddingMatrix":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if bad.size:
            raise ValueError("embedding row %d has a non-finite value" % bad[0])
        norms = np.linalg.norm(vectors, axis=1)
        zero = frozenset(int(i) for i in np.flatnonzero(norms == 0.0))
        return cls(vectors=vectors, dim=vectors.shape[1], norms=norms, zero_rows=zero)

    def __len__(self) -> int:
        return self.vectors.shape[0]


def load_embeddings(path, vocab, dim: int, fallback_seed: int = 0) -> EmbeddingMatrix:
    """Load word2vec-text embeddings for `vocab` from `path`.

    Vocabulary words absent from the file receive a fallback row drawn
    uniformly from [-0.5/d, 0.5/d) with a generator seeded by
    `fallback_seed`; draws happen in vocabulary-id order, so the result is
    run-to-run identical for a fixed file, vocabulary and seed. Raises
    ValueError with the offending line number on malformed lines and on
    lines holding inf or NaN, and on any dimensionality mismatch.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    found: dict[int, np.ndarray] = {}
    line_of: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(_is_int(p) for p in head):
            if int(head[1]) != dim:
                raise ValueError(
                    "embedding file header declares dim %s, expected %d" % (head[1], dim)
                )
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ValueError(
                "malformed embedding line %d: expected %d values, got %d"
                % (lineno, dim, len(values))
            )
        if word not in vocab:
            continue
        wid = vocab.id(word)
        if wid in found:  # first occurrence wins
            continue
        try:
            found[wid] = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ValueError("malformed embedding line %d: %s" % (lineno, exc)) from exc
        line_of[wid] = lineno

    rng = np.random.default_rng(fallback_seed)
    vectors = np.empty((len(vocab), dim), dtype=np.float64)
    for wid in range(len(vocab)):
        if wid in found:
            vectors[wid] = found[wid]
        else:
            vectors[wid] = rng.uniform(-0.5 / dim, 0.5 / dim, size=dim)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:  # only file rows can be non-finite; report the earliest line
        raise ValueError("non-finite value in embedding line %d"
                         % min(line_of[int(w)] for w in bad))
    return EmbeddingMatrix.from_vectors(vectors)


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
