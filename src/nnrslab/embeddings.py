"""Pretrained embedding loading, restricted to a vocabulary.

Reads word2vec text format (optional "count dim" header, then one
"word v1 ... vd" line per word). Vocabulary words missing from the file
get a deterministic seeded fallback row so neighbor construction stays
total over the vocabulary; words in the file but outside the vocabulary
are ignored (replacement sampling never leaves the vocabulary).
"""

import math
from dataclasses import dataclass

import numpy as np

_CHECK_BUDGET = 1 << 14  # elements of one row block of from_vectors's temporaries


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
        """Checks and row norms run in row blocks of about _CHECK_BUDGET
        elements, so their temporaries stay small next to the matrix."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")
        rows = max(1, _CHECK_BUDGET // max(vectors.shape[1], 1))
        norms = np.empty(vectors.shape[0])
        for lo in range(0, vectors.shape[0], rows):
            block = vectors[lo:lo + rows]
            bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
            if bad.size:
                raise ValueError("embedding row %d has a non-finite value" % (lo + bad[0]))
            norms[lo:lo + rows] = np.linalg.norm(block, axis=1)
        zero = frozenset(int(i) for i in np.flatnonzero(norms == 0.0))
        return cls(vectors=vectors, dim=vectors.shape[1], norms=norms, zero_rows=zero)

    def __len__(self) -> int:
        return self.vectors.shape[0]


def load_embeddings(path, vocab, dim: int, fallback_seed: int = 0) -> EmbeddingMatrix:
    """Load word2vec-text embeddings for `vocab` from `path`.

    Vocabulary words absent from the file receive a fallback row
    (fallback_rows) from a generator seeded by `fallback_seed`, in
    vocabulary-id order, so the result is run-to-run identical for a
    fixed file, vocabulary and seed. Raises
    ValueError with the offending line number on malformed lines, on any
    dimensionality mismatch and, when no line is malformed, at the
    earliest kept line holding inf or NaN. The first line of a word wins.

    The file is streamed: each kept line is parsed straight into its row
    of the (|V|, d) matrix, so memory stays near the matrix's size.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    vectors = np.empty((len(vocab), dim), dtype=np.float64)
    found = np.zeros(len(vocab), dtype=bool)
    first_non_finite = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if lineno == 1 and len(parts) == 2 and all(_is_int(p) for p in parts):
                if int(parts[1]) != dim:
                    raise ValueError(
                        "embedding file header declares dim %s, expected %d" % (parts[1], dim)
                    )
                continue
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
            if found[wid]:  # first occurrence wins
                continue
            try:
                row = [float(v) for v in values]
            except ValueError as exc:
                raise ValueError("malformed embedding line %d: %s" % (lineno, exc)) from exc
            vectors[wid] = row
            found[wid] = True
            if first_non_finite is None and not all(map(math.isfinite, row)):
                first_non_finite = lineno
    if first_non_finite is not None:  # only file rows can be non-finite
        raise ValueError("non-finite value in embedding line %d" % first_non_finite)

    missing = np.flatnonzero(~found)
    vectors[missing] = fallback_rows(np.random.default_rng(fallback_seed), missing.size, dim)
    return EmbeddingMatrix.from_vectors(vectors)


def fallback_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n embedding rows of width `dim` for words no file gives: uniform
    draws from [-0.5/dim, 0.5/dim) by `rng`, one row after another."""
    return rng.uniform(-0.5 / dim, 0.5 / dim, (n, dim))


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
