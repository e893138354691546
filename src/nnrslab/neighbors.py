"""Top-k embedding-neighbor tables and the bigram-transition alternative.

For every vocabulary word the neighbor table stores the k most
cosine-similar other words, exact by brute force, plus a sampling
distribution over those k slots obtained by a temperature softmax of the
similarities: p(w'|w) = exp(cos(w,w')/tau) / sum_u exp(cos(u,w)/tau).
Low tau concentrates mass on the closest neighbor; high tau flattens
toward uniform. tau is kept inside [0.5, 10] so the distribution is
never degenerate in either direction.

The neighbor build never holds the |V| x |V| similarity matrix: it
scores one block of rows at a time against every valid row into one
reused buffer of about 2^20 similarities, so working memory is
O(rows * |V|). The block shape depends only on the number of valid rows,
which keeps reruns byte-identical (matrix-product bits depend on operand
shape). Per row it never selects over all |V| similarities either: the
k-th largest of a few dozen column-chunk maxima is a lower bound on the
row's k-th largest similarity, and only the handful of entries at or
above it are clipped to [-1, 1] and sorted (the usual first step of
brute-force k-selection; Johnson et al. 2017, arXiv 1702.08734).

The transition table is the replacement-sampling baseline: per word,
the top-k successors by corpus bigram count, renormalized.
"""

from dataclasses import dataclass, replace

import numpy as np

from .arrayio import load_arrays, replacing, save_arrays
from .embeddings import EmbeddingMatrix

TAU_MIN = 0.5
TAU_MAX = 10.0

_ROW_SUM_TOL = 1e-9

# Similarities scored per block in build_neighbor_table (8 MiB of float64).
# Fixed, not tunable: sims bits depend on the block shape.
_BLOCK_ELEMS = 1 << 20

# Column chunks whose maxima bound each row's k-th largest similarity from
# below: min(m, max(_CHUNKS_PER_K * k, _MIN_CHUNKS)). Any count above k
# gives the same table; these leave about 14 candidates a row for k = 13
# at |V| = 7.5k.
_CHUNKS_PER_K = 4
_MIN_CHUNKS = 64
_FINITE_MIN = -np.finfo(np.float64).max

# Rows formatted per write in save_table_csv (rounded down to whole words).
_CSV_CHUNK_ROWS = 1 << 13


def check_tau(tau: float) -> None:
    """Refuse a temperature outside [TAU_MIN, TAU_MAX]."""
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ValueError("tau must be in [%g, %g], got %g" % (TAU_MIN, TAU_MAX, tau))


def clamp_tau(tau: float) -> float:
    return min(max(float(tau), TAU_MIN), TAU_MAX)


def default_k(vocab_size: int) -> int:
    """Sample-efficient neighbor count: round(log2(|V|)), at least 1."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    return max(1, round(np.log2(vocab_size)))


@dataclass(frozen=True)
class NeighborTable:
    """Per-word top-k cosine neighbors with a tau-softmax sampling row.

    ids[w] holds the k neighbor word ids (self excluded, similarity
    descending, ties to the smaller id), sims[w] the matching cosine
    similarities, probs[w] the sampling distribution at temperature
    `tau`. Words flagged at embedding time (zero rows) keep placeholder
    self rows and are listed in `flagged`; sampling them is a no-op.
    """

    k: int
    ids: np.ndarray
    sims: np.ndarray
    probs: np.ndarray
    tau: float
    flagged: frozenset[int]

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass(frozen=True)
class TransitionTable:
    """Per-word top-k successors by bigram count, renormalized.

    Words never observed with a successor get a self-loop row with
    probability 1. Slots beyond the number of distinct successors are
    padded with the word itself at probability 0.
    """

    k: int
    ids: np.ndarray
    probs: np.ndarray
    flagged: frozenset[int] = frozenset()

    def __len__(self) -> int:
        return self.ids.shape[0]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: shift by the max, exp, normalize."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def build_neighbor_table(emb: EmbeddingMatrix, k: int, tau: float = 1.0) -> NeighborTable:
    """Exact brute-force top-k cosine neighbors for every word.

    Only words with nonzero embedding rows are neighbor candidates;
    `k` must leave every valid word at least k candidates besides itself.

    Rows are scored in blocks of max(1, _BLOCK_ELEMS // m) against all m
    valid rows, each block written into the leading rows of one reused
    buffer, so memory is O(rows * m), never O(m^2).

    Per row, the m columns fall into C = min(m, max(4k, 64)) fixed chunks.
    The k-th largest chunk maximum is the k-th largest of k or more of
    the row's own values, so it never exceeds the row's k-th largest
    similarity; with C > k it is finite, since only self is -inf. Every
    entry at or above that bound is a candidate: a superset of the exact
    top-k, all ties at the k-th value included. Only the candidates are
    clipped to [-1, 1], which can merge values into ties at +-1, so the
    bound is capped at 1 and, once it is <= -1, every finite entry is a
    candidate. Sorting the candidates by (similarity descending, id
    ascending) then yields the same ids and sims bits for any C > k.
    """
    n = len(emb)
    valid = np.flatnonzero(emb.norms > 0.0)
    m = valid.size
    if k < 1 or k >= m:
        raise ValueError(
            "k must satisfy 1 <= k < number of valid rows (%d), got %d" % (m, k)
        )
    check_tau(tau)

    unit = emb.vectors[valid] / emb.norms[valid, None]
    ids = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k))
    sims = np.zeros((n, k), dtype=np.float64)
    step = min(m, max(1, _BLOCK_ELEMS // m))
    block = np.empty((step, m))
    chunks = min(m, max(_CHUNKS_PER_K * k, _MIN_CHUNKS))
    starts = np.arange(chunks) * m // chunks
    slots = np.arange(k)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        s = block[:hi - lo]
        np.matmul(unit[lo:hi], unit.T, out=s)
        local = np.arange(hi - lo)
        s[local, lo + local] = -np.inf  # self is never a candidate
        # k-th largest chunk maximum: a lower bound on the row's k-th largest
        # similarity, finite because chunks > k and only self is -inf
        maxima = np.maximum.reduceat(s, starts, axis=1)
        bound = np.partition(maxima, chunks - k, axis=1)[:, chunks - k]
        # the clip below ties every value <= -1 at -1 and every value >= 1 at 1:
        # the bound must not split such a tie, nor let self's -inf in
        bound[bound <= -1.0] = _FINITE_MIN
        np.minimum(bound, 1.0, out=bound)
        flat = np.flatnonzero(s >= bound[:, None])  # far cheaper than 2-D nonzero
        row, col = np.divmod(flat, m)
        cand = s.ravel()[flat]
        np.clip(cand, -1.0, 1.0, out=cand)
        order = np.lexsort((col, -cand, row))
        # row is ascending and each row keeps >= k candidates: row r's
        # ordered run starts where r first appears in row
        take = order[np.searchsorted(row, local)[:, None] + slots]
        ids[valid[lo:hi]] = valid[col[take]]
        sims[valid[lo:hi]] = cand[take]
    del block, s  # before the (n, k) softmax temporaries

    probs = _softmax_rows(sims / tau)
    return NeighborTable(
        k=k, ids=ids, sims=sims, probs=probs, tau=float(tau),
        flagged=emb.zero_rows,
    )


def renormalize(table: NeighborTable, tau: float) -> NeighborTable:
    """New table whose probs are softmax(sims / tau); ids/sims shared."""
    check_tau(tau)
    return replace(table, probs=_softmax_rows(table.sims / tau), tau=float(tau))


def categorical_draw(row: np.ndarray, rng: np.random.Generator) -> int:
    """One inverse-CDF draw from a probability row (k,): a slot index.

    searchsorted(cdf, u * cdf[-1], side="right") clipped to the last
    slot, with u = rng.random(); a u * total equal to a running sum moves
    past it, so a zero-probability slot is never drawn.
    """
    cdf = np.cumsum(row)
    slot = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(slot, cdf.size - 1)


def categorical_draws(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """categorical_draw for each row of `probs` (N, k): slot indices (N,).

    The clipped search is the count of running sums before the last
    that are <= u_r times the row total, with u = rng.random(N): the same
    doubles, in the same order, as N scalar rng.random() calls.
    """
    cdf = np.cumsum(probs, axis=1)
    x = rng.random(cdf.shape[0]) * cdf[:, -1]
    return (cdf[:, :-1] <= x[:, None]).sum(axis=1)


def sample_neighbors(table, words, rng: np.random.Generator) -> np.ndarray:
    """One neighbor id per word of `words`, drawn from its probability row.

    Flagged (zero-embedding) words return themselves and consume no
    draw; the others draw in order, so the ids and the rng state equal
    those of a loop of sample_neighbor calls. Works for NeighborTable
    and TransitionTable alike.
    """
    words = np.asarray(words, dtype=np.int64)
    out = words.copy()
    live = slice(None)
    if table.flagged:
        live = np.array([w not in table.flagged for w in words.tolist()], dtype=bool)
    out[live] = table.ids[words[live], categorical_draws(table.probs[words[live]], rng)]
    return out


def sample_neighbor(table, word: int, rng: np.random.Generator) -> int:
    """Draw one neighbor id for `word` from its probability row.

    The one-word form of sample_neighbors, with the same draws: flagged
    words return themselves without drawing.
    """
    if word in table.flagged:
        return int(word)
    return int(table.ids[word, categorical_draw(table.probs[word], rng)])


def build_transition_table(corpus_ids, vocab, k: int) -> TransitionTable:
    """Top-k bigram successors per word from a training id stream.

    Successors are ranked by count descending, ties to the smaller id;
    probs are each kept count over the kept row total.
    """
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    if corpus_ids.size == 0:
        raise ValueError("empty corpus")
    if k < 1:
        raise ValueError("k must be >= 1, got %d" % k)
    n = len(vocab)
    if corpus_ids.min() < 0 or corpus_ids.max() >= n:
        raise ValueError("corpus ids must lie in [0, %d)" % n)
    codes, counts = np.unique(corpus_ids[:-1] * n + corpus_ids[1:], return_counts=True)
    prev, succ = np.divmod(codes, n)
    order = np.lexsort((succ, -counts, prev))
    prev, succ, counts = prev[order], succ[order], counts[order]
    rank = np.arange(prev.size) - np.searchsorted(prev, prev)
    keep = rank < k
    prev, succ, counts, rank = prev[keep], succ[keep], counts[keep], rank[keep]

    ids = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k))
    probs = np.zeros((n, k), dtype=np.float64)
    totals = np.bincount(prev, weights=counts, minlength=n)  # integer-valued, exact
    ids[prev, rank] = succ
    probs[prev, rank] = counts / totals[prev]
    probs[totals == 0, 0] = 1.0  # self-loop fallback
    return TransitionTable(k=k, ids=ids, probs=probs)


def _check_row_sums(probs: np.ndarray, what: str) -> None:
    sums = probs.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    if not worst <= _ROW_SUM_TOL:  # NaN rows fail too
        raise ValueError("%s row sums off by %.3g (tolerance %g)" % (what, worst, _ROW_SUM_TOL))


def save_table(path, table) -> None:
    """Binary (zip-of-npy) serialization for either table kind."""
    fields = dict(ids=table.ids, probs=table.probs, k=np.int64(table.k),
                  flagged=np.array(sorted(table.flagged), dtype=np.int64))
    if isinstance(table, NeighborTable):
        fields.update(sims=table.sims, tau=np.float64(table.tau))
    save_arrays(path, **fields)


def load_table(path):
    """Load a table saved by :func:`save_table`, validating row sums."""
    data = load_arrays(path)
    _check_row_sums(data["probs"], "table")
    flagged = frozenset(int(i) for i in data["flagged"])
    if "sims" in data:
        return NeighborTable(
            k=int(data["k"]), ids=data["ids"], sims=data["sims"],
            probs=data["probs"], tau=float(data["tau"]), flagged=flagged,
        )
    return TransitionTable(k=int(data["k"]), ids=data["ids"], probs=data["probs"],
                           flagged=flagged)


def save_table_csv(path, table) -> None:
    """Inspection CSV: one "word_id,neighbor_id,sim,prob" row per slot.

    Transition tables have no similarity column and omit it. Floats are
    written as repr, lines end in CRLF (csv.writer's dialect). Rows are
    formatted and written about _CSV_CHUNK_ROWS at a time, whole words
    per chunk, through a temporary file renamed over `path`.
    """
    n, k = table.ids.shape
    if isinstance(table, NeighborTable):
        header, row = "word_id,neighbor_id,sim,prob\r\n", "%d,%d,%r,%r\r\n"
        values = (table.sims, table.probs)
    else:
        header, row = "word_id,neighbor_id,prob\r\n", "%d,%d,%r\r\n"
        values = (table.probs,)
    words = max(1, _CSV_CHUNK_ROWS // k)
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for lo in range(0, n, words):
            hi = min(lo + words, n)
            cols = [np.repeat(np.arange(lo, hi), k).tolist(), table.ids[lo:hi].ravel().tolist()]
            cols.extend(v[lo:hi].ravel().tolist() for v in values)
            fh.write("".join(row % fields for fields in zip(*cols)))
