"""Evaluation suite: BLEU-4, self-BLEU-4, embedding WMD scores, the
KL-decomposition diagnostic on toy Markov chains, and the model-level
evaluation protocol that ties them together.

All scores are kept in [0, 1] internally; the CLI multiplies BLEU-style
numbers by 100 for table-style display.

bleu4 and wmd_score score one pair. The diversity scores take a whole
batch at once: self_bleu4 counts each sequence's n-grams once and
equals the pairwise-bleu4 mean bit for bit; self_wmd normalizes each
kept token once and takes one (L_i, N) similarity product per sequence
against all N kept tokens, so its cost is linear in the batch size B
apart from those products, and it equals the pairwise-wmd_score mean
within 1e-12.

evaluate_model decodes every window from the zero state, so windows of
one width are stacked along the batch axis in chunks of whole windows
within model.block_rows rows and greedily decoded together, each step
through one reused one-step cells-only cache whose logit rows
model.step_logits reads; no log-softmax is built, since the argmax of a
logit row is the token. For windows of B >= 2 rows the continuations
equal per-window decoding bit for bit. Only the WMD scores read an
embedding matrix; evaluate_model takes a loader for it and calls it
after decoding, so the matrix is never held alongside the decode or
validation arrays.
"""

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arrayio import write_csv
from .embeddings import EmbeddingMatrix
from .model import (ForwardCache, block_rows, forward_segment, greedy_or_sample_predict,
                    step_logits)
from .policy import check_unit_interval
from .trainer import validate

_BLEU_EPS = 1e-9  # numerator floor for zero n-gram matches
_EXACT_WMD_MAX = 12


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _bleu_score(c: int, clipped, ref_lens) -> float:
    """BLEU of a length-c candidate from its clipped n-gram match counts
    (n = 1..len(clipped)) and the lengths of its references."""
    n_max = len(clipped)
    log_sum = 0.0
    for n, hits in enumerate(clipped, 1):
        numer = hits if hits > 0 else _BLEU_EPS
        log_sum += np.log(numer / (c - n + 1)) / n_max
    # closest reference length; ties resolve to the shorter reference
    r = min((abs(length - c), length) for length in ref_lens)[1]
    bp = 1.0 if c >= r else float(np.exp(1.0 - r / c))
    return float(bp * np.exp(log_sum))


def bleu4(candidate, references) -> float:
    """Sentence BLEU with n up to min(4, len(candidate)).

    Modified (clipped) n-gram precision against the reference multiset,
    geometric mean with uniform weights, zero match counts floored at
    1e-9, and the closest-reference-length brevity penalty.
    """
    cand = list(candidate)
    if not cand:
        raise ValueError("empty candidate")
    refs = [list(r) for r in references]
    if not refs or any(not r for r in refs):
        raise ValueError("references must be non-empty")
    clipped = []
    for n in range(1, min(4, len(cand)) + 1):
        ref_counts = [_ngram_counts(r, n) for r in refs]
        clipped.append(sum(
            min(cnt, max(rc[gram] for rc in ref_counts))
            for gram, cnt in _ngram_counts(cand, n).items()
        ))
    return _bleu_score(len(cand), clipped, [len(r) for r in refs])


def self_bleu4(batch) -> float:
    """Within-batch diversity: mean BLEU-4 of each sequence against
    all the others as references. Lower means more diverse.

    Equals the mean of bleu4(seq_i, all others) bit for bit, from one
    n-gram count per sequence and order: a gram's clipping bound
    against "all but i" is its highest count in the batch, or the
    second highest where sequence i holds the highest.
    """
    seqs = [list(s) for s in batch]
    if len(seqs) < 2:
        warnings.warn("self-BLEU needs at least 2 sequences, skipping batch", stacklevel=2)
        return None
    if any(not s for s in seqs):
        raise ValueError("empty sequence")
    clipped = [[] for _ in seqs]
    for n in range(1, 5):
        counts = [_ngram_counts(s, n) for s in seqs]  # empty below length n
        top = {}  # gram -> [highest count, its first holder, second highest]
        for i, cnt in enumerate(counts):
            for gram, k in cnt.items():
                entry = top.get(gram)
                if entry is None:
                    top[gram] = [k, i, 0]
                elif k > entry[0]:
                    entry[:] = [k, i, entry[0]]
                elif k > entry[2]:
                    entry[2] = k
        for i, cnt in enumerate(counts):
            if not cnt:
                continue
            hits = 0
            for gram, k in cnt.items():
                best, owner, second = top[gram]
                hits += min(k, second if owner == i else best)
            clipped[i].append(hits)
    lens = Counter(len(s) for s in seqs)
    vals = []
    for s, hits in zip(seqs, clipped):
        c = len(s)
        ref_lens = [length for length, k in lens.items() if length != c or k > 1]
        vals.append(_bleu_score(c, hits, ref_lens))
    return float(np.mean(vals))


def _unit_rows(emb: EmbeddingMatrix, ids) -> np.ndarray:
    """The embedding rows of `ids`, each divided by its norm."""
    return emb.vectors[ids] / emb.norms[ids, None]


def _cosines(pred_unit, pred_ids, target_unit, target_ids) -> np.ndarray:
    """The cosine rule: (P, T) similarities of _unit_rows, clipped to
    [-1, 1], and 1 wherever the two ids are the same (identical tokens
    are a perfect match by definition, ulp noise aside)."""
    sims = np.clip(pred_unit @ target_unit.T, -1.0, 1.0)
    sims[np.asarray(pred_ids)[:, None] == np.asarray(target_ids)[None, :]] = 1.0
    return sims


def _exact_transport_similarity(sims: np.ndarray) -> float:
    """Maximum-similarity optimal transport with uniform token mass."""
    from scipy.optimize import linprog  # only this exact variant needs scipy

    n, m = sims.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(-sims.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if not res.success:
        raise RuntimeError("transport LP failed: %s" % res.message)
    return float(-res.fun)


def wmd_score(pred, target, emb: EmbeddingMatrix, exclude=(), exact: bool = False):
    """Embedding similarity of two token-id sequences, in [0, 1].

    Default is the relaxed word-mover score: every token is matched to
    its cosine-nearest counterpart, both directions averaged. With
    exact=True (sequences of at most 12 tokens) the constrained
    optimal-transport counterpart is solved instead; the relaxed score
    is an upper bound of it. Raw similarity s maps to (s + 1) / 2.
    Ids listed in `exclude` and ids without an embedding are dropped;
    returns None when either side has nothing left (score undefined).
    """
    drop = set(exclude) | emb.zero_rows
    p_ids = [int(i) for i in pred if int(i) not in drop]
    t_ids = [int(i) for i in target if int(i) not in drop]
    if not p_ids or not t_ids:
        return None
    if exact and (len(p_ids) > _EXACT_WMD_MAX or len(t_ids) > _EXACT_WMD_MAX):
        raise ValueError("exact transport is limited to %d tokens per side" % _EXACT_WMD_MAX)
    sims = _cosines(_unit_rows(emb, p_ids), p_ids, _unit_rows(emb, t_ids), t_ids)
    if exact:
        raw = _exact_transport_similarity(sims)
    else:
        raw = 0.5 * (sims.max(axis=1).mean() + sims.max(axis=0).mean())
    return float((raw + 1.0) / 2.0)


def self_wmd(batch, emb: EmbeddingMatrix, exclude=()):
    """Within-batch mean pairwise WMD score; lower means more diverse.

    The mean over sequences i of the mean over j != i of
    wmd_score(seq_i, seq_j, emb, exclude), over the sequences with a
    token left after dropping `exclude` and zero-vector ids; None when
    fewer than two are left. All N kept tokens are normalized once, and
    each sequence takes one (L_i, N) similarity product against the
    whole batch, whose per-sequence maxima and means give all its pair
    scores. The product's rows round like the per-pair ones only to the
    last bit, so the result matches the pairwise loop within 1e-12.
    """
    seqs = list(batch)
    if len(seqs) < 2:
        warnings.warn("self-WMD needs at least 2 sequences, skipping batch", stacklevel=2)
        return None
    drop = set(exclude) | emb.zero_rows
    kept = [[int(i) for i in seq if int(i) not in drop] for seq in seqs]
    kept = [k for k in kept if k]
    if len(kept) < 2:
        return None
    lens = np.array([len(k) for k in kept])
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    ids = np.concatenate(kept)
    unit = _unit_rows(emb, ids)
    per_seq = []
    for i, (lo, hi) in enumerate(zip(starts, starts + lens)):
        sims = _cosines(unit[lo:hi], ids[lo:hi], unit, ids)
        # pred side: each token of i against its best match in each sequence j
        pred_side = np.maximum.reduceat(sims, starts, axis=1).mean(axis=0)
        # target side: each token of j against its best match in i
        target_side = np.add.reduceat(sims.max(axis=0), starts) / lens
        scores = (0.5 * (pred_side + target_side) + 1.0) / 2.0
        per_seq.append(np.delete(scores, i).mean())
    return float(np.mean(per_seq))


@dataclass(frozen=True)
class ToyChain:
    """A small explicit Markov chain: transitions plus its stationary
    marginal, the ground objects the KL diagnostic runs on."""

    trans: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=np.float64)
        marg = np.asarray(self.marginal, dtype=np.float64)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "marginal", marg)
        n = trans.shape[0]
        if trans.shape != (n, n) or marg.shape != (n,):
            raise ValueError("need an (n, n) transition matrix and an (n,) marginal")
        if not (np.isfinite(trans).all() and np.isfinite(marg).all()  # NaN passes the sum checks
                and (trans >= 0.0).all() and (marg >= 0.0).all()):
            raise ValueError("probabilities must be finite and non-negative")
        if np.abs(trans.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("transition rows must sum to 1")
        if abs(marg.sum() - 1.0) > 1e-9:
            raise ValueError("marginal must sum to 1")
        if np.abs(marg @ trans - marg).max() > 1e-8:
            raise ValueError("marginal is not stationary for these transitions")

    @classmethod
    def from_transitions(cls, trans) -> "ToyChain":
        """Solve pi @ trans = pi, sum(pi) = 1 for the marginal."""
        trans = np.asarray(trans, dtype=np.float64)
        n = trans.shape[0]
        a = trans.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        return cls(trans, np.linalg.solve(a, b))


def _kl(p, q) -> float:
    from scipy.special import rel_entr  # only the KL diagnostic needs scipy

    return float(rel_entr(p, q).sum())


def kl_decomposition(p_chain: ToyChain, q_chain: ToyChain,
                     epsilon: float, gamma: float) -> dict:
    """Five-term divergence between data chain P and model chain Q.

    marginal        KL between the stationary marginals
    ss_teacher      (1 - eps) * E_{h~Q} KL(P_row_h || Q_row_h)
    ss_model        eps       * E_{h~P} KL(P_row_h || Q_row_h)
    nnrs_teacher    (1 - gam) * E_{h~Q} KL(P_row_h || Q_row_h)
    nnrs_neighbor   gam       * E_{h~P} KL(P_row_h || Q_row_h)

    Every weighted term compares conditional next-token rows at the
    same history h, so the total is non-negative and vanishes exactly
    when P = Q. Requires strictly positive chains.
    """
    check_unit_interval("epsilon", epsilon)
    check_unit_interval("gamma", gamma)
    if p_chain.trans.shape != q_chain.trans.shape:
        raise ValueError("chains must share an alphabet size")
    for chain in (p_chain, q_chain):
        if not ((chain.trans > 0.0).all() and (chain.marginal > 0.0).all()):  # NaN fails
            raise ValueError("chains must be strictly positive (smooth them first)")

    row_kl = np.array([_kl(p_chain.trans[h], q_chain.trans[h])
                       for h in range(p_chain.trans.shape[0])])
    under_q = float(q_chain.marginal @ row_kl)
    under_p = float(p_chain.marginal @ row_kl)
    terms = {
        "marginal": _kl(p_chain.marginal, q_chain.marginal),
        "ss_teacher": (1.0 - epsilon) * under_q,
        "ss_model": epsilon * under_p,
        "nnrs_teacher": (1.0 - gamma) * under_q,
        "nnrs_neighbor": gamma * under_p,
    }
    terms["total"] = float(sum(terms.values()))
    return terms


@dataclass(frozen=True)
class ScoreReport:
    metric: str
    split: str
    value: float
    config_id: str = ""


def reports_to_csv(reports, path) -> None:
    """Write the report rows; a write that fails keeps the previous file."""
    write_csv(path, ["metric", "split", "value", "config_id"],
              ([rep.metric, rep.split, float(rep.value), rep.config_id] for rep in reports))


def _greedy_continuations(model, inputs: np.ndarray, prefix_len: int) -> np.ndarray:
    """Teacher-force a prefix, then greedy-decode to the window end.

    Returns the (B, width - prefix_len + 1) token ids: the greedy choice
    (greedy_or_sample_predict over step_logits, the rows scheduled
    sampling feeds back) after the prefix's last position, then after
    each decoded token. Every step runs cells-only in the first step's
    one-step cache, with the state after the step before copied into its
    row 0; steps before the prefix's last run no output layer.
    """
    batch, width = inputs.shape
    out = np.empty((batch, width - prefix_len + 1), dtype=np.int64)
    state, cache = model.zero_state(batch), None
    for t in range(width):
        ids = inputs[:, t] if t < prefix_len else out[:, t - prefix_len]
        cache = ForwardCache.window(model, state, ids[None], workspace=cache)
        state = forward_segment(model, cache, 0, 1).final_state
        if t >= prefix_len - 1:
            out[:, t - prefix_len + 1] = greedy_or_sample_predict(step_logits(model, cache, 0))
    return out


def _decode_windows(model, split, prefix_len):
    """Greedy continuations of every window, as (prefix, (B, n) ids) in split order.

    Windows decode from the zero state, so windows of one width (which
    share the prefix) are stacked along the batch axis in chunks of whole
    windows of at most block_rows(model) rows, or one wider window, and
    decoded together; the chunk's rows are split back per window.
    """
    cap = block_rows(model)
    groups = {}  # width -> chunks, each [rows, window indices]
    for i, (inputs, _) in enumerate(split):
        batch, width = inputs.shape
        chunks = groups.setdefault(width, [])
        if not chunks or chunks[-1][0] + batch > cap:
            chunks.append([0, []])
        chunks[-1][0] += batch
        chunks[-1][1].append(i)
    decoded = [None] * len(split)
    for width, chunks in groups.items():
        p = min(prefix_len if prefix_len is not None else max(1, width // 2), width)
        for _, members in chunks:
            inputs = [split[i][0] for i in members]
            gen = _greedy_continuations(model, np.concatenate(inputs), p)
            bounds = np.cumsum([x.shape[0] for x in inputs])[:-1]
            for i, part in zip(members, np.split(gen, bounds)):
                decoded[i] = (p, part)
    return decoded


METRICS = ("ppl", "bleu4", "wmd", "self_bleu4", "self_wmd")
EMBEDDING_METRICS = ("wmd", "self_wmd")  # the only ones that read an embedding matrix


def evaluate_model(model, split, embeddings, metrics,
                   prefix_len: int = None, split_name: str = "valid",
                   config_id: str = "", exclude=()):
    """Score a model on (input, target) windows: one report for each name
    in `metrics`, in METRICS order.

    ppl is teacher-forced perplexity. For any other metric, each window is
    continued greedily after a teacher-forced prefix (default: half the
    window; at most the window; prefix_len < 1 is refused): bleu4 and wmd
    score the continuations against the true ones, self_bleu4 and
    self_wmd against each other. Nothing runs that no asked
    metric needs. Metrics left undefined on every window (empty WMD
    intersections, size-1 batches) are omitted rather than reported
    non-finite.

    `embeddings` is a zero-argument callable returning the
    EmbeddingMatrix. It is called once, after every window is decoded,
    when wmd or self_wmd is asked, and not at all otherwise, so the
    matrix is not held through validation and decoding.
    """
    unknown = sorted(set(metrics) - set(METRICS))
    if unknown:
        raise ValueError("unknown metric(s) %s (choose from %s)"
                         % (", ".join(unknown), ", ".join(METRICS)))
    if not split:
        raise ValueError("empty split")
    if prefix_len is not None and prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")

    scores = {name: [] for name in METRICS if name in metrics}
    if "ppl" in scores:
        scores["ppl"].append(validate(model, split))
    decoded = [name for name in scores if name != "ppl"]
    continuations = _decode_windows(model, split, prefix_len) if decoded else ()
    emb = embeddings() if set(EMBEDDING_METRICS) & set(scores) else None
    for (_, targets), (p, gen) in zip(split, continuations):
        gen = gen.tolist()
        refs = targets[:, p - 1:].tolist()
        for name in decoded:
            if name == "bleu4":
                values = [bleu4(cand, [ref]) for cand, ref in zip(gen, refs)]
            elif name == "wmd":
                values = [wmd_score(cand, ref, emb, exclude) for cand, ref in zip(gen, refs)]
            elif name == "self_bleu4":
                values = [self_bleu4(gen)]
            else:
                values = [self_wmd(gen, emb, exclude)]
            scores[name] += [v for v in values if v is not None]
    return [ScoreReport(name, split_name, float(np.mean(values)), config_id)
            for name, values in scores.items() if values]
